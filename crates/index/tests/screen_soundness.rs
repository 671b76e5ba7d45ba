//! Soundness of phase 1 as a screen (`QuantPlan::screen_block`).
//!
//! The contract under test, for any plan, any block and **any** `τ`:
//!
//! - a tile left *unflagged* was dropped on its raw code polynomial, so
//!   every one of its lanes must have a `QuantPlan::lower_bounds` value
//!   `≥ τ` — exactly the lanes `TopK::offer_block`'s strict `<` rejects
//!   — and its lanes of `out` must be untouched;
//! - a *flagged* tile's lanes must equal `lower_bounds` bit for bit.
//!
//! `τ` is drawn from the corpus' own bounds, so lanes tie it exactly
//! (the case the strict/non-strict distinction lives on), from their
//! `f32` neighbours, and from the values nothing can be proven for
//! (`0`, negatives, a subnormal, `+∞`, NaN — the screen must flag every
//! tile). Plans span one to six components (one chunk and two), odd
//! dimensionalities, ragged corpora (`n % 8 ≠ 0`), zero weights,
//! zero-range dimensions, and `total_mass / mass_r` up to `1e12`, where
//! the aggregate's division overflows into its non-finite clamp and the
//! screen has to switch itself off rather than drop a lane whose
//! computed bound is `0`.
//!
//! CI runs this with `PROPTEST_CASES=256` in the `kernel-equivalence`
//! job.

use proptest::prelude::*;
use qcluster_index::{QuantPlan, QuantSpec, QuantizedScan, QUANT_BLOCK_TILES};

/// Written to `out` before every kernel call; no bound is negative.
const UNTOUCHED: f32 = -1.0;

struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Component descriptions owning their vectors.
struct Component {
    weights: Option<Vec<f64>>,
    center: Vec<f64>,
    mass: f64,
}

fn specs(components: &[Component]) -> Vec<QuantSpec<'_>> {
    components
        .iter()
        .map(|c| QuantSpec {
            weights: c.weights.as_deref(),
            center: &c.center,
            mass: c.mass,
        })
        .collect()
}

/// `n × dim` points in `[-scale/2, scale/2)`, the first `flat`
/// dimensions constant.
fn corpus(rng: &mut Rng, n: usize, dim: usize, scale: f64, flat: usize) -> Vec<f64> {
    let constants: Vec<f64> = (0..flat).map(|_| (rng.unit() - 0.5) * scale).collect();
    (0..n * dim)
        .map(|i| match constants.get(i % dim) {
            Some(&c) => c,
            None => (rng.unit() - 0.5) * scale,
        })
        .collect()
}

/// Random components around corpus points; `zero_weights` makes every
/// third weight (and now and then a whole component) zero.
fn components(
    rng: &mut Rng,
    data: &[f64],
    dim: usize,
    count: usize,
    zero_weights: bool,
) -> Vec<Component> {
    let n = data.len() / dim;
    (0..count)
        .map(|r| {
            let at = rng.below(n);
            let center: Vec<f64> = data[at * dim..(at + 1) * dim]
                .iter()
                .map(|v| v * (1.0 + 0.01 * rng.unit()))
                .collect();
            let weights = (r % 2 == 0 || zero_weights).then(|| {
                let dead = zero_weights && rng.below(4) == 0;
                (0..dim)
                    .map(|j| {
                        if dead || (zero_weights && j % 3 == 0) {
                            0.0
                        } else {
                            0.25 + 4.0 * rng.unit()
                        }
                    })
                    .collect()
            });
            Component {
                weights,
                center,
                mass: 0.5 + 4.0 * rng.unit(),
            }
        })
        .collect()
}

/// What one sweep of thresholds saw.
#[derive(Default)]
struct Sweep {
    tiles: usize,
    dropped: usize,
}

/// Screens every block of `quant` at every `τ` of interest and checks
/// the contract against one unscreened `lower_bounds` pass.
fn check_screen(quant: &QuantizedScan, plan: &QuantPlan) -> Result<Sweep, TestCaseError> {
    let dim = quant.corpus().dim();
    let ntiles = quant.corpus().ntiles();
    let mut bounds = vec![0.0f32; ntiles * 8];
    plan.lower_bounds(quant.codes(), ntiles, &mut Vec::new(), &mut bounds);
    prop_assert!(
        bounds.iter().all(|&b| b >= 0.0),
        "a bound is negative or NaN"
    );

    // The distinct bounds of the corpus (all of them up to 256, evenly
    // thinned beyond; padding lanes included: the kernel screens them
    // like any other lane), their two neighbours, and the thresholds
    // nothing can be proven for.
    let mut taus: Vec<f32> = bounds.clone();
    taus.sort_by(|a, b| a.partial_cmp(b).expect("bounds are not NaN"));
    taus.dedup();
    let step = taus.len().div_ceil(256);
    let mut taus: Vec<f32> = taus
        .into_iter()
        .step_by(step)
        .flat_map(|b| [b, b.next_up(), b.next_down()])
        .collect();
    let unprovable = [0.0, -0.0, -1.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    taus.extend(unprovable);
    taus.extend([f32::from_bits(1), f32::MIN_POSITIVE, f32::MAX]);

    let mut sweep = Sweep::default();
    let mut out = [UNTOUCHED; QUANT_BLOCK_TILES * 8];
    for &tau in &taus {
        let must_flag_all = unprovable.iter().any(|u| u.to_bits() == tau.to_bits());
        for (b, codes) in quant
            .codes()
            .chunks(QUANT_BLOCK_TILES * dim * 8)
            .enumerate()
        {
            let nt = codes.len() / (dim * 8);
            let out = &mut out[..nt * 8];
            out.fill(UNTOUCHED);
            let flags = plan.screen_block(codes, nt, tau, out);
            prop_assert_eq!(
                u64::from(flags) >> nt,
                0,
                "a flag past the block's last tile"
            );
            for t in 0..nt {
                let want = &bounds[(b * QUANT_BLOCK_TILES + t) * 8..][..8];
                let got = &out[t * 8..(t + 1) * 8];
                sweep.tiles += 1;
                if flags >> t & 1 == 1 {
                    for (g, w) in got.iter().zip(want) {
                        prop_assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "tau={} block {} tile {}",
                            tau,
                            b,
                            t
                        );
                    }
                } else {
                    sweep.dropped += 1;
                    prop_assert!(!must_flag_all, "tau={} dropped a tile", tau);
                    prop_assert!(
                        want.iter().all(|&w| w >= tau),
                        "tau={} block {} tile {}: dropped lanes {:?}",
                        tau,
                        b,
                        t,
                        want
                    );
                    prop_assert!(got.iter().all(|&g| g == UNTOUCHED), "dropped tile written");
                }
            }
        }
    }
    Ok(sweep)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// One to six components (two chunks from five on), odd and even
    /// dimensionalities, ragged corpora of one to five blocks, masses
    /// summing to the total as a disjunctive query's do.
    #[test]
    fn screen_is_sound_on_random_plans(
        seed in any::<u64>(),
        dim in 1usize..10,
        tiles in 0usize..140,
        ragged in 1usize..8,
        count in 1usize..7,
    ) {
        let mut rng = Rng(seed | 1);
        let n = tiles * 8 + ragged;
        let data = corpus(&mut rng, n, dim, 8.0, 0);
        let quant = QuantizedScan::from_flat(&data, dim);
        let comps = components(&mut rng, &data, dim, count, false);
        let total: f64 = comps.iter().map(|c| c.mass).sum();
        let plan = QuantPlan::build(quant.params(), &specs(&comps), total).expect("plan compiles");
        let sweep = check_screen(&quant, &plan)?;
        if count > 4 {
            prop_assert_eq!(sweep.dropped, 0, "a plan of two chunks dropped a tile");
        }
    }

    /// Zero weights (single dimensions and whole components, whose
    /// bound is then 0 everywhere) and constant dimensions, which code
    /// with `delta = 0`.
    #[test]
    fn screen_is_sound_with_zero_weights_and_zero_range_dimensions(
        seed in any::<u64>(),
        live in 1usize..5,
        flat in 1usize..4,
        tiles in 0usize..70,
        ragged in 1usize..8,
        count in 1usize..5,
    ) {
        let mut rng = Rng(seed | 1);
        let dim = flat + live;
        let n = tiles * 8 + ragged;
        let data = corpus(&mut rng, n, dim, 2.0e3, flat);
        let quant = QuantizedScan::from_flat(&data, dim);
        let comps = components(&mut rng, &data, dim, count, true);
        let total: f64 = comps.iter().map(|c| c.mass).sum();
        let plan = QuantPlan::build(quant.params(), &specs(&comps), total).expect("plan compiles");
        check_screen(&quant, &plan)?;
    }

    /// `total_mass` need not be the sum of the masses: up to `1e12`
    /// times a component's mass, at corpus magnitudes from 1 to 1e13,
    /// where `total / Σ mass_r/LB_r` overflows `f32` for the far points
    /// and the kernel reports the trivial bound 0 for them.
    #[test]
    fn screen_is_sound_for_mass_ratios_up_to_1e12(
        seed in any::<u64>(),
        dim in 1usize..6,
        tiles in 1usize..40,
        ragged in 1usize..8,
        count in 1usize..4,
        ratio_exp in 0u32..13,
        scale_exp in 0u32..14,
    ) {
        let mut rng = Rng(seed | 1);
        let n = tiles * 8 + ragged;
        let data = corpus(&mut rng, n, dim, 10f64.powi(scale_exp as i32), 0);
        let quant = QuantizedScan::from_flat(&data, dim);
        let comps = components(&mut rng, &data, dim, count, false);
        let total = comps[0].mass * 10f64.powi(ratio_exp as i32);
        let plan = QuantPlan::build(quant.params(), &specs(&comps), total).expect("plan compiles");
        check_screen(&quant, &plan)?;
    }
}

/// The overflow the mass-ratio property is about, pinned on one corpus
/// so the clamp is certainly exercised: coordinates of magnitude 1e13
/// give squared distances near 1e27, and a total mass of 1e12 against a
/// component mass of 1 multiplies that past `f32::MAX`. Far points then
/// carry the bound 0 — below every positive `τ` — while near ones carry
/// large positive bounds. Judged on the polynomial alone the far points
/// would be the first to go.
#[test]
fn overflowing_aggregate_switches_the_screen_off() {
    let mut rng = Rng(0x5eed_0f0e_4f10_e5a1);
    let dim = 3;
    let data = corpus(&mut rng, 1003, dim, 2.0e13, 0);
    let quant = QuantizedScan::from_flat(&data, dim);
    let comps = [Component {
        weights: None,
        center: data[..dim].to_vec(),
        mass: 1.0,
    }];
    let plan = QuantPlan::build(quant.params(), &specs(&comps), 1.0e12).expect("plan compiles");
    let ntiles = quant.corpus().ntiles();
    let mut bounds = vec![0.0f32; ntiles * 8];
    plan.lower_bounds(quant.codes(), ntiles, &mut Vec::new(), &mut bounds);
    let clamped = bounds.iter().filter(|&&b| b == 0.0).count();
    let large = bounds.iter().filter(|&&b| b > 1.0e30).count();
    assert!(
        clamped > 10 && large > 100,
        "clamped {clamped}, large {large}"
    );
    let sweep = check_screen(&quant, &plan).expect("screen is sound");
    assert_eq!(sweep.dropped, 0, "the overflow guard keeps the screen off");
}

/// The screen has to *work*, not only be sound: at the threshold a
/// converged heap holds (the 200th smallest bound of 20,000 points) a
/// one-component plan drops nearly every tile. With several components
/// one common level per component is a box inside the region the
/// harmonic aggregate allows, so fewer tiles go — but some must.
#[test]
fn screen_drops_most_tiles_at_a_converged_threshold() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let (n, dim) = (20_003, 9);
    let data = corpus(&mut rng, n, dim, 4.0, 0);
    let quant = QuantizedScan::from_flat(&data, dim);
    let ntiles = quant.corpus().ntiles();
    for count in [1usize, 2, 4] {
        let comps = components(&mut rng, &data, dim, count, false);
        let total: f64 = comps.iter().map(|c| c.mass).sum();
        let plan = QuantPlan::build(quant.params(), &specs(&comps), total).expect("plan compiles");
        let mut bounds = vec![0.0f32; ntiles * 8];
        plan.lower_bounds(quant.codes(), ntiles, &mut Vec::new(), &mut bounds);
        let mut sorted = bounds[..n].to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("bounds are not NaN"));
        let tau = sorted[199];
        let below = bounds
            .chunks(8)
            .filter(|t| t.iter().any(|&b| b < tau))
            .count();
        let mut out = [UNTOUCHED; QUANT_BLOCK_TILES * 8];
        let flagged: usize = quant
            .codes()
            .chunks(QUANT_BLOCK_TILES * dim * 8)
            .map(|codes| {
                let nt = codes.len() / (dim * 8);
                plan.screen_block(codes, nt, tau, &mut out[..nt * 8])
                    .count_ones() as usize
            })
            .sum();
        assert!(
            flagged >= below,
            "count={count}: a tile with a lane below τ was dropped"
        );
        let allowed = if count == 1 { ntiles / 10 } else { ntiles - 1 };
        assert!(
            flagged <= allowed,
            "count={count}: {flagged} of {ntiles} tiles flagged ({below} hold a lane below τ)"
        );
    }
}
