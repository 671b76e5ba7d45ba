//! Property tests pinning the two-phase quantized scan to the exact
//! linear scan, **bit-for-bit**.
//!
//! The contract under test: for any corpus and any diagonal-form query,
//! `QuantizedScan::two_phase_knn` returns the same neighbor ids in the
//! same order with the same `f64::to_bits` distances as
//! `LinearScan::knn`. Phase 1 may only ever *shrink* the rerank set —
//! never change the answer — and when the window is too small to
//! certify, the scan must run its bound-driven second round (phase 1
//! streamed again, every point with `LB ≤ τ` reranked) rather than
//! return an approximate top-k; a full exact rescan is reserved for a
//! violated bound and must never happen here.
//!
//! Phase 1 is streamed block by block and never materialises its
//! bounds, so the deterministic tests at the bottom compare it against
//! an oracle that does: all bounds from one `QuantPlan::lower_bounds`
//! call, the `m` smallest by `(bound, id)`. The oracle also predicts
//! `tail_tiles` — it knows what the heap's worst bound was when each
//! block started and asks `QuantPlan::screen_block` how many tiles that
//! threshold leaves. Corpora there span several blocks and end in
//! ragged tiles (`n % 8 ≠ 0`, `n % 256 ≠ 0`).
//!
//! Three corpus shapes stress the bound where it is weakest:
//!
//! - generic random corpora (arbitrary dims, magnitudes up to 1e9);
//! - duplicate-heavy corpora (many exact ties at the same distance, so
//!   the `(distance, id)` tiebreak ordering is load-bearing);
//! - zero-range dimensions (constant columns quantize with `delta = 0`,
//!   exercising the inflation floor of the error bound).
//!
//! CI runs these with `PROPTEST_CASES=256` in the `kernel-equivalence`
//! job; the default is lighter for local `cargo test`.
//!
//! Every shape is also cut into a `CooperativeScan` of 1–5 participants
//! at ragged positions (duplicates straddle the cuts, so ties are broken
//! by id *across* participants; `k` often exceeds a participant), whose
//! phase 1 runs on threads, or one after the other, in a random order.
//! It must answer like the exact scan too — and with a *ghost*, a
//! participant that publishes its threshold and is then left out of the
//! finish, like the exact scan over the others.
//!
//! The same cooperative scans run again *bounded* (`CooperativeScan::bound`)
//! by τ₀, the `k`-th smallest exact distance of `k` distinct ids: a
//! random subset, the cold answer itself, or a set that ends in ids
//! tying the cold answer's `k`-th distance. Bounded answers must equal
//! the exact scan's bit for bit, ghost included, and a bound from the
//! cold answer must not cost a second round the cold scan did not take.
//!
//! A bounded scan over a *partition* — a random contiguous range cut
//! into 1–5 participants — with τ₀ from `k` random ids of the whole
//! corpus must answer the partition's exact top-k restricted to
//! `d ≤ τ₀`, ties at τ₀ included, possibly fewer than `k`: never an
//! exact rescan, and no second round the partition's cold scan did not
//! take. With a ghost it answers the exact top-k over the others.

use proptest::prelude::*;
use qcluster_index::{
    default_rerank_window, CooperativeScan, EuclideanQuery, LinearScan, Neighbor, Phase1,
    QuantPlan, QuantScanStats, QuantizedScan, QueryDistance, WeightedEuclideanQuery,
    QUANT_BLOCK_TILES,
};

/// An answer as ids and distance bits.
fn bits(neighbors: &[Neighbor]) -> Vec<(usize, u64)> {
    neighbors
        .iter()
        .map(|n| (n.id, n.distance.to_bits()))
        .collect()
}

/// Asserts two answers are the same ids with the same distance bits.
fn assert_same(got: &[Neighbor], want: &[Neighbor], ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(bits(got), bits(want), "{}", ctx);
    Ok(())
}

/// Asserts the quantized scan answers `query` identically to the exact
/// scan for every `k` in `ks`, at the default, an oversized and the
/// tightest (`k`, forcing the second round) rerank window — as one
/// scan, and as the cooperative scan `split` draws (see [`Split`]).
fn assert_equivalent<Q: QueryDistance + Sync>(
    points: &[Vec<f64>],
    query: &Q,
    ks: &[usize],
    split: u64,
) -> Result<(), TestCaseError> {
    let exact = LinearScan::new(points);
    let quant = QuantizedScan::from_rows(points);
    let mut split = Split::new(points, split);
    let n = points.len();
    let lo = splitmix(&mut split.rng) as usize % n;
    let hi = lo + 1 + splitmix(&mut split.rng) as usize % (n - lo);
    let partition = &points[lo..hi];
    let mut within = Split::new(partition, split.rng);
    let exact_within = LinearScan::new(partition);
    for &k in ks {
        let want = exact.knn(query, k);
        let want_survivors = split.survivors_knn(points, query, k);
        for window in [
            None,
            Some(default_rerank_window(k)),
            Some(points.len() * 2),
            Some(k),
        ] {
            let ctx = format!("k={k} window={window:?}");
            let (got, stats) = quant.two_phase_knn(query, k, window);
            assert_same(&got, &want, &ctx)?;
            // A tight window costs a second round, never an exact
            // rescan (that would mean a violated bound), and these
            // queries are all diagonal-form, so every plan compiles.
            prop_assert_eq!(stats.fallback_rescans, 0);
            prop_assert_eq!(stats.plan_misses, 0);

            let ctx = format!("{ctx} parts={:?} order={:?}", split.bases(), split.order);
            let (got, stats) = split.run(query, k, window, false, None);
            assert_same(&got, &want, &ctx)?;
            prop_assert_eq!(stats.fallback_rescans, 0, "{}", ctx);
            prop_assert_eq!(stats.plan_misses, 0, "{}", ctx);
            prop_assert_eq!(stats.phase1_points, points.len() as u64, "{}", ctx);
            // One rerank of the merged window, not one per participant.
            let kk = k.min(points.len());
            let m = window
                .unwrap_or_else(|| default_rerank_window(kk))
                .max(kk)
                .min(points.len());
            prop_assert!(
                stats.second_rounds == 1 || stats.reranked <= m as u64,
                "{}",
                ctx
            );

            if let Some(ghost) = split.ghost {
                let (got, _) = split.run(query, k, window, true, None);
                assert_same(&got, &want_survivors, &format!("{ctx} ghost={ghost}"))?;
            }

            if k > points.len() {
                continue;
            }
            let source = splitmix(&mut split.rng) % 3;
            let ids = match source {
                0 => random_ids(points.len(), k, &mut split.rng),
                1 => want.iter().map(|n| n.id).collect(),
                _ => tying_ids(points, query, &want),
            };
            let tau = tau0_over(points, query, &ids, k);
            let ctx = format!("{ctx} bound={tau} source={source}");
            let cold_second_rounds = stats.second_rounds;
            let (got, stats) = split.run(query, k, window, false, Some(tau));
            assert_same(&got, &want, &ctx)?;
            prop_assert_eq!(stats.fallback_rescans, 0, "{}", ctx);
            if source == 1 {
                prop_assert!(stats.second_rounds <= cold_second_rounds, "{}", ctx);
            }
            if let Some(ghost) = split.ghost {
                let (got, _) = split.run(query, k, window, true, Some(tau));
                assert_same(&got, &want_survivors, &format!("{ctx} ghost={ghost}"))?;
            }

            let ids = random_ids(n, k, &mut split.rng);
            let tau = tau0_over(points, query, &ids, k);
            let ctx = format!(
                "k={k} window={window:?} partition={lo}..{hi} parts={:?} bound={tau}",
                within.bases()
            );
            let mut want = exact_within.knn(query, k);
            want.retain(|nb| nb.distance <= tau);
            let (_, cold) = within.run(query, k, window, false, None);
            let (got, stats) = within.run(query, k, window, false, Some(tau));
            assert_same(&got, &want, &ctx)?;
            prop_assert_eq!(stats.fallback_rescans, 0, "{}", ctx);
            prop_assert!(stats.second_rounds <= cold.second_rounds, "{}", ctx);
            if let Some(ghost) = within.ghost {
                let (got, _) = within.run(query, k, window, true, Some(tau));
                let want = within.survivors_knn(partition, query, k);
                assert_same(&got, &want, &format!("{ctx} ghost={ghost}"))?;
            }
        }
    }
    Ok(())
}

/// `k` distinct ids of `0..n`, drawn from `rng`.
fn random_ids(n: usize, k: usize, rng: &mut u64) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..n).collect();
    for i in 0..k {
        ids.swap(i, i + splitmix(rng) as usize % (n - i));
    }
    ids.truncate(k);
    ids
}

/// The cold answer `want` with its tail swapped for the points outside
/// it that tie its `k`-th distance — the ids the `(distance, id)`
/// tie-break ruled out — so the seed is that distance, reached through
/// other points.
fn tying_ids<Q: QueryDistance>(points: &[Vec<f64>], query: &Q, want: &[Neighbor]) -> Vec<usize> {
    let d_k = want[want.len() - 1].distance;
    let mut ids: Vec<usize> = want.iter().map(|n| n.id).collect();
    let ties: Vec<usize> = (0..points.len())
        .rev()
        .filter(|id| !ids.contains(id) && query.distance(&points[*id]) == d_k)
        .take(ids.len())
        .collect();
    ids.truncate(ids.len() - ties.len());
    ids.extend(ties);
    ids
}

/// The `k`-th smallest exact distance over `ids`, by the query's batch
/// kernel — the one the finish reranks with.
fn tau0_over<Q: QueryDistance>(points: &[Vec<f64>], query: &Q, ids: &[usize], k: usize) -> f64 {
    let dim = query.dim();
    let rows: Vec<f64> = ids
        .iter()
        .flat_map(|&id| points[id].iter().copied())
        .collect();
    let mut dist = vec![0.0; ids.len()];
    query.distance_batch(&rows, dim, &mut dist);
    dist.select_nth_unstable_by(k - 1, f64::total_cmp);
    dist[k - 1]
}

/// A corpus cut into cooperative participants, and how to run them —
/// all drawn from one seed.
struct Split {
    /// `(base, scan)` per participant, ascending by base.
    parts: Vec<(usize, QuantizedScan)>,
    /// The order the participants start phase 1 in.
    order: Vec<usize>,
    /// With two participants or more, the one to leave out of the
    /// finish after it has published its threshold.
    ghost: Option<usize>,
    rng: u64,
}

impl Split {
    /// 1–5 non-empty parts cut at random (ragged) positions, a random
    /// start order and a random ghost.
    fn new(points: &[Vec<f64>], seed: u64) -> Self {
        let mut rng = seed;
        let n = points.len();
        let count = (1 + splitmix(&mut rng) as usize % 5).min(n);
        let mut bases: Vec<usize> = (1..count)
            .map(|_| 1 + splitmix(&mut rng) as usize % (n - 1))
            .collect();
        bases.push(0);
        bases.sort_unstable();
        bases.dedup();
        let parts: Vec<(usize, QuantizedScan)> = bases
            .iter()
            .zip(bases.iter().skip(1).chain([&n]))
            .map(|(&lo, &hi)| (lo, QuantizedScan::from_rows(&points[lo..hi])))
            .collect();
        let mut order: Vec<usize> = (0..parts.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, splitmix(&mut rng) as usize % (i + 1));
        }
        let ghost = (parts.len() > 1).then(|| splitmix(&mut rng) as usize % parts.len());
        Split {
            parts,
            order,
            ghost,
            rng,
        }
    }

    fn bases(&self) -> Vec<usize> {
        self.parts.iter().map(|&(base, _)| base).collect()
    }

    /// The exact top-k over every participant but the ghost, in global
    /// ids.
    fn survivors_knn<Q: QueryDistance>(
        &self,
        points: &[Vec<f64>],
        query: &Q,
        k: usize,
    ) -> Vec<Neighbor> {
        let mut rows = Vec::new();
        let mut ids = Vec::new();
        for (i, (base, scan)) in self.parts.iter().enumerate() {
            if Some(i) != self.ghost {
                rows.extend_from_slice(&points[*base..base + scan.len()]);
                ids.extend(*base..base + scan.len());
            }
        }
        let mut want = LinearScan::new(&rows).knn(query, k);
        for n in &mut want {
            n.id = ids[n.id];
        }
        want
    }

    /// One cooperative scan, bounded when given: phase 1 of every
    /// participant in `order` — each on its own thread, or one after the
    /// other, by a coin flip — then the finish. With `ghosted` the ghost
    /// runs its phase 1 first, alone, and is left out of the finish.
    fn run<Q: QueryDistance + Sync>(
        &mut self,
        query: &Q,
        k: usize,
        window: Option<usize>,
        ghosted: bool,
        bound: Option<f64>,
    ) -> (Vec<Neighbor>, QuantScanStats) {
        let serial = splitmix(&mut self.rng) & 1 == 1;
        let n = self.parts.iter().map(|(_, scan)| scan.len()).sum();
        let mut scan = CooperativeScan::new(k, window, n);
        if let Some(tau0) = bound {
            scan.bound(tau0);
        }
        let ghost = self.ghost.filter(|_| ghosted);
        let parts = &self.parts;
        let phase1 = |i: usize| -> (usize, Phase1) {
            let (base, part) = &parts[i];
            (i, scan.phase1(part, *base, query).expect("plan compiles"))
        };
        if let Some(ghost) = ghost {
            drop(phase1(ghost));
        }
        let live = self.order.iter().copied().filter(|&i| Some(i) != ghost);
        let done: Vec<(usize, Phase1)> = if serial {
            live.map(phase1).collect()
        } else {
            std::thread::scope(|s| {
                let threads: Vec<_> = live.map(|i| s.spawn(move || phase1(i))).collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("phase 1"))
                    .collect()
            })
        };
        scan.finish(query, done.into_iter().map(|(i, part)| (&parts[i].1, part)))
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Vectors sharing one dimensionality.
fn uniform_points(max_dim: usize, max_n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1..max_dim + 1).prop_flat_map(move |dim| {
        prop::collection::vec(prop::collection::vec(-1.0e9..1.0e9f64, dim), 1..max_n)
    })
}

/// A corpus drawn from a tiny palette of distinct vectors, so most
/// points are exact duplicates and the top-k is decided by id ties.
fn duplicate_heavy_points() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..5)
        .prop_flat_map(|dim| {
            (
                prop::collection::vec(prop::collection::vec(-100.0..100.0f64, dim), 1..4),
                prop::collection::vec(0usize..4, 8..120),
            )
        })
        .prop_map(|(palette, picks)| {
            picks
                .into_iter()
                .map(|i| palette[i % palette.len()].clone())
                .collect()
        })
}

/// A corpus where a prefix of dimensions is constant (zero quantization
/// range) and the rest vary.
fn zero_range_points() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..4, 1usize..4)
        .prop_flat_map(|(flat_dims, live_dims)| {
            (
                prop::collection::vec(-1.0e6..1.0e6f64, flat_dims),
                prop::collection::vec(prop::collection::vec(-1.0e6..1.0e6f64, live_dims), 1..150),
            )
        })
        .prop_map(|(constants, live)| {
            live.into_iter()
                .map(|row| {
                    let mut v = constants.clone();
                    v.extend(row);
                    v
                })
                .collect()
        })
}

fn query_center(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e9..1.0e9f64, dim)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Random corpora, plain Euclidean queries: two-phase equals exact
    /// bit-for-bit at every k and window.
    #[test]
    fn two_phase_matches_exact_on_random_corpora(
        points in uniform_points(8, 300),
        seed in any::<u64>(),
        split in any::<u64>(),
    ) {
        let dim = points[0].len();
        let center: Vec<f64> = (0..dim)
            .map(|j| {
                // Derive a deterministic in-range query from the seed.
                let h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(j as u32 * 7);
                ((h % 2_000_001) as f64 - 1_000_000.0) * 1.0e3
            })
            .collect();
        let query = EuclideanQuery::new(center);
        assert_equivalent(&points, &query, &[1, 3, 17], split)?;
    }

    /// Weighted queries (including zero weights, which collapse whole
    /// dimensions out of the distance) stay exact.
    #[test]
    fn two_phase_matches_exact_for_weighted_queries(
        points in uniform_points(6, 200),
        raw_weights in prop::collection::vec(0.0..10.0f64, 6),
        raw_center in query_center(6),
        split in any::<u64>(),
    ) {
        let dim = points[0].len();
        let query = WeightedEuclideanQuery::new(
            raw_center[..dim].to_vec(),
            raw_weights[..dim].to_vec(),
        );
        assert_equivalent(&points, &query, &[1, 8], split)?;
    }

    /// Duplicate-heavy corpora: massive distance ties force the
    /// `(distance, id)` ordering through both phases unchanged.
    #[test]
    fn two_phase_preserves_tie_order_on_duplicates(
        points in duplicate_heavy_points(),
        raw_center in query_center(4),
        split in any::<u64>(),
    ) {
        let dim = points[0].len();
        let query = EuclideanQuery::new(raw_center[..dim].to_vec());
        let n = points.len();
        assert_equivalent(&points, &query, &[1, 5, n], split)?;
    }

    /// Constant dimensions quantize with zero delta; the error bound's
    /// inflation floor must still certify exact results.
    #[test]
    fn two_phase_survives_zero_range_dimensions(
        points in zero_range_points(),
        raw_center in query_center(6),
        split in any::<u64>(),
    ) {
        let dim = points[0].len();
        let query = EuclideanQuery::new(raw_center[..dim].to_vec());
        assert_equivalent(&points, &query, &[1, 4, 23], split)?;
    }
}

/// A deterministic xorshift corpus in `[-2, 2)^dim`.
fn seeded_corpus(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..n)
        .map(|_| (0..dim).map(|_| rnd() * 4.0).collect())
        .collect()
}

/// Sizes spanning two to six phase-1 blocks, none a multiple of the
/// tile (8) or the block (256).
const RAGGED_SIZES: [usize; 6] = [257, 263, 511, 777, 1031, 1499];

/// What a materialise-then-select scan would do: every bound from one
/// kernel call, the `m` smallest by `(bound, id)` reranked, and — when
/// their k-th exact distance τ does not certify against the largest
/// admitted bound — every point with `bound ≤ τ` reranked again.
///
/// `tail_tiles` is replayed block by block: the streamed heap is full
/// once `m` points were offered and its worst bound is then the `m`-th
/// smallest `(bound, id)` among the ids before the block; the second
/// round screens every block against the next `f32` above τ.
/// Returns `(reranked, second_rounds, tail_tiles)`.
fn oracle_counts<Q: QueryDistance>(
    points: &[Vec<f64>],
    quant: &QuantizedScan,
    query: &Q,
    k: usize,
    window: Option<usize>,
) -> (u64, u64, u64) {
    let n = points.len();
    let plan = query.quantized_plan(quant.params()).expect("plan compiles");
    let ntiles = quant.corpus().ntiles();
    let mut bounds = vec![0.0f32; ntiles * 8];
    plan.lower_bounds(quant.codes(), ntiles, &mut Vec::new(), &mut bounds);
    let mut order: Vec<(f64, usize)> = bounds[..n]
        .iter()
        .enumerate()
        .map(|(id, &b)| (f64::from(b), id))
        .collect();
    order.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
    let kk = k.min(n);
    let m = window
        .unwrap_or_else(|| default_rerank_window(kk))
        .max(kk)
        .min(n);
    let heap_max = order[m - 1].0;
    let mut exact: Vec<f64> = order[..m]
        .iter()
        .map(|&(_, id)| query.distance(&points[id]))
        .collect();
    exact.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
    let tau = exact[kk - 1];
    let block = QUANT_BLOCK_TILES * 8;
    let first_round = count_tail_tiles(quant, &plan, |b| {
        let seen = (b * block).min(n);
        if seen < m {
            return f32::INFINITY;
        }
        let mut before: Vec<(f32, usize)> = bounds[..seen].iter().copied().zip(0..).collect();
        before.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        before[m - 1].0
    });
    if n <= m || tau < heap_max {
        (m as u64, 0, first_round)
    } else {
        let second = order.iter().filter(|&&(b, _)| b <= tau).count();
        let nearest = tau as f32;
        let above = if f64::from(nearest) > tau {
            nearest
        } else {
            nearest.next_up()
        };
        let second_round = count_tail_tiles(quant, &plan, |_| above);
        ((m + second) as u64, 1, first_round + second_round)
    }
}

/// Tiles `QuantPlan::screen_block` flags over the whole code column
/// when block `b` is screened against `tau_of(b)`.
fn count_tail_tiles(quant: &QuantizedScan, plan: &QuantPlan, tau_of: impl Fn(usize) -> f32) -> u64 {
    let tile = quant.corpus().dim() * 8;
    let mut out = [0.0f32; QUANT_BLOCK_TILES * 8];
    quant
        .codes()
        .chunks(QUANT_BLOCK_TILES * tile)
        .enumerate()
        .map(|(b, codes)| {
            let nt = codes.len() / tile;
            u64::from(
                plan.screen_block(codes, nt, tau_of(b), &mut out[..nt * 8])
                    .count_ones(),
            )
        })
        .sum()
}

/// The streamed scan reranks exactly the oracle's sets on multi-block
/// ragged corpora — same answers as the exact scan, same `reranked`,
/// `second_rounds` and `tail_tiles` as materialise-then-select — and a
/// window of `k` always takes the second round, never an exact rescan.
#[test]
fn streamed_scan_reranks_the_oracle_sets_on_ragged_corpora() {
    for (i, &n) in RAGGED_SIZES.iter().enumerate() {
        let dim = 3 + i;
        let points = seeded_corpus(n, dim, 0x9e37_79b9_7f4a_7c15 ^ n as u64);
        let exact = LinearScan::new(&points);
        let quant = QuantizedScan::from_rows(&points);
        let weights: Vec<f64> = (0..dim).map(|j| [0.5, 2.0, 0.0, 1.0][j % 4]).collect();
        for probe in [0, n / 2, n - 1] {
            let queries: [Box<dyn QueryDistance>; 2] = [
                Box::new(EuclideanQuery::new(points[probe].clone())),
                Box::new(WeightedEuclideanQuery::new(
                    points[probe].iter().map(|v| v + 0.03).collect(),
                    weights.clone(),
                )),
            ];
            for query in &queries {
                for k in [1usize, 10, 50] {
                    let want = exact.knn(query, k);
                    for window in [None, Some(k), Some(2 * k)] {
                        let (got, stats) = quant.two_phase_knn(query, k, window);
                        let ctx = format!("n={n} probe={probe} k={k} window={window:?}");
                        assert_eq!(got.len(), want.len(), "{ctx}");
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!(g.id, w.id, "{ctx}");
                            assert_eq!(g.distance.to_bits(), w.distance.to_bits(), "{ctx}");
                        }
                        let (reranked, second_rounds, tail_tiles) =
                            oracle_counts(&points, &quant, query, k, window);
                        assert_eq!(stats.reranked, reranked, "{ctx}");
                        assert_eq!(stats.second_rounds, second_rounds, "{ctx}");
                        assert_eq!(stats.tail_tiles, tail_tiles, "{ctx}");
                        let ntiles = quant.corpus().ntiles() as u64;
                        assert!(tail_tiles <= ntiles * (1 + second_rounds), "{ctx}");
                        assert_eq!(stats.phase1_points, n as u64, "{ctx}");
                        assert_eq!(stats.fallback_rescans, 0, "{ctx}");
                        assert_eq!(stats.plan_misses, 0, "{ctx}");
                        if window == Some(k) {
                            // m = k candidates cannot certify: their
                            // k-th exact distance is at least the
                            // largest of their bounds.
                            assert_eq!(stats.second_rounds, 1, "{ctx}");
                        }
                    }
                }
            }
        }
    }
}

/// The same ragged multi-block corpora cut into cooperative
/// participants: whatever the cut and the start order, the answer is the
/// exact scan's, a window of `k` takes the second round instead of a
/// rescan, and a ghost's threshold costs the others no neighbour.
#[test]
fn cooperative_scan_matches_exact_on_ragged_corpora() {
    for (i, &n) in RAGGED_SIZES.iter().enumerate() {
        let dim = 3 + i;
        let points = seeded_corpus(n, dim, 0x5bd1_e995 ^ n as u64);
        let exact = LinearScan::new(&points);
        for seed in 0..4 {
            let mut split = Split::new(&points, seed ^ n as u64);
            for probe in [0, n / 2, n - 1] {
                let query = EuclideanQuery::new(points[probe].clone());
                for k in [1usize, 10, 50] {
                    let want = bits(&exact.knn(&query, k));
                    let want_survivors = bits(&split.survivors_knn(&points, &query, k));
                    for window in [None, Some(k)] {
                        let ctx = format!(
                            "n={n} parts={:?} order={:?} probe={probe} k={k} window={window:?}",
                            split.bases(),
                            split.order
                        );
                        let (got, stats) = split.run(&query, k, window, false, None);
                        assert_eq!(bits(&got), want, "{ctx}");
                        assert_eq!(stats.fallback_rescans, 0, "{ctx}");
                        assert_eq!(stats.phase1_points, n as u64, "{ctx}");
                        if window == Some(k) {
                            assert_eq!(stats.second_rounds, 1, "{ctx}");
                        }
                        if let Some(ghost) = split.ghost {
                            let (got, _) = split.run(&query, k, window, true, None);
                            assert_eq!(bits(&got), want_survivors, "{ctx} ghost={ghost}");
                        }
                    }
                }
            }
        }
    }
}

/// The final tile's padding lanes hold zero codes — the per-dimension
/// minima. A query sitting exactly there gives them the smallest bound
/// in the corpus; they must still never be offered, returned or
/// counted.
#[test]
fn padding_lanes_never_enter_the_candidate_set() {
    for n in [13usize, 261, 1499] {
        let points = seeded_corpus(n, 4, 0xdead_beef ^ n as u64);
        let quant = QuantizedScan::from_rows(&points);
        let exact = LinearScan::new(&points);
        let query = EuclideanQuery::new(quant.params().min().to_vec());
        for (k, window) in [(5, Some(5)), (5, None), (n, None)] {
            let (got, stats) = quant.two_phase_knn(&query, k, window);
            assert_eq!(got, exact.knn(&query, k), "n={n} k={k}");
            assert!(got.iter().all(|nb| nb.id < n), "n={n} k={k}");
            assert_eq!(stats.phase1_points, n as u64);
            assert_eq!(
                (stats.reranked, stats.second_rounds, stats.tail_tiles),
                oracle_counts(&points, &quant, &query, k, window),
                "n={n} k={k} window={window:?}"
            );
            assert_eq!(stats.fallback_rescans, 0);
        }
    }
}

/// A seed from the cold answer spares phase 1 the threshold fill-up:
/// the screen drops tiles from the first block, so fewer tiles run the
/// tail, and the answer and its rerank set stay the cold scan's.
#[test]
fn a_seed_from_the_cold_answer_cuts_the_tail_tiles() {
    let points = seeded_corpus(1499, 4, 0x2003_0609);
    let exact = LinearScan::new(&points);
    let mut split = Split::new(&points, 7);
    for probe in [0, 700, 1498] {
        let query = EuclideanQuery::new(points[probe].iter().map(|v| v + 0.01).collect());
        let k = 10;
        let want = exact.knn(&query, k);
        let (cold_answer, cold) = split.run(&query, k, None, false, None);
        let tau = want[k - 1].distance;
        let (seeded_answer, seeded) = split.run(&query, k, None, false, Some(tau));
        let ctx = format!("probe={probe} parts={:?}", split.bases());
        assert_eq!(bits(&cold_answer), bits(&want), "{ctx}");
        assert_eq!(bits(&seeded_answer), bits(&want), "{ctx}");
        assert_eq!((cold.second_rounds, seeded.second_rounds), (0, 0), "{ctx}");
        assert!(
            seeded.tail_tiles < cold.tail_tiles,
            "{ctx}: {} seeded vs {} cold",
            seeded.tail_tiles,
            cold.tail_tiles
        );
    }
}

/// A partition that holds none of the corpus's top-k answers nothing,
/// with no second round and no rescan, where a threshold seeded at τ₀
/// alone would leave it too few candidates to certify; the partition
/// that holds them answers the whole top-k.
#[test]
fn a_partition_holding_none_of_the_answer_returns_nothing() {
    let near = seeded_corpus(1499, 4, 0x0bad_5eed);
    let far: Vec<Vec<f64>> = near
        .iter()
        .map(|p| p.iter().map(|v| v + 10.0).collect())
        .collect();
    let k = 10;
    for (seed, probe) in [(1u64, 0usize), (2, 700), (3, 1498)] {
        let query = EuclideanQuery::new(near[probe].iter().map(|v| v + 0.01).collect());
        let want = LinearScan::new(&near).knn(&query, k);
        let tau = want[k - 1].distance;
        for (part, want) in [(&near, &want[..]), (&far, &[])] {
            let mut split = Split::new(part, seed);
            let (got, stats) = split.run(&query, k, None, false, Some(tau));
            let ctx = format!("probe={probe} parts={:?}", split.bases());
            assert_eq!(bits(&got), bits(want), "{ctx}");
            assert_eq!(
                (stats.second_rounds, stats.fallback_rescans),
                (0, 0),
                "{ctx}"
            );
        }
    }
}
