//! u8 scalar quantization and the two-phase (quantized filter + exact
//! rerank) scan.
//!
//! Phase 1 walks a `u8` code column at ~4× the memory bandwidth of the
//! exact `f64` column and computes a **sound lower bound** on every
//! point's distance, keeping the best `m` candidates in a bounded heap.
//! The bounds are never materialised: the column streams through the
//! kernel one [`QUANT_BLOCK_TILES`] block at a time, and the kernel is
//! a **screen** — the heap's current worst bound τ is turned into
//! thresholds on the raw code polynomial ([`QuantPlan::screen_block`]),
//! a tile none of whose lanes can still beat τ is dropped after one
//! compare, and only the others pay for the square root and the
//! divides, land in a stack buffer and reach [`TopK::offer_block`]. A
//! scan allocates nothing proportional to `n`.
//! Phase 2 reranks only those candidates with the exact `f64` kernel.
//! Because the bound is sound (never exceeds the exact computed
//! distance) and the final acceptance check is verified against the
//! phase-1 heap, the returned top-k is **bit-for-bit identical** to the
//! exact scan — the quantized column accelerates the scan, it never
//! changes an answer. When the acceptance check fails (window too small
//! for the corpus/query geometry) the scan runs one *bound-driven*
//! second rerank: the k-th exact distance from the first round
//! upper-bounds the true k-th distance, so reranking every point whose
//! lower bound falls at or under it is provably exhaustive — the
//! candidate set is sized by the quantization error bound itself. That
//! round streams phase 1 a second time (same kernel, same bounds,
//! screened against that fixed threshold) rather than reading an array
//! kept from the first.
//!
//! A corpus split into several scans answers one query as one
//! [`CooperativeScan`]: every part runs phase 1 against a threshold the
//! parts share, and one finish reranks the merged candidates once.
//! The shared threshold always has either `m` bounds (a full heap's)
//! or `k` exact distances (a bound's, [`CooperativeScan::bound`]) at or
//! under it, so a point it screens away has `m` better bounds or `k`
//! nearer neighbours. A bounded scan over a partition of a larger
//! corpus answers that partition's share of the corpus's top-k: its
//! points under the bound.
//! [`QuantizedScan::two_phase_knn`] is the same algorithm with one part.
//!
//! # The bound
//!
//! Per dimension `j` the corpus is affinely coded:
//! `x̂_j = min_j + δ_j·q_j` with `q_j = round((x_j − min_j)/δ_j)` clamped
//! to `[0, 255]` and `δ_j = (max_j − min_j)/255`. The *measured*
//! reconstruction error `err_j = max_x |x_j − x̂_j|` is stored next to
//! the codes. For a weighted component `d(x) = Σ_j w_j (x_j − c_j)²`
//! the triangle inequality in the `√w`-scaled metric gives
//!
//! ```text
//! √d(x) ≥ √d(x̂) − √(Σ_j w_j·err_j²)   =  √d̂ − E
//! ```
//!
//! so `LB = max(0, √d̂ − E)² ≤ d(x)`. `d̂` expands over codes as
//! `C0 + Σ_j q_j·(A_j·q_j + B_j)` with `A_j = w_j·δ_j²`,
//! `B_j = 2·w_j·(min_j − c_j)·δ_j`, `C0 = Σ_j w_j·(min_j − c_j)²` —
//! a pure integer-code polynomial the kernel evaluates in `f32` without
//! touching the exact column. Disjunctive (multi-component) queries
//! lower-bound each component and aggregate with the same monotone
//! harmonic formula as the exact kernel.
//!
//! Phase 1 runs in `f32`; soundness against the *f64-computed* exact
//! distance is preserved by plan-time margins (see [`QuantPlan`]): the
//! worst-case `f32` evaluation error `κ·S` (κ ≈ dim·1e-6, `S` an
//! a-priori bound on the summand magnitudes) is subtracted from the
//! polynomial value in *squared* units before the root — folding it
//! into `E` in sqrt units would cost `2·√d̂·√(κS)` of slack — then the
//! quantization error `E` comes off in sqrt units, every bound is
//! deflated by `1 − 1e-4`, and an absolute `zero guard` scaled to the
//! exact kernel's own rounding floor snaps near-zero bounds to exactly
//! `0` so a bound can never exceed an exact distance that cancellation
//! rounds to (or below) zero.

use crate::distance::QueryDistance;
use crate::knn::{merge_top_k, Neighbor, TopK};
use qcluster_linalg::vecops::TILE_LANES;
use std::sync::atomic::{AtomicU32, Ordering};

/// Number of quantization steps per dimension (`u8` codes `0..=255`).
pub const QUANT_LEVELS: f64 = 255.0;

/// Tiles per phase-1 kernel call (32 tiles = 256 points, L1-resident
/// codes + outputs).
pub const QUANT_BLOCK_TILES: usize = 32;

/// Multiplicative deflation applied to every phase-1 bound: absorbs the
/// relative rounding of the `f32` subtract/square/aggregate tail.
const LB_DEFLATE: f32 = 1.0 - 1e-4;

/// Per-dimension affine quantization parameters fitted over a corpus,
/// stored alongside the code column (segment format v2 persists them).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantParams {
    min: Vec<f64>,
    delta: Vec<f64>,
    max_err: Vec<f64>,
    /// Every fitted value was finite (no NaN, no ±∞).
    finite: bool,
}

impl QuantParams {
    /// Fits per-dimension `min`/`delta` over row-major `data` and
    /// measures the worst reconstruction error per dimension (inflated
    /// by a few ulps so the stored bound dominates the `f64`-computed
    /// measurement exactly).
    ///
    /// Dimensions containing non-finite values get `max_err = ∞`, which
    /// makes every [`QuantPlan::build`] return `None` — consumers fall
    /// back to the exact scan rather than trusting garbage codes.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn fit(data: &[f64], dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(data.len() % dim, 0, "data length not a multiple of dim");
        let n = data.len() / dim;
        Self::fit_visit(dim, n, |visit| {
            for row in data.chunks_exact(dim) {
                for (j, &v) in row.iter().enumerate() {
                    visit(j, v);
                }
            }
        })
    }

    /// [`QuantParams::fit`] over one `Vec` per point, without flattening
    /// them first — bit-identical to fitting the concatenated rows.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0` or a point's length is not `dim`.
    pub fn fit_rows(points: &[Vec<f64>], dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(
            points.iter().all(|p| p.len() == dim),
            "inconsistent dimensionality"
        );
        Self::fit_visit(dim, points.len(), |visit| {
            for row in points {
                for (j, &v) in row.iter().enumerate() {
                    visit(j, v);
                }
            }
        })
    }

    /// [`QuantParams::fit`] over a tile-major column (see
    /// [`TileCorpus`]) holding `len` real points — padding lanes of the
    /// final tile are skipped, never polluting the fitted range. The
    /// min/max/error reductions are order-independent, so this is
    /// bit-identical to fitting the same points row-major.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0` or `tiles.len()` disagrees with
    /// `ceil(len/8) * dim * 8`.
    pub fn fit_tiles(tiles: &[f64], dim: usize, len: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        let tile = dim * TILE_LANES;
        assert_eq!(
            tiles.len(),
            len.div_ceil(TILE_LANES) * tile,
            "tiles length mismatch"
        );
        Self::fit_visit(dim, len, |visit| {
            for (t, tf) in tiles.chunks_exact(tile).enumerate() {
                let valid = TILE_LANES.min(len - t * TILE_LANES);
                for j in 0..dim {
                    for &v in &tf[j * TILE_LANES..j * TILE_LANES + valid] {
                        visit(j, v);
                    }
                }
            }
        })
    }

    /// Shared fit core: `each` must invoke its callback once per
    /// `(dimension, value)` pair of the corpus, in any order, and is
    /// driven twice (range pass, then error-measurement pass).
    fn fit_visit(dim: usize, n: usize, each: impl Fn(&mut dyn FnMut(usize, f64))) -> Self {
        let mut min = vec![f64::INFINITY; dim];
        let mut max = vec![f64::NEG_INFINITY; dim];
        let mut finite = vec![true; dim];
        each(&mut |j, v| {
            if !v.is_finite() {
                finite[j] = false;
            } else {
                if v < min[j] {
                    min[j] = v;
                }
                if v > max[j] {
                    max[j] = v;
                }
            }
        });
        for j in 0..dim {
            if n == 0 || min[j] > max[j] {
                min[j] = 0.0;
                max[j] = 0.0;
            }
        }
        let delta: Vec<f64> = (0..dim).map(|j| (max[j] - min[j]) / QUANT_LEVELS).collect();
        let mut params = QuantParams {
            min,
            delta,
            max_err: vec![0.0; dim],
            finite: finite.iter().all(|&f| f),
        };
        let mut measured = vec![0.0f64; dim];
        each(&mut |j, v| {
            let e = (v - params.decode(j, params.encode_value(j, v))).abs();
            if e > measured[j] {
                measured[j] = e;
            }
        });
        for j in 0..dim {
            params.max_err[j] = if finite[j] {
                // Dominate the f64-computed measurement: relative slop for
                // the |x − decode| evaluation plus an absolute floor at the
                // decode magnitude scale.
                measured[j] * (1.0 + 1e-9)
                    + (params.min[j].abs() + params.delta[j] * QUANT_LEVELS) * 1e-12
            } else {
                f64::INFINITY
            };
        }
        params
    }

    /// Rebuilds params from persisted columns (segment format v2). A
    /// segment is sealed only over finite values, so the result is
    /// [`Self::is_finite`].
    ///
    /// # Panics
    ///
    /// Panics when lengths disagree or `min.len() == 0`.
    pub fn from_parts(min: Vec<f64>, delta: Vec<f64>, max_err: Vec<f64>) -> Self {
        assert!(!min.is_empty(), "dim must be positive");
        assert_eq!(min.len(), delta.len(), "delta length mismatch");
        assert_eq!(min.len(), max_err.len(), "max_err length mismatch");
        QuantParams {
            min,
            delta,
            max_err,
            finite: true,
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Per-dimension range minima.
    pub fn min(&self) -> &[f64] {
        &self.min
    }

    /// Per-dimension code step sizes.
    pub fn delta(&self) -> &[f64] {
        &self.delta
    }

    /// Per-dimension reconstruction error bounds.
    pub fn max_err(&self) -> &[f64] {
        &self.max_err
    }

    /// `false` when a fitted value was NaN or ±∞: the values can then
    /// only be scanned exactly, where a NaN distance cannot be ordered.
    /// A finite range too wide to code also leaves a `max_err` at `∞`
    /// (no [`QuantPlan`], an exact scan), but its values are finite.
    pub fn is_finite(&self) -> bool {
        self.finite
    }

    /// Codes one value of dimension `j`.
    #[inline]
    pub fn encode_value(&self, j: usize, x: f64) -> u8 {
        if self.delta[j] > 0.0 {
            (((x - self.min[j]) / self.delta[j]).round() as i64).clamp(0, 255) as u8
        } else {
            0
        }
    }

    /// Reconstructs dimension `j` from a code.
    #[inline]
    pub fn decode(&self, j: usize, code: u8) -> f64 {
        self.min[j] + self.delta[j] * f64::from(code)
    }

    /// Codes a tile-major exact column into a same-shape tile-major code
    /// column (see [`TileCorpus`] for the layout).
    ///
    /// # Panics
    ///
    /// Panics when lengths disagree or are not whole tiles.
    pub fn encode_tiles(&self, tiles: &[f64], codes: &mut [u8]) {
        let dim = self.dim();
        let tile = dim * TILE_LANES;
        assert_eq!(tiles.len() % tile, 0, "tiles length not whole tiles");
        assert_eq!(tiles.len(), codes.len(), "codes length mismatch");
        for (tf, tc) in tiles.chunks_exact(tile).zip(codes.chunks_exact_mut(tile)) {
            for j in 0..dim {
                let col = &tf[j * TILE_LANES..(j + 1) * TILE_LANES];
                let out = &mut tc[j * TILE_LANES..(j + 1) * TILE_LANES];
                for l in 0..TILE_LANES {
                    out[l] = self.encode_value(j, col[l]);
                }
            }
        }
    }
}

/// One weighted-Euclidean component of a query, described for plan
/// compilation: `d_r(x) = Σ_j w_j (x_j − c_j)²` with mass `m_r` in the
/// harmonic aggregate. `weights: None` means unit weights.
#[derive(Debug, Clone, Copy)]
pub struct QuantSpec<'a> {
    /// Per-dimension non-negative weights (`None` = all ones).
    pub weights: Option<&'a [f64]>,
    /// Component center.
    pub center: &'a [f64],
    /// Positive mass in the harmonic aggregate (use `1.0` for
    /// single-component queries — the aggregate then reduces to the
    /// component bound).
    pub mass: f64,
}

/// Up to four components evaluated per kernel pass; wider queries are
/// split into chunks whose per-point harmonic terms accumulate.
const CHUNK_COMPONENTS: usize = 4;

// One bit per tile of a block in the kernels' `u32` flag word.
const _: () = assert!(QUANT_BLOCK_TILES <= u32::BITS as usize);

#[derive(Debug, Clone)]
struct PlanChunk {
    gc: usize,
    /// `a`/`b` coefficients replicated 8-wide so the AVX2 kernel can use
    /// them as memory operands: lane `l` of coefficient `a` for
    /// dimension `j`, component `r` lives at `(j*gc + r)*16 + l`, the
    /// `b` lane at `(j*gc + r)*16 + 8 + l`.
    coeffs8: Vec<f32>,
    c0: [f32; CHUNK_COMPONENTS],
    err: [f32; CHUNK_COMPONENTS],
    /// Absolute f32-evaluation margin κ·S, subtracted in *squared*
    /// units before the square root. Folding it into `err` instead
    /// (sqrt units) would cost `2·√D·√(κS)` of slack per component —
    /// three orders of magnitude worse at realistic distances.
    abs: [f32; CHUNK_COMPONENTS],
    mass: [f32; CHUNK_COMPONENTS],
    guard: f32,
}

/// `_mm256_max_ps(x, 0)` for one lane: `x` when it is greater than
/// zero, `+0.0` otherwise — for NaN and `−0.0` too.
#[inline]
fn pos(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// The aggregate's last step as the kernels compute it: `total / av`,
/// a quotient that is not finite (no component bounded the point, or
/// the division overflowed) replaced by the trivial bound `0`.
#[inline]
fn finish(total: f32, av: f32) -> f32 {
    let v = total / av;
    if v < f32::INFINITY {
        pos(v)
    } else {
        0.0
    }
}

/// Ulps a threshold derived in `f64` may be raised by before the screen
/// gives up and switches itself off for that τ.
const SCREEN_BUMPS: usize = 32;

/// Starting at `start`, the first of [`SCREEN_BUMPS`] consecutive
/// floats that satisfies `ok`.
fn bump_until(start: f32, ok: impl Fn(f32) -> bool) -> Option<f32> {
    let mut x = start;
    for _ in 0..SCREEN_BUMPS {
        if ok(x) {
            return Some(x);
        }
        x = x.next_up();
    }
    None
}

impl PlanChunk {
    /// Scalar replica of the kernels' per-component tail: the raw
    /// polynomial sum `s` of component `r` to its lower bound, op for
    /// op in the AVX2 kernel's order (the portable kernel calls this
    /// very function). Every op is a correctly rounded IEEE op that is
    /// monotone in `s`, so the whole tail is non-decreasing in `s`.
    #[inline]
    fn tail(&self, r: usize, s: f32) -> f32 {
        let rt = pos(s + self.c0[r] - self.abs[r]).sqrt();
        let rr = pos(rt - self.err[r]);
        pos((rr * rr).mul_add(LB_DEFLATE, -self.guard))
    }

    /// Adds the chunk's harmonic terms `mass_r / lb(r)` onto `av` in
    /// component order — non-increasing in every `lb(r)`.
    #[inline]
    fn accumulate(&self, mut av: f32, lb: impl Fn(usize) -> f32) -> f32 {
        for r in 0..self.gc {
            av += self.mass[r] / lb(r);
        }
        av
    }
}

/// One chunk's pass over a block: what the kernels need besides the
/// codes.
struct ChunkPass<'a> {
    chunk: &'a PlanChunk,
    /// A tile whose every lane has `s_r > theta[r]` for every component
    /// is dropped before the tail; `+∞` drops nothing.
    theta: &'a [f32; CHUNK_COMPONENTS],
    /// `false` on a plan's first chunk, `true` when `out` already holds
    /// the earlier chunks' partial sums.
    carry: bool,
    /// The plan's total mass on its last chunk (finish the aggregate),
    /// `None` when more chunks follow (leave the partial sum in `out`).
    total: Option<f32>,
}

/// Per-component thresholds on the raw code polynomial for one heap
/// threshold `tau` — see [`QuantPlan::screen`].
#[derive(Debug, Clone, Copy)]
struct Screen {
    tau: f32,
    theta: [f32; CHUNK_COMPONENTS],
}

impl Screen {
    /// Drops nothing: every tile runs the tail.
    const OFF: Screen = Screen {
        tau: f32::INFINITY,
        theta: [f32::INFINITY; CHUNK_COMPONENTS],
    };
}

/// A query compiled against one corpus' [`QuantParams`]: the phase-1
/// evaluator. Built per (query, segment) pair by
/// [`QueryDistance::quantized_plan`]; `None` means the query (or the
/// params) cannot be soundly bounded and the scan must stay exact.
#[derive(Debug, Clone)]
pub struct QuantPlan {
    dim: usize,
    chunks: Vec<PlanChunk>,
    total_mass: f32,
    /// Whether [`Self::screen`] may ever return finite thresholds: one
    /// chunk, usable `f32` masses, and no reachable component bounds
    /// for which `total_mass / Σ mass_r/LB_r` overflows.
    screenable: bool,
}

impl QuantPlan {
    /// Compiles component specs into a phase-1 plan, deriving the
    /// soundness margins. Returns `None` when anything is non-finite,
    /// a weight is negative, a mass is non-positive, or the magnitude
    /// bound exceeds the `f32`-safe range — callers then use the exact
    /// path, which is always correct.
    pub fn build(params: &QuantParams, specs: &[QuantSpec<'_>], total_mass: f64) -> Option<Self> {
        let dim = params.dim();
        if specs.is_empty() || !(total_mass.is_finite() && total_mass > 0.0) {
            return None;
        }
        // κ: a-priori relative bound on f32 evaluation error of the
        // Σ q(Aq+B) polynomial (2 rounded ops per dimension, ~2.4e-7
        // each; ×4 headroom also covers f64→f32 coefficient rounding).
        let kappa = dim as f64 * 1e-6;
        let total_mass = total_mass as f32;
        let mut overflow_safe = false;
        let mut chunks = Vec::with_capacity(specs.len().div_ceil(CHUNK_COMPONENTS));
        for group in specs.chunks(CHUNK_COMPONENTS) {
            let gc = group.len();
            let mut coeffs8 = vec![0.0f32; dim * gc * 2 * TILE_LANES];
            let mut c0a = [0.0f32; CHUNK_COMPONENTS];
            let mut erra = [0.0f32; CHUNK_COMPONENTS];
            let mut absa = [0.0f32; CHUNK_COMPONENTS];
            let mut massa = [0.0f32; CHUNK_COMPONENTS];
            // `2·S` per component: no computed polynomial sum exceeds it
            // (the true sum is at most `S`, its `f32` evaluation error
            // at most `κ·S`).
            let mut s_cap = [0.0f32; CHUNK_COMPONENTS];
            let mut guard = 0.0f64;
            for (r, spec) in group.iter().enumerate() {
                if spec.center.len() != dim {
                    return None;
                }
                if let Some(w) = spec.weights {
                    if w.len() != dim {
                        return None;
                    }
                }
                if !(spec.mass.is_finite() && spec.mass > 0.0) {
                    return None;
                }
                let mut c0 = 0.0f64;
                let mut e2 = 0.0f64;
                // S: bound on the quantized polynomial's summand
                // magnitudes (f32 evaluation scale). S64: bound on the
                // exact f64 kernel's internal magnitudes (its expanded
                // form suffers cancellation, so its absolute rounding
                // floor is what the zero guard must dominate).
                let mut s_quant = 0.0f64;
                let mut s_exact = 0.0f64;
                for j in 0..dim {
                    let w = spec.weights.map_or(1.0, |w| w[j]);
                    if !(w >= 0.0 && w.is_finite()) {
                        return None;
                    }
                    let c = spec.center[j];
                    let (mn, dl, er) = (params.min[j], params.delta[j], params.max_err[j]);
                    if !(c.is_finite() && mn.is_finite() && dl.is_finite() && er.is_finite()) {
                        return None;
                    }
                    let a = w * dl * dl;
                    let b = 2.0 * w * (mn - c) * dl;
                    c0 += w * (mn - c) * (mn - c);
                    e2 += w * er * er;
                    s_quant += a.abs() * QUANT_LEVELS * QUANT_LEVELS + b.abs() * QUANT_LEVELS;
                    let m_j = mn.abs().max((mn + dl * QUANT_LEVELS).abs()) + er;
                    s_exact += w * m_j * m_j + 2.0 * (w * c).abs() * m_j + w * c * c;
                    let base = (j * gc + r) * 2 * TILE_LANES;
                    coeffs8[base..base + TILE_LANES].fill(a as f32);
                    coeffs8[base + TILE_LANES..base + 2 * TILE_LANES].fill(b as f32);
                }
                s_quant += c0.abs();
                // Quantization error stays in sqrt units (Cauchy-
                // Schwarz: D_true ≥ (√D_quant − √e2)²); the f32
                // evaluation margin κ·S is an *absolute* error on the
                // polynomial value and is subtracted in squared units
                // before the root — see `PlanChunk::abs`.
                let e_safe = e2.sqrt() * (1.0 + 1e-4);
                let abs_margin = kappa * s_quant * (1.0 + 1e-3);
                // Absolute floor: where the exact expanded kernel's own
                // rounding could push a tiny (or zero) distance below the
                // bound, snap the bound to 0. 1e5 × the ~dim·ε64·S64
                // rounding floor keeps the deflation margin dominant.
                let g = dim as f64 * f64::EPSILON * s_exact * 1e5;
                if !(c0.is_finite()
                    && e_safe.is_finite()
                    && abs_margin.is_finite()
                    && g.is_finite())
                    || s_quant > 1e30
                    || s_exact > 1e30
                {
                    return None;
                }
                c0a[r] = c0 as f32;
                erra[r] = e_safe as f32;
                absa[r] = abs_margin as f32;
                massa[r] = spec.mass as f32;
                s_cap[r] = (2.0 * s_quant) as f32;
                guard = guard.max(g);
            }
            let chunk = PlanChunk {
                gc,
                coeffs8,
                c0: c0a,
                err: erra,
                abs: absa,
                mass: massa,
                guard: guard as f32,
            };
            // The overflow guard of the screen. `finish` clamps a
            // quotient that is not finite to 0, the one step of the
            // aggregate that is not monotone; with every component at
            // the largest bound its polynomial can reach the quotient
            // is at its largest, so if that one is finite the clamp is
            // out of reach.
            let usable = |m: f32| m > 0.0 && m < f32::INFINITY;
            let least = chunk.accumulate(0.0, |r| chunk.tail(r, s_cap[r]));
            overflow_safe = usable(total_mass)
                && chunk.mass[..gc].iter().all(|&m| usable(m))
                && least > 0.0
                && (total_mass / least).is_finite();
            chunks.push(chunk);
        }
        Some(QuantPlan {
            dim,
            screenable: chunks.len() == 1 && overflow_safe,
            chunks,
            total_mass,
        })
    }

    /// Dimensionality the plan was compiled for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Evaluates phase-1 lower bounds for `ntiles` tiles of codes into
    /// `out` (one `f32` per lane, padding lanes included): the screened
    /// kernel with the screen off. `_acc` is unused — the kernel keeps
    /// a multi-chunk plan's partial sums in `out` itself — and stays so
    /// callers written against the accumulator-pass version compile.
    ///
    /// # Panics
    ///
    /// Panics when `codes.len() != ntiles*dim*8` or
    /// `out.len() != ntiles*8`.
    pub fn lower_bounds(&self, codes: &[u8], ntiles: usize, _acc: &mut Vec<f32>, out: &mut [f32]) {
        assert_eq!(
            codes.len(),
            ntiles * self.dim * TILE_LANES,
            "codes length mismatch"
        );
        assert_eq!(out.len(), ntiles * TILE_LANES, "out length mismatch");
        let blocks = codes
            .chunks(QUANT_BLOCK_TILES * self.dim * TILE_LANES)
            .zip(out.chunks_mut(QUANT_BLOCK_TILES * TILE_LANES));
        for (codes, out) in blocks {
            self.run_block(codes, out.len() / TILE_LANES, &Screen::OFF, out);
        }
    }

    /// Phase 1 as a screen, over one block of at most
    /// [`QUANT_BLOCK_TILES`] tiles: bit `t` of the result is set when
    /// tile `t` was *flagged* — its eight lanes of `out` then hold
    /// exactly what [`Self::lower_bounds`] computes for them. A tile
    /// left unflagged was dropped on the raw code polynomial, before
    /// the square root and the divides: every one of its lanes is
    /// proven to have a lower bound `≥ tau`, and its lanes of `out` are
    /// untouched. When nothing can be proven for this `tau` (not
    /// positive, not finite, NaN) or this plan (several chunks, masses
    /// whose ratio could overflow the aggregate) every tile is flagged.
    ///
    /// # Panics
    ///
    /// Panics when `ntiles > QUANT_BLOCK_TILES`,
    /// `codes.len() != ntiles*dim*8` or `out.len() != ntiles*8`.
    pub fn screen_block(&self, codes: &[u8], ntiles: usize, tau: f32, out: &mut [f32]) -> u32 {
        self.run_block(codes, ntiles, &self.screen(tau), out)
    }

    /// Turns a heap threshold `tau` into per-component thresholds
    /// `θ_r` on the raw polynomial sums such that a lane with
    /// `s_r > θ_r` for **every** component has a computed lower bound
    /// `≥ tau`.
    ///
    /// Two steps, each guessed by inverting the arithmetic in `f64` and
    /// then *verified on the `f32` arithmetic itself*: a common
    /// component level `L` with `aggregate(L, …, L) ≥ tau`, and per
    /// component a `θ_r` with `tail_r(next_up(θ_r)) ≥ L`. The tail is
    /// non-decreasing in `s_r` and the aggregate non-decreasing in
    /// every component bound (its one non-monotone step is excluded by
    /// `screenable`), so `s_r > θ_r ⇒ LB_r ≥ L` for all `r`
    /// `⇒ LB ≥ aggregate(L, …, L) ≥ tau` — whatever the guesses were.
    /// A guess the verification rejects is raised an ulp at a time; if
    /// [`SCREEN_BUMPS`] do not fix it the screen stays off for this
    /// `tau` (`θ = +∞`), which is always sound.
    fn screen(&self, tau: f32) -> Screen {
        let mut screen = Screen { tau, ..Screen::OFF };
        // `tau > 0.0` is false for NaN.
        if !(self.screenable && tau > 0.0 && tau < f32::INFINITY) {
            return screen;
        }
        let chunk = &self.chunks[0];
        let mass_sum: f64 = chunk.mass[..chunk.gc].iter().map(|&m| f64::from(m)).sum();
        let guess = f64::from(tau) * mass_sum / f64::from(self.total_mass);
        let Some(level) = bump_until(guess as f32, |l| {
            finish(self.total_mass, chunk.accumulate(0.0, |_| l)) >= tau
        }) else {
            return screen;
        };
        let mut theta = Screen::OFF.theta;
        let squared = (f64::from(level) + f64::from(chunk.guard)) / f64::from(LB_DEFLATE);
        for (r, slot) in theta[..chunk.gc].iter_mut().enumerate() {
            let root = squared.sqrt() + f64::from(chunk.err[r]);
            let guess = root * root - f64::from(chunk.c0[r]) + f64::from(chunk.abs[r]);
            match bump_until(guess as f32, |s| chunk.tail(r, s.next_up()) >= level) {
                Some(s) => *slot = s,
                None => return screen,
            }
        }
        screen.theta = theta;
        screen
    }

    /// Runs every chunk of the plan over one block. Returns the flagged
    /// tiles (see [`Self::screen_block`]).
    fn run_block(&self, codes: &[u8], ntiles: usize, screen: &Screen, out: &mut [f32]) -> u32 {
        self.run_block_with(screen_chunk, codes, ntiles, screen, out)
    }

    /// [`Self::run_block`] over an explicit chunk kernel.
    fn run_block_with(
        &self,
        kernel: impl Fn(&[u8], usize, usize, &ChunkPass<'_>, &mut [f32]) -> u32,
        codes: &[u8],
        ntiles: usize,
        screen: &Screen,
        out: &mut [f32],
    ) -> u32 {
        assert!(ntiles <= QUANT_BLOCK_TILES, "block too large");
        assert_eq!(
            codes.len(),
            ntiles * self.dim * TILE_LANES,
            "codes length mismatch"
        );
        assert_eq!(out.len(), ntiles * TILE_LANES, "out length mismatch");
        // A later chunk adds onto what the earlier ones left in `out`,
        // so a plan of several chunks must not drop tiles.
        debug_assert!(self.chunks.len() == 1 || screen.theta == Screen::OFF.theta);
        let last = self.chunks.len() - 1;
        let mut flags = 0;
        for (i, chunk) in self.chunks.iter().enumerate() {
            let pass = ChunkPass {
                chunk,
                theta: &screen.theta,
                carry: i > 0,
                total: (i == last).then_some(self.total_mass),
            };
            flags = kernel(codes, self.dim, ntiles, &pass, out);
        }
        flags
    }
}

/// One chunk over one block, on the AVX2+FMA kernel when the CPU has
/// it: screens every tile on its raw polynomial sums, runs the tail on
/// the flagged ones and returns their bit mask.
fn screen_chunk(
    codes: &[u8],
    dim: usize,
    ntiles: usize,
    pass: &ChunkPass<'_>,
    out: &mut [f32],
) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            assert_eq!(codes.len(), ntiles * dim * TILE_LANES);
            assert_eq!(out.len(), ntiles * TILE_LANES);
            // SAFETY: feature presence and slice lengths just checked.
            return unsafe {
                match pass.chunk.gc {
                    // One component is two FMA chains a tile: two tiles
                    // an iteration keep four independent chains in
                    // flight; an odd last tile goes through alone.
                    1 => {
                        let pairs = ntiles & !1;
                        avx2::screen_chunk::<1, 2>(codes, dim, 0..pairs, pass, out)
                            | avx2::screen_chunk::<1, 1>(codes, dim, pairs..ntiles, pass, out)
                    }
                    2 => avx2::screen_chunk::<2, 1>(codes, dim, 0..ntiles, pass, out),
                    3 => avx2::screen_chunk::<3, 1>(codes, dim, 0..ntiles, pass, out),
                    _ => avx2::screen_chunk::<4, 1>(codes, dim, 0..ntiles, pass, out),
                }
            };
        }
    }
    screen_chunk_portable(codes, dim, ntiles, pass, out)
}

/// Portable chunk kernel: the structure of the AVX2 one with
/// eight-lane arrays the autovectorizer can pick up. Its polynomial
/// sums may round differently from the intrinsics path (no fused
/// multiply-add, one chain); both stay below the plan's margins, so
/// either yields a sound bound, and the screen compares whichever sums
/// the running kernel computed. The tail is [`PlanChunk::tail`] itself.
fn screen_chunk_portable(
    codes: &[u8],
    dim: usize,
    ntiles: usize,
    pass: &ChunkPass<'_>,
    out: &mut [f32],
) -> u32 {
    let chunk = pass.chunk;
    let gc = chunk.gc;
    let tile = dim * TILE_LANES;
    let mut flags = 0u32;
    for (t, (ctile, out)) in codes
        .chunks_exact(tile)
        .zip(out.chunks_exact_mut(TILE_LANES))
        .enumerate()
        .take(ntiles)
    {
        let mut s = [[0.0f32; TILE_LANES]; CHUNK_COMPONENTS];
        for (j, col) in ctile.chunks_exact(TILE_LANES).enumerate() {
            let mut q = [0.0f32; TILE_LANES];
            for l in 0..TILE_LANES {
                q[l] = f32::from(col[l]);
            }
            for r in 0..gc {
                let base = (j * gc + r) * 2 * TILE_LANES;
                let a = chunk.coeffs8[base];
                let b = chunk.coeffs8[base + TILE_LANES];
                for l in 0..TILE_LANES {
                    s[r][l] += q[l] * (a * q[l] + b);
                }
            }
        }
        // No short-circuit, so the compares stay vector ops; a NaN sum
        // compares false and keeps its tile.
        let above = (0..gc).fold(true, |all, r| {
            s[r].iter().fold(all, |all, &v| all & (v > pass.theta[r]))
        });
        if above {
            continue;
        }
        flags |= 1 << t;
        for l in 0..TILE_LANES {
            let carried = if pass.carry { out[l] } else { 0.0 };
            let av = chunk.accumulate(carried, |r| chunk.tail(r, s[r][l]));
            out[l] = pass.total.map_or(av, |total| finish(total, av));
        }
    }
    flags
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{ChunkPass, LB_DEFLATE, TILE_LANES};
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// Eight `u8` codes of one dimension as `f32` lanes.
    ///
    /// # Safety
    ///
    /// Requires `avx2`; `p` must be valid for an 8-byte read.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_codes(p: *const u8) -> __m256 {
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(p.cast())))
    }

    /// `acc + q·(a·q + b)` with the 8-wide `a` at `ab` and `b` behind it.
    ///
    /// # Safety
    ///
    /// Requires `avx` and `fma`; `ab` must be valid for a 64-byte read.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn term(ab: *const f32, q: __m256, acc: __m256) -> __m256 {
        let inner = _mm256_fmadd_ps(_mm256_loadu_ps(ab), q, _mm256_loadu_ps(ab.add(TILE_LANES)));
        _mm256_fmadd_ps(q, inner, acc)
    }

    /// AVX2+FMA chunk kernel over tiles `tiles` of a block, `NT` tiles
    /// an iteration (a remainder shorter than `NT` is left to the
    /// caller). One u8→f32 column conversion per dimension is shared
    /// across components; coefficients come 8-wide from memory
    /// (micro-fused FMA operands); each component of each tile keeps
    /// two accumulator chains (even/odd dimensions), so `GC·NT ≥ 2`
    /// makes the loop bound by FMA throughput, not latency.
    ///
    /// A tile whose every lane exceeds `pass.theta` in every component
    /// stops at one compare and movemask per component; the others run
    /// the tail ([`super::PlanChunk::tail`] lane for lane), add their
    /// harmonic terms, finish the aggregate on the plan's last chunk
    /// and store their lanes to `out`. Returns the bit mask of those.
    ///
    /// # Safety
    ///
    /// Requires `avx2` and `fma`; `codes.len() ≥ tiles.end*dim*8`,
    /// `out.len() ≥ tiles.end*8` and `tiles.end ≤ 32`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn screen_chunk<const GC: usize, const NT: usize>(
        codes: &[u8],
        dim: usize,
        tiles: Range<usize>,
        pass: &ChunkPass<'_>,
        out: &mut [f32],
    ) -> u32 {
        let chunk = pass.chunk;
        debug_assert_eq!(chunk.gc, GC);
        debug_assert!(codes.len() >= tiles.end * dim * TILE_LANES);
        debug_assert!(out.len() >= tiles.end * TILE_LANES && tiles.end <= 32);
        let tile = dim * TILE_LANES;
        let cf = chunk.coeffs8.as_ptr();
        let deflate = _mm256_set1_ps(LB_DEFLATE);
        let guard = _mm256_set1_ps(chunk.guard);
        let zero = _mm256_setzero_ps();
        let mut theta = [zero; GC];
        for r in 0..GC {
            theta[r] = _mm256_set1_ps(pass.theta[r]);
        }
        let mut flags = 0u32;
        let mut t = tiles.start;
        while t + NT <= tiles.end {
            let ct = codes.as_ptr().add(t * tile);
            let mut da = [[zero; GC]; NT];
            let mut db = [[zero; GC]; NT];
            let mut j = 0;
            while j + 1 < dim {
                for i in 0..NT {
                    let q0 = load_codes(ct.add(i * tile + j * TILE_LANES));
                    let q1 = load_codes(ct.add(i * tile + (j + 1) * TILE_LANES));
                    for r in 0..GC {
                        da[i][r] = term(cf.add((j * GC + r) * 2 * TILE_LANES), q0, da[i][r]);
                        db[i][r] = term(cf.add(((j + 1) * GC + r) * 2 * TILE_LANES), q1, db[i][r]);
                    }
                }
                j += 2;
            }
            if j < dim {
                for i in 0..NT {
                    let q0 = load_codes(ct.add(i * tile + j * TILE_LANES));
                    for r in 0..GC {
                        da[i][r] = term(cf.add((j * GC + r) * 2 * TILE_LANES), q0, da[i][r]);
                    }
                }
            }
            for i in 0..NT {
                let mut s = [zero; GC];
                // Ordered compare: a NaN sum is "not above" and keeps
                // its tile.
                let mut above = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
                for r in 0..GC {
                    s[r] = _mm256_add_ps(da[i][r], db[i][r]);
                    above = _mm256_and_ps(above, _mm256_cmp_ps::<_CMP_GT_OQ>(s[r], theta[r]));
                }
                if _mm256_movemask_ps(above) == 0xff {
                    continue;
                }
                flags |= 1 << (t + i);
                let op = out.as_mut_ptr().add((t + i) * TILE_LANES);
                let mut av = if pass.carry {
                    _mm256_loadu_ps(op)
                } else {
                    zero
                };
                for r in 0..GC {
                    let dd = _mm256_sub_ps(
                        _mm256_add_ps(s[r], _mm256_set1_ps(chunk.c0[r])),
                        _mm256_set1_ps(chunk.abs[r]),
                    );
                    let rt = _mm256_sqrt_ps(_mm256_max_ps(dd, zero));
                    let rr = _mm256_max_ps(_mm256_sub_ps(rt, _mm256_set1_ps(chunk.err[r])), zero);
                    let lb =
                        _mm256_max_ps(_mm256_fmsub_ps(_mm256_mul_ps(rr, rr), deflate, guard), zero);
                    av = _mm256_add_ps(av, _mm256_div_ps(_mm256_set1_ps(chunk.mass[r]), lb));
                }
                if let Some(total) = pass.total {
                    // `super::finish`, eight lanes at a time.
                    let v = _mm256_div_ps(_mm256_set1_ps(total), av);
                    let finite = _mm256_cmp_ps::<_CMP_LT_OQ>(v, _mm256_set1_ps(f32::INFINITY));
                    av = _mm256_max_ps(_mm256_and_ps(v, finite), zero);
                }
                _mm256_storeu_ps(op, av);
            }
            t += NT;
        }
        flags
    }
}

/// Statistics from one [`QuantizedScan::two_phase_knn`] or
/// [`CooperativeScan::finish`] call, summed over its participants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantScanStats {
    /// Points filtered by the quantized phase-1 kernel.
    pub phase1_points: u64,
    /// Candidates exactly reranked in phase 2.
    pub reranked: u64,
    /// Tiles phase 1 ran the square-root/divide tail on — the ones the
    /// screen on the raw code polynomial could not drop, second round
    /// included. Against `ceil(phase1_points / 8)` per round this is
    /// the screen's "useful work / attempts" ratio. With one
    /// participant it is an exact count for a given corpus, query and
    /// window; with several it depends on when each participant saw
    /// the others' thresholds, that is on scheduling.
    pub tail_tiles: u64,
    /// Bound-driven second rounds: the window did not certify, so
    /// phase 1 was streamed again to rerank every point with `LB ≤ τ`.
    pub second_rounds: u64,
    /// Full exact rescans: an exact distance violated its lower bound
    /// (broken soundness margins, never a tight window), or fewer than
    /// `k` candidates reached a cooperative finish because some
    /// participant's were dropped.
    pub fallback_rescans: u64,
    /// Queries that could not compile a quantized plan and ran exact.
    pub plan_misses: u64,
}

impl QuantScanStats {
    /// Accumulates another call's counters.
    pub fn absorb(&mut self, other: &QuantScanStats) {
        self.phase1_points += other.phase1_points;
        self.reranked += other.reranked;
        self.tail_tiles += other.tail_tiles;
        self.second_rounds += other.second_rounds;
        self.fallback_rescans += other.fallback_rescans;
        self.plan_misses += other.plan_misses;
    }
}

/// A corpus held in the transposed-tile layout the batch kernels (and
/// segment format v2) use natively: `ceil(len/8)` tiles of
/// `dim × 8` column-major `f64`s, zero-padded past `len`.
#[derive(Debug, Clone)]
pub struct TileCorpus {
    tiles: Vec<f64>,
    dim: usize,
    len: usize,
}

impl TileCorpus {
    /// Transposes row-major points into tiles.
    ///
    /// # Panics
    ///
    /// Panics when `points` is empty or dimensionalities disagree.
    pub fn from_rows(points: &[Vec<f64>]) -> Self {
        assert!(!points.is_empty(), "corpus must be non-empty");
        let dim = points[0].len();
        let mut row_buf = vec![0.0f64; TILE_LANES * dim];
        let mut tiles = vec![0.0f64; points.len().div_ceil(TILE_LANES) * dim * TILE_LANES];
        for (t, group) in points.chunks(TILE_LANES).enumerate() {
            for (l, p) in group.iter().enumerate() {
                assert_eq!(p.len(), dim, "inconsistent dimensionality");
                row_buf[l * dim..(l + 1) * dim].copy_from_slice(p);
            }
            qcluster_linalg::vecops::transpose_tile(
                &row_buf[..group.len() * dim],
                dim,
                &mut tiles[t * dim * TILE_LANES..(t + 1) * dim * TILE_LANES],
            );
        }
        TileCorpus {
            tiles,
            dim,
            len: points.len(),
        }
    }

    /// Transposes a flat row-major corpus into tiles.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`, `data` is empty, or `data.len()` is not a
    /// multiple of `dim`.
    pub fn from_flat(data: &[f64], dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(!data.is_empty(), "corpus must be non-empty");
        assert_eq!(data.len() % dim, 0, "data length not a multiple of dim");
        let len = data.len() / dim;
        let mut tiles = vec![0.0f64; len.div_ceil(TILE_LANES) * dim * TILE_LANES];
        for (t, group) in data.chunks(TILE_LANES * dim).enumerate() {
            qcluster_linalg::vecops::transpose_tile(
                group,
                dim,
                &mut tiles[t * dim * TILE_LANES..(t + 1) * dim * TILE_LANES],
            );
        }
        TileCorpus { tiles, dim, len }
    }

    /// Adopts an already tile-major buffer without copying (the segment
    /// format v2 load path). Padding lanes of the final tile should be
    /// zero; their values never affect results.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`, `len == 0`, or `tiles.len()` disagrees
    /// with `ceil(len/8) * dim * 8`.
    pub fn from_tile_parts(tiles: Vec<f64>, dim: usize, len: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(len > 0, "corpus must be non-empty");
        assert_eq!(
            tiles.len(),
            len.div_ceil(TILE_LANES) * dim * TILE_LANES,
            "tiles length mismatch"
        );
        TileCorpus { tiles, dim, len }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: construction rejects empty corpora.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of 8-point tiles (the final one may be padded).
    pub fn ntiles(&self) -> usize {
        self.len.div_ceil(TILE_LANES)
    }

    /// The raw tile-major column.
    pub fn tiles(&self) -> &[f64] {
        &self.tiles
    }

    /// Copies point `id` into row-major `out`.
    ///
    /// # Panics
    ///
    /// Panics when `id >= len` or `out.len() != dim`.
    pub fn copy_point(&self, id: usize, out: &mut [f64]) {
        assert!(id < self.len, "point id out of range");
        assert_eq!(out.len(), self.dim, "output length mismatch");
        let (t, l) = (id / TILE_LANES, id % TILE_LANES);
        let tile = &self.tiles[t * self.dim * TILE_LANES..(t + 1) * self.dim * TILE_LANES];
        for j in 0..self.dim {
            out[j] = tile[j * TILE_LANES + l];
        }
    }

    /// Exact k-NN over the tiles (no row-major materialization): blocks
    /// of tiles stream through [`QueryDistance::distance_tiles`] into a
    /// bounded heap. Identical results to [`crate::LinearScan::knn`].
    ///
    /// # Panics
    ///
    /// Panics when `k == 0` or the query dimensionality disagrees.
    pub fn knn<Q: QueryDistance + ?Sized>(&self, query: &Q, k: usize) -> Vec<Neighbor> {
        assert_eq!(query.dim(), self.dim, "query dimensionality mismatch");
        let mut heap = TopK::new(k);
        let mut dist = vec![0.0f64; QUANT_BLOCK_TILES * TILE_LANES];
        let tile = self.dim * TILE_LANES;
        let mut base_tile = 0;
        let ntiles = self.ntiles();
        while base_tile < ntiles {
            let bt = QUANT_BLOCK_TILES.min(ntiles - base_tile);
            let base_id = base_tile * TILE_LANES;
            let pts = (self.len - base_id).min(bt * TILE_LANES);
            query.distance_tiles(
                &self.tiles[base_tile * tile..(base_tile + bt) * tile],
                self.dim,
                &mut dist[..pts],
            );
            heap.offer_block(&dist[..pts], |p| base_id + p);
            base_tile += bt;
        }
        heap.into_sorted()
    }
}

/// Rerank window for a top-`k` query: enough slack that the candidate
/// set certifies on typical corpora (see DESIGN.md §16 for the sizing
/// derivation) while keeping phase 2 a rounding error next to phase 1.
pub fn default_rerank_window(k: usize) -> usize {
    (4 * k).max(k + 64)
}

/// The two-phase scan: a [`TileCorpus`] plus its quantized code column.
#[derive(Debug, Clone)]
pub struct QuantizedScan {
    corpus: TileCorpus,
    codes: Vec<u8>,
    params: QuantParams,
}

impl QuantizedScan {
    /// Builds corpus, params, and codes from row-major points.
    ///
    /// # Panics
    ///
    /// Panics when `points` is empty or dimensionalities disagree.
    pub fn from_rows(points: &[Vec<f64>]) -> Self {
        Self::with_corpus(TileCorpus::from_rows(points))
    }

    /// Builds from a flat row-major corpus.
    ///
    /// # Panics
    ///
    /// See [`TileCorpus::from_flat`].
    pub fn from_flat(data: &[f64], dim: usize) -> Self {
        Self::with_corpus(TileCorpus::from_flat(data, dim))
    }

    /// Fits params over the tiles just built (bit-identical to a
    /// row-major fit, see [`QuantParams::fit_tiles`]) and codes them.
    fn with_corpus(corpus: TileCorpus) -> Self {
        let params = QuantParams::fit_tiles(corpus.tiles(), corpus.dim(), corpus.len());
        let mut codes = vec![0u8; corpus.tiles().len()];
        params.encode_tiles(corpus.tiles(), &mut codes);
        QuantizedScan {
            corpus,
            codes,
            params,
        }
    }

    /// Adopts pre-built columns without copying (segment format v2).
    ///
    /// # Panics
    ///
    /// Panics when shapes disagree.
    pub fn from_parts(corpus: TileCorpus, codes: Vec<u8>, params: QuantParams) -> Self {
        assert_eq!(codes.len(), corpus.tiles().len(), "codes length mismatch");
        assert_eq!(params.dim(), corpus.dim(), "params dimensionality mismatch");
        QuantizedScan {
            corpus,
            codes,
            params,
        }
    }

    /// The exact column.
    pub fn corpus(&self) -> &TileCorpus {
        &self.corpus
    }

    /// The quantization parameters.
    pub fn params(&self) -> &QuantParams {
        &self.params
    }

    /// The tile-major code column.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.corpus.len()
    }

    /// Always false: construction rejects empty corpora.
    pub fn is_empty(&self) -> bool {
        self.corpus.is_empty()
    }

    /// Exact k-NN (phase 1 skipped entirely).
    ///
    /// # Panics
    ///
    /// Panics when `k == 0` or the query dimensionality disagrees.
    pub fn knn<Q: QueryDistance + ?Sized>(&self, query: &Q, k: usize) -> Vec<Neighbor> {
        self.corpus.knn(query, k)
    }

    /// Two-phase k-NN: quantized filter, exact rerank, certified
    /// acceptance — returns exactly what [`Self::knn`] would, plus
    /// phase counters. `window` overrides [`default_rerank_window`].
    ///
    /// This is a [`CooperativeScan`] with one participant, whose
    /// threshold is its own: the shared threshold is always its heap's
    /// worst bound, so the scan below is what that type's docs describe
    /// with `H` = the heap's final worst bound (`+∞` when the corpus
    /// fits the window and every point is reranked).
    ///
    /// Phase 1 is streamed and screened: before each block the heap's
    /// worst bound τ becomes thresholds on the raw code polynomial, the
    /// kernel drops every tile whose lanes all have `LB ≥ τ` and the
    /// others' bounds live in a stack buffer until
    /// [`TopK::offer_block`] has taken its survivors. The heap ends
    /// holding the `m` smallest `(LB, id)` pairs — what selecting from
    /// a materialised bound array would give — because blocks arrive
    /// in ascending id, so a later point tying the heap's worst bound
    /// loses the id tie-break either way and a strict `<` filter drops
    /// nothing the heap would have kept; τ only falls while a block is
    /// offered, so a lane the screen drops is one that filter rejects.
    /// Every point outside the heap has `LB ≥ heap_max`, and
    /// `LB ≤ exact` by soundness, so when the k-th reranked distance
    /// `D < heap_max`, no outside point can beat any returned neighbor;
    /// ties at `D` itself are settled by the strict inequality.
    ///
    /// When the window is too tight to certify, the scan does **not**
    /// rescan exactly: the k-th *exact* distance `τ` from the first
    /// rerank upper-bounds the true k-th distance, so a second rerank
    /// over every point with `LB ≤ τ` provably contains the true top-k
    /// — the candidate set is sized by the quantization error bound
    /// itself rather than a guessed window. That set is collected by
    /// streaming phase 1 again with `τ` as a fixed inclusive threshold,
    /// screened against the next `f32` above it
    /// (counted in [`QuantScanStats::second_rounds`]): one more kernel
    /// pass on the rare path buys an allocation-free common one. Only a
    /// bound violated by an exact distance (`D < LB`, impossible unless
    /// the soundness margins are broken) falls back to one full exact
    /// pass.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0` or the query dimensionality disagrees.
    pub fn two_phase_knn<Q: QueryDistance + ?Sized>(
        &self,
        query: &Q,
        k: usize,
        window: Option<usize>,
    ) -> (Vec<Neighbor>, QuantScanStats) {
        let scan = CooperativeScan::new(k, window, self.len());
        match scan.phase1(self, 0, query) {
            Some(part) => scan.finish(query, [(self, part)]),
            None => {
                let stats = QuantScanStats {
                    plan_misses: 1,
                    ..QuantScanStats::default()
                };
                (self.knn(query, k), stats)
            }
        }
    }

    /// Runs the screened phase-1 kernel over the code column one
    /// [`QUANT_BLOCK_TILES`] block at a time. Each block is screened
    /// against the latest threshold — `tau` at first, then whatever
    /// `visit` returned last (`+∞`: nothing to screen against yet) —
    /// or against `shared`, when that is lower.
    /// `visit(base_id, bounds)` sees each run of consecutive flagged
    /// tiles, ascending, real points only — the padding lanes of the
    /// final tile never leave this function. Returns the number of
    /// flagged tiles.
    fn stream_bounds(
        &self,
        plan: &QuantPlan,
        mut tau: f32,
        shared: Option<&SharedThreshold>,
        mut visit: impl FnMut(usize, &[f32]) -> f32,
    ) -> u64 {
        const BLOCK: usize = QUANT_BLOCK_TILES * TILE_LANES;
        let tile = self.corpus.dim() * TILE_LANES;
        let n = self.corpus.len();
        let mut lb = [0.0f32; BLOCK];
        let mut screen = Screen::OFF;
        let mut tail_tiles = 0;
        for (b, codes) in self.codes.chunks(QUANT_BLOCK_TILES * tile).enumerate() {
            if let Some(shared) = shared {
                tau = tau.min(shared.get());
            }
            // Thresholds are derived once per value of τ, not per block.
            if tau != screen.tau {
                screen = plan.screen(tau);
            }
            let ntiles = codes.len() / tile;
            let base_id = b * BLOCK;
            let valid = (ntiles * TILE_LANES).min(n - base_id);
            let mut flags = plan.run_block(codes, ntiles, &screen, &mut lb[..ntiles * TILE_LANES]);
            tail_tiles += u64::from(flags.count_ones());
            while flags != 0 {
                let first = flags.trailing_zeros();
                let lo = first as usize * TILE_LANES;
                let run = (flags >> first).trailing_ones() as usize;
                let hi = (lo + run * TILE_LANES).min(valid);
                tau = visit(base_id + lo, &lb[lo..hi]);
                // Adding the run's lowest bit carries through the run
                // and clears it.
                flags &= flags.wrapping_add(1 << first);
            }
        }
        tail_tiles
    }
}

/// The phase-1 threshold the participants of one [`CooperativeScan`]
/// share: the bits of a non-negative `f32`, whose integer order is the
/// float order, so `fetch_min` keeps the least bound published. Either
/// `m` bounds (a full heap's) lie at or under it, or it is the first
/// `f32` above the scan's bound τ₀.
/// `Relaxed` suffices: the value publishes no other data, and which
/// value a participant reads never decides an answer, only how much it
/// screens (each participant records the threshold it used, `T`).
#[derive(Debug)]
struct SharedThreshold(AtomicU32);

impl SharedThreshold {
    fn get(&self) -> f32 {
        f32::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Publishes a full heap's worst bound. Bounds are never negative
    /// (the kernels clamp to `+0.0`, never `−0.0`), so their bits order
    /// like them.
    fn lower(&self, bound: f32) {
        debug_assert!(bound.is_sign_positive() && !bound.is_nan());
        if bound < self.get() {
            self.0.fetch_min(bound.to_bits(), Ordering::Relaxed);
        }
    }
}

/// One k-NN query answered by a **cooperative** two-phase scan: several
/// [`QuantizedScan`]s — *participants* — each holding a contiguous
/// range of the global ids from its `base` on, run phase 1 against one
/// shared threshold, and one finish reranks their candidates once.
///
/// Each participant's [`Self::phase1`] (on any thread, in any order,
/// concurrently or not) streams and screens its own code column into
/// its own heap of the `m` best `(bound, id)` pairs, screening each
/// block against `min(own heap's worst, shared)`. `shared` is the least
/// worst bound any participant's full heap has published — `m` bounds
/// lie at or under it — or, when [`Self::bound`] set it lower, the
/// first `f32` above the bound τ₀. A participant that starts late drops
/// from its first block the tiles the others already ruled out instead
/// of re-learning its threshold from `+∞`; in a bounded scan the first
/// one does too. Phase 1 returns the candidates and
/// `T`, the participant's final effective threshold:
/// thresholds only fall, so every point it excluded — screened,
/// filtered or evicted — has `LB ≥ T`.
///
/// [`Self::finish`] merges the candidates, keeps the `m` smallest
/// `(LB, id)` and reranks them once. With `H` the least of the `m`-th
/// merged bound (when the merge cut anything) and every participant's
/// `T`, no point left out has `LB < H`, so a `k`-th reranked distance
/// `d_k < H` certifies the answer (`d ≥ LB ≥ H > d_k`, strictly, so ties
/// at `d_k` cannot be lost). `H` holds each *finishing* participant's
/// own `T`: the answer is exact over the participants handed to the
/// finish even when the threshold they screened against came from one
/// that was not (a shard that published and then failed).
///
/// A bounded scan whose participants all reach the finish answers "the
/// top-k under τ₀", ties at τ₀ included, which may be fewer than `k`:
/// when `d_k < H` fails but `τ₀ < H`, the reranked points with
/// `d ≤ τ₀` are the answer with no second round, as every point left
/// out has `d ≥ LB ≥ H > τ₀`.
///
/// Otherwise the finish runs the bound-driven second round of
/// [`QuantizedScan::two_phase_knn`] over every participant; if fewer
/// than `k` candidates arrived while `H` is finite — possible only when
/// a participant's candidates were dropped — it scans them exactly.
///
/// With several participants a heap may miss a point that ties the
/// shared threshold and would have won the tie on id, so the candidate
/// set may differ from the `m` smallest `(LB, id)` of the whole corpus;
/// such a point has `LB ≥ T ≥ H`, and the strict `d_k < H` keeps the
/// answer exact.
#[derive(Debug)]
pub struct CooperativeScan {
    k: usize,
    /// `m`, every participant's heap size.
    window: usize,
    /// Points over all participants: a finish over fewer lost one.
    n: usize,
    /// τ₀ (`+∞` when unbounded).
    bound: f64,
    shared: SharedThreshold,
}

/// One participant's phase 1 of a [`CooperativeScan`], for
/// [`CooperativeScan::finish`].
#[derive(Debug)]
pub struct Phase1 {
    base: usize,
    plan: QuantPlan,
    /// The heap's `(bound, local id)` pairs.
    candidates: Vec<Neighbor>,
    /// `T`: no point left out of `candidates` has a smaller bound
    /// (`+∞` when none was left out).
    threshold: f64,
    /// `phase1_points` and `tail_tiles`.
    stats: QuantScanStats,
}

impl CooperativeScan {
    /// A scan for the `k` nearest of `n` points split among its
    /// participants; `window` overrides [`default_rerank_window`].
    ///
    /// # Panics
    ///
    /// Panics when `k == 0` or `n == 0`.
    pub fn new(k: usize, window: Option<usize>, n: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(n > 0, "corpus must be non-empty");
        let kk = k.min(n);
        CooperativeScan {
            k,
            window: window
                .unwrap_or_else(|| default_rerank_window(kk))
                .max(kk)
                .min(n),
            n,
            bound: f64::INFINITY,
            shared: SharedThreshold(AtomicU32::new(f32::INFINITY.to_bits())),
        }
    }

    /// Bounds the scan by τ₀ = `tau0`, the `k`-th smallest exact
    /// distance of any `k` distinct points — of the participants or of
    /// a larger corpus they are a partition of (the previous answer of
    /// a refined round, say) — by the query's own
    /// [`QueryDistance::distance_batch`], the kernel the finish reranks
    /// with. The shared threshold starts at the first `f32` above τ₀,
    /// where no point of the true top-k lies, and the finish answers the
    /// top-k under τ₀ (see the type's docs) — unless a participant is
    /// left out of it, when the bound only seeds the threshold. Call it
    /// before any phase 1; a non-finite or non-positive `tau0` is a
    /// no-op.
    pub fn bound(&mut self, tau0: f64) {
        if tau0.is_finite() && tau0 > 0.0 {
            self.bound = tau0;
            self.shared.lower(f32_above(tau0));
        }
    }

    /// Phase 1 of the participant `scan`, whose local id `i` is global
    /// id `base + i`. `None` when the query compiles no plan against
    /// the participant's params: answer that one exactly instead.
    ///
    /// # Panics
    ///
    /// Panics when the query dimensionality disagrees.
    pub fn phase1<Q: QueryDistance + ?Sized>(
        &self,
        scan: &QuantizedScan,
        base: usize,
        query: &Q,
    ) -> Option<Phase1> {
        assert_eq!(
            query.dim(),
            scan.corpus.dim(),
            "query dimensionality mismatch"
        );
        let plan = query.quantized_plan(&scan.params)?;
        // The tiles the screen could not drop live in a stack buffer
        // just long enough for the heap's block filter to pick the
        // survivors. The heap's bounds are widened `f32`s, so the
        // narrowing is exact.
        let mut heap = TopK::new(self.window);
        let tail_tiles =
            scan.stream_bounds(&plan, f32::INFINITY, Some(&self.shared), |base_id, lb| {
                let shared = self.shared.get();
                if heap.threshold().is_none() && shared < f32::INFINITY {
                    // An underfull heap keeps whatever it is offered, so
                    // drop the lanes the screen would have dropped.
                    for (p, &b) in lb.iter().enumerate() {
                        if b < shared {
                            heap.offer(base_id + p, f64::from(b));
                        }
                    }
                } else {
                    heap.offer_block(lb, |p| base_id + p);
                }
                heap.threshold().map_or(f32::INFINITY, |worst| {
                    self.shared.lower(worst as f32);
                    worst as f32
                })
            });
        let n = scan.len();
        let threshold = if heap.len() == n {
            f64::INFINITY
        } else {
            let own = heap.threshold().unwrap_or(f64::INFINITY);
            own.min(f64::from(self.shared.get()))
        };
        Some(Phase1 {
            base,
            plan,
            candidates: heap.into_sorted(),
            threshold,
            stats: QuantScanStats {
                phase1_points: n as u64,
                tail_tiles,
                ..QuantScanStats::default()
            },
        })
    }

    /// The finish (see the type's docs): the exact top-k over the
    /// participants given — each phase 1 paired with the scan it read —
    /// ascending by `(distance, global id)`, and their counters summed.
    /// Participants may come in any order; their id ranges must not
    /// overlap.
    pub fn finish<'a, Q: QueryDistance + ?Sized>(
        &self,
        query: &Q,
        parts: impl IntoIterator<Item = (&'a QuantizedScan, Phase1)>,
    ) -> (Vec<Neighbor>, QuantScanStats) {
        let mut parts: Vec<(&QuantizedScan, Phase1)> = parts.into_iter().collect();
        parts.sort_unstable_by_key(|(_, part)| part.base);
        let owners = Owners(
            parts
                .iter()
                .map(|(scan, part)| (part.base, *scan))
                .collect(),
        );
        let mut stats = QuantScanStats::default();
        let mut ceiling = f64::INFINITY;
        let mut cands: Vec<(usize, f64)> = Vec::new();
        for (_, part) in &parts {
            stats.absorb(&part.stats);
            ceiling = ceiling.min(part.threshold);
            cands.extend(
                part.candidates
                    .iter()
                    .map(|c| (part.base + c.id, c.distance)),
            );
        }
        let n = owners.len();
        if n == 0 {
            return (Vec::new(), stats);
        }
        // A finish that lost a participant answers the exact top-k over
        // the others; one over all of them, the top-k under τ₀.
        let under_bound = |mut answer: Vec<Neighbor>| {
            if n == self.n {
                answer.truncate(answer.partition_point(|nb| nb.distance <= self.bound));
            }
            answer
        };
        let kk = self.k.min(n);
        let m = self.window;
        if cands.len() > m {
            cands.select_nth_unstable_by(m - 1, |a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            ceiling = ceiling.min(cands[m - 1].1);
            cands.truncate(m);
        }
        // Gathered in id order: cache-friendly, and what the result
        // heap's block filter needs.
        cands.sort_unstable_by_key(|&(id, _)| id);
        let (result, unsound) = owners.rerank(query, kk, &cands);
        stats.reranked = cands.len() as u64;
        let d_k = result.threshold();
        if !unsound && (ceiling == f64::INFINITY || d_k.is_some_and(|d| d < ceiling)) {
            return (under_bound(result.into_sorted()), stats);
        }
        if !unsound && self.bound < ceiling && n == self.n {
            // Fewer than `kk` reranked points lie within τ₀ (else
            // `d_k ≤ τ₀ < H` certified above), so the heap holds them
            // all; every point left out has `d ≥ LB ≥ H > τ₀`.
            return (under_bound(result.into_sorted()), stats);
        }

        if let (false, Some(tau)) = (unsound, d_k) {
            // Second, bound-driven round: τ (the k-th exact distance
            // seen so far) upper-bounds the true k-th distance, and
            // `LB ≤ D` for every point, so {p : LB ≤ τ} ⊇ true top-k.
            // Any outside point has D ≥ LB > τ ≥ final d_k, strictly —
            // exactness needs no further certification. The bounds are
            // not kept from round one: the same kernel re-streams the
            // same values and the fixed inclusive threshold collects
            // the set, already in id order. A tile the screen proves
            // `LB ≥ above > τ` on holds no member of it.
            stats.second_rounds = 1;
            let above = f32_above(tau);
            let mut cands: Vec<(usize, f64)> = Vec::new();
            for (scan, part) in &parts {
                stats.tail_tiles += scan.stream_bounds(&part.plan, above, None, |base_id, lb| {
                    cands.extend(lb.iter().enumerate().filter_map(|(p, &b)| {
                        let b = f64::from(b);
                        (b <= tau).then_some((part.base + base_id + p, b))
                    }));
                    above
                });
            }
            let (result, unsound) = owners.rerank(query, kk, &cands);
            stats.reranked += cands.len() as u64;
            if !unsound {
                return (under_bound(result.into_sorted()), stats);
            }
        }

        // A violated bound means the soundness margins failed (a bug,
        // or memory corruption); too few candidates, that some were
        // dropped. Serve the query exactly anyway.
        stats.fallback_rescans = 1;
        (under_bound(owners.knn(query, self.k)), stats)
    }
}

/// The least `f32` strictly above `x` (`+∞` past `f32::MAX`): a
/// threshold a screen may drop `LB ≥` at without losing a point whose
/// `f64` bound is `≤ x`.
fn f32_above(x: f64) -> f32 {
    let nearest = x as f32;
    if f64::from(nearest) > x {
        nearest
    } else {
        nearest.next_up()
    }
}

/// The participants of one finish, ascending by base: which scan holds
/// a global id.
struct Owners<'a>(Vec<(usize, &'a QuantizedScan)>);

impl Owners<'_> {
    /// Points over all participants.
    fn len(&self) -> usize {
        self.0.iter().map(|(_, scan)| scan.len()).sum()
    }

    /// Exactly reranks `cands` (ascending-global-id `(id, lower_bound)`
    /// pairs) into a `kk`-bounded top-k heap. Returns the heap and
    /// whether any exact distance violated its supposed lower bound.
    fn rerank<Q: QueryDistance + ?Sized>(
        &self,
        query: &Q,
        kk: usize,
        cands: &[(usize, f64)],
    ) -> (TopK, bool) {
        let dim = query.dim();
        let mut result = TopK::new(kk);
        let mut unsound = false;
        let block = TILE_LANES * QUANT_BLOCK_TILES;
        let mut rows = vec![0.0f64; block * dim];
        let mut dist = vec![0.0f64; block];
        for chunk in cands.chunks(block) {
            for (i, &(id, _)) in chunk.iter().enumerate() {
                let (base, scan) = self.0[self.0.partition_point(|&(base, _)| base <= id) - 1];
                scan.corpus
                    .copy_point(id - base, &mut rows[i * dim..(i + 1) * dim]);
            }
            query.distance_batch(&rows[..chunk.len() * dim], dim, &mut dist[..chunk.len()]);
            let dist = &dist[..chunk.len()];
            unsound |= dist.iter().zip(chunk).any(|(&d, &(_, bound))| d < bound);
            result.offer_block(dist, |i| chunk[i].0);
        }
        (result, unsound)
    }

    /// The exact top-k over every participant.
    fn knn<Q: QueryDistance + ?Sized>(&self, query: &Q, k: usize) -> Vec<Neighbor> {
        let lists = self
            .0
            .iter()
            .map(|&(base, scan)| {
                let mut list = scan.knn(query, k);
                for n in &mut list {
                    n.id += base;
                }
                list
            })
            .collect();
        merge_top_k(lists, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{EuclideanQuery, WeightedEuclideanQuery};
    use crate::scan::LinearScan;

    fn corpus(n: usize, dim: usize) -> Vec<Vec<f64>> {
        let mut state = 0x2545f4914f6cdd1du64;
        let mut rnd = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n)
            .map(|_| (0..dim).map(|_| rnd() * 4.0).collect())
            .collect()
    }

    #[test]
    fn fit_tiles_matches_row_major_fit_bit_for_bit() {
        for n in [1usize, 7, 8, 9, 300] {
            let pts = corpus(n, 5);
            let flat: Vec<f64> = pts.iter().flatten().copied().collect();
            let want = QuantParams::fit(&flat, 5);
            let tiled = TileCorpus::from_flat(&flat, 5);
            let got = QuantParams::fit_tiles(tiled.tiles(), 5, n);
            assert_eq!(got, want, "n={n}");
            assert_eq!(QuantParams::fit_rows(&pts, 5), want, "n={n}");
        }
        // Empty corpora degrade to zero ranges in every form.
        assert_eq!(QuantParams::fit_tiles(&[], 3, 0), QuantParams::fit(&[], 3));
        assert_eq!(QuantParams::fit_rows(&[], 3), QuantParams::fit(&[], 3));
    }

    #[test]
    fn codes_round_trip_within_measured_error() {
        let pts = corpus(300, 5);
        let flat: Vec<f64> = pts.iter().flatten().copied().collect();
        let params = QuantParams::fit(&flat, 5);
        for row in &pts {
            for j in 0..5 {
                let back = params.decode(j, params.encode_value(j, row[j]));
                assert!((row[j] - back).abs() <= params.max_err()[j]);
            }
        }
    }

    #[test]
    fn zero_range_dimension_reconstructs_exactly() {
        let data = vec![3.0, 1.0, 3.0, 2.0, 3.0, -1.0];
        let params = QuantParams::fit(&data, 2);
        assert_eq!(params.delta()[0], 0.0);
        assert_eq!(params.decode(0, params.encode_value(0, 3.0)), 3.0);
        // Only the absolute inflation floor remains of the error bound.
        assert!(params.max_err()[0] <= 4e-12);
    }

    #[test]
    fn non_finite_values_poison_the_plan() {
        let data = vec![1.0, f64::NAN, 2.0, 3.0];
        let params = QuantParams::fit(&data, 2);
        assert!(!params.is_finite());
        let q = EuclideanQuery::new(vec![0.0, 0.0]);
        assert!(q.quantized_plan(&params).is_none());
    }

    /// A finite range wider than `f64` can code has no plan either, but
    /// it is not a non-finite value.
    #[test]
    fn a_range_too_wide_to_code_is_still_finite() {
        let data = vec![-1e308, 0.0, 1e308, 1.0];
        let params = QuantParams::fit(&data, 2);
        assert!(params.is_finite());
        assert_eq!(params.max_err()[0], f64::INFINITY);
        let q = EuclideanQuery::new(vec![0.0, 0.0]);
        assert!(q.quantized_plan(&params).is_none());
    }

    #[test]
    fn tile_corpus_round_trips_points() {
        let pts = corpus(21, 4);
        let tc = TileCorpus::from_rows(&pts);
        assert_eq!(tc.len(), 21);
        assert_eq!(tc.ntiles(), 3);
        let mut row = vec![0.0; 4];
        for (i, p) in pts.iter().enumerate() {
            tc.copy_point(i, &mut row);
            assert_eq!(&row, p);
        }
    }

    #[test]
    fn tile_corpus_knn_matches_linear_scan() {
        let pts = corpus(500, 6);
        let tc = TileCorpus::from_rows(&pts);
        let scan = LinearScan::new(&pts);
        let q = EuclideanQuery::new(pts[7].clone());
        assert_eq!(tc.knn(&q, 10), scan.knn(&q, 10));
        let w = WeightedEuclideanQuery::new(pts[3].clone(), vec![0.5, 2.0, 0.0, 1.0, 3.0, 0.25]);
        assert_eq!(tc.knn(&w, 10), scan.knn(&w, 10));
    }

    #[test]
    fn two_phase_matches_exact_bit_for_bit() {
        let pts = corpus(2000, 8);
        let qs = QuantizedScan::from_rows(&pts);
        let scan = LinearScan::new(&pts);
        for k in [1usize, 10, 25] {
            let q = EuclideanQuery::new(pts[k].clone());
            let (got, stats) = qs.two_phase_knn(&q, k, None);
            let want = scan.knn(&q, k);
            assert_eq!(got, want, "k={k}");
            assert_eq!(stats.phase1_points, 2000);
            assert!(stats.plan_misses == 0);
        }
    }

    #[test]
    fn two_phase_handles_duplicates_and_ties() {
        let mut pts = corpus(64, 3);
        for i in 0..32 {
            let dup = pts[i % 4].clone();
            pts.push(dup);
        }
        let qs = QuantizedScan::from_rows(&pts);
        let scan = LinearScan::new(&pts);
        let q = EuclideanQuery::new(pts[0].clone());
        let (got, _) = qs.two_phase_knn(&q, 40, None);
        assert_eq!(got, scan.knn(&q, 40));
    }

    #[test]
    fn window_of_full_corpus_never_falls_back() {
        let pts = corpus(100, 4);
        let qs = QuantizedScan::from_rows(&pts);
        let q = EuclideanQuery::new(pts[0].clone());
        let (got, stats) = qs.two_phase_knn(&q, 5, Some(100));
        assert_eq!(got, LinearScan::new(&pts).knn(&q, 5));
        assert_eq!(stats.fallback_rescans, 0);
        assert_eq!(stats.reranked, 100);
    }

    #[test]
    fn tiny_window_still_exact_via_fallback_path() {
        // A window of k forces frequent certification failures; results
        // must still be exact.
        let pts = corpus(800, 5);
        let qs = QuantizedScan::from_rows(&pts);
        let scan = LinearScan::new(&pts);
        for probe in 0..8 {
            let q = EuclideanQuery::new(pts[probe * 97].clone());
            let (got, _) = qs.two_phase_knn(&q, 10, Some(10));
            assert_eq!(got, scan.knn(&q, 10));
        }
    }

    #[test]
    fn lower_bounds_are_sound_for_every_point() {
        let pts = corpus(1000, 7);
        let qs = QuantizedScan::from_rows(&pts);
        let q =
            WeightedEuclideanQuery::new(pts[11].clone(), vec![1.0, 0.5, 2.0, 0.0, 0.75, 1.5, 0.25]);
        let plan = q.quantized_plan(qs.params()).expect("plan compiles");
        let ntiles = qs.corpus().ntiles();
        let mut acc = Vec::new();
        let mut lb = vec![0.0f32; ntiles * TILE_LANES];
        plan.lower_bounds(qs.codes(), ntiles, &mut acc, &mut lb);
        for (i, p) in pts.iter().enumerate() {
            assert!(
                f64::from(lb[i]) <= q.distance(p),
                "bound {} exceeds exact {} at {i}",
                lb[i],
                q.distance(p)
            );
        }
    }

    /// Nothing calls the portable kernel on an x86 host with AVX2, so
    /// this does: the same blocks through `screen_chunk_portable` and
    /// through the dispatching `screen_chunk`. Their polynomial sums
    /// round differently, so the bounds may differ in the last bits —
    /// but both must be sound against the exact distance, both must
    /// select candidates that rerank to the exact top-k, and each
    /// kernel's screen must agree with that kernel's own bounds.
    #[test]
    fn portable_and_dispatched_kernels_are_sound_and_give_the_same_top_k() {
        type Kernel = fn(&[u8], usize, usize, &ChunkPass<'_>, &mut [f32]) -> u32;
        let (n, dim, k) = (1003, 7, 10);
        let pts = corpus(n, dim);
        let qs = QuantizedScan::from_rows(&pts);
        let ntiles = qs.corpus().ntiles();
        let block = QUANT_BLOCK_TILES * dim * TILE_LANES;
        let weights = [1.0, 0.5, 2.0, 0.0, 0.75, 1.5, 0.25];
        // One, three and six components: one tile pair per iteration,
        // one wide chunk, two chunks.
        for comps in [1usize, 3, 6] {
            let specs: Vec<QuantSpec<'_>> = (0..comps)
                .map(|r| QuantSpec {
                    weights: (r % 2 == 0).then_some(&weights[..]),
                    center: &pts[17 * r + 3],
                    mass: 1.0 + r as f64,
                })
                .collect();
            let total: f64 = specs.iter().map(|s| s.mass).sum();
            let plan = QuantPlan::build(qs.params(), &specs, total).expect("plan compiles");
            let exact = |p: &[f64]| {
                let terms: f64 = specs
                    .iter()
                    .map(|s| {
                        let d: f64 = (0..dim)
                            .map(|j| s.weights.map_or(1.0, |w| w[j]) * (p[j] - s.center[j]).powi(2))
                            .sum();
                        s.mass / d
                    })
                    .sum();
                total / terms
            };
            let mut want: Vec<(f64, usize)> =
                pts.iter().enumerate().map(|(i, p)| (exact(p), i)).collect();
            want.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
            want.truncate(k);

            for kernel in [screen_chunk_portable as Kernel, screen_chunk as Kernel] {
                let run = |screen: &Screen, out: &mut [f32]| -> Vec<u32> {
                    qs.codes()
                        .chunks(block)
                        .zip(out.chunks_mut(QUANT_BLOCK_TILES * TILE_LANES))
                        .map(|(c, o)| {
                            plan.run_block_with(kernel, c, o.len() / TILE_LANES, screen, o)
                        })
                        .collect()
                };
                let mut lb = vec![0.0f32; ntiles * TILE_LANES];
                let flags = run(&Screen::OFF, &mut lb);
                assert_eq!(
                    flags.iter().map(|f| f.count_ones() as usize).sum::<usize>(),
                    ntiles
                );
                for (i, p) in pts.iter().enumerate() {
                    assert!(f64::from(lb[i]) <= exact(p), "comps={comps} point {i}");
                }

                // The 4k smallest bounds rerank to the exact top-k.
                let mut order: Vec<(f32, usize)> =
                    lb[..n].iter().enumerate().map(|(i, &b)| (b, i)).collect();
                order.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
                let tau = order[4 * k - 1].0;
                let mut got: Vec<(f64, usize)> = order[..4 * k]
                    .iter()
                    .map(|&(_, i)| (exact(&pts[i]), i))
                    .collect();
                got.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
                got.truncate(k);
                assert!(got[k - 1].0 < f64::from(tau), "window certifies");
                assert_eq!(got, want, "comps={comps}");

                // Screened at that threshold: a flagged tile repeats
                // the unscreened lanes, a dropped one holds nothing
                // below the threshold and is left alone.
                let mut screened = vec![-1.0f32; ntiles * TILE_LANES];
                let flags = run(&plan.screen(tau), &mut screened);
                let mut dropped = 0;
                for t in 0..ntiles {
                    let lanes = t * TILE_LANES..(t + 1) * TILE_LANES;
                    if flags[t / QUANT_BLOCK_TILES] >> (t % QUANT_BLOCK_TILES) & 1 == 1 {
                        assert_eq!(screened[lanes.clone()], lb[lanes]);
                    } else {
                        dropped += 1;
                        assert!(lb[lanes.clone()].iter().all(|&b| b >= tau));
                        assert!(screened[lanes].iter().all(|&b| b == -1.0));
                    }
                }
                // One chunk screens; two chunks must not.
                assert_eq!(dropped > 0, comps <= CHUNK_COMPONENTS, "comps={comps}");
            }
        }
    }
}
