//! The harness's own corpus generator and oracle.
//!
//! `--seed` is the only input. Point `i` is a pure function of
//! `(seed, i)`, so the base corpus is points `0..n` and the ingest
//! stream simply continues at `n, n+1, …` — the oracle
//! (`category(i) = i % categories`) covers both without a side table.
//!
//! Every category has two modes a few noise radii apart, and category
//! centres sit close enough that neighbours overlap: a top-k around one
//! example holds a few wrong-category points and some members of the
//! other mode, so the refined query is disjunctive and last-iteration
//! precision lands near 0.8 instead of saturating at 0 or 1.

/// splitmix64: one multiply-xorshift round per draw, seedable per point.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Approximately standard normal: the sum of four 16-bit uniforms
    /// (Irwin–Hall), centred and scaled to unit variance. One draw per
    /// sample keeps a 1M × 24 corpus under a second to generate.
    pub fn gauss(&mut self) -> f64 {
        let r = self.next_u64();
        let sum = (r & 0xFFFF) + ((r >> 16) & 0xFFFF) + ((r >> 32) & 0xFFFF) + (r >> 48);
        (sum as f64 / 65536.0 - 2.0) * 1.732_050_807_568_877_2
    }
}

/// Derives an independent stream from `(seed, salt)`.
pub fn stream(seed: u64, salt: u64) -> SplitMix {
    let mut s = SplitMix(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    s.next_u64();
    s
}

/// Shape of one workload's corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusSpec {
    pub n: usize,
    pub dim: usize,
    /// Members per category in the base corpus (`n / categories`).
    pub per_category: usize,
    /// Noise scale relative to the unit cube the centres are drawn
    /// from; with `MODE_GAP` it sets how much neighbours overlap.
    pub noise: f64,
}

/// Distance between a category's two modes, in noise radii (σ·√d).
const MODE_GAP: f64 = 1.6;

/// The generator: category centres plus the per-dimension noise scales.
#[derive(Debug, Clone)]
pub struct Generator {
    seed: u64,
    dim: usize,
    categories: usize,
    /// `categories × 2 × dim`: both mode centres of every category.
    centres: Vec<f64>,
    /// Per-dimension noise scale (uneven, so diagonal weights matter).
    sigma: Vec<f64>,
}

impl Generator {
    pub fn new(seed: u64, spec: CorpusSpec) -> Generator {
        let dim = spec.dim;
        let categories = (spec.n / spec.per_category).max(2);
        let mut rng = stream(seed, 0xC0_FFEE);
        let noise = spec.noise;
        let sigma: Vec<f64> = (0..dim)
            .map(|j| noise * (0.6 + 0.8 * j as f64 / dim as f64))
            .collect();
        let gap = MODE_GAP * noise * (dim as f64).sqrt();
        let mut centres = Vec::with_capacity(categories * 2 * dim);
        for _ in 0..categories {
            let first: Vec<f64> = (0..dim).map(|_| rng.unit()).collect();
            let dir: Vec<f64> = (0..dim).map(|_| rng.gauss()).collect();
            let norm = dir.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-9);
            centres.extend_from_slice(&first);
            centres.extend(first.iter().zip(&dir).map(|(c, d)| c + gap * d / norm));
        }
        Generator {
            seed,
            dim,
            categories,
            centres,
            sigma,
        }
    }

    pub fn categories(&self) -> usize {
        self.categories
    }

    /// The oracle: which category point `id` belongs to (base corpus
    /// and ingest stream alike).
    pub fn category(&self, id: usize) -> usize {
        id % self.categories
    }

    /// Point `id`, a pure function of `(seed, id)`.
    pub fn point(&self, id: usize) -> Vec<f64> {
        let cat = id % self.categories;
        let mode = (id / self.categories) % 2;
        let centre = &self.centres[(cat * 2 + mode) * self.dim..(cat * 2 + mode + 1) * self.dim];
        let mut rng = stream(self.seed, id as u64 + 1);
        centre
            .iter()
            .zip(&self.sigma)
            .map(|(c, s)| c + s * rng.gauss())
            .collect()
    }

    /// Points `0..n`.
    pub fn corpus(&self, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| self.point(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: CorpusSpec = CorpusSpec {
        n: 2_000,
        dim: 8,
        per_category: 100,
        noise: 0.3,
    };

    #[test]
    fn same_seed_same_points_other_seed_other_points() {
        let a = Generator::new(7, SPEC);
        let b = Generator::new(7, SPEC);
        let c = Generator::new(8, SPEC);
        assert_eq!(a.corpus(50), b.corpus(50));
        assert_ne!(a.point(3), c.point(3));
        // The ingest stream is the corpus continued.
        assert_eq!(a.point(SPEC.n + 5), b.point(SPEC.n + 5));
        assert_eq!(a.category(SPEC.n + 5), (SPEC.n + 5) % a.categories());
    }

    #[test]
    fn gauss_is_roughly_standard() {
        let mut rng = stream(1, 2);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.gauss()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
