//! Gaussian samplers for the synthetic-data experiments (paper Sec. 5).
//!
//! The paper evaluates its classification and merging algorithms on
//! synthetic multivariate normals: `z ~ N(0, I)` gives spherical clusters;
//! `y = A·z` with a random linear map `A` gives elliptical clusters with
//! covariance `A·Aᵀ`. Figures 18–19 additionally need raw "random F"
//! values built from ratios of χ² sums of squared normals (paper Eq. 20).

use qcluster_linalg::{Cholesky, Matrix};
use rand::Rng;

/// Standard-normal sampler using the Box–Muller transform.
///
/// Generates pairs of independent `N(0,1)` variates and caches the spare,
/// so consecutive draws cost one `ln`/`sqrt`/`sincos` per two samples.
#[derive(Debug, Clone, Default)]
pub struct GaussianSampler {
    spare: Option<f64>,
}

impl GaussianSampler {
    /// Creates a sampler with no cached spare.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws one standard normal variate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        // Box–Muller: u1 ∈ (0, 1] avoids ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Fills a vector with `n` independent standard normal variates.
    pub fn sample_vec<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// A multivariate normal distribution `N(mean, Σ)` sampled through the
/// Cholesky square root of Σ.
#[derive(Debug, Clone)]
pub struct MultivariateNormal {
    mean: Vec<f64>,
    chol: Option<Cholesky>,
    sampler: GaussianSampler,
}

impl MultivariateNormal {
    /// Builds a sampler for `N(mean, cov)`.
    ///
    /// # Errors
    ///
    /// Propagates the Cholesky error when `cov` is not symmetric positive
    /// definite.
    pub fn new(mean: Vec<f64>, cov: &Matrix) -> qcluster_linalg::Result<Self> {
        let chol = Cholesky::decompose(cov)?;
        Ok(MultivariateNormal {
            mean,
            chol: Some(chol),
            sampler: GaussianSampler::new(),
        })
    }

    /// Builds a spherical `N(mean, I)` sampler (no factorization needed).
    pub fn standard(mean: Vec<f64>) -> Self {
        MultivariateNormal {
            mean,
            chol: None,
            sampler: GaussianSampler::new(),
        }
    }

    /// Dimensionality `p`.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<f64> {
        let p = self.mean.len();
        let z = self.sampler.sample_vec(rng, p);
        match &self.chol {
            Some(ch) => {
                let mut y = ch.apply(&z);
                for (yi, &mi) in y.iter_mut().zip(self.mean.iter()) {
                    *yi += mi;
                }
                y
            }
            None => z
                .iter()
                .zip(self.mean.iter())
                .map(|(&zi, &mi)| zi + mi)
                .collect(),
        }
    }

    /// Draws `n` samples as rows of a matrix.
    pub fn sample_matrix<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) -> Matrix {
        let p = self.dim();
        let mut out = Matrix::zeros(n, p);
        for i in 0..n {
            let s = self.sample(rng);
            out.row_mut(i).copy_from_slice(&s);
        }
        out
    }
}

/// A "random F" value per the paper's Eq. 20:
/// `F = (χ²_{d1}/d1) / (χ²_{d2}/d2)` with each χ² realized as a sum of
/// squared independent `N(0,1)` variates.
///
/// The paper's Eq. 20 omits the dof normalization in its display; we follow
/// the standard F definition (which is what an F quantile compares against).
pub fn random_f<R: Rng + ?Sized>(rng: &mut R, d1: usize, d2: usize) -> f64 {
    let num = random_chi_squared(rng, d1) / d1 as f64;
    let den = random_chi_squared(rng, d2) / d2 as f64;
    num / den
}

/// One χ²_k realization: the sum of `k` squared standard normals.
pub fn random_chi_squared<R: Rng + ?Sized>(rng: &mut R, k: usize) -> f64 {
    let mut g = GaussianSampler::new();
    (0..k)
        .map(|_| {
            let z = g.sample(rng);
            z * z
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = GaussianSampler::new();
        let xs = g.sample_vec(&mut rng, 100_000);
        let m = crate::descriptive::mean(&xs).unwrap();
        let v = crate::descriptive::population_variance(&xs).unwrap();
        assert!(m.abs() < 0.02, "mean {m} too far from 0");
        assert!((v - 1.0).abs() < 0.03, "variance {v} too far from 1");
    }

    #[test]
    fn mvn_standard_has_identity_covariance() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut mvn = MultivariateNormal::standard(vec![1.0, -1.0]);
        let data = mvn.sample_matrix(&mut rng, 50_000);
        let c0 = data.column(0);
        let c1 = data.column(1);
        let m0 = crate::descriptive::mean(&c0).unwrap();
        let m1 = crate::descriptive::mean(&c1).unwrap();
        assert!((m0 - 1.0).abs() < 0.03);
        assert!((m1 + 1.0).abs() < 0.03);
        let cov01: f64 = c0
            .iter()
            .zip(c1.iter())
            .map(|(a, b)| (a - m0) * (b - m1))
            .sum::<f64>()
            / c0.len() as f64;
        assert!(cov01.abs() < 0.03);
    }

    #[test]
    fn mvn_with_covariance_reproduces_it() {
        let mut rng = StdRng::seed_from_u64(3);
        let cov = Matrix::from_rows(&[&[2.0, 0.8], &[0.8, 1.0]]);
        let mut mvn = MultivariateNormal::new(vec![0.0, 0.0], &cov).unwrap();
        let data = mvn.sample_matrix(&mut rng, 100_000);
        let c0 = data.column(0);
        let c1 = data.column(1);
        let v0 = crate::descriptive::population_variance(&c0).unwrap();
        let v1 = crate::descriptive::population_variance(&c1).unwrap();
        let m0 = crate::descriptive::mean(&c0).unwrap();
        let m1 = crate::descriptive::mean(&c1).unwrap();
        let cov01: f64 = c0
            .iter()
            .zip(c1.iter())
            .map(|(a, b)| (a - m0) * (b - m1))
            .sum::<f64>()
            / c0.len() as f64;
        assert!((v0 - 2.0).abs() < 0.05, "v0={v0}");
        assert!((v1 - 1.0).abs() < 0.03, "v1={v1}");
        assert!((cov01 - 0.8).abs() < 0.03, "cov01={cov01}");
    }

    #[test]
    fn random_f_mean_matches_theory() {
        // E[F_{d1,d2}] = d2/(d2−2) for d2 > 2.
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let mean_f: f64 = (0..n).map(|_| random_f(&mut rng, 12, 48)).sum::<f64>() / n as f64;
        let want = 48.0 / 46.0;
        assert!((mean_f - want).abs() < 0.05, "mean F {mean_f} vs {want}");
    }

    #[test]
    fn random_chi_squared_mean_is_dof() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let m: f64 = (0..n).map(|_| random_chi_squared(&mut rng, 9)).sum::<f64>() / n as f64;
        assert!((m - 9.0).abs() < 0.15, "chi2 mean {m}");
    }

    #[test]
    fn random_f_quantiles_match_f_distribution() {
        // Empirical 95th percentile of random F should be near F_{12,48}(0.05).
        let mut rng = StdRng::seed_from_u64(17);
        let n = 40_000;
        let mut xs: Vec<f64> = (0..n).map(|_| random_f(&mut rng, 12, 48)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p95 = crate::descriptive::quantile(&xs, 0.95);
        let want = crate::distributions::f_quantile(12, 48, 0.05);
        assert!(
            (p95 - want).abs() < 0.1,
            "empirical {p95} vs theoretical {want}"
        );
    }
}
