//! Covariance handling schemes (paper Sec. 3.2 and Fig. 6).
//!
//! The quadratic forms at the heart of Qcluster need `S⁻¹`. The paper
//! evaluates two estimators:
//!
//! - the **inverse matrix scheme** (MindReader-style): invert the full
//!   covariance, which captures arbitrarily-oriented ellipsoids but is
//!   expensive and singular whenever a cluster has fewer points than
//!   dimensions;
//! - the **diagonal matrix scheme** (MARS-style): keep only the diagonal,
//!   i.e. axis-aligned ellipsoids, which "avoids the singularity problem
//!   and its performance is similar to that of the method using an inverse
//!   matrix" (Sec. 4). The paper adopts it after Fig. 6 shows its far lower
//!   CPU cost.
//!
//! Both schemes ridge-regularize with `lambda` before inverting so that
//! singleton clusters (zero covariance) still define a finite, sharply
//! peaked ellipsoid.

use qcluster_linalg::{LinalgError, Matrix};

/// How a cluster covariance is turned into the `S⁻¹` of the quadratic form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CovarianceScheme {
    /// Invert the full covariance (plus `lambda·I` ridge).
    FullInverse {
        /// Ridge added to the diagonal before inversion.
        lambda: f64,
    },
    /// Invert only the diagonal: `w_i = 1 / (σ_i² + lambda)`.
    Diagonal {
        /// Ridge added to each variance before inversion.
        lambda: f64,
    },
}

impl CovarianceScheme {
    /// The paper's adopted configuration: diagonal with a small ridge.
    pub const fn default_diagonal() -> Self {
        CovarianceScheme::Diagonal { lambda: 1e-3 }
    }

    /// The MindReader-style configuration.
    pub const fn default_full() -> Self {
        CovarianceScheme::FullInverse { lambda: 1e-3 }
    }

    /// The ridge parameter.
    pub fn lambda(&self) -> f64 {
        match *self {
            CovarianceScheme::FullInverse { lambda } | CovarianceScheme::Diagonal { lambda } => {
                lambda
            }
        }
    }

    /// Materializes `S⁻¹` from a covariance matrix under this scheme.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Singular`] when the regularized full matrix still
    /// fails to invert (pathological `lambda = 0` inputs).
    pub fn invert(&self, cov: &Matrix) -> Result<InverseCovariance, LinalgError> {
        match *self {
            CovarianceScheme::Diagonal { lambda } => {
                let weights = cov
                    .diagonal()
                    .iter()
                    .map(|&v| 1.0 / (v.max(0.0) + lambda))
                    .collect();
                Ok(InverseCovariance::Diagonal(weights))
            }
            CovarianceScheme::FullInverse { lambda } => {
                let mut reg = cov.clone();
                reg.regularize(lambda);
                Ok(InverseCovariance::Full(reg.inverse()?))
            }
        }
    }
}

impl Default for CovarianceScheme {
    fn default() -> Self {
        Self::default_diagonal()
    }
}

/// A materialized `S⁻¹` that can evaluate its quadratic form.
#[derive(Debug, Clone)]
pub enum InverseCovariance {
    /// Diagonal inverse: per-dimension weights.
    Diagonal(Vec<f64>),
    /// Dense inverse matrix.
    Full(Matrix),
}

impl InverseCovariance {
    /// A dense inverse from its `dim × dim` row-major values, or `None`
    /// when there are not exactly `dim²` of them.
    pub fn from_dense(dim: usize, values: Vec<f64>) -> Option<Self> {
        (values.len() == dim * dim)
            .then(|| InverseCovariance::Full(Matrix::from_vec(dim, dim, values)))
    }

    /// Evaluates `(x − c)ᵀ S⁻¹ (x − c)`.
    ///
    /// `scratch` must have length `x.len()` (only used by the dense path).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn quadratic_form(&self, x: &[f64], c: &[f64], scratch: &mut [f64]) -> f64 {
        match self {
            InverseCovariance::Diagonal(w) => {
                qcluster_linalg::vecops::weighted_sq_euclidean(x, c, w)
            }
            InverseCovariance::Full(m) => {
                qcluster_linalg::vecops::quadratic_form(x, c, m.as_slice(), scratch)
            }
        }
    }

    /// Evaluates the quadratic form for every point of a contiguous
    /// row-major block, reusing `scratch` (length `dim`) across all of
    /// them — one arena borrow per block instead of one per point.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn quadratic_form_batch(
        &self,
        block: &[f64],
        dim: usize,
        c: &[f64],
        scratch: &mut [f64],
        out: &mut [f64],
    ) {
        match self {
            InverseCovariance::Diagonal(w) => {
                qcluster_linalg::vecops::weighted_sq_euclidean_batch(block, dim, c, w, out)
            }
            InverseCovariance::Full(m) => qcluster_linalg::vecops::quadratic_form_batch(
                block,
                dim,
                c,
                m.as_slice(),
                scratch,
                out,
            ),
        }
    }

    /// A scale factor `s` such that `quadratic_form(x, c) ≥ s · ‖x − c‖²`
    /// for all `x` — the smallest eigenvalue for the dense case, the
    /// smallest weight for the diagonal case. Used to lower-bound the
    /// quadratic form over a bounding box during tree search.
    pub fn min_eigenvalue(&self) -> f64 {
        match self {
            InverseCovariance::Diagonal(w) => {
                w.iter().fold(f64::INFINITY, |m, &v| m.min(v)).max(0.0)
            }
            InverseCovariance::Full(m) => {
                match qcluster_linalg::SymmetricEigen::decompose(m) {
                    Ok(e) => e.eigenvalues.last().copied().unwrap_or(0.0).max(0.0),
                    // Eigendecomposition can fail on a numerically
                    // asymmetric artifact or non-convergence. Zero would
                    // still be valid but collapses the box lower bound and
                    // disables all tree pruning; the Gershgorin circle
                    // bound stays cheap and is usually far tighter.
                    Err(_) => gershgorin_lower_bound(m).max(0.0),
                }
            }
        }
    }

    /// Per-dimension weights when diagonal, `None` when dense.
    pub fn diagonal_weights(&self) -> Option<&[f64]> {
        match self {
            InverseCovariance::Diagonal(w) => Some(w),
            InverseCovariance::Full(_) => None,
        }
    }
}

/// Gershgorin-circle lower bound on the smallest eigenvalue of the
/// symmetric part `S = (M + Mᵀ)/2`:
/// `λ_min(S) ≥ min_i ( s_ii − Σ_{j≠i} |s_ij| )`.
///
/// Because `xᵀMx = xᵀSx` for every `x`, this is a valid scale factor for
/// the quadratic-form bound even when `M` itself is (numerically) not
/// quite symmetric — exactly the case where eigendecomposition refuses
/// to run.
fn gershgorin_lower_bound(m: &Matrix) -> f64 {
    let p = m.rows();
    let mut bound = f64::INFINITY;
    for i in 0..p {
        let mut radius = 0.0;
        for j in 0..p {
            if j != i {
                radius += (m.get(i, j) + m.get(j, i)).abs() / 2.0;
            }
        }
        bound = bound.min(m.get(i, i) - radius);
    }
    if bound.is_finite() {
        bound
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_scheme_inverts_elementwise() {
        let cov = Matrix::from_rows(&[&[4.0, 9.0], &[9.0, 1.0]]);
        let inv = CovarianceScheme::Diagonal { lambda: 0.0 }
            .invert(&cov)
            .unwrap();
        let w = inv.diagonal_weights().unwrap();
        assert!((w[0] - 0.25).abs() < 1e-12);
        assert!((w[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_scheme_matches_true_inverse() {
        let cov = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]);
        let inv = CovarianceScheme::FullInverse { lambda: 0.0 }
            .invert(&cov)
            .unwrap();
        let mut scratch = [0.0; 2];
        let q = inv.quadratic_form(&[1.0, 0.0], &[0.0, 0.0], &mut scratch);
        // True inverse of [[2,.5],[.5,1]] has (0,0) entry 1/1.75·1 = 0.5714…
        let true_inv = cov.inverse().unwrap();
        assert!((q - true_inv.get(0, 0)).abs() < 1e-12);
    }

    #[test]
    fn zero_covariance_is_regularized() {
        let cov = Matrix::zeros(3, 3);
        for scheme in [
            CovarianceScheme::Diagonal { lambda: 1e-3 },
            CovarianceScheme::FullInverse { lambda: 1e-3 },
        ] {
            let inv = scheme.invert(&cov).unwrap();
            let mut scratch = [0.0; 3];
            let q = inv.quadratic_form(&[1.0, 0.0, 0.0], &[0.0; 3], &mut scratch);
            assert!((q - 1000.0).abs() < 1e-6, "{scheme:?}: q={q}");
        }
    }

    #[test]
    fn min_eigenvalue_bounds_quadratic_form() {
        let cov = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        for scheme in [
            CovarianceScheme::Diagonal { lambda: 0.1 },
            CovarianceScheme::FullInverse { lambda: 0.1 },
        ] {
            let inv = scheme.invert(&cov).unwrap();
            let lam = inv.min_eigenvalue();
            let mut scratch = [0.0; 2];
            for &x in &[[1.0, 0.0], [0.3, -0.7], [2.0, 2.0]] {
                let q = inv.quadratic_form(&x, &[0.0, 0.0], &mut scratch);
                let n2 = x[0] * x[0] + x[1] * x[1];
                assert!(q >= lam * n2 - 1e-9, "{scheme:?}");
            }
        }
    }

    #[test]
    fn asymmetric_full_matrix_falls_back_to_gershgorin() {
        // Asymmetry beyond the eigen solver's tolerance forces the
        // fallback path; the regression this guards: that path used to
        // return 0.0, disabling tree pruning entirely.
        let m = Matrix::from_rows(&[&[4.0, 0.5], &[0.2, 3.0]]);
        assert!(qcluster_linalg::SymmetricEigen::decompose(&m).is_err());
        let inv = InverseCovariance::Full(m);
        let lam = inv.min_eigenvalue();
        // Symmetrized off-diagonal is 0.35; rows give 3.65 and 2.65.
        assert!((lam - 2.65).abs() < 1e-12, "lam={lam}");

        // The bound must stay valid: q(x) ≥ λ·‖x − c‖² on a sample grid.
        let mut scratch = [0.0; 2];
        for i in -5..=5 {
            for j in -5..=5 {
                let x = [0.4 * i as f64, 0.4 * j as f64];
                let q = inv.quadratic_form(&x, &[0.0, 0.0], &mut scratch);
                let n2 = x[0] * x[0] + x[1] * x[1];
                assert!(q >= lam * n2 - 1e-9, "x={x:?} q={q} bound={}", lam * n2);
            }
        }
    }

    #[test]
    fn gershgorin_fallback_clamps_at_zero() {
        // Dominant off-diagonals drive the circle bound negative; the
        // clamp keeps min_eigenvalue a usable (if loose) scale of 0.
        let m = Matrix::from_rows(&[&[1.0, 10.0], &[9.0, 1.0]]);
        assert!(qcluster_linalg::SymmetricEigen::decompose(&m).is_err());
        assert_eq!(InverseCovariance::Full(m).min_eigenvalue(), 0.0);
    }

    #[test]
    fn quadratic_form_batch_matches_scalar_for_both_variants() {
        let cov = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]);
        let block = [0.3, -0.7, 1.5, 0.2, -0.9, -0.1, 0.0, 0.0, 2.0, 2.0];
        let c = [0.1, -0.3];
        for scheme in [
            CovarianceScheme::Diagonal { lambda: 0.01 },
            CovarianceScheme::FullInverse { lambda: 0.01 },
        ] {
            let inv = scheme.invert(&cov).unwrap();
            let mut scratch = [0.0; 2];
            let mut out = [0.0; 5];
            inv.quadratic_form_batch(&block, 2, &c, &mut scratch, &mut out);
            for p in 0..5 {
                let x = &block[p * 2..(p + 1) * 2];
                assert_eq!(
                    out[p],
                    inv.quadratic_form(x, &c, &mut scratch),
                    "{scheme:?}"
                );
            }
        }
    }

    #[test]
    fn negative_variances_are_clamped() {
        // Round-off can make a variance slightly negative; the diagonal
        // scheme must still produce positive weights.
        let cov = Matrix::from_diagonal(&[-1e-15, 1.0]);
        let inv = CovarianceScheme::Diagonal { lambda: 1e-3 }
            .invert(&cov)
            .unwrap();
        let w = inv.diagonal_weights().unwrap();
        assert!(w[0] > 0.0 && w[0] <= 1000.0);
    }
}
