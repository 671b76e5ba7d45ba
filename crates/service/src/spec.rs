//! The wire form of a compiled query: [`QuerySpec`].
//!
//! A cluster router hosts each session's method and compiles its query
//! once; the nodes it scatters to only evaluate it. A spec carries the
//! numbers the compiled query evaluates with — centers, weights,
//! inverse covariances, masses — and never the fed points, so a node
//! rebuilds the query without inverting anything, and its `distance`,
//! `distance_tiles` and `quantized_plan` are bit-identical to the
//! router's (the wire codec carries every `f64` as its 8 bytes).

use crate::error::ServiceError;
use qcluster_baselines::{AggregateKind, MultiPointQuery};
use qcluster_core::{ClusterDistance, DisjunctiveQuery, InverseCovariance, RepresentativeParts};
use qcluster_index::{EuclideanQuery, FanoutQuery, WeightedEuclideanQuery};
use serde::{Deserialize, Serialize};
use std::any::Any;

/// A compiled query on the wire, one variant per compiled kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QuerySpec {
    /// Squared Euclidean distance to one point (an example-image round).
    Euclidean {
        /// The query point.
        center: Vec<f64>,
    },
    /// A diagonal quadratic form around one point (QPM).
    WeightedEuclidean {
        /// The query point.
        center: Vec<f64>,
        /// Per-dimension weights (all ≥ 0).
        weights: Vec<f64>,
    },
    /// One cluster's quadratic form, paper Eq. 1 (MindReader).
    Cluster(RepresentativeSpec),
    /// The disjunctive multipoint query, paper Eq. 5 (Qcluster).
    Disjunctive {
        /// One entry per cluster, all under one covariance scheme.
        representatives: Vec<RepresentativeSpec>,
    },
    /// A multipoint aggregate of diagonal forms (QEX, FALCON).
    MultiPoint {
        /// One entry per query point.
        points: Vec<PointSpec>,
        /// How the per-point distances combine.
        aggregate: AggregateSpec,
    },
}

/// One compiled cluster representative.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepresentativeSpec {
    /// The centroid.
    pub mean: Vec<f64>,
    /// Its inverse covariance.
    pub inverse: InverseSpec,
    /// Its mass (weight in the aggregate, > 0).
    pub mass: f64,
    /// `λ_min` of the inverse, the box lower-bound scale (≥ 0).
    pub min_eigenvalue: f64,
}

/// An inverse covariance on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InverseSpec {
    /// Per-dimension weights (all ≥ 0).
    Diagonal(Vec<f64>),
    /// A dense `dim × dim` matrix, row-major.
    Full(Vec<f64>),
}

/// One point of a multipoint aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointSpec {
    /// The query point.
    pub center: Vec<f64>,
    /// Per-dimension weights (all ≥ 0).
    pub weights: Vec<f64>,
    /// Its weight in the aggregate (> 0).
    pub mass: f64,
}

/// The aggregate rule of a multipoint query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AggregateSpec {
    /// Weighted arithmetic mean of the component forms.
    Convex,
    /// Weighted mean of the square roots of the component forms.
    MultiFocal,
    /// The α-norm fuzzy OR.
    FuzzyOr {
        /// Finite and strictly negative.
        alpha: f64,
    },
}

impl From<AggregateKind> for AggregateSpec {
    fn from(kind: AggregateKind) -> Self {
        match kind {
            AggregateKind::Convex => AggregateSpec::Convex,
            AggregateKind::MultiFocal => AggregateSpec::MultiFocal,
            AggregateKind::FuzzyOr { alpha } => AggregateSpec::FuzzyOr { alpha },
        }
    }
}

impl From<AggregateSpec> for AggregateKind {
    fn from(spec: AggregateSpec) -> Self {
        match spec {
            AggregateSpec::Convex => AggregateKind::Convex,
            AggregateSpec::MultiFocal => AggregateKind::MultiFocal,
            AggregateSpec::FuzzyOr { alpha } => AggregateKind::FuzzyOr { alpha },
        }
    }
}

impl From<RepresentativeParts> for RepresentativeSpec {
    fn from(parts: RepresentativeParts) -> Self {
        RepresentativeSpec {
            mean: parts.mean,
            inverse: match parts.inverse {
                InverseCovariance::Diagonal(w) => InverseSpec::Diagonal(w),
                InverseCovariance::Full(m) => InverseSpec::Full(m.into_vec()),
            },
            mass: parts.mass,
            min_eigenvalue: parts.min_eigenvalue,
        }
    }
}

/// The largest magnitude a spec number may have. With corpus values of
/// the same order no kernel product exceeds ~1e301, so the sums stay
/// finite, no evaluation reaches `∞ − ∞` or `0 · ∞`, and no distance is
/// NaN (a NaN distance would panic the top-k). A compiled engine query
/// sits far inside the bound: its weights are at most the inverse of
/// the covariance ridge.
pub const MAX_SPEC_MAGNITUDE: f64 = 1e100;

fn in_range(v: f64) -> bool {
    v.is_finite() && v.abs() <= MAX_SPEC_MAGNITUDE
}

fn invalid(msg: String) -> ServiceError {
    ServiceError::InvalidRequest(format!("query spec: {msg}"))
}

/// `values` has `len` entries, each within [`MAX_SPEC_MAGNITUDE`] and,
/// with `non_negative`, at least 0.
fn check_values(
    what: &str,
    values: &[f64],
    len: usize,
    non_negative: bool,
) -> Result<(), ServiceError> {
    if values.len() != len {
        return Err(invalid(format!(
            "{what} has {} values, expected {len}",
            values.len()
        )));
    }
    match values
        .iter()
        .position(|&v| !in_range(v) || (non_negative && v < 0.0))
    {
        None => Ok(()),
        Some(i) => Err(invalid(format!(
            "{what}[{i}] = {} is out of range",
            values[i]
        ))),
    }
}

fn check_mass(what: &str, mass: f64) -> Result<(), ServiceError> {
    if in_range(mass) && mass > 0.0 {
        Ok(())
    } else {
        Err(invalid(format!("{what} mass {mass} is out of range")))
    }
}

/// The dimensionality `center` fixes: its length, which must be ≥ 1.
fn dim_of(center: &[f64]) -> Result<usize, ServiceError> {
    match center.len() {
        0 => Err(invalid("empty query point".into())),
        dim => Ok(dim),
    }
}

impl RepresentativeSpec {
    fn check(&self, dim: usize) -> Result<(), ServiceError> {
        check_values("mean", &self.mean, dim, false)?;
        match &self.inverse {
            InverseSpec::Diagonal(w) => check_values("diagonal inverse", w, dim, true)?,
            InverseSpec::Full(m) => check_values("dense inverse", m, dim * dim, false)?,
        }
        check_mass("representative", self.mass)?;
        if in_range(self.min_eigenvalue) && self.min_eigenvalue >= 0.0 {
            Ok(())
        } else {
            Err(invalid(format!(
                "min eigenvalue {} is out of range",
                self.min_eigenvalue
            )))
        }
    }

    fn into_parts(self) -> Result<RepresentativeParts, ServiceError> {
        let dim = self.mean.len();
        let inverse = match self.inverse {
            InverseSpec::Diagonal(w) => InverseCovariance::Diagonal(w),
            InverseSpec::Full(m) => InverseCovariance::from_dense(dim, m)
                .ok_or_else(|| invalid("dense inverse is not dim × dim".into()))?,
        };
        Ok(RepresentativeParts {
            mean: self.mean,
            inverse,
            mass: self.mass,
            min_eigenvalue: self.min_eigenvalue,
        })
    }
}

impl QuerySpec {
    /// The wire form of a compiled query.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] for a kind with no wire form,
    /// or a query carrying a number outside [`MAX_SPEC_MAGNITUDE`]
    /// (NaN and ±∞ included).
    pub fn of(query: &dyn FanoutQuery) -> Result<QuerySpec, ServiceError> {
        let any: &dyn Any = query;
        let spec = if let Some(q) = any.downcast_ref::<EuclideanQuery>() {
            QuerySpec::Euclidean {
                center: q.center().to_vec(),
            }
        } else if let Some(q) = any.downcast_ref::<WeightedEuclideanQuery>() {
            QuerySpec::WeightedEuclidean {
                center: q.center().to_vec(),
                weights: q.weights().to_vec(),
            }
        } else if let Some(q) = any.downcast_ref::<ClusterDistance>() {
            QuerySpec::Cluster(q.parts().into())
        } else if let Some(q) = any.downcast_ref::<DisjunctiveQuery>() {
            QuerySpec::Disjunctive {
                representatives: q.parts().into_iter().map(Into::into).collect(),
            }
        } else if let Some(q) = any.downcast_ref::<MultiPointQuery>() {
            QuerySpec::MultiPoint {
                points: q
                    .points()
                    .map(|(center, weights, mass)| PointSpec {
                        center: center.to_vec(),
                        weights: weights.to_vec(),
                        mass,
                    })
                    .collect(),
                aggregate: q.kind().into(),
            }
        } else {
            return Err(invalid("this query kind has no wire form".into()));
        };
        spec.check()?;
        Ok(spec)
    }

    /// Rebuilds the compiled query.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] for any spec the query
    /// constructors would reject — an empty or ragged point set, a
    /// negative weight, a non-positive mass, mixed covariance schemes, a
    /// fuzzy-OR exponent that is not negative — or one carrying a number
    /// outside [`MAX_SPEC_MAGNITUDE`].
    pub fn compile(self) -> Result<Box<dyn FanoutQuery>, ServiceError> {
        self.check()?;
        Ok(match self {
            QuerySpec::Euclidean { center } => Box::new(EuclideanQuery::new(center)),
            QuerySpec::WeightedEuclidean { center, weights } => {
                Box::new(WeightedEuclideanQuery::new(center, weights))
            }
            QuerySpec::Cluster(rep) => Box::new(ClusterDistance::from_parts(rep.into_parts()?)),
            QuerySpec::Disjunctive { representatives } => Box::new(DisjunctiveQuery::from_parts(
                representatives
                    .into_iter()
                    .map(RepresentativeSpec::into_parts)
                    .collect::<Result<_, _>>()?,
            )),
            QuerySpec::MultiPoint { points, aggregate } => Box::new(MultiPointQuery::new(
                points
                    .into_iter()
                    .map(|p| (p.center, p.weights, p.mass))
                    .collect(),
                aggregate.into(),
            )),
        })
    }

    /// Every rule the query constructors assert, as a typed error:
    /// what [`QuerySpec::compile`] checks first, and what a sender
    /// checks before encoding a spec it built by hand.
    ///
    /// # Errors
    ///
    /// As [`QuerySpec::compile`].
    pub fn check(&self) -> Result<(), ServiceError> {
        match self {
            QuerySpec::Euclidean { center } => {
                check_values("center", center, dim_of(center)?, false)
            }
            QuerySpec::WeightedEuclidean { center, weights } => {
                let dim = dim_of(center)?;
                check_values("center", center, dim, false)?;
                check_values("weights", weights, dim, true)
            }
            QuerySpec::Cluster(rep) => rep.check(dim_of(&rep.mean)?),
            QuerySpec::Disjunctive { representatives } => {
                let first = representatives
                    .first()
                    .ok_or_else(|| invalid("no representatives".into()))?;
                let dim = dim_of(&first.mean)?;
                let diagonal = matches!(first.inverse, InverseSpec::Diagonal(_));
                for rep in representatives {
                    rep.check(dim)?;
                    if matches!(rep.inverse, InverseSpec::Diagonal(_)) != diagonal {
                        return Err(invalid("representatives mix covariance schemes".into()));
                    }
                }
                Ok(())
            }
            QuerySpec::MultiPoint { points, aggregate } => {
                let first = points
                    .first()
                    .ok_or_else(|| invalid("no query points".into()))?;
                let dim = dim_of(&first.center)?;
                for p in points {
                    check_values("center", &p.center, dim, false)?;
                    check_values("weights", &p.weights, dim, true)?;
                    check_mass("query point", p.mass)?;
                }
                match aggregate {
                    AggregateSpec::FuzzyOr { alpha } if !(in_range(*alpha) && *alpha < 0.0) => Err(
                        invalid(format!("fuzzy-OR exponent {alpha} is out of range")),
                    ),
                    _ => Ok(()),
                }
            }
        }
    }
}
