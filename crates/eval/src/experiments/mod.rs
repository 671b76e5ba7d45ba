//! One driver per paper figure/table.
//!
//! Every driver exposes a config struct (with a scaled-down
//! [`Default`] for tests and a `paper_scale()` preset matching the paper's
//! parameters where feasible) and a `run` function returning structured
//! rows. `qcluster repro` (in `qcluster-cli`) prints them, timings
//! included (Figs. 6 and 7 read [`crate::IterationRecord::elapsed`]).
//! Every driver that runs feedback sessions does so through
//! [`crate::FeedbackSession`], i.e. through the one closed loop of
//! [`crate::session`]; `ablation`'s negative-feedback sweep is the one
//! loop kept apart, because it also feeds negatives.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`fig5`] | Fig. 5 — disjunctive query on the uniform cube |
//! | [`fig6`] | Fig. 6 — CPU time, inverse vs diagonal scheme |
//! | [`fig7`] | Fig. 7 — execution cost of the three approaches |
//! | [`fig8_9`] | Figs. 8–9 — P–R graphs per iteration (color / texture) |
//! | [`fig10_13`] | Figs. 10–13 — recall & precision of the three approaches |
//! | [`fig14_17`] | Figs. 14–17 — classification error rate grids |
//! | [`fig18_19`] | Figs. 18–19 — T² vs c² Q–Q plots |
//! | [`table2_3`] | Tables 2–3 — T² accuracy, same/different means |
//! | [`ablation`] | design-choice quality ablations (DESIGN.md §7) |

pub mod ablation;
pub mod fig10_13;
pub mod fig14_17;
pub mod fig18_19;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8_9;
pub mod table2_3;
