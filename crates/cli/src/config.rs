//! Soak workload shape: fleet size, session depth, pacing.

/// Everything that shapes one soak run. One `seed` determines the whole
/// workload (fleet plan, think jitter, ingest content),
/// so two runs with equal configs drive byte-identical request
/// sequences per user.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// Master seed; every random decision derives from it.
    pub seed: u64,
    /// Concurrent simulated users (each is one client thread with its
    /// own connection).
    pub users: usize,
    /// Feedback sessions each user runs back to back.
    pub sessions_per_user: usize,
    /// Feedback iterations per session (after the initial query).
    pub iterations: usize,
    /// Result-set size per query round.
    pub k: usize,
    /// Mean think time between feedback rounds, milliseconds. Actual
    /// per-round pauses jitter uniformly in `[think/2, 3·think/2)`.
    pub think_ms: u64,
    /// Per-mille of sessions abandoned early (the user leaves after a
    /// seed-chosen prefix of the planned iterations).
    pub abandon_per_mille: u32,
    /// Background ingest rate, vectors/second (0 disables; requires a
    /// durable target).
    pub ingest_per_sec: u32,
    /// Optional per-query deadline forwarded on the wire.
    pub deadline_ms: Option<u64>,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 42,
            users: 8,
            sessions_per_user: 1,
            iterations: 3,
            k: 20,
            think_ms: 0,
            abandon_per_mille: 0,
            ingest_per_sec: 0,
            deadline_ms: None,
        }
    }
}

impl SoakConfig {
    /// Rejects shapes that cannot run.
    ///
    /// # Errors
    ///
    /// A description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.users == 0 {
            return Err("users must be positive".into());
        }
        if self.sessions_per_user == 0 {
            return Err("sessions_per_user must be positive".into());
        }
        if self.k == 0 {
            return Err("k must be positive".into());
        }
        if self.abandon_per_mille > 1000 {
            return Err("abandon_per_mille must be <= 1000".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(SoakConfig::default().validate().is_ok());
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        for bad in [
            SoakConfig {
                users: 0,
                ..SoakConfig::default()
            },
            SoakConfig {
                sessions_per_user: 0,
                ..SoakConfig::default()
            },
            SoakConfig {
                k: 0,
                ..SoakConfig::default()
            },
            SoakConfig {
                abandon_per_mille: 1001,
                ..SoakConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
