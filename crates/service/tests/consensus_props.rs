//! Stale-term fencing properties: the service's consensus surface
//! (`handle_vote` / `apply_fenced` / `consensus_status`) is checked
//! against an explicit reference model over arbitrary operation
//! sequences, plus deterministic pins of the individual rules.
//!
//! Leases in the generated sequences are either 0 (no lease) or far
//! longer than any test run, so the model never has to reason about
//! wall-clock expiry.

use proptest::prelude::*;
use qcluster_service::{Service, ServiceConfig, ServiceError};

/// A lease long enough to be "unexpired" for the whole test run.
const LONG_LEASE_MS: u64 = 600_000;

fn make_service() -> Service {
    let points: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, (i * 2) as f64]).collect();
    Service::new(
        &points,
        ServiceConfig {
            num_shards: 1,
            num_workers: 1,
            ..ServiceConfig::default()
        },
    )
    .expect("spawn service")
}

/// An empty fenced ship: `Some(current_term)` when it is stale.
fn fence(service: &Service, term: u64, lease_ms: u64) -> Result<Option<u64>, ServiceError> {
    match service.apply_fenced(term, lease_ms, &[]) {
        Ok(_) => Ok(None),
        Err(ServiceError::StaleTerm { current }) => Ok(Some(current)),
        Err(e) => Err(e),
    }
}

/// One step a contending router might take against the node.
#[derive(Debug, Clone)]
enum Op {
    /// `handle_vote(term, lease)`.
    Vote { term: u64, lease: bool },
    /// `apply_fenced(term, lease, &[])` (an empty fenced ship).
    Apply { term: u64, lease: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Small terms maximize stale/duplicate collisions; the leading
    // coin picks the operation, the trailing one the lease.
    (0u64..2, 0u64..6, 0u64..2).prop_map(|(kind, term, lease)| {
        let lease = lease == 1;
        if kind == 0 {
            Op::Vote { term, lease }
        } else {
            Op::Apply { term, lease }
        }
    })
}

/// The reference model of one node's consensus state.
#[derive(Debug, Default)]
struct Model {
    term: u64,
    /// A vote was granted with a (long) lease that has not expired.
    vote_leased: bool,
    /// A fenced apply was accepted with a (long) lease.
    leader_leased: bool,
}

impl Model {
    fn vote(&mut self, term: u64, lease: bool) -> bool {
        let granted = term > self.term && !self.vote_leased && !self.leader_leased;
        if granted {
            self.term = term;
            self.vote_leased = lease;
        }
        granted
    }

    /// Returns `None` when accepted, `Some(current)` when fenced.
    fn apply(&mut self, term: u64, lease: bool) -> Option<u64> {
        if term < self.term {
            return Some(self.term);
        }
        if term > self.term {
            self.term = term;
            self.vote_leased = false;
        }
        if lease {
            self.leader_leased = true;
        }
        None
    }
}

proptest! {
    /// Every operation sequence leaves the service bit-for-bit in
    /// agreement with the model: same term, same grant/fence verdicts,
    /// and the term never regresses.
    #[test]
    fn fencing_agrees_with_reference_model(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let _serial = qcluster_failpoint::test_lock();
        let service = make_service();
        let mut model = Model::default();
        let mut high_water = 0u64;
        for op in &ops {
            match *op {
                Op::Vote { term, lease } => {
                    let lease_ms = if lease { LONG_LEASE_MS } else { 0 };
                    let expected = model.vote(term, lease);
                    if term == 0 {
                        // Terms start at 1; bidding 0 is a caller error.
                        prop_assert!(service.handle_vote(0, lease_ms).is_err());
                    } else {
                        let (granted, current) = service.handle_vote(term, lease_ms).unwrap();
                        prop_assert_eq!(granted, expected, "vote {} on {:?}", term, model);
                        prop_assert_eq!(current, model.term);
                    }
                }
                Op::Apply { term, lease } => {
                    let lease_ms = if lease { LONG_LEASE_MS } else { 0 };
                    if term == 0 {
                        // So is shipping at 0: rejected, nothing changes.
                        prop_assert!(fence(&service, 0, lease_ms).is_err());
                    } else {
                        let expected = model.apply(term, lease);
                        let verdict = fence(&service, term, lease_ms).unwrap();
                        prop_assert_eq!(verdict, expected, "apply {} on {:?}", term, model);
                    }
                }
            }
            let (term, _) = service.consensus_status();
            prop_assert_eq!(term, model.term);
            prop_assert!(term >= high_water, "term regressed: {} -> {}", high_water, term);
            high_water = term;
        }
    }
}

#[test]
fn two_candidates_cannot_both_win_one_node() {
    let _serial = qcluster_failpoint::test_lock();
    let service = make_service();
    // Router A wins term 1 with a vote lease.
    let (granted, term) = service.handle_vote(1, LONG_LEASE_MS).unwrap();
    assert!(granted);
    assert_eq!(term, 1);
    // Router B's higher bid is refused while the vote lease holds.
    let (granted, term) = service.handle_vote(2, LONG_LEASE_MS).unwrap();
    assert!(!granted);
    assert_eq!(term, 1, "refusal reports the node's current term");
}

#[test]
fn active_leader_lease_blocks_deposition_but_newer_ship_supersedes() {
    let _serial = qcluster_failpoint::test_lock();
    let service = make_service();
    assert!(service.handle_vote(3, 0).unwrap().0);
    // Leader at term 3 renews its lease via an empty fenced ship.
    assert_eq!(fence(&service, 3, LONG_LEASE_MS).unwrap(), None);
    // A contender cannot collect this node while the leader lease holds.
    assert!(!service.handle_vote(4, 0).unwrap().0);
    // But a ship from an already-elected term-5 leader (it won its
    // majority elsewhere) is adopted — ships never need votes.
    assert_eq!(fence(&service, 5, 0).unwrap(), None);
    assert_eq!(service.consensus_status().0, 5);
    // The deposed term-3 leader is now fenced.
    assert_eq!(fence(&service, 3, 0).unwrap(), Some(5));
}

#[test]
fn stale_term_failpoint_forces_the_fenced_verdict() {
    let _serial = qcluster_failpoint::test_lock();
    let _armed = qcluster_failpoint::scoped_counted(
        "repl.apply.stale_term",
        qcluster_failpoint::Action::Error("forced".into()),
        0,
        Some(1),
    );
    let service = make_service();
    // Disarmed state would accept this (node at term 0, ship term 1).
    assert_eq!(fence(&service, 1, 0).unwrap(), Some(0));
    assert_eq!(qcluster_failpoint::hits("repl.apply.stale_term"), 1);
    // The failpoint is spent: the same ship is accepted again.
    assert_eq!(fence(&service, 1, 0).unwrap(), None);
}
