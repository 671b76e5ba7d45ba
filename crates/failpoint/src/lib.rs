//! # qcluster-failpoint
//!
//! A deterministic fault-injection registry for chaos testing the
//! Qcluster service and storage layers.
//!
//! Production code threads named *failpoints* through its failure-prone
//! paths (WAL appends, fsyncs, segment seals, shard fan-out jobs). In a
//! normal process every failpoint is inert: [`evaluate`] first reads one
//! relaxed atomic and returns `None`, so the instrumented hot paths pay
//! a single predictable branch. Chaos tests arm failpoints with an
//! [`Action`] — inject an error, panic, sleep, or perform a *partial*
//! (torn) write — optionally skipping the first `skip` evaluations and
//! firing at most `times` times, which makes scenarios like "the third
//! WAL append tears after 5 bytes" reproducible bit-for-bit.
//!
//! Failpoints are process-global. Tests that arm them must serialize
//! against each other through [`test_lock`] and should prefer the
//! RAII [`scoped`] guard so a panicking test cannot leak an armed
//! failpoint into its neighbours.
//!
//! ```
//! use qcluster_failpoint as failpoint;
//!
//! let _serial = failpoint::test_lock();
//! let _fp = failpoint::scoped("demo.op", failpoint::Action::Error("disk gone".into()));
//! match failpoint::evaluate("demo.op") {
//!     Some(failpoint::Action::Error(msg)) => assert_eq!(msg, "disk gone"),
//!     other => panic!("expected injected error, got {other:?}"),
//! }
//! assert_eq!(failpoint::hits("demo.op"), 1);
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Fail the operation with this message (call sites convert it into
    /// their layer's error type, e.g. an `std::io::Error`).
    Error(String),
    /// Panic with this message (exercises panic-isolation paths).
    Panic(String),
    /// Sleep for this many milliseconds, then proceed normally
    /// (simulates a slow shard / stalled disk).
    Sleep(u64),
    /// Perform only the first `n` bytes of the write, then fail
    /// (simulates a torn write). Only meaningful at write call sites;
    /// others treat it like [`Action::Error`].
    Partial(usize),
}

/// One armed failpoint: the action plus its firing window.
#[derive(Debug, Clone)]
struct Armed {
    action: Action,
    /// Evaluations to let through before the first fire.
    skip: u64,
    /// Remaining fires (`None` = fire on every evaluation past `skip`).
    remaining: Option<u64>,
    /// Evaluations seen so far.
    seen: u64,
    /// Times this failpoint actually fired.
    hits: u64,
}

/// `true` while at least one failpoint is armed — the only state the
/// disabled fast path reads.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<String, Armed>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_registry() -> MutexGuard<'static, HashMap<String, Armed>> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// `true` when any failpoint is armed. Call sites that need to build
/// dynamic failpoint names (e.g. `executor.shard.3`) gate the
/// formatting behind this so the disabled path allocates nothing.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Arms `name` to fire on every evaluation.
pub fn configure(name: &str, action: Action) {
    configure_counted(name, action, 0, None);
}

/// Arms `name` to skip the first `skip` evaluations, then fire at most
/// `times` times (`None` = unlimited). Deterministic: the k-th
/// evaluation of a failpoint always behaves the same for a fixed
/// configuration.
pub fn configure_counted(name: &str, action: Action, skip: u64, times: Option<u64>) {
    let mut reg = lock_registry();
    reg.insert(
        name.to_string(),
        Armed {
            action,
            skip,
            remaining: times,
            seen: 0,
            hits: 0,
        },
    );
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Disarms `name` (hit counts for it are forgotten).
pub fn remove(name: &str) {
    let mut reg = lock_registry();
    reg.remove(name);
    if reg.is_empty() {
        ACTIVE.store(false, Ordering::Relaxed);
    }
}

/// Disarms every failpoint.
pub fn clear_all() {
    let mut reg = lock_registry();
    reg.clear();
    ACTIVE.store(false, Ordering::Relaxed);
}

/// Times `name` has fired since it was armed (0 when not armed).
pub fn hits(name: &str) -> u64 {
    lock_registry().get(name).map_or(0, |a| a.hits)
}

/// Evaluates the failpoint `name`: returns the action to perform when
/// it fires, `None` otherwise. The disabled fast path is one relaxed
/// atomic load.
#[inline]
pub fn evaluate(name: &str) -> Option<Action> {
    if !active() {
        return None;
    }
    evaluate_slow(name)
}

#[cold]
fn evaluate_slow(name: &str) -> Option<Action> {
    let mut reg = lock_registry();
    let armed = reg.get_mut(name)?;
    let slot = armed.seen;
    armed.seen += 1;
    if slot < armed.skip {
        return None;
    }
    if let Some(remaining) = armed.remaining.as_mut() {
        if *remaining == 0 {
            return None;
        }
        *remaining -= 1;
    }
    armed.hits += 1;
    Some(armed.action.clone())
}

/// Evaluates `name` and, when armed with [`Action::Sleep`], performs
/// the sleep in place, returning `None` (the operation proceeds).
/// Every other action is returned for the call site to interpret.
pub fn evaluate_sleepy(name: &str) -> Option<Action> {
    match evaluate(name) {
        Some(Action::Sleep(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            None
        }
        other => other,
    }
}

/// RAII guard from [`scoped`]: disarms its failpoint on drop.
#[derive(Debug)]
pub struct Guard {
    name: String,
}

impl Guard {
    /// Times the guarded failpoint has fired so far.
    pub fn hits(&self) -> u64 {
        hits(&self.name)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        remove(&self.name);
    }
}

/// Arms `name` for the guard's lifetime (fires on every evaluation).
#[must_use = "the failpoint disarms when the guard drops"]
pub fn scoped(name: &str, action: Action) -> Guard {
    configure(name, action);
    Guard {
        name: name.to_string(),
    }
}

/// Arms `name` with a firing window for the guard's lifetime.
#[must_use = "the failpoint disarms when the guard drops"]
pub fn scoped_counted(name: &str, action: Action, skip: u64, times: Option<u64>) -> Guard {
    configure_counted(name, action, skip, times);
    Guard {
        name: name.to_string(),
    }
}

/// Serializes tests that arm failpoints: the registry is process-global,
/// so two concurrently running chaos tests would otherwise see each
/// other's injections. Hold the returned guard for the whole test.
pub fn test_lock() -> MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_failpoints_evaluate_to_none() {
        let _serial = test_lock();
        clear_all();
        assert!(!active());
        assert_eq!(evaluate("nobody.armed.this"), None);
        assert_eq!(hits("nobody.armed.this"), 0);
    }

    #[test]
    fn armed_failpoint_fires_and_counts() {
        let _serial = test_lock();
        clear_all();
        let fp = scoped("t.fire", Action::Error("boom".into()));
        assert!(active());
        assert_eq!(evaluate("t.fire"), Some(Action::Error("boom".into())));
        assert_eq!(evaluate("t.fire"), Some(Action::Error("boom".into())));
        assert_eq!(fp.hits(), 2);
        drop(fp);
        assert_eq!(evaluate("t.fire"), None);
        assert!(!active());
    }

    #[test]
    fn skip_and_times_window_is_deterministic() {
        let _serial = test_lock();
        clear_all();
        let _fp = scoped_counted("t.window", Action::Sleep(0), 2, Some(2));
        // Two skipped, two fired, then exhausted.
        assert_eq!(evaluate("t.window"), None);
        assert_eq!(evaluate("t.window"), None);
        assert_eq!(evaluate("t.window"), Some(Action::Sleep(0)));
        assert_eq!(evaluate("t.window"), Some(Action::Sleep(0)));
        assert_eq!(evaluate("t.window"), None);
        assert_eq!(hits("t.window"), 2);
    }

    #[test]
    fn sleepy_evaluation_absorbs_sleeps_and_passes_errors() {
        let _serial = test_lock();
        clear_all();
        let _fp = scoped("t.sleepy", Action::Sleep(1));
        let before = std::time::Instant::now();
        assert_eq!(evaluate_sleepy("t.sleepy"), None);
        assert!(before.elapsed() >= std::time::Duration::from_millis(1));
        remove("t.sleepy");
        let _fp = scoped("t.sleepy", Action::Partial(3));
        assert_eq!(evaluate_sleepy("t.sleepy"), Some(Action::Partial(3)));
    }

    #[test]
    fn guards_clean_up_on_panic() {
        let _serial = test_lock();
        clear_all();
        let result = std::panic::catch_unwind(|| {
            let _fp = scoped("t.leak", Action::Panic("inner".into()));
            panic!("test body dies");
        });
        assert!(result.is_err());
        assert_eq!(evaluate("t.leak"), None, "guard disarmed on unwind");
        assert!(!active());
    }
}
