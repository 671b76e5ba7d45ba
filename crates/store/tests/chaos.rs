//! Fault-injection chaos tests for the storage layer.
//!
//! These tests live in their own binary (= their own process) because
//! failpoints are process-global: arming one here must never leak into
//! the ordinary unit/property tests. Within this binary, every test
//! serializes through `failpoint::test_lock()`.
//!
//! What must hold under injected faults:
//!
//! - A torn WAL append (short write) surfaces as an error, the writer
//!   rolls the file back to the committed prefix, and the *next* append
//!   succeeds — no torn bytes ever reach replay.
//! - An fsync failure fails the ingest without committing it; the store
//!   keeps working and recovery sees a consistent prefix.
//! - A failed rollback wedges the writer (typed `Wedged` error, no
//!   silent corruption); reopening the store heals it.
//! - A compaction "crash" between the segment seal and the WAL rewrite
//!   replays idempotently — sealed ids in the stale WAL are skipped.
//! - A failed segment seal leaves only a `.tmp` behind, which the next
//!   open sweeps.
//!
//! CI runs this suite in the `chaos` job with `PROPTEST_CASES=256`.

use proptest::prelude::*;
use qcluster_failpoint as failpoint;
use qcluster_store::{replay, StoreConfig, StoreError, VectorStore, WalRecord, WalWriter};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("qstore_chaos_{tag}_{}_{n}", std::process::id()))
}

fn vecs(n: usize, dim: usize, offset: f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| (0..dim).map(|d| offset + (i * dim + d) as f64).collect())
        .collect()
}

#[test]
fn torn_append_rolls_back_and_writer_self_heals() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();
    let dir = scratch("torn_append");
    std::fs::remove_dir_all(&dir).ok();

    let (mut store, _) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
    store.ingest(vec![0.0, 1.0]).unwrap();
    store.ingest(vec![2.0, 3.0]).unwrap();

    // The third append tears after 5 bytes (mid-header), then the
    // device "recovers".
    let fp = failpoint::scoped_counted("wal.append", failpoint::Action::Partial(5), 0, Some(1));
    let err = store.ingest(vec![4.0, 5.0]).unwrap_err();
    assert!(
        matches!(err, StoreError::Io(_)),
        "torn write surfaces as I/O: {err}"
    );
    assert_eq!(fp.hits(), 1);
    drop(fp);

    // Self-healed: the id the failed ingest would have taken is
    // reassigned, and the log has no torn bytes.
    assert_eq!(store.ingest(vec![4.0, 5.0]).unwrap(), 2);
    assert_eq!(store.total_vectors(), 3);
    drop(store);

    let (_, recovered) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
    assert!(!recovered.wal_truncated, "rollback left a clean log");
    assert_eq!(recovered.vectors.len(), 3);
    assert_eq!(recovered.vectors[2], vec![4.0, 5.0]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsync_failure_fails_the_ingest_without_committing_it() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();
    let dir = scratch("fsync_err");
    std::fs::remove_dir_all(&dir).ok();

    // Every append fsyncs: the injected fsync failure must fail it.
    let (mut store, _) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
    store.ingest(vec![1.0]).unwrap();

    let fp = failpoint::scoped_counted(
        "wal.fsync",
        failpoint::Action::Error("EIO".into()),
        0,
        Some(1),
    );
    let err = store.ingest(vec![2.0]).unwrap_err();
    assert!(
        matches!(err, StoreError::Io(_)),
        "fsync fault surfaces as I/O: {err}"
    );
    assert_eq!(fp.hits(), 1);
    drop(fp);
    assert_eq!(store.total_vectors(), 1, "failed ingest not counted");

    // The store continues: same id is reassigned and commits durably.
    assert_eq!(store.ingest(vec![2.0]).unwrap(), 1);
    drop(store);

    let (_, recovered) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(recovered.vectors.len(), 2);
    assert_eq!(recovered.vectors[1], vec![2.0]);
    assert!(!recovered.wal_truncated);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_rollback_wedges_the_writer_and_reopen_heals() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();
    let dir = scratch("wedged");
    std::fs::remove_dir_all(&dir).ok();

    let (mut store, _) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
    store.ingest(vec![7.0]).unwrap();

    // Torn write AND the rollback fails: the tail is unknown — the
    // writer must wedge rather than keep appending after garbage.
    let _torn = failpoint::scoped_counted("wal.append", failpoint::Action::Partial(3), 0, Some(1));
    let _stuck = failpoint::scoped_counted(
        "wal.rollback",
        failpoint::Action::Error("EIO on set_len".into()),
        0,
        Some(1),
    );
    let err = store.ingest(vec![8.0]).unwrap_err();
    assert!(matches!(err, StoreError::Wedged { .. }), "got: {err}");

    // Still wedged even though both failpoints are exhausted: the
    // damage is state, not injection.
    let err = store.ingest(vec![8.0]).unwrap_err();
    assert!(matches!(err, StoreError::Wedged { .. }), "got: {err}");
    drop(store);

    // Reopen heals: replay truncates the torn bytes the failed rollback
    // left behind, and ingest works again.
    let (mut store, recovered) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
    assert!(recovered.wal_truncated, "torn bytes were on disk");
    assert_eq!(recovered.vectors.len(), 1);
    assert_eq!(store.ingest(vec![8.0]).unwrap(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_crash_window_replays_idempotently() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();
    let dir = scratch("compact_crash");
    std::fs::remove_dir_all(&dir).ok();

    {
        let (mut store, _) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
        store.bootstrap(&vecs(3, 2, 0.0)).unwrap();
        for v in vecs(4, 2, 30.0) {
            store.ingest(v).unwrap();
        }

        // Crash between the atomic segment seal and the WAL rewrite.
        let fp = failpoint::scoped(
            "store.compact.crash",
            failpoint::Action::Error("die".into()),
        );
        let err = store.compact().unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "got: {err}");
        assert_eq!(fp.hits(), 1);
        // "Crash": drop the store with the stale WAL still on disk.
    }

    // Recovery skips WAL ingests the sealed segment already covers.
    let (mut store, recovered) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(recovered.vectors.len(), 7, "no double-counted ingests");
    assert_eq!(
        recovered.segment_vectors, 7,
        "crash-window segment was kept"
    );
    for (i, v) in vecs(4, 2, 30.0).into_iter().enumerate() {
        assert_eq!(recovered.vectors[3 + i], v);
    }

    // A clean compaction afterwards folds the stale WAL away for good.
    let stats = store.compact().unwrap();
    assert_eq!(stats.folded_vectors, 0);
    drop(store);
    let (_, again) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(again.vectors.len(), 7);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_segment_seal_leaves_store_usable_and_tmp_swept() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();
    let dir = scratch("seal_fail");
    std::fs::remove_dir_all(&dir).ok();

    {
        let (mut store, _) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
        let fp = failpoint::scoped_counted(
            "segment.finish",
            failpoint::Action::Error("ENOSPC".into()),
            0,
            Some(1),
        );
        let err = store.bootstrap(&vecs(5, 2, 0.0)).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "got: {err}");
        assert_eq!(fp.hits(), 1);
        drop(fp);
        assert!(store.is_empty(), "failed seal committed nothing");

        // Only the staged .tmp exists — the final segment never appeared.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".qseg") || n.ends_with(".tmp"))
            .collect();
        assert!(names.iter().all(|n| n.ends_with(".tmp")), "dir: {names:?}");
        assert!(!names.is_empty(), "staged file left for debugging");
    }

    // Reopen sweeps the stale .tmp and the store bootstraps cleanly.
    let (mut store, recovered) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
    assert!(recovered.vectors.is_empty());
    store.bootstrap(&vecs(5, 2, 0.0)).unwrap();
    assert_eq!(store.total_vectors(), 5);
    let leftover_tmp = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "tmp")
        })
        .count();
    assert_eq!(leftover_tmp, 0, "open swept the stale staging file");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Failpoint-injected short writes at arbitrary byte counts, with
    /// rollback also failing (the crash model): replay truncates to the
    /// last valid frame, recovers exactly the committed prefix, and the
    /// log stays appendable after reopening at the valid length.
    #[test]
    fn injected_short_write_truncates_to_last_valid_frame(
        vectors in (1usize..5).prop_flat_map(|dim| {
            prop::collection::vec(prop::collection::vec(-1.0e9..1.0e9f64, dim), 2..12)
        }),
        tear_at_fraction in 0.0..1.0f64,
        torn_fraction in 0.0..1.0f64,
    ) {
        let _serial = failpoint::test_lock();
        failpoint::clear_all();
        let path = scratch("prop_short_write");
        std::fs::remove_file(&path).ok();

        // The append at `tear_at` writes only a strict prefix of its
        // frame, and the rollback fails too — torn bytes stay on disk,
        // as after a power cut mid-write. Frame layout: 8-byte header +
        // tag + id + dim prefix + dim f64s.
        let frame_len = 21 + 8 * vectors[0].len();
        let torn_bytes = (((frame_len as f64) * torn_fraction) as usize).min(frame_len - 1);
        let tear_at = ((vectors.len() as f64) * tear_at_fraction) as u64;
        let tear_at = tear_at.min(vectors.len() as u64 - 1);
        {
            let _torn = failpoint::scoped_counted(
                "wal.append",
                failpoint::Action::Partial(torn_bytes),
                tear_at,
                Some(1),
            );
            let _stuck = failpoint::scoped(
                "wal.rollback",
                failpoint::Action::Error("crash".into()),
            );
            let mut wal = WalWriter::open(&path, 0).unwrap();
            let mut committed = 0u64;
            for (i, v) in vectors.iter().enumerate() {
                let record = WalRecord::Ingest { id: i as u64, vector: v.clone() };
                match wal.append(&record) {
                    Ok(()) => committed += 1,
                    Err(e) => {
                        prop_assert!(matches!(e, StoreError::Wedged { .. }), "got: {}", e);
                        break;
                    }
                }
            }
            prop_assert_eq!(committed, tear_at, "appends before the tear committed");
            prop_assert!(wal.is_wedged());
            prop_assert_eq!(wal.committed_len(), ends_before(&path, tear_at));
        }

        // Replay trusts only whole CRC-valid frames.
        let replayed = replay(&path).unwrap();
        prop_assert_eq!(replayed.records.len() as u64, tear_at);
        prop_assert_eq!(replayed.truncated, torn_bytes > 0);
        for (i, record) in replayed.records.iter().enumerate() {
            let WalRecord::Ingest { id, vector } = record else {
                prop_assert!(false, "only Ingest records were written");
                unreachable!()
            };
            prop_assert_eq!(*id, i as u64);
            for (a, b) in vector.iter().zip(vectors[i].iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // Reopening at the valid prefix truncates the tear; the torn
        // record and the rest append cleanly (failpoints now disarmed).
        failpoint::clear_all();
        {
            let mut wal = WalWriter::open(&path, replayed.valid_len).unwrap();
            for (i, v) in vectors.iter().enumerate().skip(tear_at as usize) {
                wal.append(&WalRecord::Ingest { id: i as u64, vector: v.clone() }).unwrap();
            }
        }
        let again = replay(&path).unwrap();
        prop_assert!(!again.truncated);
        prop_assert_eq!(again.records.len(), vectors.len());
        std::fs::remove_file(&path).ok();
    }

    /// Injected fsync errors: each failed append
    /// commits nothing (rolled back), each successful append is
    /// replayable, and the final log holds exactly the successes.
    #[test]
    fn injected_fsync_errors_commit_nothing(
        vectors in (1usize..4).prop_flat_map(|dim| {
            prop::collection::vec(prop::collection::vec(-1.0e6..1.0e6f64, dim), 2..10)
        }),
        fail_every in 2u64..4,
    ) {
        let _serial = failpoint::test_lock();
        failpoint::clear_all();
        let path = scratch("prop_fsync");
        std::fs::remove_file(&path).ok();

        let mut expected: Vec<u64> = Vec::new();
        {
            let mut wal = WalWriter::open(&path, 0).unwrap();
            for (i, v) in vectors.iter().enumerate() {
                // Deterministically fail every `fail_every`-th fsync.
                let fail_this = (i as u64) % fail_every == fail_every - 1;
                let fp = fail_this.then(|| failpoint::scoped_counted(
                    "wal.fsync",
                    failpoint::Action::Error("EIO".into()),
                    0,
                    Some(1),
                ));
                let record = WalRecord::Ingest { id: i as u64, vector: v.clone() };
                match wal.append(&record) {
                    Ok(()) => {
                        prop_assert!(!fail_this, "armed fsync failure must fail the append");
                        expected.push(i as u64);
                    }
                    Err(e) => {
                        prop_assert!(fail_this, "unexpected failure: {}", e);
                        prop_assert!(matches!(e, StoreError::Io(_)), "got: {}", e);
                    }
                }
                drop(fp);
            }
        }

        let replayed = replay(&path).unwrap();
        prop_assert!(!replayed.truncated, "rollbacks left a clean log");
        let got: Vec<u64> = replayed.records.iter().map(|r| {
            let WalRecord::Ingest { id, .. } = r else { panic!("only Ingest written") };
            *id
        }).collect();
        prop_assert_eq!(got, expected);
        std::fs::remove_file(&path).ok();
    }
}

/// Byte offset where frame `n` would start, by scanning length
/// prefixes — independent of the writer's bookkeeping.
fn ends_before(path: &std::path::Path, n: u64) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_default();
    let mut at = 0u64;
    let mut frames = 0u64;
    while frames < n && (at as usize) + 8 <= bytes.len() {
        let len =
            u32::from_le_bytes(bytes[at as usize..at as usize + 4].try_into().unwrap()) as u64;
        at += 8 + len;
        frames += 1;
    }
    at
}
