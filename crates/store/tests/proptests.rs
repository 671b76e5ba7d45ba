//! Property tests for the durable storage layer.
//!
//! The load-bearing invariants:
//!
//! - **WAL prefix truncation**: cut the log at *any* byte boundary —
//!   including mid-header and mid-payload — and replay recovers exactly
//!   the records whose frames fully survived, never panics, and leaves
//!   the log appendable.
//! - **Segment round-trip**: write → reopen returns bitwise-identical
//!   vectors (`f64::to_bits` equality, not epsilon equality).
//! - **Quantized load**: a sealed segment adopted as a `QuantizedScan`
//!   answers two-phase k-NN exactly like its own exact column.
//!
//! CI runs these with `PROPTEST_CASES=256` in the `storage-recovery`
//! job; the default is lighter for local `cargo test`.

use proptest::prelude::*;
use qcluster_index::{EuclideanQuery, QueryDistance, WeightedEuclideanQuery};
use qcluster_store::{
    load_segment_quantized, replay, write_segment, SegmentReader, StoreConfig, StoreError,
    VectorStore, WalRecord, WalWriter, VERSION_V2,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique scratch path per proptest case (cases run sequentially per
/// test, but distinct tests run in parallel threads).
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("qstore_prop_{tag}_{}_{n}", std::process::id()))
}

/// Vectors sharing one dimensionality — ragged sets are invalid input.
fn uniform_vectors(max_n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..6).prop_flat_map(move |dim| {
        prop::collection::vec(prop::collection::vec(-1.0e9..1.0e9f64, dim), 1..max_n)
    })
}

fn assert_bitwise_eq(got: &[Vec<f64>], want: &[Vec<f64>]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(want.iter()) {
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    Ok(())
}

/// Frame sizes of a serialized WAL, by scanning its length prefixes.
/// Independent of the writer's bookkeeping, so the test cross-checks
/// the on-disk layout rather than trusting the implementation.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0usize;
    while at + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let end = at + 8 + len;
        if end > bytes.len() {
            break;
        }
        ends.push(end);
        at = end;
    }
    ends
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Any prefix truncation of a WAL — mid-record included — recovers
    /// exactly the committed prefix: every frame wholly inside the cut
    /// survives, everything after is discarded, and nothing panics.
    #[test]
    fn wal_prefix_truncation_recovers_committed_prefix(
        vectors in uniform_vectors(24),
        cut_fraction in 0.0..1.0f64,
    ) {
        let path = scratch("wal_trunc");
        std::fs::remove_file(&path).ok();
        {
            let mut wal = WalWriter::open(&path, 0).unwrap();
            for (i, v) in vectors.iter().enumerate() {
                wal.append(&WalRecord::Ingest { id: i as u64, vector: v.clone() }).unwrap();
            }
        }

        let bytes = std::fs::read(&path).unwrap();
        let ends = frame_ends(&bytes);
        prop_assert_eq!(ends.len(), vectors.len(), "one frame per record");

        // Cut anywhere in [0, len] — byte-granular, so most cuts land
        // mid-record.
        let cut = ((bytes.len() as f64) * cut_fraction).floor() as usize;
        let cut = cut.min(bytes.len());
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let expected_records = ends.iter().filter(|&&e| e <= cut).count();
        let expected_valid = ends.iter().copied().filter(|&e| e <= cut).max().unwrap_or(0);

        let replayed = replay(&path).unwrap();
        prop_assert_eq!(replayed.records.len(), expected_records);
        prop_assert_eq!(replayed.valid_len, expected_valid as u64);
        prop_assert_eq!(replayed.truncated, expected_valid < cut);
        for (i, record) in replayed.records.iter().enumerate() {
            let WalRecord::Ingest { id, vector } = record else {
                prop_assert!(false, "only Ingest records were written");
                unreachable!()
            };
            prop_assert_eq!(*id, i as u64);
            prop_assert_eq!(vector.len(), vectors[i].len());
            for (a, b) in vector.iter().zip(vectors[i].iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // The healed log accepts new appends and replays them.
        {
            let mut wal = WalWriter::open(&path, replayed.valid_len).unwrap();
            wal.append(&WalRecord::Checkpoint { durable_vectors: 7 }).unwrap();
        }
        let again = replay(&path).unwrap();
        prop_assert_eq!(again.records.len(), expected_records + 1);
        prop_assert!(!again.truncated);
        std::fs::remove_file(&path).ok();
    }

    /// Segment write → reopen returns bitwise-identical vectors, both
    /// through paged reads and `read_all`.
    #[test]
    fn segment_roundtrip_is_bitwise_exact(vectors in uniform_vectors(48)) {
        let path = scratch("seg_roundtrip");
        std::fs::remove_file(&path).ok();
        let dim = vectors[0].len();
        write_segment(&path, dim, &vectors).unwrap();

        let mut reader = SegmentReader::open_with_page_size(&path, 7).unwrap();
        prop_assert_eq!(reader.dim(), dim);
        prop_assert_eq!(reader.count(), vectors.len() as u64);
        let back = reader.read_all().unwrap();
        prop_assert_eq!(back.len(), vectors.len());
        for (a, b) in back.iter().zip(vectors.iter()) {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Full-store crash recovery over format-v2 segments: bootstrap
    /// seals a v2 segment, ingests land in the WAL, and a byte-granular
    /// WAL cut recovers the segment untouched plus exactly the committed
    /// ingest prefix — all bitwise.
    #[test]
    fn v2_store_recovers_segment_plus_committed_wal_prefix(
        base in uniform_vectors(20),
        extra in 1usize..24,
        cut_fraction in 0.0..1.0f64,
    ) {
        let dir = scratch("v2_recovery");
        std::fs::remove_dir_all(&dir).ok();
        let dim = base[0].len();
        let tail: Vec<Vec<f64>> = (0..extra)
            .map(|i| (0..dim).map(|j| ((i * 31 + j * 7) as f64).mul_add(0.37, -4.0)).collect())
            .collect();
        {
            let (mut store, _) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
            store.bootstrap(&base).unwrap();
            for v in &tail {
                store.ingest(v.clone()).unwrap();
            }
        }
        let seg_version = SegmentReader::open(&dir.join("seg-000000.qseg"))
            .unwrap()
            .version();
        prop_assert_eq!(seg_version, VERSION_V2);

        // Cut the WAL anywhere; bootstrap writes no WAL traffic, so
        // every frame is one ingest.
        let wal_path = dir.join("wal.log");
        let bytes = std::fs::read(&wal_path).unwrap();
        let ends = frame_ends(&bytes);
        prop_assert_eq!(ends.len(), tail.len());
        let cut = (((bytes.len() as f64) * cut_fraction).floor() as usize).min(bytes.len());
        std::fs::write(&wal_path, &bytes[..cut]).unwrap();
        let survived = ends.iter().filter(|&&e| e <= cut).count();

        let (_store, recovered) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
        prop_assert_eq!(recovered.segment_vectors, base.len());
        let want: Vec<Vec<f64>> = base
            .iter()
            .chain(tail.iter().take(survived))
            .cloned()
            .collect();
        assert_bitwise_eq(&recovered.vectors, &want)?;
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `load_segment_quantized` over a ragged corpus (the last tile is
/// padded) holding duplicate points: two-phase k-NN returns exactly the
/// exact column's ids and distance bits, with the default rerank window
/// and with a window of `k` (too tight to certify here, so the second
/// round runs). An empty segment is refused.
#[test]
fn quantized_segment_load_answers_like_the_exact_scan() {
    use rand::{Rng, SeedableRng};
    let (n, dim, k) = (203usize, 5usize, 10usize);
    assert_ne!(n % 8, 0, "the corpus must end in a padded tile");
    let mut rng = rand::rngs::StdRng::seed_from_u64(26);
    let mut vectors: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let v = if i % 7 == 6 {
            vectors[i / 2].clone()
        } else {
            (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect()
        };
        vectors.push(v);
    }
    let path = scratch("quantized_load");
    std::fs::remove_file(&path).ok();
    write_segment(&path, dim, &vectors).unwrap();
    let scan = load_segment_quantized(&path).unwrap();
    assert_eq!(scan.len(), n);

    let queries: Vec<Box<dyn QueryDistance>> = vec![
        Box::new(EuclideanQuery::new(vectors[6].clone())),
        Box::new(EuclideanQuery::new(vec![0.5; dim])),
        Box::new(WeightedEuclideanQuery::new(
            vectors[100].clone(),
            vec![2.0, 0.5, 1.0, 0.0, 3.0],
        )),
    ];
    for query in &queries {
        let exact = scan.corpus().knn(query.as_ref(), k);
        for window in [None, Some(k)] {
            let (got, stats) = scan.two_phase_knn(query.as_ref(), k, window);
            assert_eq!(stats.plan_misses, 0, "the query compiles a plan");
            if window.is_some() {
                assert!(stats.second_rounds > 0, "a window of k cannot certify");
            }
            assert_eq!(got.len(), exact.len());
            for (g, e) in got.iter().zip(exact.iter()) {
                assert_eq!(g.id, e.id, "window {window:?}");
                assert_eq!(
                    g.distance.to_bits(),
                    e.distance.to_bits(),
                    "window {window:?}"
                );
            }
        }
    }

    write_segment(&path, dim, &[]).unwrap();
    assert!(matches!(
        load_segment_quantized(&path),
        Err(StoreError::InvalidArg(_))
    ));
    std::fs::remove_file(&path).ok();
}
