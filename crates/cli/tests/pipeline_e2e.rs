//! Golden end-to-end pipeline test: synth → ingest → build → serve →
//! eval, entirely in-process against a temp directory.
//!
//! Checks the three invariants the one-binary pipeline promises:
//!
//! 1. **Robust ingest** — a deliberately truncated file and a zero-byte
//!    file are skipped (typed, counted), never fatal.
//! 2. **Stats conservation** — every stage of every phase satisfies
//!    `items_in == items_out + skipped`.
//! 3. **Wire fidelity** — precision@k measured over the TCP stack
//!    matches the offline in-process baseline within ε = 0.05 at every
//!    feedback iteration.

use qcluster_cli::{
    build, compare_reports, ingest, offline_eval, serve, served_eval, synth_images, EvalOptions,
    IngestConfig, IngestSource, PipelineStats, ServeOptions, SynthImagesConfig,
};
use qcluster_cli::{SoakBackend, TcpBackend};
use qcluster_net::ClientConfig;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

const EPSILON: f64 = 0.05;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qcluster-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Chops a PPM down to half its bytes so the pixel payload is
/// truncated mid-stream.
fn truncate_file(path: &PathBuf) {
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).unwrap();
    file.set_len(bytes.len() as u64 / 2).unwrap();
    file.seek(SeekFrom::Start(0)).unwrap();
    file.flush().unwrap();
}

#[test]
fn pipeline_end_to_end_matches_offline_baseline() {
    let dir = tmp_dir("golden");

    // --- synth: raw PPM corpus on disk --------------------------------
    let corpus = SynthImagesConfig {
        categories: 8,
        images_per_category: 10,
        image_size: 14,
        categories_per_super: 4,
        seed: 11,
    };
    let images = dir.join("images");
    let synth_stats = PipelineStats::new("synth");
    let rendered = synth_images(&images, &corpus, &synth_stats).unwrap();
    assert_eq!(rendered, 80);
    synth_stats.verify_conservation().unwrap();

    // --- sabotage: one truncated file, one zero-byte file -------------
    truncate_file(&images.join("img000003.ppm"));
    std::fs::write(images.join("img000017.ppm"), b"").unwrap();

    // --- ingest: decode -> extract -> PCA, skipping the corrupt pair --
    let features = dir.join("features.qdsb");
    let ingest_stats = PipelineStats::new("ingest");
    let report = ingest(
        &IngestSource::Images(images),
        &features,
        &IngestConfig::default(),
        &ingest_stats,
    )
    .unwrap();
    assert_eq!(report.images, 78, "80 rendered - 2 corrupt");
    assert_eq!(report.skipped.len(), 2);
    let reasons: Vec<String> = report.skipped.iter().map(|s| s.to_string()).collect();
    assert!(
        reasons.iter().any(|r| r.contains("img000003.ppm")),
        "truncated file named in: {reasons:?}"
    );
    assert!(
        reasons.iter().any(|r| r.contains("zero-byte")),
        "empty file typed in: {reasons:?}"
    );
    ingest_stats.verify_conservation().unwrap();
    let decode = ingest_stats
        .snapshot()
        .into_iter()
        .find(|s| s.stage == "decode")
        .unwrap();
    assert_eq!(decode.items_in, 80);
    assert_eq!(decode.items_out, 78);
    assert_eq!(decode.skipped, 2);

    // --- build: seal into the durable store ---------------------------
    let store = dir.join("store");
    let build_stats = PipelineStats::new("build");
    let built = build(&features, &store, &build_stats).unwrap();
    assert_eq!(built.vectors, 78);
    assert!(built.segments >= 1);
    build_stats.verify_conservation().unwrap();

    // --- serve: real TCP stack on an OS-assigned port ------------------
    let serve_stats = PipelineStats::new("serve");
    let handle = serve(&store, &ServeOptions::default(), &serve_stats).unwrap();
    serve_stats.verify_conservation().unwrap();

    // --- eval: feedback sessions over the wire vs offline --------------
    let opts = EvalOptions {
        k: 10,
        rounds: 2,
        queries: 12,
        seed: 17,
    };
    let dataset = qcluster_eval::load_dataset(&features).unwrap();
    let eval_stats = PipelineStats::new("eval");
    let backend: Box<dyn SoakBackend> =
        Box::new(TcpBackend::connect(handle.addrs()[0], ClientConfig::default()).unwrap());
    let served = served_eval(&dataset, backend.as_ref(), &opts, &eval_stats).unwrap();
    let offline = offline_eval(&dataset, &opts, &eval_stats).unwrap();
    eval_stats.verify_conservation().unwrap();
    handle.shutdown();

    // Full trajectory: initial query + 2 feedback rounds, and feedback
    // must not collapse precision.
    assert_eq!(served.rows.len(), 3);
    assert_eq!(offline.rows.len(), 3);
    for row in &offline.rows {
        assert!(row.mean_precision > 0.0 && row.mean_precision <= 1.0);
    }
    assert!(
        offline.rows[2].mean_precision >= offline.rows[0].mean_precision - 0.1,
        "feedback regressed: {:?}",
        offline.rows
    );

    // The golden gate: the wire path reproduces the offline baseline.
    compare_reports(&served, &offline, EPSILON).unwrap_or_else(|e| {
        panic!("served diverged from offline: {e}\nserved: {served:?}\noffline: {offline:?}")
    });

    let _ = std::fs::remove_dir_all(&dir);
}
