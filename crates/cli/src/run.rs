//! `qcluster run <recipe.toml>` — the whole pipeline in one command.
//!
//! Executes the recipe's phases in order, each under its own
//! [`PipelineStats`]:
//!
//! 1. **synth** — render the synthetic corpus to raw PPM files.
//! 2. **ingest** — stream the files through decode → extract → PCA.
//! 3. **build** — seal the reduced vectors into a durable v2 store.
//! 4. **serve** — bind the TCP stack (cluster when `serve.nodes > 1`)
//!    on OS-assigned ports, in-process.
//! 5. **eval** — drive oracle-graded feedback sessions over the wire
//!    *and* through the offline in-process baseline, then gate: served
//!    mean precision must stay within ε of offline at every iteration.
//!
//! `recipes/paper.toml` reproduces the paper's precision-trajectory
//! experiment from raw (synthetic) images with exactly this path.

use crate::build::{build, BuildReport};
use crate::error::CliError;
use crate::eval::{compare_reports, offline_eval, served_eval, EvalReport};
use crate::ingest::{ingest, IngestReport, IngestSource};
use crate::recipe::Recipe;
use crate::serve::{serve, ServeOptions};
use crate::stats::{PipelineStats, StageStats};
use crate::synth::synth_images;
use crate::target::{RouterBackend, SoakBackend, TcpBackend};
use qcluster_net::ClientConfig;
use qcluster_router::{Router, RouterConfig, ShardMap};
use std::path::Path;
use std::sync::Arc;

/// Everything one `qcluster run` produced.
#[derive(Debug)]
pub struct RunReport {
    /// Ingest summary (images, skips, dim, retained variance).
    pub ingest: IngestReport,
    /// Build summary (vectors, segments).
    pub build: BuildReport,
    /// Wire-path eval table.
    pub served: EvalReport,
    /// In-process baseline table.
    pub offline: EvalReport,
    /// The gate that was applied.
    pub epsilon: f64,
    /// Per-phase stage accounting, in execution order:
    /// `(pipeline name, stage snapshots, rendered markdown table)`.
    pub phases: Vec<(String, Vec<StageStats>, String)>,
}

/// Executes `recipe`, staging everything under `workdir` (created if
/// missing; contents for each phase live in `images/`, `features.qdsb`,
/// `store/`).
///
/// # Errors
///
/// Any phase failure, a stats-conservation violation, or the final
/// served-vs-offline quality gate.
pub fn run(recipe: &Recipe, workdir: &Path, progress: bool) -> Result<RunReport, CliError> {
    std::fs::create_dir_all(workdir).map_err(|e| CliError::io(workdir, e))?;
    let mut phases: Vec<(String, Vec<StageStats>, String)> = Vec::new();
    let phase = |name: &str| PipelineStats::new(name).with_progress(progress);
    let record = |phases: &mut Vec<(String, Vec<StageStats>, String)>, stats: &PipelineStats| {
        phases.push((
            stats.pipeline().to_string(),
            stats.snapshot(),
            stats.render_table(),
        ));
    };

    // 1. synth: raw images on disk.
    let images_dir = workdir.join("images");
    let synth_stats = phase("synth");
    let rendered = synth_images(&images_dir, &recipe.corpus, &synth_stats)?;
    record(&mut phases, &synth_stats);
    eprintln!(
        "  [run] synth: {rendered} images -> {}",
        images_dir.display()
    );

    // 2. ingest: files -> reduced feature dataset.
    let features = workdir.join("features.qdsb");
    let ingest_stats = phase("ingest");
    let ingest_report = ingest(
        &IngestSource::Images(images_dir),
        &features,
        &recipe.ingest,
        &ingest_stats,
    )?;
    record(&mut phases, &ingest_stats);
    eprintln!(
        "  [run] ingest: {} vectors x {} dims ({} skipped, {:.0}% variance retained)",
        ingest_report.images,
        ingest_report.dim,
        ingest_report.skipped.len(),
        ingest_report.retained_variance * 100.0
    );

    // 3. build: durable v2 store.
    let store_dir = workdir.join("store");
    let build_stats = phase("build");
    let build_report = build(&features, &store_dir, &build_stats)?;
    record(&mut phases, &build_stats);
    eprintln!(
        "  [run] build: {} vectors sealed into {} segment(s)",
        build_report.vectors, build_report.segments
    );

    // 4. serve: in-process TCP stack.
    let serve_stats = phase("serve");
    let handle = serve(
        &store_dir,
        &ServeOptions {
            nodes: recipe.nodes,
            ..ServeOptions::default()
        },
        &serve_stats,
    )?;
    record(&mut phases, &serve_stats);
    eprintln!(
        "  [run] serve: {} node(s) at {:?}",
        handle.addrs().len(),
        handle.addrs()
    );

    // 5. eval: wire path vs offline baseline, same sampled queries.
    let eval_result = (|| {
        let dataset =
            qcluster_eval::load_dataset(&features).map_err(|e| CliError::stage("eval", e))?;
        let backend: Box<dyn SoakBackend> = if recipe.nodes > 1 {
            let map = ShardMap::new(handle.partitions().to_vec())
                .map_err(|e| CliError::stage("eval", format!("shard map: {e}")))?;
            let router = Router::new(map, RouterConfig::default())
                .map_err(|e| CliError::stage("eval", format!("router: {e}")))?;
            Box::new(RouterBackend::new(Arc::new(router)))
        } else {
            Box::new(
                TcpBackend::connect(handle.addrs()[0], ClientConfig::default())
                    .map_err(|e| CliError::stage("eval", e))?,
            )
        };
        let eval_stats = phase("eval");
        let served = served_eval(&dataset, backend.as_ref(), &recipe.eval, &eval_stats)?;
        let offline = offline_eval(&dataset, &recipe.eval, &eval_stats)?;
        eval_stats.verify_conservation()?;
        Ok::<_, CliError>((served, offline, eval_stats))
    })();
    let (served, offline, eval_stats) = match eval_result {
        Ok(ok) => ok,
        Err(e) => {
            handle.shutdown();
            return Err(e);
        }
    };
    record(&mut phases, &eval_stats);
    handle.shutdown();

    compare_reports(&served, &offline, recipe.epsilon)?;
    Ok(RunReport {
        ingest: ingest_report,
        build: build_report,
        served,
        offline,
        epsilon: recipe.epsilon,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_recipe_runs_end_to_end() {
        let recipe = Recipe::parse(
            "[corpus]\n\
             categories = 6\n\
             images_per_category = 8\n\
             image_size = 12\n\
             categories_per_super = 3\n\
             seed = 5\n\
             [eval]\n\
             k = 8\n\
             rounds = 1\n\
             queries = 6\n\
             epsilon = 0.25\n",
            Path::new("inline.toml"),
        )
        .unwrap();
        let workdir = std::env::temp_dir().join(format!("qcluster-cli-run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&workdir);
        let report = run(&recipe, &workdir, false).unwrap();
        assert_eq!(report.ingest.images, 48);
        assert_eq!(report.build.vectors, 48);
        assert_eq!(report.served.rows.len(), 2);
        assert_eq!(report.offline.rows.len(), 2);
        assert_eq!(report.phases.len(), 5);
        let names: Vec<&str> = report.phases.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["synth", "ingest", "build", "serve", "eval"]);
        let _ = std::fs::remove_dir_all(&workdir);
    }
}
