//! `qcluster` — the one-binary pipeline front-end.
//!
//! ```text
//! qcluster synth   <out-dir|out.qseg> [flags]      render a corpus (or a raw segment)
//! qcluster ingest  <images-dir> <out.qdsb> [flags] files -> reduced feature dataset
//! qcluster build   <features> <store-dir>          seal features into a durable store
//! qcluster serve   <store-dir> [flags]             bind the TCP retrieval stack
//! qcluster eval    <features> [flags]              grade feedback quality (wire/offline)
//! qcluster run     <recipe.toml> [flags]           the whole pipeline from one recipe
//! qcluster repro   <experiment>... [flags]         the paper's tables and figures
//! qcluster soak    [flags]                         closed-loop user-fleet soak
//! ```
//!
//! All heavy lifting lives in the `qcluster_cli` library so the same
//! paths are covered in-process by `tests/pipeline_e2e.rs`.

use qcluster_cli::{
    build, compare_reports, ingest, offline_eval, parse_feature_kind, run, serve, served_eval,
    synth_images, synth_segment, CliError, EvalOptions, IngestConfig, IngestSource, PipelineStats,
    Recipe, ServeOptions, SynthImagesConfig, TcpBackend,
};
use qcluster_net::ClientConfig;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

mod repro;
mod soak;

const USAGE: &str = "usage: qcluster <synth|ingest|build|serve|eval|run|repro|soak> ...\n\
  synth   <out-dir> [--categories N] [--images-per-category N] [--image-size N]\n\
          [--categories-per-super N] [--seed N]\n\
  synth   <out.qseg> <n> <dim> [--centers G] [--seed S]\n\
  ingest  <images-dir> <out.qdsb> [--features color|texture|histogram|layout]\n\
          [--workers N] [--progress]\n\
  build   <features> <store-dir> [--progress]\n\
  serve   <store-dir> [--nodes N] [--max-connections N] [--max-sessions N]\n\
          [--scrape-json PATH] [--scrape-interval-secs S]\n\
  eval    <features> [--addr HOST:PORT] [--k N] [--rounds N] [--queries N]\n\
          [--seed N] [--epsilon F] [--json] [--progress]\n\
  run     <recipe.toml> [--workdir DIR] [--json] [--progress]\n\
  repro   <fig5..fig19|table2|table3|headline|ablation|all>... [--paper-scale] [--csv DIR]\n\
  soak    [--smoke] [--cluster] [--users N] [--sessions N] [--iterations N] [--k N]\n\
          [--think-ms MS] [--abandon-per-mille N] [--ingest-rate N] [--deadline-ms MS]\n\
          [--seed N] [--out PATH] [--scrape HOST:PORT]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "synth" => cmd_synth(&args[1..]),
        "ingest" => cmd_ingest(&args[1..]),
        "build" => cmd_build(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "eval" => cmd_eval(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "repro" => repro::cmd_repro(&args[1..]),
        "soak" => soak::cmd_soak(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command: {other}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed command line: positionals plus `--flag[ value]` options.
struct Parsed {
    positionals: Vec<String>,
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Parsed {
    fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn parse_value<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.parse_opt(name)?.unwrap_or(default))
    }

    fn parse_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.value(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| CliError::Usage(format!("--{name} got an invalid value: {raw}")))
            })
            .transpose()
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn positional(&self, index: usize, what: &str) -> Result<&str, CliError> {
        self.positionals
            .get(index)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing {what}")))
    }
}

/// Splits `args` into positionals, `--name value` options (for names in
/// `value_flags`), and bare `--name` switches (for names in `switches`).
/// Anything else starting with `--` is a usage error.
fn parse_args(
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<Parsed, CliError> {
    let mut parsed = Parsed {
        positionals: Vec::new(),
        values: BTreeMap::new(),
        switches: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(name) = arg.strip_prefix("--") {
            if value_flags.contains(&name) {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage(format!("--{name} needs a value")))?;
                parsed.values.insert(name.to_string(), value.clone());
                i += 2;
                continue;
            }
            if switches.contains(&name) {
                parsed.switches.push(name.to_string());
                i += 1;
                continue;
            }
            return Err(CliError::Usage(format!("unknown flag: --{name}")));
        }
        parsed.positionals.push(arg.clone());
        i += 1;
    }
    Ok(parsed)
}

fn stats_for(name: &str, parsed: &Parsed) -> PipelineStats {
    PipelineStats::new(name).with_progress(parsed.switch("progress"))
}

fn cmd_synth(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_args(
        args,
        &[
            "categories",
            "images-per-category",
            "image-size",
            "categories-per-super",
            "seed",
            "centers",
        ],
        &["progress"],
    )?;
    let out = PathBuf::from(parsed.positional(0, "output path")?);
    if out.extension().and_then(|e| e.to_str()) == Some("qseg") {
        let n: u64 = parsed
            .positional(1, "vector count <n>")?
            .parse()
            .map_err(|_| CliError::Usage("n must be an integer".into()))?;
        let dim: usize = parsed
            .positional(2, "dimensionality <dim>")?
            .parse()
            .map_err(|_| CliError::Usage("dim must be an integer".into()))?;
        let centers = parsed.parse_value("centers", 16usize)?;
        let seed = parsed.parse_value("seed", 42u64)?;
        let stats = stats_for("synth", &parsed);
        let seal = stats.stage("seal");
        seal.items_in(n);
        let sealed = synth_segment(&out, n, dim, centers, seed)?;
        seal.items_out(sealed);
        seal.add_bytes(std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0));
        seal.finish();
        println!(
            "sealed {sealed} x {dim} synthetic vectors ({centers} centers, seed {seed}) to {}",
            out.display()
        );
        print!("{}", stats.render_table());
        return Ok(());
    }
    let config = SynthImagesConfig {
        categories: parsed.parse_value("categories", SynthImagesConfig::default().categories)?,
        images_per_category: parsed.parse_value(
            "images-per-category",
            SynthImagesConfig::default().images_per_category,
        )?,
        image_size: parsed.parse_value("image-size", SynthImagesConfig::default().image_size)?,
        categories_per_super: parsed.parse_value(
            "categories-per-super",
            SynthImagesConfig::default().categories_per_super,
        )?,
        seed: parsed.parse_value("seed", SynthImagesConfig::default().seed)?,
    };
    let stats = stats_for("synth", &parsed);
    let rendered = synth_images(&out, &config, &stats)?;
    println!(
        "rendered {rendered} images ({} categories x {}) to {}",
        config.categories,
        config.images_per_category,
        out.display()
    );
    print!("{}", stats.render_table());
    Ok(())
}

fn cmd_ingest(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_args(args, &["features", "workers"], &["progress"])?;
    let images = PathBuf::from(parsed.positional(0, "images directory")?);
    let out = PathBuf::from(parsed.positional(1, "output features path")?);
    let config = IngestConfig {
        features: match parsed.value("features") {
            Some(name) => parse_feature_kind(name)?,
            None => IngestConfig::default().features,
        },
        workers: parsed.parse_value("workers", 0usize)?,
    };
    let stats = stats_for("ingest", &parsed);
    let report = ingest(&IngestSource::Images(images), &out, &config, &stats)?;
    println!(
        "ingested {} images -> {} dims ({} skipped, {:.0}% variance retained) to {}",
        report.images,
        report.dim,
        report.skipped.len(),
        report.retained_variance * 100.0,
        out.display()
    );
    print!("{}", stats.render_table());
    Ok(())
}

fn cmd_build(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_args(args, &[], &["progress"])?;
    let features = PathBuf::from(parsed.positional(0, "features path")?);
    let store = PathBuf::from(parsed.positional(1, "store directory")?);
    let stats = stats_for("build", &parsed);
    let report = build(&features, &store, &stats)?;
    println!(
        "sealed {} vectors x {} dims into {} segment(s) at {}",
        report.vectors,
        report.dim,
        report.segments,
        store.display()
    );
    print!("{}", stats.render_table());
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_args(
        args,
        &[
            "nodes",
            "max-connections",
            "max-sessions",
            "scrape-json",
            "scrape-interval-secs",
        ],
        &["progress"],
    )?;
    let store = PathBuf::from(parsed.positional(0, "store directory")?);
    let defaults = ServeOptions::default();
    let opts = ServeOptions {
        nodes: parsed.parse_value("nodes", defaults.nodes)?,
        max_connections: parsed.parse_value("max-connections", defaults.max_connections)?,
        max_sessions: parsed.parse_value("max-sessions", defaults.max_sessions)?,
        scrape_json: parsed.value("scrape-json").map(PathBuf::from),
        scrape_interval: Duration::from_secs(
            parsed.parse_value("scrape-interval-secs", defaults.scrape_interval.as_secs())?,
        ),
    };
    let stats = stats_for("serve", &parsed);
    let handle = serve(&store, &opts, &stats)?;
    for (i, (addr, part)) in handle.addrs().iter().zip(handle.partitions()).enumerate() {
        println!("node {i}: listening on {addr}, id_base {}", part.id_base);
    }
    if let Some(path) = &opts.scrape_json {
        println!(
            "scraping metrics to {} every {:?}",
            path.display(),
            opts.scrape_interval
        );
    }
    print!("{}", stats.render_table());
    println!("serving; interrupt to stop");
    // Park until the process is killed; the OS reclaims everything.
    loop {
        std::thread::sleep(Duration::from_secs(60));
    }
}

/// `qcluster eval`'s command line, checked whole before the dataset
/// loads or anything connects.
struct EvalArgs {
    parsed: Parsed,
    features: PathBuf,
    opts: EvalOptions,
    addr: Option<SocketAddr>,
    epsilon: Option<f64>,
}

fn parse_eval(args: &[String]) -> Result<EvalArgs, CliError> {
    let parsed = parse_args(
        args,
        &["addr", "k", "rounds", "queries", "seed", "epsilon"],
        &["json", "progress"],
    )?;
    let features = PathBuf::from(parsed.positional(0, "features path")?);
    let defaults = EvalOptions::default();
    let opts = EvalOptions {
        k: parsed.parse_value("k", defaults.k)?,
        rounds: parsed.parse_value("rounds", defaults.rounds)?,
        queries: parsed.parse_value("queries", defaults.queries)?,
        seed: parsed.parse_value("seed", defaults.seed)?,
    };
    let epsilon = parsed.parse_opt("epsilon")?;
    opts.check(epsilon, "--").map_err(CliError::Usage)?;
    let addr = parsed
        .value("addr")
        .map(|addr| {
            addr.parse()
                .map_err(|e| CliError::Usage(format!("--addr {addr}: {e}")))
        })
        .transpose()?;
    Ok(EvalArgs {
        parsed,
        features,
        opts,
        addr,
        epsilon,
    })
}

fn cmd_eval(args: &[String]) -> Result<(), CliError> {
    let EvalArgs {
        parsed,
        features,
        opts,
        addr,
        epsilon,
    } = parse_eval(args)?;
    let dataset = qcluster_eval::load_dataset(&features).map_err(|e| CliError::stage("eval", e))?;
    let stats = stats_for("eval", &parsed);
    let offline = offline_eval(&dataset, &opts, &stats)?;
    let served = match addr {
        Some(addr) => {
            let backend = TcpBackend::connect(addr, ClientConfig::default())
                .map_err(|e| CliError::stage("eval", e))?;
            Some(served_eval(&dataset, &backend, &opts, &stats)?)
        }
        None => None,
    };
    stats.verify_conservation()?;
    if parsed.switch("json") {
        let mut doc = vec![("offline".to_string(), json_value(&offline)?)];
        if let Some(served) = &served {
            doc.push(("served".to_string(), json_value(served)?));
        }
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::Value::Map(doc))
                .map_err(|e| CliError::stage("eval", e.to_string()))?
        );
    } else {
        println!("offline baseline:");
        print!("{}", offline.render_markdown());
        if let Some(served) = &served {
            println!("served (over the wire):");
            print!("{}", served.render_markdown());
        }
        print!("{}", stats.render_table());
    }
    if let (Some(served), Some(epsilon)) = (&served, epsilon) {
        compare_reports(served, &offline, epsilon)?;
        println!("quality gate passed: served within {epsilon} of offline at every iteration");
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_args(args, &["workdir"], &["json", "progress"])?;
    let recipe_path = PathBuf::from(parsed.positional(0, "recipe path")?);
    let recipe = Recipe::load(&recipe_path)?;
    let workdir = match parsed.value("workdir") {
        Some(dir) => PathBuf::from(dir),
        None => default_workdir(&recipe_path),
    };
    let report = run(&recipe, &workdir, parsed.switch("progress"))?;
    if parsed.switch("json") {
        let doc = vec![
            ("served".to_string(), json_value(&report.served)?),
            ("offline".to_string(), json_value(&report.offline)?),
            (
                "epsilon".to_string(),
                serde_json::Value::F64(report.epsilon),
            ),
        ];
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::Value::Map(doc))
                .map_err(|e| CliError::stage("run", e.to_string()))?
        );
        return Ok(());
    }
    println!();
    for (name, _, table) in &report.phases {
        println!("phase `{name}`:");
        print!("{table}");
    }
    println!();
    println!("served (over the wire):");
    print!("{}", report.served.render_markdown());
    println!("offline baseline:");
    print!("{}", report.offline.render_markdown());
    println!(
        "quality gate passed: served within {} of offline at every iteration",
        report.epsilon
    );
    Ok(())
}

/// Round-trips any `Serialize` value into the vendored JSON `Value`
/// tree so reports can be composed into one output document.
fn json_value<T: serde::Serialize>(value: &T) -> Result<serde_json::Value, CliError> {
    let text = serde_json::to_string(value).map_err(|e| CliError::stage("json", e.to_string()))?;
    serde_json::from_str(&text).map_err(|e| CliError::stage("json", e.to_string()))
}

/// `recipes/paper.toml` stages under `target/run/paper/` by default.
fn default_workdir(recipe_path: &Path) -> PathBuf {
    let stem = recipe_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("recipe");
    PathBuf::from("target").join("run").join(stem)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage_error(args: &str) -> String {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        match parse_eval(&args) {
            Err(CliError::Usage(msg)) => msg,
            _ => panic!("`{args:?}` should be a usage error"),
        }
    }

    /// The features path does not exist: a usage error must come back
    /// before anything tries to load it.
    #[test]
    fn eval_flag_misuse_is_a_usage_error_before_the_dataset_loads() {
        assert!(usage_error("missing.qdsb --k 0").contains("--k"));
        assert!(usage_error("missing.qdsb --queries 0").contains("--queries"));
        for epsilon in ["nan", "-1", "0", "1.5", "inf"] {
            let msg = usage_error(&format!("missing.qdsb --epsilon {epsilon}"));
            assert!(msg.contains("--epsilon"), "{epsilon}: {msg}");
        }
        assert!(usage_error("missing.qdsb --addr nowhere").contains("--addr"));
        let ok = parse_eval(&["missing.qdsb".into(), "--epsilon".into(), "1".into()]).unwrap();
        assert_eq!((ok.opts, ok.epsilon), (EvalOptions::default(), Some(1.0)));
    }
}
