//! `dataset-tool` — prepare, save, inspect, and query the experiment
//! datasets without re-rendering the corpus every run.
//!
//! ```text
//! dataset-tool build   <out.json> [--texture] [--semantic-gap] [--paper-scale]
//! dataset-tool info    <file.json>
//! dataset-tool query   <file.json> <image-id> [k]
//! dataset-tool render  <category> <index> <out.ppm> [--paper-scale]
//! dataset-tool stats   <file.json> [k]
//! ```
//!
//! `build` renders the corpus (or generates the semantic-gap workload),
//! extracts features, and saves the prepared dataset; `info` prints its
//! shape; `query` runs one k-NN search and prints the ranked result with
//! ground-truth annotations. Format conversion and synthetic segments
//! are `qcluster convert` / `qcluster synth` (`crates/cli`).

use qcluster_bench::{image_dataset, semantic_gap_dataset, Scale};
use qcluster_eval::{load_dataset, save_dataset, RelevanceOracle};
use qcluster_imaging::FeatureKind;
use qcluster_index::EuclideanQuery;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("usage: dataset-tool <build|info|stats|query|render> ...");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "build" => build(&args[1..]),
        "info" => info(&args[1..]),
        "query" => query(&args[1..]),
        "render" => render(&args[1..]),
        "stats" => stats(&args[1..]),
        other => Err(format!("unknown command: {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn stats(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("stats needs a file path")?;
    let k: usize = args
        .get(1)
        .map_or(Ok(50), |s| s.parse())
        .map_err(|_| "k must be an integer")?;
    let dataset = load_dataset(Path::new(path)).map_err(|e| e.to_string())?;
    let d = qcluster_eval::diagnostics::analyze(&dataset, k.min(dataset.len()));
    println!("categories            : {}", d.categories.len());
    println!("mean within-spread    : {:.4}", d.mean_within);
    println!("mean between-centroid : {:.4}", d.mean_between);
    println!("separation ratio      : {:.2}", d.separation_ratio());
    println!("k-NN reach (k={})     : {:.4}", d.reach_k, d.knn_reach);
    println!(
        "multimodal fraction   : {:.2} (bimodality ≥ 4)",
        d.multimodal_fraction()
    );
    println!();
    println!(
        "{:<10} {:>12} {:>14} {:>12}",
        "category", "within", "nearest-other", "bimodality"
    );
    for row in d.categories.iter().take(20) {
        println!(
            "{:<10} {:>12.4} {:>14.4} {:>12.2}",
            row.category, row.within_spread, row.nearest_other_centroid, row.bimodality
        );
    }
    if d.categories.len() > 20 {
        println!("… ({} more)", d.categories.len() - 20);
    }
    Ok(())
}

fn render(args: &[String]) -> Result<(), String> {
    let category: usize = args
        .first()
        .ok_or("render needs a category")?
        .parse()
        .map_err(|_| "category must be an integer")?;
    let index: usize = args
        .get(1)
        .ok_or("render needs an image index")?
        .parse()
        .map_err(|_| "index must be an integer")?;
    let out = args.get(2).ok_or("render needs an output path")?;
    let corpus = qcluster_bench::image_corpus(Scale::from_args(args));
    if category >= corpus.num_categories() {
        return Err(format!(
            "category {category} out of range ({} categories)",
            corpus.num_categories()
        ));
    }
    if index >= corpus.images_per_category() {
        return Err(format!(
            "index {index} out of range ({} per category)",
            corpus.images_per_category()
        ));
    }
    let img = corpus.render(category, index);
    let file = std::fs::File::create(out).map_err(|e| e.to_string())?;
    img.write_ppm(std::io::BufWriter::new(file))
        .map_err(|e| e.to_string())?;
    println!(
        "rendered category {category} image {index} ({}x{}, palette mode {}) to {out}",
        img.width(),
        img.height(),
        corpus.mode_of(category, index)
    );
    Ok(())
}

fn build(args: &[String]) -> Result<(), String> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("build needs an output path")?;
    let scale = Scale::from_args(args);
    let dataset = if args.iter().any(|a| a == "--semantic-gap") {
        semantic_gap_dataset(scale)
    } else if args.iter().any(|a| a == "--texture") {
        image_dataset(scale, FeatureKind::CooccurrenceTexture)
    } else {
        image_dataset(scale, FeatureKind::ColorMoments)
    };
    save_dataset(&dataset, Path::new(path)).map_err(|e| e.to_string())?;
    println!(
        "saved {} vectors x {} dims to {path}",
        dataset.len(),
        dataset.dim()
    );
    Ok(())
}

fn info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("info needs a file path")?;
    let dataset = load_dataset(Path::new(path)).map_err(|e| e.to_string())?;
    let categories = dataset.len() / dataset.images_per_category();
    println!("images              : {}", dataset.len());
    println!("feature dims        : {}", dataset.dim());
    println!("categories          : {categories}");
    println!("images per category : {}", dataset.images_per_category());
    println!("index nodes         : {}", dataset.tree().num_nodes());
    println!("index leaf capacity : {}", dataset.tree().leaf_capacity());
    Ok(())
}

fn query(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("query needs a file path")?;
    let id: usize = args
        .get(1)
        .ok_or("query needs an image id")?
        .parse()
        .map_err(|_| "image id must be an integer")?;
    let k: usize = args
        .get(2)
        .map_or(Ok(10), |s| s.parse())
        .map_err(|_| "k must be an integer")?;
    let dataset = load_dataset(Path::new(path)).map_err(|e| e.to_string())?;
    if id >= dataset.len() {
        return Err(format!(
            "image id {id} out of range (dataset has {})",
            dataset.len()
        ));
    }
    let oracle = RelevanceOracle::new(&dataset);
    let cat = dataset.category(id);
    let q = EuclideanQuery::new(dataset.vector(id).to_vec());
    let (results, stats) = dataset.tree().knn(&q, k, None);
    println!(
        "query image {id} (category {cat}); {} node accesses",
        stats.nodes_accessed
    );
    println!(
        "{:<6} {:>6} {:>12} {:>10} {:>9}",
        "rank", "id", "distance", "category", "grade"
    );
    for (rank, n) in results.iter().enumerate() {
        let grade = oracle.score(cat, n.id);
        println!(
            "{:<6} {:>6} {:>12.5} {:>10} {:>9}",
            rank + 1,
            n.id,
            n.distance,
            dataset.category(n.id),
            grade
        );
    }
    Ok(())
}
