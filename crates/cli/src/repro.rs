//! `qcluster repro` — regenerates every table and figure of the Qcluster
//! paper.
//!
//! ```text
//! qcluster repro <experiment>... [--paper-scale] [--csv DIR]
//!
//! experiments:
//!   fig5     disjunctive query on the uniform cube (Example 3)
//!   fig6     CPU time: inverse vs diagonal covariance scheme
//!   fig7     execution cost of the three approaches
//!   fig8     P–R per iteration, color moments
//!   fig9     P–R per iteration, co-occurrence texture
//!   fig10    recall per iteration, three approaches, color feature
//!   fig11    recall per iteration, three approaches, texture feature
//!   fig12    precision per iteration, three approaches, color feature
//!   fig13    precision per iteration, three approaches, texture feature
//!   fig14    classification error, inverse matrix, spherical clusters
//!   fig15    classification error, inverse matrix, elliptical clusters
//!   fig16    classification error, diagonal matrix, spherical clusters
//!   fig17    classification error, diagonal matrix, elliptical clusters
//!   fig18    Q–Q plot of T² vs c², inverse matrix
//!   fig19    Q–Q plot of T² vs c², diagonal matrix
//!   table2   T² accuracy, same-mean pairs
//!   table3   T² accuracy, different-mean pairs
//!   headline recall/precision comparison on the semantic-gap workload
//!   ablation design-choice quality ablations (aggregate rule, scheme,
//!            merge forcing)
//!   all      everything above (also the default)
//!
//! options:
//!   --paper-scale   run at the paper's workload sizes
//!   --csv DIR       additionally write each experiment's data series as
//!                   CSV files into DIR (for external plotting)
//! ```
//!
//! Every experiment name is checked before any experiment runs.

use crate::parse_args;
use qcluster_cli::{CliError, SynthImagesConfig};
use qcluster_core::CovarianceScheme;
use qcluster_eval::experiments::fig6::Fig6Config;
use qcluster_eval::experiments::*;
use qcluster_eval::synthetic::{ClusterShape, SemanticGapConfig};
use qcluster_eval::Dataset;
use qcluster_imaging::{Corpus, CorpusBuilder, FeatureKind};
use qcluster_stats::hotelling::PooledScheme;
use std::path::PathBuf;

/// Workload scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    /// Scaled-down parameters (fast; same shapes).
    Quick,
    /// The paper's parameters (`--paper-scale`).
    Paper,
}

/// An experiment's name and what runs it.
type Experiment = (&'static str, fn(&Repro) -> Result<(), CliError>);

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 19] = [
    ("fig5", Repro::fig5),
    ("fig6", Repro::fig6),
    ("fig7", Repro::fig7),
    ("fig8", |r| r.fig89(FeatureKind::ColorMoments, "Figure 8")),
    ("fig9", |r| {
        r.fig89(FeatureKind::CooccurrenceTexture, "Figure 9")
    }),
    ("fig10", |r| {
        r.fig1013(FeatureKind::ColorMoments, true, "Figure 10")
    }),
    ("fig11", |r| {
        r.fig1013(FeatureKind::CooccurrenceTexture, true, "Figure 11")
    }),
    ("fig12", |r| {
        r.fig1013(FeatureKind::ColorMoments, false, "Figure 12")
    }),
    ("fig13", |r| {
        r.fig1013(FeatureKind::CooccurrenceTexture, false, "Figure 13")
    }),
    ("fig14", |r| {
        r.fig1417(
            ClusterShape::Spherical,
            CovarianceScheme::default_full(),
            "Figure 14 (inverse matrix, spherical)",
        )
    }),
    ("fig15", |r| {
        r.fig1417(
            ClusterShape::Elliptical,
            CovarianceScheme::default_full(),
            "Figure 15 (inverse matrix, elliptical)",
        )
    }),
    ("fig16", |r| {
        r.fig1417(
            ClusterShape::Spherical,
            CovarianceScheme::default_diagonal(),
            "Figure 16 (diagonal matrix, spherical)",
        )
    }),
    ("fig17", |r| {
        r.fig1417(
            ClusterShape::Elliptical,
            CovarianceScheme::default_diagonal(),
            "Figure 17 (diagonal matrix, elliptical)",
        )
    }),
    ("fig18", |r| {
        r.fig1819(PooledScheme::FullInverse, "Figure 18")
    }),
    ("fig19", |r| r.fig1819(PooledScheme::Diagonal, "Figure 19")),
    ("table2", |r| {
        r.table23(table2_3::MeanHypothesis::Same, "Table 2")
    }),
    ("table3", |r| {
        r.table23(table2_3::MeanHypothesis::Different, "Table 3")
    }),
    ("headline", Repro::headline),
    ("ablation", Repro::ablation),
];

/// One `qcluster repro` invocation: the scale and where CSVs go.
struct Repro {
    scale: Scale,
    csv: Option<PathBuf>,
}

/// `qcluster repro <experiment>... [--paper-scale] [--csv DIR]`.
pub fn cmd_repro(args: &[String]) -> Result<(), CliError> {
    let (repro, wanted) = parse(args)?;
    if let Some(dir) = &repro.csv {
        std::fs::create_dir_all(dir).map_err(|e| CliError::io(dir, e))?;
    }
    println!("# Qcluster paper reproduction — scale: {:?}\n", repro.scale);
    for (_, run) in wanted {
        run(&repro)?;
    }
    Ok(())
}

/// Parses the command line and resolves every experiment name, so a
/// typo fails before anything runs. No name, or `all`, means all.
fn parse(args: &[String]) -> Result<(Repro, Vec<Experiment>), CliError> {
    let parsed = parse_args(args, &["csv"], &["paper-scale"])?;
    let mut all = parsed.positionals.is_empty();
    let mut wanted = Vec::new();
    for name in &parsed.positionals {
        if name == "all" {
            all = true;
            continue;
        }
        let experiment = EXPERIMENTS
            .iter()
            .find(|(known, _)| known == name)
            .ok_or_else(|| CliError::Usage(format!("unknown experiment: {name}")))?;
        wanted.push(*experiment);
    }
    if all {
        wanted = EXPERIMENTS.to_vec();
    }
    let repro = Repro {
        scale: if parsed.switch("paper-scale") {
            Scale::Paper
        } else {
            Scale::Quick
        },
        csv: parsed.value("csv").map(PathBuf::from),
    };
    Ok((repro, wanted))
}

/// The synthetic image corpus (the Corel-collection substitute).
///
/// Paper scale: 200 categories × 100 images = 20,000 images. The paper's
/// collection had 300 categories, but its real photos discriminate
/// categories through far richer structure than 3 PCA'd color dims can
/// carry for procedural palettes; past ~200 synthetic categories the
/// color feature saturates and every method floors together (see
/// EXPERIMENTS.md). Quick scale: 60 × 20 = 1,200, the corpus `qcluster
/// synth` renders by default.
fn image_corpus(scale: Scale) -> Corpus {
    match scale {
        Scale::Quick => SynthImagesConfig::default().corpus(),
        Scale::Paper => CorpusBuilder::new()
            .categories(200)
            .images_per_category(100)
            .image_size(32)
            .categories_per_super(5)
            .multimodal_fraction(0.4)
            .jitter(0.35)
            .seed(7)
            .build(),
    }
}

/// The image-feature dataset for a given feature kind.
fn image_dataset(scale: Scale, kind: FeatureKind) -> Dataset {
    Dataset::from_corpus(&image_corpus(scale), kind).expect("feature pipeline builds")
}

/// The semantic-gap retrieval workload (headline comparison dataset).
///
/// The disjunctive-query phenomenon depends on data DENSITY (DESIGN.md §4
/// and `SemanticGapConfig` docs), so even the quick scale keeps the point
/// count high enough (7,500) that the in-between region of a category's
/// modes contains competing images.
fn semantic_gap_dataset(scale: Scale) -> Dataset {
    let config = match scale {
        Scale::Quick => SemanticGapConfig {
            categories: 150,
            ..SemanticGapConfig::default()
        },
        Scale::Paper => SemanticGapConfig::default(),
    };
    Dataset::semantic_gap(&config)
}

/// The retrieval workload for the headline (semantic-gap) comparison —
/// k is fixed to the category size (the paper sets k = 100 with ~100
/// images per category).
fn headline_workload(scale: Scale) -> Fig6Config {
    Fig6Config {
        num_queries: match scale {
            Scale::Quick => 25,
            Scale::Paper => 100,
        },
        iterations: 5,
        k: 50,
        seed: 17,
    }
}

/// The retrieval workload shape (queries × iterations × k) per scale.
fn workload(scale: Scale) -> Fig6Config {
    match scale {
        Scale::Quick => Fig6Config {
            num_queries: 15,
            iterations: 3,
            k: 30,
            seed: 17,
        },
        Scale::Paper => Fig6Config::paper_scale(),
    }
}

impl Repro {
    /// Writes one CSV file into the `--csv` directory (no-op without it).
    fn write_csv(&self, name: &str, header: &str, rows: &[String]) -> Result<(), CliError> {
        let Some(dir) = &self.csv else {
            return Ok(());
        };
        let path = dir.join(name);
        let mut text = format!("{header}\n");
        for r in rows {
            text.push_str(r);
            text.push('\n');
        }
        std::fs::write(&path, text).map_err(|e| CliError::io(&path, e))?;
        println!("(wrote {})", path.display());
        Ok(())
    }

    fn fig5(&self) -> Result<(), CliError> {
        println!("## Figure 5 — disjunctive query on synthetic uniform data\n");
        let cfg = match self.scale {
            Scale::Quick => fig5::Fig5Config::default(),
            Scale::Paper => fig5::Fig5Config::paper_scale(),
        };
        let r = fig5::run(&cfg);
        println!("points in either unit ball : {}", r.in_or_region);
        println!(
            "top-N aggregate overlap    : {:.1}% (N = region size)",
            100.0 * r.overlap_fraction
        );
        let ball0 = r.retrieved.iter().filter(|(_, b)| *b == 0).count();
        let ball1 = r.retrieved.iter().filter(|(_, b)| *b == 1).count();
        println!("retrieved near (-1,-1,-1)  : {ball0}");
        println!("retrieved near ( 1, 1, 1)  : {ball1}");
        println!("(paper: 820 of 10,000 points retrieved, both balls populated)\n");
        Ok(())
    }

    fn fig6(&self) -> Result<(), CliError> {
        println!("## Figure 6 — CPU time per iteration, inverse vs diagonal scheme (color)\n");
        let ds = image_dataset(self.scale, FeatureKind::ColorMoments);
        let rows = fig6::run(&ds, &workload(self.scale));
        println!(
            "{:<10} {:>14} {:>14} {:>8}",
            "iteration", "diagonal(µs)", "inverse(µs)", "ratio"
        );
        for row in rows {
            let d = row.diagonal.as_micros() as f64;
            let i = row.inverse.as_micros() as f64;
            println!(
                "{:<10} {:>14.0} {:>14.0} {:>8.2}",
                row.iteration,
                d,
                i,
                i / d.max(1.0)
            );
        }
        println!("(paper: diagonal scheme significantly cheaper — ratio > 1 expected)\n");
        Ok(())
    }

    fn fig7(&self) -> Result<(), CliError> {
        println!("## Figure 7 — execution cost of the three approaches\n");
        let ds = image_dataset(self.scale, FeatureKind::ColorMoments);
        let costs = fig7::run(&ds, &workload(self.scale));
        println!("mean simulated disk reads per iteration:");
        print!("{:<10}", "iter");
        for c in &costs {
            print!("{:>12}", c.name);
        }
        println!();
        for i in 0..costs[0].disk_reads.len() {
            print!("{:<10}", i);
            for c in &costs {
                print!("{:>12.1}", c.disk_reads[i]);
            }
            println!();
        }
        println!("(paper: Qcluster's cached multipoint k-NN ≪ centroid re-query)\n");
        Ok(())
    }

    fn fig89(&self, kind: FeatureKind, title: &str) -> Result<(), CliError> {
        println!("## {title} — precision–recall per iteration ({kind:?})\n");
        let ds = image_dataset(self.scale, kind);
        let res = fig8_9::run(&ds, &workload(self.scale));
        println!(
            "{:<10} {:>10} {:>22}",
            "iteration", "AUPR", "P@k / R@k (full depth)"
        );
        for (i, curve) in res.curves.iter().enumerate() {
            let last = curve.last().expect("non-empty curve");
            println!(
                "{:<10} {:>10.4} {:>11.3} / {:.3}",
                i,
                res.aupr(i),
                last.precision,
                last.recall
            );
        }
        let mut rows = Vec::new();
        for (i, curve) in res.curves.iter().enumerate() {
            for p in curve {
                rows.push(format!("{i},{},{:.6},{:.6}", p.n, p.recall, p.precision));
            }
        }
        self.write_csv(
            &format!("pr_{kind:?}.csv"),
            "iteration,depth,recall,precision",
            &rows,
        )?;
        println!("full P–R series (iteration 0 and final):");
        for &it in &[0usize, res.curves.len() - 1] {
            let pts: Vec<String> = res.curves[it]
                .iter()
                .step_by((res.curves[it].len() / 10).max(1))
                .map(|p| format!("({:.2},{:.2})", p.recall, p.precision))
                .collect();
            println!("  iter {it}: {}", pts.join(" "));
        }
        println!("(paper: quality improves every iteration; biggest jump at iteration 1)\n");
        Ok(())
    }

    fn fig1013(&self, kind: FeatureKind, recall: bool, title: &str) -> Result<(), CliError> {
        let metric = if recall { "recall" } else { "precision" };
        println!("## {title} — {metric} of the three approaches ({kind:?})\n");
        let ds = image_dataset(self.scale, kind);
        let results = fig10_13::run(&ds, &workload(self.scale));
        self.print_results(&results, recall, &format!("{kind:?}"))?;
        println!(
            "(see `headline` for the semantic-gap workload where the margins match the paper)\n"
        );
        Ok(())
    }

    fn headline(&self) -> Result<(), CliError> {
        println!("## Headline — three approaches on the semantic-gap workload\n");
        let ds = semantic_gap_dataset(self.scale);
        let results = fig10_13::run_all(&ds, &headline_workload(self.scale));
        self.print_results(&results, true, "semantic_gap")?;
        println!("(paper: Qcluster ≈ +22% recall vs QEX, ≈ +34% vs QPM at the final iteration)\n");
        Ok(())
    }

    fn print_results(
        &self,
        results: &[fig10_13::ApproachQuality],
        recall: bool,
        tag: &str,
    ) -> Result<(), CliError> {
        let value = |r: &fig10_13::ApproachQuality, i: usize| {
            if recall {
                r.recall[i]
            } else {
                r.precision[i]
            }
        };
        let iters = results[0].recall.len();
        let metric = if recall { "recall" } else { "precision" };
        let header = std::iter::once("iteration".to_string())
            .chain(results.iter().map(|r| r.name.to_string()))
            .collect::<Vec<_>>()
            .join(",");
        let rows: Vec<String> = (0..iters)
            .map(|i| {
                std::iter::once(i.to_string())
                    .chain(results.iter().map(|r| format!("{:.6}", value(r, i))))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        self.write_csv(&format!("comparison_{tag}_{metric}.csv"), &header, &rows)?;
        print!("{:<10}", "iter");
        for r in results {
            print!("{:>12}", r.name);
        }
        println!();
        for i in 0..iters {
            print!("{:<10}", i);
            for r in results {
                print!("{:>12.4}", value(r, i));
            }
            println!();
        }
        let get = |name: &str| {
            results
                .iter()
                .find(|r| r.name == name)
                .map(|r| value(r, iters - 1))
                .unwrap_or(f64::NAN)
        };
        let (qc, qpm, qex) = (get("qcluster"), get("qpm"), get("qex"));
        println!(
            "final-iteration improvement: vs QEX {:+.1}%, vs QPM {:+.1}%",
            100.0 * (qc / qex - 1.0),
            100.0 * (qc / qpm - 1.0)
        );
        Ok(())
    }

    fn ablation(&self) -> Result<(), CliError> {
        println!("## Ablations — design choices (DESIGN.md §7) on the semantic-gap workload\n");
        let ds = semantic_gap_dataset(self.scale);
        let cfg = headline_workload(self.scale);
        let show = |title: &str, rows: &[ablation::AblationRow]| {
            println!("{title}:");
            for r in rows {
                let series: Vec<String> = r.recall.iter().map(|v| format!("{v:.3}")).collect();
                println!("  {:<24} {}", r.variant, series.join(" -> "));
            }
            println!();
        };
        show(
            "aggregate combination rule (same clusters, different ranking)",
            &ablation::aggregate_rule_sweep(&ds, &cfg),
        );
        show(
            "covariance scheme (retrieval quality)",
            &ablation::scheme_quality_sweep(&ds, &cfg),
        );
        show(
            "merge forcing (Algorithm 3 step 8)",
            &ablation::merge_forcing_sweep(&ds, &cfg),
        );
        show(
            "QPM negative-feedback weight (Rocchio γ)",
            &ablation::negative_feedback_sweep(&ds, &cfg),
        );
        let (loo_error, mean_clusters) = ablation::clustering_quality(&ds, &cfg);
        println!(
            "clustering quality (Sec. 4.5): leave-one-out error {loo_error:.3}, \
             mean final cluster count {mean_clusters:.1}\n"
        );
        Ok(())
    }

    fn fig1417(
        &self,
        shape: ClusterShape,
        scheme: CovarianceScheme,
        title: &str,
    ) -> Result<(), CliError> {
        println!("## {title} — classification error rate\n");
        let cfg = match self.scale {
            Scale::Quick => fig14_17::Fig1417Config::default(),
            Scale::Paper => fig14_17::Fig1417Config::paper_scale(),
        };
        let cells = fig14_17::run(&cfg, shape, scheme);
        let scheme_tag = match scheme {
            CovarianceScheme::Diagonal { .. } => "diagonal",
            CovarianceScheme::FullInverse { .. } => "inverse",
        };
        self.write_csv(
            &format!("error_{shape:?}_{scheme_tag}.csv"),
            "dim,distance,error,variance_ratio",
            &cells
                .iter()
                .map(|c| {
                    format!(
                        "{},{},{:.6},{:.6}",
                        c.dim, c.distance, c.error_rate, c.variance_ratio
                    )
                })
                .collect::<Vec<_>>(),
        )?;
        println!(
            "{:<6} {:>10} {:>12} {:>12}",
            "dim", "distance", "error", "var.ratio"
        );
        for c in cells {
            println!(
                "{:<6} {:>10.1} {:>12.3} {:>12.3}",
                c.dim, c.distance, c.error_rate, c.variance_ratio
            );
        }
        println!("(paper: error falls with distance, rises as dims shrink, shape-invariant)\n");
        Ok(())
    }

    fn fig1819(&self, scheme: PooledScheme, title: &str) -> Result<(), CliError> {
        println!("## {title} — Q–Q plot of T² vs critical distance ({scheme:?})\n");
        // The paper's scale (50+50 pairs) is already the default.
        let r = fig18_19::run(&fig18_19::Fig1819Config::default(), scheme);
        let show = |name: &str, v: &[f64]| {
            let q = |p: f64| v[((v.len() - 1) as f64 * p) as usize];
            println!(
                "{name:<22} min {:>7.2}  q25 {:>7.2}  med {:>7.2}  q75 {:>7.2}  max {:>7.2}",
                q(0.0),
                q(0.25),
                q(0.5),
                q(0.75),
                q(1.0)
            );
        };
        self.write_csv(
            &format!("qq_{scheme:?}.csv"),
            "critical,t2_same,t2_diff",
            &(0..r.t2_same.len())
                .map(|i| {
                    format!(
                        "{:.6},{:.6},{:.6}",
                        r.critical[i], r.t2_same[i], r.t2_diff[i]
                    )
                })
                .collect::<Vec<_>>(),
        )?;
        show("T² same-mean (F scale)", &r.t2_same);
        show("T² diff-mean (F scale)", &r.t2_diff);
        show("random-F critical", &r.critical);
        println!("Q–Q pairs (same-mean T² vs critical), every 10th:");
        for i in (0..r.t2_same.len()).step_by(10) {
            println!("  ({:.2}, {:.2})", r.critical[i], r.t2_same[i]);
        }
        println!("(paper: same-mean pairs at/below the T²=c² line, different-mean above)\n");
        Ok(())
    }

    fn table23(&self, hypothesis: table2_3::MeanHypothesis, title: &str) -> Result<(), CliError> {
        println!("## {title} — T² accuracy, {hypothesis:?} means\n");
        let cfg = match self.scale {
            Scale::Quick => table2_3::Table23Config::default(),
            Scale::Paper => table2_3::Table23Config::paper_scale(),
        };
        for (scheme, label) in [
            (PooledScheme::FullInverse, "T² with inverse matrix"),
            (PooledScheme::Diagonal, "T² with diagonal matrix"),
        ] {
            println!("{label}:");
            println!(
                "{:<6} {:>12} {:>10} {:>12} {:>14}",
                "dim", "var.ratio", "T²", "quantile-F", "error-ratio(%)"
            );
            for row in table2_3::run(&cfg, hypothesis, scheme) {
                println!(
                    "{:<6} {:>12.3} {:>10.2} {:>12.2} {:>14.1}",
                    row.dim, row.variation_ratio, row.mean_t2, row.quantile_f, row.error_ratio
                );
            }
            println!();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn names(list: &[&str]) -> Result<Vec<&'static str>, CliError> {
        let (_, wanted) = parse(&args(list))?;
        Ok(wanted.iter().map(|(name, _)| *name).collect())
    }

    #[test]
    fn quick_scale_datasets_build() {
        let ds = semantic_gap_dataset(Scale::Quick);
        assert_eq!(ds.len(), 150 * 50);
        let img = image_dataset(Scale::Quick, FeatureKind::ColorMoments);
        assert_eq!(img.len(), 1200);
        assert_eq!(img.dim(), 3);
    }

    #[test]
    fn scale_flag_parses() {
        let (repro, _) = parse(&args(&["--paper-scale"])).unwrap();
        assert_eq!(repro.scale, Scale::Paper);
        let (repro, _) = parse(&args(&[])).unwrap();
        assert_eq!(repro.scale, Scale::Quick);
    }

    #[test]
    fn every_name_is_checked_before_any_experiment_runs() {
        assert_eq!(names(&["fig7", "table2"]).unwrap(), ["fig7", "table2"]);
        let all: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names(&[]).unwrap(), all);
        assert_eq!(names(&["fig5", "all"]).unwrap(), all);
        let (repro, _) = parse(&args(&["fig5", "--csv", "out"])).unwrap();
        assert_eq!(repro.csv, Some(PathBuf::from("out")));
        // A typo anywhere fails the whole command, as do a `--csv`
        // without its directory and the old `--paper` spelling.
        for bad in [&["fig5", "bogus"][..], &["fig5", "--csv"], &["--paper"]] {
            assert!(
                matches!(parse(&args(bad)), Err(CliError::Usage(_))),
                "{bad:?}"
            );
        }
        let Err(CliError::Usage(msg)) = parse(&args(&["fig5", "bogus"])) else {
            panic!("a typo is a usage error");
        };
        assert_eq!(msg, "unknown experiment: bogus");
    }
}
