//! One feedback-round benchmark for the qcluster stack.
//!
//! ```text
//! qcluster-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! qcluster-benchmark [--smoke] [--seed <n>] [--trace <0|1>]     every workload, one after the other
//! qcluster-benchmark compare <SET_A> <SET_B>                    verdict per metric x workload
//! qcluster-benchmark spread <SET>                               run-to-run spread of one set
//! qcluster-benchmark catalog                                    BENCHMARK.json, from the catalog
//! ```
//!
//! The last line of standard output of a single-workload run is the one
//! JSON object of the driver's contract. See `README.md`.

mod catalog;
mod compare;
mod gen;
mod probes;
mod report;
mod run;
mod session;
mod stats;
mod system;
mod trace;
mod window;

use catalog::{Workload, WORKLOADS};
use run::{run, Options, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The seed the recorded baseline was taken at (19991231 is held out).
const BASELINE_SEED: u64 = 20030609;
/// The window of one run, seconds: `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 20;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: BASELINE_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: report::results_dir(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.smoke {
        parsed.seconds = 2.0;
    }
    Ok(parsed)
}

/// One run; prints the result line of the driver's contract last.
fn one(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let outcome = run(&Options {
        workload: if args.smoke {
            workload.smoke()
        } else {
            workload
        },
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: args.out.clone(),
    })?;
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    Ok(outcome)
}

fn single(name: &str, args: &Args) -> Result<ExitCode, String> {
    let workload = catalog::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("no workload {name}; there are {names:?}")
    })?;
    let outcome = one(workload, args)?;
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload in turn, then what only the set can say: the answer
/// digests of the two 1M workloads and the router's share of throughput.
fn every(args: &Args) -> Result<ExitCode, String> {
    let mut outcomes = Vec::new();
    for workload in WORKLOADS {
        let outcome = one(workload, args)?;
        outcomes.push((workload.name, outcome));
    }
    let find = |name: &str| outcomes.iter().find(|(n, _)| *n == name).map(|(_, o)| o);
    let mut ok = outcomes.iter().all(|(_, o)| o.correct);
    if let (Some(scan), Some(cluster)) = (find("scan_1m"), find("cluster_1m_3n")) {
        let same = scan.digest == cluster.digest;
        ok &= same;
        println!(
            "answer digests: scan_1m {} cluster_1m_3n {} ({})",
            scan.digest,
            cluster.digest,
            if same { "equal" } else { "DIFFERENT" }
        );
        let rps = |o: &Outcome| {
            o.metrics
                .iter()
                .find(|(def, _)| def.name == "rounds_per_s")
                .map(|(_, v)| *v)
        };
        if let (Some(s), Some(c)) = (rps(scan), rps(cluster)) {
            println!(
                "rounds_per_s of cluster_1m_3n over scan_1m: {:.3} ({:.1} / {:.1}): the router layer's share",
                c / s,
                c,
                s
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2])).map(|regressed| {
                if regressed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            })
        }
        Some("spread") if args.len() == 2 => {
            compare::spread_report(Path::new(&args[1])).map(|()| ExitCode::SUCCESS)
        }
        Some("catalog") if args.len() == 1 => {
            println!("{}", catalog::benchmark_json(RUN_SECONDS));
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") | Some("spread") | Some("catalog") => {
            Err("usage: compare <SET_A> <SET_B> | spread <SET> | catalog".to_string())
        }
        _ => parse(&args).and_then(|parsed| match parsed.workload.as_deref() {
            Some(name) => single(name, &parsed),
            None => every(&parsed),
        }),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
