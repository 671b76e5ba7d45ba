//! `compare SET_A SET_B` and `spread SET`: sets are directories of the
//! result files untraced runs leave behind.

use crate::catalog::{END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread, verdict, Verdict};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// workload → metric → values in run order (seed, then repeat).
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        _ => None,
    }
}

fn load(dir: &Path) -> Result<Set, String> {
    let mut runs: Vec<(u64, String, Value)> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.ends_with(".json") || name.starts_with("trace_") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{name}: {e}"))?;
        if !matches!(doc.get("trace"), Some(Value::Bool(false))) {
            continue;
        }
        if !matches!(doc.get("correct"), Some(Value::Bool(true))) {
            return Err(format!("{name}: the run was not correct; fix that first"));
        }
        let seed = doc.get("seed").and_then(number).unwrap_or(0.0) as u64;
        runs.push((seed, name, doc));
    }
    runs.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let mut set = Set::new();
    for (_, name, doc) in &runs {
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{name}: no workload"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_map)
            .ok_or_else(|| format!("{name}: no metrics"))?;
        let per_metric = set.entry(workload.to_string()).or_default();
        for (metric, value) in metrics {
            if let Some(v) = number(value) {
                per_metric.entry(metric.clone()).or_default().push(v);
            }
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no untraced result files", dir.display()));
    }
    Ok(set)
}

fn quart(values: &[f64]) -> String {
    if values.len() < 2 {
        return format!("{:.4} (1 run)", median(values));
    }
    let q = quartiles(values);
    format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2])
}

/// One row per end-to-end metric × workload: medians, quartiles and the
/// verdict by the metric's bound. Returns whether anything regressed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (load(a)?, load(b)?);
    println!(
        "{:<20} {:<22} {:<7} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "better", "A median [q1, q3]", "B median [q1, q3]", "B/A"
    );
    let mut regressed = false;
    for w in &WORKLOADS {
        let (Some(ma), Some(mb)) = (set_a.get(w.name), set_b.get(w.name)) else {
            continue;
        };
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (ma.get(def.name), mb.get(def.name)) else {
                continue;
            };
            let v = verdict(
                va,
                vb,
                def.better,
                def.bound.expect("end-to-end metrics are bounded"),
            );
            regressed |= v == Verdict::Regressed;
            println!(
                "{:<20} {:<22} {:<7} {:>34} {:>34} {:>8.3}  {}",
                w.name,
                def.name,
                def.better.as_str(),
                quart(va),
                quart(vb),
                median(vb) / median(va),
                v.as_str()
            );
        }
    }
    Ok(regressed)
}

/// The spread of every end-to-end metric × workload of one set, as the
/// driver takes it, against a third of the metric's bound; also as JSON
/// for `BASELINE.json`.
pub fn spread_report(dir: &Path) -> Result<(), String> {
    let set = load(dir)?;
    println!(
        "{:<20} {:<22} {:>5} {:>14} {:>9} {:>9}  within a third of the bound",
        "workload", "metric", "runs", "median", "spread", "bound"
    );
    let mut json = Vec::new();
    for w in &WORKLOADS {
        let Some(metrics) = set.get(w.name) else {
            continue;
        };
        let mut per_metric = Vec::new();
        for def in &END_TO_END {
            let Some(values) = metrics.get(def.name) else {
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let s = if values.len() >= 2 {
                spread(values)
            } else {
                0.0
            };
            println!(
                "{:<20} {:<22} {:>5} {:>14.4} {:>9.4} {:>9.2}  {}",
                w.name,
                def.name,
                values.len(),
                median(values),
                s,
                bound,
                if s <= bound / 3.0 { "yes" } else { "NO" }
            );
            per_metric.push((
                def.name.to_string(),
                Value::Map(vec![
                    ("runs".into(), Value::U64(values.len() as u64)),
                    ("median".into(), Value::F64(median(values))),
                    ("spread".into(), Value::F64(s)),
                    ("bound".into(), Value::F64(bound)),
                ]),
            ));
        }
        json.push((w.name.to_string(), Value::Map(per_metric)));
    }
    let text = serde_json::to_string_pretty(&Value::Map(json)).map_err(|e| e.to_string())?;
    println!("{text}");
    Ok(())
}
