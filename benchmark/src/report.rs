//! What a run prints and writes: host facts, the metric lines, the
//! result file, and the final JSON line of the driver's contract.

use crate::catalog::MetricDef;
use serde_json::Value;
use std::path::{Path, PathBuf};

/// `benchmark/results` of the checkout the command runs from; when run
/// from elsewhere, beside the package's own manifest.
pub fn results_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/results")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
    }
}

/// Peak resident set of this process (`VmHWM`), bytes.
pub fn vm_hwm_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// SIMD features this binary was compiled for (`.cargo/config.toml`
/// builds for the host CPU).
pub fn target_features() -> String {
    let mut on = Vec::new();
    for (name, enabled) in [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ] {
        if enabled {
            on.push(name);
        }
    }
    if on.is_empty() {
        "baseline".to_string()
    } else {
        on.join(",")
    }
}

/// The checked-out commit, read from `.git` without spawning anything;
/// the driver's checkout is not a git repository.
pub fn git_commit() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&Path::new(".git").join(reference)).unwrap_or(head),
        None => head,
    }
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// `{"value": v, "unit": u}` per metric, in catalog order.
pub fn metrics_value(metrics: &[(MetricDef, f64)]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|(def, value)| {
                (
                    def.name.to_string(),
                    Value::Map(vec![
                        ("value".to_string(), Value::F64(*value)),
                        ("unit".to_string(), Value::Str(def.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The one JSON object the driver reads from the last line of stdout.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let doc = Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), metrics_value(metrics)),
    ]);
    serde_json::to_string(&doc).expect("finite metrics serialize")
}

pub fn print_metrics(title: &str, metrics: &[(MetricDef, f64)]) {
    println!("{title}");
    for (def, value) in metrics {
        println!("  {:<36} {:>16.4} {}", def.name, value, def.unit);
    }
}
