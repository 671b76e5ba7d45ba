//! The paper's record at quick scale is pinned: `qcluster repro all
//! --csv DIR` must write the committed CSVs byte for byte and print the
//! committed stdout. Two parts of the stdout are masked, and nothing
//! else: Figure 6's CPU-time rows (wall-clock measurements) and the
//! output directory in the `(wrote DIR/…)` lines.
//!
//! A change that moves a figure regenerates the golden files in the
//! same commit and says why:
//!
//! ```text
//! QCLUSTER_BLESS=1 cargo test -p qcluster-cli --test repro_golden
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/repro")
}

/// `stdout` with the output directory written as `<dir>` and each row
/// of Figure 6's table reduced to its iteration number.
fn masked(stdout: &str, dir: &Path) -> String {
    let stdout = stdout.replace(&dir.display().to_string(), "<dir>");
    let mut out = String::with_capacity(stdout.len());
    let (mut in_fig6, mut cpu_rows) = (false, None::<usize>);
    for line in stdout.lines() {
        if line.starts_with("## ") {
            in_fig6 = line.starts_with("## Figure 6 ");
        }
        match cpu_rows.as_mut() {
            Some(rows) if !line.starts_with("(paper:") => {
                *rows += 1;
                let iteration = line.split_whitespace().next().unwrap_or("");
                out.push_str(&format!("{iteration:<10} <cpu time>\n"));
                continue;
            }
            Some(rows) => {
                assert_eq!(*rows, 4, "Figure 6 prints four iterations");
                cpu_rows = None;
            }
            None if in_fig6 && line.starts_with("iteration") => cpu_rows = Some(0),
            None => {}
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[test]
fn quick_scale_repro_matches_the_golden_files() {
    let dir = std::env::temp_dir().join(format!("qcluster-repro-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_qcluster"))
        .args(["repro", "all", "--csv"])
        .arg(&dir)
        .output()
        .expect("run qcluster repro");
    assert!(output.status.success(), "{output:?}");
    let stdout = masked(&String::from_utf8(output.stdout).unwrap(), &dir);
    let mut csvs: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    csvs.sort();
    assert_eq!(csvs.len(), 13, "{csvs:?}");

    let golden = golden_dir();
    if std::env::var_os("QCLUSTER_BLESS").is_some() {
        let _ = std::fs::remove_dir_all(&golden);
        std::fs::create_dir_all(&golden).unwrap();
        std::fs::write(golden.join("stdout.txt"), &stdout).unwrap();
        for name in &csvs {
            std::fs::copy(dir.join(name), golden.join(name)).unwrap();
        }
    }
    let mut want: Vec<String> = std::fs::read_dir(&golden)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".csv"))
        .collect();
    want.sort();
    assert_eq!(csvs, want, "the experiments write the golden CSVs");
    for name in &csvs {
        let got = std::fs::read(dir.join(name)).unwrap();
        let expected = std::fs::read(golden.join(name)).unwrap();
        assert!(got == expected, "{name} moved");
    }
    let expected = std::fs::read_to_string(golden.join("stdout.txt")).unwrap();
    for (i, (got, want)) in stdout.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "stdout line {}", i + 1);
    }
    assert_eq!(stdout.lines().count(), expected.lines().count());
    std::fs::remove_dir_all(&dir).ok();
}
