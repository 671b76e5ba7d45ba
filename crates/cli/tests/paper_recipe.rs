//! `recipes/paper.toml` is pinned: `qcluster run` over it must print the
//! same precision trajectory in its served and its offline table. The
//! recipe serves from a durable store, so the served table runs the
//! durable node's session path end to end.

use std::process::Command;

/// The precision@k column of the table printed under `title`.
fn precisions(stdout: &str, title: &str) -> Vec<String> {
    stdout
        .lines()
        .skip_while(|line| *line != title)
        .skip(3) // the title, the header and the rule
        .take_while(|line| line.starts_with("| "))
        .map(|line| line.split('|').nth(2).unwrap().trim().to_string())
        .collect()
}

#[test]
fn the_paper_recipe_serves_the_pinned_trajectory() {
    let dir = std::env::temp_dir().join(format!("qcluster-paper-recipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let recipe = concat!(env!("CARGO_MANIFEST_DIR"), "/../../recipes/paper.toml");
    let output = Command::new(env!("CARGO_BIN_EXE_qcluster"))
        .args(["run", recipe, "--workdir", dir.to_str().unwrap()])
        .output()
        .expect("run qcluster run");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let want = ["0.5788", "0.6775", "0.7062", "0.7187"];
    assert_eq!(precisions(&stdout, "served (over the wire):"), want);
    assert_eq!(precisions(&stdout, "offline baseline:"), want);
    std::fs::remove_dir_all(&dir).ok();
}
