//! End-to-end tests of the `hindex-analysis` binary: the repository
//! gate itself, stale-baseline enforcement, and the baseline workflow —
//! the last two against a throwaway workspace under the system temp
//! dir, so the real repository is never touched.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A conforming library crate root (no findings under any lint).
const CLEAN: &str = "//! Crate docs.\n\
                     #![forbid(unsafe_code)]\n\
                     \n\
                     /// Canonicalise via the checked helper.\n\
                     pub fn residue(delta: i64) -> u64 {\n\
                         hindex_hashing::from_i64(delta)\n\
                     }\n";

/// A seeded L10 violation: raw `+` on a stream-carried counter.
const OVERFLOWY: &str = "#![forbid(unsafe_code)]\n\
                         pub struct Acc { total: u64 }\n\
                         impl Acc {\n\
                             pub fn ingest(&mut self, delta: u64) {\n\
                                 self.total = self.total + delta;\n\
                             }\n\
                         }\n";

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hindex-analysis-cli-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(root: &Path, rel: &str, contents: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, contents).unwrap();
}

/// Runs the binary; returns (success, stdout, stderr).
fn run(root: &Path) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hindex-analysis"))
        .arg("--root")
        .arg(root)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn repository_passes_its_own_gate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (ok, stdout, stderr) = run(&root);
    assert!(ok, "{stdout}{stderr}");
    assert!(
        stdout.contains(" 0 new finding(s), ") && stdout.contains(" 0 stale entr(ies)"),
        "{stdout}"
    );
}

#[test]
fn stale_baseline_entry_fails_the_run() {
    let root = temp_root("stale");
    write(&root, "crates/sketch/src/lib.rs", CLEAN);
    write(
        &root,
        "crates/analysis/baseline.txt",
        "L9|crates/sketch/src/lib.rs|unwrap()  # fixed ages ago\n",
    );

    let (ok, _stdout, stderr) = run(&root);
    assert!(!ok, "stale suppression must fail the run: {stderr}");
    assert!(
        stderr.contains("remove stale suppression"),
        "stderr should say what to do: {stderr}"
    );

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn new_finding_fails_then_baseline_with_justification_clears() {
    let root = temp_root("baseline");
    write(&root, "crates/core/src/acc.rs", OVERFLOWY);

    let (ok, stdout, _) = run(&root);
    assert!(!ok, "a new finding must fail the run");
    assert!(stdout.contains("[L10]"), "{stdout}");

    // Lift the printed baseline key into a justified suppression.
    let key = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("baseline key: "))
        .expect("report prints the key")
        .to_string();
    write(
        &root,
        "crates/analysis/baseline.txt",
        &format!("{key}  # seeded fixture, audited\n"),
    );
    let (ok, stdout, stderr) = run(&root);
    assert!(ok, "a baselined finding must pass: {stdout}{stderr}");
    assert!(stdout.contains("1 baselined"), "{stdout}");

    // An unjustified entry is itself a failure.
    write(&root, "crates/analysis/baseline.txt", &format!("{key}\n"));
    let (ok, _stdout, stderr) = run(&root);
    assert!(!ok, "unjustified entries must fail the run");
    assert!(stderr.contains("no justification"), "{stderr}");

    std::fs::remove_dir_all(&root).ok();
}
