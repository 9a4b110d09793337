//! End-to-end tests of the `lbica-bench` binary's failure paths: real OS
//! processes and real files, checking that bad arguments fail before any
//! cell runs.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `lbica-bench <args...>` in `dir`.
fn bench_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lbica-bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the lbica-bench binary runs")
}

fn bench(args: &[&str]) -> Output {
    bench_in(Path::new(env!("CARGO_TARGET_TMPDIR")), args)
}

fn tmp(sub: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(sub)
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Writes a regular file (e.g. to put an `--out` under); returns it and
/// its contents.
fn regular_file(name: &str) -> (PathBuf, &'static [u8]) {
    let contents: &[u8] = b"a regular file, not a directory";
    let path = tmp(name);
    fs::write(&path, contents).expect("temp dir is writable");
    (path, contents)
}

#[test]
fn out_of_range_cell_indices_fail_before_the_sweep_runs() {
    for flag in ["--trace-cell", "--checkpoint-cell"] {
        let out = tmp(&format!("out-of-range{flag}"));
        let out = out.to_str().unwrap();
        let run = bench(&["sweep", "--matrix", "tiny", "--jobs", "2", flag, "99", "--out", out]);
        assert!(!run.status.success(), "`{flag} 99` on the 36-cell tiny matrix must fail");
        let stderr = stderr_of(&run);
        assert!(stderr.contains(&format!("{flag} 99 is out of range")), "got: {stderr}");
        assert!(!stderr.contains("complete"), "`{flag} 99` ran the sweep first: {stderr}");
        for name in ["sweep_tiny.csv", "sweep_tiny.json"] {
            assert!(!Path::new(out).join(name).exists(), "`{flag} 99` wrote {name} before failing");
        }
    }
}

#[test]
fn an_unusable_out_fails_before_the_sweep_runs() {
    let (blocker, contents) = regular_file("out-blocker");
    let out = blocker.join("out");
    let run = bench(&["sweep", "--matrix", "tiny", "--jobs", "2", "--out", out.to_str().unwrap()]);
    assert!(!run.status.success(), "a sweep whose --out sits under a regular file must fail");
    let stderr = stderr_of(&run);
    assert!(stderr.contains("cannot create"), "got: {stderr}");
    assert!(
        !stderr.contains("sweeping matrix"),
        "the sweep ran before --out was checked: {stderr}"
    );
    assert!(run.stdout.is_empty(), "a failed sweep reported writing something");
    assert_eq!(fs::read(&blocker).expect("the blocking file is still there"), contents);
}

#[test]
fn reproduce_rejects_a_flag_as_the_out_directory() {
    let dir = tmp("repro-flag-as-value");
    fs::create_dir_all(&dir).expect("temp dir is writable");
    let run = bench_in(&dir, &["reproduce", "--scale", "tiny", "--fig", "7", "--out", "--summary"]);
    assert!(!run.status.success(), "`--out --summary` must be a usage error");
    let stderr = stderr_of(&run);
    assert!(stderr.contains("--out needs"), "got: {stderr}");
    assert!(!stderr.contains("running the 3x3"), "the suite ran first: {stderr}");
    assert!(!dir.join("--summary").exists(), "created a directory named after a flag");
}

#[test]
fn an_unusable_out_fails_before_reproduce_runs() {
    let (blocker, contents) = regular_file("repro-out-blocker");
    let out = blocker.join("out");
    let run =
        bench(&["reproduce", "--scale", "tiny", "--fig", "7", "--out", out.to_str().unwrap()]);
    assert!(!run.status.success(), "a reproduce whose --out sits under a regular file must fail");
    let stderr = stderr_of(&run);
    assert!(stderr.contains("cannot create"), "got: {stderr}");
    assert!(
        !stderr.contains("running the 3x3"),
        "the suite ran before --out was checked: {stderr}"
    );
    assert!(run.stdout.is_empty(), "a failed reproduce reported writing something");
    assert_eq!(fs::read(&blocker).expect("the blocking file is still there"), contents);
}

#[test]
fn validate_rejects_an_unknown_artifact_kind_with_its_usage() {
    let (file, _) = regular_file("validate-input");
    let run = bench(&["validate", "bogus", file.to_str().unwrap()]);
    assert!(!run.status.success(), "an unknown artifact kind must fail");
    let stderr = stderr_of(&run);
    assert!(stderr.contains("unknown artifact kind `bogus`"), "got: {stderr}");
    assert!(stderr.contains("usage: lbica-bench validate"), "got: {stderr}");
    assert!(run.stdout.is_empty(), "a rejected kind printed a verdict");
}
