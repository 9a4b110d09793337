//! End-to-end tests of the `sweep` binary's failure paths: real OS
//! processes and real files, checking that bad arguments fail before any
//! cell runs.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep")).args(args).output().expect("the sweep binary runs")
}

fn tmp(sub: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(sub)
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn out_of_range_cell_indices_fail_before_the_sweep_runs() {
    for flag in ["--trace-cell", "--checkpoint-cell"] {
        let out = tmp(&format!("out-of-range{flag}"));
        let run =
            sweep(&["--matrix", "tiny", "--jobs", "2", flag, "99", "--out", out.to_str().unwrap()]);
        assert!(!run.status.success(), "`{flag} 99` on the 36-cell tiny matrix must fail");
        let stderr = stderr_of(&run);
        assert!(stderr.contains(&format!("{flag} 99 is out of range")), "got: {stderr}");
        assert!(!stderr.contains("complete"), "`{flag} 99` ran the sweep first: {stderr}");
        for name in ["sweep_tiny.csv", "sweep_tiny.json"] {
            assert!(!out.join(name).exists(), "`{flag} 99` wrote {name} before failing");
        }
    }
}

#[test]
fn an_unusable_out_fails_before_the_sweep_runs() {
    let blocker = tmp("out-blocker");
    fs::write(&blocker, b"a regular file, not a directory").expect("temp dir is writable");
    let out = blocker.join("out");
    let run = sweep(&["--matrix", "tiny", "--jobs", "2", "--out", out.to_str().unwrap()]);
    assert!(!run.status.success(), "a sweep whose --out sits under a regular file must fail");
    let stderr = stderr_of(&run);
    assert!(stderr.contains("cannot create"), "got: {stderr}");
    assert!(
        !stderr.contains("sweeping matrix"),
        "the sweep ran before --out was checked: {stderr}"
    );
    assert!(run.stdout.is_empty(), "a failed sweep reported writing something");
    assert_eq!(
        fs::read(&blocker).expect("the blocking file is still there"),
        b"a regular file, not a directory",
    );
}
