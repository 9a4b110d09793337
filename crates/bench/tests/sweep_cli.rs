//! End-to-end tests of the `sweep` binary's shard/merge surface: real OS
//! processes, real files, byte-for-byte output comparison, and the
//! usage-error paths for malformed `--shard` arguments.

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
fn two_shard_processes_merge_byte_identical_to_a_single_process_run() {
    let single = tmp("single");
    let parts = tmp("parts");
    let merged = tmp("merged");

    let run = sweep(&["--matrix", "tiny", "--jobs", "2", "--out", single.to_str().unwrap()]);
    assert!(run.status.success(), "single-process sweep failed: {}", stderr_of(&run));

    // Two separate OS processes, each running half the matrix. Shard 0
    // exercises the directory form of --out, shard 1 the file form.
    let shard0 = sweep(&[
        "--matrix",
        "tiny",
        "--jobs",
        "2",
        "--shard",
        "0/2",
        "--out",
        parts.to_str().unwrap(),
    ]);
    assert!(shard0.status.success(), "shard 0 failed: {}", stderr_of(&shard0));
    let part1_file = parts.join("part_1.json");
    let shard1 = sweep(&[
        "--matrix",
        "tiny",
        "--jobs",
        "2",
        "--shard",
        "1/2",
        "--out",
        part1_file.to_str().unwrap(),
    ]);
    assert!(shard1.status.success(), "shard 1 failed: {}", stderr_of(&shard1));

    let part0_file = parts.join("sweep_tiny.part0of2.json");
    assert!(part0_file.is_file(), "shard 0 wrote the canonical partial name");
    let merge = sweep(&[
        "merge",
        part0_file.to_str().unwrap(),
        part1_file.to_str().unwrap(),
        "--out",
        merged.to_str().unwrap(),
    ]);
    assert!(merge.status.success(), "merge failed: {}", stderr_of(&merge));

    for name in ["sweep_tiny.csv", "sweep_tiny.json"] {
        let expected = fs::read(single.join(name)).expect("single-process output exists");
        let actual = fs::read(merged.join(name)).expect("merged output exists");
        assert!(!expected.is_empty());
        assert_eq!(actual, expected, "{name} differs between merged and single-process runs");
    }
}

#[test]
fn invalid_shard_arguments_are_usage_errors() {
    for bad in ["2/2", "0/0", "3/2", "banana", "1", "1/", "/2", "-1/2"] {
        let out =
            sweep(&["--matrix", "tiny", "--shard", bad, "--out", tmp("unused").to_str().unwrap()]);
        assert!(
            !out.status.success(),
            "`--shard {bad}` should be rejected with a nonzero exit code"
        );
        let stderr = stderr_of(&out);
        assert!(
            stderr.contains("--shard") && stderr.contains("usage:"),
            "`--shard {bad}` should print a usage error, got: {stderr}"
        );
    }
}

#[test]
fn merge_of_an_incomplete_shard_set_fails() {
    let parts = tmp("incomplete");
    let lone = parts.join("part_0.json");
    let shard = sweep(&[
        "--matrix",
        "tiny",
        "--jobs",
        "2",
        "--shard",
        "0/3",
        "--out",
        lone.to_str().unwrap(),
    ]);
    assert!(shard.status.success(), "shard 0/3 failed: {}", stderr_of(&shard));

    let merge =
        sweep(&["merge", lone.to_str().unwrap(), "--out", tmp("incomplete-out").to_str().unwrap()]);
    assert!(!merge.status.success(), "merging 1 of 3 shards must fail");
    assert!(stderr_of(&merge).contains("shard 1 is missing"), "got: {}", stderr_of(&merge));
    // A data error is not a usage error: no flag synopsis follows it.
    assert!(!stderr_of(&merge).contains("usage:"), "got: {}", stderr_of(&merge));

    let none = sweep(&["merge", "--out", tmp("incomplete-out").to_str().unwrap()]);
    assert!(!none.status.success(), "merge with no partials must fail");
    assert!(stderr_of(&none).contains("usage:"), "got: {}", stderr_of(&none));
}

#[test]
fn a_failed_merge_writes_no_telemetry() {
    let parts = tmp("telemetry-incomplete");
    let lone = parts.join("part_0.json");
    let shard = sweep(&[
        "--matrix",
        "tiny",
        "--jobs",
        "2",
        "--shard",
        "0/3",
        "--out",
        lone.to_str().unwrap(),
    ]);
    assert!(shard.status.success(), "shard 0/3 failed: {}", stderr_of(&shard));

    let telemetry = parts.join("merge.jsonl");
    let out = tmp("telemetry-incomplete-out");
    let merge = sweep(&[
        "merge",
        lone.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--telemetry",
        telemetry.to_str().unwrap(),
    ]);
    assert!(!merge.status.success(), "merging 1 of 3 shards must fail");
    assert!(!telemetry.exists(), "a rejected merge left a telemetry stream behind");
    assert!(!out.exists(), "a rejected merge wrote summaries");
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
fn a_shard_with_an_unusable_out_fails_before_the_sweep_runs() {
    let blocker = tmp("shard-out-blocker");
    fs::write(&blocker, b"a regular file, not a directory").expect("temp dir is writable");
    let part = blocker.join("part.json");
    let run = sweep(&[
        "--matrix",
        "tiny",
        "--jobs",
        "2",
        "--shard",
        "0/2",
        "--out",
        part.to_str().unwrap(),
    ]);
    assert!(!run.status.success(), "a shard whose --out sits under a regular file must fail");
    let stderr = stderr_of(&run);
    assert!(stderr.contains("cannot create"), "got: {stderr}");
    assert!(!stderr.contains("sweeping shard"), "the shard ran before --out was checked: {stderr}");
    assert!(run.stdout.is_empty(), "a failed shard reported writing something");
    assert_eq!(
        fs::read(&blocker).expect("the blocking file is still there"),
        b"a regular file, not a directory",
    );
}
