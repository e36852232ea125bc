//! Every bench binary rejects a bad command line with exit code 2 and a
//! one-line reason: an unknown flag, a flag missing its value, a
//! malformed value and a zero count (none of which may panic).

use std::process::Command;

fn expect_usage_error(bin: &str, args: &[&str], message: &str) {
    let out = Command::new(bin).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

/// The three bad inputs, after the `prefix` that selects a command.
fn check(bin: &str, prefix: &[&'static str], flag: &'static str) {
    let with = |rest: &[&'static str]| [prefix, rest].concat();
    expect_usage_error(bin, &with(&["--bogus"]), "unrecognized arguments: --bogus");
    expect_usage_error(bin, &with(&[flag]), &format!("{flag} needs a value"));
    expect_usage_error(
        bin,
        &with(&[flag, "abc"]),
        &format!("bad value for {flag}: abc"),
    );
}

#[test]
fn repro_rejects_bad_arguments() {
    check(env!("CARGO_BIN_EXE_repro"), &["fig2"], "--reps");
}

#[test]
fn differential_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_differential");
    check(bin, &["sweep"], "--threads");
    expect_usage_error(bin, &["--gen-seeds", "1,x"], "bad value for --gen-seeds: x");
    expect_usage_error(bin, &["perf"], "unknown command perf");
    expect_usage_error(
        bin,
        &["--families", "road,moon"],
        "bad value for --families: moon",
    );
}

#[test]
fn dynamic_bench_rejects_bad_arguments() {
    check(env!("CARGO_BIN_EXE_dynamic-bench"), &[], "--batch");
}

#[test]
fn microbench_rejects_bad_arguments() {
    check(env!("CARGO_BIN_EXE_microbench"), &[], "--threads");
}

#[test]
fn ooc_bench_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_ooc-bench");
    check(bin, &["run", "--graph", "g.bin"], "--shard-edges");
    check(bin, &["gen", "--out", "g.bin"], "--scale");
    expect_usage_error(bin, &["run"], "--graph is required");
}

/// Thread, worker and repetition counts are `NonZeroUsize`: 0 is a bad
/// value, not a pool assertion or an empty sweep.
#[test]
fn zero_counts_are_usage_errors() {
    let cases: [(&str, &[&str], &str); 7] = [
        (env!("CARGO_BIN_EXE_repro"), &["fig2"], "--reps"),
        (env!("CARGO_BIN_EXE_repro"), &["fig3"], "--max-threads"),
        (env!("CARGO_BIN_EXE_differential"), &["sweep"], "--threads"),
        (
            env!("CARGO_BIN_EXE_differential"),
            &["fault-matrix"],
            "--threads",
        ),
        (env!("CARGO_BIN_EXE_dynamic-bench"), &[], "--threads"),
        (env!("CARGO_BIN_EXE_microbench"), &[], "--threads"),
        (
            env!("CARGO_BIN_EXE_ooc-bench"),
            &["run", "--graph", "g.bin"],
            "--threads",
        ),
    ];
    for (bin, prefix, flag) in cases {
        let args = [prefix, &[flag, "0"]].concat();
        expect_usage_error(bin, &args, &format!("bad value for {flag}: 0"));
    }
}
