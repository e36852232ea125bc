//! `llp-mst-serve` rejects a bad command line with exit code 2 and a
//! one-line reason before doing any work: an unknown flag, a flag missing
//! its value, a malformed value and a zero count (none of which may
//! panic).

use std::process::Command;

fn expect_usage_error(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_llp-mst-serve"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn every_command_rejects_bad_arguments() {
    let commands: [(&[&str], &str); 4] = [
        (&["gen", "--out", "g.bin"], "--scale"),
        (&["serve", "--graph", "g.bin"], "--workers"),
        (&["loadgen", "--addr", "127.0.0.1:1"], "--queries"),
        (&["bench"], "--min-qps"),
    ];
    for (prefix, flag) in commands {
        let with = |rest: &[&'static str]| [prefix, rest].concat();
        expect_usage_error(&with(&["--bogus"]), "unrecognized arguments: --bogus");
        expect_usage_error(&with(&[flag]), &format!("{flag} needs a value"));
        expect_usage_error(&with(&[flag, "abc"]), &format!("bad value for {flag}: abc"));
    }
    expect_usage_error(&["bench", "--batches", "1,,4"], "bad value for --batches: ");
    expect_usage_error(
        &["loadgen", "--addr", "127.0.0.1:1", "--verify"],
        "--verify needs --graph",
    );
    // Thread and worker counts are `NonZeroUsize`: 0 is a bad value.
    let counts: [(&[&str], &str); 6] = [
        (&["serve", "--graph", "g.bin"], "--threads"),
        (&["serve", "--graph", "g.bin"], "--workers"),
        (&["serve", "--graph", "g.bin"], "--update-threads"),
        (&["loadgen", "--addr", "127.0.0.1:1"], "--threads"),
        (&["bench"], "--threads"),
        (&["bench"], "--workers"),
    ];
    for (prefix, flag) in counts {
        let args = [prefix, &[flag, "0"]].concat();
        expect_usage_error(&args, &format!("bad value for {flag}: 0"));
    }
    expect_usage_error(&["frobnicate"], "unknown command `frobnicate`");
    expect_usage_error(&["fuzz-ingest"], "unknown command `fuzz-ingest`");
    expect_usage_error(&[], "usage: llp-mst-serve");
}
