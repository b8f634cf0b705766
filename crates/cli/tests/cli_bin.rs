//! End-to-end tests of the compiled `cqs-tool` binary: real process,
//! real stdin/stdout.

use std::io::Write;
use std::process::{Command, Stdio};

fn run(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cqs-tool"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cqs-tool");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn quantiles_from_stdin() {
    let data: String = (1..=5000).map(|i| format!("{i}\n")).collect();
    let (stdout, stderr, ok) = run(&["quantiles", "--eps", "0.01", "--phi", "0.5"], &data);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("n = 5000"), "{stdout}");
    // Median of 1..=5000 within ±50.
    let med: f64 = stdout
        .lines()
        .find(|l| l.contains("phi = 0.5"))
        .and_then(|l| l.split("->").nth(1))
        .and_then(|v| v.trim().parse().ok())
        .expect("median line");
    assert!((2450.0..=2550.0).contains(&med), "median {med}");
}

#[test]
fn adversary_subcommand_prints_report() {
    let (stdout, stderr, ok) = run(&["adversary", "--inv-eps", "16", "--k", "5"], "");
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("final gap"), "{stdout}");
    assert!(stdout.contains("theorem 2.2 bound"), "{stdout}");
}

#[test]
fn compare_subcommand_lists_algorithms() {
    let data: String = (1..=2000).map(|i| format!("{i}\n")).collect();
    let (stdout, stderr, ok) = run(&["compare", "--eps", "0.02"], &data);
    assert!(ok, "stderr: {stderr}");
    for name in ["gk", "mrl", "kll", "ckms", "reservoir"] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
}

#[test]
fn help_prints_usage_and_bad_args_fail() {
    let (stdout, _, ok) = run(&["help"], "");
    assert!(ok);
    assert!(stdout.contains("USAGE"));

    let (_, stderr, ok) = run(&["quantiles", "--eps", "banana"], "");
    assert!(!ok);
    assert!(stderr.contains("not a number"), "{stderr}");

    let (_, stderr, ok) = run(&["nonsense"], "");
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn bad_input_data_fails_cleanly() {
    let (_, stderr, ok) = run(&["quantiles"], "1\n2\nthree\n");
    assert!(!ok);
    assert!(stderr.contains("not a number"), "{stderr}");
}

#[test]
fn out_of_range_inv_eps_is_a_usage_error_not_a_panic() {
    // 1/ε of 1 or 2 puts ε outside (0, ½); u64::MAX at k = 24 overflows
    // N_k = (1/ε)·2^k.
    let max = u64::MAX.to_string();
    let bad: [&[&str]; 3] = [
        &["--inv-eps", "1"],
        &["--inv-eps", "2"],
        &["--inv-eps", &max, "--k", "24"],
    ];
    for cmd in ["adversary", "faults", "service"] {
        for args in bad {
            let out = Command::new(env!("CARGO_BIN_EXE_cqs-tool"))
                .arg(cmd)
                .args(args)
                .output()
                .expect("run cqs-tool");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {args:?}: {stderr}");
            assert!(stderr.contains("error: "), "{cmd} {args:?}: {stderr}");
            assert!(stderr.contains("USAGE"), "{cmd} {args:?}: {stderr}");
            // The usage text names the `summary-panicked` exit code, so
            // look for the panic message itself.
            assert!(!stderr.contains("panicked at"), "{cmd} {args:?}: {stderr}");
        }
    }
}

/// `cqs adversary` stdout at ε = 1/32, k = 6 for every target, pinned
/// byte for byte: the report, the failure witness and the exit code.
#[test]
fn adversary_reports_match_the_golden_file() {
    let mut stdout = String::new();
    for target in [
        &["--target", "gk"][..],
        &["--target", "gk-greedy"],
        &["--target", "mrl"],
        &["--target", "kll"],
        &["--target", "gk-capped", "--budget", "40"],
    ] {
        let mut args = vec!["adversary", "--inv-eps", "32", "--k", "6"];
        args.extend_from_slice(target);
        let (out, stderr, ok) = run(&args, "");
        assert!(ok, "{target:?}: stderr: {stderr}");
        stdout.push_str(&out);
    }
    assert_eq!(
        stdout,
        include_str!("golden/adversary_inv_eps32_k6.txt"),
        "cqs adversary output drifted from the golden file"
    );
}
