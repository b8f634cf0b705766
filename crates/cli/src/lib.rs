//! # cqs-cli — command-line quantile summarisation
//!
//! The `cqs` binary wraps the workspace in four subcommands:
//!
//! * `cqs quantiles` — summarise numbers from stdin and print requested
//!   percentiles;
//! * `cqs adversary` — run the PODS'20 lower-bound construction against
//!   a chosen summary and print the report;
//! * `cqs compare` — run every algorithm over the same stdin data and
//!   print a space/answer table;
//! * `cqs faults` — sweep the `cqs-faults` fault matrix against a
//!   summary and check every injected fault maps to its documented
//!   `RunVerdict` (distinct exit codes per mismatch class);
//! * `cqs recover` — run the storage fault matrix against a GK
//!   snapshot and check every corruption draws a typed `RestoreError`;
//! * `cqs service` — smoke-drive the sharded concurrent quantile
//!   service (parallel ingest, background merge worker, one-pass
//!   export) and run the adversary-driven error-composition
//!   differential.
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy
//! admits no CLI framework); this library half holds the parsing and
//! command logic so it is unit-testable, the `src/bin/cqs.rs` shim only
//! wires stdin/stdout.

mod args;
mod commands;

pub use args::{
    parse_args, AdversaryArgs, Cli, CompareArgs, FaultsArgs, QuantilesArgs, RecoverArgs,
    ServiceArgs, SummaryKind, USAGE,
};
pub use commands::{
    run_adversary_cmd, run_compare, run_faults_cmd, run_quantiles, run_recover_cmd,
    run_service_cmd, CliError,
};

#[cfg(test)]
mod tests {
    // Comparing a parsed flag against the exact literal it was parsed
    // from: no arithmetic is involved, so exact equality is the point.
    #![allow(clippy::float_cmp)]

    use super::*;

    fn parse(words: &[&str]) -> Result<Cli, CliError> {
        parse_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_quantiles_defaults() {
        let cli = parse(&["quantiles"]).unwrap();
        match cli {
            Cli::Quantiles(q) => {
                assert_eq!(q.eps, 0.01);
                assert_eq!(q.kind, SummaryKind::Gk);
                assert_eq!(q.phis, vec![0.5, 0.9, 0.99]);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_quantiles_with_options() {
        let cli = parse(&[
            "quantiles",
            "--eps",
            "0.001",
            "--algo",
            "kll",
            "--phi",
            "0.25,0.75",
        ])
        .unwrap();
        match cli {
            Cli::Quantiles(q) => {
                assert_eq!(q.eps, 0.001);
                assert_eq!(q.kind, SummaryKind::Kll);
                assert_eq!(q.phis, vec![0.25, 0.75]);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_adversary() {
        let cli = parse(&[
            "adversary",
            "--inv-eps",
            "64",
            "--k",
            "7",
            "--target",
            "gk-greedy",
        ])
        .unwrap();
        match cli {
            Cli::Adversary(a) => {
                assert_eq!(a.inv_eps, 64);
                assert_eq!(a.k, 7);
                assert_eq!(a.target, SummaryKind::GkGreedy);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_compare() {
        let cli = parse(&["compare", "--eps", "0.02"]).unwrap();
        match cli {
            Cli::Compare(c) => assert_eq!(c.eps, 0.02),
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_faults_with_defaults_and_options() {
        match parse(&["faults"]).unwrap() {
            Cli::Faults(fa) => {
                assert_eq!(fa.inv_eps, 16);
                assert_eq!(fa.k, 6);
                assert_eq!(fa.target, SummaryKind::Gk);
                assert_eq!(fa.seed, 0xFA17);
                assert_eq!(fa.jobs, 0, "default --jobs is auto");
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&[
            "faults",
            "--inv-eps",
            "32",
            "--k",
            "5",
            "--target",
            "mrl",
            "--seed",
            "7",
            "--jobs",
            "3",
        ])
        .unwrap()
        {
            Cli::Faults(fa) => {
                assert_eq!(fa.inv_eps, 32);
                assert_eq!(fa.k, 5);
                assert_eq!(fa.target, SummaryKind::Mrl);
                assert_eq!(fa.seed, 7);
                assert_eq!(fa.jobs, 3);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_recover_and_matrix_is_all_green() {
        match parse(&["recover"]).unwrap() {
            Cli::Recover(r) => assert_eq!(r.n, 2_000),
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&["recover", "--n", "500"]).unwrap() {
            Cli::Recover(r) => {
                assert_eq!(r.n, 500);
                let (out, code) = run_recover_cmd(&r).unwrap();
                assert_eq!(code, 0, "{out}");
                assert!(out.contains("zero silent restores"), "{out}");
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&["recover", "--bogus"]).is_err());
    }

    #[test]
    fn parses_service_defaults_and_options() {
        match parse(&["service"]).unwrap() {
            Cli::Service(s) => {
                assert_eq!(s.n, 20_000);
                assert_eq!(s.batch, 512);
                assert_eq!(s.shards, 8);
                assert_eq!(s.threads, 1);
                assert_eq!(s.eps, 0.001);
                assert_eq!(s.inv_eps, 32);
                assert_eq!(s.k, 4);
                assert!(s.export.is_none());
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&[
            "service",
            "--n",
            "4096",
            "--batch",
            "128",
            "--shards",
            "4",
            "--threads",
            "2",
            "--export",
            "/tmp/x.qsvc",
        ])
        .unwrap()
        {
            Cli::Service(s) => {
                assert_eq!(s.n, 4096);
                assert_eq!(s.batch, 128);
                assert_eq!(s.shards, 4);
                assert_eq!(s.threads, 2);
                assert_eq!(s.export.as_deref(), Some("/tmp/x.qsvc"));
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&["service", "--bogus"]).is_err());
        assert!(parse(&["service", "--inv-eps", "0"]).is_err());
    }

    #[test]
    fn service_command_end_to_end_and_thread_invariant() {
        let args = |threads| ServiceArgs {
            n: 1_000,
            batch: 64,
            shards: 4,
            threads,
            eps: 0.005,
            inv_eps: 32,
            k: 4,
            export: None,
        };
        let (out, code, bytes) = run_service_cmd(&args(1)).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("composed guarantee"), "{out}");
        assert!(out.contains("round-trip ok"), "{out}");
        // The exported snapshot is a function of the workload, never of
        // the thread count — the CI leg's byte-diff, in miniature.
        let (_, code4, bytes4) = run_service_cmd(&args(4)).unwrap();
        assert_eq!(code4, 0);
        assert_eq!(bytes, bytes4, "export bytes differ across thread counts");
    }

    #[test]
    fn rejects_unknown_command_and_flags() {
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["quantiles", "--bogus"]).is_err());
        assert!(parse(&["quantiles", "--eps", "not-a-number"]).is_err());
        assert!(parse(&["adversary", "--k"]).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn rejects_out_of_range_parameters() {
        assert!(parse(&["quantiles", "--eps", "0.9"]).is_err());
        assert!(parse(&["adversary", "--inv-eps", "0"]).is_err());
        assert!(parse(&["quantiles", "--phi", "1.5"]).is_err());
    }

    #[test]
    fn quantiles_command_end_to_end() {
        let q = QuantilesArgs {
            eps: 0.05,
            kind: SummaryKind::Gk,
            phis: vec![0.5],
            expected_n: 10_000,
            seed: 0,
        };
        let data = "1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n";
        let out = run_quantiles(&q, data.as_bytes()).unwrap();
        assert!(out.contains("0.5"), "output: {out}");
        assert!(out.contains("n = 10"), "output: {out}");
    }

    #[test]
    fn quantiles_rejects_garbage_input() {
        let q = QuantilesArgs {
            eps: 0.05,
            kind: SummaryKind::Gk,
            phis: vec![0.5],
            expected_n: 100,
            seed: 0,
        };
        assert!(run_quantiles(&q, "1\nbanana\n".as_bytes()).is_err());
    }

    #[test]
    fn adversary_command_end_to_end() {
        let a = AdversaryArgs {
            inv_eps: 16,
            k: 4,
            target: SummaryKind::Gk,
            budget: 0,
        };
        let (out, code) = run_adversary_cmd(&a).unwrap();
        assert_eq!(code, 0, "output: {out}");
        assert!(out.contains("gap"), "output: {out}");
        assert!(out.contains("theorem"), "output: {out}");
    }

    #[test]
    fn adversary_capped_reports_failure() {
        let a = AdversaryArgs {
            inv_eps: 16,
            k: 6,
            target: SummaryKind::GkCapped,
            budget: 6,
        };
        let (out, code) = run_adversary_cmd(&a).unwrap();
        // A summary that answers wrongly still lets the run finish.
        assert_eq!(code, 0, "output: {out}");
        assert!(out.contains("FAILING QUERY"), "output: {out}");
    }

    #[test]
    fn compare_command_end_to_end() {
        let c = CompareArgs {
            eps: 0.05,
            expected_n: 1_000,
            seed: 1,
        };
        let data: String = (1..=1000).map(|i| format!("{i}\n")).collect();
        let out = run_compare(&c, data.as_bytes()).unwrap();
        for name in ["gk", "gk-greedy", "mrl", "kll", "ckms", "reservoir"] {
            assert!(out.contains(name), "missing {name} in: {out}");
        }
    }
}
