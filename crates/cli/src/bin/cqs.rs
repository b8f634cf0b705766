//! The `cqs` binary: thin stdin/stdout shim over `cqs_cli`.

use std::io;
use std::process::ExitCode;

use cqs_cli::{
    parse_args, run_adversary_cmd, run_compare, run_faults_cmd, run_quantiles, run_recover_cmd,
    run_service_cmd, Cli, CliError,
};

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", cqs_cli::USAGE);
            return ExitCode::FAILURE;
        }
    };
    let result = match &cli {
        Cli::Help => {
            println!("{}", cqs_cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Cli::Quantiles(q) => run_quantiles(q, io::stdin().lock()),
        Cli::Compare(c) => run_compare(c, io::stdin().lock()),
        Cli::Adversary(a) => return print_with_code(run_adversary_cmd(a)),
        // Faults carries its own exit-code scheme (see USAGE): the
        // report always prints, the code reflects verdict matching.
        Cli::Faults(fa) => return print_with_code(run_faults_cmd(fa)),
        Cli::Service(s) => {
            // Same exit-code shape as faults/recover; additionally the
            // exported snapshot bytes land at --export (if given) so CI
            // can byte-diff them across --threads values.
            return match run_service_cmd(s) {
                Ok((out, code, bytes)) => {
                    print!("{out}");
                    if let Some(path) = &s.export {
                        if let Err(e) = std::fs::write(path, &bytes) {
                            eprintln!("error: {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                    ExitCode::from(code)
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        // Same shape as faults: the matrix always prints, the code says
        // whether every corruption got its typed verdict.
        Cli::Recover(r) => return print_with_code(run_recover_cmd(r)),
    };
    print_with_code(result.map(|out| (out, 0)))
}

/// Prints a command's report and exits with its code, or reports its
/// error as a failure.
fn print_with_code(result: Result<(String, u8), CliError>) -> ExitCode {
    match result {
        Ok((out, code)) => {
            print!("{out}");
            ExitCode::from(code)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
