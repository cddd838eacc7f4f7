//! The `netart` umbrella program: the full pipeline in one invocation;
//! see [`netart_cli::run_netart`]. The `report diff` subcommand
//! compares two run-report or heat-map profile files; see
//! [`netart_cli::run_report_diff`]. The `batch` subcommand runs many
//! inputs on a resilient worker pool; see [`netart_cli::run_batch`].
//! The `serve` subcommand keeps the pipeline resident behind an HTTP
//! endpoint; see [`netart_cli::run_serve`]. The `profile` subcommand
//! renders the routing heat map of one design; see
//! [`netart_cli::run_profile`]. The `stress` subcommand generates
//! big-N and adversarial workloads and pushes them through the
//! memory-governed ingestion path; see [`netart_cli::run_stress`].
//! The `blackbox` subcommand renders a flight-recorder dump written by
//! `serve` or `batch` as a timeline; see [`netart_cli::run_blackbox`].
//!
//! Exit codes: 0 clean, 2 degraded (salvaged or ghost-wired nets, or a
//! recovered phase crash; 1 under `--strict`), 1 failed outright.
//! `report diff` exits 0 when clean, 3 on regression, 1 on error.
//! `batch` exits 0 when every job is ok, 2 when any job degraded,
//! failed, was quarantined or skipped, 1 when the batch could not run.
//! `serve` exits 0 on a clean signal-driven drain, 1 when it could not
//! boot.

use std::process::ExitCode;

use netart_cli::exit_with;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    match argv.first().map(String::as_str) {
        Some("batch") => {
            netart_cli::install_drain_handlers();
            exit_with("netart batch", netart_cli::run_batch(rest))
        }
        Some("serve") => {
            netart_cli::install_drain_handlers();
            netart_cli::install_flight_handler();
            exit_with("netart serve", netart_cli::run_serve(rest))
        }
        Some("stress") => exit_with("netart stress", netart_cli::run_stress(rest)),
        Some("profile") => exit_with("netart profile", netart_cli::run_profile(rest)),
        Some("blackbox") => exit_with("netart blackbox", netart_cli::run_blackbox(rest)),
        Some("report") => match argv.get(1).map(String::as_str) {
            Some("diff") => match netart_cli::run_report_diff(&argv[2..]) {
                Ok(out) => {
                    if out.message_to_stderr {
                        eprintln!("{}", out.message);
                    } else {
                        println!("{}", out.message);
                    }
                    if out.regressed {
                        ExitCode::from(3)
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("netart report diff: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("netart report: unknown subcommand (expected `diff`)");
                ExitCode::FAILURE
            }
        },
        _ => exit_with("netart", netart_cli::run_netart(&argv)),
    }
}
