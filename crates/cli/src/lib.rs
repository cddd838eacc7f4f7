//! Command-line schematic diagram generation.
//!
//! The paper shipped its generator as two UNIX programs plus a library
//! tool (Appendices B, E, F). This crate provides the same trio:
//!
//! * **`quinto`** — adds module descriptions to a library directory,
//! * **`pablo [options] net-list call-file [io-file]`** — places a
//!   network (`-p -b -c -e -i -s`, `-g` for a preplaced part),
//! * **`eureka [options] net-list call-file [io-file]`** — routes a
//!   placed diagram (`-u -d -r -l` fixed borders, `-s` swapped
//!   tie-break, `--diagram` for the placement to route),
//! * **`netart [options] net-list call-file [io-file]`** — both phases
//!   in one run, with an ASCII preview (`--art`).
//!
//! One deliberate divergence from 1989: the original `eureka` read only
//! the ESCHER graphic file because the module library lived in a global
//! `USER_LIB` environment variable; here the library is an explicit
//! `-L <dir>` of quinto files and the netlist files are always passed,
//! which keeps runs reproducible. `USER_LIB` is honoured as the default
//! library directory when `-L` is absent.
//!
//! Everything is implemented in this library crate so it can be tested;
//! the binaries are thin wrappers.
//!
//! # Common flags
//!
//! Every entry point — `pablo`, `eureka`, `quinto`, `netart` and
//! `netart profile|stress|batch|serve` — accepts these; each usage line
//! says `[common flags]` and lists only its own flags.
//!
//! * `--input-policy strict|repair|best-effort` — how the doctor treats
//!   defective input (default `strict`).
//! * `--inject site[:nth][:kind][,…]` — arms the fault registry (as
//!   does `NETART_INJECT`); only a `--features fault-injection` build
//!   accepts it, every other build rejects it with a hint.
//! * `--trace-level error|warn|info|debug|trace` and `--log-json` —
//!   the diagnostics stream on stderr (text, or one JSON object per
//!   line at `--trace-level`, default `info`).
//! * `--max-input-bytes b` and `--max-network-bytes b` — the ingestion
//!   budgets (`k`/`m`/`g` suffixes, unlimited when absent). Exceeding
//!   one refuses the run with the `ND015` diagnostic: `input refused:
//!   …`, nothing written, exit 2 (1 under `--strict`).
//!
//! The same code reads these flags for every command that lists them:
//! `--trace-out path` (a Chrome trace-event file, written once the run
//! completes), `--route-timeout ms` / `--max-nodes n` (the per-net
//! routing budget), `--strict` and `-L dir`. At most one of
//! `--report-json -`, `--heat-json -` and `--trace-out -` may claim
//! stdout; the human-readable summary then moves to stderr.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod args;
mod batch;
mod blackbox;
mod commands;
mod common;
mod http;
mod profile;
mod serve;
mod shard;
mod stress;

pub use args::{ArgError, ParsedArgs};
pub use batch::{install_drain_handlers, install_flight_handler, run_batch};
pub use blackbox::run_blackbox;
pub use commands::{
    run_eureka, run_netart, run_pablo, run_quinto, run_report_diff, CliError, DiffOutput,
    RunOutput,
};
pub use common::exit_with;
pub use profile::run_profile;
pub use serve::run_serve;
pub use stress::run_stress;
