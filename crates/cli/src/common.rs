//! Parses the [common flags](crate#common-flags) once per command and
//! applies them: [`CommonArgs`] installs the tracing subscriber, arms
//! the fault registry, builds the ingestion and routing budgets, checks
//! the stdout claim and, at the command boundary, writes the trace and
//! turns an `ND015` refusal into the degraded exit. [`exit_with`] is
//! the one print-and-exit tail of every binary.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use netart::netlist::doctor::InputPolicy;
use netart::netlist::ingest::IngestBudgets;
use netart::obs::{
    DegradationReport, FanoutSubscriber, JsonLinesSubscriber, TextSubscriber, TraceBuffer,
    TraceEventSubscriber,
};
use netart::place::PlaceConfig;
use netart::route::{Budget, NetOrder, RouteConfig};
use netart_govern::MemBudget;

use crate::commands::{parse_bytes, write_or_stdout, CliError, RunOutput};
use crate::{ArgError, ParsedArgs};

/// The value-taking common flags; every command accepts them.
const VALUE_FLAGS: &[&str] = &[
    "input-policy", "inject", "trace-level", "max-input-bytes", "max-network-bytes",
];

/// The streams that write to stdout when given `-`.
const STDOUT_STREAMS: &[&str] = &["report-json", "heat-json", "trace-out"];

/// The common flags of one run, parsed and applied: the subscriber is
/// installed and the fault registry armed.
pub(crate) struct CommonArgs {
    /// `--input-policy`.
    pub(crate) policy: InputPolicy,
    /// `--max-input-bytes` / `--max-network-bytes`.
    pub(crate) budgets: IngestBudgets,
    /// `--route-timeout` / `--max-nodes`.
    pub(crate) route_budget: Budget,
    /// `--strict`: degradation becomes failure.
    pub(crate) strict: bool,
    /// A machine-readable stream claimed stdout.
    message_to_stderr: bool,
    /// The `--trace-out` path and the buffer recording into it.
    trace: Option<(String, TraceBuffer)>,
}

impl CommonArgs {
    /// Parses `argv` with the common flags added to the command's own
    /// `value_flags` and `bool_flags` (see [`ParsedArgs::parse`]), then
    /// applies them.
    pub(crate) fn parse(
        argv: &[String],
        value_flags: &[&str],
        bool_flags: &[&str],
        positionals: (usize, usize),
    ) -> Result<(ParsedArgs, Self), CliError> {
        Self::parse_with(argv, value_flags, bool_flags, positionals, |_| Vec::new())
    }

    /// [`CommonArgs::parse`] with caller-supplied subscribers ahead of
    /// the flag-driven ones — the flight recorders of `netart serve`
    /// and `netart batch --blackbox`.
    pub(crate) fn parse_with(
        argv: &[String],
        value_flags: &[&str],
        bool_flags: &[&str],
        positionals: (usize, usize),
        extra: impl FnOnce(&ParsedArgs) -> Vec<Box<dyn tracing::Subscriber>>,
    ) -> Result<(ParsedArgs, Self), CliError> {
        let values: Vec<&str> = VALUE_FLAGS.iter().chain(value_flags).copied().collect();
        let bools: Vec<&str> = ["log-json"].iter().chain(bool_flags).copied().collect();
        let args = ParsedArgs::parse(argv, &values, &bools, positionals)?;
        let claims: Vec<String> = STDOUT_STREAMS
            .iter()
            .filter(|flag| args.value(flag) == Some("-"))
            .map(|flag| format!("--{flag} -"))
            .collect();
        if claims.len() > 1 {
            return Err(CliError::Other(format!(
                "{} both claim stdout; write at most one stream there",
                claims.join(" and ")
            )));
        }
        let trace = install_subscriber(&args, extra(&args))?;
        arm_faults(&args)?;
        let policy = match args.value("input-policy") {
            None => InputPolicy::Strict,
            Some(s) => s.parse().map_err(|_| ArgError::BadValue {
                flag: "input-policy".into(),
                value: s.into(),
            })?,
        };
        let budget = |flag: &str| -> Result<Arc<MemBudget>, CliError> {
            Ok(Arc::new(match args.value(flag) {
                Some(s) => MemBudget::bytes(parse_bytes(flag, s)?),
                None => MemBudget::unlimited(),
            }))
        };
        let budgets = IngestBudgets {
            input: budget("max-input-bytes")?,
            network: budget("max-network-bytes")?,
        };
        let mut route_budget = Budget::new();
        if args.has("route-timeout") {
            let ms = args.parsed("route-timeout", 0u64)?;
            route_budget = route_budget.with_time_limit(Duration::from_millis(ms));
        }
        if args.has("max-nodes") {
            route_budget = route_budget.with_node_limit(args.parsed("max-nodes", 0u64)?);
        }
        let common = CommonArgs {
            policy,
            budgets,
            route_budget,
            strict: args.has("strict"),
            message_to_stderr: !claims.is_empty(),
            trace: args.value("trace-out").map(str::to_owned).zip(trace),
        };
        Ok((args, common))
    }

    /// A command's outcome, printed where the stdout claim allows and
    /// exiting as `--strict` says.
    pub(crate) fn output(&self, message: String, degraded: bool) -> RunOutput {
        RunOutput {
            message,
            degraded,
            strict: self.strict,
            message_to_stderr: self.message_to_stderr,
        }
    }

    /// The command boundary. A completed run writes its `--trace-out`
    /// document. A refusal by the memory governor — which only happens
    /// during ingestion, before anything is written — becomes the
    /// degraded outcome the `ND015` contract promises.
    pub(crate) fn finish(
        &self,
        result: Result<RunOutput, CliError>,
    ) -> Result<RunOutput, CliError> {
        match result {
            Ok(out) => {
                if let Some((path, buffer)) = &self.trace {
                    write_or_stdout(path, &buffer.to_json_string())?;
                }
                Ok(out)
            }
            Err(CliError::ResourceExhausted { path, message }) => Ok(self.output(
                format!("input refused: {}: {message}", path.display()),
                true,
            )),
            Err(e) => Err(e),
        }
    }
}

/// Installs the subscriber the tracing flags ask for, with `extra`
/// children first, and returns the trace-event buffer when
/// `--trace-out` was given. `--trace-out` records everything the
/// instrumentation offers regardless of the stderr stream's level.
/// Under the `alloc-profile` feature a phase-tag subscriber is always
/// appended, so heap attribution works on an otherwise silent run.
/// Without any of these no subscriber is installed and the library
/// instrumentation stays disabled.
fn install_subscriber(
    args: &ParsedArgs,
    extra: Vec<Box<dyn tracing::Subscriber>>,
) -> Result<Option<TraceBuffer>, CliError> {
    let level = match args.value("trace-level") {
        Some(s) => Some(s.parse::<tracing::Level>().map_err(|_| ArgError::BadValue {
            flag: "trace-level".into(),
            value: s.into(),
        })?),
        None => None,
    };
    let mut children = extra;
    if args.has("log-json") {
        children.push(Box::new(JsonLinesSubscriber::new(
            level.unwrap_or(tracing::Level::INFO),
        )));
    } else if let Some(max) = level {
        children.push(Box::new(TextSubscriber::new(max)));
    }
    let mut buffer = None;
    if args.value("trace-out").is_some() {
        let (subscriber, buf) = TraceEventSubscriber::new(tracing::Level::TRACE);
        children.push(Box::new(subscriber));
        buffer = Some(buf);
    }
    #[cfg(feature = "alloc-profile")]
    children.push(Box::new(netart::obs::PhaseTagSubscriber));
    if !children.is_empty() {
        // Lenient: in-process callers (tests) may install twice; the
        // first subscriber wins, which is fine for a diagnostics
        // stream (a second run's trace buffer then stays empty).
        let _ = tracing::set_global_default(FanoutSubscriber::new(children));
    }
    Ok(buffer)
}

/// Arms the deterministic fault registry from `--inject` and
/// `NETART_INJECT`. Unless the binary was built with `--features
/// fault-injection`, arming anything is an error — the sites compile
/// to nothing.
fn arm_faults(args: &ParsedArgs) -> Result<(), CliError> {
    netart_fault::disarm_all();
    if let Some(specs) = args.value("inject") {
        for spec in specs.split(',').filter(|s| !s.trim().is_empty()) {
            netart_fault::arm(spec.trim()).map_err(CliError::Other)?;
        }
    }
    netart_fault::arm_from_env().map_err(CliError::Other)?;
    Ok(())
}

/// The module library directory: `-L`, falling back to `$USER_LIB`
/// like the paper's tools.
pub(crate) fn library_dir(args: &ParsedArgs) -> Result<PathBuf, CliError> {
    match args.value("L") {
        Some(d) => Ok(PathBuf::from(d)),
        None => std::env::var_os("USER_LIB")
            .map(PathBuf::from)
            .ok_or_else(|| {
                CliError::Other("no module library: pass -L <dir> or set USER_LIB".into())
            }),
    }
}

/// The PABLO configuration of `pablo` and `netart` (Appendix E): `-p`
/// partition size, `-b` box size, `-c` connection limit, `-e`/`-i`/`-s`
/// partition, box and module spacing.
pub(crate) fn place_config(args: &ParsedArgs) -> Result<PlaceConfig, CliError> {
    let mut config = PlaceConfig::new()
        .with_max_part_size(args.parsed("p", 1usize)?)
        .with_max_box_size(args.parsed("b", 1usize)?)
        .with_part_spacing(args.parsed("e", 0i32)?)
        .with_box_spacing(args.parsed("i", 0i32)?)
        .with_module_spacing(args.parsed("s", 0i32)?);
    if args.has("c") {
        config = config.with_max_connections(args.parsed("c", 0usize)?);
    }
    Ok(config)
}

/// `-m margin` (default 4) and `--order def|most|few` (default
/// definition order).
pub(crate) fn margin_and_order(args: &ParsedArgs) -> Result<(i32, NetOrder), CliError> {
    Ok((
        args.parsed("m", 4i32)?,
        args.parsed("order", NetOrder::Definition)?,
    ))
}

/// The EUREKA configuration shared by the routing commands:
/// [`margin_and_order`], the common routing budget, `--no-claims` and
/// `--no-salvage`.
pub(crate) fn route_config(
    args: &ParsedArgs,
    common: &CommonArgs,
) -> Result<RouteConfig, CliError> {
    let (margin, order) = margin_and_order(args)?;
    let mut config = RouteConfig::new()
        .with_margin(margin)
        .with_order(order)
        .with_budget(common.route_budget);
    if args.has("no-claims") {
        config = config.without_claimpoints();
    }
    if args.has("no-salvage") {
        config = config.without_salvage();
    }
    Ok(config)
}

/// One `warning:` line per CLI degradation, each led by a newline.
pub(crate) fn warnings(degs: &[DegradationReport]) -> String {
    degs.iter()
        .map(|d| format!("\nwarning: {}", d.detail.as_deref().unwrap_or(&d.kind)))
        .collect()
}

/// Prints a command's outcome and returns its exit code: the message
/// goes to stdout, or to stderr when a stream claimed stdout; a failed
/// run prints `{prog}: {error}` to stderr and exits 1.
pub fn exit_with(prog: &str, result: Result<RunOutput, CliError>) -> ExitCode {
    match result {
        Ok(out) => {
            if out.message_to_stderr {
                eprintln!("{}", out.message);
            } else {
                println!("{}", out.message);
            }
            out.exit_code()
        }
        Err(e) => {
            eprintln!("{prog}: {e}");
            ExitCode::FAILURE
        }
    }
}
