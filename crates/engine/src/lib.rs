//! `netart-engine` — the resilient execution layer behind `netart
//! batch` and `netart serve`.
//!
//! The per-run robustness work (budgets, salvage, the doctor, fault
//! injection) hardens *one* pipeline invocation; this crate makes a
//! *fleet* of invocations survivable. Both front ends run on one
//! resident worker pool, [`Service`], which owns the engine's only
//! watchdog and only panic boundary:
//!
//! * admission control on a bounded queue that sheds instead of
//!   queueing unboundedly ([`queue::BoundedQueue`]);
//! * per-request panic isolation — a panicking handler resolves its
//!   [`Ticket`] as [`TicketOutcome::Panicked`], never a dead worker;
//! * a wall-clock watchdog that trips each request's cooperative
//!   [`CancelToken`] (threaded by the caller into
//!   `route::BudgetMeter`) at its deadline, so a hung net cannot
//!   wedge a worker;
//! * graceful drain: once the drain token trips, in-flight requests
//!   get a grace period to finish before their tokens are cancelled.
//!
//! [`run`] is the batch policy over that pool: one ticket per
//! attempt, retry with exponential backoff and deterministic jitter
//! for *transient* failures, a circuit breaker that quarantines
//! inputs which fail every retry, and `skipped` records for jobs not
//! started before drain — the manifest is always complete. The
//! outcome is a deterministic [`BatchManifest`]: records sorted by
//! input path, every wall-clock quantity strippable via
//! [`BatchManifest::normalized`], so `--jobs N` and `--jobs 1` runs
//! compare byte-for-byte.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod cache;
mod flight;
mod queue;
mod service;
mod supervisor;

use std::panic::catch_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use netart_obs::{BatchManifest, JobRecord, JobStatus, QuarantineReport};
pub use netart_route::CancelToken;
use tracing::{debug, warn};

pub use cache::{ByteCache, CacheStats};
pub use flight::SingleFlight;
pub use queue::{BoundedQueue, TryPushError};
pub use service::{Service, ServiceConfig, SubmitError, Ticket, TicketOutcome};
pub use supervisor::{ShardAction, ShardPhase, ShardTable, SupervisorConfig};

/// Engine tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads (`--jobs`). Clamped to at least 1.
    pub workers: u32,
    /// Attempts per job before the circuit breaker quarantines it
    /// (1 = no retries). Clamped to at least 1.
    pub max_attempts: u32,
    /// Wall-clock allowance per attempt before the watchdog cancels
    /// it; `None` for no watchdog.
    pub job_timeout: Option<Duration>,
    /// How long in-flight attempts may keep running after drain is
    /// requested before their tokens are cancelled.
    pub drain_grace: Duration,
    /// First retry delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on any retry delay.
    pub backoff_cap: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            max_attempts: 3,
            job_timeout: None,
            drain_grace: Duration::from_secs(5),
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// What one attempt sees of its execution context.
#[derive(Debug, Clone)]
pub struct JobContext {
    /// This attempt's cancellation token. The job function should
    /// thread it into `RouteConfig::with_cancel` (and may poll it at
    /// its own checkpoints); the watchdog trips it on timeout and on
    /// drain-grace expiry.
    pub cancel: CancelToken,
    /// 1-based attempt number.
    pub attempt: u32,
    /// Whether this is the final attempt — the job function may
    /// accept a degraded result here that it would retry otherwise.
    pub last_attempt: bool,
    /// How long the request sat in the admission queue before a
    /// worker picked it up. Near zero for [`run`]'s attempts, which
    /// are submitted only when a worker is free.
    pub queue_wait: Duration,
}

/// A successful attempt.
#[derive(Debug, Clone, Default)]
pub struct JobSuccess {
    /// The attempt's run report, if the pipeline produced one.
    pub report: Option<netart_obs::RunReport>,
    /// Degradations the attempt recorded; `0` means a clean `ok` job.
    pub degradations: usize,
}

/// A failed attempt.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Human-readable cause (becomes the record's `error`).
    pub message: String,
    /// Whether retrying could plausibly succeed (injected faults,
    /// budget exhaustion, timeouts). Permanent failures — parse
    /// errors, I/O — fail the job on the spot.
    pub transient: bool,
}

impl JobFailure {
    /// A transient (retryable) failure.
    pub fn transient(message: impl Into<String>) -> Self {
        JobFailure {
            message: message.into(),
            transient: true,
        }
    }

    /// A permanent failure: no retry will be attempted.
    pub fn permanent(message: impl Into<String>) -> Self {
        JobFailure {
            message: message.into(),
            transient: false,
        }
    }
}

/// A callback observing freshly quarantined jobs; see
/// [`set_quarantine_hook`].
pub type QuarantineHook = Box<dyn Fn(&JobRecord) + Send + Sync>;

/// The process-wide quarantine observer. The CLI points this at the
/// flight recorder so a tripped circuit breaker leaves a blackbox dump
/// behind; it is a `Mutex<Option<..>>` rather than a `OnceLock`
/// precisely so in-process tests can install, inspect, and clear it.
static QUARANTINE_HOOK: Mutex<Option<QuarantineHook>> = Mutex::new(None);

/// Installs (with `Some`) or clears (with `None`) the process-wide
/// quarantine hook. The hook runs on the thread that exhausted the
/// job's retries, after the quarantined [`JobRecord`] is fully built
/// but before it lands in the manifest — keep it cheap and never
/// panic inside it.
pub fn set_quarantine_hook(hook: Option<QuarantineHook>) {
    *QUARANTINE_HOOK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = hook;
}

/// Runs the installed quarantine hook, if any, on a freshly
/// quarantined record.
fn notify_quarantine(record: &JobRecord) {
    let guard = QUARANTINE_HOOK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(hook) = guard.as_ref() {
        hook(record);
    }
}

/// FNV-1a, the deterministic jitter source: two runs of the same
/// batch back off identically, keeping retries reproducible.
fn fnv1a(input: &str, attempt: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in input.bytes().chain(attempt.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The delay before retry number `attempt + 1`, parameterised by its
/// knobs so other supervising layers (the serve shard supervisor's
/// respawn loop) share the exact engine behaviour: exponential in the
/// 1-based `attempt` with a +0‥25% jitter derived deterministically
/// from `seed`, capped at `cap` (before jitter).
pub fn backoff_schedule(base: Duration, cap: Duration, seed: &str, attempt: u32) -> Duration {
    let grown = base.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
    let grown = grown.min(cap);
    let jitter_span = grown.as_nanos() as u64 / 4;
    if jitter_span == 0 {
        return grown;
    }
    grown + Duration::from_nanos(fnv1a(seed, attempt) % jitter_span)
}

/// Sleeps for `total`, waking early when `drain` trips.
fn interruptible_sleep(total: Duration, drain: &CancelToken) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline {
        if drain.is_cancelled() {
            return;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(left.min(service::WATCHDOG_TICK));
    }
}

/// One attempt as submitted to the pool: input, attempt number, and
/// whether it is the last one.
type Attempt = (String, u32, bool);

/// The batch pool: one [`Service`] whose handler runs one attempt.
type Pool = Service<Attempt, Result<JobSuccess, JobFailure>>;

/// Runs every `input` through `job` and aggregates the outcomes.
///
/// `job` is called as `job(input, &ctx)` and must honour
/// `ctx.cancel`; it may be called multiple times for the same input
/// (retries). A panicking call counts as a transient attempt failure.
/// `drain` is the external stop signal (the CLI trips it from its
/// SIGINT/SIGTERM handler); the pool honours it directly, and shutting
/// the pool down leaves it tripped. `tool` names the manifest producer.
///
/// Each attempt is one [`Service`] ticket whose deadline is
/// `config.job_timeout`. `workers` driver threads each keep at most
/// one ticket outstanding, so an attempt never waits for a worker
/// and the deadline bounds the attempt alone. The drivers run no
/// user code; they only classify outcomes, back off, retry and
/// quarantine.
///
/// Always returns a complete manifest: one record per input, sorted
/// by input path, whatever happened.
pub fn run<F>(
    tool: &str,
    inputs: &[String],
    config: &EngineConfig,
    drain: &CancelToken,
    job: F,
) -> BatchManifest
where
    F: Fn(&str, &JobContext) -> Result<JobSuccess, JobFailure> + Send + Sync + 'static,
{
    let started = Instant::now();
    let workers = (config.workers.max(1) as usize).min(inputs.len().max(1));
    let service: Pool = Service::new(
        &ServiceConfig {
            workers: workers as u32,
            queue_depth: workers,
            drain_grace: config.drain_grace,
        },
        drain.clone(),
        move |(input, attempt, last_attempt): Attempt, ctx| {
            // Worker-isolation fault point: fires per attempt, before
            // the pipeline.
            if let Some(kind) = netart_fault::fire(netart_fault::sites::ENGINE_JOB) {
                return Err(JobFailure::transient(format!(
                    "injected `{kind}` fault at engine.job"
                )));
            }
            let ctx = JobContext {
                attempt,
                last_attempt,
                ..ctx.clone()
            };
            job(&input, &ctx)
        },
    );
    // Hands out input indices; `Relaxed` because it publishes no data.
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<JobRecord>> = Mutex::new(Vec::with_capacity(inputs.len()));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let Some(input) = inputs.get(next.fetch_add(1, Ordering::Relaxed)) else {
                    return;
                };
                let record = run_job(input, config, drain, &service);
                records
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(record);
            });
        }
    });
    // Read before shutdown, which trips the drain token itself.
    let drained = drain.is_cancelled();
    service.shutdown();

    // Aggregation fault point: the manifest build must survive an
    // injected panic just like a job must.
    if catch_unwind(|| netart_fault::fire_hard(netart_fault::sites::ENGINE_MANIFEST)).is_err() {
        warn!("injected fault at manifest aggregation survived");
    }

    let records = records.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut manifest = BatchManifest::new(tool, workers as u32, drained, records);
    manifest.summary.duration_ns = started.elapsed().as_nanos() as u64;
    manifest
}

/// Runs one job to a terminal status: one ticket per attempt, retry
/// classification, backoff, and the quarantine circuit breaker.
fn run_job(input: &str, config: &EngineConfig, drain: &CancelToken, service: &Pool) -> JobRecord {
    let started = Instant::now();
    let max_attempts = config.max_attempts.max(1);
    let mut last_error = String::new();

    for attempt in 1..=max_attempts {
        let request = (input.to_owned(), attempt, attempt == max_attempts);
        let outcome = match service.submit(request, config.job_timeout) {
            Ok((ticket, _)) => ticket.wait(),
            // A refusal means drain: each driver holds at most one
            // ticket and `queue_depth == workers`, so the queue is never
            // full. A job never started is skipped; one between
            // attempts (backoff included) is cancelled.
            Err(_) if attempt == 1 => {
                return JobRecord {
                    duration_ns: 0,
                    ..finish(input, JobStatus::Skipped, 0, started, 0, None, None)
                };
            }
            Err(_) => {
                return finish(
                    input,
                    JobStatus::Failed,
                    attempt - 1,
                    started,
                    0,
                    Some(format!("cancelled before retry (drain): {last_error}")),
                    None,
                );
            }
        };

        let failure = match outcome {
            TicketOutcome::Finished(Ok(success)) => {
                let status = if success.degradations == 0 {
                    JobStatus::Ok
                } else {
                    JobStatus::Degraded
                };
                return finish(
                    input,
                    status,
                    attempt,
                    started,
                    success.degradations,
                    None,
                    success.report,
                );
            }
            TicketOutcome::Finished(Err(failure)) => failure,
            TicketOutcome::Panicked(message) => JobFailure::transient(message),
        };
        last_error = failure.message.clone();
        debug!(
            "job attempt failed",
            input = input,
            attempt = attempt as u64,
            transient = failure.transient,
            error = failure.message.as_str(),
        );

        // Drain-cancelled attempts are not retried: the batch is
        // shutting down, so the job resolves as failed (cancelled).
        if drain.is_cancelled() {
            return finish(
                input,
                JobStatus::Failed,
                attempt,
                started,
                0,
                Some(format!("cancelled during drain: {last_error}")),
                None,
            );
        }
        if !failure.transient {
            return finish(input, JobStatus::Failed, attempt, started, 0, Some(last_error), None);
        }
        if attempt < max_attempts {
            let delay = backoff_schedule(config.backoff_base, config.backoff_cap, input, attempt);
            interruptible_sleep(delay, drain);
        }
    }

    // Circuit breaker: every retry burned on transient symptoms.
    warn!(
        "job quarantined",
        input = input,
        attempts = max_attempts as u64,
        error = last_error.as_str(),
    );
    let mut record = finish(
        input,
        JobStatus::Quarantined,
        max_attempts,
        started,
        0,
        Some(last_error.clone()),
        None,
    );
    record.quarantine = Some(QuarantineReport {
        after_attempts: max_attempts,
        symptom: last_error,
    });
    notify_quarantine(&record);
    record
}

#[allow(clippy::too_many_arguments)]
fn finish(
    input: &str,
    status: JobStatus,
    attempts: u32,
    started: Instant,
    degradations: usize,
    error: Option<String>,
    report: Option<netart_obs::RunReport>,
) -> JobRecord {
    JobRecord {
        input: input.to_owned(),
        status,
        attempts,
        duration_ns: started.elapsed().as_nanos() as u64,
        degradations,
        error,
        quarantine: None,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn fast_config(workers: u32) -> EngineConfig {
        EngineConfig {
            workers,
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..EngineConfig::default()
        }
    }

    fn inputs(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn clean_jobs_all_ok() {
        let manifest = run(
            "test",
            &inputs(&["c", "a", "b"]),
            &fast_config(2),
            &CancelToken::new(),
            |_, _| Ok(JobSuccess::default()),
        );
        assert_eq!(manifest.summary.ok, 3);
        assert_eq!(manifest.exit_code(), 0);
        let order: Vec<&str> = manifest.jobs.iter().map(|j| j.input.as_str()).collect();
        assert_eq!(order, ["a", "b", "c"], "records sort by input path");
        assert!(manifest.jobs.iter().all(|j| j.attempts == 1));
        assert!(!manifest.drained);
    }

    #[test]
    fn degraded_jobs_counted_and_exit_two() {
        let manifest = run(
            "test",
            &inputs(&["a"]),
            &fast_config(1),
            &CancelToken::new(),
            |_, _| {
                Ok(JobSuccess {
                    report: None,
                    degradations: 2,
                })
            },
        );
        assert_eq!(manifest.summary.degraded, 1);
        assert_eq!(manifest.jobs[0].status, JobStatus::Degraded);
        assert_eq!(manifest.jobs[0].degradations, 2);
        assert_eq!(manifest.exit_code(), 2);
    }

    #[test]
    fn transient_failure_retries_then_succeeds() {
        let calls = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&calls);
        let manifest = run(
            "test",
            &inputs(&["flaky"]),
            &fast_config(1),
            &CancelToken::new(),
            move |_, ctx| {
                counter.fetch_add(1, Ordering::Relaxed);
                if ctx.attempt < 2 {
                    Err(JobFailure::transient("transient hiccup"))
                } else {
                    Ok(JobSuccess::default())
                }
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(manifest.jobs[0].status, JobStatus::Ok);
        assert_eq!(manifest.jobs[0].attempts, 2);
    }

    #[test]
    fn exhausted_transient_retries_quarantine() {
        let manifest = run(
            "test",
            &inputs(&["poison", "fine"]),
            &fast_config(2),
            &CancelToken::new(),
            |input, _| {
                if input == "poison" {
                    Err(JobFailure::transient("always broken"))
                } else {
                    Ok(JobSuccess::default())
                }
            },
        );
        let poison = manifest.jobs.iter().find(|j| j.input == "poison").unwrap();
        assert_eq!(poison.status, JobStatus::Quarantined);
        assert_eq!(poison.attempts, 3);
        assert_eq!(poison.error.as_deref(), Some("always broken"));
        let quarantine = poison.quarantine.as_ref().expect("breaker context recorded");
        assert_eq!(quarantine.after_attempts, 3);
        assert_eq!(quarantine.symptom, "always broken");
        let fine = manifest.jobs.iter().find(|j| j.input == "fine").unwrap();
        assert_eq!(fine.status, JobStatus::Ok, "poison does not starve the batch");
        assert_eq!(manifest.exit_code(), 2);
    }

    #[test]
    fn quarantine_hook_fires_once_per_quarantined_job() {
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        set_quarantine_hook(Some(Box::new(move |record| {
            sink.lock().unwrap().push(record.input.clone());
        })));
        // Unique input names: other tests' quarantines may fire the
        // global hook while it is installed.
        let manifest = run(
            "test",
            &inputs(&["hook_poison", "hook_fine"]),
            &fast_config(2),
            &CancelToken::new(),
            |input, _| {
                if input == "hook_poison" {
                    Err(JobFailure::transient("always broken"))
                } else {
                    Ok(JobSuccess::default())
                }
            },
        );
        set_quarantine_hook(None);
        let calls = seen.lock().unwrap();
        assert_eq!(
            calls.iter().filter(|i| *i == "hook_poison").count(),
            1,
            "hook sees the quarantined input exactly once: {calls:?}"
        );
        assert!(!calls.iter().any(|i| i == "hook_fine"), "clean jobs never hook");
        let poison = manifest.jobs.iter().find(|j| j.input == "hook_poison").unwrap();
        assert!(poison.quarantine.is_some(), "record was complete when the hook ran");
    }

    #[test]
    fn permanent_failure_fails_without_retry() {
        let calls = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&calls);
        let manifest = run(
            "test",
            &inputs(&["broken"]),
            &fast_config(1),
            &CancelToken::new(),
            move |_, _| {
                counter.fetch_add(1, Ordering::Relaxed);
                Err(JobFailure::permanent("parse error"))
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 1, "permanent failures do not retry");
        assert_eq!(manifest.jobs[0].status, JobStatus::Failed);
        assert_eq!(manifest.jobs[0].attempts, 1);
    }

    #[test]
    fn panicking_job_is_contained_and_quarantined() {
        let manifest = run(
            "test",
            &inputs(&["bomb", "calm"]),
            &fast_config(2),
            &CancelToken::new(),
            |input, _| {
                if input == "bomb" {
                    panic!("boom at {input}");
                }
                Ok(JobSuccess::default())
            },
        );
        let bomb = manifest.jobs.iter().find(|j| j.input == "bomb").unwrap();
        assert_eq!(bomb.status, JobStatus::Quarantined, "panics count as transient");
        assert_eq!(bomb.attempts, 3);
        assert!(bomb.error.as_deref().unwrap().contains("boom"));
        let calm = manifest.jobs.iter().find(|j| j.input == "calm").unwrap();
        assert_eq!(calm.status, JobStatus::Ok, "the pool survives the panic");
    }

    #[test]
    fn pre_drained_batch_skips_everything() {
        let drain = CancelToken::new();
        drain.cancel();
        let manifest = run(
            "test",
            &inputs(&["a", "b"]),
            &fast_config(2),
            &drain,
            |_, _| Ok(JobSuccess::default()),
        );
        assert_eq!(manifest.summary.skipped, 2);
        assert!(manifest.drained);
        assert!(manifest.jobs.iter().all(|j| j.attempts == 0));
    }

    #[test]
    fn watchdog_cancels_a_hung_attempt() {
        let config = EngineConfig {
            workers: 1,
            max_attempts: 1,
            job_timeout: Some(Duration::from_millis(30)),
            ..fast_config(1)
        };
        let manifest = run(
            "test",
            &inputs(&["hang"]),
            &config,
            &CancelToken::new(),
            |_, ctx| {
                // A cooperative busy loop, like a router polling its
                // meter: it only ends when the watchdog trips us.
                let hung_since = Instant::now();
                while !ctx.cancel.is_cancelled() {
                    assert!(
                        hung_since.elapsed() < Duration::from_secs(10),
                        "watchdog never fired"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(JobFailure::transient("cancelled by watchdog"))
            },
        );
        assert_eq!(manifest.jobs[0].status, JobStatus::Quarantined);
    }

    #[test]
    fn drain_cancels_in_flight_after_grace_and_skips_queued() {
        let drain = CancelToken::new();
        let config = EngineConfig {
            workers: 1,
            max_attempts: 3,
            drain_grace: Duration::from_millis(20),
            ..fast_config(1)
        };
        let drain_for_job = drain.clone();
        let manifest = run(
            "test",
            &inputs(&["running", "queued-1", "queued-2"]),
            &config,
            &drain,
            move |input, ctx| {
                if input == "running" {
                    // First job trips the drain itself, then hangs
                    // until the grace expires and cancels it.
                    drain_for_job.cancel();
                    while !ctx.cancel.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    return Err(JobFailure::transient("cancelled mid-flight"));
                }
                Ok(JobSuccess::default())
            },
        );
        assert!(manifest.drained);
        let running = manifest.jobs.iter().find(|j| j.input == "running").unwrap();
        assert_eq!(running.status, JobStatus::Failed, "in-flight resolves as cancelled");
        assert!(running.error.as_deref().unwrap().contains("cancelled"));
        assert_eq!(running.attempts, 1, "no retries during drain");
        for queued in manifest.jobs.iter().filter(|j| j.input.starts_with("queued")) {
            assert_eq!(queued.status, JobStatus::Skipped);
        }
    }

    #[test]
    fn parallel_and_serial_manifests_normalise_identically() {
        let job = |input: &str, _ctx: &JobContext| {
            if input.ends_with("bad") {
                Err(JobFailure::permanent("expected failure"))
            } else {
                Ok(JobSuccess::default())
            }
        };
        let inputs = inputs(&["w", "x-bad", "y", "z"]);
        let serial = run("test", &inputs, &fast_config(1), &CancelToken::new(), job);
        let parallel = run("test", &inputs, &fast_config(4), &CancelToken::new(), job);
        // Worker count is a run parameter, not an outcome; align it
        // like the CLI determinism test does.
        let mut parallel = parallel.normalized();
        parallel.jobs_in_flight = serial.jobs_in_flight;
        assert_eq!(serial.normalized().to_json_string(), parallel.to_json_string());
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let config = EngineConfig::default();
        let delay = |input: &str, attempt: u32| {
            backoff_schedule(config.backoff_base, config.backoff_cap, input, attempt)
        };
        assert_eq!(delay("same", 2), delay("same", 2));
        assert_ne!(delay("same", 1), delay("other", 1), "jitter varies by input");
        let big = delay("x", 30);
        assert!(big <= config.backoff_cap + config.backoff_cap / 4);
    }

    #[test]
    fn job_timeout_bounds_each_attempt_not_the_wait_for_a_worker() {
        // Three 40 ms jobs on one worker take 120 ms in all; a 100 ms
        // timeout must measure each attempt from its own start.
        let config = EngineConfig {
            max_attempts: 1,
            job_timeout: Some(Duration::from_millis(100)),
            ..fast_config(1)
        };
        let manifest = run(
            "test",
            &inputs(&["a", "b", "c"]),
            &config,
            &CancelToken::new(),
            |_, ctx| {
                let started = Instant::now();
                while started.elapsed() < Duration::from_millis(40) {
                    if ctx.cancel.is_cancelled() {
                        return Err(JobFailure::transient("cancelled by watchdog"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(JobSuccess::default())
            },
        );
        assert_eq!(manifest.summary.ok, 3, "{:?}", manifest.jobs);
    }

    #[test]
    fn drain_during_backoff_ends_the_job_without_waiting_out_the_delay() {
        let config = EngineConfig {
            backoff_base: Duration::from_secs(30),
            backoff_cap: Duration::from_secs(30),
            ..fast_config(1)
        };
        let drain = CancelToken::new();
        let trip = {
            let drain = drain.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                drain.cancel();
            })
        };
        let started = Instant::now();
        let manifest = run(
            "test",
            &inputs(&["flaky"]),
            &config,
            &drain,
            |_, _| Err(JobFailure::transient("transient hiccup")),
        );
        trip.join().unwrap();
        assert!(started.elapsed() < Duration::from_secs(5), "waited out the backoff");
        let job = &manifest.jobs[0];
        assert_eq!(job.status, JobStatus::Failed);
        assert_eq!(job.attempts, 1);
        assert!(job.error.as_deref().unwrap().contains("drain"), "{:?}", job.error);
    }
}
