//! The resident worker pool behind `netart serve` and `netart batch`.
//!
//! Requests arrive one at a time: the server submits one per HTTP
//! request, [`run`](crate::run) one per batch attempt. A [`Service`]
//! is the engine's only pool, watchdog and panic boundary:
//!
//! * **admission control**: [`Service::submit`] *tries* to enqueue on
//!   the bounded queue and hands the request straight back when the
//!   queue is full ([`SubmitError::Busy`]) or draining
//!   ([`SubmitError::Draining`]) — overload sheds, it never queues
//!   unboundedly;
//! * **deadline propagation**: each request carries its own
//!   [`CancelToken`] and optional deadline; the watchdog thread trips
//!   the token when the deadline passes (queue wait included), so the
//!   handler's `BudgetMeter`s breach mid-expansion;
//! * **panic isolation**: the handler runs under `catch_unwind`; a
//!   panicking request resolves its [`Ticket`] as
//!   [`TicketOutcome::Panicked`] and the worker lives on;
//! * **graceful drain**: once the drain token passed to
//!   [`Service::new`] trips (or [`Service::drain`] trips it),
//!   admission stops and in-flight plus already-queued requests may
//!   finish; once the drain grace expires the watchdog cancels
//!   whatever is still running, so drain completes within the grace
//!   bound.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netart_obs::panic_message;

use crate::queue::{BoundedQueue, TryPushError};
use crate::{CancelToken, JobContext};

/// How often the watchdog scans in-flight requests (and how finely
/// [`run`](crate::run)'s backoff sleep notices drain).
pub(crate) const WATCHDOG_TICK: Duration = Duration::from_millis(10);

/// One watchdog slot: the in-flight request of one worker.
struct Watch {
    cancel: CancelToken,
    deadline: Option<Instant>,
}

/// Tuning knobs for a resident [`Service`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads. Clamped to at least 1.
    pub workers: u32,
    /// Requests admitted to the queue beyond the ones already running;
    /// the `try_submit` bound that turns overload into `429`s. Clamped
    /// to at least 1.
    pub queue_depth: usize,
    /// How long in-flight requests may keep running after the drain
    /// token trips before their tokens are cancelled.
    pub drain_grace: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_depth: 4,
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// Why [`Service::submit`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — shed the load (`429 Retry-After`).
    Busy,
    /// The service is draining — stop sending (`503`).
    Draining,
}

/// How one submitted request resolved.
#[derive(Debug, Clone)]
pub enum TicketOutcome<R> {
    /// The handler returned.
    Finished(R),
    /// The handler panicked (payload message); the worker survived.
    Panicked(String),
}

struct TicketSlot<R> {
    outcome: Mutex<Option<TicketOutcome<R>>>,
    done: Condvar,
}

/// The caller's handle on a submitted request.
pub struct Ticket<R> {
    slot: Arc<TicketSlot<R>>,
}

impl<R> std::fmt::Debug for Ticket<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl<R> Ticket<R> {
    /// Blocks until the request resolves. Resolution is guaranteed:
    /// every admitted request is either executed (panics included) or
    /// — never — lost, because workers only exit once the closed
    /// queue is empty.
    pub fn wait(self) -> TicketOutcome<R> {
        let mut outcome = self
            .slot
            .outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(resolved) = outcome.take() {
                return resolved;
            }
            outcome = self
                .slot
                .done
                .wait(outcome)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Task<Req, R> {
    req: Req,
    cancel: CancelToken,
    deadline: Option<Instant>,
    enqueued: Instant,
    slot: Arc<TicketSlot<R>>,
}

struct ServiceShared<Req, R> {
    queue: BoundedQueue<Task<Req, R>>,
    watches: Vec<Mutex<Option<Watch>>>,
    drain: CancelToken,
    stopped: AtomicBool,
    workers_alive: AtomicUsize,
    in_flight: AtomicUsize,
    served: AtomicU64,
    drain_grace: Duration,
}

/// A resident worker pool accepting one request at a time.
pub struct Service<Req: Send + 'static, R: Send + 'static> {
    shared: Arc<ServiceShared<Req, R>>,
    threads: Vec<JoinHandle<()>>,
}

impl<Req: Send + 'static, R: Send + 'static> Service<Req, R> {
    /// Boots the worker pool and watchdog. `handler` runs once per
    /// admitted request with a [`JobContext`] whose token it must
    /// thread into its budget meters (`attempt` is always 1; callers
    /// that retry say so in the request). `drain` is the stop signal
    /// the service honours: once it trips, admission closes and the
    /// drain-grace clock starts.
    pub fn new<F>(config: &ServiceConfig, drain: CancelToken, handler: F) -> Self
    where
        F: Fn(Req, &JobContext) -> R + Send + Sync + 'static,
    {
        let workers = config.workers.max(1) as usize;
        let shared = Arc::new(ServiceShared {
            queue: BoundedQueue::new(config.queue_depth),
            watches: (0..workers).map(|_| Mutex::new(None)).collect(),
            drain,
            stopped: AtomicBool::new(false),
            workers_alive: AtomicUsize::new(workers),
            in_flight: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            drain_grace: config.drain_grace,
        });
        let handler = Arc::new(handler);
        let mut threads = Vec::with_capacity(workers + 1);
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            let handler = Arc::clone(&handler);
            threads.push(std::thread::spawn(move || {
                while let Some(task) = shared.queue.pop() {
                    shared.in_flight.fetch_add(1, Ordering::SeqCst);
                    *shared.watches[w]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = Some(Watch {
                        cancel: task.cancel.clone(),
                        deadline: task.deadline,
                    });
                    let ctx = JobContext {
                        cancel: task.cancel.clone(),
                        attempt: 1,
                        last_attempt: true,
                        queue_wait: task.enqueued.elapsed(),
                    };
                    let outcome =
                        match catch_unwind(AssertUnwindSafe(|| handler(task.req, &ctx))) {
                            Ok(result) => TicketOutcome::Finished(result),
                            Err(payload) => {
                                TicketOutcome::Panicked(panic_message(payload.as_ref()))
                            }
                        };
                    *shared.watches[w]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = None;
                    *task
                        .slot
                        .outcome
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = Some(outcome);
                    task.slot.done.notify_all();
                    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                    shared.served.fetch_add(1, Ordering::SeqCst);
                }
                shared.workers_alive.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        // The watchdog: per-request deadlines always, drain-grace
        // expiry once draining.
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                let mut drain_deadline: Option<Instant> = None;
                while !shared.stopped.load(Ordering::Acquire) {
                    let now = Instant::now();
                    if shared.drain.is_cancelled() && drain_deadline.is_none() {
                        drain_deadline = Some(now + shared.drain_grace);
                    }
                    let drain_expired = drain_deadline.is_some_and(|d| now >= d);
                    for watch in &shared.watches {
                        let guard = watch.lock().unwrap_or_else(PoisonError::into_inner);
                        if let Some(watch) = guard.as_ref() {
                            if drain_expired || watch.deadline.is_some_and(|d| now >= d) {
                                watch.cancel.cancel();
                            }
                        }
                    }
                    std::thread::sleep(WATCHDOG_TICK);
                }
            }));
        }
        Service { shared, threads }
    }

    /// Tries to admit one request. `deadline` bounds the request's
    /// total latency — queue wait included — by tripping its token;
    /// the returned token is the same one the handler's context
    /// carries, so the caller can observe (or force) cancellation.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when the queue is full,
    /// [`SubmitError::Draining`] once the drain token has tripped.
    pub fn submit(
        &self,
        req: Req,
        deadline: Option<Duration>,
    ) -> Result<(Ticket<R>, CancelToken), SubmitError> {
        if self.shared.drain.is_cancelled() {
            return Err(SubmitError::Draining);
        }
        let cancel = CancelToken::new();
        let slot = Arc::new(TicketSlot {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        });
        let task = Task {
            req,
            cancel: cancel.clone(),
            deadline: deadline.map(|d| Instant::now() + d),
            enqueued: Instant::now(),
            slot: Arc::clone(&slot),
        };
        match self.shared.queue.try_push(task) {
            Ok(()) => Ok((Ticket { slot }, cancel)),
            Err(TryPushError::Full(_)) => Err(SubmitError::Busy),
            Err(TryPushError::Closed(_)) => Err(SubmitError::Draining),
        }
    }

    /// Trips the drain token and closes the queue. In-flight and
    /// already-queued requests keep running until done or until the
    /// drain grace expires and the watchdog cancels them; either way
    /// every outstanding [`Ticket`] resolves.
    pub fn drain(&self) {
        self.shared.drain.cancel();
        self.shared.queue.close();
    }

    /// Whether a started drain has finished: admission is closed and
    /// every worker has exited (queue empty, nothing in flight).
    pub fn drained(&self) -> bool {
        self.shared.drain.is_cancelled()
            && self.shared.workers_alive.load(Ordering::SeqCst) == 0
    }

    /// Requests currently executing.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Requests admitted but not yet started.
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// Requests resolved since boot (panicked ones included).
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::SeqCst)
    }

    /// Drains (if not already draining) and joins every thread.
    pub fn shutdown(mut self) {
        self.drain();
        self.join_threads();
    }

    fn join_threads(&mut self) {
        // Workers exit once the closed queue is empty; stop the
        // watchdog after them so drain-grace cancellation keeps
        // working to the end.
        let workers = self.threads.len().saturating_sub(1);
        for handle in self.threads.drain(..workers) {
            let _ = handle.join();
        }
        self.shared.stopped.store(true, Ordering::Release);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<Req: Send + 'static, R: Send + 'static> Drop for Service<Req, R> {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.drain();
            self.join_threads();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn echo_service(config: &ServiceConfig) -> Service<u32, u32> {
        Service::new(config, CancelToken::new(), |req, _ctx| req * 2)
    }

    #[test]
    fn submit_and_wait_round_trips() {
        let service = echo_service(&ServiceConfig::default());
        let (ticket, _) = service.submit(21, None).expect("admitted");
        match ticket.wait() {
            TicketOutcome::Finished(v) => assert_eq!(v, 42),
            TicketOutcome::Panicked(m) => panic!("unexpected panic: {m}"),
        }
        service.shutdown();
    }

    #[test]
    fn saturated_queue_sheds_deterministically() {
        // One worker, one queue slot. The running request blocks on a
        // channel, the second occupies the only slot, the third MUST
        // be shed — no timing involved.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let service: Service<u32, u32> = Service::new(
            &ServiceConfig {
                workers: 1,
                queue_depth: 1,
                ..ServiceConfig::default()
            },
            CancelToken::new(),
            move |req, _ctx| {
                started_tx.send(()).ok();
                release_rx
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .recv()
                    .ok();
                req
            },
        );
        let (running, _) = service.submit(1, None).expect("first request runs");
        started_rx.recv().expect("worker picked it up");
        let (queued, _) = service.submit(2, None).expect("second request queues");
        assert_eq!(service.queued(), 1);
        assert_eq!(service.in_flight(), 1);
        assert_eq!(
            service.submit(3, None).unwrap_err(),
            SubmitError::Busy,
            "a full queue sheds instead of queueing unboundedly"
        );
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        assert!(matches!(running.wait(), TicketOutcome::Finished(1)));
        assert!(matches!(queued.wait(), TicketOutcome::Finished(2)));
        service.shutdown();
    }

    #[test]
    fn a_panicking_request_resolves_and_the_worker_survives() {
        let service: Service<u32, u32> = Service::new(
            &ServiceConfig {
                workers: 1,
                queue_depth: 2,
                ..ServiceConfig::default()
            },
            CancelToken::new(),
            |req, _ctx| {
                if req == 13 {
                    panic!("unlucky request");
                }
                req
            },
        );
        let (bomb, _) = service.submit(13, None).expect("admitted");
        match bomb.wait() {
            TicketOutcome::Panicked(m) => assert!(m.contains("unlucky"), "{m}"),
            TicketOutcome::Finished(v) => panic!("expected a panic, got {v}"),
        }
        let (calm, _) = service.submit(7, None).expect("the worker survived");
        assert!(matches!(calm.wait(), TicketOutcome::Finished(7)));
        service.shutdown();
    }

    #[test]
    fn deadline_trips_the_request_token() {
        let service: Service<(), bool> = Service::new(
            &ServiceConfig {
                workers: 1,
                queue_depth: 1,
                ..ServiceConfig::default()
            },
            CancelToken::new(),
            |(), ctx| {
                let hung_since = Instant::now();
                while !ctx.cancel.is_cancelled() {
                    if hung_since.elapsed() > Duration::from_secs(10) {
                        return false; // watchdog never fired
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                true
            },
        );
        let (ticket, _) = service
            .submit((), Some(Duration::from_millis(30)))
            .expect("admitted");
        match ticket.wait() {
            TicketOutcome::Finished(cancelled) => {
                assert!(cancelled, "the deadline must cancel the request")
            }
            TicketOutcome::Panicked(m) => panic!("{m}"),
        }
        service.shutdown();
    }

    #[test]
    fn drain_refuses_new_work_and_resolves_queued_tickets() {
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let service: Service<u32, u32> = Service::new(
            &ServiceConfig {
                workers: 1,
                queue_depth: 2,
                drain_grace: Duration::from_secs(5),
            },
            CancelToken::new(),
            move |req, _ctx| {
                started_tx.send(()).ok();
                release_rx
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .recv()
                    .ok();
                req
            },
        );
        let (running, _) = service.submit(1, None).expect("admitted");
        started_rx.recv().expect("in flight");
        let (queued, _) = service.submit(2, None).expect("queued");
        service.drain();
        assert_eq!(service.submit(3, None).unwrap_err(), SubmitError::Draining);
        assert!(!service.drained(), "still busy with in-flight work");
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        assert!(matches!(running.wait(), TicketOutcome::Finished(1)));
        assert!(
            matches!(queued.wait(), TicketOutcome::Finished(2)),
            "already-queued requests complete during drain"
        );
        service.shutdown();
    }

    #[test]
    fn drain_grace_cancels_a_hung_request() {
        let service: Service<(), bool> = Service::new(
            &ServiceConfig {
                workers: 1,
                queue_depth: 1,
                drain_grace: Duration::from_millis(30),
            },
            CancelToken::new(),
            |(), ctx| {
                let hung_since = Instant::now();
                while !ctx.cancel.is_cancelled() {
                    if hung_since.elapsed() > Duration::from_secs(10) {
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                true
            },
        );
        let (ticket, _) = service.submit((), None).expect("admitted");
        // Give the worker a beat to pick the task up, then drain: the
        // grace expiry must cancel the cooperative infinite loop.
        std::thread::sleep(Duration::from_millis(10));
        service.drain();
        match ticket.wait() {
            TicketOutcome::Finished(cancelled) => assert!(cancelled),
            TicketOutcome::Panicked(m) => panic!("{m}"),
        }
        service.shutdown();
    }
}
