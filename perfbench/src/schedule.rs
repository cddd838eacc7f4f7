//! Open-loop arrival schedule and its lateness accounting.
//!
//! Requests are due at seeded Poisson arrival times, whatever the
//! server is doing. A fixed pool of senders takes them in order; a
//! sender that is still busy when the next request falls due sends it
//! late. Each request's latency is measured from when it was *due*, so
//! a stall also charges the wait it imposes on later requests, and the
//! generator's own lateness (`sent - due`) is reported beside it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use crate::stats;

/// Due offsets of `count` Poisson arrivals at `rate` per second.
pub fn poisson(rng: &mut StdRng, rate: f64, count: usize) -> Vec<Duration> {
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            // Uniform in (0, 1]: 53 random bits, never exactly zero.
            let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            t += -u.ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// A schedule shared by the senders: each claim hands out the next
/// request index and how long to wait before it is due.
pub struct OpenLoop {
    due: Vec<Duration>,
    next: AtomicUsize,
    start: Instant,
}

impl OpenLoop {
    /// Starts the clock on a schedule of due offsets.
    pub fn start(due: Vec<Duration>) -> OpenLoop {
        OpenLoop {
            due,
            next: AtomicUsize::new(0),
            start: Instant::now(),
        }
    }

    /// Claims the next request: its index and its due instant, or
    /// `None` when the schedule is exhausted.
    pub fn claim(&self) -> Option<(usize, Instant)> {
        let i = self.next.fetch_add(1, Ordering::SeqCst);
        self.due.get(i).map(|&d| (i, self.start + d))
    }
}

/// Sleeps until `due` (no-op when already past it) and returns the
/// instant the request may be sent.
pub fn wait_until(due: Instant) -> Instant {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().max(due)
}

/// Timing of one request.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When a sender actually sent it.
    pub sent: Instant,
    /// When the response was complete.
    pub done: Instant,
}

impl Timing {
    /// Latency as the client sees it: from due time to response.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent it.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Lateness of the generator over one rate step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lag {
    /// Median lateness, milliseconds.
    pub p50_ms: f64,
    /// Median lateness over the first quarter of the step, ms.
    pub first_quarter_ms: f64,
    /// Median lateness over the last quarter of the step, ms.
    pub last_quarter_ms: f64,
}

impl Lag {
    /// Summarises lateness of timings given in schedule order.
    pub fn of(timings: &[Timing]) -> Lag {
        let ms: Vec<f64> = timings
            .iter()
            .map(|t| t.lag().as_secs_f64() * 1e3)
            .collect();
        let q = (ms.len() / 4).max(1).min(ms.len());
        Lag {
            p50_ms: stats::median(&ms).unwrap_or(0.0),
            first_quarter_ms: stats::median(&ms[..q]).unwrap_or(0.0),
            last_quarter_ms: stats::median(&ms[ms.len() - q..]).unwrap_or(0.0),
        }
    }

    /// Whether the backlog grew over the step: the last quarter ran
    /// later than the first by more than `tolerance_ms`.
    pub fn growing(&self, tolerance_ms: f64) -> bool {
        self.last_quarter_ms - self.first_quarter_ms > tolerance_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn timing(origin: Instant, due_ms: u64, sent_ms: u64, done_ms: u64) -> Timing {
        let at = |ms| origin + Duration::from_millis(ms);
        Timing {
            due: at(due_ms),
            sent: at(sent_ms),
            done: at(done_ms),
        }
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        let t = timing(Instant::now(), 100, 130, 150);
        assert_eq!(t.latency(), Duration::from_millis(50));
        assert_eq!(t.lag(), Duration::from_millis(30));
    }

    #[test]
    fn a_stalled_sender_makes_later_requests_late() {
        // One sender, a request due every 10 ms, each taking 25 ms:
        // request i is sent at 25 i and is 15 i ms late.
        let origin = Instant::now();
        let timings: Vec<Timing> = (0..8u64)
            .map(|i| timing(origin, 10 * i, 25 * i, 25 * i + 25))
            .collect();
        let lag = Lag::of(&timings);
        assert_eq!(lag.first_quarter_ms, 7.5);
        assert_eq!(lag.last_quarter_ms, 97.5);
        assert!(lag.growing(50.0));
        assert_eq!(timings[7].latency(), Duration::from_millis(130));
    }

    #[test]
    fn a_keeping_up_sender_has_no_growing_backlog() {
        let origin = Instant::now();
        let timings: Vec<Timing> = (0..8u64)
            .map(|i| timing(origin, 10 * i, 10 * i + 1, 10 * i + 5))
            .collect();
        let lag = Lag::of(&timings);
        assert_eq!(lag.p50_ms, 1.0);
        assert!(!lag.growing(1.0));
    }

    #[test]
    fn open_loop_hands_out_each_request_once_at_its_due_time() {
        let due = vec![
            Duration::ZERO,
            Duration::from_millis(5),
            Duration::from_millis(10),
        ];
        let schedule = OpenLoop::start(due);
        let (i0, d0) = schedule.claim().unwrap();
        let (i1, d1) = schedule.claim().unwrap();
        let (i2, d2) = schedule.claim().unwrap();
        assert_eq!((i0, i1, i2), (0, 1, 2));
        assert_eq!(d1 - d0, Duration::from_millis(5));
        assert_eq!(d2 - d0, Duration::from_millis(10));
        assert!(schedule.claim().is_none());
        let sent = wait_until(d2);
        assert!(sent >= d2, "never sent early");
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_asked_rate() {
        let a = poisson(&mut StdRng::seed_from_u64(3), 50.0, 2000);
        let b = poisson(&mut StdRng::seed_from_u64(3), 50.0, 2000);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let span = a.last().unwrap().as_secs_f64();
        assert!(
            (span - 40.0).abs() < 4.0,
            "2000 arrivals at 50/s span ~40 s, got {span}"
        );
    }
}
