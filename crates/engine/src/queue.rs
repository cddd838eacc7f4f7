//! A bounded MPMC request queue with load-shedding admission control.
//!
//! `try_push` never blocks: a full queue hands the item straight back,
//! so overload sheds instead of queueing unboundedly. `pop` blocks
//! until an item arrives or the queue is closed and empty.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Why a [`BoundedQueue::try_push`] did not enqueue; the item comes
/// back in either case.
#[derive(Debug)]
pub enum TryPushError<T> {
    /// The queue is at capacity — shed the load.
    Full(T),
    /// The queue is closed (draining) — stop admitting.
    Closed(T),
}

/// A fixed-capacity multi-producer/multi-consumer queue.
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// An empty queue admitting at most `capacity` queued items
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Dequeues the next item, blocking until one arrives. `None`
    /// means the queue is closed and drained — the consumer's signal
    /// to exit.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Enqueues `item` without blocking. A full or closed queue hands
    /// the item back immediately instead of queueing unboundedly;
    /// `netart serve` turns that into a `429`/`503`.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        state.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Items currently queued (racy the instant the lock drops — an
    /// observability gauge, not a synchronisation primitive).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is empty right now (same caveat as [`len`](BoundedQueue::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: later `try_push`es fail, `pop` drains what is
    /// left and then returns `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert!(
            matches!(q.try_push(8), Err(TryPushError::Closed(8))),
            "closed queue rejects pushes"
        );
        assert_eq!(q.pop(), Some(7), "items queued before close drain");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn try_push_sheds_instead_of_blocking() {
        let q = BoundedQueue::new(1);
        assert!(q.try_push(1).is_ok());
        assert!(matches!(q.try_push(2), Err(TryPushError::Full(2))));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(1));
        assert!(q.is_empty());
        assert!(q.try_push(3).is_ok(), "capacity freed by the pop");
        q.close();
        assert!(matches!(q.try_push(4), Err(TryPushError::Closed(4))));
    }

    #[test]
    fn consumers_unblock_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
