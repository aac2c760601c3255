//! Bounded ingest admission with per-client fairness.
//!
//! Both live inputs — the stdin reader thread and the HTTP listener —
//! feed one [`AdmissionQueue`] instead of an unbounded channel. The
//! queue holds at most `capacity` lines across all clients; each client
//! (stdin, or one peer IP) gets its own FIFO, and the sim loop dequeues
//! round-robin across clients, so one chatty client cannot starve the
//! others however fast it posts.
//!
//! Overflow is explicit backpressure, not silent buffering: an HTTP
//! batch that does not fit is rejected *whole* ([`AdmitError::Full`] →
//! `429 Too Many Requests` + `Retry-After`), and the stdin reader
//! blocks ([`AdmissionQueue::push_blocking`]) so pipe backpressure
//! propagates to whatever writes the stream. [`AdmissionQueue::close`]
//! starts the graceful drain: producers see [`AdmitError::Closed`]
//! while the sim loop pops whatever was already admitted.
//!
//! The queue is also the service's one wake-up path: the sim loop parks
//! in [`AdmissionQueue::wait`] between events, and whatever gives it
//! something to do — an admitted line, [`AdmissionQueue::wake`] from a
//! `GET`'s refresh request, `POST /shutdown` or stdin EOF — ends the
//! park at once. Both condvars pair with the one state mutex and every
//! predicate is checked under it, so no wake-up is lost; a notify is
//! only issued when the other side is actually parked, so an unwatched
//! push or pop costs no syscall.

use crate::lock_tolerant;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Why a push was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The batch would overflow `capacity`; nothing was enqueued.
    /// Carries the depth observed, for the `Retry-After` hint body.
    Full {
        /// Lines queued across all clients at rejection time.
        queue_depth: usize,
    },
    /// The service is draining; no new lines are admitted.
    Closed,
}

/// What the one mutex guards.
#[derive(Default)]
struct State {
    /// Client FIFOs in round-robin order; the front client serves next.
    clients: VecDeque<(String, VecDeque<String>)>,
    /// A [`wake`](AdmissionQueue::wake) not yet consumed by a `wait`.
    woken: bool,
    /// The consumer is parked in [`wait`](AdmissionQueue::wait).
    consumer_parked: bool,
    /// Producers parked in `push_blocking` on a full queue.
    producers_parked: usize,
}

/// The shared bounded queue. All methods are `&self`; one mutex guards
/// the client FIFOs and the parking state, atomics serve the hot
/// telemetry reads. One consumer (the sim loop), any number of
/// producers.
pub struct AdmissionQueue {
    capacity: usize,
    state: Mutex<State>,
    /// The consumer parks here; an admitted line and `wake` notify it.
    work: Condvar,
    /// Blocked producers park here; `pop` and `close` notify it.
    space: Condvar,
    depth: AtomicUsize,
    rejected: AtomicU64,
    closed: AtomicBool,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` lines across all clients.
    pub fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            capacity: capacity.max(1),
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            space: Condvar::new(),
            depth: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Admit a whole batch for `client`, or none of it: on overflow the
    /// batch is counted rejected and [`AdmitError::Full`] returned, so
    /// an HTTP 429 never leaves a half-applied body behind.
    pub fn push_batch(&self, client: &str, lines: Vec<String>) -> Result<(), AdmitError> {
        if lines.is_empty() {
            return Ok(());
        }
        let state = lock_tolerant(&self.state);
        if let Some(refused) = self.refusal(lines.len()) {
            if matches!(refused, AdmitError::Full { .. }) {
                self.rejected
                    .fetch_add(lines.len() as u64, Ordering::Relaxed);
            }
            return Err(refused);
        }
        self.enqueue(state, client, lines);
        Ok(())
    }

    /// Admit one line for `client`, waiting out Full states (the stdin
    /// path: blocking here blocks the reader thread, which blocks the
    /// pipe — backpressure all the way to the producer). Returns `false`
    /// once the queue closes. Waiting is not a rejection: the counter
    /// only tracks refused batches.
    pub fn push_blocking(&self, client: &str, line: String) -> bool {
        let mut state = lock_tolerant(&self.state);
        loop {
            match self.refusal(1) {
                None => break,
                Some(AdmitError::Closed) => return false,
                Some(AdmitError::Full { .. }) => {
                    state.producers_parked += 1;
                    state = self
                        .space
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    state.producers_parked -= 1;
                }
            }
        }
        self.enqueue(state, client, vec![line]);
        true
    }

    /// Why `n` more lines cannot be admitted right now, if they cannot.
    /// `closed` and `depth` only change under the state lock, which the
    /// caller holds.
    fn refusal(&self, n: usize) -> Option<AdmitError> {
        if self.closed.load(Ordering::Acquire) {
            return Some(AdmitError::Closed);
        }
        let depth = self.depth.load(Ordering::Acquire);
        (depth + n > self.capacity).then_some(AdmitError::Full { queue_depth: depth })
    }

    /// Append `lines` to `client`'s FIFO, release the lock, then rouse
    /// the consumer if it was parked.
    fn enqueue(&self, mut state: MutexGuard<'_, State>, client: &str, lines: Vec<String>) {
        let added = lines.len();
        match state.clients.iter_mut().find(|(name, _)| name == client) {
            Some((_, q)) => q.extend(lines),
            None => state.clients.push_back((client.to_string(), lines.into())),
        }
        self.depth.fetch_add(added, Ordering::Release);
        let parked = state.consumer_parked;
        drop(state);
        if parked {
            self.work.notify_one();
        }
    }

    /// Dequeue the next line, fair across clients: serve the front
    /// client's oldest line, then rotate that client to the back.
    pub fn pop(&self) -> Option<(String, String)> {
        let mut state = lock_tolerant(&self.state);
        let (name, line) = loop {
            let (name, mut q) = state.clients.pop_front()?;
            // No FIFO is left empty by this module; one found empty
            // behind a poisoned lock is skipped, not a second panic.
            if let Some(line) = q.pop_front() {
                if !q.is_empty() {
                    state.clients.push_back((name.clone(), q));
                }
                break (name, line);
            }
        };
        self.depth.fetch_sub(1, Ordering::Release);
        let parked = state.producers_parked > 0;
        drop(state);
        if parked {
            self.space.notify_one();
        }
        Some((name, line))
    }

    /// Park the consumer until a line is queued, [`wake`](Self::wake)
    /// is called or `timeout` passes, whichever comes first. A line or
    /// a `wake` that arrived before the call ends it immediately;
    /// returning consumes the pending `wake`.
    pub fn wait(&self, timeout: Duration) {
        let mut state = lock_tolerant(&self.state);
        state.consumer_parked = true;
        let (mut state, _) = self
            .work
            .wait_timeout_while(state, timeout, |s| s.clients.is_empty() && !s.woken)
            .unwrap_or_else(PoisonError::into_inner);
        state.consumer_parked = false;
        state.woken = false;
    }

    /// End the consumer's current [`wait`](Self::wait), or its next one
    /// if it is busy: there is something to look at besides the queue.
    pub fn wake(&self) {
        let mut state = lock_tolerant(&self.state);
        state.woken = true;
        let parked = state.consumer_parked;
        drop(state);
        if parked {
            self.work.notify_one();
        }
    }

    /// Lines currently admitted and waiting.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// Lines refused with [`AdmitError::Full`] since construction.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Stop admitting (graceful drain): producers get
    /// [`AdmitError::Closed`], parked ones included; already-admitted
    /// lines still pop.
    pub fn close(&self) {
        // Under the lock, so a producer between its `refusal` check and
        // its park cannot miss the notify below.
        let state = lock_tolerant(&self.state);
        self.closed.store(true, Ordering::Release);
        drop(state);
        self.space.notify_all();
    }

    /// True once [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn round_robin_is_fair_across_clients() {
        let q = AdmissionQueue::new(16);
        q.push_batch("a", vec!["a1".into(), "a2".into(), "a3".into()])
            .expect("a fits");
        q.push_batch("b", vec!["b1".into()]).expect("b fits");
        q.push_batch("c", vec!["c1".into(), "c2".into()])
            .expect("c fits");
        let order: Vec<String> = std::iter::from_fn(|| q.pop()).map(|(_, l)| l).collect();
        assert_eq!(order, ["a1", "b1", "c1", "a2", "c2", "a3"]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn overflow_rejects_the_whole_batch() {
        let q = AdmissionQueue::new(3);
        q.push_batch("a", vec!["1".into(), "2".into()])
            .expect("fits");
        let err = q
            .push_batch("b", vec!["3".into(), "4".into()])
            .expect_err("overflows");
        assert_eq!(err, AdmitError::Full { queue_depth: 2 });
        assert_eq!(q.rejected_total(), 2, "both lines of the batch count");
        assert_eq!(q.depth(), 2, "nothing from the failed batch landed");
        // A batch that fits exactly still goes through.
        q.push_batch("b", vec!["3".into()]).expect("fits exactly");
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn close_refuses_new_lines_but_drains_old_ones() {
        let q = AdmissionQueue::new(8);
        q.push_batch("a", vec!["1".into()]).expect("fits");
        q.close();
        assert_eq!(q.push_batch("a", vec!["2".into()]), Err(AdmitError::Closed));
        assert!(!q.push_blocking("stdin", "3".into()));
        assert_eq!(q.pop(), Some(("a".to_string(), "1".to_string())));
        assert_eq!(q.pop(), None);
        assert_eq!(q.rejected_total(), 0, "closed is not a 429");
    }

    #[test]
    fn blocking_push_waits_out_a_full_queue() {
        let q = std::sync::Arc::new(AdmissionQueue::new(1));
        q.push_batch("a", vec!["1".into()]).expect("fits");
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || q2.push_blocking("stdin", "2".into()));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop().expect("first line").1, "1");
        assert!(pusher.join().expect("pusher joins"), "push lands after pop");
        assert_eq!(q.pop().expect("second line").1, "2");
        assert_eq!(q.rejected_total(), 0, "blocking retries are not rejections");
    }

    #[test]
    fn wait_ends_on_a_push_from_another_thread() {
        let q = std::sync::Arc::new(AdmissionQueue::new(4));
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            q2.push_batch("a", vec!["1".into()]).expect("fits");
            Instant::now()
        });
        q.wait(Duration::from_secs(5));
        let woke = Instant::now();
        let pushed = pusher.join().expect("pusher joins");
        assert!(
            woke.saturating_duration_since(pushed) < Duration::from_millis(50),
            "the push must end the park, not the 5 s timeout"
        );
        assert_eq!(q.pop().expect("the pushed line").1, "1");
    }

    #[test]
    fn wait_times_out_when_nothing_arrives() {
        let q = AdmissionQueue::new(4);
        let start = Instant::now();
        q.wait(Duration::from_millis(30));
        let waited = start.elapsed();
        assert!(waited >= Duration::from_millis(30), "{waited:?}");
        assert!(waited < Duration::from_secs(2), "{waited:?}");
    }

    #[test]
    fn a_wake_before_the_wait_is_not_lost() {
        let q = AdmissionQueue::new(4);
        q.wake();
        let start = Instant::now();
        q.wait(Duration::from_secs(5));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "pending wake ignored"
        );
        // The wake was consumed: the next wait runs to its timeout.
        let start = Instant::now();
        q.wait(Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn close_releases_a_parked_producer() {
        let q = std::sync::Arc::new(AdmissionQueue::new(1));
        q.push_batch("a", vec!["1".into()]).expect("fits");
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || q2.push_blocking("stdin", "2".into()));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(
            !pusher.join().expect("pusher joins"),
            "closed, not admitted"
        );
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn a_poisoned_lock_does_not_cascade() {
        let q = std::sync::Arc::new(AdmissionQueue::new(4));
        q.push_batch("a", vec!["1".into()]).expect("fits");
        let q2 = q.clone();
        let crashed = std::thread::spawn(move || {
            let mut state = q2.state.lock().expect("first holder");
            // The one shape `pop` must survive: a FIFO left empty.
            state
                .clients
                .push_front(("ghost".to_string(), VecDeque::new()));
            panic!("sim thread dies holding the admission lock");
        })
        .join();
        assert!(crashed.is_err());
        assert!(q.state.is_poisoned());
        q.push_batch("b", vec!["2".into()])
            .expect("admits after poison");
        assert_eq!(q.pop().expect("skips the empty FIFO").1, "1");
        assert_eq!(q.pop().expect("second line").1, "2");
        assert_eq!(q.pop(), None);
    }
}
