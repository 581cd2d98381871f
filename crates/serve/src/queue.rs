//! The bounded admission queue (MPSC: many client threads push, the
//! dispatcher pops) and the per-request response slot clients block on.
//!
//! Admission control happens at the push: a full queue rejects
//! immediately ([`crate::ServeError::QueueFull`]) instead of blocking the
//! client, and every *admitted* request gets the next global sequence
//! number. That sequence number is the backbone of the tier's
//! determinism — it fixes the request's maintenance interval and thereby
//! the mapping generation that serves it, independent of wall-clock
//! timing, batching, or worker count.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use memaging_obs::Recorder;

use crate::error::ServeError;
use crate::request::{InferRequest, InferResponse};
use crate::trace::RequestCtx;

/// One admitted request as the dispatcher sees it.
#[derive(Debug)]
pub(crate) struct Entry {
    /// Global admission sequence number (0-based).
    pub seq: u64,
    /// The input feature vector.
    pub input: Vec<f32>,
    /// Absolute deadline; a request still queued past it is dropped at
    /// dispatch with [`ServeError::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// Trace identity + admission timestamp, carried through batching and
    /// worker dispatch (queue-wait and end-to-end latency, span trace
    /// ids).
    pub ctx: RequestCtx,
    /// Where the outcome is delivered.
    pub slot: Arc<ResponseSlot>,
}

/// The rendezvous a client blocks on while its request is in flight.
#[derive(Debug, Default)]
pub(crate) struct ResponseSlot {
    outcome: Mutex<Option<Result<InferResponse, ServeError>>>,
    ready: Condvar,
}

impl ResponseSlot {
    /// Delivers the outcome and wakes the waiting client.
    pub(crate) fn deliver(&self, outcome: Result<InferResponse, ServeError>) {
        let mut guard = self.outcome.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *guard = Some(outcome);
        self.ready.notify_all();
    }

    /// Blocks until the outcome is delivered.
    pub(crate) fn wait(&self) -> Result<InferResponse, ServeError> {
        let mut guard = self.outcome.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = self.ready.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Shared queue state behind the mutex.
#[derive(Debug, Default)]
struct QueueState {
    entries: VecDeque<Entry>,
    next_seq: u64,
    /// Requests rejected at admission because the queue was full.
    rejected_full: u64,
    closed: bool,
}

/// The bounded MPSC admission queue — also the deployment's one source of
/// admission counts ([`RequestQueue::admission`]).
#[derive(Debug)]
pub(crate) struct RequestQueue {
    state: Mutex<QueueState>,
    /// Signalled when an entry arrives or the queue closes.
    arrived: Condvar,
    capacity: usize,
}

impl RequestQueue {
    /// An empty queue admitting at most `capacity` in-flight requests.
    pub(crate) fn new(capacity: usize) -> Self {
        RequestQueue { state: Mutex::new(QueueState::default()), arrived: Condvar::new(), capacity }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Admits a request: assigns its sequence number and enqueues it, or
    /// rejects without queueing.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] at capacity, [`ServeError::Shutdown`]
    /// after close.
    pub(crate) fn admit(
        &self,
        input: Vec<f32>,
        deadline: Option<Instant>,
        slot: Arc<ResponseSlot>,
    ) -> Result<u64, ServeError> {
        let mut state = self.lock();
        if state.closed {
            return Err(ServeError::Shutdown);
        }
        if state.entries.len() >= self.capacity {
            state.rejected_full += 1;
            return Err(ServeError::QueueFull { capacity: self.capacity });
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.entries.push_back(Entry {
            seq,
            input,
            deadline,
            ctx: RequestCtx::admitted(seq),
            slot,
        });
        drop(state);
        self.arrived.notify_one();
        Ok(seq)
    }

    /// One client's blocking round trip: validates the input against
    /// `input_dim` (before admission, so a malformed request consumes no
    /// sequence number), admits it, and parks on its response slot.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] for a malformed payload, else whatever
    /// admission or dispatch answers.
    pub(crate) fn submit(
        &self,
        request: InferRequest,
        input_dim: usize,
        recorder: &Recorder,
    ) -> Result<InferResponse, ServeError> {
        let features = request.input.len();
        if features != input_dim {
            return Err(ServeError::BadInput {
                reason: format!("expected {input_dim} input features, got {features}"),
            });
        }
        if request.input.iter().any(|v| !v.is_finite()) {
            return Err(ServeError::BadInput { reason: "non-finite input value".into() });
        }
        let slot = Arc::new(ResponseSlot::default());
        let deadline = request.deadline.map(|d| Instant::now() + d);
        let seq = self.admit(request.input, deadline, Arc::clone(&slot))?;
        // The root span of the request's trace chain: admission → delivery,
        // stamped with the trace id every downstream span carries.
        let _span = recorder.trace_span("serve.request", seq);
        slot.wait()
    }

    /// Blocks until an entry is available (returning it) or the queue is
    /// closed *and* drained (returning `None`).
    pub(crate) fn pop_blocking(&self) -> Option<Entry> {
        let mut state = self.lock();
        loop {
            if let Some(entry) = state.entries.pop_front() {
                return Some(entry);
            }
            if state.closed {
                return None;
            }
            state = self.arrived.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Non-blocking drain, under one lock, of the queued entries whose
    /// sequence numbers stay below `below_seq` — the batcher's "never
    /// cross a maintenance boundary" guard — appending them to `batch`
    /// until it holds `max` entries. Entries are popped in sequence order,
    /// so the drain stops at the first one at or past the boundary.
    pub(crate) fn drain_below(&self, below_seq: u64, max: usize, batch: &mut Vec<Entry>) {
        let room = max.saturating_sub(batch.len());
        let mut state = self.lock();
        let take = state.entries.iter().take(room).take_while(|e| e.seq < below_seq).count();
        batch.extend(state.entries.drain(..take));
    }

    /// `(admitted, rejected_full)`: requests admitted so far (= the next
    /// sequence number) and requests rejected because the queue was full.
    pub(crate) fn admission(&self) -> (u64, u64) {
        let state = self.lock();
        (state.next_seq, state.rejected_full)
    }

    /// Current queue depth.
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        self.lock().entries.len()
    }

    /// Closes admission: future [`RequestQueue::admit`] calls fail with
    /// [`ServeError::Shutdown`]; queued entries remain poppable so the
    /// dispatcher can drain them.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.arrived.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_assigns_monotonic_seqs_and_rejects_on_full() {
        let q = RequestQueue::new(2);
        let s0 = q.admit(vec![1.0], None, Arc::new(ResponseSlot::default())).unwrap();
        let s1 = q.admit(vec![2.0], None, Arc::new(ResponseSlot::default())).unwrap();
        assert_eq!((s0, s1), (0, 1));
        let err = q.admit(vec![3.0], None, Arc::new(ResponseSlot::default())).unwrap_err();
        assert_eq!(err, ServeError::QueueFull { capacity: 2 });
        assert_eq!(q.admission(), (2, 1), "the rejection is counted, not admitted");
        // Rejection consumed no sequence number, and the trace id is the
        // admission sequence number.
        let popped = q.pop_blocking().unwrap();
        assert_eq!(popped.seq, 0);
        assert_eq!(popped.ctx.trace.0, popped.seq);
        let s3 = q.admit(vec![4.0], None, Arc::new(ResponseSlot::default())).unwrap();
        assert_eq!(s3, 2);
    }

    #[test]
    fn drain_below_respects_the_boundary_and_the_cap() {
        let q = RequestQueue::new(8);
        for i in 0..4 {
            q.admit(vec![i as f32], None, Arc::new(ResponseSlot::default())).unwrap();
        }
        let mut batch = Vec::new();
        q.drain_below(3, 2, &mut batch);
        assert_eq!(batch.len(), 2, "capped at max");
        q.drain_below(3, 8, &mut batch);
        assert_eq!(
            batch.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [0, 1, 2],
            "seq 3 is at the boundary"
        );
        q.drain_below(4, 3, &mut batch);
        assert_eq!(q.depth(), 1, "a full batch takes nothing");
    }

    #[test]
    fn close_rejects_admission_but_drains_the_backlog() {
        let q = RequestQueue::new(8);
        q.admit(vec![0.0], None, Arc::new(ResponseSlot::default())).unwrap();
        q.close();
        assert_eq!(
            q.admit(vec![1.0], None, Arc::new(ResponseSlot::default())).unwrap_err(),
            ServeError::Shutdown
        );
        assert_eq!(q.pop_blocking().unwrap().seq, 0);
        assert!(q.pop_blocking().is_none(), "closed + drained pops None");
    }

    #[test]
    fn response_slot_delivers_across_threads() {
        let slot = Arc::new(ResponseSlot::default());
        let waiter = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.wait())
        };
        slot.deliver(Err(ServeError::DeadlineExceeded));
        assert_eq!(waiter.join().unwrap().unwrap_err(), ServeError::DeadlineExceeded);
    }
}
