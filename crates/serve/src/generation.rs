//! Double-buffered mapping generations.
//!
//! A [`MappingGeneration`] is an immutable snapshot of the effective
//! hardware weights (the values an inference read actually sees, after
//! quantization and aged-window clamping), read back once per maintenance
//! boundary. Workers serve every request of interval `g` from generation
//! `g`'s snapshot — never from live hardware — so the maintenance task can
//! rework the physical mapping concurrently and swap the fresh snapshot in
//! atomically ([`GenerationCell::publish`] replaces one `Arc`): serving
//! never pauses, and a request's output depends only on its sequence
//! number.

use std::sync::{Arc, Condvar, Mutex};

use memaging_tensor::Tensor;

/// One published mapping generation.
#[derive(Debug)]
pub(crate) struct MappingGeneration {
    /// Generation id = maintenance-boundary index (requests with
    /// `seq / maintenance_interval == id` are served by this generation).
    pub(crate) id: u64,
    /// Effective per-layer weight matrices read back from hardware.
    pub(crate) weights: Vec<Tensor>,
    /// Worst per-layer mean window fraction at publish time (of fresh).
    pub(crate) worst_window_fraction: f64,
    /// Total accrued tile stress (seconds, summed in tile order) at
    /// read-back — the router's deterministic wear snapshot: burn
    /// rates are differences of these totals across generations, never
    /// racy live reads.
    pub(crate) total_stress: f64,
}

/// The atomically-swappable published generation, plus a condvar so the
/// dispatcher can await a generation the maintenance task has not
/// published yet. The cell is closed when its maintenance thread exits
/// (normally or by unwinding), so a waiter never blocks on a generation
/// that nothing will publish.
#[derive(Debug, Default)]
pub(crate) struct GenerationCell {
    state: Mutex<CellState>,
    published: Condvar,
}

#[derive(Debug, Default)]
struct CellState {
    current: Option<Arc<MappingGeneration>>,
    closed: bool,
}

/// Closes its [`GenerationCell`] when dropped; see
/// [`GenerationCell::close_on_drop`].
pub(crate) struct CloseOnDrop<'a>(&'a GenerationCell);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.published.notify_all();
    }
}

impl GenerationCell {
    fn lock(&self) -> std::sync::MutexGuard<'_, CellState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Atomically swaps in `generation` and wakes every waiter.
    ///
    /// # Panics
    ///
    /// Panics if the generation id does not increase monotonically — a
    /// maintenance-protocol bug that would break the seq→generation
    /// determinism contract.
    pub(crate) fn publish(&self, generation: Arc<MappingGeneration>) {
        let mut state = self.lock();
        if let Some(prior) = state.current.as_ref() {
            assert!(
                generation.id > prior.id,
                "generation ids must increase: {} after {}",
                generation.id,
                prior.id
            );
        }
        state.current = Some(generation);
        drop(state);
        self.published.notify_all();
    }

    /// The currently published generation (`None` before the first
    /// publish).
    pub(crate) fn current(&self) -> Option<Arc<MappingGeneration>> {
        self.lock().current.clone()
    }

    /// A guard that closes the cell when dropped — held by the maintenance
    /// loop, the cell's only publisher, so the cell closes however that
    /// loop ends.
    pub(crate) fn close_on_drop(&self) -> CloseOnDrop<'_> {
        CloseOnDrop(self)
    }

    /// Blocks until a generation with `id >= wanted` is published and
    /// returns it, or returns `None` once the cell is closed without one.
    pub(crate) fn wait_for(&self, wanted: u64) -> Option<Arc<MappingGeneration>> {
        let mut state = self.lock();
        loop {
            if let Some(generation) = state.current.as_ref() {
                if generation.id >= wanted {
                    return Some(Arc::clone(generation));
                }
            }
            if state.closed {
                return None;
            }
            state = self.published.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generation(id: u64) -> Arc<MappingGeneration> {
        Arc::new(MappingGeneration {
            id,
            weights: Vec::new(),
            worst_window_fraction: 1.0,
            total_stress: 0.0,
        })
    }

    #[test]
    fn wait_for_blocks_until_published() {
        let cell = Arc::new(GenerationCell::default());
        cell.publish(generation(0));
        assert_eq!(cell.wait_for(0).unwrap().id, 0);
        let waiter = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || cell.wait_for(2).unwrap().id)
        };
        cell.publish(generation(1));
        cell.publish(generation(2));
        assert_eq!(waiter.join().unwrap(), 2);
        assert_eq!(cell.current().unwrap().id, 2);
    }

    #[test]
    fn a_waiter_on_a_closed_cell_returns() {
        let cell = Arc::new(GenerationCell::default());
        cell.publish(generation(0));
        let waiter = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || cell.wait_for(1).map(|g| g.id))
        };
        // The publisher unwinds without publishing generation 1.
        let publisher = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                let _close = cell.close_on_drop();
                panic!("maintenance died");
            })
        };
        assert!(publisher.join().is_err());
        assert_eq!(waiter.join().unwrap(), None, "the waiter is released, not hung");
        // What was published before the close is still served.
        assert_eq!(cell.wait_for(0).unwrap().id, 0);
    }

    #[test]
    #[should_panic(expected = "generation ids must increase")]
    fn non_monotonic_publish_panics() {
        let cell = GenerationCell::default();
        cell.publish(generation(3));
        cell.publish(generation(3));
    }
}
