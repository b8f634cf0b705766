//! The background merge/compaction worker.
//!
//! Cadence is counted in ingest *runs* (see
//! [`ServiceConfig::fold_cadence`](crate::ServiceConfig::fold_cadence)),
//! never wall-clock time: the workspace determinism rule bans `Instant`
//! and `SystemTime`, so the worker sleeps on a condvar and is woken by
//! the handle that crossed the cadence. Each wake folds the slot from
//! scratch via [`MergeableSummary::try_merge`], which re-validates the
//! composed ε and the summary invariant — a fold failure is recorded,
//! not swallowed.
//!
//! [`MergeableSummary::try_merge`]: cqs_core::MergeableSummary::try_merge

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use cqs_core::{MergeError, MergeableSummary};

use crate::registry::{lock, KeySlot, QuantileRegistry};

struct WakeState<S> {
    queue: VecDeque<Arc<KeySlot<S>>>,
    shutdown: bool,
    fold_errors: u64,
    last_error: Option<MergeError>,
}

/// Condvar-backed wake queue shared between handles and the worker.
pub(crate) struct WakeQueue<S> {
    state: Mutex<WakeState<S>>,
    cv: Condvar,
}

impl<S> WakeQueue<S> {
    pub(crate) fn new() -> Self {
        WakeQueue {
            state: Mutex::new(WakeState {
                queue: VecDeque::new(),
                shutdown: false,
                fold_errors: 0,
                last_error: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues a slot for folding (deduplicated by identity — a slot
    /// already queued is not queued twice) and wakes the worker.
    pub(crate) fn enqueue(&self, slot: Arc<KeySlot<S>>) {
        let mut st = lock(&self.state);
        if !st.queue.iter().any(|q| Arc::ptr_eq(q, &slot)) {
            st.queue.push_back(slot);
        }
        drop(st);
        self.cv.notify_one();
    }

    fn record_error(&self, err: MergeError) {
        let mut st = lock(&self.state);
        st.fold_errors += 1;
        st.last_error = Some(err);
    }

    fn request_shutdown(&self) {
        lock(&self.state).shutdown = true;
        self.cv.notify_all();
    }
}

fn worker_loop<T, S>(wake: &WakeQueue<S>)
where
    T: Ord + Clone,
    S: MergeableSummary<T> + Clone,
{
    loop {
        let slot = {
            let mut st = lock(&wake.state);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(slot) = st.queue.pop_front() {
                    break slot;
                }
                st = match wake.cv.wait(st) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        if let Err(err) = slot.with_fold::<T, _>(|_| ()) {
            wake.record_error(err);
        }
    }
}

/// Owns the background fold thread; dropping it shuts the thread down.
pub struct MergeWorker<S> {
    wake: Arc<WakeQueue<S>>,
    thread: Option<thread::JoinHandle<()>>,
}

impl<S> MergeWorker<S> {
    fn spawn<T>(wake: Arc<WakeQueue<S>>) -> Self
    where
        T: Ord + Clone + Send + 'static,
        S: MergeableSummary<T> + Clone + Send + 'static,
    {
        let worker_wake = Arc::clone(&wake);
        let thread = thread::Builder::new()
            .name("cqs-merge-worker".to_string())
            .spawn(move || worker_loop::<T, S>(&worker_wake))
            .expect("spawning the merge worker thread");
        MergeWorker {
            wake,
            thread: Some(thread),
        }
    }

    /// How many background folds have failed so far.
    pub fn fold_errors(&self) -> u64 {
        lock(&self.wake.state).fold_errors
    }

    /// The most recent fold failure, if any.
    pub fn last_error(&self) -> Option<MergeError> {
        lock(&self.wake.state).last_error.clone()
    }

    /// Signals shutdown and joins the worker thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.wake.request_shutdown();
        if let Some(thread) = self.thread.take() {
            // A panicking worker already recorded its state; joining is
            // best-effort cleanup.
            let _ = thread.join();
        }
    }
}

impl<S> Drop for MergeWorker<S> {
    fn drop(&mut self) {
        self.stop();
    }
}

impl<T, S> QuantileRegistry<T, S>
where
    T: Ord + Clone + Send + 'static,
    S: MergeableSummary<T> + Clone + Send + 'static,
{
    /// Starts the background merge worker for this registry. Handles
    /// wake it whenever a key crosses its fold cadence; the worker
    /// refreshes that key's fold cache off the ingest path.
    pub fn start_merge_worker(&self) -> MergeWorker<S> {
        MergeWorker::spawn::<T>(Arc::clone(self.wake()))
    }
}

/// Compile-time audit: everything that crosses the worker and ingest
/// pool boundaries is `Send`, and the shared facade types are `Sync`.
/// The `sharding-send-sync` lint derives this type set from the spawn
/// sites and checks these lines exist.
#[allow(dead_code)]
fn sharding_send_sync_audit<T, S>()
where
    T: Ord + Clone + Send + Sync + 'static,
    S: MergeableSummary<T> + Clone + Send + 'static,
{
    fn assert_send<X: Send>() {}
    fn assert_sync<X: Sync>() {}
    assert_send::<QuantileRegistry<T, S>>();
    assert_sync::<QuantileRegistry<T, S>>();
    assert_send::<crate::SummaryHandle<T, S>>();
    assert_sync::<crate::SummaryHandle<T, S>>();
    assert_send::<KeySlot<S>>();
    assert_sync::<KeySlot<S>>();
    assert_send::<WakeQueue<S>>();
    assert_sync::<WakeQueue<S>>();
    assert_send::<MergeWorker<S>>();
    assert_send::<crate::ServiceConfig>();
    assert_send::<crate::QuantileExport<T>>();
    assert_send::<crate::KeyQuantiles<T>>();
    assert_send::<MergeError>();
}

#[cfg(test)]
mod tests {
    use crate::{QuantileRegistry, ServiceConfig};
    use cqs_core::ComparisonSummary;
    use cqs_gk::GkSummary;

    #[test]
    fn worker_folds_on_cadence_and_shuts_down() {
        let reg: QuantileRegistry<u64, GkSummary<u64>> = QuantileRegistry::new(
            ServiceConfig {
                shards: 2,
                stripes: 2,
                fold_cadence: 4,
            },
            || GkSummary::new(0.05),
        );
        let worker = reg.start_merge_worker();
        let h = reg.handle("cadence");
        for run in 0..16u64 {
            let base = run * 10;
            h.record_sorted_run(&[base, base + 1, base + 2]);
        }
        // The fold result is version-cached, so the worker's folds and
        // this query agree regardless of scheduling.
        let folded = h.folded().expect("fold").expect("non-empty");
        assert_eq!(folded.items_processed(), 48);
        assert_eq!(worker.fold_errors(), 0);
        assert!(worker.last_error().is_none());
        worker.shutdown();
    }
}
