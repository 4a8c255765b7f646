//! Wait-free snapshot publication: the concurrency primitive behind the
//! epoch-versioned catalog.
//!
//! [`EpochCell`] holds one `Arc<T>` — the *current* snapshot — and supports
//! two operations:
//!
//! * [`load`](EpochCell::load): clone the current `Arc` without ever blocking.
//!   The reader executes a fixed, short sequence of atomic operations — no
//!   lock, no CAS retry loop — so a reader can never be stalled by a slow or
//!   preempted writer. This is what makes `SharedCatalog::checkout` wait-free
//!   while restructures are in flight.
//! * [`publish_if_current`](EpochCell::publish_if_current): install a new
//!   snapshot if and only if the cell still holds the snapshot the writer
//!   based it on — the compare-and-swap step of the catalog's
//!   read-copy-update loop. Writers build successors entirely off-lock and
//!   only contend with each other here.
//!
//! Reclaiming a displaced snapshot is the classic lock-free problem: a reader
//! may have loaded the raw pointer but not yet taken its reference when the
//! writer wants to free it. The cell solves it the way userspace RCU does:
//! readers announce themselves in one of two parity-indexed counters around
//! their (tiny) critical section, and a writer retires a displaced snapshot
//! only after two parity flips each see the drained side reach zero — the
//! grace period. Waiting is done *only* by writers; readers never loop.

use std::fmt;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// A shared cell holding the current `Arc<T>` snapshot, readable without
/// blocking and replaceable by compare-and-swap.
///
/// ```
/// use dbtouch_core::epoch::EpochCell;
/// use std::sync::Arc;
///
/// let cell = EpochCell::new(Arc::new(1u64));
/// let before = cell.load();
/// assert!(cell.publish_if_current(&before, Arc::new(2)));
/// // A publish based on a stale snapshot is rejected:
/// assert!(!cell.publish_if_current(&before, Arc::new(3)));
/// assert_eq!(*cell.load(), 2);
/// ```
pub struct EpochCell<T> {
    /// The current snapshot; the cell owns one strong reference to it,
    /// produced by `Arc::into_raw`.
    current: AtomicPtr<T>,
    /// Which of the two reader counters new readers register in (low bit).
    parity: AtomicUsize,
    /// Readers inside their critical section, per parity side.
    readers: [AtomicUsize; 2],
    /// Serializes grace periods between writers. Readers never touch it.
    retire: Mutex<()>,
}

// The raw pointer field suppresses the auto traits; the cell is a container
// of `Arc<T>`, so it is Send + Sync exactly when `Arc<T>` is.
unsafe impl<T: Send + Sync> Send for EpochCell<T> {}
unsafe impl<T: Send + Sync> Sync for EpochCell<T> {}

impl<T> EpochCell<T> {
    /// Create a cell holding `initial` as the current snapshot.
    pub fn new(initial: Arc<T>) -> EpochCell<T> {
        EpochCell {
            current: AtomicPtr::new(Arc::into_raw(initial).cast_mut()),
            parity: AtomicUsize::new(0),
            readers: [AtomicUsize::new(0), AtomicUsize::new(0)],
            retire: Mutex::new(()),
        }
    }

    /// Clone the current snapshot. Wait-free: a fixed number of atomic
    /// operations, regardless of concurrent publishes.
    pub fn load(&self) -> Arc<T> {
        let side = self.parity.load(SeqCst) & 1;
        self.readers[side].fetch_add(1, SeqCst);
        let raw = self.current.load(SeqCst).cast_const();
        // SAFETY: `raw` came from `Arc::into_raw` and the allocation is still
        // alive: a writer frees a displaced snapshot only after its grace
        // period, which waits for both reader counters to drain *after* the
        // swap — and this reader registered (SeqCst) before loading `raw`, so
        // either it loaded the post-swap pointer (still owned by the cell) or
        // the retiring writer's wait covers this registration. Incrementing
        // the strong count before `from_raw` leaves the cell's own reference
        // intact.
        let snapshot = unsafe {
            Arc::increment_strong_count(raw);
            Arc::from_raw(raw)
        };
        self.readers[side].fetch_sub(1, SeqCst);
        snapshot
    }

    /// Install `next` as the current snapshot iff the cell still holds
    /// `expected` (pointer identity). Returns `true` on success; on failure
    /// `next` is dropped and the caller should reload and rebuild.
    ///
    /// On success the displaced snapshot is retired after a grace period, so
    /// the call may briefly wait for in-flight readers — readers never wait
    /// for writers.
    pub fn publish_if_current(&self, expected: &Arc<T>, next: Arc<T>) -> bool {
        let expected_raw = Arc::as_ptr(expected).cast_mut();
        let next_raw = Arc::into_raw(next).cast_mut();
        match self
            .current
            .compare_exchange(expected_raw, next_raw, SeqCst, SeqCst)
        {
            Ok(displaced) => {
                self.retire(displaced.cast_const());
                true
            }
            Err(_) => {
                // SAFETY: `next_raw` is the pointer we just produced with
                // `Arc::into_raw` above and it was not installed; reclaim the
                // reference so the rejected snapshot is dropped.
                drop(unsafe { Arc::from_raw(next_raw.cast_const()) });
                false
            }
        }
    }

    /// Wait out a grace period, then release the cell's reference to a
    /// displaced snapshot.
    fn retire(&self, displaced: *const T) {
        let guard = self.retire.lock().unwrap_or_else(|e| e.into_inner());
        // Two flip-and-drain rounds (liburcu's synchronize_rcu): a straggling
        // reader registered in either side before our swap is covered by one
        // of the two rounds; readers arriving during a round register in the
        // *other* side, so each drain terminates.
        for _ in 0..2 {
            let drained = self.parity.fetch_xor(1, SeqCst) & 1;
            let mut spins = 0u32;
            while self.readers[drained].load(SeqCst) != 0 {
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        drop(guard);
        // SAFETY: `displaced` was the cell's owned reference (swapped out by
        // the caller) and the grace period above guarantees no reader still
        // holds the raw pointer without having taken its own reference.
        drop(unsafe { Arc::from_raw(displaced) });
    }
}

impl<T> Drop for EpochCell<T> {
    fn drop(&mut self) {
        let raw = (*self.current.get_mut()).cast_const();
        // SAFETY: exclusive access; this is the cell's own reference.
        drop(unsafe { Arc::from_raw(raw) });
    }
}

impl<T> fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochCell").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Counts drops so leak/double-free bugs show up as wrong counts.
    struct Tracked {
        value: u64,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, SeqCst);
        }
    }

    #[test]
    fn load_returns_current_and_publish_replaces_it() {
        let cell = EpochCell::new(Arc::new(7u64));
        assert_eq!(*cell.load(), 7);
        let current = cell.load();
        assert!(cell.publish_if_current(&current, Arc::new(8)));
        assert_eq!(*cell.load(), 8);
    }

    #[test]
    fn stale_publish_is_rejected_and_reclaimed() {
        let drops = Arc::new(AtomicUsize::new(0));
        let tracked = |value| {
            Arc::new(Tracked {
                value,
                drops: Arc::clone(&drops),
            })
        };
        let cell = EpochCell::new(tracked(0));
        let stale = cell.load();
        assert!(cell.publish_if_current(&stale, tracked(1)));
        // Based on the displaced snapshot: must be rejected and dropped.
        assert!(!cell.publish_if_current(&stale, tracked(2)));
        assert_eq!(cell.load().value, 1);
        drop(stale);
        drop(cell);
        assert_eq!(drops.load(SeqCst), 3, "every snapshot dropped exactly once");
    }

    #[test]
    fn every_snapshot_is_dropped_exactly_once_under_concurrency() {
        const WRITERS: usize = 3;
        const PUBLISHES: usize = 150;
        const READERS: usize = 4;

        let drops = Arc::new(AtomicUsize::new(0));
        let rejections = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(EpochCell::new(Arc::new(Tracked {
            value: 0,
            drops: Arc::clone(&drops),
        })));
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let drops = Arc::clone(&drops);
                let rejections = Arc::clone(&rejections);
                std::thread::spawn(move || {
                    for _ in 0..PUBLISHES {
                        loop {
                            let current = cell.load();
                            let next = Arc::new(Tracked {
                                value: current.value + 1,
                                drops: Arc::clone(&drops),
                            });
                            if cell.publish_if_current(&current, next) {
                                break;
                            }
                            // A losing CAS drops its rejected snapshot.
                            rejections.fetch_add(1, SeqCst);
                        }
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..4_000 {
                        let snapshot = cell.load();
                        // SeqCst loads of a monotonically growing value can
                        // never appear to go backwards.
                        assert!(snapshot.value >= last);
                        last = snapshot.value;
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
        // The CAS loop makes publishes linearizable: the final value counts
        // every successful publish.
        let successes = WRITERS * PUBLISHES;
        assert_eq!(cell.load().value as usize, successes);
        let rejections = rejections.load(SeqCst);
        // Every displaced and every rejected snapshot is reclaimed while
        // the cell lives; only the current one remains.
        assert_eq!(drops.load(SeqCst), successes + rejections);
        drop(cell);
        // One initial snapshot + one per publish + one per rejected
        // publish, each dropped exactly once.
        assert_eq!(drops.load(SeqCst), 1 + successes + rejections);
    }

    #[test]
    fn readers_see_consistent_snapshots_not_tears() {
        // Each snapshot is a vector whose entries all hold the same value; a
        // reclamation bug (freeing a snapshot a reader still uses) shows up
        // as mixed or garbage entries.
        let cell = Arc::new(EpochCell::new(Arc::new(vec![0u64; 64])));
        let stop = Arc::new(AtomicUsize::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while stop.load(SeqCst) == 0 {
                        let snapshot = cell.load();
                        let first = snapshot[0];
                        assert!(snapshot.iter().all(|&v| v == first));
                    }
                })
            })
            .collect();
        for i in 1..=300u64 {
            loop {
                let current = cell.load();
                if cell.publish_if_current(&current, Arc::new(vec![i; 64])) {
                    break;
                }
            }
        }
        stop.store(1, SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*cell.load(), vec![300u64; 64]);
    }
}
