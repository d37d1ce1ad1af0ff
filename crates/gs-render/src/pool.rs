//! A persistent worker pool for frame-parallel work.
//!
//! The seed renderer re-spawned every worker thread on every frame with
//! `std::thread::scope`, in both `gs-render` and `gs-voxel`. For a streaming
//! renderer targeting real-time rates that is measurable per-frame overhead
//! and — worse — it forces the per-tile output buffers to be reallocated per
//! frame because nothing outlives the scope. [`WorkerPool`] keeps the
//! threads alive across frames: a frame dispatches `jobs` indexed closures
//! (`f(0) … f(jobs-1)`), the workers claim indices from a shared counter,
//! and [`WorkerPool::run`] blocks until every index has finished.
//!
//! Determinism: a job index always maps to the same slice of work (e.g. a
//! contiguous chunk of tiles writing disjoint output ranges), so the render
//! result is independent of which worker executes which index.
//!
//! Partitioning mutable buffers: two methods hand jobs `&mut` access to
//! frame state, as plain safe borrows at the call site.
//! [`WorkerPool::run_chunks_mut`] splits a slice into consecutive
//! `chunk_len` chunks (the `par_chunks_mut` shape) and hands job `i`
//! exactly chunk `i`. [`WorkerPool::run_claimed`] balances uneven items:
//! one job per caller-supplied local (per-worker scratch), each claiming
//! items one at a time from a shared counter — which local runs an item
//! varies, so deterministic callers give every item its own output and
//! read the items back in index order. Their raw-pointer splits are the
//! workspace's only partitioning `unsafe` apart from binning phases 3 and
//! 4 (interleaved key scatter, variable-length run sort), the splits
//! listed in `docs/LINT_RULES.md`; the crates deny `unsafe_code`
//! everywhere else.
//!
//! No allocation happens per `run` call: job dispatch is a shared
//! `(closure pointer, index counter)` guarded by a mutex/condvar pair.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Locks `state`, recovering the payload if a previous holder panicked.
/// Every critical section in this module is panic-free (job closures run
/// *outside* the lock behind `catch_unwind`), so a poisoned `PoolState` is
/// never mid-update and is safe to keep using — recovery is what lets the
/// pool survive a panicking job (see `job_panic_propagates_and_pool_survives`).
fn lock_unpoisoned<T>(state: &Mutex<T>) -> MutexGuard<'_, T> {
    match state.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// `Condvar::wait` with the same poison-recovery rationale as
/// [`lock_unpoisoned`].
fn wait_unpoisoned<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Resolves a `threads` config value (0 = all cores) to a concrete worker
/// count — the one reading of the knob shared by every renderer and the
/// frame scheduler.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Type-erased pointer to the frame's job closure plus its call shim.
#[derive(Copy, Clone)]
struct Task {
    /// Calls `*data` (a `&F` where `F: Fn(usize)`) with the job index.
    call: unsafe fn(*const (), usize),
    /// Borrow of the closure living in [`WorkerPool::run`]'s frame.
    data: *const (),
}

// SAFETY: `data` points at an `F: Fn(usize) + Sync` that outlives the frame
// (run() does not return until all jobs finished), and `Sync` makes the
// shared borrow sound across threads.
#[allow(unsafe_code)] // pool internals: the type-erased job hand-off
unsafe impl Send for Task {}

struct PoolState {
    /// The active frame's task, if any.
    task: Option<Task>,
    /// Next job index to hand out.
    next: usize,
    /// Total jobs in the active frame.
    jobs: usize,
    /// Jobs not yet finished (claimed or unclaimed).
    unfinished: usize,
    /// A job panicked during this frame.
    panicked: bool,
    /// The pool is being dropped.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers that work (or shutdown) is available.
    work: Condvar,
    /// Signals [`WorkerPool::run`] that the frame completed.
    done: Condvar,
}

/// A fixed-size pool of persistent worker threads (see module docs).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

#[allow(unsafe_code)] // pool internals: the type-erased job hand-off
unsafe fn call_shim<F: Fn(usize)>(data: *const (), index: usize) {
    // SAFETY: `data` was created from `&F` in `run` and is still borrowed
    // there while any worker can reach this shim.
    unsafe { (*(data as *const F))(index) }
}

impl WorkerPool {
    /// Spawns `threads` persistent workers (at least one).
    pub fn new(threads: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                task: None,
                next: 0,
                jobs: 0,
                unfinished: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.handles.len()
    }

    /// Returns the pool in `slot`, (re)creating it when absent or smaller
    /// than `threads`. Frame sizes vary per camera, so a renderer's first
    /// (possibly small) frame must not cap parallelism for later, larger
    /// frames.
    pub fn ensure(slot: &mut Option<WorkerPool>, threads: usize) -> &mut WorkerPool {
        if slot.as_ref().is_none_or(|p| p.size() < threads) {
            return slot.insert(WorkerPool::new(threads));
        }
        match slot.as_mut() {
            Some(pool) => pool,
            None => unreachable!("non-empty checked above"),
        }
    }

    /// Runs `f(0) … f(jobs-1)` across the workers and blocks until all
    /// indices completed. Takes `&mut self`, so frames never overlap on
    /// one pool.
    ///
    /// # Panics
    ///
    /// After the frame fully drains, if any job panicked (the panic is
    /// re-raised on the dispatching thread; the pool itself survives).
    ///
    /// The calling thread **participates**: instead of sleeping on the
    /// completion condvar while the workers drain the index counter, it
    /// claims indices like any worker and only waits once the counter is
    /// exhausted. Job results are a function of the index alone, so which
    /// thread runs an index never affects the output — this is purely one
    /// more executor (the dispatch thread used to idle through every
    /// frame).
    #[allow(unsafe_code)] // pool internals: calls the type-erased job
    pub fn run<F: Fn(usize) + Sync>(&mut self, jobs: usize, f: F) {
        if jobs == 0 {
            return;
        }
        let task = Task {
            call: call_shim::<F>,
            data: &f as *const F as *const (),
        };
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            debug_assert!(st.task.is_none(), "WorkerPool::run re-entered");
            st.task = Some(task);
            st.next = 0;
            st.jobs = jobs;
            st.unfinished = jobs;
            st.panicked = false;
            self.shared.work.notify_all();
        }
        // Claim and execute indices alongside the workers. Panics are
        // caught exactly like in `worker_loop`: the frame must fully drain
        // before `f` can be dropped (workers may still hold `task.data`).
        loop {
            let index = {
                let mut st = lock_unpoisoned(&self.shared.state);
                if st.next >= st.jobs {
                    break;
                }
                let i = st.next;
                st.next += 1;
                i
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: see `Task` — the closure outlives the frame.
                unsafe { (task.call)(task.data, index) }
            }));
            let mut st = lock_unpoisoned(&self.shared.state);
            if result.is_err() {
                st.panicked = true;
            }
            st.unfinished -= 1;
        }
        let mut st = lock_unpoisoned(&self.shared.state);
        while st.unfinished > 0 {
            st = wait_unpoisoned(&self.shared.done, st);
        }
        st.task = None;
        let panicked = st.panicked;
        drop(st);
        // `f` is only dropped after every worker finished using it.
        if panicked {
            panic!("a WorkerPool job panicked");
        }
    }

    /// Splits `items` into consecutive chunks of `chunk_len` elements (the
    /// last one may be shorter; a `chunk_len` of 0 counts as 1) and runs
    /// `f(i, chunk_i)` for every chunk across the workers, blocking until
    /// all finished — `par_chunks_mut` on the persistent pool. Chunk `i`
    /// always covers `items[i·chunk_len ..]`, so the split is a function of
    /// the arguments alone and never of scheduling.
    ///
    /// An empty slice runs no job. A single chunk runs inline on the
    /// calling thread without waking the workers.
    ///
    /// # Panics
    ///
    /// Like [`WorkerPool::run`]: a panic in any chunk re-raises here after
    /// the remaining chunks finished; the pool survives.
    #[allow(unsafe_code)] // the one sanctioned `&mut` partitioning
    pub fn run_chunks_mut<T, F>(&mut self, items: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let len = items.len();
        let chunk_len = chunk_len.max(1);
        if len <= chunk_len {
            if len > 0 {
                f(0, items);
            }
            return;
        }
        let base = ChunkBase(items.as_mut_ptr());
        self.run(len.div_ceil(chunk_len), |i| {
            let lo = i * chunk_len;
            let n = chunk_len.min(len - lo);
            // SAFETY: `[lo, lo + n)` is in bounds and disjoint from every
            // other job's range, each index runs exactly once, and `items`
            // stays mutably borrowed until `run` returns after every job
            // finished — so this is the only live reference to the chunk.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), n) };
            f(i, chunk);
        });
    }

    /// Runs `f(local, i, &mut items[i])` for every item, with items
    /// claimed dynamically: one job per local (`min(locals, items)` jobs),
    /// each owning its `local` (e.g. per-worker scratch) and claiming item
    /// indices from a shared counter until none are left. Uneven items
    /// therefore balance across the jobs instead of leaving one job with
    /// the heavier share of a fixed split.
    ///
    /// Which job (and which local) runs an item depends on scheduling, so
    /// a caller that needs deterministic output writes each item's result
    /// only into that item and reads the items in index order afterwards.
    ///
    /// Empty `items` run nothing. A single local runs every item inline,
    /// in index order, on the calling thread without waking the workers.
    ///
    /// # Panics
    ///
    /// Like [`WorkerPool::run`]: with several locals, a panic in one item
    /// re-raises here after the other jobs claimed and finished every
    /// remaining item; the pool survives. A single local's panic
    /// propagates at once.
    #[allow(unsafe_code)] // the claimed per-item `&mut` split
    pub fn run_claimed<L, T, F>(&mut self, locals: &mut [L], items: &mut [T], f: F)
    where
        L: Send,
        T: Send,
        F: Fn(&mut L, usize, &mut T) + Sync,
    {
        let len = items.len();
        let jobs = locals.len().min(len);
        let next = AtomicUsize::new(0);
        let base = ChunkBase(items.as_mut_ptr());
        self.run_chunks_mut(&mut locals[..jobs], 1, |_, local| loop {
            // `Relaxed`: the counter only hands out distinct indices (the
            // read-modify-write is atomic); item writes reach the caller
            // through the pool's state mutex when each job finishes.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            // SAFETY: `i < len`, and the counter hands each index out
            // exactly once, so this is the only reference to `items[i]`;
            // `items` stays mutably borrowed until `run_chunks_mut`
            // returns after every job finished.
            let item = unsafe { &mut *base.get().add(i) };
            f(&mut local[0], i, item);
        });
    }
}

/// Base pointer of the slice [`WorkerPool::run_chunks_mut`] partitions
/// (and [`WorkerPool::run_claimed`] hands out item by item).
struct ChunkBase<T>(*mut T);

impl<T> ChunkBase<T> {
    /// Read through a method so closures capture the whole (`Sync`)
    /// wrapper rather than the raw-pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: jobs only ever derive pairwise-disjoint chunks (or single
// claimed items) from the pointer, so sharing it amounts to sending
// `&mut [T]` pieces, sound for `T: Send`.
#[allow(unsafe_code)] // the sanctioned `&mut` partitionings
unsafe impl<T: Send> Sync for ChunkBase<T> {}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.handles.len())
            .finish()
    }
}

#[allow(unsafe_code)] // pool internals: calls the type-erased job
fn worker_loop(shared: &PoolShared) {
    loop {
        let (task, index) = {
            let mut st = lock_unpoisoned(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(task) = st.task {
                    if st.next < st.jobs {
                        let index = st.next;
                        st.next += 1;
                        break (task, index);
                    }
                }
                st = wait_unpoisoned(&shared.work, st);
            }
        };

        // Execute outside the lock; never lose the `unfinished` decrement.
        let result = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: see `Task` — the closure outlives the frame.
            unsafe { (task.call)(task.data, index) }
        }));

        let mut st = lock_unpoisoned(&shared.state);
        if result.is_err() {
            st.panicked = true;
        }
        st.unfinished -= 1;
        if st.unfinished == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_index_exactly_once() {
        let mut pool = WorkerPool::new(4);
        let mut hits = [
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        ];
        for _ in 0..50 {
            pool.run(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in hits.iter_mut() {
            assert_eq!(*h.get_mut(), 50);
        }
    }

    #[test]
    fn more_jobs_than_workers() {
        let mut pool = WorkerPool::new(2);
        let hits: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn borrows_stack_data_mutably_through_disjoint_chunks() {
        let mut pool = WorkerPool::new(3);
        let mut data = vec![0u64; 300];
        pool.run_chunks_mut(&mut data, 100, |w, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (100 * w + k) as u64;
            }
        });
        assert!(data.iter().enumerate().all(|(i, v)| *v == i as u64));
    }

    #[test]
    fn uneven_tail_chunk_is_shorter() {
        let mut pool = WorkerPool::new(2);
        let mut data = vec![(usize::MAX, 0usize); 10];
        pool.run_chunks_mut(&mut data, 4, |c, chunk| {
            let n = chunk.len();
            chunk.fill((c, n));
        });
        let expect: Vec<(usize, usize)> = (0..10)
            .map(|i| (i / 4, if i < 8 { 4 } else { 2 }))
            .collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn chunk_len_at_least_len_runs_exactly_one_job() {
        let mut pool = WorkerPool::new(2);
        for chunk_len in [5, 6, 100] {
            let calls = AtomicUsize::new(0);
            let mut data = [1u32; 5];
            pool.run_chunks_mut(&mut data, chunk_len, |c, chunk| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert_eq!((c, chunk.len()), (0, 5));
                chunk.iter_mut().for_each(|v| *v += 1);
            });
            assert_eq!(calls.load(Ordering::Relaxed), 1);
            assert_eq!(data, [2; 5]);
        }
    }

    #[test]
    fn empty_slice_runs_no_job() {
        let mut pool = WorkerPool::new(2);
        let mut data: [u8; 0] = [];
        for chunk_len in [0, 1, 8] {
            pool.run_chunks_mut(&mut data, chunk_len, |_, _| panic!("must not run"));
        }
    }

    #[test]
    fn chunk_panic_propagates_and_pool_survives() {
        let mut pool = WorkerPool::new(2);
        let mut data = vec![0u32; 8];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_chunks_mut(&mut data, 2, |c, chunk| {
                if c == 1 {
                    panic!("boom");
                }
                chunk.fill(1);
            })
        }));
        assert!(caught.is_err());
        // Every other chunk still ran to completion before the re-raise.
        assert_eq!(data, [1, 1, 0, 0, 1, 1, 1, 1]);
        // The pool still works afterwards.
        pool.run_chunks_mut(&mut data, 3, |_, chunk| chunk.fill(7));
        assert_eq!(data, [7; 8]);
    }

    #[test]
    fn job_panic_propagates_and_pool_survives() {
        let mut pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, |i| {
                if i == 2 {
                    panic!("boom");
                }
            })
        }));
        assert!(caught.is_err());
        // The pool still works afterwards.
        let count = AtomicUsize::new(0);
        pool.run(8, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn claimed_items_run_exactly_once_and_locals_never_overlap() {
        let mut pool = WorkerPool::new(3);
        for n_items in [1usize, 2, 7, 64] {
            // Each local carries an in-use flag and the items it ran.
            let mut locals: Vec<(AtomicUsize, Vec<usize>)> =
                (0..3).map(|_| (AtomicUsize::new(0), Vec::new())).collect();
            let mut items = vec![0u32; n_items];
            pool.run_claimed(&mut locals, &mut items, |(busy, ran), i, item| {
                assert_eq!(busy.swap(1, Ordering::SeqCst), 0, "local used twice");
                *item += 1;
                ran.push(i);
                std::thread::yield_now();
                busy.store(0, Ordering::SeqCst);
            });
            assert!(items.iter().all(|&v| v == 1), "n_items={n_items}");
            let mut all: Vec<usize> = locals.iter().flat_map(|l| l.1.clone()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..n_items).collect::<Vec<_>>());
            // One job per local at most, and never more jobs than items.
            let used = locals.iter().filter(|l| !l.1.is_empty()).count();
            assert!(used <= n_items.min(3));
        }
    }

    #[test]
    fn claimed_with_more_locals_than_items_or_no_items() {
        let mut pool = WorkerPool::new(2);
        let mut locals = vec![0usize; 5];
        let mut items = [10u32, 20];
        pool.run_claimed(&mut locals, &mut items, |count, i, item| {
            *count += 1;
            *item += i as u32;
        });
        assert_eq!(items, [10, 21]);
        assert_eq!(locals.iter().sum::<usize>(), 2);
        let mut empty: [u32; 0] = [];
        pool.run_claimed(&mut locals, &mut empty, |_, _, _| panic!("must not run"));
        pool.run_claimed(&mut [] as &mut [usize], &mut items, |_, _, _| {
            panic!("no local, no job")
        });
    }

    #[test]
    fn single_local_runs_items_inline_in_order() {
        let mut pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let mut locals = [Vec::new()];
        let mut items = [0u8; 6];
        pool.run_claimed(&mut locals, &mut items, |order, i, _| {
            assert_eq!(std::thread::current().id(), caller, "woke a worker");
            order.push(i);
        });
        assert_eq!(locals[0], (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn claimed_panic_propagates_after_other_items_and_pool_survives() {
        let mut pool = WorkerPool::new(2);
        let mut locals = [(), ()];
        let mut items = vec![0u32; 12];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_claimed(&mut locals, &mut items, |_, i, item| {
                if i == 3 {
                    panic!("boom");
                }
                *item = 1;
            })
        }));
        assert!(caught.is_err());
        // The other job claimed and finished every remaining item.
        let expect: Vec<u32> = (0..12).map(|i| u32::from(i != 3)).collect();
        assert_eq!(items, expect);
        pool.run_claimed(&mut locals, &mut items, |_, _, item| *item = 7);
        assert_eq!(items, [7; 12]);
    }

    #[test]
    fn zero_jobs_is_a_noop() {
        let mut pool = WorkerPool::new(2);
        pool.run(0, |_| panic!("must not run"));
    }
}
