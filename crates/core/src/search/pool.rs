//! Where the parallel driver's worker threads come from.
//!
//! The level-barrier engine ([`super::engine::run_search_with`]) needs a
//! set of threads that run one search's worker loop concurrently with the
//! driver.  PR 2 always *spawned* that set per search, which costs tens of
//! microseconds — acceptable for millisecond searches, fatal for the
//! sub-100µs queries a serving layer answers all day.  This module makes
//! the thread source pluggable:
//!
//! * [`ScopedSpawnPool`] — the PR 2 behaviour: spawn scoped threads for
//!   one search, join them at the end.  Zero standing cost, ~50µs per
//!   search.  The default when [`super::SearchConfig::pool`] is `None`.
//! * [`PersistentPool`] — long-lived parked threads shared across
//!   searches.  Dispatch is a mutex store plus a condvar wake (a few µs),
//!   so the fan-out win extends to small queries and the fan-out gate can
//!   sit much lower ([`PERSISTENT_FANOUT_THRESHOLD`]).
//!
//! The engine's determinism story is unchanged by the pool choice: worker
//! *identity* never influences results (subsets are merged in worker-index
//! order at every level barrier), so any `WorkerPool` implementation
//! yields byte-identical outcomes — pinned by `tests/parallel_parity.rs`
//! for both implementations.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// Default [`super::SearchConfig::fanout_threshold`] for searches backed
/// by a [`PersistentPool`]: waking a parked thread costs a few
/// microseconds instead of a ~50µs spawn, so fanning out pays off at
/// roughly a quarter of the spawn pool's level width
/// ([`super::engine::DEFAULT_FANOUT_THRESHOLD`]).
pub const PERSISTENT_FANOUT_THRESHOLD: usize = 8;

/// A source of worker threads for the parallel DP driver.
///
/// `scope` must run `worker(i)` once for every `i in 0..workers`
/// concurrently with `driver()` on the calling thread, and must not return
/// until the driver *and* every started worker have finished.
/// Implementations must contain worker panics (the engine reports them
/// through its own flags and expects the pool to survive), and must still
/// wait for the workers before propagating a driver panic — the worker
/// closures borrow driver-side state that dies with the scope.
pub trait WorkerPool: std::fmt::Debug + Send + Sync {
    /// Run `worker(0)..worker(workers-1)` concurrently with `driver()`;
    /// return once all of them have completed.
    fn scope(&self, workers: usize, worker: &(dyn Fn(usize) + Sync), driver: &mut dyn FnMut());

    /// Upper bound on the workers one [`WorkerPool::scope`] call can
    /// actually start; the engine clamps its fan-out width to this.
    fn max_workers(&self) -> usize;
}

/// The per-search pool: scoped threads spawned on entry and joined on
/// exit.  Stateless, so one static instance serves every search.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScopedSpawnPool;

impl WorkerPool for ScopedSpawnPool {
    fn scope(&self, workers: usize, worker: &(dyn Fn(usize) + Sync), driver: &mut dyn FnMut()) {
        std::thread::scope(|scope| {
            for w in 0..workers {
                // Contain worker panics: the engine has already recorded
                // them via its ack guards, and a panicking scoped thread
                // would otherwise re-panic the scope on join.
                scope.spawn(move || {
                    let _ = catch_unwind(AssertUnwindSafe(|| worker(w)));
                });
            }
            // The driver runs on the calling thread; if it unwinds, the
            // scope still joins the workers (the engine's stop guard has
            // released them by then).
            driver();
        });
    }

    fn max_workers(&self) -> usize {
        usize::MAX
    }
}

/// One dispatched job: the engine's worker closure with its scope lifetime
/// erased.  Sound because [`PersistentPool::scope`] does not return until
/// every participating thread has finished running it, so the borrow it
/// came from is still live whenever a pool thread dereferences it.
type ErasedWorker = &'static (dyn Fn(usize) + Sync);

/// State shared between [`PersistentPool::scope`] and the pool threads.
#[derive(Default)]
struct PoolState {
    /// Monotonic job sequence number; bumped once per `scope` call.
    seq: u64,
    /// Number of pool threads participating in the current job.
    workers: usize,
    /// The current job, if any.
    job: Option<ErasedWorker>,
    /// Participants that have finished the current job.
    done: usize,
    /// Tells the threads to exit (set on drop).
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Wakes pool threads when a job is published or shutdown is set.
    work: Condvar,
    /// Wakes `scope` when the last participant finishes.
    idle: Condvar,
}

/// A persistent, cross-search worker pool: `threads` long-lived OS threads
/// that park between searches and are borrowed by the engine instead of
/// spawning a fresh scoped pool per search.
///
/// One pool serves one search at a time (concurrent `scope` calls
/// serialize on an internal lock); share it across sequential searches —
/// the [`crate::Optimizer`] facade and `lec-service`'s
/// `ConcurrentPlanServer` do exactly that.  Worker panics are contained
/// per job: the pool threads survive a panicking search and serve the
/// next one.
///
/// The pool can be drained explicitly with [`PersistentPool::shutdown`]
/// (long-lived daemons do this on graceful exit so no parked thread
/// outlives the serving state); dropping the pool shuts it down too.
pub struct PersistentPool {
    shared: Arc<PoolShared>,
    /// Serializes `scope` calls: the job slot holds one job at a time.
    /// `shutdown` takes the same lock, so a drain waits for the in-flight
    /// search instead of yanking its workers mid-barrier.
    scope_lock: Mutex<()>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Thread count at construction; stable across shutdown so the
    /// engine's fan-out clamp ([`WorkerPool::max_workers`]) never races
    /// the drain.
    n_threads: usize,
}

impl std::fmt::Debug for PersistentPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentPool")
            .field("threads", &self.n_threads)
            .finish()
    }
}

impl PersistentPool {
    /// Spawn a pool of `threads` parked worker threads.  `threads` is the
    /// number of *workers*; the search driver itself runs on the calling
    /// thread, so a pool of `t` workers supports `SearchConfig::threads`
    /// up to `t + 1`.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lec-pool-{i}"))
                    .spawn(move || pool_thread(&shared, i))
                    .expect("spawn persistent pool thread")
            })
            .collect();
        PersistentPool {
            shared,
            scope_lock: Mutex::new(()),
            handles: Mutex::new(handles),
            n_threads: threads,
        }
    }

    /// A pool sized to the machine: `available_parallelism - 1` workers
    /// (the driver occupies the remaining core).
    pub fn for_host() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        PersistentPool::new(threads.saturating_sub(1))
    }

    /// Number of worker threads the pool was built with (unchanged by
    /// [`PersistentPool::shutdown`]).
    pub fn threads(&self) -> usize {
        self.n_threads
    }

    /// Drain the pool: park no new jobs, wake every parked thread, and
    /// join them all.  Safe to call from any thread, any number of times
    /// (a second drain joins an empty handle list), and safe to race with
    /// an in-flight search — `shutdown` serializes on the same lock as
    /// [`WorkerPool::scope`], so a leader mid-fan-out keeps its workers
    /// until its own level barrier completes, and only then do the
    /// threads exit.  A search dispatched *after* shutdown still honors
    /// the `WorkerPool` contract by falling back to a one-shot scoped
    /// spawn (see [`WorkerPool::scope`] for why running fewer workers
    /// than requested is not an option: the engine's ack barrier counts
    /// them).  Dropping the pool calls this.
    pub fn shutdown(&self) {
        let _scope = self.scope_lock.lock().unwrap_or_else(|p| p.into_inner());
        {
            let mut state = self.lock_state();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        let handles: Vec<_> = {
            let mut handles = self.handles.lock().unwrap_or_else(|p| p.into_inner());
            handles.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// True once [`PersistentPool::shutdown`] has run (or begun): parked
    /// threads are gone and new searches fall back to scoped spawning.
    pub fn is_shut_down(&self) -> bool {
        self.lock_state().shutdown
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.shared.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

fn pool_thread(shared: &PoolShared, index: usize) {
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if state.shutdown {
                    return;
                }
                if state.seq != last_seq {
                    last_seq = state.seq;
                    if index < state.workers {
                        break state.job.expect("published job is present");
                    }
                    // Not a participant of this job; keep waiting.
                }
                state = shared.work.wait(state).unwrap_or_else(|p| p.into_inner());
            }
        };
        // Run outside the lock.  Panics are contained: the engine records
        // them through its own ack guards, and this thread must survive to
        // serve the next search.
        let _ = catch_unwind(AssertUnwindSafe(|| job(index)));
        let mut state = shared.state.lock().unwrap_or_else(|p| p.into_inner());
        state.done += 1;
        if state.done == state.workers {
            shared.idle.notify_all();
        }
    }
}

impl WorkerPool for PersistentPool {
    fn scope(&self, workers: usize, worker: &(dyn Fn(usize) + Sync), driver: &mut dyn FnMut()) {
        let n = workers.min(self.n_threads);
        if n == 0 {
            driver();
            return;
        }
        let _scope = self.scope_lock.lock().unwrap_or_else(|p| p.into_inner());
        if self.lock_state().shutdown {
            // Drained pool: the parked threads are gone, but the engine's
            // level barrier waits for exactly `workers` acks — silently
            // running fewer would deadlock it.  Honor the contract with a
            // one-shot scoped spawn instead (the pre-persistent-pool
            // behaviour: slower, never wrong).
            ScopedSpawnPool.scope(n, worker, driver);
            return;
        }
        {
            let mut state = self.lock_state();
            // SAFETY: the erased reference is only dereferenced by pool
            // threads between this publish and the wait below, and this
            // function does not return (or resume a driver unwind) until
            // all `n` participants have reported done — so the `'scope`
            // borrow behind the transmute outlives every use.
            let job: ErasedWorker =
                unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), ErasedWorker>(worker) };
            state.job = Some(job);
            state.workers = n;
            state.done = 0;
            state.seq += 1;
        }
        self.shared.work.notify_all();
        let driver_result = catch_unwind(AssertUnwindSafe(driver));
        {
            let mut state = self.lock_state();
            while state.done < n {
                state = self
                    .shared
                    .idle
                    .wait(state)
                    .unwrap_or_else(|p| p.into_inner());
            }
            state.job = None;
        }
        if let Err(panic) = driver_result {
            resume_unwind(panic);
        }
    }

    fn max_workers(&self) -> usize {
        self.n_threads
    }
}

impl Drop for PersistentPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn count_scope(pool: &dyn WorkerPool, workers: usize) -> (usize, usize) {
        let worker_runs = AtomicUsize::new(0);
        let driver_runs = AtomicUsize::new(0);
        pool.scope(
            workers,
            &|_w| {
                worker_runs.fetch_add(1, Ordering::SeqCst);
            },
            &mut || {
                driver_runs.fetch_add(1, Ordering::SeqCst);
            },
        );
        (
            worker_runs.load(Ordering::SeqCst),
            driver_runs.load(Ordering::SeqCst),
        )
    }

    #[test]
    fn spawn_pool_runs_every_worker_and_the_driver() {
        assert_eq!(count_scope(&ScopedSpawnPool, 4), (4, 1));
        assert_eq!(count_scope(&ScopedSpawnPool, 0), (0, 1));
    }

    #[test]
    fn persistent_pool_runs_jobs_across_many_scopes() {
        let pool = PersistentPool::new(3);
        assert_eq!(pool.threads(), 3);
        for _ in 0..50 {
            assert_eq!(count_scope(&pool, 3), (3, 1));
        }
        // Requests beyond capacity clamp to the pool size.
        assert_eq!(count_scope(&pool, 16), (3, 1));
        assert_eq!(count_scope(&pool, 0), (0, 1));
    }

    #[test]
    fn persistent_pool_survives_worker_panics() {
        let pool = PersistentPool::new(2);
        let before = AtomicUsize::new(0);
        pool.scope(
            2,
            &|w| {
                before.fetch_add(1, Ordering::SeqCst);
                if w == 0 {
                    panic!("worker blew up");
                }
            },
            &mut || {},
        );
        assert_eq!(before.load(Ordering::SeqCst), 2);
        // The pool threads survived and still serve jobs.
        assert_eq!(count_scope(&pool, 2), (2, 1));
    }

    #[test]
    fn persistent_pool_shutdown_is_idempotent() {
        let pool = PersistentPool::new(3);
        assert!(!pool.is_shut_down());
        pool.shutdown();
        assert!(pool.is_shut_down());
        // Double-drain: the second call joins an empty handle list and
        // returns immediately instead of deadlocking.
        pool.shutdown();
        assert!(pool.is_shut_down());
        // Drop after explicit shutdown is the third drain — also a no-op.
    }

    #[test]
    fn persistent_pool_scope_after_shutdown_still_honors_the_contract() {
        let pool = PersistentPool::new(2);
        pool.shutdown();
        // The parked threads are gone, but the engine's ack barrier counts
        // one ack per requested worker — the fallback scoped spawn must
        // still run all of them.
        assert_eq!(count_scope(&pool, 2), (2, 1));
        assert_eq!(pool.max_workers(), 2, "clamp is stable across drain");
        assert_eq!(count_scope(&pool, 0), (0, 1));
    }

    #[test]
    fn persistent_pool_shutdown_waits_for_inflight_scope() {
        use std::sync::Barrier;
        let pool = Arc::new(PersistentPool::new(2));
        let entered = Arc::new(Barrier::new(3));
        let finished = Arc::new(AtomicUsize::new(0));
        let drainer = {
            let pool = Arc::clone(&pool);
            let entered = Arc::clone(&entered);
            std::thread::spawn(move || {
                entered.wait();
                // The leader is mid-fan-out with sleeping workers; drain
                // must block on the scope lock until its barrier completes
                // rather than yanking the threads out from under it.
                pool.shutdown();
            })
        };
        pool.scope(
            2,
            &|_w| {
                entered.wait();
                std::thread::sleep(std::time::Duration::from_millis(20));
                finished.fetch_add(1, Ordering::SeqCst);
            },
            &mut || {},
        );
        drainer.join().unwrap();
        assert_eq!(
            finished.load(Ordering::SeqCst),
            2,
            "both workers ran to completion before the drain took effect"
        );
        assert!(pool.is_shut_down());
        // And the drained pool still serves (via the scoped fallback).
        assert_eq!(count_scope(&*pool, 2), (2, 1));
    }

    #[test]
    fn persistent_pool_shutdown_after_worker_panic_does_not_leak_threads() {
        let pool = PersistentPool::new(2);
        pool.scope(
            2,
            &|w| {
                if w == 1 {
                    panic!("worker blew up mid-drain test");
                }
            },
            &mut || {},
        );
        // The panicking job is fully retired; shutdown joins cleanly.
        pool.shutdown();
        assert!(pool.is_shut_down());
    }

    #[test]
    fn persistent_pool_waits_for_workers_before_driver_panic_propagates() {
        let pool = PersistentPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(
                2,
                &|_w| {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    finished.fetch_add(1, Ordering::SeqCst);
                },
                &mut || panic!("driver blew up"),
            );
        }));
        assert!(result.is_err(), "driver panic must propagate");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            2,
            "scope must wait for the workers before unwinding"
        );
        assert_eq!(count_scope(&pool, 2), (2, 1));
    }
}
