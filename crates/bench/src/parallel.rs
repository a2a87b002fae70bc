//! The parallel sweep engine: shards experiment cells across scoped
//! worker threads with byte-identical output to a serial run.
//!
//! The figure sweep behind [`crate::tables`] builds its full cell list up
//! front, runs it through [`map`], and aggregates the results *in list
//! order*. Workers pull cell indices from a shared atomic counter, so
//! any thread may simulate any cell, but each cell is deterministic given its
//! own seed and results land back at their original index — aggregation
//! order (and thus floating-point summation order, and thus the rendered
//! tables) never depends on the thread count.
//!
//! Thread count comes from `MULTIPATH_THREADS`; unset or invalid falls
//! back to the machine's available parallelism. `MULTIPATH_THREADS=1` is
//! the serial mode the CI determinism gate compares against.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Worker-thread count: `MULTIPATH_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn thread_count() -> usize {
    match std::env::var("MULTIPATH_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Applies `f` to every item on [`thread_count`] workers, returning
/// results in item order.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_with(thread_count(), items, f)
}

/// [`map`] with an explicit worker count. `threads <= 1` runs inline on
/// the calling thread; either way the result order is the item order.
pub fn map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

/// A queued unit of work for a [`WorkerPool`].
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`WorkerPool::try_execute`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolRejected {
    /// The bounded queue is at capacity — the caller should shed load
    /// (the serving layer turns this into HTTP 429).
    QueueFull,
    /// The pool is draining and accepts no new work.
    ShuttingDown,
}

/// Shared state between a [`WorkerPool`]'s handle and its threads.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Signals workers that a job (or shutdown) is available.
    available: Condvar,
    /// Queue capacity; `try_execute` rejects beyond this.
    capacity: usize,
    /// Jobs currently executing (not counting queued ones).
    running: AtomicUsize,
}

struct PoolQueue {
    jobs: VecDeque<Job>,
    draining: bool,
}

/// A fixed pool of persistent worker threads behind a bounded job queue.
///
/// This is the long-lived sibling of [`map_with`]: where the sweep engine
/// spawns scoped workers per call and shards a known cell list, the pool
/// keeps its threads across submissions and *rejects* work beyond its
/// queue bound instead of blocking — the backpressure primitive the
/// `multipath serve` layer builds its 429 behaviour on. Dropping (or
/// [`WorkerPool::shutdown`]-ing) the pool drains gracefully: queued and
/// running jobs finish, new submissions are refused. A job that panics
/// ends alone; its worker goes on to the next job.
///
/// # Examples
///
/// ```
/// use multipath_bench::parallel::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = WorkerPool::new(2, 16);
/// let done = Arc::new(AtomicUsize::new(0));
/// for _ in 0..8 {
///     let done = done.clone();
///     pool.try_execute(move || {
///         done.fetch_add(1, Ordering::SeqCst);
///     })
///     .unwrap();
/// }
/// pool.shutdown();
/// assert_eq!(done.load(Ordering::SeqCst), 8);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` persistent workers (at least one) behind a queue
    /// bounded at `capacity` pending jobs.
    pub fn new(threads: usize, capacity: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                draining: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            running: AtomicUsize::new(0),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mp-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Submits a job, or rejects it immediately if the queue is full or
    /// the pool is draining. Never blocks the caller.
    pub fn try_execute<F>(&self, job: F) -> Result<(), PoolRejected>
    where
        F: FnOnce() + Send + 'static,
    {
        let mut q = self.shared.queue.lock().expect("pool queue poisoned");
        if q.draining {
            return Err(PoolRejected::ShuttingDown);
        }
        if q.jobs.len() >= self.shared.capacity {
            return Err(PoolRejected::QueueFull);
        }
        q.jobs.push_back(Box::new(job));
        drop(q);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Jobs queued but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("pool queue poisoned")
            .jobs
            .len()
    }

    /// Jobs currently executing on a worker.
    pub fn running(&self) -> usize {
        self.shared.running.load(Ordering::Relaxed)
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Graceful drain: stop accepting jobs, finish everything queued and
    /// running, join the workers. Also performed on drop.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.draining = true;
        }
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.draining {
                    return;
                }
                q = shared.available.wait(q).expect("pool queue poisoned");
            }
        };
        shared.running.fetch_add(1, Ordering::Relaxed);
        // A panicking job ends only itself: the worker and the `running`
        // count carry on. The panic hook has already reported it.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
        shared.running.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 7, 16, 200] {
            let out = map_with(threads, &items, |&x| x * x);
            assert_eq!(
                out,
                items.iter().map(|x| x * x).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        assert_eq!(map_with(8, &[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(map_with(8, &[5u64], |&x| x + 1), vec![6]);
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn pool_runs_jobs_and_drains_on_shutdown() {
        use std::sync::atomic::AtomicUsize;
        let pool = WorkerPool::new(3, 64);
        assert_eq!(pool.threads(), 3);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..40 {
            let done = done.clone();
            pool.try_execute(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })
            .expect("queue has room");
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn pool_rejects_beyond_capacity() {
        // One worker wedged on a gate; capacity-1 queue fills after one
        // queued job.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = WorkerPool::new(1, 1);
        let g = gate.clone();
        pool.try_execute(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .unwrap();
        // Wait for the worker to pick the job up, then fill the queue.
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
        pool.try_execute(|| {}).unwrap();
        assert_eq!(pool.try_execute(|| {}), Err(PoolRejected::QueueFull));
        assert_eq!(pool.queue_depth(), 1);
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.shutdown();
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        use std::sync::mpsc;
        use std::time::{Duration, Instant};
        let pool = WorkerPool::new(2, 64);
        for _ in 0..2 {
            pool.try_execute(|| panic!("job panics on purpose"))
                .expect("queue has room");
        }
        let (tx, rx) = mpsc::channel();
        for i in 0..40 {
            let tx = tx.clone();
            pool.try_execute(move || tx.send(i).unwrap())
                .expect("queue has room");
        }
        for _ in 0..40 {
            rx.recv_timeout(Duration::from_secs(10))
                .expect("a worker survived the panics to run every job");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.running() != 0 {
            assert!(
                Instant::now() < deadline,
                "running() stuck at {}",
                pool.running()
            );
            std::thread::yield_now();
        }
        pool.shutdown();
    }

    #[test]
    fn draining_pool_refuses_new_jobs() {
        let mut pool = WorkerPool::new(1, 4);
        pool.drain();
        assert_eq!(pool.try_execute(|| {}), Err(PoolRejected::ShuttingDown));
    }
}
