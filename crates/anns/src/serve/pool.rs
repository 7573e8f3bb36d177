//! Persistent search-worker thread pool (DESIGN.md §7.2).
//!
//! Workers live for the lifetime of the pool and each one owns a single
//! reusable [`SearchScratch`], so steady-state queries allocate no visited
//! maps — the scratch is sized once for the largest shard and then reset in
//! O(1) per query by bumping its visited-map epoch, with a full clear once
//! every 255 queries (the perf property `rpq_graph::beam_search` is built
//! around). Jobs are `FnOnce(&mut SearchScratch)` closures pulled
//! from a shared MPMC queue (an [`mpsc`] receiver behind a mutex — the
//! classic std-only work-sharing arrangement).

use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use rpq_graph::SearchScratch;

use super::recover;

/// A unit of work executed on a pool worker with that worker's scratch.
type Job = Box<dyn FnOnce(&mut SearchScratch) + Send + 'static>;

/// Fixed-size pool of persistent search workers.
pub struct WorkerPool {
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads, each owning a scratch pre-sized for
    /// graphs of up to `scratch_capacity` vertices.
    pub fn new(workers: usize, scratch_capacity: usize) -> Self {
        let workers = workers.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || {
                    let mut scratch = SearchScratch::with_capacity(scratch_capacity);
                    loop {
                        // Hold the queue lock only for the dequeue, never
                        // while running the job.
                        let job = recover(receiver.lock()).recv();
                        match job {
                            Ok(job) => {
                                // A panicking job must not take the worker
                                // down with it: a dead worker strands every
                                // job still queued (senders trapped in the
                                // queue would hang result collectors
                                // forever). Contain the panic, hand the
                                // worker a fresh scratch, keep serving; the
                                // submitter detects the lost job through
                                // its dropped result channel.
                                let caught =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        job(&mut scratch)
                                    }));
                                if caught.is_err() {
                                    scratch = SearchScratch::with_capacity(scratch_capacity);
                                }
                            }
                            Err(_) => break, // pool dropped, queue drained
                        }
                    }
                })
            })
            .collect();
        Self {
            sender: Some(sender),
            workers: handles,
        }
    }

    /// Enqueues a job; some idle worker will run it with its own scratch.
    pub fn submit(&self, job: impl FnOnce(&mut SearchScratch) + Send + 'static) {
        self.sender
            .as_ref()
            .expect("pool sender alive until drop")
            .send(Box::new(job))
            .expect("worker threads alive until drop");
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close the queue: workers finish whatever is enqueued, then exit.
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The default worker count: the configured pool width — `RPQ_THREADS`
/// if set, otherwise one per available core (the paper evaluates with 8
/// search threads; DESIGN.md §7.2). One knob sizes both the offline
/// sweep harness and the serving pool.
pub fn default_workers() -> usize {
    rayon::current_num_threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_jobs_run() {
        let pool = WorkerPool::new(4, 100);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.submit(move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..64 {
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn drop_drains_pending_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2, 10);
            for _ in 0..32 {
                let counter = Arc::clone(&counter);
                pool.submit(move |_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Drop joins after the queue closes, so all 32 must run.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn workers_reuse_their_scratch() {
        // The scratch must arrive pre-sized: capacity implies memory.
        let pool = WorkerPool::new(1, 5000);
        let (tx, rx) = mpsc::channel();
        pool.submit(move |scratch| {
            tx.send(scratch.memory_bytes()).unwrap();
        });
        let bytes = rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        assert!(bytes >= 5000, "scratch not pre-sized: {bytes} bytes");
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1, 10);
        pool.submit(|_| panic!("job blew up"));
        // The single worker must survive to run this second job.
        let (tx, rx) = mpsc::channel();
        pool.submit(move |scratch| {
            tx.send(scratch.memory_bytes()).unwrap();
        });
        let bytes = rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        assert!(bytes >= 10, "replacement scratch not pre-sized");
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0, 10);
        assert_eq!(pool.workers(), 1);
    }
}
