//! The host's cores: how many there are, and the one pool of worker
//! threads that every fan-out in the workspace runs on.
//!
//! The pool keeps `available_cores() - 1` threads, started on first need
//! and asleep between calls. A fan-out ([`fan_out`]) hands the pool an
//! owned job over `units` independent units: the calling thread and up to
//! `workers - 1` pool threads claim the units one at a time from a shared
//! counter until none is left. The calling thread never waits for a pool
//! thread to start: once no unit is left to claim it waits only for the
//! units a pool thread is already working, and a pool thread that picks
//! the call up after it has returned finds nothing left and goes back to
//! sleep. A panic in a pool thread's unit is handed to the calling thread,
//! which re-raises it once every claimed unit is accounted for; the pool
//! thread lives on.
//!
//! Several callers may fan out at once (the pool is shared by the whole
//! process): a pool thread busy with one call picks up the next when it
//! is done, and meanwhile every caller works its own units itself, so the
//! thread count never grows with the number of callers.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Cores the host offers this process
/// ([`std::thread::available_parallelism`]), asked once per process; 1
/// when the host cannot say. The one probe behind every split of work
/// over cores: the worker pool's size ([`fan_out`]: the codec's ROI tile
/// encode and decode, its whole-band subband chunk decode, the scene's
/// row blocks and the ground's batch ingest), and the ground service's
/// default ingest worker cap.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One fan-out's units: owned inputs and wherever the results land.
pub trait PoolJob: Send + Sync + 'static {
    /// Works unit `unit` on pool thread `worker` (in
    /// `0..available_cores() - 1`; no two units run on one worker at
    /// once).
    fn work(&self, worker: usize, unit: usize);
}

/// A fan-out in flight: its job, the claim counter, and how many claimed
/// units are worked.
pub struct PoolCall<J> {
    job: J,
    units: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<J> PoolCall<J> {
    /// The job, with every unit worked once [`fan_out`] has returned.
    pub fn job(&self) -> &J {
        &self.job
    }

    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.units).then_some(i)
    }
}

/// A call as a pool thread sees it.
trait Drain: Send + Sync {
    /// Works units on pool thread `worker` until none is left to claim.
    fn drain(&self, worker: usize);
}

impl<J: PoolJob> Drain for PoolCall<J> {
    fn drain(&self, worker: usize) {
        while let Some(i) = self.claim() {
            let worked = panic::catch_unwind(AssertUnwindSafe(|| self.job.work(worker, i)));
            if let Err(payload) = worked {
                lock(&self.panic).get_or_insert(payload);
            }
            self.done.fetch_add(1, Ordering::Release);
        }
    }
}

/// Locks `mutex`, whether or not a panic poisoned it: what a panicking
/// unit left behind is still a valid value.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The pool's queue: one entry per pool thread a call asked for, and the
/// threads started so far.
#[derive(Default)]
struct Queue {
    calls: VecDeque<Arc<dyn Drain>>,
    started: usize,
}

/// A set of kept worker threads.
struct Pool {
    size: usize,
    queue: Arc<(Mutex<Queue>, Condvar)>,
}

impl Pool {
    fn new(size: usize) -> Self {
        Pool {
            size,
            queue: Arc::default(),
        }
    }

    /// The process's pool: one thread per core beyond the calling one.
    fn shared() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool::new(available_cores() - 1))
    }

    fn fan_out<J: PoolJob>(
        &self,
        workers: usize,
        units: usize,
        job: J,
        mut caller: impl FnMut(&J, usize),
    ) -> Arc<PoolCall<J>> {
        let call = Arc::new(PoolCall {
            job,
            units,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        let helpers = workers.clamp(1, units.max(1)).min(self.size + 1) - 1;
        if helpers > 0 {
            let (queue, wake) = &*self.queue;
            let mut queue = lock(queue);
            while queue.started < helpers {
                self.start(queue.started);
                queue.started += 1;
            }
            for _ in 0..helpers {
                queue.calls.push_back(call.clone());
            }
            drop(queue);
            wake.notify_all();
        }
        while let Some(i) = call.claim() {
            caller(&call.job, i);
            call.done.fetch_add(1, Ordering::Release);
        }
        // Only units a pool thread is still working are left. The Acquire
        // load pairs with each unit's Release increment, so a unit counted
        // done has its writes visible here.
        while call.done.load(Ordering::Acquire) < units {
            std::thread::yield_now();
        }
        if let Some(payload) = lock(&call.panic).take() {
            panic::resume_unwind(payload);
        }
        call
    }

    /// Starts pool thread `worker`, which sleeps on the queue between
    /// calls. It is never joined: it lives as long as the process, and a
    /// panic in a unit is caught and handed to that unit's caller.
    fn start(&self, worker: usize) {
        let queue = Arc::clone(&self.queue);
        #[allow(
            clippy::disallowed_methods,
            reason = "the worker pool is the one place that starts compute threads"
        )]
        std::thread::Builder::new()
            .name(format!("earthplus-pool-{worker}"))
            .spawn(move || {
                let (queue, wake) = &*queue;
                loop {
                    let call = {
                        let mut queue = lock(queue);
                        loop {
                            match queue.calls.pop_front() {
                                Some(call) => break call,
                                None => {
                                    queue = wake.wait(queue).unwrap_or_else(PoisonError::into_inner)
                                }
                            }
                        }
                    };
                    call.drain(worker);
                }
            })
            .expect("pool thread spawn failed");
    }

    fn threads(&self) -> usize {
        lock(&self.queue.0).started
    }
}

/// Works every unit of `job` once, on up to `workers` workers (clamped to
/// `1..=units` and to the pool's threads plus the calling thread): the
/// calling thread through `caller(&job, unit)`, pool threads through
/// [`PoolJob::work`]. Returns once every unit is worked; a panic in a
/// pool thread's unit is re-raised here.
///
/// Units land wherever the job puts them, so a job that writes unit `i`'s
/// result to its own slot and is read back in unit order gives the same
/// result for any worker count and schedule.
pub fn fan_out<J: PoolJob>(
    workers: usize,
    units: usize,
    job: J,
    caller: impl FnMut(&J, usize),
) -> Arc<PoolCall<J>> {
    Pool::shared().fan_out(workers, units, job, caller)
}

/// Pool threads started so far in this process: at most
/// `available_cores() - 1`, however many callers have fanned out.
pub fn pool_threads() -> usize {
    Pool::shared().threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Adds `i + 1` to slot `i` and records which worker (`None`: the
    /// caller) worked it; a pool thread first waits in a unit until
    /// `stall_until` units are done (or ten seconds pass), and panics when
    /// `worker_panics`; the caller takes `caller_unit` per unit.
    #[derive(Default)]
    struct Marks {
        slots: Vec<Mutex<usize>>,
        visits: Mutex<Vec<(Option<usize>, usize)>>,
        stall_until: usize,
        worker_panics: bool,
        caller_unit: Duration,
        done: AtomicUsize,
    }

    impl Marks {
        fn new(n: usize) -> Self {
            Marks {
                slots: (0..n).map(|_| Mutex::new(0)).collect(),
                ..Marks::default()
            }
        }

        fn values(&self) -> Vec<usize> {
            self.slots.iter().map(|s| *lock(s)).collect()
        }

        fn mark(&self, worker: Option<usize>, i: usize) {
            lock(&self.visits).push((worker, i));
            *lock(&self.slots[i]) += i + 1;
            self.done.fetch_add(1, Ordering::SeqCst);
        }

        fn on_caller(&self, i: usize) {
            std::thread::sleep(self.caller_unit);
            self.mark(None, i);
        }

        fn by_caller(&self) -> usize {
            lock(&self.visits).iter().filter(|v| v.0.is_none()).count()
        }
    }

    impl PoolJob for Marks {
        fn work(&self, worker: usize, i: usize) {
            assert!(!self.worker_panics, "pool unit {i}");
            let start = Instant::now();
            while self.done.load(Ordering::SeqCst) < self.stall_until
                && start.elapsed() < Duration::from_secs(10)
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.mark(Some(worker), i);
        }
    }

    #[test]
    fn every_slot_is_worked_once() {
        let pool = Pool::new(9);
        for n in [0, 1, 5, 9] {
            for workers in [1, 2, 3, 7, n + 1] {
                for _ in 0..2 {
                    let call = pool.fan_out(workers, n, Marks::new(n), Marks::on_caller);
                    let job = call.job();
                    let expect: Vec<usize> = (0..n).map(|i| i + 1).collect();
                    assert_eq!(job.values(), expect, "n {n} workers {workers}");
                    let mut seen: Vec<usize> = lock(&job.visits).iter().map(|v| v.1).collect();
                    seen.sort_unstable();
                    assert_eq!(seen, (0..n).collect::<Vec<_>>());
                    let mut helpers: Vec<usize> =
                        lock(&job.visits).iter().filter_map(|v| v.0).collect();
                    helpers.sort_unstable();
                    helpers.dedup();
                    assert!(helpers.len() < workers.clamp(1, n.max(1)));
                }
            }
        }
        assert!(pool.threads() <= 9);
    }

    #[test]
    fn a_stalled_worker_leaves_its_units_to_the_caller() {
        let n = 9;
        let pool = Pool::new(1);
        // A pool thread that claims a unit stalls in it until every other
        // unit is done (or, were the units cut into fixed runs, until the
        // time-out).
        let job = Marks {
            stall_until: n - 1,
            ..Marks::new(n)
        };
        let call = pool.fan_out(2, n, job, Marks::on_caller);
        let expect: Vec<usize> = (0..n).map(|i| i + 1).collect();
        assert_eq!(call.job().values(), expect);
        assert!(call.job().by_caller() >= n - 1);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_and_the_worker_lives_on() {
        let n = 8;
        let pool = Pool::new(1);
        let slow_caller = || Marks {
            caller_unit: Duration::from_millis(5),
            ..Marks::new(n)
        };
        let mut panicked = false;
        // A slow caller leaves the pool thread units to take.
        for _ in 0..10 {
            let job = Marks {
                worker_panics: true,
                ..slow_caller()
            };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.fan_out(2, n, job, Marks::on_caller);
            }));
            if outcome.is_err() {
                panicked = true;
                break;
            }
        }
        assert!(panicked, "the pool thread never took a unit");
        // The same thread takes units again.
        let mut worked = false;
        for _ in 0..10 {
            let call = pool.fan_out(2, n, slow_caller(), Marks::on_caller);
            assert_eq!(call.job().values(), (1..=n).collect::<Vec<_>>());
            if call.job().by_caller() < n {
                worked = true;
                break;
            }
        }
        assert!(worked, "the pool thread took no unit after its panic");
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn the_shared_pool_keeps_one_thread_per_extra_core() {
        for _ in 0..3 {
            let n = 2 * available_cores() + 1;
            let call = fan_out(n, n, Marks::new(n), Marks::on_caller);
            assert_eq!(call.job().values(), (1..=n).collect::<Vec<_>>());
        }
        assert!(pool_threads() < available_cores());
    }
}
