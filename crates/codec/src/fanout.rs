//! Fanning a band's ROI tiles, or a whole band's subband chunks, out over
//! the host's cores.
//!
//! Every ROI tile is an independent embedded stream (§5), so a band's
//! tiles can be encoded, or decoded, on separate threads; and every EPC2
//! subband chunk is an independent range-coder chain, so a whole band's
//! chunks can be decoded on separate threads too. The calling thread and
//! one helper per extra worker, each with an arena of its own (the
//! caller's, or a helper arena the caller's owns), claim the tiles or
//! chunks one at a time from a shared counter until none is left. Each
//! result lands in its own slot, and the calling thread puts the slots
//! back in stream order, so the output is the same bytes and bits for any
//! worker count and any schedule. A band's chunks are claimed longest
//! payload first, so the largest chunk does not start last.
//!
//! A helper is a thread that lives as long as the arena owning it and
//! sleeps on its queue between calls; a call hands it an owned copy of
//! its inputs. The calling thread never waits for a helper to start:
//! once no tile is left to claim it waits only for the tiles a helper is
//! already coding, and a helper that wakes after the call has returned
//! finds nothing left and goes back to sleep. Scoped threads, spawned
//! per call, must be joined, and on a host that stole CPU time from the
//! guest a spawned helper sometimes started milliseconds late, so the
//! whole call waited for a thread that then had no tile left to code.
//!
//! Which arena codes which tile depends on scheduling, but no arena's
//! size does once the owner has reached its steady size: before each
//! fan-out every working helper is sized like the owner, after it the
//! owner and its helpers are sized like one another, buffer by buffer,
//! and whenever the owner grows outside a fan-out (a serial call, or a
//! chunk decode's inverse DWT) its helpers are sized like it at once. A
//! helper reaches its steady size in the same call as the calling
//! thread's arena, even when that arena also codes whole bands, and a
//! second identical call grows nothing.

use crate::scratch::HelperArena;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Calls over at most this many tiles stay on the calling thread. On a
/// 2-core x86-64 host at a 512 B tile budget, two- and three-tile calls
/// ran 20–26 % slower fanned out than serially (the thread start-up
/// outweighs a tile), and in the `ground_backfill` benchmark, whose
/// on-board calls are four tiles, fanning those out raised the on-board
/// median from ≈ 0.34 to ≈ 0.45 ms per capture.
pub(crate) const SERIAL_TILE_LIMIT: usize = 4;

/// Workers for one call over `tiles` tiles: one per host core, at most
/// one per tile, and one for calls at or under [`SERIAL_TILE_LIMIT`].
pub(crate) fn tile_workers(tiles: usize) -> usize {
    if tiles <= SERIAL_TILE_LIMIT {
        1
    } else {
        earthplus_raster::available_cores().min(tiles)
    }
}

/// Decodes whose output holds fewer pixels than this decode their
/// subband chunks on the calling thread. On a 2-core x86-64 host, one
/// square EPC2 stream at γ = 1 bpp decoded on two workers against one,
/// in isolation, at 1.06× for 64 px (≈ 30 µs calls), 1.28× for 128 px
/// (≈ 0.11 ms), 1.45–1.59× for 160–192 px and 1.56–1.68× for 256 px
/// (≈ 0.6 ms); full-rate streams read 1.6–1.8× from 64 px up. Isolation
/// overstates small calls: in the mission benchmark, fanning out ROI tile
/// calls of ≈ 0.1–0.2 ms lost their isolated gain to helper wake-ups (see
/// [`SERIAL_TILE_LIMIT`]). So the cut sits at 256², where a call is
/// several wake-ups long, and every 64-px tile (already fanned out per
/// tile), LL-only and reduced reference decode stays serial.
pub(crate) const SERIAL_CHUNK_PIXELS: usize = 256 * 256;

/// Workers for the subband chunks of one decode with `pixels` output
/// pixels: one per host core, and one below [`SERIAL_CHUNK_PIXELS`]
/// ([`run`] clamps the count to the coded chunks).
pub(crate) fn chunk_workers(pixels: usize) -> usize {
    if pixels < SERIAL_CHUNK_PIXELS {
        1
    } else {
        earthplus_raster::available_cores()
    }
}

/// A tile's start and end instants, read on its worker; `None` when
/// nothing consumes the time (the instrumentation is committed after the
/// call, on the calling thread, in tile order).
pub(crate) type TileTime = Option<(Instant, Instant)>;

/// Times `work` with one pair of clock reads when `timed`.
pub(crate) fn time_tile<R>(timed: bool, work: impl FnOnce() -> R) -> (R, TileTime) {
    if !timed {
        return (work(), None);
    }
    let start = Instant::now();
    let out = work();
    (out, Some((start, Instant::now())))
}

/// One call's tiles (or subband chunks): owned inputs and one result slot
/// per tile, shared by the calling thread and the helpers.
pub(crate) trait TileJob<A>: Send + Sync + 'static {
    /// Codes tile `i` through `arena` into its slot.
    fn work(&self, arena: &mut A, i: usize);
}

/// A job in flight: the claim counter, and how many claimed tiles are
/// coded.
pub(crate) struct Call<J> {
    job: J,
    tiles: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<J> Call<J> {
    /// The job, with every tile's slot filled once [`run`] has returned.
    pub(crate) fn job(&self) -> &J {
        &self.job
    }

    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.tiles).then_some(i)
    }
}

/// A call as a helper sees it.
trait Drain<A>: Send + Sync {
    /// Codes tiles through `arena` until none is left to claim.
    fn drain(&self, arena: &Mutex<A>);
}

impl<A, J: TileJob<A>> Drain<A> for Call<J> {
    fn drain(&self, arena: &Mutex<A>) {
        while let Some(i) = self.claim() {
            // A panic is handed to the calling thread, which re-raises it
            // once every claimed tile is accounted for.
            let worked = panic::catch_unwind(AssertUnwindSafe(|| {
                self.job.work(&mut lock(arena), i);
            }));
            if let Err(payload) = worked {
                lock(&self.panic).get_or_insert(payload);
            }
            self.done.fetch_add(1, Ordering::Release);
        }
    }
}

/// Locks `mutex`, whether or not a panic poisoned it: a slot or an arena
/// a panicking tile left behind is still a valid value.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A helper worker: a thread that sleeps on its queue between calls and
/// ends when the arena owning it is dropped, and the arena it codes
/// tiles through.
pub(crate) struct Helper<A> {
    arena: Arc<Mutex<A>>,
    calls: Sender<Arc<dyn Drain<A>>>,
}

impl<A: HelperArena> Helper<A> {
    fn spawn() -> Self {
        let arena = Arc::new(Mutex::new(A::default()));
        let (calls, queue) = mpsc::channel::<Arc<dyn Drain<A>>>();
        let own = Arc::clone(&arena);
        std::thread::Builder::new()
            .name("codec-tiles".into())
            .spawn(move || {
                for call in queue {
                    call.drain(&own);
                }
            })
            .expect("tile worker spawn failed");
        Helper { arena, calls }
    }

    /// The helper's arena. Outside a fanned-out call the helper holds no
    /// lock on it, so this never waits on a tile.
    pub(crate) fn arena(&self) -> MutexGuard<'_, A> {
        lock(&self.arena)
    }
}

impl<A> std::fmt::Debug for Helper<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Helper")
    }
}

/// Works every tile of `job` once, on `workers` workers (clamped to
/// `1..=tiles`): the calling thread through `arena`, the helpers through
/// theirs. `helpers` grows to `workers - 1` on first need and is kept
/// for the next call. The working helpers are sized like `arena` before
/// the fan-out; after it `arena` is sized like them, and every helper
/// like `arena`.
pub(crate) fn run<A, J>(
    arena: &mut A,
    helpers: &mut Vec<Helper<A>>,
    workers: usize,
    tiles: usize,
    job: J,
) -> Arc<Call<J>>
where
    A: HelperArena,
    J: TileJob<A>,
{
    let call = Arc::new(Call {
        job,
        tiles,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
    });
    let workers = workers.clamp(1, tiles.max(1));
    if workers > 1 {
        while helpers.len() < workers - 1 {
            helpers.push(Helper::spawn());
        }
        for helper in &helpers[..workers - 1] {
            helper.arena().size_like(arena);
            // A helper whose thread is gone leaves its share to the rest.
            let _ = helper.calls.send(call.clone());
        }
    }
    while let Some(i) = call.claim() {
        call.job.work(arena, i);
        call.done.fetch_add(1, Ordering::Release);
    }
    // Only tiles a helper is still coding are left.
    while call.done.load(Ordering::Acquire) < tiles {
        std::thread::yield_now();
    }
    if let Some(payload) = lock(&call.panic).take() {
        panic::resume_unwind(payload);
    }
    if workers > 1 {
        for helper in &helpers[..workers - 1] {
            arena.size_like(&helper.arena());
        }
        for helper in helpers.iter() {
            helper.arena().size_like(arena);
        }
    }
    call
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[derive(Default)]
    struct Tally {
        caller: bool,
        visits: Vec<usize>,
    }

    impl HelperArena for Tally {
        fn size_like(&mut self, _owner: &Self) {}
    }

    /// Adds `i + 1` to slot `i`; a helper's arena first waits in a tile
    /// until `stall_until` tiles are done (or ten seconds pass), and
    /// panics when `helper_panics`; the caller's arena takes
    /// `caller_tile` per tile.
    #[derive(Default)]
    struct Marks {
        slots: Vec<Mutex<usize>>,
        stall_until: usize,
        helper_panics: bool,
        caller_tile: Duration,
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
    }

    impl TileJob<Tally> for Marks {
        fn work(&self, arena: &mut Tally, i: usize) {
            if arena.caller {
                std::thread::sleep(self.caller_tile);
            } else {
                assert!(!self.helper_panics, "helper tile {i}");
                let start = Instant::now();
                while self.done.load(Ordering::SeqCst) < self.stall_until
                    && start.elapsed() < Duration::from_secs(10)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            arena.visits.push(i);
            *lock(&self.slots[i]) += i + 1;
            self.done.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn caller() -> Tally {
        Tally {
            caller: true,
            visits: Vec::new(),
        }
    }

    #[test]
    fn every_slot_is_worked_once() {
        for n in [0, 1, 5, 9] {
            for workers in [1, 2, 3, 7, n + 1] {
                let mut main = caller();
                let mut helpers = Vec::new();
                for _ in 0..2 {
                    let call = run(&mut main, &mut helpers, workers, n, Marks::new(n));
                    let expect: Vec<usize> = (0..n).map(|i| i + 1).collect();
                    assert_eq!(call.job().values(), expect, "n {n} workers {workers}");
                }
                let mut seen: Vec<usize> = main.visits.clone();
                for helper in &helpers {
                    seen.extend(&helper.arena().visits);
                }
                seen.sort_unstable();
                let twice: Vec<usize> = (0..n).flat_map(|i| [i, i]).collect();
                assert_eq!(seen, twice);
                assert!(helpers.len() < workers.clamp(1, n.max(1)));
            }
        }
    }

    #[test]
    fn a_stalled_helper_leaves_its_tiles_to_the_caller() {
        let n = 9;
        let mut main = caller();
        let mut helpers = Vec::new();
        // A helper that claims a tile stalls in it until every other tile
        // is done (or, were the tiles cut into fixed runs, until the
        // time-out).
        let job = Marks {
            stall_until: n - 1,
            ..Marks::new(n)
        };
        let call = run(&mut main, &mut helpers, 2, n, job);
        let expect: Vec<usize> = (0..n).map(|i| i + 1).collect();
        assert_eq!(call.job().values(), expect);
        assert!(
            main.visits.len() >= n - 1,
            "caller worked {:?}",
            main.visits
        );
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_and_the_helper_lives_on() {
        let n = 8;
        let mut main = caller();
        let mut helpers = Vec::new();
        let mut panicked = false;
        // A slow caller leaves the helper tiles to take.
        for _ in 0..10 {
            let job = Marks {
                helper_panics: true,
                caller_tile: Duration::from_millis(5),
                ..Marks::new(n)
            };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                run(&mut main, &mut helpers, 2, n, job);
            }));
            if outcome.is_err() {
                panicked = true;
                break;
            }
        }
        assert!(panicked, "the helper never took a tile");
        let call = run(&mut main, &mut helpers, 2, n, Marks::new(n));
        assert_eq!(call.job().values(), (1..=n).collect::<Vec<_>>());
    }

    #[test]
    fn small_calls_stay_serial() {
        for tiles in 0..=SERIAL_TILE_LIMIT {
            assert_eq!(tile_workers(tiles), 1);
        }
        let wide = tile_workers(64);
        assert!(wide >= 1 && wide == earthplus_raster::available_cores().min(64));
    }
}
