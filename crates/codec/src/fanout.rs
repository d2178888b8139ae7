//! Fanning a band's ROI tiles, or a whole band's subband chunks, out over
//! the host's cores.
//!
//! Every ROI tile is an independent embedded stream (§5), so a band's
//! tiles can be encoded, or decoded, on separate threads; and every EPC2
//! subband chunk is an independent range-coder chain, so a whole band's
//! chunks can be decoded on separate threads too. A call runs on the
//! process's one worker pool ([`earthplus_raster::fan_out`]): the calling
//! thread, through the caller's arena, and the pool's workers, each
//! through the one encode or decode arena the codec keeps per pool worker,
//! claim the tiles or chunks one at a time until none is left. Each
//! result lands in its own slot, and the calling thread puts the slots
//! back in stream order, so the output is the same bytes and bits for any
//! worker count and any schedule. A band's chunks are claimed longest
//! payload first, so the largest chunk does not start last.
//!
//! A worker arena is sized to the units it codes, never to the caller's
//! whole-band buffers: each call names its largest unit (a tile's plane,
//! its largest subband, its subband count and its coded bytes, or the
//! largest coded chunk), and the first call of an arena that hands the
//! pool a larger unit than before reserves every worker arena for it.
//! Which worker codes which tile depends on scheduling, but no arena
//! grows in a second identical call. The calling arena counts what its
//! calls cost the pool: a worker arena's growth and stage time during a
//! call land in the caller's `grow_events` and `stages`, and its
//! `reserved_bytes` counts its largest unit once per pool worker.

use crate::scratch::{CodecScratch, DecodeScratch, StageBreakdown};
use earthplus_raster::{fan_out, PoolCall, PoolJob};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
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
/// calls of ≈ 0.1–0.2 ms lost their isolated gain to worker wake-ups (see
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
/// per tile, shared by the calling thread and the pool's workers.
pub(crate) trait TileJob<A>: Send + Sync + 'static {
    /// Codes tile `i` through `arena` into its slot.
    fn work(&self, arena: &mut A, i: usize);

    /// The largest tile of the call, as what an arena must hold to code
    /// it.
    fn unit(&self) -> Unit;
}

/// The largest unit of one fan-out, as what a pool worker's arena must
/// hold to code it without growing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Unit {
    /// Coefficients of a whole unit plane: a tile's samples, DWT block
    /// and decoded coefficient plane (0 for a subband chunk, which codes
    /// none of them).
    pub(crate) plane: usize,
    /// Coefficients of the largest coding chain: a subband, or an EPC1
    /// tile's whole plane.
    pub(crate) chain: usize,
    /// Subband rectangles of the unit's geometry.
    pub(crate) subbands: usize,
    /// Bytes a unit's coded stream can reach (encode only).
    pub(crate) bytes: usize,
}

impl Unit {
    fn max(self, other: Unit) -> Unit {
        Unit {
            plane: self.plane.max(other.plane),
            chain: self.chain.max(other.chain),
            subbands: self.subbands.max(other.subbands),
            bytes: self.bytes.max(other.bytes),
        }
    }
}

/// What an arena's fan-outs account for in the pool's worker arenas.
#[derive(Debug, Default)]
pub(crate) struct PoolShare {
    /// The largest unit the arena's fan-outs handed the pool: every
    /// worker arena holds at least this much.
    unit: Unit,
    /// Bytes an arena reserves for `unit`, once per pool worker.
    pub(crate) reserved: usize,
}

/// An arena a pool worker codes its units through.
pub(crate) trait WorkerArena: Default + Send + 'static {
    /// This arena in a pool worker's pair.
    fn of(pair: &mut WorkerArenas) -> &mut Self;
    /// Reserves every buffer a unit no larger than `unit` codes through,
    /// counting any growth as one grow event.
    fn reserve_unit(&mut self, unit: &Unit);
    /// Bytes reserved across the arena's own buffers.
    fn own_reserved_bytes(&self) -> usize;
    /// Counts a grow event if a buffer grew since the last count, then
    /// takes the grow events and stage time counted since the last take.
    fn take_tally(&mut self) -> (u64, StageBreakdown);
    /// Adds grow events and stage time worked elsewhere for this arena.
    fn add_tally(&mut self, tally: (u64, StageBreakdown));
    /// The arena's share of the pool.
    fn pool_share(&mut self) -> &mut PoolShare;
}

/// One pool worker's arenas: the one encode arena and the one decode
/// arena that worker codes every fanned-out tile and chunk through,
/// whichever arena's call it came from.
#[derive(Default)]
pub(crate) struct WorkerArenas {
    pub(crate) encode: CodecScratch,
    pub(crate) decode: DecodeScratch,
}

/// The codec's worker arenas, one pair per pool worker.
pub(crate) fn worker_arenas() -> &'static [Mutex<WorkerArenas>] {
    static ARENAS: OnceLock<Vec<Mutex<WorkerArenas>>> = OnceLock::new();
    ARENAS.get_or_init(|| {
        (1..earthplus_raster::available_cores())
            .map(|_| Mutex::default())
            .collect()
    })
}

/// A call as the pool sees it: the job, and the grow events and stage
/// time its units cost the worker arenas, for the calling arena.
pub(crate) struct Fanned<A, J> {
    job: J,
    tally: Mutex<(u64, StageBreakdown)>,
    arena: PhantomData<fn() -> A>,
}

impl<A: WorkerArena, J: TileJob<A>> PoolJob for Fanned<A, J> {
    fn work(&self, worker: usize, i: usize) {
        let mut pair = lock(&worker_arenas()[worker]);
        let arena = A::of(&mut pair);
        self.job.work(arena, i);
        let (grown, stages) = arena.take_tally();
        let mut tally = lock(&self.tally);
        tally.0 += grown;
        tally.1 = tally.1.plus(&stages);
    }
}

/// A worked call.
pub(crate) struct Done<A, J>(Arc<PoolCall<Fanned<A, J>>>);

impl<A, J> Done<A, J> {
    /// The job, with every tile's slot filled.
    pub(crate) fn job(&self) -> &J {
        &self.0.job().job
    }
}

/// Locks `mutex`, whether or not a panic poisoned it: a slot or an arena
/// a panicking tile left behind is still a valid value.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Grows `arena`'s pool share to `unit`: when that is larger than every
/// unit its earlier calls handed the pool, `arena` itself (the calling
/// thread may claim any unit) and every worker arena are reserved for it
/// now, and the worker arenas' growth counts as `arena`'s. A worker arena
/// busy with another call's tile is waited for here, so this is the one
/// place a fan-out can wait on a worker; a steady workload never grows
/// its share. A tile or chunk never fans out itself, so no pool worker
/// reaches here while it holds its own arenas.
fn share<A: WorkerArena>(arena: &mut A, unit: Unit) {
    let share = arena.pool_share();
    let grown = share.unit.max(unit);
    if grown == share.unit {
        return;
    }
    share.unit = grown;
    let mut probe = A::default();
    probe.reserve_unit(&grown);
    share.reserved = probe.own_reserved_bytes() * worker_arenas().len();
    arena.reserve_unit(&grown);
    let mut grow_events = 0;
    for pair in worker_arenas() {
        let mut pair = lock(pair);
        let worker = A::of(&mut pair);
        worker.reserve_unit(&grown);
        grow_events += worker.take_tally().0;
    }
    arena.add_tally((grow_events, StageBreakdown::default()));
}

/// Works every tile of `job` once, on up to `workers` workers: the
/// calling thread through `arena`, pool workers (see
/// [`earthplus_raster::fan_out`]) through their own worker arenas, which
/// are reserved for the call's largest tile first (see [`share`]). The
/// grow events and stage time of the worker arenas' tiles are added to
/// `arena`'s.
pub(crate) fn run<A, J>(arena: &mut A, workers: usize, tiles: usize, job: J) -> Done<A, J>
where
    A: WorkerArena,
    J: TileJob<A>,
{
    let pooled = workers.min(tiles) > 1 && !worker_arenas().is_empty();
    if pooled {
        share(arena, job.unit());
    }
    let job = Fanned {
        job,
        tally: Mutex::default(),
        arena: PhantomData,
    };
    let call = fan_out(workers, tiles, job, |job, i| job.job.work(arena, i));
    let tally = std::mem::take(&mut *lock(&call.job().tally));
    arena.add_tally(tally);
    Done(call)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::reserve_to;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn arenas_share_one_pool() {
        use crate::{encode_roi_with_scratch, CodecConfig};
        use earthplus_raster::{available_cores, pool_threads, Raster, TileGrid, TileMask};
        let band = Raster::from_fn(256, 256, |x, y| ((x * 5 + y * 3) % 37) as f32 / 37.0);
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let mut mask = TileMask::new(&grid);
        mask.fill();
        let config = CodecConfig::lossy();
        let mut arenas: Vec<_> = (0..8)
            .map(|_| (CodecScratch::new(), DecodeScratch::new()))
            .collect();
        for (enc, dec) in &mut arenas {
            let roi = encode_roi_with_scratch(&band, &grid, &mask, &config, 512, enc).unwrap();
            roi.decode_tiles_with_scratch(dec).unwrap();
        }
        assert!(pool_threads() < available_cores());
        assert_eq!(worker_arenas().len(), available_cores() - 1);
    }

    /// Reserves `payload` a little more for every tile and records which
    /// tiles grew their arena, and which of those a pool worker coded. On
    /// a host with a pool, the calling thread's tiles wait (ten seconds at
    /// most) until a pool worker has coded a tile.
    #[derive(Default)]
    struct Grows {
        on_pool: AtomicUsize,
        grown: AtomicUsize,
        grown_on_pool: AtomicUsize,
    }

    impl TileJob<CodecScratch> for Grows {
        fn work(&self, arena: &mut CodecScratch, i: usize) {
            let name = std::thread::current().name().map(str::to_owned);
            let on_pool = name.is_some_and(|n| n.starts_with("earthplus-pool"));
            let start = std::time::Instant::now();
            while !on_pool
                && !worker_arenas().is_empty()
                && self.on_pool.load(Ordering::SeqCst) == 0
                && start.elapsed() < std::time::Duration::from_secs(10)
            {
                std::thread::yield_now();
            }
            let before = arena.own_reserved_bytes();
            reserve_to(&mut arena.payload, (4 << 20) + (i << 16));
            arena.track_growth();
            let grown = arena.own_reserved_bytes() > before;
            if grown {
                self.grown.fetch_add(1, Ordering::SeqCst);
            }
            if on_pool {
                self.grown_on_pool
                    .fetch_add(grown as usize, Ordering::SeqCst);
                self.on_pool.fetch_add(1, Ordering::SeqCst);
            }
        }

        fn unit(&self) -> Unit {
            Unit::default()
        }
    }

    #[test]
    fn worker_growth_counts_in_the_calling_arena() {
        let mut enc = CodecScratch::new();
        let call = run(&mut enc, 2, 8, Grows::default());
        let job = call.job();
        assert_eq!(enc.grow_events(), job.grown.load(Ordering::SeqCst) as u64);
        if !worker_arenas().is_empty() {
            assert!(job.grown_on_pool.load(Ordering::SeqCst) > 0);
        }
        // Another arena's calls leave this one's count alone.
        let grown = enc.grow_events();
        run(&mut CodecScratch::new(), 2, 8, Grows::default());
        assert_eq!(enc.grow_events(), grown);
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
