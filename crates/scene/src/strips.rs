//! Row-block rendering on the worker pool.
//!
//! Every per-pixel field of the scene model is a pure function of
//! `(seed, x, y, day)`, so an output can be cut into disjoint row blocks
//! and each block rendered on its own thread. No sample depends on which
//! block computed it, so the result is the same bits for any block count,
//! and so for any number of cores.
//!
//! The blocks run on the process's one worker pool
//! ([`earthplus_raster::fan_out`]): the calling thread and the pool's
//! workers claim them one at a time. A pool job owns its inputs, so each
//! block renders into buffers of its own, and the calling thread
//! [`stitch`]es the blocks back in row order: one copy of every sample
//! past the first block.

use earthplus_raster::{fan_out, PoolJob, Raster};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// `render(rows)` for every block of a `height`-row output cut into
/// `blocks` disjoint row blocks (clamped to `1..=height`), in row order.
/// A single block renders on the calling thread.
pub(crate) fn render_blocks<B, F>(height: usize, blocks: usize, render: F) -> Vec<B>
where
    B: Send + 'static,
    F: Fn(Range<usize>) -> B + Send + Sync + 'static,
{
    let blocks = blocks.clamp(1, height.max(1));
    if blocks == 1 {
        return vec![render(0..height)];
    }
    let job = RowBlocks {
        render,
        height,
        slots: (0..blocks).map(|_| Mutex::new(None)).collect(),
    };
    let call = fan_out(blocks, blocks, job, |job, i| job.work(0, i));
    call.job()
        .slots
        .iter()
        .map(|slot| {
            let block = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
            block.expect("every block is rendered")
        })
        .collect()
}

/// One output's row blocks: the renderer, and one slot per block.
struct RowBlocks<B, F> {
    render: F,
    height: usize,
    slots: Vec<Mutex<Option<B>>>,
}

impl<B, F> PoolJob for RowBlocks<B, F>
where
    B: Send + 'static,
    F: Fn(Range<usize>) -> B + Send + Sync + 'static,
{
    fn work(&self, _worker: usize, i: usize) {
        let blocks = self.slots.len();
        let rows = i * self.height / blocks..(i + 1) * self.height / blocks;
        let block = (self.render)(rows);
        *self.slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(block);
    }
}

/// One plane from its row blocks, in row order: the first block's buffer,
/// grown in place, with every later block copied after it.
pub(crate) fn stitch<T: Copy>(blocks: impl IntoIterator<Item = Vec<T>>) -> Vec<T> {
    let mut blocks = blocks.into_iter();
    let mut plane = blocks.next().unwrap_or_default();
    for block in blocks {
        plane.extend_from_slice(&block);
    }
    plane
}

/// A `width × height` raster of `f(x, y)`, rendered in `blocks` row
/// blocks.
pub(crate) fn raster_from_fn<F>(width: usize, height: usize, blocks: usize, f: F) -> Raster
where
    F: Fn(usize, usize) -> f32 + Send + Sync + 'static,
{
    let blocks = render_blocks(height, blocks, move |rows| {
        let mut samples = Vec::with_capacity(rows.len() * width);
        for y in rows {
            samples.extend((0..width).map(|x| f(x, y)));
        }
        samples
    });
    Raster::from_vec(width, height, stitch(blocks)).expect("plane matches its dimensions")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_cover_every_row_once() {
        let (w, h) = (5, 11);
        for blocks in [1, 2, 3, 7, h + 1] {
            let parts = render_blocks(h, blocks, move |rows| {
                let first: Vec<u32> = (rows.start * w..rows.end * w).map(|i| i as u32).collect();
                (first, vec![1u32; rows.len() * w])
            });
            assert_eq!(parts.len(), blocks.min(h));
            let (a, b): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
            let (a, b) = (stitch(a), stitch(b));
            assert!(a.iter().enumerate().all(|(i, &v)| v == i as u32));
            assert_eq!(b, vec![1; w * h]);
        }
    }

    #[test]
    fn raster_from_fn_matches_serial_raster() {
        let f = |x: usize, y: usize| (x * 31 + y * 7) as f32 / 3.0;
        for (w, h) in [(9, 4), (1, 6), (6, 1), (0, 3), (3, 0)] {
            let serial = Raster::from_fn(w, h, f);
            for strips in [1, 2, 3, 7] {
                assert_eq!(raster_from_fn(w, h, strips, f), serial);
            }
        }
    }
}
