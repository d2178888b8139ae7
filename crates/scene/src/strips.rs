//! Row-strip rendering.
//!
//! Every per-pixel field of the scene model is a pure function of
//! `(seed, x, y, day)`, so an output can be cut into disjoint row strips
//! and each strip rendered on its own thread. No sample depends on which
//! strip computed it, so the result is the same bits for any strip count,
//! and so for any number of cores.

use earthplus_raster::Raster;
use std::ops::Range;
use std::sync::OnceLock;

/// Strips per render: one per core the host offers, asked once per
/// process.
pub(crate) fn strip_count() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Renders `planes` (each `width × height`, row-major) in `strips`
/// disjoint row strips.
///
/// `render(rows, strip)` fills rows `rows` of every plane, where
/// `strip[p]` holds exactly those rows of `planes[p]`. The calling thread
/// cuts the strips and renders the first one itself; every other strip
/// runs on a scoped thread. The strip count is clamped to `1..=height`.
pub(crate) fn render_strips<T, F>(
    width: usize,
    height: usize,
    planes: &mut [&mut [T]],
    strips: usize,
    render: F,
) where
    T: Send,
    F: Fn(Range<usize>, &mut [&mut [T]]) + Sync,
{
    let strips = strips.clamp(1, height.max(1));
    if strips == 1 {
        render(0..height, planes);
        return;
    }
    let mut rest: Vec<&mut [T]> = planes.iter_mut().map(|p| &mut p[..]).collect();
    let mut jobs = Vec::with_capacity(strips);
    for i in 0..strips {
        let rows = i * height / strips..(i + 1) * height / strips;
        let len = rows.len() * width;
        let strip: Vec<&mut [T]> = rest
            .iter_mut()
            .map(|plane| {
                let (head, tail) = std::mem::take(plane).split_at_mut(len);
                *plane = tail;
                head
            })
            .collect();
        jobs.push((rows, strip));
    }
    let mut jobs = jobs.into_iter();
    let (first_rows, mut first) = jobs.next().expect("at least one strip");
    let render = &render;
    std::thread::scope(|scope| {
        for (rows, mut strip) in jobs {
            scope.spawn(move || render(rows, &mut strip));
        }
        render(first_rows, &mut first);
    });
}

/// A `width × height` raster of `f(x, y)`, rendered in `strips` row
/// strips.
pub(crate) fn raster_from_fn<F>(width: usize, height: usize, strips: usize, f: F) -> Raster
where
    F: Fn(usize, usize) -> f32 + Sync,
{
    let mut data = vec![0.0; width * height];
    render_strips(width, height, &mut [&mut data], strips, |rows, strip| {
        let mut samples = strip[0].iter_mut();
        for y in rows {
            for (x, v) in (0..width).zip(&mut samples) {
                *v = f(x, y);
            }
        }
    });
    Raster::from_vec(width, height, data).expect("plane matches its dimensions")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_cover_every_row_once() {
        let (w, h) = (5, 11);
        for strips in [1, 2, 3, 7, h + 1] {
            let mut a = vec![0u32; w * h];
            let mut b = vec![0u32; w * h];
            render_strips(w, h, &mut [&mut a, &mut b], strips, |rows, strip| {
                assert_eq!(strip[0].len(), rows.len() * w);
                for (i, v) in strip[0].iter_mut().enumerate() {
                    *v += (rows.start * w + i) as u32;
                }
                for v in strip[1].iter_mut() {
                    *v += 1;
                }
            });
            assert!(a.iter().enumerate().all(|(i, &v)| v == i as u32));
            assert!(b.iter().all(|&v| v == 1));
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
