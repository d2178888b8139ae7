//! The reference-store backend seam.
//!
//! [`ReferenceBackend`] abstracts the store surface `GroundService` and
//! the constellation scheduler actually use, so the same service,
//! scheduler, and mission simulator run unchanged on the in-memory
//! [`ShardedReferenceStore`] or on the durable
//! [`crate::ReplicatedReferenceStore`] — the backend is picked by
//! [`crate::GroundServiceConfig`], not by the call sites.

use crate::reference::ReferenceImage;
use crate::store::{shard_index, IngestReport, ShardedReferenceStore};
use earthplus_raster::{Band, LocationId};

/// The store surface the ground segment schedules against.
///
/// Every method takes `&self`: implementations provide interior
/// mutability (shard locks), so one backend can be shared by concurrent
/// downlink decoders and the uplink scheduler.
///
/// Semantics every implementation must honour:
/// * **freshest-wins** — `offer` keeps a reference only if strictly
///   fresher than the stored generation for its `(location, band)`;
/// * **probe coherence** — `fresh_day` and `get` agree: a probed day is
///   servable until a fresher `offer` lands.
///
/// The surface is infallible; backends over fallible media panic on
/// runtime storage errors rather than silently dropping references (see
/// the [`crate::station`] module docs for the policy).
pub trait ReferenceBackend: Send + Sync + std::fmt::Debug {
    /// Offers a new cloud-free reference; kept if fresher than the
    /// current generation. Returns whether the store updated.
    fn offer(&self, reference: ReferenceImage) -> bool;

    /// The freshest reference for a location/band, cloned/decoded out of
    /// the store.
    fn get(&self, location: LocationId, band: Band) -> Option<ReferenceImage>;

    /// The capture day of the freshest reference, without materialising
    /// it — the scheduler's cheap staleness probe.
    fn fresh_day(&self, location: LocationId, band: Band) -> Option<f64>;

    /// Number of (location, band) entries.
    fn len(&self) -> usize;

    /// Whether the store holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical stored bytes (the 12-bit reference model), comparable
    /// across backends regardless of on-disk framing.
    fn size_bytes(&self) -> u64;

    /// Every (location, band) key currently held.
    fn keys(&self) -> Vec<(LocationId, Band)>;

    /// Ingests a batch of downlinked references on up to `threads`
    /// workers; the store ends where sequential
    /// [`ReferenceBackend::offer`]s of the batch would leave it.
    fn ingest_batch(&self, references: Vec<ReferenceImage>, threads: usize) -> IngestReport;

    /// Flushes whatever durability the backend offers (no-op in memory).
    fn sync(&self) {}
}

/// Routes a batch into per-shard groups (index `i` holds shard `i`'s
/// references, arrival order preserved).
fn shard_batches(references: Vec<ReferenceImage>, shards: usize) -> Vec<Vec<ReferenceImage>> {
    let shards = shards.max(1);
    let mut groups: Vec<Vec<ReferenceImage>> = (0..shards).map(|_| Vec::new()).collect();
    for reference in references {
        let idx = shard_index(reference.location, reference.band, shards);
        groups[idx].push(reference);
    }
    groups
}

/// The batch ingest both backends share: routes `references` into
/// per-shard groups ([`shard_index`], arrival order kept within each
/// group) and hands each non-empty group, whole, to
/// `write_group(shard, group)` on one of up to `threads` scoped workers.
/// A key lives in exactly one shard and its group keeps arrival order, so
/// the store ends where sequential offers would leave it at any thread
/// count, ties included. `write_group` returns the group's
/// `(accepted, rejected)` counts.
pub(crate) fn ingest_sharded<F>(
    references: Vec<ReferenceImage>,
    shards: usize,
    threads: usize,
    write_group: F,
) -> IngestReport
where
    F: Fn(usize, Vec<ReferenceImage>) -> (u64, u64) + Sync,
{
    let groups: Vec<(usize, Vec<ReferenceImage>)> = shard_batches(references, shards)
        .into_iter()
        .enumerate()
        .filter(|(_, group)| !group.is_empty())
        .collect();
    let workers = threads.max(1).min(groups.len().max(1));
    let per_worker = groups.len().div_ceil(workers).max(1);
    let mut groups = groups.into_iter();
    let write_group = &write_group;
    let mut report = IngestReport::default();
    #[allow(
        clippy::disallowed_methods,
        reason = "each ingest worker borrows the store, which a pool job, owning its inputs, cannot"
    )]
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        loop {
            let chunk: Vec<(usize, Vec<ReferenceImage>)> =
                groups.by_ref().take(per_worker).collect();
            if chunk.is_empty() {
                break;
            }
            handles.push(scope.spawn(move || {
                chunk.into_iter().fold((0, 0), |(acc, rej), (idx, group)| {
                    let (a, r) = write_group(idx, group);
                    (acc + a, rej + r)
                })
            }));
        }
        for handle in handles {
            let (accepted, rejected) = handle.join().expect("ingest worker panicked");
            report.accepted += accepted;
            report.rejected += rejected;
        }
    });
    report
}

impl ReferenceBackend for ShardedReferenceStore {
    fn offer(&self, reference: ReferenceImage) -> bool {
        ShardedReferenceStore::offer(self, reference)
    }

    fn get(&self, location: LocationId, band: Band) -> Option<ReferenceImage> {
        ShardedReferenceStore::get(self, location, band)
    }

    fn fresh_day(&self, location: LocationId, band: Band) -> Option<f64> {
        ShardedReferenceStore::fresh_day(self, location, band)
    }

    fn len(&self) -> usize {
        ShardedReferenceStore::len(self)
    }

    fn size_bytes(&self) -> u64 {
        ShardedReferenceStore::size_bytes(self)
    }

    fn keys(&self) -> Vec<(LocationId, Band)> {
        ShardedReferenceStore::keys(self)
    }

    fn ingest_batch(&self, references: Vec<ReferenceImage>, threads: usize) -> IngestReport {
        // The inherent implementation offers straight against the shard
        // maps — same result, one virtual call less per reference.
        ShardedReferenceStore::ingest_batch(self, references, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthplus_raster::{PlanetBand, Raster};

    fn reference(location: u32, day: f64) -> ReferenceImage {
        let full = Raster::filled(64, 64, 0.4);
        ReferenceImage::from_capture(
            LocationId(location),
            Band::Planet(PlanetBand::Red),
            day,
            &full,
            8,
        )
        .unwrap()
    }

    #[test]
    fn sharded_store_honours_trait_surface() {
        let store = ShardedReferenceStore::new(4);
        let backend: &dyn ReferenceBackend = &store;
        assert!(backend.is_empty());
        assert!(backend.offer(reference(0, 2.0)));
        assert!(!backend.offer(reference(0, 1.0)));
        assert_eq!(backend.len(), 1);
        assert_eq!(
            backend.fresh_day(LocationId(0), Band::Planet(PlanetBand::Red)),
            Some(2.0)
        );
        assert_eq!(backend.keys().len(), 1);
        backend.sync(); // no-op, must not panic
    }

    #[test]
    fn shard_batches_routes_and_preserves_arrival_order() {
        let batch: Vec<ReferenceImage> = (0..16u32)
            .flat_map(|loc| [reference(loc, 1.0), reference(loc, 2.0)])
            .collect();
        let shards = 4;
        let groups = shard_batches(batch, shards);
        assert_eq!(groups.len(), shards);
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 32);
        for (idx, group) in groups.iter().enumerate() {
            let mut last_day_per_loc: std::collections::HashMap<u32, f64> =
                std::collections::HashMap::new();
            for reference in group {
                assert_eq!(
                    shard_index(reference.location, reference.band, shards),
                    idx,
                    "reference routed to the wrong group"
                );
                // Arrival order within a key survives the grouping, so a
                // batch append sees generations in offer order.
                if let Some(prev) = last_day_per_loc.get(&reference.location.0) {
                    assert!(*prev < reference.captured_day);
                }
                last_day_per_loc.insert(reference.location.0, reference.captured_day);
            }
        }
    }
}
