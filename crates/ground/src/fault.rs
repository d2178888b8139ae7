//! Deterministic fault injection for the ground segment.
//!
//! A [`FaultPlan`] is a declarative description of everything that goes
//! wrong during a mission: station outages by day window, one-shot
//! replica-segment corruptions, and probabilistic transfer faults
//! (interrupted or corrupted segment ships, slow-disk stalls, mid-pass
//! uplink drops). The [`FaultInjector`] turns the plan into concrete
//! events with seeded splitmix64 PRNGs, so two runs of the same plan
//! inject byte-identical faults — the property the failover tests lean
//! on when they compare a faulted mission against a clean one.
//!
//! Storage-side faults (transfer faults and retry jitter) and mid-pass
//! uplink drops draw from two separate streams derived from the one
//! seed. How many ship attempts a run makes depends on how the ship
//! queues coalesce shards, so on a shared stream it would decide which
//! contact windows drop; on separate streams it cannot.
//!
//! The injector is pure bookkeeping: it never sleeps, touches no files
//! itself, and owns no clocks. The replicated store and the ground
//! service ask it questions ("does this transfer get cut?", "is station
//! 2 down on day 40?") and apply the answers, counting each injected
//! event under [`earthplus_telemetry::names::FAULTS_INJECTED`].

use std::sync::{Arc, Mutex};

/// One station outage: the station is unreachable for
/// `from_day <= day < to_day`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// Station index.
    pub station: usize,
    /// First mission day of the outage (inclusive).
    pub from_day: f64,
    /// First mission day the station is back (exclusive bound).
    pub to_day: f64,
}

impl OutageWindow {
    /// Whether `day` falls inside the outage.
    pub fn contains(&self, day: f64) -> bool {
        day >= self.from_day && day < self.to_day
    }
}

/// One-shot corruption of a shipped replica segment: on `day`, a byte of
/// the newest segment file in `station`'s copy of `shard` is flipped
/// (modelling storage decay on the replica; the primary's copy stays
/// good, so the next replication pass detects the CRC mismatch and
/// re-ships the file).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentCorruption {
    /// Station whose replica file decays.
    pub station: usize,
    /// Shard whose replica file decays.
    pub shard: usize,
    /// Mission day the corruption lands.
    pub day: f64,
}

/// The full declarative fault schedule for one mission.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// PRNG seed; same seed, same plan, same faults.
    pub seed: u64,
    /// Station outages by day window.
    pub outages: Vec<OutageWindow>,
    /// One-shot replica-segment corruptions.
    pub corruptions: Vec<SegmentCorruption>,
    /// Probability a segment ship is cut partway (resumed on retry).
    pub ship_interrupt_probability: f64,
    /// Probability a shipped chunk is corrupted in flight (detected by
    /// the read-back CRC, re-sent on retry).
    pub ship_corrupt_probability: f64,
    /// Probability a ship attempt hits a slow-disk stall.
    pub disk_stall_probability: f64,
    /// Modelled duration of one slow-disk stall, in microseconds
    /// (charged to the retry backoff ledger, never slept).
    pub disk_stall_micros: u64,
    /// Probability a contact window's uplink drops mid-pass.
    pub uplink_interrupt_probability: f64,
    /// Fraction of the byte budget delivered before a mid-pass drop.
    pub uplink_interrupt_fraction: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xEA57_0001,
            outages: Vec::new(),
            corruptions: Vec::new(),
            ship_interrupt_probability: 0.0,
            ship_corrupt_probability: 0.0,
            disk_stall_probability: 0.0,
            disk_stall_micros: 5_000,
            uplink_interrupt_probability: 0.0,
            uplink_interrupt_fraction: 0.5,
        }
    }
}

/// Salt that derives the uplink-drop stream's seed from the plan's.
const UPLINK_STREAM_SALT: u64 = 0x75F1_1A4C_D20B_93E7;

/// Seeded splitmix64 — the workspace's standard deterministic test PRNG.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A Bernoulli draw; consumes nothing when `p` is not positive.
    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }

    /// Uniform in `[0, bound)`; 0 for a zero bound.
    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// The fault bundle one transfer attempt draws, in the fixed order
/// corruption → interrupt → stall (see
/// [`FaultInjector::transfer_faults`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferFaults {
    /// Byte offset (within the transfer) flipped in flight, if any.
    pub corrupt_at: Option<u64>,
    /// Bytes delivered before the transfer is cut, if it is cut.
    pub cut_at: Option<u64>,
    /// Modelled slow-disk stall charged to the backoff ledger, if any.
    pub stall_us: Option<u64>,
}

/// The stateful side of a [`FaultPlan`]: the PRNG streams and which
/// one-shot events have fired.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Storage-side stream: transfer faults and retry jitter.
    rng: SplitMix64,
    /// Mid-pass uplink drops.
    uplink_rng: SplitMix64,
    fired: Vec<bool>,
    injected: u64,
}

impl FaultInjector {
    /// Builds the injector; the storage-side stream starts at
    /// `plan.seed`, the uplink-drop stream at a salted copy of it.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = vec![false; plan.corruptions.len()];
        let seed = plan.seed;
        FaultInjector {
            plan,
            rng: SplitMix64 { state: seed },
            uplink_rng: SplitMix64 {
                state: seed ^ UPLINK_STREAM_SALT,
            },
            fired,
            injected: 0,
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Fault events handed out so far (outage transitions are counted by
    /// the station set, which observes them).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Whether `station` is inside any outage window on `day`. Pure —
    /// consumes no randomness, so outage state is a function of the day.
    pub fn station_down(&self, station: usize, day: f64) -> bool {
        self.plan
            .outages
            .iter()
            .any(|o| o.station == station && o.contains(day))
    }

    /// One-shot corruption events due by `day` that have not fired yet.
    pub fn due_corruptions(&mut self, day: f64) -> Vec<SegmentCorruption> {
        let mut due = Vec::new();
        for (i, c) in self.plan.corruptions.iter().enumerate() {
            if !self.fired[i] && c.day <= day {
                self.fired[i] = true;
                self.injected += 1;
                due.push(*c);
            }
        }
        due
    }

    /// Rolls whether a transfer of `len` bytes is interrupted; on a hit,
    /// returns how many bytes make it through (at least 0, short of `len`).
    fn ship_interrupt(&mut self, len: u64) -> Option<u64> {
        if len == 0 || !self.rng.chance(self.plan.ship_interrupt_probability) {
            return None;
        }
        self.injected += 1;
        Some(self.rng.below(len))
    }

    /// Rolls whether a transfer is corrupted in flight; on a hit, returns
    /// the byte offset (within `len`) to flip.
    fn ship_corrupt(&mut self, len: u64) -> Option<u64> {
        if len == 0 || !self.rng.chance(self.plan.ship_corrupt_probability) {
            return None;
        }
        self.injected += 1;
        Some(self.rng.below(len))
    }

    /// Rolls a slow-disk stall; on a hit, returns the modelled stall
    /// duration in microseconds.
    fn disk_stall(&mut self) -> Option<u64> {
        if !self.rng.chance(self.plan.disk_stall_probability) {
            return None;
        }
        self.injected += 1;
        Some(self.plan.disk_stall_micros)
    }

    /// Rolls a mid-pass uplink drop on the uplink stream; on a hit,
    /// returns the fraction of the window's byte budget that still gets
    /// through.
    pub fn uplink_interrupt(&mut self) -> Option<f64> {
        if !self
            .uplink_rng
            .chance(self.plan.uplink_interrupt_probability)
        {
            return None;
        }
        self.injected += 1;
        Some(self.plan.uplink_interrupt_fraction.clamp(0.0, 1.0))
    }

    /// Draws the full fault bundle for one transfer attempt of `len`
    /// bytes, in the canonical order the ship path consumes randomness:
    /// corruption, then interrupt, then disk stall. Queued and inline
    /// ship attempts both draw through here, so moving a transfer onto a
    /// worker queue cannot shift the PRNG stream — the property the
    /// byte-identity tests between synchronous and pipelined missions
    /// rely on.
    pub fn transfer_faults(&mut self, len: u64) -> TransferFaults {
        TransferFaults {
            corrupt_at: self.ship_corrupt(len),
            cut_at: self.ship_interrupt(len),
            stall_us: self.disk_stall(),
        }
    }

    /// A uniform draw for jitter in `[0, bound)` — shares the
    /// storage-side stream so backoff schedules are as reproducible as
    /// the transfer faults themselves.
    pub fn jitter(&mut self, bound: u64) -> u64 {
        self.rng.below(bound)
    }
}

/// The injector handle shared between the replicated store (transfer and
/// disk faults) and the ground service (uplink faults).
pub type SharedFaultInjector = Arc<Mutex<FaultInjector>>;

/// Wraps a plan in the shared handle both consumers take.
pub fn shared_injector(plan: FaultPlan) -> SharedFaultInjector {
    Arc::new(Mutex::new(FaultInjector::new(plan)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            outages: vec![OutageWindow {
                station: 1,
                from_day: 10.0,
                to_day: 20.0,
            }],
            corruptions: vec![SegmentCorruption {
                station: 1,
                shard: 0,
                day: 5.0,
            }],
            ship_interrupt_probability: 0.5,
            ship_corrupt_probability: 0.25,
            disk_stall_probability: 0.1,
            uplink_interrupt_probability: 0.3,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn outage_windows_are_pure_day_functions() {
        let injector = FaultInjector::new(plan());
        assert!(!injector.station_down(1, 9.9));
        assert!(injector.station_down(1, 10.0));
        assert!(injector.station_down(1, 19.9));
        assert!(!injector.station_down(1, 20.0));
        assert!(!injector.station_down(0, 15.0));
    }

    #[test]
    fn corruptions_fire_exactly_once() {
        let mut injector = FaultInjector::new(plan());
        assert!(injector.due_corruptions(4.0).is_empty());
        let due = injector.due_corruptions(6.0);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].shard, 0);
        assert!(injector.due_corruptions(100.0).is_empty(), "one-shot");
        assert_eq!(injector.injected(), 1);
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let mut a = FaultInjector::new(plan());
        let mut b = FaultInjector::new(plan());
        for len in 1..200u64 {
            assert_eq!(a.ship_interrupt(len), b.ship_interrupt(len));
            assert_eq!(a.ship_corrupt(len), b.ship_corrupt(len));
            assert_eq!(a.disk_stall(), b.disk_stall());
            assert_eq!(a.uplink_interrupt(), b.uplink_interrupt());
        }
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0, "the probabilities above must fire");
    }

    #[test]
    fn zero_probabilities_consume_no_randomness() {
        let mut quiet = FaultInjector::new(FaultPlan {
            seed: 7,
            ..FaultPlan::default()
        });
        for _ in 0..100 {
            assert!(quiet.ship_interrupt(1024).is_none());
            assert!(quiet.ship_corrupt(1024).is_none());
            assert!(quiet.disk_stall().is_none());
            assert!(quiet.uplink_interrupt().is_none());
        }
        // The stream is untouched: the first real draw matches a fresh
        // injector's.
        let mut fresh = FaultInjector::new(FaultPlan {
            seed: 7,
            ..FaultPlan::default()
        });
        assert_eq!(quiet.jitter(1 << 20), fresh.jitter(1 << 20));
        assert_eq!(quiet.injected(), 0);
    }

    #[test]
    fn transfer_faults_matches_the_sequential_draw_order() {
        let mut bundled = FaultInjector::new(plan());
        let mut sequential = FaultInjector::new(plan());
        for len in 1..200u64 {
            let faults = bundled.transfer_faults(len);
            assert_eq!(faults.corrupt_at, sequential.ship_corrupt(len));
            assert_eq!(faults.cut_at, sequential.ship_interrupt(len));
            assert_eq!(faults.stall_us, sequential.disk_stall());
        }
        assert_eq!(bundled.injected(), sequential.injected());
    }

    #[test]
    fn interrupt_cut_is_short_of_the_transfer() {
        let mut injector = FaultInjector::new(FaultPlan {
            seed: 3,
            ship_interrupt_probability: 1.0,
            ..FaultPlan::default()
        });
        for len in 1..500u64 {
            let cut = injector.ship_interrupt(len).expect("probability 1");
            assert!(cut < len);
        }
        assert!(injector.ship_interrupt(0).is_none(), "nothing to cut");
    }
}
