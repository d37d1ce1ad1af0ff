//! Per-stage DRAM traffic ledger.
//!
//! The ledger is the workspace's **single source of byte truth**: the
//! streaming renderer (`gs_voxel::streaming`) owns one ledger per worker,
//! meters every `VoxelStore` fetch and pixel writeback through it as the
//! bytes move, and merges the workers' ledgers once per frame in
//! deterministic worker order. Derived byte counters
//! (`TileWorkload::{coarse_bytes, fine_bytes, pixel_bytes}`) are read back
//! *from* ledger stages, never computed independently, so ledger totals and
//! workload totals can never drift apart — and `gs-accel` prices DRAM time
//! and energy from the same measured bytes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Pipeline stages that generate DRAM traffic.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Tile-centric projection stage.
    Projection,
    /// Tile-centric global sorting stage.
    Sorting,
    /// Tile-centric rendering stage.
    Rendering,
    /// Streaming pipeline: coarse-half voxel fetches.
    VoxelCoarse,
    /// Streaming pipeline: fine-half fetches (raw 220 B records or VQ
    /// index records, whichever the store holds).
    VoxelFine,
    /// Final pixel writeback.
    PixelOut,
}

/// Number of quality tiers the ledger tracks for the fine (second-half)
/// stage: tier 0 is full quality (today's raw/VQ records); tiers 1+ are
/// the coarsened LOD columns of a tiered scene image. Sized one above the
/// maximum extra-tier count so `tier 0 + extras` always fits.
pub const MAX_TIERS: usize = 4;

impl Stage {
    /// All stages, in display order.
    pub const ALL: [Stage; 6] = [
        Stage::Projection,
        Stage::Sorting,
        Stage::Rendering,
        Stage::VoxelCoarse,
        Stage::VoxelFine,
        Stage::PixelOut,
    ];
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Projection => "projection",
            Stage::Sorting => "sorting",
            Stage::Rendering => "rendering",
            Stage::VoxelCoarse => "voxel-coarse",
            Stage::VoxelFine => "voxel-fine",
            Stage::PixelOut => "pixel-out",
        };
        f.write_str(s)
    }
}

/// Traffic direction.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Direction {
    Read,
    Write,
}

/// Byte counters keyed by `(stage, direction)`.
///
/// Backed by flat `[stage][direction]` counter arrays — the key domain is
/// tiny and fixed, so every operation is allocation-free and a per-worker
/// ledger can be cleared and refilled each frame without heap churn
/// (preserving the streaming renderer's zero-alloc steady state).
///
/// The ledger keeps three counter classes per `(stage, direction)`:
///
/// * **demand bytes** ([`TrafficLedger::add`] / [`TrafficLedger::get`] /
///   [`TrafficLedger::total`]) — the bytes the pipeline asked for. This is
///   the byte-exactness invariant: identical renders produce identical
///   demand counters regardless of caching or burst geometry.
/// * **DRAM transaction bytes** ([`TrafficLedger::note_dram`] /
///   [`TrafficLedger::dram`] / [`TrafficLedger::dram_total`]) — what DRAM
///   actually moved: burst-rounded per transfer at the metering site, and
///   only cache *misses* when a working-set cache fronts the stage. This is
///   the number DRAM time/energy pricing consumes.
/// * **cache-hit bytes** ([`TrafficLedger::note_hit`] /
///   [`TrafficLedger::hit`] / [`TrafficLedger::hit_total`]) — demand served
///   on-chip by a [`crate::cache::WorkingSetCache`]; priced as SRAM
///   traffic, never as DRAM.
///
/// [`TrafficLedger::add_transfer`] is the uncached convenience: one DRAM
/// transaction whose demand and burst-rounded bytes land together.
///
/// ```
/// use gs_mem::ledger::{Direction, Stage, TrafficLedger};
/// let mut l = TrafficLedger::new();
/// l.add_transfer(Stage::VoxelFine, Direction::Read, 13, 32);
/// assert_eq!(l.total(), 13); // demand
/// assert_eq!(l.dram_total(), 32); // one whole burst moved
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficLedger {
    /// Demand bytes per `(stage, direction)`, indexed by declaration order.
    bytes: [[u64; 2]; Stage::ALL.len()],
    /// Burst-rounded DRAM transaction bytes (cache misses only when a
    /// cache fronts the stage).
    dram: [[u64; 2]; Stage::ALL.len()],
    /// Demand bytes served on-chip by a working-set cache.
    hits: [[u64; 2]; Stage::ALL.len()],
    /// Fine-stage (second-half) demand bytes per quality tier. Tier 0 is
    /// the full-quality column; tiers 1+ are LOD columns. The sum over
    /// tiers equals the `VoxelFine` read demand counter whenever every
    /// fine fetch is tier-attributed (the streaming renderer's contract).
    tier_bytes: [u64; MAX_TIERS],
    /// Fine-stage DRAM transaction bytes per quality tier (burst-rounded,
    /// cache misses only when a cache fronts the stage).
    tier_dram: [u64; MAX_TIERS],
}

impl TrafficLedger {
    /// Creates an empty ledger.
    pub fn new() -> TrafficLedger {
        TrafficLedger::default()
    }

    /// Adds `bytes` to a demand counter.
    pub fn add(&mut self, stage: Stage, dir: Direction, bytes: u64) {
        self.bytes[stage as usize][dir as usize] += bytes;
    }

    /// Meters one uncached DRAM transaction: `bytes` of demand plus the
    /// burst-rounded transaction bytes (`bytes` rounded up to `burst`).
    pub fn add_transfer(&mut self, stage: Stage, dir: Direction, bytes: u64, burst: u64) {
        self.bytes[stage as usize][dir as usize] += bytes;
        self.dram[stage as usize][dir as usize] += crate::dram::round_to_burst(bytes, burst);
    }

    /// Meters DRAM transaction bytes only (already burst-rounded by the
    /// caller — e.g. a cache line fill whose demand was metered separately).
    pub fn note_dram(&mut self, stage: Stage, dir: Direction, bytes: u64) {
        self.dram[stage as usize][dir as usize] += bytes;
    }

    /// Meters cache-hit bytes only (demand served on-chip; the demand
    /// itself was metered separately via [`TrafficLedger::add`]).
    pub fn note_hit(&mut self, stage: Stage, dir: Direction, bytes: u64) {
        self.hits[stage as usize][dir as usize] += bytes;
    }

    /// Attributes fine-stage demand bytes to quality tier `tier` (the
    /// aggregate `VoxelFine` demand is metered separately via
    /// [`TrafficLedger::add`]; this records the per-tier breakdown).
    ///
    /// # Panics
    ///
    /// Panics when `tier >= MAX_TIERS` — tier indices come from the store's
    /// validated tier directory, so an out-of-range index is a logic bug.
    pub fn note_tier(&mut self, tier: usize, bytes: u64) {
        self.tier_bytes[tier] += bytes;
    }

    /// Attributes fine-stage DRAM transaction bytes (already burst-rounded
    /// by the caller) to quality tier `tier`.
    ///
    /// # Panics
    ///
    /// Panics when `tier >= MAX_TIERS` (logic bug, as in
    /// [`TrafficLedger::note_tier`]).
    pub fn note_tier_dram(&mut self, tier: usize, bytes: u64) {
        self.tier_dram[tier] += bytes;
    }

    /// Fine-stage demand bytes attributed to quality tier `tier`.
    pub fn tier_demand(&self, tier: usize) -> u64 {
        self.tier_bytes[tier]
    }

    /// Fine-stage DRAM transaction bytes attributed to quality tier `tier`.
    pub fn tier_dram(&self, tier: usize) -> u64 {
        self.tier_dram[tier]
    }

    /// The full per-tier fine DRAM transaction breakdown (tier 0 first).
    pub fn tier_dram_all(&self) -> [u64; MAX_TIERS] {
        self.tier_dram
    }

    /// The full per-tier fine demand breakdown (tier 0 first).
    pub fn tier_demand_all(&self) -> [u64; MAX_TIERS] {
        self.tier_bytes
    }

    /// Reads a demand counter.
    pub fn get(&self, stage: Stage, dir: Direction) -> u64 {
        self.bytes[stage as usize][dir as usize]
    }

    /// Reads a DRAM transaction counter.
    pub fn dram(&self, stage: Stage, dir: Direction) -> u64 {
        self.dram[stage as usize][dir as usize]
    }

    /// Reads a cache-hit counter.
    pub fn hit(&self, stage: Stage, dir: Direction) -> u64 {
        self.hits[stage as usize][dir as usize]
    }

    /// All DRAM transaction bytes (burst-rounded; post-cache).
    pub fn dram_total(&self) -> u64 {
        self.dram.iter().flatten().sum()
    }

    /// All cache-hit bytes.
    pub fn hit_total(&self) -> u64 {
        self.hits.iter().flatten().sum()
    }

    /// Read + write bytes of one stage.
    pub fn stage_total(&self, stage: Stage) -> u64 {
        self.get(stage, Direction::Read) + self.get(stage, Direction::Write)
    }

    /// All bytes.
    pub fn total(&self) -> u64 {
        self.bytes.iter().flatten().sum()
    }

    /// Fraction of the total contributed by `stage` (0 when empty).
    pub fn stage_fraction(&self, stage: Stage) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.stage_total(stage) as f64 / t as f64
        }
    }

    /// Merges another ledger into this one (all three counter classes).
    pub fn merge(&mut self, other: &TrafficLedger) {
        let pairs = [
            (&mut self.bytes, &other.bytes),
            (&mut self.dram, &other.dram),
            (&mut self.hits, &other.hits),
        ];
        for (mine, theirs) in pairs {
            for (m, t) in mine.iter_mut().flatten().zip(theirs.iter().flatten()) {
                *m += *t;
            }
        }
        for (m, t) in self.tier_bytes.iter_mut().zip(&other.tier_bytes) {
            *m += *t;
        }
        for (m, t) in self.tier_dram.iter_mut().zip(&other.tier_dram) {
            *m += *t;
        }
    }

    /// Zeroes every counter in place (no allocation, no deallocation —
    /// per-worker ledgers are cleared at frame start and refilled while
    /// rendering).
    pub fn clear(&mut self) {
        self.bytes = Default::default();
        self.dram = Default::default();
        self.hits = Default::default();
        self.tier_bytes = Default::default();
        self.tier_dram = Default::default();
    }

    /// Iterates non-zero `(stage, direction, bytes)` entries in stable
    /// (stage, direction) declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, Direction, u64)> + '_ {
        Stage::ALL.into_iter().flat_map(move |s| {
            [Direction::Read, Direction::Write]
                .into_iter()
                .map(move |d| (s, d, self.get(s, d)))
                .filter(|(_, _, b)| *b > 0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_totals() {
        let mut l = TrafficLedger::new();
        l.add(Stage::Sorting, Direction::Read, 10);
        l.add(Stage::Sorting, Direction::Read, 5);
        l.add(Stage::Sorting, Direction::Write, 7);
        l.add(Stage::Rendering, Direction::Write, 3);
        assert_eq!(l.get(Stage::Sorting, Direction::Read), 15);
        assert_eq!(l.stage_total(Stage::Sorting), 22);
        assert_eq!(l.total(), 25);
    }

    #[test]
    fn fractions_sum_to_one_over_used_stages() {
        let mut l = TrafficLedger::new();
        l.add(Stage::Projection, Direction::Read, 40);
        l.add(Stage::Sorting, Direction::Read, 50);
        l.add(Stage::Rendering, Direction::Read, 10);
        let sum: f64 = [Stage::Projection, Stage::Sorting, Stage::Rendering]
            .iter()
            .map(|s| l.stage_fraction(*s))
            .sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_associative_on_samples() {
        let mut a = TrafficLedger::new();
        a.add(Stage::Projection, Direction::Read, 1);
        let mut b = TrafficLedger::new();
        b.add(Stage::Projection, Direction::Read, 2);
        b.add(Stage::PixelOut, Direction::Write, 9);
        let mut c = TrafficLedger::new();
        c.add(Stage::VoxelFine, Direction::Read, 4);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn empty_ledger_fraction_is_zero() {
        assert_eq!(TrafficLedger::new().stage_fraction(Stage::Sorting), 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Stage::VoxelCoarse.to_string(), "voxel-coarse");
        assert_eq!(Stage::ALL.len(), 6);
    }

    #[test]
    fn all_order_matches_discriminants() {
        // The flat counter array indexes by discriminant; `Stage::ALL`
        // must list the stages in exactly that order for `iter()`.
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s as usize, i);
        }
    }

    #[test]
    fn clear_zeroes_and_compares_equal_to_fresh() {
        let mut l = TrafficLedger::new();
        l.add(Stage::VoxelFine, Direction::Read, 99);
        l.clear();
        assert_eq!(l, TrafficLedger::new());
        assert_eq!(l.total(), 0);
        assert_eq!(l.iter().count(), 0);
    }

    #[test]
    fn transfer_hit_and_dram_counters_are_separate_classes() {
        let mut l = TrafficLedger::new();
        // Two scattered 13 B records: demand 26, DRAM two whole bursts.
        l.add_transfer(Stage::VoxelFine, Direction::Read, 13, 32);
        l.add_transfer(Stage::VoxelFine, Direction::Read, 13, 32);
        assert_eq!(l.get(Stage::VoxelFine, Direction::Read), 26);
        assert_eq!(l.dram(Stage::VoxelFine, Direction::Read), 64);
        // A cached stage: demand metered, hit + fill noted separately.
        l.add(Stage::VoxelCoarse, Direction::Read, 100);
        l.note_hit(Stage::VoxelCoarse, Direction::Read, 60);
        l.note_dram(Stage::VoxelCoarse, Direction::Read, 64);
        assert_eq!(l.total(), 126);
        assert_eq!(l.dram_total(), 128);
        assert_eq!(l.hit_total(), 60);
    }

    #[test]
    fn merge_and_clear_cover_all_counter_classes() {
        let mut a = TrafficLedger::new();
        a.add_transfer(Stage::VoxelCoarse, Direction::Read, 48, 32);
        a.note_hit(Stage::VoxelFine, Direction::Read, 5);
        let mut b = TrafficLedger::new();
        b.note_dram(Stage::PixelOut, Direction::Write, 32);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.total(), 48);
        assert_eq!(m.dram_total(), 64 + 32);
        assert_eq!(m.hit_total(), 5);
        m.clear();
        assert_eq!(m, TrafficLedger::new());
    }

    #[test]
    fn tier_counters_merge_clear_and_compare() {
        let mut a = TrafficLedger::new();
        a.add(Stage::VoxelFine, Direction::Read, 220);
        a.note_tier(0, 220);
        a.note_tier_dram(0, 224);
        let mut b = TrafficLedger::new();
        b.note_tier(2, 76);
        b.note_tier_dram(2, 96);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.tier_demand(0), 220);
        assert_eq!(m.tier_demand(2), 76);
        assert_eq!(m.tier_dram(0), 224);
        assert_eq!(m.tier_dram(2), 96);
        assert_eq!(m.tier_demand_all(), [220, 0, 76, 0]);
        assert_eq!(m.tier_dram_all(), [224, 0, 96, 0]);
        // Tier counters participate in equality and clearing like every
        // other counter class (they are part of the determinism surface).
        let mut c = m.clone();
        assert_eq!(c, m);
        c.note_tier(1, 1);
        assert_ne!(c, m);
        m.clear();
        assert_eq!(m, TrafficLedger::new());
    }

    #[test]
    fn iter_skips_zero_entries_in_stable_order() {
        let mut l = TrafficLedger::new();
        l.add(Stage::PixelOut, Direction::Write, 4);
        l.add(Stage::Projection, Direction::Read, 1);
        let got: Vec<_> = l.iter().collect();
        assert_eq!(
            got,
            vec![
                (Stage::Projection, Direction::Read, 1),
                (Stage::PixelOut, Direction::Write, 4),
            ]
        );
    }
}
