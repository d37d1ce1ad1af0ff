//! The voxel-resident columnar store: the DRAM image of a prepared scene.
//!
//! This is the byte-level realization of the paper's customized data layout
//! (Fig. 8). Gaussians live voxel-contiguously in two parallel columns:
//!
//! * **first half** — [`gs_scene::gaussian::COARSE_BYTES`] (16 B) per
//!   Gaussian: `[x, y, z, s_max]` as raw f32 bytes. This is the *only*
//!   data the coarse-grained filter touches.
//! * **second half** — either the raw 55-parameter remainder
//!   ([`gs_scene::gaussian::FINE_BYTES_RAW`], 220 B) or a VQ index record
//!   ([`gs_vq::FeatureCodebooks::record_bytes`], 13 B at paper-size
//!   codebooks) decoded through the on-chip codebooks on fetch. Only
//!   coarse-filter survivors ever read this column.
//!
//! Alongside the columns ride the per-voxel slot ranges and the global
//! Gaussian id per slot (the renaming/index metadata the VSU keeps; the raw
//! layout also carries a 2-bit max-axis tag here, since the 220 B record
//! stores only the two non-maximum scales — see
//! [`gs_scene::Gaussian::fine_record`]).
//!
//! ## Backing: resident columns vs. demand-paged columns
//!
//! Each column lives behind a backing abstraction:
//!
//! * **Resident** — the whole column as one `Vec<u8>` (built by
//!   [`VoxelStore::from_cloud`] / [`VoxelStore::from_quantized`]); the
//!   production configuration when the scene fits host memory.
//! * **Paged** — pages of [`PageConfig::slots_per_page`] whole slots
//!   materialized on demand from a compact serialized scene image
//!   ([`VoxelStore::to_scene_bytes`] / [`VoxelStore::write_scene_file`],
//!   opened with [`VoxelStore::open_paged_bytes`] /
//!   [`VoxelStore::open_paged_file`]), with an optional LRU-evicted
//!   residency budget ([`PageConfig::max_resident_pages`]) for scenes
//!   larger than memory. Page boundaries fall on slot boundaries, so a
//!   record never spans pages and the store's slot ranges remain the
//!   natural fetch granularity. The index metadata (ranges, ids, max-axis
//!   tags, codebooks) stays resident — it is the VSU's on-chip state.
//!
//! The two backings are **bit-exact twins**: every fetch decodes the same
//! bytes, meters the same ledger demand, and returns the same Gaussian, so
//! a paged store renders byte-identical frames
//! (`tests/paged_cache.rs` proves it on every scene kind, raw and VQ).
//! Paging is host-memory management, *not* modeled DRAM traffic — the
//! priced memory system is the [`gs_mem::TrafficLedger`]'s demand/DRAM
//! counters plus the renderer's [`gs_mem::cache::WorkingSetCache`] model,
//! which behave identically over both backings.
//!
//! Every fetch is metered through a [`gs_mem::TrafficLedger`]
//! (`VoxelCoarse` / `VoxelFine` read stages, demand bytes), which makes
//! the store the single source of byte truth for the streaming renderer
//! and everything priced from it. Decodes are **bit-exact**: a raw store
//! returns the original [`Gaussian`] bit-for-bit, a VQ store returns
//! exactly [`gs_vq::QuantizedCloud::decode_one`].
//!
//! ## Scene-image format (version 2)
//!
//! All integers are little-endian `u32`. The header:
//!
//! | offset | field |
//! |-------:|-------|
//! | 0      | magic `"GSVS"` (`0x4753_5653`) |
//! | 4      | format version (2) |
//! | 8      | flags — bit 0: second half holds VQ records |
//! | 12     | `n_voxels` |
//! | 16     | `n_slots` |
//! | 20     | fine record width in bytes (220 raw, codebook width VQ) |
//! | 24     | `crc_chunk_slots` — slots covered per checksum chunk |
//!
//! followed by, in order:
//!
//! 1. `n_voxels` × `(u32, u32)` per-voxel slot ranges,
//! 2. `n_slots` × `u32` global Gaussian ids,
//! 3. raw: `n_slots` max-axis tag bytes · VQ: six codebooks, each
//!    `(dim: u32, entries: u32, dim×entries f32 centroids)`,
//! 4. coarse chunk-CRC table — `ceil(n_slots / crc_chunk_slots)` × `u32`
//!    CRC-32/IEEE ([`gs_mem::crc`]) over each chunk of the coarse column,
//! 5. fine chunk-CRC table — same count, over the fine column,
//! 6. `u32` metadata CRC over **every byte above** (header through both
//!    tables),
//! 7. the coarse column (`n_slots` × 16 B),
//! 8. the fine column (`n_slots` × width B) — and nothing after it: the
//!    image length must equal exactly what the header implies.
//!
//! Chunks never split a record (they are slot-aligned), so a page fetch
//! verifies by reading the chunk-aligned cover of its slots. **Version-1
//! images** (six-word header, no tables, no metadata CRC) are read-only:
//! no writer emits them, they still open with verification skipped and
//! the effective [`PageConfig`] reports `verify_checksums: false` (see
//! [`VoxelStore::page_config`]).
//!
//! ## Scene-image format (version 3): LOD tiers
//!
//! A store that carries extra LOD tiers ([`VoxelStore::build_tiers`])
//! serializes as **version 3**: the v2 layout with an eighth header word
//! (`n_extra_tiers`), a per-tier directory between the fine CRC table and
//! the metadata CRC — six descriptor words (kind, SH degree, keep‰,
//! codebook shift, record width, tier slot count), the tier's per-voxel
//! ranges and slot table, its codebooks (VQ tiers) and its own CRC chunk
//! table — and the tier record columns appended after the fine column.
//! Every tier column pages, verifies and dead-marks independently
//! (`ColumnKind::Tier(n)`), per (tier, page). The full spec lives in
//! `docs/SCENE_IMAGE.md`. Tierless stores write v2, bit-identically to
//! before; v2/v1 images and tierless v3 images (read-only, no writer
//! emits them) open as single-tier stores. Committed images under
//! `tests/golden/images/` pin that v1 and tierless v3 stay readable, and
//! `tests/golden/images.txt` pins the v2/v3 writer's bytes.
//!
//! ## Error contract
//!
//! Render-time page machinery never panics: the fallible twins
//! ([`VoxelStore::try_fetch_coarse`], [`VoxelStore::try_fetch_fine`],
//! [`VoxelStore::try_coarse_of`], [`VoxelStore::open_paged_bytes`], …)
//! return [`StoreError`] for I/O failures, truncated or malformed images,
//! checksum mismatches ([`StoreError::CorruptPage`]), exhausted retry
//! budgets and dead pages. The un-prefixed wrappers ([`VoxelStore::fetch_coarse`],
//! [`VoxelStore::fetch_fine`], [`VoxelStore::to_scene_bytes`]) panic on
//! those same errors — infallible by construction over resident columns,
//! and kept for the exactness suites and resident callers. Transient
//! faults are retried with capped deterministic backoff
//! ([`PageConfig::max_read_attempts`]); permanent faults mark the page
//! dead so later fetches fail fast with [`StoreError::PageLost`]. All
//! retry/dead/injection counters are readable through
//! [`VoxelStore::fault_snapshot`].

// Render-time paths must propagate typed errors, never unwrap them away
// (tests are exempt via the mod-level allow).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::grid::VoxelGrid;
use gs_core::vec::Vec3;
use gs_mem::crc::crc32;
use gs_mem::{Direction, Stage, TrafficLedger, MAX_TIERS};
use gs_scene::gaussian::{COARSE_BYTES, FINE_BYTES_RAW};
use gs_scene::{Gaussian, GaussianCloud};
use gs_vq::tier::{
    decode_vq_tier_record, expand_raw_record, raw_tier_bytes, read_vq_tier_record,
    truncate_raw_record, vq_tier_bytes, write_vq_tier_record, TierSpec, MAX_SH_DEGREE,
};
use gs_vq::{Codebook, FeatureCodebooks, GaussianQuantizer, QuantizedCloud, VqConfig};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Magic tag of the serialized scene image (`"GSVS"`).
const SCENE_MAGIC: u32 = 0x4753_5653;
/// The single-tier checksummed format version (written for stores with no
/// extra tiers; still the most common image on disk).
const SCENE_VERSION: u32 = 2;
/// The pre-checksum format version (read-only: no writer emits it).
const SCENE_VERSION_V1: u32 = 1;
/// The tiered format version: a v2-shaped body plus a tier directory and
/// per-tier second-half columns with their own CRC chunk tables (see the
/// `docs/SCENE_IMAGE.md` spec). Written whenever the store carries extra
/// tiers; a tierless v3 image (read-only) is byte-compatible with v2
/// except for the version word and a zero tier count.
const SCENE_VERSION_V3: u32 = 3;
/// Serialized tier-directory kind tag: raw (SH-truncated prefix) records.
const TIER_KIND_RAW: u32 = 0;
/// Serialized tier-directory kind tag: VQ records through tier codebooks.
const TIER_KIND_VQ: u32 = 1;
/// Header flag: the second half holds VQ index records.
const FLAG_VQ: u32 = 1;
/// Every header flag this build understands; unknown bits reject at open.
const KNOWN_FLAGS: u32 = FLAG_VQ;
/// Slots per checksum chunk written by [`VoxelStore::to_scene_bytes`].
const CRC_CHUNK_SLOTS: u32 = 32;

/// Locks `m`, recovering the inner state when the mutex is poisoned.
///
/// Every lock site in the paged machinery (and the streaming renderer's
/// scratch) goes through this one helper, so a panicking thread can never
/// wedge other render workers on a poisoned lock.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Which column an error refers to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ColumnKind {
    /// The 16 B first-half column.
    Coarse,
    /// The raw/VQ second-half column (tier 0: full quality).
    Fine,
    /// An extra LOD tier's second-half column; the payload is the extra
    /// tier index (0 = the first tier after full quality, i.e. overall
    /// tier 1).
    Tier(u8),
}

impl fmt::Display for ColumnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnKind::Coarse => f.write_str("coarse"),
            ColumnKind::Fine => f.write_str("fine"),
            ColumnKind::Tier(t) => write!(f, "tier{}", u32::from(*t) + 1),
        }
    }
}

/// Why a store operation failed. See the module-level error contract.
#[derive(Debug)]
pub enum StoreError {
    /// The backing source failed with a real I/O error.
    Io(io::Error),
    /// The image ended before a structure its header promised.
    Truncated {
        /// Which structure was cut short.
        what: &'static str,
    },
    /// The image violates the format (magic, version, ranges, metadata
    /// checksum, length…).
    Malformed {
        /// Which invariant was violated.
        what: &'static str,
    },
    /// A materialized page failed its per-chunk checksum (after retries).
    CorruptPage {
        /// Column the chunk belongs to.
        column: ColumnKind,
        /// Chunk index within that column's CRC table.
        chunk: u64,
    },
    /// Transient faults persisted past [`PageConfig::max_read_attempts`].
    RetriesExhausted {
        /// Column the page belongs to.
        column: ColumnKind,
        /// Page index within that column.
        page: u64,
        /// Attempts performed before giving up.
        attempts: u32,
    },
    /// The page was marked dead by a permanent fault; every later fetch
    /// of its slots fails fast with this error.
    PageLost {
        /// Column the page belongs to.
        column: ColumnKind,
        /// Page index within that column.
        page: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "scene image I/O error: {e}"),
            StoreError::Truncated { what } => write!(f, "scene image truncated ({what})"),
            StoreError::Malformed { what } => write!(f, "malformed scene image ({what})"),
            StoreError::CorruptPage { column, chunk } => {
                write!(f, "{column} column chunk {chunk} failed its checksum")
            }
            StoreError::RetriesExhausted {
                column,
                page,
                attempts,
            } => write!(
                f,
                "{column} column page {page} still faulting after {attempts} attempts"
            ),
            StoreError::PageLost { column, page } => {
                write!(f, "{column} column page {page} lost to a permanent fault")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<StoreError> for io::Error {
    fn from(e: StoreError) -> io::Error {
        let msg = e.to_string();
        match e {
            StoreError::Io(inner) => inner,
            StoreError::Truncated { .. } => io::Error::new(io::ErrorKind::UnexpectedEof, msg),
            StoreError::Malformed { .. } => io::Error::new(io::ErrorKind::InvalidData, msg),
            _ => io::Error::other(msg),
        }
    }
}

/// Geometry and fault policy of a demand-paged column backing.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageConfig {
    /// Whole slots per page (page boundaries never split a record).
    pub slots_per_page: u32,
    /// Residency budget in pages per column; least-recently-used pages are
    /// evicted beyond it. `0` = unbounded (pages accumulate).
    pub max_resident_pages: u32,
    /// Verify per-chunk CRCs on page materialization. Forced `false` when
    /// the image carries no checksum tables (a version-1 image); the
    /// effective value is readable via [`VoxelStore::page_config`].
    pub verify_checksums: bool,
    /// Read attempts per page materialization (≥ 1). Transient faults and
    /// checksum mismatches are retried with capped deterministic backoff
    /// up to this budget; the failure surfaces as
    /// [`StoreError::RetriesExhausted`] / [`StoreError::CorruptPage`].
    pub max_read_attempts: u32,
}

impl Default for PageConfig {
    fn default() -> Self {
        PageConfig {
            slots_per_page: 256,
            max_resident_pages: 0,
            verify_checksums: true,
            max_read_attempts: 4,
        }
    }
}

impl PageConfig {
    fn validated(mut self) -> PageConfig {
        self.slots_per_page = self.slots_per_page.max(1);
        self.max_read_attempts = self.max_read_attempts.max(1);
        self
    }
}

/// Deterministic fault-injection policy for a paged scene source.
///
/// Each page read draws pseudo-random faults keyed **only** on
/// `(seed, read offset, attempt)` — never on thread identity, wall clock
/// or call order — so the injected fault sequence is bit-reproducible for
/// any worker count. Rates are per-mille of page reads; the draws for
/// transient/torn/bit-flip are mutually exclusive partitions of one
/// per-attempt draw, while permanent faults are keyed on the offset alone
/// (a permanently bad page stays bad on every attempt).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPolicy {
    /// Stream seed; two policies with different seeds fault independently.
    pub seed: u64,
    /// Per-mille of page reads that fail transiently (succeed on retry).
    pub transient_per_mille: u32,
    /// Per-mille of page reads returning a torn buffer (tail half stale).
    pub torn_per_mille: u32,
    /// Per-mille of page reads with one flipped bit.
    pub bit_flip_per_mille: u32,
    /// Per-mille of page *offsets* that are permanently unreadable.
    pub permanent_per_mille: u32,
}

impl FaultPolicy {
    /// A policy injecting only transient faults at `per_mille`/1000.
    pub fn transient(seed: u64, per_mille: u32) -> FaultPolicy {
        FaultPolicy {
            seed,
            transient_per_mille: per_mille,
            ..FaultPolicy::default()
        }
    }

    /// `true` when the policy injects nothing (wrapping is skipped).
    pub fn is_noop(&self) -> bool {
        self.transient_per_mille == 0
            && self.torn_per_mille == 0
            && self.bit_flip_per_mille == 0
            && self.permanent_per_mille == 0
    }
}

/// Injected-fault counters, by kind (see [`FaultPolicy`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Transient read failures injected.
    pub transient: u64,
    /// Torn buffers returned.
    pub torn: u64,
    /// Single-bit flips applied.
    pub bit_flips: u64,
    /// Permanent failures returned.
    pub permanent: u64,
}

impl FaultStats {
    /// All injected faults.
    pub fn total(self) -> u64 {
        self.transient + self.torn + self.bit_flips + self.permanent
    }

    /// Counter deltas since `base` (saturating).
    pub fn since(self, base: FaultStats) -> FaultStats {
        FaultStats {
            transient: self.transient.saturating_sub(base.transient),
            torn: self.torn.saturating_sub(base.torn),
            bit_flips: self.bit_flips.saturating_sub(base.bit_flips),
            permanent: self.permanent.saturating_sub(base.permanent),
        }
    }
}

/// Retry/dead/injection counters of a store, cheap to snapshot per frame.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreFaultSnapshot {
    /// Page-read retries performed across both columns (each failed
    /// attempt that was retried or exhausted counts once).
    pub retries: u64,
    /// Pages currently marked dead by permanent faults, both columns.
    pub dead_pages: u64,
    /// Dead pages re-fetched and healed from an attached replica over the
    /// store's lifetime ([`VoxelStore::attach_replica_bytes`]).
    pub pages_healed: u64,
    /// Faults injected by the wrapped source (zero without a
    /// [`FaultPolicy`]).
    pub injected: FaultStats,
}

impl StoreFaultSnapshot {
    /// Counter deltas since `base` (saturating).
    pub fn since(self, base: StoreFaultSnapshot) -> StoreFaultSnapshot {
        StoreFaultSnapshot {
            retries: self.retries.saturating_sub(base.retries),
            dead_pages: self.dead_pages.saturating_sub(base.dead_pages),
            pages_healed: self.pages_healed.saturating_sub(base.pages_healed),
            injected: self.injected.since(base.injected),
        }
    }
}

/// splitmix64 finalizer: the deterministic draw behind fault injection.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Distinct draw stream for permanent faults (offset-keyed).
const PERM_STREAM: u64 = 0xA076_1D64_78BD_642F;
/// Distinct draw stream for bit-flip positions.
const FLIP_STREAM: u64 = 0xE703_7ED1_A0B4_28DB;

/// Capped deterministic backoff between page-read retries: a bounded spin
/// (no clock, no sleep), so the retry schedule is reproducible and cheap.
fn retry_backoff(attempt: u32) {
    for _ in 0..(32u32 << attempt.min(6)) {
        std::hint::spin_loop();
    }
}

/// How a single page read failed (internal; mapped to [`StoreError`] by
/// the retry loop).
enum ReadFault {
    /// A real I/O error from the backing source.
    Io(io::Error),
    /// An injected transient failure — retry.
    Transient,
    /// An injected permanent failure — mark the page dead.
    Permanent,
}

/// A fault-injecting wrapper around a page source (see [`FaultPolicy`]).
#[derive(Debug)]
struct FaultInjector {
    inner: Box<PageSource>,
    policy: FaultPolicy,
    stats: Mutex<FaultStats>,
}

impl FaultInjector {
    fn read_page(&self, offset: u64, buf: &mut [u8], attempt: u32) -> Result<(), ReadFault> {
        let p = &self.policy;
        if p.permanent_per_mille > 0
            && mix64(p.seed ^ PERM_STREAM ^ mix64(offset)) % 1000 < p.permanent_per_mille as u64
        {
            lock_unpoisoned(&self.stats).permanent += 1;
            return Err(ReadFault::Permanent);
        }
        let d = mix64(p.seed ^ mix64(offset ^ ((attempt as u64) << 48))) % 1000;
        let t = p.transient_per_mille as u64;
        let torn = t + p.torn_per_mille as u64;
        let flip = torn + p.bit_flip_per_mille as u64;
        if d < t {
            lock_unpoisoned(&self.stats).transient += 1;
            return Err(ReadFault::Transient);
        }
        self.inner.read_at(offset, buf).map_err(ReadFault::Io)?;
        if d < torn && buf.len() >= 2 {
            let half = buf.len() / 2;
            for b in &mut buf[half..] {
                *b ^= 0xA5;
            }
            lock_unpoisoned(&self.stats).torn += 1;
        } else if d < flip && !buf.is_empty() {
            let bit = mix64(p.seed ^ FLIP_STREAM ^ mix64(offset)) % (buf.len() as u64 * 8);
            buf[(bit / 8) as usize] ^= 1 << (bit % 8);
            lock_unpoisoned(&self.stats).bit_flips += 1;
        }
        Ok(())
    }
}

/// Where a paged column's bytes come from.
#[derive(Debug)]
enum PageSource {
    /// A serialized scene image held in memory.
    Memory(Vec<u8>),
    /// A serialized scene file read positionally on demand. The mutex
    /// serializes faults from the two columns sharing one handle (and the
    /// seek+read fallback on platforms without positional reads).
    File(Mutex<std::fs::File>),
    /// Any source wrapped with deterministic fault injection. Open-time
    /// metadata reads bypass injection (the fault surface under test is
    /// the *page* path); only [`PageSource::read_page`] draws faults.
    Faulty(FaultInjector),
}

impl PageSource {
    fn len(&self) -> io::Result<u64> {
        match self {
            PageSource::Memory(bytes) => Ok(bytes.len() as u64),
            PageSource::File(f) => Ok(lock_unpoisoned(f).metadata()?.len()),
            PageSource::Faulty(inj) => inj.inner.len(),
        }
    }

    /// A clean (never-faulting) positional read — the open-time path.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        match self {
            PageSource::Memory(bytes) => {
                let at = offset as usize;
                let end = at + buf.len();
                if end > bytes.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "scene image truncated",
                    ));
                }
                buf.copy_from_slice(&bytes[at..end]);
                Ok(())
            }
            PageSource::File(f) => {
                let file = lock_unpoisoned(f);
                #[cfg(unix)]
                {
                    use std::os::unix::fs::FileExt;
                    file.read_exact_at(buf, offset)
                }
                #[cfg(not(unix))]
                {
                    use std::io::{Read, Seek, SeekFrom};
                    let mut file = file;
                    file.seek(SeekFrom::Start(offset))?;
                    file.read_exact(buf)
                }
            }
            PageSource::Faulty(inj) => inj.inner.read_at(offset, buf),
        }
    }

    /// The render-time page read: draws injected faults when wrapped.
    fn read_page(&self, offset: u64, buf: &mut [u8], attempt: u32) -> Result<(), ReadFault> {
        match self {
            PageSource::Faulty(inj) => inj.read_page(offset, buf, attempt),
            other => other.read_at(offset, buf).map_err(ReadFault::Io),
        }
    }
}

/// Per-chunk CRC table of one column (shared with clones).
#[derive(Clone, Debug)]
struct ColumnCrc {
    chunk_slots: u32,
    chunks: Arc<[u32]>,
}

/// Mutable state of one paged column.
#[derive(Debug, Default)]
struct PageState {
    /// Materialized pages (whole slots each; the tail page may be short).
    pages: Vec<Option<Vec<u8>>>,
    /// LRU stamp per page.
    stamp: Vec<u64>,
    /// Indices of the resident pages (≤ budget entries when bounded), so
    /// eviction scans the residents, never the whole page table.
    resident_ids: Vec<usize>,
    /// Pages lost to permanent faults; fetches of their slots fail fast.
    dead: Vec<bool>,
    clock: u64,
    /// Pages materialized over the column's lifetime (eviction makes this
    /// exceed the page count).
    faults: u64,
    /// Failed page-read attempts that were retried (or exhausted).
    retries: u64,
    /// Dead pages re-fetched and healed from the attached replica.
    healed: u64,
    /// Reusable chunk-cover staging for checksum verification, so warm
    /// verified fills allocate nothing once grown.
    verify: Vec<u8>,
}

/// Why one fill attempt of a page failed (internal to the retry loop).
enum FillError {
    Transient,
    Corrupt(u64),
    Io(io::Error),
    Permanent,
}

impl From<ReadFault> for FillError {
    fn from(f: ReadFault) -> FillError {
        match f {
            ReadFault::Io(e) => FillError::Io(e),
            ReadFault::Transient => FillError::Transient,
            ReadFault::Permanent => FillError::Permanent,
        }
    }
}

/// The store-wide fallback page source for replica-read healing: one slot
/// shared by every column (and every [`Column::clone`]) of a store, filled
/// by [`VoxelStore::attach_replica_bytes`]. `None` until a replica is
/// attached; a dead page then re-fetches from it through the same
/// CRC-verified fill path as the primary.
type ReplicaSlot = Arc<Mutex<Option<Arc<PageSource>>>>;

/// One demand-paged column.
#[derive(Debug)]
struct PagedColumn {
    source: Arc<PageSource>,
    /// Column start inside the serialized image.
    offset: u64,
    /// Column length in bytes.
    len: u64,
    record_bytes: usize,
    slots: usize,
    config: PageConfig,
    kind: ColumnKind,
    /// Per-chunk CRC table (absent on version-1 images).
    crc: Option<ColumnCrc>,
    /// Store-wide replica source for healing dead pages (shared with the
    /// store's other columns; `None` inside until one is attached).
    replica: ReplicaSlot,
    state: Mutex<PageState>,
}

impl PagedColumn {
    #[allow(clippy::too_many_arguments)]
    fn new(
        source: Arc<PageSource>,
        offset: u64,
        record_bytes: usize,
        slots: usize,
        config: PageConfig,
        kind: ColumnKind,
        crc: Option<ColumnCrc>,
        replica: ReplicaSlot,
    ) -> PagedColumn {
        let config = config.validated();
        let n_pages = slots.div_ceil(config.slots_per_page as usize).max(1);
        PagedColumn {
            source,
            offset,
            len: (slots * record_bytes) as u64,
            record_bytes,
            slots,
            config,
            kind,
            crc,
            replica,
            state: Mutex::new(PageState {
                pages: (0..n_pages).map(|_| None).collect(),
                stamp: vec![0; n_pages],
                dead: vec![false; n_pages],
                ..Default::default()
            }),
        }
    }

    /// Copies slot `slot`'s record into `out`, materializing (and possibly
    /// evicting) pages as needed.
    fn read_slot(&self, slot: usize, out: &mut [u8]) -> Result<(), StoreError> {
        debug_assert_eq!(out.len(), self.record_bytes);
        self.read_range(slot, 1, out)
    }

    /// Copies the contiguous records of `[first_slot, first_slot + n)`
    /// into `out` under **one** lock acquisition, touching each spanned
    /// page's LRU state once — the whole-voxel fetch path.
    fn read_range(&self, first_slot: usize, n: usize, out: &mut [u8]) -> Result<(), StoreError> {
        debug_assert!(first_slot + n <= self.slots);
        debug_assert_eq!(out.len(), n * self.record_bytes);
        if n == 0 {
            return Ok(());
        }
        let spp = self.config.slots_per_page as usize;
        let mut st = lock_unpoisoned(&self.state);
        let mut slot = first_slot;
        let mut written = 0usize;
        while slot < first_slot + n {
            let page = slot / spp;
            self.ensure_page(&mut st, page)?;
            st.clock += 1;
            st.stamp[page] = st.clock;
            let in_page = slot - page * spp;
            let take = (spp - in_page).min(first_slot + n - slot);
            let bytes = take * self.record_bytes;
            let from = in_page * self.record_bytes;
            match &st.pages[page] {
                Some(p) => out[written..written + bytes].copy_from_slice(&p[from..from + bytes]),
                None => {
                    // ensure_page just succeeded; an absent page here means
                    // the state was corrupted by a panicking sibling.
                    return Err(StoreError::PageLost {
                        column: self.kind,
                        page: page as u64,
                    });
                }
            }
            written += bytes;
            slot += take;
        }
        Ok(())
    }

    /// Materializes `page` if absent: evicts the least-recently-used
    /// resident page when a budget is set (an O(budget) scan of the
    /// resident list; stamps are unique, so the victim is deterministic)
    /// and recycles the victim's buffer for the new page, so a bounded
    /// column's warm faults allocate nothing; then fills the page with up
    /// to [`PageConfig::max_read_attempts`]
    /// verified reads. Permanent faults mark the page dead; with a
    /// replica attached, a dead page is re-fetched (and CRC-re-verified)
    /// from it instead of failing fast — healing is counted, never
    /// rendered: replica bytes are validated identical to the primary's
    /// metadata, so a healed page holds the exact fault-free bytes.
    fn ensure_page(&self, st: &mut PageState, page: usize) -> Result<(), StoreError> {
        if st.pages[page].is_some() {
            return Ok(());
        }
        let lost = || StoreError::PageLost {
            column: self.kind,
            page: page as u64,
        };
        // A dead page only ever retries against an attached replica: one
        // clean verified fill heals it, anything else keeps it dead.
        let heal_from: Option<Arc<PageSource>> = if st.dead[page] {
            match lock_unpoisoned(&self.replica).clone() {
                Some(r) => Some(r),
                None => return Err(lost()),
            }
        } else {
            None
        };
        let mut bytes = Vec::new();
        let budget = self.config.max_resident_pages as usize;
        if budget > 0 && st.resident_ids.len() >= budget {
            let mut at = 0usize;
            for (i, &p) in st.resident_ids.iter().enumerate() {
                if st.stamp[p] < st.stamp[st.resident_ids[at]] {
                    at = i;
                }
            }
            let victim = st.resident_ids.swap_remove(at);
            bytes = st.pages[victim].take().unwrap_or_default();
        }
        let spp = self.config.slots_per_page as usize;
        let first_slot = page * spp;
        let n_slots = spp.min(self.slots - first_slot);
        // Every fill overwrites the whole page, so a recycled buffer's old
        // bytes never survive into it.
        bytes.resize(n_slots * self.record_bytes, 0);
        if let Some(replica) = heal_from {
            // Healing path: a single verified fill from the replica (no
            // retry loop — the replica is the last resort; its fill is
            // clean and CRC-checked, or the page stays dead).
            let healed = self
                .fill_page(&replica, &mut st.verify, &mut bytes, first_slot, n_slots, 0)
                .is_ok();
            if !healed {
                return Err(lost());
            }
            st.dead[page] = false;
            st.healed += 1;
            st.pages[page] = Some(bytes);
            st.resident_ids.push(page);
            st.faults += 1;
            return Ok(());
        }
        let max_attempts = self.config.max_read_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            match self.fill_page(
                &self.source,
                &mut st.verify,
                &mut bytes,
                first_slot,
                n_slots,
                attempt,
            ) {
                Ok(()) => break,
                Err(FillError::Permanent) => {
                    st.dead[page] = true;
                    // With a replica attached, heal the freshly-dead page
                    // inline: the frame sees a healed page, not a lost one.
                    let healed = lock_unpoisoned(&self.replica).clone().is_some_and(|r| {
                        self.fill_page(&r, &mut st.verify, &mut bytes, first_slot, n_slots, 0)
                            .is_ok()
                    });
                    if !healed {
                        return Err(lost());
                    }
                    st.dead[page] = false;
                    st.healed += 1;
                    break;
                }
                Err(cause) => {
                    st.retries += 1;
                    attempt += 1;
                    if attempt >= max_attempts {
                        return Err(match cause {
                            FillError::Transient => StoreError::RetriesExhausted {
                                column: self.kind,
                                page: page as u64,
                                attempts: attempt,
                            },
                            FillError::Corrupt(chunk) => StoreError::CorruptPage {
                                column: self.kind,
                                chunk,
                            },
                            FillError::Io(e) => StoreError::Io(e),
                            FillError::Permanent => StoreError::PageLost {
                                column: self.kind,
                                page: page as u64,
                            },
                        });
                    }
                    retry_backoff(attempt);
                }
            }
        }
        st.pages[page] = Some(bytes);
        st.resident_ids.push(page);
        st.faults += 1;
        Ok(())
    }

    /// One fill attempt from `source` (the primary, or the attached
    /// replica when healing). With checksums on, reads the chunk-aligned
    /// cover of the page's slots into `verify`, checks every covered
    /// chunk's CRC, and copies the page's window out — or, when the cover
    /// is exactly the page, reads and checks it in `out` directly;
    /// otherwise reads the page directly.
    fn fill_page(
        &self,
        source: &PageSource,
        verify: &mut Vec<u8>,
        out: &mut [u8],
        first_slot: usize,
        n_slots: usize,
        attempt: u32,
    ) -> Result<(), FillError> {
        let rb = self.record_bytes;
        let crc = match &self.crc {
            Some(crc) if self.config.verify_checksums => crc,
            _ => {
                return source
                    .read_page(self.offset + (first_slot * rb) as u64, out, attempt)
                    .map_err(FillError::from);
            }
        };
        let cs = (crc.chunk_slots as usize).max(1);
        let c0 = first_slot / cs;
        let c1 = (first_slot + n_slots).div_ceil(cs).min(crc.chunks.len());
        let cover_first = c0 * cs;
        let cover_last = (c1 * cs).min(self.slots);
        let exact = cover_first == first_slot && cover_last == first_slot + n_slots;
        let cover: &mut [u8] = if exact {
            out
        } else {
            verify.clear();
            verify.resize((cover_last - cover_first) * rb, 0);
            verify
        };
        source
            .read_page(self.offset + (cover_first * rb) as u64, cover, attempt)
            .map_err(FillError::from)?;
        for c in c0..c1 {
            let s0 = c * cs;
            let s1 = ((c + 1) * cs).min(self.slots);
            let window = &cover[(s0 - cover_first) * rb..(s1 - cover_first) * rb];
            if crc32(window) != crc.chunks[c] {
                return Err(FillError::Corrupt(c as u64));
            }
        }
        if !exact {
            let from = (first_slot - cover_first) * rb;
            out.copy_from_slice(&verify[from..from + n_slots * rb]);
        }
        Ok(())
    }

    fn faults(&self) -> u64 {
        lock_unpoisoned(&self.state).faults
    }

    fn resident_bytes(&self) -> u64 {
        let st = lock_unpoisoned(&self.state);
        st.pages
            .iter()
            .flatten()
            .map(|p| p.len() as u64)
            .sum::<u64>()
    }
}

/// One column's backing: fully resident bytes or demand-paged pages.
#[derive(Debug)]
enum Column {
    Resident(Vec<u8>),
    // Boxed: a PagedColumn (source handle, CRC tables, page state) is an
    // order of magnitude wider than the resident variant's Vec header.
    Paged(Box<PagedColumn>),
}

impl Column {
    fn len_bytes(&self) -> u64 {
        match self {
            Column::Resident(b) => b.len() as u64,
            Column::Paged(p) => p.len,
        }
    }

    /// Copies slot `slot`'s `record_bytes`-wide record into `out`.
    fn read_slot(
        &self,
        slot: usize,
        record_bytes: usize,
        out: &mut [u8],
    ) -> Result<(), StoreError> {
        match self {
            Column::Resident(b) => {
                out.copy_from_slice(&b[slot * record_bytes..slot * record_bytes + out.len()]);
                Ok(())
            }
            Column::Paged(p) => {
                debug_assert_eq!(p.record_bytes, record_bytes);
                p.read_slot(slot, out)
            }
        }
    }
}

impl Clone for Column {
    /// Cloning a paged column shares the source image, CRC tables and the
    /// replica slot (an attached replica keeps healing clones) but starts
    /// with a cold page set (page state is never shared between clones —
    /// including dead-page marks, which re-derive from the same
    /// deterministic fault stream).
    fn clone(&self) -> Column {
        match self {
            Column::Resident(b) => Column::Resident(b.clone()),
            Column::Paged(p) => Column::Paged(Box::new(PagedColumn::new(
                Arc::clone(&p.source),
                p.offset,
                p.record_bytes,
                p.slots,
                p.config,
                p.kind,
                p.crc.clone(),
                Arc::clone(&p.replica),
            ))),
        }
    }
}

/// A return-on-drop pool of staging buffers for paged whole-voxel fetches.
///
/// [`VoxelStore::fetch_coarse`] over a paged column stages the voxel's
/// contiguous records before decoding; allocating that staging `Vec` per
/// voxel made the paged steady state allocate where the resident path does
/// not (the ROADMAP open item). The pool hands out recycled buffers
/// ([`StagingPool::take`]) wrapped in a [`PooledBuf`] guard that pushes the
/// buffer back on drop, so once every buffer in flight has grown to the
/// largest voxel's size, paged coarse fetches allocate nothing
/// (`tests/alloc_free_streaming.rs` proves it under a counting allocator).
#[derive(Debug, Default)]
struct StagingPool(Mutex<Vec<Vec<u8>>>);

impl StagingPool {
    /// Pops a recycled buffer (or starts a fresh one), resized to `len`.
    fn take(&self, len: usize) -> PooledBuf<'_> {
        let mut buf = lock_unpoisoned(&self.0).pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, 0);
        PooledBuf { pool: self, buf }
    }
}

impl Clone for StagingPool {
    /// Clones start with an empty pool — buffers are cheap warm-up state,
    /// never shared data.
    fn clone(&self) -> StagingPool {
        StagingPool::default()
    }
}

/// A staging buffer on loan from a [`StagingPool`]; returns itself to the
/// pool when dropped (keeping its capacity for the next fetch).
#[derive(Debug)]
struct PooledBuf<'a> {
    pool: &'a StagingPool,
    buf: Vec<u8>,
}

impl Drop for PooledBuf<'_> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.pool.0).push(std::mem::take(&mut self.buf));
    }
}

impl std::ops::Deref for PooledBuf<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

/// What the second-half column holds.
#[derive(Clone, Debug)]
enum FineFormat {
    /// Uncompressed 220 B records plus the per-slot max-axis layout tag
    /// (metadata, not counted as record traffic).
    Raw { max_axis: Vec<u8> },
    /// Serialized index records decoded through the (on-chip) codebooks.
    Vq {
        codebooks: FeatureCodebooks,
        record_bytes: usize,
    },
}

/// How an extra tier's records decode (mirrors the store's [`FineFormat`]:
/// raw stores carry raw tiers, VQ stores carry VQ tiers).
#[derive(Clone, Debug)]
enum TierCodec {
    /// SH-truncated byte prefixes of the raw fine record; decoding
    /// zero-fills the truncated tail and reuses the per-slot max-axis tag
    /// of the full-quality column.
    Raw,
    /// Tier-trained codebooks (entries shrunk by
    /// [`TierSpec::codebook_shift`]) decoding SH-truncated index records.
    Vq(FeatureCodebooks),
}

/// One extra LOD tier: a pruned, SH-truncated second-half column plus the
/// slot directory mapping its compact slot space back to global slots.
#[derive(Clone, Debug)]
struct TierColumn {
    /// The layout this tier was built with.
    spec: TierSpec,
    codec: TierCodec,
    /// Serialized bytes per tier record.
    record_bytes: usize,
    /// Per-voxel ranges in *tier-slot* space (same indexing as the store's
    /// global ranges; empty for voxels the tier pruned entirely).
    ranges: Vec<(u32, u32)>,
    /// Tier slot → global slot, strictly ascending within each voxel.
    slots: Vec<u32>,
    /// The tier's record column (resident or demand-paged).
    column: Column,
}

/// The decoded coarse stream of one voxel, returned by
/// [`VoxelStore::fetch_coarse`] / [`VoxelStore::try_fetch_coarse`].
///
/// Resident columns decode straight from the contiguous column slice (no
/// per-slot copy or lock); a paged column decodes from a staging buffer on
/// loan from the store's return-on-drop pool (dropping the iterator
/// recycles it).
pub struct CoarseIter<'a> {
    bytes: CoarseBytes<'a>,
    first: u32,
    next: u32,
    end: u32,
}

enum CoarseBytes<'a> {
    Resident(&'a [u8]),
    Staged(PooledBuf<'a>),
}

impl Iterator for CoarseIter<'_> {
    type Item = (u32, Vec3, f32);

    fn next(&mut self) -> Option<(u32, Vec3, f32)> {
        if self.next >= self.end {
            return None;
        }
        let slot = self.next;
        self.next += 1;
        let rec: &[u8] = match &self.bytes {
            CoarseBytes::Resident(bytes) => &bytes[slot as usize * COARSE_BYTES..][..COARSE_BYTES],
            CoarseBytes::Staged(buf) => {
                &buf[(slot - self.first) as usize * COARSE_BYTES..][..COARSE_BYTES]
            }
        };
        let (pos, s_max) = Gaussian::decode_coarse(rec);
        Some((slot, pos, s_max))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.next) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for CoarseIter<'_> {}

/// Per-voxel contiguous columnar storage with metered, bit-exact fetches.
///
/// Built once at scene preparation ([`VoxelStore::from_cloud`] /
/// [`VoxelStore::from_quantized`]) with resident columns, or opened over a
/// serialized scene image with demand-paged columns
/// ([`VoxelStore::open_paged_bytes`] / [`VoxelStore::open_paged_file`]);
/// the streaming renderer's coarse and fine phases read **only** from
/// here, through either backing, with identical bytes and metering. See
/// the module docs for the error contract of the `try_*` twins.
#[derive(Clone, Debug)]
pub struct VoxelStore {
    /// Slot range per renamed voxel (mirrors the grid's layout).
    ranges: Vec<(u32, u32)>,
    /// Global Gaussian id per slot (the DRAM index stream).
    ids: Vec<u32>,
    /// First-half column, [`COARSE_BYTES`] per slot, voxel-contiguous.
    coarse: Column,
    /// Second-half column.
    fine: Column,
    /// Second-half record format (shared by both backings).
    format: FineFormat,
    /// Extra LOD tiers (tier 1..), coarsest last. Empty for single-tier
    /// stores — the legacy shape, serialized as a v2 image.
    tiers: Vec<TierColumn>,
    /// Recycled staging buffers for paged whole-voxel coarse fetches
    /// (unused by resident columns; clones start empty).
    staging: StagingPool,
}

impl VoxelStore {
    /// Builds a raw (uncompressed second half) store over `cloud`,
    /// voxel-contiguous in `grid`'s renamed-voxel order.
    pub fn from_cloud(cloud: &GaussianCloud, grid: &VoxelGrid) -> VoxelStore {
        let (ranges, ids) = layout_of(grid);
        let gs = cloud.as_slice();
        let mut coarse = Vec::with_capacity(ids.len() * COARSE_BYTES);
        let mut bytes = Vec::with_capacity(ids.len() * FINE_BYTES_RAW);
        let mut max_axis = Vec::with_capacity(ids.len());
        for &gi in &ids {
            let g = &gs[gi as usize];
            coarse.extend_from_slice(&g.coarse_record());
            let (fine, axis) = g.fine_record();
            bytes.extend_from_slice(&fine);
            max_axis.push(axis);
        }
        VoxelStore {
            ranges,
            ids,
            coarse: Column::Resident(coarse),
            fine: Column::Resident(bytes),
            format: FineFormat::Raw { max_axis },
            tiers: Vec::new(),
            staging: StagingPool::default(),
        }
    }

    /// Builds a VQ store: raw first half (from the quantizer's uncompressed
    /// coarse data, bit-identical to the cloud's) and serialized index
    /// records as the second half, decoded through a copy of the trained
    /// codebooks on fetch.
    ///
    /// # Panics
    ///
    /// Panics when `quant` does not cover every Gaussian of the grid.
    pub fn from_quantized(quant: &QuantizedCloud, grid: &VoxelGrid) -> VoxelStore {
        let (ranges, ids) = layout_of(grid);
        let record_bytes = quant.codebooks.record_bytes() as usize;
        let mut coarse = Vec::with_capacity(ids.len() * COARSE_BYTES);
        let mut bytes = Vec::with_capacity(ids.len() * record_bytes);
        for &gi in &ids {
            let (pos, s_max) = quant.coarse[gi as usize];
            for v in [pos.x, pos.y, pos.z, s_max] {
                coarse.extend_from_slice(&v.to_le_bytes());
            }
            quant
                .codebooks
                .write_record(&quant.records[gi as usize], &mut bytes);
        }
        VoxelStore {
            ranges,
            ids,
            coarse: Column::Resident(coarse),
            fine: Column::Resident(bytes),
            format: FineFormat::Vq {
                codebooks: quant.codebooks.clone(),
                record_bytes,
            },
            tiers: Vec::new(),
            staging: StagingPool::default(),
        }
    }

    /// Gaussian slots in the store.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the store holds no Gaussians.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of voxels (equals the grid's renamed voxel count).
    pub fn voxel_count(&self) -> usize {
        self.ranges.len()
    }

    /// `true` when the second half holds VQ index records.
    pub fn is_vq(&self) -> bool {
        matches!(self.format, FineFormat::Vq { .. })
    }

    /// `true` when the columns are demand-paged rather than resident.
    pub fn is_paged(&self) -> bool {
        matches!(self.coarse, Column::Paged(_))
    }

    /// The effective page configuration of a paged store (`None` for
    /// resident backings). `verify_checksums` here reflects reality: it is
    /// forced `false` when the image was a version-1 file without CRC
    /// tables, whatever the requested config said.
    pub fn page_config(&self) -> Option<PageConfig> {
        match &self.coarse {
            Column::Paged(p) => Some(p.config),
            Column::Resident(_) => None,
        }
    }

    /// Pages materialized so far across both columns (0 for resident
    /// backings; with a residency budget, re-faults count again).
    pub fn page_faults(&self) -> u64 {
        let of = |c: &Column| match c {
            Column::Resident(_) => 0,
            Column::Paged(p) => p.faults(),
        };
        of(&self.coarse) + of(&self.fine) + self.tiers.iter().map(|t| of(&t.column)).sum::<u64>()
    }

    /// Retry/dead/injection counters, cheap enough to snapshot per frame
    /// (all zeros for resident backings). Allocation-free.
    pub fn fault_snapshot(&self) -> StoreFaultSnapshot {
        let mut snap = StoreFaultSnapshot::default();
        for col in [&self.coarse, &self.fine]
            .into_iter()
            .chain(self.tiers.iter().map(|t| &t.column))
        {
            if let Column::Paged(p) = col {
                let st = lock_unpoisoned(&p.state);
                snap.retries += st.retries;
                snap.dead_pages += st.dead.iter().filter(|&&d| d).count() as u64;
                snap.pages_healed += st.healed;
            }
        }
        if let Column::Paged(p) = &self.coarse {
            if let PageSource::Faulty(inj) = &*p.source {
                snap.injected = *lock_unpoisoned(&inj.stats);
            }
        }
        snap
    }

    /// Per-page health map of `column`: `map[i]` is `true` when page `i`
    /// was marked dead by a permanent fault, so every fetch touching its
    /// slots fails fast with [`StoreError::PageLost`]. A dead mark is
    /// sticky unless a replica is attached (see
    /// [`VoxelStore::attach_replica_bytes`]): the next fetch touching a
    /// dead page then re-reads it from the replica, re-verifies its CRC
    /// chunks, and clears the mark on success. Clones re-derive their own
    /// marks from their own reads. Resident columns have no pages: the
    /// map is empty and [`StoreFaultSnapshot::dead_pages`] is the
    /// matching aggregate count.
    pub fn dead_page_map(&self, column: ColumnKind) -> Vec<bool> {
        let col = match column {
            ColumnKind::Coarse => &self.coarse,
            ColumnKind::Fine => &self.fine,
            ColumnKind::Tier(t) => &self.tiers[t as usize].column,
        };
        match col {
            Column::Resident(_) => Vec::new(),
            Column::Paged(p) => lock_unpoisoned(&p.state).dead.clone(),
        }
    }

    /// Attaches an in-memory replica scene image as the fallback page
    /// source for every paged column. Once attached, a fetch touching a
    /// page marked dead re-reads the page from the replica instead of
    /// failing with [`StoreError::PageLost`]; the healed bytes re-verify
    /// their CRC chunks (when the store verifies checksums) and the heal
    /// is counted in [`StoreFaultSnapshot::pages_healed`]. The replica
    /// must be byte-compatible with the primary image: same length and an
    /// identical metadata prefix (header, tables, checksums). The column
    /// payloads are *not* compared up front — a replica whose payload
    /// diverges is caught page-by-page by CRC verification at heal time.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] when the store is not paged or the
    /// replica is not byte-compatible with the primary image.
    pub fn attach_replica_bytes(&self, image: Vec<u8>) -> Result<(), StoreError> {
        self.attach_replica(PageSource::Memory(image))
    }

    /// [`VoxelStore::attach_replica_bytes`] reading the replica image
    /// from a file on demand.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be opened, plus every
    /// [`VoxelStore::attach_replica_bytes`] error.
    pub fn attach_replica_file(&self, path: &Path) -> Result<(), StoreError> {
        self.attach_replica(PageSource::File(Mutex::new(std::fs::File::open(path)?)))
    }

    fn attach_replica(&self, replica: PageSource) -> Result<(), StoreError> {
        let Column::Paged(p) = &self.coarse else {
            return Err(StoreError::Malformed {
                what: "replica attached to a resident store",
            });
        };
        let primary_len = p.source.len()?;
        if replica.len()? != primary_len {
            return Err(StoreError::Malformed {
                what: "replica length disagrees with the primary image",
            });
        }
        // The metadata prefix (everything before the coarse column) must
        // match byte-for-byte: it pins the layout every paged column's
        // offsets were derived from, so a replica that passes is
        // structurally interchangeable with the primary.
        let meta = p.offset as usize;
        let mut a = vec![0u8; meta];
        let mut b = vec![0u8; meta];
        p.source.read_at(0, &mut a)?;
        replica.read_at(0, &mut b)?;
        if a != b {
            return Err(StoreError::Malformed {
                what: "replica metadata disagrees with the primary image",
            });
        }
        // One store-wide slot shared by every column (and every clone of
        // this store), so a single attach heals all columns.
        *lock_unpoisoned(&p.replica) = Some(Arc::new(replica));
        Ok(())
    }

    /// Bytes currently held by materialized pages across every column,
    /// tiers included (equals the column totals for resident backings).
    pub fn resident_column_bytes(&self) -> u64 {
        let of = |c: &Column| match c {
            Column::Resident(b) => b.len() as u64,
            Column::Paged(p) => p.resident_bytes(),
        };
        of(&self.coarse) + of(&self.fine) + self.tiers.iter().map(|t| of(&t.column)).sum::<u64>()
    }

    /// DRAM bytes of one first-half record (16).
    pub fn coarse_bytes_per_gaussian(&self) -> u64 {
        COARSE_BYTES as u64
    }

    /// DRAM bytes of one second-half record (220 raw; the codebooks'
    /// record width for VQ).
    pub fn fine_bytes_per_gaussian(&self) -> u64 {
        match &self.format {
            FineFormat::Raw { .. } => FINE_BYTES_RAW as u64,
            FineFormat::Vq { record_bytes, .. } => *record_bytes as u64,
        }
    }

    /// Total bytes of the first-half column.
    pub fn coarse_column_bytes(&self) -> u64 {
        self.coarse.len_bytes()
    }

    /// Total bytes of the second-half column.
    pub fn fine_column_bytes(&self) -> u64 {
        self.fine.len_bytes()
    }

    /// The slot range of renamed voxel `vid`.
    pub fn slots_of(&self, vid: u32) -> std::ops::Range<u32> {
        let (a, b) = self.ranges[vid as usize];
        a..b
    }

    /// Global Gaussian id stored at `slot`.
    pub fn id_of(&self, slot: u32) -> u32 {
        self.ids[slot as usize]
    }

    /// Global Gaussian ids of voxel `vid`, in slot order.
    pub fn ids_of(&self, vid: u32) -> &[u32] {
        let (a, b) = self.ranges[vid as usize];
        &self.ids[a as usize..b as usize]
    }

    /// Streams voxel `vid`'s first-half column: stages the whole voxel's
    /// contiguous range (paged backings; one lock acquisition), meters the
    /// voxel's coarse bytes into `ledger` (`VoxelCoarse`/read demand — the
    /// burst the accelerator issues regardless of filter outcomes) and
    /// returns an iterator of `(slot, position, max scale)` decoded from
    /// the bytes (identically for resident and paged backings). Nothing is
    /// metered when the stage fails.
    pub fn try_fetch_coarse(
        &self,
        vid: u32,
        ledger: &mut TrafficLedger,
    ) -> Result<CoarseIter<'_>, StoreError> {
        let (a, b) = self.ranges[vid as usize];
        let bytes = match &self.coarse {
            Column::Resident(bytes) => CoarseBytes::Resident(bytes.as_slice()),
            Column::Paged(p) => {
                let mut buf = self.staging.take((b - a) as usize * COARSE_BYTES);
                p.read_range(a as usize, (b - a) as usize, &mut buf)?;
                CoarseBytes::Staged(buf)
            }
        };
        ledger.add(
            Stage::VoxelCoarse,
            Direction::Read,
            (b - a) as u64 * COARSE_BYTES as u64,
        );
        Ok(CoarseIter {
            bytes,
            first: a,
            next: a,
            end: b,
        })
    }

    /// [`VoxelStore::try_fetch_coarse`], panicking on error — infallible
    /// over resident columns; the paged exactness suites keep using it on
    /// known-good images.
    ///
    /// # Panics
    ///
    /// Panics when a paged read fails (see [`StoreError`]).
    pub fn fetch_coarse(&self, vid: u32, ledger: &mut TrafficLedger) -> CoarseIter<'_> {
        match self.try_fetch_coarse(vid, ledger) {
            Ok(it) => it,
            Err(e) => panic!("fetch_coarse(voxel {vid}): {e}"),
        }
    }

    /// Fetches and decodes `slot`'s second-half record, metering its bytes
    /// into `ledger` (`VoxelFine`/read demand) only on success. Bit-exact:
    /// raw stores return the original Gaussian, VQ stores return exactly
    /// [`QuantizedCloud::decode_one`]'s result — whichever backing the
    /// columns use.
    pub fn try_fetch_fine(
        &self,
        slot: u32,
        ledger: &mut TrafficLedger,
    ) -> Result<Gaussian, StoreError> {
        let s = slot as usize;
        let width = self.fine_bytes_per_gaussian() as usize;
        // Resident columns decode straight from their slices (the
        // per-survivor hot loop); paged columns copy through the page
        // machinery.
        let mut cbuf = [0u8; COARSE_BYTES];
        let coarse: &[u8] = if let Column::Resident(bytes) = &self.coarse {
            &bytes[s * COARSE_BYTES..(s + 1) * COARSE_BYTES]
        } else {
            self.coarse.read_slot(s, COARSE_BYTES, &mut cbuf)?;
            &cbuf
        };
        let mut fbuf = [0u8; FINE_BYTES_RAW];
        let fine: &[u8] = if let Column::Resident(bytes) = &self.fine {
            &bytes[s * width..(s + 1) * width]
        } else {
            let buf = &mut fbuf[..width];
            self.fine.read_slot(s, width, buf)?;
            buf
        };
        ledger.add(Stage::VoxelFine, Direction::Read, width as u64);
        ledger.note_tier(0, width as u64);
        Ok(match &self.format {
            FineFormat::Raw { max_axis } => Gaussian::from_split_record(coarse, fine, max_axis[s]),
            FineFormat::Vq { codebooks, .. } => {
                let (pos, _) = Gaussian::decode_coarse(coarse);
                let r = codebooks.read_record(fine);
                codebooks.decode_record(pos, &r)
            }
        })
    }

    /// [`VoxelStore::try_fetch_fine`], panicking on error — infallible
    /// over resident columns.
    ///
    /// # Panics
    ///
    /// Panics when a paged read fails (see [`StoreError`]).
    pub fn fetch_fine(&self, slot: u32, ledger: &mut TrafficLedger) -> Gaussian {
        match self.try_fetch_fine(slot, ledger) {
            Ok(g) => g,
            Err(e) => panic!("fetch_fine(slot {slot}): {e}"),
        }
    }

    /// Re-reads slot `slot`'s coarse record *without metering* — the
    /// degraded-path re-read of bytes the coarse phase already streamed
    /// on-chip (the renderer blends a coarse stand-in when a fine page is
    /// unavailable).
    pub fn try_coarse_of(&self, slot: u32) -> Result<(Vec3, f32), StoreError> {
        let s = slot as usize;
        let mut cbuf = [0u8; COARSE_BYTES];
        let rec: &[u8] = if let Column::Resident(bytes) = &self.coarse {
            &bytes[s * COARSE_BYTES..(s + 1) * COARSE_BYTES]
        } else {
            self.coarse.read_slot(s, COARSE_BYTES, &mut cbuf)?;
            &cbuf
        };
        Ok(Gaussian::decode_coarse(rec))
    }

    // --- LOD tiers --------------------------------------------------------

    /// Builds the extra LOD tiers of this store in place (tier 1.. —
    /// tier 0, the full-quality column, already exists and is never
    /// touched). Each [`TierSpec`] coarsens along three axes: SH-degree
    /// truncation, importance pruning ([`TierSpec::keep_permille`] of the
    /// slots survive, highest importance first) and — for VQ stores —
    /// codebooks shrunk by [`TierSpec::codebook_shift`] and retrained
    /// deterministically (seed offset per tier, so tier contents are a
    /// pure function of `(source, vq, specs, importance)`).
    ///
    /// `importance` scores are indexed by **global Gaussian id** (the
    /// `gs-baselines` view-importance convention); when absent, a pure
    /// per-Gaussian fallback (opacity × s_max²) ranks the pruning instead.
    /// Ties rank by ascending slot, so pruning is total-ordered.
    ///
    /// # Panics
    ///
    /// Panics when `self` is paged (tiers are built at scene-preparation
    /// time, before serialization), when more than
    /// [`gs_mem::MAX_TIERS`] − 1 specs are given, when a VQ store is given
    /// no `vq` config to retrain from, or when `importance` does not cover
    /// the source cloud.
    pub fn build_tiers(
        &mut self,
        source: &GaussianCloud,
        vq: Option<&VqConfig>,
        specs: &[TierSpec],
        importance: Option<&[f64]>,
    ) {
        assert!(
            !self.is_paged(),
            "tiers are built on resident stores before serialization"
        );
        assert!(
            specs.len() < MAX_TIERS,
            "at most {} extra tiers (gs_mem::MAX_TIERS covers tier 0 + extras)",
            MAX_TIERS - 1
        );
        let max_id = self.ids.iter().copied().max().map_or(0, |m| m as usize + 1);
        assert!(
            max_id <= source.len(),
            "source cloud must cover every Gaussian id in the store"
        );
        if let Some(imp) = importance {
            assert_eq!(
                imp.len(),
                source.len(),
                "importance scores must cover the source cloud"
            );
        }
        let gs = source.as_slice();
        // Pruning rank of every slot: importance descending, slot ascending
        // on ties. The fallback score is a pure per-Gaussian map — no
        // accumulation — so ranking is order-free.
        let score = |slot: u32| -> f64 {
            let g = &gs[self.ids[slot as usize] as usize];
            match importance {
                Some(imp) => imp[self.ids[slot as usize] as usize],
                None => {
                    let s_max = g.scale.x.max(g.scale.y).max(g.scale.z);
                    f64::from(g.opacity) * f64::from(s_max) * f64::from(s_max)
                }
            }
        };
        // gs-lint: allow(D004) slot count fits u32 (the image header stores it as one)
        let mut rank: Vec<u32> = (0..self.ids.len() as u32).collect();
        rank.sort_by(|&a, &b| score(b).total_cmp(&score(a)).then_with(|| a.cmp(&b)));
        self.tiers = specs
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                let spec = spec.validated();
                // Tier-trained codebooks for VQ stores: every feature
                // codebook keeps entries >> codebook_shift centroids, with
                // a per-tier seed offset so tiers train independently.
                let quant = match &self.format {
                    FineFormat::Raw { .. } => None,
                    FineFormat::Vq { .. } => {
                        let Some(base) = vq else {
                            panic!("a VQ store needs a VqConfig to retrain tier codebooks")
                        };
                        let shift = u32::from(spec.codebook_shift);
                        let cfg = VqConfig {
                            scale_entries: (base.scale_entries >> shift).max(1),
                            rot_entries: (base.rot_entries >> shift).max(1),
                            dc_entries: (base.dc_entries >> shift).max(1),
                            sh_entries: (base.sh_entries >> shift).max(1),
                            // gs-lint: allow(D004) tier index is < MAX_TIERS
                            seed: base.seed.wrapping_add(1000 * (t as u64 + 1)),
                            ..*base
                        };
                        Some(GaussianQuantizer::train(source, &cfg))
                    }
                };
                let keep = (self.ids.len() * spec.keep_permille as usize).div_ceil(1000);
                let mut kept = vec![false; self.ids.len()];
                for &slot in rank.iter().take(keep) {
                    kept[slot as usize] = true;
                }
                // Tier slots in ascending global order: voxel-contiguous by
                // construction (global slots already are), so the per-voxel
                // tier ranges are plain prefix sums over the kept counts.
                let mut ranges = Vec::with_capacity(self.ranges.len());
                let mut slots = Vec::with_capacity(keep);
                let mut col = Vec::new();
                for &(a, b) in &self.ranges {
                    // gs-lint: allow(D004) tier slot count ≤ global slot count, which fits u32
                    let start = slots.len() as u32;
                    for slot in a..b {
                        if !kept[slot as usize] {
                            continue;
                        }
                        slots.push(slot);
                        match (&self.format, &quant) {
                            (FineFormat::Raw { .. }, _) => {
                                // Resident by the method's entry assertion.
                                let Column::Resident(bytes) = &self.fine else {
                                    unreachable!("build_tiers asserted a resident store")
                                };
                                let rec =
                                    &bytes[slot as usize * FINE_BYTES_RAW..][..FINE_BYTES_RAW];
                                truncate_raw_record(rec, spec.sh_degree, &mut col);
                            }
                            (FineFormat::Vq { .. }, Some(q)) => {
                                let gi = self.ids[slot as usize] as usize;
                                write_vq_tier_record(
                                    &q.codebooks,
                                    spec.sh_degree,
                                    &q.records[gi],
                                    &mut col,
                                );
                            }
                            (FineFormat::Vq { .. }, None) => unreachable!(),
                        }
                    }
                    // gs-lint: allow(D004) tier slot count ≤ global slot count, which fits u32
                    ranges.push((start, slots.len() as u32));
                }
                let (codec, record_bytes) = match quant {
                    None => (TierCodec::Raw, raw_tier_bytes(spec.sh_degree) as usize),
                    Some(q) => {
                        let rb = vq_tier_bytes(&q.codebooks, spec.sh_degree) as usize;
                        (TierCodec::Vq(q.codebooks), rb)
                    }
                };
                debug_assert_eq!(col.len(), slots.len() * record_bytes);
                TierColumn {
                    spec,
                    codec,
                    record_bytes,
                    ranges,
                    slots,
                    column: Column::Resident(col),
                }
            })
            .collect();
    }

    /// Number of extra LOD tiers (0 for a legacy single-tier store; the
    /// full-quality column is tier 0 and not counted here).
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// Layout of extra tier `t` (0-based over the extras — overall tier
    /// `t + 1`).
    pub fn tier_spec(&self, t: usize) -> TierSpec {
        self.tiers[t].spec
    }

    /// Serialized bytes per record of extra tier `t`.
    pub fn tier_record_bytes(&self, t: usize) -> u64 {
        self.tiers[t].record_bytes as u64
    }

    /// Total bytes of extra tier `t`'s record column.
    pub fn tier_column_bytes(&self, t: usize) -> u64 {
        self.tiers[t].column.len_bytes()
    }

    /// Voxel `vid`'s slot range in extra tier `t`'s compact slot space
    /// (empty when the tier pruned the voxel entirely).
    pub fn tier_slots_of(&self, t: usize, vid: u32) -> std::ops::Range<u32> {
        let (a, b) = self.tiers[t].ranges[vid as usize];
        a..b
    }

    /// The global slot behind extra tier `t`'s slot `tslot`.
    pub fn tier_global_slot(&self, t: usize, tslot: u32) -> u32 {
        self.tiers[t].slots[tslot as usize]
    }

    /// Fetches and decodes extra tier `t`'s record at tier slot `tslot`,
    /// metering its bytes into `ledger` (`VoxelFine`/read demand plus the
    /// overall tier's per-tier counter, `t + 1`) only on success. Decodes
    /// are deterministic: the kept feature groups run the same float
    /// operations as the full-quality decode; truncated SH bands are exact
    /// zeros.
    pub fn try_fetch_tier_fine(
        &self,
        t: usize,
        tslot: u32,
        ledger: &mut TrafficLedger,
    ) -> Result<Gaussian, StoreError> {
        let tier = &self.tiers[t];
        let width = tier.record_bytes;
        let global = tier.slots[tslot as usize] as usize;
        let mut tbuf = [0u8; FINE_BYTES_RAW];
        let rec: &[u8] = if let Column::Resident(bytes) = &tier.column {
            &bytes[tslot as usize * width..(tslot as usize + 1) * width]
        } else {
            let buf = &mut tbuf[..width];
            tier.column.read_slot(tslot as usize, width, buf)?;
            buf
        };
        let mut cbuf = [0u8; COARSE_BYTES];
        let coarse: &[u8] = if let Column::Resident(bytes) = &self.coarse {
            &bytes[global * COARSE_BYTES..(global + 1) * COARSE_BYTES]
        } else {
            self.coarse.read_slot(global, COARSE_BYTES, &mut cbuf)?;
            &cbuf
        };
        let g = match (&tier.codec, &self.format) {
            (TierCodec::Raw, FineFormat::Raw { max_axis }) => {
                let mut full = [0u8; FINE_BYTES_RAW];
                expand_raw_record(rec, &mut full);
                Gaussian::from_split_record(coarse, &full, max_axis[global])
            }
            (TierCodec::Vq(cb), _) => {
                let (pos, _) = Gaussian::decode_coarse(coarse);
                let r = read_vq_tier_record(cb, tier.spec.sh_degree, rec);
                decode_vq_tier_record(cb, tier.spec.sh_degree, pos, &r)
            }
            (TierCodec::Raw, FineFormat::Vq { .. }) => {
                return Err(StoreError::Malformed {
                    what: "raw tier records inside a VQ scene image",
                })
            }
        };
        ledger.add(Stage::VoxelFine, Direction::Read, width as u64);
        ledger.note_tier(t + 1, width as u64);
        Ok(g)
    }

    // --- serialized scene image ------------------------------------------

    /// Serializes the store into its compact scene image (see the module
    /// docs for the layout): version 2 when the store is single-tier, the
    /// tiered version 3 when extra LOD tiers were built — so legacy stores
    /// keep producing bit-identical v2 images. No writer emits version 1
    /// or a tierless version 3; those images stay readable.
    /// [`VoxelStore::open_paged_bytes`] / [`VoxelStore::open_paged_file`]
    /// reopen the image with demand-paged columns, bit-exactly. Fails only
    /// when `self` is itself paged and a page read fails.
    pub fn try_to_scene_bytes(&self) -> Result<Vec<u8>, StoreError> {
        let n_slots = self.len();
        let width = self.fine_bytes_per_gaussian() as usize;
        let tiers = &self.tiers;
        let mut out = Vec::new();
        let mut header = vec![
            SCENE_MAGIC,
            if tiers.is_empty() {
                SCENE_VERSION
            } else {
                SCENE_VERSION_V3
            },
            if self.is_vq() { FLAG_VQ } else { 0 },
            header_u32(self.voxel_count(), "voxel count exceeds u32 header field")?,
            header_u32(n_slots, "slot count exceeds u32 header field")?,
            header_u32(width, "record width exceeds u32 header field")?,
            CRC_CHUNK_SLOTS,
        ];
        if !tiers.is_empty() {
            header.push(header_u32(
                tiers.len(),
                "tier count exceeds u32 header field",
            )?);
        }
        for v in header {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for &(a, b) in &self.ranges {
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
        for &id in &self.ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        match &self.format {
            FineFormat::Raw { max_axis } => out.extend_from_slice(max_axis),
            FineFormat::Vq { codebooks, .. } => write_codebooks(codebooks, &mut out),
        }
        // Stage both columns (pages everything in when `self` is paged —
        // which is also why serialization happens before any file I/O in
        // `write_scene_file`).
        let mut rec = [0u8; FINE_BYTES_RAW];
        let mut coarse_col = Vec::with_capacity(n_slots * COARSE_BYTES);
        for s in 0..n_slots {
            self.coarse
                .read_slot(s, COARSE_BYTES, &mut rec[..COARSE_BYTES])?;
            coarse_col.extend_from_slice(&rec[..COARSE_BYTES]);
        }
        let mut fine_col = Vec::with_capacity(n_slots * width);
        for s in 0..n_slots {
            self.fine.read_slot(s, width, &mut rec[..width])?;
            fine_col.extend_from_slice(&rec[..width]);
        }
        let mut tier_cols = Vec::with_capacity(tiers.len());
        for t in tiers {
            let rb = t.record_bytes;
            let mut col = vec![0u8; t.slots.len() * rb];
            for s in 0..t.slots.len() {
                t.column.read_slot(s, rb, &mut col[s * rb..(s + 1) * rb])?;
            }
            tier_cols.push(col);
        }
        // Chunks are slot-aligned, so `chunks()` over the raw column
        // yields exactly ceil(n_slots / CRC_CHUNK_SLOTS) windows.
        for (col, rb) in [(&coarse_col, COARSE_BYTES), (&fine_col, width)] {
            for chunk in col.chunks((CRC_CHUNK_SLOTS as usize * rb).max(1)) {
                out.extend_from_slice(&crc32(chunk).to_le_bytes());
            }
        }
        // v3 tier directory: per tier, a six-word descriptor, the
        // tier-slot tables, the tier codebooks (VQ images), then the
        // tier column's own CRC chunk table — all covered by the one
        // metadata CRC below.
        for (t, col) in tiers.iter().zip(&tier_cols) {
            let kind = match &t.codec {
                TierCodec::Raw => TIER_KIND_RAW,
                TierCodec::Vq(_) => TIER_KIND_VQ,
            };
            for v in [
                kind,
                u32::from(t.spec.sh_degree),
                u32::from(t.spec.keep_permille),
                u32::from(t.spec.codebook_shift),
                header_u32(t.record_bytes, "tier record width exceeds u32")?,
                header_u32(t.slots.len(), "tier slot count exceeds u32")?,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for &(a, b) in &t.ranges {
                out.extend_from_slice(&a.to_le_bytes());
                out.extend_from_slice(&b.to_le_bytes());
            }
            for &slot in &t.slots {
                out.extend_from_slice(&slot.to_le_bytes());
            }
            if let TierCodec::Vq(cb) = &t.codec {
                write_codebooks(cb, &mut out);
            }
            for chunk in col.chunks((CRC_CHUNK_SLOTS as usize * t.record_bytes).max(1)) {
                out.extend_from_slice(&crc32(chunk).to_le_bytes());
            }
        }
        let meta = crc32(&out);
        out.extend_from_slice(&meta.to_le_bytes());
        out.extend_from_slice(&coarse_col);
        out.extend_from_slice(&fine_col);
        for col in &tier_cols {
            out.extend_from_slice(col);
        }
        Ok(out)
    }

    /// [`VoxelStore::try_to_scene_bytes`], panicking on error —
    /// infallible over resident columns.
    ///
    /// # Panics
    ///
    /// Panics when `self` is paged and a page read fails.
    pub fn to_scene_bytes(&self) -> Vec<u8> {
        match self.try_to_scene_bytes() {
            Ok(image) => image,
            Err(e) => panic!("to_scene_bytes: {e}"),
        }
    }

    /// Writes [`VoxelStore::to_scene_bytes`] to `path` **crash-safely**:
    /// the image is serialized first (so re-writing a file-paged store
    /// over its own backing pages everything in before the destination is
    /// touched), written to a temp file in the destination directory,
    /// fsynced, then atomically renamed into place — a crash can never
    /// leave a torn image under the final name.
    pub fn write_scene_file(&self, path: &Path) -> io::Result<()> {
        let image = self.try_to_scene_bytes().map_err(io::Error::from)?;
        let name = path.file_name().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "scene path has no file name")
        })?;
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = dir.join(format!(
            ".{}.{}.{seq}.tmp",
            name.to_string_lossy(),
            std::process::id()
        ));
        let result = (|| -> io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&image)?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
            return result;
        }
        #[cfg(unix)]
        if let Ok(d) = std::fs::File::open(&dir) {
            // Durability of the rename itself; best-effort by design.
            d.sync_all().ok();
        }
        Ok(())
    }

    /// Opens a serialized scene image held in memory with demand-paged
    /// columns.
    pub fn open_paged_bytes(image: Vec<u8>, config: PageConfig) -> Result<VoxelStore, StoreError> {
        Self::open_paged(PageSource::Memory(image), config)
    }

    /// [`VoxelStore::open_paged_bytes`] with deterministic fault injection
    /// wrapped around the page-read path (open-time metadata reads are
    /// never faulted). A no-op `policy` skips the wrapper entirely.
    pub fn open_paged_bytes_with_faults(
        image: Vec<u8>,
        config: PageConfig,
        policy: FaultPolicy,
    ) -> Result<VoxelStore, StoreError> {
        Self::open_paged(wrap_faulty(PageSource::Memory(image), policy), config)
    }

    /// Opens a serialized scene file with demand-paged columns (index
    /// metadata is loaded eagerly; column pages are read positionally on
    /// demand).
    pub fn open_paged_file(path: &Path, config: PageConfig) -> Result<VoxelStore, StoreError> {
        Self::open_paged(
            PageSource::File(Mutex::new(std::fs::File::open(path)?)),
            config,
        )
    }

    /// [`VoxelStore::open_paged_file`] with deterministic fault injection
    /// (see [`VoxelStore::open_paged_bytes_with_faults`]).
    pub fn open_paged_file_with_faults(
        path: &Path,
        config: PageConfig,
        policy: FaultPolicy,
    ) -> Result<VoxelStore, StoreError> {
        Self::open_paged(
            wrap_faulty(
                PageSource::File(Mutex::new(std::fs::File::open(path)?)),
                policy,
            ),
            config,
        )
    }

    fn open_paged(source: PageSource, config: PageConfig) -> Result<VoxelStore, StoreError> {
        let truncated = |what: &'static str| StoreError::Truncated { what };
        let malformed = |what: &'static str| StoreError::Malformed { what };
        // Every size below is validated against the image length *before*
        // it drives an allocation or a read, so a corrupt or truncated
        // image fails cleanly at open — never with a huge allocation here
        // or an out-of-bounds page fault mid-render.
        let src_len = source.len()?;
        let fits = |at: u64, bytes: u64, what: &'static str| -> Result<(), StoreError> {
            match at.checked_add(bytes) {
                Some(end) if end <= src_len => Ok(()),
                _ => Err(truncated(what)),
            }
        };
        let mut at = 0u64;
        let u32_at = |src: &PageSource, at: &mut u64| -> Result<u32, StoreError> {
            let mut b = [0u8; 4];
            src.read_at(*at, &mut b)?;
            *at += 4;
            Ok(u32::from_le_bytes(b))
        };
        fits(at, 24, "header")?;
        if u32_at(&source, &mut at)? != SCENE_MAGIC {
            return Err(malformed("not a serialized voxel-store scene image"));
        }
        let version = u32_at(&source, &mut at)?;
        if !matches!(version, SCENE_VERSION_V1 | SCENE_VERSION | SCENE_VERSION_V3) {
            return Err(malformed("unsupported scene image version"));
        }
        let flags = u32_at(&source, &mut at)?;
        if flags & !KNOWN_FLAGS != 0 {
            return Err(malformed("unknown header flags"));
        }
        let n_voxels = u32_at(&source, &mut at)? as usize;
        let n_slots = u32_at(&source, &mut at)? as usize;
        let width = u32_at(&source, &mut at)? as usize;
        if width == 0 || width > FINE_BYTES_RAW {
            return Err(malformed("implausible fine record width"));
        }
        let crc_chunk_slots = if version >= SCENE_VERSION {
            fits(at, 4, "crc_chunk_slots header word")?;
            let ccs = u32_at(&source, &mut at)?;
            if ccs == 0 {
                return Err(malformed("zero crc_chunk_slots"));
            }
            Some(ccs)
        } else {
            None
        };
        let n_extra_tiers = if version >= SCENE_VERSION_V3 {
            fits(at, 4, "tier count header word")?;
            let n = u32_at(&source, &mut at)? as usize;
            if n > MAX_TIERS - 1 {
                return Err(malformed("tier count exceeds the ledger's tier capacity"));
            }
            n
        } else {
            0
        };

        fits(at, n_voxels as u64 * 8, "voxel range table")?;
        let mut ranges = Vec::with_capacity(n_voxels);
        let mut buf = vec![0u8; n_voxels * 8];
        source.read_at(at, &mut buf)?;
        at += buf.len() as u64;
        for c in buf.chunks_exact(8) {
            let (a, b) = (
                u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
            );
            if a > b || b as usize > n_slots {
                return Err(malformed("voxel slot range outside the slot column"));
            }
            ranges.push((a, b));
        }
        fits(at, n_slots as u64 * 4, "slot id column")?;
        let mut buf = vec![0u8; n_slots * 4];
        source.read_at(at, &mut buf)?;
        at += buf.len() as u64;
        let ids: Vec<u32> = buf
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();

        let format = if flags & FLAG_VQ != 0 {
            let codebooks = read_codebooks(&source, &mut at, src_len)?;
            if codebooks.record_bytes() as usize != width {
                return Err(malformed("codebook record width disagrees with header"));
            }
            FineFormat::Vq {
                codebooks,
                record_bytes: width,
            }
        } else {
            if width != FINE_BYTES_RAW {
                return Err(malformed("raw scene image with non-raw record width"));
            }
            fits(at, n_slots as u64, "max-axis tag column")?;
            let mut max_axis = vec![0u8; n_slots];
            source.read_at(at, &mut max_axis)?;
            at += n_slots as u64;
            FineFormat::Raw { max_axis }
        };

        // Parsed-but-unplaced tier metadata: the directory is read (and
        // validated) with the checksum tables; the column offsets are only
        // known once the whole metadata prefix has been walked.
        struct PendingTier {
            spec: TierSpec,
            codec: TierCodec,
            record_bytes: usize,
            ranges: Vec<(u32, u32)>,
            slots: Vec<u32>,
            crc: ColumnCrc,
        }
        let mut pending: Vec<PendingTier> = Vec::new();

        // Version ≥ 2: per-chunk CRC tables for both columns — and, for
        // version ≥ 3, the tier directory with its per-tier CRC tables —
        // then a metadata CRC over everything read so far.
        let crc_tables = if let Some(ccs) = crc_chunk_slots {
            let read_table = |at: &mut u64, n_chunks: usize| -> Result<Arc<[u32]>, StoreError> {
                let mut buf = vec![0u8; n_chunks * 4];
                source.read_at(*at, &mut buf)?;
                *at += buf.len() as u64;
                Ok(buf
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect())
            };
            let n_chunks = n_slots.div_ceil(ccs as usize);
            fits(at, n_chunks as u64 * 8, "checksum tables")?;
            let coarse_crc = read_table(&mut at, n_chunks)?;
            let fine_crc = read_table(&mut at, n_chunks)?;
            for _ in 0..n_extra_tiers {
                fits(at, 24, "tier directory entry")?;
                let kind = u32_at(&source, &mut at)?;
                let sh_degree = u32_at(&source, &mut at)?;
                let keep_permille = u32_at(&source, &mut at)?;
                let codebook_shift = u32_at(&source, &mut at)?;
                let record_bytes = u32_at(&source, &mut at)? as usize;
                let n_tier_slots = u32_at(&source, &mut at)? as usize;
                let vq_tier = match kind {
                    TIER_KIND_RAW if flags & FLAG_VQ == 0 => false,
                    TIER_KIND_VQ if flags & FLAG_VQ != 0 => true,
                    TIER_KIND_RAW | TIER_KIND_VQ => {
                        return Err(malformed("tier kind disagrees with the store format"));
                    }
                    _ => return Err(malformed("unknown tier kind")),
                };
                let spec = TierSpec {
                    sh_degree: u8::try_from(sh_degree)
                        .map_err(|_| malformed("tier SH degree out of range"))?,
                    keep_permille: u16::try_from(keep_permille)
                        .map_err(|_| malformed("tier keep_permille out of range"))?,
                    codebook_shift: u8::try_from(codebook_shift)
                        .map_err(|_| malformed("tier codebook shift out of range"))?,
                };
                if spec.sh_degree > MAX_SH_DEGREE || spec.validated() != spec {
                    return Err(malformed("tier spec outside its valid domain"));
                }
                if n_tier_slots > n_slots {
                    return Err(malformed("tier has more slots than the store"));
                }
                fits(at, n_voxels as u64 * 8, "tier range table")?;
                let mut buf = vec![0u8; n_voxels * 8];
                source.read_at(at, &mut buf)?;
                at += buf.len() as u64;
                let mut tranges = Vec::with_capacity(n_voxels);
                let mut expect = 0u32;
                for c in buf.chunks_exact(8) {
                    let (a, b) = (
                        u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                        u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                    );
                    if a != expect || a > b || b as usize > n_tier_slots {
                        return Err(malformed("tier slot ranges do not tile the tier column"));
                    }
                    expect = b;
                    tranges.push((a, b));
                }
                if expect as usize != n_tier_slots {
                    return Err(malformed("tier slot ranges do not tile the tier column"));
                }
                fits(at, n_tier_slots as u64 * 4, "tier slot table")?;
                let mut buf = vec![0u8; n_tier_slots * 4];
                source.read_at(at, &mut buf)?;
                at += buf.len() as u64;
                let tslots: Vec<u32> = buf
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect();
                // Each voxel's tier slots must be a strictly ascending
                // subsequence of its global slot range — the two-pointer
                // merge in the renderer depends on it.
                for (v, &(ta, tb)) in tranges.iter().enumerate() {
                    let (ga, gb) = ranges[v];
                    let mut prev: Option<u32> = None;
                    for &s in &tslots[ta as usize..tb as usize] {
                        if s < ga || s >= gb || prev.is_some_and(|p| s <= p) {
                            return Err(malformed(
                                "tier slots not ascending within their voxel's range",
                            ));
                        }
                        prev = Some(s);
                    }
                }
                let codec = if vq_tier {
                    TierCodec::Vq(read_codebooks(&source, &mut at, src_len)?)
                } else {
                    TierCodec::Raw
                };
                let expect_rb = match &codec {
                    TierCodec::Raw => raw_tier_bytes(spec.sh_degree),
                    TierCodec::Vq(cb) => vq_tier_bytes(cb, spec.sh_degree),
                };
                if record_bytes as u64 != expect_rb {
                    return Err(malformed("tier record width disagrees with its codec"));
                }
                let n_tchunks = n_tier_slots.div_ceil(ccs as usize);
                fits(at, n_tchunks as u64 * 4, "tier checksum table")?;
                let tier_crc = read_table(&mut at, n_tchunks)?;
                pending.push(PendingTier {
                    spec,
                    codec,
                    record_bytes,
                    ranges: tranges,
                    slots: tslots,
                    crc: ColumnCrc {
                        chunk_slots: ccs,
                        chunks: tier_crc,
                    },
                });
            }
            let meta_end = at;
            fits(at, 4, "metadata checksum")?;
            let meta_crc = u32_at(&source, &mut at)?;
            let mut prefix = vec![0u8; meta_end as usize];
            source.read_at(0, &mut prefix)?;
            if crc32(&prefix) != meta_crc {
                return Err(malformed("metadata checksum mismatch"));
            }
            Some((
                ColumnCrc {
                    chunk_slots: ccs,
                    chunks: coarse_crc,
                },
                ColumnCrc {
                    chunk_slots: ccs,
                    chunks: fine_crc,
                },
            ))
        } else {
            None
        };

        let coarse_off = at;
        let fine_off = coarse_off + (n_slots * COARSE_BYTES) as u64;
        fits(fine_off, n_slots as u64 * width as u64, "fine column")?;
        let config = PageConfig {
            verify_checksums: config.verify_checksums && crc_tables.is_some(),
            ..config
        }
        .validated();
        let (coarse_crc, fine_crc) = match crc_tables {
            Some((c, f)) => (Some(c), Some(f)),
            None => (None, None),
        };
        let source = Arc::new(source);
        let replica: ReplicaSlot = Arc::new(Mutex::new(None));
        let mut tier_off = fine_off + n_slots as u64 * width as u64;
        let mut tiers = Vec::with_capacity(pending.len());
        for (i, pt) in pending.into_iter().enumerate() {
            let n_tier_slots = pt.slots.len();
            let len = n_tier_slots as u64 * pt.record_bytes as u64;
            fits(tier_off, len, "tier column")?;
            tiers.push(TierColumn {
                spec: pt.spec,
                codec: pt.codec,
                record_bytes: pt.record_bytes,
                ranges: pt.ranges,
                slots: pt.slots,
                column: Column::Paged(Box::new(PagedColumn::new(
                    Arc::clone(&source),
                    tier_off,
                    pt.record_bytes,
                    n_tier_slots,
                    config,
                    // gs-lint: allow(D004) tier index < MAX_TIERS − 1 fits u8
                    ColumnKind::Tier(i as u8),
                    Some(pt.crc),
                    Arc::clone(&replica),
                ))),
            });
            tier_off += len;
        }
        // Strict framing: nothing may trail the last column (a torn or
        // padded image fails here, not later at render time).
        if tier_off != src_len {
            return Err(malformed("image length disagrees with the header"));
        }
        Ok(VoxelStore {
            ranges,
            ids,
            coarse: Column::Paged(Box::new(PagedColumn::new(
                Arc::clone(&source),
                coarse_off,
                COARSE_BYTES,
                n_slots,
                config,
                ColumnKind::Coarse,
                coarse_crc,
                Arc::clone(&replica),
            ))),
            fine: Column::Paged(Box::new(PagedColumn::new(
                source,
                fine_off,
                width,
                n_slots,
                config,
                ColumnKind::Fine,
                fine_crc,
                replica,
            ))),
            format,
            tiers,
            staging: StagingPool::default(),
        })
    }

    /// Whether `other` lays out the same slots as `self` — voxel slot
    /// ranges, Gaussian ids, record format and width, tier count — so it
    /// can back the same prepared grid.
    pub(crate) fn same_layout(&self, other: &VoxelStore) -> bool {
        self.ranges == other.ranges
            && self.ids == other.ids
            && self.is_vq() == other.is_vq()
            && self.fine_bytes_per_gaussian() == other.fine_bytes_per_gaussian()
            && self.tiers.len() == other.tiers.len()
    }

    /// Round-trips this store through its serialized scene image into a
    /// demand-paged twin (shares nothing with `self`).
    pub fn try_paged_twin(&self, config: PageConfig) -> Result<VoxelStore, StoreError> {
        VoxelStore::open_paged_bytes(self.try_to_scene_bytes()?, config)
    }

    /// [`VoxelStore::try_paged_twin`], panicking on error — the
    /// serialize/open round-trip cannot fail for resident stores.
    ///
    /// # Panics
    ///
    /// Panics when `self` is paged and a page read fails.
    pub fn paged_twin(&self, config: PageConfig) -> VoxelStore {
        match self.try_paged_twin(config) {
            Ok(store) => store,
            Err(e) => panic!("paged_twin: {e}"),
        }
    }

    /// A paged twin whose page reads draw deterministic injected faults.
    pub fn paged_twin_with_faults(
        &self,
        config: PageConfig,
        policy: FaultPolicy,
    ) -> Result<VoxelStore, StoreError> {
        VoxelStore::open_paged_bytes_with_faults(self.try_to_scene_bytes()?, config, policy)
    }
}

/// Wraps `source` with fault injection unless the policy injects nothing.
fn wrap_faulty(source: PageSource, policy: FaultPolicy) -> PageSource {
    if policy.is_noop() {
        return source;
    }
    PageSource::Faulty(FaultInjector {
        inner: Box::new(source),
        policy,
        stats: Mutex::new(FaultStats::default()),
    })
}

/// All on-disk header fields are `u32`; a scene whose counts exceed that
/// cannot be expressed in the image format and must fail serialization
/// instead of silently truncating.
fn header_u32(n: usize, what: &'static str) -> Result<u32, StoreError> {
    u32::try_from(n).map_err(|_| StoreError::Malformed { what })
}

/// Serializes the six feature codebooks (dim, entries, centroid f32s each).
fn write_codebooks(cb: &FeatureCodebooks, out: &mut Vec<u8>) {
    for book in [&cb.scale, &cb.rot, &cb.dc, &cb.sh[0], &cb.sh[1], &cb.sh[2]] {
        // gs-lint: allow(D004) codebook dim is ≤ 4 and entries ≤ 2^16 by VqConfig validation
        out.extend_from_slice(&(book.dim() as u32).to_le_bytes());
        // gs-lint: allow(D004) codebook dim is ≤ 4 and entries ≤ 2^16 by VqConfig validation
        out.extend_from_slice(&(book.len() as u32).to_le_bytes());
        for v in book.centroids() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Reads back [`write_codebooks`]' image, advancing `at`; every table size
/// is validated against `src_len` before it drives an allocation.
fn read_codebooks(
    source: &PageSource,
    at: &mut u64,
    src_len: u64,
) -> Result<FeatureCodebooks, StoreError> {
    let mut next = || -> Result<Codebook, StoreError> {
        if at.checked_add(8).is_none_or(|end| end > src_len) {
            return Err(StoreError::Truncated {
                what: "codebook header",
            });
        }
        let mut hdr = [0u8; 8];
        source.read_at(*at, &mut hdr)?;
        *at += 8;
        let dim = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
        let entries = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]) as usize;
        if dim == 0 || entries == 0 {
            return Err(StoreError::Malformed {
                what: "empty codebook (zero dim or entries)",
            });
        }
        let table = (dim as u64)
            .checked_mul(entries as u64)
            .and_then(|n| n.checked_mul(4))
            .ok_or(StoreError::Malformed {
                what: "codebook table size overflows",
            })?;
        if at.checked_add(table).is_none_or(|end| end > src_len) {
            return Err(StoreError::Truncated {
                what: "codebook table",
            });
        }
        let mut buf = vec![0u8; table as usize];
        source.read_at(*at, &mut buf)?;
        *at += buf.len() as u64;
        let centroids: Vec<f32> = buf
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Ok(Codebook::from_centroids(centroids, dim))
    };
    Ok(FeatureCodebooks {
        scale: next()?,
        rot: next()?,
        dc: next()?,
        sh: [next()?, next()?, next()?],
    })
}

/// The store's slot layout: per-voxel ranges plus the flattened id stream,
/// in the grid's renamed-voxel order (so slot ranges mirror the grid's
/// contiguous DRAM layout exactly).
fn layout_of(grid: &VoxelGrid) -> (Vec<(u32, u32)>, Vec<u32>) {
    let mut ranges = Vec::with_capacity(grid.voxel_count());
    let mut ids = Vec::new();
    let mut at = 0u32;
    // gs-lint: allow(D004) the grid names voxels and gaussians with u32 ids, so both counts fit
    for v in 0..grid.voxel_count() as u32 {
        let g = grid.gaussians_of(v);
        // gs-lint: allow(D004) per-voxel gaussian lists are slices of u32 ids
        ranges.push((at, at + g.len() as u32));
        ids.extend_from_slice(g);
        // gs-lint: allow(D004) per-voxel gaussian lists are slices of u32 ids
        at += g.len() as u32;
    }
    (ranges, ids)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests;
