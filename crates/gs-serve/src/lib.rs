//! # gs-serve — multi-client frame scheduling over shared scene shards
//!
//! The crates below this one render **one** camera stream; a production
//! deployment of the paper's pipeline serves **many** — the ROADMAP's
//! "millions of users" axis. This crate is that serving layer, kept
//! deliberately small and deterministic:
//!
//! * [`SceneShard`] / [`ShardRegistry`] — a prepared scene (resident or
//!   demand-paged, possibly tiered) opened **once** and shared by every
//!   session. Paged columns are `Arc`-shared through
//!   [`StreamingScene::fork_session`], so a page materialized by one
//!   client's frame is warm for every other client of the shard — the
//!   serving-side analogue of the working-set cache's temporal locality,
//!   reported by perfbench's `serve-4` workload as shared-page amortization.
//! * [`ClientSession`] — one client's frame-persistent state: a forked
//!   scene view (per-session working-set cache, [`QualityPolicy`] and
//!   hysteresis history, render scratch) plus reusable
//!   [`StreamingOutput`] slots, so a warm per-client frame allocates
//!   nothing.
//! * [`FrameScheduler`] — a deterministic batch scheduler. Clients submit
//!   `(session, camera)` requests in any interleaving;
//!   [`FrameScheduler::drain`] partitions the queue by session
//!   (preserving each session's submission order) and renders all
//!   sessions' batches concurrently on one shared [`WorkerPool`], one
//!   pool wakeup per drain instead of one per frame.
//!
//! ## The determinism contract, extended to serving
//!
//! Every frame a session renders through the scheduler is **bit-identical
//! to rendering the same camera sequence solo** — for any worker count
//! and any request interleaving. The argument has two halves:
//!
//! 1. Rendered bytes depend only on the store's bytes. The paged store is
//!    bit-exact regardless of page residency, eviction history or which
//!    thread materialized a page (`tests/paged_cache.rs`), so sharing one
//!    store between sessions cannot change any session's pixels.
//! 2. All *mutable* per-frame state (working-set cache model, hysteresis
//!    tier history, scratch buffers) lives in the session's private fork
//!    and advances only with that session's own frame sequence. The
//!    scheduler hands each session to exactly one pool job, so a
//!    session's frames render serially in submission order no matter how
//!    requests were interleaved across sessions.
//!
//! `tests/serving_determinism.rs` pins the contract on raw + VQ stores,
//! resident + paged backings, worker counts {1, 2, 0} and shuffled
//! interleavings. Error surfacing is deterministic too: when sessions
//! fail in the same drain, [`FrameScheduler::drain`] reports the failure
//! of the lowest-indexed failing session (and within a session, its
//! first failing frame in submission order).
//!
//! See `docs/SERVING.md` for the session model and shard lifecycle.

use gs_core::camera::Camera;
use gs_render::pool::{resolve_threads, WorkerPool};
use gs_voxel::{QualityPolicy, StoreError, StreamingOutput, StreamingScene};

/// Everything that can go wrong in the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// A queued request names a session index outside the slice handed to
    /// [`FrameScheduler::drain`]. Nothing was rendered.
    UnknownSession {
        /// The out-of-range session index.
        session: usize,
    },
    /// [`ShardRegistry::insert`] was given a shard whose name is already
    /// registered.
    DuplicateShard {
        /// The contested shard name.
        name: String,
    },
    /// A session's frame failed with a store fault that survived retry
    /// and degradation. The session's earlier frames of the drain are
    /// intact (see [`ClientSession::frames`]); later queued frames of the
    /// failing session were abandoned.
    Render {
        /// Index of the failing session (lowest-indexed failing session
        /// of the drain — deterministic for any interleaving).
        session: usize,
        /// Position of the failing frame in the session's submission
        /// order within the drained batch.
        frame: usize,
        /// The store fault.
        source: StoreError,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownSession { session } => {
                write!(f, "frame request names unknown session {session}")
            }
            ServeError::DuplicateShard { name } => {
                write!(f, "shard {name:?} is already registered")
            }
            ServeError::Render {
                session,
                frame,
                source,
            } => write!(f, "session {session} frame {frame} failed: {source}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Render { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One prepared scene, opened once and shared by every session — the
/// serving layer's shard unit (the ROADMAP's "serialized scene image as
/// the shard unit" realized at the scene level: prepare the scene, page
/// it out onto its serialized image, then register it).
///
/// Sessions opened from a shard share the shard's store by reference
/// ([`StreamingScene::fork_session`]): for paged backings this is the
/// whole point — the page set, its LRU clock and its fault/heal state are
/// store-wide, so one client's cold page fault warms the page for all.
#[derive(Debug)]
pub struct SceneShard {
    name: String,
    scene: StreamingScene,
    sessions_opened: u64,
}

impl SceneShard {
    /// Wraps a prepared scene as a shard. Page the scene out (e.g.
    /// [`StreamingScene::page_out`]) *before* wrapping when the shard
    /// should serve from a serialized image; sessions forked afterwards
    /// all read the same paged columns.
    pub fn new(name: impl Into<String>, scene: StreamingScene) -> SceneShard {
        SceneShard {
            name: name.into(),
            scene,
            sessions_opened: 0,
        }
    }

    /// The shard's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared scene (e.g. to reach [`StreamingScene::store`] for
    /// store-wide page-fault or fault/heal counters).
    pub fn scene(&self) -> &StreamingScene {
        &self.scene
    }

    /// Opens a new client session against this shard: a forked scene view
    /// sharing the shard's store, with private per-session cache state,
    /// quality policy and output buffers.
    ///
    /// The fork's worker count is pinned to 1: within a
    /// [`FrameScheduler`] drain each session is one pool job, so
    /// parallelism comes from serving sessions concurrently, not from
    /// splitting one session's frame. Rendering is thread-invariant
    /// (`tests/lod_tiers.rs`), so this changes no byte of any frame.
    pub fn open_session(&mut self) -> ClientSession {
        self.sessions_opened += 1;
        let mut scene = self.scene.fork_session();
        scene.set_threads(1);
        ClientSession {
            scene,
            outputs: Vec::new(),
            batch_len: 0,
            frames_rendered: 0,
            error: None,
        }
    }

    /// Sessions opened so far (diagnostics; nothing caps it).
    pub fn sessions_opened(&self) -> u64 {
        self.sessions_opened
    }

    /// Store-wide page faults of the shared backing (0 for resident
    /// shards). Divide by the frames served across all sessions to see
    /// the shared-page amortization perfbench's `serve-4` workload reports.
    pub fn page_faults(&self) -> u64 {
        self.scene.store().page_faults()
    }
}

/// The set of shards a server process exposes, keyed by name. Backed by a
/// plain vector — shard counts are small and registration is not a hot
/// path, and deterministic iteration order comes free.
#[derive(Debug, Default)]
pub struct ShardRegistry {
    shards: Vec<SceneShard>,
}

impl ShardRegistry {
    /// An empty registry.
    pub fn new() -> ShardRegistry {
        ShardRegistry::default()
    }

    /// Registers `shard`, returning its index.
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateShard`] when a shard of the same name is
    /// already registered (the shard is returned to the caller via the
    /// error's name; the registry is unchanged).
    pub fn insert(&mut self, shard: SceneShard) -> Result<usize, ServeError> {
        if self.shards.iter().any(|s| s.name == shard.name) {
            return Err(ServeError::DuplicateShard { name: shard.name });
        }
        self.shards.push(shard);
        Ok(self.shards.len() - 1)
    }

    /// The shard named `name`, if registered.
    pub fn get(&self, name: &str) -> Option<&SceneShard> {
        self.shards.iter().find(|s| s.name == name)
    }

    /// Mutable access to the shard named `name` (e.g. to open sessions).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut SceneShard> {
        self.shards.iter_mut().find(|s| s.name == name)
    }

    /// Opens a session against the shard named `name`; `None` when no
    /// such shard is registered.
    pub fn open_session(&mut self, name: &str) -> Option<ClientSession> {
        self.get_mut(name).map(SceneShard::open_session)
    }

    /// Number of registered shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` when no shard is registered.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

/// One client's frame-persistent serving state: a forked scene view
/// (shared store, private cache/quality/scratch) plus reusable output
/// slots. Open sessions via [`SceneShard::open_session`].
///
/// A session is identified to the [`FrameScheduler`] purely by its index
/// in the slice passed to [`FrameScheduler::drain`] — keep that order
/// stable across drains.
#[derive(Debug)]
pub struct ClientSession {
    scene: StreamingScene,
    /// One reusable slot per frame of the current drain's batch; grown on
    /// demand, never shrunk, so warm drains reuse every allocation.
    outputs: Vec<StreamingOutput>,
    /// Frames of `outputs` that hold valid results from the last drain.
    batch_len: usize,
    frames_rendered: u64,
    /// First failure of the last drain, taken by the scheduler.
    error: Option<(usize, StoreError)>,
}

impl ClientSession {
    /// The session's scene view (read-only; per-session state like the
    /// cache model advances only through scheduled frames).
    pub fn scene(&self) -> &StreamingScene {
        &self.scene
    }

    /// Re-points the session's per-frame tier selection policy, resetting
    /// its hysteresis history (a policy switch is a stream restart).
    pub fn set_quality(&mut self, quality: QualityPolicy) {
        self.scene.set_quality(quality);
    }

    /// The frames rendered by the last [`FrameScheduler::drain`], in this
    /// session's submission order. Borrowed views into the session's
    /// reusable slots — copy out anything that must outlive the next
    /// drain.
    pub fn frames(&self) -> &[StreamingOutput] {
        &self.outputs[..self.batch_len]
    }

    /// Total frames this session rendered successfully over its lifetime.
    pub fn frames_rendered(&self) -> u64 {
        self.frames_rendered
    }

    /// Renders `cams` serially in order into the reusable output slots,
    /// stopping at the first store fault. Called from exactly one
    /// scheduler job per drain.
    fn render_batch(&mut self, cams: &[Camera]) {
        self.error = None;
        self.batch_len = 0;
        if self.outputs.len() < cams.len() {
            self.outputs
                .resize_with(cams.len(), StreamingOutput::default);
        }
        for (frame, cam) in cams.iter().enumerate() {
            match self.scene.try_render_into(cam, &mut self.outputs[frame]) {
                Ok(()) => {
                    self.batch_len = frame + 1;
                    self.frames_rendered += 1;
                }
                Err(e) => {
                    self.error = Some((frame, e));
                    return;
                }
            }
        }
    }
}

/// Deterministic batch scheduler: submit `(session, camera)` requests in
/// any interleaving, then [`FrameScheduler::drain`] renders every queued
/// frame — sessions in parallel on one shared pool, each session's frames
/// serial in submission order. See the crate docs for why the result is
/// bit-identical to solo rendering.
#[derive(Debug)]
pub struct FrameScheduler {
    /// Requested worker count (0 = all cores), resolved lazily so the
    /// pool is only as wide as a drain can use.
    threads: usize,
    pool: Option<WorkerPool>,
    queue: Vec<(usize, Camera)>,
    /// Per-session camera batches of the current drain (index = session
    /// index); kept allocated across drains.
    plan: Vec<Vec<Camera>>,
}

impl FrameScheduler {
    /// A scheduler dispatching onto `threads` workers (0 = all cores).
    /// The pool is shared by every session the scheduler serves and spun
    /// up on first drain.
    pub fn new(threads: usize) -> FrameScheduler {
        FrameScheduler {
            threads,
            pool: None,
            queue: Vec::new(),
            plan: Vec::new(),
        }
    }

    /// Queues one frame request: render `cam` for the session at index
    /// `session` of the slice later passed to [`FrameScheduler::drain`].
    /// Requests of one session keep their submission order; requests of
    /// different sessions may be interleaved arbitrarily.
    pub fn submit(&mut self, session: usize, cam: &Camera) {
        self.queue.push((session, *cam));
    }

    /// Queued requests not yet drained.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Drops every queued request without rendering (e.g. to recover from
    /// [`ServeError::UnknownSession`], which leaves the queue intact).
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Renders every queued request and empties the queue. Sessions
    /// render concurrently (one pool job each, returning at once without
    /// requests; one pool wakeup total); each session's frames render
    /// serially in submission order
    /// into its reusable slots — read them back via
    /// [`ClientSession::frames`]. Returns the number of frames drained.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] when a request's session index is
    /// out of range (checked up front; the queue is left intact).
    /// [`ServeError::Render`] when a session's frame fails with a store
    /// fault: the failing session abandons its remaining frames, other
    /// sessions complete, and the lowest-indexed failing session's first
    /// failure is reported — deterministically, for any interleaving.
    pub fn drain(&mut self, sessions: &mut [ClientSession]) -> Result<usize, ServeError> {
        if let Some(&(session, _)) = self.queue.iter().find(|&&(s, _)| s >= sessions.len()) {
            return Err(ServeError::UnknownSession { session });
        }
        let drained = self.queue.len();
        if drained == 0 {
            return Ok(0);
        }
        // A drain rewrites every session's batch view: sessions with no
        // requests this drain report zero frames, not stale ones.
        for slot in sessions.iter_mut() {
            slot.batch_len = 0;
            slot.error = None;
        }
        if self.plan.len() < sessions.len() {
            self.plan.resize_with(sessions.len(), Vec::new);
        }
        for (session, cam) in self.queue.drain(..) {
            self.plan[session].push(cam);
        }
        let active = self.plan.iter().filter(|p| !p.is_empty()).count();

        let threads = resolve_threads(self.threads);
        // One job per session (sessions without requests return at once),
        // each owning its `&mut ClientSession`; the pool is only as wide
        // as the active sessions can use.
        let plan = &self.plan;
        WorkerPool::ensure(&mut self.pool, threads.min(active)).run_chunks_mut(
            sessions,
            1,
            |session, slot| {
                if !plan[session].is_empty() {
                    slot[0].render_batch(&plan[session]);
                }
            },
        );
        for batch in &mut self.plan {
            batch.clear();
        }
        for (session, slot) in sessions.iter_mut().enumerate() {
            if let Some((frame, source)) = slot.error.take() {
                return Err(ServeError::Render {
                    session,
                    frame,
                    source,
                });
            }
        }
        Ok(drained)
    }
}
