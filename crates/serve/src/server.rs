//! The query server: a micro-batching admission queue in front of the
//! batched inference engine, serving an **atomically hot-swappable** model
//! snapshot.
//!
//! Concurrent callers submit single backbone-feature rows (or small batches)
//! through [`QueryServer::query`] / [`QueryServer::query_batch`]. A
//! dedicated dispatcher thread coalesces whatever is queued — up to
//! [`ServerConfig::max_batch`] requests, waiting at most
//! [`ServerConfig::max_wait_us`] after the first arrival — embeds the batch
//! through the model's image encoder, sign-binarizes the embeddings, and
//! scores them against a sharded packed class memory
//! ([`engine::ShardedClassMemory`]). Each caller receives its own top-k
//! labels.
//!
//! # Snapshots and hot swap
//!
//! All serving state lives in an immutable [`ModelSnapshot`] behind an
//! `Arc`: a [`FrozenModel`] (shared weights, `&self` inference — parameters
//! never mutate while serving) plus the sharded class memory. The
//! dispatcher picks up the current snapshot once per coalesced batch, so
//! every batch is scored against exactly one snapshot and a swap never
//! tears a batch.
//!
//! **Zero model copies on the query path.** Since the model's entire
//! inference surface takes `&self`, neither the dispatcher, nor
//! [`ModelSnapshot::solo_topk`], nor the class-registration control plane
//! ever deep-copies a `ZscModel`; everything embeds through the one shared
//! [`FrozenModel`] allocation. (Earlier revisions cloned the full model per
//! dispatcher hand-off, per `solo_topk` call, and once more into the control
//! plane — the `zero_copy` stress test pins, via `FrozenModel::ptr_eq` /
//! `strong_count` probes, that those copies are gone for good.)
//!
//! # One mutation state machine
//!
//! Mutations — [`QueryServer::register_class`],
//! [`QueryServer::update_class`], [`QueryServer::remove_class`],
//! [`QueryServer::swap_model`], [`QueryServer::set_threshold`] /
//! [`QueryServer::clear_threshold`], and the streaming
//! [`QueryServer::observe`] / [`QueryServer::flush`] — all take one path
//! under the control mutex: validate the request's rows (width, finite
//! values), build one WAL-shaped mutation, `check` it against the serving
//! state, append it to the write-ahead log (durable servers only), `apply`
//! it, and publish the resulting snapshot with one `Arc` store.
//! [`QueryServer::recover`] folds the very same `check` and `apply` over
//! the logged suffix of the compaction base, so every state transition has
//! exactly one implementation and recovery rebuilds exactly what clients
//! were acknowledged.
//!
//! The sharded memory's copy-on-write shards make the incremental paths
//! cheap: registering a class clones `Arc` handles for every shard except
//! the one the class routes to, which alone is repacked — and a request
//! that fails validation (wrong width, non-finite value, unknown label)
//! returns its typed error before any shard is cloned or repacked.
//! In-flight queries keep scoring against the old snapshot until the
//! dispatcher's next pickup; nothing drains, nothing blocks on the queue.
//!
//! # Exactness
//!
//! Results are **bit-identical** to scoring the same query alone against the
//! snapshot that served it: per-query scores are independent rows of the
//! engine's batched popcount sweep and the sharded top-k merge is
//! bit-identical to the monolithic scorer (the engine's exactness
//! contract), so micro-batching and sharding trade latency for throughput
//! without changing a single output bit. [`QueryServer::query_traced`]
//! returns the serving snapshot's version alongside the labels so callers
//! (and the hot-swap stress test) can verify exactly that.

use crate::wal::{self, SyncPolicy, WalError, WalOp, WriteAheadLog};
use dataset::AttributeSchema;
use engine::{PackedQueryBatch, RoutedClassMemory, RoutedConfig, ShardedClassMemory};
use hdc::{BipolarHypervector, ClassAccumulator};
use hdc_zsc::{Checkpoint, CheckpointDelta, FrozenModel, StreamCheckpoint};
use metrics::{DriftReport, StreamDriftConfig, StreamDriftDetector};
use std::borrow::Cow;
use std::collections::{BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tensor::Matrix;

/// Admission-queue and scoring configuration of a [`QueryServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Largest batch the dispatcher hands to the engine at once.
    pub max_batch: usize,
    /// How long (µs) the dispatcher waits after the first queued request for
    /// more requests to coalesce before dispatching a partial batch.
    pub max_wait_us: u64,
    /// Thread count of the engine pool the batch is scored across.
    pub threads: usize,
    /// How many labels each query gets back, most similar first. When this
    /// exceeds the number of currently-registered classes, each query gets
    /// every class — `min(top_k, classes)` labels (the engine's truncation
    /// contract), never an error.
    pub top_k: usize,
    /// Number of shards the class memory is split across. Lookup results are
    /// bit-identical for every shard count; more shards make serve-time
    /// class registration cheaper (only the touched shard is repacked) at a
    /// small merge cost per query.
    pub shards: usize,
    /// `Some` runs the server in **routed** mode: alongside the sharded
    /// memory, every snapshot carries a coarse-to-fine
    /// [`engine::RoutedClassMemory`] under this configuration and queries
    /// are scored through it. With the config's default full probing
    /// results stay bit-identical to the exhaustive path; a partial
    /// `nprobe` shortlists a few clusters per query — the sub-linear mode
    /// for very large class sets. `None` (the default) serves exhaustively.
    pub routed: Option<RoutedConfig>,
    /// How many streamed observations ([`QueryServer::observe`]) are folded
    /// into the per-class counters before the touched prototypes are
    /// re-signed and published as one snapshot. `1` (the default) publishes
    /// after every observe; larger values batch the snapshot churn while the
    /// counters — and the write-ahead log — still advance per observe, so
    /// nothing acknowledged is ever lost. [`QueryServer::flush`] publishes a
    /// partial batch on demand. Must be at least 1.
    pub publish_every: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_wait_us: 200,
            threads: engine::Pool::auto().threads(),
            top_k: 5,
            shards: 4,
            routed: None,
            publish_every: 1,
        }
    }
}

/// One scored label: `(class label, similarity in [-1, 1])`.
pub type ScoredLabel = (String, f32);

/// The open-set verdict a calibrated snapshot attaches to a served query.
///
/// Only produced when the serving snapshot carries a rejection threshold
/// ([`QueryServer::set_threshold`], or a checkpoint whose
/// [`SimilarityCalibration`](hdc_zsc::SimilarityCalibration) seeded one):
/// the verdict is [`Verdict::Unknown`] exactly when the query's best
/// similarity falls **strictly below** the threshold — the same strict-less
/// rule [`hdc_zsc::SimilarityCalibrator`] fits its target false-reject rate
/// against, so ties with the threshold stay `Known`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The best similarity cleared the threshold; the top-1 label is an
    /// in-distribution answer.
    Known,
    /// The best similarity fell strictly below the threshold; the query
    /// likely belongs to no registered class.
    Unknown,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Known => write!(f, "known"),
            Verdict::Unknown => write!(f, "unknown"),
        }
    }
}

/// Why a query could not be served.
///
/// Marked `#[non_exhaustive]`: the serving surface may grow new failure
/// modes, so downstream matches must keep a wildcard arm.
#[derive(Debug)]
#[must_use = "a serve error says why the request was rejected and should be handled"]
#[non_exhaustive]
pub enum ServeError {
    /// The server was (or is being) shut down before the query completed.
    Stopped,
    /// A submitted feature row has the wrong width.
    FeatureWidth {
        /// Width the model's backbone expects.
        expected: usize,
        /// Width the caller submitted.
        found: usize,
    },
    /// A submitted class-attribute row has the wrong width.
    AttributeWidth {
        /// Width the model's attribute encoder expects.
        expected: usize,
        /// Width the caller submitted.
        found: usize,
    },
    /// A submitted feature or class-attribute row carries a NaN or an
    /// infinity (over the wire, a JSON `null` element decodes to NaN).
    NonFinite {
        /// Which kind of row: `"feature"` or `"class-attribute"`.
        what: &'static str,
    },
    /// A class label was not found (e.g. removing an unregistered class).
    UnknownClass(String),
    /// A class label is already registered. Registration never silently
    /// overwrites; use [`QueryServer::update_class`] to re-point an existing
    /// class (this also keeps WAL replay idempotence well-defined — every
    /// logged register is a genuine insert).
    DuplicateLabel(String),
    /// The server is draining: [`QueryServer::stop`] was called, queries
    /// already admitted are being scored, and no new ones are accepted.
    Draining,
    /// The network front-end's bounded admission queue was full, so the
    /// request was load-shed instead of being queued behind the dispatcher.
    /// Rejection is immediate and cheap — the caller should back off and
    /// retry; admitted requests are unaffected (see [`crate::net`]).
    Overloaded {
        /// Capacity of the admission queue that was full.
        capacity: usize,
    },
    /// A network connection used up its per-connection request quota and is
    /// being closed (see [`crate::net::NetConfig::connection_quota`]).
    QuotaExhausted {
        /// The quota the connection was admitted under.
        limit: u64,
    },
    /// The server could not be constructed from the given parts, or a
    /// mutation would leave it unservable (e.g. removing the last class).
    InvalidConfig(String),
    /// A checkpoint could not be loaded or validated.
    Checkpoint(hdc_zsc::CheckpointError),
    /// The write-ahead log could not be written, read, or replayed.
    Wal(WalError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Stopped => write!(f, "query server is stopped"),
            ServeError::FeatureWidth { expected, found } => write!(
                f,
                "feature row has width {found}, the model expects {expected}"
            ),
            ServeError::AttributeWidth { expected, found } => write!(
                f,
                "class-attribute row has width {found}, the model expects {expected}"
            ),
            ServeError::NonFinite { what } => {
                write!(f, "{what} row carries a non-finite value (NaN or infinity)")
            }
            ServeError::UnknownClass(label) => write!(f, "no class registered as `{label}`"),
            ServeError::DuplicateLabel(label) => write!(
                f,
                "class `{label}` is already registered (use update_class to overwrite)"
            ),
            ServeError::Draining => write!(f, "query server is draining and rejects new queries"),
            ServeError::Overloaded { capacity } => write!(
                f,
                "admission queue full ({capacity} in flight); request load-shed, back off and retry"
            ),
            ServeError::QuotaExhausted { limit } => {
                write!(f, "connection exhausted its request quota of {limit}")
            }
            ServeError::InvalidConfig(msg) => write!(f, "invalid server configuration: {msg}"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint rejected: {e}"),
            ServeError::Wal(e) => write!(f, "write-ahead log failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Checkpoint(e) => Some(e),
            ServeError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hdc_zsc::CheckpointError> for ServeError {
    fn from(e: hdc_zsc::CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        ServeError::Wal(e)
    }
}

/// How a durable server persists its mutation plane; see
/// [`QueryServer::start_durable`] and the [`crate::wal`] module docs.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the write-ahead log (`wal.log`) and the
    /// checkpoint-delta compaction base (`base.json`). Created if missing.
    pub dir: PathBuf,
    /// When appended records are fsynced; [`SyncPolicy::Always`] by
    /// default.
    pub sync: SyncPolicy,
    /// Fold the WAL into a fresh compaction base after this many records
    /// (`0` disables automatic compaction; [`QueryServer::compact`] is
    /// always available). Defaults to 64.
    pub compact_every: u64,
}

impl DurabilityConfig {
    /// Per-record fsync, compaction every 64 records, logs under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            sync: SyncPolicy::Always,
            compact_every: 64,
        }
    }
}

/// What [`QueryServer::recover`] rebuilt from disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a recovery report says how much state was rebuilt and should be checked"]
pub struct RecoveryReport {
    /// The snapshot version the recovered server resumes at — the
    /// compaction base's version plus one per replayed *publication*
    /// (classic mutation records each published one snapshot; streamed
    /// observe records publish on the `publish_every` cadence, with flush
    /// records marking the explicit boundaries), i.e. exactly the version
    /// the pre-crash server last acknowledged.
    pub snapshot_version: u64,
    /// WAL records replayed on top of the compaction base.
    pub replayed_records: u64,
    /// Whether a torn final record was detected (and cleanly ignored): the
    /// signature of a crash mid-append.
    pub torn_tail: bool,
}

/// The durable half of the control plane: the open WAL plus everything
/// compaction needs. Lives inside the control mutex, so WAL appends are
/// ordered exactly like the mutations they log.
#[derive(Debug)]
struct DurableState {
    wal: WriteAheadLog,
    dir: PathBuf,
    /// The serving schema, pinned at startup; compaction captures model
    /// checkpoints against it, and swapped-in models must keep matching it.
    schema: AttributeSchema,
    compact_every: u64,
    since_compact: u64,
}

impl DurableState {
    fn new(
        wal: WriteAheadLog,
        durability: DurabilityConfig,
        schema: &AttributeSchema,
        since_compact: u64,
    ) -> Self {
        Self {
            wal,
            dir: durability.dir,
            schema: schema.clone(),
            compact_every: durability.compact_every,
            since_compact,
        }
    }

    /// Counts one logged record towards the compaction policy and folds
    /// the log when it is due.
    fn maybe_compact(&mut self, state: &ServeState) -> Result<(), ServeError> {
        self.since_compact += 1;
        if self.compact_every == 0 || self.since_compact < self.compact_every {
            return Ok(());
        }
        self.compact(state)
    }

    /// Writes `state` as the new checkpoint-delta base, then rotates the
    /// log — in that order, so a crash between the two leaves a base whose
    /// `next_record_seq` simply skips the old log's already-folded records.
    fn compact(&mut self, state: &ServeState) -> Result<(), ServeError> {
        state
            .delta(&self.schema, self.wal.next_seq())
            .save_json(wal::base_path(&self.dir))?;
        self.wal.rotate()?;
        self.since_compact = 0;
        Ok(())
    }
}

/// The continual-learning half of the serving state: exact per-class
/// bundling counters, the publication batching position, and the drift
/// detector fed one displacement per published class version.
#[derive(Debug)]
struct StreamControl {
    /// Copy of [`ServerConfig::publish_every`] — the automatic publication
    /// cadence.
    publish_every: u32,
    /// Exact i32 counters per streamed class; prototypes are re-signed from
    /// these at every publication boundary, so folding is order-independent
    /// and bit-reproducible from the counters alone.
    accumulators: ClassAccumulator,
    /// Classes observed since their last publication — what the next
    /// boundary re-signs. Sorted, so publication order is deterministic.
    pending: BTreeSet<String>,
    /// Observes folded since the last publication boundary.
    since_publish: u64,
    /// Observes accepted since start-up or the compaction base.
    observes: u64,
    /// EWMA + Page–Hinkley change-point detection over per-class prototype
    /// displacement between published versions.
    drift: StreamDriftDetector,
}

impl StreamControl {
    fn fresh(dim: usize, publish_every: u32) -> Self {
        Self::resume(None, dim, publish_every)
    }

    /// Resumes the stream state a compaction base persisted — counters,
    /// batching position, and drift detector — or starts fresh.
    fn resume(saved: Option<StreamCheckpoint>, dim: usize, publish_every: u32) -> Self {
        let saved = saved.unwrap_or_else(|| StreamCheckpoint {
            accumulators: ClassAccumulator::new(dim),
            pending: Vec::new(),
            since_publish: 0,
            drift: StreamDriftDetector::new(StreamDriftConfig::default()),
        });
        Self {
            publish_every,
            accumulators: saved.accumulators,
            pending: saved.pending.into_iter().collect(),
            since_publish: saved.since_publish,
            observes: 0,
            drift: saved.drift,
        }
    }

    /// The delta-persistable projection of this state (`None` when nothing
    /// has been streamed, keeping pre-streaming bases byte-stable).
    fn checkpoint(&self) -> Option<StreamCheckpoint> {
        if self.accumulators.is_empty() && self.since_publish == 0 && self.drift.publishes() == 0 {
            return None;
        }
        Some(StreamCheckpoint {
            accumulators: self.accumulators.clone(),
            pending: self.pending.iter().cloned().collect(),
            since_publish: self.since_publish,
            drift: self.drift.clone(),
        })
    }
}

/// Streaming continual-learning counters of a [`QueryServer`]; see
/// [`QueryServer::stream_stats`].
///
/// `pending_classes`, `since_publish`, `publishes` and `drift_alarms` are
/// part of the persisted stream state: they survive compaction and
/// recovery exactly. `observes` restarts at the compaction base.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct StreamStats {
    /// Observations accepted since the server started — on a recovered
    /// server, since its compaction base (replayed plus live).
    pub observes: u64,
    /// Classes with counter changes not yet re-signed into a published
    /// snapshot.
    pub pending_classes: u64,
    /// Observations folded since the last publication boundary.
    pub since_publish: u64,
    /// Class-version publications the drift detector has scored since the
    /// last model swap.
    pub publishes: u64,
    /// Page–Hinkley drift alarms raised since the last model swap.
    pub drift_alarms: u64,
}

/// Durability counters of a durable [`QueryServer`]; see
/// [`QueryServer::durability_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct DurabilityStats {
    /// Size of the live write-ahead log file in bytes (header included).
    pub wal_bytes: u64,
    /// WAL records appended since the last compaction folded the log into
    /// a fresh base.
    pub records_since_compaction: u64,
    /// The sequence number the next appended record will carry.
    pub next_record_seq: u64,
}

/// Counters describing the batching and hot-swap behaviour observed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct ServerStats {
    /// Queries answered.
    pub queries: u64,
    /// Engine dispatches (each serving one coalesced batch).
    pub batches: u64,
    /// Largest coalesced batch observed.
    pub max_batch_observed: usize,
    /// Snapshot swaps published (class registrations/updates/removals and
    /// full model swaps).
    pub swaps: u64,
}

impl ServerStats {
    /// Mean coalesced batch size (0 when nothing was dispatched).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.queries as f64 / self.batches as f64
        }
    }
}

/// One immutable serving state: the frozen model plus the sharded class
/// memory derived from it, tagged with a monotonically increasing version.
///
/// Snapshots are cheap to derive from one another — the model is shared
/// through the [`FrozenModel`]'s `Arc` and the memory's shards are
/// copy-on-write — and are never mutated after publication, so a reader
/// holding an `Arc<ModelSnapshot>` can score against it indefinitely, swap
/// or no swap.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    version: u64,
    model: FrozenModel,
    memory: ShardedClassMemory,
    /// The coarse-to-fine index of a routed-mode server; evolves
    /// incrementally with class mutations (only the touched cluster
    /// repacks) and is rebuilt from scratch — deterministically — on model
    /// swaps.
    routed: Option<RoutedClassMemory>,
    /// The calibrated open-set rejection threshold, when one is set; see
    /// [`Verdict`]. Carried by the snapshot so a threshold change is one
    /// more atomic hot swap: every query is judged by exactly the snapshot
    /// that scored it.
    threshold: Option<f32>,
}

impl ModelSnapshot {
    /// The snapshot's version: 0 for the server's initial state, +1 per
    /// published swap.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The sharded class memory queries are scored against (directly, or —
    /// in routed mode — as the ground truth the routed index shortlists
    /// over).
    pub fn memory(&self) -> &ShardedClassMemory {
        &self.memory
    }

    /// The routed coarse-to-fine index, for snapshots published by a server
    /// running in routed mode ([`ServerConfig::routed`]).
    pub fn routed(&self) -> Option<&RoutedClassMemory> {
        self.routed.as_ref()
    }

    /// The frozen model embedding the queries. Cloning the returned handle
    /// clones an `Arc`, never the weights.
    pub fn model(&self) -> &FrozenModel {
        &self.model
    }

    /// The open-set rejection threshold this snapshot judges queries by,
    /// when one is set ([`QueryServer::set_threshold`]).
    pub fn threshold(&self) -> Option<f32> {
        self.threshold
    }

    /// The verdict this snapshot assigns to a served top-k: `None` when no
    /// threshold is set, otherwise [`Verdict::Unknown`] iff the best
    /// similarity is **strictly below** the threshold (an empty top-k —
    /// `k = 0` — is `Unknown` under a threshold, since nothing cleared it).
    ///
    /// Deterministic in the similarity *bits*, so recomputing over
    /// [`ModelSnapshot::solo_topk`] reproduces the served verdict exactly.
    pub fn verdict(&self, top: &[ScoredLabel]) -> Option<Verdict> {
        self.threshold.map(|threshold| match top.first() {
            Some(&(_, sim)) if sim >= threshold => Verdict::Known,
            _ => Verdict::Unknown,
        })
    }

    /// Scores one feature row against this snapshot exactly as the server
    /// does, but solo — no admission queue, no batching. The serving
    /// contract is that a query answered under version `v` is bit-identical
    /// to `solo_topk` on the version-`v` snapshot.
    ///
    /// Embeds through the shared [`FrozenModel`] (`&self` inference), so
    /// this copies nothing and is itself as cheap as one dispatcher row.
    pub fn solo_topk(&self, features: &[f32], k: usize) -> Vec<ScoredLabel> {
        let embedding = self
            .model
            .embed_images(&Matrix::from_rows(&[features.to_vec()]));
        let packed = engine::pack_float_signs(embedding.row(0));
        let top = match &self.routed {
            Some(routed) => routed.top_k(&packed, k),
            None => self.memory.top_k(&packed, k),
        };
        top.into_iter()
            .map(|(label, sim)| (label.to_string(), sim))
            .collect()
    }
}

/// One served query result: the snapshot version that scored it, the top-k
/// labels, and the snapshot's open-set verdict (`None` when no threshold
/// was set).
pub type ServedResult = (u64, Vec<ScoredLabel>, Option<Verdict>);

/// One queued query: the feature row plus the channel its result goes back
/// on.
#[derive(Debug)]
struct Request {
    features: Vec<f32>,
    responder: mpsc::Sender<ServedResult>,
}

/// State shared between callers and the dispatcher thread.
#[derive(Debug)]
struct Shared {
    queue: Mutex<QueueState>,
    arrivals: Condvar,
    stats: Mutex<ServerStats>,
    /// The current serving snapshot; the dispatcher clones the `Arc` once
    /// per coalesced batch, mutators store a new one.
    snapshot: Mutex<Arc<ModelSnapshot>>,
    feature_dim: usize,
}

#[derive(Debug)]
struct QueueState {
    pending: VecDeque<Request>,
    shutdown: bool,
}

/// One mutation-plane transition, as [`ServeState::check`] and
/// [`ServeState::apply`] consume it. Every WAL record applies as decoded
/// except a model swap: its record carries the model as checkpoint JSON,
/// while in memory a swap holds the [`FrozenModel`] itself — only a durable
/// server's log serializes it ([`Mutation::record`]).
#[derive(Debug)]
enum Mutation {
    /// Any transition other than a swap, in its WAL record form.
    Logged(WalOp),
    /// The whole model and class set are replaced.
    Swap {
        model: FrozenModel,
        memory: ShardedClassMemory,
    },
}

impl Mutation {
    /// Decodes a replayed record; a swap's model loads through the
    /// fully-validating checkpoint path against the serving schema.
    fn decode(op: WalOp, schema: &AttributeSchema) -> Result<Self, ServeError> {
        match op {
            WalOp::Swap {
                checkpoint_json,
                memory,
            } => Ok(Mutation::Swap {
                model: Checkpoint::from_json_str(&checkpoint_json)?.into_frozen(schema)?,
                memory,
            }),
            op => Ok(Mutation::Logged(op)),
        }
    }

    /// The WAL record logging this mutation; a swap captures its model as
    /// a checkpoint of the pinned `schema`.
    fn record(&self, schema: &AttributeSchema) -> Cow<'_, WalOp> {
        match self {
            Mutation::Logged(op) => Cow::Borrowed(op),
            Mutation::Swap { model, memory } => Cow::Owned(WalOp::Swap {
                checkpoint_json: Checkpoint::capture(model, schema).to_json(),
                memory: memory.clone(),
            }),
        }
    }
}

/// The serving state machine: the last published snapshot plus the stream
/// state behind it. Live mutations and WAL recovery drive the same two
/// functions — [`ServeState::check`], then [`ServeState::apply`] — so what
/// a client was acknowledged is exactly what recovery rebuilds.
///
/// `snapshot` is the very `Arc` the dispatcher serves, so the state keeps
/// no second model handle and no second class memory: `apply` copies the
/// snapshot on write, and within it only the touched shard or cluster.
#[derive(Debug)]
struct ServeState {
    snapshot: Arc<ModelSnapshot>,
    stream: StreamControl,
}

impl ServeState {
    /// A new server's version-0 state: the class set encoded into a
    /// sharded memory, plus a routed index in routed mode.
    fn initial(
        model: FrozenModel,
        labels: Vec<String>,
        class_attributes: &Matrix,
        config: &ServerConfig,
        threshold: Option<f32>,
    ) -> Result<Self, ServeError> {
        validate_config(config)?;
        validate_class_set(&model, &labels, class_attributes)?;
        let memory = model
            .sharded_class_memory(labels, class_attributes, config.shards)
            .with_threads(config.threads);
        let routed = config
            .routed
            .map(|rc| routed_from_sharded(&memory, rc, config.threads));
        Ok(Self {
            stream: StreamControl::fresh(memory.dim(), config.publish_every),
            snapshot: Arc::new(ModelSnapshot {
                version: 0,
                model,
                memory,
                routed,
                threshold,
            }),
        })
    }

    /// The state a compaction base captured, resumed under `config`. The
    /// base's routed index is kept only when it was built under exactly
    /// `config.routed`: replaying the same records into the same structure
    /// then reproduces the pre-crash index bit-for-bit. Otherwise (config
    /// changed, routing newly requested, or a pre-routed base) recovery
    /// rebuilds it once after replay.
    fn from_base(
        delta: CheckpointDelta,
        schema: &AttributeSchema,
        config: &ServerConfig,
    ) -> Result<Self, ServeError> {
        let memory = delta.memory.with_threads(config.threads);
        let routed = match (config.routed, delta.routed) {
            (Some(rc), Some(saved)) if saved.config() == rc => {
                Some(saved.with_threads(config.threads))
            }
            _ => None,
        };
        Ok(Self {
            stream: StreamControl::resume(delta.stream, memory.dim(), config.publish_every),
            snapshot: Arc::new(ModelSnapshot {
                version: delta.snapshot_version,
                model: delta.base.into_frozen(schema)?,
                memory,
                routed,
                threshold: delta.threshold,
            }),
        })
    }

    /// This state as a compaction base whose log suffix starts at
    /// `next_record_seq`.
    fn delta(&self, schema: &AttributeSchema, next_record_seq: u64) -> CheckpointDelta {
        let snapshot = &self.snapshot;
        CheckpointDelta {
            snapshot_version: snapshot.version,
            next_record_seq,
            base: Checkpoint::capture(&snapshot.model, schema),
            memory: snapshot.memory.clone(),
            routed: snapshot.routed.clone(),
            threshold: snapshot.threshold,
            stream: self.stream.checkpoint(),
        }
    }

    /// Rejects a mutation that would break a serving invariant. Runs
    /// before anything is logged or applied: live callers get the typed
    /// error, replay reports it as corruption at the offending record.
    fn check(&self, op: &Mutation) -> Result<(), ServeError> {
        let memory = &self.snapshot.memory;
        match op {
            Mutation::Logged(WalOp::Register { label, .. }) if memory.contains(label) => {
                Err(ServeError::DuplicateLabel(label.clone()))
            }
            Mutation::Logged(
                WalOp::Update { label, .. }
                | WalOp::Remove { label }
                | WalOp::Observe { label, .. },
            ) if !memory.contains(label) => Err(ServeError::UnknownClass(label.clone())),
            Mutation::Logged(WalOp::Remove { .. }) if memory.len() == 1 => Err(
                ServeError::InvalidConfig("cannot remove the last registered class".to_string()),
            ),
            Mutation::Logged(
                WalOp::Register { words, .. }
                | WalOp::Update { words, .. }
                | WalOp::Observe { words, .. },
            ) if words.len() != memory.words_per_row() => Err(ServeError::InvalidConfig(format!(
                "row carries {} packed words, the memory packs {}",
                words.len(),
                memory.words_per_row()
            ))),
            Mutation::Logged(WalOp::SetThreshold { bits: Some(bits) })
                if !f32::from_bits(*bits).is_finite() =>
            {
                Err(ServeError::InvalidConfig(format!(
                    "rejection threshold must be finite, got {}",
                    f32::from_bits(*bits)
                )))
            }
            Mutation::Swap {
                model,
                memory: swapped,
            } => {
                let (found, expected) = (
                    model.image_encoder().feature_dim(),
                    self.snapshot.model.image_encoder().feature_dim(),
                );
                if found != expected {
                    return Err(ServeError::InvalidConfig(format!(
                        "swapped model expects feature width {found}, the server serves {expected}"
                    )));
                }
                if swapped.is_empty() || swapped.dim() != model.embedding_dim() {
                    return Err(ServeError::InvalidConfig(format!(
                        "swapped memory holds {} classes of {} bits, the model embeds {} bits",
                        swapped.len(),
                        swapped.dim(),
                        model.embedding_dim()
                    )));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Applies one checked mutation — the mutation plane's single
    /// transition table, shared by live mutations and WAL replay. Returns
    /// whether it published a new snapshot (version + 1): an observe inside
    /// a batch, or a flush with nothing pending, publishes nothing.
    fn apply(&mut self, op: Mutation) -> bool {
        match op {
            Mutation::Logged(WalOp::Register { label, words } | WalOp::Update { label, words }) => {
                // A re-pointed class's counters described the replaced
                // prototype; the next observe re-seeds from the new row.
                self.stream.accumulators.remove(&label);
                self.stream.pending.remove(&label);
                let next = next_version(&mut self.snapshot);
                if let Some(routed) = next.routed.as_mut() {
                    routed.add_class_packed(label.clone(), &words);
                }
                next.memory.add_class_packed(label, &words);
            }
            Mutation::Logged(WalOp::Remove { label }) => {
                // Every stream trace of the class goes with it.
                self.stream.accumulators.remove(&label);
                self.stream.pending.remove(&label);
                self.stream.drift.remove(&label);
                let next = next_version(&mut self.snapshot);
                if let Some(routed) = next.routed.as_mut() {
                    routed.remove_class(&label);
                }
                next.memory.remove_class(&label);
            }
            Mutation::Swap { model, memory } => {
                let threads = self.snapshot.memory.threads();
                let memory = memory.with_threads(threads);
                // The routed index is rebuilt through the same pure function
                // as at start-up, so live and replayed swaps agree exactly.
                let routed = self
                    .snapshot
                    .routed
                    .as_ref()
                    .map(|r| routed_from_sharded(&memory, r.config(), threads));
                // Stream counters, pending publications and drift history
                // all described the replaced class set. The threshold is
                // serve-time control state, not a property of the model, so
                // it survives.
                self.stream = StreamControl::fresh(memory.dim(), self.stream.publish_every);
                self.snapshot = Arc::new(ModelSnapshot {
                    version: self.snapshot.version + 1,
                    model,
                    memory,
                    routed,
                    threshold: self.snapshot.threshold,
                });
            }
            Mutation::Logged(WalOp::SetThreshold { bits }) => {
                next_version(&mut self.snapshot).threshold = bits.map(f32::from_bits);
            }
            Mutation::Logged(WalOp::Observe { label, words }) => {
                let memory = &self.snapshot.memory;
                let current = memory
                    .class_words(&label)
                    .expect("checked: class registered");
                fold_observation(
                    &mut self.stream.accumulators,
                    &label,
                    &words,
                    current,
                    memory.dim(),
                );
                self.stream.pending.insert(label);
                self.stream.since_publish += 1;
                self.stream.observes += 1;
                if self.stream.since_publish < u64::from(self.stream.publish_every) {
                    return false;
                }
                self.publish_pending();
            }
            Mutation::Logged(WalOp::Flush) => {
                if self.stream.pending.is_empty() {
                    return false;
                }
                self.publish_pending();
            }
            Mutation::Logged(WalOp::Swap { .. }) => {
                unreachable!("swap records decode into Mutation::Swap")
            }
        }
        true
    }

    /// One publication boundary: re-signs every pending class from its
    /// exact counters, scores each prototype's displacement through the
    /// drift detector, and writes the rows into the next snapshot. A
    /// Page–Hinkley alarm on any class re-clusters the routed index once —
    /// the serving response to detected concept drift.
    fn publish_pending(&mut self) {
        let stream = &mut self.stream;
        let next = next_version(&mut self.snapshot);
        let dim = next.memory.dim();
        let mut alarmed = false;
        for (label, words) in resign_pending(&stream.accumulators, &stream.pending) {
            let displacement = next
                .memory
                .class_words(&label)
                .map_or(1.0, |old| normalized_displacement(old, &words, dim));
            alarmed |= stream.drift.record(&label, displacement);
            if let Some(routed) = next.routed.as_mut() {
                routed.add_class_packed(label.clone(), &words);
            }
            next.memory.add_class_packed(label, &words);
        }
        if alarmed {
            if let Some(routed) = next.routed.as_mut() {
                routed.recluster();
            }
        }
        stream.pending.clear();
        stream.since_publish = 0;
    }
}

/// The snapshot after `current`, copied on write (a shallow copy: the model
/// is shared and memory shards are copy-on-write) with its version bumped.
fn next_version(current: &mut Arc<ModelSnapshot>) -> &mut ModelSnapshot {
    let next = Arc::make_mut(current);
    next.version += 1;
    next
}

/// The control plane guarded by one mutex, serializing mutations so
/// concurrent callers publish strictly ordered versions. It holds no model
/// of its own: class encoding runs through the *serving snapshot's* shared
/// [`FrozenModel`] (`&self` inference), so registering a class costs one
/// attribute-encoder forward and zero weight copies.
#[derive(Debug)]
struct ControlPlane {
    state: ServeState,
    /// `Some` for servers started with [`QueryServer::start_durable`] or
    /// [`QueryServer::recover`]: every mutation is WAL-appended (and
    /// fsynced per the policy) *before* it is applied and published.
    durable: Option<DurableState>,
}

/// A running query server; see the module docs.
///
/// Dropping the server (or calling [`QueryServer::stop`]) drains every
/// already-queued request — each gets its response — then stops the
/// dispatcher thread; submissions arriving after the stop are rejected with
/// [`ServeError::Draining`].
///
/// Started through [`QueryServer::start_durable`] (or rebuilt by
/// [`QueryServer::recover`]), the server additionally write-ahead-logs
/// every class mutation before publishing it, making the mutation plane
/// crash-safe; see the [`crate::wal`] module docs for the full contract.
///
/// # Example
///
/// ```
/// use dataset::AttributeSchema;
/// use hdc_zsc::{ModelConfig, ZscModel};
/// use serve::{QueryServer, ServerConfig};
/// use tensor::Matrix;
///
/// let schema = AttributeSchema::cub200();
/// let model = ZscModel::new(&ModelConfig::tiny(), &schema, 16);
/// let class_attributes = Matrix::ones(3, 312);
/// let labels = vec!["a".into(), "b".into(), "c".into()];
/// let server =
///     QueryServer::start(model, labels, &class_attributes, ServerConfig::default()).unwrap();
/// let top = server.query(&[0.25; 16]).unwrap();
/// assert!(!top.is_empty());
/// // A class registered mid-flight becomes servable without a restart.
/// server.register_class("d", &vec![1.0; 312]).unwrap();
/// assert!(server.snapshot().memory().contains("d"));
/// ```
#[derive(Debug)]
pub struct QueryServer {
    shared: Arc<Shared>,
    control: Mutex<ControlPlane>,
    /// Taken (and joined) by whichever of [`QueryServer::stop`] / `Drop`
    /// runs first; behind its own mutex so `stop` works through `&self`.
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl QueryServer {
    /// Starts a server around a trained model and the class set it serves:
    /// one label per row of `class_attributes`.
    ///
    /// Accepts anything convertible into a [`FrozenModel`]: a `ZscModel` by
    /// value (frozen here — the server takes ownership, no copy), an
    /// already-frozen handle, or a shared `Arc<ZscModel>`. The
    /// class-attribute matrix is encoded once into sign-binarized class
    /// signatures split across [`ServerConfig::shards`] shards; queries then
    /// run entirely through the popcount path against that one shared
    /// model allocation.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the labels, matrix and
    /// configuration do not line up, [`ServeError::AttributeWidth`] when
    /// the matrix does not fit the model's attribute encoder, and
    /// [`ServeError::NonFinite`] for a NaN or infinite attribute.
    pub fn start(
        model: impl Into<FrozenModel>,
        labels: Vec<String>,
        class_attributes: &Matrix,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        let state = ServeState::initial(model.into(), labels, class_attributes, &config, None)?;
        Ok(Self::spawn(state, config, None))
    }

    /// The one spawn point every constructor funnels through: serves the
    /// state's snapshot and starts the dispatcher thread.
    fn spawn(state: ServeState, config: ServerConfig, durable: Option<DurableState>) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                shutdown: false,
            }),
            arrivals: Condvar::new(),
            stats: Mutex::new(ServerStats::default()),
            snapshot: Mutex::new(Arc::clone(&state.snapshot)),
            feature_dim: state.snapshot.model.image_encoder().feature_dim(),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || dispatch_loop(&shared, config))
        };
        Self {
            shared,
            control: Mutex::new(ControlPlane { state, durable }),
            dispatcher: Mutex::new(Some(dispatcher)),
        }
    }

    /// Starts a **durable** server: like [`QueryServer::start`], but every
    /// accepted class mutation is appended (and fsynced per
    /// [`DurabilityConfig::sync`]) to a write-ahead log under
    /// [`DurabilityConfig::dir`] *before* its snapshot is published, and the
    /// initial state is saved there as a checkpoint-delta compaction base.
    /// After a crash, [`QueryServer::recover`] on the same directory rebuilds
    /// the exact pre-crash serving state — bit-identical class memory,
    /// same snapshot version.
    ///
    /// The attribute `schema` is pinned for the server's lifetime: compaction
    /// captures model checkpoints against it, and [`QueryServer::swap_model`]
    /// rejects models whose attribute space no longer matches it.
    ///
    /// # Errors
    ///
    /// Everything [`QueryServer::start`] reports, plus
    /// [`ServeError::InvalidConfig`] when the model's attribute encoder does
    /// not match `schema`, and [`ServeError::Wal`] /
    /// [`ServeError::Checkpoint`] when the WAL directory cannot be
    /// initialised.
    pub fn start_durable(
        model: impl Into<FrozenModel>,
        labels: Vec<String>,
        class_attributes: &Matrix,
        schema: &AttributeSchema,
        config: ServerConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, ServeError> {
        let model: FrozenModel = model.into();
        if model.attribute_encoder().num_attributes() != schema.num_attributes() {
            return Err(ServeError::InvalidConfig(format!(
                "model encodes {} attributes, the serving schema declares {}",
                model.attribute_encoder().num_attributes(),
                schema.num_attributes()
            )));
        }
        let state = ServeState::initial(model, labels, class_attributes, &config, None)?;
        std::fs::create_dir_all(&durability.dir).map_err(|e| ServeError::Wal(WalError::Io(e)))?;
        // Base first, then the (empty) log: a crash in between leaves a
        // directory `recover` rejects loudly (no log) rather than one that
        // silently replays nothing against a stale base.
        state
            .delta(schema, 0)
            .save_json(wal::base_path(&durability.dir))?;
        let log = WriteAheadLog::create(wal::wal_path(&durability.dir), durability.sync)?;
        let durable = DurableState::new(log, durability, schema, 0);
        Ok(Self::spawn(state, config, Some(durable)))
    }

    /// Rebuilds a durable server from its WAL directory after a crash (or a
    /// clean shutdown — recovery cannot tell and does not need to): loads
    /// the checkpoint-delta compaction base, replays the WAL suffix
    /// (records with `seq >=` the base's `next_record_seq`), truncates away
    /// a torn final record if one is found, and resumes serving — and
    /// logging — exactly where the pre-crash server left off.
    ///
    /// Replay is the live state machine folded over the log: every record
    /// goes through the same check and the same transition a live mutation
    /// does, so the rebuilt class memory, routed index, threshold, stream
    /// counters, drift detector and snapshot version are **bit-identical**
    /// to the last acknowledged pre-crash state. Register/update/observe
    /// records carry the packed words the original server encoded, so no
    /// model arithmetic is ever re-run.
    ///
    /// # Errors
    ///
    /// [`ServeError::Checkpoint`] when the base is missing, malformed, or
    /// does not match `schema`; [`ServeError::Wal`] when the log is
    /// missing, unreadable, or corrupt *before* its final record (including
    /// a record the live server could never have accepted);
    /// [`ServeError::InvalidConfig`] for a bad `config` or a recovered
    /// state with no classes.
    pub fn recover(
        schema: &AttributeSchema,
        config: ServerConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), ServeError> {
        validate_config(&config)?;
        let delta = CheckpointDelta::load_json(wal::base_path(&durability.dir))?;
        let next_record_seq = delta.next_record_seq;
        let mut state = ServeState::from_base(delta, schema, &config)?;
        let (log, replay) = WriteAheadLog::open(wal::wal_path(&durability.dir), durability.sync)?;
        let torn_tail = replay.torn_tail.is_some();
        let mut replayed_records = 0u64;
        // Records below `next_record_seq` are already folded into the base
        // (a crash can interleave a fresh base with the not-yet-rotated log).
        for entry in replay.entries {
            if entry.seq < next_record_seq {
                continue;
            }
            let op = Mutation::decode(entry.op, schema)?;
            state.check(&op).map_err(|e| WalError::Corrupt {
                offset: entry.end_offset,
                reason: format!("record {} cannot apply: {e}", entry.seq),
            })?;
            state.apply(op);
            replayed_records += 1;
        }
        if state.snapshot.memory.is_empty() {
            return Err(ServeError::InvalidConfig(
                "recovered state has no registered classes".to_string(),
            ));
        }
        if let (Some(rc), None) = (config.routed, &state.snapshot.routed) {
            let snapshot = Arc::make_mut(&mut state.snapshot);
            snapshot.routed = Some(routed_from_sharded(&snapshot.memory, rc, config.threads));
        }
        let report = RecoveryReport {
            snapshot_version: state.snapshot.version,
            replayed_records,
            torn_tail,
        };
        let durable = DurableState::new(log, durability, schema, replayed_records);
        Ok((Self::spawn(state, config, Some(durable)), report))
    }

    /// Starts a server from a saved [`hdc_zsc::Checkpoint`]: the
    /// train-once / serve-many entry point. The checkpoint is validated
    /// against the serving schema and loaded straight into the immutable
    /// [`FrozenModel`] view ([`hdc_zsc::Checkpoint::into_frozen`]) — no
    /// intermediate mutable model, no extra copy.
    ///
    /// A checkpoint carrying a
    /// [`SimilarityCalibration`](hdc_zsc::SimilarityCalibration) seeds the
    /// server's open-set rejection threshold, so calibrated verdicts
    /// survive the save/load cycle without a separate
    /// [`QueryServer::set_threshold`] call; an uncalibrated checkpoint
    /// starts with no threshold, exactly as before.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Checkpoint`] when the checkpoint does not match
    /// `schema`, plus everything [`QueryServer::start`] reports.
    pub fn from_checkpoint(
        checkpoint: hdc_zsc::Checkpoint,
        schema: &dataset::AttributeSchema,
        labels: Vec<String>,
        class_attributes: &Matrix,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        let threshold = checkpoint.calibration.as_ref().map(|c| c.threshold);
        let model = checkpoint.into_frozen(schema)?;
        let state = ServeState::initial(model, labels, class_attributes, &config, threshold)?;
        Ok(Self::spawn(state, config, None))
    }

    /// Width of the backbone feature rows the server expects.
    pub fn feature_dim(&self) -> usize {
        self.shared.feature_dim
    }

    /// Width of the class-attribute rows the mutation plane currently
    /// expects ([`QueryServer::register_class`] /
    /// [`QueryServer::update_class`]). Tracks the serving model across
    /// [`QueryServer::swap_model`].
    pub fn attribute_dim(&self) -> usize {
        self.snapshot().model.attribute_encoder().num_attributes()
    }

    /// Batching and hot-swap counters observed so far.
    pub fn stats(&self) -> ServerStats {
        *self.shared.stats.lock().expect("stats mutex poisoned")
    }

    /// The snapshot queries are currently being scored against. Batches
    /// already in flight may still complete against an older snapshot.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        Arc::clone(
            &self
                .shared
                .snapshot
                .lock()
                .expect("snapshot mutex poisoned"),
        )
    }

    /// Registers a **new** class under `label` from its class-attribute
    /// row, atomically publishing a new snapshot. The class is servable by
    /// the next coalesced batch — no restart, no queue drain; only the
    /// shard the class routes to is repacked.
    ///
    /// Registration never silently overwrites: re-registering an existing
    /// label is rejected with [`ServeError::DuplicateLabel`] — use
    /// [`QueryServer::update_class`] to re-point an existing class. (This
    /// also keeps the durable log replayable without ambiguity: every
    /// logged register is a genuine insert.)
    ///
    /// Returns the snapshot now serving, so callers can record exactly which
    /// version their class became visible in.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DuplicateLabel`] when `label` is already
    /// registered, [`ServeError::AttributeWidth`] /
    /// [`ServeError::NonFinite`] for a mis-sized or non-finite attribute
    /// row, and [`ServeError::Wal`] when a durable server cannot log the
    /// mutation (nothing is published then).
    pub fn register_class(
        &self,
        label: impl Into<String>,
        attributes: &[f32],
    ) -> Result<Arc<ModelSnapshot>, ServeError> {
        let label = label.into();
        self.commit_class(attributes, |words| WalOp::Register { label, words })
    }

    /// Replaces the attribute row of an *already registered* class; see
    /// [`QueryServer::register_class`] for inserting a new one. The
    /// existence check and the publish happen under one control-mutex
    /// critical section, so a concurrent `remove_class` cannot slip in
    /// between (the update can never resurrect a just-removed class).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownClass`] when `label` is not registered,
    /// [`ServeError::AttributeWidth`] / [`ServeError::NonFinite`] for a
    /// mis-sized or non-finite row, and [`ServeError::Wal`] when a durable
    /// server cannot log the mutation.
    pub fn update_class(
        &self,
        label: &str,
        attributes: &[f32],
    ) -> Result<Arc<ModelSnapshot>, ServeError> {
        self.commit_class(attributes, |words| WalOp::Update {
            label: label.to_string(),
            words,
        })
    }

    /// The shared register/update body: validates the attribute row before
    /// anything is encoded, encodes it through the serving snapshot's shared
    /// [`FrozenModel`] — one attribute-encoder forward, zero weight copies —
    /// and commits the record `op` builds from the packed signature.
    fn commit_class(
        &self,
        attributes: &[f32],
        op: impl FnOnce(Vec<u64>) -> WalOp,
    ) -> Result<Arc<ModelSnapshot>, ServeError> {
        let mut control = self.control.lock().expect("control mutex poisoned");
        let model = &control.state.snapshot.model;
        check_attributes(
            attributes.len(),
            model.attribute_encoder().num_attributes(),
            attributes,
        )?;
        let words = model.packed_class_signature(attributes);
        self.commit_publishing(&mut control, Mutation::Logged(op(words)))
    }

    /// Unregisters a class, atomically publishing a snapshot without it;
    /// only the shard that held the class is repacked.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownClass`] when `label` is not registered,
    /// [`ServeError::InvalidConfig`] when removing it would leave the
    /// server with no classes at all, and [`ServeError::Wal`] when a
    /// durable server cannot log the removal (nothing is published then).
    pub fn remove_class(&self, label: &str) -> Result<Arc<ModelSnapshot>, ServeError> {
        self.commit_record(WalOp::Remove {
            label: label.to_string(),
        })
    }

    /// Replaces the entire serving state — model and class set — with one
    /// atomic snapshot publication (e.g. rolling out a retrained
    /// checkpoint). Queries already coalesced keep their old snapshot; the
    /// next batch is scored by the new model.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::AttributeWidth`] / [`ServeError::NonFinite`]
    /// when the matrix does not fit the new model's attribute encoder or
    /// carries a non-finite value, and [`ServeError::InvalidConfig`] when the
    /// labels and matrix do not line up, the class set is empty, or the new
    /// model expects a different backbone feature width than the server was
    /// started with (in-flight and future callers would be rejected by the
    /// width check). A durable server additionally rejects models whose
    /// attribute space no longer matches the schema pinned at startup, and
    /// reports [`ServeError::Wal`] when the swap cannot be logged (nothing
    /// is published then).
    pub fn swap_model(
        &self,
        model: impl Into<FrozenModel>,
        labels: Vec<String>,
        class_attributes: &Matrix,
    ) -> Result<Arc<ModelSnapshot>, ServeError> {
        let model: FrozenModel = model.into();
        // Validated before the control mutex is taken: the attribute encoder
        // asserts the row width, and a panic while holding the lock would
        // poison the whole mutation plane.
        validate_class_set(&model, &labels, class_attributes)?;
        let mut control = self.control.lock().expect("control mutex poisoned");
        if let Some(durable) = control.durable.as_ref() {
            let encoded = model.attribute_encoder().num_attributes();
            if encoded != durable.schema.num_attributes() {
                return Err(ServeError::InvalidConfig(format!(
                    "swapped model encodes {} attributes, the durable schema pins {}",
                    encoded,
                    durable.schema.num_attributes()
                )));
            }
        }
        let shards = control.state.snapshot.memory.num_shards();
        let memory = model.sharded_class_memory(labels, class_attributes, shards);
        self.commit_publishing(&mut control, Mutation::Swap { model, memory })
    }

    /// Sets the open-set rejection threshold, atomically publishing a
    /// snapshot that judges every subsequent query by it: a served top-1
    /// similarity **strictly below** `threshold` comes back with
    /// [`Verdict::Unknown`]. Typically fed from a
    /// [`hdc_zsc::SimilarityCalibrator`] fit offline; the change is one
    /// hot swap — queries already coalesced keep the old snapshot's
    /// verdict rule, nothing drains.
    ///
    /// On a durable server the change is WAL-logged (bit-exactly, as
    /// `f32` bits) before publication, so recovery resumes with the same
    /// verdict boundary.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a non-finite threshold and
    /// [`ServeError::Wal`] when a durable server cannot log the change
    /// (nothing is published then).
    pub fn set_threshold(&self, threshold: f32) -> Result<Arc<ModelSnapshot>, ServeError> {
        self.commit_record(WalOp::SetThreshold {
            bits: Some(threshold.to_bits()),
        })
    }

    /// Clears the open-set rejection threshold, atomically publishing a
    /// snapshot that serves every query without a verdict — the behaviour
    /// of an uncalibrated server.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Wal`] when a durable server cannot log the
    /// change (nothing is published then).
    pub fn clear_threshold(&self) -> Result<Arc<ModelSnapshot>, ServeError> {
        self.commit_record(WalOp::SetThreshold { bits: None })
    }

    /// Folds one **streamed labeled example** into `label`'s exact
    /// per-class counters — the continual-learning verb. The example is
    /// encoded through the serving snapshot's shared model (one
    /// image-encoder forward, sign-binarized into the packed layout), its
    /// packed words are WAL-logged on a durable server (model-independent
    /// replay, like every other mutation), and the counters advance
    /// immediately. The *served* prototype re-signs at the next publication
    /// boundary: every [`ServerConfig::publish_every`]-th observe, or an
    /// explicit [`QueryServer::flush`].
    ///
    /// The first observe of a class seeds its counters with the
    /// currently-published prototype as one pseudo-example, so the stream
    /// refines the class instead of restarting it. Counters are exact i32
    /// sums — folding is order-independent and the published prototype is a
    /// pure function of the counters, which is what makes kill-and-recover
    /// bit-identical to the uninterrupted run.
    ///
    /// Returns the snapshot published by this observe when it landed on a
    /// publication boundary, `None` otherwise (the counters advanced, the
    /// served prototype did not change yet).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::FeatureWidth`] / [`ServeError::NonFinite`] for
    /// a mis-sized or non-finite feature row, [`ServeError::UnknownClass`]
    /// when `label` is not registered (streams refine existing classes;
    /// register first), and [`ServeError::Wal`] when a durable server
    /// cannot log the observation (nothing is folded then).
    pub fn observe(
        &self,
        label: &str,
        features: &[f32],
    ) -> Result<Option<Arc<ModelSnapshot>>, ServeError> {
        self.check_features(features)?;
        let mut control = self.control.lock().expect("control mutex poisoned");
        // Encode through the serving snapshot's shared model — the same
        // embed-then-sign path queries take, zero weight copies.
        let embedding = control
            .state
            .snapshot
            .model
            .embed_images(&Matrix::from_rows(&[features.to_vec()]));
        let words = engine::pack_float_signs(embedding.row(0));
        let op = WalOp::Observe {
            label: label.to_string(),
            words,
        };
        self.commit(&mut control, Mutation::Logged(op))
    }

    /// Publishes every pending streamed-class update right now, without
    /// waiting for the [`ServerConfig::publish_every`] cadence: re-signs
    /// each pending class from its exact counters and hot-swaps one
    /// snapshot carrying all of them. A no-op returning the current
    /// snapshot when nothing is pending (and nothing is logged then).
    ///
    /// On a durable server the explicit boundary is WAL-logged (a `flush`
    /// record), so replay reproduces the exact same publication — and
    /// version — sequence.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Wal`] when a durable server cannot log the
    /// boundary (nothing is published then).
    pub fn flush(&self) -> Result<Arc<ModelSnapshot>, ServeError> {
        let mut control = self.control.lock().expect("control mutex poisoned");
        if control.state.stream.pending.is_empty() {
            return Ok(Arc::clone(&control.state.snapshot));
        }
        self.commit_publishing(&mut control, Mutation::Logged(WalOp::Flush))
    }

    /// Commits a mutation that needs nothing encoded first.
    fn commit_record(&self, op: WalOp) -> Result<Arc<ModelSnapshot>, ServeError> {
        let mut control = self.control.lock().expect("control mutex poisoned");
        self.commit_publishing(&mut control, Mutation::Logged(op))
    }

    /// [`QueryServer::commit`] for the mutations that always publish.
    fn commit_publishing(
        &self,
        control: &mut ControlPlane,
        op: Mutation,
    ) -> Result<Arc<ModelSnapshot>, ServeError> {
        Ok(self
            .commit(control, op)?
            .expect("only an observe inside a batch publishes nothing"))
    }

    /// The one path every live mutation takes: check, WAL-append (durable
    /// servers; synced per policy, so an append failure rejects the
    /// mutation with nothing changed), apply, publish, and count the record
    /// towards compaction. The caller holds the control mutex, so versions
    /// are strictly ordered and the log holds mutations in the order they
    /// applied. Returns the published snapshot, if the mutation published.
    fn commit(
        &self,
        control: &mut ControlPlane,
        op: Mutation,
    ) -> Result<Option<Arc<ModelSnapshot>>, ServeError> {
        control.state.check(&op)?;
        if let Some(durable) = control.durable.as_mut() {
            durable.wal.append(&op.record(&durable.schema))?;
        }
        let published = control.state.apply(op).then(|| {
            let snapshot = Arc::clone(&control.state.snapshot);
            *self
                .shared
                .snapshot
                .lock()
                .expect("snapshot mutex poisoned") = Arc::clone(&snapshot);
            self.shared
                .stats
                .lock()
                .expect("stats mutex poisoned")
                .swaps += 1;
            snapshot
        });
        if let Some(durable) = control.durable.as_mut() {
            durable.maybe_compact(&control.state)?;
        }
        Ok(published)
    }

    /// Streaming continual-learning counters: observes, the batching
    /// position, and the drift detector's publication/alarm totals.
    pub fn stream_stats(&self) -> StreamStats {
        let control = self.control.lock().expect("control mutex poisoned");
        let stream = &control.state.stream;
        StreamStats {
            observes: stream.observes,
            pending_classes: stream.pending.len() as u64,
            since_publish: stream.since_publish,
            publishes: stream.drift.publishes(),
            drift_alarms: stream.drift.alarms(),
        }
    }

    /// The full per-class drift report — EWMA displacement trends and
    /// Page–Hinkley statistics for every streamed class; see
    /// [`metrics::stream`].
    pub fn drift_report(&self) -> DriftReport {
        self.control
            .lock()
            .expect("control mutex poisoned")
            .state
            .stream
            .drift
            .report()
    }

    /// Durability counters of a durable server — live WAL file size,
    /// records since the last compaction, and the next record sequence
    /// number. `None` on a non-durable server.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        let control = self.control.lock().expect("control mutex poisoned");
        control.durable.as_ref().map(|durable| DurabilityStats {
            wal_bytes: std::fs::metadata(durable.wal.path())
                .map(|m| m.len())
                .unwrap_or(0),
            records_since_compaction: durable.since_compact,
            next_record_seq: durable.wal.next_seq(),
        })
    }

    /// Folds the log into a fresh compaction base right now, regardless of
    /// the [`DurabilityConfig::compact_every`] policy. Returns `Ok(true)`
    /// when a base was written, `Ok(false)` on a non-durable server.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Checkpoint`] / [`ServeError::Wal`] when the
    /// base or rotated log cannot be written; the previous base and log
    /// remain fully replayable in that case.
    pub fn compact(&self) -> Result<bool, ServeError> {
        let mut control = self.control.lock().expect("control mutex poisoned");
        let ControlPlane { state, durable } = &mut *control;
        let Some(durable) = durable.as_mut() else {
            return Ok(false);
        };
        durable.compact(state)?;
        Ok(true)
    }

    /// Submits one backbone-feature row and blocks until its top-k labels
    /// come back.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::FeatureWidth`] for mis-sized rows,
    /// [`ServeError::Draining`] when the server was already stopping at
    /// submission, and [`ServeError::Stopped`] when it dies mid-query.
    pub fn query(&self, features: &[f32]) -> Result<Vec<ScoredLabel>, ServeError> {
        self.query_traced(features).map(|(_, top)| top)
    }

    /// Like [`QueryServer::query`], additionally reporting the version of
    /// the [`ModelSnapshot`] that served the query — the handle for
    /// verifying the bit-identity contract under concurrent hot swaps.
    ///
    /// # Errors
    ///
    /// Same as [`QueryServer::query`].
    pub fn query_traced(&self, features: &[f32]) -> Result<(u64, Vec<ScoredLabel>), ServeError> {
        self.query_with_verdict(features)
            .map(|(version, top, _)| (version, top))
    }

    /// Like [`QueryServer::query_traced`], additionally reporting the
    /// serving snapshot's open-set [`Verdict`] — `None` when that snapshot
    /// carried no rejection threshold. The verdict is computed by the
    /// dispatcher against the *same* snapshot that scored the query, so a
    /// concurrent [`QueryServer::set_threshold`] can never judge a query by
    /// a threshold the reported version does not carry.
    ///
    /// # Errors
    ///
    /// Same as [`QueryServer::query`].
    pub fn query_with_verdict(&self, features: &[f32]) -> Result<ServedResult, ServeError> {
        let mut results = self.enqueue(vec![features.to_vec()])?;
        Ok(results.pop().expect("one result per submitted row"))
    }

    /// Submits a small batch of feature rows and blocks until all of their
    /// top-k results come back (in submission order).
    ///
    /// The rows enter the same admission queue as everyone else's, so they
    /// may be coalesced with other callers' queries or split across engine
    /// dispatches (and, across a hot swap, even be served by different
    /// snapshot versions).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::FeatureWidth`] for mis-sized rows (the whole
    /// batch is rejected before anything is enqueued),
    /// [`ServeError::Draining`] when the server was already stopping at
    /// submission, and [`ServeError::Stopped`] when it dies mid-query.
    pub fn query_batch(&self, rows: &[Vec<f32>]) -> Result<Vec<Vec<ScoredLabel>>, ServeError> {
        Ok(self
            .enqueue(rows.to_vec())?
            .into_iter()
            .map(|(_, top, _)| top)
            .collect())
    }

    /// Validates every row, enqueues the owned rows (no further copies —
    /// the dispatcher moves them out of the queue), and blocks for the
    /// results.
    fn enqueue(&self, rows: Vec<Vec<f32>>) -> Result<Vec<ServedResult>, ServeError> {
        for row in &rows {
            self.check_features(row)?;
        }
        let mut receivers = Vec::with_capacity(rows.len());
        {
            let mut queue = self.shared.queue.lock().expect("queue mutex poisoned");
            if queue.shutdown {
                return Err(ServeError::Draining);
            }
            for features in rows {
                let (tx, rx) = mpsc::channel();
                queue.pending.push_back(Request {
                    features,
                    responder: tx,
                });
                receivers.push(rx);
            }
        }
        self.shared.arrivals.notify_all();
        receivers
            .into_iter()
            .map(|rx| rx.recv().map_err(|_| ServeError::Stopped))
            .collect()
    }

    /// The ingress check of every feature row, queried or observed: the
    /// server's width, and finite values only.
    fn check_features(&self, row: &[f32]) -> Result<(), ServeError> {
        if row.len() != self.shared.feature_dim {
            return Err(ServeError::FeatureWidth {
                expected: self.shared.feature_dim,
                found: row.len(),
            });
        }
        check_finite(row, "feature")
    }

    /// Stops the server, draining first: queries already admitted are still
    /// scored and answered, submissions arriving from now on are rejected
    /// with [`ServeError::Draining`], and the call blocks until the
    /// dispatcher has answered the last drained query. A durable server's
    /// log is fsynced one final time on the way out.
    ///
    /// Idempotent and callable from any thread holding `&self`; `Drop` runs
    /// it too, so an explicit call is only needed to stop a shared server
    /// while other handles are still alive.
    pub fn stop(&self) {
        {
            let mut queue = self.shared.queue.lock().expect("queue mutex poisoned");
            queue.shutdown = true;
        }
        self.shared.arrivals.notify_all();
        let handle = self
            .dispatcher
            .lock()
            .expect("dispatcher mutex poisoned")
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        // Best-effort: every acknowledged mutation was already synced per
        // policy; this only tightens a trailing EveryN batch.
        if let Ok(mut control) = self.control.lock() {
            if let Some(durable) = control.durable.as_mut() {
                let _ = durable.wal.sync();
            }
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The canonical routed-index build for a freshly (re)built sharded memory:
/// feed the memory's classes in its own deterministic label order, then run
/// one seeded clustering over the final set. A pure function of the
/// memory's contents and `config`, shared by the constructors, the swap
/// transition, and the post-recovery rebuild.
fn routed_from_sharded(
    memory: &ShardedClassMemory,
    config: RoutedConfig,
    threads: usize,
) -> RoutedClassMemory {
    let mut routed = RoutedClassMemory::new(memory.dim(), config);
    let labels: Vec<String> = memory.labels().map(str::to_string).collect();
    for label in labels {
        let words = memory
            .class_words(&label)
            .expect("label just listed")
            .to_vec();
        routed.add_class_packed(label, &words);
    }
    routed.recluster();
    routed.with_threads(threads)
}

/// Unpacks one packed ±1 prototype row back into sign components (set bit
/// = −1, the engine's packing convention) — the bridge from the serving
/// layer's packed words to the [`hdc`] crate's counter arithmetic.
fn unpack_words(words: &[u64], dim: usize) -> Vec<i8> {
    (0..dim)
        .map(|i| {
            if (words[i / 64] >> (i % 64)) & 1 == 1 {
                -1
            } else {
                1
            }
        })
        .collect()
}

/// Folds one observed example (as packed sign words) into `label`'s
/// counters. The **first** observe of a label seeds its accumulator with
/// the class's currently-published prototype as one pseudo-example, so the
/// stream refines the existing class instead of restarting it from scratch;
/// replay reproduces the seeding deterministically because the replayed
/// memory holds the same prototype at the same record position.
fn fold_observation(
    accumulators: &mut ClassAccumulator,
    label: &str,
    example_words: &[u64],
    current_class_words: &[u64],
    dim: usize,
) {
    if !accumulators.contains(label) {
        let seed = BipolarHypervector::from_signs(&unpack_words(current_class_words, dim));
        accumulators
            .observe(label, &seed)
            .expect("seed prototype width matches the accumulator by construction");
    }
    let example = BipolarHypervector::from_signs(&unpack_words(example_words, dim));
    accumulators
        .observe(label, &example)
        .expect("observe width was validated against the serving memory");
}

/// Re-signs every pending class from its exact counters into packed
/// prototype rows, in sorted label order — the deterministic payload of one
/// publication boundary.
fn resign_pending(
    accumulators: &ClassAccumulator,
    pending: &BTreeSet<String>,
) -> Vec<(String, Vec<u64>)> {
    pending
        .iter()
        .map(|label| {
            let prototype = accumulators
                .prototype(label)
                .expect("pending labels always have an accumulator");
            (label.clone(), engine::pack_signs(prototype.as_slice()))
        })
        .collect()
}

/// Normalized Hamming displacement between two packed rows of the same
/// dimensionality: differing sign positions over `dim`, in `[0, 1]`. Tail
/// bits beyond `dim` are zero under the packing contract, so a plain XOR
/// popcount is exact.
fn normalized_displacement(old: &[u64], new: &[u64], dim: usize) -> f64 {
    debug_assert_eq!(old.len(), new.len());
    let differing: u32 = old.iter().zip(new).map(|(a, b)| (a ^ b).count_ones()).sum();
    f64::from(differing) / dim as f64
}

/// The class-set checks shared by every constructor and
/// [`QueryServer::swap_model`]: one label per row, at least one class, and
/// rows that fit `model`'s attribute encoder.
fn validate_class_set(
    model: &FrozenModel,
    labels: &[String],
    class_attributes: &Matrix,
) -> Result<(), ServeError> {
    if labels.len() != class_attributes.rows() {
        return Err(ServeError::InvalidConfig(format!(
            "{} labels for {} class-attribute rows",
            labels.len(),
            class_attributes.rows()
        )));
    }
    if class_attributes.rows() == 0 {
        return Err(ServeError::InvalidConfig(
            "cannot serve an empty class set".to_string(),
        ));
    }
    check_attributes(
        class_attributes.cols(),
        model.attribute_encoder().num_attributes(),
        class_attributes.as_slice(),
    )
}

/// The ingress check of class-attribute rows `width` wide: the encoder's
/// width, and finite values only.
fn check_attributes(width: usize, expected: usize, values: &[f32]) -> Result<(), ServeError> {
    if width != expected {
        return Err(ServeError::AttributeWidth {
            expected,
            found: width,
        });
    }
    check_finite(values, "class-attribute")
}

/// Rejects NaN and infinities. Wire JSON `null` decodes to NaN, and
/// sign-packing reads NaN as +1, so an unchecked row would silently fold
/// an all-positive example into a class's exact counters.
fn check_finite(values: &[f32], what: &'static str) -> Result<(), ServeError> {
    if values.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(ServeError::NonFinite { what })
    }
}

/// The [`ServerConfig`] sanity checks shared by every constructor.
fn validate_config(config: &ServerConfig) -> Result<(), ServeError> {
    if config.max_batch == 0 {
        return Err(ServeError::InvalidConfig(
            "max_batch must be at least 1".to_string(),
        ));
    }
    if config.top_k == 0 {
        return Err(ServeError::InvalidConfig(
            "top_k must be at least 1".to_string(),
        ));
    }
    if config.shards == 0 {
        return Err(ServeError::InvalidConfig(
            "shards must be at least 1".to_string(),
        ));
    }
    if config.publish_every == 0 {
        return Err(ServeError::InvalidConfig(
            "publish_every must be at least 1".to_string(),
        ));
    }
    Ok(())
}

/// The dispatcher: collect → pick up snapshot → embed → pack → score →
/// respond, forever.
///
/// Embedding runs through the snapshot's shared [`FrozenModel`] (`&self`
/// inference, no activation caches), so the dispatcher holds no model state
/// of its own and a swap costs it exactly one `Arc` load — never a weight
/// copy.
fn dispatch_loop(shared: &Shared, config: ServerConfig) {
    while let Some(mut batch) = collect_batch(shared, config.max_batch, config.max_wait_us) {
        let snapshot = Arc::clone(&shared.snapshot.lock().expect("snapshot mutex poisoned"));
        let rows: Vec<Vec<f32>> = batch
            .iter_mut()
            .map(|r| std::mem::take(&mut r.features))
            .collect();
        let features = Matrix::from_rows(&rows);
        // Inference-mode embedding (no caches), then sign-binarization into
        // the engine's packed query layout — the same path
        // `ZscModel::sharded_class_memory` uses for the class side.
        let embeddings = snapshot.model.embed_images(&features);
        let queries = PackedQueryBatch::from_sign_matrix(&embeddings);
        let topk = match &snapshot.routed {
            Some(routed) => routed.topk_batch(&queries, config.top_k),
            None => snapshot.memory.topk_batch(&queries, config.top_k),
        };
        {
            let mut stats = shared.stats.lock().expect("stats mutex poisoned");
            stats.queries += batch.len() as u64;
            stats.batches += 1;
            stats.max_batch_observed = stats.max_batch_observed.max(batch.len());
        }
        for (request, result) in batch.into_iter().zip(topk) {
            let labelled: Vec<ScoredLabel> = result
                .into_iter()
                .map(|(label, sim)| (label.to_string(), sim))
                .collect();
            // Judged by the same snapshot that scored it — threshold swaps
            // can never split a query's scores from its verdict.
            let verdict = snapshot.verdict(&labelled);
            // A disconnected receiver just means the caller gave up; drop it.
            let _ = request
                .responder
                .send((snapshot.version, labelled, verdict));
        }
    }
}

/// Blocks until at least one request is queued, then keeps collecting until
/// the batch is full, the coalescing window expires, or shutdown is
/// requested. Returns `None` once the server is shut down *and* drained.
fn collect_batch(shared: &Shared, max_batch: usize, max_wait_us: u64) -> Option<Vec<Request>> {
    let mut queue = shared.queue.lock().expect("queue mutex poisoned");
    loop {
        if !queue.pending.is_empty() {
            break;
        }
        if queue.shutdown {
            return None;
        }
        queue = shared.arrivals.wait(queue).expect("queue mutex poisoned");
    }
    let deadline = Instant::now() + Duration::from_micros(max_wait_us);
    while queue.pending.len() < max_batch && !queue.shutdown {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let (guard, timeout) = shared
            .arrivals
            .wait_timeout(queue, deadline - now)
            .expect("queue mutex poisoned");
        queue = guard;
        if timeout.timed_out() {
            break;
        }
    }
    let take = queue.pending.len().min(max_batch);
    Some(queue.pending.drain(..take).collect())
}
