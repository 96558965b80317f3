//! The [`AsyncSolver`] interface and shared run machinery.
//!
//! A solver drives an [`AsyncContext`] with gradient tasks under a
//! [`BarrierFilter`] and applies collected updates server-side — the shape
//! of the paper's Listings 3–4. The run around the update rule is one
//! `RunLifecycle`, generic over a crate-private `SolverStep` that supplies
//! only the rule itself (name, history, task submit, absorb step).
//! Everything a run produces (convergence trace, staleness extremes,
//! wait/byte accounting) lands in a [`RunReport`] so benches and tests
//! read one structure.

use std::mem;

use async_cluster::{ConvergenceTrace, VDur, VTime};
use async_core::{
    AsyncBcast, AsyncContext, BarrierFilter, DegradePolicy, SubmitOpts, Tagged, TaskAttrs,
    WaveDirective,
};
use async_data::{sampler, Block, Dataset};
use async_linalg::{GradDelta, ParallelismCfg};
use sparklet::{Payload, Rdd, WorkerCtx};

use crate::absorber::ShardedAbsorber;
use crate::checkpoint::{Checkpoint, SolverHistory};
use crate::compression::{CompressCfg, CompressorBank};
use crate::durable::{DurableSession, DurableStats};
use crate::objective::Objective;
use crate::scratch::ScratchPool;
use crate::serving::{PublishedModel, ServeCounters, ServeFeed};

/// Configuration shared by all solvers.
#[derive(Debug, Clone)]
pub struct SolverCfg {
    /// Step size γ.
    pub step: f64,
    /// If true, scale each applied step by `1/(1 + staleness)` — the
    /// bounded-staleness damping rule the paper discusses for ASGD.
    pub staleness_damping: bool,
    /// Mini-batch fraction `b` of each partition per task (eq. 5).
    pub batch_fraction: f64,
    /// Barrier-control strategy admitting workers to new tasks.
    pub barrier: BarrierFilter,
    /// Stop after this many server model updates.
    pub max_updates: u64,
    /// Record a convergence sample every this many updates (0 = only the
    /// initial and final points).
    pub eval_every: u64,
    /// Baseline objective subtracted in the trace (the paper's
    /// `objective − baseline` error metric).
    pub baseline: f64,
    /// Number of data partitions (0 = one per worker).
    pub partitions: usize,
    /// Sampling seed; runs are pure functions of `(cfg, cluster spec)`.
    pub seed: u64,
    /// Driver-side parallelism for objective evaluations.
    pub eval_threads: ParallelismCfg,
    /// Capture a [`Checkpoint`] of the server state every this many
    /// updates (0 = never). Without a durable store captured checkpoints
    /// land in [`RunReport::checkpoints`], ready for `to_bytes` and a
    /// later `resume_from`; with [`SolverCfg::durable_dir`] set the store
    /// is the record and each capture goes to disk instead.
    pub checkpoint_every: u64,
    /// Capacity of the incremental-broadcast ring (0 = disabled, the
    /// default): when > 0, the model broadcast keeps the diffs (changed
    /// coordinates and their values) of this many recent versions, ships
    /// version-diff patches to workers instead of dense snapshots wherever
    /// a patch is smaller and bit-exact, and stores sparse versions as
    /// those diffs, copying the model once per ring length instead of on
    /// every update (see `async_core::AsyncBcast::enable_incremental`).
    /// Every solver honours it, and no value depends on it. Only the ASGD
    /// update has a sparse change support, and only when the objective has
    /// no ridge term (λ = 0); with λ > 0, and always for momentum SGD and
    /// ASAGA, every version declares a dense change and resolution falls
    /// back to full snapshots.
    pub bcast_ring: usize,
    /// Server-side absorption threads: the model is partitioned into this
    /// many contiguous coordinate shards and every apply pass (ridge
    /// shrink, gradient scatter, snapshot memcpy, SAGA ᾱ absorption) runs
    /// shard-parallel on a persistent pool
    /// ([`crate::absorber::ShardedAbsorber`]). **Bit-identity contract:**
    /// for any `server_threads`, a run with `absorb_batch = 1` reproduces
    /// the single-threaded server bit-exactly — shards are disjoint and
    /// each coordinate sees the serial f64 operation sequence.
    ///
    /// # Example
    /// ```
    /// use async_optim::SolverCfg;
    ///
    /// // A 4-shard server applying one delta at a time: bit-identical to
    /// // the serial server, so byte-gated benches may enable it freely.
    /// let cfg = SolverCfg {
    ///     server_threads: 4,
    ///     absorb_batch: 1,
    ///     ..SolverCfg::default()
    /// };
    /// assert_eq!(cfg.server_threads, 4);
    /// ```
    pub server_threads: usize,
    /// Deltas absorbed per server wave (clamped to at least 1): each wave
    /// blocks for one result, then opportunistically drains up to this
    /// many already-arrived results and folds them per shard before **one**
    /// fused apply pass and **one** snapshot push. Batching reorders the
    /// f64 arithmetic (fold-then-apply ≠ delta-at-a-time in f64, and the
    /// model version now advances once per wave), so `absorb_batch > 1` is
    /// **value-equivalent, not bit-identical**, to the serial server and
    /// is kept out of the byte-gated benches.
    ///
    /// # Example
    /// ```
    /// use async_optim::SolverCfg;
    ///
    /// // Fold up to 4 ready deltas per wave on a 4-shard server — the
    /// // high-throughput configuration of the server-scaling bench.
    /// let cfg = SolverCfg {
    ///     server_threads: 4,
    ///     absorb_batch: 4,
    ///     ..SolverCfg::default()
    /// };
    /// assert_eq!(cfg.absorb_batch, 4);
    /// ```
    pub absorb_batch: usize,
    /// Worker → server delta compression ([`CompressCfg::Off`], the
    /// default, ships raw deltas bit-identically to builds predating the
    /// compression layer). With [`CompressCfg::TopK`], every solver routes
    /// its deltas through a per-partition error-feedback compressor
    /// ([`CompressorBank`]): the shipped message carries only the `k`
    /// largest-magnitude coordinates of the accumulated gradient signal in
    /// the configured wire format, and [`RunReport::result_bytes`] counts
    /// the compressed frame sizes. With an incremental broadcast ring, a
    /// non-exact `quant` also quantizes the driver → worker version-diff
    /// patches (`async_core::AsyncBcast::set_patch_quant`).
    pub compress: CompressCfg,
    /// Serving rendezvous (`None`, the default, is bit-identical to builds
    /// predating the serving layer). When set, the solver publishes its
    /// live model broadcast through the feed right after creating it —
    /// concurrent readers (`async-serve`) pin snapshot versions from the
    /// same MVCC ring the training loop pushes into — and folds the feed's
    /// serving counters into [`RunReport::serve`] at run end.
    pub serve_feed: Option<ServeFeed>,
    /// How the run degrades when worker deaths shrink the alive set
    /// ([`DegradePolicy::BestEffort`], the default, reproduces the
    /// pre-supervision behavior: keep going with the survivors, give up
    /// only when nobody is left and no recovery is scheduled). Consulted at
    /// every wave boundary; `Wait` directives block through
    /// [`AsyncContext::await_recovery`] toward supervised respawns and
    /// scripted revivals instead of ending the run early.
    pub degrade: DegradePolicy,
    /// Re-submission bound for tasks lost to worker failures (0, the
    /// default, disables retries bit-identically to older builds). A lost
    /// gradient task is re-issued to a surviving worker at its *original*
    /// model version — staleness accounting and broadcast pins stay honest
    /// — up to this many times before it is abandoned and counted in
    /// [`RunReport::lost_tasks`].
    pub retry_lost: u32,
    /// Directory of the run's durable checkpoint store (`None`, the
    /// default, is bit-identical to builds predating the durability
    /// layer). When set, the solver opens a
    /// [`crate::durable::CheckpointStore`] there, **auto-resumes** from
    /// the newest valid generation it finds (model, solver history,
    /// error-feedback residuals, model version, and update budget — the
    /// run completes the crashed run's `max_updates` total), and writes
    /// each [`SolverCfg::checkpoint_every`]-cadence checkpoint (and a
    /// final one at run end) to disk through a background writer thread,
    /// off the training hot path. The store is then the run's record:
    /// [`RunReport::checkpoints`] stays empty. An explicit `resume_from`
    /// on the solver takes precedence over the store's contents. The
    /// run's durability outcome lands in [`RunReport::durable`].
    pub durable_dir: Option<std::path::PathBuf>,
}

impl Default for SolverCfg {
    fn default() -> Self {
        Self {
            step: 0.05,
            staleness_damping: false,
            batch_fraction: 0.1,
            barrier: BarrierFilter::Asp,
            max_updates: 200,
            eval_every: 0,
            baseline: 0.0,
            partitions: 0,
            seed: 42,
            eval_threads: ParallelismCfg::sequential(),
            checkpoint_every: 0,
            bcast_ring: 0,
            server_threads: 1,
            absorb_batch: 1,
            compress: CompressCfg::Off,
            serve_feed: None,
            degrade: DegradePolicy::BestEffort,
            retry_lost: 0,
            durable_dir: None,
        }
    }
}

/// Why a [`SolverCfgBuilder`] refused to produce a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverCfgError {
    /// `batch_fraction` outside `(0, 1]` — a task would sample nothing or
    /// more than its partition.
    BatchFraction(f64),
    /// `absorb_batch == 0` — the server wave could never make progress
    /// (runtime clamps exist for struct-literal configs, but the builder
    /// refuses the contradiction outright).
    ZeroAbsorbBatch,
    /// `server_threads == 0` — the sharded absorber needs at least one
    /// shard.
    ZeroServerThreads,
    /// `compress` is [`CompressCfg::TopK`] with `k == 0` — every shipped
    /// delta would be empty and the residual would grow forever.
    ZeroTopK,
}

impl std::fmt::Display for SolverCfgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverCfgError::BatchFraction(b) => {
                write!(f, "batch_fraction must lie in (0, 1], got {b}")
            }
            SolverCfgError::ZeroAbsorbBatch => write!(f, "absorb_batch must be at least 1"),
            SolverCfgError::ZeroServerThreads => write!(f, "server_threads must be at least 1"),
            SolverCfgError::ZeroTopK => write!(f, "top-k compression must keep at least 1 entry"),
        }
    }
}

impl std::error::Error for SolverCfgError {}

/// Validating construction for [`SolverCfg`] — the preferred path over
/// struct-literal construction (which stays supported for existing call
/// sites and tests, but checks nothing until the contradictions surface
/// mid-run).
///
/// ```
/// use async_optim::{Objective, SolverCfg};
///
/// let cfg = SolverCfg::builder()
///     .step(0.02)
///     .batch_fraction(0.25)
///     .max_updates(500)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(cfg.max_updates, 500);
/// assert!(SolverCfg::builder().batch_fraction(0.0).build().is_err());
///
/// // The incremental ring only pays off for sparse change supports:
/// // a ridge term makes every update dense, which `lint` flags.
/// let ringed = SolverCfg::builder().bcast_ring(8).build().unwrap();
/// let warnings = ringed.lint(&Objective::LeastSquares { lambda: 1e-3 });
/// assert_eq!(warnings.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SolverCfgBuilder {
    cfg: SolverCfg,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(mut self, $name: $ty) -> Self {
                self.cfg.$name = $name;
                self
            }
        )*
    };
}

impl SolverCfgBuilder {
    builder_setters! {
        /// Step size γ ([`SolverCfg::step`]).
        step: f64,
        /// Staleness-damped steps ([`SolverCfg::staleness_damping`]).
        staleness_damping: bool,
        /// Mini-batch fraction in `(0, 1]` ([`SolverCfg::batch_fraction`]).
        batch_fraction: f64,
        /// Barrier strategy ([`SolverCfg::barrier`]).
        barrier: BarrierFilter,
        /// Update budget ([`SolverCfg::max_updates`]).
        max_updates: u64,
        /// Trace cadence ([`SolverCfg::eval_every`]).
        eval_every: u64,
        /// Baseline objective ([`SolverCfg::baseline`]).
        baseline: f64,
        /// Partition count ([`SolverCfg::partitions`]).
        partitions: usize,
        /// Sampling seed ([`SolverCfg::seed`]).
        seed: u64,
        /// Driver-side evaluation parallelism ([`SolverCfg::eval_threads`]).
        eval_threads: ParallelismCfg,
        /// Checkpoint cadence ([`SolverCfg::checkpoint_every`]).
        checkpoint_every: u64,
        /// Incremental-broadcast ring capacity ([`SolverCfg::bcast_ring`]).
        bcast_ring: usize,
        /// Server absorption shards ([`SolverCfg::server_threads`]).
        server_threads: usize,
        /// Deltas folded per server wave ([`SolverCfg::absorb_batch`]).
        absorb_batch: usize,
        /// Worker → server delta compression ([`SolverCfg::compress`]).
        compress: CompressCfg,
        /// Degradation policy under worker deaths ([`SolverCfg::degrade`]).
        degrade: DegradePolicy,
        /// Lost-task re-submission bound ([`SolverCfg::retry_lost`]).
        retry_lost: u32,
    }

    /// Attaches a serving rendezvous ([`SolverCfg::serve_feed`]).
    pub fn serve_feed(mut self, feed: ServeFeed) -> Self {
        self.cfg.serve_feed = Some(feed);
        self
    }

    /// Attaches a durable checkpoint store ([`SolverCfg::durable_dir`]).
    pub fn durable_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cfg.durable_dir = Some(dir.into());
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<SolverCfg, SolverCfgError> {
        let cfg = self.cfg;
        if !(cfg.batch_fraction > 0.0 && cfg.batch_fraction <= 1.0) {
            return Err(SolverCfgError::BatchFraction(cfg.batch_fraction));
        }
        if cfg.absorb_batch == 0 {
            return Err(SolverCfgError::ZeroAbsorbBatch);
        }
        if cfg.server_threads == 0 {
            return Err(SolverCfgError::ZeroServerThreads);
        }
        if matches!(cfg.compress, CompressCfg::TopK { k: 0, .. }) {
            return Err(SolverCfgError::ZeroTopK);
        }
        Ok(cfg)
    }
}

impl SolverCfg {
    /// A [`SolverCfgBuilder`] seeded with the defaults.
    pub fn builder() -> SolverCfgBuilder {
        SolverCfgBuilder {
            cfg: SolverCfg::default(),
        }
    }

    /// Configuration smells that are legal but probably not what the
    /// caller wants, given the objective the run will optimize:
    ///
    /// * a positive [`SolverCfg::bcast_ring`] with a ridge term (λ > 0),
    ///   where every model update has a **dense** change support, so
    ///   incremental resolution falls back to full snapshots and the ring
    ///   buys nothing;
    /// * [`CompressCfg::TopK`] with a ridge term (λ > 0), where the
    ///   server's shrink touches every coordinate each update while the
    ///   compressed delta restricts the gradient signal to `k` of them —
    ///   the dense-support ridge dynamics dominate and the sparsified
    ///   messages mostly buy residual lag.
    pub fn lint(&self, objective: &Objective) -> Vec<String> {
        let mut warnings = Vec::new();
        if self.bcast_ring > 0 && objective.lambda() > 0.0 {
            warnings.push(format!(
                "bcast_ring = {} with λ = {}: ridge updates have dense change \
                 supports, so every incremental resolution falls back to a full \
                 snapshot — the ring adds bookkeeping without saving bytes",
                self.bcast_ring,
                objective.lambda()
            ));
        }
        if let CompressCfg::TopK { k, .. } = self.compress {
            if objective.lambda() > 0.0 {
                warnings.push(format!(
                    "compress = top-{k} with λ = {}: the ridge term gives every \
                     update a dense support, so sparsifying the gradient messages \
                     mostly defers signal into the error-feedback residual instead \
                     of saving convergence-relevant bytes",
                    objective.lambda()
                ));
            }
        }
        warnings
    }

    /// Resume-time smells, checked against the checkpoint a run is about
    /// to restore (auto-resume or explicit `resume_from`):
    ///
    /// * resuming a [`CompressCfg::TopK`] run from a checkpoint carrying
    ///   **no error-feedback residuals** (a pre-durability format-1
    ///   snapshot, or one captured with compression off): the compressors
    ///   restart cold, silently dropping the deferred gradient signal the
    ///   crashed run had accumulated — the run is *not* a continuation of
    ///   the original trajectory.
    pub fn lint_resume(&self, ckpt: &Checkpoint) -> Vec<String> {
        let mut warnings = Vec::new();
        if let CompressCfg::TopK { k, .. } = self.compress {
            if !ckpt.has_residuals() {
                warnings.push(format!(
                    "resuming a top-{k} compressed run from a checkpoint without \
                     error-feedback residuals (legacy format or captured with \
                     compression off): the compressors restart cold and the \
                     crashed run's deferred gradient signal is lost — the resumed \
                     trajectory diverges from an uninterrupted one",
                ));
            }
        }
        warnings
    }
}

/// Everything one solver run produces.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// `(virtual time, objective − baseline)` samples.
    pub trace: ConvergenceTrace,
    /// Server model updates applied.
    pub updates: u64,
    /// Gradient tasks whose results were consumed.
    pub tasks_completed: u64,
    /// Maximum staleness observed across consumed results.
    pub max_staleness: u64,
    /// Virtual instant of the last applied update (the run's wall clock).
    pub wall_clock: VTime,
    /// Mean worker wait time over the run (§6.3's metric).
    pub mean_wait: VDur,
    /// Bytes shipped to workers over the run.
    pub bytes_shipped: u64,
    /// Stored feature entries touched by consumed gradient tasks — the
    /// deterministic work measure of the gradient hot path (dense blocks
    /// count the full row; CSR blocks only their nonzeros).
    pub grad_entries: u64,
    /// Modeled wire bytes of the consumed gradient-result messages
    /// (sparse deltas ship only their support).
    pub result_bytes: u64,
    /// Per-worker task clocks at the end of the run (one entry per worker
    /// the cluster ended with — mid-run joins appear at the tail).
    pub worker_clocks: Vec<u64>,
    /// The final model.
    pub final_w: Vec<f64>,
    /// Final objective value (not baseline-subtracted).
    pub final_objective: f64,
    /// Server-state checkpoints captured every
    /// [`SolverCfg::checkpoint_every`] updates (empty when disabled, and
    /// empty with [`SolverCfg::durable_dir`] set: the store is the record).
    pub checkpoints: Vec<Checkpoint>,
    /// Serving counters accumulated by readers attached through
    /// [`SolverCfg::serve_feed`] over the run (all zeros without one).
    pub serve: ServeCounters,
    /// Tasks abandoned to worker failures over this run (losses that were
    /// not, or could no longer be, retried under [`SolverCfg::retry_lost`]).
    /// A task lost in the end-of-run drain, after the update loop stopped,
    /// is not counted: its result would have been discarded anyway.
    pub lost_tasks: u64,
    /// Lost tasks successfully re-submitted to surviving workers over this
    /// run (always 0 with retries off).
    pub retried_tasks: u64,
    /// Durability outcome under [`SolverCfg::durable_dir`]: the generation
    /// the run auto-resumed from (if any) and the store's write counters
    /// (all defaults without a durable store).
    pub durable: DurableStats,
}

/// An asynchronous optimization algorithm runnable on an [`AsyncContext`].
pub trait AsyncSolver {
    /// Short name for reports ("asgd", "asaga", ...).
    fn name(&self) -> &'static str;

    /// Runs the algorithm to `cfg.max_updates` model updates. The context
    /// must be fresh (no in-flight tasks); the solver drains its own
    /// outstanding tasks before returning.
    fn run(&mut self, ctx: &mut AsyncContext, dataset: &Dataset, cfg: &SolverCfg) -> RunReport;
}

/// A task's result message, as the run lifecycle meters and recycles it.
pub(crate) trait ResultMsg: Send + 'static {
    /// The model delta the message carries.
    fn delta(&self) -> &GradDelta;
    /// Stored feature entries the task's kernels touched.
    fn entries(&self) -> u64;
    /// Modeled wire bytes of the message.
    fn wire_bytes(&self) -> u64;
    /// Returns the message's buffers to `pool`.
    fn recycle(self, pool: &ScratchPool);
}

/// A mini-batch gradient computed by one task — the message shape shared
/// by the plain-SGD-family solvers ([`crate::Asgd`], [`crate::AsyncMsgd`]).
pub(crate) struct GradMsg {
    /// `(1/b) Σ f'(xᵢᵀw, yᵢ)·xᵢ` over the sampled rows (no ridge term),
    /// sparse over CSR partitions. With compression on this is the
    /// dequantized top-k selection, not the raw gradient.
    pub g: GradDelta,
    /// Stored feature entries the gradient kernel touched.
    pub entries: u64,
    /// Modeled wire bytes of this message: the delta's own encoding when
    /// compression is off, the compressed frame size otherwise.
    pub wire_bytes: u64,
}

impl ResultMsg for GradMsg {
    fn delta(&self) -> &GradDelta {
        &self.g
    }
    fn entries(&self) -> u64 {
        self.entries
    }
    fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }
    fn recycle(self, pool: &ScratchPool) {
        pool.recycle_delta(self.g);
    }
}

/// The per-run inputs every task wave is built from.
pub(crate) struct WaveSource<'a> {
    pub rdd: &'a Rdd<Block>,
    pub bcast: &'a AsyncBcast<Vec<f64>>,
    pub cfg: &'a SolverCfg,
    /// Expected mini-batch rows per task (the `STAT` table's batch size).
    pub minibatch_hint: u64,
    pub pool: &'a ScratchPool,
    pub bank: &'a CompressorBank,
}

/// Submits one [`GradMsg`] gradient wave: a mini-batch gradient task per
/// barrier-admitted worker, with only the current model's 8-byte version
/// ID as task payload and a cost of ~2 work units per sampled nonzero
/// (one fused margins-plus-gather pass).
///
/// Tasks draw every transient buffer from the pool and resolve the model
/// through the incremental path (`value_incremental`, which is exactly the
/// plain fetch when the broadcast's ring is disabled); results are
/// bit-identical to the pre-pool implementation.
pub(crate) fn submit_grad_wave(
    ctx: &mut AsyncContext,
    src: &WaveSource<'_>,
    objective: Objective,
) -> Vec<usize> {
    let handle = src.bcast.handle();
    let version = ctx.version();
    let (seed, fraction) = (src.cfg.seed, src.cfg.batch_fraction);
    let compress = src.cfg.compress;
    let pool = src.pool.clone();
    let bank = src.bank.clone();
    let task = move |wctx: &mut WorkerCtx, data: Vec<Block>, part: usize| {
        let block = &data[0];
        let w = handle.value_incremental(wctx);
        let mut scratch = pool.checkout();
        let mut rng = sampler::derive_rng(seed, version, part as u64);
        sampler::sample_fraction_into(&mut rng, block.rows(), fraction, &mut scratch.rows);
        let g = objective.minibatch_grad_delta_pooled(block, &w, &mut scratch, &pool);
        let entries = block.features().rows_nnz(&scratch.rows);
        pool.give_back(scratch);
        let (g, wire_bytes) = match compress {
            CompressCfg::Off => {
                let wire = g.encoded_len();
                (g, wire)
            }
            CompressCfg::TopK { k, quant } => bank.compress(part, g, k, quant, &pool),
        };
        GradMsg {
            g,
            entries,
            wire_bytes,
        }
    };
    let opts = SubmitOpts {
        extra_bytes: AsyncBcast::<Vec<f64>>::id_ship_bytes(0),
        cost_scale: 2.0 * fraction,
        minibatch: src.minibatch_hint,
        ..SubmitOpts::default()
    };
    // The wire form for the remote backend: the request ships the model's
    // wire plan plus the pure sampling inputs, and the worker re-derives
    // the identical batch (`derive_rng` is a pure function of seed,
    // version, and partition). In-process engines ignore it.
    let routine = crate::remote::grad_routine(
        src.rdd, src.bcast, objective, seed, version, fraction, compress,
    );
    ctx.async_reduce_wired(src.rdd, &src.cfg.barrier, opts, task, Some(&routine))
}

/// The step-size factor of a result `staleness` updates old:
/// `1/(1 + staleness)` under [`SolverCfg::staleness_damping`], else 1.
pub(crate) fn staleness_damp(cfg: &SolverCfg, staleness: u64) -> f64 {
    if cfg.staleness_damping {
        1.0 / (1.0 + staleness as f64)
    } else {
        1.0
    }
}

/// The part of a run that differs between solvers — in the paper's terms,
/// the update rule (Listings 3–4). Everything else is [`RunLifecycle`]'s.
pub(crate) trait SolverStep {
    /// One task's result.
    type Msg: ResultMsg;
    /// Report and checkpoint name (`"asgd"`, `"async-msgd"`, `"asaga"`).
    const NAME: &'static str;

    /// The objective being minimized.
    fn objective(&self) -> Objective;

    /// Per-sample history slots of the model broadcast (0: none).
    fn history_indices(&self) -> u64 {
        0
    }

    /// Installs the run's starting history at model `w`: a resumed
    /// checkpoint's `history` (already checked to be this solver's kind),
    /// or the cold-start state when `None`. Plain ASGD has none.
    fn restore(
        &mut self,
        _history: Option<SolverHistory>,
        _w: &[f64],
        _dataset: &Dataset,
        _cfg: &SolverCfg,
        _pool: &ScratchPool,
    ) {
    }

    /// The history a checkpoint captures now.
    fn history(&self) -> SolverHistory;

    /// Submits one task wave at the context's current version and returns
    /// the admitted workers (the lifecycle pins and records them).
    fn submit(&self, ctx: &mut AsyncContext, src: &WaveSource<'_>) -> Vec<usize>;

    /// Applies one collected wave to `w` (the lifecycle then meters it,
    /// releases its pins, and advances the model version). Returns `true`
    /// when the update's change support is exactly the wave's sparse
    /// delta support — the precondition for declaring a sparse version
    /// diff to the incremental broadcast.
    fn absorb(
        &mut self,
        ctx: &AsyncContext,
        server: &mut ShardedAbsorber,
        w: &mut [f64],
        wave: &[Tagged<Self::Msg>],
        bcast: &AsyncBcast<Vec<f64>>,
        cfg: &SolverCfg,
    ) -> bool;
}

/// Where a run's checkpoints go: the durable store when
/// [`SolverCfg::durable_dir`] is set, else [`RunReport::checkpoints`].
enum CheckpointSink {
    Durable(DurableSession),
    Memory(Vec<Checkpoint>),
}

/// The run plumbing every solver shares — durable open and resume, the
/// broadcast, compression bank, serving feed, pins, the wave loop with its
/// degrade gate and stall path, metering, eval and checkpoint cadence, the
/// drain, and the report — around a [`SolverStep`]. Holds what the next
/// run starts from: an explicit resume checkpoint and an injected
/// compressor bank, both consumed by [`RunLifecycle::run`].
#[derive(Debug, Clone, Default)]
pub(crate) struct RunLifecycle {
    pub resume: Option<Checkpoint>,
    pub bank: Option<CompressorBank>,
}

impl RunLifecycle {
    /// Runs `step` to `cfg.max_updates` model updates on a fresh context.
    pub fn run<S: SolverStep>(
        &mut self,
        mut step: S,
        ctx: &mut AsyncContext,
        dataset: &Dataset,
        cfg: &SolverCfg,
    ) -> RunReport {
        let name = S::NAME;
        assert_eq!(ctx.pending(), 0, "{name}: context has in-flight tasks");
        ctx.set_degrade_policy(cfg.degrade);
        ctx.set_retry_lost(cfg.retry_lost);
        // Contexts are reused across runs: report only this run's losses.
        let (lost0, retried0) = (ctx.lost_tasks(), ctx.retried_tasks());
        let (blocks, rdd) = block_rdd(ctx, dataset, cfg);
        let dcols = dataset.cols();
        let mean_rows = dataset.rows() / blocks.len().max(1);
        let minibatch_hint = ((mean_rows as f64 * cfg.batch_fraction).ceil() as u64).max(1);
        let objective = step.objective();
        // Steady-state buffer recycling: gradients, sampling buffers, and
        // the result deltas all cycle through the pool.
        let pool = ScratchPool::new();
        let bank = self.bank.take().unwrap_or_default();

        // An explicit `resume_from` takes precedence over the durable
        // store's newest valid generation; a durable auto-resume completes
        // the crashed run's lineage budget instead of adding a fresh one.
        let mut sink = match cfg.durable_dir.as_deref() {
            Some(dir) => {
                CheckpointSink::Durable(DurableSession::open(dir).unwrap_or_else(|e| {
                    panic!("{name}: cannot open durable checkpoint store: {e:?}")
                }))
            }
            None => CheckpointSink::Memory(Vec::new()),
        };
        let explicit = self.resume.take();
        let from_store = explicit.is_none();
        let resume = match (explicit, &mut sink) {
            (None, CheckpointSink::Durable(session)) => session.take_resume(),
            (explicit, _) => explicit,
        };
        let (mut w, base_updates, base_version, history) = match resume {
            Some(ckpt) => {
                ckpt.validate_for(name, dcols)
                    .unwrap_or_else(|e| panic!("{name}: incompatible resume checkpoint: {e:?}"));
                assert!(
                    mem::discriminant(&ckpt.history) == mem::discriminant(&step.history()),
                    "{name}: checkpoint carries foreign solver history"
                );
                for warning in cfg.lint_resume(&ckpt) {
                    eprintln!("{name} resume: {warning}");
                }
                // Continue the crashed run's version numbering: per-task
                // RNG streams key on (seed, version, part), so re-seating
                // is what makes the resumed trajectory line up with the
                // uninterrupted one.
                ctx.reseat_version(ckpt.version);
                // Reload the error-feedback residuals so compression
                // continues bit-identically instead of restarting cold.
                if let Some(residuals) = &ckpt.residuals {
                    bank.restore_residuals(residuals);
                }
                (ckpt.w, ckpt.updates, ckpt.version, Some(ckpt.history))
            }
            None => (vec![0.0; dcols], 0, 0, None),
        };
        step.restore(history, &w, dataset, cfg, &pool);
        let budget = if from_store {
            cfg.max_updates.saturating_sub(base_updates)
        } else {
            cfg.max_updates
        };
        // The ring is seated at the resumed version so broadcast IDs keep
        // the crashed run's numbering.
        let bcast = ctx.async_broadcast_at(w.clone(), step.history_indices(), base_version);
        if cfg.bcast_ring > 0 {
            bcast.enable_incremental(cfg.bcast_ring);
            // With compression on, the same wire format also applies to
            // the driver → worker version-diff patches.
            if let CompressCfg::TopK { quant, .. } = cfg.compress {
                bcast.set_patch_quant(quant);
            }
        }
        // A bank reused across runs (or re-keyed after churn) keeps only
        // this run's partition universe — stale entries cannot accrete.
        bank.retain_parts_below(blocks.len().max(1));
        if let Some(feed) = cfg.serve_feed.as_ref() {
            feed.publish(PublishedModel {
                bcast: bcast.clone(),
                objective,
                dim: dcols,
            });
        }

        let mut trace = ConvergenceTrace::new();
        let f0 = objective.full_objective(cfg.eval_threads, dataset, &w);
        trace.push(ctx.now(), f0 - cfg.baseline);

        let src = WaveSource {
            rdd: &rdd,
            bcast: &bcast,
            cfg,
            minibatch_hint,
            pool: &pool,
            bank: &bank,
        };
        let mut pinned = PinLedger::new(&bcast, ctx.workers());
        submit_pinned(&step, ctx, &src, &mut pinned);

        // The sharded server: apply passes (and snapshot memcpys) run
        // shard-parallel on its persistent pool; with absorb_batch > 1 a
        // wave of ready results is absorbed with one snapshot push.
        let mut server = ShardedAbsorber::new(dcols, cfg.server_threads);
        let absorb_batch = cfg.absorb_batch.max(1);
        let mut wave: Vec<Tagged<S::Msg>> = Vec::new();
        let mut updates = 0u64;
        let mut tasks_completed = 0u64;
        let mut max_staleness = 0u64;
        let mut grad_entries = 0u64;
        let mut result_bytes = 0u64;
        let mut wall_clock = ctx.now();
        while updates < budget {
            // The degrade-policy gate: FailFast halts on any observed
            // death, Quorum/BestEffort wait toward scheduled recoveries
            // when the alive set is too thin to proceed.
            if !wave_admitted(ctx) {
                break;
            }
            let want = absorb_batch.min((budget - updates) as usize);
            // Block for the first result, then drain up to `want − 1`
            // already-arrived ones; empty only when every in-flight task
            // was lost.
            wave.clear();
            ctx.collect_up_to_into(want, &mut wave);
            if wave.is_empty() {
                // Total stall: every in-flight task was lost to failures.
                // If chaos has since revived or joined workers, a fresh
                // wave restarts the run; otherwise wait for a scheduled
                // recovery (supervised respawn, scripted revival) — and
                // only when none exists is the cluster truly dead.
                if submit_pinned(&step, ctx, &src, &mut pinned) || stalled_should_wait(ctx) {
                    continue;
                }
                break;
            }
            let sparse_support = step.absorb(ctx, &mut server, &mut w, &wave, &bcast, cfg);
            for t in &wave {
                tasks_completed += 1;
                max_staleness = max_staleness.max(t.attrs.staleness);
                grad_entries += t.value.entries();
                result_bytes += t.value.wire_bytes();
                pinned.release(&t.attrs);
            }
            let prev_updates = updates;
            updates += wave.len() as u64;
            // One model version (and one snapshot push) per wave: with
            // absorb_batch = 1 this is exactly the historical
            // version-per-delta cadence.
            ctx.advance_version();
            let support = if !sparse_support {
                None
            } else if wave.len() == 1 {
                match wave[0].value.delta() {
                    GradDelta::Sparse(s) => Some(s.indices()),
                    GradDelta::Dense(_) => None,
                }
            } else {
                Some(server.wave_support())
            };
            bcast.push_snapshot_sharded(&w, support, server.pool());
            for t in wave.drain(..) {
                t.value.recycle(&pool);
            }
            wall_clock = ctx.now();
            if cfg.eval_every > 0 && crossed_multiple(prev_updates, updates, cfg.eval_every) {
                let f = objective.full_objective(cfg.eval_threads, dataset, &w);
                trace.push(wall_clock, f - cfg.baseline);
            }
            if cfg.checkpoint_every > 0
                && crossed_multiple(prev_updates, updates, cfg.checkpoint_every)
            {
                sink.capture(&step, base_updates + updates, ctx.version(), &w, &bank);
            }
            submit_pinned(&step, ctx, &src, &mut pinned);
        }

        let final_objective = objective.full_objective(cfg.eval_threads, dataset, &w);
        trace.push(wall_clock, final_objective - cfg.baseline);

        // Final durable save (deduplicated when the run ended exactly on a
        // cadence boundary), then drain the writer before reporting.
        if let CheckpointSink::Durable(_) = sink {
            sink.capture(&step, base_updates + updates, ctx.version(), &w, &bank);
        }
        let (checkpoints, durable) = match sink {
            CheckpointSink::Durable(session) => (Vec::new(), session.finish()),
            CheckpointSink::Memory(checkpoints) => (checkpoints, DurableStats::default()),
        };

        // The run is over: abandon queued retries up front so the drain
        // doesn't re-issue work nobody will consume; those tasks were lost
        // while the run still needed them and count as lost. A task lost
        // during the drain costs the run nothing (the drain discards every
        // result), so losses are counted before it, and the second cancel
        // only clears retries left unplaceable by the drain.
        ctx.cancel_retries();
        let lost_tasks = ctx.lost_tasks() - lost0;
        while let Some(t) = ctx.collect::<S::Msg>() {
            pinned.release(&t.attrs);
            t.value.recycle(&pool);
        }
        ctx.cancel_retries();
        // Tasks lost to worker failures never surface: release their pins
        // so the model versions they held can prune.
        pinned.release_leftovers();

        let serve = cfg
            .serve_feed
            .as_ref()
            .map(|feed| {
                feed.mark_done();
                feed.counters()
            })
            .unwrap_or_default();

        RunReport {
            trace,
            updates,
            tasks_completed,
            max_staleness,
            wall_clock,
            mean_wait: ctx.driver().wait_recorder().overall_mean(),
            bytes_shipped: ctx.driver().total_bytes_shipped(),
            grad_entries,
            result_bytes,
            worker_clocks: ctx.stat().workers.iter().map(|s| s.clock).collect(),
            final_w: w,
            final_objective,
            checkpoints,
            serve,
            lost_tasks,
            retried_tasks: ctx.retried_tasks() - retried0,
            durable,
        }
    }
}

impl CheckpointSink {
    /// The one checkpoint capture: an owned snapshot of the server state
    /// after `updates` lineage updates at model `version`, sent to the
    /// sink (the durable session drops a generation it already holds).
    fn capture<S: SolverStep>(
        &mut self,
        step: &S,
        updates: u64,
        version: u64,
        w: &[f64],
        bank: &CompressorBank,
    ) {
        let ckpt = Checkpoint {
            solver: S::NAME.to_string(),
            updates,
            version,
            w: w.to_vec(),
            history: step.history(),
            residuals: Some(bank.export_residuals()),
        };
        match self {
            CheckpointSink::Durable(session) => session.submit(ckpt),
            CheckpointSink::Memory(checkpoints) => checkpoints.push(ckpt),
        }
    }
}

/// Submits one wave through `step` and pins it; returns whether any
/// worker was admitted.
fn submit_pinned<S: SolverStep>(
    step: &S,
    ctx: &mut AsyncContext,
    src: &WaveSource<'_>,
    pinned: &mut PinLedger,
) -> bool {
    let version = ctx.version();
    let ws = step.submit(ctx, src);
    pinned.pin_wave(version, &ws);
    !ws.is_empty()
}

/// The policy gate at every wave boundary: `Proceed` falls through,
/// `Wait` blocks toward the engine's next scheduled recovery, `Halt` (or
/// a wait nothing can satisfy) tells the caller to end the run. With the
/// default policy and a non-empty alive set this is a pure read.
fn wave_admitted(ctx: &mut AsyncContext) -> bool {
    match ctx.degrade_directive() {
        WaveDirective::Proceed => true,
        WaveDirective::Halt => false,
        WaveDirective::Wait => ctx.await_recovery(),
    }
}

/// The stall decision after a fresh submission admitted nobody: wait for a
/// scheduled recovery unless the policy already says halt. Returns `true`
/// when the caller should retry the wave. When nothing is scheduled,
/// `await_recovery` returns immediately and this reproduces the historical
/// unconditional give-up.
fn stalled_should_wait(ctx: &mut AsyncContext) -> bool {
    !matches!(ctx.degrade_directive(), WaveDirective::Halt) && ctx.await_recovery()
}

/// The history-broadcast pins held by in-flight (or lost) tasks, per
/// worker. Under static membership a worker holds at most one pin, but
/// under churn a worker can accumulate pins from *lost* incarnations (a
/// task dies with its worker and never surfaces) while its revived self
/// holds a live one — so the ledger keeps a list per worker and releases
/// every leftover at run end. It also grows on demand: mid-run joins push
/// worker ids past the cluster's starting size.
struct PinLedger {
    bcast: AsyncBcast<Vec<f64>>,
    by_worker: Vec<Vec<u64>>,
}

impl PinLedger {
    /// A ledger over `bcast` for a cluster starting with `n` workers.
    fn new(bcast: &AsyncBcast<Vec<f64>>, n: usize) -> Self {
        Self {
            bcast: bcast.clone(),
            by_worker: vec![Vec::new(); n],
        }
    }

    /// Pins `version` once per task of a wave submitted to `workers` —
    /// so a queued task on the threaded backend never sees its version
    /// pruned, and ASAGA's `record_use` at consumption finds it alive.
    fn pin_wave(&mut self, version: u64, workers: &[usize]) {
        for &w in workers {
            self.bcast.pin(version);
            if self.by_worker.len() <= w {
                self.by_worker.resize_with(w + 1, Vec::new);
            }
            self.by_worker[w].push(version);
        }
    }

    /// Releases the pin of a consumed result. A retried task completes on
    /// a *different* worker than the one whose submission recorded the
    /// pin, so a primary-key miss falls back to the version wherever it
    /// was recorded — without the fallback the original entry would
    /// linger and `release_leftovers` would unpin it a second time.
    fn release(&mut self, attrs: &TaskAttrs) {
        let (worker, version) = (attrs.worker, attrs.issued_version);
        self.bcast.unpin(version);
        if let Some(pins) = self.by_worker.get_mut(worker) {
            if let Some(i) = pins.iter().position(|&v| v == version) {
                pins.swap_remove(i);
                return;
            }
        }
        for pins in &mut self.by_worker {
            if let Some(i) = pins.iter().position(|&v| v == version) {
                pins.swap_remove(i);
                return;
            }
        }
    }

    /// Releases every leftover pin — tasks lost to worker failures never
    /// surface, so their versions are unpinned here at run end.
    fn release_leftovers(self) {
        for v in self.by_worker.into_iter().flatten() {
            self.bcast.unpin(v);
        }
    }
}

/// True when `now` crossed a multiple of `every` that `prev` had not yet
/// reached — the wave-aware replacement for `now % every == 0`: identical
/// for unit steps, and still firing once per crossed multiple when a
/// batched wave advances `updates` by more than one.
fn crossed_multiple(prev: u64, now: u64, every: u64) -> bool {
    now / every > prev / every
}

/// Partitions `dataset` into `cfg.partitions` blocks (default: one per
/// worker) and wraps them in a one-block-per-partition RDD whose cost
/// hints are the blocks' nonzero counts.
pub fn block_rdd(
    ctx: &AsyncContext,
    dataset: &Dataset,
    cfg: &SolverCfg,
) -> (Vec<Block>, Rdd<Block>) {
    let nparts = if cfg.partitions == 0 {
        ctx.workers()
    } else {
        cfg.partitions
    };
    let blocks = dataset.partition(nparts);
    let costs: Vec<f64> = blocks.iter().map(|b| b.nnz() as f64).collect();
    let rdd = Rdd::parallelize_with_cost(blocks.iter().map(|b| vec![b.clone()]).collect(), costs);
    (blocks, rdd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_cluster::{ClusterSpec, CommModel, DelayModel};
    use async_data::SynthSpec;

    #[test]
    fn builder_matches_defaults_and_applies_setters() {
        let built = SolverCfg::builder().build().unwrap();
        let defaults = SolverCfg::default();
        assert_eq!(built.step, defaults.step);
        assert_eq!(built.batch_fraction, defaults.batch_fraction);
        assert_eq!(built.max_updates, defaults.max_updates);
        assert_eq!(built.seed, defaults.seed);
        assert_eq!(built.server_threads, defaults.server_threads);
        assert_eq!(built.absorb_batch, defaults.absorb_batch);
        let cfg = SolverCfg::builder()
            .step(0.02)
            .batch_fraction(0.5)
            .max_updates(77)
            .bcast_ring(4)
            .absorb_batch(3)
            .build()
            .unwrap();
        assert_eq!(cfg.step, 0.02);
        assert_eq!(cfg.batch_fraction, 0.5);
        assert_eq!(cfg.max_updates, 77);
        assert_eq!(cfg.bcast_ring, 4);
        assert_eq!(cfg.absorb_batch, 3);
    }

    #[test]
    fn builder_rejects_contradictions() {
        for bad in [0.0, -0.1, 1.5, f64::NAN] {
            assert!(matches!(
                SolverCfg::builder().batch_fraction(bad).build(),
                Err(SolverCfgError::BatchFraction(_))
            ));
        }
        assert!(matches!(
            SolverCfg::builder().absorb_batch(0).build(),
            Err(SolverCfgError::ZeroAbsorbBatch)
        ));
        assert!(matches!(
            SolverCfg::builder().server_threads(0).build(),
            Err(SolverCfgError::ZeroServerThreads)
        ));
        assert!(matches!(
            SolverCfg::builder()
                .compress(CompressCfg::TopK {
                    k: 0,
                    quant: async_linalg::Quant::I8
                })
                .build(),
            Err(SolverCfgError::ZeroTopK)
        ));
    }

    #[test]
    fn lint_flags_ring_with_dense_ridge_support() {
        let ringed = SolverCfg::builder().bcast_ring(8).build().unwrap();
        assert_eq!(
            ringed.lint(&Objective::LeastSquares { lambda: 1e-3 }).len(),
            1
        );
        assert!(ringed.lint(&Objective::Logistic { lambda: 0.0 }).is_empty());
        let no_ring = SolverCfg::builder().build().unwrap();
        assert!(no_ring
            .lint(&Objective::LeastSquares { lambda: 1e-3 })
            .is_empty());
    }

    #[test]
    fn lint_flags_top_k_with_dense_ridge_support() {
        let compressed = SolverCfg::builder()
            .compress(CompressCfg::TopK {
                k: 16,
                quant: async_linalg::Quant::Exact,
            })
            .build()
            .unwrap();
        // λ > 0 makes every update dense-support: one warning, naming k.
        let warnings = compressed.lint(&Objective::LeastSquares { lambda: 1e-3 });
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("top-16"));
        // λ = 0 (sparse supports) is the intended regime: silent.
        assert!(compressed
            .lint(&Objective::Logistic { lambda: 0.0 })
            .is_empty());
        // Both smells at once stack: ring + compression against a ridge.
        let both = SolverCfg::builder()
            .bcast_ring(8)
            .compress(CompressCfg::TopK {
                k: 16,
                quant: async_linalg::Quant::Exact,
            })
            .build()
            .unwrap();
        assert_eq!(
            both.lint(&Objective::LeastSquares { lambda: 1e-3 }).len(),
            2
        );
    }

    #[test]
    fn block_rdd_defaults_to_one_partition_per_worker() {
        let ctx = AsyncContext::sim(
            ClusterSpec::homogeneous(4, DelayModel::None).with_comm(CommModel::free()),
        );
        let (d, _) = SynthSpec::dense("t", 40, 4, 1).generate().unwrap();
        let (blocks, rdd) = block_rdd(&ctx, &d, &SolverCfg::default());
        assert_eq!(blocks.len(), 4);
        assert_eq!(rdd.num_partitions(), 4);
        let total: usize = blocks.iter().map(|b| b.rows()).sum();
        assert_eq!(total, 40);
        // Cost hints reflect block nonzeros (dense: rows × cols).
        assert_eq!(rdd.cost_hint(0), (blocks[0].rows() * 4) as f64);
    }
}
