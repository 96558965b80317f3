//! Asynchronous SAGA with history broadcast — the paper's Listing 4 /
//! Algorithm 4, the workload that motivates the `ASYNCbroadcaster`.
//!
//! SAGA's update needs, for every sampled row `j`, the gradient of `fⱼ` at
//! the model `φⱼ` as it was when `j` was *last* sampled. Shipping the table
//! of past models with every task is the overhead the paper calls out;
//! instead:
//!
//! * the server keeps the model history in an [`async_core::AsyncBcast`]
//!   and ships only **version IDs** (8 bytes per sample) with each task;
//! * the task resolves `w_current` and each `w_{φⱼ}` through its worker's
//!   local cache, fetching misses once;
//! * on consumption the server records the batch at the task's version
//!   (`record_use` — SAGA's "update table" step), which also drives
//!   reference-count pruning of history no sample can need again;
//! * versions with in-flight tasks are pinned from submission to
//!   consumption (with lost tasks' pins released at run end), so on the
//!   deterministic simulated engine — where task closures execute at
//!   submission, i.e. when the server attaches the version IDs — pruning
//!   can never invalidate a running task. On the threaded engine a
//!   worker's historical reads race later `record_use` calls; ASAGA is
//!   specified against `SimEngine`.
//!
//! The running table average `ᾱ = (1/n) Σⱼ f'ⱼ(φⱼ)·xⱼ` lives server-side,
//! seeded with one full-gradient pass at `w₀` (consistent with every row's
//! implicit initial version 0), and updated incrementally from each task's
//! telescoping delta.

use async_core::{AsyncBcast, AsyncContext, SubmitOpts, Tagged};
use async_data::sampler;
use async_data::{Block, Dataset};
use async_linalg::{GradDelta, Matrix};
use sparklet::{Payload, WorkerCtx};

use crate::absorber::ShardedAbsorber;
use crate::checkpoint::{Checkpoint, SolverHistory};
use crate::compression::{CompressCfg, CompressorBank};
use crate::objective::Objective;
use crate::scratch::ScratchPool;
use crate::solver::{
    staleness_damp, AsyncSolver, ResultMsg, RunLifecycle, RunReport, SolverCfg, SolverStep,
    WaveSource,
};

/// One task's SAGA contribution. Crate-visible so the remote wire codec
/// ([`crate::remote`]) can decode worker responses into the same message
/// type the in-process closures return.
pub(crate) struct DeltaMsg {
    /// `(1/b) Σⱼ (f'ⱼ(w_cur) − f'ⱼ(w_{φⱼ}))·xⱼ` over the batch, sparse
    /// over CSR partitions (the telescoping difference has the batch's
    /// support, so it ships and applies without densifying). With
    /// compression on this is the dequantized top-k selection.
    pub(crate) delta: GradDelta,
    /// Global row ids of the batch (for the server's table update) —
    /// never compressed: the table must record every sampled row.
    pub(crate) indices: Vec<u64>,
    /// Stored feature entries the two gradient evaluations touched.
    pub(crate) entries: u64,
    /// Modeled wire bytes of the delta: its own encoding when compression
    /// is off, the compressed frame size otherwise.
    pub(crate) wire_bytes: u64,
}

impl ResultMsg for DeltaMsg {
    fn delta(&self) -> &GradDelta {
        &self.delta
    }
    fn entries(&self) -> u64 {
        self.entries
    }
    fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }
    fn recycle(self, pool: &ScratchPool) {
        pool.recycle_ids(self.indices);
        pool.recycle_delta(self.delta);
    }
}

/// Asynchronous SAGA with server-side history.
#[derive(Debug, Clone)]
pub struct Asaga {
    /// The objective being minimized.
    pub objective: Objective,
    next_run: RunLifecycle,
}

impl Asaga {
    /// An ASAGA solver for `objective`.
    pub fn new(objective: Objective) -> Self {
        Self {
            objective,
            next_run: RunLifecycle::default(),
        }
    }

    /// Injects the [`CompressorBank`] the next run's tasks compress
    /// through (only consulted when [`crate::SolverCfg::compress`] is on);
    /// by default each run builds its own.
    pub fn with_compressor_bank(mut self, bank: CompressorBank) -> Self {
        self.next_run.bank = Some(bank);
        self
    }

    /// Seeds the next [`AsyncSolver::run`] from a checkpoint. The server
    /// model restores bit-identically; the SAGA table is *re-based* at the
    /// restored model — every sample's `φⱼ` becomes `w`, and ᾱ is
    /// recomputed as the full gradient at `w`, which is exactly consistent
    /// with that table (see the crate's checkpoint docs for why the
    /// pre-crash running ᾱ cannot be reused).
    ///
    /// Validated against the dataset at `run` time, which panics on a
    /// solver/dimension/history mismatch.
    pub fn resume_from(mut self, ckpt: Checkpoint) -> Self {
        self.next_run.resume = Some(ckpt);
        self
    }
}

impl AsyncSolver for Asaga {
    fn name(&self) -> &'static str {
        AsagaStep::NAME
    }

    fn run(&mut self, ctx: &mut AsyncContext, dataset: &Dataset, cfg: &SolverCfg) -> RunReport {
        let step = AsagaStep {
            objective: self.objective,
            n: dataset.rows(),
            alpha_bar: Vec::new(),
            damps: Vec::new(),
            scales: Vec::new(),
        };
        self.next_run.run(step, ctx, dataset, cfg)
    }
}

/// SAGA's update rule; its history is the running table mean ᾱ.
struct AsagaStep {
    objective: Objective,
    /// Samples in the dataset (the SAGA table's size).
    n: usize,
    /// ᾱ = mean table gradient, seeded at the starting model so it is
    /// exactly consistent with the version table.
    alpha_bar: Vec<f64>,
    damps: Vec<f64>,
    scales: Vec<f64>,
}

impl SolverStep for AsagaStep {
    type Msg = DeltaMsg;
    const NAME: &'static str = "asaga";

    fn objective(&self) -> Objective {
        self.objective
    }

    /// Every row's implicit initial version is the broadcast base: w₀ on
    /// a cold start, the re-based restored model on resume.
    fn history_indices(&self) -> u64 {
        self.n as u64
    }

    fn restore(
        &mut self,
        _history: Option<SolverHistory>,
        w: &[f64],
        dataset: &Dataset,
        cfg: &SolverCfg,
        _pool: &ScratchPool,
    ) {
        // A resumed table re-bases at the restored model: the broadcast
        // seats it as the base version, so every sample's implicit φⱼ is
        // `w`, and seeding ᾱ with the full gradient at `w` is exactly
        // consistent with that table (the checkpointed ᾱ described the
        // pre-crash table and is not reused).
        self.alpha_bar = vec![0.0; w.len()];
        self.objective
            .full_grad(cfg.eval_threads, dataset, w, &mut self.alpha_bar);
    }

    fn history(&self) -> SolverHistory {
        SolverHistory::Saga {
            alpha_bar: self.alpha_bar.clone(),
        }
    }

    fn submit(&self, ctx: &mut AsyncContext, src: &WaveSource<'_>) -> Vec<usize> {
        let handle = src.bcast.handle();
        let server_table = src.bcast.clone();
        let version = ctx.version();
        let obj = self.objective;
        let (seed, fraction) = (src.cfg.seed, src.cfg.batch_fraction);
        let compress = src.cfg.compress;
        let pool = src.pool.clone();
        let bank = src.bank.clone();
        let task = move |wctx: &mut WorkerCtx, data: Vec<Block>, part: usize| {
            let block = &data[0];
            let w_cur = handle.value(wctx);
            let mut scratch = pool.checkout();
            let mut rng = sampler::derive_rng(seed, version, part as u64);
            sampler::sample_fraction_into(&mut rng, block.rows(), fraction, &mut scratch.rows);
            let scale = 1.0 / scratch.rows.len().max(1) as f64;
            let labels = block.labels();
            let features = block.features();
            // Per-row telescoping coefficients `scale·(f'ⱼ(w_cur) −
            // f'ⱼ(w_{φⱼ}))`; the combination is gathered sparsely on CSR
            // partitions and scattered densely otherwise. The id and
            // coefficient buffers come from the pool; `ids` travels with
            // the result and is recycled server-side after the table
            // update.
            scratch.ids.clear();
            scratch.coefs.clear();
            for &r in &scratch.rows {
                let i = r as usize;
                let j = block.global_row(i);
                // The ID of the model version row j last saw — attached by
                // the server at submission (the simulated engine runs this
                // closure at exactly that instant).
                let vj = server_table.version_for_index(j);
                let w_old = handle.value_at(wctx, vj);
                let d_new = obj.dloss(features.row_dot(i, &w_cur), labels[i]);
                let d_old = obj.dloss(features.row_dot(i, &w_old), labels[i]);
                scratch.coefs.push(scale * (d_new - d_old));
                scratch.ids.push(j);
            }
            let delta = match features {
                Matrix::Sparse(csr) => {
                    let (mut idx, mut val) = pool.checkout_sparse();
                    csr.gather_axpy_into(
                        &scratch.rows,
                        &scratch.coefs,
                        &mut scratch.pairs,
                        &mut idx,
                        &mut val,
                    );
                    GradDelta::Sparse(
                        async_linalg::SparseVec::new(idx, val, block.cols())
                            .expect("gather kernel produces valid sparse output"),
                    )
                }
                Matrix::Dense(_) => {
                    let mut d = pool.checkout_dense(block.cols());
                    for (&r, &a) in scratch.rows.iter().zip(scratch.coefs.iter()) {
                        features.row_axpy(r as usize, a, &mut d);
                    }
                    GradDelta::Dense(d)
                }
            };
            // Two gradient evaluations per sampled row.
            let entries = 2 * features.rows_nnz(&scratch.rows);
            let indices = std::mem::take(&mut scratch.ids);
            pool.give_back(scratch);
            // The telescoping difference compresses like any other delta;
            // the table-update row ids always travel exact.
            let (delta, wire_bytes) = match compress {
                CompressCfg::Off => {
                    let wire = delta.encoded_len();
                    (delta, wire)
                }
                CompressCfg::TopK { k, quant } => bank.compress(part, delta, k, quant, &pool),
            };
            DeltaMsg {
                delta,
                indices,
                entries,
                wire_bytes,
            }
        };
        let opts = SubmitOpts {
            // One version ID per sample plus the current model's ID.
            extra_bytes: AsyncBcast::<Vec<f64>>::id_ship_bytes(src.minibatch_hint as usize),
            // Two gradient evaluations per sampled row.
            cost_scale: 4.0 * fraction,
            minibatch: src.minibatch_hint,
            ..SubmitOpts::default()
        };
        // The wire form for the remote backend: sampling and version
        // lookup run driver-side in `build` (the submission instant — the
        // same moment the simulator runs the closure above), and the
        // worker replays the arithmetic. In-process engines ignore it.
        let routine = crate::remote::asaga_routine(
            src.rdd, src.bcast, obj, seed, version, fraction, compress,
        );
        ctx.async_reduce_wired(src.rdd, &src.cfg.barrier, opts, task, Some(&routine))
    }

    fn absorb(
        &mut self,
        _ctx: &AsyncContext,
        server: &mut ShardedAbsorber,
        w: &mut [f64],
        wave: &[Tagged<DeltaMsg>],
        bcast: &AsyncBcast<Vec<f64>>,
        cfg: &SolverCfg,
    ) -> bool {
        self.damps.clear();
        self.scales.clear();
        for t in wave {
            // SAGA's table update: the batch is now recorded at the
            // version the task computed against (its pin is still held).
            bcast.record_use(&t.value.indices, t.attrs.issued_version);
            self.damps.push(staleness_damp(cfg, t.attrs.staleness));
            self.scales
                .push(t.value.indices.len() as f64 / self.n.max(1) as f64);
        }
        // SAGA's estimator uses ᾱ *before* each delta's own table
        // absorption: E[f'ⱼ(φⱼ)] over the pre-update table equals ᾱ_old,
        // which is what keeps g unbiased — the absorber preserves that
        // step/absorb interleaving per delta, sharded (bit-identical to
        // the serial order for any thread count).
        let lambda = self.objective.lambda();
        if wave.len() == 1 {
            server.asaga_step(
                w,
                &mut self.alpha_bar,
                &wave[0].value.delta,
                cfg.step * self.damps[0],
                lambda,
                self.scales[0],
            );
        } else {
            server.asaga_wave(
                w,
                &mut self.alpha_bar,
                wave.len(),
                |k| &wave[k].value.delta,
                &self.damps,
                cfg.step,
                lambda,
                &self.scales,
            );
        }
        false
    }
}
