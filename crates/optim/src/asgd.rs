//! Asynchronous SGD — the paper's Listing 3 walk-through.
//!
//! Workers compute mini-batch gradients against the model version captured
//! at task submission; the server applies each collected gradient as soon
//! as it arrives (plus the ridge term), bumps the model version, pushes
//! the new model through the history broadcast (only the 8-byte version ID
//! travels with later tasks; workers fetch-and-cache values on miss), and
//! refills whichever workers the barrier filter admits.
//!
//! Gradients travel as [`async_linalg::GradDelta`]s: over CSR partitions
//! the task runs the sparse gather kernel and ships only the batch
//! support, which the server scatters onto the model without densifying —
//! the sparse fast path. Dense partitions use the dense kernel,
//! bit-identical to the original implementation. The task shape is shared
//! with [`crate::AsyncMsgd`], and the run around the update rule is
//! [`crate::solver`]'s shared lifecycle.

use async_core::{AsyncBcast, AsyncContext, Tagged};
use async_data::Dataset;

use crate::absorber::ShardedAbsorber;
use crate::checkpoint::{Checkpoint, SolverHistory};
use crate::compression::CompressorBank;
use crate::objective::Objective;
use crate::solver::{
    staleness_damp, submit_grad_wave, AsyncSolver, GradMsg, RunLifecycle, RunReport, SolverCfg,
    SolverStep, WaveSource,
};

/// Asynchronous stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Asgd {
    /// The objective being minimized.
    pub objective: Objective,
    next_run: RunLifecycle,
}

impl Asgd {
    /// An ASGD solver for `objective`.
    pub fn new(objective: Objective) -> Self {
        Self {
            objective,
            next_run: RunLifecycle::default(),
        }
    }

    /// Injects the [`CompressorBank`] the next run's tasks compress
    /// through (only consulted when [`crate::SolverCfg::compress`] is on).
    /// Tests inject a tracked bank here and inspect the error-feedback
    /// residuals after the run; by default each run builds its own.
    pub fn with_compressor_bank(mut self, bank: CompressorBank) -> Self {
        self.next_run.bank = Some(bank);
        self
    }

    /// Seeds the next [`AsyncSolver::run`] from a checkpoint: the server
    /// model restores bit-identically and newly captured checkpoints keep
    /// counting updates from the checkpoint's total.
    ///
    /// Validated against the dataset at `run` time, which panics on a
    /// solver/dimension/history mismatch.
    pub fn resume_from(mut self, ckpt: Checkpoint) -> Self {
        self.next_run.resume = Some(ckpt);
        self
    }
}

impl AsyncSolver for Asgd {
    fn name(&self) -> &'static str {
        AsgdStep::NAME
    }

    fn run(&mut self, ctx: &mut AsyncContext, dataset: &Dataset, cfg: &SolverCfg) -> RunReport {
        let step = AsgdStep {
            objective: self.objective,
            damps: Vec::new(),
        };
        self.next_run.run(step, ctx, dataset, cfg)
    }
}

/// ASGD's update rule: a (optionally staleness-damped) gradient step.
struct AsgdStep {
    objective: Objective,
    damps: Vec<f64>,
}

impl SolverStep for AsgdStep {
    type Msg = GradMsg;
    const NAME: &'static str = "asgd";

    fn objective(&self) -> Objective {
        self.objective
    }

    fn history(&self) -> SolverHistory {
        SolverHistory::None
    }

    fn submit(&self, ctx: &mut AsyncContext, src: &WaveSource<'_>) -> Vec<usize> {
        submit_grad_wave(ctx, src, self.objective)
    }

    fn absorb(
        &mut self,
        _ctx: &AsyncContext,
        server: &mut ShardedAbsorber,
        w: &mut [f64],
        wave: &[Tagged<GradMsg>],
        _bcast: &AsyncBcast<Vec<f64>>,
        cfg: &SolverCfg,
    ) -> bool {
        self.damps.clear();
        self.damps
            .extend(wave.iter().map(|t| staleness_damp(cfg, t.attrs.staleness)));
        let lambda = self.objective.lambda();
        // Single-delta waves take the exact serial expressions (sharded —
        // bit-identical for any thread count); larger waves take the fused
        // fold-then-apply pass. Either way the returned flag marks an
        // update whose change support is exactly the gradients' sparse
        // support.
        if wave.len() == 1 {
            server.asgd_step(w, &wave[0].value.g, cfg.step * self.damps[0], lambda)
        } else {
            let n = wave.len();
            server.asgd_wave(w, n, |k| &wave[k].value.g, &self.damps, cfg.step, lambda)
        }
    }
}
