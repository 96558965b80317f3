//! Staleness-adaptive momentum SGD — the paper's second ASGD-family
//! solver, the one that reads the `STAT` table to adapt under delay.
//!
//! Plain momentum is notoriously fragile under asynchrony: a gradient that
//! arrives `s` updates late keeps compounding through the velocity for
//! `1/(1−β)` further steps, so stale heavy-ball runs diverge exactly where
//! asynchrony helps most (stragglers). The standard remedy — highlighted
//! by the delay-adaptive rules in Assran et al.'s asynchrony survey and
//! implemented here — is to *damp momentum by observed staleness*: on each
//! consumed result the server queries [`AsyncContext::stat`] (the paper's
//! Table-1 `AC.STAT`), takes the observed staleness `s` (the result's own
//! tag, or the worst in-flight staleness in the table if larger), and
//! applies
//!
//! ```text
//! βₜ = β₀ / (1 + s)                 — momentum damping (always on)
//! γₜ = γ  / (1 + s)                 — step damping (cfg.staleness_damping)
//! uₜ = βₜ·uₜ₋₁ + ∇f(w) + λw
//! wₜ = wₜ₋₁ − γₜ·uₜ
//! ```
//!
//! Under BSP (s ≡ 0) this is exactly classical heavy-ball SGD; under ASP
//! against a straggler the velocity forgets stale directions at the rate
//! staleness is observed. Gradient tasks are the same [`crate::solver`]
//! wave as [`crate::Asgd`]'s (and the run around the update rule is the
//! same shared lifecycle), so the solver rides the sparse fast path on
//! CSR partitions (the velocity itself is dense — momentum mixes every
//! coordinate).

use async_core::{AsyncBcast, AsyncContext, Tagged};
use async_data::Dataset;

use crate::absorber::ShardedAbsorber;
use crate::checkpoint::{Checkpoint, SolverHistory};
use crate::compression::CompressorBank;
use crate::objective::Objective;
use crate::scratch::ScratchPool;
use crate::solver::{
    staleness_damp, submit_grad_wave, AsyncSolver, GradMsg, RunLifecycle, RunReport, SolverCfg,
    SolverStep, WaveSource,
};

/// Asynchronous momentum SGD with staleness-adaptive damping.
#[derive(Debug, Clone)]
pub struct AsyncMsgd {
    /// The objective being minimized.
    pub objective: Objective,
    /// Base momentum β₀, applied in full when a result arrives with zero
    /// observed staleness and damped as `β₀/(1+s)` otherwise.
    pub momentum: f64,
    next_run: RunLifecycle,
}

impl AsyncMsgd {
    /// A staleness-adaptive momentum solver with the conventional β₀ = 0.9.
    pub fn new(objective: Objective) -> Self {
        Self {
            objective,
            momentum: 0.9,
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

    /// Overrides the base momentum β₀.
    pub fn with_momentum(mut self, momentum: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&momentum),
            "momentum must be in [0, 1): {momentum}"
        );
        self.momentum = momentum;
        self
    }

    /// Seeds the next [`AsyncSolver::run`] from a checkpoint: the server
    /// model *and* the heavy-ball velocity restore bit-identically.
    ///
    /// Validated against the dataset at `run` time, which panics on a
    /// solver/dimension/history mismatch.
    pub fn resume_from(mut self, ckpt: Checkpoint) -> Self {
        self.next_run.resume = Some(ckpt);
        self
    }
}

impl AsyncSolver for AsyncMsgd {
    fn name(&self) -> &'static str {
        MsgdStep::NAME
    }

    fn run(&mut self, ctx: &mut AsyncContext, dataset: &Dataset, cfg: &SolverCfg) -> RunReport {
        let step = MsgdStep {
            objective: self.objective,
            momentum: self.momentum,
            u: Vec::new(),
            betas: Vec::new(),
            gammas: Vec::new(),
        };
        self.next_run.run(step, ctx, dataset, cfg)
    }
}

/// Momentum SGD's update rule; its history is the heavy-ball velocity.
struct MsgdStep {
    objective: Objective,
    momentum: f64,
    /// The velocity: dense by nature (momentum mixes every coordinate),
    /// updated in O(dim) per server update.
    u: Vec<f64>,
    betas: Vec<f64>,
    gammas: Vec<f64>,
}

impl SolverStep for MsgdStep {
    type Msg = GradMsg;
    const NAME: &'static str = "async-msgd";

    fn objective(&self) -> Objective {
        self.objective
    }

    fn restore(
        &mut self,
        history: Option<SolverHistory>,
        w: &[f64],
        _dataset: &Dataset,
        _cfg: &SolverCfg,
        pool: &ScratchPool,
    ) {
        self.u = match history {
            Some(SolverHistory::Momentum(u)) => {
                assert_eq!(u.len(), w.len(), "async-msgd: velocity dimension mismatch");
                u
            }
            _ => pool.checkout_dense(w.len()),
        };
    }

    fn history(&self) -> SolverHistory {
        SolverHistory::Momentum(self.u.clone())
    }

    fn submit(&self, ctx: &mut AsyncContext, src: &WaveSource<'_>) -> Vec<usize> {
        submit_grad_wave(ctx, src, self.objective)
    }

    fn absorb(
        &mut self,
        ctx: &AsyncContext,
        server: &mut ShardedAbsorber,
        w: &mut [f64],
        wave: &[Tagged<GradMsg>],
        _bcast: &AsyncBcast<Vec<f64>>,
        cfg: &SolverCfg,
    ) -> bool {
        // The staleness-adaptive rule: consult the STAT table for the
        // worst delay visible right now (one snapshot per wave), fold in
        // each result's own staleness tag, and damp momentum (and
        // optionally the step) per consumed result.
        let snap = ctx.stat();
        self.betas.clear();
        self.gammas.clear();
        for t in wave {
            let observed = t.attrs.staleness.max(snap.max_staleness());
            self.betas
                .push(self.momentum * (1.0 / (1.0 + observed as f64)));
            self.gammas.push(cfg.step * staleness_damp(cfg, observed));
        }
        // The per-coordinate recurrence is the serial one in either
        // branch; sharding (any thread count) and the wave form are both
        // bit-identical to stepping the batch one delta at a time with the
        // same (βₖ, γₖ) sequence. Momentum's recurrence has no fold form,
        // so batched waves apply delta-sequentially within each shard.
        let lambda = self.objective.lambda();
        if wave.len() == 1 {
            let g = &wave[0].value.g;
            server.msgd_step(w, &mut self.u, g, self.betas[0], self.gammas[0], lambda);
        } else {
            server.msgd_wave(
                w,
                &mut self.u,
                wave.len(),
                |k| &wave[k].value.g,
                &self.betas,
                &self.gammas,
                lambda,
            );
        }
        // Momentum mixes every coordinate: every version is a dense change.
        false
    }
}
