//! The driver: stage execution, actions, and the low-level submission API.
//!
//! The driver plays Spark's DAG-scheduler role for the subset we need:
//! one-stage jobs (map + per-partition fold) with a full BSP barrier. It
//! owns the engine, the broadcast registry, and the cluster-wide wait-time
//! recorder. The asynchronous layer (`async-core`) bypasses stages and uses
//! [`Driver::submit_raw`] / [`Driver::next_completion`] directly.

use std::collections::VecDeque;
use std::sync::Arc;

use async_cluster::{
    ChaosAction, ChaosSchedule, ClusterSpec, VDur, VTime, WaitTimeRecorder, WorkerId,
};

use crate::broadcast::{BcastCharge, Broadcast, BroadcastRegistry};
use crate::builder::EngineBuilder;
use crate::engine::{Completion, Engine, EngineError, Task, TaskFn, WireTask};
use crate::payload::Payload;
use crate::rdd::{Data, Rdd};
use crate::worker::WorkerCtx;

/// Summary of one executed stage.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Driver time when the stage started submitting.
    pub start: VTime,
    /// Driver time when the last task result arrived (the barrier).
    pub end: VTime,
    /// Bytes shipped to workers during the stage (task payloads plus
    /// first-use broadcast transfers).
    pub bytes_shipped: u64,
    /// Tasks resubmitted after worker failures.
    pub resubmissions: u32,
    /// Per-worker completion time of its last task in this stage (`None`
    /// when the worker ran nothing).
    pub last_finish: Vec<Option<VTime>>,
}

/// Supervised auto-respawn policy: when a worker dies for *any* reason —
/// scripted chaos, a crashed process, a missed liveness or task deadline —
/// the driver schedules a revival after an exponentially backed-off,
/// jittered delay, unless the worker is crash-looping.
///
/// Delays are virtual durations, so the same policy is deterministic on
/// the simulator (byte-gateable) and maps to real elapsed time on the
/// threaded/remote backends. The jitter stream is seeded, never
/// wall-clock.
#[derive(Debug, Clone)]
pub struct SuperviseCfg {
    /// Delay before the first respawn attempt.
    pub backoff_base: VDur,
    /// Multiplier applied per consecutive crash (≥ 1).
    pub backoff_factor: f64,
    /// Ceiling on the backed-off delay (before jitter).
    pub backoff_max: VDur,
    /// Uniform jitter fraction: the delay is stretched by up to this
    /// fraction (e.g. `0.1` → ×[1.0, 1.1)). Keeps respawn herds apart.
    pub jitter_frac: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
    /// Circuit breaker: after this many consecutive crashes (each without
    /// `crash_window` of uptime in between) the worker is abandoned — no
    /// further respawns until something external revives it.
    pub max_crashes: u32,
    /// Uptime that counts as "recovered": a death after at least this much
    /// uptime starts a fresh crash streak.
    pub crash_window: VDur,
}

impl Default for SuperviseCfg {
    fn default() -> Self {
        Self {
            backoff_base: VDur::from_millis(10),
            backoff_factor: 2.0,
            backoff_max: VDur::from_millis(1_000),
            jitter_frac: 0.1,
            seed: 0x5EED_CAFE,
            max_crashes: 5,
            crash_window: VDur::from_millis(500),
        }
    }
}

/// Per-worker supervisor bookkeeping (see [`SuperviseCfg`]).
struct Supervisor {
    cfg: SuperviseCfg,
    rng: u64,
    /// A supervised revival is already scheduled; don't schedule another
    /// (one death can surface as several `Lost` completions when multiple
    /// tasks were in flight).
    scheduled: Vec<bool>,
    /// Consecutive crashes without `crash_window` of uptime in between.
    streak: Vec<u32>,
    /// When the worker last came (or started) up.
    up_since: Vec<VTime>,
    /// Circuit open: crash-looped past `max_crashes`, abandoned.
    broken: Vec<bool>,
    respawns: u64,
}

impl Supervisor {
    fn new(cfg: SuperviseCfg, workers: usize, now: VTime) -> Self {
        let rng = cfg.seed | 1;
        Self {
            cfg,
            rng,
            scheduled: vec![false; workers],
            streak: vec![0; workers],
            up_since: vec![now; workers],
            broken: vec![false; workers],
            respawns: 0,
        }
    }

    fn grow(&mut self, workers: usize, now: VTime) {
        while self.scheduled.len() < workers {
            self.scheduled.push(false);
            self.streak.push(0);
            self.up_since.push(now);
            self.broken.push(false);
        }
    }

    /// Next uniform sample in `[0, 1)` from the seeded jitter stream
    /// (splitmix64).
    fn unit(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Registers a death at `now`; returns the instant to schedule the
    /// respawn at, or `None` when the circuit is (now) open.
    fn on_death(&mut self, w: WorkerId, now: VTime) -> Option<VTime> {
        if self.broken[w] {
            return None;
        }
        if now.saturating_since(self.up_since[w]) >= self.cfg.crash_window {
            self.streak[w] = 0;
        }
        self.streak[w] += 1;
        if self.streak[w] > self.cfg.max_crashes {
            self.broken[w] = true;
            return None;
        }
        let exp = (self.streak[w] - 1).min(30);
        let backed = (self.cfg.backoff_base.as_micros() as f64
            * self.cfg.backoff_factor.powi(exp as i32))
        .min(self.cfg.backoff_max.as_micros() as f64);
        let jittered = backed * (1.0 + self.cfg.jitter_frac * self.unit());
        self.respawns += 1;
        Some(now + VDur::from_micros(jittered.round() as u64))
    }
}

/// The cluster driver. See the module docs.
pub struct Driver {
    engine: Box<dyn Engine>,
    registry: BroadcastRegistry,
    wait: WaitTimeRecorder,
    total_bytes: u64,
    total_tasks: u64,
    supervisor: Option<Supervisor>,
}

impl Driver {
    /// A driver over the deterministic simulated engine.
    pub fn sim(spec: ClusterSpec) -> Self {
        Self::from_engine(
            EngineBuilder::sim()
                .spec(spec)
                .build()
                .expect("sim construction is infallible"),
        )
    }

    /// A driver over the real-thread engine (see
    /// [`crate::threaded::ThreadedEngine::new`] for `time_scale`).
    pub fn threaded(spec: ClusterSpec, time_scale: f64) -> Self {
        Self::from_engine(
            EngineBuilder::threaded()
                .spec(spec)
                .time_scale(time_scale)
                .build()
                .expect("threaded construction is infallible"),
        )
    }

    /// A driver over any engine implementation.
    pub fn from_engine(engine: Box<dyn Engine>) -> Self {
        let n = engine.workers();
        Self {
            engine,
            registry: BroadcastRegistry::new(n),
            wait: WaitTimeRecorder::new(n),
            total_bytes: 0,
            total_tasks: 0,
            supervisor: None,
        }
    }

    /// Installs the supervised auto-respawn policy: every subsequent
    /// death observed through the completion stream schedules a backed-off
    /// jittered revival (see [`SuperviseCfg`]). Scripted
    /// [`ChaosSchedule`] revivals compose — reviving an alive worker is a
    /// no-op at fire time.
    pub fn supervise(&mut self, cfg: SuperviseCfg) {
        let now = self.engine.now();
        self.supervisor = Some(Supervisor::new(cfg, self.engine.workers(), now));
    }

    /// Respawns the supervisor has scheduled so far (0 when supervision is
    /// not installed).
    pub fn supervised_respawns(&self) -> u64 {
        self.supervisor.as_ref().map_or(0, |s| s.respawns)
    }

    /// True when the supervisor abandoned `w` after it crash-looped past
    /// [`SuperviseCfg::max_crashes`].
    pub fn circuit_open(&self, w: WorkerId) -> bool {
        self.supervisor
            .as_ref()
            .is_some_and(|s| w < s.broken.len() && s.broken[w])
    }

    /// Total workers (dead or alive).
    pub fn workers(&self) -> usize {
        self.engine.workers()
    }

    /// Ids of workers that have not failed.
    pub fn alive_workers(&self) -> Vec<WorkerId> {
        (0..self.engine.workers())
            .filter(|&w| self.engine.alive(w))
            .collect()
    }

    /// True when `w` is alive and idle.
    pub fn available(&self, w: WorkerId) -> bool {
        self.engine.available(w)
    }

    /// Current engine time.
    pub fn now(&self) -> VTime {
        self.engine.now()
    }

    /// Tasks currently in flight.
    pub fn pending(&self) -> usize {
        self.engine.pending()
    }

    /// The earliest still-scheduled membership event (including
    /// supervisor-scheduled revivals), or `None`. See
    /// [`Engine::next_event_at`].
    pub fn next_event_at(&self) -> Option<VTime> {
        self.engine.next_event_at()
    }

    /// The stable owner of partition `part` given the current set of alive
    /// workers (round-robin; reassigns automatically after failures,
    /// revivals, and joins).
    ///
    /// Returns [`EngineError::NoAliveWorkers`] when every worker has failed
    /// — ownership is undefined until a revival or join restores capacity.
    pub fn owner_of(&self, part: usize) -> Result<WorkerId, EngineError> {
        let alive = self.alive_workers();
        if alive.is_empty() {
            return Err(EngineError::NoAliveWorkers);
        }
        Ok(alive[part % alive.len()])
    }

    /// Partitions (out of `nparts`) owned by `w` under the current
    /// alive-worker assignment. Empty when no worker is alive (no owner
    /// exists) or `w` owns nothing.
    pub fn partitions_of(&self, w: WorkerId, nparts: usize) -> Vec<usize> {
        (0..nparts).filter(|&p| self.owner_of(p) == Ok(w)).collect()
    }

    /// Creates a classic broadcast variable.
    pub fn broadcast<T: Payload>(&mut self, value: T) -> Broadcast<T> {
        self.registry.create(value)
    }

    /// Cumulative bytes shipped to workers.
    pub fn total_bytes_shipped(&self) -> u64 {
        self.total_bytes
    }

    /// Cumulative tasks submitted.
    pub fn total_tasks(&self) -> u64 {
        self.total_tasks
    }

    /// The cluster-wide wait-time recorder.
    pub fn wait_recorder(&self) -> &WaitTimeRecorder {
        &self.wait
    }

    /// Replaces the wait recorder, returning the old one (experiments reset
    /// between warm-up and measurement).
    pub fn reset_wait_recorder(&mut self) -> WaitTimeRecorder {
        std::mem::replace(&mut self.wait, WaitTimeRecorder::new(self.engine.workers()))
    }

    /// Immediately fails a worker.
    pub fn kill_worker(&mut self, w: WorkerId) {
        self.engine.kill_worker(w);
    }

    /// Brings a dead worker back as a fresh executor. The revival surfaces
    /// as a [`Completion::WorkerUp`] through the completion stream, at
    /// which point the driver resets the worker's broadcast bookkeeping (a
    /// fresh executor re-receives every broadcast on first use).
    pub fn revive_worker(&mut self, w: WorkerId) -> Result<(), EngineError> {
        self.engine.revive_worker(w)
    }

    /// Adds a brand-new worker mid-run and returns its id. Driver-side
    /// bookkeeping (broadcast registry, wait recorder) grows immediately;
    /// [`Completion::WorkerUp`] surfaces through the completion stream for
    /// higher layers (e.g. the async coordinator's `STAT` table).
    pub fn add_worker(&mut self) -> WorkerId {
        let w = self.engine.add_worker();
        self.grow_bookkeeping();
        w
    }

    /// Schedules a failure at a virtual instant (real elapsed time on the
    /// threaded and remote backends).
    pub fn schedule_failure(&mut self, w: WorkerId, at: VTime) {
        self.engine.schedule_failure(w, at);
    }

    /// Schedules a revival at a virtual instant (no-op at fire time if the
    /// worker is alive).
    pub fn schedule_revival(&mut self, w: WorkerId, at: VTime) {
        self.engine.schedule_revival(w, at);
    }

    /// Schedules a brand-new worker to join at a virtual instant.
    ///
    /// Id-allocation timing differs by backend: the simulator assigns the
    /// joiner's id at *scheduling* time (so `workers()` grows immediately,
    /// though the worker stays dead until its instant), while the threaded
    /// and remote backends assign it when the event *fires*. Either way the worker
    /// only becomes schedulable once its [`Completion::WorkerUp`] pops.
    pub fn schedule_join(&mut self, at: VTime) {
        self.engine.schedule_join(at);
        self.grow_bookkeeping();
    }

    /// Installs a whole membership-churn script: every event is mapped to
    /// the engine's scheduling primitives (the simulator fires them at
    /// exact virtual instants inside its deterministic event queue; the
    /// threaded and remote backends apply them when real elapsed time
    /// passes them — on the remote backend as actual process kills and
    /// respawns).
    pub fn install_chaos(&mut self, schedule: &ChaosSchedule) {
        for ev in schedule.events() {
            match ev.action {
                ChaosAction::Kill(w) => self.schedule_failure(w, ev.at),
                ChaosAction::Revive(w) => self.schedule_revival(w, ev.at),
                ChaosAction::Join => self.schedule_join(ev.at),
            }
        }
    }

    /// Grows driver bookkeeping to the engine's worker count (joins may
    /// have been requested engine-side; growth is idempotent).
    fn grow_bookkeeping(&mut self) {
        while self.wait.workers() < self.engine.workers() {
            self.wait.add_worker();
            self.registry.add_worker();
        }
    }

    /// Folds a membership notification into driver bookkeeping: joined
    /// workers get fresh rows, revived workers get their broadcast state
    /// reset (a fresh executor re-receives every broadcast on first use).
    fn note_membership(&mut self, c: &Completion) {
        match *c {
            Completion::WorkerUp { worker } => {
                if worker < self.registry.workers() {
                    self.registry.reset_worker(worker);
                    // Defensive: a wait left open by a pre-failure life
                    // must not span the downtime.
                    self.wait.cancel_open(worker);
                } else {
                    self.grow_bookkeeping();
                }
            }
            Completion::Lost { worker, .. } | Completion::WorkerDown { worker } => {
                // A dead worker is not waiting at a barrier: discard its
                // open wait so downtime never inflates mean wait times.
                self.wait.cancel_open(worker);
            }
            Completion::Done(_) => {}
        }
        self.supervise_membership(c);
    }

    /// The supervisor's half of membership bookkeeping: deaths schedule
    /// backed-off revivals, ups reset the crash window. One death can
    /// surface as several `Lost` completions (multiple tasks in flight);
    /// the `scheduled` latch collapses them into one respawn.
    fn supervise_membership(&mut self, c: &Completion) {
        let now = self.engine.now();
        let workers = self.engine.workers();
        let Some(sup) = self.supervisor.as_mut() else {
            return;
        };
        sup.grow(workers, now);
        match *c {
            Completion::WorkerUp { worker } => {
                sup.scheduled[worker] = false;
                sup.up_since[worker] = now;
            }
            Completion::Lost { worker, .. } | Completion::WorkerDown { worker } => {
                if !sup.scheduled[worker] {
                    if let Some(at) = sup.on_death(worker, now) {
                        sup.scheduled[worker] = true;
                        self.engine.schedule_revival(worker, at);
                    }
                }
            }
            Completion::Done(_) => {}
        }
    }

    // ------------------------------------------------------------------
    // Low-level API (used by async-core).
    // ------------------------------------------------------------------

    /// Submits a raw task to worker `w`, charging first-use broadcast
    /// transfers plus `extra_bytes` of task payload (e.g. history-broadcast
    /// version IDs) and recording the worker's wait end.
    pub fn submit_raw(
        &mut self,
        w: WorkerId,
        tag: u64,
        cost: f64,
        extra_bytes: u64,
        uses: &[BcastCharge],
        run: TaskFn,
    ) -> Result<(), EngineError> {
        self.submit_raw_wired(w, tag, cost, extra_bytes, uses, run, None)
    }

    /// [`Driver::submit_raw`] with an optional wire form of the task. When
    /// `wire` is `Some` and the engine is networked (the remote backend),
    /// the wire form crosses the socket and `run` is used for its
    /// driver-side bookkeeping only; in-process engines drop the wire form
    /// and execute `run` as usual. See [`WireTask`].
    #[allow(clippy::too_many_arguments)]
    pub fn submit_raw_wired(
        &mut self,
        w: WorkerId,
        tag: u64,
        cost: f64,
        extra_bytes: u64,
        uses: &[BcastCharge],
        run: TaskFn,
        wire: Option<WireTask>,
    ) -> Result<(), EngineError> {
        let bytes = self.registry.charge_for(w, uses) + extra_bytes;
        self.wait.task_received(w, self.engine.now());
        self.total_tasks += 1;
        let task = Task {
            tag,
            cost,
            bytes_in: bytes,
            run,
        };
        match wire {
            Some(wire) => self.engine.submit_wired(w, task, wire),
            None => self.engine.submit(w, task),
        }
    }

    /// Blocks for the next completion (advancing virtual time), recording
    /// wait starts for finished workers and folding membership changes
    /// (revivals, joins) into driver bookkeeping.
    pub fn next_completion(&mut self) -> Option<Completion> {
        let c = self.engine.next();
        if let Some(ref c) = c {
            self.note_membership(c);
            if let Completion::Done(d) = c {
                self.wait.result_submitted(d.worker, d.finished_at);
                self.total_bytes += d.bytes_in;
            }
        }
        c
    }

    /// Non-blocking completion poll ("has the server received results as of
    /// now" — the simulator does not advance its clock).
    pub fn try_next_completion(&mut self) -> Option<Completion> {
        let c = self.engine.try_next();
        if let Some(ref c) = c {
            self.note_membership(c);
            if let Completion::Done(d) = c {
                self.wait.result_submitted(d.worker, d.finished_at);
                self.total_bytes += d.bytes_in;
            }
        }
        c
    }

    // ------------------------------------------------------------------
    // BSP stages and actions.
    // ------------------------------------------------------------------

    /// Runs one BSP stage: applies `f` to every partition of `rdd` (the
    /// task materializes the partition via lineage, then folds it with
    /// `f`), waits for all partitions — the synchronous barrier — and
    /// returns the per-partition results in partition order.
    ///
    /// `uses` lists broadcast variables the closure captures so their
    /// first-use transfer can be billed per worker. `cost_scale` multiplies
    /// the RDD cost hints (e.g. a gradient pass costs ~2 work units per
    /// nonzero).
    ///
    /// Tasks lost to worker failures are resubmitted to surviving workers
    /// (lineage makes this safe); workers revived mid-stage steal queued
    /// work, and workers joined mid-stage are picked up by the next stage.
    ///
    /// # Errors
    /// Returns [`EngineError::NoAliveWorkers`] if every worker dies (with
    /// no revival in sight) before the stage completes.
    pub fn run_stage<T, R, F>(
        &mut self,
        rdd: &Rdd<T>,
        uses: &[BcastCharge],
        cost_scale: f64,
        f: F,
    ) -> Result<(Vec<R>, StageStats), EngineError>
    where
        T: Data,
        R: Send + 'static,
        F: Fn(&mut WorkerCtx, Vec<T>, usize) -> R + Send + Sync + 'static,
    {
        let nparts = rdd.num_partitions();
        let n_workers = self.engine.workers();
        let start = self.engine.now();
        let mut stats = StageStats {
            start,
            end: start,
            bytes_shipped: 0,
            resubmissions: 0,
            last_finish: vec![None; n_workers],
        };
        let mut results: Vec<Option<R>> = (0..nparts).map(|_| None).collect();
        if nparts == 0 {
            return Ok((Vec::new(), stats));
        }

        let f = Arc::new(f);
        let alive = self.alive_workers();
        if alive.is_empty() {
            return Err(EngineError::NoAliveWorkers);
        }
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_workers];
        for p in 0..nparts {
            queues[alive[p % alive.len()]].push_back(p);
        }
        let mut first_submitted = vec![false; n_workers];

        for w in 0..n_workers {
            self.dispatch_next(
                rdd,
                uses,
                cost_scale,
                &f,
                &mut queues,
                &mut first_submitted,
                w,
            );
        }

        let mut completed = 0;
        while completed < nparts {
            let c = self.engine.next().ok_or(EngineError::NoAliveWorkers)?;
            self.note_membership(&c);
            match c {
                Completion::Done(d) => {
                    let part = d.tag as usize;
                    let out = d
                        .output
                        .downcast::<R>()
                        .expect("stage task returned unexpected result type");
                    debug_assert!(results[part].is_none(), "partition {part} completed twice");
                    results[part] = Some(*out);
                    completed += 1;
                    stats.bytes_shipped += d.bytes_in;
                    self.total_bytes += d.bytes_in;
                    stats.last_finish[d.worker] = Some(d.finished_at);
                    if queues[d.worker].is_empty() {
                        // Worker is done for this stage: it now waits for
                        // the barrier + next stage.
                        self.wait.result_submitted(d.worker, d.finished_at);
                    } else {
                        self.dispatch_next(
                            rdd,
                            uses,
                            cost_scale,
                            &f,
                            &mut queues,
                            &mut first_submitted,
                            d.worker,
                        );
                    }
                }
                Completion::Lost { worker, tag } => {
                    stats.resubmissions += 1;
                    let mut orphans: Vec<usize> = queues[worker].drain(..).collect();
                    orphans.push(tag as usize);
                    self.redistribute(
                        rdd,
                        uses,
                        cost_scale,
                        &f,
                        &mut queues,
                        &mut first_submitted,
                        orphans,
                    );
                }
                Completion::WorkerDown { worker } => {
                    let orphans: Vec<usize> = queues[worker].drain(..).collect();
                    self.redistribute(
                        rdd,
                        uses,
                        cost_scale,
                        &f,
                        &mut queues,
                        &mut first_submitted,
                        orphans,
                    );
                }
                Completion::WorkerUp { worker } => {
                    // A worker whose id sits inside this stage's layout —
                    // a revival, or (on the simulator, which allocates
                    // scheduled-join ids up front) a pre-scheduled join —
                    // takes over work parked on dead workers and steals
                    // from the longest live backlog. Workers beyond the
                    // layout (joins allocated after the stage started,
                    // which is always the case on the threaded backend)
                    // wait for the next stage.
                    if worker < queues.len() {
                        let mut orphans: Vec<usize> = Vec::new();
                        for w in 0..queues.len() {
                            if !self.engine.alive(w) {
                                orphans.extend(queues[w].drain(..));
                            }
                        }
                        if orphans.is_empty() && queues[worker].is_empty() {
                            if let Some(donor) = (0..queues.len())
                                .filter(|&w| w != worker && !queues[w].is_empty())
                                .max_by_key(|&w| queues[w].len())
                            {
                                let stolen = queues[donor].pop_back().expect("donor has backlog");
                                queues[worker].push_back(stolen);
                            }
                        }
                        self.redistribute(
                            rdd,
                            uses,
                            cost_scale,
                            &f,
                            &mut queues,
                            &mut first_submitted,
                            orphans,
                        );
                    }
                }
            }
        }
        stats.end = self.engine.now();
        Ok((
            results
                .into_iter()
                .map(|r| r.expect("all partitions completed"))
                .collect(),
            stats,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn dispatch_next<T, R, F>(
        &mut self,
        rdd: &Rdd<T>,
        uses: &[BcastCharge],
        cost_scale: f64,
        f: &Arc<F>,
        queues: &mut [VecDeque<usize>],
        first_submitted: &mut [bool],
        w: WorkerId,
    ) where
        T: Data,
        R: Send + 'static,
        F: Fn(&mut WorkerCtx, Vec<T>, usize) -> R + Send + Sync + 'static,
    {
        if !self.engine.available(w) {
            return;
        }
        let Some(part) = queues[w].pop_front() else {
            return;
        };
        let bytes = self.registry.charge_for(w, uses);
        self.total_tasks += 1;
        if !first_submitted[w] {
            // Receiving the first task of the stage closes the worker's
            // inter-stage wait.
            self.wait.task_received(w, self.engine.now());
            first_submitted[w] = true;
        }
        let ops = rdd.ops();
        let f = Arc::clone(f);
        let cost = rdd.cost_hint(part) * cost_scale;
        let run: TaskFn = Box::new(move |ctx| {
            let data = ops.compute(part);
            Box::new(f(ctx, data, part))
        });
        self.engine
            .submit(
                w,
                Task {
                    tag: part as u64,
                    cost,
                    bytes_in: bytes,
                    run,
                },
            )
            .expect("dispatch_next checked availability");
    }

    #[allow(clippy::too_many_arguments)]
    fn redistribute<T, R, F>(
        &mut self,
        rdd: &Rdd<T>,
        uses: &[BcastCharge],
        cost_scale: f64,
        f: &Arc<F>,
        queues: &mut [VecDeque<usize>],
        first_submitted: &mut [bool],
        orphans: Vec<usize>,
    ) where
        T: Data,
        R: Send + 'static,
        F: Fn(&mut WorkerCtx, Vec<T>, usize) -> R + Send + Sync + 'static,
    {
        // Joined workers (ids beyond this stage's queue layout) only take
        // part from the next stage; orphans go to surviving layout workers.
        let alive: Vec<WorkerId> = self
            .alive_workers()
            .into_iter()
            .filter(|&w| w < queues.len())
            .collect();
        if alive.is_empty() {
            // Everyone in the stage layout is down: park the orphans on
            // worker 0's queue. They are re-redistributed when a revival's
            // WorkerUp steals work, or the stage errors out when the
            // engine starves.
            queues[0].extend(orphans);
            return;
        }
        for part in orphans {
            // Shortest queue among survivors.
            let w = *alive
                .iter()
                .min_by_key(|&&w| queues[w].len())
                .expect("alive workers nonempty");
            queues[w].push_back(part);
        }
        for &w in &alive {
            self.dispatch_next(rdd, uses, cost_scale, f, queues, first_submitted, w);
        }
    }

    /// Action: per-partition fold with `rf`, then a driver-side combine of
    /// the partial results (Spark's `reduce`). Returns `None` for an RDD
    /// with no elements.
    ///
    /// # Errors
    /// Propagates [`EngineError::NoAliveWorkers`] from the stage.
    pub fn reduce<T: Data>(
        &mut self,
        rdd: &Rdd<T>,
        uses: &[BcastCharge],
        cost_scale: f64,
        rf: impl Fn(T, T) -> T + Send + Sync + 'static,
    ) -> Result<(Option<T>, StageStats), EngineError> {
        let rf = Arc::new(rf);
        let rf2 = Arc::clone(&rf);
        let (partials, stats) =
            self.run_stage(rdd, uses, cost_scale, move |_ctx, data, _part| {
                let mut it = data.into_iter();
                let first = it.next();
                first.map(|f0| it.fold(f0, |a, b| rf2(a, b)))
            })?;
        let combined = partials.into_iter().flatten().reduce(|a, b| rf(a, b));
        Ok((combined, stats))
    }

    /// Action: Spark's `aggregate` — per-partition fold from `zero` with
    /// `seq_op`, then driver-side `comb_op`.
    ///
    /// # Errors
    /// Propagates [`EngineError::NoAliveWorkers`] from the stage.
    pub fn aggregate<T: Data, U: Data>(
        &mut self,
        rdd: &Rdd<T>,
        uses: &[BcastCharge],
        cost_scale: f64,
        zero: U,
        seq_op: impl Fn(U, &T) -> U + Send + Sync + 'static,
        comb_op: impl Fn(U, U) -> U,
    ) -> Result<(U, StageStats), EngineError> {
        let z = zero.clone();
        let (partials, stats) =
            self.run_stage(rdd, uses, cost_scale, move |_ctx, data, _part| {
                data.iter().fold(z.clone(), &seq_op)
            })?;
        Ok((partials.into_iter().fold(zero, comb_op), stats))
    }

    /// Action: materializes the whole RDD on the driver in partition order.
    ///
    /// # Errors
    /// Propagates [`EngineError::NoAliveWorkers`] from the stage.
    pub fn collect<T: Data>(&mut self, rdd: &Rdd<T>) -> Result<(Vec<T>, StageStats), EngineError> {
        let (parts, stats) = self.run_stage(rdd, &[], 1.0, |_ctx, data, _part| data)?;
        Ok((parts.into_iter().flatten().collect(), stats))
    }

    /// Action: element count.
    ///
    /// # Errors
    /// Propagates [`EngineError::NoAliveWorkers`] from the stage.
    pub fn count<T: Data>(&mut self, rdd: &Rdd<T>) -> Result<(usize, StageStats), EngineError> {
        let (parts, stats) = self.run_stage(rdd, &[], 1.0, |_ctx, data, _part| data.len())?;
        Ok((parts.into_iter().sum(), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_cluster::{CommModel, DelayModel, VDur};

    fn sim_driver(workers: usize, delay: DelayModel) -> Driver {
        Driver::sim(
            ClusterSpec::homogeneous(workers, delay)
                .with_comm(CommModel::free())
                .with_sched_overhead(VDur::ZERO),
        )
    }

    #[test]
    fn map_reduce_computes_sum() {
        let mut d = sim_driver(4, DelayModel::None);
        let rdd = Rdd::parallelize(vec![vec![1i64, 2], vec![3, 4], vec![5], vec![]]);
        let (sum, stats) = d
            .reduce(&rdd.map(|x| x * 2), &[], 1.0, |a, b| a + b)
            .unwrap();
        assert_eq!(sum, Some(30));
        assert!(stats.end >= stats.start);
        assert_eq!(stats.resubmissions, 0);
    }

    #[test]
    fn aggregate_counts_elements() {
        let mut d = sim_driver(2, DelayModel::None);
        let rdd = Rdd::parallelize(vec![vec![1i64, 2, 3], vec![4, 5]]);
        let (n, _) = d
            .aggregate(&rdd, &[], 1.0, 0usize, |acc, _| acc + 1, |a, b| a + b)
            .unwrap();
        assert_eq!(n, 5);
    }

    #[test]
    fn collect_preserves_partition_order() {
        let mut d = sim_driver(3, DelayModel::None);
        let rdd = Rdd::parallelize(vec![vec![1i64], vec![2, 3], vec![4]]);
        let (all, _) = d.collect(&rdd).unwrap();
        assert_eq!(all, vec![1, 2, 3, 4]);
        let (n, _) = d.count(&rdd).unwrap();
        assert_eq!(n, 4);
    }

    #[test]
    fn more_partitions_than_workers_pipelines() {
        let mut d = sim_driver(2, DelayModel::None);
        let parts: Vec<Vec<i64>> = (0..8).map(|p| vec![p as i64]).collect();
        let rdd = Rdd::parallelize(parts);
        let (vals, _) = d
            .run_stage(&rdd, &[], 1.0, |_ctx, data, part| {
                assert_eq!(data[0], part as i64);
                data[0] * 10
            })
            .unwrap();
        assert_eq!(vals, (0..8).map(|p| p * 10).collect::<Vec<i64>>());
    }

    #[test]
    fn stage_barrier_waits_for_straggler() {
        // Worker 1 runs 2x slower: the stage end must match its finish.
        let mut d = sim_driver(
            2,
            DelayModel::ControlledDelay {
                worker: 1,
                intensity: 1.0,
            },
        );
        let rdd = Rdd::parallelize_with_cost(vec![vec![0i64], vec![0i64]], vec![2e8, 2e8]);
        let (_, stats) = d
            .run_stage(&rdd, &[], 1.0, |_ctx, _data, _part| 0i64)
            .unwrap();
        let f0 = stats.last_finish[0].unwrap();
        let f1 = stats.last_finish[1].unwrap();
        assert_eq!(f0.as_micros(), 1_000_000);
        assert_eq!(f1.as_micros(), 2_000_000);
        assert_eq!(stats.end, f1);
    }

    #[test]
    fn wait_times_grow_with_straggler_intensity() {
        // Two stages: worker 0's wait between stages = straggler finish −
        // its own finish. With a 100% straggler the wait equals one full
        // task time.
        let mut d = sim_driver(
            2,
            DelayModel::ControlledDelay {
                worker: 1,
                intensity: 1.0,
            },
        );
        let rdd = Rdd::parallelize_with_cost(vec![vec![0i64], vec![0i64]], vec![2e8, 2e8]);
        for _ in 0..2 {
            let _ = d
                .run_stage(&rdd, &[], 1.0, |_ctx, _data, _part| 0i64)
                .unwrap();
        }
        let w0 = d.wait_recorder().mean_for(0);
        let w1 = d.wait_recorder().mean_for(1);
        assert_eq!(w0.as_micros(), 1_000_000, "fast worker waits one task time");
        assert_eq!(w1.as_micros(), 0, "straggler never waits");
    }

    #[test]
    fn broadcast_charged_once_per_worker() {
        let spec = ClusterSpec::homogeneous(2, DelayModel::None)
            .with_comm(CommModel {
                per_msg: VDur::ZERO,
                ns_per_byte: 0.0,
            })
            .with_sched_overhead(VDur::ZERO);
        let mut d = Driver::sim(spec);
        let b = d.broadcast(vec![0.0f64; 100]);
        let rdd = Rdd::parallelize(vec![vec![1i64], vec![2]]);
        let uses = [b.charge()];
        let (_, s1) = d
            .run_stage(&rdd, &uses, 1.0, |_ctx, data, _| data[0])
            .unwrap();
        assert_eq!(s1.bytes_shipped, 2 * b.bytes());
        let (_, s2) = d
            .run_stage(&rdd, &uses, 1.0, |_ctx, data, _| data[0])
            .unwrap();
        assert_eq!(s2.bytes_shipped, 0, "already shipped to both workers");
        assert_eq!(d.total_bytes_shipped(), 2 * b.bytes());
    }

    #[test]
    fn worker_failure_mid_stage_resubmits() {
        let mut d = sim_driver(2, DelayModel::None);
        // Two long tasks; worker 0 dies halfway through its task.
        let rdd = Rdd::parallelize_with_cost(vec![vec![10i64], vec![20i64]], vec![2e8, 2e8]);
        d.schedule_failure(0, VTime::from_micros(500_000));
        let (vals, stats) = d
            .run_stage(&rdd, &[], 1.0, |_ctx, data, _| data[0])
            .unwrap();
        assert_eq!(vals, vec![10, 20], "lost partition recomputed via lineage");
        assert_eq!(stats.resubmissions, 1);
        assert_eq!(d.alive_workers(), vec![1]);
    }

    #[test]
    fn failure_of_idle_worker_redistributes_queue() {
        let mut d = sim_driver(2, DelayModel::None);
        let parts: Vec<Vec<i64>> = (0..6).map(|p| vec![p as i64]).collect();
        let rdd = Rdd::parallelize_with_cost(parts, vec![2e8; 6]);
        // Dies after its first task completes (at 1s the worker is between
        // tasks only momentarily; schedule just before second finishes).
        d.schedule_failure(0, VTime::from_micros(1_500_000));
        let (vals, stats) = d
            .run_stage(&rdd, &[], 1.0, |_ctx, data, _| data[0])
            .unwrap();
        assert_eq!(vals, (0..6).collect::<Vec<i64>>());
        assert!(stats.resubmissions >= 1);
    }

    #[test]
    fn owner_assignment_is_stable_and_rebalances() {
        let d = sim_driver(4, DelayModel::None);
        assert_eq!(d.owner_of(0), Ok(0));
        assert_eq!(d.owner_of(5), Ok(1));
        assert_eq!(d.partitions_of(1, 8), vec![1, 5]);
        let mut d = d;
        d.kill_worker(1);
        // Drain the WorkerDown completion.
        while d.next_completion().is_some() {}
        let alive = d.alive_workers();
        assert_eq!(alive, vec![0, 2, 3]);
        assert_eq!(d.owner_of(1), Ok(2));
    }

    #[test]
    fn owner_of_with_no_alive_workers_is_a_typed_error() {
        let mut d = sim_driver(2, DelayModel::None);
        d.kill_worker(0);
        d.kill_worker(1);
        while d.next_completion().is_some() {}
        assert_eq!(d.owner_of(0), Err(EngineError::NoAliveWorkers));
        assert!(d.partitions_of(0, 4).is_empty());
        let rdd = Rdd::parallelize(vec![vec![1i64], vec![2]]);
        let err = d
            .run_stage(&rdd, &[], 1.0, |_ctx, data, _| data.len())
            .unwrap_err();
        assert_eq!(err, EngineError::NoAliveWorkers);
        let err = d.reduce(&rdd, &[], 1.0, |a, b| a + b).unwrap_err();
        assert_eq!(err, EngineError::NoAliveWorkers);
    }

    #[test]
    fn stage_error_when_all_workers_die_mid_stage() {
        let mut d = sim_driver(2, DelayModel::None);
        let rdd = Rdd::parallelize_with_cost(vec![vec![1i64], vec![2]], vec![2e8, 2e8]);
        d.schedule_failure(0, VTime::from_micros(100));
        d.schedule_failure(1, VTime::from_micros(200));
        let err = d
            .run_stage(&rdd, &[], 1.0, |_ctx, data, _| data[0])
            .unwrap_err();
        assert_eq!(err, EngineError::NoAliveWorkers);
    }

    #[test]
    fn revival_mid_stage_rescues_the_stage() {
        // Both workers die, then one revives: the stage must complete via
        // the revived worker's work-stealing instead of erroring out.
        let mut d = sim_driver(2, DelayModel::None);
        let parts: Vec<Vec<i64>> = (0..4).map(|p| vec![p as i64]).collect();
        let rdd = Rdd::parallelize_with_cost(parts, vec![2e8; 4]);
        d.schedule_failure(0, VTime::from_micros(100));
        d.schedule_failure(1, VTime::from_micros(200));
        d.schedule_revival(0, VTime::from_micros(300));
        let (vals, stats) = d
            .run_stage(&rdd, &[], 1.0, |_ctx, data, _| data[0])
            .unwrap();
        assert_eq!(vals, vec![0, 1, 2, 3]);
        assert!(stats.resubmissions >= 1);
        assert_eq!(d.alive_workers(), vec![0]);
    }

    #[test]
    fn chaos_schedule_drives_a_stage_end_to_end() {
        use async_cluster::ChaosSchedule;
        let mut d = sim_driver(3, DelayModel::None);
        let chaos = ChaosSchedule::new()
            .kill(VTime::from_micros(500), 2)
            .revive(VTime::from_micros(1_200_000), 2)
            .join(VTime::from_micros(1_500_000));
        d.install_chaos(&chaos);
        let parts: Vec<Vec<i64>> = (0..9).map(|p| vec![p as i64]).collect();
        let rdd = Rdd::parallelize_with_cost(parts, vec![2e8; 9]);
        let (vals, _) = d
            .run_stage(&rdd, &[], 1.0, |_ctx, data, _| data[0])
            .unwrap();
        assert_eq!(vals, (0..9).collect::<Vec<i64>>());
        // After the schedule: 3 originals alive (2 revived) + 1 joined.
        while d.next_completion().is_some() {}
        assert_eq!(d.workers(), 4);
        assert_eq!(d.alive_workers(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn install_chaos_schedules_every_event_on_the_engine() {
        use async_cluster::ChaosSchedule;
        let mut d = sim_driver(2, DelayModel::None);
        d.install_chaos(
            &ChaosSchedule::new()
                .kill(VTime::from_micros(10), 1)
                .revive(VTime::from_micros(20), 1)
                .join(VTime::from_micros(30)),
        );
        // The sim applies scheduled events when the clock reaches them;
        // with nothing in flight, the pump drains the membership stream.
        let mut downs = 0;
        let mut ups = 0;
        while let Some(c) = d.next_completion() {
            match c {
                Completion::WorkerDown { .. } => downs += 1,
                Completion::WorkerUp { .. } => ups += 1,
                _ => {}
            }
        }
        assert_eq!((downs, ups), (1, 2));
        assert_eq!(d.workers(), 3);
    }

    #[test]
    fn revived_worker_pays_broadcasts_again() {
        let spec = ClusterSpec::homogeneous(2, DelayModel::None)
            .with_comm(CommModel::free())
            .with_sched_overhead(VDur::ZERO);
        let mut d = Driver::sim(spec);
        let b = d.broadcast(vec![0.0f64; 50]);
        let rdd = Rdd::parallelize(vec![vec![1i64], vec![2]]);
        let uses = [b.charge()];
        let (_, s1) = d
            .run_stage(&rdd, &uses, 1.0, |_ctx, data, _| data[0])
            .unwrap();
        assert_eq!(s1.bytes_shipped, 2 * b.bytes());
        // Kill + revive worker 0 (draining between the two — the sim
        // applies membership changes at event pop): its fresh executor
        // must re-receive the broadcast; worker 1 keeps its copy.
        d.kill_worker(0);
        while d.next_completion().is_some() {}
        d.revive_worker(0).unwrap();
        while d.next_completion().is_some() {}
        let (_, s2) = d
            .run_stage(&rdd, &uses, 1.0, |_ctx, data, _| data[0])
            .unwrap();
        assert_eq!(s2.bytes_shipped, b.bytes(), "only the revived worker pays");
    }

    #[test]
    fn joined_worker_owns_partitions_and_pays_broadcasts() {
        let spec = ClusterSpec::homogeneous(2, DelayModel::None)
            .with_comm(CommModel::free())
            .with_sched_overhead(VDur::ZERO);
        let mut d = Driver::sim(spec);
        let b = d.broadcast(vec![0.0f64; 10]);
        let w = d.add_worker();
        assert_eq!(w, 2);
        while d.next_completion().is_some() {}
        assert_eq!(d.alive_workers(), vec![0, 1, 2]);
        assert_eq!(d.owner_of(2), Ok(2), "join rebalances ownership");
        let rdd = Rdd::parallelize(vec![vec![1i64], vec![2], vec![3]]);
        let uses = [b.charge()];
        let (vals, s) = d
            .run_stage(&rdd, &uses, 1.0, |_ctx, data, _| data[0])
            .unwrap();
        assert_eq!(vals, vec![1, 2, 3]);
        assert_eq!(s.bytes_shipped, 3 * b.bytes());
    }

    #[test]
    fn threaded_stage_matches_sim_results() {
        let spec = ClusterSpec::homogeneous(3, DelayModel::None)
            .with_comm(CommModel::free())
            .with_sched_overhead(VDur::ZERO);
        let rdd = Rdd::parallelize(vec![vec![1i64, 2], vec![3], vec![4, 5, 6]]);
        let mut sim = Driver::sim(spec.clone());
        let mut thr = Driver::threaded(spec, 0.0);
        let (a, _) = sim
            .reduce(&rdd.map(|x| x * x), &[], 1.0, |x, y| x + y)
            .unwrap();
        let (b, _) = thr
            .reduce(&rdd.map(|x| x * x), &[], 1.0, |x, y| x + y)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a, Some(1 + 4 + 9 + 16 + 25 + 36));
    }

    #[test]
    fn supervisor_respawns_an_unscripted_death_with_backoff() {
        let mut d = sim_driver(2, DelayModel::None);
        d.supervise(SuperviseCfg {
            backoff_base: VDur::from_millis(10),
            jitter_frac: 0.0,
            ..SuperviseCfg::default()
        });
        // An unscripted kill: no chaos schedule mentions a revival, only
        // the supervisor can bring worker 1 back.
        d.schedule_failure(1, VTime::from_micros(1_000));
        let rdd =
            Rdd::parallelize_with_cost((0..4).map(|p| vec![p as i64]).collect(), vec![2e8; 4]);
        let (vals, _) = d
            .run_stage(&rdd, &[], 1.0, |_ctx, data, _| data[0])
            .unwrap();
        assert_eq!(vals, vec![0, 1, 2, 3]);
        assert_eq!(d.supervised_respawns(), 1);
        while d.next_completion().is_some() {}
        assert_eq!(d.alive_workers(), vec![0, 1], "worker 1 came back");
        assert!(!d.circuit_open(1));
    }

    #[test]
    fn supervisor_backoff_grows_and_jitter_is_deterministic() {
        let run = || {
            let mut d = sim_driver(1, DelayModel::None);
            d.supervise(SuperviseCfg {
                backoff_base: VDur::from_millis(10),
                backoff_factor: 2.0,
                backoff_max: VDur::from_millis(80),
                jitter_frac: 0.5,
                seed: 42,
                max_crashes: 10,
                crash_window: VDur::from_millis(100_000), // never recovers
            });
            let mut ups = Vec::new();
            for _ in 0..4 {
                d.kill_worker(0);
                loop {
                    match d.next_completion() {
                        Some(Completion::WorkerUp { .. }) => {
                            ups.push(d.now().as_micros());
                            break;
                        }
                        Some(_) => continue,
                        None => panic!("supervisor must revive worker 0"),
                    }
                }
            }
            ups
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seeded jitter must be reproducible");
        // Gaps between death (at the prior up instant) and the next up
        // grow roughly geometrically: each at least the un-jittered
        // backoff for its streak position.
        let mut prev = 0;
        for (i, &up) in a.iter().enumerate() {
            let gap = up - prev;
            let floor = (10_000u64 << i).min(80_000);
            assert!(
                gap >= floor,
                "respawn {i} came after {gap}us, backoff floor {floor}us"
            );
            prev = up;
        }
    }

    #[test]
    fn crash_loop_opens_the_circuit_breaker() {
        let mut d = sim_driver(2, DelayModel::None);
        d.supervise(SuperviseCfg {
            max_crashes: 2,
            jitter_frac: 0.0,
            crash_window: VDur::from_millis(100_000),
            ..SuperviseCfg::default()
        });
        // Worker 0 dies instantly every time it comes up.
        for _ in 0..3 {
            d.kill_worker(0);
            // Drain until the respawn lands (or nothing more happens).
            while d.next_completion().is_some() {}
        }
        assert!(d.circuit_open(0), "third crash must open the circuit");
        assert_eq!(d.supervised_respawns(), 2, "no respawn past the breaker");
        assert_eq!(d.alive_workers(), vec![1]);
        // External revival still works and the worker stays supervisable
        // for bookkeeping (the circuit stays open by design).
        d.revive_worker(0).unwrap();
        while d.next_completion().is_some() {}
        assert_eq!(d.alive_workers(), vec![0, 1]);
    }

    #[test]
    fn uptime_past_the_crash_window_resets_the_streak() {
        let mut d = sim_driver(1, DelayModel::None);
        d.supervise(SuperviseCfg {
            max_crashes: 2,
            jitter_frac: 0.0,
            crash_window: VDur::from_millis(1), // recovers almost instantly
            ..SuperviseCfg::default()
        });
        // Many kill/recover cycles separated by "long" uptime: the streak
        // resets each time, so the circuit never opens.
        let rdd = Rdd::parallelize_with_cost(vec![vec![1i64]], vec![2e8]);
        for _ in 0..5 {
            d.kill_worker(0);
            while d.next_completion().is_some() {}
            // Run a stage so virtual time advances well past the window.
            let (v, _) = d
                .run_stage(&rdd, &[], 1.0, |_ctx, data, _| data[0])
                .unwrap();
            assert_eq!(v, vec![1]);
        }
        assert!(!d.circuit_open(0));
        assert_eq!(d.supervised_respawns(), 5);
    }

    #[test]
    fn empty_rdd_stage_is_noop() {
        let mut d = sim_driver(2, DelayModel::None);
        let rdd: Rdd<i64> = Rdd::parallelize(vec![]);
        let (vals, stats) = d
            .run_stage(&rdd, &[], 1.0, |_ctx, data, _| data.len())
            .unwrap();
        assert!(vals.is_empty());
        assert_eq!(stats.bytes_shipped, 0);
        let (sum, _) = d.reduce(&rdd, &[], 1.0, |a, b| a + b).unwrap();
        assert_eq!(sum, None);
    }
}
