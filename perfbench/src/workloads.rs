//! The three workloads. Each repetition synthesizes its inputs from the
//! seed, builds its engine, runs one solver to a fixed update budget
//! through the public API, and checks the outputs.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::thread;
use std::time::Instant;

use async_cluster::{ClusterSpec, CommModel, DelayModel};
use async_core::{AsyncContext, BarrierFilter};
use async_data::{Dataset, SynthSpec};
use async_linalg::compress::Quant;
use async_linalg::ParallelismCfg;
use async_optim::{
    Asaga, Asgd, AsyncMsgd, AsyncSolver, Checkpoint, CheckpointStore, CompressCfg, Objective,
    RunReport, ServeFeed, SolverCfg,
};
use async_serve::{ServeCfg, Server};
use sparklet::{Driver, Engine, EngineBuilder};

use crate::host;
use crate::probes;
use crate::record::{Metric, Record};
use crate::trace::{self, LayerTimes, TracedEngine, Tracer};

/// Simulated or real workers per workload: this host's thread budget.
pub const WORKERS: usize = 2;
/// Rows per serving query.
pub const QUERY_ROWS: usize = 64;
/// The serving freshness bound.
pub const MAX_VERSION_LAG: u64 = 8;
/// Checkpoint cadence of the durable workload, in updates.
const CHECKPOINT_EVERY: u64 = 250;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SparseAsgd,
    SagaRemote,
    ServeMsgd,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::SparseAsgd, Kind::SagaRemote, Kind::ServeMsgd];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SparseAsgd => "sparse-asgd",
            Kind::SagaRemote => "saga-remote",
            Kind::ServeMsgd => "serve-msgd",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Model updates per repetition.
    pub fn budget(self) -> u64 {
        match self {
            Kind::SparseAsgd => 4_000,
            Kind::SagaRemote => 4_000,
            Kind::ServeMsgd => 10_000,
        }
    }

    pub fn engine(self) -> &'static str {
        match self {
            Kind::SparseAsgd => "threaded",
            Kind::SagaRemote => "remote",
            Kind::ServeMsgd => "sim",
        }
    }

    pub fn transport(self) -> &'static str {
        match self {
            Kind::SparseAsgd => "in-process worker threads",
            Kind::SagaRemote => "worker processes over loopback TCP",
            Kind::ServeMsgd => "inline on the driver thread",
        }
    }

    pub fn objective(self) -> Objective {
        match self {
            Kind::SparseAsgd => Objective::Logistic { lambda: 0.0 },
            Kind::SagaRemote => Objective::LeastSquares { lambda: 1e-3 },
            Kind::ServeMsgd => Objective::Logistic { lambda: 1e-2 },
        }
    }

    /// The ceiling `final_objective` must stay under, as a share of the
    /// objective at the zero model.
    fn objective_ceiling(self) -> f64 {
        match self {
            Kind::SparseAsgd => 0.55,
            Kind::SagaRemote => 0.02,
            Kind::ServeMsgd => 0.40,
        }
    }

    /// The workload's inputs, a pure function of `seed`.
    fn dataset(self, seed: u64) -> Dataset {
        let spec = match self {
            Kind::SparseAsgd => SynthSpec::sparse(self.name(), 16_384, 262_144, 24, seed),
            Kind::SagaRemote | Kind::ServeMsgd => SynthSpec::dense(self.name(), 8_192, 512, seed),
        };
        let generated = match self {
            Kind::SagaRemote => spec.generate(),
            Kind::SparseAsgd | Kind::ServeMsgd => spec.generate_classification(),
        };
        generated.expect("synthetic generation of a valid shape").0
    }

    fn solver_cfg(self, seed: u64) -> async_optim::SolverCfgBuilder {
        let b = SolverCfg::builder()
            .max_updates(self.budget())
            .seed(seed)
            .eval_every(0);
        match self {
            Kind::SparseAsgd => b
                .step(0.5)
                .batch_fraction(0.01)
                .barrier(BarrierFilter::Asp)
                .bcast_ring(16),
            Kind::SagaRemote => b
                .step(0.002)
                .batch_fraction(0.02)
                .barrier(BarrierFilter::Ssp { slack: 2 })
                .compress(CompressCfg::TopK {
                    k: 64,
                    quant: Quant::I8,
                }),
            Kind::ServeMsgd => b
                .step(0.05)
                .batch_fraction(0.02)
                .barrier(BarrierFilter::Asp)
                .checkpoint_every(CHECKPOINT_EVERY),
        }
    }
}

fn cluster() -> ClusterSpec {
    ClusterSpec::homogeneous(WORKERS, DelayModel::None).with_comm(CommModel::free())
}

/// The worker executable built beside this benchmark's own binary.
fn worker_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("async_worker");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("worker binary {} is missing", bin.display()))
    }
}

/// What one serving reader saw.
#[derive(Debug, Default)]
struct Reads {
    count: u64,
    /// Reads that returned a non-finite score.
    failed: u64,
    /// Latency of every read, µs.
    latency_us: Vec<f64>,
}

/// How a repetition is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: end-to-end figures only.
    Plain,
    /// Through the traced engine: per-layer figures.
    Traced,
    /// Untraced, then the layer probes on the repetition's inputs.
    Probes,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Probes => "probes",
        }
    }

    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Plain, Mode::Traced, Mode::Probes]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

/// Runs one repetition of `kind` in this process. `scratch` is a private
/// directory the repetition may write to; a traced repetition writes its
/// spans to `spans_path`.
pub fn run_rep(
    kind: Kind,
    seed: u64,
    mode: Mode,
    scratch: &Path,
    spans_path: &Path,
) -> Result<Record, String> {
    let tracer = (mode == Mode::Traced).then(Tracer::new);
    let tracer = tracer.as_ref();
    let t0 = Instant::now();
    let data = kind.dataset(seed);
    let built = match kind {
        Kind::SparseAsgd => EngineBuilder::threaded(),
        Kind::SagaRemote => EngineBuilder::remote().worker_bin(worker_bin()?),
        Kind::ServeMsgd => EngineBuilder::sim(),
    }
    .spec(cluster())
    .time_scale(0.0)
    .build()
    .map_err(|e| format!("{} engine build failed: {e}", kind.engine()))?;
    let (engine, submitted): (Box<dyn Engine>, _) = match tracer {
        Some(t) => {
            let traced = TracedEngine::new(built, t.clone());
            let count = traced.submitted();
            (Box::new(traced), Some(count))
        }
        None => (built, None),
    };
    let mut ctx = AsyncContext::new(Driver::from_engine(engine));
    let mut cfg = kind.solver_cfg(seed);

    let durable_dir = scratch.join("durable");
    let feed = ServeFeed::new();
    let mut reader = None;
    if kind == Kind::ServeMsgd {
        cfg = cfg.durable_dir(&durable_dir).serve_feed(feed.clone());
        reader = Some(spawn_reader(&feed, &data, tracer.cloned()));
    }
    let cfg = cfg
        .build()
        .map_err(|e| format!("solver configuration: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let report = {
        let _run = tracer.map(|t| t.enter(trace::RUN));
        let objective = kind.objective();
        match kind {
            Kind::SparseAsgd => Asgd::new(objective).run(&mut ctx, &data, &cfg),
            Kind::SagaRemote => Asaga::new(objective).run(&mut ctx, &data, &cfg),
            Kind::ServeMsgd => AsyncMsgd::new(objective).run(&mut ctx, &data, &cfg),
        }
    };
    let run_s = t1.elapsed().as_secs_f64();
    let submitted = submitted.map_or(ctx.driver().total_tasks(), |c| c.load(Ordering::Relaxed));
    // Dropping the engine reaps the remote worker processes, whose CPU
    // time then shows in this process's children usage.
    drop(ctx);
    let worker_cpu_s = (kind == Kind::SagaRemote).then(host::reaped_children_cpu_s);
    let peak_rss_mb = host::peak_rss_mb();

    let mut failures = Vec::new();
    if report.updates != kind.budget() {
        failures.push(format!(
            "applied {} updates, budget {}",
            report.updates,
            kind.budget()
        ));
    }
    if report.lost_tasks != 0 {
        failures.push(format!("{} tasks lost", report.lost_tasks));
    }
    let f0 = kind.objective().full_objective(
        ParallelismCfg::sequential(),
        &data,
        &vec![0.0; data.cols()],
    );
    let ceiling = kind.objective_ceiling() * f0;
    if report.final_objective.is_nan() || report.final_objective >= ceiling {
        failures.push(format!(
            "final objective {} not below ceiling {ceiling}",
            report.final_objective
        ));
    }
    let mut reads = Reads::default();
    if let Some(reader) = reader {
        let (r, served_final) = reader.join().map_err(|_| "reader thread panicked")?;
        reads = r;
        if reads.failed > 0 {
            failures.push(format!("{} reads scored non-finite", reads.failed));
        }
        if !bitwise_eq(&served_final, &report.final_w) {
            failures.push("post-run refresh does not serve final_w bitwise".into());
        }
        failures.extend(check_durable(&durable_dir, &report.final_w));
        if report.durable.store.saves_failed > 0 {
            failures.push(format!(
                "{} checkpoint saves failed",
                report.durable.store.saves_failed
            ));
        }
    }

    let mut record = Record {
        traced: tracer.is_some(),
        setup_s,
        run_s,
        updates: report.updates,
        final_objective: report.final_objective,
        f0,
        peak_rss_mb,
        submitted,
        lost_tasks: report.lost_tasks,
        reads: reads.count,
        failed_reads: reads.failed,
        saves_ok: report.durable.store.saves_ok,
        saves_failed: report.durable.store.saves_failed,
        read_us: reads.latency_us,
        failures,
        ..Record::default()
    };
    if let Some(t) = tracer {
        let spans = t.take();
        trace::write_spans(spans_path, &spans)
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        let layers = LayerTimes::from_spans(&spans);
        record.layers = layer_figures(&layers, &report, submitted, worker_cpu_s);
        record.dispatch_us = layers.dispatch_us;
    }
    if mode == Mode::Probes {
        let inputs = probes::Inputs {
            data,
            final_w: report.final_w,
        };
        record.probes = probes::run(kind, &inputs, scratch)?;
    }
    Ok(record)
}

/// The per-layer figures of one traced run.
fn layer_figures(
    l: &LayerTimes,
    rep: &RunReport,
    submitted: u64,
    worker_cpu_s: Option<f64>,
) -> Vec<Metric> {
    let updates = rep.updates.max(1) as f64;
    let m = |name: &str, value: f64, unit: &str| (name.to_string(), value, unit.to_string());
    vec![
        m("sparklet.submit_s", l.self_of(trace::SUBMIT), "s"),
        m(
            "sparklet.task_s",
            worker_cpu_s.unwrap_or_else(|| l.self_of(trace::TASK)),
            "s",
        ),
        m(
            "sparklet.next_wait_s",
            l.self_of(trace::NEXT) + l.self_of(trace::TRY_NEXT),
            "s",
        ),
        m("sparklet.wire_build_s", l.self_of(trace::WIRE_BUILD), "s"),
        m("sparklet.wire_decode_s", l.self_of(trace::WIRE_DECODE), "s"),
        m(
            "sparklet.bytes_to_workers_per_update",
            rep.bytes_shipped as f64 / updates,
            "B",
        ),
        m(
            "sparklet.result_bytes_per_update",
            rep.result_bytes as f64 / updates,
            "B",
        ),
        m("core.max_staleness", rep.max_staleness as f64, "count"),
        m("core.mean_wait_us", rep.mean_wait.as_micros() as f64, "us"),
        m("optim.self_s", l.self_of(trace::RUN), "s"),
        m(
            "optim.useful_task_ratio",
            rep.tasks_completed as f64 / submitted.max(1) as f64,
            "ratio",
        ),
        m(
            "optim.grad_entries_per_update",
            rep.grad_entries as f64 / updates,
            "count",
        ),
        m(
            "optim.durable.saves",
            rep.durable.store.saves_ok as f64,
            "count",
        ),
        m(
            "optim.durable.bytes_written",
            rep.durable.store.bytes_written as f64,
            "B",
        ),
        m(
            "serve.read_s",
            l.self_of(trace::READ) + l.self_of(trace::REFRESH),
            "s",
        ),
        m("serve.refresh.count", rep.serve.refreshes as f64, "count"),
        m("serve.refresh_s", l.self_of(trace::REFRESH), "s"),
        m(
            "serve.max_version_lag",
            rep.serve.max_version_lag as f64,
            "count",
        ),
        m("trace.run_s", l.run_s, "s"),
    ]
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The newest valid generation must parse as a checkpoint of `final_w`.
fn check_durable(dir: &Path, final_w: &[f64]) -> Option<String> {
    let store = match CheckpointStore::open(dir) {
        Ok(s) => s,
        Err(e) => return Some(format!("cannot open checkpoint store: {e}")),
    };
    let Some((generation, bytes)) = store.latest_valid() else {
        return Some("no valid checkpoint generation".into());
    };
    match Checkpoint::from_bytes(&bytes) {
        Ok(c) if bitwise_eq(&c.w, final_w) => None,
        Ok(_) => Some(format!("checkpoint generation {generation} is not final_w")),
        Err(e) => Some(format!("checkpoint generation {generation}: {e}")),
    }
}

/// One closed-loop reader: connects to the run's feed and scores
/// `QUERY_ROWS`-row queries back to back until training ends, then
/// re-pins the final version and returns what it serves.
fn spawn_reader(
    feed: &ServeFeed,
    data: &Dataset,
    tracer: Option<Tracer>,
) -> thread::JoinHandle<(Reads, Vec<f64>)> {
    let feed = feed.clone();
    let features = data.features().clone();
    let rows = data.rows();
    thread::spawn(move || {
        let cfg = ServeCfg {
            max_version_lag: MAX_VERSION_LAG,
            log_queries: false,
        };
        let Some(server) = Server::connect(&feed, cfg) else {
            return (Reads::default(), Vec::new());
        };
        let mut p = server.predictor();
        let mut out = Vec::with_capacity(QUERY_ROWS);
        let mut query: Vec<u32> = Vec::with_capacity(QUERY_ROWS);
        let mut reads = Reads {
            latency_us: Vec::with_capacity(1 << 16),
            ..Reads::default()
        };
        let mut next_row = 0usize;
        while !server.training_done() {
            query.clear();
            query.extend((0..QUERY_ROWS).map(|j| ((next_row + j) % rows) as u32));
            next_row = (next_row + QUERY_ROWS) % rows;
            let t = Instant::now();
            {
                let _read = tracer.as_ref().map(|t| t.enter(trace::READ));
                if p.lag() > MAX_VERSION_LAG {
                    let _refresh = tracer.as_ref().map(|t| t.enter(trace::REFRESH));
                    p.refresh();
                }
                p.predict_rows_into(&features, &query, &mut out);
            }
            reads.latency_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            reads.count += 1;
            if !out.iter().all(|s| s.is_finite()) {
                reads.failed += 1;
            }
        }
        p.refresh();
        (reads, p.model().to_vec())
    })
}
