//! In-memory span recording and the traced engine decorator.
//!
//! Every span is recorded from the benchmark's own code, around calls into
//! the program's public API: [`TracedEngine`] wraps the `Box<dyn Engine>`
//! an `EngineBuilder` returns, the task and wire closures the solver hands
//! it, and the workloads wrap the solver's `run` and each reader call.
//! Nothing inside the program is instrumented.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use async_cluster::{VTime, WorkerId};
use sparklet::{Completion, Engine, EngineError, Task, WireTask};

/// Span names, one per layer boundary.
pub const RUN: &str = "optim.run";
pub const SUBMIT: &str = "sparklet.submit";
pub const TASK: &str = "sparklet.task";
pub const NEXT: &str = "sparklet.next";
pub const TRY_NEXT: &str = "sparklet.try_next";
pub const WIRE_BUILD: &str = "sparklet.wire_build";
pub const WIRE_DECODE: &str = "sparklet.wire_decode";
pub const READ: &str = "serve.read";
pub const REFRESH: &str = "serve.refresh";

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    pub name: &'static str,
    /// Recording thread, numbered in order of first use.
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A shared span sink. Cloning shares the sink.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// This thread's number and its stack of open span ids.
    static LOCAL: RefCell<(u32, Vec<u64>)> =
        RefCell::new((NEXT_THREAD.fetch_add(1, Ordering::Relaxed), Vec::new()));
}

/// An open span; recorded when dropped.
pub struct Guard {
    tracer: Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Guard {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = Instant::now();
        let thread = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.1.pop();
            l.0
        });
        let t = &self.tracer.inner;
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread,
            start_ns: (self.start - t.epoch).as_nanos() as u64,
            end_ns: (end - t.epoch).as_nanos() as u64,
        };
        // A poisoned sink means another traced thread panicked; dropping
        // the span is the only thing a destructor may do about it.
        if let Ok(mut spans) = t.spans.lock() {
            spans.push(span);
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::with_capacity(1 << 16)),
            }),
        }
    }

    /// Opens a span whose parent is the innermost open span on this thread.
    pub fn enter(&self, name: &'static str) -> Guard {
        self.open(name, None)
    }

    /// Opens a span caused by `parent`, which may live on another thread.
    pub fn enter_at(&self, name: &'static str, parent: u64) -> Guard {
        self.open(name, Some(parent))
    }

    fn open(&self, name: &'static str, parent: Option<u64>) -> Guard {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let p = parent.unwrap_or_else(|| l.1.last().copied().unwrap_or(0));
            l.1.push(id);
            p
        });
        Guard {
            tracer: self.clone(),
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Takes every span recorded so far, ordered by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.inner.spans.lock().expect("span sink poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Per-layer figures of one traced run, derived from its spans.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    /// Self time per span name, seconds: a span's duration minus the
    /// durations of its children on the same thread.
    pub self_s: std::collections::BTreeMap<&'static str, f64>,
    /// Submit-to-task-body delays, µs (in-process engines only).
    pub dispatch_us: Vec<f64>,
    /// Duration of the root run span, seconds.
    pub run_s: f64,
}

impl LayerTimes {
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn from_spans(spans: &[Span]) -> Self {
        use std::collections::HashMap;
        let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        let mut out = LayerTimes::default();
        for s in spans {
            if let Some(p) = by_id.get(&s.parent) {
                if p.thread == s.thread {
                    *child_ns.entry(p.id).or_default() += s.dur_ns();
                }
                if s.name == TASK {
                    out.dispatch_us
                        .push(s.start_ns.saturating_sub(p.start_ns) as f64 / 1e3);
                }
            }
            if s.name == RUN {
                out.run_s += s.dur_ns() as f64 / 1e9;
            }
        }
        for s in spans {
            let own = s.dur_ns() - child_ns.get(&s.id).copied().unwrap_or(0).min(s.dur_ns());
            *out.self_s.entry(s.name).or_default() += own as f64 / 1e9;
        }
        out
    }
}

/// Writes `spans` as CSV (`id,parent,name,thread,start_ns,end_ns`).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "id,parent,name,thread,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            f,
            "{},{},{},{},{},{}",
            s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

/// The benchmark's [`Engine`] decorator: forwards every call to the wrapped
/// engine and records a span around submission and completion waits, plus
/// spans inside the task and wire closures it passes on.
pub struct TracedEngine {
    inner: Box<dyn Engine>,
    tracer: Tracer,
    submitted: Arc<AtomicU64>,
}

impl TracedEngine {
    pub fn new(inner: Box<dyn Engine>, tracer: Tracer) -> Self {
        Self {
            inner,
            tracer,
            submitted: Arc::default(),
        }
    }

    /// A handle on the number of tasks submitted through this engine,
    /// readable after the engine moved into a driver.
    pub fn submitted(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.submitted)
    }

    /// Wraps the task body in a span caused by submit span `parent`.
    fn wrap_task(&self, task: Task, parent: u64) -> Task {
        let tracer = self.tracer.clone();
        let run = task.run;
        Task {
            run: Box::new(move |ctx| {
                let _g = tracer.enter_at(TASK, parent);
                run(ctx)
            }),
            ..task
        }
    }

    fn wrap_wire(&self, wire: WireTask) -> WireTask {
        let (tb, td) = (self.tracer.clone(), self.tracer.clone());
        let (build, decode) = (wire.build, wire.decode);
        WireTask {
            routine: wire.routine,
            build: Box::new(move |ctx| {
                let _g = tb.enter(WIRE_BUILD);
                build(ctx)
            }),
            decode: Box::new(move |bytes| {
                let _g = td.enter(WIRE_DECODE);
                decode(bytes)
            }),
        }
    }
}

impl Engine for TracedEngine {
    fn workers(&self) -> usize {
        self.inner.workers()
    }
    fn now(&self) -> VTime {
        self.inner.now()
    }
    fn available(&self, w: WorkerId) -> bool {
        self.inner.available(w)
    }
    fn alive(&self, w: WorkerId) -> bool {
        self.inner.alive(w)
    }
    fn submit(&mut self, w: WorkerId, task: Task) -> Result<(), EngineError> {
        let g = self.tracer.enter(SUBMIT);
        let task = self.wrap_task(task, g.id());
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.submit(w, task)
    }
    fn submit_wired(&mut self, w: WorkerId, task: Task, wire: WireTask) -> Result<(), EngineError> {
        let g = self.tracer.enter(SUBMIT);
        let task = self.wrap_task(task, g.id());
        let wire = self.wrap_wire(wire);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.submit_wired(w, task, wire)
    }
    fn next(&mut self) -> Option<Completion> {
        let _g = self.tracer.enter(NEXT);
        self.inner.next()
    }
    fn try_next(&mut self) -> Option<Completion> {
        let _g = self.tracer.enter(TRY_NEXT);
        self.inner.try_next()
    }
    fn pending(&self) -> usize {
        self.inner.pending()
    }
    fn kill_worker(&mut self, w: WorkerId) {
        self.inner.kill_worker(w)
    }
    fn revive_worker(&mut self, w: WorkerId) -> Result<(), EngineError> {
        self.inner.revive_worker(w)
    }
    fn add_worker(&mut self) -> WorkerId {
        self.inner.add_worker()
    }
    fn schedule_failure(&mut self, w: WorkerId, at: VTime) {
        self.inner.schedule_failure(w, at)
    }
    fn schedule_revival(&mut self, w: WorkerId, at: VTime) {
        self.inner.schedule_revival(w, at)
    }
    fn schedule_join(&mut self, at: VTime) {
        self.inner.schedule_join(at)
    }
    fn next_event_at(&self) -> Option<VTime> {
        self.inner.next_event_at()
    }
}
