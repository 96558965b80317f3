//! Property tests of the incremental (version-diffed) broadcast: whatever
//! the gap pattern, ring size, mix of sparse/dense updates, or worker
//! churn, a resolved model must be **bit-identical** to the server's dense
//! snapshot of that version — the incremental path may only change the
//! bytes on the wire, never the values. Sparse versions are stored lazily,
//! as ring diffs, so every read path is also checked against an eager
//! reference that keeps each pushed model as a plain vector.

use async_core::{AsyncBcast, ReadPin};
use async_linalg::{GradDelta, SparseVec};
use proptest::prelude::*;
use sparklet::WorkerCtx;

const DIM: usize = 400;

/// One generated step of the broadcast's life.
#[derive(Debug)]
enum Step {
    /// Push a sparse update touching these coordinates.
    Sparse(Vec<(u32, f64)>),
    /// Push a full-support update (forces the snapshot fallback over it).
    Dense(f64),
    /// Worker `w` resolves the latest version.
    Fetch(usize),
    /// Worker `w` loses its cache (a churn revival's fresh executor).
    Wipe(usize),
}

fn apply_update(w: &mut [f64], u: &GradDelta) {
    u.axpy_into(1.0, w);
}

fn run_schedule(ring: usize, steps: &[Step]) -> Result<(), String> {
    let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(0, vec![0.0; DIM], 0);
    b.enable_incremental(ring);
    let mut server_w = vec![0.0; DIM];
    let mut workers: Vec<WorkerCtx> = (0..3).map(WorkerCtx::new).collect();
    for step in steps {
        match step {
            Step::Sparse(pairs) => {
                let u = GradDelta::Sparse(
                    SparseVec::from_pairs(pairs.clone(), DIM).expect("pairs within DIM"),
                );
                apply_update(&mut server_w, &u);
                b.push_snapshot_diff(&server_w, &u);
            }
            Step::Dense(a) => {
                let u = GradDelta::Dense(vec![*a; DIM]);
                apply_update(&mut server_w, &u);
                b.push_snapshot_diff(&server_w, &u);
            }
            Step::Fetch(w) => {
                let got = b.handle().value_incremental(&mut workers[*w]);
                prop_assert!(
                    got.as_slice() == server_w.as_slice(),
                    "worker {} diverged at version {}",
                    w,
                    b.latest_version()
                );
            }
            Step::Wipe(w) => {
                workers[*w] = WorkerCtx::new(*w);
            }
        }
    }
    // Every worker converges on a final fetch, whatever its history.
    for w in workers.iter_mut() {
        let got = b.handle().value_incremental(w);
        prop_assert_eq!(got.as_slice(), server_w.as_slice());
    }
    // Sanity: the machinery actually exercised both arms across the run
    // is not asserted per-case (some schedules are all-fallback), but the
    // stats must be internally consistent.
    let s = b.stats();
    prop_assert!(s.incremental_fetches <= s.fetches);
    prop_assert!(s.incremental_bytes <= s.fetched_bytes);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn any_gap_pattern_reconstructs_bit_identically(
        ring in 1usize..12,
        raw in proptest::collection::vec(
            (0u8..10, 0usize..3, proptest::collection::vec((0u32..DIM as u32, -2.0..2.0f64), 1..12), -1.0..1.0f64),
            1..60,
        ),
    ) {
        let steps: Vec<Step> = raw
            .into_iter()
            .map(|(kind, w, pairs, a)| match kind {
                // Sparse pushes dominate so patches actually happen.
                0..=5 => Step::Sparse(pairs),
                6 => Step::Dense(a),
                7 => Step::Wipe(w),
                _ => Step::Fetch(w),
            })
            .collect();
        run_schedule(ring, &steps)?;
    }

    #[test]
    fn steady_one_step_gaps_patch_incrementally(ring in 2usize..8, rounds in 5usize..40) {
        // The solver steady state: one sparse update, then a fetch, looped.
        // Every fetch after the first must take the incremental path.
        let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(0, vec![0.0; DIM], 0);
        b.enable_incremental(ring);
        let mut server_w = vec![0.0; DIM];
        let mut ctx = WorkerCtx::new(0);
        b.handle().value_incremental(&mut ctx);
        for r in 0..rounds {
            let i = (r * 37 % DIM) as u32;
            let u = GradDelta::Sparse(
                SparseVec::from_pairs(vec![(i, 1.0 + r as f64)], DIM).expect("in range"),
            );
            apply_update(&mut server_w, &u);
            b.push_snapshot_diff(&server_w, &u);
            let got = b.handle().value_incremental(&mut ctx);
            prop_assert_eq!(got.as_slice(), server_w.as_slice());
        }
        let s = b.stats();
        prop_assert_eq!(s.incremental_fetches, rounds as u64);
        // One-coordinate patches: 28 bytes each vs a 3208-byte snapshot.
        prop_assert_eq!(s.incremental_bytes, 28 * rounds as u64);
    }
}

/// One generated operation against a broadcast whose sparse versions are
/// stored lazily.
#[derive(Debug, Clone)]
enum Op {
    /// Push a sparse update touching these coordinates.
    Sparse(Vec<(u32, f64)>),
    /// Push a full-support update (stored eagerly).
    Dense(f64),
    /// An in-flight task pins the latest version.
    TaskPin,
    /// The `k`-th held task pin (mod count) is released.
    TaskUnpin(usize),
    /// A reader pins the latest version.
    ReadLatest,
    /// A reader pins version `k` (mod the version count), if still live.
    ReadAt(usize),
    /// The `k`-th held read pin (mod count) drops — out of the order the pins were taken.
    DropRead(usize),
    /// Worker `w` resolves the latest version incrementally.
    Fetch(usize),
    /// Networked worker `w` resolves the latest version through a wire
    /// plan built against its driver-side mirror.
    Plan(usize),
    /// Networked worker 0 resolves held version `k` (mod count) through
    /// `wire_plan_at`.
    PlanAt(usize),
    /// Every live version is read through `value_at` on a fresh worker.
    Sweep,
}

/// Maps one generated `(kind, k, pairs, a)` tuple to an operation.
fn to_op((kind, k, pairs, a): (u8, usize, Vec<(u32, f64)>, f64)) -> Op {
    match kind {
        // Pushes dominate so pins outlive the ring.
        0..=6 => Op::Sparse(pairs),
        7 => Op::Dense(a),
        8 => Op::TaskPin,
        9 => Op::TaskUnpin(k),
        10 => Op::ReadLatest,
        11 => Op::ReadAt(k),
        12 => Op::DropRead(k),
        13 | 14 => Op::Fetch(k % 2),
        15 | 16 => Op::Plan(k % 2),
        17 => Op::PlanAt(k),
        _ => Op::Sweep,
    }
}

/// Drives a lazily storing broadcast and an eager reference side by side.
struct Harness {
    b: AsyncBcast<Vec<f64>>,
    /// Every pushed model, indexed by version.
    models: Vec<Vec<f64>>,
    w: Vec<f64>,
    task_pins: Vec<u64>,
    read_pins: Vec<ReadPin<Vec<f64>>>,
    workers: Vec<WorkerCtx>,
    mirrors: Vec<WorkerCtx>,
    remotes: Vec<WorkerCtx>,
}

impl Harness {
    fn new(ring: usize) -> Self {
        let b: AsyncBcast<Vec<f64>> = AsyncBcast::new(3, vec![0.0; DIM], 0);
        b.enable_incremental(ring);
        Self {
            b,
            models: vec![vec![0.0; DIM]],
            w: vec![0.0; DIM],
            task_pins: Vec::new(),
            read_pins: Vec::new(),
            workers: (0..2).map(WorkerCtx::new).collect(),
            mirrors: (0..2).map(WorkerCtx::new).collect(),
            remotes: (0..2).map(WorkerCtx::new).collect(),
        }
    }

    fn latest(&self) -> u64 {
        self.b.latest_version()
    }

    fn expect(&self, v: u64) -> &[f64] {
        &self.models[v as usize]
    }

    fn push(&mut self, u: &GradDelta) {
        u.axpy_into(1.0, &mut self.w);
        let v = self.b.push_snapshot_diff(&self.w, u);
        assert_eq!(v as usize, self.models.len());
        self.models.push(self.w.clone());
    }

    /// A version the harness knows is live: one held by a pin, or the
    /// latest.
    fn held(&self, k: usize) -> u64 {
        let held: Vec<u64> = self
            .task_pins
            .iter()
            .copied()
            .chain(self.read_pins.iter().map(|p| p.version()))
            .collect();
        if held.is_empty() {
            self.latest()
        } else {
            held[k % held.len()]
        }
    }

    fn step(&mut self, op: &Op) -> Result<(), String> {
        match op {
            Op::Sparse(pairs) => {
                let u = GradDelta::Sparse(
                    SparseVec::from_pairs(pairs.clone(), DIM).expect("pairs within DIM"),
                );
                self.push(&u);
            }
            Op::Dense(a) => self.push(&GradDelta::Dense(vec![*a; DIM])),
            Op::TaskPin => {
                let v = self.latest();
                self.b.pin(v);
                self.task_pins.push(v);
            }
            Op::TaskUnpin(k) => {
                if !self.task_pins.is_empty() {
                    let v = self.task_pins.remove(k % self.task_pins.len());
                    self.b.unpin(v);
                }
            }
            Op::ReadLatest => {
                let pin = self.b.pin_read();
                prop_assert_eq!(pin.version(), self.latest());
                prop_assert!(pin.value() == self.expect(pin.version()), "pin_read value");
                self.read_pins.push(pin);
            }
            Op::ReadAt(k) => {
                let v = (*k as u64) % (self.latest() + 1);
                let must_be_live = v == self.latest()
                    || self.task_pins.contains(&v)
                    || self.read_pins.iter().any(|p| p.version() == v);
                match self.b.try_pin_read_at(v) {
                    Some(pin) => {
                        prop_assert!(
                            pin.value() == self.expect(v),
                            "try_pin_read_at({}) value",
                            v
                        );
                        self.read_pins.push(pin);
                    }
                    None => prop_assert!(!must_be_live, "held version {} was pruned", v),
                }
            }
            Op::DropRead(k) => {
                if !self.read_pins.is_empty() {
                    drop(self.read_pins.remove(k % self.read_pins.len()));
                }
            }
            Op::Fetch(w) => {
                let got = self.b.handle().value_incremental(&mut self.workers[*w]);
                prop_assert!(
                    got.as_slice() == self.expect(self.latest()),
                    "value_incremental"
                );
            }
            Op::Plan(w) => {
                let plan = self.b.handle().wire_plan(&mut self.mirrors[*w]);
                let got = plan.apply(&mut self.remotes[*w], self.b.id());
                prop_assert!(got.as_slice() == self.expect(self.latest()), "wire_plan");
            }
            Op::PlanAt(k) => {
                let v = self.held(*k);
                let plan = self.b.handle().wire_plan_at(&mut self.mirrors[0], v);
                let got = plan.apply(&mut self.remotes[0], self.b.id());
                prop_assert!(got.as_slice() == self.expect(v), "wire_plan_at({})", v);
            }
            Op::Sweep => self.sweep()?,
        }
        Ok(())
    }

    /// Reads every live version through `value_at` on a fresh worker. A
    /// lazily stored version is built from the dense version below it, so
    /// this also proves no such base was pruned while a live lazy version
    /// still depended on it.
    fn sweep(&mut self) -> Result<(), String> {
        for v in 0..=self.latest() {
            let Some(pin) = self.b.try_pin_read_at(v) else {
                continue;
            };
            let got = self.b.handle().value_at(&mut WorkerCtx::new(9), v);
            prop_assert!(got.as_slice() == self.expect(v), "value_at({})", v);
            prop_assert!(pin.value() == self.expect(v), "swept pin {}", v);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn lazy_versions_match_an_eager_reference_on_every_read_path(
        ring in 1usize..13,
        raw in proptest::collection::vec(
            (0u8..20, 0usize..64, proptest::collection::vec((0u32..DIM as u32, -2.0..2.0f64), 1..12), -1.0..1.0f64),
            1..120,
        ),
        long_first in 0u8..2,
    ) {
        let ops: Vec<Op> = raw.into_iter().map(to_op).collect();
        let mut h = Harness::new(ring);
        // One version is pinned by a task and a reader across more pushes
        // than the ring holds, whatever the generated schedule does.
        let pairs = vec![(1, 0.5), (DIM as u32 - 1, -0.25)];
        h.push(&GradDelta::Sparse(SparseVec::from_pairs(pairs, DIM).expect("in range")));
        let long = h.latest();
        h.b.pin(long);
        let long_read = h.b.try_pin_read_at(long).expect("latest is live");
        for op in &ops {
            h.step(op)?;
        }
        for r in 0..=ring as u32 {
            let u = GradDelta::Sparse(
                SparseVec::from_pairs(vec![(r * 7 % DIM as u32, 1.0)], DIM).expect("in range"),
            );
            h.push(&u);
        }
        prop_assert!(long_read.value() == h.expect(long), "long-held read pin");
        let got = h.b.handle().value_at(&mut WorkerCtx::new(8), long);
        prop_assert!(got.as_slice() == h.expect(long), "long-held version");
        // Release the long pins in either order, then everything else out
        // of the order they were taken, checking the store after each release.
        if long_first == 1 {
            h.b.unpin(long);
            drop(long_read);
        } else {
            drop(long_read);
            h.b.unpin(long);
        }
        h.sweep()?;
        while !h.read_pins.is_empty() || !h.task_pins.is_empty() {
            let k = h.read_pins.len() + h.task_pins.len();
            h.step(&Op::DropRead(k / 2))?;
            h.step(&Op::TaskUnpin(k / 3))?;
            h.sweep()?;
        }
        for w in 0..2 {
            h.step(&Op::Fetch(w))?;
            h.step(&Op::Plan(w))?;
        }
        let s = h.b.stats();
        prop_assert!(s.incremental_fetches <= s.fetches);
        prop_assert!(s.versions_live >= 1);
    }
}
