//! Chaos schedules: deterministic cluster-membership churn.
//!
//! On real clouds executors do not merely slow down — they die, are
//! replaced, and new capacity joins mid-run. A [`ChaosSchedule`] is a
//! seeded, deterministic script of membership events over virtual time:
//! **kill** an executor (its in-flight task is lost), **revive** a dead
//! executor (it returns as a *fresh* executor: empty caches, rebuilt
//! broadcast state), and **join** a brand-new executor (assigned the next
//! dense worker id).
//!
//! A schedule is a passive description. The one way to install it is the
//! driver's `install_chaos`, which maps events onto the engine's own
//! scheduling primitives: the simulator's deterministic event queue, or
//! the chaos timer the threaded and remote backends share, which applies
//! events once real elapsed time passes them. The same schedule therefore
//! replays bit-identically on the simulator and approximately — at real
//! elapsed instants — on OS threads and worker processes.
//!
//! [`ChaosSchedule::random`] generates valid random scripts (never killing
//! the last alive worker, only reviving dead ones) and
//! [`ChaosSchedule::pcs_churn`] is the production-flavoured preset modeled
//! on the same Microsoft/Google traces as
//! [`crate::straggler::DelayModel::ProductionCluster`]: ~25 % of the fleet
//! is lost in a staggered burst, every casualty is replaced after a
//! downtime window, and one elastic scale-up join lands mid-run.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::VTime;
use crate::WorkerId;

/// One membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Fail the worker (in-flight task lost, as `Engine::kill_worker`).
    Kill(WorkerId),
    /// Bring a dead worker back as a fresh executor.
    Revive(WorkerId),
    /// Add a brand-new worker (next dense id at the instant it applies).
    Join,
}

/// A membership change at a virtual instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// When the change takes effect.
    pub at: VTime,
    /// What changes.
    pub action: ChaosAction,
}

/// Tuning knobs for [`ChaosSchedule::random`].
#[derive(Debug, Clone)]
pub struct ChaosCfg {
    /// Number of events to generate.
    pub events: usize,
    /// Relative weight of kill events (vs revive/join).
    pub kill_weight: f64,
    /// Relative weight of revive events.
    pub revive_weight: f64,
    /// Relative weight of join events.
    pub join_weight: f64,
    /// At most this many joins total (bounds cluster growth).
    pub max_joins: usize,
}

impl Default for ChaosCfg {
    fn default() -> Self {
        Self {
            events: 6,
            kill_weight: 1.0,
            revive_weight: 1.0,
            join_weight: 0.5,
            max_joins: 2,
        }
    }
}

/// A deterministic script of membership events, sorted by time (ties keep
/// insertion order). See the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosSchedule {
    events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a kill of `w` at `at` (builder style).
    pub fn kill(mut self, at: VTime, w: WorkerId) -> Self {
        self.insert(ChaosEvent {
            at,
            action: ChaosAction::Kill(w),
        });
        self
    }

    /// Adds a revival of `w` at `at` (builder style).
    pub fn revive(mut self, at: VTime, w: WorkerId) -> Self {
        self.insert(ChaosEvent {
            at,
            action: ChaosAction::Revive(w),
        });
        self
    }

    /// Adds a join at `at` (builder style).
    pub fn join(mut self, at: VTime) -> Self {
        self.insert(ChaosEvent {
            at,
            action: ChaosAction::Join,
        });
        self
    }

    fn insert(&mut self, ev: ChaosEvent) {
        // Stable insert keeping time order; same-instant events keep the
        // order they were added, which the engines' queues preserve.
        let pos = self.events.partition_point(|e| e.at <= ev.at);
        self.events.insert(pos, ev);
    }

    /// The events in time order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Kill / revive / join counts (for reporting).
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut k = (0, 0, 0);
        for e in &self.events {
            match e.action {
                ChaosAction::Kill(_) => k.0 += 1,
                ChaosAction::Revive(_) => k.1 += 1,
                ChaosAction::Join => k.2 += 1,
            }
        }
        k
    }

    /// A seeded random schedule of `cfg.events` events over `(0, horizon)`
    /// for a cluster starting with `workers` workers. Always *valid*: kills
    /// target currently-alive workers and never the last one; revivals
    /// target currently-dead workers; joins are bounded by `cfg.max_joins`.
    /// Deterministic in `(seed, workers, horizon, cfg)`.
    ///
    /// # Panics
    /// Panics if `workers == 0` or `horizon` is the epoch.
    pub fn random(seed: u64, workers: usize, horizon: VTime, cfg: &ChaosCfg) -> Self {
        assert!(workers > 0, "chaos schedule needs a nonempty cluster");
        assert!(horizon > VTime::ZERO, "chaos horizon must be positive");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4A0_5C4A_05C4_A05C);
        let mut alive: Vec<WorkerId> = (0..workers).collect();
        let mut dead: Vec<WorkerId> = Vec::new();
        let mut next_id = workers;
        let mut joins = 0usize;
        let mut out = Self::new();
        if cfg.events == 0 {
            return out;
        }
        // Event instants: sorted uniform draws over (0, horizon). The
        // upper bound is clamped so a 1µs horizon degenerates to "every
        // event at t=1" instead of an empty sample range.
        let hi = horizon.as_micros().max(2);
        let mut times: Vec<u64> = (0..cfg.events).map(|_| rng.gen_range(1..hi)).collect();
        times.sort_unstable();
        for t in times {
            let at = VTime::from_micros(t);
            let can_kill = alive.len() > 1;
            let can_revive = !dead.is_empty();
            let can_join = joins < cfg.max_joins;
            let wk = if can_kill { cfg.kill_weight } else { 0.0 };
            let wr = if can_revive { cfg.revive_weight } else { 0.0 };
            let wj = if can_join { cfg.join_weight } else { 0.0 };
            let total = wk + wr + wj;
            if total <= 0.0 {
                continue;
            }
            let draw = rng.gen_range(0.0..total);
            if draw < wk {
                let i = rng.gen_range(0..alive.len());
                let w = alive.swap_remove(i);
                dead.push(w);
                out.insert(ChaosEvent {
                    at,
                    action: ChaosAction::Kill(w),
                });
            } else if draw < wk + wr {
                let i = rng.gen_range(0..dead.len());
                let w = dead.swap_remove(i);
                alive.push(w);
                out.insert(ChaosEvent {
                    at,
                    action: ChaosAction::Revive(w),
                });
            } else {
                alive.push(next_id);
                next_id += 1;
                joins += 1;
                out.insert(ChaosEvent {
                    at,
                    action: ChaosAction::Join,
                });
            }
        }
        out
    }

    /// The production-cluster churn preset: ~25 % of `workers` are killed,
    /// staggered through the first half of `horizon`; every casualty is
    /// revived after a downtime of ~25 % of `horizon`; one new worker joins
    /// at the midpoint. Deterministic in `(seed, workers, horizon)`.
    ///
    /// # Panics
    /// Panics if `workers < 2` (someone must survive every kill).
    pub fn pcs_churn(seed: u64, workers: usize, horizon: VTime) -> Self {
        assert!(workers >= 2, "pcs_churn needs at least 2 workers");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let n_kill = ((workers as f64 * 0.25).round() as usize).clamp(1, workers - 1);
        // Choose victims by partial Fisher-Yates, like the PCS assignment.
        let mut ids: Vec<WorkerId> = (0..workers).collect();
        for i in 0..n_kill {
            let j = rng.gen_range(i..workers);
            ids.swap(i, j);
        }
        let h = horizon.as_micros();
        let downtime = h / 4;
        let mut s = Self::new();
        for (k, &w) in ids.iter().take(n_kill).enumerate() {
            // Staggered kills through the first half of the horizon.
            let at = h * (k as u64 + 1) / (2 * (n_kill as u64 + 1));
            let at = at.max(1);
            s = s
                .kill(VTime::from_micros(at), w)
                .revive(VTime::from_micros(at + downtime), w);
        }
        s.join(VTime::from_micros(h / 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_keeps_time_order() {
        let s = ChaosSchedule::new()
            .revive(VTime::from_micros(30), 1)
            .kill(VTime::from_micros(10), 1)
            .join(VTime::from_micros(20));
        let times: Vec<u64> = s.events().iter().map(|e| e.at.as_micros()).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert_eq!(s.counts(), (1, 1, 1));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn same_instant_events_keep_insertion_order() {
        let t = VTime::from_micros(5);
        let s = ChaosSchedule::new().kill(t, 0).revive(t, 0).join(t);
        assert_eq!(s.events()[0].action, ChaosAction::Kill(0));
        assert_eq!(s.events()[1].action, ChaosAction::Revive(0));
        assert_eq!(s.events()[2].action, ChaosAction::Join);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let cfg = ChaosCfg::default();
        let a = ChaosSchedule::random(7, 4, VTime::from_micros(1_000_000), &cfg);
        let b = ChaosSchedule::random(7, 4, VTime::from_micros(1_000_000), &cfg);
        assert_eq!(a, b);
        let c = ChaosSchedule::random(8, 4, VTime::from_micros(1_000_000), &cfg);
        assert_ne!(a, c, "different seeds should differ w.h.p.");
    }

    #[test]
    fn random_schedules_are_valid() {
        // Replay the membership automaton: kills never empty the cluster,
        // revivals only target dead workers.
        for seed in 0..50u64 {
            let cfg = ChaosCfg {
                events: 12,
                ..ChaosCfg::default()
            };
            let s = ChaosSchedule::random(seed, 3, VTime::from_micros(500_000), &cfg);
            let mut alive: Vec<bool> = vec![true; 3];
            for e in s.events() {
                match e.action {
                    ChaosAction::Kill(w) => {
                        assert!(alive[w], "seed {seed}: kill of dead worker {w}");
                        alive[w] = false;
                        assert!(
                            alive.iter().any(|&a| a),
                            "seed {seed}: schedule empties the cluster"
                        );
                    }
                    ChaosAction::Revive(w) => {
                        assert!(!alive[w], "seed {seed}: revive of alive worker {w}");
                        alive[w] = true;
                    }
                    ChaosAction::Join => alive.push(true),
                }
            }
        }
    }

    #[test]
    fn random_tolerates_a_one_microsecond_horizon() {
        let s = ChaosSchedule::random(1, 2, VTime::from_micros(1), &ChaosCfg::default());
        for e in s.events() {
            assert_eq!(e.at.as_micros(), 1, "degenerate horizon pins events at t=1");
        }
    }

    #[test]
    fn pcs_churn_kills_quarter_and_revives_all() {
        let s = ChaosSchedule::pcs_churn(42, 8, VTime::from_micros(1_000_000));
        let (kills, revives, joins) = s.counts();
        assert_eq!(kills, 2, "25% of 8 workers");
        assert_eq!(revives, kills, "every casualty is replaced");
        assert_eq!(joins, 1);
        // Each kill precedes its own revival.
        for e in s.events() {
            if let ChaosAction::Revive(w) = e.action {
                let killed_at = s
                    .events()
                    .iter()
                    .find(|k| k.action == ChaosAction::Kill(w))
                    .expect("revived worker was killed")
                    .at;
                assert!(killed_at < e.at);
            }
        }
    }

    #[test]
    fn pcs_churn_is_deterministic() {
        let a = ChaosSchedule::pcs_churn(3, 6, VTime::from_micros(300_000));
        let b = ChaosSchedule::pcs_churn(3, 6, VTime::from_micros(300_000));
        assert_eq!(a, b);
    }
}
