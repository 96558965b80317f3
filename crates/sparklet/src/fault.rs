//! Wire-level fault injection for the remote engine.
//!
//! A [`FaultPlan`] describes, per outgoing frame, the probability of each
//! misbehaviour a real network exhibits: silently dropping the frame,
//! delaying it, duplicating it, tearing it mid-write, or resetting the
//! connection. Each endpoint derives a [`FaultInjector`] from the plan —
//! seeded by `(plan.seed, worker, epoch, direction)` — so a given
//! incarnation misbehaves identically on every run regardless of thread
//! interleaving: determinism lives in the *sequence of frames an endpoint
//! writes*, not in wall-clock time.
//!
//! The plan composes with scripted membership chaos (installed through
//! [`crate::driver::Driver::install_chaos`]), but its point is the
//! opposite contract: faults strike *unscripted*, and the supervision
//! layer (heartbeats, task deadlines, retries, auto-respawn) has to notice
//! and recover without being told when. `hang_worker` models the nastiest case — a
//! worker that keeps computing but whose outbound frames (completions
//! *and* heartbeats) all vanish, indistinguishable from a network
//! partition; only a liveness deadline can catch it.
//!
//! Handshake frames (`WorkerUp` greetings) are exempt by construction:
//! injectors are applied to post-handshake traffic only, so a non-zero
//! plan cannot prevent the cluster from forming. Faults are a transport
//! concern; whether the *cluster* admits the worker is chaos-schedule
//! territory.

use std::time::Duration;

/// Which way frames are flowing through an injector. Driver→worker and
/// worker→driver halves of one connection get independent deterministic
/// streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDir {
    /// Driver-side writes: `Submit` frames.
    DriverToWorker,
    /// Worker-side writes: `Completion` and `Heartbeat` frames.
    WorkerToDriver,
}

/// A seeded description of transport misbehaviour. Probabilities are per
/// frame and independent; the first matching action in the order
/// reset → truncate → drop → duplicate → delay wins. The default plan is
/// zero everywhere — [`FaultPlan::is_zero`] — and injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every injector derived from this plan.
    pub seed: u64,
    /// Probability a frame is silently dropped (the writer believes it
    /// was sent).
    pub drop: f64,
    /// Probability a frame is delayed by a uniform `0..=max_delay` before
    /// hitting the socket.
    pub delay: f64,
    /// Upper bound of an injected delay.
    pub max_delay: Duration,
    /// Probability a frame is written twice back-to-back (the receiver's
    /// epoch/tag guards must absorb the duplicate).
    pub duplicate: f64,
    /// Probability a frame is torn mid-write: a strict prefix goes out and
    /// the connection is shut down, exactly like a peer dying mid-`write`.
    pub truncate: f64,
    /// Probability the connection is reset instead of the write.
    pub reset: f64,
    /// A worker that "hangs" without a script: once its injector has let
    /// `hang_after` completion frames through, *every* outbound frame from
    /// that worker (completions and heartbeats) is silently dropped. The
    /// process keeps running — only the liveness deadline can tell.
    pub hang_worker: Option<usize>,
    /// Completion-frame count after which `hang_worker` goes silent.
    pub hang_after: u64,
    /// Restricts the plan to one direction: `Some(dir)` leaves the other
    /// direction's endpoint fault-free. `None` (default) faults both.
    pub only: Option<FaultDir>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            drop: 0.0,
            delay: 0.0,
            max_delay: Duration::from_micros(500),
            duplicate: 0.0,
            truncate: 0.0,
            reset: 0.0,
            hang_worker: None,
            hang_after: 0,
            only: None,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// True when this plan can never inject a fault — the remote engine
    /// skips the injection layer entirely in that case.
    pub fn is_zero(&self) -> bool {
        self.drop == 0.0
            && self.delay == 0.0
            && self.duplicate == 0.0
            && self.truncate == 0.0
            && self.reset == 0.0
            && self.hang_worker.is_none()
    }

    /// True when an endpoint writing in `dir` should apply this plan
    /// (non-zero and not restricted to the other direction).
    pub fn applies(&self, dir: FaultDir) -> bool {
        !self.is_zero() && self.only.is_none_or(|d| d == dir)
    }

    /// Renders the plan as a compact `key=value,...` spec suitable for a
    /// worker-process command line. [`FaultPlan::from_spec`] inverts it.
    pub fn to_spec(&self) -> String {
        let mut s = format!(
            "seed={},drop={},delay={},delay_us={},dup={},trunc={},reset={}",
            self.seed,
            self.drop,
            self.delay,
            self.max_delay.as_micros(),
            self.duplicate,
            self.truncate,
            self.reset,
        );
        if let Some(w) = self.hang_worker {
            s.push_str(&format!(",hang_worker={w},hang_after={}", self.hang_after));
        }
        match self.only {
            Some(FaultDir::DriverToWorker) => s.push_str(",only=d2w"),
            Some(FaultDir::WorkerToDriver) => s.push_str(",only=w2d"),
            None => {}
        }
        s
    }

    /// Parses a spec produced by [`FaultPlan::to_spec`]. Unknown keys and
    /// malformed values are rejected so a typo on a worker command line
    /// fails loudly instead of silently running fault-free.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for pair in spec.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry without '=': {pair:?}"))?;
            macro_rules! val {
                () => {
                    v.parse()
                        .map_err(|_| format!("fault spec {k}: bad value {v:?}"))?
                };
            }
            match k {
                "seed" => plan.seed = val!(),
                "drop" => plan.drop = val!(),
                "delay" => plan.delay = val!(),
                "delay_us" => plan.max_delay = Duration::from_micros(val!()),
                "dup" => plan.duplicate = val!(),
                "trunc" => plan.truncate = val!(),
                "reset" => plan.reset = val!(),
                "hang_worker" => plan.hang_worker = Some(val!()),
                "hang_after" => plan.hang_after = val!(),
                "only" => {
                    plan.only = Some(match v {
                        "d2w" => FaultDir::DriverToWorker,
                        "w2d" => FaultDir::WorkerToDriver,
                        _ => return Err(format!("fault spec only: bad value {v:?}")),
                    })
                }
                _ => return Err(format!("fault spec: unknown key {k:?}")),
            }
        }
        Ok(plan)
    }

    /// The injector for one direction of one worker incarnation.
    pub fn injector(&self, worker: usize, epoch: u64, dir: FaultDir) -> FaultInjector {
        let salt = match dir {
            FaultDir::DriverToWorker => 0x9E37_79B9_7F4A_7C15u64,
            FaultDir::WorkerToDriver => 0xD1B5_4A32_D192_ED03u64,
        };
        let state = splitmix(
            self.seed ^ salt ^ (worker as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ epoch,
        );
        FaultInjector {
            plan: self.clone(),
            worker,
            state,
            frames: 0,
        }
    }
}

/// What to do with the next outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Write the frame normally.
    Deliver,
    /// Pretend the write succeeded; put nothing on the wire.
    Drop,
    /// Sleep this long, then write normally.
    Delay(Duration),
    /// Write the frame twice back-to-back.
    Duplicate,
    /// Write only this many bytes of the frame, then shut the connection
    /// down (a torn frame mid-stream).
    Truncate(usize),
    /// Shut the connection down without writing.
    Reset,
}

/// One endpoint's deterministic fault stream. Feed it each outgoing
/// frame's length; it answers with the action to take. The decision
/// sequence depends only on `(plan.seed, worker, epoch, direction)` and
/// the frame index, never on time.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    worker: usize,
    state: u64,
    frames: u64,
}

impl FaultInjector {
    fn unit(&mut self) -> f64 {
        self.state = splitmix(self.state);
        // 53 significand bits → uniform in [0, 1).
        (self.state >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True once the plan's hang point has been reached for this worker.
    /// The caller flips to dropping everything (see
    /// [`FaultPlan::hang_worker`]); heartbeat streams share the verdict
    /// through the caller's flag, keeping it a function of completion
    /// count alone.
    pub fn hang_reached(&self) -> bool {
        self.plan.hang_worker == Some(self.worker) && self.frames >= self.plan.hang_after
    }

    /// Decides the fate of the next outgoing frame of `len` bytes.
    pub fn next_action(&mut self, len: usize) -> FaultAction {
        self.frames += 1;
        if self.plan.is_zero() {
            return FaultAction::Deliver;
        }
        let u = self.unit();
        let mut edge = self.plan.reset;
        if u < edge {
            return FaultAction::Reset;
        }
        edge += self.plan.truncate;
        if u < edge {
            // A strict prefix: at least the length header minus one byte
            // is interesting, but any cut short of the full frame tears.
            let cut = (self.unit() * len as f64) as usize;
            return FaultAction::Truncate(cut.min(len.saturating_sub(1)));
        }
        edge += self.plan.drop;
        if u < edge {
            return FaultAction::Drop;
        }
        edge += self.plan.duplicate;
        if u < edge {
            return FaultAction::Duplicate;
        }
        edge += self.plan.delay;
        if u < edge {
            let us = (self.unit() * self.plan.max_delay.as_micros() as f64) as u64;
            return FaultAction::Delay(Duration::from_micros(us));
        }
        FaultAction::Deliver
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy() -> FaultPlan {
        FaultPlan {
            seed: 42,
            drop: 0.2,
            delay: 0.2,
            max_delay: Duration::from_micros(100),
            duplicate: 0.1,
            truncate: 0.05,
            reset: 0.05,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn zero_plan_always_delivers() {
        let mut inj = FaultPlan::none().injector(0, 0, FaultDir::DriverToWorker);
        for _ in 0..1000 {
            assert_eq!(inj.next_action(64), FaultAction::Deliver);
        }
    }

    #[test]
    fn injector_streams_are_deterministic_per_identity() {
        let plan = lossy();
        let mut a = plan.injector(1, 3, FaultDir::WorkerToDriver);
        let mut b = plan.injector(1, 3, FaultDir::WorkerToDriver);
        let mut other_epoch = plan.injector(1, 4, FaultDir::WorkerToDriver);
        let mut other_dir = plan.injector(1, 3, FaultDir::DriverToWorker);
        let sa: Vec<_> = (0..200).map(|_| a.next_action(128)).collect();
        let sb: Vec<_> = (0..200).map(|_| b.next_action(128)).collect();
        assert_eq!(sa, sb, "same identity, same stream");
        let se: Vec<_> = (0..200).map(|_| other_epoch.next_action(128)).collect();
        let sd: Vec<_> = (0..200).map(|_| other_dir.next_action(128)).collect();
        assert_ne!(sa, se, "epoch changes the stream");
        assert_ne!(sa, sd, "direction changes the stream");
    }

    #[test]
    fn lossy_plan_exercises_every_action() {
        let mut inj = lossy().injector(0, 1, FaultDir::WorkerToDriver);
        let mut saw = [false; 6];
        for _ in 0..5000 {
            let idx = match inj.next_action(64) {
                FaultAction::Deliver => 0,
                FaultAction::Drop => 1,
                FaultAction::Delay(d) => {
                    assert!(d <= Duration::from_micros(100));
                    2
                }
                FaultAction::Duplicate => 3,
                FaultAction::Truncate(n) => {
                    assert!(n < 64, "truncation must be a strict prefix");
                    4
                }
                FaultAction::Reset => 5,
            };
            saw[idx] = true;
        }
        assert_eq!(saw, [true; 6], "every action fired at these rates");
    }

    #[test]
    fn spec_roundtrips_and_rejects_garbage() {
        let mut plan = lossy();
        plan.hang_worker = Some(2);
        plan.hang_after = 30;
        plan.only = Some(FaultDir::WorkerToDriver);
        let back = FaultPlan::from_spec(&plan.to_spec()).expect("roundtrip");
        assert_eq!(back, plan);
        assert_eq!(FaultPlan::from_spec("").expect("empty"), FaultPlan::none());
        assert!(FaultPlan::from_spec("bogus=1").is_err());
        assert!(FaultPlan::from_spec("drop").is_err());
        assert!(FaultPlan::from_spec("drop=x").is_err());
        assert!(FaultPlan::from_spec("only=sideways").is_err());
    }

    #[test]
    fn direction_restriction_gates_applicability() {
        let both = lossy();
        assert!(both.applies(FaultDir::DriverToWorker));
        assert!(both.applies(FaultDir::WorkerToDriver));
        let w2d = FaultPlan {
            only: Some(FaultDir::WorkerToDriver),
            ..lossy()
        };
        assert!(!w2d.applies(FaultDir::DriverToWorker));
        assert!(w2d.applies(FaultDir::WorkerToDriver));
        assert!(
            !FaultPlan::none().applies(FaultDir::WorkerToDriver),
            "a zero plan applies nowhere"
        );
    }

    #[test]
    fn hang_is_a_function_of_frame_count() {
        let plan = FaultPlan {
            hang_worker: Some(3),
            hang_after: 5,
            ..FaultPlan::default()
        };
        let mut inj = plan.injector(3, 0, FaultDir::WorkerToDriver);
        assert!(!inj.hang_reached());
        for _ in 0..5 {
            inj.next_action(32);
        }
        assert!(inj.hang_reached());
        // A different worker under the same plan never hangs.
        let mut other = plan.injector(2, 0, FaultDir::WorkerToDriver);
        for _ in 0..100 {
            other.next_action(32);
        }
        assert!(!other.hang_reached());
    }
}
