//! The wall-clock engines' chaos timer.
//!
//! The simulator fires membership events inside its deterministic event
//! queue. The threaded and remote engines instead hold them in one
//! [`ChaosTimer`]: a time-sorted queue of [`ChaosAction`]s against elapsed
//! engine time, applied by the engine's next `next`/`try_next` call once
//! the instant passes. The timer also owns the engine's start instant (so
//! `now()` is its `elapsed`) and the wait on the result channel, which
//! parks until the earliest due instant instead of polling.

use std::collections::VecDeque;
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

use async_cluster::{ChaosAction, VTime};
use crossbeam::channel::Receiver;

use crate::engine::Engine;

/// Cap on one armed wait: the pump re-checks chaos and deadlines at least
/// this often (the engines' historical poll cadence).
const MAX_WAIT: Duration = Duration::from_micros(500);

/// Scheduled membership events against elapsed real time. See the module
/// docs.
pub(crate) struct ChaosTimer {
    start: Instant,
    due: VecDeque<(VTime, ChaosAction)>,
}

impl ChaosTimer {
    /// A timer whose clock starts now, with nothing scheduled.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            due: VecDeque::new(),
        }
    }

    /// Real time since construction, as engine time.
    pub fn elapsed(&self) -> VTime {
        VTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    /// Schedules `action` at `at`, after any event already at that
    /// instant.
    pub fn push(&mut self, at: VTime, action: ChaosAction) {
        let pos = self.due.partition_point(|&(t, _)| t <= at);
        self.due.insert(pos, (at, action));
    }

    /// The instant of the earliest scheduled event.
    pub fn next_at(&self) -> Option<VTime> {
        self.due.front().map(|&(at, _)| at)
    }

    /// Removes and returns the earliest event if its instant has passed.
    pub fn pop_due(&mut self) -> Option<ChaosAction> {
        let &(at, _) = self.due.front()?;
        if at > self.elapsed() {
            return None;
        }
        self.due.pop_front().map(|(_, action)| action)
    }

    /// Waits for the next message on `rx`: parks indefinitely when neither
    /// a chaos event nor the caller's own `horizon` (e.g. a supervision
    /// deadline) is armed, otherwise until the earlier of the two, capped
    /// at [`MAX_WAIT`].
    pub fn recv<T>(
        &self,
        rx: &Receiver<T>,
        horizon: Option<Duration>,
    ) -> Result<T, RecvTimeoutError> {
        let chaos = self
            .next_at()
            .map(|at| Duration::from_micros(at.saturating_since(self.elapsed()).as_micros()));
        match [chaos, horizon].into_iter().flatten().min() {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(d) => rx.recv_timeout(d.min(MAX_WAIT)),
        }
    }
}

/// Applies one fired event through the engine's own membership calls.
/// Reviving an alive worker is a no-op at fire time.
pub(crate) fn apply(engine: &mut impl Engine, action: ChaosAction) {
    match action {
        ChaosAction::Kill(w) => engine.kill_worker(w),
        ChaosAction::Revive(w) => {
            let _ = engine.revive_worker(w);
        }
        ChaosAction::Join => {
            engine.add_worker();
        }
    }
}
