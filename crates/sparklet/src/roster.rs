//! The worker roster: the engines' one copy of ASYNC's worker-status rule.
//!
//! ASYNC's `AC.STAT` knows who is alive and which incarnation each worker
//! is on; asynchrony is only sound if a result from a dead incarnation can
//! never be absorbed. Every [`Engine`](crate::engine::Engine) backend keeps
//! that rule through one [`Roster`]: per worker an alive flag, an epoch
//! (bumped on every death, so it names the incarnation), a task sequence
//! number (the straggler model's per-worker task index) and a FIFO of
//! in-flight entries; plus the engine-wide in-flight count and the queue of
//! completions waiting to be handed out by `next`.
//!
//! The entry type is the backend's own: the simulator needs nothing, the
//! threaded engine the issue instant, the remote engine its decode closure
//! and deadline instants. Transport (event queue, threads, sockets) stays
//! in the engines.

use std::collections::VecDeque;

use async_cluster::WorkerId;

use crate::engine::{Completion, EngineError};

struct Row<E> {
    alive: bool,
    /// The incarnation: bumped on every kill, so results stamped with an
    /// older epoch are orphans whose loss was already reported.
    epoch: u64,
    /// Tasks admitted so far by this worker id (all incarnations).
    seq: u64,
    /// In-flight tasks as `(tag, entry)`, oldest first.
    inflight: VecDeque<(u64, E)>,
}

/// Per-worker incarnation table plus the pending count and the queue of
/// undelivered completions. See the module docs.
pub(crate) struct Roster<E> {
    rows: Vec<Row<E>>,
    /// In-flight bound per worker (1 = one executor slot).
    bound: usize,
    pending: usize,
    queued: VecDeque<Completion>,
}

impl<E> Roster<E> {
    /// `n` alive workers at epoch 0, each admitting up to `bound` tasks.
    pub fn new(n: usize, bound: usize) -> Self {
        let mut roster = Self {
            rows: Vec::with_capacity(n),
            bound,
            pending: 0,
            queued: VecDeque::new(),
        };
        for _ in 0..n {
            let w = roster.grow();
            roster.rows[w].alive = true;
        }
        roster
    }

    /// Appends a worker row with the next dense id, dead until
    /// [`Roster::revive`] activates it (the join).
    pub fn grow(&mut self) -> WorkerId {
        self.rows.push(Row {
            alive: false,
            epoch: 0,
            seq: 0,
            inflight: VecDeque::new(),
        });
        self.rows.len() - 1
    }

    pub fn alive(&self, w: WorkerId) -> bool {
        self.rows[w].alive
    }

    /// Alive with a free in-flight slot.
    pub fn available(&self, w: WorkerId) -> bool {
        let row = &self.rows[w];
        row.alive && row.inflight.len() < self.bound
    }

    /// The current incarnation of `w`.
    pub fn epoch(&self, w: WorkerId) -> u64 {
        self.rows[w].epoch
    }

    /// True when `epoch` is the live incarnation of `w`.
    pub fn is_current(&self, w: WorkerId, epoch: u64) -> bool {
        let row = &self.rows[w];
        row.alive && row.epoch == epoch
    }

    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The dead/busy check: on success returns the worker's task sequence
    /// number for this submission and advances it. The caller records the
    /// task with [`Roster::launch`] once its transport accepted it.
    pub fn admit(&mut self, w: WorkerId) -> Result<u64, EngineError> {
        let bound = self.bound;
        let row = &mut self.rows[w];
        if !row.alive {
            return Err(EngineError::WorkerDead(w));
        }
        if row.inflight.len() >= bound {
            return Err(EngineError::WorkerBusy(w));
        }
        row.seq += 1;
        Ok(row.seq - 1)
    }

    /// Records an admitted task as in flight on `w`.
    pub fn launch(&mut self, w: WorkerId, tag: u64, entry: E) {
        self.rows[w].inflight.push_back((tag, entry));
        self.pending += 1;
    }

    /// The oldest in-flight entry of `w`, if any.
    pub fn oldest(&self, w: WorkerId) -> Option<&E> {
        self.rows[w].inflight.front().map(|(_, e)| e)
    }

    /// The epoch guard: removes and returns the in-flight entry for `tag`
    /// if `epoch` is `w`'s live incarnation. Orphans of a killed (possibly
    /// since-revived) incarnation and unsolicited results (a duplicated
    /// frame) return `None` and are to be dropped.
    pub fn take(&mut self, w: WorkerId, epoch: u64, tag: u64) -> Option<E> {
        if !self.is_current(w, epoch) {
            return None;
        }
        let inflight = &mut self.rows[w].inflight;
        let pos = inflight.iter().position(|(t, _)| *t == tag)?;
        let (_, entry) = inflight.remove(pos).expect("position exists");
        self.pending -= 1;
        Some(entry)
    }

    /// Fails `w`: retires its epoch and queues one [`Completion::Lost`]
    /// per in-flight task (FIFO order), or [`Completion::WorkerDown`] when
    /// it was idle. Returns `false` (and does nothing) if `w` is already
    /// dead.
    pub fn kill(&mut self, w: WorkerId) -> bool {
        let row = &mut self.rows[w];
        if !row.alive {
            return false;
        }
        row.alive = false;
        row.epoch += 1;
        if row.inflight.is_empty() {
            self.queued.push_back(Completion::WorkerDown { worker: w });
        }
        self.pending -= row.inflight.len();
        for (tag, _) in row.inflight.drain(..) {
            self.queued.push_back(Completion::Lost { worker: w, tag });
        }
        true
    }

    /// Activates a dead (or freshly grown) worker as a fresh incarnation
    /// and queues its [`Completion::WorkerUp`]. Returns `false` (and does
    /// nothing) if `w` is already alive.
    pub fn revive(&mut self, w: WorkerId) -> bool {
        let row = &mut self.rows[w];
        if row.alive {
            return false;
        }
        row.alive = true;
        self.queued.push_back(Completion::WorkerUp { worker: w });
        true
    }

    /// Queues a completion behind the ones already waiting.
    pub fn queue(&mut self, c: Completion) {
        self.queued.push_back(c);
    }

    /// The oldest undelivered completion.
    pub fn pop_queued(&mut self) -> Option<Completion> {
        self.queued.pop_front()
    }
}
