//! Engine conformance: one membership script runs against the simulator,
//! the threaded engine and a loopback remote engine, and all three must
//! report the same sequence of completions.
//!
//! The script covers the worker-incarnation rule every backend shares:
//! killing a busy worker loses its task, killing an idle one reports it
//! down, a revived worker comes back fresh while its killed incarnation's
//! late result is dropped, a join takes the next dense id, and scheduled
//! membership applies once its instant passes.

use std::sync::Arc;
use std::time::Duration;

use async_cluster::{ClusterSpec, CommModel, DelayModel, VDur};
use bytes::BytesMut;
use sparklet::sim::SimEngine;
use sparklet::threaded::ThreadedEngine;
use sparklet::{
    Completion, Engine, Payload, RemoteConfig, RemoteEngine, RoutineRegistry, Task, WireTask,
};

/// How long the slow task computes: it is still in flight when the script
/// kills its worker, and its late result lands after the revival.
const SLOW: Duration = Duration::from_millis(30);

/// What one completion says: kind, worker, and the result of a `Done`
/// or the tag of a `Lost` task.
type Seen = (&'static str, usize, Option<u64>);

fn spec() -> ClusterSpec {
    ClusterSpec::homogeneous(2, DelayModel::None)
        .with_comm(CommModel::free())
        .with_sched_overhead(VDur::ZERO)
}

fn echo(slow: bool, req: &[u8]) -> Vec<u8> {
    if slow {
        std::thread::sleep(SLOW);
    }
    req.to_vec()
}

/// Remote routines: 1 echoes its request after `SLOW`, 2 at once.
fn registry() -> RoutineRegistry {
    let mut reg = RoutineRegistry::new();
    reg.register(1, |_ctx, req| Ok(echo(true, req)));
    reg.register(2, |_ctx, req| Ok(echo(false, req)));
    reg
}

/// A task returning `value`, as a closure (in-process engines) and as a
/// wire form (remote engine). The slow one costs 1 s of modelled time, so
/// it is in flight on the simulator too when its worker is killed.
fn task(tag: u64, value: u64, slow: bool) -> (Task, WireTask) {
    let task = Task {
        tag,
        cost: if slow { 2e8 } else { 0.0 },
        bytes_in: 0,
        run: Box::new(move |_| {
            echo(slow, &[]);
            Box::new(value)
        }),
    };
    let wire = WireTask {
        routine: if slow { 1 } else { 2 },
        build: Box::new(move |_| {
            let mut buf = BytesMut::new();
            value.encode(&mut buf);
            buf.into_vec()
        }),
        decode: Box::new(|resp| Ok(Box::new(u64::decode(resp)?.0))),
    };
    (task, wire)
}

fn seen(c: Completion) -> Seen {
    match c {
        Completion::Done(d) => {
            let value = *d.output.downcast::<u64>().expect("u64 output");
            ("Done", d.worker, Some(value))
        }
        Completion::Lost { worker, tag } => ("Lost", worker, Some(tag)),
        Completion::WorkerDown { worker } => ("WorkerDown", worker, None),
        Completion::WorkerUp { worker } => ("WorkerUp", worker, None),
    }
}

fn script(e: &mut dyn Engine) -> Vec<Seen> {
    let mut log = Vec::new();
    let next = |e: &mut dyn Engine| seen(e.next().expect("a completion is due"));

    let (t, w) = task(1, 10, true);
    e.submit_wired(0, t, w).unwrap();
    e.kill_worker(0);
    log.push(next(e));

    e.kill_worker(1);
    log.push(next(e));

    e.revive_worker(0).unwrap();
    log.push(next(e));
    // Let the killed incarnation's result land, then resubmit the same
    // tag: only the fresh result may surface.
    std::thread::sleep(2 * SLOW);
    let (t, w) = task(1, 20, false);
    e.submit_wired(0, t, w).unwrap();
    log.push(next(e));

    assert_eq!(e.add_worker(), 2, "a join takes the next dense id");
    log.push(next(e));

    let now = e.now();
    e.schedule_revival(1, now + VDur::from_millis(1));
    e.schedule_failure(2, now + VDur::from_millis(2));
    assert_eq!(e.next_event_at(), Some(now + VDur::from_millis(1)));
    std::thread::sleep(Duration::from_millis(10));
    log.push(next(e));
    log.push(next(e));

    assert!(e.next().is_none(), "nothing else surfaces");
    assert_eq!(e.pending(), 0);
    assert_eq!(e.workers(), 3);
    log
}

#[test]
fn sim_threaded_and_remote_report_the_same_membership_sequence() {
    let expected: Vec<Seen> = vec![
        ("Lost", 0, Some(1)),
        ("WorkerDown", 1, None),
        ("WorkerUp", 0, None),
        ("Done", 0, Some(20)),
        ("WorkerUp", 2, None),
        ("WorkerUp", 1, None),
        ("WorkerDown", 2, None),
    ];
    let mut sim = SimEngine::new(spec());
    assert_eq!(script(&mut sim), expected, "sim");
    let mut threaded = ThreadedEngine::new(spec(), 0.0);
    assert_eq!(script(&mut threaded), expected, "threaded");
    let mut remote = RemoteEngine::new(spec(), 0.0, RemoteConfig::loopback(Arc::new(registry)))
        .expect("loopback workers start");
    assert_eq!(script(&mut remote), expected, "remote");
}
