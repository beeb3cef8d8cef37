//! The cluster's delivery log is a stream: `take_deliveries` moves the
//! records out, so the log holds only what has not been taken yet. These
//! tests pin what that must not change: every delivery is taken exactly
//! once, periodic takes concatenate to the same records as one take at
//! the end, and an attached chaos oracle still sees each delivery once,
//! in order, however the takes interleave with the run.

use std::cell::RefCell;
use std::rc::Rc;

use onepipe::chaos::oracle::Oracle;
use onepipe::controller::protocol::CtrlAction;
use onepipe::service::harness::{ChaosHook, Cluster, ClusterConfig};
use onepipe::service::runtime::DeliveryRecord;
use onepipe::service::UserEvent;
use onepipe::types::ids::{HostId, ProcessId};
use onepipe::types::message::Message;
use onepipe::types::time::{Timestamp, MICROS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: u32 = 8;
const ROUNDS: usize = 40;

/// A chaos hook that forwards everything to an [`Oracle`] and keeps the
/// deliveries it was shown.
#[derive(Default)]
struct Tap {
    oracle: Oracle,
    seen: Vec<DeliveryRecord>,
}

impl ChaosHook for Tap {
    fn on_delivery(&mut self, rec: &DeliveryRecord) {
        self.seen.push(rec.clone());
        self.oracle.on_delivery(rec);
    }

    fn on_user_event(&mut self, at: u64, proc: ProcessId, ev: &UserEvent) {
        self.oracle.on_user_event(at, proc, ev);
    }

    fn on_barrier_sample(&mut self, at: u64, proc: ProcessId, be: Timestamp, commit: Timestamp) {
        self.oracle.on_barrier_sample(at, proc, be, commit);
    }

    fn on_ctrl_action(&mut self, at: u64, epoch: u64, action: &CtrlAction) {
        self.oracle.on_ctrl_action(at, epoch, action);
    }
}

/// A seeded random scattering workload on the testbed fat-tree: `ROUNDS`
/// rounds of one scattering per process, with `after_round` called after
/// each round has run, then a drain. With a tap, every send is registered
/// with its oracle, and the host of process 3 crashes halfway through.
fn run_workload(
    threads: usize,
    seed: u64,
    tap: Option<&Rc<RefCell<Tap>>>,
    mut after_round: impl FnMut(&mut Cluster),
) -> Cluster {
    let mut cfg = ClusterConfig::testbed(N as usize);
    cfg.seed = seed;
    cfg.threads = threads;
    let mut c = Cluster::new(cfg);
    c.run_for(100 * MICROS);
    if let Some(tap) = tap {
        c.set_chaos(tap.clone() as Rc<RefCell<dyn ChaosHook>>);
        let victim: HostId = c.procs.host_of(ProcessId(3)).unwrap();
        c.crash_host(c.sim.now() + ROUNDS as u64 * 5 * MICROS / 2, victim);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..ROUNDS {
        for p in 0..N {
            let fanout = rng.random_range(1..=3usize);
            let mut dsts = Vec::new();
            while dsts.len() < fanout {
                let q = ProcessId(rng.random_range(0..N));
                if q != ProcessId(p) && !dsts.contains(&q) {
                    dsts.push(q);
                }
            }
            let reliable = rng.random_range(0.0..1.0) < 0.3;
            let msgs: Vec<Message> =
                dsts.iter().map(|&d| Message::new(d, vec![p as u8; 16])).collect();
            let sent = c.send_traced(ProcessId(p), msgs, reliable);
            if let (Ok((ts, seq)), Some(tap)) = (sent, tap) {
                let oracle = &mut tap.borrow_mut().oracle;
                oracle.register_send(c.sim.now(), ProcessId(p), seq, ts, dsts, reliable);
            }
        }
        c.run_for(5 * MICROS);
        after_round(&mut c);
    }
    c.run_for(2_000 * MICROS);
    c
}

/// Renders records for a record-for-record comparison of every field.
fn render(recs: &[DeliveryRecord]) -> Vec<String> {
    recs.iter().map(|r| format!("{r:?}")).collect()
}

/// Takes after every round leave the log empty, account for every
/// delivery the endpoints counted, and concatenate to exactly the records
/// one take at the end of the same seeded run returns.
fn check_periodic_takes(threads: usize) {
    let mut taken = Vec::new();
    let mut batches = 0;
    let mut c = run_workload(threads, 21, None, |c| {
        let batch = c.take_deliveries();
        assert!(c.deliveries.lock().unwrap().is_empty(), "the log keeps nothing once taken");
        batches += usize::from(!batch.is_empty());
        taken.extend(batch);
    });
    taken.extend(c.take_deliveries());
    assert!(c.deliveries.lock().unwrap().is_empty());
    assert!(c.take_deliveries().is_empty(), "a second take finds nothing new");
    assert!(batches > ROUNDS / 2, "only {batches} of {ROUNDS} takes returned records");
    let stats = c.total_stats();
    assert_eq!(taken.len() as u64, stats.delivered_be + stats.delivered_rel);

    let mut once = run_workload(threads, 21, None, |_| {});
    let whole = once.take_deliveries();
    assert_eq!(render(&taken), render(&whole), "periodic takes reorder or alter the stream");
}

#[test]
fn periodic_takes_stream_every_delivery_once() {
    check_periodic_takes(0);
}

#[test]
fn periodic_takes_stream_every_delivery_once_sharded() {
    check_periodic_takes(2);
}

/// With a chaos oracle attached, takes interleaved with the run do not
/// hide or repeat a delivery from it: it sees exactly the records the
/// takes return, in order, and exactly what it sees in the same run
/// without takes — and it stays clean through a host crash.
#[test]
fn chaos_hook_sees_each_delivery_once_across_takes() {
    let with_takes = Rc::new(RefCell::new(Tap::default()));
    let mut taken = Vec::new();
    let mut c = run_workload(0, 33, Some(&with_takes), |c| taken.extend(c.take_deliveries()));
    taken.extend(c.take_deliveries());

    let without = Rc::new(RefCell::new(Tap::default()));
    let mut d = run_workload(0, 33, Some(&without), |_| {});
    d.take_deliveries();

    let (a, b) = (with_takes.borrow(), without.borrow());
    assert!(!a.seen.is_empty(), "the workload must deliver");
    assert_eq!(render(&a.seen), render(&taken), "the hook saw other records than were taken");
    assert_eq!(render(&a.seen), render(&b.seen), "takes changed what the hook saw");
    assert_eq!(a.oracle.observations, b.oracle.observations);
    drop((a, b));

    for (tap, c) in [(&with_takes, &mut c), (&without, &mut d)] {
        let failed: Vec<ProcessId> = c.failed_processes().into_iter().map(|(p, _)| p).collect();
        assert!(failed.contains(&ProcessId(3)), "the crash must be declared");
        let mut t = tap.borrow_mut();
        t.oracle.finalize(c.sim.now(), &failed);
        assert!(t.oracle.ok(), "oracle: {:?}", t.oracle.first_violation());
    }
}
