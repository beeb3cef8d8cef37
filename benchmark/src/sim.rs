//! The simulated workloads, `sim_broadcast` and `sim_incast_failover`.
//!
//! Both run on the paper's 32-host three-tier testbed fat-tree with the
//! default `ClusterConfig` engine, so the benchmark measures what a user
//! of `Cluster` gets. Latencies use the simulator clock; throughput and
//! CPU use the wall clock of this process.
//!
//! One run repeats the workload ("a rep") with the same seed until the
//! measuring time is spent, reports medians of the wall-clock figures,
//! and asserts that every rep produced bit-identical exact counts (the
//! determinism canary). A last rep, outside the measurement and after
//! peak memory was read, feeds the chaos `Oracle` through
//! `Cluster::send_traced`.

use crate::ledger::{Ledger, Outcome};
use crate::load::{due_of, payload, Rng};
use crate::report::Report;
use crate::stats::{median, Histogram};
use crate::sys;
use crate::trace::{Name, SpanId, Tracer};
use onepipe_chaos::Oracle;
use onepipe_core::harness::{ChaosHook, Cluster, ClusterConfig};
use onepipe_switchlogic::switch::SwitchLogic;
use onepipe_types::ids::{HostId, LinkId, ProcessId};
use onepipe_types::message::Message;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::Instant;

/// Processes, one per testbed host.
const N: usize = 32;
/// Barrier warm-up after `Cluster::new`, part of set-up (simulated ns).
const WARMUP_NS: u64 = 100_000;
/// Deliveries are drained this often (simulated ns), so the benchmark
/// never holds more than a few microseconds of records.
const TAKE_EVERY_NS: u64 = 20_000;

/// Which simulated workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 8 all-to-all best-effort scatterings plus a reliable probe.
    Broadcast,
    /// Reliable incast to p0 under loss, a best-effort probe, and a host
    /// crash halfway through.
    IncastFailover,
}

/// One open-loop message stream: `from` scatters to `to` on average
/// every `interval` ns, starting `phase` ns into the window. Each gap is
/// drawn uniformly from `[interval/2, 3·interval/2)`, so sends sample
/// every phase of the beacon grid instead of sitting at one.
struct Stream {
    from: ProcessId,
    to: Vec<ProcessId>,
    bytes: usize,
    reliable: bool,
    interval: u64,
    phase: u64,
}

/// Everything a rep needs to know about its workload.
struct Plan {
    streams: Vec<Stream>,
    window_ns: u64,
    drain_ns: u64,
    /// Loss rate of every link except those of `lossless_path`.
    loss: f64,
    /// Hosts whose path (both directions) stays lossless: best-effort
    /// has no retransmission, so a lossy path would turn correct
    /// loss reports into failed messages.
    lossless_path: Option<(HostId, HostId)>,
    /// Process whose host crashes halfway through the window.
    crash: Option<ProcessId>,
    /// Receiver and send interval of the flow whose delivery gap after
    /// the crash is the recovery time (Fig. 10).
    recovery_flow: Option<(ProcessId, u64)>,
}

fn plan(w: Workload, seed: u64) -> Plan {
    let mut rng = Rng::new(seed);
    let p = |i: usize| ProcessId(i as u32);
    let mut streams = Vec::new();
    match w {
        Workload::Broadcast => {
            // 40k scatterings/s per process to all 32 processes (the
            // Fig. 8 load), each process at its own seeded phase.
            let interval = 25_000;
            for i in 0..N {
                streams.push(Stream {
                    from: p(i),
                    to: (0..N).map(p).collect(),
                    bytes: 64,
                    reliable: false,
                    interval,
                    phase: rng.below(interval),
                });
            }
            let interval = 5_000;
            streams.push(Stream {
                from: p(0),
                to: vec![p(1), p(2)],
                bytes: 64,
                reliable: true,
                interval,
                phase: rng.below(interval),
            });
            Plan {
                streams,
                window_ns: 4_000_000,
                drain_ns: 1_000_000,
                loss: 0.0,
                lossless_path: None,
                crash: None,
                recovery_flow: None,
            }
        }
        Workload::IncastFailover => {
            let interval = 5_000;
            for i in 1..N {
                streams.push(Stream {
                    from: p(i),
                    to: vec![p(0)],
                    bytes: 256,
                    reliable: true,
                    interval,
                    phase: rng.below(interval),
                });
            }
            streams.push(Stream {
                from: p(1),
                to: vec![p(2)],
                bytes: 64,
                reliable: false,
                interval,
                phase: rng.below(interval),
            });
            Plan {
                streams,
                window_ns: 8_000_000,
                drain_ns: 3_000_000,
                loss: 1e-4,
                lossless_path: Some((HostId(1), HostId(2))),
                crash: Some(p(N - 1)),
                recovery_flow: Some((p(0), interval)),
            }
        }
    }
}

/// Layer counters read from the cluster after a rep.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Counters {
    pub events: u64,
    pub packets_sent: u64,
    pub drops_inflight: u64,
    pub drops_overflow: u64,
    pub shard_windows: u64,
    pub shard_stalled_windows: u64,
    pub shard_cross_msgs: u64,
    pub sw_forwarded: u64,
    pub sw_beacons_tx: u64,
    pub sw_beacons_rx: u64,
    pub sw_commits_rx: u64,
    pub sw_min_computes: u64,
    pub core_packets_sent: u64,
    pub core_retransmits: u64,
    pub core_commits_sent: u64,
    pub core_late_drops: u64,
    pub core_commit_anomalies: u64,
    pub peak_reorder_bytes: u64,
    pub ctrl_elections: u64,
    pub ctrl_retries: u64,
    pub ctrl_drops: u64,
    pub ctrl_epoch: u64,
    /// Fan-in of a ToR up-half switch (barrier aggregator inputs).
    pub tor_fan_in: u64,
}

fn read_counters(c: &mut Cluster) -> Counters {
    let st = c.sim.stats.clone();
    let mut k = Counters {
        events: st.events,
        packets_sent: st.packets_sent,
        drops_inflight: st.drops_inflight,
        drops_overflow: st.drops_overflow,
        ctrl_elections: st.ctrl_elections,
        ctrl_retries: st.ctrl_retries,
        ctrl_drops: st.ctrl_drops,
        ctrl_epoch: c.controller_epoch(),
        ..Counters::default()
    };
    for s in c.sim.shard_stats() {
        k.shard_windows += s.windows;
        k.shard_stalled_windows += s.stalled_windows;
        k.shard_cross_msgs += s.cross_shard_msgs;
    }
    for node in c.topo.switch_nodes.clone() {
        let sw = c.sim.with_node(node, |logic, _| {
            let sw = logic.as_any_mut()?.downcast_ref::<SwitchLogic>()?;
            Some((sw.counters, sw.aggregator().min_computes))
        });
        if let Some(Some((cnt, mins))) = sw {
            k.sw_forwarded += cnt.forwarded;
            k.sw_beacons_tx += cnt.beacons_tx;
            k.sw_beacons_rx += cnt.beacons_rx;
            k.sw_commits_rx += cnt.commits_rx;
            k.sw_min_computes += mins;
        }
    }
    let e = c.total_stats();
    k.core_packets_sent = e.packets_sent;
    k.core_retransmits = e.retransmits;
    k.core_commits_sent = e.commits_sent;
    k.core_late_drops = e.late_drops;
    k.core_commit_anomalies = e.commit_anomalies;
    for h in 0..c.topo.num_hosts() {
        let b = c.with_host(HostId(h as u32), |hl, _| {
            hl.endpoints.iter().map(|e| e.max_rx_buffered()).sum::<usize>()
        });
        k.peak_reorder_bytes += b.unwrap_or(0) as u64;
    }
    let tor = c.topo.tor_up_of(HostId(0));
    k.tor_fan_in = c.sim.in_neighbors(tor).len() as u64;
    k
}

/// Exact outcomes that must repeat bit for bit across reps of one seed.
#[derive(Clone, PartialEq, Eq)]
struct Canary {
    events: u64,
    deliveries: u64,
    be: Histogram,
    r: Histogram,
    recovery_ns: Option<u64>,
}

/// What one rep measured.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    canary: Canary,
    outcome: Outcome,
    order_violation: Option<String>,
    oracle_violation: Option<String>,
    counters: Counters,
}

/// Zero the loss rate along `a → b` and `b → a`.
fn make_lossless(c: &mut Cluster, a: HostId, b: HostId) {
    for (src, dst) in [(a, b), (b, a)] {
        let mut at = c.topo.host_node(src);
        let mut next = c.topo.tor_up_of(src);
        let end = c.topo.host_node(dst);
        for _ in 0..16 {
            if let Some(link) = c.sim.link_mut(LinkId::new(at, next)) {
                link.params.loss_rate = 0.0;
            }
            if next == end {
                break;
            }
            at = next;
            next = c.topo.route(at, src, dst).expect("hosts are connected");
        }
        assert_eq!(next, end, "route from {src:?} to {dst:?} did not end at the host");
    }
}

/// Where a rep's deliveries go: the streaming checks, the latency
/// histograms (simulated clock) and the recovery-gap tracker.
struct Sink {
    ledger: Ledger,
    be: Histogram,
    r: Histogram,
    deliveries: u64,
    /// Receiver whose reliable delivery gaps after `crash_at` are tracked.
    recovery_rx: Option<ProcessId>,
    crash_at: u64,
    last_rx_at: Option<u64>,
    max_gap: u64,
}

impl Sink {
    /// Drain the cluster's new deliveries into the sink.
    fn take(&mut self, c: &mut Cluster, tr: &mut Tracer, parent: SpanId) {
        let s = tr.begin(Name::HarnessTake, parent, None);
        let recs = c.take_deliveries();
        tr.end(s);
        for rec in recs {
            self.deliveries += 1;
            self.ledger.delivered(rec.receiver, &rec.msg, rec.reliable);
            let lat = rec.at.saturating_sub(due_of(&rec.msg.payload));
            if rec.reliable { &mut self.r } else { &mut self.be }.record(lat);
            if Some(rec.receiver) == self.recovery_rx && rec.reliable {
                if let Some(prev) = self.last_rx_at {
                    if rec.at >= self.crash_at {
                        self.max_gap = self.max_gap.max(rec.at - prev);
                    }
                }
                self.last_rx_at = Some(rec.at);
            }
        }
    }
}

/// Run the workload once.
fn rep(plan: &Plan, seed: u64, tr: &mut Tracer, oracle: Option<Rc<RefCell<Oracle>>>) -> Rep {
    let setup_start = Instant::now();
    let mut cfg = ClusterConfig::testbed(N);
    cfg.seed = seed;
    let mut c = Cluster::new(cfg);
    if plan.loss > 0.0 {
        c.sim.set_global_loss_rate(plan.loss);
    }
    if let Some((a, b)) = plan.lossless_path {
        make_lossless(&mut c, a, b);
    }
    c.run_for(WARMUP_NS);
    let setup_s = setup_start.elapsed().as_secs_f64();

    let t0 = c.sim.now();
    let t_end = t0 + plan.window_ns;
    let crash_at = t0 + plan.window_ns / 2;
    if let Some(p) = plan.crash {
        let host = c.procs.host_of(p).expect("crash victim is placed");
        c.crash_host(crash_at, host);
    }
    if let Some(o) = &oracle {
        c.set_chaos(o.clone() as Rc<RefCell<dyn ChaosHook>>);
    }

    let mut sink = Sink {
        ledger: Ledger::new(N),
        be: Histogram::default(),
        r: Histogram::default(),
        deliveries: 0,
        recovery_rx: plan.recovery_flow.map(|(rx, _)| rx),
        crash_at,
        last_rx_at: None,
        max_gap: 0,
    };

    let cpu0 = sys::cpu_s();
    let wall0 = Instant::now();
    let mut due: BinaryHeap<Reverse<(u64, usize)>> =
        plan.streams.iter().enumerate().map(|(i, s)| Reverse((t0 + s.phase, i))).collect();
    let mut gaps = Rng::new(seed ^ 0x6A17_7E25);
    let mut next_take = t0 + TAKE_EVERY_NS;
    while let Some(Reverse((at, i))) = due.pop() {
        if at >= t_end {
            break;
        }
        let tick = tr.begin(Name::Tick, SpanId::NONE, None);
        let s = tr.begin(Name::HarnessRun, tick, None);
        c.run_until(at);
        tr.end(s);
        if at >= next_take {
            sink.take(&mut c, tr, tick);
            next_take += TAKE_EVERY_NS;
        }
        let st = &plan.streams[i];
        let body = payload(at, st.bytes);
        let msgs: Vec<Message> = st.to.iter().map(|&q| Message::new(q, body.clone())).collect();
        let s = tr.begin(Name::HarnessSend, tick, None);
        let sent = c.send_traced(st.from, msgs, st.reliable);
        tr.end(s);
        match sent {
            Ok((ts, seq)) => {
                tr.set_msg(s, (st.from.0, seq));
                sink.ledger.sent(st.from, &st.to, st.reliable);
                if let Some(o) = &oracle {
                    o.borrow_mut().register_send(at, st.from, seq, ts, st.to.clone(), st.reliable);
                }
            }
            // The crashed process's own sends fail by design.
            Err(_) if Some(st.from) == plan.crash && at >= crash_at => {}
            Err(_) => sink.ledger.send_error(st.to.len()),
        }
        due.push(Reverse((at + st.interval / 2 + gaps.below(st.interval), i)));
        tr.end(tick);
    }
    let drain_end = t_end + plan.drain_ns;
    while c.sim.now() < drain_end {
        let tick = tr.begin(Name::Tick, SpanId::NONE, None);
        let s = tr.begin(Name::HarnessRun, tick, None);
        c.run_until((c.sim.now() + TAKE_EVERY_NS).min(drain_end));
        tr.end(s);
        sink.take(&mut c, tr, tick);
        tr.end(tick);
    }
    let wall_s = wall0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_s() - cpu0;

    let crashed: Vec<ProcessId> = plan.crash.into_iter().collect();
    let outcome = sink.ledger.outcome(&crashed);
    let oracle_violation = oracle.and_then(|o| {
        let now = c.sim.now();
        let failed: Vec<ProcessId> = c.failed_processes().into_iter().map(|(p, _)| p).collect();
        let mut o = o.borrow_mut();
        o.check_recovery_liveness(now, c.controller_pending().len());
        o.finalize(now, &failed);
        o.first_violation().map(|v| format!("{:?} at {}: {}", v.kind, v.at, v.detail))
    });
    let counters = read_counters(&mut c);
    let recovery_ns = plan.recovery_flow.map(|(_, interval)| sink.max_gap.saturating_sub(interval));
    Rep {
        setup_s,
        wall_s,
        cpu_s,
        canary: Canary {
            events: counters.events,
            deliveries: sink.deliveries,
            be: sink.be,
            r: sink.r,
            recovery_ns,
        },
        outcome,
        order_violation: sink.ledger.first_violation.clone(),
        oracle_violation,
        counters,
    }
}

/// Seed of rep `i` of a run seeded with `seed`: every rep draws its own
/// phases, send gaps, loss and clock noise, so a run's medians average
/// over many inputs, while a seed still fixes every rep exactly.
fn rep_seed(seed: u64, i: u64) -> u64 {
    Rng::new(seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Reps in a run of about `seconds`. The count follows from `seconds`
/// alone (not from how fast reps happen to run), so two runs of one seed
/// report bit-identical simulated-clock figures.
fn rep_count(w: Workload, seconds: f64) -> u64 {
    // Wall seconds one rep takes on a 2-core x86-64 box.
    let nominal = match w {
        Workload::Broadcast => 1.4,
        Workload::IncastFailover => 1.1,
    };
    ((seconds / nominal).round() as u64).max(3)
}

fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

/// Check one rep's outputs; the first failure marks the report.
fn check(report: &mut Report, rep: &Rep, base: Option<&Canary>, label: &str) {
    if rep.outcome.failed > 0 {
        report.fail_check(format!(
            "{label}: {} of {} messages not delivered exactly once",
            rep.outcome.failed, rep.outcome.attempted
        ));
    }
    if let Some(v) = &rep.order_violation {
        report.fail_check(format!("{label}: delivery order: {v}"));
    }
    if let Some(v) = &rep.oracle_violation {
        report.fail_check(format!("{label}: oracle: {v}"));
    }
    if rep.counters.core_commit_anomalies > 0 {
        report.fail_check(format!(
            "{label}: {} commit anomalies",
            rep.counters.core_commit_anomalies
        ));
    }
    if let Some(base) = base.filter(|b| **b != rep.canary) {
        report.fail_check(format!(
            "{label}: determinism canary: events {} deliveries {} recovery {:?} differ from \
             rep 0's {} / {} / {:?} (or a latency histogram does)",
            rep.canary.events,
            rep.canary.deliveries,
            rep.canary.recovery_ns,
            base.events,
            base.deliveries,
            base.recovery_ns,
        ));
    }
}

/// The untraced run: every end-to-end metric plus the output checks.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Report {
    let reps: Vec<Rep> = (0..rep_count(w, seconds))
        .map(|i| {
            let seed = rep_seed(seed, i);
            rep(&plan(w, seed), seed, &mut Tracer::off(), None)
        })
        .collect();
    let peak_rss = sys::peak_rss_mib();
    // The determinism canary: rep 0 again, now feeding the chaos oracle,
    // must reproduce rep 0's exact counts.
    let seed0 = rep_seed(seed, 0);
    let oracle = Rc::new(RefCell::new(Oracle::new()));
    let checked = rep(&plan(w, seed0), seed0, &mut Tracer::off(), Some(oracle));

    let mut report = Report { correct: true, ..Report::default() };
    for r in &reps {
        report.attempted += r.outcome.attempted;
        report.failed += r.outcome.failed;
    }
    let first = &reps[0];
    for (i, r) in reps.iter().enumerate() {
        check(&mut report, r, None, &format!("rep {i}"));
    }
    check(&mut report, &checked, Some(&first.canary), "oracle rep");

    let mut lat: [Vec<f64>; 4] = Default::default();
    for (i, r) in reps.iter().enumerate() {
        for (class, h) in [("best-effort", &r.canary.be), ("reliable", &r.canary.r)] {
            match h.p50_p99() {
                Some((p50, p99)) => {
                    let k = if class == "reliable" { 2 } else { 0 };
                    lat[k].push(us(p50));
                    lat[k + 1].push(us(p99));
                }
                None => report.fail_check(format!(
                    "rep {i}: {} {class} samples are too few for a p99",
                    h.count()
                )),
            }
        }
    }
    if lat.iter().any(|v| v.is_empty()) {
        return report;
    }
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    report.note(format!(
        "{} reps, each with its own seed; rep 0: {} events, {} deliveries \
         ({} best-effort, {} reliable; each p99 has >= 10 samples beyond it)",
        reps.len(),
        first.canary.events,
        first.canary.deliveries,
        first.canary.be.count(),
        first.canary.r.count(),
    ));
    if first.canary.recovery_ns.is_some() {
        let rec = per_rep(&|r| us(r.canary.recovery_ns.unwrap_or(0) as f64));
        report.note(format!(
            "recovery {rec:.3} us (median, sim clock); crashed sender in rep 0: {} sent, {} delivered",
            first.outcome.excluded_sent, first.outcome.excluded_delivered
        ));
    }
    report.metric("deliveries_per_s", per_rep(&|r| r.canary.deliveries as f64 / r.wall_s), "msg/s");
    report.metric("be_latency_p50_us", median(&lat[0]), "us");
    report.metric("be_latency_p99_us", median(&lat[1]), "us");
    report.metric("r_latency_p50_us", median(&lat[2]), "us");
    report.metric("r_latency_p99_us", median(&lat[3]), "us");
    report.metric(
        "cpu_us_per_msg",
        per_rep(&|r| r.cpu_s * 1e6 / r.canary.deliveries.max(1) as f64),
        "us",
    );
    report.metric("peak_rss_mb", peak_rss, "MiB");
    report.metric("setup_s", per_rep(&|r| r.setup_s), "s");
    report
}

/// What the traced run learned, for the per-layer report.
pub struct Traced {
    pub counters: Counters,
    pub outcome: Outcome,
    /// Seconds spent inside `run_until`.
    pub run_s: f64,
    /// Mean self time of one `send_traced` call, ns.
    pub send_ns: f64,
    /// Mean self time of one `take_deliveries` call, ns.
    pub take_ns: f64,
    /// Mean self time of one generator step outside the layers, ns.
    pub tick_self_ns: f64,
    pub recovery_us: f64,
    /// CPU µs per delivery: median of the untraced reps, and traced.
    pub cpu_untraced: f64,
    pub cpu_traced: f64,
    /// Shape of the bulk stream, for the reorder probe.
    pub sender_fan_in: usize,
    pub payload_bytes: usize,
    pub reliable: bool,
    pub spans_dropped: u64,
}

/// The traced run: untraced reps for half the time, then one traced rep
/// whose spans are written to `trace_path`.
pub fn run_traced(w: Workload, seed: u64, seconds: f64, trace_path: &std::path::Path) -> Traced {
    let seed = rep_seed(seed, 0);
    let plan = plan(w, seed);
    let reps: Vec<Rep> = (0..rep_count(w, seconds / 2.0))
        .map(|_| rep(&plan, seed, &mut Tracer::off(), None))
        .collect();
    let mut tr = Tracer::with_capacity(1 << 19);
    let t = rep(&plan, seed, &mut tr, None);
    if let Err(e) = tr.write(trace_path) {
        eprintln!("could not write spans to {}: {e}", trace_path.display());
    }
    let per_msg = |r: &Rep| r.cpu_s * 1e6 / r.canary.deliveries.max(1) as f64;
    // The first stream of every plan is one of its bulk streams.
    let bulk = &plan.streams[0];
    let senders_to_p0 = plan.streams.iter().filter(|s| s.to.contains(&ProcessId(0))).count();
    Traced {
        counters: t.counters,
        outcome: t.outcome,
        run_s: tr.totals(Name::HarnessRun).total_ns as f64 / 1e9,
        send_ns: tr.totals(Name::HarnessSend).mean_self_ns(),
        take_ns: tr.totals(Name::HarnessTake).mean_self_ns(),
        tick_self_ns: tr.totals(Name::Tick).mean_self_ns(),
        recovery_us: t.canary.recovery_ns.map_or(0.0, |ns| us(ns as f64)),
        cpu_untraced: median(&reps.iter().map(per_msg).collect::<Vec<_>>()),
        cpu_traced: per_msg(&t),
        sender_fan_in: senders_to_p0,
        payload_bytes: bulk.bytes,
        reliable: bulk.reliable,
        spans_dropped: tr.dropped,
    }
}
