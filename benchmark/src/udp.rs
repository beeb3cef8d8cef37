//! The `udp_mixed` workload: loopback UDP with three processes and one
//! controller replica, driven open loop from this thread.
//!
//! Traffic has two parts: reliable probe scatterings from p0 to {p1, p2}
//! at 5k messages/s, and best-effort 64-byte scatterings among all three
//! processes at 20k messages/s (each scattering goes from one process,
//! round robin, to the other two). Every message carries the time it was
//! due; a benchmark `AppHook` stamps each delivery when it happens, so
//! latency runs from due-to-send to app delivery on the wall clock.
//! Deliveries are also drained from the process channels as the run
//! goes, into the streaming order and exactly-once checks.
//!
//! Latency is summarised per *cut*: the measured window is split into
//! cuts of about 0.25 s, each message belongs to the cut it was due in,
//! and each cut gets its own median and p99. A metric is the median of
//! its per-cut values. Loopback latency tails come in bursts of a few
//! hundred milliseconds, so the p99 of a whole slice depends on whether a
//! burst fell into it; the median over many cuts does not.

use crate::ledger::{Ledger, Outcome};
use crate::load::{due_of, payload, Rng};
use crate::report::Report;
use crate::stats::{median, Histogram};
use crate::sys;
use crate::trace::{Name, SpanId, Tracer};
use onepipe_core::events::UserEvent;
use onepipe_core::runtime::{AppHook, SendQueue};
use onepipe_types::ids::ProcessId;
use onepipe_types::message::{Delivered, Message};
use onepipe_udp::batch::UdpStatsSnapshot;
use onepipe_udp::{UdpCluster, UdpClusterBuilder};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const PROCS: usize = 3;
/// Best-effort scatterings (two messages each): 10k/s = 20k messages/s.
const BE_INTERVAL_NS: u64 = 100_000;
const BE_BYTES: usize = 64;
/// Reliable probes p0 → {p1, p2}: 2.5k/s = 5k messages/s, so every cut
/// holds 1250 reliable deliveries, enough for a p99 with ten samples
/// beyond it.
const R_INTERVAL_NS: u64 = 400_000;
const R_BYTES: usize = 64;
/// Target length of one slice of the untraced run, s.
const SLICE_S: f64 = 2.5;
/// Target length of one cut, s.
const CUT_S: f64 = 0.25;
/// Load run before each measured window and left out of it, s.
const WARMUP_S: f64 = 0.25;
/// How often the generator collects finished cuts from the hooks.
const HARVEST_NS: u64 = 20_000_000;
/// How long to wait for the set-up probe or for the drain to complete.
const WAIT: Duration = Duration::from_secs(5);

/// Stamps each delivery with the benchmark clock when the process's
/// runtime hands it to the application, into the histograms of the cut
/// the message was due in.
struct StampHook {
    epoch: Instant,
    /// Start of the measured window on the benchmark clock, ns; messages
    /// due earlier (warm-up, set-up probe) are not timed.
    from: u64,
    /// Length of one cut, ns; 0 while no window is measured.
    cut: u64,
    /// Latency histograms of the cuts not yet harvested, by cut index:
    /// `[best effort, reliable]`.
    cuts: BTreeMap<u64, [Histogram; 2]>,
}

impl AppHook for StampHook {
    fn on_delivery(
        &mut self,
        _now: u64,
        _receiver: ProcessId,
        msg: &Delivered,
        reliable: bool,
        _out: &mut SendQueue,
    ) {
        let at = self.epoch.elapsed().as_nanos() as u64;
        let due = due_of(&msg.payload);
        if self.cut == 0 || due < self.from {
            return;
        }
        let k = (due - self.from) / self.cut;
        self.cuts.entry(k).or_default()[reliable as usize].record(at.saturating_sub(due));
    }
}

type Hooks = Vec<Arc<Mutex<StampHook>>>;

fn lock(h: &Arc<Mutex<StampHook>>) -> std::sync::MutexGuard<'_, StampHook> {
    h.lock().expect("a process thread panicked while stamping")
}

fn p(i: usize) -> ProcessId {
    ProcessId(i as u32)
}

/// Build a cluster and wait until its first reliable probe is delivered
/// at both destinations: `(cluster, seconds)`.
fn setup(epoch: Instant, hooks: &Hooks) -> Result<(UdpCluster, f64), String> {
    let start = Instant::now();
    let factory_hooks = hooks.clone();
    let cluster = UdpClusterBuilder::new(PROCS)
        .controllers(1)
        .app_factory(Arc::new(move |id: ProcessId| {
            factory_hooks[id.0 as usize].clone() as Arc<Mutex<dyn AppHook>>
        }))
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let due = epoch.elapsed().as_nanos() as u64;
    let body = payload(due, R_BYTES);
    cluster
        .process(0)
        .send_reliable(vec![Message::new(p(1), body.clone()), Message::new(p(2), body)]);
    for i in [1, 2] {
        cluster.process(i).recv_timeout(WAIT).ok_or("set-up probe was not delivered")?;
    }
    Ok((cluster, start.elapsed().as_secs_f64()))
}

/// Per-cut latency of one service class.
#[derive(Default)]
struct CutLatency {
    p50: Vec<f64>,
    p99: Vec<f64>,
    /// Samples over all cuts.
    samples: u64,
    /// Cuts with too few samples for a p99.
    short: u64,
}

/// Cuts of the window not yet harvested: messages sent into each, by
/// cut index.
type Expected = BTreeMap<u64, u64>;

/// Take from the hooks every cut below `sent` (the cuts whose messages
/// have all been sent) whose messages have all been delivered, or every
/// pending cut when `sent` is `None`, and add its median and p99 to `lat`.
fn harvest(hooks: &Hooks, expected: &mut Expected, sent: Option<u64>, lat: &mut [CutLatency; 2]) {
    let mut guards: Vec<_> = hooks.iter().map(lock).collect();
    let done: Vec<u64> = expected
        .range(..sent.unwrap_or(u64::MAX))
        .filter(|&(k, &n)| {
            let got: u64 = guards
                .iter()
                .filter_map(|g| g.cuts.get(k))
                .map(|h| h[0].count() + h[1].count())
                .sum();
            sent.is_none() || got == n
        })
        .map(|(&k, _)| k)
        .collect();
    for k in done {
        expected.remove(&k);
        let mut merged = [Histogram::default(), Histogram::default()];
        for g in guards.iter_mut() {
            if let Some(h) = g.cuts.remove(&k) {
                merged[0].merge(&h[0]);
                merged[1].merge(&h[1]);
            }
        }
        for (h, l) in merged.iter().zip(lat.iter_mut()) {
            l.samples += h.count();
            match h.p50_p99() {
                Some((p50, p99)) => {
                    l.p50.push(us(p50));
                    l.p99.push(us(p99));
                }
                None => l.short += 1,
            }
        }
    }
}

/// What one measured window produced.
struct Window {
    seconds: f64,
    cpu_s: f64,
    deliveries: u64,
    /// `[best effort, reliable]`.
    lat: [CutLatency; 2],
    gen_lag: Histogram,
    outcome: Outcome,
    order_violation: Option<String>,
    stats: UdpStatsSnapshot,
    ctrl_retries: u64,
}

/// Run the open-loop load for a warm-up and then `seconds` on
/// `cluster`, then drain. Only the part after the warm-up is measured.
fn window(
    cluster: &UdpCluster,
    epoch: Instant,
    hooks: &Hooks,
    seconds: f64,
    seed: u64,
    tr: &mut Tracer,
) -> Window {
    let mut rng = Rng::new(seed);
    let now = || epoch.elapsed().as_nanos() as u64;
    let start = now();
    let t0 = start + (WARMUP_S * 1e9) as u64;
    let cuts = ((seconds / CUT_S).round() as u64).max(1);
    let cut = (seconds * 1e9) as u64 / cuts;
    let t_end = t0 + cut * cuts;
    for h in hooks {
        let mut h = lock(h);
        h.from = t0;
        h.cut = cut;
        h.cuts.clear();
    }
    let mut expected = Expected::new();
    let mut lat = [CutLatency::default(), CutLatency::default()];
    let mut next_harvest = t0;
    let mut warm = false;
    let (mut stats0, mut retries0, mut cpu0, mut delivered0) = (cluster.stats(), 0, 0.0, 0);
    let mut next_be = start + rng.below(BE_INTERVAL_NS);
    let mut next_r = start + rng.below(R_INTERVAL_NS);
    let mut be_from = rng.below(PROCS as u64) as usize;
    let mut seqs = [0u64; PROCS];
    let mut ledger = Ledger::new(PROCS);
    let mut gen_lag = Histogram::default();

    let drain = |ledger: &mut Ledger, tr: &mut Tracer, parent: SpanId| {
        for i in 0..PROCS {
            let s = tr.begin(Name::UdpRecv, parent, None);
            let got = cluster.process(i).try_recv_all();
            tr.end(s);
            for (d, reliable) in got {
                ledger.delivered(p(i), &d, reliable);
            }
            for e in cluster.process(i).try_events() {
                if let UserEvent::SendFailed { dst, .. } = e {
                    ledger.send_failed(p(i), dst);
                }
            }
        }
    };

    loop {
        let t = now();
        if t >= t_end {
            break;
        }
        if !warm && t >= t0 {
            warm = true;
            stats0 = cluster.stats();
            retries0 = cluster.ctrl_retries();
            cpu0 = sys::cpu_s();
            delivered0 = ledger.total_delivered();
            gen_lag = Histogram::default();
        }
        let tick = tr.begin(Name::Tick, SpanId::NONE, None);
        loop {
            let due = next_be.min(next_r);
            if due > now() || due >= t_end {
                break;
            }
            let reliable = next_r <= next_be;
            let (from, to, bytes) = if reliable {
                next_r += R_INTERVAL_NS;
                (0, vec![p(1), p(2)], R_BYTES)
            } else {
                next_be += BE_INTERVAL_NS;
                let from = be_from;
                be_from = (be_from + 1) % PROCS;
                let to = (0..PROCS).filter(|&q| q != from).map(p).collect();
                (from, to, BE_BYTES)
            };
            let body = payload(due, bytes);
            let msgs: Vec<Message> = to.iter().map(|&q| Message::new(q, body.clone())).collect();
            let s = tr.begin(Name::UdpSend, tick, Some((from as u32, seqs[from])));
            gen_lag.record(now().saturating_sub(due));
            if reliable {
                cluster.process(from).send_reliable(msgs);
            } else {
                cluster.process(from).send_unreliable(msgs);
            }
            tr.end(s);
            seqs[from] += 1;
            ledger.sent(p(from), &to, reliable);
            if due >= t0 {
                *expected.entry((due - t0) / cut).or_default() += to.len() as u64;
            }
        }
        drain(&mut ledger, tr, tick);
        tr.end(tick);
        // Every message due before `t` has been sent by now.
        if t >= next_harvest {
            next_harvest = t + HARVEST_NS;
            let sent = t.saturating_sub(t0) / cut;
            harvest(hooks, &mut expected, Some(sent), &mut lat);
        }
        let next = next_be.min(next_r).min(t_end);
        let t = now();
        if next > t {
            std::thread::sleep(Duration::from_nanos(next - t));
        }
    }
    let window_s = (now() - t0) as f64 / 1e9;
    let drain_start = Instant::now();
    while !ledger.complete() && drain_start.elapsed() < WAIT {
        std::thread::sleep(Duration::from_millis(1));
        drain(&mut ledger, tr, SpanId::NONE);
    }
    let cpu_s = sys::cpu_s() - cpu0;
    harvest(hooks, &mut expected, None, &mut lat);
    for h in hooks {
        lock(h).cut = 0;
    }
    Window {
        seconds: window_s,
        cpu_s,
        deliveries: ledger.total_delivered() - delivered0,
        lat,
        gen_lag,
        outcome: ledger.outcome(&[]),
        order_violation: ledger.first_violation.clone(),
        stats: cluster.stats().since(&stats0),
        ctrl_retries: cluster.ctrl_retries() - retries0,
    }
}

fn hooks(epoch: Instant) -> Hooks {
    (0..PROCS)
        .map(|_| Arc::new(Mutex::new(StampHook { epoch, from: 0, cut: 0, cuts: BTreeMap::new() })))
        .collect()
}

fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

fn check(report: &mut Report, w: &Window) {
    let o = &w.outcome;
    if o.failed > o.reported_lost {
        report.fail_check(format!(
            "{} of {} messages not delivered exactly once, and not reported lost",
            o.failed - o.reported_lost,
            o.attempted
        ));
    }
    if o.reported_lost > 0 {
        report.note(format!(
            "{} best-effort messages lost and reported to their senders: counted as failed",
            o.reported_lost
        ));
    }
    if let Some(v) = &w.order_violation {
        report.fail_check(format!("delivery order: {v}"));
    }
    if w.stats.decode_errors > 0 {
        report.fail_check(format!("{} UDP decode errors", w.stats.decode_errors));
    }
}

/// Check that every cut had a p99, note the sample counts, and print
/// the per-cut values on a `cuts` line for the parent run: `(median p50,
/// median p99)` over the cuts.
fn latency(report: &mut Report, l: &CutLatency, what: &str, names: [&str; 2]) -> (f64, f64) {
    let cuts = l.p99.len() as u64 + l.short;
    if l.short > 0 || l.p99.is_empty() {
        report.fail_check(format!(
            "{what}: {} of {cuts} cuts have too few samples for a p99",
            l.short
        ));
        return (0.0, 0.0);
    }
    report.note(format!(
        "{what}: {} samples in {cuts} cuts, each p99 with at least {} beyond",
        l.samples,
        crate::stats::MIN_BEYOND
    ));
    for (name, vs) in names.iter().zip([&l.p50, &l.p99]) {
        let list: Vec<String> = vs.iter().map(f64::to_string).collect();
        report.note(format!("cuts {name} {}", list.join(" ")));
    }
    (median(&l.p50), median(&l.p99))
}

/// One slice of the untraced run, in a process of its own: set up once,
/// run the load for `seconds`, check the outputs and report the
/// end-to-end metrics of this slice.
pub fn run_slice(seed: u64, seconds: f64) -> Report {
    let epoch = Instant::now();
    let hooks = hooks(epoch);
    let mut report = Report { correct: true, ..Report::default() };
    let (cluster, setup_s) = match setup(epoch, &hooks) {
        Ok(x) => x,
        Err(e) => {
            report.fail_check(e);
            return report;
        }
    };
    let w = window(&cluster, epoch, &hooks, seconds, seed, &mut Tracer::off());
    let peak_rss = sys::peak_rss_mib();
    drop(cluster);
    report.attempted = w.outcome.attempted;
    report.failed = w.outcome.failed;
    check(&mut report, &w);
    let (be50, be99) = latency(
        &mut report,
        &w.lat[0],
        "best-effort latency",
        ["be_latency_p50_us", "be_latency_p99_us"],
    );
    let (r50, r99) = latency(
        &mut report,
        &w.lat[1],
        "reliable latency",
        ["r_latency_p50_us", "r_latency_p99_us"],
    );
    report.note(format!(
        "{} deliveries in {:.3} s; generator lag p50 {:.1} us, p99 {:.1} us, max {:.1} us",
        w.deliveries,
        w.seconds,
        us(w.gen_lag.percentile(0.5)),
        us(w.gen_lag.percentile(0.99)),
        us(w.gen_lag.max() as f64),
    ));
    report.metric("deliveries_per_s", w.deliveries as f64 / w.seconds, "msg/s");
    report.metric("be_latency_p50_us", be50, "us");
    report.metric("be_latency_p99_us", be99, "us");
    report.metric("r_latency_p50_us", r50, "us");
    report.metric("r_latency_p99_us", r99, "us");
    report.metric("cpu_us_per_msg", w.cpu_s * 1e6 / w.deliveries.max(1) as f64, "us");
    report.metric("peak_rss_mb", peak_rss, "MiB");
    report.metric("setup_s", setup_s, "s");
    report
}

/// Value of `"key": <number or bool>` in a result line printed by
/// [`Report::json`].
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[start..];
    let rest = rest.strip_prefix("{\"value\": ").unwrap_or(rest);
    Some(rest[..rest.find([',', '}'])?].trim())
}

/// The untraced run: slices of the window, each in a child process of
/// its own (a fresh cluster, a fresh peak-memory mark). A latency metric
/// is the median of its per-cut values over the cuts of every slice;
/// every other metric is the median over the slices. Loopback latency
/// tails and peak memory vary from cluster to cluster; medians over
/// independent slices and cuts are what stay put from run to run.
pub fn run(seed: u64, seconds: f64) -> Report {
    let slices = ((seconds / SLICE_S).round() as u64).max(3);
    let slice_s = seconds / slices as f64;
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let mut report = Report { correct: true, ..Report::default() };
    let mut values: Vec<(&'static str, &'static str, Vec<f64>)> = Vec::new();
    for k in 0..slices {
        let slice_seed = seed.wrapping_mul(1_000).wrapping_add(k);
        let out = std::process::Command::new(&exe)
            .args(["--workload", "udp_mixed", "--seed", &slice_seed.to_string()])
            .args(["--seconds", &slice_s.to_string(), "--trace", "0", "--slice", "1"])
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                report.fail_check(format!("slice {k}: could not start: {e}"));
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let num = |key: &str| json_field(last, key).and_then(|v| v.parse::<f64>().ok());
        report.attempted += num("attempted").unwrap_or(0.0) as u64;
        report.failed += num("failed").unwrap_or(0.0) as u64;
        if !out.status.success() || json_field(last, "correct") != Some("true") {
            report.fail_check(format!("slice {k} failed: {}", stdout.trim()));
            continue;
        }
        for line in stdout.lines().filter(|l| l.starts_with("# ") && !l.starts_with("# cuts ")) {
            report.note(format!("slice {k}: {}", &line[2..]));
        }
        for (i, &(name, unit)) in crate::END_TO_END.iter().enumerate() {
            if values.len() <= i {
                values.push((name, unit, Vec::new()));
            }
            let prefix = format!("# cuts {name} ");
            let cuts = stdout.lines().find_map(|l| l.strip_prefix(prefix.as_str()));
            match (cuts, num(name)) {
                (Some(cuts), _) => values[i]
                    .2
                    .extend(cuts.split_whitespace().filter_map(|v| v.parse::<f64>().ok())),
                (None, Some(v)) => values[i].2.push(v),
                (None, None) => report.fail_check(format!("slice {k} did not report {name}")),
            }
        }
    }
    for (name, unit, vs) in values {
        if !vs.is_empty() {
            report.note(format!("{name}: median of {} values", vs.len()));
            report.metric(name, median(&vs), unit);
        }
    }
    report
}

/// What the traced run learned, for the per-layer report.
pub struct Traced {
    pub stats: UdpStatsSnapshot,
    pub outcome: Outcome,
    pub ctrl_retries: u64,
    /// Mean self time of one `send_*` call, ns.
    pub send_ns: f64,
    /// Mean self time of one `try_recv_all` call, ns.
    pub recv_ns: f64,
    pub gen_lag_p99_us: f64,
    pub gen_lag_max_us: f64,
    /// Mean self time of one generator step outside the layers, ns.
    pub tick_self_ns: f64,
    /// CPU µs per delivery, untraced and traced window.
    pub cpu_untraced: f64,
    pub cpu_traced: f64,
    pub spans_dropped: u64,
}

/// The traced run: an untraced window and a traced window of half the
/// time each, on fresh clusters; spans are written to `trace_path`.
pub fn run_traced(seed: u64, seconds: f64, trace_path: &std::path::Path) -> Result<Traced, String> {
    let epoch = Instant::now();
    let hooks = hooks(epoch);
    let (cluster, _) = setup(epoch, &hooks)?;
    let plain = window(&cluster, epoch, &hooks, seconds / 2.0, seed, &mut Tracer::off());
    drop(cluster);
    let (cluster, _) = setup(epoch, &hooks)?;
    let mut tr = Tracer::with_capacity(1 << 20);
    let w = window(&cluster, epoch, &hooks, seconds / 2.0, seed, &mut tr);
    drop(cluster);
    if let Err(e) = tr.write(trace_path) {
        eprintln!("could not write spans to {}: {e}", trace_path.display());
    }
    let per_msg = |w: &Window| w.cpu_s * 1e6 / w.deliveries.max(1) as f64;
    Ok(Traced {
        stats: w.stats,
        outcome: w.outcome,
        ctrl_retries: w.ctrl_retries,
        send_ns: tr.totals(Name::UdpSend).mean_self_ns(),
        recv_ns: tr.totals(Name::UdpRecv).mean_self_ns(),
        gen_lag_p99_us: us(w.gen_lag.percentile(0.99)),
        gen_lag_max_us: us(w.gen_lag.max() as f64),
        tick_self_ns: tr.totals(Name::Tick).mean_self_ns(),
        cpu_untraced: per_msg(&plain),
        cpu_traced: per_msg(&w),
        spans_dropped: tr.dropped,
    })
}
