//! The 1Pipe benchmark: one command, three workloads, an untraced run
//! for the end-to-end metrics and a traced run for the per-layer ones.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <sim_broadcast|sim_incast_failover|udp_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! name every metric with its unit and give sample counts. A failed
//! output check prints the result with `"correct": false` and exits 1.
//! `BENCHMARK.json` at the repository root documents each workload and
//! metric (`benchmark/README.md` explains them). The traced run writes
//! its spans to `.bench_trace/<workload>.tsv`, replacing the last run's.

mod ledger;
mod load;
mod probes;
mod report;
mod sim;
mod stats;
mod sys;
mod trace;
mod udp;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["sim_broadcast", "sim_incast_failover", "udp_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run one slice of `udp_mixed` (the untraced run starts these as
    /// child processes).
    slice: bool,
}

/// Every end-to-end metric with its unit, in report order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("deliveries_per_s", "msg/s"),
    ("be_latency_p50_us", "us"),
    ("be_latency_p99_us", "us"),
    ("r_latency_p50_us", "us"),
    ("r_latency_p99_us", "us"),
    ("cpu_us_per_msg", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut slice = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value}")),
            },
            "--slice" => slice = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        slice,
    })
}

/// Every per-layer metric with its unit, in report order. Each traced
/// run prints all of them; a layer a workload does not use reads 0.
const LAYER_METRICS: [(&str, &str); 51] = [
    ("netsim.events", "count"),
    ("netsim.packets_sent", "count"),
    ("netsim.drops_inflight", "count"),
    ("netsim.drops_overflow", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.shard.windows", "count"),
    ("netsim.shard.stalled_windows", "count"),
    ("netsim.shard.cross_msgs", "count"),
    ("netsim.sched_ns_per_op", "ns"),
    ("core.harness.send_ns", "ns"),
    ("core.harness.run_s", "s"),
    ("core.harness.take_ns", "ns"),
    ("switchlogic.forwarded", "count"),
    ("switchlogic.beacons_tx", "count"),
    ("switchlogic.beacons_rx", "count"),
    ("switchlogic.commits_rx", "count"),
    ("switchlogic.min_computes", "count"),
    ("switchlogic.barrier_ns_per_update", "ns"),
    ("core.packets_sent", "count"),
    ("core.retransmits", "count"),
    ("core.commits_sent", "count"),
    ("core.late_drops", "count"),
    ("core.commit_anomalies", "count"),
    ("core.retx_ratio", "ratio"),
    ("core.peak_reorder_bytes", "B"),
    ("core.reorder_insert_ns", "ns"),
    ("core.reorder_advance_ns", "ns"),
    ("core.runtime_ns_per_dgram", "ns"),
    ("controller.elections", "count"),
    ("controller.retries", "count"),
    ("controller.drops", "count"),
    ("controller.epoch", "count"),
    ("controller.recovery_us", "us"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.batch_encode_ns_per_dgram", "ns"),
    ("wire.batch_decode_ns_per_dgram", "ns"),
    ("udp.rx_frames", "count"),
    ("udp.tx_frames", "count"),
    ("udp.rx_datagrams", "count"),
    ("udp.tx_datagrams", "count"),
    ("udp.decode_errors", "count"),
    ("udp.dgrams_per_frame", "ratio"),
    ("udp.tx_batch_p50", "count"),
    ("udp.send_ns", "ns"),
    ("udp.recv_ns", "ns"),
    ("udp.ctrl_retries", "count"),
    ("bench.gen_lag_p99_us", "us"),
    ("bench.gen_lag_max_us", "us"),
    ("bench.tick_self_ns", "ns"),
    ("bench.trace_overhead_pct", "%"),
];

/// Per-layer values by name; unset names report 0.
struct Layers(Vec<(&'static str, &'static str, f64)>);

impl Layers {
    fn new() -> Self {
        Layers(LAYER_METRICS.iter().map(|&(n, u)| (n, u, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.iter_mut().find(|(n, _, _)| *n == name);
        slot.unwrap_or_else(|| panic!("{name} is not a per-layer metric")).2 = value;
    }

    fn into_report(self, report: &mut Report) {
        for (n, u, v) in self.0 {
            report.metric(n, v, u);
        }
    }
}

fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    (traced / untraced - 1.0) * 100.0
}

/// Median frame size, in datagrams, from the TX batch histogram (bucket
/// `i` counts frames of `i + 1` datagrams; the last bucket is "or more").
fn batch_p50(hist: &[u64]) -> f64 {
    let total: u64 = hist.iter().sum();
    let mut seen = 0;
    for (i, &c) in hist.iter().enumerate() {
        seen += c;
        if total > 0 && 2 * seen >= total {
            return (i + 1) as f64;
        }
    }
    0.0
}

fn layer_report(a: &Args) -> Report {
    let path = PathBuf::from(".bench_trace").join(format!("{}.tsv", a.workload));
    let mut l = Layers::new();
    let mut report = Report { correct: true, ..Report::default() };
    // Best-effort losses reported to their senders: failed, not an error.
    let mut reported_lost = 0;
    if a.workload == "udp_mixed" {
        let t = match udp::run_traced(a.seed, a.seconds, &path) {
            Ok(t) => t,
            Err(e) => {
                report.fail_check(e);
                return report;
            }
        };
        let s = &t.stats;
        l.set("udp.rx_frames", s.rx_frames as f64);
        l.set("udp.tx_frames", s.tx_frames as f64);
        l.set("udp.rx_datagrams", s.rx_datagrams as f64);
        l.set("udp.tx_datagrams", s.tx_datagrams as f64);
        l.set("udp.decode_errors", s.decode_errors as f64);
        let frames = (s.rx_frames + s.tx_frames).max(1);
        l.set("udp.dgrams_per_frame", (s.rx_datagrams + s.tx_datagrams) as f64 / frames as f64);
        l.set("udp.tx_batch_p50", batch_p50(&s.tx_batch_hist));
        l.set("udp.send_ns", t.send_ns);
        l.set("udp.recv_ns", t.recv_ns);
        l.set("udp.ctrl_retries", t.ctrl_retries as f64);
        l.set("bench.gen_lag_p99_us", t.gen_lag_p99_us);
        l.set("bench.gen_lag_max_us", t.gen_lag_max_us);
        l.set("bench.tick_self_ns", t.tick_self_ns);
        l.set("bench.trace_overhead_pct", overhead_pct(t.cpu_untraced, t.cpu_traced));
        let batch = (s.tx_datagrams as f64 / s.tx_frames.max(1) as f64).round() as usize;
        let (enc, dec, benc, bdec) = probes::wire_ns(64, batch);
        l.set("wire.encode_ns", enc);
        l.set("wire.decode_ns", dec);
        l.set("wire.batch_encode_ns_per_dgram", benc);
        l.set("wire.batch_decode_ns_per_dgram", bdec);
        l.set("core.runtime_ns_per_dgram", probes::runtime_ns_per_dgram(batch.max(1), 64));
        report.attempted = t.outcome.attempted;
        report.failed = t.outcome.failed;
        reported_lost = t.outcome.reported_lost;
        if s.decode_errors > 0 {
            report.fail_check(format!("{} UDP decode errors", s.decode_errors));
        }
        if t.spans_dropped > 0 {
            report.note(format!("{} spans dropped: buffer full", t.spans_dropped));
        }
    } else {
        let w = if a.workload == "sim_broadcast" {
            sim::Workload::Broadcast
        } else {
            sim::Workload::IncastFailover
        };
        let t = sim::run_traced(w, a.seed, a.seconds, &path);
        let k = &t.counters;
        l.set("netsim.events", k.events as f64);
        l.set("netsim.packets_sent", k.packets_sent as f64);
        l.set("netsim.drops_inflight", k.drops_inflight as f64);
        l.set("netsim.drops_overflow", k.drops_overflow as f64);
        l.set("netsim.events_per_s", k.events as f64 / t.run_s);
        l.set("netsim.shard.windows", k.shard_windows as f64);
        l.set("netsim.shard.stalled_windows", k.shard_stalled_windows as f64);
        l.set("netsim.shard.cross_msgs", k.shard_cross_msgs as f64);
        l.set("core.harness.send_ns", t.send_ns);
        l.set("core.harness.run_s", t.run_s);
        l.set("core.harness.take_ns", t.take_ns);
        l.set("switchlogic.forwarded", k.sw_forwarded as f64);
        l.set("switchlogic.beacons_tx", k.sw_beacons_tx as f64);
        l.set("switchlogic.beacons_rx", k.sw_beacons_rx as f64);
        l.set("switchlogic.commits_rx", k.sw_commits_rx as f64);
        l.set("switchlogic.min_computes", k.sw_min_computes as f64);
        l.set("core.packets_sent", k.core_packets_sent as f64);
        l.set("core.retransmits", k.core_retransmits as f64);
        l.set("core.commits_sent", k.core_commits_sent as f64);
        l.set("core.late_drops", k.core_late_drops as f64);
        l.set("core.commit_anomalies", k.core_commit_anomalies as f64);
        l.set("core.retx_ratio", k.core_retransmits as f64 / k.core_packets_sent.max(1) as f64);
        l.set("core.peak_reorder_bytes", k.peak_reorder_bytes as f64);
        let (ins, adv) = probes::reorder_ns(t.sender_fan_in, t.payload_bytes, t.reliable);
        l.set("core.reorder_insert_ns", ins);
        l.set("core.reorder_advance_ns", adv);
        l.set("controller.elections", k.ctrl_elections as f64);
        l.set("controller.retries", k.ctrl_retries as f64);
        l.set("controller.drops", k.ctrl_drops as f64);
        l.set("controller.epoch", k.ctrl_epoch as f64);
        l.set("controller.recovery_us", t.recovery_us);
        l.set("bench.tick_self_ns", t.tick_self_ns);
        l.set("bench.trace_overhead_pct", overhead_pct(t.cpu_untraced, t.cpu_traced));
        if w == sim::Workload::Broadcast {
            l.set("netsim.sched_ns_per_op", probes::sched_ns_per_op());
            l.set(
                "switchlogic.barrier_ns_per_update",
                probes::barrier_ns_per_update(k.tor_fan_in as usize),
            );
        }
        report.attempted = t.outcome.attempted;
        report.failed = t.outcome.failed;
        if k.core_commit_anomalies > 0 {
            report.fail_check(format!("{} commit anomalies", k.core_commit_anomalies));
        }
        if t.spans_dropped > 0 {
            report.note(format!("{} spans dropped: buffer full", t.spans_dropped));
        }
    }
    if report.failed > reported_lost {
        report.fail_check(format!("{} of {} messages failed", report.failed, report.attempted));
    }
    report.note(format!("spans written to {}", path.display()));
    l.into_report(&mut report);
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        layer_report(&args)
    } else {
        match args.workload.as_str() {
            "sim_broadcast" => sim::run(sim::Workload::Broadcast, args.seed, args.seconds),
            "sim_incast_failover" => {
                sim::run(sim::Workload::IncastFailover, args.seed, args.seconds)
            }
            _ if args.slice => udp::run_slice(args.seed, args.seconds),
            _ => udp::run(args.seed, args.seconds),
        }
    };
    report.print();
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must name the same
    /// metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(LAYER_METRICS.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\": ").count();
        assert_eq!(listed, END_TO_END.len() + LAYER_METRICS.len());
    }

    #[test]
    fn batch_median_reads_the_histogram() {
        assert_eq!(batch_p50(&[0, 0, 0]), 0.0);
        assert_eq!(batch_p50(&[1, 5, 1]), 2.0);
        assert_eq!(batch_p50(&[4, 0, 4]), 1.0);
    }
}
