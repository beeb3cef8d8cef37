//! Spans recorded by the traced run around every call the benchmark
//! makes into a layer.
//!
//! A span has a name (`<layer>.<call>`), start and end times, and its
//! parent span; spans about one message carry that message's
//! `(sender, seq)` identifier. Spans go into a buffer allocated up front
//! and are written out once, when the run ends. A disabled tracer reads
//! no clock and stores nothing.

use std::io::Write as _;
use std::time::Instant;

/// The calls the benchmark traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// One step of the open-loop generator (parent of the calls below).
    Tick,
    /// `Cluster::send_traced`.
    HarnessSend,
    /// `Cluster::run_until`.
    HarnessRun,
    /// `Cluster::take_deliveries`.
    HarnessTake,
    /// `UdpProcess::send_unreliable` / `send_reliable`.
    UdpSend,
    /// `UdpProcess::try_recv_all`.
    UdpRecv,
}

impl Name {
    /// The span's `<layer>.<call>` name.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Tick => "bench.tick",
            Name::HarnessSend => "core.harness.send",
            Name::HarnessRun => "core.harness.run_until",
            Name::HarnessTake => "core.harness.take_deliveries",
            Name::UdpSend => "udp.send",
            Name::UdpRecv => "udp.try_recv_all",
        }
    }
}

/// Index of a recorded span; [`SpanId::NONE`] when nothing was recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// No span (tracing off, buffer full, or no parent).
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Clone, Copy)]
struct Span {
    name: Name,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    /// `(sender, seq)` of the message the span is about, if any.
    msg: Option<(u32, u64)>,
}

/// Per-name totals derived from the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus time covered by child spans), ns.
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean self time per span, ns (0 without spans).
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { enabled: false, epoch: Instant::now(), spans: Vec::new(), dropped: 0 }
    }

    /// A recording tracer with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Open a span.
    #[inline]
    pub fn begin(&mut self, name: Name, parent: SpanId, msg: Option<(u32, u64)>) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return SpanId::NONE;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, msg });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Close a span opened by [`begin`](Self::begin).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            self.spans[id.0 as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Attach a message identifier learned after the span opened.
    pub fn set_msg(&mut self, id: SpanId, msg: (u32, u64)) {
        if id != SpanId::NONE {
            self.spans[id.0 as usize].msg = Some(msg);
        }
    }

    /// Totals for `name`. Children of one span never overlap (the
    /// benchmark is single-threaded where it traces), so a span's self
    /// time is its duration minus the sum of its children's.
    pub fn totals(&self, name: Name) -> NameTotals {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != SpanId::NONE {
                child_ns[s.parent.0 as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut t = NameTotals::default();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            if s.name == name {
                let dur = s.end_ns - s.start_ns;
                t.count += 1;
                t.total_ns += dur;
                t.self_ns += dur.saturating_sub(*c);
            }
        }
        t
    }

    /// Write every span as one tab-separated line
    /// (`index name start_ns end_ns parent sender seq`) to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# index\tname\tstart_ns\tend_ns\tparent\tsender\tseq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == SpanId::NONE { -1 } else { s.parent.0 as i64 };
            let (sender, seq) = match s.msg {
                Some((p, q)) => (p as i64, q as i64),
                None => (-1, -1),
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{sender}\t{seq}",
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::with_capacity(8);
        let tick = t.begin(Name::Tick, SpanId::NONE, None);
        let run = t.begin(Name::HarnessRun, tick, None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(run);
        t.end(tick);
        let tick_t = t.totals(Name::Tick);
        let run_t = t.totals(Name::HarnessRun);
        assert_eq!(tick_t.total_ns, tick_t.self_ns + run_t.total_ns);
        assert!(run_t.self_ns >= 2_000_000);
    }

    #[test]
    fn disabled_and_full_tracers_record_nothing() {
        let mut off = Tracer::off();
        assert_eq!(off.begin(Name::Tick, SpanId::NONE, None), SpanId::NONE);
        let mut full = Tracer::with_capacity(1);
        full.begin(Name::Tick, SpanId::NONE, None);
        assert_eq!(full.begin(Name::Tick, SpanId::NONE, None), SpanId::NONE);
        assert_eq!(full.dropped, 1);
    }
}
