//! The result of one benchmark run: human-readable lines, then one JSON
//! object as the last line of standard output.

use std::fmt::Write as _;

/// One named measurement.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Messages attempted from correct senders to correct receivers.
    pub attempted: u64,
    /// Of those, not delivered exactly once; all of them when a check failed.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Context lines printed before the metrics (sample counts, checks).
    pub notes: Vec<String>,
}

impl Report {
    /// Append a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Append a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a failed output check: the run is incorrect and every
    /// message it attempted counts as failed.
    pub fn fail_check(&mut self, what: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", what.into()));
    }

    /// The JSON result line.
    pub fn json(&self) -> String {
        let failed = if self.correct { self.failed } else { self.attempted };
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            failed.max(u64::from(!self.correct)),
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` on f64 prints every digit needed to round-trip, never
            // an exponent; non-finite values are not JSON numbers.
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(s, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        s.push_str("}}");
        s
    }

    /// Print the notes, one `name value unit` line per metric, and the
    /// JSON line last.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for m in &self.metrics {
            println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let mut r = Report { correct: true, attempted: 10, failed: 0, ..Report::default() };
        r.metric("latency_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failed_check_fails_every_message() {
        let mut r = Report { correct: true, attempted: 10, failed: 0, ..Report::default() };
        r.fail_check("order");
        assert!(r.json().starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 10"));
    }
}
