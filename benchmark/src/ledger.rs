//! Streaming output checks: delivery order and exactly-once accounting,
//! in memory that does not grow with the run.
//!
//! * **Order.** Each receiver's deliveries on one service channel must be
//!   strictly increasing in `(ts, src, seq)`. The best-effort and the
//!   reliable channel are separately ordered streams (the commit barrier
//!   lags the best-effort barrier, so the combined stream legitimately
//!   interleaves), exactly as the chaos oracle checks them. Strictly
//!   increasing also rules out duplicates.
//! * **Exactly once.** Per `(sender, receiver, channel)` the ledger counts
//!   messages sent and delivered; with duplicates ruled out, equal counts
//!   mean every message arrived once.
//! * **Reported losses.** Best effort may lose a message, provided the
//!   sender is told (`UserEvent::SendFailed`). Such a message still counts
//!   as failed, but it is not an output error; a best-effort message that
//!   is missing without a report is.

use onepipe_types::ids::ProcessId;
use onepipe_types::message::{Delivered, OrderKey};

/// Totals for the result line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Messages from correct senders to correct receivers.
    pub attempted: u64,
    /// Of those, not delivered exactly once (plus send errors).
    pub failed: u64,
    /// Of the failed, best-effort messages missing at their receiver
    /// whose loss was reported to the sender.
    pub reported_lost: u64,
    /// Messages from excluded (crashed) senders, reported separately.
    pub excluded_sent: u64,
    /// Of those, delivered.
    pub excluded_delivered: u64,
}

/// Order checker and sent/delivered counts for `n` processes.
pub struct Ledger {
    n: usize,
    /// Last order key per `(receiver, channel)`.
    last: Vec<Option<OrderKey>>,
    sent: Vec<u64>,
    delivered: Vec<u64>,
    /// Best-effort losses reported to the sender, per `(sender, receiver)`.
    reported: Vec<u64>,
    /// Sends the layer refused.
    send_errors: u64,
    /// Deliveries out of order (or repeated).
    pub order_violations: u64,
    /// The first violation, described.
    pub first_violation: Option<String>,
}

fn chan(reliable: bool) -> usize {
    reliable as usize
}

impl Ledger {
    /// An empty ledger for processes `0..n`.
    pub fn new(n: usize) -> Self {
        Ledger {
            n,
            last: vec![None; n * 2],
            sent: vec![0; n * n * 2],
            delivered: vec![0; n * n * 2],
            reported: vec![0; n * n],
            send_errors: 0,
            order_violations: 0,
            first_violation: None,
        }
    }

    fn idx(&self, sender: ProcessId, receiver: ProcessId, reliable: bool) -> usize {
        (sender.0 as usize * self.n + receiver.0 as usize) * 2 + chan(reliable)
    }

    /// A scattering from `sender` to `receivers` was accepted.
    pub fn sent(&mut self, sender: ProcessId, receivers: &[ProcessId], reliable: bool) {
        for &r in receivers {
            let i = self.idx(sender, r, reliable);
            self.sent[i] += 1;
        }
    }

    /// A send to `receivers` was refused: each message counts as failed.
    pub fn send_error(&mut self, receivers: usize) {
        self.send_errors += receivers as u64;
    }

    /// The layer told `sender` that a best-effort message to `receiver`
    /// was lost.
    pub fn send_failed(&mut self, sender: ProcessId, receiver: ProcessId) {
        self.reported[sender.0 as usize * self.n + receiver.0 as usize] += 1;
    }

    /// Check and count one delivery.
    pub fn delivered(&mut self, receiver: ProcessId, msg: &Delivered, reliable: bool) {
        let key = msg.order_key();
        let slot = receiver.0 as usize * 2 + chan(reliable);
        if let Some(prev) = self.last[slot] {
            if key <= prev {
                self.order_violations += 1;
                if self.first_violation.is_none() {
                    self.first_violation = Some(format!(
                        "{receiver:?} delivered {key:?} on the {} channel after {prev:?}",
                        if reliable { "reliable" } else { "best-effort" },
                    ));
                }
            }
        }
        self.last[slot] = Some(key);
        let i = self.idx(msg.src, receiver, reliable);
        self.delivered[i] += 1;
    }

    /// Deliveries counted so far.
    pub fn total_delivered(&self) -> u64 {
        self.delivered.iter().sum()
    }

    /// Whether every message sent so far has been delivered.
    pub fn complete(&self) -> bool {
        self.sent == self.delivered
    }

    /// Attempted and failed message counts. Messages from `excluded`
    /// senders (crashed on purpose) are reported apart; a pair whose
    /// counts differ fails by the difference, and an out-of-order
    /// delivery fails the message it delivered.
    pub fn outcome(&self, excluded: &[ProcessId]) -> Outcome {
        let mut o = Outcome { failed: self.send_errors, ..Outcome::default() };
        o.attempted += self.send_errors;
        for s in 0..self.n {
            let crashed = excluded.contains(&ProcessId(s as u32));
            for r in 0..self.n {
                for reliable in [false, true] {
                    let i = self.idx(ProcessId(s as u32), ProcessId(r as u32), reliable);
                    let (sent, got) = (self.sent[i], self.delivered[i]);
                    if crashed {
                        o.excluded_sent += sent;
                        o.excluded_delivered += got;
                    } else {
                        o.attempted += sent;
                        o.failed += sent.abs_diff(got);
                        if !reliable {
                            let told = self.reported[s * self.n + r];
                            o.reported_lost += sent.saturating_sub(got).min(told);
                        }
                    }
                }
            }
        }
        o.failed = (o.failed + self.order_violations).min(o.attempted);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepipe_types::time::Timestamp;

    fn msg(ts: u64, src: u32, seq: u64) -> Delivered {
        Delivered {
            ts: Timestamp::from_nanos(ts),
            src: ProcessId(src),
            seq,
            payload: bytes::Bytes::new(),
        }
    }

    #[test]
    fn in_order_exactly_once_passes() {
        let mut l = Ledger::new(3);
        l.sent(ProcessId(0), &[ProcessId(1), ProcessId(2)], false);
        l.sent(ProcessId(2), &[ProcessId(1)], true);
        l.delivered(ProcessId(1), &msg(10, 0, 0), false);
        l.delivered(ProcessId(2), &msg(10, 0, 0), false);
        // The reliable channel is ordered on its own.
        l.delivered(ProcessId(1), &msg(5, 2, 0), true);
        assert!(l.complete());
        assert_eq!(l.outcome(&[]), Outcome { attempted: 3, ..Outcome::default() });
    }

    #[test]
    fn duplicate_and_reorder_fail() {
        let mut l = Ledger::new(2);
        l.sent(ProcessId(0), &[ProcessId(1)], false);
        l.sent(ProcessId(0), &[ProcessId(1)], false);
        l.delivered(ProcessId(1), &msg(20, 0, 1), false);
        l.delivered(ProcessId(1), &msg(10, 0, 0), false);
        assert_eq!(l.order_violations, 1);
        assert!(l.first_violation.is_some());
        assert_eq!(l.outcome(&[]).failed, 1);
        l.delivered(ProcessId(1), &msg(20, 0, 1), false);
        assert_eq!(l.outcome(&[]).failed, 2, "duplicate is out of order and over-delivered");
    }

    #[test]
    fn missing_message_and_send_error_fail_and_crashed_sender_is_apart() {
        let mut l = Ledger::new(3);
        l.sent(ProcessId(1), &[ProcessId(0)], true);
        l.sent(ProcessId(2), &[ProcessId(0)], true);
        l.send_error(1);
        let o = l.outcome(&[ProcessId(2)]);
        assert_eq!((o.attempted, o.failed), (2, 2));
        assert_eq!((o.excluded_sent, o.excluded_delivered), (1, 0));
    }

    #[test]
    fn reported_best_effort_loss_fails_but_is_told_apart() {
        let mut l = Ledger::new(2);
        for _ in 0..3 {
            l.sent(ProcessId(0), &[ProcessId(1)], false);
        }
        l.sent(ProcessId(0), &[ProcessId(1)], true);
        l.delivered(ProcessId(1), &msg(10, 0, 0), false);
        // Two best-effort messages and the reliable one are missing; one
        // loss is reported, and a report never covers a reliable message.
        l.send_failed(ProcessId(0), ProcessId(1));
        let o = l.outcome(&[]);
        assert_eq!((o.attempted, o.failed, o.reported_lost), (4, 3, 1));
        // A report for a message that did arrive covers nothing.
        l.delivered(ProcessId(1), &msg(20, 0, 1), false);
        l.delivered(ProcessId(1), &msg(30, 0, 2), false);
        l.delivered(ProcessId(1), &msg(10, 0, 0), true);
        assert_eq!(l.outcome(&[]).reported_lost, 0);
    }
}
