//! Short probes that time one layer's public functions on inputs shaped
//! like a workload: the same payload sizes, fan-in, port count and batch
//! size. Each returns nanoseconds per operation.

use bytes::{Bytes, BytesMut};
use onepipe_core::config::EndpointConfig;
use onepipe_core::endpoint::{Endpoint, HOP_LOCAL};
use onepipe_core::frag::START_OF_MESSAGE;
use onepipe_core::reorder::ReorderBuffer;
use onepipe_core::runtime::{HostRuntime, Wire};
use onepipe_netsim::sched::CalendarQueue;
use onepipe_switchlogic::barrier::BarrierAggregator;
use onepipe_types::ids::{HostId, NodeId, ProcessId};
use onepipe_types::message::{Message, OrderKey};
use onepipe_types::time::Timestamp;
use onepipe_types::wire::{decode_frame, encode_batch_into, Datagram, Flags, Opcode, PacketHeader};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::load::Rng;

fn ns_per(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Calendar-queue push + pop at a steady population, with event spacing
/// on the scale of the testbed's 500 ns links and 3 µs beacons.
pub fn sched_ns_per_op() -> f64 {
    const POPULATION: u64 = 4096;
    const OPS: u64 = 2_000_000;
    let mut q: CalendarQueue<u32> = CalendarQueue::new();
    for i in 0..POPULATION {
        q.push(i * 97 % 3_000, i as u32);
    }
    let start = Instant::now();
    for _ in 0..OPS {
        let (t, _, item) = q.pop().expect("population is steady");
        q.push(t + 50 + (item as u64 * 37) % 3_000, item);
    }
    black_box(q.len());
    ns_per(start, OPS)
}

/// One best-effort and one commit barrier update, each followed by the
/// switch's output recomputation, at a switch with `fan_in` inputs.
pub fn barrier_ns_per_update(fan_in: usize) -> f64 {
    const OPS: u64 = 1_000_000;
    let inputs: Vec<NodeId> = (0..fan_in as u32).map(NodeId).collect();
    let mut agg = BarrierAggregator::new(inputs.clone());
    let start = Instant::now();
    for t in 1..=OPS {
        let from = inputs[(t % fan_in as u64) as usize];
        let ts = Timestamp::from_nanos(t * 10);
        agg.observe_be(from, ts, t);
        black_box(agg.out_be(t));
        agg.observe_commit(from, ts, t);
        black_box(agg.out_commit(t));
    }
    ns_per(start, OPS)
}

/// Reorder buffer at `fan_in` interleaved senders with `bytes` payloads:
/// `(insert ns per message, advance ns per released message)`.
pub fn reorder_ns(fan_in: usize, bytes: usize, reliable: bool) -> (f64, f64) {
    const ROUNDS: u64 = 20_000;
    let flags = START_OF_MESSAGE | Flags::END_OF_MESSAGE;
    let body = Bytes::from(vec![0u8; bytes]);
    let mut rng = Rng::new(fan_in as u64);
    let mut rb = ReorderBuffer::new(reliable, false);
    let (mut insert_ns, mut advance_ns, mut released) = (0u128, 0u128, 0u64);
    // Each round, every sender contributes one message with a jittered
    // timestamp; arrival order is shuffled; then the barrier passes them.
    let mut order: Vec<usize> = (0..fan_in).collect();
    for round in 0..ROUNDS {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let base = 1_000 + round * 10_000;
        let start = Instant::now();
        for &s in &order {
            let key = OrderKey {
                ts: Timestamp::from_nanos(base + (s as u64 * 131) % 5_000),
                sender: ProcessId(s as u32),
                seq: round,
            };
            black_box(rb.insert_fragment(key, 0, round as u32, flags, body.clone()));
        }
        insert_ns += start.elapsed().as_nanos();
        let start = Instant::now();
        let (out, _) = rb.advance(Timestamp::from_nanos(base + 9_000));
        advance_ns += start.elapsed().as_nanos();
        released += out.len() as u64;
    }
    let inserts = ROUNDS * fan_in as u64;
    (insert_ns as f64 / inserts as f64, advance_ns as f64 / released.max(1) as f64)
}

/// A wire that queues what the runtime emits, at a clock the probe sets.
struct ProbeWire {
    now: u64,
    out: Vec<Datagram>,
}

impl Wire for ProbeWire {
    fn now(&self) -> u64 {
        self.now
    }
    fn emit(&mut self, d: Datagram) {
        self.out.push(d);
    }
}

fn beacon(ts: Timestamp) -> Datagram {
    Datagram {
        src: HOP_LOCAL,
        dst: HOP_LOCAL,
        header: PacketHeader {
            msg_ts: Timestamp::ZERO,
            barrier: ts,
            commit_barrier: ts,
            psn: 0,
            opcode: Opcode::Beacon,
            flags: Flags::empty(),
        },
        payload: Bytes::new(),
    }
}

/// `HostRuntime::on_datagram_burst` + `on_tick` on the receive side of
/// a `udp_mixed` process: bursts of `batch` best-effort datagrams of
/// `bytes` from two real sender endpoints, each burst closed by a
/// beacon that releases it. Returns ns per data datagram. Sender-side
/// ACK handling is done outside the timed region.
pub fn runtime_ns_per_dgram(batch: usize, bytes: usize) -> f64 {
    const DATAGRAMS: u64 = 100_000;
    // Loopback UDP trusts only beacon barriers.
    let cfg = EndpointConfig { trust_data_barriers: false, ..EndpointConfig::default() };
    let me = ProcessId(0);
    let deliveries = Arc::new(Mutex::new(Vec::new()));
    let mut rt = HostRuntime::new(
        HostId(0),
        onepipe_clock::MonotonicClock::perfect(),
        vec![Endpoint::new(me, cfg)],
        100_000,
        deliveries.clone(),
        Arc::new(Mutex::new(Vec::new())),
        Arc::new(Mutex::new(Vec::new())),
    );
    let mut senders = [Endpoint::new(ProcessId(1), cfg), Endpoint::new(ProcessId(2), cfg)];
    let mut wire = ProbeWire { now: 1_000, out: Vec::new() };
    let body = Bytes::from(vec![0u8; bytes]);
    let mut burst = Vec::with_capacity(batch + 1);
    let (mut timed_ns, mut fed) = (0u128, 0u64);
    while fed < DATAGRAMS {
        burst.clear();
        while burst.len() < batch {
            wire.now += 100;
            let ts = Timestamp::from_nanos(wire.now);
            let s = &mut senders[burst.len() % 2];
            s.send_unreliable(ts, vec![Message::new(me, body.clone())])
                .expect("sender buffer drains through ACKs");
            while let Some(d) = s.poll_transmit() {
                burst.push(d);
            }
        }
        fed += burst.len() as u64;
        wire.now += 100;
        burst.push(beacon(Timestamp::from_nanos(wire.now)));
        let start = Instant::now();
        rt.on_datagram_burst(&mut wire, burst.drain(..));
        rt.on_tick(&mut wire);
        timed_ns += start.elapsed().as_nanos();
        let now = Timestamp::from_nanos(wire.now);
        for d in wire.out.drain(..) {
            if let Some(s) = senders.iter_mut().find(|s| s.id() == d.dst) {
                s.handle_datagram(now, d);
            }
        }
        for s in &mut senders {
            s.poll(now);
            while s.poll_transmit().is_some() {}
        }
        deliveries.lock().expect("probe is single-threaded").clear();
    }
    timed_ns as f64 / fed as f64
}

fn datagram(bytes: usize, psn: u32) -> Datagram {
    Datagram {
        src: ProcessId(1),
        dst: ProcessId(2),
        header: PacketHeader::data(
            Timestamp::from_nanos(42 + psn as u64),
            psn,
            START_OF_MESSAGE | Flags::END_OF_MESSAGE,
        ),
        payload: Bytes::from(vec![0u8; bytes]),
    }
}

/// Datagram codec at `bytes` payloads and `batch` datagrams per frame:
/// `(encode_ns, decode_ns, batch_encode_ns_per_dgram, batch_decode_ns_per_dgram)`.
pub fn wire_ns(bytes: usize, batch: usize) -> (f64, f64, f64, f64) {
    const OPS: u64 = 500_000;
    let d = datagram(bytes, 7);
    let mut buf = BytesMut::with_capacity(d.encoded_len());
    let start = Instant::now();
    for _ in 0..OPS {
        buf.clear();
        d.encode_into(&mut buf);
        black_box(buf.len());
    }
    let encode = ns_per(start, OPS);
    let encoded = d.encode();
    let start = Instant::now();
    for _ in 0..OPS {
        black_box(Datagram::decode(encoded.clone()).expect("valid datagram"));
    }
    let decode = ns_per(start, OPS);

    let batch = batch.max(1);
    let frames = (OPS / batch as u64).max(1);
    let dgrams: Vec<Datagram> = (0..batch as u32).map(|i| datagram(bytes, i)).collect();
    let mut buf = BytesMut::new();
    let start = Instant::now();
    for _ in 0..frames {
        buf.clear();
        encode_batch_into(&dgrams, &mut buf);
        black_box(buf.len());
    }
    let batch_encode = ns_per(start, frames * batch as u64);
    let mut one = BytesMut::new();
    encode_batch_into(&dgrams, &mut one);
    let frame = one.freeze();
    let start = Instant::now();
    for _ in 0..frames {
        let n = decode_frame(frame.clone()).filter(|r| r.is_ok()).count();
        assert_eq!(n, batch, "batch frame decodes whole");
    }
    let batch_decode = ns_per(start, frames * batch as u64);
    (encode, decode, batch_encode, batch_decode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_costs() {
        let (ins, adv) = reorder_ns(4, 64, true);
        assert!(ins > 0.0 && adv > 0.0);
        assert!(runtime_ns_per_dgram(4, 64) > 0.0);
        let (e, d, be, bd) = wire_ns(64, 3);
        assert!(e > 0.0 && d > 0.0 && be > 0.0 && bd > 0.0);
    }
}
