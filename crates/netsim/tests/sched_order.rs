//! Property test for the calendar-queue scheduler's determinism contract:
//! over arbitrary push/pop interleavings, [`CalendarQueue`] must pop in
//! exactly ascending `(time, seq)` order — byte-for-byte what the old
//! `BinaryHeap<Reverse<Scheduled>>` produced. Every seeded experiment and
//! chaos repro depends on this.
//!
//! The queue keeps its items in a slab reused through a free list, so
//! the second half checks ownership: with items that count their drops,
//! every pushed item is popped or dropped exactly once, whatever the
//! interleaving, the overflow-tier refills and the queue's own drop.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use onepipe_netsim::sched::{CalendarQueue, NUM_SLOTS, SLOT_NS};
use proptest::prelude::*;

/// Reference model: the exact structure the engine used before the
/// calendar queue, with the same internal push-order sequence counter.
struct RefHeap {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
}

impl RefHeap {
    fn new() -> Self {
        RefHeap { heap: BinaryHeap::new(), seq: 0 }
    }
    fn push(&mut self, time: u64) {
        self.seq += 1;
        self.heap.push(Reverse((time, self.seq)));
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse(p)| p)
    }
    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _))| *t)
    }
}

proptest! {
    /// Arbitrary interleavings of pushes (near-future, mid-wheel, and
    /// overflow-tier distances) and pops yield the same (time, seq)
    /// stream as the reference heap, and peek_time always agrees.
    #[test]
    fn pops_match_reference_heap(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400)) {
        let horizon = NUM_SLOTS as u64 * SLOT_NS;
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut reference = RefHeap::new();
        // The engine never schedules into the past: pushed times stay at
        // or above the last popped time, which the generator enforces by
        // tracking the floor.
        let mut floor = 0u64;
        for (kind, raw) in ops {
            if kind % 4 != 3 {
                // Mix scales so pushes land in the cursor bucket, deeper
                // in the wheel, and past the horizon (overflow tier).
                let span = match kind % 3 {
                    0 => SLOT_NS * 4,
                    1 => horizon,
                    _ => horizon * 4,
                };
                let time = floor + raw % span;
                cal.push(time, reference.seq + 1);
                reference.push(time);
            } else {
                prop_assert_eq!(cal.peek_time(), reference.peek_time());
                let got = cal.pop();
                let want = reference.pop();
                prop_assert_eq!(got.as_ref().map(|&(t, s, item)| (t, s, item)),
                                want.map(|(t, s)| (t, s, s)));
                if let Some((t, _, _)) = got {
                    floor = t;
                }
            }
        }
        // Drain both completely: the tails must agree too.
        prop_assert_eq!(cal.len(), reference.heap.len());
        while let Some(want) = reference.pop() {
            prop_assert_eq!(cal.peek_time(), Some(want.0));
            let got = cal.pop();
            prop_assert_eq!(got, Some((want.0, want.1, want.1)));
        }
        prop_assert!(cal.is_empty());
    }
}

/// An item that records its own drop in a shared per-id counter.
struct Tracked {
    id: u64,
    drops: Rc<RefCell<Vec<u32>>>,
}

impl Tracked {
    fn new(drops: &Rc<RefCell<Vec<u32>>>) -> Self {
        let mut d = drops.borrow_mut();
        d.push(0);
        Tracked { id: d.len() as u64 - 1, drops: drops.clone() }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.borrow_mut()[self.id as usize] += 1;
    }
}

/// Every id dropped exactly once.
fn all_dropped_once(drops: &Rc<RefCell<Vec<u32>>>) -> bool {
    drops.borrow().iter().all(|&n| n == 1)
}

proptest! {
    /// Push/pop interleavings at all three distances, then dropping the
    /// queue with whatever is left: each item leaves exactly once, either
    /// through `pop` (the right item for its key) or through the drop.
    #[test]
    fn every_item_popped_or_dropped_exactly_once(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400),
    ) {
        let horizon = NUM_SLOTS as u64 * SLOT_NS;
        let drops = Rc::new(RefCell::new(Vec::new()));
        let mut cal: CalendarQueue<Tracked> = CalendarQueue::new();
        let mut popped = 0usize;
        let mut floor = 0u64;
        for (kind, raw) in ops {
            if kind % 4 != 3 {
                let span = match kind % 3 {
                    0 => SLOT_NS * 4,
                    1 => horizon,
                    _ => horizon * 4,
                };
                cal.push(floor + raw % span, Tracked::new(&drops));
            } else if let Some((t, seq, item)) = cal.pop() {
                // Ids count from 0 in push order; seqs from 1.
                prop_assert_eq!(item.id + 1, seq);
                prop_assert_eq!(drops.borrow()[item.id as usize], 0);
                drop(item);
                popped += 1;
                floor = t;
            }
        }
        let pushed = drops.borrow().len();
        prop_assert_eq!(cal.len(), pushed - popped);
        drop(cal);
        prop_assert!(all_dropped_once(&drops));
    }
}

/// Overflow-tier refills move keys, not items: after a jump to the
/// overflow tier and refills as the wheel turns, the slab entries the
/// popped items vacated are reused, and dropping the non-empty queue
/// releases the rest — in the wheel and in the overflow tier — once each.
#[test]
fn overflow_refill_and_drop_release_each_item_once() {
    let horizon = NUM_SLOTS as u64 * SLOT_NS;
    let drops = Rc::new(RefCell::new(Vec::new()));
    let mut cal: CalendarQueue<Tracked> = CalendarQueue::new();
    for i in 0..64u64 {
        // Half far beyond the horizon, interleaved with near events.
        let t = if i % 2 == 0 { 3 * horizon + i * SLOT_NS } else { i };
        cal.push(t, Tracked::new(&drops));
    }
    // Drain the near half, then jump into the overflow tier.
    for _ in 0..40 {
        let (_, seq, item) = cal.pop().unwrap();
        assert_eq!(item.id + 1, seq);
    }
    // Reuse the vacated entries, some near the cursor, some far out.
    let now = cal.peek_time().unwrap();
    for i in 0..32u64 {
        let t = if i % 2 == 0 { now + i } else { now + 2 * horizon + i };
        cal.push(t, Tracked::new(&drops));
    }
    for _ in 0..10 {
        cal.pop().unwrap();
    }
    assert_eq!(cal.len(), 64 + 32 - 50);
    assert_eq!(drops.borrow().iter().filter(|&&n| n == 1).count(), 50);
    drop(cal);
    assert!(all_dropped_once(&drops));
}
