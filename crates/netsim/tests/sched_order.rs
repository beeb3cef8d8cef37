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
//!
//! The last tests pin the slot lists: keys handed back when a push lands
//! before the sorted slot, and heap use after a drain bounded by the peak
//! number of pending events rather than by every slot's busiest moment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
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
    /// overflow-tier distances), peeks and pops yield the same (time, seq)
    /// stream as the reference heap, and peek_time always agrees. Some
    /// pushes land between the last popped time and a slot a peek has
    /// just sorted, so the cursor moves back and hands its keys back.
    #[test]
    fn pops_match_reference_heap(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400)) {
        let horizon = NUM_SLOTS as u64 * SLOT_NS;
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut reference = RefHeap::new();
        // The engine never schedules into the past: pushed times stay at
        // or above the last popped time, which the generator enforces by
        // tracking the floor.
        let mut floor = 0u64;
        // Time of the head as last peeked, if no pop has happened since.
        let mut peeked: Option<u64> = None;
        for (kind, raw) in ops {
            if kind % 4 != 3 {
                // Mix scales so pushes land in the cursor bucket, deeper
                // in the wheel, and past the horizon (overflow tier).
                let span = match (kind % 3, peeked) {
                    // Before the peeked (sorted) slot, when it is ahead.
                    (0, Some(head)) if kind >= 128 && head >= floor + 2 * SLOT_NS => {
                        head - floor - SLOT_NS
                    }
                    (0, _) => SLOT_NS * 4,
                    (1, _) => horizon,
                    _ => horizon * 4,
                };
                let time = floor + raw % span;
                cal.push(time, reference.seq + 1);
                reference.push(time);
            } else if kind >= 128 {
                // Peek only: sorts the head slot without popping.
                peeked = reference.peek_time();
                prop_assert_eq!(cal.peek_time(), peeked);
            } else {
                peeked = None;
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

/// A push into an earlier slot than the one a peek has just sorted moves
/// the cursor back: the sorted slot's keys return to its list, the
/// earlier slot pops first, and the later slot — including a push into it
/// after the hand-back — then pops in `(time, seq)` order.
#[test]
fn push_before_sorted_slot_hands_keys_back() {
    let late = 40 * SLOT_NS;
    let early = 7 * SLOT_NS;
    let mut cal: CalendarQueue<&str> = CalendarQueue::new();
    cal.push(late + 3, "late+3");
    cal.push(late + 1, "late+1a");
    cal.push(late + 2, "late+2");
    cal.push(late + 1, "late+1b");
    // Sorts the late slot into the cursor.
    assert_eq!(cal.peek_time(), Some(late + 1));
    cal.push(early + 5, "early+5");
    cal.push(early, "early");
    assert_eq!(cal.peek_time(), Some(early));
    assert_eq!(cal.pop().map(|(t, _, i)| (t, i)), Some((early, "early")));
    // Back to the late slot while the early one still holds an event.
    cal.push(late, "late+0");
    assert_eq!(cal.pop().map(|(t, _, i)| (t, i)), Some((early + 5, "early+5")));
    let rest: Vec<(u64, u64, &str)> = std::iter::from_fn(|| cal.pop()).collect();
    let items: Vec<&str> = rest.iter().map(|&(_, _, i)| i).collect();
    assert_eq!(items, ["late+0", "late+1a", "late+1b", "late+2", "late+3"]);
    assert!(rest.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    assert!(cal.is_empty());
}

/// Counts the heap bytes held by allocations made on the current thread,
/// so a test can weigh one structure while other tests run alongside.
struct ThreadHeap;

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn note_heap(delta: isize) {
    // Unavailable only while the thread is being torn down.
    let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + delta));
}

unsafe impl GlobalAlloc for ThreadHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_heap(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_heap(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note_heap(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static HEAP: ThreadHeap = ThreadHeap;

fn live_heap_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

/// Bursts of 64 events into thousands of distinct slots, each drained
/// before the next: what the queue holds afterwards is bounded by the
/// peak pending count (64 events), not by slots × the per-slot peak. A
/// queue whose buckets keep their peak capacity would still hold
/// 4000 × 64 keys here, about 6 MB.
#[test]
fn drained_bursts_leave_storage_bounded_by_peak_pending() {
    const BURST: u64 = 64;
    const SLOTS: u64 = 4000;
    let before = live_heap_bytes();
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    let empty = live_heap_bytes() - before;
    let mut popped = 0u64;
    for s in 0..SLOTS {
        // Every other slot, so the bursts also cross the wheel's wrap.
        let base = 2 * s * SLOT_NS;
        for j in 0..BURST {
            cal.push(base + (j * 7) % SLOT_NS, j);
        }
        for _ in 0..BURST {
            let (t, _, _) = cal.pop().expect("burst is pending");
            assert!(t >= base && t < base + SLOT_NS);
            popped += 1;
        }
    }
    assert_eq!(popped, SLOTS * BURST);
    assert!(cal.is_empty());
    let retained = live_heap_bytes() - before - empty;
    // Generous per-event allowance: a slab entry, a cursor key, and the
    // growth slack of both vectors.
    let bound = BURST as isize * 256;
    assert!(
        retained <= bound,
        "drained queue retains {retained} B beyond its empty size ({empty} B); \
         peak pending was {BURST} events, bound {bound} B"
    );
    drop(cal);
    assert_eq!(live_heap_bytes(), before, "the queue frees everything it holds");
}
