//! Outboxes from node logic to the driver that steps the simulation.
//!
//! Node logics (switch detect reports, host deliveries and control
//! requests) hand records to the driver through shared queues, and the
//! driver looks at them between simulator events. Most events produce
//! nothing for it, so the driver must be able to tell "nothing new" for
//! the price of one atomic load instead of locking every queue.
//!
//! An [`Outbox`] is such a queue bound to a [`Pending`] signal: its
//! [`push`](Outbox::push) — the only way to add a record — raises the
//! signal, so no producer can forget to. Several outboxes may share one
//! signal; the consumer then drains all of them when it sees it raised.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, LockResult, Mutex, MutexGuard};

/// A shared "new records since last looked" flag. The raise is a
/// `Release` store after the record is appended, and `is_raised`/`take`
/// are `Acquire`, so a consumer that sees the flag sees the record (the
/// queue's mutex orders the record itself as well).
#[derive(Clone, Debug, Default)]
pub struct Pending(Arc<AtomicBool>);

impl Pending {
    /// A lowered signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a push happened since the signal was last cleared.
    #[inline]
    pub fn is_raised(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Lower the signal, returning whether it was raised.
    #[inline]
    pub fn take(&self) -> bool {
        self.0.swap(false, Ordering::AcqRel)
    }

    #[inline]
    fn raise(&self) {
        self.0.store(true, Ordering::Release);
    }
}

/// A shared queue whose pushes raise a [`Pending`] signal. Clones share
/// the queue and the signal.
pub struct Outbox<T> {
    items: Arc<Mutex<Vec<T>>>,
    pending: Pending,
}

impl<T> Clone for Outbox<T> {
    fn clone(&self) -> Self {
        Outbox { items: self.items.clone(), pending: self.pending.clone() }
    }
}

impl<T> Default for Outbox<T> {
    /// An empty outbox with a signal of its own.
    fn default() -> Self {
        Self::new(&Pending::new())
    }
}

impl<T> From<Arc<Mutex<Vec<T>>>> for Outbox<T> {
    /// Wrap an existing shared vector, with a signal of its own.
    fn from(items: Arc<Mutex<Vec<T>>>) -> Self {
        Outbox { items, pending: Pending::new() }
    }
}

impl<T> Outbox<T> {
    /// An empty outbox that raises `pending`.
    pub fn new(pending: &Pending) -> Self {
        Outbox { items: Arc::new(Mutex::new(Vec::new())), pending: pending.clone() }
    }

    /// Append a record and raise the signal.
    pub fn push(&self, item: T) {
        self.items.lock().expect("an outbox producer panicked mid-push").push(item);
        self.pending.raise();
    }

    /// Take every queued record and lower the signal. A signal shared by
    /// several outboxes is lowered for all of them, so the consumer
    /// drains them together.
    pub fn drain(&self) -> Vec<T> {
        // Lower first: a push racing with the take re-raises the signal.
        self.pending.take();
        std::mem::take(&mut *self.items.lock().expect("an outbox producer panicked mid-push"))
    }

    /// Lock the records for reading or reordering in place, as
    /// [`Mutex::lock`]. New records go through [`push`](Self::push).
    pub fn lock(&self) -> LockResult<MutexGuard<'_, Vec<T>>> {
        self.items.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_raises_and_drain_clears() {
        let signal = Pending::new();
        let a: Outbox<u32> = Outbox::new(&signal);
        let b: Outbox<&str> = Outbox::new(&signal);
        assert!(!signal.is_raised());
        a.push(1);
        assert!(signal.is_raised());
        // Clones share queue and signal.
        a.clone().push(2);
        b.push("x");
        assert_eq!(a.drain(), vec![1, 2]);
        assert!(!signal.is_raised(), "draining lowers the shared signal");
        assert_eq!(b.drain(), vec!["x"]);
        assert!(a.drain().is_empty());
        assert!(!signal.is_raised());
        b.push("y");
        assert!(signal.take());
        assert!(!signal.take());
        assert_eq!(b.lock().unwrap().as_slice(), ["y"]);
    }

    #[test]
    fn wrapped_vector_stays_shared() {
        let shared = Arc::new(Mutex::new(Vec::new()));
        let out = Outbox::from(shared.clone());
        out.push(7u8);
        assert_eq!(*shared.lock().unwrap(), vec![7]);
    }
}
