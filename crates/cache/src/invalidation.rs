//! The invalidation bus behind multi-client cache consistency.
//!
//! §III: "If the data are changing frequently, cache consistency
//! algorithms need to be applied to keep multiple versions of the data
//! consistent." A single [`crate::multilevel::CacheHierarchy`] handles
//! its own levels; *multiple independent clients* caching the same origin
//! need a protocol. The [`InvalidationBus`] carries the standard
//! write-invalidate scheme: every origin write publishes the key, and
//! each subscribed client drains its [`Subscription`] before serving a
//! read. [`crate::shard::ShardedOrigin`] runs one bus per shard, and its
//! [`crate::shard::ShardedClient`]s are the subscribers; at one shard
//! that is the unsharded protocol.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use crossbeam::channel::{unbounded, Sender, TryRecvError};
use parking_lot::Mutex;

type SubscriberList<K> = Mutex<Vec<(u64, Sender<K>)>>;

/// The invalidation bus: fan-out of written keys to subscribers.
pub struct InvalidationBus<K> {
    subscribers: Arc<SubscriberList<K>>,
    next_id: AtomicU64,
}

impl<K> std::fmt::Debug for InvalidationBus<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvalidationBus")
            .field("subscribers", &self.subscribers.lock().len())
            .finish()
    }
}

/// A live subscription to an [`InvalidationBus`].
///
/// Holds the receiving end of the invalidation channel plus a weak
/// back-reference to the bus's subscriber list: dropping a
/// `Subscription` removes its sender slot *immediately*, rather than
/// waiting for the next publish to notice the dead receiver. Without
/// this, a crashed fleet node that never publishes again would leak
/// its subscriber slot forever.
pub struct Subscription<K> {
    rx: crossbeam::channel::Receiver<K>,
    id: u64,
    list: Weak<SubscriberList<K>>,
}

impl<K> std::fmt::Debug for Subscription<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription").field("id", &self.id).finish()
    }
}

impl<K> Subscription<K> {
    /// Receives the next pending invalidation, if any.
    pub fn try_recv(&self) -> Result<K, TryRecvError> {
        self.rx.try_recv()
    }
}

impl<K> Drop for Subscription<K> {
    fn drop(&mut self) {
        // The bus may already be gone (Weak fails to upgrade) — fine:
        // its subscriber list died with it.
        if let Some(list) = self.list.upgrade() {
            list.lock().retain(|(id, _)| *id != self.id);
        }
    }
}

impl<K: Clone> InvalidationBus<K> {
    pub(crate) fn new() -> Self {
        InvalidationBus {
            subscribers: Arc::new(Mutex::new(Vec::new())),
            next_id: AtomicU64::new(0),
        }
    }

    pub(crate) fn subscribe(&self) -> Subscription<K> {
        // Invalidation keys are tiny and drained on every cache access;
        // a bounded channel would deadlock the single-threaded simulation
        // when a burst of invalidations outruns the reader.
        // hc-lint: allow(sync-unbounded-channel)
        let (tx, rx) = unbounded();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.subscribers.lock().push((id, tx));
        Subscription {
            rx,
            id,
            list: Arc::downgrade(&self.subscribers),
        }
    }

    /// Publishes `key`. Slots are normally reclaimed by
    /// [`Subscription`]'s `Drop`; the disconnected-send check here is a
    /// backstop for receivers dropped without their guard (e.g. a
    /// `mem::forget`-style leak), so a dead client can still cost at
    /// most one failed send.
    pub(crate) fn publish(&self, key: &K) {
        self.subscribers
            .lock()
            .retain(|(_, tx)| tx.send(key.clone()).is_ok());
    }

    /// Live subscriber count. Dropped subscriptions prune themselves,
    /// so this reflects drops immediately — no publish required.
    pub(crate) fn subscriber_count(&self) -> usize {
        self.subscribers.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscription_outliving_bus_drops_cleanly() {
        let bus: InvalidationBus<u64> = InvalidationBus::new();
        let sub = bus.subscribe();
        drop(bus);
        // The Weak back-reference fails to upgrade; Drop must not panic.
        drop(sub);
    }
}
