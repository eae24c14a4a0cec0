//! Model-checker interposition: the shared event vocabulary and the
//! process-global probe the `hc-mc` concurrency checker plugs into.
//!
//! Compiled only under the `mc` feature. The instrumented primitives in
//! this shim (and in the `crossbeam` shim, which depends on this module
//! for the vocabulary) call [`emit`] around every visible operation:
//!
//! * **pre events** fire *before* the real operation touches the
//!   underlying `std::sync` primitive — a controlled scheduler may block
//!   the calling thread here until the operation is both *scheduled* and
//!   *enabled*, which is what makes exhaustive interleaving exploration
//!   possible without ever deadlocking on a real lock;
//! * **post events** fire after the operation and carry its outcome
//!   (try-lock success, channel delivery, endpoint counts), letting a
//!   trace recorder or scheduler keep exact object state.
//!
//! When no probe is installed, [`emit`] is a single relaxed atomic load
//! — the instrumentation cost of an idle `mc` build is negligible, and
//! builds without the feature carry none at all. Probe implementations
//! must not call instrumented primitives; a thread-local reentrancy
//! guard turns any such nested emission into a no-op as a backstop.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of an instrumented object (lock or channel), process-unique
/// and assigned in creation/first-use order so traces are stable for a
/// deterministic program.
pub type ObjectId = u64;

/// Which acquisition mode a lock event concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockKind {
    /// A `Mutex` (exclusive).
    Mutex,
    /// An `RwLock` taken shared.
    RwRead,
    /// An `RwLock` taken exclusive.
    RwWrite,
}

/// One interposition event. Pre events are scheduling points; post
/// events are outcome notifications (see module docs).
#[derive(Clone, Copy, Debug)]
pub enum ProbeEvent<'a> {
    /// Pre: about to block acquiring `lock`.
    Acquire {
        /// The lock being acquired.
        lock: ObjectId,
        /// Acquisition mode.
        kind: LockKind,
    },
    /// Post: the acquisition completed.
    Acquired {
        /// The lock acquired.
        lock: ObjectId,
        /// Acquisition mode.
        kind: LockKind,
    },
    /// Pre: about to attempt a non-blocking acquisition.
    TryAcquire {
        /// The lock being tried.
        lock: ObjectId,
        /// Acquisition mode.
        kind: LockKind,
    },
    /// Post: outcome of the non-blocking attempt.
    TryAcquired {
        /// The lock tried.
        lock: ObjectId,
        /// Acquisition mode.
        kind: LockKind,
        /// Whether the lock was obtained.
        acquired: bool,
    },
    /// Pre: about to release `lock` (releases enable waiting threads, so
    /// this is a scheduling point too).
    Release {
        /// The lock being released.
        lock: ObjectId,
        /// Mode it was held in.
        kind: LockKind,
    },
    /// Pre: about to enqueue on a channel.
    ChanSend {
        /// The channel.
        chan: ObjectId,
    },
    /// Post: enqueue outcome (`delivered == false` means every receiver
    /// was gone and the message bounced).
    ChanSent {
        /// The channel.
        chan: ObjectId,
        /// Whether the message was queued.
        delivered: bool,
    },
    /// Pre: about to block receiving; only enabled when the queue is
    /// non-empty or every sender has dropped.
    ChanRecv {
        /// The channel.
        chan: ObjectId,
    },
    /// Pre: about to attempt a non-blocking receive.
    ChanTryRecv {
        /// The channel.
        chan: ObjectId,
    },
    /// Post: receive outcome.
    ChanReceived {
        /// The channel.
        chan: ObjectId,
        /// Whether a message was dequeued.
        got: bool,
    },
    /// Post: a channel endpoint was cloned or dropped.
    ChanEndpoints {
        /// The channel.
        chan: ObjectId,
        /// Live senders after the change.
        senders: usize,
        /// Live receivers after the change.
        receivers: usize,
    },
    /// Pre: a logical shared-memory access annotation (from
    /// `hc_common::conc::mc::access`); `loc` names the location.
    Access {
        /// Logical location name.
        loc: &'a str,
        /// Whether the access mutates the location.
        write: bool,
    },
    /// Pre: a voluntary scheduling point with no attached operation.
    Yield,
    /// Post: model code observed an invariant violation.
    Violation {
        /// Human-readable description.
        msg: &'a str,
    },
}

/// Receives interposition events. Implementations must be callable from
/// any thread and must not touch instrumented primitives.
pub trait Probe: Send + Sync {
    /// Handles one event; pre events may block the calling thread.
    fn event(&self, ev: ProbeEvent<'_>);
}

/// `true` while a probe is installed — the one-load fast path.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// The installed probe. `std::sync` (not this crate's own wrappers) so
/// installing/clearing never re-enters the instrumentation.
static PROBE: std::sync::RwLock<Option<Arc<dyn Probe>>> = std::sync::RwLock::new(None);

/// Monotonic object-id source shared by every instrumented shim.
static NEXT_OBJECT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Reentrancy backstop: set while dispatching into the probe.
    static IN_PROBE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs `probe` as the process-global event sink, replacing any
/// previous one.
pub fn set_probe(probe: Arc<dyn Probe>) {
    let mut slot = PROBE.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    *slot = Some(probe);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Removes the installed probe; subsequent events are dropped on the
/// fast path.
pub fn clear_probe() {
    let mut slot = PROBE.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    ACTIVE.store(false, Ordering::SeqCst);
    *slot = None;
}

/// A fresh process-unique object id (used by channels, which know their
/// identity at construction).
pub fn fresh_object_id() -> ObjectId {
    NEXT_OBJECT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Reads the lazily-assigned id in `slot`, assigning a fresh one on
/// first use (locks are created with `const fn`, so their ids cannot be
/// drawn at construction).
pub fn lazy_object_id(slot: &AtomicU64) -> ObjectId {
    let id = slot.load(Ordering::Relaxed);
    if id != 0 {
        return id;
    }
    let fresh = fresh_object_id();
    match slot.compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => fresh,
        Err(raced) => raced,
    }
}

/// Whether a probe is currently installed. Annotation sites that need
/// to format a location name can branch on this to skip the formatting
/// cost when nothing is listening.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Dispatches `ev` to the installed probe, if any.
pub fn emit(ev: ProbeEvent<'_>) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let entered = IN_PROBE.with(|f| {
        if f.get() {
            false
        } else {
            f.set(true);
            true
        }
    });
    if !entered {
        return; // nested emission from inside a probe — drop it
    }
    let probe = PROBE
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    if let Some(p) = probe {
        p.event(ev);
    }
    IN_PROBE.with(|f| f.set(false));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Counts the events emitted on the thread that built it. The probe is
    /// process-global, so the other tests' locks, on their own test
    /// threads, reach it too while it is installed.
    struct CountingProbe {
        owner: std::thread::ThreadId,
        events: AtomicUsize,
    }
    impl Probe for CountingProbe {
        fn event(&self, _ev: ProbeEvent<'_>) {
            if std::thread::current().id() == self.owner {
                self.events.fetch_add(1, Ordering::Relaxed);
            }
            // Nested emissions must be swallowed by the reentrancy guard.
            emit(ProbeEvent::Yield);
        }
    }

    #[test]
    fn probe_receives_events_and_reentrancy_is_blocked() {
        let probe = Arc::new(CountingProbe {
            owner: std::thread::current().id(),
            events: AtomicUsize::new(0),
        });
        set_probe(probe.clone());
        emit(ProbeEvent::Yield);
        emit(ProbeEvent::Access { loc: "x", write: true });
        clear_probe();
        emit(ProbeEvent::Yield); // dropped: no probe installed
        assert_eq!(probe.events.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn lazy_ids_are_stable_and_unique() {
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        let ia = lazy_object_id(&a);
        assert_eq!(lazy_object_id(&a), ia);
        assert_ne!(lazy_object_id(&b), ia);
    }
}
