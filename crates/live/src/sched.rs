//! The `Sched` seam: every cross-thread synchronization point in the live
//! runtime yields to a pluggable scheduler.
//!
//! The live runtime's sync points are frame sends/receives on a [`Link`],
//! the real-clock server's inbox dequeues, and wall-clock timer fires (lease
//! expiry, worker restart). Each one calls [`Sched::reached`] with a [`SyncEvent`] describing
//! the operation before/as it happens:
//!
//! * [`PassSched`] — the default — does nothing, preserving today's behavior
//!   bit-for-bit (the conformance suites run against it unchanged);
//! * [`RecordingSched`] captures the event stream for `fela-check`'s frame
//!   protocol session verifier (`fela check --protocol` replays it against
//!   the per-link state machine);
//! * test schedulers may block inside `reached` to freeze a thread at a sync
//!   point and force a specific interleaving ([`GateSched`]).
//!
//! There is deliberately no mutex-acquire event: the runtime is mutex-free by
//! design (threads communicate only through channels/sockets), and the
//! `lock-order` / `no-blocking-under-lock` lint rules in `fela-check` keep it
//! that way. Exhaustive interleaving exploration lives in `fela-check`'s
//! model checker (`mc.rs`), which drives this crate's own
//! [`frame_adapter`](crate::frame_adapter) and [`Frame`] protocol without OS
//! threads; this seam is the
//! *observation* side — it ties real executions back to the model.
//!
//! [`Link`]: crate::transport::Link

use std::sync::{Arc, Condvar, Mutex};

use crate::wire::Frame;

/// Which side of a server ↔ worker link observed an event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Endpoint {
    /// The Token Server end.
    Server,
    /// The worker end.
    Worker,
}

/// One cross-thread synchronization point.
#[derive(Clone, PartialEq, Debug)]
pub enum SyncEvent {
    /// `side` is about to hand `frame` to the transport on its link with
    /// worker `worker`.
    FrameSent {
        /// Observing endpoint.
        side: Endpoint,
        /// Worker index the link belongs to.
        worker: usize,
        /// The frame being sent.
        frame: Frame,
    },
    /// `side` received `frame` from the transport on its link with `worker`.
    FrameReceived {
        /// Observing endpoint.
        side: Endpoint,
        /// Worker index the link belongs to.
        worker: usize,
        /// The frame received.
        frame: Frame,
    },
    /// `side` observed its link with `worker` closed: a receive failed
    /// because the peer is gone or the link was shut under it (crash
    /// injection). Recorded once per link, by its receive half.
    LinkClosed {
        /// Observing endpoint.
        side: Endpoint,
        /// Worker index the link belongs to.
        worker: usize,
    },
    /// The real-clock server took one message off its inbox and is about to
    /// handle it. `frame` is `None` for the close of the worker's link. This
    /// is the server's *processing* order — distinct from
    /// [`SyncEvent::FrameReceived`], which the link's reader thread records
    /// as it parses the frame, before it forwards it into the inbox.
    InboxDequeued {
        /// Worker the message came from.
        worker: usize,
        /// The dequeued frame, or `None` for a closed-link notification.
        frame: Option<Frame>,
    },
    /// A lease timer fired on the real-clock server.
    LeaseFired {
        /// Token id the lease covered.
        token: u64,
        /// Grant attempt the lease belonged to.
        attempt: u64,
    },
    /// A worker-restart timer fired on the real-clock server.
    RestartFired {
        /// Worker being restarted.
        worker: usize,
    },
}

/// A pluggable scheduler observing (and optionally controlling) every
/// synchronization point.
pub trait Sched: Send + Sync {
    /// Called at each synchronization point. May block to freeze the calling
    /// thread at the sync point. Must not panic.
    fn reached(&self, event: &SyncEvent);
}

/// Shared scheduler handle, cloned into every thread of a run.
pub type SharedSched = Arc<dyn Sched>;

/// The default scheduler: a no-op at every sync point. A run under
/// `PassSched` is byte-identical to one without the seam.
#[derive(Default, Clone, Copy, Debug)]
pub struct PassSched;

impl Sched for PassSched {
    fn reached(&self, _event: &SyncEvent) {}
}

/// Shorthand for the default pass-through scheduler handle.
pub fn pass() -> SharedSched {
    Arc::new(PassSched)
}

/// Records every synchronization event in global arrival order (per-link
/// subsequences are per-direction FIFO, which is all the protocol session
/// verifier needs).
#[derive(Default)]
pub struct RecordingSched {
    events: Mutex<Vec<SyncEvent>>,
}

impl RecordingSched {
    /// New shared recorder.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<SyncEvent> {
        let mut events = self.events.lock().unwrap_or_else(|p| p.into_inner());
        std::mem::take(&mut *events)
    }
}

impl Sched for RecordingSched {
    fn reached(&self, event: &SyncEvent) {
        let mut events = self.events.lock().unwrap_or_else(|p| p.into_inner());
        events.push(event.clone());
    }
}

/// A gate scheduler: blocks every thread that reaches a sync point matching
/// `hold` until [`GateSched::release`] — the primitive for forcing one
/// specific adversarial interleaving in integration tests (e.g. freezing a
/// worker's Report send until its lease has fired).
pub struct GateSched {
    hold: Box<dyn Fn(&SyncEvent) -> bool + Send + Sync>,
    open: Mutex<bool>,
    cv: Condvar,
    seen: Mutex<Vec<SyncEvent>>,
}

impl GateSched {
    /// New gate holding every event `hold` matches.
    pub fn new(hold: impl Fn(&SyncEvent) -> bool + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(GateSched {
            hold: Box::new(hold),
            open: Mutex::new(false),
            cv: Condvar::new(),
            seen: Mutex::new(Vec::new()),
        })
    }

    /// Opens the gate; all held threads (and future matches) proceed.
    pub fn release(&self) {
        let mut open = self.open.lock().unwrap_or_else(|p| p.into_inner());
        *open = true;
        self.cv.notify_all();
    }

    /// Events observed so far (held or not).
    pub fn seen(&self) -> Vec<SyncEvent> {
        self.seen.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

impl Sched for GateSched {
    fn reached(&self, event: &SyncEvent) {
        {
            let mut seen = self.seen.lock().unwrap_or_else(|p| p.into_inner());
            seen.push(event.clone());
        }
        if !(self.hold)(event) {
            return;
        }
        let mut open = self.open.lock().unwrap_or_else(|p| p.into_inner());
        while !*open {
            open = self.cv.wait(open).unwrap_or_else(|p| p.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_sched_captures_in_order_and_drains() {
        let rec = RecordingSched::new();
        rec.reached(&SyncEvent::FrameSent {
            side: Endpoint::Server,
            worker: 0,
            frame: Frame::End,
        });
        rec.reached(&SyncEvent::LinkClosed {
            side: Endpoint::Worker,
            worker: 1,
        });
        let events = rec.take();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], SyncEvent::FrameSent { worker: 0, .. }));
        assert!(rec.take().is_empty(), "take drains");
    }

    #[test]
    fn gate_sched_holds_matching_threads_until_release() {
        let gate = GateSched::new(|e| matches!(e, SyncEvent::LeaseFired { .. }));
        // Non-matching events pass straight through.
        gate.reached(&SyncEvent::RestartFired { worker: 0 });
        let g2 = Arc::clone(&gate);
        let held = std::thread::spawn(move || {
            g2.reached(&SyncEvent::LeaseFired {
                token: 1,
                attempt: 0,
            });
        });
        // The held thread cannot have finished before release.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!held.is_finished(), "matching event must block");
        gate.release();
        held.join().expect("held thread resumes");
        assert_eq!(gate.seen().len(), 2);
    }
}
