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
//!   the per-link state machine).
//!
//! There is deliberately no mutex-acquire event: the runtime is mutex-free by
//! design (threads communicate only through channels/sockets), and clippy's
//! ban on `Mutex`, `RwLock` and `Condvar` (`disallowed-types` in the
//! workspace `clippy.toml`) keeps it that way. [`RecordingSched`]'s buffer,
//! an observer's rather than the runtime's, is the one lock it allows.
//! Exhaustive interleaving exploration lives in `fela-check`'s model checker
//! (`mc.rs`), which drives this crate's own
//! [`frame_adapter`](crate::frame_adapter) and [`Frame`] protocol without OS
//! threads; this seam is the *observation* side — it ties real executions
//! back to the model.
//!
//! [`Link`]: crate::transport::Link

use std::sync::Arc;

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
    // The runtime's one lock, allowed past the workspace ban: it is held only
    // for a `push` or a `take`, so there is no other lock to order it against
    // and nothing blocks under it.
    #[allow(clippy::disallowed_types)]
    events: std::sync::Mutex<Vec<SyncEvent>>,
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
}
