//! Execution tracing and utilization accounting.
//!
//! Experiments need two kinds of observability: an ordered record of interesting
//! events ([`Trace`]) for debugging and assertions, and per-resource busy-time
//! accounting ([`BusyTracker`]) to report GPU utilization / work conservation, which
//! the paper argues is Fela's advantage over pipeline parallelism.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Machine-readable classification of a trace event.
///
/// Free-form messages are for humans; checkers (the `fela-check` race detector
/// in particular) need the scheduling-protocol events in structured form. The
/// kernel stays agnostic of higher-level types, so token ids are plain `u64`
/// and sub-model levels plain `usize`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum EventKind {
    /// An event with no structured payload (human-readable message only).
    #[default]
    Generic,
    /// The scheduler granted `token` to `worker` (the worker will mutate the
    /// level's parameter gradient state from here on).
    Grant {
        /// Receiving worker.
        worker: usize,
        /// Granted token id.
        token: u64,
        /// Sub-model level the token trains.
        level: usize,
        /// BSP iteration the token belongs to.
        iteration: u64,
        /// Ids of the completed tokens whose outputs this token consumes.
        deps: Vec<u64>,
    },
    /// `worker` finished computing `token` (its gradient contribution exists).
    Complete {
        /// Reporting worker.
        worker: usize,
        /// Completed token id.
        token: u64,
        /// Sub-model level the token trained.
        level: usize,
        /// BSP iteration the token belongs to.
        iteration: u64,
    },
    /// A parameter all-reduce for `(level, iteration)` started.
    SyncStart {
        /// Level whose parameters synchronize.
        level: usize,
        /// Iteration the sync commits.
        iteration: u64,
    },
    /// The `(level, iteration)` parameter update committed: every participant
    /// now holds the reduced parameters (the mutation point of the level's
    /// parameter chunk).
    SyncDone {
        /// Level whose parameters synchronized.
        level: usize,
        /// Iteration the sync committed.
        iteration: u64,
    },
    /// `worker` left the cluster (process crash or link partition): its
    /// in-flight work is lost and every lease it held is revoked.
    Crash {
        /// The worker that died.
        worker: usize,
    },
    /// `worker` rejoined the cluster after a crash or link outage.
    Restart {
        /// The worker that came back.
        worker: usize,
    },
    /// The scheduler revoked `token`'s lease from `worker` (deadline expiry or
    /// crash notification): the token returns to the grantable set. A later
    /// re-grant of the same token must happen-after this event and carries a
    /// strictly larger attempt number.
    Revoke {
        /// The worker that lost the lease.
        worker: usize,
        /// The revoked token.
        token: u64,
        /// The attempt number of the revoked lease (0 = first grant).
        attempt: u64,
    },
    /// The scheduler rejected a completion report from `worker` for `token`
    /// because it no longer holds the token's lease: the gradient was
    /// discarded, not applied.
    StaleReport {
        /// The rejected reporter.
        worker: usize,
        /// The token whose lease it lost.
        token: u64,
    },
}

/// One recorded trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Component that emitted it (e.g. `"worker3"`, `"token-server"`).
    pub source: String,
    /// Free-form message.
    pub message: String,
    /// Structured payload for checkers ([`EventKind::Generic`] when none).
    pub kind: EventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.time, self.source, self.message)
    }
}

/// An append-only, optionally disabled, event trace.
///
/// Tracing is off by default so hot simulation loops pay a single branch; tests that
/// assert on schedules enable it.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates a disabled trace.
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// Creates an enabled trace.
    pub fn enabled() -> Self {
        Trace {
            enabled: true,
            events: Vec::new(),
        }
    }

    /// Records an event if enabled. `message` is built lazily so disabled traces pay
    /// no formatting cost.
    pub fn record(&mut self, time: SimTime, source: &str, message: impl FnOnce() -> String) {
        self.record_kind(time, source, EventKind::Generic, message);
    }

    /// Records a structured event if enabled (see [`EventKind`]). `message` is
    /// built lazily so disabled traces pay no formatting cost.
    pub fn record_kind(
        &mut self,
        time: SimTime,
        source: &str,
        kind: EventKind,
        message: impl FnOnce() -> String,
    ) {
        if self.enabled {
            self.events.push(TraceEvent {
                time,
                source: source.to_owned(),
                message: message(),
                kind,
            });
        }
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

/// Accumulates busy intervals for one resource (e.g. one worker's GPU).
///
/// The tracker tolerates only sequential, non-overlapping busy intervals — a GPU in
/// this model executes one token at a time — and panics on overlap, which would mean
/// the runtime double-booked the device.
#[derive(Clone, Debug, Default)]
pub struct BusyTracker {
    busy: SimDuration,
    busy_since: Option<SimTime>,
    last_end: SimTime,
}

impl BusyTracker {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        BusyTracker::default()
    }

    /// Marks the resource busy starting at `now`.
    ///
    /// # Panics
    /// Panics if the resource is already busy or if `now` precedes the end of the
    /// previous busy interval.
    pub fn begin(&mut self, now: SimTime) {
        assert!(
            self.busy_since.is_none(),
            "resource marked busy while already busy (double booking at {now})"
        );
        assert!(
            now >= self.last_end,
            "busy interval starting at {now} overlaps previous interval ending at {}",
            self.last_end
        );
        self.busy_since = Some(now);
    }

    /// Marks the resource idle at `now`, accumulating the elapsed busy time.
    ///
    /// # Panics
    /// Panics if the resource was not busy.
    pub fn end(&mut self, now: SimTime) {
        let Some(since) = self.busy_since.take() else {
            panic!("resource marked idle while not busy (at {now})");
        };
        self.busy += now.since(since);
        self.last_end = now;
    }

    /// Aborts an open busy interval at `now` — the resource died mid-interval
    /// (fault injection). Elapsed time is accumulated as usual; an interval
    /// armed at a *future* instant (a straggler floor the resource never
    /// reached) is discarded entirely. No-op when idle.
    pub fn abort(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            if now > since {
                self.busy += now.since(since);
                self.last_end = now;
            }
        }
    }

    /// Total accumulated busy time (not counting an open interval).
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut trace = Trace::disabled();
        trace.record(t(1), "x", || "should not appear".into());
        assert!(trace.events().is_empty());
    }

    #[test]
    fn enabled_trace_records_and_filters() {
        let mut trace = Trace::enabled();
        trace.record(t(1), "worker0", || "train token 3".into());
        trace.record(t(2), "ts", || "generate token 8".into());
        trace.record(t(3), "worker0", || "report token 3".into());
        let sources: Vec<&str> = trace.events().iter().map(|e| e.source.as_str()).collect();
        assert_eq!(sources, ["worker0", "ts", "worker0"]);
        assert_eq!(trace.events()[1].message, "generate token 8");
        let shown = trace.events()[0].to_string();
        assert!(shown.contains("worker0") && shown.contains("train token 3"));
    }

    #[test]
    fn busy_tracker_accumulates() {
        let mut tracker = BusyTracker::new();
        tracker.begin(t(0));
        tracker.end(t(10));
        tracker.begin(t(20));
        tracker.end(t(25));
        assert_eq!(tracker.busy_time(), SimDuration::from_millis(15));
    }

    #[test]
    fn abort_accumulates_started_interval() {
        let mut tracker = BusyTracker::new();
        tracker.begin(t(0));
        tracker.abort(t(10));
        assert_eq!(tracker.busy_time(), SimDuration::from_millis(10));
        // A fresh interval may start right at the abort instant.
        tracker.begin(t(10));
        tracker.end(t(12));
        assert_eq!(tracker.busy_time(), SimDuration::from_millis(12));
    }

    #[test]
    fn abort_discards_future_interval() {
        let mut tracker = BusyTracker::new();
        tracker.begin(t(5));
        tracker.end(t(10));
        // Armed at a future straggler floor, aborted before it started.
        tracker.begin(t(20));
        tracker.abort(t(15));
        assert_eq!(tracker.busy_time(), SimDuration::from_millis(5));
        // The discarded interval must not poison later bookkeeping.
        tracker.begin(t(15));
        tracker.end(t(16));
        assert_eq!(tracker.busy_time(), SimDuration::from_millis(6));
    }

    #[test]
    fn abort_while_idle_is_noop() {
        let mut tracker = BusyTracker::new();
        tracker.abort(t(3));
        assert_eq!(tracker.busy_time(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "double booking")]
    fn double_begin_panics() {
        let mut tracker = BusyTracker::new();
        tracker.begin(t(0));
        tracker.begin(t(1));
    }

    #[test]
    #[should_panic(expected = "not busy")]
    fn end_while_idle_panics() {
        BusyTracker::new().end(t(1));
    }

    #[test]
    #[should_panic(expected = "overlaps previous")]
    fn overlapping_intervals_panic() {
        let mut tracker = BusyTracker::new();
        tracker.begin(t(0));
        tracker.end(t(10));
        tracker.begin(t(5));
    }
}
