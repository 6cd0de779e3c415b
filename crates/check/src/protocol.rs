//! Frame-protocol session verifier for the live runtime.
//!
//! The server ↔ worker dialogue over a [`Link`] follows a strict session
//! discipline (DESIGN.md §"live runtime"): an optional `Hello`, then — real
//! clock — an initial `Request` followed by `GrantBatch`/`ReportBatch`
//! cycles, and an epilogue of `Iter*`, `End`, `Params` with `Params` the
//! link's last frame. A virtual-clock run prices spans with the simulator's
//! own model, so its links carry the `Hello` and the epilogue only, and one
//! rule set checks both clock modes. Grants and reports are checked token by
//! token, whatever the batch length.
//! This module encodes that discipline as one state machine per link
//! ([`SessionVerifier`]) and replays it over a stream of recorded
//! [`SyncEvent`]s — either captured from a real run by
//! [`RecordingSched`](fela_live::RecordingSched), or synthesized by the model
//! checker ([`crate::mc`]) for every explored execution.
//!
//! Checked per link (= per worker index), from the server's perspective:
//!
//! * **direction** — only worker-type frames arrive (`Hello`, `Request`,
//!   `ReportBatch`, `Params`), only server-type frames depart (`GrantBatch`,
//!   `Iter`, `Hang`, `End`); a frame no runtime sends (`CostQuery`,
//!   `CostReply`) is in the wrong direction either way;
//! * **identity** — `Request`/`ReportBatch` frames carry the link's worker
//!   index;
//! * **grant/report matching** — every reported token pops the *oldest*
//!   outstanding grant on its link (per-direction FIFO means reports cannot
//!   overtake each other), and a token with no outstanding grant is a
//!   violation;
//! * **epilogue** — nothing is sent after `End`, no grant after `Iter`,
//!   `Params` only after `End`, and nothing arrives after `Params`;
//! * **inbox conservation** — each [`SyncEvent::InboxDequeued`] on the real
//!   server matches the oldest not-yet-dequeued arrival from that worker,
//!   where a link's close (recorded once, by its reader) is an arrival too
//!   (the inbox must not reorder or invent messages);
//! * **routing** (cross-link, needs the control-plane op log) — a grant
//!   carries no worker id, so a grant sent down the wrong link is
//!   locally well-formed on a fresh link; with the recorded
//!   [`CoordOp`](fela_core::CoordOp) history the verifier knows which worker
//!   the plane granted each token *to* and flags deliveries to anyone else.
//!
//! [`mutate_events`] applies the seeded wire mutations of the PR's mutation
//! matrix (mirroring `dag::Mutation` / `recovery::mutate_trace`): each must
//! surface as a distinct [`SessionViolation`].
//!
//! [`Link`]: fela_live::transport::Link

use std::collections::{BTreeMap, VecDeque};

use fela_core::{CoordOp, OpOutcome};
use fela_live::{Endpoint, Frame, SyncEvent};

/// A violation of the frame-protocol session discipline.
#[derive(Clone, PartialEq, Debug)]
pub enum SessionViolation {
    /// A frame travelled in the wrong direction (e.g. the server received a
    /// `GrantBatch`, or sent a `ReportBatch`).
    WrongDirection {
        /// Link (worker index) the frame moved on.
        worker: usize,
        /// Debug form of the offending frame.
        frame: String,
    },
    /// A `Request`/`ReportBatch` arrived on link `link` claiming worker id
    /// `claimed`.
    WrongWorkerId {
        /// Link the frame arrived on.
        link: usize,
        /// Worker id embedded in the frame.
        claimed: usize,
    },
    /// A reported token had no outstanding grant on its link.
    ReportWithoutGrant {
        /// Reporting link.
        worker: usize,
        /// Reported token.
        token: u64,
    },
    /// A reported token is outstanding, but is not the
    /// oldest outstanding grant on its link — per-direction FIFO was broken.
    ReportOutOfOrder {
        /// Reporting link.
        worker: usize,
        /// Oldest outstanding token (what FIFO required).
        expected: u64,
        /// Token actually reported.
        got: u64,
    },
    /// A frame was sent on a link after its `End`.
    SendAfterEnd {
        /// Link.
        worker: usize,
        /// Debug form of the frame sent.
        frame: String,
    },
    /// A grant was sent after the epilogue (`Iter`) began on its link.
    GrantAfterIter {
        /// Link.
        worker: usize,
        /// Granted token.
        token: u64,
    },
    /// `Params` arrived before `End` was sent on the link.
    ParamsBeforeEnd {
        /// Link.
        worker: usize,
    },
    /// A frame arrived on a link after its `Params` (which must be last).
    FrameAfterParams {
        /// Link.
        worker: usize,
        /// Debug form of the late frame.
        frame: String,
    },
    /// The server dequeued a message from a worker that does not match the
    /// oldest not-yet-dequeued arrival from that worker.
    InboxReorder {
        /// Worker whose messages were reordered.
        worker: usize,
        /// Debug form of the expected (oldest) arrival.
        expected: String,
        /// Debug form of what was dequeued.
        got: String,
    },
    /// The server dequeued a message from a worker with no recorded arrival.
    InboxWithoutArrival {
        /// Worker the phantom message was attributed to.
        worker: usize,
        /// Debug form of the dequeued message.
        frame: String,
    },
    /// A grant for `token` was delivered down the wrong link: the control
    /// plane granted it to `granted_to`, the frame went to `delivered_to`.
    MisroutedGrant {
        /// Granted token.
        token: u64,
        /// Worker the plane granted the token to.
        granted_to: usize,
        /// Link the frame was actually sent down.
        delivered_to: usize,
    },
}

impl std::fmt::Display for SessionViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionViolation::WrongDirection { worker, frame } => {
                write!(f, "link {worker}: frame in the wrong direction: {frame}")
            }
            SessionViolation::WrongWorkerId { link, claimed } => {
                write!(f, "link {link}: frame claims worker id {claimed}")
            }
            SessionViolation::ReportWithoutGrant { worker, token } => {
                write!(
                    f,
                    "link {worker}: Report({token}) with no outstanding grant"
                )
            }
            SessionViolation::ReportOutOfOrder {
                worker,
                expected,
                got,
            } => write!(
                f,
                "link {worker}: Report({got}) overtook outstanding grant {expected}"
            ),
            SessionViolation::SendAfterEnd { worker, frame } => {
                write!(f, "link {worker}: sent after End: {frame}")
            }
            SessionViolation::GrantAfterIter { worker, token } => {
                write!(f, "link {worker}: Grant({token}) after the epilogue began")
            }
            SessionViolation::ParamsBeforeEnd { worker } => {
                write!(f, "link {worker}: Params before End")
            }
            SessionViolation::FrameAfterParams { worker, frame } => {
                write!(f, "link {worker}: frame after Params: {frame}")
            }
            SessionViolation::InboxReorder {
                worker,
                expected,
                got,
            } => write!(
                f,
                "worker {worker}: inbox dequeued {got}, oldest arrival is {expected}"
            ),
            SessionViolation::InboxWithoutArrival { worker, frame } => {
                write!(f, "worker {worker}: inbox dequeued {frame} with no arrival")
            }
            SessionViolation::MisroutedGrant {
                token,
                granted_to,
                delivered_to,
            } => write!(
                f,
                "Grant({token}) for worker {granted_to} delivered down link {delivered_to}"
            ),
        }
    }
}

/// FIFO grant/report matching for one reported token of a `ReportBatch`.
fn check_report_token(
    violations: &mut Vec<SessionViolation>,
    link: &mut LinkSession,
    worker: usize,
    token: u64,
) {
    match link.outstanding.front().copied() {
        Some(oldest) if oldest == token => {
            link.outstanding.pop_front();
        }
        Some(oldest) if link.outstanding.contains(&token) => {
            violations.push(SessionViolation::ReportOutOfOrder {
                worker,
                expected: oldest,
                got: token,
            });
            link.outstanding.retain(|t| *t != token);
        }
        _ => violations.push(SessionViolation::ReportWithoutGrant { worker, token }),
    }
}

/// Per-link session machine state.
#[derive(Clone, Default)]
struct LinkSession {
    /// Tokens granted but not yet reported, oldest first.
    outstanding: VecDeque<u64>,
    /// Whether the epilogue (`Iter`) has begun on this link.
    sent_iter: bool,
    /// Whether `End` was sent on this link.
    sent_end: bool,
    /// Whether `Params` arrived (must be the link's last inbound frame).
    got_params: bool,
    /// Arrivals not yet dequeued by the server loop (`None` = link closed).
    arrivals: VecDeque<Option<Frame>>,
}

/// Outcome of verifying one event stream.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Distinct links observed.
    pub links: usize,
    /// Frames checked (sent + received, server perspective).
    pub frames: u64,
    /// Violations, in stream order.
    pub violations: Vec<SessionViolation>,
}

impl SessionReport {
    /// True when the stream was session-clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Incremental session verifier over a [`SyncEvent`] stream.
///
/// Events are checked from the server's perspective; worker-side events
/// (`side == Endpoint::Worker`) describe the same frames and are skipped so
/// a both-endpoints recording is not double-checked.
#[derive(Clone, Default)]
pub struct SessionVerifier {
    links: BTreeMap<usize, LinkSession>,
    /// Per-token queue of intended grantees, in plane issue order (from the
    /// op log). `None` = no routing information; misroutes undetectable.
    intents: Option<BTreeMap<u64, VecDeque<usize>>>,
    violations: Vec<SessionViolation>,
    frames: u64,
}

impl SessionVerifier {
    /// A verifier with no routing information.
    pub fn new() -> Self {
        SessionVerifier::default()
    }

    /// A verifier that knows, from the control-plane op log, which worker
    /// each grant was issued to — enabling [`SessionViolation::MisroutedGrant`].
    fn with_grant_intents(ops: &[CoordOp]) -> Self {
        let mut v = SessionVerifier {
            intents: Some(BTreeMap::new()),
            ..SessionVerifier::default()
        };
        for op in ops {
            if let OpOutcome::Granted { worker, token, .. } = &op.outcome {
                v.add_grant_intent(*token, *worker);
            }
        }
        v
    }

    /// Records that the control plane issued `token` to `worker` (used by the
    /// model checker, which learns intents as it explores).
    pub fn add_grant_intent(&mut self, token: u64, worker: usize) {
        self.intents
            .get_or_insert_with(BTreeMap::new)
            .entry(token)
            .or_default()
            .push_back(worker);
    }

    /// Violations found so far (drains; exploration calls this per transition).
    pub fn take_violations(&mut self) -> Vec<SessionViolation> {
        std::mem::take(&mut self.violations)
    }

    /// Feeds one event through the machine.
    pub fn observe(&mut self, event: &SyncEvent) {
        match event {
            SyncEvent::FrameSent {
                side: Endpoint::Server,
                worker,
                frame,
            } => self.on_sent(*worker, frame),
            SyncEvent::FrameReceived {
                side: Endpoint::Server,
                worker,
                frame,
            } => self.on_received(*worker, frame),
            SyncEvent::LinkClosed {
                side: Endpoint::Server,
                worker,
            } => {
                let link = self.links.entry(*worker).or_default();
                // A closed link forgives its session state (crash semantics);
                // a restart starts a fresh machine on the same worker index.
                // The arrival queue keeps the close marker so the inbox
                // conservation check can match the server's dequeue of the
                // close its link's reader forwarded.
                link.outstanding.clear();
                link.sent_iter = false;
                link.sent_end = false;
                link.got_params = false;
                link.arrivals.push_back(None);
            }
            SyncEvent::InboxDequeued { worker, frame } => self.on_dequeued(*worker, frame),
            // Worker-side mirror events and timer fires carry no session
            // obligations of their own.
            _ => {}
        }
    }

    /// Finishes the stream and returns the report. End-of-stream link state
    /// (outstanding grants, undrained arrivals) is *not* flagged: streams may
    /// legitimately be truncated mid-run.
    pub fn finish(self) -> SessionReport {
        SessionReport {
            links: self.links.len(),
            frames: self.frames,
            violations: self.violations,
        }
    }

    /// Routing check for one granted token: flags a delivery down a link the
    /// control plane did not grant it to.
    fn check_grant_intent(&mut self, worker: usize, token: u64) {
        if let Some(intents) = self.intents.as_mut() {
            let granted_to = intents.get_mut(&token).and_then(VecDeque::pop_front);
            if let Some(g) = granted_to {
                if g != worker {
                    self.violations.push(SessionViolation::MisroutedGrant {
                        token,
                        granted_to: g,
                        delivered_to: worker,
                    });
                }
            }
        }
    }

    fn on_sent(&mut self, worker: usize, frame: &Frame) {
        self.frames += 1;
        // Routing first: a misrouted grant is flagged at the send even when
        // locally well-formed on its link.
        if let Frame::GrantBatch { grants } = frame {
            for g in grants {
                self.check_grant_intent(worker, g.token);
            }
        }
        let link = self.links.entry(worker).or_default();
        if link.sent_end {
            self.violations.push(SessionViolation::SendAfterEnd {
                worker,
                frame: format!("{frame:?}"),
            });
            return;
        }
        match frame {
            Frame::GrantBatch { grants } => {
                for g in grants {
                    if link.sent_iter {
                        self.violations.push(SessionViolation::GrantAfterIter {
                            worker,
                            token: g.token,
                        });
                    }
                    link.outstanding.push_back(g.token);
                }
            }
            Frame::Iter { .. } => link.sent_iter = true,
            Frame::End => link.sent_end = true,
            Frame::Hang { .. } => {}
            other => self.violations.push(SessionViolation::WrongDirection {
                worker,
                frame: format!("{other:?}"),
            }),
        }
    }

    fn on_received(&mut self, worker: usize, frame: &Frame) {
        self.frames += 1;
        let link = self.links.entry(worker).or_default();
        link.arrivals.push_back(Some(frame.clone()));
        if link.got_params {
            self.violations.push(SessionViolation::FrameAfterParams {
                worker,
                frame: format!("{frame:?}"),
            });
            return;
        }
        match frame {
            Frame::Hello { .. } => {}
            Frame::Request { worker: claimed } => {
                if *claimed as usize != worker {
                    self.violations.push(SessionViolation::WrongWorkerId {
                        link: worker,
                        claimed: *claimed as usize,
                    });
                }
            }
            Frame::ReportBatch {
                worker: claimed,
                tokens,
            } => {
                if *claimed as usize != worker {
                    self.violations.push(SessionViolation::WrongWorkerId {
                        link: worker,
                        claimed: *claimed as usize,
                    });
                }
                // Batched reports keep per-direction FIFO: each token must
                // pop the oldest outstanding grant, in batch order.
                for token in tokens {
                    check_report_token(&mut self.violations, link, worker, *token);
                }
            }
            Frame::Params { .. } => {
                if !link.sent_end {
                    self.violations
                        .push(SessionViolation::ParamsBeforeEnd { worker });
                }
                link.got_params = true;
            }
            other => self.violations.push(SessionViolation::WrongDirection {
                worker,
                frame: format!("{other:?}"),
            }),
        }
    }

    fn on_dequeued(&mut self, worker: usize, frame: &Option<Frame>) {
        let link = self.links.entry(worker).or_default();
        match link.arrivals.pop_front() {
            None => self.violations.push(SessionViolation::InboxWithoutArrival {
                worker,
                frame: format!("{frame:?}"),
            }),
            Some(expected) if expected != *frame => {
                self.violations.push(SessionViolation::InboxReorder {
                    worker,
                    expected: format!("{expected:?}"),
                    got: format!("{frame:?}"),
                });
            }
            Some(_) => {}
        }
    }
}

/// Verifies a recorded event stream in one call. Pass the run's control-plane
/// op log to also catch misrouted grants.
pub fn verify_session(events: &[SyncEvent], ops: Option<&[CoordOp]>) -> SessionReport {
    let mut verifier = match ops {
        Some(ops) => SessionVerifier::with_grant_intents(ops),
        None => SessionVerifier::new(),
    };
    for event in events {
        verifier.observe(event);
    }
    verifier.finish()
}

/// A seeded wire-level mutation of a recorded event stream — the protocol
/// half of the PR's mutation matrix (the model-level half,
/// [`crate::mc::McMutation`], lives in the explorer).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireMutation {
    /// Deletes the `nth` server-sent grant (0-based): the wakeup is lost in
    /// flight. Its report then arrives unmatched. The rest of its
    /// `GrantBatch` stays intact; a batch left empty is removed.
    DropGrant {
        /// Which grant to drop, in stream order.
        nth: usize,
    },
    /// Moves the report answering the `nth` server-sent grant to just
    /// *before* that grant: the pair is reordered on the wire, breaking
    /// per-direction FIFO. The report is split out of its `ReportBatch` and
    /// overtakes the grant as a `ReportBatch` of one.
    ReorderGrantReport {
        /// Which grant/report pair to reorder, in stream order.
        nth: usize,
    },
    /// Rewrites the link of the `nth` server-sent grant to the next worker
    /// (mod links): the grant reaches the wrong requester.
    MisrouteGrant {
        /// Which grant to misroute, in stream order.
        nth: usize,
    },
}

/// Applies `mutation` to a recorded stream, returning the corrupted copy.
/// If the stream has no matching frame the copy is returned unchanged (the
/// caller's "mutation must be caught" assertion will then fail loudly).
///
/// Grants are counted in stream order, each `GrantBatch` contributing its
/// grants in batch order — the mutations target the logical grant stream,
/// not the framing.
pub fn mutate_events(events: &[SyncEvent], mutation: &WireMutation) -> Vec<SyncEvent> {
    let mut out: Vec<SyncEvent> = events.to_vec();
    let nth = match mutation {
        WireMutation::DropGrant { nth }
        | WireMutation::ReorderGrantReport { nth }
        | WireMutation::MisrouteGrant { nth } => *nth,
    };
    // Locate the nth logical grant: (event idx, index within its batch, link,
    // token).
    let target = events
        .iter()
        .enumerate()
        .filter_map(|(i, ev)| match ev {
            SyncEvent::FrameSent {
                side: Endpoint::Server,
                worker,
                frame: Frame::GrantBatch { grants },
            } => Some((i, *worker, grants)),
            _ => None,
        })
        .flat_map(|(i, worker, grants)| {
            grants
                .iter()
                .enumerate()
                .map(move |(j, g)| (i, j, worker, g.token))
        })
        .nth(nth);
    let Some((grant_idx, within, grant_worker, token)) = target else {
        return out;
    };
    match mutation {
        WireMutation::DropGrant { .. } => {
            if let SyncEvent::FrameSent {
                frame: Frame::GrantBatch { grants },
                ..
            } = &mut out[grant_idx]
            {
                grants.remove(within);
                if grants.is_empty() {
                    out.remove(grant_idx);
                }
            }
        }
        WireMutation::ReorderGrantReport { .. } => {
            // The answering report is split out of its ReportBatch and
            // overtakes the grant as a batch of one.
            for i in grant_idx + 1..out.len() {
                let SyncEvent::FrameReceived {
                    side: Endpoint::Server,
                    worker,
                    frame:
                        Frame::ReportBatch {
                            worker: claimed,
                            tokens,
                        },
                } = &mut out[i]
                else {
                    continue;
                };
                if *worker != grant_worker || !tokens.contains(&token) {
                    continue;
                }
                let claimed = *claimed;
                tokens.retain(|t| *t != token);
                if tokens.is_empty() {
                    out.remove(i);
                }
                out.insert(
                    grant_idx,
                    SyncEvent::FrameReceived {
                        side: Endpoint::Server,
                        worker: grant_worker,
                        frame: Frame::ReportBatch {
                            worker: claimed,
                            tokens: vec![token],
                        },
                    },
                );
                break;
            }
        }
        WireMutation::MisrouteGrant { .. } => {
            let links: std::collections::BTreeSet<usize> = events
                .iter()
                .filter_map(|ev| match ev {
                    SyncEvent::FrameSent {
                        side: Endpoint::Server,
                        worker,
                        ..
                    } => Some(*worker),
                    _ => None,
                })
                .collect();
            let wrong = links
                .iter()
                .copied()
                .find(|w| *w != grant_worker)
                .unwrap_or(grant_worker + 1);
            if let SyncEvent::FrameSent { worker, .. } = &mut out[grant_idx] {
                *worker = wrong;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_live::WireGrant;

    fn sent(worker: usize, frame: Frame) -> SyncEvent {
        SyncEvent::FrameSent {
            side: Endpoint::Server,
            worker,
            frame,
        }
    }

    fn received(worker: usize, frame: Frame) -> SyncEvent {
        SyncEvent::FrameReceived {
            side: Endpoint::Server,
            worker,
            frame,
        }
    }

    fn wire_grant(token: u64) -> WireGrant {
        WireGrant {
            token,
            level: 0,
            iteration: 0,
            batch: 4,
            unit_start: 0,
            unit_end: 1,
        }
    }

    fn grant(token: u64) -> Frame {
        Frame::GrantBatch {
            grants: vec![wire_grant(token)],
        }
    }

    fn report(worker: usize, token: u64) -> Frame {
        Frame::ReportBatch {
            worker: worker as u32,
            tokens: vec![token],
        }
    }

    fn clean_stream() -> Vec<SyncEvent> {
        vec![
            received(0, Frame::Request { worker: 0 }),
            received(1, Frame::Request { worker: 1 }),
            sent(0, grant(0)),
            sent(1, grant(1)),
            received(0, report(0, 0)),
            sent(0, grant(2)),
            received(1, report(1, 1)),
            received(0, report(0, 2)),
            sent(
                0,
                Frame::Iter {
                    iteration: 0,
                    schedule: vec![],
                },
            ),
            sent(0, Frame::End),
            sent(1, Frame::End),
            received(0, Frame::Params { bytes: vec![1, 2] }),
            received(1, Frame::Params { bytes: vec![3] }),
        ]
    }

    #[test]
    fn a_clean_session_verifies() {
        let report = verify_session(&clean_stream(), None);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.links, 2);
    }

    #[test]
    fn each_wire_mutation_yields_a_distinct_diagnostic() {
        let stream = clean_stream();
        let dropped = verify_session(
            &mutate_events(&stream, &WireMutation::DropGrant { nth: 0 }),
            None,
        );
        assert!(
            matches!(
                dropped.violations.first(),
                Some(SessionViolation::ReportWithoutGrant {
                    worker: 0,
                    token: 0
                })
            ),
            "{:?}",
            dropped.violations
        );

        let reordered = verify_session(
            &mutate_events(&stream, &WireMutation::ReorderGrantReport { nth: 0 }),
            None,
        );
        assert!(
            matches!(
                reordered.violations.first(),
                Some(SessionViolation::ReportWithoutGrant {
                    worker: 0,
                    token: 0
                })
            ),
            "{:?}",
            reordered.violations
        );

        // Misrouting needs routing intents; fabricate the op log's grant view.
        let mut verifier = SessionVerifier::new();
        verifier.add_grant_intent(0, 0);
        verifier.add_grant_intent(1, 1);
        verifier.add_grant_intent(2, 0);
        for ev in mutate_events(&stream, &WireMutation::MisrouteGrant { nth: 0 }) {
            verifier.observe(&ev);
        }
        let misrouted = verifier.finish();
        assert!(
            matches!(
                misrouted.violations.first(),
                Some(SessionViolation::MisroutedGrant {
                    token: 0,
                    granted_to: 0,
                    delivered_to: 1
                })
            ),
            "{:?}",
            misrouted.violations
        );
    }

    #[test]
    fn wire_mutations_target_grants_inside_batch_frames() {
        // A clean pipelined session: the logical grant stream is 0, 1, 2 but
        // every frame is a batch — the mutations must see through the framing.
        let stream = vec![
            received(0, Frame::Request { worker: 0 }),
            sent(
                0,
                Frame::GrantBatch {
                    grants: vec![wire_grant(0), wire_grant(1), wire_grant(2)],
                },
            ),
            received(
                0,
                Frame::ReportBatch {
                    worker: 0,
                    tokens: vec![0, 1, 2],
                },
            ),
        ];
        assert!(verify_session(&stream, None).ok());

        // Dropping the middle grant of the batch leaves its batched report
        // with no grant to match: token 1 was never (observed) granted.
        let dropped = verify_session(
            &mutate_events(&stream, &WireMutation::DropGrant { nth: 1 }),
            None,
        );
        assert!(
            matches!(
                dropped.violations.first(),
                Some(SessionViolation::ReportWithoutGrant {
                    worker: 0,
                    token: 1
                })
            ),
            "{:?}",
            dropped.violations
        );

        // Reordering splits the answering report out of the ReportBatch and
        // moves it ahead of the whole grant batch: a report with no grant.
        let reordered = verify_session(
            &mutate_events(&stream, &WireMutation::ReorderGrantReport { nth: 1 }),
            None,
        );
        assert!(
            matches!(
                reordered.violations.first(),
                Some(SessionViolation::ReportWithoutGrant {
                    worker: 0,
                    token: 1
                })
            ),
            "{:?}",
            reordered.violations
        );
    }

    #[test]
    fn batched_grants_and_reports_verify_like_singles() {
        // A clean pipelined session: one GrantBatch, one ReportBatch in FIFO
        // order, then the epilogue.
        let stream = vec![
            received(0, Frame::Request { worker: 0 }),
            sent(
                0,
                Frame::GrantBatch {
                    grants: vec![wire_grant(0), wire_grant(1), wire_grant(2)],
                },
            ),
            received(
                0,
                Frame::ReportBatch {
                    worker: 0,
                    tokens: vec![0, 1, 2],
                },
            ),
            sent(0, Frame::End),
            received(0, Frame::Params { bytes: vec![1] }),
        ];
        let rep = verify_session(&stream, None);
        assert!(rep.ok(), "{:?}", rep.violations);

        // A batch reported out of FIFO order is flagged per token.
        let stream = vec![
            sent(
                0,
                Frame::GrantBatch {
                    grants: vec![wire_grant(0), wire_grant(1)],
                },
            ),
            received(
                0,
                Frame::ReportBatch {
                    worker: 0,
                    tokens: vec![1, 0],
                },
            ),
        ];
        let rep = verify_session(&stream, None);
        assert!(matches!(
            rep.violations.first(),
            Some(SessionViolation::ReportOutOfOrder {
                worker: 0,
                expected: 0,
                got: 1
            })
        ));

        // A batched report with a phantom token is flagged.
        let stream = vec![
            sent(
                0,
                Frame::GrantBatch {
                    grants: vec![wire_grant(0)],
                },
            ),
            received(
                0,
                Frame::ReportBatch {
                    worker: 0,
                    tokens: vec![0, 9],
                },
            ),
        ];
        let rep = verify_session(&stream, None);
        assert!(matches!(
            rep.violations.first(),
            Some(SessionViolation::ReportWithoutGrant {
                worker: 0,
                token: 9
            })
        ));

        // A misrouted grant inside a batch is caught by the routing intents.
        let mut verifier = SessionVerifier::new();
        verifier.add_grant_intent(0, 0);
        verifier.add_grant_intent(1, 1);
        verifier.observe(&sent(
            0,
            Frame::GrantBatch {
                grants: vec![wire_grant(0), wire_grant(1)],
            },
        ));
        let rep = verifier.finish();
        assert!(matches!(
            rep.violations.first(),
            Some(SessionViolation::MisroutedGrant {
                token: 1,
                granted_to: 1,
                delivered_to: 0
            })
        ));

        // A GrantBatch after the epilogue began is still a violation, and a
        // ReportBatch claiming the wrong worker id is flagged.
        let stream = vec![
            sent(
                0,
                Frame::Iter {
                    iteration: 0,
                    schedule: vec![],
                },
            ),
            sent(
                0,
                Frame::GrantBatch {
                    grants: vec![wire_grant(5)],
                },
            ),
            received(
                0,
                Frame::ReportBatch {
                    worker: 3,
                    tokens: vec![5],
                },
            ),
        ];
        let rep = verify_session(&stream, None);
        assert!(rep.violations.iter().any(|v| matches!(
            v,
            SessionViolation::GrantAfterIter {
                worker: 0,
                token: 5
            }
        )));
        assert!(rep.violations.iter().any(|v| matches!(
            v,
            SessionViolation::WrongWorkerId {
                link: 0,
                claimed: 3
            }
        )));
    }

    #[test]
    fn epilogue_discipline_is_enforced() {
        let stream = vec![sent(0, Frame::End), sent(0, grant(7))];
        let rep = verify_session(&stream, None);
        assert!(matches!(
            rep.violations.first(),
            Some(SessionViolation::SendAfterEnd { worker: 0, .. })
        ));

        let stream = vec![received(0, Frame::Params { bytes: vec![] })];
        let rep = verify_session(&stream, None);
        assert!(matches!(
            rep.violations.first(),
            Some(SessionViolation::ParamsBeforeEnd { worker: 0 })
        ));

        let stream = vec![
            sent(0, Frame::End),
            received(0, Frame::Params { bytes: vec![] }),
            received(0, report(0, 3)),
        ];
        let rep = verify_session(&stream, None);
        assert!(matches!(
            rep.violations.first(),
            Some(SessionViolation::FrameAfterParams { worker: 0, .. })
        ));
    }

    #[test]
    fn inbox_conservation_catches_pump_reordering() {
        let stream = vec![
            received(0, Frame::Request { worker: 0 }),
            received(0, report(0, 9)),
            SyncEvent::InboxDequeued {
                worker: 0,
                frame: Some(report(0, 9)),
            },
        ];
        let rep = verify_session(&stream, None);
        assert!(
            rep.violations
                .iter()
                .any(|v| matches!(v, SessionViolation::InboxReorder { worker: 0, .. })),
            "{:?}",
            rep.violations
        );

        let stream = vec![SyncEvent::InboxDequeued {
            worker: 1,
            frame: None,
        }];
        let rep = verify_session(&stream, None);
        assert!(matches!(
            rep.violations.first(),
            Some(SessionViolation::InboxWithoutArrival { worker: 1, .. })
        ));
    }

    #[test]
    fn cost_frames_are_in_the_wrong_direction() {
        // No runtime speaks the cost round trip, so neither end may carry it.
        let query = Frame::CostQuery {
            worker: 0,
            token: 5,
            level: 0,
            unit_start: 0,
            unit_end: 1,
            batch: 4,
            iteration: 0,
        };
        let reply = Frame::CostReply {
            token: 5,
            secs_bits: 0,
        };
        let stream = vec![sent(0, query), received(1, reply)];
        let rep = verify_session(&stream, None);
        match &rep.violations[..] {
            [SessionViolation::WrongDirection {
                worker: 0,
                frame: q,
            }, SessionViolation::WrongDirection {
                worker: 1,
                frame: r,
            }] => assert!(
                q.starts_with("CostQuery") && r.starts_with("CostReply"),
                "{q} / {r}"
            ),
            other => panic!("expected two WrongDirection violations, got {other:?}"),
        }
    }

    #[test]
    fn wrong_direction_and_identity_are_flagged() {
        let stream = vec![
            sent(0, report(0, 1)),
            received(0, Frame::Request { worker: 3 }),
        ];
        let rep = verify_session(&stream, None);
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, SessionViolation::WrongDirection { worker: 0, .. })));
        assert!(rep.violations.iter().any(|v| matches!(
            v,
            SessionViolation::WrongWorkerId {
                link: 0,
                claimed: 3
            }
        )));
    }
}
