//! The wire face of the Token Server: maps a worker's frames onto the inputs
//! of the sans-IO [`ServerCore`] (from `fela-core`, the same core the
//! simulator drives), and a worker's share of the core's dispatch onto the
//! wire grants of one `GrantBatch` frame. The real-clock shell ([`crate::real`]) and
//! `fela-check`'s model checker both use it.
//!
//! What the adapter adds to the core is wire-only: each level's unit range,
//! stamped on every [`WireGrant`]. The frames that carry no grant (`Hang`,
//! the epilogue's `Iter`s and `End`) are the shell's.

use fela_core::{CoreError, Grant, Reported, ServerCore, TokenId};
use fela_sim::SimTime;

use crate::wire::{Frame, WireGrant};

/// A decoded frame from `worker` at `now`: a `Request` pulls; a
/// `ReportBatch` reports its tokens and pulls (the piggybacked request).
/// Returns what the reports did, as [`ServerCore::report`] does (empty for
/// a `Request`): the caller finishes each sync the core left uncommitted.
pub fn on_frame(
    core: &mut ServerCore,
    worker: usize,
    frame: Frame,
    now: SimTime,
) -> Result<Reported, CoreError> {
    let reported = match frame {
        Frame::Request { worker: w } => {
            debug_assert_eq!(w as usize, worker);
            Reported::default()
        }
        Frame::ReportBatch { worker: w, tokens } => {
            debug_assert_eq!(w as usize, worker);
            core.report(worker, tokens.into_iter().map(TokenId))?
        }
        frame => {
            let frame = format!("{frame:?}");
            return Err(CoreError::UnexpectedFrame { worker, frame });
        }
    };
    core.pull(worker, now)?;
    Ok(reported)
}

/// Commits every sync `reported` left to the caller, at once: a live run
/// moves no parameters, so a sync finishes the moment its level's last
/// report lands.
pub fn finish_syncs(core: &mut ServerCore, reported: &Reported) -> Result<(), CoreError> {
    for spec in reported.syncs.iter().filter(|s| !s.is_degenerate()) {
        core.sync_finished(spec.level, spec.iteration)?;
    }
    Ok(())
}

/// One worker's grants (a [`fela_core::Outbound`]'s) as the wire grants of
/// its `GrantBatch`, where level `l` spans `units[l]`. `leases` receives
/// `(token, attempt)` of every grant, in batch order: the leases to arm once
/// the batch has left.
pub fn wire_grants(
    units: &[(u32, u32)],
    grants: impl Iterator<Item = Grant>,
    leases: &mut Vec<(TokenId, u64)>,
) -> Vec<WireGrant> {
    leases.clear();
    grants
        .map(|g| {
            leases.push((g.token.id, g.attempt));
            let (unit_start, unit_end) = units[g.token.level];
            WireGrant {
                token: g.token.id.0,
                level: g.token.level as u32,
                iteration: g.token.iteration,
                batch: g.token.batch,
                unit_start,
                unit_end,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_core::{ControlPlane, FelaConfig, LevelMeta, LevelPlan, TokenPlan};

    fn core() -> ServerCore {
        let level = |level, tokens_per_iteration, batch_per_token, gen_ratio| LevelPlan {
            level,
            tokens_per_iteration,
            batch_per_token,
            gen_ratio,
        };
        let plan = TokenPlan {
            levels: vec![level(0, 2, 4, 1), level(1, 1, 8, 2)],
            total_batch: 8,
        };
        let meta = LevelMeta {
            param_bytes: 4096,
            output_bytes_per_sample: 64,
            input_bytes_per_sample: 64,
            comm_intensive: false,
        };
        let config = FelaConfig::new(2).with_weights(vec![1, 2]);
        ServerCore::new(ControlPlane::new(plan, config, vec![meta; 2], 2, 2), 2)
    }

    #[test]
    fn a_worker_frame_the_server_never_expects_is_a_typed_error() {
        let err =
            on_frame(&mut core(), 1, Frame::End, SimTime::ZERO).expect_err("End is a server frame");
        assert!(
            matches!(err, CoreError::UnexpectedFrame { worker: 1, .. }),
            "{err}"
        );
        assert_eq!(
            err.to_string(),
            "server: unexpected frame from worker 1: End"
        );
    }

    #[test]
    fn a_report_returns_its_syncs_uncommitted_until_the_caller_finishes_them() {
        let mut core = core();
        let mut frame = Frame::Request { worker: 0 };
        let reported = loop {
            let reported = on_frame(&mut core, 0, frame, SimTime::ZERO).expect("a frame");
            if reported.syncs.iter().any(|s| !s.is_degenerate()) {
                break reported;
            }
            let mut tokens = Vec::new();
            core.dispatch(SimTime::ZERO, |out| {
                tokens.extend(out.grants.map(|g| g.token.id.0));
            })
            .expect("dispatch");
            assert!(!tokens.is_empty(), "worker 0 starved before any sync");
            frame = Frame::ReportBatch { worker: 0, tokens };
        };
        let synced = |core: &ServerCore| core.plane().snapshot().synced_upto;
        let before = synced(&core);
        finish_syncs(&mut core, &reported).expect("the syncs commit");
        for spec in reported.syncs.iter().filter(|s| !s.is_degenerate()) {
            assert_eq!(
                before[spec.level], spec.iteration,
                "{spec:?} committed early"
            );
            assert!(
                synced(&core)[spec.level] > spec.iteration,
                "{spec:?} never committed"
            );
        }
    }

    #[test]
    fn a_grant_batch_carries_each_level_s_unit_range_and_its_leases() {
        let mut core = core();
        on_frame(&mut core, 0, Frame::Request { worker: 0 }, SimTime::ZERO).expect("a pull");
        let (mut leases, mut grants) = (Vec::new(), Vec::new());
        core.dispatch(SimTime::ZERO, |out| {
            grants.extend(wire_grants(&[(0, 1), (1, 2)], out.grants, &mut leases));
        })
        .expect("dispatch");
        assert_eq!(grants.len(), 2, "pipeline depth 2");
        assert_eq!(grants.len(), leases.len());
        for (g, &(token, attempt)) in grants.iter().zip(&leases) {
            assert_eq!((g.token, attempt), (token.0, 0));
            assert_eq!((g.unit_start, g.unit_end), (g.level, g.level + 1));
        }
    }
}
