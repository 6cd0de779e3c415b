//! Deterministic transition-cost models for resize boundaries.
//!
//! Everything here is **simulated seconds** — a pure function of the plan —
//! never wall-clock, so elastic runs stay byte-reproducible for any `--jobs`
//! value (the workspace-wide clippy ban on host-time reads applies to this
//! crate too).
//!
//! Two models are charged at each boundary:
//!
//! * **Fela** pauses at the iteration boundary, re-bins and re-tunes
//!   incrementally, rebalances the control plane and syncs parameters to
//!   joiners. Its cost is the incremental search time actually spent
//!   ([`crate::RetuneStats::search_secs`]) plus a small control-plane
//!   rebind constant plus the joiners' parameter fetch.
//! * **Stop-and-restart** systems (DP/HP without elasticity support)
//!   checkpoint, tear the job down, relaunch at the new scale and restore —
//!   a fixed relaunch cost plus a full checkpoint save *and* restore on the
//!   lock-step critical path.

use crate::tune::RetuneStats;

/// Control-plane rebind at a Fela resize boundary: re-binning (cached
/// partition application), shard rebalancing and lease migration. A small
/// constant — the paper's thesis is that this path is cheap.
const REBIND_SECS: f64 = 2.0;

/// Fixed cost of tearing down and relaunching a non-elastic job: scheduler
/// round-trip, process start, framework re-initialisation.
pub const STOP_RESTART_SECS: f64 = 60.0;

/// Simulated seconds Fela spends at one resize boundary.
///
/// `joiners` is the number of workers joining at the boundary (0 for a pure
/// leave); each must fetch the full parameter set through the server's NIC,
/// so the fetch serialises at `joiners × param_bytes / bandwidth`.
pub fn fela_transition_secs(
    retune: &RetuneStats,
    joiners: usize,
    param_bytes: u64,
    link_bandwidth: f64,
) -> f64 {
    REBIND_SECS + retune.search_secs + joiners as f64 * param_bytes as f64 / link_bandwidth
}

/// Simulated seconds a stop-and-restart system spends at one resize
/// boundary: relaunch plus checkpoint save and restore of the full
/// parameter set (both transfers sit on the lock-step critical path).
pub fn stop_restart_transition_secs(param_bytes: u64, link_bandwidth: f64) -> f64 {
    STOP_RESTART_SECS + 2.0 * param_bytes as f64 / link_bandwidth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fela_pure_leave_costs_only_rebind_and_search() {
        let retune = RetuneStats {
            profiled: 3,
            reused: 10,
            search_secs: 1.5,
        };
        let secs = fela_transition_secs(&retune, 0, 1 << 30, 1.0e9);
        assert!((secs - (REBIND_SECS + 1.5)).abs() < 1e-12);
    }

    #[test]
    fn fela_join_adds_param_sync_per_joiner() {
        let retune = RetuneStats::default();
        let one = fela_transition_secs(&retune, 1, 1_000_000_000, 1.0e9);
        let two = fela_transition_secs(&retune, 2, 1_000_000_000, 1.0e9);
        assert!((one - (REBIND_SECS + 1.0)).abs() < 1e-12);
        assert!((two - one - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stop_restart_dwarfs_fela_for_cached_retunes() {
        let retune = RetuneStats {
            search_secs: 0.0,
            ..RetuneStats::default()
        };
        let fela = fela_transition_secs(&retune, 1, 500_000_000, 0.875e9);
        let restart = stop_restart_transition_secs(500_000_000, 0.875e9);
        assert!(restart > 10.0 * fela / 3.0, "restart must cost far more");
    }
}
