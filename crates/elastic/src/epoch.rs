//! Epoch planning: turning a [`ResizeModel`] into a segmented run.
//!
//! Resizes take effect only at BSP iteration boundaries — mid-iteration the
//! worker set is immutable, exactly as in the fixed-membership runtimes. An
//! elastic run is therefore a sequence of **epochs**: maximal iteration
//! ranges with a constant worker set, separated by the resize actions that
//! transform one set into the next.
//!
//! Workers carry **stable ids** across epochs. A worker that survives a
//! resize keeps its id (and its persistent speed factor); ranks are
//! re-compacted per epoch so every runtime still sees dense worker indices
//! `0..n`. Joiners receive fresh ids and nominal speed.

use fela_cluster::{ClusterSpec, ResizeAction, Scenario};
use fela_net::NetworkConfig;
use serde::Serialize;

use crate::ElasticError;

/// The worker membership of one epoch, with stable cross-epoch identities.
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct WorkerSet {
    /// Stable ids in rank order: `ids[rank]` is the global identity of the
    /// worker the epoch's runtime addresses as `rank`.
    pub ids: Vec<u64>,
    /// Per-rank persistent speed factors (parallel to `ids`).
    pub speed_factors: Vec<f64>,
    next_id: u64,
}

impl WorkerSet {
    /// The initial membership: ranks `0..n` with ids `0..n` and the
    /// scenario's speed factors.
    pub fn initial(speed_factors: &[f64]) -> Self {
        WorkerSet {
            ids: (0..speed_factors.len() as u64).collect(),
            speed_factors: speed_factors.to_vec(),
            next_id: speed_factors.len() as u64,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty (never true for a valid epoch plan).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Applies a resize action, producing the next epoch's membership.
    ///
    /// `Leave` ranks refer to the *current* epoch's ranks; survivors are
    /// compacted in rank order and keep their ids and speed factors. `Join`
    /// appends workers with fresh ids at nominal speed.
    ///
    /// # Errors
    /// Rejects leaves that name an out-of-range rank or would empty the
    /// cluster.
    pub fn apply(&self, action: &ResizeAction) -> Result<WorkerSet, ElasticError> {
        match action {
            ResizeAction::Join(k) => {
                let mut next = self.clone();
                for i in 0..*k as u64 {
                    next.ids.push(self.next_id + i);
                    next.speed_factors.push(1.0);
                }
                next.next_id += *k as u64;
                Ok(next)
            }
            ResizeAction::Leave(ranks) => {
                if let Some(&bad) = ranks.iter().find(|&&r| r >= self.len()) {
                    return Err(ElasticError::LeaveOutOfRange {
                        rank: bad,
                        n_workers: self.len(),
                    });
                }
                if ranks.len() >= self.len() {
                    return Err(ElasticError::WouldEmptyCluster {
                        leaving: ranks.len(),
                        n_workers: self.len(),
                    });
                }
                let mut next = WorkerSet {
                    ids: Vec::with_capacity(self.len() - ranks.len()),
                    speed_factors: Vec::with_capacity(self.len() - ranks.len()),
                    next_id: self.next_id,
                };
                for rank in 0..self.len() {
                    if !ranks.contains(&rank) {
                        next.ids.push(self.ids[rank]);
                        next.speed_factors.push(self.speed_factors[rank]);
                    }
                }
                Ok(next)
            }
        }
    }
}

/// One epoch of an elastic run: a constant-membership iteration range.
#[derive(Clone, Debug, Serialize)]
pub struct EpochSpec {
    /// Epoch index (0-based).
    pub index: usize,
    /// First global iteration of the epoch.
    pub start_iteration: u64,
    /// Number of iterations in the epoch (≥ 1).
    pub iterations: u64,
    /// Membership during the epoch.
    pub workers: WorkerSet,
    /// The resize action that created this epoch (`None` for epoch 0).
    pub resize_in: Option<ResizeAction>,
}

impl EpochSpec {
    /// Worker count during the epoch.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// Ranks of workers that joined at this epoch's boundary (fresh ids).
    pub fn joined_ranks(&self) -> Vec<usize> {
        match &self.resize_in {
            Some(ResizeAction::Join(k)) => (self.workers.len() - k..self.workers.len()).collect(),
            _ => Vec::new(),
        }
    }
}

/// Splits `scenario` into epochs by walking its [`ResizeModel`] across every
/// iteration boundary.
///
/// Resize-free scenarios yield exactly one epoch covering the whole run.
/// Scripted events beyond the final iteration never fire (there is no
/// boundary left to take them at).
///
/// # Errors
/// Propagates [`ResizeModel::validate`](fela_cluster::ResizeModel::validate)
/// failures and structurally invalid leaves (out-of-range rank, emptying the
/// cluster).
pub fn plan_epochs(scenario: &Scenario) -> Result<Vec<EpochSpec>, ElasticError> {
    scenario
        .resize
        .validate()
        .map_err(ElasticError::InvalidResizeModel)?;
    if scenario.iterations == 0 {
        return Err(ElasticError::EmptyRun);
    }
    let mut epochs = Vec::new();
    let mut current = WorkerSet::initial(&scenario.cluster.speed_factors);
    let mut pending_action: Option<ResizeAction> = None;
    let mut start = 0u64;
    for it in 1..scenario.iterations {
        if let Some(action) = scenario.resize.action_for(it, current.len()) {
            let next = current.apply(&action)?;
            epochs.push(EpochSpec {
                index: epochs.len(),
                start_iteration: start,
                iterations: it - start,
                workers: current,
                resize_in: pending_action.take(),
            });
            current = next;
            pending_action = Some(action);
            start = it;
        }
    }
    epochs.push(EpochSpec {
        index: epochs.len(),
        start_iteration: start,
        iterations: scenario.iterations - start,
        workers: current,
        resize_in: pending_action,
    });
    Ok(epochs)
}

/// Builds the resize-free sub-scenario one epoch executes: `spec`'s
/// iterations on its membership's cluster, at global batch `batch`.
pub(crate) fn epoch_scenario(base: &Scenario, spec: &EpochSpec, batch: u64) -> Scenario {
    let mut sc = base.clone().with_iterations(spec.iterations);
    sc.total_batch = batch;
    sc.cluster = cluster_for(&base.cluster, &spec.workers);
    sc.resize = fela_cluster::ResizeModel::None;
    sc
}

/// Builds the cluster hardware spec for one epoch: the base scenario's GPU
/// and network models, resized to the epoch's membership with the survivors'
/// speed factors.
pub fn cluster_for(base: &ClusterSpec, workers: &WorkerSet) -> ClusterSpec {
    let n = workers.len();
    ClusterSpec {
        nodes: n,
        compute: base.compute.clone(),
        memory: base.memory.clone(),
        network: NetworkConfig {
            nodes: n,
            ..base.network
        },
        speed_factors: workers.speed_factors.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_cluster::{ResizeEvent, ResizeModel};
    use fela_model::zoo;

    fn base(iterations: u64) -> Scenario {
        Scenario::paper(zoo::googlenet(), 256).with_iterations(iterations)
    }

    fn scripted(events: Vec<(u64, ResizeAction)>) -> ResizeModel {
        ResizeModel::Scripted(
            events
                .into_iter()
                .map(|(iteration, action)| ResizeEvent { iteration, action })
                .collect(),
        )
    }

    #[test]
    fn resize_free_scenario_is_one_epoch() {
        let epochs = plan_epochs(&base(10)).expect("plans");
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].start_iteration, 0);
        assert_eq!(epochs[0].iterations, 10);
        assert_eq!(epochs[0].n_workers(), 8);
        assert!(epochs[0].resize_in.is_none());
        assert_eq!(epochs[0].workers.ids, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn join_then_leave_segments_and_keeps_stable_ids() {
        let sc = base(10).with_resize(scripted(vec![
            (3, ResizeAction::Join(2)),
            (7, ResizeAction::Leave(vec![0, 4])),
        ]));
        let epochs = plan_epochs(&sc).expect("plans");
        assert_eq!(epochs.len(), 3);
        assert_eq!(
            epochs
                .iter()
                .map(|e| (e.start_iteration, e.iterations, e.n_workers()))
                .collect::<Vec<_>>(),
            vec![(0, 3, 8), (3, 4, 10), (7, 3, 8)]
        );
        // Joiners got fresh ids 8, 9.
        assert_eq!(epochs[1].workers.ids, (0..10).collect::<Vec<u64>>());
        assert_eq!(epochs[1].joined_ranks(), vec![8, 9]);
        // Leaving ranks 0 and 4 removes ids 0 and 4; survivors compact.
        assert_eq!(epochs[2].workers.ids, vec![1, 2, 3, 5, 6, 7, 8, 9]);
        assert_eq!(epochs[2].joined_ranks(), Vec::<usize>::new());
    }

    #[test]
    fn survivors_keep_speed_factors_joiners_get_nominal() {
        let mut sc = base(6).with_resize(scripted(vec![
            (2, ResizeAction::Join(1)),
            (4, ResizeAction::Leave(vec![1])),
        ]));
        sc.cluster.speed_factors = vec![1.0, 2.0, 1.5, 1.0, 1.0, 1.0, 1.0, 3.0];
        let epochs = plan_epochs(&sc).expect("plans");
        assert_eq!(epochs[1].workers.speed_factors.len(), 9);
        assert!((epochs[1].workers.speed_factors[8] - 1.0).abs() < 1e-12);
        // Rank 1 (factor 2.0) left; the slow worker at rank 7 (id 7) survives.
        let e2 = &epochs[2].workers;
        assert!(!e2.ids.contains(&1));
        let slow_rank = e2.ids.iter().position(|&id| id == 7).expect("id 7 stays");
        assert!((e2.speed_factors[slow_rank] - 3.0).abs() < 1e-12);
        let cluster = cluster_for(&sc.cluster, e2);
        cluster.validate();
        assert_eq!(cluster.nodes, 8);
        assert_eq!(cluster.network.nodes, 8);
    }

    #[test]
    fn event_at_final_boundary_never_fires() {
        // iteration == iterations has no boundary left; the run just ends.
        let sc = base(5).with_resize(scripted(vec![(5, ResizeAction::Join(1))]));
        let epochs = plan_epochs(&sc).expect("plans");
        assert_eq!(epochs.len(), 1);
    }

    #[test]
    fn leave_out_of_range_is_rejected() {
        let sc = base(5).with_resize(scripted(vec![(2, ResizeAction::Leave(vec![8]))]));
        assert!(matches!(
            plan_epochs(&sc),
            Err(ElasticError::LeaveOutOfRange { rank: 8, .. })
        ));
    }

    #[test]
    fn emptying_the_cluster_is_rejected() {
        let mut sc = base(5).with_resize(scripted(vec![(2, ResizeAction::Leave(vec![0, 1]))]));
        sc.cluster = ClusterSpec::k40c_cluster(2);
        assert!(matches!(
            plan_epochs(&sc),
            Err(ElasticError::WouldEmptyCluster {
                leaving: 2,
                n_workers: 2
            })
        ));
    }

    #[test]
    fn churn_walks_deterministically() {
        let sc = base(40).with_resize(ResizeModel::Churn {
            rate: 0.5,
            seed: 11,
        });
        let a = plan_epochs(&sc).expect("plans");
        let b = plan_epochs(&sc).expect("plans");
        assert!(a.len() > 1, "rate 0.5 over 40 iterations must resize");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.workers, y.workers);
            assert_eq!(x.start_iteration, y.start_iteration);
        }
        // Epoch boundaries tile the run exactly.
        let total: u64 = a.iter().map(|e| e.iterations).sum();
        assert_eq!(total, 40);
    }
}
