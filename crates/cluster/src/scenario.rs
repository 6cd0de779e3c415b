//! Experiment scenarios.
//!
//! A [`Scenario`] bundles everything an experiment run needs — model, total batch,
//! iteration count, cluster hardware and straggler injection — so that Fela and the
//! three baselines can be compared on byte-identical inputs. The interface each of
//! them implements lives in [`crate::runtime`].

use fela_gpu::{ComputeModel, MemoryModel};
use fela_model::Model;
use fela_net::NetworkConfig;
use fela_sim::SimDuration;

use crate::fault::{FaultKind, FaultModel};
use crate::resize::ResizeModel;
use crate::straggler::StragglerModel;

/// Static description of the cluster hardware.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Number of worker nodes (one GPU each).
    pub nodes: usize,
    /// GPU compute-time model (identical across nodes; heterogeneity is expressed
    /// through `speed_factors`).
    pub compute: ComputeModel,
    /// GPU memory model.
    pub memory: MemoryModel,
    /// NIC/switch configuration.
    pub network: NetworkConfig,
    /// Per-node compute-time multipliers (1.0 = nominal). Length must equal
    /// `nodes`; values > 1 model persistently slow machines, independent of the
    /// transient stragglers injected by a [`StragglerModel`].
    pub speed_factors: Vec<f64>,
}

impl ClusterSpec {
    /// The paper's testbed: 8 homogeneous K40c nodes, 10 Gbps links (§V-A).
    pub fn paper_testbed() -> Self {
        Self::k40c_cluster(8)
    }

    /// A K40c cluster of arbitrary size with the paper's network profile.
    pub fn k40c_cluster(nodes: usize) -> Self {
        ClusterSpec {
            nodes,
            compute: ComputeModel::k40c(),
            memory: MemoryModel::k40c(),
            network: NetworkConfig::paper_testbed(nodes),
            speed_factors: vec![1.0; nodes],
        }
    }

    /// Compute time for the unit range `[start, end)` at `batch` on `worker`,
    /// including its persistent speed factor.
    pub fn compute_secs(
        &self,
        model: &Model,
        start: usize,
        end: usize,
        batch: u64,
        worker: usize,
    ) -> f64 {
        self.compute.range_time(model, start, end, batch) * self.speed_factors[worker]
    }

    /// Like [`ClusterSpec::compute_secs`] but honouring the GPU memory limit via
    /// gradient-accumulation micro-batching (see
    /// [`ComputeModel::chunked_range_time`]).
    pub fn chunked_compute_secs(
        &self,
        model: &Model,
        start: usize,
        end: usize,
        batch: u64,
        worker: usize,
    ) -> f64 {
        self.compute
            .chunked_range_time(&self.memory, model, start, end, batch)
            * self.speed_factors[worker]
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics if the spec is inconsistent (mismatched lengths, zero nodes,
    /// non-positive speed factors).
    pub fn validate(&self) {
        assert!(self.nodes > 0, "cluster needs at least one node");
        assert_eq!(
            self.speed_factors.len(),
            self.nodes,
            "speed_factors length must equal node count"
        );
        assert!(
            self.speed_factors.iter().all(|&f| f > 0.0),
            "speed factors must be positive"
        );
        assert_eq!(
            self.network.nodes, self.nodes,
            "network node count must match cluster"
        );
    }
}

/// One experiment run request.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The model to train.
    pub model: Model,
    /// Total batch size per iteration (split across tokens / workers by the
    /// runtime).
    pub total_batch: u64,
    /// Number of BSP iterations (the paper uses 100).
    pub iterations: u64,
    /// Cluster hardware.
    pub cluster: ClusterSpec,
    /// Straggler injection.
    pub straggler: StragglerModel,
    /// Fault injection (crashes, hangs, link outages).
    pub fault: FaultModel,
    /// Planned cluster resizes (joins/leaves at iteration boundaries),
    /// consumed by the elastic controller. [`ResizeModel::None`] keeps the
    /// classic fixed-membership behaviour.
    pub resize: ResizeModel,
}

impl Scenario {
    /// A paper-style scenario: 8-node K40c testbed, 100 iterations, no
    /// stragglers, no faults.
    pub fn paper(model: Model, total_batch: u64) -> Self {
        Scenario {
            model,
            total_batch,
            iterations: 100,
            cluster: ClusterSpec::paper_testbed(),
            straggler: StragglerModel::None,
            fault: FaultModel::None,
            resize: ResizeModel::None,
        }
    }

    /// Replaces the straggler model (builder style).
    pub fn with_straggler(mut self, straggler: StragglerModel) -> Self {
        self.straggler = straggler;
        self
    }

    /// Replaces the fault model (builder style).
    pub fn with_fault(mut self, fault: FaultModel) -> Self {
        self.fault = fault;
        self
    }

    /// Replaces the resize model (builder style).
    pub fn with_resize(mut self, resize: ResizeModel) -> Self {
        self.resize = resize;
        self
    }

    /// Replaces the iteration count (builder style).
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// The straggler sleep injected into `worker` in `iteration`.
    pub fn straggler_delay(&self, iteration: u64, worker: usize) -> SimDuration {
        self.straggler
            .delay_for(iteration, worker, self.cluster.nodes)
    }

    /// The fault (if any) striking `worker` in `iteration`.
    pub fn fault_for(&self, iteration: u64, worker: usize) -> Option<FaultKind> {
        self.fault.fault_for(iteration, worker, self.cluster.nodes)
    }

    /// How long a worker replaced after a permanent crash takes to come back,
    /// as seen by runtimes without token recovery (an operator swapping the
    /// machine and restoring from checkpoint).
    const CRASH_REPLACEMENT: SimDuration = SimDuration::from_secs(3600);

    /// Total downtime a fault-stalled runtime must absorb when `worker` faults
    /// in `iteration`.
    ///
    /// Runtimes without token recovery (DP/MP/HP) cannot re-assign a victim's
    /// work: a crash-restart, hang or link outage stalls the iteration until
    /// the victim is back, modelled as extra compute delay the same way
    /// straggler sleeps are. A *permanent* crash would wedge them forever; we
    /// charge `Scenario::CRASH_REPLACEMENT` instead — the operator replaces
    /// the dead machine — so the comparison against Fela's online recovery
    /// stays finite.
    pub fn fault_stall(&self, iteration: u64, worker: usize) -> SimDuration {
        match self.fault_for(iteration, worker) {
            None => SimDuration::ZERO,
            Some(FaultKind::Crash) => Self::CRASH_REPLACEMENT,
            Some(FaultKind::CrashRestart { down }) => down,
            Some(FaultKind::Hang { stall }) => stall,
            Some(FaultKind::LinkDown { down }) => down,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_model::zoo;

    #[test]
    fn paper_testbed_shape() {
        let c = ClusterSpec::paper_testbed();
        c.validate();
        assert_eq!(c.nodes, 8);
        assert_eq!(c.network.nodes, 8);
        assert!((c.network.link_bandwidth - 0.875e9).abs() < 1.0);
    }

    #[test]
    fn compute_secs_applies_speed_factor() {
        let mut c = ClusterSpec::k40c_cluster(2);
        c.speed_factors = vec![1.0, 2.0];
        let m = zoo::googlenet();
        let fast = c.compute_secs(&m, 0, m.len(), 64, 0);
        let slow = c.compute_secs(&m, 0, m.len(), 64, 1);
        assert!((slow / fast - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length must equal node count")]
    fn validate_catches_bad_speed_factors() {
        let mut c = ClusterSpec::k40c_cluster(4);
        c.speed_factors = vec![1.0];
        c.validate();
    }

    #[test]
    fn scenario_builders() {
        let s = Scenario::paper(zoo::googlenet(), 256)
            .with_iterations(10)
            .with_straggler(StragglerModel::RoundRobin {
                delay: SimDuration::from_secs(3),
            });
        assert_eq!(s.iterations, 10);
        assert_eq!(s.straggler_delay(3, 3), SimDuration::from_secs(3));
        assert!(s.straggler_delay(3, 4).is_zero());
    }
}
