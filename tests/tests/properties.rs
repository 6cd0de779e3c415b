//! Property-based tests on the workspace's core invariants (proptest).

use fela_cluster::{FaultModel, StragglerModel};
use fela_core::{FelaConfig, TokenPlan};
use fela_engine::{seeded_schedule, EngineNet, SplitPlan, Tensor, TokenExecutor};
use fela_metrics::stats;
use fela_model::{bin_partition, zoo, PartitionOptions, ThresholdProfile};
use fela_net::fairshare::{max_min_rates, FlowLinks, IncrementalMaxMin};
use fela_net::{FlowId, FlowSpec, Network, NetworkConfig, NodeId};
use fela_sim::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The exact bits of a network's delivered-bytes accumulator.
fn delivered_bits(net: &Network) -> u64 {
    net.bytes_delivered_exact().to_bits()
}

fn pow2_weight() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(2), Just(4), Just(8)]
}

proptest! {
    /// Token plans conserve the batch at every level and their generation ratios
    /// compose exactly.
    #[test]
    fn token_plan_conserves_batch(
        batch_exp in 6u32..12, // 64..=2048
        w2 in pow2_weight(),
        w3 in pow2_weight(),
    ) {
        let total = 1u64 << batch_exp;
        let (w2, w3) = (w2.min(w3), w2.max(w3));
        let p = bin_partition(
            &zoo::vgg19(),
            &ThresholdProfile::k40c(),
            PartitionOptions::default(),
        );
        let cfg = FelaConfig::new(3).with_weights(vec![1, w2, w3]);
        if let Ok(plan) = TokenPlan::build(&p, &cfg, total, 8) {
            for l in &plan.levels {
                prop_assert_eq!(l.batch_per_token * l.tokens_per_iteration, total);
                prop_assert!(l.batch_per_token >= 1);
            }
            let ratio_product: u64 = plan.levels.iter().map(|l| l.gen_ratio).product();
            prop_assert_eq!(
                plan.levels[0].tokens_per_iteration,
                plan.levels.last().unwrap().tokens_per_iteration * ratio_product
            );
            // Tokens per level never increase with depth (w nondecreasing).
            let counts: Vec<u64> =
                plan.levels.iter().map(|l| l.tokens_per_iteration).collect();
            prop_assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    /// Max–min fairness never oversubscribes a link and never starves a flow.
    #[test]
    fn fairshare_feasible_and_positive(
        flows in prop::collection::vec((0usize..6, 0usize..6), 1..24),
    ) {
        let caps = vec![1e9f64; 6];
        let links: Vec<FlowLinks> = flows
            .iter()
            .map(|&(src, dst)| FlowLinks { egress: src, ingress: dst })
            .collect();
        let rates = max_min_rates(&caps, &caps, &links);
        prop_assert_eq!(rates.len(), links.len());
        let mut eg = [0.0f64; 6];
        let mut ing = [0.0f64; 6];
        for (f, r) in links.iter().zip(&rates) {
            prop_assert!(*r > 0.0, "no flow may starve");
            eg[f.egress] += r;
            ing[f.ingress] += r;
        }
        for l in 0..6 {
            prop_assert!(eg[l] <= 1e9 * 1.0001, "egress {} oversubscribed", l);
            prop_assert!(ing[l] <= 1e9 * 1.0001, "ingress {} oversubscribed", l);
        }
    }

    /// Max–min rates are scale-invariant: doubling every capacity doubles every
    /// rate.
    #[test]
    fn fairshare_scales_linearly(
        flows in prop::collection::vec((0usize..4, 0usize..4), 1..12),
    ) {
        let links: Vec<FlowLinks> = flows
            .iter()
            .map(|&(s, d)| FlowLinks { egress: s, ingress: d })
            .collect();
        let r1 = max_min_rates(&[1e9; 4], &[1e9; 4], &links);
        let r2 = max_min_rates(&[2e9; 4], &[2e9; 4], &links);
        for (a, b) in r1.iter().zip(&r2) {
            prop_assert!((b / a - 2.0).abs() < 1e-9);
        }
    }

    /// Bin partitioning covers every unit exactly once for any target count and
    /// preserves total parameters, for every buildable zoo model.
    #[test]
    fn partition_always_tiles(target in 1usize..8, model_idx in 0usize..5) {
        let model = match model_idx {
            0 => zoo::vgg19(),
            1 => zoo::vgg16(),
            2 => zoo::googlenet(),
            3 => zoo::alexnet(),
            _ => zoo::resnet152(),
        };
        let p = bin_partition(
            &model,
            &ThresholdProfile::k40c(),
            PartitionOptions { bin_width: 16, target_max: Some(target) },
        );
        prop_assert!(p.len() <= target.max(1));
        let mut next = 0usize;
        for s in p.sub_models() {
            prop_assert_eq!(s.unit_start, next);
            prop_assert!(s.unit_end > s.unit_start);
            next = s.unit_end;
        }
        prop_assert_eq!(next, model.len());
        prop_assert_eq!(p.total_param_bytes(), model.param_bytes());
    }

    /// The engine's reproducibility theorem, property-tested: any two valid
    /// schedules of any seeded MLP/token split train to bit-identical models,
    /// for a 2-level split and a 3-level one whose dependency ratios are each
    /// 1 or 2.
    #[test]
    fn token_schedules_always_bit_identical(
        net_seed in 0u64..1000,
        sched_a in 0u64..1000,
        sched_b in 0u64..1000,
        tokens0_exp in 0u32..3, // 1, 2, or 4 root tokens
        ratios in (1usize..3, 1usize..3), // the 3-level split's level 1 and 2 ratios
    ) {
        let tokens0 = 1usize << tokens0_exp;
        let (r1, r2) = ratios;
        let splits = [
            (vec![6, 10, 4], vec![(0, 2), (2, 3)], vec![tokens0, 1]),
            (
                vec![6, 10, 10, 4],
                vec![(0, 2), (2, 4), (4, 5)],
                vec![tokens0 * r1 * r2, tokens0 * r2, tokens0],
            ),
        ];
        for (dims, levels, tokens) in splits {
            let net0 = EngineNet::mlp(&dims, net_seed);
            let batch = tokens[0] * 2;
            let plan = SplitPlan { levels, tokens };
            let x = Tensor::seeded(&[batch, 6], net_seed ^ 0xAB, 1.0);
            let t = Tensor::seeded(&[batch, 4], net_seed ^ 0xCD, 1.0);
            let mut exec = TokenExecutor::new(plan.clone(), 0.05);
            let mut a = net0.clone();
            let mut b = net0;
            exec.step(&mut a, &x, &t, &seeded_schedule(&plan, sched_a));
            exec.step(&mut b, &x, &t, &seeded_schedule(&plan, sched_b));
            prop_assert_eq!(a, b);
        }
    }

    /// Normalisation maps any series into [0, 1] with the extremes attained.
    #[test]
    fn normalize_unit_bounds(xs in prop::collection::vec(0.0f64..1e6, 2..40)) {
        let n = stats::normalize_unit(&xs);
        prop_assert_eq!(n.len(), xs.len());
        for v in &n {
            prop_assert!((0.0..=1.0).contains(v));
        }
        let spread = stats::max(&xs).unwrap() - stats::min(&xs).unwrap();
        if spread > 0.0 {
            prop_assert!(n.contains(&0.0));
            prop_assert!(n.contains(&1.0));
        }
    }

    /// Saturation curves are monotone and bounded for arbitrary thresholds.
    #[test]
    fn saturation_curve_monotone(threshold in 1u64..10_000, b1 in 1u64..100_000, b2 in 1u64..100_000) {
        let (lo, hi) = (b1.min(b2), b1.max(b2));
        let f_lo = fela_model::saturation_fraction(lo, threshold);
        let f_hi = fela_model::saturation_fraction(hi, threshold);
        prop_assert!(f_lo <= f_hi + 1e-12);
        prop_assert!((0.0..=1.0).contains(&f_lo));
        prop_assert!((0.0..=1.0).contains(&f_hi));
    }

    /// The incremental fair-share engine stays *bit-identical* to the stateless
    /// oracle over arbitrary star-topology flow churn: random interleavings of
    /// single inserts, batched inserts of 1–8 flows (a ring round), single
    /// removals and batched removals of 1–8 flows (a completion wave) over 12
    /// nodes, so batches span several components. Checked after every
    /// operation against `max_min_rates` over the surviving flow set in
    /// ascending-key order (the engine's canonical order).
    #[test]
    fn incremental_fairshare_is_bit_identical_to_oracle(
        ops in prop::collection::vec(
            (0usize..5, prop::collection::vec((0usize..12, 0usize..12), 1..9), 0usize..64),
            1..60,
        ),
    ) {
        let caps = vec![1e9f64; 12];
        let mut engine = IncrementalMaxMin::new(caps.clone(), caps.clone());
        let mut mirror: BTreeMap<u64, FlowLinks> = BTreeMap::new();
        let mut next_key = 0u64;
        for (kind, ends, sel) in ops {
            let alive: Vec<u64> = mirror.keys().copied().collect();
            match kind {
                // Removal of one flow (when any exist).
                1 if !alive.is_empty() => {
                    let key = alive[sel % alive.len()];
                    engine.remove(key);
                    mirror.remove(&key);
                }
                // Batched removal of up to eight flows — a completion wave.
                2 if !alive.is_empty() => {
                    let start = sel % alive.len();
                    let mut batch: Vec<u64> = alive
                        .iter()
                        .copied()
                        .cycle()
                        .skip(start)
                        .step_by(sel % 3 + 1)
                        .take(ends.len().min(alive.len()))
                        .collect();
                    batch.sort_unstable();
                    batch.dedup();
                    engine.remove_batch(&batch);
                    for k in &batch {
                        mirror.remove(k);
                    }
                }
                // Batched insert of every drawn flow — a ring round's start.
                3 => {
                    let batch: Vec<(u64, FlowLinks)> = ends
                        .iter()
                        .map(|&(egress, ingress)| {
                            next_key += 1;
                            (next_key - 1, FlowLinks { egress, ingress })
                        })
                        .collect();
                    engine.insert_batch(&batch);
                    mirror.extend(batch);
                }
                // Insert (also the fallback for removal ops on an empty set).
                _ => {
                    let (egress, ingress) = ends[0];
                    let links = FlowLinks { egress, ingress };
                    engine.insert(next_key, links);
                    mirror.insert(next_key, links);
                    next_key += 1;
                }
            }
            prop_assert_eq!(engine.len(), mirror.len());
            let flows: Vec<FlowLinks> = mirror.values().copied().collect();
            let expect = max_min_rates(&caps, &caps, &flows);
            let got: Vec<(u64, f64)> = engine.rates().collect();
            prop_assert_eq!(got.len(), expect.len());
            for ((key, rate), (mirror_key, oracle)) in got.iter().zip(mirror.keys().zip(&expect)) {
                prop_assert_eq!(key, mirror_key);
                prop_assert_eq!(
                    rate.to_bits(),
                    oracle.to_bits(),
                    "flow {} diverged: incremental {} vs oracle {}",
                    key,
                    rate,
                    oracle
                );
            }
        }
    }

    /// Starting a same-instant group with one `start_flows` call is
    /// bit-identical to starting its flows one `start_flow` at a time. Two
    /// networks follow one random schedule of start groups (some at the
    /// instant of the previous event, with same-node and zero-byte flows),
    /// completion waves and `abort_matching` calls; at every step they agree
    /// on flow ids, the next completion instant, every completion and abort
    /// (ids, specs, order) and the bytes delivered.
    #[test]
    fn batched_network_is_bit_identical_to_per_flow(
        ops in prop::collection::vec(
            (
                0usize..5,
                0u64..2_000_000,
                prop::collection::vec(
                    (0usize..8, 0usize..8, prop_oneof![Just(0u64), 1u64..20_000_000]),
                    1..9,
                ),
                0u64..3,
            ),
            1..40,
        ),
    ) {
        let config = NetworkConfig {
            nodes: 8,
            link_bandwidth: 1e9,
            latency: SimDuration::from_micros(20),
        };
        let mut batched = Network::new(config);
        let mut per_flow = Network::new(config);
        let mut now = SimTime::ZERO;
        let mut next_tag = 0u64;
        type Done = Vec<(FlowId, NodeId, NodeId, u64, u64)>;
        let flat = |done: Vec<(FlowId, FlowSpec)>| -> Done {
            done.into_iter().map(|(id, s)| (id, s.src, s.dst, s.bytes, s.tag)).collect()
        };
        for (kind, dt_ns, group, sel) in ops {
            match kind {
                // A completion wave at the next completion instant.
                2 => {
                    if let Some(t) = batched.next_completion() {
                        now = now.max(t);
                        prop_assert_eq!(
                            flat(batched.take_completions(now)),
                            flat(per_flow.take_completions(now))
                        );
                    }
                }
                // Abort every flow with a tag in one residue class.
                3 => {
                    prop_assert_eq!(
                        flat(batched.abort_matching(now, |s| s.tag % 3 == sel)),
                        flat(per_flow.abort_matching(now, |s| s.tag % 3 == sel))
                    );
                }
                // A start group, after `dt_ns` for kind 1 and at the instant of
                // the previous event otherwise.
                _ => {
                    if kind == 1 {
                        now += SimDuration::from_nanos(dt_ns);
                    }
                    let specs: Vec<FlowSpec> = group
                        .iter()
                        .map(|&(src, dst, bytes)| {
                            next_tag += 1;
                            FlowSpec { src: NodeId(src), dst: NodeId(dst), bytes, tag: next_tag }
                        })
                        .collect();
                    let ids = batched.start_flows(now, &specs);
                    let one_by_one: Vec<FlowId> =
                        specs.iter().map(|&s| per_flow.start_flow(now, s)).collect();
                    prop_assert_eq!(ids, one_by_one);
                }
            }
            prop_assert_eq!(batched.next_completion(), per_flow.next_completion());
            prop_assert_eq!(batched.active_flows(), per_flow.active_flows());
            prop_assert_eq!(delivered_bits(&batched), delivered_bits(&per_flow));
        }
        // Drain both, wave by wave.
        while let Some(t) = batched.next_completion() {
            prop_assert_eq!(per_flow.next_completion(), Some(t));
            now = now.max(t);
            prop_assert_eq!(
                flat(batched.take_completions(now)),
                flat(per_flow.take_completions(now))
            );
            prop_assert_eq!(delivered_bits(&batched), delivered_bits(&per_flow));
        }
        prop_assert!(per_flow.next_completion().is_none());
    }

    /// A ring round started with one `start_flows` call is held as one flow
    /// group, and stays bit-identical to starting its flows one `start_flow`
    /// at a time. Random rings of 2–8 of 12 nodes run round after round
    /// (the next round starts when the last flow of the current one
    /// completes), interleaved with cross traffic that lands on ring NICs
    /// mid-round, `fail_node`, `abort_matching` by tag and completion waves.
    /// At every step the two networks agree on ids, the next completion
    /// instant, every completion and abort (ids, specs, order), the active
    /// flow count and the exact bits of the bytes delivered.
    #[test]
    fn grouped_rings_are_bit_identical_to_per_flow(
        ops in prop::collection::vec(
            (
                0usize..6,
                0u64..2_000_000,
                prop::collection::vec(0usize..12, 1..9),
                prop_oneof![Just(0u64), 1u64..20_000_000],
            ),
            1..60,
        ),
        // Two NIC rates. Under the paper testbed's, a flow that completes
        // still holds a residual; under a full-mantissa rate, drains are not
        // short binary fractions. Between them, adding a group's drain or
        // residual in any other order than once per member changes the bits.
        link_bandwidth in prop_oneof![Just(0.875e9), Just(1e9 / 3.0)],
    ) {
        let config = NetworkConfig {
            nodes: 12,
            link_bandwidth,
            latency: SimDuration::from_micros(20),
        };
        let mut grouped = Network::new(config);
        let mut per_flow = Network::new(config);
        let mut now = SimTime::ZERO;
        let mut next_tag = 0u64;
        // Active rings: (participants, chunk bytes, rounds left, tag, flows
        // of the current round still in flight).
        let mut rings: Vec<(Vec<usize>, u64, usize, u64, usize)> = Vec::new();
        type Done = Vec<(FlowId, NodeId, NodeId, u64, u64)>;
        let flat = |done: Vec<(FlowId, FlowSpec)>| -> Done {
            done.into_iter().map(|(id, s)| (id, s.src, s.dst, s.bytes, s.tag)).collect()
        };
        // Starts `specs` as one batch on the grouped network and one flow at
        // a time on the reference; both must assign the same ids.
        let start = |grouped: &mut Network, per_flow: &mut Network, now, specs: &[FlowSpec]| {
            let ids = grouped.start_flows(now, specs);
            let one_by_one: Vec<FlowId> =
                specs.iter().map(|&s| per_flow.start_flow(now, s)).collect();
            (ids, one_by_one)
        };
        let round = |nodes: &[usize], chunk: u64, tag: u64| -> Vec<FlowSpec> {
            (0..nodes.len())
                .map(|i| FlowSpec {
                    src: NodeId(nodes[i]),
                    dst: NodeId(nodes[(i + 1) % nodes.len()]),
                    bytes: chunk,
                    tag,
                })
                .collect()
        };
        // Drops the rings an abort touched: the aborted flows are gone, so the
        // ring's remaining flows are aborted by its tag too.
        let drop_aborted = |grouped: &mut Network,
                            per_flow: &mut Network,
                            rings: &mut Vec<(Vec<usize>, u64, usize, u64, usize)>,
                            now,
                            aborted: &Done| {
            for ring in std::mem::take(rings) {
                if aborted.iter().any(|&(.., tag)| tag == ring.3) {
                    prop_assert_eq!(
                        flat(grouped.abort_matching(now, |s| s.tag == ring.3)),
                        flat(per_flow.abort_matching(now, |s| s.tag == ring.3))
                    );
                } else {
                    rings.push(ring);
                }
            }
        };
        for (kind, dt_ns, picks, bytes) in ops {
            match kind {
                // A new ring over the distinct picked nodes, if at least two.
                0 => {
                    let mut nodes = picks.clone();
                    nodes.sort_unstable();
                    nodes.dedup();
                    // Ring order follows the draw, not the node ids.
                    nodes.sort_by_key(|n| picks.iter().position(|p| p == n));
                    if nodes.len() >= 2 {
                        next_tag += 1;
                        let k = nodes.len();
                        let (ids, one_by_one) =
                            start(&mut grouped, &mut per_flow, now, &round(&nodes, bytes, next_tag));
                        prop_assert_eq!(ids, one_by_one);
                        rings.push((nodes, bytes, 2 * (k - 1) - 1, next_tag, k));
                    }
                }
                // Cross traffic after `dt_ns`: one flow per picked pair.
                1 => {
                    now += SimDuration::from_nanos(dt_ns);
                    let specs: Vec<FlowSpec> = picks
                        .chunks(2)
                        .map(|pair| {
                            next_tag += 1;
                            FlowSpec {
                                src: NodeId(pair[0]),
                                dst: NodeId(*pair.last().unwrap_or(&pair[0]) ^ 1),
                                bytes,
                                tag: next_tag,
                            }
                        })
                        .collect();
                    let (ids, one_by_one) = start(&mut grouped, &mut per_flow, now, &specs);
                    prop_assert_eq!(ids, one_by_one);
                }
                // A crashed node.
                2 => {
                    let node = NodeId(picks[0]);
                    let aborted = flat(grouped.fail_node(now, node));
                    prop_assert_eq!(&aborted, &flat(per_flow.fail_node(now, node)));
                    drop_aborted(&mut grouped, &mut per_flow, &mut rings, now, &aborted);
                }
                // Abort every flow with a tag in one residue class.
                3 => {
                    let class = dt_ns % 3;
                    let aborted = flat(grouped.abort_matching(now, |s| s.tag % 3 == class));
                    prop_assert_eq!(
                        &aborted,
                        &flat(per_flow.abort_matching(now, |s| s.tag % 3 == class))
                    );
                    drop_aborted(&mut grouped, &mut per_flow, &mut rings, now, &aborted);
                }
                // A completion wave; every ring whose round drained starts its
                // next round at the same instant.
                _ => {
                    if let Some(t) = grouped.next_completion() {
                        now = now.max(t);
                        let done = flat(grouped.take_completions(now));
                        prop_assert_eq!(&done, &flat(per_flow.take_completions(now)));
                        let mut finished = Vec::new();
                        for (i, ring) in rings.iter_mut().enumerate() {
                            ring.4 -= done.iter().filter(|&&(.., tag)| tag == ring.3).count();
                            if ring.4 == 0 {
                                finished.push(i);
                            }
                        }
                        for &i in finished.iter().rev() {
                            let (nodes, chunk, left, tag, _) = rings.remove(i);
                            if left > 0 {
                                let (ids, one_by_one) = start(
                                    &mut grouped,
                                    &mut per_flow,
                                    now,
                                    &round(&nodes, chunk, tag),
                                );
                                prop_assert_eq!(ids, one_by_one);
                                let k = nodes.len();
                                rings.push((nodes, chunk, left - 1, tag, k));
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(grouped.next_completion(), per_flow.next_completion());
            prop_assert_eq!(grouped.active_flows(), per_flow.active_flows());
            prop_assert_eq!(delivered_bits(&grouped), delivered_bits(&per_flow));
        }
        // Drain both, wave by wave.
        while let Some(t) = grouped.next_completion() {
            prop_assert_eq!(per_flow.next_completion(), Some(t));
            now = now.max(t);
            prop_assert_eq!(
                flat(grouped.take_completions(now)),
                flat(per_flow.take_completions(now))
            );
            prop_assert_eq!(delivered_bits(&grouped), delivered_bits(&per_flow));
        }
        prop_assert!(per_flow.next_completion().is_none());
    }

    /// `StragglerModel::delay_for` is a pure function of `(iteration, worker)`:
    /// re-evaluating any cell yields the same delay, `p` at the extremes is
    /// all-or-nothing, and an empty or overflowed worker range injects nothing.
    #[test]
    fn straggler_delay_is_deterministic_and_edge_exact(
        seed in 0u64..1_000_000_000,
        iteration in 0u64..10_000,
        worker in 0usize..64,
        n_workers in 0usize..64,
        delay_ms in 1u64..60_000,
    ) {
        let delay = fela_sim::SimDuration::from_nanos(delay_ms * 1_000_000);
        for p in [0.0f64, 0.3, 1.0] {
            let m = StragglerModel::Probabilistic { p, delay, seed };
            let first = m.delay_for(iteration, worker, n_workers);
            prop_assert_eq!(first, m.delay_for(iteration, worker, n_workers));
            if worker >= n_workers || n_workers == 0 {
                // Out-of-range workers (and the degenerate empty cluster)
                // never straggle, for any probability.
                prop_assert!(first.is_zero());
            } else if p == 0.0 {
                prop_assert!(first.is_zero());
            } else if p == 1.0 {
                prop_assert_eq!(first, delay);
            }
        }
        // Round-robin slows exactly one in-range worker per iteration, and an
        // empty cluster (n_workers == 0) must not divide by zero.
        let rr = StragglerModel::RoundRobin { delay };
        prop_assert!(rr.delay_for(iteration, worker, 0).is_zero());
        if n_workers > 0 {
            let victims = (0..n_workers)
                .filter(|&w| !rr.delay_for(iteration, w, n_workers).is_zero())
                .count();
            prop_assert_eq!(victims, 1);
        }
    }

    /// `FaultModel` realisations share the purity contract: deterministic per
    /// cell, seed-sensitive, and inert outside the worker range.
    #[test]
    fn fault_model_is_deterministic_and_range_safe(
        seed in 0u64..1_000_000_000,
        iteration in 0u64..10_000,
        worker in 0usize..64,
        n_workers in 0usize..64,
    ) {
        let down = fela_sim::SimDuration::from_secs(5);
        for p in [0.0f64, 0.5, 1.0] {
            let m = FaultModel::Chaos { p, down, seed };
            let first = m.fault_for(iteration, worker, n_workers);
            prop_assert_eq!(first, m.fault_for(iteration, worker, n_workers));
            if worker >= n_workers || p == 0.0 {
                prop_assert_eq!(first, None);
            } else if p == 1.0 {
                prop_assert!(first.is_some());
            }
        }
    }

    /// `EventQueue` stays consistent with a reference model under random
    /// schedule / cancel / pop / peek interleavings — including cancels of ids
    /// that already fired or were already cancelled (the tombstone-leak
    /// regression), and regardless of when compaction strikes.
    #[test]
    fn event_queue_consistent_under_random_cancels(
        ops in prop::collection::vec((0usize..4, 0u64..100, 0usize..128), 1..200),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: BTreeSet<(SimTime, fela_sim::EventId)> = BTreeSet::new();
        let mut issued: Vec<fela_sim::EventId> = Vec::new();
        for (kind, time, sel) in ops {
            match kind {
                0 => {
                    let t = SimTime::from_nanos(time);
                    let id = q.schedule_at(t, time);
                    model.insert((t, id));
                    issued.push(id);
                }
                1 if !issued.is_empty() => {
                    // May hit a live, fired, or already-cancelled id.
                    let id = issued[sel % issued.len()];
                    let was_live = model.iter().any(|&(_, i)| i == id);
                    let cancelled = q.cancel(id);
                    prop_assert_eq!(cancelled, was_live);
                    model.retain(|&(_, i)| i != id);
                }
                2 => {
                    let expect = model.iter().next().copied();
                    match (q.pop_next(), expect) {
                        (Some((t, id, payload)), Some((et, eid))) => {
                            prop_assert_eq!(t, et);
                            prop_assert_eq!(id, eid);
                            prop_assert_eq!(SimTime::from_nanos(payload), t);
                            model.remove(&(et, eid));
                        }
                        (None, None) => {}
                        (got, want) => {
                            prop_assert!(
                                false,
                                "pop mismatch: got {:?}, want {:?}",
                                got.map(|(t, i, _)| (t, i)),
                                want
                            );
                        }
                    }
                }
                _ => {
                    prop_assert_eq!(q.peek_time(), model.iter().next().map(|&(t, _)| t));
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
    }
}
