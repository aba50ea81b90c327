//! Accuracy and reuse gates for the contention model's solver.
//!
//! `reference` holds the allocating damped fixed point as it stood before
//! the accelerated solve existed — `evaluate`, `evaluate_partitioned` and
//! `proportional_fill`, copied verbatim (only `self` reaches the
//! `MachineSpec` fields through a `Deref` wrapper, and the memory latency
//! is one sum over all cores since the model has one memory system) —
//! plus the one change that makes every reference solve converge: a pass
//! that hits the iteration cap restarts from the cold start with the
//! damping halved. The property tests drive ONE `ContentionSolver` and
//! one set of output buffers through generated call sequences —
//! heterogeneous per-core profiles, random occupancy including all-idle
//! machines, several core/cache shapes, shared and statically partitioned
//! caches — and require:
//!
//! * every solve to converge;
//! * the reused solver's estimates to equal a fresh solver's to the bit,
//!   so state left behind by one call and read by the next shows up;
//! * the estimates (CPI, miss ratio, share, memory latency), shared and
//!   partitioned, to fall within `1e-8` relative of the converged
//!   reference.
//!
//! Deterministic tests add hand-picked boundary layouts of the dense
//! solver (idle cluster heads, idle clusters, exact fits, zero weights,
//! extreme localities) and water-fill claim sets with negative and NaN
//! weights; a third property test draws profiles whose shares end just
//! under their working sets, where the water-fill's cap makes the map
//! kink and the plain damped iteration used to stop at its cap. The
//! solver's start gets its own: layouts whose clusters all fit must solve
//! in one evaluation with every share at its working set, and a property
//! test mixes fitting and overflowing clusters, working sets summing
//! exactly to the capacity, cores without references and demand held at
//! the utilization clamp. (Demand settling just under the clamp is left
//! to the unit tests of the bandwidth root: there the latency is so steep
//! that the damped reference oscillates even at half its damping.)

use proptest::prelude::*;

use request_behavior_variations::mem::hierarchy::Topology;
use request_behavior_variations::mem::model::{proportional_fill, ContentionSolver, SolveOutcome};
use request_behavior_variations::mem::{MachineSpec, PerfEstimate, SegmentProfile};

#[allow(clippy::needless_range_loop)]
mod reference {
    use std::ops::Deref;

    use request_behavior_variations::mem::model::miss_ratio;
    use request_behavior_variations::mem::{MachineSpec, PerfEstimate, SegmentProfile};

    /// Per-core estimates and whether the solve converged.
    pub type Estimates = (Vec<Option<PerfEstimate>>, bool);

    /// Gives the verbatim method bodies their `self.field` access, and
    /// their stop rule: the step tolerance and the iteration cap of one
    /// pass. (The model shipped the loop with a relative step tolerance of
    /// `1e-9` and at most 400 iterations a pass.)
    pub struct Ref<'a> {
        spec: &'a MachineSpec,
        tol: f64,
        max_iters: usize,
    }

    impl<'a> Ref<'a> {
        /// The damped loop run until it has converged for real: its last
        /// step is at the rounding noise of the state, and it may take as
        /// many steps as that needs.
        pub fn converged(spec: &'a MachineSpec) -> Ref<'a> {
            Ref {
                spec,
                tol: 1e-14,
                max_iters: 1_000_000,
            }
        }
    }

    impl Deref for Ref<'_> {
        type Target = MachineSpec;
        fn deref(&self) -> &MachineSpec {
            self.spec
        }
    }

    impl Ref<'_> {
        /// The damped solve, restarted from the cold start at half the
        /// damping when its first pass hits the cap. Returns the estimates
        /// and whether the solve converged.
        pub fn evaluate(&self, running: &[Option<SegmentProfile>]) -> Estimates {
            let (out, converged) = self.evaluate_damped(running, DAMPING);
            if converged {
                return (out, true);
            }
            self.evaluate_damped(running, DAMPING / 2.0)
        }

        /// As [`Ref::evaluate`], for fixed shares.
        pub fn evaluate_partitioned(
            &self,
            running: &[Option<SegmentProfile>],
            shares: &[f64],
        ) -> Estimates {
            let (out, converged) = self.evaluate_partitioned_damped(running, shares, DAMPING);
            if converged {
                return (out, true);
            }
            self.evaluate_partitioned_damped(running, shares, DAMPING / 2.0)
        }

        fn evaluate_damped(&self, running: &[Option<SegmentProfile>], damping: f64) -> Estimates {
            assert_eq!(
                running.len(),
                self.topology.cores,
                "one slot per core required"
            );
            for p in running.iter().flatten() {
                if let Err(e) = p.validate() {
                    panic!("invalid segment profile: {e}");
                }
            }

            let n = running.len();
            // Initial IPC guess ignores memory stalls; initial shares split each
            // cluster evenly among its occupied cores.
            let mut ipc: Vec<f64> = running
                .iter()
                .map(|p| p.map_or(0.0, |p| 1.0 / p.base_cpi))
                .collect();
            let mut share = vec![0.0f64; n];
            for cluster in 0..self.topology.clusters() {
                let (lo, hi) = self.cluster_range(cluster, n);
                let active = running[lo..hi].iter().filter(|p| p.is_some()).count();
                if active > 0 {
                    let even = self.l2_capacity_bytes / active as f64;
                    for i in lo..hi {
                        if let Some(p) = running[i] {
                            share[i] = even.min(p.working_set_bytes.max(1.0));
                        }
                    }
                }
            }

            let mut out: Vec<Option<PerfEstimate>> = vec![None; n];
            for _ in 0..self.max_iters {
                // Miss ratios at current shares.
                let miss: Vec<f64> = running
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        p.map_or(0.0, |p| {
                            miss_ratio(
                                share[i],
                                p.working_set_bytes,
                                p.reuse_locality,
                                self.share_exponent,
                            )
                        })
                    })
                    .collect();

                // Reference pressure (L2 refs per cycle) and insertion-based
                // occupancy weights. Resident re-touches defend occupancy too,
                // hence the small retention credit on the hit fraction.
                let pressure: Vec<f64> = running
                    .iter()
                    .zip(&ipc)
                    .map(|(p, &ipc)| p.map_or(0.0, |p| p.l2_refs_per_ins * ipc))
                    .collect();
                let weight: Vec<f64> = pressure
                    .iter()
                    .zip(&miss)
                    .map(|(&p, &m)| p * (m + RETENTION_CREDIT * (1.0 - m)))
                    .collect();

                // Target shares: weight-proportional water-filling, capped at
                // each segment's working set (occupancy never exceeds demand).
                let mut target = vec![0.0f64; n];
                for cluster in 0..self.topology.clusters() {
                    let (lo, hi) = self.cluster_range(cluster, n);
                    let limits: Vec<f64> = running[lo..hi]
                        .iter()
                        .map(|p| p.map_or(0.0, |p| p.working_set_bytes))
                        .collect();
                    let filled =
                        proportional_fill(self.l2_capacity_bytes, &weight[lo..hi], &limits);
                    target[lo..hi].copy_from_slice(&filled);
                }

                // Bandwidth and latency from current rates.
                let demand: f64 = (0..n).map(|i| pressure[i] * miss[i]).sum();
                let utilization = (demand / self.peak_lines_per_cycle).min(MAX_UTILIZATION);
                let mem_latency = self.mem_base_cycles / (1.0 - utilization);

                // New CPI / IPC estimates; damped updates for both shares and
                // IPC keep the coupled fixed point stable (the share map is
                // monotone decreasing in each segment's own share, so damped
                // iteration converges).
                let mut max_delta = 0.0f64;
                for i in 0..n {
                    let Some(p) = running[i] else { continue };
                    let cpi = p.base_cpi
                        + p.l2_refs_per_ins
                            * (self.l2_hit_cycles * (1.0 - miss[i]) + mem_latency * miss[i]);
                    let new_ipc = 1.0 / cpi;
                    let next_ipc = (1.0 - damping) * ipc[i] + damping * new_ipc;
                    let next_share = (1.0 - damping) * share[i] + damping * target[i];
                    max_delta = max_delta
                        .max((next_ipc - ipc[i]).abs() / next_ipc.max(1e-12))
                        .max((next_share - share[i]).abs() / self.l2_capacity_bytes);
                    ipc[i] = next_ipc;
                    share[i] = next_share;
                    out[i] = Some(PerfEstimate {
                        cpi,
                        l2_refs_per_ins: p.l2_refs_per_ins,
                        l2_miss_ratio: miss[i],
                        mem_latency_cycles: mem_latency,
                        l2_share_bytes: share[i],
                    });
                }
                if max_delta < self.tol {
                    return (out, true);
                }
            }
            (out, false)
        }

        /// Evaluates the model with *fixed* per-core L2 shares instead of the
        /// LRU-occupancy sharing fixed point — modeling page-coloring-style
        /// static cache partitioning (the related-work alternative to
        /// contention-easing scheduling; Lin et al. / Tam et al. / Zhang et
        /// al. in the paper's §6). Bandwidth contention is unchanged.
        ///
        /// # Panics
        ///
        /// Panics if slot counts disagree with the topology, any profile is
        /// invalid, shares are negative, or a cluster's shares exceed its L2
        /// capacity.
        fn evaluate_partitioned_damped(
            &self,
            running: &[Option<SegmentProfile>],
            shares: &[f64],
            damping: f64,
        ) -> Estimates {
            assert_eq!(running.len(), self.topology.cores, "one slot per core");
            assert_eq!(shares.len(), self.topology.cores, "one share per core");
            for p in running.iter().flatten() {
                if let Err(e) = p.validate() {
                    panic!("invalid segment profile: {e}");
                }
            }
            for cluster in 0..self.topology.clusters() {
                let (lo, hi) = self.cluster_range(cluster, running.len());
                let total: f64 = shares[lo..hi].iter().sum();
                assert!(
                    shares[lo..hi].iter().all(|&s| s >= 0.0)
                        && total <= self.l2_capacity_bytes + 1.0,
                    "cluster {cluster} shares exceed capacity"
                );
            }

            let n = running.len();
            let miss: Vec<f64> = running
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    p.map_or(0.0, |p| {
                        miss_ratio(
                            shares[i],
                            p.working_set_bytes,
                            p.reuse_locality,
                            self.share_exponent,
                        )
                    })
                })
                .collect();
            // Fixed shares decouple the cache from IPC; only the bandwidth
            // coupling needs the fixed point.
            let mut ipc: Vec<f64> = running
                .iter()
                .map(|p| p.map_or(0.0, |p| 1.0 / p.base_cpi))
                .collect();
            let mut out = vec![None; n];
            for _ in 0..self.max_iters {
                let demand: f64 = (0..n)
                    .map(|i| running[i].map_or(0.0, |p| p.l2_refs_per_ins * ipc[i] * miss[i]))
                    .sum();
                let utilization = (demand / self.peak_lines_per_cycle).min(MAX_UTILIZATION);
                let mem_latency = self.mem_base_cycles / (1.0 - utilization);
                let mut max_delta = 0.0f64;
                for i in 0..n {
                    let Some(p) = running[i] else { continue };
                    let cpi = p.base_cpi
                        + p.l2_refs_per_ins
                            * (self.l2_hit_cycles * (1.0 - miss[i]) + mem_latency * miss[i]);
                    let next = (1.0 - damping) * ipc[i] + damping / cpi;
                    max_delta = max_delta.max((next - ipc[i]).abs() / next.max(1e-12));
                    ipc[i] = next;
                    out[i] = Some(PerfEstimate {
                        cpi,
                        l2_refs_per_ins: p.l2_refs_per_ins,
                        l2_miss_ratio: miss[i],
                        mem_latency_cycles: mem_latency,
                        l2_share_bytes: shares[i],
                    });
                }
                if max_delta < self.tol {
                    return (out, true);
                }
            }
            (out, false)
        }

        fn cluster_range(&self, cluster: usize, n: usize) -> (usize, usize) {
            let lo = cluster * self.topology.cores_per_cluster;
            let hi = (lo + self.topology.cores_per_cluster).min(n);
            (lo, hi)
        }
    }

    const MAX_UTILIZATION: f64 = 0.95;
    const DAMPING: f64 = 0.35;
    /// Occupancy defense of resident, re-touched lines relative to insertions.
    const RETENTION_CREDIT: f64 = 0.08;

    pub fn proportional_fill(capacity: f64, weights: &[f64], limits: &[f64]) -> Vec<f64> {
        assert_eq!(weights.len(), limits.len(), "mismatched slice lengths");
        let n = weights.len();
        let mut share = vec![0.0f64; n];
        let mut capped = vec![false; n];
        let mut remaining = capacity;
        // Each pass either terminates or caps at least one claimant, so at most
        // n passes are needed.
        for _ in 0..=n {
            let wsum: f64 = (0..n)
                .filter(|&i| !capped[i])
                .map(|i| weights[i].max(0.0))
                .sum();
            if wsum <= 0.0 || remaining <= 0.0 {
                break;
            }
            let mut newly_capped = false;
            for i in 0..n {
                if capped[i] || weights[i] <= 0.0 {
                    continue;
                }
                let alloc = remaining * weights[i] / wsum;
                if share[i] + alloc >= limits[i] {
                    // Grant up to the limit and retire this claimant.
                    let grant = (limits[i] - share[i]).max(0.0);
                    share[i] = limits[i];
                    remaining -= grant;
                    capped[i] = true;
                    newly_capped = true;
                }
            }
            if !newly_capped {
                // No caps hit: distribute the remainder proportionally and stop.
                for i in 0..n {
                    if !capped[i] && weights[i] > 0.0 {
                        share[i] += remaining * weights[i] / wsum;
                    }
                }
                break;
            }
        }
        share
    }
}

/// Machine shapes the sequence draws from: the paper's box, eight cores
/// in four cache pairs, a ragged six-core spec whose last cache cluster is
/// short, and eight cores sharing one cache (many claimants per
/// water-fill).
fn specs() -> [MachineSpec; 4] {
    let single = MachineSpec::xeon_5160();
    [
        single,
        MachineSpec {
            topology: Topology {
                cores: 8,
                cores_per_cluster: 2,
            },
            ..single
        },
        MachineSpec {
            topology: Topology {
                cores: 6,
                cores_per_cluster: 4,
            },
            ..single
        },
        MachineSpec {
            topology: Topology {
                cores: 8,
                cores_per_cluster: 8,
            },
            ..single
        },
    ]
}

fn profile_strategy() -> impl Strategy<Value = SegmentProfile> {
    (
        0.3f64..3.0,
        prop_oneof![Just(0.0f64), 0.0f64..0.03],
        // Empty, cache-resident, share-sized and streaming working sets.
        prop_oneof![Just(0.0f64), 1e3f64..1e6, 1e6f64..8e6, 8e6f64..4e8],
        0.0f64..=1.0,
    )
        .prop_map(|(base_cpi, refs, ws, locality)| SegmentProfile {
            base_cpi,
            l2_refs_per_ins: refs,
            working_set_bytes: ws,
            reuse_locality: locality,
        })
}

/// One model call: shared or partitioned cache, an all-idle switch, and
/// per-slot (occupied?, profile, partition fraction) for up to the
/// largest spec's core count.
type Call = (bool, u32, Vec<(u32, SegmentProfile, f64)>);

fn call_strategy() -> impl Strategy<Value = Call> {
    (
        prop::bool::ANY,
        0u32..8,
        prop::collection::vec((0u32..3, profile_strategy(), 0.0f64..=1.0), 8),
    )
}

/// At least 32 calls in runs of 8–11 on one spec, so consecutive calls
/// on the same shape (where stale per-core state would be read) are the
/// common case, with shape changes in between.
fn sequence_strategy() -> impl Strategy<Value = Vec<(usize, Vec<Call>)>> {
    prop::collection::vec(
        (0usize..4, prop::collection::vec(call_strategy(), 8..12)),
        4..6,
    )
}

/// Relative band the shared-cache estimates keep around the converged
/// damped reference.
const ACCURACY: f64 = 1e-8;

/// Compares two estimate tables field by field: `close` takes CPI, miss
/// ratio, L2 share and memory latency to within [`ACCURACY`] relative
/// (miss ratios and shares relative to their ranges, 1 and the L2
/// capacity, since either may be zero); without it, and for the
/// passed-through reference rate always, the bits must match.
fn compare(
    ours: &[Option<PerfEstimate>],
    theirs: &[Option<PerfEstimate>],
    capacity: f64,
    close: bool,
    ctx: &str,
) {
    assert_eq!(ours.len(), theirs.len(), "{ctx}");
    for (core, (a, b)) in ours.iter().zip(theirs).enumerate() {
        match (a, b) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(
                    a.l2_refs_per_ins.to_bits(),
                    b.l2_refs_per_ins.to_bits(),
                    "{ctx}: core {core} l2_refs_per_ins"
                );
                let fields = [
                    ("cpi", a.cpi, b.cpi, b.cpi.abs()),
                    ("l2_miss_ratio", a.l2_miss_ratio, b.l2_miss_ratio, 1.0),
                    (
                        "mem_latency_cycles",
                        a.mem_latency_cycles,
                        b.mem_latency_cycles,
                        b.mem_latency_cycles.abs(),
                    ),
                    (
                        "l2_share_bytes",
                        a.l2_share_bytes,
                        b.l2_share_bytes,
                        capacity,
                    ),
                ];
                for (name, x, y, scale) in fields {
                    if close {
                        assert!(
                            (x - y).abs() <= ACCURACY * scale,
                            "{ctx}: core {core} {name} {x} is {:e} relative from reference {y}",
                            (x - y).abs() / scale
                        );
                    } else {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{ctx}: core {core} {name} {x} != {y}"
                        );
                    }
                }
            }
            _ => panic!("{ctx}: core {core} occupancy differs: {a:?} vs {b:?}"),
        }
    }
}

/// Solves `running` shared or, with `shares`, partitioned through the
/// reused `solver` into `out`, and checks the result against a fresh
/// solver (bit for bit) and the converged reference (within
/// [`ACCURACY`]). Every solve must converge. Returns what the solve did.
fn check_call(
    spec: &MachineSpec,
    running: &[Option<SegmentProfile>],
    shares: Option<&[f64]>,
    solver: &mut ContentionSolver,
    out: &mut [Option<PerfEstimate>],
    ctx: &str,
) -> SolveOutcome {
    let cap = spec.l2_capacity_bytes;
    let (outcome, fresh, (theirs, ref_converged)) = match shares {
        None => (
            spec.evaluate_into(running, solver, out),
            spec.evaluate(running),
            reference::Ref::converged(spec).evaluate(running),
        ),
        Some(shares) => (
            spec.evaluate_partitioned_into(running, shares, solver, out),
            spec.evaluate_partitioned(running, shares),
            reference::Ref::converged(spec).evaluate_partitioned(running, shares),
        ),
    };
    assert!(
        outcome.converged,
        "{ctx}: solve did not converge: {outcome:?}"
    );
    assert!(ref_converged, "{ctx}: reference did not converge");
    compare(out, &fresh, cap, false, &format!("{ctx}, reused vs fresh"));
    compare(out, &theirs, cap, true, &format!("{ctx}, vs reference"));
    outcome
}

/// Layouts the dense solver could get wrong, each solved shared and
/// partitioned through one reused solver and checked by [`check_call`]:
/// idle first cores, a fully idle cluster between busy ones, working sets
/// exactly at the even share and at the L2 capacity, zero-weight cores
/// (`l2_refs_per_ins = 0`) and locality 0 and 1.
#[test]
fn boundary_layouts_match_converged_reference() {
    let specs = specs();
    let cap = specs[0].l2_capacity_bytes;
    let p = |base_cpi: f64, refs: f64, ws: f64, locality: f64| {
        Some(SegmentProfile {
            base_cpi,
            l2_refs_per_ins: refs,
            working_set_bytes: ws,
            reuse_locality: locality,
        })
    };
    let stream = p(0.7, 0.008, 360e6, 0.5);
    let web = p(1.1, 0.004, 3e5, 0.93);
    let mid = p(0.9, 0.007, 12e6, 0.65);
    let no_refs = p(1.4, 0.0, 2e6, 0.9);
    let at_even = p(0.8, 0.01, cap / 2.0, 0.95);
    let at_cap = p(0.85, 0.009, cap, 0.8);
    let loc0 = p(0.75, 0.006, 5e6, 0.0);
    let loc1 = p(0.95, 0.005, 6e6, 1.0);
    let cases: Vec<(usize, Vec<Option<SegmentProfile>>)> = vec![
        // Idle first core of a cluster, and of the machine.
        (0, vec![None, stream, mid, web]),
        (0, vec![mid, stream, None, at_even]),
        (0, vec![None, None, None, stream]),
        // Fully idle cluster between busy ones (8 cores in pairs).
        (1, vec![stream, mid, None, None, web, stream, None, loc0]),
        (1, vec![None, at_cap, None, None, None, None, stream, None]),
        // Ragged last cluster, idle head of each cluster.
        (2, vec![None, mid, stream, web, None, loc1]),
        // Working set exactly the even share (two per cluster) and
        // exactly the L2 capacity.
        (0, vec![at_even, at_even, at_cap, None]),
        (0, vec![at_cap, at_even, at_cap, stream]),
        (0, vec![at_cap, None, at_even, None]),
        // Zero-weight claimants beside positive ones, and alone.
        (0, vec![no_refs, stream, no_refs, mid]),
        (0, vec![no_refs, no_refs, None, no_refs]),
        (
            3,
            vec![no_refs, stream, None, web, no_refs, mid, at_cap, loc1],
        ),
        // Locality at both ends of its range.
        (0, vec![loc0, loc1, loc1, loc0]),
        (3, vec![loc0, None, loc1, stream, None, loc0, at_even, mid]),
        // Every core busy with a streaming scan (saturated bandwidth).
        (1, vec![stream; 8]),
    ];
    let mut solver = ContentionSolver::default();
    for (step, (which, running)) in cases.iter().enumerate() {
        let spec = &specs[*which];
        let mut out = vec![None; spec.topology.cores];
        let ctx = format!("case {step} (spec {which})");
        check_call(spec, running, None, &mut solver, &mut out, &ctx);

        // Equal static slices of each cluster among its occupied cores.
        let cpc = spec.topology.cores_per_cluster;
        let shares: Vec<f64> = (0..spec.topology.cores)
            .map(|core| {
                let lo = core / cpc * cpc;
                let hi = (lo + cpc).min(running.len());
                let occupied = running[lo..hi].iter().flatten().count();
                if running[core].is_some() {
                    spec.l2_capacity_bytes / occupied as f64
                } else {
                    0.0
                }
            })
            .collect();
        let ctx = format!("{ctx}, partitioned");
        check_call(spec, running, Some(&shares), &mut solver, &mut out, &ctx);
    }
}

/// Water-fill claim sets with negative, zero and NaN weights, zero and
/// exactly-fitting limits, and an empty or exhausted capacity.
#[test]
fn fill_boundary_cases_are_bit_identical_to_reference() {
    let cases: [(f64, &[f64], &[f64]); 10] = [
        (100.0, &[-1.0, 2.0, 3.0], &[60.0, 60.0, 60.0]),
        (100.0, &[-5.0, 1.0, 1.0, 4.0], &[10.0, 30.0, 80.0, 35.0]),
        (100.0, &[0.0, -0.0, 2.0], &[50.0, 50.0, 50.0]),
        (100.0, &[1.0, 1.0], &[50.0, 50.0]),
        (100.0, &[1.0, 3.0], &[25.0, 75.0]),
        (100.0, &[2.0, 1.0, 1.0], &[0.0, 100.0, 100.0]),
        (100.0, &[f64::NAN, 1.0, 2.0], &[40.0, 40.0, 40.0]),
        (0.0, &[1.0, 2.0], &[10.0, 10.0]),
        (30.0, &[1.0, 2.0, 3.0], &[10.0, 10.0, 10.0]),
        (100.0, &[], &[]),
    ];
    for (capacity, weights, limits) in cases {
        let ours = proportional_fill(capacity, weights, limits);
        let theirs = reference::proportional_fill(capacity, weights, limits);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&ours),
            bits(&theirs),
            "weights {weights:?} limits {limits:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reused_solver_matches_fresh_and_converged_reference(runs in sequence_strategy()) {
        let specs = specs();
        let mut solver = ContentionSolver::default();
        // One output buffer per spec, reused like an engine's rate table.
        let mut outs: Vec<Vec<Option<PerfEstimate>>> =
            specs.iter().map(|s| vec![None; s.topology.cores]).collect();
        let calls = runs.iter().flat_map(|(which, calls)| calls.iter().map(move |c| (*which, c)));
        for (step, (which, (partitioned, idle_switch, slots))) in calls.enumerate() {
            let spec = &specs[which];
            let cores = spec.topology.cores;
            let running: Vec<Option<SegmentProfile>> = slots[..cores]
                .iter()
                .map(|&(occ, p, _)| (*idle_switch != 0 && occ != 0).then_some(p))
                .collect();
            let ctx = format!("call {step} (spec {which}, partitioned {partitioned})");
            // Each cluster's fractions sum to at most its capacity.
            let cpc = spec.topology.cores_per_cluster as f64;
            let shares: Vec<f64> = slots[..cores]
                .iter()
                .map(|&(_, _, frac)| spec.l2_capacity_bytes * frac / cpc)
                .collect();
            let shares = partitioned.then_some(&shares[..]);
            check_call(spec, &running, shares, &mut solver, &mut outs[which], &ctx);
        }
    }

    #[test]
    fn proportional_fill_is_bit_identical_to_reference(
        claims in prop::collection::vec(
            (prop_oneof![Just(0.0f64), 0.0f64..10.0], 0.0f64..100.0),
            0..8,
        ),
        capacity in 0.0f64..200.0,
    ) {
        let weights: Vec<f64> = claims.iter().map(|c| c.0).collect();
        let limits: Vec<f64> = claims.iter().map(|c| c.1).collect();
        let ours = proportional_fill(capacity, &weights, &limits);
        let theirs = reference::proportional_fill(capacity, &weights, &limits);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&ours), bits(&theirs));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kink_solves_converge_to_the_reference(
        (which, slots) in (0usize..4, prop::collection::vec(kink_slot_strategy(), 8)),
    ) {
        let spec = &specs()[which];
        let cores = spec.topology.cores;
        let running: Vec<Option<SegmentProfile>> =
            slots[..cores].iter().map(|&(occ, p)| occ.then_some(p)).collect();
        let kinked = kinked_profiles(spec, &running);
        let mut out = vec![None; cores];
        check_call(spec, &kinked, None, &mut ContentionSolver::default(), &mut out, "kink");
    }
}

/// One slot of a kink call: occupied (three in four), and a profile whose
/// working set [`kinked_profiles`] rescales: the drawn working set is
/// replaced by `(1 + over) * even share`, with `over` mostly 0–6%.
fn kink_slot_strategy() -> impl Strategy<Value = (bool, SegmentProfile)> {
    (
        0u32..4,
        0.3f64..3.0,
        0.0f64..0.03,
        prop_oneof![0.0f64..0.06, 0.0f64..0.005, -0.3f64..0.3],
        0.3f64..=1.0,
    )
        .prop_map(|(occ, base_cpi, refs, over, locality)| {
            (
                occ != 0,
                SegmentProfile {
                    base_cpi,
                    l2_refs_per_ins: refs,
                    // Stashes `over`; `kinked_profiles` turns it into bytes.
                    working_set_bytes: 1.0 + over,
                    reuse_locality: locality,
                },
            )
        })
}

/// Gives every occupied core a working set of its stashed factor times
/// the even split of its cluster among the occupied cores, so the
/// water-fill's caps bind at or just under most claimants' working sets.
fn kinked_profiles(
    spec: &MachineSpec,
    running: &[Option<SegmentProfile>],
) -> Vec<Option<SegmentProfile>> {
    let cpc = spec.topology.cores_per_cluster;
    (0..running.len())
        .map(|core| {
            let lo = core / cpc * cpc;
            let hi = (lo + cpc).min(running.len());
            let occupied = running[lo..hi].iter().flatten().count().max(1);
            running[core].map(|p| SegmentProfile {
                working_set_bytes: p.working_set_bytes * spec.l2_capacity_bytes / occupied as f64,
                ..p
            })
        })
        .collect()
}

/// Layouts in which every cluster's referencing claimants fit its L2,
/// among them working sets summing exactly to the capacity, an empty
/// working set and claimants without references: the start is the fixed
/// point, so each solve ends after the one evaluation that certifies it,
/// with every share at its working set (a claimant without references at
/// 0). The capacity is a power of two, so a scaled share comes back to
/// its working set exactly.
#[test]
fn fitting_caches_solve_in_one_evaluation() {
    let specs = specs();
    let cap = specs[0].l2_capacity_bytes;
    let p = |base_cpi: f64, refs: f64, ws: f64, locality: f64| {
        Some(SegmentProfile {
            base_cpi,
            l2_refs_per_ins: refs,
            working_set_bytes: ws,
            reuse_locality: locality,
        })
    };
    let web = p(1.1, 0.004, 3e5, 0.93);
    let quarter = p(0.9, 0.009, cap / 4.0, 0.8);
    let three_quarters = p(0.8, 0.01, 0.75 * cap, 0.95);
    let whole = p(0.85, 0.006, cap, 0.6);
    let empty = p(1.0, 0.005, 0.0, 0.7);
    // A working set far beyond the cache, which its lack of references
    // keeps out of the fill.
    let no_refs = p(1.4, 0.0, 360e6, 0.9);
    let cases: Vec<(usize, Vec<Option<SegmentProfile>>)> = vec![
        (0, vec![web, web, web, web]),
        (0, vec![quarter, three_quarters, whole, None]),
        (0, vec![no_refs, whole, empty, no_refs]),
        (0, vec![None, None, None, None]),
        (
            1,
            vec![
                web,
                None,
                quarter,
                three_quarters,
                whole,
                no_refs,
                empty,
                web,
            ],
        ),
        (
            2,
            vec![quarter, quarter, web, no_refs, three_quarters, empty],
        ),
        (
            3,
            vec![quarter, no_refs, quarter, empty, web, None, web, quarter],
        ),
    ];
    let mut solver = ContentionSolver::default();
    for (step, (which, running)) in cases.iter().enumerate() {
        let spec = &specs[*which];
        let mut out = vec![None; spec.topology.cores];
        let ctx = format!("case {step} (spec {which})");
        let outcome = check_call(spec, running, None, &mut solver, &mut out, &ctx);
        assert_eq!(outcome.iterations, 1, "{ctx}: {outcome:?}");
        assert!(!outcome.restarted, "{ctx}: {outcome:?}");
        for (core, (p, est)) in running.iter().zip(&out).enumerate() {
            if let (Some(p), Some(est)) = (p, est) {
                let want = if p.l2_refs_per_ins > 0.0 {
                    p.working_set_bytes
                } else {
                    0.0
                };
                assert_eq!(est.l2_share_bytes, want, "{ctx}: core {core} share");
            }
        }
    }
}

/// Memory bandwidth so scarce that one scan missing on every reference
/// drives the demand past the utilization clamp by itself.
const SCARCE_LINES_PER_CYCLE: f64 = 1.5e-4;

/// One slot of a start layout: occupied (three in four), a kind, the
/// core-local CPI, references per instruction, a working-set fraction and
/// the locality. Kinds: 0–1 a working set that fits beside its cluster's
/// others, 2 no L2 references, 3 a streaming scan, which makes its
/// cluster overflow.
type StartSlot = (bool, u32, f64, f64, f64, f64);

fn start_slot_strategy() -> impl Strategy<Value = StartSlot> {
    (
        (0u32..4).prop_map(|occ| occ != 0),
        0u32..4,
        0.3f64..3.0,
        0.0f64..0.03,
        0.0f64..=1.0,
        0.0f64..=1.0,
    )
}

/// Builds the profiles of one start layout. A fitting claimant's working
/// set is its fraction of the cache's even split among the cluster's
/// cores, so a cluster's fitting claimants never overflow it. With
/// `clamp`, core 0 runs a fitting scan that misses on every reference
/// (locality 0) at 2–3% references per instruction: on a machine with
/// [`SCARCE_LINES_PER_CYCLE`] it alone holds the demand at the clamp in
/// every iterate, so the damped reference's latency stays pinned there.
/// With `exact`, the last referencing claimant of each cluster whose
/// others fit tops the working sets up to exactly the capacity.
fn start_profiles(
    spec: &MachineSpec,
    slots: &[StartSlot],
    clamp: bool,
    exact: bool,
) -> Vec<Option<SegmentProfile>> {
    let cap = spec.l2_capacity_bytes;
    let cpc = spec.topology.cores_per_cluster;
    let fit = |frac: f64| frac * cap / cpc as f64;
    let mut running: Vec<Option<SegmentProfile>> = slots[..spec.topology.cores]
        .iter()
        .map(|&(occ, kind, base_cpi, refs, frac, locality)| {
            occ.then_some(SegmentProfile {
                base_cpi,
                l2_refs_per_ins: if kind == 2 { 0.0 } else { refs },
                working_set_bytes: if kind == 3 {
                    8e6 + frac * 4e8
                } else {
                    fit(frac)
                },
                reuse_locality: locality,
            })
        })
        .collect();
    if clamp {
        let (_, _, base_cpi, refs, frac, _) = slots[0];
        running[0] = Some(SegmentProfile {
            base_cpi: base_cpi.min(1.5),
            l2_refs_per_ins: 0.02 + refs / 3.0,
            working_set_bytes: fit(frac),
            reuse_locality: 0.0,
        });
    }
    if exact {
        for cluster in running.chunks_mut(cpc) {
            let mut referencing = cluster
                .iter_mut()
                .flatten()
                .filter(|p| p.l2_refs_per_ins > 0.0)
                .collect::<Vec<_>>();
            let Some((last, others)) = referencing.split_last_mut() else {
                continue;
            };
            let claimed: f64 = others.iter().map(|p| p.working_set_bytes).sum();
            if claimed <= cap && last.working_set_bytes <= cap {
                last.working_set_bytes = cap - claimed;
            }
        }
    }
    running
}

/// Whether every cluster's referencing claimants fit its L2, summed in
/// core order as the solver sums them.
fn every_cluster_fits(spec: &MachineSpec, running: &[Option<SegmentProfile>]) -> bool {
    running
        .chunks(spec.topology.cores_per_cluster)
        .all(|cluster| {
            let claimed: f64 = cluster
                .iter()
                .flatten()
                .filter(|p| p.l2_refs_per_ins > 0.0)
                .map(|p| p.working_set_bytes)
                .sum();
            claimed <= spec.l2_capacity_bytes
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Layouts that mix fitting and overflowing clusters, working sets
    /// summing exactly to the capacity, cores without references and
    /// demand at the utilization clamp, solved shared and partitioned
    /// through one reused solver: each converges within the band of the
    /// reference and equals a fresh solve to the bit, and a shared solve
    /// whose clusters all fit ends after one evaluation.
    #[test]
    fn start_layouts_converge_to_the_reference(
        layouts in prop::collection::vec(
            (
                0usize..4,
                prop::bool::ANY,
                prop::bool::ANY,
                prop::collection::vec(start_slot_strategy(), 8),
            ),
            4..8,
        ),
    ) {
        let specs = specs();
        let mut solver = ContentionSolver::default();
        for (step, (which, clamp, exact, slots)) in layouts.iter().enumerate() {
            let spec = &MachineSpec {
                peak_lines_per_cycle: if *clamp {
                    SCARCE_LINES_PER_CYCLE
                } else {
                    specs[*which].peak_lines_per_cycle
                },
                ..specs[*which]
            };
            let running = start_profiles(spec, slots, *clamp, *exact);
            let mut out = vec![None; spec.topology.cores];
            let ctx = format!("layout {step} (spec {which}, clamp {clamp}, exact {exact})");
            let outcome = check_call(spec, &running, None, &mut solver, &mut out, &ctx);
            if every_cluster_fits(spec, &running) {
                prop_assert_eq!(outcome.iterations, 1, "{}: {:?}", ctx, outcome);
            }
            if *clamp {
                let saturated = spec.mem_base_cycles / (1.0 - 0.95);
                let latency = out[0].map_or(0.0, |e| e.mem_latency_cycles);
                prop_assert_eq!(latency, saturated, "{}", ctx);
            }
            // Each slot's fraction of its cluster's even split, as fixed
            // shares.
            let cpc = spec.topology.cores_per_cluster as f64;
            let shares: Vec<f64> = slots[..spec.topology.cores]
                .iter()
                .map(|s| spec.l2_capacity_bytes * s.4 / cpc)
                .collect();
            let ctx = format!("{ctx}, partitioned");
            check_call(spec, &running, Some(&shares), &mut solver, &mut out, &ctx);
        }
    }
}
