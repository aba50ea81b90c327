//! Analytical multicore performance model.
//!
//! Replaying hundreds of millions of instructions per request (a single
//! WeBWorK request executes ~600 M instructions) through the trace-driven
//! simulator is infeasible, so the execution engine in `rbv-os` advances
//! time at scheduling-tick granularity using this analytical model. The
//! model captures exactly the two multicore effects the paper attributes
//! request behavior variation to:
//!
//! 1. **Shared L2 capacity contention** — co-running execution segments
//!    divide the shared cache in proportion to their *insertion pressure*
//!    (miss rate × reference rate, plus a small retention credit for
//!    re-touched resident lines), capped at each segment's working set.
//!    This is the standard LRU occupancy fixed point: a segment whose
//!    share falls below its working set sees its miss ratio rise along a
//!    concave curve, which in turn raises its insertion pressure, until
//!    the system balances.
//! 2. **Memory bandwidth contention** — total miss traffic inflates the
//!    effective memory latency through an M/M/1-style queueing factor,
//!    which is what degrades streaming workloads (TPCH) even when they
//!    have no cache share worth losing.
//!
//! The miss-ratio curve is anchored by the trace-driven simulator: for a
//! uniform working set of `W` bytes and an effective share of `S` bytes,
//! LRU steady state hits with probability `S/W`, which is the curve at
//! locality 1, exponent 1 (see the calibration tests).
//!
//! CPI composition:
//!
//! ```text
//! cpi = base_cpi + refs_per_ins * (l2_hit_cycles * (1 - miss) + mem_latency * miss)
//! ```
//!
//! where `base_cpi` is the core-local CPI (pipeline + L1 hits) of the
//! segment and `mem_latency` the contention-inflated memory latency.
//!
//! # Solving the fixed point
//!
//! The engine re-solves the sharing fixed point on every event that
//! changes a core's occupant, so the solve dominates simulation cost. A
//! [`ContentionSolver`] holds every buffer the solve needs; the engine
//! keeps one per machine and calls [`MachineSpec::evaluate_into`] (or
//! [`MachineSpec::evaluate_partitioned_into`]), which allocate nothing
//! after the first call and report what the solve did in a
//! [`SolveOutcome`]. Per-call invariants are loaded once before the
//! iteration loop: the occupied cores are compacted, in core order, into
//! dense arrays (their profile fields and all per-iteration state), with
//! one `[lo, hi)` range per L2 cluster into that dense index. The
//! shared-cache solve water-fills each cluster's range with the one fill
//! behind [`proportional_fill`]. The allocating [`MachineSpec::evaluate`]
//! and [`MachineSpec::evaluate_partitioned`] are thin wrappers over the
//! same code.
//!
//! The shared-cache solve is a safeguarded Anderson-mixing loop over the
//! sharing map `F`, which takes every occupied core's IPC and L2 share to
//! the IPC its CPI implies and the share the water-fill grants it. The
//! state is scaled to order one (`ipc * base_cpi` and
//! `share / capacity`), so both halves weigh alike in the least squares
//! and in the stop rule. Each iteration evaluates `F` once (one `powf`
//! per core, as a plain damped step does) and steps to
//! `x + β f - Σ γ_c (Δx_c + β Δf_c)`, where `f = F(x) - x` and the
//! weights `γ` fit `f` by the residual differences `Δf` of the last three
//! steps in least squares, through a Gram matrix kept up to date one
//! column at a time. The step `β` starts at twice the plain damping; a
//! growing residual clears the history and shortens `β`, down to the
//! plain damping. At depth 0 the same loop is the plain damped iteration
//! `x + β (F(x) - x)`.
//!
//! # The start and the bandwidth root
//!
//! The loop starts from a state derived from the call's inputs alone.
//! A cluster whose referencing claimants' working sets fit its L2 starts
//! each of them at its working set, which is what the water-fill grants
//! whatever the weights; a claimant without references starts at 0, its
//! share under every weight. Any other cluster starts evenly split among
//! its occupied cores. At those shares' miss ratios each core's CPI is
//! `a_k + b_k L`, with `a_k = base + refs · hit · (1 - m)` and
//! `b_k = refs · m`, so the only coupling left is the memory demand `D`,
//! which solves the scalar equation
//!
//! ```text
//! D = Σ b_k / (a_k + b_k · L(D))
//! ```
//!
//! The right-hand side falls as `D` rises, so the root lies between 0 and
//! the solo demand `Σ b_k / (a_k + b_k · mem_base)`. Below the
//! utilization clamp `D - Σ ...` is convex as well as increasing, so
//! Newton's method started at the solo demand descends to the root
//! without overshooting; the solve takes it until a step no longer
//! lowers `D`, and starts each core's scaled IPC at `base_cpi / cpi(L)`.
//! When every cluster fits, that start is the fixed point, and the loop's
//! first map evaluation certifies it: the solve ends after one
//! evaluation. The partitioned solve has fixed shares, so it is this
//! same scalar problem and nothing else: it takes the root and evaluates
//! each core's CPI at its latency.
//!
//! # Accuracy rule
//!
//! Every ledger, baseline and benchmark digest in the repository is
//! downstream of these values, so the solve follows an accuracy rule
//! instead of reproducing one iteration's bits:
//!
//! * **Converged or counted.** A shared-cache solve stops when the
//!   ∞-norm of the scaled `F(x) - x` is below `1e-10`. If the accelerated
//!   pass does not get there, the solve restarts from the same start at
//!   depth 0 with the damping halved, which contracts on the kinks where
//!   the water-fill caps a claimant just under its working set. A solve
//!   that still fails is reported as unconverged in its [`SolveOutcome`];
//!   the engine counts it as an invariant violation. A partitioned solve
//!   is unconverged if its root runs out of steps.
//! * **Within `1e-8` of the damped reference.** CPI and memory latency
//!   fall within `1e-8` relative of the plain damped solve run to
//!   convergence (`tests/model_identity.rs` keeps that loop, shared and
//!   partitioned, as a test-only reference), the miss ratio within `1e-8`
//!   and the share within `1e-8` of the L2 capacity: near a zero share the
//!   miss curve is too steep for a band relative to the share itself.
//! * **No warm start.** Each call derives its start (shares and the
//!   bandwidth root) from its inputs alone, so a result depends on the
//!   call, never on the call history, and results do not depend on how
//!   work is split over threads.
//! * **No memo of recent inputs.** Profiles carry per-request jitter, so
//!   exact repeats are rare, and a cache would add state whose hits and
//!   misses must also be proven neutral.
//! * **Reused equals fresh.** A reused solver returns exactly the bits a
//!   fresh one would: every buffer is rewritten before it is read.
//!
//! `tests/model_identity.rs` checks one reused solver bit for bit against
//! fresh ones and within the accuracy band against the damped reference,
//! across generated call sequences, hand-picked boundary layouts and
//! profiles whose shares sit just under their working sets.

use crate::hierarchy::Topology;

/// Inherent (machine-independent) behavior of one execution segment.
///
/// Workload models in `rbv-workloads` emit requests as sequences of these;
/// the model turns them into cycles, L2 references, and L2 misses given the
/// set of co-running segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentProfile {
    /// Core-local CPI: pipeline plus L1-hit costs, no L2/memory stalls.
    pub base_cpi: f64,
    /// L1 misses (== L2 references) per retired instruction.
    pub l2_refs_per_ins: f64,
    /// Bytes of data with reuse potential touched by the segment.
    pub working_set_bytes: f64,
    /// Fraction of L2 references that hit when the segment enjoys a full
    /// cache share (1 = perfectly cacheable, 0 = pure streaming).
    pub reuse_locality: f64,
}

impl SegmentProfile {
    /// Validates field ranges.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.base_cpi.is_finite() && self.base_cpi > 0.0) {
            return Err(format!("base_cpi {} must be positive", self.base_cpi));
        }
        if !(self.l2_refs_per_ins.is_finite() && self.l2_refs_per_ins >= 0.0) {
            return Err(format!(
                "l2_refs_per_ins {} must be nonnegative",
                self.l2_refs_per_ins
            ));
        }
        if !(self.working_set_bytes.is_finite() && self.working_set_bytes >= 0.0) {
            return Err(format!(
                "working_set_bytes {} must be nonnegative",
                self.working_set_bytes
            ));
        }
        if !(0.0..=1.0).contains(&self.reuse_locality) {
            return Err(format!(
                "reuse_locality {} must be in [0, 1]",
                self.reuse_locality
            ));
        }
        Ok(())
    }
}

/// Machine constants for the analytical model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Core/cluster layout.
    pub topology: Topology,
    /// Shared L2 capacity per cluster, bytes.
    pub l2_capacity_bytes: f64,
    /// L2 hit latency, cycles (the paper's 14).
    pub l2_hit_cycles: f64,
    /// Uncontended memory access latency, cycles.
    pub mem_base_cycles: f64,
    /// Peak memory system throughput, cache lines per cycle, shared by
    /// every core.
    pub peak_lines_per_cycle: f64,
    /// Concavity exponent of the miss-ratio curve in `share / working_set`.
    pub share_exponent: f64,
}

impl MachineSpec {
    /// The paper's 4-core Xeon 5160 platform: 4 MB shared L2 per core pair,
    /// 14-cycle L2 hits, FSB-era memory bandwidth.
    pub fn xeon_5160() -> MachineSpec {
        MachineSpec {
            topology: Topology::XEON_5160_2X2,
            l2_capacity_bytes: (4 << 20) as f64,
            l2_hit_cycles: 14.0,
            mem_base_cycles: 250.0,
            // ~1.9 GB/s sustained at 3 GHz with 64 B lines; FSB-era memory
            // systems saturate quickly, which is what doubles TPCH's tail
            // CPI at 4 cores (Figure 1).
            peak_lines_per_cycle: 0.010,
            share_exponent: 0.85,
        }
    }

    /// Evaluates the model for one scheduling tick.
    ///
    /// `running[i]` is the profile of the segment currently on core `i`
    /// (`None` when the core is idle). Returns a [`PerfEstimate`] per core
    /// (`None` for idle cores).
    ///
    /// Allocates a fresh [`ContentionSolver`] and result vector; callers
    /// that evaluate repeatedly should hold a solver and call
    /// [`MachineSpec::evaluate_into`] instead (bit-identical results).
    ///
    /// # Panics
    ///
    /// Panics if `running.len()` disagrees with the topology, any profile
    /// fails validation (programming errors, not data errors), or the
    /// solve does not converge, which [`MachineSpec::evaluate_into`]
    /// reports instead.
    pub fn evaluate(&self, running: &[Option<SegmentProfile>]) -> Vec<Option<PerfEstimate>> {
        let mut out = vec![None; running.len()];
        let outcome = self.evaluate_into(running, &mut ContentionSolver::default(), &mut out);
        assert!(outcome.converged, "contention solve did not converge");
        out
    }

    /// [`MachineSpec::evaluate`] in place: solves the sharing fixed point
    /// in `solver`'s reused buffers, writes one estimate per core into
    /// `out`, and returns what the solve did. Allocates nothing once the
    /// solver has served a machine of this size.
    ///
    /// The accelerated pass runs first; if it does not converge, a damped
    /// pass at half the damping restarts from the same start. An outcome
    /// with `converged == false` carries the last iterate of that restart.
    ///
    /// # Panics
    ///
    /// Panics if `running.len()` or `out.len()` disagrees with the topology
    /// or any profile fails validation.
    pub fn evaluate_into(
        &self,
        running: &[Option<SegmentProfile>],
        solver: &mut ContentionSolver,
        out: &mut [Option<PerfEstimate>],
    ) -> SolveOutcome {
        assert_eq!(
            running.len(),
            self.topology.cores,
            "one slot per core required"
        );
        solver.reset(self, running, out.len());
        let mut outcome = SolveOutcome::default();
        outcome.converged = solver.solve_shared(self, ANDERSON_DEPTH, MIXING, &mut outcome);
        if !outcome.converged {
            outcome.restarted = true;
            outcome.converged = solver.solve_shared(self, 0, DAMPING / 2.0, &mut outcome);
        }
        solver.write_estimates(out);
        outcome
    }

    /// Evaluates the model with *fixed* per-core L2 shares instead of the
    /// LRU-occupancy sharing fixed point — modeling page-coloring-style
    /// static cache partitioning (the related-work alternative to
    /// contention-easing scheduling; Lin et al. / Tam et al. / Zhang et
    /// al. in the paper's §6). Bandwidth contention is unchanged.
    ///
    /// Allocating wrapper over [`MachineSpec::evaluate_partitioned_into`].
    ///
    /// # Panics
    ///
    /// Panics if slot counts disagree with the topology, any profile is
    /// invalid, shares are negative, a cluster's shares exceed its L2
    /// capacity, or the solve does not converge.
    pub fn evaluate_partitioned(
        &self,
        running: &[Option<SegmentProfile>],
        shares: &[f64],
    ) -> Vec<Option<PerfEstimate>> {
        let mut out = vec![None; running.len()];
        let outcome = self.evaluate_partitioned_into(
            running,
            shares,
            &mut ContentionSolver::default(),
            &mut out,
        );
        assert!(outcome.converged, "contention solve did not converge");
        out
    }

    /// [`MachineSpec::evaluate_partitioned`] in place, solving in
    /// `solver`'s reused buffers, writing into `out`, and returning what
    /// the solve did. Fixed shares leave only the bandwidth coupling, so
    /// the solve is the bandwidth root alone: it evaluates no map and
    /// never restarts.
    ///
    /// # Panics
    ///
    /// As [`MachineSpec::evaluate_partitioned`] (except for convergence),
    /// and if `out.len()` disagrees with the topology.
    pub fn evaluate_partitioned_into(
        &self,
        running: &[Option<SegmentProfile>],
        shares: &[f64],
        solver: &mut ContentionSolver,
        out: &mut [Option<PerfEstimate>],
    ) -> SolveOutcome {
        assert_eq!(running.len(), self.topology.cores, "one slot per core");
        assert_eq!(shares.len(), self.topology.cores, "one share per core");
        solver.reset(self, running, out.len());
        for cluster in 0..self.topology.clusters() {
            let (lo, hi) = self.cluster_range(cluster, running.len());
            let total: f64 = shares[lo..hi].iter().sum();
            assert!(
                shares[lo..hi].iter().all(|&s| s >= 0.0) && total <= self.l2_capacity_bytes + 1.0,
                "cluster {cluster} shares exceed capacity"
            );
        }
        let mut outcome = SolveOutcome::default();
        outcome.converged = solver.solve_partitioned(self, shares, &mut outcome.root_steps);
        solver.write_estimates(out);
        outcome
    }

    /// Contention-inflated memory latency from the machine-wide miss
    /// traffic `demand` (lines per cycle, summed over occupied cores).
    fn mem_latency(&self, demand: f64) -> f64 {
        let utilization = (demand / self.peak_lines_per_cycle).min(MAX_UTILIZATION);
        self.mem_base_cycles / (1.0 - utilization)
    }

    /// CPI of a segment with core-local CPI `base_cpi` and `refs` L2
    /// references per instruction at L2 miss ratio `miss` and memory
    /// latency `mem_latency`.
    fn cpi(&self, base_cpi: f64, refs: f64, miss: f64, mem_latency: f64) -> f64 {
        base_cpi + refs * (self.l2_hit_cycles * (1.0 - miss) + mem_latency * miss)
    }

    /// Convenience: evaluates `profile` running alone on core 0.
    pub fn solo(&self, profile: SegmentProfile) -> PerfEstimate {
        let mut running = vec![None; self.topology.cores];
        running[0] = Some(profile);
        self.evaluate(&running)[0].unwrap_or_else(|| unreachable!("core 0 is occupied"))
    }

    fn cluster_range(&self, cluster: usize, n: usize) -> (usize, usize) {
        let lo = cluster * self.topology.cores_per_cluster;
        let hi = (lo + self.topology.cores_per_cluster).min(n);
        (lo, hi)
    }
}

/// Fixed-point map evaluations one pass may spend.
const MAX_ITERS: u32 = 400;
/// The shared-cache solve stops when the ∞-norm of the scaled residual
/// `F(x) - x` falls below this.
const RESIDUAL_TOL: f64 = 1e-10;
/// Newton steps the bandwidth root may take. From the solo demand it
/// descends quadratically; a root that is still moving after this many is
/// reported, not used silently.
const MAX_ROOT_STEPS: u32 = 64;
const MAX_UTILIZATION: f64 = 0.95;
/// Damping of the plain step (halved on the restart).
const DAMPING: f64 = 0.35;
/// Past steps the accelerated pass mixes.
const ANDERSON_DEPTH: usize = 3;
/// Initial step of the accelerated pass along the residual: twice the
/// plain damping, since the history cancels most of each step's error (a
/// full step, 1.0, made cluster solves restart).
const MIXING: f64 = 0.7;
/// Factor a growing residual cuts the accelerated step by, down to
/// [`DAMPING`]. Without it, eight claimants of one cache could oscillate
/// at the full [`MIXING`] step until the restart.
const STEP_CUT: f64 = 0.7;
/// A Gram pivot below this fraction of its diagonal entry marks the
/// mixing history as too close to collinear: its oldest step is dropped.
const GRAM_PIVOT_TOL: f64 = 1e-12;
/// Occupancy defense of resident, re-touched lines relative to insertions.
const RETENTION_CREDIT: f64 = 0.08;

/// What one contention solve did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveOutcome {
    /// Fixed-point map evaluations, over both passes (none for a
    /// partitioned solve).
    pub iterations: u32,
    /// Newton steps of the bandwidth root, over both passes.
    pub root_steps: u32,
    /// Whether the accelerated pass failed and the halved-damping restart
    /// ran.
    pub restarted: bool,
    /// Whether the solve met its stop rule. `false` means the estimates
    /// are the restart's last iterate, which callers must not use
    /// silently.
    pub converged: bool,
}

/// Running totals of [`SolveOutcome`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Solves.
    pub calls: u64,
    /// Fixed-point map evaluations.
    pub iterations: u64,
    /// Newton steps of the bandwidth root.
    pub root_steps: u64,
    /// Solves that fell back to the halved-damping restart.
    pub restarts: u64,
    /// Solves that did not converge even after the restart.
    pub unconverged: u64,
}

impl SolverStats {
    /// Adds one solve.
    pub fn record(&mut self, outcome: SolveOutcome) {
        self.calls += 1;
        self.iterations += u64::from(outcome.iterations);
        self.root_steps += u64::from(outcome.root_steps);
        self.restarts += u64::from(outcome.restarted);
        self.unconverged += u64::from(!outcome.converged);
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: &SolverStats) {
        self.calls += other.calls;
        self.iterations += other.iterations;
        self.root_steps += other.root_steps;
        self.restarts += other.restarts;
        self.unconverged += other.unconverged;
    }
}

/// Reusable working storage for the contention-model fixed point.
///
/// [`MachineSpec::evaluate_into`] and
/// [`MachineSpec::evaluate_partitioned_into`] solve in these buffers
/// instead of allocating per call or per iteration. The buffers are
/// dense: entry `k` of every per-core one belongs to the `k`-th occupied
/// core in core order, so idle cores cost nothing. Every call re-derives
/// all of its state from its inputs (no warm start from the previous
/// solution), so a reused solver returns exactly the bits a fresh one
/// would. `ContentionSolver::default()` starts empty; buffers are sized on
/// each call, so one solver may serve machines of different shapes.
#[derive(Debug, Clone, Default)]
pub struct ContentionSolver {
    /// Core index of each occupied core, in core order.
    core: Vec<usize>,
    /// The occupied cores' profile fields.
    base_cpi: Vec<f64>,
    refs: Vec<f64>,
    /// Working set, which is also the water-fill cap.
    ws: Vec<f64>,
    locality: Vec<f64>,
    /// L2 share, bytes, at the last evaluation.
    share: Vec<f64>,
    miss: Vec<f64>,
    weight: Vec<f64>,
    target: Vec<f64>,
    cpi: Vec<f64>,
    capped: Vec<bool>,
    /// Dense `[lo, hi)` range of each L2 cluster's occupied cores.
    clusters: Vec<(usize, usize)>,
    /// Contention-inflated memory latency.
    latency: f64,
    /// The shared-cache solve's scaled state: `ipc * base_cpi` of each
    /// occupied core, then `share / capacity` of each. The residual
    /// `F(x) - x` and the previous iterate and residual share the layout.
    x: Vec<f64>,
    f: Vec<f64>,
    x_prev: Vec<f64>,
    f_prev: Vec<f64>,
    /// Mixing history: [`ANDERSON_DEPTH`] ring slots of state and
    /// residual differences, one state length each.
    dx: Vec<f64>,
    df: Vec<f64>,
    /// Inner products of the residual-difference slots.
    gram: [[f64; ANDERSON_DEPTH]; ANDERSON_DEPTH],
}

impl ContentionSolver {
    /// Validates the call, compacts the occupied cores into the dense
    /// buffers cluster by cluster (clusters are consecutive core ranges,
    /// so this is core order) and sizes every per-call buffer.
    fn reset(&mut self, spec: &MachineSpec, running: &[Option<SegmentProfile>], out_len: usize) {
        assert_eq!(out_len, running.len(), "one output slot per core");
        for p in running.iter().flatten() {
            if let Err(e) = p.validate() {
                panic!("invalid segment profile: {e}");
            }
        }
        for v in [
            &mut self.base_cpi,
            &mut self.refs,
            &mut self.ws,
            &mut self.locality,
        ] {
            v.clear();
        }
        self.core.clear();
        self.clusters.clear();
        for cluster in 0..spec.topology.clusters() {
            let (lo, hi) = spec.cluster_range(cluster, running.len());
            let start = self.core.len();
            for (core, p) in running.iter().enumerate().take(hi).skip(lo) {
                if let Some(p) = p {
                    self.core.push(core);
                    self.base_cpi.push(p.base_cpi);
                    self.refs.push(p.l2_refs_per_ins);
                    self.ws.push(p.working_set_bytes);
                    self.locality.push(p.reuse_locality);
                }
            }
            self.clusters.push((start, self.core.len()));
        }
        let n = self.core.len();
        for v in [
            &mut self.share,
            &mut self.miss,
            &mut self.weight,
            &mut self.target,
            &mut self.cpi,
        ] {
            v.resize(n, 0.0);
        }
        for v in [&mut self.x, &mut self.f, &mut self.x_prev, &mut self.f_prev] {
            v.resize(2 * n, 0.0);
        }
        for v in [&mut self.dx, &mut self.df] {
            v.resize(ANDERSON_DEPTH * 2 * n, 0.0);
        }
        self.capped.resize(n, false);
        self.latency = spec.mem_base_cycles;
    }

    /// One pass of the shared-cache solve from the start, mixing up to
    /// `depth` past steps (0: the plain damped iteration) with damping
    /// `damping`. Adds its map evaluations and root steps to `outcome` and
    /// returns whether the residual met [`RESIDUAL_TOL`]; the estimate
    /// buffers then hold the evaluation at the converged state.
    #[allow(clippy::needless_range_loop)]
    fn solve_shared(
        &mut self,
        spec: &MachineSpec,
        depth: usize,
        mut damping: f64,
        outcome: &mut SolveOutcome,
    ) -> bool {
        debug_assert!(depth <= ANDERSON_DEPTH);
        let n = self.core.len();
        let dim = 2 * n;
        let cap = spec.l2_capacity_bytes;
        let ContentionSolver {
            base_cpi,
            refs,
            ws,
            locality,
            share,
            miss,
            weight,
            target,
            cpi,
            capped,
            clusters,
            latency,
            x,
            f,
            x_prev,
            f_prev,
            dx,
            df,
            gram,
            ..
        } = self;
        let (base_cpi, refs, ws, locality) = (&base_cpi[..n], &refs[..n], &ws[..n], &locality[..n]);
        let (share, miss, weight, target, cpi, capped) = (
            &mut share[..n],
            &mut miss[..n],
            &mut weight[..n],
            &mut target[..n],
            &mut cpi[..n],
            &mut capped[..n],
        );
        let (x, f, x_prev, f_prev) = (
            &mut x[..dim],
            &mut f[..dim],
            &mut x_prev[..dim],
            &mut f_prev[..dim],
        );
        let (dx, df) = (&mut dx[..depth * dim], &mut df[..depth * dim]);

        // Start: the shares of a cluster whose referencing claimants fit
        // are their working sets, which every water-fill grants; any other
        // cluster is split evenly among its occupied cores. A core without
        // L2 references exerts no pressure, so every water-fill grants it
        // nothing: it starts at that fixed share. (Approaching it from
        // above would leave its miss ratio, which is steep in a share near
        // zero, far from converged.) The scaled IPC starts at the
        // bandwidth root of those shares' miss ratios.
        for &(lo, hi) in clusters.iter() {
            let claimed: f64 = (lo..hi).filter(|&k| refs[k] > 0.0).map(|k| ws[k]).sum();
            let even = cap / (hi - lo) as f64;
            for k in lo..hi {
                x[n + k] = if refs[k] <= 0.0 {
                    0.0
                } else if claimed <= cap {
                    ws[k] / cap
                } else {
                    even.min(ws[k].max(1.0)) / cap
                };
                share[k] = x[n + k] * cap;
                miss[k] = miss_ratio(share[k], ws[k], locality[k], spec.share_exponent);
            }
        }
        // The shared solve's loop certifies the start, so a root that ran
        // out of steps only costs iterations.
        (*latency, _) = bandwidth_root(spec, base_cpi, refs, miss, &mut outcome.root_steps);
        for k in 0..n {
            x[k] = base_cpi[k] / spec.cpi(base_cpi[k], refs[k], miss[k], *latency);
        }

        // Mixing history: `len` columns in use, stored in the buffer slots
        // `order[..len]`, oldest first.
        let mut order: [usize; ANDERSON_DEPTH] = std::array::from_fn(|slot| slot);
        let mut len = 0usize;
        let mut prev_norm = f64::INFINITY;
        for iter in 0..MAX_ITERS {
            outcome.iterations += 1;
            // F at x. Miss ratios at current shares, reference pressure
            // (L2 refs per cycle), insertion-based occupancy weights, and
            // memory traffic. Resident re-touches defend occupancy too,
            // hence the small retention credit on the hit fraction.
            let mut demand = 0.0;
            for k in 0..n {
                share[k] = x[n + k] * cap;
                let m = miss_ratio(share[k], ws[k], locality[k], spec.share_exponent);
                let pressure = refs[k] * (x[k] / base_cpi[k]);
                miss[k] = m;
                weight[k] = pressure * (m + RETENTION_CREDIT * (1.0 - m));
                demand += pressure * m;
                // The water-fill below needs zeroed scratch.
                target[k] = 0.0;
                capped[k] = false;
            }
            // Target shares: weight-proportional water-filling, capped at
            // each segment's working set (occupancy never exceeds demand).
            for &(lo, hi) in clusters.iter() {
                water_fill(
                    cap,
                    &weight[lo..hi],
                    &ws[lo..hi],
                    &mut target[lo..hi],
                    &mut capped[lo..hi],
                );
            }
            *latency = spec.mem_latency(demand);
            let mut norm = 0.0f64;
            for k in 0..n {
                let c = spec.cpi(base_cpi[k], refs[k], miss[k], *latency);
                cpi[k] = c;
                f[k] = base_cpi[k] / c - x[k];
                f[n + k] = target[k] / cap - x[n + k];
                norm = norm.max(f[k].abs()).max(f[n + k].abs());
            }
            if norm < RESIDUAL_TOL {
                return true;
            }

            // A growing residual clears the history and shortens the step,
            // down to the plain damping; otherwise the last step enters the
            // history, in the oldest column's slot when all `depth` are in
            // use.
            if depth > 0 && iter > 0 {
                if norm > prev_norm {
                    len = 0;
                    damping = (damping * STEP_CUT).max(DAMPING);
                } else {
                    if len == depth {
                        order[..depth].rotate_left(1);
                    } else {
                        len += 1;
                    }
                    let slot = order[len - 1];
                    let col = slot * dim..(slot + 1) * dim;
                    for ((sx, sf), i) in dx[col.clone()].iter_mut().zip(&mut df[col]).zip(0..dim) {
                        *sx = x[i] - x_prev[i];
                        *sf = f[i] - f_prev[i];
                    }
                    for &other in &order[..len] {
                        let g = dot(
                            &df[slot * dim..(slot + 1) * dim],
                            &df[other * dim..(other + 1) * dim],
                        );
                        gram[slot][other] = g;
                        gram[other][slot] = g;
                    }
                }
            }
            x_prev.copy_from_slice(x);
            f_prev.copy_from_slice(f);
            prev_norm = norm;

            // Mixing weights: the least-squares fit of the residual by the
            // residual differences, `gamma[c]` for column `order[c]`. A
            // history too close to collinear loses its oldest columns.
            let mut gamma = [0.0f64; ANDERSON_DEPTH];
            while len > 0 {
                let mut rhs = [0.0f64; ANDERSON_DEPTH];
                for (r, &slot) in rhs.iter_mut().zip(&order[..len]) {
                    *r = dot(&df[slot * dim..(slot + 1) * dim], f);
                }
                if solve_gram(gram, &order[..len], &rhs, &mut gamma) {
                    break;
                }
                order[..len].rotate_left(1);
                len -= 1;
            }

            // x + β f - Σ γ_c (Δx_c + β Δf_c), kept in the box every fixed
            // point lies in (scaled IPC and share are both in [0, 1]).
            for i in 0..dim {
                let mut step = damping * f[i];
                for (&g, &slot) in gamma.iter().zip(&order[..len]) {
                    let at = slot * dim + i;
                    step -= g * (dx[at] + damping * df[at]);
                }
                x[i] = (x[i] + step).clamp(0.0, 1.0);
            }
        }
        false
    }

    /// The partitioned solve: the miss ratios of the fixed `shares`, the
    /// bandwidth root at them, and each core's CPI at its latency. Adds
    /// its root steps to `root_steps` and returns whether the root
    /// settled.
    fn solve_partitioned(
        &mut self,
        spec: &MachineSpec,
        shares: &[f64],
        root_steps: &mut u32,
    ) -> bool {
        let s = self;
        let n = s.core.len();
        for k in 0..n {
            s.share[k] = shares[s.core[k]];
            s.miss[k] = miss_ratio(s.share[k], s.ws[k], s.locality[k], spec.share_exponent);
        }
        let (base_cpi, refs, miss) = (&s.base_cpi[..n], &s.refs[..n], &s.miss[..n]);
        let settled;
        (s.latency, settled) = bandwidth_root(spec, base_cpi, refs, miss, root_steps);
        for k in 0..n {
            s.cpi[k] = spec.cpi(base_cpi[k], refs[k], miss[k], s.latency);
        }
        settled
    }

    /// Writes the estimates of occupied cores into `out`; idle cores get
    /// `None`.
    fn write_estimates(&self, out: &mut [Option<PerfEstimate>]) {
        out.fill(None);
        for (k, &core) in self.core.iter().enumerate() {
            out[core] = Some(PerfEstimate {
                cpi: self.cpi[k],
                l2_refs_per_ins: self.refs[k],
                l2_miss_ratio: self.miss[k],
                mem_latency_cycles: self.latency,
                l2_share_bytes: self.share[k],
            });
        }
    }
}

/// Memory latency at the bandwidth fixed point of cores with core-local
/// CPIs `base_cpi`, `refs` L2 references per instruction and fixed L2
/// miss ratios `miss`: the latency `L(D)` of the demand `D` that solves
/// `D = G(L(D))`, where `G(L) = Σ b_k / cpi_k(L)` with `b_k = refs · m` is
/// the miss traffic the cores make at latency `L`.
///
/// `D - G(L(D))` rises with `D`. If it is still negative at the
/// utilization clamp, the demand saturates and the latency is the
/// clamped one. Otherwise it is convex below the clamp, so Newton's method
/// from the solo demand `G(mem_base)` (capped at the clamp) descends to
/// the root without overshooting. It stops when a step no longer lowers
/// `D`. Adds its steps to `steps` and returns the latency and whether the
/// root settled within [`MAX_ROOT_STEPS`].
fn bandwidth_root(
    spec: &MachineSpec,
    base_cpi: &[f64],
    refs: &[f64],
    miss: &[f64],
    steps: &mut u32,
) -> (f64, bool) {
    // `G` at `latency`, and its slope `-dG/dL = Σ (b_k / cpi_k)²`.
    let traffic = |latency: f64| {
        let (mut g, mut slope) = (0.0, 0.0);
        for ((&base, &r), &m) in base_cpi.iter().zip(refs).zip(miss) {
            let q = r * m / spec.cpi(base, r, m, latency);
            g += q;
            slope += q * q;
        }
        (g, slope)
    };
    let peak = spec.peak_lines_per_cycle;
    let clamp = MAX_UTILIZATION * peak;
    let saturated = spec.mem_latency(clamp);
    if traffic(saturated).0 >= clamp {
        return (saturated, true);
    }
    let mut demand = traffic(spec.mem_base_cycles).0.min(clamp);
    for _ in 0..MAX_ROOT_STEPS {
        let latency = spec.mem_latency(demand);
        let (g, slope) = traffic(latency);
        // dL/dD = L / (peak - D) below the clamp.
        let next = demand - (demand - g) / (1.0 + slope * latency / (peak - demand));
        if next >= demand {
            return (latency, true);
        }
        demand = next;
        *steps += 1;
    }
    (spec.mem_latency(demand), false)
}

/// `Σ a_i b_i` in index order.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves the Gram system of the history columns stored in the slots
/// `order` for `gamma` (one weight per column, in `order`) by an LDLᵀ
/// factorization. Returns `false`, leaving `gamma` unspecified, when a
/// pivot falls below [`GRAM_PIVOT_TOL`] of its diagonal entry.
#[allow(clippy::needless_range_loop)]
fn solve_gram(
    gram: &[[f64; ANDERSON_DEPTH]; ANDERSON_DEPTH],
    order: &[usize],
    rhs: &[f64; ANDERSON_DEPTH],
    gamma: &mut [f64; ANDERSON_DEPTH],
) -> bool {
    let len = order.len();
    let mut l = [[0.0f64; ANDERSON_DEPTH]; ANDERSON_DEPTH];
    let mut d = [0.0f64; ANDERSON_DEPTH];
    for i in 0..len {
        for j in 0..i {
            let mut v = gram[order[i]][order[j]];
            for k in 0..j {
                v -= l[i][k] * l[j][k] * d[k];
            }
            l[i][j] = v / d[j];
        }
        let diag = gram[order[i]][order[i]];
        let mut v = diag;
        for k in 0..i {
            v -= l[i][k] * l[i][k] * d[k];
        }
        if v.is_nan() || v <= GRAM_PIVOT_TOL * diag {
            return false;
        }
        d[i] = v;
    }
    // L y = rhs, then D z = y, then Lᵀ gamma = z.
    for i in 0..len {
        let mut v = rhs[i];
        for k in 0..i {
            v -= l[i][k] * gamma[k];
        }
        gamma[i] = v;
    }
    for i in 0..len {
        gamma[i] /= d[i];
    }
    for i in (0..len).rev() {
        let mut v = gamma[i];
        for k in i + 1..len {
            v -= l[k][i] * gamma[k];
        }
        gamma[i] = v;
    }
    true
}

/// Splits `capacity` across claimants in proportion to `weights`, capping
/// each at its `limits` entry and redistributing surplus (water-filling).
///
/// Zero-weight claimants receive zero. The sum of the result never exceeds
/// `capacity`, and equals `min(capacity, sum(limits of positive-weight
/// claimants))` up to floating-point error.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn proportional_fill(capacity: f64, weights: &[f64], limits: &[f64]) -> Vec<f64> {
    assert_eq!(weights.len(), limits.len(), "mismatched slice lengths");
    let mut share = vec![0.0; weights.len()];
    water_fill(
        capacity,
        weights,
        limits,
        &mut share,
        &mut vec![false; weights.len()],
    );
    share
}

/// The water-fill behind [`proportional_fill`] and the shared-cache
/// solve, into caller-owned `share` and `capped` scratch (all four
/// slices have one entry per claimant). Both scratch slices must arrive
/// zeroed: callers clear them in a loop they already run, which keeps
/// two tiny `memset` calls per cluster off the solver's iteration.
fn water_fill(
    capacity: f64,
    weights: &[f64],
    limits: &[f64],
    share: &mut [f64],
    capped: &mut [bool],
) {
    let n = weights.len();
    let (limits, share, capped) = (&limits[..n], &mut share[..n], &mut capped[..n]);
    debug_assert!(share.iter().all(|&s| s == 0.0) && !capped.contains(&true));
    let mut remaining = capacity;
    // Each pass either terminates or caps at least one claimant, so at most
    // n passes are needed.
    for _ in 0..=n {
        let mut wsum = 0.0;
        for i in 0..n {
            if !capped[i] {
                wsum += weights[i].max(0.0);
            }
        }
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
}

/// Model-predicted rates for a segment during one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfEstimate {
    /// Cycles per instruction.
    pub cpi: f64,
    /// L2 references per instruction (inherent; passed through).
    pub l2_refs_per_ins: f64,
    /// L2 misses per reference.
    pub l2_miss_ratio: f64,
    /// Contention-inflated memory latency in cycles.
    pub mem_latency_cycles: f64,
    /// The L2 share the segment was allotted, bytes.
    pub l2_share_bytes: f64,
}

impl PerfEstimate {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        1.0 / self.cpi
    }

    /// L2 misses per instruction (the contention-easing scheduler's metric).
    pub fn l2_misses_per_ins(&self) -> f64 {
        self.l2_refs_per_ins * self.l2_miss_ratio
    }
}

/// The analytical miss-ratio curve.
///
/// * share ≥ working set → misses are only the non-reusable fraction
///   `1 - locality`;
/// * share < working set → the reusable fraction's hit probability decays
///   as `(share / ws) ^ exponent` (uniform reuse is `exponent == 1`,
///   skewed/Zipf-like reuse is concave, `exponent < 1`).
///
/// With `working_set == 0` there is nothing to re-reference, so the
/// reusable fraction trivially hits (ratio `1 - locality`).
pub fn miss_ratio(share_bytes: f64, ws_bytes: f64, locality: f64, exponent: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&locality));
    if ws_bytes <= 0.0 || share_bytes >= ws_bytes {
        return 1.0 - locality;
    }
    let frac = (share_bytes / ws_bytes).clamp(0.0, 1.0);
    1.0 - locality * frac.powf(exponent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> MachineSpec {
        MachineSpec::xeon_5160()
    }

    fn cacheable() -> SegmentProfile {
        SegmentProfile {
            base_cpi: 0.8,
            l2_refs_per_ins: 0.01,
            working_set_bytes: (2 << 20) as f64, // 2 MB, fits alone
            reuse_locality: 0.95,
        }
    }

    fn streaming() -> SegmentProfile {
        SegmentProfile {
            base_cpi: 0.7,
            l2_refs_per_ins: 0.008,
            working_set_bytes: 360e6, // TPCH-scale scan
            reuse_locality: 0.5,
        }
    }

    #[test]
    fn miss_curve_anchors() {
        // Full share: only the streaming fraction misses.
        assert!((miss_ratio(4e6, 1e6, 0.9, 1.0) - 0.1).abs() < 1e-12);
        // Zero share: everything misses.
        assert!((miss_ratio(0.0, 1e6, 0.9, 1.0) - 1.0).abs() < 1e-12);
        // Half share, uniform reuse: hit = 0.9 * 0.5.
        assert!((miss_ratio(0.5e6, 1e6, 0.9, 1.0) - 0.55).abs() < 1e-12);
        // Zero working set: nothing to re-reference, reusable part hits.
        assert!((miss_ratio(0.0, 0.0, 0.9, 1.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn miss_curve_monotone_in_share() {
        let mut prev = f64::INFINITY;
        for i in 0..=20 {
            let share = i as f64 * 1e5;
            let m = miss_ratio(share, 2e6, 0.9, 0.85);
            assert!(m <= prev + 1e-12);
            prev = m;
        }
    }

    #[test]
    fn fill_basic_proportions() {
        let s = proportional_fill(100.0, &[1.0, 3.0], &[f64::MAX, f64::MAX]);
        assert!((s[0] - 25.0).abs() < 1e-9);
        assert!((s[1] - 75.0).abs() < 1e-9);
    }

    #[test]
    fn fill_respects_limits_and_redistributes() {
        let s = proportional_fill(100.0, &[1.0, 1.0], &[10.0, f64::MAX]);
        assert!((s[0] - 10.0).abs() < 1e-9);
        assert!((s[1] - 90.0).abs() < 1e-9);
    }

    #[test]
    fn fill_zero_weights_get_nothing() {
        let s = proportional_fill(100.0, &[0.0, 2.0, 0.0], &[50.0, 50.0, 50.0]);
        assert_eq!(s[0], 0.0);
        assert!((s[1] - 50.0).abs() < 1e-9);
        assert_eq!(s[2], 0.0);
    }

    #[test]
    fn fill_total_never_exceeds_capacity() {
        let s = proportional_fill(100.0, &[5.0, 1.0, 2.0], &[30.0, 40.0, 50.0]);
        let total: f64 = s.iter().sum();
        assert!(total <= 100.0 + 1e-9);
        // All limits sum to 120 > 100, so capacity should be fully used.
        assert!(total >= 100.0 - 1e-9);
        for (i, &v) in s.iter().enumerate() {
            assert!(v <= [30.0, 40.0, 50.0][i] + 1e-9);
        }
    }

    #[test]
    fn fill_undersubscribed_leaves_surplus() {
        let s = proportional_fill(100.0, &[1.0, 1.0], &[20.0, 30.0]);
        assert!((s[0] - 20.0).abs() < 1e-9);
        assert!((s[1] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn solo_matches_closed_form() {
        let s = spec();
        let p = cacheable();
        let est = s.solo(p);
        // Working set fits: miss = 1 - locality.
        let miss = 1.0 - p.reuse_locality;
        assert!((est.l2_miss_ratio - miss).abs() < 1e-9);
        assert!(est.mem_latency_cycles >= s.mem_base_cycles);
        let cpi_floor = p.base_cpi
            + p.l2_refs_per_ins * (s.l2_hit_cycles * (1.0 - miss) + s.mem_base_cycles * miss);
        assert!(est.cpi >= cpi_floor - 1e-9);
        assert!(est.cpi < cpi_floor * 1.2, "solo inflation should be mild");
    }

    #[test]
    fn idle_cores_are_none() {
        let s = spec();
        let mut running = vec![None; 4];
        running[2] = Some(cacheable());
        let out = s.evaluate(&running);
        assert!(out[0].is_none() && out[1].is_none() && out[3].is_none());
        assert!(out[2].is_some());
    }

    #[test]
    fn cache_contention_within_cluster() {
        let s = spec();
        let solo = s.solo(cacheable()).cpi;
        // Large-footprint co-runner on the sibling core (same cluster).
        let mut running = vec![None; 4];
        running[0] = Some(cacheable());
        running[1] = Some(streaming());
        let shared = s.evaluate(&running)[0].unwrap();
        assert!(
            shared.cpi > solo * 1.05,
            "same-cluster streaming co-runner should inflate CPI: solo={solo} shared={}",
            shared.cpi
        );
        assert!(shared.l2_share_bytes < s.l2_capacity_bytes);
        assert!(shared.l2_miss_ratio > s.solo(cacheable()).l2_miss_ratio);
    }

    #[test]
    fn cross_cluster_contention_is_bandwidth_only() {
        let s = spec();
        let mut same = vec![None; 4];
        same[0] = Some(cacheable());
        same[1] = Some(streaming());
        let mut cross = vec![None; 4];
        cross[0] = Some(cacheable());
        cross[2] = Some(streaming());
        let same_est = s.evaluate(&same)[0].unwrap();
        let cross_est = s.evaluate(&cross)[0].unwrap();
        // Cross-cluster: the cacheable segment keeps its full working set
        // resident, so its miss ratio stays at the solo level.
        assert!((cross_est.l2_miss_ratio - s.solo(cacheable()).l2_miss_ratio).abs() < 1e-6);
        // ...so the same-cluster pairing hurts at least as much.
        assert!(same_est.cpi >= cross_est.cpi - 1e-9);
        // But bandwidth still bites: worse than solo.
        assert!(cross_est.cpi > s.solo(cacheable()).cpi);
    }

    #[test]
    fn four_streaming_corunners_hit_the_bandwidth_wall() {
        let s = spec();
        let solo = s.solo(streaming());
        let running = vec![Some(streaming()); 4];
        let loaded = s.evaluate(&running)[0].unwrap();
        assert!(
            loaded.cpi > solo.cpi * 1.2,
            "4 streams contend for memory: solo={} loaded={}",
            solo.cpi,
            loaded.cpi
        );
        assert!(loaded.mem_latency_cycles > solo.mem_latency_cycles);

        // Scarcer bandwidth makes the degradation strictly worse.
        let tight = MachineSpec {
            peak_lines_per_cycle: s.peak_lines_per_cycle / 2.0,
            ..s
        };
        let tight_solo = tight.solo(streaming());
        let tight_loaded = tight.evaluate(&running)[0].unwrap();
        assert!(
            tight_loaded.cpi / tight_solo.cpi > loaded.cpi / solo.cpi,
            "halving bandwidth should worsen the relative degradation"
        );
    }

    #[test]
    fn small_working_set_immune_to_corunners() {
        // The WeBWorK effect in Figure 1: compute-bound, cache-light
        // requests barely notice the multicore.
        let s = spec();
        let light = SegmentProfile {
            base_cpi: 1.2,
            l2_refs_per_ins: 0.0005,
            working_set_bytes: (64 << 10) as f64,
            reuse_locality: 0.98,
        };
        let solo = s.solo(light).cpi;
        let mut running = vec![Some(streaming()); 4];
        running[0] = Some(light);
        let loaded = s.evaluate(&running)[0].unwrap().cpi;
        assert!(
            loaded < solo * 1.10,
            "light segment should see <10% impact: solo={solo} loaded={loaded}"
        );
    }

    #[test]
    fn symmetric_profiles_get_symmetric_estimates() {
        let s = spec();
        let running = vec![Some(streaming()); 4];
        let out = s.evaluate(&running);
        let first = out[0].unwrap();
        for est in out.iter().flatten() {
            assert!((est.cpi - first.cpi).abs() < 1e-6);
            assert!((est.l2_share_bytes - first.l2_share_bytes).abs() < 1.0);
        }
    }

    #[test]
    fn zero_refs_segment_runs_at_base_cpi() {
        let s = spec();
        let pure_compute = SegmentProfile {
            base_cpi: 1.5,
            l2_refs_per_ins: 0.0,
            working_set_bytes: 0.0,
            reuse_locality: 0.0,
        };
        let est = s.solo(pure_compute);
        assert!((est.cpi - 1.5).abs() < 1e-12);
        assert_eq!(est.l2_misses_per_ins(), 0.0);
    }

    #[test]
    fn estimates_expose_derived_rates() {
        let est = spec().solo(streaming());
        assert!((est.ipc() - 1.0 / est.cpi).abs() < 1e-15);
        assert!((est.l2_misses_per_ins() - est.l2_refs_per_ins * est.l2_miss_ratio).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "one slot per core")]
    fn wrong_slot_count_panics() {
        spec().evaluate(&[None, None]);
    }

    #[test]
    #[should_panic(expected = "invalid segment profile")]
    fn invalid_profile_panics() {
        let bad = SegmentProfile {
            base_cpi: -1.0,
            l2_refs_per_ins: 0.0,
            working_set_bytes: 0.0,
            reuse_locality: 0.0,
        };
        let mut running = vec![None; 4];
        running[0] = Some(bad);
        spec().evaluate(&running);
    }

    #[test]
    fn profile_validation_messages() {
        let mut p = cacheable();
        p.reuse_locality = 1.5;
        assert!(p.validate().unwrap_err().contains("reuse_locality"));
        let mut p = cacheable();
        p.l2_refs_per_ins = f64::NAN;
        assert!(p.validate().unwrap_err().contains("l2_refs_per_ins"));
        let mut p = cacheable();
        p.working_set_bytes = -5.0;
        assert!(p.validate().unwrap_err().contains("working_set_bytes"));
        assert!(cacheable().validate().is_ok());
    }

    #[test]
    fn convergence_is_deterministic() {
        let s = spec();
        let running = vec![
            Some(streaming()),
            Some(cacheable()),
            Some(streaming()),
            None,
        ];
        let a = s.evaluate(&running);
        let b = s.evaluate(&running);
        assert_eq!(a, b);
    }

    #[test]
    fn more_corunners_never_help() {
        let s = spec();
        let p = cacheable();
        let mut prev = s.solo(p).cpi;
        for extra in 1..4 {
            let mut running = vec![None; 4];
            running[0] = Some(p);
            for slot in running.iter_mut().skip(1).take(extra) {
                *slot = Some(streaming());
            }
            let cpi = s.evaluate(&running)[0].unwrap().cpi;
            assert!(
                cpi >= prev - 1e-6,
                "adding co-runner #{extra} should not speed core 0 up: {prev} -> {cpi}"
            );
            prev = cpi;
        }
    }
}

#[cfg(test)]
mod partition_tests {
    use super::*;

    fn cacheable() -> SegmentProfile {
        SegmentProfile {
            base_cpi: 0.8,
            l2_refs_per_ins: 0.01,
            working_set_bytes: (2 << 20) as f64,
            reuse_locality: 0.95,
        }
    }

    fn streaming() -> SegmentProfile {
        SegmentProfile {
            base_cpi: 0.7,
            l2_refs_per_ins: 0.008,
            working_set_bytes: 360e6,
            reuse_locality: 0.5,
        }
    }

    #[test]
    fn equal_partition_isolates_the_cacheable_corunner() {
        let s = MachineSpec::xeon_5160();
        let running = vec![Some(cacheable()), Some(streaming()), None, None];
        // LRU sharing: the streaming co-runner squeezes the cacheable one.
        let shared = s.evaluate(&running)[0].unwrap();
        // Static halves: the cacheable working set (2 MB) fits its half.
        let half = s.l2_capacity_bytes / 2.0;
        let parts = vec![half, half, 0.0, 0.0];
        let partitioned = s.evaluate_partitioned(&running, &parts)[0].unwrap();
        assert!(
            partitioned.l2_miss_ratio < shared.l2_miss_ratio,
            "partitioning should protect the cacheable workload: {} vs {}",
            partitioned.l2_miss_ratio,
            shared.l2_miss_ratio
        );
        assert!(partitioned.cpi <= shared.cpi + 1e-9);
    }

    #[test]
    fn partitioning_cannot_help_a_working_set_beyond_its_slice() {
        let s = MachineSpec::xeon_5160();
        let running = vec![Some(streaming()); 4];
        let half = s.l2_capacity_bytes / 2.0;
        let parts = vec![half; 4];
        let shared = s.evaluate(&running)[0].unwrap();
        let partitioned = s.evaluate_partitioned(&running, &parts)[0].unwrap();
        // Streaming misses either way.
        assert!((partitioned.l2_miss_ratio - shared.l2_miss_ratio).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "shares exceed capacity")]
    fn oversubscribed_shares_panic() {
        let s = MachineSpec::xeon_5160();
        let running = vec![Some(cacheable()); 4];
        let too_much = vec![s.l2_capacity_bytes; 4];
        s.evaluate_partitioned(&running, &too_much);
    }

    #[test]
    fn partitioned_idle_cores_stay_none() {
        let s = MachineSpec::xeon_5160();
        let mut running = vec![None; 4];
        running[1] = Some(cacheable());
        let parts = vec![0.0, s.l2_capacity_bytes, 0.0, 0.0];
        let out = s.evaluate_partitioned(&running, &parts);
        assert!(out[0].is_none() && out[2].is_none());
        let est = out[1].unwrap();
        assert!((est.l2_share_bytes - s.l2_capacity_bytes).abs() < 1.0);
    }
}

#[cfg(test)]
mod bandwidth_tests {
    use super::*;

    fn stream() -> SegmentProfile {
        SegmentProfile {
            base_cpi: 0.7,
            l2_refs_per_ins: 0.008,
            working_set_bytes: 360e6,
            reuse_locality: 0.5,
        }
    }

    /// The miss traffic `G(latency)` the dense cores make, as the
    /// shared solve's map computes it from IPC `1 / cpi`.
    fn traffic(spec: &MachineSpec, cores: &[(f64, f64, f64)], latency: f64) -> f64 {
        cores
            .iter()
            .map(|&(base, refs, miss)| refs * miss / spec.cpi(base, refs, miss, latency))
            .sum()
    }

    fn root(spec: &MachineSpec, cores: &[(f64, f64, f64)]) -> (f64, bool, u32) {
        let base: Vec<f64> = cores.iter().map(|c| c.0).collect();
        let refs: Vec<f64> = cores.iter().map(|c| c.1).collect();
        let miss: Vec<f64> = cores.iter().map(|c| c.2).collect();
        let mut steps = 0;
        let (latency, settled) = bandwidth_root(spec, &base, &refs, &miss, &mut steps);
        (latency, settled, steps)
    }

    #[test]
    fn bandwidth_root_reproduces_its_demand() {
        let spec = MachineSpec::xeon_5160();
        let streams = [(0.7, 0.008, 0.62), (0.9, 0.02, 1.0), (1.1, 0.004, 0.07)];
        let (latency, settled, steps) = root(&spec, &streams);
        assert!(settled && (1..=8).contains(&steps), "{steps} steps");
        let again = spec.mem_latency(traffic(&spec, &streams, latency));
        assert!(
            ((again - latency) / latency).abs() < 1e-13,
            "{latency} vs {again}"
        );
        assert!(latency > spec.mem_base_cycles);
    }

    #[test]
    fn bandwidth_root_without_traffic_is_the_base_latency() {
        let spec = MachineSpec::xeon_5160();
        let (latency, settled, steps) = root(&spec, &[(1.2, 0.0, 1.0), (0.8, 0.01, 0.0)]);
        assert_eq!((latency, settled, steps), (spec.mem_base_cycles, true, 0));
        assert_eq!(root(&spec, &[]), (spec.mem_base_cycles, true, 0));
    }

    #[test]
    fn bandwidth_root_at_and_just_under_the_clamp() {
        let base = MachineSpec::xeon_5160();
        let saturated = base.mem_base_cycles / (1.0 - MAX_UTILIZATION);
        let stream = (0.7, 0.02, 1.0);
        // Demand past the clamp on its own: the latency is the clamped one.
        let scarce = MachineSpec {
            peak_lines_per_cycle: 1e-4,
            ..base
        };
        assert_eq!(root(&scarce, &[stream]), (saturated, true, 0));
        // Bandwidth a hair above what the clamped latency lets the stream
        // use: the root sits just under the clamp, where the latency is
        // steepest, and Newton still settles on it.
        let edge = MachineSpec {
            peak_lines_per_cycle: traffic(&base, &[stream], saturated) / MAX_UTILIZATION * 1.001,
            ..base
        };
        let (latency, settled, steps) = root(&edge, &[stream]);
        assert!(settled && steps <= 16, "{steps} steps");
        assert!(
            latency < saturated && latency > 0.5 * saturated,
            "{latency}"
        );
        let again = edge.mem_latency(traffic(&edge, &[stream], latency));
        assert!(
            ((again - latency) / latency).abs() < 1e-9,
            "{latency} vs {again}"
        );
        // The shared solve of that core, whose working set fits, ends
        // after the one evaluation that certifies the start.
        let mut running = vec![None; 4];
        running[1] = Some(SegmentProfile {
            base_cpi: 0.7,
            l2_refs_per_ins: 0.02,
            working_set_bytes: 1e6,
            reuse_locality: 0.0,
        });
        let mut out = vec![None; 4];
        let outcome = edge.evaluate_into(&running, &mut ContentionSolver::default(), &mut out);
        assert!(outcome.converged && outcome.iterations == 1, "{outcome:?}");
        let est = out[1].unwrap();
        assert!(((est.mem_latency_cycles - latency) / latency).abs() < 1e-9);
    }

    #[test]
    fn every_core_sees_one_memory_latency() {
        let running = vec![Some(stream()); 4];
        let out = MachineSpec::xeon_5160().evaluate(&running);
        // All four share the one memory system: identical latencies.
        let lats: Vec<f64> = out.iter().flatten().map(|e| e.mem_latency_cycles).collect();
        assert!(lats.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9));
    }
}
