//! The cluster shard loop, for every topology: machines stepped side by
//! side within network-lookahead windows, with ledgers byte for byte
//! those of a serial loop that always takes the globally next event. A
//! one-machine topology is the same loop with no hops.
//!
//! The serial order is `(instant, rank, per-machine order)`: network
//! deliveries (rank 0, by rid and hop), then the next client arrival
//! (rank 1), then machine `i`'s own events (rank `2 + i`). A hop
//! delivers at `max(departed, link_busy) + bytes·cycles_per_byte +
//! base_latency_cycles` with `bytes >= 256`, so nothing a machine does at
//! `t` reaches another machine before `t + L`, `L = base_latency_cycles +
//! 256·cycles_per_byte` (156 144 cycles on the LAN model). With `T` the
//! earliest pending instant over transfers, the next arrival and every
//! machine, every event before `T + L` can run without hearing from
//! another machine. Requests only reach a machine along their own paths,
//! so each machine's window end is sharper than that
//! ([`TierShard::window_ends`]): a machine no pending request is headed
//! for runs on to the next arrival. One window:
//!
//! 1. takes every delivery and arrival due before its receiver's end in
//!    serial order, handing each leg to its machine as an injection;
//! 2. has each machine take its injections in order — stepping its own
//!    events strictly before each injection's instant first, as the
//!    serial loop does — then step its events before its end, all
//!    machines at once on their lanes ([`rbv_par::lockstep`]);
//! 3. applies the shard-wide side — hops and link serialization,
//!    resolutions — sorted by serial order key (each link has one sender,
//!    so its transfers serialize in serial order), and queues the span
//!    collector's calls until every action before them is known: the
//!    collector's float sums and top-k ties make that order observable.
//!
//! The serial loop stops the moment the last request resolves, and
//! engine event counts are in the ledger, so windows end at the last
//! arrival (the last request cannot resolve before it); the tail after
//! that is stepped one action at a time.
//!
//! Machines are not `Send`, so each is built on the lane that steps it.

use std::collections::{BTreeMap, HashMap, VecDeque};

use rbv_os::{Machine, RbvError, RunStats, SimConfig};
use rbv_par::{Lane, Rounds};
use rbv_sim::rng::mix64;
use rbv_sim::{Cycles, SimRng};
use rbv_trace::{ClusterHopRecord, TierSpanCollector};
use rbv_workloads::{factory_for, AppId, Request, RequestClass, RequestFactory};

use crate::{
    exp_gap, machine_config, span_collector, split_legs, ClusterSpec, LegTimes, NetworkModel,
    PassWindows, PathState, ShardJob, ShardOutput,
};

/// The smallest hop payload, bytes: [`hop_bytes`] never draws less.
const MIN_HOP_BYTES: u64 = 256;

/// The hop payload size in bytes — hash-derived (consumes no RNG
/// stream): 256 B to 4 KiB, a request/response envelope.
fn hop_bytes(shard_seed_value: u64, rid: u64, hop: u32) -> u64 {
    MIN_HOP_BYTES + mix64(shard_seed_value ^ (rid << 20) ^ (u64::from(hop) << 52)) % 3840
}

/// The network lookahead: a hop delivers at `max(departed, link_busy) +
/// bytes·cycles_per_byte + base_latency_cycles`, so nothing a machine
/// does at `t` reaches another machine before `t + lookahead`.
fn lookahead(network: NetworkModel) -> u64 {
    network
        .base_latency_cycles
        .saturating_add(MIN_HOP_BYTES.saturating_mul(network.cycles_per_byte))
}

/// A leg handed to a machine at `at` for shard-local request `local`.
struct Injection {
    at: u64,
    local: usize,
    leg: Request,
}

/// One machine's share of a round: take `injections` in order, first
/// stepping every own event strictly before each one's instant, then
/// step own events strictly before `end` — at most `limit` steps in all.
struct Command {
    machine: usize,
    injections: Vec<Injection>,
    end: u64,
    limit: u64,
}

/// How a machine-local request ended.
enum Outcome {
    Done(LegTimes),
    Lost { failed_at: u64 },
}

/// A request a machine resolved in a round, stamped with the instant of
/// the event that resolved it. `local` is `None` for an id the machine
/// was never handed.
struct Finished {
    at: u64,
    id: usize,
    local: Option<usize>,
    outcome: Outcome,
}

/// One machine's answer to a [`Command`]: what it resolved, in its own
/// event order, and when its next event is due.
struct Reply {
    machine: usize,
    finished: Vec<Finished>,
    peek: Option<u64>,
    steps: u64,
}

/// One cluster machine, built and stepped on its lane's thread.
struct Node {
    index: usize,
    machine: Machine,
    /// Stub factory: External machines never spawn, but the step API is
    /// uniform.
    factory: Box<dyn RequestFactory + Send>,
    /// Machine-local request id → shard-local request index.
    inflight: HashMap<usize, usize>,
    /// L2-MPI samples of every finished leg (the easing stock pass).
    calibration: Option<Vec<f64>>,
}

impl Node {
    fn run(&mut self, command: Command) -> Reply {
        let mut reply = Reply {
            machine: self.index,
            finished: Vec::new(),
            peek: None,
            steps: 0,
        };
        let mut budget = command.limit;
        for injection in command.injections {
            self.step_before(injection.at, &mut budget, &mut reply);
            let id = self
                .machine
                .inject(injection.leg, Cycles::new(injection.at));
            self.inflight.insert(id, injection.local);
        }
        self.step_before(command.end, &mut budget, &mut reply);
        reply.peek = self.machine.peek_time().map(Cycles::get);
        reply
    }

    /// Steps events due strictly before `end` while `budget` lasts.
    fn step_before(&mut self, end: u64, budget: &mut u64, reply: &mut Reply) {
        while *budget > 0 && self.machine.peek_time().is_some_and(|t| t.get() < end) {
            self.machine.step(self.factory.as_mut());
            *budget -= 1;
            reply.steps += 1;
            let at = self.machine.now().get();
            let (completed, failed) = self.machine.drain_finished();
            for done in completed {
                let local = self.inflight.remove(&done.id);
                if let (Some(mpi), Some(_)) = (self.calibration.as_mut(), local) {
                    mpi.extend(done.l2_mpi_samples());
                }
                reply.finished.push(Finished {
                    at,
                    id: done.id,
                    local,
                    outcome: Outcome::Done(LegTimes::of(&done)),
                });
            }
            for lost in failed {
                reply.finished.push(Finished {
                    at,
                    id: lost.id,
                    local: self.inflight.remove(&lost.id),
                    outcome: Outcome::Lost {
                        failed_at: lost.failed_at.get(),
                    },
                });
            }
        }
    }
}

/// The machines one thread steps: machine `m` lives on lane
/// `m % lanes`, at `nodes[m / lanes]`.
struct TierLane {
    nodes: Vec<Node>,
    lanes: usize,
}

impl Lane for TierLane {
    type Input = Vec<Command>;
    type Output = Vec<Reply>;
    type Done = Vec<(usize, RunStats, Option<Vec<f64>>)>;

    fn round(&mut self, commands: Vec<Command>) -> Vec<Reply> {
        commands
            .into_iter()
            .map(|command| self.nodes[command.machine / self.lanes].run(command))
            .collect()
    }

    fn done(self) -> Self::Done {
        self.nodes
            .into_iter()
            .map(|node| (node.index, node.machine.finish().stats, node.calibration))
            .collect()
    }
}

/// Client requests a shard draws ahead of their arrival while the caller
/// waits for the other lanes.
const PREFETCH_REQUESTS: usize = 8;

/// Hop counts [`TierShard::window_ends`] tells apart; a request further
/// from its next visit of a machine counts as this many hops away (an
/// earlier bound, so still exact).
const MAX_HOPS: usize = 8;

/// Where a shard-wide action sits in the serial loop's global order:
/// `(instant, rank, a, b)` with deliveries (rank 0, keyed by rid and
/// hop) before the client arrival (rank 1) before machine `i`'s events
/// (rank `2 + i`, in the machine's own order).
type OrderKey = (u64, usize, u64, u32);

/// A shard-wide action: a network delivery, a client arrival, or a
/// request a machine resolved.
enum Action {
    Delivered {
        rid: u64,
        transfer: ClusterHopRecord,
        resolves: bool,
    },
    Arrived {
        local: usize,
        at: u64,
        app: AppId,
        class: RequestClass,
        first: usize,
    },
    Finished(usize, Finished),
}

/// A span-collector call, held until every action ordered before it is
/// known (the collector's float sums and top-k ties make order
/// observable).
enum Record {
    Begin {
        rid: u64,
        at: u64,
        app: AppId,
        class: RequestClass,
    },
    Hop {
        rid: u64,
        transfer: ClusterHopRecord,
    },
    Leg {
        rid: u64,
        machine: usize,
        leg: LegTimes,
    },
    End {
        rid: u64,
        at: u64,
    },
    Fail {
        rid: u64,
        at: u64,
    },
}

/// The shard-wide state of a cluster shard — paths, links, transfers
/// and the span collector — advanced on the calling thread in the serial
/// loop's global order.
struct TierShard<'a> {
    spec: &'a ClusterSpec,
    seed: u64,
    n: usize,
    rid_base: u64,
    lanes: usize,
    tiers: &'static [&'static str],
    collector: TierSpanCollector,
    paths: Vec<PathState>,
    /// In-flight transfers keyed by `(deliver_at, rid, hop)` — the
    /// canonical delivery order.
    transfers: BTreeMap<(u64, u64, u32), ClusterHopRecord>,
    links: Vec<Vec<u64>>,
    factory: Box<dyn RequestFactory + Send>,
    /// Client requests drawn ahead of their arrival, in arrival order.
    upcoming: VecDeque<Request>,
    arrival_rng: SimRng,
    mean_gap: f64,
    next_arrival: u64,
    last_arrival: u64,
    offered: usize,
    resolved: usize,
    departures: u64,
    deliveries: u64,
    /// Injections not yet handed to their machine, in serial order.
    pending: Vec<Vec<Injection>>,
    /// Each machine's next event instant, pending injections included.
    peeks: Vec<Option<u64>>,
    /// Collector calls not yet applied, with their serial order keys.
    records: Vec<(OrderKey, Record)>,
    /// Requests resident on each machine (handed a leg, not finished
    /// with it), counted by the hops to their next visit of each machine:
    /// `reach[(s * machines + m) * MAX_HOPS + hops - 1]`, hops capped.
    reach: Vec<u32>,
    windows: PassWindows,
}

impl TierShard<'_> {
    /// A shard before its first arrival, its machines stepped on `lanes`
    /// threads.
    fn new(
        spec: &ClusterSpec,
        job: ShardJob,
        mean_service: f64,
        retain: bool,
        lanes: usize,
    ) -> TierShard<'_> {
        let ShardJob { seed, n, rid_base } = job;
        let tiers = spec.topology.tiers();
        let machines = tiers.len();
        let cores = SimConfig::paper_default().machine.topology.cores as f64;
        let mean_gap = (mean_service / (cores * spec.overload)).max(1.0);
        let arrival_rng = SimRng::seed_from(mix64(seed ^ 0xA441_73A1));
        // The last arrival's instant, from a copy of the arrival stream:
        // windows end there.
        let last_arrival = {
            let mut rng = arrival_rng.clone();
            (1..n).fold(0u64, |at, _| at + exp_gap(&mut rng, mean_gap))
        };
        TierShard {
            spec,
            seed,
            n,
            rid_base,
            lanes,
            tiers,
            collector: span_collector(retain),
            paths: Vec::with_capacity(n),
            transfers: BTreeMap::new(),
            links: vec![vec![0u64; machines]; machines],
            factory: factory_for(spec.app, seed, spec.app.harness_scale()),
            upcoming: VecDeque::with_capacity(PREFETCH_REQUESTS),
            arrival_rng,
            mean_gap,
            next_arrival: 0,
            last_arrival,
            offered: 0,
            resolved: 0,
            departures: 0,
            deliveries: 0,
            pending: (0..machines).map(|_| Vec::new()).collect(),
            peeks: vec![None; machines],
            records: Vec::new(),
            reach: vec![0; machines * machines * MAX_HOPS],
            windows: PassWindows {
                pass: "run",
                ..PassWindows::default()
            },
        }
    }

    /// Schedules the hop that carries request `local` from machine
    /// `from` toward `to`, departing at `departed`.
    fn send(&mut self, local: usize, from: usize, to: usize, departed: u64) {
        let rid = self.rid_base + local as u64;
        let hop = self.paths[local].hops;
        self.paths[local].hops += 1;
        let bytes = hop_bytes(self.seed, rid, hop);
        let start = departed.max(self.links[from][to]);
        let serialized = start + bytes * self.spec.network.cycles_per_byte;
        self.links[from][to] = serialized;
        let deliver_at = serialized + self.spec.network.base_latency_cycles;
        self.departures += 1;
        self.transfers.insert(
            (deliver_at, rid, hop),
            ClusterHopRecord {
                from: from as u32,
                to: to as u32,
                departed,
                delivered: deliver_at,
                bytes,
            },
        );
    }

    fn inject(&mut self, machine: usize, at: u64, local: usize, leg: Request) {
        self.pending[machine].push(Injection { at, local, leg });
        self.peeks[machine] = Some(self.peeks[machine].map_or(at, |t| t.min(at)));
        self.count_resident(machine, local, true);
    }

    /// Counts request `local` in (or out of) the requests resident on
    /// `machine`, running its leg `next_leg`.
    fn count_resident(&mut self, machine: usize, local: usize, arriving: bool) {
        let machines = self.peeks.len();
        let path = &self.paths[local];
        for (m, hops) in path.visits_after(path.next_leg) {
            let slot = (machine * machines + m) * MAX_HOPS + hops.min(MAX_HOPS) - 1;
            if arriving {
                self.reach[slot] += 1;
            } else {
                self.reach[slot] -= 1;
            }
        }
    }

    /// The earliest pending instant with its rank in the global order.
    fn next_event(&self) -> Option<(u64, usize)> {
        let delivery = self
            .transfers
            .first_key_value()
            .map(|(&(at, _, _), _)| (at, 0));
        let arrival = (self.offered < self.n).then_some((self.next_arrival, 1));
        let machines = self
            .peeks
            .iter()
            .enumerate()
            .filter_map(|(i, peek)| peek.map(|t| (t, 2 + i)));
        delivery.into_iter().chain(arrival).chain(machines).min()
    }

    /// Takes the transfer keyed `key` off the network. A response
    /// reaching the frontend will end its request; anything else hands
    /// the request's next leg to the receiving machine now.
    fn take_delivery(&mut self, key: (u64, u64, u32)) -> Option<(OrderKey, Action)> {
        let transfer = self.transfers.remove(&key)?;
        let (at, rid, hop) = key;
        self.deliveries += 1;
        let local = (rid - self.rid_base) as usize;
        let path = &mut self.paths[local];
        let resolves = path.next_leg == path.legs.len();
        if !resolves {
            let leg = path.take_leg(path.next_leg);
            self.inject(transfer.to as usize, at, local, leg);
        }
        Some((
            (at, 0, rid, hop),
            Action::Delivered {
                rid,
                transfer,
                resolves,
            },
        ))
    }

    /// Offers the next client request: draws it, splits it into legs and
    /// hands a frontend-first leg to the frontend now.
    fn take_arrival(&mut self) -> (OrderKey, Action) {
        let at = self.next_arrival;
        let local = self.offered;
        self.offered += 1;
        let request = match self.upcoming.pop_front() {
            Some(request) => request,
            None => self.factory.next_request(),
        };
        let (app, class) = (request.app, request.class);
        let path = split_legs(request, self.spec.topology);
        let first = path.machines.first().copied().unwrap_or(0);
        self.paths.push(path);
        if first == 0 {
            let leg = self.paths[local].take_leg(0);
            self.inject(0, at, local, leg);
        }
        self.next_arrival = at + exp_gap(&mut self.arrival_rng, self.mean_gap);
        (
            (at, 1, 0, 0),
            Action::Arrived {
                local,
                at,
                app,
                class,
                first,
            },
        )
    }

    /// Applies one action: hops, link serialization and resolutions at
    /// once, its collector calls queued under `key` for [`Self::flush`].
    fn apply(&mut self, key: OrderKey, action: Action) -> Result<(), RbvError> {
        match action {
            Action::Delivered {
                rid,
                transfer,
                resolves,
            } => {
                let at = transfer.delivered;
                self.records.push((key, Record::Hop { rid, transfer }));
                if resolves {
                    // The response hop reached the frontend: client end.
                    self.resolved += 1;
                    self.records.push((key, Record::End { rid, at }));
                }
            }
            Action::Arrived {
                local,
                at,
                app,
                class,
                first,
            } => {
                let rid = self.rid_base + local as u64;
                self.records.push((
                    key,
                    Record::Begin {
                        rid,
                        at,
                        app,
                        class,
                    },
                ));
                if first != 0 {
                    // Ingress hop: the frontend forwards the request.
                    self.send(local, 0, first, at);
                }
            }
            Action::Finished(i, finished) => self.finished(key, i, finished)?,
        }
        Ok(())
    }

    /// Books a request machine `i` resolved: its leg, then the next hop,
    /// the client end, or the response hop back to the frontend.
    fn finished(&mut self, key: OrderKey, i: usize, finished: Finished) -> Result<(), RbvError> {
        let Some(local) = finished.local else {
            let verb = match finished.outcome {
                Outcome::Done(_) => "completed",
                Outcome::Lost { .. } => "failed",
            };
            return Err(RbvError::Config(format!(
                "cluster shard: machine {i} {verb} unknown request {}",
                finished.id
            )));
        };
        let rid = self.rid_base + local as u64;
        self.count_resident(i, local, false);
        match finished.outcome {
            Outcome::Done(leg) => {
                self.records.push((
                    key,
                    Record::Leg {
                        rid,
                        machine: i,
                        leg,
                    },
                ));
                let path = &mut self.paths[local];
                path.next_leg += 1;
                if path.next_leg < path.legs.len() {
                    let to = path.machines[path.next_leg];
                    self.send(local, i, to, leg.finished);
                } else if i == 0 {
                    // Final leg ran on the frontend: the client sees the
                    // completion directly, no response hop.
                    self.resolved += 1;
                    self.records.push((
                        key,
                        Record::End {
                            rid,
                            at: leg.finished,
                        },
                    ));
                } else {
                    // Response hop back to the frontend.
                    self.send(local, i, 0, leg.finished);
                }
            }
            Outcome::Lost { failed_at } => {
                // Unreachable in v1: External arrivals exclude every
                // failure source. Kept total so an engine change cannot
                // silently strand a request.
                self.resolved += 1;
                self.records
                    .push((key, Record::Fail { rid, at: failed_at }));
            }
        }
        Ok(())
    }

    /// Applies, in serial order, every queued collector call keyed
    /// before `below`. The sort is stable: one action's calls share its
    /// key and keep their order.
    fn flush(&mut self, below: OrderKey) {
        self.records.sort_by_key(|&(key, _)| key);
        let ready = self.records.partition_point(|&(key, _)| key < below);
        for (_, record) in self.records.drain(..ready) {
            match record {
                Record::Begin {
                    rid,
                    at,
                    app,
                    class,
                } => self.collector.begin(rid, at, app, class),
                Record::Hop { rid, transfer } => self.collector.hop(rid, transfer),
                Record::Leg { rid, machine, leg } => {
                    leg.record(&mut self.collector, rid, machine, self.tiers[machine]);
                }
                Record::End { rid, at } => self.collector.end(rid, at),
                Record::Fail { rid, at } => self.collector.fail(rid, at),
            }
        }
    }

    /// Runs one round: each listed `(machine, end)` takes its pending
    /// injections and steps events before `end`, at most `limit` of them.
    fn step_machines(
        &mut self,
        rounds: &mut Rounds<'_, TierLane>,
        machines: impl Iterator<Item = (usize, u64)>,
        limit: u64,
    ) -> Vec<Reply> {
        let mut inputs: Vec<Vec<Command>> = (0..self.lanes).map(|_| Vec::new()).collect();
        for (machine, end) in machines {
            inputs[machine % self.lanes].push(Command {
                machine,
                injections: std::mem::take(&mut self.pending[machine]),
                end,
                limit,
            });
        }
        // Drawing a client request is the costliest shard-wide step and
        // depends on nothing the machines do: draw the next one while
        // the other lanes finish the round.
        let prefetch = || {
            let drawn = self.offered + self.upcoming.len();
            let room = self.upcoming.len() < PREFETCH_REQUESTS && drawn < self.n;
            if room {
                self.upcoming.push_back(self.factory.next_request());
            }
            room
        };
        let replies: Vec<Reply> = rounds.run(inputs, prefetch).into_iter().flatten().collect();
        for reply in &replies {
            self.peeks[reply.machine] = reply.peek;
        }
        replies
    }

    /// Each machine's window end: the earliest instant anything not yet
    /// handed to it could reach it. A request reaches machine `m` only
    /// through its own path, one hop of at least `L` per leg, so:
    ///
    /// * a request resident on `s` reaches `m` no sooner than `s`'s next
    ///   event plus `L` per hop to its next visit of `m`;
    /// * a request on the network, no sooner than its delivery plus `L`
    ///   per hop from the receiving leg;
    /// * a request not yet drawn may start anywhere: no sooner than the
    ///   next arrival plus `L` (plus `2L` back to the frontend, which
    ///   takes its first legs directly). A one-machine shard has nowhere
    ///   else for it to go: the window hands it its arrivals up front,
    ///   so they bound nothing.
    ///
    /// Ends stop at the last arrival, which no window takes. Every bound
    /// is at least `min(T + L, last arrival)` for the earliest pending
    /// instant `T`, so each window makes progress.
    fn window_ends(&self, lookahead: u64) -> Vec<u64> {
        let machines = self.peeks.len();
        let mut ends = vec![self.last_arrival; machines];
        let mut bound = |m: usize, at: u64, hops: usize| {
            let reach = at.saturating_add(lookahead.saturating_mul(hops as u64));
            ends[m] = ends[m].min(reach);
        };
        if self.offered < self.n && machines > 1 {
            for m in 0..machines {
                bound(m, self.next_arrival, if m == 0 { 2 } else { 1 });
            }
        }
        for (s, peek) in self.peeks.iter().enumerate() {
            let Some(next) = *peek else { continue };
            for m in 0..machines {
                let counts = &self.reach[(s * machines + m) * MAX_HOPS..][..MAX_HOPS];
                if let Some(h) = counts.iter().position(|&c| c > 0) {
                    bound(m, next, h + 1);
                }
            }
        }
        for &(at, rid, _) in self.transfers.keys() {
            let path = &self.paths[(rid - self.rid_base) as usize];
            for (m, hops) in path.visits_after(path.next_leg) {
                bound(m, at, hops);
            }
        }
        ends
    }

    /// Runs one lookahead window, machine `m` up to `ends[m]`: every
    /// delivery and arrival due before its receiver's end is taken in
    /// serial order, the machines step side by side, and every action is
    /// applied in serial order. Collector calls wait until every action
    /// before them is known: up to the earliest end.
    fn window(&mut self, rounds: &mut Rounds<'_, TierLane>, ends: &[u64]) -> Result<(), RbvError> {
        let mut actions = self.take_due(ends);
        let due: Vec<(usize, u64)> = (0..self.peeks.len())
            .filter(|&m| self.peeks[m].is_some_and(|t| t < ends[m]))
            .map(|m| (m, ends[m]))
            .collect();
        let replies = self.step_machines(rounds, due.into_iter(), u64::MAX);
        self.windows.windows += 1;
        for reply in replies {
            self.windows.window_events += reply.steps;
            let rank = 2 + reply.machine;
            for (seq, finished) in reply.finished.into_iter().enumerate() {
                actions.push((
                    (finished.at, rank, seq as u64, 0),
                    Action::Finished(reply.machine, finished),
                ));
            }
        }
        self.apply_in_order(actions)?;
        let frontier = ends.iter().copied().min().unwrap_or(0);
        self.flush((frontier, 0, 0, 0));
        Ok(())
    }

    /// Takes every delivery and arrival due before its receiver's end in
    /// serial order — a delivery before an arrival of the same instant —
    /// handing each leg to its machine as an injection.
    fn take_due(&mut self, ends: &[u64]) -> Vec<(OrderKey, Action)> {
        let latest = ends.iter().copied().max().unwrap_or(0);
        let deliveries: Vec<(u64, u64, u32)> = self
            .transfers
            .iter()
            .take_while(|(&(at, _, _), _)| at < latest)
            .filter(|(&(at, _, _), transfer)| at < ends[transfer.to as usize])
            .map(|(&key, _)| key)
            .collect();
        let mut deliveries = deliveries.into_iter().peekable();
        let mut actions: Vec<(OrderKey, Action)> = Vec::new();
        loop {
            let delivery = deliveries.peek().map(|&(at, _, _)| at);
            let arrival = (self.offered < self.n)
                .then_some(self.next_arrival)
                .filter(|&at| at < ends[0]);
            let taken = match (delivery, arrival) {
                (Some(d), Some(a)) if a < d => Some(self.take_arrival()),
                (Some(_), _) => deliveries.next().and_then(|key| self.take_delivery(key)),
                (None, Some(_)) => Some(self.take_arrival()),
                (None, None) => None,
            };
            let Some(action) = taken else { break };
            actions.push(action);
        }
        actions
    }

    /// Applies a window's actions in serial order, whatever order they
    /// were gathered in.
    fn apply_in_order(&mut self, mut actions: Vec<(OrderKey, Action)>) -> Result<(), RbvError> {
        actions.sort_unstable_by_key(|&(key, _)| key);
        for (key, action) in actions {
            self.apply(key, action)?;
        }
        Ok(())
    }

    /// Takes the one globally next action, as the serial loop does: the
    /// action of `rank` due at `at`, which must exist. A step that takes
    /// nothing is an error, so a shard never spins without progress.
    fn serial_step(
        &mut self,
        rounds: &mut Rounds<'_, TierLane>,
        at: u64,
        rank: usize,
    ) -> Result<(), RbvError> {
        let stalled = || {
            RbvError::Config(format!(
                "cluster shard stalled: nothing of rank {rank} is due at cycle {at}"
            ))
        };
        match rank {
            0 => {
                let first = self.transfers.first_key_value().map(|(&key, _)| key);
                let due = first.filter(|&(deliver_at, _, _)| deliver_at == at);
                let (key, action) = due
                    .and_then(|key| self.take_delivery(key))
                    .ok_or_else(stalled)?;
                self.apply(key, action)?;
            }
            1 if self.offered < self.n && self.next_arrival == at => {
                let (key, action) = self.take_arrival();
                self.apply(key, action)?;
            }
            1 => return Err(stalled()),
            _ => {
                let i = rank - 2;
                let step = std::iter::once((i, at.saturating_add(1)));
                for reply in self.step_machines(rounds, step, 1) {
                    if reply.steps == 0 {
                        return Err(stalled());
                    }
                    self.windows.serial_tail_events += reply.steps;
                    for (seq, finished) in reply.finished.into_iter().enumerate() {
                        self.apply((at, rank, seq as u64, 0), Action::Finished(i, finished))?;
                    }
                }
            }
        }
        self.flush((at, rank, u64::MAX, u32::MAX));
        Ok(())
    }

    /// Steps the shard until every request resolves: lookahead windows
    /// while the last request is still to arrive (none can be the last
    /// to resolve inside a window), then the serial tail one action at a
    /// time, stopping the moment the last request resolves.
    fn run(&mut self, rounds: &mut Rounds<'_, TierLane>) -> Result<(), RbvError> {
        // Learn each machine's first event instant (its start events).
        self.step_machines(rounds, (0..self.peeks.len()).map(|m| (m, 0)), 0);
        let lookahead = lookahead(self.spec.network);
        while self.resolved < self.n {
            let Some((at, rank)) = self.next_event() else {
                return Err(RbvError::Config(format!(
                    "cluster shard deadlocked with {}/{} resolved",
                    self.resolved, self.n
                )));
            };
            if at < self.last_arrival {
                let ends = self.window_ends(lookahead);
                debug_assert!(ends.iter().all(|&end| end > at));
                self.window(rounds, &ends)?;
            } else {
                self.serial_step(rounds, at, rank)?;
            }
        }
        self.flush((u64::MAX, usize::MAX, u64::MAX, u32::MAX));
        Ok(())
    }
}

/// Runs one cluster shard: `job.n` requests with globally unique ids
/// starting at `job.rid_base`, with the same event sequence, collector
/// calls and ledger bytes as a serial loop that always takes the globally
/// next event under the canonical ordering. Machines spread over `lanes`
/// threads (at most one per machine) and step side by side within
/// network-lookahead windows. When
/// `calibration` is given, per-machine L2-miss samples are collected into
/// it (the easing stock pass).
pub(crate) fn run_tier_shard(
    spec: &ClusterSpec,
    mean_service: f64,
    job: ShardJob,
    thresholds: Option<&[f64]>,
    retain: bool,
    lanes: usize,
    calibration: Option<&mut Vec<Vec<f64>>>,
) -> Result<ShardOutput, RbvError> {
    let ShardJob {
        seed: shard_seed_value,
        n,
        ..
    } = job;
    let tiers = spec.topology.tiers();
    let n_machines = tiers.len();
    let configs: Vec<SimConfig> = (0..n_machines)
        .map(|m| {
            let threshold = thresholds.and_then(|t| t.get(m).copied());
            machine_config(spec, shard_seed_value, m, threshold)
        })
        .collect();
    for cfg in &configs {
        cfg.validate()?;
    }
    let collect_mpi = calibration.is_some();
    let build = |lane: usize| TierLane {
        nodes: (lane..n_machines)
            .step_by(lanes)
            .map(|m| {
                let machine = match Machine::new(configs[m].clone(), n) {
                    Ok(machine) => machine,
                    Err(e) => unreachable!("machine configs are validated first: {e}"),
                };
                let mut node = Node {
                    index: m,
                    machine,
                    factory: factory_for(
                        spec.app,
                        mix64(shard_seed_value ^ (0xFAC7_0000 + m as u64)),
                        spec.app.harness_scale(),
                    ),
                    inflight: HashMap::new(),
                    calibration: collect_mpi.then(Vec::new),
                };
                node.machine.start(node.factory.as_mut());
                node
            })
            .collect(),
        lanes,
    };

    let mut shard = TierShard::new(spec, job, mean_service, retain, lanes);
    let (outcome, lane_done) = rbv_par::lockstep(lanes, build, |rounds| shard.run(rounds));
    outcome?;

    let mut finished: Vec<(usize, RunStats, Option<Vec<f64>>)> =
        lane_done.into_iter().flatten().collect();
    finished.sort_by_key(|&(m, _, _)| m);
    if let Some(mpi) = calibration {
        *mpi = finished
            .iter_mut()
            .map(|(_, _, samples)| samples.take().unwrap_or_default())
            .collect();
    }
    let TierShard {
        collector,
        offered,
        departures,
        deliveries,
        windows,
        ..
    } = shard;
    let (mut summary, records) = collector.into_parts();
    summary.invariants.check_request_conservation(
        offered as u64,
        summary.completed,
        summary.failed,
    );
    summary
        .invariants
        .check_hop_accounting(departures, deliveries);
    Ok(ShardOutput::new(
        summary,
        records,
        finished.into_iter().map(|(_, stats, _)| stats).collect(),
        vec![windows],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterTopology;

    /// A path over machine indices with empty legs (only the route
    /// matters to the window bound).
    fn route(machines: &[usize]) -> PathState {
        PathState {
            legs: (0..machines.len())
                .map(|_| Request {
                    app: AppId::Rubis,
                    class: RequestClass::Mbench,
                    stages: Vec::new(),
                })
                .collect(),
            machines: machines.to_vec(),
            next_leg: 0,
            hops: 0,
        }
    }

    /// A shard of three-tier RUBiS with `n` requests, ids from 100, and
    /// a 1.0e6-cycle mean service (arrivals far apart).
    fn rubis_shard(spec: &ClusterSpec, n: usize) -> TierShard<'_> {
        let job = ShardJob {
            seed: 1,
            n,
            rid_base: 100,
        };
        TierShard::new(spec, job, 1.0e6, false, 1)
    }

    /// A transfer from machine `from` to `to` delivered at `at`.
    fn transfer(from: u32, to: u32, at: u64) -> ClusterHopRecord {
        ClusterHopRecord {
            from,
            to,
            departed: 0,
            delivered: at,
            bytes: MIN_HOP_BYTES,
        }
    }

    #[test]
    fn next_event_ranks_a_delivery_before_an_arrival_of_its_instant() {
        let spec = ClusterSpec::three_tier(AppId::Rubis);
        let mut shard = rubis_shard(&spec, 4);
        shard.offered = 1;
        shard.next_arrival = 7_000;
        shard
            .transfers
            .insert((7_000, 100, 0), transfer(1, 0, 7_000));
        shard.peeks = vec![Some(7_000), Some(7_000), None];
        // Deliveries, then the arrival, then machines in index order.
        assert_eq!(shard.next_event(), Some((7_000, 0)));
        shard.transfers.clear();
        assert_eq!(shard.next_event(), Some((7_000, 1)));
        shard.offered = 4;
        assert_eq!(shard.next_event(), Some((7_000, 2)));
        shard.peeks[0] = None;
        assert_eq!(shard.next_event(), Some((7_000, 3)));
        // An earlier instant wins whatever its rank.
        shard.peeks[1] = Some(7_001);
        shard.offered = 1;
        assert_eq!(shard.next_event(), Some((7_000, 1)));
    }

    #[test]
    fn a_window_hands_a_tied_delivery_to_the_frontend_before_the_arrival() {
        let spec = ClusterSpec::three_tier(AppId::Rubis);
        let mut shard = rubis_shard(&spec, 4);
        // Request 0 is on its way back to the frontend for its last leg.
        shard.paths.push(route(&[1, 0]));
        shard.paths[0].next_leg = 1;
        shard.offered = 1;
        shard
            .transfers
            .insert((7_000, 100, 0), transfer(1, 0, 7_000));
        // Request 1 arrives on the same cycle with a frontend-only path.
        shard.next_arrival = 7_000;
        let web = factory_for(AppId::WebServer, 3, 1.0).next_request();
        shard.upcoming.push_back(web);
        let actions = shard.take_due(&[7_001; 3]);
        let keys: Vec<OrderKey> = actions.iter().map(|&(key, _)| key).collect();
        assert_eq!(keys, vec![(7_000, 0, 100, 0), (7_000, 1, 0, 0)]);
        // The frontend takes the delivered leg first: injection order
        // fixes the machine-local ids, hence the machine's noise streams.
        let handed: Vec<(u64, usize)> = shard.pending[0]
            .iter()
            .map(|injection| (injection.at, injection.local))
            .collect();
        assert_eq!(handed, vec![(7_000, 0), (7_000, 1)]);
        assert!(shard.pending[1].is_empty() && shard.pending[2].is_empty());
    }

    #[test]
    fn window_actions_apply_in_serial_order_whatever_order_they_were_gathered_in() {
        let spec = ClusterSpec::three_tier(AppId::Rubis);
        let mut shard = rubis_shard(&spec, 4);
        // Request 0's response reaches the frontend as request 1 arrives
        // there; requests 2 and 3 are lost on the db and the app tier on
        // that cycle too.
        for machines in [&[1][..], &[0], &[2], &[1]] {
            shard.paths.push(route(machines));
        }
        shard.paths[0].next_leg = 1;
        shard.offered = 4;
        let lost = |local: usize| Finished {
            at: 7_000,
            id: local,
            local: Some(local),
            outcome: Outcome::Lost { failed_at: 7_000 },
        };
        // Gathered out of serial order: the arrival before the tied
        // delivery, and machine 2's resolution before machine 1's (the
        // lane order with two lanes).
        let actions = vec![
            (
                (7_000, 1, 0, 0),
                Action::Arrived {
                    local: 1,
                    at: 7_000,
                    app: AppId::Rubis,
                    class: RequestClass::Mbench,
                    first: 0,
                },
            ),
            ((7_000, 4, 0, 0), Action::Finished(2, lost(2))),
            (
                (7_000, 0, 100, 0),
                Action::Delivered {
                    rid: 100,
                    transfer: transfer(1, 0, 7_000),
                    resolves: true,
                },
            ),
            ((7_000, 3, 0, 0), Action::Finished(1, lost(3))),
        ];
        shard.apply_in_order(actions).expect("known requests");
        let applied: Vec<OrderKey> = shard.records.iter().map(|&(key, _)| key).collect();
        assert_eq!(
            applied,
            vec![
                (7_000, 0, 100, 0),
                (7_000, 0, 100, 0),
                (7_000, 1, 0, 0),
                (7_000, 3, 0, 0),
                (7_000, 4, 0, 0),
            ]
        );
        assert_eq!(shard.resolved, 3);
    }

    #[test]
    fn window_ends_follow_each_request_route() {
        let mut spec = ClusterSpec::three_tier(AppId::Rubis);
        spec.network = NetworkModel {
            base_latency_cycles: 1_000,
            cycles_per_byte: 0,
        };
        let lookahead = lookahead(spec.network);
        assert_eq!(lookahead, 1_000);
        let job = ShardJob {
            seed: 1,
            n: 4,
            rid_base: 100,
        };
        let mut shard = TierShard::new(&spec, job, 1.0e6, false, 1);
        assert_eq!(spec.topology, ClusterTopology::ThreeTier);
        shard.last_arrival = 1_000_000;
        shard.offered = 2;
        shard.next_arrival = 50_000;
        // Request 0 runs its db leg and comes back through the app tier
        // and the frontend; request 1 is on its way to its last leg, on
        // the db.
        shard.paths.push(route(&[0, 1, 2, 1, 0]));
        shard.paths.push(route(&[0, 2]));
        shard.paths[0].next_leg = 2;
        shard.peeks = vec![Some(5_000), None, None];
        let leg = shard.paths[0].take_leg(2);
        shard.inject(2, 10_000, 0, leg);
        shard.paths[1].next_leg = 1;
        shard.transfers.insert(
            (20_000, 101, 0),
            ClusterHopRecord {
                from: 0,
                to: 2,
                departed: 0,
                delivered: 20_000,
                bytes: 0,
            },
        );
        // The frontend hears from request 0 two hops after the db's next
        // event, the app tier one hop after; nothing heads for the db
        // before the next arrival's ingress hop. The frontend's own
        // event sends nothing: no request is resident there.
        assert_eq!(shard.window_ends(lookahead), vec![12_000, 11_000, 51_000]);
        // Once request 0 leaves the db, only the arrivals bound the ends.
        shard.count_resident(2, 0, false);
        assert!(shard.reach.iter().all(|&c| c == 0));
        assert_eq!(shard.window_ends(lookahead), vec![52_000, 51_000, 51_000]);
        // No window reaches the last arrival.
        shard.next_arrival = 999_999;
        assert_eq!(shard.window_ends(lookahead), vec![1_000_000; 3]);
    }

    #[test]
    fn a_one_machine_window_runs_to_the_last_arrival() {
        let mut spec = ClusterSpec::three_tier(AppId::Tpcc);
        spec.topology = ClusterTopology::Single;
        let job = ShardJob {
            seed: 1,
            n: 4,
            rid_base: 100,
        };
        let mut shard = TierShard::new(&spec, job, 1.0e6, false, 1);
        shard.last_arrival = 1 << 40;
        shard.offered = 2;
        shard.next_arrival = 50_000;
        // A request resident on the machine, and its next event due.
        shard.paths.push(route(&[0]));
        shard.paths.push(route(&[0]));
        shard.peeks = vec![Some(5_000)];
        let leg = shard.paths[1].take_leg(0);
        shard.inject(0, 10_000, 1, leg);
        // Only arrivals reach the one machine, and the window takes every
        // one due before its end: nothing else bounds it.
        let lookahead = lookahead(spec.network);
        assert_eq!(shard.window_ends(lookahead), vec![1 << 40]);
        let actions = shard.take_due(&[1 << 40]);
        assert_eq!(actions.len(), 2, "both remaining arrivals are taken");
        assert_eq!(shard.offered, 4);
    }
}
