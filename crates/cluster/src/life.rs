//! The cluster-life engine: job arrivals, windowed gossip, lifecycle
//! placement and home-return chains at 300–1000+ nodes.
//!
//! The tick simulator in [`crate::simulation`] answers one question —
//! *does aggressive balancing pay off under a given migration scheme?* —
//! on a 16-node cluster it can afford to model with full per-node load
//! vectors. This module is the ROADMAP item 1 engine: a cluster *lives*
//! for a simulated horizon under Poisson arrivals over a kernel mix
//! ([`JobMix`]), disseminates load through bounded
//! [`crate::gossip::WindowView`]s (openMosix's oM_infoD at a scale where
//! full vectors are unaffordable), and composes the PR 8 lifecycle cost
//! model: out-migrations pay the calibrated freeze, remigrations move the
//! stub-less body again, and home-returns ship only the dirty footprint
//! ([`ampom_core::lifecycle::LifecycleCostModel`]).
//!
//! ## Deputy-chain avoidance
//!
//! openMosix never chains deputies: when an away process moves a second
//! time, the *home* deputy is re-pointed at the new remote node — the
//! intermediate node keeps nothing. The engine models this explicitly:
//! every job carries a live-stub count, out-migration sets it to 1,
//! remigration re-points (count unchanged), home-return clears it, and
//! the engine asserts the count never reaches 2. The run's observed
//! maximum is exported so tests can pin the invariant from the outside.
//!
//! ## Determinism across thread counts
//!
//! Each tick splits into a **compute** phase — every node plans its
//! gossip send and migration decision from an immutable pre-tick snapshot
//! using a per-`(tick, node)` forked RNG — and a sequential **apply**
//! phase that replays the plans in node-index order. Plans depend only on
//! the snapshot, never on other nodes' plans, so slicing the compute
//! phase across any number of worker threads cannot change a single bit
//! of the outcome. [`LifeOutcome::fingerprint`] condenses the run for the
//! equality tests.

use ampom_core::lifecycle::LifecycleCostModel;
use ampom_core::migration::Scheme;
use ampom_net::calibration::fast_ethernet;
use ampom_net::link::{Link, LinkConfig};
use ampom_obs::Series;
use ampom_sim::rng::SimRng;
use ampom_sim::stats::OnlineStats;
use ampom_sim::time::{SimDuration, SimTime};
use ampom_workloads::sizes::{sizes_for, Kernel};

use crate::balancer::{contention_factor, BalancePolicy, Migratable, MigrationModel};
use crate::gossip::{plan_gossip, LoadEntry, WindowView};
use crate::job::JobId;
use crate::simulation::freeze_bytes;

/// Fork label for the arrival-schedule stream.
const ARRIVAL_SALT: u64 = 0x4152_5256; // "ARRV"
/// Fork label for the per-tick node streams.
const NODE_SALT: u64 = 0x4E4F_4445; // "NODE"

/// One entry of the arrival mix: a kernel with its Table 1 footprint, a
/// mean demand, and how much of the footprint the kernel dirties while
/// away (drives the home-return bill).
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Which HPCC kernel the job runs.
    pub kernel: Kernel,
    /// Resident-set size in MB.
    pub memory_mb: u64,
    /// Mean CPU demand (exponentially distributed per job).
    pub mean_demand: SimDuration,
    /// Fraction of the footprint dirtied while away.
    pub dirty_fraction: f64,
    /// Relative arrival weight.
    pub weight: u64,
}

/// The arrival mix: jobs are drawn by weight.
#[derive(Debug, Clone)]
pub struct JobMix {
    /// The specs, drawn proportionally to their weights.
    pub specs: Vec<JobSpec>,
}

impl JobMix {
    /// The paper's Table 1 mix: one spec per kernel at the second problem
    /// size, dirty fractions following each kernel's store behaviour
    /// (DGEMM writes C, STREAM writes one of its three arrays per pass,
    /// RandomAccess updates nearly its whole table, FFT writes in place).
    pub fn paper_mix() -> Self {
        let spec = |kernel: Kernel, mean_demand_s: u64, dirty_fraction: f64| JobSpec {
            kernel,
            memory_mb: sizes_for(kernel)[1].memory_mb,
            mean_demand: SimDuration::from_secs(mean_demand_s),
            dirty_fraction,
            weight: 1,
        };
        JobMix {
            specs: vec![
                spec(Kernel::Dgemm, 120, 0.35),
                spec(Kernel::Stream, 60, 0.67),
                spec(Kernel::RandomAccess, 90, 0.9),
                spec(Kernel::Fft, 90, 0.5),
            ],
        }
    }

    /// Mean demand across the mix, weighted.
    pub fn mean_demand(&self) -> SimDuration {
        let total_w: u64 = self.specs.iter().map(|s| s.weight).sum();
        let weighted: f64 = self
            .specs
            .iter()
            .map(|s| s.mean_demand.as_secs_f64() * s.weight as f64)
            .sum();
        SimDuration::from_secs_f64(weighted / total_w.max(1) as f64)
    }

    fn draw(&self, rng: &mut SimRng) -> &JobSpec {
        let total_w: u64 = self.specs.iter().map(|s| s.weight).sum();
        let mut pick = rng.below(total_w.max(1));
        for s in &self.specs {
            if pick < s.weight {
                return s;
            }
            pick -= s.weight;
        }
        self.specs.last().expect("non-empty mix")
    }
}

/// A node crash: the node fails at `at`, losing every job it runs *and*
/// every away job homed on it (the deputy dependency — an away process
/// cannot outlive its home deputy), and rejoins `down_for` later with an
/// empty queue and a reset gossip window.
#[derive(Debug, Clone, Copy)]
pub struct CrashEvent {
    /// The node that fails.
    pub node: usize,
    /// When it fails.
    pub at: SimTime,
    /// How long it stays down.
    pub down_for: SimDuration,
}

/// Cluster-life configuration.
#[derive(Debug, Clone)]
pub struct LifeConfig {
    /// Cluster size.
    pub nodes: usize,
    /// Simulated horizon; arrivals stop and the run is cut here.
    pub horizon: SimDuration,
    /// Mean inter-arrival time of the cluster-wide Poisson stream.
    pub mean_interarrival: SimDuration,
    /// Fraction of nodes receiving arrivals (openMosix's home-node skew:
    /// jobs appear where users submit them).
    pub arrival_node_fraction: f64,
    /// Hard cap on generated arrivals (`None`: the horizon decides).
    pub max_jobs: Option<u64>,
    /// The arrival mix.
    pub mix: JobMix,
    /// Migration mechanism.
    pub scheme: Scheme,
    /// Balancing policy.
    pub policy: BalancePolicy,
    /// Gossip window capacity per node.
    pub window: usize,
    /// Entries older than this are refused at merge time and distrusted
    /// for decisions.
    pub max_age: SimDuration,
    /// Believed load advantage required before an away job returns home.
    pub return_margin: f64,
    /// A tick with at least this many migrations counts as a storm tick.
    pub storm_threshold: u64,
    /// Per-node link configuration.
    pub network: LinkConfig,
    /// Switch-fabric capacity as a multiple of one link.
    pub fabric_capacity_links: u64,
    /// Deputy solo saturation (contention model, as in
    /// [`crate::simulation::ClusterConfig`]).
    pub deputy_solo_saturation: f64,
    /// Node crash schedule.
    pub crashes: Vec<CrashEvent>,
    /// RNG seed.
    pub seed: u64,
    /// Compute-phase worker threads; never affects results.
    pub threads: usize,
}

impl LifeConfig {
    /// A cluster of `nodes` under the paper mix at ~70% offered load for
    /// one simulated hour.
    pub fn standard(nodes: usize, scheme: Scheme) -> Self {
        let mix = JobMix::paper_mix();
        // Offered load ≈ 0.7: cluster arrival rate = 0.7·nodes/E[demand].
        let interarrival = (mix.mean_demand().as_secs_f64() / (0.7 * nodes as f64)).max(1e-3);
        LifeConfig {
            nodes,
            horizon: SimDuration::from_secs(3600),
            mean_interarrival: SimDuration::from_secs_f64(interarrival),
            arrival_node_fraction: 0.25,
            max_jobs: None,
            mix,
            scheme,
            policy: BalancePolicy::Aggressive,
            window: 64,
            max_age: SimDuration::from_secs(8),
            return_margin: 2.0,
            storm_threshold: (nodes as u64 / 8).max(4),
            network: fast_ethernet(),
            fabric_capacity_links: (nodes as u64 / 4).max(8),
            deputy_solo_saturation: 0.1,
            crashes: Vec::new(),
            seed: 0xC1FE,
            threads: 1,
        }
    }

    /// Checks every knob against its documented domain.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err("life.nodes must be at least 2".into());
        }
        if self.horizon.is_zero() {
            return Err("life.horizon must be positive".into());
        }
        if self.mean_interarrival.is_zero() {
            return Err("life.mean_interarrival must be positive".into());
        }
        if self.mix.specs.is_empty() {
            return Err("life.mix must have at least one spec".into());
        }
        if self.mix.specs.iter().all(|s| s.weight == 0) {
            return Err("life.mix weights must not all be zero".into());
        }
        if self.window == 0 {
            return Err("life.window must be positive".into());
        }
        if self.window > WindowView::MAX_CAPACITY {
            return Err(format!(
                "life.window must be at most {}",
                WindowView::MAX_CAPACITY
            ));
        }
        if !(0.0..=1.0).contains(&self.arrival_node_fraction) || self.arrival_node_fraction == 0.0 {
            return Err("life.arrival_node_fraction must be in (0, 1]".into());
        }
        for c in &self.crashes {
            if c.node >= self.nodes {
                return Err(format!("crash names node {} of {}", c.node, self.nodes));
            }
        }
        Ok(())
    }
}

/// A job in the cluster-life engine.
#[derive(Debug, Clone)]
pub struct LifeJob {
    /// Identifier.
    pub id: JobId,
    /// The kernel it runs.
    pub kernel: Kernel,
    /// When it arrived.
    pub arrived: SimTime,
    /// Total CPU demand.
    pub demand: SimDuration,
    /// CPU work still outstanding.
    pub remaining: SimDuration,
    /// Resident-set size in MB.
    pub memory_mb: u64,
    /// Fraction of the footprint dirtied while away.
    pub dirty_fraction: f64,
    /// Times migrated (u64 — never truncates over a long horizon).
    pub migrations: u64,
    /// When the last migration's thaw completed.
    pub last_migrated: Option<SimTime>,
    /// The home node (fixed at arrival; the deputy lives here).
    pub home: usize,
    /// Live deputy stubs; chain avoidance keeps this ≤ 1 always.
    pub stubs: u8,
}

impl Migratable for LifeJob {
    fn remaining(&self) -> SimDuration {
        self.remaining
    }
    fn age(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.arrived)
    }
    fn last_migrated(&self) -> Option<SimTime> {
        self.last_migrated
    }
    fn is_done(&self) -> bool {
        self.remaining.is_zero()
    }
}

/// Aggregate outcome of a cluster-life run. Every counter is u64.
#[derive(Debug, Clone)]
pub struct LifeOutcome {
    /// Jobs that arrived inside the horizon.
    pub arrived: u64,
    /// Jobs that completed.
    pub completed: u64,
    /// Jobs lost to crashes (on a dead node, or homed on one).
    pub failed: u64,
    /// Jobs still queued or in-flight at the horizon.
    pub running_at_horizon: u64,
    /// All migrations (out + remigrations + returns).
    pub migrations: u64,
    /// Home → away out-migrations.
    pub out_migrations: u64,
    /// Away → away remigrations (stub re-pointed, never chained).
    pub remigrations: u64,
    /// Away → home returns.
    pub returns_home: u64,
    /// Gossip messages delivered.
    pub gossip_messages: u64,
    /// Window merges that changed a view.
    pub gossip_entries_merged: u64,
    /// Ticks whose migration count reached the storm threshold.
    pub storm_ticks: u64,
    /// Largest per-tick migration count observed.
    pub peak_migrations_per_tick: u64,
    /// Largest live-stub count any job ever had (chain avoidance: 1).
    pub max_live_stubs: u64,
    /// Total freeze time paid.
    pub freeze_paid: SimDuration,
    /// Total bytes moved by migrations and returns.
    pub bytes_moved: u64,
    /// Completed-job slowdown statistics.
    pub slowdown: OnlineStats,
    /// Median completed-job slowdown.
    pub p50_slowdown: f64,
    /// Tail (p99) completed-job slowdown.
    pub p99_slowdown: f64,
    /// Time-averaged stddev of per-node run-queue lengths.
    pub mean_load_stddev: f64,
    /// Load stddev at the final tick.
    pub final_load_stddev: f64,
    /// Load stddev over time (bounded, self-decimating).
    pub load_stddev_series: Series,
    /// Completions per simulated hour.
    pub throughput_jobs_per_hour: f64,
}

impl LifeOutcome {
    /// FNV-1a condensation of the run: every counter and the bit patterns
    /// of the derived floats. Equal fingerprints across thread counts and
    /// re-runs are the determinism contract.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.arrived);
        mix(self.completed);
        mix(self.failed);
        mix(self.running_at_horizon);
        mix(self.migrations);
        mix(self.out_migrations);
        mix(self.remigrations);
        mix(self.returns_home);
        mix(self.gossip_messages);
        mix(self.gossip_entries_merged);
        mix(self.storm_ticks);
        mix(self.peak_migrations_per_tick);
        mix(self.max_live_stubs);
        mix(self.freeze_paid.as_nanos());
        mix(self.bytes_moved);
        mix(self.slowdown.mean().to_bits());
        mix(self.p50_slowdown.to_bits());
        mix(self.p99_slowdown.to_bits());
        mix(self.mean_load_stddev.to_bits());
        mix(self.final_load_stddev.to_bits());
        h
    }

    /// Conservation check: every arrived job is exactly once completed,
    /// failed, or still running at the horizon.
    pub fn conserves_jobs(&self) -> bool {
        self.arrived == self.completed + self.failed + self.running_at_horizon
    }
}

struct LifeNode {
    queue: Vec<LifeJob>,
    /// Jobs frozen mid-migration with their thaw time.
    arriving: Vec<(SimTime, LifeJob)>,
    uplink: Link,
    downlink: Link,
    /// Away jobs homed here (they share this node's deputy).
    away: u64,
    up: bool,
    restart_at: Option<SimTime>,
}

/// One node's plan for a tick, computed from the pre-tick snapshot.
struct TickPlan {
    gossip: Option<(usize, Vec<(usize, LoadEntry)>)>,
    action: Option<PlannedMove>,
}

enum PlannedMove {
    /// Push `job` to `target` (out-migration or remigration).
    Migrate {
        job: JobId,
        target: usize,
        believed: f64,
    },
    /// Send the away job `job` back to its home.
    Return { job: JobId },
}

/// Runs `f(i)` for every `i in 0..n`, slicing across `threads` workers in
/// contiguous chunks and concatenating in index order. `f` must depend
/// only on `i` and captured immutable state, which is exactly why the
/// result — and everything the caller derives from it — is bit-identical
/// regardless of `threads`.
fn par_map<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 || n < 64 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                scope.spawn(move || (lo..hi).map(f).collect::<Vec<R>>())
            })
            .collect();
        for h in handles {
            out.push(h.join().expect("compute worker panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

/// Runs the cluster-life simulation over the configured horizon.
///
/// # Panics
/// Panics if the configuration fails [`LifeConfig::validate`], or if the
/// deputy-chain invariant would be violated (a job acquiring a second
/// live stub — that would be an engine bug, not a configuration error).
pub fn run_cluster_life(cfg: &LifeConfig) -> LifeOutcome {
    cfg.validate().expect("invalid LifeConfig");
    let tick = SimDuration::from_secs(1);
    let model = MigrationModel { scheme: cfg.scheme };
    let costs = LifecycleCostModel::new(cfg.scheme);
    let base_rng = SimRng::seed_from_u64(cfg.seed);

    // Pre-generate the Poisson arrival schedule (time, node, job). The
    // schedule is a pure function of (seed, config), independent of
    // everything the tick loop does.
    let mut arrival_rng = base_rng.fork(ARRIVAL_SALT);
    let arrival_nodes =
        ((cfg.nodes as f64 * cfg.arrival_node_fraction).ceil() as usize).clamp(1, cfg.nodes);
    let mut arrivals: Vec<(SimTime, usize, LifeJob)> = Vec::new();
    let mut t = SimTime::ZERO;
    let horizon_end = SimTime::ZERO + cfg.horizon;
    let mut next_id = 0u64;
    loop {
        if let Some(cap) = cfg.max_jobs {
            if next_id >= cap {
                break;
            }
        }
        let gap = arrival_rng.exponential(cfg.mean_interarrival.as_secs_f64());
        t += SimDuration::from_secs_f64(gap.max(1e-6));
        if t >= horizon_end {
            break;
        }
        let spec = *cfg.mix.draw(&mut arrival_rng);
        let demand = arrival_rng
            .exponential(spec.mean_demand.as_secs_f64())
            .max(1.0);
        let node = arrival_rng.below(arrival_nodes as u64) as usize;
        arrivals.push((
            t,
            node,
            LifeJob {
                id: JobId(next_id),
                kernel: spec.kernel,
                arrived: t,
                demand: SimDuration::from_secs_f64(demand),
                remaining: SimDuration::from_secs_f64(demand),
                memory_mb: spec.memory_mb,
                dirty_fraction: spec.dirty_fraction,
                migrations: 0,
                last_migrated: None,
                home: node,
                stubs: 0,
            },
        ));
        next_id += 1;
    }

    let mut nodes: Vec<LifeNode> = (0..cfg.nodes)
        .map(|_| LifeNode {
            queue: Vec::new(),
            arriving: Vec::new(),
            uplink: Link::new(cfg.network),
            downlink: Link::new(cfg.network),
            away: 0,
            up: true,
            restart_at: None,
        })
        .collect();
    let mut fabric = Link::new(LinkConfig {
        capacity_bytes_per_sec: cfg.network.capacity_bytes_per_sec
            * cfg.fabric_capacity_links.max(1),
        latency: cfg.network.latency,
    });
    let mut views: Vec<WindowView> = (0..cfg.nodes)
        .map(|i| WindowView::new(i, cfg.window))
        .collect();
    let mut crashes = cfg.crashes.clone();
    crashes.sort_by_key(|c| (c.at, c.node));
    let mut next_crash = 0usize;

    let mut next_arrival = 0usize;
    let mut out = LifeOutcome {
        arrived: 0,
        completed: 0,
        failed: 0,
        running_at_horizon: 0,
        migrations: 0,
        out_migrations: 0,
        remigrations: 0,
        returns_home: 0,
        gossip_messages: 0,
        gossip_entries_merged: 0,
        storm_ticks: 0,
        peak_migrations_per_tick: 0,
        max_live_stubs: 0,
        freeze_paid: SimDuration::ZERO,
        bytes_moved: 0,
        slowdown: OnlineStats::new(),
        p50_slowdown: 0.0,
        p99_slowdown: 0.0,
        mean_load_stddev: 0.0,
        final_load_stddev: 0.0,
        load_stddev_series: Series::new(512),
        throughput_jobs_per_hour: 0.0,
    };
    let mut slowdowns: Vec<f64> = Vec::new();
    let mut stddev_stats = OnlineStats::new();
    let mut final_stddev = 0.0;

    let ticks = cfg.horizon.as_nanos().div_ceil(tick.as_nanos());
    for tick_idx in 0..ticks {
        let now = SimTime::ZERO + SimDuration::from_secs(tick_idx);

        // 1. Crashes and restarts.
        while next_crash < crashes.len() && crashes[next_crash].at <= now {
            let c = crashes[next_crash];
            next_crash += 1;
            if !nodes[c.node].up {
                continue;
            }
            nodes[c.node].up = false;
            nodes[c.node].restart_at = Some(c.at + c.down_for);
            nodes[c.node].away = 0;
            // Jobs on the dead node are lost; away jobs among them
            // release their home deputy.
            let queue = std::mem::take(&mut nodes[c.node].queue);
            let arriving = std::mem::take(&mut nodes[c.node].arriving);
            for j in queue
                .into_iter()
                .chain(arriving.into_iter().map(|(_, j)| j))
            {
                out.failed += 1;
                if j.home != c.node {
                    nodes[j.home].away = nodes[j.home].away.saturating_sub(1);
                }
            }
            // Away jobs homed on the dead node lose their deputy and die
            // with it wherever they run.
            for (i, node) in nodes.iter_mut().enumerate() {
                if i == c.node {
                    continue;
                }
                let before = node.queue.len() + node.arriving.len();
                node.queue.retain(|j| j.home != c.node);
                node.arriving.retain(|(_, j)| j.home != c.node);
                out.failed += (before - node.queue.len() - node.arriving.len()) as u64;
            }
        }
        for (i, node) in nodes.iter_mut().enumerate() {
            if let Some(at) = node.restart_at {
                if at <= now {
                    node.up = true;
                    node.restart_at = None;
                    views[i].reset(now);
                }
            }
        }

        // 2. Arrivals due this tick; a down arrival node reroutes to the
        //    next up node (deterministic scan).
        while next_arrival < arrivals.len() && arrivals[next_arrival].0 <= now {
            let (_, node, mut job) = arrivals[next_arrival].clone();
            next_arrival += 1;
            let target = (0..cfg.nodes)
                .map(|k| (node + k) % cfg.nodes)
                .find(|&k| nodes[k].up);
            match target {
                Some(k) => {
                    job.home = k;
                    nodes[k].queue.push(job);
                    out.arrived += 1;
                }
                None => {
                    out.arrived += 1;
                    out.failed += 1;
                }
            }
        }

        // 3. Thaw migrants whose freeze completed.
        for node in nodes.iter_mut() {
            if !node.up {
                continue;
            }
            let (ready, pending): (Vec<_>, Vec<_>) =
                node.arriving.drain(..).partition(|(at, _)| *at <= now);
            node.arriving = pending;
            node.queue.extend(ready.into_iter().map(|(_, j)| j));
        }

        // 4. Refresh own loads.
        for (i, node) in nodes.iter().enumerate() {
            if node.up {
                views[i].set_own(node.queue.len() as f64, now);
            }
        }

        // 5. Compute phase: every up node plans gossip and (at most) one
        //    move from the immutable pre-tick snapshot. Parallel; see the
        //    module docs for why this cannot perturb determinism.
        let plans: Vec<TickPlan> = {
            let nodes = &nodes;
            let views = &views;
            let base = &base_rng;
            par_map(cfg.threads, cfg.nodes, move |i| {
                if !nodes[i].up {
                    return TickPlan {
                        gossip: None,
                        action: None,
                    };
                }
                let mut rng = base.fork(tick_idx).fork(NODE_SALT ^ i as u64);
                let gossip = plan_gossip(&views[i], cfg.nodes, &mut rng);
                let my_load = nodes[i].queue.len() as f64;

                // Home-return first: an away job goes home when the home
                // looks comfortably cheaper (return chains compose out of
                // one hop per tick).
                let mut action = None;
                let rested = |j: &LifeJob| match j.last_migrated {
                    Some(at) => now.saturating_since(at) >= crate::balancer::RESIDENCY,
                    None => true,
                };
                let returner = nodes[i]
                    .queue
                    .iter()
                    .filter(|j| j.home != i && rested(j) && !j.is_done())
                    .filter(|j| {
                        views[i].entry(j.home).is_some_and(|e| {
                            now.saturating_since(e.measured_at) <= cfg.max_age
                                && my_load - e.load >= cfg.return_margin
                        })
                    })
                    .max_by_key(|j| j.remaining);
                if let Some(j) = returner {
                    action = Some(PlannedMove::Return { job: j.id });
                } else if let Some((target, believed)) =
                    views[i].least_loaded_peer(now, cfg.max_age)
                {
                    let gap = my_load - believed;
                    if let Some(idx) = cfg.policy.pick_migrant(&nodes[i].queue, now, gap) {
                        action = Some(PlannedMove::Migrate {
                            job: nodes[i].queue[idx].id,
                            target,
                            believed,
                        });
                    }
                }
                TickPlan { gossip, action }
            })
        };

        // 6. Apply phase, sequential in node-index order.
        let mut migrations_this_tick = 0u64;
        for (i, plan) in plans.into_iter().enumerate() {
            if let Some((target, payload)) = plan.gossip {
                if nodes[target].up {
                    out.gossip_messages += 1;
                    for (node, entry) in payload {
                        if node != target && views[target].merge(node, entry, now, cfg.max_age) {
                            out.gossip_entries_merged += 1;
                        }
                    }
                }
            }
            let Some(action) = plan.action else { continue };
            let (job_id, target, believed) = match action {
                PlannedMove::Migrate {
                    job,
                    target,
                    believed,
                } => (job, target, Some(believed)),
                PlannedMove::Return { job } => {
                    let home = nodes[i]
                        .queue
                        .iter()
                        .find(|j| j.id == job)
                        .map(|j| j.home)
                        .expect("planned returner present");
                    (job, home, None)
                }
            };
            if target == i || !nodes[target].up {
                continue;
            }
            let Some(idx) = nodes[i].queue.iter().position(|j| j.id == job_id) else {
                continue;
            };
            let mut job = nodes[i].queue.swap_remove(idx);
            let going_home = target == job.home;
            let was_away = i != job.home;
            // Outbound and remigration moves pay the scheme's freeze
            // bytes; a home-return ships only the dirty footprint in
            // writeback batches.
            let bytes = if going_home {
                costs.return_bytes(job.memory_mb, job.dirty_fraction)
            } else {
                freeze_bytes(cfg.scheme, job.memory_mb)
            };
            let sw_total = if going_home {
                costs.return_freeze(job.memory_mb, job.dirty_fraction)
            } else {
                costs.outbound_freeze(job.memory_mb)
            };
            let wire = cfg.network.serialization_time(bytes).min(sw_total);
            let sw_cost = sw_total - wire;
            let up_hop = nodes[i].uplink.transmit(now, bytes);
            let through = fabric.transmit(up_hop.arrives, bytes);
            let down_hop = nodes[target].downlink.transmit(through.arrives, bytes);
            let thaw = down_hop.arrives + sw_cost;
            out.freeze_paid += thaw.since(now);
            out.bytes_moved += bytes;
            out.migrations += 1;
            migrations_this_tick += 1;
            job.migrations += 1;
            job.last_migrated = Some(thaw);
            // Deputy-chain avoidance: the stub lives at home, always.
            match (was_away, going_home) {
                (false, false) => {
                    // Out-migration: the home deputy comes alive.
                    job.stubs += 1;
                    nodes[job.home].away += 1;
                }
                (true, false) => {
                    // Remigration: the home stub is re-pointed at the new
                    // node; no intermediate stub is ever created.
                    out.remigrations += 1;
                }
                (true, true) => {
                    // Home-return: the stub is merged away.
                    job.stubs = job.stubs.saturating_sub(1);
                    nodes[job.home].away = nodes[job.home].away.saturating_sub(1);
                    out.returns_home += 1;
                }
                (false, true) => unreachable!("going home while at home"),
            }
            if !was_away && !going_home {
                out.out_migrations += 1;
            }
            assert!(
                job.stubs <= 1,
                "deputy-chain violation: job {:?} holds {} stubs",
                job.id,
                job.stubs
            );
            out.max_live_stubs = out.max_live_stubs.max(u64::from(job.stubs));
            nodes[target].arriving.push((thaw, job));
            if let Some(believed) = believed {
                // Pessimistic bump so later deciders this round do not
                // herd onto the same target.
                views[i].merge(
                    target,
                    LoadEntry {
                        load: believed + 1.0,
                        measured_at: now,
                    },
                    now,
                    cfg.max_age,
                );
            }
        }
        out.peak_migrations_per_tick = out.peak_migrations_per_tick.max(migrations_this_tick);
        if migrations_this_tick >= cfg.storm_threshold {
            out.storm_ticks += 1;
        }

        // 7. Processor sharing: away jobs pay the contention-scaled
        //    remote-paging tax against their home deputy at *today's*
        //    away count, so returning home genuinely stops the bleeding.
        let away_snapshot: Vec<u64> = nodes.iter().map(|n| n.away).collect();
        let mut freed_homes: Vec<usize> = Vec::new();
        for (at, node) in nodes.iter_mut().enumerate() {
            if !node.up || node.queue.is_empty() {
                continue;
            }
            let share = tick / node.queue.len() as u64;
            for job in node.queue.iter_mut() {
                let tax = if job.home != at {
                    model.slowdown()
                        * contention_factor(
                            cfg.deputy_solo_saturation,
                            away_snapshot[job.home].max(1),
                        )
                } else {
                    0.0
                };
                let useful = SimDuration::from_secs_f64(share.as_secs_f64() / (1.0 + tax))
                    .min(job.remaining);
                job.remaining -= useful;
            }
            let mut k = 0;
            while k < node.queue.len() {
                if node.queue[k].is_done() {
                    let j = node.queue.swap_remove(k);
                    if j.home != at {
                        freed_homes.push(j.home);
                    }
                    out.completed += 1;
                    let turnaround = (now + tick).saturating_since(j.arrived);
                    let slowdown = turnaround.as_secs_f64() / j.demand.as_secs_f64().max(1e-9);
                    out.slowdown.record(slowdown);
                    slowdowns.push(slowdown);
                } else {
                    k += 1;
                }
            }
        }
        for home in freed_homes {
            nodes[home].away = nodes[home].away.saturating_sub(1);
        }

        // 8. Balance-quality sample over up nodes.
        let mut count = 0u64;
        let mut sum = 0.0;
        for n in nodes.iter().filter(|n| n.up) {
            sum += n.queue.len() as f64;
            count += 1;
        }
        if count > 0 {
            let mean = sum / count as f64;
            let var = nodes
                .iter()
                .filter(|n| n.up)
                .map(|n| (n.queue.len() as f64 - mean).powi(2))
                .sum::<f64>()
                / count as f64;
            final_stddev = var.sqrt();
            stddev_stats.record(final_stddev);
            out.load_stddev_series
                .record(now.since(SimTime::ZERO).as_secs_f64(), final_stddev);
        }
    }

    out.running_at_horizon = nodes
        .iter()
        .map(|n| (n.queue.len() + n.arriving.len()) as u64)
        .sum();
    // Arrivals past the generated schedule never materialised; only the
    // delivered ones were counted.
    slowdowns.sort_by(f64::total_cmp);
    let quantile = |q: f64| -> f64 {
        if slowdowns.is_empty() {
            return 0.0;
        }
        let idx = ((slowdowns.len() as f64 - 1.0) * q).round() as usize;
        slowdowns[idx.min(slowdowns.len() - 1)]
    };
    out.p50_slowdown = quantile(0.50);
    out.p99_slowdown = quantile(0.99);
    out.mean_load_stddev = stddev_stats.mean();
    out.final_load_stddev = final_stddev;
    out.throughput_jobs_per_hour = out.completed as f64 / (cfg.horizon.as_secs_f64() / 3600.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(scheme: Scheme) -> LifeConfig {
        let mut cfg = LifeConfig::standard(8, scheme);
        cfg.horizon = SimDuration::from_secs(300);
        cfg.mean_interarrival = SimDuration::from_secs(4);
        cfg.threads = 1;
        cfg
    }

    #[test]
    fn life_run_completes_and_conserves() {
        let out = run_cluster_life(&small(Scheme::Ampom));
        assert!(out.arrived > 0);
        assert!(out.completed > 0);
        assert!(out.conserves_jobs(), "{out:?}");
        assert_eq!(out.failed, 0);
        assert_eq!(
            out.migrations,
            out.out_migrations + out.remigrations + out.returns_home
        );
    }

    #[test]
    fn thread_count_is_invisible() {
        let mut one = small(Scheme::Ampom);
        one.nodes = 70; // above the par_map sequential cutoff
        one.threads = 1;
        let mut four = one.clone();
        four.threads = 4;
        let a = run_cluster_life(&one);
        let b = run_cluster_life(&four);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn chain_avoidance_holds() {
        let mut cfg = small(Scheme::Ampom);
        cfg.return_margin = 1000.0; // never return: remigration chains only
        let out = run_cluster_life(&cfg);
        assert!(out.max_live_stubs <= 1);
    }

    #[test]
    fn crashes_fail_jobs_but_conserve_accounting() {
        let mut cfg = small(Scheme::Ampom);
        cfg.crashes = vec![CrashEvent {
            node: 0,
            at: SimTime::ZERO + SimDuration::from_secs(100),
            down_for: SimDuration::from_secs(60),
        }];
        let out = run_cluster_life(&cfg);
        assert!(
            out.failed > 0,
            "node 0 takes arrivals; its crash kills jobs"
        );
        assert!(out.conserves_jobs(), "{out:?}");
    }

    #[test]
    fn paper_mix_draws_cover_all_kernels() {
        let mix = JobMix::paper_mix();
        let mut rng = SimRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(mix.draw(&mut rng).kernel);
        }
        assert_eq!(seen.len(), 4);
        assert!(mix.mean_demand() > SimDuration::from_secs(80));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = LifeConfig::standard(8, Scheme::Ampom);
        cfg.nodes = 1;
        assert!(cfg.validate().is_err());
        let mut cfg = LifeConfig::standard(8, Scheme::Ampom);
        cfg.window = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = LifeConfig::standard(8, Scheme::Ampom);
        cfg.crashes = vec![CrashEvent {
            node: 99,
            at: SimTime::ZERO,
            down_for: SimDuration::from_secs(1),
        }];
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_weight_mix_is_rejected() {
        // `draw` would silently return the last spec and `mean_demand`
        // would read zero.
        let mut cfg = LifeConfig::standard(8, Scheme::Ampom);
        for spec in &mut cfg.mix.specs {
            spec.weight = 0;
        }
        assert!(cfg.validate().is_err());
        cfg.mix.specs[2].weight = 1;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn window_wider_than_a_u16_slot_is_rejected() {
        // An `Err` here, not a panic in `WindowView::new`.
        let mut cfg = LifeConfig::standard(8, Scheme::Ampom);
        cfg.window = WindowView::MAX_CAPACITY;
        assert!(cfg.validate().is_ok());
        cfg.window = WindowView::MAX_CAPACITY + 1;
        assert!(cfg.validate().is_err());
    }
}
