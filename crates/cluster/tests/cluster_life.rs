//! Property and golden tests for the cluster-life engine: windowed
//! gossip freshness, the indexed `WindowView` against a linear-scan
//! reference model, thread-count/re-run determinism, job conservation,
//! deputy-chain avoidance, a pinned 16-node/100-job fingerprint, a pinned
//! fingerprint whose windows overflow, and the `results/ext_gossip.csv`
//! seed-data reproduction.

use ampom_cluster::gossip::{merge_wins, plan_gossip, GossipConfig, LoadEntry, WindowView};
use ampom_cluster::{
    run_cluster_life, simulate, BalancePolicy, ClusterConfig, CrashEvent, LifeConfig,
};
use ampom_core::migration::Scheme;
use ampom_sim::propcheck::forall;
use ampom_sim::rng::SimRng;
use ampom_sim::time::{SimDuration, SimTime};

/// The CI fault seed (default 42), so the suite exercises exactly the
/// trajectory the smoke jobs run.
fn env_seed() -> u64 {
    std::env::var("AMPOM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn life(nodes: usize, scheme: Scheme, horizon_s: u64, seed: u64) -> LifeConfig {
    let mut cfg = LifeConfig::standard(nodes, scheme);
    cfg.horizon = SimDuration::from_secs(horizon_s);
    cfg.seed = seed;
    cfg
}

/// After a warm-up of randomized push rounds, every node's window holds
/// at least one entry inside the staleness bound — the windowed view
/// keeps a usable, age-bounded picture of the cluster even when its
/// capacity is far below the node count. (Every received payload leads
/// with the sender's zero-age own entry, so a node only lacks a fresh
/// entry if nobody picked it for `max_age` straight rounds — vanishing
/// at the bound used here.)
#[test]
fn windowed_gossip_bounds_view_age() {
    forall("window-age-bound", 16, |g| {
        let n = g.usize(6..20);
        let capacity = g.usize(2..n);
        let seed = g.u64(0..1000);
        let max_age = SimDuration::from_secs(20);
        let mut views: Vec<WindowView> = (0..n).map(|i| WindowView::new(i, capacity)).collect();
        let mut rng = SimRng::seed_from_u64(seed);
        let rounds = 4 * n as u64 + 20;
        let mut now = SimTime::ZERO;
        for round in 0..rounds {
            now = SimTime::ZERO + SimDuration::from_secs(round);
            for (i, v) in views.iter_mut().enumerate() {
                v.set_own(i as f64, now);
            }
            let plans: Vec<(usize, Vec<(usize, LoadEntry)>)> = (0..n)
                .filter_map(|i| plan_gossip(&views[i], n, &mut rng))
                .collect();
            for (target, payload) in plans {
                for (node, entry) in payload {
                    views[target].merge(node, entry, now, max_age);
                }
            }
        }
        for (i, v) in views.iter().enumerate() {
            assert!(
                v.known_peers() > 0,
                "node {i}/{n} (cap {capacity}) knows nobody after {rounds} rounds"
            );
            assert!(
                v.least_loaded_peer(now, max_age).is_some(),
                "node {i}/{n} (cap {capacity}) holds only stale entries"
            );
            // The window never exceeds its capacity and never holds an
            // entry older than the run itself.
            assert!(v.known_peers() <= capacity);
            assert!(v.max_entry_age(now) <= SimDuration::from_secs(rounds));
        }
    });
}

/// The linear-scan window `WindowView` replaced: every lookup scans the
/// window and every eviction scans it for the stalest entry. Kept as the
/// reference model for the indexed implementation.
struct LinearWindow {
    me: usize,
    own: LoadEntry,
    window: Vec<(usize, LoadEntry)>,
    capacity: usize,
}

impl LinearWindow {
    fn new(me: usize, capacity: usize) -> Self {
        LinearWindow {
            me,
            own: LoadEntry {
                load: 0.0,
                measured_at: SimTime::ZERO,
            },
            window: Vec::new(),
            capacity,
        }
    }

    fn set_own(&mut self, load: f64, now: SimTime) {
        self.own = LoadEntry {
            load,
            measured_at: now,
        };
    }

    fn reset(&mut self, now: SimTime) {
        self.window.clear();
        self.set_own(0.0, now);
    }

    fn entry(&self, node: usize) -> Option<LoadEntry> {
        if node == self.me {
            return Some(self.own);
        }
        self.window
            .iter()
            .find(|(n, _)| *n == node)
            .map(|&(_, e)| e)
    }

    fn max_entry_age(&self, now: SimTime) -> SimDuration {
        self.window
            .iter()
            .map(|(_, e)| now.saturating_since(e.measured_at))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    fn merge(&mut self, node: usize, entry: LoadEntry, now: SimTime, max_age: SimDuration) -> bool {
        if node == self.me || now.saturating_since(entry.measured_at) > max_age {
            return false;
        }
        if let Some(slot) = self.window.iter_mut().find(|(n, _)| *n == node) {
            if merge_wins(slot.1, entry) {
                slot.1 = entry;
                return true;
            }
            return false;
        }
        if self.window.len() >= self.capacity {
            let victim = self
                .window
                .iter()
                .enumerate()
                .min_by(|(_, (an, ae)), (_, (bn, be))| {
                    ae.measured_at.cmp(&be.measured_at).then(bn.cmp(an))
                })
                .map(|(i, _)| i)
                .expect("non-empty window");
            if !merge_wins(self.window[victim].1, entry)
                && self.window[victim].1.measured_at >= entry.measured_at
            {
                return false;
            }
            self.window.swap_remove(victim);
        }
        self.window.push((node, entry));
        true
    }

    fn least_loaded_peer(&self, now: SimTime, max_age: SimDuration) -> Option<(usize, f64)> {
        self.window
            .iter()
            .filter(|(_, e)| now.saturating_since(e.measured_at) <= max_age)
            .map(|&(n, e)| (n, e.load))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    fn payload(&self, rng: &mut SimRng) -> Vec<(usize, LoadEntry)> {
        let mut known = self.window.clone();
        rng.shuffle(&mut known);
        known.truncate(known.len() / 2);
        let mut payload = vec![(self.me, self.own)];
        payload.extend(known);
        payload
    }
}

/// The indexed `WindowView` is observably the linear-scan window: over
/// random merge/set_own/reset sequences with small capacities, node ids
/// up to 200, coarse timestamps and few distinct loads (so staleness
/// refusals and both tie-breaks are frequent), every merge returns the
/// same verdict and every query, and the payload drawn from the same RNG
/// seed, agrees.
#[test]
fn indexed_window_matches_linear_scan_oracle() {
    const MAX_NODE: usize = 200;
    forall("window-oracle", 48, |g| {
        let capacity = g.usize(1..9);
        let me = g.usize(0..MAX_NODE + 1);
        let max_age = SimDuration::from_secs(g.u64(2..10));
        let mut fast = WindowView::new(me, capacity);
        let mut slow = LinearWindow::new(me, capacity);
        let mut now = SimTime::ZERO + SimDuration::from_secs(12);
        let steps = g.usize(50..400);
        for step in 0..steps {
            now += SimDuration::from_secs(g.u64(0..2));
            let op = g.u64(0..100);
            if op < 85 {
                let node = g.usize(0..MAX_NODE + 1);
                let entry = LoadEntry {
                    load: g.u64(0..4) as f64,
                    measured_at: now - SimDuration::from_secs(g.u64(0..12)),
                };
                assert_eq!(
                    fast.merge(node, entry, now, max_age),
                    slow.merge(node, entry, now, max_age),
                    "merge({node}, {entry:?}) at step {step}"
                );
            } else if op < 98 {
                let load = g.u64(0..4) as f64;
                fast.set_own(load, now);
                slow.set_own(load, now);
            } else {
                fast.reset(now);
                slow.reset(now);
            }
            assert_eq!(fast.known_peers(), slow.window.len(), "step {step}");
            assert_eq!(fast.max_entry_age(now), slow.max_entry_age(now));
            assert_eq!(
                fast.least_loaded_peer(now, max_age),
                slow.least_loaded_peer(now, max_age)
            );
            if step % 8 == 0 || step + 1 == steps {
                for node in 0..=MAX_NODE {
                    assert_eq!(fast.entry(node), slow.entry(node), "entry({node})");
                }
                let seed = g.u64(0..u64::MAX);
                assert_eq!(
                    fast.payload(&mut SimRng::seed_from_u64(seed)),
                    slow.payload(&mut SimRng::seed_from_u64(seed)),
                    "payload at step {step}"
                );
            }
        }
    });
}

/// The determinism contract: the same config produces bit-identical
/// outcomes at 1, 2 and 8 threads, and again on a re-run.
#[test]
fn clusterlife_is_bit_identical_across_thread_counts() {
    let base = life(24, Scheme::Ampom, 400, env_seed());
    let mut prints = Vec::new();
    for threads in [1usize, 2, 8, 8] {
        let mut cfg = base.clone();
        cfg.threads = threads;
        let out = run_cluster_life(&cfg);
        prints.push((threads, out.fingerprint(), out.completed, out.migrations));
    }
    for w in prints.windows(2) {
        assert_eq!(
            w[0].1, w[1].1,
            "fingerprint diverged between {} and {} threads: {:?} vs {:?}",
            w[0].0, w[1].0, w[0], w[1]
        );
    }
}

/// Job conservation across random configurations: every arrived job is
/// exactly once completed, failed, or still running; the migration kinds
/// sum to the total; and without crashes nothing can fail.
#[test]
fn clusterlife_conserves_jobs() {
    forall("life-conservation", 8, |g| {
        let nodes = g.usize(4..32);
        let scheme = *g.choose(&[Scheme::Ampom, Scheme::OpenMosix, Scheme::NoPrefetch]);
        let mut cfg = life(nodes, scheme, g.u64(120..360), g.u64(0..1000));
        let crashed = g.bool(0.5);
        if crashed {
            cfg.crashes = vec![CrashEvent {
                node: g.usize(0..nodes),
                at: SimTime::ZERO + SimDuration::from_secs(g.u64(10..60)),
                down_for: SimDuration::from_secs(g.u64(5..120)),
            }];
        }
        let out = run_cluster_life(&cfg);
        assert!(
            out.conserves_jobs(),
            "{} arrived != {} + {} + {}",
            out.arrived,
            out.completed,
            out.failed,
            out.running_at_horizon
        );
        assert_eq!(
            out.migrations,
            out.out_migrations + out.remigrations + out.returns_home
        );
        if !crashed {
            assert_eq!(out.failed, 0, "no crash, yet {} jobs failed", out.failed);
        }
        assert!(out.arrived > 0, "a ≥2-minute horizon must admit arrivals");
    });
}

/// Deputy-chain avoidance: however aggressively jobs remigrate and
/// return home — even across crashes — no job ever holds more than one
/// live deputy stub.
#[test]
fn clusterlife_never_chains_deputies() {
    forall("life-chain-avoidance", 8, |g| {
        let nodes = g.usize(4..24);
        let mut cfg = life(nodes, Scheme::Ampom, g.u64(120..300), g.u64(0..1000));
        // A low return margin maximises home-return churn, the case most
        // likely to leave a stale stub behind.
        cfg.return_margin = 0.5;
        if g.bool(0.5) {
            cfg.crashes = vec![CrashEvent {
                node: g.usize(0..nodes),
                at: SimTime::ZERO + SimDuration::from_secs(g.u64(10..60)),
                down_for: SimDuration::from_secs(g.u64(5..60)),
            }];
        }
        let out = run_cluster_life(&cfg);
        assert!(
            out.max_live_stubs <= 1,
            "{} live deputy stubs observed for one job",
            out.max_live_stubs
        );
        assert!(out.returns_home > 0 || out.out_migrations == 0);
    });
}

/// Golden fingerprint: a 16-node, 100-job run is pinned bit-for-bit.
/// Any engine change that alters the trajectory must update this
/// constant knowingly.
#[test]
fn clusterlife_golden_16_node_100_job_fingerprint() {
    let mut cfg = life(16, Scheme::Ampom, 3600, 0xC1FE);
    cfg.max_jobs = Some(100);
    let out = run_cluster_life(&cfg);
    assert_eq!(out.arrived, 100);
    assert!(out.conserves_jobs());
    assert_eq!(
        out.fingerprint(),
        GOLDEN_FINGERPRINT,
        "pinned 16-node/100-job trajectory moved: completed={} migrations={} \
         returns={} fingerprint={:#018x}",
        out.completed,
        out.migrations,
        out.returns_home,
        out.fingerprint()
    );
}

const GOLDEN_FINGERPRINT: u64 = 0x7d82_dcb6_f5e1_c230;

/// Eviction golden: 96 nodes gossiping into 16-entry windows overflow
/// every window within a few ticks, so this trajectory pins the
/// eviction order (stalest first, ties toward the higher node id) and
/// the payload order that follows from it. The 16-node golden and the
/// 64-node `BENCH_cluster.json` cells never fill a 64-entry window.
#[test]
fn clusterlife_golden_96_node_window_16_eviction_fingerprint() {
    let mut cfg = life(96, Scheme::Ampom, 120, 0xC1FE);
    cfg.window = 16;
    let out = run_cluster_life(&cfg);
    assert!(out.conserves_jobs());
    assert_eq!(
        out.fingerprint(),
        EVICTION_GOLDEN_FINGERPRINT,
        "pinned 96-node/window-16 trajectory moved: completed={} migrations={} \
         merged={} fingerprint={:#018x}",
        out.completed,
        out.migrations,
        out.gossip_entries_merged,
        out.fingerprint()
    );
}

const EVICTION_GOLDEN_FINGERPRINT: u64 = 0x84ac_3f18_05f6_7f39;

/// The committed `results/ext_gossip.csv` seed data reproduces from the
/// legacy simulator it was generated with — the new engine composes the
/// same gossip and balancer substrate, so this ties the cluster-life
/// work back to the seed experiment.
#[test]
fn ext_gossip_csv_reproduces() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/ext_gossip.csv");
    let committed = std::fs::read_to_string(path).expect("committed results/ext_gossip.csv");
    let mut fresh = vec!["max entry age (s),mean slowdown,migrations,load stddev".to_string()];
    for age in [1u64, 4, 8, 32, 3600] {
        let mut cfg = ClusterConfig::standard(BalancePolicy::Aggressive, Scheme::Ampom);
        cfg.gossip = GossipConfig {
            max_age: SimDuration::from_secs(age),
        };
        let out = simulate(&cfg);
        fresh.push(format!(
            "{age},{:.2},{},{:.2}",
            out.slowdown.mean(),
            out.migrations,
            out.mean_load_stddev
        ));
    }
    let committed: Vec<&str> = committed.lines().map(str::trim_end).collect();
    assert_eq!(
        committed, fresh,
        "results/ext_gossip.csv no longer reproduces; regenerate it with \
         `hpcc-repro ext-gossip --csv results`"
    );
}
