//! `cluster-life`: `run_cluster_life` on the standard 300-node AMPoM
//! cluster over a fixed simulated horizon, measured at one thread and
//! checked bit for bit at two, plus batch-timed replays of the gossip merge
//! and the lifecycle cost model.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ampom_cluster::gossip::{plan_gossip, LoadEntry, WindowView};
use ampom_cluster::life::{run_cluster_life, JobMix, LifeConfig, LifeOutcome};
use ampom_core::lifecycle::LifecycleCostModel;
use ampom_core::Scheme;
use ampom_sim::rng::SimRng;
use ampom_sim::time::{SimDuration, SimTime};

use crate::harness::{gauged_s, median, time_batched, HostGauge, Metrics, Tracer};
use crate::{Check, FamilyTrace, Layers, Outcome, Rounds};

const NODES: usize = 300;
/// Simulated horizon of one run, s: a run takes under half a second.
const HORIZON_S: u64 = 300;
/// Horizon of the probe other workloads' traced runs make, s.
const PROBE_HORIZON_S: u64 = 60;
/// Threads of the timed runs. `par_map` starts its workers afresh every
/// tick, so on a shared two-core host a two-thread run mostly times the
/// scheduler; two threads were no faster than one.
const MEASURED_THREADS: usize = 1;
/// Threads of the check runs, which must reproduce the timed runs.
const THREADS: usize = 2;
/// Arrival streams each run cycles through, so its figures average over
/// several inputs instead of hinging on one.
const SUB_SEEDS: u64 = 4;
/// Repetitions of the whole set-up.
const SETUP_REPS: usize = 3;
/// Gossip replay: views, entries per view, and ticks.
const GOSSIP_VIEWS: usize = 300;
const GOSSIP_WINDOW: usize = 64;
const GOSSIP_WARM_TICKS: u64 = 20;
const GOSSIP_TICKS: u64 = 40;

fn sub_seed(seed: u64, i: u64) -> u64 {
    SimRng::seed_from_u64(seed).fork(i).base_seed()
}

fn config(seed: u64, horizon_s: u64, threads: usize) -> LifeConfig {
    let mut cfg = LifeConfig::standard(NODES, Scheme::Ampom);
    cfg.horizon = SimDuration::from_secs(horizon_s);
    cfg.seed = seed;
    cfg.threads = threads;
    cfg
}

/// Median ns per `WindowView::merge` call over `plan_gossip` payloads,
/// and the share of payload entries each message actually merged.
fn gossip_layers(seed: u64, m: &mut Metrics) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut views: Vec<WindowView> = (0..GOSSIP_VIEWS)
        .map(|i| WindowView::new(i, GOSSIP_WINDOW))
        .collect();
    let max_age = SimDuration::from_secs(8);
    let mut merge_ns = Vec::new();
    let (mut messages, mut merged) = (0u64, 0u64);
    for tick in 1..=GOSSIP_WARM_TICKS + GOSSIP_TICKS {
        let now = SimTime::ZERO + SimDuration::from_secs(tick);
        for v in views.iter_mut() {
            v.set_own(rng.unit_f64() * 4.0, now);
        }
        let plans: Vec<(usize, Vec<(usize, LoadEntry)>)> = views
            .iter()
            .filter_map(|v| plan_gossip(v, GOSSIP_VIEWS, &mut rng))
            .collect();
        let entries: usize = plans.iter().map(|(_, p)| p.len()).sum();
        let t = Instant::now();
        let mut changed = 0u64;
        for (target, payload) in &plans {
            let view = &mut views[*target];
            for &(node, entry) in payload {
                changed += u64::from(view.merge(node, entry, now, max_age));
            }
        }
        let ns = t.elapsed().as_nanos() as f64;
        if tick > GOSSIP_WARM_TICKS {
            merge_ns.push(ns / entries.max(1) as f64);
            messages += plans.len() as u64;
            merged += changed;
        }
        black_box(&views);
    }
    m.add(
        "gossip.merge_ns",
        median(&merge_ns),
        "ns",
        format!("per merge call, {GOSSIP_VIEWS} views of {GOSSIP_WINDOW} entries, timed per tick"),
    );
    m.add(
        "gossip.entries_merged_per_message",
        merged as f64 / messages.max(1) as f64,
        "count",
        "payload entries that changed the receiving view",
    );
}

/// ns per job-spec pricing (outbound freeze, return bytes, return freeze)
/// over the paper mix.
fn costmodel_layers(m: &mut Metrics) {
    let model = LifecycleCostModel::new(Scheme::Ampom);
    let specs = JobMix::paper_mix().specs;
    let inputs: Vec<_> = specs.iter().cycle().take(1024).copied().collect();
    let ns = time_batched(&inputs, Duration::from_millis(20), |s| {
        black_box(model.outbound_freeze(s.memory_mb));
        black_box(model.return_bytes(s.memory_mb, s.dirty_fraction));
        black_box(model.return_freeze(s.memory_mb, s.dirty_fraction));
    });
    m.add(
        "costmodel.ns",
        ns,
        "ns",
        "per job spec priced, JobMix::paper_mix()",
    );
}

/// Alternates span-wrapped runs at one and two threads, plus an untraced
/// two-thread run, until `budget` is spent (at least one of each).
fn life_family(seed: u64, horizon_s: u64, budget: Duration) -> Result<FamilyTrace, String> {
    let one = config(seed, horizon_s, 1);
    let two = config(seed, horizon_s, THREADS);
    two.validate()?;
    let mut tracer = Tracer::default();
    let (mut w1, mut w2, mut plain) = (Vec::new(), Vec::new(), Vec::new());
    let mut checks = Vec::new();
    let mut last: Option<LifeOutcome> = None;
    let mut attempted = 0;
    let started = Instant::now();
    while w2.is_empty() || (started.elapsed() < budget && w2.len() < 50) {
        let t = Instant::now();
        let untraced = run_cluster_life(&two);
        plain.push(t.elapsed().as_secs_f64());
        tracer.set_op(w2.len() as u64);
        let mut timed = |cfg: &LifeConfig, name: &'static str, walls: &mut Vec<f64>| {
            let t = Instant::now();
            let span = tracer.begin(name);
            let o = run_cluster_life(cfg);
            tracer.end(span);
            walls.push(t.elapsed().as_secs_f64());
            o
        };
        let at1 = timed(&one, "life.run_threads_1", &mut w1);
        let at2 = timed(&two, "life.run_threads_2", &mut w2);
        attempted += 3;
        let same =
            untraced.fingerprint() == at2.fingerprint() && at1.fingerprint() == at2.fingerprint();
        if !same || checks.is_empty() {
            checks.push(Check::new(
                "LifeOutcome identical traced and untraced, at 1 and 2 threads",
                same,
                format!("{:#x}", at2.fingerprint()),
            ));
        }
        last = Some(at2);
    }
    let o = last.expect("one traced round");
    checks.push(Check::new(
        "LifeOutcome conserves jobs",
        o.conserves_jobs(),
        "",
    ));
    let mut m = Metrics::default();
    m.add(
        "life.thread_speedup",
        median(&w1) / median(&w2),
        "ratio",
        format!("wall at 1 thread / at {THREADS} threads"),
    );
    m.add(
        "life.migrations",
        o.migrations as f64,
        "count",
        format!("{NODES} nodes, {horizon_s} s"),
    );
    m.add("life.storm_ticks", o.storm_ticks as f64, "count", "");
    gossip_layers(seed, &mut m);
    costmodel_layers(&mut m);
    Ok(FamilyTrace {
        layers: m,
        spans: tracer.spans().to_vec(),
        checks,
        attempted,
        overhead_share: median(&w2) / median(&plain) - 1.0,
    })
}

/// The cluster layers at probe size, for workloads that do not reach them.
pub fn probe(seed: u64) -> Result<FamilyTrace, String> {
    life_family(seed, PROBE_HORIZON_S, Duration::ZERO)
}

pub fn cluster_life(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let config_text = format!(
        "cluster-life nodes={NODES} scheme=AMPoM mix=paper horizon_s={HORIZON_S} \
         threads={MEASURED_THREADS} check_threads={THREADS} arrival_streams={SUB_SEEDS}"
    );
    let mut out = Outcome::new(config_text, MEASURED_THREADS);
    if trace {
        let budget = Duration::from_secs_f64(seconds);
        let life = life_family(sub_seed(seed, 0), HORIZON_S, budget)?;
        out.add_traced(seed, vec![(Layers::Life, life)])?;
        return Ok(out);
    }

    // Set-up: build and validate each arrival stream's configuration and
    // run its reference, which every timed run and the two-thread check
    // runs must reproduce bit for bit. The whole set-up repeats; `setup_s`
    // sums each stream's median, so it is the time of one whole set-up.
    let mut gauge = HostGauge::new();
    let mut per_stream = vec![Vec::new(); SUB_SEEDS as usize];
    let mut reference = Vec::new();
    let mut timed = Vec::new();
    let mut setup_repeats = true;
    for rep in 0..SETUP_REPS {
        for (i, walls) in per_stream.iter_mut().enumerate() {
            let reading = gauge.read()?;
            let t = Instant::now();
            let cfg = config(sub_seed(seed, i as u64), HORIZON_S, MEASURED_THREADS);
            cfg.validate()?;
            let fp = run_cluster_life(&cfg).fingerprint();
            walls.push(gauged_s(t.elapsed().as_secs_f64(), reading));
            out.attempted += 1;
            if rep == 0 {
                reference.push(fp);
                timed.push(cfg);
            } else if fp != reference[i] {
                setup_repeats = false;
                out.failed += 1;
            }
        }
    }
    out.checks.push(Check::new(
        "set-up references repeat bit for bit",
        setup_repeats,
        format!("{SETUP_REPS} set-ups of {SUB_SEEDS} arrival streams"),
    ));
    let setup_s = per_stream.iter().map(|w| median(w)).sum();

    let mut last = None;
    let mut run_round = |i: usize| -> Result<(u64, u64), String> {
        let o = run_cluster_life(&timed[i % timed.len()]);
        let completed = o.completed;
        let ok = o.conserves_jobs() && o.fingerprint() == reference[i % reference.len()];
        last = Some(o);
        Ok((completed, u64::from(!ok)))
    };
    run_round(0)?;
    let rounds = Rounds::measure(seconds, timed.len(), &mut gauge, &mut run_round)?;
    let o = last.expect("rounds ran");
    let mismatched = rounds.fingerprints.iter().filter(|&&f| f != 0).count();
    out.attempted += rounds.walls.len() as u64;
    out.failed += mismatched as u64;
    out.checks.push(Check::new(
        "every timed LifeOutcome repeats its stream's reference and conserves jobs",
        mismatched == 0,
        format!(
            "{} of {} runs over {SUB_SEEDS} arrival streams",
            rounds.walls.len() - mismatched,
            rounds.walls.len()
        ),
    ));

    // After timing: each stream once at two threads, which must give the
    // one-thread outcome bit for bit.
    let mut two_mismatched = 0;
    for (i, fp) in reference.iter().enumerate() {
        let cfg = config(sub_seed(seed, i as u64), HORIZON_S, THREADS);
        cfg.validate()?;
        let o = run_cluster_life(&cfg);
        out.attempted += 1;
        if !o.conserves_jobs() || o.fingerprint() != *fp {
            two_mismatched += 1;
        }
    }
    out.failed += two_mismatched;
    out.checks.push(Check::new(
        "LifeOutcome at 2 threads is bit-identical to 1 thread and conserves jobs",
        two_mismatched == 0,
        format!("{SUB_SEEDS} arrival streams, after the timed runs"),
    ));
    out.add_batch_e2e(
        setup_s,
        &rounds,
        "completed jobs per reference-host CPU second",
        "reference-host CPU µs of one run_cluster_life, median run per arrival stream, median over streams",
    );

    let n = &mut out.named;
    n.add(
        "cluster_jobs_per_host_s",
        rounds.throughput(),
        "1/s",
        "median run per arrival stream",
    );
    n.add(
        "cluster_jobs_per_host_s_all_rounds",
        rounds.mean_throughput(),
        "1/s",
        "over every run, host contention included",
    );
    n.add(
        "cluster_jobs_per_hour",
        o.throughput_jobs_per_hour,
        "1/sim_h",
        "simulated throughput",
    );
    n.add(
        "cluster_p99_slowdown",
        o.p99_slowdown,
        "ratio",
        format!(
            "LifeOutcome p99 over {} completed jobs{}",
            o.completed,
            if o.completed >= 1000 {
                ""
            } else {
                "; fewer than 10 samples lie beyond it"
            }
        ),
    );
    n.add(
        "cluster_p50_slowdown",
        o.p50_slowdown,
        "ratio",
        format!("over {} completed jobs", o.completed),
    );
    Ok(out)
}
