//! Golden digests over the parts of a run that `RunReport::fingerprint`
//! does not mix in: the nine phase values, the stall sketch's count, p50
//! and p99, the trace's event count per `TraceKind`, and the lengths of
//! the four sampled series. Together with the fingerprint (mixed in
//! too) a digest pins the whole observable record of a run.
//!
//! The configurations are the eight of the `observability.rs` sweep,
//! the three fault profiles of `transport_identity.rs`, and three cases
//! no other golden covers: a syscall forwarded while the deputy is down
//! (the wait is charged to stall), eviction inside fault-path installs
//! on a lossy link, and the remigrate failure policy. Each runs traced
//! and sampled every 4 faults, which the observability suite shows
//! leaves the fingerprint unchanged.
//!
//! VM runs (`run_vm`) are pinned by fingerprint and `mean_score` for
//! 2/4/6 guests under each `VmAnalysis` mode.
//!
//! To re-capture after an *intentional* semantic change:
//! `cargo test --release -p ampom-core --test golden_digests -- --ignored --nocapture`

use std::collections::BTreeMap;

use ampom_core::prefetcher::AmpomConfig;
use ampom_core::reliability::{FailurePolicy, FaultProfile, RetryPolicy};
use ampom_core::runner::{run_workload, RunConfig, SyscallProfile};
use ampom_core::vm::{run_vm, VmAnalysis, VmWorkload};
use ampom_core::{RunReport, Scheme};
use ampom_net::fault::FaultSpec;
use ampom_sim::event::DowntimeSchedule;
use ampom_sim::rng::SimRng;
use ampom_sim::time::{SimDuration, SimTime};
use ampom_workloads::memref::Workload;
use ampom_workloads::synthetic::{Scripted, Sequential, UniformRandom};

const CPU: SimDuration = SimDuration::from_micros(10);

/// `(name, digest)` per configuration, in [`configs`] order.
const GOLDEN_DIGESTS: [(&str, u64); 14] = [
    ("openmosix", 0x81aef8c2dea66f79),
    ("noprefetch", 0xb505f9376379a769),
    ("ampom", 0x2315c4821e55146e),
    ("ffa", 0x36e8d8612e433bf4),
    ("ampom_rand", 0x7a9bad8f481be50a),
    ("pressure", 0xc6a92a37bd88da0e),
    ("syscalls", 0x08eec57304d96065),
    ("faulty", 0x3b7840024b308b36),
    ("lossy2", 0xacc3c532a3553213),
    ("outage_fallback", 0xf8d9fbe9926cd43d),
    ("outage_stall", 0xc2232bb169e91d98),
    ("syscall_outage", 0xb39fa137084be4b3),
    ("pressure_lossy", 0xda00a78e6f54ca5e),
    ("remigrate", 0x5f371276a45d8f17),
];

/// `(guests, mode, fingerprint, mean_score bits)` for [`vm_cases`].
///
/// Re-pinned when `run_vm` became the single-migrant loop over the VM's
/// reference stream. Every mean score and every count, time and byte
/// total of the AMPoM modes stayed bit-identical; what moved is the
/// fingerprint only:
/// * AMPoM modes now count `prefetched_pages_used` (the old VM loop
///   reported 0). 6 guests / shared-window prefetches nothing, so its
///   fingerprint did not move.
/// * `no-prefetch` now runs `Scheme::NoPrefetch`, whose freeze ships no
///   MPT: the freeze is shorter (72.9 ms to 69.2 ms at 4 guests), and
///   `bytes_to_dest`, `mpt_bytes` and the total shrink with it.
const GOLDEN_VM: [(usize, &str, u64, u64); 9] = [
    (2, "shared-window", 0x95f1127f445647c9, 0x3fed87913a48c65d),
    (2, "per-process", 0x84d06951774cfeb7, 0x3fefaff11aff11ad),
    (2, "no-prefetch", 0x4b352925d93e0711, 0x0000000000000000),
    (4, "shared-window", 0xb0cba0e35244797d, 0x3fec11ab016ea791),
    (4, "per-process", 0x9c856193bf541638, 0x3fef734c36b7b1d3),
    (4, "no-prefetch", 0x2946641715d89535, 0x0000000000000000),
    (6, "shared-window", 0x63032c8e16e328c2, 0x0000000000000000),
    (6, "per-process", 0x4c752087ac72435f, 0x3fef20f00537c3fe),
    (6, "no-prefetch", 0xd1eff70146c2b110, 0x0000000000000000),
];

type MakeWorkload = fn() -> Box<dyn Workload>;

fn seq512() -> Box<dyn Workload> {
    Box::new(Sequential::new(512, CPU))
}

fn seq2048() -> Box<dyn Workload> {
    Box::new(Sequential::new(2048, CPU))
}

fn rand512() -> Box<dyn Workload> {
    Box::new(UniformRandom::new(512, 4096, CPU, SimRng::seed_from_u64(7)))
}

fn two_passes() -> Box<dyn Workload> {
    let refs: Vec<u64> = (0..256).chain(0..256).collect();
    Box::new(Scripted::new(256, &refs, CPU))
}

fn outage() -> DowntimeSchedule {
    DowntimeSchedule::single(
        SimTime::from_nanos(60_000_000),
        SimTime::from_nanos(250_000_000),
    )
}

fn tight_retry() -> RetryPolicy {
    RetryPolicy {
        timeout_factor: 1,
        max_retries: 2,
    }
}

fn outage_profile(loss: f64, policy: FailurePolicy) -> FaultProfile {
    FaultProfile {
        faults: FaultSpec::lossy(loss),
        downtime: outage(),
        retry: tight_retry(),
        policy,
    }
}

fn syscalls() -> SyscallProfile {
    SyscallProfile {
        every_refs: 32,
        work: SimDuration::from_micros(100),
    }
}

fn configs() -> Vec<(&'static str, MakeWorkload, RunConfig)> {
    let ampom = || RunConfig::new(Scheme::Ampom);
    vec![
        ("openmosix", seq512, RunConfig::new(Scheme::OpenMosix)),
        ("noprefetch", seq512, RunConfig::new(Scheme::NoPrefetch)),
        ("ampom", seq512, ampom()),
        ("ffa", seq512, RunConfig::new(Scheme::Ffa)),
        ("ampom_rand", rand512, ampom()),
        ("pressure", two_passes, ampom().with_resident_limit_mb(1)),
        ("syscalls", seq512, ampom().with_syscalls(syscalls())),
        (
            "faulty",
            seq512,
            ampom()
                .with_faults(FaultProfile::lossy(0.05))
                .with_seed(1337),
        ),
        (
            "lossy2",
            seq512,
            ampom().with_faults(FaultProfile::lossy(0.02)),
        ),
        (
            "outage_fallback",
            seq512,
            ampom().with_faults(outage_profile(0.02, FailurePolicy::EagerFallback)),
        ),
        (
            "outage_stall",
            seq512,
            ampom().with_faults(outage_profile(0.05, FailurePolicy::StallReconnect)),
        ),
        (
            "syscall_outage",
            seq512,
            ampom().with_syscalls(syscalls()).with_faults(FaultProfile {
                // Late enough that demand paging has settled: the outage
                // catches a forwarded syscall, not a fault.
                downtime: DowntimeSchedule::single(
                    SimTime::from_nanos(200_000_000),
                    SimTime::from_nanos(230_000_000),
                ),
                ..FaultProfile::lossy(0.02)
            }),
        ),
        (
            "pressure_lossy",
            two_passes,
            ampom()
                .with_resident_limit_mb(1)
                .with_faults(FaultProfile::lossy(0.05))
                .with_seed(7),
        ),
        (
            "remigrate",
            seq2048,
            ampom().with_faults(outage_profile(0.02, FailurePolicy::Remigrate)),
        ),
    ]
}

fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Trace event counts keyed by the kind's name.
fn trace_counts(r: &RunReport) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for e in r.trace.events() {
        *counts.entry(format!("{:?}", e.kind)).or_insert(0) += 1;
    }
    counts
}

fn digest(r: &RunReport) -> u64 {
    let p = &r.phases;
    let mut h = r.fingerprint();
    for d in [
        p.freeze,
        p.compute,
        p.minor_fault,
        p.analysis,
        p.install,
        p.fault_stall,
        p.recovery,
        p.syscall,
        p.prefetch_overlap,
    ] {
        h = mix(h, d.as_nanos());
    }
    h = mix(h, r.stall_sketch.count());
    h = mix(h, r.stall_sketch.quantile(0.5).as_nanos());
    h = mix(h, r.stall_sketch.quantile(0.99).as_nanos());
    for (kind, n) in trace_counts(r) {
        for b in kind.bytes() {
            h = mix(h, u64::from(b));
        }
        h = mix(h, n);
    }
    match &r.series {
        Some(s) => {
            for len in [
                s.in_flight.len(),
                s.resident.len(),
                s.zone_budget.len(),
                s.link_utilization.len(),
            ] {
                h = mix(h, len as u64);
            }
        }
        None => h = mix(h, u64::MAX),
    }
    h
}

fn observed_run(mk: MakeWorkload, cfg: &RunConfig) -> RunReport {
    let cfg = cfg.clone().with_trace().with_sample_series(4);
    let mut w = mk();
    run_workload(&mut *w, &cfg)
}

fn vm_cases() -> Vec<(usize, VmAnalysis)> {
    let mut cases = Vec::new();
    for guests in [2, 4, 6] {
        for mode in [
            VmAnalysis::SharedWindow,
            VmAnalysis::PerProcess,
            VmAnalysis::NoPrefetch,
        ] {
            cases.push((guests, mode));
        }
    }
    cases
}

/// The `hpcc-repro ext-vm` set-up: sequential guests, one-reference
/// slices, pure Eq. 3 (no read-ahead floor).
fn vm_run(guests: usize, mode: VmAnalysis) -> (u64, f64) {
    let procs: Vec<Box<dyn Workload>> = (0..guests)
        .map(|_| Box::new(Sequential::new(200, SimDuration::from_micros(15))) as Box<dyn Workload>)
        .collect();
    let cfg = RunConfig::new(Scheme::Ampom).with_ampom(AmpomConfig {
        baseline_readahead: 0,
        ..AmpomConfig::default()
    });
    let out = run_vm(VmWorkload::new(procs, 1), &cfg, mode);
    (out.report.fingerprint(), out.mean_score)
}

#[test]
#[ignore = "capture helper: prints the golden tables for this tree"]
fn capture_golden_digests() {
    for (name, mk, cfg) in configs() {
        let r = observed_run(mk, &cfg);
        println!("    (\"{name}\", {:#018x}),", digest(&r));
        println!("    // {name}: phases {:?}", r.phases);
        println!(
            "    // {name}: sketch n={} faults={:?} trace={:?}",
            r.stall_sketch.count(),
            r.faults,
            trace_counts(&r)
        );
    }
    for (guests, mode) in vm_cases() {
        let (fp, score) = vm_run(guests, mode);
        println!(
            "    ({guests}, \"{}\", {fp:#018x}, {:#018x}),",
            mode.name(),
            score.to_bits()
        );
    }
}

#[test]
fn run_digests_match_goldens() {
    let cases = configs();
    assert_eq!(cases.len(), GOLDEN_DIGESTS.len());
    for ((name, mk, cfg), (golden_name, golden)) in cases.into_iter().zip(GOLDEN_DIGESTS) {
        assert_eq!(name, golden_name);
        let r = observed_run(mk, &cfg);
        assert_eq!(
            digest(&r),
            golden,
            "{name}: phases, stall sketch, trace counts or series lengths drifted \
             (phases {:?}, trace {:?})",
            r.phases,
            trace_counts(&r)
        );
    }
}

/// The three extra cases exercise what they are named for.
#[test]
fn extra_cases_reach_their_paths() {
    let by_name = |wanted: &str| {
        let (_, mk, cfg) = configs()
            .into_iter()
            .find(|(n, _, _)| *n == wanted)
            .expect("configured case");
        observed_run(mk, &cfg)
    };
    // Recovery time with no reconnect can only be a syscall's wait.
    let r = by_name("syscall_outage");
    assert!(r.faults.recovery_time > SimDuration::ZERO);
    assert_eq!(r.faults.reconnects, 0);
    let r = by_name("pressure_lossy");
    assert!(r.pages_evicted > 0);
    assert!(r.faults.messages_dropped > 0);
    let r = by_name("remigrate");
    assert!(r.faults.remigrated);
}

#[test]
fn vm_runs_match_goldens() {
    for ((guests, mode), (g, name, fp, score_bits)) in vm_cases().into_iter().zip(GOLDEN_VM) {
        assert_eq!((guests, mode.name()), (g, name));
        let (got_fp, got_score) = vm_run(guests, mode);
        assert_eq!(
            (got_fp, got_score.to_bits()),
            (fp, score_bits),
            "VM {guests} guests / {name} drifted (mean score {got_score})"
        );
    }
}
