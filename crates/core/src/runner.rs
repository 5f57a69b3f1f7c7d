//! The experiment runner: executes one workload under one migration
//! scheme and measures everything the paper reports.
//!
//! The runner is a process-centric discrete-event simulation. The migrant
//! is the only active computation; its clock advances through compute
//! (per-touch CPU from the workload), fault handling (analysis, paging
//! requests, stalls) and page installs. The network side is exact: the
//! reply link is a FIFO, so every page's arrival time is known the moment
//! the deputy enqueues it, and prefetched pages stream back-to-back while
//! the migrant computes — the paper's pipelining effect falls out of the
//! model rather than being assumed.
//!
//! Fault semantics follow Algorithm 1 and the Linux 2.4 reality the paper
//! built on:
//!
//! * **every** first touch of a non-resident page is a page fault
//!   (recorded in the lookback window), whether the page must be fetched,
//!   is already in flight, or has arrived and merely needs to be copied in
//!   ("if pages prefetched last time have arrived then copy these pages to
//!   the migrant's address space");
//! * only faults that must *request* the missing page count as "page fault
//!   requests" (the Figure 7 metric);
//! * the migrant stalls only for the faulted page, never for prefetches.
//!
//! This module holds the run's configuration and the simulation entry
//! points; the loop itself is [`run_with_transport`], run here over a
//! [`SimulatedTransport`].

use ampom_net::link::LinkConfig;
use ampom_sim::time::SimDuration;
use ampom_workloads::memref::Workload;

use crate::error::AmpomError;
use crate::lifecycle::WritebackSpec;
use crate::metrics::RunReport;
use crate::migration::Scheme;
use crate::policy::PolicySpec;
use crate::prefetcher::AmpomConfig;
use crate::reliability::{FailurePolicy, FaultProfile};
use crate::transport::{run_with_transport, SimulatedTransport};

/// Cost of servicing a minor fault (anonymous zero-fill) in the kernel.
pub const MINOR_FAULT_COST: SimDuration = SimDuration::from_micros(1);

/// Cost of copying one arrived page from the staging buffer into the
/// migrant's address space and fixing up its page-table entry.
pub const PAGE_INSTALL_COST: SimDuration = SimDuration::from_micros(1);

/// Models an I/O-bound phase: every `every_refs` references the process
/// issues a system call that must be forwarded to the home-node deputy
/// (openMosix's "home dependency", paper §2.2/§7).
#[derive(Debug, Clone, Copy)]
pub struct SyscallProfile {
    /// References between consecutive system calls.
    pub every_refs: u64,
    /// Work the call performs at the home node (0 for getpid-class).
    pub work: SimDuration,
}

/// Cross-traffic specification for network-load experiments.
#[derive(Debug, Clone, Copy)]
pub struct CrossTrafficSpec {
    /// Offered foreign load on the reply direction, bytes/s.
    pub bytes_per_sec: u64,
    /// Burst size of each foreign message.
    pub burst_bytes: u64,
}

/// Configuration of one run.
///
/// Construct with [`RunConfig::new`] and the `with_*` builder methods —
/// or, preferably, through the [`crate::experiment::Experiment`] builder,
/// which validates the configuration and returns
/// [`crate::error::AmpomError`] on misuse. Poking fields directly is
/// discouraged: it bypasses validation and new fields may change the
/// struct shape between releases.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Migration scheme under test.
    pub scheme: Scheme,
    /// Link configuration of the home↔destination path (use
    /// [`ampom_net::calibration::fast_ethernet`] or a shaped config).
    pub link: LinkConfig,
    /// AMPoM tunables (ignored by the other schemes).
    pub ampom: AmpomConfig,
    /// Prefetch policy driving the per-fault analysis under
    /// [`Scheme::Ampom`] (the other schemes never analyse). The default,
    /// [`PolicySpec::Ampom`], is the paper's engine and is pinned
    /// bit-identical to the pre-trait path by the golden fingerprints.
    pub policy: PolicySpec,
    /// Record a Figure 2 style timeline.
    pub trace: bool,
    /// Optional foreign traffic on the reply link.
    pub cross_traffic: Option<CrossTrafficSpec>,
    /// Optional forwarded-system-call workload (the home dependency).
    pub syscalls: Option<SyscallProfile>,
    /// Sample time series (in-flight pages, resident set, zone budgets,
    /// link utilisation) every `n` faults; `None` disables sampling.
    pub sample_series_every: Option<u64>,
    /// Destination-node RAM available to the migrant, in MB. When the
    /// resident set would exceed it, CLOCK eviction pushes victims back
    /// to the home node (swap-over-network — the testbed's 512 MB nodes
    /// could not hold a 575 MB migrant). `None` = unlimited.
    pub resident_limit_mb: Option<u64>,
    /// Seed for the cross-traffic arrival process.
    pub seed: u64,
    /// Optional failure model: message loss/jitter on both link
    /// directions, scheduled deputy outages, and the recovery protocol's
    /// knobs. `None` (or a null profile) runs the exact fault-free path.
    pub faults: Option<FaultProfile>,
    /// Optional background writeback: dirty pages flow home in delta
    /// batches on the fault cadence (see [`crate::lifecycle`]). `None`
    /// keeps forward runs bit-identical to the golden fingerprints.
    pub writeback: Option<WritebackSpec>,
}

impl RunConfig {
    /// A run of `scheme` on the standard cluster LAN.
    pub fn new(scheme: Scheme) -> Self {
        RunConfig {
            scheme,
            link: ampom_net::calibration::fast_ethernet(),
            ampom: AmpomConfig::default(),
            policy: PolicySpec::default(),
            trace: false,
            cross_traffic: None,
            syscalls: None,
            sample_series_every: None,
            resident_limit_mb: None,
            seed: 0x5EED,
            faults: None,
            writeback: None,
        }
    }

    /// Same run on a different link (e.g. the §5.5 broadband emulation).
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Enables the event trace.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Replaces the AMPoM tunables (ignored by the other schemes).
    pub fn with_ampom(mut self, ampom: AmpomConfig) -> Self {
        self.ampom = ampom;
        self
    }

    /// Selects the prefetch policy (see [`PolicySpec`]). Only
    /// meaningful under [`Scheme::Ampom`].
    pub fn with_policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Adds foreign traffic on the reply link.
    pub fn with_cross_traffic(mut self, spec: CrossTrafficSpec) -> Self {
        self.cross_traffic = Some(spec);
        self
    }

    /// Adds a forwarded-system-call workload (the home dependency).
    pub fn with_syscalls(mut self, profile: SyscallProfile) -> Self {
        self.syscalls = Some(profile);
        self
    }

    /// Samples the run's time series every `every_faults` faults.
    pub fn with_sample_series(mut self, every_faults: u64) -> Self {
        self.sample_series_every = Some(every_faults);
        self
    }

    /// Caps destination-node RAM, enabling swap-over-network eviction.
    pub fn with_resident_limit_mb(mut self, mb: u64) -> Self {
        self.resident_limit_mb = Some(mb);
        self
    }

    /// Sets the seed for the run's stochastic elements (cross traffic
    /// and fault injection).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a failure model (lossy links, deputy downtime, recovery
    /// protocol knobs).
    pub fn with_faults(mut self, profile: FaultProfile) -> Self {
        self.faults = Some(profile);
        self
    }

    /// Enables background writeback of dirty pages toward the home node.
    pub fn with_writeback(mut self, spec: WritebackSpec) -> Self {
        self.writeback = Some(spec);
        self
    }

    /// Checks every knob against its documented domain.
    pub fn validate(&self) -> Result<(), AmpomError> {
        if self.link.capacity_bytes_per_sec == 0 {
            return Err(AmpomError::LinkDown(
                "link capacity is 0 bytes/s; no page could ever be served".into(),
            ));
        }
        if self.scheme == Scheme::Ampom {
            self.ampom.validate()?;
            self.policy.validate()?;
        }
        if let Some(profile) = self.syscalls {
            if profile.every_refs == 0 {
                return Err(AmpomError::InvalidConfig(
                    "syscalls.every_refs must be positive".into(),
                ));
            }
        }
        if let Some(spec) = self.cross_traffic {
            if spec.bytes_per_sec > 0 && spec.burst_bytes == 0 {
                return Err(AmpomError::InvalidConfig(
                    "cross_traffic.burst_bytes must be positive when load is offered".into(),
                ));
            }
        }
        if self.sample_series_every == Some(0) {
            return Err(AmpomError::InvalidConfig(
                "sample_series_every must be positive (or None to disable)".into(),
            ));
        }
        if let Some(profile) = &self.faults {
            profile.validate()?;
            if !profile.is_null() {
                if self.scheme == Scheme::Ffa {
                    return Err(AmpomError::InvalidConfig(
                        "fault injection is not supported with the FFA scheme \
                         (faults model the deputy path, not the file server)"
                            .into(),
                    ));
                }
                if profile.policy == FailurePolicy::Remigrate && self.resident_limit_mb.is_some() {
                    return Err(AmpomError::InvalidConfig(
                        "the remigrate failure policy cannot be combined with a resident \
                         limit (the home node holds the full image; eviction bookkeeping \
                         does not survive the move)"
                            .into(),
                    ));
                }
            }
        }
        if let Some(spec) = &self.writeback {
            spec.validate()?;
            if self.scheme == Scheme::Ffa {
                return Err(AmpomError::InvalidConfig(
                    "writeback is not supported with the FFA scheme (dirty pages \
                     already flush to the file server, not the home node)"
                        .into(),
                ));
            }
        }
        Ok(())
    }

    /// The first configured feature that only [`SimulatedTransport`]
    /// models — FFA file-server paging, simulated fault injection, or
    /// resident-limit eviction — or `None`. Loops over other transports
    /// (the multi-migrant deputy, the live socket) reject such
    /// configurations rather than silently ignore them.
    pub fn simulated_only_feature(&self) -> Option<&'static str> {
        if self.scheme == Scheme::Ffa {
            Some("the FFA scheme (file-server paging)")
        } else if self.faults.as_ref().is_some_and(|p| !p.is_null()) {
            Some("simulated fault injection (live transports inject faults on the wire)")
        } else if self.resident_limit_mb.is_some() {
            Some("resident-limit eviction")
        } else {
            None
        }
    }
}

/// Executes `workload` under `cfg`, validating the configuration first.
///
/// This is the fallible entry point the [`crate::experiment::Experiment`]
/// builder and the [`crate::sweep`] engine call; misconfiguration comes
/// back as [`AmpomError`] instead of a panic inside the simulation. It
/// is [`run_with_transport`] over a [`SimulatedTransport`].
pub fn try_run_workload<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: &RunConfig,
) -> Result<RunReport, AmpomError> {
    cfg.validate()?;
    run_with_transport(workload, cfg, &mut SimulatedTransport::new(cfg))
}

/// Executes `workload` under `cfg` and returns the full measurement
/// record.
///
/// # Panics
/// Panics on an invalid configuration (e.g. a bad [`AmpomConfig`]);
/// prefer [`try_run_workload`] or the [`crate::experiment::Experiment`]
/// builder for user-supplied configurations.
pub fn run_workload<W: Workload + ?Sized>(workload: &mut W, cfg: &RunConfig) -> RunReport {
    try_run_workload(workload, cfg).unwrap_or_else(|e| panic!("run_workload: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampom_sim::trace::TraceKind;
    use ampom_workloads::synthetic::{Scripted, Sequential, UniformRandom};

    const CPU: SimDuration = SimDuration::from_micros(10);

    fn run(scheme: Scheme, w: &mut dyn Workload) -> RunReport {
        run_workload(w, &RunConfig::new(scheme))
    }

    #[test]
    fn openmosix_run_has_no_remote_faults() {
        let mut w = Sequential::new(256, CPU);
        let r = run(Scheme::OpenMosix, &mut w);
        assert_eq!(r.fault_requests, 0);
        assert_eq!(r.pages_prefetched, 0);
        assert!(r.freeze_time > SimDuration::from_millis(68));
        assert!(r.compute_time >= CPU * 256);
    }

    #[test]
    fn noprefetch_faults_once_per_page() {
        let mut w = Sequential::new(256, CPU);
        let r = run(Scheme::NoPrefetch, &mut w);
        // 256 data pages, minus the "current data" page that shipped with
        // the freeze (the last allocated page, which the sweep touches).
        assert_eq!(r.fault_requests, 255);
        assert_eq!(r.pages_demand_fetched, 255);
        assert_eq!(r.pages_prefetched, 0);
        assert!(r.stall_time > SimDuration::ZERO);
    }

    #[test]
    fn ampom_prevents_most_fault_requests_on_sequential() {
        let mut w = Sequential::new(2048, CPU);
        let ampom = run(Scheme::Ampom, &mut w);
        let mut w2 = Sequential::new(2048, CPU);
        let nopf = run(Scheme::NoPrefetch, &mut w2);
        assert!(
            ampom.fault_requests * 4 < nopf.fault_requests,
            "AMPoM {} vs NoPrefetch {} requests",
            ampom.fault_requests,
            nopf.fault_requests
        );
        assert!(ampom.pages_prefetched > 0);
        assert!(ampom.total_time < nopf.total_time);
    }

    #[test]
    fn ampom_total_includes_tiny_freeze() {
        let mut w = Sequential::new(512, CPU);
        let r = run(Scheme::Ampom, &mut w);
        assert!(r.freeze_time < SimDuration::from_millis(200));
        assert!(r.total_time > r.freeze_time);
    }

    #[test]
    fn all_transferred_pages_are_accounted() {
        let mut w = Sequential::new(512, CPU);
        let r = run(Scheme::Ampom, &mut w);
        // Every data page the workload touched had to come from somewhere:
        // demand + prefetched + freeze pages ≥ touched pages.
        assert!(r.pages_demand_fetched + r.pages_prefetched + 3 >= 512);
        // Prefetched pages on a pure sequential sweep are nearly all used;
        // the only waste is the final read-ahead overshooting the sweep's
        // end into the (remote, mapped) stack region.
        assert!(
            r.prefetch_accuracy() > 0.9,
            "accuracy {}",
            r.prefetch_accuracy()
        );
    }

    #[test]
    fn random_workload_still_completes_under_ampom() {
        let mut w = UniformRandom::new(512, 2048, CPU, ampom_sim::rng::SimRng::seed_from_u64(7));
        let r = run(Scheme::Ampom, &mut w);
        assert!(r.faults_total > 0);
        assert!(r.fault_requests > 0);
        // Baseline read-ahead fetches something even here.
        assert!(r.pages_prefetched > 0);
    }

    #[test]
    fn ffa_serves_faults_via_file_server() {
        let mut w = Sequential::new(128, CPU);
        let r = run(Scheme::Ffa, &mut w);
        assert!(r.fault_requests > 0);
        assert!(r.freeze_time < SimDuration::from_millis(100));
    }

    #[test]
    fn analysis_overhead_is_small() {
        let mut w = Sequential::new(4096, CPU);
        let r = run(Scheme::Ampom, &mut w);
        assert!(r.analysis_count > 0);
        assert!(
            r.analysis_overhead_fraction() < 0.006,
            "overhead {}",
            r.analysis_overhead_fraction()
        );
    }

    #[test]
    fn deterministic_runs() {
        let report = |_| {
            let mut w = Sequential::new(512, CPU);
            let r = run(Scheme::Ampom, &mut w);
            (r.total_time, r.fault_requests, r.pages_prefetched)
        };
        assert_eq!(report(0), report(1));
    }

    #[test]
    fn trace_captures_migration_and_faults() {
        let mut w = Sequential::new(64, CPU);
        let cfg = RunConfig::new(Scheme::Ampom).with_trace();
        let r = run_workload(&mut w, &cfg);
        assert!(r.trace.first_of(TraceKind::FreezeEnd).is_some());
        assert!(r.trace.first_of(TraceKind::PageFault).is_some());
        assert!(r.trace.first_of(TraceKind::WorkloadDone).is_some());
    }

    #[test]
    fn scripted_revisits_fault_only_once() {
        let mut w = Scripted::new(16, &[1, 2, 3, 1, 2, 3, 1, 2, 3], CPU);
        let r = run(Scheme::NoPrefetch, &mut w);
        assert_eq!(r.fault_requests, 3, "revisits must hit locally");
    }

    #[test]
    fn forwarded_syscalls_add_home_dependency_cost() {
        let mk = || Sequential::new(512, CPU);
        let plain = run_workload(&mut mk(), &RunConfig::new(Scheme::Ampom));
        let mut cfg = RunConfig::new(Scheme::Ampom);
        cfg.syscalls = Some(SyscallProfile {
            every_refs: 16,
            work: SimDuration::ZERO,
        });
        let chatty = run_workload(&mut mk(), &cfg);
        assert_eq!(chatty.syscalls_forwarded, 512 / 16);
        assert!(chatty.syscall_time > SimDuration::ZERO);
        assert!(chatty.total_time > plain.total_time);
        // Each call costs at least one network round trip.
        assert!(
            chatty.syscall_time
                >= ampom_net::calibration::LAN_LATENCY * 2 * chatty.syscalls_forwarded
        );
    }

    #[test]
    fn openmosix_pays_the_same_home_dependency() {
        // The home dependency is scheme-independent: even an eagerly
        // migrated process forwards its syscalls (paper §7).
        let mk = || Sequential::new(256, CPU);
        let mut cfg = RunConfig::new(Scheme::OpenMosix);
        cfg.syscalls = Some(SyscallProfile {
            every_refs: 32,
            work: SimDuration::from_micros(100),
        });
        let r = run_workload(&mut mk(), &cfg);
        assert_eq!(r.syscalls_forwarded, 8);
        assert!(r.syscall_time > SimDuration::from_millis(2));
    }

    #[test]
    fn series_sampling_captures_run_dynamics() {
        let mut w = Sequential::new(2048, CPU);
        let mut cfg = RunConfig::new(Scheme::Ampom);
        cfg.sample_series_every = Some(50);
        let r = run_workload(&mut w, &cfg);
        let series = r.series.expect("sampling enabled");
        assert!(series.in_flight.len() > 5);
        assert!(series.resident.len() > 5);
        // The resident set grows monotonically on a pure sweep.
        let resident = series.resident.samples();
        assert!(resident.last().unwrap().1 >= resident.first().unwrap().1);
        // The reply link sees real utilisation during the transfer phase.
        assert!(series
            .link_utilization
            .samples()
            .iter()
            .any(|&(_, u)| u > 0.3));
    }

    #[test]
    fn series_disabled_by_default() {
        let mut w = Sequential::new(64, CPU);
        let r = run_workload(&mut w, &RunConfig::new(Scheme::Ampom));
        assert!(r.series.is_none());
    }

    #[test]
    fn memory_pressure_evicts_and_slows() {
        // 512 data pages but room for only ~128: a full sequential sweep
        // must evict most of what it fetches.
        let mk = || Sequential::new(512, CPU);
        let unlimited = run_workload(&mut mk(), &RunConfig::new(Scheme::Ampom));
        let mut cfg = RunConfig::new(Scheme::Ampom);
        cfg.resident_limit_mb = Some(1); // 256 pages incl. code/stack
        let pressured = run_workload(&mut mk(), &cfg);
        assert_eq!(unlimited.pages_evicted, 0);
        assert!(pressured.pages_evicted > 100, "{}", pressured.pages_evicted);
        assert!(pressured.total_time >= unlimited.total_time);
        // The sweep never revisits, so evictions cost write-backs but no
        // re-fetches; compute is unchanged.
        assert_eq!(pressured.compute_time, unlimited.compute_time);
    }

    #[test]
    fn pressure_with_reuse_causes_refetch_thrashing() {
        // Two passes over 512 pages with room for far fewer: pass two
        // re-faults pages evicted during pass one.
        let refs: Vec<u64> = (0..512u64).chain(0..512).collect();
        let mk = || Scripted::new(512, &refs, CPU);
        let unlimited = run_workload(&mut mk(), &RunConfig::new(Scheme::Ampom));
        let mut cfg = RunConfig::new(Scheme::Ampom);
        cfg.resident_limit_mb = Some(1);
        let pressured = run_workload(&mut mk(), &cfg);
        assert!(
            pressured.pages_demand_fetched + pressured.pages_prefetched
                > unlimited.pages_demand_fetched + unlimited.pages_prefetched,
            "pass two must re-fetch evicted pages"
        );
        assert!(pressured.total_time > unlimited.total_time);
    }

    #[test]
    fn eager_copy_into_small_node_bounces_overflow() {
        // openMosix ships all 512 pages into a node that holds ~256: the
        // overflow is pushed straight back before execution begins.
        let mut w = Sequential::new(512, CPU);
        let mut cfg = RunConfig::new(Scheme::OpenMosix);
        cfg.resident_limit_mb = Some(1);
        let r = run_workload(&mut w, &cfg);
        assert!(r.pages_evicted > 200, "{}", r.pages_evicted);
        // And the sweep then faults on the bounced pages.
        assert!(r.fault_requests > 0);
    }

    #[test]
    fn cross_traffic_slows_the_run() {
        let mk = || Sequential::new(1024, SimDuration::from_micros(2));
        let quiet = run_workload(&mut mk(), &RunConfig::new(Scheme::NoPrefetch));
        let mut cfg = RunConfig::new(Scheme::NoPrefetch);
        cfg.cross_traffic = Some(CrossTrafficSpec {
            bytes_per_sec: 8_000_000,
            burst_bytes: 64 * 1024,
        });
        let busy = run_workload(&mut mk(), &cfg);
        assert!(busy.total_time > quiet.total_time);
    }
}
