//! Virtual-machine migration with multi-process access streams — the
//! paper's §7 future work, made concrete.
//!
//! "Possible future work includes … a tailored AMPoM for migrating virtual
//! machines whose memory references are consisted of access streams from
//! multiple processes." (§7; also §6: "AMPoM can be extended to consider
//! memory access streams from multiple processes in a virtual machine in
//! order to perform more effective prefetching.")
//!
//! A VM's guest-physical address space hosts several processes whose page
//! references interleave at the hypervisor's fault handler. A single
//! lookback window sees that interleaving as noise: with `k` busy guest
//! processes, a stride-1 pattern inside one process appears as a stride-k
//! pattern in the shared window — and beyond `dmax = 4` it becomes
//! invisible. The tailored design de-multiplexes the fault stream by guest
//! process and runs one window per process.
//!
//! This module provides:
//!
//! * [`VmWorkload`] — a guest: several `Workload`s, each mapped into its
//!   own slice of the VM's address space, interleaved by a round-robin
//!   scheduler with a configurable time slice,
//! * [`VmAnalysis`] — shared-window (naive) vs per-process-window
//!   (tailored) analysis,
//! * [`run_vm`] — the migration runner for a VM under AMPoM: the
//!   single-migrant loop over the VM's reference stream, with a per-guest
//!   prefetcher adaptor for the tailored analysis.
//!
//! The `hpcc-repro ext-vm` experiment and `examples/vm_migration.rs`
//! compare the two analyses.

use ampom_mem::page::PageId;
use ampom_mem::region::MemoryLayout;
use ampom_sim::time::SimTime;
use ampom_workloads::memref::{MemRef, Workload};

use crate::metrics::RunReport;
use crate::migration::Scheme;
use crate::policy::{PrefetchFeedback, PrefetchObservation, Prefetcher};
use crate::prefetcher::{NetEstimates, PrefetchStats, ZoneDecision};
use crate::runner::RunConfig;
use crate::transport::{run_migrant, SimulatedTransport};

/// How the prefetcher treats the VM's interleaved fault stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmAnalysis {
    /// One lookback window over the whole VM (what an unmodified AMPoM
    /// would see at the VMM level).
    SharedWindow,
    /// One lookback window per guest process (the §7 tailored design).
    PerProcess,
    /// No prefetching — the NoPrefetch baseline at VM granularity.
    NoPrefetch,
}

impl VmAnalysis {
    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            VmAnalysis::SharedWindow => "shared-window",
            VmAnalysis::PerProcess => "per-process",
            VmAnalysis::NoPrefetch => "no-prefetch",
        }
    }
}

/// A guest process inside the VM.
struct GuestProc {
    workload: Box<dyn Workload>,
    /// Where this process's address space begins inside the VM's space.
    base_offset: u64,
    /// First guest-physical page of this process's data slice.
    slice_start: u64,
    /// Pending slice budget (refs remaining in the current quantum).
    slice_left: u32,
    done: bool,
}

/// A virtual machine: several guest processes over one guest-physical
/// address space, scheduled round-robin. As a [`Workload`] it yields
/// the interleaved, translated reference stream the hypervisor's fault
/// handler sees.
pub struct VmWorkload {
    layout: MemoryLayout,
    procs: Vec<GuestProc>,
    slice: u32,
    current: usize,
    total_refs: u64,
    data_bytes: u64,
}

impl VmWorkload {
    /// Builds a VM hosting `workloads`, each given its own slice of the
    /// guest-physical data region, interleaved with the given quantum
    /// (references per scheduling slice).
    ///
    /// # Panics
    /// Panics if `workloads` is empty or `slice` is zero.
    pub fn new(workloads: Vec<Box<dyn Workload>>, slice: u32) -> Self {
        assert!(!workloads.is_empty(), "a VM needs at least one process");
        assert!(slice > 0, "slice must be positive");
        let total_data: u64 = workloads.iter().map(|w| w.data_bytes()).sum();
        let layout = MemoryLayout::with_data_bytes(total_data);
        let mut offset = layout.data_start().index();
        let mut procs = Vec::new();
        let mut total_refs = 0;
        for w in workloads {
            // Each guest's pages map at `offset - guest_data_start`.
            let guest_start = w.layout().data_start().index();
            total_refs += w.total_refs_hint();
            let pages = w.data_bytes().div_ceil(ampom_mem::PAGE_SIZE);
            procs.push(GuestProc {
                base_offset: offset - guest_start,
                slice_start: offset,
                slice_left: slice,
                done: false,
                workload: w,
            });
            offset += pages;
        }
        VmWorkload {
            layout,
            procs,
            slice,
            current: 0,
            total_refs,
            data_bytes: total_data,
        }
    }

    /// Number of guest processes.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// The next reference and the guest process that made it.
    pub fn next_ref(&mut self) -> Option<(usize, MemRef)> {
        let n = self.procs.len();
        for _ in 0..n {
            let idx = self.current;
            let p = &mut self.procs[idx];
            if !p.done {
                if let Some(r) = p.workload.next() {
                    let translated = MemRef {
                        page: PageId(r.page.index() + p.base_offset),
                        ..r
                    };
                    p.slice_left -= 1;
                    if p.slice_left == 0 {
                        p.slice_left = self.slice;
                        self.current = (idx + 1) % n;
                    }
                    return Some((idx, translated));
                }
                p.done = true;
            }
            self.current = (idx + 1) % n;
        }
        None
    }
}

impl Iterator for VmWorkload {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        self.next_ref().map(|(_, r)| r)
    }
}

impl Workload for VmWorkload {
    fn name(&self) -> &'static str {
        "VM"
    }

    /// The VM's guest-physical layout.
    fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// Total data bytes across all guests.
    fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Every guest page, translated to guest-physical (for the
    /// pre-migration allocation).
    fn allocation_pages(&self) -> Vec<PageId> {
        let mut pages = Vec::new();
        for p in &self.procs {
            for page in p.workload.allocation_pages() {
                pages.push(PageId(page.index() + p.base_offset));
            }
        }
        pages
    }

    /// Total references across all guests.
    fn total_refs_hint(&self) -> u64 {
        self.total_refs
    }
}

/// Per-guest analysis: one inner prefetcher per guest, each fault routed
/// to the guest that made the reference. Guests own disjoint data slices
/// and references stay inside a workload's data region, so the faulted
/// page names its guest. With one guest this is the shared window.
struct GuestPrefetchers {
    /// First guest-physical page of each guest's slice, ascending.
    slice_starts: Vec<u64>,
    guests: Vec<Box<dyn Prefetcher>>,
    /// The guest of the latest analysis (its window drives the monitor's
    /// wrap count).
    last: usize,
    /// Outcome feedback awaiting the next fault's guest.
    feedback: Option<PrefetchFeedback>,
}

impl GuestPrefetchers {
    /// The mean Eq. 1 score over every analysis of every guest.
    fn mean_score(&self) -> f64 {
        let mut score_sum = 0.0;
        let mut score_n = 0u64;
        for pf in &self.guests {
            let s = pf.observe().stats;
            score_sum += s.scores.mean() * s.scores.count() as f64;
            score_n += s.scores.count();
        }
        if score_n == 0 {
            0.0
        } else {
            score_sum / score_n as f64
        }
    }
}

impl Prefetcher for GuestPrefetchers {
    fn on_fault(
        &mut self,
        page: PageId,
        now: SimTime,
        cpu_util: f64,
        net: NetEstimates,
        page_limit: PageId,
        fetchable: &mut dyn FnMut(PageId) -> bool,
    ) -> ZoneDecision {
        self.last = self
            .slice_starts
            .partition_point(|&start| start <= page.index())
            .saturating_sub(1);
        let pf = self.guests[self.last].as_mut();
        if let Some(feedback) = self.feedback.take() {
            pf.note_outcome(feedback);
        }
        pf.on_fault(page, now, cpu_util, net, page_limit, fetchable)
    }

    fn note_outcome(&mut self, feedback: PrefetchFeedback) {
        self.feedback = Some(feedback);
    }

    /// The latest guest's observation, with the statistics of all guests
    /// merged (every counter, including `score_clamps`).
    fn observe(&self) -> PrefetchObservation {
        let mut merged = PrefetchStats::default();
        for pf in &self.guests {
            merged.merge(&pf.observe().stats);
        }
        PrefetchObservation {
            stats: merged,
            ..self.guests[self.last].observe()
        }
    }
}

/// Outcome of one VM migration run.
#[derive(Debug)]
pub struct VmReport {
    /// The analysis mode used.
    pub analysis: VmAnalysis,
    /// Standard run metrics.
    pub report: RunReport,
    /// Mean spatial score seen by the analysis (diagnostic: the shared
    /// window's score collapses as guest count grows).
    pub mean_score: f64,
}

/// Migrates a VM with lightweight migration and runs it to completion
/// with the chosen analysis mode: AMPoM with a shared or per-process
/// window, or [`Scheme::NoPrefetch`] for [`VmAnalysis::NoPrefetch`].
/// `cfg`'s scheme is ignored; everything else applies as in
/// [`run_workload`](crate::runner::run_workload).
///
/// # Panics
/// Panics on an invalid configuration.
pub fn run_vm(mut vm: VmWorkload, cfg: &RunConfig, analysis: VmAnalysis) -> VmReport {
    let mut cfg = cfg.clone();
    cfg.scheme = match analysis {
        VmAnalysis::NoPrefetch => Scheme::NoPrefetch,
        VmAnalysis::SharedWindow | VmAnalysis::PerProcess => Scheme::Ampom,
    };
    let guests = vm.process_count();
    let slice_starts = match analysis {
        VmAnalysis::PerProcess => vm.procs.iter().map(|p| p.slice_start).collect(),
        VmAnalysis::SharedWindow | VmAnalysis::NoPrefetch => vec![0],
    };
    let mut prefetchers = (cfg.scheme == Scheme::Ampom).then(|| GuestPrefetchers {
        guests: slice_starts
            .iter()
            .map(|_| cfg.policy.build(&cfg.ampom))
            .collect(),
        slice_starts,
        last: 0,
        feedback: None,
    });
    let mut transport = SimulatedTransport::new(&cfg);
    let pf = prefetchers.as_mut().map(|p| p as &mut dyn Prefetcher);
    let mut report =
        run_migrant(&mut vm, &cfg, &mut transport, pf).unwrap_or_else(|e| panic!("run_vm: {e}"));
    report.workload = format!("VM[{guests}]");
    VmReport {
        analysis,
        mean_score: prefetchers.map_or(0.0, |p| p.mean_score()),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampom_sim::time::SimDuration;
    use ampom_workloads::synthetic::Sequential;

    const CPU: SimDuration = SimDuration::from_micros(15);

    fn vm_of(k: usize, pages_each: u64, slice: u32) -> VmWorkload {
        let procs: Vec<Box<dyn Workload>> = (0..k)
            .map(|_| Box::new(Sequential::new(pages_each, CPU)) as Box<dyn Workload>)
            .collect();
        VmWorkload::new(procs, slice)
    }

    #[test]
    fn vm_interleaves_and_translates_addresses() {
        let mut vm = vm_of(3, 32, 1);
        assert_eq!(vm.process_count(), 3);
        let (p0, r0) = vm.next_ref().unwrap();
        let (p1, r1) = vm.next_ref().unwrap();
        let (p2, r2) = vm.next_ref().unwrap();
        assert_eq!((p0, p1, p2), (0, 1, 2));
        // Distinct address-space slices.
        assert_ne!(r0.page, r1.page);
        assert_ne!(r1.page, r2.page);
        assert!(r1.page.distance(r0.page) >= 32);
    }

    #[test]
    fn vm_slice_controls_interleaving_granularity() {
        let mut vm = vm_of(2, 16, 4);
        let owners: Vec<usize> = std::iter::from_fn(|| vm.next_ref().map(|(p, _)| p))
            .take(12)
            .collect();
        assert_eq!(owners, vec![0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn vm_drains_every_guest_completely() {
        let mut vm = vm_of(3, 20, 2);
        let total = vm.total_refs_hint();
        let mut n = 0;
        while vm.next_ref().is_some() {
            n += 1;
        }
        assert_eq!(n, total);
        assert_eq!(total, 60);
    }

    #[test]
    fn per_process_analysis_beats_shared_window_with_many_guests() {
        // 6 guests: stride-6 interleaving in the shared window exceeds
        // dmax=4, so the shared analysis goes blind while the per-process
        // analysis sees six clean sequential streams. The comparison uses
        // the pure Eq. 3 algorithm (baseline read-ahead disabled) — the
        // Linux-style read-ahead floor would otherwise chain fetches for
        // both modes and mask the windowing difference.
        let run = |mode| {
            let mut cfg = RunConfig::new(Scheme::Ampom);
            cfg.ampom.baseline_readahead = 0;
            run_vm(vm_of(6, 200, 1), &cfg, mode)
        };
        let shared = run(VmAnalysis::SharedWindow);
        let per_proc = run(VmAnalysis::PerProcess);
        let nopf = run(VmAnalysis::NoPrefetch);
        assert!(
            per_proc.report.fault_requests * 2 < shared.report.fault_requests,
            "per-process {} vs shared {}",
            per_proc.report.fault_requests,
            shared.report.fault_requests
        );
        assert!(per_proc.mean_score > shared.mean_score + 0.3);
        // The blind shared window degenerates to demand paging.
        assert!(shared.report.fault_requests as f64 > 0.9 * nopf.report.fault_requests as f64);
        assert!(per_proc.report.total_time < nopf.report.total_time);
    }

    #[test]
    fn shared_window_still_fine_with_few_guests() {
        // 2 guests interleave at stride 2 — within dmax, so the shared
        // window still detects the streams.
        let run = |mode| run_vm(vm_of(2, 200, 1), &RunConfig::new(Scheme::Ampom), mode);
        let shared = run(VmAnalysis::SharedWindow);
        assert!(shared.mean_score > 0.3, "score {}", shared.mean_score);
        let nopf = run(VmAnalysis::NoPrefetch);
        assert!(shared.report.fault_requests * 2 < nopf.report.fault_requests);
    }

    #[test]
    fn mixed_guests_isolate_the_random_one() {
        // One sequential guest + one random guest. Per-process windows
        // keep the sequential guest's S at 1 while scoring the random
        // guest near 0; a shared window muddles both.
        use ampom_workloads::synthetic::UniformRandom;
        let build = || {
            let procs: Vec<Box<dyn Workload>> = vec![
                Box::new(Sequential::new(400, CPU)),
                Box::new(UniformRandom::new(
                    400,
                    400,
                    CPU,
                    ampom_sim::rng::SimRng::seed_from_u64(5),
                )),
            ];
            VmWorkload::new(procs, 1)
        };
        let mut cfg = RunConfig::new(Scheme::Ampom);
        cfg.ampom.baseline_readahead = 0;
        let per_proc = run_vm(build(), &cfg, VmAnalysis::PerProcess);
        let nopf = run_vm(build(), &cfg, VmAnalysis::NoPrefetch);
        // The sequential guest's stream is fully prefetchable even though
        // half the fault stream is random noise: the tailored analysis
        // covers its ~400 pages and beats demand paging end to end.
        assert!(per_proc.report.pages_prefetched > 200);
        assert!(per_proc.report.fault_requests < nopf.report.fault_requests);
        assert!(per_proc.report.total_time < nopf.report.total_time);
    }

    #[test]
    fn vm_freeze_is_lightweight() {
        let r = run_vm(
            vm_of(4, 100, 2),
            &RunConfig::new(Scheme::Ampom),
            VmAnalysis::PerProcess,
        );
        assert!(r.report.freeze_time < SimDuration::from_millis(200));
        assert!(r.report.mpt_bytes > 0);
    }

    #[test]
    fn vm_runs_get_every_feature_of_the_migrant_loop() {
        use crate::reliability::FaultProfile;
        use ampom_sim::trace::TraceKind;
        // 800 guest pages against a 1 MB limit, on a lossy link, traced.
        let cfg = RunConfig::new(Scheme::Ampom)
            .with_faults(FaultProfile::lossy(0.05))
            .with_resident_limit_mb(1)
            .with_trace();
        let r = run_vm(vm_of(4, 200, 1), &cfg, VmAnalysis::PerProcess).report;
        assert!(r.faults.messages_dropped > 0);
        assert!(r.pages_evicted > 0);
        assert!(r.prefetched_pages_used > 0);
        assert!(r.trace.first_of(TraceKind::ZoneAnalysis).is_some());
        assert_eq!(r.phases.total(), r.total_time);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_vm_rejected() {
        let _ = VmWorkload::new(Vec::new(), 1);
    }
}
