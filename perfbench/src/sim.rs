//! The simulated workloads, `table1-solo` and `shared-writeback`, and the
//! engine and multi-migrant layer families they trace.
//!
//! The engine family wraps `SimulatedTransport` and the real workload in
//! span-recording adapters and drives them through `run_with_transport`.
//! The adapters also capture each prefetch analysis's inputs (faulted
//! page, time, CPU utilisation and monitor estimates), so the
//! prefetcher's functions can afterwards be replayed on the run's own
//! fault stream and timed in batches.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use ampom_core::census::{census, Census};
use ampom_core::metrics::{DeputyStats, FaultStats};
use ampom_core::migration::{FreezeOutcome, PreMigrationState};
use ampom_core::prefetcher::NetEstimates;
use ampom_core::score::spatial_score;
use ampom_core::window::LookbackWindow;
use ampom_core::zone::{dependent_zone_size, select_zone, ZoneSizeInputs};
use ampom_core::{
    run_multi, run_with_transport, try_run_workload, AmpomConfig, AmpomPrefetcher, Experiment,
    MigrantSpec, MultiRunReport, MultiRunSpec, QuantileSketch, RunConfig, RunReport, Scheme,
    SimulatedTransport, Transport, WorkloadSpec, WritebackSpec,
};
use ampom_mem::page::PageId;
use ampom_mem::region::MemoryLayout;
use ampom_mem::space::AddressSpace;
use ampom_mem::table::PageTablePair;
use ampom_sim::time::{SimDuration, SimTime};
use ampom_sim::trace::{Trace, TraceData, TraceKind};
use ampom_workloads::memref::{MemRef, Workload};
use ampom_workloads::sizes::{Kernel, ProblemSize};

use crate::harness::{
    self, gauged_s, layer_totals, median, time_batched, time_batched_with, HostGauge, Metrics,
    Span, Tracer,
};
use crate::{Check, FamilyTrace, Layers, Outcome, Rounds};

/// `table1-solo` memory size per kernel, MB: half the smallest Table 1
/// row, so one round of the four kernels takes a fraction of a second.
const TABLE1_MB: u64 = 32;
/// `shared-writeback` memory size per migrant, MB.
const SHARED_MB: u64 = 16;
/// Memory size of the engine and multi-migrant probes that other
/// workloads' traced runs make, MB.
const PROBE_MB: u64 = 2;
/// Setup repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Traced rounds kept in memory at most (spans are written out at the end).
const MAX_TRACED_ROUNDS: usize = 6;
/// Time budget of each replay timing.
const REPLAY_TIME: Duration = Duration::from_millis(40);

fn size(mb: u64) -> ProblemSize {
    ProblemSize {
        problem: 0,
        memory_mb: mb,
    }
}

/// One kernel run of a family: what it executes and with which seed.
#[derive(Debug, Clone)]
struct Job {
    spec: WorkloadSpec,
    seed: u64,
}

// ---------------------------------------------------------------------
// Span-recording adapters
// ---------------------------------------------------------------------

/// The inputs one prefetch analysis saw.
#[derive(Debug, Clone, Copy)]
struct CapturedFault {
    page: PageId,
    now: SimTime,
    util: f64,
    est: NetEstimates,
}

/// State shared by the two adapters of one traced run.
#[derive(Debug, Default)]
struct Shared {
    tracer: Tracer,
    refs: u64,
    page: Option<PageId>,
    /// CPU of the references completed since the last fault (the
    /// runner's `cpu_since_fault`).
    cpu_since_fault: SimDuration,
    /// CPU of the reference being processed; it counts once the next
    /// reference is pulled.
    current_cpu: SimDuration,
    /// Clock at the first page install while processing the current
    /// reference: the fault time of a remote fault.
    install_at: Option<SimTime>,
    last_fault_at: SimTime,
    faults: Vec<CapturedFault>,
    transport_calls: u64,
    pages_proposed: u64,
    pages_queued: u64,
}

type SharedRef = Rc<RefCell<Shared>>;

fn begin(shared: &SharedRef, name: &'static str) -> usize {
    shared.borrow_mut().tracer.begin(name)
}

fn end(shared: &SharedRef, idx: usize) {
    let mut s = shared.borrow_mut();
    s.tracer.end(idx);
    s.transport_calls += 1;
}

/// Delegates to a real workload, numbering references so every span of
/// one fault shares an identifier.
struct TracedWorkload {
    inner: Box<dyn Workload>,
    shared: SharedRef,
}

impl Iterator for TracedWorkload {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        let r = self.inner.next()?;
        let mut s = self.shared.borrow_mut();
        let done = s.current_cpu;
        s.cpu_since_fault += done;
        s.current_cpu = r.cpu;
        s.install_at = None;
        s.page = Some(r.page);
        s.refs += 1;
        let op = s.refs;
        s.tracer.set_op(op);
        Some(r)
    }
}

impl Workload for TracedWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn layout(&self) -> &MemoryLayout {
        self.inner.layout()
    }
    fn data_bytes(&self) -> u64 {
        self.inner.data_bytes()
    }
    fn allocation_pages(&self) -> Vec<PageId> {
        self.inner.allocation_pages()
    }
    fn total_refs_hint(&self) -> u64 {
        self.inner.total_refs_hint()
    }
}

/// Delegates every call to `SimulatedTransport`, opening a span around
/// the calls that do work and counting the cheap queries.
struct TracedTransport {
    inner: SimulatedTransport,
    shared: SharedRef,
}

impl Transport for TracedTransport {
    fn freeze(
        &mut self,
        scheme: Scheme,
        pre: &PreMigrationState,
        trace: &mut Trace,
    ) -> Result<FreezeOutcome, ampom_core::AmpomError> {
        let span = begin(&self.shared, "transport.freeze");
        let out = self.inner.freeze(scheme, pre, trace);
        end(&self.shared, span);
        if let Ok(f) = &out {
            self.shared.borrow_mut().last_fault_at = SimTime::ZERO + f.freeze_time;
        }
        out
    }

    fn request_pages(
        &mut self,
        now: SimTime,
        demand: Option<PageId>,
        prefetch: &[PageId],
        table: &mut PageTablePair,
    ) -> Result<Vec<PageId>, ampom_core::AmpomError> {
        let span = begin(&self.shared, "transport.request_pages");
        let out = self.inner.request_pages(now, demand, prefetch, table);
        end(&self.shared, span);
        let mut s = self.shared.borrow_mut();
        s.pages_proposed += prefetch.len() as u64;
        if let Ok(q) = &out {
            s.pages_queued += q.len() as u64;
        }
        out
    }

    fn wait_for(&mut self, page: PageId, now: SimTime) -> Result<SimTime, ampom_core::AmpomError> {
        let span = begin(&self.shared, "transport.wait_for");
        let out = self.inner.wait_for(page, now);
        end(&self.shared, span);
        out
    }

    fn install_arrived(&mut self, now: &mut SimTime, space: &mut AddressSpace) {
        {
            let mut s = self.shared.borrow_mut();
            if s.install_at.is_none() {
                s.install_at = Some(*now);
            }
        }
        let span = begin(&self.shared, "transport.install_arrived");
        self.inner.install_arrived(now, space);
        end(&self.shared, span);
    }

    fn is_in_flight(&self, page: PageId) -> bool {
        self.shared.borrow_mut().transport_calls += 1;
        self.inner.is_in_flight(page)
    }

    fn in_flight_count(&self) -> usize {
        self.shared.borrow_mut().transport_calls += 1;
        self.inner.in_flight_count()
    }

    fn forward_syscall(
        &mut self,
        now: SimTime,
        work: SimDuration,
    ) -> Result<SimTime, ampom_core::AmpomError> {
        let span = begin(&self.shared, "transport.forward_syscall");
        let out = self.inner.forward_syscall(now, work);
        end(&self.shared, span);
        out
    }

    fn estimates(&mut self, now: SimTime) -> NetEstimates {
        let span = begin(&self.shared, "transport.estimates");
        let est = self.inner.estimates(now);
        end(&self.shared, span);
        // The runner asks for estimates once per analysis, right after
        // computing the fault's CPU utilisation exactly like this.
        let mut s = self.shared.borrow_mut();
        let fault_at = s.install_at.unwrap_or(now);
        let wall = fault_at.saturating_since(s.last_fault_at).as_secs_f64();
        let util = if wall <= 0.0 {
            1.0
        } else {
            (s.cpu_since_fault.as_secs_f64() / wall).clamp(0.0, 1.0)
        };
        s.last_fault_at = fault_at;
        s.cpu_since_fault = SimDuration::ZERO;
        let page = s.page.expect("analyses follow a reference");
        s.faults.push(CapturedFault {
            page,
            now,
            util,
            est,
        });
        est
    }

    fn on_window_wrap(&mut self, now: SimTime, wraps: u64) {
        self.inner.on_window_wrap(now, wraps);
    }

    fn reply_utilization(&mut self, now: SimTime) -> f64 {
        self.inner.reply_utilization(now)
    }

    fn bytes_to_dest(&self) -> u64 {
        self.inner.bytes_to_dest()
    }

    fn bytes_from_dest(&self) -> u64 {
        self.inner.bytes_from_dest()
    }

    fn deputy_stats(&self) -> DeputyStats {
        self.inner.deputy_stats()
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn writeback_batch(
        &mut self,
        now: SimTime,
        seq: u64,
        entries: &[(PageId, u64)],
    ) -> Result<(u64, SimTime), ampom_core::AmpomError> {
        let span = begin(&self.shared, "transport.writeback_batch");
        let out = self.inner.writeback_batch(now, seq, entries);
        end(&self.shared, span);
        out
    }

    fn drain_trace(&mut self) -> Vec<(SimTime, TraceKind, TraceData)> {
        self.inner.drain_trace()
    }
}

/// What one traced kernel run left behind.
struct TracedRun {
    report: RunReport,
    spans: Vec<Span>,
    faults: Vec<CapturedFault>,
    page_limit: PageId,
    refs: u64,
    transport_calls: u64,
    pages_proposed: u64,
    pages_queued: u64,
}

fn run_traced(job: &Job, cfg: &RunConfig) -> Result<TracedRun, String> {
    let inner = job.spec.build(job.seed).map_err(|e| e.to_string())?;
    let page_limit = PageId(inner.layout().total_pages());
    let shared: SharedRef = Rc::default();
    let mut workload = TracedWorkload {
        inner,
        shared: Rc::clone(&shared),
    };
    let mut transport = TracedTransport {
        inner: SimulatedTransport::new(cfg),
        shared: Rc::clone(&shared),
    };
    let span = begin(&shared, "runner.run");
    let report = run_with_transport(&mut workload, cfg, &mut transport);
    shared.borrow_mut().tracer.end(span);
    drop((workload, transport));
    let s = Rc::try_unwrap(shared)
        .map_err(|_| "traced run still shared".to_string())?
        .into_inner();
    Ok(TracedRun {
        report: report.map_err(|e| e.to_string())?,
        spans: s.tracer.spans().to_vec(),
        faults: s.faults,
        page_limit,
        refs: s.refs,
        transport_calls: s.transport_calls,
        pages_proposed: s.pages_proposed,
        pages_queued: s.pages_queued,
    })
}

// ---------------------------------------------------------------------
// Prefetcher replay
// ---------------------------------------------------------------------

/// Per-fault inputs of the analysis stages: the window, census and Eq. 3
/// inputs rebuilt from the captured stream with the public stage
/// functions, and the zone budget the real prefetcher decided, replaying
/// the same stream.
struct Stages {
    window_pages: Vec<Vec<u64>>,
    censuses: Vec<Census>,
    eq3: Vec<ZoneSizeInputs>,
    select: Vec<(usize, u64, PageId)>,
    budgets: Vec<u64>,
}

fn stages(faults: &[CapturedFault], cfg: &AmpomConfig, page_limit: PageId) -> Stages {
    let mut window = LookbackWindow::new(cfg.window_len);
    let mut prefetcher = AmpomPrefetcher::new(cfg.clone());
    let mut st = Stages {
        window_pages: Vec::with_capacity(faults.len()),
        censuses: Vec::with_capacity(faults.len()),
        eq3: Vec::new(),
        select: Vec::with_capacity(faults.len()),
        budgets: Vec::with_capacity(faults.len()),
    };
    for f in faults {
        window.record(f.page, f.now, f.util);
        let pages = window.page_indices();
        let c = census(&pages, cfg.dmax);
        if let Some(r) = window.paging_rate() {
            st.eq3.push(ZoneSizeInputs {
                spatial_score: spatial_score(&c),
                paging_rate: r,
                mean_cpu: window.mean_cpu_util(),
                next_cpu: window.latest_cpu_util(),
                t0: f.est.t0,
                td: f.est.td,
            });
        }
        let budget = prefetcher
            .on_fault(f.page, f.now, f.util, f.est, page_limit, |_| true)
            .budget;
        st.select.push((st.censuses.len(), budget, f.page));
        st.budgets.push(budget);
        st.window_pages.push(pages);
        st.censuses.push(c);
    }
    st
}

/// Replays each run's captured stream through the prefetcher and its
/// stages, timing every stage in batches. Also checks that the
/// prefetcher's replay reproduces the run's own zone budgets, which proves
/// the captured inputs are the ones the run used.
fn prefetcher_layers(
    runs: &[&TracedRun],
    cfg: &AmpomConfig,
    m: &mut Metrics,
    checks: &mut Vec<Check>,
) {
    let mut weighted = [0.0f64; 6];
    let mut analyses = 0u64;
    let mut budget_sum = 0u64;
    let mut reproduced = true;
    for run in runs {
        let n = run.faults.len() as f64;
        if run.faults.is_empty() {
            continue;
        }
        let st = stages(&run.faults, cfg, run.page_limit);
        analyses += run.faults.len() as u64;
        budget_sum += st.budgets.iter().sum::<u64>();
        let run_budgets = &run.report.prefetch_stats.budgets;
        let replay_mean = st.budgets.iter().sum::<u64>() as f64 / n;
        reproduced &= run.report.prefetch_stats.analyses == run.faults.len() as u64
            && (run_budgets.mean() - replay_mean).abs() <= 1e-9 * replay_mean.max(1.0);

        let on_fault = time_batched_with(
            &run.faults,
            REPLAY_TIME,
            || AmpomPrefetcher::new(cfg.clone()),
            |pf, f| {
                black_box(pf.on_fault(f.page, f.now, f.util, f.est, run.page_limit, |_| true));
            },
        );
        let record = time_batched_with(
            &run.faults,
            REPLAY_TIME,
            || LookbackWindow::new(cfg.window_len),
            |w, f| {
                black_box(w.record(f.page, f.now, f.util));
            },
        );
        let census_ns = time_batched(&st.window_pages, REPLAY_TIME, |p| {
            black_box(census(p, cfg.dmax));
        });
        let eq1 = time_batched(&st.censuses, REPLAY_TIME, |c| {
            black_box(spatial_score(c));
        });
        let eq3 = time_batched(&st.eq3, REPLAY_TIME, |inp| {
            black_box(dependent_zone_size(inp));
        });
        let select = time_batched(&st.select, REPLAY_TIME, |&(ci, budget, page)| {
            black_box(select_zone(
                &st.censuses[ci].outstanding,
                budget,
                page,
                run.page_limit,
            ));
        });
        for (acc, v) in weighted
            .iter_mut()
            .zip([on_fault, record, census_ns, eq1, eq3, select])
        {
            *acc += v * n;
        }
    }
    let per = |v: f64| {
        if analyses == 0 {
            0.0
        } else {
            v / analyses as f64
        }
    };
    let note = "ns per call, batch-timed replay of the run's captured faults";
    m.add("prefetcher.on_fault_ns", per(weighted[0]), "ns", note);
    m.add("window.record_ns", per(weighted[1]), "ns", note);
    m.add("census.ns", per(weighted[2]), "ns", note);
    m.add("score.eq1_ns", per(weighted[3]), "ns", note);
    m.add("zone.eq3_ns", per(weighted[4]), "ns", note);
    m.add("zone.select_ns", per(weighted[5]), "ns", note);
    m.add(
        "zone.budget_pages_mean",
        per(budget_sum as f64),
        "pages",
        "mean Eq. 3 zone budget over the replayed faults",
    );
    m.add(
        "prefetcher.analyses",
        analyses as f64,
        "count",
        "analyses in one round",
    );
    checks.push(Check::new(
        "prefetcher replay reproduces the run's zone budgets",
        reproduced,
        format!("{analyses} analyses replayed"),
    ));
}

/// Host ns per reference of the workload generator alone, draining a
/// fresh copy of the same stream and reading the clock every 4096 refs.
fn workload_next_ns(jobs: &[Job]) -> Result<(f64, u64), String> {
    let mut total_ns = 0u128;
    let mut refs = 0u64;
    for job in jobs {
        let mut w = job.spec.build(job.seed).map_err(|e| e.to_string())?;
        loop {
            let t = Instant::now();
            let mut n = 0u64;
            while n < 4096 {
                match w.next() {
                    Some(r) => {
                        black_box(r);
                        n += 1;
                    }
                    None => break,
                }
            }
            total_ns += t.elapsed().as_nanos();
            refs += n;
            if n < 4096 {
                break;
            }
        }
    }
    Ok((total_ns as f64 / refs.max(1) as f64, refs))
}

// ---------------------------------------------------------------------
// Engine family: kernels through `run_with_transport`
// ---------------------------------------------------------------------

fn untraced_run(job: &Job, cfg: &RunConfig) -> Result<RunReport, String> {
    let mut w = job.spec.build(job.seed).map_err(|e| e.to_string())?;
    try_run_workload(w.as_mut(), cfg).map_err(|e| e.to_string())
}

/// Alternates untraced and traced rounds of `jobs` until `budget` is
/// spent (at least one of each), checks the traced reports match the
/// untraced ones bit for bit, and derives the engine layers' metrics.
fn engine_family(jobs: &[Job], cfg: &RunConfig, budget: Duration) -> Result<FamilyTrace, String> {
    let mut nopf_cfg = cfg.clone();
    nopf_cfg.scheme = Scheme::NoPrefetch;
    let nopf: Vec<RunReport> = jobs
        .iter()
        .map(|j| untraced_run(j, &nopf_cfg))
        .collect::<Result<_, _>>()?;

    let mut checks = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut last: Vec<TracedRun> = Vec::new();
    let mut attempted = nopf.len() as u64;
    let started = Instant::now();
    while traced_walls.is_empty()
        || (started.elapsed() < budget && traced_walls.len() < MAX_TRACED_ROUNDS)
    {
        let t = Instant::now();
        let plain: Vec<RunReport> = jobs
            .iter()
            .map(|j| untraced_run(j, cfg))
            .collect::<Result<_, _>>()?;
        untraced_walls.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let traced: Vec<TracedRun> = jobs
            .iter()
            .map(|j| run_traced(j, cfg))
            .collect::<Result<_, _>>()?;
        traced_walls.push(t.elapsed().as_secs_f64());
        attempted += 2 * jobs.len() as u64;
        let same = plain
            .iter()
            .zip(&traced)
            .all(|(p, t)| p.fingerprint() == t.report.fingerprint());
        if !same || checks.is_empty() {
            checks.push(Check::new(
                "traced RunReport fingerprints equal untraced",
                same,
                format!("{} kernel runs", jobs.len()),
            ));
        }
        for run in &traced {
            let base = spans.len();
            spans.extend(run.spans.iter().map(|s| Span {
                parent: s.parent.map(|p| p + base),
                ..s.clone()
            }));
        }
        last = traced;
    }
    let rounds = traced_walls.len() as f64;
    let mut m = Metrics::default();
    let runs: Vec<&TracedRun> = last.iter().collect();
    prefetcher_layers(&runs, &cfg.ampom, &mut m, &mut checks);

    let reports: Vec<&RunReport> = last.iter().map(|r| &r.report).collect();
    let used: u64 = reports.iter().map(|r| r.prefetched_pages_used).sum();
    let prefetched: u64 = reports.iter().map(|r| r.pages_prefetched).sum();
    m.add(
        "prefetcher.useful_ratio",
        used as f64 / prefetched.max(1) as f64,
        "ratio",
        "prefetched pages used / pages prefetched",
    );
    let ampom_req: u64 = reports.iter().map(|r| r.fault_requests).sum();
    let nopf_req: u64 = nopf.iter().map(|r| r.fault_requests).sum();
    m.add(
        "prefetcher.requests_prevented",
        1.0 - ampom_req as f64 / nopf_req.max(1) as f64,
        "ratio",
        format!("1 - AMPoM/NoPrefetch fault requests ({ampom_req}/{nopf_req}, Fig. 7)"),
    );

    let totals = layer_totals(&spans);
    for (metric, span) in [
        ("transport.request_pages_ns", "transport.request_pages"),
        ("transport.wait_for_ns", "transport.wait_for"),
        ("transport.install_arrived_ns", "transport.install_arrived"),
        ("transport.estimates_ns", "transport.estimates"),
    ] {
        let t = totals.get(span).copied().unwrap_or_default();
        m.add(
            metric,
            t.total_ns as f64 / t.calls.max(1) as f64,
            "ns",
            format!("mean span over {} calls", t.calls),
        );
    }
    let calls: u64 = last.iter().map(|r| r.transport_calls).sum();
    m.add(
        "transport.calls",
        calls as f64,
        "count",
        "Transport calls in one round",
    );
    let proposed: u64 = last.iter().map(|r| r.pages_proposed).sum();
    let queued: u64 = last.iter().map(|r| r.pages_queued).sum();
    m.add(
        "transport.prefetch_queued_ratio",
        queued as f64 / proposed.max(1) as f64,
        "ratio",
        "prefetch pages queued / proposed",
    );

    let (next_ns, replay_refs) = workload_next_ns(jobs)?;
    let refs: u64 = last.iter().map(|r| r.refs).sum();
    if replay_refs != refs {
        checks.push(Check::new(
            "workload replay yields the run's reference count",
            false,
            format!("{replay_refs} replayed vs {refs} run"),
        ));
    }
    m.add(
        "workloads.next_ns",
        next_ns,
        "ns",
        "per reference, batch-timed replay",
    );
    m.add(
        "workloads.refs",
        refs as f64,
        "count",
        "references in one round",
    );

    let run_self = totals.get("runner.run").copied().unwrap_or_default();
    let faults: u64 = reports.iter().map(|r| r.faults_total).sum();
    let per_round_self = run_self.self_ns as f64 / rounds;
    m.add(
        "runner.self_ns_per_fault",
        (per_round_self - next_ns * refs as f64) / faults.max(1) as f64,
        "ns",
        "loop span minus transport spans and workload replay time",
    );

    let overhead_share =
        (median(&traced_walls) - median(&untraced_walls)) / median(&untraced_walls);
    Ok(FamilyTrace {
        layers: m,
        spans,
        checks,
        attempted,
        overhead_share,
    })
}

// ---------------------------------------------------------------------
// Multi-migrant family: `run_multi` on one shared deputy
// ---------------------------------------------------------------------

/// Two migrants, RandomAccess and FFT, both storing, under AMPoM with
/// default background writeback.
fn shared_spec(seed: u64, mb: u64) -> MultiRunSpec {
    let cfg = RunConfig::new(Scheme::Ampom).with_writeback(WritebackSpec::default());
    let mut spec = MultiRunSpec::homogeneous(
        cfg,
        WorkloadSpec::kernel(Kernel::RandomAccess, size(mb)),
        seed,
        2,
    );
    spec.migrants[1] = MigrantSpec {
        workload: WorkloadSpec::kernel(Kernel::Fft, size(mb)),
        seed: spec.migrants[1].seed,
    };
    spec
}

fn solo_jobs(spec: &MultiRunSpec) -> Vec<Job> {
    spec.migrants
        .iter()
        .map(|m| Job {
            spec: m.workload.clone(),
            seed: m.seed,
        })
        .collect()
}

/// Condenses a multi-run into one fingerprint.
fn multi_fingerprint(r: &MultiRunReport) -> u64 {
    let stats = |d: &DeputyStats| {
        [
            d.queued_requests,
            d.max_backlog.as_nanos(),
            d.busy_time.as_nanos(),
            d.prefetch_pages_shed,
            d.demand_pages_shed,
            d.shed_events,
            d.hellos_deferred,
        ]
    };
    harness::fold(
        r.reports
            .iter()
            .map(RunReport::fingerprint)
            .chain(r.shard_stats.iter().flat_map(stats))
            .chain(stats(&r.deputy))
            .chain(r.service_shares.iter().map(|s| s.to_bits()))
            .chain(r.pages_coalesced.iter().copied())
            .chain([r.makespan.as_nanos()]),
    )
}

/// Whether the per-shard deputy counters sum (or, for the backlog,
/// max) exactly to the aggregate.
fn shards_sum_to_aggregate(r: &MultiRunReport) -> bool {
    let s = &r.shard_stats;
    let sum = |f: fn(&DeputyStats) -> u64| s.iter().map(f).sum::<u64>();
    let agg = &r.deputy;
    sum(|d| d.queued_requests) == agg.queued_requests
        && s.iter().map(|d| d.busy_time).sum::<SimDuration>() == agg.busy_time
        && s.iter()
            .map(|d| d.max_backlog)
            .max()
            .unwrap_or(SimDuration::ZERO)
            == agg.max_backlog
        && sum(|d| d.prefetch_pages_shed) == agg.prefetch_pages_shed
        && sum(|d| d.demand_pages_shed) == agg.demand_pages_shed
        && sum(|d| d.shed_events) == agg.shed_events
        && sum(|d| d.hellos_deferred) == agg.hellos_deferred
}

fn multi_layers(r: &MultiRunReport, overhead_ratio: f64, m: &mut Metrics) {
    m.add(
        "multirun.overhead_ratio",
        overhead_ratio,
        "ratio",
        "run_multi wall / sum of the migrants' solo try_run_workload walls",
    );
    m.add(
        "deputy_sim.busy_s",
        r.deputy.busy_time.as_secs_f64(),
        "sim_s",
        "simulated deputy busy time",
    );
    m.add(
        "deputy_sim.max_backlog_ms",
        r.deputy.max_backlog.as_secs_f64() * 1e3,
        "sim_ms",
        "worst simulated deputy queue backlog",
    );
    m.add(
        "deputy_sim.queued_requests",
        r.deputy.queued_requests as f64,
        "count",
        "",
    );
    m.add(
        "deputy_sim.pages_coalesced",
        r.pages_coalesced.iter().sum::<u64>() as f64,
        "count",
        "",
    );
    m.add(
        "deputy_sim.fairness_ratio",
        r.fairness_ratio(),
        "ratio",
        "max/min service share",
    );
    m.add(
        "deputy_sim.saturation",
        r.saturation(),
        "ratio",
        "deputy busy / makespan",
    );
    let wb = |f: fn(&RunReport) -> u64| r.reports.iter().map(f).sum::<u64>();
    m.add(
        "writeback.batches",
        wb(|x| x.writeback.batches_sent) as f64,
        "count",
        "",
    );
    m.add(
        "writeback.pages_per_fault",
        wb(|x| x.writeback.pages_written_back) as f64 / wb(|x| x.faults_total).max(1) as f64,
        "ratio",
        "pages written back per simulated fault",
    );
    m.add(
        "writeback.redirties",
        wb(|x| x.writeback.redirties) as f64,
        "count",
        "",
    );
    m.add(
        "writeback.retransmits",
        wb(|x| x.writeback.retransmits) as f64,
        "count",
        "",
    );
}

/// Alternates untraced and span-wrapped `run_multi` calls, and times the
/// two migrants solo under the same configuration.
fn multi_family(spec: &MultiRunSpec, budget: Duration) -> Result<FamilyTrace, String> {
    let jobs = solo_jobs(spec);
    let mut solo_walls = Vec::new();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut tracer = Tracer::default();
    let mut checks = Vec::new();
    let mut attempted = 0;
    let mut report = None;
    let started = Instant::now();
    while traced_walls.is_empty() || (started.elapsed() < budget && traced_walls.len() < 50) {
        let t = Instant::now();
        for j in &jobs {
            untraced_run(j, &spec.cfg)?;
        }
        solo_walls.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let plain = run_multi(spec).map_err(|e| e.to_string())?;
        plain_walls.push(t.elapsed().as_secs_f64());
        tracer.set_op(traced_walls.len() as u64);
        let t = Instant::now();
        let span = tracer.begin("multirun.run_multi");
        let traced = run_multi(spec).map_err(|e| e.to_string())?;
        tracer.end(span);
        traced_walls.push(t.elapsed().as_secs_f64());
        attempted += 2 + jobs.len() as u64;
        let same = multi_fingerprint(&plain) == multi_fingerprint(&traced);
        if !same || checks.is_empty() {
            checks.push(Check::new(
                "traced MultiRunReport fingerprint equals untraced",
                same,
                "",
            ));
        }
        report = Some(traced);
    }
    let report = report.expect("at least one traced round");
    checks.push(Check::new(
        "shard deputy stats sum exactly to the aggregate",
        shards_sum_to_aggregate(&report),
        "",
    ));
    let mut m = Metrics::default();
    multi_layers(&report, median(&plain_walls) / median(&solo_walls), &mut m);
    Ok(FamilyTrace {
        layers: m,
        spans: tracer.spans().to_vec(),
        checks,
        attempted,
        overhead_share: (median(&traced_walls) - median(&plain_walls)) / median(&plain_walls),
    })
}

/// The engine layers at probe size, for workloads that do not reach them.
pub fn engine_probe(seed: u64) -> Result<FamilyTrace, String> {
    engine_family(
        &table1_jobs(seed, PROBE_MB),
        &RunConfig::new(Scheme::Ampom),
        Duration::ZERO,
    )
}

/// The multi-migrant layers at probe size, for workloads that do not
/// reach them.
pub fn multi_probe(seed: u64) -> Result<FamilyTrace, String> {
    multi_family(&shared_spec(seed, PROBE_MB), Duration::ZERO)
}

// ---------------------------------------------------------------------
// table1-solo
// ---------------------------------------------------------------------

fn table1_jobs(seed: u64, mb: u64) -> Vec<Job> {
    Kernel::ALL
        .iter()
        .map(|&k| Job {
            spec: WorkloadSpec::kernel(k, size(mb)),
            seed,
        })
        .collect()
}

fn experiment(scheme: Scheme, job: &Job) -> Result<Experiment, String> {
    Experiment::new(scheme)
        .workload(job.spec.clone())
        .seed(job.seed)
        .build()
        .map_err(|e| e.to_string())
}

/// Tail of a stall sketch at the highest percentile with ten samples
/// beyond it, µs, with the percentile and sample count.
fn stall_tail(sketch: &QuantileSketch) -> (f64, f64, u64) {
    let n = sketch.count();
    let pct = harness::tail_percentile(n as usize).unwrap_or(50.0);
    let us = sketch.quantile(pct / 100.0).as_secs_f64() * 1e6;
    (us, pct, n)
}

pub fn table1_solo(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let jobs = table1_jobs(seed, TABLE1_MB);
    let config = format!(
        "table1-solo kernels=DGEMM,STREAM,RandomAccess,FFT memory_mb={TABLE1_MB} \
         scheme=AMPoM refs=openMosix,NoPrefetch link=fast-ethernet"
    );
    let mut out = Outcome::new(config, 1);

    if trace {
        let cfg = experiment(Scheme::Ampom, &jobs[0])?.config().clone();
        let engine = engine_family(&jobs, &cfg, Duration::from_secs_f64(seconds))?;
        out.add_traced(seed, vec![(Layers::Engine, engine)])?;
        return Ok(out);
    }

    // Set-up: validate the twelve experiments and run the openMosix and
    // NoPrefetch references AMPoM is judged against.
    let mut gauge = HostGauge::new();
    let mut setup = Vec::new();
    let mut refs: Option<(Vec<RunReport>, Vec<RunReport>)> = None;
    let mut setup_repeats = true;
    let mut ampom_exps = Vec::new();
    for _ in 0..SETUP_REPS {
        let reading = gauge.read()?;
        let t = Instant::now();
        let eager_exps: Vec<Experiment> = jobs
            .iter()
            .map(|j| experiment(Scheme::OpenMosix, j))
            .collect::<Result<_, _>>()?;
        let nopf_exps: Vec<Experiment> = jobs
            .iter()
            .map(|j| experiment(Scheme::NoPrefetch, j))
            .collect::<Result<_, _>>()?;
        ampom_exps = jobs
            .iter()
            .map(|j| experiment(Scheme::Ampom, j))
            .collect::<Result<_, _>>()?;
        let eager: Vec<RunReport> = eager_exps
            .iter()
            .map(|e| e.run().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let nopf: Vec<RunReport> = nopf_exps
            .iter()
            .map(|e| e.run().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        setup.push(gauged_s(t.elapsed().as_secs_f64(), reading));
        out.attempted += 8;
        match &refs {
            Some((e0, n0)) => {
                let same = e0
                    .iter()
                    .zip(&eager)
                    .chain(n0.iter().zip(&nopf))
                    .all(|(a, b)| a.fingerprint() == b.fingerprint());
                if !same {
                    out.failed += 8;
                    setup_repeats = false;
                }
            }
            None => refs = Some((eager, nopf)),
        }
    }
    let (eager, nopf) = refs.expect("setup ran");
    out.checks.push(Check::new(
        "set-up references repeat bit for bit",
        setup_repeats,
        format!("{SETUP_REPS} set-ups"),
    ));

    // Warm-up round, then rounds of the four AMPoM kernels.
    let run_round = |reports: &mut Vec<RunReport>| -> Result<(u64, u64), String> {
        reports.clear();
        for e in &ampom_exps {
            reports.push(e.run().map_err(|e| e.to_string())?);
        }
        let faults = reports.iter().map(|r| r.faults_total).sum();
        Ok((
            faults,
            harness::fold(reports.iter().map(RunReport::fingerprint)),
        ))
    };
    let mut reports = Vec::new();
    run_round(&mut reports)?;
    let rounds = Rounds::measure(seconds, 1, &mut gauge, |_| run_round(&mut reports))?;
    out.attempted += rounds.walls.len() as u64 * 4;
    out.failed += rounds.nondeterministic() * 4;
    out.checks.push(rounds.repeat_check());
    out.add_batch_e2e(
        median(&setup),
        &rounds,
        "simulated faults per reference-host CPU second",
        "reference-host CPU µs of the median round of the four AMPoM kernel runs",
    );

    let n = &mut out.named;
    n.add(
        "faults_per_host_s",
        rounds.throughput(),
        "1/s",
        "AMPoM, four kernels, median round",
    );
    n.add(
        "faults_per_host_s_all_rounds",
        rounds.mean_throughput(),
        "1/s",
        "over every round, host contention included",
    );
    let geo = reports
        .iter()
        .zip(&eager)
        .map(|(a, e)| (a.total_time.as_secs_f64() / e.total_time.as_secs_f64()).ln())
        .sum::<f64>()
        / reports.len() as f64;
    n.add(
        "sim_slowdown_vs_eager",
        geo.exp(),
        "ratio",
        "geomean AMPoM / openMosix simulated total time (Fig. 6); model, unvalidated at this size",
    );
    n.add(
        "sim_freeze_ms",
        reports
            .iter()
            .map(|r| r.freeze_time.as_secs_f64() * 1e3)
            .sum::<f64>()
            / reports.len() as f64,
        "sim_ms",
        format!(
            "mean AMPoM freeze (Fig. 5); openMosix {:.1} ms",
            eager
                .iter()
                .map(|r| r.freeze_time.as_secs_f64() * 1e3)
                .sum::<f64>()
                / eager.len() as f64
        ),
    );
    let mut sketch = QuantileSketch::new();
    for r in &reports {
        sketch.merge(&r.stall_sketch);
    }
    let (tail, pct, count) = stall_tail(&sketch);
    n.add(
        "sim_stall_p99_us",
        tail,
        "sim_us",
        format!("p{pct} of {count} simulated stalls (stall_sketch)"),
    );
    for ((a, p), e) in reports.iter().zip(&nopf).zip(&eager) {
        n.add(
            format!("sim.{}.requests_prevented", a.workload),
            1.0 - a.fault_requests as f64 / p.fault_requests.max(1) as f64,
            "ratio",
            format!(
                "Fig. 7; AMPoM/openMosix total {:.3}",
                a.total_time.as_secs_f64() / e.total_time.as_secs_f64()
            ),
        );
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// shared-writeback
// ---------------------------------------------------------------------

pub fn shared_writeback(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let spec = shared_spec(seed, SHARED_MB);
    let config = format!(
        "shared-writeback migrants=RandomAccess,FFT memory_mb={SHARED_MB} scheme=AMPoM \
         writeback=flush_every_8,max_batch_64 deputy=shared link=fast-ethernet"
    );
    let mut out = Outcome::new(config, 2);

    if trace {
        let half = Duration::from_secs_f64(seconds / 2.0);
        let multi = multi_family(&spec, half)?;
        let engine = engine_family(&solo_jobs(&spec), &spec.cfg, half)?;
        out.add_traced(seed, vec![(Layers::Multi, multi), (Layers::Engine, engine)])?;
        return Ok(out);
    }

    // Set-up: validate the spec and run each migrant solo under the same
    // configuration, the baseline of its contention slowdown.
    let jobs = solo_jobs(&spec);
    let mut gauge = HostGauge::new();
    let mut setup = Vec::new();
    let mut solo: Vec<RunReport> = Vec::new();
    let mut setup_repeats = true;
    for _ in 0..SETUP_REPS {
        let reading = gauge.read()?;
        let t = Instant::now();
        spec.cfg.validate().map_err(|e| e.to_string())?;
        for m in &spec.migrants {
            m.workload.validate().map_err(|e| e.to_string())?;
        }
        let reports: Vec<RunReport> = jobs
            .iter()
            .map(|j| untraced_run(j, &spec.cfg))
            .collect::<Result<_, _>>()?;
        setup.push(gauged_s(t.elapsed().as_secs_f64(), reading));
        out.attempted += 2;
        if !solo.is_empty()
            && solo
                .iter()
                .zip(&reports)
                .any(|(a, b)| a.fingerprint() != b.fingerprint())
        {
            out.failed += 2;
            setup_repeats = false;
        }
        solo = reports;
    }
    out.checks.push(Check::new(
        "set-up solo runs repeat bit for bit",
        setup_repeats,
        format!("{SETUP_REPS} set-ups"),
    ));

    let mut last = None;
    let mut sums_ok = true;
    let mut run_round = |_| -> Result<(u64, u64), String> {
        let r = run_multi(&spec).map_err(|e| e.to_string())?;
        let faults = r.reports.iter().map(|x| x.faults_total).sum();
        let fp = multi_fingerprint(&r);
        sums_ok &= shards_sum_to_aggregate(&r);
        last = Some(r);
        Ok((faults, fp))
    };
    run_round(0)?;
    let rounds = Rounds::measure(seconds, 1, &mut gauge, &mut run_round)?;
    let report = last.expect("rounds ran");
    out.attempted += rounds.walls.len() as u64;
    out.failed += rounds.nondeterministic();
    out.checks.push(rounds.repeat_check());
    out.checks.push(Check::new(
        "shard deputy stats sum exactly to the aggregate",
        sums_ok,
        "every round",
    ));
    out.add_batch_e2e(
        median(&setup),
        &rounds,
        "simulated faults per reference-host CPU second, both migrants",
        "reference-host CPU µs of one run_multi, median round",
    );

    let n = &mut out.named;
    n.add(
        "faults_per_host_s",
        rounds.throughput(),
        "1/s",
        "run_multi, both migrants, median round",
    );
    n.add(
        "faults_per_host_s_all_rounds",
        rounds.mean_throughput(),
        "1/s",
        "over every round, host contention included",
    );
    n.add(
        "sim_makespan_s",
        report.makespan.as_secs_f64(),
        "sim_s",
        "slowest migrant's simulated total time; model, unvalidated at this size",
    );
    let mut sketch = QuantileSketch::new();
    for r in &report.reports {
        sketch.merge(&r.stall_sketch);
    }
    let (tail, pct, count) = stall_tail(&sketch);
    n.add(
        "sim_stall_p99_us",
        tail,
        "sim_us",
        format!("p{pct} of {count} simulated stalls"),
    );
    for (r, s) in report.reports.iter().zip(report.slowdowns_vs(&solo)) {
        n.add(
            format!("sim.{}.contention_slowdown", r.workload),
            s,
            "ratio",
            "shared-deputy / solo simulated total time",
        );
    }
    Ok(out)
}
