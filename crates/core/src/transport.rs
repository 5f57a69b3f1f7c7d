//! The deputy↔migrant transport abstraction and the migrant's run loop.
//!
//! The paper's claims are about a *protocol* — demand paging with
//! piggy-backed prefetch — and that protocol should run unchanged
//! whether the far side is a simulated deputy or a real one behind a
//! socket (`ampom-rpc`).
//!
//! [`Transport`] captures exactly the runner↔network surface: freeze,
//! paging requests, arrival waits, page installs, syscall forwarding and
//! the monitor estimates the AMPoM analysis consumes.
//! [`run_with_transport`] is the one loop that runs a migrant's
//! reference stream (Algorithm 1) against any transport;
//! [`run_workload`](crate::runner::run_workload) is that loop over a
//! [`SimulatedTransport`], and so are the multi-migrant handles,
//! `ampom-rpc`'s live transport and [`run_vm`](crate::vm::run_vm).
//!
//! [`SimulatedTransport`] is the in-process deputy on the FIFO link
//! model. It also owns the three features that only a simulated link
//! can model, next to the path and deputy state they mutate: FFA
//! file-server paging, fault injection with the recovery protocol of
//! [`crate::reliability`], and resident-limit CLOCK eviction. Transports
//! that do not model them inherit default methods that reproduce the
//! fault-free behaviour; loops over such transports (`run_multi`,
//! `run_live`) reject configurations that ask for them
//! ([`RunConfig::simulated_only_feature`]).

use std::collections::{HashMap, VecDeque};

use ampom_mem::eviction::ClockEvictor;
use ampom_mem::page::{PageId, PAGE_SIZE};
use ampom_mem::space::{AddressSpace, PageState, TouchOutcome};
use ampom_mem::table::{PageLocation, PageTablePair};
use ampom_net::calibration::{AMPOM_ANALYSIS_COST, MIGRATION_BASE_COST, PER_MESSAGE_OVERHEAD};
use ampom_net::cross::CrossTraffic;
use ampom_net::fault::Fate;
use ampom_net::link::LinkConfig;
use ampom_obs::PhaseBreakdown;
use ampom_sim::rng::SimRng;
use ampom_sim::time::{SimDuration, SimTime};
use ampom_sim::trace::{Trace, TraceData, TraceKind};
use ampom_workloads::memref::Workload;

use crate::cluster::NetPath;
use crate::deputy::{Deputy, ServedPage};
use crate::error::AmpomError;
use crate::lifecycle::{writeback_batch_bytes, ForwardWriteback};
use crate::metrics::{DeputyStats, FaultStats, RunReport, RunSeries};
use crate::migration::{perform_freeze, FreezeOutcome, PreMigrationState, Scheme};
use crate::monitor::MonitorDaemon;
use crate::policy::{PrefetchFeedback, Prefetcher};
use crate::prefetcher::NetEstimates;
use crate::reliability::{FailurePolicy, FaultInjector, RetryStep};
use crate::runner::{RunConfig, MINOR_FAULT_COST, PAGE_INSTALL_COST};
use crate::slo::QuantileSketch;

/// The wire between the migrant-side runner and the home-node deputy.
///
/// Implementations own everything on the far side of the kernel's fault
/// handler: the request/reply channel, the staging buffer of arrived
/// pages, and the monitor that estimates `t0`/`td` for the prefetcher.
/// Times are [`SimTime`]: the simulated transport computes them exactly;
/// a live transport maps measured wall-clock waits onto the same axis.
///
/// The methods with default bodies cover what only some transports
/// model (eviction, outages, file-server paging); each default
/// reproduces the fault-free behaviour in terms of the required methods.
pub trait Transport {
    /// Performs the freeze phase of the migration for `scheme`, shipping
    /// whatever the scheme ships eagerly, and returns the resulting
    /// address space / page tables / timing.
    fn freeze(
        &mut self,
        scheme: Scheme,
        pre: &PreMigrationState,
        trace: &mut Trace,
    ) -> Result<FreezeOutcome, AmpomError>;

    /// Sends one paging request — `demand` first if present, then the
    /// prefetch zone — and returns the *prefetch* pages actually queued
    /// (the deputy may drop duplicates; a live client may trim to its
    /// in-flight quota). The demand page is never in the returned list.
    fn request_pages(
        &mut self,
        now: SimTime,
        demand: Option<PageId>,
        prefetch: &[PageId],
        table: &mut PageTablePair,
    ) -> Result<Vec<PageId>, AmpomError>;

    /// Blocks until `page` (which must be in flight) is available and
    /// returns its arrival time. May be in the past when the page was
    /// already delivered by the pipeline; callers only advance `now`
    /// forward. The live implementation retries/degrades internally via
    /// the shared [`RetrySchedule`](crate::reliability::RetrySchedule).
    fn wait_for(&mut self, page: PageId, now: SimTime) -> Result<SimTime, AmpomError>;

    /// Installs every staged page that has arrived by `now` into `space`,
    /// charging [`PAGE_INSTALL_COST`] per page.
    fn install_arrived(&mut self, now: &mut SimTime, space: &mut AddressSpace);

    /// Whether `page` has been requested and not yet installed.
    fn is_in_flight(&self, page: PageId) -> bool;

    /// Number of requested-but-uninstalled pages.
    fn in_flight_count(&self) -> usize;

    /// Forwards a system call to the home node; returns its completion
    /// time (the home dependency, paper §2.2).
    fn forward_syscall(&mut self, now: SimTime, work: SimDuration) -> Result<SimTime, AmpomError>;

    /// Advances the monitor daemon to `now` and returns its current
    /// `t0`/`td` estimates for the prefetcher's Eq. 3 budget.
    fn estimates(&mut self, now: SimTime) -> NetEstimates;

    /// Notifies the monitor that the lookback window wrapped `wraps`
    /// times in total (bandwidth re-estimation trigger).
    fn on_window_wrap(&mut self, now: SimTime, wraps: u64);

    /// Reply-direction link utilisation over `[0, now]` (series samples).
    fn reply_utilization(&mut self, now: SimTime) -> f64;

    /// Bytes sent home→destination so far.
    fn bytes_to_dest(&self) -> u64;

    /// Bytes sent destination→home so far.
    fn bytes_from_dest(&self) -> u64;

    /// Deputy-side service statistics.
    fn deputy_stats(&self) -> DeputyStats;

    /// Recovery-protocol statistics (retries, reconnects, fallbacks).
    /// The simulated fault-free transport reports all-zero.
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// Carries one writeback delta batch toward the home node and returns
    /// `(bytes_on_wire, settled_at)` — the instant the batch is applied
    /// and acknowledged. The default declines (no writeback support):
    /// zero bytes, instant settle. Background semantics: callers charge
    /// the link, not the migrant's clock.
    fn writeback_batch(
        &mut self,
        now: SimTime,
        seq: u64,
        entries: &[(PageId, u64)],
    ) -> Result<(u64, SimTime), AmpomError> {
        let _ = (seq, entries);
        Ok((0, now))
    }

    /// Drains transport-internal trace events (live connects, retries,
    /// reconnects) accumulated since the last call.
    fn drain_trace(&mut self) -> Vec<(SimTime, TraceKind, TraceData)> {
        Vec::new()
    }

    /// The instant a system call forwarded at `now` can start: `now`
    /// unless the deputy is down, in which case the call waits for it to
    /// come back (the loop charges the wait to stall). The default
    /// deputy never goes down.
    fn deputy_up_at(&mut self, now: SimTime) -> SimTime {
        now
    }

    /// Reports a touch of `page` at `now` that needed no fetch — a hit,
    /// or a local zero-fill allocation — to a transport that tracks
    /// residency (eviction). The default tracks nothing.
    fn note_touch(
        &mut self,
        now: SimTime,
        page: PageId,
        outcome: TouchOutcome,
        space: &mut AddressSpace,
        table: &mut PageTablePair,
    ) {
        let _ = (now, page, outcome, space, table);
    }

    /// [`Self::install_arrived`] while the migrant handles a fault on
    /// `fault`: a transport that evicts to make room must spare that
    /// page and may move victims in `table`. The default installs
    /// without eviction.
    fn install_arrived_for(
        &mut self,
        fault: PageId,
        now: &mut SimTime,
        space: &mut AddressSpace,
        table: &mut PageTablePair,
    ) {
        let _ = (fault, table);
        self.install_arrived(now, space);
    }

    /// Demand-fetches `page` with the `prefetch` zone piggy-backed:
    /// records the paging request, waits for the page, installs what has
    /// arrived and records the resolution. Returns the prefetch pages
    /// queued (as [`Self::request_pages`]) and the stall; `now` ends past
    /// the stall and the installs. On return `page` is resident.
    fn demand_fetch(
        &mut self,
        now: &mut SimTime,
        page: PageId,
        prefetch: &[PageId],
        space: &mut AddressSpace,
        table: &mut PageTablePair,
        trace: &mut Trace,
    ) -> Result<(Vec<PageId>, SimDuration), AmpomError> {
        record_paging_request(trace, *now, page, prefetch);
        let queued = self.request_pages(*now, Some(page), prefetch, table)?;
        let arrival = self.wait_for(page, *now)?;
        let stall = arrival.saturating_since(*now);
        *now = (*now).max(arrival);
        self.install_arrived_for(page, now, space, table);
        trace.record(
            *now,
            TraceKind::FaultResolved,
            TraceData::page(page.index()),
        );
        Ok((queued, stall))
    }

    /// Pages pushed back home to respect a resident limit so far.
    fn pages_evicted(&self) -> u64 {
        0
    }
}

fn record_paging_request(trace: &mut Trace, now: SimTime, page: PageId, prefetch: &[PageId]) {
    trace.record(
        now,
        TraceKind::PagingRequest,
        TraceData::page(page.index()).with_pages(prefetch.len() as u64),
    );
}

/// The in-process transport: a simulated deputy on the FIFO link model,
/// plus the link-level features only a simulation can model — fault
/// injection, FFA file-server paging and resident-limit eviction.
///
/// A fault-free configuration leaves all three off, and every method
/// then takes the historical fault-free path (pinned by the golden
/// fingerprints).
#[derive(Debug)]
pub struct SimulatedTransport {
    path: NetPath,
    deputy: Deputy,
    monitor: MonitorDaemon,
    in_flight: HashMap<PageId, SimTime>,
    /// Arrived-or-arriving pages, sorted by arrival time.
    staged: VecDeque<(SimTime, PageId)>,
    /// Message loss, jitter and outages; `None` for a null profile.
    injector: Option<FaultInjector>,
    stats: FaultStats,
    /// FFA's file-server schedule, set at the freeze.
    ffa: Option<FfaState>,
    resident_limit_mb: Option<u64>,
    /// CLOCK eviction under `resident_limit_mb`, set at the freeze.
    evictor: Option<ClockEvictor>,
    pages_evicted: u64,
}

impl SimulatedTransport {
    /// Builds the transport for `cfg`: its link (with cross traffic when
    /// configured, seeded from `cfg.seed`), its fault profile and its
    /// resident limit.
    pub fn new(cfg: &RunConfig) -> Self {
        let mut path = NetPath::new(cfg.link);
        if let Some(spec) = cfg.cross_traffic {
            path = path.with_cross_traffic(CrossTraffic::new(
                spec.bytes_per_sec,
                spec.burst_bytes,
                SimRng::seed_from_u64(cfg.seed),
            ));
        }
        let monitor = MonitorDaemon::new(&path);
        // Only a non-null profile instantiates the reliability layer, so
        // zero-fault runs stay bit-identical to the fault-free path.
        let injector = cfg
            .faults
            .as_ref()
            .filter(|p| !p.is_null())
            .map(|p| FaultInjector::new(p, cfg.link, cfg.seed));
        SimulatedTransport {
            path,
            deputy: Deputy::new(),
            monitor,
            in_flight: HashMap::new(),
            staged: VecDeque::new(),
            injector,
            stats: FaultStats::default(),
            ffa: None,
            resident_limit_mb: cfg.resident_limit_mb,
            evictor: None,
            pages_evicted: 0,
        }
    }

    /// Registers deputy replies in flight and in the staging buffer. A
    /// retry's resend can race the late original: the earliest arrival
    /// wins, so the migrant never waits longer than it has to.
    fn stage(&mut self, served: &[ServedPage]) {
        for s in served {
            self.in_flight
                .entry(s.page)
                .and_modify(|t| *t = (*t).min(s.arrives))
                .or_insert(s.arrives);
            stage_sorted(&mut self.staged, s.arrives, s.page);
        }
    }

    /// Installs every staged page that has arrived by `now`. Installs are
    /// idempotent: under faults a reply for an already-resident page is
    /// suppressed and counted, and a page evicted while in flight and
    /// re-created locally drops its stale copy. With `evict`, each install
    /// is first admitted by the evictor, sparing the faulted page.
    fn install_staged(
        &mut self,
        now: &mut SimTime,
        space: &mut AddressSpace,
        evict: Option<(PageId, &mut PageTablePair)>,
    ) {
        let mut evict = evict.filter(|_| self.evictor.is_some());
        let mut installed = 0u64;
        while let Some(&(arrival, page)) = self.staged.front() {
            if arrival > *now {
                break;
            }
            self.staged.pop_front();
            self.in_flight.remove(&page);
            if space.state(page) != PageState::Remote {
                if self.injector.is_some() && space.is_resident(page) {
                    self.stats.duplicate_replies += 1;
                }
                continue;
            }
            if let Some((fault, table)) = evict.as_mut() {
                self.admit(page, *fault, *now, table, space);
            }
            space.install(page);
            installed += 1;
        }
        if installed > 0 {
            *now += PAGE_INSTALL_COST.saturating_mul(installed);
        }
    }

    /// Registers `page` with the evictor, first evicting (never
    /// `protect`) until it fits. Victims go back to the origin: the
    /// write-back rides the request-direction link and the table
    /// re-adopts the page at the origin. No-op without a limit.
    fn admit(
        &mut self,
        page: PageId,
        protect: PageId,
        now: SimTime,
        table: &mut PageTablePair,
        space: &mut AddressSpace,
    ) {
        let Some(ev) = self.evictor.as_mut() else {
            return;
        };
        while ev.at_capacity() {
            let victim = ev.evict(protect);
            self.pages_evicted += 1;
            self.path
                .send_control_to_home(now, NetPath::page_reply_bytes());
            if table.lookup(victim) == Some(PageLocation::Destination) {
                table.return_to_origin(victim);
            }
            space.mark_remote(victim);
        }
        ev.on_install(page);
    }

    /// Sets up CLOCK eviction under `limit_mb` at resume: registers what
    /// the freeze installed and pushes the overflow straight back
    /// (swap-over-network from the first instant — what an eager copy
    /// into a too-small node does).
    fn start_eviction(&mut self, limit_mb: u64, resume: SimTime, frozen: &mut FreezeOutcome) {
        let limit = (limit_mb * 1024 * 1024 / PAGE_SIZE).max(4);
        let mut ev = ClockEvictor::new(frozen.space.total_pages(), limit);
        let resident: Vec<PageId> = frozen
            .space
            .pages_where(|st| matches!(st, PageState::Resident { .. }))
            .collect();
        for p in resident {
            if ev.at_capacity() {
                self.pages_evicted += 1;
                self.path
                    .send_control_to_home(resume, NetPath::page_reply_bytes());
                frozen.table.return_to_origin(p);
                frozen.space.mark_remote(p);
            } else {
                ev.on_install(p);
            }
        }
        self.evictor = Some(ev);
    }

    fn injector(&mut self) -> &mut FaultInjector {
        self.injector
            .as_mut()
            .expect("the recovery protocol runs only under a fault profile")
    }

    /// The demand-page wait under faults: stall for `demand` with
    /// timeouts, backoff and retries, degrading via the configured
    /// [`FailurePolicy`] when the budget runs out. Returns the stall; on
    /// return the page is resident.
    fn await_demand(
        &mut self,
        demand: PageId,
        now: &mut SimTime,
        space: &mut AddressSpace,
        table: &mut PageTablePair,
    ) -> Result<SimDuration, AmpomError> {
        let mut stall = SimDuration::ZERO;
        self.injector().schedule.begin_wait();
        loop {
            self.install_staged(now, space, Some((demand, table)));
            if space.is_resident(demand) {
                return Ok(stall);
            }
            let deadline = self.injector().schedule.deadline_after(*now);
            if let Some(&arrival) = self.in_flight.get(&demand) {
                if arrival <= deadline {
                    // The reply is on the wire and will beat the timer.
                    // Saturating: the per-page install charge advances the
                    // clock after the pop loop breaks, so a big arrived
                    // batch can push `now` past the next arrival — the
                    // reply is then already here and the next install pass
                    // picks it up.
                    stall += arrival.saturating_since(*now);
                    *now = (*now).max(arrival);
                    continue;
                }
            }
            // Nothing (timely) in flight: the timer fires.
            stall += deadline.since(*now);
            *now = deadline;
            self.stats.timeouts += 1;
            let policy = match self.injector().schedule.on_timeout() {
                RetryStep::Retry => {
                    self.stats.retries += 1;
                    self.request_pages(*now, Some(demand), &[], table)?;
                    continue;
                }
                // Retry budget exhausted: graceful degradation (the
                // schedule already forced the eager fallback if this run
                // is past its policy-cycle cap).
                RetryStep::Degrade(policy) => policy,
            };
            self.stats.reconnects += 1;
            let start = *now;
            *now = self.injector().profile.downtime.next_up(*now);
            match policy {
                FailurePolicy::StallReconnect => {
                    // Wait out any deputy downtime; if the demand's reply
                    // is already on the wire (timeouts were just tighter
                    // than a congested reply queue), stall for it instead
                    // of re-requesting into the backlog.
                    let resend = match self.in_flight.get(&demand) {
                        Some(&arrival) => {
                            *now = (*now).max(arrival);
                            false
                        }
                        None => true,
                    };
                    self.injector().schedule.begin_wait();
                    if resend {
                        self.request_pages(*now, Some(demand), &[], table)?;
                    }
                }
                FailurePolicy::EagerFallback => self.eager_fallback(now, space, table, demand),
                FailurePolicy::Remigrate => self.remigrate(now, space, table),
            }
            let spent = now.since(start);
            stall += spent;
            self.stats.recovery_time += spent;
        }
    }

    /// Residual eager copy: abandon outstanding requests and ship every
    /// page still remote in one bulk transfer, as the original openMosix
    /// would have at freeze time.
    fn eager_fallback(
        &mut self,
        now: &mut SimTime,
        space: &mut AddressSpace,
        table: &mut PageTablePair,
        protect: PageId,
    ) {
        self.staged.clear();
        self.in_flight.clear();
        let remote: Vec<PageId> = space
            .pages_where(|st| matches!(st, PageState::Remote))
            .collect();
        for &p in &remote {
            if table.lookup(p) == Some(PageLocation::Origin) {
                table.transfer_to_destination(p);
            }
        }
        let n = remote.len() as u64;
        *now = self.path.bulk_transfer(*now, n * PAGE_SIZE);
        for &p in &remote {
            self.admit(p, protect, *now, table, space);
            space.install(p);
        }
        *now += PAGE_INSTALL_COST.saturating_mul(n);
        self.stats.fallback_pages += n;
    }

    /// Migrate back home: write the dirty resident pages back, pay the
    /// migration base cost, and continue co-located with the home node —
    /// every remaining remote page becomes a local page there.
    fn remigrate(
        &mut self,
        now: &mut SimTime,
        space: &mut AddressSpace,
        table: &mut PageTablePair,
    ) {
        self.staged.clear();
        self.in_flight.clear();
        let resident: Vec<PageId> = space
            .pages_where(|st| matches!(st, PageState::Resident { .. }))
            .collect();
        let bytes = resident.len() as u64 * PAGE_SIZE;
        *now = self
            .path
            .bulk_transfer_to_home(*now + MIGRATION_BASE_COST, bytes);
        for &p in &resident {
            if table.lookup(p) == Some(PageLocation::Destination) {
                table.return_to_origin(p);
            }
        }
        // Execution resumes at the home node: pages that were remote are
        // local there and install at no network cost.
        let remote: Vec<PageId> = space
            .pages_where(|st| matches!(st, PageState::Remote))
            .collect();
        for &p in &remote {
            space.install(p);
        }
        self.stats.remigrated = true;
    }
}

impl Transport for SimulatedTransport {
    fn freeze(
        &mut self,
        scheme: Scheme,
        pre: &PreMigrationState,
        trace: &mut Trace,
    ) -> Result<FreezeOutcome, AmpomError> {
        let mut frozen = perform_freeze(scheme, pre, &mut self.path, trace);
        let resume = SimTime::ZERO + frozen.freeze_time;
        if scheme == Scheme::Ffa {
            self.ffa = Some(FfaState::new(pre, resume, self.path.config()));
        }
        if let Some(mb) = self.resident_limit_mb {
            self.start_eviction(mb, resume, &mut frozen);
        }
        Ok(frozen)
    }

    /// Under faults the request may be dropped or jittered, the deputy
    /// may be down, and each page reply gets its own fate; only
    /// *delivered* replies are registered in flight.
    fn request_pages(
        &mut self,
        now: SimTime,
        demand: Option<PageId>,
        prefetch: &[PageId],
        table: &mut PageTablePair,
    ) -> Result<Vec<PageId>, AmpomError> {
        let mut pages: Vec<PageId> = Vec::with_capacity(prefetch.len() + 1);
        if let Some(d) = demand {
            pages.push(d);
        }
        pages.extend_from_slice(prefetch);
        let served = match self.injector.as_mut() {
            None => {
                let at_home = self.path.send_request(now, pages.len());
                self.deputy
                    .serve_request(at_home, &pages, table, &mut self.path)
            }
            Some(inj) => {
                let at_home = match inj.request_plan.fate() {
                    Fate::Dropped => {
                        self.path.send_request_lost(now, pages.len());
                        self.stats.messages_dropped += 1;
                        return Ok(Vec::new());
                    }
                    Fate::Delivered { extra_delay } => {
                        self.path.send_request(now, pages.len()) + extra_delay
                    }
                };
                if inj.profile.downtime.is_down(at_home) {
                    // The request reached a dead host; nothing answers.
                    self.stats.deputy_unavailable += 1;
                    return Ok(Vec::new());
                }
                let plan = &mut inj.reply_plan;
                let dropped_before = plan.dropped();
                let served = self.deputy.serve_request_faulty(
                    at_home,
                    &pages,
                    table,
                    &mut self.path,
                    || plan.fate(),
                );
                self.stats.messages_dropped += plan.dropped() - dropped_before;
                served
            }
        };
        self.stage(&served);
        let mut queued = Vec::with_capacity(prefetch.len());
        queued.extend(served.iter().map(|s| s.page).filter(|&p| demand != Some(p)));
        Ok(queued)
    }

    fn wait_for(&mut self, page: PageId, _now: SimTime) -> Result<SimTime, AmpomError> {
        self.in_flight.get(&page).copied().ok_or_else(|| {
            AmpomError::Transport(format!("page {page} awaited but never requested"))
        })
    }

    /// Installs without a page table, so without eviction bookkeeping;
    /// the run loop calls [`Transport::install_arrived_for`].
    fn install_arrived(&mut self, now: &mut SimTime, space: &mut AddressSpace) {
        self.install_staged(now, space, None);
    }

    // `#[inline]` on the per-reference and per-zone-candidate methods:
    // the generic run loop is instantiated in other codegen units, and
    // an out-of-line call here cost table1-solo 7-9% of its throughput.
    #[inline]
    fn is_in_flight(&self, page: PageId) -> bool {
        self.in_flight.contains_key(&page)
    }

    #[inline]
    fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    fn forward_syscall(&mut self, now: SimTime, work: SimDuration) -> Result<SimTime, AmpomError> {
        Ok(self.deputy.forward_syscall(now, work, &mut self.path))
    }

    fn estimates(&mut self, now: SimTime) -> NetEstimates {
        self.monitor.advance(now, &mut self.path);
        self.monitor.estimates()
    }

    fn on_window_wrap(&mut self, now: SimTime, wraps: u64) {
        self.monitor.on_window_wrap(now, wraps, &self.path);
    }

    fn reply_utilization(&mut self, now: SimTime) -> f64 {
        self.path.reply_utilization(now)
    }

    fn bytes_to_dest(&self) -> u64 {
        self.path.bytes_to_dest()
    }

    fn bytes_from_dest(&self) -> u64 {
        self.path.bytes_from_dest()
    }

    fn deputy_stats(&self) -> DeputyStats {
        self.deputy.stats()
    }

    fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    fn writeback_batch(
        &mut self,
        now: SimTime,
        _seq: u64,
        entries: &[(PageId, u64)],
    ) -> Result<(u64, SimTime), AmpomError> {
        let bytes = writeback_batch_bytes(entries.len());
        let arrival = self.path.send_control_to_home(now, bytes);
        Ok((bytes, arrival))
    }

    fn deputy_up_at(&mut self, now: SimTime) -> SimTime {
        let Some(inj) = self.injector.as_ref() else {
            return now;
        };
        if !inj.profile.downtime.is_down(now) {
            return now;
        }
        let up = inj.profile.downtime.next_up(now);
        self.stats.deputy_unavailable += 1;
        self.stats.recovery_time += up.since(now);
        up
    }

    #[inline]
    fn note_touch(
        &mut self,
        now: SimTime,
        page: PageId,
        outcome: TouchOutcome,
        space: &mut AddressSpace,
        table: &mut PageTablePair,
    ) {
        let Some(ev) = self.evictor.as_mut() else {
            return;
        };
        match outcome {
            TouchOutcome::Hit => ev.on_touch(page),
            TouchOutcome::LocalAllocate => self.admit(page, page, now, table, space),
            TouchOutcome::RemoteFault => {}
        }
    }

    fn install_arrived_for(
        &mut self,
        fault: PageId,
        now: &mut SimTime,
        space: &mut AddressSpace,
        table: &mut PageTablePair,
    ) {
        self.install_staged(now, space, Some((fault, table)));
    }

    fn demand_fetch(
        &mut self,
        now: &mut SimTime,
        page: PageId,
        prefetch: &[PageId],
        space: &mut AddressSpace,
        table: &mut PageTablePair,
        trace: &mut Trace,
    ) -> Result<(Vec<PageId>, SimDuration), AmpomError> {
        if let Some(ffa) = self.ffa.as_ref() {
            // FFA: the file server, not the deputy, serves the fault.
            let done = ffa.fetch(*now, page, trace);
            let stall = done.since(*now);
            *now = done;
            table.transfer_to_destination(page);
            space.install(page);
            return Ok((Vec::new(), stall));
        }
        record_paging_request(trace, *now, page, prefetch);
        let queued = self.request_pages(*now, Some(page), prefetch, table)?;
        let stall = if self.injector.is_some() {
            // The request (or any reply) may be lost: the wait retries
            // with backoff and degrades via the failure policy.
            self.await_demand(page, now, space, table)?
        } else {
            let arrival = self.wait_for(page, *now)?;
            let stall = arrival.saturating_since(*now);
            *now = (*now).max(arrival);
            self.install_staged(now, space, Some((page, table)));
            stall
        };
        trace.record(
            *now,
            TraceKind::FaultResolved,
            TraceData::page(page.index()),
        );
        Ok((queued, stall))
    }

    fn pages_evicted(&self) -> u64 {
        self.pages_evicted
    }
}

/// Inserts `(arrives, page)` keeping `staged` sorted by arrival time.
/// Jitter makes arrivals slightly out of order; scanning from the back is
/// O(displacement), which is tiny in practice (and zero on the FIFO
/// fault-free link).
fn stage_sorted(staged: &mut VecDeque<(SimTime, PageId)>, arrives: SimTime, page: PageId) {
    let mut idx = staged.len();
    while idx > 0 && staged[idx - 1].0 > arrives {
        idx -= 1;
    }
    staged.insert(idx, (arrives, page));
}

/// FFA background state: flush schedule and file-server fetch timing.
///
/// The home node pushes the remaining stack pages right after the freeze
/// and flushes every dirty page to the file server in the background;
/// faults are then served by the file server. The flush schedule is
/// modelled analytically (the flush uses the home↔file-server link,
/// which does not contend with the migrant's path).
#[derive(Debug)]
struct FfaState {
    /// Completion time of each page's flush to the file server.
    flush_done: HashMap<PageId, SimTime>,
    /// File-server link (latency/capacity like the cluster LAN).
    link: LinkConfig,
}

impl FfaState {
    fn new(pre: &PreMigrationState, resume_at: SimTime, link: LinkConfig) -> Self {
        // The home node streams all dirty pages to the file server at link
        // speed, starting at resume.
        let per_page = link.serialization_time(PAGE_SIZE);
        let mut flush_done = HashMap::new();
        let mut t = resume_at;
        for p in pre.dirty_pages() {
            t += per_page;
            flush_done.insert(p, t + link.latency);
        }
        FfaState { flush_done, link }
    }

    /// Demand-fetches `page` from the file server at `now`; returns when
    /// the page is installed at the destination.
    fn fetch(&self, now: SimTime, page: PageId, trace: &mut Trace) -> SimTime {
        let request_arrives = now + PER_MESSAGE_OVERHEAD + self.link.latency;
        let available = self
            .flush_done
            .get(&page)
            .copied()
            .unwrap_or(request_arrives);
        let served = request_arrives.max(available);
        let reply = served + self.link.serialization_time(PAGE_SIZE + 32) + self.link.latency;
        trace.record_with(reply, TraceKind::FileServerFlush, || {
            TraceData::page(page.index()).with_note("via file server")
        });
        reply
    }
}

/// Executes `workload` under `cfg` against an arbitrary [`Transport`]:
/// the migrant's protocol loop (Algorithm 1) with the prefetch policy
/// `cfg` selects. With a [`SimulatedTransport`] this *is*
/// [`run_workload`](crate::runner::run_workload); with `ampom-rpc`'s
/// live transport the same protocol drives a real socket.
pub fn run_with_transport<W, T>(
    workload: &mut W,
    cfg: &RunConfig,
    transport: &mut T,
) -> Result<RunReport, AmpomError>
where
    W: Workload + ?Sized,
    T: Transport + ?Sized,
{
    let mut prefetcher: Option<Box<dyn Prefetcher>> =
        (cfg.scheme == Scheme::Ampom).then(|| cfg.policy.build(&cfg.ampom));
    let pf = prefetcher
        .as_mut()
        .map(|pf| pf.as_mut() as &mut dyn Prefetcher);
    run_migrant(workload, cfg, transport, pf)
}

/// The migrant loop behind [`run_with_transport`], with the prefetcher
/// supplied by the caller (the VM runner's per-guest adaptor; `None`
/// analyses nothing). Every fault is recorded, analysed and
/// demand-paged here and nowhere else.
pub(crate) fn run_migrant<W, T>(
    workload: &mut W,
    cfg: &RunConfig,
    transport: &mut T,
    mut prefetcher: Option<&mut dyn Prefetcher>,
) -> Result<RunReport, AmpomError>
where
    W: Workload + ?Sized,
    T: Transport + ?Sized,
{
    cfg.validate()?;

    let layout = workload.layout().clone();
    let pre = PreMigrationState::new(layout.clone(), workload.allocation_pages());
    let program_mb = (pre.allocated.len() as u64 * PAGE_SIZE) >> 20;

    let mut trace = if cfg.trace {
        Trace::enabled()
    } else {
        Trace::disabled()
    };

    let freeze = transport.freeze(cfg.scheme, &pre, &mut trace)?;
    let mut space = freeze.space;
    let mut table = freeze.table;
    let mut now = SimTime::ZERO + freeze.freeze_time;

    let total_pages = layout.total_pages();
    let mut was_prefetched = vec![false; total_pages as usize];
    let mut series = cfg.sample_series_every.map(|_| RunSeries::default());
    let sample_every = cfg.sample_series_every.unwrap_or(u64::MAX);
    let mut faults_since_sample = 0u64;

    // Measurement state.
    let mut compute_time = SimDuration::ZERO;
    let mut stall_time = SimDuration::ZERO;
    // Per-fault stall distribution for the SLO layer. Syscall-delay
    // stalls are not recorded: the sketch measures paging behaviour.
    let mut stall_sketch = QuantileSketch::new();
    let mut analysis_time = SimDuration::ZERO;
    // Phase attribution: every clock advance below is charged to exactly
    // one phase, so the disjoint phases sum to total_time to the
    // nanosecond (tested in tests/observability.rs).
    let mut install_time = SimDuration::ZERO;
    let mut prefetch_overlap = SimDuration::ZERO;
    let mut faults_total = 0u64;
    let mut fault_requests = 0u64;
    let mut prefetch_only_requests = 0u64;
    let mut pages_demand = 0u64;
    let mut pages_prefetched = 0u64;
    let mut prefetched_used = 0u64;
    let mut pages_local_alloc = 0u64;

    // CPU-utilisation tracking for the C array: share of wall time spent
    // computing since the previous fault.
    let mut cpu_since_fault = SimDuration::ZERO;
    let mut last_fault_at = now;

    let mut syscalls_forwarded = 0u64;
    let mut syscall_time = SimDuration::ZERO;
    let mut refs_since_syscall = 0u64;

    // Background writeback (None on the fingerprint-pinned default path).
    let mut wb = cfg.writeback.map(ForwardWriteback::new);

    let page_limit = PageId(total_pages);

    for r in &mut *workload {
        if let Some(profile) = cfg.syscalls {
            refs_since_syscall += 1;
            if refs_since_syscall >= profile.every_refs {
                refs_since_syscall = 0;
                // The home dependency is absolute: a forwarded call can
                // only execute once the deputy is back up.
                let up = transport.deputy_up_at(now);
                stall_time += up.saturating_since(now);
                now = now.max(up);
                let done = transport.forward_syscall(now, profile.work)?;
                syscall_time += done.since(now);
                syscalls_forwarded += 1;
                trace.record(done, TraceKind::SyscallForwarded, TraceData::empty());
                now = done;
            }
        }

        // Prefetch-usage accounting (one cheap indexed read per touch).
        let pidx = r.page.index() as usize;
        if was_prefetched[pidx] {
            was_prefetched[pidx] = false;
            prefetched_used += 1;
        }

        let outcome = space.touch(r.page, r.write);
        match outcome {
            TouchOutcome::Hit => {
                transport.note_touch(now, r.page, outcome, &mut space, &mut table);
                if let Some(wb) = wb.as_mut() {
                    wb.note_touch(r.page, r.write);
                }
            }
            TouchOutcome::LocalAllocate => {
                // Anonymous first touch: minor fault, no network. Still a
                // fault for the lookback window — the kernel handler runs.
                faults_total += 1;
                pages_local_alloc += 1;
                if let Some(wb) = wb.as_mut() {
                    // First touches allocate dirty (zero-fill).
                    wb.note_touch(r.page, true);
                }
                now += MINOR_FAULT_COST;
                if table.lookup(r.page).is_none() {
                    table.create_at_destination(r.page);
                }
                transport.note_touch(now, r.page, outcome, &mut space, &mut table);
                let util = utilization(cpu_since_fault, now, last_fault_at);
                last_fault_at = now;
                cpu_since_fault = SimDuration::ZERO;
                if let Some(pf) = prefetcher.as_deref_mut() {
                    let prefetch = analyze(
                        pf,
                        r.page,
                        &mut now,
                        util,
                        transport,
                        page_limit,
                        &space,
                        PrefetchFeedback {
                            pages_prefetched,
                            prefetched_used,
                        },
                        &mut analysis_time,
                        &mut trace,
                    );
                    if !prefetch.is_empty() {
                        prefetch_only_requests += 1;
                        note_queued(
                            transport.request_pages(now, None, &prefetch, &mut table)?,
                            &mut was_prefetched,
                            &mut pages_prefetched,
                        );
                    }
                }
            }
            TouchOutcome::RemoteFault => {
                faults_total += 1;
                let fault_at = now;
                trace.record(now, TraceKind::PageFault, TraceData::page(r.page.index()));
                if let Some(wb) = wb.as_mut() {
                    if wb.on_fault() {
                        flush_writeback(wb, now, transport, &mut space, &mut trace)?;
                    }
                }
                let install_from = now;
                transport.install_arrived_for(r.page, &mut now, &mut space, &mut table);
                install_time += now.since(install_from);

                let util = utilization(cpu_since_fault, fault_at, last_fault_at);
                last_fault_at = fault_at;
                cpu_since_fault = SimDuration::ZERO;

                // AMPoM analysis (every fault, per Algorithm 1).
                let prefetch = match prefetcher.as_deref_mut() {
                    Some(pf) => analyze(
                        pf,
                        r.page,
                        &mut now,
                        util,
                        transport,
                        page_limit,
                        &space,
                        PrefetchFeedback {
                            pages_prefetched,
                            prefetched_used,
                        },
                        &mut analysis_time,
                        &mut trace,
                    ),
                    None => Vec::new(),
                };

                if let Some(series) = series.as_mut() {
                    faults_since_sample += 1;
                    if faults_since_sample >= sample_every {
                        faults_since_sample = 0;
                        series
                            .in_flight
                            .push(now, transport.in_flight_count() as f64);
                        series.resident.push(now, space.resident_pages() as f64);
                        if let Some(pf) = prefetcher.as_deref() {
                            series
                                .zone_budget
                                .push(now, pf.observe().stats.budgets.mean());
                        }
                        series
                            .link_utilization
                            .push(now, transport.reply_utilization(now));
                    }
                }

                if space.is_resident(r.page) || transport.is_in_flight(r.page) {
                    // Resident: arrived with the last batch, the install
                    // above resolved it. In flight: already requested, so
                    // wait for the pipeline, no demand request ("wait for
                    // i to arrive"). Either way new zone pages still go
                    // out.
                    if !prefetch.is_empty() {
                        prefetch_only_requests += 1;
                        note_queued(
                            transport.request_pages(now, None, &prefetch, &mut table)?,
                            &mut was_prefetched,
                            &mut pages_prefetched,
                        );
                    }
                    if !space.is_resident(r.page) {
                        let arrival = transport.wait_for(r.page, now)?;
                        if arrival > now {
                            stall_time += arrival.since(now);
                            stall_sketch.record(arrival.since(now));
                            now = arrival;
                        }
                        let install_from = now;
                        transport.install_arrived_for(r.page, &mut now, &mut space, &mut table);
                        install_time += now.since(install_from);
                        trace.record_with(now, TraceKind::FaultResolved, || {
                            TraceData::page(r.page.index()).with_note("pipelined")
                        });
                    }
                } else {
                    // Demand fetch, zone piggy-backed. Clock advances
                    // inside are stall waits or page-install charges.
                    fault_requests += 1;
                    pages_demand += 1;
                    let wait_from = now;
                    let (queued, stall) = transport.demand_fetch(
                        &mut now, r.page, &prefetch, &mut space, &mut table, &mut trace,
                    )?;
                    note_queued(queued, &mut was_prefetched, &mut pages_prefetched);
                    stall_time += stall;
                    stall_sketch.record(stall);
                    install_time += now.since(wait_from).saturating_sub(stall);
                }

                // The faulted page is resident now; apply the touch.
                debug_assert!(space.is_resident(r.page));
                let outcome = space.touch(r.page, r.write);
                debug_assert_eq!(outcome, TouchOutcome::Hit);
                if let Some(wb) = wb.as_mut() {
                    wb.note_touch(r.page, r.write);
                }
            }
        }
        now += r.cpu;
        compute_time += r.cpu;
        cpu_since_fault += r.cpu;
        if transport.in_flight_count() > 0 {
            prefetch_overlap += r.cpu;
        }
    }

    // Final writeback drain: the run ends with every dirty page home.
    if let Some(wb) = wb.as_mut() {
        flush_writeback(wb, now, transport, &mut space, &mut trace)?;
    }

    for (at, kind, data) in transport.drain_trace() {
        trace.record(at, kind, data);
    }
    trace.record(now, TraceKind::WorkloadDone, TraceData::empty());
    let total_time = now.since(SimTime::ZERO);

    let prefetch_stats = prefetcher.map(|pf| pf.observe().stats).unwrap_or_default();

    let fault_stats = transport.fault_stats();
    let phases = PhaseBreakdown {
        freeze: freeze.freeze_time,
        compute: compute_time,
        minor_fault: MINOR_FAULT_COST.saturating_mul(pages_local_alloc),
        analysis: analysis_time,
        install: install_time,
        fault_stall: stall_time.saturating_sub(fault_stats.recovery_time),
        recovery: fault_stats.recovery_time,
        syscall: syscall_time,
        prefetch_overlap,
    };

    Ok(RunReport {
        scheme: cfg.scheme,
        workload: workload.name().to_string(),
        program_mb,
        freeze_time: freeze.freeze_time,
        total_time,
        compute_time,
        stall_time,
        stall_sketch,
        faults_total,
        fault_requests,
        prefetch_only_requests,
        pages_demand_fetched: pages_demand,
        pages_prefetched,
        prefetched_pages_used: prefetched_used,
        pages_local_alloc,
        syscalls_forwarded,
        syscall_time,
        pages_evicted: transport.pages_evicted(),
        bytes_to_dest: transport.bytes_to_dest(),
        bytes_from_dest: transport.bytes_from_dest(),
        mpt_bytes: freeze.mpt_bytes,
        analysis_time,
        analysis_count: prefetch_stats.analyses,
        prefetch_stats,
        faults: fault_stats,
        deputy: transport.deputy_stats(),
        writeback: wb.map(|w| w.stats()).unwrap_or_default(),
        trace,
        series,
        phases,
    })
}

/// Ships every ready writeback batch over the transport (background
/// traffic: the link is charged, the migrant's clock is not) and cleans
/// the flushed pages.
fn flush_writeback<T: Transport + ?Sized>(
    wb: &mut ForwardWriteback,
    now: SimTime,
    transport: &mut T,
    space: &mut AddressSpace,
    trace: &mut Trace,
) -> Result<(), AmpomError> {
    while let Some((seq, entries)) = wb.take_batch() {
        let (bytes, acked_at) = transport.writeback_batch(now, seq, &entries)?;
        trace.record_with(now, TraceKind::WritebackFlush, || TraceData {
            pages: Some(entries.len() as u64),
            bytes: Some(bytes),
            ..TraceData::default()
        });
        for &(p, _) in &entries {
            space.clean(p);
        }
        wb.complete(seq, &entries, bytes, now, acked_at);
    }
    Ok(())
}

/// Marks the prefetch pages a request actually queued.
fn note_queued(queued: Vec<PageId>, was_prefetched: &mut [bool], pages_prefetched: &mut u64) {
    for page in queued {
        *pages_prefetched += 1;
        was_prefetched[page.index() as usize] = true;
    }
}

/// Share of wall time spent computing since the last fault (the `C_i` of
/// each window record).
fn utilization(cpu: SimDuration, now: SimTime, last_fault: SimTime) -> f64 {
    let wall = now.saturating_since(last_fault).as_secs_f64();
    if wall <= 0.0 {
        1.0
    } else {
        (cpu.as_secs_f64() / wall).clamp(0.0, 1.0)
    }
}

/// One prefetch analysis against the transport's monitor estimates:
/// outcome feedback, the policy's window/zone decision, and the
/// analysis-time charge.
#[allow(clippy::too_many_arguments)]
fn analyze<T: Transport + ?Sized>(
    pf: &mut dyn Prefetcher,
    page: PageId,
    now: &mut SimTime,
    util: f64,
    transport: &mut T,
    page_limit: PageId,
    space: &AddressSpace,
    feedback: PrefetchFeedback,
    analysis_time: &mut SimDuration,
    trace: &mut Trace,
) -> Vec<PageId> {
    let est = transport.estimates(*now);
    pf.note_outcome(feedback);
    let decision = pf.on_fault(page, *now, util, est, page_limit, &mut |p| {
        space.state(p) == PageState::Remote && !transport.is_in_flight(p)
    });
    if decision.score_clamped {
        trace.record(
            *now,
            TraceKind::ScoreClamped,
            TraceData::page(page.index())
                .with_score(decision.score)
                .with_raw(decision.raw_score),
        );
    }
    trace.record(
        *now,
        TraceKind::ZoneAnalysis,
        TraceData::page(page.index())
            .with_zone(decision.budget)
            .with_raw(decision.n_raw)
            .with_score(decision.score)
            .with_rate(decision.rate)
            .with_rtt_ns(est.t0.saturating_mul(2).as_nanos()),
    );
    *now += AMPOM_ANALYSIS_COST;
    *analysis_time += AMPOM_ANALYSIS_COST;
    transport.on_window_wrap(*now, pf.observe().window_wraps);
    decision.prefetch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::FaultProfile;
    use ampom_workloads::synthetic::Sequential;

    const CPU: SimDuration = SimDuration::from_micros(10);

    fn run_sim(cfg: &RunConfig, pages: u64) -> RunReport {
        let mut w = Sequential::new(pages, CPU);
        let mut t = SimulatedTransport::new(cfg);
        run_with_transport(&mut w, cfg, &mut t).expect("valid config")
    }

    #[test]
    fn simulated_transport_completes_all_schemes() {
        for scheme in [
            Scheme::Ampom,
            Scheme::NoPrefetch,
            Scheme::OpenMosix,
            Scheme::Ffa,
        ] {
            let r = run_sim(&RunConfig::new(scheme), 128);
            assert_eq!(r.scheme, scheme);
            assert!(r.total_time > SimDuration::ZERO);
        }
    }

    #[test]
    fn simulated_transport_runs_faults_and_eviction() {
        let cfg = RunConfig::new(Scheme::Ampom)
            .with_faults(FaultProfile::lossy(0.1))
            .with_resident_limit_mb(1);
        let r = run_sim(&cfg, 512);
        assert!(r.faults.messages_dropped > 0);
        assert!(r.pages_evicted > 0);
        assert_eq!(r.phases.total(), r.total_time);
    }

    #[test]
    fn waiting_for_unrequested_page_is_a_transport_error() {
        let cfg = RunConfig::new(Scheme::Ampom);
        let mut t = SimulatedTransport::new(&cfg);
        let err = t.wait_for(PageId(3), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, AmpomError::Transport(_)));
    }

    #[test]
    fn one_reply_delivered_twice_counts_one_duplicate() {
        // Cross-transport identity anchor: `duplicate_replies` means "a
        // reply arrived for a page the migrant already has", counted once
        // per extra copy. The live transport's `note_reply` and bulk-fetch
        // accounting are pinned to the same meaning by the unit tests in
        // `crates/rpc/src/live.rs`; together with this test they keep the
        // counter comparable across transports.
        let cfg = RunConfig::new(Scheme::Ampom).with_faults(FaultProfile::lossy(0.5));
        let mut t = SimulatedTransport::new(&cfg);
        let layout = ampom_mem::region::MemoryLayout::with_data_bytes(8 * PAGE_SIZE);
        let mut space = AddressSpace::new(layout);
        let page = space.layout().data_start();
        space.mark_remote(page);
        let mut table = PageTablePair::at_migration([page]);
        // The original reply and a resent copy, both already arrived.
        t.staged.push_back((SimTime::ZERO, page));
        t.staged.push_back((SimTime::ZERO, page));
        t.in_flight.insert(page, SimTime::ZERO);
        let mut now = SimTime::ZERO + SimDuration::from_micros(1);
        t.install_arrived_for(page, &mut now, &mut space, &mut table);
        assert!(space.is_resident(page), "first copy installs the page");
        assert_eq!(
            t.fault_stats().duplicate_replies,
            1,
            "the resent copy is suppressed and counted exactly once"
        );
        assert_eq!(t.pages_evicted(), 0);
    }

    #[test]
    fn stage_sorted_keeps_arrival_order() {
        let mut staged: VecDeque<(SimTime, PageId)> = VecDeque::new();
        for (t, p) in [(50u64, 0u64), (10, 1), (30, 2), (30, 3), (20, 4)] {
            stage_sorted(&mut staged, SimTime::from_nanos(t), PageId(p));
        }
        let times: Vec<u64> = staged.iter().map(|&(t, _)| t.as_nanos()).collect();
        assert_eq!(times, vec![10, 20, 30, 30, 50]);
        // Equal arrivals keep insertion order (FIFO tie-break).
        let pages: Vec<u64> = staged.iter().map(|&(_, p)| p.0).collect();
        assert_eq!(pages, vec![1, 4, 2, 3, 0]);
    }
}
