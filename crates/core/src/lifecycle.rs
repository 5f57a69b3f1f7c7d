//! The bidirectional page lifecycle: writeback, MPT replication, and the
//! home-return migration path.
//!
//! Forward migration (the rest of this crate) only ever moves pages
//! *toward* the migrant. This module closes the loop:
//!
//! * a **writeback engine** promotes the dirty bit to a versioned
//!   write-set ([`ampom_mem::writeback`]); dirty pages flow home in delta
//!   batches budgeted against the reply link, with exactly-once
//!   accounting that survives the PR 2 fault model (message loss, jitter,
//!   deputy outages — see [`crate::reliability`]);
//! * a **Mitosis-style MPT replica** ([`ampom_mem::replica`]) keeps hot
//!   page-table lookups node-local, invalidated by transfer and writeback
//!   events and refreshed lazily;
//! * a **home-return path** runs the 3-page + MPT freeze in reverse:
//!   pages the migrant never fetched are free at home (§2.2 — the origin
//!   only deletes a page when it is transferred), pages whose contents
//!   were written back are flipped home ([`PageTablePair::return_to_origin`])
//!   during the drain, and the remote node keeps a deputy stub for the
//!   pages it still exclusively holds.
//!
//! [`run_lifecycle`] is the engine; [`crate::remigration::run_round_trip`]
//! is now a thin wrapper over it with writeback disabled, preserving the
//! analytic round-trip report the extension experiments consume. The
//! forward run loops reuse [`ForwardWriteback`], the reliable in-run
//! variant of the same write-set/sink pair, gated behind
//! [`crate::runner::RunConfig::writeback`] so default runs stay
//! bit-identical to the golden fingerprints.

use std::collections::{BTreeMap, HashMap, VecDeque};

use ampom_mem::page::{PageId, PAGE_SIZE};
use ampom_mem::replica::MptReplica;
use ampom_mem::space::{AddressSpace, PageState, TouchOutcome};
use ampom_mem::table::{PageLocation, PageTablePair};
use ampom_mem::writeback::{WriteSet, WritebackSink};
use ampom_net::calibration::{AMPOM_ANALYSIS_COST, MIGRATION_BASE_COST, MPT_ENTRY_COST};
use ampom_net::fault::{Fate, FaultPlan};
use ampom_obs::{MetricSource, MetricsRegistry};
use ampom_sim::event::DowntimeSchedule;
use ampom_sim::rng::SimRng;
use ampom_sim::time::{SimDuration, SimTime};
use ampom_sim::trace::{Trace, TraceData, TraceKind};
use ampom_workloads::memref::Workload;

use crate::cluster::NetPath;
use crate::deputy::Deputy;
use crate::error::AmpomError;
use crate::metrics::WritebackStats;
use crate::migration::{perform_freeze, PreMigrationState, Scheme};
use crate::monitor::MonitorDaemon;
use crate::policy::Prefetcher;
use crate::reliability::{RetryPolicy, RetrySchedule};
use crate::runner::{RunConfig, MINOR_FAULT_COST, PAGE_INSTALL_COST};

/// Seed salt separating the writeback channel's fate streams from the
/// forward path's fault injector.
const WRITEBACK_CHAOS_SALT: u64 = 0x7762_5eed; // "wb" seed

/// Wire overhead of one writeback batch: length, type, sequence number
/// and entry count (mirrors the v4 `WritebackBatch` frame header).
pub const WRITEBACK_HEADER_BYTES: u64 = 17;

/// Per-entry overhead on top of the page contents: page id + version.
pub const WRITEBACK_ENTRY_OVERHEAD: u64 = 16;

/// Most pages one writeback batch may carry: the v4 wire cap on a
/// `WritebackBatch` frame (`ampom_rpc::frame::MAX_BATCH_PAGES`, which a
/// test in that crate pins to this value). A live deputy rejects a larger
/// batch as a malformed frame and closes the session.
pub const MAX_WRITEBACK_BATCH_PAGES: usize = 64;

/// Bytes one writeback batch of `pages` entries occupies on the wire.
pub fn writeback_batch_bytes(pages: usize) -> u64 {
    WRITEBACK_HEADER_BYTES + pages as u64 * (WRITEBACK_ENTRY_OVERHEAD + PAGE_SIZE)
}

/// Background-writeback tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WritebackSpec {
    /// Flush cadence: build and send delta batches every this many remote
    /// faults (the fault handler is the natural background hook — the
    /// migrant is stalled anyway).
    pub flush_every_faults: u64,
    /// Cap on pages per delta batch, so a flush never monopolises the
    /// link; at most the v4 wire cap, [`MAX_WRITEBACK_BATCH_PAGES`].
    pub max_batch_pages: usize,
}

impl Default for WritebackSpec {
    fn default() -> Self {
        WritebackSpec {
            flush_every_faults: 8,
            max_batch_pages: MAX_WRITEBACK_BATCH_PAGES,
        }
    }
}

impl WritebackSpec {
    /// Checks every knob against its documented domain.
    pub fn validate(&self) -> Result<(), AmpomError> {
        if self.flush_every_faults == 0 {
            return Err(AmpomError::InvalidConfig(
                "writeback.flush_every_faults must be positive".into(),
            ));
        }
        if self.max_batch_pages == 0 {
            return Err(AmpomError::InvalidConfig(
                "writeback.max_batch_pages must be positive".into(),
            ));
        }
        if self.max_batch_pages > MAX_WRITEBACK_BATCH_PAGES {
            return Err(AmpomError::InvalidConfig(format!(
                "writeback.max_batch_pages {} exceeds the wire cap of {MAX_WRITEBACK_BATCH_PAGES}",
                self.max_batch_pages
            )));
        }
        Ok(())
    }
}

/// Closed-form per-migration costs for cluster-scale composition.
///
/// [`run_lifecycle`] simulates one migrant's out → dirty → writeback →
/// return chain page by page. A 1000-node cluster-life engine cannot
/// afford that per job, so it charges this analytic model built from the
/// *same* constants: outbound freezes from
/// [`crate::scheduler::freeze_time`], return traffic from the dirty
/// footprint via [`writeback_batch_bytes`] (the home-return merge only
/// ships pages the away phase dirtied — clean pages are free at home,
/// §2.2), and the return freeze as the scheme's freeze over that dirty
/// footprint. The two layers therefore stay calibrated against each
/// other by construction, which `cost_model_tracks_lifecycle_constants`
/// pins.
#[derive(Debug, Clone, Copy)]
pub struct LifecycleCostModel {
    /// The migration mechanism.
    pub scheme: Scheme,
    /// Writeback batching knobs (set the return wire overhead).
    pub writeback: WritebackSpec,
}

impl LifecycleCostModel {
    /// A model for `scheme` with default writeback batching.
    pub fn new(scheme: Scheme) -> Self {
        LifecycleCostModel {
            scheme,
            writeback: WritebackSpec::default(),
        }
    }

    /// Freeze paid when the job leaves home (or remigrates): the Figure 5
    /// calibration for the scheme.
    pub fn outbound_freeze(&self, memory_mb: u64) -> SimDuration {
        crate::scheduler::freeze_time(self.scheme, memory_mb)
    }

    /// Pages the away phase dirtied and the return must reconcile.
    pub fn dirty_pages(&self, memory_mb: u64, dirty_fraction: f64) -> u64 {
        let pages = memory_mb * 1024 * 1024 / PAGE_SIZE;
        (pages as f64 * dirty_fraction.clamp(0.0, 1.0)).ceil() as u64
    }

    /// Bytes the home-return ships: the dirty pages in writeback batches
    /// of at most `max_batch_pages`, each paying the batch header and
    /// per-entry overhead. Eager openMosix has no writeback channel — its
    /// return re-ships the whole footprint, exactly like the outbound
    /// copy.
    pub fn return_bytes(&self, memory_mb: u64, dirty_fraction: f64) -> u64 {
        match self.scheme {
            Scheme::OpenMosix => memory_mb * 1024 * 1024,
            Scheme::Ampom | Scheme::NoPrefetch | Scheme::Ffa => {
                let dirty = self.dirty_pages(memory_mb, dirty_fraction);
                let cap = self.writeback.max_batch_pages as u64;
                let batches = dirty.div_ceil(cap.max(1));
                dirty * (PAGE_SIZE + WRITEBACK_ENTRY_OVERHEAD) + batches * WRITEBACK_HEADER_BYTES
            }
        }
    }

    /// Software freeze paid at return: the scheme's freeze over the dirty
    /// footprint only (pages never touched away are free at home).
    pub fn return_freeze(&self, memory_mb: u64, dirty_fraction: f64) -> SimDuration {
        let dirty_mb =
            (self.dirty_pages(memory_mb, dirty_fraction) * PAGE_SIZE).div_ceil(1024 * 1024);
        crate::scheduler::freeze_time(self.scheme, dirty_mb.max(1))
    }
}

/// Configuration of one lifecycle run (out → dirty → writeback → return).
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// Fraction of the reference stream executed away before the forced
    /// return home; must lie in (0, 1).
    pub away_fraction: f64,
    /// Background writeback while away; `None` reproduces the analytic
    /// round-trip model exactly (nothing flows home until the return).
    pub writeback: Option<WritebackSpec>,
}

impl LifecycleConfig {
    /// A lifecycle run returning after `away_fraction` of the stream,
    /// with default background writeback.
    pub fn new(away_fraction: f64) -> Self {
        LifecycleConfig {
            away_fraction,
            writeback: Some(WritebackSpec::default()),
        }
    }

    /// Disables background writeback (the analytic round-trip model).
    pub fn without_writeback(mut self) -> Self {
        self.writeback = None;
        self
    }
}

/// Measurements of one lifecycle run.
#[derive(Debug)]
pub struct LifecycleReport {
    /// Scheme used for both hops.
    pub scheme: Scheme,
    /// Freeze time of the outbound migration.
    pub outbound_freeze: SimDuration,
    /// Freeze time of the return migration.
    pub return_freeze: SimDuration,
    /// Wall time of the whole run.
    pub total_time: SimDuration,
    /// Time executing on the remote node (incl. the writeback drain).
    pub away_time: SimDuration,
    /// Time executing back home after the return freeze.
    pub home_time: SimDuration,
    /// Pages moved out to the remote node in the away phase.
    pub pages_fetched_remotely: u64,
    /// Remote-resident pages the return had to account for.
    pub pages_returned: u64,
    /// Pages resident for free after the return (never fetched, or their
    /// contents were written back before the freeze).
    pub pages_freed_at_home: u64,
    /// Pages the remote node's deputy stub still exclusively holds.
    pub stub_pages: u64,
    /// Remote fault requests over both phases.
    pub fault_requests: u64,
    /// Remote fault requests in the away phase alone.
    pub away_fault_requests: u64,
    /// Distinct pages dirtied while away.
    pub pages_dirtied: u64,
    /// Distinct pages the home sink holds after the drain.
    pub sink_pages: u64,
    /// Deputy-sink restarts survived by the writeback protocol.
    pub sink_restarts: u64,
    /// True iff every dirtied page's final version was applied at the
    /// sink exactly once and nothing is left in flight.
    pub conservation_ok: bool,
    /// Writeback and replica counters.
    pub writeback: WritebackStats,
    /// Event trace (enabled by `cfg.trace`).
    pub trace: Trace,
}

impl LifecycleReport {
    /// Panics unless the dirty-page conservation property held: the
    /// write-set drained and the sink holds exactly the final version of
    /// every dirtied page.
    pub fn check_conservation(&self) {
        assert!(
            self.conservation_ok,
            "dirty-page conservation violated: {} dirtied, {} at sink, \
             {} restarts survived",
            self.pages_dirtied, self.sink_pages, self.sink_restarts
        );
    }
}

impl MetricSource for LifecycleReport {
    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.writeback.export_metrics(reg);
        reg.export_gauge(
            "ampom_lifecycle_outbound_freeze_seconds",
            "freeze time of the outbound migration",
            self.outbound_freeze.as_secs_f64(),
        );
        reg.export_gauge(
            "ampom_lifecycle_return_freeze_seconds",
            "freeze time of the home-return migration",
            self.return_freeze.as_secs_f64(),
        );
        reg.export_gauge(
            "ampom_lifecycle_pages_freed_at_home",
            "pages resident for free after the return",
            self.pages_freed_at_home as f64,
        );
        reg.export_gauge(
            "ampom_lifecycle_stub_pages",
            "pages the remote deputy stub still holds",
            self.stub_pages as f64,
        );
        reg.export_counter(
            "ampom_lifecycle_sink_restarts_total",
            "deputy-sink restarts survived by the writeback protocol",
            self.sink_restarts,
        );
        reg.export_counter(
            "ampom_lifecycle_pages_dirtied_total",
            "distinct pages dirtied while away",
            self.pages_dirtied,
        );
    }
}

// ---------------------------------------------------------------------
// The migrant→deputy writeback channel under the PR 2 fault model.
// ---------------------------------------------------------------------

/// One sent-but-unsettled batch.
#[derive(Debug, Clone, Copy)]
struct InFlightBatch {
    /// When the ack lands (None: batch or ack was lost).
    ack_at: Option<SimTime>,
    /// When the sender presumes loss and retransmits.
    resend_at: SimTime,
    /// Retransmission attempts so far (drives the backoff).
    attempt: u32,
}

/// Fault-model state for the channel (absent on a reliable link).
#[derive(Debug)]
struct ChannelChaos {
    batch_plan: FaultPlan,
    ack_plan: FaultPlan,
    downtime: DowntimeSchedule,
    /// A deputy outage was observed; the sink restarts (losing its
    /// volatile seen-sequence set) when sim time passes this instant.
    pending_restart: Option<SimTime>,
    retry: RetryPolicy,
    base_timeout: SimDuration,
}

/// The away-phase writeback channel: write-set, sink, and the in-flight
/// batch ledger, with loss/jitter/outage drawn from the run's profile.
#[derive(Debug)]
struct WritebackChannel {
    spec: WritebackSpec,
    wset: WriteSet,
    sink: WritebackSink,
    chaos: Option<ChannelChaos>,
    sent: BTreeMap<u64, InFlightBatch>,
    faults_since_flush: u64,
    bytes: u64,
    flush_time: SimDuration,
    sink_restarts: u64,
}

impl WritebackChannel {
    fn new(spec: WritebackSpec, cfg: &RunConfig) -> Self {
        let chaos = cfg.faults.as_ref().filter(|p| !p.is_null()).map(|p| {
            let rng = SimRng::seed_from_u64(cfg.seed ^ WRITEBACK_CHAOS_SALT);
            ChannelChaos {
                batch_plan: FaultPlan::new(p.faults, rng.fork(0x7762_6174)),
                ack_plan: FaultPlan::new(p.faults, rng.fork(0x7761_636b)),
                downtime: p.downtime.clone(),
                pending_restart: None,
                retry: p.retry,
                base_timeout: RetrySchedule::for_link(p.retry, p.policy, cfg.link).base_timeout(),
            }
        });
        WritebackChannel {
            spec,
            wset: WriteSet::new(),
            sink: WritebackSink::new(),
            chaos,
            sent: BTreeMap::new(),
            faults_since_flush: 0,
            bytes: 0,
            flush_time: SimDuration::ZERO,
            sink_restarts: 0,
        }
    }

    fn note_write(&mut self, page: PageId) {
        self.wset.note_write(page);
    }

    /// The fault-handler hook: every `flush_every_faults` remote faults,
    /// settle acks, retransmit the overdue and flush fresh batches.
    fn on_remote_fault(&mut self, now: SimTime, path: &mut NetPath, trace: &mut Trace) {
        self.faults_since_flush += 1;
        if self.faults_since_flush >= self.spec.flush_every_faults {
            self.faults_since_flush = 0;
            self.pump(now, path, trace);
        }
    }

    /// Settles acks due by `now`, retransmits overdue batches and sends
    /// every batch the dirty set can fill. Never advances `now`: the
    /// flush is background traffic, charged to the link but not to the
    /// migrant's clock.
    fn pump(&mut self, now: SimTime, path: &mut NetPath, trace: &mut Trace) {
        self.settle(now);
        let overdue: Vec<u64> = self
            .sent
            .iter()
            .filter(|(_, b)| b.ack_at.is_none() && b.resend_at <= now)
            .map(|(&s, _)| s)
            .collect();
        for seq in overdue {
            let entries = self
                .wset
                .take_for_retry(seq)
                .expect("overdue batch is pending");
            let attempt = self.sent[&seq].attempt + 1;
            trace.record_with(now, TraceKind::WritebackRetransmit, || TraceData {
                pages: Some(entries.len() as u64),
                retry: Some(attempt as u64),
                ..TraceData::default()
            });
            self.transmit(seq, &entries, attempt, now, path);
        }
        while let Some((seq, entries)) = self.wset.build_batch(self.spec.max_batch_pages) {
            trace.record_with(now, TraceKind::WritebackFlush, || TraceData {
                pages: Some(entries.len() as u64),
                bytes: Some(writeback_batch_bytes(entries.len())),
                ..TraceData::default()
            });
            self.transmit(seq, &entries, 0, now, path);
        }
    }

    fn settle(&mut self, now: SimTime) {
        let acked: Vec<u64> = self
            .sent
            .iter()
            .filter(|(_, b)| matches!(b.ack_at, Some(t) if t <= now))
            .map(|(&s, _)| s)
            .collect();
        for seq in acked {
            self.sent.remove(&seq);
            self.wset.on_ack(seq);
        }
    }

    /// Clocks one batch out on the dest→home direction and resolves its
    /// fate (the simulator knows it immediately): applied + acked,
    /// batch lost, ack lost, or deputy down.
    fn transmit(
        &mut self,
        seq: u64,
        entries: &[(PageId, u64)],
        attempt: u32,
        now: SimTime,
        path: &mut NetPath,
    ) {
        let bytes = writeback_batch_bytes(entries.len());
        let arrival = path.send_control_to_home(now, bytes);
        self.bytes += bytes;
        self.flush_time += arrival.since(now);
        let latency = path.latency();
        let (ack_at, resend_at) = match self.chaos.as_mut() {
            None => {
                let _ = self.sink.apply_batch(seq, entries);
                (Some(arrival), arrival)
            }
            Some(c) => {
                if let Some(up) = c.pending_restart {
                    if up <= arrival {
                        self.sink.restart();
                        self.sink_restarts += 1;
                        c.pending_restart = None;
                    }
                }
                let timeout = c.retry.timeout(c.base_timeout, attempt);
                match c.batch_plan.fate() {
                    Fate::Dropped => (None, now + timeout),
                    Fate::Delivered { extra_delay } => {
                        let at = arrival + extra_delay;
                        if c.downtime.is_down(at) {
                            // The deputy is down: the batch is lost and
                            // the sink will come back with its volatile
                            // state gone.
                            let up = c.downtime.next_up(at);
                            c.pending_restart = Some(up);
                            (None, (now + timeout).max(up))
                        } else {
                            let _ = self.sink.apply_batch(seq, entries);
                            match c.ack_plan.fate() {
                                Fate::Dropped => (None, now + timeout),
                                Fate::Delivered { extra_delay: d } => {
                                    (Some(at + latency + d), now + timeout)
                                }
                            }
                        }
                    }
                }
            }
        };
        self.sent.insert(
            seq,
            InFlightBatch {
                ack_at,
                resend_at,
                attempt,
            },
        );
    }

    /// Drives the channel until every dirtied page is flushed *and*
    /// acknowledged, advancing time across retransmission rounds. The
    /// kernel completes outstanding writeback before freezing for the
    /// return, exactly like outstanding page I/O.
    fn drain(&mut self, mut now: SimTime, path: &mut NetPath, trace: &mut Trace) -> SimTime {
        let mut guard = 0u32;
        loop {
            self.pump(now, path, trace);
            if self.wset.is_drained() && self.sent.is_empty() {
                return now;
            }
            guard += 1;
            assert!(guard < 1_000_000, "writeback drain failed to converge");
            let next = self
                .sent
                .values()
                .map(|b| b.ack_at.unwrap_or(b.resend_at))
                .min()
                .expect("undrained channel has batches in flight");
            now = now.max(next);
        }
    }

    fn stats(&self) -> WritebackStats {
        WritebackStats {
            writes_noted: self.wset.counters.writes_noted,
            redirties: self.wset.counters.redirties,
            batches_sent: self.wset.counters.batches_built,
            pages_written_back: self.sink.counters.pages_applied,
            retransmits: self.wset.counters.retransmits,
            duplicate_batches: self.sink.counters.duplicate_batches,
            duplicate_pages: self.sink.counters.duplicate_pages,
            writeback_bytes: self.bytes,
            flush_time: self.flush_time,
            ..WritebackStats::default()
        }
    }

    /// Conservation: drained, and the sink holds exactly the final
    /// version of every page ever dirtied.
    fn conservation_ok(&self) -> bool {
        self.wset.is_drained()
            && self.sink.pages_written_back() == self.wset.versions().len() as u64
            && self
                .wset
                .versions()
                .iter()
                .all(|(&p, &v)| self.sink.applied_version(p) == v)
    }
}

// ---------------------------------------------------------------------
// The reliable in-run engine the forward loops share.
// ---------------------------------------------------------------------

/// Write-set + sink for the forward run loops, where the in-run paging
/// protocol is reliable (the reliability layer wraps the *request* path;
/// writeback rides the same recovered stream). Each loop supplies its own
/// carrier — [`NetPath::send_control_to_home`] or
/// [`crate::transport::Transport::writeback_batch`] — and completes
/// batches through [`ForwardWriteback::complete`].
#[derive(Debug)]
pub struct ForwardWriteback {
    spec: WritebackSpec,
    wset: WriteSet,
    sink: WritebackSink,
    faults_since_flush: u64,
    bytes: u64,
    flush_time: SimDuration,
}

impl ForwardWriteback {
    /// A fresh engine under `spec`.
    pub fn new(spec: WritebackSpec) -> Self {
        ForwardWriteback {
            spec,
            wset: WriteSet::new(),
            sink: WritebackSink::new(),
            faults_since_flush: 0,
            bytes: 0,
            flush_time: SimDuration::ZERO,
        }
    }

    /// Notes a dirtying touch (no-op when `write` is false).
    pub fn note_touch(&mut self, page: PageId, write: bool) {
        if write {
            self.wset.note_write(page);
        }
    }

    /// The fault-cadence hook; true when a flush is due.
    pub fn on_fault(&mut self) -> bool {
        self.faults_since_flush += 1;
        if self.faults_since_flush >= self.spec.flush_every_faults {
            self.faults_since_flush = 0;
            true
        } else {
            false
        }
    }

    /// Builds the next delta batch, if anything is dirty.
    pub fn take_batch(&mut self) -> Option<(u64, Vec<(PageId, u64)>)> {
        self.wset.build_batch(self.spec.max_batch_pages)
    }

    /// Completes a batch the carrier delivered: applies it to the sink,
    /// acknowledges the write-set and accounts the wire cost.
    pub fn complete(
        &mut self,
        seq: u64,
        entries: &[(PageId, u64)],
        bytes: u64,
        sent_at: SimTime,
        acked_at: SimTime,
    ) {
        self.bytes += bytes;
        self.flush_time += acked_at.since(sent_at);
        let _ = self.sink.apply_batch(seq, entries);
        self.wset.on_ack(seq);
    }

    /// True while dirty pages await a final drain.
    pub fn has_dirty(&self) -> bool {
        self.wset.dirty_len() > 0
    }

    /// The run-report counters (replica fields are the caller's).
    pub fn stats(&self) -> WritebackStats {
        WritebackStats {
            writes_noted: self.wset.counters.writes_noted,
            redirties: self.wset.counters.redirties,
            batches_sent: self.wset.counters.batches_built,
            pages_written_back: self.sink.counters.pages_applied,
            retransmits: self.wset.counters.retransmits,
            duplicate_batches: self.sink.counters.duplicate_batches,
            duplicate_pages: self.sink.counters.duplicate_pages,
            writeback_bytes: self.bytes,
            flush_time: self.flush_time,
            ..WritebackStats::default()
        }
    }
}

// ---------------------------------------------------------------------
// The lifecycle engine.
// ---------------------------------------------------------------------

/// Runs `workload` through the full lifecycle: outbound migration at t=0,
/// execution away (with background writeback when configured), a forced
/// home-return after `lc.away_fraction` of the reference stream, and
/// execution back home to completion.
///
/// Both hops use `cfg.scheme`; the network is `cfg.link` in both
/// directions. When `cfg.faults` carries a non-null profile, the
/// writeback channel draws message fates and deputy outages from it (the
/// demand-paging path stays exact — the profile's recovery machinery for
/// that path lives in the forward runner).
///
/// # Panics
/// Panics unless `lc.away_fraction` lies in (0, 1).
pub fn run_lifecycle<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: &RunConfig,
    lc: &LifecycleConfig,
) -> LifecycleReport {
    assert!(
        (0.0..1.0).contains(&lc.away_fraction) && lc.away_fraction > 0.0,
        "away_fraction must be in (0, 1)"
    );
    if let Some(spec) = &lc.writeback {
        spec.validate().expect("invalid writeback spec");
    }
    let layout = workload.layout().clone();
    let pre = PreMigrationState::new(layout.clone(), workload.allocation_pages());
    let total_refs = workload.total_refs_hint();
    let switch_at = ((total_refs as f64 * lc.away_fraction) as u64).max(1);

    let mut path = NetPath::new(cfg.link);
    let mut trace = if cfg.trace {
        Trace::enabled()
    } else {
        Trace::disabled()
    };
    let freeze = perform_freeze(cfg.scheme, &pre, &mut path, &mut trace);
    let outbound_freeze = freeze.freeze_time;
    let mut space = freeze.space;
    let mut table = freeze.table;
    let mut now = SimTime::ZERO + outbound_freeze;
    let away_start = now;

    let mut deputy = Deputy::new();
    let mut monitor = MonitorDaemon::new(&path);
    let mut prefetcher: Option<Box<dyn Prefetcher>> =
        (cfg.scheme == Scheme::Ampom).then(|| cfg.policy.build(&cfg.ampom));
    let mut in_flight: HashMap<PageId, SimTime> = HashMap::new();
    let mut staged: VecDeque<(SimTime, PageId)> = VecDeque::new();
    let page_limit = PageId(layout.total_pages());

    let mut channel = lc.writeback.map(|spec| WritebackChannel::new(spec, cfg));
    let mut replica = MptReplica::from_table(&table);

    let mut fault_requests = 0u64;
    let mut away_fault_requests = 0u64;
    let mut refs_done = 0u64;

    // ---- Away phase: executing on the remote node. ----
    while refs_done < switch_at {
        let Some(r) = workload.next() else { break };
        refs_done += 1;
        match space.touch(r.page, r.write) {
            TouchOutcome::Hit => {
                if r.write {
                    if let Some(c) = channel.as_mut() {
                        c.note_write(r.page);
                    }
                }
                now += r.cpu;
            }
            TouchOutcome::LocalAllocate => {
                // First touches allocate dirty (anonymous zero-fill), so
                // the page joins the write-set regardless of `r.write`.
                if let Some(c) = channel.as_mut() {
                    c.note_write(r.page);
                }
                if replica.lookup(r.page, &table).is_none() {
                    table.create_at_destination(r.page);
                    replica.invalidate(r.page);
                }
                now += MINOR_FAULT_COST + r.cpu;
            }
            TouchOutcome::RemoteFault => {
                if let Some(c) = channel.as_mut() {
                    c.on_remote_fault(now, &mut path, &mut trace);
                }
                install(&mut staged, &mut in_flight, &mut space, &mut now);
                let prefetch = match prefetcher.as_mut() {
                    Some(pf) => {
                        monitor.advance(now, &mut path);
                        let est = monitor.estimates();
                        let d = pf.on_fault(r.page, now, 1.0, est, page_limit, &mut |p| {
                            space.state(p) == PageState::Remote && !in_flight.contains_key(&p)
                        });
                        now += AMPOM_ANALYSIS_COST;
                        monitor.on_window_wrap(now, pf.observe().window_wraps, &path);
                        d.prefetch
                    }
                    None => Vec::new(),
                };
                if space.is_resident(r.page) {
                    // Resolved by the install above.
                } else if let Some(&arrival) = in_flight.get(&r.page) {
                    now = now.max(arrival);
                    install(&mut staged, &mut in_flight, &mut space, &mut now);
                } else {
                    fault_requests += 1;
                    away_fault_requests += 1;
                    let mut pages = vec![r.page];
                    pages.extend_from_slice(&prefetch);
                    let at_home = path.send_request(now, pages.len());
                    for s in deputy.serve_request(at_home, &pages, &mut table, &mut path) {
                        replica.invalidate(s.page);
                        in_flight.insert(s.page, s.arrives);
                        staged.push_back((s.arrives, s.page));
                    }
                    now = now.max(in_flight[&r.page]);
                    install(&mut staged, &mut in_flight, &mut space, &mut now);
                }
                let hit = space.touch(r.page, r.write);
                debug_assert_eq!(hit, TouchOutcome::Hit);
                if r.write {
                    if let Some(c) = channel.as_mut() {
                        c.note_write(r.page);
                    }
                }
                now += r.cpu;
            }
        }
    }

    // Drain the paging pipeline: anything in flight lands at the remote
    // node before the return (the kernel completes outstanding I/O before
    // freezing).
    while let Some(&(arrival, _)) = staged.front() {
        now = now.max(arrival);
        install(&mut staged, &mut in_flight, &mut space, &mut now);
    }

    // ---- Writeback drain + table flips. ----
    // Every dirtied page must reach the home sink before the return
    // freeze; the drain rides out loss, jitter and deputy outages. Pages
    // whose contents came home flip back to origin storage — the same
    // `Both` transition any origin-departure reports, run in reverse.
    let remote_resident: Vec<PageId> = space
        .pages_where(|s| matches!(s, PageState::Resident { .. }))
        .collect();
    let pages_returned = remote_resident.len() as u64;
    let pages_fetched_remotely = table.pages_at_destination();
    let mut sink_restarts = 0u64;
    let mut pages_dirtied = 0u64;
    let mut sink_pages = 0u64;
    let mut conservation_ok = true;
    if let Some(c) = channel.as_mut() {
        now = c.drain(now, &mut path, &mut trace);
        sink_restarts = c.sink_restarts;
        pages_dirtied = c.wset.versions().len() as u64;
        sink_pages = c.sink.pages_written_back();
        conservation_ok = c.conservation_ok();
        for &page in c.sink.applied().keys() {
            if table.lookup(page) == Some(PageLocation::Destination) {
                table.return_to_origin(page);
                replica.invalidate(page);
            }
        }
        table.check_invariants();
    }
    let away_time = now.since(away_start);

    // ---- Return freeze. ----
    let return_freeze = match cfg.scheme {
        Scheme::OpenMosix => {
            // Eager: ship every remote-resident page back at once.
            let bytes = pages_returned * PAGE_SIZE;
            let done = path.bulk_transfer(now + MIGRATION_BASE_COST, bytes);
            done.since(now)
        }
        Scheme::Ampom => {
            // Three pages + MPT, as always.
            let mpt = table.mpt_bytes();
            let start =
                now + MIGRATION_BASE_COST + MPT_ENTRY_COST.saturating_mul(table.mapped_pages());
            let done = path.bulk_transfer(start, 3 * PAGE_SIZE + mpt);
            done.since(now)
        }
        Scheme::NoPrefetch | Scheme::Ffa => {
            let done = path.bulk_transfer(now + MIGRATION_BASE_COST, 3 * PAGE_SIZE);
            done.since(now)
        }
    };
    trace.record_with(now, TraceKind::ReturnFreeze, || TraceData {
        pages: Some(pages_returned),
        ..TraceData::default()
    });
    now += return_freeze;
    let home_start = now;

    // ---- Home phase: executing back home. ----
    // Role swap: remote-resident pages become remote (stored on the node
    // we just left, which keeps a deputy stub); origin-stored pages — the
    // never-fetched and the written-back — are local for free. Under
    // eager openMosix everything returned during the freeze.
    let mut pages_freed_at_home = 0u64;
    if cfg.scheme != Scheme::OpenMosix {
        for &p in &remote_resident {
            space.mark_remote(p);
        }
        let free_at_home: Vec<PageId> = space
            .pages_where(|s| s == PageState::Remote)
            .filter(|p| replica.lookup(*p, &table) == Some(PageLocation::Origin))
            .collect();
        pages_freed_at_home = free_at_home.len() as u64;
        for p in free_at_home {
            space.install(p);
        }
    }
    trace.record_with(now, TraceKind::PagesFreedAtHome, || TraceData {
        pages: Some(pages_freed_at_home),
        ..TraceData::default()
    });

    // Fresh transfer bookkeeping for the second hop: the remote node's
    // stub serves what it still exclusively holds.
    let mut return_table =
        PageTablePair::at_migration(space.pages_where(|s| s == PageState::Remote));
    let stub_pages = return_table.mapped_pages();
    let mut return_replica = MptReplica::from_table(&return_table);
    let mut return_deputy = Deputy::new();
    let mut return_prefetcher: Option<Box<dyn Prefetcher>> =
        (cfg.scheme == Scheme::Ampom).then(|| cfg.policy.build(&cfg.ampom));
    in_flight.clear();
    staged.clear();

    for r in &mut *workload {
        match space.touch(r.page, r.write) {
            TouchOutcome::Hit => now += r.cpu,
            TouchOutcome::LocalAllocate => now += MINOR_FAULT_COST + r.cpu,
            TouchOutcome::RemoteFault => {
                install(&mut staged, &mut in_flight, &mut space, &mut now);
                let prefetch = match return_prefetcher.as_mut() {
                    Some(pf) => {
                        monitor.advance(now, &mut path);
                        let est = monitor.estimates();
                        let d = pf.on_fault(r.page, now, 1.0, est, page_limit, &mut |p| {
                            space.state(p) == PageState::Remote
                                && !in_flight.contains_key(&p)
                                && return_replica.lookup(p, &return_table).is_some()
                        });
                        now += AMPOM_ANALYSIS_COST;
                        d.prefetch
                    }
                    None => Vec::new(),
                };
                if space.is_resident(r.page) {
                    // Arrived with the last batch.
                } else if let Some(&arrival) = in_flight.get(&r.page) {
                    now = now.max(arrival);
                    install(&mut staged, &mut in_flight, &mut space, &mut now);
                } else {
                    fault_requests += 1;
                    let mut pages = vec![r.page];
                    pages.extend_from_slice(&prefetch);
                    let at_remote = path.send_request(now, pages.len());
                    for s in
                        return_deputy.serve_request(at_remote, &pages, &mut return_table, &mut path)
                    {
                        return_replica.invalidate(s.page);
                        in_flight.insert(s.page, s.arrives);
                        staged.push_back((s.arrives, s.page));
                    }
                    now = now.max(in_flight[&r.page]);
                    install(&mut staged, &mut in_flight, &mut space, &mut now);
                }
                let hit = space.touch(r.page, r.write);
                debug_assert_eq!(hit, TouchOutcome::Hit);
                now += r.cpu;
            }
        }
    }

    replica.check_equivalence(&table);
    return_replica.check_equivalence(&return_table);

    let mut writeback = channel.as_ref().map(|c| c.stats()).unwrap_or_default();
    writeback.replica_hits = replica.counters.local_hits + return_replica.counters.local_hits;
    writeback.replica_refreshes = replica.counters.stale_refreshes
        + return_replica.counters.stale_refreshes
        + replica.counters.cold_misses
        + return_replica.counters.cold_misses;
    writeback.replica_invalidations =
        replica.counters.invalidations + return_replica.counters.invalidations;

    LifecycleReport {
        scheme: cfg.scheme,
        outbound_freeze,
        return_freeze,
        total_time: now.since(SimTime::ZERO),
        away_time,
        home_time: now.since(home_start),
        pages_fetched_remotely,
        pages_returned,
        pages_freed_at_home,
        stub_pages,
        fault_requests,
        away_fault_requests,
        pages_dirtied,
        sink_pages,
        sink_restarts,
        conservation_ok,
        writeback,
        trace,
    }
}

/// Installs every staged page whose arrival is due, charging
/// [`PAGE_INSTALL_COST`] per page.
pub(crate) fn install(
    staged: &mut VecDeque<(SimTime, PageId)>,
    in_flight: &mut HashMap<PageId, SimTime>,
    space: &mut AddressSpace,
    now: &mut SimTime,
) {
    let mut n = 0u64;
    while let Some(&(arrival, page)) = staged.front() {
        if arrival > *now {
            break;
        }
        staged.pop_front();
        in_flight.remove(&page);
        if space.state(page) == PageState::Remote {
            space.install(page);
        }
        n += 1;
    }
    if n > 0 {
        *now += PAGE_INSTALL_COST.saturating_mul(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::FaultProfile;
    use ampom_net::fault::FaultSpec;
    use ampom_workloads::synthetic::{Sequential, SequentialWrite};

    const CPU: SimDuration = SimDuration::from_micros(15);

    #[test]
    fn writeback_batches_above_the_wire_cap_are_rejected() {
        let at_cap = WritebackSpec::default();
        assert_eq!(at_cap.max_batch_pages, MAX_WRITEBACK_BATCH_PAGES);
        assert!(at_cap.validate().is_ok());
        let over = WritebackSpec {
            max_batch_pages: MAX_WRITEBACK_BATCH_PAGES + 1,
            ..at_cap
        };
        assert!(matches!(
            over.validate(),
            Err(AmpomError::InvalidConfig(why)) if why.contains("wire cap")
        ));
        let cfg = RunConfig::new(Scheme::Ampom).with_writeback(over);
        assert!(matches!(cfg.validate(), Err(AmpomError::InvalidConfig(_))));
    }

    #[test]
    fn cost_model_tracks_lifecycle_constants() {
        let m = LifecycleCostModel::new(Scheme::Ampom);
        // Outbound freeze is exactly the Figure 5 calibration.
        assert_eq!(
            m.outbound_freeze(230),
            crate::scheduler::freeze_time(Scheme::Ampom, 230)
        );
        // Return bytes are the dirty pages in capped writeback batches
        // with the v4 frame overheads — the same constants the simulated
        // writeback engine charges per flush.
        let dirty = m.dirty_pages(230, 0.25);
        let batches = dirty.div_ceil(m.writeback.max_batch_pages as u64);
        assert_eq!(
            m.return_bytes(230, 0.25),
            dirty * (PAGE_SIZE + WRITEBACK_ENTRY_OVERHEAD) + batches * WRITEBACK_HEADER_BYTES
        );
        // A fully clean away phase returns almost for free; eager
        // openMosix re-ships the footprint regardless.
        assert!(m.return_bytes(230, 0.0) == 0);
        let eager = LifecycleCostModel::new(Scheme::OpenMosix);
        assert_eq!(eager.return_bytes(230, 0.0), 230 * 1024 * 1024);
        assert_eq!(eager.return_bytes(230, 1.0), 230 * 1024 * 1024);
    }

    #[test]
    fn cost_model_return_freeze_scales_with_dirty_footprint() {
        let m = LifecycleCostModel::new(Scheme::Ampom);
        let clean = m.return_freeze(460, 0.01);
        let dirty = m.return_freeze(460, 1.0);
        assert!(clean < dirty, "{clean:?} vs {dirty:?}");
        // The dirtiest return costs exactly the freeze of the full
        // footprint.
        assert_eq!(dirty, crate::scheduler::freeze_time(Scheme::Ampom, 460));
        // Degenerate dirty fractions clamp instead of exploding.
        assert_eq!(m.dirty_pages(230, -1.0), 0);
        assert_eq!(m.dirty_pages(230, 2.0), m.dirty_pages(230, 1.0));
    }

    // Stores-only sweeps: every touched page is dirtied, so the writeback
    // engine has real work to conserve (Sequential is read-only).
    fn lifecycle(scheme: Scheme, frac: f64) -> LifecycleReport {
        let mut w = SequentialWrite::new(1024, CPU);
        run_lifecycle(&mut w, &RunConfig::new(scheme), &LifecycleConfig::new(frac))
    }

    #[test]
    fn writeback_moves_every_dirtied_page_home() {
        let r = lifecycle(Scheme::Ampom, 0.5);
        assert!(r.pages_dirtied > 0, "a sequential sweep dirties pages");
        r.check_conservation();
        assert_eq!(r.sink_pages, r.pages_dirtied);
        assert!(r.writeback.batches_sent > 0);
        assert!(r.writeback.writeback_bytes > 0);
    }

    #[test]
    fn written_back_pages_are_free_at_home() {
        let with = lifecycle(Scheme::Ampom, 0.5);
        let mut w = SequentialWrite::new(1024, CPU);
        let without = run_lifecycle(
            &mut w,
            &RunConfig::new(Scheme::Ampom),
            &LifecycleConfig::new(0.5).without_writeback(),
        );
        assert!(
            with.pages_freed_at_home > without.pages_freed_at_home,
            "writeback should free pages at home: {} vs {}",
            with.pages_freed_at_home,
            without.pages_freed_at_home
        );
        assert!(
            with.stub_pages < without.stub_pages,
            "the remote stub should shrink: {} vs {}",
            with.stub_pages,
            without.stub_pages
        );
    }

    #[test]
    fn replica_serves_hot_lookups_locally() {
        let r = lifecycle(Scheme::Ampom, 0.5);
        assert!(
            r.writeback.replica_hits > 0,
            "hot lookups must hit the replica"
        );
        assert!(r.writeback.replica_invalidations > 0);
    }

    #[test]
    fn conservation_survives_a_lossy_link() {
        let mut w = SequentialWrite::new(512, CPU);
        let cfg = RunConfig::new(Scheme::Ampom).with_faults(FaultProfile {
            faults: FaultSpec {
                loss_rate: 0.25,
                burst_len: 2,
                jitter: SimDuration::from_micros(100),
            },
            ..FaultProfile::default()
        });
        let r = run_lifecycle(&mut w, &cfg, &LifecycleConfig::new(0.6));
        r.check_conservation();
        assert!(
            r.writeback.retransmits > 0,
            "a 25% lossy link must force retransmits"
        );
        assert!(r.writeback.duplicate_batches + r.writeback.duplicate_pages > 0);
    }

    #[test]
    fn conservation_survives_deputy_restarts() {
        use ampom_sim::event::DowntimeSchedule;
        let mut w = SequentialWrite::new(512, CPU);
        let cfg = RunConfig::new(Scheme::Ampom).with_faults(FaultProfile {
            faults: FaultSpec {
                loss_rate: 0.10,
                burst_len: 2,
                jitter: SimDuration::ZERO,
            },
            downtime: DowntimeSchedule::single(
                SimTime::ZERO + SimDuration::from_millis(5),
                SimTime::ZERO + SimDuration::from_millis(9),
            ),
            ..FaultProfile::default()
        });
        let r = run_lifecycle(&mut w, &cfg, &LifecycleConfig::new(0.6));
        r.check_conservation();
    }

    #[test]
    fn workload_completes_exactly_once() {
        let mut w = Sequential::new(256, CPU);
        let r = run_lifecycle(
            &mut w,
            &RunConfig::new(Scheme::Ampom),
            &LifecycleConfig::new(0.5),
        );
        assert!(w.next().is_none(), "stream fully consumed");
        assert!(r.total_time > SimDuration::ZERO);
        assert_eq!(
            r.total_time,
            r.outbound_freeze + r.away_time + r.return_freeze + r.home_time,
            "phases partition the run"
        );
    }

    #[test]
    #[should_panic(expected = "away_fraction")]
    fn fraction_must_be_in_unit_interval() {
        let mut w = Sequential::new(64, CPU);
        let _ = run_lifecycle(
            &mut w,
            &RunConfig::new(Scheme::Ampom),
            &LifecycleConfig::new(1.5),
        );
    }
}
