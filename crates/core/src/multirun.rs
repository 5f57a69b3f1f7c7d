//! Concurrent multi-migrant execution against one shared deputy.
//!
//! The paper's deputy serves exactly one migrant, but its residual-
//! dependency argument (§2.2, §7) only matters at cluster scale, where a
//! single home node answers paging requests for *many* migrated
//! processes at once. [`run_multi`] executes N migrant protocol loops —
//! each the unmodified [`run_with_transport`] — against one
//! [`MultiDeputy`] that shards queues per
//! migrant, coalesces duplicate page requests, and divides the shared
//! service capacity by deficit round robin.
//!
//! ## Execution model
//!
//! Each migrant runs on its own OS thread behind a [`Transport`] handle
//! whose every operation is a *rendezvous*: the call (tagged with the
//! migrant's simulated clock) parks on a channel until the coordinator
//! answers it. The coordinator acts only when **every** live migrant is
//! parked, and always processes the parked call with the smallest
//! `(time, migrant index)` — so the interleaving is a pure function of
//! the simulated clocks and never of host scheduling. Determinism is
//! pinned by tests; the N=1 path is pinned bit-identical to
//! [`SimulatedTransport`](crate::transport::SimulatedTransport) by the
//! `multi_identity` golden fingerprints.
//!
//! ## Commit horizons
//!
//! Submissions enter the deputy immediately (that is where the
//! saturation stats live), but service events *commit* lazily, and a
//! commit is allowed only when no future submission could have been
//! scheduled before it:
//!
//! * with unprocessed parked calls, commits stop at the earliest parked
//!   clock (any future submission must arrive strictly later);
//! * when every parked call is blocked waiting on the deputy, commits
//!   proceed one event at a time until a wait resolves (the woken
//!   migrant's future submissions arrive after its wake time);
//! * with a single live migrant the deputy commits everything eagerly —
//!   one shard is FIFO, so order cannot change, and the eager path
//!   state is exactly what the single-migrant transport exposes.
//!
//! Each migrant gets its own [`NetPath`] and monitor daemon (N access
//! links into one home node); the deputy CPU is the shared resource.
//! Per-migrant `RunReport.deputy` stats carry that shard's attribution;
//! they sum exactly to the aggregate (pinned by the fairness property
//! suite).

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread;

use ampom_mem::page::PageId;
use ampom_mem::space::AddressSpace;
use ampom_mem::table::{PageLocation, PageTablePair};
use ampom_net::cross::CrossTraffic;
use ampom_net::fault::{Fate, FaultPlan};
use ampom_sim::rng::SimRng;
use ampom_sim::time::{SimDuration, SimTime};
use ampom_sim::trace::{Trace, TraceData, TraceEvent, TraceKind};

use crate::cluster::NetPath;
use crate::deputy::{AdmissionConfig, Completion, DrrConfig, MigrantId, MultiDeputy};
use crate::error::AmpomError;
use crate::experiment::WorkloadSpec;
use crate::lifecycle::writeback_batch_bytes;
use crate::metrics::{DeputyStats, FaultStats, RunReport};
use crate::migration::{perform_freeze, FreezeOutcome, PreMigrationState, Scheme};
use crate::monitor::MonitorDaemon;
use crate::prefetcher::NetEstimates;
use crate::reliability::{FaultProfile, RetrySchedule, RetryStep};
use crate::runner::RunConfig;
use crate::transport::{run_with_transport, Transport};

/// Control-message size for a forwarded syscall (matches
/// [`Deputy::forward_syscall`](crate::deputy::Deputy::forward_syscall)).
const SYSCALL_MSG_BYTES: u64 = 128;

/// Salt mixed into the run seed for the coordinator-side chaos RNG so
/// fault fates never correlate with workload or cross-traffic streams.
const CHAOS_SEED_SALT: u64 = 0xc4a0_5eed;

/// One migrant's workload in a multi-run.
#[derive(Debug, Clone)]
pub struct MigrantSpec {
    /// What the migrant executes.
    pub workload: WorkloadSpec,
    /// Seed the workload is built with.
    pub seed: u64,
}

/// A multi-migrant run: one shared deputy, N migrants under a common
/// link/scheme configuration.
#[derive(Debug, Clone)]
pub struct MultiRunSpec {
    /// Shared runner configuration (scheme, link, AMPoM tunables, …).
    pub cfg: RunConfig,
    /// The migrants, one shard each, in shard-index order.
    pub migrants: Vec<MigrantSpec>,
    /// Fairness tuning for the shared service capacity.
    pub drr: DrrConfig,
    /// Optional chaos profile: message loss/jitter on every migrant's
    /// request and reply path plus deputy downtime, resolved by the
    /// coordinator. `None` (or a null profile) leaves the run
    /// bit-identical to a chaos-free multi-run.
    pub chaos: Option<FaultProfile>,
    /// Deputy admission control. The default is unbounded, which is
    /// bit-identical to the pre-admission deputy.
    pub admission: AdmissionConfig,
}

impl MultiRunSpec {
    /// `n` migrants running identical copies of `workload` under `cfg`.
    /// Migrant 0 uses `seed` verbatim (so an N=1 multi-run reproduces
    /// the single-migrant run bit-identically); migrants `i > 0` fork
    /// their workload seed deterministically.
    pub fn homogeneous(cfg: RunConfig, workload: WorkloadSpec, seed: u64, n: u32) -> Self {
        let migrants = (0..n)
            .map(|i| MigrantSpec {
                workload: workload.clone(),
                seed: derive_member_seed(seed, i),
            })
            .collect();
        MultiRunSpec {
            cfg,
            migrants,
            drr: DrrConfig::default(),
            chaos: None,
            admission: AdmissionConfig::default(),
        }
    }

    /// Layers a chaos profile over the run.
    pub fn with_chaos(mut self, profile: FaultProfile) -> Self {
        self.chaos = Some(profile);
        self
    }

    /// Replaces the deputy admission configuration.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }
}

/// Deterministic per-migrant seed derivation: member 0 keeps the base
/// seed (single-migrant identity), later members fork it.
pub fn derive_member_seed(base: u64, member: u32) -> u64 {
    if member == 0 {
        base
    } else {
        SimRng::seed_from_u64(base)
            .fork(u64::from(member))
            .base_seed()
    }
}

/// What a multi-migrant run produced.
#[derive(Debug)]
pub struct MultiRunReport {
    /// Per-migrant reports, in shard-index order. Each report's `deputy`
    /// field carries that shard's attribution of the shared capacity.
    pub reports: Vec<RunReport>,
    /// Per-shard saturation counters (sum/max exactly to `deputy`).
    pub shard_stats: Vec<DeputyStats>,
    /// Aggregate deputy saturation counters.
    pub deputy: DeputyStats,
    /// Each shard's share of total deputy service time, in `[0, 1]`.
    pub service_shares: Vec<f64>,
    /// Page submissions coalesced into an already-pending service event.
    pub pages_coalesced: Vec<u64>,
    /// Latest migrant completion time.
    pub makespan: SimDuration,
}

impl MultiRunReport {
    /// Number of migrants.
    pub fn migrants(&self) -> usize {
        self.reports.len()
    }

    /// Max/min service share across migrants (1.0 = perfectly fair;
    /// infinite when a migrant received no service at all).
    pub fn fairness_ratio(&self) -> f64 {
        let max = self.service_shares.iter().copied().fold(0.0, f64::max);
        let min = self.service_shares.iter().copied().fold(f64::MAX, f64::min);
        if min <= 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }

    /// Deputy busy time over the makespan, in `[0, 1]`: how saturated
    /// the shared service capacity was.
    pub fn saturation(&self) -> f64 {
        let wall = self.makespan.as_secs_f64();
        if wall <= 0.0 {
            0.0
        } else {
            (self.deputy.busy_time.as_secs_f64() / wall).clamp(0.0, 1.0)
        }
    }

    /// Per-migrant slowdown versus solo baselines (same index order):
    /// `multi_total / solo_total`.
    pub fn slowdowns_vs(&self, solo: &[RunReport]) -> Vec<f64> {
        self.reports
            .iter()
            .zip(solo)
            .map(|(m, s)| {
                let base = s.total_time.as_secs_f64();
                if base <= 0.0 {
                    1.0
                } else {
                    m.total_time.as_secs_f64() / base
                }
            })
            .collect()
    }
}

impl ampom_obs::MetricSource for MultiRunReport {
    fn export_metrics(&self, reg: &mut ampom_obs::MetricsRegistry) {
        reg.export_gauge(
            "ampom_multi_migrants",
            "Concurrent migrants sharing the deputy",
            self.migrants() as f64,
        );
        reg.export_gauge(
            "ampom_multi_fairness_ratio",
            "Max/min service share across migrants (1.0 = perfectly fair)",
            self.fairness_ratio(),
        );
        reg.export_gauge(
            "ampom_multi_deputy_saturation",
            "Deputy busy time over the makespan, 0..1",
            self.saturation(),
        );
        reg.export_gauge(
            "ampom_multi_makespan_seconds",
            "Slowest migrant's total execution time",
            self.makespan.as_secs_f64(),
        );
        reg.export_counter(
            "ampom_multi_pages_coalesced_total",
            "Page requests absorbed by deputy-side coalescing, all migrants",
            self.pages_coalesced.iter().sum(),
        );
        reg.export_counter(
            "ampom_multi_deputy_queued_requests_total",
            "Requests that found the shared deputy busy",
            self.deputy.queued_requests,
        );
    }
}

// ---------------------------------------------------------------------
// Rendezvous protocol between migrant handles and the coordinator.

/// A transport operation, tagged with the migrant's simulated clock.
enum Call {
    Freeze {
        scheme: Scheme,
        pre: PreMigrationState,
        trace_on: bool,
    },
    Request {
        now: SimTime,
        /// Unfiltered page count (demand + zone): sizes the request
        /// message on the wire exactly like the single-migrant path.
        total_pages: usize,
        /// Pages still at the origin, in request order.
        submit: Vec<PageId>,
        /// The demanded page, when it is in `submit`. Admission control
        /// never sheds it, and downtime recovery is attributed only to
        /// requests that carry one (a pure-prefetch request stalls
        /// nobody).
        demand: Option<PageId>,
    },
    WaitFor {
        now: SimTime,
        page: PageId,
    },
    Install {
        now: SimTime,
    },
    Syscall {
        now: SimTime,
        work: SimDuration,
    },
    Estimates {
        now: SimTime,
    },
    WindowWrap {
        now: SimTime,
        wraps: u64,
    },
    Utilization {
        now: SimTime,
    },
    /// One writeback delta batch of `pages` dirty pages. Answered
    /// immediately (background traffic never blocks the migrant): the
    /// coordinator charges the member's dest→home link and replies with
    /// the wire bytes and the settle instant.
    Writeback {
        now: SimTime,
        pages: usize,
    },
    /// Final synchronisation: ship byte counters and shard stats.
    Sync,
    /// The migrant finished (or failed); its thread is exiting.
    Done,
}

impl Call {
    /// The simulated time the coordinator orders this call by.
    fn at(&self) -> SimTime {
        match self {
            Call::Freeze { .. } => SimTime::ZERO,
            Call::Request { now, .. }
            | Call::WaitFor { now, .. }
            | Call::Install { now }
            | Call::Syscall { now, .. }
            | Call::Estimates { now }
            | Call::WindowWrap { now, .. }
            | Call::Utilization { now }
            | Call::Writeback { now, .. } => *now,
            // Sync happens after the migrant's loop: order it last among
            // its peers by using its (maximal) observation time.
            Call::Sync => SimTime::ZERO + SimDuration::from_nanos(u64::MAX),
            Call::Done => SimTime::ZERO,
        }
    }
}

/// Pages delivered to one migrant: `(reply arrival, page)`, in commit
/// order (arrivals are nondecreasing — the reply link is FIFO).
type Deliveries = Vec<(SimTime, PageId)>;

enum ReplyBody {
    Frozen {
        outcome: FreezeOutcome,
        events: Vec<TraceEvent>,
    },
    Accepted {
        accepted: Vec<PageId>,
        /// Prefetch pages the deputy refused under load. The migrant
        /// reverts them to the origin so a later touch demand-fetches
        /// them (sheds are recoverable, never lost).
        shed: Vec<PageId>,
    },
    Ack,
    SyscallDone {
        at: SimTime,
    },
    Estimates {
        est: NetEstimates,
    },
    Utilization {
        value: f64,
    },
    WritebackDone {
        bytes: u64,
        settled_at: SimTime,
    },
    Synced {
        bytes_to_dest: u64,
        bytes_from_dest: u64,
        deputy: DeputyStats,
        /// Coordinator-side fault accounting for this migrant (all-zero
        /// without a chaos profile).
        faults: FaultStats,
    },
}

struct Reply {
    deliveries: Deliveries,
    body: ReplyBody,
}

// ---------------------------------------------------------------------
// Migrant-side transport handle.

/// The migrant-side endpoint: implements [`Transport`] by parking every
/// operation on the coordinator. Locally answerable operations (staged
/// installs, waits for pages whose arrival is already known) skip the
/// rendezvous — with one migrant the deputy commits eagerly, so *every*
/// wait and install is local, exactly like the single-migrant transport.
struct MigrantHandle {
    id: MigrantId,
    tx: Sender<(MigrantId, Call)>,
    rx: Receiver<Reply>,
    /// Requested-but-uninstalled pages; `None` until the reply arrival
    /// is known.
    in_flight: HashMap<PageId, Option<SimTime>>,
    /// How many `in_flight` entries still await their arrival.
    unknown: usize,
    /// Delivered pages not yet installed, in arrival order.
    staged: std::collections::VecDeque<(SimTime, PageId)>,
    /// Final counters cached by the `Sync` rendezvous.
    final_bytes: (u64, u64),
    final_deputy: DeputyStats,
    final_faults: FaultStats,
    /// Set when the coordinator went away; fallible calls error out.
    poisoned: bool,
}

impl MigrantHandle {
    fn new(id: MigrantId, tx: Sender<(MigrantId, Call)>, rx: Receiver<Reply>) -> Self {
        MigrantHandle {
            id,
            tx,
            rx,
            in_flight: HashMap::new(),
            unknown: 0,
            staged: std::collections::VecDeque::new(),
            final_bytes: (0, 0),
            final_deputy: DeputyStats::default(),
            final_faults: FaultStats::default(),
            poisoned: false,
        }
    }

    fn call(&mut self, call: Call) -> Result<Reply, AmpomError> {
        if self.poisoned {
            return Err(AmpomError::Transport("multi-run coordinator gone".into()));
        }
        if self.tx.send((self.id, call)).is_err() {
            self.poisoned = true;
            return Err(AmpomError::Transport("multi-run coordinator gone".into()));
        }
        match self.rx.recv() {
            Ok(reply) => Ok(reply),
            Err(_) => {
                self.poisoned = true;
                Err(AmpomError::Transport("multi-run coordinator gone".into()))
            }
        }
    }

    /// Merges a reply's deliveries into the local arrival state.
    fn absorb(&mut self, deliveries: Deliveries) {
        for (arrival, page) in deliveries {
            match self.in_flight.get_mut(&page) {
                Some(slot @ None) => {
                    *slot = Some(arrival);
                    self.unknown -= 1;
                }
                _ => debug_assert!(false, "delivery for page not awaiting arrival"),
            }
            self.staged.push_back((arrival, page));
        }
    }
}

impl Transport for MigrantHandle {
    fn freeze(
        &mut self,
        scheme: Scheme,
        pre: &PreMigrationState,
        trace: &mut Trace,
    ) -> Result<FreezeOutcome, AmpomError> {
        let reply = self.call(Call::Freeze {
            scheme,
            pre: pre.clone(),
            trace_on: trace.is_enabled(),
        })?;
        match reply.body {
            ReplyBody::Frozen { outcome, events } => {
                for e in events {
                    trace.record(e.at, e.kind, e.data);
                }
                self.absorb(reply.deliveries);
                Ok(outcome)
            }
            _ => Err(AmpomError::Transport("unexpected freeze reply".into())),
        }
    }

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
        let total_pages = pages.len();
        // The deputy-side origin filter runs here against the migrant's
        // table view: only origin pages are serviceable, and they move
        // to the destination the moment the deputy accepts them (the
        // single-migrant deputy does both inside `serve_request`).
        let submit: Vec<PageId> = pages
            .into_iter()
            .filter(|&p| table.lookup(p) == Some(PageLocation::Origin))
            .collect();
        for &p in &submit {
            table.transfer_to_destination(p);
        }
        let demand_submitted = demand.filter(|d| submit.contains(d));
        let reply = self.call(Call::Request {
            now,
            total_pages,
            submit,
            demand: demand_submitted,
        })?;
        let ReplyBody::Accepted { accepted, shed } = reply.body else {
            return Err(AmpomError::Transport("unexpected request reply".into()));
        };
        // Shed prefetches revert to the origin: they were optimistically
        // marked in-transfer above, and the deputy never serviced them.
        // A later touch demand-fetches the page, so nothing is lost.
        for &p in &shed {
            table.return_to_origin(p);
        }
        let mut queued = Vec::new();
        for &p in &accepted {
            self.in_flight.insert(p, None);
            self.unknown += 1;
            if demand != Some(p) {
                queued.push(p);
            }
        }
        self.absorb(reply.deliveries);
        Ok(queued)
    }

    fn wait_for(&mut self, page: PageId, now: SimTime) -> Result<SimTime, AmpomError> {
        match self.in_flight.get(&page) {
            None => Err(AmpomError::Transport(format!(
                "page {page} awaited but never requested"
            ))),
            Some(Some(arrival)) => Ok(*arrival),
            Some(None) => {
                let reply = self.call(Call::WaitFor { now, page })?;
                self.absorb(reply.deliveries);
                match self.in_flight.get(&page) {
                    Some(Some(arrival)) => Ok(*arrival),
                    _ => Err(AmpomError::Transport(format!(
                        "page {page} wait resolved without a delivery"
                    ))),
                }
            }
        }
    }

    fn install_arrived(&mut self, now: &mut SimTime, space: &mut AddressSpace) {
        if self.unknown > 0 {
            // Some arrivals are still coordinator-side: sync first.
            if let Ok(reply) = self.call(Call::Install { now: *now }) {
                self.absorb(reply.deliveries);
            }
        }
        let mut installed = 0u64;
        while let Some(&(arrival, page)) = self.staged.front() {
            if arrival > *now {
                break;
            }
            self.staged.pop_front();
            self.in_flight.remove(&page);
            space.install(page);
            installed += 1;
        }
        if installed > 0 {
            *now += crate::runner::PAGE_INSTALL_COST.saturating_mul(installed);
        }
    }

    fn is_in_flight(&self, page: PageId) -> bool {
        self.in_flight.contains_key(&page)
    }

    fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    fn forward_syscall(&mut self, now: SimTime, work: SimDuration) -> Result<SimTime, AmpomError> {
        let reply = self.call(Call::Syscall { now, work })?;
        let ReplyBody::SyscallDone { at } = reply.body else {
            return Err(AmpomError::Transport("unexpected syscall reply".into()));
        };
        self.absorb(reply.deliveries);
        Ok(at)
    }

    fn estimates(&mut self, now: SimTime) -> NetEstimates {
        match self.call(Call::Estimates { now }) {
            Ok(Reply {
                deliveries,
                body: ReplyBody::Estimates { est },
            }) => {
                self.absorb(deliveries);
                est
            }
            _ => NetEstimates {
                t0: SimDuration::ZERO,
                td: SimDuration::ZERO,
            },
        }
    }

    fn on_window_wrap(&mut self, now: SimTime, wraps: u64) {
        if let Ok(reply) = self.call(Call::WindowWrap { now, wraps }) {
            self.absorb(reply.deliveries);
        }
    }

    fn writeback_batch(
        &mut self,
        now: SimTime,
        _seq: u64,
        entries: &[(PageId, u64)],
    ) -> Result<(u64, SimTime), AmpomError> {
        let reply = self.call(Call::Writeback {
            now,
            pages: entries.len(),
        })?;
        let ReplyBody::WritebackDone { bytes, settled_at } = reply.body else {
            return Err(AmpomError::Transport("unexpected writeback reply".into()));
        };
        self.absorb(reply.deliveries);
        Ok((bytes, settled_at))
    }

    fn reply_utilization(&mut self, now: SimTime) -> f64 {
        match self.call(Call::Utilization { now }) {
            Ok(Reply {
                deliveries,
                body: ReplyBody::Utilization { value },
            }) => {
                self.absorb(deliveries);
                value
            }
            _ => 0.0,
        }
    }

    fn bytes_to_dest(&self) -> u64 {
        self.final_bytes.0
    }

    fn bytes_from_dest(&self) -> u64 {
        self.final_bytes.1
    }

    fn deputy_stats(&self) -> DeputyStats {
        self.final_deputy
    }

    fn fault_stats(&self) -> FaultStats {
        self.final_faults
    }

    fn drain_trace(&mut self) -> Vec<(SimTime, TraceKind, TraceData)> {
        // The runner drains trace exactly once, after its loop and
        // before reading the byte/deputy counters: use it as the final
        // synchronisation point.
        if let Ok(reply) = self.call(Call::Sync) {
            if let ReplyBody::Synced {
                bytes_to_dest,
                bytes_from_dest,
                deputy,
                faults,
            } = reply.body
            {
                self.final_bytes = (bytes_to_dest, bytes_from_dest);
                self.final_deputy = deputy;
                self.final_faults = faults;
            }
            self.absorb(reply.deliveries);
        }
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// Coordinator.

/// A parked migrant call and whether its deputy side effect ran already
/// (a processed `Syscall`/`WaitFor` stays parked until its completion
/// commits).
struct Parked {
    call: Call,
    submitted: bool,
}

/// Coordinator-side chaos: one deterministic fate stream per migrant per
/// direction, one retry schedule per migrant (the migrant's demand-wait
/// timer, resolved eagerly because the coordinator knows each message's
/// fate at send time), and per-migrant fault accounting shipped to the
/// migrant at `Sync`.
struct ChaosState {
    profile: FaultProfile,
    request_plans: Vec<FaultPlan>,
    reply_plans: Vec<FaultPlan>,
    retries: Vec<RetrySchedule>,
    faults: Vec<FaultStats>,
}

impl ChaosState {
    /// Charges one timeout to migrant `i` and returns how long the timer
    /// ran before firing.
    fn charge_timeout(&mut self, i: usize) -> SimDuration {
        let stats = &mut self.faults[i];
        let sched = &mut self.retries[i];
        stats.timeouts += 1;
        let waited = sched.current_timeout();
        match sched.on_timeout() {
            RetryStep::Retry => stats.retries += 1,
            RetryStep::Degrade(_) => {
                stats.reconnects += 1;
                sched.begin_wait();
            }
        }
        waited
    }
}

struct Coordinator {
    md: MultiDeputy,
    paths: Vec<NetPath>,
    monitors: Vec<MonitorDaemon>,
    reply_tx: Vec<Sender<Reply>>,
    parked: Vec<Option<Parked>>,
    alive: Vec<bool>,
    n_alive: usize,
    delivery_buf: Vec<Deliveries>,
    /// Completed-but-unshipped syscall reply time, at most one per
    /// migrant (the runner forwards syscalls synchronously).
    syscall_ready: Vec<Option<SimTime>>,
    trace_on: bool,
    /// `None` without a (non-null) chaos profile: the zero-chaos path
    /// draws no fates and stays bit-identical to the pre-chaos code.
    chaos: Option<ChaosState>,
    admission: AdmissionConfig,
}

impl Coordinator {
    /// Index of the parked, not-yet-submitted call with the smallest
    /// `(time, migrant index)`.
    fn next_unsubmitted(&self) -> Option<usize> {
        let mut best: Option<(SimTime, usize)> = None;
        for (i, slot) in self.parked.iter().enumerate() {
            if let Some(p) = slot {
                if !p.submitted {
                    let key = (p.call.at(), i);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
        }
        best.map(|(_, i)| i)
    }

    /// Resolves a paging request's arrival at the deputy under the chaos
    /// profile: lost sends burn retry timeouts and re-send, delivered
    /// sends pick up jitter, and a request landing in deputy downtime
    /// waits out the outage (charged as recovery only when a demand page
    /// was stalling on it).
    fn chaos_request_arrival(
        &mut self,
        u: usize,
        now: SimTime,
        total_pages: usize,
        has_demand: bool,
    ) -> SimTime {
        let Some(chaos) = self.chaos.as_mut() else {
            return self.paths[u].send_request(now, total_pages);
        };
        chaos.retries[u].begin_wait();
        let mut send_at = now;
        loop {
            match chaos.request_plans[u].fate() {
                Fate::Dropped => {
                    self.paths[u].send_request_lost(send_at, total_pages);
                    chaos.faults[u].messages_dropped += 1;
                    send_at += chaos.charge_timeout(u);
                }
                Fate::Delivered { extra_delay } => {
                    let mut arrival =
                        self.paths[u].send_request(send_at, total_pages) + extra_delay;
                    if chaos.profile.downtime.is_down(arrival) {
                        chaos.faults[u].deputy_unavailable += 1;
                        let up = chaos.profile.downtime.next_up(arrival);
                        // The migrant's timer keeps firing into the
                        // outage; each firing is a timeout (the re-sends
                        // also land on a down deputy, so they are not
                        // re-modelled individually).
                        let mut deadline = chaos.retries[u].deadline_after(send_at);
                        while deadline < up {
                            chaos.charge_timeout(u);
                            deadline += chaos.retries[u].current_timeout();
                        }
                        if has_demand {
                            chaos.faults[u].recovery_time += up.saturating_since(arrival);
                        }
                        arrival = up;
                    }
                    return arrival;
                }
            }
        }
    }

    /// Turns one committed service event into its reply-link delivery.
    fn deliver(&mut self, c: Completion) {
        match c {
            Completion::Page {
                migrant,
                page,
                finish,
            } => {
                let i = migrant.idx0();
                // A deputy that is down cannot transmit: service events
                // finishing inside an outage sit on the home node until
                // the restart, then drain in commit order (so arrivals
                // stay nondecreasing — everything in one outage maps to
                // the same restart instant).
                let finish = match self.chaos.as_mut() {
                    Some(chaos) if chaos.profile.downtime.is_down(finish) => {
                        chaos.faults[i].deputy_unavailable += 1;
                        chaos.profile.downtime.next_up(finish)
                    }
                    _ => finish,
                };
                let extra = match self.chaos.as_mut() {
                    None => SimDuration::ZERO,
                    Some(chaos) => match chaos.reply_plans[i].fate() {
                        Fate::Delivered { extra_delay } => extra_delay,
                        Fate::Dropped => {
                            // The reply is lost in flight. The migrant's
                            // demand timer fires and it re-requests the
                            // page; the coordinator resolves that
                            // re-request eagerly (it knows the timeout
                            // deadline), so the page re-enters the shard
                            // queue and a later commit re-delivers it.
                            self.paths[i].send_page_lost(finish);
                            chaos.faults[i].messages_dropped += 1;
                            let waited = chaos.charge_timeout(i);
                            let resend_at = finish + waited;
                            let arrival = self.paths[i].send_request(resend_at, 1);
                            self.md.submit_request(migrant, arrival, &[page]);
                            return;
                        }
                    },
                };
                let arrival = self.paths[i].send_page(finish) + extra;
                self.delivery_buf[i].push((arrival, page));
            }
            Completion::Syscall { migrant, finish } => {
                let at = self.paths[migrant.idx0()].send_control_to_dest(finish, SYSCALL_MSG_BYTES);
                debug_assert!(self.syscall_ready[migrant.idx0()].is_none());
                self.syscall_ready[migrant.idx0()] = Some(at);
            }
        }
    }

    /// Commits everything allowed by the current horizon rules.
    fn commit_to_horizon(&mut self) {
        if self.n_alive == 1 {
            // One live migrant: a shard queue is FIFO and no other
            // migrant can submit, so eager commits cannot reorder
            // anything — and they reproduce the eager single-migrant
            // deputy's path state exactly.
            while let Some(c) = self.md.commit_next() {
                self.deliver(c);
            }
            return;
        }
        // Future submissions arrive strictly after the earliest
        // unprocessed clock (its own send adds link latency), so
        // everything starting at or before it is settled. `Sync` calls
        // are excluded: a synced migrant submits nothing more, so it
        // does not constrain (or license) commits.
        let horizon = self
            .parked
            .iter()
            .filter_map(|slot| slot.as_ref())
            .filter(|p| !p.submitted && !matches!(p.call, Call::Sync))
            .map(|p| p.call.at())
            .min();
        if let Some(h) = horizon {
            while let Some(c) = self.md.commit_next_bounded(Some(h)) {
                self.deliver(c);
            }
        }
    }

    /// Resumes every parked-blocked migrant whose wait just resolved.
    /// Returns true if any migrant was woken.
    fn wake_resolved(&mut self) -> bool {
        let mut woke = false;
        for i in 0..self.parked.len() {
            let Some(p) = self.parked[i].as_ref() else {
                continue;
            };
            if !p.submitted {
                continue;
            }
            let resolved = match &p.call {
                Call::WaitFor { page, .. } => {
                    self.delivery_buf[i].iter().any(|&(_, dp)| dp == *page)
                }
                Call::Syscall { .. } => self.syscall_ready[i].is_some(),
                _ => false,
            };
            if !resolved {
                continue;
            }
            let parked = self.parked[i].take().expect("checked above");
            let body = match parked.call {
                Call::WaitFor { .. } => ReplyBody::Ack,
                Call::Syscall { .. } => ReplyBody::SyscallDone {
                    at: self.syscall_ready[i].take().expect("checked above"),
                },
                _ => unreachable!("only waits block"),
            };
            self.respond(i, body);
            woke = true;
        }
        woke
    }

    fn respond(&mut self, i: usize, body: ReplyBody) {
        let deliveries = std::mem::take(&mut self.delivery_buf[i]);
        // A send failure means the migrant died; its Done is in flight.
        let _ = self.reply_tx[i].send(Reply { deliveries, body });
    }

    /// One coordinator action: runs when every live migrant is parked,
    /// and resumes at least one of them (or errors on a stuck protocol).
    fn step(&mut self) -> Result<(), AmpomError> {
        loop {
            self.commit_to_horizon();
            if self.wake_resolved() {
                return Ok(());
            }
            let Some(u) = self.next_unsubmitted() else {
                // Every parked call is blocked on the deputy: advance
                // service one event at a time until a wait resolves.
                // (Safe: the woken migrant's future submissions arrive
                // at or after its wake time, which is at or after every
                // finish committed here.)
                match self.md.commit_next() {
                    Some(c) => {
                        self.deliver(c);
                        continue;
                    }
                    None => {
                        return Err(AmpomError::Transport(
                            "multi-run deadlock: all migrants blocked on an idle deputy".into(),
                        ));
                    }
                }
            };
            let parked = self.parked[u].as_mut().expect("next_unsubmitted checked");
            match &parked.call {
                Call::Freeze {
                    scheme,
                    pre,
                    trace_on,
                } => {
                    let mut trace = if *trace_on && self.trace_on {
                        Trace::enabled()
                    } else {
                        Trace::disabled()
                    };
                    let (scheme, pre) = (*scheme, pre.clone());
                    let outcome = perform_freeze(scheme, &pre, &mut self.paths[u], &mut trace);
                    let events = trace.events().to_vec();
                    self.parked[u] = None;
                    self.respond(u, ReplyBody::Frozen { outcome, events });
                    return Ok(());
                }
                Call::Request {
                    now,
                    total_pages,
                    submit,
                    demand,
                } => {
                    let (now, total_pages, submit, demand) =
                        (*now, *total_pages, submit.clone(), *demand);
                    let arrival = self.chaos_request_arrival(u, now, total_pages, demand.is_some());
                    let admission = self.admission;
                    let admitted = self.md.submit_request_admitted(
                        MigrantId(u as u32),
                        arrival,
                        &submit,
                        demand,
                        &admission,
                    );
                    self.parked[u] = None;
                    self.commit_to_horizon();
                    self.respond(
                        u,
                        ReplyBody::Accepted {
                            accepted: admitted.accepted,
                            shed: admitted.shed,
                        },
                    );
                    return Ok(());
                }
                Call::WaitFor { .. } => {
                    // No side effect: the request was already submitted.
                    // Park as blocked; commits will resolve it.
                    parked.submitted = true;
                    continue;
                }
                Call::Install { .. } => {
                    // Commits up to this migrant's clock already ran (it
                    // holds the minimum): every arrival at or before
                    // `now` is in its delivery buffer.
                    self.parked[u] = None;
                    self.respond(u, ReplyBody::Ack);
                    return Ok(());
                }
                Call::Syscall { now, work } => {
                    let (now, work) = (*now, *work);
                    let at_home = self.paths[u].send_control_to_home(now, SYSCALL_MSG_BYTES);
                    self.md.submit_syscall(MigrantId(u as u32), at_home, work);
                    parked.submitted = true;
                    continue;
                }
                Call::Estimates { now } => {
                    let now = *now;
                    self.monitors[u].advance(now, &mut self.paths[u]);
                    let est = self.monitors[u].estimates();
                    self.parked[u] = None;
                    self.respond(u, ReplyBody::Estimates { est });
                    return Ok(());
                }
                Call::WindowWrap { now, wraps } => {
                    let (now, wraps) = (*now, *wraps);
                    self.monitors[u].on_window_wrap(now, wraps, &self.paths[u]);
                    self.parked[u] = None;
                    self.respond(u, ReplyBody::Ack);
                    return Ok(());
                }
                Call::Utilization { now } => {
                    let value = self.paths[u].reply_utilization(*now);
                    self.parked[u] = None;
                    self.respond(u, ReplyBody::Utilization { value });
                    return Ok(());
                }
                Call::Writeback { now, pages } => {
                    // Background traffic: charge the member's link and
                    // answer immediately (no deputy queueing — the sink
                    // apply is not on the migrant's critical path).
                    let (now, pages) = (*now, *pages);
                    let bytes = writeback_batch_bytes(pages);
                    let settled_at = self.paths[u].send_control_to_home(now, bytes);
                    self.parked[u] = None;
                    self.respond(u, ReplyBody::WritebackDone { bytes, settled_at });
                    return Ok(());
                }
                Call::Sync => {
                    let body = ReplyBody::Synced {
                        bytes_to_dest: self.paths[u].bytes_to_dest(),
                        bytes_from_dest: self.paths[u].bytes_from_dest(),
                        deputy: self.md.shard_stats(MigrantId(u as u32)),
                        faults: self.chaos.as_ref().map(|c| c.faults[u]).unwrap_or_default(),
                    };
                    self.parked[u] = None;
                    self.respond(u, body);
                    return Ok(());
                }
                Call::Done => unreachable!("Done is consumed by the receive loop"),
            }
        }
    }
}

impl MigrantId {
    fn idx0(self) -> usize {
        self.0 as usize
    }
}

/// Executes `spec`: N migrant protocol loops, each on its own thread,
/// against one shared sharded deputy. Deterministic — the interleaving
/// is a pure function of the simulated clocks (see the module docs).
pub fn run_multi(spec: &MultiRunSpec) -> Result<MultiRunReport, AmpomError> {
    if spec.migrants.is_empty() {
        return Err(AmpomError::InvalidConfig(
            "a multi-run needs at least one migrant".into(),
        ));
    }
    spec.cfg.validate()?;
    if let Some(feature) = spec.cfg.simulated_only_feature() {
        return Err(AmpomError::InvalidConfig(format!(
            "{feature} is not modelled by the multi-migrant deputy"
        )));
    }
    for m in &spec.migrants {
        m.workload.validate()?;
    }
    if let Some(profile) = &spec.chaos {
        profile.validate()?;
    }
    spec.admission
        .validate()
        .map_err(AmpomError::InvalidConfig)?;

    let n = spec.migrants.len();
    let (call_tx, call_rx) = channel::<(MigrantId, Call)>();
    let mut reply_txs = Vec::with_capacity(n);
    let mut reply_rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel::<Reply>();
        reply_txs.push(tx);
        reply_rxs.push(Some(rx));
    }

    let mut paths = Vec::with_capacity(n);
    let mut monitors = Vec::with_capacity(n);
    for i in 0..n {
        let mut path = NetPath::new(spec.cfg.link);
        if let Some(ct) = spec.cfg.cross_traffic {
            path = path.with_cross_traffic(CrossTraffic::new(
                ct.bytes_per_sec,
                ct.burst_bytes,
                SimRng::seed_from_u64(derive_member_seed(spec.cfg.seed, i as u32)),
            ));
        }
        monitors.push(MonitorDaemon::new(&path));
        paths.push(path);
    }

    // Chaos state is built only for a non-null profile: the null path
    // draws zero fates, which is what keeps chaos-free runs bit-identical
    // to the pre-chaos coordinator.
    let chaos = spec.chaos.as_ref().filter(|p| !p.is_null()).map(|profile| {
        let rng = SimRng::seed_from_u64(spec.cfg.seed ^ CHAOS_SEED_SALT);
        ChaosState {
            profile: profile.clone(),
            request_plans: (0..n)
                .map(|i| FaultPlan::new(profile.faults, rng.fork(2 * i as u64)))
                .collect(),
            reply_plans: (0..n)
                .map(|i| FaultPlan::new(profile.faults, rng.fork(2 * i as u64 + 1)))
                .collect(),
            retries: (0..n)
                .map(|_| RetrySchedule::for_link(profile.retry, profile.policy, spec.cfg.link))
                .collect(),
            faults: vec![FaultStats::default(); n],
        }
    });

    let mut coord = Coordinator {
        md: MultiDeputy::with_drr(n, spec.drr),
        paths,
        monitors,
        reply_tx: reply_txs,
        parked: (0..n).map(|_| None).collect(),
        alive: vec![true; n],
        n_alive: n,
        delivery_buf: vec![Vec::new(); n],
        syscall_ready: vec![None; n],
        trace_on: spec.cfg.trace,
        chaos,
        admission: spec.admission,
    };

    thread::scope(|scope| -> Result<MultiRunReport, AmpomError> {
        let mut workers = Vec::with_capacity(n);
        for (i, migrant) in spec.migrants.iter().enumerate() {
            let cfg = spec.cfg.clone();
            let workload = migrant.workload.clone();
            let seed = migrant.seed;
            let tx = call_tx.clone();
            let rx = reply_rxs[i].take().expect("each receiver moved once");
            workers.push(scope.spawn(move || {
                let id = MigrantId(i as u32);
                let done_tx = tx.clone();
                let result = (|| -> Result<RunReport, AmpomError> {
                    let mut w = workload.build(seed)?;
                    let mut handle = MigrantHandle::new(id, tx, rx);
                    run_with_transport(w.as_mut(), &cfg, &mut handle)
                })();
                let _ = done_tx.send((id, Call::Done));
                result
            }));
        }
        drop(call_tx);

        let coordination = (|| -> Result<(), AmpomError> {
            while coord.n_alive > 0 {
                // Wait until every live migrant is parked (or exits).
                loop {
                    let parked_count = coord.parked.iter().filter(|p| p.is_some()).count();
                    if parked_count >= coord.n_alive {
                        break;
                    }
                    let (id, call) = call_rx.recv().map_err(|_| {
                        AmpomError::Transport("multi-run migrant thread lost".into())
                    })?;
                    let i = id.idx0();
                    if matches!(call, Call::Done) {
                        if coord.alive[i] {
                            coord.alive[i] = false;
                            coord.n_alive -= 1;
                            debug_assert!(coord.parked[i].is_none());
                        }
                    } else {
                        coord.parked[i] = Some(Parked {
                            call,
                            submitted: false,
                        });
                    }
                }
                if coord.n_alive == 0 {
                    break;
                }
                coord.step()?;
            }
            Ok(())
        })();
        // Drop reply senders so a worker stuck on recv errors out
        // instead of deadlocking if coordination failed.
        coord.reply_tx.clear();

        let mut reports = Vec::with_capacity(n);
        for w in workers {
            let report = w
                .join()
                .map_err(|_| AmpomError::Transport("multi-run migrant thread panicked".into()))?;
            reports.push(report?);
        }
        coordination?;

        let shard_stats: Vec<DeputyStats> = (0..n)
            .map(|i| coord.md.shard_stats(MigrantId(i as u32)))
            .collect();
        let service_shares: Vec<f64> = (0..n)
            .map(|i| coord.md.service_share(MigrantId(i as u32)))
            .collect();
        let pages_coalesced: Vec<u64> = (0..n)
            .map(|i| coord.md.pages_coalesced(MigrantId(i as u32)))
            .collect();
        let makespan = reports
            .iter()
            .map(|r| r.total_time)
            .max()
            .unwrap_or(SimDuration::ZERO);
        Ok(MultiRunReport {
            reports,
            shard_stats,
            deputy: coord.md.aggregate_stats(),
            service_shares,
            pages_coalesced,
            makespan,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SimulatedTransport;

    fn quick_spec() -> WorkloadSpec {
        WorkloadSpec::Sequential {
            pages: 192,
            cpu: SimDuration::from_micros(10),
        }
    }

    fn solo_fingerprint(cfg: &RunConfig, spec: &WorkloadSpec, seed: u64) -> u64 {
        let mut w = spec.build(seed).expect("valid workload");
        let mut t = SimulatedTransport::new(cfg);
        run_with_transport(w.as_mut(), cfg, &mut t)
            .expect("valid config")
            .fingerprint()
    }

    #[test]
    fn n1_multi_run_is_bit_identical_to_simulated_transport() {
        for scheme in [Scheme::Ampom, Scheme::NoPrefetch, Scheme::OpenMosix] {
            let cfg = RunConfig::new(scheme);
            let solo = solo_fingerprint(&cfg, &quick_spec(), 7);
            let multi = run_multi(&MultiRunSpec::homogeneous(cfg, quick_spec(), 7, 1))
                .expect("multi-run succeeds");
            assert_eq!(
                multi.reports[0].fingerprint(),
                solo,
                "N=1 multi-run drifted from the single-migrant path for {scheme:?}"
            );
        }
    }

    #[test]
    fn n1_with_syscalls_and_series_is_bit_identical() {
        let mut cfg = RunConfig::new(Scheme::Ampom);
        cfg.syscalls = Some(crate::runner::SyscallProfile {
            every_refs: 37,
            work: SimDuration::from_micros(3),
        });
        cfg.sample_series_every = Some(5);
        cfg.trace = true;
        let solo = solo_fingerprint(&cfg, &quick_spec(), 11);
        let multi = run_multi(&MultiRunSpec::homogeneous(cfg, quick_spec(), 11, 1))
            .expect("multi-run succeeds");
        assert_eq!(multi.reports[0].fingerprint(), solo);
    }

    #[test]
    fn four_migrants_complete_and_report_fair_shares() {
        let cfg = RunConfig::new(Scheme::Ampom);
        let report = run_multi(&MultiRunSpec::homogeneous(cfg, quick_spec(), 42, 4))
            .expect("multi-run succeeds");
        assert_eq!(report.migrants(), 4);
        let share_sum: f64 = report.service_shares.iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to {share_sum}");
        // Identical workloads: DRR must keep them close to even.
        assert!(
            report.fairness_ratio() < 1.5,
            "fairness ratio {} for identical workloads",
            report.fairness_ratio()
        );
        let sat = report.saturation();
        assert!(sat > 0.0 && sat <= 1.0, "saturation {sat}");
        // Shard stats sum exactly to the aggregate.
        let q: u64 = report.shard_stats.iter().map(|s| s.queued_requests).sum();
        assert_eq!(q, report.deputy.queued_requests);
        let busy: SimDuration = report.shard_stats.iter().map(|s| s.busy_time).sum();
        assert_eq!(busy, report.deputy.busy_time);
    }

    #[test]
    fn multi_runs_are_deterministic_across_invocations() {
        let cfg = RunConfig::new(Scheme::Ampom);
        let spec = MultiRunSpec::homogeneous(cfg, quick_spec(), 9, 3);
        let a = run_multi(&spec).expect("first run");
        let b = run_multi(&spec).expect("second run");
        let fa: Vec<u64> = a.reports.iter().map(|r| r.fingerprint()).collect();
        let fb: Vec<u64> = b.reports.iter().map(|r| r.fingerprint()).collect();
        assert_eq!(fa, fb, "thread scheduling leaked into the results");
        assert_eq!(a.deputy, b.deputy);
    }

    #[test]
    fn contended_migrants_slow_down_but_terminate() {
        let cfg = RunConfig::new(Scheme::NoPrefetch);
        let solo = {
            let mut w = quick_spec().build(5).expect("valid workload");
            let mut t = SimulatedTransport::new(&cfg);
            run_with_transport(w.as_mut(), &cfg, &mut t).expect("solo run")
        };
        let multi = run_multi(&MultiRunSpec::homogeneous(cfg, quick_spec(), 5, 4))
            .expect("multi-run succeeds");
        for r in &multi.reports {
            assert!(
                r.total_time >= solo.total_time,
                "a contended run beat the solo baseline: {:?} < {:?}",
                r.total_time,
                solo.total_time
            );
        }
    }

    #[test]
    fn empty_spec_is_rejected() {
        let spec = MultiRunSpec {
            cfg: RunConfig::new(Scheme::Ampom),
            migrants: Vec::new(),
            drr: DrrConfig::default(),
            chaos: None,
            admission: AdmissionConfig::default(),
        };
        assert!(matches!(
            run_multi(&spec),
            Err(AmpomError::InvalidConfig(_))
        ));
    }

    /// FFA, simulated fault injection and resident-limit eviction exist
    /// only on the single-migrant simulated transport; the shared deputy
    /// refuses them rather than silently running without them.
    #[test]
    fn simulated_only_features_are_rejected() {
        for cfg in [
            RunConfig::new(Scheme::Ffa),
            RunConfig::new(Scheme::Ampom).with_faults(FaultProfile::lossy(0.1)),
            RunConfig::new(Scheme::Ampom).with_resident_limit_mb(1),
        ] {
            let spec = MultiRunSpec::homogeneous(cfg, quick_spec(), 7, 2);
            assert!(matches!(
                run_multi(&spec),
                Err(AmpomError::InvalidConfig(_))
            ));
        }
    }
}
