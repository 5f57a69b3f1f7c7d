//! `deputy-loopback`: a live `DeputyServer` on 127.0.0.1 with one reactor
//! worker, driven by one client thread over two closed-loop sessions.
//!
//! The read session sends 16-page `PageRequest`s (one demand page, 15
//! prefetch pages) and sends the next once every page has arrived. The
//! write session sends 16-page `WritebackBatch`es and sends the next once
//! the batch's `WritebackAck` has arrived. Every page and every ack is
//! audited for exactly-once delivery.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ampom_mem::page::PageId;
use ampom_mem::page::PAGE_SIZE;
use ampom_rpc::frame::{page_payload, page_payload_into, payload_matches};
use ampom_rpc::{DeputyServer, Endpoint, Frame, MigrantClient, Poller, ServerConfig, ServerStats};
use ampom_sim::rng::SimRng;

use crate::harness::{
    self, gauged_s, median, time_batched, Histogram, HostGauge, Metrics, Span, Tracer,
};
use crate::{Check, FamilyTrace, Layers, Outcome};

/// Pages of the served image. Requests draw from it at random, so the
/// deputy's per-session served set stays bounded however long the run.
const IMAGE_PAGES: u64 = 65_536;
const REQ_PAGES: u64 = 16;
const SETUP_REPS: usize = 9;
/// Closed-loop operations of each session run as part of set-up.
const WARMUP_OPS: u64 = 1_000;
/// Read requests per measured chunk; each chunk's wall is recorded. Short
/// chunks let the median chunk stay clear of the host's scheduling stalls.
const CHUNK_OPS: u64 = 50;
/// Chunks between host gauge readings: a reading costs about as much as
/// a few chunks, so the loop is not read before each one.
const GAUGE_CHUNKS: usize = 20;
/// Read requests both sessions serve before they are reopened. The
/// deputy keeps per-session ledgers (pages served, writeback seqs and
/// versions applied) until a session closes, so reopening after a fixed
/// operation count keeps the process's memory independent of how many
/// operations a run completes.
const SESSION_OPS: u64 = 1_000;
/// Read requests per measurement slice of a traced run.
const SLICE_OPS: u64 = 4_000;
/// Traced slices kept in memory at most (spans are written out at the end).
const MAX_TRACED_SLICES: usize = 8;
/// Read requests per slice of the probe other workloads' traced runs make.
const PROBE_SLICE_OPS: u64 = 400;
/// Frames of each kind kept for the codec replay.
const REPLAY_FRAMES: usize = 256;
/// A session that makes no progress for this long has hung.
const STALL_LIMIT: Duration = Duration::from_secs(10);
const SCHEME_AMPOM: u8 = 2;

/// Position-salted word sum of a page: detects any corrupted or moved
/// word at a fraction of the cost of regenerating the payload.
fn checksum(data: &[u8]) -> u64 {
    data.chunks_exact(8).enumerate().fold(0u64, |acc, (i, w)| {
        let word = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        acc.wrapping_add(word ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    })
}

/// Checksums of every image page's `page_payload`, computed once.
fn expected_checksums() -> &'static [u64] {
    static TABLE: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        (0..IMAGE_PAGES)
            .map(|p| {
                page_payload_into(PageId(p), &mut buf);
                checksum(&buf)
            })
            .collect()
    })
}

fn rpc(e: ampom_rpc::RpcError) -> String {
    e.to_string()
}

/// Exactly-once bookkeeping of both sessions.
#[derive(Debug, Default, Clone, Copy)]
struct Audit {
    pages_received: u64,
    duplicate_pages: u64,
    corrupt_pages: u64,
    stray_frames: u64,
    reads_done: u64,
    acks_ok: u64,
    acks_bad: u64,
    writeback_pages_acked: u64,
}

impl Audit {
    fn clean(&self) -> bool {
        self.duplicate_pages == 0
            && self.corrupt_pages == 0
            && self.stray_frames == 0
            && self.acks_bad == 0
    }
}

/// Frames captured for the codec replay, one list per kind.
#[derive(Debug, Default)]
struct Captured {
    request: Vec<Frame>,
    batch_reply: Vec<Frame>,
    writeback_batch: Vec<Frame>,
    ack: Vec<Frame>,
}

fn keep(list: &mut Vec<Frame>, f: &Frame) {
    if list.len() < REPLAY_FRAMES {
        list.push(f.clone());
    }
}

/// The deputy under test and the two closed-loop sessions that load it.
struct Loopback {
    server: Option<DeputyServer>,
    read: MigrantClient,
    write: MigrantClient,
    rng: SimRng,
    poller: Poller,
    /// Read requests completed on the current pair of sessions.
    session_reads: u64,
    outstanding: Vec<PageId>,
    read_sent_at: Instant,
    read_ops: u64,
    seq: u64,
    pending_seq: Option<u64>,
    write_sent_at: Instant,
    audit: Audit,
    read_lat_us: Histogram,
    write_lat_us: Histogram,
    tracer: Option<Tracer>,
    captured: Captured,
}

impl Loopback {
    fn start(seed: u64) -> Result<Loopback, String> {
        let server = DeputyServer::bind_tcp(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .map_err(rpc)?;
        let addr = server.local_addr().to_string();
        let dial = || -> Result<MigrantClient, String> {
            let mut c =
                MigrantClient::connect(Endpoint::tcp(addr.clone()), IMAGE_PAGES, SCHEME_AMPOM)
                    .map_err(rpc)?;
            c.set_nonblocking(true).map_err(rpc)?;
            Ok(c)
        };
        Ok(Loopback {
            read: dial()?,
            write: dial()?,
            server: Some(server),
            rng: SimRng::seed_from_u64(seed),
            poller: Poller::new(),
            session_reads: 0,
            outstanding: Vec::new(),
            read_sent_at: Instant::now(),
            read_ops: 0,
            seq: 0,
            pending_seq: None,
            write_sent_at: Instant::now(),
            audit: Audit::default(),
            read_lat_us: Histogram::default(),
            write_lat_us: Histogram::default(),
            tracer: None,
            captured: Captured::default(),
        })
    }

    /// Redials and greets both sessions once the current pair has served
    /// `SESSION_OPS` read requests; the deputy drops the old sessions'
    /// ledgers. Called between measured chunks, never inside one.
    fn renew_sessions(&mut self) -> Result<(), String> {
        if self.session_reads < SESSION_OPS {
            return Ok(());
        }
        for c in [&mut self.read, &mut self.write] {
            c.reconnect().map_err(rpc)?;
            c.set_nonblocking(true).map_err(rpc)?;
        }
        self.session_reads = 0;
        Ok(())
    }

    fn begin(&mut self, name: &'static str, op: u64) -> Option<usize> {
        self.tracer.as_mut().map(|t| {
            t.set_op(op);
            t.begin(name)
        })
    }

    fn end(&mut self, span: Option<usize>) {
        if let (Some(t), Some(s)) = (self.tracer.as_mut(), span) {
            t.end(s);
        }
    }

    fn send_read(&mut self) -> Result<(), String> {
        let base = self.rng.below(IMAGE_PAGES - REQ_PAGES);
        self.outstanding = (base..base + REQ_PAGES).map(PageId).collect();
        self.read_ops += 1;
        let span = self.begin("client.send", self.read_ops);
        self.read_sent_at = Instant::now();
        let req_id = self
            .read
            .send_request(Some(self.outstanding[0]), &self.outstanding[1..])
            .map_err(rpc)?;
        self.end(span);
        if self.tracer.is_some() && self.captured.request.len() < REPLAY_FRAMES {
            let pages = self.outstanding.clone();
            self.captured
                .request
                .push(Frame::PageRequest { req_id, pages });
        }
        Ok(())
    }

    fn send_write(&mut self) -> Result<(), String> {
        self.seq += 1;
        let base = self.rng.below(IMAGE_PAGES - REQ_PAGES);
        // Versions follow the global sequence, so every entry is newer
        // than anything the deputy holds for its page.
        let entries: Vec<(PageId, u64)> = (base..base + REQ_PAGES)
            .map(|p| (PageId(p), self.seq))
            .collect();
        let span = self.begin("client.send", 1 << 40 | self.seq);
        self.write_sent_at = Instant::now();
        // A 64 KiB batch may not fit the socket buffer at once, so this
        // one send blocks until the deputy has read it.
        self.write.set_nonblocking(false).map_err(rpc)?;
        self.write.send_writeback(self.seq, &entries).map_err(rpc)?;
        self.write.set_nonblocking(true).map_err(rpc)?;
        self.end(span);
        self.pending_seq = Some(self.seq);
        if self.tracer.is_some() && self.captured.writeback_batch.len() < REPLAY_FRAMES {
            let pages = entries
                .iter()
                .map(|&(p, v)| (p, v, page_payload(p)))
                .collect();
            self.captured.writeback_batch.push(Frame::WritebackBatch {
                seq: self.seq,
                pages,
            });
        }
        Ok(())
    }

    fn book_page(&mut self, page: PageId, data: &[u8]) {
        if !payload_matches(page, data) || checksum(data) != expected_checksums()[page.0 as usize] {
            self.audit.corrupt_pages += 1;
        }
        match self.outstanding.iter().position(|p| *p == page) {
            Some(at) => {
                self.outstanding.swap_remove(at);
                self.audit.pages_received += 1;
            }
            None => self.audit.duplicate_pages += 1,
        }
    }

    /// Consumes every frame the read session has buffered; returns true
    /// when the outstanding request completed.
    fn drain_read(&mut self) -> Result<bool, String> {
        let mut completed = false;
        loop {
            let span = self.begin("client.recv", self.read_ops);
            let frame = self.read.try_recv().map_err(rpc)?;
            self.end(span);
            let Some(frame) = frame else {
                return Ok(completed);
            };
            // Latency ends when the frame is decoded; the audit below is
            // the benchmark's own work.
            let arrived = self.read_sent_at.elapsed();
            if self.tracer.is_some() {
                keep(&mut self.captured.batch_reply, &frame);
            }
            match frame {
                Frame::PageBatchReply { pages, .. } => {
                    for (page, data) in &pages {
                        self.book_page(*page, data);
                    }
                }
                Frame::PageReply { page, data, .. } => self.book_page(page, &data),
                _ => self.audit.stray_frames += 1,
            }
            if self.outstanding.is_empty() && !completed {
                self.read_lat_us.record(arrived.as_secs_f64() * 1e6);
                self.audit.reads_done += 1;
                self.session_reads += 1;
                completed = true;
            }
        }
    }

    fn drain_write(&mut self) -> Result<bool, String> {
        let mut completed = false;
        loop {
            let span = self.begin("client.recv", 1 << 40 | self.seq);
            let frame = self.write.try_recv().map_err(rpc)?;
            self.end(span);
            let Some(frame) = frame else {
                return Ok(completed);
            };
            let arrived = self.write_sent_at.elapsed();
            if self.tracer.is_some() {
                keep(&mut self.captured.ack, &frame);
            }
            match frame {
                Frame::WritebackAck {
                    seq,
                    applied,
                    duplicates,
                } => {
                    let expected = self.pending_seq.take();
                    if expected == Some(seq) && u64::from(applied) == REQ_PAGES && duplicates == 0 {
                        self.audit.acks_ok += 1;
                        self.audit.writeback_pages_acked += u64::from(applied);
                    } else {
                        self.audit.acks_bad += 1;
                    }
                    self.write_lat_us.record(arrived.as_secs_f64() * 1e6);
                    completed = true;
                }
                _ => self.audit.stray_frames += 1,
            }
        }
    }

    /// Runs both closed loops until `reads` more read requests complete,
    /// then lets the write session's last batch settle.
    fn run(&mut self, reads: u64) -> Result<(), String> {
        let target = self.audit.reads_done + reads;
        self.send_read()?;
        self.send_write()?;
        let mut last_progress = Instant::now();
        while !self.outstanding.is_empty() || self.pending_seq.is_some() {
            self.poller.clear();
            self.poller.push(self.read.as_raw_fd(), true, false);
            self.poller.push(self.write.as_raw_fd(), true, false);
            let span = self.begin("client.poll", self.read_ops);
            self.poller
                .wait(Duration::from_millis(100))
                .map_err(|e| e.to_string())?;
            self.end(span);
            let mut progressed = false;
            if self.poller.readable(0) && self.drain_read()? {
                progressed = true;
                if self.audit.reads_done < target {
                    self.send_read()?;
                }
            }
            if self.poller.readable(1) && self.drain_write()? {
                progressed = true;
                if self.audit.reads_done < target {
                    self.send_write()?;
                }
            }
            if progressed {
                last_progress = Instant::now();
            } else if last_progress.elapsed() > STALL_LIMIT {
                return Err(format!("deputy-loopback stalled: {:?}", self.audit));
            }
        }
        Ok(())
    }

    /// Closes both sessions and the deputy; returns its final counters.
    fn finish(mut self) -> ServerStats {
        let server = self.server.take().expect("server running");
        drop(self);
        // The sessions are closed; counters were published before the
        // replies the audit already saw.
        let stats = server.stats();
        server.shutdown();
        stats
    }
}

/// Checks the client audit against the deputy's own counters.
fn audit_checks(audit: &Audit, stats: &ServerStats) -> Vec<Check> {
    vec![
        Check::new(
            "every requested page arrived once with its page_payload contents",
            audit.clean() && stats.pages_served == audit.pages_received,
            format!(
                "{} pages received, deputy served {}, {} duplicate, {} corrupt, {} stray frames",
                audit.pages_received,
                stats.pages_served,
                audit.duplicate_pages,
                audit.corrupt_pages,
                audit.stray_frames
            ),
        ),
        Check::new(
            "every writeback seq acked once with its pages applied",
            audit.acks_bad == 0
                && stats.writeback_pages_applied == audit.writeback_pages_acked
                && stats.writeback_duplicates == 0
                && stats.writeback_batches == audit.acks_ok,
            format!(
                "{} acks, {} pages applied by the deputy, {} acked",
                audit.acks_ok, stats.writeback_pages_applied, audit.writeback_pages_acked
            ),
        ),
    ]
}

fn codec_layers(c: &Captured, m: &mut Metrics, checks: &mut Vec<Check>) {
    let mut round_trips = true;
    for (kind, frames) in [
        ("request", &c.request),
        ("batch_reply", &c.batch_reply),
        ("writeback_batch", &c.writeback_batch),
        ("ack", &c.ack),
    ] {
        let mut out = Vec::with_capacity(128 * 1024);
        let encode = time_batched(frames, Duration::from_millis(20), |f| {
            out.clear();
            f.encode_into(&mut out);
            black_box(&out);
        });
        // Frame bodies: the encoding without its 4-byte length prefix.
        let bodies: Vec<Vec<u8>> = frames.iter().map(|f| f.encode()[4..].to_vec()).collect();
        round_trips &= frames
            .iter()
            .zip(&bodies)
            .all(|(f, b)| Frame::decode(b).as_ref() == Ok(f));
        let decode = time_batched(&bodies, Duration::from_millis(20), |b| {
            black_box(Frame::decode(b).ok());
        });
        let note = format!("ns per frame over {} of the run's frames", frames.len());
        m.add(
            format!("frame.{kind}.encode_ns"),
            encode,
            "ns",
            note.clone(),
        );
        m.add(format!("frame.{kind}.decode_ns"), decode, "ns", note);
    }
    checks.push(Check::new(
        "captured frames decode to themselves",
        round_trips,
        "",
    ));
}

fn server_layers(stats: &ServerStats, cpu_s: f64, pages_moved: u64, m: &mut Metrics) {
    m.add(
        "server.pages_per_reply_frame",
        stats.pages_served as f64 / stats.batch_replies.max(1) as f64,
        "pages",
        "pages served / batched reply frames",
    );
    m.add(
        "server.pages_coalesced",
        stats.pages_coalesced as f64,
        "count",
        "",
    );
    m.add(
        "server.write_stalls",
        stats.write_stalls as f64,
        "count",
        "",
    );
    m.add(
        "server.peak_write_backlog_bytes",
        stats.peak_write_backlog_bytes as f64,
        "bytes",
        "",
    );
    m.add(
        "server.writeback_pages_applied",
        stats.writeback_pages_applied as f64,
        "count",
        "",
    );
    m.add(
        "server.writeback_duplicates",
        stats.writeback_duplicates as f64,
        "count",
        "",
    );
    m.add(
        "deputy.cpu_us_per_page",
        cpu_s * 1e6 / pages_moved.max(1) as f64,
        "us",
        "process CPU (deputy and client) per page moved either way",
    );
}

/// Alternates untraced and traced slices of `slice_ops` read requests
/// until `budget` is spent (at least one of each).
fn wire_family(seed: u64, budget: Duration, slice_ops: u64) -> Result<FamilyTrace, String> {
    expected_checksums();
    let mut d = Loopback::start(seed)?;
    d.run(WARMUP_OPS)?;
    let cpu0 = harness::process_cpu_s();
    let mut plain_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut tracer = Tracer::default();
    let mut poll_ns = 0u64;
    let mut polled_ops = 0u64;
    let started = Instant::now();
    while traced_rates.is_empty()
        || (started.elapsed() < budget && traced_rates.len() < MAX_TRACED_SLICES)
    {
        d.renew_sessions()?;
        let t = Instant::now();
        d.run(slice_ops)?;
        plain_rates.push(t.elapsed().as_secs_f64() / slice_ops as f64);
        d.renew_sessions()?;
        d.tracer = Some(tracer);
        let ops0 = d.audit.reads_done + d.audit.acks_ok;
        let t = Instant::now();
        d.run(slice_ops)?;
        traced_rates.push(t.elapsed().as_secs_f64() / slice_ops as f64);
        tracer = d.tracer.take().expect("tracer installed");
        polled_ops += d.audit.reads_done + d.audit.acks_ok - ops0;
    }
    let pages_moved = d.audit.pages_received + d.audit.writeback_pages_acked;
    let cpu_s = match (cpu0, harness::process_cpu_s()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    let audit = d.audit;
    let captured = std::mem::take(&mut d.captured);
    let stats = d.finish();
    let mut checks = audit_checks(&audit, &stats);

    let spans: Vec<Span> = tracer.spans().to_vec();
    let totals = harness::layer_totals(&spans);
    let mut m = Metrics::default();
    codec_layers(&captured, &mut m, &mut checks);
    let send = totals.get("client.send").copied().unwrap_or_default();
    let recv = totals.get("client.recv").copied().unwrap_or_default();
    if let Some(p) = totals.get("client.poll") {
        poll_ns = p.total_ns;
    }
    m.add(
        "client.send_ns",
        send.total_ns as f64 / send.calls.max(1) as f64,
        "ns",
        "mean MigrantClient send span",
    );
    m.add(
        "client.recv_ns",
        recv.total_ns as f64 / recv.calls.max(1) as f64,
        "ns",
        "mean MigrantClient::try_recv span",
    );
    m.add(
        "client.wait_ns",
        poll_ns as f64 / polled_ops.max(1) as f64,
        "ns",
        "time parked in poll(2) per completed operation",
    );
    server_layers(&stats, cpu_s, pages_moved, &mut m);
    Ok(FamilyTrace {
        layers: m,
        spans,
        checks,
        attempted: audit.reads_done + audit.acks_ok,
        overhead_share: median(&traced_rates) / median(&plain_rates) - 1.0,
    })
}

/// The wire layers at probe size, for workloads that do not reach them.
pub fn probe(seed: u64) -> Result<FamilyTrace, String> {
    wire_family(seed, Duration::ZERO, PROBE_SLICE_OPS)
}

pub fn deputy_loopback(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let config = format!(
        "deputy-loopback transport=tcp-loopback workers=1 client_threads=1 sessions=read,write \
         loop=closed request_pages={REQ_PAGES} image_pages={IMAGE_PAGES}"
    );
    let mut out = Outcome::new(config, 2);
    if trace {
        let wire = wire_family(seed, Duration::from_secs_f64(seconds), SLICE_OPS)?;
        out.add_traced(seed, vec![(Layers::Wire, wire)])?;
        return Ok(out);
    }

    // The audit's reference checksums are the benchmark's own data, built
    // before set-up is timed.
    expected_checksums();
    // Set-up: bind the deputy, connect and greet both sessions, and run
    // a short warm-up of each closed loop.
    let mut gauge = HostGauge::new();
    let mut setup = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let reading = gauge.read()?;
        let t = Instant::now();
        let mut d = Loopback::start(seed)?;
        d.run(WARMUP_OPS)?;
        setup.push(gauged_s(t.elapsed().as_secs_f64(), reading));
        if rep + 1 < SETUP_REPS {
            let audit = d.audit;
            let stats = d.finish();
            out.attempted += audit.reads_done + audit.acks_ok;
            if audit_checks(&audit, &stats).iter().any(|c| !c.ok) {
                out.failed += audit.reads_done + audit.acks_ok;
            }
        } else {
            kept = Some(d);
        }
    }
    let mut d = kept.expect("set-up ran");
    d.read_lat_us.clear();
    d.write_lat_us.clear();
    let warm_acked = d.audit.writeback_pages_acked;
    let warm_pages = d.audit.pages_received;

    let mut readings = Vec::new();
    let t = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    while t.elapsed() < deadline {
        if out.samples_s.len().is_multiple_of(GAUGE_CHUNKS) {
            readings.push(gauge.read()?);
        }
        d.renew_sessions()?;
        let chunk = Instant::now();
        d.run(CHUNK_OPS)?;
        out.samples_s.push(chunk.elapsed().as_secs_f64());
    }
    let wall = t.elapsed().as_secs_f64();
    let read_lat = d.read_lat_us.clone();
    let write_lat = d.write_lat_us.clone();
    let pages = d.audit.pages_received - warm_pages;
    let wb_pages = d.audit.writeback_pages_acked - warm_acked;
    let audit = d.audit;
    let stats = d.finish();
    out.attempted += audit.reads_done + audit.acks_ok;
    for c in audit_checks(&audit, &stats) {
        if !c.ok {
            out.failed += audit.reads_done + audit.acks_ok;
        }
        out.checks.push(c);
    }

    // The median chunk is the steady estimate, as the median round is
    // for batch workloads. Both gated figures are gauged by the run's
    // median reading.
    let chunk_pages = (CHUNK_OPS * REQ_PAGES) as f64;
    let samples = out.samples_s.clone();
    let reading = median(&readings);
    let p50 = read_lat.percentile(50.0);
    out.add_e2e(
        median(&setup),
        chunk_pages / gauged_s(median(&samples), reading),
        gauged_s(p50, reading),
        "pages delivered to the read session per gauged wall second, median chunk",
        "gauged median µs from sending a read request to its last page",
    );
    let n = &mut out.named;
    n.add(
        "host_gauge_ms",
        reading * 1e3,
        "ms",
        format!(
            "median of {} host gauge readings; gauged figures count {:.1} ms as one",
            readings.len(),
            HostGauge::REFERENCE_S * 1e3
        ),
    );
    n.add(
        "deputy_pages_per_s",
        chunk_pages / median(&samples),
        "1/s",
        "read session, median chunk",
    );
    n.add(
        "deputy_pages_per_s_all_rounds",
        pages as f64 / wall,
        "1/s",
        "read session over the whole run",
    );
    let tail_pct = harness::tail_percentile(read_lat.len()).unwrap_or(50.0);
    for pct in [50.0, 90.0, 95.0, 99.0] {
        n.add(
            format!("deputy_fault_p{pct}_us"),
            read_lat.percentile(pct),
            "us",
            format!(
                "p{pct} of {} requests; highest with 10 beyond: p{tail_pct}",
                read_lat.len()
            ),
        );
    }
    n.add(
        "deputy_writeback_pages_per_s",
        wb_pages as f64 / wall,
        "1/s",
        "acked writeback pages",
    );
    n.add(
        "deputy_writeback_p50_us",
        write_lat.percentile(50.0),
        "us",
        format!("send to ack, {} batches", write_lat.len()),
    );
    Ok(out)
}
