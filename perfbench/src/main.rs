//! The repository's benchmark: four workloads over the AMPoM workspace,
//! end-to-end metrics with tracing off and per-layer metrics from a
//! separate traced run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Workloads: `table1-solo`, `shared-writeback`, `deputy-loopback`,
//! `cluster-life`, or `all` for the four in turn. The program prints
//! every metric by name and unit, the output checks and the run's
//! provenance, writes a record (and, when traced, the spans) under
//! `.perfbench_out/`, and ends with one JSON line holding `correct`,
//! `attempted`, `failed` and `metrics`. It exits with 1 when an output
//! check fails and with 2 on a usage or run error.

mod harness;
mod life;
mod sim;
mod wire;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use harness::{median, Metrics, Span};

/// End-to-end metrics every workload prints with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_time_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run prints.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("prefetcher.on_fault_ns", "ns"),
    ("window.record_ns", "ns"),
    ("census.ns", "ns"),
    ("score.eq1_ns", "ns"),
    ("zone.eq3_ns", "ns"),
    ("zone.select_ns", "ns"),
    ("zone.budget_pages_mean", "pages"),
    ("prefetcher.analyses", "count"),
    ("prefetcher.useful_ratio", "ratio"),
    ("prefetcher.requests_prevented", "ratio"),
    ("transport.request_pages_ns", "ns"),
    ("transport.wait_for_ns", "ns"),
    ("transport.install_arrived_ns", "ns"),
    ("transport.estimates_ns", "ns"),
    ("transport.calls", "count"),
    ("transport.prefetch_queued_ratio", "ratio"),
    ("workloads.next_ns", "ns"),
    ("workloads.refs", "count"),
    ("runner.self_ns_per_fault", "ns"),
    ("multirun.overhead_ratio", "ratio"),
    ("deputy_sim.busy_s", "sim_s"),
    ("deputy_sim.max_backlog_ms", "sim_ms"),
    ("deputy_sim.queued_requests", "count"),
    ("deputy_sim.pages_coalesced", "count"),
    ("deputy_sim.fairness_ratio", "ratio"),
    ("deputy_sim.saturation", "ratio"),
    ("writeback.batches", "count"),
    ("writeback.pages_per_fault", "ratio"),
    ("writeback.redirties", "count"),
    ("writeback.retransmits", "count"),
    ("frame.request.encode_ns", "ns"),
    ("frame.request.decode_ns", "ns"),
    ("frame.batch_reply.encode_ns", "ns"),
    ("frame.batch_reply.decode_ns", "ns"),
    ("frame.writeback_batch.encode_ns", "ns"),
    ("frame.writeback_batch.decode_ns", "ns"),
    ("frame.ack.encode_ns", "ns"),
    ("frame.ack.decode_ns", "ns"),
    ("client.send_ns", "ns"),
    ("client.recv_ns", "ns"),
    ("client.wait_ns", "ns"),
    ("server.pages_per_reply_frame", "pages"),
    ("server.pages_coalesced", "count"),
    ("server.write_stalls", "count"),
    ("server.peak_write_backlog_bytes", "bytes"),
    ("server.writeback_pages_applied", "count"),
    ("server.writeback_duplicates", "count"),
    ("deputy.cpu_us_per_page", "us"),
    ("life.thread_speedup", "ratio"),
    ("life.migrations", "count"),
    ("life.storm_ticks", "count"),
    ("gossip.merge_ns", "ns"),
    ("gossip.entries_merged_per_message", "count"),
    ("costmodel.ns", "ns"),
    ("clock.read_ns", "ns"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

pub const WORKLOADS: [&str; 4] = [
    "table1-solo",
    "shared-writeback",
    "deputy-loopback",
    "cluster-life",
];

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Result of tracing one layer family.
pub struct FamilyTrace {
    pub layers: Metrics,
    pub spans: Vec<Span>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    /// Traced minus untraced wall time, as a share of untraced.
    pub overhead_share: f64,
}

/// The layer families a traced run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layers {
    /// Prefetcher, transport, workloads and runner (`sim`).
    Engine,
    /// `run_multi`, the shared deputy and writeback (`sim`).
    Multi,
    /// Frame codec, client and server (`wire`).
    Wire,
    /// Cluster life, gossip and the cost model (`life`).
    Life,
}

const ALL_LAYERS: [Layers; 4] = [Layers::Engine, Layers::Multi, Layers::Wire, Layers::Life];

/// A fixed-size probe of one layer family, for a workload that does not
/// reach it.
fn probe(layers: Layers, seed: u64) -> Result<FamilyTrace, String> {
    match layers {
        Layers::Engine => sim::engine_probe(seed),
        Layers::Multi => sim::multi_probe(seed),
        Layers::Wire => wire::probe(seed),
        Layers::Life => life::probe(seed),
    }
}

/// Repeated rounds of a batch workload, cycling through `cycle` inputs.
#[derive(Debug, Default)]
pub struct Rounds {
    pub walls: Vec<f64>,
    /// Process CPU seconds of each round, all threads.
    pub cpus: Vec<f64>,
    /// CPU seconds of the [`harness::HostGauge`] reading taken just
    /// before each round.
    pub gauges: Vec<f64>,
    pub units: Vec<u64>,
    pub fingerprints: Vec<u64>,
    cycle: usize,
}

impl Rounds {
    /// Runs `round` until `seconds` have passed and the round count is a
    /// whole number of `cycle`s; round `i` runs input `i % cycle` and
    /// returns its units of work and a fingerprint of its output. The
    /// gauge is read before every round.
    pub fn measure(
        seconds: f64,
        cycle: usize,
        gauge: &mut harness::HostGauge,
        mut round: impl FnMut(usize) -> Result<(u64, u64), String>,
    ) -> Result<Rounds, String> {
        let mut r = Rounds {
            cycle,
            ..Rounds::default()
        };
        let started = Instant::now();
        while r.walls.is_empty()
            || !r.walls.len().is_multiple_of(cycle)
            || started.elapsed().as_secs_f64() < seconds
        {
            r.gauges.push(gauge.read()?);
            let cpu = || harness::process_cpu_s().ok_or("process CPU time unavailable");
            let cpu0 = cpu()?;
            let t = Instant::now();
            let (units, fp) = round(r.walls.len())?;
            r.walls.push(t.elapsed().as_secs_f64());
            r.cpus.push(cpu()? - cpu0);
            r.units.push(units);
            r.fingerprints.push(fp);
        }
        Ok(r)
    }

    /// Work per host second over every round.
    pub fn mean_throughput(&self) -> f64 {
        self.units.iter().sum::<u64>() as f64 / self.walls.iter().sum::<f64>()
    }

    /// Each input's units and the median of `samples` over its rounds.
    /// Co-tenants of a shared host slow rounds for seconds at a time, and
    /// thread placement makes rare rounds much faster than the rest; the
    /// median ignores both tails.
    fn median_per_input(&self, samples: &[f64]) -> Vec<(u64, f64)> {
        (0..self.cycle)
            .map(|k| {
                let own: Vec<f64> = samples
                    .iter()
                    .skip(k)
                    .step_by(self.cycle)
                    .copied()
                    .collect();
                (self.units[k], median(&own))
            })
            .collect()
    }

    /// Work per second of `samples`, each input at its median round.
    fn rate(&self, samples: &[f64]) -> f64 {
        let rep = self.median_per_input(samples);
        rep.iter().map(|b| b.0).sum::<u64>() as f64 / rep.iter().map(|b| b.1).sum::<f64>()
    }

    /// Work per host (wall) second, each input at its median round.
    pub fn throughput(&self) -> f64 {
        self.rate(&self.walls)
    }

    /// Work per process CPU second, each input at its median round.
    pub fn cpu_throughput(&self) -> f64 {
        self.rate(&self.cpus)
    }

    /// Each round's process CPU time in reference-host CPU seconds.
    fn gauged(&self) -> Vec<f64> {
        self.cpus
            .iter()
            .zip(&self.gauges)
            .map(|(&c, &g)| harness::gauged_s(c, g))
            .collect()
    }

    /// Work per reference-host CPU second, each input at its median round.
    pub fn gauged_throughput(&self) -> f64 {
        self.rate(&self.gauged())
    }

    /// Median over inputs of the median round's reference-host CPU
    /// time, µs.
    fn gauged_op_us(&self) -> f64 {
        median(
            &self
                .median_per_input(&self.gauged())
                .iter()
                .map(|b| b.1 * 1e6)
                .collect::<Vec<_>>(),
        )
    }

    /// Rounds whose output differs from the first round's.
    pub fn nondeterministic(&self) -> u64 {
        self.fingerprints
            .iter()
            .filter(|&&f| f != self.fingerprints[0])
            .count() as u64
    }

    pub fn repeat_check(&self) -> Check {
        Check::new(
            "every round's output repeats the first bit for bit",
            self.nondeterministic() == 0,
            format!("{} rounds", self.walls.len()),
        )
    }
}

/// Everything one run produced.
pub struct Outcome {
    pub config: String,
    pub threads: usize,
    pub e2e: Metrics,
    pub named: Metrics,
    pub layers: Metrics,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
    /// Host seconds of each measured operation or round, for the record.
    pub samples_s: Vec<f64>,
}

impl Outcome {
    pub fn new(config: String, threads: usize) -> Self {
        Outcome {
            config,
            threads,
            e2e: Metrics::default(),
            named: Metrics::default(),
            layers: Metrics::default(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
            samples_s: Vec::new(),
        }
    }

    pub fn add_e2e(
        &mut self,
        setup_s: f64,
        throughput: f64,
        op_time_us: f64,
        throughput_note: &str,
        op_note: &str,
    ) {
        let m = &mut self.e2e;
        m.add(
            "setup_s",
            setup_s,
            "s",
            "gauged wall time of one set-up, median over its repetitions",
        );
        m.add("throughput_per_s", throughput, "1/s", throughput_note);
        m.add("op_time_us", op_time_us, "us", op_note);
    }

    /// End-to-end metrics of a batch workload: work per reference-host
    /// CPU second and reference-host CPU time per round, each input at its
    /// median round. Co-tenants of a shared host stretch a round's wall
    /// time (a vCPU taken away, a worker thread started late) more than
    /// the CPU time the round consumes, and they slow the CPU time too, by
    /// as much as half for minutes; dividing each round's CPU time by the
    /// [`harness::HostGauge`] reading taken before it removes most of the
    /// latter. The raw CPU and wall figures are printed beside them as
    /// named metrics.
    pub fn add_batch_e2e(
        &mut self,
        setup_s: f64,
        rounds: &Rounds,
        throughput_note: &str,
        op_note: &str,
    ) {
        self.samples_s = rounds.walls.clone();
        let note = format!(
            "{throughput_note}, median of {} rounds per input",
            rounds.walls.len() / rounds.cycle
        );
        self.add_e2e(
            setup_s,
            rounds.gauged_throughput(),
            rounds.gauged_op_us(),
            &note,
            op_note,
        );
        self.named.add(
            "cpu_throughput_per_s",
            rounds.cpu_throughput(),
            "1/s",
            "throughput_per_s in this host's own process CPU seconds, not gauged",
        );
        self.named.add(
            "host_gauge_ms",
            median(&rounds.gauges) * 1e3,
            "ms",
            format!(
                "median host gauge reading; gauged figures count {:.1} ms as one",
                harness::HostGauge::REFERENCE_S * 1e3
            ),
        );
    }

    /// Per-layer metrics of a traced run: the families the workload
    /// reaches, traced on its own path, then a probe of every other family
    /// so that each traced run reports every per-layer metric.
    pub fn add_traced(
        &mut self,
        seed: u64,
        native: Vec<(Layers, FamilyTrace)>,
    ) -> Result<(), String> {
        let overhead = native.first().map_or(0.0, |(_, t)| t.overhead_share);
        let reached: Vec<Layers> = native.iter().map(|(l, _)| *l).collect();
        for (_, t) in native {
            self.absorb(t, "");
        }
        for layers in ALL_LAYERS {
            if !reached.contains(&layers) {
                self.absorb(probe(layers, seed)?, "[probe] ");
            }
        }
        self.layers.add(
            "trace.overhead_share",
            overhead,
            "ratio",
            "(traced - untraced) / untraced wall of the workload's own operation",
        );
        self.layers.add(
            "trace.spans",
            self.spans.len() as f64,
            "count",
            "spans kept in memory",
        );
        self.layers.add(
            "clock.read_ns",
            harness::clock_read_ns(),
            "ns",
            "one Instant::now() read; each span pays two",
        );
        Ok(())
    }

    fn absorb(&mut self, t: FamilyTrace, note_prefix: &str) {
        for mut m in t.layers.0 {
            m.note = format!("{note_prefix}{}", m.note);
            self.layers.0.push(m);
        }
        self.checks.extend(t.checks);
        self.attempted += t.attempted;
        let base = self.spans.len();
        self.spans.extend(t.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <table1-solo|shared-writeback|deputy-loopback|cluster-life|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit of a git checkout in the working directory, read from
/// `.git` without running git; `none` outside a repository.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "none".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(c) = read(&format!(".git/{reference}")) {
        return c;
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the sources the benchmark builds (paths and contents, in
/// path order): identifies the code even where no git history exists.
fn source_hash() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench"), &mut files);
    files.sort();
    files.iter().fold(harness::FNV_OFFSET, |h, p| {
        let h = harness::fnv1a(p.to_string_lossy().as_bytes(), h);
        harness::fnv1a(&std::fs::read(p).unwrap_or_default(), h)
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON, with every digit Rust prints for it.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|x| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&x.name),
                    json_num(x.value),
                    json_str(x.unit)
                )
            })
            .collect();
    format!("{{{}}}", body.join(", "))
}

/// Confirms a metric list holds exactly the catalogue's names and units,
/// each finite.
fn conforms(m: &Metrics, catalogue: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = m.0.iter().map(|x| (x.name.as_str(), x.unit)).collect();
    for (name, unit) in catalogue {
        if !got.contains(&(name, unit)) {
            return Err(format!("metric {name} ({unit}) missing"));
        }
    }
    if got.len() != catalogue.len() {
        return Err(format!(
            "{} metrics reported, {} catalogued",
            got.len(),
            catalogue.len()
        ));
    }
    if let Some(x) = m.0.iter().find(|x| !x.value.is_finite()) {
        return Err(format!("metric {} is not finite", x.name));
    }
    Ok(())
}

fn run(workload: &str, args: &Args) -> Result<(String, bool), String> {
    let started = Instant::now();
    let mut out = match workload {
        "table1-solo" => sim::table1_solo(args.seed, args.seconds, args.trace)?,
        "shared-writeback" => sim::shared_writeback(args.seed, args.seconds, args.trace)?,
        "deputy-loopback" => wire::deputy_loopback(args.seed, args.seconds, args.trace)?,
        "cluster-life" => life::cluster_life(args.seed, args.seconds, args.trace)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if !args.trace {
        let rss = harness::peak_rss_mb().ok_or("peak RSS unavailable on this platform")?;
        out.e2e
            .add("peak_rss_mb", rss, "MB", "peak resident set of the process");
        out.named.add("failed_ops_frac", 0.0, "ratio", "");
    }
    out.attempted += out.checks.len() as u64;
    out.failed += out.checks.iter().filter(|c| !c.ok).count() as u64;
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    if let Some(m) = out.named.0.iter_mut().find(|m| m.name == "failed_ops_frac") {
        m.value = frac;
        m.note = format!("{} of {} operations and checks", out.failed, out.attempted);
    }
    for m in out.e2e.0.iter().chain(&out.named.0).chain(&out.layers.0) {
        if !harness::valid_name(&m.name) || !harness::valid_unit(m.unit) {
            return Err(format!(
                "metric {:?} ({:?}) breaks the naming rules",
                m.name, m.unit
            ));
        }
    }
    let reported = if args.trace { &out.layers } else { &out.e2e };
    conforms(reported, if args.trace { &PER_LAYER } else { &END_TO_END })?;

    let config_hash = harness::fnv1a(
        format!("{} seconds={}", out.config, args.seconds).as_bytes(),
        harness::FNV_OFFSET,
    );
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let provenance = format!(
        "commit={} source={:016x} config={config_hash:016x} seed={} threads={} host_cpu={} cores={cores} tracing={}",
        git_commit(),
        source_hash(),
        args.seed,
        out.threads,
        json_str(&harness::cpu_model()),
        if args.trace { "on" } else { "off" },
    );
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# perfbench {} seed={} seconds={} trace={}",
        workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(text, "provenance {provenance}");
    let _ = writeln!(text, "config {}", out.config);
    let mut line = |kind: &str, m: &harness::Metric| {
        let _ = writeln!(
            text,
            "{kind:<6} {:<36} {:>16} {:<6} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.note
        );
    };
    let sections: [(&str, &Metrics); 3] = [
        ("e2e", &out.e2e),
        ("named", &out.named),
        ("layer", &out.layers),
    ];
    for (kind, metrics) in sections {
        for m in &metrics.0 {
            line(kind, m);
        }
    }
    for c in &out.checks {
        let _ = writeln!(
            text,
            "check  {} {} {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }

    // Record, in a directory keyed by workload and configuration hash.
    let dir = PathBuf::from(".perfbench_out")
        .join(workload)
        .join(format!("{config_hash:016x}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("seed-{}-trace-{}", args.seed, u8::from(args.trace));
    let record = format!(
        "{{\"workload\": {}, \"provenance\": {}, \"config\": {}, \"wall_s\": {}, \"attempted\": {}, \"failed\": {}, \
         \"end_to_end\": {}, \"named\": {}, \"per_layer\": {}, \"checks\": [{}], \"samples_s\": [{}]}}\n",
        json_str(workload),
        json_str(&provenance),
        json_str(&out.config),
        json_num(started.elapsed().as_secs_f64()),
        out.attempted,
        out.failed,
        metrics_json(&out.e2e),
        metrics_json(&out.named),
        metrics_json(&out.layers),
        out.checks
            .iter()
            .map(|c| format!("{{\"name\": {}, \"ok\": {}, \"detail\": {}}}", json_str(&c.name), c.ok, json_str(&c.detail)))
            .collect::<Vec<_>>()
            .join(", "),
        out.samples_s.iter().map(|&v| json_num(v)).collect::<Vec<_>>().join(", "),
    );
    let record_path = dir.join(format!("{stem}.json"));
    std::fs::write(&record_path, record).map_err(|e| format!("{}: {e}", record_path.display()))?;
    let _ = writeln!(text, "record {}", record_path.display());
    if args.trace {
        let mut tsv = String::from("name\top\tparent\tstart_ns\tend_ns\n");
        for s in &out.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                tsv,
                "{}\t{}\t{parent}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        let spans_path = dir.join(format!("seed-{}.spans.tsv", args.seed));
        std::fs::write(&spans_path, tsv).map_err(|e| format!("{}: {e}", spans_path.display()))?;
        let _ = writeln!(text, "spans  {}", spans_path.display());
    }

    let correct = out.failed == 0;
    let _ = writeln!(
        text,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics_json(reported)
    );
    Ok((text, correct))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // `all` runs the four workloads in turn, each block ending with its
    // own JSON line.
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut code = 0;
    for workload in workloads {
        match run(workload, &args) {
            Ok((text, correct)) => {
                print!("{text}");
                if !correct {
                    eprintln!("perfbench: {workload}: an output check failed");
                    code = 1;
                }
            }
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                std::process::exit(2);
            }
        }
    }
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units `BENCHMARK.json` declares, in file order.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = text
            .split(&format!("\"{key}\""))
            .nth(1)
            .expect("section present");
        let section = &section[..section.find(']').expect("section closes")];
        section
            .split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let rest = entry
                        .split(&format!("\"{f}\""))
                        .nth(1)
                        .expect("field present");
                    rest.split('"').nth(1).expect("string value").to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn gauged_figures_cancel_a_host_slowdown() {
        // Two inputs of 10 and 30 units; the last two cycles run on a host
        // slowed twofold, which doubles both CPU time and gauge reading.
        let g = harness::HostGauge::REFERENCE_S;
        let rounds = Rounds {
            walls: vec![1.0; 6],
            cpus: vec![0.5, 1.5, 1.0, 3.0, 1.0, 3.0],
            gauges: vec![g, g, 2.0 * g, 2.0 * g, 2.0 * g, 2.0 * g],
            units: vec![10, 30, 10, 30, 10, 30],
            fingerprints: vec![0; 6],
            cycle: 2,
        };
        assert!((rounds.gauged_throughput() - 20.0).abs() < 1e-9);
        // The median of the two inputs' 0.5 s and 1.5 s is the lower.
        assert!((rounds.gauged_op_us() - 0.5e6).abs() < 1e-6);
        assert!((rounds.cpu_throughput() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(harness::valid_name(name), "{name}");
            assert!(harness::valid_unit(unit), "{unit}");
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(WORKLOADS.iter().all(|w| harness::valid_name(w)));
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalogue() {
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn conformance_rejects_missing_extra_and_non_finite_metrics() {
        let mut m = Metrics::default();
        for (name, unit) in END_TO_END {
            m.add(name, 1.0, unit, "");
        }
        assert!(conforms(&m, &END_TO_END).is_ok());
        m.add("extra", 1.0, "s", "");
        assert!(conforms(&m, &END_TO_END).is_err());
        m.0.pop();
        m.0[0].value = f64::NAN;
        assert!(conforms(&m, &END_TO_END).is_err());
        m.0.remove(0);
        assert!(conforms(&m, &END_TO_END).is_err());
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
