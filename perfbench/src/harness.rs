//! Measurement primitives shared by every workload: spans and their self
//! time, batched timing of sub-microsecond calls, percentile choice,
//! metric records and their name rules, and process counters.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `transport.request_pages`.
    pub name: &'static str,
    /// Identifier shared by every span of one fault or one request.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the run's first tracer was created.
    pub start_ns: u64,
    /// End, ns since the run's first tracer was created.
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. Spans nest through an explicit stack, so a
/// span opened while another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        // Every tracer of a run shares one time base, so spans written out
        // together can be laid on one timeline.
        static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        Tracer {
            origin: *ORIGIN.get_or_init(Instant::now),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Sets the identifier stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    pub fn end(&mut self, idx: usize) {
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        if let Some(at) = self.open.iter().rposition(|&i| i == idx) {
            self.open.remove(at);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each child clipped to the parent's interval.
/// Children may overlap one another (spans from several threads), so
/// the union is taken rather than the sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotal {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn layer_totals(spans: &[Span]) -> std::collections::BTreeMap<&'static str, LayerTotal> {
    let selfs = self_times(spans);
    let mut out = std::collections::BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t: &mut LayerTotal = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own;
    }
    out
}

/// The percentiles a tail may be reported at, highest last.
const PERCENTILE_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// The highest ladder percentile with at least ten samples beyond it,
/// or `None` when even the median has fewer than ten.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Latency samples in fixed memory: 0.1 µs buckets up to 5 ms, exact
/// values beyond. A run's memory then does not grow with the number of
/// operations it completes, so `peak_rss_mb` does not follow throughput.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    beyond: Vec<f64>,
    samples: usize,
}

const BUCKETS_PER_US: f64 = 10.0;
const BUCKETS: usize = 50_000;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            beyond: Vec::new(),
            samples: 0,
        }
    }
}

impl Histogram {
    pub fn record(&mut self, us: f64) {
        match self.counts.get_mut((us * BUCKETS_PER_US) as usize) {
            Some(c) => *c += 1,
            None => self.beyond.push(us),
        }
        self.samples += 1;
    }

    pub fn len(&self) -> usize {
        self.samples
    }

    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.beyond.clear();
        self.samples = 0;
    }

    /// Nearest-rank percentile, a bucketed sample reading as its bucket's
    /// midpoint.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(self.samples > 0, "percentile of no samples");
        let rank = ((p / 100.0) * self.samples as f64)
            .ceil()
            .clamp(1.0, self.samples as f64) as usize;
        let mut seen = 0usize;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c as usize;
            if seen >= rank {
                return (b as f64 + 0.5) / BUCKETS_PER_US;
            }
        }
        let mut beyond = self.beyond.clone();
        beyond.sort_by(f64::total_cmp);
        beyond[rank - seen - 1]
    }
}

/// Metric names: a letter or digit first, then at most 63 more letters,
/// digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// What the number is on this workload, printed beside it.
    pub note: String,
}

/// An ordered metric list.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }
}

/// Nanoseconds per call of `f` over `inputs`, reading the clock once per
/// batch of calls rather than once per call. Passes repeat until at
/// least `min_time` has been spent (and at least three passes); the
/// result is the median over batches.
pub fn time_batched<T>(inputs: &[T], min_time: Duration, mut f: impl FnMut(&T)) -> f64 {
    time_batched_with(inputs, min_time, || (), |_, x| f(x))
}

/// [`time_batched`] for a stateful call: `init` builds fresh state at the
/// start of every pass, outside the timed batches, so a replayed stream
/// always starts from the state it started from in the run.
pub fn time_batched_with<S, T>(
    inputs: &[T],
    min_time: Duration,
    mut init: impl FnMut() -> S,
    mut f: impl FnMut(&mut S, &T),
) -> f64 {
    const BATCH: usize = 256;
    if inputs.is_empty() {
        return 0.0;
    }
    let mut per_call = Vec::new();
    let started = Instant::now();
    let mut passes = 0;
    while passes < 3 || started.elapsed() < min_time {
        let mut state = init();
        for batch in inputs.chunks(BATCH) {
            let t = Instant::now();
            for x in batch {
                f(&mut state, black_box(x));
            }
            per_call.push(t.elapsed().as_nanos() as f64 / batch.len() as f64);
        }
        passes += 1;
    }
    median(&per_call)
}

/// Cost of one `Instant::now()` read, ns: the overhead every span pays
/// twice.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 100_000;
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..READS {
            black_box(Instant::now());
        }
        best = best.min(t.elapsed().as_nanos() as f64 / f64::from(READS));
    }
    best
}

/// User plus system CPU seconds of this process, from
/// `getrusage(RUSAGE_SELF)`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> Option<f64> {
    // `struct rusage` on 64-bit Linux: two `timeval`s (seconds and
    // microseconds as i64) followed by fourteen `long` counters.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        counters: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `u` is a live, writable value laid out exactly as the
    // kernel's `struct rusage` on this target, and getrusage writes only
    // within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc != 0 {
        return None;
    }
    let secs = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    Some(secs(u.utime) + secs(u.stime))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> Option<f64> {
    None
}

/// A fixed reference kernel, independent of the program: sort a fixed
/// table of keys and count them into a hash map. Co-tenants of a shared
/// host slow cache-bound code, CPU time included, by as much as half for
/// minutes at a time, and this kernel slows with the program. Every time
/// the benchmark gates on is divided by a reading of it (see
/// [`gauged_s`]), which keeps the figures steady across those periods.
pub struct HostGauge {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    counts: std::collections::HashMap<u64, u64>,
}

impl HostGauge {
    const KEYS: usize = 1 << 16;
    const BUCKETS: u64 = 4096;
    /// Passes per reading.
    const PASSES: usize = 8;
    /// The reading one gauged second stands for: readings on the
    /// reference host (Intel Xeon, 2 vCPUs) ranged from 11 to 29 ms as
    /// its co-tenants came and went.
    pub const REFERENCE_S: f64 = 0.025;

    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let keys: Vec<u64> = (0..Self::KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        HostGauge {
            sorted: keys.clone(),
            keys,
            counts: std::collections::HashMap::with_capacity(2 * Self::BUCKETS as usize),
        }
    }

    /// Process CPU seconds of one reading.
    pub fn read(&mut self) -> Result<f64, String> {
        let cpu = || process_cpu_s().ok_or("process CPU time unavailable");
        let t0 = cpu()?;
        for _ in 0..Self::PASSES {
            self.sorted.copy_from_slice(&self.keys);
            self.sorted.sort_unstable();
            self.counts.clear();
            for (i, k) in self.sorted.iter().enumerate() {
                *self.counts.entry(k % Self::BUCKETS).or_insert(0) += i as u64;
            }
            black_box(self.counts.values().sum::<u64>());
        }
        Ok(cpu()? - t0)
    }
}

/// `seconds` measured while the gauge read `reading`, expressed in
/// seconds of a host whose reading is [`HostGauge::REFERENCE_S`].
pub fn gauged_s(seconds: f64, reading: f64) -> f64 {
    seconds * HostGauge::REFERENCE_S / reading
}

/// Peak resident set of this process, MB: the kernel's high-water mark
/// of this address space (`VmHWM`). `getrusage`'s `ru_maxrss` would not
/// do: Linux carries it over from the parent across `execve`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The host CPU's brand string, from CPUID.
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaf 0x80000000 reports the highest extended leaf, checked
        // before reading the brand-string leaves 0x80000002..=0x80000004.
        let max = __cpuid(0x8000_0000).eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let brand = String::from_utf8_lossy(&bytes);
            return brand.trim_matches(char::from(0)).trim().to_string();
        }
    }
    "unknown".into()
}

/// FNV-1a over bytes, for config and source hashes.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `values` into one fingerprint.
pub fn fold(values: impl IntoIterator<Item = u64>) -> u64 {
    values
        .into_iter()
        .fold(FNV_OFFSET, |h, v| fnv1a(&v.to_le_bytes(), h))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn histogram_percentiles_match_nearest_rank_to_a_bucket() {
        let mut h = Histogram::default();
        for i in 1..=100 {
            h.record(f64::from(i));
        }
        h.record(7_000.0);
        assert_eq!(h.len(), 101);
        assert!((h.percentile(50.0) - 51.05).abs() < 1e-9);
        assert!((h.percentile(99.0) - 100.05).abs() < 1e-9);
        assert_eq!(h.percentile(100.0), 7_000.0);
        h.clear();
        h.record(0.0);
        assert!((h.percentile(50.0) - 0.05).abs() < 1e-9);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40,
        // so they cover 10..60 = 50 ns, not 60.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 30]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_and_skips_nested_ones() {
        // A child running past its parent counts only inside it; a
        // grandchild is subtracted from its own parent, not the root.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 80, 150),
            span(Some(0), 0, 10),
            span(Some(2), 2, 5),
        ];
        assert_eq!(self_times(&spans), vec![70, 70, 7, 3]);
    }

    #[test]
    fn tracer_nests_spans_through_its_stack() {
        let mut t = Tracer::default();
        t.set_op(7);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.end(outer);
        let s = t.spans();
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s.iter().all(|x| x.op == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].duration_ns() >= s[1].duration_ns());
    }

    #[test]
    fn metric_names_and_units_follow_the_rules() {
        for good in ["setup_s", "frame.request.encode_ns", "p99-x", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "ünï",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for good in ["ms", "1/s", "%", "count", "MB", "sim_s"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "seventeen_chars_x"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn batched_timing_scales_with_work() {
        let inputs: Vec<u64> = (0..1024).collect();
        let spin = |n: u64| {
            let mut x = 0u64;
            for i in 0..n {
                x = black_box(x.wrapping_add(i));
            }
            x
        };
        let short = time_batched(&inputs, Duration::from_millis(5), |&i| {
            black_box(spin(10 + i % 2));
        });
        let long = time_batched(&inputs, Duration::from_millis(5), |&i| {
            black_box(spin(1000 + i % 2));
        });
        assert!(long > short * 5.0, "short {short} ns, long {long} ns");
    }
}
