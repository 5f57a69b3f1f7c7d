//! Microbenchmarks of the AMPoM analysis path.
//!
//! Figure 11's claim is that the dependent-zone analysis costs well under
//! 0.6% of execution time. Our simulator charges a fixed
//! `AMPOM_ANALYSIS_COST` (2 µs) per fault; these benches measure what the
//! *actual Rust implementation* costs per invocation so the constant can
//! be sanity-checked (it comes out in the hundreds of nanoseconds on a
//! modern core, i.e. the 2 µs P4-era charge is conservative).
//!
//! The `gossip` group times the cluster's `WindowView` in batches of
//! [`GOSSIP_BATCH`] calls per clock read: one call is tens of
//! nanoseconds, the same order as reading the clock.
//!
//! The `wire` group times the deputy's data path, also batched: the
//! page-payload kernel on one page, and encoding and decoding a 16-page
//! `PageBatchReply` (the `deputy-loopback` request size).

use ampom_bench::{black_box, Harness};
use ampom_cluster::gossip::{LoadEntry, WindowView};
use ampom_core::census::census;
use ampom_core::prefetcher::{AmpomConfig, AmpomPrefetcher, NetEstimates};
use ampom_core::score::spatial_score;
use ampom_core::window::LookbackWindow;
use ampom_core::zone::{dependent_zone_size, select_zone, ZoneSizeInputs};
use ampom_mem::page::{PageId, PAGE_SIZE};
use ampom_rpc::frame::{
    encode_page_batch_reply_into, page_payload_into, Frame, LENGTH_PREFIX_BYTES,
};
use ampom_sim::rng::SimRng;
use ampom_sim::time::{SimDuration, SimTime};

/// `WindowView` calls per clock read in the `gossip` group.
const GOSSIP_BATCH: u32 = 256;
/// Entries in a full cluster-life gossip window.
const GOSSIP_WINDOW: usize = 64;
/// Calls per clock read in the `wire` group.
const WIRE_BATCH: u32 = 64;
/// Pages per reply in the `wire` group.
const WIRE_REPLY_PAGES: u64 = 16;

fn bench_window_record(h: &mut Harness) {
    let mut g = h.group("window");
    let mut w = LookbackWindow::new(20);
    let mut i = 0u64;
    g.bench("record", || {
        i += 1;
        w.record(PageId(black_box(i)), SimTime::from_nanos(i * 1000), 1.0)
    });
    g.finish();
}

fn bench_census(h: &mut Harness) {
    // Three representative window contents.
    let sequential: Vec<u64> = (100..120).collect();
    let interleaved: Vec<u64> = (0..20)
        .map(|i| {
            if i % 2 == 0 {
                1000 + i / 2
            } else {
                5000 + i / 2
            }
        })
        .collect();
    let random: Vec<u64> = (0..20).map(|i| (i * 104_729 + 13) % 1_000_000).collect();

    let mut g = h.group("census");
    g.bench("sequential", || census(black_box(&sequential), 4));
    g.bench("interleaved", || census(black_box(&interleaved), 4));
    g.bench("random", || census(black_box(&random), 4));
    g.finish();
}

fn bench_score_and_zone(h: &mut Harness) {
    let pages: Vec<u64> = (100..120).collect();
    let cen = census(&pages, 4);
    let mut g = h.group("score");
    g.bench("eq1", || spatial_score(black_box(&cen)));
    g.finish();

    let inputs = ZoneSizeInputs {
        spatial_score: 0.33,
        paging_rate: 40_000.0,
        mean_cpu: 0.8,
        next_cpu: 0.9,
        t0: SimDuration::from_micros(120),
        td: SimDuration::from_micros(392),
    };
    let mut g = h.group("zone");
    g.bench("eq3", || dependent_zone_size(black_box(&inputs)));
    g.bench("select_128", || {
        select_zone(
            black_box(&cen.outstanding),
            128,
            PageId(119),
            PageId(1_000_000),
        )
    });
    g.finish();
}

fn bench_full_analysis(h: &mut Harness) {
    // The complete per-fault path of Algorithm 1's analysis lines — the
    // quantity AMPOM_ANALYSIS_COST models.
    let mut g = h.group("prefetcher");
    let mut pf = AmpomPrefetcher::new(AmpomConfig::default());
    let net = NetEstimates {
        t0: SimDuration::from_micros(120),
        td: SimDuration::from_micros(392),
    };
    let mut i = 0u64;
    g.bench("on_fault", || {
        i += 1;
        pf.on_fault(
            PageId(black_box(i)),
            SimTime::from_nanos(i * 20_000),
            0.9,
            net,
            PageId(10_000_000),
            |_| true,
        )
    });
    g.finish();
}

/// A full 64-entry window whose every merge takes the eviction path, and
/// the payload of such a window.
fn bench_gossip(h: &mut Harness) {
    // Merges cycle through twice as many node ids as the window holds at
    // ever fresher timestamps, so each incoming node is absent and
    // evicts the stalest held entry.
    let max_age = SimDuration::from_secs(8);
    let mut full = WindowView::new(0, GOSSIP_WINDOW);
    let mut tick = 0u64;
    let mut merge = move || {
        tick += 1;
        let now = SimTime::from_nanos(tick * 1000);
        let node = 1 + (tick % (2 * GOSSIP_WINDOW as u64)) as usize;
        let entry = LoadEntry {
            load: (tick % 5) as f64,
            measured_at: now,
        };
        full.merge(black_box(node), entry, now, max_age)
    };
    for _ in 0..GOSSIP_WINDOW {
        merge();
    }

    let mut source = WindowView::new(0, GOSSIP_WINDOW);
    for node in 1..=GOSSIP_WINDOW {
        let at = SimTime::from_nanos(node as u64);
        let entry = LoadEntry {
            load: node as f64,
            measured_at: at,
        };
        source.merge(node, entry, at, max_age);
    }
    let mut rng = SimRng::seed_from_u64(42);

    let mut g = h.group("gossip");
    g.bench_batched("merge_evict_64", GOSSIP_BATCH, merge);
    g.bench_batched("payload_64", GOSSIP_BATCH, || source.payload(&mut rng));
    g.finish();
}

fn bench_wire(h: &mut Harness) {
    let mut page = [0u8; PAGE_SIZE as usize];
    let mut id = 0u64;
    let batch: Vec<(u64, PageId)> = (0..WIRE_REPLY_PAGES).map(|p| (1, PageId(p))).collect();
    let mut out = Vec::new();
    let mut encoded = Vec::new();
    encode_page_batch_reply_into(&batch, &mut encoded);

    let mut g = h.group("wire");
    g.bench_batched("page_payload_into_1", WIRE_BATCH, || {
        id += 1;
        page_payload_into(PageId(black_box(id)), &mut page);
        page[PAGE_SIZE as usize - 1]
    });
    g.bench_batched("encode_page_batch_reply_16", WIRE_BATCH, || {
        out.clear();
        encode_page_batch_reply_into(black_box(&batch), &mut out);
        out.len()
    });
    g.bench_batched("decode_page_batch_reply_16", WIRE_BATCH, || {
        Frame::decode(black_box(&encoded[LENGTH_PREFIX_BYTES..])).expect("a well-formed reply")
    });
    g.finish();
}

fn main() {
    let mut h = Harness::from_args();
    bench_window_record(&mut h);
    bench_census(&mut h);
    bench_score_and_zone(&mut h);
    bench_full_analysis(&mut h);
    bench_gossip(&mut h);
    bench_wire(&mut h);
    h.finish();
}
