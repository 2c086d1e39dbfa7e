//! Cost of the mitigation hot path: the per-frame admit/deny decision a
//! throttle-engaged first-mile router pays on every outbound SYN. Two
//! layers are priced separately — the bare [`TokenBucket`] (one clamped
//! refill plus a compare per call) and the full
//! [`MitigationEngine::process`] judgment (spoof classification, key
//! lookup, bucket admit, accounting). The disarmed pass-through is the
//! baseline every non-alarmed period pays, and must stay near zero.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use syndog::SynDogConfig;
use syndog_net::{Ipv4Net, MacAddr, SegmentKind};
use syndog_router::{MitigationEngine, MitigationPolicy, TokenBucket};
use syndog_sim::SimTime;
use syndog_traffic::trace::{Direction, TraceRecord};

const OPS: u64 = 1024;

fn stub() -> Ipv4Net {
    "128.1.0.0/16".parse().unwrap()
}

fn syn(src: &str, mac: MacAddr) -> TraceRecord {
    TraceRecord::new(
        SimTime::from_secs(60),
        Direction::Outbound,
        SegmentKind::Syn,
        src.parse().unwrap(),
        "199.0.0.80:80".parse().unwrap(),
    )
    .with_mac(mac)
}

/// An engine pushed over the engagement gate (see
/// [`syndog_bench::quickbench::engaged_engine`]), with the attacker's MAC
/// already crowned so the sticky per-MAC key is installed.
fn engaged_engine(attacker: MacAddr) -> MitigationEngine {
    let mut engine = syndog_bench::quickbench::engaged_engine(stub());
    engine.process(&syn("10.9.9.9:6000", attacker));
    engine
}

fn bench_token_bucket(c: &mut Criterion) {
    let mut group = c.benchmark_group("throttle_bucket");
    group.throughput(Throughput::Elements(OPS));
    // Admit path: capacity covers the whole burst, every call succeeds.
    group.bench_function("admit", |b| {
        let now = SimTime::from_secs(60);
        let mut bucket = TokenBucket::new(OPS as f64 + 1.0, OPS as f64, now);
        b.iter(|| {
            for _ in 0..OPS {
                black_box(bucket.admit(black_box(now)));
            }
        })
    });
    // Deny path: the flood regime — tokens long exhausted, simulated time
    // frozen inside one period, every call refills nothing and refuses.
    group.bench_function("deny", |b| {
        let now = SimTime::from_secs(60);
        let mut bucket = TokenBucket::new(1.0, 0.001, now);
        bucket.admit(now);
        b.iter(|| {
            for _ in 0..OPS {
                black_box(bucket.admit(black_box(now)));
            }
        })
    });
    group.finish();
}

fn bench_engine_process(c: &mut Criterion) {
    let attacker = MacAddr::for_host(9, 9);
    let legit = MacAddr::for_host(1, 7);
    let mut group = c.benchmark_group("throttle_process");
    group.throughput(Throughput::Elements(OPS));
    // The flood hot path: spoofed SYNs from the crowned MAC, bucket dry —
    // classification + key hit + deny + accounting per frame.
    group.bench_function("engaged_spoofed_syn", |b| {
        let mut engine = engaged_engine(attacker);
        let record = syn("10.9.9.9:6000", attacker);
        b.iter(|| {
            for _ in 0..OPS {
                black_box(engine.process(black_box(&record)));
            }
        })
    });
    // Legitimate in-stub traffic while engaged: must classify and forward
    // without touching any bucket.
    group.bench_function("engaged_legit_syn", |b| {
        let mut engine = engaged_engine(attacker);
        let record = syn("128.1.2.3:4000", legit);
        b.iter(|| {
            for _ in 0..OPS {
                black_box(engine.process(black_box(&record)));
            }
        })
    });
    // The every-day baseline: armed but never alarmed, pure pass-through.
    group.bench_function("disengaged_syn", |b| {
        let mut engine = MitigationEngine::new(
            stub(),
            &SynDogConfig::paper_default(),
            MitigationPolicy::paper_default(),
        );
        let record = syn("128.1.2.3:4000", legit);
        b.iter(|| {
            for _ in 0..OPS {
                black_box(engine.process(black_box(&record)));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_token_bucket, bench_engine_process);
criterion_main!(benches);
