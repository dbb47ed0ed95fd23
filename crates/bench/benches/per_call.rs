//! Per-call kernel microbenches: the fixed costs every tunnel hop pays
//! before it touches a payload — SHA-256 compressions behind HMAC and key
//! derivation, and the ring-distance comparisons behind each Pastry
//! routing step.
//!
//! Sub-microsecond kernels run a batch of calls per timed sample and
//! declare it as `Throughput::Elements`, so the report's `ns/elem` column
//! is the cost of one call without the timer's own overhead in it.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use tap_crypto::hmac::{derive_key, hmac_sha256};
use tap_crypto::sha256::sha256;
use tap_id::Id;
use tap_pastry::{LeafSet, Overlay, PastryConfig};

/// Calls per timed sample for the sub-microsecond kernels.
const BATCH: usize = 1024;

fn bench_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_call_crypto");
    group.sample_size(30);

    let msg = [0xA5u8; 64];
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("sha256_64B", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                black_box(sha256(black_box(&msg)));
            }
        })
    });
    let key = [0x42u8; 32];
    group.bench_function("hmac_sha256_64B", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                black_box(hmac_sha256(black_box(&key), black_box(&msg)));
            }
        })
    });
    group.bench_function("derive_key", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                black_box(derive_key(black_box(&key), "tap.enc", 0));
            }
        })
    });

    let bulk = vec![0x5Au8; 64 * 1024];
    group.throughput(Throughput::Bytes(bulk.len() as u64));
    group.bench_function("sha256_64KiB", |b| b.iter(|| sha256(black_box(&bulk))));
    group.finish();
}

fn bench_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_call_ring");
    group.sample_size(30);
    let mut rng = StdRng::seed_from_u64(0x1D);

    let triples: Vec<[Id; 3]> = (0..BATCH)
        .map(|_| std::array::from_fn(|_| Id::random(&mut rng)))
        .collect();
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("id_cmp_distance", |b| {
        b.iter(|| {
            for [k, x, y] in &triples {
                black_box(black_box(k).cmp_distance(*x, *y));
            }
        })
    });

    // A full paper-default leaf set (|L| = 16) and keys inside its span,
    // as on a route's final step.
    let owner = Id::random(&mut rng);
    let mut leafset = LeafSet::new(owner, 8);
    let step = Id::from_u128(1u128 << 120);
    let mut at = owner;
    for _ in 0..8 {
        at = at.wrapping_add(step);
        leafset.insert(at);
        leafset.insert(owner.wrapping_sub(at.wrapping_sub(owner)));
    }
    let keys: Vec<Id> = leafset.members().collect();
    let keys: Vec<Id> = (0..BATCH)
        .map(|i| keys[i % keys.len()].wrapping_add(Id::from_u64(i as u64)))
        .collect();
    group.bench_function("leafset_closest_to_16", |b| {
        b.iter(|| {
            for key in &keys {
                black_box(leafset.closest_to(*key));
            }
        })
    });
    group.finish();

    let mut group = c.benchmark_group("per_call_route");
    group.sample_size(20);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..10_000 {
        overlay.add_random_node(&mut rng);
    }
    let routes: Vec<(Id, Id)> = (0..256)
        .map(|_| {
            (
                overlay.random_node(&mut rng).expect("non-empty overlay"),
                Id::random(&mut rng),
            )
        })
        .collect();
    group.throughput(Throughput::Elements(routes.len() as u64));
    group.bench_function("overlay_route_10k", |b| {
        b.iter(|| {
            for (src, key) in &routes {
                black_box(overlay.route(*src, *key).expect("static overlay routes"));
            }
        })
    });
    group.finish();
}

criterion_group!(per_call, bench_hashing, bench_ring);
criterion_main!(per_call);
