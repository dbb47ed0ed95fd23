//! Microbenches for every substrate the reproduction is built on: the
//! crypto primitives (hash, cipher, DH, onion layers), the identifier
//! arithmetic, overlay routing and maintenance, replication, and the
//! discrete-event network kernel.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tap_crypto::{chacha20, onion, sha1, sha256, x25519, SymmetricKey};
use tap_id::Id;
use tap_netsim::latency::UniformLatency;
use tap_netsim::{Event, Network, NetworkConfig};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{Overlay, PastryConfig};

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let data_1k = vec![0xA5u8; 1024];
    let data_64k = vec![0x5Au8; 65_536];

    group.throughput(Throughput::Bytes(1024));
    group.bench_function("sha1_1k", |b| b.iter(|| sha1::sha1(&data_1k)));
    group.bench_function("sha256_1k", |b| b.iter(|| sha256::sha256(&data_1k)));

    group.throughput(Throughput::Bytes(65_536));
    group.bench_function("chacha20_64k", |b| {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        b.iter_batched(
            || data_64k.clone(),
            |mut d| chacha20::apply_keystream(&key, &nonce, 1, &mut d),
            BatchSize::SmallInput,
        )
    });

    group.throughput(Throughput::Elements(1));
    group.bench_function("x25519_scalarmult", |b| {
        let scalar = [0x42u8; 32];
        b.iter(|| x25519::public_key(&scalar))
    });

    let mut rng = StdRng::seed_from_u64(1);
    let keys: Vec<SymmetricKey> = (0..5).map(|_| SymmetricKey::generate(&mut rng)).collect();
    let layers: Vec<_> = keys.iter().map(|k| (*k, vec![1u8; 21])).collect();
    group.bench_function("onion_wrap_5_layers", |b| {
        b.iter(|| onion::wrap(&mut rng, &layers, &data_1k))
    });
    let wrapped = onion::wrap(&mut rng, &layers, &data_1k);
    group.bench_function("onion_peel_1_layer", |b| {
        b.iter(|| onion::peel(&keys[0], &wrapped).unwrap())
    });
    group.finish();
}

fn bench_id(c: &mut Criterion) {
    let mut group = c.benchmark_group("id");
    let mut rng = StdRng::seed_from_u64(2);
    let a = Id::random(&mut rng);
    let b2 = Id::random(&mut rng);
    group.bench_function("ring_distance", |b| b.iter(|| a.ring_distance(b2)));
    group.bench_function("shared_prefix_digits", |b| {
        b.iter(|| a.shared_prefix_digits(b2, 4))
    });
    group.finish();
}

fn bench_chord_vs_pastry(c: &mut Criterion) {
    // The two substrates behind the same trait: hop counts and routing
    // cost side by side (prints a comparison once, times both kernels).
    use tap_chord::{ChordConfig, ChordOverlay};
    let mut group = c.benchmark_group("substrates");
    group.sample_size(20);

    let mut rng = StdRng::seed_from_u64(8);
    let mut pastry = Overlay::new(PastryConfig::paper_defaults());
    let mut chord = ChordOverlay::new(ChordConfig::defaults());
    for _ in 0..1_000 {
        pastry.add_random_node(&mut rng);
        chord.add_random_node(&mut rng);
    }
    let (mut p_hops, mut c_hops) = (0usize, 0usize);
    for _ in 0..200 {
        let key = Id::random(&mut rng);
        let ps = pastry.random_node(&mut rng).unwrap();
        let cs = chord.random_node(&mut rng).unwrap();
        p_hops += pastry.route(ps, key).unwrap().hops();
        c_hops += chord.route(cs, key).unwrap().len() - 1;
    }
    println!(
        "\n=== substrate comparison at N=1000 ===\n\
         pastry (b=4): {:.2} mean hops | chord: {:.2} mean hops\n\
         (theory: log16 N ≈ 2.5 vs ½·log2 N ≈ 5)\n",
        p_hops as f64 / 200.0,
        c_hops as f64 / 200.0
    );

    group.bench_function("pastry_route_1000", |b| {
        b.iter(|| {
            let src = pastry.random_node(&mut rng).unwrap();
            pastry.route(src, Id::random(&mut rng)).unwrap().hops()
        })
    });
    group.bench_function("chord_route_1000", |b| {
        b.iter(|| {
            let src = chord.random_node(&mut rng).unwrap();
            chord.route(src, Id::random(&mut rng)).unwrap().len()
        })
    });
    group.finish();
}

fn bench_overlay(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlay");
    group.sample_size(20);

    let mut rng = StdRng::seed_from_u64(3);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..2_000 {
        overlay.add_random_node(&mut rng);
    }

    group.bench_function("route_2000_nodes", |b| {
        b.iter(|| {
            let src = overlay.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            overlay.route(src, key).unwrap().hops()
        })
    });
    group.bench_function("owner_of_oracle", |b| {
        b.iter(|| overlay.owner_of(Id::random(&mut rng)))
    });
    group.bench_function("k_closest_5", |b| {
        b.iter(|| overlay.k_closest(Id::random(&mut rng), 5))
    });
    group.bench_function("join_2000_node_overlay", |b| {
        b.iter_batched(
            || overlay.clone(),
            |mut ov| {
                let mut r = StdRng::seed_from_u64(4);
                ov.add_random_node(&mut r)
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

fn bench_snapshots(c: &mut Criterion) {
    // The copy-on-write machinery behind sweep points: a clone is O(N)
    // Arc bumps, a deep clone copies every routing row and leaf set, and
    // a checkpoint/rollback cycle pays only for the handles the batch
    // removal in between actually unshared.
    let mut group = c.benchmark_group("snapshot");
    group.sample_size(20);

    let mut rng = StdRng::seed_from_u64(9);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..2_000 {
        overlay.add_random_node(&mut rng);
    }
    let victims: Vec<Id> = {
        let mut v: Vec<Id> = (0..50)
            .map(|_| overlay.random_node(&mut rng).unwrap())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };

    group.bench_function("cow_clone_2000", |b| b.iter(|| overlay.clone()));
    group.bench_function("deep_clone_2000", |b| b.iter(|| overlay.deep_clone()));
    group.bench_function("checkpoint_2000", |b| b.iter(|| overlay.checkpoint()));
    group.bench_function("kill50_rollback_2000", |b| {
        b.iter_batched(
            || overlay.clone(),
            |mut ov| {
                let cp = ov.checkpoint();
                ov.remove_nodes(&victims);
                ov.rollback(&cp);
                ov.len()
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

fn bench_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(5);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..1_000 {
        overlay.add_random_node(&mut rng);
    }
    group.bench_function("replica_insert", |b| {
        let mut store: ReplicaStore<u32> = ReplicaStore::new(3);
        b.iter(|| store.insert(&overlay, Id::random(&mut rng), 0))
    });
    group.finish();
}

fn bench_netsim(c: &mut Criterion) {
    let mut group = c.benchmark_group("netsim");
    group.bench_function("send_and_deliver_1000_msgs", |b| {
        b.iter_batched(
            || {
                let mut net: Network<u32, UniformLatency> =
                    Network::new(NetworkConfig::latency_only(), UniformLatency::paper(6));
                let eps: Vec<_> = (0..50).map(|_| net.add_endpoint()).collect();
                (net, eps)
            },
            |(mut net, eps)| {
                for i in 0..1_000u32 {
                    let a = eps[(i as usize) % eps.len()];
                    let b2 = eps[(i as usize * 7 + 1) % eps.len()];
                    if a != b2 {
                        net.send(a, b2, 100, i);
                    }
                }
                let mut delivered = 0;
                while let Some(Event::Message(_)) = net.next_event() {
                    delivered += 1;
                }
                delivered
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

fn bench_rng_setup(c: &mut Criterion) {
    // Key generation cost matters for THA deployment rates.
    let mut group = c.benchmark_group("keygen");
    let mut rng = StdRng::seed_from_u64(7);
    group.bench_function("symmetric_key", |b| {
        b.iter(|| SymmetricKey::generate(&mut rng))
    });
    group.bench_function("tha_anchor", |b| {
        let node = Id::random(&mut rng);
        let mut f = tap_core::tha::ThaFactory::new(&mut rng, node);
        b.iter(|| f.next(&mut rng).hopid)
    });
    let _ = rng.gen::<u8>();
    group.finish();
}

criterion_group!(
    benches,
    bench_crypto,
    bench_id,
    bench_chord_vs_pastry,
    bench_overlay,
    bench_snapshots,
    bench_storage,
    bench_netsim,
    bench_rng_setup
);
criterion_main!(benches);
