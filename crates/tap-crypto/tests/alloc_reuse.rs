//! Pins the allocation behaviour of the reusable crypto hot paths with a
//! counting global allocator: once an [`OnionBuilder`] or [`LayerBuf`] has
//! warmed up on a transfer shape, repeating that shape must allocate
//! nothing — the per-transfer cost is cipher work, not the allocator.
//!
//! Lives in its own integration binary because `#[global_allocator]` is
//! process-wide. The count is per thread: the harness runs tests on
//! sibling threads, and each test must see only its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tap_crypto::cipher::SymmetricKey;
use tap_crypto::onion::{LayerBuf, OnionBuilder};

struct CountingAlloc;

thread_local! {
    // A `const`-initialised `Cell` needs no lazy set-up and no destructor,
    // so touching it from inside the allocator cannot itself allocate.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down; those
    // allocations belong to no test.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves or grows is an allocator round-trip too.
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` and return how many allocator calls it made on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn fixture(layers: usize) -> (Vec<(SymmetricKey, Vec<u8>)>, StdRng) {
    let mut rng = StdRng::seed_from_u64(0x5EA1);
    let ls = (0..layers)
        .map(|i| {
            (
                SymmetricKey::generate(&mut rng),
                format!("hop-header-{i}").into_bytes(),
            )
        })
        .collect();
    (ls, rng)
}

#[test]
fn reused_onion_builder_seals_without_allocating() {
    let (layers, mut rng) = fixture(6);
    let core = vec![0xA5u8; 3072];
    let mut b = OnionBuilder::new();
    // Warm-up transfer grows every buffer to its steady-state capacity.
    b.seal(&mut rng, &layers, &core);

    let count = allocations_in(|| {
        for _ in 0..8 {
            b.seal(&mut rng, &layers, &core);
        }
    });
    assert_eq!(
        count, 0,
        "a warmed OnionBuilder must reuse its margin and scratch, not realloc"
    );
}

#[test]
fn warmed_builder_absorbs_smaller_transfers_too() {
    let (layers, mut rng) = fixture(6);
    let mut b = OnionBuilder::new();
    b.seal(&mut rng, &layers, &vec![1u8; 4096]);

    // Anything that fits in the warmed capacity — fewer layers, shorter
    // cores — must also be allocation-free.
    let (short_layers, _) = fixture(3);
    let count = allocations_in(|| {
        b.seal(&mut rng, &short_layers, &[2u8; 512]);
        b.seal(&mut rng, &layers, &[3u8; 64]);
    });
    assert_eq!(count, 0, "smaller transfers fit the warmed capacity");
}

#[test]
fn reused_layer_buf_peels_without_allocating() {
    let (layers, mut rng) = fixture(5);
    let keys: Vec<_> = layers.iter().map(|(k, _)| *k).collect();
    let mut b = OnionBuilder::new();
    b.seal(&mut rng, &layers, &[0x42u8; 2048]);
    let onion = b.as_bytes().to_vec();

    let mut buf = LayerBuf::new();
    buf.load(&onion);
    for k in &keys {
        buf.peel(k).expect("transit peel");
    }

    let count = allocations_in(|| {
        buf.load(&onion);
        for k in &keys {
            buf.peel(k).expect("transit peel");
        }
    });
    assert_eq!(count, 0, "a warmed LayerBuf must peel in place");
}
