//! Steady-state encoder forwards perform **zero heap allocations**.
//!
//! The workspace pool (`observatory_linalg::workspace`) exists so that
//! the encode hot path stops paying allocator overhead: every scratch buffer — attention score blocks, repacked
//! GEMM panels, softmax rows, per-layer intermediates — is taken from a
//! per-thread free-list and returned after use. After a short warmup
//! (first encode sizes the pool, second proves the sizes recur) an
//! encode must hit the pool for every request.
//!
//! This is asserted with a counting `#[global_allocator]`: the test
//! wraps `System` and counts `alloc` / `alloc_zeroed` / `realloc`
//! calls, then requires the count delta across a steady-state encode to
//! be exactly zero. The test lives in its own integration-test binary
//! because a global allocator is a per-binary property. The encoders
//! run in the default configuration: the kernels are always serial, so
//! there is no job count to pin.

use observatory::linalg::workspace;
use observatory::transformer::{Encoder, TokenInput, TransformerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// The allocation counter is process-global, so the tests in this binary
// must not overlap: a
// concurrent test's allocations would land inside another's
// before/after window.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn steady_state_encode_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap();
    let seq = 64usize;
    let encoder = Encoder::new(TransformerConfig {
        dim: 32,
        n_heads: 4,
        n_layers: 2,
        ffn_dim: 64,
        max_len: seq,
        vocab_size: 128,
        seed_label: "zero-alloc".into(),
        ..Default::default()
    });
    let tokens: Vec<TokenInput> = (0..seq).map(|i| TokenInput::plain((i % 128) as u32)).collect();

    // Warmup: the first encode sizes every pooled buffer, the next ones
    // prove the sizes recur. The produced embedding matrix is recycled
    // back into the pool between iterations — exactly what the runtime
    // engine does with per-request intermediates.
    for _ in 0..3 {
        let out = encoder.encode(&tokens);
        workspace::recycle_matrix(out);
    }

    let stats_before = workspace::stats();
    let before = alloc_count();
    let out = encoder.encode(&tokens);
    let after = alloc_count();
    let stats_after = workspace::stats();
    workspace::recycle_matrix(out);

    assert_eq!(
        after - before,
        0,
        "steady-state encode must perform zero heap allocations \
         (pool hits {} -> {}, misses {} -> {})",
        stats_before.hits,
        stats_after.hits,
        stats_before.misses,
        stats_after.misses,
    );
    // And the encode really did go through the pool, not around it.
    assert!(
        stats_after.hits > stats_before.hits,
        "encode must draw its scratch from the workspace pool"
    );
    assert_eq!(stats_after.misses, stats_before.misses, "steady state must not miss the pool");
}

/// Changing the sequence length after warmup is allowed to grow the pool
/// once — and must then be allocation-free again at the new shape.
#[test]
fn shape_change_stabilizes_after_one_encode() {
    let _serial = SERIAL.lock().unwrap();
    let encoder = Encoder::new(TransformerConfig {
        dim: 32,
        n_heads: 4,
        n_layers: 2,
        ffn_dim: 64,
        max_len: 96,
        vocab_size: 128,
        seed_label: "zero-alloc-shapes".into(),
        ..Default::default()
    });
    let short: Vec<TokenInput> = (0..24).map(|i| TokenInput::plain(i % 128)).collect();
    let long: Vec<TokenInput> = (0..96).map(|i| TokenInput::plain(i % 128)).collect();
    for _ in 0..3 {
        let out = encoder.encode(&short);
        workspace::recycle_matrix(out);
    }
    // First long encode may allocate (buffers grow once)...
    let out = encoder.encode(&long);
    workspace::recycle_matrix(out);
    let out = encoder.encode(&long);
    workspace::recycle_matrix(out);
    // ...then the new shape is steady state too.
    let before = alloc_count();
    let out = encoder.encode(&long);
    let after = alloc_count();
    workspace::recycle_matrix(out);
    assert_eq!(after - before, 0, "re-grown pool must serve the new shape without allocating");
}
