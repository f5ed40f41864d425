//! CI-enforced form of the "steady-state rounds allocate nothing" claim:
//! this test binary installs the tracking allocator
//! ([`fg_core::FgAlloc`]), warms a sort kernel once (scratch growth is
//! by-design allocation), and then asserts that every further sort round
//! performs **zero** heap allocations; and it runs dsort at two input
//! sizes to show that its pass-1 `permute` stage allocates per program,
//! not per block.  Integration tests are separate binaries, so installing
//! the global allocator here affects nothing else in the workspace.

use fg_sort::config::SortConfig;
use fg_sort::dsort::run_dsort;
use fg_sort::input::provision;
use fg_sort::kernels::SortScratch;
use fg_sort::record::RecordFormat;
use fg_sort::verify::{verify_output, Strictness};

#[global_allocator]
static FG_ALLOC: fg_core::FgAlloc = fg_core::FgAlloc;

/// Refill `bytes` with deterministic pseudo-random keys, in place — the
/// refill itself must not allocate or it would pollute the measurement.
fn refill(fmt: RecordFormat, bytes: &mut [u8], seed: u64) {
    let mut x = seed | 1;
    let rb = fmt.record_bytes;
    for i in 0..bytes.len() / rb {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        fmt.set_key(&mut bytes[i * rb..(i + 1) * rb], x);
    }
}

fn assert_steady_state(fmt: RecordFormat) {
    let records = 4096;
    let mut data = vec![0u8; records * fmt.record_bytes];
    let mut scratch = SortScratch::new();

    // Warmup round: the scratch grows to the working size here, and only
    // here.  Tagged so a resource report attributes it as setup.
    let warmup = fg_core::register_tag("sort/warmup");
    refill(fmt, &mut data, 0xFEED);
    fg_core::with_tag(warmup, || {
        fmt.sort_bytes_with(&mut data, &mut scratch);
    });

    // Steady state: same buffer size, fresh keys each round; the kernel
    // must reuse its scratch and never touch the heap.
    for round in 0..3u64 {
        refill(fmt, &mut data, 0xBEEF ^ round);
        fg_core::assert_steady_state_alloc_free("kernel-sort", || {
            fmt.sort_bytes_with(&mut data, &mut scratch);
        });
    }

    // Sanity: the sort actually sorted.
    let keys: Vec<u64> = fmt.records(&data).map(|r| fmt.key(r)).collect();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "output not sorted");
}

#[test]
fn warmed_kernel_sort_is_alloc_free_in_steady_state() {
    // The assertion only bites when the wrapper really is the global
    // allocator; building `data` above guarantees at least one recorded
    // allocation, so this must hold here.
    let _ = vec![0u8; 16];
    assert!(
        fg_core::alloc::installed(),
        "FgAlloc should be installed in this test binary"
    );
    assert_steady_state(RecordFormat::REC16);
    assert_steady_state(RecordFormat::REC64);
}

/// Allocations charged to dsort's `permute` stage threads (every node's)
/// over one 4-node sort of `blocks` input blocks per node.
fn permute_allocs(blocks: usize) -> u64 {
    let probe = SortConfig::test_default(4, 1);
    let cfg = SortConfig::test_default(4, blocks * probe.records_per_block());
    let disks = provision(&cfg);
    let tag = fg_core::register_tag("permute");
    let before = fg_core::alloc::counts(tag).allocs;
    run_dsort(&cfg, &disks).expect("dsort run");
    let allocs = fg_core::alloc::counts(tag).allocs - before;
    verify_output(&cfg, &disks, Strictness::Exact).expect("dsort output");
    allocs
}

#[test]
fn dsort_permute_allocations_do_not_grow_with_blocks() {
    let _ = vec![0u8; 16];
    assert!(fg_core::alloc::installed());
    // Scratch sized up front: the stage's allocations are its per-thread
    // set-up, the same at 8 and 128 blocks per node.  Allocating per block
    // would add 4 nodes x 120 blocks x several vectors.
    let small = permute_allocs(8);
    let large = permute_allocs(128);
    assert!(small > 0, "the permute tag saw no allocations at all");
    assert!(
        large <= small + 16,
        "permute allocations grew with the block count: {small} at 8 blocks \
         per node, {large} at 128"
    );
}
