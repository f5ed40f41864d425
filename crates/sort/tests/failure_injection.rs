//! Failure injection: a disk that dies mid-run must surface as a clean
//! error from the whole stack — FG program torn down, cluster poisoned,
//! the run function returning `Err` instead of hanging or panicking.

use fg_sort::config::SortConfig;
use fg_sort::csort::run_csort;
use fg_sort::dsort::run_dsort;
use fg_sort::dsort_linear::run_dsort_linear;
use fg_sort::input::provision;
use fg_sort::SortError;

#[test]
fn dsort_surfaces_disk_failure() {
    let cfg = SortConfig::test_default(4, 2048);
    let disks = provision(&cfg);
    // Node 2's disk dies after a handful of operations (mid pass 1).
    disks[2].fail_after_ops(10);
    let err = run_dsort(&cfg, &disks).expect_err("must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("disk failed"),
        "error should carry the root cause: {msg}"
    );
}

#[test]
fn csort_surfaces_disk_failure() {
    let cfg = SortConfig::test_default(4, 4096);
    let disks = provision(&cfg);
    disks[0].fail_after_ops(3);
    let err = run_csort(&cfg, &disks).expect_err("must fail");
    assert!(err.to_string().contains("disk failed"), "{err}");
}

#[test]
fn dsort_linear_surfaces_disk_failure() {
    let cfg = SortConfig::test_default(3, 1536);
    let disks = provision(&cfg);
    disks[1].fail_after_ops(5);
    let err = run_dsort_linear(&cfg, &disks).expect_err("must fail");
    assert!(err.to_string().contains("disk failed"), "{err}");
}

#[test]
fn failure_late_in_run_still_clean() {
    // Die during pass 2 (after the input has been fully distributed).
    let cfg = SortConfig::test_default(2, 2048);
    let disks = provision(&cfg);
    // Pass 1 on 2 nodes with these sizes takes well under 200 ops; allow
    // enough to get into pass 2's reads.
    disks[0].fail_after_ops(60);
    let result = run_dsort(&cfg, &disks);
    match result {
        Err(SortError::Comm(m)) => assert!(m.contains("disk failed"), "{m}"),
        Err(other) => {
            assert!(other.to_string().contains("disk failed"), "{other}")
        }
        Ok(_) => panic!("run must not succeed with a dead disk"),
    }
}

#[test]
fn healthy_run_unaffected_by_injection_api() {
    let cfg = SortConfig::test_default(2, 1024);
    let disks = provision(&cfg);
    disks[0].fail_after_ops(u64::MAX); // explicit "healthy"
    run_dsort(&cfg, &disks).expect("healthy run succeeds");
}

/// A disk failure at any operation of dsort — sampling, pass 1 or pass 2 —
/// must end the run with `Err` promptly.  The shape is the benchmark's
/// dsort geometry at 4 x 8192 records (16 KiB blocks, 64 KiB runs, 8 KiB
/// vertical buffers), where a failure inside pass 1 used to leave the
/// receive stages of other nodes waiting in the fabric for a sender that
/// had been torn down.  Each run gets its own deadline, so a hang fails
/// the test in seconds instead of holding the suite.
#[test]
fn dsort_fails_promptly_at_every_disk_op() {
    use std::sync::mpsc;
    use std::time::Duration;

    let mut cfg = SortConfig::test_default(4, 8192);
    cfg.block_bytes = 16 << 10;
    cfg.run_bytes = 64 << 10;
    cfg.vertical_buf_bytes = 8 << 10;
    let run = |fail_at: Option<u64>| {
        let cfg = cfg.clone();
        let (tx, rx) = mpsc::channel();
        let sort = std::thread::spawn(move || {
            let disks = provision(&cfg);
            if let Some(n) = fail_at {
                disks[0].fail_after_ops(n);
            }
            let res = run_dsort(&cfg, &disks);
            let stats = disks[0].stats();
            let _ = tx.send((res.map(|_| ()), stats.read_ops + stats.write_ops));
        });
        // A hung sort cannot be joined; its thread dies with the process.
        let outcome = rx
            .recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("dsort with node 0 failing at op {fail_at:?} hung"));
        sort.join().expect("sort thread");
        outcome
    };
    let (healthy, ops) = run(None);
    healthy.expect("healthy run succeeds");
    assert!(ops > 40, "the sweep must reach past pass 1 ({ops} ops)");
    // The last few ops (the striped output's coalesced writes) vary with
    // message arrival, so a run may finish before reaching op `n`.
    let mut failed = 0;
    for n in 0..ops {
        match run(Some(n)) {
            (Err(err), _) => {
                failed += 1;
                assert!(
                    err.to_string().contains("disk failed"),
                    "op {n}: the error should carry the root cause: {err}"
                );
            }
            (Ok(()), done) => assert!(done <= n, "op {n} failed but the run succeeded"),
        }
    }
    assert!(
        failed * 10 >= ops * 9,
        "only {failed} of {ops} runs hit the failure"
    );
}
