//! End-to-end tests: full dsort, csort, and dsort-linear runs on the
//! simulated cluster, verified sorted ∧ striped ∧ permutation-preserving.

use std::sync::Arc;

use fg_core::MetricsRegistry;
use fg_sort::config::SortConfig;
use fg_sort::csort::run_csort;
use fg_sort::dsort::{run_dsort, run_dsort_with, DsortOptions};
use fg_sort::dsort_linear::run_dsort_linear;
use fg_sort::input::{provision, provision_with_metrics};
use fg_sort::keygen::KeyDist;
use fg_sort::verify::{verify_output, Strictness};

fn check_dsort(cfg: &SortConfig) {
    let disks = provision(cfg);
    let report = run_dsort(cfg, &disks).expect("dsort run");
    verify_output(cfg, &disks, Strictness::Exact).expect("dsort output");
    let total: u64 = report.partition_records.iter().sum();
    assert_eq!(total, cfg.total_records() as u64);
}

fn check_csort(cfg: &SortConfig) {
    let disks = provision(cfg);
    run_csort(cfg, &disks).expect("csort run");
    verify_output(cfg, &disks, Strictness::Exact).expect("csort output");
}

fn check_dsort_linear(cfg: &SortConfig) {
    let disks = provision(cfg);
    run_dsort_linear(cfg, &disks).expect("dsort-linear run");
    verify_output(cfg, &disks, Strictness::Exact).expect("dsort-linear output");
}

#[test]
fn dsort_uniform_4_nodes() {
    check_dsort(&SortConfig::test_default(4, 4096));
}

#[test]
fn dsort_all_equal_keys() {
    let mut cfg = SortConfig::test_default(4, 2048);
    cfg.dist = KeyDist::AllEqual;
    check_dsort(&cfg);
}

#[test]
fn dsort_std_normal() {
    let mut cfg = SortConfig::test_default(4, 2048);
    cfg.dist = KeyDist::StdNormal;
    check_dsort(&cfg);
}

#[test]
fn dsort_poisson() {
    let mut cfg = SortConfig::test_default(4, 2048);
    cfg.dist = KeyDist::Poisson;
    check_dsort(&cfg);
}

#[test]
fn dsort_single_node() {
    check_dsort(&SortConfig::test_default(1, 2048));
}

#[test]
fn dsort_two_nodes_shifted_adversarial() {
    let mut cfg = SortConfig::test_default(2, 2048);
    cfg.dist = KeyDist::Shifted { shift: 1 };
    check_dsort(&cfg);
}

#[test]
fn dsort_hotkey_adversarial() {
    let mut cfg = SortConfig::test_default(4, 2048);
    cfg.dist = KeyDist::HotKey { hot_percent: 90 };
    check_dsort(&cfg);
}

#[test]
fn dsort_without_virtual_reads_matches() {
    let cfg = SortConfig::test_default(3, 3072);
    let disks = provision(&cfg);
    let report = run_dsort_with(
        &cfg,
        &disks,
        DsortOptions {
            virtual_reads: false,
            ..DsortOptions::default()
        },
    )
    .expect("dsort run");
    verify_output(&cfg, &disks, Strictness::Exact).expect("output");
    // Non-virtual pass 2 spawns one read thread per run pipeline next to
    // its four other stages; virtual keeps it flat.
    for (runs, threads) in report.runs_per_node.iter().zip(&report.pass2_threads) {
        assert_eq!(*threads, runs + 4, "{report:?}");
    }
}

/// Each pass runs exactly one thread per stage: pass 1's six (read,
/// permute, send; receive, sort, write) and, with virtual reads, pass 2's
/// five (read, merge, send; receive, write) however many runs it merges.
#[test]
fn dsort_runs_one_thread_per_stage_at_any_run_count() {
    // About 2 and about 64 runs per node (partitions differ in size).
    for (run_bytes, runs) in [(32 * 1024, 2..=3), (1024, 48..=80)] {
        let mut cfg = SortConfig::test_default(4, 4096);
        cfg.run_bytes = run_bytes;
        let disks = provision(&cfg);
        let report = run_dsort(&cfg, &disks).expect("dsort run");
        verify_output(&cfg, &disks, Strictness::Exact).expect("dsort output");
        assert!(
            report.runs_per_node.iter().all(|k| runs.contains(k)),
            "run counts {:?} outside {runs:?}",
            report.runs_per_node
        );
        let (pass1, pass2) = report.node0_reports.as_ref().expect("node 0 reports");
        assert_eq!(pass1.threads_spawned, 6);
        assert_eq!(pass2.threads_spawned, 5);
        assert!(report.pass2_threads.iter().all(|&t| t == 5), "{report:?}");
    }
}

#[test]
fn dsort_with_metrics_collects_comm_and_disk_metrics() {
    let cfg = SortConfig::test_default(3, 1536);
    let registry = Arc::new(MetricsRegistry::new());
    let disks = provision_with_metrics(&cfg, &registry);
    let report = run_dsort_with(
        &cfg,
        &disks,
        DsortOptions {
            metrics: Some(Arc::clone(&registry)),
            ..DsortOptions::default()
        },
    )
    .expect("dsort run");
    verify_output(&cfg, &disks, Strictness::Exact).expect("output");

    let m = &report.metrics;
    // Comm: per-peer byte counters agree with the fabric's accounting,
    // and every node timed the collectives at least once.
    let fabric_bytes: u64 = report.bytes_sent.iter().sum();
    let metric_bytes: u64 = m
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("comm/bytes/"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(fabric_bytes, metric_bytes);
    // Collective latencies are labelled per rank: every node timed its own
    // barrier calls.
    for rank in 0..cfg.nodes {
        let h = m.histogram(&format!("comm/barrier_ns/r{rank}")).unwrap();
        assert!(h.count >= 1, "rank {rank} recorded no barriers");
    }
    // Disk: each labeled disk's byte counters match its own stats.
    for (rank, disk) in disks.iter().enumerate() {
        let stats = disk.stats();
        assert_eq!(
            m.counter(&format!("disk/d{rank}/bytes_read")),
            Some(stats.bytes_read)
        );
        assert_eq!(
            m.counter(&format!("disk/d{rank}/bytes_written")),
            Some(stats.bytes_written)
        );
        assert!(m.histogram(&format!("disk/d{rank}/read_ns")).unwrap().count > 0);
    }
}

#[test]
fn dsort_observed_builds_cluster_report_and_cross_rank_trace() {
    let mut cfg = SortConfig::test_default(4, 2048);
    let sink = fg_core::TraceSink::new();
    cfg.trace_sink = Some(Arc::clone(&sink));
    let disks = provision(&cfg);
    let report = run_dsort_with(
        &cfg,
        &disks,
        DsortOptions {
            observe: true,
            ..DsortOptions::default()
        },
    )
    .expect("dsort run");
    verify_output(&cfg, &disks, Strictness::Exact).expect("output");

    // Every rank's FG reports and registry snapshot are in the merged
    // cluster report.
    let cluster = report.cluster.as_ref().expect("cluster report");
    assert_eq!(cluster.nodes, cfg.nodes);
    assert_eq!(cluster.ranks.len(), cfg.nodes);
    for r in &cluster.ranks {
        assert_eq!(r.reports.len(), 2, "rank {} pass reports", r.rank);
        assert!(r.wall > std::time::Duration::ZERO);
        assert!(
            r.collective_ns() > 0,
            "rank {} timed no collectives",
            r.rank
        );
    }
    // The traffic matrix accounts for every byte the fabric moved.
    let matrix_total: u64 = cluster.traffic_matrix().iter().flatten().sum();
    let fabric_total: u64 = report.bytes_sent.iter().sum();
    assert_eq!(matrix_total, fabric_total);
    // The cluster diagnosis runs off the same report (balanced input:
    // nothing should scream).
    let d = fg_core::diagnose_cluster(cluster);
    assert_eq!(d.ranks.len(), cfg.nodes);

    // The merged Chrome trace has one track group per rank and at least
    // one flow that crosses rank boundaries (a pass-1 send stitched to a
    // remote comm-recv, or a collective spanning all ranks).
    let trace = sink.to_chrome_trace();
    let j = fg_core::Json::parse(&trace).expect("chrome trace is JSON");
    let events = j
        .get("traceEvents")
        .and_then(|e| e.as_arr().map(<[_]>::to_vec))
        .unwrap();
    let mut node_pids = std::collections::HashSet::new();
    for e in &events {
        if e.get("name").and_then(fg_core::Json::as_str) == Some("process_name") {
            node_pids.insert(e.get("pid").and_then(fg_core::Json::as_u64).unwrap());
        }
    }
    assert_eq!(node_pids.len(), cfg.nodes, "one track group per rank");
    // Group flow events by id; a cross-rank flow touches >= 2 pids.
    let mut flow_pids: std::collections::HashMap<String, std::collections::HashSet<u64>> =
        std::collections::HashMap::new();
    for e in &events {
        if matches!(
            e.get("ph").and_then(fg_core::Json::as_str),
            Some("s") | Some("t") | Some("f")
        ) {
            let id = e
                .get("id")
                .and_then(fg_core::Json::as_str)
                .unwrap()
                .to_string();
            let pid = e.get("pid").and_then(fg_core::Json::as_u64).unwrap();
            flow_pids.entry(id).or_default().insert(pid);
        }
    }
    assert!(
        flow_pids.values().any(|pids| pids.len() >= 2),
        "no flow crosses rank boundaries"
    );
}

#[test]
fn dsort_odd_sizes_partial_blocks() {
    // records_per_node chosen so the last block is partial.
    let mut cfg = SortConfig::test_default(3, 1000);
    cfg.block_bytes = 96 * 16;
    cfg.run_bytes = 96 * 16 * 2;
    check_dsort(&cfg);
}

#[test]
fn csort_uniform_4_nodes() {
    check_csort(&SortConfig::test_default(4, 4096));
}

#[test]
fn csort_all_equal() {
    let mut cfg = SortConfig::test_default(4, 4096);
    cfg.dist = KeyDist::AllEqual;
    check_csort(&cfg);
}

#[test]
fn csort_poisson_two_nodes() {
    let mut cfg = SortConfig::test_default(2, 2048);
    cfg.dist = KeyDist::Poisson;
    check_csort(&cfg);
}

#[test]
fn csort_sixteen_nodes_small() {
    check_csort(&SortConfig::test_default(16, 1024));
}

#[test]
fn csort_with_sort_workers() {
    // Farmed sort stages (Program::workers) must leave the lockstep
    // communication stages downstream correct: the output is still exactly
    // sorted, striped, and a permutation of the input.
    let mut cfg = SortConfig::test_default(4, 4096);
    cfg.workers = 3;
    check_csort(&cfg);
    cfg.dist = KeyDist::Poisson;
    check_csort(&cfg);
}

#[test]
fn dsort_sixteen_nodes_small() {
    check_dsort(&SortConfig::test_default(16, 1024));
}

#[test]
fn dsort_linear_uniform() {
    check_dsort_linear(&SortConfig::test_default(4, 2048));
}

/// The merge's windows are pass 2's vertical buffers, so the window size
/// must not change the output: from one-record windows to a whole run per
/// window, both dsort variants match the reference sort exactly.  Uniform
/// 64-bit keys are distinct here, so equal key sequences and an equal
/// record multiset mean byte-identical output.
#[test]
fn dsort_variants_exact_across_window_sizes() {
    for records in [1usize, 256] {
        let mut cfg = SortConfig::test_default(4, 4096);
        cfg.vertical_buf_bytes = records * cfg.record.record_bytes;
        check_dsort(&cfg);
        check_dsort_linear(&cfg);
    }
}

#[test]
fn dsort_linear_all_equal() {
    let mut cfg = SortConfig::test_default(3, 1536);
    cfg.dist = KeyDist::AllEqual;
    check_dsort_linear(&cfg);
}

#[test]
fn all_three_sorts_agree_on_key_sequence() {
    let mut cfg = SortConfig::test_default(4, 2048);
    cfg.dist = KeyDist::Poisson;
    // Exact strictness compares key sequences against the reference sort,
    // so running all three with it proves they agree with each other.
    check_dsort(&cfg);
    check_csort(&cfg);
    check_dsort_linear(&cfg);
}

#[test]
fn dsort_partitions_within_balance_bound() {
    // The paper: "In our experiments, all partition sizes were at most 10%
    // greater than the average."  Verify with generous margin at small
    // sample sizes for the benign distributions.
    for dist in [KeyDist::Uniform, KeyDist::AllEqual] {
        let mut cfg = SortConfig::test_default(4, 8192);
        cfg.dist = dist;
        cfg.oversample = 32;
        let disks = provision(&cfg);
        let report = run_dsort(&cfg, &disks).expect("dsort");
        let avg = cfg.records_per_node as f64;
        for (i, &p) in report.partition_records.iter().enumerate() {
            assert!(
                (p as f64) < avg * 1.35,
                "{dist:?} partition {i} = {p}, avg = {avg}: {:?}",
                report.partition_records
            );
        }
    }
}

mod csort4_tests {
    use super::*;
    use fg_sort::csort4::run_csort4;

    fn check_csort4(cfg: &SortConfig) {
        let disks = provision(cfg);
        run_csort4(cfg, &disks).expect("csort4 run");
        verify_output(cfg, &disks, Strictness::Exact).expect("csort4 output");
    }

    #[test]
    fn csort4_uniform_4_nodes() {
        check_csort4(&SortConfig::test_default(4, 4096));
    }

    #[test]
    fn csort4_all_equal() {
        let mut cfg = SortConfig::test_default(4, 4096);
        cfg.dist = KeyDist::AllEqual;
        check_csort4(&cfg);
    }

    #[test]
    fn csort4_poisson_two_nodes() {
        let mut cfg = SortConfig::test_default(2, 2048);
        cfg.dist = KeyDist::Poisson;
        check_csort4(&cfg);
    }

    #[test]
    fn csort4_single_node() {
        check_csort4(&SortConfig::test_default(1, 4096));
    }

    #[test]
    fn csort4_sixteen_nodes() {
        check_csort4(&SortConfig::test_default(16, 1024));
    }

    #[test]
    fn csort4_with_sort_workers() {
        let mut cfg = SortConfig::test_default(4, 4096);
        cfg.workers = 3;
        check_csort4(&cfg);
    }

    #[test]
    fn csort4_does_more_io_than_csort3() {
        let cfg = SortConfig::test_default(4, 4096);
        let disks3 = provision(&cfg);
        let c3 = run_csort(&cfg, &disks3).expect("csort3");
        let disks4 = provision(&cfg);
        let c4 = run_csort4(&cfg, &disks4).expect("csort4");
        let io3: u64 = c3.disk_stats.iter().map(|s| s.bytes_total()).sum();
        let io4: u64 = c4.disk_stats.iter().map(|s| s.bytes_total()).sum();
        let ratio = io4 as f64 / io3 as f64;
        assert!(
            (1.2..1.5).contains(&ratio),
            "four passes should do ~4/3 the I/O of three: {ratio:.2}"
        );
    }
}
