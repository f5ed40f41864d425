//! The traced run's instruments must not change what they measure, and
//! failures must surface through them and be counted.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use fg_pdm::{DiskCfg, DiskRef, IoScheduler, SimDisk};
use fg_sort::csort::run_csort;
use fg_sort::dsort::run_dsort;
use fg_sort::input::{keys_of, try_provision};
use fg_sort::verify::OUTPUT_FILE;
use fg_sort::{KeyDist, SortConfig};
use fgperf::report::Outcome;
use fgperf::trace::{DiskTally, SpanLog, TimedDisk};
use fgperf::workload::{guard, iterate, workload, Prog, Tracer, WORKLOADS};

const RECORDS: usize = 1 << 13;

/// A directory for real-file workloads, unique to the test.
fn os_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Sort `cfg`'s input, optionally through timing wrappers, and return every
/// node's striped output.
fn sorted_output(prog: Prog, cfg: &SortConfig, wrapped: bool) -> (Vec<Vec<u8>>, DiskTally) {
    let disks = try_provision(cfg).unwrap();
    let log = Arc::new(SpanLog::default());
    let tally = Arc::new(Mutex::new(DiskTally::default()));
    let run_disks: Vec<DiskRef> = if wrapped {
        disks
            .iter()
            .enumerate()
            .map(|(r, d)| TimedDisk::wrap(Arc::clone(d), r, Arc::clone(&log), Arc::clone(&tally)))
            .collect()
    } else {
        disks.clone()
    };
    match prog {
        Prog::Dsort => drop(run_dsort(cfg, &run_disks).unwrap()),
        Prog::Csort => drop(run_csort(cfg, &run_disks).unwrap()),
    }
    let out = disks
        .iter()
        .map(|d| d.snapshot(OUTPUT_FILE).unwrap())
        .collect();
    let tally = tally.lock().unwrap().clone();
    (out, tally)
}

/// Keys of the striped output, node by node.
fn keys(cfg: &SortConfig, out: &[Vec<u8>]) -> Vec<Vec<u64>> {
    out.iter().map(|o| keys_of(cfg.record, o)).collect()
}

#[test]
fn wrapped_sorts_write_identical_output() {
    for w in WORKLOADS {
        let dir = os_dir(&format!("identical-{}", w.name));
        let cfg = w.config(RECORDS, 5, Some(&dir));
        let (bare, _) = sorted_output(w.prog, &cfg, false);
        let (wrapped, tally) = sorted_output(w.prog, &cfg, true);
        // Among equal keys dsort's record order follows message arrival,
        // so with duplicate keys only the key sequence is reproducible,
        // with or without the wrapper.
        if w.dist == KeyDist::Uniform {
            assert_eq!(bare, wrapped, "{}", w.name);
        } else {
            assert_eq!(keys(&cfg, &bare), keys(&cfg, &wrapped), "{}", w.name);
        }
        let input = cfg.total_bytes();
        assert!(
            tally.read.bytes >= input && tally.write.bytes >= input,
            "{}",
            w.name
        );
        assert_eq!(tally.read.ops as usize, tally.read.lat_ns.len());
        assert_eq!(tally.errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn flush_errors_surface_through_the_wrapper() {
    // The scheduler defers writes; a failed deferred write is reported by
    // flush, which the trait's default implementation would swallow.
    let sched: DiskRef = IoScheduler::new(SimDisk::new(DiskCfg::zero()), 2).unwrap();
    let tally = Arc::new(Mutex::new(DiskTally::default()));
    let disk = TimedDisk::wrap(sched, 0, Arc::new(SpanLog::default()), Arc::clone(&tally));
    disk.fail_after_ops(0);
    let _ = disk.write_at("f", 0, &[1; 64]);
    assert!(disk.flush().is_err());
    assert!(tally.lock().unwrap().errors >= 1);
    assert!(Arc::clone(&disk).depth_actuator().is_some());
}

/// The failure is injected at the first disk operation, in dsort's
/// sampling phase: a failure inside dsort's pass-1 pipelines can leave the
/// other nodes' receive stages blocked in the fabric (an intermittent hang
/// of the program, not of the wrapper).
#[test]
fn injected_failures_are_counted() {
    for name in ["dsort-uniform", "csort-os"] {
        let w = workload(name).unwrap();
        let dir = os_dir(&format!("inject-{name}"));
        let cfg = w.config(RECORDS, 9, Some(&dir));
        let log = Arc::new(SpanLog::default());
        let mut out = Outcome::default();
        assert!(out.record(iterate(w, &cfg, None, None)).is_some());
        let res = log.time("iteration", 0, |id| {
            iterate(
                w,
                &cfg,
                Some(Tracer {
                    log: &log,
                    parent: id,
                }),
                Some(0),
            )
        });
        assert!(
            res.is_err(),
            "{name}: an injected disk failure went unnoticed"
        );
        assert!(out.record(res).is_none());
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.verified_frac(), 0.5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn guard_refuses_cost_models_and_instrumentation() {
    for w in WORKLOADS {
        guard(&w.config(RECORDS, 1, Some(&os_dir("guard")))).unwrap();
    }
    assert!(guard(&SortConfig::experiment_default(4, RECORDS)).is_err());
    let mut cfg = SortConfig::test_default(4, RECORDS);
    cfg.net = fg_cluster::NetCfg::new(std::time::Duration::from_micros(100), 1e9);
    assert!(guard(&cfg).is_err());
    let mut cfg = SortConfig::test_default(4, RECORDS);
    cfg.trace = true;
    assert!(guard(&cfg).is_err());
}
