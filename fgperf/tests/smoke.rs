//! Runs the benchmark binary at smoke scale and checks its output contract:
//! every catalogued metric appears once, with its unit and a finite value,
//! the run is stamped with its metadata, and the scratch directory is gone.

use std::path::{Path, PathBuf};
use std::process::Command;

use fg_core::Json;
use fgperf::report::{MetricDef, END_TO_END, PER_LAYER};
use fgperf::workload::WORKLOADS;

fn run(dir: &Path, args: &[&str]) -> std::process::Output {
    std::fs::create_dir_all(dir).unwrap();
    Command::new(env!("CARGO_BIN_EXE_fgperf"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn fgperf")
}

fn check_metrics(result: &Json, catalogue: &[MetricDef]) {
    let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    let want: Vec<&str> = catalogue.iter().map(|d| d.name).collect();
    assert_eq!(names, want);
    for (def, (_, m)) in catalogue.iter().zip(metrics) {
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{}",
            def.name
        );
        let v = m.get("value").and_then(Json::as_f64).unwrap();
        assert!(v.is_finite(), "{} = {v}", def.name);
    }
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for w in WORKLOADS {
        for (trace, catalogue) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let dir = base.join(format!("{}-{trace}", w.name));
            let out = run(
                &dir,
                &[
                    "--workload",
                    w.name,
                    "--seed",
                    "3",
                    "--seconds",
                    "0.2",
                    "--trace",
                    trace,
                    "--scale",
                    "smoke",
                ],
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{} trace {trace}: {}\n{stdout}",
                w.name,
                String::from_utf8_lossy(&out.stderr)
            );
            let lines: Vec<&str> = stdout.lines().collect();
            let result = Json::parse(lines[lines.len() - 1]).unwrap();
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 2);
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            check_metrics(&result, catalogue);

            let meta = Json::parse(lines[lines.len() - 2]).unwrap();
            let meta = meta.get("meta").unwrap();
            for key in ["commit", "nproc", "kernel", "clk_tck", "llc_bytes"] {
                assert!(meta.get(key).and_then(Json::as_str).is_some(), "meta {key}");
            }
            if trace == "1" {
                for key in ["memcpy_set_bytes", "spans"] {
                    assert!(meta.get(key).is_some(), "meta {key}");
                }
                let spans = dir.join(meta.get("spans").and_then(Json::as_str).unwrap());
                let spans = Json::parse(&std::fs::read_to_string(spans).unwrap()).unwrap();
                let spans = spans.get("spans").and_then(Json::as_arr).unwrap();
                for name in ["iteration", "micro", "disk.read_at"] {
                    assert!(
                        spans
                            .iter()
                            .any(|s| s.get("name").and_then(Json::as_str) == Some(name)),
                        "no {name} span"
                    );
                }
            }
            assert!(
                !dir.join(".fgperf/tmp").exists(),
                "scratch directory left behind"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("badargs");
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload csort-os --seed 1 --seconds 1 --trace 2",
        "--workload csort-os --seed 1 --trace 0",
    ] {
        let out = run(&dir, &args.split(' ').collect::<Vec<_>>());
        assert_eq!(out.status.code(), Some(2), "{args}");
        assert!(out.stdout.is_empty());
    }
}

/// `BENCHMARK.json` must describe exactly what the binary prints.
#[test]
fn catalogue_matches_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
    let bench = Json::parse(&text).unwrap();
    for (key, catalogue) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = bench.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), catalogue.len(), "{key}");
        for (j, def) in listed.iter().zip(catalogue) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
        }
    }
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);
}
