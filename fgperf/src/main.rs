//! `fgperf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]`
//!
//! Runs one workload of the real-work benchmark from the checkout root and
//! prints a table of the metrics, a metadata line, and, as the last line,
//! the JSON result.  Exits 2 on bad arguments and 1 when no sort verified.

use std::process::ExitCode;

use fgperf::report::{END_TO_END, PER_LAYER};
use fgperf::workload::{workload, WORKLOADS};
use fgperf::{run, Args, Scale};

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => name = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                })
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    v => return Err(format!("--scale must be full or smoke, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    Ok(Args {
        workload: workload(&name)
            .ok_or_else(|| format!("unknown workload {name}; one of {}", names.join(", ")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fgperf: {e}");
            eprintln!(
                "usage: fgperf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("fgperf: no working directory: {e}");
            return ExitCode::from(1);
        }
    };
    let catalogue = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let out = match run(&args, &root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fgperf: {e}");
            return ExitCode::from(1);
        }
    };
    let line = match out.result_json(catalogue) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("fgperf: {e}");
            return ExitCode::from(1);
        }
    };
    for e in &out.errors {
        eprintln!("fgperf: failed attempt: {e}");
    }
    for def in catalogue {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| *n == def.name)
            .map_or(f64::NAN, |(_, v)| *v);
        println!(
            "{:<32} {:>14.6} {:<7} {}",
            def.name, value, def.unit, def.note
        );
    }
    println!("{}", out.meta_json());
    println!("{line}");
    ExitCode::SUCCESS
}
