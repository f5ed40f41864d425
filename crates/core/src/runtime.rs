//! Thread spawning and program execution.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::{FgError, Result};
use crate::metrics::MetricsRegistry;
use crate::queue::Queue;
use crate::recorder::Recorder;
use crate::stage::{Port, Registry, ReplicaGroup, Stage, StageCtx};
use crate::stats::{Report, StageStats};
use crate::trace::{
    guess_culprit, Postmortem, SpanRing, ThreadPostmortem, TraceSink, WatchdogAction, WatchdogCfg,
};

/// A stage ready to run on its own thread.
pub(crate) struct StageTask {
    pub(crate) name: String,
    pub(crate) stage: Box<dyn Stage>,
    pub(crate) ports: Vec<Port>,
    pub(crate) shared_input: Option<Arc<Queue>>,
    pub(crate) replica_group: Option<Arc<ReplicaGroup>>,
    /// Index within the replica group (0 for ordinary stages).
    pub(crate) replica_index: usize,
}

/// Everything `Program::wire` produced, ready to execute.
pub(crate) struct Plan {
    pub(crate) registry: Arc<Registry>,
    pub(crate) tasks: Vec<StageTask>,
    pub(crate) trace: bool,
    pub(crate) metrics: Option<Arc<MetricsRegistry>>,
    /// The effective sink: the installed one, or an internal one when
    /// tracing or the watchdog needs the flight recorder.
    pub(crate) trace_sink: Option<Arc<TraceSink>>,
    pub(crate) trace_group: Option<u32>,
    pub(crate) watchdog: Option<WatchdogCfg>,
    pub(crate) controller: Option<crate::controller::ControllerCfg>,
    pub(crate) pools: Vec<Arc<crate::controller::PoolControl>>,
    pub(crate) farms: Vec<Arc<ReplicaGroup>>,
    pub(crate) depth_actuators: Vec<Arc<dyn crate::controller::DepthActuator>>,
    pub(crate) pipelines: Vec<crate::stats::PipelineShape>,
    pub(crate) pin: Option<crate::affinity::PinMode>,
    pub(crate) ledger: Option<Arc<crate::profile::MemoryLedger>>,
}

/// Round-robin core assigner over the plan's pin map.  Stage and replica
/// threads draw cores in spawn order.
struct CorePlacement {
    cores: Vec<usize>,
    next: usize,
}

impl CorePlacement {
    fn new(pin: Option<crate::affinity::PinMode>) -> Self {
        CorePlacement {
            cores: pin.map(|m| m.cores()).unwrap_or_default(),
            next: 0,
        }
    }

    fn assign(&mut self) -> Option<usize> {
        if self.cores.is_empty() {
            return None;
        }
        let core = self.cores[self.next % self.cores.len()];
        self.next += 1;
        Some(core)
    }
}

/// Apply a [`CorePlacement`] assignment on the calling thread.  Returns
/// the core only when the affinity change actually took hold, so reports
/// never show a placement the scheduler is free to ignore.
fn pin_self(core: Option<usize>) -> Option<usize> {
    core.filter(|&c| crate::affinity::pin_current_thread(c))
}

pub(crate) fn execute(program_name: String, plan: Plan) -> Result<Report> {
    let Plan {
        registry,
        tasks,
        trace,
        metrics,
        trace_sink,
        trace_group,
        watchdog,
        controller,
        pools,
        farms,
        depth_actuators,
        pipelines,
        pin,
        ledger,
    } = plan;
    let mut placement = CorePlacement::new(pin);

    if let Some(sink) = &trace_sink {
        sink.touch();
    }
    let ring_for = |task: &str| {
        trace_sink.as_ref().map(|s| {
            let name = format!("{program_name}/{task}");
            match trace_group {
                Some(g) => s.register_thread_in_group(name, g),
                None => s.register_thread(name),
            }
        })
    };

    let start = Instant::now();
    let mut handles = Vec::new();

    for task in tasks {
        let registry = Arc::clone(&registry);
        let metrics = metrics.clone();
        let ring = ring_for(&task.name);
        let name = task.name.clone();
        let thread_name = format!("{program_name}/{name}");
        let profile_name = thread_name.clone();
        // Replicas (`sort#0`, `sort#1`, …) share one ledger row: the
        // question the ledger answers is "how much does *sort* hold".
        let stage_ledger = ledger
            .as_ref()
            .map(|l| l.stage(crate::profile::replica_base(&name)));
        let gantt = trace.then_some(start);
        let core = placement.assign();
        let handle = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                let _reg = crate::profile::register_current_thread(profile_name.clone());
                let exit_metrics = metrics.clone();
                let stats =
                    run_stage_thread(task, registry, gantt, metrics, ring, core, stage_ledger);
                // Leave a final CPU sample behind: short-lived threads can
                // exit between profiler ticks and would otherwise vanish
                // from the per-stage attribution.
                if let Some(m) = &exit_metrics {
                    crate::profile::publish_exit_sample(&profile_name, m);
                }
                stats
            })
            .map_err(|e| FgError::Config(format!("failed to spawn stage thread: {e}")))?;
        handles.push(handle);
    }
    // Close the observability loop: the controller samples the metrics
    // registry and actuates farm widths, buffer pools, and I/O depths
    // while the stage threads run.  Without a registry it has nothing to
    // observe, so it is skipped.
    let controller = match (&controller, &metrics) {
        (Some(cfg), Some(m)) => Some(crate::controller::Controller::start(
            Arc::clone(m),
            cfg.clone(),
            crate::controller::Actuators {
                farms,
                pools,
                depths: depth_actuators,
            },
            ring_for("controller"),
        )),
        _ => None,
    };

    // The watchdog polls the sink's pipeline-wide activity clock and fires
    // a post-mortem if it goes quiet for the configured timeout.
    let watchdog_handle = watchdog.map(|cfg| {
        let sink = Arc::clone(trace_sink.as_ref().expect("watchdog implies a sink"));
        let registry = Arc::clone(&registry);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let gate2 = Arc::clone(&gate);
        let program = program_name.clone();
        let profile_name = format!("{program_name}/watchdog");
        let wd_ledger = ledger.clone();
        let handle = std::thread::Builder::new()
            .name(format!("{program_name}/watchdog"))
            .spawn(move || {
                let _reg = crate::profile::register_current_thread(profile_name);
                run_watchdog(cfg, sink, registry, program, gate2, wd_ledger)
            })
            .expect("failed to spawn watchdog thread");
        (handle, gate)
    });

    let threads_spawned = handles.len();
    let mut stages = Vec::with_capacity(threads_spawned);
    for handle in handles {
        match handle.join() {
            Ok(stats) => stages.push(stats),
            Err(_) => {
                // The wrapper catches panics; reaching here means the
                // wrapper itself failed, which we still surface.
                registry.cancel(FgError::Panic {
                    stage: "<runtime>".into(),
                    message: "stage thread wrapper panicked".into(),
                });
            }
        }
    }

    if let Some((handle, gate)) = watchdog_handle {
        *gate.0.lock() = true;
        gate.1.notify_all();
        let _ = handle.join();
    }
    let controller_log = controller.map(|c| c.stop());

    if let Some(err) = registry.take_error() {
        return Err(err);
    }
    if registry.is_cancelled() {
        return Err(FgError::Cancelled);
    }
    Ok(Report {
        wall: start.elapsed(),
        stages,
        threads_spawned,
        queues: registry.queue_depths(),
        pipelines,
        metrics: metrics.map(|m| m.snapshot()).unwrap_or_default(),
        controller: controller_log,
        // Per-thread CPU rows are gone once the threads have joined; the
        // meaningful final attribution is whatever a ResourceProfiler
        // published into the metrics gauges during the run.  Entry points
        // that ran one (fgsort --profile) fill this in.
        resources: None,
    })
}

fn run_stage_thread(
    task: StageTask,
    registry: Arc<Registry>,
    gantt: Option<Instant>,
    metrics: Option<Arc<MetricsRegistry>>,
    ring: Option<Arc<SpanRing>>,
    core: Option<usize>,
    stage_ledger: Option<Arc<crate::profile::StageLedger>>,
) -> StageStats {
    let core = pin_self(core);
    let StageTask {
        name,
        mut stage,
        ports,
        shared_input,
        replica_group,
        replica_index,
    } = task;
    // When the tracking allocator serves this process, heap traffic on
    // this thread is charged to the stage's base name.  Skipped entirely
    // otherwise — tag slots are a bounded table, and untracked runs
    // shouldn't consume them.
    let _tag_scope = crate::alloc::installed().then(|| {
        crate::alloc::thread_tag_scope(crate::alloc::register_tag(crate::profile::replica_base(
            &name,
        )))
    });
    let mut rec = Recorder::new(ring).with_ledger(stage_ledger);
    // Live counters let a controller (and `/metrics` scrapes) see the
    // stage's time attribution as it evolves, not only at thread exit.
    if let Some(m) = &metrics {
        rec = rec.with_live(m, &name);
    }
    let mut ctx = StageCtx::new(
        name.clone(),
        ports,
        shared_input,
        Arc::clone(&registry),
        rec,
    );
    if let Some(group) = replica_group {
        ctx.set_replica_group(group, replica_index);
    }

    let outcome = catch_unwind(AssertUnwindSafe(|| stage.run(&mut ctx)));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(err)) => registry.cancel(if err.is_cancelled() {
            FgError::Cancelled
        } else {
            err
        }),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".into());
            registry.cancel(FgError::Panic {
                stage: name.clone(),
                message,
            });
        }
    }
    ctx.finish();
    let stats = ctx.rec.finish(name, core, gantt);
    if let Some(m) = &metrics {
        m.counter(&format!("core/stage_buffers/{}", stats.name))
            .add(stats.buffers_in);
    }
    stats
}

/// Watchdog loop: poll the sink's idle clock; on a stall, assemble and
/// report a [`Postmortem`], then abort or keep waiting per the config.
fn run_watchdog(
    cfg: WatchdogCfg,
    sink: Arc<TraceSink>,
    registry: Arc<Registry>,
    program: String,
    gate: Arc<(Mutex<bool>, Condvar)>,
    ledger: Option<Arc<crate::profile::MemoryLedger>>,
) {
    let poll = (cfg.timeout / 4).clamp(Duration::from_millis(1), Duration::from_millis(100));
    let mut reported = false;
    loop {
        {
            let mut stopped = gate.0.lock();
            if *stopped {
                return;
            }
            gate.1.wait_for(&mut stopped, poll);
            if *stopped {
                return;
            }
        }
        let idle = sink.idle();
        if idle < cfg.timeout {
            reported = false; // activity resumed; re-arm
            continue;
        }
        if reported {
            continue; // KeepWaiting mode: one report per stall episode
        }
        reported = true;
        let threads: Vec<ThreadPostmortem> = sink
            .rings()
            .iter()
            .map(|r| {
                let (state, in_state_for) = r.state();
                let spans = r.snapshot();
                let keep = spans.len().saturating_sub(cfg.last_spans);
                ThreadPostmortem {
                    thread: r.name().to_string(),
                    state,
                    in_state_for,
                    intakes: r.intakes(),
                    emits: r.emits(),
                    last_spans: spans[keep..].to_vec(),
                }
            })
            .collect();
        let culprit = guess_culprit(&threads);
        let pm = Postmortem {
            program: program.clone(),
            stalled_for: idle,
            threads,
            queues: registry.live_queue_depths(),
            turnstiles: registry.turnstiles(),
            culprit: culprit.clone(),
            // Stalled threads are still alive, so the snapshot carries
            // their CPU rows: a wedged run's post-mortem says who was
            // spinning and what memory looked like at the moment of death.
            resources: Some(crate::profile::ResourceReport::sample_now(
                ledger.as_deref(),
            )),
        };
        eprint!("{}", pm.render());
        if let Some(path) = &cfg.artifact {
            if let Err(e) = std::fs::write(path, pm.to_json().to_string()) {
                eprintln!(
                    "fg watchdog: failed to write post-mortem artifact {}: {e}",
                    path.display()
                );
            }
        }
        if cfg.action == WatchdogAction::Abort {
            registry.cancel(FgError::Stalled {
                culprit: culprit.unwrap_or_else(|| "unknown".into()),
            });
            return;
        }
    }
}
