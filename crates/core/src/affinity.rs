//! Opt-in CPU core pinning for stage/replica threads.
//!
//! FG's farm hot path is a shared lock-free queue; once the queue itself
//! stops serializing producers, the next loss is threads migrating between
//! cores mid-run (cold caches, cross-core CAS traffic).  A [`PinMode`] on
//! the [`Program`](crate::Program) assigns each runtime thread a core at
//! spawn, either round-robin over all online cores or from an explicit
//! list, and the per-thread placement is recorded in the
//! [`Report`](crate::Report) so the critical-path view can say which core
//! ran the dominant stage.
//!
//! The crate forbids `unsafe`, so pinning does not call
//! `sched_setaffinity(2)` directly.  On Linux a thread instead learns its
//! own TID from `/proc/thread-self` and delegates to `taskset(1)`, which
//! performs the same syscall on our behalf.  Where either piece is missing
//! (non-Linux hosts, containers without util-linux) pinning degrades to a
//! recorded no-op: the run proceeds unpinned and the report shows no
//! placement rather than wrong placement.

use crate::degrade::WarnOnce;
use crate::profile::current_tid;

/// How a [`Program`](crate::Program) maps runtime threads onto cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PinMode {
    /// Assign cores `0, 1, 2, …` round-robin over every online core, in
    /// stage/replica thread spawn order.
    RoundRobin,
    /// Round-robin over an explicit core list (e.g. one NUMA node, or
    /// every other core to skip SMT siblings).  Must be non-empty.
    Cores(Vec<usize>),
}

impl PinMode {
    /// The core list this mode cycles over: the explicit list, or
    /// `0..available_parallelism` for round-robin.  Round-robin on a
    /// single-core host returns no cores at all: pinning every thread to
    /// the only core changes nothing except the per-thread `taskset`
    /// exec, so the placement degrades to a no-op instead of a tax.  An
    /// explicit list is honored verbatim — the caller asked for it.
    pub(crate) fn cores(&self) -> Vec<usize> {
        match self {
            PinMode::RoundRobin => match core_count() {
                1 => Vec::new(),
                n => (0..n).collect(),
            },
            PinMode::Cores(cores) => cores.clone(),
        }
    }
}

/// Number of cores the scheduler will let this process use.
pub(crate) fn core_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pin the calling thread to `core`.  Returns `true` when the affinity
/// change was applied, `false` when pinning is unavailable on this host
/// (the thread keeps running unpinned).
pub(crate) fn pin_current_thread(core: usize) -> bool {
    // First pinning failure is reported once per process: a fleet of
    // stage threads failing identically should not flood the log.
    static WARN: WarnOnce = WarnOnce::new();
    match try_pin(core) {
        Ok(()) => true,
        Err(reason) => {
            WARN.warn(|| format!("fg: core pinning unavailable, running unpinned ({reason})"));
            false
        }
    }
}

fn try_pin(core: usize) -> Result<(), String> {
    let tid = current_tid()?;
    let out = std::process::Command::new("taskset")
        .args(["-p", "-c", &core.to_string(), &tid.to_string()])
        .output()
        .map_err(|e| format!("taskset unavailable: {e}"))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "taskset -p -c {core} {tid} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_covers_all_cores() {
        let cores = PinMode::RoundRobin.cores();
        if core_count() == 1 {
            // Single-core: pinning would be a per-thread exec with no
            // effect, so round-robin degrades to "place nothing".
            assert!(cores.is_empty());
        } else {
            assert_eq!(cores.len(), core_count());
            assert_eq!(cores.first(), Some(&0));
        }
    }

    #[test]
    fn explicit_list_is_used_verbatim() {
        assert_eq!(PinMode::Cores(vec![2, 4]).cores(), vec![2, 4]);
    }

    #[test]
    fn pin_current_thread_never_panics() {
        // Applied or degraded, the call must return rather than unwind —
        // teardown correctness depends on stage threads always reaching
        // their stage body.
        let _ = pin_current_thread(0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn current_tid_is_parseable_on_linux() {
        let tid = current_tid().expect("linux exposes /proc/thread-self");
        assert!(tid > 0);
    }
}
