//! The metric catalogue, and the result line the benchmark prints.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! directions; the package's tests check that the two agree.

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the benchmark emits.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit in the result line.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// What it measures, and for a per-layer metric which end-to-end
    /// metric it should move on which workload.
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        note,
    }
}

use Better::{Higher, Lower};

/// Printed with `--trace 0`: what a user of the sorts sees.
pub const END_TO_END: [MetricDef; 6] = [
    m("mrec_per_s", "Mrec/s", Higher, "input records / median wall of one run_dsort or run_csort call, each wall scaled by the share of it during which no CPU was stolen; generation and verification excluded"),
    m("setup_s", "s", Lower, "median time to generate the input and provision the per-node disks (OsDisk: including the scrub), each scaled by the share of CPU time not stolen during it"),
    m("peak_rss_mib", "MiB", Lower, "VmHWM through the first sort of the process (one workload per process); later sorts start from memory the allocator retained"),
    m("disk_io_x", "x", Lower, "disk bytes read + written / input bytes; exact: 4.0 dsort, 6.0 csort"),
    m("net_io_x", "x", Lower, "fabric bytes sent / input bytes; exact for a seed"),
    m("verified_frac", "frac", Higher, "sorts that returned and verified / sorts attempted, warm-up included (1 - error rate)"),
];

/// Printed with `--trace 1`: one layer each, from the traced run.
pub const PER_LAYER: [MetricDef; 52] = [
    // sort: the programs' own reports.
    m("sort.pass1_s", "s", Lower, "sort: pass 1 wall; moves mrec_per_s on every workload"),
    m("sort.pass2_s", "s", Lower, "sort: pass 2 wall; moves mrec_per_s on every workload"),
    m("sort.rest_s", "s", Lower, "sort: the other phase, dsort sampling or csort pass 3; moves mrec_per_s on every workload"),
    m("sort.partition_skew", "x", Lower, "sort: largest partition / mean (csort columns are equal by construction); moves mrec_per_s on dsort-poisson-2k"),
    m("sort.runs_per_node", "count", Lower, "sort: dsort pass-1 runs merged per node (0 for csort); moves mrec_per_s on dsort-uniform"),
    // core: the FG runtime.
    m("core.threads_per_pass", "count", Lower, "core: OS threads per pass of dsort node 0 (0 for csort); moves peak_rss_mib, mrec_per_s on dsort-poisson-2k"),
    m("core.hop_us", "us", Lower, "core: per-buffer per-stage latency through a pass-through Program at the workload's block size and pool; moves mrec_per_s on dsort-poisson-2k, flat on csort-os"),
    m("stage.read.busy_s", "s", Lower, "core: busy time of the read stages per node; moves mrec_per_s on csort-os"),
    m("stage.read.blocked_accept_s", "s", Lower, "core: read stages starved per node"),
    m("stage.read.blocked_convey_s", "s", Lower, "core: read stages back-pressured per node"),
    m("stage.permute.busy_s", "s", Lower, "core: busy time of the permute stages per node; moves mrec_per_s on every workload"),
    m("stage.permute.blocked_accept_s", "s", Lower, "core: permute stages starved per node"),
    m("stage.permute.blocked_convey_s", "s", Lower, "core: permute stages back-pressured per node"),
    m("stage.sort.busy_s", "s", Lower, "core: busy time of the in-core sort stages per node; moves mrec_per_s on csort-os, dsort-uniform"),
    m("stage.sort.blocked_accept_s", "s", Lower, "core: sort stages starved per node"),
    m("stage.sort.blocked_convey_s", "s", Lower, "core: sort stages back-pressured per node"),
    m("stage.comm.busy_s", "s", Lower, "core: busy time of the send/receive/exchange stages per node; moves mrec_per_s on dsort-poisson-2k, csort-os"),
    m("stage.comm.blocked_accept_s", "s", Lower, "core: communication stages starved per node"),
    m("stage.comm.blocked_convey_s", "s", Lower, "core: communication stages back-pressured per node"),
    m("stage.merge.busy_s", "s", Lower, "core: busy time of the merge stages per node; moves mrec_per_s on dsort-uniform, flat on csort-os"),
    m("stage.merge.blocked_accept_s", "s", Lower, "core: merge stages starved per node"),
    m("stage.merge.blocked_convey_s", "s", Lower, "core: merge stages back-pressured per node"),
    m("stage.write.busy_s", "s", Lower, "core: busy time of the write stages per node; moves mrec_per_s on csort-os"),
    m("stage.write.blocked_accept_s", "s", Lower, "core: write stages starved per node"),
    m("stage.write.blocked_convey_s", "s", Lower, "core: write stages back-pressured per node"),
    // kernels and merge.
    m("kernels.sort_mrec_s", "Mrec/s", Higher, "kernels: sort_records on a dsort run or csort column of the workload's keys; moves mrec_per_s on csort-os, dsort-uniform"),
    m("kernels.sort_vs_memcpy", "ratio", Higher, "kernels: sort_records bytes/s / hw.memcpy_gbs"),
    m("merge.kway_mrec_s", "Mrec/s", Higher, "merge: merge_runs over runs_per_node runs of the run size (csort: two half columns); moves mrec_per_s on dsort-uniform, flat on csort-os"),
    m("merge.kway_vs_memcpy", "ratio", Higher, "merge: merge_runs bytes/s / hw.memcpy_gbs"),
    // cluster.
    m("cluster.msg_us", "us", Lower, "cluster: one-way block-sized message, 2-rank ping-pong; moves mrec_per_s on dsort-poisson-2k, csort-os"),
    m("cluster.exchange_gbs", "GB/s", Higher, "cluster: 2-rank block-sized sendrecv_replace with the stages' copies; moves mrec_per_s on dsort-poisson-2k, csort-os"),
    m("cluster.exchange_vs_memcpy", "ratio", Higher, "cluster: exchange_gbs / hw.memcpy_gbs"),
    // pdm: the timing Disk wrapper in the traced sorts, and OsDisk alone.
    m("pdm.read_ops", "count", Lower, "pdm: read calls per sort, all nodes"),
    m("pdm.write_ops", "count", Lower, "pdm: write calls per sort, all nodes"),
    m("pdm.read_mib", "MiB", Lower, "pdm: bytes read per sort"),
    m("pdm.write_mib", "MiB", Lower, "pdm: bytes written per sort"),
    m("pdm.read_busy_s", "s", Lower, "pdm: time inside read calls per sort, all nodes; moves mrec_per_s on csort-os, flat on the dsort workloads"),
    m("pdm.write_busy_s", "s", Lower, "pdm: time inside write calls per sort, all nodes; moves mrec_per_s on csort-os, flat on the dsort workloads"),
    m("pdm.read_us_p50", "us", Lower, "pdm: median read call"),
    m("pdm.read_us_p99", "us", Lower, "pdm: 99th-percentile read call"),
    m("pdm.write_us_p50", "us", Lower, "pdm: median write call"),
    m("pdm.write_us_p99", "us", Lower, "pdm: 99th-percentile write call"),
    m("pdm.flush_s", "s", Lower, "pdm: time inside flush per sort, all nodes"),
    m("pdm.errors", "count", Lower, "pdm: disk calls that failed per sort"),
    m("pdm.osdisk_write_mbs", "MB/s", Higher, "pdm: sequential OsDisk append at block size; moves mrec_per_s on csort-os"),
    m("pdm.osdisk_read_mbs", "MB/s", Higher, "pdm: sequential OsDisk read_at at block size; moves mrec_per_s on csort-os"),
    m("pdm.osdisk_write_vs_hw", "ratio", Higher, "pdm: osdisk_write_mbs / hw.file_write_mbs"),
    m("pdm.osdisk_read_vs_hw", "ratio", Higher, "pdm: osdisk_read_mbs / hw.file_read_mbs"),
    // hw: same-host references.
    m("hw.memcpy_gbs", "GB/s", Higher, "hw: copy bandwidth over a working set of at least 4x the LLC (reference only)"),
    m("hw.file_write_mbs", "MB/s", Higher, "hw: std::fs sequential write, same directory and block size (reference only)"),
    m("hw.file_read_mbs", "MB/s", Higher, "hw: std::fs sequential read, same directory and block size (reference only)"),
    // tracing.
    m("trace.overhead_frac", "frac", Lower, "tracing: median traced sort wall / median untraced - 1"),
];

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The wall time of one sort on a host that steals no CPU time, from the
/// `(wall, kept)` of each sort of a run, `kept` being the share of its wall
/// during which no CPU was stolen: the median of `wall * kept`.
///
/// A virtual machine's host takes CPU time from it in phases lasting
/// seconds to minutes, so raw walls of one program spread by a fifth to a
/// third between runs; scaling each sort's wall to the time it had every
/// CPU removes most of that.
pub fn unstolen_wall(sorts: &[(f64, f64)]) -> f64 {
    median(&sorts.iter().map(|(w, k)| w * k).collect::<Vec<_>>())
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Sorts attempted, warm-up included.
    pub attempted: u64,
    /// Sorts that failed, failed verification or miscounted.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// `(name, value)` for every metric of the catalogue printed.
    pub metrics: Vec<(&'static str, f64)>,
    /// Run metadata, printed on its own line.
    pub meta: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Count one attempt.
    pub fn record<T>(&mut self, res: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
                None
            }
        }
    }

    /// Sorts that verified over sorts attempted.
    pub fn verified_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric of `catalogue` once with its unit.  Errors
    /// when a metric is missing, repeated, unknown or not finite.
    pub fn result_json(&self, catalogue: &[MetricDef]) -> Result<String, String> {
        let mut parts = Vec::new();
        for def in catalogue {
            let mut found = self.metrics.iter().filter(|(n, _)| *n == def.name);
            let value = match (found.next(), found.next()) {
                (Some((_, v)), None) => *v,
                (None, _) => return Err(format!("metric {} was not measured", def.name)),
                (Some(_), Some(_)) => return Err(format!("metric {} measured twice", def.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", def.name));
            }
            parts.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
        if let Some((n, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !catalogue.iter().any(|d| d.name == *n))
        {
            return Err(format!("metric {n} is not in the catalogue"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }

    /// The metadata as one JSON object line.
    pub fn meta_json(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{k}\": \"{}\"",
                    v.replace('\\', "\\\\").replace('"', "\\\"")
                )
            })
            .collect();
        format!("{{\"meta\": {{{}}}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unstolen_wall_scales_each_sort_by_the_share_kept() {
        // Scaled: 1.0, 1.0, 3.6, 0.05, 1.0.
        let sorts = [(1.0, 1.0), (2.0, 0.5), (9.0, 0.4), (0.5, 0.1), (1.25, 0.8)];
        assert_eq!(unstolen_wall(&sorts), 1.0);
        assert_eq!(unstolen_wall(&[(0.7, 1.0)]), 0.7);
    }
}
