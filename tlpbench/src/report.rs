//! Metric names and units, and the result line the benchmark prints last.

use std::collections::BTreeMap;

use crate::trace::Trace;

/// A reported metric: name and unit, as listed in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("rf", "ratio"),
    def("balance", "ratio"),
    def("peak_rss_mb", "MiB"),
];

/// End-to-end figures that untraced runs print in their record but not in
/// the result line, because no bound on them held between runs on a
/// shared two-vCPU virtual machine: `partition_s` on the offline
/// workloads, the serving figures on `serve-mixed`. Within ten minutes the
/// host's speed changed by up to 2x: over ten seeds, `partition_s` of
/// `tlp-powerlaw` read 4.3-4.4 s for four runs and 7.5-7.7 s for the next
/// four, and with steal time between 3% and 29% the closed loop's
/// throughput ranged from 8.7k to 27k ops/s.
pub const UNBOUNDED: &[MetricDef] = &[
    def("partition_s", "s"),
    def("ops_s", "ops/s"),
    def("lookup_p50_us", "us"),
    def("lookup_p99_us", "us"),
    def("place_p50_us", "us"),
    def("place_p99_us", "us"),
];

/// Per-layer metrics, printed by traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    def("graph.parse_ms", "ms"),
    def("store.write_graph_ms", "ms"),
    def("store.graph_bytes", "bytes"),
    def("store.open_ms", "ms"),
    def("store.stream_pass_ms", "ms"),
    def("store.chunks", "count"),
    def("store.write_partition_ms", "ms"),
    def("store.partition_bytes", "bytes"),
    def("store.fsyncs", "count"),
    def("pipeline.run_ms", "ms"),
    def("core.metrics_ms", "ms"),
    def("core.round_ms", "ms"),
    def("core.rounds", "count"),
    def("core.selects", "count"),
    def("core.rescored", "count"),
    def("core.kernel_probes", "count"),
    def("core.kernel_counts", "count"),
    def("core.rescore_skip_ratio", "ratio"),
    def("core.kernel_reuse_ratio", "ratio"),
    def("baselines.peak_buffer_edges", "edges"),
    def("serve.open_ms", "ms"),
    def("serve.handle_lookup_p50_us", "us"),
    def("serve.handle_place_p50_us", "us"),
    def("serve.transport_p50_us", "us"),
    def("serve.cache_hit_ratio", "ratio"),
    def("serve.cache_evictions", "count"),
    def("serve.wal_appends", "count"),
    def("serve.fresh_place_ratio", "ratio"),
    def("serve.overloads", "count"),
    def("serve.protocol_errors", "count"),
    def("serve.client_retries", "count"),
    def("obs.overhead_frac", "fraction"),
];

/// What one run of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Correctness-gate failures; empty when the run is correct.
    pub gate_errors: Vec<String>,
    /// Operations attempted: set-up passes, partitioning passes, server
    /// opens and requests.
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or ran out of
    /// retries.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable record of the inputs and sample counts.
    pub notes: Vec<String>,
    /// The folded trace of a traced run.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// True when every gate check passed.
    pub fn correct(&self) -> bool {
        self.gate_errors.is_empty()
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed`, and every metric
    /// of `defs` with its unit. A metric that is missing or not finite
    /// fails the gate and prints as 0.
    pub fn json_line(&mut self, defs: &[MetricDef]) -> String {
        let mut fields = Vec::with_capacity(defs.len());
        for d in defs {
            let value = match self.metrics.get(d.name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    self.gate_errors
                        .push(format!("metric {} is {other:?}", d.name));
                    0.0
                }
            };
            fields.push(format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }

    /// Aligned `name value unit` lines for the metrics of `defs` that the
    /// run measured.
    pub fn render(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in defs {
            if let Some(value) = self.metrics.get(d.name) {
                out.push_str(&format!("  {:<30} {:>16.4} {}\n", d.name, value, d.unit));
            }
        }
        out
    }
}
