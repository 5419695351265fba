//! The metric catalog and the three renderings of a run: `name value unit`
//! lines, the one-line summary a harness reads, and the `ledger-v1` result
//! file the comparison tool reads.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(name: &str) -> Option<Better> {
        match name {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// How a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// End to end, measured untraced on every workload, with a regression
    /// bound.
    Gated,
    /// End to end, measured on the workloads where it exists; reported
    /// without a bound.
    Extra,
    /// A single layer, measured in the traced run on every workload.
    Layer,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: Option<f64>,
    pub kind: Kind,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        kind: Kind::Gated,
    }
}

const fn extra(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        kind: Kind::Extra,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        kind: Kind::Layer,
    }
}

use Better::{Higher, Lower};

/// Every metric the ledger reports. `BENCHMARK.json` mirrors the gated and
/// layer entries (a test keeps the two in step).
pub const METRICS: &[MetricDef] = &[
    gated("setup_s", "s", Lower, 0.25),
    gated("points_per_s", "samples/s", Higher, 0.25),
    gated("op_p50_ms", "ms", Lower, 0.25),
    gated("peak_heap_mb", "MiB", Lower, 0.1),
    extra("peak_rss_mb", "MiB"),
    extra("error_rate", "failed/attempted"),
    extra("query_p95_ms", "ms"),
    extra("stall_p99_ms", "ms"),
    extra("checkpoint_p50_ms", "ms"),
    layer("datasets.decode_s", "s", Lower),
    layer("datasets.blocks_read_share", "share", Lower),
    layer("trajectory.sweep_s", "s", Lower),
    layer("trajectory.snapshot_points", "count", Lower),
    layer("clustering.cluster_s", "s", Lower),
    layer("clustering.ns_per_point", "ns", Lower),
    layer("clustering.clustered_share", "share", Higher),
    layer("core.fold_s", "s", Lower),
    layer("core.peak_candidates", "count", Lower),
    layer("core.engine_s", "s", Lower),
    layer("core.parallel_speedup", "x", Higher),
    layer("simplify.simplify_s", "s", Lower),
    layer("simplify.reduction_pct", "%", Higher),
    layer("core.cuts.filter_s", "s", Lower),
    layer("core.cuts.candidates", "count", Lower),
    layer("core.cuts.refine_s", "s", Lower),
    layer("core.cuts.refinement_units", "count", Lower),
    layer("stream.feed_order_s", "s", Lower),
    layer("stream.push_s", "s", Lower),
    layer("stream.close_s", "s", Lower),
    layer("stream.partitions_closed", "count", Lower),
    layer("stream.peak_samples_buffered", "count", Lower),
    layer("stream.checkpoint_s", "s", Lower),
    layer("stream.checkpoint_bytes", "bytes", Lower),
    layer("stream.finish_s", "s", Lower),
    layer("stream.restore_s", "s", Lower),
    layer("unattributed_s", "s", Lower),
];

/// The catalog entry for `name`.
pub fn def(name: &str) -> &'static MetricDef {
    METRICS
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

/// One measured metric: the reported value and how many samples it
/// summarizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub why: &'static str,
    pub seed: u64,
    pub scale: f64,
    pub seconds: f64,
    pub traced: bool,
    pub threads: usize,
    /// Whether the peak-RSS counter was reset after set-up; when false,
    /// `peak_rss_mb` includes the set-up's own peak.
    pub rss_reset: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: u64,
    pub metrics: Vec<Measured>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The metrics a harness gates on: the end-to-end set untraced, the
    /// layer set traced.
    fn summary_metrics(&self) -> impl Iterator<Item = &Measured> {
        let kind = if self.traced {
            Kind::Layer
        } else {
            Kind::Gated
        };
        self.metrics
            .iter()
            .filter(move |m| def(m.name).kind == kind)
    }

    /// Human-readable report: comment lines, then `name value unit`.
    pub fn render_lines(&self) -> String {
        let mut out = format!(
            "# workload {} seed {} scale {} seconds {} traced {} threads {}\n# why: {}\n",
            self.workload, self.seed, self.scale, self.seconds, self.traced, self.threads, self.why
        );
        out.push_str(&format!(
            "# operations {} attempted, {} failed; digest {:016x}\n",
            self.attempted, self.failed, self.digest
        ));
        if !self.rss_reset {
            out.push_str("# peak RSS counter could not be reset: peak_rss_mb includes set-up\n");
        }
        for failure in &self.failures {
            out.push_str(&format!("# failed: {failure}\n"));
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "{} {} {}  # n={}\n",
                m.name,
                m.value,
                def(m.name).unit,
                m.samples
            ));
        }
        out
    }

    /// The one-line summary: `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary_json(&self) -> String {
        summary_line(
            self.correct(),
            self.attempted,
            self.failed,
            self.summary_metrics()
                .map(|m| (m.name.to_string(), m.value, def(m.name).unit)),
        )
    }

    /// The `ledger-v1` result document (see `ledger-v1.schema.json`).
    pub fn result_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"ledger-v1\",\n");
        out.push_str(&format!("  \"workload\": \"{}\",\n", self.workload));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"scale\": {},\n", number(self.scale)));
        out.push_str(&format!("  \"seconds\": {},\n", number(self.seconds)));
        out.push_str(&format!("  \"traced\": {},\n", self.traced));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"rss_reset\": {},\n", self.rss_reset));
        out.push_str(&format!("  \"correct\": {},\n", self.correct()));
        out.push_str(&format!("  \"attempted\": {},\n", self.attempted));
        out.push_str(&format!("  \"failed\": {},\n", self.failed));
        out.push_str(&format!("  \"digest\": \"{:016x}\",\n", self.digest));
        out.push_str("  \"failures\": [");
        for (i, failure) in self.failures.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            out.push_str(&format!("{sep}{}", json_string(failure)));
        }
        out.push_str("],\n  \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let d = def(m.name);
            let sep = if i == 0 { "\n" } else { ",\n" };
            let bound = d.bound.map_or("null".to_string(), number);
            out.push_str(&format!(
                "{sep}    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \
                 \"bound\": {bound}, \"samples\": {}}}",
                m.name,
                number(m.value),
                d.unit,
                d.better.name(),
                m.samples
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Renders the summary line from its parts (also used for `--all`).
pub fn summary_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, f64, &'static str)>,
) -> String {
    let body: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_string(&name),
                number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit of the shortest round-trip form. Values
/// are finite by construction; a non-finite one is a bug in the runner.
fn number(value: f64) -> String {
    assert!(value.is_finite(), "metric value {value} is not finite");
    format!("{value}")
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
