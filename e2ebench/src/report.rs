//! Metric collection, the layer map, and the result line.

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect()
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (pages or requests) attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output-check mismatches (verdicts, cascade replays, decode errors,
    /// lost tickets). Any mismatch makes the run incorrect.
    pub mismatches: u64,
    /// The metrics of the requested kind (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end metric (and workload) a per-layer metric should move.
/// Layers outside a workload's own path are measured by isolates in every
/// traced run; this map says where their changes should show.
pub fn moves(name: &str) -> &'static str {
    const MAP: &[(&str, &str)] = &[
        (
            "renderer.prefetch_ms",
            "p50_ms, page.overhead_pct @ page_cold",
        ),
        ("renderer.images_per_page", "context (count)"),
        ("renderer.", "p50_ms @ page_warm"),
        ("hook.", "page.overhead_pct @ page_cold"),
        ("imgcodec.decode_ms_per_page", "p50_ms @ page_warm"),
        ("imgcodec.", "imgcodec.decode_ms_per_page"),
        ("cascade.decide_us", "hook.ms_per_page @ page_warm"),
        ("cascade.", "p50_ms @ page_cold"),
        ("serve.hash_us", "p50_ms @ creative_stream"),
        ("serve.hint_us", "p50_ms @ creative_stream"),
        ("serve.submit_us", "p50_ms @ creative_stream"),
        ("serve.queue_wait_ms", "tail_ms @ creative_stream"),
        (
            "serve.batch_service_ms",
            "p50_ms @ creative_stream and @ page_cold",
        ),
        ("serve.batch_size", "cpu_ms_per_op @ creative_stream"),
        ("serve.memo_hit_share", "p50_ms @ page_warm"),
        ("serve.coalesced_share", "p50_ms @ page_warm"),
        ("serve.", "ok_share, tail_ms @ creative_stream"),
        ("ingest.resize_us", "serve.submit_us"),
        ("ingest.normalize_us", "p50_ms @ page_cold"),
        ("ingest.quantize_us", "p50_ms @ creative_stream"),
        ("plan.f32.b", "p50_ms @ page_cold"),
        ("plan.i8.b", "p50_ms, cpu_ms_per_op @ creative_stream"),
        ("plan.f32.gflops", "plan.f32.b1.forward_ms"),
        ("plan.i8.gflops", "plan.i8.b1.forward_ms"),
        ("plan.f32.op", "plan.f32.b8.forward_ms"),
        ("plan.i8.op", "plan.i8.b8.forward_ms"),
        ("gen.", "timing validity @ creative_stream"),
        (
            "page.overhead_pct",
            "the paper's render overhead @ page_cold",
        ),
        (
            "trace.",
            "tracing overhead (traced vs untraced p50, same run)",
        ),
    ];
    MAP.iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or("", |(_, m)| m)
}
