//! Layer isolates for traced runs: each times calls into one layer from
//! the benchmark's own code, on the workload's own inputs.

use crate::report::Metrics;
use crate::spans::Spans;
use crate::stats;
use crate::system;
use percival_core::arch::{INPUT_CHANNELS, PAPER_INPUT_SIZE};
use percival_core::{Classifier, Precision};
use percival_imgcodec::{decode_auto, sniff_format, Bitmap, ImageFormat};
use percival_nn::{PlanProfile, Sequential};
use percival_serve::{AdmissionHint, ServiceReport};
use percival_tensor::gemm_i8::scale_for_max;
use percival_tensor::ingest::{normalize_into, quantize_planar_from_u8};
use percival_tensor::{Shape, Tensor, Workspace};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions of each isolate call.
const REPS: usize = 3;
/// Creatives the serve isolate submits.
const SERVE_CREATIVES: usize = 16;
/// Largest batch of the plan isolate.
const BIG_BATCH: usize = 8;

/// Decode costs per page and per format.
#[derive(Debug, Default)]
pub struct DecodeTally {
    page_ms: Vec<f64>,
    /// (nanoseconds, pixels) per format, in `FORMATS` order.
    by_format: [(u64, u64); 4],
}

const FORMATS: [(ImageFormat, &str); 4] = [
    (ImageFormat::Png, "png"),
    (ImageFormat::Gif, "gif"),
    (ImageFormat::Qoi, "qoi"),
    (ImageFormat::Bmp, "bmp"),
];

impl DecodeTally {
    /// Decodes one page's image set `REPS` times per image.
    pub fn page(&mut self, images: &[Vec<u8>], spans: &Spans, id: u64) {
        let mut page_ns = 0u64;
        for bytes in images {
            let fmt = sniff_format(bytes);
            let mut ns = 0u64;
            let mut px = 0u64;
            for _ in 0..REPS {
                let span = spans.open("decode", id, None);
                let t = Instant::now();
                let decoded = decode_auto(black_box(bytes));
                ns += t.elapsed().as_nanos() as u64;
                spans.close(span);
                px = decoded.map_or(0, |b| (b.width() * b.height()) as u64);
            }
            let ns = ns / REPS as u64;
            page_ns += ns;
            if let Some(slot) = FORMATS.iter().position(|(f, _)| Some(*f) == fmt) {
                self.by_format[slot].0 += ns;
                self.by_format[slot].1 += px;
            }
        }
        self.page_ms.push(page_ns as f64 / 1e6);
    }

    /// Emits `imgcodec.*` metrics.
    pub fn put(&self, m: &mut Metrics) {
        m.put(
            "imgcodec.decode_ms_per_page",
            stats::mean(&self.page_ms),
            "ms",
        );
        for ((_, name), (ns, px)) in FORMATS.iter().zip(self.by_format) {
            m.put(
                format!("imgcodec.{name}.ns_per_px"),
                ns as f64 / px.max(1) as f64,
                "ns",
            );
        }
    }
}

/// Request counts seen in front of the service (by the hook or the
/// stream generator), which the service's own counters cannot show.
pub struct FrontCounts {
    /// Requests that reached the admission decision (CNN-bound).
    pub cnn_bound: u64,
    /// Of those, verdicts the admission hint answered from the memo.
    pub hint_hits: u64,
    /// Of those, requests skipped because the hint predicted a shed.
    pub hint_sheds: u64,
}

/// `serve.*` counter metrics from a `ServiceReport` (counts only; its
/// latency histogram is never read).
pub fn serve_metrics(m: &mut Metrics, report: &ServiceReport, front: FrontCounts) {
    let sum = |f: &dyn Fn(&percival_serve::ShardReport) -> u64| -> f64 {
        report.shards.iter().map(f).sum::<u64>() as f64
    };
    let batches = sum(&|s| s.batches).max(1.0);
    let images = sum(&|s| s.batched_images).max(1.0);
    let cnn_bound = (front.cnn_bound as f64).max(1.0);
    m.put(
        "serve.queue_wait_ms",
        sum(&|s| s.queue_wait_ns) / images / 1e6,
        "ms",
    );
    m.put(
        "serve.batch_service_ms",
        sum(&|s| s.service_ns) / batches / 1e6,
        "ms",
    );
    m.put("serve.batch_size", images / batches, "count");
    m.put(
        "serve.memo_hit_share",
        (front.hint_hits as f64 + sum(&|s| s.memo_hits)) / cnn_bound,
        "share",
    );
    m.put(
        "serve.coalesced_share",
        sum(&|s| s.coalesced) / sum(&|s| s.submitted).max(1.0),
        "share",
    );
    m.put(
        "serve.shed_share",
        (front.hint_sheds as f64 + sum(&|s| s.shed())) / cnn_bound,
        "share",
    );
    m.put(
        "serve.stolen_share",
        sum(&|s| s.stolen_batches) / batches,
        "share",
    );
    let depth = report
        .shards
        .iter()
        .map(|s| s.max_queue_depth)
        .max()
        .unwrap_or(0);
    m.put("serve.max_queue_depth", depth as f64, "count");
}

/// Hash, hint and submit timed one creative at a time against a fresh
/// f32 service: the calls the page workloads' hook makes internally.
pub fn serve_isolate(
    m: &mut Metrics,
    model: &Sequential,
    creatives: &[Bitmap],
    spans: &Spans,
) -> Result<(), String> {
    if creatives.is_empty() {
        return Err("serve isolate: no CNN-bound creatives".into());
    }
    let service = system::service(model, Precision::F32);
    let (mut hash, mut hint, mut submit) = (Vec::new(), Vec::new(), Vec::new());
    for (i, bmp) in creatives.iter().take(SERVE_CREATIVES).enumerate() {
        let id = i as u64;
        let span = spans.open("hash", id, None);
        let t = Instant::now();
        let img = bmp.hashed();
        hash.push(t.elapsed().as_secs_f64() * 1e6);
        spans.close(span);
        let span = spans.open("hint", id, None);
        let t = Instant::now();
        let h = service.admission_hint_with_key(&img);
        hint.push(t.elapsed().as_secs_f64() * 1e6);
        spans.close(span);
        if let AdmissionHint::Cached(_) = h {
            continue;
        }
        let span = spans.open("submit", id, None);
        let t = Instant::now();
        let ticket = service.submit_with_key(&img);
        submit.push(t.elapsed().as_secs_f64() * 1e6);
        spans.close(span);
        // One request in flight at a time, like a page's single creative.
        ticket.wait();
    }
    m.put("serve.hash_us", stats::mean(&hash), "us");
    m.put("serve.hint_us", stats::mean(&hint), "us");
    m.put("serve.submit_us", stats::mean(&submit), "us");
    Ok(())
}

/// Ingest kernels and plan forward passes on the workload's creatives.
pub fn ingest_and_plan(
    m: &mut Metrics,
    model: &Sequential,
    creatives: &[Bitmap],
    spans: &Spans,
) -> Result<(), String> {
    if creatives.is_empty() {
        return Err("ingest isolate: no creatives".into());
    }
    let s = PAPER_INPUT_SIZE;
    let per_sample = INPUT_CHANNELS * s * s;
    let mut ws = Workspace::new();
    let (mut resize, mut normalize, mut quantize) = (Vec::new(), Vec::new(), Vec::new());
    let mut f32_dst = vec![0.0f32; per_sample];
    let mut i8_dst = vec![0i8; per_sample];
    for (i, bmp) in creatives.iter().enumerate() {
        for _ in 0..REPS {
            let span = spans.open("resize", i as u64, None);
            let t = Instant::now();
            let r = Classifier::resize_to(black_box(bmp), s, &mut ws);
            resize.push(t.elapsed().as_secs_f64() * 1e6);
            spans.close(span);
            let t = Instant::now();
            normalize_into(r.data(), s, &mut f32_dst);
            normalize.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            quantize_planar_from_u8(r.data(), s, scale_for_max(r.max_abs()), &mut i8_dst);
            quantize.push(t.elapsed().as_secs_f64() * 1e6);
            black_box((&f32_dst, &i8_dst));
            ws.recycle_u8(r.into_data());
        }
    }
    m.put("ingest.resize_us", stats::mean(&resize), "us");
    m.put("ingest.normalize_us", stats::mean(&normalize), "us");
    m.put("ingest.quantize_us", stats::mean(&quantize), "us");

    // Batch inputs built from the first creatives, cycled to fill 8.
    let batch: Vec<&Bitmap> = creatives.iter().cycle().take(BIG_BATCH).collect();
    let mut f32_in = Tensor::zeros(Shape::new(BIG_BATCH, INPUT_CHANNELS, s, s));
    let mut i8_in = vec![0i8; BIG_BATCH * per_sample];
    let mut maxes = [0.0f32; BIG_BATCH];
    for (i, bmp) in batch.iter().enumerate() {
        Classifier::preprocess_into(bmp, s, f32_in.sample_mut(i), &mut ws);
        let r = Classifier::resize_to(bmp, s, &mut ws);
        maxes[i] = r.max_abs();
        quantize_planar_from_u8(
            r.data(),
            s,
            scale_for_max(maxes[i]),
            &mut i8_in[i * per_sample..(i + 1) * per_sample],
        );
        ws.recycle_u8(r.into_data());
    }
    let f32_b1 = Tensor::from_vec(
        Shape::new(1, INPUT_CHANNELS, s, s),
        f32_in.sample(0).to_vec(),
    );
    let flops = model.flops(Shape::new(1, INPUT_CHANNELS, s, s)) as f64;
    for (precision, tier) in [(Precision::F32, "f32"), (Precision::Int8, "i8")] {
        let classifier = system::reference(model, precision);
        let mut b1_ms = 0.0;
        for n in [1, BIG_BATCH] {
            let profile = PlanProfile::new();
            let run = |ws: &mut Workspace| match precision {
                Precision::F32 => {
                    let input = if n == 1 { &f32_b1 } else { &f32_in };
                    let t = Instant::now();
                    black_box(classifier.classify_tensor_observed(input, ws, &profile));
                    t.elapsed()
                }
                Precision::Int8 => {
                    let t = Instant::now();
                    black_box(classifier.classify_quantized_observed(
                        &i8_in[..n * per_sample],
                        &maxes[..n],
                        ws,
                        &profile,
                    ));
                    t.elapsed()
                }
            };
            run(&mut ws); // warm-up
            profile.reset();
            let mut times = Vec::with_capacity(REPS);
            for _ in 0..REPS {
                let span = spans.open("plan.forward", n as u64, None);
                times.push(run(&mut ws).as_secs_f64() * 1e3);
                spans.close(span);
            }
            let forward_ms = stats::median(&times);
            m.put(format!("plan.{tier}.b{n}.forward_ms"), forward_ms, "ms");
            if n == 1 {
                b1_ms = forward_ms;
            } else {
                // Per-op totals of one batch-8 call, summed over the pool
                // threads the batch splits across.
                for op in profile.report() {
                    let kind = format!("{:?}", op.kind).to_lowercase();
                    m.put(
                        format!("plan.{tier}.op{:02}.{kind}.ms", op.index),
                        op.total_ns as f64 / REPS as f64 / 1e6,
                        "ms",
                    );
                }
            }
        }
        m.put(
            format!("plan.{tier}.gflops"),
            flops / (b1_ms / 1e3) / 1e9,
            "GFLOP/s",
        );
    }
    Ok(())
}
