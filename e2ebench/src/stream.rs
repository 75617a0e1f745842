//! The `creative_stream` workload: one generator thread sends distinct,
//! pre-decoded creatives to an int8 `ClassificationService` on a seeded
//! Poisson schedule (open loop), polling outstanding tickets between
//! sends. Each request is timed from its due time to the moment its
//! verdict was observed.

use crate::inputs::{poisson_schedule, stamp, stream_pool};
use crate::isolates::{self, FrontCounts};
use crate::pages;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats;
use crate::system::{self, process_cpu_ns};
use percival_core::Precision;
use percival_imgcodec::Bitmap;
use percival_serve::{AdmissionHint, ServeTicket, Verdict};
use std::time::{Duration, Instant};

/// Arrival rate, creatives per second. Closed-loop capacity on a 2-core
/// AVX-512 host is about 92/s; at 30/s sheds stay rare.
pub const RATE: f64 = 30.0;
/// The latency limit: the service's default deadline.
pub const LIMIT_MS: f64 = 50.0;
/// Longest sleep between polls of outstanding tickets.
const POLL: Duration = Duration::from_micros(500);
/// Distinct pool creatives; requests reuse them with a unique stamp.
const POOL: usize = 96;
/// How long after the last send unresolved tickets count as lost.
const DRAIN: Duration = Duration::from_secs(10);

/// Timestamps of one request, in nanoseconds since the run's origin.
#[derive(Debug, Default, Clone, Copy)]
struct Request {
    due: u64,
    send: u64,
    hashed: u64,
    hinted: u64,
    submitted: u64,
    observed: Option<u64>,
    verdict: Option<Verdict>,
}

/// Runs the stream. `spans` is enabled for traced runs.
pub fn run(seed: u64, seconds: f64, spans: &Spans) -> Result<Outcome, String> {
    let model = system::model();
    let schedule = poisson_schedule(seed, RATE, seconds);
    let mut pool = stream_pool(seed, POOL);
    let (service, setup_s) = system::timed_setup(|| system::service(&model, Precision::Int8));
    system::warm_service(&service, seed);

    let origin = Instant::now() + Duration::from_millis(5);
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let mut reqs = vec![Request::default(); schedule.len()];
    let mut outstanding: Vec<(usize, ServeTicket)> = Vec::new();
    let (mut hint_hits, mut hint_sheds) = (0u64, 0u64);
    let poll = |outstanding: &mut Vec<(usize, ServeTicket)>, reqs: &mut [Request]| {
        outstanding.retain(|(i, ticket)| match ticket.poll() {
            Some(v) => {
                reqs[*i].observed = Some(ns(Instant::now()));
                reqs[*i].verdict = Some(v);
                false
            }
            None => true,
        });
    };
    let peak_reset = system::reset_peak_rss();
    let cpu0 = process_cpu_ns();
    for (i, offset) in schedule.iter().enumerate() {
        let due = origin + *offset;
        loop {
            poll(&mut outstanding, &mut reqs);
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(POLL));
        }
        // Untraced requests skip the per-stage clock reads.
        let traced = spans.enabled() && i % 2 == 1;
        let clock = || if traced { ns(Instant::now()) } else { 0 };
        let r = &mut reqs[i];
        r.due = ns(due);
        r.send = ns(Instant::now());
        // Submission copies what it needs, so the pool slot is free to be
        // restamped for a later request once `submit_with_key` returns.
        let bmp = &mut pool[i % POOL];
        stamp(bmp, i);
        let img = bmp.hashed();
        r.hashed = clock();
        let hint = service.admission_hint_with_key(&img);
        r.hinted = clock();
        match hint {
            AdmissionHint::Admit | AdmissionHint::WouldBlock { .. } => {
                let ticket = service.submit_with_key(&img);
                r.submitted = clock();
                outstanding.push((i, ticket));
            }
            AdmissionHint::Cached(v) => {
                hint_hits += 1;
                r.submitted = r.hinted;
                r.observed = Some(ns(Instant::now()));
                r.verdict = Some(v);
            }
            AdmissionHint::WouldShed => {
                hint_sheds += 1;
                r.submitted = r.hinted;
                r.observed = Some(ns(Instant::now()));
                r.verdict = Some(Verdict::Shed);
            }
        }
    }
    let last_send = Instant::now();
    while !outstanding.is_empty() && last_send.elapsed() < DRAIN {
        poll(&mut outstanding, &mut reqs);
        std::thread::sleep(POLL);
    }
    let cpu_ns = process_cpu_ns() - cpu0;
    // The timed phase's peak (the whole run's if the reset failed).
    let peak_rss_mb = system::peak_rss_mb().unwrap_or(0.0);
    let lost = outstanding.len() as u64;
    drop(outstanding);

    // Output checks against a sequential int8 reference.
    let reference = system::reference(&model, Precision::Int8);
    let mut expected = Vec::with_capacity(reqs.len());
    for first in (0..reqs.len()).step_by(POOL) {
        let batch: Vec<Bitmap> = (first..reqs.len().min(first + POOL))
            .map(|i| {
                let mut bmp = pool[i % POOL].clone();
                stamp(&mut bmp, i);
                bmp
            })
            .collect();
        let refs: Vec<&Bitmap> = batch.iter().collect();
        expected.extend(system::reference_verdicts(&reference, &refs));
    }
    let mut mismatches = lost;
    let mut failed = lost;
    let mut latency = Vec::with_capacity(reqs.len());
    let mut within_limit = 0u64;
    for (r, is_ad) in reqs.iter().zip(expected) {
        match (r.verdict, r.observed) {
            (Some(Verdict::Classified(p)), Some(obs)) => {
                if p.is_ad != is_ad {
                    mismatches += 1;
                    failed += 1;
                }
                let ms = (obs - r.due) as f64 / 1e6;
                if ms <= LIMIT_MS {
                    within_limit += 1;
                }
                latency.push(ms);
            }
            (Some(Verdict::Shed), _) => failed += 1,
            _ => {}
        }
    }
    let attempted = reqs.len() as u64;
    if attempted == 0 {
        return Err("empty schedule".into());
    }
    let mut out = Outcome {
        attempted,
        failed,
        mismatches,
        ..Default::default()
    };
    let late: Vec<f64> = reqs.iter().map(|r| (r.send - r.due) as f64 / 1e6).collect();
    out.notes.push(format!(
        "open loop at {RATE}/s: {attempted} requests, {lost} lost, {} shed, generator late p99 {:.3} ms",
        reqs.iter()
            .filter(|r| matches!(r.verdict, Some(Verdict::Shed)))
            .count(),
        stats::quantile(&late, 0.99)
    ));

    if !spans.enabled() {
        let tail =
            stats::windowed_tail(&latency).ok_or("too few classified requests for a tail")?;
        out.notes.push(format!(
            "tail_ms is the median p{:.2} of {} windows ({} classified requests); latency limit \
             {LIMIT_MS} ms: tail {}, {:.2}% of requests within the limit (sheds count as misses)",
            tail.percentile,
            tail.windows,
            tail.n,
            if tail.value <= LIMIT_MS {
                "PASS"
            } else {
                "FAIL"
            },
            within_limit as f64 / attempted as f64 * 100.0
        ));
        let m = &mut out.metrics;
        m.put("setup_s", setup_s, "s");
        m.put("p50_ms", stats::median(&latency), "ms");
        m.put("tail_ms", tail.value, "ms");
        m.put("ok_share", 1.0 - failed as f64 / attempted as f64, "share");
        m.put(
            "cpu_ms_per_op",
            cpu_ns as f64 / 1e6 / attempted as f64,
            "ms",
        );
        m.put("peak_rss_mb", peak_rss_mb, "MiB");
        if !peak_reset {
            out.notes
                .push("peak_rss_mb covers the whole run: VmHWM could not be reset".into());
        }
        return Ok(out);
    }

    // Traced run: every other request's stages become spans.
    let m = &mut out.metrics;
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let (mut hash, mut hint, mut submit) = (Vec::new(), Vec::new(), Vec::new());
    for (i, r) in reqs.iter().enumerate() {
        let Some(obs) = r.observed else { continue };
        let ms = (obs - r.due) as f64 / 1e6;
        if i % 2 == 0 {
            untraced_ms.push(ms);
            continue;
        }
        traced_ms.push(ms);
        let at = |t: u64| spans.at_ns(origin) + t;
        let id = i as u64;
        let req = spans.record("request", id, at(r.due), at(obs), None);
        spans.record("hash", id, at(r.send), at(r.hashed), req);
        spans.record("hint", id, at(r.hashed), at(r.hinted), req);
        spans.record("submit", id, at(r.hinted), at(r.submitted), req);
        spans.record("wait", id, at(r.submitted), at(obs), req);
        hash.push((r.hashed - r.send) as f64 / 1e3);
        hint.push((r.hinted - r.hashed) as f64 / 1e3);
        if r.submitted > r.hinted {
            submit.push((r.submitted - r.hinted) as f64 / 1e3);
        }
    }
    m.put("serve.hash_us", stats::mean(&hash), "us");
    m.put("serve.hint_us", stats::mean(&hint), "us");
    m.put("serve.submit_us", stats::mean(&submit), "us");
    m.put(
        "trace.overhead_pct",
        (stats::median(&traced_ms) / stats::median(&untraced_ms) - 1.0) * 100.0,
        "%",
    );
    m.put("gen.late_p99_ms", stats::quantile(&late, 0.99), "ms");
    let report = service.report();
    isolates::serve_metrics(
        m,
        &report,
        FrontCounts {
            cnn_bound: attempted,
            hint_hits,
            hint_sheds,
        },
    );
    drop(service);
    out.mismatches += pages::render_probe(seed, spans, m)?;
    isolates::ingest_and_plan(m, &model, &pool[..32], spans)?;
    Ok(out)
}
