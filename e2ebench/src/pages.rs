//! The page workloads: one closed-loop client loading corpus pages with
//! PERCIVAL (the serving hook behind the cascade) in the render path.
//!
//! Every page renders twice, hooked and with `NoopInterceptor`, in
//! alternating order. The hooked render goes through [`Wrapper`], which
//! forwards all three interceptor methods to the `ServiceHook` and logs
//! what each image was decided, so the run can be checked afterwards.

use crate::inputs::{page_chunk, PageChunk};
use crate::isolates::{self, DecodeTally};
use crate::report::{Metrics, Outcome};
use crate::spans::{self, Spans};
use crate::stats;
use crate::system::{self, process_cpu_ns};
use percival_core::cascade::{Cascade, CascadeConfig, CascadeDecision, CascadeSnapshot};
use percival_core::{Classifier, Precision};
use percival_imgcodec::{decode_auto, Bitmap};
use percival_nn::Sequential;
use percival_renderer::net::AllowAll;
use percival_renderer::{
    ImageInterceptor, ImageMeta, InterceptAction, NoopInterceptor, PipelineConfig, RenderPipeline,
    RenderTiming, ResourceStore, StructuralFeatures,
};
use percival_serve::{AdmissionHint, ServiceHook, ServiceReport};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sites and pages per site of one `page_cold` chunk (40 pages); chunks
/// are generated between timed segments and dropped after checking, so
/// memory does not grow with the number of pages a run gets through.
const COLD_CHUNK: (usize, usize) = (8, 5);
/// The fixed page set `page_warm` cycles through (128 pages).
const WARM_SET: (usize, usize) = (32, 8);
/// Pages of the render isolate that `creative_stream` traced runs use.
const PROBE_SET: (usize, usize) = (6, 4);
/// Traced pages whose images the decode isolate replays.
const DECODE_PAGES: usize = 24;
/// First page id of the render isolate (distinct from workload ids).
const PROBE_IDS: u64 = 1 << 40;
/// Distinct CNN-bound creatives kept for the serve, ingest and plan
/// isolates.
const CREATIVE_POOL: usize = 32;

/// Which page workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Each page once, against a fresh service.
    Cold,
    /// A fixed page set, after an untimed pass filled the verdict memo.
    Warm,
}

/// One image as the hooked render decided it.
struct Logged {
    url: String,
    source_url: String,
    structural: Option<StructuralFeatures>,
    action: InterceptAction,
}

/// Forwards every interceptor method to the serving hook, timing the
/// calls as spans and logging each decision.
struct Wrapper<'a> {
    hook: &'a ServiceHook,
    spans: &'a Spans,
    parent: Option<usize>,
    page: u64,
    log: Mutex<Vec<Logged>>,
    calls: AtomicU64,
}

impl Wrapper<'_> {
    fn note(&self, meta: &ImageMeta<'_>, action: InterceptAction) -> Logged {
        Logged {
            url: meta.url.to_string(),
            source_url: meta.source_url.to_string(),
            structural: meta.structural,
            action,
        }
    }
}

impl ImageInterceptor for Wrapper<'_> {
    fn inspect(&self, bitmap: &mut Bitmap, meta: &ImageMeta<'_>) -> InterceptAction {
        let span = self.spans.open("hook.inspect", self.page, self.parent);
        let action = self.hook.inspect(bitmap, meta);
        self.spans.close(span);
        self.calls.fetch_add(1, Ordering::Relaxed);
        let logged = self.note(meta, action);
        self.log.lock().expect("wrapper log").push(logged);
        action
    }

    fn inspect_batch(&self, batch: &mut [(&mut Bitmap, &ImageMeta<'_>)]) -> Vec<InterceptAction> {
        let span = self
            .spans
            .open("hook.inspect_batch", self.page, self.parent);
        let actions = self.hook.inspect_batch(batch);
        self.spans.close(span);
        self.calls.fetch_add(1, Ordering::Relaxed);
        let logged: Vec<Logged> = batch
            .iter()
            .zip(&actions)
            .map(|((_, meta), &a)| self.note(meta, a))
            .collect();
        self.log.lock().expect("wrapper log").extend(logged);
        actions
    }

    fn prefers_batch_prefetch(&self) -> bool {
        self.hook.prefers_batch_prefetch()
    }
}

/// One page load: the hooked render, and the no-hook render unless this
/// was a warming pass.
struct PageLoad {
    id: u64,
    traced: bool,
    hooked_ms: f64,
    noop_ms: Option<f64>,
    timing: RenderTiming,
    image_items: usize,
    render_failed: bool,
    decode_errors: usize,
    sheds: u64,
    calls: u64,
    render_span: Option<usize>,
    /// Decisions the hooked render logged; emptied once the page has been
    /// checked, so memory does not grow with the pages a run gets through.
    log: Vec<Logged>,
    /// How many decisions were logged.
    logged: usize,
}

/// The hook's fail-open counters (predicted sheds, over-budget skips and
/// sheds after admission).
fn hook_sheds(hook: &ServiceHook) -> u64 {
    let s = hook.stats();
    s.skipped_shed() + s.skipped_blocked() + s.shed_after_admit()
}

/// Everything a page run shares.
struct Ctx<'a> {
    pipe: RenderPipeline,
    hook: &'a ServiceHook,
    spans: &'a Spans,
    off: Spans,
}

impl<'a> Ctx<'a> {
    /// Program defaults, except one raster thread per core.
    fn new(hook: &'a ServiceHook, spans: &'a Spans) -> Self {
        Ctx {
            pipe: RenderPipeline::new(PipelineConfig {
                raster_threads: system::nproc(),
                ..Default::default()
            }),
            hook,
            spans,
            off: Spans::new(false),
        }
    }

    /// Renders `url` hooked and (when `with_noop`) unhooked, in the order
    /// `hooked_first` picks.
    fn load(
        &self,
        store: &dyn ResourceStore,
        url: &str,
        id: u64,
        traced: bool,
        with_noop: bool,
        hooked_first: bool,
    ) -> PageLoad {
        let spans = if traced { self.spans } else { &self.off };
        let page_span = spans.open("page", id, None);
        let sheds_before = hook_sheds(self.hook);
        let noop = |out: &mut Option<f64>| {
            let span = spans.open("render.noop", id, page_span);
            let t = Instant::now();
            let ok = self
                .pipe
                .render(store, url, &NoopInterceptor, &AllowAll, &[])
                .is_ok();
            *out = ok.then(|| t.elapsed().as_secs_f64() * 1e3);
            spans.close(span);
        };
        let mut noop_ms = None;
        if with_noop && !hooked_first {
            noop(&mut noop_ms);
        }
        let render_span = spans.open("render", id, page_span);
        let wrapper = Wrapper {
            hook: self.hook,
            spans,
            parent: render_span,
            page: id,
            log: Mutex::new(Vec::new()),
            calls: AtomicU64::new(0),
        };
        let t = Instant::now();
        let out = self.pipe.render(store, url, &wrapper, &AllowAll, &[]);
        let hooked_ms = t.elapsed().as_secs_f64() * 1e3;
        spans.close(render_span);
        if with_noop && hooked_first {
            noop(&mut noop_ms);
        }
        spans.close(page_span);
        let log = wrapper.log.into_inner().expect("wrapper log");
        let logged = log.len();
        let (timing, image_items, decode_errors) = match &out {
            Ok(o) => (o.timing, o.stats.image_items, o.stats.decode_errors),
            Err(_) => (RenderTiming::default(), 0, 0),
        };
        PageLoad {
            id,
            traced,
            hooked_ms,
            noop_ms,
            timing,
            image_items,
            render_failed: out.is_err() || (with_noop && noop_ms.is_none()),
            decode_errors,
            sheds: hook_sheds(self.hook) - sheds_before,
            calls: wrapper.calls.load(Ordering::Relaxed),
            render_span,
            log,
            logged,
        }
    }
}

/// Output checks and the isolates that need a chunk's store.
struct Checker<'a> {
    reference: Classifier,
    /// Replays every logged decision; its counters must end equal to the
    /// run's cascade counters.
    cascade: Cascade,
    /// Reference verdict (is-ad) per CNN-bound URL of the current chunk.
    verdicts: HashMap<String, bool>,
    mismatches: u64,
    references: u64,
    decide_ns: u64,
    decides: u64,
    creatives: Vec<Bitmap>,
    decode: DecodeTally,
    decode_pages: usize,
    spans: &'a Spans,
}

impl<'a> Checker<'a> {
    fn new(model: &Sequential, spans: &'a Spans) -> Self {
        Checker {
            reference: system::reference(model, Precision::F32),
            cascade: Cascade::synthetic_with(CascadeConfig::default()),
            verdicts: HashMap::new(),
            mismatches: 0,
            references: 0,
            decide_ns: 0,
            decides: 0,
            creatives: Vec::new(),
            decode: DecodeTally::default(),
            decode_pages: 0,
            spans,
        }
    }

    /// Starts a new chunk (URLs are only unique within one chunk).
    fn next_chunk(&mut self) {
        self.verdicts.clear();
    }

    /// Checks loads against the cascade replay and the sequential
    /// reference; returns how many pages failed. Keep-for-Block
    /// differences up to a page's shed count are fail-open sheds, not
    /// mismatches.
    fn check(&mut self, store: &dyn ResourceStore, loads: &[PageLoad]) -> u64 {
        let t = Instant::now();
        let decisions: Vec<Vec<CascadeDecision>> = loads
            .iter()
            .map(|load| {
                load.log
                    .iter()
                    .map(|l| {
                        self.cascade
                            .decide(&l.url, &l.source_url, l.structural.as_ref())
                    })
                    .collect()
            })
            .collect();
        self.decide_ns += t.elapsed().as_nanos() as u64;
        self.decides += decisions.iter().map(Vec::len).sum::<usize>() as u64;

        // Reference verdicts for CNN-bound images not seen before.
        let mut fresh: Vec<(&str, Bitmap)> = Vec::new();
        for (load, ds) in loads.iter().zip(&decisions) {
            for (l, d) in load.log.iter().zip(ds) {
                let known =
                    self.verdicts.contains_key(&l.url) || fresh.iter().any(|(u, _)| *u == l.url);
                if *d != CascadeDecision::Classify || known {
                    continue;
                }
                match store.get_image(&l.url).map(|b| decode_auto(&b)) {
                    Some(Ok(bitmap)) => fresh.push((&l.url, bitmap)),
                    // The render decoded it, so the store must too.
                    _ => self.mismatches += 1,
                }
            }
        }
        let bitmaps: Vec<&Bitmap> = fresh.iter().map(|(_, b)| b).collect();
        let verdicts = system::reference_verdicts(&self.reference, &bitmaps);
        self.references += verdicts.len() as u64;
        for ((url, bitmap), is_ad) in fresh.into_iter().zip(verdicts) {
            self.verdicts.insert(url.to_string(), is_ad);
            if self.creatives.len() < CREATIVE_POOL {
                self.creatives.push(bitmap);
            }
        }

        let mut failed = 0;
        for (load, ds) in loads.iter().zip(decisions) {
            let (mut keep_for_block, mut block_for_keep) = (0u64, 0u64);
            for (l, d) in load.log.iter().zip(ds) {
                let expect_block = match d {
                    CascadeDecision::Block(_) => true,
                    CascadeDecision::Keep(_) => false,
                    CascadeDecision::Classify => match self.verdicts.get(&l.url) {
                        Some(&is_ad) => is_ad,
                        None => continue, // already counted above
                    },
                };
                match (expect_block, l.action) {
                    (true, InterceptAction::Keep) => keep_for_block += 1,
                    (false, InterceptAction::Block) => block_for_keep += 1,
                    _ => {}
                }
            }
            let unexplained = keep_for_block.saturating_sub(load.sheds) + block_for_keep;
            self.mismatches +=
                unexplained + load.decode_errors as u64 + u64::from(load.render_failed);
            if load.render_failed || load.decode_errors > 0 || load.sheds > 0 || unexplained > 0 {
                failed += 1;
            }
        }
        failed
    }

    /// The decode isolate over one traced page's images.
    fn decode_isolate(&mut self, store: &dyn ResourceStore, load: &PageLoad) {
        if !load.traced || self.decode_pages >= DECODE_PAGES {
            return;
        }
        self.decode_pages += 1;
        let mut urls: Vec<&str> = load.log.iter().map(|l| l.url.as_str()).collect();
        urls.sort_unstable();
        urls.dedup();
        let images: Vec<Vec<u8>> = urls.iter().filter_map(|u| store.get_image(u)).collect();
        self.decode.page(&images, self.spans, load.id);
    }

    /// Compares the replayed tier counts with the run's; returns the
    /// number of requests whose tier differs.
    fn cascade_diff(&self, run: Option<CascadeSnapshot>) -> u64 {
        let replay = self.cascade.counters().snapshot();
        let run = run.unwrap_or_default();
        let d = |a: u64, b: u64| a.abs_diff(b);
        d(replay.requests, run.requests)
            .max(d(replay.tier0_blocked, run.tier0_blocked))
            .max(d(replay.tier0_exempted, run.tier0_exempted))
            .max(d(replay.tier1_blocked, run.tier1_blocked))
            .max(d(replay.tier1_kept, run.tier1_kept))
            .max(d(replay.cnn_residual, run.cnn_residual))
    }
}

/// What a page run hands back: the timed loads plus run-wide counters.
struct PageRun {
    loads: Vec<PageLoad>,
    failed: u64,
    cpu_ns: u64,
    /// Gaps between one page's end and the next page's start.
    gaps_ms: Vec<f64>,
    /// Peak RSS of each timed segment, from a VmHWM reset at its start;
    /// `None` once a reset failed.
    peaks_mb: Option<Vec<f64>>,
}

impl Default for PageRun {
    fn default() -> Self {
        PageRun {
            loads: Vec::new(),
            failed: 0,
            cpu_ns: 0,
            gaps_ms: Vec::new(),
            peaks_mb: Some(Vec::new()),
        }
    }
}

impl PageRun {
    /// The median of the segments' peak RSS, which leaves out input
    /// generation and output checks and, unlike one whole-run high-water
    /// mark, does not hinge on a single segment. Falls back to the
    /// process's VmHWM when a reset failed.
    fn peak_rss_mb(&self) -> f64 {
        match &self.peaks_mb {
            Some(p) if !p.is_empty() => stats::median(p),
            _ => system::peak_rss_mb().unwrap_or(0.0),
        }
    }
}

/// Renders pages of `chunk` in order until `budget_s` of timed wall time
/// has been spent (or the chunk is exhausted), checking each page.
#[allow(clippy::too_many_arguments)]
fn timed_segment(
    ctx: &Ctx<'_>,
    checker: &mut Checker<'_>,
    chunk: &PageChunk,
    next_id: &mut u64,
    timed_s: &mut f64,
    budget_s: f64,
    run: &mut PageRun,
) {
    let mut segment = Vec::new();
    let reset = system::reset_peak_rss();
    let cpu0 = process_cpu_ns();
    let mut prev_end: Option<Instant> = None;
    for url in &chunk.pages {
        if *timed_s >= budget_s {
            break;
        }
        let id = *next_id;
        *next_id += 1;
        let start = Instant::now();
        if let Some(end) = prev_end {
            run.gaps_ms
                .push(start.duration_since(end).as_secs_f64() * 1e3);
        }
        let traced = ctx.spans.enabled() && id % 2 == 1;
        let load = ctx.load(&chunk.store, url, id, traced, true, id.is_multiple_of(2));
        let end = Instant::now();
        *timed_s += end.duration_since(start).as_secs_f64();
        prev_end = Some(end);
        segment.push(load);
    }
    run.cpu_ns += process_cpu_ns() - cpu0;
    match (reset, system::peak_rss_mb(), &mut run.peaks_mb) {
        (true, Some(mb), Some(peaks)) => peaks.push(mb),
        _ => run.peaks_mb = None,
    }
    run.failed += checker.check(&chunk.store, &segment);
    for mut load in segment {
        checker.decode_isolate(&chunk.store, &load);
        load.log = Vec::new();
        run.loads.push(load);
    }
}

/// An untimed, hooked-only pass over `pages`, checked like timed ones.
/// Every CNN-bound creative of the chunk the hook did not get memoized
/// (it shed or skipped it) is then classified directly with a long
/// deadline, so the verdict memo holds all of them. Returns how many
/// creatives needed that.
fn warming_pass(
    ctx: &Ctx<'_>,
    checker: &mut Checker<'_>,
    chunk: &PageChunk,
    next_id: &mut u64,
) -> Result<u64, String> {
    let loads: Vec<PageLoad> = chunk
        .pages
        .iter()
        .map(|url| {
            *next_id += 1;
            ctx.load(&chunk.store, url, *next_id, false, false, true)
        })
        .collect();
    checker.check(&chunk.store, &loads);
    let service = ctx.hook.service();
    let mut filled = 0;
    for url in checker.verdicts.keys() {
        let bytes = chunk
            .store
            .get_image(url)
            .ok_or("CNN-bound image left the store")?;
        let bitmap = decode_auto(&bytes).map_err(|e| format!("{url}: {e}"))?;
        if !matches!(service.admission_hint(&bitmap), AdmissionHint::Cached(_)) {
            service
                .submit_with_deadline(&bitmap, system::UNTIMED_DEADLINE)
                .wait();
            filled += 1;
        }
    }
    Ok(filled)
}

/// Runs a page workload. `spans` is enabled for traced runs.
pub fn run(mode: Mode, seed: u64, seconds: f64, spans: &Spans) -> Result<Outcome, String> {
    let model = system::model();
    let mut checker = Checker::new(&model, spans);
    // Input generation comes first and is excluded from every timing.
    let warmup = page_chunk(seed, u64::MAX, 1, 2)?;
    let (hook, setup_s) = system::timed_setup(|| system::page_hook(&model));
    let ctx = Ctx::new(&hook, spans);
    let mut notes = Vec::new();
    let mut next_id = 1_000_000u64;
    // Lazy set-up (thread pools, workspaces, each shard's service-time
    // estimate, the renderer) finishes before timing starts.
    system::warm_service(hook.service(), seed);
    warming_pass(&ctx, &mut checker, &warmup, &mut next_id)?;
    checker.next_chunk();
    drop(warmup);

    let mut run = PageRun::default();
    let mut timed_s = 0.0;
    let mut next_id_timed = 0u64;
    let mut pngs = 0;
    let mut pages_generated = 0;
    match mode {
        Mode::Cold => {
            let mut chunk_idx = 0u64;
            while timed_s < seconds {
                let chunk = page_chunk(seed, chunk_idx, COLD_CHUNK.0, COLD_CHUNK.1)?;
                pngs += chunk.pngs;
                pages_generated += chunk.pages.len();
                timed_segment(
                    &ctx,
                    &mut checker,
                    &chunk,
                    &mut next_id_timed,
                    &mut timed_s,
                    seconds,
                    &mut run,
                );
                checker.next_chunk();
                chunk_idx += 1;
            }
        }
        Mode::Warm => {
            let chunk = page_chunk(seed, 0, WARM_SET.0, WARM_SET.1)?;
            pngs += chunk.pngs;
            pages_generated += chunk.pages.len();
            let filled = warming_pass(&ctx, &mut checker, &chunk, &mut next_id)?;
            let submitted_before = hook.service().report().submitted();
            while timed_s < seconds {
                timed_segment(
                    &ctx,
                    &mut checker,
                    &chunk,
                    &mut next_id_timed,
                    &mut timed_s,
                    seconds,
                    &mut run,
                );
            }
            let resubmitted = hook.service().report().submitted() - submitted_before;
            notes.push(format!(
                "memo: {filled} creatives the warming pass shed were classified directly; \
                 {resubmitted} submissions reached the service after warming"
            ));
        }
    }
    let report = hook.service().report();
    let cascade_diff = checker.cascade_diff(report.cascade);
    checker.mismatches += cascade_diff;
    notes.push(format!(
        "inputs: {pages_generated} pages generated, {pngs} PNGs re-encoded with compressed IDAT"
    ));
    notes.push(format!(
        "checks: {} logged decisions replayed through the cascade ({} tier-count differences), \
         {} reference classifications",
        checker.decides, cascade_diff, checker.references
    ));

    let attempted = run.loads.len() as u64;
    let mut out = Outcome {
        attempted,
        failed: run.failed,
        mismatches: checker.mismatches,
        notes,
        ..Default::default()
    };
    if attempted == 0 {
        return Err("no page completed".into());
    }
    if !spans.enabled() {
        let hooked: Vec<f64> = run.loads.iter().map(|l| l.hooked_ms).collect();
        let tail = stats::windowed_tail(&hooked).ok_or("too few pages for a tail")?;
        let m = &mut out.metrics;
        m.put("setup_s", setup_s, "s");
        m.put("p50_ms", stats::median(&hooked), "ms");
        m.put("tail_ms", tail.value, "ms");
        m.put(
            "ok_share",
            1.0 - run.failed as f64 / attempted as f64,
            "share",
        );
        m.put(
            "cpu_ms_per_op",
            run.cpu_ns as f64 / 1e6 / attempted as f64,
            "ms",
        );
        m.put("peak_rss_mb", run.peak_rss_mb(), "MiB");
        if let Some(peaks) = &run.peaks_mb {
            out.notes.push(format!(
                "peak_rss_mb is the median of {} timed segments' peaks (lowest {:.1}, highest {:.1} MiB)",
                peaks.len(),
                stats::quantile(peaks, 0.0),
                stats::quantile(peaks, 1.0)
            ));
        }
        let noop: Vec<f64> = run.loads.iter().filter_map(|l| l.noop_ms).collect();
        out.notes.push(format!(
            "tail_ms is the median p{:.2} of {} windows ({} hooked page renders); \
             no-hook p50 {:.3} ms; overhead {:.2}%",
            tail.percentile,
            tail.windows,
            tail.n,
            stats::median(&noop),
            overhead_pct(run.loads.iter())
        ));
        return Ok(out);
    }

    let m = &mut out.metrics;
    // Untraced pages give the render overhead free of span recording.
    page_layer_metrics(m, &run, spans, &checker, |l| !l.traced);
    let untraced: Vec<f64> = run
        .loads
        .iter()
        .filter(|l| !l.traced)
        .map(|l| l.hooked_ms)
        .collect();
    let traced: Vec<f64> = run
        .loads
        .iter()
        .filter(|l| l.traced)
        .map(|l| l.hooked_ms)
        .collect();
    m.put(
        "trace.overhead_pct",
        (stats::median(&traced) / stats::median(&untraced) - 1.0) * 100.0,
        "%",
    );
    m.put("gen.late_p99_ms", stats::quantile(&run.gaps_ms, 0.99), "ms");
    isolates::serve_metrics(m, &report, hook_counts(&hook, &report));
    let creatives = std::mem::take(&mut checker.creatives);
    isolates::serve_isolate(m, &model, &creatives, spans)?;
    isolates::ingest_and_plan(m, &model, &creatives, spans)?;
    Ok(out)
}

/// Counts the serving metrics need from the hook's side of the service.
fn hook_counts(hook: &ServiceHook, report: &ServiceReport) -> isolates::FrontCounts {
    let stats = hook.stats();
    // Verdicts the admission hint answered from the memo never enter the
    // service's `submitted` count.
    let served = report.submitted().saturating_sub(report.shed());
    isolates::FrontCounts {
        cnn_bound: report.cascade.map_or(0, |c| c.cnn_residual),
        hint_hits: stats.classified().saturating_sub(served),
        hint_sheds: stats.skipped_shed() + stats.skipped_blocked(),
    }
}

/// The paper's render-overhead metric: mean hooked minus mean no-hook
/// render time, over the no-hook mean, in percent.
fn overhead_pct<'a>(loads: impl Iterator<Item = &'a PageLoad>) -> f64 {
    let pairs: Vec<(f64, f64)> = loads
        .filter_map(|l| l.noop_ms.map(|n| (l.hooked_ms, n)))
        .collect();
    let hooked: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let noop: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    (stats::mean(&hooked) - stats::mean(&noop)) / stats::mean(&noop) * 100.0
}

/// Renderer, hook, decode and cascade metrics from traced page loads,
/// plus the render overhead measured over `overhead_loads`.
fn page_layer_metrics(
    m: &mut Metrics,
    run: &PageRun,
    spans: &Spans,
    checker: &Checker<'_>,
    overhead_loads: impl Fn(&PageLoad) -> bool,
) {
    let traced: Vec<&PageLoad> = run.loads.iter().filter(|l| l.traced).collect();
    let recorded = spans.snapshot();
    let children = spans::children(&recorded);
    let per = |f: &dyn Fn(&PageLoad) -> f64| {
        stats::mean(&traced.iter().map(|l| f(l)).collect::<Vec<_>>())
    };
    let renders: Vec<usize> = traced.iter().filter_map(|l| l.render_span).collect();
    let render_ms: Vec<f64> = renders
        .iter()
        .map(|&i| recorded[i].duration_ns() as f64 / 1e6)
        .collect();
    let self_ms: Vec<f64> = renders
        .iter()
        .map(|&i| {
            let s = &recorded[i];
            spans::self_time_ns((s.start_ns, s.end_ns), &children[i]) as f64 / 1e6
        })
        .collect();
    let hook_ms: Vec<f64> = render_ms.iter().zip(&self_ms).map(|(r, s)| r - s).collect();
    let calls: u64 = traced.iter().map(|l| l.calls).sum();
    let images: usize = traced.iter().map(|l| l.logged).sum();
    m.put("renderer.build_ms", per(&|l| l.timing.build_ms), "ms");
    m.put("renderer.prefetch_ms", per(&|l| l.timing.prefetch_ms), "ms");
    m.put("renderer.raster_ms", per(&|l| l.timing.raster_ms), "ms");
    m.put(
        "renderer.composite_ms",
        per(&|l| l.timing.composite_ms),
        "ms",
    );
    m.put("renderer.self_ms", stats::mean(&self_ms), "ms");
    m.put(
        "renderer.images_per_page",
        per(&|l| l.image_items as f64),
        "count",
    );
    m.put("hook.ms_per_page", stats::mean(&hook_ms), "ms");
    m.put("hook.calls_per_page", per(&|l| l.calls as f64), "count");
    m.put(
        "hook.images_per_call",
        images as f64 / calls.max(1) as f64,
        "count",
    );
    checker.decode.put(m);
    m.put(
        "cascade.decide_us",
        checker.decide_ns as f64 / 1e3 / checker.decides.max(1) as f64,
        "us",
    );
    let c = checker.cascade.counters().snapshot();
    let share = |n: u64| n as f64 / c.requests.max(1) as f64;
    m.put("cascade.early_share", share(c.resolved_early()), "share");
    m.put(
        "cascade.t0_share",
        share(c.tier0_blocked + c.tier0_exempted),
        "share",
    );
    m.put(
        "cascade.t1_share",
        share(c.tier1_blocked + c.tier1_kept),
        "share",
    );
    m.put(
        "page.overhead_pct",
        overhead_pct(run.loads.iter().filter(|l| overhead_loads(l))),
        "%",
    );
}

/// The render isolate `creative_stream` traced runs use for the layers
/// its own path skips: a short cold page pass (every page traced) on a
/// fresh f32 hook. Fills renderer, hook, decode, cascade and
/// page-overhead metrics; returns the output-check mismatches.
pub fn render_probe(seed: u64, spans: &Spans, m: &mut Metrics) -> Result<u64, String> {
    let model = system::model();
    let mut checker = Checker::new(&model, spans);
    let chunk = page_chunk(seed, 0x9B0B, PROBE_SET.0, PROBE_SET.1)?;
    let hook = system::page_hook(&model);
    system::warm_service(hook.service(), seed);
    let ctx = Ctx::new(&hook, spans);
    let mut run = PageRun::default();
    for (i, url) in chunk.pages.iter().enumerate() {
        let id = PROBE_IDS + i as u64;
        let load = ctx.load(&chunk.store, url, id, true, true, i % 2 == 0);
        checker.decode_isolate(&chunk.store, &load);
        run.loads.push(load);
    }
    checker.check(&chunk.store, &run.loads);
    checker.mismatches += checker.cascade_diff(hook.service().report().cascade);
    // Every probe page is traced, so the overhead covers traced pairs.
    page_layer_metrics(m, &run, spans, &checker, |_| true);
    Ok(checker.mismatches)
}
