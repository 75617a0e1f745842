//! The system under test as the benchmark builds it, plus host probes:
//! process CPU time, peak RSS, provenance and the knob-hygiene check.

use crate::inputs::{mix, stamp, stream_pool};
use percival_core::arch::{percival_net, PAPER_INPUT_SIZE};
use percival_core::cascade::{Cascade, CascadeConfig};
use percival_core::{Classifier, Precision};
use percival_imgcodec::Bitmap;
use percival_nn::init::kaiming_init;
use percival_nn::Sequential;
use percival_serve::{ClassificationService, ServiceConfig, ServiceHook};
use percival_util::Pcg32;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the untrained weights. The repository ships no trained
/// weights; speed does not depend on their values, only the ad/content
/// verdict mix does, so it stays fixed across workload seeds.
pub const WEIGHT_SEED: u64 = 0x5045_5243_4956_414C;

/// Set-ups timed per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 101;

/// Batches every shard runs before timing starts.
const WARM_BATCHES: u64 = 8;

/// Deadline of untimed submissions that must not be shed.
pub const UNTIMED_DEADLINE: Duration = Duration::from_secs(60);

/// Deadline of the page workloads' service. The paper's hook holds the
/// raster until every creative is classified. Under the default 50 ms
/// deadline the admission hint instead fails open on about a fifth of
/// cold pages on a 2-core host, a share that changes from run to run and
/// with it the work a page does; a deadline no page reaches keeps every
/// CNN-bound creative classified, so no page load fails.
pub const PAGE_DEADLINE: Duration = UNTIMED_DEADLINE;

/// The paper's model at 224 px with seeded Kaiming weights.
pub fn model() -> Sequential {
    let mut model = percival_net();
    kaiming_init(&mut model, &mut Pcg32::seed_from_u64(WEIGHT_SEED));
    model
}

/// Cores visible to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A sequential reference classifier at `precision`.
pub fn reference(model: &Sequential, precision: Precision) -> Classifier {
    Classifier::new(model.clone(), PAPER_INPUT_SIZE).with_precision(precision)
}

/// Reference verdicts (is-ad) for `bitmaps`: each classified on its own
/// by `Classifier::classify`, with the list split across every core.
pub fn reference_verdicts(reference: &Classifier, bitmaps: &[&Bitmap]) -> Vec<bool> {
    if bitmaps.is_empty() {
        return Vec::new();
    }
    let per_worker = bitmaps.len().div_ceil(nproc());
    std::thread::scope(|s| {
        let workers: Vec<_> = bitmaps
            .chunks(per_worker)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|b| reference.classify(b).is_ad)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference worker panicked"))
            .collect()
    })
}

/// Builds a service at `precision` with program defaults, except one
/// shard per core.
pub fn service(model: &Sequential, precision: Precision) -> ClassificationService {
    service_with(model, precision, ServiceConfig::default().deadline)
}

/// [`service`] with a soft `deadline` other than the default.
fn service_with(
    model: &Sequential,
    precision: Precision,
    deadline: Duration,
) -> ClassificationService {
    let classifier = Classifier::new(model.clone(), PAPER_INPUT_SIZE);
    ClassificationService::new(
        classifier,
        ServiceConfig {
            shards: nproc(),
            precision,
            deadline,
            ..Default::default()
        },
    )
}

/// The render-path interceptor: the f32 service, with [`PAGE_DEADLINE`],
/// behind the cascade.
pub fn page_hook(model: &Sequential) -> ServiceHook {
    let cascade = Cascade::synthetic_with(CascadeConfig::default());
    ServiceHook::new(service_with(model, Precision::F32, PAGE_DEADLINE))
        .with_cascade(Arc::new(cascade))
}

/// Classifies distinct warm-up creatives one at a time, with a deadline
/// long enough that none is shed, until every shard has run
/// `WARM_BATCHES` batches.
///
/// A shard's service-time estimate starts at its first, cold batch, and
/// the admission hint sheds every new creative while that estimate
/// exceeds the deadline. No batch then runs on that shard to correct the
/// estimate, so a cold start could lock a shard out for a whole run;
/// timing therefore starts only after each estimate has seen warm batches.
pub fn warm_service(service: &ClassificationService, seed: u64) {
    let mut pool = stream_pool(mix(seed, 0x3A93), 16);
    for i in 0..256 {
        let report = service.report();
        if report.shards.iter().all(|s| s.batches >= WARM_BATCHES) {
            return;
        }
        let bmp = &mut pool[i % 16];
        stamp(bmp, 1 << 20 | i);
        service.submit_with_deadline(bmp, UNTIMED_DEADLINE).wait();
    }
}

/// Builds the system `SETUP_REPS` times, timing each build; returns the
/// last one and the median build time in seconds. Dropping the spare
/// builds (joining their threads) happens outside the timed window.
pub fn timed_setup<T>(build: impl Fn() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        let b = build();
        times.push(t.elapsed().as_secs_f64());
        built = Some(b);
    }
    (
        built.expect("SETUP_REPS is positive"),
        crate::stats::median(&times),
    )
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU time of the whole process (all threads), in ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is the
    // constant the kernel defines for process CPU time.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Resets the process's peak resident set size (VmHWM) to its current
/// RSS (`/proc/self/clear_refs`, value 5), so that [`peak_rss_mb`] then
/// covers only what runs after the call. First hands the heap's free
/// pages back to the kernel (glibc's `malloc_trim`), so the new baseline
/// is live memory rather than whatever free memory input generation and
/// output checks left in the allocator's arenas. False when the kernel
/// refused the reset.
pub fn reset_peak_rss() -> bool {
    // SAFETY: `malloc_trim` only releases free memory of the process's
    // own allocator; it is safe to call from any thread at any time.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (VmHWM), in MiB, since the
/// start or the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host CPU time stolen from this machine's CPUs, and all CPU time, in
/// clock ticks since boot (the `steal` and summed columns of the `cpu`
/// line of `/proc/stat`).
pub fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// `PERCIVAL_*` variables set in the environment.
pub fn set_knobs() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PERCIVAL_"))
        .collect()
}

/// Where the result came from.
pub struct Provenance {
    pub nproc: usize,
    pub gemm_kernel: String,
    pub i8_tier: String,
    pub rustc: String,
    pub commit: String,
}

impl Provenance {
    /// Probes the host, toolchain and source tree.
    pub fn probe() -> Self {
        Provenance {
            nproc: nproc(),
            gemm_kernel: format!("{:?}", percival_tensor::gemm::gemm_kernel()),
            i8_tier: format!("{:?}", percival_tensor::gemm_i8::i8_tier()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: commit(),
        }
    }

    /// JSON object form.
    pub fn json(&self, seed: u64) -> String {
        format!(
            "{{\"nproc\":{},\"gemm_kernel\":\"{}\",\"i8_tier\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"seed\":{seed}}}",
            self.nproc,
            self.gemm_kernel,
            self.i8_tier,
            self.rustc.replace('"', "'"),
            self.commit
        )
    }
}

/// First line of a command's standard output; the child is waited for.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

/// The git commit when run from a git checkout, otherwise a digest of
/// the source tree (`tree-<fnv64>`) so a result still names its code.
fn commit() -> String {
    if std::path::Path::new(".git").exists() {
        if let Some(head) = command_line("git", &["rev-parse", "HEAD"]) {
            return head;
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "e2ebench"] {
        collect_files(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("tree-{h:016x}")
}

fn collect_files(path: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name.starts_with('.') || name == "target" {
        return;
    }
    if path.is_dir() {
        if let Ok(entries) = std::fs::read_dir(path) {
            for e in entries.flatten() {
                collect_files(&e.path(), out);
            }
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}
