//! End-to-end benchmark for PERCIVAL: page loads with the classifier in
//! the render path, plus an open-loop creative stream.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload page_cold|page_warm|creative_stream --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is a separate
//! run with the benchmark's span recorder on, printing the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits 1
//! when any output check failed and 2 on bad arguments or a set
//! `PERCIVAL_*` knob.

mod deflate;
mod inputs;
mod isolates;
mod pages;
mod report;
mod spans;
mod stats;
mod stream;
mod system;

use report::Outcome;
use spans::Spans;
use std::path::Path;
use std::process::ExitCode;

/// Where result files and span dumps go, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, spans: &Spans) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "page_cold" => pages::run(pages::Mode::Cold, args.seed, args.seconds, spans),
        "page_warm" => pages::run(pages::Mode::Warm, args.seed, args.seconds, spans),
        "creative_stream" => stream::run(args.seed, args.seconds, spans),
        other => Err(format!(
            "unknown workload {other} (page_cold, page_warm, creative_stream)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    // The program reads these knobs itself; a set one would change what
    // is measured without the result showing it.
    let knobs = system::set_knobs();
    if !knobs.is_empty() {
        eprintln!(
            "e2ebench: refusing to run with {} set; unset every PERCIVAL_* variable",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let prov = system::Provenance::probe();
    let spans = Spans::new(args.trace);
    let ticks0 = system::host_cpu_ticks();
    let mut outcome = match run(&args, &spans) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    // Time the hypervisor gave to other guests shows up in every latency
    // but not in CPU time; record it so noisy runs can be told apart.
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, system::host_cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64 * 100.0;
        outcome
            .notes
            .push(format!("host steal {share:.2}% of CPU time during the run"));
    }
    if let Some(bad) = outcome.metrics.non_finite().first() {
        eprintln!("e2ebench: metric {bad} is not a finite number");
        return ExitCode::from(1);
    }

    let kind = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "# e2ebench {} seed {} ({} s, {kind})",
        args.workload, args.seed, args.seconds
    );
    println!(
        "# host: nproc {} | gemm {} | i8 tier {} | {} | commit {}",
        prov.nproc, prov.gemm_kernel, prov.i8_tier, prov.rustc, prov.commit
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics.0 {
        let moves = if args.trace {
            format!("  -> {}", report::moves(&m.name))
        } else {
            String::new()
        };
        println!("# {:<34} {:>14.4} {:<8}{moves}", m.name, m.value, m.unit);
    }
    println!(
        "# attempted {} failed {} output-check mismatches {}",
        outcome.attempted, outcome.failed, outcome.mismatches
    );
    if let Err(e) = save(&args, &prov, &outcome, &spans) {
        eprintln!("e2ebench: could not write results under {OUT_DIR}: {e}");
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes the result (with provenance and notes) and, for traced runs,
/// the span dump.
fn save(args: &Args, prov: &system::Provenance, o: &Outcome, spans: &Spans) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let notes: Vec<String> = o
        .notes
        .iter()
        .map(|n| format!("\"{}\"", n.replace('"', "'")))
        .collect();
    let body = format!(
        "{{\"workload\":\"{}\",\"seconds\":{},\"provenance\":{},\"notes\":[{}],\"result\":{}}}\n",
        args.workload,
        args.seconds,
        prov.json(args.seed),
        notes.join(","),
        o.json()
    );
    std::fs::write(Path::new(OUT_DIR).join(format!("{stem}.json")), body)?;
    if spans.enabled() {
        spans.write_json(&Path::new(OUT_DIR).join(format!("{stem}-spans.json")))?;
    }
    Ok(())
}
