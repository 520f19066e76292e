//! The uMiddle benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload federation --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run repeats the workload's rep — build the world from the seed,
//! set it up, measure a fixed virtual-time window, drain it, check the
//! outputs — until `--seconds` of host time have passed. Host-time
//! metrics are scaled to a reference host speed measured beside the
//! work (see [`calib`]) and take the median over the reps after the
//! first; virtual-time metrics come from the simulation and must repeat
//! exactly in every rep. With
//! `--trace 1` reps alternate between untraced and traced, and the run
//! reports the per-layer split of the traced reps instead. The last
//! line of standard output is one JSON object; `perfbench/README.md`
//! defines every metric.

mod calib;
mod churn;
mod common;
mod federation;
mod layers;
mod mb;
mod probe;
mod scenario;
mod stats;

use std::time::Instant;

use calib::Calibrator;
use scenario::{run_rep, RepResult, Workload};
use stats::{median, quantile, quantile_f};

/// Reps a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn workload(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "federation" => Some(Box::new(federation::Federation)),
        "mb_overload" => Some(Box::new(mb::MbOverload)),
        "directory_churn" => Some(Box::new(churn::DirectoryChurn)),
        _ => None,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where traced runs write their spans: the build directory, which the
/// repository ignores.
fn span_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    std::path::Path::new(&target).join("perfbench-spans")
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand for building a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The reps whose host times count: all but the first, which warms the
/// allocator and caches (unless it is the only one).
fn warm(reps: &[RepResult]) -> &[RepResult] {
    &reps[(reps.len() > 1) as usize..]
}

/// Host seconds of each window slice at the reference speed: each rep's
/// slice divided by the rep's slowdown, then the median over the reps.
/// Every rep simulates exactly the same events, so slice `k` is the
/// same work in every rep, and a stall the work causes — a growing
/// backlog — recurs in every rep and stays visible.
fn slices_at_reference(reps: &[RepResult]) -> Vec<f64> {
    let n = reps.iter().map(|r| r.slice_s.len()).min().unwrap_or(0);
    (0..n)
        .map(|k| {
            median(
                reps.iter()
                    .map(|r| r.slice_s[k] / r.window_pace.slowdown())
                    .collect(),
            )
        })
        .collect()
}

/// Ops completed inside the window per host second of the window at the
/// reference speed (median over the reps). Ops that complete in the
/// drain are left out: the window's host time did not pay for them.
fn ops_per_s(reps: &[RepResult]) -> f64 {
    let window_s = median(
        reps.iter()
            .map(|r| r.window_s / r.window_pace.slowdown())
            .collect(),
    );
    reps[0].completed_in_window as f64 / window_s
}

/// The end-to-end metrics. A figure the run could not measure (an empty
/// window after a storm) is NaN, and is left out of the JSON.
fn end_to_end(reps: &[RepResult]) -> Vec<Metric> {
    let first = &reps[0];
    let timed = warm(reps);
    let slices_ms: Vec<f64> = slices_at_reference(timed).iter().map(|s| s * 1e3).collect();
    let setup = median(
        timed
            .iter()
            .map(|r| r.setup_s / r.setup_pace.slowdown())
            .collect(),
    );
    let lat = |q: f64| {
        if first.lat_ns.is_empty() {
            f64::NAN
        } else {
            quantile(&first.lat_ns, q) as f64 / 1e6
        }
    };
    let slice = |q: f64| {
        if slices_ms.is_empty() {
            f64::NAN
        } else {
            quantile_f(&slices_ms, q)
        }
    };
    vec![
        metric("setup_s", setup, "s"),
        metric("ops_per_s", ops_per_s(timed), "1/s"),
        metric("slice_ms_p50", slice(0.50), "ms"),
        metric("slice_ms_p99", slice(0.99), "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("vlat_ms_p50", lat(0.50), "ms"),
        metric("vlat_ms_p99", lat(0.99), "ms"),
        metric(
            "goodput_mbps",
            first.bytes as f64 * 8.0 / (first.window_ns as f64 / 1e9) / 1e6,
            "Mbps",
        ),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <federation|mb_overload|directory_churn> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(wl) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };

    let mut problems = Vec::new();
    if wl.inputs_digest(args.seed) == wl.inputs_digest(args.seed.wrapping_add(1)) {
        problems.push("seeds n and n+1 generate the same inputs".to_owned());
    }

    // Reps until the time is up; with tracing, untraced and traced
    // reps alternate so both see the same host conditions. A rep the
    // storm guard stopped would storm again, so one is enough.
    let t0 = Instant::now();
    let mut calib = Calibrator::new();
    let mut plain: Vec<RepResult> = Vec::new();
    let mut traced: Vec<RepResult> = Vec::new();
    let mut stormed = false;
    while (!stormed
        && (plain.len() + traced.len() < MIN_REPS || t0.elapsed().as_secs() < args.seconds))
        || (args.trace && traced.is_empty())
    {
        let tracing = args.trace && plain.len() > traced.len();
        let rep = run_rep(&*wl, args.seed, tracing, &mut calib);
        eprintln!(
            "rep {}{}: setup {:.3}s (slowdown {:.3}) window {:.3}s (slowdown {:.3}) \
             ops {}/{} events {:?}{}",
            plain.len() + traced.len(),
            if tracing { " (traced)" } else { "" },
            rep.setup_s,
            rep.setup_pace.slowdown(),
            rep.window_s,
            rep.window_pace.slowdown(),
            rep.completed,
            rep.attempted,
            rep.events,
            if rep.storm { " STORM" } else { "" },
        );
        stormed |= rep.storm;
        if tracing {
            traced.push(rep);
        } else {
            plain.push(rep);
        }
    }

    // Determinism and transparency: every rep of this seed, traced or
    // not, must have simulated exactly the same thing.
    let reference = plain[0].v_digest();
    for (i, r) in plain.iter().chain(&traced).enumerate() {
        if r.v_digest() != reference {
            problems.push(format!("rep {i} diverged: {} vs {reference}", r.v_digest()));
        }
    }
    for r in plain.iter().chain(&traced) {
        problems.extend(r.errors.iter().cloned());
    }
    problems.dedup();

    let all = plain.len() + traced.len();
    let attempted: u64 = plain.iter().chain(&traced).map(|r| r.attempted).sum();
    let failed: u64 = plain
        .iter()
        .chain(&traced)
        .map(|r| r.attempted - r.completed)
        .sum();
    let metrics = if args.trace {
        let overhead = ops_per_s(warm(&plain)) / ops_per_s(&traced);
        let out = span_dir().join(format!("{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = layers::write_spans(&out, &traced[0]) {
            problems.push(format!("writing spans to {}: {e}", out.display()));
        }
        layers::per_layer(&traced, overhead)
    } else {
        end_to_end(&plain)
    };

    eprintln!(
        "{} reps ({} traced) in {:.1}s; failed share {:.6}; ops per rep by kind \
         (attempted, completed): {:?}",
        all,
        traced.len(),
        t0.elapsed().as_secs_f64(),
        failed as f64 / attempted.max(1) as f64,
        plain[0].kinds,
    );
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    for m in &metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        attempted.max(1),
        failed,
        body.join(", ")
    );
}
