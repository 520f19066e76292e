//! Per-layer metrics of traced reps, and the layer timers that run
//! outside the simulation on the workload's own inputs.
//!
//! Layers are named after the repository's modules: `kernel` (simnet
//! world, wheel, batch plane), `stream`, `payload`, `net` (segments),
//! `runtime`, `wire`, `directory`, `bridges.<platform>`,
//! `platform.<platform>`, `usdl` and `obs`. `app` is the benchmark's own
//! drivers, sinks and clients.

use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use simnet::Payload;
use umiddle_core::{DirectoryTable, FrameDecoder, WireMessage};
use umiddle_usdl::UsdlLibrary;

use crate::scenario::{LayerInputs, RepResult};
use crate::stats::{median, quantile};
use crate::{metric, Metric};

/// Bridge platforms, as the mappers name them.
const PLATFORMS: [&str; 6] = [
    "upnp",
    "bluetooth",
    "motes",
    "rmi",
    "mediabroker",
    "webservices",
];

/// Timer repetitions for the off-line layer timers.
const TIMER_ROUNDS: usize = 7;

fn inputs(r: &RepResult) -> &LayerInputs {
    r.inputs
        .as_ref()
        .expect("traced reps keep their layer inputs")
}

fn per_op(n: u64, ops: u64) -> f64 {
    n as f64 / ops.max(1) as f64
}

/// Handler calls and self time of one traced rep, per layer, plus the
/// kernel's self time: each slice's wall time minus the handler spans
/// inside it.
struct Split {
    layers: Vec<(String, u64, u64)>,
    kernel_ns: u64,
    calls: u64,
    spans: usize,
    spans_dropped: u64,
}

fn split(r: &RepResult) -> Split {
    let probe = &r.probe;
    let spans = probe.spans.borrow();
    let mut in_slice = vec![0u64; r.slice_bounds.len()];
    for s in spans.iter() {
        if let Some(t) = in_slice.get_mut(s.slice as usize) {
            *t += s.end - s.start;
        }
    }
    let kernel_ns = r
        .slice_bounds
        .iter()
        .zip(&in_slice)
        .map(|((a, b), h)| (b - a).saturating_sub(*h))
        .sum();
    // Handler totals restricted to the window's slices.
    let names = probe.layers.borrow().clone();
    let mut layers: Vec<(String, u64, u64)> = names.into_iter().map(|n| (n, 0, 0)).collect();
    for s in spans
        .iter()
        .filter(|s| (s.slice as usize) < r.slice_bounds.len())
    {
        let l = &mut layers[s.layer as usize];
        l.1 += 1;
        l.2 += s.end - s.start;
    }
    let calls = layers.iter().map(|l| l.1).sum();
    Split {
        layers,
        kernel_ns,
        calls,
        spans: spans.len(),
        spans_dropped: probe.spans_dropped.get(),
    }
}

fn layer(s: &Split, name: &str) -> (u64, u64) {
    s.layers
        .iter()
        .find(|l| l.0 == name)
        .map_or((0, 0), |l| (l.1, l.2))
}

/// Median host time (ns) per item of `f` over `TIMER_ROUNDS` rounds.
fn time_per_item(items: usize, mut f: impl FnMut()) -> f64 {
    let mut rounds = Vec::with_capacity(TIMER_ROUNDS);
    for _ in 0..TIMER_ROUNDS {
        let t = Instant::now();
        f();
        rounds.push(t.elapsed().as_nanos() as f64 / items.max(1) as f64);
    }
    median(rounds)
}

/// `WireMessage` encode and `FrameDecoder` decode over the rep's frame
/// mix: the datagrams the runtimes received plus the workload's own
/// envelopes. Returns (encode ns/frame, decode ns/frame).
fn wire_timers(r: &RepResult) -> (f64, f64) {
    let mut mix: Vec<WireMessage> = r
        .probe
        .frames
        .borrow()
        .iter()
        .filter_map(|p| WireMessage::decode_payload(p).ok())
        .collect();
    mix.extend(inputs(r).wire_mix.iter().cloned());
    let encode = time_per_item(mix.len(), || {
        for m in &mix {
            black_box(m.encode_framed());
        }
    });
    let framed: Vec<Payload> = mix.iter().map(WireMessage::encode_framed).collect();
    let mut out = Vec::with_capacity(framed.len());
    let decode = time_per_item(mix.len(), || {
        let mut dec = FrameDecoder::new();
        out.clear();
        for f in &framed {
            dec.push_payload(f.clone());
            dec.drain_frames(&mut out);
        }
        black_box(&out);
    });
    assert_eq!(out.len(), mix.len(), "decoder returns every frame");
    assert!(out.iter().all(Result::is_ok), "every frame decodes");
    (encode, decode)
}

/// `DirectoryTable::lookup` on the rep's end-state directory: p50 and
/// p99 host ns over every query of the workload's mix, each timed alone.
fn lookup_timer(r: &RepResult) -> (f64, f64) {
    let mut table = DirectoryTable::new();
    let home = simnet::Addr::new(simnet::NodeId::from_index(0), 0);
    for p in inputs(r).directory.iter().cloned() {
        table.upsert(p, home, simnet::SimTime::MAX, false);
    }
    let queries = &inputs(r).queries;
    let mut ns = Vec::new();
    for _ in 0..TIMER_ROUNDS * 8 {
        for q in queries {
            let t = Instant::now();
            black_box(table.lookup(black_box(q)).len());
            ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    ns.sort_unstable();
    (quantile(&ns, 0.5) as f64, quantile(&ns, 0.99) as f64)
}

/// `UsdlLibrary::bundled`, and `register_xml` of the federation's
/// templated documents (ms, median of rounds). Only the federation
/// instantiates USDL at scale, so every workload times its inputs.
fn usdl_timers() -> (f64, f64) {
    let docs = crate::federation::usdl_docs();
    let bundled = time_per_item(1, || {
        black_box(UsdlLibrary::bundled());
    }) / 1e6;
    let register = time_per_item(1, || {
        let mut lib = UsdlLibrary::new();
        for d in &docs {
            lib.register_xml(d).expect("workload USDL is valid");
        }
        black_box(lib.len());
    }) / 1e6;
    (bundled, register)
}

/// Writes the rep's spans as tab-separated `slice layer proc start_ns
/// end_ns` rows (host ns since the rep began; slice `4294967295` is
/// set-up or drain).
pub fn write_spans(path: &Path, r: &RepResult) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "slice\tlayer\tproc\tstart_ns\tend_ns")?;
    let layers = r.probe.layers.borrow();
    for s in r.probe.spans.borrow().iter() {
        let layer = &layers[s.layer as usize];
        writeln!(
            out,
            "{}\t{layer}\t{}\t{}\t{}",
            s.slice, s.proc, s.start, s.end
        )?;
    }
    out.flush()
}

/// The per-layer metrics of the traced reps; `overhead` is the untraced
/// over the traced `ops_per_s`.
pub fn per_layer(traced: &[RepResult], overhead: f64) -> Vec<Metric> {
    let r = &traced[0];
    let ops = r.completed_in_window;
    let splits: Vec<Split> = traced.iter().map(split).collect();
    let med = |f: &dyn Fn(&Split) -> f64| median(splits.iter().map(f).collect());
    let (b, a) = (&r.before, &r.after);
    let d = |name: &str| a.counter(name) - b.counter(name);
    let events = r.events[1] - r.events[0];
    let handler_ns = |s: &Split| s.layers.iter().map(|l| l.2).sum::<u64>() as f64;
    let pct = |name: &str, s: &Split| 100.0 * layer(s, name).1 as f64 / handler_ns(s).max(1.0);

    let mut m = vec![
        metric("kernel.events_per_op", per_op(events, ops), "count"),
        metric(
            "kernel.calls_per_event",
            per_op(splits[0].calls, events),
            "ratio",
        ),
        metric(
            "kernel.self_us_per_op",
            med(&|s| s.kernel_ns as f64 / 1e3) / ops.max(1) as f64,
            "us",
        ),
        metric("kernel.pending_max", r.pending_max as f64, "count"),
        metric(
            "stream.frames_per_op",
            per_op(d("stream.frames"), ops),
            "count",
        ),
        metric("stream.acks_per_op", per_op(d("stream.acks"), ops), "count"),
        metric("stream.rto", d("stream.rto") as f64, "count"),
        metric(
            "payload.allocs_per_op",
            per_op(d("payload.allocs"), ops),
            "count",
        ),
        metric(
            "payload.bytes_copied_per_op",
            per_op(d("payload.bytes_copied"), ops),
            "B",
        ),
        metric(
            "payload.shared_clones_per_op",
            per_op(d("payload.shared_clones"), ops),
            "count",
        ),
    ];

    let window_ns = r.window_ns.max(1) as f64;
    let util_max = a
        .seg_busy_ns
        .iter()
        .zip(&b.seg_busy_ns)
        .map(|(x, y)| (x - y) as f64 / window_ns)
        .fold(0.0, f64::max);
    let lost: u64 = a
        .seg_dropped
        .iter()
        .zip(&b.seg_dropped)
        .map(|(x, y)| x - y)
        .sum();
    m.push(metric("net.util_max", util_max, "ratio"));
    m.push(metric("net.frames_lost", lost as f64, "count"));

    let (rt_calls, _) = layer(&splits[0], "runtime");
    m.push(metric("runtime.calls", rt_calls as f64, "count"));
    m.push(metric(
        "runtime.self_us_per_call",
        med(&|s| {
            let (c, ns) = layer(s, "runtime");
            ns as f64 / 1e3 / c.max(1) as f64
        }),
        "us",
    ));
    m.push(metric(
        "runtime.queue_wait_ms_p99",
        a.queue_wait_p99_ns as f64 / 1e6,
        "ms",
    ));
    m.push(metric(
        "runtime.qos_dropped",
        d("umiddle.qos_dropped") as f64,
        "count",
    ));
    m.push(metric(
        "runtime.max_buffered_bytes",
        r.max_buffered as f64,
        "B",
    ));

    let (enc, dec) = wire_timers(r);
    m.push(metric("wire.encode_ns", enc, "ns"));
    m.push(metric("wire.decode_ns", dec, "ns"));
    m.push(metric(
        "wire.frames_decoded_per_op",
        per_op(r.frames_in_window, ops),
        "count",
    ));

    let (lk50, lk99) = lookup_timer(r);
    let mut conv = inputs(r).converge_ns.clone();
    conv.sort_unstable();
    m.push(metric(
        "directory.bytes_per_op",
        per_op(d("directory.bytes_gossiped"), ops),
        "B",
    ));
    m.push(metric(
        "directory.deltas_applied",
        d("directory.deltas_applied") as f64,
        "count",
    ));
    m.push(metric(
        "directory.repairs",
        d("directory.antientropy_repairs") as f64,
        "count",
    ));
    m.push(metric("directory.lookup_ns_p50", lk50, "ns"));
    m.push(metric("directory.lookup_ns_p99", lk99, "ns"));
    m.push(metric(
        "directory.converge_ms_p99",
        quantile(&conv, 0.99) as f64 / 1e6,
        "ms",
    ));

    for p in PLATFORMS {
        let bridge = format!("bridges.{p}");
        m.push(metric(
            format!("{bridge}.calls"),
            layer(&splits[0], &bridge).0 as f64,
            "count",
        ));
        m.push(metric(
            format!("{bridge}.self_pct"),
            med(&|s| pct(&bridge, s)),
            "%",
        ));
        m.push(metric(
            format!("{bridge}.translations"),
            d(&format!("bridge.{p}.traffic")) as f64,
            "count",
        ));
    }
    for p in PLATFORMS {
        let plat = format!("platform.{p}");
        m.push(metric(
            format!("{plat}.calls"),
            layer(&splits[0], &plat).0 as f64,
            "count",
        ));
        m.push(metric(
            format!("{plat}.self_pct"),
            med(&|s| pct(&plat, s)),
            "%",
        ));
    }
    m.push(metric(
        "app.calls",
        layer(&splits[0], "app").0 as f64,
        "count",
    ));
    m.push(metric("app.self_pct", med(&|s| pct("app", s)), "%"));

    let (bundled, register) = usdl_timers();
    m.push(metric("usdl.bundled_ms", bundled, "ms"));
    m.push(metric("usdl.register_ms", register, "ms"));

    let report_ms = median(traced.iter().map(|t| t.report_s * 1e3).collect());
    m.push(metric("obs.spans", d_spans(r) as f64, "count"));
    m.push(metric(
        "obs.spans_dropped",
        d("trace.spans_dropped") as f64,
        "count",
    ));
    m.push(metric(
        "obs.ring_overwrites",
        d("trace.ring_overwrites") as f64,
        "count",
    ));
    m.push(metric(
        "obs.samples",
        (r.after.samples - r.before.samples) as f64,
        "count",
    ));
    m.push(metric("obs.report_ms", report_ms, "ms"));

    m.push(metric("trace.overhead_ratio", overhead, "ratio"));
    m.push(metric("trace.spans", med(&|s| s.spans as f64), "count"));
    m.push(metric(
        "trace.spans_dropped",
        med(&|s| s.spans_dropped as f64),
        "count",
    ));
    m
}

fn d_spans(r: &RepResult) -> u64 {
    r.after.last_span - r.before.last_span
}
