//! Directory-federation benchmarks: the E12 full-refresh vs
//! delta-gossip A/B (steady-state directory-plane bytes, post-churn
//! convergence) and the E12 federation-lookup microbenchmark at the
//! ~1M-advertised-port scale point.
//!
//! Run with `--check` for the CI gate — a floor on the
//! full-refresh/delta steady-state bytes ratio, a post-churn
//! convergence ceiling, one p99 budget for lookups and for dynamic
//! binding resolution, and the scan-free invariant (no port query falls
//! back to a full table scan at any table size) — or with `--json FILE` to write the sweep as
//! deterministic-schema JSON (byte counts and convergence are
//! simulator-deterministic; lookup timings are wall-clock and
//! machine-dependent, the schema is what golden files assert on). The
//! committed `BENCH_perf_dir.json` records one full run.
//!
//! Tunable gate knobs (also settable from ci.sh):
//!
//! * `--ratio X` — floor on the full-refresh/delta steady-state bytes
//!   ratio at the check fixture (default 10; `PERF_DIR_RATIO` env).
//! * `--p99-budget-us N` — lookup and binding p99 budget in µs (default 200;
//!   `PERF_DIR_P99_US` env).

use bench::experiments::{e12_delta_gossip, e12_lookup_scale, DeltaGossipRow};

/// Default `--ratio`: the full-refresh/delta steady-state bytes floor.
/// ISSUE 9's acceptance line. The check fixture (40 runtimes x 5
/// services) measures well above 100x — full refresh re-advertises
/// every entry every interval while a quiescent delta federation only
/// exchanges ~30-byte digests — so 10x is the regression line, not the
/// measured value.
const DEFAULT_BYTES_RATIO: f64 = 10.0;

/// Default `--p99-budget-us`: ceiling on the p99 wall cost of one
/// indexed federation lookup, and of one dynamic binding resolution, at
/// the check fixture (100k ports).
/// Measured p99 is a few µs; 200 µs keeps the gate insensitive to CI
/// scheduling jitter while still catching an O(table) scan sneaking
/// back into the lookup path.
const DEFAULT_P99_BUDGET_US: u64 = 200;

/// `--check` ceiling on post-churn convergence (worst runtime, ms of
/// virtual time). Deltas propagate in one multicast (~ms); the bound
/// allows one anti-entropy round trip (digest interval + request) for
/// runtimes that missed the delta.
const CHECK_CONVERGENCE_MS: u64 = 5_000;

/// Federation shape of the `--check` A/B (full runs use 100 x 10).
const CHECK_RUNTIMES: usize = 40;
const CHECK_PER_RUNTIME: usize = 5;

/// Lookup-table shape of the `--check` gate (full runs use
/// 10 000 x 100 = 1M ports).
const CHECK_LOOKUP_PROFILES: usize = 2_000;
const CHECK_LOOKUP_PORTS: usize = 50;

/// Parses `--flag value` from the argument list, falling back to a
/// default; panics with a usable message on a malformed value.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return default;
    };
    let raw = args
        .get(i + 1)
        .unwrap_or_else(|| panic!("{flag} needs a value"));
    raw.parse()
        .unwrap_or_else(|_| panic!("{flag}: cannot parse {raw:?}"))
}

fn render_ab(rows: &[DeltaGossipRow]) -> String {
    let mut out = String::from(
        "E12 directory federation A/B (directory-plane bytes, virtual time)\n\
         mode          runtimes  ports  boot KiB  steady KiB  join-conv ms  leave-conv ms  deltas  repairs\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<13} {:>8} {:>6} {:>9.1} {:>11.1} {:>13} {:>14} {:>7} {:>8}\n",
            r.mode,
            r.runtimes,
            r.final_entries,
            r.bootstrap_bytes as f64 / 1024.0,
            r.steady_bytes as f64 / 1024.0,
            r.join_convergence_ms,
            r.leave_convergence_ms,
            r.deltas_applied,
            r.antientropy_repairs,
        ));
    }
    out
}

/// The full-refresh/delta steady-state bytes ratio — the A/B's headline.
fn steady_ratio(rows: &[DeltaGossipRow]) -> f64 {
    rows[0].steady_bytes as f64 / rows[1].steady_bytes.max(1) as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let json_out = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());
    // Floor priority: --ratio flag, then PERF_DIR_RATIO env, then the
    // default; same for the p99 budget.
    let env_ratio = std::env::var("PERF_DIR_RATIO")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());
    let ratio_floor: f64 = flag_value(&args, "--ratio", env_ratio.unwrap_or(DEFAULT_BYTES_RATIO));
    let env_p99 = std::env::var("PERF_DIR_P99_US")
        .ok()
        .and_then(|v| v.parse::<u64>().ok());
    let p99_budget_us: u64 = flag_value(
        &args,
        "--p99-budget-us",
        env_p99.unwrap_or(DEFAULT_P99_BUDGET_US),
    );
    let p99_budget_ns = p99_budget_us * 1_000;

    if check {
        // A/B: delta gossip must keep paying for itself on the
        // steady-state directory plane, and churn must still converge
        // everywhere within the anti-entropy bound.
        let rows = e12_delta_gossip(CHECK_RUNTIMES, CHECK_PER_RUNTIME);
        let ratio = steady_ratio(&rows);
        assert!(
            ratio >= ratio_floor,
            "steady-state bytes ratio below floor: full-refresh/delta x{ratio:.1} < x{ratio_floor} \
             (full {} B, delta {} B over {} s)",
            rows[0].steady_bytes,
            rows[1].steady_bytes,
            rows[1].steady_secs
        );
        for r in &rows {
            assert!(
                r.join_convergence_ms <= CHECK_CONVERGENCE_MS
                    && r.leave_convergence_ms <= CHECK_CONVERGENCE_MS,
                "{} churn convergence over bound: join {} ms / leave {} ms > {} ms",
                r.mode,
                r.join_convergence_ms,
                r.leave_convergence_ms,
                CHECK_CONVERGENCE_MS
            );
        }

        // Lookup plane: lookup and binding p99 within budget and zero
        // scan fallbacks — the index must answer every port query at
        // any table size.
        let lk = e12_lookup_scale(CHECK_LOOKUP_PROFILES, CHECK_LOOKUP_PORTS);
        assert!(
            lk.p99_ns <= p99_budget_ns,
            "lookup p99 at {} ports over budget: {} ns > {} ns",
            lk.total_ports,
            lk.p99_ns,
            p99_budget_ns
        );
        assert!(
            lk.bind_p99_ns <= p99_budget_ns,
            "binding p99 at {} ports over budget: {} ns > {} ns",
            lk.total_ports,
            lk.bind_p99_ns,
            p99_budget_ns
        );
        assert_eq!(
            lk.scan_fallbacks, 0,
            "port queries fell back to a full table scan {} time(s)",
            lk.scan_fallbacks
        );

        println!(
            "perf_dir --check: ok (steady bytes ratio x{ratio:.1} >= x{ratio_floor} at {} runtimes, \
             join conv {} ms / leave conv {} ms <= {} ms, lookup p99 {} ns / binding p99 {} ns \
             <= {} ns at {} ports, 0 scan fallbacks)",
            CHECK_RUNTIMES,
            rows[1].join_convergence_ms,
            rows[1].leave_convergence_ms,
            CHECK_CONVERGENCE_MS,
            lk.p99_ns,
            lk.bind_p99_ns,
            p99_budget_ns,
            lk.total_ports
        );
        return;
    }

    let rows = e12_delta_gossip(100, 10);
    println!("{}", render_ab(&rows));
    println!(
        "steady-state bytes ratio (full-refresh / delta): x{:.1}\n",
        steady_ratio(&rows)
    );

    let lk = e12_lookup_scale(10_000, 100);
    println!("E12 federation lookup at scale (wall clock)");
    println!(
        "{} profiles x {} ports = {} advertised ports over {} MIME types, built in {:.0} ms",
        lk.profiles, lk.ports_per_profile, lk.total_ports, lk.distinct_mimes, lk.build_ms
    );
    println!(
        "{} indexed lookups: avg {} ns, p99 {} ns, max {} ns",
        lk.lookups, lk.avg_ns, lk.p99_ns, lk.max_ns
    );
    println!(
        "{} indexed bindings: avg {} ns, p99 {} ns, max {} ns; scan fallbacks {}",
        lk.lookups, lk.bind_avg_ns, lk.bind_p99_ns, lk.bind_max_ns, lk.scan_fallbacks
    );

    if let Some(file) = json_out {
        let gossip_row = |r: &DeltaGossipRow| {
            format!(
                "{{\"mode\": \"{}\", \"runtimes\": {}, \"per_runtime\": {}, \"bootstrap_bytes\": {}, \"steady_bytes\": {}, \"steady_secs\": {}, \"join_convergence_ms\": {}, \"leave_convergence_ms\": {}, \"deltas_applied\": {}, \"antientropy_repairs\": {}, \"final_entries\": {}}}",
                r.mode,
                r.runtimes,
                r.per_runtime,
                r.bootstrap_bytes,
                r.steady_bytes,
                r.steady_secs,
                r.join_convergence_ms,
                r.leave_convergence_ms,
                r.deltas_applied,
                r.antientropy_repairs,
                r.final_entries,
            )
        };
        let mut out = String::from("{\n  \"name\": \"perf_dir\",\n");
        out.push_str(
            "  \"units\": \"*_bytes: directory-plane bytes over the named window (virtual time, simulator-deterministic); steady_secs: virtual seconds; *_convergence_ms: milliseconds of virtual time, worst runtime; deltas_applied/antientropy_repairs/final_entries/total_ports/distinct_mimes/lookups/scan_fallbacks: counts; steady_bytes_ratio: dimensionless; build_ms: wall-clock milliseconds; avg_ns/p99_ns/max_ns: wall-clock nanoseconds per lookup; bind_*_ns: wall-clock nanoseconds per binding resolution\",\n",
        );
        out.push_str(
            "  \"description\": \"E12 directory-federation A/B (DESIGN.md delta-gossip plane, EXPERIMENTS.md E12): 100 runtimes x 10 services on the 10 Mbps hub, 60 virtual seconds of steady state, then one join/leave churn cycle. 'before' is the legacy full-refresh protocol (every entry re-advertised every interval, TTL liveness); 'after' is delta-gossip (version-vectored deltas, digest anti-entropy, origin-level liveness) plus the federation lookup and binding microbenchmark at 1M advertised ports. Byte counts and convergence are simulator-deterministic; lookup timings are wall-clock and machine-dependent. Regenerate with: cargo run --offline --release -p bench --bin perf_dir -- --json BENCH_perf_dir.json\",\n",
        );
        out.push_str(
            "  \"machine\": \"linux x86_64 container (shared); only e12_lookup_scale and build_ms depend on the host\",\n",
        );
        out.push_str(&format!(
            "  \"before\": {{\n    \"e12_delta_gossip\": {}\n  }},\n",
            gossip_row(&rows[0])
        ));
        out.push_str(&format!(
            "  \"after\": {{\n    \"e12_delta_gossip\": {},\n    \"steady_bytes_ratio\": {:.1},\n    \"e12_lookup_scale\": {{\"profiles\": {}, \"ports_per_profile\": {}, \"total_ports\": {}, \"distinct_mimes\": {}, \"build_ms\": {:.0}, \"lookups\": {}, \"avg_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"bind_avg_ns\": {}, \"bind_p99_ns\": {}, \"bind_max_ns\": {}, \"scan_fallbacks\": {}}}\n  }}\n}}\n",
            gossip_row(&rows[1]),
            steady_ratio(&rows),
            lk.profiles,
            lk.ports_per_profile,
            lk.total_ports,
            lk.distinct_mimes,
            lk.build_ms,
            lk.lookups,
            lk.avg_ns,
            lk.p99_ns,
            lk.max_ns,
            lk.bind_avg_ns,
            lk.bind_p99_ns,
            lk.bind_max_ns,
            lk.scan_fallbacks
        ));
        std::fs::write(&file, out).expect("write perf_dir json");
        println!("wrote {file}");
    }
}
