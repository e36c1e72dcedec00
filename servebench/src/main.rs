//! `servebench` — the repository's serving benchmark.
//!
//! One process starts a `lec-serviced` daemon over a Unix socket in front of
//! one `ConcurrentPlanServer` and drives a named workload through it with
//! closed-loop clients (each waits for its plan before sending the next
//! request).  Every answer is checked against a fresh `Optimizer::optimize`
//! oracle; any mismatch fails the run.
//!
//! ```text
//! servebench --workload <warm_hits|cold_search|churn_mixed> --seed <n>
//!            --seconds <s> --trace <0|1> [--inject-mismatch]
//! servebench --report --seed <n> --seconds <s>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the workload untraced, then traced, then probes each
//! layer directly (a third of the seconds each) and reports the per-layer
//! metrics: daemon stage self times from the telemetry ring, and timed calls
//! into each layer's public functions (see `layers`).  Its spans are written
//! to `servebench/run/spans-<workload>.jsonl`.  `--report` runs every
//! workload both ways in child processes and prints one table of every
//! metric.
//!
//! `BENCHMARK.json` gates `cold_search` and `churn_mixed`.  `warm_hits` runs
//! and reports the same way but is not gated: on a 2-vCPU VM its ~20µs round
//! trips are dominated by how the host schedules the two vCPUs, and its
//! throughput and p90 moved by 28–38% between host phases, more than any
//! allowed bound.
//!
//! Standard output ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod drive;
mod layers;
mod stats;
mod workload;

use drive::{check_deferred, run_phase, Phase, PhaseSpec};
use layers::{p50, probe, stage_times, SpanLog, STAGES};
use serde_json::Value;
use stats::{median, percentile, Tally};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{shape_oracles, Inputs, Oracle, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Probe requests per traced run (each is served three times in-process).
const PROBE_REQUESTS: u64 = 400;
const PROBE_REQUESTS_COLD: u64 = 24;
/// Trace-ring size: the most recent traced requests the stage times and
/// closure share are computed over.
const RING_SEGMENTS: usize = 4;
const RING_SLOTS: usize = 4096;

/// One reported metric: its name, unit, whether it is in the JSON result,
/// and the end-to-end metric (and workload) it should move.
struct Def {
    name: &'static str,
    unit: &'static str,
    in_result: bool,
    moves: &'static str,
}

const fn def(name: &'static str, unit: &'static str, moves: &'static str) -> Def {
    Def {
        name,
        unit,
        in_result: true,
        moves,
    }
}

/// Printed, but not in the JSON result: zero or unreportable by
/// construction on some workload (every result metric is reportable and
/// never constant zero on all three), restated by a result metric, or
/// (`latency_p50_us`) too unsteady from run to run to gate: on a 2-vCPU
/// guest its spread across runs reached ~0.5 of its median on cold_search,
/// where p90 and throughput stayed within ~0.2.
const fn shown(name: &'static str, unit: &'static str, moves: &'static str) -> Def {
    Def {
        name,
        unit,
        in_result: false,
        moves,
    }
}

const END_TO_END: &[Def] = &[
    def("throughput_rps", "1/s", "completed requests per second"),
    shown("latency_p50_us", "us", "client round trip, median"),
    def("latency_p90_us", "us", "client round trip"),
    shown(
        "latency_p99_us",
        "us",
        "client round trip; n/a under 1000 answers",
    ),
    def("served_share", "ratio", "1 - failed_share"),
    shown(
        "failed_share",
        "ratio",
        "failed, refused or wrong / attempted",
    ),
    def(
        "plan_cost_ratio_vs_lsc",
        "ratio",
        "geo-mean EC(served) / EC(LSC(mean) plan)",
    ),
    def("rss_mb", "MiB", "resident memory after the measured phase"),
    def(
        "setup_s",
        "s",
        "build server, daemon answering; median of 7",
    ),
];

const WARM_P50: &str = "throughput_rps, latency_p50_us on warm_hits";
const CHURN_TAIL: &str = "throughput_rps, latency_p90_us on churn_mixed";
const COLD_LAT: &str = "throughput_rps, latency_p90_us on cold_search";

const PER_LAYER: &[Def] = &[
    def("serviced.decode_us", "us", WARM_P50),
    def("serviced.encode_us", "us", WARM_P50),
    def("serviced.frame_bytes", "bytes", WARM_P50),
    def("serviced.wire_tax", "ratio", WARM_P50),
    def(
        "serviced.shed_share",
        "ratio",
        "served_share, latency_p90_us on churn_mixed",
    ),
    def(
        "serviced.gate_high_water",
        "count",
        "served_share, latency_p90_us on churn_mixed",
    ),
    def("canon.canonical_form_us", "us", WARM_P50),
    def("canon.refusal_share", "ratio", WARM_P50),
    def("service.serve_hit_us", "us", WARM_P50),
    def("plan.relabel_us", "us", WARM_P50),
    def("service.serve_miss_ms", "ms", CHURN_TAIL),
    def("service.hit_rate", "ratio", CHURN_TAIL),
    def("service.evictions", "count", CHURN_TAIL),
    def("service.recomputed", "count", CHURN_TAIL),
    def("service.revalidated", "count", CHURN_TAIL),
    def("service.coalesced_followers", "count", CHURN_TAIL),
    def("core.optimize_ms", "ms", COLD_LAT),
    def("core.nodes", "count", COLD_LAT),
    def("core.candidates", "count", COLD_LAT),
    def("core.memo_hit_rate", "ratio", COLD_LAT),
    def("core.pruned_subsets", "count", COLD_LAT),
    def("core.bound_evals", "count", COLD_LAT),
    def("core.sharp_bound_evals", "count", COLD_LAT),
    def("cost.evals", "count", COLD_LAT),
    def("cost.cache_hits", "count", COLD_LAT),
    def("cost.eval_cache_hit_rate", "ratio", COLD_LAT),
    def("stage.decode_us", "us", WARM_P50),
    shown("stage.admission_us", "us", CHURN_TAIL),
    def("stage.cache_probe_us", "us", WARM_P50),
    shown("stage.coalesce_wait_us", "us", CHURN_TAIL),
    shown("stage.search_us", "us", COLD_LAT),
    def("stage.flush_us", "us", WARM_P50),
    def("core.level_combine_us", "us", COLD_LAT),
    def("core.memo_probe_us", "us", COLD_LAT),
    def("core.bound_eval_us", "us", COLD_LAT),
    def("cost.eval_compute_us", "us", COLD_LAT),
    def(
        "trace.closure_share",
        "ratio",
        "not gated: layer self time / wall time",
    ),
    def(
        "telemetry.overhead_ratio",
        "ratio",
        "not gated: untraced / traced throughput",
    ),
];

/// Command-line arguments.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: bool,
    inject_mismatch: bool,
}

const USAGE: &str = "usage: servebench --workload <warm_hits|cold_search|churn_mixed> \
--seed <n> --seconds <s> --trace <0|1> [--inject-mismatch]\n       \
servebench --report --seed <n> --seconds <s>";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: 10.0,
            trace: false,
            report: false,
            inject_mismatch: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    args.workload =
                        Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
                }
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                "--report" => args.report = true,
                "--inject-mismatch" => args.inject_mismatch = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if args.workload.is_none() && !args.report {
            return Err("--workload is required".into());
        }
        Ok(args)
    }
}

/// What one run measured.
struct RunOut {
    values: Vec<(&'static Def, Option<f64>)>,
    tally: Tally,
    /// Reasons the run is not correct (mismatches, broken connections).
    errors: Vec<String>,
    notes: Vec<String>,
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.report {
        return report(&args);
    }
    let w = args.workload.expect("parse requires a workload");
    println!(
        "# servebench workload={} seed={} seconds={} trace={} host_cores={} clients={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        host_cores(),
        w.clients()
    );
    let out = if args.trace {
        traced_run(w, args.seed, args.seconds, args.inject_mismatch)
    } else {
        end_to_end_run(w, args.seed, args.seconds, args.inject_mismatch)
    };
    for note in &out.notes {
        println!("# {note}");
    }
    println!("| workload | metric | unit | value | moves |");
    for (d, v) in &out.values {
        let v = v.map_or("n/a".to_string(), |v| format!("{v}"));
        println!(
            "| {} | {} | {} | {} | {} |",
            w.name(),
            d.name,
            d.unit,
            v,
            d.moves
        );
    }
    let mut metrics = Vec::new();
    for (d, v) in out.values.iter().filter(|(d, _)| d.in_result) {
        let Some(v) = v else {
            eprintln!("servebench: {} has too few samples to report", d.name);
            return ExitCode::from(3);
        };
        let entry = Value::Object(vec![
            ("value".into(), Value::Number(*v)),
            ("unit".into(), Value::String(d.unit.into())),
        ]);
        metrics.push((d.name.to_string(), entry));
    }
    for e in &out.errors {
        eprintln!("servebench: {e}");
    }
    let correct = out.errors.is_empty();
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        (
            "attempted".into(),
            Value::Number(out.tally.attempted as f64),
        ),
        ("failed".into(), Value::Number(out.tally.failed() as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("serializable"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workload's inputs and per-shape oracles (off the clock).
fn prepare(w: Workload, seed: u64, inject_mismatch: bool) -> (Inputs, Vec<Oracle>) {
    let inputs = Inputs::new(w, seed);
    let mut oracles = shape_oracles(&inputs, host_cores());
    if inject_mismatch {
        if let Some(o) = oracles.first_mut() {
            o.cost_bits ^= 1;
        }
    }
    (inputs, oracles)
}

/// Check deferred answers and fold the phase's failures into `errors`.
fn settle(inputs: &Inputs, phase: &mut Phase, inject_mismatch: bool, errors: &mut Vec<String>) {
    if inject_mismatch {
        if let Some(d) = phase.deferred.first_mut() {
            d.cost = f64::from_bits(d.cost.to_bits() ^ 1);
        }
    }
    check_deferred(inputs, phase, host_cores());
    if phase.tally.mismatched > 0 {
        errors.push(format!(
            "{} of {} answers differ from a fresh optimization",
            phase.tally.mismatched, phase.tally.attempted
        ));
    }
    errors.extend(phase.broken.iter().cloned());
}

fn spec<'a>(
    inputs: &'a Inputs,
    oracles: &'a [Oracle],
    seconds: f64,
    telemetry: Option<Arc<lec_telemetry::Telemetry>>,
) -> PhaseSpec<'a> {
    PhaseSpec {
        inputs,
        oracles,
        duration: Duration::from_secs_f64(seconds),
        telemetry,
    }
}

fn throughput(phase: &Phase) -> f64 {
    phase.tally.answered as f64 / phase.wall_s
}

fn end_to_end_run(w: Workload, seed: u64, seconds: f64, inject: bool) -> RunOut {
    let (inputs, oracles) = prepare(w, seed, inject);
    let mut setups: Vec<f64> = (1..SETUP_REPEATS)
        .map(|_| {
            run_phase(&spec(&inputs, &oracles, 0.0, None), |_| ())
                .0
                .setup_s
        })
        .collect();
    let (mut phase, ()) = run_phase(&spec(&inputs, &oracles, seconds, None), |_| ());
    setups.push(phase.setup_s);
    let mut errors = Vec::new();
    settle(&inputs, &mut phase, inject, &mut errors);

    let t = &phase.tally;
    let mut sorted = t.latencies_ns.clone();
    sorted.sort_unstable();
    let us = |p: f64| percentile(&sorted, p).map(|ns| ns as f64 / 1e3);
    let values = vec![
        Some(throughput(&phase)),
        us(0.5),
        us(0.9),
        us(0.99),
        (t.attempted > 0).then(|| t.ok as f64 / t.attempted as f64),
        Some(t.failed_share()),
        (t.answered > 0).then(|| t.plan_cost_ratio()),
        Some(phase.rss_mb),
        Some(median(&mut setups)),
    ];
    RunOut {
        values: END_TO_END.iter().zip(values).collect(),
        notes: vec![format!(
            "windows={:?} attempted={} ok={} refused={} mismatched={} wall_s={:.3} oracle_shapes={} deferred_checks={}",
            phase.windows,
            t.attempted,
            t.ok,
            t.refused,
            t.mismatched,
            phase.wall_s,
            oracles.len(),
            phase.deferred.len()
        )],
        tally: phase.tally,
        errors,
    }
}

fn traced_run(w: Workload, seed: u64, seconds: f64, inject: bool) -> RunOut {
    let (inputs, oracles) = prepare(w, seed, inject);
    let third = seconds / 3.0;
    let mut errors = Vec::new();
    let (mut plain, ()) = run_phase(&spec(&inputs, &oracles, third, None), |_| ());
    settle(&inputs, &mut plain, inject, &mut errors);

    let telemetry = Arc::new(lec_telemetry::Telemetry::new(
        lec_telemetry::TelemetryConfig {
            ring_segments: RING_SEGMENTS,
            ring_slots_per_segment: RING_SLOTS,
            ..lec_telemetry::TelemetryConfig::on()
        },
    ));
    let mut spans = SpanLog::new(Instant::now());
    let max_probe = if w == Workload::ColdSearch {
        PROBE_REQUESTS_COLD
    } else {
        PROBE_REQUESTS
    };
    let (mut traced, probed) = run_phase(
        &spec(&inputs, &oracles, third, Some(Arc::clone(&telemetry))),
        |server| {
            probe(
                &inputs,
                server,
                &mut spans,
                max_probe,
                Duration::from_secs_f64(third),
            )
        },
    );
    settle(&inputs, &mut traced, false, &mut errors);
    let st = stage_times(&traced, &mut spans);
    let dump = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("run")
        .join(format!("spans-{}.jsonl", w.name()));
    if let Err(e) = spans.write(&dump) {
        errors.push(format!("writing {}: {e}", dump.display()));
    }

    let mut sorted = traced.tally.latencies_ns.clone();
    sorted.sort_unstable();
    let wire_p50 = percentile(&sorted, 0.5).map(|ns| ns as f64);
    let per = |x: u64, n: u64| (n > 0).then(|| x as f64 / n as f64);
    let ratio = |x: u64, n: u64| Some(if n > 0 { x as f64 / n as f64 } else { 0.0 });
    let n_opt = probed.optimize_ns.len() as u64;
    let f = &probed.fresh;
    let engine = probed.engine.engine();
    let per_search = |h: &lec_telemetry::Histogram| {
        per(h.snapshot().sum(), probed.probe_searches).map(|ns| ns / 1e3)
    };
    let stage = |s| {
        let k = STAGES.iter().position(|&x| x == s).expect("known stage");
        (st.entered[k] > 0).then(|| st.total_ns[k] as f64 / st.requests as f64 / 1e3)
    };
    let c = &traced.cache;
    let m = &traced.memo;
    use lec_telemetry::Stage;
    let values = vec![
        p50(&probed.decode_ns).map(|ns| ns / 1e3),
        p50(&probed.encode_ns).map(|ns| ns / 1e3),
        per(probed.frame_bytes, probed.requests),
        wire_p50.zip(p50(&probed.inproc_ns)).map(|(w, i)| w / i),
        ratio(traced.daemon_shed, traced.daemon_requests),
        Some(traced.gate_high_water as f64),
        p50(&probed.canon_ns).map(|ns| ns / 1e3),
        ratio(probed.canon_refusals, probed.requests),
        p50(&probed.hit_ns).map(|ns| ns / 1e3),
        p50(&probed.relabel_ns).map(|ns| ns / 1e3),
        p50(&probed.miss_ns).map(|ns| ns / 1e6),
        Some(c.hit_rate()),
        Some(c.evictions as f64),
        Some(c.recomputed as f64),
        Some(c.revalidated as f64),
        Some(c.coalesced_followers as f64),
        p50(&probed.optimize_ns).map(|ns| ns / 1e6),
        per(f.nodes as u64, n_opt),
        per(f.candidates, n_opt),
        ratio(m.hits, m.hits + m.misses),
        per(f.pruned_subsets, n_opt),
        per(f.bound_evals, n_opt),
        per(f.sharp_bound_evals, n_opt),
        per(f.evals, n_opt),
        per(f.cache_hits, n_opt),
        ratio(f.cache_hits, f.evals + f.cache_hits),
        stage(Stage::Decode),
        stage(Stage::Admission),
        stage(Stage::CacheProbe),
        stage(Stage::CoalesceWait),
        stage(Stage::Search),
        stage(Stage::Flush),
        per_search(&engine.level_combine_ns),
        per_search(&engine.memo_probe_ns),
        per_search(&engine.bound_eval_ns),
        per_search(&engine.eval_compute_ns),
        per(st.total_ns.iter().sum(), st.wall_ns),
        Some(throughput(&plain) / throughput(&traced)),
    ];
    let notes = vec![
        format!(
            "untraced_rps={:.1} traced_rps={:.1} traced_requests_matched={} probe_requests={} probe_searches={} fresh_searches={}",
            throughput(&plain),
            throughput(&traced),
            st.requests,
            probed.requests,
            probed.probe_searches,
            n_opt
        ),
        format!("spans written to {}", dump.display()),
    ];
    let mut tally = plain.tally;
    tally.merge(traced.tally);
    RunOut {
        values: PER_LAYER.iter().zip(values).collect(),
        notes,
        tally,
        errors,
    }
}

/// Every workload, end-to-end and traced, each in its own process (so
/// resident memory is per workload); prints one table of every metric.
fn report(args: &Args) -> ExitCode {
    println!(
        "# servebench report seed={} seconds={} host_cores={} clients: {}",
        args.seed,
        args.seconds,
        host_cores(),
        Workload::ALL
            .iter()
            .map(|w| format!("{}={}", w.name(), w.clients()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("| workload | metric | unit | value | moves |");
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in Workload::ALL {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .output()
                .expect("run a workload");
            let stdout = String::from_utf8_lossy(&out.stdout);
            for line in stdout
                .lines()
                .filter(|l| l.starts_with("| ") && !l.starts_with("| workload"))
            {
                println!("{line}");
            }
            if !out.status.success() {
                ok = false;
                eprintln!(
                    "servebench: {} --trace {trace} failed ({}):\n{}",
                    w.name(),
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload churn_mixed --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::ChurnMixed));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload warm_hits --trace 2").is_err());
        assert!(parse("--workload warm_hits --seconds 0").is_err());
        assert!(parse("--report --seed 3").unwrap().report);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} repeats", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    /// The JSON result carries exactly the metrics BENCHMARK.json lists.
    #[test]
    fn result_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        let listed = compact.matches("\"name\":").count();
        let in_result: Vec<&Def> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter(|d| d.in_result)
            .collect();
        for d in &in_result {
            let entry = format!("{{\"name\":\"{}\",\"unit\":\"{}\"", d.name, d.unit);
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads: Vec<&str> = compact
            .split("{\"name\":\"")
            .filter_map(|entry| entry.split_once("\",\"why\"").map(|(name, _)| name))
            .collect();
        assert!(workloads.len() >= 2);
        for w in &workloads {
            assert!(Workload::parse(w).is_some(), "unknown workload {w}");
        }
        assert_eq!(listed, in_result.len() + workloads.len());
    }
}
