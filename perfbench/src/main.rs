//! Host-time serving benchmark of the tm-overlay runtime.
//!
//! ```text
//! perfbench --workload <warm_batch|cold_sharded|stream_churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every in-program
//! instrument off; `--trace 1` measures the per-layer ladder and writes the
//! benchmark's spans as a Chrome/Perfetto trace. Every output is checked
//! against the reference evaluator. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` beside this crate for the metric definitions.

mod check;
mod gen;
mod ladder;
mod phase;
mod spans;
mod stats;
mod target;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use check::Checked;
use gen::{Kind, Plan};
use phase::Phase;
use spans::Spans;
use stats::{median, quantile, tail};

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
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
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run reports.
struct Results {
    /// The tracked metrics: the JSON result line carries exactly these.
    metrics: Vec<Metric>,
    /// Printed and recorded in the result file, not tracked.
    untracked: Vec<Metric>,
    /// Failures beyond the output checks: batch replays that differ.
    extra_failed: usize,
    notes: Vec<String>,
    /// Host ms of every untraced timed serve, in order (noise made visible).
    serve_ms: Vec<f64>,
    /// Host ms of every host probe, in order.
    probe_ms: Vec<f64>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let plan = Plan::generate(args.kind, args.seed).map_err(|e| format!("generate: {e}"))?;
    let shape = plan.shape;
    println!(
        "perfbench {} seed {}: {} device(s) x {} tiles, {} kernels, {} rounds x {} requests, \
         rho {}, {} distinct runs per round",
        plan.kind.name(),
        plan.seed,
        shape.devices,
        shape.tiles,
        plan.kernels.len(),
        plan.rounds.len(),
        shape.round_len,
        shape.rho,
        plan.distinct_runs_per_round(),
    );
    println!("why: {}", plan.kind.why());

    let mut checked = Checked::default();
    let (mut target, first_setup) =
        phase::set_up(&plan, &mut checked).map_err(|e| format!("set-up: {e}"))?;
    let flaps = if plan.kind.streaming() {
        phase::stream_flaps(&plan, &mut checked).map_err(|e| format!("flap check: {e}"))?
    } else {
        0
    };

    let results = if args.trace {
        traced_run(args, &plan, &mut target, &mut checked, flaps)?
    } else {
        let phase = phase::timed(&plan, &mut target, args.seconds, None)
            .map_err(|e| format!("timed phase: {e}"))?;
        phase::absorb(&mut checked, phase.checked);
        end_to_end(&phase, first_setup, &checked)
    };
    let failed = checked.failed + results.extra_failed;
    if flaps > 0 {
        println!(
            "FOUND streaming flap: {flaps} of {} fresh-instance serve pairs of one trace gave \
             different modeled statistics",
            phase::FLAP_CHECKS
        );
    }

    println!("{:<34} {:>18}  unit", "metric", "value");
    for m in &results.metrics {
        println!("{:<34} {:>18.6}  {}", m.name, m.value, m.unit);
    }
    for m in &results.untracked {
        println!("{:<34} {:>18.6}  {} (untracked)", m.name, m.value, m.unit);
    }
    for note in &results.notes {
        println!("note: {note}");
    }
    let provenance = provenance(args, &plan);
    println!("provenance: {{{provenance}}}");

    let body = metrics_json(&results.metrics);
    write_result(args, &provenance, &body, &results)?;
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        failed == 0,
        checked.submitted.max(1),
        failed
    );
    Ok(())
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(phase: &Phase, first_setup: f64, checked: &Checked) -> Results {
    let serve_ms: Vec<f64> = phase.serve_secs.iter().map(|s| s * 1e3).collect();
    let (tail_ms, tail_pct, samples) = tail(&serve_ms);
    let modeled = &phase.modeled;
    let failed = checked.failed + phase.replay_mismatches;
    let mut setup_secs = vec![first_setup];
    setup_secs.extend(&phase.setup_secs);
    let notes = vec![
        format!("serve_ms_tail_raw is p{tail_pct:.3} over {samples} serves (ten serves beyond it)"),
        format!(
            "failed_share counts {failed} failed of {} requests submitted (serve errors, wrong \
             or missing outputs, admission rejects, {} batch replays with different modeled \
             statistics)",
            checked.submitted, phase.replay_mismatches
        ),
        format!(
            "modeled figures over the first pass: {} requests in {} serves, {} deadline-carrying, \
             {} missed",
            modeled.requests, modeled.serves, modeled.deadline_submitted, modeled.deadline_missed
        ),
        format!("setup_s samples: {setup_secs:?}"),
    ];
    // Tracked host figures are scaled to the reference host speed (see
    // `phase::REFERENCE_PROBE_S`); the raw figures are printed beside them.
    let scaled = phase.scaled_serve_secs();
    let metrics = vec![
        metric(
            "requests_per_s",
            phase.requests as f64 / scaled.iter().sum::<f64>(),
            "1/s",
        ),
        metric("setup_s", phase.scaled_setup_secs(first_setup), "s"),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
        metric(
            "modeled_p99_latency_us",
            quantile(&modeled.latencies, 0.99),
            "us",
        ),
        metric(
            "modeled_deadline_miss_rate",
            modeled.deadline_missed as f64 / modeled.deadline_submitted.max(1) as f64,
            "ratio",
        ),
    ];
    let untracked = vec![
        metric(
            "host_probe_ms",
            phase.mean_host_factor() * phase::REFERENCE_PROBE_S * 1e3,
            "ms",
        ),
        metric("serve_ms_p50", median(&scaled) * 1e3, "ms"),
        metric("requests_per_s_raw", phase.requests_per_s(), "1/s"),
        metric("serve_ms_p50_raw", median(&serve_ms), "ms"),
        metric("setup_s_raw", median(&setup_secs), "s"),
        metric("serve_ms_tail_raw", tail_ms, "ms"),
        metric(
            "failed_share",
            failed as f64 / checked.submitted.max(1) as f64,
            "ratio",
        ),
    ];
    Results {
        metrics,
        untracked,
        extra_failed: phase.replay_mismatches,
        notes,
        serve_ms,
        probe_ms: phase.probe_secs.iter().map(|s| s * 1e3).collect(),
    }
}

/// The traced run: untraced and traced serves alternating, then the
/// per-layer ladder; writes the spans at the end.
fn traced_run(
    args: &Args,
    plan: &Plan,
    target: &mut target::Target,
    checked: &mut Checked,
    flaps: usize,
) -> Result<Results, String> {
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    let untraced = phase::timed(plan, target, args.seconds, Some(&mut spans))
        .map_err(|e| format!("timed phase: {e}"))?;
    phase::absorb(checked, untraced.checked);
    let ladder =
        ladder::measure(plan, target, &mut spans, checked).map_err(|e| format!("ladder: {e}"))?;

    let u = &untraced;
    let serves = u.serves() as f64;
    let wall_us = u.wall() * 1e6;
    let attributed_us = serves * ladder.fixed_us
        + u.compiles as f64 * ladder.compile_mean_us
        + u.memo_misses as f64 * ladder.sim_us_per_run
        + u.events as f64 * ladder.loop_ns_per_event / 1e3;
    let kernel_lookups = u.kernel_hits + u.kernel_misses;
    let memo_lookups = u.memo_hits + u.memo_misses;
    let submit_ns: Vec<f64> = u.submit_ns.iter().map(|&(_, d)| d as f64).collect();
    let (submit_tail, submit_pct, submit_samples) = tail(&submit_ns);
    let speedup = if ladder.shard_ms_threads2 > 0.0 {
        ladder.shard_ms_threads1 / ladder.shard_ms_threads2
    } else {
        0.0
    };
    let m = &u.modeled;
    let device_total: usize = m.device_requests.iter().sum();
    let device_max = m.device_requests.iter().copied().max().unwrap_or(0);
    let skew = if device_total == 0 {
        0.0
    } else {
        device_max as f64 * m.device_requests.len() as f64 / device_total as f64
    };
    let rps_untraced = u.requests_per_s();
    let rps_traced = u.traced_requests_per_s();

    let metrics = vec![
        metric("frontend.compile_us_p50", median(&ladder.frontend_us), "us"),
        metric(
            "scheduler.schedule_us_p50",
            median(&ladder.schedule_us),
            "us",
        ),
        metric("scheduler.codegen_us_p50", median(&ladder.codegen_us), "us"),
        metric(
            "frontend.compiles_per_serve",
            u.per_serve(u.compiles),
            "count",
        ),
        metric("sim.run_us_per_block", ladder.sim_us_per_block, "us"),
        metric("sim.runs", u.per_serve(u.memo_misses), "count"),
        metric(
            "cache.kernel_hit_rate",
            ratio(u.kernel_hits, kernel_lookups),
            "ratio",
        ),
        metric("cache.kernel_lookups", u.per_serve(kernel_lookups), "count"),
        metric("cache.kernel_misses", u.per_serve(u.kernel_misses), "count"),
        metric(
            "cache.sim_memo_hit_rate",
            ratio(u.memo_hits, memo_lookups),
            "ratio",
        ),
        metric("cache.sim_memo_lookups", u.per_serve(memo_lookups), "count"),
        metric(
            "cache.sim_memo_evictions",
            u.per_serve(u.memo_evictions),
            "count",
        ),
        metric(
            "runtime.requests_per_serve",
            u.per_serve(u.requests),
            "count",
        ),
        metric("runtime.events", u.per_serve(u.events as usize), "count"),
        metric("runtime.loop_ns_per_event", ladder.loop_ns_per_event, "ns"),
        metric("runtime.serve_fixed_us", ladder.fixed_us, "us"),
        metric("runtime.serve_ms_p50", median(&u.serve_secs) * 1e3, "ms"),
        metric(
            "runtime.unattributed_share",
            1.0 - attributed_us / wall_us,
            "ratio",
        ),
        metric(
            "dispatch.switch_share",
            ratio(m.switches, m.requests),
            "ratio",
        ),
        metric("pool.mean_queue_depth", mean(&m.queue_depth), "count"),
        metric("pool.mean_utilization", mean(&m.utilization), "ratio"),
        metric("route.device_skew", skew, "ratio"),
        metric("route.transfers", u.per_serve(u.transfers), "count"),
        metric("shard.serve_ms_threads1", ladder.shard_ms_threads1, "ms"),
        metric("shard.serve_ms_threads2", ladder.shard_ms_threads2, "ms"),
        metric("shard.parallel_speedup", speedup, "ratio"),
        metric("submit.call_ns_p50", median(&submit_ns), "ns"),
        metric("submit.call_ns_tail", submit_tail, "ns"),
        metric("trace.requests_per_s_untraced", rps_untraced, "1/s"),
        metric("trace.requests_per_s_traced", rps_traced, "1/s"),
        metric(
            "trace.overhead_share",
            1.0 - rps_traced / rps_untraced,
            "ratio",
        ),
        metric("trace.spans", spans.len() as f64, "count"),
        metric(
            "host.probe_ms",
            u.mean_host_factor() * phase::REFERENCE_PROBE_S * 1e3,
            "ms",
        ),
        metric("determinism.stream_flaps", flaps as f64, "count"),
        metric(
            "determinism.batch_replay_mismatches",
            u.replay_mismatches as f64,
            "count",
        ),
    ];
    let notes = vec![
        format!(
            "attribution per untraced serve: fixed {:.1} us + {:.2} compiles x {:.1} us + {:.2} \
             sim runs x {:.2} us + {:.1} events x {:.1} ns against {:.1} us wall",
            ladder.fixed_us,
            u.per_serve(u.compiles),
            ladder.compile_mean_us,
            u.per_serve(u.memo_misses),
            ladder.sim_us_per_run,
            u.per_serve(u.events as usize),
            ladder.loop_ns_per_event,
            wall_us / serves
        ),
        format!(
            "submit.call_ns_tail is p{submit_pct:.3} over {submit_samples} calls; zero on \
             batch workloads"
        ),
        "shard.* are zero where the workload never takes the sharded loop".to_owned(),
        format!("spans kept {}, dropped {}", spans.len(), spans.dropped),
    ];
    write_trace(args, plan, &spans)?;
    Ok(Results {
        metrics,
        untracked: Vec::new(),
        extra_failed: u.replay_mismatches,
        notes,
        serve_ms: u.serve_secs.iter().map(|s| s * 1e3).collect(),
        probe_ms: u.probe_secs.iter().map(|s| s * 1e3).collect(),
    })
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (never expected) become 0 so the line stays JSON.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_owned()
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Provenance as JSON object members: host parallelism, toolchain, source
/// revision, seed and the workload's reason.
fn provenance(args: &Args, plan: &Plan) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_owned());
    format!(
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"rustc\":{},\"git_rev\":{},\"source_digest\":{},\"why\":{}",
        json_string(plan.kind.name()),
        plan.seed,
        json_number(args.seconds),
        args.trace,
        json_string(&env("PERFBENCH_RUSTC")),
        json_string(&env("PERFBENCH_GIT_REV")),
        json_string(&env("PERFBENCH_SOURCE_DIGEST")),
        json_string(plan.kind.why()),
    )
}

fn out_path(args: &Args, suffix: &str) -> PathBuf {
    args.out_dir
        .join(format!("{}-seed{}{suffix}", args.kind.name(), args.seed))
}

/// `"name":{"value":v,"unit":"u"},...` for the JSON objects.
fn metrics_json(metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (index, m) in metrics.iter().enumerate() {
        let sep = if index == 0 { "" } else { "," };
        let _ = write!(
            body,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    body
}

fn write_result(
    args: &Args,
    provenance: &str,
    body: &str,
    results: &Results,
) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let notes: Vec<String> = results.notes.iter().map(|n| json_string(n)).collect();
    let samples: Vec<String> = results.serve_ms.iter().map(|&ms| json_number(ms)).collect();
    let probes: Vec<String> = results.probe_ms.iter().map(|&ms| json_number(ms)).collect();
    let document = format!(
        "{{\"provenance\":{{{provenance}}},\"metrics\":{{{body}}},\"untracked\":{{{}}},\
         \"notes\":[{}],\"serve_ms_samples\":[{}],\"probe_ms_samples\":[{}]}}\n",
        metrics_json(&results.untracked),
        notes.join(","),
        samples.join(","),
        probes.join(",")
    );
    let path = out_path(
        args,
        if args.trace {
            "-trace1.json"
        } else {
            "-trace0.json"
        },
    );
    std::fs::write(&path, document).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_trace(args: &Args, plan: &Plan, spans: &Spans) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let path = out_path(args, ".trace.json");
    std::fs::write(&path, spans.chrome_json(&provenance(args, plan)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace: {} spans written to {}", spans.len(), path.display());
    Ok(())
}
