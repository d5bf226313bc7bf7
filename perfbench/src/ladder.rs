//! The per-layer ladder of the traced run: each layer's public functions
//! timed directly, outside in, every call wrapped in a span.

use std::sync::Arc;
use std::time::Instant;

use tm_overlay::frontend::{compile_kernel_with, LowerOptions};
use tm_overlay::runtime::RuntimeError;
use tm_overlay::scheduler::{generate_program, schedule, CompiledKernel};
use tm_overlay::sim::OverlaySimulator;
use tm_overlay::{Request, Runtime};

use crate::check::{check_serve, Checked};
use crate::gen::{Kind, Plan, VARIANT};
use crate::phase::absorb;
use crate::spans::Spans;
use crate::stats::median;
use crate::target::{Overrides, Target};

/// Passes over the kernels when timing compiles.
const COMPILE_PASSES: usize = 3;
/// Simulator timing stops after this long (at least one pass).
const SIM_SECONDS: f64 = 0.3;
/// Pairs the simulator ladder draws from a memo-cold workload.
const SIM_PAIRS_MAX: usize = 512;
/// One-request serves timed for the fixed cost.
const FIXED_SERVES: usize = 40;
/// Loop-replica timing stops after this long (at least one pass).
const LOOP_SECONDS: f64 = 1.0;
/// Serves per thread budget in the shard comparison.
const SHARD_SERVES: usize = 6;

#[derive(Debug, Default)]
pub struct Ladder {
    pub frontend_us: Vec<f64>,
    pub schedule_us: Vec<f64>,
    pub codegen_us: Vec<f64>,
    /// Mean host µs of one whole compile (front end + schedule + codegen).
    pub compile_mean_us: f64,
    pub sim_us_per_block: f64,
    pub sim_us_per_run: f64,
    pub fixed_us: f64,
    pub loop_ns_per_event: f64,
    pub shard_ms_threads1: f64,
    pub shard_ms_threads2: f64,
}

pub fn measure(
    plan: &Plan,
    target: &mut Target,
    spans: &mut Spans,
    checked: &mut Checked,
) -> Result<Ladder, RuntimeError> {
    let root = spans.begin("ladder", 0);
    let mut ladder = Ladder::default();
    let compiled = compile_layer(plan, spans, root.id, &mut ladder)?;
    sim_layer(plan, &compiled, spans, root.id, &mut ladder, checked)?;
    ladder.fixed_us = fixed_cost(plan, target, spans, root.id, checked)?;
    ladder.loop_ns_per_event = loop_replica(plan, ladder.fixed_us, spans, root.id, checked)?;
    if plan.kind == Kind::ColdSharded {
        let (t1, t2) = shard_pair(plan, spans, root.id, checked)?;
        ladder.shard_ms_threads1 = t1;
        ladder.shard_ms_threads2 = t2;
    }
    spans.end(root);
    Ok(ladder)
}

/// Front end, scheduler and code generator over every distinct kernel, as
/// the runtime's compile path calls them.
fn compile_layer(
    plan: &Plan,
    spans: &mut Spans,
    parent: u64,
    ladder: &mut Ladder,
) -> Result<Vec<Arc<CompiledKernel>>, RuntimeError> {
    let open = spans.begin("compile", parent);
    let options = LowerOptions::default();
    let depth = Runtime::new(VARIANT, 1)?.pool().logical_depth();
    let mut compiled = Vec::with_capacity(plan.kernels.len());
    for pass in 0..COMPILE_PASSES {
        for kernel in &plan.kernels {
            let dfg = match &kernel.source {
                Some(source) => {
                    let span = spans.begin("frontend.compile_kernel_with", open.id);
                    let start = Instant::now();
                    let dfg = Arc::new(compile_kernel_with(source, &options)?);
                    ladder.frontend_us.push(micros(start));
                    spans.end(span);
                    dfg
                }
                None => Arc::clone(&kernel.dfg),
            };
            let span = spans.begin("scheduler.schedule", open.id);
            let start = Instant::now();
            let stages = schedule(&dfg, VARIANT, Some(depth))?;
            ladder.schedule_us.push(micros(start));
            spans.end(span);
            let span = spans.begin("scheduler.generate_program", open.id);
            let start = Instant::now();
            let program = generate_program(&dfg, &stages, VARIANT)?;
            ladder.codegen_us.push(micros(start));
            spans.end(span);
            if pass == 0 {
                compiled.push(Arc::new(program));
            }
        }
    }
    let total_us: f64 = [&ladder.frontend_us, &ladder.schedule_us, &ladder.codegen_us]
        .iter()
        .map(|calls| calls.iter().sum::<f64>())
        .sum();
    ladder.compile_mean_us = total_us / (COMPILE_PASSES * plan.kernels.len()) as f64;
    spans.end(open);
    Ok(compiled)
}

/// `OverlaySimulator::run` over the workload's distinct pairs, configured
/// as the runtime's sim workers configure it; every run's outputs are
/// checked against the reference.
fn sim_layer(
    plan: &Plan,
    compiled: &[Arc<CompiledKernel>],
    spans: &mut Spans,
    parent: u64,
    ladder: &mut Ladder,
    checked: &mut Checked,
) -> Result<(), RuntimeError> {
    let open = spans.begin("sim", parent);
    let simulator = OverlaySimulator::new(VARIANT).with_trace_capacity(0);
    let pairs = &plan.pairs[..plan.pairs.len().min(SIM_PAIRS_MAX)];
    let (mut runs, mut blocks, mut seconds) = (0usize, 0usize, 0.0);
    let start = Instant::now();
    while runs == 0 || start.elapsed().as_secs_f64() < SIM_SECONDS {
        for pair in pairs {
            let span = spans.begin("sim.OverlaySimulator::run", open.id);
            let call = Instant::now();
            let run = simulator.run(&compiled[pair.kernel], &pair.workload)?;
            seconds += call.elapsed().as_secs_f64();
            spans.end(span);
            checked.submitted += 1;
            if run.outputs() != pair.reference.as_slice() {
                checked.failed += 1;
            }
            runs += 1;
            blocks += pair.workload.len();
        }
    }
    ladder.sim_us_per_block = seconds * 1e6 / blocks as f64;
    ladder.sim_us_per_run = seconds * 1e6 / runs as f64;
    spans.end(open);
    Ok(())
}

/// A one-request serve on the workload's own instance: worker spawn,
/// reset and aggregate, with a memo-warm, cache-warm request.
fn fixed_cost(
    plan: &Plan,
    target: &mut Target,
    spans: &mut Spans,
    parent: u64,
    checked: &mut Checked,
) -> Result<f64, RuntimeError> {
    let open = spans.begin("runtime.serve_fixed", parent);
    let first = &plan.rounds[0][0];
    let single = vec![Arc::new(Request::clone(first).at(0.0))];
    let pairs = [plan.round_pairs[0][0]];
    let mut micros_each = Vec::with_capacity(FIXED_SERVES);
    for _ in 0..FIXED_SERVES {
        let span = spans.begin(crate::phase::serve_span_name(plan), open.id);
        let (wall, served) = target.serve_trace(plan, &single, None);
        spans.end(span);
        absorb(checked, check_serve(plan, &pairs, &served));
        served?;
        micros_each.push(wall.as_secs_f64() * 1e6);
    }
    spans.end(open);
    Ok(median(&micros_each))
}

/// Host ns per event on a replica whose sim memo and kernel cache hold
/// every run and kernel, after a warming pass: (serve wall − fixed cost)
/// / events.
fn loop_replica(
    plan: &Plan,
    fixed_us: f64,
    spans: &mut Spans,
    parent: u64,
    checked: &mut Checked,
) -> Result<f64, RuntimeError> {
    let open = spans.begin("runtime.loop_replica", parent);
    let overrides = Overrides {
        sim_memo: Some(plan.pairs.len() * 2),
        kernel_cache: Some(plan.kernels.len() * 2),
        threads: None,
    };
    let mut replica = Target::build(plan.kind, overrides)?;
    for (trace, pairs) in plan.rounds.iter().zip(&plan.round_pairs) {
        let (_, served) = replica.serve_trace(plan, trace, None);
        absorb(checked, check_serve(plan, pairs, &served));
        served?;
    }
    let (mut loop_ns, mut events) = (0.0, 0u64);
    let start = Instant::now();
    while events == 0 || start.elapsed().as_secs_f64() < LOOP_SECONDS {
        for (trace, pairs) in plan.rounds.iter().zip(&plan.round_pairs) {
            let span = spans.begin(crate::phase::serve_span_name(plan), open.id);
            let (wall, served) = replica.serve_trace(plan, trace, None);
            spans.end(span);
            absorb(checked, check_serve(plan, pairs, &served));
            let report = served?;
            loop_ns += (wall.as_secs_f64() * 1e6 - fixed_us).max(0.0) * 1e3;
            events += report.metrics().events_fired;
        }
    }
    spans.end(open);
    Ok(loop_ns / events as f64)
}

/// The same memo-cold traces served at thread budgets 1 and 2, alternating
/// which goes first; median ms of each.
fn shard_pair(
    plan: &Plan,
    spans: &mut Spans,
    parent: u64,
    checked: &mut Checked,
) -> Result<(f64, f64), RuntimeError> {
    let open = spans.begin("shard", parent);
    let mut targets = Vec::with_capacity(2);
    for threads in [1, 2] {
        let overrides = Overrides {
            threads: Some(threads),
            ..Overrides::default()
        };
        let mut target = Target::build(plan.kind, overrides)?;
        let (_, served) = target.serve_trace(plan, &plan.warmup, None);
        absorb(checked, check_serve(plan, &plan.warmup_pairs, &served));
        served?;
        targets.push(target);
    }
    let mut ms = [Vec::new(), Vec::new()];
    for serve in 0..SHARD_SERVES {
        // Start past the warm-up round so every serve is memo-cold.
        let round = (serve + 1) % plan.rounds.len();
        let order = if serve % 2 == 0 { [0, 1] } else { [1, 0] };
        for budget in order {
            let name = ["shard.serve_threads1", "shard.serve_threads2"][budget];
            let span = spans.begin(name, open.id);
            let (wall, served) = targets[budget].serve_trace(plan, &plan.rounds[round], None);
            spans.end(span);
            absorb(
                checked,
                check_serve(plan, &plan.round_pairs[round], &served),
            );
            served?;
            ms[budget].push(wall.as_secs_f64() * 1e3);
        }
    }
    spans.end(open);
    Ok((median(&ms[0]), median(&ms[1])))
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}
