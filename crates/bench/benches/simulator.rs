//! Simulator benches: invocations per second of the cycle-accurate model.
//!
//! Two groups:
//!
//! * `simulator` — long 256-block runs with the default event trace, three
//!   kernels × V1/V3 (criterion-style mean per iteration);
//! * `simulator_serving` — the shape the serving runtime's sim workers run:
//!   every suite kernel on V4 at the fixed depth, untraced
//!   (`with_trace_capacity(0)`), over many distinct 16-block workloads, so
//!   nothing is warm but the compiled kernel. Its per-block cost is spliced
//!   into `BENCH_runtime.json` as the `simulator` section, next to the cost
//!   the same group measured before the decode-once rewrite of the
//!   simulator hot path.
//!
//! * `BENCH_FAST=1` — CI mode: fewer repetitions of the serving group.
//! * `BENCH_RUNTIME_OUT=path` — override the JSON output path.

use std::fmt::Write as _;
use std::time::Instant;

use criterion::{black_box, criterion_group, Criterion, Throughput};
use tm_overlay::arch::FuVariant;
use tm_overlay::frontend::Benchmark;
use tm_overlay::sim::OverlaySimulator;
use tm_overlay::{Compiler, Overlay, Workload};

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    let blocks = 256usize;
    group.throughput(Throughput::Elements(blocks as u64));
    for benchmark in [Benchmark::Gradient, Benchmark::Sgfilter, Benchmark::Poly7] {
        let dfg = benchmark.dfg().unwrap();
        for variant in [FuVariant::V1, FuVariant::V3] {
            let compiled = Compiler::new(variant).compile_benchmark(benchmark).unwrap();
            let overlay = Overlay::for_kernel(variant, &compiled).unwrap();
            let workload = Workload::random(dfg.num_inputs(), blocks, 9);
            group.bench_function(format!("{benchmark}/{variant}/{blocks}_blocks"), |b| {
                b.iter(|| black_box(overlay.execute(&compiled, &workload).unwrap()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);

const SERVING_VARIANT: FuVariant = FuVariant::V4;
const SERVING_BLOCKS: usize = 16;
/// Distinct workloads per kernel per repetition.
const SERVING_WORKLOADS: usize = 64;

/// µs per block of the `simulator_serving` group before the decode-once
/// rewrite of the simulator hot path: this bench, run on the parent commit
/// `a0d9902` on the 2-vCPU host `vm` that recorded the committed section,
/// in suite order.
const BEFORE_US_PER_BLOCK: [(Benchmark, f64); 9] = [
    (Benchmark::Gradient, 0.827),
    (Benchmark::Chebyshev, 0.838),
    (Benchmark::Mibench, 1.167),
    (Benchmark::Qspline, 2.578),
    (Benchmark::Sgfilter, 1.999),
    (Benchmark::Poly5, 2.589),
    (Benchmark::Poly6, 3.803),
    (Benchmark::Poly7, 3.523),
    (Benchmark::Poly8, 3.004),
];

/// One kernel's serving-shape cost: the median over repetitions of the
/// mean µs per block across the distinct workloads.
struct Row {
    benchmark: Benchmark,
    fus: usize,
    us_per_block: f64,
    spread: f64,
}

fn serving_rows(reps: usize) -> Vec<Row> {
    let simulator = OverlaySimulator::new(SERVING_VARIANT).with_trace_capacity(0);
    Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            let compiled = Compiler::new(SERVING_VARIANT)
                .compile_benchmark(benchmark)
                .unwrap();
            let inputs = compiled.program.num_inputs();
            let workloads: Vec<Workload> = (0..SERVING_WORKLOADS)
                .map(|seed| Workload::random(inputs, SERVING_BLOCKS, seed as u64))
                .collect();
            // One untimed pass warms caches and the allocator.
            for workload in &workloads {
                black_box(simulator.run(&compiled, workload).unwrap());
            }
            let mut samples: Vec<f64> = (0..reps)
                .map(|_| {
                    let start = Instant::now();
                    for workload in &workloads {
                        black_box(simulator.run(&compiled, workload).unwrap());
                    }
                    start.elapsed().as_secs_f64() * 1e6
                        / (SERVING_WORKLOADS * SERVING_BLOCKS) as f64
                })
                .collect();
            samples.sort_by(f64::total_cmp);
            let quartile = |q: usize| samples[(samples.len() - 1) * q / 4];
            Row {
                benchmark,
                fus: compiled.num_fus(),
                us_per_block: quartile(2),
                spread: (quartile(3) - quartile(1)) / quartile(2),
            }
        })
        .collect()
}

fn main() {
    benches();

    let fast = std::env::var("BENCH_FAST").is_ok_and(|v| v != "0" && !v.is_empty());
    let reps = if fast { 9 } else { 31 };
    println!(
        "simulator_serving: {SERVING_VARIANT} × {} suite kernels, {SERVING_WORKLOADS} distinct \
         {SERVING_BLOCKS}-block workloads, untraced, median of {reps} reps",
        Benchmark::ALL.len()
    );
    println!(
        "{:<10} {:>4} {:>12} {:>8} {:>12} {:>8}",
        "kernel", "fus", "us/block", "iqr", "before", "speedup"
    );
    let rows = serving_rows(reps);
    let mut entries = Vec::new();
    for (row, &(benchmark, before)) in rows.iter().zip(&BEFORE_US_PER_BLOCK) {
        assert_eq!(
            row.benchmark, benchmark,
            "BEFORE_US_PER_BLOCK is in suite order"
        );
        let speedup = before / row.us_per_block;
        println!(
            "{:<10} {:>4} {:>12.3} {:>7.1}% {:>12.3} {:>7.2}x",
            row.benchmark.to_string(),
            row.fus,
            row.us_per_block,
            row.spread * 100.0,
            before,
            speedup
        );
        entries.push(format!(
            "    {{\"kernel\": \"{}\", \"fus\": {}, \"us_per_block\": {:.3}, \
             \"iqr_share\": {:.3}, \"before_us_per_block\": {before:.3}, \
             \"speedup\": {speedup:.2}}}",
            row.benchmark, row.fus, row.us_per_block, row.spread
        ));
    }
    let geomean = |values: &mut dyn Iterator<Item = f64>| {
        let (sum, count) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
        (sum / count as f64).exp()
    };
    let after_mean = geomean(&mut rows.iter().map(|row| row.us_per_block));
    let before_mean = geomean(&mut BEFORE_US_PER_BLOCK.iter().map(|&(_, us)| us));
    println!(
        "geomean: {after_mean:.3} us/block vs {before_mean:.3} before -> {:.2}x",
        before_mean / after_mean
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"simulator\",");
    let _ = writeln!(json, "  \"schema\": {},", overlay_bench::BENCH_JSON_SCHEMA);
    let _ = writeln!(json, "  {},", overlay_bench::provenance_json_fields());
    let _ = writeln!(json, "  \"variant\": \"{SERVING_VARIANT}\",");
    let _ = writeln!(json, "  \"fast_mode\": {fast},");
    let _ = writeln!(json, "  \"blocks_per_run\": {SERVING_BLOCKS},");
    let _ = writeln!(json, "  \"workloads_per_kernel\": {SERVING_WORKLOADS},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(
        json,
        "  \"before\": {{\"git_rev\": \"a0d9902\", \"host\": \"vm\", \
         \"note\": \"the same group run on the parent of the decode-once simulator rewrite\"}},"
    );
    let _ = writeln!(json, "  \"entries\": [");
    let _ = writeln!(json, "{}", entries.join(",\n"));
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"geomean\": {{\"us_per_block\": {after_mean:.3}, \
         \"before_us_per_block\": {before_mean:.3}, \"speedup\": {:.2}}}",
        before_mean / after_mean
    );
    json.push_str("}\n");

    let path = std::env::var("BENCH_RUNTIME_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json").into()
    });
    let existing = std::fs::read_to_string(&path).ok();
    let combined = overlay_bench::splice_bench_json(existing.as_deref(), "simulator", &json)
        .expect("BENCH_runtime.json section stays schema-compatible");
    std::fs::write(&path, combined).expect("write BENCH_runtime.json");
    println!("wrote {path}");
}
