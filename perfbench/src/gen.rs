//! Workload generators: every input the benchmark serves is a pure function
//! of the workload kind and the `--seed`.

use std::sync::Arc;

use tm_overlay::dfg::{evaluate_stream, Dfg, Value};
use tm_overlay::frontend::LowerOptions;
use tm_overlay::runtime::RuntimeError;
use tm_overlay::{Benchmark, FuVariant, KernelSpec, Request, Runtime, Workload};

/// Every workload runs on V4 tiles (write-back FUs, fixed depth 8).
pub const VARIANT: FuVariant = FuVariant::V4;

/// Seed of `stream_churn`'s kernel sources (fixed; see `Plan::generate`).
pub const STREAM_SOURCE_SEED: u64 = 0x5eed_c0de;

/// Request ids are `round * ROUND_STRIDE + position` so a checker can find
/// a request's round and position from its id alone.
pub const ROUND_STRIDE: u64 = 1 << 32;

/// SplitMix64: a small, fully deterministic generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }

    /// A Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WarmBatch,
    ColdSharded,
    StreamChurn,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::WarmBatch, Kind::ColdSharded, Kind::StreamChurn];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmBatch => "warm_batch",
            Kind::ColdSharded => "cold_sharded",
            Kind::StreamChurn => "stream_churn",
        }
    }

    /// One sentence on why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Kind::WarmBatch => {
                "memo-warm, cache-warm batch serves on one 64-tile device: the event loop, \
                 dispatch and pool do all the work, so it is the control for any compile or \
                 simulator change"
            }
            Kind::ColdSharded => {
                "every request carries a distinct workload and a round overflows the sim memo, \
                 so the simulator and the threads=2 shard lanes dominate"
            }
            Kind::StreamChurn => {
                "short streaming serves over more kernel sources than the kernel cache holds, \
                 so per-serve fixed cost, recurring compiles and routing dominate"
            }
        }
    }

    pub fn streaming(self) -> bool {
        self == Kind::StreamChurn
    }

    pub fn shape(self) -> Shape {
        match self {
            Kind::WarmBatch => Shape {
                devices: 1,
                tiles: 64,
                kernels: 6,
                workloads_per_kernel: 8,
                blocks: 32,
                round_len: 2048,
                rounds: 8,
                rho: 1.1,
                slack: 3.0,
            },
            Kind::ColdSharded => Shape {
                devices: 8,
                tiles: 16,
                kernels: Benchmark::ALL.len(),
                workloads_per_kernel: 0,
                blocks: 16,
                round_len: 1280,
                rounds: 8,
                rho: 1.0,
                slack: 2.0,
            },
            Kind::StreamChurn => Shape {
                devices: 4,
                tiles: 4,
                kernels: 160,
                workloads_per_kernel: 2,
                blocks: 4,
                round_len: 48,
                rounds: 256,
                rho: 0.7,
                slack: 4.0,
            },
        }
    }
}

/// The sizes that define a workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Devices (1 = a single `Runtime`).
    pub devices: usize,
    /// Tiles per device.
    pub tiles: usize,
    /// Distinct kernels.
    pub kernels: usize,
    /// Distinct workloads per kernel; 0 = a fresh workload for every request.
    pub workloads_per_kernel: usize,
    /// Invocation records (blocks) per workload.
    pub blocks: usize,
    /// Requests per serve.
    pub round_len: usize,
    /// Distinct traces, served in turn.
    pub rounds: usize,
    /// Offered load on the modeled clock: arrival rate × mean solo service
    /// time / total tiles.
    pub rho: f64,
    /// Deadline budget as a multiple of the kernel's solo service time.
    pub slack: f64,
}

/// One kernel of a workload.
#[derive(Debug, Clone)]
pub struct BenchKernel {
    pub spec: KernelSpec,
    /// DSL source, for kernels defined by source text.
    pub source: Option<String>,
    pub dfg: Arc<Dfg>,
    /// Relative request popularity (sums to 1 over the workload).
    pub weight: f64,
    /// Modeled latency of one request served alone on a cold tile, µs.
    pub solo_us: f64,
}

/// One distinct (kernel, workload) pair and its reference outputs.
#[derive(Debug, Clone)]
pub struct Pair {
    pub kernel: usize,
    pub workload: Workload,
    pub reference: Vec<Vec<Value>>,
}

/// Everything one benchmark run serves, generated from the seed.
#[derive(Debug)]
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    pub shape: Shape,
    pub kernels: Vec<BenchKernel>,
    pub pairs: Vec<Pair>,
    /// The warm-up serve's trace (part of set-up).
    pub warmup: Vec<Arc<Request>>,
    /// The timed traces; request `i` of round `r` has id
    /// `r * ROUND_STRIDE + i`.
    pub rounds: Vec<Vec<Arc<Request>>>,
    /// Pair index of every request, parallel to `rounds`.
    pub round_pairs: Vec<Vec<usize>>,
    /// Pair index of every warm-up request.
    pub warmup_pairs: Vec<usize>,
}

impl Plan {
    /// Generates the workload's inputs from `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Result<Plan, RuntimeError> {
        let shape = kind.shape();
        let mut rng = SplitMix64::new(seed ^ kind_salt(kind));
        let mut kernels = match kind {
            Kind::WarmBatch => suite_kernels(&[
                Benchmark::Gradient,
                Benchmark::Chebyshev,
                Benchmark::Mibench,
                Benchmark::Sgfilter,
                Benchmark::Qspline,
                Benchmark::Poly5,
            ])?,
            Kind::ColdSharded => suite_kernels(&Benchmark::ALL)?,
            // The same sources on every seed, so the seed moves popularity,
            // workloads and arrivals but not the compile work itself.
            Kind::StreamChurn => {
                let mut sources = SplitMix64::new(STREAM_SOURCE_SEED);
                (0..shape.kernels)
                    .map(|index| {
                        let source = kernel_source(&mut sources, index);
                        source_kernel(format!("churn{index}"), source)
                    })
                    .collect::<Result<_, _>>()?
            }
        };
        // Zipf(1) popularity over a seeded rank order; uniform otherwise.
        if kind == Kind::StreamChurn {
            let mut ranks: Vec<usize> = (0..kernels.len()).collect();
            rng.shuffle(&mut ranks);
            for (kernel, rank) in kernels.iter_mut().zip(ranks) {
                kernel.weight = 1.0 / (rank + 1) as f64;
            }
        }
        let total: f64 = kernels.iter().map(|kernel| kernel.weight).sum();
        kernels.iter_mut().for_each(|kernel| kernel.weight /= total);

        // Fixed pair pools (warm_batch, stream_churn): every kernel gets its
        // own seeded workloads, shared by all rounds.
        let mut pairs = Vec::new();
        for (index, kernel) in kernels.iter().enumerate() {
            for _ in 0..shape.workloads_per_kernel {
                pairs.push(make_pair(&mut rng, kernel, index, shape.blocks)?);
            }
        }
        calibrate(&mut kernels, &pairs, shape.blocks, &mut rng)?;
        let mean_service: f64 = kernels.iter().map(|k| k.weight * k.solo_us).sum();
        let mean_gap = mean_service / (shape.rho * (shape.devices * shape.tiles) as f64);

        let mut rounds = Vec::with_capacity(shape.rounds);
        let mut round_pairs = Vec::with_capacity(shape.rounds);
        let cumulative: Vec<f64> = kernels
            .iter()
            .scan(0.0, |acc, kernel| {
                *acc += kernel.weight;
                Some(*acc)
            })
            .collect();
        for round in 0..shape.rounds {
            let picks: Vec<usize> = match kind {
                // Balanced: every pair once per block of `pairs.len()`
                // requests, in a fresh shuffled order each block.
                Kind::WarmBatch => {
                    let mut picks = Vec::with_capacity(shape.round_len);
                    while picks.len() < shape.round_len {
                        let mut block: Vec<usize> = (0..pairs.len()).collect();
                        rng.shuffle(&mut block);
                        picks.extend(block);
                    }
                    picks.truncate(shape.round_len);
                    picks
                }
                // A fresh workload for every request, kernels uniform.
                Kind::ColdSharded => (0..shape.round_len)
                    .map(|_| {
                        let kernel = rng.below(kernels.len());
                        pairs.push(make_pair(&mut rng, &kernels[kernel], kernel, shape.blocks)?);
                        Ok(pairs.len() - 1)
                    })
                    .collect::<Result<_, RuntimeError>>()?,
                // Zipf kernel, then one of its workloads.
                Kind::StreamChurn => (0..shape.round_len)
                    .map(|_| {
                        let u = rng.unit();
                        let kernel = cumulative
                            .iter()
                            .position(|&c| u <= c)
                            .unwrap_or(kernels.len() - 1);
                        kernel * shape.workloads_per_kernel + rng.below(shape.workloads_per_kernel)
                    })
                    .collect(),
            };
            let mut arrival = 0.0;
            let trace: Vec<Arc<Request>> = picks
                .iter()
                .enumerate()
                .map(|(position, &pair)| {
                    arrival += rng.exp(mean_gap);
                    let kernel = &kernels[pairs[pair].kernel];
                    let id = round as u64 * ROUND_STRIDE + position as u64;
                    Arc::new(
                        Request::new(id, kernel.spec.clone(), pairs[pair].workload.clone())
                            .at(arrival)
                            .with_deadline(arrival + shape.slack * kernel.solo_us),
                    )
                })
                .collect();
            rounds.push(trace);
            round_pairs.push(picks);
        }

        // Warm-up: round 0 for the batch workloads; one request for every
        // distinct pair (compiles every kernel, fills the memo) for
        // stream_churn.
        let (warmup, warmup_pairs) = match kind {
            Kind::StreamChurn => {
                let mut order: Vec<usize> = (0..pairs.len()).collect();
                rng.shuffle(&mut order);
                let trace = order
                    .iter()
                    .enumerate()
                    .map(|(position, &pair)| {
                        let kernel = &kernels[pairs[pair].kernel];
                        Arc::new(
                            Request::new(
                                position as u64,
                                kernel.spec.clone(),
                                pairs[pair].workload.clone(),
                            )
                            .at(position as f64 * mean_gap),
                        )
                    })
                    .collect();
                (trace, order)
            }
            _ => (rounds[0].clone(), round_pairs[0].clone()),
        };
        Ok(Plan {
            kind,
            seed,
            shape,
            kernels,
            pairs,
            warmup,
            rounds,
            round_pairs,
            warmup_pairs,
        })
    }

    /// Distinct pairs in one round (the largest round).
    pub fn distinct_runs_per_round(&self) -> usize {
        self.round_pairs
            .iter()
            .map(|picks| {
                let mut picks = picks.clone();
                picks.sort_unstable();
                picks.dedup();
                picks.len()
            })
            .max()
            .unwrap_or(0)
    }
}

fn kind_salt(kind: Kind) -> u64 {
    match kind {
        Kind::WarmBatch => 0x5741_524d,
        Kind::ColdSharded => 0x434f_4c44,
        Kind::StreamChurn => 0x4348_5552,
    }
}

fn suite_kernels(suite: &[Benchmark]) -> Result<Vec<BenchKernel>, RuntimeError> {
    suite
        .iter()
        .map(|&benchmark| {
            let spec = KernelSpec::from_benchmark(benchmark)?;
            let dfg = spec.dfg(&LowerOptions::default())?;
            Ok(BenchKernel {
                spec,
                source: benchmark.source().map(str::to_owned),
                dfg,
                weight: 1.0,
                solo_us: 0.0,
            })
        })
        .collect()
}

fn source_kernel(name: String, source: String) -> Result<BenchKernel, RuntimeError> {
    let spec = KernelSpec::from_source(name, source.clone());
    let dfg = spec.dfg(&LowerOptions::default())?;
    Ok(BenchKernel {
        spec,
        source: Some(source),
        dfg,
        weight: 1.0,
        solo_us: 0.0,
    })
}

/// A random straight-line kernel in the DSL: 2–4 inputs, 5–10 `let`s over
/// the inputs and earlier temporaries, one or two outputs. Every input is
/// read by the first temporaries, so none is dead.
pub fn kernel_source(rng: &mut SplitMix64, index: usize) -> String {
    let inputs = 2 + rng.below(3);
    let lets = 5 + rng.below(6);
    let params: Vec<String> = (0..inputs).map(|i| format!("x{i}")).collect();
    let mut body = String::new();
    let mut names = params.clone();
    for t in 0..lets {
        let a = match params.get(t) {
            Some(param) => param.clone(),
            None => names[rng.below(names.len())].clone(),
        };
        let b = names[rng.below(names.len())].clone();
        let expr = match rng.below(8) {
            0 => format!("{a} + {b}"),
            1 => format!("{a} - {b}"),
            2 | 3 => format!("{a} * {b}"),
            4 => format!("sqr({a})"),
            5 => format!("min({a}, {b})"),
            6 => format!("max({a}, {b})"),
            _ => format!("{a} * {} + {b}", 2 + rng.below(7)),
        };
        body.push_str(&format!("    let t{t} = {expr};\n"));
        names.push(format!("t{t}"));
    }
    body.push_str(&format!("    out r0 = t{};\n", lets - 1));
    if rng.below(2) == 0 {
        body.push_str(&format!("    out r1 = t{} - t{};\n", lets - 2, lets / 2));
    }
    format!("kernel churn{index}({}) {{\n{body}}}\n", params.join(", "))
}

/// A seeded workload for `kernel`: values in −8..=8 keep squaring chains
/// small (the datapath wraps either way).
fn make_pair(
    rng: &mut SplitMix64,
    kernel: &BenchKernel,
    index: usize,
    blocks: usize,
) -> Result<Pair, RuntimeError> {
    let inputs = kernel.dfg.num_inputs();
    let records: Vec<Vec<Value>> = (0..blocks)
        .map(|_| {
            (0..inputs)
                .map(|_| Value::new(rng.below(17) as i32 - 8))
                .collect()
        })
        .collect();
    let reference = evaluate_stream(&kernel.dfg, &records).map_err(RuntimeError::from)?;
    Ok(Pair {
        kernel: index,
        workload: Workload::from_records(records),
        reference,
    })
}

/// Probes each kernel's modeled solo service time: one request alone on a
/// one-tile runtime (context switch included).
fn calibrate(
    kernels: &mut [BenchKernel],
    pairs: &[Pair],
    blocks: usize,
    rng: &mut SplitMix64,
) -> Result<(), RuntimeError> {
    let mut probe = Runtime::new(VARIANT, 1)?;
    for (index, kernel) in kernels.iter_mut().enumerate() {
        let workload = match pairs.iter().find(|pair| pair.kernel == index) {
            Some(pair) => pair.workload.clone(),
            None => make_pair(rng, kernel, index, blocks)?.workload,
        };
        let report = probe.serve([Request::new(0, kernel.spec.clone(), workload)])?;
        kernel.solo_us = report.outcomes()[0].latency_us;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_overlay::frontend::compile_kernel_with;
    use tm_overlay::scheduler::{generate_program, schedule};

    fn distinct_runs(plan: &Plan) -> usize {
        let mut picks: Vec<usize> = plan.round_pairs.iter().flatten().copied().collect();
        picks.sort_unstable();
        picks.dedup();
        picks.len()
    }

    /// Everything a serve receives, as comparable values.
    fn inputs(plan: &Plan) -> Vec<(u64, String, u128, u64, Option<u64>)> {
        plan.warmup
            .iter()
            .chain(plan.rounds.iter().flatten())
            .map(|r| {
                (
                    r.id,
                    r.kernel.to_string(),
                    r.workload_digest(),
                    r.arrival_us.to_bits(),
                    r.deadline_us.map(f64::to_bits),
                )
            })
            .collect()
    }

    #[test]
    fn generators_are_deterministic_for_a_seed() {
        for kind in Kind::ALL {
            let a = Plan::generate(kind, 7).unwrap();
            let b = Plan::generate(kind, 7).unwrap();
            assert_eq!(inputs(&a), inputs(&b), "{}", kind.name());
            assert_eq!(a.round_pairs, b.round_pairs);
            let sources = |p: &Plan| {
                p.kernels
                    .iter()
                    .map(|k| k.source.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(sources(&a), sources(&b));
            let c = Plan::generate(kind, 8).unwrap();
            assert_ne!(
                inputs(&a),
                inputs(&c),
                "{}: the seed must matter",
                kind.name()
            );
        }
    }

    #[test]
    fn every_generated_kernel_source_compiles() {
        let depth = Runtime::new(VARIANT, 1).unwrap().pool().logical_depth();
        for seed in (0..8).chain([STREAM_SOURCE_SEED]) {
            let mut rng = SplitMix64::new(seed);
            for index in 0..Kind::StreamChurn.shape().kernels {
                let source = kernel_source(&mut rng, index);
                let dfg = compile_kernel_with(&source, &LowerOptions::default())
                    .unwrap_or_else(|e| panic!("{source}: {e}"));
                let stages = schedule(&dfg, VARIANT, Some(depth))
                    .unwrap_or_else(|e| panic!("{source}: {e}"));
                generate_program(&dfg, &stages, VARIANT)
                    .unwrap_or_else(|e| panic!("{source}: {e}"));
            }
        }
    }

    #[test]
    fn stream_churn_kernels_overflow_the_kernel_cache() {
        let plan = Plan::generate(Kind::StreamChurn, 1).unwrap();
        assert!(plan.kernels.len() > Runtime::DEFAULT_CACHE_CAPACITY);
        let mut fingerprints: Vec<u64> =
            plan.kernels.iter().map(|k| k.spec.fingerprint()).collect();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert_eq!(
            fingerprints.len(),
            plan.kernels.len(),
            "kernels must be distinct"
        );
        // Its sims stay memo-warm: every run fits the memo.
        assert!(distinct_runs(&plan) <= Runtime::DEFAULT_SIM_MEMO_CAPACITY);
    }

    #[test]
    fn cold_sharded_runs_overflow_the_sim_memo() {
        let plan = Plan::generate(Kind::ColdSharded, 1).unwrap();
        assert!(plan.distinct_runs_per_round() > Runtime::DEFAULT_SIM_MEMO_CAPACITY);
        assert_eq!(
            distinct_runs(&plan),
            plan.rounds.len() * plan.shape.round_len
        );
    }

    #[test]
    fn warm_batch_fits_the_kernel_cache_and_sim_memo() {
        let plan = Plan::generate(Kind::WarmBatch, 1).unwrap();
        assert!(plan.kernels.len() <= Runtime::DEFAULT_CACHE_CAPACITY);
        assert!(distinct_runs(&plan) <= Runtime::DEFAULT_SIM_MEMO_CAPACITY);
        // The warm-up serve touches every pair the timed rounds use.
        let mut warm = plan.warmup_pairs.clone();
        warm.sort_unstable();
        warm.dedup();
        assert_eq!(warm.len(), distinct_runs(&plan));
    }
}
