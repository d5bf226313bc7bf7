//! Golden bitwise pin of the simulator's observable behaviour.
//!
//! Every suite kernel on every FU variant runs over two seeded workloads,
//! and a 64-bit FNV-1a digest folds in the outputs, every `SimMetrics`
//! field (the steady-state II through `f64::to_bits`), every event of a
//! full-capacity trace and the trace total. The digests were recorded from
//! the straightforward simulator (per-block filters, hashed write-back
//! slots, heap operands), so any rewrite of the hot path must reproduce
//! them bit for bit. The error cases pin each `SimError` value exactly,
//! field by field.

use overlay_arch::FuVariant;
use overlay_dfg::{DfgError, Op, Value};
use overlay_frontend::Benchmark;
use overlay_isa::{FuProgram, Instruction, OverlayProgram, RegIndex};
use overlay_scheduler::{generate_program, schedule, CompiledKernel};
use overlay_sim::{EventKind, OverlaySimulator, SimError, SimRun, Workload};

/// 64-bit FNV-1a, written out so the pinned digests do not depend on the
/// standard library's hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn usize(&mut self, value: usize) {
        self.word(value as u64);
    }

    fn value(&mut self, value: Value) {
        self.word(u64::from(value.as_u32()));
    }
}

fn compile(benchmark: Benchmark, variant: FuVariant) -> CompiledKernel {
    let dfg = benchmark.dfg().unwrap();
    let stages = schedule(&dfg, variant, Some(8)).unwrap();
    generate_program(&dfg, &stages, variant).unwrap()
}

fn digest_run(hash: &mut Fnv, run: &SimRun) {
    hash.usize(run.outputs().len());
    for record in run.outputs() {
        hash.usize(record.len());
        for &value in record {
            hash.value(value);
        }
    }
    let metrics = run.metrics();
    hash.usize(metrics.blocks);
    hash.usize(metrics.ops_per_block);
    hash.usize(metrics.latency_cycles);
    hash.word(metrics.steady_state_ii.to_bits());
    hash.usize(metrics.total_cycles);
    let trace = run.trace();
    hash.usize(trace.events().len());
    for event in trace.events() {
        hash.usize(event.cycle);
        hash.usize(event.fu);
        hash.usize(event.block);
        match &event.kind {
            EventKind::Load {
                register,
                value,
                forwarded,
            } => {
                hash.word(0);
                hash.usize(*register);
                hash.value(*value);
                hash.word(u64::from(*forwarded));
            }
            EventKind::Exec {
                mnemonic,
                value,
                writeback,
                forwarded,
            } => {
                hash.word(1);
                hash.bytes(mnemonic.as_bytes());
                hash.value(*value);
                hash.word(u64::from(*writeback));
                hash.word(u64::from(*forwarded));
            }
            EventKind::Nop => hash.word(2),
            EventKind::Output { position, value } => {
                hash.word(3);
                hash.usize(*position);
                hash.value(*value);
            }
        }
    }
    hash.usize(trace.dropped());
    hash.usize(trace.total());
}

/// The digest of one kernel on one variant over both seeded workloads.
/// Also checks that an untraced run (capacity 0) and a short trace agree
/// with the full-capacity run on everything but the kept events.
fn digest_case(benchmark: Benchmark, variant: FuVariant) -> u64 {
    let compiled = compile(benchmark, variant);
    let inputs = compiled.program.num_inputs();
    let mut hash = Fnv::new();
    for (blocks, seed) in [(16, 0x5EED_0001), (37, 0x5EED_0002)] {
        let workload = Workload::random(inputs, blocks, seed);
        let full = OverlaySimulator::new(variant)
            .with_trace_capacity(usize::MAX)
            .run(&compiled, &workload)
            .unwrap();
        assert_eq!(full.trace().dropped(), 0);
        for capacity in [0, 5] {
            let short = OverlaySimulator::new(variant)
                .with_trace_capacity(capacity)
                .run(&compiled, &workload)
                .unwrap();
            assert_eq!(short.outputs(), full.outputs(), "{benchmark} {variant}");
            assert_eq!(short.metrics(), full.metrics(), "{benchmark} {variant}");
            assert_eq!(short.trace().total(), full.trace().total());
            assert_eq!(short.trace().events(), &full.trace().events()[..capacity]);
        }
        digest_run(&mut hash, &full);
    }
    hash.0
}

/// `(benchmark, variant, digest)` recorded from the reference simulator.
const GOLDEN: [(Benchmark, FuVariant, u64); 54] = [
    (Benchmark::Gradient, FuVariant::Baseline, 0x15edcdd4a94f4635),
    (Benchmark::Gradient, FuVariant::V1, 0x7808654776014faf),
    (Benchmark::Gradient, FuVariant::V2, 0x3984d9df8c74a1db),
    (Benchmark::Gradient, FuVariant::V3, 0x7808654776014faf),
    (Benchmark::Gradient, FuVariant::V4, 0x7808654776014faf),
    (Benchmark::Gradient, FuVariant::V5, 0x2962289ff9f5bcb8),
    (
        Benchmark::Chebyshev,
        FuVariant::Baseline,
        0x1cff260a91224ce7,
    ),
    (Benchmark::Chebyshev, FuVariant::V1, 0x2fe3a488af650cde),
    (Benchmark::Chebyshev, FuVariant::V2, 0x5a1c8630fc9e3d7c),
    (Benchmark::Chebyshev, FuVariant::V3, 0x2fe3a488af650cde),
    (Benchmark::Chebyshev, FuVariant::V4, 0x2fe3a488af650cde),
    (Benchmark::Chebyshev, FuVariant::V5, 0x445a277f19ce2935),
    (Benchmark::Mibench, FuVariant::Baseline, 0x614d54ae4c2abb58),
    (Benchmark::Mibench, FuVariant::V1, 0x8809ee90071e40f9),
    (Benchmark::Mibench, FuVariant::V2, 0x0a0858530d76b259),
    (Benchmark::Mibench, FuVariant::V3, 0x8809ee90071e40f9),
    (Benchmark::Mibench, FuVariant::V4, 0x8809ee90071e40f9),
    (Benchmark::Mibench, FuVariant::V5, 0x53ab16d0a72f12fa),
    (Benchmark::Qspline, FuVariant::Baseline, 0x1e7ad7f4f88b41df),
    (Benchmark::Qspline, FuVariant::V1, 0x1e4228ee731c4568),
    (Benchmark::Qspline, FuVariant::V2, 0xdf5300699caaff6d),
    (Benchmark::Qspline, FuVariant::V3, 0x1e4228ee731c4568),
    (Benchmark::Qspline, FuVariant::V4, 0x1e4228ee731c4568),
    (Benchmark::Qspline, FuVariant::V5, 0xcb1949e81806c702),
    (Benchmark::Sgfilter, FuVariant::Baseline, 0x0b20a6de13678d27),
    (Benchmark::Sgfilter, FuVariant::V1, 0xee3611e4b2795080),
    (Benchmark::Sgfilter, FuVariant::V2, 0xa36dcb9c6297e6fa),
    (Benchmark::Sgfilter, FuVariant::V3, 0xb33f6e7442d40bd0),
    (Benchmark::Sgfilter, FuVariant::V4, 0x4b21e3e5601323a9),
    (Benchmark::Sgfilter, FuVariant::V5, 0x673df04effbca4cd),
    (Benchmark::Poly5, FuVariant::Baseline, 0xb43aaf10da922afd),
    (Benchmark::Poly5, FuVariant::V1, 0x853973ac388f8a58),
    (Benchmark::Poly5, FuVariant::V2, 0xc632fd789f31f8b6),
    (Benchmark::Poly5, FuVariant::V3, 0xbe3e72fb2196fae9),
    (Benchmark::Poly5, FuVariant::V4, 0x7eb8c95f5d2afe48),
    (Benchmark::Poly5, FuVariant::V5, 0x8aa1eb045dda3361),
    (Benchmark::Poly6, FuVariant::Baseline, 0xb131bae0bb160c95),
    (Benchmark::Poly6, FuVariant::V1, 0x2a655dc3ffc5c505),
    (Benchmark::Poly6, FuVariant::V2, 0xbf96987195ba4843),
    (Benchmark::Poly6, FuVariant::V3, 0xf979d596ef38b63b),
    (Benchmark::Poly6, FuVariant::V4, 0x45b64744cc664723),
    (Benchmark::Poly6, FuVariant::V5, 0x524105416c67246f),
    (Benchmark::Poly7, FuVariant::Baseline, 0xb3466f5fd9fbb429),
    (Benchmark::Poly7, FuVariant::V1, 0x0f4c2af465bf9b0d),
    (Benchmark::Poly7, FuVariant::V2, 0xb75bd75e1aa1fa0e),
    (Benchmark::Poly7, FuVariant::V3, 0x96e6041a50f94365),
    (Benchmark::Poly7, FuVariant::V4, 0x9f750cc342b95054),
    (Benchmark::Poly7, FuVariant::V5, 0x76c0bfbb2f5bf328),
    (Benchmark::Poly8, FuVariant::Baseline, 0xeff681f427b20796),
    (Benchmark::Poly8, FuVariant::V1, 0x0c9176111f90cd39),
    (Benchmark::Poly8, FuVariant::V2, 0xe678ecb98abea50c),
    (Benchmark::Poly8, FuVariant::V3, 0xff9ab93b5dd933f4),
    (Benchmark::Poly8, FuVariant::V4, 0x4e73eb63292d584e),
    (Benchmark::Poly8, FuVariant::V5, 0xa7fa3351aa6b1245),
];

#[test]
fn golden_digests_cover_every_kernel_and_variant() {
    let mut expected = GOLDEN.iter();
    for benchmark in Benchmark::ALL {
        for variant in FuVariant::ALL {
            let &(b, v, _) = expected.next().unwrap();
            assert_eq!((b, v), (benchmark, variant), "GOLDEN table order");
        }
    }
    assert!(expected.next().is_none());
}

#[test]
fn every_kernel_and_variant_matches_its_golden_digest() {
    let mut mismatches = Vec::new();
    for &(benchmark, variant, golden) in &GOLDEN {
        let digest = digest_case(benchmark, variant);
        if digest != golden {
            mismatches.push(format!(
                "(Benchmark::{benchmark:?}, FuVariant::{variant:?}, {digest:#018x}),"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digest mismatches:\n{}",
        mismatches.join("\n")
    );
}

fn r(index: u32) -> RegIndex {
    RegIndex::new(index).unwrap()
}

fn word_records(records: &[&[i32]]) -> Workload {
    Workload::from_records(
        records
            .iter()
            .map(|record| record.iter().copied().map(Value::new).collect())
            .collect(),
    )
}

/// A hand-built kernel: `fus` run in a chain and the kernel outputs are
/// the given positions of the last FU's forwarded stream.
fn hand_kernel(
    variant: FuVariant,
    fus: Vec<FuProgram>,
    inputs: usize,
    outputs: Vec<usize>,
) -> CompiledKernel {
    let mut compiled = compile(Benchmark::Gradient, variant);
    compiled.program = OverlayProgram::new("hand", fus, inputs, outputs.len(), 1);
    compiled.output_stream_index = outputs;
    compiled
}

fn run_err(variant: FuVariant, compiled: &CompiledKernel, workload: &Workload) -> SimError {
    OverlaySimulator::new(variant)
        .run(compiled, workload)
        .unwrap_err()
}

fn adder() -> FuProgram {
    let mut program = FuProgram::new();
    program.push(Instruction::load(r(0)));
    program.push(Instruction::load(r(1)));
    program.push(Instruction::exec(Op::Add, r(2), r(0), r(1)));
    program
}

#[test]
fn empty_and_mis_sized_workloads_fail_with_exact_errors() {
    let compiled = compile(Benchmark::Gradient, FuVariant::V1);
    assert_eq!(
        run_err(FuVariant::V1, &compiled, &Workload::from_records(vec![])),
        SimError::EmptyWorkload
    );
    let workload = word_records(&[&[1, 2, 3, 4, 5], &[1, 2, 3], &[1]]);
    assert_eq!(
        run_err(FuVariant::V1, &compiled, &workload),
        SimError::InputWidthMismatch {
            expected: 5,
            found: 3,
            record: 1,
        }
    );
}

#[test]
fn stream_underflow_fails_with_exact_errors() {
    // FU1 loads three words but FU0 forwards only its sum.
    let mut hungry = FuProgram::new();
    for reg in 0..3 {
        hungry.push(Instruction::load(r(reg)));
    }
    hungry.push(Instruction::exec(Op::Add, r(3), r(0), r(1)));
    let compiled = hand_kernel(FuVariant::V1, vec![adder(), hungry], 2, vec![0]);
    assert_eq!(
        run_err(FuVariant::V1, &compiled, &word_records(&[&[1, 2]])),
        SimError::StreamUnderflow { fu: 1, block: 0 }
    );
    // The output FIFO reads a stream position the last FU never produced.
    let compiled = hand_kernel(FuVariant::V2, vec![adder()], 2, vec![0, 1]);
    assert_eq!(
        run_err(FuVariant::V2, &compiled, &word_records(&[&[1, 2], &[3, 4]])),
        SimError::StreamUnderflow { fu: 1, block: 0 }
    );
}

#[test]
fn uninitialised_register_fails_with_exact_errors() {
    let mut program = FuProgram::new();
    program.push(Instruction::load(r(0)));
    program.push(Instruction::exec(Op::Add, r(2), r(0), r(9)));
    let compiled = hand_kernel(FuVariant::V4, vec![adder(), program], 2, vec![0]);
    assert_eq!(
        run_err(FuVariant::V4, &compiled, &word_records(&[&[1, 2]])),
        SimError::UninitializedRegister {
            fu: 1,
            register: 9,
            block: 0,
        }
    );
}

#[test]
fn writeback_hazard_fails_with_exact_errors() {
    // V3 requires 5 slots between a write-back and its consumer; these sit
    // 3 apart (two NOPs between them).
    let mut program = FuProgram::new();
    program.push(Instruction::load(r(0)));
    program.push(Instruction::exec_flags(
        Op::Square,
        r(1),
        r(0),
        r(0),
        true,
        true,
    ));
    program.push(Instruction::Nop);
    program.push(Instruction::Nop);
    program.push(Instruction::exec(Op::Add, r(2), r(0), r(1)));
    let compiled = hand_kernel(FuVariant::V3, vec![adder(), program], 2, vec![0]);
    assert_eq!(
        run_err(FuVariant::V3, &compiled, &word_records(&[&[1, 2]])),
        SimError::WritebackHazard {
            fu: 1,
            block: 0,
            observed: 3,
            required: 5,
        }
    );
    // Without a write-back path (V1) the spacing requirement is one slot,
    // so a back-to-back write-back and read passes.
    let mut program = FuProgram::new();
    program.push(Instruction::load(r(0)));
    program.push(Instruction::exec_flags(
        Op::Square,
        r(1),
        r(0),
        r(0),
        true,
        true,
    ));
    program.push(Instruction::exec(Op::Add, r(2), r(0), r(1)));
    let compiled = hand_kernel(FuVariant::V1, vec![program], 1, vec![0]);
    let run = OverlaySimulator::new(FuVariant::V1)
        .run(&compiled, &word_records(&[&[3]]))
        .unwrap();
    assert_eq!(run.outputs(), &[vec![Value::new(12)]]);
}

#[test]
fn ternary_ops_get_two_operands_and_fail_arity() {
    let mut program = FuProgram::new();
    program.push(Instruction::load(r(0)));
    program.push(Instruction::load(r(1)));
    program.push(Instruction::exec(Op::MulAdd, r(2), r(0), r(1)));
    let compiled = hand_kernel(FuVariant::V4, vec![program], 2, vec![0]);
    assert_eq!(
        run_err(FuVariant::V4, &compiled, &word_records(&[&[1, 2]])),
        SimError::Dfg(DfgError::ArityMismatch {
            op: Op::MulAdd,
            expected: 3,
            found: 2,
        })
    );
    // Both operands are read (and checked) before the arity failure.
    let mut program = FuProgram::new();
    program.push(Instruction::load(r(0)));
    program.push(Instruction::exec(Op::MulAdd, r(2), r(0), r(7)));
    let compiled = hand_kernel(FuVariant::V4, vec![program], 1, vec![0]);
    assert_eq!(
        run_err(FuVariant::V4, &compiled, &word_records(&[&[1]])),
        SimError::UninitializedRegister {
            fu: 0,
            register: 7,
            block: 0,
        }
    );
    // A unary op never reads its second source register.
    let mut program = FuProgram::new();
    program.push(Instruction::load(r(0)));
    program.push(Instruction::exec(Op::Neg, r(2), r(0), r(7)));
    let compiled = hand_kernel(FuVariant::V4, vec![program], 1, vec![0]);
    let run = OverlaySimulator::new(FuVariant::V4)
        .run(&compiled, &word_records(&[&[4]]))
        .unwrap();
    assert_eq!(run.outputs(), &[vec![Value::new(-4)]]);
}
