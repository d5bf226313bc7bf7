//! Per-FU execution engine.
//!
//! Each functional unit is modelled as two cooperating machines, following
//! the V1+ microarchitecture of Fig. 3:
//!
//! * the **input controller** (the rotating register file's write port)
//!   writes one arriving stream word per cycle into the register file and,
//!   for words tagged `fwd`, bypasses them to the downstream FU;
//! * the **execution engine** issues one `EXEC`/`NOP` slot per cycle through
//!   the DSP datapath once the block's data is resident, with a two-cycle
//!   pipeline flush between consecutive blocks (the `+2` of the paper's II
//!   equations) and a one-cycle separator between the load bursts of
//!   consecutive blocks (the `+1`).
//!
//! The `[14]` baseline has a single-port register file, so its loads and
//! executions serialise through one issue slot — which is exactly why its II
//! is `#load + #op + 2`.

use overlay_arch::FuVariant;
use overlay_dfg::Value;
use overlay_isa::{FuProgram, Instruction, RegIndex, REGISTER_FILE_SIZE};

use crate::error::SimError;
use crate::regfile::RegisterFile;
use crate::trace::{Event, EventKind, Trace};

/// A stream word travelling between stages: its value and the cycle it
/// leaves the producing stage (it becomes visible downstream one cycle
/// later).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedWord {
    /// The 32-bit payload.
    pub value: Value,
    /// Cycle at which the word departs the producing stage.
    pub depart: usize,
}

impl TimedWord {
    /// The cycle at which the word is available to the consuming stage.
    pub fn arrival(&self) -> usize {
        self.depart + 1
    }
}

/// Hazard-table entry of a register no write-back has produced in the
/// current block.
const NEVER_WRITTEN: usize = usize::MAX;

/// Persistent state of one FU across blocks.
///
/// The program is decoded once, at construction, into the input
/// controller's load list and the execution engine's issue slots, so
/// processing a block walks two flat slices and touches no heap memory
/// beyond the caller's output buffer.
#[derive(Debug, Clone)]
pub struct FuEngine {
    index: usize,
    variant: FuVariant,
    /// `(destination, forward)` of each load, in stream order.
    loads: Vec<(RegIndex, bool)>,
    /// The `EXEC`/`NOP` issue slots, in order.
    execs: Vec<Instruction>,
    constants: RegisterFile,
    last_load_end: usize,
    last_exec_end: usize,
}

impl FuEngine {
    /// Creates the engine for FU `index` running `program` on `variant`.
    pub fn new(index: usize, variant: FuVariant, program: FuProgram) -> Self {
        Self::decode(index, variant, &program)
    }

    /// Creates the engine for FU `index` from a borrowed `program`, splitting
    /// it into loads and issue slots.
    pub(crate) fn decode(index: usize, variant: FuVariant, program: &FuProgram) -> Self {
        let mut constants = RegisterFile::new();
        for (reg, value) in program.constant_init() {
            constants.write(*reg, *value);
        }
        let mut loads = Vec::with_capacity(program.num_loads());
        let mut execs = Vec::with_capacity(program.len() - program.num_loads());
        for instr in program.instructions() {
            match *instr {
                Instruction::Load { dst, fwd } => loads.push((dst, fwd)),
                other => execs.push(other),
            }
        }
        FuEngine {
            index,
            variant,
            loads,
            execs,
            constants,
            last_load_end: 0,
            last_exec_end: 0,
        }
    }

    /// The FU index along the chain.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Resets the inter-block timing state (used when reusing an engine for
    /// a fresh run).
    pub fn reset(&mut self) {
        self.last_load_end = 0;
        self.last_exec_end = 0;
    }

    /// Processes one kernel invocation (`block`), consuming the words
    /// arriving from upstream and producing the words forwarded downstream.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on stream underflow, uninitialised register
    /// reads or write-back hazards.
    pub fn process_block(
        &mut self,
        block: usize,
        incoming: &[TimedWord],
        trace: &mut Trace,
    ) -> Result<Vec<TimedWord>, SimError> {
        let mut outgoing = Vec::new();
        self.process_block_into(block, incoming, &mut outgoing, trace)?;
        Ok(outgoing)
    }

    /// [`FuEngine::process_block`] writing the forwarded words into
    /// `outgoing` (cleared first), so a run can reuse its stream buffers.
    pub(crate) fn process_block_into(
        &mut self,
        block: usize,
        incoming: &[TimedWord],
        outgoing: &mut Vec<TimedWord>,
        trace: &mut Trace,
    ) -> Result<(), SimError> {
        let serialized = matches!(self.variant, FuVariant::Baseline);
        // The block's register window starts with only the static constants
        // resident: a register this block writes shadows the constant, any
        // other read falls through to it.
        let mut context = self.constants.clone();
        outgoing.clear();

        // ---- input phase ---------------------------------------------------
        if self.loads.len() > incoming.len() {
            return Err(SimError::StreamUnderflow {
                fu: self.index,
                block,
            });
        }
        let mut cursor = self.last_load_end + 2; // one idle separator cycle
        if serialized {
            // The single-port baseline cannot start a new block's loads until
            // the previous block's execution (and flush) has finished.
            cursor = cursor.max(self.last_exec_end + 3);
        }
        let mut last_load_time = self.last_load_end;
        for (&(dst, fwd), word) in self.loads.iter().zip(incoming) {
            let time = cursor.max(word.arrival());
            cursor = time + 1;
            last_load_time = time;
            context.write(dst, word.value);
            if fwd {
                outgoing.push(TimedWord {
                    value: word.value,
                    depart: time,
                });
            }
            trace.record_with(|| Event {
                cycle: time,
                fu: self.index,
                block,
                kind: EventKind::Load {
                    register: dst.index(),
                    value: word.value,
                    forwarded: fwd,
                },
            });
        }

        // ---- execution phase -----------------------------------------------
        // Execution starts once the block's data is resident and the previous
        // block has drained the DSP pipeline (two flush cycles).
        let mut exec_time = (last_load_time + 1).max(self.last_exec_end + 3);
        if serialized {
            exec_time = exec_time.max(cursor);
        }
        let pipeline_depth = self.variant.dsp_pipeline_depth();
        let spacing = self.variant.iwp().unwrap_or(0).max(1);
        // Slot index at which each register was produced by a write-back, to
        // check the IWP spacing.
        let mut wb_slot_of_reg = [NEVER_WRITTEN; REGISTER_FILE_SIZE];
        let mut last_exec_time = self.last_exec_end;

        for (slot_index, instr) in self.execs.iter().enumerate() {
            let time = exec_time + slot_index;
            last_exec_time = time;
            match *instr {
                Instruction::Nop => {
                    trace.record_with(|| Event {
                        cycle: time,
                        fu: self.index,
                        block,
                        kind: EventKind::Nop,
                    });
                }
                Instruction::Exec {
                    op,
                    dst,
                    src1,
                    src2,
                    wb,
                    ndf,
                } => {
                    let read = |reg: RegIndex| -> Result<Value, SimError> {
                        let producer_slot = wb_slot_of_reg[reg.index()];
                        if producer_slot != NEVER_WRITTEN && slot_index < producer_slot + spacing {
                            return Err(SimError::WritebackHazard {
                                fu: self.index,
                                block,
                                observed: slot_index - producer_slot,
                                required: spacing,
                            });
                        }
                        context.read(reg).ok_or(SimError::UninitializedRegister {
                            fu: self.index,
                            register: reg.index(),
                            block,
                        })
                    };
                    // Unary ops never read their second source; every other
                    // op gets two operands (so a ternary op fails arity).
                    let mut operands = [read(src1)?, Value::ZERO];
                    let supplied = if op.arity() == 1 {
                        1
                    } else {
                        operands[1] = read(src2)?;
                        2
                    };
                    let result = op.apply(&operands[..supplied]).map_err(SimError::Dfg)?;
                    if wb {
                        context.write(dst, result);
                        wb_slot_of_reg[dst.index()] = slot_index;
                    }
                    if !ndf {
                        outgoing.push(TimedWord {
                            value: result,
                            depart: time + pipeline_depth,
                        });
                    }
                    trace.record_with(|| Event {
                        cycle: time,
                        fu: self.index,
                        block,
                        kind: EventKind::Exec {
                            mnemonic: op.mnemonic(),
                            value: result,
                            writeback: wb,
                            forwarded: !ndf,
                        },
                    });
                }
                Instruction::Load { .. } => unreachable!("loads are decoded apart"),
            }
        }

        self.last_load_end = last_load_time;
        self.last_exec_end = last_exec_time;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_dfg::Op;
    use overlay_isa::RegIndex;

    fn r(i: u32) -> RegIndex {
        RegIndex::new(i).unwrap()
    }

    fn word(value: i32) -> TimedWord {
        TimedWord {
            value: Value::new(value),
            depart: 0,
        }
    }

    fn adder_program() -> FuProgram {
        let mut p = FuProgram::new();
        p.push(Instruction::load(r(0)));
        p.push(Instruction::load(r(1)));
        p.push(Instruction::exec(Op::Add, r(2), r(0), r(1)));
        p
    }

    #[test]
    fn single_fu_adds_two_words() {
        let mut engine = FuEngine::new(0, FuVariant::V1, adder_program());
        let mut trace = Trace::with_capacity(16);
        let out = engine
            .process_block(0, &[word(3), word(4)], &mut trace)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, Value::new(7));
        // loads at cycles 2 and 3, exec at cycle 4, result departs at 4 + 3.
        assert_eq!(out[0].depart, 7);
        assert_eq!(trace.events().len(), 3);
    }

    #[test]
    fn v1_steady_state_period_matches_eq2() {
        // 2 loads, 1 op: II = max(2 + 1, 1 + 2) = 3.
        let mut engine = FuEngine::new(0, FuVariant::V1, adder_program());
        let mut trace = Trace::disabled();
        let mut departs = Vec::new();
        for block in 0..6 {
            let out = engine
                .process_block(block, &[word(1), word(2)], &mut trace)
                .unwrap();
            departs.push(out[0].depart);
        }
        let deltas: Vec<usize> = departs.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas[2..].iter().all(|&d| d == 3), "got {deltas:?}");
    }

    #[test]
    fn baseline_serialises_loads_and_execs() {
        // Same program on [14]: II = 2 + 1 + 2 = 5.
        let mut engine = FuEngine::new(0, FuVariant::Baseline, adder_program());
        let mut trace = Trace::disabled();
        let mut departs = Vec::new();
        for block in 0..6 {
            let out = engine
                .process_block(block, &[word(1), word(2)], &mut trace)
                .unwrap();
            departs.push(out[0].depart);
        }
        let deltas: Vec<usize> = departs.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas[2..].iter().all(|&d| d == 5), "got {deltas:?}");
    }

    #[test]
    fn forwarded_loads_are_bypassed_downstream() {
        let mut p = FuProgram::new();
        p.push(Instruction::load_forward(r(0)));
        p.push(Instruction::load(r(1)));
        p.push(Instruction::exec(Op::Mul, r(2), r(0), r(1)));
        let mut engine = FuEngine::new(0, FuVariant::V1, p);
        let mut trace = Trace::disabled();
        let out = engine
            .process_block(0, &[word(5), word(6)], &mut trace)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, Value::new(5)); // the bypassed word first
        assert_eq!(out[1].value, Value::new(30));
        assert!(out[0].depart < out[1].depart);
    }

    #[test]
    fn stream_underflow_is_detected() {
        let mut engine = FuEngine::new(2, FuVariant::V1, adder_program());
        let mut trace = Trace::disabled();
        let err = engine.process_block(0, &[word(1)], &mut trace).unwrap_err();
        assert!(matches!(err, SimError::StreamUnderflow { fu: 2, block: 0 }));
    }

    #[test]
    fn uninitialised_register_is_detected() {
        let mut p = FuProgram::new();
        p.push(Instruction::load(r(0)));
        p.push(Instruction::exec(Op::Add, r(2), r(0), r(9)));
        let mut engine = FuEngine::new(0, FuVariant::V1, p);
        let mut trace = Trace::disabled();
        let err = engine.process_block(0, &[word(1)], &mut trace).unwrap_err();
        assert!(matches!(
            err,
            SimError::UninitializedRegister { register: 9, .. }
        ));
    }

    #[test]
    fn writeback_hazard_is_detected_when_dependents_are_too_close() {
        // Two dependent execs back to back on a V3 FU (IWP = 5) violate the
        // write-back spacing and must be flagged.
        let mut p = FuProgram::new();
        p.push(Instruction::load(r(0)));
        p.push(Instruction::exec_flags(
            Op::Square,
            r(1),
            r(0),
            r(0),
            true,
            true,
        ));
        p.push(Instruction::exec(Op::Add, r(2), r(1), r(0)));
        let mut engine = FuEngine::new(0, FuVariant::V3, p);
        let mut trace = Trace::disabled();
        let err = engine.process_block(0, &[word(2)], &mut trace).unwrap_err();
        assert!(matches!(err, SimError::WritebackHazard { required: 5, .. }));
    }

    #[test]
    fn writeback_read_succeeds_after_the_iwp_delay() {
        let mut p = FuProgram::new();
        p.push(Instruction::load(r(0)));
        p.push(Instruction::exec_flags(
            Op::Square,
            r(1),
            r(0),
            r(0),
            true,
            true,
        ));
        for _ in 0..4 {
            p.push(Instruction::Nop);
        }
        p.push(Instruction::exec(Op::Add, r(2), r(1), r(0)));
        let mut engine = FuEngine::new(0, FuVariant::V3, p);
        let mut trace = Trace::disabled();
        let out = engine.process_block(0, &[word(3)], &mut trace).unwrap();
        // 3^2 + 3 = 12
        assert_eq!(out.last().unwrap().value, Value::new(12));
    }

    #[test]
    fn constants_are_readable_from_the_static_region() {
        let mut p = FuProgram::new();
        p.preload_constant(r(31), Value::new(10));
        p.push(Instruction::load(r(0)));
        p.push(Instruction::exec(Op::Mul, r(1), r(0), r(31)));
        let mut engine = FuEngine::new(0, FuVariant::V1, p);
        let mut trace = Trace::disabled();
        let out = engine.process_block(0, &[word(7)], &mut trace).unwrap();
        assert_eq!(out[0].value, Value::new(70));
    }
}
