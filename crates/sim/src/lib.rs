//! Cycle-accurate simulator for the linear time-multiplexed FPGA overlay.
//!
//! The simulator executes a [`overlay_scheduler::CompiledKernel`] — the per-FU
//! instruction streams produced by the mapping tool flow — on a software
//! model of the overlay:
//!
//! * each FU has a rotating register file (with a static region for
//!   preloaded constants), an input controller that writes arriving stream
//!   words one per cycle, and a DSP datapath with a configurable pipeline
//!   depth (3 stages, or 2 for the V5 variant);
//! * FUs are chained by FIFO channels; a value needed by a later stage is
//!   bypassed through every intermediate FU, arriving one cycle after it was
//!   loaded there;
//! * the write-back variants (V3–V5) write results back into the local
//!   register file after the internal write-back path (IWP) delay, and the
//!   simulator *checks* that the schedule really did separate dependent
//!   instructions by at least that many slots;
//! * the V2 variant's replicated datapath is modelled as two lanes that
//!   process alternate kernel invocations.
//!
//! [`OverlaySimulator::run`] decodes each FU program once per run, into the
//! input controller's load list and the execution engine's issue slots, and
//! reuses two stream buffers between the stages of every block, so the
//! per-block work touches no heap memory beyond the output record it
//! returns. An untraced run (`with_trace_capacity(0)`) only counts events.
//!
//! The functional results are checked against the DFG reference evaluator
//! ([`overlay_dfg::evaluate`]) in the test-suite, and the measured initiation
//! interval and latency are compared with the analytical models of
//! `overlay-scheduler`.
//!
//! # Example
//!
//! ```
//! use overlay_frontend::Benchmark;
//! use overlay_arch::FuVariant;
//! use overlay_scheduler::{generate_program, schedule};
//! use overlay_sim::{OverlaySimulator, Workload};
//! use overlay_dfg::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dfg = Benchmark::Gradient.dfg()?;
//! let stages = schedule(&dfg, FuVariant::V1, None)?;
//! let compiled = generate_program(&dfg, &stages, FuVariant::V1)?;
//!
//! let workload = Workload::from_records(vec![
//!     [1, 2, 3, 4, 5].map(Value::new).to_vec(),
//!     [5, 4, 3, 2, 1].map(Value::new).to_vec(),
//! ]);
//! let run = OverlaySimulator::new(FuVariant::V1).run(&compiled, &workload)?;
//! assert_eq!(run.outputs()[0], vec![Value::new(10)]);
//! assert_eq!(run.metrics().steady_state_ii, 6.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod error;
pub mod metrics;
pub mod overlay;
pub mod regfile;
pub mod trace;
pub mod workload;

pub use error::SimError;
pub use metrics::SimMetrics;
pub use overlay::{OverlaySimulator, SimRun};
pub use regfile::RegisterFile;
pub use trace::{Event, EventKind, Trace};
pub use workload::Workload;
