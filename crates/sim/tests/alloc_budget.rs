//! Allocation budget of `OverlaySimulator::run`.
//!
//! A counting global allocator measures how many heap allocations one run
//! makes. The only per-block allocation the simulator may make is the
//! output record `Vec` that `SimRun::outputs()` exposes; decoding the FU
//! programs, the stream buffers and the hazard state are per-run costs. So
//! going from 16 to 64 blocks may add at most one allocation per extra
//! block — not one per FU per block.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use overlay_arch::FuVariant;
use overlay_frontend::Benchmark;
use overlay_scheduler::{generate_program, schedule, CompiledKernel};
use overlay_sim::{OverlaySimulator, Workload};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract; the counter is a plain
// statistic and publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` guarantees are passed on as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation goes through this forwarding allocator).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` comes from the caller, who
        // upholds `realloc`'s size requirements.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn compile(benchmark: Benchmark, variant: FuVariant) -> CompiledKernel {
    let dfg = benchmark.dfg().unwrap();
    let stages = schedule(&dfg, variant, Some(8)).unwrap();
    generate_program(&dfg, &stages, variant).unwrap()
}

/// Heap allocations made by one untraced run of `compiled` over `blocks`
/// seeded records (the workload itself is built before counting).
fn allocations_per_run(variant: FuVariant, compiled: &CompiledKernel, blocks: usize) -> usize {
    let workload = Workload::random(compiled.program.num_inputs(), blocks, 11);
    let simulator = OverlaySimulator::new(variant).with_trace_capacity(0);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = simulator.run(compiled, &workload).unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(run.outputs().len(), blocks);
    after - before
}

fn assert_budget(variant: FuVariant, compiled: &CompiledKernel) {
    let short = allocations_per_run(variant, compiled, 16);
    let long = allocations_per_run(variant, compiled, 64);
    let growth = long.saturating_sub(short);
    assert!(
        growth <= 64 - 16,
        "{variant} kernel on {} FUs: {short} allocations at 16 blocks, {long} at 64 \
         ({growth} more for 48 extra blocks; budget is one per block)",
        compiled.num_fus()
    );
}

// One test function, so no other test thread allocates while counting.
#[test]
fn run_allocates_at_most_one_record_per_extra_block() {
    let deep = compile(Benchmark::Poly8, FuVariant::V4);
    assert_eq!(deep.num_fus(), 8, "the V4 case wants a depth-8 kernel");
    assert_budget(FuVariant::V4, &deep);

    let two_lanes = compile(Benchmark::Gradient, FuVariant::V2);
    assert_eq!(FuVariant::V2.datapath_lanes(), 2);
    assert_budget(FuVariant::V2, &two_lanes);
}
