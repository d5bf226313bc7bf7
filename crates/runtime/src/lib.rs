//! # overlay-runtime — an online multi-tile serving runtime for the TM overlay
//!
//! The paper's Sec. III-A.3 proposes replicating depth-8 write-back overlays
//! into NoC-connected *tiles*, and Sec. V shows their killer feature: a
//! ~0.25 µs hardware context switch (instruction reload) against ~1 ms of
//! PCAP partial reconfiguration for the feed-forward overlays. This crate
//! turns those models into an **online, event-driven** serving system whose
//! host-side hot path stays O(log n) per event as the pool and the queues
//! grow:
//!
//! * [`Submitter`] — streaming request ingestion over a bounded channel:
//!   [`Runtime::serve_stream`] accepts requests as they are produced, with
//!   backpressure when the ingest buffer fills and an admission-control
//!   reject path when tile queues overflow. Requests stream as
//!   [`Arc<Request>`] — no workload is ever deep-cloned on the way in;
//! * a virtual-time **event loop** ([`event`]) — every dispatch decision
//!   happens at an arrival or tile-free event against live per-tile queue
//!   state, never with knowledge of the future trace;
//! * [`Dispatcher`] — context-switch-aware placement and deadline-aware
//!   queue ordering: [`DispatchPolicy::KernelAffinity`] charges the
//!   [`overlay_arch::ReconfigModel`] swap cost (µs instruction reload for
//!   V3–V5, ms PCAP for `[14]`/V1/V2) whenever a tile must change kernels;
//!   [`DispatchPolicy::EarliestDeadlineFirst`] and
//!   [`DispatchPolicy::SlackAware`] drain tile queues by deadline urgency.
//!   Placement consults the [`TilePool`]'s **residency index** in O(log n)
//!   instead of scanning every tile, and queue draining pops from per-tile
//!   ordered structures instead of scanning every waiter — with
//!   [`ScanMode::LinearReference`] retaining the original scans as an
//!   equivalence oracle and benchmark baseline;
//! * [`TilePool`] — N replicated tiles (from [`overlay_arch::Tile`] /
//!   [`overlay_arch::NocConfig`]), each hosting one resident kernel plus a
//!   live queue, indexed by residency and backlog;
//! * [`KernelCache`] — an LRU over compiled kernels keyed by source hash +
//!   variant + depth, so each distinct kernel compiles once per trace — and
//!   a [`SimMemo`] over finished simulation runs keyed by (kernel,
//!   workload digest), so a repeated tenant request skips the functional
//!   simulation entirely;
//! * parallel functional execution — cycle-accurate simulations run on a
//!   persistent pool of `min(tiles, 8)` host worker threads wrapping
//!   [`overlay_sim::OverlaySimulator`], each fed by its own job channel (no
//!   contended receiver lock), with identical in-flight requests
//!   deduplicated onto one run. The [`Runtime`] or [`Cluster`] owns the
//!   pool: it spawns at the first serve, every later serve reuses it, and
//!   dropping the instance joins it. Each serve collects its results on a
//!   reply channel of its own, so a failed serve's leftover jobs never
//!   reach a later one. Sharded cluster lanes ([`Cluster::with_threads`])
//!   own their workers instead, alive only while the lane runs;
//! * [`RuntimeMetrics`] — requests/s, p50/p99 modeled latency, per-tile
//!   utilization, cache and memo hit rates, context-switch totals, queue
//!   depths, admission rejects, deadline miss rates and the host-side event
//!   count;
//! * the **control plane** ([`control`]) — optional same-kernel batching
//!   over the tile-free queue drain ([`BatchConfig`],
//!   [`Runtime::with_batching`]) and, on a [`Cluster`], rate-driven kernel
//!   replication ahead of demand ([`ReplicationConfig`],
//!   [`Cluster::with_replication`]). Both are off by default and leave the
//!   runtime bitwise identical to the un-batched event loop when off.
//!
//! # Example
//!
//! ```
//! use overlay_runtime::{DispatchPolicy, KernelSpec, Request, Runtime};
//! use overlay_arch::FuVariant;
//! use overlay_sim::Workload;
//!
//! # fn main() -> Result<(), overlay_runtime::RuntimeError> {
//! let mut runtime = Runtime::new(FuVariant::V4, 2)?
//!     .with_policy(DispatchPolicy::EarliestDeadlineFirst);
//!
//! let saxpy = KernelSpec::from_source("saxpy", "kernel saxpy(a, x, y) { out r = a * x + y; }");
//! let poly = KernelSpec::from_source("poly", "kernel poly(x) { out y = (x * x + 3) * x; }");
//!
//! // Requests are *streamed* into the runtime: the dispatcher sees each one
//! // only when it arrives on the virtual timeline.
//! let report = runtime.serve_stream(|submitter| {
//!     for i in 0..8u64 {
//!         let (kernel, inputs) = if i % 2 == 0 { (saxpy.clone(), 3) } else { (poly.clone(), 1) };
//!         let request = Request::new(i, kernel, Workload::ramp(inputs, 16))
//!             .at(i as f64)
//!             .with_deadline(i as f64 + 500.0);
//!         submitter.submit(request).expect("serve loop is live");
//!     }
//! })?;
//!
//! assert_eq!(report.outcomes().len(), 8);
//! // Each kernel compiled once; every later request hit the cache.
//! assert_eq!(report.metrics().cache.misses, 2);
//! assert_eq!(report.metrics().cache.hits, 6);
//! // Each (kernel, workload) simulated once; the repeats were memoized.
//! assert_eq!(report.metrics().sim_memo.misses, 2);
//! assert_eq!(report.metrics().sim_memo.hits, 6);
//! // Nothing was turned away and the generous deadlines were all met.
//! assert_eq!(report.metrics().rejects, 0);
//! assert_eq!(report.metrics().deadline_misses, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod cluster;
pub mod control;
pub mod dispatch;
pub mod error;
pub mod event;
pub mod fault;
pub mod metrics;
pub mod obs;
pub mod pool;
pub mod request;
pub mod route;
pub mod session;
pub mod submit;

pub use cache::{CacheStats, KernelCache, KernelKey, SimKey, SimMemo};
pub use obs::{
    explain, Attribution, AttributionReport, BurnAlert, BurnSample, ClassWindow, LogHistogram,
    ProfileStats, SloConfig, SloObjective, SloReport, SloStatus, SpanKind, TelemetryConfig,
    TimeSeries, Trace, TraceConfig, TraceEvent, WindowStats,
};

use cache::FnvHashMap;
pub use cluster::{Cluster, ClusterReport, Device};
pub use control::{BatchConfig, RateEstimator, ReplicationConfig};
pub use dispatch::{DispatchPolicy, DispatchRequest, Dispatcher, ScanMode};
pub use error::RuntimeError;
pub use fault::scenario::{FlashCrowd, Scenario, ScenarioArrival, ScenarioConfig};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use metrics::{
    BatchStats, ClassMetrics, DeviceMetrics, ReplicationStats, RuntimeMetrics, StageMetrics,
};
pub use pool::{ChargeOutcome, TilePool, TileState};
pub use request::{KernelSpec, Request};
pub use route::{RoutePolicy, TransferModel};
pub use session::{
    PipelineOutcome, PipelineReport, PipelineRequest, PipelineStage, ReorderBuffer, Session,
    SloClass,
};
pub use submit::{SubmitError, Submitter};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use control::Batcher;
use dispatch::TileQueue;
use event::{EventKind, EventQueue};
use overlay_arch::{FuVariant, NocConfig, OverlayConfig, ReconfigModel, TileComposition};
use overlay_dfg::Value;
use overlay_frontend::LowerOptions;
use overlay_scheduler::{generate_program, schedule, CompiledKernel};
use overlay_sim::{OverlaySimulator, SimError, SimMetrics, SimRun};

/// What happened to one served request: where it ran, what it produced and
/// the modeled timing it experienced.
///
/// Outcomes are allocation-light by construction: the kernel name is shared
/// with the request's [`KernelSpec`] and the functional outputs are shared
/// with the (possibly memoized) simulation run — recording an outcome never
/// deep-copies either.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The caller-chosen request id.
    pub request_id: u64,
    /// The kernel name (shared with the request's spec).
    pub kernel: Arc<str>,
    /// The device that served the request (always 0 for a single
    /// [`Runtime`]; the routing decision for a [`Cluster`]).
    pub device: usize,
    /// The tile that served the request (device-local index).
    pub tile: usize,
    /// The simulation run behind this outcome (shared, possibly memoized).
    run: Arc<SimRun>,
    /// The simulator's cycle-level metrics for this request.
    pub sim: SimMetrics,
    /// When queueing ended and the switch/execution began, microseconds.
    pub start_us: f64,
    /// Time spent waiting in the tile queue (start − arrival), microseconds.
    pub queued_us: f64,
    /// When the last output left the NoC, microseconds.
    pub completion_us: f64,
    /// Completion minus arrival, microseconds.
    pub latency_us: f64,
    /// Whether serving this request required a hardware context switch.
    pub switched: bool,
    /// The request's absolute deadline, if it carried one.
    pub deadline_us: Option<f64>,
    /// Whether a deadline was set and missed.
    pub missed_deadline: bool,
}

impl RequestOutcome {
    /// Functional outputs, one record per invocation — a view into the
    /// shared simulation run.
    pub fn outputs(&self) -> &[Vec<Value>] {
        self.run.outputs()
    }
}

/// A request turned away by admission control: it was never placed on a
/// tile and produced no outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedRequest {
    /// The caller-chosen request id.
    pub id: u64,
    /// The kernel name (shared with the request's spec).
    pub kernel: Arc<str>,
    /// When the request arrived, microseconds.
    pub arrival_us: f64,
    /// The deadline the request carried, if any — shed deadline work is
    /// reported in [`RuntimeMetrics::rejected_deadlines`], not as a miss.
    pub deadline_us: Option<f64>,
}

/// The result of one serve: per-request outcomes (in submission order),
/// admission rejects and aggregate metrics.
#[derive(Debug, Clone)]
pub struct ServeReport {
    policy: DispatchPolicy,
    outcomes: Vec<RequestOutcome>,
    rejected: Vec<RejectedRequest>,
    metrics: RuntimeMetrics,
    trace: Option<obs::Trace>,
    profile: Option<obs::ProfileStats>,
    telemetry: Option<obs::TimeSeries>,
    slo: Option<obs::SloReport>,
}

impl ServeReport {
    /// Per-request outcomes of every *admitted* request, in submission order.
    pub fn outcomes(&self) -> &[RequestOutcome] {
        &self.outcomes
    }

    /// Requests rejected by admission control, in submission order.
    pub fn rejected(&self) -> &[RejectedRequest] {
        &self.rejected
    }

    /// Aggregate serving metrics.
    pub fn metrics(&self) -> &RuntimeMetrics {
        &self.metrics
    }

    /// The dispatch policy that produced this report.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// The recorded request-span trace, when the serve ran with
    /// [`Runtime::with_tracing`] enabled.
    pub fn trace(&self) -> Option<&obs::Trace> {
        self.trace.as_ref()
    }

    /// The host-time stage attribution, when the serve ran with
    /// [`Runtime::with_profiling`] enabled.
    pub fn profile(&self) -> Option<&obs::ProfileStats> {
        self.profile.as_ref()
    }

    /// The windowed telemetry time-series, when the serve ran with
    /// [`Runtime::with_telemetry`] enabled.
    pub fn telemetry(&self) -> Option<&obs::TimeSeries> {
        self.telemetry.as_ref()
    }

    /// The SLO burn-rate tracking, when the serve ran with both
    /// [`Runtime::with_telemetry`] and [`Runtime::with_slo`] enabled.
    pub fn slo(&self) -> Option<&obs::SloReport> {
        self.slo.as_ref()
    }
}

/// Per-serve context shared by every request's preparation, including the
/// per-kernel derived timing figures (operating frequency, switch cost,
/// steady-state II) so they are computed once per distinct kernel rather
/// than once per request.
pub(crate) struct PrepContext {
    variant: FuVariant,
    writeback: bool,
    depth: usize,
    tile_overlay: Option<OverlayConfig>,
    derived: FnvHashMap<KernelKey, DerivedTiming>,
}

impl PrepContext {
    /// The shared per-serve preparation facts for `pool` (every device of a
    /// cluster replicates the same tile, so one context serves them all).
    pub(crate) fn for_pool(pool: &TilePool) -> Result<Self, RuntimeError> {
        let variant = pool.variant();
        let writeback = variant.has_writeback();
        Ok(PrepContext {
            variant,
            writeback,
            depth: if writeback { pool.logical_depth() } else { 0 },
            tile_overlay: pool.overlay_config()?,
            derived: FnvHashMap::default(),
        })
    }
}

/// Kernel-dependent timing facts reused across every request for that
/// kernel within one serve.
#[derive(Clone, Copy)]
struct DerivedTiming {
    fmax_mhz: f64,
    switch_us: f64,
    ii: f64,
    fill_cycles: f64,
    image_bytes: usize,
}

/// Compiles (via `cache`) and derives the timing figures one request needs
/// before it can be dispatched — including the [`DispatchRequest`] view
/// every later event reuses and the [`SimKey`] the memo answers.
/// Kernel-dependent timing (frequency, switch cost, II, image size) is
/// computed once per distinct kernel and reused from the context. Shared by
/// [`Runtime`] and [`Cluster`] (where `cache` is the kernel's home-device
/// store).
pub(crate) fn prepare_request(
    cache: &mut KernelCache,
    lower: &LowerOptions,
    reconfig: &ReconfigModel,
    ctx: &mut PrepContext,
    request: Arc<Request>,
) -> Result<InFlight, RuntimeError> {
    let key = KernelKey {
        fingerprint: request.kernel.fingerprint(),
        variant: ctx.variant,
        depth: ctx.depth,
    };
    let spec = &request.kernel;
    let writeback = ctx.writeback;
    let depth = ctx.depth;
    let compiled = cache.get_or_compile(key, || {
        let dfg = spec.dfg(lower)?;
        let fixed_depth = writeback.then_some(depth);
        let stages = schedule(&dfg, ctx.variant, fixed_depth)?;
        Ok(generate_program(&dfg, &stages, ctx.variant)?)
    })?;
    let timing = match ctx.derived.get(&key) {
        Some(&timing) => timing,
        None => {
            let config_bits = compiled.program.config_bits();
            let (fmax_mhz, switch_us) = match &ctx.tile_overlay {
                // Write-back tile: fixed overlay, instruction reload only.
                Some(config) => (
                    config.fmax_mhz(),
                    reconfig
                        .program_only_switch(ctx.variant, config_bits)
                        .total_us(),
                ),
                // Feed-forward tile: the overlay is rebuilt to the
                // kernel's depth, so a swap pays PCAP reconfiguration.
                None => {
                    let config = OverlayConfig::new(ctx.variant, compiled.num_fus())?;
                    (
                        config.fmax_mhz(),
                        reconfig.full_switch(&config, config_bits).total_us(),
                    )
                }
            };
            let timing = DerivedTiming {
                fmax_mhz,
                switch_us,
                ii: compiled.ii,
                fill_cycles: (4 * compiled.num_fus()) as f64,
                image_bytes: compiled.program.config_bytes(),
            };
            ctx.derived.insert(key, timing);
            timing
        }
    };
    // Planning estimate: steady-state II per invocation plus a
    // pipeline-fill allowance, at the overlay's operating frequency.
    let est_exec_us =
        (timing.ii * request.workload.len() as f64 + timing.fill_cycles) / timing.fmax_mhz;
    let sim_key = SimKey {
        kernel: key,
        workload: request.workload_digest(),
    };
    let view = DispatchRequest {
        key,
        est_exec_us,
        switch_us: timing.switch_us,
        deadline_us: request.deadline_us,
    };
    Ok(InFlight {
        request,
        sim_key,
        compiled,
        fmax_mhz: timing.fmax_mhz,
        image_bytes: timing.image_bytes,
        view,
    })
}

/// Everything the loop derives for a request when it is streamed in: the
/// dispatch view (kernel identity + modeled costs) is computed once here and
/// reused at every event the request participates in.
pub(crate) struct InFlight {
    pub(crate) request: Arc<Request>,
    pub(crate) sim_key: SimKey,
    pub(crate) compiled: Arc<CompiledKernel>,
    pub(crate) fmax_mhz: f64,
    /// The compiled image size the transfer model charges for moving this
    /// kernel between devices.
    pub(crate) image_bytes: usize,
    pub(crate) view: DispatchRequest,
}

/// How [`SimResults::source`] satisfied a request's simulation — the memo
/// counter events tracing records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimSourced {
    /// Joined an identical in-flight run.
    Joined,
    /// Answered from the memo.
    MemoHit,
    /// Spawned a fresh simulation job.
    Spawned,
}

/// Records the lifecycle spans of one started request onto its tile track:
/// queue wait (arrival → start), image acquisition and context switch when
/// paid, the run itself, batch membership and the commit instant. The span
/// durations sum to the request's reported `latency_us` by construction —
/// the reconciliation the observability test suite audits. Shared by the
/// [`Runtime`] and [`Cluster`] start paths (`acquire` is the cluster's
/// image-acquisition charge: duration, source label, bytes).
pub(crate) fn record_request_spans(
    recorder: &mut obs::TraceRecorder,
    place: (usize, usize),
    info: &InFlight,
    charged: &ChargeOutcome,
    acquire: Option<(f64, &'static str, u64)>,
    activation_us: f64,
    run_len: usize,
) {
    let (device, tile) = place;
    let request = &info.request;
    let span = |time_us: f64, dur_us: f64, kind: obs::SpanKind| obs::TraceEvent {
        time_us,
        dur_us,
        request_id: Some(request.id),
        device,
        tile: Some(tile),
        kind,
    };
    let start = charged.start_us;
    // The always-adjacent pairs (queue wait + batch membership, run +
    // commit) go through the recorder's fused capture paths: half the ring
    // pushes for the per-request burst, split back apart at decode.
    recorder.queue_wait_batch(
        request.arrival_us,
        start - request.arrival_us,
        request.id,
        device,
        tile,
        run_len as u64,
    );
    let mut cursor = start;
    if let Some((acquire_us, source, bytes)) = acquire {
        if acquire_us > 0.0 {
            recorder.record(span(
                cursor,
                acquire_us,
                obs::SpanKind::Acquire { source, bytes },
            ));
            cursor += acquire_us;
        }
    }
    if charged.switched {
        if activation_us > 0.0 {
            recorder.record(span(cursor, activation_us, obs::SpanKind::Activation));
            cursor += activation_us;
        }
        let switch_us = info.view.switch_us;
        recorder.record(span(cursor, switch_us, obs::SpanKind::ContextSwitch));
        cursor += switch_us;
    }
    recorder.run_commit(
        cursor,
        charged.completion_us - cursor,
        charged.completion_us,
        request.id,
        device,
        tile,
    );
}

/// A finished simulation as a worker reports it: the worker's own index
/// (so the loop credits that worker's outstanding count without a lookup),
/// the job's intake index and the run.
pub(crate) type SimReply = (usize, usize, Result<SimRun, SimError>);

/// A functional-simulation job handed to a worker.
pub(crate) struct SimJob {
    pub(crate) index: usize,
    pub(crate) compiled: Arc<CompiledKernel>,
    pub(crate) request: Arc<Request>,
    /// The reply channel of the serve that dealt this job.
    pub(crate) reply: mpsc::Sender<SimReply>,
}

/// A [`SimPool`]'s spawned and live worker counts.
#[derive(Debug, Default)]
pub(crate) struct WorkerCounts {
    /// Worker threads ever spawned.
    spawned: AtomicUsize,
    /// Worker threads spawned and not yet joined.
    live: AtomicUsize,
}

#[cfg(test)]
impl WorkerCounts {
    /// `(spawned, live)`.
    pub(crate) fn spawned_live(&self) -> (usize, usize) {
        (
            self.spawned.load(Ordering::Relaxed),
            self.live.load(Ordering::Relaxed),
        )
    }
}

/// The sim-worker pool: `size` host threads (`overlay-sim-<i>`), each
/// running an untraced simulator over the jobs on its own channel, so
/// workers never contend on a shared receiver lock. The threads spawn at
/// the first [`SimResults`] built over the pool and are joined when the
/// pool drops — a [`Runtime`] or [`Cluster`] keeps one for its whole life,
/// a sharded lane one for the lane's run.
///
/// Results go back on the reply channel each job carries, and a worker
/// ignores a failed send: the serve that dealt the job has ended (it
/// failed), its receiver is gone, and the result could never reach a later
/// serve, which replies on a channel of its own.
pub(crate) struct SimPool {
    variant: FuVariant,
    size: usize,
    jobs: Vec<mpsc::Sender<SimJob>>,
    workers: Vec<thread::JoinHandle<()>>,
    counts: Arc<WorkerCounts>,
}

impl SimPool {
    /// A pool of `size` workers over `variant`; no thread spawns until
    /// the first serve.
    pub(crate) fn new(variant: FuVariant, size: usize) -> Self {
        SimPool {
            variant,
            size,
            jobs: Vec::new(),
            workers: Vec::new(),
            counts: Arc::default(),
        }
    }

    /// The workers' job channels, spawning the workers on first use.
    fn jobs(&mut self) -> &[mpsc::Sender<SimJob>] {
        if self.jobs.is_empty() {
            for worker in 0..self.size {
                let (job_tx, job_rx) = mpsc::channel::<SimJob>();
                let variant = self.variant;
                let handle = thread::Builder::new()
                    .name(format!("overlay-sim-{worker}"))
                    .spawn(move || {
                        let simulator = OverlaySimulator::new(variant).with_trace_capacity(0);
                        while let Ok(job) = job_rx.recv() {
                            let run = simulator.run(&job.compiled, &job.request.workload);
                            let _ = job.reply.send((worker, job.index, run));
                        }
                    })
                    .expect("the host can spawn a sim worker thread");
                self.jobs.push(job_tx);
                self.workers.push(handle);
                self.counts.spawned.fetch_add(1, Ordering::Relaxed);
                self.counts.live.fetch_add(1, Ordering::Relaxed);
            }
        }
        &self.jobs
    }

    /// The pool's spawned/live worker counts.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> Arc<WorkerCounts> {
        Arc::clone(&self.counts)
    }
}

impl Drop for SimPool {
    /// Closes every job channel and joins the workers. Each one finishes
    /// the jobs already queued to it first.
    fn drop(&mut self) {
        self.jobs.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
            self.counts.live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for SimPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimPool")
            .field("variant", &self.variant)
            .field("size", &self.size)
            .field("spawned", &!self.workers.is_empty())
            .finish()
    }
}

/// Sim results as the event loop consumes them: jobs are spawned eagerly at
/// admission (deduplicated by [`SimKey`] against in-flight runs while
/// memoization is enabled), dealt to the least-loaded worker, returned in
/// any order, and the loop blocks for a specific index only when a tile is
/// about to execute that request.
pub(crate) struct SimResults {
    /// This serve's clones of the pool's job channels.
    jobs: Vec<mpsc::Sender<SimJob>>,
    /// The serve's reply channel; every job carries a clone of `reply`.
    reply: mpsc::Sender<SimReply>,
    rx: mpsc::Receiver<SimReply>,
    /// One slot per intake index — no hashing on the hot path.
    ready: Vec<Option<Result<Arc<SimRun>, SimError>>>,
    /// Intake indices awaiting each in-flight simulation; the first entry is
    /// the index the job was spawned under. Unused when `dedup` is off.
    pending: FnvHashMap<SimKey, Vec<usize>>,
    /// Whether identical in-flight requests join one simulation. Follows the
    /// memo: a disabled memo (capacity 0) means *every* request simulates.
    dedup: bool,
    /// Jobs dispatched to and not yet returned by each worker — new jobs go
    /// to the least-loaded worker so one long simulation does not pin
    /// later jobs behind it on a single channel.
    outstanding: Vec<u32>,
}

impl SimResults {
    /// A fresh result tracker for one serve over `pool`'s workers (spawning
    /// them if this is the pool's first serve), with its own reply channel.
    /// It must drop before the pool does: its job-channel clones keep the
    /// workers alive.
    pub(crate) fn new(pool: &mut SimPool, dedup: bool) -> Self {
        let jobs = pool.jobs().to_vec();
        let (reply, rx) = mpsc::channel();
        SimResults {
            outstanding: vec![0; jobs.len()],
            jobs,
            reply,
            rx,
            ready: Vec::new(),
            pending: FnvHashMap::default(),
            dedup,
        }
    }

    /// Grows the per-intake slot table by one (a request was streamed in).
    pub(crate) fn push_slot(&mut self) {
        self.ready.push(None);
    }

    /// Sources the (placement-independent) simulation for an admitted
    /// request `index`: joins an identical in-flight run, answers from the
    /// memo, or spawns a job on the least-loaded worker — exactly one of
    /// the three, with the memo counters tracking which. Returns which path
    /// satisfied the request so tracing can emit the matching counter event.
    pub(crate) fn source(
        &mut self,
        index: usize,
        info: &InFlight,
        memo: &mut SimMemo,
    ) -> SimSourced {
        let joined = self.dedup
            && match self.pending.get_mut(&info.sim_key) {
                Some(waiters) => {
                    waiters.push(index);
                    memo.note_shared_hit();
                    true
                }
                None => false,
            };
        if joined {
            // An identical simulation is already in flight.
            SimSourced::Joined
        } else if let Some(run) = memo.get(&info.sim_key) {
            self.ready[index] = Some(Ok(run));
            SimSourced::MemoHit
        } else {
            if self.dedup {
                self.pending.insert(info.sim_key, vec![index]);
            }
            memo.note_miss();
            let worker = self.least_loaded();
            self.outstanding[worker] += 1;
            self.jobs[worker]
                .send(SimJob {
                    index,
                    compiled: Arc::clone(&info.compiled),
                    request: Arc::clone(&info.request),
                    reply: self.reply.clone(),
                })
                .expect("sim workers outlive the event loop");
            SimSourced::Spawned
        }
    }

    /// Puts a consumed run back into `index`'s slot — fault injection
    /// abandons a started request and requeues it, and the simulation
    /// (placement-independent) must be waiting when the retry starts.
    pub(crate) fn restore(&mut self, index: usize, run: Arc<SimRun>) {
        self.ready[index] = Some(Ok(run));
    }

    /// The worker with the fewest outstanding jobs (ties to the lowest id).
    fn least_loaded(&self) -> usize {
        self.outstanding
            .iter()
            .enumerate()
            .min_by_key(|&(_, &load)| load)
            .map(|(worker, _)| worker)
            .expect("at least one sim worker exists")
    }

    /// Blocks until the run for `index` is available, fanning every received
    /// result out to all requests awaiting the same simulation and memoizing
    /// successful runs.
    pub(crate) fn take(
        &mut self,
        index: usize,
        intake: &[InFlight],
        memo: &mut SimMemo,
    ) -> Result<Arc<SimRun>, RuntimeError> {
        loop {
            if let Some(result) = self.ready[index].take() {
                return result.map_err(RuntimeError::from);
            }
            let (worker, done, run) = self
                .rx
                .recv()
                .expect("the serve holds its own reply sender");
            self.outstanding[worker] -= 1;
            if !self.dedup {
                self.ready[done] = Some(run.map(Arc::new));
                continue;
            }
            let key = intake[done].sim_key;
            let waiters = self
                .pending
                .remove(&key)
                .expect("every spawned job has waiters");
            match run {
                Ok(run) => {
                    let run = Arc::new(run);
                    memo.insert(key, Arc::clone(&run));
                    for waiter in waiters {
                        self.ready[waiter] = Some(Ok(Arc::clone(&run)));
                    }
                }
                Err(err) => {
                    for waiter in waiters {
                        self.ready[waiter] = Some(Err(err.clone()));
                    }
                }
            }
        }
    }
}

/// Where the event loop pulls submissions from: a live bounded channel
/// (streaming serves) or the pre-collected trace itself (batch serves skip
/// the channel and its per-request synchronization entirely).
pub(crate) enum Ingest {
    Stream(mpsc::Receiver<Arc<Request>>),
    Batch(std::vec::IntoIter<Request>),
}

impl Ingest {
    /// Blocking pull of the next submission; `None` means the trace is
    /// complete.
    pub(crate) fn recv(&mut self) -> Option<Arc<Request>> {
        match self {
            Ingest::Stream(rx) => rx.recv().ok(),
            Ingest::Batch(iter) => iter.next().map(Arc::new),
        }
    }

    /// Non-blocking pull of an already-available submission, letting the
    /// loop drain the stream buffer in batches instead of paying one
    /// channel synchronization per request. Batch ingest always answers
    /// `None`: with no channel to amortize, pulling strictly by the horizon
    /// rule keeps the event heap small.
    pub(crate) fn try_recv(&mut self) -> Option<Arc<Request>> {
        match self {
            Ingest::Stream(rx) => rx.try_recv().ok(),
            Ingest::Batch(_) => None,
        }
    }
}

/// The horizon-ruled submission pull shared by the [`Runtime`] and
/// [`Cluster`] event loops: requests are pulled (and prepared) until the
/// earliest pending event is at or before the horizon and therefore safe to
/// fire. After each blocking pull, whatever else is already buffered is
/// drained in the same pass — pulling ahead of the horizon is always sound
/// (it only schedules future arrival events) and amortizes the channel
/// synchronization across a whole burst.
///
/// Arrival validation (finite, non-negative, non-decreasing) lives here, in
/// exactly one place.
pub(crate) struct SubmissionPull {
    pub(crate) horizon_us: f64,
    pub(crate) ingest_open: bool,
}

impl SubmissionPull {
    pub(crate) fn new() -> Self {
        SubmissionPull {
            horizon_us: 0.0,
            ingest_open: true,
        }
    }

    /// Pulls until an event at or before the horizon is pending (or the
    /// ingest closes, setting the horizon to ∞). `prepare` compiles one
    /// submission into its [`InFlight`] record; `grow_slots` extends the
    /// caller's per-intake side tables by one before the record is pushed
    /// (and, with tracing on, records the submission span — which is why it
    /// sees the prepared record).
    pub(crate) fn pull<P, G>(
        &mut self,
        ingest: &mut Ingest,
        events: &mut EventQueue,
        intake: &mut Vec<InFlight>,
        mut prepare: P,
        mut grow_slots: G,
    ) -> Result<(), RuntimeError>
    where
        P: FnMut(Arc<Request>) -> Result<InFlight, RuntimeError>,
        G: FnMut(&InFlight),
    {
        while self.ingest_open
            && events
                .peek_time_us()
                .is_none_or(|time| time > self.horizon_us)
        {
            let Some(request) = ingest.recv() else {
                // Every submitter is gone: the trace is complete.
                self.ingest_open = false;
                self.horizon_us = f64::INFINITY;
                break;
            };
            let mut next = Some(request);
            while let Some(request) = next.take() {
                let arrival_us = request.arrival_us;
                if !arrival_us.is_finite() || arrival_us < 0.0 {
                    return Err(RuntimeError::InvalidArrival {
                        request: request.id,
                        arrival_us,
                    });
                }
                if arrival_us < self.horizon_us {
                    return Err(RuntimeError::OutOfOrderArrival {
                        request: request.id,
                        arrival_us,
                        horizon_us: self.horizon_us,
                    });
                }
                self.horizon_us = arrival_us;
                let inflight = prepare(request)?;
                let index = intake.len();
                // Arrivals enter in non-decreasing time order: the
                // monotone lane appends instead of heap-sifting.
                events.push_monotone(arrival_us, EventKind::Arrival { index });
                grow_slots(&inflight);
                intake.push(inflight);
                next = ingest.try_recv();
            }
        }
        Ok(())
    }
}

/// The per-tile waiting queues, in the shape the active [`ScanMode`] needs:
/// ordered index structures, or the plain FIFO deques the linear-reference
/// scan-and-remove path works over.
enum TileQueues {
    Indexed(Vec<TileQueue>),
    Linear(Vec<VecDeque<usize>>),
}

impl TileQueues {
    fn is_empty(&self, tile: usize) -> bool {
        match self {
            TileQueues::Indexed(queues) => queues[tile].is_empty(),
            TileQueues::Linear(queues) => queues[tile].is_empty(),
        }
    }
}

/// Mutable event-loop state, separate from the `Runtime` so placement (on
/// `self`) and bookkeeping borrows stay disjoint.
struct OnlineState {
    queues: TileQueues,
    /// Per intake index: logically removed from its tile queue (the ordered
    /// structures drop flagged entries lazily).
    taken: Vec<bool>,
    events: EventQueue,
    outcome_slots: Vec<Option<RequestOutcome>>,
    rejected: Vec<RejectedRequest>,
    sim: SimResults,
    /// The same-kernel batching layer over the tile-free queue drain (a
    /// no-op at the default `max_batch = 1`).
    batcher: Batcher,
    peak_queue_depth: usize,
    queue_area_us: f64,
    last_event_us: f64,
    /// Request-span recorder (inert under the default disabled config).
    recorder: obs::TraceRecorder,
    /// Host-time stage timers (inert unless profiling was enabled).
    profiler: obs::StageProfiler,
    /// Online latency histogram, recorded as requests complete.
    latency_hist: obs::LogHistogram,
    /// Online queue-depth histogram, sampled at every event-loop step.
    queue_depth_hist: obs::LogHistogram,
    /// Windowed telemetry partitions (inert under the default disabled
    /// config): the single device lane and the queue-integral series.
    lane_series: obs::LaneSeries,
    global_series: obs::GlobalSeries,
}

/// What the event loop hands back for aggregation.
struct LoopOutput {
    outcomes: Vec<RequestOutcome>,
    rejected: Vec<RejectedRequest>,
    peak_queue_depth: usize,
    queue_area_us: f64,
    events_fired: u64,
    batch: metrics::BatchStats,
    trace: Option<obs::Trace>,
    profile: Option<obs::ProfileStats>,
    latency_hist: obs::LogHistogram,
    queue_depth_hist: obs::LogHistogram,
    telemetry: Option<obs::TimeSeries>,
    slo: Option<obs::SloReport>,
}

/// An online multi-tile serving runtime over one overlay variant.
///
/// See the [crate-level documentation](crate) for the moving parts and an
/// end-to-end example.
#[derive(Debug)]
pub struct Runtime {
    pool: TilePool,
    dispatcher: Dispatcher,
    cache: KernelCache,
    sim_memo: SimMemo,
    reconfig: ReconfigModel,
    lower: LowerOptions,
    ingest_capacity: usize,
    admission_limit: usize,
    batching: BatchConfig,
    tracing: obs::TraceConfig,
    /// Recorder kept across serves so the ring's backing allocation (and
    /// its warmed pages) amortize instead of being re-faulted per serve.
    /// Swapped into the event loop's state and back out at serve end.
    trace_scratch: obs::TraceRecorder,
    profiling: bool,
    telemetry: obs::TelemetryConfig,
    slo: obs::SloConfig,
    /// The sim workers every serve deals its jobs to, spawned at the first
    /// serve and joined when the runtime drops.
    sim_pool: SimPool,
}

impl Runtime {
    /// Default capacity of the kernel cache.
    pub const DEFAULT_CACHE_CAPACITY: usize = 64;

    /// Default capacity of the simulation memo.
    pub const DEFAULT_SIM_MEMO_CAPACITY: usize = 1024;

    /// Default bound of the streaming ingest channel.
    pub const DEFAULT_INGEST_CAPACITY: usize = 64;

    /// Host worker threads running functional simulations are capped here.
    pub(crate) const MAX_SIM_WORKERS: usize = 8;

    /// A runtime of `tiles` parallel-composition tiles of `variant` on a
    /// single-row NoC, using kernel-affinity dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::EmptyPool`] when `tiles` is 0.
    pub fn new(variant: FuVariant, tiles: usize) -> Result<Self, RuntimeError> {
        let pool = TilePool::with_tiles(variant, TileComposition::Parallel, tiles)?;
        Ok(Self::from_pool(pool))
    }

    /// A runtime over an explicit NoC layout (rows × cols of a chosen tile).
    pub fn from_noc(noc: NocConfig) -> Self {
        Self::from_pool(TilePool::new(noc))
    }

    fn from_pool(pool: TilePool) -> Self {
        Runtime {
            sim_pool: SimPool::new(
                pool.variant(),
                pool.num_tiles().clamp(1, Self::MAX_SIM_WORKERS),
            ),
            pool,
            dispatcher: Dispatcher::default(),
            cache: KernelCache::new(Self::DEFAULT_CACHE_CAPACITY)
                .expect("default capacity is non-zero"),
            sim_memo: SimMemo::new(Self::DEFAULT_SIM_MEMO_CAPACITY),
            reconfig: ReconfigModel::new(),
            lower: LowerOptions::default(),
            ingest_capacity: Self::DEFAULT_INGEST_CAPACITY,
            admission_limit: usize::MAX,
            batching: BatchConfig::disabled(),
            tracing: obs::TraceConfig::disabled(),
            trace_scratch: obs::TraceRecorder::new(obs::TraceConfig::disabled()),
            profiling: false,
            telemetry: obs::TelemetryConfig::disabled(),
            slo: obs::SloConfig::disabled(),
        }
    }

    /// Sets the dispatch policy.
    #[must_use]
    pub fn with_policy(mut self, policy: DispatchPolicy) -> Self {
        let scan = self.dispatcher.scan_mode();
        self.dispatcher = Dispatcher::new(policy).with_scan_mode(scan);
        self
    }

    /// Sets the scan mode: [`ScanMode::Indexed`] (the default) answers
    /// placement and queue ordering from incremental indexes;
    /// [`ScanMode::LinearReference`] retains the original per-event scans as
    /// an equivalence oracle and benchmark baseline. Both modes make
    /// identical decisions on every trace.
    #[must_use]
    pub fn with_scan_mode(mut self, scan: ScanMode) -> Self {
        self.dispatcher = self.dispatcher.with_scan_mode(scan);
        self.pool.set_indexing(scan == ScanMode::Indexed);
        self
    }

    /// Replaces the kernel cache with one of `capacity` entries.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ZeroCacheCapacity`] when `capacity` is 0.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Result<Self, RuntimeError> {
        self.cache = KernelCache::new(capacity)?;
        Ok(self)
    }

    /// Replaces the simulation memo with one of `capacity` entries.
    /// A capacity of 0 disables memoization *and* in-flight deduplication —
    /// every request simulates.
    #[must_use]
    pub fn with_sim_memo_capacity(mut self, capacity: usize) -> Self {
        self.sim_memo = SimMemo::new(capacity);
        self
    }

    /// Sets the bound of the streaming ingest channel (`0` makes every
    /// [`Submitter::submit`] rendezvous with the event loop).
    #[must_use]
    pub fn with_ingest_capacity(mut self, capacity: usize) -> Self {
        self.ingest_capacity = capacity;
        self
    }

    /// Sets the admission-control limit on *waiting* requests: an arrival
    /// that would have to queue while this many requests are already
    /// waiting across all tiles is rejected. An arrival is always admitted
    /// when the tile the dispatcher places it on can start it immediately —
    /// note the placement decision comes first, so a policy that prefers
    /// waiting for a warm tile over an idle-but-cold one (e.g. affinity on
    /// a PCAP pool) can still see its request rejected while another tile
    /// sits idle. Defaults to unlimited.
    #[must_use]
    pub fn with_admission_limit(mut self, limit: usize) -> Self {
        self.admission_limit = limit;
        self
    }

    /// Overrides the reconfiguration timing model.
    #[must_use]
    pub fn with_reconfig(mut self, model: ReconfigModel) -> Self {
        self.reconfig = model;
        self
    }

    /// Configures the same-kernel batching layer: when a tile frees, up to
    /// [`BatchConfig::max_batch`] consecutive runs of the resident kernel
    /// may jump the dispatch policy's queue order (never past the staleness
    /// bound, and never when a bypassed deadline would become infeasible).
    /// The default [`BatchConfig::disabled`] leaves every decision to the
    /// dispatch policy — bitwise identical to the un-batched runtime.
    #[must_use]
    pub fn with_batching(mut self, config: BatchConfig) -> Self {
        self.batching = config;
        self
    }

    /// Configures request-span tracing: every serve records its lifecycle
    /// spans into a bounded drop-oldest ring and hands the completed
    /// [`Trace`](obs::Trace) back on the report. The default
    /// [`TraceConfig::disabled`](obs::TraceConfig::disabled) records nothing
    /// and leaves the serve bitwise identical to an untraced one.
    #[must_use]
    pub fn with_tracing(mut self, config: obs::TraceConfig) -> Self {
        self.tracing = config;
        self.trace_scratch = obs::TraceRecorder::new(config);
        self
    }

    /// Enables the host-time hot-path profiler: the serve attributes its
    /// wall-clock nanoseconds to scan/route/sim/memo/bookkeeping stages and
    /// reports [`ProfileStats`](obs::ProfileStats). Off (the default) no
    /// clock is ever read on the hot path.
    #[must_use]
    pub fn with_profiling(mut self, enabled: bool) -> Self {
        self.profiling = enabled;
        self
    }

    /// Configures windowed telemetry: the serve accumulates a per-window
    /// [`TimeSeries`](obs::TimeSeries) (throughput, miss-rate, queue depth,
    /// utilization, per-class latency percentiles) on the virtual timeline
    /// and hands it back on the report. The default
    /// [`TelemetryConfig::disabled`](obs::TelemetryConfig::disabled)
    /// accumulates nothing and leaves the serve bitwise identical.
    #[must_use]
    pub fn with_telemetry(mut self, config: obs::TelemetryConfig) -> Self {
        self.telemetry = config;
        self
    }

    /// Configures SLO objectives: against the windowed telemetry series the
    /// serve tracks per-class error-budget burn rates, fires/clears
    /// multi-window burn alerts (as [`SloBurn`](obs::SpanKind::SloBurn) /
    /// [`SloClear`](obs::SpanKind::SloClear) trace spans when tracing is on)
    /// and reports an [`SloReport`](obs::SloReport). Needs
    /// [`with_telemetry`](Runtime::with_telemetry); the default
    /// [`SloConfig::disabled`](obs::SloConfig::disabled) tracks nothing.
    #[must_use]
    pub fn with_slo(mut self, config: obs::SloConfig) -> Self {
        self.slo = config;
        self
    }

    /// Overrides the front-end lowering options.
    ///
    /// Clears the kernel cache and the simulation memo: cached artifacts
    /// were compiled under the old options and their [`KernelKey`] does not
    /// encode lowering options.
    #[must_use]
    pub fn with_lower_options(mut self, options: LowerOptions) -> Self {
        self.lower = options;
        self.cache.clear();
        self.sim_memo.clear();
        self
    }

    /// The overlay variant all tiles are built from.
    pub fn variant(&self) -> FuVariant {
        self.pool.variant()
    }

    /// The active dispatch policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.dispatcher.policy()
    }

    /// The active scan mode.
    pub fn scan_mode(&self) -> ScanMode {
        self.dispatcher.scan_mode()
    }

    /// The bound of the streaming ingest channel.
    pub fn ingest_capacity(&self) -> usize {
        self.ingest_capacity
    }

    /// The admission-control limit on waiting requests.
    pub fn admission_limit(&self) -> usize {
        self.admission_limit
    }

    /// The active same-kernel batching configuration.
    pub fn batching(&self) -> BatchConfig {
        self.batching
    }

    /// The active tracing configuration.
    pub fn tracing(&self) -> obs::TraceConfig {
        self.tracing
    }

    /// Whether host-time stage profiling is enabled.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// The tile pool (holding the state left by the last serve).
    pub fn pool(&self) -> &TilePool {
        &self.pool
    }

    /// The kernel cache (counters accumulate across serves).
    pub fn cache(&self) -> &KernelCache {
        &self.cache
    }

    /// The simulation memo (counters accumulate across serves).
    pub fn sim_memo(&self) -> &SimMemo {
        &self.sim_memo
    }

    /// Serves a pre-collected trace, taken by value so streaming it through
    /// the loop never deep-clones a workload. The requests are consumed in
    /// iteration order and dispatched online exactly as
    /// [`serve_stream`](Runtime::serve_stream) would dispatch live traffic —
    /// but straight off the trace, with no ingest channel or feeder thread
    /// in between. Pass `trace.clone()` to keep a trace for a later replay.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] for an empty trace, invalid or
    /// out-of-order arrival times, or any compile/simulation failure.
    pub fn serve<I>(&mut self, requests: I) -> Result<ServeReport, RuntimeError>
    where
        I: IntoIterator<Item = Request>,
    {
        let requests: Vec<Request> = requests.into_iter().collect();
        self.run_serve(
            Ingest::Batch(requests.into_iter()),
            None::<(fn(Submitter), _)>,
        )
    }

    /// Serves a live request stream: `feed` runs on its own thread and
    /// submits requests through the [`Submitter`] (blocking when the bounded
    /// ingest channel is full) while the event loop consumes them on the
    /// virtual timeline. The serve ends when `feed` returns (dropping the
    /// submitter) and every admitted request has completed.
    ///
    /// Requests must be submitted in non-decreasing arrival order — that is
    /// what lets the loop prove no earlier event can still arrive and makes
    /// the whole serve deterministic for a given submission order.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] when nothing was submitted, for invalid or
    /// out-of-order arrival times, or for any compile/simulation failure
    /// (reported for the first failing request on the virtual timeline).
    pub fn serve_stream<F>(&mut self, feed: F) -> Result<ServeReport, RuntimeError>
    where
        F: FnOnce(Submitter) + Send,
    {
        let (ingest_tx, ingest_rx) = mpsc::sync_channel::<Arc<Request>>(self.ingest_capacity);
        self.run_serve(Ingest::Stream(ingest_rx), Some((feed, ingest_tx)))
    }

    /// The shared serve body: resets per-serve state, opens the serve's
    /// results over the persistent sim-worker pool (and spawns the feeder
    /// thread for streaming serves), runs the event loop over `ingest` and
    /// folds the output into a report.
    fn run_serve<F>(
        &mut self,
        ingest: Ingest,
        feed: Option<(F, mpsc::SyncSender<Arc<Request>>)>,
    ) -> Result<ServeReport, RuntimeError>
    where
        F: FnOnce(Submitter) + Send,
    {
        self.pool.reset();
        self.dispatcher.reset();
        let cache_before = self.cache.stats();
        let memo_before = self.sim_memo.stats();

        let sim = SimResults::new(&mut self.sim_pool, self.sim_memo.capacity() > 0);
        // `ingest` and `sim` move into the loop, so returning (success or
        // error) disconnects the feeder and drops the serve's reply channel.
        let output = match feed {
            Some((feed, ingest_tx)) => thread::scope(|scope| {
                scope.spawn(move || feed(Submitter::new(ingest_tx)));
                self.event_loop(ingest, sim)
            }),
            None => self.event_loop(ingest, sim),
        }?;

        let delta = |after: CacheStats, before: CacheStats| CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
        };
        let cache = delta(self.cache.stats(), cache_before);
        let sim_memo = delta(self.sim_memo.stats(), memo_before);
        let metrics = self.aggregate(&output, cache, sim_memo);
        Ok(ServeReport {
            policy: self.dispatcher.policy(),
            outcomes: output.outcomes,
            rejected: output.rejected,
            metrics,
            trace: output.trace,
            profile: output.profile,
            telemetry: output.telemetry,
            slo: output.slo,
        })
    }

    /// The pool-wide waiting count (admission control's bound and the
    /// queue-area integrand), via the O(1) maintained counter under
    /// [`ScanMode::Indexed`] or the retained O(tiles) recomputation under
    /// [`ScanMode::LinearReference`].
    fn waiting_count(&self) -> usize {
        match self.dispatcher.scan_mode() {
            ScanMode::Indexed => self.pool.total_waiting(),
            ScanMode::LinearReference => self.pool.total_waiting_scan(),
        }
    }

    /// The discrete-event core: pulls submissions from `ingest`, fires
    /// arrival/tile-free events in virtual-time order, and returns the
    /// per-request outcomes.
    ///
    /// The horizon rule makes laziness sound: submissions arrive in
    /// non-decreasing arrival order, so once a request with arrival `h` has
    /// been received (or the channel has closed, `h = ∞`), every pending
    /// event at time ≤ `h` can fire without being preempted by a
    /// still-unseen arrival.
    fn event_loop(
        &mut self,
        mut ingest: Ingest,
        sim: SimResults,
    ) -> Result<LoopOutput, RuntimeError> {
        let mut ctx = self.prep_context()?;
        let tiles = self.pool.num_tiles();
        let mut intake: Vec<InFlight> = Vec::new();
        let mut state = OnlineState {
            queues: match self.dispatcher.scan_mode() {
                ScanMode::Indexed => TileQueues::Indexed(
                    (0..tiles)
                        .map(|_| TileQueue::new(self.dispatcher.policy(), self.batching.enabled()))
                        .collect(),
                ),
                ScanMode::LinearReference => TileQueues::Linear(vec![VecDeque::new(); tiles]),
            },
            taken: Vec::new(),
            events: EventQueue::new(),
            outcome_slots: Vec::new(),
            rejected: Vec::new(),
            sim,
            batcher: Batcher::new(self.batching, tiles),
            peak_queue_depth: 0,
            queue_area_us: 0.0,
            last_event_us: 0.0,
            recorder: {
                // Reuse the drained recorder from the previous serve (warm
                // ring allocation); rebuild only if the config changed or a
                // prior error path lost it.
                let scratch = std::mem::replace(
                    &mut self.trace_scratch,
                    obs::TraceRecorder::new(obs::TraceConfig::disabled()),
                );
                if scratch.capacity() == self.tracing.capacity() {
                    scratch
                } else {
                    obs::TraceRecorder::new(self.tracing)
                }
            },
            profiler: obs::StageProfiler::new(self.profiling),
            latency_hist: obs::LogHistogram::new(),
            queue_depth_hist: obs::LogHistogram::new(),
            lane_series: obs::LaneSeries::new(self.telemetry),
            global_series: obs::GlobalSeries::new(self.telemetry),
        };
        let mut pull = SubmissionPull::new();

        loop {
            {
                let OnlineState {
                    events,
                    outcome_slots,
                    taken,
                    sim,
                    recorder,
                    ..
                } = &mut state;
                let cache = &mut self.cache;
                let lower = &self.lower;
                let reconfig = &self.reconfig;
                pull.pull(
                    &mut ingest,
                    events,
                    &mut intake,
                    |request| prepare_request(cache, lower, reconfig, &mut ctx, request),
                    |inflight| {
                        outcome_slots.push(None);
                        taken.push(false);
                        sim.push_slot();
                        if recorder.enabled() {
                            recorder.record(obs::TraceEvent {
                                time_us: inflight.request.arrival_us,
                                dur_us: 0.0,
                                request_id: Some(inflight.request.id),
                                device: 0,
                                tile: None,
                                kind: obs::SpanKind::Submit,
                            });
                        }
                    },
                )?;
            }
            let Some(event) = state.events.pop() else {
                // The pull loop only exits with the ingest open when an
                // event at or before the horizon is pending, so an empty
                // queue here means the trace is complete.
                debug_assert!(
                    !pull.ingest_open,
                    "event queue drained while ingest is open"
                );
                break;
            };
            let now_us = event.time_us;
            let bookkeeping = state.profiler.begin();
            let waiting = self.waiting_count();
            state.queue_area_us += waiting as f64 * (now_us - state.last_event_us);
            state.queue_depth_hist.record(waiting as f64);
            state
                .global_series
                .note_queue(state.last_event_us, now_us, waiting);
            state.last_event_us = now_us;
            state.profiler.end(obs::Stage::Bookkeeping, bookkeeping);

            match event.kind {
                EventKind::Arrival { index } => {
                    let info = &intake[index];
                    let route = state.profiler.begin();
                    let tile = self.dispatcher.place(&info.view, now_us, &self.pool);
                    state.profiler.end(obs::Stage::Route, route);
                    // Admission control bounds *waiters*: a request that can
                    // start immediately on its (idle) tile is always
                    // admitted, one that would join a queue already holding
                    // `admission_limit` waiters pool-wide is rejected.
                    let starts_now = !self.pool.states()[tile].running;
                    let admitted = starts_now || self.waiting_count() < self.admission_limit;
                    if state.recorder.enabled() {
                        state.recorder.record(obs::TraceEvent {
                            time_us: now_us,
                            dur_us: 0.0,
                            request_id: Some(info.request.id),
                            device: 0,
                            tile: None,
                            kind: obs::SpanKind::Admission { admitted },
                        });
                    }
                    if !admitted {
                        if state.recorder.enabled() {
                            state.recorder.record(obs::TraceEvent {
                                time_us: now_us,
                                dur_us: 0.0,
                                request_id: Some(info.request.id),
                                device: 0,
                                tile: None,
                                kind: obs::SpanKind::Reject,
                            });
                        }
                        state.rejected.push(RejectedRequest {
                            id: info.request.id,
                            kernel: info.request.kernel.shared_name(),
                            arrival_us: info.request.arrival_us,
                            deadline_us: info.request.deadline_us,
                        });
                        state.lane_series.note_reject(SloClass::Standard, now_us);
                        continue;
                    }
                    // Functional execution is placement-independent, so an
                    // admitted request's simulation is sourced right away:
                    // from the memo, from an identical in-flight run, or by
                    // spawning a job on the worker pool. The loop blocks for
                    // the cycle count only when a tile is about to run it.
                    let memo = state.profiler.begin();
                    let sourced = state.sim.source(index, info, &mut self.sim_memo);
                    state.profiler.end(obs::Stage::Memo, memo);
                    if state.recorder.enabled() {
                        match sourced {
                            SimSourced::Joined => {
                                state
                                    .recorder
                                    .counter(now_us, 0, obs::CounterName::MemoJoin)
                            }
                            SimSourced::MemoHit => {
                                state.recorder.counter(now_us, 0, obs::CounterName::MemoHit)
                            }
                            SimSourced::Spawned => {}
                        }
                    }
                    if starts_now {
                        self.start_request(tile, index, &intake, &mut state, None)?;
                    } else {
                        let scan = state.profiler.begin();
                        self.pool
                            .enqueue(tile, info.view.key, info.view.est_exec_us);
                        match &mut state.queues {
                            TileQueues::Indexed(queues) => queues[tile].push(index, &info.view),
                            TileQueues::Linear(queues) => queues[tile].push_back(index),
                        }
                        state.profiler.end(obs::Stage::Scan, scan);
                        state.peak_queue_depth = state.peak_queue_depth.max(self.waiting_count());
                    }
                }
                EventKind::TileFree { tile } => {
                    self.pool.release(tile);
                    if !state.queues.is_empty(tile) {
                        self.start_next(tile, &intake, &mut state)?;
                    }
                }
                // Fault injection is a cluster-tier feature; the
                // single-device runtime never schedules these.
                EventKind::Fault { .. } | EventKind::Requeue { .. } => {
                    unreachable!("fault events never reach the single-device loop")
                }
            }
        }

        if intake.is_empty() {
            return Err(RuntimeError::NoRequests);
        }
        let events_fired = state.events.fired();
        let outcomes: Vec<RequestOutcome> = state.outcome_slots.into_iter().flatten().collect();
        debug_assert_eq!(
            outcomes.len() + state.rejected.len(),
            intake.len(),
            "every submitted request is either served or rejected"
        );
        let mut recorder = state.recorder;
        // Assemble the windowed series (the makespan is the last event's
        // time — the final tile-free) and evaluate SLO burn against it, with
        // the burn alerts recorded as spans before the recorder drains.
        let telemetry = self.telemetry.is_enabled().then(|| {
            obs::TimeSeries::assemble(
                self.telemetry,
                state.last_event_us,
                self.pool.num_tiles(),
                &state.global_series,
                std::slice::from_ref(&state.lane_series),
            )
        });
        let slo = match (&telemetry, self.slo.is_enabled()) {
            (Some(series), true) => {
                let report = obs::evaluate_slo(series, &self.slo);
                obs::record_burn_spans(&mut recorder, &report);
                Some(report)
            }
            _ => None,
        };
        let trace = recorder.finish();
        // Hand the drained recorder (and its warm ring allocation) back to
        // the runtime for the next serve.
        self.trace_scratch = recorder;
        Ok(LoopOutput {
            outcomes,
            rejected: state.rejected,
            peak_queue_depth: state.peak_queue_depth,
            queue_area_us: state.queue_area_us,
            events_fired,
            batch: state.batcher.stats(),
            trace,
            profile: state.profiler.finish(),
            latency_hist: state.latency_hist,
            queue_depth_hist: state.queue_depth_hist,
            telemetry,
            slo,
        })
    }

    /// Pulls the next queued request off a free `tile`'s queue and starts
    /// it. Under [`ScanMode::Indexed`] the per-tile ordered queue pops the
    /// policy's choice in O(log depth); the linear reference materializes
    /// the dispatch views and scans, exactly as the pre-index runtime did.
    /// In both modes the [`Batcher`] sits over the policy's choice: it may
    /// run the oldest same-kernel waiter instead, amortizing the context
    /// switch the choice would have paid.
    fn start_next(
        &mut self,
        tile: usize,
        intake: &[InFlight],
        state: &mut OnlineState,
    ) -> Result<(), RuntimeError> {
        let now_us = state.events.now_us();
        let resident = self.pool.states()[tile].resident;
        let OnlineState {
            queues,
            taken,
            batcher,
            profiler,
            ..
        } = state;
        let scan = profiler.begin();
        let (index, remaining_tail) = match queues {
            TileQueues::Indexed(queues) => {
                let queue = &mut queues[tile];
                let choice = queue.peek_next(resident, taken);
                let index = batcher
                    .divert(
                        tile,
                        now_us,
                        resident,
                        &intake[choice].view,
                        intake[choice].request.arrival_us,
                        |key| {
                            queue
                                .oldest_for_kernel(key, taken)
                                .map(|i| (i, intake[i].view.est_exec_us))
                        },
                    )
                    .unwrap_or(choice);
                queue.take(index, taken);
                (index, queue.tail_key(taken))
            }
            TileQueues::Linear(queues) => {
                let queue = &mut queues[tile];
                let position = if self.dispatcher.policy().is_deadline_aware() {
                    let views: Vec<DispatchRequest> =
                        queue.iter().map(|&index| intake[index].view).collect();
                    self.dispatcher
                        .select_next(&self.pool.states()[tile], &views)
                } else {
                    0
                };
                let choice = queue[position];
                let position = batcher
                    .divert(
                        tile,
                        now_us,
                        resident,
                        &intake[choice].view,
                        intake[choice].request.arrival_us,
                        |key| {
                            queue
                                .iter()
                                .position(|&i| intake[i].view.key == key)
                                .map(|p| (p, intake[queue[p]].view.est_exec_us))
                        },
                    )
                    .unwrap_or(position);
                let index = queue
                    .remove(position)
                    .expect("selection returns a position inside the queue");
                (index, queue.back().map(|&i| intake[i].view.key))
            }
        };
        state.profiler.end(obs::Stage::Scan, scan);
        // Deadline-aware removal may have taken the queue tail; tell the
        // pool what the queue ends in now so residency projection stays
        // honest for later placements. The dequeue and the charge are one
        // combined pool transition (a single index update).
        let est_us = intake[index].view.est_exec_us;
        self.start_request(tile, index, intake, state, Some((est_us, remaining_tail)))
    }

    /// Commits request `index` to `tile` at the current virtual time: blocks
    /// for its measured cycle count, charges the tile's timeline with the
    /// switch + execution, records the outcome and schedules the tile-free
    /// event at the completion.
    fn start_request(
        &mut self,
        tile: usize,
        index: usize,
        intake: &[InFlight],
        state: &mut OnlineState,
        from_queue: Option<(f64, Option<KernelKey>)>,
    ) -> Result<(), RuntimeError> {
        let now_us = state.events.now_us();
        let info = &intake[index];
        let sim = state.profiler.begin();
        let run = state.sim.take(index, intake, &mut self.sim_memo)?;
        state.profiler.end(obs::Stage::Sim, sim);
        let exec_cycles = run.metrics().total_cycles + self.pool.roundtrip_cycles(tile);
        let exec_us = exec_cycles as f64 / info.fmax_mhz;
        let charged = match from_queue {
            Some((est_us, remaining_tail)) => self.pool.start_queued(
                tile,
                est_us,
                remaining_tail,
                info.view.key,
                now_us,
                info.view.switch_us,
                exec_us,
            ),
            None => self
                .pool
                .charge(tile, info.view.key, now_us, info.view.switch_us, exec_us),
        };
        state.batcher.note_start(tile, charged.switched);
        if state.recorder.enabled() {
            record_request_spans(
                &mut state.recorder,
                (0, tile),
                info,
                &charged,
                None,
                0.0,
                state.batcher.run_len(tile),
            );
        }
        state
            .latency_hist
            .record(charged.completion_us - info.request.arrival_us);
        state.lane_series.note_start(
            SloClass::Standard,
            charged.start_us,
            charged.completion_us,
            charged.completion_us - info.request.arrival_us,
            info.request
                .deadline_us
                .is_some_and(|deadline| charged.completion_us > deadline),
            false,
        );
        let request = &info.request;
        state.outcome_slots[index] = Some(RequestOutcome {
            request_id: request.id,
            kernel: request.kernel.shared_name(),
            device: 0,
            tile,
            sim: *run.metrics(),
            run,
            start_us: charged.start_us,
            queued_us: charged.start_us - request.arrival_us,
            completion_us: charged.completion_us,
            latency_us: charged.completion_us - request.arrival_us,
            switched: charged.switched,
            deadline_us: request.deadline_us,
            missed_deadline: request
                .deadline_us
                .is_some_and(|deadline| charged.completion_us > deadline),
        });
        state
            .events
            .push(charged.completion_us, EventKind::TileFree { tile });
        Ok(())
    }

    /// The per-serve facts every request's preparation shares.
    fn prep_context(&self) -> Result<PrepContext, RuntimeError> {
        PrepContext::for_pool(&self.pool)
    }

    /// Folds per-request outcomes and pool state into [`RuntimeMetrics`] —
    /// one pass over the outcomes for the counters and sums, selection (not
    /// a full sort) for the latency percentiles.
    fn aggregate(
        &self,
        output: &LoopOutput,
        cache: CacheStats,
        sim_memo: CacheStats,
    ) -> RuntimeMetrics {
        let outcomes = &output.outcomes;
        let requests = outcomes.len();
        let mut invocations = 0usize;
        let mut makespan_us = 0.0_f64;
        let mut latency_sum = 0.0_f64;
        let mut max_latency_us = 0.0_f64;
        let mut deadline_misses = 0usize;
        let mut deadline_requests = 0usize;
        let mut latencies: Vec<f64> = Vec::with_capacity(requests);
        for outcome in outcomes {
            invocations += outcome.sim.blocks;
            makespan_us = makespan_us.max(outcome.completion_us);
            latency_sum += outcome.latency_us;
            max_latency_us = max_latency_us.max(outcome.latency_us);
            deadline_misses += usize::from(outcome.missed_deadline);
            deadline_requests += usize::from(outcome.deadline_us.is_some());
            latencies.push(outcome.latency_us);
        }
        let mean_latency_us = latency_sum / requests.max(1) as f64;
        let p50_latency_us = metrics::percentile_by_selection(&mut latencies, 0.50);
        let p99_latency_us = metrics::percentile_by_selection(&mut latencies, 0.99);
        let per_second = if makespan_us > 0.0 {
            1.0e6 / makespan_us
        } else {
            0.0
        };
        let states = self.pool.states();
        RuntimeMetrics {
            requests,
            invocations,
            makespan_us,
            requests_per_sec: requests as f64 * per_second,
            invocations_per_sec: invocations as f64 * per_second,
            mean_latency_us,
            p50_latency_us,
            p99_latency_us,
            max_latency_us,
            switch_count: states.iter().map(|s| s.switches).sum(),
            total_switch_us: states.iter().map(|s| s.switch_us).sum(),
            tile_utilization: states
                .iter()
                .map(|s| {
                    if makespan_us > 0.0 {
                        s.busy_us / makespan_us
                    } else {
                        0.0
                    }
                })
                .collect(),
            tile_requests: states.iter().map(|s| s.served).collect(),
            cache,
            sim_memo,
            events_fired: output.events_fired,
            deadline_misses,
            deadline_requests,
            batch: output.batch,
            rejects: output.rejected.len(),
            rejected_deadlines: output
                .rejected
                .iter()
                .filter(|r| r.deadline_us.is_some())
                .count(),
            peak_queue_depth: output.peak_queue_depth,
            mean_queue_depth: if makespan_us > 0.0 {
                output.queue_area_us / makespan_us
            } else {
                0.0
            },
            tile_peak_queue: states.iter().map(|s| s.peak_queue_depth).collect(),
            latency_hist: output.latency_hist.clone(),
            queue_depth_hist: output.queue_depth_hist.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_dfg::evaluate_stream;
    use overlay_frontend::Benchmark;
    use overlay_sim::Workload;

    fn benchmark_trace(count: usize, blocks: usize) -> Vec<Request> {
        let suite = [
            Benchmark::Gradient,
            Benchmark::Chebyshev,
            Benchmark::Qspline,
            Benchmark::Poly5,
        ];
        (0..count)
            .map(|i| {
                let benchmark = suite[i % suite.len()];
                let spec = KernelSpec::from_benchmark(benchmark).unwrap();
                let inputs = benchmark.dfg().unwrap().num_inputs();
                let workload = Workload::random(inputs, blocks, 0xFEED ^ i as u64);
                Request::new(i as u64, spec, workload).at(i as f64 * 2.0)
            })
            .collect()
    }

    #[test]
    fn serving_matches_the_reference_evaluator_per_request() {
        let requests = benchmark_trace(12, 8);
        let mut runtime = Runtime::new(FuVariant::V3, 4).unwrap();
        let report = runtime.serve(requests.clone()).unwrap();
        assert_eq!(report.outcomes().len(), 12);
        for (request, outcome) in requests.iter().zip(report.outcomes()) {
            let dfg = request.kernel.dfg(&LowerOptions::default()).unwrap();
            let expected = evaluate_stream(&dfg, request.workload.records()).unwrap();
            assert_eq!(outcome.outputs(), expected, "request {}", request.id);
            assert_eq!(outcome.request_id, request.id);
            assert!(outcome.latency_us > 0.0);
            assert!(outcome.queued_us >= 0.0);
            assert!(outcome.start_us >= request.arrival_us);
        }
    }

    #[test]
    fn serve_is_deterministic_across_calls_and_policies_agree_functionally() {
        let requests = benchmark_trace(10, 6);
        let mut affinity = Runtime::new(FuVariant::V4, 4).unwrap();
        let mut round_robin = Runtime::new(FuVariant::V4, 4)
            .unwrap()
            .with_policy(DispatchPolicy::RoundRobin);
        let a1 = affinity.serve(requests.clone()).unwrap();
        let a2 = affinity.serve(requests.clone()).unwrap();
        let rr = round_robin.serve(requests).unwrap();
        let tiles = |report: &ServeReport| -> Vec<usize> {
            report.outcomes().iter().map(|o| o.tile).collect()
        };
        assert_eq!(tiles(&a1), tiles(&a2));
        assert_eq!(a1.metrics().makespan_us, a2.metrics().makespan_us);
        for (lhs, rhs) in a1.outcomes().iter().zip(rr.outcomes()) {
            assert_eq!(
                lhs.outputs(),
                rhs.outputs(),
                "placement must not change results"
            );
        }
    }

    #[test]
    fn serve_stream_from_a_live_producer_matches_the_batch_shim() {
        let requests = benchmark_trace(10, 4);
        let mut runtime = Runtime::new(FuVariant::V4, 3).unwrap();
        let batch = runtime.serve(requests.clone()).unwrap();
        let streamed = runtime
            .serve_stream(|submitter| {
                for request in &requests {
                    submitter.submit(request.clone()).unwrap();
                }
            })
            .unwrap();
        assert_eq!(batch.outcomes().len(), streamed.outcomes().len());
        for (lhs, rhs) in batch.outcomes().iter().zip(streamed.outcomes()) {
            assert_eq!(lhs.request_id, rhs.request_id);
            assert_eq!(lhs.tile, rhs.tile);
            assert_eq!(lhs.completion_us, rhs.completion_us);
            assert_eq!(lhs.outputs(), rhs.outputs());
        }
        assert_eq!(batch.metrics().makespan_us, streamed.metrics().makespan_us);
    }

    #[test]
    fn affinity_spends_less_switch_time_than_round_robin_on_writeback_tiles() {
        // 3 tiles against a 4-kernel cycle, so the round-robin stride never
        // aligns with the kernel period and it swaps on nearly every request.
        let requests = benchmark_trace(32, 4);
        let mut affinity = Runtime::new(FuVariant::V3, 3).unwrap();
        let mut round_robin = Runtime::new(FuVariant::V3, 3)
            .unwrap()
            .with_policy(DispatchPolicy::RoundRobin);
        let a = affinity.serve(requests.clone()).unwrap();
        let rr = round_robin.serve(requests).unwrap();
        assert!(
            a.metrics().total_switch_us < rr.metrics().total_switch_us,
            "affinity {} us vs round-robin {} us",
            a.metrics().total_switch_us,
            rr.metrics().total_switch_us
        );
        assert!(a.metrics().switch_count < rr.metrics().switch_count);
    }

    #[test]
    fn feed_forward_pools_charge_pcap_scale_switches() {
        // On a V1 pool every kernel swap costs ~1 ms of PCAP time, so the
        // 4-kernel round-robin trace pays milliseconds of switching.
        let requests = benchmark_trace(8, 4);
        let mut runtime = Runtime::new(FuVariant::V1, 2)
            .unwrap()
            .with_policy(DispatchPolicy::RoundRobin);
        let report = runtime.serve(requests.clone()).unwrap();
        assert!(
            report.metrics().total_switch_us > 1_000.0,
            "PCAP switches are on the millisecond scale, got {} us",
            report.metrics().total_switch_us
        );
        // The same trace on a V3 pool swaps in microseconds.
        let mut writeback = Runtime::new(FuVariant::V3, 2)
            .unwrap()
            .with_policy(DispatchPolicy::RoundRobin);
        let wb = writeback.serve(requests).unwrap();
        assert!(wb.metrics().total_switch_us < 100.0);
        assert!(wb.metrics().total_switch_us > 0.0);
    }

    #[test]
    fn cache_compiles_each_kernel_once_per_serve() {
        let requests = benchmark_trace(16, 4);
        let mut runtime = Runtime::new(FuVariant::V4, 4).unwrap();
        let report = runtime.serve(requests.clone()).unwrap();
        assert_eq!(report.metrics().cache.misses, 4, "4 distinct kernels");
        assert_eq!(report.metrics().cache.hits, 12);
        // Distinct workloads per request: every simulation actually ran.
        assert_eq!(report.metrics().sim_memo.misses, 16);
        assert_eq!(report.metrics().sim_memo.hits, 0);
        // A second serve of the same trace is all hits — compile cache *and*
        // simulation memo.
        let again = runtime.serve(requests).unwrap();
        assert_eq!(again.metrics().cache.misses, 0);
        assert_eq!(again.metrics().cache.hits, 16);
        assert_eq!(again.metrics().sim_memo.misses, 0);
        assert_eq!(again.metrics().sim_memo.hits, 16);
    }

    #[test]
    fn sim_memo_skips_repeat_simulations_without_changing_results() {
        // One kernel, one workload, repeated: the memoized runtime simulates
        // once; the memo-disabled runtime simulates every request. Outcomes
        // must be identical.
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let workload = Workload::random(5, 8, 42);
        let requests: Vec<Request> = (0..10)
            .map(|i| Request::new(i, spec.clone(), workload.clone()).at(i as f64 * 3.0))
            .collect();
        let mut memoized = Runtime::new(FuVariant::V4, 2).unwrap();
        let mut unmemoized = Runtime::new(FuVariant::V4, 2)
            .unwrap()
            .with_sim_memo_capacity(0);
        // A disabled memo also disables in-flight joins: a simultaneous
        // burst of identical requests must still simulate one per request.
        let burst: Vec<Request> = (0..6)
            .map(|i| {
                Request::new(
                    100 + i,
                    KernelSpec::from_benchmark(Benchmark::Gradient).unwrap(),
                    Workload::random(5, 8, 42),
                )
                .at(0.0)
            })
            .collect();
        let mut burst_runtime = Runtime::new(FuVariant::V4, 1)
            .unwrap()
            .with_sim_memo_capacity(0);
        let burst_report = burst_runtime.serve(burst).unwrap();
        assert_eq!(burst_report.metrics().sim_memo.misses, 6);
        assert_eq!(burst_report.metrics().sim_memo.hits, 0);
        let with_memo = memoized.serve(requests.clone()).unwrap();
        let without = unmemoized.serve(requests).unwrap();
        assert_eq!(with_memo.metrics().sim_memo.misses, 1, "one real sim");
        assert_eq!(with_memo.metrics().sim_memo.hits, 9);
        assert_eq!(without.metrics().sim_memo.misses, 10, "memo disabled");
        assert_eq!(without.metrics().sim_memo.hits, 0);
        assert_eq!(memoized.sim_memo().len(), 1);
        assert!(unmemoized.sim_memo().is_empty());
        for (lhs, rhs) in with_memo.outcomes().iter().zip(without.outcomes()) {
            assert_eq!(lhs.outputs(), rhs.outputs());
            assert_eq!(lhs.tile, rhs.tile);
            assert_eq!(lhs.completion_us, rhs.completion_us);
        }
    }

    #[test]
    fn identical_in_flight_requests_join_one_simulation() {
        // A blocker occupies the single tile, then a burst of identical
        // requests queues behind it: the first spawns a simulation that is
        // still in flight when the rest arrive, so they must join it (one
        // job, fanned out) rather than each spawning their own.
        let blocker = Request::new(
            0,
            KernelSpec::from_benchmark(Benchmark::Gradient).unwrap(),
            Workload::random(5, 32, 1),
        )
        .at(0.0);
        let spec = KernelSpec::from_benchmark(Benchmark::Chebyshev).unwrap();
        let workload = Workload::random(1, 16, 7);
        let mut requests = vec![blocker];
        requests.extend((1..=8).map(|i| Request::new(i, spec.clone(), workload.clone()).at(0.0)));
        let mut runtime = Runtime::new(FuVariant::V4, 1).unwrap();
        let report = runtime.serve(requests).unwrap();
        // Two real simulations: the blocker and one shared chebyshev run.
        assert_eq!(report.metrics().sim_memo.misses, 2);
        assert_eq!(report.metrics().sim_memo.hits, 7, "7 in-flight joins");
        let reference = &report.outcomes()[1].outputs();
        for outcome in &report.outcomes()[1..] {
            assert_eq!(&outcome.outputs(), reference);
        }
    }

    #[test]
    fn metrics_account_every_request_and_tile() {
        let requests = benchmark_trace(20, 5);
        let mut runtime = Runtime::new(FuVariant::V5, 4).unwrap();
        let report = runtime.serve(requests).unwrap();
        let metrics = report.metrics();
        assert_eq!(metrics.requests, 20);
        assert_eq!(metrics.invocations, 100);
        assert_eq!(metrics.tile_requests.iter().sum::<usize>(), 20);
        assert_eq!(metrics.rejects, 0);
        assert_eq!(metrics.deadline_requests, 0);
        assert_eq!(metrics.deadline_miss_rate(), 0.0);
        assert!(metrics.makespan_us > 0.0);
        assert!(metrics.requests_per_sec > 0.0);
        assert!(metrics.p50_latency_us <= metrics.p99_latency_us);
        assert!(metrics.p99_latency_us <= metrics.max_latency_us);
        assert!(metrics.mean_queue_depth >= 0.0);
        assert!(metrics.peak_queue_depth as f64 >= metrics.mean_queue_depth);
        assert_eq!(metrics.tile_peak_queue.len(), 4);
        assert_eq!(
            metrics.sim_memo.hits + metrics.sim_memo.misses,
            20,
            "every admitted request is a memo hit or a spawned simulation"
        );
        assert!(
            metrics.events_fired >= 40,
            "every served request fires an arrival and a tile-free event"
        );
        assert!(metrics
            .tile_utilization
            .iter()
            .all(|u| (0.0..=1.0 + 1e-9).contains(u)));
    }

    #[test]
    fn admission_limit_rejects_overflow_and_reports_it() {
        // 12 simultaneous arrivals on one tile with room for 2 waiting
        // requests: 1 runs, 2 wait, the rest are rejected.
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let requests: Vec<Request> = (0..12)
            .map(|i| Request::new(i, spec.clone(), Workload::random(5, 4, i)).at(0.0))
            .collect();
        let mut runtime = Runtime::new(FuVariant::V4, 1)
            .unwrap()
            .with_admission_limit(2);
        let report = runtime.serve(requests).unwrap();
        assert_eq!(report.outcomes().len(), 3);
        assert_eq!(report.rejected().len(), 9);
        assert_eq!(report.metrics().rejects, 9);
        assert!((report.metrics().reject_rate() - 0.75).abs() < 1e-12);
        assert_eq!(report.metrics().peak_queue_depth, 2);
        // Served and rejected ids partition the submitted ids.
        let mut ids: Vec<u64> = report
            .outcomes()
            .iter()
            .map(|o| o.request_id)
            .chain(report.rejected().iter().map(|r| r.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<u64>>());
    }

    #[test]
    fn zero_admission_limit_serves_idle_tiles_but_rejects_all_waiters() {
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let mut runtime = Runtime::new(FuVariant::V4, 1)
            .unwrap()
            .with_admission_limit(0);
        // Spaced arrivals on an idle tile never wait: all admitted, and the
        // queue-depth metrics report a genuinely empty queue.
        let spaced: Vec<Request> = (0..4)
            .map(|i| {
                Request::new(i, spec.clone(), Workload::random(5, 4, i)).at(i as f64 * 1_000_000.0)
            })
            .collect();
        let report = runtime.serve(spaced).unwrap();
        assert_eq!(report.outcomes().len(), 4);
        assert_eq!(report.metrics().rejects, 0);
        assert_eq!(report.metrics().peak_queue_depth, 0);
        assert_eq!(report.metrics().mean_queue_depth, 0.0);
        // A simultaneous burst: only the request that can start runs; the
        // shed deadline work is reported separately from misses.
        let burst: Vec<Request> = (0..5)
            .map(|i| {
                Request::new(i, spec.clone(), Workload::random(5, 4, i))
                    .at(0.0)
                    .with_deadline(1e9)
            })
            .collect();
        let report = runtime.serve(burst).unwrap();
        assert_eq!(report.outcomes().len(), 1);
        assert_eq!(report.metrics().rejects, 4);
        assert_eq!(report.metrics().rejected_deadlines, 4);
        assert_eq!(report.metrics().deadline_requests, 1);
        assert!(report.rejected().iter().all(|r| r.deadline_us == Some(1e9)));
    }

    #[test]
    fn edf_reorders_a_backlogged_queue_by_deadline() {
        // One tile; request 0 occupies it while 1..=4 queue up. The tight
        // deadline arrives last in FIFO order, so affinity misses it while
        // EDF runs it first.
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let workload = Workload::random(5, 64, 7);
        let mut requests: Vec<Request> = (0..4)
            .map(|i| Request::new(i, spec.clone(), workload.clone()).at(i as f64 * 0.01))
            .collect();
        // The per-request service time is far over 10 us, so the last-queued
        // request can only meet an (arrival + service + margin) deadline by
        // jumping the whole queue.
        let mut probe = Runtime::new(FuVariant::V4, 1).unwrap();
        let service_us = probe.serve(requests.clone()).unwrap().outcomes()[0].completion_us;
        requests.push(
            Request::new(4, spec.clone(), workload.clone())
                .at(0.05)
                .with_deadline(0.05 + 2.0 * service_us),
        );

        let mut affinity = Runtime::new(FuVariant::V4, 1).unwrap();
        let fifo = affinity.serve(requests.clone()).unwrap();
        assert_eq!(fifo.metrics().deadline_requests, 1);
        assert_eq!(fifo.metrics().deadline_misses, 1, "FIFO strands request 4");

        for policy in [
            DispatchPolicy::EarliestDeadlineFirst,
            DispatchPolicy::SlackAware,
        ] {
            let mut runtime = Runtime::new(FuVariant::V4, 1).unwrap().with_policy(policy);
            let report = runtime.serve(requests.clone()).unwrap();
            assert_eq!(
                report.metrics().deadline_misses,
                0,
                "{policy} must run the urgent request ahead of the backlog"
            );
            let urgent = report
                .outcomes()
                .iter()
                .find(|o| o.request_id == 4)
                .unwrap();
            assert!(urgent.queued_us < fifo.outcomes()[4].queued_us);
        }
    }

    #[test]
    fn changing_lower_options_invalidates_the_cache() {
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let requests = vec![Request::new(0, spec, Workload::ramp(5, 4))];
        let mut runtime = Runtime::new(FuVariant::V4, 1).unwrap();
        runtime.serve(requests.clone()).unwrap();
        assert_eq!(runtime.cache().len(), 1);
        assert_eq!(runtime.sim_memo().len(), 1);
        // The key does not encode lowering options, so swapping them must
        // drop the stale artifacts rather than serve them as hits.
        let mut runtime = runtime.with_lower_options(LowerOptions::default());
        assert!(runtime.cache().is_empty());
        assert!(runtime.sim_memo().is_empty());
        let report = runtime.serve(requests).unwrap();
        assert_eq!(report.metrics().cache.misses, 1);
        assert_eq!(report.metrics().sim_memo.misses, 1);
    }

    #[test]
    fn deadlines_are_checked_against_completion() {
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let workload = Workload::random(5, 16, 3);
        let requests = vec![
            Request::new(0, spec.clone(), workload.clone()).with_deadline(1e9),
            Request::new(1, spec, workload).with_deadline(1e-9),
        ];
        let mut runtime = Runtime::new(FuVariant::V4, 1).unwrap();
        let report = runtime.serve(requests).unwrap();
        assert!(!report.outcomes()[0].missed_deadline);
        assert!(report.outcomes()[1].missed_deadline);
        assert_eq!(report.metrics().deadline_misses, 1);
        assert_eq!(report.metrics().deadline_requests, 2);
        assert!((report.metrics().deadline_miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_traces_are_rejected() {
        let mut runtime = Runtime::new(FuVariant::V4, 2).unwrap();
        assert!(matches!(
            runtime.serve(Vec::new()),
            Err(RuntimeError::NoRequests)
        ));
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let bad = Request::new(9, spec.clone(), Workload::ramp(5, 2)).at(f64::NAN);
        assert!(matches!(
            runtime.serve(vec![bad]),
            Err(RuntimeError::InvalidArrival { request: 9, .. })
        ));
        // The online loop needs non-decreasing arrivals to be deterministic.
        let first = Request::new(0, spec.clone(), Workload::ramp(5, 2)).at(10.0);
        let stale = Request::new(1, spec, Workload::ramp(5, 2)).at(5.0);
        assert!(matches!(
            runtime.serve(vec![first, stale]),
            Err(RuntimeError::OutOfOrderArrival {
                request: 1,
                horizon_us: h,
                ..
            }) if h == 10.0
        ));
    }

    #[test]
    fn simulation_failures_surface_the_failing_request() {
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let good = Request::new(0, spec.clone(), Workload::ramp(5, 4));
        // Gradient takes 5 inputs; a 2-wide record is malformed.
        let bad = Request::new(1, spec, Workload::ramp(2, 4));
        let mut runtime = Runtime::new(FuVariant::V4, 2).unwrap();
        assert!(matches!(
            runtime.serve(vec![good, bad]),
            Err(RuntimeError::Sim(_))
        ));
    }

    #[test]
    fn the_sim_pool_spawns_at_the_first_serve_only_and_joins_on_drop() {
        let idle = Runtime::new(FuVariant::V4, 64).unwrap();
        let counts = idle.sim_pool.counts();
        drop(idle);
        assert_eq!(counts.spawned_live(), (0, 0), "a runtime that never serves");

        for (tiles, workers) in [(3, 3), (64, Runtime::MAX_SIM_WORKERS)] {
            let mut runtime = Runtime::new(FuVariant::V4, tiles).unwrap();
            let counts = runtime.sim_pool.counts();
            for _ in 0..4 {
                runtime.serve(benchmark_trace(8, 4)).unwrap();
            }
            for _ in 0..3 {
                runtime
                    .serve_stream(|submitter| {
                        for request in benchmark_trace(8, 4) {
                            submitter.submit(request).unwrap();
                        }
                    })
                    .unwrap();
            }
            // A failed serve keeps the pool too.
            let mut stale = benchmark_trace(3, 4);
            stale[2].arrival_us = 0.5;
            assert!(runtime.serve(stale).is_err());
            runtime.serve(benchmark_trace(8, 4)).unwrap();
            assert_eq!(counts.spawned_live(), (workers, workers));
            drop(runtime);
            assert_eq!(
                counts.spawned_live(),
                (workers, 0),
                "drop joins every worker"
            );
        }
    }

    #[test]
    fn random_workloads_are_deterministic_per_seed() {
        // The dispatcher and trace builders rely on this reproducibility.
        assert_eq!(Workload::random(4, 32, 11), Workload::random(4, 32, 11));
        assert_ne!(Workload::random(4, 32, 11), Workload::random(4, 32, 12));
    }
}
