//! The multi-device cluster tier: several NoC tile arrays ([`Device`]s)
//! behind one event loop, one [`Submitter`] and a device-routing layer.
//!
//! A [`Cluster`] scales the serving runtime past a single FPGA: each device
//! wraps its own [`TilePool`] (with its PR 3 residency index), its own
//! [`KernelCache`] acting as the device-local kernel-image store, and its
//! own [`Dispatcher`]. Every arrival is **routed** to a device by a
//! [`RoutePolicy`] (stable kernel-hash sharding, an O(log devices)
//! least-loaded index, or power-of-two-choices over completion estimates)
//! and then **placed** on a tile by that device's dispatcher, exactly as a
//! single [`Runtime`] would place it.
//!
//! Moving a kernel to a device that has never hosted it is not free: the
//! [`TransferModel`] charges either a host load (the "local cold load") or
//! an inter-device transfer from the nearest device already holding the
//! image — whichever is cheaper — and that acquisition delay is threaded
//! into the completion estimates routing and placement compare, and into
//! the switch phase the winning tile actually charges. Per-device
//! [`DeviceMetrics`] report utilization, queue depth, cache hit rate and
//! the transfer traffic; cluster totals reuse [`RuntimeMetrics`], with
//! latency percentiles rolled up through the sorted-run merge path
//! ([`metrics::percentile_from_sorted_parts`]) instead of re-sorting.
//!
//! A 1-device cluster is the degenerate case and reproduces [`Runtime`]'s
//! outcomes **bitwise** (`tests/runtime_equivalence.rs` proves it on
//! randomized traces): routing collapses to device 0, no image is ever
//! acquired (they enter the store at compile time), and the event loop
//! mirrors `Runtime`'s decision order exactly.
//!
//! # Example
//!
//! ```
//! use overlay_runtime::{Cluster, KernelSpec, Request, RoutePolicy};
//! use overlay_arch::FuVariant;
//! use overlay_sim::Workload;
//!
//! # fn main() -> Result<(), overlay_runtime::RuntimeError> {
//! let mut cluster = Cluster::new(FuVariant::V4, 2, 2)?
//!     .with_route_policy(RoutePolicy::KernelHash);
//!
//! let saxpy = KernelSpec::from_source("saxpy", "kernel saxpy(a, x, y) { out r = a * x + y; }");
//! let poly = KernelSpec::from_source("poly", "kernel poly(x) { out y = (x * x + 3) * x; }");
//! let trace: Vec<Request> = (0..8u64)
//!     .map(|i| {
//!         let (kernel, inputs) = if i % 2 == 0 { (saxpy.clone(), 3) } else { (poly.clone(), 1) };
//!         Request::new(i, kernel, Workload::ramp(inputs, 8)).at(i as f64)
//!     })
//!     .collect();
//!
//! let report = cluster.serve(trace)?;
//! assert_eq!(report.outcomes().len(), 8);
//! // Kernel-hash routing pins each kernel to one shard.
//! for outcome in report.outcomes() {
//!     assert!(outcome.device < 2);
//! }
//! assert_eq!(report.device_metrics().len(), 2);
//! # Ok(())
//! # }
//! ```

mod shard;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{mpsc, Arc};
use std::thread;

use overlay_arch::{FuVariant, ReconfigModel, TileComposition};
use overlay_frontend::LowerOptions;

use crate::cache::CacheStats;
use crate::control::{Batcher, Replicator};
use crate::dispatch::TileQueue;
use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultKind, FaultPlan, FaultState};
use crate::metrics::{self, BatchStats, DeviceMetrics, ReplicationStats, RuntimeMetrics};
use crate::obs;
use crate::pool::ChargeOutcome;
use crate::route::{
    cheapest_acquisition, kernel_home, kernel_home_eligible, least_loaded_eligible,
    power_of_two_pair, power_of_two_pair_eligible, Acquisition, ExclusionSet, RoutePolicy,
    TransferModel,
};
use crate::session::driver::{class_metrics_from, ArrivalAction, SessionDriver};
use crate::session::{
    PipelineOutcome, PipelineReport, PipelineRequest, ReorderBuffer, Session, SloClass,
};
use crate::{
    prepare_request, record_request_spans, BatchConfig, DispatchPolicy, DispatchRequest,
    Dispatcher, InFlight, Ingest, KernelCache, KernelKey, PrepContext, RejectedRequest,
    ReplicationConfig, Request, RequestOutcome, Runtime, RuntimeError, SimMemo, SimPool,
    SimResults, SimSourced, Submitter, TilePool,
};

/// One NoC tile array inside a [`Cluster`]: a [`TilePool`] (with its
/// residency index), the device-local kernel-image store, and the tile
/// dispatcher that places requests routed here.
#[derive(Debug)]
pub struct Device {
    id: usize,
    pool: TilePool,
    cache: KernelCache,
    dispatcher: Dispatcher,
    /// Tiles currently executing a request — the busy component of the
    /// cluster load index's per-device summary.
    busy_tiles: usize,
}

impl Device {
    /// The device id (its position on the linear inter-device link).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The device's tile pool (holding the state left by the last serve).
    pub fn pool(&self) -> &TilePool {
        &self.pool
    }

    /// The device-local kernel store (counters accumulate across serves).
    pub fn cache(&self) -> &KernelCache {
        &self.cache
    }

    /// The cluster load index's summary key for this device:
    /// `(waiting requests, busy tiles, id)` — least-loaded is the minimum.
    fn load_key(&self) -> (usize, usize, usize) {
        (self.pool.total_waiting(), self.busy_tiles, self.id)
    }

    fn enqueue(&mut self, tile: usize, key: KernelKey, est_us: f64) {
        self.pool.enqueue(tile, key, est_us);
    }

    fn charge(
        &mut self,
        tile: usize,
        key: KernelKey,
        arrival_us: f64,
        switch_us: f64,
        exec_us: f64,
    ) -> ChargeOutcome {
        self.busy_tiles += 1;
        self.pool.charge(tile, key, arrival_us, switch_us, exec_us)
    }

    #[allow(clippy::too_many_arguments)]
    fn start_queued(
        &mut self,
        tile: usize,
        est_us: f64,
        remaining_tail: Option<KernelKey>,
        key: KernelKey,
        arrival_us: f64,
        switch_us: f64,
        exec_us: f64,
    ) -> ChargeOutcome {
        self.busy_tiles += 1;
        self.pool.start_queued(
            tile,
            est_us,
            remaining_tail,
            key,
            arrival_us,
            switch_us,
            exec_us,
        )
    }

    fn release(&mut self, tile: usize) {
        self.busy_tiles -= 1;
        self.pool.release(tile);
    }
}

/// The result of one cluster serve: per-request outcomes (with their device
/// ids, in submission order), admission rejects, cluster-total
/// [`RuntimeMetrics`] and the per-device [`DeviceMetrics`] breakdown.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    policy: DispatchPolicy,
    route: RoutePolicy,
    outcomes: Vec<RequestOutcome>,
    rejected: Vec<RejectedRequest>,
    metrics: RuntimeMetrics,
    devices: Vec<DeviceMetrics>,
    replication: ReplicationStats,
    trace: Option<obs::Trace>,
    profile: Option<obs::ProfileStats>,
    telemetry: Option<obs::TimeSeries>,
    slo: Option<obs::SloReport>,
}

impl ClusterReport {
    /// Per-request outcomes of every *admitted* request, in submission
    /// order. Each outcome's [`device`](RequestOutcome::device) records the
    /// routing decision; [`tile`](RequestOutcome::tile) is device-local.
    pub fn outcomes(&self) -> &[RequestOutcome] {
        &self.outcomes
    }

    /// Requests rejected by admission control, in submission order.
    pub fn rejected(&self) -> &[RejectedRequest] {
        &self.rejected
    }

    /// Cluster-total serving metrics (per-tile vectors are device-major
    /// concatenations across the cluster).
    pub fn metrics(&self) -> &RuntimeMetrics {
        &self.metrics
    }

    /// The per-device metrics breakdown, indexed by device id.
    pub fn device_metrics(&self) -> &[DeviceMetrics] {
        &self.devices
    }

    /// The tile-dispatch policy that produced this report.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// The device-routing policy that produced this report.
    pub fn route_policy(&self) -> RoutePolicy {
        self.route
    }

    /// Total kernel images moved over the inter-device link.
    pub fn transfers(&self) -> usize {
        self.devices.iter().map(|d| d.transfers_in).sum()
    }

    /// Total bytes moved over the inter-device link.
    pub fn transfer_bytes(&self) -> u64 {
        self.devices.iter().map(|d| d.transfer_bytes_in).sum()
    }

    /// Total kernel images loaded from the host (local cold loads).
    pub fn host_loads(&self) -> usize {
        self.devices.iter().map(|d| d.host_loads).sum()
    }

    /// Total requests displaced off dead or draining devices and sent back
    /// through routing (0 on a fault-free serve).
    pub fn requeues(&self) -> usize {
        self.devices.iter().map(|d| d.requeues_out).sum()
    }

    /// Total started-but-abandoned execution time destroyed by device
    /// kills, in virtual microseconds (0 on a fault-free serve).
    pub fn lost_work_us(&self) -> f64 {
        self.devices.iter().map(|d| d.lost_work_us).sum()
    }

    /// Total faults (kills + drains) that hit the fleet during the serve.
    pub fn faults(&self) -> usize {
        self.devices.iter().map(|d| d.faults).sum()
    }

    /// Per-device availability — the fraction of the serve's makespan each
    /// device was alive and admitting, indexed by device id (all 1.0 on a
    /// fault-free serve).
    pub fn availability(&self) -> Vec<f64> {
        self.devices.iter().map(|d| d.availability).collect()
    }

    /// The replication layer's counters for this serve (all zero while
    /// replication is disabled, the default).
    pub fn replication(&self) -> ReplicationStats {
        self.replication
    }

    /// The recorded trace, when the serve ran with
    /// [`Cluster::with_tracing`] enabled.
    pub fn trace(&self) -> Option<&obs::Trace> {
        self.trace.as_ref()
    }

    /// Per-stage host-time attribution, when the serve ran with
    /// [`Cluster::with_profiling`] enabled.
    pub fn profile(&self) -> Option<&obs::ProfileStats> {
        self.profile.as_ref()
    }

    /// The windowed time-series over the serve's virtual timeline, when the
    /// serve ran with [`Cluster::with_telemetry`] enabled.
    pub fn telemetry(&self) -> Option<&obs::TimeSeries> {
        self.telemetry.as_ref()
    }

    /// SLO burn-rate evaluation of the telemetry series, when the serve ran
    /// with both [`Cluster::with_telemetry`] and [`Cluster::with_slo`]
    /// enabled.
    pub fn slo(&self) -> Option<&obs::SloReport> {
        self.slo.as_ref()
    }
}

/// Mutable event-loop state (the cluster mirror of the runtime's
/// `OnlineState`), separate from the `Cluster` so placement and bookkeeping
/// borrows stay disjoint.
struct ClusterState {
    /// Per-tile waiting queues, indexed by global tile id
    /// (`device * tiles_per_device + local`).
    queues: Vec<TileQueue>,
    taken: Vec<bool>,
    events: EventQueue,
    outcome_slots: Vec<Option<RequestOutcome>>,
    rejected: Vec<RejectedRequest>,
    sim: SimResults,
    /// The same-kernel batching layer, indexed by global tile id (a no-op
    /// at the default `max_batch = 1`).
    batcher: Batcher,
    /// The rate-driven replication layer (a no-op at the default fanout 0).
    replicator: Replicator,
    peak_queue_depth: usize,
    queue_area_us: f64,
    last_event_us: f64,
    /// Per intake index: the acquisition delay resolved at the arrival
    /// event, charged ahead of the context switch at start.
    acquire_us: Vec<f64>,
    /// Per device: high-water mark of that device's waiting count.
    device_peak_queue: Vec<usize>,
    /// Per device: requests routed here but shed by admission control.
    device_rejects: Vec<usize>,
    /// Per device: inter-device image transfers in (count, bytes).
    device_transfers: Vec<(usize, u64)>,
    /// Per device: host image loads.
    device_host_loads: Vec<usize>,
    /// The span recorder (inert at the default disabled config).
    recorder: obs::TraceRecorder,
    /// The host-time stage profiler (inert unless profiling is on).
    profiler: obs::StageProfiler,
    /// Cluster-wide queue depth sampled at every event pop.
    queue_depth_hist: obs::LogHistogram,
    /// Per device: latency histogram recorded at charge time, merged into
    /// the cluster total through the histogram merge path.
    device_latency_hists: Vec<obs::LogHistogram>,
    /// Per intake index: the committed acquisition's `(source, bytes)`,
    /// carried to the start event for the trace's acquire span.
    acquire_src: Vec<(&'static str, u64)>,
    /// Per intake index: devices this request was displaced off by a fault
    /// — routing avoids them while any other serviceable device exists.
    /// Empty (and never consulted) on a fault-free serve.
    exclusions: Vec<ExclusionSet>,
    /// Per global tile: the intake index currently running there.
    /// Maintained only under a fault plan (kills must know what to
    /// abandon).
    running_index: Vec<Option<usize>>,
    /// Per global tile: the completion time of the run the tile is waiting
    /// on. Under a fault plan, a tile-free event that does not match is a
    /// stale completion of evacuated work and is dropped.
    pending_free: Vec<Option<f64>>,
    /// The session tier's driver, present only on the
    /// [`Cluster::serve_pipelines`] multi-stage path. `None` — every other
    /// serve — keeps each session branch off the hot path.
    session: Option<SessionDriver>,
    /// Per intake index: the inter-stage activation delay priced at the
    /// routing commit, charged ahead of the context switch at start. All
    /// zero (and bitwise-free at the charge sites) without a session
    /// driver.
    activation_us: Vec<f64>,
    /// Per device: the windowed-telemetry lane partition (inert at the
    /// default disabled config). Request commits accumulate in per-device
    /// serial order — identical between this loop and the device's shard
    /// lane, the bitwise sharded-equivalence property.
    lane_series: Vec<obs::LaneSeries>,
    /// The cross-device queue-depth integral, accumulated in serial event
    /// order (the sharded loop replays it in its commit stage).
    global_series: obs::GlobalSeries,
}

/// What the cluster event loop hands back for aggregation.
struct ClusterLoopOutput {
    outcomes: Vec<RequestOutcome>,
    rejected: Vec<RejectedRequest>,
    peak_queue_depth: usize,
    queue_area_us: f64,
    events_fired: u64,
    batch: BatchStats,
    replication: ReplicationStats,
    device_peak_queue: Vec<usize>,
    device_rejects: Vec<usize>,
    device_transfers: Vec<(usize, u64)>,
    device_host_loads: Vec<usize>,
    trace: Option<obs::Trace>,
    profile: Option<obs::ProfileStats>,
    queue_depth_hist: obs::LogHistogram,
    device_latency_hists: Vec<obs::LogHistogram>,
    telemetry: Option<obs::TimeSeries>,
    slo: Option<obs::SloReport>,
}

/// A multi-device serving cluster over one overlay variant.
///
/// See the [module-level documentation](self) for the moving parts and an
/// end-to-end example. The builder methods mirror [`Runtime`]'s; a
/// 1-device cluster behaves bitwise identically to the equivalent
/// `Runtime`.
#[derive(Debug)]
pub struct Cluster {
    devices: Vec<Device>,
    route: RoutePolicy,
    transfer: TransferModel,
    sim_memo: SimMemo,
    reconfig: ReconfigModel,
    lower: LowerOptions,
    ingest_capacity: usize,
    admission_limit: usize,
    batching: BatchConfig,
    replication: ReplicationConfig,
    tracing: obs::TraceConfig,
    /// Recorder kept across serves so the ring's backing allocation (and
    /// its warmed pages) amortize instead of being re-faulted per serve —
    /// same idiom as `Runtime::trace_scratch`.
    trace_scratch: obs::TraceRecorder,
    profiling: bool,
    tiles_per_device: usize,
    /// Ordered `(waiting, busy, device)` summaries — `first()` is the
    /// least-loaded device, the device-tier mirror of the pool residency
    /// index's per-kernel "best" entries.
    load_index: BTreeSet<(usize, usize, usize)>,
    /// Host-thread budget for sharded batch serves
    /// ([`Cluster::with_threads`]); 1 keeps the serial loop.
    threads: usize,
    /// Whether a past serve may have adopted a kernel image into a store
    /// other than the kernel's home shard (dynamic routing or replication
    /// on a multi-device cluster). The sharded loop assumes images live
    /// only on their home shards, so this poisons its eligibility until
    /// the stores are rebuilt.
    cross_shard_images: bool,
    /// The installed fault schedule, if any ([`Cluster::with_fault_plan`]).
    fault_plan: Option<FaultPlan>,
    /// Per-serve fault state (fleet flags + availability accounting),
    /// rebuilt from the plan at the start of every serve. `None` — the
    /// default — keeps every fault branch off the hot path.
    fault: Option<FaultState>,
    /// Whether pipeline routing may keep a stage near its producer's
    /// output ([`Cluster::with_stage_affinity`]). Only consulted on the
    /// [`Cluster::serve_pipelines`] multi-stage path.
    stage_affinity: bool,
    /// The session driver staged for (and recovered from) the event loop
    /// on a pipeline serve. Always `None` between serves.
    session_driver: Option<SessionDriver>,
    /// Windowed-telemetry configuration (off by default).
    telemetry: obs::TelemetryConfig,
    /// SLO burn-rate objectives (off by default; needs telemetry).
    slo: obs::SloConfig,
    /// The sim workers every serial serve deals its jobs to, spawned at the
    /// first serve and joined when the cluster drops. Sharded lanes run
    /// pools of their own.
    sim_pool: SimPool,
}

impl Cluster {
    /// A cluster of `devices` identical arrays, each a single-row NoC of
    /// `tiles_per_device` parallel-composition tiles of `variant`, using
    /// kernel-affinity tile dispatch and kernel-hash device routing.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::EmptyCluster`] when `devices` is 0 and
    /// [`RuntimeError::EmptyPool`] when `tiles_per_device` is 0.
    pub fn new(
        variant: FuVariant,
        devices: usize,
        tiles_per_device: usize,
    ) -> Result<Self, RuntimeError> {
        if devices == 0 {
            return Err(RuntimeError::EmptyCluster);
        }
        let devices: Vec<Device> = (0..devices)
            .map(|id| {
                Ok(Device {
                    id,
                    pool: TilePool::with_tiles(
                        variant,
                        TileComposition::Parallel,
                        tiles_per_device,
                    )?,
                    cache: KernelCache::new(Runtime::DEFAULT_CACHE_CAPACITY)
                        .expect("default capacity is non-zero"),
                    dispatcher: Dispatcher::default(),
                    busy_tiles: 0,
                })
            })
            .collect::<Result<_, RuntimeError>>()?;
        let sim_workers = (devices.len() * tiles_per_device).clamp(1, Runtime::MAX_SIM_WORKERS);
        let mut cluster = Cluster {
            devices,
            route: RoutePolicy::default(),
            transfer: TransferModel::default(),
            sim_memo: SimMemo::new(Runtime::DEFAULT_SIM_MEMO_CAPACITY),
            reconfig: ReconfigModel::new(),
            lower: LowerOptions::default(),
            ingest_capacity: Runtime::DEFAULT_INGEST_CAPACITY,
            admission_limit: usize::MAX,
            batching: BatchConfig::disabled(),
            replication: ReplicationConfig::disabled(),
            tracing: obs::TraceConfig::disabled(),
            trace_scratch: obs::TraceRecorder::new(obs::TraceConfig::disabled()),
            profiling: false,
            tiles_per_device,
            load_index: BTreeSet::new(),
            threads: 1,
            cross_shard_images: false,
            fault_plan: None,
            fault: None,
            stage_affinity: true,
            session_driver: None,
            telemetry: obs::TelemetryConfig::disabled(),
            slo: obs::SloConfig::disabled(),
            sim_pool: SimPool::new(variant, sim_workers),
        };
        cluster.rebuild_load_index();
        Ok(cluster)
    }

    /// Sets the tile-dispatch policy used inside every device.
    #[must_use]
    pub fn with_policy(mut self, policy: DispatchPolicy) -> Self {
        for device in &mut self.devices {
            device.dispatcher = Dispatcher::new(policy);
        }
        self
    }

    /// Sets the device-routing policy.
    #[must_use]
    pub fn with_route_policy(mut self, route: RoutePolicy) -> Self {
        self.route = route;
        self
    }

    /// Overrides the inter-device/host transfer timing model.
    #[must_use]
    pub fn with_transfer_model(mut self, transfer: TransferModel) -> Self {
        self.transfer = transfer;
        self
    }

    /// Replaces every device's kernel store with one of `capacity` entries.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ZeroCacheCapacity`] when `capacity` is 0.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Result<Self, RuntimeError> {
        for device in &mut self.devices {
            device.cache = KernelCache::new(capacity)?;
        }
        // Fresh stores hold no cross-shard images.
        self.cross_shard_images = false;
        Ok(self)
    }

    /// Replaces the (cluster-shared) simulation memo with one of `capacity`
    /// entries. A capacity of 0 disables memoization *and* in-flight
    /// deduplication — every request simulates.
    #[must_use]
    pub fn with_sim_memo_capacity(mut self, capacity: usize) -> Self {
        self.sim_memo = SimMemo::new(capacity);
        self
    }

    /// Sets the bound of the streaming ingest channel.
    #[must_use]
    pub fn with_ingest_capacity(mut self, capacity: usize) -> Self {
        self.ingest_capacity = capacity;
        self
    }

    /// Sets the cluster-wide admission-control limit on *waiting* requests
    /// (same semantics as [`Runtime::with_admission_limit`]: an arrival that
    /// starts immediately on its routed tile is always admitted).
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

    /// Configures the same-kernel batching layer on every device's tiles
    /// (same semantics as [`Runtime::with_batching`]).
    #[must_use]
    pub fn with_batching(mut self, config: BatchConfig) -> Self {
        self.batching = config;
        self
    }

    /// Configures rate-driven kernel replication: hot kernels (by the
    /// per-kernel EWMA the routing tier feeds) have their images pushed to
    /// the least-loaded devices ahead of demand, and cold pushed replicas
    /// are demoted under store pressure. Disabled by default.
    #[must_use]
    pub fn with_replication(mut self, config: ReplicationConfig) -> Self {
        self.replication = config;
        self
    }

    /// Configures request-span tracing (same semantics as
    /// [`Runtime::with_tracing`]): disabled by default, and disabled is
    /// bitwise-free. The recorded [`Trace`](obs::Trace) comes back on
    /// [`ClusterReport::trace`].
    #[must_use]
    pub fn with_tracing(mut self, config: obs::TraceConfig) -> Self {
        self.tracing = config;
        self.trace_scratch = obs::TraceRecorder::new(config);
        self
    }

    /// Enables host-time stage profiling (same semantics as
    /// [`Runtime::with_profiling`]); the attribution comes back on
    /// [`ClusterReport::profile`].
    #[must_use]
    pub fn with_profiling(mut self, enabled: bool) -> Self {
        self.profiling = enabled;
        self
    }

    /// Configures windowed telemetry (same semantics as
    /// [`Runtime::with_telemetry`]): disabled by default, and disabled is
    /// bitwise-free. The [`TimeSeries`](obs::TimeSeries) comes back on
    /// [`ClusterReport::telemetry`], accumulated identically by the serial
    /// and sharded ([`Cluster::with_threads`]) loops.
    #[must_use]
    pub fn with_telemetry(mut self, config: obs::TelemetryConfig) -> Self {
        self.telemetry = config;
        self
    }

    /// Configures SLO burn-rate objectives (same semantics as
    /// [`Runtime::with_slo`]; needs [`Cluster::with_telemetry`]). The
    /// tracking comes back on [`ClusterReport::slo`], with burn alerts
    /// recorded as [`SloBurn`](obs::SpanKind::SloBurn) /
    /// [`SloClear`](obs::SpanKind::SloClear) trace spans when tracing is on.
    #[must_use]
    pub fn with_slo(mut self, config: obs::SloConfig) -> Self {
        self.slo = config;
        self
    }

    /// Installs a [`FaultPlan`]: its events are scheduled into the serve's
    /// virtual timeline and the loop reacts as they fire — kills displace
    /// and requeue work with the dead device excluded, drains stop
    /// admission but finish resident work, revivals rejoin routing, link
    /// degradation reprices transfers. The plan is validated at serve time
    /// ([`RuntimeError::InvalidFaultPlan`] on a bad schedule). No plan —
    /// the default — leaves the serve bitwise identical to a fault-free
    /// build.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Enables or disables stage-affinity routing for pipeline serves
    /// (**on** by default): when a pipeline stage's inputs live on a
    /// device other than the one routing picked, the cluster may override
    /// the choice with the producer of the heaviest input — if the
    /// activation-transfer savings outweigh the estimated extra queueing
    /// there. Plain [`serve`](Cluster::serve) traffic is unaffected either
    /// way.
    #[must_use]
    pub fn with_stage_affinity(mut self, enabled: bool) -> Self {
        self.stage_affinity = enabled;
        self
    }

    /// Whether stage-affinity routing is enabled for pipeline serves.
    pub fn stage_affinity(&self) -> bool {
        self.stage_affinity
    }

    /// Shards batch serves across up to `threads` host threads, one event
    /// lane per device, with a serial commit stage merging the lanes back
    /// into the exact single-threaded event order (see [`shard`](self)'s
    /// module notes). `threads = 1` — the default — keeps the serial loop.
    ///
    /// The sharded loop engages only when it can prove the lanes are
    /// independent: more than one device, static kernel-hash routing, no
    /// admission limit, replication off, and no store holding another
    /// shard's image from an earlier dynamically-routed serve. Any other
    /// configuration (and every streaming serve) falls back to the serial
    /// loop, so results are identical either way; the output is also
    /// deterministic across runs and across `threads` values.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the front-end lowering options, clearing every device's
    /// kernel store and the simulation memo (cached artifacts were compiled
    /// under the old options).
    #[must_use]
    pub fn with_lower_options(mut self, options: LowerOptions) -> Self {
        self.lower = options;
        for device in &mut self.devices {
            device.cache.clear();
        }
        self.sim_memo.clear();
        // Cleared stores hold no cross-shard images.
        self.cross_shard_images = false;
        self
    }

    /// The overlay variant all devices are built from.
    pub fn variant(&self) -> FuVariant {
        self.devices[0].pool.variant()
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Tiles on each device.
    pub fn tiles_per_device(&self) -> usize {
        self.tiles_per_device
    }

    /// Total tiles across the cluster.
    pub fn total_tiles(&self) -> usize {
        self.num_devices() * self.tiles_per_device
    }

    /// The active tile-dispatch policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.devices[0].dispatcher.policy()
    }

    /// The active device-routing policy.
    pub fn route_policy(&self) -> RoutePolicy {
        self.route
    }

    /// The active transfer model.
    pub fn transfer_model(&self) -> TransferModel {
        self.transfer
    }

    /// The cluster-wide admission-control limit on waiting requests.
    pub fn admission_limit(&self) -> usize {
        self.admission_limit
    }

    /// The active same-kernel batching configuration.
    pub fn batching(&self) -> BatchConfig {
        self.batching
    }

    /// The active replication configuration.
    pub fn replication_config(&self) -> ReplicationConfig {
        self.replication
    }

    /// The active tracing configuration.
    pub fn tracing(&self) -> obs::TraceConfig {
        self.tracing
    }

    /// Whether host-time stage profiling is on.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// The configured host-thread budget for sharded batch serves.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The devices (holding the state left by the last serve).
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The shared simulation memo (counters accumulate across serves).
    pub fn sim_memo(&self) -> &SimMemo {
        &self.sim_memo
    }

    /// Serves a pre-collected trace, exactly as
    /// [`serve_stream`](Cluster::serve_stream) would serve it live (same
    /// semantics as [`Runtime::serve`]).
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] for an empty trace, invalid or
    /// out-of-order arrival times, or any compile/simulation failure.
    pub fn serve<I>(&mut self, requests: I) -> Result<ClusterReport, RuntimeError>
    where
        I: IntoIterator<Item = Request>,
    {
        let requests: Vec<Request> = requests.into_iter().collect();
        if self.sharded_eligible() {
            return self.serve_sharded(requests);
        }
        self.run_serve(
            Ingest::Batch(requests.into_iter()),
            None::<(fn(Submitter), _)>,
        )
    }

    /// Whether a batch serve takes the sharded (parallel) event loop: a
    /// thread budget above 1 and a configuration where device lanes are
    /// provably independent — several devices, static kernel-hash routing
    /// (the only cross-shard edge is then the submission schedule),
    /// unlimited admission (admission reads the cluster-wide waiting
    /// count), replication off (a push writes a foreign store mid-serve),
    /// and no store poisoned with another shard's image by an earlier
    /// dynamically-routed serve.
    fn sharded_eligible(&self) -> bool {
        self.threads > 1
            && self.num_devices() > 1
            && self.route.is_statically_sharded()
            && self.admission_limit == usize::MAX
            && !self.replication.enabled()
            && !self.cross_shard_images
            && self.fault_plan.is_none()
    }

    /// Serves a live request stream through a [`Submitter`] (same contract
    /// as [`Runtime::serve_stream`]: non-decreasing arrival order, bounded
    /// ingest backpressure, the serve ends when `feed` returns).
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] when nothing was submitted, for invalid
    /// or out-of-order arrival times, or for any compile/simulation
    /// failure.
    pub fn serve_stream<F>(&mut self, feed: F) -> Result<ClusterReport, RuntimeError>
    where
        F: FnOnce(Submitter) + Send,
    {
        let (ingest_tx, ingest_rx) = mpsc::sync_channel::<Arc<Request>>(self.ingest_capacity);
        self.run_serve(Ingest::Stream(ingest_rx), Some((feed, ingest_tx)))
    }

    /// Serves a batch of multi-kernel [`PipelineRequest`]s under tenant
    /// [`Session`]s (see the [`session`](crate::session) module docs): each
    /// pipeline's DAG is validated up front, its stages flow through the
    /// normal route/admit/place machinery with dependency parking, stage
    /// affinity, [`TransferModel`]-priced inter-stage activations and
    /// weighted-fair SLO admission, and the outcomes commit in submission
    /// order per session through a reorder buffer.
    ///
    /// A pipeline naming a session absent from `sessions` runs as
    /// [`SloClass::Standard`]. A batch of single-stage pipelines under
    /// all-standard sessions lowers onto the unchanged
    /// [`serve`](Cluster::serve) path — bitwise identical to serving the
    /// plain requests.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidPipeline`] for a malformed DAG,
    /// [`RuntimeError::NoRequests`] for an empty batch, and any
    /// compile/simulation failure the underlying serve can raise.
    pub fn serve_pipelines(
        &mut self,
        pipelines: Vec<PipelineRequest>,
        sessions: &[Session],
    ) -> Result<PipelineReport, RuntimeError> {
        if pipelines.is_empty() {
            return Err(RuntimeError::NoRequests);
        }
        let mut topos = Vec::with_capacity(pipelines.len());
        for pipeline in &pipelines {
            topos.push(pipeline.validate()?);
        }
        let slo_of: BTreeMap<u64, SloClass> = sessions
            .iter()
            .map(|session| (session.id, session.slo))
            .collect();
        let all_plain = pipelines.iter().all(|pipeline| {
            pipeline.is_single_stage()
                && slo_of.get(&pipeline.session).copied().unwrap_or_default() == SloClass::Standard
        });
        if all_plain {
            return self.serve_single_stage_pipelines(&pipelines, &slo_of);
        }
        let (driver, requests) =
            SessionDriver::build(&pipelines, &topos, &slo_of, self.stage_affinity);
        self.session_driver = Some(driver);
        let result = self.run_serve(
            Ingest::Batch(requests.into_iter()),
            None::<(fn(Submitter), _)>,
        );
        // The loop hands the driver back through `self` on success; an
        // error drops it (there is no report to build).
        let driver = self.session_driver.take();
        let cluster = result?;
        let driver = driver.expect("a completed pipeline serve hands its driver back");
        debug_assert_eq!(driver.in_flight(), 0, "every pipeline's fate is sealed");
        let (pipelines, stages, classes) = driver.into_report();
        Ok(PipelineReport {
            cluster,
            pipelines,
            stages,
            classes,
        })
    }

    /// The all-single-stage, all-standard fast path of
    /// [`serve_pipelines`](Cluster::serve_pipelines): lowers each pipeline
    /// to its plain [`Request`] and runs the unchanged
    /// [`serve`](Cluster::serve) — including its sharded loop — then
    /// rebuilds the pipeline-level view from the plain report. This is the
    /// path the equivalence proptests pin bitwise against PR-8 serving.
    fn serve_single_stage_pipelines(
        &mut self,
        pipelines: &[PipelineRequest],
        slo_of: &BTreeMap<u64, SloClass>,
    ) -> Result<PipelineReport, RuntimeError> {
        let requests: Vec<Request> = pipelines
            .iter()
            .map(PipelineRequest::lower_to_request)
            .collect();
        let cluster = self.serve(requests)?;
        // Completions by request id, in submission order per id — caller
        // ids need not be unique, so each id keys a FIFO of completions.
        let mut completions: BTreeMap<u64, std::collections::VecDeque<f64>> = BTreeMap::new();
        for outcome in cluster.outcomes() {
            completions
                .entry(outcome.request_id)
                .or_default()
                .push_back(outcome.completion_us);
        }
        let mut rob = ReorderBuffer::new(pipelines.len());
        for (index, pipeline) in pipelines.iter().enumerate() {
            rob.push(pipeline.session, index);
        }
        let mut outcomes: Vec<PipelineOutcome> = pipelines
            .iter()
            .map(|pipeline| {
                let slo = slo_of.get(&pipeline.session).copied().unwrap_or_default();
                let finish = completions
                    .get_mut(&pipeline.id)
                    .and_then(std::collections::VecDeque::pop_front);
                PipelineOutcome {
                    id: pipeline.id,
                    session: pipeline.session,
                    slo,
                    arrival_us: pipeline.arrival_us,
                    finish_us: finish.unwrap_or(pipeline.arrival_us),
                    commit_us: pipeline.arrival_us,
                    stages: 1,
                    completed_stages: usize::from(finish.is_some()),
                    rejected: finish.is_none(),
                    transfers: 0,
                    transfer_us: 0.0,
                    deadline_us: pipeline.deadline_us,
                    missed_deadline: false,
                }
            })
            .collect();
        // Feeding finishes in submission order retires each pipeline as
        // the head of its session's run: commit = max(finish, previous
        // commit in the session).
        for index in 0..outcomes.len() {
            let (session, finish) = (outcomes[index].session, outcomes[index].finish_us);
            for (retired, commit_us) in rob.finish(session, index, finish) {
                outcomes[retired].commit_us = commit_us;
            }
        }
        for outcome in &mut outcomes {
            outcome.missed_deadline = !outcome.rejected
                && outcome
                    .deadline_us
                    .is_some_and(|deadline| outcome.commit_us > deadline);
        }
        let mut samples: Vec<f64> = outcomes
            .iter()
            .filter(|outcome| !outcome.rejected)
            .map(|outcome| outcome.finish_us - outcome.arrival_us)
            .collect();
        let stages = vec![metrics::StageMetrics::from_samples(0, &mut samples, 0, 0.0)];
        let classes = class_metrics_from(&outcomes);
        Ok(PipelineReport {
            cluster,
            pipelines: outcomes,
            stages,
            classes,
        })
    }

    /// The cluster-wide waiting count (what admission control bounds and
    /// the queue-area integrand): O(devices) over the per-pool O(1)
    /// counters.
    fn waiting_count(&self) -> usize {
        self.devices.iter().map(|d| d.pool.total_waiting()).sum()
    }

    fn rebuild_load_index(&mut self) {
        self.load_index = self.devices.iter().map(Device::load_key).collect();
    }

    /// Applies `mutate` to one device, keeping the cluster load index
    /// coherent around the transition — the device-tier mirror of the
    /// pool's `transition`.
    fn with_load_update<R>(&mut self, device: usize, mutate: impl FnOnce(&mut Device) -> R) -> R {
        let before = self.devices[device].load_key();
        let result = mutate(&mut self.devices[device]);
        let after = self.devices[device].load_key();
        if before != after {
            // A dead or draining device was already pulled from the index
            // (fault injection); its transitions — e.g. a draining tile
            // finishing resident work — must not re-insert it.
            if self.load_index.remove(&before) {
                self.load_index.insert(after);
            }
        }
        result
    }

    /// The transfer model in force right now: the configured one, slowed by
    /// the fault tier's fleet-wide link multiplier when degradation is
    /// active.
    fn active_transfer(&self) -> TransferModel {
        match &self.fault {
            Some(fault) if fault.link_multiplier != 1.0 => {
                self.transfer.degraded(fault.link_multiplier)
            }
            _ => self.transfer,
        }
    }

    /// How `device` would obtain `key`'s compiled image, without mutating
    /// anything: resident in its store, a host load, or a transfer from the
    /// nearest peer holding the image — whichever is cheaper. The rule is
    /// uniform across devices (a home shard whose store evicted the image
    /// pays to re-acquire it like anyone else); only a 1-device cluster is
    /// exempt, because it has no peers and [`Runtime`] — which it must
    /// match bitwise — models no separate host image path (the
    /// `ReconfigModel` switch *is* the whole load there).
    fn peek_acquisition(&self, device: usize, key: KernelKey, bytes: usize) -> Acquisition {
        if self.num_devices() == 1 || self.devices[device].cache.contains(&key) {
            return Acquisition::Resident;
        }
        cheapest_acquisition(&self.active_transfer(), self.holders(key), device, bytes)
    }

    /// The devices whose stores currently hold `key`'s image.
    fn holders(&self, key: KernelKey) -> impl Iterator<Item = usize> + '_ {
        self.devices
            .iter()
            .filter(move |device| device.cache.contains(&key))
            .map(Device::id)
    }

    /// Commits an admitted request's acquisition: adopts the image into the
    /// routed device's store (counting the store lookup and refreshing its
    /// LRU slot) and records the transfer/host-load traffic. Returns the
    /// acquisition delay to charge ahead of the context switch.
    ///
    /// The charge is *single-payer by design*: the image enters the store
    /// now, and the requester that triggered the fetch carries its delay in
    /// its own switch phase; later arrivals for the same kernel find the
    /// image resident and ride the same fetch for free — the image-store
    /// analogue of the in-flight simulation joins. A 1-device cluster
    /// never commits anything (see `peek_acquisition`).
    fn commit_acquisition(
        &mut self,
        device: usize,
        info: &InFlight,
        acquisition: Acquisition,
        state: &mut ClusterState,
    ) -> f64 {
        match acquisition {
            Acquisition::Resident => {
                if self.num_devices() > 1 {
                    self.devices[device]
                        .cache
                        .get_or_share(info.view.key, &info.compiled);
                }
                0.0
            }
            Acquisition::HostLoad { cost_us } => {
                self.devices[device]
                    .cache
                    .get_or_share(info.view.key, &info.compiled);
                state.device_host_loads[device] += 1;
                cost_us
            }
            Acquisition::Transfer { cost_us, bytes, .. } => {
                self.devices[device]
                    .cache
                    .get_or_share(info.view.key, &info.compiled);
                let (count, total_bytes) = &mut state.device_transfers[device];
                *count += 1;
                *total_bytes += bytes as u64;
                cost_us
            }
        }
    }

    /// The replication step, run at every arrival before routing: feeds the
    /// per-kernel rate EWMA (the routing tier sees every submission) and,
    /// when the kernel is hot, pushes its image onto the
    /// [`ReplicationConfig::fanout`] least-loaded devices that do not hold
    /// it — through the same [`KernelCache::get_or_share`] adoption path a
    /// demand fetch uses — so the routing decision that follows (and every
    /// later one) sees a warm replica instead of charging a transfer. A
    /// pressured target store first demotes one of replication's own cold
    /// replicas instead of letting LRU evict blindly. The modeled prefetch
    /// cost (the cheapest [`TransferModel`] source) is accounted as
    /// off-critical-path traffic in [`ReplicationStats`].
    fn replicate(&mut self, info: &InFlight, now_us: f64, state: &mut ClusterState) {
        let ClusterState {
            replicator,
            recorder,
            ..
        } = state;
        if !replicator.enabled() {
            return;
        }
        let key = info.view.key;
        if !replicator.observe(key, now_us) {
            return;
        }
        let fanout = replicator.config().fanout;
        let targets: Vec<usize> = self
            .load_index
            .iter()
            .take(fanout)
            .map(|&(_, _, device)| device)
            .collect();
        for device in targets {
            if self.devices[device].cache.contains(&key) {
                continue;
            }
            // A push onto a full store must free a slot by demoting one of
            // replication's own cooled replicas; if no tracked replica is
            // demotable, the push is skipped — a prefetch must never let LRU
            // blindly evict the device's home image or hot working set.
            let mut has_room =
                self.devices[device].cache.len() < self.devices[device].cache.capacity();
            while !has_room {
                let Some(victim) = replicator.demotion_candidate(device, now_us) else {
                    break;
                };
                if self.devices[device].cache.remove(&victim) {
                    replicator.note_demoted(device, victim);
                    recorder.counter(now_us, device, obs::CounterName::ReplicaDemoted);
                    has_room = true;
                } else {
                    // Demand LRU already evicted this replica; just stop
                    // tracking it and try the next candidate.
                    replicator.forget(device, victim);
                }
            }
            if !has_room {
                continue;
            }
            let cost_us = cheapest_acquisition(
                &self.active_transfer(),
                self.holders(key),
                device,
                info.image_bytes,
            )
            .cost_us();
            self.devices[device].cache.get_or_share(key, &info.compiled);
            replicator.note_pushed(device, key, info.image_bytes, cost_us);
            if recorder.enabled() {
                recorder.record(obs::TraceEvent {
                    time_us: now_us,
                    dur_us: 0.0,
                    request_id: None,
                    device,
                    tile: None,
                    kind: obs::SpanKind::Prefetch {
                        bytes: info.image_bytes as u64,
                    },
                });
                recorder.counter(now_us, device, obs::CounterName::ReplicaPushed);
            }
        }
    }

    /// The `(completion, needs switch, evicts warm, device)` estimate for
    /// serving `info` on `device`, acquisition cost included — the
    /// cross-device comparison key power-of-two routing minimizes. Returns
    /// the acquisition alongside so the winner's is not recomputed.
    fn completion_estimate(
        &self,
        device: usize,
        info: &InFlight,
        now_us: f64,
    ) -> ((f64, bool, bool, usize), Acquisition) {
        let acquisition = self.peek_acquisition(device, info.view.key, info.image_bytes);
        let (completion, needs_switch, evicts_warm, _tile) =
            self.devices[device].pool.earliest_candidate_indexed(
                info.view.key,
                info.view.est_exec_us,
                info.view.switch_us + acquisition.cost_us(),
                now_us,
            );
        ((completion, needs_switch, evicts_warm, device), acquisition)
    }

    /// The routing decision at an arrival event: the chosen device plus how
    /// it will acquire the kernel image (computed once, here). When tracing
    /// is on, the decision is recorded as a route-choice span carrying every
    /// candidate's completion estimate — under power-of-two-choices that
    /// exposes the losing device's estimate next to the winner's.
    fn route_device(
        &self,
        info: &InFlight,
        now_us: f64,
        recorder: &mut obs::TraceRecorder,
    ) -> (usize, Acquisition) {
        let devices = self.num_devices();
        let mut candidates: Vec<(usize, f64)> = Vec::new();
        let (device, acquisition) = if devices == 1 {
            (0, Acquisition::Resident)
        } else {
            match self.route {
                RoutePolicy::KernelHash => {
                    let device = kernel_home(info.view.key.fingerprint, devices);
                    (
                        device,
                        self.peek_acquisition(device, info.view.key, info.image_bytes),
                    )
                }
                RoutePolicy::LeastLoaded => {
                    let device = self
                        .load_index
                        .first()
                        .expect("a non-empty cluster always has a least-loaded device")
                        .2;
                    (
                        device,
                        self.peek_acquisition(device, info.view.key, info.image_bytes),
                    )
                }
                RoutePolicy::PowerOfTwoChoices => {
                    let (first, second) =
                        power_of_two_pair(info.view.key.fingerprint, info.request.id, devices);
                    let (a, a_acquisition) = self.completion_estimate(first, info, now_us);
                    let (b, b_acquisition) = self.completion_estimate(second, info, now_us);
                    if recorder.enabled() {
                        candidates.push((a.3, a.0));
                        candidates.push((b.3, b.0));
                    }
                    if b < a {
                        (b.3, b_acquisition)
                    } else {
                        (a.3, a_acquisition)
                    }
                }
            }
        };
        if recorder.enabled() {
            recorder.record(obs::TraceEvent {
                time_us: now_us,
                dur_us: 0.0,
                request_id: Some(info.request.id),
                device,
                tile: None,
                kind: obs::SpanKind::RouteChoice(Box::new(obs::RouteChoice {
                    policy: self.route.label(),
                    chosen: device,
                    candidates,
                })),
            });
        }
        (device, acquisition)
    }

    /// The fault-aware routing decision: like [`route_device`]
    /// (same policies, same comparison keys, the same route-choice span)
    /// but restricted to devices that can actually serve. Devices the
    /// request was already displaced off are avoided while any other
    /// serviceable device exists; if only they remain (e.g. the device
    /// revived), they become eligible again rather than shedding the
    /// request spuriously. Returns `None` only when no device in the
    /// fleet is alive and admitting.
    ///
    /// With every device available and no exclusions the selectors reduce
    /// exactly to the fault-free ones, which is what pins an empty
    /// [`FaultPlan`] bitwise-identical to no plan at all.
    ///
    /// [`route_device`]: Cluster::route_device
    fn route_device_excluding(
        &self,
        info: &InFlight,
        now_us: f64,
        exclusions: &ExclusionSet,
        recorder: &mut obs::TraceRecorder,
    ) -> Option<(usize, Acquisition)> {
        let fault = self
            .fault
            .as_ref()
            .expect("exclusion routing only runs under a fault plan");
        let mut candidates: Vec<(usize, f64)> = Vec::new();
        let want_candidates = recorder.enabled();
        let strict = |device: usize| fault.available(device) && !exclusions.contains(device);
        let relaxed = |device: usize| fault.available(device);
        let picked = self
            .pick_eligible(info, now_us, strict, want_candidates, &mut candidates)
            .or_else(|| {
                if exclusions.is_empty() {
                    None // relaxed == strict; nothing new to try
                } else {
                    self.pick_eligible(info, now_us, relaxed, want_candidates, &mut candidates)
                }
            });
        let (device, acquisition) = picked?;
        if recorder.enabled() {
            recorder.record(obs::TraceEvent {
                time_us: now_us,
                dur_us: 0.0,
                request_id: Some(info.request.id),
                device,
                tile: None,
                kind: obs::SpanKind::RouteChoice(Box::new(obs::RouteChoice {
                    policy: self.route.label(),
                    chosen: device,
                    candidates,
                })),
            });
        }
        Some((device, acquisition))
    }

    /// One eligibility-filtered pass of the routing policy — the selector
    /// core [`route_device_excluding`](Cluster::route_device_excluding)
    /// runs once strictly and once relaxed.
    fn pick_eligible(
        &self,
        info: &InFlight,
        now_us: f64,
        eligible: impl Fn(usize) -> bool + Copy,
        want_candidates: bool,
        candidates: &mut Vec<(usize, f64)>,
    ) -> Option<(usize, Acquisition)> {
        let devices = self.num_devices();
        if devices == 1 {
            return eligible(0).then_some((0, Acquisition::Resident));
        }
        match self.route {
            RoutePolicy::KernelHash => {
                kernel_home_eligible(info.view.key.fingerprint, devices, eligible).map(|device| {
                    (
                        device,
                        self.peek_acquisition(device, info.view.key, info.image_bytes),
                    )
                })
            }
            RoutePolicy::LeastLoaded => {
                least_loaded_eligible(self.load_index.iter().copied(), eligible).map(|device| {
                    (
                        device,
                        self.peek_acquisition(device, info.view.key, info.image_bytes),
                    )
                })
            }
            RoutePolicy::PowerOfTwoChoices => power_of_two_pair_eligible(
                info.view.key.fingerprint,
                info.request.id,
                devices,
                eligible,
            )
            .map(|(first, second)| {
                let (a, a_acquisition) = self.completion_estimate(first, info, now_us);
                let (b, b_acquisition) = self.completion_estimate(second, info, now_us);
                if want_candidates {
                    candidates.push((a.3, a.0));
                    if second != first {
                        candidates.push((b.3, b.0));
                    }
                }
                if b < a {
                    (b.3, b_acquisition)
                } else {
                    (a.3, a_acquisition)
                }
            }),
        }
    }

    /// Sheds a request no device can serve (the whole fleet is dead or
    /// draining). Counted in the cluster-total rejects but not against any
    /// device's [`DeviceMetrics::rejects`] — there is no device to blame —
    /// so per-device rejects need not sum to the cluster total on a faulty
    /// serve.
    fn reject_unroutable(
        &self,
        index: usize,
        info: &InFlight,
        now_us: f64,
        state: &mut ClusterState,
    ) {
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
        // No device to blame, so the shed lands in lane 0 of the telemetry
        // series; window aggregates sum across lanes either way.
        let class = state
            .session
            .as_ref()
            .map_or(SloClass::Standard, |driver| driver.slo_of(index));
        state.lane_series[0].note_reject(class, now_us);
        state.rejected.push(RejectedRequest {
            id: info.request.id,
            kernel: info.request.kernel.shared_name(),
            arrival_us: info.request.arrival_us,
            deadline_us: info.request.deadline_us,
        });
    }

    /// The session tier's reaction to a rejected stage: fail its pipeline
    /// (sealing the pipeline's fate through the reorder buffer) and shed
    /// the still-parked sibling stages the failure cascades to — each gets
    /// its own reject record so the served-or-rejected intake invariant
    /// holds stage by stage. A no-op on every non-pipeline serve.
    fn cascade_stage_reject(
        &self,
        index: usize,
        now_us: f64,
        intake: &[InFlight],
        state: &mut ClusterState,
    ) {
        let shed = match &mut state.session {
            Some(driver) => driver.note_rejected(index, now_us),
            None => return,
        };
        for sibling in shed {
            self.reject_unroutable(sibling, &intake[sibling], now_us, state);
        }
    }

    /// The stage-affinity override and activation pricing step, run after
    /// routing on a pipeline serve (identity on every other serve): when
    /// enabled and the load-driven choice differs from the producer device
    /// of the stage's heaviest input, the producer wins if the activation
    /// savings of staying put outweigh the estimated extra queueing there.
    /// Either way the final device's activation bill is priced into
    /// `activation_us[index]`, charged ahead of the context switch at
    /// start.
    fn apply_stage_affinity(
        &self,
        index: usize,
        routed: usize,
        acquisition: Acquisition,
        info: &InFlight,
        state: &mut ClusterState,
    ) -> (usize, Acquisition) {
        let ClusterState {
            session,
            exclusions,
            activation_us,
            ..
        } = state;
        let Some(driver) = session else {
            return (routed, acquisition);
        };
        let transfer = self.active_transfer();
        let alive = |device: usize| match &self.fault {
            Some(fault) => fault.alive[device],
            None => true,
        };
        let mut device = routed;
        let mut acquisition = acquisition;
        if driver.affinity {
            if let Some(target) = driver.affinity_target(index) {
                let eligible = target != routed
                    && target < self.num_devices()
                    && !exclusions[index].contains(target)
                    && match &self.fault {
                        Some(fault) => fault.available(target),
                        None => true,
                    };
                if eligible {
                    let (cost_routed, _) = driver.activation_plan(index, routed, &transfer, alive);
                    let (cost_target, _) = driver.activation_plan(index, target, &transfer, alive);
                    let savings = cost_routed - cost_target;
                    // The queueing penalty of following the data: the
                    // difference in waiting depth, scaled by this stage's
                    // estimated service time.
                    let penalty = (self.devices[target].pool.total_waiting() as f64
                        - self.devices[routed].pool.total_waiting() as f64)
                        * info.view.est_exec_us;
                    if savings > 0.0 && savings >= penalty {
                        device = target;
                        acquisition =
                            self.peek_acquisition(target, info.view.key, info.image_bytes);
                    }
                }
            }
        }
        activation_us[index] = driver.activation_plan(index, device, &transfer, alive).0;
        (device, acquisition)
    }

    /// Commits the activation bill priced by
    /// [`apply_stage_affinity`](Cluster::apply_stage_affinity) once the
    /// stage is admitted: the driver accumulates the paid transfers and a
    /// stage-transfer span is recorded per moved input. A no-op on every
    /// non-pipeline serve.
    fn commit_stage_activation(
        &self,
        index: usize,
        device: usize,
        info: &InFlight,
        now_us: f64,
        state: &mut ClusterState,
    ) {
        let ClusterState {
            session, recorder, ..
        } = state;
        let Some(driver) = session else { return };
        let transfer = self.active_transfer();
        let alive = |device: usize| match &self.fault {
            Some(fault) => fault.alive[device],
            None => true,
        };
        let (cost_us, moved) = driver.activation_plan(index, device, &transfer, alive);
        driver.commit_activation(index, cost_us, moved.len());
        if recorder.enabled() {
            for (from, bytes) in moved {
                recorder.record(obs::TraceEvent {
                    time_us: now_us,
                    dur_us: 0.0,
                    request_id: Some(info.request.id),
                    device,
                    tile: None,
                    kind: obs::SpanKind::StageTransfer { from, bytes },
                });
            }
        }
    }

    /// The stage-completion edge of the session tier: records the
    /// committing stage's producer device, and re-arrives (at the same
    /// instant) every parked successor whose inputs are now all ready —
    /// each with a stage-ready span. Seals the pipeline through the
    /// reorder buffer when this was its last stage. A no-op on every
    /// non-pipeline serve.
    fn note_stage_complete(
        &self,
        index: usize,
        device: usize,
        now_us: f64,
        intake: &[InFlight],
        state: &mut ClusterState,
    ) {
        let ClusterState {
            session,
            events,
            recorder,
            ..
        } = state;
        let Some(driver) = session else { return };
        for succ in driver.note_complete(index, device, now_us) {
            if recorder.enabled() {
                recorder.record(obs::TraceEvent {
                    time_us: now_us,
                    dur_us: 0.0,
                    request_id: Some(intake[succ].request.id),
                    device,
                    tile: None,
                    kind: obs::SpanKind::StageReady {
                        deps: driver.dep_count(succ) as u32,
                    },
                });
            }
            events.push(now_us, EventKind::Arrival { index: succ });
        }
    }

    /// Applies scheduled fault `fault_index` at `now_us`: flips the fleet
    /// flags, records the fault span, and performs the structural reaction
    /// (evacuation, requeues, index surgery, replica re-homing).
    fn apply_fault(
        &mut self,
        fault_index: usize,
        now_us: f64,
        intake: &[InFlight],
        state: &mut ClusterState,
    ) {
        let kind = self
            .fault
            .as_mut()
            .expect("fault events only fire under a fault plan")
            .apply(fault_index, now_us);
        if state.recorder.enabled() {
            let (device, span) = match kind {
                FaultKind::Kill { device } => (device, obs::SpanKind::DeviceDown),
                FaultKind::Revive { device } => (device, obs::SpanKind::DeviceUp),
                FaultKind::Drain { device } => (device, obs::SpanKind::DrainPhase { begin: true }),
                FaultKind::Undrain { device } => {
                    (device, obs::SpanKind::DrainPhase { begin: false })
                }
                FaultKind::DegradeLinks { multiplier } => {
                    (0, obs::SpanKind::LinkDegrade { multiplier })
                }
            };
            state.recorder.record(obs::TraceEvent {
                time_us: now_us,
                dur_us: 0.0,
                request_id: None,
                device,
                tile: None,
                kind: span,
            });
        }
        match kind {
            FaultKind::Kill { device } => self.kill_device(device, now_us, intake, state),
            FaultKind::Drain { device } => self.drain_cluster_device(device, now_us, intake, state),
            FaultKind::Revive { device } | FaultKind::Undrain { device } => {
                self.rejoin_device(device)
            }
            FaultKind::DegradeLinks { .. } => {} // pricing reads the flag live
        }
    }

    /// The abrupt-death reaction: the device leaves the routing index, its
    /// running request is abandoned (progress counted as lost work, outcome
    /// withdrawn, simulation restored for the retry), every queued request
    /// is displaced, tile timelines rewind, the kernel store is wiped, and
    /// the replication layer's pushed replicas re-home to survivors.
    fn kill_device(
        &mut self,
        device: usize,
        now_us: f64,
        intake: &[InFlight],
        state: &mut ClusterState,
    ) {
        self.load_index.remove(&self.devices[device].load_key());
        let base = device * self.tiles_per_device;
        for local in 0..self.tiles_per_device {
            let tile = base + local;
            if let Some(index) = state.running_index[tile].take() {
                let outcome = state.outcome_slots[index]
                    .take()
                    .expect("a running request has an outcome slot");
                let fault = self.fault.as_mut().expect("kill fires under a fault plan");
                fault.lost_work_us[device] += (now_us - outcome.start_us).max(0.0);
                state.sim.restore(index, outcome.run);
                self.displace(index, device, now_us, intake, state);
            }
            for index in state.queues[tile].drain_live(&state.taken) {
                if let Some(driver) = &mut state.session {
                    // The displaced stage leaves the queue; its session's
                    // fair-admission share frees up until the requeue
                    // re-enqueues it somewhere alive.
                    driver.note_dequeued(index);
                }
                self.displace(index, device, now_us, intake, state);
            }
            state.pending_free[tile] = None;
            state.batcher.reset_tile(tile);
        }
        self.devices[device].pool.evacuate(now_us);
        self.devices[device].busy_tiles = 0;
        self.devices[device].cache.wipe();
        self.rehome_replicas(device, now_us, state);
    }

    /// The graceful-drain reaction: the device leaves the routing index
    /// and its queued-but-not-started requests are displaced, but resident
    /// running work finishes normally and the kernel store stays warm for
    /// the undrain.
    fn drain_cluster_device(
        &mut self,
        device: usize,
        now_us: f64,
        intake: &[InFlight],
        state: &mut ClusterState,
    ) {
        self.load_index.remove(&self.devices[device].load_key());
        let base = device * self.tiles_per_device;
        for local in 0..self.tiles_per_device {
            let tile = base + local;
            for index in state.queues[tile].drain_live(&state.taken) {
                if let Some(driver) = &mut state.session {
                    // The displaced stage leaves the queue; its session's
                    // fair-admission share frees up until the requeue
                    // re-enqueues it somewhere alive.
                    driver.note_dequeued(index);
                }
                self.displace(index, device, now_us, intake, state);
            }
        }
        self.devices[device].pool.evacuate_queues();
    }

    /// A revive or undrain: the device rejoins the routing index — if it is
    /// actually serviceable (undraining a still-dead device rejoins
    /// nothing).
    fn rejoin_device(&mut self, device: usize) {
        let available = self
            .fault
            .as_ref()
            .expect("rejoin fires under a fault plan")
            .available(device);
        if available {
            self.load_index.insert(self.devices[device].load_key());
        }
    }

    /// Displacement bookkeeping shared by kill and drain: the losing
    /// device enters the request's exclusion set and a requeue event at
    /// the current instant sends it back through routing (after every
    /// same-instant fault, so a coordinated kill+revive script is seen in
    /// its final state).
    fn displace(
        &mut self,
        index: usize,
        from_device: usize,
        now_us: f64,
        intake: &[InFlight],
        state: &mut ClusterState,
    ) {
        state.exclusions[index].insert(from_device);
        self.fault
            .as_mut()
            .expect("displacement only happens under faults")
            .requeues[from_device] += 1;
        state.events.push(now_us, EventKind::Requeue { index });
        if state.recorder.enabled() {
            state.recorder.record(obs::TraceEvent {
                time_us: now_us,
                dur_us: 0.0,
                request_id: Some(intake[index].request.id),
                device: from_device,
                tile: None,
                kind: obs::SpanKind::Requeue,
            });
        }
    }

    /// Re-homes the replication layer's pushed replicas off a dead device:
    /// each orphaned image still held by a surviving store is pushed onto
    /// the least-loaded live device with a free slot that does not hold it
    /// — the same adoption path and accounting as a rate-driven push.
    fn rehome_replicas(&mut self, dead: usize, now_us: f64, state: &mut ClusterState) {
        for key in state.replicator.drain_device(dead) {
            let Some(artifact) = self
                .devices
                .iter()
                .find(|d| d.id != dead && d.cache.contains(&key))
                .and_then(|d| d.cache.peek(&key))
            else {
                continue; // no surviving holder to source the image from
            };
            let Some(target) = self.load_index.iter().map(|&(_, _, id)| id).find(|&id| {
                !self.devices[id].cache.contains(&key)
                    && self.devices[id].cache.len() < self.devices[id].cache.capacity()
            }) else {
                continue; // everyone holds it or no store has a free slot
            };
            let bytes = artifact.program.config_bytes();
            let cost_us =
                cheapest_acquisition(&self.active_transfer(), self.holders(key), target, bytes)
                    .cost_us();
            self.devices[target].cache.get_or_share(key, &artifact);
            state.replicator.note_pushed(target, key, bytes, cost_us);
            if state.recorder.enabled() {
                state.recorder.record(obs::TraceEvent {
                    time_us: now_us,
                    dur_us: 0.0,
                    request_id: None,
                    device: target,
                    tile: None,
                    kind: obs::SpanKind::Prefetch {
                        bytes: bytes as u64,
                    },
                });
                state
                    .recorder
                    .counter(now_us, target, obs::CounterName::ReplicaPushed);
            }
        }
    }

    /// The shared serve body: resets per-serve state, opens the serve's
    /// results over the persistent sim-worker pool (and spawns the feeder
    /// thread for streaming serves), runs the cluster event loop over
    /// `ingest` and folds the output into a report.
    fn run_serve<F>(
        &mut self,
        ingest: Ingest,
        feed: Option<(F, mpsc::SyncSender<Arc<Request>>)>,
    ) -> Result<ClusterReport, RuntimeError>
    where
        F: FnOnce(Submitter) + Send,
    {
        // A dynamically-routed, replicated or fault-injected serve can adopt
        // images into non-home stores (requeues land anywhere); remember
        // that so the sharded loop (which assumes home-only residency)
        // stays off until the stores are rebuilt.
        if self.num_devices() > 1
            && (!self.route.is_statically_sharded()
                || self.replication.enabled()
                || self.fault_plan.is_some())
        {
            self.cross_shard_images = true;
        }
        // Validate and arm the fault schedule before anything is spawned.
        // An installed-but-empty plan still builds a `FaultState`, so the
        // fault code path itself is exercised (and pinned bitwise-identical
        // to a plan-free serve by the equivalence proptests).
        self.fault = match &self.fault_plan {
            Some(plan) => Some(FaultState::new(
                plan.validated(self.num_devices())?,
                self.num_devices(),
            )),
            None => None,
        };
        for device in &mut self.devices {
            device.pool.reset();
            device.dispatcher.reset();
            device.busy_tiles = 0;
        }
        self.rebuild_load_index();
        let cache_before: Vec<CacheStats> = self.devices.iter().map(|d| d.cache.stats()).collect();
        let memo_before = self.sim_memo.stats();

        let sim = SimResults::new(&mut self.sim_pool, self.sim_memo.capacity() > 0);
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
        let cache_deltas: Vec<CacheStats> = self
            .devices
            .iter()
            .zip(&cache_before)
            .map(|(device, &before)| delta(device.cache.stats(), before))
            .collect();
        let sim_memo = delta(self.sim_memo.stats(), memo_before);
        let (metrics, devices) = self.aggregate(&output, &cache_deltas, sim_memo);
        Ok(ClusterReport {
            policy: self.policy(),
            route: self.route,
            replication: output.replication,
            trace: output.trace,
            profile: output.profile,
            telemetry: output.telemetry,
            slo: output.slo,
            outcomes: output.outcomes,
            rejected: output.rejected,
            metrics,
            devices,
        })
    }

    /// The cluster's discrete-event core — [`Runtime`]'s event loop with a
    /// device-routing step (and the acquisition charge) spliced between
    /// arrival and tile placement. Decision order is identical, which is
    /// what makes the 1-device cluster bitwise equivalent.
    fn event_loop(
        &mut self,
        mut ingest: Ingest,
        sim: SimResults,
    ) -> Result<ClusterLoopOutput, RuntimeError> {
        let mut ctx = PrepContext::for_pool(&self.devices[0].pool)?;
        let devices = self.num_devices();
        let total_tiles = self.total_tiles();
        let policy = self.policy();
        let mut intake: Vec<InFlight> = Vec::new();
        let mut state = ClusterState {
            queues: (0..total_tiles)
                .map(|_| TileQueue::new(policy, self.batching.enabled()))
                .collect(),
            taken: Vec::new(),
            events: EventQueue::new(),
            outcome_slots: Vec::new(),
            rejected: Vec::new(),
            sim,
            batcher: Batcher::new(self.batching, total_tiles),
            replicator: Replicator::new(self.replication, devices),
            peak_queue_depth: 0,
            queue_area_us: 0.0,
            last_event_us: 0.0,
            acquire_us: Vec::new(),
            device_peak_queue: vec![0; devices],
            device_rejects: vec![0; devices],
            device_transfers: vec![(0, 0); devices],
            device_host_loads: vec![0; devices],
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
            queue_depth_hist: obs::LogHistogram::new(),
            device_latency_hists: vec![obs::LogHistogram::new(); devices],
            acquire_src: Vec::new(),
            exclusions: Vec::new(),
            running_index: vec![None; total_tiles],
            pending_free: vec![None; total_tiles],
            session: self.session_driver.take(),
            activation_us: Vec::new(),
            lane_series: (0..devices)
                .map(|_| obs::LaneSeries::new(self.telemetry))
                .collect(),
            global_series: obs::GlobalSeries::new(self.telemetry),
        };
        // Arm the fault schedule: pre-pushed at virtual time zero, the
        // fault events hold the lowest sequence numbers and therefore fire
        // ahead of arrivals and completions at the same instant.
        if let Some(fault) = &self.fault {
            for (index, event) in fault.events.iter().enumerate() {
                state
                    .events
                    .push(event.time_us, EventKind::Fault { fault: index });
            }
        }
        let mut pull = crate::SubmissionPull::new();

        loop {
            {
                let ClusterState {
                    events,
                    outcome_slots,
                    taken,
                    sim,
                    acquire_us,
                    acquire_src,
                    exclusions,
                    activation_us,
                    recorder,
                    ..
                } = &mut state;
                let device_slots = &mut self.devices;
                let lower = &self.lower;
                let reconfig = &self.reconfig;
                let fault = &self.fault;
                pull.pull(
                    &mut ingest,
                    events,
                    &mut intake,
                    |request| {
                        // The kernel's home shard is its compile authority:
                        // the artifact is built (or found) in the home
                        // device's store; other devices adopt the image
                        // when routing first sends the kernel their way.
                        // Under faults a dead home must not hold the image
                        // (its store is conceptually gone), so authority
                        // walks to the next living device — or stays put
                        // when the whole fleet is down.
                        let fingerprint = request.kernel.fingerprint();
                        let home = kernel_home(fingerprint, devices);
                        let home = match fault {
                            Some(f) => kernel_home_eligible(fingerprint, devices, |d| f.alive[d])
                                .unwrap_or(home),
                            None => home,
                        };
                        prepare_request(
                            &mut device_slots[home].cache,
                            lower,
                            reconfig,
                            &mut ctx,
                            request,
                        )
                    },
                    |inflight| {
                        outcome_slots.push(None);
                        taken.push(false);
                        sim.push_slot();
                        acquire_us.push(0.0);
                        acquire_src.push(("resident", 0));
                        exclusions.push(ExclusionSet::default());
                        activation_us.push(0.0);
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
                    // The session tier's gate: a pipeline stage whose
                    // inputs have not all committed parks here (its last
                    // dependency's completion re-arrives it), and a stage
                    // of an already-failed pipeline is shed. Absent a
                    // session driver every arrival proceeds untouched.
                    if let Some(driver) = &mut state.session {
                        match driver.on_arrival(index) {
                            ArrivalAction::Proceed => {}
                            ArrivalAction::Park => continue,
                            ArrivalAction::Reject => {
                                self.reject_unroutable(index, info, now_us, &mut state);
                                self.cascade_stage_reject(index, now_us, &intake, &mut state);
                                continue;
                            }
                        }
                    }
                    // 0. Feed the control plane's rate estimate and push hot
                    // kernel images ahead of demand; 1. route to a device;
                    // 2. resolve how the device gets the kernel image;
                    // 3. place on a tile with the acquisition-adjusted
                    // switch cost.
                    self.replicate(info, now_us, &mut state);
                    let route = state.profiler.begin();
                    let routed = if self.fault.is_some() {
                        self.route_device_excluding(
                            info,
                            now_us,
                            &state.exclusions[index],
                            &mut state.recorder,
                        )
                    } else {
                        Some(self.route_device(info, now_us, &mut state.recorder))
                    };
                    let Some((device, acquisition)) = routed else {
                        // Every device is dead or draining: nothing can
                        // admit the arrival. Shed it like an admission
                        // reject (it is one — the cluster has no capacity).
                        state.profiler.end(obs::Stage::Route, route);
                        self.reject_unroutable(index, info, now_us, &mut state);
                        self.cascade_stage_reject(index, now_us, &intake, &mut state);
                        continue;
                    };
                    // Stage affinity may override the load-driven choice
                    // with the producer of the heaviest input, and the
                    // inter-stage activation bill for the final device is
                    // priced here (both no-ops without a session driver).
                    let (device, acquisition) =
                        self.apply_stage_affinity(index, device, acquisition, info, &mut state);
                    let adjusted = DispatchRequest {
                        switch_us: info.view.switch_us
                            + acquisition.cost_us()
                            + state.activation_us[index],
                        ..info.view
                    };
                    let routed_device = &mut self.devices[device];
                    let local_tile =
                        routed_device
                            .dispatcher
                            .place(&adjusted, now_us, &routed_device.pool);
                    state.profiler.end(obs::Stage::Route, route);
                    let tile = device * self.tiles_per_device + local_tile;
                    let starts_now = !self.devices[device].pool.states()[local_tile].running;
                    // The session tier tightens admission to the session's
                    // weighted-fair share of the limit; `fair` is always
                    // true on a plain serve, leaving the predicate
                    // untouched.
                    let fair = match &state.session {
                        Some(driver) => driver.fair_admit(index, self.admission_limit),
                        None => true,
                    };
                    let admitted =
                        starts_now || (self.waiting_count() < self.admission_limit && fair);
                    if state.recorder.enabled() {
                        state.recorder.record(obs::TraceEvent {
                            time_us: now_us,
                            dur_us: 0.0,
                            request_id: Some(info.request.id),
                            device,
                            tile: None,
                            kind: obs::SpanKind::Admission { admitted },
                        });
                        if let Some(driver) = &state.session {
                            state.recorder.record(obs::TraceEvent {
                                time_us: now_us,
                                dur_us: 0.0,
                                request_id: Some(info.request.id),
                                device,
                                tile: None,
                                kind: obs::SpanKind::SloAdmit {
                                    class: driver.slo_of(index),
                                    admitted,
                                },
                            });
                        }
                    }
                    if !admitted {
                        if state.recorder.enabled() {
                            state.recorder.record(obs::TraceEvent {
                                time_us: now_us,
                                dur_us: 0.0,
                                request_id: Some(info.request.id),
                                device,
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
                        state.device_rejects[device] += 1;
                        state.lane_series[device].note_reject(
                            state
                                .session
                                .as_ref()
                                .map_or(SloClass::Standard, |driver| driver.slo_of(index)),
                            now_us,
                        );
                        self.cascade_stage_reject(index, now_us, &intake, &mut state);
                        continue;
                    }
                    state.acquire_src[index] = (acquisition.label(), acquisition.bytes());
                    state.acquire_us[index] =
                        self.commit_acquisition(device, info, acquisition, &mut state);
                    self.commit_stage_activation(index, device, info, now_us, &mut state);
                    let memo = state.profiler.begin();
                    let sourced = state.sim.source(index, info, &mut self.sim_memo);
                    state.profiler.end(obs::Stage::Memo, memo);
                    match sourced {
                        SimSourced::Joined => {
                            state
                                .recorder
                                .counter(now_us, device, obs::CounterName::MemoJoin);
                        }
                        SimSourced::MemoHit => {
                            state
                                .recorder
                                .counter(now_us, device, obs::CounterName::MemoHit);
                        }
                        SimSourced::Spawned => {}
                    }
                    if starts_now {
                        self.start_request(device, local_tile, index, &intake, &mut state, None)?;
                    } else {
                        let scan = state.profiler.begin();
                        self.with_load_update(device, |d| {
                            d.enqueue(local_tile, info.view.key, info.view.est_exec_us)
                        });
                        state.queues[tile].push(index, &info.view);
                        if let Some(driver) = &mut state.session {
                            driver.note_enqueued(index);
                        }
                        state.profiler.end(obs::Stage::Scan, scan);
                        state.peak_queue_depth = state.peak_queue_depth.max(self.waiting_count());
                        state.device_peak_queue[device] = state.device_peak_queue[device]
                            .max(self.devices[device].pool.total_waiting());
                    }
                }
                EventKind::TileFree { tile } => {
                    let device = tile / self.tiles_per_device;
                    let local_tile = tile % self.tiles_per_device;
                    if self.fault.is_some() || state.session.is_some() {
                        // A kill evacuated this tile after the completion
                        // event was scheduled: the event is a stale echo of
                        // abandoned work, and releasing on it would free a
                        // tile that is not running (or double-free one that
                        // restarted). Only the completion the tile is
                        // actually waiting on releases it. (The session
                        // tier rides the same bookkeeping to learn which
                        // stage just committed — without faults every
                        // completion matches.)
                        if state.pending_free[tile].map(f64::to_bits) != Some(now_us.to_bits()) {
                            continue;
                        }
                        state.pending_free[tile] = None;
                        if let Some(index) = state.running_index[tile].take() {
                            // The stage-completion edge: record the
                            // producer and re-arrive any successors whose
                            // inputs are now all ready.
                            self.note_stage_complete(index, device, now_us, &intake, &mut state);
                        }
                    }
                    self.with_load_update(device, |d| d.release(local_tile));
                    if !state.queues[tile].is_empty() {
                        self.start_next(device, local_tile, &intake, &mut state)?;
                    }
                }
                EventKind::Fault { fault } => {
                    self.apply_fault(fault, now_us, &intake, &mut state);
                }
                EventKind::Requeue { index } => {
                    // A displaced request re-enters routing. It was already
                    // admitted (and its simulation sourced) at its arrival,
                    // so neither is repeated; only the placement is redone,
                    // avoiding the devices it was displaced off.
                    let info = &intake[index];
                    let route = state.profiler.begin();
                    let routed = self.route_device_excluding(
                        info,
                        now_us,
                        &state.exclusions[index],
                        &mut state.recorder,
                    );
                    let Some((device, acquisition)) = routed else {
                        state.profiler.end(obs::Stage::Route, route);
                        self.reject_unroutable(index, info, now_us, &mut state);
                        self.cascade_stage_reject(index, now_us, &intake, &mut state);
                        continue;
                    };
                    // A displaced stage re-prices its activations against
                    // the new device — and against its producers' current
                    // liveness: inputs whose producer died restore from
                    // the host checkpoint instead of the link.
                    let (device, acquisition) =
                        self.apply_stage_affinity(index, device, acquisition, info, &mut state);
                    let adjusted = DispatchRequest {
                        switch_us: info.view.switch_us
                            + acquisition.cost_us()
                            + state.activation_us[index],
                        ..info.view
                    };
                    let routed_device = &mut self.devices[device];
                    let local_tile =
                        routed_device
                            .dispatcher
                            .place(&adjusted, now_us, &routed_device.pool);
                    state.profiler.end(obs::Stage::Route, route);
                    let tile = device * self.tiles_per_device + local_tile;
                    let starts_now = !self.devices[device].pool.states()[local_tile].running;
                    state.acquire_src[index] = (acquisition.label(), acquisition.bytes());
                    state.acquire_us[index] =
                        self.commit_acquisition(device, info, acquisition, &mut state);
                    self.commit_stage_activation(index, device, info, now_us, &mut state);
                    // A started-then-killed request may still carry the
                    // taken flag from its first life; clear it so the new
                    // queue entry is live.
                    state.taken[index] = false;
                    if starts_now {
                        self.start_request(device, local_tile, index, &intake, &mut state, None)?;
                    } else {
                        self.with_load_update(device, |d| {
                            d.enqueue(local_tile, info.view.key, info.view.est_exec_us)
                        });
                        state.queues[tile].push(index, &info.view);
                        if let Some(driver) = &mut state.session {
                            driver.note_enqueued(index);
                        }
                        state.peak_queue_depth = state.peak_queue_depth.max(self.waiting_count());
                        state.device_peak_queue[device] = state.device_peak_queue[device]
                            .max(self.devices[device].pool.total_waiting());
                    }
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
        let telemetry = self.telemetry.is_enabled().then(|| {
            obs::TimeSeries::assemble(
                self.telemetry,
                state.last_event_us,
                self.devices.len() * self.tiles_per_device,
                &state.global_series,
                &state.lane_series,
            )
        });
        let mut recorder = state.recorder;
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
        // the cluster for the next serve, and the session driver back to
        // `serve_pipelines` for the pipeline-level report.
        self.trace_scratch = recorder;
        self.session_driver = state.session.take();
        Ok(ClusterLoopOutput {
            outcomes,
            rejected: state.rejected,
            peak_queue_depth: state.peak_queue_depth,
            queue_area_us: state.queue_area_us,
            events_fired,
            batch: state.batcher.stats(),
            replication: state.replicator.stats(),
            device_peak_queue: state.device_peak_queue,
            device_rejects: state.device_rejects,
            device_transfers: state.device_transfers,
            device_host_loads: state.device_host_loads,
            trace,
            profile: state.profiler.finish(),
            queue_depth_hist: state.queue_depth_hist,
            device_latency_hists: state.device_latency_hists,
            telemetry,
            slo,
        })
    }

    /// Pulls the next queued request off a freed tile's queue and starts it
    /// (the indexed pop, exactly as `Runtime::start_next` does it —
    /// including the batching layer over the policy's choice).
    fn start_next(
        &mut self,
        device: usize,
        local_tile: usize,
        intake: &[InFlight],
        state: &mut ClusterState,
    ) -> Result<(), RuntimeError> {
        let tile = device * self.tiles_per_device + local_tile;
        let now_us = state.events.now_us();
        let scan = state.profiler.begin();
        let queue = &mut state.queues[tile];
        let resident = self.devices[device].pool.states()[local_tile].resident;
        let choice = queue.peek_next(resident, &state.taken);
        // The deadline-feasibility guard must see what the choice will
        // actually be charged: its switch *plus* the image-acquisition and
        // activation-transfer delays committed at its arrival (both always
        // 0 on one device with no session driver).
        let choice_view = DispatchRequest {
            switch_us: intake[choice].view.switch_us
                + state.acquire_us[choice]
                + state.activation_us[choice],
            ..intake[choice].view
        };
        let diverted = state.batcher.divert(
            tile,
            now_us,
            resident,
            &choice_view,
            intake[choice].request.arrival_us,
            |key| {
                queue
                    .oldest_for_kernel(key, &state.taken)
                    .map(|i| (i, intake[i].view.est_exec_us))
            },
        );
        if state.session.is_some() && diverted.is_some_and(|diverted| diverted != choice) {
            // The batching layer pulled a same-kernel sibling ahead of the
            // policy's choice during a pipeline serve — the cross-pipeline
            // stage-batching the session report surfaces.
            state.batcher.note_stage_batched();
        }
        let index = diverted.unwrap_or(choice);
        queue.take(index, &mut state.taken);
        if let Some(driver) = &mut state.session {
            driver.note_dequeued(index);
        }
        let remaining_tail = queue.tail_key(&state.taken);
        let est_us = intake[index].view.est_exec_us;
        state.profiler.end(obs::Stage::Scan, scan);
        self.start_request(
            device,
            local_tile,
            index,
            intake,
            state,
            Some((est_us, remaining_tail)),
        )
    }

    /// Commits request `index` to its routed device's tile at the current
    /// virtual time, charging acquisition + switch + execution and
    /// scheduling the tile-free event.
    fn start_request(
        &mut self,
        device: usize,
        local_tile: usize,
        index: usize,
        intake: &[InFlight],
        state: &mut ClusterState,
        from_queue: Option<(f64, Option<KernelKey>)>,
    ) -> Result<(), RuntimeError> {
        let now_us = state.events.now_us();
        let info = &intake[index];
        let sim_probe = state.profiler.begin();
        let run = state.sim.take(index, intake, &mut self.sim_memo)?;
        state.profiler.end(obs::Stage::Sim, sim_probe);
        let exec_cycles =
            run.metrics().total_cycles + self.devices[device].pool.roundtrip_cycles(local_tile);
        let exec_us = exec_cycles as f64 / info.fmax_mhz;
        // The image acquisition (inter-device transfer or host load)
        // resolved at the arrival event is charged ahead of the context
        // switch, as is the inter-stage activation transfer on a pipeline
        // serve; a request whose tile does not switch pays none of them.
        let switch_us = info.view.switch_us + state.acquire_us[index] + state.activation_us[index];
        let charged = match from_queue {
            Some((est_us, remaining_tail)) => self.with_load_update(device, |d| {
                d.start_queued(
                    local_tile,
                    est_us,
                    remaining_tail,
                    info.view.key,
                    now_us,
                    switch_us,
                    exec_us,
                )
            }),
            None => self.with_load_update(device, |d| {
                d.charge(local_tile, info.view.key, now_us, switch_us, exec_us)
            }),
        };
        state.batcher.note_start(
            device * self.tiles_per_device + local_tile,
            charged.switched,
        );
        if state.recorder.enabled() {
            let (source, bytes) = state.acquire_src[index];
            // The acquisition is only paid (and only spanned) as part of a
            // context switch — a warm tile rides the resident image free.
            let acquire = if charged.switched {
                Some((state.acquire_us[index], source, bytes))
            } else {
                None
            };
            record_request_spans(
                &mut state.recorder,
                (device, local_tile),
                info,
                &charged,
                acquire,
                state.activation_us[index],
                state
                    .batcher
                    .run_len(device * self.tiles_per_device + local_tile),
            );
        }
        state.device_latency_hists[device].record(charged.completion_us - info.request.arrival_us);
        let missed_deadline = info
            .request
            .deadline_us
            .is_some_and(|deadline| charged.completion_us > deadline);
        state.lane_series[device].note_start(
            state
                .session
                .as_ref()
                .map_or(SloClass::Standard, |driver| driver.slo_of(index)),
            charged.start_us,
            charged.completion_us,
            charged.completion_us - info.request.arrival_us,
            missed_deadline,
            charged.switched && state.acquire_src[index].0 == "transfer",
        );
        let request = &info.request;
        state.outcome_slots[index] = Some(RequestOutcome {
            request_id: request.id,
            kernel: request.kernel.shared_name(),
            device,
            tile: local_tile,
            sim: *run.metrics(),
            run,
            start_us: charged.start_us,
            queued_us: charged.start_us - request.arrival_us,
            completion_us: charged.completion_us,
            latency_us: charged.completion_us - request.arrival_us,
            switched: charged.switched,
            deadline_us: request.deadline_us,
            missed_deadline,
        });
        if self.fault.is_some() || state.session.is_some() {
            // Kills must know what to abandon, and stale completions of
            // abandoned work must be told apart from this run's. The
            // session tier reads the same bookkeeping to learn which stage
            // a tile-free event just committed.
            let tile = device * self.tiles_per_device + local_tile;
            state.running_index[tile] = Some(index);
            state.pending_free[tile] = Some(charged.completion_us);
        }
        state.events.push(
            charged.completion_us,
            EventKind::TileFree {
                tile: device * self.tiles_per_device + local_tile,
            },
        );
        Ok(())
    }

    /// Folds the loop output into cluster totals plus the per-device
    /// breakdown. Counters and sums are one pass over the outcomes in
    /// submission order (bitwise-matching `Runtime::aggregate` for one
    /// device); the cluster latency percentiles are rolled up from the
    /// per-device sorted runs through the merge path — no re-sort of the
    /// union.
    fn aggregate(
        &self,
        output: &ClusterLoopOutput,
        cache_deltas: &[CacheStats],
        sim_memo: CacheStats,
    ) -> (RuntimeMetrics, Vec<DeviceMetrics>) {
        let devices = self.num_devices();
        let outcomes = &output.outcomes;
        let requests = outcomes.len();
        let mut invocations = 0usize;
        let mut makespan_us = 0.0_f64;
        let mut latency_sum = 0.0_f64;
        let mut max_latency_us = 0.0_f64;
        let mut deadline_misses = 0usize;
        let mut deadline_requests = 0usize;
        let mut device_latencies: Vec<Vec<f64>> = vec![Vec::new(); devices];
        let mut device_latency_sum = vec![0.0_f64; devices];
        let mut device_max_latency = vec![0.0_f64; devices];
        let mut device_deadline_misses = vec![0usize; devices];
        let mut device_deadline_requests = vec![0usize; devices];
        for outcome in outcomes {
            invocations += outcome.sim.blocks;
            makespan_us = makespan_us.max(outcome.completion_us);
            latency_sum += outcome.latency_us;
            max_latency_us = max_latency_us.max(outcome.latency_us);
            deadline_misses += usize::from(outcome.missed_deadline);
            deadline_requests += usize::from(outcome.deadline_us.is_some());
            let device = outcome.device;
            device_latencies[device].push(outcome.latency_us);
            device_latency_sum[device] += outcome.latency_us;
            device_max_latency[device] = device_max_latency[device].max(outcome.latency_us);
            device_deadline_misses[device] += usize::from(outcome.missed_deadline);
            device_deadline_requests[device] += usize::from(outcome.deadline_us.is_some());
        }
        for latencies in &mut device_latencies {
            latencies.sort_by(f64::total_cmp);
        }
        let sorted_parts: Vec<&[f64]> = device_latencies.iter().map(Vec::as_slice).collect();
        let p50_latency_us = metrics::percentile_from_sorted_parts(&sorted_parts, 0.50);
        let p99_latency_us = metrics::percentile_from_sorted_parts(&sorted_parts, 0.99);
        let mean_latency_us = latency_sum / requests.max(1) as f64;
        let per_second = if makespan_us > 0.0 {
            1.0e6 / makespan_us
        } else {
            0.0
        };
        let utilization = |busy_us: f64| {
            if makespan_us > 0.0 {
                busy_us / makespan_us
            } else {
                0.0
            }
        };

        let device_metrics: Vec<DeviceMetrics> = self
            .devices
            .iter()
            .enumerate()
            .map(|(id, device)| {
                let states = device.pool.states();
                let served = device_latencies[id].len();
                let part: &[f64] = &device_latencies[id];
                DeviceMetrics {
                    device: id,
                    requests: served,
                    mean_latency_us: device_latency_sum[id] / served.max(1) as f64,
                    p50_latency_us: metrics::percentile_from_sorted_parts(&[part], 0.50),
                    p99_latency_us: metrics::percentile_from_sorted_parts(&[part], 0.99),
                    max_latency_us: device_max_latency[id],
                    switch_count: states.iter().map(|s| s.switches).sum(),
                    total_switch_us: states.iter().map(|s| s.switch_us).sum(),
                    tile_utilization: states.iter().map(|s| utilization(s.busy_us)).collect(),
                    tile_requests: states.iter().map(|s| s.served).collect(),
                    cache: cache_deltas[id],
                    deadline_misses: device_deadline_misses[id],
                    deadline_requests: device_deadline_requests[id],
                    rejects: output.device_rejects[id],
                    peak_queue_depth: output.device_peak_queue[id],
                    transfers_in: output.device_transfers[id].0,
                    transfer_bytes_in: output.device_transfers[id].1,
                    host_loads: output.device_host_loads[id],
                    availability: self
                        .fault
                        .as_ref()
                        .map_or(1.0, |f| f.availability(id, makespan_us)),
                    faults: self.fault.as_ref().map_or(0, |f| f.faults[id]),
                    requeues_out: self.fault.as_ref().map_or(0, |f| f.requeues[id]),
                    lost_work_us: self.fault.as_ref().map_or(0.0, |f| f.lost_work_us[id]),
                }
            })
            .collect();

        let all_states = || self.devices.iter().flat_map(|d| d.pool.states());
        let cache_total = cache_deltas
            .iter()
            .fold(CacheStats::default(), |acc, d| CacheStats {
                hits: acc.hits + d.hits,
                misses: acc.misses + d.misses,
                evictions: acc.evictions + d.evictions,
            });
        let totals = RuntimeMetrics {
            requests,
            invocations,
            makespan_us,
            requests_per_sec: requests as f64 * per_second,
            invocations_per_sec: invocations as f64 * per_second,
            mean_latency_us,
            p50_latency_us,
            p99_latency_us,
            max_latency_us,
            switch_count: all_states().map(|s| s.switches).sum(),
            total_switch_us: all_states().map(|s| s.switch_us).sum(),
            tile_utilization: all_states().map(|s| utilization(s.busy_us)).collect(),
            tile_requests: all_states().map(|s| s.served).collect(),
            cache: cache_total,
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
            tile_peak_queue: all_states().map(|s| s.peak_queue_depth).collect(),
            latency_hist: obs::LogHistogram::merged(
                &output.device_latency_hists.iter().collect::<Vec<_>>(),
            ),
            queue_depth_hist: output.queue_depth_hist.clone(),
        };
        (totals, device_metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::PipelineStage;
    use crate::{KernelSpec, Request};
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
                let workload = Workload::random(inputs, blocks, 0xC105 ^ i as u64);
                Request::new(i as u64, spec, workload).at(i as f64 * 2.0)
            })
            .collect()
    }

    #[test]
    fn serial_serves_share_one_sim_pool_and_sharded_lanes_own_theirs() {
        let mut cluster = Cluster::new(FuVariant::V4, 4, 4).unwrap();
        let counts = cluster.sim_pool.counts();
        for _ in 0..4 {
            cluster.serve(benchmark_trace(12, 4)).unwrap();
        }
        for _ in 0..3 {
            cluster
                .serve_stream(|submitter| {
                    for request in benchmark_trace(12, 4) {
                        submitter.submit(request).unwrap();
                    }
                })
                .unwrap();
        }
        let workers = Runtime::MAX_SIM_WORKERS;
        assert_eq!(counts.spawned_live(), (workers, workers));
        drop(cluster);
        assert_eq!(counts.spawned_live(), (workers, 0));

        // A sharded serve runs each lane on a pool of its own, joined at
        // lane end; the cluster's pool spawns at its first serial serve.
        let mut cluster = Cluster::new(FuVariant::V4, 2, 2).unwrap().with_threads(2);
        let counts = cluster.sim_pool.counts();
        assert!(cluster.sharded_eligible());
        cluster.serve(benchmark_trace(12, 4)).unwrap();
        assert_eq!(counts.spawned_live(), (0, 0));
        cluster
            .serve_stream(|submitter| {
                for request in benchmark_trace(12, 4) {
                    submitter.submit(request).unwrap();
                }
            })
            .unwrap();
        assert_eq!(counts.spawned_live(), (4, 4));
    }

    #[test]
    fn empty_clusters_and_pools_are_rejected() {
        assert!(matches!(
            Cluster::new(FuVariant::V4, 0, 4),
            Err(RuntimeError::EmptyCluster)
        ));
        assert!(matches!(
            Cluster::new(FuVariant::V4, 2, 0),
            Err(RuntimeError::EmptyPool)
        ));
    }

    #[test]
    fn builders_configure_every_device() {
        let cluster = Cluster::new(FuVariant::V3, 3, 2)
            .unwrap()
            .with_policy(DispatchPolicy::EarliestDeadlineFirst)
            .with_route_policy(RoutePolicy::LeastLoaded)
            .with_transfer_model(TransferModel::free())
            .with_cache_capacity(8)
            .unwrap()
            .with_admission_limit(5);
        assert_eq!(cluster.num_devices(), 3);
        assert_eq!(cluster.tiles_per_device(), 2);
        assert_eq!(cluster.total_tiles(), 6);
        assert_eq!(cluster.variant(), FuVariant::V3);
        assert_eq!(cluster.policy(), DispatchPolicy::EarliestDeadlineFirst);
        assert_eq!(cluster.route_policy(), RoutePolicy::LeastLoaded);
        assert_eq!(cluster.transfer_model(), TransferModel::free());
        assert_eq!(cluster.admission_limit(), 5);
        for (id, device) in cluster.devices().iter().enumerate() {
            assert_eq!(device.id(), id);
            assert_eq!(device.pool().num_tiles(), 2);
            assert_eq!(device.cache().capacity(), 8);
        }
    }

    #[test]
    fn kernel_hash_routing_pins_each_kernel_to_one_device() {
        let requests = benchmark_trace(24, 4);
        let mut cluster = Cluster::new(FuVariant::V4, 4, 2).unwrap();
        let report = cluster.serve(requests).unwrap();
        assert_eq!(report.route_policy(), RoutePolicy::KernelHash);
        let mut device_of: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        for outcome in report.outcomes() {
            let previous = device_of.insert(outcome.kernel.to_string(), outcome.device);
            if let Some(previous) = previous {
                assert_eq!(previous, outcome.device, "{} moved shards", outcome.kernel);
            }
        }
        // A sharded kernel never leaves its home, so nothing ever transfers.
        assert_eq!(report.transfers(), 0);
        assert_eq!(report.host_loads(), 0);
    }

    #[test]
    fn least_loaded_routing_spreads_a_burst_across_devices() {
        // 8 simultaneous single-kernel arrivals on 4 single-tile devices:
        // kernel-hash piles them on one device, least-loaded fans them out.
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let burst: Vec<Request> = (0..8)
            .map(|i| Request::new(i, spec.clone(), Workload::random(5, 64, i)).at(0.0))
            .collect();
        let mut hashed = Cluster::new(FuVariant::V4, 4, 1).unwrap();
        let hashed_report = hashed.serve(burst.clone()).unwrap();
        let hashed_devices: std::collections::HashSet<usize> =
            hashed_report.outcomes().iter().map(|o| o.device).collect();
        assert_eq!(hashed_devices.len(), 1, "one kernel, one shard");

        let mut balanced = Cluster::new(FuVariant::V4, 4, 1)
            .unwrap()
            .with_route_policy(RoutePolicy::LeastLoaded);
        let balanced_report = balanced.serve(burst).unwrap();
        let balanced_devices: std::collections::HashSet<usize> = balanced_report
            .outcomes()
            .iter()
            .map(|o| o.device)
            .collect();
        assert_eq!(balanced_devices.len(), 4, "burst fans out over all devices");
        // Spreading a kernel off its home shard moves its image.
        assert_eq!(
            balanced_report.transfers() + balanced_report.host_loads(),
            3,
            "three devices acquired the image"
        );
        assert!(
            balanced_report.metrics().makespan_us < hashed_report.metrics().makespan_us,
            "balancing the burst must finish earlier"
        );
    }

    #[test]
    fn transfers_beat_host_loads_when_the_link_is_cheaper() {
        // Same spread-out burst, but with a free host path: no transfers.
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let burst: Vec<Request> = (0..8)
            .map(|i| Request::new(i, spec.clone(), Workload::random(5, 4, i)).at(0.0))
            .collect();
        let mut linked = Cluster::new(FuVariant::V4, 4, 1)
            .unwrap()
            .with_route_policy(RoutePolicy::LeastLoaded);
        let linked_report = linked.serve(burst.clone()).unwrap();
        assert!(linked_report.transfers() > 0, "default link beats the host");
        assert!(linked_report.transfer_bytes() > 0);

        let mut hosted = Cluster::new(FuVariant::V4, 4, 1)
            .unwrap()
            .with_route_policy(RoutePolicy::LeastLoaded)
            .with_transfer_model(TransferModel {
                host_latency_us: 0.0,
                host_us_per_byte: 0.0,
                ..TransferModel::new()
            });
        let hosted_report = hosted.serve(burst).unwrap();
        assert_eq!(hosted_report.transfers(), 0, "free host loads win");
        assert_eq!(hosted_report.host_loads(), 3);
    }

    #[test]
    fn per_device_metrics_roll_up_to_the_cluster_totals() {
        let requests = benchmark_trace(32, 4);
        let mut cluster = Cluster::new(FuVariant::V4, 3, 2)
            .unwrap()
            .with_route_policy(RoutePolicy::PowerOfTwoChoices);
        let report = cluster.serve(requests).unwrap();
        let totals = report.metrics();
        let devices = report.device_metrics();
        assert_eq!(devices.len(), 3);
        assert_eq!(
            devices.iter().map(|d| d.requests).sum::<usize>(),
            totals.requests
        );
        assert_eq!(
            devices.iter().map(|d| d.switch_count).sum::<usize>(),
            totals.switch_count
        );
        assert_eq!(
            devices
                .iter()
                .map(|d| d.cache.hits + d.cache.misses)
                .sum::<usize>(),
            totals.cache.hits + totals.cache.misses
        );
        let flattened: Vec<usize> = devices
            .iter()
            .flat_map(|d| d.tile_requests.iter().copied())
            .collect();
        assert_eq!(flattened, totals.tile_requests);
        for device in devices {
            assert!(device.p50_latency_us <= device.p99_latency_us);
            assert!(device.p99_latency_us <= device.max_latency_us);
            assert!(device.max_latency_us <= totals.max_latency_us);
            assert!(device.peak_queue_depth <= totals.peak_queue_depth);
        }
        // The merged cluster percentiles bracket the per-device extremes.
        assert!(totals.p99_latency_us <= totals.max_latency_us);
    }

    /// Acquisition rules are uniform under store eviction: a device whose
    /// capacity-1 store thrashes between kernels pays to re-acquire evicted
    /// images (home shard included), while a 1-device cluster under the
    /// same eviction pressure still never acquires — it must stay bitwise
    /// `Runtime`-equivalent.
    #[test]
    fn tiny_stores_reacquire_evicted_images_and_one_device_stays_exempt() {
        let trace = benchmark_trace(16, 4);
        let mut thrashing = Cluster::new(FuVariant::V4, 2, 1)
            .unwrap()
            .with_route_policy(RoutePolicy::LeastLoaded)
            .with_cache_capacity(1)
            .unwrap();
        let report = thrashing.serve(trace.clone()).unwrap();
        assert_eq!(report.outcomes().len(), 16);
        assert!(
            report.transfers() + report.host_loads() > 2,
            "4 kernels through capacity-1 stores must keep re-acquiring, got {} + {}",
            report.transfers(),
            report.host_loads()
        );

        let mut single = Cluster::new(FuVariant::V4, 1, 2)
            .unwrap()
            .with_cache_capacity(1)
            .unwrap();
        let mut runtime = Runtime::new(FuVariant::V4, 2)
            .unwrap()
            .with_cache_capacity(1)
            .unwrap();
        let cluster_report = single.serve(trace.clone()).unwrap();
        let runtime_report = runtime.serve(trace).unwrap();
        assert_eq!(cluster_report.transfers(), 0);
        assert_eq!(cluster_report.host_loads(), 0);
        assert_eq!(cluster_report.metrics(), runtime_report.metrics());
    }

    #[test]
    fn cluster_admission_limit_is_cluster_wide() {
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let burst: Vec<Request> = (0..12)
            .map(|i| Request::new(i, spec.clone(), Workload::random(5, 4, i)).at(0.0))
            .collect();
        let mut cluster = Cluster::new(FuVariant::V4, 2, 1)
            .unwrap()
            .with_route_policy(RoutePolicy::LeastLoaded)
            .with_admission_limit(2);
        let report = cluster.serve(burst).unwrap();
        // 2 start immediately (one per device), 2 wait, the rest shed.
        assert_eq!(report.outcomes().len(), 4);
        assert_eq!(report.metrics().rejects, 8);
        assert_eq!(
            report
                .device_metrics()
                .iter()
                .map(|d| d.rejects)
                .sum::<usize>(),
            8
        );
    }

    #[test]
    fn streamed_and_batch_cluster_serves_agree() {
        // Two *fresh* clusters: acquisition decisions depend on the kernel
        // stores, which persist across serves on one cluster.
        let requests = benchmark_trace(12, 4);
        let cluster = || {
            Cluster::new(FuVariant::V4, 2, 2)
                .unwrap()
                .with_route_policy(RoutePolicy::PowerOfTwoChoices)
        };
        let batch = cluster().serve(requests.clone()).unwrap();
        let streamed = cluster()
            .serve_stream(|submitter| {
                for request in &requests {
                    submitter.submit(request.clone()).unwrap();
                }
            })
            .unwrap();
        assert_eq!(batch.outcomes().len(), streamed.outcomes().len());
        for (lhs, rhs) in batch.outcomes().iter().zip(streamed.outcomes()) {
            assert_eq!(lhs.request_id, rhs.request_id);
            assert_eq!(lhs.device, rhs.device);
            assert_eq!(lhs.tile, rhs.tile);
            assert_eq!(lhs.completion_us, rhs.completion_us);
        }
        assert_eq!(batch.metrics(), streamed.metrics());
    }

    #[test]
    fn invalid_cluster_traces_are_rejected() {
        let mut cluster = Cluster::new(FuVariant::V4, 2, 1).unwrap();
        assert!(matches!(
            cluster.serve(Vec::new()),
            Err(RuntimeError::NoRequests)
        ));
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let first = Request::new(0, spec.clone(), Workload::ramp(5, 2)).at(10.0);
        let stale = Request::new(1, spec, Workload::ramp(5, 2)).at(5.0);
        assert!(matches!(
            cluster.serve(vec![first, stale]),
            Err(RuntimeError::OutOfOrderArrival { request: 1, .. })
        ));
    }

    fn benchmark_chain(id: u64, session: u64, stages: usize, arrival_us: f64) -> PipelineRequest {
        let suite = [
            Benchmark::Gradient,
            Benchmark::Chebyshev,
            Benchmark::Qspline,
            Benchmark::Poly5,
        ];
        PipelineRequest::chain(
            id,
            session,
            (0..stages).map(|stage| {
                let benchmark = suite[stage % suite.len()];
                let spec = KernelSpec::from_benchmark(benchmark).unwrap();
                let inputs = benchmark.dfg().unwrap().num_inputs();
                (spec, Workload::random(inputs, 4, id ^ stage as u64))
            }),
        )
        .at(arrival_us)
    }

    #[test]
    fn pipeline_stages_run_in_dependency_order_with_activation_transfers() {
        let mut cluster = Cluster::new(FuVariant::V4, 4, 2)
            .unwrap()
            .with_route_policy(RoutePolicy::PowerOfTwoChoices);
        let pipelines: Vec<PipelineRequest> = (0..6)
            .map(|i| benchmark_chain(i, i % 2, 3, i as f64 * 5.0))
            .collect();
        let sessions = [Session::new(0), Session::new(1).with_slo(SloClass::Latency)];
        let report = cluster.serve_pipelines(pipelines, &sessions).unwrap();
        assert_eq!(report.pipelines.len(), 6);
        assert_eq!(report.completed(), 6);
        // Every stage is one cluster outcome: 6 pipelines × 3 stages.
        assert_eq!(report.cluster.outcomes().len(), 18);
        // Dependency order: each stage of a chain starts no earlier than
        // its predecessor's completion.
        for pipeline in &report.pipelines {
            let by_stage: Vec<&RequestOutcome> = (0..pipeline.stages)
                .map(|stage| {
                    let id = (pipeline.id << 16) | stage as u64;
                    report
                        .cluster
                        .outcomes()
                        .iter()
                        .find(|o| o.request_id == id)
                        .expect("every stage has an outcome")
                })
                .collect();
            for pair in by_stage.windows(2) {
                assert!(
                    pair[1].start_us >= pair[0].completion_us,
                    "a stage started before its input committed"
                );
            }
            assert_eq!(pipeline.finish_us, by_stage[2].completion_us);
            assert!(pipeline.commit_us >= pipeline.finish_us);
        }
        // Depth buckets 0..=2 and both SLO classes are reported.
        assert_eq!(report.stages.len(), 3);
        assert!(report.stages.iter().all(|s| s.served == 6));
        assert!(report.class(SloClass::Latency).is_some());
        assert!(report.class(SloClass::Standard).is_some());
    }

    #[test]
    fn stage_affinity_cuts_activation_transfers() {
        // Heavy activations under kernel-hash routing: blind routing sends
        // each stage to its kernel's home device (a transfer on almost
        // every edge), affinity keeps consumers on their producers.
        let serve = |affinity: bool| {
            let mut cluster = Cluster::new(FuVariant::V4, 4, 1)
                .unwrap()
                .with_route_policy(RoutePolicy::KernelHash)
                .with_stage_affinity(affinity);
            let pipelines: Vec<PipelineRequest> = (0..8)
                .map(|i| {
                    let mut pipeline = benchmark_chain(i, i, 3, i as f64 * 2.0);
                    for stage in &mut pipeline.stages {
                        stage.output_bytes = 1 << 20;
                    }
                    pipeline
                })
                .collect();
            let sessions: Vec<Session> = (0..8).map(Session::new).collect();
            cluster.serve_pipelines(pipelines, &sessions).unwrap()
        };
        let blind = serve(false);
        let affine = serve(true);
        assert_eq!(blind.completed(), 8);
        assert_eq!(affine.completed(), 8);
        assert!(
            affine.activation_transfers() < blind.activation_transfers(),
            "affinity {} should beat blind {}",
            affine.activation_transfers(),
            blind.activation_transfers()
        );
    }

    #[test]
    fn single_stage_standard_pipelines_match_the_plain_serve_bitwise() {
        let requests = benchmark_trace(12, 4);
        let pipelines: Vec<PipelineRequest> = requests
            .iter()
            .map(|request| {
                PipelineRequest::new(request.id, request.id % 3)
                    .at(request.arrival_us)
                    .stage(PipelineStage::new(
                        request.kernel.clone(),
                        request.workload.clone(),
                    ))
            })
            .collect();
        let sessions: Vec<Session> = (0..3).map(Session::new).collect();
        let mut plain = Cluster::new(FuVariant::V4, 2, 2).unwrap();
        let mut piped = Cluster::new(FuVariant::V4, 2, 2).unwrap();
        let plain_report = plain.serve(requests).unwrap();
        let piped_report = piped.serve_pipelines(pipelines, &sessions).unwrap();
        assert_eq!(
            plain_report.outcomes().len(),
            piped_report.cluster.outcomes().len()
        );
        for (lhs, rhs) in plain_report
            .outcomes()
            .iter()
            .zip(piped_report.cluster.outcomes())
        {
            assert_eq!(lhs.request_id, rhs.request_id);
            assert_eq!(lhs.device, rhs.device);
            assert_eq!(lhs.tile, rhs.tile);
            assert_eq!(lhs.start_us.to_bits(), rhs.start_us.to_bits());
            assert_eq!(lhs.completion_us.to_bits(), rhs.completion_us.to_bits());
        }
        assert_eq!(plain_report.metrics(), piped_report.cluster.metrics());
    }

    #[test]
    fn weighted_fair_admission_shields_the_latency_tier() {
        // A saturating burst: one single-tile device, admission limit 6.
        // Best-effort floods, latency trickles. Weighted-fair shares keep
        // queue slots for the latency session that a plain FIFO limit
        // would let the flood consume.
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let mut pipelines = Vec::new();
        for i in 0..12u64 {
            pipelines.push(
                PipelineRequest::new(i, 9)
                    .at(0.0)
                    .stage(PipelineStage::new(spec.clone(), Workload::random(5, 64, i)))
                    .with_deadline(1e9),
            );
        }
        for i in 12..16u64 {
            pipelines.push(
                PipelineRequest::new(i, 7)
                    .at(1.0)
                    .stage(PipelineStage::new(spec.clone(), Workload::random(5, 64, i)))
                    .with_deadline(1e9),
            );
        }
        let sessions = [
            Session::new(9).with_slo(SloClass::BestEffort),
            Session::new(7).with_slo(SloClass::Latency),
        ];
        let mut cluster = Cluster::new(FuVariant::V4, 1, 1)
            .unwrap()
            .with_admission_limit(6);
        let report = cluster.serve_pipelines(pipelines, &sessions).unwrap();
        let latency = report.class(SloClass::Latency).unwrap();
        let best_effort = report.class(SloClass::BestEffort).unwrap();
        // Weighted shares of 6 over total weight 5: latency 4, best 1 —
        // the flood cannot take the whole queue.
        assert_eq!(latency.pipelines, 4);
        assert!(
            latency.rejected < best_effort.rejected,
            "latency tier ({} rejects) should shed less than best-effort ({})",
            latency.rejected,
            best_effort.rejected
        );
        assert!(best_effort.rejected > 0, "the flood must actually shed");
    }

    #[test]
    fn a_mid_serve_kill_requeues_stages_without_losing_finished_work() {
        let pipelines: Vec<PipelineRequest> = (0..6)
            .map(|i| benchmark_chain(i, i, 3, i as f64 * 10.0))
            .collect();
        let sessions: Vec<Session> = (0..6).map(Session::new).collect();
        let mut cluster = Cluster::new(FuVariant::V4, 3, 1)
            .unwrap()
            .with_route_policy(RoutePolicy::LeastLoaded)
            .with_fault_plan(FaultPlan::new().kill(40.0, 1));
        let report = cluster.serve_pipelines(pipelines, &sessions).unwrap();
        // The kill displaces resident stages but never un-completes
        // upstream ones: every pipeline still runs all stages.
        assert_eq!(report.completed(), 6);
        for pipeline in &report.pipelines {
            assert_eq!(pipeline.completed_stages, 3);
            assert!(!pipeline.rejected);
        }
        assert_eq!(report.cluster.outcomes().len(), 18);
        // Nothing lands on the dead device after the kill.
        for outcome in report.cluster.outcomes() {
            if outcome.start_us >= 40.0 {
                assert_ne!(outcome.device, 1, "a stage started on the dead device");
            }
        }
    }

    #[test]
    fn invalid_pipelines_are_rejected_before_serving() {
        let mut cluster = Cluster::new(FuVariant::V4, 2, 1).unwrap();
        assert!(matches!(
            cluster.serve_pipelines(Vec::new(), &[]),
            Err(RuntimeError::NoRequests)
        ));
        let spec = KernelSpec::from_benchmark(Benchmark::Gradient).unwrap();
        let cyclic = PipelineRequest::new(3, 0)
            .stage(PipelineStage::new(spec.clone(), Workload::ramp(5, 2)).after(&[1]))
            .stage(PipelineStage::new(spec, Workload::ramp(5, 2)).after(&[0]));
        assert!(matches!(
            cluster.serve_pipelines(vec![cyclic], &[]),
            Err(RuntimeError::InvalidPipeline { pipeline: 3, .. })
        ));
    }
}
