//! The system under test: a single-device `Runtime` or a `Cluster`, served
//! through the public API only.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_overlay::runtime::{RequestOutcome, RuntimeError};
use tm_overlay::{
    Cluster, ClusterReport, DispatchPolicy, Request, RoutePolicy, Runtime, RuntimeMetrics,
    ServeReport, Submitter,
};

use crate::gen::{Kind, Plan, VARIANT};

/// Capacity overrides for the per-layer replicas; `None` keeps the default.
#[derive(Debug, Clone, Copy, Default)]
pub struct Overrides {
    pub sim_memo: Option<usize>,
    pub kernel_cache: Option<usize>,
    pub threads: Option<usize>,
}

#[derive(Debug)]
pub enum Target {
    Runtime(Box<Runtime>),
    Cluster(Box<Cluster>),
}

impl Target {
    /// The workload's serving instance, as the workload defines it.
    pub fn build(kind: Kind, overrides: Overrides) -> Result<Target, RuntimeError> {
        let shape = kind.shape();
        let target = match kind {
            Kind::WarmBatch => {
                let mut runtime = Runtime::new(VARIANT, shape.tiles)?
                    .with_policy(DispatchPolicy::EarliestDeadlineFirst);
                if let Some(capacity) = overrides.kernel_cache {
                    runtime = runtime.with_cache_capacity(capacity)?;
                }
                if let Some(capacity) = overrides.sim_memo {
                    runtime = runtime.with_sim_memo_capacity(capacity);
                }
                Target::Runtime(Box::new(runtime))
            }
            Kind::ColdSharded | Kind::StreamChurn => {
                let mut cluster = Cluster::new(VARIANT, shape.devices, shape.tiles)?;
                cluster = if kind == Kind::ColdSharded {
                    cluster
                        .with_route_policy(RoutePolicy::KernelHash)
                        .with_threads(overrides.threads.unwrap_or(2))
                } else {
                    cluster.with_route_policy(RoutePolicy::LeastLoaded)
                };
                if let Some(capacity) = overrides.kernel_cache {
                    cluster = cluster.with_cache_capacity(capacity)?;
                }
                if let Some(capacity) = overrides.sim_memo {
                    cluster = cluster.with_sim_memo_capacity(capacity);
                }
                Target::Cluster(Box::new(cluster))
            }
        };
        Ok(target)
    }

    /// One batch serve; `requests` is built before the clock starts.
    pub fn serve(&mut self, requests: Vec<Request>) -> (Duration, Result<Report, RuntimeError>) {
        let start = Instant::now();
        let report = match self {
            Target::Runtime(runtime) => runtime.serve(requests).map(Report::Runtime),
            Target::Cluster(cluster) => cluster.serve(requests).map(Report::Cluster),
        };
        (start.elapsed(), report)
    }

    /// One streaming serve fed by `feed` on the program's feeder thread.
    pub fn serve_stream<F>(&mut self, feed: F) -> (Duration, Result<Report, RuntimeError>)
    where
        F: FnOnce(Submitter) + Send,
    {
        let start = Instant::now();
        let report = match self {
            Target::Runtime(runtime) => runtime.serve_stream(feed).map(Report::Runtime),
            Target::Cluster(cluster) => cluster.serve_stream(feed).map(Report::Cluster),
        };
        (start.elapsed(), report)
    }

    /// Serves `trace` the way the workload serves: batch or streaming.
    /// With `submit_ns` the feeder times every `Submitter::submit` call
    /// (start offset from `epoch` and duration, nanoseconds).
    pub fn serve_trace(
        &mut self,
        plan: &Plan,
        trace: &[Arc<Request>],
        submit_ns: Option<(&mut Vec<(u64, u64)>, Instant)>,
    ) -> (Duration, Result<Report, RuntimeError>) {
        if !plan.kind.streaming() {
            let requests: Vec<Request> = trace.iter().map(|r| Request::clone(r)).collect();
            return self.serve(requests);
        }
        match submit_ns {
            None => self.serve_stream(|submitter| {
                for request in trace {
                    if submitter.submit(Arc::clone(request)).is_err() {
                        break; // the loop failed; the serve reports why
                    }
                }
            }),
            Some((calls, epoch)) => self.serve_stream(move |submitter| {
                for request in trace {
                    let start = Instant::now();
                    let sent = submitter.submit(Arc::clone(request));
                    let end = Instant::now();
                    calls.push((nanos(start - epoch), nanos(end - start)));
                    if sent.is_err() {
                        break;
                    }
                }
            }),
        }
    }
}

pub fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Debug)]
pub enum Report {
    Runtime(ServeReport),
    Cluster(ClusterReport),
}

impl Report {
    pub fn outcomes(&self) -> &[RequestOutcome] {
        match self {
            Report::Runtime(report) => report.outcomes(),
            Report::Cluster(report) => report.outcomes(),
        }
    }

    pub fn rejected_ids(&self) -> Vec<u64> {
        let rejected = match self {
            Report::Runtime(report) => report.rejected(),
            Report::Cluster(report) => report.rejected(),
        };
        rejected.iter().map(|r| r.id).collect()
    }

    pub fn metrics(&self) -> &RuntimeMetrics {
        match self {
            Report::Runtime(report) => report.metrics(),
            Report::Cluster(report) => report.metrics(),
        }
    }

    /// Kernel images moved between devices.
    pub fn transfers(&self) -> usize {
        match self {
            Report::Runtime(_) => 0,
            Report::Cluster(report) => report.transfers(),
        }
    }

    /// Kernel images loaded from the host into a device store.
    pub fn host_loads(&self) -> usize {
        match self {
            Report::Runtime(_) => 0,
            Report::Cluster(report) => report.host_loads(),
        }
    }

    /// Requests served per device.
    pub fn device_requests(&self) -> Vec<usize> {
        match self {
            Report::Runtime(report) => vec![report.metrics().requests],
            Report::Cluster(report) => report.device_metrics().iter().map(|d| d.requests).collect(),
        }
    }
}
