//! A failed serve must leave its `Runtime`/`Cluster` reusable: every serve
//! here first fails *after* simulations were dealt to the sim workers (an
//! out-of-order arrival partway through the trace, or a width-mismatched
//! workload whose simulation fails while its neighbours' are in flight),
//! and the next good serve must equal, bitwise, the same serve on a fresh
//! identically-built instance.
//!
//! The failing traces use kernels and workloads the good trace never uses,
//! so the compiled kernels and memoized runs they leave behind are inert for
//! the good serve (warm caches are legitimate carry-over state). Anything
//! else crossing the serve boundary — a stale simulation result, queue or
//! pool state — shows up as a difference.

use tm_overlay::{
    Benchmark, Cluster, ClusterReport, DispatchPolicy, FuVariant, KernelSpec, Request, RoutePolicy,
    Runtime, ServeReport, Workload,
};

/// The trace the instances are compared on: four suite kernels, distinct
/// workloads, dense enough that the admission limit sheds some requests
/// and deadlines that some requests miss.
fn good_trace() -> Vec<Request> {
    let suite = [
        Benchmark::Gradient,
        Benchmark::Chebyshev,
        Benchmark::Qspline,
        Benchmark::Poly5,
    ];
    (0..40)
        .map(|i| {
            let benchmark = suite[i % suite.len()];
            let spec = KernelSpec::from_benchmark(benchmark).unwrap();
            let inputs = benchmark.dfg().unwrap().num_inputs();
            let workload = Workload::random(inputs, 12, 0x600D ^ i as u64);
            let arrival = i as f64 * 0.05;
            let request = Request::new(i as u64, spec, workload).at(arrival);
            if i % 3 == 0 {
                request.with_deadline(arrival + 1.0)
            } else {
                request
            }
        })
        .collect()
}

/// Long simulations over kernels the good trace never uses, so several are
/// still in flight on the workers when the serve fails.
fn slow_requests(count: usize) -> Vec<Request> {
    let suite = [
        Benchmark::Sgfilter,
        Benchmark::Poly6,
        Benchmark::Poly7,
        Benchmark::Poly8,
    ];
    (0..count)
        .map(|i| {
            let benchmark = suite[i % suite.len()];
            let spec = KernelSpec::from_benchmark(benchmark).unwrap();
            let inputs = benchmark.dfg().unwrap().num_inputs();
            let workload = Workload::random(inputs, 256, 0xBAD ^ i as u64);
            Request::new(1000 + i as u64, spec, workload).at(i as f64 * 0.25)
        })
        .collect()
}

/// Fails with an out-of-order arrival after 24 requests were admitted.
fn out_of_order_trace() -> Vec<Request> {
    let mut trace = slow_requests(24);
    let spec = KernelSpec::from_benchmark(Benchmark::Mibench).unwrap();
    let inputs = Benchmark::Mibench.dfg().unwrap().num_inputs();
    trace.push(Request::new(2000, spec, Workload::ramp(inputs, 4)).at(1.0));
    trace.extend(slow_requests(8).into_iter().map(|r| {
        let arrival = r.arrival_us + 10.0;
        r.at(arrival)
    }));
    trace
}

/// Fails in simulation: request 5 carries 1-wide records for a kernel with
/// more inputs, and its neighbours' simulations are dealt around it.
fn width_mismatch_trace() -> Vec<Request> {
    let mut trace = slow_requests(24);
    let spec = KernelSpec::from_benchmark(Benchmark::Mibench).unwrap();
    assert!(Benchmark::Mibench.dfg().unwrap().num_inputs() > 1);
    let arrival = trace[5].arrival_us;
    trace[5] = Request::new(2001, spec, Workload::ramp(1, 4)).at(arrival);
    trace
}

fn assert_serves_identical(a: &ServeReport, b: &ServeReport) {
    assert_eq!(a.outcomes().len(), b.outcomes().len());
    for (lhs, rhs) in a.outcomes().iter().zip(b.outcomes()) {
        assert_eq!(lhs.request_id, rhs.request_id);
        assert_eq!(lhs.tile, rhs.tile);
        assert_eq!(lhs.start_us.to_bits(), rhs.start_us.to_bits());
        assert_eq!(lhs.completion_us.to_bits(), rhs.completion_us.to_bits());
        assert_eq!(lhs.queued_us.to_bits(), rhs.queued_us.to_bits());
        assert_eq!(lhs.latency_us.to_bits(), rhs.latency_us.to_bits());
        assert_eq!(lhs.switched, rhs.switched);
        assert_eq!(lhs.missed_deadline, rhs.missed_deadline);
        assert_eq!(lhs.outputs(), rhs.outputs());
    }
    assert_eq!(a.rejected(), b.rejected());
    assert_eq!(a.metrics(), b.metrics());
}

fn assert_cluster_serves_identical(a: &ClusterReport, b: &ClusterReport) {
    assert_eq!(a.outcomes().len(), b.outcomes().len());
    for (lhs, rhs) in a.outcomes().iter().zip(b.outcomes()) {
        assert_eq!(lhs.request_id, rhs.request_id);
        assert_eq!(lhs.device, rhs.device);
        assert_eq!(lhs.tile, rhs.tile);
        assert_eq!(lhs.start_us.to_bits(), rhs.start_us.to_bits());
        assert_eq!(lhs.completion_us.to_bits(), rhs.completion_us.to_bits());
        assert_eq!(lhs.queued_us.to_bits(), rhs.queued_us.to_bits());
        assert_eq!(lhs.latency_us.to_bits(), rhs.latency_us.to_bits());
        assert_eq!(lhs.switched, rhs.switched);
        assert_eq!(lhs.missed_deadline, rhs.missed_deadline);
        assert_eq!(lhs.outputs(), rhs.outputs());
    }
    assert_eq!(a.rejected(), b.rejected());
    assert_eq!(a.metrics(), b.metrics());
    assert_eq!(a.device_metrics(), b.device_metrics());
}

fn runtime() -> Runtime {
    Runtime::new(FuVariant::V4, 4)
        .unwrap()
        .with_policy(DispatchPolicy::EarliestDeadlineFirst)
        .with_admission_limit(6)
}

/// Streams `trace` in order, stopping once the serve has failed and closed
/// its ingest channel.
fn feed(trace: Vec<Request>) -> impl FnOnce(tm_overlay::Submitter) + Send {
    move |submitter| {
        for request in trace {
            if submitter.submit(request).is_err() {
                break;
            }
        }
    }
}

#[test]
fn a_runtime_serve_after_failed_serves_equals_a_fresh_runtime() {
    let mut reused = runtime();
    assert!(reused.serve(out_of_order_trace()).is_err());
    assert!(reused.serve(width_mismatch_trace()).is_err());
    let after_failures = reused.serve(good_trace()).unwrap();
    assert!(
        !after_failures.rejected().is_empty(),
        "admission sheds load"
    );
    assert!(after_failures.metrics().deadline_misses > 0);

    let fresh = runtime().serve(good_trace()).unwrap();
    assert_serves_identical(&after_failures, &fresh);
}

#[test]
fn a_runtime_stream_after_failed_streams_equals_a_fresh_runtime() {
    let mut reused = runtime();
    assert!(reused.serve_stream(feed(out_of_order_trace())).is_err());
    assert!(reused.serve_stream(feed(width_mismatch_trace())).is_err());
    let after_failures = reused.serve_stream(feed(good_trace())).unwrap();

    let fresh = runtime().serve_stream(feed(good_trace())).unwrap();
    assert_serves_identical(&after_failures, &fresh);
}

#[test]
fn a_cluster_serve_after_failed_serves_equals_a_fresh_cluster() {
    for route in [RoutePolicy::KernelHash, RoutePolicy::LeastLoaded] {
        let cluster = || {
            Cluster::new(FuVariant::V4, 3, 2)
                .unwrap()
                .with_route_policy(route)
                .with_policy(DispatchPolicy::EarliestDeadlineFirst)
                .with_admission_limit(6)
        };
        let mut reused = cluster();
        assert!(reused.serve(out_of_order_trace()).is_err());
        assert!(reused.serve(width_mismatch_trace()).is_err());
        let after_failures = reused.serve(good_trace()).unwrap();

        let fresh = cluster().serve(good_trace()).unwrap();
        assert_cluster_serves_identical(&after_failures, &fresh);
    }
}
