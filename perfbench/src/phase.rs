//! Set-up and the timed serving phase: closed loop over the plan's rounds,
//! every serve checked, counters summed, modeled statistics taken over the
//! first pass.

use std::time::Instant;

use tm_overlay::runtime::RuntimeError;

use crate::check::{check_serve, modeled_fingerprint, Checked};
use crate::gen::Plan;
use crate::spans::{Spans, TID_FEEDER};
use crate::stats::{host_probe, median};
use crate::target::{Overrides, Report, Target};

/// Set-ups measured during an untraced timed phase, spread evenly over it
/// so they meet the same host conditions the serves meet; `setup_s` is the
/// median of these and the initial set-up.
pub const MID_RUN_SETUPS: usize = 8;

/// Seconds between host probes during a timed phase.
pub const PROBE_INTERVAL_S: f64 = 0.25;

/// The host probe's time on the reference host. Tracked host times are
/// divided by the `host_factor` of the probe taken just before them, so
/// they read as on a host where the probe takes exactly this long.
pub const REFERENCE_PROBE_S: f64 = 1e-3;

/// Fresh-instance serve pairs the streaming determinism check makes.
pub const FLAP_CHECKS: usize = 4;

/// One set-up: builds the workload's instance and serves its warm-up
/// trace. Returns the instance and the seconds it took.
pub fn set_up(plan: &Plan, checked: &mut Checked) -> Result<(Target, f64), RuntimeError> {
    let start = Instant::now();
    let mut target = Target::build(plan.kind, Overrides::default())?;
    let (_, served) = target.serve_trace(plan, &plan.warmup, None);
    let seconds = start.elapsed().as_secs_f64();
    absorb(checked, check_serve(plan, &plan.warmup_pairs, &served));
    served?;
    Ok((target, seconds))
}

pub fn absorb(total: &mut Checked, one: Checked) {
    total.submitted += one.submitted;
    total.failed += one.failed;
}

/// Serves round `r` on two fresh, identically set-up instances and compares
/// their modeled statistics, `FLAP_CHECKS` times. Returns the number of
/// mismatching pairs.
pub fn stream_flaps(plan: &Plan, checked: &mut Checked) -> Result<usize, RuntimeError> {
    let mut flaps = 0;
    for check in 0..FLAP_CHECKS {
        let round = check % plan.rounds.len();
        let mut fingerprints = Vec::with_capacity(2);
        for _ in 0..2 {
            let mut target = Target::build(plan.kind, Overrides::default())?;
            let (_, warm) = target.serve_trace(plan, &plan.warmup, None);
            absorb(checked, check_serve(plan, &plan.warmup_pairs, &warm));
            warm?;
            let (_, served) = target.serve_trace(plan, &plan.rounds[round], None);
            absorb(
                checked,
                check_serve(plan, &plan.round_pairs[round], &served),
            );
            fingerprints.push(modeled_fingerprint(&served?));
        }
        if fingerprints[0] != fingerprints[1] {
            flaps += 1;
        }
    }
    Ok(flaps)
}

/// Modeled (virtual-time) statistics over the first pass of the rounds.
#[derive(Debug, Default)]
pub struct Modeled {
    /// Request latencies, µs; failed and rejected requests are `f64::MAX`.
    pub latencies: Vec<f64>,
    pub deadline_submitted: usize,
    pub deadline_missed: usize,
    pub requests: usize,
    pub switches: usize,
    pub queue_depth: Vec<f64>,
    pub utilization: Vec<f64>,
    pub device_requests: Vec<usize>,
    pub serves: usize,
}

impl Modeled {
    fn absorb(&mut self, plan: &Plan, round: usize, served: &Result<Report, RuntimeError>) {
        let trace = &plan.rounds[round];
        self.serves += 1;
        let deadlines = trace.iter().filter(|r| r.deadline_us.is_some()).count();
        self.deadline_submitted += deadlines;
        let Ok(report) = served else {
            self.latencies
                .extend(std::iter::repeat_n(f64::MAX, trace.len()));
            self.deadline_missed += deadlines;
            return;
        };
        let outcomes = report.outcomes();
        self.latencies.extend(outcomes.iter().map(|o| o.latency_us));
        let unanswered = trace.len().saturating_sub(outcomes.len());
        self.latencies
            .extend(std::iter::repeat_n(f64::MAX, unanswered));
        let metrics = report.metrics();
        // Deadline work that was rejected or never answered counts as missed.
        let answered_deadlines = outcomes.iter().filter(|o| o.deadline_us.is_some()).count();
        self.deadline_missed += metrics.deadline_misses + (deadlines - answered_deadlines);
        self.requests += trace.len();
        self.switches += metrics.switch_count;
        self.queue_depth.push(metrics.mean_queue_depth);
        self.utilization.push(metrics.mean_utilization());
        let devices = report.device_requests();
        if self.device_requests.len() < devices.len() {
            self.device_requests.resize(devices.len(), 0);
        }
        for (total, count) in self.device_requests.iter_mut().zip(devices) {
            *total += count;
        }
    }
}

/// Host-side results of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Host seconds of every untraced serve call.
    pub serve_secs: Vec<f64>,
    /// Seconds of the set-ups measured during the phase.
    pub setup_secs: Vec<f64>,
    /// Seconds of every host probe taken during the phase. The first is
    /// taken with the probe's buffer still in cache, so it is not used.
    pub probe_secs: Vec<f64>,
    /// The latest probe before each untraced serve, parallel to `serve_secs`.
    pub serve_probe: Vec<usize>,
    /// The latest probe before each set-up, parallel to `setup_secs`.
    pub setup_probe: Vec<usize>,
    pub requests: usize,
    /// Host seconds of every traced serve call.
    pub traced_secs: Vec<f64>,
    pub traced_requests: usize,
    pub checked: Checked,
    /// Batch serves whose modeled statistics differed from the first serve
    /// of the same round.
    pub replay_mismatches: usize,
    pub events: u64,
    pub kernel_hits: usize,
    pub kernel_misses: usize,
    pub compiles: usize,
    pub memo_hits: usize,
    pub memo_misses: usize,
    pub memo_evictions: usize,
    pub transfers: usize,
    /// `(start offset, duration)` of every timed `Submitter::submit`, ns.
    pub submit_ns: Vec<(u64, u64)>,
    pub modeled: Modeled,
}

impl Phase {
    pub fn wall(&self) -> f64 {
        self.serve_secs.iter().sum()
    }

    pub fn serves(&self) -> usize {
        self.serve_secs.len()
    }

    pub fn requests_per_s(&self) -> f64 {
        self.requests as f64 / self.wall()
    }

    /// How slow the host ran at probe `index` relative to the reference
    /// (1.0 = reference speed); the first, cache-warm probe is replaced by
    /// the second.
    pub fn host_factor(&self, index: usize) -> f64 {
        let index = index.max(1).min(self.probe_secs.len() - 1);
        self.probe_secs[index] / REFERENCE_PROBE_S
    }

    /// Mean host factor over the phase.
    pub fn mean_host_factor(&self) -> f64 {
        let used = &self.probe_secs[1.min(self.probe_secs.len() - 1)..];
        used.iter().sum::<f64>() / used.len() as f64 / REFERENCE_PROBE_S
    }

    /// Every untraced serve's seconds at reference host speed: divided by
    /// the host factor of the probe taken just before it.
    pub fn scaled_serve_secs(&self) -> Vec<f64> {
        let factors = self.serve_probe.iter().map(|&p| self.host_factor(p));
        self.serve_secs
            .iter()
            .zip(factors)
            .map(|(s, f)| s / f)
            .collect()
    }

    /// Median set-up seconds at reference host speed; `first` is the
    /// set-up made before the phase.
    pub fn scaled_setup_secs(&self, first: f64) -> f64 {
        let factors = self.setup_probe.iter().map(|&p| self.host_factor(p));
        let mut scaled: Vec<f64> = self
            .setup_secs
            .iter()
            .zip(factors)
            .map(|(s, f)| s / f)
            .collect();
        scaled.push(first / self.host_factor(1));
        median(&scaled)
    }

    pub fn traced_requests_per_s(&self) -> f64 {
        self.traced_requests as f64 / self.traced_secs.iter().sum::<f64>()
    }

    pub fn per_serve(&self, count: usize) -> f64 {
        count as f64 / self.serves() as f64
    }

    fn absorb_counters(&mut self, report: &Report) {
        let metrics = report.metrics();
        self.events += metrics.events_fired;
        self.kernel_hits += metrics.cache.hits;
        self.kernel_misses += metrics.cache.misses;
        // A cluster store miss is either a compile at the kernel's home
        // store or an image adopted over the link or from the host.
        self.compiles += metrics
            .cache
            .misses
            .saturating_sub(report.transfers() + report.host_loads());
        self.memo_hits += metrics.sim_memo.hits;
        self.memo_misses += metrics.sim_memo.misses;
        self.memo_evictions += metrics.sim_memo.evictions;
        self.transfers += report.transfers();
    }
}

/// Serves the rounds in turn, starting at round 1 so a memo-cold workload
/// never replays the round its warm-up just served, until `seconds` have
/// passed and every round was served at least once. With `spans`, every
/// other serve is traced (a span around the serve, streaming submits
/// timed) and lands in `traced_secs`; the counters and `serve_secs` come
/// from the untraced serves only. Without `spans`, `MID_RUN_SETUPS` fresh
/// set-ups are timed at even intervals between serves.
pub fn timed(
    plan: &Plan,
    target: &mut Target,
    seconds: f64,
    mut spans: Option<&mut Spans>,
) -> Result<Phase, RuntimeError> {
    let rounds = plan.rounds.len();
    let mut phase = Phase::default();
    let mut first_fingerprint: Vec<Option<u64>> = vec![None; rounds];
    let start = Instant::now();
    let mut step = 0;
    let mut probe_buffer = Vec::new();
    while step < rounds || start.elapsed().as_secs_f64() < seconds {
        if (phase.probe_secs.len() as f64) * PROBE_INTERVAL_S <= start.elapsed().as_secs_f64() {
            phase.probe_secs.push(host_probe(&mut probe_buffer));
        }
        let due = MID_RUN_SETUPS as f64 * start.elapsed().as_secs_f64() / seconds;
        if spans.is_none() && phase.setup_secs.len() as f64 + 0.5 <= due {
            let (fresh, secs) = set_up(plan, &mut phase.checked)?;
            drop(fresh);
            phase.setup_secs.push(secs);
            phase.setup_probe.push(phase.probe_secs.len() - 1);
        }
        let round = (step + 1) % rounds;
        step += 1;
        let trace = &plan.rounds[round];
        let traced = step % 2 == 0 && spans.is_some();
        let (wall, served) = match spans.as_deref_mut().filter(|_| traced) {
            None => target.serve_trace(plan, trace, None),
            Some(spans) => {
                let open = spans.begin(serve_span_name(plan), 0);
                let mut calls = Vec::new();
                let result = target.serve_trace(plan, trace, Some((&mut calls, spans.epoch())));
                for &(offset, dur) in &calls {
                    spans.record("submit.Submitter::submit", open.id, TID_FEEDER, offset, dur);
                }
                spans.end(open);
                phase.submit_ns.extend(calls);
                result
            }
        };
        if traced {
            phase.traced_secs.push(wall.as_secs_f64());
            phase.traced_requests += trace.len();
        } else {
            phase.serve_secs.push(wall.as_secs_f64());
            phase.serve_probe.push(phase.probe_secs.len() - 1);
            phase.requests += trace.len();
        }
        absorb(
            &mut phase.checked,
            check_serve(plan, &plan.round_pairs[round], &served),
        );
        if step <= rounds {
            phase.modeled.absorb(plan, round, &served);
        }
        if let Ok(report) = &served {
            if !traced {
                phase.absorb_counters(report);
            }
            // Batch serves of one trace must replay bit for bit. Streaming
            // serves are compared on fresh instances instead (see
            // `stream_flaps`): their device stores carry over between serves.
            if !plan.kind.streaming() {
                let fingerprint = modeled_fingerprint(report);
                match first_fingerprint[round] {
                    None => first_fingerprint[round] = Some(fingerprint),
                    Some(first) if first != fingerprint => phase.replay_mismatches += 1,
                    Some(_) => {}
                }
            }
        }
    }
    Ok(phase)
}

pub fn serve_span_name(plan: &Plan) -> &'static str {
    match (plan.shape.devices, plan.kind.streaming()) {
        (1, _) => "runtime.Runtime::serve",
        (_, false) => "cluster.Cluster::serve",
        (_, true) => "cluster.Cluster::serve_stream",
    }
}
