//! Output checks: every outcome against the reference evaluator, and a
//! fingerprint of the modeled statistics for the determinism checks.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use tm_overlay::runtime::RuntimeError;

use crate::gen::{Plan, ROUND_STRIDE};
use crate::target::Report;

/// What checking one serve found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checked {
    /// Requests submitted.
    pub submitted: usize,
    /// Serve errors, wrong or missing outputs and admission rejects.
    pub failed: usize,
}

/// Checks one serve of `pairs` (the pair index of every submitted request,
/// in submission order) against the reference outputs.
pub fn check_serve(plan: &Plan, pairs: &[usize], served: &Result<Report, RuntimeError>) -> Checked {
    let submitted = pairs.len();
    let Ok(report) = served else {
        return Checked {
            submitted,
            failed: submitted,
        };
    };
    let mut answered = vec![false; submitted];
    let mut failed = 0;
    for outcome in report.outcomes() {
        let position = (outcome.request_id % ROUND_STRIDE) as usize;
        match pairs.get(position) {
            Some(&pair) if !answered[position] => {
                answered[position] = true;
                if outcome.outputs() != plan.pairs[pair].reference.as_slice() {
                    failed += 1;
                }
            }
            _ => failed += 1, // an outcome for no submitted request
        }
    }
    // Rejected and unanswered requests both count as failed.
    failed += answered.iter().filter(|&&a| !a).count();
    Checked { submitted, failed }
}

/// A fingerprint of a serve's modeled statistics: every outcome's
/// placement and timing, bit for bit, plus the aggregate counters that do
/// not depend on cache or memo state.
pub fn modeled_fingerprint(report: &Report) -> u64 {
    let mut hasher = DefaultHasher::new();
    for outcome in report.outcomes() {
        (
            outcome.request_id,
            outcome.device,
            outcome.tile,
            outcome.start_us.to_bits(),
            outcome.completion_us.to_bits(),
            outcome.switched,
            outcome.missed_deadline,
        )
            .hash(&mut hasher);
    }
    let metrics = report.metrics();
    (
        metrics.makespan_us.to_bits(),
        metrics.switch_count,
        metrics.total_switch_us.to_bits(),
        metrics.events_fired,
        metrics.deadline_misses,
        metrics.mean_queue_depth.to_bits(),
        report.rejected_ids(),
        report.device_requests(),
    )
        .hash(&mut hasher);
    hasher.finish()
}
