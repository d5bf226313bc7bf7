//! Small statistics helpers and process probes.

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in 0..=1 (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The tail: the sample with exactly ten samples beyond it, i.e. the
/// highest percentile the sample count supports. Returns
/// `(value, percentile, samples)`; with fewer than eleven samples it is
/// the maximum at percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let n = values.len();
    if n == 0 {
        return (0.0, 100.0, 0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n < 11 {
        return (sorted[n - 1], 100.0, n);
    }
    (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64, n)
}

/// Steps of the host reference probe (about a millisecond on a 2 GHz core).
const PROBE_STEPS: usize = 200_000;
/// Words in the probe's buffer: 1 MiB, larger than a core's L2.
const PROBE_WORDS: usize = 1 << 17;

/// A fixed piece of host work that shares no code with the program under
/// test: xorshift-addressed read-modify-writes over a 1 MiB buffer.
/// Returns its wall seconds, a sample of how fast the host runs right now.
pub fn host_probe(buffer: &mut Vec<u64>) -> f64 {
    buffer.resize(PROBE_WORDS, 0);
    let start = std::time::Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (PROBE_WORDS - 1);
        buffer[slot] = buffer[slot].wrapping_add(x);
    }
    std::hint::black_box(&buffer);
    start.elapsed().as_secs_f64()
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, percentile, samples) = tail(&values);
        assert_eq!(value, 90.0);
        assert_eq!(percentile, 90.0);
        assert_eq!(samples, 100);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), 10);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 1.0), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
