//! Counting and summarising: the percentile rule, request tallies, and
//! the plan-quality geometric mean.

/// Samples that must lie strictly beyond a percentile before it is
/// reported; with fewer, the tail is a handful of points, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 1`) of ascending `sorted`, by nearest
/// rank, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Smallest sample count at which [`percentile`] reports `p`.
#[cfg(test)]
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| percentile(&vec![0; n], p).is_some())
        .expect("some n suffices")
}

/// Latency samples one client keeps.  Past this many answers a run keeps
/// a uniform sample of them (Algorithm R), so the benchmark's own memory
/// stays fixed and `rss_mb` measures the server, not the bookkeeping.
pub const LATENCY_SAMPLES: usize = 1 << 18;

/// What happened to the requests one client sent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered with a plan.
    pub answered: u64,
    /// Answers that came back byte-identical to the oracle.
    pub ok: u64,
    /// Requests the daemon refused or answered with an error.
    pub refused: u64,
    /// Answers that differ from the oracle.
    pub mismatched: u64,
    /// Round-trip nanoseconds of answered requests: all of them, or a
    /// uniform sample of [`LATENCY_SAMPLES`] per client.
    pub latencies_ns: Vec<u64>,
    /// Sum over answered requests of `ln(EC(served) / EC(LSC plan))`.
    pub log_ratio_sum: f64,
    /// State of the sampling generator (SplitMix64).
    rng: u64,
}

impl Tally {
    /// A tally whose sample buffer is allocated and touched up front, so
    /// its resident size does not grow with the number of answers.
    pub fn with_buffer(seed: u64) -> Tally {
        let mut latencies_ns = vec![1u64; LATENCY_SAMPLES];
        std::hint::black_box(&mut latencies_ns);
        latencies_ns.clear();
        Tally {
            latencies_ns,
            rng: seed,
            ..Tally::default()
        }
    }

    fn next_random(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One answered request: `correct` when it matched the oracle.
    pub fn answered(&mut self, latency_ns: u64, correct: bool, log_ratio: f64) {
        self.attempted += 1;
        self.answered += 1;
        if self.latencies_ns.len() < LATENCY_SAMPLES {
            self.latencies_ns.push(latency_ns);
        } else {
            let slot = self.next_random() % self.answered;
            if let Some(s) = self.latencies_ns.get_mut(slot as usize) {
                *s = latency_ns;
            }
        }
        self.log_ratio_sum += log_ratio;
        if correct {
            self.ok += 1;
        } else {
            self.mismatched += 1;
        }
    }

    /// One request that got no plan.
    pub fn refused(&mut self) {
        self.attempted += 1;
        self.refused += 1;
    }

    /// A served answer the post-run check found wrong.
    pub fn demote(&mut self) {
        self.ok -= 1;
        self.mismatched += 1;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.answered += other.answered;
        self.ok += other.ok;
        self.refused += other.refused;
        self.mismatched += other.mismatched;
        self.latencies_ns.extend(other.latencies_ns);
        self.log_ratio_sum += other.log_ratio_sum;
    }

    /// Requests that failed, were refused, or differ from the oracle.
    pub fn failed(&self) -> u64 {
        self.refused + self.mismatched
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Geometric mean over answered requests of `EC(served) / EC(LSC)`.
    pub fn plan_cost_ratio(&self) -> f64 {
        (self.log_ratio_sum / self.answered.max(1) as f64).exp()
    }
}

/// Median of a non-empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.99), 1000);
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.99), Some(990));
        assert_eq!(percentile(&sorted[..999], 0.99), None);
        assert_eq!(percentile(&sorted, 0.5), Some(500));
        assert_eq!(percentile(&sorted[..100], 0.9), Some(90));
        assert_eq!(percentile(&sorted[..99], 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn failed_share_counts_refusals_and_mismatches() {
        let mut a = Tally::default();
        a.answered(10, true, 0.0);
        a.answered(20, false, 0.0);
        a.refused();
        let mut b = Tally::default();
        b.answered(30, true, 0.0);
        b.demote();
        a.merge(b);
        assert_eq!(a.attempted, 4);
        assert_eq!(a.ok, 1);
        assert_eq!(a.failed(), 3);
        assert_eq!(a.failed_share(), 0.75);
        assert_eq!(a.latencies_ns, vec![10, 20, 30]);
        assert_eq!(a.answered, 3);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    #[test]
    fn plan_cost_ratio_is_a_geometric_mean() {
        let mut t = Tally::default();
        t.answered(1, true, 0.5f64.ln());
        t.answered(1, true, 2.0f64.ln());
        t.answered(1, true, 1.0f64.ln());
        assert!((t.plan_cost_ratio() - 1.0).abs() < 1e-12);
        let mut u = Tally::default();
        u.answered(1, true, 0.25f64.ln());
        u.answered(1, true, 1.0f64.ln());
        assert!((u.plan_cost_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn latency_sample_stays_bounded_and_uniform() {
        let mut t = Tally::with_buffer(7);
        let n = 4 * LATENCY_SAMPLES as u64;
        for i in 0..n {
            t.answered(i, true, 0.0);
        }
        assert_eq!(t.answered, n);
        assert_eq!(t.latencies_ns.len(), LATENCY_SAMPLES);
        t.latencies_ns.sort_unstable();
        let p50 = percentile(&t.latencies_ns, 0.5).unwrap() as f64 / n as f64;
        assert!((0.49..0.51).contains(&p50), "sampled median at {p50}");
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
