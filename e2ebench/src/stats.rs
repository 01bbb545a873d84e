//! What one workload run measured, and the end-to-end metrics derived
//! from it.

use muppet_daemon::json::Json;

/// The measurements of one (traced or untraced) workload run.
#[derive(Default)]
pub struct Outcome {
    /// Requests attempted in the timed loop.
    pub attempted: u64,
    /// Of those: errors, unknown/exhausted verdicts, shed requests,
    /// rejected deltas, timeouts and wrong verdicts.
    pub failed: u64,
    /// Verdict-check failures, one line each.
    pub mismatches: Vec<String>,
    /// Client-observed latency of every verdict, ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the timed loop, s.
    pub window_s: f64,
    /// Peak resident set of the process doing the work, MiB.
    pub peak_rss_mb: f64,
    /// Duration of each set-up repetition, s.
    pub setup_s: Vec<f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, f64, &'static str)>,
    /// Workload-specific provenance fields.
    pub provenance: Vec<(String, Json)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.attempted > 0
    }

    /// Record a failed verdict check (it also counts as a failure).
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }

    pub fn verdicts_per_s(&self) -> f64 {
        if self.window_s > 0.0 {
            self.latencies_ms.len() as f64 / self.window_s
        } else {
            0.0
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The highest percentile with at least ten samples beyond it, and
    /// how many samples lie beyond it. With fewer than eleven samples
    /// this is the maximum (percentile 100, none beyond).
    pub fn tail_percentile(&self) -> (f64, usize) {
        let n = self.latencies_ms.len();
        if n >= 11 {
            (100.0 * (n - 10) as f64 / n as f64, 10)
        } else {
            (100.0, 0)
        }
    }

    fn tail_ms(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n >= 11 => v[n - 11],
            n => v[n - 1],
        }
    }

    pub fn end_to_end(&self, out: &mut Vec<(String, f64, &'static str)>) {
        out.push(("latency_p50_ms".into(), median(&self.latencies_ms), "ms"));
        out.push(("latency_tail_ms".into(), self.tail_ms(), "ms"));
        out.push(("verdicts_per_s".into(), self.verdicts_per_s(), "1/s"));
        out.push(("peak_rss_mb".into(), self.peak_rss_mb, "MiB"));
        out.push(("setup_s".into(), median(&self.setup_s), "s"));
    }
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A small seeded generator (SplitMix64) for workload plans.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}
