//! Sample summaries, the process's peak RSS, and the memory-bandwidth
//! drift sentinel.

use std::time::Instant;

/// Samples of one quantity, summarised as a median plus the highest tail
/// percentile that has at least ten samples beyond it.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile, `p` in `[0, 1]`; NaN when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
        }
    }

    /// The highest of p99.9/p99/p95/p90/p75 with at least ten samples
    /// beyond it, as `(p, value)`.
    pub fn supported_tail(&self) -> Option<(f64, f64)> {
        let n = self.0.len() as f64;
        [0.999, 0.99, 0.95, 0.90, 0.75]
            .into_iter()
            .find(|p| n * (1.0 - p) >= 10.0 - 1e-9)
            .map(|p| (p, self.percentile(p)))
    }

    /// `median 12.3 | p90 15.1 | n=140` — the report line of a timing.
    pub fn describe(&self) -> String {
        let tail = match self.supported_tail() {
            Some((p, x)) => format!(" | p{} {x:.4}", p * 100.0),
            None => " | no tail percentile (<20 samples)".to_string(),
        };
        let v = self.sorted();
        let (lo, hi) = (
            v.first().copied().unwrap_or(f64::NAN),
            v.last().copied().unwrap_or(f64::NAN),
        );
        format!(
            "median {:.4}{tail} | min {lo:.4} max {hi:.4} | n={}",
            self.median(),
            self.len()
        )
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    llp_runtime::telemetry::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0))
}

/// Sustainable memory bandwidth in GB/s: the median of several passes of
/// the STREAM triad `a = b + s·c` over three 16 MiB arrays (each 4× the
/// box's 4 MiB L2), counting 24 bytes moved per element. It scales no
/// other metric; it only makes a change of machine between runs visible.
pub fn stream_gb_s() -> f64 {
    const LEN: usize = 2 << 20;
    let b = vec![1.0f64; LEN];
    let c = vec![2.0f64; LEN];
    let mut a = vec![0.0f64; LEN];
    let mut passes = Samples::default();
    for pass in 0..9 {
        let s = std::hint::black_box(0.5 + pass as f64);
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        std::hint::black_box(&mut a);
        passes.push((24 * LEN) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    passes.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(xs: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::default();
        xs.into_iter().for_each(|x| s.push(x));
        s
    }

    #[test]
    fn median_and_nearest_rank() {
        let s = of([5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.percentile(0.2), 1.0);
        assert_eq!(s.percentile(1.0), 5.0);
        assert_eq!(of([1.0, 2.0]).median(), 1.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(of((0..19).map(f64::from)).supported_tail().is_none());
        assert_eq!(of((0..40).map(f64::from)).supported_tail().unwrap().0, 0.75);
        assert_eq!(
            of((0..100).map(f64::from)).supported_tail().unwrap().0,
            0.90
        );
        assert_eq!(
            of((0..1000).map(f64::from)).supported_tail().unwrap().0,
            0.99
        );
    }
}
