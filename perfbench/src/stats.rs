//! Sample summaries.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation between
/// order statistics; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`; 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The arithmetic mean of `xs`; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Samples grouped by the window of the run they fall in. A run's summary
/// is the mean over windows of a per-window statistic: a stall inside one
/// window moves only that window's median, and a mean, unlike a median
/// over windows, does not jump between modes when the host alternates
/// between fast and slow phases of a few seconds (ten seeds of `mcp-n64`
/// on a 2-vCPU VM: quartile distance 0.19 of the median with the mean,
/// 0.27 with the median over windows).
#[derive(Debug, Clone)]
pub struct Windowed {
    width_s: f64,
    windows: Vec<Vec<f64>>,
}

impl Windowed {
    /// A run of `span_s` seconds split into one-second windows (at least
    /// one). Samples past the end fall into the last window.
    pub fn new(span_s: f64) -> Windowed {
        let count = span_s.round().max(1.0) as usize;
        Windowed {
            width_s: span_s / count as f64,
            windows: vec![Vec::new(); count],
        }
    }

    /// Records `value`, observed `at_s` seconds into the run.
    pub fn push(&mut self, at_s: f64, value: f64) {
        let last = self.windows.len() - 1;
        let w = ((at_s.max(0.0) / self.width_s) as usize).min(last);
        self.windows[w].push(value);
    }

    /// Every sample, in window order.
    pub fn all(&self) -> Vec<f64> {
        self.windows.concat()
    }

    /// The mean over windows of each window's `q`-quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(w, q))
            .collect();
        mean(&per)
    }

    /// The mean over windows of samples per second.
    pub fn rate(&self) -> f64 {
        let per: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.len() as f64 / self.width_s)
            .collect();
        mean(&per)
    }
}
