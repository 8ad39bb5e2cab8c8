//! The run's result: operation counts, failures and named metrics, printed
//! as a readable table and then as one JSON line.

use std::collections::HashMap;

/// Everything one benchmark run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: timed operations plus output checks.
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// The first failures, printed before the result.
    pub failures: Vec<String>,
    /// Explanatory lines printed before the result.
    pub notes: Vec<String>,
    values: HashMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Counts one checked operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints the notes, failures and the catalogue's metrics as a table,
    /// then the result object as the last line of stdout. A catalogue
    /// metric the run did not set reads 0.
    pub fn print(&self, catalogue: &[(String, &'static str)]) {
        for line in &self.notes {
            println!("{line}");
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        let mut fields = Vec::new();
        for (name, unit) in catalogue {
            let value = self.values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            println!("{name:<34} {value:>18.6} {unit}");
            fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// Median of the values (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile of the values (0 for none).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile of the ladder that leaves at least ten samples
/// above it, with its value: `(percentile, value, samples_beyond)`.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let n = xs.len();
    for p in LADDER {
        let beyond = n - ((p / 100.0) * n as f64).ceil() as usize;
        if beyond >= 10 || p == 50.0 {
            return (p, quantile(xs, p / 100.0), beyond);
        }
    }
    unreachable!("the ladder ends at the median")
}

/// Geometric mean (0 for none).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p, _, beyond) = tail(&xs);
        assert_eq!((p, beyond), (99.0, 10));
        let (p, _, beyond) = tail(&xs[..300]);
        assert_eq!((p, beyond), (95.0, 15));
        let (p, _, _) = tail(&xs[..12]);
        assert_eq!(p, 50.0);
    }

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
