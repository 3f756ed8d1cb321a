//! # flashflow-bench
//!
//! The experiment harness: one binary per table and figure of the paper
//! (`src/bin/figNN_*` for Figure NN, `tabNN_*` for Table NN, `exp_*`
//! for in-text experiments), plus std-timing micro-benchmarks under
//! `benches/` (Criterion is unavailable offline).
//! Each binary prints the same rows/series the paper reports, with the
//! paper's published values alongside for comparison, and is
//! deterministic given its default seed.

use flashflow_simnet::stats::{mean, quantile, Ecdf};

/// Five-number summary matching the paper's boxplots (Figure 9): 5th
/// percentile, first quartile, median, mean, third quartile, 95th
/// percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boxplot {
    /// 5th percentile (lower whisker).
    pub p5: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Mean (the triangle in the paper's plots).
    pub mean: f64,
    /// Third quartile.
    pub q3: f64,
    /// 95th percentile (upper whisker).
    pub p95: f64,
}

impl Boxplot {
    /// Computes the summary, or `None` for empty input.
    pub fn of(values: &[f64]) -> Option<Boxplot> {
        Some(Boxplot {
            p5: quantile(values, 0.05)?,
            q1: quantile(values, 0.25)?,
            median: quantile(values, 0.5)?,
            mean: mean(values)?,
            q3: quantile(values, 0.75)?,
            p95: quantile(values, 0.95)?,
        })
    }
}

impl From<Boxplot> for flashflow_obs::Percentiles {
    fn from(b: Boxplot) -> flashflow_obs::Percentiles {
        flashflow_obs::Percentiles {
            p5: b.p5,
            q1: b.q1,
            median: b.median,
            mean: b.mean,
            q3: b.q3,
            p95: b.p95,
        }
    }
}

impl std::fmt::Display for Boxplot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p5={:7.2} q1={:7.2} med={:7.2} mean={:7.2} q3={:7.2} p95={:7.2}",
            self.p5, self.q1, self.median, self.mean, self.q3, self.p95
        )
    }
}

/// Prints a CDF as rows of `value fraction`, sampled at `points` evenly
/// spaced quantiles (the textual analogue of the paper's CDF figures).
pub fn print_cdf(label: &str, values: &[f64], points: usize) {
    if values.is_empty() {
        println!("{label}: (no data)");
        return;
    }
    let cdf = Ecdf::new(values.to_vec());
    println!("{label} (n={}):", cdf.len());
    for (v, q) in cdf.sampled(points) {
        println!("  {v:12.4}  {q:5.2}");
    }
}

/// Prints a time series as `t value` rows, thinned to at most
/// `max_rows`.
pub fn print_series(label: &str, step_label: &str, series: &[f64], max_rows: usize) {
    println!("{label} ({} points):", series.len());
    let stride = (series.len() / max_rows.max(1)).max(1);
    for (i, v) in series.iter().enumerate().step_by(stride) {
        println!("  {step_label}={i:6}  {v:12.4}");
    }
}

/// Prints a standard experiment header with the fixed seed.
pub fn header(id: &str, title: &str, seed: u64) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("(deterministic; seed = {seed})");
    println!("==============================================================");
}

/// Prints a paper-vs-measured comparison row.
pub fn compare(metric: &str, paper: &str, measured: &str) {
    println!("  {metric:<44} paper: {paper:<16} measured: {measured}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxplot_of_known_data() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let b = Boxplot::of(&v).unwrap();
        assert_eq!(b.median, 50.5);
        assert_eq!(b.mean, 50.5);
        assert!(b.p5 < b.q1 && b.q1 < b.median && b.median < b.q3 && b.q3 < b.p95);
    }

    #[test]
    fn boxplot_empty_is_none() {
        assert!(Boxplot::of(&[]).is_none());
    }

    /// `flashflow-obs` reimplements the quantile (it cannot depend on
    /// simnet without a cycle); the two must agree exactly, so a
    /// `PeriodExport` summary and a paper boxplot of the same series
    /// are the same numbers.
    #[test]
    fn obs_percentiles_conform_to_boxplot() {
        let mut v: Vec<f64> = (0..137).map(|i| f64::from((i * 7919) % 1000)).collect();
        v.push(0.25);
        let from_boxplot: flashflow_obs::Percentiles = Boxplot::of(&v).unwrap().into();
        let direct = flashflow_obs::Percentiles::of(&v).unwrap();
        assert_eq!(direct, from_boxplot);
    }
}
