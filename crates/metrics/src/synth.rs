//! Synthetic Tor metrics archive generation.
//!
//! The paper analyses 11 years of real archives; this reproduction
//! generates a statistically calibrated synthetic corpus instead,
//! because the build is offline and ships no datasets (the real
//! archives are a download away from any deployment, never from here).
//! The generator encodes the
//! paper's own explanation of the data (§3.3): relays are chronically
//! *under-utilised*, so their observed/advertised bandwidth tracks their
//! fluctuating load, not their capacity; utilisation varies on both fast
//! (daily) and slow (weekly/monthly) timescales; the network grows over
//! the years; relays churn.
//!
//! Each relay has:
//! * a fixed true capacity (log-normal across relays);
//! * a utilisation process `u(t) = clamp(base + slow AR(1) + fast AR(1))`;
//! * observed bandwidth = trailing 5-day max of throughput, published to
//!   its descriptor every 18 hours;
//! * a consensus weight = advertised × a slowly-wandering measurement
//!   ratio (TorFlow's noisy speed ratio).

use flashflow_simnet::rng::SimRng;

use crate::archive::{trailing_max, Archive, RelaySeries};

/// Generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// RNG seed.
    pub seed: u64,
    /// Years covered by the archive.
    pub years: f64,
    /// Hours per step (real descriptors arrive every 18 h; 6 h resolves
    /// the daily structure the analysis windows need).
    pub step_hours: f64,
    /// Relay population at the start.
    pub initial_relays: usize,
    /// Relay population at the end (linear ramp).
    pub final_relays: usize,
    /// Mean relay lifetime in days (exponential churn).
    pub mean_lifetime_days: f64,
    /// Mean long-run utilisation across relays.
    pub utilization_mean: f64,
    /// Std-dev of the slow utilisation drift.
    pub utilization_slow_sigma: f64,
    /// Std-dev of the fast (per-step) utilisation noise.
    pub utilization_fast_sigma: f64,
    /// Log-std-dev of the TorFlow measurement ratio noise in weights.
    pub weight_noise_sigma: f64,
    /// Median relay capacity (bytes/s).
    pub median_capacity: f64,
    /// Log-std-dev of capacities across relays.
    pub capacity_sigma: f64,
}

impl SynthConfig {
    /// A configuration shaped like the paper's 2008–2019 corpus, scaled
    /// to a tractable relay count.
    pub fn paper_scale(seed: u64) -> Self {
        SynthConfig {
            seed,
            years: 11.0,
            step_hours: 6.0,
            initial_relays: 120,
            final_relays: 650,
            mean_lifetime_days: 400.0,
            utilization_mean: 0.45,
            utilization_slow_sigma: 0.22,
            utilization_fast_sigma: 0.10,
            weight_noise_sigma: 0.35,
            median_capacity: 12.5e6, // 100 Mbit/s
            capacity_sigma: 1.2,
        }
    }

    /// A small, fast configuration for tests.
    pub fn test_scale(seed: u64) -> Self {
        SynthConfig {
            years: 2.0,
            initial_relays: 30,
            final_relays: 60,
            ..SynthConfig::paper_scale(seed)
        }
    }

    /// Total steps on the grid.
    pub fn steps(&self) -> usize {
        ((self.years * 365.25 * 24.0) / self.step_hours).round() as usize
    }
}

/// Ground truth the generator knows but the archive's "observers" do not.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayTruth {
    /// The relay's true capacity (bytes/s).
    pub capacity: f64,
    /// First step present.
    pub start_step: usize,
    /// One past the last step present.
    pub end_step: usize,
}

/// A generated archive plus its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthArchive {
    /// The observable archive (what §3's analysis consumes).
    pub archive: Archive,
    /// Per-relay ground truth, indexed like the archive's relays.
    pub truths: Vec<RelayTruth>,
}

/// Generates a synthetic archive.
pub fn generate(cfg: &SynthConfig) -> SynthArchive {
    let steps = cfg.steps();
    let mut archive = Archive::new(cfg.step_hours, steps);
    let mut truths = Vec::new();
    let mut rng = SimRng::seed_from_u64(cfg.seed);

    // Spawn schedule: linear population ramp with exponential lifetimes.
    // We spawn relays at a rate that sustains the ramp.
    let lifetime_steps = (cfg.mean_lifetime_days * 24.0 / cfg.step_hours).max(1.0);
    // Initial population spawns at step zero.
    let mut spawn_events: Vec<usize> = vec![0; cfg.initial_relays];
    // Ongoing: at each step, expected spawns = replacement + growth.
    let growth_per_step = (cfg.final_relays as f64 - cfg.initial_relays as f64) / steps as f64;
    let mut acc = 0.0f64;
    for t in 1..steps {
        let pop_now = cfg.initial_relays as f64 + growth_per_step * t as f64;
        let replacement = pop_now / lifetime_steps;
        acc += replacement + growth_per_step;
        while acc >= 1.0 {
            spawn_events.push(t);
            acc -= 1.0;
        }
    }

    let window_5d = ((5.0 * 24.0) / cfg.step_hours).round().max(1.0) as usize;
    let publish_every = ((18.0 / cfg.step_hours).round() as usize).max(1);

    for &start in &spawn_events {
        let capacity = cfg.median_capacity * rng.gen_lognormal(0.0, cfg.capacity_sigma);
        let lifetime = rng.gen_exponential(lifetime_steps).ceil().max(2.0) as usize;
        let end = (start + lifetime).min(steps);
        if end <= start + 1 {
            continue;
        }
        let n = end - start;

        // Utilisation: base + slow AR(1) + fast AR(1), clamped to [0, 1].
        let base = (cfg.utilization_mean + rng.gen_normal(0.0, 0.15)).clamp(0.05, 0.9);
        let slow_ar = 0.999f64;
        let fast_ar = 0.7f64;
        let mut slow = 0.0f64;
        let mut fast = 0.0f64;
        let mut throughput = Vec::with_capacity(n);
        for _ in 0..n {
            slow = slow_ar * slow
                + rng
                    .gen_normal(0.0, (1.0 - slow_ar * slow_ar).sqrt() * cfg.utilization_slow_sigma);
            fast = fast_ar * fast
                + rng
                    .gen_normal(0.0, (1.0 - fast_ar * fast_ar).sqrt() * cfg.utilization_fast_sigma);
            let u = (base + slow + fast).clamp(0.0, 1.0);
            throughput.push(capacity * u);
        }

        // Observed bandwidth: trailing 5-day max of throughput; advertised
        // updates only at descriptor publications.
        let observed = trailing_max(&throughput, window_5d);
        let mut advertised = Vec::with_capacity(n);
        let mut current = observed[0];
        for (i, &o) in observed.iter().enumerate() {
            if i % publish_every == 0 {
                current = o;
            }
            advertised.push(current.min(capacity));
        }

        // Consensus weight: advertised × measurement ratio. The ratio has
        // a *static* per-relay component plus a wandering component. The
        // static part is a mixture matching the paper's Fig. 3: a small
        // minority of relays is strongly over-weighted (TorFlow's speed
        // ratio flatters relays its probes happen to favour) while the
        // large majority sit slightly below their fair share — which
        // yields >80% under-weighting at a 20–30% total-variation error.
        let static_bias =
            if rng.gen_bool(0.10) { rng.gen_normal(1.5, 0.5) } else { rng.gen_normal(-0.15, 0.30) };
        let ratio_ar = 0.98f64;
        let mut log_ratio = rng.gen_normal(0.0, cfg.weight_noise_sigma);
        let mut weight = Vec::with_capacity(n);
        for &a in &advertised {
            log_ratio = ratio_ar * log_ratio
                + rng.gen_normal(0.0, (1.0 - ratio_ar * ratio_ar).sqrt() * cfg.weight_noise_sigma);
            weight.push(a * (static_bias + log_ratio).exp());
        }

        archive.add_relay(RelaySeries { start_step: start, advertised, weight });
        truths.push(RelayTruth { capacity, start_step: start, end_step: end });
    }

    SynthArchive { archive, truths }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{mean_rce_per_relay, nce_series, nwe_series};
    use flashflow_simnet::stats::median;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&SynthConfig::test_scale(5));
        let b = generate(&SynthConfig::test_scale(5));
        assert_eq!(a.archive, b.archive);
        let c = generate(&SynthConfig::test_scale(6));
        assert_ne!(a.archive, c.archive);
    }

    #[test]
    fn advertised_never_exceeds_capacity() {
        let s = generate(&SynthConfig::test_scale(7));
        for (r, truth) in s.truths.iter().enumerate() {
            for &a in &s.archive.relay(r).advertised {
                assert!(a <= truth.capacity + 1e-9);
            }
        }
    }

    #[test]
    fn population_grows() {
        let s = generate(&SynthConfig::test_scale(8));
        let early = s.archive.relay_ids().filter(|&r| s.archive.present(r, 10)).count();
        let late_step = s.archive.steps - 10;
        let late = s.archive.relay_ids().filter(|&r| s.archive.present(r, late_step)).count();
        assert!(late > early, "population should grow: {early} → {late}");
    }

    #[test]
    fn rce_increases_with_period_like_fig1() {
        let s = generate(&SynthConfig::test_scale(9));
        let (d, w, m, y) = s.archive.period_steps();
        let med = |p| median(&mean_rce_per_relay(&s.archive, p, 8)).unwrap();
        let (md, mw, mm, my) = (med(d), med(w), med(m), med(y));
        assert!(md < mw && mw < mm && mm <= my, "medians {md:.3} {mw:.3} {mm:.3} {my:.3}");
        assert!(md < 0.15, "day-window error should be small: {md:.3}");
        assert!(my > 0.10, "year-window error should be large: {my:.3}");
    }

    #[test]
    fn nce_is_substantial_at_year_window() {
        let s = generate(&SynthConfig::test_scale(10));
        let (_, _, _, y) = s.archive.period_steps();
        let series = nce_series(&s.archive, y);
        // Skip the first year (window warm-up).
        let tail = &series[series.len() / 2..];
        let med = median(tail).unwrap();
        assert!(med > 0.08, "median year-window NCE {med:.3}");
        assert!(med < 0.7, "median year-window NCE {med:.3}");
    }

    #[test]
    fn nwe_in_paper_range() {
        let s = generate(&SynthConfig::test_scale(11));
        let (d, ..) = s.archive.period_steps();
        let series = nwe_series(&s.archive, d);
        let tail = &series[series.len() / 2..];
        let med = median(tail).unwrap();
        // Paper: medians 21–30% depending on window; accept a band.
        assert!((0.08..0.45).contains(&med), "median NWE {med:.3}");
    }
}
