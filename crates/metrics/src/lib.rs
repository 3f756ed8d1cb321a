//! # flashflow-metrics
//!
//! The paper's §3 TorFlow analysis: a model of the Tor metrics archive
//! (server descriptors + consensus weights), a statistically calibrated
//! synthetic 11-year corpus standing in for the real archives, and the
//! error/variation analyses of Equations (1)–(7).
//!
//! * [`archive`] — the time-gridded archive data model.
//! * [`synth`] — the synthetic corpus generator, standing in for the
//!   real archives because the build is offline and ships no datasets.
//! * [`error`] — relay/network capacity and weight error (Figs. 1–4).
//! * [`variation`] — relative standard deviation (Fig. 10).
//! * [`speedtest`] — the §3.4 flood experiment (Fig. 5).

pub mod archive;
pub mod error;
pub mod speedtest;
pub mod synth;
pub mod variation;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::archive::{trailing_max, Archive, RelaySeries};
    pub use crate::error::{
        mean_rce_per_relay, mean_rwe_per_relay, nce_series, nwe_against_truth, nwe_series,
        rce_against_truth,
    };
    pub use crate::speedtest::{run_speed_test, SpeedTestConfig, SpeedTestOutcome};
    pub use crate::synth::{generate, RelayTruth, SynthArchive, SynthConfig};
    pub use crate::variation::{mean_advertised_rsd_per_relay, mean_weight_rsd_per_relay};
}
