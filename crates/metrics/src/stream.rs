//! Streaming drift detection for continually-learned class prototypes.
//!
//! The serving layer folds streamed examples into per-class counter state
//! and republishes the re-signed prototypes in batches. Each publication
//! moves a class's packed prototype by some **normalized Hamming
//! displacement** in `[0, 1]` — under a stationary stream that displacement
//! shrinks as counters accumulate evidence, while concept drift keeps it
//! elevated or growing. This module watches exactly that signal, per class:
//!
//! * [`Ewma`] — an exponentially-weighted moving average smoothing the raw
//!   displacement into a trend;
//! * [`PageHinkley`] — the classic sequential change-point test: alarm when
//!   the cumulative deviation above the running mean exceeds a threshold;
//! * [`StreamDriftDetector`] — one `(Ewma, PageHinkley)` pair per class
//!   label, surfacing a typed [`DriftReport`] for stats endpoints.
//!
//! Everything here is deterministic in its inputs: feeding the same
//! displacement sequence reproduces the same alarms and the same report,
//! which is what lets crash recovery rebuild detector state by replay.
//! Every type also round-trips through serde exactly, so a serving layer
//! can persist the detector mid-stream and resume it bit-for-bit.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Exponentially-weighted moving average: `m ← (1-α)·m + α·x`, seeded by
/// the first observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an average with smoothing factor `alpha` (the weight of the
    /// newest observation).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA smoothing factor must be in (0, 1], got {alpha}"
        );
        Self { alpha, value: None }
    }

    /// Folds one observation in and returns the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        let next = match self.value {
            None => x,
            Some(m) => (1.0 - self.alpha) * m + self.alpha * x,
        };
        self.value = Some(next);
        next
    }

    /// The current average, or `None` before any observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// The smoothing factor the average was created with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

/// The Page–Hinkley sequential change-point test (increase direction).
///
/// Maintains the cumulative deviation `m_t = Σ (x_i - x̄_i - δ)` of the
/// observations above their running mean (minus a tolerance `δ`) and its
/// running minimum `M_t`; an **alarm** fires when `m_t - M_t > λ`. Small
/// `δ` makes the test more sensitive, large `λ` trades detection delay for
/// fewer false alarms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageHinkley {
    delta: f64,
    lambda: f64,
    n: u64,
    mean: f64,
    cumulative: f64,
    minimum: f64,
}

impl PageHinkley {
    /// Creates a test with tolerance `delta` and alarm threshold `lambda`.
    ///
    /// # Panics
    ///
    /// Panics when `delta` is negative or `lambda` is not positive.
    pub fn new(delta: f64, lambda: f64) -> Self {
        assert!(delta >= 0.0, "Page-Hinkley tolerance must be >= 0");
        assert!(lambda > 0.0, "Page-Hinkley threshold must be positive");
        Self {
            delta,
            lambda,
            n: 0,
            mean: 0.0,
            cumulative: 0.0,
            minimum: 0.0,
        }
    }

    /// Folds one observation in; returns `true` when the test alarms.
    pub fn update(&mut self, x: f64) -> bool {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        self.cumulative += x - self.mean - self.delta;
        self.minimum = self.minimum.min(self.cumulative);
        self.statistic() > self.lambda
    }

    /// The current test statistic `m_t - M_t` (alarm when it exceeds λ).
    pub fn statistic(&self) -> f64 {
        self.cumulative - self.minimum
    }

    /// Observations folded in since construction or the last reset.
    pub fn observations(&self) -> u64 {
        self.n
    }

    /// Forgets all history — called after an alarm is acted upon, so the
    /// test watches for the *next* change instead of re-alarming forever.
    pub fn reset(&mut self) {
        self.n = 0;
        self.mean = 0.0;
        self.cumulative = 0.0;
        self.minimum = 0.0;
    }
}

/// Tuning of the per-class drift detection pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamDriftConfig {
    /// EWMA smoothing factor for the displacement trend.
    pub ewma_alpha: f64,
    /// Page–Hinkley tolerance `δ`.
    pub ph_delta: f64,
    /// Page–Hinkley alarm threshold `λ`.
    pub ph_lambda: f64,
}

impl Default for StreamDriftConfig {
    /// Defaults tuned for normalized Hamming displacements in `[0, 1]`:
    /// a fairly reactive trend (α = 0.3), a small tolerance absorbing the
    /// shrinking settle-in displacement of a stationary stream, and an
    /// alarm threshold of a few percent of accumulated excess displacement.
    fn default() -> Self {
        Self {
            ewma_alpha: 0.3,
            ph_delta: 0.005,
            ph_lambda: 0.05,
        }
    }
}

/// Per-class drift state: the smoothed trend, the change-point test, and
/// the counters the report surfaces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ClassTracker {
    ewma: Ewma,
    ph: PageHinkley,
    publishes: u64,
    last_displacement: f64,
    alarms: u64,
}

/// One class's entry in a [`DriftReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClassDrift {
    /// The class label.
    pub label: String,
    /// Prototype publications observed for this class.
    pub publishes: u64,
    /// Normalized Hamming displacement of the most recent publication.
    pub last_displacement: f64,
    /// EWMA-smoothed displacement trend.
    pub mean_displacement: f64,
    /// Current Page–Hinkley statistic (alarm when above λ).
    pub statistic: f64,
    /// Alarms this class has fired so far.
    pub alarms: u64,
    /// Whether the most recent publication fired an alarm.
    pub drifted: bool,
}

/// A typed point-in-time view of the detector, fit for stats endpoints.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DriftReport {
    /// Prototype publications observed across all classes.
    pub publishes: u64,
    /// Alarms fired across all classes.
    pub alarms: u64,
    /// Per-class state, in label order.
    pub classes: Vec<ClassDrift>,
}

/// EWMA + Page–Hinkley over per-class prototype displacement; see the
/// module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamDriftDetector {
    config: StreamDriftConfig,
    classes: BTreeMap<String, ClassTracker>,
    publishes: u64,
    alarms: u64,
    drifted_last: Vec<String>,
}

impl StreamDriftDetector {
    /// Creates a detector; `config` tunes every class's pipeline.
    pub fn new(config: StreamDriftConfig) -> Self {
        Self {
            config,
            classes: BTreeMap::new(),
            publishes: 0,
            alarms: 0,
            drifted_last: Vec::new(),
        }
    }

    /// The configuration the detector was created with.
    pub fn config(&self) -> StreamDriftConfig {
        self.config
    }

    /// Records that `label`'s published prototype moved by `displacement`
    /// (normalized Hamming, in `[0, 1]`). Returns `true` when the class's
    /// Page–Hinkley test alarms; the test is then reset so it watches for
    /// the next change rather than re-alarming on every publication.
    pub fn record(&mut self, label: &str, displacement: f64) -> bool {
        let config = self.config;
        let tracker = self
            .classes
            .entry(label.to_string())
            .or_insert_with(|| ClassTracker {
                ewma: Ewma::new(config.ewma_alpha),
                ph: PageHinkley::new(config.ph_delta, config.ph_lambda),
                publishes: 0,
                last_displacement: 0.0,
                alarms: 0,
            });
        tracker.publishes += 1;
        tracker.last_displacement = displacement;
        tracker.ewma.update(displacement);
        let alarm = tracker.ph.update(displacement);
        if alarm {
            tracker.ph.reset();
            tracker.alarms += 1;
            self.alarms += 1;
            self.drifted_last.push(label.to_string());
        } else {
            self.drifted_last.retain(|l| l != label);
        }
        self.publishes += 1;
        alarm
    }

    /// Drops `label`'s tracker (class removed or re-pointed).
    pub fn remove(&mut self, label: &str) {
        self.classes.remove(label);
        self.drifted_last.retain(|l| l != label);
    }

    /// Drops every tracker but keeps the lifetime counters (model swap:
    /// the class set is replaced wholesale).
    pub fn clear(&mut self) {
        self.classes.clear();
        self.drifted_last.clear();
    }

    /// Alarms fired across all classes so far.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Prototype publications recorded across all classes so far.
    pub fn publishes(&self) -> u64 {
        self.publishes
    }

    /// The current per-class state as a typed report, classes in label
    /// order.
    pub fn report(&self) -> DriftReport {
        let classes = self
            .classes
            .iter()
            .map(|(label, t)| ClassDrift {
                label: label.clone(),
                publishes: t.publishes,
                last_displacement: t.last_displacement,
                mean_displacement: t.ewma.value().unwrap_or(0.0),
                statistic: t.ph.statistic(),
                alarms: t.alarms,
                drifted: self.drifted_last.iter().any(|l| l == label),
            })
            .collect();
        DriftReport {
            publishes: self.publishes,
            alarms: self.alarms,
            classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_seeds_from_first_observation() {
        let mut ewma = Ewma::new(0.5);
        assert_eq!(ewma.value(), None);
        assert!((ewma.update(4.0) - 4.0).abs() < 1e-12);
        assert!((ewma.update(0.0) - 2.0).abs() < 1e-12);
        assert!((ewma.alpha() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "smoothing factor")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn page_hinkley_stays_quiet_on_a_constant_signal() {
        let mut ph = PageHinkley::new(0.005, 0.05);
        for _ in 0..1000 {
            assert!(!ph.update(0.1));
        }
        assert!(ph.statistic() <= 0.0 + 1e-12);
    }

    #[test]
    fn page_hinkley_alarms_on_a_level_shift() {
        let mut ph = PageHinkley::new(0.005, 0.05);
        for _ in 0..50 {
            assert!(!ph.update(0.05));
        }
        let mut fired = false;
        for _ in 0..50 {
            if ph.update(0.4) {
                fired = true;
                break;
            }
        }
        assert!(fired, "a 8x level shift must alarm within 50 steps");
        ph.reset();
        assert_eq!(ph.observations(), 0);
        assert!(ph.statistic().abs() < 1e-12);
    }

    #[test]
    fn detector_is_deterministic_and_reports_per_class() {
        let run = || {
            let mut d = StreamDriftDetector::new(StreamDriftConfig::default());
            for i in 0..30 {
                d.record("stable", 0.02);
                let x = if i < 15 { 0.02 } else { 0.3 };
                d.record("drifting", x);
            }
            d
        };
        let a = run();
        let b = run();
        assert_eq!(a.report(), b.report());
        let report = a.report();
        assert_eq!(report.classes.len(), 2);
        assert_eq!(report.publishes, 60);
        let drifting = &report.classes[0];
        assert_eq!(drifting.label, "drifting");
        assert!(drifting.alarms >= 1, "level shift must alarm");
        let stable = &report.classes[1];
        assert_eq!(stable.label, "stable");
        assert_eq!(stable.alarms, 0);
        assert!(stable.mean_displacement < 0.03);
        assert_eq!(report.alarms, drifting.alarms);
    }

    #[test]
    fn serde_round_trip_resumes_the_same_alarms() {
        let mut live = StreamDriftDetector::new(StreamDriftConfig::default());
        for i in 0..20 {
            live.record("a", if i < 10 { 0.02 } else { 0.3 });
            live.record("b", 0.1 / f64::from(i + 1));
        }
        let mut resumed =
            StreamDriftDetector::from_value(&live.to_value()).expect("detector round-trips");
        assert_eq!(resumed, live);
        for i in 0..20 {
            let x = if i % 4 == 0 { 0.6 } else { 0.01 };
            assert_eq!(resumed.record("a", x), live.record("a", x), "step {i}");
        }
        assert_eq!(resumed.report(), live.report());
    }

    #[test]
    fn removal_and_clear_drop_trackers_but_keep_lifetime_counters() {
        let mut d = StreamDriftDetector::new(StreamDriftConfig::default());
        for _ in 0..20 {
            d.record("a", 0.0);
            d.record("b", 0.5);
        }
        let alarms = d.alarms();
        d.remove("a");
        assert_eq!(d.report().classes.len(), 1);
        d.clear();
        assert!(d.report().classes.is_empty());
        assert_eq!(d.alarms(), alarms);
        assert_eq!(d.publishes(), 40);
    }
}
