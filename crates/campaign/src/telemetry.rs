//! Run telemetry: outcome counters, a per-injection latency histogram,
//! throughput, and the periodic progress line.
//!
//! Telemetry describes *how a run went* (wall time, injections/s, hang
//! watchdog activity), never *what it computed* — it lives on
//! [`crate::runner::CampaignResult`] beside the records, and is kept out
//! of [`crate::summary::CampaignSummary`] on purpose so that a resumed
//! campaign still produces a summary bit-identical to an uninterrupted
//! run.

use std::time::{Duration, Instant};

use radcrit_obs::CriticalityAggregator;

use crate::outcome::InjectionOutcome;

/// Power-of-two bucketed histogram of per-injection wall times.
///
/// Since the observability layer landed this is the shared
/// [`radcrit_obs::Log2Histogram`]: bucket `b` still counts latencies in
/// `[2^b, 2^(b+1))` microseconds, but sub-microsecond and
/// beyond-last-bucket observations are now tracked explicitly
/// ([`Log2Histogram::underflow`](radcrit_obs::Log2Histogram::underflow) /
/// [`overflow`](radcrit_obs::Log2Histogram::overflow)) instead of being
/// silently clamped, and the histogram exports to the metrics snapshot's
/// JSON and Prometheus formats.
pub use radcrit_obs::Log2Histogram as LatencyHistogram;

/// Mutable telemetry accumulator owned by the campaign's collector loop.
#[derive(Debug)]
pub struct Telemetry {
    started: Instant,
    masked: usize,
    sdc: usize,
    crash: usize,
    hang: usize,
    watchdog_hangs: usize,
    replayed: usize,
    latency: LatencyHistogram,
}

impl Telemetry {
    /// Starts the clock.
    pub fn new() -> Self {
        Telemetry {
            started: Instant::now(),
            masked: 0,
            sdc: 0,
            crash: 0,
            hang: 0,
            watchdog_hangs: 0,
            replayed: 0,
            latency: LatencyHistogram::new(),
        }
    }

    /// Notes `n` records replayed from a checkpoint (they count toward
    /// the campaign's progress but not toward this run's throughput).
    pub fn note_replayed(&mut self, n: usize) {
        self.replayed = n;
    }

    /// Records one freshly produced injection outcome. `watchdog` marks
    /// outcomes synthesized by the hang watchdog rather than observed by
    /// a worker.
    pub fn record(&mut self, outcome: &InjectionOutcome, latency: Duration, watchdog: bool) {
        match outcome {
            InjectionOutcome::Masked => self.masked += 1,
            InjectionOutcome::Sdc(_) => self.sdc += 1,
            InjectionOutcome::Crash => self.crash += 1,
            InjectionOutcome::Hang => self.hang += 1,
        }
        if watchdog {
            self.watchdog_hangs += 1;
        }
        self.latency.record(latency);
    }

    /// Records produced by this run so far (excludes replayed ones).
    pub fn completed(&self) -> usize {
        self.masked + self.sdc + self.crash + self.hang
    }

    /// Freezes the current state into an immutable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            masked: self.masked,
            sdc: self.sdc,
            crash: self.crash,
            hang: self.hang,
            watchdog_hangs: self.watchdog_hangs,
            replayed: self.replayed,
            completed: self.completed(),
            elapsed: self.started.elapsed(),
            latency: self.latency.clone(),
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// Immutable telemetry of one (possibly partial) campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Masked outcomes produced by this run.
    pub masked: usize,
    /// SDC outcomes produced by this run.
    pub sdc: usize,
    /// Crash outcomes produced by this run.
    pub crash: usize,
    /// Hang outcomes produced by this run (watchdog or sampler).
    pub hang: usize,
    /// Hangs synthesized by the watchdog (subset of `hang`).
    pub watchdog_hangs: usize,
    /// Records replayed from the checkpoint instead of being re-run.
    pub replayed: usize,
    /// Records produced by this run (excludes `replayed`).
    pub completed: usize,
    /// Wall time since the run started.
    pub elapsed: Duration,
    /// Per-injection latency histogram.
    pub latency: LatencyHistogram,
}

impl TelemetrySnapshot {
    /// Injections per second of wall time for this run.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// The one-line progress report printed under `--progress`.
    /// `target` is the number of records this run set out to produce.
    ///
    /// With `analytics` attached (the collector's live
    /// [`CriticalityAggregator`] — the same fold that powers the
    /// daemon's analytics endpoints, never a second counting path), the
    /// line also reports the tolerance-filtered SDC count and the
    /// converging FIT estimate with its 95 % CI width.
    pub fn progress_line(
        &self,
        target: usize,
        analytics: Option<&CriticalityAggregator>,
    ) -> String {
        let pct = if target == 0 {
            100.0
        } else {
            self.completed as f64 / target as f64 * 100.0
        };
        let rate = self.throughput();
        let eta = if rate > 0.0 && target > self.completed {
            format!("{:.1}s", (target - self.completed) as f64 / rate)
        } else {
            "-".into()
        };
        let quantiles = match (self.latency.quantile(0.5), self.latency.quantile(0.9)) {
            (Some(p50), Some(p90)) => format!("p50<{p50:.1?} p90<{p90:.1?}"),
            _ => "p50<- p90<-".into(),
        };
        let crit = match analytics {
            Some(agg) => format!(
                " crit {} | fit {:.3e} ±{:.1e} |",
                agg.critical_sdc(),
                agg.fit_all().total().value(),
                agg.fit_ci_width() / 2.0,
            ),
            None => String::new(),
        };
        format!(
            "[campaign] {}/{} ({pct:.1}%) | {rate:.1} inj/s | masked {} sdc {} crash {} hang {} \
             (watchdog {}) |{crit} {quantiles} | eta {eta}",
            self.completed,
            target,
            self.masked,
            self.sdc,
            self.crash,
            self.hang,
            self.watchdog_hangs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::InjectionOutcome;

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(3)); // bucket [2, 4)
        h.record(Duration::from_micros(3));
        h.record(Duration::from_millis(5)); // bucket [4096, 8192)
        assert_eq!(h.count(), 3);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (Duration::from_micros(2), 2));
        assert_eq!(buckets[1], (Duration::from_micros(4096), 1));
    }

    #[test]
    fn quantiles_are_upper_bounds() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..9 {
            h.record(Duration::from_micros(10)); // bucket [8, 16)
        }
        h.record(Duration::from_millis(1)); // bucket [512, 1024) µs... (1000 µs → [512, 1024))
        assert_eq!(h.quantile(0.5), Some(Duration::from_micros(16)));
        assert_eq!(h.quantile(1.0), Some(Duration::from_micros(1024)));
        assert!(h.quantile(0.5).unwrap() >= Duration::from_micros(10));
    }

    #[test]
    fn sub_microsecond_latencies_land_in_the_first_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(10));
        assert_eq!(h.nonzero_buckets()[0].0, Duration::from_micros(1));
        // ... and are counted explicitly rather than silently clamped.
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn beyond_range_latencies_are_counted_as_overflow() {
        let mut h = LatencyHistogram::new();
        // 2^30 µs ≈ 17.9 min is the top edge; an hour-long injection
        // overflows but is still counted (clamped into the last bucket).
        h.record(Duration::from_secs(3600));
        assert_eq!(h.count(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.quantile(1.0), Some(Duration::from_micros(1 << 30)));
    }

    #[test]
    fn telemetry_counts_outcomes_and_watchdog_fires() {
        let mut t = Telemetry::new();
        t.note_replayed(5);
        t.record(&InjectionOutcome::Masked, Duration::from_micros(50), false);
        t.record(&InjectionOutcome::Crash, Duration::from_micros(50), false);
        t.record(&InjectionOutcome::Hang, Duration::from_millis(100), true);
        let s = t.snapshot();
        assert_eq!(s.masked, 1);
        assert_eq!(s.crash, 1);
        assert_eq!(s.hang, 1);
        assert_eq!(s.watchdog_hangs, 1);
        assert_eq!(s.replayed, 5);
        assert_eq!(s.completed, 3);
        assert_eq!(s.latency.count(), 3);
        assert!(s.throughput() > 0.0);
    }

    #[test]
    fn progress_line_mentions_the_essentials() {
        let mut t = Telemetry::new();
        t.record(&InjectionOutcome::Masked, Duration::from_micros(50), false);
        let line = t.snapshot().progress_line(10, None);
        assert!(line.contains("1/10"), "{line}");
        assert!(line.contains("inj/s"), "{line}");
        assert!(line.contains("masked 1"), "{line}");
        assert!(!line.contains("crit"), "no analytics attached: {line}");
    }

    #[test]
    fn progress_line_reports_live_criticality_when_attached() {
        use radcrit_core::locality::SpatialClass;
        use radcrit_obs::analytics::AnalyticSample;

        let mut t = Telemetry::new();
        t.record(&InjectionOutcome::Masked, Duration::from_micros(50), false);
        let mut agg = CriticalityAggregator::with_context("dgemm", "32x32", "K40", 10, 100.0);
        agg.fold_sample(&AnalyticSample {
            index: 0,
            site: "fpu".to_owned(),
            outcome: "SDC".to_owned(),
            mismatches: 2,
            class: SpatialClass::Line,
            mre: Some(5.0),
            critical: true,
            fclass: Some(SpatialClass::Line),
        });
        let line = t.snapshot().progress_line(10, Some(&agg));
        assert!(line.contains("crit 1"), "{line}");
        assert!(line.contains("fit "), "{line}");
        assert!(line.contains('±'), "{line}");
    }
}
