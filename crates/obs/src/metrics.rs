//! A lightweight metrics registry: counters, gauges and log2 histograms
//! with labels, exported as JSON or Prometheus text.
//!
//! The registry is `Sync` (internally locked) and designed for coarse
//! update granularity: hot loops should accumulate locally and flush
//! once per unit of work (the engine flushes once per run, the campaign
//! collector once per record), so the lock is never contended in an
//! inner loop. All exports iterate a `BTreeMap`, so snapshot text is
//! deterministic given the same observations.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use crate::hist::Log2Histogram;
use crate::json::{escape, fmt_f64};

/// One entry of the static metric reference: name, exposition kind and
/// help text. The table backs both the `# HELP` lines of
/// [`MetricsSnapshot::to_prometheus`] and the generated
/// `docs/METRICS.md`; a drift test asserts every name registered at
/// runtime appears here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricHelp {
    /// Metric base name, e.g. `radcrit_injections_total`.
    pub name: &'static str,
    /// Exposition kind: `counter`, `gauge` or `histogram`.
    pub kind: &'static str,
    /// One-line help text (no newlines).
    pub help: &'static str,
}

/// The static reference of every `radcrit_*` metric the workspace
/// registers, sorted by name.
pub const METRIC_REFERENCE: &[MetricHelp] = &[
    MetricHelp {
        name: "radcrit_alert_active",
        kind: "gauge",
        help: "Whether the alert rule named by the rule label is currently firing (1) or ok (0).",
    },
    MetricHelp {
        name: "radcrit_alerts_fired_total",
        kind: "counter",
        help: "Firing edges of the alert rule named by the rule label since the evaluator started.",
    },
    MetricHelp {
        name: "radcrit_campaign_outcomes_total",
        kind: "counter",
        help: "Finished injections by outcome label (masked, sdc, crash, hang).",
    },
    MetricHelp {
        name: "radcrit_campaign_replayed_total",
        kind: "counter",
        help: "Injection records replayed from a checkpoint on campaign resume.",
    },
    MetricHelp {
        name: "radcrit_campaign_watchdog_hangs_total",
        kind: "counter",
        help: "Injections the watchdog declared hung and synthesized a record for.",
    },
    MetricHelp {
        name: "radcrit_engine_cache_blind_runs_total",
        kind: "counter",
        help: "Resumed engine executions that skipped the cache model because no strike could perturb it.",
    },
    MetricHelp {
        name: "radcrit_engine_phase_us",
        kind: "histogram",
        help: "Engine phase wall time in microseconds, by phase label (setup, tiles, flush).",
    },
    MetricHelp {
        name: "radcrit_engine_resumed_runs_total",
        kind: "counter",
        help: "Engine executions resumed from a golden-prefix snapshot.",
    },
    MetricHelp {
        name: "radcrit_engine_runs_total",
        kind: "counter",
        help: "Engine executions started, in any mode.",
    },
    MetricHelp {
        name: "radcrit_fabric_shards_completed_total",
        kind: "counter",
        help: "Shards whose full index range the coordinator has confirmed complete.",
    },
    MetricHelp {
        name: "radcrit_fabric_shards_dispatched_total",
        kind: "counter",
        help: "Shard jobs dispatched to workers by the coordinator (first assignments only).",
    },
    MetricHelp {
        name: "radcrit_fabric_shards_redispatched_total",
        kind: "counter",
        help: "Shard remainders re-dispatched to a surviving worker after a worker died.",
    },
    MetricHelp {
        name: "radcrit_fabric_workers_alive",
        kind: "gauge",
        help: "Registered workers currently passing the coordinator's heartbeat check.",
    },
    MetricHelp {
        name: "radcrit_golden_cache_bytes",
        kind: "gauge",
        help: "Bytes resident in the daemon's golden-output LRU cache.",
    },
    MetricHelp {
        name: "radcrit_golden_cache_entries",
        kind: "gauge",
        help: "Entries resident in the daemon's golden-output LRU cache.",
    },
    MetricHelp {
        name: "radcrit_golden_cache_hits_total",
        kind: "counter",
        help: "Golden computations served from the content-addressed cache.",
    },
    MetricHelp {
        name: "radcrit_golden_cache_misses_total",
        kind: "counter",
        help: "Golden computations that had to run because the cache missed.",
    },
    MetricHelp {
        name: "radcrit_injection_latency",
        kind: "histogram",
        help: "End-to-end wall latency of one injection in microseconds.",
    },
    MetricHelp {
        name: "radcrit_plan_tiles",
        kind: "gauge",
        help: "Tiles in the most recent dispatch plan.",
    },
    MetricHelp {
        name: "radcrit_plan_units",
        kind: "gauge",
        help: "Execution units in the most recent dispatch plan.",
    },
    MetricHelp {
        name: "radcrit_plan_wave_size",
        kind: "gauge",
        help: "Concurrent tile slots per wave in the most recent dispatch plan.",
    },
    MetricHelp {
        name: "radcrit_plan_waves",
        kind: "gauge",
        help: "Waves in the most recent dispatch plan.",
    },
    MetricHelp {
        name: "radcrit_queue_depth",
        kind: "gauge",
        help: "Jobs queued in the daemon, sampled at scrape time.",
    },
    MetricHelp {
        name: "radcrit_run_dead_strike_exits_total",
        kind: "counter",
        help: "Injection runs ended before their last tile: the strike died unobserved, or no \
               remaining tile loads a buffer the corrupted run stored to (resumed runs then \
               finish from the golden record).",
    },
    MetricHelp {
        name: "radcrit_serve_job_latency_us",
        kind: "histogram",
        help: "Served job wall latency in microseconds, from the accepted submit (or the restart \
               that re-enqueued it) to its terminal state.",
    },
    MetricHelp {
        name: "radcrit_serve_jobs_submitted_total",
        kind: "counter",
        help: "Jobs accepted into the daemon's queue.",
    },
    MetricHelp {
        name: "radcrit_serve_jobs_total",
        kind: "counter",
        help: "Served jobs reaching a terminal state, by state label (done, failed, cancelled).",
    },
    MetricHelp {
        name: "radcrit_serve_outstanding_jobs",
        kind: "gauge",
        help: "Jobs submitted but not yet terminal, sampled at scrape time.",
    },
    MetricHelp {
        name: "radcrit_shard_covered",
        kind: "gauge",
        help:
            "Injection indices of one shard the coordinator's merged stream covers, by shard label.",
    },
    MetricHelp {
        name: "radcrit_shard_events_total",
        kind: "counter",
        help: "Event-stream lines merged from one shard's tail, by shard label.",
    },
    MetricHelp {
        name: "radcrit_simd_isa",
        kind: "gauge",
        help: "Constant 1 under an isa label naming the active SIMD executor (scalar, avx2, neon).",
    },
    MetricHelp {
        name: "radcrit_snapshot_bytes",
        kind: "gauge",
        help: "Bytes held by the last run's golden-prefix snapshot set.",
    },
    MetricHelp {
        name: "radcrit_snapshot_skipped_tiles_total",
        kind: "counter",
        help: "Snapshot captures skipped because the per-run byte budget was exhausted.",
    },
    MetricHelp {
        name: "radcrit_trace_clock_offset_us",
        kind: "gauge",
        help: "Estimated worker-clock offset in microseconds (midpoint method over the best \
               heartbeat probe), by worker label.",
    },
    MetricHelp {
        name: "radcrit_trace_dropped_spans_total",
        kind: "counter",
        help: "Trace spans dropped past the recorder's buffer cap.",
    },
    MetricHelp {
        name: "radcrit_workers_busy",
        kind: "gauge",
        help: "Daemon worker threads currently executing a job, sampled at scrape time.",
    },
    MetricHelp {
        name: "radcrit_workers_idle",
        kind: "gauge",
        help: "Daemon worker threads currently idle, sampled at scrape time.",
    },
];

/// Looks up a metric's reference entry by base name.
pub fn help_for(name: &str) -> Option<&'static MetricHelp> {
    METRIC_REFERENCE
        .binary_search_by(|m| m.name.cmp(name))
        .ok()
        .map(|i| &METRIC_REFERENCE[i])
}

/// Escapes a help text for a `# HELP` line: backslash and newline, per
/// the Prometheus text exposition format.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// A metric key: base name plus rendered label set.
///
/// Labels are rendered at update time into their exposition form
/// (`{k="v",…}`), which makes the key cheap to order and compare.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `radcrit_injections_total`.
    pub name: String,
    /// Rendered label set, e.g. `{outcome="sdc"}`; empty for no labels.
    pub labels: String,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let rendered = if labels.is_empty() {
            String::new()
        } else {
            let inner = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
                .collect::<Vec<_>>()
                .join(",");
            format!("{{{inner}}}")
        };
        MetricKey {
            name: name.to_owned(),
            labels: rendered,
        }
    }
}

impl std::fmt::Display for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.name, self.labels)
    }
}

/// One metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonically increasing counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Log2 histogram of microsecond durations (boxed: a histogram is an
    /// order of magnitude larger than the scalar variants).
    Histogram(Box<Log2Histogram>),
}

/// A thread-safe registry of named metrics.
///
/// # Examples
///
/// ```
/// use radcrit_obs::MetricsRegistry;
///
/// let m = MetricsRegistry::new();
/// m.counter_add("radcrit_injections_total", &[("outcome", "sdc")], 1);
/// m.gauge_set("radcrit_sigma_total", &[], 0.5);
/// let snap = m.snapshot();
/// assert_eq!(snap.counter("radcrit_injections_total", &[("outcome", "sdc")]), Some(1));
/// assert!(snap.to_prometheus().contains("radcrit_injections_total{outcome=\"sdc\"} 1"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<MetricKey, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to a counter, creating it at zero first.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        let mut map = self.inner.lock().expect("metrics lock");
        match map
            .entry(MetricKey::new(name, labels))
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c += v,
            other => *other = Metric::Counter(v),
        }
    }

    /// Sets a gauge to `v`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        let mut map = self.inner.lock().expect("metrics lock");
        map.insert(MetricKey::new(name, labels), Metric::Gauge(v));
    }

    /// Records one duration into a histogram, creating it first.
    pub fn observe_duration(&self, name: &str, labels: &[(&str, &str)], d: Duration) {
        let mut map = self.inner.lock().expect("metrics lock");
        match map
            .entry(MetricKey::new(name, labels))
            .or_insert_with(|| Metric::Histogram(Box::default()))
        {
            Metric::Histogram(h) => h.record(d),
            other => {
                let mut h = Log2Histogram::new();
                h.record(d);
                *other = Metric::Histogram(Box::new(h));
            }
        }
    }

    /// Merges a locally accumulated histogram into a registry histogram —
    /// the flush half of the accumulate-locally pattern.
    pub fn merge_histogram(&self, name: &str, labels: &[(&str, &str)], h: &Log2Histogram) {
        let mut map = self.inner.lock().expect("metrics lock");
        match map
            .entry(MetricKey::new(name, labels))
            .or_insert_with(|| Metric::Histogram(Box::default()))
        {
            Metric::Histogram(existing) => existing.merge(h),
            other => *other = Metric::Histogram(Box::new(h.clone())),
        }
    }

    /// Freezes the current state into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self.inner.lock().expect("metrics lock").clone(),
        }
    }

    /// Folds a whole snapshot into this registry: counters add,
    /// histograms merge, gauges take the snapshot's value (last write
    /// wins, as everywhere else). This is how a long-running service
    /// aggregates per-job registries into one daemon-wide registry
    /// without sharing locks across job lifetimes.
    pub fn merge_snapshot(&self, snapshot: &MetricsSnapshot) {
        let mut map = self.inner.lock().expect("metrics lock");
        for (key, metric) in &snapshot.entries {
            match metric {
                Metric::Counter(v) => match map.entry(key.clone()).or_insert(Metric::Counter(0)) {
                    Metric::Counter(c) => *c += v,
                    other => *other = Metric::Counter(*v),
                },
                Metric::Gauge(g) => {
                    map.insert(key.clone(), Metric::Gauge(*g));
                }
                Metric::Histogram(h) => {
                    match map
                        .entry(key.clone())
                        .or_insert_with(|| Metric::Histogram(Box::default()))
                    {
                        Metric::Histogram(existing) => existing.merge(h),
                        other => *other = Metric::Histogram(h.clone()),
                    }
                }
            }
        }
    }

    /// [`MetricsRegistry::merge_snapshot`], with an extra label appended
    /// to every merged key — how a coordinator folds per-shard or
    /// per-worker snapshots into one registry without their series
    /// colliding (e.g. `("shard", "2")` keeps two workers'
    /// `radcrit_campaign_outcomes_total` apart).
    pub fn merge_snapshot_labelled(&self, snapshot: &MetricsSnapshot, extra: (&str, &str)) {
        let rendered = format!("{}=\"{}\"", extra.0, escape(extra.1));
        let relabelled = MetricsSnapshot {
            entries: snapshot
                .entries
                .iter()
                .map(|(key, metric)| {
                    (
                        MetricKey {
                            name: key.name.clone(),
                            labels: merge_labels(&key.labels, &rendered),
                        },
                        metric.clone(),
                    )
                })
                .collect(),
        };
        self.merge_snapshot(&relabelled);
    }
}

/// An immutable point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    entries: BTreeMap<MetricKey, Metric>,
}

impl MetricsSnapshot {
    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reads a counter value back (tests, report rendering).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.entries.get(&MetricKey::new(name, labels)) {
            Some(Metric::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Reads a gauge value back.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.entries.get(&MetricKey::new(name, labels)) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Reads a histogram back.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Log2Histogram> {
        match self.entries.get(&MetricKey::new(name, labels)) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterates `(key, metric)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &Metric)> {
        self.entries.iter()
    }

    /// Renders the snapshot as a single JSON object (one line).
    ///
    /// Counters and gauges map key → value; histograms expand into
    /// `{count, sum_us, underflow, overflow, buckets: [[lo_us, n], …]}`.
    pub fn to_json(&self) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (key, metric) in &self.entries {
            let k = escape(&key.to_string());
            match metric {
                Metric::Counter(c) => counters.push(format!("\"{k}\":{c}")),
                Metric::Gauge(g) => gauges.push(format!("\"{k}\":{}", fmt_f64(*g))),
                Metric::Histogram(h) => {
                    let buckets = h
                        .nonzero_buckets()
                        .iter()
                        .map(|(lo, n)| format!("[{},{n}]", lo.as_micros()))
                        .collect::<Vec<_>>()
                        .join(",");
                    histograms.push(format!(
                        "\"{k}\":{{\"count\":{},\"sum_us\":{},\"underflow\":{},\
                         \"overflow\":{},\"buckets\":[{buckets}]}}",
                        h.count(),
                        h.sum_micros(),
                        h.underflow(),
                        h.overflow(),
                    ));
                }
            }
        }
        format!(
            "{{\"radcrit_metrics\":1,\"counters\":{{{}}},\"gauges\":{{{}}},\
             \"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(","),
        )
    }

    /// Parses the scalar half of a [`MetricsSnapshot::to_json`] line
    /// back into a snapshot: counters and gauges round-trip exactly;
    /// histograms are *not* reconstructed (their bucket encoding is
    /// lossy about the underlying `Log2Histogram`) and are skipped.
    /// This is what lets a coordinator fold a remote daemon's `/metrics`
    /// JSON into its own registry.
    ///
    /// # Errors
    ///
    /// A line that is not a `radcrit_metrics` v1 object, or counter /
    /// gauge values of the wrong type.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let parsed = crate::json::parse_line(line)?;
        let top = crate::json::as_obj(&parsed)?;
        if crate::json::get_usize(top, "radcrit_metrics") != Ok(1) {
            return Err("not a radcrit_metrics v1 snapshot".into());
        }
        // Keys were rendered as `name{k="v",…}`: split at the first
        // brace; the label part round-trips verbatim.
        let split_key = |k: &str| -> MetricKey {
            match k.find('{') {
                Some(at) => MetricKey {
                    name: k[..at].to_owned(),
                    labels: k[at..].to_owned(),
                },
                None => MetricKey {
                    name: k.to_owned(),
                    labels: String::new(),
                },
            }
        };
        let mut entries = BTreeMap::new();
        for (k, v) in crate::json::as_obj(crate::json::get(top, "counters")?)? {
            match v {
                crate::json::Json::Num(n) => {
                    let c = n.parse().map_err(|_| format!("counter {k:?}: {n:?}"))?;
                    entries.insert(split_key(k), Metric::Counter(c));
                }
                _ => return Err(format!("counter {k:?} is not a number")),
            }
        }
        for (k, v) in crate::json::as_obj(crate::json::get(top, "gauges")?)? {
            match v {
                crate::json::Json::Num(n) => {
                    let g = n.parse().map_err(|_| format!("gauge {k:?}: {n:?}"))?;
                    entries.insert(split_key(k), Metric::Gauge(g));
                }
                _ => return Err(format!("gauge {k:?} is not a number")),
            }
        }
        Ok(MetricsSnapshot { entries })
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Histograms emit `_bucket{le=…}` (cumulative, µs), `_sum` (µs) and
    /// `_count` series; the explicit underflow/overflow counts are
    /// exported as companion `_underflow`/`_overflow` counters. Names
    /// present in [`METRIC_REFERENCE`] get a `# HELP` line immediately
    /// before their `# TYPE` line.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_typed: Option<(String, &'static str)> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &'static str| {
            if last_typed
                .as_ref()
                .is_none_or(|(n, k)| n != name || *k != kind)
            {
                if let Some(h) = help_for(name) {
                    out.push_str(&format!("# HELP {name} {}\n", escape_help(h.help)));
                }
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                last_typed = Some((name.to_owned(), kind));
            }
        };
        for (key, metric) in &self.entries {
            match metric {
                Metric::Counter(c) => {
                    type_line(&mut out, &key.name, "counter");
                    out.push_str(&format!("{}{} {c}\n", key.name, key.labels));
                }
                Metric::Gauge(g) => {
                    type_line(&mut out, &key.name, "gauge");
                    out.push_str(&format!("{}{} {}\n", key.name, key.labels, prom_f64(*g)));
                }
                Metric::Histogram(h) => {
                    type_line(&mut out, &key.name, "histogram");
                    for (le, cum) in h.cumulative_buckets() {
                        out.push_str(&format!(
                            "{}_bucket{} {cum}\n",
                            key.name,
                            merge_labels(&key.labels, &format!("le=\"{le}\""))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        key.name,
                        merge_labels(&key.labels, "le=\"+Inf\""),
                        h.count()
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        key.name,
                        key.labels,
                        h.sum_micros()
                    ));
                    out.push_str(&format!("{}_count{} {}\n", key.name, key.labels, h.count()));
                    out.push_str(&format!(
                        "{}_underflow{} {}\n",
                        key.name,
                        key.labels,
                        h.underflow()
                    ));
                    out.push_str(&format!(
                        "{}_overflow{} {}\n",
                        key.name,
                        key.labels,
                        h.overflow()
                    ));
                }
            }
        }
        out
    }
}

/// Merges an extra label into an already-rendered label set.
fn merge_labels(rendered: &str, extra: &str) -> String {
    if rendered.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &rendered[..rendered.len() - 1])
    }
}

/// Prometheus float rendering: `+Inf`, `-Inf`, `NaN` spellings.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        fmt_f64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let m = MetricsRegistry::new();
        m.counter_add("x_total", &[("site", "fpu")], 2);
        m.counter_add("x_total", &[("site", "fpu")], 3);
        m.counter_add("x_total", &[("site", "l2")], 1);
        let s = m.snapshot();
        assert_eq!(s.counter("x_total", &[("site", "fpu")]), Some(5));
        assert_eq!(s.counter("x_total", &[("site", "l2")]), Some(1));
        assert_eq!(s.counter("x_total", &[]), None);
    }

    #[test]
    fn gauges_last_write_wins() {
        let m = MetricsRegistry::new();
        m.gauge_set("g", &[], 1.0);
        m.gauge_set("g", &[], 2.5);
        assert_eq!(m.snapshot().gauge("g", &[]), Some(2.5));
    }

    #[test]
    fn histogram_observation_and_merge() {
        let m = MetricsRegistry::new();
        m.observe_duration("lat_us", &[], Duration::from_micros(10));
        let mut local = Log2Histogram::new();
        local.record(Duration::from_micros(100));
        local.record(Duration::from_nanos(1));
        m.merge_histogram("lat_us", &[], &local);
        let s = m.snapshot();
        let h = s.histogram("lat_us", &[]).unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.underflow(), 1);
    }

    #[test]
    fn prometheus_text_is_line_formatted() {
        let m = MetricsRegistry::new();
        m.counter_add("radcrit_runs_total", &[], 4);
        m.gauge_set("radcrit_sigma", &[], f64::INFINITY);
        m.observe_duration(
            "radcrit_lat_us",
            &[("phase", "tiles")],
            Duration::from_micros(3),
        );
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE radcrit_runs_total counter\n"));
        assert!(text.contains("radcrit_runs_total 4\n"));
        assert!(text.contains("radcrit_sigma +Inf\n"));
        assert!(text.contains("radcrit_lat_us_bucket{phase=\"tiles\",le=\"4\"} 1\n"));
        assert!(text.contains("radcrit_lat_us_bucket{phase=\"tiles\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("radcrit_lat_us_count{phase=\"tiles\"} 1\n"));
        // Every line is `name{labels} value` or a `# HELP`/`# TYPE`
        // comment.
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE ")
                    || line.starts_with("# HELP ")
                    || line.split(' ').count() == 2,
                "bad exposition line: {line}"
            );
        }
    }

    #[test]
    fn referenced_names_get_help_lines_before_type_lines() {
        let m = MetricsRegistry::new();
        m.counter_add("radcrit_engine_runs_total", &[], 1);
        m.counter_add("unreferenced_total", &[], 1);
        let text = m.snapshot().to_prometheus();
        let help = text.find("# HELP radcrit_engine_runs_total ").unwrap();
        let typed = text
            .find("# TYPE radcrit_engine_runs_total counter")
            .unwrap();
        assert!(help < typed, "HELP must precede TYPE: {text}");
        assert!(!text.contains("# HELP unreferenced_total"), "{text}");
    }

    #[test]
    fn metric_reference_is_sorted_and_unique() {
        for pair in METRIC_REFERENCE.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "reference must stay sorted: {} vs {}",
                pair[0].name,
                pair[1].name
            );
        }
        for m in METRIC_REFERENCE {
            assert!(
                matches!(m.kind, "counter" | "gauge" | "histogram"),
                "{}",
                m.name
            );
            assert!(!m.help.is_empty() && !m.help.contains('\n'), "{}", m.name);
            assert_eq!(help_for(m.name), Some(m));
        }
    }

    #[test]
    fn json_snapshot_parses_back() {
        let m = MetricsRegistry::new();
        m.counter_add("c_total", &[("k", "v")], 7);
        m.gauge_set("g", &[], 1.25);
        m.observe_duration("h_us", &[], Duration::from_micros(9));
        let json = m.snapshot().to_json();
        let v = crate::json::parse_line(&json).unwrap();
        let obj = crate::json::as_obj(&v).unwrap();
        assert_eq!(crate::json::get_usize(obj, "radcrit_metrics").unwrap(), 1);
        let counters = crate::json::as_obj(crate::json::get(obj, "counters").unwrap()).unwrap();
        assert_eq!(
            crate::json::get_usize(counters, "c_total{k=\"v\"}").unwrap(),
            7
        );
    }

    #[test]
    fn merge_snapshot_folds_per_job_registries() {
        let job_a = MetricsRegistry::new();
        job_a.counter_add("jobs_total", &[], 1);
        job_a.counter_add("outcomes_total", &[("outcome", "sdc")], 3);
        job_a.gauge_set("last_sigma", &[], 1.0);
        job_a.observe_duration("lat_us", &[], Duration::from_micros(10));

        let job_b = MetricsRegistry::new();
        job_b.counter_add("jobs_total", &[], 1);
        job_b.gauge_set("last_sigma", &[], 2.0);
        job_b.observe_duration("lat_us", &[], Duration::from_micros(100));

        let daemon = MetricsRegistry::new();
        daemon.merge_snapshot(&job_a.snapshot());
        daemon.merge_snapshot(&job_b.snapshot());
        let s = daemon.snapshot();
        assert_eq!(s.counter("jobs_total", &[]), Some(2), "counters add");
        assert_eq!(s.counter("outcomes_total", &[("outcome", "sdc")]), Some(3));
        assert_eq!(s.gauge("last_sigma", &[]), Some(2.0), "last write wins");
        assert_eq!(s.histogram("lat_us", &[]).unwrap().count(), 2);
    }

    #[test]
    fn labelled_merge_keeps_per_shard_series_apart() {
        let worker_a = MetricsRegistry::new();
        worker_a.counter_add("outcomes_total", &[("outcome", "sdc")], 3);
        worker_a.gauge_set("sigma", &[], 1.0);
        let worker_b = MetricsRegistry::new();
        worker_b.counter_add("outcomes_total", &[("outcome", "sdc")], 5);

        let coord = MetricsRegistry::new();
        coord.merge_snapshot_labelled(&worker_a.snapshot(), ("shard", "0"));
        coord.merge_snapshot_labelled(&worker_b.snapshot(), ("shard", "1"));
        let s = coord.snapshot();
        assert_eq!(
            s.counter("outcomes_total", &[("outcome", "sdc"), ("shard", "0")]),
            Some(3)
        );
        assert_eq!(
            s.counter("outcomes_total", &[("outcome", "sdc"), ("shard", "1")]),
            Some(5)
        );
        assert_eq!(s.gauge("sigma", &[("shard", "0")]), Some(1.0));
        assert_eq!(
            s.counter("outcomes_total", &[("outcome", "sdc")]),
            None,
            "unlabelled series must not exist"
        );
    }

    #[test]
    fn scalar_snapshot_round_trips_through_json() {
        let m = MetricsRegistry::new();
        m.counter_add("c_total", &[("k", "v")], 7);
        m.counter_add("plain_total", &[], 2);
        m.gauge_set("g", &[], 1.25);
        m.observe_duration("h_us", &[], Duration::from_micros(9));
        let parsed = MetricsSnapshot::from_json(&m.snapshot().to_json()).unwrap();
        assert_eq!(parsed.counter("c_total", &[("k", "v")]), Some(7));
        assert_eq!(parsed.counter("plain_total", &[]), Some(2));
        assert_eq!(parsed.gauge("g", &[]), Some(1.25));
        assert!(
            parsed.histogram("h_us", &[]).is_none(),
            "histograms are deliberately not reconstructed"
        );
        assert!(MetricsSnapshot::from_json("{\"nope\":1}").is_err());
    }

    #[test]
    fn snapshot_is_deterministic_order() {
        let m = MetricsRegistry::new();
        m.counter_add("b_total", &[], 1);
        m.counter_add("a_total", &[], 1);
        let text = m.snapshot().to_prometheus();
        let a = text.find("a_total").unwrap();
        let b = text.find("b_total").unwrap();
        assert!(a < b, "BTreeMap ordering must sort names");
    }
}
