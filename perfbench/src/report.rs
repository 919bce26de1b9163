//! Result rows and the two output lines: a detailed report (every row
//! with its quartiles and sample count, plus run context) and the final
//! one-line verdict the benchmark contract asks for.

use std::collections::BTreeMap;

use crate::stats;

/// One metric: its reported value and the spread of its samples.
#[derive(Debug, Clone)]
pub struct Row {
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

#[derive(Debug, Default)]
pub struct Report {
    pub rows: BTreeMap<&'static str, Row>,
    /// Operations attempted and failed (runner errors, missing records,
    /// jobs not `done`, HTTP errors and refusals).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate findings; any entry makes the run fail.
    pub mismatches: Vec<String>,
    /// Run context and simulated-science identity, printed verbatim.
    pub context: BTreeMap<&'static str, String>,
}

impl Report {
    /// A timing or ratio reported as the median of its samples.
    pub fn samples(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        let (q1, median, q3) = stats::quartiles(samples);
        self.rows.insert(
            name,
            Row {
                unit,
                value: median,
                q1,
                median,
                q3,
                n: samples.len(),
            },
        );
    }

    /// A figure measured once (a pooled rate, a count, a high-water
    /// mark), with the per-repetition samples behind it for spread.
    pub fn pooled(&mut self, name: &'static str, unit: &'static str, value: f64, per_rep: &[f64]) {
        let (q1, median, q3) = if per_rep.is_empty() {
            (value, value, value)
        } else {
            stats::quartiles(per_rep)
        };
        self.rows.insert(
            name,
            Row {
                unit,
                value,
                q1,
                median,
                q3,
                n: per_rep.len().max(1),
            },
        );
    }

    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.pooled(name, unit, value, &[]);
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        self.value(name, "count", value as f64);
    }

    pub fn fail(&mut self, finding: String) {
        self.mismatches.push(finding);
    }

    /// Counts one operation; an `Err` is a failure and is logged.
    pub fn attempt<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The detailed line: every row with quartiles and sample count.
    pub fn detail_json(&self) -> String {
        let mut s = String::from("{\"context\":{");
        let ctx: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", escape(v)))
            .collect();
        s.push_str(&ctx.join(","));
        s.push_str("},\"rows\":{");
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(name, r)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{}\",\"q1\":{},\"median\":{},\"q3\":{},\"n\":{}}}",
                    num(r.value),
                    r.unit,
                    num(r.q1),
                    num(r.median),
                    num(r.q3),
                    r.n
                )
            })
            .collect();
        s.push_str(&rows.join(","));
        s.push_str(&format!(
            "}},\"attempted\":{},\"failed\":{},\"mismatches\":{}}}",
            self.attempted,
            self.failed,
            self.mismatches.len()
        ));
        s
    }

    /// The final line: `correct`, `attempted`, `failed` and the named
    /// metrics with their units. A failed gate reports no metrics.
    pub fn verdict_json(&self, names: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = if self.correct() {
            names
                .iter()
                .map(|(name, unit)| {
                    format!(
                        "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                        num(self.rows[name].value)
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Shortest round-trip rendering; non-finite values (which no metric
/// should produce) become `null` so the line stays valid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}
