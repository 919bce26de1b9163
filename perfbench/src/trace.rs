//! In-memory spans recorded around calls into radcrit's public API.
//!
//! The benchmark never instruments the program itself: every span
//! brackets one call the benchmark makes into a layer (`kernels`,
//! `faults`, `accel`, `campaign`, `serve`, `fabric`, `obs`), or the
//! benchmark's own glue (`bench`). Spans are kept in memory and written
//! out once, when the workload ends.
//!
//! Self time is attributed by a sweep over the root span's interval:
//! each instant goes to the innermost open spans (those with no open
//! child), split evenly when several lanes run at once. For a single
//! lane this is the usual "span minus the part its children cover"; with
//! concurrent client lanes it still adds up to the root's wall time,
//! which is the invariant [`Attribution::gap_frac`] checks.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    /// `u64::MAX` while the span is open.
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Campaign repetition or job the span belongs to.
    pub run: u64,
}

/// The span store. Disabled, it records nothing and costs two clock
/// reads per call (the durations are still measured and returned).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn root(&self) -> Ctx<'_> {
        Ctx {
            tracer: self,
            parent: None,
            run: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn open(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        run: u64,
        start: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            layer,
            name,
            start_ns: self.ns(start),
            end_ns: u64::MAX,
            parent,
            run,
        });
        Some(spans.len() - 1)
    }

    fn close(&self, id: Option<usize>, end: Instant) {
        if let Some(id) = id {
            let end_ns = self.ns(end);
            self.spans.lock().expect("span store poisoned")[id].end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{}}}",
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.run
            )?;
        }
        out.flush()
    }
}

/// Where new spans attach: a parent span and a run id.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    tracer: &'a Tracer,
    parent: Option<usize>,
    run: u64,
}

impl<'a> Ctx<'a> {
    pub fn with_run(self, run: u64) -> Self {
        Ctx { run, ..self }
    }

    /// Times `f` as a leaf span and returns its result with the elapsed
    /// time.
    pub fn call<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let id = self.tracer.open(layer, name, self.parent, self.run, start);
        let value = f();
        let end = Instant::now();
        self.tracer.close(id, end);
        (value, end - start)
    }

    /// Times `f` as a span whose children `f` records through the
    /// context it is handed.
    pub fn scope<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(Ctx<'a>) -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let id = self.tracer.open(layer, name, self.parent, self.run, start);
        let child = Ctx {
            parent: id.or(self.parent),
            ..*self
        };
        let value = f(child);
        let end = Instant::now();
        self.tracer.close(id, end);
        (value, end - start)
    }

    /// Records an already measured leaf span.
    pub fn record(&self, layer: &'static str, name: &'static str, start: Instant, end: Instant) {
        let id = self.tracer.open(layer, name, self.parent, self.run, start);
        self.tracer.close(id, end);
    }
}

/// Self time per layer over one root span.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    pub wall_ns: u64,
    pub by_layer: BTreeMap<&'static str, f64>,
    /// Spans that were still open, ended before they started, or lay
    /// outside their parent.
    pub malformed: usize,
}

impl Attribution {
    pub fn total_ns(&self) -> f64 {
        self.by_layer.values().sum()
    }

    /// `|Σ self − wall| / wall`.
    pub fn gap_frac(&self) -> f64 {
        if self.wall_ns == 0 {
            return 1.0;
        }
        (self.total_ns() - self.wall_ns as f64).abs() / self.wall_ns as f64
    }
}

/// Attributes the interval of span `root` to the innermost open spans.
pub fn attribute(spans: &[Span], root: usize) -> Attribution {
    let r = &spans[root];
    let mut att = Attribution {
        wall_ns: r.end_ns.saturating_sub(r.start_ns),
        ..Attribution::default()
    };
    // Boundary events clipped to the root: (time, is_start, span).
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (id, s) in spans.iter().enumerate() {
        let inside_parent = match s.parent {
            Some(p) => s.start_ns >= spans[p].start_ns && s.end_ns <= spans[p].end_ns,
            None => id == root,
        };
        if s.end_ns == u64::MAX || s.end_ns < s.start_ns || !inside_parent {
            att.malformed += 1;
            continue;
        }
        if s.end_ns <= r.start_ns || s.start_ns >= r.end_ns || !descends(spans, id, root) {
            continue;
        }
        events.push((s.start_ns.max(r.start_ns), true, id));
        events.push((s.end_ns.min(r.end_ns), false, id));
    }
    // Ends before starts at the same instant, so a span that closes as
    // its sibling opens never counts as both open.
    events.sort_by_key(|&(t, start, id)| (t, start, id));
    let mut open_children = vec![0usize; spans.len()];
    let mut open = vec![false; spans.len()];
    let mut leaves: Vec<usize> = Vec::new();
    let mut last = r.start_ns;
    for (t, start, id) in events {
        if t > last && !leaves.is_empty() {
            let share = (t - last) as f64 / leaves.len() as f64;
            for &leaf in &leaves {
                *att.by_layer.entry(spans[leaf].layer).or_default() += share;
            }
        }
        last = last.max(t);
        let parent = spans[id].parent.filter(|_| id != root);
        if start {
            open[id] = true;
            if let Some(p) = parent {
                open_children[p] += 1;
                leaves.retain(|&l| l != p);
            }
            leaves.push(id);
        } else {
            open[id] = false;
            leaves.retain(|&l| l != id);
            if let Some(p) = parent {
                open_children[p] -= 1;
                if open_children[p] == 0 && open[p] {
                    leaves.push(p);
                }
            }
        }
    }
    att
}

fn descends(spans: &[Span], mut id: usize, root: usize) -> bool {
    loop {
        if id == root {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn sequential_children_leave_the_rest_to_the_parent() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("accel", 10, 40, Some(0)),
            span("campaign", 50, 60, Some(0)),
            span("kernels", 20, 30, Some(1)),
        ];
        let a = attribute(&spans, 0);
        assert_eq!(a.by_layer["bench"], 60.0);
        assert_eq!(a.by_layer["accel"], 20.0);
        assert_eq!(a.by_layer["kernels"], 10.0);
        assert_eq!(a.by_layer["campaign"], 10.0);
        assert_eq!(a.gap_frac(), 0.0);
        assert_eq!(a.malformed, 0);
    }

    #[test]
    fn concurrent_lanes_split_the_overlap() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("bench", 0, 100, Some(0)),
            span("bench", 0, 100, Some(0)),
            span("serve", 0, 50, Some(1)),
            span("serve", 25, 75, Some(2)),
        ];
        let a = attribute(&spans, 0);
        assert!((a.total_ns() - 100.0).abs() < 1e-9);
        assert!((a.by_layer["serve"] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn a_child_outside_its_parent_is_flagged() {
        let spans = vec![span("bench", 0, 100, None), span("accel", 90, 120, Some(0))];
        assert_eq!(attribute(&spans, 0).malformed, 1);
    }
}
