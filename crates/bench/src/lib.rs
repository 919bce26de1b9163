//! # radcrit-bench
//!
//! Rendering and shape-checking helpers for the reproduction harness.
//! The `repro` binary regenerates every table and figure of the paper
//! from fresh campaigns; this library turns campaign summaries into the
//! textual tables/series the paper reports and checks the qualitative
//! expectations ("who wins, by roughly what factor") recorded in
//! `DESIGN.md` §4.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use radcrit_campaign::summary::{CampaignSummary, ScatterPoint};
use radcrit_core::fit::FitBreakdown;
use radcrit_core::locality::SpatialClass;

/// Formats an aligned text table.
///
/// # Examples
///
/// ```
/// let t = radcrit_bench::table(
///     &["kernel", "bound"],
///     &[vec!["DGEMM".into(), "CPU".into()]],
/// );
/// assert!(t.contains("DGEMM"));
/// ```
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!(" {:<w$} |", cell, w = widths[i]));
        }
        line
    };
    let headers_owned: Vec<String> = headers.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&headers_owned, &widths));
    out.push('\n');
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{:-<w$}|", "", w = w + 2));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders a FIT break-down (one bar of Figs. 3/5/7) as one table row:
/// total plus per-class values in a.u.
pub fn fit_row(label: &str, b: &FitBreakdown, scale: f64) -> Vec<String> {
    let mut row = vec![
        label.to_owned(),
        format!("{:.2}", b.total().value() * scale),
    ];
    for class in SpatialClass::PLOTTED {
        row.push(format!("{:.2}", b.rate(class).value() * scale));
    }
    row
}

/// Header matching [`fit_row`].
pub fn fit_header() -> Vec<&'static str> {
    vec![
        "input", "total", "cubic", "square", "line", "single", "random",
    ]
}

/// Renders a scatter series (Figs. 2/4/6/8) as an ASCII density grid:
/// x = incorrect elements (log-ish bins), y = mean relative error capped
/// at `y_cap` percent.
pub fn scatter_grid(points: &[ScatterPoint], y_cap: f64, width: usize, height: usize) -> String {
    if points.is_empty() {
        return "(no faulty executions)\n".to_owned();
    }
    let x_max = points
        .iter()
        .map(|p| p.incorrect_elements)
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let mut grid = vec![vec![0usize; width]; height];
    for p in points {
        let x = ((p.incorrect_elements as f64).ln_1p() / x_max.ln_1p() * (width - 1) as f64).round()
            as usize;
        let y_val = p.mean_relative_error.min(y_cap);
        let y = (y_val / y_cap * (height - 1) as f64).round() as usize;
        grid[height - 1 - y.min(height - 1)][x.min(width - 1)] += 1;
    }
    let mut out = String::new();
    out.push_str(&format!(
        "mean relative error (capped {y_cap}%) vs incorrect elements (log scale, max {x_max})\n"
    ));
    for (r, row) in grid.iter().enumerate() {
        let y_label = y_cap * (height - 1 - r) as f64 / (height - 1) as f64;
        out.push_str(&format!("{y_label:>10.1}% |"));
        for &c in row {
            out.push(match c {
                0 => ' ',
                1 => '.',
                2..=4 => 'o',
                _ => '#',
            });
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>12}+{}\n", "", "-".repeat(width)));
    out
}

/// A textual summary of the §III metrics over a campaign's scatter.
pub fn scatter_stats(s: &CampaignSummary) -> String {
    let mres: Vec<f64> = s
        .scatter
        .iter()
        .map(|p| p.mean_relative_error)
        .filter(|v| v.is_finite())
        .collect();
    let elems: Vec<f64> = s
        .scatter
        .iter()
        .map(|p| p.incorrect_elements as f64)
        .collect();
    let q = |v: &[f64], p: f64| radcrit_core::stats::quantile(v, p).unwrap_or(0.0);
    let pct = |v: f64| -> String {
        if v >= 1.0e4 {
            format!("{v:.1e}%")
        } else {
            format!("{v:.2}%")
        }
    };
    format!(
        "SDCs: {} | incorrect elements p50/p90/max: {:.0}/{:.0}/{:.0} | \
         MRE p50/p90: {}/{} | <=10% MRE: {:.0}% | filtered out at {}%: {:.0}%",
        s.sdc,
        q(&elems, 0.5),
        q(&elems, 0.9),
        elems.iter().cloned().fold(0.0, f64::max),
        pct(q(&mres, 0.5)),
        pct(q(&mres, 0.9)),
        s.fraction_mre_at_most(10.0) * 100.0,
        radcrit_core::filter::ToleranceFilter::PAPER_THRESHOLD_PCT,
        s.filtered_out_fraction() * 100.0,
    )
}

/// One qualitative expectation from the paper, checked against measured
/// values; collected into the harness's PASS/FAIL shape report.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// What the paper claims.
    pub claim: String,
    /// The measured value rendered for the report.
    pub measured: String,
    /// Whether the reproduction matches the claim's direction/range.
    pub pass: bool,
}

impl ShapeCheck {
    /// Creates a check.
    pub fn new(claim: impl Into<String>, measured: impl Into<String>, pass: bool) -> Self {
        ShapeCheck {
            claim: claim.into(),
            measured: measured.into(),
            pass,
        }
    }

    /// Renders as a one-line report entry.
    pub fn line(&self) -> String {
        format!(
            "[{}] {} (measured: {})",
            if self.pass { "PASS" } else { "MISS" },
            self.claim,
            self.measured
        )
    }
}

/// Renders a block of shape checks with a tally.
pub fn shape_report(title: &str, checks: &[ShapeCheck]) -> String {
    let mut out = format!("-- shape checks: {title} --\n");
    for c in checks {
        out.push_str(&c.line());
        out.push('\n');
    }
    let passed = checks.iter().filter(|c| c.pass).count();
    out.push_str(&format!(
        "{} of {} shape checks hold\n",
        passed,
        checks.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = table(
            &["a", "bbbb"],
            &[
                vec!["xx".into(), "y".into()],
                vec!["z".into(), "wwwww".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "{t}");
    }

    #[test]
    fn fit_row_matches_header_width() {
        let b = FitBreakdown::new();
        assert_eq!(fit_row("x", &b, 1.0).len(), fit_header().len());
    }

    #[test]
    fn scatter_grid_handles_empty_and_nonempty() {
        assert!(scatter_grid(&[], 100.0, 10, 5).contains("no faulty"));
        let pts = vec![
            ScatterPoint {
                incorrect_elements: 1,
                mean_relative_error: 5.0,
            },
            ScatterPoint {
                incorrect_elements: 100,
                mean_relative_error: 95.0,
            },
        ];
        let g = scatter_grid(&pts, 100.0, 20, 8);
        assert!(g.contains('.') || g.contains('o'));
    }

    #[test]
    fn shape_check_lines_render() {
        let c = ShapeCheck::new("K40 wins", "1.5x", true);
        assert!(c.line().starts_with("[PASS]"));
        let r = shape_report("t", &[c, ShapeCheck::new("x", "y", false)]);
        assert!(r.contains("1 of 2"));
    }
}
