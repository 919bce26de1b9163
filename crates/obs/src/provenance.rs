//! Fault-provenance records and the per-site breakdown report.
//!
//! A [`ProvenanceRecord`] joins the three halves of one injection's
//! story: the *strike* (site, tile, bit), the *execution* (which victim
//! state was corrupted, which tiles touched struck state afterwards),
//! and the *result* (outcome tag, mismatch count,
//! [`SpatialClass`], mean relative error). Records
//! travel as `provenance` events in the JSONL stream; the
//! [`ProvenanceBreakdown`] aggregates a stream back into the per-site
//! table the `obs-report` subcommand prints — answering "which fault
//! sites produce `Square` corruption, and how bad is it" directly.

use std::collections::BTreeMap;
use std::path::Path;

use radcrit_core::locality::SpatialClass;

use crate::event::{parse_event_line, Event, FieldValue};

/// The full provenance of one injection: strike + execution + result.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceRecord {
    /// Injection index within the campaign.
    pub index: u64,
    /// Fault-site name (e.g. `fpu`, `l2`, `watchdog`).
    pub site: String,
    /// Tile at which the strike was scheduled to land, when applicable.
    pub at_tile: Option<u64>,
    /// Tile whose architectural state was actually corrupted (register
    /// strikes pick a victim at delivery time).
    pub victim_tile: Option<u64>,
    /// Execution unit involved, when the site is unit-scoped.
    pub unit: Option<u64>,
    /// Flipped bit index, for single-bit strikes.
    pub bit: Option<u64>,
    /// Whether the strike landed in live state.
    pub delivered: bool,
    /// Tiles that touched struck state after delivery (from the
    /// execution trace).
    pub touched_tiles: Vec<u64>,
    /// Outcome tag: `MASKED`, `SDC`, `CRASH` or `HANG`.
    pub outcome: String,
    /// Number of mismatched output elements.
    pub mismatches: u64,
    /// Spatial class of the output corruption.
    pub class: SpatialClass,
    /// Mean relative error over mismatched elements, when an SDC
    /// produced one (`inf` is real data: golden-zero elements).
    pub mre: Option<f64>,
    /// Whether the SDC survives the tolerance filter (always `false`
    /// for non-SDC outcomes).
    pub critical: bool,
    /// Spatial class of the mismatches surviving the tolerance filter,
    /// present only when [`ProvenanceRecord::critical`] is set.
    pub fclass: Option<SpatialClass>,
}

impl ProvenanceRecord {
    /// Encodes the record as a `provenance` event.
    pub fn to_event(&self) -> Event {
        let mut fields = vec![("site".to_owned(), FieldValue::Str(self.site.clone()))];
        let mut opt = |k: &str, v: Option<u64>| {
            if let Some(v) = v {
                fields.push((k.to_owned(), FieldValue::U64(v)));
            }
        };
        opt("at", self.at_tile);
        opt("victim", self.victim_tile);
        opt("unit", self.unit);
        opt("bit", self.bit);
        fields.push(("delivered".to_owned(), FieldValue::Bool(self.delivered)));
        fields.push((
            "touched".to_owned(),
            FieldValue::Arr(self.touched_tiles.clone()),
        ));
        fields.push(("outcome".to_owned(), FieldValue::Str(self.outcome.clone())));
        fields.push(("mismatches".to_owned(), FieldValue::U64(self.mismatches)));
        fields.push(("class".to_owned(), FieldValue::Str(self.class.to_string())));
        if let Some(mre) = self.mre {
            fields.push(("mre".to_owned(), FieldValue::F64(mre)));
        }
        if self.critical {
            fields.push(("critical".to_owned(), FieldValue::Bool(true)));
        }
        if let Some(fclass) = self.fclass {
            fields.push(("fclass".to_owned(), FieldValue::Str(fclass.to_string())));
        }
        Event {
            kind: "provenance".to_owned(),
            index: Some(self.index),
            fields,
        }
    }

    /// Decodes a `provenance` event back into a record.
    ///
    /// # Errors
    ///
    /// When the event has the wrong kind or a missing/ill-typed field.
    pub fn from_event(event: &Event) -> Result<Self, String> {
        if event.kind != "provenance" {
            return Err(format!("not a provenance event: {:?}", event.kind));
        }
        let index = event.index.ok_or("provenance event without index")?;
        let str_field = |k: &str| -> Result<String, String> {
            match event.field(k) {
                Some(FieldValue::Str(s)) => Ok(s.clone()),
                _ => Err(format!("missing or ill-typed field {k:?}")),
            }
        };
        let opt_u64 = |k: &str| -> Result<Option<u64>, String> {
            match event.field(k) {
                None => Ok(None),
                Some(FieldValue::U64(v)) => Ok(Some(*v)),
                _ => Err(format!("ill-typed field {k:?}")),
            }
        };
        let class_name = str_field("class")?;
        let class = class_name
            .parse::<SpatialClass>()
            .map_err(|e| format!("bad spatial class {class_name:?}: {e}"))?;
        Ok(ProvenanceRecord {
            index,
            site: str_field("site")?,
            at_tile: opt_u64("at")?,
            victim_tile: opt_u64("victim")?,
            unit: opt_u64("unit")?,
            bit: opt_u64("bit")?,
            delivered: match event.field("delivered") {
                Some(FieldValue::Bool(b)) => *b,
                _ => return Err("missing or ill-typed field \"delivered\"".into()),
            },
            touched_tiles: match event.field("touched") {
                Some(FieldValue::Arr(tiles)) => tiles.clone(),
                _ => return Err("missing or ill-typed field \"touched\"".into()),
            },
            outcome: str_field("outcome")?,
            mismatches: match event.field("mismatches") {
                Some(FieldValue::U64(v)) => *v,
                _ => return Err("missing or ill-typed field \"mismatches\"".into()),
            },
            class,
            mre: match event.field("mre") {
                None => None,
                Some(FieldValue::F64(v)) => Some(*v),
                Some(FieldValue::U64(v)) => Some(*v as f64),
                _ => return Err("ill-typed field \"mre\"".into()),
            },
            critical: match event.field("critical") {
                None => false,
                Some(FieldValue::Bool(b)) => *b,
                _ => return Err("ill-typed field \"critical\"".into()),
            },
            fclass: match event.field("fclass") {
                None => None,
                Some(FieldValue::Str(s)) => Some(
                    s.parse::<SpatialClass>()
                        .map_err(|e| format!("bad filtered spatial class {s:?}: {e}"))?,
                ),
                _ => return Err("ill-typed field \"fclass\"".into()),
            },
        })
    }
}

/// Per-site aggregate over provenance records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteStats {
    /// Total injections attributed to the site.
    pub runs: u64,
    /// Injections whose strike landed in live state.
    pub delivered: u64,
    /// Outcome tag → count.
    pub outcomes: BTreeMap<String, u64>,
    /// Spatial class name → count (mismatching runs only).
    pub classes: BTreeMap<String, u64>,
    /// Sum of finite mean relative errors.
    pub mre_sum: f64,
    /// Count of finite mean relative errors.
    pub mre_count: u64,
    /// Count of infinite mean relative errors (golden-zero elements).
    pub mre_inf: u64,
}

/// Aggregates provenance records into the `obs-report` site table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProvenanceBreakdown {
    sites: BTreeMap<String, SiteStats>,
}

impl ProvenanceBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one record into the aggregate.
    pub fn add(&mut self, rec: &ProvenanceRecord) {
        let stats = self.sites.entry(rec.site.clone()).or_default();
        stats.runs += 1;
        if rec.delivered {
            stats.delivered += 1;
        }
        *stats.outcomes.entry(rec.outcome.clone()).or_default() += 1;
        if rec.mismatches > 0 {
            *stats.classes.entry(rec.class.to_string()).or_default() += 1;
        }
        if let Some(mre) = rec.mre {
            if mre.is_finite() {
                stats.mre_sum += mre;
                stats.mre_count += 1;
            } else {
                stats.mre_inf += 1;
            }
        }
    }

    /// Builds a breakdown by scanning the complete lines of an events
    /// JSONL file ([`crate::jsonl`] framing) for `provenance` events,
    /// skipping every other line.
    ///
    /// # Errors
    ///
    /// I/O errors, or a malformed provenance event (reported with its
    /// line number).
    pub fn from_events_path(path: &Path) -> Result<Self, String> {
        let mut out = Self::new();
        crate::jsonl::replay(path, |line| match parse_event_line(line) {
            Ok(event) if event.kind == "provenance" => {
                out.add(&ProvenanceRecord::from_event(&event)?);
                Ok(())
            }
            _ => Ok(()),
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(out)
    }

    /// The aggregated sites, in name order.
    pub fn sites(&self) -> &BTreeMap<String, SiteStats> {
        &self.sites
    }

    /// Spatial-class counts aggregated over all sites.
    pub fn class_totals(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for stats in self.sites.values() {
            for (class, n) in &stats.classes {
                *out.entry(class.clone()).or_default() += n;
            }
        }
        out
    }

    /// Renders the site table: one row per fault site with outcome
    /// counts, spatial-class counts and relative-error aggregates.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>6} {:>6}  {:<28} {:<28} {}\n",
            "site", "runs", "deliv", "outcomes", "spatial classes", "mean_rel_err"
        ));
        for (site, stats) in &self.sites {
            let fold = |map: &BTreeMap<String, u64>| {
                if map.is_empty() {
                    "-".to_owned()
                } else {
                    map.iter()
                        .map(|(k, v)| format!("{k}:{v}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                }
            };
            let mre = if stats.mre_count == 0 && stats.mre_inf == 0 {
                "-".to_owned()
            } else {
                let mut s = if stats.mre_count > 0 {
                    format!("{:.3e}", stats.mre_sum / stats.mre_count as f64)
                } else {
                    "-".to_owned()
                };
                if stats.mre_inf > 0 {
                    s.push_str(&format!(" ({} inf)", stats.mre_inf));
                }
                s
            };
            out.push_str(&format!(
                "{:<16} {:>6} {:>6}  {:<28} {:<28} {}\n",
                site,
                stats.runs,
                stats.delivered,
                fold(&stats.outcomes),
                fold(&stats.classes),
                mre
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: u64, site: &str, outcome: &str, class: SpatialClass) -> ProvenanceRecord {
        ProvenanceRecord {
            index,
            site: site.to_owned(),
            at_tile: Some(4),
            victim_tile: None,
            unit: Some(1),
            bit: Some(23),
            delivered: true,
            touched_tiles: vec![4, 5],
            outcome: outcome.to_owned(),
            mismatches: if outcome == "SDC" { 3 } else { 0 },
            class,
            mre: if outcome == "SDC" { Some(0.25) } else { None },
            critical: outcome == "SDC",
            fclass: (outcome == "SDC").then_some(class),
        }
    }

    #[test]
    fn record_round_trips_through_event() {
        let rec = record(9, "register_file", "SDC", SpatialClass::Line);
        let back = ProvenanceRecord::from_event(&rec.to_event()).unwrap();
        assert_eq!(back, rec);
        // Optional fields omitted when absent stay absent.
        let masked = record(2, "l2", "MASKED", SpatialClass::None);
        assert!(masked.to_event().field("mre").is_none());
        assert_eq!(
            ProvenanceRecord::from_event(&masked.to_event()).unwrap(),
            masked
        );
    }

    #[test]
    fn infinite_mre_round_trips() {
        let mut rec = record(1, "fpu", "SDC", SpatialClass::Single);
        rec.mre = Some(f64::INFINITY);
        let back = ProvenanceRecord::from_event(&rec.to_event()).unwrap();
        assert_eq!(back.mre, Some(f64::INFINITY));
    }

    #[test]
    fn breakdown_counts_by_site_and_class() {
        let mut b = ProvenanceBreakdown::new();
        b.add(&record(0, "fpu", "SDC", SpatialClass::Single));
        b.add(&record(1, "fpu", "SDC", SpatialClass::Square));
        b.add(&record(2, "fpu", "MASKED", SpatialClass::None));
        b.add(&record(3, "l2", "SDC", SpatialClass::Line));
        let fpu = &b.sites()["fpu"];
        assert_eq!(fpu.runs, 3);
        assert_eq!(fpu.outcomes["SDC"], 2);
        assert_eq!(fpu.outcomes["MASKED"], 1);
        assert_eq!(fpu.classes["single"], 1);
        assert_eq!(fpu.classes["square"], 1);
        // MASKED run (0 mismatches) contributes no class count.
        assert!(!fpu.classes.contains_key("none"));
        assert_eq!(b.class_totals()["line"], 1);
        assert_eq!(b.class_totals().len(), 3);
        let table = b.render();
        assert!(table.contains("fpu"));
        assert!(table.contains("single:1 square:1"));
    }

    #[test]
    fn infinite_mre_reported_separately() {
        let mut b = ProvenanceBreakdown::new();
        let mut inf = record(0, "sfu", "SDC", SpatialClass::Single);
        inf.mre = Some(f64::INFINITY);
        b.add(&inf);
        b.add(&record(1, "sfu", "SDC", SpatialClass::Single));
        let sfu = &b.sites()["sfu"];
        assert_eq!(sfu.mre_count, 1);
        assert_eq!(sfu.mre_inf, 1);
        assert!(b.render().contains("(1 inf)"));
    }

    #[test]
    fn from_events_path_skips_non_provenance_lines() {
        let path =
            std::env::temp_dir().join(format!("radcrit_obs_prov_{}.jsonl", std::process::id()));
        let rec = record(5, "scheduler", "SDC", SpatialClass::Random);
        let text = format!(
            "{}\n{}\n{}\n",
            r#"{"e":"run_begin","injections":8}"#,
            rec.to_event().line(),
            r#"{"e":"strike","i":5,"site":"scheduler"}"#
        );
        std::fs::write(&path, text).unwrap();
        let b = ProvenanceBreakdown::from_events_path(&path).unwrap();
        assert_eq!(b.sites()["scheduler"].runs, 1);
        std::fs::remove_file(&path).ok();
    }
}
