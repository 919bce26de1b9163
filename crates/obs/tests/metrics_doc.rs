//! Drift tests between the code and the docs: every registered help
//! entry in `METRIC_REFERENCE` must have a documented row in
//! `docs/METRICS.md` with the right exposition type, the doc must not
//! list metrics that no longer exist, and the alert rule lists in
//! `docs/METRICS.md` and `docs/TRACING.md` must name exactly
//! `AlertRule::ALL`.

use std::path::PathBuf;

use radcrit_obs::metrics::METRIC_REFERENCE;
use radcrit_obs::AlertRule;

fn doc_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../docs")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("docs/{name} missing at {}: {e}", path.display()))
}

fn doc_text() -> String {
    doc_file("METRICS.md")
}

/// The rule list in the `heading` section of `doc`: the count word
/// right before "rules" (skipping "typed") and the backticked names
/// from the colon that follows it to the end of the sentence.
fn rule_list(doc: &str, heading: &str) -> (String, Vec<String>) {
    let start = doc
        .find(heading)
        .unwrap_or_else(|| panic!("section {heading:?} missing"));
    let section = &doc[start + heading.len()..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    let colon = section
        .match_indices(':')
        .map(|(at, _)| at)
        .find(|&at| section[at + 1..].trim_start().starts_with('`'))
        .unwrap_or_else(|| panic!("{heading:?} has no rule list after a colon"));
    let words: Vec<&str> = section[..colon]
        .split_whitespace()
        .filter(|w| *w != "typed")
        .collect();
    let rules_at = words
        .iter()
        .rposition(|w| *w == "rules")
        .unwrap_or_else(|| panic!("{heading:?}: no \"rules\" before the list"));
    let count = words[rules_at - 1].to_owned();
    let list = &section[colon + 1..];
    let list = &list[..list.find('.').expect("the list ends a sentence")];
    let names = list
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect();
    (count, names)
}

#[test]
fn the_alert_rule_lists_in_the_docs_match_the_enum() {
    const WORDS: [&str; 11] = [
        "zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
    ];
    let names: Vec<String> = AlertRule::ALL.iter().map(|r| r.name().to_owned()).collect();
    let count = WORDS[names.len()];
    for (file, heading) in [
        ("METRICS.md", "## Alerting"),
        ("TRACING.md", "## Health alerts"),
    ] {
        let (doc_count, doc_names) = rule_list(&doc_file(file), heading);
        assert_eq!(
            doc_names, names,
            "docs/{file} \"{heading}\" lists other rules than AlertRule::ALL"
        );
        assert_eq!(
            doc_count, count,
            "docs/{file} \"{heading}\" gives the wrong rule count"
        );
    }
}

#[test]
fn every_reference_entry_is_documented_with_its_type() {
    let doc = doc_text();
    let mut missing = Vec::new();
    for entry in METRIC_REFERENCE {
        // A table row pins name and type together on one line.
        let row = format!("`{}` | {} |", entry.name, entry.kind);
        if !doc.contains(&row) {
            missing.push(format!("{} ({})", entry.name, entry.kind));
        }
    }
    assert!(
        missing.is_empty(),
        "docs/METRICS.md is out of date; add rows `| name | type | meaning |` for: {missing:?}"
    );
}

#[test]
fn the_doc_does_not_list_retired_metrics() {
    // Every backticked radcrit_* token in the doc must still exist in
    // the reference table (no stale rows after a rename).
    let doc = doc_text();
    let known: Vec<&str> = METRIC_REFERENCE.iter().map(|e| e.name).collect();
    let mut stale = Vec::new();
    for token in doc.split('`').skip(1).step_by(2) {
        // Only metric-shaped tokens count: the prose also backticks the
        // bare `radcrit_` prefix and module paths like
        // `radcrit_obs::profile`.
        let looks_like_metric = token.len() > "radcrit_".len()
            && token.starts_with("radcrit_")
            && token
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if looks_like_metric && !known.contains(&token) {
            stale.push(token.to_owned());
        }
    }
    assert!(
        stale.is_empty(),
        "docs/METRICS.md names metrics absent from METRIC_REFERENCE: {stale:?}"
    );
}

#[test]
fn reference_entries_are_unique_and_sorted() {
    // The table doubles as an index; keep it deterministic.
    let names: Vec<&str> = METRIC_REFERENCE.iter().map(|e| e.name).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        names, sorted,
        "METRIC_REFERENCE must be sorted and free of duplicates"
    );
}
