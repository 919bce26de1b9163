//! End-to-end tests of the hierarchical phase profiler: tree-sum
//! invariants of a freshly profiled campaign, phase counts against the
//! campaign's own counters, and the structural contract of the
//! committed `PROFILE_7.json` sample.

use std::path::PathBuf;
use std::sync::Arc;

use radcrit_accel::config::DeviceConfig;
use radcrit_campaign::{Campaign, KernelSpec, RunOptions};
use radcrit_obs::{MetricsRegistry, ProfileNode, ProfileTree};

fn dgemm_campaign(injections: usize, seed: u64, workers: usize) -> Campaign {
    Campaign::new(
        DeviceConfig::kepler_k40(),
        KernelSpec::Dgemm { n: 32 },
        injections,
        seed,
    )
    .with_workers(workers)
}

/// Asserts the arithmetic contract on every node: children cannot
/// out-sum their parent, and self time is exactly the unattributed
/// remainder. Returns the number of nodes visited.
fn assert_tree_sums(node: &ProfileNode, path: &str) -> usize {
    let here = format!("{path}/{}", node.phase);
    let child_total: u64 = node.children.iter().map(|c| c.total_ns).sum();
    assert!(
        child_total <= node.total_ns,
        "{here}: children total {child_total} ns exceeds parent total {} ns",
        node.total_ns
    );
    assert_eq!(
        node.self_ns,
        node.total_ns - child_total,
        "{here}: self time must be total minus children"
    );
    assert!(node.count > 0, "{here}: zero-count node exported");
    assert!(
        node.min_ns <= node.max_ns,
        "{here}: min {} > max {}",
        node.min_ns,
        node.max_ns
    );
    1 + node
        .children
        .iter()
        .map(|c| assert_tree_sums(c, &here))
        .sum::<usize>()
}

/// Total entry count of `phase` across every stack position.
fn phase_count(nodes: &[ProfileNode], phase: &str) -> u64 {
    nodes
        .iter()
        .map(|n| (if n.phase == phase { n.count } else { 0 }) + phase_count(&n.children, phase))
        .sum()
}

/// Finds a root node by phase name.
fn root<'t>(tree: &'t ProfileTree, phase: &str) -> Option<&'t ProfileNode> {
    tree.roots.iter().find(|r| r.phase == phase)
}

#[test]
fn profiled_campaign_satisfies_tree_invariants_and_count_cross_checks() {
    let profile_path = std::env::temp_dir().join(format!(
        "radcrit-profile-invariants-{}.json",
        std::process::id()
    ));
    std::fs::remove_file(&profile_path).ok();
    let metrics = Arc::new(MetricsRegistry::new());
    let campaign = dgemm_campaign(40, 11, 2);
    let result = campaign
        .run_with(&RunOptions {
            profile_out: Some(profile_path.clone()),
            metrics: Some(Arc::clone(&metrics)),
            ..RunOptions::default()
        })
        .unwrap();

    let text = std::fs::read_to_string(&profile_path).unwrap();
    std::fs::remove_file(&profile_path).ok();
    let tree = ProfileTree::from_json(&text).unwrap();

    // Main thread + both workers merged in.
    assert!(
        tree.threads >= 3,
        "expected >=3 threads, got {}",
        tree.threads
    );

    let visited: usize = tree.roots.iter().map(|r| assert_tree_sums(r, "")).sum();
    assert!(visited >= 5, "suspiciously small tree ({visited} nodes)");

    // The golden phase runs exactly once, on the collector thread, and
    // executes every golden tile under its scope.
    let golden = root(&tree, "golden").expect("golden root missing");
    assert_eq!(golden.count, 1);
    assert_eq!(
        phase_count(std::slice::from_ref(golden), "tile-execute"),
        result.profile.tiles as u64,
        "golden must execute each of the {} tiles once under its scope",
        result.profile.tiles
    );

    // Every strike (non-fatal plan) executes exactly once under a fork
    // scope and is compared against golden exactly once; crash/hang
    // plans never reach the engine or the diff.
    let strikes = result.records.iter().filter(|r| r.site != "fatal").count() as u64;
    assert!(strikes > 0, "the campaign must execute some strikes");
    assert_eq!(
        phase_count(&tree.roots, "fork"),
        strikes,
        "every strike execution must be a profiled fork scope"
    );
    assert_eq!(phase_count(&tree.roots, "compare"), strikes);
    // Every fork scope is one engine run, and the engine counts it.
    let runs = metrics
        .snapshot()
        .counter("radcrit_engine_runs_total", &[])
        .unwrap_or(0);
    assert_eq!(runs, strikes + 1, "one golden run plus one run per strike");

    // The memory path is instrumented: loads happen under fork scopes
    // (the injection execute path) and the load phase dominates raw call
    // counts, matching the ExecutionProfile's element traffic.
    assert!(phase_count(&tree.roots, "mem-load") > 0);
    assert!(phase_count(&tree.roots, "cache-access") > 0);

    // Collapsed export parses: every line is `stack self_us` with
    // semicolon-separated known frames.
    let collapsed = tree.to_collapsed();
    assert!(!collapsed.is_empty());
    for line in collapsed.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("line must end in a value");
        value.parse::<u64>().expect("value must be integer µs");
        assert!(!stack.is_empty());
    }
}

#[test]
fn committed_profile_sample_answers_where_the_time_goes() {
    // PROFILE_7.json (pre-SIMD-dispatch) and PROFILE_9.json (after the
    // load/cache/compare paths moved behind the runtime-ISA executor)
    // are committed DGEMM-256 samples (seed 11) captured via
    // `--profile-out` with RADCRIT_PROFILE_STRIDE=1. Wall-clock totals
    // vary per machine, so the test asserts structure: the invariants
    // hold, the expected phases are present, and the top self-time
    // phase is where the per-tile cost analysis put it. In PROFILE_7
    // that is `mem-load` (the ~35 µs/tile of row feeding). PROFILE_9's
    // bulk-copy fast path moved that time out of the row loads, so the
    // residual hotspot is `cache-access` — the LRU/tick bookkeeping
    // that stays sequential to keep eviction order bit-identical to
    // the scalar reference.
    committed_sample_checks("PROFILE_7.json", "mem-load");
    committed_sample_checks("PROFILE_9.json", "cache-access");
}

fn committed_sample_checks(sample: &str, top_phase: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../{sample}"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed sample {} missing: {e}", path.display()));
    let tree = ProfileTree::from_json(&text).unwrap();

    assert!(tree.threads >= 1);
    tree.roots.iter().for_each(|r| {
        assert_tree_sums(r, "");
    });

    for phase in [
        "golden",
        "fork",
        "compare",
        "tile-execute",
        "mem-load",
        "mem-store",
        "cache-access",
    ] {
        assert!(
            phase_count(&tree.roots, phase) > 0,
            "committed sample {sample} lacks phase {phase}"
        );
    }

    // The headline answer: the sample was captured with
    // RADCRIT_PROFILE_STRIDE=1 (every memory call timed, overhead be
    // damned — it is an offline capture), so attribution is exhaustive
    // and the hottest self-time phase is mem-load: the tile-execute
    // inner loop spends its time feeding operands through the cache
    // model, not in the FMA arithmetic and not in the store path.
    let hot = tree.hot_phases(12);
    assert!(!hot.is_empty());
    assert_eq!(
        hot[0].0, top_phase,
        "expected {top_phase} to dominate self time in {sample}, got {hot:?}"
    );
    let self_ns = |phase: &str| {
        hot.iter()
            .find(|(p, _, _)| p == phase)
            .map(|&(_, ns, _)| ns)
            .unwrap_or(0)
    };
    assert!(
        self_ns("mem-load") + self_ns("cache-access") > 5 * self_ns("mem-store"),
        "the load/cache path must dominate stores in {sample}: {hot:?}"
    );
}
