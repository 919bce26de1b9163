//! Hierarchical scoped-phase profiler with per-thread lock-free
//! accumulation and merged profile trees.
//!
//! The profiler answers *where the injection-microseconds go*: a fixed
//! registry of [`PhaseId`]s (golden execution, fork, tile execution,
//! cache access, bulk memory load/store, corruption scan, output
//! compare, snapshot capture, checkpoint) is
//! instrumented through the engine and campaign hot paths with
//! [`phase`] scopes. Like the span/event API, it is **zero-cost when
//! disabled**: [`phase`] reads one thread-local flag and returns `None`
//! without touching a clock, and profiling never writes to the
//! deterministic event stream — a fixed-seed campaign emits a
//! byte-identical stream with profiling on or off. Timings are
//! wall-clock and live beside the metrics registry as operational
//! output, never as science.
//!
//! Aggregation is per-worker: each worker thread enables its own
//! thread-local accumulator ([`enable_thread`]), records scopes without
//! any locking or atomics, and drains a [`ProfileTree`]
//! ([`drain_thread`]) that the campaign merges into a shared
//! [`ProfileCollector`] once, at thread exit. The merged tree exports
//! as one-line JSON (`profile_out`), Brendan-Gregg collapsed-stack text
//! for flamegraphs ([`ProfileTree::to_collapsed`]), and a hot-phase
//! ranking ([`ProfileTree::hot_phases`]).
//!
//! ## Scope discipline
//!
//! Scopes nest strictly (guards are dropped in reverse creation order),
//! so each node's *self time* is its wall total minus the wall total of
//! its children — the invariant `self_ns + Σ child.total_ns ==
//! total_ns` holds per node, and children's time is never double
//! counted into siblings.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{self, Json};

/// Number of phases in the fixed registry.
pub const PHASE_COUNT: usize = 10;

/// The fixed registry of profiled phases.
///
/// The set is closed on purpose: a fixed, small phase vocabulary keeps
/// the per-node child table a flat array (no hashing on the hot path)
/// and makes profiles from different workers, jobs and daemons
/// mergeable by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum PhaseId {
    /// Golden (fault-free) reference execution.
    Golden = 0,
    /// One injection's execution from its resume point
    /// (`Engine::run_injection`), including its state restore.
    Fork = 1,
    /// One kernel tile body (`Program::execute_tile`).
    TileExecute = 2,
    /// Cache-hierarchy access (way scan, fill, writeback collection).
    CacheAccess = 3,
    /// Bulk row load from simulated memory into tile registers.
    MemLoad = 4,
    /// Bulk row store from tile registers into simulated memory.
    MemStore = 5,
    /// Scan for pending cache-line corruption overlapping an access.
    CorruptionScan = 6,
    /// Faulty-vs-golden output comparison (dense or sparse).
    Compare = 7,
    /// Golden-prefix snapshot capture during execution.
    SnapshotCapture = 8,
    /// Campaign checkpoint append.
    Checkpoint = 9,
}

impl PhaseId {
    /// Every phase, in registry order.
    pub const ALL: [PhaseId; PHASE_COUNT] = [
        PhaseId::Golden,
        PhaseId::Fork,
        PhaseId::TileExecute,
        PhaseId::CacheAccess,
        PhaseId::MemLoad,
        PhaseId::MemStore,
        PhaseId::CorruptionScan,
        PhaseId::Compare,
        PhaseId::SnapshotCapture,
        PhaseId::Checkpoint,
    ];

    /// The phase's stable export name.
    pub fn name(self) -> &'static str {
        match self {
            PhaseId::Golden => "golden",
            PhaseId::Fork => "fork",
            PhaseId::TileExecute => "tile-execute",
            PhaseId::CacheAccess => "cache-access",
            PhaseId::MemLoad => "mem-load",
            PhaseId::MemStore => "mem-store",
            PhaseId::CorruptionScan => "corruption-scan",
            PhaseId::Compare => "compare",
            PhaseId::SnapshotCapture => "snapshot-capture",
            PhaseId::Checkpoint => "checkpoint",
        }
    }

    /// Parses an export name back into a phase (`None` for foreign
    /// names — a profile written by a newer build stays loadable).
    pub fn from_name(name: &str) -> Option<PhaseId> {
        PhaseId::ALL.iter().copied().find(|p| p.name() == name)
    }
}

const NO_NODE: u32 = u32::MAX;

/// One node of the in-construction per-thread tree. The child table is
/// a flat per-phase array so the enter path is two indexed loads.
#[derive(Debug, Clone)]
struct RawNode {
    phase: usize,
    parent: u32,
    count: u64,
    total_ns: u64,
    child_ns: u64,
    min_ns: u64,
    max_ns: u64,
    children: [u32; PHASE_COUNT],
}

impl RawNode {
    fn new(phase: usize, parent: u32) -> Self {
        RawNode {
            phase,
            parent,
            count: 0,
            total_ns: 0,
            child_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            children: [NO_NODE; PHASE_COUNT],
        }
    }
}

/// The per-thread accumulator. Node 0 is a virtual root whose children
/// are the thread's top-level phases.
#[derive(Debug)]
struct ThreadProfiler {
    nodes: Vec<RawNode>,
    current: u32,
}

impl ThreadProfiler {
    fn new() -> Self {
        ThreadProfiler {
            nodes: vec![RawNode::new(usize::MAX, NO_NODE)],
            current: 0,
        }
    }

    fn enter(&mut self, phase: PhaseId) -> u32 {
        let cur = self.current as usize;
        let slot = self.nodes[cur].children[phase as usize];
        let node = if slot == NO_NODE {
            let idx = self.nodes.len() as u32;
            self.nodes.push(RawNode::new(phase as usize, self.current));
            self.nodes[cur].children[phase as usize] = idx;
            idx
        } else {
            slot
        };
        self.current = node;
        node
    }

    fn exit(&mut self, node: u32, elapsed_ns: u64) {
        let n = &mut self.nodes[node as usize];
        n.count += 1;
        n.total_ns += elapsed_ns;
        n.min_ns = n.min_ns.min(elapsed_ns);
        n.max_ns = n.max_ns.max(elapsed_ns);
        let parent = n.parent;
        self.current = parent;
        if parent != NO_NODE && parent != 0 {
            self.nodes[parent as usize].child_ns += elapsed_ns;
        }
    }

    fn drain(&mut self) -> ProfileTree {
        let roots = self.export_children(0);
        *self = ThreadProfiler::new();
        ProfileTree { threads: 1, roots }
    }

    fn export_children(&self, node: usize) -> Vec<ProfileNode> {
        let mut out = Vec::new();
        for phase in 0..PHASE_COUNT {
            let slot = self.nodes[node].children[phase];
            if slot == NO_NODE {
                continue;
            }
            let raw = &self.nodes[slot as usize];
            if raw.count == 0 && raw.children.iter().all(|&c| c == NO_NODE) {
                continue;
            }
            out.push(ProfileNode {
                phase: PhaseId::ALL[raw.phase].name().to_owned(),
                count: raw.count,
                total_ns: raw.total_ns,
                self_ns: raw.total_ns.saturating_sub(raw.child_ns),
                min_ns: if raw.min_ns == u64::MAX {
                    0
                } else {
                    raw.min_ns
                },
                max_ns: raw.max_ns,
                children: self.export_children(slot as usize),
            });
        }
        out
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static PROFILER: RefCell<ThreadProfiler> = RefCell::new(ThreadProfiler::new());
    static TILE_SAMPLES: Cell<u64> = const { Cell::new(0) };
}

/// Whether profiling is enabled on the calling thread.
#[inline]
pub fn profiling_enabled() -> bool {
    ACTIVE.with(Cell::get)
}

/// Default tile-sampling stride: one tile in this many has its
/// per-element memory sub-phases (mem-load, mem-store, cache-access,
/// corruption-scan) timed. Those phases open a scope per load/store
/// *call* — millions per campaign — so timing every call costs more
/// than the work being measured (~3x slowdown on DGEMM-256). Sampling
/// whole tiles keeps the nesting of a profiled tile exact and the
/// ratios *between* the memory sub-phases unbiased, while untimed
/// tiles' memory time simply stays in `tile-execute` self time. Counts
/// and durations of sampled phases are per-sample, not scaled up.
///
/// Override with [`set_tile_sample_stride`] or the
/// `RADCRIT_PROFILE_STRIDE` environment variable (1 = exhaustive, for
/// offline deep captures like the committed `PROFILE_7.json`).
pub const TILE_SAMPLE_STRIDE: u64 = 256;

/// Effective stride, resolved once: setter wins, then the
/// `RADCRIT_PROFILE_STRIDE` environment variable, then the default.
static STRIDE: AtomicU64 = AtomicU64::new(0);

/// Overrides the tile-sampling stride process-wide (clamped to ≥ 1).
/// Intended for deep offline captures where overhead does not matter —
/// e.g. `perfbench`'s traced run, which is not the timed one.
pub fn set_tile_sample_stride(stride: u64) {
    STRIDE.store(stride.max(1), Ordering::Relaxed);
}

fn tile_sample_stride() -> u64 {
    let s = STRIDE.load(Ordering::Relaxed);
    if s != 0 {
        return s;
    }
    let v = std::env::var("RADCRIT_PROFILE_STRIDE")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(TILE_SAMPLE_STRIDE);
    STRIDE.store(v, Ordering::Relaxed);
    v
}

/// Returns whether the next tile execution should profile its
/// per-element memory sub-phases: every stride-th tile on a profiling
/// thread, starting with the first (so even tiny runs sample at least
/// one tile per thread). Always false when the thread is not
/// profiling, without consuming a sample slot.
#[inline]
pub fn tile_sample() -> bool {
    if !profiling_enabled() {
        return false;
    }
    TILE_SAMPLES.with(|c| {
        let n = c.get();
        c.set(n + 1);
        n % tile_sample_stride() == 0
    })
}

/// Enables profiling on the calling thread with a fresh accumulator.
pub fn enable_thread() {
    PROFILER.with(|p| *p.borrow_mut() = ThreadProfiler::new());
    TILE_SAMPLES.with(|c| c.set(0));
    ACTIVE.with(|a| a.set(true));
}

/// Disables profiling on the calling thread and drains its accumulated
/// tree (empty when profiling was never enabled).
pub fn drain_thread() -> ProfileTree {
    ACTIVE.with(|a| a.set(false));
    PROFILER.with(|p| p.borrow_mut().drain())
}

/// Opens a phase scope when the calling thread is profiling; the
/// returned guard closes the scope on drop. The disabled path is one
/// thread-local flag read — no clock, no allocation.
#[inline]
pub fn phase(id: PhaseId) -> Option<PhaseScope> {
    if !profiling_enabled() {
        return None;
    }
    Some(open_scope(id))
}

/// [`phase`] with the enablement check hoisted out: hot loops that
/// sample [`profiling_enabled`] once per unit of work pass the cached
/// flag here, making the disabled path a plain register test.
#[inline]
pub fn phase_if(enabled: bool, id: PhaseId) -> Option<PhaseScope> {
    if !enabled {
        return None;
    }
    Some(open_scope(id))
}

fn open_scope(id: PhaseId) -> PhaseScope {
    let node = PROFILER.with(|p| p.borrow_mut().enter(id));
    PhaseScope {
        node,
        start: Instant::now(),
    }
}

/// An open phase scope; dropping it records the elapsed wall time into
/// the thread's accumulator and pops back to the parent phase.
#[derive(Debug)]
pub struct PhaseScope {
    node: u32,
    start: Instant,
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        PROFILER.with(|p| p.borrow_mut().exit(self.node, elapsed));
    }
}

/// One aggregated node of a merged profile tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileNode {
    /// Phase export name (see [`PhaseId::name`]).
    pub phase: String,
    /// Times this phase was entered at this stack position.
    pub count: u64,
    /// Total wall time inside the scope, nanoseconds.
    pub total_ns: u64,
    /// Wall time not attributed to any child scope, nanoseconds.
    pub self_ns: u64,
    /// Shortest single scope, nanoseconds.
    pub min_ns: u64,
    /// Longest single scope, nanoseconds.
    pub max_ns: u64,
    /// Child phases, in registry order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn merge_from(&mut self, other: &ProfileNode) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.min_ns = if self.count == other.count {
            other.min_ns
        } else if other.count == 0 {
            self.min_ns
        } else {
            self.min_ns.min(other.min_ns)
        };
        self.max_ns = self.max_ns.max(other.max_ns);
        merge_node_lists(&mut self.children, &other.children);
    }

    fn to_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"phase\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\
             \"min_ns\":{},\"max_ns\":{},\"children\":[",
            json::escape(&self.phase),
            self.count,
            self.total_ns,
            self.self_ns,
            self.min_ns,
            self.max_ns,
        ));
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.to_json(out);
        }
        out.push_str("]}");
    }

    fn from_json(v: &Json) -> Result<ProfileNode, String> {
        let obj = json::as_obj(v)?;
        let children = match json::get(obj, "children")? {
            Json::Arr(items) => items
                .iter()
                .map(ProfileNode::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("field \"children\" is not an array".into()),
        };
        Ok(ProfileNode {
            phase: json::get_str(obj, "phase")?.to_owned(),
            count: json::get_usize(obj, "count")? as u64,
            total_ns: json::get_usize(obj, "total_ns")? as u64,
            self_ns: json::get_usize(obj, "self_ns")? as u64,
            min_ns: json::get_usize(obj, "min_ns")? as u64,
            max_ns: json::get_usize(obj, "max_ns")? as u64,
            children,
        })
    }
}

/// Merges `other` node list into `into`, matching by phase name and
/// keeping registry order (foreign names sort last, alphabetically).
fn merge_node_lists(into: &mut Vec<ProfileNode>, other: &[ProfileNode]) {
    for node in other {
        match into.iter_mut().find(|n| n.phase == node.phase) {
            Some(existing) => existing.merge_from(node),
            None => into.push(node.clone()),
        }
    }
    into.sort_by_key(|n| {
        PhaseId::from_name(&n.phase).map_or_else(
            || (PHASE_COUNT, n.phase.clone()),
            |p| (p as usize, String::new()),
        )
    });
}

/// A merged, exportable profile tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileTree {
    /// Number of thread accumulators merged into this tree.
    pub threads: u64,
    /// Top-level phases (those entered with no enclosing scope).
    pub roots: Vec<ProfileNode>,
}

impl ProfileTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the tree holds no recorded phases.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Folds another tree into this one (phases merge by name; counts
    /// and times add, min/max combine).
    pub fn merge(&mut self, other: &ProfileTree) {
        self.threads += other.threads;
        merge_node_lists(&mut self.roots, &other.roots);
    }

    /// Total wall time across all root phases, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_ns).sum()
    }

    /// Renders the tree as one line of JSON (plus trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"radcrit_profile\":1,\"threads\":{},\"roots\":[",
            self.threads
        );
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            r.to_json(&mut out);
        }
        out.push_str("]}\n");
        out
    }

    /// Parses a tree back from its [`ProfileTree::to_json`] rendering.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first structural problem.
    pub fn from_json(text: &str) -> Result<ProfileTree, String> {
        let v = json::parse_line(text.trim())?;
        let obj = json::as_obj(&v)?;
        if json::get_usize(obj, "radcrit_profile")? != 1 {
            return Err("not a radcrit profile (version != 1)".into());
        }
        let roots = match json::get(obj, "roots")? {
            Json::Arr(items) => items
                .iter()
                .map(ProfileNode::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("field \"roots\" is not an array".into()),
        };
        Ok(ProfileTree {
            threads: json::get_usize(obj, "threads")? as u64,
            roots,
        })
    }

    /// Renders Brendan-Gregg collapsed-stack text: one
    /// `phase;phase;phase value` line per tree node, value = self time
    /// in microseconds. Feed directly to `flamegraph.pl` or speedscope.
    pub fn to_collapsed(&self) -> String {
        fn walk(node: &ProfileNode, prefix: &str, out: &mut String) {
            let stack = if prefix.is_empty() {
                node.phase.clone()
            } else {
                format!("{prefix};{}", node.phase)
            };
            out.push_str(&format!("{stack} {}\n", node.self_ns / 1_000));
            for c in &node.children {
                walk(c, &stack, out);
            }
        }
        let mut out = String::new();
        for r in &self.roots {
            walk(r, "", &mut out);
        }
        out
    }

    /// The hottest phases by aggregate self time across every stack
    /// position: `(phase, self_ns, count)` sorted hottest-first,
    /// truncated to `n`.
    pub fn hot_phases(&self, n: usize) -> Vec<(String, u64, u64)> {
        fn fold(node: &ProfileNode, acc: &mut Vec<(String, u64, u64)>) {
            match acc.iter_mut().find(|(p, _, _)| *p == node.phase) {
                Some(slot) => {
                    slot.1 += node.self_ns;
                    slot.2 += node.count;
                }
                None => acc.push((node.phase.clone(), node.self_ns, node.count)),
            }
            for c in &node.children {
                fold(c, acc);
            }
        }
        let mut acc = Vec::new();
        for r in &self.roots {
            fold(r, &mut acc);
        }
        acc.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        acc.truncate(n);
        acc
    }
}

/// The shared merge point: each thread drains into the collector once,
/// at thread exit, so the mutex is never contended on a hot path.
#[derive(Debug, Default)]
pub struct ProfileCollector {
    merged: Mutex<ProfileTree>,
}

impl ProfileCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one drained per-thread tree into the merged profile.
    pub fn merge(&self, tree: &ProfileTree) {
        self.merged.lock().expect("profile lock").merge(tree);
    }

    /// A copy of the merged tree so far.
    pub fn snapshot(&self) -> ProfileTree {
        self.merged.lock().expect("profile lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_scopes_are_none_and_record_nothing() {
        assert!(!profiling_enabled());
        assert!(phase(PhaseId::Golden).is_none());
        assert!(phase_if(false, PhaseId::Fork).is_none());
        let tree = drain_thread();
        assert!(tree.is_empty());
    }

    #[test]
    fn nested_scopes_build_a_tree_with_self_time() {
        enable_thread();
        {
            let _g = phase(PhaseId::Golden).unwrap();
            spin(Duration::from_micros(300));
            for _ in 0..3 {
                let _t = phase(PhaseId::TileExecute).unwrap();
                spin(Duration::from_micros(100));
                let _l = phase(PhaseId::MemLoad).unwrap();
                spin(Duration::from_micros(50));
            }
        }
        let tree = drain_thread();
        assert_eq!(tree.threads, 1);
        assert_eq!(tree.roots.len(), 1);
        let golden = &tree.roots[0];
        assert_eq!(golden.phase, "golden");
        assert_eq!(golden.count, 1);
        let tiles = &golden.children[0];
        assert_eq!(tiles.phase, "tile-execute");
        assert_eq!(tiles.count, 3);
        assert_eq!(tiles.children[0].phase, "mem-load");
        assert_eq!(tiles.children[0].count, 3);
        // Self-time invariant at every level.
        let child_total: u64 = golden.children.iter().map(|c| c.total_ns).sum();
        assert_eq!(golden.self_ns, golden.total_ns - child_total);
        assert!(golden.total_ns >= child_total);
        let tile_child: u64 = tiles.children.iter().map(|c| c.total_ns).sum();
        assert_eq!(tiles.self_ns, tiles.total_ns - tile_child);
        assert!(tiles.min_ns <= tiles.max_ns);
        assert!(tiles.min_ns > 0);
    }

    #[test]
    fn drain_resets_the_accumulator() {
        enable_thread();
        {
            let _g = phase(PhaseId::Compare).unwrap();
        }
        assert!(!drain_thread().is_empty());
        enable_thread();
        assert!(drain_thread().is_empty());
    }

    #[test]
    fn merge_adds_counts_and_combines_extrema() {
        let mk = |count, total, min, max| ProfileTree {
            threads: 1,
            roots: vec![ProfileNode {
                phase: "fork".into(),
                count,
                total_ns: total,
                self_ns: total,
                min_ns: min,
                max_ns: max,
                children: vec![],
            }],
        };
        let mut a = mk(2, 200, 50, 150);
        a.merge(&mk(3, 300, 20, 280));
        assert_eq!(a.threads, 2);
        assert_eq!(a.roots.len(), 1);
        let f = &a.roots[0];
        assert_eq!(f.count, 5);
        assert_eq!(f.total_ns, 500);
        assert_eq!(f.min_ns, 20);
        assert_eq!(f.max_ns, 280);
    }

    #[test]
    fn json_round_trips() {
        enable_thread();
        {
            let _f = phase(PhaseId::Fork).unwrap();
            let _t = phase(PhaseId::TileExecute).unwrap();
            spin(Duration::from_micros(80));
        }
        let tree = drain_thread();
        let json = tree.to_json();
        assert!(json.starts_with("{\"radcrit_profile\":1,"));
        let back = ProfileTree::from_json(&json).unwrap();
        assert_eq!(back, tree);
    }

    #[test]
    fn collapsed_stacks_carry_semicolon_paths() {
        enable_thread();
        {
            let _f = phase(PhaseId::Fork).unwrap();
            let _t = phase(PhaseId::TileExecute).unwrap();
            spin(Duration::from_micros(1_500));
        }
        let tree = drain_thread();
        let collapsed = tree.to_collapsed();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("fork "), "{collapsed}");
        assert!(lines[1].starts_with("fork;tile-execute "), "{collapsed}");
        for line in &lines {
            let (_, value) = line.rsplit_once(' ').unwrap();
            value.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn hot_phases_aggregate_across_stack_positions() {
        let leaf = |phase: &str, self_ns| ProfileNode {
            phase: phase.into(),
            count: 1,
            total_ns: self_ns,
            self_ns,
            min_ns: self_ns,
            max_ns: self_ns,
            children: vec![],
        };
        let tree = ProfileTree {
            threads: 1,
            roots: vec![
                ProfileNode {
                    children: vec![leaf("mem-load", 700)],
                    ..leaf("fork", 100)
                },
                ProfileNode {
                    children: vec![leaf("mem-load", 400)],
                    ..leaf("golden", 50)
                },
            ],
        };
        let hot = tree.hot_phases(2);
        assert_eq!(hot[0].0, "mem-load");
        assert_eq!(hot[0].1, 1100);
        assert_eq!(hot[0].2, 2);
        assert_eq!(hot[1].0, "fork");
    }

    #[test]
    fn collector_merges_thread_trees() {
        let collector = ProfileCollector::new();
        let tree = ProfileTree {
            threads: 1,
            roots: vec![ProfileNode {
                phase: "compare".into(),
                count: 4,
                total_ns: 400,
                self_ns: 400,
                min_ns: 90,
                max_ns: 110,
                children: vec![],
            }],
        };
        std::thread::scope(|s| {
            s.spawn(|| collector.merge(&tree));
            s.spawn(|| collector.merge(&tree));
        });
        let snap = collector.snapshot();
        assert_eq!(snap.threads, 2);
        assert_eq!(snap.roots[0].count, 8);
    }

    #[test]
    fn phase_names_round_trip_the_registry() {
        for p in PhaseId::ALL {
            assert_eq!(PhaseId::from_name(p.name()), Some(p));
        }
        assert_eq!(PhaseId::from_name("nope"), None);
    }
}
