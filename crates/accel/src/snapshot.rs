//! Golden-prefix machine snapshots for differential injection execution.
//!
//! Execution is deterministic and a strike perturbs nothing before its
//! tile, so every faulty run's machine state at tile `r` is *bit-equal*
//! to the golden run's state at `r` for any `r ≤ strike.at_tile`. A
//! [`SnapshotSet`] captures that state (device memory, cache hierarchy,
//! running counters) at a tile stride during the golden run; an
//! injection then resumes from the nearest snapshot at or before its
//! strike tile instead of re-executing the whole prefix — see
//! `Engine::run_injection`.
//!
//! The set also keeps a `GoldenTable` of the golden run's per-tile
//! cache and traffic counters, the last dispatch position that loads
//! each buffer, and the golden output image. A resumed run whose strike
//! cannot perturb the cache hierarchy reports those counters instead of
//! simulating the hierarchy at all (a *cache-blind* run), and a resumed
//! run whose corruption no remaining tile can load stops there and
//! takes the rest of its outcome from them (the engine's cone exit).
//!
//! Snapshots are byte-bounded: a [`SnapshotPolicy`] caps the whole set,
//! and capture points that would exceed the budget are skipped (and
//! counted), never silently truncating correctness — a strike landing
//! before the first usable snapshot simply falls back to a full run.

use crate::cache::{CacheStats, FrozenCaches};
use crate::memory::BufferId;
use crate::program::{BufferSet, MachineCounters};

/// Default byte budget for one program's snapshot set. Kept below the
/// golden cache's default budget (64 MiB) so snapshot-carrying entries
/// stay cacheable; deltas (not full images) make this budget admit a
/// dense stride even for the largest paper kernels.
pub const DEFAULT_SNAPSHOT_BYTES: usize = 32 * 1024 * 1024;

/// Rough fixed overhead accounted per captured snapshot.
const SNAPSHOT_OVERHEAD_BYTES: usize = 4096;

/// How `Engine::golden_snapshotted` captures snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotPolicy {
    /// Tiles between snapshots; `0` derives the stride from the byte
    /// budget (as many evenly spaced snapshots as fit).
    pub stride: usize,
    /// Byte budget for the whole set; `0` means
    /// [`DEFAULT_SNAPSHOT_BYTES`].
    pub max_bytes: usize,
}

impl SnapshotPolicy {
    pub(crate) fn budget(&self) -> usize {
        if self.max_bytes == 0 {
            DEFAULT_SNAPSHOT_BYTES
        } else {
            self.max_bytes
        }
    }
}

/// Machine state captured immediately before one tile of the golden run
/// executed: resuming from it and executing tiles `at_tile..` replays
/// the golden run's suffix exactly.
///
/// Device memory is stored as a *delta* against the post-setup template:
/// only buffers written since setup (a golden run mutates memory solely
/// through program stores — there are no corrupted write-backs). The
/// engine rebuilds the full image as template ∪ delta on resume, so
/// read-only inputs are never duplicated per snapshot. The cache
/// hierarchy is kept frozen: only resident lines, with caches no tile
/// touched since the previous snapshot shared with it.
#[derive(Debug, Clone)]
pub(crate) struct EngineSnapshot {
    pub(crate) at_tile: usize,
    pub(crate) mem_delta: Vec<(BufferId, Vec<f64>)>,
    pub(crate) caches: FrozenCaches,
    pub(crate) counters: MachineCounters,
    pub(crate) l2_resident_samples: f64,
}

/// The golden run's counters after dispatch position `pos`, cumulative
/// over positions `0..=pos`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct GoldenTile {
    pub(crate) l2_hits: u64,
    pub(crate) l2_misses: u64,
    /// The running sum of per-tile L2 residency samples, accumulated in
    /// the same order as a full run so it is bit-equal to one.
    pub(crate) l2_resident_samples: f64,
    pub(crate) ops: u64,
    pub(crate) trans_ops: u64,
    pub(crate) loads: u64,
    pub(crate) stores: u64,
}

/// What a cache-blind run reads instead of simulating the hierarchy:
/// the golden run's cumulative counters per tile plus its end-of-run
/// cache statistics. A run whose tiles execute the golden sequence
/// with no flip pending touches exactly the golden addresses, so its
/// hierarchy would count exactly these numbers. A run that exits early
/// takes its suffix's counters from the same table.
#[derive(Debug, Clone, Default)]
pub(crate) struct GoldenTable {
    /// One entry per dispatch position, in order.
    pub(crate) tiles: Vec<GoldenTile>,
    /// Cache statistics after the final flush.
    pub(crate) end: CacheStats,
    /// Per [`BufferSet`] slot, the last dispatch position whose tile
    /// loads from that buffer (`None`: no tile loads it).
    pub(crate) last_load: Vec<Option<usize>>,
}

impl GoldenTable {
    /// Records that the tile at dispatch position `pos` loaded from
    /// `bufs`; positions arrive in ascending order.
    pub(crate) fn note_loads(&mut self, pos: usize, bufs: BufferSet) {
        for slot in bufs.slots() {
            if self.last_load.len() <= slot {
                self.last_load.resize(slot + 1, None);
            }
            self.last_load[slot] = Some(pos);
        }
    }

    /// The last dispatch position whose tile loads from any buffer of
    /// `bufs` (`None`: no tile loads any of them).
    pub(crate) fn last_load_of(&self, bufs: BufferSet) -> Option<usize> {
        bufs.slots()
            .filter_map(|slot| self.last_load.get(slot).copied().flatten())
            .max()
    }

    /// The golden counters of positions `pos + 1..`, as the difference
    /// of the cumulative entries.
    pub(crate) fn counters_after(&self, pos: usize) -> MachineCounters {
        let (at, end) = (&self.tiles[pos], self.tiles.last().expect("pos is a tile"));
        MachineCounters {
            ops: end.ops - at.ops,
            trans_ops: end.trans_ops - at.trans_ops,
            loads: end.loads - at.loads,
            stores: end.stores - at.stores,
        }
    }

    /// The cumulative L2 `(hits, misses)` over positions `0..pos`
    /// (zero for `pos == 0`).
    pub(crate) fn l2_before(&self, pos: usize) -> (u64, u64) {
        pos.checked_sub(1)
            .map_or((0, 0), |p| (self.tiles[p].l2_hits, self.tiles[p].l2_misses))
    }
}

/// A byte-bounded set of golden-prefix snapshots plus the golden run's
/// per-tile output-store spans (needed to bound the dirty output region
/// of a resumed faulty run), its per-tile counters (a `GoldenTable`) and
/// its final output.
#[derive(Debug, Clone, Default)]
pub struct SnapshotSet {
    pub(crate) snaps: Vec<EngineSnapshot>,
    /// Golden stores into the output buffer as `(tile, start, len)`
    /// element spans, ascending by tile.
    pub(crate) output_spans: Vec<(u32, u32, u32)>,
    pub(crate) golden: GoldenTable,
    /// The golden run's output after the final flush.
    pub(crate) golden_output: Vec<f64>,
    pub(crate) bytes: usize,
    pub(crate) skipped_tiles: u64,
}

impl SnapshotSet {
    /// Number of captured snapshots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// Whether no snapshot was captured (non-resumable program, zero
    /// tiles, or a budget too small for even one snapshot).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// Approximate bytes this set occupies, for cache accounting.
    #[must_use]
    pub fn cost_bytes(&self) -> usize {
        self.bytes
            + self.output_spans.len() * 12
            + self.golden.tiles.len() * std::mem::size_of::<GoldenTile>()
            + self.golden.last_load.len() * std::mem::size_of::<Option<usize>>()
            + self.golden_output.len() * 8
    }

    /// Capture points skipped because they would have exceeded the byte
    /// budget.
    #[must_use]
    pub fn skipped_tiles(&self) -> u64 {
        self.skipped_tiles
    }

    /// The golden counter table, when it covers a program of `tiles`
    /// tiles.
    pub(crate) fn golden_table(&self, tiles: usize) -> Option<&GoldenTable> {
        (self.golden.tiles.len() == tiles).then_some(&self.golden)
    }

    /// The snapshot with the greatest `at_tile` that is `<= tile`, if
    /// any.
    pub(crate) fn resume_point(&self, tile: usize) -> Option<&EngineSnapshot> {
        let i = self.snaps.partition_point(|s| s.at_tile <= tile);
        self.snaps[..i].last()
    }

    /// Golden output-store spans of tiles `>= tile`, as `(start, len)`
    /// element spans. Unioned with a faulty run's own store log these
    /// bound the dirty output region of any run resumed at `tile`.
    pub fn golden_spans_from(&self, tile: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let i = self
            .output_spans
            .partition_point(|&(t, _, _)| (t as usize) < tile);
        self.output_spans[i..]
            .iter()
            .map(|&(_, s, l)| (s as usize, l as usize))
    }

    /// Overwrites `output` with the golden output on the output-store
    /// spans of positions `>= tile`. A run whose tiles from `tile` on
    /// would only redo golden work ends with exactly these values there:
    /// each element takes its last golden writer's value.
    pub(crate) fn fill_golden_suffix(&self, output: &mut [f64], tile: usize) {
        for (s, l) in self.golden_spans_from(tile) {
            output[s..s + l].copy_from_slice(&self.golden_output[s..s + l]);
        }
    }

    pub(crate) fn push(&mut self, snap: EngineSnapshot, budget: usize) -> bool {
        let delta_bytes: usize = snap.mem_delta.iter().map(|(_, d)| d.len() * 8).sum();
        let cost = delta_bytes + snap.caches.approx_heap_bytes() + SNAPSHOT_OVERHEAD_BYTES;
        if self.bytes + cost > budget {
            self.skipped_tiles += 1;
            return false;
        }
        self.bytes += cost;
        self.snaps.push(snap);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(at_tile: usize) -> EngineSnapshot {
        EngineSnapshot {
            at_tile,
            mem_delta: Vec::new(),
            caches: crate::cache::CacheHierarchy::new(&crate::config::DeviceConfig::kepler_k40())
                .freeze(None),
            counters: MachineCounters::default(),
            l2_resident_samples: 0.0,
        }
    }

    #[test]
    fn resume_point_picks_nearest_at_or_before() {
        let mut set = SnapshotSet::default();
        for t in [0, 8, 16] {
            assert!(set.push(snap(t), usize::MAX));
        }
        assert_eq!(set.resume_point(0).unwrap().at_tile, 0);
        assert_eq!(set.resume_point(7).unwrap().at_tile, 0);
        assert_eq!(set.resume_point(8).unwrap().at_tile, 8);
        assert_eq!(set.resume_point(100).unwrap().at_tile, 16);
    }

    #[test]
    fn budget_skips_and_counts() {
        let mut set = SnapshotSet::default();
        assert!(set.push(snap(0), usize::MAX));
        let used = set.bytes;
        assert!(!set.push(snap(8), used), "second capture exceeds budget");
        assert_eq!(set.len(), 1);
        assert_eq!(set.skipped_tiles(), 1);
    }

    #[test]
    fn whole_schedule_over_budget_counts_every_capture_point() {
        // A budget too small for even one snapshot must skip (and count)
        // every capture point while keeping the set empty and free.
        let mut set = SnapshotSet::default();
        for t in [0, 4, 8, 12] {
            assert!(!set.push(snap(t), 1));
        }
        assert!(set.is_empty());
        assert_eq!(set.skipped_tiles(), 4);
        assert_eq!(set.bytes, 0, "skipped captures must not be charged");
        assert_eq!(set.cost_bytes(), 0);
        assert!(set.resume_point(100).is_none());
    }

    #[test]
    fn cost_bytes_charges_snapshots_once_plus_span_index() {
        // `cost_bytes` = accumulated per-snapshot cost (each capture
        // charged exactly once at push time) + 12 bytes per output span.
        let mut set = SnapshotSet::default();
        let mut per_push = Vec::new();
        for t in [0, 8] {
            let before = set.bytes;
            assert!(set.push(snap(t), usize::MAX));
            per_push.push(set.bytes - before);
        }
        assert_eq!(set.bytes, per_push.iter().sum::<usize>());
        assert_eq!(set.cost_bytes(), set.bytes);
        let mut with_spans = set.clone();
        with_spans.output_spans = vec![(0, 0, 8), (1, 8, 8)];
        assert_eq!(with_spans.cost_bytes(), set.bytes + 2 * 12);
    }

    #[test]
    fn cost_bytes_charges_the_golden_table_per_tile() {
        let mut set = SnapshotSet::default();
        assert!(set.push(snap(0), usize::MAX));
        let without = set.cost_bytes();
        set.golden.tiles = vec![GoldenTile::default(); 10];
        assert_eq!(
            set.cost_bytes(),
            without + 10 * std::mem::size_of::<GoldenTile>()
        );
        assert!(set.golden_table(10).is_some());
        assert!(set.golden_table(11).is_none(), "another program's table");
    }

    #[test]
    fn resume_point_is_the_latest_snapshot_at_or_before_tile() {
        let mut set = SnapshotSet::default();
        for t in [2, 8, 16] {
            assert!(set.push(snap(t), usize::MAX));
        }
        let at = |tile| set.resume_point(tile).map(|s| s.at_tile);
        assert_eq!(at(0), None);
        assert_eq!(at(2), Some(2));
        assert_eq!(at(9), Some(8));
        assert_eq!(at(100), Some(16));
    }

    #[test]
    fn cost_bytes_charges_the_golden_output_and_last_loads() {
        let mut set = SnapshotSet::default();
        assert!(set.push(snap(0), usize::MAX));
        let without = set.cost_bytes();
        set.golden_output = vec![0.0; 100];
        set.golden.note_loads(3, BufferSet::default());
        assert_eq!(
            set.cost_bytes(),
            without + 800,
            "empty load sets add no slot"
        );
        let mut loaded = BufferSet::default();
        loaded.insert(BufferId(2));
        set.golden.note_loads(3, loaded);
        assert_eq!(
            set.cost_bytes(),
            without + 800 + 3 * std::mem::size_of::<Option<usize>>()
        );
    }

    #[test]
    fn last_load_of_is_the_latest_reader_of_any_member() {
        let set_of = |ids: &[usize]| {
            let mut s = BufferSet::default();
            for &i in ids {
                s.insert(BufferId(i));
            }
            s
        };
        let mut g = GoldenTable::default();
        g.note_loads(0, set_of(&[0, 1]));
        g.note_loads(1, set_of(&[0]));
        g.note_loads(4, set_of(&[1, 70]));
        assert_eq!(g.last_load_of(set_of(&[0])), Some(1));
        assert_eq!(g.last_load_of(set_of(&[0, 1])), Some(4));
        assert_eq!(g.last_load_of(set_of(&[2])), None, "never loaded");
        assert_eq!(g.last_load_of(BufferSet::default()), None);
        // Indices past 62 share the top slot: conservatively the same.
        assert_eq!(g.last_load_of(set_of(&[99])), Some(4));
    }

    #[test]
    fn counters_after_are_the_suffix_differences() {
        let tile = |n: u64| GoldenTile {
            ops: 10 * n,
            trans_ops: n,
            loads: 4 * n,
            stores: 2 * n,
            ..GoldenTile::default()
        };
        let g = GoldenTable {
            tiles: (1..=5).map(tile).collect(),
            ..GoldenTable::default()
        };
        let rest = g.counters_after(1);
        assert_eq!(
            (rest.ops, rest.trans_ops, rest.loads, rest.stores),
            (30, 3, 12, 6)
        );
        assert_eq!(g.counters_after(4).ops, 0, "no suffix after the last tile");
    }

    #[test]
    fn golden_suffix_fill_covers_only_later_tiles_spans() {
        let set = SnapshotSet {
            output_spans: vec![(0, 0, 2), (2, 4, 2), (3, 2, 3)],
            golden_output: (0..8).map(f64::from).collect(),
            ..SnapshotSet::default()
        };
        let mut out = vec![-1.0; 8];
        set.fill_golden_suffix(&mut out, 2);
        assert_eq!(out, vec![-1.0, -1.0, 2.0, 3.0, 4.0, 5.0, -1.0, -1.0]);
    }

    #[test]
    fn golden_spans_filtered_by_tile() {
        let set = SnapshotSet {
            output_spans: vec![(0, 0, 8), (1, 8, 8), (3, 24, 8)],
            ..SnapshotSet::default()
        };
        let from1: Vec<_> = set.golden_spans_from(1).collect();
        assert_eq!(from1, vec![(8, 8), (24, 8)]);
        assert_eq!(set.golden_spans_from(4).count(), 0);
    }
}
