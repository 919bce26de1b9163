//! The program model: tiled kernels and their machine context.
//!
//! A [`TiledProgram`] is a kernel decomposed into *tiles* — units of
//! dispatch corresponding to CUDA thread blocks on the K40 and core tasks
//! on the Xeon Phi. Tiles within one step must be independent; programs
//! with iterative structure (stencils, time-stepped solvers) encode
//! `step × tile` into the tile index and double-buffer their state.
//!
//! All data movement goes through [`TileCtx`] so the cache hierarchy sees
//! every access (a cache-blind context, which the engine builds only
//! when the hierarchy cannot be observed, skips it), and all
//! floating-point arithmetic goes through the
//! `TileCtx` op wrappers ([`TileCtx::fma`], [`TileCtx::exp`], …) so that
//! in-flight logic upsets can corrupt individual operations. The wrappers
//! compile to plain arithmetic plus one predictable branch when no fault
//! is armed.

use radcrit_core::exec;
use radcrit_core::shape::OutputShape;
use radcrit_obs::profile::{phase_if, tile_sample, PhaseId};

use crate::error::AccelError;
use crate::memory::{BufferId, DeviceMemory};

/// Index of a tile within a program's dispatch space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileId(pub usize);

impl TileId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A kernel that executes tile by tile on the simulated device.
pub trait TiledProgram {
    /// Kernel name for logs and reports.
    fn name(&self) -> &str;

    /// Total number of tiles (across all steps for iterative kernels).
    fn tile_count(&self) -> usize;

    /// Tiles of one kernel *launch* (one time step for iterative
    /// kernels). Thread-count-driven exposure (scheduler queue, register
    /// residency) sees one launch at a time, not the whole run; Table II
    /// counts threads per launch. Defaults to [`TiledProgram::tile_count`]
    /// for single-launch kernels.
    fn tiles_per_launch(&self) -> usize {
        self.tile_count()
    }

    /// Threads one tile occupies on the device (drives wave width,
    /// scheduler strain and register exposure).
    fn threads_per_tile(&self) -> usize;

    /// Software-managed local/shared memory one tile occupies, in bytes.
    /// Big footprints limit occupancy on devices with shared memory
    /// (§V-B: LavaMD's ~14 KB per block). Defaults to 0.
    fn local_mem_per_tile(&self) -> usize {
        0
    }

    /// Allocates and initializes device buffers. Called once per run on a
    /// fresh [`DeviceMemory`].
    ///
    /// # Errors
    ///
    /// Propagates allocation/initialization failures.
    fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError>;

    /// Executes one tile, with all memory traffic and arithmetic routed
    /// through `ctx`.
    ///
    /// # Errors
    ///
    /// Propagates out-of-bounds accesses (which indicate a program bug,
    /// not a simulated fault).
    fn execute_tile(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError>;

    /// The buffer holding the kernel's output after the last tile.
    fn output(&self) -> BufferId;

    /// The logical geometry of the output buffer.
    fn output_shape(&self) -> OutputShape;

    /// Whether the engine may resume this program mid-run from a
    /// golden-prefix snapshot and reuse its post-setup memory image
    /// across runs. Requires [`TiledProgram::setup`] and
    /// [`TiledProgram::execute_tile`] to be pure over `self`: all
    /// run-varying state must live in device buffers, so replaying a
    /// suffix of tiles against restored machine state reproduces a full
    /// run bit for bit. Programs with observable per-execution state
    /// (e.g. an execution counter) must return `false`; the engine then
    /// always runs them from tile 0 with a fresh setup.
    ///
    /// A resumable program also promises that the ordered
    /// `(buffer, start, len)` loads and stores of a tile depend only on
    /// the tile id and the program's geometry, never on loaded values.
    /// A strike that corrupts values only then leaves every address the
    /// run touches equal to golden, so the engine may skip simulating
    /// the cache hierarchy and report the golden run's cache counters
    /// (a cache-blind run). Debug builds check each tile's load and
    /// store counts against the golden run's. DGEMM, LavaMD, HotSpot
    /// and shallow water all satisfy this.
    fn resumable(&self) -> bool {
        true
    }
}

/// An in-flight fault armed on one tile by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct TileFault {
    /// First corrupted arithmetic op (u64::MAX ⇒ none).
    pub logic_at: u64,
    /// Number of consecutive ops corrupted from `logic_at`.
    pub logic_lanes: u64,
    /// XOR mask for corrupted op results.
    pub logic_mask: u64,
    /// Corrupted transcendental op (u64::MAX ⇒ none); the scale applies
    /// to the *argument*.
    pub sfu_at: u64,
    /// Multiplier for the transcendental argument (corrupted range
    /// reduction).
    pub sfu_scale: f64,
    /// First corrupted store (u64::MAX ⇒ none).
    pub store_at: u64,
    /// Number of consecutive stale stores.
    pub store_len: u64,
    /// Garble: corrupt every op with a pseudo-random mask.
    pub garble: bool,
}

impl TileFault {
    pub(crate) fn none() -> Self {
        TileFault {
            logic_at: u64::MAX,
            logic_lanes: 0,
            logic_mask: 0,
            sfu_at: u64::MAX,
            sfu_scale: 1.0,
            store_at: u64::MAX,
            store_len: 0,
            garble: false,
        }
    }

    pub(crate) fn is_armed(&self) -> bool {
        self.garble || self.logic_at != u64::MAX || self.sfu_at != u64::MAX
    }
}

/// Cumulative machine counters across tiles (engine-owned).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MachineCounters {
    pub ops: u64,
    pub trans_ops: u64,
    pub loads: u64,
    pub stores: u64,
}

/// A set of device buffers, one bit per allocation index. Indices from
/// 63 on share the top bit, so the set over-approximates them as one
/// buffer: still sound for the engine's cone exit, and exact for every
/// kernel here (none allocates more than six buffers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BufferSet(u64);

impl BufferSet {
    /// The number of distinct slots a set can hold.
    const SLOTS: usize = 64;

    #[inline(always)]
    pub(crate) fn insert(&mut self, buf: BufferId) {
        self.0 |= 1 << buf.index().min(Self::SLOTS - 1);
    }

    /// Adds every buffer of `other`; returns whether the set grew.
    pub(crate) fn extend(&mut self, other: BufferSet) -> bool {
        let grew = other.0 & !self.0 != 0;
        self.0 |= other.0;
        grew
    }

    /// The occupied slots in ascending order.
    pub(crate) fn slots(self) -> impl Iterator<Item = usize> {
        (0..Self::SLOTS).filter(move |&i| self.0 >> i & 1 == 1)
    }
}

/// Records element spans written to one watched buffer — program stores
/// plus corrupted write-backs — so differential runs know the candidate
/// dirty region of the output without scanning it.
#[derive(Debug)]
pub(crate) struct StoreLog {
    watched: BufferId,
    pub(crate) spans: Vec<(usize, usize)>,
}

impl StoreLog {
    pub(crate) fn new(watched: BufferId) -> Self {
        StoreLog {
            watched,
            spans: Vec::new(),
        }
    }

    pub(crate) fn record(&mut self, buf: BufferId, start: usize, len: usize) {
        if buf == self.watched && len > 0 {
            self.spans.push((start, len));
        }
    }
}

/// The machine context one tile executes against: routed memory access,
/// instrumented arithmetic, and the fault state armed for this tile.
#[derive(Debug)]
pub struct TileCtx<'a> {
    pub(crate) mem: &'a mut DeviceMemory,
    pub(crate) caches: &'a mut crate::cache::CacheHierarchy,
    pub(crate) unit: usize,
    pub(crate) fault: TileFault,
    pub(crate) fault_armed: bool,
    pub(crate) store_log: Option<&'a mut StoreLog>,
    // Loads and stores move data but leave `caches` untouched: set for
    // cache-blind runs, whose hierarchy is never observed.
    pub(crate) cache_blind: bool,
    // Per-tile counters (reset each tile).
    pub(crate) ops: u64,
    pub(crate) trans_ops: u64,
    pub(crate) loads: u64,
    pub(crate) stores: u64,
    pub(crate) store_ops: u64,
    pub(crate) last_store: f64,
    pub(crate) garble_anchor: Option<f64>,
    pub(crate) garble_state: u64,
    // The buffers this tile loaded from, and those it stored to or that
    // a corrupted write-back flipped while it ran.
    pub(crate) loaded: BufferSet,
    pub(crate) stored: BufferSet,
    // Whether this tile's per-element memory phases are profiled:
    // decided once per tile (see `TILE_SAMPLE_STRIDE`) so the per-row
    // load/store scopes cost one register test on unprofiled tiles.
    pub(crate) prof: bool,
}

impl<'a> TileCtx<'a> {
    pub(crate) fn new(
        mem: &'a mut DeviceMemory,
        caches: &'a mut crate::cache::CacheHierarchy,
        unit: usize,
        fault: TileFault,
    ) -> Self {
        let fault_armed = fault.is_armed();
        TileCtx {
            mem,
            caches,
            unit,
            fault,
            fault_armed,
            store_log: None,
            cache_blind: false,
            ops: 0,
            trans_ops: 0,
            loads: 0,
            stores: 0,
            store_ops: 0,
            last_store: 0.0,
            garble_anchor: None,
            garble_state: 0x9E37_79B9_7F4A_7C15,
            loaded: BufferSet::default(),
            stored: BufferSet::default(),
            prof: tile_sample(),
        }
    }

    /// Attaches a store log; subsequent stores and write-backs to the
    /// watched buffer are recorded as dirty spans.
    pub(crate) fn with_store_log(mut self, log: &'a mut StoreLog) -> Self {
        self.store_log = Some(log);
        self
    }

    /// Makes loads and stores bypass the cache hierarchy: data moves
    /// between memory and the tile, and no line is touched, written
    /// back or checked for pending corruption.
    pub(crate) fn cache_blind(mut self) -> Self {
        self.cache_blind = true;
        self
    }

    /// The execution unit (SM / core) running this tile.
    pub fn unit(&self) -> usize {
        self.unit
    }

    /// Records one arithmetic operation and returns its (possibly
    /// corrupted) result. The fast path — no fault armed on this tile —
    /// is a counter increment and a predictable branch.
    #[inline(always)]
    pub fn op(&mut self, value: f64) -> f64 {
        let idx = self.ops;
        self.ops += 1;
        if self.fault_armed {
            self.op_faulty(idx, value)
        } else {
            value
        }
    }

    #[cold]
    fn op_faulty(&mut self, idx: u64, value: f64) -> f64 {
        if self.fault.garble {
            // Garbled dispatch/task state makes the unit compute with
            // wrong operands — data fetched from wrong addresses or
            // phases. The result is a *plausible-magnitude* wrong value
            // (an in-flight result from when the state was corrupted),
            // not a random bit pattern: replay the value latched at
            // corruption time, perturbed per op so outputs are not all
            // identical.
            let mut x = self.garble_state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.garble_state = x;
            if self.garble_anchor.is_none() {
                self.garble_anchor = Some(value);
            }
            let anchor = self.garble_anchor.expect("just set");
            // A small per-op wobble (±25 %) around the stale anchor.
            let wobble = 0.75 + (x >> 40) as f64 / (1u64 << 24) as f64 * 0.5;
            // Occasionally let the correct value through (some lanes
            // still hit the right data).
            return if x & 0xF == 0 { value } else { anchor * wobble };
        }
        if idx >= self.fault.logic_at && idx < self.fault.logic_at + self.fault.logic_lanes {
            return f64::from_bits(value.to_bits() ^ self.fault.logic_mask);
        }
        value
    }

    /// Fused multiply-add routed through the op counter: `a * b + acc`
    /// with a *single* rounding, like the hardware FFMA/VFMADD units of
    /// both paper devices (separate multiply-then-add rounds twice and
    /// matches neither). Host reference implementations must mirror the
    /// fusion with `f64::mul_add` to stay bitwise identical.
    #[inline(always)]
    pub fn fma(&mut self, a: f64, b: f64, acc: f64) -> f64 {
        // `mul_add` is correctly rounded on every lowering (hardware
        // FMA via libm's runtime dispatch, or the soft-float fallback),
        // so a single op needs no executor dispatch of its own; bulk
        // rows go through `exec::fma_row`.
        self.op(a.mul_add(b, acc))
    }

    /// Bulk fused multiply-add over a row: `acc[i] = fma(a, row[i],
    /// acc[i])` for each lane, one counted op per element — semantically
    /// identical to calling [`TileCtx::fma`] element by element (same op
    /// indices, same single-rounding fusion). The unarmed fast path
    /// counts the ops in one bump and leaves the row as a plain
    /// `mul_add` loop: inlined into a multiversioned tile body (see the
    /// kernels' `execute_tile` AVX2 wrappers) it vectorizes to fused
    /// hardware FMAs, while the portable fallback rounds identically.
    /// A faulted tile keeps the fast path for rows its fault cannot
    /// reach (see `TileCtx::faults_next_ops`).
    ///
    /// [`fma`]: TileCtx::fma
    #[inline(always)]
    pub fn fma_row(&mut self, a: f64, row: &[f64], acc: &mut [f64]) {
        let lanes = acc.len().min(row.len());
        if self.fault_armed && self.faults_next_ops(lanes as u64) {
            for (slot, &b) in acc.iter_mut().zip(row) {
                *slot = self.fma(a, b, *slot);
            }
            return;
        }
        for (slot, &b) in acc.iter_mut().zip(row) {
            *slot = a.mul_add(b, *slot);
        }
        self.ops += lanes as u64;
    }

    /// Block fused multiply-add: `acc[r][c] = fma(a[r][k], b[k][c],
    /// acc[r][c])` accumulated over `k` in ascending order — one counted
    /// op per element-update, semantically identical to the row-by-row
    /// loop `for r { for k { fma_row(a[r][k], &b[k], &mut acc[r]) } }`.
    ///
    /// The unarmed fast path processes two output rows at a time with
    /// the accumulators held in locals across the whole `k` loop, so in
    /// a multiversioned AVX2 tile body the compiler keeps them in
    /// vector registers instead of re-loading `acc` once per `k` — the
    /// difference between a memory-bound and an FMA-bound inner kernel.
    /// Per-element accumulation order over `k` is unchanged, so results
    /// are bit-identical to the reference loop. A faulted tile takes the
    /// per-op path only for blocks its fault can reach.
    #[inline(always)]
    pub fn fma_block<const N: usize>(
        &mut self,
        a: &[[f64; N]; N],
        b: &[[f64; N]; N],
        acc: &mut [[f64; N]; N],
    ) {
        if self.fault_armed && self.faults_next_ops((N * N * N) as u64) {
            // Exact reference order (r, k, c): op indices match the
            // row-by-row formulation element for element.
            for r in 0..N {
                for k in 0..N {
                    let ark = a[r][k];
                    for c in 0..N {
                        acc[r][c] = self.fma(ark, b[k][c], acc[r][c]);
                    }
                }
            }
            return;
        }
        let mut r = 0;
        while r + 2 <= N {
            let mut acc0 = acc[r];
            let mut acc1 = acc[r + 1];
            for k in 0..N {
                let a0 = a[r][k];
                let a1 = a[r + 1][k];
                let brow = &b[k];
                for c in 0..N {
                    acc0[c] = a0.mul_add(brow[c], acc0[c]);
                    acc1[c] = a1.mul_add(brow[c], acc1[c]);
                }
            }
            acc[r] = acc0;
            acc[r + 1] = acc1;
            r += 2;
        }
        if r < N {
            let mut acc0 = acc[r];
            for k in 0..N {
                let a0 = a[r][k];
                let brow = &b[k];
                for c in 0..N {
                    acc0[c] = a0.mul_add(brow[c], acc0[c]);
                }
            }
            acc[r] = acc0;
        }
        self.ops += (N * N * N) as u64;
    }

    /// Whether the armed fault can corrupt any of the next `n`
    /// arithmetic ops: a garbled tile corrupts every op, a logic fault
    /// only the ops in `[logic_at, logic_at + logic_lanes)`. An SFU or
    /// store fault never changes an arithmetic result.
    #[inline(always)]
    fn faults_next_ops(&self, n: u64) -> bool {
        let f = &self.fault;
        f.garble
            || (f.logic_at < self.ops.saturating_add(n)
                && self.ops < f.logic_at.saturating_add(f.logic_lanes))
    }

    /// Addition routed through the op counter.
    #[inline(always)]
    pub fn add(&mut self, a: f64, b: f64) -> f64 {
        self.op(a + b)
    }

    /// Multiplication routed through the op counter.
    #[inline(always)]
    pub fn mul(&mut self, a: f64, b: f64) -> f64 {
        self.op(a * b)
    }

    /// Division routed through the op counter.
    #[inline(always)]
    pub fn div(&mut self, a: f64, b: f64) -> f64 {
        self.op(a / b)
    }

    /// Exponential through the transcendental (SFU) unit: an armed SFU
    /// fault scales the *argument* (a corrupted range reduction),
    /// modeling the K40's exposed special function unit.
    #[inline(always)]
    pub fn exp(&mut self, x: f64) -> f64 {
        let idx = self.trans_ops;
        self.trans_ops += 1;
        let x = if self.fault_armed && idx == self.fault.sfu_at {
            x * self.fault.sfu_scale
        } else {
            x
        };
        x.exp()
    }

    /// Square root through the transcendental unit (same fault model as
    /// [`TileCtx::exp`]).
    #[inline(always)]
    pub fn sqrt(&mut self, x: f64) -> f64 {
        let idx = self.trans_ops;
        self.trans_ops += 1;
        let x = if self.fault_armed && idx == self.fault.sfu_at {
            x * self.fault.sfu_scale
        } else {
            x
        };
        x.sqrt()
    }

    /// Loads `dst.len()` consecutive elements starting at `start` from
    /// `buf` through the cache hierarchy, observing any corruption pending
    /// on resident lines.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::OutOfBounds`] when the range exceeds the
    /// buffer.
    #[inline]
    pub fn load(&mut self, buf: BufferId, start: usize, dst: &mut [f64]) -> Result<(), AccelError> {
        if dst.is_empty() {
            return Ok(());
        }
        // One ISA dispatch per bulk load: the `#[target_feature]`
        // wrapper compiles the whole body — window copy, cache way
        // scans, corruption gate — as one inlined AVX2 region. Called
        // from a kernel's own AVX2 tile wrapper the match folds away
        // and the body inlines into the kernel loop.
        match exec::active() {
            #[cfg(target_arch = "x86_64")]
            // Safety: `exec::active` only reports Avx2 after runtime
            // detection confirmed AVX2 + FMA on this host.
            exec::Isa::Avx2 => unsafe { self.load_avx2(buf, start, dst) },
            #[cfg(target_arch = "aarch64")]
            exec::Isa::Neon => self.load_body::<exec::Neon>(buf, start, dst),
            _ => self.load_body::<exec::Scalar>(buf, start, dst),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn load_avx2(
        &mut self,
        buf: BufferId,
        start: usize,
        dst: &mut [f64],
    ) -> Result<(), AccelError> {
        self.load_body::<exec::Avx2>(buf, start, dst)
    }

    #[inline(always)]
    fn load_body<E: exec::KernelExecutor>(
        &mut self,
        buf: BufferId,
        start: usize,
        dst: &mut [f64],
    ) -> Result<(), AccelError> {
        let _scope = phase_if(self.prof, PhaseId::MemLoad);
        self.loads += dst.len() as u64;
        self.loaded.insert(buf);
        let base = {
            let (base, window) = self.mem.window(buf, start, dst.len())?;
            E::copy_f64(window, dst);
            base
        };
        if self.cache_blind {
            return Ok(());
        }
        let wbs = {
            let _scope = phase_if(self.prof, PhaseId::CacheAccess);
            self.caches
                .access_body::<E>(self.unit, base, dst.len() * 8, false)
        };
        if !wbs.is_empty() {
            // Corruption reached DRAM mid-run; the run can no longer be
            // proven golden-equivalent.
            self.caches.corruption_touched = true;
        }
        self.stored.extend(apply_writebacks(
            self.mem,
            &wbs,
            self.store_log.as_deref_mut(),
        ));
        // Slow path only for elements on struck lines.
        if self.caches.has_pending_corruption() {
            let _scope = phase_if(self.prof, PhaseId::CorruptionScan);
            for (lo, hi) in self.caches.corrupted_elem_ranges(base, dst.len() * 8) {
                for (i, v) in dst.iter_mut().enumerate().take(hi).skip(lo) {
                    let mask = self.caches.corruption_for(self.unit, base + i * 8);
                    if mask != 0 {
                        *v = f64::from_bits(v.to_bits() ^ mask);
                        // A corrupted value entered the datapath.
                        self.caches.corruption_touched = true;
                    }
                }
            }
        }
        Ok(())
    }

    /// Strided bulk load: row `r` (of `dst.len() / width` rows) reads
    /// `width` consecutive elements starting at `start + r * stride`
    /// into `dst[r * width ..]`. Semantically identical to one
    /// [`TileCtx::load`] per row in ascending order — same counters,
    /// same cache touch order, write-backs applied between rows — but
    /// pays the ISA dispatch, phase scope and write-back bookkeeping
    /// once per call instead of once per row. The bulk-tile hot path
    /// for blocked kernels (DGEMM loads 32 rows per k-step).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::OutOfBounds`] when any row exceeds the
    /// buffer; rows before the offending one are already loaded.
    ///
    /// # Panics
    ///
    /// Panics when `width` is zero or does not divide `dst.len()`.
    #[inline]
    pub fn load_rows(
        &mut self,
        buf: BufferId,
        start: usize,
        stride: usize,
        width: usize,
        dst: &mut [f64],
    ) -> Result<(), AccelError> {
        assert!(
            width > 0 && dst.len().is_multiple_of(width),
            "load_rows width {width} must divide dst length {}",
            dst.len()
        );
        if dst.is_empty() {
            return Ok(());
        }
        match exec::active() {
            #[cfg(target_arch = "x86_64")]
            // Safety: `exec::active` only reports Avx2 after runtime
            // detection confirmed AVX2 + FMA on this host.
            exec::Isa::Avx2 => unsafe { self.load_rows_avx2(buf, start, stride, width, dst) },
            #[cfg(target_arch = "aarch64")]
            exec::Isa::Neon => self.load_rows_body::<exec::Neon>(buf, start, stride, width, dst),
            _ => self.load_rows_body::<exec::Scalar>(buf, start, stride, width, dst),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn load_rows_avx2(
        &mut self,
        buf: BufferId,
        start: usize,
        stride: usize,
        width: usize,
        dst: &mut [f64],
    ) -> Result<(), AccelError> {
        self.load_rows_body::<exec::Avx2>(buf, start, stride, width, dst)
    }

    #[inline(always)]
    fn load_rows_body<E: exec::KernelExecutor>(
        &mut self,
        buf: BufferId,
        start: usize,
        stride: usize,
        width: usize,
        dst: &mut [f64],
    ) -> Result<(), AccelError> {
        let _scope = phase_if(self.prof, PhaseId::MemLoad);
        self.loads += dst.len() as u64;
        self.loaded.insert(buf);
        let rows = dst.len() / width;
        // Fast path: while no flip is pending anywhere, no row can
        // observe corruption and no eviction can write one back — cache
        // state cannot affect loaded data, only the other way around.
        // One window borrow covers every row, copies run back to back,
        // and the per-row touch stream (identical order, so ticks, LRU
        // and hit counters match the slow path bit for bit) follows.
        // Flips are only added by strikes, never by loads, so the gate
        // cannot flip mid-call. A cache-blind context stops after the
        // copies.
        if self.cache_blind || !self.caches.has_pending_corruption() {
            let span = (rows - 1) * stride + width;
            if let Ok((base, window)) = self.mem.window(buf, start, span) {
                for (r, out) in dst.chunks_exact_mut(width).enumerate() {
                    E::copy_f64(&window[r * stride..r * stride + width], out);
                }
                if self.cache_blind {
                    return Ok(());
                }
                let _scope = phase_if(self.prof, PhaseId::CacheAccess);
                let mut wbs = Vec::new();
                for r in 0..rows {
                    self.caches.access_into::<E>(
                        self.unit,
                        base + r * stride * 8,
                        width * 8,
                        false,
                        &mut wbs,
                    );
                }
                debug_assert!(wbs.is_empty(), "write-backs require pending flips");
                return Ok(());
            }
            // Span lookup failed: fall through so the error surfaces
            // with per-row semantics (rows before the bad one load).
        }
        let mut wbs = Vec::new();
        let mut ranges = Vec::new();
        for (r, out) in dst.chunks_exact_mut(width).enumerate() {
            let rstart = start + r * stride;
            let base = {
                let (base, window) = self.mem.window(buf, rstart, width)?;
                E::copy_f64(window, out);
                base
            };
            if self.cache_blind {
                continue;
            }
            {
                let _scope = phase_if(self.prof, PhaseId::CacheAccess);
                self.caches
                    .access_into::<E>(self.unit, base, width * 8, false, &mut wbs);
            }
            if !wbs.is_empty() {
                // Corruption reached DRAM mid-run; the run can no
                // longer be proven golden-equivalent.
                self.caches.corruption_touched = true;
                self.stored.extend(apply_writebacks(
                    self.mem,
                    &wbs,
                    self.store_log.as_deref_mut(),
                ));
                wbs.clear();
            }
            if self.caches.has_pending_corruption() {
                let _scope = phase_if(self.prof, PhaseId::CorruptionScan);
                self.caches
                    .corrupted_ranges_into(base, width * 8, &mut ranges);
                for &(lo, hi) in &ranges {
                    for (i, v) in out.iter_mut().enumerate().take(hi).skip(lo) {
                        let mask = self.caches.corruption_for(self.unit, base + i * 8);
                        if mask != 0 {
                            *v = f64::from_bits(v.to_bits() ^ mask);
                            // A corrupted value entered the datapath.
                            self.caches.corruption_touched = true;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Loads a single element through the cache hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::OutOfBounds`] when `index` exceeds the
    /// buffer.
    pub fn read_one(&mut self, buf: BufferId, index: usize) -> Result<f64, AccelError> {
        let mut v = [0.0];
        self.load(buf, index, &mut v)?;
        Ok(v[0])
    }

    /// Stores `src` to consecutive elements starting at `start` of `buf`
    /// through the cache hierarchy. An armed core-control fault makes the
    /// affected stores write stale store-queue data (the previously stored
    /// value) instead of the computed one.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::OutOfBounds`] when the range exceeds the
    /// buffer.
    #[inline]
    pub fn store(&mut self, buf: BufferId, start: usize, src: &[f64]) -> Result<(), AccelError> {
        if src.is_empty() {
            return Ok(());
        }
        // Same single-dispatch structure as [`TileCtx::load`].
        match exec::active() {
            #[cfg(target_arch = "x86_64")]
            // Safety: `exec::active` only reports Avx2 after runtime
            // detection confirmed AVX2 + FMA on this host.
            exec::Isa::Avx2 => unsafe { self.store_avx2(buf, start, src) },
            #[cfg(target_arch = "aarch64")]
            exec::Isa::Neon => self.store_body::<exec::Neon>(buf, start, src),
            _ => self.store_body::<exec::Scalar>(buf, start, src),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn store_avx2(
        &mut self,
        buf: BufferId,
        start: usize,
        src: &[f64],
    ) -> Result<(), AccelError> {
        self.store_body::<exec::Avx2>(buf, start, src)
    }

    #[inline(always)]
    fn store_body<E: exec::KernelExecutor>(
        &mut self,
        buf: BufferId,
        start: usize,
        src: &[f64],
    ) -> Result<(), AccelError> {
        let _scope = phase_if(self.prof, PhaseId::MemStore);
        self.stores += src.len() as u64;
        self.stored.insert(buf);
        let fault_stores = self.fault.store_at != u64::MAX;
        let base = {
            let (base, window) = self.mem.window_mut(buf, start, src.len())?;
            if fault_stores {
                for (slot, &v) in window.iter_mut().zip(src) {
                    let idx = self.store_ops;
                    self.store_ops += 1;
                    if idx >= self.fault.store_at
                        && idx < self.fault.store_at + self.fault.store_len
                    {
                        *slot = self.last_store; // stale store-queue entry
                    } else {
                        *slot = v;
                        self.last_store = v;
                    }
                }
            } else {
                E::copy_f64(src, window);
                self.store_ops += src.len() as u64;
                if let Some(&last) = src.last() {
                    self.last_store = last;
                }
            }
            base
        };
        if let Some(log) = self.store_log.as_deref_mut() {
            log.record(buf, start, src.len());
        }
        if self.cache_blind {
            return Ok(());
        }
        let wbs = {
            let _scope = phase_if(self.prof, PhaseId::CacheAccess);
            self.caches
                .access_body::<E>(self.unit, base, src.len() * 8, true)
        };
        if !wbs.is_empty() {
            self.caches.corruption_touched = true;
        }
        self.stored.extend(apply_writebacks(
            self.mem,
            &wbs,
            self.store_log.as_deref_mut(),
        ));
        // A program store supersedes pending corruption of the element.
        if self.caches.has_pending_corruption() {
            let _scope = phase_if(self.prof, PhaseId::CorruptionScan);
            for (lo, hi) in self.caches.corrupted_elem_ranges(base, src.len() * 8) {
                for i in lo..hi {
                    self.caches.note_element_write(self.unit, base + i * 8);
                }
            }
        }
        Ok(())
    }

    /// Stores a single element through the cache hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::OutOfBounds`] when `index` exceeds the
    /// buffer.
    pub fn write_one(&mut self, buf: BufferId, index: usize, value: f64) -> Result<(), AccelError> {
        self.store(buf, index, &[value])
    }

    pub(crate) fn drain_counters(&self) -> MachineCounters {
        MachineCounters {
            ops: self.ops,
            trans_ops: self.trans_ops,
            loads: self.loads,
            stores: self.stores,
        }
    }
}

/// Applies corrupted write-backs (evicted dirty corrupted lines) to
/// backing memory, recording touched elements of a watched buffer.
/// Returns the buffers the write-backs flipped.
pub(crate) fn apply_writebacks(
    mem: &mut DeviceMemory,
    wbs: &[crate::cache::WriteBack],
    mut log: Option<&mut StoreLog>,
) -> BufferSet {
    let mut flipped = BufferSet::default();
    for wb in wbs {
        if let Some(addr) = mem.elem_at_byte(wb.byte_addr) {
            // Ignore failures: a write-back beyond any buffer means the
            // strike corrupted padding bytes, which no element observes.
            let _ = mem.flip_bits(addr.buffer, addr.index, wb.mask);
            flipped.insert(addr.buffer);
            if let Some(l) = log.as_deref_mut() {
                l.record(addr.buffer, addr.index, 1);
            }
        }
    }
    flipped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheHierarchy;
    use crate::config::DeviceConfig;

    fn machine() -> (DeviceMemory, CacheHierarchy) {
        let cfg = DeviceConfig::builder("t")
            .units(2)
            .max_threads_per_unit(64)
            .build()
            .unwrap();
        (DeviceMemory::new(), CacheHierarchy::new(&cfg))
    }

    #[test]
    fn ops_counted_and_clean_without_fault() {
        let (mut mem, mut caches) = machine();
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
        let r = ctx.fma(2.0, 3.0, 1.0);
        assert_eq!(r, 7.0);
        assert_eq!(ctx.add(1.0, 1.0), 2.0);
        assert_eq!(ctx.mul(2.0, 4.0), 8.0);
        assert_eq!(ctx.div(9.0, 3.0), 3.0);
        assert_eq!(ctx.ops, 4);
        let e = ctx.exp(0.0);
        assert_eq!(e, 1.0);
        assert_eq!(ctx.trans_ops, 1);
    }

    #[test]
    fn logic_fault_hits_exact_op() {
        let (mut mem, mut caches) = machine();
        let mut fault = TileFault::none();
        fault.logic_at = 1;
        fault.logic_lanes = 1;
        fault.logic_mask = 1 << 63; // sign flip
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
        assert_eq!(ctx.op(5.0), 5.0); // op 0 clean
        assert_eq!(ctx.op(5.0), -5.0); // op 1 corrupted
        assert_eq!(ctx.op(5.0), 5.0); // op 2 clean
    }

    #[test]
    fn vector_fault_hits_lane_burst() {
        let (mut mem, mut caches) = machine();
        let mut fault = TileFault::none();
        fault.logic_at = 2;
        fault.logic_lanes = 3;
        fault.logic_mask = 1 << 63;
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
        let got: Vec<f64> = (0..6).map(|_| ctx.op(1.0)).collect();
        assert_eq!(got, vec![1.0, 1.0, -1.0, -1.0, -1.0, 1.0]);
    }

    #[test]
    fn sfu_fault_scales_argument() {
        let (mut mem, mut caches) = machine();
        let mut fault = TileFault::none();
        fault.sfu_at = 0;
        // A corrupted range reduction off by -2^5: exp(-32x) explodes
        // for negative arguments.
        fault.sfu_scale = -32.0;
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
        let corrupted = ctx.exp(-1.0);
        assert!(corrupted > 1e13, "exp(32) expected, got {corrupted}");
        let clean = ctx.exp(-1.0); // only trans op 0 was armed
        assert!((clean - (-1.0f64).exp()).abs() < 1e-18);
    }

    #[test]
    fn garble_replays_stale_values() {
        let (mut mem, mut caches) = machine();
        let mut fault = TileFault::none();
        fault.garble = true;
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
        let results: Vec<f64> = (0..64).map(|i| ctx.op(10.0 + i as f64)).collect();
        let wrong = results
            .iter()
            .enumerate()
            .filter(|(i, &v)| v != 10.0 + *i as f64)
            .count();
        assert!(wrong > 40, "most op results must be wrong, got {wrong}/64");
        // And every produced value stays near the anchor's magnitude
        // (wrong-address data, not random bit garbage).
        for &v in &results {
            assert!((7.0..80.0).contains(&v), "implausible {v}");
        }
    }

    #[test]
    fn load_store_roundtrip_through_caches() {
        let (mut mem, mut caches) = machine();
        let buf = mem.alloc("data", 64);
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
        let src: Vec<f64> = (0..16).map(|i| i as f64).collect();
        ctx.store(buf, 8, &src).unwrap();
        let mut dst = vec![0.0; 16];
        ctx.load(buf, 8, &mut dst).unwrap();
        assert_eq!(dst, src);
        assert_eq!(ctx.loads, 16);
        assert_eq!(ctx.stores, 16);
        assert!(ctx.caches.stats().l2_hits > 0, "reload must hit the cache");
    }

    #[test]
    fn out_of_bounds_load_rejected() {
        let (mut mem, mut caches) = machine();
        let buf = mem.alloc("data", 4);
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
        let mut dst = vec![0.0; 8];
        assert!(ctx.load(buf, 0, &mut dst).is_err());
        assert!(ctx.store(buf, 2, &[0.0; 4]).is_err());
    }

    #[test]
    fn stale_store_fault_replays_previous_value() {
        let (mut mem, mut caches) = machine();
        let buf = mem.alloc("out", 8);
        let mut fault = TileFault::none();
        fault.store_at = 2;
        fault.store_len = 2;
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
        ctx.store(buf, 0, &[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        let mem2 = ctx.mem.to_vec(buf).unwrap();
        // Stores 2 and 3 replay the last good value (20.0).
        assert_eq!(&mem2[..5], &[10.0, 20.0, 20.0, 20.0, 50.0]);
    }

    #[test]
    fn corrupted_line_observed_by_load() {
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng as SmallRng;
        let (mut mem, mut caches) = machine();
        let buf = mem.alloc_init("in", &vec![1.0; 32]);
        let mut rng = SmallRng::seed_from_u64(3);
        {
            let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
            let mut dst = vec![0.0; 32];
            ctx.load(buf, 0, &mut dst).unwrap(); // bring lines in
        }
        let info = caches.strike_l2(&mut rng, 1 << 63).unwrap();
        let victim = mem.elem_at_byte(info.byte_addr).unwrap();
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
        let got = ctx.read_one(buf, victim.index).unwrap();
        assert_eq!(got, -1.0, "sign-flipped while resident");
        // Backing memory itself stays clean.
        assert_eq!(ctx.mem.read(buf, victim.index).unwrap(), 1.0);
    }

    #[test]
    fn store_log_records_only_watched_buffer_spans() {
        let (mut mem, mut caches) = machine();
        let out = mem.alloc("out", 32);
        let other = mem.alloc("other", 32);
        let mut log = StoreLog::new(out);
        {
            let mut ctx =
                TileCtx::new(&mut mem, &mut caches, 0, TileFault::none()).with_store_log(&mut log);
            ctx.store(out, 4, &[1.0; 8]).unwrap();
            ctx.store(other, 0, &[2.0; 4]).unwrap();
            ctx.store(out, 20, &[3.0; 2]).unwrap();
        }
        assert_eq!(log.spans, vec![(4, 8), (20, 2)]);
    }

    #[test]
    fn program_store_clears_pending_corruption() {
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng as SmallRng;
        let (mut mem, mut caches) = machine();
        let buf = mem.alloc("out", 32);
        let mut rng = SmallRng::seed_from_u64(4);
        {
            let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
            ctx.store(buf, 0, &vec![5.0; 32]).unwrap();
        }
        let info = caches.strike_l2(&mut rng, 0xFF).unwrap();
        let victim = mem.elem_at_byte(info.byte_addr).unwrap();
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
        ctx.write_one(buf, victim.index, 9.0).unwrap();
        assert_eq!(ctx.read_one(buf, victim.index).unwrap(), 9.0);
    }

    /// `load_rows` is a drop-in for one `load` per row: same bytes,
    /// same loads counter, same cache hit/miss stream — both in the
    /// clean fast path and with pending corruption forcing the
    /// per-row slow path.
    #[test]
    fn load_rows_matches_per_row_loads() {
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng as SmallRng;
        let data: Vec<f64> = (0..96).map(|i| f64::from(i) * 0.5 - 3.0).collect();
        let run = |strike: bool, bulk: bool| {
            let (mut mem, mut caches) = machine();
            let buf = mem.alloc_init("in", &data);
            if strike {
                {
                    let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
                    let mut warm = vec![0.0; data.len()];
                    ctx.load(buf, 0, &mut warm).unwrap();
                }
                let mut rng = SmallRng::seed_from_u64(9);
                caches.strike_l2(&mut rng, 1 << 62).expect("line resident");
                assert!(caches.has_pending_corruption());
            }
            let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
            let (stride, width, rows) = (12usize, 5usize, 7usize);
            let mut dst = vec![0.0; rows * width];
            if bulk {
                ctx.load_rows(buf, 2, stride, width, &mut dst).unwrap();
            } else {
                for (r, out) in dst.chunks_exact_mut(width).enumerate() {
                    ctx.load(buf, 2 + r * stride, out).unwrap();
                }
            }
            let loads = ctx.loads;
            let stats = caches.stats();
            let bits: Vec<u64> = dst.iter().map(|v| v.to_bits()).collect();
            (bits, loads, stats.l1_hits, stats.l1_misses, stats.l2_hits)
        };
        for strike in [false, true] {
            assert_eq!(
                run(strike, true),
                run(strike, false),
                "strike={strike}: bulk and per-row loads must agree"
            );
        }
    }

    /// `fma_block` equals the row-by-row reference loop bit for bit,
    /// counts one op per element update, and lands an armed logic
    /// fault on exactly the same op index as the reference.
    #[test]
    fn fma_block_matches_reference_loop() {
        const N: usize = 4;
        let mut a = [[0.0; N]; N];
        let mut b = [[0.0; N]; N];
        for r in 0..N {
            for c in 0..N {
                a[r][c] = (r * N + c) as f64 * 0.25 - 1.5;
                b[r][c] = 1.0 / ((r + c) as f64 + 1.0);
            }
        }
        let reference = |fault: TileFault| {
            let (mut mem, mut caches) = machine();
            let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
            let mut acc = [[0.5; N]; N];
            for r in 0..N {
                for k in 0..N {
                    for c in 0..N {
                        acc[r][c] = ctx.fma(a[r][k], b[k][c], acc[r][c]);
                    }
                }
            }
            (acc, ctx.ops)
        };
        let blocked = |fault: TileFault| {
            let (mut mem, mut caches) = machine();
            let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
            let mut acc = [[0.5; N]; N];
            ctx.fma_block(&a, &b, &mut acc);
            (acc, ctx.ops)
        };
        let faults = {
            let mut mid = TileFault::none();
            mid.logic_at = (N * N * N / 2) as u64;
            mid.logic_lanes = 3;
            mid.logic_mask = 1 << 63;
            [TileFault::none(), mid]
        };
        for fault in faults {
            let (ref_acc, ref_ops) = reference(fault);
            let (blk_acc, blk_ops) = blocked(fault);
            assert_eq!(blk_ops, ref_ops, "op count");
            for r in 0..N {
                for c in 0..N {
                    assert_eq!(
                        blk_acc[r][c].to_bits(),
                        ref_acc[r][c].to_bits(),
                        "acc[{r}][{c}] under fault at {}",
                        fault.logic_at
                    );
                }
            }
        }
    }

    /// A faulted tile takes the vector path for every block and row its
    /// fault cannot reach. Three `fma_block` calls, and 48 `fma_row`
    /// calls over the same 192 ops, must match the per-op reference loop
    /// in every bit and in `ops` with the logic window before, inside,
    /// straddling and after a call's op range, and with SFU- or
    /// store-only faults, which never change an arithmetic result.
    #[test]
    fn faulted_tiles_match_the_reference_loop_around_the_window() {
        const N: usize = 4;
        const BLOCKS: usize = 3;
        let block = (N * N * N) as u64;
        let mut a = [[0.0; N]; N];
        let mut b = [[0.0; N]; N];
        for r in 0..N {
            for c in 0..N {
                a[r][c] = (r * N + c) as f64 * 0.375 - 2.5;
                b[r][c] = 1.0 / ((r * c) as f64 + 1.5);
            }
        }
        let window = |at: u64, lanes: u64| {
            let mut f = TileFault::none();
            f.logic_at = at;
            f.logic_lanes = lanes;
            f.logic_mask = 1 << 62;
            f
        };
        let mut sfu_only = TileFault::none();
        sfu_only.sfu_at = 0;
        sfu_only.sfu_scale = 8.0;
        let mut store_only = TileFault::none();
        store_only.store_at = 0;
        store_only.store_len = 2;
        let faults = [
            window(0, 2),                      // inside the first call
            window(block - 1, 3),              // straddling calls 0 and 1
            window(block + 17, 1),             // after call 0, before call 2
            window(3 * block - 1, 1),          // the very last op
            window(BLOCKS as u64 * block, 64), // after every call
            sfu_only,
            store_only,
        ];
        let run = |fault: TileFault, how: usize| {
            let (mut mem, mut caches) = machine();
            let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
            let mut blocks = [[[0.5; N]; N]; BLOCKS];
            for acc in &mut blocks {
                match how {
                    0 => {
                        for r in 0..N {
                            for k in 0..N {
                                for c in 0..N {
                                    acc[r][c] = ctx.fma(a[r][k], b[k][c], acc[r][c]);
                                }
                            }
                        }
                    }
                    1 => ctx.fma_block(&a, &b, acc),
                    _ => {
                        for r in 0..N {
                            for k in 0..N {
                                ctx.fma_row(a[r][k], &b[k], &mut acc[r]);
                            }
                        }
                    }
                }
            }
            let bits: Vec<u64> = blocks
                .iter()
                .flatten()
                .flatten()
                .map(|v| v.to_bits())
                .collect();
            (bits, ctx.ops)
        };
        for fault in faults {
            let reference = run(fault, 0);
            assert_eq!(reference.1, BLOCKS as u64 * block);
            assert_eq!(run(fault, 1), reference, "fma_block, {fault:?}");
            assert_eq!(run(fault, 2), reference, "fma_row, {fault:?}");
        }
        let clean = run(TileFault::none(), 0);
        assert_ne!(run(window(block - 1, 3), 0), clean, "the window corrupts");
        assert_eq!(run(sfu_only, 0), clean, "an SFU fault changes no fma");
    }
}
