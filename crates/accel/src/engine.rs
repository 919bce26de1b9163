//! The tiled execution engine.
//!
//! Executes a [`TiledProgram`] tile by tile in dispatch order on a
//! simulated device, optionally delivering one [`StrikeSpec`] when
//! execution reaches the strike instant. Execution is deterministic for a
//! given program: a fault-free run reproduces the golden output exactly
//! (the paper computes golden outputs "on the very same device used for
//! experiments" for the same reason, §IV-D).
//!
//! An injection run resumed from a golden-prefix snapshot also ends
//! early: once no remaining tile can load anything the strike corrupted
//! (the *cone exit*), the rest of the run would only replay golden work,
//! so the engine stops and takes the remainder of the outcome from the
//! golden record. The outcome stays bit-identical to a full run.

use std::sync::Arc;
use std::time::Instant;

use rand::Rng;

use radcrit_core::DirtyRegion;
use radcrit_obs::profile::{phase_if, profiling_enabled, PhaseId};
use radcrit_obs::MetricsRegistry;

use crate::cache::{CacheHierarchy, FrozenCaches};
use crate::config::DeviceConfig;
use crate::error::AccelError;
use crate::memory::DeviceMemory;
use crate::profile::ExecutionProfile;
use crate::program::{
    apply_writebacks, BufferSet, MachineCounters, StoreLog, TileCtx, TileFault, TileId,
    TiledProgram,
};
use crate::scheduler::DispatchPlan;
use crate::snapshot::{EngineSnapshot, GoldenTable, GoldenTile, SnapshotPolicy, SnapshotSet};
use crate::strike::{SchedulerEffect, StrikeSpec, StrikeTarget};
use crate::trace::{ExecutionTrace, TileTrace};

/// The result of one engine run.
///
/// Crash/hang outcomes are classified by the fault layer *before*
/// execution (a crashed run has no output to analyze), so every run
/// yields an output. A run stops executing tiles once it proves that no
/// remaining tile can load what the strike corrupted. A resumed run then
/// completes its output, profile and trace from the golden record, so
/// they equal a full run's; a run whose strike died unobserved instead
/// stops as it stands (see [`RunOutcome::golden_equivalent`]).
/// `strike_delivered` reports whether the strike found live state to
/// corrupt — `false` means the strike was architecturally masked (empty
/// cache set, no pending victim).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The output buffer contents after the final cache flush (or, after
    /// a cone exit, with the golden output over the skipped tiles'
    /// stores).
    pub output: Vec<f64>,
    /// Dynamic profile of the run.
    pub profile: ExecutionProfile,
    /// Whether the strike corrupted any machine state.
    pub strike_delivered: bool,
    /// How each strike was resolved against live machine state, in
    /// delivery order (empty for golden runs).
    pub resolutions: Vec<StrikeResolution>,
    /// For differential (snapshot-resumed) runs: the output elements
    /// that could differ from the golden output — everything outside is
    /// bit-equal by the resume invariant. `None` for full runs.
    pub dirty: Option<DirtyRegion>,
    /// The engine proved mid-run that every strike died without touching
    /// any observable state (no pending flips, no observed corrupted
    /// load, no write-back, no tile run with a fault armed) and stopped
    /// executing early: by the resumability contract the finished run's
    /// output would be bit-equal to golden, so callers must skip the
    /// output compare — the returned buffer may hold stale bytes past
    /// the exit tile, and the profile counts only the tiles run. Full
    /// and resumed runs stop at the same tile. A resumed run whose strike
    /// did corrupt state but can reach no remaining tile also stops
    /// early, but completes its outcome from the golden record and
    /// leaves this `false`.
    pub golden_equivalent: bool,
}

/// Reusable per-worker state for repeated injections of one program on
/// one engine: the post-setup memory template (so `setup` runs once, not
/// per injection) and the previous run's memory image (so buffers are
/// restored in place instead of reallocated).
///
/// A scratch is only valid for the `(engine, program)` pair it was first
/// used with; use a fresh one per campaign worker.
#[derive(Debug, Default)]
pub struct RunScratch {
    template: Option<DeviceMemory>,
    spare: Option<DeviceMemory>,
    spare_caches: Option<CacheHierarchy>,
}

impl RunScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        RunScratch::default()
    }

    /// Runs `program.setup` once to populate the template (and the
    /// program's buffer ids).
    fn ensure_template<P: TiledProgram + ?Sized>(
        &mut self,
        program: &mut P,
    ) -> Result<(), AccelError> {
        if self.template.is_none() {
            let mut m = DeviceMemory::new();
            program.setup(&mut m)?;
            self.template = Some(m);
        }
        Ok(())
    }

    /// An owned memory image equal to the template, reusing the spare
    /// allocation from the previous run when available.
    fn image_of_template(&mut self) -> DeviceMemory {
        let t = self.template.as_ref().expect("ensure_template ran");
        match self.spare.take() {
            Some(mut m) => {
                m.restore_from(t);
                m
            }
            None => t.clone(),
        }
    }

    /// A cache hierarchy for a cache-blind run to carry but never touch:
    /// the previous run's spare as it is, or a fresh one.
    fn idle_caches(&mut self, cfg: &DeviceConfig) -> CacheHierarchy {
        self.spare_caches
            .take()
            .unwrap_or_else(|| CacheHierarchy::new(cfg))
    }

    /// An owned cache hierarchy thawed from `frozen`, reusing the
    /// previous run's allocations (set vectors, flip tables) when
    /// available.
    fn caches_of(&mut self, cfg: &DeviceConfig, frozen: &FrozenCaches) -> CacheHierarchy {
        let mut c = self.idle_caches(cfg);
        c.thaw_from(frozen);
        c
    }
}

/// How one strike was resolved against live machine state — the piece of
/// fault provenance only the engine knows, because victim selection
/// consumes the injection's RNG stream at delivery time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrikeResolution {
    /// The dispatch position at which the strike landed.
    pub at_tile: usize,
    /// The struck structure's site name (see
    /// [`StrikeTarget::site_name`]).
    pub site: &'static str,
    /// Whether the strike found live state to corrupt.
    pub delivered: bool,
    /// The dispatch position whose state was corrupted, when the target
    /// resolves to a specific tile (register-file strikes pick a pending
    /// victim in the wave; pipeline strikes hit the executing tile).
    pub victim_tile: Option<usize>,
    /// The execution unit involved, for unit-scoped targets.
    pub unit: Option<usize>,
    /// The destination a scheduler redirect re-dispatched the victim to.
    pub redirect_dest: Option<usize>,
}

/// The simulation engine for one device configuration.
///
/// # Examples
///
/// ```
/// use radcrit_accel::{config::DeviceConfig, engine::Engine};
///
/// let engine = Engine::new(DeviceConfig::kepler_k40());
/// assert_eq!(engine.config().units(), 15);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: DeviceConfig,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Engine {
    /// Creates an engine for `cfg`.
    pub fn new(cfg: DeviceConfig) -> Self {
        Engine { cfg, metrics: None }
    }

    /// Attaches a metrics registry: subsequent runs record per-phase
    /// wall-time histograms (`radcrit_engine_phase_us{phase=…}`), run
    /// counts and dispatch-plan geometry. Without a registry the timing
    /// instrumentation is skipped entirely.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The device configuration this engine simulates.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Runs `program` without faults and returns its golden output and
    /// execution profile.
    ///
    /// # Errors
    ///
    /// Propagates program setup/execution errors.
    pub fn golden<P: TiledProgram + ?Sized>(
        &self,
        program: &mut P,
    ) -> Result<RunOutcome, AccelError> {
        // The RNG is never consulted without a strike.
        let mut rng = NoRng;
        Ok(self
            .run_internal(program, RunRequest::plain(&[]), &mut rng, None)?
            .0)
    }

    /// Like [`Engine::golden`], but additionally captures golden-prefix
    /// machine snapshots per `policy` for later differential injection
    /// runs (see [`Engine::run_injection`]). The returned outcome is
    /// bit-identical to a plain golden run; the [`SnapshotSet`] is empty
    /// when the program is not [`TiledProgram::resumable`] or the byte
    /// budget admits no snapshot.
    ///
    /// # Errors
    ///
    /// Propagates program setup/execution errors.
    pub fn golden_snapshotted<P: TiledProgram + ?Sized>(
        &self,
        program: &mut P,
        policy: &SnapshotPolicy,
    ) -> Result<(RunOutcome, SnapshotSet), AccelError> {
        let mut rng = NoRng;
        let req = RunRequest {
            capture: Some(*policy),
            ..RunRequest::plain(&[])
        };
        self.run_internal(program, req, &mut rng, None)
    }

    /// Like [`Engine::golden`], but also collects a per-tile
    /// [`ExecutionTrace`] for workload analysis (operational intensity,
    /// load balance).
    ///
    /// # Errors
    ///
    /// Propagates program setup/execution errors.
    pub fn golden_traced<P: TiledProgram + ?Sized>(
        &self,
        program: &mut P,
    ) -> Result<(RunOutcome, ExecutionTrace), AccelError> {
        let mut rng = NoRng;
        let mut trace = ExecutionTrace::new();
        let (outcome, _) =
            self.run_internal(program, RunRequest::plain(&[]), &mut rng, Some(&mut trace))?;
        Ok((outcome, trace))
    }

    /// Runs `program`, delivering `strike` when dispatch reaches its
    /// instant. `rng` resolves strike targets against live machine state
    /// (choice of resident line, victim tile, redirect destination).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::StrikeOutOfRange`] if the strike instant is
    /// past the last tile, and propagates program errors.
    pub fn run<P, R>(
        &self,
        program: &mut P,
        strike: &StrikeSpec,
        rng: &mut R,
    ) -> Result<RunOutcome, AccelError>
    where
        P: TiledProgram + ?Sized,
        R: Rng + ?Sized,
    {
        Ok(self
            .run_internal(
                program,
                RunRequest::plain(std::slice::from_ref(strike)),
                rng,
                None,
            )?
            .0)
    }

    /// The campaign-facing injection entry point: differential when
    /// `snapshots` provides a usable resume point, full otherwise, with
    /// `scratch` amortizing setup and memory allocation across repeated
    /// calls for the same program.
    ///
    /// A differential run resumes from the nearest snapshot at or before
    /// `strike.at_tile` instead of tile 0. Output, `resolutions` and
    /// profile are bit-identical to [`Engine::run`] (the strike consumes
    /// the RNG identically), and the outcome carries the dirty output
    /// region for sparse comparison. Programs that are not resumable, or
    /// strikes before the first snapshot, run in full.
    ///
    /// A resumed run whose strike cannot perturb the cache hierarchy
    /// ([`StrikeTarget::perturbs_cache`] is `false`) is *cache-blind*:
    /// it neither restores, touches nor flushes the hierarchy, and
    /// reports the golden run's cache counters, which its own hierarchy
    /// would have reproduced exactly.
    ///
    /// A resumed run stops after the first tile past which no remaining
    /// tile loads a buffer the corrupted part of the run stored to, and
    /// fills in the rest from the golden record: the suffix's counters,
    /// the end-of-run cache statistics, and the golden output over the
    /// suffix's output stores. Its dirty region is then only what it
    /// stored itself.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::run`].
    pub fn run_injection<P, R>(
        &self,
        program: &mut P,
        strike: &StrikeSpec,
        rng: &mut R,
        snapshots: Option<&SnapshotSet>,
        scratch: &mut RunScratch,
    ) -> Result<RunOutcome, AccelError>
    where
        P: TiledProgram + ?Sized,
        R: Rng + ?Sized,
    {
        let req = RunRequest {
            snapshots,
            scratch: Some(scratch),
            ..RunRequest::plain(std::slice::from_ref(strike))
        };
        Ok(self.run_internal(program, req, rng, None)?.0)
    }

    /// [`Engine::run_injection`] with a per-tile [`ExecutionTrace`]. The
    /// trace is what joins a strike to the tiles that touched struck
    /// state afterwards (fault provenance). Tracing never consults the
    /// RNG, so the strike resolves, and the output comes out, exactly as
    /// untraced. A resumed trace covers only the tiles from the resume
    /// point on: exactly the tiles a strike at or after it can touch.
    /// Rows past a cone exit come from the golden table, equal to the
    /// rows the skipped tiles would have produced.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::run`].
    pub fn run_injection_traced<P, R>(
        &self,
        program: &mut P,
        strike: &StrikeSpec,
        rng: &mut R,
        snapshots: Option<&SnapshotSet>,
        scratch: &mut RunScratch,
    ) -> Result<(RunOutcome, ExecutionTrace), AccelError>
    where
        P: TiledProgram + ?Sized,
        R: Rng + ?Sized,
    {
        let mut trace = ExecutionTrace::new();
        let req = RunRequest {
            snapshots,
            scratch: Some(scratch),
            ..RunRequest::plain(std::slice::from_ref(strike))
        };
        let (outcome, _) = self.run_internal(program, req, rng, Some(&mut trace))?;
        Ok((outcome, trace))
    }

    /// Runs `program` under *several* strikes in one execution — the
    /// regime the paper's experimental design explicitly avoids (§IV-D
    /// keeps observed error rates below 10⁻³/execution so at most one
    /// neutron corrupts a run). Exposed so that the single-strike design
    /// rule itself can be studied: at high flux, per-strike statistics
    /// become biased because strikes overlap.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::StrikeOutOfRange`] if any strike instant is
    /// past the last tile, and propagates program errors.
    pub fn run_multi<P, R>(
        &self,
        program: &mut P,
        strikes: &[StrikeSpec],
        rng: &mut R,
    ) -> Result<RunOutcome, AccelError>
    where
        P: TiledProgram + ?Sized,
        R: Rng + ?Sized,
    {
        Ok(self
            .run_internal(program, RunRequest::plain(strikes), rng, None)?
            .0)
    }

    fn run_internal<P, R>(
        &self,
        program: &mut P,
        req: RunRequest<'_>,
        rng: &mut R,
        mut trace: Option<&mut ExecutionTrace>,
    ) -> Result<(RunOutcome, SnapshotSet), AccelError>
    where
        P: TiledProgram + ?Sized,
        R: Rng + ?Sized,
    {
        let tiles = program.tile_count();
        let launch_tiles = program.tiles_per_launch().min(tiles).max(1);
        let threads_per_tile = program.threads_per_tile();
        let local_mem = program.local_mem_per_tile();
        for s in req.strikes {
            if s.at_tile >= tiles {
                return Err(AccelError::StrikeOutOfRange {
                    tile: s.at_tile,
                    tiles,
                });
            }
        }

        let mut phase_start = self.metrics.as_ref().map(|_| Instant::now());
        let resumable = program.resumable();
        let mut scratch = req.scratch;

        // Differential resume: the latest snapshot at or before the first
        // strike tile. Only resumable programs qualify; capture runs are
        // full golden runs by construction. Resuming is sound because the
        // engine's only cross-tile state is (mem, caches, counters), all
        // restored below, and no strike perturbs anything before its
        // tile — so golden state at tile r equals *any* run's state at r
        // for r ≤ the first strike tile.
        let resume: Option<&EngineSnapshot> = if resumable && req.capture.is_none() {
            req.snapshots.and_then(|set| {
                let first = req.strikes.iter().map(|s| s.at_tile).min()?;
                set.resume_point(first)
            })
        } else {
            None
        };
        let resumed = resume.is_some();

        // The golden record a resumed run may finish from (see the cone
        // exit below).
        let table: Option<&GoldenTable> = resume
            .and(req.snapshots)
            .and_then(|set| set.golden_table(tiles));
        // Cache-blind resume: with no strike able to perturb the
        // hierarchy, the run executes the golden tile sequence and never
        // holds a pending flip. By the resumability contract it touches
        // exactly the golden addresses, so its hierarchy can change no
        // loaded value, cause no write-back and never decide the exit:
        // it could only recount the golden run's hits, misses and
        // residency, which the golden table already holds.
        let blind: Option<&GoldenTable> =
            table.filter(|_| !req.strikes.iter().any(|s| s.target.perturbs_cache()));

        let (mut mem, mut caches, mut totals, mut l2_resident_samples, start_tile) = match resume {
            Some(snap) => {
                // Snapshots hold memory as a delta against the post-setup
                // image, so resume starts from that image — the scratch
                // template when available, else a fresh setup — and
                // overlays the buffers the golden prefix wrote.
                let (mut mem, caches) = match scratch.as_deref_mut() {
                    Some(sc) => {
                        sc.ensure_template(program)?;
                        let caches = match blind {
                            Some(_) => sc.idle_caches(&self.cfg),
                            None => sc.caches_of(&self.cfg, &snap.caches),
                        };
                        (sc.image_of_template(), caches)
                    }
                    None => {
                        let mut m = DeviceMemory::new();
                        program.setup(&mut m)?;
                        let mut caches = CacheHierarchy::new(&self.cfg);
                        caches.thaw_from(&snap.caches);
                        (m, caches)
                    }
                };
                mem.apply_delta(&snap.mem_delta)?;
                (
                    mem,
                    caches,
                    snap.counters,
                    snap.l2_resident_samples,
                    snap.at_tile,
                )
            }
            None => {
                let mem = match scratch.as_deref_mut().filter(|_| resumable) {
                    Some(sc) => {
                        sc.ensure_template(program)?;
                        sc.image_of_template()
                    }
                    None => {
                        let mut m = DeviceMemory::new();
                        program.setup(&mut m)?;
                        m
                    }
                };
                (
                    mem,
                    CacheHierarchy::new(&self.cfg),
                    MachineCounters::default(),
                    0.0,
                    0,
                )
            }
        };
        let plan = DispatchPlan::new(&self.cfg, tiles, launch_tiles, threads_per_tile, local_mem);

        if let Some(m) = self.metrics.as_deref() {
            m.counter_add("radcrit_engine_runs_total", &[], 1);
            if resumed {
                m.counter_add("radcrit_engine_resumed_runs_total", &[], 1);
            }
            if blind.is_some() {
                m.counter_add("radcrit_engine_cache_blind_runs_total", &[], 1);
            }
            plan.observe(m);
        }
        self.phase_done("setup", &mut phase_start);

        // Snapshot capture plan: explicit stride, or as many evenly
        // spaced snapshots as the byte budget admits (estimated from the
        // memory image plus a bound on cache metadata — the hierarchy
        // cannot hold more distinct lines than the memory footprint).
        let mut set = SnapshotSet::default();
        let capture_plan = req
            .capture
            .filter(|_| resumable && tiles > 0)
            .map(|policy| {
                let budget = policy.budget();
                let stride = if policy.stride > 0 {
                    policy.stride
                } else {
                    // Snapshots store only written buffers (≈ the output) plus
                    // cache metadata bounded by what can be resident at once.
                    let line = caches.line_bytes().max(1);
                    let out_bytes = mem.len_of(program.output()).unwrap_or(0) * 8;
                    let capacity =
                        self.cfg.l2().size_bytes + self.cfg.units() * self.cfg.l1().size_bytes;
                    let resident = mem.total_bytes().min(capacity);
                    let est = out_bytes + caches.approx_heap_bytes() + resident / line * 48;
                    let max_snaps = (budget / est.max(1)).max(1);
                    tiles.div_ceil(max_snaps).max(1)
                };
                (stride, budget)
            });
        if capture_plan.is_some() {
            // Delta tracking baseline: the post-setup image.
            mem.reset_write_tracking();
        }

        // Record output-buffer stores when capturing (to know the golden
        // suffix spans) and when resumed (to know the faulty run's own
        // dirty spans, including redirects landing before the resume
        // point).
        let mut store_log = if capture_plan.is_some() || resumed {
            Some(StoreLog::new(program.output()))
        } else {
            None
        };

        let mut strike_delivered = false;
        let mut resolutions: Vec<StrikeResolution> = Vec::new();

        // Pending per-position effects resolved from the strikes. A
        // single-strike run (the normal case) keeps these collections at
        // most one element long.
        let mut armed_faults: Vec<(usize, TileFault)> = Vec::new();
        let mut skip_positions: Vec<usize> = Vec::new();
        let mut redirects: Vec<(usize, usize)> = Vec::new();
        let mut unit_garbles: Vec<usize> = Vec::new();

        // Cone exit. The run can differ from golden only through the
        // buffers stored (or flipped by a corrupted write-back) by tiles
        // from the first one that ran with a fault armed, or during which
        // the hierarchy handed a corrupted value on: the *cone*. After
        // tile `pos` the run stops once
        //   - every strike tile has passed (`pos >= last_strike_tile`),
        //   - no armed fault or unit garble can fire after `pos`
        //     (`fire_horizon <= pos`),
        //   - no scheduler skip or redirect was delivered (both change
        //     which addresses run, so golden counters stop applying),
        //   - a simulated hierarchy holds no pending corruption, and
        //   - no tile after `pos` loads from a cone buffer (the golden
        //     run's `last_load`).
        // Each remaining tile then reads only golden values, so it
        // computes exactly what the golden run did. An empty cone (the
        // strike died unobserved) needs nothing more: the run is
        // golden-equivalent and the caller skips the compare; full runs
        // have no golden record and take only this case. Otherwise the
        // run finishes from the golden table: suffix counters and trace
        // rows, end-of-run cache statistics, and the golden output over
        // the suffix's store spans (at the last tile there is no suffix,
        // so that is no exit). Gated on resumable programs only
        // (pathological kernels fail via cross-tile engine state this
        // proof ignores).
        let last_strike_tile = req.strikes.iter().map(|s| s.at_tile).max();
        let mut fire_horizon = 0;
        let mut cone_open = false;
        let mut cone = BufferSet::default();
        let mut cone_last_load: Option<usize> = None;
        let mut golden_equivalent = false;
        // Where a cone exit stopped, and the record it finishes from.
        let mut finish: Option<(usize, &GoldenTable)> = None;
        let prof = profiling_enabled();
        // The cumulative L2 (hits, misses) before dispatch position
        // `next`, read before and after each traced tile.
        let l2_counts = |caches: &CacheHierarchy, next: usize| match blind {
            Some(g) => g.l2_before(next),
            None => {
                let s = caches.stats();
                (s.l2_hits, s.l2_misses)
            }
        };

        for pos in start_tile..tiles {
            if let Some((stride, budget)) = capture_plan {
                if pos % stride == 0 {
                    let _scope = phase_if(prof, PhaseId::SnapshotCapture);
                    let frozen = caches.freeze(set.snaps.last().map(|s| &s.caches));
                    let captured = set.push(
                        EngineSnapshot {
                            at_tile: pos,
                            mem_delta: mem.written_delta(),
                            caches: frozen,
                            counters: totals,
                            l2_resident_samples,
                        },
                        budget,
                    );
                    if !captured {
                        if let Some(m) = self.metrics.as_deref() {
                            m.counter_add("radcrit_snapshot_skipped_tiles_total", &[], 1);
                        }
                    }
                }
            }

            let mut struck = false;
            for s in req.strikes {
                if s.at_tile == pos {
                    struck = true;
                    let resolution = self.deliver_strike(
                        s,
                        pos,
                        &plan,
                        &mut caches,
                        &mut armed_faults,
                        &mut skip_positions,
                        &mut redirects,
                        &mut unit_garbles,
                        rng,
                    );
                    strike_delivered |= resolution.delivered;
                    resolutions.push(resolution);
                }
            }
            if struck {
                fire_horizon = armed_faults
                    .iter()
                    .map(|&(victim, _)| victim)
                    .chain(unit_garbles.iter().map(|&from| plan.unit_garble_last(from)))
                    .max()
                    .unwrap_or(0);
            }

            if skip_positions.contains(&pos) {
                continue;
            }

            let effective_tile = redirects
                .iter()
                .find(|(victim, _)| *victim == pos)
                .map_or(pos, |&(_, dest)| dest);

            let mut fault = armed_faults
                .iter()
                .find(|(victim, _)| *victim == pos)
                .map_or_else(TileFault::none, |&(_, f)| f);
            if unit_garbles
                .iter()
                .any(|&from| plan.unit_garble_applies(from, pos))
            {
                fault.garble = true;
            }

            let unit = plan.unit_of(pos);
            let l2_before = trace.is_some().then(|| l2_counts(&caches, pos));
            let mut ctx = TileCtx::new(&mut mem, &mut caches, unit, fault);
            if let Some(log) = store_log.as_mut() {
                ctx = ctx.with_store_log(log);
            }
            if blind.is_some() {
                ctx = ctx.cache_blind();
            }
            {
                let _scope = phase_if(prof, PhaseId::TileExecute);
                program.execute_tile(TileId(effective_tile), &mut ctx)?;
            }
            let c = ctx.drain_counters();
            let (loaded, stored) = (ctx.loaded, ctx.stored);
            totals.ops += c.ops;
            totals.trans_ops += c.trans_ops;
            totals.loads += c.loads;
            totals.stores += c.stores;
            if let (Some(tr), Some((hits_before, misses_before))) =
                (trace.as_deref_mut(), l2_before)
            {
                let (hits, misses) = l2_counts(&caches, pos + 1);
                tr.push(TileTrace {
                    pos,
                    unit,
                    ops: c.ops,
                    trans_ops: c.trans_ops,
                    loads: c.loads,
                    stores: c.stores,
                    l2_hits: hits - hits_before,
                    l2_misses: misses - misses_before,
                });
            }

            // Attribute this tile's output stores for the golden suffix
            // span index.
            if capture_plan.is_some() {
                if let Some(log) = store_log.as_mut() {
                    for &(s, l) in &log.spans {
                        set.output_spans.push((pos as u32, s as u32, l as u32));
                    }
                    log.spans.clear();
                }
            }

            match blind {
                Some(g) => {
                    let golden = &g.tiles[pos];
                    debug_assert_eq!(
                        (totals.loads, totals.stores),
                        (golden.loads, golden.stores),
                        "{} at tile {pos}: cumulative loads/stores differ from golden, so its \
                         accesses depend on data and it must not be resumable",
                        program.name()
                    );
                    l2_resident_samples = golden.l2_resident_samples;
                }
                None => l2_resident_samples += caches.l2_resident_lines() as f64,
            }
            if capture_plan.is_some() {
                let stats = caches.stats();
                set.golden.tiles.push(GoldenTile {
                    l2_hits: stats.l2_hits,
                    l2_misses: stats.l2_misses,
                    l2_resident_samples,
                    ops: totals.ops,
                    trans_ops: totals.trans_ops,
                    loads: totals.loads,
                    stores: totals.stores,
                });
                set.golden.note_loads(pos, loaded);
            }

            // A blind run's idle hierarchy holds nothing of this run.
            let simulated = blind.is_none();
            cone_open |= fault != TileFault::none() || (simulated && caches.corruption_touched());
            if cone_open && cone.extend(stored) {
                cone_last_load = table.and_then(|g| g.last_load_of(cone));
            }
            if let Some(last) = last_strike_tile {
                if resumable
                    && capture_plan.is_none()
                    && pos >= last
                    && fire_horizon <= pos
                    && skip_positions.is_empty()
                    && redirects.is_empty()
                    && !(simulated && caches.has_pending_corruption())
                    && cone_last_load.is_none_or(|p| p <= pos)
                    && (!cone_open || (table.is_some() && pos + 1 < tiles))
                {
                    golden_equivalent = !cone_open;
                    finish = table.filter(|_| cone_open).map(|g| (pos, g));
                    if let Some(m) = self.metrics.as_deref() {
                        m.counter_add("radcrit_run_dead_strike_exits_total", &[], 1);
                    }
                    break;
                }
            }
        }

        self.phase_done("tiles", &mut phase_start);

        // A run that took the cone exit finishes from the golden record:
        // the counters and trace rows of the positions it did not run,
        // and the golden end-of-run cache state (its own hierarchy holds
        // no pending corruption and matches golden, so flushing it would
        // write nothing back).
        if let Some((pos, g)) = finish {
            let rest = g.counters_after(pos);
            totals.ops += rest.ops;
            totals.trans_ops += rest.trans_ops;
            totals.loads += rest.loads;
            totals.stores += rest.stores;
            l2_resident_samples = g.tiles[tiles - 1].l2_resident_samples;
            if let Some(tr) = trace {
                for p in pos + 1..tiles {
                    let (now, before) = (&g.tiles[p], &g.tiles[p - 1]);
                    tr.push(TileTrace {
                        pos: p,
                        unit: plan.unit_of(p),
                        ops: now.ops - before.ops,
                        trans_ops: now.trans_ops - before.trans_ops,
                        loads: now.loads - before.loads,
                        stores: now.stores - before.stores,
                        l2_hits: now.l2_hits - before.l2_hits,
                        l2_misses: now.l2_misses - before.l2_misses,
                    });
                }
            }
        }

        // End of kernel: flush the hierarchy; dirty corrupted lines write
        // their corruption back to DRAM where the host reads the output.
        // A cache-blind run's hierarchy holds nothing of this run.
        if blind.is_none() && finish.is_none() {
            let wbs = caches.flush();
            apply_writebacks(&mut mem, &wbs, store_log.as_mut());
        }

        let mut output = mem.take_vec(program.output())?;
        program
            .output_shape()
            .check_len(output.len())
            .map_err(|_| {
                AccelError::InvalidConfig(format!(
                    "program {} declares an output shape not matching its buffer",
                    program.name()
                ))
            })?;

        // Hand the memory image and cache hierarchy back for the next
        // run to restore in place (the taken output buffer is the only
        // reallocation).
        if let Some(sc) = scratch.as_deref_mut() {
            if resumable {
                sc.spare = Some(mem);
            }
        }

        // The dirty output region of a resumed run: elements this run
        // actually stored (plus corrupted write-backs) union the golden
        // suffix spans — a tile the fault skipped keeps golden-at-resume
        // bytes that the golden suffix would have overwritten, so both
        // sides are needed. A cone exit fills the suffix spans with the
        // golden output instead, leaving only its own stores to compare.
        let dirty = match (resumed, req.snapshots) {
            (true, Some(snaps)) => {
                let mut spans = store_log.map(|l| l.spans).unwrap_or_default();
                match finish {
                    Some((pos, _)) => snaps.fill_golden_suffix(&mut output, pos + 1),
                    None => spans.extend(snaps.golden_spans_from(start_tile)),
                }
                Some(DirtyRegion::from_spans(spans, output.len()))
            }
            _ => None,
        };

        let stats = match blind.or(finish.map(|(_, g)| g)) {
            Some(g) => g.end,
            None => caches.stats(),
        };
        if capture_plan.is_some() {
            set.golden.end = stats;
            if set.is_empty() {
                // No snapshot, no resume: the table would never be read.
                set.golden = GoldenTable::default();
            } else {
                set.golden_output.clone_from(&output);
            }
        }
        let line_bytes = caches.line_bytes() as f64;
        let profile = ExecutionProfile {
            tiles,
            threads_per_tile,
            // Per *launch* (one step of an iterative kernel): what the
            // scheduler and register file see at once (Table II).
            instantiated_threads: launch_tiles.saturating_mul(threads_per_tile),
            resident_threads: self
                .cfg
                .resident_threads(launch_tiles, threads_per_tile, local_mem),
            wave_size: plan.wave_size(),
            total_ops: totals.ops,
            transcendental_ops: totals.trans_ops,
            loads: totals.loads,
            stores: totals.stores,
            cache: stats,
            l2_avg_resident_bytes: if tiles > 0 {
                l2_resident_samples / tiles as f64 * line_bytes
            } else {
                0.0
            },
            // L1s refill constantly; approximate average occupancy as the
            // lesser of per-unit capacity and the L2 share per unit.
            l1_avg_resident_bytes: (self.cfg.l1().size_bytes as f64).min(
                l2_resident_samples / tiles.max(1) as f64 * line_bytes / self.cfg.units() as f64,
            ) * self.cfg.units() as f64,
        };

        if let Some(sc) = scratch {
            if resumable {
                sc.spare_caches = Some(caches);
            }
        }

        self.phase_done("flush", &mut phase_start);

        if capture_plan.is_some() {
            if let Some(m) = self.metrics.as_deref() {
                m.gauge_set("radcrit_snapshot_bytes", &[], set.cost_bytes() as f64);
            }
        }

        Ok((
            RunOutcome {
                output,
                profile,
                strike_delivered,
                resolutions,
                dirty,
                golden_equivalent,
            },
            set,
        ))
    }

    /// Records the elapsed phase time and restarts the clock; a no-op
    /// without an attached metrics registry.
    fn phase_done(&self, phase: &str, start: &mut Option<Instant>) {
        if let (Some(m), Some(s)) = (self.metrics.as_deref(), start.as_mut()) {
            m.observe_duration("radcrit_engine_phase_us", &[("phase", phase)], s.elapsed());
            *s = Instant::now();
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn deliver_strike<R: Rng + ?Sized>(
        &self,
        strike: &StrikeSpec,
        pos: usize,
        plan: &DispatchPlan,
        caches: &mut CacheHierarchy,
        armed_faults: &mut Vec<(usize, TileFault)>,
        skip_positions: &mut Vec<usize>,
        redirects: &mut Vec<(usize, usize)>,
        unit_garbles: &mut Vec<usize>,
        rng: &mut R,
    ) -> StrikeResolution {
        let mut victim_tile = None;
        let mut unit = None;
        let mut redirect_dest = None;
        let delivered = match strike.target {
            StrikeTarget::L2 { mask } => caches.strike_l2(rng, mask).is_some(),
            StrikeTarget::L1 { mask } => {
                let u = plan.unit_of(pos);
                unit = Some(u);
                caches.strike_l1(u, rng, mask).is_some()
            }
            StrikeTarget::RegisterFile { mask, op_index } => {
                let victims = plan.pending_in_wave(pos);
                let victim = rng.gen_range(victims.start..victims.end);
                let mut f = TileFault::none();
                f.logic_at = op_index;
                f.logic_lanes = 1;
                f.logic_mask = mask;
                armed_faults.push((victim, f));
                victim_tile = Some(victim);
                true
            }
            StrikeTarget::VectorRegister {
                mask,
                lanes,
                op_index,
            } => {
                let victims = plan.pending_in_wave(pos);
                let victim = rng.gen_range(victims.start..victims.end);
                let mut f = TileFault::none();
                f.logic_at = op_index;
                f.logic_lanes = u64::from(lanes.max(1));
                f.logic_mask = mask;
                armed_faults.push((victim, f));
                victim_tile = Some(victim);
                true
            }
            StrikeTarget::Fpu { mask, op_index } => {
                let mut f = TileFault::none();
                f.logic_at = op_index;
                f.logic_lanes = 1;
                f.logic_mask = mask;
                armed_faults.push((pos, f));
                victim_tile = Some(pos);
                unit = Some(plan.unit_of(pos));
                true
            }
            StrikeTarget::Sfu { scale, op_index } => {
                let mut f = TileFault::none();
                f.sfu_at = op_index;
                f.sfu_scale = scale;
                armed_faults.push((pos, f));
                victim_tile = Some(pos);
                unit = Some(plan.unit_of(pos));
                true
            }
            StrikeTarget::CoreControl { elems, store_index } => {
                let mut f = TileFault::none();
                f.store_at = store_index;
                f.store_len = u64::from(elems.max(1));
                armed_faults.push((pos, f));
                victim_tile = Some(pos);
                unit = Some(plan.unit_of(pos));
                true
            }
            StrikeTarget::UnitGarble => {
                unit_garbles.push(pos);
                unit = Some(plan.unit_of(pos));
                true
            }
            StrikeTarget::Scheduler(effect) => {
                match effect {
                    SchedulerEffect::SkipTile => skip_positions.push(pos),
                    SchedulerEffect::RedirectTile => {
                        let dest = rng.gen_range(0..plan.tiles());
                        redirects.push((pos, dest));
                        redirect_dest = Some(dest);
                    }
                    SchedulerEffect::GarbleTile => {
                        let mut f = TileFault::none();
                        f.garble = true;
                        armed_faults.push((pos, f));
                    }
                }
                victim_tile = Some(pos);
                true
            }
        };
        StrikeResolution {
            at_tile: pos,
            site: strike.target.site_name(),
            delivered,
            victim_tile,
            unit,
            redirect_dest,
        }
    }
}

/// Parameters of one engine execution beyond the program itself.
struct RunRequest<'a> {
    strikes: &'a [StrikeSpec],
    /// Golden-prefix snapshots enabling differential resume.
    snapshots: Option<&'a SnapshotSet>,
    /// Capture snapshots during this (golden) run.
    capture: Option<SnapshotPolicy>,
    /// Per-worker reusable setup/memory state.
    scratch: Option<&'a mut RunScratch>,
}

impl<'a> RunRequest<'a> {
    fn plain(strikes: &'a [StrikeSpec]) -> Self {
        RunRequest {
            strikes,
            snapshots: None,
            capture: None,
            scratch: None,
        }
    }
}

/// An RNG that panics if consulted — used for golden runs, which must be
/// deterministic and never sample anything.
#[derive(Debug)]
struct NoRng;

impl rand::RngCore for NoRng {
    fn next_u32(&mut self) -> u32 {
        unreachable!("golden runs must not consume randomness")
    }

    fn next_u64(&mut self) -> u64 {
        unreachable!("golden runs must not consume randomness")
    }

    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        unreachable!("golden runs must not consume randomness")
    }

    fn try_fill_bytes(&mut self, _dest: &mut [u8]) -> Result<(), rand::Error> {
        unreachable!("golden runs must not consume randomness")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radcrit_core::shape::OutputShape;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng as SmallRng;

    use crate::memory::BufferId;

    /// A minimal test program: out[i] = 2 * in[i] + 1, one tile per 8
    /// elements.
    #[derive(Debug)]
    struct Affine {
        n: usize,
        input: Vec<f64>,
        in_buf: Option<BufferId>,
        out_buf: Option<BufferId>,
    }

    impl Affine {
        fn new(n: usize) -> Self {
            Affine {
                n,
                input: (0..n).map(|i| (i + 1) as f64).collect(),
                in_buf: None,
                out_buf: None,
            }
        }
    }

    impl TiledProgram for Affine {
        fn name(&self) -> &str {
            "affine"
        }

        fn tile_count(&self) -> usize {
            self.n / 8
        }

        fn threads_per_tile(&self) -> usize {
            8
        }

        fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError> {
            self.in_buf = Some(mem.alloc_init("in", &self.input));
            self.out_buf = Some(mem.alloc("out", self.n));
            Ok(())
        }

        fn execute_tile(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
            let start = tile.index() * 8;
            let mut x = [0.0; 8];
            ctx.load(self.in_buf.unwrap(), start, &mut x)?;
            let mut y = [0.0; 8];
            for i in 0..8 {
                y[i] = ctx.fma(2.0, x[i], 1.0);
            }
            ctx.store(self.out_buf.unwrap(), start, &y)
        }

        fn output(&self) -> BufferId {
            self.out_buf.unwrap()
        }

        fn output_shape(&self) -> OutputShape {
            OutputShape::d1(self.n)
        }
    }

    fn expected(n: usize) -> Vec<f64> {
        (0..n).map(|i| 2.0 * (i + 1) as f64 + 1.0).collect()
    }

    #[test]
    fn golden_run_is_correct_and_deterministic() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let a = engine.golden(&mut p).unwrap();
        let b = engine.golden(&mut p).unwrap();
        assert_eq!(a.output, expected(64));
        assert_eq!(a.output, b.output);
        assert!(!a.strike_delivered);
        assert_eq!(a.profile.tiles, 8);
        assert_eq!(a.profile.total_ops, 64);
        assert_eq!(a.profile.loads, 64);
        assert_eq!(a.profile.stores, 64);
    }

    #[test]
    fn strike_past_end_rejected() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(0);
        let s = StrikeSpec::new(
            100,
            StrikeTarget::Fpu {
                mask: 1,
                op_index: 0,
            },
        );
        assert!(matches!(
            engine.run(&mut p, &s, &mut rng),
            Err(AccelError::StrikeOutOfRange {
                tile: 100,
                tiles: 8
            })
        ));
    }

    #[test]
    fn fpu_strike_corrupts_one_element() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(1);
        let s = StrikeSpec::new(
            3,
            StrikeTarget::Fpu {
                mask: 1 << 63,
                op_index: 2,
            },
        );
        let out = engine.run(&mut p, &s, &mut rng).unwrap();
        assert!(out.strike_delivered);
        let exp = expected(64);
        let diffs: Vec<usize> = (0..64).filter(|&i| out.output[i] != exp[i]).collect();
        assert_eq!(diffs, vec![3 * 8 + 2], "exactly op 2 of tile 3 corrupted");
        assert_eq!(out.output[26], -exp[26], "sign flip of the result");
    }

    #[test]
    fn fpu_strike_past_tile_ops_is_silent() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(2);
        let s = StrikeSpec::new(
            0,
            StrikeTarget::Fpu {
                mask: 1 << 63,
                op_index: 1000,
            },
        );
        let out = engine.run(&mut p, &s, &mut rng).unwrap();
        assert_eq!(out.output, expected(64), "op index beyond work is masked");
    }

    #[test]
    fn vector_strike_corrupts_lane_burst() {
        let engine = Engine::new(DeviceConfig::xeon_phi_3120a());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(3);
        let s = StrikeSpec::new(
            7,
            StrikeTarget::VectorRegister {
                mask: 1 << 63,
                lanes: 4,
                op_index: 0,
            },
        );
        let out = engine.run(&mut p, &s, &mut rng).unwrap();
        let exp = expected(64);
        let diffs: Vec<usize> = (0..64).filter(|&i| out.output[i] != exp[i]).collect();
        assert_eq!(diffs.len(), 4, "four consecutive lanes corrupted");
        assert_eq!(diffs[3] - diffs[0], 3, "burst is consecutive");
        // With 8 tiles in one Phi wave, the victim pending at position 7
        // is tile 7 itself.
        assert_eq!(diffs[0], 7 * 8);
    }

    #[test]
    fn scheduler_skip_leaves_stale_region() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(4);
        let s = StrikeSpec::new(2, StrikeTarget::Scheduler(SchedulerEffect::SkipTile));
        let out = engine.run(&mut p, &s, &mut rng).unwrap();
        let exp = expected(64);
        for (i, (&got, &want)) in out.output.iter().zip(&exp).enumerate() {
            if (16..24).contains(&i) {
                assert_eq!(got, 0.0, "skipped tile keeps initial zeros");
            } else {
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn scheduler_garble_trashes_whole_tile() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(5);
        let s = StrikeSpec::new(5, StrikeTarget::Scheduler(SchedulerEffect::GarbleTile));
        let out = engine.run(&mut p, &s, &mut rng).unwrap();
        let exp = expected(64);
        let diffs = (40..48).filter(|&i| out.output[i] != exp[i]).count();
        // Stale-value garble lets the occasional op through correctly.
        assert!(diffs >= 6, "most elements of tile 5 corrupted, got {diffs}");
        let outside = (0..64)
            .filter(|&i| !(40..48).contains(&i) && out.output[i] != exp[i])
            .count();
        assert_eq!(outside, 0);
    }

    #[test]
    fn scheduler_redirect_overwrites_other_tile_region() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(6);
        let s = StrikeSpec::new(1, StrikeTarget::Scheduler(SchedulerEffect::RedirectTile));
        let out = engine.run(&mut p, &s, &mut rng).unwrap();
        let exp = expected(64);
        // Tile 1's own region was never written by tile 1: it is either
        // zero (stale) or correct (if the redirect destination was tile 1
        // itself or a later tile overwrote it).
        let region_ok_or_stale = (8..16).all(|i| out.output[i] == exp[i] || out.output[i] == 0.0);
        assert!(region_ok_or_stale);
    }

    #[test]
    fn l2_strike_on_input_corrupts_consumers_but_not_dram() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(7);
        // Strike early so later tiles read corrupted input.
        let s = StrikeSpec::new(1, StrikeTarget::L2 { mask: 1 << 62 });
        let out = engine.run(&mut p, &s, &mut rng).unwrap();
        assert!(out.strike_delivered);
        let exp = expected(64);
        let diffs = (0..64).filter(|&i| out.output[i] != exp[i]).count();
        // The strike lands on input or output data; input corruption
        // propagates to at most the elements reading the line after the
        // strike; output corruption persists via dirty write-back.
        assert!(
            diffs <= 16,
            "single line bounds the corruption, got {diffs}"
        );
    }

    #[test]
    fn multi_strike_accumulates_independent_corruptions() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(21);
        let strikes = vec![
            StrikeSpec::new(
                1,
                StrikeTarget::Fpu {
                    mask: 1 << 63,
                    op_index: 0,
                },
            ),
            StrikeSpec::new(
                4,
                StrikeTarget::Fpu {
                    mask: 1 << 63,
                    op_index: 3,
                },
            ),
            StrikeSpec::new(6, StrikeTarget::Scheduler(SchedulerEffect::SkipTile)),
        ];
        let out = engine.run_multi(&mut p, &strikes, &mut rng).unwrap();
        let exp = expected(64);
        let diffs: Vec<usize> = (0..64).filter(|&i| out.output[i] != exp[i]).collect();
        // Two single-op flips plus one skipped 8-element tile.
        assert_eq!(diffs.len(), 2 + 8, "diffs: {diffs:?}");
        assert!(diffs.contains(&8), "op 0 of tile 1");
        assert!(diffs.contains(&35), "op 3 of tile 4");
        assert!((48..56).all(|i| diffs.contains(&i)), "tile 6 skipped");
    }

    #[test]
    fn strike_at_last_tile_is_legal() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(23);
        let s = StrikeSpec::new(7, StrikeTarget::Scheduler(SchedulerEffect::SkipTile));
        let out = engine.run(&mut p, &s, &mut rng).unwrap();
        let exp = expected(64);
        assert!((56..64).all(|i| out.output[i] == 0.0));
        assert!((0..56).all(|i| out.output[i] == exp[i]));
    }

    #[test]
    fn faulty_run_profile_matches_golden_profile_shape() {
        // Skipping a tile reduces counted work; everything else in the
        // profile stays structurally identical.
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let golden = engine.golden(&mut p).unwrap();
        let mut rng = SmallRng::seed_from_u64(24);
        let s = StrikeSpec::new(0, StrikeTarget::Scheduler(SchedulerEffect::SkipTile));
        let faulty = engine.run(&mut p, &s, &mut rng).unwrap();
        assert_eq!(faulty.profile.tiles, golden.profile.tiles);
        assert_eq!(faulty.profile.wave_size, golden.profile.wave_size);
        assert_eq!(faulty.profile.total_ops, golden.profile.total_ops - 8);
    }

    #[test]
    fn empty_strike_list_equals_golden() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(22);
        let out = engine.run_multi(&mut p, &[], &mut rng).unwrap();
        assert_eq!(out.output, expected(64));
        assert!(!out.strike_delivered);
    }

    #[test]
    fn resolutions_report_strike_victims() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(1);
        let s = StrikeSpec::new(
            3,
            StrikeTarget::Fpu {
                mask: 1 << 63,
                op_index: 2,
            },
        );
        let out = engine.run(&mut p, &s, &mut rng).unwrap();
        assert_eq!(out.resolutions.len(), 1);
        let r = out.resolutions[0];
        assert_eq!(r.at_tile, 3);
        assert_eq!(r.site, "fpu");
        assert!(r.delivered);
        assert_eq!(r.victim_tile, Some(3));
        assert_eq!(r.redirect_dest, None);
        assert!(engine.golden(&mut p).unwrap().resolutions.is_empty());
    }

    #[test]
    fn redirect_resolution_names_the_destination() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(6);
        let s = StrikeSpec::new(1, StrikeTarget::Scheduler(SchedulerEffect::RedirectTile));
        let out = engine.run(&mut p, &s, &mut rng).unwrap();
        let r = out.resolutions[0];
        assert_eq!(r.site, "scheduler");
        let dest = r.redirect_dest.expect("redirect resolves a destination");
        assert!(dest < 8);
    }

    #[test]
    fn register_strike_resolution_matches_corrupted_region() {
        // The resolution's victim tile is the engine's own account of
        // where the RNG sent the strike; the output corruption must land
        // in exactly that tile's region.
        let engine = Engine::new(DeviceConfig::xeon_phi_3120a());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(3);
        let s = StrikeSpec::new(
            7,
            StrikeTarget::VectorRegister {
                mask: 1 << 63,
                lanes: 4,
                op_index: 0,
            },
        );
        let out = engine.run(&mut p, &s, &mut rng).unwrap();
        let victim = out.resolutions[0].victim_tile.unwrap();
        let exp = expected(64);
        let diffs: Vec<usize> = (0..64).filter(|&i| out.output[i] != exp[i]).collect();
        assert!(
            diffs.iter().all(|&i| i / 8 == victim),
            "{diffs:?} vs {victim}"
        );
    }

    #[test]
    fn traced_run_matches_untraced_output_and_rng_stream() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let s = StrikeSpec::new(
            2,
            StrikeTarget::RegisterFile {
                mask: 1 << 60,
                op_index: 1,
            },
        );
        let mut rng_a = SmallRng::seed_from_u64(42);
        let plain = engine.run(&mut p, &s, &mut rng_a).unwrap();
        let mut rng_b = SmallRng::seed_from_u64(42);
        let (traced, trace) = engine
            .run_injection_traced(&mut p, &s, &mut rng_b, None, &mut RunScratch::new())
            .unwrap();
        assert_eq!(plain.output, traced.output);
        assert_eq!(plain.resolutions, traced.resolutions);
        assert_eq!(trace.tiles().len(), 8);
    }

    #[test]
    fn metrics_record_phases_and_plan_geometry() {
        let metrics = std::sync::Arc::new(MetricsRegistry::new());
        let engine = Engine::new(DeviceConfig::kepler_k40()).with_metrics(metrics.clone());
        let mut p = Affine::new(64);
        engine.golden(&mut p).unwrap();
        engine.golden(&mut p).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("radcrit_engine_runs_total", &[]), Some(2));
        assert_eq!(snap.gauge("radcrit_plan_tiles", &[]), Some(8.0));
        for phase in ["setup", "tiles", "flush"] {
            let h = snap
                .histogram("radcrit_engine_phase_us", &[("phase", phase)])
                .unwrap_or_else(|| panic!("missing phase {phase}"));
            assert_eq!(h.count(), 2);
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn snapshotted_golden_matches_plain_golden() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let plain = engine.golden(&mut p).unwrap();
        let (snapped, set) = engine
            .golden_snapshotted(&mut p, &SnapshotPolicy::default())
            .unwrap();
        assert_eq!(bits(&plain.output), bits(&snapped.output));
        assert_eq!(plain.profile, snapped.profile);
        assert!(!set.is_empty(), "default policy captures snapshots");
        assert!(set.cost_bytes() > 0);
        assert!(
            !set.output_spans.is_empty(),
            "golden stores to the output are indexed"
        );
    }

    #[test]
    fn explicit_stride_controls_capture_points() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64); // 8 tiles
        let policy = SnapshotPolicy {
            stride: 2,
            max_bytes: 0,
        };
        let (_, set) = engine.golden_snapshotted(&mut p, &policy).unwrap();
        assert_eq!(set.len(), 4, "tiles 0, 2, 4, 6");
        assert_eq!(set.skipped_tiles(), 0);
    }

    #[test]
    fn tiny_budget_skips_captures() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let policy = SnapshotPolicy {
            stride: 1,
            max_bytes: 1,
        };
        let (_, set) = engine.golden_snapshotted(&mut p, &policy).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.skipped_tiles(), 8);
    }

    #[test]
    fn resumed_run_is_bit_identical_across_targets() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let (_, set) = engine
            .golden_snapshotted(
                &mut p,
                &SnapshotPolicy {
                    stride: 3,
                    max_bytes: 0,
                },
            )
            .unwrap();
        let targets = [
            StrikeTarget::L2 { mask: 1 << 62 },
            StrikeTarget::Fpu {
                mask: 1 << 63,
                op_index: 2,
            },
            StrikeTarget::Scheduler(SchedulerEffect::RedirectTile),
            StrikeTarget::Scheduler(SchedulerEffect::SkipTile),
            StrikeTarget::UnitGarble,
        ];
        for (i, target) in targets.iter().enumerate() {
            for at_tile in [0, 4, 7] {
                let s = StrikeSpec::new(at_tile, *target);
                let seed = 100 + i as u64;
                let mut rng_full = SmallRng::seed_from_u64(seed);
                let full = engine.run(&mut p, &s, &mut rng_full).unwrap();
                let mut rng_diff = SmallRng::seed_from_u64(seed);
                let diff = engine
                    .run_injection(
                        &mut p,
                        &s,
                        &mut rng_diff,
                        Some(&set),
                        &mut RunScratch::new(),
                    )
                    .unwrap();
                assert_eq!(
                    bits(&full.output),
                    bits(&diff.output),
                    "{target:?}@{at_tile}"
                );
                assert_eq!(full.resolutions, diff.resolutions);
                assert_eq!(full.profile, diff.profile);
                assert_eq!(full.strike_delivered, diff.strike_delivered);
                // The dirty region must cover every mismatch vs golden.
                let dirty = diff.dirty.expect("resumed run reports its dirty region");
                let golden = engine.golden(&mut p).unwrap();
                for idx in 0..full.output.len() {
                    if full.output[idx].to_bits() != golden.output[idx].to_bits() {
                        assert!(dirty.contains(idx), "{target:?}@{at_tile}: idx {idx} dirty");
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_keeps_runs_identical() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let (_, set) = engine
            .golden_snapshotted(&mut p, &SnapshotPolicy::default())
            .unwrap();
        let s = StrikeSpec::new(
            5,
            StrikeTarget::Fpu {
                mask: 1 << 63,
                op_index: 1,
            },
        );
        let mut scratch = RunScratch::new();
        for _ in 0..3 {
            let mut rng_a = SmallRng::seed_from_u64(9);
            let a = engine
                .run_injection(&mut p, &s, &mut rng_a, Some(&set), &mut scratch)
                .unwrap();
            let mut rng_b = SmallRng::seed_from_u64(9);
            let b = engine.run(&mut p, &s, &mut rng_b).unwrap();
            assert_eq!(bits(&a.output), bits(&b.output));
            assert_eq!(a.profile, b.profile);
        }
        // Scratch also serves full (non-resumed) runs without snapshots.
        let mut rng_a = SmallRng::seed_from_u64(11);
        let a = engine
            .run_injection(&mut p, &s, &mut rng_a, None, &mut scratch)
            .unwrap();
        let mut rng_b = SmallRng::seed_from_u64(11);
        let b = engine.run(&mut p, &s, &mut rng_b).unwrap();
        assert_eq!(bits(&a.output), bits(&b.output));
        assert!(a.dirty.is_none(), "full runs have no dirty region");
    }

    #[test]
    fn non_resumable_program_gets_no_snapshots_and_full_runs() {
        /// Affine with per-run observable state, like the pathological
        /// test kernel.
        #[derive(Debug)]
        struct Stateful(Affine);
        impl TiledProgram for Stateful {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn tile_count(&self) -> usize {
                self.0.tile_count()
            }
            fn threads_per_tile(&self) -> usize {
                self.0.threads_per_tile()
            }
            fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError> {
                self.0.setup(mem)
            }
            fn execute_tile(
                &mut self,
                tile: TileId,
                ctx: &mut TileCtx<'_>,
            ) -> Result<(), AccelError> {
                self.0.execute_tile(tile, ctx)
            }
            fn output(&self) -> BufferId {
                self.0.output()
            }
            fn output_shape(&self) -> OutputShape {
                self.0.output_shape()
            }
            fn resumable(&self) -> bool {
                false
            }
        }
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Stateful(Affine::new(64));
        let (out, set) = engine
            .golden_snapshotted(&mut p, &SnapshotPolicy::default())
            .unwrap();
        assert!(set.is_empty());
        assert_eq!(out.output, expected(64));
        // Passing a foreign snapshot set must not resume either.
        let mut donor = Affine::new(64);
        let (_, donor_set) = engine
            .golden_snapshotted(&mut donor, &SnapshotPolicy::default())
            .unwrap();
        let s = StrikeSpec::new(7, StrikeTarget::Scheduler(SchedulerEffect::SkipTile));
        let mut rng = SmallRng::seed_from_u64(3);
        let run = engine
            .run_injection(
                &mut p,
                &s,
                &mut rng,
                Some(&donor_set),
                &mut RunScratch::new(),
            )
            .unwrap();
        assert!(run.dirty.is_none(), "non-resumable programs run full");
    }

    #[test]
    fn resumed_metrics_counted() {
        let metrics = std::sync::Arc::new(MetricsRegistry::new());
        let engine = Engine::new(DeviceConfig::kepler_k40()).with_metrics(metrics.clone());
        let mut p = Affine::new(64);
        let (_, set) = engine
            .golden_snapshotted(&mut p, &SnapshotPolicy::default())
            .unwrap();
        let s = StrikeSpec::new(
            6,
            StrikeTarget::Fpu {
                mask: 1,
                op_index: 0,
            },
        );
        let mut rng = SmallRng::seed_from_u64(4);
        engine
            .run_injection(&mut p, &s, &mut rng, Some(&set), &mut RunScratch::new())
            .unwrap();
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("radcrit_engine_resumed_runs_total", &[]),
            Some(1)
        );
        assert!(snap.gauge("radcrit_snapshot_bytes", &[]).unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn only_value_strikes_run_cache_blind_and_match_full_runs() {
        let metrics = std::sync::Arc::new(MetricsRegistry::new());
        let engine = Engine::new(DeviceConfig::kepler_k40()).with_metrics(metrics.clone());
        let mut p = Affine::new(64);
        let (_, set) = engine
            .golden_snapshotted(
                &mut p,
                &SnapshotPolicy {
                    stride: 2,
                    max_bytes: 0,
                },
            )
            .unwrap();
        let blind_runs = || {
            metrics
                .snapshot()
                .counter("radcrit_engine_cache_blind_runs_total", &[])
                .unwrap_or(0)
        };
        let fpu = StrikeTarget::Fpu {
            mask: 1 << 63,
            op_index: 1,
        };
        let cases = [
            (fpu, 1),
            (StrikeTarget::UnitGarble, 1),
            (StrikeTarget::L2 { mask: 1 << 62 }, 0),
            (StrikeTarget::Scheduler(SchedulerEffect::SkipTile), 0),
        ];
        // One scratch across targets: a blind run hands back an
        // unrestored hierarchy that the next cache strike must not see.
        let mut scratch = RunScratch::new();
        for (target, blind) in cases {
            let s = StrikeSpec::new(5, target);
            let before = blind_runs();
            let mut rng = SmallRng::seed_from_u64(8);
            let resumed = engine
                .run_injection(&mut p, &s, &mut rng, Some(&set), &mut scratch)
                .unwrap();
            assert_eq!(blind_runs() - before, blind, "{target:?}");
            let mut rng = SmallRng::seed_from_u64(8);
            let full = engine.run(&mut p, &s, &mut rng).unwrap();
            assert_eq!(bits(&resumed.output), bits(&full.output), "{target:?}");
            assert_eq!(resumed.profile, full.profile, "{target:?}");
            assert_eq!(resumed.resolutions, full.resolutions, "{target:?}");
        }
    }

    /// A program whose loads depend on loaded values breaks the
    /// resumability contract; a cache-blind run must catch it in debug
    /// builds rather than report golden cache counters for it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must not be resumable")]
    fn cache_blind_run_trips_on_data_dependent_loads() {
        #[derive(Debug)]
        struct Chasing(Affine);
        impl TiledProgram for Chasing {
            fn name(&self) -> &str {
                "chasing"
            }
            fn tile_count(&self) -> usize {
                self.0.tile_count()
            }
            fn threads_per_tile(&self) -> usize {
                self.0.threads_per_tile()
            }
            fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError> {
                self.0.setup(mem)
            }
            fn execute_tile(
                &mut self,
                tile: TileId,
                ctx: &mut TileCtx<'_>,
            ) -> Result<(), AccelError> {
                self.0.execute_tile(tile, ctx)?;
                // A corrupted (negative) result makes the tile load once
                // more: its traffic now depends on data.
                let mut y = [0.0];
                ctx.load(self.0.out_buf.unwrap(), tile.index() * 8, &mut y)?;
                if y[0] < 0.0 {
                    ctx.load(self.0.in_buf.unwrap(), 0, &mut y)?;
                }
                Ok(())
            }
            fn output(&self) -> BufferId {
                self.0.output()
            }
            fn output_shape(&self) -> OutputShape {
                self.0.output_shape()
            }
        }
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Chasing(Affine::new(64));
        let (_, set) = engine
            .golden_snapshotted(&mut p, &SnapshotPolicy::default())
            .unwrap();
        let s = StrikeSpec::new(
            4,
            StrikeTarget::Fpu {
                mask: 1 << 63,
                op_index: 0,
            },
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = engine.run_injection(&mut p, &s, &mut rng, Some(&set), &mut RunScratch::new());
    }

    /// The outcome of a full traced run and of a resumed traced run of
    /// the same strike, plus the resumed run's early-exit count (an
    /// untraced resumed run must match it).
    fn full_and_resumed<P: TiledProgram>(
        p: &mut P,
        cfg: DeviceConfig,
        strike: &StrikeSpec,
        seed: u64,
    ) -> (
        (RunOutcome, ExecutionTrace),
        (RunOutcome, ExecutionTrace),
        u64,
    ) {
        let metrics = std::sync::Arc::new(MetricsRegistry::new());
        let engine = Engine::new(cfg).with_metrics(metrics.clone());
        let (_, set) = engine
            .golden_snapshotted(
                p,
                &SnapshotPolicy {
                    stride: 1,
                    max_bytes: 0,
                },
            )
            .unwrap();
        let full = engine
            .run_injection_traced(
                p,
                strike,
                &mut SmallRng::seed_from_u64(seed),
                None,
                &mut RunScratch::new(),
            )
            .unwrap();
        let exits = || {
            metrics
                .snapshot()
                .counter("radcrit_run_dead_strike_exits_total", &[])
                .unwrap_or(0)
        };
        let before = exits();
        let resumed = engine
            .run_injection_traced(
                p,
                strike,
                &mut SmallRng::seed_from_u64(seed),
                Some(&set),
                &mut RunScratch::new(),
            )
            .unwrap();
        let traced_exits = exits() - before;
        // The untraced resumed run takes the same path.
        let untraced = engine
            .run_injection(
                p,
                strike,
                &mut SmallRng::seed_from_u64(seed),
                Some(&set),
                &mut RunScratch::new(),
            )
            .unwrap();
        assert_eq!(bits(&untraced.output), bits(&resumed.0.output));
        assert_eq!(untraced.profile, resumed.0.profile);
        assert_eq!(exits() - before, 2 * traced_exits, "same exit untraced");
        (full, resumed, traced_exits)
    }

    /// Asserts a resumed outcome equals the full run's: output bits,
    /// profile, resolutions, the trace from the resume point (stride 1:
    /// the strike tile) on, and a dirty region covering every element
    /// that differs from golden.
    fn assert_matches_full(
        (full, full_trace): &(RunOutcome, ExecutionTrace),
        (resumed, resumed_trace): &(RunOutcome, ExecutionTrace),
        golden: &[f64],
        at_tile: usize,
    ) {
        assert_eq!(bits(&full.output), bits(&resumed.output));
        assert_eq!(full.profile, resumed.profile);
        assert_eq!(full.resolutions, resumed.resolutions);
        assert!(!resumed.golden_equivalent);
        let suffix: Vec<TileTrace> = full_trace
            .tiles()
            .iter()
            .filter(|t| t.pos >= at_tile)
            .copied()
            .collect();
        assert_eq!(resumed_trace.tiles(), &suffix[..]);
        let dirty = resumed.dirty.as_ref().expect("resumed");
        for (i, (g, r)) in golden.iter().zip(&resumed.output).enumerate() {
            if g.to_bits() != r.to_bits() {
                assert!(
                    dirty.contains(i),
                    "element {i} differs outside the dirty region"
                );
            }
        }
    }

    /// No tile of `Affine` loads the buffer the tiles write, so once the
    /// victim tile has run nothing can reach a later tile: value strikes
    /// (cache-blind) and L2 strikes whose flip a load observed both exit
    /// right there and still match a full run.
    #[test]
    fn cone_exit_fires_when_no_tile_loads_what_the_tiles_write() {
        let mut p = Affine::new(128);
        let golden = Engine::new(DeviceConfig::kepler_k40())
            .golden(&mut p)
            .unwrap()
            .output;
        let fpu = StrikeTarget::Fpu {
            mask: 1 << 63,
            op_index: 3,
        };
        let sfu = StrikeTarget::Sfu {
            scale: 2.0,
            op_index: 0,
        };
        // Affine runs no transcendental op: the SFU fault is armed but
        // changes nothing, and the run still exits.
        let cases = [
            (DeviceConfig::kepler_k40(), fpu, 5, true),
            (DeviceConfig::kepler_k40(), sfu, 2, false),
            (
                DeviceConfig::xeon_phi_3120a(),
                StrikeTarget::UnitGarble,
                3,
                true,
            ),
            (
                DeviceConfig::xeon_phi_3120a(),
                StrikeTarget::Scheduler(SchedulerEffect::GarbleTile),
                9,
                true,
            ),
        ];
        for (cfg, target, at_tile, corrupts) in cases {
            let s = StrikeSpec::new(at_tile, target);
            let (full, resumed, exits) = full_and_resumed(&mut p, cfg, &s, 17);
            assert_eq!(exits, 1, "{target:?}: one early exit");
            assert_matches_full(&full, &resumed, &golden, at_tile);
            assert_eq!(
                bits(&full.0.output) != bits(&golden),
                corrupts,
                "{target:?} output corruption"
            );
        }
    }

    /// Two stages: tiles 0..4 write `stage` blocks, tiles 4..8 load the
    /// block four positions back and write `out`, and tiles 8..12 write
    /// the rest of `out` from the input alone. A fault in a stage-one
    /// tile reaches `out` only through its stage-two reader.
    #[derive(Debug)]
    struct Relay {
        input: Vec<f64>,
        bufs: Option<(BufferId, BufferId, BufferId)>,
    }

    impl Relay {
        const BLOCK: usize = 8;

        fn new() -> Self {
            Relay {
                input: (0..8 * Self::BLOCK).map(|i| (i + 1) as f64).collect(),
                bufs: None,
            }
        }
    }

    impl TiledProgram for Relay {
        fn name(&self) -> &str {
            "relay"
        }

        fn tile_count(&self) -> usize {
            12
        }

        fn threads_per_tile(&self) -> usize {
            Self::BLOCK
        }

        fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError> {
            let input = mem.alloc_init("in", &self.input);
            let stage = mem.alloc("stage", 4 * Self::BLOCK);
            let out = mem.alloc("out", 8 * Self::BLOCK);
            self.bufs = Some((input, stage, out));
            Ok(())
        }

        fn execute_tile(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
            let (input, stage, out) = self.bufs.expect("setup ran");
            let t = tile.index();
            let mut x = [0.0; Self::BLOCK];
            let (src, src_at, dst, dst_at) = match t {
                0..=3 => (input, t, stage, t),
                4..=7 => (stage, t - 4, out, t - 4),
                _ => (input, t - 4, out, t - 4),
            };
            ctx.load(src, src_at * Self::BLOCK, &mut x)?;
            for v in &mut x {
                *v = ctx.fma(2.0, *v, 1.0);
            }
            ctx.store(dst, dst_at * Self::BLOCK, &x)
        }

        fn output(&self) -> BufferId {
            self.bufs.expect("setup ran").2
        }

        fn output_shape(&self) -> OutputShape {
            OutputShape::d1(8 * Self::BLOCK)
        }
    }

    /// A faulted stage-one tile's block is loaded by its stage-two
    /// reader at position 4..8, so the run must not stop before that
    /// reader: the corruption has to reach `out`, exactly as in a full
    /// run. Past the last reader (position 7) the cone is closed and the
    /// run exits before its last tile.
    #[test]
    fn cone_exit_waits_for_the_last_reader_of_a_corrupted_buffer() {
        let mut p = Relay::new();
        let golden = Engine::new(DeviceConfig::kepler_k40())
            .golden(&mut p)
            .unwrap()
            .output;
        for at_tile in 0..4 {
            let s = StrikeSpec::new(
                at_tile,
                StrikeTarget::Fpu {
                    mask: 1 << 63,
                    op_index: 1,
                },
            );
            let (full, resumed, exits) =
                full_and_resumed(&mut p, DeviceConfig::kepler_k40(), &s, 5);
            assert_matches_full(&full, &resumed, &golden, at_tile);
            let reader_block = at_tile * Relay::BLOCK..(at_tile + 1) * Relay::BLOCK;
            assert_ne!(
                bits(&full.0.output[reader_block.clone()]),
                bits(&golden[reader_block]),
                "stage tile {at_tile}'s corruption reaches out through its reader"
            );
            assert_eq!(exits, 1, "exit after the last stage reader");
        }
    }

    #[test]
    fn profile_reflects_memory_traffic() {
        let engine = Engine::new(DeviceConfig::xeon_phi_3120a());
        let mut p = Affine::new(128);
        let out = engine.golden(&mut p).unwrap();
        assert_eq!(out.profile.loads, 128);
        assert_eq!(out.profile.stores, 128);
        assert!(out.profile.cache.l2_misses > 0);
        assert!(out.profile.l2_avg_resident_bytes > 0.0);
        assert_eq!(out.profile.wave_size, 57); // 4-thread tiles, 4 hw threads/core... one tile per core
    }
}
