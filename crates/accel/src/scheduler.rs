//! Dispatch planning and scheduler-exposure models.
//!
//! The two devices distribute tiles very differently:
//!
//! * the K40's **hardware block scheduler** dispatches thread blocks
//!   round-robin over the SMs in *waves* — as many blocks run
//!   concurrently as the device can hold resident
//!   ([`crate::config::DeviceConfig::concurrent_tiles`]);
//! * the Phi's **OS scheduler** (OpenMP-style static scheduling)
//!   partitions the whole iteration space into *contiguous chunks*, one
//!   per core. Corrupted per-core task state therefore damages a
//!   contiguous band of the output — the mechanism behind the paper's
//!   large square/cubic Phi error patterns.
//!
//! Where the devices differ — and what §V-A of the paper stresses — is how
//! much *irradiated state* scheduling exposes:
//!
//! * the K40's **hardware scheduler** keeps an on-chip entry per managed
//!   thread block, so its neutron cross-section grows with the number of
//!   instantiated threads (the paper measures a 7× DGEMM FIT increase
//!   from 2¹⁰ to 2¹² matrices);
//! * the Phi's **OS scheduler** lives in DRAM outside the beam spot; only
//!   small per-core hardware task state (4 thread contexts per core) is
//!   exposed, so FIT grows only mildly with input (1.8× in the paper).

use serde::{Deserialize, Serialize};

use crate::config::{DeviceConfig, ResidencyPolicy, SchedulerKind};

/// How tiles map to execution units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Assignment {
    /// Hardware scheduler: round-robin over units within fixed-size
    /// waves.
    RoundRobinWaves,
    /// OS static scheduling: contiguous chunks of the iteration space,
    /// one per unit.
    StaticChunks {
        /// Tiles per chunk.
        chunk: usize,
    },
}

/// A static dispatch plan: which unit runs each tile and in which wave.
///
/// Iterative kernels launch one parallel region per time step with a
/// barrier in between; scheduling state never outlives a launch, so both
/// wave and chunk geometry are framed *within* each launch of
/// `launch_tiles` tiles.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatchPlan {
    units: usize,
    wave_size: usize,
    tiles: usize,
    launch_tiles: usize,
    assignment: Assignment,
}

impl DispatchPlan {
    /// Plans `tiles` tiles of `threads_per_tile` threads (each using
    /// `local_mem_per_tile` bytes of shared memory) on `cfg`, with
    /// `launch_tiles` tiles per kernel launch.
    pub fn new(
        cfg: &DeviceConfig,
        tiles: usize,
        launch_tiles: usize,
        threads_per_tile: usize,
        local_mem_per_tile: usize,
    ) -> Self {
        let launch_tiles = launch_tiles.clamp(1, tiles.max(1));
        let wave_size = cfg
            .concurrent_tiles(threads_per_tile, local_mem_per_tile)
            .max(1);
        let assignment = match cfg.scheduler() {
            SchedulerKind::Hardware => Assignment::RoundRobinWaves,
            SchedulerKind::OperatingSystem => Assignment::StaticChunks {
                // OpenMP-style static partition of one launch's iteration
                // space over the cores.
                chunk: launch_tiles.div_ceil(cfg.units()).max(1),
            },
        };
        DispatchPlan {
            units: cfg.units(),
            wave_size,
            tiles,
            launch_tiles,
            assignment,
        }
    }

    /// Splits a dispatch position into (launch index, position within the
    /// launch).
    fn frame(&self, pos: usize) -> (usize, usize) {
        (pos / self.launch_tiles, pos % self.launch_tiles)
    }

    /// Waves (or chunks) per launch.
    fn spans_per_launch(&self) -> usize {
        let span = match self.assignment {
            Assignment::RoundRobinWaves => self.wave_size,
            Assignment::StaticChunks { chunk } => chunk,
        };
        self.launch_tiles.div_ceil(span).max(1)
    }

    /// Total tiles planned.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Tiles resident concurrently (wave width).
    pub fn wave_size(&self) -> usize {
        self.wave_size
    }

    /// Number of waves needed.
    pub fn waves(&self) -> usize {
        self.tiles.div_ceil(self.wave_size.max(1))
    }

    /// The unit executing the tile at dispatch position `pos`.
    pub fn unit_of(&self, pos: usize) -> usize {
        let (_, within) = self.frame(pos);
        match self.assignment {
            Assignment::RoundRobinWaves => (within % self.wave_size) % self.units,
            Assignment::StaticChunks { chunk } => (within / chunk).min(self.units - 1),
        }
    }

    /// The wave containing dispatch position `pos` (chunked plans treat
    /// each chunk as its own wave). Waves never cross launch barriers.
    pub fn wave_of(&self, pos: usize) -> usize {
        let (launch, within) = self.frame(pos);
        let span = match self.assignment {
            Assignment::RoundRobinWaves => self.wave_size,
            Assignment::StaticChunks { chunk } => chunk,
        };
        launch * self.spans_per_launch() + within / span
    }

    /// Dispatch positions belonging to the wave of `pos` that have not yet
    /// executed when `pos` is about to run (i.e. positions `pos..end`): the
    /// candidate victims of a register-file strike landing "now".
    pub fn pending_in_wave(&self, pos: usize) -> std::ops::Range<usize> {
        let (launch, within) = self.frame(pos);
        let span = match self.assignment {
            Assignment::RoundRobinWaves => self.wave_size,
            Assignment::StaticChunks { chunk } => chunk,
        };
        let wave_end_within = ((within / span + 1) * span).min(self.launch_tiles);
        let wave_end = (launch * self.launch_tiles + wave_end_within).min(self.tiles);
        pos..wave_end
    }

    /// Records the plan's geometry as gauges: tiles, wave width, wave
    /// count and unit count. Called by the engine once per run when a
    /// metrics registry is attached.
    pub fn observe(&self, metrics: &radcrit_obs::MetricsRegistry) {
        metrics.gauge_set("radcrit_plan_tiles", &[], self.tiles as f64);
        metrics.gauge_set("radcrit_plan_wave_size", &[], self.wave_size as f64);
        metrics.gauge_set("radcrit_plan_waves", &[], self.waves() as f64);
        metrics.gauge_set("radcrit_plan_units", &[], self.units as f64);
    }

    /// The dispatch positions garbled when the task/scheduler state of
    /// `pos`'s unit is corrupted at the instant `pos` starts: every
    /// not-yet-executed position of the same unit within the same
    /// wave/chunk. For a chunked (OS) plan this is the *contiguous
    /// remainder of the core's chunk*, for a wave plan the unit's
    /// remaining slots in the wave.
    pub fn unit_garble_applies(&self, struck_pos: usize, pos: usize) -> bool {
        pos >= struck_pos
            && self.wave_of(pos) == self.wave_of(struck_pos)
            && self.unit_of(pos) == self.unit_of(struck_pos)
    }

    /// The last dispatch position a unit garble struck at `struck_pos`
    /// reaches (see [`DispatchPlan::unit_garble_applies`]); no position
    /// after it is garbled.
    pub fn unit_garble_last(&self, struck_pos: usize) -> usize {
        self.pending_in_wave(struck_pos)
            .rev()
            .find(|&p| self.unit_garble_applies(struck_pos, p))
            .unwrap_or(struck_pos)
    }
}

/// Relative amounts of exposed (irradiated) state per structure class for
/// one program on one device, in arbitrary area units. The fault sampler
/// turns these into a site-selection distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExposureModel {
    /// Scheduler state: hardware entries per resident thread (K40) or a
    /// small per-core constant (Phi).
    pub scheduler: f64,
    /// Register-file bits holding live or waiting thread data.
    pub register_file: f64,
    /// Occupied cache capacity (shared L2), in bytes.
    pub l2: f64,
    /// Occupied cache capacity (all L1s), in bytes.
    pub l1: f64,
}

impl ExposureModel {
    /// Computes exposure for a program with `tiles` tiles of
    /// `threads_per_tile` threads, where the caches hold
    /// `l2_resident_bytes`/`l1_resident_bytes` on average.
    ///
    /// Scheduler exposure:
    /// * [`SchedulerKind::Hardware`]: proportional to *instantiated*
    ///   threads (every block occupies a scheduler entry until retired) —
    ///   ~256 bytes of queue state per 32-thread warp.
    /// * [`SchedulerKind::OperatingSystem`]: per-core hardware task state
    ///   only (~64 bytes per hardware thread context), independent of the
    ///   number of software tasks parked in DRAM.
    ///
    /// Register exposure:
    /// * [`ResidencyPolicy::RegisterResident`]: waiting threads keep their
    ///   data in registers, so exposure grows with instantiated threads up
    ///   to the register file capacity.
    /// * [`ResidencyPolicy::DramParked`]: only the running hardware
    ///   threads' registers are exposed.
    pub fn for_program(
        cfg: &DeviceConfig,
        instantiated_threads: usize,
        resident_threads: usize,
        l2_resident_bytes: f64,
        l1_resident_bytes: f64,
    ) -> Self {
        let instantiated = instantiated_threads as f64;
        let resident = resident_threads as f64;

        let scheduler = match cfg.scheduler() {
            // ~256 bytes of hardware queue, dependency and dispatch state
            // per managed 32-thread warp: this is the structure whose
            // growth with the thread count drives the K40's DGEMM FIT
            // increase (SS V-A point 1).
            SchedulerKind::Hardware => instantiated / 32.0 * 256.0,
            // 4 hardware contexts per core, ~64 bytes each; the software
            // run queue itself lives in unirradiated DRAM.
            SchedulerKind::OperatingSystem => (cfg.units() * 4 * 64) as f64,
        };

        let rf_capacity = (cfg.register_file_bytes_per_unit() * cfg.units()) as f64;
        // ~128 bytes (sixteen f64 registers) of live state per *resident*
        // thread: pending blocks wait in the scheduler queue without a
        // register allocation, so register exposure is bounded by
        // occupancy (this is what keeps LavaMD's register population
        // small on the K40 despite its huge thread count, SS V-B). The
        // residency policy determines what "resident" means: whole
        // waiting warps on the K40, only the hardware contexts on the
        // Phi — both already folded into `resident_threads`.
        let register_file = match cfg.residency() {
            ResidencyPolicy::RegisterResident | ResidencyPolicy::DramParked => {
                (resident * 128.0).min(rf_capacity)
            }
        };

        ExposureModel {
            scheduler,
            register_file,
            l2: l2_resident_bytes,
            l1: l1_resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    #[test]
    fn plan_covers_all_tiles_in_waves() {
        let cfg = DeviceConfig::kepler_k40();
        let plan = DispatchPlan::new(&cfg, 1000, 1000, 256, 0);
        assert_eq!(plan.tiles(), 1000);
        assert_eq!(plan.wave_size(), 120); // 8 per SM x 15 SMs
        assert_eq!(plan.waves(), 9);
        assert_eq!(plan.wave_of(0), 0);
        assert_eq!(plan.wave_of(119), 0);
        assert_eq!(plan.wave_of(120), 1);
    }

    #[test]
    fn k40_units_cycle_round_robin() {
        let cfg = DeviceConfig::kepler_k40();
        let plan = DispatchPlan::new(&cfg, 200, 200, 2048, 0); // one tile per SM
        assert_eq!(plan.unit_of(0), 0);
        assert_eq!(plan.unit_of(1), 1);
        assert_eq!(plan.unit_of(14), 14);
        assert_eq!(plan.unit_of(15), 0); // next wave starts at unit 0
        for pos in 0..200 {
            assert!(plan.unit_of(pos) < 15);
        }
    }

    #[test]
    fn phi_units_get_contiguous_chunks() {
        // OS static scheduling: 228 tiles over 57 cores = 4-tile chunks.
        let cfg = DeviceConfig::xeon_phi_3120a();
        let plan = DispatchPlan::new(&cfg, 228, 228, 4, 0);
        assert_eq!(plan.unit_of(0), 0);
        assert_eq!(plan.unit_of(3), 0);
        assert_eq!(plan.unit_of(4), 1);
        assert_eq!(plan.unit_of(227), 56);
        for pos in 0..228 {
            assert!(plan.unit_of(pos) < 57);
        }
    }

    #[test]
    fn k40_pending_in_wave_shrinks_to_wave_end() {
        let cfg = DeviceConfig::kepler_k40();
        let plan = DispatchPlan::new(&cfg, 100, 100, 2048, 0); // wave size 15
        assert_eq!(plan.pending_in_wave(0), 0..15);
        assert_eq!(plan.pending_in_wave(14), 14..15);
        assert_eq!(plan.pending_in_wave(99), 99..100);
    }

    #[test]
    fn phi_pending_is_the_chunk_remainder() {
        let cfg = DeviceConfig::xeon_phi_3120a();
        let plan = DispatchPlan::new(&cfg, 114, 114, 4, 0); // chunks of 2
        assert_eq!(plan.pending_in_wave(0), 0..2);
        assert_eq!(plan.pending_in_wave(1), 1..2);
        assert_eq!(plan.pending_in_wave(2), 2..4);
    }

    #[test]
    fn chunks_are_framed_per_launch() {
        // An iterative kernel: 4 launches of 114 tiles on 57 cores =
        // 2-tile chunks inside each launch.
        let cfg = DeviceConfig::xeon_phi_3120a();
        let plan = DispatchPlan::new(&cfg, 456, 114, 4, 0);
        assert_eq!(plan.unit_of(0), 0);
        assert_eq!(plan.unit_of(113), 56);
        assert_eq!(plan.unit_of(114), 0, "a new launch restarts at core 0");
        // A garble at the end of launch 0 cannot leak into launch 1.
        let garbled: Vec<usize> = (0..456)
            .filter(|&p| plan.unit_garble_applies(113, p))
            .collect();
        assert_eq!(garbled, vec![113]);
    }

    #[test]
    fn unit_garble_span_is_contiguous_on_phi() {
        let cfg = DeviceConfig::xeon_phi_3120a();
        let plan = DispatchPlan::new(&cfg, 570, 570, 4, 0); // chunks of 10
                                                            // Strike mid-chunk of core 3 (positions 30..40).
        let struck = 34;
        let garbled: Vec<usize> = (0..570)
            .filter(|&p| plan.unit_garble_applies(struck, p))
            .collect();
        assert_eq!(garbled, (34..40).collect::<Vec<_>>());
    }

    #[test]
    fn partial_final_launch_is_well_formed() {
        // 250 tiles in launches of 100: the last launch has 50 tiles.
        let cfg = DeviceConfig::xeon_phi_3120a();
        let plan = DispatchPlan::new(&cfg, 250, 100, 4, 0);
        for pos in 0..250 {
            assert!(plan.unit_of(pos) < 57, "pos {pos}");
            let pending = plan.pending_in_wave(pos);
            assert!(
                pending.start == pos && pending.end <= 250,
                "pos {pos}: {pending:?}"
            );
            assert!(!pending.is_empty());
        }
        // Chunk of ceil(100/57)=2: position 248 is in the final launch's
        // chunk structure.
        assert_eq!(plan.unit_of(200), 0, "new launch restarts");
        assert_eq!(plan.pending_in_wave(249), 249..250);
    }

    #[test]
    fn launch_larger_than_tiles_clamps() {
        let cfg = DeviceConfig::kepler_k40();
        let plan = DispatchPlan::new(&cfg, 10, 100, 2048, 0);
        for pos in 0..10 {
            assert!(plan.unit_of(pos) < 15);
            assert!(plan.pending_in_wave(pos).end <= 10);
        }
    }

    #[test]
    fn unit_garble_span_is_strided_on_k40() {
        let cfg = DeviceConfig::kepler_k40();
        let plan = DispatchPlan::new(&cfg, 100, 100, 2048, 0); // waves of 15
        let struck = 2;
        let garbled: Vec<usize> = (0..100)
            .filter(|&p| plan.unit_garble_applies(struck, p))
            .collect();
        assert_eq!(garbled, vec![2], "one block per SM per wave on the K40");
    }

    /// `unit_garble_last` is the greatest position `unit_garble_applies`
    /// admits, for wave and chunk plans, across launch boundaries.
    #[test]
    fn unit_garble_last_is_the_last_garbled_position() {
        let plans = [
            DispatchPlan::new(&DeviceConfig::kepler_k40(), 100, 100, 256, 0),
            DispatchPlan::new(&DeviceConfig::xeon_phi_3120a(), 570, 570, 4, 0),
            DispatchPlan::new(&DeviceConfig::xeon_phi_3120a(), 456, 114, 4, 0),
        ];
        for plan in plans {
            for struck in 0..plan.tiles() {
                let last = (0..plan.tiles())
                    .filter(|&p| plan.unit_garble_applies(struck, p))
                    .max();
                assert_eq!(Some(plan.unit_garble_last(struck)), last, "{struck}");
            }
        }
    }

    #[test]
    fn hardware_scheduler_exposure_grows_with_threads() {
        let k40 = DeviceConfig::kepler_k40();
        let small = ExposureModel::for_program(&k40, 4096 * 16, 30_000, 0.0, 0.0);
        let large = ExposureModel::for_program(&k40, 65536 * 16, 30_000, 0.0, 0.0);
        assert!(
            large.scheduler / small.scheduler > 10.0,
            "16x threads must expose ~16x hardware scheduler state"
        );
    }

    #[test]
    fn os_scheduler_exposure_is_flat() {
        let phi = DeviceConfig::xeon_phi_3120a();
        let small = ExposureModel::for_program(&phi, 4096 * 4, 228, 0.0, 0.0);
        let large = ExposureModel::for_program(&phi, 65536 * 4, 228, 0.0, 0.0);
        assert_eq!(small.scheduler, large.scheduler);
    }

    #[test]
    fn register_exposure_follows_residency() {
        let k40 = DeviceConfig::kepler_k40();
        // Doubling *resident* threads doubles register exposure until the
        // file saturates; pending blocks expose nothing.
        let small = ExposureModel::for_program(&k40, 1 << 20, 8_000, 0.0, 0.0);
        let large = ExposureModel::for_program(&k40, 1 << 20, 16_000, 0.0, 0.0);
        assert!((large.register_file / small.register_file - 2.0).abs() < 0.01);
    }

    #[test]
    fn k40_register_exposure_saturates_at_capacity() {
        let k40 = DeviceConfig::kepler_k40();
        let huge = ExposureModel::for_program(&k40, usize::MAX / 1024, usize::MAX / 1024, 0.0, 0.0);
        let rf_capacity = (k40.register_file_bytes_per_unit() * k40.units()) as f64;
        assert_eq!(huge.register_file, rf_capacity);
    }
}
