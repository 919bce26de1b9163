//! Differential injection execution must be invisible to the science:
//! a run resumed from a golden-prefix snapshot is **bit-identical** to a
//! full run — output, strike resolutions, and execution profile — for
//! every strike target, on both paper devices, across the paper
//! kernels; the dirty-region sparse diff produces the identical
//! [`ErrorReport`]; and a kill → resume campaign with snapshots enabled
//! still reconstructs the uninterrupted summary bit for bit.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit_accel::config::DeviceConfig;
use radcrit_accel::engine::{Engine, RunScratch};
use radcrit_accel::snapshot::SnapshotPolicy;
use radcrit_accel::strike::{SchedulerEffect, StrikeSpec, StrikeTarget};
use radcrit_campaign::runner::{compare_with_logical_coords, compare_with_logical_coords_sparse};
use radcrit_campaign::{Campaign, KernelSpec, RunOptions};
use radcrit_core::compare::{compare_slices, compare_slices_sparse};
use radcrit_obs::MetricsRegistry;

/// Every [`StrikeTarget`] variant, including each scheduler effect.
fn all_targets() -> Vec<StrikeTarget> {
    vec![
        StrikeTarget::L2 { mask: 1 << 61 },
        StrikeTarget::L1 { mask: 1 << 52 },
        StrikeTarget::RegisterFile {
            mask: 1 << 63,
            op_index: 3,
        },
        StrikeTarget::VectorRegister {
            mask: 1 << 40,
            lanes: 8,
            op_index: 1,
        },
        StrikeTarget::Fpu {
            mask: 1 << 62,
            op_index: 2,
        },
        StrikeTarget::Sfu {
            scale: 4.0,
            op_index: 0,
        },
        StrikeTarget::CoreControl {
            elems: 4,
            store_index: 1,
        },
        StrikeTarget::UnitGarble,
        StrikeTarget::Scheduler(SchedulerEffect::SkipTile),
        StrikeTarget::Scheduler(SchedulerEffect::RedirectTile),
        StrikeTarget::Scheduler(SchedulerEffect::GarbleTile),
    ]
}

fn devices() -> Vec<DeviceConfig> {
    vec![DeviceConfig::kepler_k40(), DeviceConfig::xeon_phi_3120a()]
}

fn kernels() -> Vec<KernelSpec> {
    vec![
        KernelSpec::Dgemm { n: 32 },
        KernelSpec::HotSpot {
            rows: 16,
            cols: 16,
            iterations: 4,
        },
        KernelSpec::LavaMd {
            grid: 3,
            particles: 4,
        },
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Mismatches keyed for bit-exact comparison (`Mismatch` holds `f64`s,
/// and a NaN read would defeat plain `PartialEq` even when the reports
/// agree bit for bit).
fn mismatch_bits(report: &radcrit_core::report::ErrorReport) -> Vec<([usize; 3], u64, u64)> {
    report
        .mismatches()
        .iter()
        .map(|m| (m.coord(), m.expected().to_bits(), m.read().to_bits()))
        .collect()
}

/// The tentpole invariant: for every strike target on every device and
/// kernel, resuming from a golden-prefix snapshot yields the same
/// `RunOutcome` a full run produces — outputs compared bit for bit (so
/// NaNs count), resolutions and profile by structural equality — and
/// the dirty region drives a sparse diff equal to the full diff.
#[test]
fn resumed_runs_are_bit_identical_to_full_runs_everywhere() {
    for device in devices() {
        for spec in kernels() {
            let engine = Engine::new(device.clone());
            let mut kernel = spec.build(7).expect("kernel builds");
            let policy = SnapshotPolicy {
                stride: 2,
                max_bytes: 0,
            };
            let (golden, snaps) = engine
                .golden_snapshotted(kernel.as_mut(), &policy)
                .expect("golden run");
            assert!(
                !snaps.is_empty(),
                "{spec:?} on {:?} captured no snapshots",
                device.kind()
            );
            let tiles = kernel.tile_count();
            for (t, target) in all_targets().into_iter().enumerate() {
                for at_tile in [0, tiles / 2, tiles - 1] {
                    let strike = StrikeSpec::new(at_tile, target);
                    let seed = 1000 + t as u64;
                    let mut rng_full = StdRng::seed_from_u64(seed);
                    let full = engine
                        .run(kernel.as_mut(), &strike, &mut rng_full)
                        .expect("full run");
                    let mut rng_diff = StdRng::seed_from_u64(seed);
                    let diff = engine
                        .run_injection(
                            kernel.as_mut(),
                            &strike,
                            &mut rng_diff,
                            Some(&snaps),
                            &mut RunScratch::new(),
                        )
                        .expect("resumed run");
                    let ctx = format!(
                        "{spec:?} on {:?}, {target:?} at tile {at_tile}",
                        device.kind()
                    );
                    assert_eq!(bits(&full.output), bits(&diff.output), "output: {ctx}");
                    assert_eq!(full.resolutions, diff.resolutions, "resolutions: {ctx}");
                    assert_eq!(full.profile, diff.profile, "profile: {ctx}");
                    assert_eq!(
                        full.strike_delivered, diff.strike_delivered,
                        "delivery: {ctx}"
                    );

                    let dirty = diff.dirty.as_ref().expect("resumed run has a dirty region");
                    let sparse = compare_with_logical_coords_sparse(
                        &golden.output,
                        &diff.output,
                        kernel.as_ref(),
                        dirty,
                    );
                    let dense =
                        compare_with_logical_coords(&golden.output, &full.output, kernel.as_ref());
                    assert_eq!(
                        mismatch_bits(&sparse),
                        mismatch_bits(&dense),
                        "sparse vs dense diff: {ctx}"
                    );
                }
            }
        }
    }
}

/// Provenance `touched` is computed from the per-tile trace, so a
/// resumed traced run must return exactly the tiles a full traced run
/// executed from the resume point on — down to the L2 counters, which a
/// cache-blind run reads from the golden table instead of simulating.
#[test]
fn resumed_traces_are_the_full_trace_from_the_resume_point_everywhere() {
    let metrics = Arc::new(MetricsRegistry::new());
    for device in devices() {
        for spec in kernels() {
            let engine = Engine::new(device.clone()).with_metrics(Arc::clone(&metrics));
            let mut kernel = spec.build(7).expect("kernel builds");
            let stride = 2;
            let policy = SnapshotPolicy {
                stride,
                max_bytes: 0,
            };
            let (_, snaps) = engine
                .golden_snapshotted(kernel.as_mut(), &policy)
                .expect("golden run");
            let tiles = kernel.tile_count();
            for (t, target) in all_targets().into_iter().enumerate() {
                for at_tile in [0, tiles / 2 + 1, tiles - 1] {
                    let strike = StrikeSpec::new(at_tile, target);
                    let seed = 2000 + t as u64;
                    let (_, full) = engine
                        .run_injection_traced(
                            kernel.as_mut(),
                            &strike,
                            &mut StdRng::seed_from_u64(seed),
                            None,
                            &mut RunScratch::new(),
                        )
                        .expect("full traced run");
                    let (run, resumed) = engine
                        .run_injection_traced(
                            kernel.as_mut(),
                            &strike,
                            &mut StdRng::seed_from_u64(seed),
                            Some(&snaps),
                            &mut RunScratch::new(),
                        )
                        .expect("resumed traced run");
                    let ctx = format!(
                        "{spec:?} on {:?}, {target:?} at tile {at_tile}",
                        device.kind()
                    );
                    assert!(run.dirty.is_some(), "did not resume: {ctx}");
                    let resume_at = at_tile / stride * stride;
                    let suffix: Vec<_> = full
                        .tiles()
                        .iter()
                        .filter(|tile| tile.pos >= resume_at)
                        .copied()
                        .collect();
                    assert_eq!(resumed.tiles(), &suffix[..], "trace: {ctx}");
                }
            }
        }
    }
    let blind = metrics
        .snapshot()
        .counter("radcrit_engine_cache_blind_runs_total", &[])
        .unwrap_or(0);
    assert!(blind > 0, "no run was cache-blind");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized corner of the same invariant: arbitrary strike tiles,
    /// RNG seeds, masks and op indices on DGEMM/K40. The resumed run's
    /// dirty region must also make the sparse compare exhaustive: it
    /// finds exactly the mismatches a dense compare of the full run does.
    #[test]
    fn resumed_dgemm_runs_are_bit_identical(
        at_tile in 0usize..4,
        seed in 0u64..1 << 32,
        bit in 0u32..64,
        op_index in 0u64..600,
        target_kind in 0usize..4,
    ) {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut kernel = KernelSpec::Dgemm { n: 32 }.build(seed).expect("kernel builds");
        let (golden, snaps) = engine
            .golden_snapshotted(kernel.as_mut(), &SnapshotPolicy::default())
            .expect("golden run");
        let mask = 1u64 << bit;
        let target = match target_kind {
            0 => StrikeTarget::L2 { mask },
            1 => StrikeTarget::RegisterFile { mask, op_index },
            2 => StrikeTarget::Fpu { mask, op_index },
            _ => StrikeTarget::Scheduler(SchedulerEffect::RedirectTile),
        };
        let strike = StrikeSpec::new(at_tile, target);
        let mut rng_full = StdRng::seed_from_u64(seed);
        let full = engine.run(kernel.as_mut(), &strike, &mut rng_full).expect("full run");
        let mut rng_diff = StdRng::seed_from_u64(seed);
        let diff = engine
            .run_injection(
                kernel.as_mut(),
                &strike,
                &mut rng_diff,
                Some(&snaps),
                &mut RunScratch::new(),
            )
            .expect("resumed run");
        prop_assert_eq!(bits(&full.output), bits(&diff.output));
        prop_assert_eq!(full.resolutions, diff.resolutions);
        prop_assert_eq!(full.profile, diff.profile);
        let dirty = diff.dirty.as_ref().expect("resumed run has a dirty region");
        let shape = kernel.logical_shape();
        let dense = compare_slices(&golden.output, &full.output, shape).expect("dense");
        let sparse =
            compare_slices_sparse(&golden.output, &diff.output, shape, dirty).expect("sparse");
        prop_assert_eq!(mismatch_bits(&sparse), mismatch_bits(&dense));
    }

    /// The same invariant on LavaMD/Phi, where no tile loads the force
    /// buffer the tiles write, so most resumed runs end at the cone exit
    /// and finish from the golden record: every strike target, random
    /// strike tiles and seeds, traced and untraced. Output bits,
    /// profile, resolutions, the trace from the resume point on, and the
    /// sparse compare over the dirty region all equal the full run's.
    #[test]
    fn resumed_lavamd_phi_runs_are_bit_identical(
        at_tile in 0usize..27,
        seed in 0u64..1 << 32,
        target_idx in 0usize..11,
        traced in any::<bool>(),
    ) {
        let engine = Engine::new(DeviceConfig::xeon_phi_3120a());
        let mut kernel = KernelSpec::LavaMd { grid: 3, particles: 4 }
            .build(seed)
            .expect("kernel builds");
        prop_assert_eq!(kernel.tile_count(), 27);
        let stride = 2;
        let (golden, snaps) = engine
            .golden_snapshotted(kernel.as_mut(), &SnapshotPolicy { stride, max_bytes: 0 })
            .expect("golden run");
        let strike = StrikeSpec::new(at_tile, all_targets()[target_idx]);
        let run = |kernel: &mut dyn radcrit_kernels::Workload, snaps| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scratch = RunScratch::new();
            if traced {
                let (out, trace) = engine
                    .run_injection_traced(kernel, &strike, &mut rng, snaps, &mut scratch)
                    .expect("traced run");
                (out, Some(trace))
            } else {
                let out = engine
                    .run_injection(kernel, &strike, &mut rng, snaps, &mut scratch)
                    .expect("run");
                (out, None)
            }
        };
        let (full, full_trace) = run(kernel.as_mut(), None);
        let (diff, diff_trace) = run(kernel.as_mut(), Some(&snaps));
        prop_assert_eq!(bits(&full.output), bits(&diff.output));
        prop_assert_eq!(full.profile, diff.profile);
        prop_assert_eq!(&full.resolutions, &diff.resolutions);
        prop_assert_eq!(full.golden_equivalent, diff.golden_equivalent);
        if let (Some(full_trace), Some(diff_trace)) = (full_trace, diff_trace) {
            let resume_at = at_tile / stride * stride;
            let suffix: Vec<_> = full_trace
                .tiles()
                .iter()
                .filter(|tile| tile.pos >= resume_at)
                .copied()
                .collect();
            prop_assert_eq!(diff_trace.tiles(), &suffix[..]);
        }
        let dirty = diff.dirty.as_ref().expect("resumed run has a dirty region");
        let sparse = compare_with_logical_coords_sparse(
            &golden.output,
            &diff.output,
            kernel.as_ref(),
            dirty,
        );
        let dense = compare_with_logical_coords(&golden.output, &full.output, kernel.as_ref());
        prop_assert_eq!(mismatch_bits(&sparse), mismatch_bits(&dense));
    }
}

fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "radcrit-differential-{tag}-{}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

/// Kill → resume with snapshots enabled (the default): the checkpointed
/// summary stays bit-identical to an uninterrupted differential run,
/// and both match a run with differential execution forced off.
#[test]
fn killed_differential_campaign_resumes_to_an_identical_summary() {
    let campaign = Campaign::new(
        DeviceConfig::kepler_k40(),
        KernelSpec::Dgemm { n: 32 },
        60,
        7,
    )
    .with_workers(2);

    let uninterrupted = campaign.run().unwrap();
    let full_exec = campaign
        .run_with(&RunOptions {
            full_execution: true,
            ..RunOptions::default()
        })
        .unwrap();
    assert_eq!(
        uninterrupted.records, full_exec.records,
        "differential execution changed the science"
    );

    let path = temp_path("kill-resume");
    let partial = campaign
        .run_with(&RunOptions {
            checkpoint: Some(path.clone()),
            budget: Some(25),
            ..RunOptions::default()
        })
        .unwrap();
    assert_eq!(partial.records.len(), 25);
    assert!(!partial.is_complete());

    let resumed = campaign.resume(&path).unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.records, uninterrupted.records);
    assert_eq!(resumed.summary(), uninterrupted.summary());
    std::fs::remove_file(&path).ok();
}

/// Differential execution is invisible to the science: records, the
/// event stream's bytes, and the summary are bit-identical to full
/// execution, across all three kernels.
#[test]
fn differential_campaigns_are_bit_identical_to_full_across_kernels() {
    for spec in kernels() {
        let campaign = Campaign::new(DeviceConfig::kepler_k40(), spec, 50, 7).with_workers(3);
        let run = |full_execution: bool, tag: &str| {
            let events = temp_path(&format!("diff-events-{tag}"));
            let result = campaign
                .run_with(&RunOptions {
                    full_execution,
                    events_out: Some(events.clone()),
                    events_sample: 1,
                    ..RunOptions::default()
                })
                .unwrap();
            let stream = std::fs::read(&events).unwrap();
            std::fs::remove_file(&events).ok();
            (result, stream)
        };
        let (diff, diff_events) = run(false, "diff");
        let (full, full_events) = run(true, "full");
        assert_eq!(diff.records, full.records, "{spec:?} records vs full");
        assert_eq!(diff_events, full_events, "{spec:?} events vs full");
        assert_eq!(diff.summary(), full.summary(), "{spec:?} summary vs full");
    }
}

/// The SIMD execution core is invisible to the science: a campaign run
/// with dispatch pinned to the scalar reference (`--scalar`) produces
/// records, event-stream bytes, and a summary bit-identical to the
/// default vectorized run, across all kernels — including a resumed
/// run whose checkpoint was written by the *other* executor.
#[test]
fn scalar_pinned_campaigns_are_bit_identical_to_vectorized() {
    for spec in kernels() {
        let campaign = Campaign::new(DeviceConfig::kepler_k40(), spec, 50, 7).with_workers(3);
        let run = |force_scalar: bool, tag: &str| {
            let events = temp_path(&format!("scalar-events-{tag}"));
            let result = campaign
                .run_with(&RunOptions {
                    force_scalar,
                    events_out: Some(events.clone()),
                    events_sample: 1,
                    ..RunOptions::default()
                })
                .unwrap();
            let stream = std::fs::read(&events).unwrap();
            std::fs::remove_file(&events).ok();
            (result, stream)
        };
        let (vectorized, vec_events) = run(false, "off");
        let (pinned, pin_events) = run(true, "on");
        assert_eq!(vectorized.records, pinned.records, "{spec:?} records");
        assert_eq!(vec_events, pin_events, "{spec:?} event stream");
        assert_eq!(vectorized.summary(), pinned.summary(), "{spec:?} summary");
        assert_eq!(
            vectorized.summary().to_json(),
            pinned.summary().to_json(),
            "{spec:?} summary JSON bytes"
        );
    }
}

/// A campaign killed mid-run under one executor and resumed under the
/// other reconstructs the uninterrupted summary: checkpoints are
/// ISA-portable.
#[test]
fn checkpoint_resumes_across_executors() {
    let spec = KernelSpec::Dgemm { n: 48 };
    let campaign = Campaign::new(DeviceConfig::kepler_k40(), spec, 40, 11).with_workers(2);
    let reference = campaign
        .run_with(&RunOptions {
            force_scalar: true,
            ..RunOptions::default()
        })
        .unwrap();
    let path = temp_path("cross-isa-resume");
    let partial = campaign
        .run_with(&RunOptions {
            checkpoint: Some(path.clone()),
            budget: Some(17),
            ..RunOptions::default()
        })
        .unwrap();
    assert!(!partial.is_complete());
    let resumed = campaign
        .run_with(&RunOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            force_scalar: true,
            ..RunOptions::default()
        })
        .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.records, reference.records);
    assert_eq!(resumed.summary(), reference.summary());
    std::fs::remove_file(&path).ok();
}
