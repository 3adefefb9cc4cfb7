//! Property tests over the fault-injection and recovery subsystem.
//!
//! Five contracts from docs/FAULT_MODEL.md are pinned here:
//!
//! 1. **Ordering** — the ECC read-retry ladder executes through the same
//!    resource-reservation engine as regular traffic, so retries can
//!    only *delay* completions, never reorder them within a channel.
//! 2. **Recovery correctness** — a LOBPCG solve interrupted by node
//!    crashes and resumed from checkpoints converges to the same
//!    eigenvalues as the uninterrupted solve (to tolerance; the restart
//!    re-applies the operator, so bit-identity is not expected).
//! 3. **Zero-fault identity** — `FaultPlan::none()` reproduces the
//!    fault-free driver byte-for-byte, and any plan is deterministic
//!    under its seed.
//! 4. **Journal-recovery idempotency** — after power loss at any device
//!    write, UFS mount-time recovery run twice is byte-identical to run
//!    once, and the recovery report is deterministic.
//! 5. **Committed prefix** — crash at an arbitrary write ∘ recover
//!    equals the state of the last transaction whose commit mark
//!    persisted before the crash, for random op sequences of writes at
//!    arbitrary offsets (overwrites below the staged window and holes
//!    past EOF included), several of them per fsync.

use flashsim::{DieOp, MediaConfig, MediaFaultState, MediaSim};
use nvmtypes::fault::CrashPoint;
use nvmtypes::fault::{FaultPlan, MediaFaultProfile, NodeFaultProfile, STREAM_MEDIA, STREAM_NODE};
use nvmtypes::{BusTiming, DieIndex, Nanos, NvmKind, SsdGeometry, MIB};
use ooc::checkpoint::solve_with_recovery;
use ooc::lobpcg::{Lobpcg, LobpcgOptions};
use ooc::HamiltonianSpec;
use oocnvm_core::config::SystemConfig;
use oocnvm_core::experiment::ExperimentSpec;
use oocnvm_core::workload::synthetic_ooc_trace;
use proptest::prelude::*;
use ssd::config::FtlMode;
use ssd::ftl::Ftl;
use ssd::recovery::read_with_recovery;
use ssd::{BlockDevice, ReliabilityStats, SimBlockDevice};
use std::collections::BTreeMap;
use ufs::fs::WRITES_AFTER_COMMIT;
use ufs::{Ufs, UfsParams};

/// One read per tuple: `(die-in-channel, planes, pages)`. All ops land
/// on channel 0 (dies are channel-major: die `2k` sits on channel 0 of
/// the tiny 2-channel geometry).
fn arb_channel_reads() -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    prop::collection::vec((0u32..4, 1u32..=2, 1u64..8), 1..24)
}

/// Executes the read sequence with recovery at fixed issue spacing and
/// returns each op's completion time.
fn run_reads(
    profile: MediaFaultProfile,
    seed: u64,
    ops: &[(u32, u32, u64)],
    gap: Nanos,
) -> (Vec<Nanos>, ReliabilityStats) {
    let media_cfg = MediaConfig::tiny(
        NvmKind::Tlc,
        BusTiming {
            name: "t",
            bytes_per_ns: 0.4,
        },
    );
    let pages_per_block = u64::from(media_cfg.geometry.pages_per_block);
    let mut media = MediaSim::new(media_cfg);
    let rng = FaultPlan {
        seed,
        ..FaultPlan::none()
    }
    .rng()
    .split(STREAM_MEDIA);
    let mut faults = MediaFaultState::new(profile, NvmKind::Tlc, pages_per_block, rng);
    let mut ftl = Ftl::new(FtlMode::ufs_default(), SsdGeometry::tiny(), 0).with_page_size(8192);
    let mut rel = ReliabilityStats::default();
    let mut ends = Vec::with_capacity(ops.len());
    for (i, &(die, planes, pages)) in ops.iter().enumerate() {
        let op = DieOp::read(DieIndex(die * 2), planes, pages, 0);
        let start = gap * (i as u64);
        ends.push(
            read_with_recovery(
                &mut media,
                &op,
                start,
                &mut faults,
                &mut ftl,
                &mut rel,
                &mut simobs::Tracer::off(),
            )
            .end,
        );
    }
    (ends, rel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ecc_retries_never_reorder_channel_completions(
        ops in arb_channel_reads(),
        gap in 0u64..2_000,
        seed in 0u64..1_000,
        error_prob in 0.0f64..0.6,
        ecc_tiers in 1u32..4,
        tier_extra_ns in 100u64..2_000,
    ) {
        let profile = MediaFaultProfile {
            page_error_prob: error_prob,
            ecc_tiers,
            tier_extra_ns,
            ..MediaFaultProfile::none()
        };
        let (clean, clean_rel) = run_reads(MediaFaultProfile::none(), seed, &ops, gap);
        let (faulty, _) = run_reads(profile, seed, &ops, gap);
        prop_assert_eq!(clean_rel, ReliabilityStats::default());
        // Retries only ever delay: no op may finish earlier than its
        // fault-free self.
        for (f, c) in faulty.iter().zip(&clean) {
            prop_assert!(f >= c, "a retry made an op finish earlier ({f} < {c})");
        }
        // A die's completions stay in issue order, with and without the
        // retry ladder in play. (Distinct dies on the shared channel may
        // legitimately interleave page transfers; a single die may not.)
        for die in 0u32..4 {
            let per_die = |ends: &[Nanos]| -> Vec<Nanos> {
                ops.iter()
                    .zip(ends)
                    .filter(|((d, _, _), _)| *d == die)
                    .map(|(_, &e)| e)
                    .collect()
            };
            for w in per_die(&clean).windows(2) {
                prop_assert!(w[0] <= w[1], "clean run reordered die {die} ({} > {})", w[0], w[1]);
            }
            for w in per_die(&faulty).windows(2) {
                prop_assert!(w[0] <= w[1], "retries reordered die {die} ({} > {})", w[0], w[1]);
            }
        }
        // Same seed, same sequence: the ladder is deterministic.
        let (again, _) = run_reads(profile, seed, &ops, gap);
        prop_assert_eq!(faulty, again);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn checkpoint_restart_converges_to_the_same_eigenvalues(
        seed in 0u64..64,
        crash_prob in 0.02f64..0.25,
        checkpoint_every in 1u32..8,
    ) {
        let h = HamiltonianSpec::tiny(96).generate();
        let solver = Lobpcg::new(LobpcgOptions {
            block_size: 2,
            max_iters: 500,
            tol: 1e-7,
            seed: 7,
            precondition: true,
        });
        let plain = solver.solve(&h);
        prop_assert!(plain.converged);
        let profile = NodeFaultProfile {
            crash_prob_per_iter: crash_prob,
            checkpoint_every,
            restart_penalty_ns: 1_000_000,
            max_crashes: 4,
        };
        let mut rng = FaultPlan { seed, ..FaultPlan::none() }
            .rng()
            .split(STREAM_NODE);
        let rec = solve_with_recovery(&solver, &h, &profile, &mut rng);
        prop_assert!(rec.result.converged);
        for (a, b) in rec.result.eigenvalues.iter().zip(&plain.eigenvalues) {
            prop_assert!(
                (a - b).abs() < 1e-5,
                "eigenvalue drift {} vs {} after {} crashes",
                a, b, rec.recovery.node_losses
            );
        }
        // The accounting must reflect what happened: a crash costs its
        // restart penalty, a checkpoint its bytes.
        prop_assert_eq!(
            rec.recovery.restart_ns,
            u64::from(rec.recovery.node_losses) * profile.restart_penalty_ns
        );
        if rec.recovery.checkpoints > 0 {
            prop_assert!(rec.recovery.checkpoint_bytes > 0);
        }
    }
}

// --- journaled UFS under power loss (docs/UFS.md) --------------------------

/// Deterministic patterned content for op `i` of length `len`.
fn op_content(i: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|b| u8::try_from((b * 31 + i * 151 + 7) % 256).unwrap_or(0))
        .collect()
}

/// Filesystem geometry the UFS properties run under.
fn small_ufs() -> UfsParams {
    UfsParams {
        max_files: 8,
        journal_sectors: 16,
    }
}

/// A freshly formatted device image.
fn formatted_media() -> Vec<u8> {
    Ufs::format(SimBlockDevice::new(2048), small_ufs())
        .expect("formats")
        .into_device()
        .into_media()
}

enum DriveEnd {
    /// All ops applied: the filesystem and, per fsync, the commit's
    /// device-write index paired with the logical state snapshot.
    Done {
        fs: Box<Ufs<SimBlockDevice>>,
        commits: Vec<(u64, BTreeMap<String, Vec<u8>>)>,
    },
    /// Power was lost mid-op; the surviving media image.
    Lost(Vec<u8>),
}

/// One op: write `content` at `offset` of file `name` (created on first
/// touch), then fsync that file if the flag is set.
type Op = (String, u64, Vec<u8>, bool);

/// Mirrors `Ufs::write` in the logical model: a pwrite-style overlay at
/// `offset`, so a shorter rewrite never truncates the file, and a write
/// past EOF zero-fills the hole.
fn overlay(model: &mut BTreeMap<String, Vec<u8>>, name: &str, offset: u64, content: &[u8]) {
    let file = model.entry(name.to_string()).or_default();
    let at = usize::try_from(offset).expect("small offset");
    let end = at + content.len();
    if file.len() < end {
        file.resize(end, 0);
    }
    file[at..end].copy_from_slice(content);
}

/// Runs the ops. Each op's write is staged; its fsync (if any) commits
/// everything staged for that file since its last fsync.
fn drive(dev: SimBlockDevice, ops: &[Op]) -> DriveEnd {
    let (mut fs, _report) = Ufs::mount(dev).expect("mounts");
    let mut commits = Vec::new();
    // Every file's content with staged writes applied, and what the
    // commits so far made durable.
    let mut staged: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut durable: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for (name, offset, content, sync) in ops {
        let step = (|| -> Result<(), nvmtypes::SimError> {
            let id = match fs.open(name) {
                Ok(id) => id,
                Err(_) => fs.create(name)?,
            };
            fs.write(id, *offset, content)?;
            if *sync {
                fs.fsync(id)?;
            }
            Ok(())
        })();
        match step {
            Ok(()) => {
                overlay(&mut staged, name, *offset, content);
                if *sync {
                    durable.insert(name.clone(), staged[name].clone());
                    let index = fs.device().writes_persisted() - WRITES_AFTER_COMMIT;
                    commits.push((index, durable.clone()));
                }
            }
            Err(e) if e.is_power_loss() => {
                return DriveEnd::Lost(fs.into_device().into_media());
            }
            Err(e) => panic!("unexpected filesystem error: {e}"),
        }
    }
    DriveEnd::Done {
        fs: Box::new(fs),
        commits,
    }
}

/// `true` when the mounted filesystem equals the logical snapshot.
fn state_eq(fs: &mut Ufs<SimBlockDevice>, want: &BTreeMap<String, Vec<u8>>) -> bool {
    let mut names = fs.file_names();
    names.sort();
    if names != want.keys().cloned().collect::<Vec<_>>() {
        return false;
    }
    want.iter().all(|(name, content)| {
        let Ok(id) = fs.open(name) else { return false };
        let mut got = vec![0u8; content.len()];
        fs.size(id) == Ok(content.len() as u64)
            && fs.read(id, 0, &mut got).is_ok()
            && &got == content
    })
}

/// Random ops as `(file, offset, len, fsync)`. Offsets reach past any
/// file's EOF, so the ops append, overwrite below what is staged, and
/// leave holes; several writes may share one fsync.
fn arb_ops() -> impl Strategy<Value = Vec<(u32, u64, usize, bool)>> {
    prop::collection::vec(
        (
            0u32..3,
            prop_oneof![Just(0u64), 0u64..16_000],
            1usize..12_000,
            prop::bool::ANY,
        ),
        1..8,
    )
}

/// Ground truth for a random op sequence: base image, total writes of
/// the clean run, per-commit write indices and snapshots, and the ops.
/// The last op always fsyncs, so the clean run commits at least once.
#[allow(clippy::type_complexity)]
fn ground_truth(
    ops_spec: &[(u32, u64, usize, bool)],
) -> (Vec<u8>, u64, Vec<(u64, BTreeMap<String, Vec<u8>>)>, Vec<Op>) {
    let last = ops_spec.len() - 1;
    let ops: Vec<Op> = ops_spec
        .iter()
        .enumerate()
        .map(|(i, &(f, offset, len, sync))| {
            (
                format!("f{f}"),
                offset,
                op_content(i, len),
                sync || i == last,
            )
        })
        .collect();
    let base = formatted_media();
    let DriveEnd::Done { fs, commits } = drive(
        SimBlockDevice::from_media(base.clone()).expect("aligned"),
        &ops,
    ) else {
        panic!("clean run lost power without a crash hook");
    };
    let total = fs.device().writes_persisted();
    // Without a crash, a remount drops only the unsynced writes.
    let (mut clean, _report) = Ufs::mount(fs.into_device()).expect("mounts");
    let last = &commits.last().expect("the last op fsyncs").1;
    assert!(state_eq(&mut clean, last), "clean remount lost a commit");
    (base, total, commits, ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 4: recovery is idempotent and its report deterministic.
    /// Power loss at an arbitrary write, then: two independent mounts of
    /// the crashed image agree byte-for-byte (media and report), and a
    /// mount of the recovered image replays nothing and writes nothing.
    #[test]
    fn ufs_journal_recovery_is_idempotent_and_deterministic(
        ops_spec in arb_ops(),
        frac in 0.0f64..1.0,
        torn in prop::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let (base, total, _commits, ops) = ground_truth(&ops_spec);
        let k = 1 + ((frac * approx(total)) as u64).min(total - 1);
        let crashed = |s: u64| {
            let dev = SimBlockDevice::from_media(base.clone())
                .expect("aligned")
                .with_crash_point(Some(CrashPoint::at_write(k, torn, s)));
            match drive(dev, &ops) {
                DriveEnd::Lost(media) => media,
                DriveEnd::Done { .. } => panic!("crash at write {k} of {total} never fired"),
            }
        };
        let media = crashed(seed);
        prop_assert_eq!(&media, &crashed(seed), "crash replica is not deterministic");

        // Two independent recoveries of the same image agree exactly.
        let (fs_a, rep_a) = Ufs::mount(SimBlockDevice::from_media(media.clone()).expect("aligned"))
            .expect("recovers");
        let (fs_b, rep_b) = Ufs::mount(SimBlockDevice::from_media(media).expect("aligned"))
            .expect("recovers");
        prop_assert_eq!(rep_a.render(), rep_b.render());
        let once = fs_a.into_device().into_media();
        prop_assert_eq!(&once, &fs_b.into_device().into_media());

        // Recovering the recovered image is a no-op: clean report, no
        // checkpoint, identical media.
        let (fs_c, rep_c) = Ufs::mount(SimBlockDevice::from_media(once.clone()).expect("aligned"))
            .expect("mounts");
        prop_assert!(rep_c.is_clean());
        prop_assert!(!rep_c.checkpoint_written);
        prop_assert_eq!(once, fs_c.into_device().into_media());
    }

    /// Contract 5: crash ∘ recover == committed prefix. After power loss
    /// during write `k`, exactly the transactions whose commit mark
    /// persisted before `k` are visible. (A *torn* crash on the commit
    /// write itself may legally land on either side of the atomicity
    /// boundary: journal records occupy only the head of their sector,
    /// so a tear keeping the record bytes commits the transaction.)
    #[test]
    fn ufs_crash_then_recover_equals_the_committed_prefix(
        ops_spec in arb_ops(),
        frac in 0.0f64..1.0,
        torn in prop::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let (base, total, commits, ops) = ground_truth(&ops_spec);
        let k = 1 + ((frac * approx(total)) as u64).min(total - 1);
        let dev = SimBlockDevice::from_media(base)
            .expect("aligned")
            .with_crash_point(Some(CrashPoint::at_write(k, torn, seed)));
        let DriveEnd::Lost(media) = drive(dev, &ops) else {
            panic!("crash at write {k} of {total} never fired");
        };
        let empty = BTreeMap::new();
        let expected = commits
            .iter()
            .rev()
            .find(|(index, _)| *index < k)
            .map_or(&empty, |(_, state)| state);
        let (mut fs, _report) = Ufs::mount(SimBlockDevice::from_media(media).expect("aligned"))
            .expect("recovers");
        let prefix_ok = state_eq(&mut fs, expected);
        let torn_commit_ok = torn
            && commits
                .iter()
                .find(|(index, _)| *index == k)
                .is_some_and(|(_, state)| state_eq(&mut fs, state));
        prop_assert!(
            prefix_ok || torn_commit_ok,
            "crash at write {} (torn: {}) did not recover to the committed prefix",
            k,
            torn
        );
    }
}

/// `u64 -> f64` without a bare cast (test-local mirror of
/// `nvmtypes::approx_f64`, kept inline for the crash-fraction math).
fn approx(v: u64) -> f64 {
    nvmtypes::approx_f64(v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn zero_fault_plan_is_byte_identical_and_plans_are_deterministic(
        total_mib in 2u64..6,
        trace_seed in 0u64..1_000,
        kind_idx in 0usize..NvmKind::ALL.len(),
        plan_seed in 0u64..1_000,
    ) {
        let kind = NvmKind::ALL[kind_idx];
        let trace = synthetic_ooc_trace(total_mib * MIB, MIB, trace_seed);
        for config in [SystemConfig::ion_gpfs(), SystemConfig::cnl_ufs()] {
            // FaultPlan::none() must not perturb a single byte of the
            // fault-free report — not even via RNG state or reordering.
            let base = ExperimentSpec::new(&config, kind).run(&trace);
            let zero = ExperimentSpec::new(&config, kind).faults(FaultPlan::none()).run(&trace);
            prop_assert_eq!(
                format!("{:?}", base.run),
                format!("{:?}", zero.run),
                "{}: zero-fault run diverged from the fault-free driver",
                config.label
            );
            // Any plan is a pure function of (config, trace, seed).
            let plan = FaultPlan::heavy(plan_seed);
            let a = ExperimentSpec::new(&config, kind).faults(plan).run(&trace);
            let b = ExperimentSpec::new(&config, kind).faults(plan).run(&trace);
            prop_assert_eq!(format!("{:?}", a.run), format!("{:?}", b.run));
        }
    }
}
