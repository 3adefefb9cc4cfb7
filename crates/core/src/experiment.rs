//! The experiment driver: configuration × medium × workload → report.

use crate::config::SystemConfig;
use nvmtypes::{FaultPlan, NvmKind};
use oocfs::FsKind;
use ooctrace::{BlockTrace, PosixTrace};
use rayon::prelude::*;
use ssd::RunReport;

/// Result of running one workload on one configuration with one medium.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Configuration label (Figure x-axis).
    pub label: &'static str,
    /// NVM medium.
    pub kind: NvmKind,
    /// End-to-end bandwidth, MB/s (Figures 7a/8a).
    pub bandwidth_mb_s: f64,
    /// Bandwidth remaining in the media, MB/s (Figures 7b/8b).
    pub remaining_mb_s: f64,
    /// Channel-level utilization, `[0, 1]` (Figure 9a).
    pub channel_util: f64,
    /// Package-level utilization, `[0, 1]` (Figure 9b).
    pub package_util: f64,
    /// Execution-state breakdown percentages in Figure-10 legend order.
    pub breakdown_pct: [f64; 6],
    /// PAL1..PAL4 percentages (Figures 10b/10d).
    pub pal_pct: [f64; 4],
    /// Full device report for deeper digging.
    pub run: RunReport,
}

/// One experiment, fully specified: a system configuration, an NVM
/// medium, an optional fault plan, and an optional tracer.
///
/// This is the single entry point for a run, traced or not, with or
/// without faults:
///
/// ```
/// use oocnvm_core::config::SystemConfig;
/// use oocnvm_core::experiment::ExperimentSpec;
/// use oocnvm_core::workload::synthetic_ooc_trace;
/// use nvmtypes::{FaultPlan, NvmKind, MIB};
///
/// let trace = synthetic_ooc_trace(8 * MIB, MIB, 3);
/// let mut obs = simobs::Tracer::off();
/// let report = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc)
///     .faults(FaultPlan::light(42))
///     .tracer(&mut obs)
///     .run(&trace);
/// assert!(report.bandwidth_mb_s > 0.0);
/// ```
///
/// A run has two stages: the file-system stage turns the POSIX trace
/// into a block trace (it reads neither the medium nor the fault plan),
/// and the device stage replays that block trace on the configured
/// medium. [`run_batch`] uses the split to transform each distinct
/// file-system stage once for all the specs that share it.
///
/// Everything but the configuration and medium is optional: without
/// [`ExperimentSpec::faults`] the plan is [`nvmtypes::FaultPlan::none`]
/// (byte-identical to the fault-free driver), without
/// [`ExperimentSpec::tracer`] the run is untraced (byte-identical to a
/// traced run — the tracer only observes).
#[derive(Debug)]
pub struct ExperimentSpec<'t> {
    pub(crate) config: SystemConfig,
    pub(crate) kind: NvmKind,
    pub(crate) plan: nvmtypes::FaultPlan,
    pub(crate) tracer: Option<&'t mut simobs::Tracer>,
    pub(crate) journaled_ufs: bool,
}

impl ExperimentSpec<'static> {
    /// A fault-free, untraced experiment on `config` with `kind` media.
    pub fn new(config: &SystemConfig, kind: NvmKind) -> ExperimentSpec<'static> {
        ExperimentSpec {
            config: *config,
            kind,
            plan: nvmtypes::FaultPlan::none(),
            tracer: None,
            journaled_ufs: false,
        }
    }
}

impl<'t> ExperimentSpec<'t> {
    /// Injects deterministic faults from `plan`.
    #[must_use]
    pub fn faults(mut self, plan: nvmtypes::FaultPlan) -> ExperimentSpec<'t> {
        self.plan = plan;
        self
    }

    /// Routes the POSIX trace through the *real* journaled UFS
    /// ([`ufs::JournaledUfs`]) instead of the configuration's
    /// parameterised file-system model: the block trace the device then
    /// replays is what an actual mounted filesystem issued — journal
    /// commits, in-place applies and copy-on-write data placement
    /// included. Off by default; the legacy model path is untouched and
    /// byte-identical with the flag off.
    #[must_use]
    pub fn journaled_ufs(mut self, on: bool) -> ExperimentSpec<'t> {
        self.journaled_ufs = on;
        self
    }

    /// Attaches a tracer; every layer reports spans/metrics through it.
    /// Tracing is observation-only — the report stays byte-identical.
    ///
    /// A traced spec borrows the tracer mutably and therefore cannot
    /// enter [`run_batch`] (whose specs must be `'static`): parallel
    /// workers share nothing, so tracing stays single-threaded by
    /// construction.
    #[must_use]
    pub fn tracer<'u>(self, obs: &'u mut simobs::Tracer) -> ExperimentSpec<'u> {
        ExperimentSpec {
            config: self.config,
            kind: self.kind,
            plan: self.plan,
            tracer: Some(obs),
            journaled_ufs: self.journaled_ufs,
        }
    }

    /// Runs the experiment against the application's POSIX trace: mutates
    /// the trace through its file-system stage, then replays the block
    /// trace on the configured device.
    pub fn run(self, posix: &PosixTrace) -> ExperimentReport {
        let mut off = simobs::Tracer::off();
        let obs = match self.tracer {
            Some(t) => t,
            None => &mut off,
        };
        let stage = FsStage::of(&self.config, self.journaled_ufs);
        let block = stage.transform(posix, obs);
        device_run(&self.config, self.kind, self.plan, &block, obs)
    }
}

/// The file-system stage of an experiment: the transform from the POSIX
/// trace to the block trace the device replays. It depends only on the
/// configuration's file system and the journaled-UFS switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FsStage {
    /// The real journaled UFS ([`ufs::JournaledUfs`]).
    Journaled,
    /// A parameterised file-system model.
    Model(FsKind),
}

impl FsStage {
    /// The stage `config` runs, through the real journaled UFS when
    /// `journaled` is set.
    pub(crate) fn of(config: &SystemConfig, journaled: bool) -> FsStage {
        if journaled {
            FsStage::Journaled
        } else {
            FsStage::Model(config.fs)
        }
    }

    /// Transforms `posix` into the block trace this stage emits.
    pub(crate) fn transform(self, posix: &PosixTrace, obs: &mut simobs::Tracer) -> BlockTrace {
        match self {
            FsStage::Journaled => oocfs::FileSystemModel::transform_observed(
                &ufs::JournaledUfs::default(),
                posix,
                obs,
            ),
            FsStage::Model(fs) => fs.transform_observed(posix, obs),
        }
    }
}

/// The device stage of an experiment: replays `block` on `config`'s
/// device with `kind` media and `plan`'s faults.
fn device_run(
    config: &SystemConfig,
    kind: NvmKind,
    plan: FaultPlan,
    block: &BlockTrace,
    obs: &mut simobs::Tracer,
) -> ExperimentReport {
    let device = config.device_with_faults(kind, plan);
    let run = device.run_observed(block, obs);
    report_from_run(config.label, kind, run)
}

/// Wraps a device-level [`RunReport`] into the figure-facing
/// [`ExperimentReport`] rollup — the one place the projection is
/// defined, shared by the single-job path above and the multi-tenant
/// fleet report in [`crate::tenancy`].
pub(crate) fn report_from_run(
    label: &'static str,
    kind: NvmKind,
    run: RunReport,
) -> ExperimentReport {
    ExperimentReport {
        label,
        kind,
        bandwidth_mb_s: run.bandwidth_mb_s,
        remaining_mb_s: run.media.remaining_mb_s,
        channel_util: run.media.channel_util,
        package_util: run.media.package_util,
        breakdown_pct: run.media.breakdown.percent(),
        pal_pct: run.pal.percent(),
        run,
    }
}

/// Runs a batch of experiment specs against one POSIX trace on the
/// thread pool, returning reports in the specs' input order. Each report
/// equals the spec's own [`ExperimentSpec::run`].
///
/// The batch runs two parallel regions. The first transforms each
/// distinct file-system stage once, however many specs share it (a
/// sweep over media replays one block trace per file system). The
/// second runs every spec's device on its stage's block trace. Both are
/// byte-identical at any thread count because every transform and every
/// device run is an independent pure function of its inputs.
///
/// Specs must be `'static` (untraced): a tracer is a single mutable
/// observation stream and cannot be shared across workers.
pub fn run_batch(specs: Vec<ExperimentSpec<'static>>, posix: &PosixTrace) -> Vec<ExperimentReport> {
    // Distinct stages in first-use order; each device job indexes its own.
    let mut stages: Vec<FsStage> = Vec::new();
    let jobs: Vec<(usize, SystemConfig, NvmKind, FaultPlan)> = specs
        .into_iter()
        .map(|s| {
            let stage = FsStage::of(&s.config, s.journaled_ufs);
            let at = stages.iter().position(|&t| t == stage).unwrap_or_else(|| {
                stages.push(stage);
                stages.len() - 1
            });
            (at, s.config, s.kind, s.plan)
        })
        .collect();
    let blocks: Vec<BlockTrace> = stages
        .into_par_iter()
        .map(|stage| stage.transform(posix, &mut simobs::Tracer::off()))
        .collect();
    jobs.into_par_iter()
        .map(|(at, config, kind, plan)| {
            device_run(&config, kind, plan, &blocks[at], &mut simobs::Tracer::off())
        })
        .collect()
}

/// Looks a report up by label and medium.
pub fn find<'a>(
    reports: &'a [ExperimentReport],
    label: &str,
    kind: NvmKind,
) -> Option<&'a ExperimentReport> {
    reports.iter().find(|r| r.label == label && r.kind == kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::synthetic_ooc_trace;
    use nvmtypes::MIB;

    #[test]
    fn single_experiment_produces_sane_numbers() {
        let trace = synthetic_ooc_trace(16 * MIB, 2 * MIB, 3);
        let rep = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc).run(&trace);
        assert!(rep.bandwidth_mb_s > 100.0);
        assert!(rep.channel_util > 0.0 && rep.channel_util <= 1.0);
        assert!((rep.breakdown_pct.iter().sum::<f64>() - 100.0).abs() < 1e-6);
        assert!((rep.pal_pct.iter().sum::<f64>() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn sweep_covers_all_pairs_in_order() {
        let trace = synthetic_ooc_trace(8 * MIB, MIB, 3);
        let configs = [SystemConfig::cnl_ufs(), SystemConfig::cnl_native16()];
        let kinds = [NvmKind::Slc, NvmKind::Pcm];
        let specs = configs
            .iter()
            .flat_map(|c| kinds.iter().map(|&k| ExperimentSpec::new(c, k)))
            .collect();
        let reports = run_batch(specs, &trace);
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].label, "CNL-UFS");
        assert_eq!(reports[0].kind, NvmKind::Slc);
        assert_eq!(reports[3].label, "CNL-NATIVE-16");
        assert_eq!(reports[3].kind, NvmKind::Pcm);
        assert!(find(&reports, "CNL-UFS", NvmKind::Pcm).is_some());
        assert!(find(&reports, "missing", NvmKind::Pcm).is_none());
    }

    #[test]
    fn journaled_ufs_flag_off_is_byte_identical_to_legacy() {
        let trace = synthetic_ooc_trace(8 * MIB, MIB, 3);
        let legacy = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc).run(&trace);
        let off = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc)
            .journaled_ufs(false)
            .run(&trace);
        assert_eq!(
            legacy.bandwidth_mb_s.to_bits(),
            off.bandwidth_mb_s.to_bits()
        );
        assert_eq!(
            legacy.remaining_mb_s.to_bits(),
            off.remaining_mb_s.to_bits()
        );
        assert_eq!(legacy.run.total_bytes, off.run.total_bytes);
    }

    #[test]
    fn journaled_ufs_flag_replays_through_the_real_filesystem() {
        let trace = synthetic_ooc_trace(8 * MIB, MIB, 2);
        let on = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc)
            .journaled_ufs(true)
            .run(&trace);
        let off = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc).run(&trace);
        assert!(on.bandwidth_mb_s > 0.0);
        // The journaled path moves more bytes than the model: journal
        // records, the commit mark, applies and checkpoints ride along.
        assert!(
            on.run.total_bytes > off.run.total_bytes,
            "journaled {} vs model {}",
            on.run.total_bytes,
            off.run.total_bytes
        );
        // Deterministic: re-running the flagged spec reproduces the report.
        let again = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc)
            .journaled_ufs(true)
            .run(&trace);
        assert_eq!(on.bandwidth_mb_s.to_bits(), again.bandwidth_mb_s.to_bits());
    }

    #[test]
    fn cnl_beats_ion_on_the_same_workload() {
        // The paper's headline direction, at reduced scale.
        let trace = synthetic_ooc_trace(24 * MIB, 2 * MIB, 9);
        let ion = ExperimentSpec::new(&SystemConfig::ion_gpfs(), NvmKind::Slc).run(&trace);
        let cnl = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Slc).run(&trace);
        assert!(
            cnl.bandwidth_mb_s > ion.bandwidth_mb_s,
            "cnl {} vs ion {}",
            cnl.bandwidth_mb_s,
            ion.bandwidth_mb_s
        );
    }
}
