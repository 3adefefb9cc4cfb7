//! Property tests on the media engine's scheduling invariants.

use flashsim::{DieOp, MediaConfig, MediaSim, OpKind};
use nvmtypes::{BusTiming, DieIndex, MediaTiming, NvmKind, SsdGeometry};
use proptest::prelude::*;

fn sdr400() -> BusTiming {
    BusTiming {
        name: "ONFi3-SDR-400",
        bytes_per_ns: 0.4,
    }
}

fn arb_op(dies: u32, planes: u32) -> impl Strategy<Value = DieOp> {
    (
        0..dies,
        1..=planes,
        1u64..64,
        0u64..1000,
        prop_oneof![Just(OpKind::Read), Just(OpKind::Write), Just(OpKind::Erase)],
    )
        .prop_map(|(die, planes, pages, start, kind)| DieOp {
            die: DieIndex(die),
            planes,
            pages,
            start_page: start,
            kind,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Covers `cache_registers = false` only, where a die's ops never
    /// overlap; `cache_register_starts_strictly_increase_per_die` covers
    /// the overlapping case.
    #[test]
    fn schedules_are_causal_and_accounted(
        ops in prop::collection::vec((0u64..1_000_000, arb_op(8, 2)), 1..60),
        kind in prop_oneof![
            Just(NvmKind::Slc), Just(NvmKind::Mlc), Just(NvmKind::Tlc), Just(NvmKind::Pcm)
        ],
    ) {
        let cfg = MediaConfig::tiny(kind, sdr400());
        let mut sim = MediaSim::new(cfg);
        let mut per_die_last_end = vec![0u64; cfg.geometry.total_dies() as usize];
        let mut max_end = 0;
        for (arrival, op) in &ops {
            let out = sim.execute(*arrival, op);
            // Causality: never starts before arrival, never ends before start.
            prop_assert!(out.start >= *arrival);
            prop_assert!(out.end > out.start);
            // Per-die serialisation: the die never overlaps itself.
            let d = op.die.0 as usize;
            prop_assert!(out.start >= per_die_last_end[d]);
            per_die_last_end[d] = out.end;
            max_end = max_end.max(out.end);
        }
        let st = sim.stats();
        prop_assert_eq!(st.ops, ops.len() as u64);
        // Byte accounting matches the ops executed.
        let want_read: u64 = ops
            .iter()
            .filter(|(_, o)| o.kind == OpKind::Read)
            .map(|(_, o)| o.pages * cfg.timing.page_size as u64)
            .sum();
        prop_assert_eq!(st.bytes_read, want_read);
        // Die busy time is consistent between counters and spans, and
        // every span ends within the run.
        let by_spans: u64 = st.die_spans.iter().flatten().map(|&(s, e)| e - s).sum();
        let by_counters: u64 = st.die_busy.iter().sum();
        prop_assert_eq!(by_spans, by_counters);
        prop_assert_eq!(st.busy_total, by_counters);
        prop_assert!(st.die_spans.iter().flatten().all(|&(_, e)| e <= max_end));
        // Finalised report invariants.
        let rep = st.finalize(&cfg, max_end, 0);
        prop_assert!(rep.active_span <= max_end);
        prop_assert!((0.0..=1.0).contains(&rep.channel_util));
        prop_assert!((0.0..=1.0).contains(&rep.package_util));
        prop_assert!((0.0..=1.0).contains(&rep.cell_util));
        prop_assert!(rep.remaining_mb_s >= 0.0);
    }

    /// With cache registers a die re-arms before its transfer drains, so
    /// its ops may overlap. Starts must still strictly increase per die
    /// (the invariant the coalesced spans rest on), the spans stay
    /// sorted and disjoint, and their union never exceeds the busy sum.
    #[test]
    fn cache_register_starts_strictly_increase_per_die(
        ops in prop::collection::vec((0u64..1_000_000, arb_op(8, 2)), 1..60),
        kind in prop_oneof![
            Just(NvmKind::Slc), Just(NvmKind::Mlc), Just(NvmKind::Tlc), Just(NvmKind::Pcm)
        ],
    ) {
        let mut cfg = MediaConfig::tiny(kind, sdr400());
        cfg.cache_registers = true;
        let mut sim = MediaSim::new(cfg);
        let mut per_die_last_start: Vec<Option<u64>> =
            vec![None; cfg.geometry.total_dies() as usize];
        for (arrival, op) in &ops {
            let out = sim.execute(*arrival, op);
            let d = op.die.0 as usize;
            if let Some(prev) = per_die_last_start[d] {
                prop_assert!(out.start > prev, "die {} start {} not after {}", d, out.start, prev);
            }
            per_die_last_start[d] = Some(out.start);
        }
        let st = sim.stats();
        for (die, spans) in st.die_spans.iter().enumerate() {
            prop_assert!(spans.iter().all(|&(s, e)| s < e));
            prop_assert!(spans.windows(2).all(|w| w[0].1 < w[1].0));
            let union: u64 = spans.iter().map(|&(s, e)| e - s).sum();
            prop_assert!(union <= st.die_busy[die]);
        }
    }

    #[test]
    fn cell_time_is_monotone_in_pages(
        pages_a in 1u64..200,
        extra in 1u64..100,
        planes in 1u32..=2,
    ) {
        let t = MediaTiming::table1(NvmKind::Tlc);
        let a = DieOp::read(DieIndex(0), planes, pages_a, 0).cell_time(&t);
        let b = DieOp::read(DieIndex(0), planes, pages_a + extra, 0).cell_time(&t);
        prop_assert!(b >= a);
    }

    #[test]
    fn multiplane_never_slows_a_read(pages in 1u64..200) {
        let t = MediaTiming::table1(NvmKind::Mlc);
        let one = DieOp::read(DieIndex(0), 1, pages, 0).cell_time(&t);
        let two = DieOp::read(DieIndex(0), 2, pages, 0).cell_time(&t);
        prop_assert!(two <= one);
    }

    #[test]
    fn geometry_capacity_identities(
        channels in 1u32..8,
        pkgs in 1u32..8,
        dies in 1u32..4,
        planes in 1u32..4,
    ) {
        let g = SsdGeometry {
            channels,
            packages_per_channel: pkgs,
            dies_per_package: dies,
            planes_per_die: planes,
            blocks_per_plane: 16,
            pages_per_block: 8,
        };
        prop_assert_eq!(g.total_dies(), channels * pkgs * dies);
        prop_assert_eq!(g.total_plane_slots(), (channels * pkgs * dies * planes) as u64);
        prop_assert_eq!(g.total_pages(), g.total_dies() as u64 * g.pages_per_die());
    }
}
