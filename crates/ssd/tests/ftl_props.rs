//! Property tests on the FTL's allocator, garbage collector and the
//! stripe map.

use nvmtypes::convert::{u32_from, u64_from_usize, usize_from_u32};
use nvmtypes::{DieIndex, NvmKind, SsdGeometry};
use proptest::prelude::*;
use ssd::mapping::{DecomposeScratch, DieRun, Dim, StripeMap};
use ssd::{FtlMode, SsdConfig};

/// The `perm`-th (mod 24) of the 24 orders of the four dimensions, by a
/// Lehmer decode.
fn order_of(perm: usize) -> [Dim; 4] {
    let dims = [Dim::Channel, Dim::Package, Dim::Die, Dim::Plane];
    let mut order = dims;
    let mut pool: Vec<Dim> = dims.to_vec();
    let mut p = perm;
    for slot in &mut order {
        let idx = p % pool.len();
        p /= pool.len().max(1);
        *slot = pool.remove(idx);
    }
    order
}

/// A geometry with the given parallelism and a token block layout (the
/// stripe map never reads the block dimensions).
fn odd_geometry(channels: u32, packages: u32, dies: u32, planes: u32) -> SsdGeometry {
    SsdGeometry {
        channels,
        packages_per_channel: packages,
        dies_per_package: dies,
        planes_per_die: planes,
        blocks_per_plane: 16,
        pages_per_block: 8,
    }
}

/// The geometries the stripe-walk oracle runs over: the unit-test device,
/// the paper's device for every medium, and odd sizes, including
/// dimensions of size 1 whose digit never steps.
fn walk_geometries() -> Vec<SsdGeometry> {
    let mut geometries = vec![SsdGeometry::tiny()];
    for kind in [NvmKind::Slc, NvmKind::Mlc, NvmKind::Tlc, NvmKind::Pcm] {
        geometries.push(SsdGeometry::paper(kind));
    }
    geometries.extend([
        odd_geometry(3, 5, 3, 1),
        odd_geometry(1, 1, 1, 1),
        odd_geometry(5, 1, 2, 4),
        odd_geometry(7, 3, 1, 3),
        odd_geometry(1, 4, 3, 2),
        odd_geometry(2, 1, 5, 1),
    ]);
    geometries
}

/// Reference decomposition: the per-page loop that `decompose_into`
/// replaced, kept verbatim apart from its own accumulators. Every page
/// of the partial stripe is placed by `locate`.
fn reference_decompose(map: &StripeMap, start_lpn: u64, count: u64) -> Vec<DieRun> {
    let n_dies = usize_from_u32(map.geometry().total_dies());
    let mut pages = vec![0u64; n_dies];
    let mut plane_mask = vec![0u32; n_dies];
    let mut runs = Vec::new();
    if count == 0 {
        return runs;
    }
    let w = map.stripe_width();
    let full_rows = count / w;
    let rem = count % w;
    let planes_per_die = map.geometry().planes_per_die;

    if full_rows > 0 {
        for d in 0..n_dies {
            pages[d] += full_rows * u64::from(planes_per_die);
            plane_mask[d] |= (1u32 << planes_per_die) - 1;
        }
    }
    for i in 0..rem {
        let pos = (start_lpn + full_rows * w + i) % w;
        let (die, plane) = map.locate(pos);
        pages[usize_from_u32(die.0)] += 1;
        plane_mask[usize_from_u32(die.0)] |= 1 << plane;
    }

    let start_row = start_lpn / w;
    for d in 0..n_dies {
        if pages[d] > 0 {
            runs.push(DieRun {
                die: DieIndex(u32_from(u64_from_usize(d))),
                planes: plane_mask[d].count_ones().max(1),
                pages: pages[d],
                start_row,
            });
        }
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stripe_walk_matches_the_per_page_locate_loop(
        perm in 0usize..24,
        geometry in 0usize..11,
        calls in prop::collection::vec((0u64..(1 << 40), 0u64..(1 << 20)), 1..8),
    ) {
        // One scratch carries a sequence of differently shaped calls, so
        // state left by one walk must not leak into the next.
        let map = StripeMap::new(walk_geometries()[geometry], order_of(perm));
        let w = map.stripe_width();
        let mut scratch = DecomposeScratch::new();
        for (start, c) in calls {
            // From empty to past three whole stripes.
            let count = c % (3 * w + w / 2 + 2);
            map.decompose_into(start, count, &mut scratch);
            prop_assert_eq!(
                &scratch.runs,
                &reference_decompose(&map, start, count),
                "order {:?}, start {}, count {}",
                order_of(perm),
                start,
                count
            );
        }
    }
}

/// Deterministic boundary cases through one reused scratch, on every
/// walk geometry and stripe order. First, counts of exactly `k` whole
/// stripes (`k·w`, k = 1..=3), which the random draws above pair with a
/// nonzero start only rarely, starting at, just after, just before and
/// far past a stripe boundary. Then three rounds that alternate whole
/// stripes plus a remainder walk, a single page, and walks that straddle
/// a stripe boundary, two pages long and a third of a stripe long. Each
/// single page lands on slot 0, which both straddling walks cross and
/// the whole stripes cover, so a die that one call left credited shows
/// up wrong in the next.
#[test]
fn stripe_walk_matches_at_and_across_stripe_boundaries() {
    for geometry in walk_geometries() {
        for perm in 0..24 {
            let map = StripeMap::new(geometry, order_of(perm));
            let w = map.stripe_width();
            let multiples = (1..=3).flat_map(|k| {
                [0, 1, w / 2 + 1, w - 1, w + 1, (1 << 40) - 3].map(move |start| (start, k * w))
            });
            let alternations = (0..3).flat_map(|round| {
                let row = 7 * round + 1;
                [
                    (row * w + round, (round + 1) * w + round),
                    (row * w, 1),
                    ((row + 1) * w - 1, 2),
                    ((row + 2) * w - 1, 2 + w / 3),
                    ((row + 3) * w, 1),
                ]
            });
            let mut scratch = DecomposeScratch::new();
            for (start, count) in multiples.chain(alternations) {
                map.decompose_into(start, count, &mut scratch);
                assert_eq!(
                    scratch.runs,
                    reference_decompose(&map, start, count),
                    "geometry {geometry:?}, order {:?}, start {start}, count {count}",
                    order_of(perm)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stripe_orders_all_conserve_pages(
        perm in 0usize..24,
        start in 0u64..10_000,
        count in 1u64..2_000,
    ) {
        let order = order_of(perm);
        let map = StripeMap::new(SsdGeometry::tiny(), order);
        let runs = map.decompose(start, count);
        let total: u64 = runs.iter().map(|r| r.pages).sum();
        prop_assert_eq!(total, count);
        // Every slot of a full stripe is hit exactly once.
        let full = map.decompose(0, map.stripe_width());
        let g = *map.geometry();
        prop_assert_eq!(u64_from_usize(full.len()), u64::from(g.total_dies()));
    }

    #[test]
    fn ftl_write_placements_never_alias_within_a_row(
        writes in prop::collection::vec((0u64..512, 1u64..16), 1..40),
    ) {
        use ssd::ftl::Ftl;
        let mut ftl = Ftl::new(
            FtlMode::traditional_default(),
            SsdGeometry::tiny(),
            0,
        )
        .with_page_size(8192);
        let mut placements: Vec<(u64, u64)> = Vec::new();
        for &(lpn, pages) in &writes {
            let p = ftl.translate_write(lpn, pages);
            placements.push((p.start_lpn, pages));
        }
        // Log allocation: physical placements advance monotonically until
        // the log wraps, and never overlap each other.
        for w in placements.windows(2) {
            let (a_start, a_pages) = w[0];
            let (b_start, _) = w[1];
            if b_start > a_start {
                // Bytes -> 4 KiB units -> pages; end in page space.
                let a_units = (a_pages * 8192).div_ceil(4096);
                let a_end = a_start + a_units * 4096 / 8192;
                prop_assert!(b_start >= a_end, "overlap: {:?} then {:?}", w[0], w[1]);
            }
            // Otherwise the log wrapped, which is fine.
        }
        // WAF is always >= 1 and finite.
        let waf = ftl.wear().waf();
        prop_assert!(waf >= 1.0 && waf.is_finite());
    }
}

#[test]
fn ssd_config_builders_are_idempotent() {
    use flashsim::MediaConfig;
    use interconnect::{pcie, LinkChain, PcieGen};
    use nvmtypes::BusTiming;
    let media = MediaConfig::tiny(
        NvmKind::Slc,
        BusTiming {
            name: "t",
            bytes_per_ns: 0.4,
        },
    );
    let cfg = SsdConfig::new(media, LinkChain::single(pcie(PcieGen::Gen3, 8)))
        .with_ufs()
        .with_ufs()
        .without_paq()
        .without_paq();
    assert!(matches!(cfg.ftl, FtlMode::Ufs { .. }));
    assert!(!cfg.paq);
}
