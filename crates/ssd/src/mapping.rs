//! Physical striping layout and request decomposition.
//!
//! Consecutive logical pages are spread across the device's parallelism
//! dimensions in a configurable order. One *stripe* covers every
//! `(channel, package, die, plane)` slot exactly once; logical page `lpn`
//! occupies slot `lpn % stripe_width` of row `lpn / stripe_width`.
//!
//! The default order — channel first, then plane, then die, then package —
//! is the page-allocation strategy that makes small requests stripe over
//! channels (PAL1), medium requests engage multi-plane mode (PAL3), and
//! only large requests reach die interleaving (PAL4), which is exactly the
//! progression the paper observes between striped parallel-file-system
//! traffic and large UFS transactions (§4.5).
//!
//! A stripe position is a mixed-radix number whose four digits are the
//! slot's indices along `order` (fastest first). [`StripeMap::locate`]
//! splits a position into those digits and places them; that placement is
//! the one definition of the layout. Both the flat die index
//! ([`DieIndex::from_parts`]) and the plane are linear in the digits, so
//! [`StripeMap::decompose_into`] walks a run of consecutive positions as a
//! counter: it locates the first slot once, then each step adds one
//! digit's stride and each carry takes back what that digit had added.
//! A request costs a fixed handful of divisions, the pages it walks and
//! the dies it touches: a 4 KiB request visits one or two of the
//! device's dies, not all of them. Only a request of at least one whole
//! stripe, which credits every die, scans them all.

use nvmtypes::convert::{u32_from, u64_from_usize, usize_from_u32};
use nvmtypes::{DieIndex, SsdGeometry};

/// A parallelism dimension of the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dim {
    /// Channel (shared bus) index.
    Channel,
    /// Package within a channel.
    Package,
    /// Die within a package.
    Die,
    /// Plane within a die.
    Plane,
}

/// The default allocation order: stripe channels fastest, then planes,
/// then dies, then packages.
pub const DEFAULT_ORDER: [Dim; 4] = [Dim::Channel, Dim::Plane, Dim::Die, Dim::Package];

/// The work a single die receives from one host request: `pages` pages
/// engaging `planes` distinct planes, starting around plane-row
/// `start_row`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DieRun {
    /// Target die.
    pub die: DieIndex,
    /// Distinct planes engaged (1..=planes_per_die).
    pub planes: u32,
    /// Pages moved on this die.
    pub pages: u64,
    /// Representative page index within the plane (drives program-latency
    /// classes and PCM read jitter).
    pub start_row: u64,
}

/// Reusable working memory for [`StripeMap::decompose_into`]: per-die
/// accumulators plus the output run list, sized once and reused across
/// every request of a run so the per-event service loop allocates
/// nothing.
///
/// Between calls `pages`, `plane_mask` and `touched` are all zero: each
/// call re-zeroes the dies it credited as it emits them, so the next one
/// starts clean without clearing every die.
#[derive(Debug, Default, Clone)]
pub struct DecomposeScratch {
    /// Pages accumulated per die (dense, indexed by flat die index).
    pages: Vec<u64>,
    /// Distinct-plane bitmask per die.
    plane_mask: Vec<u32>,
    /// During a call, bit `d % 64` of word `d / 64` is set once the
    /// walk has credited die `d`.
    touched: Vec<u64>,
    /// The decomposed runs — the output of the last `decompose_into`.
    pub runs: Vec<DieRun>,
}

impl DecomposeScratch {
    /// Fresh, empty scratch; buffers grow on first use and stay.
    pub fn new() -> DecomposeScratch {
        DecomposeScratch::default()
    }

    /// Readies the scratch for a device of `n_dies` dies. The
    /// accumulators are already zero, so they are resized (and zeroed)
    /// only when the die count changes.
    fn prepare(&mut self, n_dies: usize) {
        if self.pages.len() != n_dies {
            self.pages.clear();
            self.pages.resize(n_dies, 0);
            self.plane_mask.clear();
            self.plane_mask.resize(n_dies, 0);
            self.touched.clear();
            self.touched.resize(n_dies.div_ceil(64), 0);
        }
        self.runs.clear();
    }
}

/// Die `d`'s run from its accumulators, which are left zero.
fn take_run(d: usize, pages: &mut u64, plane_mask: &mut u32, start_row: u64) -> DieRun {
    DieRun {
        die: DieIndex(u32_from(u64_from_usize(d))),
        planes: std::mem::take(plane_mask).count_ones().max(1),
        pages: std::mem::take(pages),
        start_row,
    }
}

/// Deterministic logical-page → physical-slot mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StripeMap {
    geometry: SsdGeometry,
    order: [Dim; 4],
    sizes: [u64; 4],
    /// Change of the flat die index when digit `i` of a stripe position
    /// steps up by one (0 for a dimension of size 1, whose digit never
    /// steps).
    die_stride: [u32; 4],
    /// Change of the plane index when digit `i` steps up by one.
    plane_stride: [u32; 4],
}

impl StripeMap {
    /// Builds a map for `geometry` striping in `order` (fastest-varying
    /// dimension first).
    ///
    /// # Panics
    /// Panics if `order` repeats a dimension.
    pub fn new(geometry: SsdGeometry, order: [Dim; 4]) -> StripeMap {
        let mut seen = [false; 4];
        for d in order {
            let i = match d {
                Dim::Channel => 0,
                Dim::Package => 1,
                Dim::Die => 2,
                Dim::Plane => 3,
            };
            assert!(!seen[i], "stripe order repeats {:?}", d);
            seen[i] = true;
        }
        let size_of = |d: Dim| -> u64 {
            match d {
                Dim::Channel => u64::from(geometry.channels),
                Dim::Package => u64::from(geometry.packages_per_channel),
                Dim::Die => u64::from(geometry.dies_per_package),
                Dim::Plane => u64::from(geometry.planes_per_die),
            }
        };
        let mut map = StripeMap {
            geometry,
            order,
            sizes: order.map(size_of),
            die_stride: [0; 4],
            plane_stride: [0; 4],
        };
        // Placement is linear in the digits and puts all-zero digits at
        // die 0, plane 0, so digit `i`'s stride is the slot whose digits
        // are all 0 but digit `i`, which is 1.
        for i in 0..4 {
            if map.sizes[i] > 1 {
                let mut unit = [0; 4];
                unit[i] = 1;
                let (die, plane) = map.place(unit);
                map.die_stride[i] = die.0;
                map.plane_stride[i] = plane;
            }
        }
        map
    }

    /// Map with the default order.
    pub fn default_order(geometry: SsdGeometry) -> StripeMap {
        StripeMap::new(geometry, DEFAULT_ORDER)
    }

    /// The device geometry.
    pub fn geometry(&self) -> &SsdGeometry {
        &self.geometry
    }

    /// Number of `(channel, package, die, plane)` slots in one stripe.
    pub fn stripe_width(&self) -> u64 {
        self.sizes.iter().product()
    }

    /// Physical slot of stripe position `pos` (`0 <= pos < stripe_width`):
    /// returns the die and the plane within it.
    pub fn locate(&self, pos: u64) -> (DieIndex, u32) {
        self.place(self.digits(pos))
    }

    /// Mixed-radix digits of stripe position `pos`, fastest dimension of
    /// `order` first.
    fn digits(&self, pos: u64) -> [u64; 4] {
        debug_assert!(pos < self.stripe_width());
        let mut rem = pos;
        let mut digits = [0; 4];
        for (digit, size) in digits.iter_mut().zip(self.sizes) {
            *digit = rem % size;
            rem /= size;
        }
        digits
    }

    /// The die and plane of the slot whose digits along `order` are
    /// `digits`: the one definition of the layout.
    fn place(&self, digits: [u64; 4]) -> (DieIndex, u32) {
        let (mut ch, mut pkg, mut die, mut plane) = (0u64, 0u64, 0u64, 0u64);
        for (d, idx) in self.order.iter().zip(digits) {
            match d {
                Dim::Channel => ch = idx,
                Dim::Package => pkg = idx,
                Dim::Die => die = idx,
                Dim::Plane => plane = idx,
            }
        }
        (
            DieIndex::from_parts(&self.geometry, u32_from(ch), u32_from(pkg), u32_from(die)),
            u32_from(plane),
        )
    }

    /// Decomposes the contiguous logical page run `[start_lpn,
    /// start_lpn + count)` into per-die work. Runs are returned in
    /// ascending die order; each die's `planes` is the number of distinct
    /// planes its pages land on.
    ///
    /// Convenience wrapper that allocates; the per-event service loop
    /// uses [`StripeMap::decompose_into`] with a hoisted
    /// [`DecomposeScratch`] instead.
    pub fn decompose(&self, start_lpn: u64, count: u64) -> Vec<DieRun> {
        let mut scratch = DecomposeScratch::new();
        self.decompose_into(start_lpn, count, &mut scratch);
        scratch.runs
    }

    /// Allocation-free decomposition: accumulates into `scratch` and
    /// leaves the result in `scratch.runs` (cleared first). Buffers are
    /// resized to the die count once and reused thereafter.
    ///
    /// Whole stripes credit every die at once. The pages left over, fewer
    /// than one stripe, are walked slot by slot from the first one's
    /// position as a mixed-radix counter over `order` (see the module
    /// docs): a step moves the die and plane by the fastest digit's
    /// stride, and a digit that wraps to 0 carries into the next one. A
    /// walk past the last slot of the stripe wraps to slot 0, exactly as
    /// `(start_lpn + i) % stripe_width` would.
    ///
    /// Cost: the pages walked plus the dies touched. A request of at
    /// least one whole stripe stays dense: it credits, emits and re-zeroes
    /// every die. The walk marks each die it credits in the `touched`
    /// bitset, so a request shorter than a stripe emits and re-zeroes
    /// only those dies, in ascending order, by scanning the set bits (one
    /// word per 64 dies). Either way the scratch's `pages`, `plane_mask`
    /// and `touched` are all zero again when the call returns.
    pub fn decompose_into(&self, start_lpn: u64, count: u64, scratch: &mut DecomposeScratch) {
        let n_dies = usize_from_u32(self.geometry.total_dies());
        scratch.prepare(n_dies);
        if count == 0 {
            return;
        }
        let w = self.stripe_width();
        let full_rows = count / w;
        let rem = count % w;
        let planes_per_die = self.geometry.planes_per_die;

        if full_rows > 0 {
            // Every slot is hit `full_rows` times: each die gets
            // planes_per_die slots per stripe.
            for d in 0..n_dies {
                scratch.pages[d] = full_rows * u64::from(planes_per_die);
                scratch.plane_mask[d] = (1u32 << planes_per_die) - 1;
            }
        }
        if rem > 0 {
            // `start_lpn + full_rows * w` sits at the same position as
            // `start_lpn`: whole stripes do not move the walk's start.
            let mut digits = self.digits(start_lpn % w);
            let (first_die, first_plane) = self.place(digits);
            let (mut die, mut plane) = (first_die.0, first_plane);
            for _ in 0..rem {
                let d = usize_from_u32(die);
                scratch.touched[d / 64] |= 1 << (d % 64);
                scratch.pages[d] += 1;
                scratch.plane_mask[d] |= 1 << plane;
                for (i, digit) in digits.iter_mut().enumerate() {
                    if *digit + 1 < self.sizes[i] {
                        *digit += 1;
                        die += self.die_stride[i];
                        plane += self.plane_stride[i];
                        break;
                    }
                    // Carry: the digit wraps from its last value to 0.
                    let span = u32_from(*digit);
                    *digit = 0;
                    die -= span * self.die_stride[i];
                    plane -= span * self.plane_stride[i];
                }
            }
        }

        let start_row = start_lpn / w;
        let DecomposeScratch {
            pages,
            plane_mask,
            touched,
            runs,
        } = scratch;
        if full_rows > 0 {
            touched.fill(0);
            let per_die = pages.iter_mut().zip(plane_mask.iter_mut()).enumerate();
            runs.extend(per_die.map(|(d, (p, m))| take_run(d, p, m, start_row)));
        } else {
            for (i, word) in touched.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let d = 64 * i + usize_from_u32(bits.trailing_zeros());
                    bits &= bits - 1;
                    runs.push(take_run(d, &mut pages[d], &mut plane_mask[d], start_row));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmtypes::NvmKind;

    fn paper_map() -> StripeMap {
        StripeMap::default_order(SsdGeometry::paper(NvmKind::Tlc))
    }

    #[test]
    fn stripe_width_is_all_slots() {
        assert_eq!(paper_map().stripe_width(), 8 * 8 * 2 * 2);
    }

    #[test]
    fn locate_covers_every_slot_once() {
        let m = StripeMap::default_order(SsdGeometry::tiny());
        let mut seen = std::collections::BTreeSet::new();
        for pos in 0..m.stripe_width() {
            let (die, plane) = m.locate(pos);
            assert!(seen.insert((die, plane)), "slot repeated at pos {pos}");
        }
        assert_eq!(u64_from_usize(seen.len()), m.stripe_width());
    }

    #[test]
    fn default_order_strides_channels_first() {
        let m = paper_map();
        let g = *m.geometry();
        // Positions 0..8 land on distinct channels, same plane/die/package.
        for pos in 0..8 {
            let (die, plane) = m.locate(pos);
            assert_eq!(u64::from(die.channel(&g)), pos);
            assert_eq!(plane, 0);
        }
        // Position 8 wraps to plane 1 of channel 0.
        let (die, plane) = m.locate(8);
        assert_eq!(die.channel(&g), 0);
        assert_eq!(plane, 1);
    }

    #[test]
    fn small_request_is_channel_striped_single_plane() {
        // 8 TLC pages (64 KiB): one page per channel, plane 0 only.
        let runs = paper_map().decompose(0, 8);
        assert_eq!(runs.len(), 8);
        for r in &runs {
            assert_eq!(r.pages, 1);
            assert_eq!(r.planes, 1);
        }
    }

    #[test]
    fn medium_request_reaches_multiplane() {
        // 16 pages (128 KiB): both planes of package-0 dies, no die interleave.
        let runs = paper_map().decompose(0, 16);
        assert_eq!(runs.len(), 8);
        for r in &runs {
            assert_eq!(r.pages, 2);
            assert_eq!(r.planes, 2);
        }
    }

    #[test]
    fn large_request_reaches_die_interleaving() {
        // 32 pages: two dies per channel engaged.
        let runs = paper_map().decompose(0, 32);
        assert_eq!(runs.len(), 16);
        let g = *paper_map().geometry();
        let mut per_channel = std::collections::BTreeMap::new();
        for r in &runs {
            *per_channel.entry(r.die.channel(&g)).or_insert(0u32) += 1;
        }
        assert!(per_channel.values().all(|&c| c == 2));
    }

    #[test]
    fn full_stripe_touches_every_die() {
        let m = paper_map();
        let runs = m.decompose(0, m.stripe_width());
        assert_eq!(runs.len(), 128);
        for r in &runs {
            assert_eq!(r.pages, 2);
            assert_eq!(r.planes, 2);
        }
    }

    #[test]
    fn decomposition_conserves_pages() {
        let m = StripeMap::default_order(SsdGeometry::tiny());
        for start in [0u64, 3, 17, 250] {
            for count in [1u64, 5, 16, 33, 100] {
                let total: u64 = m.decompose(start, count).iter().map(|r| r.pages).sum();
                assert_eq!(total, count, "start={start} count={count}");
            }
        }
    }

    #[test]
    fn misaligned_piece_can_interleave_dies_without_multiplane() {
        // §4.5 PAL2: fragments that straddle the die boundary of the stripe
        // touch two dies, each on a single plane.
        let m = paper_map();
        // Positions 14..18: channels 6,7 on plane 1 (die 0) then channels
        // 0,1 on plane 0 (die 1).
        let runs = m.decompose(14, 4);
        assert_eq!(runs.len(), 4);
        assert!(runs.iter().all(|r| r.planes == 1));
        let g = *m.geometry();
        let chans: std::collections::BTreeSet<u32> =
            runs.iter().map(|r| r.die.channel(&g)).collect();
        assert_eq!(chans.len(), 4);
    }

    #[test]
    fn empty_decomposition() {
        assert!(paper_map().decompose(42, 0).is_empty());
    }

    #[test]
    fn scratch_reuse_matches_allocating_path() {
        // `decompose_into` with one reused scratch must agree with the
        // allocating wrapper across a sequence of differently-shaped
        // requests — stale accumulator state must not leak between calls.
        let m = paper_map();
        let mut scratch = DecomposeScratch::new();
        for (start, count) in [(0u64, 8u64), (14, 4), (0, 512), (42, 0), (3, 33)] {
            m.decompose_into(start, count, &mut scratch);
            assert_eq!(
                scratch.runs,
                m.decompose(start, count),
                "start={start} count={count}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn rejects_duplicate_dims() {
        StripeMap::new(
            SsdGeometry::tiny(),
            [Dim::Channel, Dim::Channel, Dim::Die, Dim::Plane],
        );
    }
}
