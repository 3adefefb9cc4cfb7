//! SSD structural geometry: channels, packages, dies, planes, blocks, pages.
//!
//! The paper's simulated device (§4.1): *"Each of these NVM types are
//! simulated in equivalent SSD architectures equipped with 8 channels,
//! 64 NVM packages, and a total of 128 NVM dies."* — i.e. 8 packages per
//! channel and 2 dies per package. NAND dies additionally carry 2 planes.

use crate::kind::NvmKind;

/// Structural geometry of a simulated SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsdGeometry {
    /// Number of independent channels (shared buses).
    pub channels: u32,
    /// NVM packages attached to each channel.
    pub packages_per_channel: u32,
    /// Dies stacked in each package.
    pub dies_per_package: u32,
    /// Planes per die (concurrent cell arrays sharing the die's registers).
    pub planes_per_die: u32,
    /// Erase blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
}

impl SsdGeometry {
    /// The paper's 8-channel / 64-package / 128-die device with the page
    /// size of `kind`. PCM gets more (smaller) blocks per plane so the
    /// device capacity stays in the same class despite 64-byte pages.
    pub fn paper(kind: NvmKind) -> SsdGeometry {
        let (blocks_per_plane, pages_per_block) = match kind {
            // NAND: 2048 blocks x 128 pages/plane.
            NvmKind::Slc | NvmKind::Mlc | NvmKind::Tlc => (2048, 128),
            // PCM: tiny 64 B pages; keep 128-page (8 KiB) emulated erase
            // blocks but many more of them per plane.
            NvmKind::Pcm => (262_144, 128),
        };
        SsdGeometry {
            channels: 8,
            packages_per_channel: 8,
            dies_per_package: 2,
            planes_per_die: 2,
            blocks_per_plane,
            pages_per_block,
        }
    }

    /// A small geometry for fast unit tests: 2 channels, 2 packages per
    /// channel, 2 dies per package, 2 planes.
    pub fn tiny() -> SsdGeometry {
        SsdGeometry {
            channels: 2,
            packages_per_channel: 2,
            dies_per_package: 2,
            planes_per_die: 2,
            blocks_per_plane: 64,
            pages_per_block: 32,
        }
    }

    /// Total number of packages in the device.
    pub fn total_packages(&self) -> u32 {
        self.channels * self.packages_per_channel
    }

    /// Total number of dies in the device.
    pub fn total_dies(&self) -> u32 {
        self.total_packages() * self.dies_per_package
    }

    /// Dies attached to one channel.
    pub fn dies_per_channel(&self) -> u32 {
        self.packages_per_channel * self.dies_per_package
    }

    /// Pages per die across all its planes.
    pub fn pages_per_die(&self) -> u64 {
        u64::from(self.planes_per_die)
            * u64::from(self.blocks_per_plane)
            * u64::from(self.pages_per_block)
    }

    /// Pages per single plane.
    pub fn pages_per_plane(&self) -> u64 {
        u64::from(self.blocks_per_plane) * u64::from(self.pages_per_block)
    }

    /// Total pages in the device.
    pub fn total_pages(&self) -> u64 {
        self.pages_per_die() * u64::from(self.total_dies())
    }

    /// Raw capacity in bytes for a given page size.
    pub fn capacity_bytes(&self, page_size: u32) -> u64 {
        self.total_pages() * u64::from(page_size)
    }

    /// Number of distinct `(die, plane)` pairs — the width of the device's
    /// maximum striping pattern.
    pub fn total_plane_slots(&self) -> u64 {
        u64::from(self.total_dies()) * u64::from(self.planes_per_die)
    }

    /// A well-defined copy of this geometry: every dimension clamped to
    /// at least 1. A zero-sized dimension has no physical meaning and
    /// would poison downstream index arithmetic; the simulators sanitize
    /// rather than panic on such (deserialised or hand-built) configs.
    #[must_use]
    pub fn sanitized(mut self) -> SsdGeometry {
        self.channels = self.channels.max(1);
        self.packages_per_channel = self.packages_per_channel.max(1);
        self.dies_per_package = self.dies_per_package.max(1);
        self.planes_per_die = self.planes_per_die.max(1);
        self.blocks_per_plane = self.blocks_per_plane.max(1);
        self.pages_per_block = self.pages_per_block.max(1);
        self
    }

    /// Checks internal consistency; useful for deserialised configs.
    pub fn validate(&self) -> Result<(), crate::error::SimError> {
        for (name, v) in [
            ("channels", self.channels),
            ("packages_per_channel", self.packages_per_channel),
            ("dies_per_package", self.dies_per_package),
            ("planes_per_die", self.planes_per_die),
            ("blocks_per_plane", self.blocks_per_plane),
            ("pages_per_block", self.pages_per_block),
        ] {
            if v == 0 {
                return Err(crate::error::SimError::invalid_config(
                    format!("geometry.{name}"),
                    "must be non-zero",
                ));
            }
        }
        Ok(())
    }
}

/// Global die index in `0..geometry.total_dies()`.
///
/// Dies are numbered channel-major: die `i` lives on channel
/// `i % channels`, package `(i / channels) % packages_per_channel`,
/// die-in-package `i / (channels * packages_per_channel)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DieIndex(pub u32);

impl DieIndex {
    /// Channel this die sits on.
    pub fn channel(self, g: &SsdGeometry) -> u32 {
        self.0 % g.channels
    }

    /// Global package index (`0..total_packages`) this die belongs to.
    pub fn package(self, g: &SsdGeometry) -> u32 {
        self.0 % g.total_packages()
    }

    /// Builds the die index for (channel, package-in-channel, die-in-package).
    pub fn from_parts(g: &SsdGeometry, channel: u32, package: u32, die: u32) -> DieIndex {
        debug_assert!(channel < g.channels);
        debug_assert!(package < g.packages_per_channel);
        debug_assert!(die < g.dies_per_package);
        DieIndex(die * g.total_packages() + package * g.channels + channel)
    }
}

/// A fully resolved physical location inside the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysLoc {
    /// Channel index.
    pub channel: u32,
    /// Package index within the channel.
    pub package: u32,
    /// Die index within the package.
    pub die: u32,
    /// Plane index within the die.
    pub plane: u32,
    /// Page index within the plane (block * pages_per_block + page).
    pub page: u64,
}

impl PhysLoc {
    /// Global die index of this location.
    pub fn die_index(&self, g: &SsdGeometry) -> DieIndex {
        DieIndex::from_parts(g, self.channel, self.package, self.die)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_matches_section_4_1() {
        for kind in NvmKind::ALL {
            let g = SsdGeometry::paper(kind);
            assert_eq!(g.channels, 8);
            assert_eq!(g.total_packages(), 64);
            assert_eq!(g.total_dies(), 128);
            g.validate().unwrap();
        }
    }

    #[test]
    fn nand_capacity_is_plausible() {
        // TLC: 128 dies * 2 planes * 2048 blocks * 128 pages * 8 KiB = 512 GiB.
        let g = SsdGeometry::paper(NvmKind::Tlc);
        assert_eq!(g.capacity_bytes(8192), 512 * crate::time::GIB);
    }

    #[test]
    fn pcm_capacity_is_plausible() {
        // PCM: 128 dies * 2 planes * 262144 blocks * 128 pages * 64 B = 512 GiB.
        let g = SsdGeometry::paper(NvmKind::Pcm);
        assert_eq!(g.capacity_bytes(64), 512 * crate::time::GIB);
    }

    #[test]
    fn die_index_round_trip() {
        let g = SsdGeometry::paper(NvmKind::Tlc);
        for ch in 0..g.channels {
            for pkg in 0..g.packages_per_channel {
                for d in 0..g.dies_per_package {
                    let idx = DieIndex::from_parts(&g, ch, pkg, d);
                    assert!(idx.0 < g.total_dies());
                    assert_eq!(idx.channel(&g), ch);
                    assert_eq!(idx.package(&g), pkg * g.channels + ch);
                }
            }
        }
    }

    #[test]
    fn die_indices_are_unique() {
        let g = SsdGeometry::tiny();
        let mut seen = std::collections::HashSet::new();
        for ch in 0..g.channels {
            for pkg in 0..g.packages_per_channel {
                for d in 0..g.dies_per_package {
                    assert!(seen.insert(DieIndex::from_parts(&g, ch, pkg, d)));
                }
            }
        }
        assert_eq!(seen.len() as u32, g.total_dies());
    }

    #[test]
    fn validate_rejects_zero_fields() {
        let mut g = SsdGeometry::tiny();
        g.channels = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn plane_slots() {
        let g = SsdGeometry::paper(NvmKind::Tlc);
        assert_eq!(g.total_plane_slots(), 256);
    }
}
