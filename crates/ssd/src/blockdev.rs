//! The stable block-device contract UFS mounts on.
//!
//! Everywhere else in this crate the device is a *timing* model: it
//! replays traces and reports nanoseconds, but stores no bytes. A real
//! journaled file system needs the opposite — durable sector contents
//! with power-loss semantics — so this module provides the
//! contents-plane counterpart: a sector-addressed [`BlockDevice`] trait
//! and the deterministic [`SimBlockDevice`] the crash-consistency
//! harness drives (docs/UFS.md, docs/FAULT_MODEL.md).
//!
//! The two planes meet at the request stream: UFS records every sector
//! operation it issues as a [`nvmtypes::HostRequest`], and that block
//! trace replays through [`crate::SsdDevice`] for timing — same split
//! the paper makes between file-system behaviour and device service.
//!
//! Power-loss semantics ([`nvmtypes::CrashPoint`]): a scheduled sector
//! write either *tears* (a prefix of the new bytes lands, the rest of
//! the sector keeps its old contents — how a real NVM page behaves when
//! the program pulse is interrupted) or *drops* (nothing lands). Either
//! way the device is dead afterwards: every subsequent operation returns
//! [`SimError::PowerLoss`], and the harness remounts from the surviving
//! media image.
//!
//! Sector copies ([`BlockDevice::copy_sector`]): copying sector `from`
//! onto sector `to` is one sector write of `from`'s contents, with that
//! write's power-loss semantics. [`SimBlockDevice`] copies through the
//! trait default, a read then a write.
//!
//! The contract below holds for every device whose contents are read
//! back, which is every [`SimBlockDevice`]: the crash harness, the
//! panel store, every mount. The one exception is the journaled
//! replay's private device (`ufs::replay`): it checks and counts sector
//! operations as [`SimBlockDevice`] does, but stores no byte and reads
//! as zeros. That is sound because UFS never branches on data bytes and
//! a replay never mounts. A UFS change that does branch on them must
//! move the replay back onto a content device;
//! `crates/ufs/tests/replay_reference.rs` exists to catch that case.

use nvmtypes::convert::{u64_from_usize, usize_from};
use nvmtypes::{CrashPoint, CrashVerdict, SimError};
use std::ops::Range;

/// Sector size of the stable store, bytes. Matches the 4 KiB flash page
/// of the paper's device so one sector write is one NVM program.
pub const SECTOR_BYTES: u64 = 4096;

/// [`SECTOR_BYTES`] as `usize` for buffer arithmetic (kept in lockstep
/// by a test).
pub const SECTOR_USIZE: usize = 4096;

/// A sector-addressed stable store with power-loss semantics.
///
/// The contract every implementation upholds:
///
/// * reads and writes move exactly [`SECTOR_BYTES`] bytes;
/// * a successful `write_sector` is durable — there is no volatile
///   cache between the caller and the media (UFS issues its own
///   ordering, so a cache would only hide bugs);
/// * after the first [`SimError::PowerLoss`], every subsequent
///   operation also fails with it (a dead device stays dead).
pub trait BlockDevice {
    /// Total sectors.
    fn sectors(&self) -> u64;

    /// Reads sector `lba` into `out` (`out.len() == SECTOR_USIZE`).
    fn read_sector(&self, lba: u64, out: &mut [u8]) -> Result<(), SimError>;

    /// Writes sector `lba` from `data` (`data.len() == SECTOR_USIZE`).
    fn write_sector(&mut self, lba: u64, data: &[u8]) -> Result<(), SimError>;

    /// Sector writes fully persisted so far.
    fn writes_persisted(&self) -> u64;

    /// Copies sector `from` onto sector `to`: one sector write, with
    /// [`BlockDevice::write_sector`]'s durability and power-loss
    /// semantics, of the bytes `from` holds. The default reads `from`
    /// then writes `to`; an override must fail and count writes exactly
    /// as the default does, and land the same bytes if it stores any.
    fn copy_sector(&mut self, from: u64, to: u64) -> Result<(), SimError> {
        let mut image = [0u8; SECTOR_USIZE];
        self.read_sector(from, &mut image)?;
        self.write_sector(to, &image)
    }
}

/// Deterministic in-memory block device with an optional crash point.
///
/// ```
/// use nvmtypes::CrashPoint;
/// use ssd::blockdev::{BlockDevice, SimBlockDevice, SECTOR_USIZE};
///
/// let mut dev = SimBlockDevice::new(8).with_crash_point(Some(CrashPoint::at_write(2, false, 1)));
/// let sector = [7u8; SECTOR_USIZE];
/// assert!(dev.write_sector(0, &sector).is_ok());
/// let lost = dev.write_sector(1, &sector).expect_err("power fails at write 2");
/// assert!(lost.is_power_loss());
/// // The surviving media image remounts on a fresh device.
/// let dev2 = SimBlockDevice::from_media(dev.into_media()).expect("image is sector-aligned");
/// let mut buf = [0u8; SECTOR_USIZE];
/// dev2.read_sector(0, &mut buf).expect("persisted sector reads back");
/// assert_eq!(buf, sector);
/// ```
#[derive(Debug, Clone)]
pub struct SimBlockDevice {
    media: Vec<u8>,
    crash: Option<CrashPoint>,
    dead: bool,
    writes_persisted: u64,
}

impl SimBlockDevice {
    /// A zero-filled device of `sectors` sectors, no crash scheduled.
    pub fn new(sectors: u64) -> SimBlockDevice {
        SimBlockDevice {
            media: vec![0; usize_from(sectors * SECTOR_BYTES)],
            crash: None,
            dead: false,
            writes_persisted: 0,
        }
    }

    /// Installs (or clears) the power-loss schedule. `None` is the
    /// crash-free build: no hook, no counter branch on the write path
    /// beyond the `Option` check — the byte-identity pin of
    /// docs/FAULT_MODEL.md compares this against a zero-rate plan.
    #[must_use]
    pub fn with_crash_point(mut self, crash: Option<CrashPoint>) -> SimBlockDevice {
        self.crash = crash;
        self
    }

    /// Adopts a surviving media image (a remount after power loss).
    /// The image length must be sector-aligned.
    pub fn from_media(media: Vec<u8>) -> Result<SimBlockDevice, SimError> {
        if !u64_from_usize(media.len()).is_multiple_of(SECTOR_BYTES) {
            return Err(SimError::invalid_config(
                "blockdev.media",
                format!(
                    "image of {} bytes is not a whole number of {SECTOR_BYTES}-byte sectors",
                    media.len()
                ),
            ));
        }
        Ok(SimBlockDevice {
            media,
            ..SimBlockDevice::new(0)
        })
    }

    /// Surrenders the media image (what survives a crash).
    pub fn into_media(self) -> Vec<u8> {
        self.media
    }

    /// Borrows the media image.
    pub fn media(&self) -> &[u8] {
        &self.media
    }

    /// True once a scheduled power loss has fired.
    pub fn power_lost(&self) -> bool {
        self.dead
    }

    fn dead_err(&self) -> SimError {
        SimError::PowerLoss {
            writes_persisted: self.writes_persisted,
        }
    }

    fn range(&self, lba: u64, len: usize, what: &str) -> Result<Range<usize>, SimError> {
        if len != SECTOR_USIZE {
            return Err(SimError::invalid_config(
                format!("blockdev.{what}"),
                format!("buffer of {len} bytes; sector I/O moves exactly {SECTOR_BYTES}"),
            ));
        }
        if lba >= self.sectors() {
            return Err(SimError::invalid_config(
                format!("blockdev.{what}"),
                format!("lba {lba} beyond device of {} sectors", self.sectors()),
            ));
        }
        let start = usize_from(lba * SECTOR_BYTES);
        Ok(start..start + SECTOR_USIZE)
    }
}

impl BlockDevice for SimBlockDevice {
    fn sectors(&self) -> u64 {
        u64_from_usize(self.media.len()) / SECTOR_BYTES
    }

    fn read_sector(&self, lba: u64, out: &mut [u8]) -> Result<(), SimError> {
        if self.dead {
            return Err(self.dead_err());
        }
        let range = self.range(lba, out.len(), "read")?;
        out.copy_from_slice(&self.media[range]);
        Ok(())
    }

    fn write_sector(&mut self, lba: u64, data: &[u8]) -> Result<(), SimError> {
        if self.dead {
            return Err(self.dead_err());
        }
        let at = self.range(lba, data.len(), "write")?.start;
        let verdict = match &mut self.crash {
            Some(cp) => cp.on_write(SECTOR_BYTES),
            None => CrashVerdict::Persist,
        };
        let (keep, survives) = match verdict {
            CrashVerdict::Persist => (SECTOR_USIZE, true),
            // The interrupted program pulse lands a prefix of the new
            // data; the sector tail keeps its previous contents.
            CrashVerdict::Torn { keep_bytes } => (usize_from(keep_bytes).min(SECTOR_USIZE), false),
            CrashVerdict::Dropped => (0, false),
        };
        self.media[at..at + keep].copy_from_slice(&data[..keep]);
        if survives {
            self.writes_persisted += 1;
            Ok(())
        } else {
            self.dead = true;
            Err(self.dead_err())
        }
    }

    fn writes_persisted(&self) -> u64 {
        self.writes_persisted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sector(fill: u8) -> Vec<u8> {
        vec![fill; SECTOR_USIZE]
    }

    #[test]
    fn sector_constants_agree() {
        assert_eq!(u64_from_usize(SECTOR_USIZE), SECTOR_BYTES);
    }

    #[test]
    fn reads_see_exactly_what_writes_persisted() {
        let mut dev = SimBlockDevice::new(4);
        dev.write_sector(2, &sector(0xAB)).expect("write persists");
        let mut buf = sector(0);
        dev.read_sector(2, &mut buf).expect("read succeeds");
        assert_eq!(buf, sector(0xAB));
        dev.read_sector(1, &mut buf).expect("read succeeds");
        assert_eq!(buf, sector(0), "untouched sector stays zero");
        assert_eq!(dev.writes_persisted(), 1);
    }

    #[test]
    fn out_of_range_and_misshapen_io_are_typed_errors() {
        let mut dev = SimBlockDevice::new(2);
        assert!(dev.write_sector(2, &sector(1)).is_err());
        assert!(dev.write_sector(0, &[0u8; 100]).is_err());
        let mut short = [0u8; 7];
        assert!(dev.read_sector(0, &mut short).is_err());
        let mut buf = sector(0);
        assert!(dev.read_sector(9, &mut buf).is_err());
    }

    #[test]
    fn dropped_power_loss_persists_a_clean_prefix() {
        let mut dev =
            SimBlockDevice::new(8).with_crash_point(Some(CrashPoint::at_write(3, false, 1)));
        dev.write_sector(0, &sector(1)).expect("write 1 persists");
        dev.write_sector(1, &sector(2)).expect("write 2 persists");
        let err = dev.write_sector(2, &sector(3)).expect_err("write 3 dies");
        assert!(err.is_power_loss());
        assert!(dev.power_lost());
        // Dead device: reads and writes both refuse.
        let mut buf = sector(0);
        assert!(dev.read_sector(0, &mut buf).is_err());
        assert!(dev.write_sector(3, &sector(4)).is_err());
        // Survivors: writes 1 and 2 whole, write 3 absent.
        let media = dev.into_media();
        assert_eq!(&media[..SECTOR_USIZE], sector(1).as_slice());
        assert_eq!(&media[SECTOR_USIZE..2 * SECTOR_USIZE], sector(2).as_slice());
        assert_eq!(
            &media[2 * SECTOR_USIZE..3 * SECTOR_USIZE],
            sector(0).as_slice()
        );
    }

    #[test]
    fn torn_power_loss_persists_a_partial_sector() {
        // Sweep seeds until a strictly-internal tear shows up, then pin
        // its shape: new-data prefix, old-data tail.
        let mut saw_internal_tear = false;
        for seed in 0..64 {
            let mut dev =
                SimBlockDevice::new(2).with_crash_point(Some(CrashPoint::at_write(2, true, seed)));
            dev.write_sector(1, &sector(0x55))
                .expect("write 1 persists");
            let err = dev
                .write_sector(1, &sector(0xFF))
                .expect_err("write 2 tears");
            assert!(err.is_power_loss());
            let media = dev.into_media();
            let s = &media[SECTOR_USIZE..2 * SECTOR_USIZE];
            let keep = s.iter().take_while(|&&b| b == 0xFF).count();
            assert!(
                s[keep..].iter().all(|&b| b == 0x55),
                "tail must keep the old contents (seed {seed})"
            );
            if keep > 0 && keep < SECTOR_USIZE {
                saw_internal_tear = true;
            }
        }
        assert!(saw_internal_tear, "no seed produced an internal tear");
    }

    #[test]
    fn crash_free_hook_is_identical_to_no_hook() {
        // The byte-identity pin: a zero crash profile builds no hook, and
        // a device with `None` behaves identically to the pre-hook code.
        let script: Vec<(u64, u8)> = (0u8..32)
            .map(|i| (u64::from(i % 8), i.wrapping_mul(37)))
            .collect();
        let run = |mut dev: SimBlockDevice| -> (Vec<u8>, u64) {
            for &(lba, fill) in &script {
                dev.write_sector(lba, &sector(fill))
                    .expect("no crash scheduled");
            }
            let writes = dev.writes_persisted();
            (dev.into_media(), writes)
        };
        let plain = run(SimBlockDevice::new(8));
        let hooked = run(
            SimBlockDevice::new(8).with_crash_point(CrashPoint::from_profile(
                &nvmtypes::CrashFaultProfile::none(),
                nvmtypes::FaultPlan::none()
                    .rng()
                    .split(nvmtypes::fault::STREAM_CRASH),
            )),
        );
        assert_eq!(plain, hooked);
    }

    #[test]
    fn from_media_round_trips_and_rejects_ragged_images() {
        let mut dev = SimBlockDevice::new(3);
        dev.write_sector(1, &sector(9)).expect("write persists");
        let image = dev.into_media();
        let dev2 = SimBlockDevice::from_media(image.clone()).expect("aligned image");
        assert_eq!(dev2.sectors(), 3);
        assert_eq!(dev2.media(), image.as_slice());
        assert!(SimBlockDevice::from_media(vec![0; 100]).is_err());
    }
}
