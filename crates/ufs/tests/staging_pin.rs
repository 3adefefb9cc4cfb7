//! Pins what `Ufs` staging does to the device and to the bytes it serves.
//!
//! Seeded op sequences create files, write at arbitrary offsets (appends,
//! overwrites below the bytes staged since the last fsync, writes that
//! leave holes past EOF, partial sectors, several writes per fsync), read
//! arbitrary windows, fsync, `sync_all` and remount. Each sequence pins an
//! FNV-1a over the captured request log, the `WriteAmp` counters, the
//! final media image and every byte read back. The constants were
//! captured while `write` still staged a copy of the whole file, so any
//! cheaper staging must reproduce that file system's device traffic and
//! contents exactly.
//!
//! The same sequences then hold the two staging paths to each other: a
//! device that says it stores no data ([`BlockDevice::stores_data`])
//! makes `Ufs` stage window lengths instead of bytes, and must see the
//! request log and `WriteAmp` of the byte path, with every read
//! returning zeros.

use nvmtypes::convert::usize_from;
use nvmtypes::SimError;
use ssd::{BlockDevice, SimBlockDevice, SECTOR_BYTES};
use ufs::{Ufs, UfsParams, WriteAmp};

/// Files the sequences touch.
const FILES: u64 = 3;
/// Ops per sequence.
const OPS: u64 = 160;
/// Device size in sectors.
const SECTORS: u64 = 2048;

/// FNV-1a, fed piecewise.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
}

/// SplitMix64: the op generator's only source of choice.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What one sequence left behind.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    log: u64,
    requests: usize,
    wa: [u64; 6],
    media: u64,
    reads: u64,
}

/// One sequence's run on a device of type `D`.
struct Run<D: BlockDevice> {
    /// The file system as the sequence left it.
    fs: Ufs<D>,
    /// FNV-1a over the captured request log.
    log: u64,
    /// Requests in the captured log.
    requests: usize,
    /// `WriteAmp` fields, summed over the mounts.
    wa: [u64; 6],
    /// FNV-1a over every read's offset and bytes.
    reads: u64,
    /// Every byte read back was zero.
    zero_reads: bool,
}

fn wa_fields(wa: WriteAmp) -> [u64; 6] {
    [
        wa.user_bytes,
        wa.cow_bytes,
        wa.journal_bytes,
        wa.apply_bytes,
        wa.commits,
        wa.recovery_replays,
    ]
}

/// A write length: mostly sub-sector or a few sectors plus a partial one.
fn write_len(rng: &mut Rng) -> u64 {
    let sector = SECTOR_BYTES;
    match rng.below(4) {
        0 => 1 + rng.below(200),
        1 => 1 + rng.below(sector),
        2 => sector * (1 + rng.below(3)),
        _ => sector * rng.below(3) + 1 + rng.below(sector - 1),
    }
}

/// Where a write of a file of `size` bytes lands.
fn write_offset(rng: &mut Rng, size: u64) -> u64 {
    let sector = SECTOR_BYTES;
    match rng.below(5) {
        // Append.
        0 | 1 => size,
        // Overwrite anywhere below EOF.
        2 => rng.below(size + 1),
        // Overwrite in the first sector.
        3 => rng.below(sector.min(size + 1)),
        // Past EOF, leaving a hole.
        _ => size + 1 + rng.below(2 * sector),
    }
}

/// Runs the sequence of `seed` on a file system formatted on `dev`.
fn run<D: BlockDevice>(seed: u64, dev: D) -> Result<Run<D>, SimError> {
    let mut rng = Rng(seed);
    let params = UfsParams {
        max_files: 8,
        journal_sectors: 16,
    };
    let mut fs = Ufs::format(dev, params)?;
    fs.enable_request_log();
    let mut log = Fnv::new();
    let mut requests = 0;
    let mut reads = Fnv::new();
    let mut zero_reads = true;
    // `WriteAmp` restarts at every mount; sum it over the mounts.
    let mut wa = [0u64; 6];
    let add = |wa: &mut [u64; 6], fs: &Ufs<D>| {
        for (acc, v) in wa.iter_mut().zip(wa_fields(fs.write_amp())) {
            *acc += v;
        }
    };
    let mut drain = |fs: &mut Ufs<D>, log: &mut Fnv| {
        for r in fs.take_request_log() {
            log.eat(&[u8::from(r.op.is_read()), u8::from(r.sync)]);
            log.u64(r.offset);
            log.u64(r.len);
            requests += 1;
        }
    };
    let mut out = Vec::new();
    for i in 0..OPS {
        let name = format!("f{}", rng.below(FILES));
        let id = match fs.open(&name) {
            Ok(id) => id,
            Err(_) => fs.create(&name)?,
        };
        let size = fs.size(id)?;
        match rng.below(16) {
            0..=7 => {
                let offset = write_offset(&mut rng, size);
                let len = write_len(&mut rng);
                let data: Vec<u8> = (0..len)
                    .map(|b| ((b * 7 + i * 131 + seed) % 251) as u8)
                    .collect();
                fs.write(id, offset, &data)?;
            }
            8..=11 => {
                let offset = rng.below(size + 1);
                let len = rng.below(size - offset + 1);
                out.resize(usize_from(len), 0xEE);
                fs.read(id, offset, &mut out)?;
                reads.u64(offset);
                reads.eat(&out);
                zero_reads &= out.iter().all(|&b| b == 0);
            }
            12 | 13 => fs.fsync(id)?,
            14 => fs.sync_all()?,
            _ => {
                drain(&mut fs, &mut log);
                add(&mut wa, &fs);
                let (again, _report) = Ufs::mount(fs.into_device())?;
                fs = again;
                fs.enable_request_log();
            }
        }
    }
    fs.sync_all()?;
    for f in 0..FILES {
        if let Ok(id) = fs.open(&format!("f{f}")) {
            out.resize(usize_from(fs.size(id)?), 0xEE);
            fs.read(id, 0, &mut out)?;
            reads.eat(&out);
            zero_reads &= out.iter().all(|&b| b == 0);
        }
    }
    drain(&mut fs, &mut log);
    add(&mut wa, &fs);
    Ok(Run {
        fs,
        log: log.0,
        requests,
        wa,
        reads: reads.0,
        zero_reads,
    })
}

/// What the sequence of `seed` leaves on a [`SimBlockDevice`].
fn outcome(seed: u64) -> Result<Outcome, SimError> {
    let run = run(seed, SimBlockDevice::new(SECTORS))?;
    let mut media = Fnv::new();
    media.eat(run.fs.device().media());
    Ok(Outcome {
        log: run.log,
        requests: run.requests,
        wa: run.wa,
        media: media.0,
        reads: run.reads,
    })
}

#[test]
fn staging_is_pinned_across_seeded_op_sequences() {
    let pins = [
        (
            1,
            Outcome {
                log: 0x314c_53a8_6d20_7a92,
                requests: 248,
                wa: [334427, 974848, 491520, 126976, 30, 0],
                media: 0xc68b_3bb8_e720_35b8,
                reads: 0x8bb4_db55_9743_3908,
            },
        ),
        (
            7,
            Outcome {
                log: 0x1358_aad0_0431_2b35,
                requests: 252,
                wa: [303597, 1646592, 557056, 143360, 34, 0],
                media: 0xc368_156f_e064_7c01,
                reads: 0xc62b_8474_763a_e2be,
            },
        ),
        (
            42,
            Outcome {
                log: 0x5158_effa_6cc9_c2f0,
                requests: 181,
                wa: [383244, 561152, 344064, 90112, 21, 0],
                media: 0x0e00_81ac_024a_2194,
                reads: 0xc62c_fd8a_cc95_e631,
            },
        ),
        (
            1234,
            Outcome {
                log: 0x83d5_84ff_724f_ef1d,
                requests: 167,
                wa: [370381, 815104, 327680, 86016, 20, 0],
                media: 0x9bbd_7143_e6c6_ac1a,
                reads: 0x069d_48e5_5247_bb41,
            },
        ),
        (
            9001,
            Outcome {
                log: 0x2e1a_3f76_88ec_9008,
                requests: 234,
                wa: [352356, 974848, 475136, 122880, 29, 0],
                media: 0xe078_4b54_284b_8891,
                reads: 0x1d94_022c_04b6_96c7,
            },
        ),
        (
            31337,
            Outcome {
                log: 0x777c_1538_41fc_762e,
                requests: 222,
                wa: [327104, 1359872, 491520, 126976, 30, 0],
                media: 0x998b_0d25_c2c7_23e3,
                reads: 0xbfb2_d7d0_c2bf_e157,
            },
        ),
    ];
    for (seed, want) in pins {
        assert_eq!(outcome(seed).expect("runs"), want, "seed {seed}");
    }
}

/// A [`SimBlockDevice`] that says it stores no data, so `Ufs` stages
/// lengths on it and commits zero sectors. It still stores what it is
/// given, metadata included, so it remounts like the device it wraps.
struct StoresNoData(SimBlockDevice);

impl BlockDevice for StoresNoData {
    fn sectors(&self) -> u64 {
        self.0.sectors()
    }

    fn read_sector(&self, lba: u64, out: &mut [u8]) -> Result<(), SimError> {
        self.0.read_sector(lba, out)
    }

    fn write_sector(&mut self, lba: u64, data: &[u8]) -> Result<(), SimError> {
        self.0.write_sector(lba, data)
    }

    fn writes_persisted(&self) -> u64 {
        self.0.writes_persisted()
    }

    fn stores_data(&self) -> bool {
        false
    }
}

#[test]
fn staging_lengths_issues_the_requests_of_staging_bytes() {
    for seed in [1, 7, 42, 1234, 9001, 31337] {
        let bytes = run(seed, SimBlockDevice::new(SECTORS)).expect("runs");
        let lengths = run(seed, StoresNoData(SimBlockDevice::new(SECTORS))).expect("runs");
        assert_eq!(lengths.log, bytes.log, "seed {seed}: request log");
        assert_eq!(lengths.requests, bytes.requests, "seed {seed}: requests");
        assert_eq!(lengths.wa, bytes.wa, "seed {seed}: write amplification");
        assert!(lengths.zero_reads, "seed {seed}: a read without bytes");
        assert!(
            !bytes.zero_reads,
            "seed {seed}: the byte path read only zeros"
        );
    }
}
