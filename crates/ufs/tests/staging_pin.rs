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

use ssd::{SimBlockDevice, SECTOR_USIZE};
use ufs::{Ufs, UfsParams, WriteAmp};

/// Files the sequences touch.
const FILES: u64 = 3;
/// Ops per sequence.
const OPS: usize = 160;
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
    let sector = SECTOR_USIZE as u64;
    match rng.below(4) {
        0 => 1 + rng.below(200),
        1 => 1 + rng.below(sector),
        2 => sector * (1 + rng.below(3)),
        _ => sector * rng.below(3) + 1 + rng.below(sector - 1),
    }
}

/// Where a write of a file of `size` bytes lands.
fn write_offset(rng: &mut Rng, size: u64) -> u64 {
    let sector = SECTOR_USIZE as u64;
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

fn run(seed: u64) -> Outcome {
    let mut rng = Rng(seed);
    let params = UfsParams {
        max_files: 8,
        journal_sectors: 16,
    };
    let mut fs = Ufs::format(SimBlockDevice::new(SECTORS), params).expect("formats");
    fs.enable_request_log();
    let mut log = Fnv::new();
    let mut requests = 0;
    let mut reads = Fnv::new();
    // `WriteAmp` restarts at every mount; sum it over the mounts.
    let mut wa = [0u64; 6];
    let add = |wa: &mut [u64; 6], fs: &Ufs<SimBlockDevice>| {
        for (acc, v) in wa.iter_mut().zip(wa_fields(fs.write_amp())) {
            *acc += v;
        }
    };
    let mut drain = |fs: &mut Ufs<SimBlockDevice>, log: &mut Fnv| {
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
            Err(_) => fs.create(&name).expect("creates"),
        };
        let size = fs.size(id).expect("sized");
        match rng.below(16) {
            0..=7 => {
                let offset = write_offset(&mut rng, size);
                let len = write_len(&mut rng);
                let data: Vec<u8> = (0..len)
                    .map(|b| ((b * 7 + i as u64 * 131 + seed) % 251) as u8)
                    .collect();
                fs.write(id, offset, &data).expect("writes");
            }
            8..=11 => {
                let offset = rng.below(size + 1);
                let len = rng.below(size - offset + 1);
                out.resize(len as usize, 0xEE);
                fs.read(id, offset, &mut out).expect("reads");
                reads.u64(offset);
                reads.eat(&out);
            }
            12 | 13 => fs.fsync(id).expect("syncs"),
            14 => fs.sync_all().expect("syncs"),
            _ => {
                drain(&mut fs, &mut log);
                add(&mut wa, &fs);
                let (again, _report) = Ufs::mount(fs.into_device()).expect("mounts");
                fs = again;
                fs.enable_request_log();
            }
        }
    }
    fs.sync_all().expect("syncs");
    for f in 0..FILES {
        if let Ok(id) = fs.open(&format!("f{f}")) {
            out.resize(fs.size(id).expect("sized") as usize, 0xEE);
            fs.read(id, 0, &mut out).expect("reads");
            reads.eat(&out);
        }
    }
    drain(&mut fs, &mut log);
    add(&mut wa, &fs);
    let mut media = Fnv::new();
    media.eat(&fs.into_device().into_media());
    Outcome {
        log: log.0,
        requests,
        wa,
        media: media.0,
        reads: reads.0,
    }
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
        assert_eq!(run(seed), want, "seed {seed}");
    }
}
