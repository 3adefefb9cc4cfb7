//! Deterministic fault-injection vocabulary: the [`FaultPlan`] every
//! simulator layer consumes, and the seeded stream-split [`FaultRng`]
//! that drives it.
//!
//! The paper's comparison assumes perfect hardware; compute-local NVM,
//! however, puts the flash inside the failure domain of every compute
//! node. This module describes the error processes the workspace
//! injects — media bit errors scaling with wear, program/erase
//! failures, read disturb, link CRC errors, node loss — as *plain
//! data*. The mechanics (ECC retry, bad-block remap, link replay,
//! checkpoint/restart) live in the crates that own the affected layer.
//!
//! Two invariants, pinned by `tests/determinism.rs`:
//!
//! * same seed + same plan ⇒ byte-identical reports (the RNG is a
//!   self-contained SplitMix64/xorshift generator, one independent
//!   stream per fault process, never OS entropy);
//! * [`FaultPlan::none`] ⇒ behaviour byte-identical to a build without
//!   fault injection at all (every hook early-outs on zero rates).

use crate::convert::approx_f64;
use crate::kind::NvmKind;
use crate::time::Nanos;

/// 2⁵³ as `f64`: the denominator turning a 53-bit integer into a
/// uniform sample in `[0, 1)`.
const F64_UNIT: f64 = 9_007_199_254_740_992.0;

/// Stream id for media (bit-error / program / erase / disturb) faults.
pub const STREAM_MEDIA: u64 = 1;
/// Stream id for interconnect (CRC/replay) faults.
pub const STREAM_LINK: u64 = 2;
/// Stream id for node-loss events.
pub const STREAM_NODE: u64 = 3;
/// Stream id for power-loss / torn-write draws.
pub const STREAM_CRASH: u64 = 4;

/// Deterministic fault-process PRNG.
///
/// SplitMix64 state advance with an xorshift-multiply output mix: tiny,
/// seedable, and — critically — *splittable*: [`FaultRng::split`]
/// derives an independent stream per fault process, so adding a
/// sampling site to one layer never perturbs the draw sequence of
/// another (media faults stay identical when link faults are enabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates a generator from a seed; equal seeds give equal streams.
    pub fn new(seed: u64) -> FaultRng {
        // One warm-up mix so nearby seeds (0, 1, 2, …) decorrelate.
        let mut rng = FaultRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        };
        let _warmup = rng.next_u64();
        rng
    }

    /// Derives an independent stream keyed by `stream` (use the
    /// `STREAM_*` constants). Splitting is pure: it does not advance
    /// `self`.
    pub fn split(&self, stream: u64) -> FaultRng {
        FaultRng::new(
            self.state
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                .wrapping_add(stream.wrapping_mul(0x94d0_49bb_1331_11eb)),
        )
    }

    /// Next 64 uniformly distributed bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform sample in `[0, 1)` using the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        approx_f64(self.next_u64() >> 11) / F64_UNIT
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    ///
    /// `p <= 0` returns `false` *without advancing the stream*, so a
    /// zero-rate plan consumes no randomness and stays byte-identical
    /// to a build with no fault hooks at all.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            let _draw = self.next_u64();
            return true;
        }
        self.next_f64() < p
    }

    /// Uniform draw in `0..n` (`n = 0` yields 0 without advancing).
    pub fn gen_range(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Multiply-shift bound mapping; bias is < 2⁻⁵³ for the small
        // ranges the fault models use (block counts, iteration counts).
        let x = self.next_u64() >> 11;
        let scaled = approx_f64(x) / F64_UNIT * approx_f64(n);
        crate::convert::trunc_u64(scaled).min(n - 1)
    }
}

/// Media-level error processes (flashsim layer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediaFaultProfile {
    /// Base probability that a page read at zero wear on SLC needs ECC
    /// beyond the inline (free) tier. Scaled per medium by
    /// [`MediaFaultProfile::kind_scale`] and with wear by
    /// `pe_wear_factor`.
    pub page_error_prob: f64,
    /// Additional error probability per 1000 P/E cycles on the block's
    /// die (linear wear model).
    pub pe_wear_factor: f64,
    /// Probability a page program fails and must be retried once at
    /// full program latency.
    pub program_fail_prob: f64,
    /// Probability a block erase fails; a failed erase marks the block
    /// bad (FTL remaps it to a spare).
    pub erase_fail_prob: f64,
    /// Reads of a block before read disturb forces one refresh
    /// (re-program) penalty and resets the counter. 0 disables.
    /// PCM does not exhibit read disturb; the hook ignores it there.
    pub read_disturb_limit: u64,
    /// ECC read-retry tiers available after the inline tier. A page
    /// whose error demand exceeds this is uncorrectable: the read still
    /// completes (host sees degraded data penalty) and the block is
    /// marked bad.
    pub ecc_tiers: u32,
    /// Extra sensing latency per escalating retry tier, ns. Tier `t`
    /// (1-based) costs `t * tier_extra_ns` on top of the re-read.
    pub tier_extra_ns: Nanos,
}

impl MediaFaultProfile {
    /// All rates zero: media behave as the datasheet promises.
    pub fn none() -> MediaFaultProfile {
        MediaFaultProfile {
            page_error_prob: 0.0,
            pe_wear_factor: 0.0,
            program_fail_prob: 0.0,
            erase_fail_prob: 0.0,
            read_disturb_limit: 0,
            ecc_tiers: 3,
            tier_extra_ns: 40_000,
        }
    }

    /// Relative raw bit-error-rate scale per medium: denser NAND cells
    /// hold more levels per cell and err more; PCM's resistive read is
    /// cleaner than any flash sense.
    pub fn kind_scale(kind: NvmKind) -> f64 {
        match kind {
            NvmKind::Slc => 1.0,
            NvmKind::Mlc => 4.0,
            NvmKind::Tlc => 16.0,
            NvmKind::Pcm => 0.125,
        }
    }

    /// True iff every media error process is disabled.
    pub fn is_none(&self) -> bool {
        self.page_error_prob <= 0.0
            && self.pe_wear_factor <= 0.0
            && self.program_fail_prob <= 0.0
            && self.erase_fail_prob <= 0.0
            && self.read_disturb_limit == 0
    }

    /// Per-read error probability for `kind` at `pe_cycles` wear.
    pub fn read_error_prob(&self, kind: NvmKind, pe_cycles: u64) -> f64 {
        if self.page_error_prob <= 0.0 && self.pe_wear_factor <= 0.0 {
            return 0.0;
        }
        let wear = self.pe_wear_factor * approx_f64(pe_cycles) / 1000.0;
        ((self.page_error_prob + wear) * MediaFaultProfile::kind_scale(kind)).min(1.0)
    }
}

/// Interconnect-level error processes (PCIe/SATA host links).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultProfile {
    /// Probability a host-link transfer is hit by a CRC error and must
    /// be replayed.
    pub crc_error_prob: f64,
    /// Replay attempts before the transfer goes through regardless
    /// (the link-layer guarantees delivery; this bounds added latency).
    pub max_replays: u32,
    /// Base replay backoff, ns; doubles per successive replay of the
    /// same transfer (bounded exponential backoff).
    pub replay_backoff_ns: Nanos,
    /// Every `retrain_every`-th CRC error forces a link retrain.
    /// 0 = never retrain.
    pub retrain_every: u64,
    /// Link-retrain penalty, ns (speed renegotiation stalls the lane).
    pub retrain_ns: Nanos,
}

impl LinkFaultProfile {
    /// All rates zero: links deliver every transfer first try.
    pub fn none() -> LinkFaultProfile {
        LinkFaultProfile {
            crc_error_prob: 0.0,
            max_replays: 4,
            replay_backoff_ns: 2_000,
            retrain_every: 0,
            retrain_ns: 10_000_000,
        }
    }

    /// True iff link errors are disabled.
    pub fn is_none(&self) -> bool {
        self.crc_error_prob <= 0.0
    }
}

/// Power-loss processes against a stable block device (the UFS layer).
///
/// Unlike the rate-driven profiles above, power loss is *scheduled*: the
/// crash-consistency harness sweeps `power_loss_at_write` over every
/// write index of a journaled transaction, so the interesting knob is a
/// deterministic position, not a probability. The only probabilistic
/// part is whether the in-flight sector write tears (persists a partial
/// prefix) or vanishes entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashFaultProfile {
    /// Power fails *during* the Nth device sector write (1-based):
    /// writes `1..N-1` persist fully, write `N` is torn or dropped, and
    /// the device accepts no further I/O. 0 disables power loss.
    pub power_loss_at_write: u64,
    /// Probability the in-flight write at power loss persists a partial
    /// sector prefix (a torn write) instead of nothing at all.
    pub torn_write_prob: f64,
}

impl CrashFaultProfile {
    /// Power never fails.
    pub fn none() -> CrashFaultProfile {
        CrashFaultProfile {
            power_loss_at_write: 0,
            torn_write_prob: 0.0,
        }
    }

    /// True iff power loss is disabled.
    pub fn is_none(&self) -> bool {
        self.power_loss_at_write == 0
    }
}

/// What happens to one device sector write under a [`CrashPoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashVerdict {
    /// The write persists fully; the device keeps running.
    Persist,
    /// Power fails mid-write: only the first `keep_bytes` of the new
    /// data reach the media, the rest of the sector keeps its previous
    /// contents, and the device is dead afterwards.
    Torn {
        /// Bytes of the new data that persisted (`<` the write length).
        keep_bytes: u64,
    },
    /// Power fails before the write reaches the media: nothing persists
    /// and the device is dead afterwards.
    Dropped,
}

/// Deterministic power-loss injector: counts device sector writes and
/// fires at the scheduled one, optionally tearing the in-flight write.
///
/// The crash harness builds one `CrashPoint` per matrix entry
/// ([`CrashPoint::at_write`]) to simulate power loss after *every*
/// device write of a journaled transaction; plan-driven runs derive one
/// from the `[crash]` section via [`CrashPoint::from_profile`], which
/// returns `None` for a zero profile so the crash-free path carries no
/// hook at all (the byte-identity invariant).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashPoint {
    at_write: u64,
    torn_prob: f64,
    writes_seen: u64,
    fired: bool,
    rng: FaultRng,
}

impl CrashPoint {
    /// Builds the injector a profile describes, or `None` when the
    /// profile schedules no power loss (zero-cost crash-free path).
    pub fn from_profile(profile: &CrashFaultProfile, rng: FaultRng) -> Option<CrashPoint> {
        if profile.is_none() {
            return None;
        }
        Some(CrashPoint {
            at_write: profile.power_loss_at_write,
            torn_prob: profile.torn_write_prob,
            writes_seen: 0,
            fired: false,
            rng,
        })
    }

    /// Harness constructor: power fails during write `n` (1-based),
    /// torn with certainty when `torn` is set, dropped otherwise. The
    /// seed feeds the tear-length draw.
    pub fn at_write(n: u64, torn: bool, seed: u64) -> CrashPoint {
        CrashPoint {
            at_write: n.max(1),
            torn_prob: if torn { 1.0 } else { 0.0 },
            writes_seen: 0,
            fired: false,
            rng: FaultRng::new(seed).split(STREAM_CRASH),
        }
    }

    /// Adjudicates the next sector write of `len_bytes` bytes. Once the
    /// scheduled write is reached every subsequent write (including that
    /// one) is lost; callers stop issuing I/O on the first non-persist
    /// verdict.
    pub fn on_write(&mut self, len_bytes: u64) -> CrashVerdict {
        if self.fired {
            return CrashVerdict::Dropped;
        }
        self.writes_seen += 1;
        if self.writes_seen < self.at_write {
            return CrashVerdict::Persist;
        }
        self.fired = true;
        if self.rng.gen_bool(self.torn_prob) {
            CrashVerdict::Torn {
                keep_bytes: self.rng.gen_range(len_bytes),
            }
        } else {
            CrashVerdict::Dropped
        }
    }

    /// True once power has been lost.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Sector writes adjudicated so far (persisted ones plus the fatal
    /// one).
    pub fn writes_seen(&self) -> u64 {
        self.writes_seen
    }
}

/// Node/cluster-level error processes (solver layer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFaultProfile {
    /// Probability the node is lost during any one solver iteration.
    pub crash_prob_per_iter: f64,
    /// Solver iterations between checkpoints of the eigensolver state
    /// to (simulated) NVM. 0 disables checkpointing: a crash then
    /// restarts the solve from scratch.
    pub checkpoint_every: u32,
    /// Fixed restart penalty per crash, ns (reboot + rejoin + reload).
    pub restart_penalty_ns: Nanos,
    /// Crashes after which the run gives up and reports failure
    /// (bounds worst-case runtime under absurd rates).
    pub max_crashes: u32,
}

impl NodeFaultProfile {
    /// No node ever crashes.
    pub fn none() -> NodeFaultProfile {
        NodeFaultProfile {
            crash_prob_per_iter: 0.0,
            checkpoint_every: 0,
            restart_penalty_ns: 0,
            max_crashes: 16,
        }
    }

    /// True iff node loss is disabled.
    pub fn is_none(&self) -> bool {
        self.crash_prob_per_iter <= 0.0
    }
}

/// The complete, seeded description of every fault process in a run.
///
/// A plan is plain data: embed it in a device config, print it, parse
/// it from the TOML-ish text format ([`FaultPlan::parse`]). The default
/// plan is [`FaultPlan::none`] — all tier-1 paper figures run under it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Master seed; each fault process derives its own stream from it.
    pub seed: u64,
    /// Media-level error processes.
    pub media: MediaFaultProfile,
    /// Host-link error processes.
    pub link: LinkFaultProfile,
    /// Node-loss / checkpoint processes.
    pub node: NodeFaultProfile,
    /// Power-loss / torn-write processes (block-device layer).
    pub crash: CrashFaultProfile,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The zero plan: no fault process active; simulators must behave
    /// byte-identically to a build without fault hooks.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            media: MediaFaultProfile::none(),
            link: LinkFaultProfile::none(),
            node: NodeFaultProfile::none(),
            crash: CrashFaultProfile::none(),
        }
    }

    /// A mild error regime: occasional ECC retries and rare CRC
    /// replays, the sort a healthy deployment sees.
    pub fn light(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            media: MediaFaultProfile {
                page_error_prob: 1e-4,
                pe_wear_factor: 1e-4,
                program_fail_prob: 1e-6,
                erase_fail_prob: 1e-5,
                read_disturb_limit: 100_000,
                ..MediaFaultProfile::none()
            },
            link: LinkFaultProfile {
                crc_error_prob: 1e-5,
                retrain_every: 64,
                ..LinkFaultProfile::none()
            },
            node: NodeFaultProfile::none(),
            crash: CrashFaultProfile::none(),
        }
    }

    /// A worn device on a flaky fabric: frequent retries, occasional
    /// bad blocks, periodic retrains.
    pub fn moderate(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            media: MediaFaultProfile {
                page_error_prob: 2e-3,
                pe_wear_factor: 2e-3,
                program_fail_prob: 1e-4,
                erase_fail_prob: 5e-4,
                read_disturb_limit: 10_000,
                ..MediaFaultProfile::none()
            },
            link: LinkFaultProfile {
                crc_error_prob: 5e-4,
                retrain_every: 32,
                ..LinkFaultProfile::none()
            },
            node: NodeFaultProfile {
                crash_prob_per_iter: 0.0,
                checkpoint_every: 8,
                restart_penalty_ns: 500_000_000,
                max_crashes: 16,
            },
            crash: CrashFaultProfile::none(),
        }
    }

    /// End-of-life media with node loss in play: the regime the
    /// reliability sweep uses to stress recovery paths.
    pub fn heavy(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            media: MediaFaultProfile {
                page_error_prob: 2e-2,
                pe_wear_factor: 1e-2,
                program_fail_prob: 1e-3,
                erase_fail_prob: 5e-3,
                read_disturb_limit: 1_000,
                ..MediaFaultProfile::none()
            },
            link: LinkFaultProfile {
                crc_error_prob: 5e-3,
                retrain_every: 16,
                ..LinkFaultProfile::none()
            },
            node: NodeFaultProfile {
                crash_prob_per_iter: 0.02,
                checkpoint_every: 4,
                restart_penalty_ns: 2_000_000_000,
                max_crashes: 16,
            },
            crash: CrashFaultProfile::none(),
        }
    }

    /// True iff no fault process is active (rates all zero).
    pub fn is_none(&self) -> bool {
        self.media.is_none() && self.link.is_none() && self.node.is_none() && self.crash.is_none()
    }

    /// The root RNG for this plan; layers call
    /// [`FaultRng::split`] with their `STREAM_*` id.
    pub fn rng(&self) -> FaultRng {
        FaultRng::new(self.seed)
    }

    /// Parses the TOML-ish plan format:
    ///
    /// ```text
    /// seed = 42
    /// [media]
    /// page_error_prob = 1e-3
    /// ecc_tiers = 3
    /// [link]
    /// crc_error_prob = 1e-4
    /// [node]
    /// crash_prob_per_iter = 0.01
    /// checkpoint_every = 8
    /// [crash]
    /// power_loss_at_write = 17
    /// torn_write_prob = 0.5
    /// ```
    ///
    /// Unknown sections or keys are errors (a typo silently reverting
    /// to defaults would fake a healthy device). Omitted keys keep the
    /// [`FaultPlan::none`] defaults. `#` starts a comment. Every
    /// `*_prob` value must be a finite number in `[0, 1]` and
    /// `pe_wear_factor` finite and non-negative; anything else (`nan`,
    /// `inf`, `-1`, `7`) is a [`SimError::parse`] naming the line.
    ///
    /// [`SimError::parse`]: crate::error::SimError::parse
    pub fn parse(text: &str) -> Result<FaultPlan, crate::error::SimError> {
        use crate::error::SimError;
        let mut plan = FaultPlan::none();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.split_once('#') {
                Some((before, _)) => before.trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest.strip_suffix(']').ok_or_else(|| {
                    SimError::parse("fault plan", lineno, "unterminated section header")
                })?;
                match name.trim() {
                    "media" | "link" | "node" | "crash" => {
                        section = name.trim().to_string();
                    }
                    other => {
                        return Err(SimError::parse(
                            "fault plan",
                            lineno,
                            format!("unknown section `[{other}]`"),
                        ));
                    }
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| SimError::parse("fault plan", lineno, "expected `key = value`"))?;
            let key = key.trim();
            let value = value.trim();
            let fail = |reason: String| SimError::parse("fault plan", lineno, reason);
            let as_f64 = || {
                value
                    .parse::<f64>()
                    .map_err(|e| fail(format!("bad number `{value}`: {e}")))
            };
            // `f64::parse` accepts `nan`, `inf` and any sign.
            let as_prob = || {
                let v = as_f64()?;
                if (0.0..=1.0).contains(&v) {
                    Ok(v)
                } else {
                    Err(fail(format!(
                        "`{key}` = `{value}` is not a probability in [0, 1]"
                    )))
                }
            };
            let as_factor = || {
                let v = as_f64()?;
                if v.is_finite() && v >= 0.0 {
                    Ok(v)
                } else {
                    Err(fail(format!(
                        "`{key}` = `{value}` is not a finite non-negative factor"
                    )))
                }
            };
            let as_u64 = || {
                value
                    .parse::<u64>()
                    .map_err(|e| fail(format!("bad integer `{value}`: {e}")))
            };
            let as_u32 = || {
                value
                    .parse::<u32>()
                    .map_err(|e| fail(format!("bad integer `{value}`: {e}")))
            };
            match (section.as_str(), key) {
                ("", "seed") => plan.seed = as_u64()?,
                ("media", "page_error_prob") => plan.media.page_error_prob = as_prob()?,
                ("media", "pe_wear_factor") => plan.media.pe_wear_factor = as_factor()?,
                ("media", "program_fail_prob") => plan.media.program_fail_prob = as_prob()?,
                ("media", "erase_fail_prob") => plan.media.erase_fail_prob = as_prob()?,
                ("media", "read_disturb_limit") => plan.media.read_disturb_limit = as_u64()?,
                ("media", "ecc_tiers") => plan.media.ecc_tiers = as_u32()?,
                ("media", "tier_extra_ns") => plan.media.tier_extra_ns = as_u64()?,
                ("link", "crc_error_prob") => plan.link.crc_error_prob = as_prob()?,
                ("link", "max_replays") => plan.link.max_replays = as_u32()?,
                ("link", "replay_backoff_ns") => plan.link.replay_backoff_ns = as_u64()?,
                ("link", "retrain_every") => plan.link.retrain_every = as_u64()?,
                ("link", "retrain_ns") => plan.link.retrain_ns = as_u64()?,
                ("node", "crash_prob_per_iter") => plan.node.crash_prob_per_iter = as_prob()?,
                ("node", "checkpoint_every") => plan.node.checkpoint_every = as_u32()?,
                ("node", "restart_penalty_ns") => plan.node.restart_penalty_ns = as_u64()?,
                ("node", "max_crashes") => plan.node.max_crashes = as_u32()?,
                ("crash", "power_loss_at_write") => plan.crash.power_loss_at_write = as_u64()?,
                ("crash", "torn_write_prob") => plan.crash.torn_write_prob = as_prob()?,
                (sec, key) => {
                    let place = if sec.is_empty() {
                        "top level".to_string()
                    } else {
                        format!("section `[{sec}]`")
                    };
                    return Err(fail(format!("unknown key `{key}` in {place}")));
                }
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let mut a = FaultRng::new(7);
        let mut b = FaultRng::new(7);
        let mut c = FaultRng::new(8);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn split_streams_are_independent_and_pure() {
        let root = FaultRng::new(42);
        let mut m1 = root.split(STREAM_MEDIA);
        let mut m2 = root.split(STREAM_MEDIA);
        let mut l = root.split(STREAM_LINK);
        assert_eq!(m1.next_u64(), m2.next_u64(), "split must be pure");
        // Streams differ from each other and from the root sequence.
        let mut root2 = root.clone();
        assert_ne!(m1.next_u64(), l.next_u64());
        assert_ne!(root2.next_u64(), root.split(STREAM_NODE).next_u64());
    }

    #[test]
    fn zero_probability_consumes_no_randomness() {
        let mut a = FaultRng::new(3);
        let mut b = FaultRng::new(3);
        for _ in 0..100 {
            assert!(!a.gen_bool(0.0));
            assert!(!a.gen_bool(-1.0));
        }
        assert_eq!(a.next_u64(), b.next_u64(), "stream advanced on zero rate");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = FaultRng::new(11);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.25)).count();
        let frac = approx_f64(crate::convert::u64_from_usize(hits)) / f64::from(n);
        assert!((frac - 0.25).abs() < 0.02, "observed {frac}");
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = FaultRng::new(5);
        for n in [1u64, 2, 7, 1000] {
            for _ in 0..200 {
                assert!(rng.gen_range(n) < n);
            }
        }
        assert_eq!(rng.gen_range(0), 0);
    }

    #[test]
    fn none_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::light(1).is_none());
        assert!(!FaultPlan::moderate(1).is_none());
        assert!(!FaultPlan::heavy(1).is_none());
        assert_eq!(FaultPlan::default(), FaultPlan::none());
    }

    #[test]
    fn read_error_prob_scales_with_kind_and_wear() {
        let m = MediaFaultProfile {
            page_error_prob: 1e-3,
            pe_wear_factor: 1e-3,
            ..MediaFaultProfile::none()
        };
        let base = m.read_error_prob(NvmKind::Slc, 0);
        assert!((base - 1e-3).abs() < 1e-12);
        assert!(m.read_error_prob(NvmKind::Tlc, 0) > m.read_error_prob(NvmKind::Mlc, 0));
        assert!(m.read_error_prob(NvmKind::Pcm, 0) < base);
        assert!(m.read_error_prob(NvmKind::Slc, 5000) > base);
        assert!(m.read_error_prob(NvmKind::Tlc, u64::MAX / 2) <= 1.0);
    }

    #[test]
    fn parse_round_trip() {
        let text = "\
# worn device on a flaky link
seed = 42
[media]
page_error_prob = 2e-3
pe_wear_factor = 1e-3
ecc_tiers = 4
tier_extra_ns = 50000
[link]
crc_error_prob = 1e-4   # per transfer
retrain_every = 32
[node]
crash_prob_per_iter = 0.01
checkpoint_every = 8
";
        let plan = FaultPlan::parse(text).expect("plan parses");
        assert_eq!(plan.seed, 42);
        assert!((plan.media.page_error_prob - 2e-3).abs() < 1e-15);
        assert_eq!(plan.media.ecc_tiers, 4);
        assert_eq!(plan.media.tier_extra_ns, 50_000);
        assert!((plan.link.crc_error_prob - 1e-4).abs() < 1e-15);
        assert_eq!(plan.link.retrain_every, 32);
        assert!((plan.node.crash_prob_per_iter - 0.01).abs() < 1e-15);
        assert_eq!(plan.node.checkpoint_every, 8);
        // Omitted keys keep `none()` defaults.
        assert_eq!(plan.link.max_replays, LinkFaultProfile::none().max_replays);
    }

    #[test]
    fn parse_reads_the_crash_section() {
        let plan = FaultPlan::parse(
            "[crash]\npower_loss_at_write = 17   # mid-journal\ntorn_write_prob = 0.5\n",
        )
        .expect("crash section parses");
        assert_eq!(plan.crash.power_loss_at_write, 17);
        assert!((plan.crash.torn_write_prob - 0.5).abs() < 1e-15);
        assert!(!plan.is_none(), "a scheduled power loss is a live plan");
        // Omitting the section keeps the disabled default.
        let none = FaultPlan::parse("seed = 1\n").expect("plan parses");
        assert!(none.crash.is_none());
        assert!(none.is_none());
    }

    #[test]
    fn parse_rejects_bad_crash_keys() {
        assert!(FaultPlan::parse("[crash]\nbogus = 1\n").is_err());
        assert!(FaultPlan::parse("[crash]\npower_loss_at_write = -3\n").is_err());
        assert!(FaultPlan::parse("[crash]\ntorn_write_prob = maybe\n").is_err());
        assert!(FaultPlan::parse("[crash]\npower_loss_at_write = 1.5\n").is_err());
    }

    #[test]
    fn parse_rejects_probabilities_outside_the_unit_interval() {
        use crate::error::SimError;
        let keys = [
            ("media", "page_error_prob"),
            ("media", "program_fail_prob"),
            ("media", "erase_fail_prob"),
            ("link", "crc_error_prob"),
            ("node", "crash_prob_per_iter"),
            ("crash", "torn_write_prob"),
        ];
        for (section, key) in keys {
            for bad in ["nan", "NaN", "inf", "-inf", "-1", "-1e-9", "1.0000001", "7"] {
                let text = format!("seed = 1\n[{section}]\n{key} = {bad}\n");
                let err = FaultPlan::parse(&text).expect_err(&text);
                assert!(
                    matches!(&err, SimError::Parse { line: 3, reason, .. } if reason.contains(key)),
                    "{text:?}: {err}"
                );
            }
            // The closed interval's ends and `-0` are probabilities.
            for good in ["0", "-0", "1", "1.0", "0.5", "1e-300"] {
                let text = format!("[{section}]\n{key} = {good}\n");
                assert!(FaultPlan::parse(&text).is_ok(), "{text:?}");
            }
        }
    }

    #[test]
    fn parse_rejects_a_negative_or_non_finite_wear_factor() {
        use crate::error::SimError;
        for bad in ["nan", "inf", "-inf", "-1", "-1e-300"] {
            let text = format!("[media]\n\npe_wear_factor = {bad}\n");
            let err = FaultPlan::parse(&text).expect_err(&text);
            assert!(
                matches!(&err, SimError::Parse { line: 3, reason, .. }
                    if reason.contains("pe_wear_factor")),
                "{text:?}: {err}"
            );
        }
        // A wear factor is not a probability: values above 1 are valid.
        for good in ["0", "2e-3", "7", "1e300"] {
            let text = format!("[media]\npe_wear_factor = {good}\n");
            assert!(FaultPlan::parse(&text).is_ok(), "{text:?}");
        }
    }

    #[test]
    fn crash_point_fires_exactly_once_at_the_scheduled_write() {
        let mut cp = CrashPoint::at_write(3, false, 9);
        assert_eq!(cp.on_write(4096), CrashVerdict::Persist);
        assert_eq!(cp.on_write(4096), CrashVerdict::Persist);
        assert!(!cp.fired());
        assert_eq!(cp.on_write(4096), CrashVerdict::Dropped);
        assert!(cp.fired());
        assert_eq!(cp.writes_seen(), 3);
        // Dead devices stay dead.
        assert_eq!(cp.on_write(4096), CrashVerdict::Dropped);
        assert_eq!(cp.writes_seen(), 3);
    }

    #[test]
    fn crash_point_tears_deterministically_under_a_seed() {
        let keep = |seed: u64| -> CrashVerdict {
            let mut cp = CrashPoint::at_write(1, true, seed);
            cp.on_write(4096)
        };
        let a = keep(5);
        assert_eq!(a, keep(5), "tear length must be a pure function of seed");
        assert!(
            matches!(a, CrashVerdict::Torn { keep_bytes } if keep_bytes < 4096),
            "torn crash point produced {a:?}"
        );
        // Different seeds explore different tear lengths eventually.
        let distinct: std::collections::BTreeSet<u64> = (0..32)
            .filter_map(|s| match keep(s) {
                CrashVerdict::Torn { keep_bytes } => Some(keep_bytes),
                _ => None,
            })
            .collect();
        assert!(distinct.len() > 4, "tear lengths degenerate: {distinct:?}");
    }

    #[test]
    fn zero_crash_profile_builds_no_hook() {
        let root = FaultRng::new(1).split(STREAM_CRASH);
        assert!(CrashPoint::from_profile(&CrashFaultProfile::none(), root.clone()).is_none());
        let live = CrashFaultProfile {
            power_loss_at_write: 2,
            torn_write_prob: 0.0,
        };
        let mut cp = CrashPoint::from_profile(&live, root).expect("live profile builds a hook");
        assert_eq!(cp.on_write(4096), CrashVerdict::Persist);
        assert_eq!(cp.on_write(4096), CrashVerdict::Dropped);
    }

    #[test]
    fn parse_rejects_unknown_keys_and_sections() {
        assert!(FaultPlan::parse("[weather]\n").is_err());
        assert!(FaultPlan::parse("[media]\nbogus = 1\n").is_err());
        assert!(FaultPlan::parse("page_error_prob = 1e-3\n").is_err());
        assert!(FaultPlan::parse("[media]\npage_error_prob = zebra\n").is_err());
        assert!(FaultPlan::parse("[media\n").is_err());
        assert!(FaultPlan::parse("just words\n").is_err());
        let err = FaultPlan::parse("\n\n[media]\nbogus = 1\n")
            .expect_err("unknown key")
            .to_string();
        assert!(err.contains("line 4"), "got: {err}");
    }

    #[test]
    fn empty_text_parses_to_none() {
        let plan = FaultPlan::parse("").expect("empty plan");
        assert_eq!(plan, FaultPlan::none());
    }
}
