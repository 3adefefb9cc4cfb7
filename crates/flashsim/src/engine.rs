//! The media timing engine: executes [`DieOp`]s against the die/channel
//! resource model with full pipelining and contention accounting.

use crate::config::MediaConfig;
use crate::op::{DieOp, OpKind};
use crate::stats::RawStats;
use nvmtypes::convert::usize_from_u32;
use nvmtypes::Nanos;
use simobs::Metric;

/// Start/end times of one executed die-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DieOpOutcome {
    /// When the die began serving the op (after any die-busy wait).
    pub start: Nanos,
    /// When the op fully completed (data transferred / programmed / erased).
    pub end: Nanos,
}

/// Transaction-accurate media simulator.
///
/// Dies and channel buses are serially reusable resources; an operation's
/// schedule is derived from `max()` recurrences over its resources'
/// `free_at` times. Within a read, cell sensing pipelines with channel
/// transfers: the die senses batch *i+1* while batch *i* drains over the
/// bus, so a production-limited stream finishes at
/// `cell_end + one_batch_transfer`, while a bus-limited stream finishes
/// when its channel reservation drains.
///
/// ```
/// use flashsim::{DieOp, MediaConfig, MediaSim};
/// use nvmtypes::{BusTiming, DieIndex, NvmKind};
///
/// let bus = BusTiming { name: "ONFi3-SDR-400", bytes_per_ns: 0.4 };
/// let mut sim = MediaSim::new(MediaConfig::paper(NvmKind::Tlc, bus));
/// // Read one 8 KiB TLC page: 150 us sense + command + 20.48 us transfer.
/// let out = sim.execute(0, &DieOp::read(DieIndex(0), 1, 1, 0));
/// assert_eq!(out.end, 150_000 + 300 + 20_480);
/// ```
#[derive(Debug, Clone)]
pub struct MediaSim {
    cfg: MediaConfig,
    /// Channel occupancy of one page transfer, precomputed from the
    /// configuration (it never changes over the simulator's lifetime).
    page_xfer: Nanos,
    chan_free: Vec<Nanos>,
    die_free: Vec<Nanos>,
    /// Busy duration of the most recent op per die — bounds how much wait
    /// is attributed as cell contention (an op can only actively wait on
    /// the op currently in service; deeper backlog is host queueing, not a
    /// media state).
    die_last_busy: Vec<Nanos>,
    /// Most recent bus occupancy per channel, for the same reason.
    chan_last_xfer: Vec<Nanos>,
    stats: RawStats,
}

impl MediaSim {
    /// New simulator for the given media configuration.
    pub fn new(mut cfg: MediaConfig) -> MediaSim {
        debug_assert!(cfg.geometry.validate().is_ok(), "invalid geometry");
        cfg.geometry = cfg.geometry.sanitized();
        let channels = usize_from_u32(cfg.geometry.channels);
        let dies = usize_from_u32(cfg.geometry.total_dies());
        let page_xfer = cfg.page_transfer_ns();
        MediaSim {
            cfg,
            page_xfer,
            chan_free: vec![0; channels],
            die_free: vec![0; dies],
            die_last_busy: vec![0; dies],
            chan_last_xfer: vec![0; channels],
            stats: RawStats::new(channels, dies),
        }
    }

    /// The configuration this simulator runs.
    pub fn config(&self) -> &MediaConfig {
        &self.cfg
    }

    /// Accumulated raw accounting.
    pub fn stats(&self) -> &RawStats {
        &self.stats
    }

    /// Consumes the simulator, returning its raw accounting.
    pub fn into_stats(self) -> RawStats {
        self.stats
    }

    /// Executes one die-op arriving at `arrival`, returning its schedule.
    ///
    /// # Panics
    /// Panics if the op names a die outside the geometry, more planes than
    /// the die has, or zero pages.
    pub fn execute(&mut self, arrival: Nanos, op: &DieOp) -> DieOpOutcome {
        let g = &self.cfg.geometry;
        assert!(op.die.0 < g.total_dies(), "die {} out of range", op.die.0);
        assert!(
            op.planes >= 1 && op.planes <= g.planes_per_die,
            "plane count {} out of range",
            op.planes
        );
        assert!(op.pages >= 1, "die-op must move at least one page/block");

        let die = usize_from_u32(op.die.0);
        let ch = usize_from_u32(op.die.channel(g));
        let page_xfer = self.page_xfer;
        let batches = op.batches();
        let t = &self.cfg.timing;
        let cell_total = op.cell_time(t);
        let payload = op.pages * u64::from(t.page_size);

        let t_start = arrival.max(self.die_free[die]);
        let cell_wait = (t_start - arrival).min(self.die_last_busy[die]);
        self.stats.cell_contention += cell_wait;

        // NAND pays command/address cycles per multi-plane batch; PCM sits
        // behind a NOR-flash-like burst interface (§2.3) and pays one
        // command phase per contiguous run.
        let cmd_units = if t.kind.is_nand() { batches } else { 1 };

        let outcome = match op.kind {
            OpKind::Read => {
                let x = op.pages * page_xfer;
                let f = cmd_units * t.t_cmd;
                // First batch ready after one sense.
                let first_ready = t_start + t.t_read;
                let chan_start = first_ready.max(self.chan_free[ch]);
                self.stats.channel_contention +=
                    (chan_start - first_ready).min(self.chan_last_xfer[ch]);
                let bus_end = chan_start + x + f;
                let prod_end = t_start + cell_total;
                let tail = op.pages.min(u64::from(op.planes)) * page_xfer;
                let end = bus_end.max(prod_end + tail);
                self.chan_free[ch] = bus_end;
                self.chan_last_xfer[ch] = x + f;
                self.stats.chan_busy[ch] += x + f;
                self.stats.channel_activation += x;
                self.stats.flash_bus_activation += f;
                self.stats.cell_activation += cell_total;
                self.stats.bytes_read += payload;
                // With cache registers the die re-arms as soon as the last
                // sense lands in the spare register; otherwise it holds its
                // registers until the bus drains.
                self.die_free[die] = if self.cfg.cache_registers {
                    prod_end.max(t_start + t.t_read)
                } else {
                    end
                };
                DieOpOutcome {
                    start: t_start,
                    end,
                }
            }
            OpKind::Write => {
                let x = op.pages * page_xfer;
                let f = cmd_units * t.t_cmd;
                let chan_start = t_start.max(self.chan_free[ch]);
                self.stats.channel_contention +=
                    (chan_start - t_start).min(self.chan_last_xfer[ch]);
                let bus_end = chan_start + x + f;
                // Programming of the first batch starts once its pages are in
                // the die's registers.
                let first_in =
                    chan_start + t.t_cmd + op.pages.min(u64::from(op.planes)) * page_xfer;
                let end = bus_end.max(first_in + cell_total);
                self.chan_free[ch] = bus_end;
                self.chan_last_xfer[ch] = x + f;
                self.stats.chan_busy[ch] += x + f;
                self.stats.channel_activation += x;
                self.stats.flash_bus_activation += f;
                self.stats.cell_activation += cell_total;
                self.stats.bytes_written += payload;
                self.die_free[die] = end;
                DieOpOutcome {
                    start: t_start,
                    end,
                }
            }
            OpKind::Erase => {
                // No data on the channel; only a command handshake.
                let f = t.t_cmd;
                let end = t_start + f + cell_total;
                self.stats.flash_bus_activation += f;
                self.stats.cell_activation += cell_total;
                self.stats.blocks_erased += op.pages;
                self.die_free[die] = end;
                DieOpOutcome {
                    start: t_start,
                    end,
                }
            }
        };

        // The die re-arms strictly after this op started, so its next op
        // starts strictly later: the invariant that lets the stats keep
        // each die's busy spans sorted without a sort.
        debug_assert!(
            self.die_free[die] > t_start,
            "die {die} re-armed at {}, not after op start {t_start}",
            self.die_free[die]
        );
        self.die_last_busy[die] = outcome.end - outcome.start;
        self.stats.record_busy(die, outcome.start, outcome.end);
        self.stats.ops += 1;
        outcome
    }

    /// [`MediaSim::execute`] plus a [`simobs::Layer::Media`] span over the
    /// die's service window when tracing is enabled. The tracer observes
    /// the already-computed schedule and feeds nothing back, so enabling
    /// it cannot change any outcome.
    ///
    /// # Panics
    /// Same conditions as [`MediaSim::execute`].
    pub fn execute_traced(
        &mut self,
        arrival: Nanos,
        op: &DieOp,
        obs: &mut simobs::Tracer,
    ) -> DieOpOutcome {
        let out = self.execute(arrival, op);
        if obs.enabled() {
            let name = match op.kind {
                OpKind::Read => "die_read",
                OpKind::Write => "die_write",
                OpKind::Erase => "die_erase",
            };
            obs.span(
                simobs::Layer::Media,
                name,
                out.start,
                out.end,
                [("die", u64::from(op.die.0)), ("pages", op.pages)],
            );
            // Throughput counters for the profiler: ops and busy-ns per
            // media op kind, one slot add each behind the enabled gate.
            obs.count(Metric::MediaDieOps, 1);
            obs.count(Metric::MediaPages, op.pages);
            obs.count(Metric::MediaBusyNs, out.end.saturating_sub(out.start));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmtypes::{BusTiming, DieIndex, NvmKind};

    fn sdr400() -> BusTiming {
        BusTiming {
            name: "ONFi3-SDR-400",
            bytes_per_ns: 0.4,
        }
    }

    fn tlc_sim() -> MediaSim {
        MediaSim::new(MediaConfig::tiny(NvmKind::Tlc, sdr400()))
    }

    #[test]
    fn single_page_read_timing() {
        // TLC, 1 page: sense 150 µs, then cmd 300 ns + transfer 20480 ns.
        let mut sim = tlc_sim();
        let out = sim.execute(0, &DieOp::read(DieIndex(0), 1, 1, 0));
        assert_eq!(out.start, 0);
        assert_eq!(out.end, 150_000 + 20_480 + 300);
        assert_eq!(sim.stats().cell_activation, 150_000);
        assert_eq!(sim.stats().channel_activation, 20_480);
        assert_eq!(sim.stats().flash_bus_activation, 300);
        assert_eq!(sim.stats().bytes_read, 8192);
    }

    #[test]
    fn multi_plane_read_is_production_limited_on_tlc() {
        // 4 pages, 2 planes: cell = 2 * 150 µs; bus = 4 * 20480 + 600.
        // Production-limited: end = 300000 + min(4,2)*20480 = 340960.
        let mut sim = tlc_sim();
        let out = sim.execute(0, &DieOp::read(DieIndex(0), 2, 4, 0));
        assert_eq!(out.end, 340_960);
    }

    #[test]
    fn multiplane_halves_cell_time() {
        let mut one = tlc_sim();
        let mut two = tlc_sim();
        let a = one.execute(0, &DieOp::read(DieIndex(0), 1, 8, 0));
        let b = two.execute(0, &DieOp::read(DieIndex(0), 2, 8, 0));
        assert!(b.end < a.end);
        assert_eq!(one.stats().cell_activation, 2 * two.stats().cell_activation);
    }

    #[test]
    fn two_dies_same_channel_pipeline() {
        // Dies 0 and 2 share channel 0 in the tiny geometry (2 channels).
        let mut sim = tlc_sim();
        let g = sim.config().geometry;
        assert_eq!(DieIndex(0).channel(&g), DieIndex(2).channel(&g));
        let a = sim.execute(0, &DieOp::read(DieIndex(0), 1, 1, 0));
        let b = sim.execute(0, &DieOp::read(DieIndex(2), 1, 1, 0));
        // Both sense concurrently; the second transfer queues behind the
        // first on the shared bus.
        assert_eq!(a.end, 170_780);
        assert_eq!(b.end, a.end + 20_480 + 300);
        assert_eq!(sim.stats().channel_contention, 20_480 + 300);
        assert_eq!(sim.stats().cell_contention, 0);
    }

    #[test]
    fn two_dies_different_channels_fully_parallel() {
        let mut sim = tlc_sim();
        let g = sim.config().geometry;
        assert_ne!(DieIndex(0).channel(&g), DieIndex(1).channel(&g));
        let a = sim.execute(0, &DieOp::read(DieIndex(0), 1, 1, 0));
        let b = sim.execute(0, &DieOp::read(DieIndex(1), 1, 1, 0));
        assert_eq!(a.end, b.end);
        assert_eq!(sim.stats().channel_contention, 0);
    }

    #[test]
    fn same_die_back_to_back_serializes() {
        let mut sim = tlc_sim();
        let a = sim.execute(0, &DieOp::read(DieIndex(0), 1, 1, 0));
        let b = sim.execute(0, &DieOp::read(DieIndex(0), 1, 1, 0));
        assert_eq!(b.start, a.end);
        assert_eq!(sim.stats().cell_contention, a.end);
    }

    #[test]
    fn write_timing_includes_program_after_transfer() {
        // TLC LSB page write: transfer in (20480 + 300), program 440 µs.
        let mut sim = tlc_sim();
        let out = sim.execute(0, &DieOp::write(DieIndex(0), 1, 1, 0));
        assert_eq!(out.end, 300 + 20_480 + 440_000);
        assert_eq!(sim.stats().bytes_written, 8192);
    }

    #[test]
    fn msb_write_is_much_slower() {
        let mut lsb = tlc_sim();
        let mut msb = tlc_sim();
        let a = lsb.execute(0, &DieOp::write(DieIndex(0), 1, 1, 0));
        let b = msb.execute(0, &DieOp::write(DieIndex(0), 1, 1, 2));
        assert_eq!(b.end - a.end, 6_000_000 - 440_000);
    }

    #[test]
    fn erase_occupies_die_not_channel() {
        let mut sim = tlc_sim();
        let out = sim.execute(0, &DieOp::erase(DieIndex(0), 1));
        assert_eq!(out.end, 300 + 3_000_000);
        assert_eq!(sim.stats().channel_activation, 0);
        // A read on another die of the same channel is unaffected.
        let r = sim.execute(0, &DieOp::read(DieIndex(2), 1, 1, 0));
        assert_eq!(r.end, 170_780);
    }

    #[test]
    fn die_busy_equals_span_sum() {
        // Covers `cache_registers = false` only: a die's ops then never
        // overlap, so coalescing its spans loses no busy time.
        let mut sim = tlc_sim();
        for i in 0..10u64 {
            let die = DieIndex((i % 8) as u32);
            sim.execute(i * 1000, &DieOp::read(die, 2, 4, 0));
        }
        let st = sim.stats();
        let by_interval: u64 = st.die_spans.iter().flatten().map(|&(s, e)| e - s).sum();
        let by_counter: u64 = st.die_busy.iter().sum();
        assert_eq!(by_interval, by_counter);
        assert_eq!(st.ops, 10);
    }

    #[test]
    fn pcm_read_is_orders_of_magnitude_faster_per_byte() {
        let mut pcm = MediaSim::new(MediaConfig::tiny(NvmKind::Pcm, sdr400()));
        let mut tlc = tlc_sim();
        // Move 8 KiB from one die in both media.
        let p = pcm.execute(0, &DieOp::read(DieIndex(0), 2, 128, 0));
        let t = tlc.execute(0, &DieOp::read(DieIndex(0), 2, 1, 0));
        assert!(p.end < t.end / 3, "pcm {} vs tlc {}", p.end, t.end);
    }

    #[test]
    fn cache_registers_rearm_the_die_early() {
        let mut plain = tlc_sim();
        let mut cfg = *plain.config();
        cfg.cache_registers = true;
        let mut cached = MediaSim::new(cfg);
        // Two back-to-back single-page reads on the same die.
        for sim in [&mut plain, &mut cached] {
            sim.execute(0, &DieOp::read(DieIndex(0), 1, 1, 0));
        }
        let p = plain.execute(0, &DieOp::read(DieIndex(0), 1, 1, 0));
        let c = cached.execute(0, &DieOp::read(DieIndex(0), 1, 1, 0));
        // Plain: second sense waits for the first transfer to drain.
        // Cached: second sense starts right after the first sense.
        assert!(c.start < p.start, "cached {} vs plain {}", c.start, p.start);
        assert!(c.end < p.end);
    }

    #[test]
    fn report_utilizations_bounded() {
        let mut sim = tlc_sim();
        let mut last = 0;
        for i in 0..64u64 {
            let die = DieIndex((i % 8) as u32);
            let out = sim.execute(0, &DieOp::read(die, 2, 8, 0));
            last = last.max(out.end);
        }
        let cfg = *sim.config();
        let rep = sim.stats().finalize(&cfg, last, 0);
        assert!(rep.channel_util > 0.0 && rep.channel_util <= 1.0);
        assert!(rep.package_util > 0.0 && rep.package_util <= 1.0);
        assert!(rep.die_util > 0.0 && rep.die_util <= 1.0);
        assert!(rep.active_span <= last);
        assert!(rep.remaining_mb_s >= 0.0);
        assert_eq!(rep.bytes, 64 * 8 * 8192);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_die() {
        let mut sim = tlc_sim();
        sim.execute(0, &DieOp::read(DieIndex(999), 1, 1, 0));
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn rejects_empty_op() {
        let mut sim = tlc_sim();
        sim.execute(0, &DieOp::read(DieIndex(0), 1, 0, 0));
    }
}
