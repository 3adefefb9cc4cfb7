//! Execution-state accounting (Figure 10), utilization (Figure 9), and the
//! PAL parallelism taxonomy of the paper's §4.5.
//!
//! Utilization is computed without sorting. A die serves one op at a
//! time, so each op starts strictly after the previous op on its die
//! started; the engine therefore keeps each die's busy time as a list
//! of coalesced spans that is sorted and disjoint by construction (a
//! new op either extends the die's last span or opens a new one).
//! [`RawStats::finalize`] then builds the unions bottom-up — die →
//! package → channel → device — each level a linear merge of the
//! already-coalesced level below, because dies nest in packages and
//! packages nest in channels.

use crate::config::MediaConfig;
use crate::intervals::Interval;
use nvmtypes::convert::{approx_f64, usize_from_u32};
use nvmtypes::Nanos;

/// The paper's four parallelism levels (§4.5):
///
/// * **PAL1** — system-level parallelism via channel striping and channel
///   pipelining only,
/// * **PAL2** — die (bank) interleaving on top of PAL1,
/// * **PAL3** — multi-plane mode operation on top of PAL1,
/// * **PAL4** — all of the above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PalLevel {
    /// Channel striping / pipelining only.
    Pal1,
    /// Die interleaving on top of PAL1.
    Pal2,
    /// Multi-plane operation on top of PAL1.
    Pal3,
    /// Die interleaving and multi-plane together.
    Pal4,
}

impl PalLevel {
    /// Classifies a request from the resources its die-ops engaged:
    /// whether any channel ran two or more distinct dies (die
    /// interleaving), and whether any die-op engaged two or more planes
    /// (multi-plane mode).
    pub fn classify(die_interleaved: bool, multiplane: bool) -> PalLevel {
        match (die_interleaved, multiplane) {
            (false, false) => PalLevel::Pal1,
            (true, false) => PalLevel::Pal2,
            (false, true) => PalLevel::Pal3,
            (true, true) => PalLevel::Pal4,
        }
    }

    /// Index 0..4 for histogram storage.
    pub fn index(self) -> usize {
        match self {
            PalLevel::Pal1 => 0,
            PalLevel::Pal2 => 1,
            PalLevel::Pal3 => 2,
            PalLevel::Pal4 => 3,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        ["PAL1", "PAL2", "PAL3", "PAL4"][self.index()]
    }
}

/// Distribution of requests over the four PAL levels (Figures 10b/10d).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PalHistogram {
    /// Request counts per level (index via [`PalLevel::index`]).
    pub counts: [u64; 4],
}

impl PalHistogram {
    /// Records one request's achieved level.
    pub fn add(&mut self, level: PalLevel) {
        self.counts[level.index()] += 1;
    }

    /// Total requests recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Percentages per level (sums to 100 for a non-empty histogram).
    pub fn percent(&self) -> [f64; 4] {
        let total = self.total();
        if total == 0 {
            return [0.0; 4];
        }
        self.counts
            .map(|c| 100.0 * approx_f64(c) / approx_f64(total))
    }
}

/// The six execution-state buckets of Figures 10a/10c, in ns of resource
/// time attributed to each state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecBreakdown {
    /// Data movement between the SSD and the host (thin interface, PCIe
    /// bus, network) not overlapped with any media activity.
    pub non_overlapped_dma: Nanos,
    /// Data movement between die registers and the channel (command,
    /// address and register-shift cycles).
    pub flash_bus_activation: Nanos,
    /// Data movement on the shared channel bus.
    pub channel_activation: Nanos,
    /// Waiting on an NVM die already busy serving another request.
    pub cell_contention: Nanos,
    /// Waiting on a channel already busy serving another request.
    pub channel_contention: Nanos,
    /// Actually performing a read / program / erase on the cells.
    pub cell_activation: Nanos,
}

impl ExecBreakdown {
    /// Total attributed time.
    pub fn total(&self) -> Nanos {
        self.non_overlapped_dma
            + self.flash_bus_activation
            + self.channel_activation
            + self.cell_contention
            + self.channel_contention
            + self.cell_activation
    }

    /// Percentages in the order
    /// `[non-overlapped DMA, flash bus, channel, cell contention,
    ///   channel contention, cell activation]` (Figure 10 legend order).
    pub fn percent(&self) -> [f64; 6] {
        let total = self.total();
        if total == 0 {
            return [0.0; 6];
        }
        let f = |v: Nanos| 100.0 * approx_f64(v) / approx_f64(total);
        [
            f(self.non_overlapped_dma),
            f(self.flash_bus_activation),
            f(self.channel_activation),
            f(self.cell_contention),
            f(self.channel_contention),
            f(self.cell_activation),
        ]
    }
}

/// Raw accounting the engine accumulates while executing die-ops.
#[derive(Debug, Clone, Default)]
pub struct RawStats {
    /// Cell activation time (ns) summed over dies.
    pub cell_activation: Nanos,
    /// Cell contention (die-busy wait) time.
    pub cell_contention: Nanos,
    /// Channel data-transfer time.
    pub channel_activation: Nanos,
    /// Channel wait time.
    pub channel_contention: Nanos,
    /// Command/address/register overhead time.
    pub flash_bus_activation: Nanos,
    /// Per-channel bus-busy totals.
    pub chan_busy: Vec<Nanos>,
    /// Per-die busy totals (die holds from op start to completion).
    pub die_busy: Vec<Nanos>,
    /// Sum of `die_busy` over every die, kept as ops execute so callers
    /// can read the running total without summing the dies.
    pub busy_total: Nanos,
    /// Per-die busy time as coalesced spans, indexed by global die:
    /// each list is sorted and disjoint.
    pub die_spans: Vec<Vec<Interval>>,
    /// Payload bytes read from the media.
    pub bytes_read: u64,
    /// Payload bytes written to the media.
    pub bytes_written: u64,
    /// Blocks erased.
    pub blocks_erased: u64,
    /// Number of die-ops executed.
    pub ops: u64,
}

impl RawStats {
    /// Creates accounting sized for a device.
    pub fn new(channels: usize, dies: usize) -> RawStats {
        RawStats {
            chan_busy: vec![0; channels],
            die_busy: vec![0; dies],
            die_spans: vec![Vec::new(); dies],
            ..RawStats::default()
        }
    }

    /// Records that `die` was busy over `[start, end)`. The caller
    /// guarantees `start` is strictly later than the start of the die's
    /// previous op, so the op either extends the die's last span
    /// (overlapping or adjacent) or opens a new one after it.
    pub(crate) fn record_busy(&mut self, die: usize, start: Nanos, end: Nanos) {
        self.die_busy[die] += end - start;
        self.busy_total += end - start;
        let spans = &mut self.die_spans[die];
        match spans.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => spans.push((start, end)),
        }
    }

    /// Total payload bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Finished media-side report for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct MediaReport {
    /// End-to-end simulated time (ns) — set by the caller (SSD layer),
    /// since completion includes host DMA.
    pub makespan: Nanos,
    /// Union length of all media busy intervals (ns).
    pub active_span: Nanos,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Media-level throughput over the makespan, MB/s.
    pub media_bandwidth_mb_s: f64,
    /// Channel-level utilization over the device-active span, `[0, 1]`
    /// (Figure 9a's definition: percent of total channels kept busy
    /// throughout the execution).
    pub channel_util: f64,
    /// Package-level utilization over the device-active span, `[0, 1]`
    /// (Figure 9b: percent of packages kept busy serving requests).
    pub package_util: f64,
    /// Die-level utilization over the whole makespan, `[0, 1]` — a die is
    /// busy from operation start to completion, including time it holds its
    /// registers waiting on the shared bus.
    pub die_util: f64,
    /// Cell-level utilization over the whole makespan, `[0, 1]` — the
    /// fraction of aggregate cell time actually spent sensing,
    /// programming or erasing. The basis of the bandwidth-remaining
    /// headroom metric.
    pub cell_util: f64,
    /// Bandwidth the media's cells could still deliver: cell-aggregate
    /// read bandwidth scaled by cell idleness (Figures 7b/8b), MB/s.
    /// Media that completes its work quickly and idles (UFS behind a PCIe
    /// ceiling, ION-remote media behind a network) leaves a lot; media
    /// kept grinding on fragmented single-plane operations leaves little.
    pub remaining_mb_s: f64,
    /// Execution-state breakdown (Figure 10a/10c).
    pub breakdown: ExecBreakdown,
    /// Device-wide media busy spans, sorted and disjoint (for host-DMA
    /// overlap accounting).
    pub busy: Vec<Interval>,
}

impl RawStats {
    /// Rolls the raw accounting up into a [`MediaReport`].
    ///
    /// `makespan` is the full run duration including host-side time;
    /// `non_overlapped_dma` is the host-DMA time the SSD layer measured as
    /// not overlapping any media activity.
    pub fn finalize(
        &self,
        cfg: &MediaConfig,
        makespan: Nanos,
        non_overlapped_dma: Nanos,
    ) -> MediaReport {
        let g = &cfg.geometry;
        // "Kept busy" utilizations (Figure 9): a package is busy while any
        // of its dies serves a request; a channel is busy while any of its
        // packages does. Die `d` sits in package `d % packages` and
        // package `p` on channel `p % channels` (channels divide
        // packages), so each level is the union of the level below.
        let n_dies = self.die_spans.len();
        let n_pkg = usize_from_u32(g.total_packages());
        let n_chan = usize_from_u32(g.channels);
        let pkgs = Level::union_of(n_dies, |d| &self.die_spans[d], n_pkg);
        let chans = Level::union_of(n_pkg, |p| pkgs.group(p), n_chan);
        let device = Level::union_of(n_chan, |c| chans.group(c), 1);
        let pkg_busy_total = pkgs.covered;
        let chan_busy_total = chans.covered;
        let active_span = device.covered;

        let channel_util = if active_span == 0 {
            0.0
        } else {
            (approx_f64(chan_busy_total) / approx_f64(u64::from(g.channels) * active_span)).min(1.0)
        };
        let package_util = if active_span == 0 {
            0.0
        } else {
            (approx_f64(pkg_busy_total) / approx_f64(u64::from(g.total_packages()) * active_span))
                .min(1.0)
        };
        let die_util = if makespan == 0 {
            0.0
        } else {
            (approx_f64(self.busy_total) / approx_f64(u64::from(g.total_dies()) * makespan))
                .min(1.0)
        };
        let cell_util = if makespan == 0 {
            0.0
        } else {
            (approx_f64(self.cell_activation) / approx_f64(u64::from(g.total_dies()) * makespan))
                .min(1.0)
        };

        let remaining_bpns = (1.0 - cell_util) * cfg.cell_aggregate_read_bw();

        MediaReport {
            makespan,
            active_span,
            bytes: self.bytes(),
            media_bandwidth_mb_s: nvmtypes::mb_per_s(self.bytes(), makespan),
            channel_util,
            package_util,
            die_util,
            cell_util,
            remaining_mb_s: remaining_bpns * 1e3,
            breakdown: ExecBreakdown {
                non_overlapped_dma,
                flash_bus_activation: self.flash_bus_activation,
                channel_activation: self.channel_activation,
                cell_contention: self.cell_contention,
                channel_contention: self.channel_contention,
                cell_activation: self.cell_activation,
            },
            busy: device.spans,
        }
    }
}

/// One level of the utilization hierarchy (packages, channels or the
/// whole device): each group's busy spans, sorted and disjoint, stored
/// back to back.
struct Level {
    /// Every group's spans, group `i` at `spans[off[i]..off[i + 1]]`.
    spans: Vec<Interval>,
    off: Vec<usize>,
    /// Summed covered length over all groups, ns.
    covered: Nanos,
}

impl Level {
    /// Unions `n_lower` sorted, disjoint span lists into `groups`
    /// groups, group `i` taking lower lists `i, i + groups, …` — the
    /// dies of a package, the packages of a channel, the channels of the
    /// device. Each group is a k-way merge that always takes the
    /// earliest-starting span and coalesces it into the previous one
    /// when they overlap or touch; nothing is sorted. The lower level's
    /// span count bounds the output, so the three buffers are allocated
    /// once, outside the group loop.
    fn union_of<'a>(
        n_lower: usize,
        lower: impl Fn(usize) -> &'a [Interval],
        groups: usize,
    ) -> Level {
        let capacity = (0..n_lower).map(|i| lower(i).len()).sum();
        let mut spans: Vec<Interval> = Vec::with_capacity(capacity);
        let mut off = Vec::with_capacity(groups + 1);
        let mut runs: Vec<&[Interval]> = Vec::with_capacity(n_lower.div_ceil(groups));
        off.push(0);
        for group in 0..groups {
            runs.extend(
                (group..n_lower)
                    .step_by(groups)
                    .map(&lower)
                    .filter(|r| !r.is_empty()),
            );
            let first = spans.len();
            while let Some(i) = (0..runs.len()).min_by_key(|&i| runs[i][0].0) {
                let (s, e) = runs[i][0];
                runs[i] = &runs[i][1..];
                if runs[i].is_empty() {
                    runs.swap_remove(i);
                }
                match spans[first..].last_mut() {
                    Some(last) if s <= last.1 => last.1 = last.1.max(e),
                    _ => spans.push((s, e)),
                }
            }
            off.push(spans.len());
        }
        let covered = spans.iter().map(|&(s, e)| e - s).sum();
        Level {
            spans,
            off,
            covered,
        }
    }

    /// Group `i`'s spans.
    fn group(&self, i: usize) -> &[Interval] {
        &self.spans[self.off[i]..self.off[i + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pal_classification_matrix() {
        assert_eq!(PalLevel::classify(false, false), PalLevel::Pal1);
        assert_eq!(PalLevel::classify(true, false), PalLevel::Pal2);
        assert_eq!(PalLevel::classify(false, true), PalLevel::Pal3);
        assert_eq!(PalLevel::classify(true, true), PalLevel::Pal4);
    }

    #[test]
    fn pal_histogram_percentages() {
        let mut h = PalHistogram::default();
        h.add(PalLevel::Pal4);
        h.add(PalLevel::Pal4);
        h.add(PalLevel::Pal1);
        h.add(PalLevel::Pal3);
        let p = h.percent();
        assert!((p[3] - 50.0).abs() < 1e-12);
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        assert_eq!(PalHistogram::default().percent(), [0.0; 4]);
    }

    #[test]
    fn breakdown_percent_sums_to_100() {
        let b = ExecBreakdown {
            non_overlapped_dma: 10,
            flash_bus_activation: 20,
            channel_activation: 30,
            cell_contention: 15,
            channel_contention: 5,
            cell_activation: 20,
        };
        assert_eq!(b.total(), 100);
        let p = b.percent();
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!((p[5] - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_percent_is_zero() {
        assert_eq!(ExecBreakdown::default().percent(), [0.0; 6]);
    }
}
