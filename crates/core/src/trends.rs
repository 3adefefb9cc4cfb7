//! Figure 1: bandwidth over time for high-performance networks versus NVM
//! storage, and the crossover the paper's argument rests on.
//!
//! The figure plots per-channel bandwidth (log2 GB/s) of real devices and
//! network generations from 1998 to 2016. The exact values here are read
//! off the published figure and public datasheets; what matters for the
//! reproduction is the *shape*: NVM bandwidth grows much faster than
//! point-to-point network bandwidth and overtakes it around 2012.

/// Which technology family a data point belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendSeries {
    /// InfiniBand generations (per-link).
    InfiniBand,
    /// Fibre Channel generations.
    FibreChannel,
    /// Flash-based SSDs (magnetic-era devices included for the early tail).
    FlashSsd,
    /// Non-flash NVM devices (RAM-SSD, PCM prototypes) and projections.
    OtherNvm,
}

/// One Figure-1 data point.
#[derive(Debug, Clone, Copy)]
pub struct TrendPoint {
    /// Device / generation name.
    pub name: &'static str,
    /// Year of general availability.
    pub year: u32,
    /// Bandwidth per channel, GB/s.
    pub gb_s: f64,
    /// Series.
    pub series: TrendSeries,
}

/// The Figure-1 dataset.
pub fn figure1_points() -> Vec<TrendPoint> {
    use TrendSeries::*;
    vec![
        // Storage devices (early magnetic tail, then SSDs).
        TrendPoint {
            name: "Winchester",
            year: 1998,
            gb_s: 0.0156,
            series: FlashSsd,
        },
        TrendPoint {
            name: "A25FB",
            year: 2001,
            gb_s: 0.031,
            series: FlashSsd,
        },
        TrendPoint {
            name: "ST-Zeus",
            year: 2004,
            gb_s: 0.06,
            series: FlashSsd,
        },
        TrendPoint {
            name: "Intel-X25",
            year: 2008,
            gb_s: 0.25,
            series: FlashSsd,
        },
        TrendPoint {
            name: "SF-1000",
            year: 2009,
            gb_s: 0.5,
            series: FlashSsd,
        },
        TrendPoint {
            name: "ioDrive",
            year: 2010,
            gb_s: 0.75,
            series: FlashSsd,
        },
        TrendPoint {
            name: "Z-Drive R4",
            year: 2011,
            gb_s: 2.8,
            series: FlashSsd,
        },
        TrendPoint {
            name: "ioDrive2",
            year: 2012,
            gb_s: 3.0,
            series: FlashSsd,
        },
        TrendPoint {
            name: "ioDrive Octal",
            year: 2012,
            gb_s: 6.0,
            series: FlashSsd,
        },
        TrendPoint {
            name: "Future PCIe SSD",
            year: 2015,
            gb_s: 8.0,
            series: FlashSsd,
        },
        // Non-flash NVM.
        TrendPoint {
            name: "Silicon Disk II (RAM-SSD)",
            year: 2005,
            gb_s: 0.125,
            series: OtherNvm,
        },
        TrendPoint {
            name: "Onyx PCM Prototype",
            year: 2011,
            gb_s: 1.1,
            series: OtherNvm,
        },
        TrendPoint {
            name: "NonFlash-NVM SSD",
            year: 2013,
            gb_s: 4.0,
            series: OtherNvm,
        },
        TrendPoint {
            name: "Future Multi-channel PCM-SSD",
            year: 2016,
            gb_s: 16.0,
            series: OtherNvm,
        },
        // InfiniBand generations (4X links).
        TrendPoint {
            name: "IB SDR 4X",
            year: 2002,
            gb_s: 1.0,
            series: InfiniBand,
        },
        TrendPoint {
            name: "IB DDR 4X",
            year: 2005,
            gb_s: 2.0,
            series: InfiniBand,
        },
        TrendPoint {
            name: "IB QDR 4X",
            year: 2008,
            gb_s: 4.0,
            series: InfiniBand,
        },
        TrendPoint {
            name: "IB FDR 4X",
            year: 2011,
            gb_s: 6.8,
            series: InfiniBand,
        },
        TrendPoint {
            name: "IB EDR 4X",
            year: 2014,
            gb_s: 12.1,
            series: InfiniBand,
        },
        // Fibre Channel generations.
        TrendPoint {
            name: "FC 1G",
            year: 1998,
            gb_s: 0.1,
            series: FibreChannel,
        },
        TrendPoint {
            name: "FC 2G",
            year: 2001,
            gb_s: 0.2,
            series: FibreChannel,
        },
        TrendPoint {
            name: "FC 4G",
            year: 2004,
            gb_s: 0.4,
            series: FibreChannel,
        },
        TrendPoint {
            name: "FC 8G",
            year: 2008,
            gb_s: 0.8,
            series: FibreChannel,
        },
        TrendPoint {
            name: "FC 16G",
            year: 2012,
            gb_s: 1.6,
            series: FibreChannel,
        },
    ]
}

/// Least-squares exponential fit `gb_s ≈ 2^(a + b * (year - 1998))`
/// over a series; returns `(a, b)` — `b` is the doubling rate per year.
pub fn log2_fit(points: &[TrendPoint], series: TrendSeries) -> (f64, f64) {
    let xs: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.series == series)
        .map(|p| ((p.year - 1998) as f64, p.gb_s.log2()))
        .collect();
    assert!(xs.len() >= 2, "need at least two points to fit");
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().map(|(x, _)| x).sum();
    let sy: f64 = xs.iter().map(|(_, y)| y).sum();
    let sxx: f64 = xs.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = xs.iter().map(|(x, y)| x * y).sum();
    let b = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let a = (sy - b * sx) / n;
    (a, b)
}

/// First year in which the best available NVM device (flash or other NVM,
/// projections included) out-runs the best available network generation —
/// the visual crossover of Figure 1. Returns `None` if it never happens
/// within the dataset.
pub fn crossover_year(points: &[TrendPoint]) -> Option<u32> {
    let mut years: Vec<u32> = points.iter().map(|p| p.year).collect();
    years.sort_unstable();
    years.dedup();
    let best = |pred: &dyn Fn(&TrendPoint) -> bool, until: u32| -> f64 {
        points
            .iter()
            .filter(|p| p.year <= until && pred(p))
            .map(|p| p.gb_s)
            .fold(0.0, f64::max)
    };
    let is_nvm = |p: &TrendPoint| matches!(p.series, TrendSeries::FlashSsd | TrendSeries::OtherNvm);
    let is_net = |p: &TrendPoint| {
        matches!(
            p.series,
            TrendSeries::InfiniBand | TrendSeries::FibreChannel
        )
    };
    years
        .into_iter()
        .find(|&y| best(&is_nvm, y) > best(&is_net, y) && best(&is_net, y) > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_nonempty_per_series() {
        let pts = figure1_points();
        for s in [
            TrendSeries::InfiniBand,
            TrendSeries::FibreChannel,
            TrendSeries::FlashSsd,
            TrendSeries::OtherNvm,
        ] {
            assert!(pts.iter().filter(|p| p.series == s).count() >= 2, "{s:?}");
        }
    }

    #[test]
    fn nvm_grows_faster_than_networks() {
        let pts = figure1_points();
        let (_, b_ssd) = log2_fit(&pts, TrendSeries::FlashSsd);
        let (_, b_ib) = log2_fit(&pts, TrendSeries::InfiniBand);
        let (_, b_fc) = log2_fit(&pts, TrendSeries::FibreChannel);
        assert!(b_ssd > b_ib, "ssd {b_ssd} vs ib {b_ib}");
        assert!(b_ssd > b_fc);
    }

    #[test]
    fn crossover_lands_near_the_paper_epoch() {
        // Figure 1's premise: NVM "shows great potential to far surpass
        // network bandwidth within the decade" — the best NVM device
        // overtakes the best network generation by the mid-2010s.
        let y = crossover_year(&figure1_points()).expect("crossover exists");
        assert!(
            (2011..=2017).contains(&y),
            "crossover year {y} outside the expected window"
        );
    }

    #[test]
    fn fit_reproduces_a_perfect_exponential() {
        let pts = vec![
            TrendPoint {
                name: "a",
                year: 2000,
                gb_s: 1.0,
                series: TrendSeries::FlashSsd,
            },
            TrendPoint {
                name: "b",
                year: 2002,
                gb_s: 4.0,
                series: TrendSeries::FlashSsd,
            },
            TrendPoint {
                name: "c",
                year: 2004,
                gb_s: 16.0,
                series: TrendSeries::FlashSsd,
            },
        ];
        let (a, b) = log2_fit(&pts, TrendSeries::FlashSsd);
        assert!((b - 1.0).abs() < 1e-9); // doubling every year
        assert!((a - (-2.0)).abs() < 1e-9); // 2^-2 at 1998
    }
}
