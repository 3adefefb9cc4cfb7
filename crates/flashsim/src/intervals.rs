//! Half-open time intervals, as the utilization and host-DMA accounting
//! use them.

use nvmtypes::Nanos;

/// A half-open busy interval `[start, end)`.
pub type Interval = (Nanos, Nanos);

/// Length of `[s, e)` that is *not* covered by the merged set `cover`
/// (which must be sorted and disjoint, like [`crate::MediaReport::busy`]).
pub fn uncovered_len(s: Nanos, e: Nanos, cover: &[Interval]) -> Nanos {
    if e <= s {
        return 0;
    }
    // Find the first covering interval that could overlap [s, e).
    let mut idx = cover.partition_point(|&(_, ce)| ce <= s);
    let mut covered = 0;
    let mut cursor = s;
    while idx < cover.len() {
        let (cs, ce) = cover[idx];
        if cs >= e {
            break;
        }
        let lo = cs.max(cursor);
        let hi = ce.min(e);
        if hi > lo {
            covered += hi - lo;
            cursor = hi;
        }
        idx += 1;
    }
    (e - s) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncovered_basic() {
        let cover = [(10, 20), (30, 40)];
        // [0, 50): covered 10..20 and 30..40 => 20 covered, 30 uncovered.
        assert_eq!(uncovered_len(0, 50, &cover), 30);
        // Fully covered span.
        assert_eq!(uncovered_len(12, 18, &cover), 0);
        // Fully uncovered span.
        assert_eq!(uncovered_len(20, 30, &cover), 10);
        // Empty span.
        assert_eq!(uncovered_len(20, 20, &cover), 0);
    }

    #[test]
    fn uncovered_partial_edges() {
        let cover = [(10, 20)];
        assert_eq!(uncovered_len(5, 15, &cover), 5);
        assert_eq!(uncovered_len(15, 25, &cover), 5);
    }
}
