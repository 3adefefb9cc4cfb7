//! # simprof — exact simulated-time attribution for the oocnvm simulator
//!
//! [`SimSpanProfile`] rebuilds where simulated time went from a
//! [`simobs::TraceLog`]: a containment sweep over the recorded spans
//! yields per-`(layer, name)` total and *self* time whose self-times sum
//! exactly to the union of all spans (integer arithmetic, no residue).
//! Nothing here reads a real clock or iterates an unordered container,
//! so equal trace logs give equal profiles. Host time is measured by
//! the standalone `benchmark/` package.
//!
//! See `docs/PROFILING.md` for the two time domains.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nvmtypes::Nanos;
use simobs::{EventKind, Layer, TraceLog};
use std::collections::BTreeMap;

/// Per-`(layer, name)` simulated-time totals with exact self time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Emitting layer.
    pub layer: Layer,
    /// Span name.
    pub name: &'static str,
    /// Span instances.
    pub calls: u64,
    /// Summed span durations, ns (inclusive — nested spans count twice).
    pub total_ns: Nanos,
    /// Exclusive time: duration not covered by any contained span, ns.
    pub self_ns: Nanos,
}

/// Per-layer exclusive-time rollup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerStat {
    /// The layer.
    pub layer: Layer,
    /// Span instances attributed to it.
    pub calls: u64,
    /// Summed exclusive time, ns.
    pub self_ns: Nanos,
}

/// Exact simulated-time attribution over a recorded trace.
///
/// Built by a boundary sweep: every covered instant of simulated time is
/// attributed to exactly one span — the *innermost* one active there,
/// i.e. the latest-started (record order breaking ties). For nested
/// spans that is the classic flamegraph self-time (parent minus
/// children); for arbitrary overlaps (parallel die ops, cross-layer
/// partial overlap) it stays well defined, deterministic, and exact: the
/// self times of all spans always sum to [`SimSpanProfile::union_ns`],
/// the union of all span extents, with no integer residue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSpanProfile {
    /// Per-`(layer, name)` stats, in first-appearance (record) order.
    pub spans: Vec<SpanStat>,
    /// Per-layer self-time rollup, in [`Layer::ALL`] order; layers with
    /// no spans are omitted.
    pub layers: Vec<LayerStat>,
    /// Union of all span extents, ns — the profiled simulated window.
    pub union_ns: Nanos,
}

impl SimSpanProfile {
    /// Builds the attribution from a drained trace log.
    pub fn build(log: &TraceLog) -> SimSpanProfile {
        // Register keys in record order; collect span instances.
        let mut keys: Vec<(Layer, &'static str)> = Vec::new();
        let mut stats: Vec<SpanStat> = Vec::new();
        let mut items: Vec<(Nanos, Nanos, usize)> = Vec::new();
        for ev in &log.events {
            if !matches!(ev.kind, EventKind::Span) {
                continue;
            }
            let key = (ev.layer, ev.name);
            let stat = match keys.iter().position(|&k| k == key) {
                Some(i) => i,
                None => {
                    keys.push(key);
                    stats.push(SpanStat {
                        layer: ev.layer,
                        name: ev.name,
                        calls: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    keys.len() - 1
                }
            };
            if let Some(s) = stats.get_mut(stat) {
                s.calls = s.calls.saturating_add(1);
                s.total_ns = s.total_ns.saturating_add(ev.dur);
            }
            items.push((ev.ts, ev.ts.saturating_add(ev.dur), stat));
        }

        // Boundary sweep. `active` is keyed by (start asc, end desc,
        // instance index) so its *last* entry is always the innermost
        // active span — latest start, then earliest end, then latest
        // record; between consecutive boundaries the elapsed segment is
        // charged to it.
        let mut bounds: Vec<(Nanos, bool, usize)> = Vec::with_capacity(items.len() * 2);
        for (i, &(start, end, _)) in items.iter().enumerate() {
            bounds.push((start, false, i));
            bounds.push((end, true, i));
        }
        bounds.sort_unstable();
        let mut active: BTreeMap<(Nanos, std::cmp::Reverse<Nanos>, usize), usize> = BTreeMap::new();
        let mut union_ns: Nanos = 0;
        let mut prev: Nanos = 0;
        for &(t, is_end, i) in &bounds {
            if t > prev && !active.is_empty() {
                let seg = t - prev;
                union_ns = union_ns.saturating_add(seg);
                if let Some((_, &stat)) = active.iter().next_back() {
                    if let Some(s) = stats.get_mut(stat) {
                        s.self_ns = s.self_ns.saturating_add(seg);
                    }
                }
            }
            prev = t;
            if let Some(&(start, end, stat)) = items.get(i) {
                let key = (start, std::cmp::Reverse(end), i);
                if is_end {
                    active.remove(&key);
                } else {
                    active.insert(key, stat);
                }
            }
        }

        let layers = Layer::ALL
            .iter()
            .filter_map(|&layer| {
                let (calls, self_ns) = stats
                    .iter()
                    .filter(|s| s.layer == layer)
                    .fold((0u64, 0u64), |(c, t), s| {
                        (c.saturating_add(s.calls), t.saturating_add(s.self_ns))
                    });
                (calls > 0).then_some(LayerStat {
                    layer,
                    calls,
                    self_ns,
                })
            })
            .collect();
        SimSpanProfile {
            spans: stats,
            layers,
            union_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simobs::event::NO_ARGS;
    use simobs::Tracer;

    fn traced(f: impl FnOnce(&mut Tracer)) -> TraceLog {
        let mut obs = Tracer::ring(4096);
        f(&mut obs);
        obs.finish()
    }

    #[test]
    fn sim_profile_self_times_sum_to_the_union() {
        let log = traced(|obs| {
            // outer [0,100] containing two children [10,30] and [20,60]
            // (overlapping siblings), plus a disjoint root span [200,250].
            obs.span(Layer::Run, "outer", 0, 100, NO_ARGS);
            obs.span(Layer::Ssd, "c1", 10, 30, NO_ARGS);
            obs.span(Layer::Ssd, "c2", 20, 60, NO_ARGS);
            obs.span(Layer::Run, "tail", 200, 250, NO_ARGS);
        });
        let prof = SimSpanProfile::build(&log);
        assert_eq!(prof.union_ns, 150, "[0,100] ∪ [200,250]");
        let self_sum: u64 = prof.spans.iter().map(|s| s.self_ns).sum();
        assert_eq!(self_sum, prof.union_ns, "exact attribution");
        let outer = prof
            .spans
            .iter()
            .find(|s| s.name == "outer")
            .copied()
            .unwrap();
        // children cover [10,60]: 50 ns of outer's 100 are not self.
        assert_eq!(outer.self_ns, 50);
        let c1 = prof.spans.iter().find(|s| s.name == "c1").copied().unwrap();
        let c2 = prof.spans.iter().find(|s| s.name == "c2").copied().unwrap();
        // The sibling overlap [20,30) belongs to c2 (latest start wins),
        // so it is counted exactly once.
        assert_eq!(c1.self_ns, 10, "c1 keeps [10,20) only");
        assert_eq!(c2.self_ns, 40, "c2 owns [20,60)");
    }

    #[test]
    fn sim_profile_layers_roll_up_in_track_order() {
        let log = traced(|obs| {
            obs.span(Layer::Link, "dma", 0, 10, NO_ARGS);
            obs.span(Layer::Media, "op", 20, 40, NO_ARGS);
            obs.instant(Layer::Run, "marker", 5, NO_ARGS);
        });
        let prof = SimSpanProfile::build(&log);
        let labels: Vec<&str> = prof.layers.iter().map(|l| l.layer.label()).collect();
        assert_eq!(
            labels,
            vec!["media", "link"],
            "Layer::ALL order, instants ignored"
        );
        assert_eq!(prof.union_ns, 30);
        let calls: Vec<u64> = prof.layers.iter().map(|l| l.calls).collect();
        assert_eq!(calls, vec![1, 1]);
    }

    #[test]
    fn sim_profile_is_deterministic() {
        let build = || {
            let log = traced(|obs| {
                for i in 0..50u64 {
                    obs.span(Layer::Ssd, "req", i * 100, i * 100 + 90, NO_ARGS);
                    obs.span(Layer::Media, "die", i * 100 + 10, i * 100 + 50, NO_ARGS);
                }
            });
            SimSpanProfile::build(&log)
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
    }

    #[test]
    fn partial_overlap_is_clamped_not_negative() {
        let log = traced(|obs| {
            obs.span(Layer::Run, "a", 0, 50, NO_ARGS);
            // starts inside a, ends beyond it
            obs.span(Layer::Ssd, "b", 40, 120, NO_ARGS);
        });
        let prof = SimSpanProfile::build(&log);
        for s in &prof.spans {
            assert!(s.self_ns <= s.total_ns, "{}: self within total", s.name);
        }
        let a = prof.spans.iter().find(|s| s.name == "a").copied().unwrap();
        assert_eq!(a.self_ns, 40, "a keeps [0,40); [40,50) goes to b");
    }
}
