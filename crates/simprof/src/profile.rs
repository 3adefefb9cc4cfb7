//! The two profile builders: a host-domain span tree fed by an injected
//! clock, and a simulated-domain attribution rebuilt from a trace log.
//!
//! Both sides produce the same shape — name, call count, inclusive
//! time, exclusive (*self*) time — so a bench report can print them side
//! by side and a baseline diff can treat them uniformly. Determinism:
//! nothing here reads a real clock or iterates an unordered container;
//! given equal inputs (clock readings, trace logs) the outputs are
//! byte-identical.

use nvmtypes::Nanos;
use simobs::json::Json;
use simobs::{EventKind, Layer, TraceLog};
use std::collections::BTreeMap;

/// Source of host-domain timestamps, nanoseconds from an arbitrary
/// epoch, monotone non-decreasing.
///
/// The profiler only ever subtracts readings, so the epoch is free. This
/// crate deliberately has no real-time implementation — wall clocks are
/// banned from the simulator crates (simlint `wall_clock`), and keeping
/// the trait object-safe lets the one exempt crate (`bench`) inject
/// `std::time::Instant` from outside.
pub trait HostClock {
    /// Current reading, ns.
    fn now_ns(&mut self) -> Nanos;
}

/// A clock that never moves: host times all come out zero. The default
/// for contexts that only want the simulated domain.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullClock;

impl HostClock for NullClock {
    fn now_ns(&mut self) -> Nanos {
        0
    }
}

/// A deterministic test clock: starts at zero and advances by a fixed
/// step on every reading, so profiler tests can assert exact host times.
#[derive(Debug, Clone, Copy)]
pub struct TickClock {
    t: Nanos,
    step: Nanos,
}

impl TickClock {
    /// A clock advancing `step` ns per reading.
    pub fn new(step: Nanos) -> TickClock {
        TickClock { t: 0, step }
    }
}

impl HostClock for TickClock {
    fn now_ns(&mut self) -> Nanos {
        let now = self.t;
        self.t = self.t.saturating_add(self.step);
        now
    }
}

/// One arena node of the live profiler tree.
#[derive(Debug)]
struct Node {
    name: &'static str,
    children: BTreeMap<&'static str, usize>,
    calls: u64,
    host_ns: Nanos,
    sim_ns: Nanos,
}

impl Node {
    fn new(name: &'static str) -> Node {
        Node {
            name,
            children: BTreeMap::new(),
            calls: 0,
            host_ns: 0,
            sim_ns: 0,
        }
    }
}

/// A hierarchical dual-domain span profiler.
///
/// Drive it with [`Profiler::enter`] / [`Profiler::exit`] around the
/// phases of a run; host time is read from the injected clock at each
/// boundary, and [`Profiler::add_sim`] attributes simulated nanoseconds
/// (already computed by the simulator) to the currently open span.
/// [`Profiler::finish`] closes anything still open and returns the
/// rolled-up [`ProfileReport`].
///
/// ```
/// use simprof::{Profiler, TickClock};
///
/// let mut p = Profiler::new(Box::new(TickClock::new(10)));
/// p.enter("solve");
/// p.enter("io");
/// p.add_sim(5_000);
/// p.exit();
/// p.exit();
/// let report = p.finish();
/// assert_eq!(report.root.children[0].name, "solve");
/// assert_eq!(report.root.children[0].sim_ns, 5_000);
/// ```
#[derive(Debug)]
pub struct Profiler {
    clock: Box<dyn HostClock>,
    nodes: Vec<Node>,
    /// Open spans: `(node index, host start reading)`. Entry 0 is the
    /// synthetic root and is never popped by [`Profiler::exit`].
    stack: Vec<(usize, Nanos)>,
}

impl std::fmt::Debug for dyn HostClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HostClock")
    }
}

impl Profiler {
    /// A profiler reading host time from `clock`. The root span ("total")
    /// opens immediately.
    pub fn new(mut clock: Box<dyn HostClock>) -> Profiler {
        let start = clock.now_ns();
        let mut root = Node::new("total");
        root.calls = 1;
        Profiler {
            clock,
            nodes: vec![root],
            stack: vec![(0, start)],
        }
    }

    /// Index of the currently open node (the root when nothing else is).
    fn top(&self) -> usize {
        self.stack.last().map(|&(i, _)| i).unwrap_or(0)
    }

    /// Opens a child span named `name` under the current span. Re-entering
    /// the same name under the same parent accumulates into one node.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.top();
        let idx = match self.nodes.get(parent).and_then(|p| p.children.get(name)) {
            Some(&i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(Node::new(name));
                if let Some(p) = self.nodes.get_mut(parent) {
                    p.children.insert(name, i);
                }
                i
            }
        };
        if let Some(n) = self.nodes.get_mut(idx) {
            n.calls = n.calls.saturating_add(1);
        }
        let now = self.clock.now_ns();
        self.stack.push((idx, now));
    }

    /// Closes the current span, charging its host elapsed time. Exiting
    /// with only the root open is a no-op (unbalanced exits are absorbed,
    /// never a panic).
    pub fn exit(&mut self) {
        if self.stack.len() <= 1 {
            return;
        }
        let now = self.clock.now_ns();
        if let Some((idx, start)) = self.stack.pop() {
            if let Some(n) = self.nodes.get_mut(idx) {
                n.host_ns = n.host_ns.saturating_add(now.saturating_sub(start));
            }
        }
    }

    /// Attributes `ns` simulated nanoseconds to the currently open span.
    pub fn add_sim(&mut self, ns: Nanos) {
        let idx = self.top();
        if let Some(n) = self.nodes.get_mut(idx) {
            n.sim_ns = n.sim_ns.saturating_add(ns);
        }
    }

    /// Closes every open span (deepest first) and returns the report.
    pub fn finish(mut self) -> ProfileReport {
        while self.stack.len() > 1 {
            self.exit();
        }
        let now = self.clock.now_ns();
        if let Some(&(0, start)) = self.stack.first() {
            if let Some(root) = self.nodes.get_mut(0) {
                root.host_ns = now.saturating_sub(start);
            }
        }
        ProfileReport {
            root: build_node(&self.nodes, 0),
        }
    }
}

/// Recursively converts the arena into the exported tree, computing
/// exclusive times. Children come out in name order (the arena keeps
/// them in a `BTreeMap`), so equal profiles render byte-identically.
fn build_node(nodes: &[Node], idx: usize) -> ProfileNode {
    let Some(n) = nodes.get(idx) else {
        return ProfileNode::leaf("?");
    };
    let children: Vec<ProfileNode> = n.children.values().map(|&c| build_node(nodes, c)).collect();
    let child_host: Nanos = children.iter().map(|c| c.host_ns).sum();
    let child_sim: Nanos = children.iter().map(|c| c.sim_ns).sum();
    let sim_ns = n.sim_ns.saturating_add(child_sim);
    ProfileNode {
        name: n.name,
        calls: n.calls,
        host_ns: n.host_ns,
        host_self_ns: n.host_ns.saturating_sub(child_host),
        sim_ns,
        sim_self_ns: n.sim_ns,
        children,
    }
}

/// One reported span: inclusive and exclusive time in both domains.
///
/// Invariants (exact, integer): `host_self_ns = host_ns − Σ children
/// host_ns` (saturating at 0 if the clock misbehaves), and `sim_ns =
/// sim_self_ns + Σ children sim_ns` — simulated time is attributed
/// bottom-up by [`Profiler::add_sim`], so the inclusive figure is a pure
/// rollup and the tree always balances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Span name.
    pub name: &'static str,
    /// Times this span was entered.
    pub calls: u64,
    /// Inclusive host time, ns.
    pub host_ns: Nanos,
    /// Exclusive host time, ns.
    pub host_self_ns: Nanos,
    /// Inclusive simulated time, ns (rolled up from children).
    pub sim_ns: Nanos,
    /// Simulated time attributed directly to this span, ns.
    pub sim_self_ns: Nanos,
    /// Child spans, in name order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn leaf(name: &'static str) -> ProfileNode {
        ProfileNode {
            name,
            calls: 0,
            host_ns: 0,
            host_self_ns: 0,
            sim_ns: 0,
            sim_self_ns: 0,
            children: Vec::new(),
        }
    }

    /// This node as a JSON object (children nested under `"children"`,
    /// omitted when empty).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .field("name", Json::str(self.name))
            .field("calls", Json::u64(self.calls))
            .field("host_ns", Json::u64(self.host_ns))
            .field("host_self_ns", Json::u64(self.host_self_ns))
            .field("sim_ns", Json::u64(self.sim_ns))
            .field("sim_self_ns", Json::u64(self.sim_self_ns));
        if !self.children.is_empty() {
            obj = obj.field(
                "children",
                Json::Arr(self.children.iter().map(ProfileNode::to_json).collect()),
            );
        }
        obj
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{:<24} calls={:<6} host={}ns (self {}ns)  sim={}ns (self {}ns)\n",
            self.name, self.calls, self.host_ns, self.host_self_ns, self.sim_ns, self.sim_self_ns
        ));
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }
}

/// The finished dual-domain profile tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// The synthetic root ("total") covering the whole profiled window.
    pub root: ProfileNode,
}

impl ProfileReport {
    /// Indented text rendering for console output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render_into(0, &mut out);
        out
    }

    /// The whole tree as JSON.
    pub fn to_json(&self) -> Json {
        self.root.to_json()
    }
}

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

    /// Total span instances attributed.
    pub fn calls(&self) -> u64 {
        self.spans
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.calls))
    }

    /// The attribution as a JSON object.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .field("layer", Json::str(s.layer.label()))
                    .field("name", Json::str(s.name))
                    .field("calls", Json::u64(s.calls))
                    .field("total_ns", Json::u64(s.total_ns))
                    .field("self_ns", Json::u64(s.self_ns))
            })
            .collect();
        let layers = self
            .layers
            .iter()
            .map(|l| {
                Json::obj()
                    .field("layer", Json::str(l.layer.label()))
                    .field("calls", Json::u64(l.calls))
                    .field("self_ns", Json::u64(l.self_ns))
            })
            .collect();
        Json::obj()
            .field("union_ns", Json::u64(self.union_ns))
            .field("layers", Json::Arr(layers))
            .field("spans", Json::Arr(spans))
    }

    /// Text rendering: per-layer rollup then per-span lines.
    pub fn render(&self) -> String {
        let mut out = format!("simulated window (span union): {} ns\n", self.union_ns);
        for l in &self.layers {
            out.push_str(&format!(
                "  {:<8} self={:<14} calls={}\n",
                l.layer.label(),
                l.self_ns,
                l.calls
            ));
        }
        for s in &self.spans {
            out.push_str(&format!(
                "    {:<8} {:<20} calls={:<8} total={:<14} self={}\n",
                s.layer.label(),
                s.name,
                s.calls,
                s.total_ns,
                s.self_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simobs::event::NO_ARGS;
    use simobs::Tracer;

    #[test]
    fn tick_clock_is_deterministic() {
        let mut c = TickClock::new(7);
        assert_eq!((c.now_ns(), c.now_ns(), c.now_ns()), (0, 7, 14));
        assert_eq!(NullClock.now_ns(), 0);
        assert_eq!(NullClock.now_ns(), 0);
    }

    #[test]
    fn profiler_rolls_up_both_domains_exactly() {
        // TickClock step 10: every clock reading advances 10 ns.
        let mut p = Profiler::new(Box::new(TickClock::new(10)));
        p.enter("a"); // reads 10 (start a)
        p.add_sim(100);
        p.enter("b"); // reads 20 (start b)
        p.add_sim(30);
        p.exit(); // reads 30: b host = 10
        p.exit(); // reads 40: a host = 30
        p.enter("a"); // reads 50, same node again
        p.exit(); // reads 60: a host += 10
        let r = p.finish(); // reads 70: root host = 70 - 0
        assert_eq!(r.root.name, "total");
        assert_eq!(r.root.host_ns, 70);
        let a = &r.root.children[0];
        assert_eq!((a.name, a.calls, a.host_ns), ("a", 2, 40));
        let b = &a.children[0];
        assert_eq!((b.name, b.host_ns, b.host_self_ns), ("b", 10, 10));
        assert_eq!(a.host_self_ns, 30, "a minus b");
        assert_eq!(r.root.host_self_ns, 30, "root minus a");
        // Sim domain: b self 30, a self 100 → a inclusive 130.
        assert_eq!((a.sim_ns, a.sim_self_ns), (130, 100));
        assert_eq!(r.root.sim_ns, 130);
        // Exclusive host times over the tree sum to the root's inclusive.
        fn sum_self(n: &ProfileNode) -> u64 {
            n.host_self_ns + n.children.iter().map(sum_self).sum::<u64>()
        }
        assert_eq!(sum_self(&r.root), r.root.host_ns);
    }

    #[test]
    fn unbalanced_exits_are_absorbed() {
        let mut p = Profiler::new(Box::new(TickClock::new(1)));
        p.exit();
        p.exit();
        p.enter("x");
        let r = p.finish(); // finish closes the open span
        assert_eq!(r.root.children[0].name, "x");
    }

    #[test]
    fn profiler_output_is_reproducible() {
        let run = || {
            let mut p = Profiler::new(Box::new(TickClock::new(3)));
            for name in ["io", "compute", "io"] {
                p.enter(name);
                p.add_sim(11);
                p.exit();
            }
            p.finish()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json().render(), b.to_json().render());
    }

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
        assert_eq!(prof.calls(), 2);
    }

    #[test]
    fn sim_profile_is_deterministic_and_json_clean() {
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
        let text = a.to_json().render();
        assert_eq!(text, b.to_json().render());
        assert!(simobs::json::parse(&text).is_ok(), "valid JSON");
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
