//! Event collection: the [`Tracer`] handle the simulators thread events
//! through, and the bounded ring it collects into.
//!
//! The tracer is the only type instrumented code touches. Its disabled
//! form ([`Tracer::off`]) answers [`Tracer::enabled`] with `false` and
//! drops every record before argument evaluation, so the hot-path cost
//! of tracing-off is one branch — and, critically for the determinism
//! contract, a tracer never feeds anything *back* into the simulation:
//! it draws no randomness, owns no clock, and returns no values the
//! caller could use.

use crate::event::{Event, EventArgs, EventKind, Layer};
use crate::metrics::{FixedHistogram, Metric, MetricSet};
use nvmtypes::{u64_from_usize, Nanos};
use std::collections::VecDeque;

/// A bounded ring buffer: keeps the most recent `capacity` events,
/// counting (not silently losing) the oldest ones it evicts. The drop
/// count is surfaced in the export header so a truncated trace can
/// never masquerade as a complete one.
#[derive(Debug)]
struct RingSink {
    capacity: usize,
    buf: VecDeque<Event>,
    dropped: u64,
}

impl RingSink {
    /// New ring holding at most `capacity` events (minimum 1).
    fn new(capacity: usize) -> RingSink {
        let capacity = capacity.max(1);
        RingSink {
            capacity,
            buf: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    fn record(&mut self, event: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    /// Events recorded so far: the ones held plus the ones evicted.
    fn emitted(&self) -> u64 {
        u64_from_usize(self.buf.len()) + self.dropped
    }
}

/// The handle instrumented code emits through.
///
/// ```
/// use simobs::{Layer, Metric, Tracer};
///
/// let mut obs = Tracer::ring(1024);
/// obs.span(Layer::Ssd, "read", 0, 2_000, [("bytes", 4096), ("", 0)]);
/// obs.count(Metric::SsdRequests, 1);
/// let log = obs.finish();
/// assert_eq!(log.events.len(), 1);
/// assert_eq!(log.metrics.counter(Metric::SsdRequests), 1);
/// ```
#[derive(Debug)]
pub struct Tracer {
    /// `None` when tracing is disabled.
    ring: Option<RingSink>,
    metrics: MetricSet,
}

impl Tracer {
    /// A disabled tracer: records nothing, allocates nothing.
    pub fn off() -> Tracer {
        Tracer {
            ring: None,
            metrics: MetricSet::new(),
        }
    }

    /// A tracer collecting into a bounded ring of `capacity` events
    /// (minimum 1).
    pub fn ring(capacity: usize) -> Tracer {
        Tracer {
            ring: Some(RingSink::new(capacity)),
            metrics: MetricSet::new(),
        }
    }

    /// True when events are being collected. Instrumented code guards
    /// argument construction behind this so tracing-off costs one branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Records a span covering `[start, end]` simulated ns.
    #[inline]
    pub fn span(
        &mut self,
        layer: Layer,
        name: &'static str,
        start: Nanos,
        end: Nanos,
        args: EventArgs,
    ) {
        if let Some(ring) = &mut self.ring {
            ring.record(Event::span(layer, name, start, end).with_args(args));
        }
    }

    /// Records an instant marker at `ts` simulated ns.
    #[inline]
    pub fn instant(&mut self, layer: Layer, name: &'static str, ts: Nanos, args: EventArgs) {
        if let Some(ring) = &mut self.ring {
            ring.record(Event::instant(layer, name, ts).with_args(args));
        }
    }

    /// Adds `delta` to counter `metric`. Like every tracer entry point,
    /// a disabled tracer skips the work entirely.
    #[inline]
    pub fn count(&mut self, metric: Metric, delta: u64) {
        if self.enabled() {
            self.metrics.count(metric, delta);
        }
    }

    /// Sets gauge `metric`.
    #[inline]
    pub fn gauge(&mut self, metric: Metric, value: u64) {
        if self.enabled() {
            self.metrics.gauge(metric, value);
        }
    }

    /// Records `value` into histogram `metric`.
    #[inline]
    pub fn observe_ns(&mut self, metric: Metric, value: Nanos) {
        if self.enabled() {
            self.metrics.observe_ns(metric, value);
        }
    }

    /// Records `value` into the precision HDR histogram `metric` (see
    /// [`crate::hdr`]).
    #[inline]
    pub fn observe_hdr_ns(&mut self, metric: Metric, value: Nanos) {
        if self.enabled() {
            self.metrics.observe_hdr_ns(metric, value);
        }
    }

    /// Events recorded so far (collected + dropped).
    pub fn emitted(&self) -> u64 {
        self.ring.as_ref().map_or(0, RingSink::emitted)
    }

    /// Read access to the collected metrics.
    pub fn metrics(&self) -> &MetricSet {
        &self.metrics
    }

    /// Ends the session: drains the ring into a [`TraceLog`] ready for
    /// export.
    pub fn finish(self) -> TraceLog {
        let emitted = self.emitted();
        let (events, dropped) = self
            .ring
            .map_or((Vec::new(), 0), |ring| (ring.buf.into(), ring.dropped));
        TraceLog {
            events,
            emitted,
            dropped,
            metrics: self.metrics,
        }
    }
}

/// The drained result of one tracing session.
#[derive(Debug)]
pub struct TraceLog {
    /// Collected events, oldest first.
    pub events: Vec<Event>,
    /// Events emitted in total (collected + dropped).
    pub emitted: u64,
    /// Events the bounded sink evicted.
    pub dropped: u64,
    /// The metric set recorded alongside.
    pub metrics: MetricSet,
}

impl TraceLog {
    /// Total span duration per `(layer, name)` key, in event order of
    /// first appearance — the aggregation behind [`crate::rollup`].
    pub fn span_totals(&self) -> Vec<(Layer, &'static str, Nanos, u64)> {
        let mut keys: Vec<(Layer, &'static str)> = Vec::new();
        let mut totals: Vec<(Nanos, u64)> = Vec::new();
        for ev in &self.events {
            if !matches!(ev.kind, EventKind::Span) {
                continue;
            }
            let key = (ev.layer, ev.name);
            match keys.iter().position(|&k| k == key) {
                Some(i) => {
                    if let Some(t) = totals.get_mut(i) {
                        t.0 += ev.dur;
                        t.1 += 1;
                    }
                }
                None => {
                    keys.push(key);
                    totals.push((ev.dur, 1));
                }
            }
        }
        keys.into_iter()
            .zip(totals)
            .map(|((l, n), (d, c))| (l, n, d, c))
            .collect()
    }

    /// Latency histogram `metric`, if recorded.
    pub fn histogram(&self, metric: Metric) -> Option<&FixedHistogram> {
        self.metrics
            .histograms()
            .find(|(n, _)| *n == metric.name())
            .map(|(_, h)| h)
    }

    /// Precision HDR histogram `metric`, if recorded.
    pub fn hdr(&self, metric: Metric) -> Option<&crate::hdr::HdrHistogram> {
        self.metrics.hdr(metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_ARGS;

    fn ev(ts: Nanos) -> Event {
        Event::span(Layer::Media, "op", ts, ts + 10)
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut ring = RingSink::new(3);
        for i in 0..10 {
            ring.record(ev(i));
        }
        assert_eq!(ring.dropped, 7);
        assert_eq!(ring.emitted(), 10);
        let ts: Vec<Nanos> = ring.buf.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![7, 8, 9], "newest survive, oldest dropped");
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut obs = Tracer::off();
        assert!(!obs.enabled());
        obs.span(Layer::Ssd, "read", 0, 100, NO_ARGS);
        obs.count(Metric::SsdRequests, 1);
        obs.observe_ns(Metric::SsdLatencyNs, 5);
        let log = obs.finish();
        assert!(log.events.is_empty());
        assert_eq!(log.emitted, 0);
        assert_eq!(log.metrics.counter(Metric::SsdRequests), 0);
    }

    #[test]
    fn finish_reports_emitted_vs_dropped() {
        let mut obs = Tracer::ring(2);
        for i in 0..5 {
            obs.instant(Layer::Run, "tick", i, NO_ARGS);
        }
        assert_eq!(obs.emitted(), 5);
        let log = obs.finish();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.emitted, 5);
        assert_eq!(log.dropped, 3);
    }

    #[test]
    fn span_totals_aggregate_by_layer_and_name() {
        let mut obs = Tracer::ring(16);
        obs.span(Layer::Media, "die_read", 0, 10, NO_ARGS);
        obs.span(Layer::Media, "die_read", 10, 30, NO_ARGS);
        obs.span(Layer::Link, "host_dma", 0, 5, NO_ARGS);
        obs.instant(Layer::Ftl, "gc", 3, NO_ARGS);
        let log = obs.finish();
        let totals = log.span_totals();
        assert_eq!(
            totals,
            vec![
                (Layer::Media, "die_read", 30, 2),
                (Layer::Link, "host_dma", 5, 1),
            ]
        );
    }
}
