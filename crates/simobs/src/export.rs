//! Trace export: Chrome trace-event JSON (Perfetto / `chrome://tracing`
//! loadable) and a compact text flamegraph-style rollup.
//!
//! The Chrome format wants microsecond timestamps; simulated time is
//! nanoseconds. Timestamps are rendered with *integer* division as
//! `µs.³` (three fractional digits), so no float formatting can perturb
//! the output: equal logs render byte-identical JSON. The export header
//! (`otherData`) carries the emitted/dropped accounting from the
//! bounded sink, so a truncated trace is visibly truncated.

use crate::event::{EventKind, Layer};
use crate::json::Json;
use crate::sink::TraceLog;
use nvmtypes::{approx_f64, Nanos};

/// Version tag written into `otherData.format` — bump on layout change.
pub const TRACE_FORMAT: &str = "oocnvm.trace/1";

/// Renders nanoseconds as a Chrome-trace microsecond number with three
/// fractional digits, using integer math only.
fn us_num(ns: Nanos) -> Json {
    Json::Num(format!("{}.{:03}", ns / 1_000, ns % 1_000))
}

/// Exports a drained [`TraceLog`] as a Chrome trace-event JSON document.
///
/// One process (`pid` 1, named `oocnvm-sim`) with one thread lane per
/// [`Layer`]; spans use phase `"X"`, instants phase `"i"` with thread
/// scope. Counters and histograms ride along in `otherData` so a trace
/// file is self-contained.
pub fn chrome_trace(log: &TraceLog) -> String {
    let mut events = Vec::new();
    // Process/thread metadata first: Perfetto uses these to label lanes.
    events.push(
        Json::obj()
            .field("name", Json::str("process_name"))
            .field("ph", Json::str("M"))
            .field("pid", Json::u64(1))
            .field("tid", Json::u64(0))
            .field("args", Json::obj().field("name", Json::str("oocnvm-sim"))),
    );
    for layer in Layer::ALL {
        events.push(
            Json::obj()
                .field("name", Json::str("thread_name"))
                .field("ph", Json::str("M"))
                .field("pid", Json::u64(1))
                .field("tid", Json::u64(layer.tid()))
                .field("args", Json::obj().field("name", Json::str(layer.label()))),
        );
    }
    for ev in &log.events {
        let mut args = Json::obj();
        for &(key, value) in &ev.args {
            if !key.is_empty() {
                args = args.field(key, Json::u64(value));
            }
        }
        let mut entry = Json::obj()
            .field("name", Json::str(ev.name))
            .field("cat", Json::str(ev.layer.label()))
            .field(
                "ph",
                Json::str(match ev.kind {
                    EventKind::Span => "X",
                    EventKind::Instant => "i",
                }),
            )
            .field("ts", us_num(ev.ts));
        entry = match ev.kind {
            EventKind::Span => entry.field("dur", us_num(ev.dur)),
            EventKind::Instant => entry.field("s", Json::str("t")),
        };
        entry = entry
            .field("pid", Json::u64(1))
            .field("tid", Json::u64(ev.layer.tid()))
            .field("args", args);
        events.push(entry);
    }

    let mut counters = Json::obj();
    for (name, value) in log.metrics.counters() {
        counters = counters.field(name, Json::u64(value));
    }
    let mut gauges = Json::obj();
    for (name, value) in log.metrics.gauges() {
        gauges = gauges.field(name, Json::u64(value));
    }
    let mut hists = Json::obj();
    for (name, h) in log.metrics.histograms() {
        let buckets = Json::Arr(
            h.nonzero_buckets()
                .into_iter()
                .map(|(bound, count)| Json::Arr(vec![Json::u64(bound), Json::u64(count)]))
                .collect(),
        );
        hists = hists.field(
            name,
            Json::obj()
                .field("total", Json::u64(h.total()))
                .field("sum_ns", Json::u64(h.sum()))
                .field("max_ns", Json::u64(h.max()))
                .field("buckets", buckets),
        );
    }

    let mut other = Json::obj()
        .field("format", Json::str(TRACE_FORMAT))
        .field("emitted", Json::u64(log.emitted))
        .field("dropped", Json::u64(log.dropped))
        .field("counters", counters)
        .field("gauges", gauges)
        .field("histograms", hists);
    // Precision HDR histograms ride along only when present, so traces
    // from code that never observes into one render exactly as before.
    let mut hdrs = Json::obj();
    let mut any_hdr = false;
    for (name, h) in log.metrics.hdr_histograms() {
        hdrs = hdrs.field(name, h.to_json());
        any_hdr = true;
    }
    if any_hdr {
        other = other.field("hdr_histograms", hdrs);
    }

    Json::obj()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", Json::str("ns"))
        .field("otherData", other)
        .render()
}

/// Renders the compact flamegraph-style text rollup: cumulative span
/// time per `(layer, name)`, widest first within each layer, with the
/// emitted/dropped header and the counter block.
pub fn rollup(log: &TraceLog) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# simobs rollup: {} events collected, {} emitted, {} dropped\n",
        log.events.len(),
        log.emitted,
        log.dropped
    ));
    let mut totals = log.span_totals();
    // Layer track order, then cumulative time descending, then name:
    // a total order, so the rollup is deterministic.
    totals.sort_by(|a, b| {
        (a.0, std::cmp::Reverse(a.2), a.1).cmp(&(b.0, std::cmp::Reverse(b.2), b.1))
    });
    for (layer, name, cum, count) in totals {
        let label = format!("{}/{name}", layer.label());
        out.push_str(&format!(
            "{label:<28} {:>12.3} ms  x{count}\n",
            approx_f64(cum) / 1e6
        ));
    }
    let counters: Vec<(&str, u64)> = log.metrics.counters().collect();
    if !counters.is_empty() {
        out.push_str("# counters\n");
        for (name, value) in counters {
            out.push_str(&format!("{name:<28} {value:>12}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_ARGS;
    use crate::sink::Tracer;
    use crate::{Layer, Metric};

    fn sample_log() -> TraceLog {
        let mut obs = Tracer::ring(16);
        obs.span(
            Layer::Media,
            "die_read",
            0,
            150_000,
            [("die", 0), ("pages", 1)],
        );
        obs.span(
            Layer::Link,
            "host_dma",
            150_000,
            160_500,
            [("bytes", 8192), ("", 0)],
        );
        obs.instant(Layer::Ftl, "gc", 42, NO_ARGS);
        obs.count(Metric::SsdRequests, 1);
        obs.observe_ns(Metric::SsdLatencyNs, 160_500);
        obs.finish()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_integer_timestamps() {
        let text = chrome_trace(&sample_log());
        let doc = crate::json::parse(&text).expect("export must be valid JSON");
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("traceEvents missing: {other:?}"),
        };
        // 1 process meta + one thread meta per layer + 3 events.
        assert_eq!(events.len(), 1 + Layer::ALL.len() + 3);
        assert!(text.contains("\"ts\":150.000"), "µs.³ timestamps");
        assert!(text.contains("\"dur\":10.500"));
        assert!(text.contains("\"ph\":\"X\"") && text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"format\":\"oocnvm.trace/1\""));
        assert!(text.contains("\"dropped\":0"));
        assert!(text.contains("\"ssd.requests\":1"));
    }

    #[test]
    fn export_is_byte_deterministic() {
        let a = chrome_trace(&sample_log());
        let b = chrome_trace(&sample_log());
        assert_eq!(a, b);
        assert_eq!(rollup(&sample_log()), rollup(&sample_log()));
    }

    #[test]
    fn rollup_orders_by_layer_then_weight() {
        let text = rollup(&sample_log());
        assert!(text.starts_with("# simobs rollup: 3 events"));
        let media = text.find("media/die_read").expect("media line");
        let link = text.find("link/host_dma").expect("link line");
        assert!(media < link, "layer track order");
        assert!(text.contains("# counters"));
        assert!(text.contains("ssd.requests"));
    }

    #[test]
    fn hdr_histograms_export_only_when_observed() {
        let plain = chrome_trace(&sample_log());
        assert!(
            !plain.contains("hdr_histograms"),
            "no HDR block without observations"
        );
        let mut obs = Tracer::ring(16);
        obs.observe_hdr_ns(Metric::SsdLatencyNs, 123_456);
        obs.observe_hdr_ns(Metric::SsdLatencyNs, 654_321);
        let text = chrome_trace(&obs.finish());
        let doc = crate::json::parse(&text).expect("valid JSON");
        let hdr = doc
            .get("otherData")
            .and_then(|o| o.get("hdr_histograms"))
            .and_then(|h| h.get("ssd.latency_ns"))
            .expect("HDR block present");
        assert_eq!(hdr.get("count"), Some(&Json::u64(2)));
    }

    #[test]
    fn dropped_count_is_surfaced_in_the_header() {
        let mut obs = Tracer::ring(1);
        for i in 0..5 {
            obs.span(Layer::Run, "tick", i, i + 1, NO_ARGS);
        }
        let log = obs.finish();
        let json = chrome_trace(&log);
        assert!(json.contains("\"emitted\":5"));
        assert!(json.contains("\"dropped\":4"));
        assert!(rollup(&log).contains("5 emitted, 4 dropped"));
    }
}
