//! Exporters: Prometheus text exposition, JSON, and an ASCII span-tree
//! ("flame") dump — plus a Prometheus parser for round-tripping.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{
    bucket_index, quantiles_from_buckets, BucketCount, CounterSnapshot, GaugeSnapshot,
    HistogramSnapshot, BUCKETS,
};
use crate::registry::TelemetrySnapshot;
use crate::span::SpanSnapshot;

/// Rewrites a dotted metric name into the `[a-zA-Z0-9_]` alphabet
/// Prometheus requires (`cache.l0.hits` → `cache_l0_hits`).
pub fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Renders the snapshot in the Prometheus text exposition format.
///
/// Each metric carries a `# HELP <sanitized> <dotted.name>` line holding
/// the original dotted name, which [`parse_prometheus`] uses to recover
/// it (the `.`→`_` rewrite is otherwise lossy). Histograms emit
/// cumulative `_bucket{le="…"}` series plus `_sum`/`_count` per the
/// Prometheus convention, and additionally `_min`/`_max` series.
pub fn prometheus(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for c in &snapshot.counters {
        let san = sanitize(&c.name);
        let _ = writeln!(out, "# HELP {san} {}", c.name);
        let _ = writeln!(out, "# TYPE {san} counter");
        let _ = writeln!(out, "{san} {}", c.value);
    }
    for g in &snapshot.gauges {
        let san = sanitize(&g.name);
        let _ = writeln!(out, "# HELP {san} {}", g.name);
        let _ = writeln!(out, "# TYPE {san} gauge");
        let _ = writeln!(out, "{san} {}", g.value);
    }
    for h in &snapshot.histograms {
        let san = sanitize(&h.name);
        let _ = writeln!(out, "# HELP {san} {}", h.name);
        let _ = writeln!(out, "# TYPE {san} histogram");
        let mut cumulative = 0u64;
        for b in &h.buckets {
            cumulative += b.count;
            let _ = writeln!(out, "{san}_bucket{{le=\"{}\"}} {cumulative}", b.le);
        }
        let _ = writeln!(out, "{san}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{san}_sum {}", h.sum);
        let _ = writeln!(out, "{san}_count {}", h.count);
        let _ = writeln!(out, "{san}_min {}", h.min);
        let _ = writeln!(out, "{san}_max {}", h.max);
    }
    out
}

/// Serializes the snapshot as JSON.
pub fn json(snapshot: &TelemetrySnapshot) -> String {
    // A telemetry exporter must never take the platform down: fall back
    // to an empty document if serialisation ever fails.
    serde_json::to_string(snapshot).unwrap_or_else(|_| "{}".to_string())
}

/// Rebuilds a snapshot from [`json`] output.
pub fn from_json(text: &str) -> Result<TelemetrySnapshot, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

#[derive(Default)]
struct PartialHistogram {
    buckets: Vec<BucketCount>,
    sum: u64,
    count: u64,
    min: u64,
    max: u64,
}

/// Parses [`prometheus`] output back into a snapshot.
///
/// Quantiles are recomputed from the bucket counts with the same
/// estimator the live registry uses, so
/// `parse_prometheus(&prometheus(&s)) == Ok(s)` holds for any snapshot
/// `s`.
pub fn parse_prometheus(text: &str) -> Result<TelemetrySnapshot, String> {
    let mut names: BTreeMap<String, String> = BTreeMap::new(); // sanitized → dotted
    let mut kinds: BTreeMap<String, Kind> = BTreeMap::new();
    let mut counters: Vec<CounterSnapshot> = Vec::new();
    let mut gauges: Vec<GaugeSnapshot> = Vec::new();
    let mut partials: BTreeMap<String, PartialHistogram> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        let err = |msg: &str| format!("line {}: {msg}: {line}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (san, dotted) = rest.split_once(' ').ok_or_else(|| err("malformed HELP"))?;
            names.insert(san.to_string(), dotted.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (san, kind) = rest.split_once(' ').ok_or_else(|| err("malformed TYPE"))?;
            let kind = match kind {
                "counter" => Kind::Counter,
                "gauge" => Kind::Gauge,
                "histogram" => Kind::Histogram,
                other => return Err(err(&format!("unknown type {other:?}"))),
            };
            kinds.insert(san.to_string(), kind);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').ok_or_else(|| err("missing value"))?;

        // Histogram component series: <san>_bucket{le="…"}, _sum, _count, _min, _max.
        if let Some((san, le)) = series
            .split_once("_bucket{le=\"")
            .and_then(|(s, rest)| rest.strip_suffix("\"}").map(|le| (s, le)))
        {
            if kinds.get(san) == Some(&Kind::Histogram) {
                if le == "+Inf" {
                    continue; // redundant with _count
                }
                let le: u64 = le.parse().map_err(|_| err("bad le bound"))?;
                let cumulative: u64 = value.parse().map_err(|_| err("bad bucket count"))?;
                partials
                    .entry(san.to_string())
                    .or_default()
                    .buckets
                    .push(BucketCount { le, count: cumulative });
                continue;
            }
        }
        let mut matched = false;
        for suffix in ["_sum", "_count", "_min", "_max"] {
            if let Some(san) = series.strip_suffix(suffix) {
                if kinds.get(san) == Some(&Kind::Histogram) {
                    let v: u64 = value.parse().map_err(|_| err("bad histogram value"))?;
                    let p = partials.entry(san.to_string()).or_default();
                    match suffix {
                        "_sum" => p.sum = v,
                        "_count" => p.count = v,
                        "_min" => p.min = v,
                        _ => p.max = v,
                    }
                    matched = true;
                    break;
                }
            }
        }
        if matched {
            continue;
        }

        let dotted =
            names.get(series).cloned().ok_or_else(|| err("series without HELP line"))?;
        match kinds.get(series) {
            Some(Kind::Counter) => counters.push(CounterSnapshot {
                name: dotted,
                value: value.parse().map_err(|_| err("bad counter value"))?,
            }),
            Some(Kind::Gauge) => gauges.push(GaugeSnapshot {
                name: dotted,
                value: value.parse().map_err(|_| err("bad gauge value"))?,
            }),
            _ => return Err(err("series without TYPE line")),
        }
    }

    let mut histograms: Vec<HistogramSnapshot> = Vec::new();
    for (san, p) in partials {
        let dotted = names
            .get(&san)
            .cloned()
            .ok_or_else(|| format!("histogram {san} without HELP line"))?;
        // De-cumulate the bucket series and rebuild the raw bucket array.
        let mut buckets = Vec::with_capacity(p.buckets.len());
        let mut raw = [0u64; BUCKETS];
        let mut previous = 0u64;
        for b in &p.buckets {
            let count = b
                .count
                .checked_sub(previous)
                .ok_or_else(|| format!("histogram {san}: non-monotonic buckets"))?;
            previous = b.count;
            if count > 0 {
                buckets.push(BucketCount { le: b.le, count });
                raw[bucket_index(b.le)] += count;
            }
        }
        let (p50, p95, p99) = quantiles_from_buckets(&raw, p.count);
        histograms.push(HistogramSnapshot {
            name: dotted,
            count: p.count,
            sum: p.sum,
            min: p.min,
            max: p.max,
            p50,
            p95,
            p99,
            buckets,
        });
    }
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    counters.sort_by(|a, b| a.name.cmp(&b.name));
    gauges.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(TelemetrySnapshot { counters, gauges, histograms })
}

/// Formats nanoseconds for humans (`1.5ms`, `312µs`, `42ns`).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders a span tree as an indented ASCII "flame" listing, one span
/// per line with simulated and wall durations side by side.
pub fn flame(spans: &[SpanSnapshot]) -> String {
    let mut out = String::new();
    let width = spans.iter().map(|s| s.name.len() + 2 * s.depth).max().unwrap_or(0);
    for s in spans {
        let _ = writeln!(
            out,
            "{:indent$}{:<pad$}  sim {:>10}  wall {:>10}",
            "",
            s.name,
            fmt_ns(s.sim_ns),
            fmt_ns(s.wall_ns),
            indent = 2 * s.depth,
            pad = width - 2 * s.depth,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> TelemetrySnapshot {
        let reg = Registry::new();
        reg.counter("cache.l0.hits").add(42);
        reg.counter("ledger.pipeline.proposed").add(7);
        reg.gauge("ingest.dlq.depth").set(3);
        reg.gauge("resilience.breaker.state").set(-1);
        for v in [0u64, 1, 17, 900, 900, 4096, u64::MAX] {
            reg.histogram("cloudsim.link.inter_region.latency_ns").record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn prometheus_round_trip() {
        let snap = sample();
        let text = prometheus(&snap);
        assert!(text.contains("# TYPE cache_l0_hits counter"));
        assert!(text.contains("cloudsim_link_inter_region_latency_ns_bucket{le=\"+Inf\"} 7"));
        let parsed = parse_prometheus(&text).expect("parse back");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn json_round_trip() {
        let snap = sample();
        let parsed = from_json(&json(&snap)).expect("parse back");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn empty_round_trips() {
        let snap = TelemetrySnapshot::default();
        assert_eq!(parse_prometheus(&prometheus(&snap)).unwrap(), snap);
        assert_eq!(from_json(&json(&snap)).unwrap(), snap);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_prometheus("what_is_this 7").is_err());
        assert!(parse_prometheus("# TYPE x thing\n").is_err());
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
