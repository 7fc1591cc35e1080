//! The self-scrape tick's allocations, counted by the allocator itself.
//!
//! This binary installs [`CountingAlloc`] and runs the scraper's
//! sequence, `Registry::snapshot` → `Tsdb::ingest` → `SloEngine::evaluate`,
//! over counters, gauges and histograms under a ratio, a latency and a
//! gauge-level objective. Allocations are read from the
//! `scrape_allocs.count` phase row, which only the counting thread ever
//! tags, so other test threads cannot leak into a count.

use loki_obs::{
    BurnRule, CountingAlloc, Registry, SampleValue, SloEngine, SloKind, SloSpec, Tsdb, TsdbConfig,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocations counted so far under the `scrape_allocs.count` tag. Reads
/// under another tag, because reading allocates.
fn counted_so_far() -> u64 {
    loki_obs::phase!("scrape_allocs.read");
    CountingAlloc::phase_totals()
        .iter()
        .find(|p| p.phase == "scrape_allocs.count")
        .map_or(0, |p| p.allocs)
}

/// Runs `f` under the counting tag and returns how many allocations it
/// made, with its result.
fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = counted_so_far();
    loki_obs::phase!("scrape_allocs.count");
    let out = f();
    (counted_so_far() - before, out)
}

fn spec(name: &str, kind: SloKind) -> SloSpec {
    SloSpec {
        name: name.to_string(),
        objective: 0.99,
        kind,
        rules: vec![
            BurnRule { long_ticks: 60, short_ticks: 5, factor: 14.4 },
            BurnRule { long_ticks: 360, short_ticks: 30, factor: 6.0 },
        ],
        pending_ticks: 3,
        exemplar_family: Some("t_lat_seconds".to_string()),
    }
}

#[test]
fn a_warm_scrape_allocates_only_its_snapshot() {
    let reg = Registry::new("t");
    let requests: Vec<_> = ["2xx", "4xx", "5xx"]
        .into_iter()
        .map(|class| reg.counter("requests_total", "r", &[("class", class)]))
        .collect();
    let level = reg.gauge("near_cap_ratio", "n", &[]);
    let latency: Vec<_> = ["/a", "/b"]
        .into_iter()
        .map(|route| reg.histogram("lat_seconds", "l", loki_obs::LATENCY_BUCKETS, &[("route", route)]))
        .collect();
    let batch = reg.histogram("batch_size", "b", &[1.0, 4.0, 16.0], &[]);
    let histogram_children = 3;
    let db = Tsdb::new(TsdbConfig { samples_per_series: 64, max_series: 256 });
    let slo = SloEngine::new(
        vec![
            spec(
                "availability",
                SloKind::ErrorRatio {
                    bad_name: "t_requests_total".to_string(),
                    bad_filter: "class=\"5xx\"".to_string(),
                    total_name: "t_requests_total".to_string(),
                    total_filter: String::new(),
                },
            ),
            spec(
                "latency",
                SloKind::LatencyThreshold { family: "t_lat_seconds".to_string(), le: "0.25".to_string() },
            ),
            spec(
                "headroom",
                SloKind::GaugeLevel { name: "t_near_cap_ratio".to_string(), filter: String::new() },
            ),
        ],
        16,
    );
    // Healthy traffic, so no objective changes state: a transition
    // records an event, and that allocates.
    let record = |tick: u64| {
        requests[0].add(40 + tick % 7);
        requests[1].add(tick % 2);
        level.set(0.01);
        for (i, h) in latency.iter().enumerate() {
            h.observe_with_exemplar(0.001 * (i as f64 + 1.0), tick + 1);
        }
        batch.observe((tick % 20) as f64);
    };
    // Warm-up: every series admitted, every exemplar family known.
    for tick in 0..3 {
        record(tick);
        db.ingest(tick, &reg.snapshot());
        slo.evaluate(tick, &db);
    }
    // Past the ring's capacity, so eviction is counted too.
    for tick in 3..100 {
        record(tick);
        let (allocs, samples) = count(|| reg.snapshot());
        assert_eq!(
            allocs,
            1 + histogram_children,
            "a snapshot allocates its Vec and one `counts` per histogram child"
        );
        let histograms = samples.iter().filter(|s| matches!(s.value, SampleValue::Histogram { .. })).count();
        assert_eq!(histograms as u64, histogram_children);
        let (allocs, ()) = count(|| db.ingest(tick, &samples));
        assert_eq!(allocs, 0, "tick {tick}: ingest of a known layout");
        let (allocs, ()) = count(|| slo.evaluate(tick, &db));
        assert_eq!(allocs, 0, "tick {tick}: an evaluation without a transition");
    }
    assert_eq!(slo.history_total(), 0, "no objective changed state");
    assert_eq!(db.dropped_series(), 0);
}
