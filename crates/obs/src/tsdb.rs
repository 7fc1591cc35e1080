//! Fixed-memory ring-buffer time-series store (the history layer).
//!
//! `/v1/metrics` and the ε gauges are instantaneous; the paper's §3
//! framing — cumulative privacy loss *tracked over time* and balanced
//! across the whole base — needs history: "how fast is aggregate ε
//! burning?", "did submit p99 regress?", "page me when the WAL poisons".
//! This module is the retention side of that question: a zero-dependency
//! store of per-series rings fed by the server's self-scraper, which
//! samples every registered family straight from the atomic cells (see
//! [`crate::Registry::snapshot`] — no text-format round-trip).
//!
//! Design points:
//!
//! * **Fixed memory.** Every series is a ring of at most
//!   `samples_per_series` points, and at most `max_series` distinct
//!   series are ever admitted; past both caps the store only overwrites.
//!   Memory is provably bounded however long the process runs.
//! * **Coarse ticks.** Samples are `(tick, f64)` pairs where a tick is
//!   the scrape index (one tick per self-scrape interval). Queries,
//!   windows and downsampling all speak ticks, so tests can scale time
//!   by shrinking the scrape interval instead of sleeping wall-clock
//!   hours.
//! * **Counters keep their high-water mark.** A counter-kind point
//!   stores the highest raw value seen up to its tick, and the ring keeps
//!   the mark before its oldest point (`base`). Readers derive the
//!   per-tick *increase* as `(mark − previous mark).max(0.0)`: registry
//!   counters are monotone, so a lower reading is an older snapshot that
//!   lost the ingest race and adds nothing. The first sample attributes
//!   the counter's whole standing value to its first tick.
//! * **Slot storage, ingest by layout.** Rings live in a `Vec` in
//!   admission order and the key map holds each key's slot; queries walk
//!   the map in key order. Ingest keeps the previous call's layout: each
//!   sample's name, labels, value kind and histogram bounds, with the
//!   ring slots its series went to. A sample that matches the entry at
//!   its position writes its values straight into those slots, with no
//!   key rendered or looked up. From the first sample that does not
//!   match, ingest renders, looks up, admits or drops each key, and
//!   rebuilds the layout from there. A registry snapshot repeats its
//!   layout until a family or child is registered.
//! * **Window sums by seek.** Ingest refuses a tick at or below the
//!   newest one it has taken (a scrape that lost the race to the lock),
//!   so ticks ascend along every ring and a window's points are a range
//!   of it, found by binary search. A counter's window sum, "events in
//!   this window" (what the SLO burn-rate math needs), is then the mark
//!   at the window's last point minus the mark before its first: the
//!   SLO engine's windows cost two searches per series, not a scan.
//! * **Histogram fan-out.** A histogram sample expands into
//!   `{family}_bucket{le="…"}` (cumulative per-bound), `{family}_sum`
//!   and `{family}_count` counter-kind series, keyed exactly as
//!   `/v1/metrics` renders them (both go through the registry's one
//!   fan-out), plus a per-family exemplar trace id so an alert can point
//!   at a concrete violating request.
//!
//! **Privacy discipline:** series are keyed by metric name + label body
//! only. Labels are route shapes, methods, status classes and privacy
//! levels by the serving crates' construction; nothing here can carry an
//! identity, and the `loki-lint` sensitive-egress rule keeps forbidden
//! identifier names out of this module.

use crate::registry::{for_each_series, for_each_value, Sample, SampleValue};
use std::collections::{BTreeMap, VecDeque};
use std::mem::{discriminant, Discriminant};
use std::ops::Bound;
use std::sync::{Arc, Mutex, PoisonError};

/// Sizing knobs for a [`Tsdb`]. Memory is bounded by roughly
/// `max_series × samples_per_series × 16` bytes plus key strings.
#[derive(Debug, Clone, Copy)]
pub struct TsdbConfig {
    /// Retained points per series (ring capacity, minimum 1).
    pub samples_per_series: usize,
    /// Hard cap on distinct series; later series are counted in
    /// [`Tsdb::dropped_series`] and never stored (minimum 1).
    pub max_series: usize,
}

impl Default for TsdbConfig {
    fn default() -> TsdbConfig {
        TsdbConfig {
            // 512 ticks at the default 1 s scrape interval ≈ 8.5 minutes
            // of full-resolution history per series; ~1024 series covers
            // every server family including histogram fan-out.
            samples_per_series: 512,
            max_series: 1024,
        }
    }
}

/// How a series interprets incoming raw values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeriesKind {
    /// Store the raw value.
    Gauge,
    /// Store the high-water mark: the highest raw value seen so far.
    Counter,
}

/// One bounded series: a ring of `(tick, value)` points. A gauge's value
/// is its raw reading; a counter's is its mark after that tick, and its
/// per-tick increase is `(mark − previous mark).max(0.0)`.
#[derive(Debug)]
struct RingSeries {
    kind: SeriesKind,
    /// The mark before the oldest retained point: 0.0 until a point is
    /// evicted, then the evicted point's value (read for counters only).
    base: f64,
    /// The newest mark, for counter series.
    mark: f64,
    points: VecDeque<(u64, f64)>,
}

impl RingSeries {
    fn new(kind: SeriesKind, capacity: usize) -> RingSeries {
        RingSeries {
            kind,
            base: 0.0,
            mark: 0.0,
            points: VecDeque::with_capacity(capacity),
        }
    }

    fn push(&mut self, capacity: usize, tick: u64, raw: f64) {
        let value = match self.kind {
            SeriesKind::Gauge => raw,
            SeriesKind::Counter => {
                // A reading below the mark is an older snapshot than one
                // already stored: its events are counted.
                self.mark = self.mark.max(raw);
                self.mark
            }
        };
        if self.points.len() >= capacity {
            self.base = self.points.pop_front().map_or(self.base, |(_, evicted)| evicted);
        }
        self.points.push_back((tick, value));
    }

    /// The mark before the point at position `i`.
    fn mark_before(&self, i: usize) -> f64 {
        i.checked_sub(1).map_or(self.base, |i| self.points[i].1)
    }

    /// The stored values from position `first` on, oldest first: a
    /// gauge's readings, or a counter's per-tick increases, each derived
    /// from the mark before it in the same pass.
    fn values(&self, first: usize) -> impl Iterator<Item = (u64, f64)> + '_ {
        let mut prev = self.mark_before(first);
        self.points.range(first..).map(move |&(tick, value)| match self.kind {
            SeriesKind::Gauge => (tick, value),
            SeriesKind::Counter => (tick, (value - std::mem::replace(&mut prev, value)).max(0.0)),
        })
    }

    /// `sum` plus the stored values of the points whose tick lies in
    /// `(from, to]`, where `end` counts the points at or before `to`: a
    /// gauge's values one by one in ring order, a counter's rise of mark.
    fn add_window_sum(&self, sum: f64, from: u64, end: usize) -> f64 {
        let start = self.points.partition_point(|&(t, _)| t <= from);
        match self.kind {
            _ if start >= end => sum,
            SeriesKind::Gauge => self.points.range(start..end).fold(sum, |sum, &(_, value)| sum + value),
            SeriesKind::Counter => sum + (self.points[end - 1].1 - self.mark_before(start)).max(0.0),
        }
    }
}

/// One downsampled point covering a `step`-wide tick bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointAgg {
    /// First tick of the bin.
    pub tick: u64,
    /// Minimum stored value inside the bin.
    pub min: f64,
    /// Maximum stored value inside the bin.
    pub max: f64,
    /// Mean of stored values inside the bin.
    pub avg: f64,
    /// Most recent stored value inside the bin.
    pub last: f64,
    /// Number of raw points aggregated into the bin.
    pub count: u64,
}

/// One series' downsampled range-query result.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesData {
    /// Full series key: `name` or `name{label="…",…}`.
    pub key: String,
    /// Downsampled points, oldest first.
    pub points: Vec<PointAgg>,
}

/// One sample of the previous ingest, with the ring slot of each series
/// it fanned out into (`None` where the series cap refused one).
#[derive(Debug)]
struct Placed {
    name: Arc<str>,
    labels: Arc<str>,
    kind: Discriminant<SampleValue>,
    /// A histogram's bounds.
    bounds: Option<Arc<[f64]>>,
    slots: Vec<Option<usize>>,
}

impl Placed {
    /// Whether `sample` fans out into exactly the series placed here:
    /// same name, labels and value kind, and for a histogram the same
    /// bounds, bit for bit, and bucket count. Shared keys compare by
    /// pointer first.
    fn fits(&self, sample: &Sample) -> bool {
        let same = |a: &Arc<str>, b: &Arc<str>| Arc::ptr_eq(a, b) || a == b;
        same(&self.name, &sample.name)
            && same(&self.labels, &sample.labels)
            && self.kind == discriminant(&sample.value)
            && match (&sample.value, &self.bounds) {
                (SampleValue::Histogram { bounds, counts, .. }, Some(placed)) => {
                    counts.len() + 2 == self.slots.len()
                        && (Arc::ptr_eq(bounds, placed)
                            || (bounds.len() == placed.len()
                                && bounds.iter().zip(placed.iter()).all(|(a, b)| a.to_bits() == b.to_bits())))
                }
                _ => true,
            }
    }
}

#[derive(Debug, Default)]
struct TsdbInner {
    /// Every admitted series' ring, in admission order.
    rings: Vec<RingSeries>,
    /// The newest tick ingested; an ingest at or below it is refused.
    newest: Option<u64>,
    /// Series key → slot in `rings`; queries walk it in key order.
    series: BTreeMap<String, usize>,
    /// The previous ingest's samples in order, with their slots.
    layout: Vec<Placed>,
    /// Last exemplar trace id per histogram family.
    exemplars: BTreeMap<Arc<str>, u64>,
    dropped: u64,
}

impl TsdbInner {
    /// Pushes `raw` onto `key`'s ring, admitting the series while the
    /// cap allows. Returns the ring's slot, or `None` when refused.
    fn place(
        &mut self,
        config: &TsdbConfig,
        key: &str,
        kind: SeriesKind,
        tick: u64,
        raw: f64,
    ) -> Option<usize> {
        let slot = match self.series.get(key) {
            Some(&slot) => slot,
            None if self.rings.len() >= config.max_series => {
                self.dropped += 1;
                return None;
            }
            None => {
                self.rings.push(RingSeries::new(kind, config.samples_per_series));
                self.series.insert(key.to_string(), self.rings.len() - 1);
                self.rings.len() - 1
            }
        };
        self.rings[slot].push(config.samples_per_series, tick, raw);
        Some(slot)
    }
}

/// The fixed-memory time-series store. All methods take `&self`; one
/// mutex guards the series map (the scraper writes once per interval and
/// queries are operator-paced, so contention is nil by construction).
#[derive(Debug)]
pub struct Tsdb {
    config: TsdbConfig,
    inner: Mutex<TsdbInner>,
}

impl Default for Tsdb {
    fn default() -> Tsdb {
        Tsdb::new(TsdbConfig::default())
    }
}

impl Tsdb {
    /// An empty store with the given sizing.
    pub fn new(config: TsdbConfig) -> Tsdb {
        let config = TsdbConfig {
            samples_per_series: config.samples_per_series.max(1),
            max_series: config.max_series.max(1),
        };
        Tsdb {
            config,
            inner: Mutex::new(TsdbInner::default()),
        }
    }

    /// Ingests one scrape's worth of samples at `tick`. Histogram
    /// samples fan out into `_bucket`/`_sum`/`_count` derived series. A
    /// `tick` at or below the newest one ingested is refused whole: it
    /// comes from a scrape that lost the race to the lock.
    pub fn ingest(&self, tick: u64, samples: &[Sample]) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.newest.is_some_and(|newest| tick <= newest) {
            return;
        }
        inner.newest = Some(tick);
        let capacity = self.config.samples_per_series;
        // While each sample fits the one the previous ingest placed at
        // the same position, its values go straight into those slots. The
        // layout is taken out so the rings can be written while it is read.
        let mut layout = std::mem::take(&mut inner.layout);
        let mut reused = 0;
        for (sample, placed) in samples.iter().zip(&layout) {
            if !placed.fits(sample) {
                break;
            }
            let mut slots = placed.slots.iter();
            for_each_value(sample.value.view(), |raw| match slots.next() {
                Some(&Some(slot)) => inner.rings[slot].push(capacity, tick, raw),
                _ => inner.dropped += 1,
            });
            reused += 1;
        }
        // From the first miss on: render each key, look it up, admit or
        // drop it, and place the rest of the layout anew.
        layout.truncate(reused);
        let mut key = String::new();
        for sample in &samples[reused..] {
            let kind = match sample.value {
                SampleValue::Gauge(_) => SeriesKind::Gauge,
                _ => SeriesKind::Counter,
            };
            let mut slots = Vec::new();
            for_each_series(&mut key, &sample.name, &sample.labels, sample.value.view(), |key, raw| {
                slots.push(inner.place(&self.config, key, kind, tick, raw));
            });
            layout.push(Placed {
                name: Arc::clone(&sample.name),
                labels: Arc::clone(&sample.labels),
                kind: discriminant(&sample.value),
                bounds: match &sample.value {
                    SampleValue::Histogram { bounds, .. } => Some(Arc::clone(bounds)),
                    _ => None,
                },
                slots,
            });
        }
        inner.layout = layout;
        for sample in samples {
            // A known family keeps its key and drops the clone: no allocation.
            if let SampleValue::Histogram { exemplar_trace: Some(trace), .. } = sample.value {
                inner.exemplars.insert(Arc::clone(&sample.name), trace);
            }
        }
    }

    /// Downsampled range query: every series whose key starts with
    /// `name` and whose label body contains `label_filter` (empty filter
    /// matches everything), points with `tick >= since`, aggregated into
    /// `step`-wide bins (`step` 0 behaves as 1).
    pub fn query(&self, name: &str, label_filter: &str, since: u64, step: u64) -> Vec<SeriesData> {
        let step = step.max(1);
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::new();
        for (key, series) in matching(&inner, name, label_filter) {
            // Ticks ascend along the ring, so the points at or after
            // `since` are a suffix of it, binned at most once per `step`
            // up to the newest tick.
            let first = series.points.partition_point(|&(t, _)| t < since);
            let len = series.points.len() - first;
            let bins = series.points.back().map_or(0, |&(hi, _)| hi.saturating_sub(since) / step + 1);
            let mut points: Vec<PointAgg> =
                Vec::with_capacity(usize::try_from(bins).map_or(len, |b| b.min(len)));
            for (tick, value) in series.values(first) {
                // A point joins the open bin while it lies within `step` of
                // the bin's start; a bin's start is computed when it opens.
                match points.last_mut() {
                    Some(p) if tick - p.tick < step => {
                        p.min = p.min.min(value);
                        p.max = p.max.max(value);
                        // `avg` accumulates the sum until the bin closes.
                        p.avg += value;
                        p.last = value;
                        p.count += 1;
                    }
                    _ => points.push(PointAgg {
                        tick: since + (tick - since) / step * step,
                        min: value,
                        max: value,
                        avg: value,
                        last: value,
                        count: 1,
                    }),
                }
            }
            for p in &mut points {
                // Every bin holds at least one point.
                p.avg /= p.count as f64;
            }
            out.push(SeriesData {
                key: key.clone(),
                points,
            });
        }
        out
    }

    /// Sum of stored values over ticks in `(from, to]`, across matching
    /// series in key order; gauge values are added in ring order. For a
    /// counter this is "events in the window" (the SLO burn-rate math),
    /// the rise of its mark: `(mark at the last point − mark before the
    /// first).max(0.0)`. For integers below 2⁵³ (every registry counter, a
    /// histogram's `_bucket` and `_count`) that equals adding the per-tick
    /// increases, bit for bit; a float counter (`_sum`) gets it rounded once.
    pub fn window_sum(&self, name: &str, label_filter: &str, from: u64, to: u64) -> f64 {
        let mut sum = [0.0];
        self.window_sums(name, label_filter, to, &[to.saturating_sub(from)], &mut sum);
        sum[0]
    }

    /// Sets `sums[i]` to [`Tsdb::window_sum`] over `(to − widths[i], to]`
    /// (saturating at tick 0). Ticks ascend along a ring, so each window's
    /// points are a range of it found by binary search: a counter's sum
    /// reads two marks, and no window scans a counter's points.
    pub(crate) fn window_sums(
        &self,
        name: &str,
        label_filter: &str,
        to: u64,
        widths: &[u64],
        sums: &mut [f64],
    ) {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        sums.fill(0.0);
        for (_, series) in matching(&inner, name, label_filter) {
            let end = series.points.partition_point(|&(t, _)| t <= to);
            for (sum, width) in sums.iter_mut().zip(widths) {
                *sum = series.add_window_sum(*sum, to.saturating_sub(*width), end);
            }
        }
    }

    /// The most recent stored value across matching series (highest
    /// tick wins), e.g. the current level of a gauge series.
    pub fn latest(&self, name: &str, label_filter: &str) -> Option<f64> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut best: Option<(u64, f64)> = None;
        for (_, series) in matching(&inner, name, label_filter) {
            if let Some((tick, value)) = series.values(series.points.len().saturating_sub(1)).last() {
                if best.map_or(true, |(t, _)| tick >= t) {
                    best = Some((tick, value));
                }
            }
        }
        best.map(|(_, v)| v)
    }

    /// The last exemplar trace id ingested for a histogram family.
    pub fn exemplar(&self, family: &str) -> Option<u64> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.exemplars.get(family).copied()
    }

    /// Number of admitted series.
    pub fn series_count(&self) -> usize {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.rings.len()
    }

    /// Samples refused because the series cap was reached (series, not
    /// points: an established series never drops a point, it evicts).
    pub fn dropped_series(&self) -> u64 {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.dropped
    }

    /// Total ring slots currently allocated across all series — the
    /// bounded-memory proof hook: after warm-up this number must stop
    /// growing no matter how many more ticks are ingested.
    pub fn allocated_points(&self) -> usize {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.rings.iter().map(|s| s.points.capacity()).sum()
    }
}

/// Series whose key starts with `name` and whose label body contains
/// `label_filter`. Prefix matching is what lets one query cover a
/// histogram family's derived `_bucket`/`_count`/`_sum` series.
fn matching<'a>(
    inner: &'a TsdbInner,
    name: &'a str,
    label_filter: &'a str,
) -> impl Iterator<Item = (&'a String, &'a RingSeries)> {
    inner
        .series
        .range::<str, _>((Bound::Included(name), Bound::Unbounded))
        .take_while(move |(k, _)| k.starts_with(name))
        .filter(move |(k, _)| label_filter.is_empty() || k.contains(label_filter))
        .map(|(k, &slot)| (k, &inner.rings[slot]))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::registry::Registry;
    use std::collections::BTreeSet;

    /// The window-sum reference: every stored point, as `query` lists
    /// them, tested against `(from, to]` one by one, series in key order.
    pub(crate) fn reference_sum(db: &Tsdb, name: &str, filter: &str, from: u64, to: u64) -> f64 {
        let mut total = 0.0;
        for series in db.query(name, filter, 0, 1) {
            for p in series.points {
                if p.tick > from && p.tick <= to {
                    total += p.last;
                }
            }
        }
        total
    }

    /// Asserts, bit for bit, that `window_sum` and one multi-window
    /// `window_sums` call equal the reference for every `to` in `tos`
    /// and every window width, and for windows with `from >= to`.
    fn assert_window_sums_match(db: &Tsdb, name: &str, tos: &[u64]) {
        // Shorter than, equal to and longer than an 8-point ring.
        let widths = [0, 1, 3, 8, 9, 100, u64::MAX];
        for &to in tos {
            let mut sums = [f64::NAN; 7];
            db.window_sums(name, "", to, &widths, &mut sums);
            for (&width, sum) in widths.iter().zip(sums) {
                let from = to.saturating_sub(width);
                let want = reference_sum(db, name, "", from, to);
                assert_eq!(sum.to_bits(), want.to_bits(), "window_sums ({from}, {to}]: {sum} vs {want}");
                let one = db.window_sum(name, "", from, to);
                assert_eq!(one.to_bits(), want.to_bits(), "window_sum ({from}, {to}]: {one} vs {want}");
            }
            for from in [to, to.saturating_add(1), u64::MAX] {
                assert_eq!(db.window_sum(name, "", from, to).to_bits(), 0.0f64.to_bits());
            }
        }
    }

    fn counter(name: &str, labels: &str, v: u64) -> Sample {
        Sample {
            name: name.into(),
            labels: labels.into(),
            value: SampleValue::Counter(v),
        }
    }

    fn gauge(name: &str, v: f64) -> Sample {
        Sample {
            name: name.into(),
            labels: "".into(),
            value: SampleValue::Gauge(v),
        }
    }

    #[test]
    fn counters_store_increases_above_their_high_water_mark() {
        let db = Tsdb::default();
        for (tick, raw) in [5, 8, 8, 2, 9].into_iter().enumerate() {
            db.ingest(tick as u64, &[counter("c_total", "", raw)]);
        }
        let data = db.query("c_total", "", 0, 1);
        assert_eq!(data.len(), 1);
        let values: Vec<f64> = data[0].points.iter().map(|p| p.last).collect();
        // A lower reading adds nothing, and the next counts only what
        // rose above the highest reading before it.
        assert_eq!(values, vec![5.0, 3.0, 0.0, 0.0, 1.0]);
        assert_eq!(db.window_sum("c_total", "", 0, 4), 4.0, "(0,4] sums the deltas");
    }

    #[test]
    fn racing_scrapes_count_each_counter_event_once() {
        // The scrape that took tick 3 read the counter after the one that
        // took tick 4, and both ingest in tick order.
        let db = Tsdb::default();
        for (tick, raw) in [(3, 10), (4, 7), (5, 12)] {
            db.ingest(tick, &[counter("c_total", "", raw)]);
        }
        assert_eq!(db.window_sum("c_total", "", 0, 5), 12.0);
    }

    #[test]
    fn gauges_store_raw_values() {
        let db = Tsdb::default();
        for t in 0..4 {
            db.ingest(t, &[gauge("g", t as f64 * 1.5)]);
        }
        let data = db.query("g", "", 0, 1);
        let values: Vec<f64> = data[0].points.iter().map(|p| p.last).collect();
        assert_eq!(values, vec![0.0, 1.5, 3.0, 4.5]);
        assert_eq!(db.latest("g", ""), Some(4.5));
    }

    #[test]
    fn downsampling_aggregates_min_max_avg_last() {
        let db = Tsdb::default();
        // Gauge values 10, 20, 30, 40 over ticks 0..4; step 2.
        for t in 0..4u64 {
            db.ingest(t, &[gauge("g", (t as f64 + 1.0) * 10.0)]);
        }
        let data = db.query("g", "", 0, 2);
        assert_eq!(data[0].points.len(), 2);
        let first = data[0].points[0];
        assert_eq!((first.tick, first.min, first.max), (0, 10.0, 20.0));
        assert_eq!(first.avg, 15.0);
        assert_eq!(first.last, 20.0);
        assert_eq!(first.count, 2);
        let second = data[0].points[1];
        assert_eq!((second.tick, second.min, second.max), (2, 30.0, 40.0));
        // `since` trims older ticks before binning.
        let tail = db.query("g", "", 3, 2);
        assert_eq!(tail[0].points.len(), 1);
        assert_eq!(tail[0].points[0].count, 1);
        assert_eq!(tail[0].points[0].last, 40.0);
    }

    #[test]
    fn since_mid_ring_bins_from_since_with_a_ragged_last_bin() {
        // 40 ticks through a 32-point ring keep ticks 8..=39; step 7
        // does not divide the 27 ticks from `since` = 13.
        let db = Tsdb::new(TsdbConfig {
            samples_per_series: 32,
            max_series: 4,
        });
        for t in 0..40u64 {
            db.ingest(t, &[gauge("g", t as f64)]);
        }
        let bins = |since: u64| -> Vec<(u64, f64, f64, f64, f64, u64)> {
            db.query("g", "", since, 7)[0]
                .points
                .iter()
                .map(|p| (p.tick, p.min, p.max, p.avg, p.last, p.count))
                .collect()
        };
        assert_eq!(
            bins(13),
            vec![
                (13, 13.0, 19.0, 16.0, 19.0, 7),
                (20, 20.0, 26.0, 23.0, 26.0, 7),
                (27, 27.0, 33.0, 30.0, 33.0, 7),
                (34, 34.0, 39.0, 36.5, 39.0, 6),
            ]
        );
        // `since` before the oldest retained tick: bins still start at
        // `since`, so the first one holds only ticks 8 and 9.
        assert_eq!(bins(3)[0], (3, 8.0, 9.0, 8.5, 9.0, 2));
        assert_eq!(bins(3).len(), 6);
        // `since` past the newest tick: the series is listed, empty.
        assert_eq!(bins(40), vec![]);
    }

    #[test]
    fn a_tick_ingested_out_of_order_is_not_binned_before_since() {
        // Two racing scrapes can land tick 3 after tick 5.
        let db = Tsdb::default();
        for t in [0, 5, 3] {
            db.ingest(t, &[gauge("g", t as f64)]);
        }
        let ticks: Vec<u64> = db.query("g", "", 4, 1)[0].points.iter().map(|p| p.tick).collect();
        assert_eq!(ticks, vec![5]);
    }

    #[test]
    fn label_filter_selects_children() {
        let db = Tsdb::default();
        db.ingest(
            0,
            &[
                counter("req_total", "method=\"GET\",class=\"2xx\"", 7),
                counter("req_total", "method=\"GET\",class=\"5xx\"", 3),
            ],
        );
        assert_eq!(db.query("req_total", "", 0, 1).len(), 2);
        let bad = db.query("req_total", "class=\"5xx\"", 0, 1);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].points[0].last, 3.0);
        assert_eq!(db.window_sum("req_total", "", u64::MAX, u64::MAX), 0.0);
        assert_eq!(db.window_sum("req_total", "class=\"5xx\"", 0, 1), 0.0, "tick 0 excluded (from is exclusive)");
    }

    #[test]
    fn histograms_fan_out_into_bucket_count_sum_series() {
        let db = Tsdb::default();
        let sample = Sample {
            name: "lat_seconds".into(),
            labels: "".into(),
            value: SampleValue::Histogram {
                bounds: vec![0.1, 1.0].into(),
                counts: vec![2, 1, 1], // non-cumulative, overflow last
                sum: 3.5,
                exemplar_trace: Some(0xbeef),
            },
        };
        db.ingest(0, std::slice::from_ref(&sample));
        let buckets = db.query("lat_seconds_bucket", "", 0, 1);
        assert_eq!(buckets.len(), 3);
        let by_key: BTreeMap<&str, f64> = buckets
            .iter()
            .map(|s| (s.key.as_str(), s.points[0].last))
            .collect();
        // Cumulative per-le, exactly as exposition would render.
        assert_eq!(by_key["lat_seconds_bucket{le=\"0.1\"}"], 2.0);
        assert_eq!(by_key["lat_seconds_bucket{le=\"1\"}"], 3.0);
        assert_eq!(by_key["lat_seconds_bucket{le=\"+Inf\"}"], 4.0);
        assert_eq!(db.query("lat_seconds_count", "", 0, 1)[0].points[0].last, 4.0);
        assert_eq!(db.query("lat_seconds_sum", "", 0, 1)[0].points[0].last, 3.5);
        assert_eq!(db.exemplar("lat_seconds"), Some(0xbeef));
        // A family prefix query covers all derived series.
        assert_eq!(db.query("lat_seconds", "", 0, 1).len(), 5);
    }

    #[test]
    fn series_cap_is_enforced() {
        let db = Tsdb::new(TsdbConfig {
            samples_per_series: 4,
            max_series: 2,
        });
        db.ingest(0, &[gauge("a", 1.0), gauge("b", 2.0), gauge("c", 3.0)]);
        assert_eq!(db.series_count(), 2);
        assert_eq!(db.dropped_series(), 1);
        // Established series keep accepting points.
        db.ingest(1, &[gauge("a", 9.0), gauge("c", 9.0)]);
        assert_eq!(db.latest("a", ""), Some(9.0));
        assert_eq!(db.latest("c", ""), None);
        assert_eq!(db.dropped_series(), 2);
    }

    #[test]
    fn soak_memory_is_bounded_and_aggregates_stay_correct() {
        // The acceptance soak: insert 100× the ring capacity and assert
        // allocation stops growing after warm-up while downsampled
        // min/max/avg stay exact over the retained window.
        let capacity = 32u64;
        let db = Tsdb::new(TsdbConfig {
            samples_per_series: capacity as usize,
            max_series: 4,
        });
        let warm = |t: u64| {
            [
                gauge("g", t as f64),
                counter("c_total", "", t * 2), // +2 per tick
            ]
        };
        for t in 0..capacity {
            db.ingest(t, &warm(t));
        }
        let allocated = db.allocated_points();
        assert!(allocated >= 2 * capacity as usize);
        for t in capacity..capacity * 100 {
            db.ingest(t, &warm(t));
        }
        assert_eq!(
            db.allocated_points(),
            allocated,
            "allocation must be flat after warm-up"
        );
        assert_eq!(db.series_count(), 2);
        assert_eq!(db.dropped_series(), 0);
        // Retained window is exactly the last `capacity` ticks.
        let last = capacity * 100 - 1;
        let data = db.query("g", "", 0, 1);
        assert_eq!(data[0].points.len(), capacity as usize);
        assert_eq!(data[0].points[0].tick, last - capacity + 1);
        // Downsampled aggregates over the final 8 ticks: gauge values are
        // the tick numbers themselves.
        let since = last - 7;
        let agg = db.query("g", "", since, 8);
        assert_eq!(agg[0].points.len(), 1);
        let p = agg[0].points[0];
        assert_eq!(p.min, since as f64);
        assert_eq!(p.max, last as f64);
        assert_eq!(p.avg, (since as f64 + last as f64) / 2.0);
        assert_eq!(p.last, last as f64);
        assert_eq!(p.count, 8);
        // Counter deltas stay +2 per tick across the whole soak.
        assert_eq!(db.window_sum("c_total", "", last - 8, last), 16.0);
    }

    #[test]
    fn ingested_keys_equal_the_rendered_series() {
        let reg = crate::registry::tests::golden_registry();
        let db = Tsdb::default();
        db.ingest(0, &reg.snapshot());
        let keys: Vec<String> = db.query("", "", 0, 1).into_iter().map(|s| s.key).collect();
        let mut rendered: Vec<String> = reg
            .render()
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.rsplit_once(' ').expect("sample line").0.to_string())
            .collect();
        rendered.sort();
        assert_eq!(keys, rendered);
    }

    #[test]
    fn window_sums_equal_a_point_by_point_reference() {
        let db = Tsdb::new(TsdbConfig {
            samples_per_series: 8,
            max_series: 8,
        });
        // Non-integer values of mixed sign, so summation order would show.
        let ingest = |t: u64| {
            let samples: Vec<Sample> = (0..3)
                .map(|k| Sample {
                    name: "g".into(),
                    labels: format!("k=\"{k}\"").into(),
                    value: SampleValue::Gauge(t as f64 * 0.1 - f64::from(k) / 3.0),
                })
                .collect();
            db.ingest(t, &samples);
        };
        // Before wraparound: ticks 10..=14. `to` before the oldest tick,
        // at it, inside the ring, at the newest tick and past it.
        for t in 10..15 {
            ingest(t);
        }
        assert_window_sums_match(&db, "g", &[0, 9, 10, 12, 14, 20, u64::MAX]);
        // After wraparound: ticks 23..=30 in a ring that has evicted 13.
        for t in 15..31 {
            ingest(t);
        }
        assert_window_sums_match(&db, "g", &[0, 22, 23, 26, 30, 40, u64::MAX]);
    }

    /// A histogram sample over the one bound 1.0.
    fn histogram(name: &str, counts: [u64; 2], sum: f64) -> Sample {
        Sample {
            name: name.into(),
            labels: "".into(),
            value: SampleValue::Histogram {
                bounds: vec![1.0].into(),
                counts: counts.to_vec(),
                sum,
                exemplar_trace: None,
            },
        }
    }

    /// Ingests `samples` at `tick` and appends each series' raw reading
    /// to `readings`.
    fn ingest_recorded(db: &Tsdb, readings: &mut BTreeMap<String, Vec<(u64, f64)>>, tick: u64, samples: &[Sample]) {
        db.ingest(tick, samples);
        let mut key = String::new();
        for sample in samples {
            for_each_series(&mut key, &sample.name, &sample.labels, sample.value.view(), |key, raw| {
                readings.entry(key.to_string()).or_default().push((tick, raw));
            });
        }
    }

    /// Asserts, bit for bit, that every series lists the last points of
    /// its per-tick increases above its highest reading so far, restated
    /// from each tick's raw `readings`.
    fn assert_increases_match(db: &Tsdb, readings: &BTreeMap<String, Vec<(u64, f64)>>) {
        for series in db.query("", "", 0, 1) {
            let mut high = 0.0f64;
            let want: Vec<(u64, u64)> = readings[&series.key]
                .iter()
                .map(|&(tick, raw)| {
                    let rise = (raw - high).max(0.0);
                    high = high.max(raw);
                    (tick, rise.to_bits())
                })
                .collect();
            let got: Vec<(u64, u64)> = series.points.iter().map(|p| (p.tick, p.last.to_bits())).collect();
            assert_eq!(got, want[want.len() - got.len()..], "{}", series.key);
        }
    }

    #[test]
    fn counter_window_sums_equal_a_point_by_point_reference() {
        let db = Tsdb::new(TsdbConfig {
            samples_per_series: 8,
            max_series: 16,
        });
        let mut readings = BTreeMap::new();
        let mut ingest = |t: u64| {
            // Ticks 13 and 27 read an older snapshot: every value is lower.
            let n = if t % 14 == 13 { t - 4 } else { t };
            let mut samples: Vec<Sample> =
                (0..3).map(|k| counter("c_total", &format!("k=\"{k}\""), n * n * (k + 1) + k)).collect();
            samples.push(histogram("h", [n * 3, n * n], n as f64 * 0.25));
            ingest_recorded(&db, &mut readings, t, &samples);
        };
        // Before wraparound: ticks 10..=14, with the lower reading at 13.
        for t in 10..15 {
            ingest(t);
        }
        for name in ["c_total", "h_bucket", "h_count"] {
            assert_window_sums_match(&db, name, &[0, 9, 10, 12, 13, 14, 20, u64::MAX]);
        }
        // After wraparound: ticks 23..=30, with the lower reading at 27.
        for t in 15..31 {
            ingest(t);
        }
        for name in ["c_total", "h_bucket", "h_count"] {
            assert_window_sums_match(&db, name, &[0, 22, 23, 26, 27, 28, 30, 40, u64::MAX]);
        }
        assert_increases_match(&db, &readings);
    }

    #[test]
    fn a_float_counter_sums_the_rise_of_its_mark() {
        let db = Tsdb::new(TsdbConfig {
            samples_per_series: 8,
            max_series: 8,
        });
        // A histogram's `_sum`: fractional, once lower (an older snapshot),
        // then infinite, and lower again.
        let raws = [0.1, 0.2, 0.7, 0.65, 1.3, 2.9, f64::INFINITY, f64::INFINITY, 3.0, 4.5, f64::INFINITY, 5.0];
        let mut readings = BTreeMap::new();
        let mut marks = Vec::new();
        for (t, &raw) in (0u64..).zip(&raws) {
            ingest_recorded(&db, &mut readings, t, &[histogram("h", [t, 0], raw)]);
            marks.push(marks.last().map_or(raw, |&mark: &f64| mark.max(raw)));
        }
        // 12 ticks through an 8-point ring keep ticks 4..=11. The listed
        // increases are the per-tick deltas, bit for bit: ∞ at tick 6,
        // then 0.0.
        assert_increases_match(&db, &readings);
        let increases: Vec<f64> = db.query("h_sum", "", 6, 1)[0].points.iter().map(|p| p.last).collect();
        assert_eq!(increases[..2], [f64::INFINITY, 0.0]);
        // A window sum is the rise of the mark across it, from the mark of
        // the evicted tick 3 on, rounded once.
        let mark = |t: u64| marks[t as usize];
        for (from, to) in [(3, 4), (3, 5), (4, 5), (3, 6), (5, 11), (6, 11), (7, 9), (9, 11)] {
            let want = (mark(to) - mark(from)).max(0.0);
            let got = db.window_sum("h_sum", "", from, to);
            assert_eq!(got.to_bits(), want.to_bits(), "({from}, {to}]: {got} vs {want}");
        }
    }

    #[test]
    fn a_tick_ingested_out_of_order_is_never_counted_outside_its_windows() {
        // Racing scrapes land tick 3 after tick 6.
        let db = Tsdb::new(TsdbConfig {
            samples_per_series: 8,
            max_series: 4,
        });
        for t in [1, 2, 4, 6, 3, 7] {
            db.ingest(t, &[gauge("g", t as f64 * 0.1 - 0.35)]);
        }
        assert_window_sums_match(&db, "g", &[0, 1, 2, 3, 4, 5, 6, 7, 10]);
        // A late ingest carrying a new family, more series than the cap
        // leaves room for, changes nothing.
        let late = [gauge("g", 9.0), counter("late_total", "", 5), gauge("x", 1.0), gauge("y", 1.0), gauge("z", 1.0)];
        db.ingest(5, &late);
        assert_eq!(db.series_count(), 1);
        assert_eq!(db.dropped_series(), 0);
        // The next in-order ingest stores its values as if it had not been.
        db.ingest(8, &[gauge("g", 0.75), counter("late_total", "", 5)]);
        let points = |name: &str| -> Vec<(u64, f64)> {
            db.query(name, "", 0, 1)[0].points.iter().map(|p| (p.tick, p.last)).collect()
        };
        assert_eq!(points("late_total"), vec![(8, 5.0)]);
        assert_eq!(points("g")[4..], [(7, 7.0 * 0.1 - 0.35), (8, 0.75)]);
        assert_eq!(db.series_count(), 2);
        // Past wraparound the sums stay exact.
        for t in 9..16 {
            db.ingest(t, &[gauge("g", t as f64 + 0.25)]);
        }
        assert_window_sums_match(&db, "g", &[7, 8, 12, 15, 16]);
    }

    /// What ingest must leave behind, restated over rendered series: the
    /// keys admitted under the cap, the refusals so far, and the value
    /// `query` lists for each series (a counter's increase since its last
    /// ingest).
    struct Expected {
        cap: usize,
        admitted: BTreeSet<String>,
        last_raw: BTreeMap<String, f64>,
        refused: u64,
    }

    impl Expected {
        /// Ingests `samples` into `db` at `tick` and checks it against
        /// the rendered series.
        fn ingest(&mut self, db: &Tsdb, tick: u64, samples: &[Sample]) {
            db.ingest(tick, samples);
            let mut stored = BTreeMap::new();
            let mut key = String::new();
            for sample in samples {
                let gauge = matches!(sample.value, SampleValue::Gauge(_));
                for_each_series(&mut key, &sample.name, &sample.labels, sample.value.view(), |key, raw| {
                    if !self.admitted.contains(key) && self.admitted.len() >= self.cap {
                        self.refused += 1;
                        return;
                    }
                    self.admitted.insert(key.to_string());
                    let prev = self.last_raw.insert(key.to_string(), raw).unwrap_or(0.0);
                    stored.insert(key.to_string(), if gauge { raw } else { raw - prev });
                });
            }
            assert_eq!(db.dropped_series(), self.refused, "tick {tick}");
            let keys: BTreeSet<String> = db.query("", "", 0, 1).into_iter().map(|s| s.key).collect();
            assert_eq!(keys, self.admitted, "tick {tick}");
            let latest: BTreeMap<String, f64> = db
                .query("", "", tick, 1)
                .into_iter()
                .filter_map(|s| Some((s.key, s.points.last()?.last)))
                .collect();
            assert_eq!(latest, stored, "tick {tick}");
        }
    }

    #[test]
    fn ingest_layout_follows_a_changing_sample_set() {
        // 7 series at first, 9 by the end: a cap of 6 refuses some from
        // the first tick on, and every family that arrives later.
        for cap in [1024, 6] {
            let db = Tsdb::new(TsdbConfig {
                samples_per_series: 4,
                max_series: cap,
            });
            let mut expected = Expected {
                cap,
                admitted: BTreeSet::new(),
                last_raw: BTreeMap::new(),
                refused: 0,
            };
            let reg = Registry::new("t");
            let level = reg.gauge("m_level", "m", &[]);
            let hits = reg.counter("n_total", "n", &[("route", "a")]);
            let lat = reg.histogram("o_seconds", "o", &[0.1, 1.0], &[]);
            let mut tick = 0;
            let mut step = |expected: &mut Expected, samples: &[Sample]| {
                level.set(tick as f64 * 0.3);
                hits.add(tick + 1);
                lat.observe(tick as f64 * 0.07);
                expected.ingest(&db, tick, samples);
                tick += 1;
            };
            step(&mut expected, &reg.snapshot());
            step(&mut expected, &reg.snapshot());
            // A family registered mid-run that sorts before the others.
            reg.gauge("a_first", "a", &[]).set(0.5);
            step(&mut expected, &reg.snapshot());
            step(&mut expected, &reg.snapshot());
            // A child added to an existing family.
            reg.counter("n_total", "n", &[("route", "b")]).add(2);
            step(&mut expected, &reg.snapshot());
            // A sample missing from one snapshot, back in the next.
            let mut partial = reg.snapshot();
            partial.retain(|s| &*s.labels != "route=\"a\"");
            step(&mut expected, &partial);
            step(&mut expected, &reg.snapshot());
            step(&mut expected, &reg.snapshot());
            assert_eq!(expected.refused, if cap == 6 { 18 } else { 0 });
        }
    }

    #[test]
    fn prefix_matching_does_not_cross_family_names() {
        let db = Tsdb::default();
        db.ingest(0, &[gauge("ledger_users", 5.0), gauge("ledger_unbounded", 1.0)]);
        assert_eq!(db.query("ledger_users", "", 0, 1).len(), 1);
        assert_eq!(db.query("ledger_", "", 0, 1).len(), 2);
    }
}
