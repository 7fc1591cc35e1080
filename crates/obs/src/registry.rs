//! The metric registry and Prometheus text-format renderer.
//!
//! Registration happens once, at startup, and returns `Arc` handles the
//! hot path records through directly — scrape-time rendering walks the
//! registry under a mutex, but recording never touches it.
//!
//! Everything a render repeats is prepared at registration: each family
//! stores its prefixed name, and each child its escaped label body and
//! every series key it stands for, built once by [`for_each_series`],
//! the fan-out the tsdb shares. A render then writes straight into one
//! output buffer, sized from the previous render: HELP text is escaped
//! in place, every histogram's counts are read into one reused scratch
//! `Vec`, and each child's stored keys are zipped with the values
//! [`for_each_value`] yields, so no key is built and no `le` bound is
//! formatted per render. A [`Registry::snapshot`] copies no key either:
//! it shares each name, label body and histogram's bounds by `Arc`.

use crate::metrics::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

#[derive(Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }

    /// The instrument's current value, read from its atomic cells.
    fn value(&self) -> SampleValue {
        match self {
            Instrument::Counter(c) => SampleValue::Counter(c.get()),
            Instrument::Gauge(g) => SampleValue::Gauge(g.get()),
            Instrument::Histogram(h) => SampleValue::Histogram {
                bounds: h.shared_bounds(),
                counts: h.snapshot_counts(),
                sum: h.sum(),
                exemplar_trace: h.exemplar().map(|(_, trace_id)| trace_id),
            },
        }
    }

    /// The instrument's current value, borrowed: a histogram's counts
    /// are read into `counts`, which the view then borrows.
    fn read<'a>(&'a self, counts: &'a mut Vec<u64>) -> ValueView<'a> {
        match self {
            Instrument::Counter(c) => ValueView::Counter(c.get()),
            Instrument::Gauge(g) => ValueView::Gauge(g.get()),
            Instrument::Histogram(h) => {
                h.read_counts(counts);
                ValueView::Histogram {
                    bounds: h.bounds(),
                    counts,
                    sum: h.sum(),
                }
            }
        }
    }
}

struct Child {
    /// Pre-rendered `key="value",…` label body (no braces), empty when
    /// the child is unlabelled; every snapshot shares it.
    labels: Arc<str>,
    instrument: Instrument,
    /// Every series key the child stands for, in [`for_each_series`]
    /// order: fixed at registration, since a child's name, labels and
    /// bucket bounds never change.
    keys: Vec<String>,
}

struct Family {
    /// The exposed name, `<prefix>_<name>`; every snapshot shares it.
    full_name: Arc<str>,
    help: String,
    children: Vec<Child>,
}

/// One instrument's value at snapshot time, as handed to the tsdb.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// A counter's standing total.
    Counter(u64),
    /// A gauge's instantaneous value.
    Gauge(f64),
    /// A histogram's full state: raw per-bucket counts (one per bound,
    /// plus overflow last) rather than cumulative; exposition and the
    /// tsdb fan this out into `_bucket`/`_sum`/`_count` series.
    Histogram {
        /// Configured bucket upper bounds, shared with the histogram.
        bounds: Arc<[f64]>,
        /// Raw per-bucket counts, `bounds.len() + 1` long.
        counts: Vec<u64>,
        /// Sum of all samples.
        sum: f64,
        /// Trace id of the family's current exemplar, if any.
        exemplar_trace: Option<u64>,
    },
}

impl SampleValue {
    /// The value as the series fan-out reads it.
    pub(crate) fn view(&self) -> ValueView<'_> {
        match self {
            SampleValue::Counter(v) => ValueView::Counter(*v),
            SampleValue::Gauge(v) => ValueView::Gauge(*v),
            SampleValue::Histogram { bounds, counts, sum, .. } => ValueView::Histogram {
                bounds,
                counts,
                sum: *sum,
            },
        }
    }
}

/// A borrowed view of one child's value, as [`for_each_series`] fans it
/// out, whether read from the live cells or from a [`Sample`]. Each
/// variant means what its [`SampleValue`] namesake means.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ValueView<'a> {
    Counter(u64),
    Gauge(f64),
    Histogram { bounds: &'a [f64], counts: &'a [u64], sum: f64 },
}

/// One child series in a registry snapshot: full prefixed name,
/// pre-rendered label body, and the value read from the atomic cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full metric name including the registry prefix.
    pub name: Arc<str>,
    /// Pre-rendered `key="value",…` label body (no braces).
    pub labels: Arc<str>,
    /// The instrument's value.
    pub value: SampleValue,
}

/// A named collection of instruments with Prometheus text exposition.
pub struct Registry {
    prefix: String,
    families: Mutex<BTreeMap<String, Family>>,
    /// Length of the last render's output, which sizes the next one.
    render_len: AtomicUsize,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fams = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        write!(f, "Registry(prefix={:?}, {} families)", self.prefix, fams.len())
    }
}

impl Registry {
    /// Creates a registry whose metric names are prefixed `<prefix>_`.
    /// An empty prefix leaves names bare.
    pub fn new(prefix: &str) -> Registry {
        if !prefix.is_empty() {
            assert!(valid_metric_name(prefix), "invalid registry prefix `{prefix}`");
        }
        Registry {
            prefix: prefix.to_string(),
            families: Mutex::new(BTreeMap::new()),
            render_len: AtomicUsize::new(0),
        }
    }

    /// Registers (or retrieves) a counter child under `name` with the
    /// given labels.
    ///
    /// # Panics
    /// Panics on invalid names/labels or if `name` is already registered
    /// as a different instrument kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let handle = Arc::new(Counter::new());
        match self.register(name, help, labels, Instrument::Counter(Arc::clone(&handle))) {
            Some(Instrument::Counter(existing)) => existing,
            _ => handle,
        }
    }

    /// Registers (or retrieves) a gauge child.
    ///
    /// # Panics
    /// Panics on invalid names/labels or on an instrument-kind clash.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let handle = Arc::new(Gauge::new());
        match self.register(name, help, labels, Instrument::Gauge(Arc::clone(&handle))) {
            Some(Instrument::Gauge(existing)) => existing,
            _ => handle,
        }
    }

    /// Registers (or retrieves) a histogram child over `bounds`.
    ///
    /// # Panics
    /// Panics on invalid names/labels/bounds or on an instrument-kind
    /// clash. A `le` label is reserved for the renderer.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        assert!(
            labels.iter().all(|(k, _)| *k != "le"),
            "`le` is reserved for histogram buckets"
        );
        let handle = Arc::new(Histogram::new(bounds));
        match self.register(name, help, labels, Instrument::Histogram(Arc::clone(&handle))) {
            Some(Instrument::Histogram(existing)) => existing,
            _ => handle,
        }
    }

    /// Inserts a child; returns the existing instrument when the exact
    /// (name, labels) child is already registered (idempotent).
    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        instrument: Instrument,
    ) -> Option<Instrument> {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name `{k}` on `{name}`");
        }
        let label_body = render_labels(labels);
        let mut fams = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let family = fams.entry(name.to_string()).or_insert_with(|| Family {
            full_name: if self.prefix.is_empty() {
                name.into()
            } else {
                format!("{}_{name}", self.prefix).into()
            },
            help: help.to_string(),
            children: Vec::new(),
        });
        if let Some(child) = family.children.iter().find(|c| *c.labels == label_body) {
            assert!(
                child.instrument.kind() == instrument.kind(),
                "metric `{name}` re-registered as {} (was {})",
                instrument.kind(),
                child.instrument.kind()
            );
            return Some(child.instrument.clone());
        }
        if let Some(first) = family.children.first() {
            assert!(
                first.instrument.kind() == instrument.kind(),
                "metric `{name}` mixes {} and {} children",
                first.instrument.kind(),
                instrument.kind()
            );
        }
        let mut keys = Vec::new();
        let mut counts = Vec::new();
        let value = instrument.read(&mut counts);
        for_each_series(&mut String::new(), &family.full_name, &label_body, value, |key, _| {
            keys.push(key.to_string());
        });
        family.children.push(Child {
            labels: label_body.into(),
            instrument,
            keys,
        });
        None
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format (`text/plain; version=0.0.4`), families in name order.
    pub fn render(&self) -> String {
        let fams = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        // An eighth over the last length leaves room for counts that
        // gained a digit since, so the buffer is allocated once.
        let last = self.render_len.load(Ordering::Relaxed);
        let mut out = String::with_capacity(last + last / 8);
        let mut counts = Vec::new();
        for family in fams.values() {
            let full = &family.full_name;
            let kind = family
                .children
                .first()
                .map_or("untyped", |c| c.instrument.kind());
            let _ = write!(out, "# HELP {full} ");
            push_escaped(&mut out, &family.help, false);
            out.push('\n');
            let _ = writeln!(out, "# TYPE {full} {kind}");
            for child in &family.children {
                let mut keys = child.keys.iter();
                for_each_value(child.instrument.read(&mut counts), |value| {
                    if let Some(key) = keys.next() {
                        out.push_str(key);
                        out.push(' ');
                        push_value(&mut out, value);
                        out.push('\n');
                    }
                });
                // Exemplars ride along as comment lines: the 0.0.4 text
                // format has no native exemplar syntax, and comments keep
                // every parser happy while still letting an operator join
                // a histogram family to a concrete trace id.
                if let Instrument::Histogram(h) = &child.instrument {
                    if let Some((sample, trace_id)) = h.exemplar() {
                        out.push_str("# EXEMPLAR ");
                        push_key(&mut out, full, "", &child.labels, None);
                        let _ = write!(out, " trace_id={trace_id:016x} value=");
                        push_value(&mut out, sample);
                        out.push('\n');
                    }
                }
            }
        }
        self.render_len.store(out.len(), Ordering::Relaxed);
        out
    }

    /// Snapshots every child series directly from the atomic cells — the
    /// self-scraper's ingestion path, with no text-format round-trip.
    /// Families come out in name order, children in registration order.
    /// Names, labels and bounds are shared, not copied: a snapshot
    /// allocates its `Vec` and one `counts` per histogram child.
    pub fn snapshot(&self) -> Vec<Sample> {
        let fams = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::with_capacity(fams.values().map(|f| f.children.len()).sum());
        for family in fams.values() {
            for child in &family.children {
                out.push(Sample {
                    name: Arc::clone(&family.full_name),
                    labels: Arc::clone(&child.labels),
                    value: child.instrument.value(),
                });
            }
        }
        out
    }
}

/// Every series one registry child stands for, as `(key, value)` with
/// the key rendered `name{labels}`: the child itself for a counter or a
/// gauge; for a histogram its cumulative `_bucket{…,le="…"}` series
/// (`+Inf` last), then `_sum` and `_count`. Exposition and the tsdb both
/// name series through this one function. `key` is the caller's scratch
/// buffer for the rendered key, reused across calls.
pub(crate) fn for_each_series(
    key: &mut String,
    name: &str,
    labels: &str,
    value: ValueView<'_>,
    mut emit: impl FnMut(&str, f64),
) {
    fan_out(value, |suffix, le, v| {
        key.clear();
        push_key(key, name, suffix, labels, le);
        emit(key, v);
    });
}

/// The values [`for_each_series`] yields, in the same order, without
/// rendering a key: the tsdb's path for series it has already placed.
pub(crate) fn for_each_value(value: ValueView<'_>, mut emit: impl FnMut(f64)) {
    fan_out(value, |_, _, v| emit(v));
}

/// The fan-out both walks share: each series' name suffix, `le` bound
/// and value, in exposition order.
fn fan_out(value: ValueView<'_>, mut series: impl FnMut(&str, Option<f64>, f64)) {
    match value {
        ValueView::Counter(v) => series("", None, v as f64),
        ValueView::Gauge(v) => series("", None, v),
        ValueView::Histogram { bounds, counts, sum } => {
            let mut cum = 0u64;
            for (i, c) in counts.iter().enumerate() {
                cum = cum.saturating_add(*c);
                let le = bounds.get(i).copied().unwrap_or(f64::INFINITY);
                series("_bucket", Some(le), cum as f64);
            }
            series("_sum", None, sum);
            series("_count", None, cum as f64);
        }
    }
}

/// Appends `name` + `suffix` and the braced label body, with an `le`
/// label last when one is given.
fn push_key(out: &mut String, name: &str, suffix: &str, labels: &str, le: Option<f64>) {
    out.push_str(name);
    out.push_str(suffix);
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    out.push_str(labels);
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        out.push_str("le=\"");
        push_value(out, le);
        out.push('"');
    }
    out.push('}');
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut body = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(k);
        body.push_str("=\"");
        push_escaped(&mut body, v, true);
        body.push('"');
    }
    body
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*`
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `[a-zA-Z_][a-zA-Z0-9_]*`
fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    (first.is_ascii_alphabetic() || first == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Appends `text` with backslashes and newlines escaped, and double
/// quotes too when `quote` is set: label values escape all three, HELP
/// text leaves quotes bare.
fn push_escaped(out: &mut String, text: &str, quote: bool) {
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' if quote => out.push_str("\\\""),
            c => out.push(c),
        }
    }
}

/// 2⁵³: every integer of smaller magnitude is exact in an `f64`.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// Appends `v` as `f64` Display writes it, with NaN and ±Inf spelled the
/// Prometheus way. An integral value below 2⁵³ in magnitude (counts,
/// counters, integral bounds) goes through integer formatting, which
/// prints the same digits, since Display gives such a value no fraction
/// and no exponent; `-0.0` stays on the float path for its sign. The
/// cast round trip tests integrality without `fract`, a libm call.
fn push_value(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else if v.abs() < EXACT_INTEGERS
        && (v as i64) as f64 == v
        && !(v == 0.0 && v.is_sign_negative())
    {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn renders_counters_and_gauges() {
        let reg = Registry::new("loki");
        let c = reg.counter("requests_total", "Requests served", &[("method", "GET")]);
        c.add(3);
        let g = reg.gauge("users", "Users with a ledger", &[]);
        g.set(7.0);
        let text = reg.render();
        assert!(text.contains("# HELP loki_requests_total Requests served"), "{text}");
        assert!(text.contains("# TYPE loki_requests_total counter"), "{text}");
        assert!(text.contains("loki_requests_total{method=\"GET\"} 3"), "{text}");
        assert!(text.contains("# TYPE loki_users gauge"), "{text}");
        assert!(text.contains("loki_users 7"), "{text}");
    }

    #[test]
    fn renders_histogram_with_cumulative_buckets() {
        let reg = Registry::new("t");
        let h = reg.histogram("lat_seconds", "Latency", &[0.1, 1.0], &[]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(2.0);
        let text = reg.render();
        assert!(text.contains("# TYPE t_lat_seconds histogram"), "{text}");
        assert!(text.contains("t_lat_seconds_bucket{le=\"0.1\"} 1"), "{text}");
        assert!(text.contains("t_lat_seconds_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("t_lat_seconds_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("t_lat_seconds_count 3"), "{text}");
        assert!(text.contains("t_lat_seconds_sum 2.55"), "{text}");
    }

    #[test]
    fn registration_is_idempotent_per_label_set() {
        let reg = Registry::new("x");
        let a = reg.counter("hits_total", "h", &[("k", "a")]);
        let again = reg.counter("hits_total", "h", &[("k", "a")]);
        let other = reg.counter("hits_total", "h", &[("k", "b")]);
        a.inc();
        again.inc();
        other.inc();
        assert_eq!(a.get(), 2, "same labels must share the underlying counter");
        assert_eq!(other.get(), 1);
        let text = reg.render();
        assert!(text.contains("x_hits_total{k=\"a\"} 2"), "{text}");
        assert!(text.contains("x_hits_total{k=\"b\"} 1"), "{text}");
    }

    #[test]
    fn gauges_render_infinity_as_prometheus_inf() {
        let reg = Registry::new("x");
        let g = reg.gauge("eps_max", "max epsilon", &[]);
        g.set(f64::INFINITY);
        assert!(reg.render().contains("x_eps_max +Inf"));
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new("x");
        let _ = reg.counter("c_total", "c", &[("path", "a\"b\\c\nd")]);
        let text = reg.render();
        assert!(text.contains("path=\"a\\\"b\\\\c\\nd\""), "{text}");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_metric_name_rejected() {
        let reg = Registry::new("x");
        let _ = reg.counter("bad name", "h", &[]);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_clash_rejected() {
        let reg = Registry::new("x");
        let _ = reg.counter("thing", "h", &[]);
        let _ = reg.gauge("thing", "h", &[]);
    }

    #[test]
    fn histogram_exemplar_renders_as_comment() {
        let reg = Registry::new("t");
        let h = reg.histogram("lat_seconds", "Latency", &[0.1, 1.0], &[]);
        h.observe(0.05);
        assert!(
            !reg.render().contains("# EXEMPLAR"),
            "no exemplar line before any traced sample"
        );
        h.observe_with_exemplar(0.5, 0xab);
        let text = reg.render();
        assert!(
            text.contains("# EXEMPLAR t_lat_seconds trace_id=00000000000000ab value=0.5"),
            "{text}"
        );
        // Every non-comment line still parses as `series value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok() || value == "+Inf", "{line}");
        }
    }

    #[test]
    fn snapshot_reads_every_child_without_rendering() {
        let reg = Registry::new("loki");
        reg.counter("req_total", "r", &[("m", "GET")]).add(5);
        reg.counter("req_total", "r", &[("m", "POST")]).add(2);
        reg.gauge("eps_p50", "e", &[]).set(0.75);
        let h = reg.histogram("lat_seconds", "l", &[0.1, 1.0], &[]);
        h.observe(0.05);
        h.observe_with_exemplar(0.5, 0xab);
        let samples = reg.snapshot();
        assert_eq!(
            samples
                .iter()
                .map(|s| (&*s.name, &*s.labels))
                .collect::<Vec<_>>(),
            vec![
                ("loki_eps_p50", ""),
                ("loki_lat_seconds", ""),
                ("loki_req_total", "m=\"GET\""),
                ("loki_req_total", "m=\"POST\""),
            ]
        );
        assert_eq!(samples[0].value, SampleValue::Gauge(0.75));
        assert_eq!(
            samples[1].value,
            SampleValue::Histogram {
                bounds: vec![0.1, 1.0].into(),
                counts: vec![1, 1, 0],
                sum: 0.55,
                exemplar_trace: Some(0xab),
            }
        );
        assert_eq!(samples[2].value, SampleValue::Counter(5));
        assert_eq!(samples[3].value, SampleValue::Counter(2));
    }

    #[test]
    fn snapshots_share_their_keys_and_bounds() {
        let reg = golden_registry();
        let (first, second) = (reg.snapshot(), reg.snapshot());
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(&a.name, &b.name), "{}", a.name);
            assert!(Arc::ptr_eq(&a.labels, &b.labels), "{}{{{}}}", a.name, a.labels);
            if let (SampleValue::Histogram { bounds: a, .. }, SampleValue::Histogram { bounds: b, .. }) =
                (&a.value, &b.value)
            {
                assert!(Arc::ptr_eq(a, b));
            }
        }
    }

    /// A registry touching every exposition shape: unlabelled and
    /// labelled counters, gauges at `+Inf` and NaN, an escaped label
    /// value, labelled histograms on [`LATENCY_BUCKETS`] and on a
    /// non-latency bound set, and an exemplar.
    pub(crate) fn golden_registry() -> Registry {
        let reg = Registry::new("loki");
        reg.counter("plain_total", "Unlabelled counter", &[]).add(3);
        reg.counter("req_total", "Requests\nby method", &[("method", "GET"), ("class", "2xx")])
            .add(7);
        reg.counter("req_total", "Requests\nby method", &[("method", "POST"), ("class", "5xx")])
            .inc();
        reg.gauge("eps_max", "Largest ε", &[]).set(f64::INFINITY);
        reg.gauge("eps_undefined", "Not a number", &[]).set(f64::NAN);
        reg.counter("path_total", "Escaped \\ label", &[("path", "a\"b\\c\nd")]).add(2);
        let lat = reg.histogram(
            "lat_seconds",
            "Latency",
            crate::LATENCY_BUCKETS,
            &[("route", "/v1/submit")],
        );
        lat.observe(0.0003);
        lat.observe(0.02);
        lat.observe_with_exemplar(3.0, 0xab);
        let batch = reg.histogram("batch_size", "Batch size", &[1.0, 4.0, 16.0], &[("shard", "0")]);
        batch.observe(1.0);
        batch.observe(5.0);
        batch.observe(5.0);
        reg
    }

    const GOLDEN: &str = r#"# HELP loki_batch_size Batch size
# TYPE loki_batch_size histogram
loki_batch_size_bucket{shard="0",le="1"} 1
loki_batch_size_bucket{shard="0",le="4"} 1
loki_batch_size_bucket{shard="0",le="16"} 3
loki_batch_size_bucket{shard="0",le="+Inf"} 3
loki_batch_size_sum{shard="0"} 11
loki_batch_size_count{shard="0"} 3
# HELP loki_eps_max Largest ε
# TYPE loki_eps_max gauge
loki_eps_max +Inf
# HELP loki_eps_undefined Not a number
# TYPE loki_eps_undefined gauge
loki_eps_undefined NaN
# HELP loki_lat_seconds Latency
# TYPE loki_lat_seconds histogram
loki_lat_seconds_bucket{route="/v1/submit",le="0.000001"} 0
loki_lat_seconds_bucket{route="/v1/submit",le="0.000005"} 0
loki_lat_seconds_bucket{route="/v1/submit",le="0.00001"} 0
loki_lat_seconds_bucket{route="/v1/submit",le="0.000025"} 0
loki_lat_seconds_bucket{route="/v1/submit",le="0.00005"} 0
loki_lat_seconds_bucket{route="/v1/submit",le="0.0001"} 0
loki_lat_seconds_bucket{route="/v1/submit",le="0.00025"} 0
loki_lat_seconds_bucket{route="/v1/submit",le="0.0005"} 1
loki_lat_seconds_bucket{route="/v1/submit",le="0.001"} 1
loki_lat_seconds_bucket{route="/v1/submit",le="0.0025"} 1
loki_lat_seconds_bucket{route="/v1/submit",le="0.005"} 1
loki_lat_seconds_bucket{route="/v1/submit",le="0.01"} 1
loki_lat_seconds_bucket{route="/v1/submit",le="0.025"} 2
loki_lat_seconds_bucket{route="/v1/submit",le="0.05"} 2
loki_lat_seconds_bucket{route="/v1/submit",le="0.1"} 2
loki_lat_seconds_bucket{route="/v1/submit",le="0.25"} 2
loki_lat_seconds_bucket{route="/v1/submit",le="0.5"} 2
loki_lat_seconds_bucket{route="/v1/submit",le="1"} 2
loki_lat_seconds_bucket{route="/v1/submit",le="2.5"} 2
loki_lat_seconds_bucket{route="/v1/submit",le="+Inf"} 3
loki_lat_seconds_sum{route="/v1/submit"} 3.0203
loki_lat_seconds_count{route="/v1/submit"} 3
# EXEMPLAR loki_lat_seconds{route="/v1/submit"} trace_id=00000000000000ab value=3
# HELP loki_path_total Escaped \\ label
# TYPE loki_path_total counter
loki_path_total{path="a\"b\\c\nd"} 2
# HELP loki_plain_total Unlabelled counter
# TYPE loki_plain_total counter
loki_plain_total 3
# HELP loki_req_total Requests\nby method
# TYPE loki_req_total counter
loki_req_total{method="GET",class="2xx"} 7
loki_req_total{method="POST",class="5xx"} 1
"#;

    #[test]
    fn render_matches_the_golden_exposition() {
        assert_eq!(golden_registry().render(), GOLDEN);
    }

    #[test]
    fn push_value_writes_what_display_writes() {
        let two_53 = EXACT_INTEGERS;
        let subnormal = f64::from_bits(1);
        assert!(subnormal.is_subnormal());
        let finite = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            two_53 - 1.0,
            -(two_53 - 1.0),
            two_53,
            -two_53,
            two_53 + 2.0,
            -(two_53 + 2.0),
            1e15,
            1e16,
            1e21,
            u64::MAX as f64,
            i64::MIN as f64,
            0.5,
            2.55,
            1e-7,
            subnormal,
        ];
        for v in finite {
            let mut out = String::new();
            push_value(&mut out, v);
            assert_eq!(out, format!("{v}"), "bits {:#x}", v.to_bits());
        }
        for (v, text) in [(f64::NAN, "NaN"), (f64::INFINITY, "+Inf"), (f64::NEG_INFINITY, "-Inf")] {
            let mut out = String::new();
            push_value(&mut out, v);
            assert_eq!(out, text);
        }
    }

    #[test]
    fn a_child_registered_after_a_render_appears_in_the_next() {
        let reg = Registry::new("x");
        reg.counter("a_total", "a", &[]).inc();
        let first = reg.render();
        assert!(!first.contains("x_b_seconds"), "{first}");
        reg.histogram("b_seconds", "b", &[0.5], &[("k", "v")]).observe(0.25);
        reg.counter("a_total", "a", &[("k", "late")]).add(2);
        let text = reg.render();
        assert!(text.len() > first.len());
        for line in [
            "x_a_total 1",
            "x_a_total{k=\"late\"} 2",
            "x_b_seconds_bucket{k=\"v\",le=\"0.5\"} 1",
            "x_b_seconds_bucket{k=\"v\",le=\"+Inf\"} 1",
            "x_b_seconds_sum{k=\"v\"} 0.25",
            "x_b_seconds_count{k=\"v\"} 1",
        ] {
            assert!(text.lines().any(|l| l == line), "{line} missing from\n{text}");
        }
    }

    #[test]
    fn re_registering_a_child_stores_no_second_key_set() {
        let stored = |reg: &Registry| -> Vec<usize> {
            let fams = reg.families.lock().unwrap();
            fams.values()
                .flat_map(|f| f.children.iter().map(|c| c.keys.len()))
                .collect()
        };
        let reg = Registry::new("x");
        let h = reg.histogram("lat_seconds", "l", &[0.1, 1.0], &[("k", "a")]);
        reg.counter("hits_total", "h", &[]);
        // Families in name order: the counter's one key, then the
        // histogram's three `_bucket` keys, `_sum` and `_count`.
        assert_eq!(stored(&reg), vec![1, 3 + 2]);
        let again = reg.histogram("lat_seconds", "l", &[0.1, 1.0], &[("k", "a")]);
        reg.counter("hits_total", "h", &[]);
        assert!(Arc::ptr_eq(&h, &again));
        assert_eq!(stored(&reg), vec![1, 3 + 2]);
    }

    #[test]
    fn exposition_is_parseable() {
        // A minimal syntactic check over every rendered line: comments or
        // `name{labels} value`.
        let reg = Registry::new("loki");
        reg.counter("a_total", "a", &[("m", "GET")]).inc();
        reg.gauge("b", "b", &[]).set(1.5);
        reg.histogram("c_seconds", "c", &[0.1], &[]).observe(0.05);
        for line in reg.render().lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok() || value == "+Inf", "{line}");
            let name = series.split('{').next().expect("name");
            assert!(valid_metric_name(name), "{line}");
        }
    }
}
