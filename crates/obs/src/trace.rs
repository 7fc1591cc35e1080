//! Request-scoped tracing: span trees that survive thread handoff.
//!
//! The submit path crosses a thread boundary — the writer enqueues a
//! commit request and the `GroupCommitter` thread pays the durability
//! cost inside a batch. Aggregate histograms can say *that* p99 spiked;
//! a trace says *which* request waited, in *which* batch, and how long
//! the fsync under it took. This module is the zero-dependency core:
//!
//! * [`Tracer`] — issues trace ids from a splitmix64 stream over an
//!   explicitly seeded state (same discipline as the rest of the
//!   workspace: no ambient entropy), decides sampling, and owns the
//!   bounded retention store.
//! * [`Trace`] / [`SpanContext`] — a trace plus its cloneable handoff
//!   handle. The context is what crosses thread boundaries: the writer
//!   clones it onto the commit request and the committer records
//!   complete spans against it with [`SpanContext::add_span_at`].
//! * [`ActiveSpan`] — an in-progress span on the current thread.
//! * A thread-local *current* context ([`set_current`], [`current`])
//!   so deep layers (the store) pick up the request's trace without
//!   threading a parameter through every signature.
//!
//! **Retained traces are immutable and shared.** [`Tracer::finish`]
//! freezes a retained trace's spans once into an `Arc<[SpanRecord]>`.
//! Nothing mutates them after that, so a read ([`Tracer::list`],
//! [`Tracer::get`]) hands out refcount bumps of the stored spans instead
//! of copying every span tree under the store lock, and a trace a reader
//! holds stays intact after the ring evicts it.
//!
//! **Cost discipline:** a recording trace (sampled, or any trace once a
//! slow threshold is set, as the server's default config has) reuses a
//! per-thread buffer: [`Tracer::finish`] hands the buffer back to its
//! thread once no context shares it, and the next [`Tracer::start`] there
//! resets it. Span attributes are held inline ([`SpanAttrs`]), so
//! recording a span allocates nothing either. Only a retained trace
//! allocates, once, when its spans are frozen. When sampling is off and no
//! slow threshold is configured, a [`Trace`] carries no buffer at all
//! (`inner` is `None`). The id is always generated so every response can
//! carry an `x-loki-trace-id` header.
//!
//! **Privacy discipline:** span names are `&'static str` and span
//! attributes are numeric (`u64`) by construction. There is no API to
//! attach a user id, path, or any other free-form string to a span, so
//! traces are structurally incapable of leaking quasi-identifiers. The
//! `loki-lint` sensitive-egress rule additionally keeps forbidden
//! identifier names out of this module.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Span id within one trace. `0` is "no span"; the root span is [`ROOT_SPAN`].
pub type SpanId = u64;

/// The id of the implicit root span every trace owns.
pub const ROOT_SPAN: SpanId = 1;

/// splitmix64 — the same tiny generator used across the workspace for
/// deterministic, explicitly seeded id streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The most attributes one span keeps: the `batch` span's `batch_id` and
/// `batch_size`, the most any caller records.
pub const MAX_SPAN_ATTRS: usize = 2;

/// A span's numeric attributes, held inline: up to [`MAX_SPAN_ATTRS`]
/// pairs, in the order they were attached. Derefs to the recorded pairs.
#[derive(Clone, Copy, Default)]
pub struct SpanAttrs {
    len: usize,
    pairs: [(&'static str, u64); MAX_SPAN_ATTRS],
}

impl SpanAttrs {
    /// Appends `pair`, or drops it when [`MAX_SPAN_ATTRS`] are held.
    fn push(&mut self, pair: (&'static str, u64)) {
        if let Some(slot) = self.pairs.get_mut(self.len) {
            *slot = pair;
            self.len += 1;
        }
    }
}

impl Deref for SpanAttrs {
    type Target = [(&'static str, u64)];

    fn deref(&self) -> &Self::Target {
        &self.pairs[..self.len]
    }
}

impl fmt::Debug for SpanAttrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One recorded span: name, tree position, start/end offsets (nanoseconds
/// since the trace began) and numeric attributes. Holds no heap data.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Span id, unique within the trace.
    pub id: SpanId,
    /// Static span name ("request", "enqueue", "batch", "fsync", ...).
    pub name: &'static str,
    /// Parent span id; `None` only for the root span.
    pub parent: Option<SpanId>,
    /// Nanoseconds from trace start to span start.
    pub start_ns: u64,
    /// Nanoseconds from trace start to span end.
    pub end_ns: u64,
    /// Numeric attributes (e.g. `("batch_id", 7)`). Numeric on purpose:
    /// there is no way to smuggle an identifier string into a trace.
    pub attrs: SpanAttrs,
}

/// Span slots reserved when a recording buffer is made: a submit records
/// `enqueue`, `batch`, `fsync`, `apply` and `ack`, and one slot is spare,
/// so the buffer is allocated once and never regrown on that path.
const SPAN_BUFFER_CAPACITY: usize = 6;

/// The shared recording buffer behind a recorded trace.
#[derive(Debug)]
struct TraceInner {
    started: Instant,
    next_span: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl TraceInner {
    /// A buffer for a new trace: this thread's spare, reset, or else a
    /// fresh one.
    fn take() -> Arc<TraceInner> {
        if let Ok(Some(mut spare)) = SPARE.try_with(Cell::take) {
            let unshared = Arc::get_mut(&mut spare);
            debug_assert!(unshared.is_some(), "recycle keeps only unshared buffers");
            if let Some(inner) = unshared {
                inner.started = Instant::now();
                *inner.next_span.get_mut() = ROOT_SPAN + 1;
                // `clear` keeps the Vec's capacity: that is the reuse.
                inner.spans.get_mut().unwrap_or_else(PoisonError::into_inner).clear();
                return spare;
            }
        }
        Arc::new(TraceInner {
            started: Instant::now(),
            // Span 1 is reserved for the root; children start at 2.
            next_span: AtomicU64::new(ROOT_SPAN + 1),
            spans: Mutex::new(Vec::with_capacity(SPAN_BUFFER_CAPACITY)),
        })
    }

    /// Keeps `inner` as this thread's spare, unless a context still
    /// shares it (a clone alive past `finish` keeps writing into its own
    /// buffer, never into a later trace) or a thread panicked while
    /// recording into it. Either way the buffer is dropped instead.
    fn recycle(mut inner: Arc<TraceInner>) {
        if Arc::get_mut(&mut inner).is_none() || inner.spans.is_poisoned() {
            return;
        }
        let _ = SPARE.try_with(|spare| spare.set(Some(inner)));
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.started)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
    }
}

/// The cloneable handle that crosses thread boundaries.
///
/// The handoff rule: whoever moves work to another thread clones the
/// context onto the message; the receiving thread records complete spans
/// with [`SpanContext::add_span_at`], never through the thread-local.
#[derive(Debug, Clone)]
pub struct SpanContext {
    trace_id: u64,
    inner: Option<Arc<TraceInner>>,
}

impl SpanContext {
    /// The trace id this context belongs to.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Whether spans recorded against this context are actually kept.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the trace started (0 when not recording).
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.offset_ns(Instant::now()),
            None => 0,
        }
    }

    /// Starts a span parented to the root span.
    pub fn start_child(&self, name: &'static str) -> ActiveSpan {
        self.start_span(name, Some(ROOT_SPAN))
    }

    /// Starts a span with an explicit parent.
    pub fn start_span(&self, name: &'static str, parent: Option<SpanId>) -> ActiveSpan {
        let (id, start_ns) = match &self.inner {
            Some(inner) => (
                inner.next_span.fetch_add(1, Ordering::Relaxed),
                inner.offset_ns(Instant::now()),
            ),
            None => (0, 0),
        };
        ActiveSpan {
            ctx: self.clone(),
            id,
            name,
            parent,
            start_ns,
            attrs: SpanAttrs::default(),
            finished: false,
        }
    }

    /// Records a complete span from explicit instants. This is the
    /// cross-thread API: offsets are computed against the *trace's* own
    /// epoch, so a committer thread can record spans for many different
    /// traces in one batch. Keeps the first [`MAX_SPAN_ATTRS`] of `attrs`
    /// and drops the rest. Returns the new span's id (0 if dropped).
    pub fn add_span_at(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        attrs: &[(&'static str, u64)],
    ) -> SpanId {
        let Some(inner) = &self.inner else { return 0 };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let mut kept = SpanAttrs::default();
        for &pair in attrs {
            kept.push(pair);
        }
        let record = SpanRecord {
            id,
            name,
            parent,
            start_ns: inner.offset_ns(start),
            end_ns: inner.offset_ns(end),
            attrs: kept,
        };
        inner.spans.lock().unwrap_or_else(PoisonError::into_inner).push(record);
        id
    }

    fn record(&self, span: SpanRecord) {
        if let Some(inner) = &self.inner {
            inner.spans.lock().unwrap_or_else(PoisonError::into_inner).push(span);
        }
    }
}

/// An in-progress span. Finishes (records its end offset) on [`drop`] or
/// explicitly via [`ActiveSpan::finish`].
#[derive(Debug)]
pub struct ActiveSpan {
    ctx: SpanContext,
    id: SpanId,
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    attrs: SpanAttrs,
    finished: bool,
}

impl ActiveSpan {
    /// This span's id, for parenting children (0 when not recording).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Attaches a numeric attribute. A span keeps the first
    /// [`MAX_SPAN_ATTRS`] attached; later ones are dropped.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if self.ctx.inner.is_some() {
            self.attrs.push((key, value));
        }
    }

    /// Ends the span now and records it.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        if self.ctx.inner.is_none() {
            return;
        }
        let end_ns = self.ctx.now_ns();
        self.ctx.record(SpanRecord {
            id: self.id,
            name: self.name,
            parent: self.parent,
            start_ns: self.start_ns,
            end_ns,
            attrs: self.attrs,
        });
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

/// One live trace, owned by the request's serving thread.
#[derive(Debug)]
pub struct Trace {
    id: u64,
    sampled: bool,
    inner: Option<Arc<TraceInner>>,
}

impl Trace {
    /// The trace id (present even when nothing is recorded).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// A cloneable handoff handle for this trace.
    pub fn ctx(&self) -> SpanContext {
        SpanContext {
            trace_id: self.id,
            inner: self.inner.clone(),
        }
    }
}

/// Sampling, retention and capacity knobs for a [`Tracer`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Ring capacity of the retained-trace store.
    pub capacity: usize,
    /// Keep every Nth trace (0 disables sampling entirely).
    pub sample_every: u64,
    /// Additionally keep any trace at least this slow, sampled or not.
    pub slow_threshold: Option<Duration>,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            capacity: 512,
            sample_every: 16,
            slow_threshold: Some(Duration::from_millis(250)),
        }
    }
}

impl TraceConfig {
    /// Tracing compiled in, recording fully off: ids are still issued
    /// but no trace allocates or retains anything (the OBS-2 posture).
    pub fn disabled() -> TraceConfig {
        TraceConfig {
            capacity: 1,
            sample_every: 0,
            slow_threshold: None,
        }
    }
}

/// A finished, retained trace as held by the store.
#[derive(Debug, Clone)]
pub struct StoredTrace {
    /// Trace id.
    pub id: u64,
    /// Whether the sampler (vs the slow threshold) retained it.
    pub sampled: bool,
    /// Total wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Recorded spans in completion order; span ids give tree structure.
    /// Frozen when the trace finishes and shared by every clone.
    pub spans: Arc<[SpanRecord]>,
}

/// Issues ids, samples, and retains finished traces in a bounded ring.
#[derive(Debug)]
pub struct Tracer {
    seed: u64,
    seq: AtomicU64,
    config: TraceConfig,
    store: Mutex<VecDeque<StoredTrace>>,
}

impl Tracer {
    /// A tracer with an explicit id seed (no ambient entropy).
    pub fn new(seed: u64, config: TraceConfig) -> Tracer {
        let capacity = config.capacity.max(1);
        Tracer {
            seed,
            seq: AtomicU64::new(0),
            config: TraceConfig { capacity, ..config },
            store: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    /// Issues a bare id from the same stream as [`Tracer::start`], for
    /// responses produced outside any handler (router-level errors).
    pub fn next_id(&self) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(self.seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// Begins a trace. Records (into this thread's spare buffer, or a new
    /// one) only if the trace could possibly be retained: sampled, or a
    /// slow threshold is set.
    pub fn start(&self) -> Trace {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(self.seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let id = if id == 0 { 1 } else { id };
        let sampled = self.config.sample_every != 0 && seq % self.config.sample_every == 0;
        let record = sampled || self.config.slow_threshold.is_some();
        Trace {
            id,
            sampled,
            inner: record.then(TraceInner::take),
        }
    }

    /// Ends a trace, deciding retention: kept if sampled, or if its
    /// duration crossed the slow threshold. The store is a bounded ring
    /// — the oldest retained trace is evicted at capacity. A retained
    /// trace's spans are copied out once; the buffer then goes back to
    /// this thread for the next [`Tracer::start`].
    pub fn finish(&self, trace: Trace) {
        let Some(inner) = trace.inner else { return };
        let duration = inner.started.elapsed();
        let slow = self
            .config
            .slow_threshold
            .is_some_and(|t| duration >= t);
        if trace.sampled || slow {
            let spans = Arc::from(&inner.spans.lock().unwrap_or_else(PoisonError::into_inner)[..]);
            let mut store = self.store.lock().unwrap_or_else(PoisonError::into_inner);
            if store.len() >= self.config.capacity {
                store.pop_front();
            }
            store.push_back(StoredTrace {
                id: trace.id,
                sampled: trace.sampled,
                duration_ns: duration.as_nanos() as u64,
                spans,
            });
        }
        TraceInner::recycle(inner);
    }

    /// Retained traces, oldest first (most recent last). Each entry shares
    /// its spans with the store.
    pub fn list(&self) -> Vec<StoredTrace> {
        self.store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Looks up one retained trace by id. The result shares its spans
    /// with the store.
    pub fn get(&self, id: u64) -> Option<StoredTrace> {
        self.store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|t| t.id == id)
            .cloned()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.store.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// Thread-local current context
// ---------------------------------------------------------------------

thread_local! {
    static CURRENT: std::cell::RefCell<Option<SpanContext>> =
        const { std::cell::RefCell::new(None) };
    /// The recording buffer [`Tracer::finish`] last handed back on this
    /// thread, for the next [`Tracer::start`] to reuse.
    static SPARE: Cell<Option<Arc<TraceInner>>> = const { Cell::new(None) };
}

/// Installs `ctx` as the current thread's trace context; the previous
/// one is restored when the returned guard drops.
pub fn set_current(ctx: SpanContext) -> TraceGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(ctx));
    TraceGuard { prev }
}

/// The current thread's trace context, if a request is being traced.
pub fn current() -> Option<SpanContext> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Restores the previously current trace context on drop.
#[derive(Debug)]
pub struct TraceGuard {
    prev: Option<SpanContext>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording_tracer() -> Tracer {
        Tracer::new(
            7,
            TraceConfig {
                capacity: 4,
                sample_every: 1,
                slow_threshold: None,
            },
        )
    }

    #[test]
    fn ids_are_deterministic_and_distinct() {
        let a = Tracer::new(42, TraceConfig::default());
        let b = Tracer::new(42, TraceConfig::default());
        let ids_a: Vec<u64> = (0..16).map(|_| a.next_id()).collect();
        let ids_b: Vec<u64> = (0..16).map(|_| b.next_id()).collect();
        assert_eq!(ids_a, ids_b, "same seed, same id stream");
        let unique: std::collections::HashSet<u64> = ids_a.iter().copied().collect();
        assert_eq!(unique.len(), ids_a.len(), "ids repeat");
        assert!(ids_a.iter().all(|&id| id != 0), "0 is reserved for no-trace");
    }

    #[test]
    fn disabled_config_allocates_nothing() {
        let tracer = Tracer::new(1, TraceConfig::disabled());
        let trace = tracer.start();
        assert!(trace.inner.is_none(), "no buffer when recording is off");
        assert_ne!(trace.id(), 0, "id still issued for the response header");
        let ctx = trace.ctx();
        assert!(!ctx.is_recording());
        let mut span = ctx.start_child("apply");
        span.attr("n", 3);
        assert_eq!(span.id(), 0);
        span.finish();
        assert_eq!(
            ctx.add_span_at("batch", None, Instant::now(), Instant::now(), &[]),
            0
        );
        tracer.finish(trace);
        assert_eq!(tracer.len(), 0);
    }

    #[test]
    fn span_tree_records_parents_offsets_and_attrs() {
        let tracer = recording_tracer();
        let trace = tracer.start();
        let id = trace.id();
        let ctx = trace.ctx();
        let mut apply = ctx.start_child("apply");
        apply.attr("stored", 5);
        let apply_id = apply.id();
        apply.finish();
        let t0 = Instant::now();
        let batch = ctx.add_span_at("batch", Some(ROOT_SPAN), t0, Instant::now(), &[("batch_id", 9)]);
        ctx.add_span_at("fsync", Some(batch), t0, Instant::now(), &[]);
        tracer.finish(trace);

        let stored = tracer.get(id).expect("trace retained");
        assert_eq!(stored.spans.len(), 3);
        let apply = stored.spans.iter().find(|s| s.name == "apply").unwrap();
        assert_eq!(apply.id, apply_id);
        assert_eq!(apply.parent, Some(ROOT_SPAN));
        assert!(apply.end_ns >= apply.start_ns);
        assert_eq!(*apply.attrs, [("stored", 5)]);
        let fsync = stored.spans.iter().find(|s| s.name == "fsync").unwrap();
        assert_eq!(fsync.parent, Some(batch), "fsync parents to the batch span");
    }

    #[test]
    fn context_crosses_threads() {
        let tracer = recording_tracer();
        let trace = tracer.start();
        let ctx = trace.ctx();
        let handle = std::thread::spawn(move || {
            let t0 = Instant::now();
            ctx.add_span_at("batch", Some(ROOT_SPAN), t0, Instant::now(), &[("batch_id", 1)]);
        });
        handle.join().unwrap();
        let id = trace.id();
        tracer.finish(trace);
        let stored = tracer.get(id).unwrap();
        assert_eq!(stored.spans.len(), 1);
        assert_eq!(stored.spans[0].name, "batch");
    }

    #[test]
    fn sampling_keeps_every_nth() {
        let tracer = Tracer::new(
            3,
            TraceConfig {
                capacity: 100,
                sample_every: 4,
                slow_threshold: None,
            },
        );
        for _ in 0..20 {
            let t = tracer.start();
            tracer.finish(t);
        }
        assert_eq!(tracer.len(), 5, "every 4th of 20 traces is retained");
    }

    #[test]
    fn slow_threshold_retains_unsampled_traces() {
        let tracer = Tracer::new(
            5,
            TraceConfig {
                capacity: 8,
                sample_every: 0,
                slow_threshold: Some(Duration::from_millis(1)),
            },
        );
        let fast = tracer.start();
        tracer.finish(fast);
        assert_eq!(tracer.len(), 0, "fast unsampled trace dropped");
        let slow = tracer.start();
        std::thread::sleep(Duration::from_millis(5));
        tracer.finish(slow);
        assert_eq!(tracer.len(), 1, "slow trace retained without sampling");
    }

    #[test]
    fn store_is_bounded_under_sustained_load() {
        let tracer = Tracer::new(
            11,
            TraceConfig {
                capacity: 32,
                sample_every: 1,
                slow_threshold: None,
            },
        );
        let mut last = 0;
        for _ in 0..10_000 {
            let t = tracer.start();
            last = t.id();
            t.ctx().start_child("apply").finish();
            tracer.finish(t);
        }
        assert_eq!(tracer.len(), 32, "ring never grows past its cap");
        assert!(tracer.get(last).is_some(), "most recent trace retained");
    }

    #[test]
    fn concurrent_wraparound_keeps_traces_untorn_and_ids_unique() {
        // 8 writers × 200 traces through an 8-slot ring: every span's
        // attribute is derived from its own trace id, so a torn entry
        // (spans from one trace stored under another) is detectable.
        const THREADS: usize = 8;
        const PER_THREAD: usize = 200;
        let tracer = std::sync::Arc::new(Tracer::new(
            13,
            TraceConfig {
                capacity: 8,
                sample_every: 1,
                slow_threshold: None,
            },
        ));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let tracer = std::sync::Arc::clone(&tracer);
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        let t = tracer.start();
                        let ctx = t.ctx();
                        let mut span = ctx.start_child("apply");
                        span.attr("tag", t.id() ^ 0xa5a5);
                        span.finish();
                        tracer.finish(t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer thread");
        }
        assert_eq!(tracer.len(), 8, "memory stays bounded under wraparound");
        let stored = tracer.list();
        let ids: std::collections::HashSet<u64> = stored.iter().map(|t| t.id).collect();
        assert_eq!(ids.len(), stored.len(), "retained trace ids are unique");
        for trace in &stored {
            assert_eq!(trace.spans.len(), 1, "torn entry: {trace:?}");
            assert_eq!(trace.spans[0].name, "apply");
            assert_eq!(
                *trace.spans[0].attrs,
                [("tag", trace.id ^ 0xa5a5)],
                "span belongs to a different trace: {trace:?}"
            );
            assert!(trace.spans[0].end_ns >= trace.spans[0].start_ns);
        }
    }

    #[test]
    fn reads_share_the_frozen_spans() {
        let tracer = recording_tracer();
        let trace = tracer.start();
        let id = trace.id();
        let mut apply = trace.ctx().start_child("apply");
        apply.attr("stored", 5);
        apply.finish();
        trace.ctx().start_child("ack").finish();
        tracer.finish(trace);

        let first = tracer.list();
        let second = tracer.list();
        let got = tracer.get(id).expect("trace retained");
        assert!(Arc::ptr_eq(&first[0].spans, &second[0].spans), "list copied the spans");
        assert!(Arc::ptr_eq(&first[0].spans, &got.spans), "get copied the spans");
        let frozen = format!("{:?}", got.spans);

        // Three later traces make it the oldest of the four retained.
        for _ in 0..3 {
            let t = tracer.start();
            t.ctx().start_child("apply").finish();
            tracer.finish(t);
        }
        let oldest = tracer.get(id).expect("still retained at capacity");
        assert!(Arc::ptr_eq(&oldest.spans, &got.spans));
        assert_eq!(format!("{:?}", oldest.spans), frozen);

        // One more evicts it; the reader's copy is untouched.
        let t = tracer.start();
        tracer.finish(t);
        assert!(tracer.get(id).is_none(), "evicted");
        assert_eq!(format!("{:?}", got.spans), frozen);
        assert_eq!(got.spans.len(), 2);
    }

    #[test]
    fn poisoned_span_buffer_still_records_and_finishes() {
        let tracer = recording_tracer();
        let trace = tracer.start();
        let id = trace.id();
        let ctx = trace.ctx();
        let inner = Arc::clone(trace.inner.as_ref().expect("recording"));
        let holder = std::thread::spawn(move || {
            let _held = inner.spans.lock();
            panic!("request thread panics holding the span buffer");
        });
        assert!(holder.join().is_err());
        let t0 = Instant::now();
        assert_ne!(ctx.add_span_at("batch", Some(ROOT_SPAN), t0, t0, &[]), 0);
        ctx.start_child("ack").finish();
        tracer.finish(trace);
        assert_eq!(tracer.get(id).expect("trace retained").spans.len(), 2);
    }

    #[test]
    fn poisoned_trace_store_still_finishes_and_lists() {
        let tracer = recording_tracer();
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _held = tracer.store.lock();
                panic!("request thread panics holding the trace store");
            });
            assert!(holder.join().is_err());
        });
        let trace = tracer.start();
        let id = trace.id();
        tracer.finish(trace);
        assert_eq!(tracer.len(), 1);
        assert_eq!(tracer.list()[0].id, id);
        assert!(tracer.get(id).is_some());
    }

    #[test]
    fn current_context_nests_and_restores() {
        assert!(current().is_none());
        let tracer = recording_tracer();
        let outer = tracer.start();
        {
            let _g = set_current(outer.ctx());
            assert_eq!(current().unwrap().trace_id(), outer.id());
            let inner_trace = tracer.start();
            {
                let _g2 = set_current(inner_trace.ctx());
                assert_eq!(current().unwrap().trace_id(), inner_trace.id());
            }
            assert_eq!(current().unwrap().trace_id(), outer.id());
        }
        assert!(current().is_none(), "guard restores the empty state");
    }

    #[test]
    fn attrs_past_the_cap_are_dropped() {
        let tracer = recording_tracer();
        let trace = tracer.start();
        let id = trace.id();
        let ctx = trace.ctx();
        let mut apply = ctx.start_child("apply");
        apply.attr("a", 1);
        apply.attr("b", 2);
        apply.attr("c", 3);
        apply.finish();
        let t0 = Instant::now();
        ctx.add_span_at("batch", Some(ROOT_SPAN), t0, t0, &[("x", 7), ("y", 8), ("z", 9)]);
        tracer.finish(trace);

        let stored = tracer.get(id).expect("trace retained");
        assert_eq!(MAX_SPAN_ATTRS, 2);
        assert_eq!(*stored.spans[0].attrs, [("a", 1), ("b", 2)], "attr keeps the first two");
        assert_eq!(*stored.spans[1].attrs, [("x", 7), ("y", 8)], "add_span_at keeps the first two");
        assert_eq!(format!("{:?}", stored.spans[1].attrs), r#"[("x", 7), ("y", 8)]"#);
    }

    #[test]
    fn dropped_span_still_records() {
        let tracer = recording_tracer();
        let trace = tracer.start();
        let id = trace.id();
        {
            let _span = trace.ctx().start_child("ack");
        }
        tracer.finish(trace);
        assert_eq!(tracer.get(id).unwrap().spans.len(), 1);
    }
}
