//! The trace protocol's allocations, counted by the allocator itself.
//!
//! This binary installs [`CountingAlloc`] and runs one submit's tracing
//! calls in the server's order under `TraceConfig::default()`: `start`,
//! `set_current`, the committer's `enqueue`/`batch`/`fsync` spans, the
//! store's `apply {stored}` and `ack`, then `finish`. Allocations are
//! read from the `trace_allocs.count` phase row, which only the counting
//! thread ever tags, so other test threads cannot leak into a count.

use loki_obs::trace::{self, Tracer, ROOT_SPAN};
use loki_obs::{CountingAlloc, TraceConfig};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocations counted so far under the `trace_allocs.count` tag. Reads
/// under another tag, because reading allocates.
fn counted_so_far() -> u64 {
    loki_obs::phase!("trace_allocs.read");
    CountingAlloc::phase_totals()
        .iter()
        .find(|p| p.phase == "trace_allocs.count")
        .map_or(0, |p| p.allocs)
}

/// Runs `f` under the counting tag and returns how many allocations it
/// made, with its result.
fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = counted_so_far();
    loki_obs::phase!("trace_allocs.count");
    let out = f();
    (counted_so_far() - before, out)
}

/// One traced submit, as `mount`, `AppState::submit` and the group
/// committer record it. Returns the trace id.
fn submit(tracer: &Tracer, batch_id: u64) -> u64 {
    let trace = tracer.start();
    let id = trace.id();
    {
        let _guard = trace::set_current(trace.ctx());
        let ctx = trace::current().expect("the request's context is current");
        // The writer's handoff to the committer, which records the
        // durability spans against the trace's own epoch and lets go of
        // the handoff before it wakes the writer.
        let handoff = ctx.clone();
        let enqueued = Instant::now();
        let drained = Instant::now();
        handoff.add_span_at("enqueue", Some(ROOT_SPAN), enqueued, drained, &[]);
        let attrs = [("batch_id", batch_id), ("batch_size", 3)];
        let batch = handoff.add_span_at("batch", Some(ROOT_SPAN), drained, Instant::now(), &attrs);
        handoff.add_span_at("fsync", Some(batch), drained, Instant::now(), &[]);
        drop(handoff);
        let mut apply = ctx.start_child("apply");
        apply.attr("stored", batch_id);
        apply.finish();
        ctx.start_child("ack").finish();
    }
    tracer.finish(trace);
    id
}

#[test]
fn only_a_retained_trace_allocates_and_only_once() {
    let tracer = Tracer::new(0x7ace, TraceConfig::default());
    // Warm-up: the thread's first buffer and its thread-local slots.
    submit(&tracer, 1);
    let (mut unsampled, mut sampled) = (0, 0);
    for batch_id in 2.. {
        let (allocs, id) = count(|| submit(&tracer, batch_id));
        match tracer.get(id) {
            Some(kept) => {
                assert_eq!(
                    allocs, 1,
                    "a retained trace allocates once, to freeze its spans"
                );
                // Unsampled but kept: the thread stalled past the slow threshold.
                sampled += u64::from(kept.sampled);
            }
            None => {
                assert_eq!(allocs, 0, "a trace that is not retained allocates nothing");
                unsampled += 1;
                if unsampled == 1_000 {
                    break;
                }
            }
        }
    }
    assert!(sampled >= 1_000 / 16, "1 in 16 is sampled, got {sampled}");
}

#[test]
fn a_recycled_buffer_holds_only_the_next_traces_spans() {
    let tracer = Tracer::new(0xb0f, TraceConfig::default());
    // The first trace is sampled and the 16th after it is too; the 15
    // between them are recorded into the same buffer and dropped.
    let mut ids = Vec::new();
    for batch_id in 0..=16 {
        ids.push(submit(&tracer, batch_id));
    }
    let stored = tracer.get(ids[16]).expect("the 17th trace is sampled");
    let names: Vec<&str> = stored.spans.iter().map(|s| s.name).collect();
    assert_eq!(names, ["enqueue", "batch", "fsync", "apply", "ack"]);
    let span_ids: Vec<u64> = stored.spans.iter().map(|s| s.id).collect();
    assert_eq!(span_ids, [2, 3, 4, 5, 6], "span ids restart at 2");
    let batch = &stored.spans[1];
    assert_eq!(*batch.attrs, [("batch_id", 16), ("batch_size", 3)]);
    assert_eq!(stored.spans[2].parent, Some(batch.id));
    assert_eq!(*stored.spans[3].attrs, [("stored", 16)]);
}

#[test]
fn a_context_alive_past_finish_never_writes_into_the_next_trace() {
    let tracer = Tracer::new(0x1a7e, TraceConfig::default());
    for batch_id in 0..15 {
        submit(&tracer, batch_id);
    }
    // The 16th trace is recorded but not sampled; a clone of its context
    // outlives its finish.
    let first = tracer.start();
    let late = first.ctx();
    tracer.finish(first);
    // The 17th trace is sampled, and starts while the clone is alive.
    let next = tracer.start();
    let t0 = Instant::now();
    late.add_span_at(
        "batch",
        Some(ROOT_SPAN),
        t0,
        t0,
        &[("batch_id", 99), ("batch_size", 1)],
    );
    late.start_child("apply").finish();
    drop(late);
    next.ctx().start_child("ack").finish();
    let id = next.id();
    tracer.finish(next);

    let stored = tracer.get(id).expect("the 17th trace is sampled");
    let names: Vec<&str> = stored.spans.iter().map(|s| s.name).collect();
    assert_eq!(names, ["ack"], "the late context wrote into the next trace");
    assert_eq!(stored.spans[0].id, 2);
}
