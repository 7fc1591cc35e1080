//! # loki-obs — the observability substrate
//!
//! The platform holds every user's cumulative privacy ledger, so an
//! operator must be able to *see* ingest latency, budget-cap rejections
//! and the live ε distribution to run it at scale (§3.1: loss "tracked
//! and balanced across the user base" — tracking nobody can watch is not
//! tracking). This crate is the substrate the serving crates hang those
//! signals on:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free instruments.
//!   Recording is a handful of relaxed atomic operations and never
//!   allocates; handles are `Arc`s captured at registration time, so the
//!   hot path does no name lookups either.
//! * [`Registry`] — owns the instruments and renders the Prometheus text
//!   exposition format (`/v1/metrics`). Registration validates metric
//!   and label names up front; rendering is the only allocating path.
//! * [`AccessLog`] — a bounded ring of structured per-request records
//!   (`key=value` lines), the tracing layer next to the numeric one.
//! * [`Tracer`] / [`Trace`] / [`SpanContext`] — request-scoped span
//!   trees with explicit context handoff across thread boundaries
//!   (writer → `GroupCommitter` → reply channel), retained in a bounded
//!   store by sampling or slow-threshold.
//! * [`AuditLog`] — the append-only ε-audit event stream: every budget
//!   charge attempted/charged/rejected-at-cap, keyed by opaque subject
//!   index, joinable to traces by id.
//! * [`Tsdb`] — a fixed-memory ring-buffer time-series store fed by the
//!   server's self-scraper: per-series history of registry snapshots
//!   (counters kept as their high-water mark, histogram fan-out into `_bucket` /
//!   `_count` / `_sum` series) with min/max/avg/last downsampling.
//! * [`SloEngine`] — declarative [`SloSpec`]s evaluated against the
//!   tsdb each scrape tick: multi-window burn rates, an
//!   `Ok → Pending → Firing → Resolved` alert state machine, and a
//!   bounded audit-style ring of [`AlertEvent`] transitions carrying
//!   violating-exemplar trace ids.
//!
//! * [`prof`] — the continuous-profiling layer: threads declare their
//!   current phase with [`phase!`]`("name")` (interned `&'static str`
//!   literals), a 97 Hz sampler accumulates per-thread × per-phase
//!   wall-clock sample tables (`/v1/profile`), and [`CountingAlloc`]
//!   attributes every allocation to the tagging thread's phase.
//! * [`ProcStats`] — `/proc/self` resource readings (RSS, fds, threads,
//!   CPU ticks) on Linux, `None`s elsewhere, feeding the tsdb so
//!   `/v1/timeseries` covers process resources too.
//!
//! Deliberately `std`-only: no serde, no parking_lot, no clocks beyond
//! `std::time`. Privacy note: metric *labels* must never carry
//! quasi-identifiers (user ids, raw paths with embedded ids); the serving
//! crates label by route pattern, method, status class and privacy level
//! only, and `loki-lint`'s `sensitive-egress` rule covers this crate.

// `deny` rather than `forbid` since the profiling layer landed: the
// counting global allocator (alloc.rs) implements the unsafe
// `GlobalAlloc` trait and is the single, module-scoped opt-out below.
// Everything else in the crate still refuses unsafe at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod access;
// GlobalAlloc is an unsafe trait; the module forwards verbatim to
// std's System allocator and documents each block. See alloc.rs.
#[allow(unsafe_code)]
mod alloc;
mod audit;
mod metrics;
pub mod prof;
mod procstats;
mod registry;
mod slo;
pub mod trace;
mod tsdb;

pub use access::{AccessLog, AccessRecord};
pub use alloc::{CountingAlloc, PhaseAlloc};
pub use procstats::ProcStats;
pub use audit::{AuditEvent, AuditLog, AuditOutcome};
pub use metrics::{Counter, Gauge, Histogram, LATENCY_BUCKETS};
pub use registry::{Registry, Sample, SampleValue};
pub use slo::{AlertEvent, AlertState, BurnRule, SloEngine, SloKind, SloSpec, SloStatus};
pub use tsdb::{PointAgg, SeriesData, Tsdb, TsdbConfig};
pub use trace::{
    ActiveSpan, SpanContext, SpanRecord, StoredTrace, Trace, TraceConfig, TraceGuard, Tracer,
};
