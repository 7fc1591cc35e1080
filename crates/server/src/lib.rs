//! # loki-server — the Loki REST backend
//!
//! The paper's prototype backend was "a back-end database/server built in
//! Django"; this crate is its Rust equivalent on top of [`loki_net`]:
//!
//! | Route | Purpose |
//! |---|---|
//! | `GET /v1/health` | liveness |
//! | `GET /v1/surveys` | survey list (Fig. 1(a)'s screen); `?limit=`/`?after=` cursor pagination |
//! | `GET /v1/surveys/:id` | full survey definition |
//! | `POST /v1/surveys` | publish a survey |
//! | `POST /v1/surveys/:id/responses` | upload an **obfuscated** response |
//! | `GET /v1/surveys/:id/results/:question` | per-bin + pooled estimates, from the streaming state |
//! | `GET /v1/surveys/:id/estimate/:question` | the same reply as `/results/`; `?mode=ldp-truth` for truth inference |
//! | `GET /v1/surveys/:id/choices/:question` | RR-inverted choice frequencies |
//! | `GET /v1/privacy` | live k-anonymity distribution, at-risk ratio, linkage entropy ([`agg`]) |
//! | `GET /v1/ledger/:user` | cumulative privacy loss of a user |
//! | `GET /v1/stats` | platform totals + ε-distribution summary |
//! | `GET /v1/metrics` | Prometheus text exposition ([`metrics`]) |
//! | `GET /v1/accesslog` | recent sanitized access records |
//! | `GET /v1/healthz` | build info, uptime, journal-poisoned status |
//! | `GET /v1/traces` | retained request traces (summaries) |
//! | `GET /v1/traces/:id` | one trace's full span tree |
//! | `GET /v1/audit` | recent ε-audit events (opaque subject index) |
//! | `GET /v1/timeseries` | downsampled metric history ([`metrics`] tsdb) |
//! | `GET /v1/slo` | current SLO statuses + burn rates |
//! | `GET /v1/alerts` | alert states (any firing ⇒ healthz `degraded`) |
//! | `GET /v1/alerts/history` | bounded ring of alert transitions |
//! | `GET /v1/profile` | wall-clock phase profile per thread; `?format=collapsed` for flamegraph tools |
//! | `GET /v1/procstats` | process RSS, open fds, threads, CPU ticks and allocator totals |
//! | `GET /v1/admin/shards` | per-shard occupancy, WAL lane health, `?survey_id=` routing preview |
//!
//! Every route is registered once, under `/v1`; an unversioned path
//! answers 404 and counts in `loki_http_legacy_requests_total`, so an
//! operator can see who still calls the retired surface. Errors —
//! handler, router, and parser level alike — render as the unified
//! envelope `{"error": {"code", "message"}}` ([`error::ApiError`]), and
//! every response (success or failure) carries the request's trace id
//! in the `x-loki-trace-id` header — a retained id resolves at
//! `GET /v1/traces/:id` to the span tree crossing the group-commit
//! boundary (enqueue → batch → fsync → apply → ack).
//!
//! The at-source property is enforced at ingest: submissions containing
//! raw (non-obfuscated) answers to obfuscatable questions are rejected
//! with `422` — the server refuses to even store them. The server's
//! ledger mirrors the client's declared releases so users can query their
//! cumulative loss (ε tracking, §3.1).
//!
//! Writes are **WAL-first**: with a journal attached, `add_survey` and
//! `submit` block until a dedicated group-committer thread has made the
//! record fsync-durable, and only then apply it to memory and ack — so a
//! crash can lose un-acked work but never an acked write. Concurrent
//! submitters share one fsync per batch ([`wal::GroupCommitter`]); a
//! durability failure surfaces as a typed 503, never a silent drop
//! ([`store`]'s durability contract).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod api;
pub mod app;
pub mod error;
pub mod metrics;
pub mod scrape;
pub mod store;
pub mod wal;

pub use api::{LedgerInfo, QuestionResults, SubmitRequest, SurveySummary};
pub use app::{build_router, serve};
pub use error::ApiError;
pub use metrics::{HistoryConfig, ServerMetrics};
pub use scrape::SelfScraper;
pub use store::{AppState, InvalidBudget, ReadMiss, ShardStats};
