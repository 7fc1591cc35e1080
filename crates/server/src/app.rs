//! Route wiring: [`AppState`] + [`loki_net::Router`] → a running server.
//!
//! Every route is registered once, under the versioned prefix `/v1/...`;
//! an unversioned path (`/surveys`) answers the router's 404. Handlers
//! return `Result<Response, ApiError>`; every failure — including the
//! framework's own 404/405 and parser-level 400/413/431, routed through
//! [`Router::set_error_renderer`] — renders as the unified envelope
//! `{"error": {"code", "message"}}` ([`crate::error`]).

use crate::api::{BinResult, LedgerInfo, QuestionResults, SubmitReply, SubmitRequest, SurveySummary};
use crate::error::{error_envelope_traced, json_response, parse_body, path_param, ApiError};
use crate::metrics::ServerMetrics;
use crate::store::{AppState, ReadMiss};
use loki_core::estimator::Estimator;
use loki_net::http::{Method, Request, Response, StatusCode, TRACE_ID_HEADER};
use loki_net::router::{Params, Router};
use loki_net::server::{Server, ServerConfig, ServerHandle};
use loki_obs::StoredTrace;
use loki_survey::survey::{Survey, SurveyId};
use loki_survey::QuestionId;
use std::sync::Arc;
use std::time::Instant;

/// Registers `handler` under `/v1{pattern}`.
///
/// This is also the tracing chokepoint: every dispatch starts a trace,
/// installs its context as the thread-local current (so the store and
/// WAL layers pick it up without parameter plumbing), stamps the id on
/// the response as [`TRACE_ID_HEADER`] — and into the error envelope on
/// failure — then hands the trace back to the tracer for retention.
fn mount(
    router: &mut Router,
    metrics: &Arc<ServerMetrics>,
    method: Method,
    pattern: &str,
    handler: impl Fn(&Request, &Params) -> Result<Response, ApiError> + Send + Sync + 'static,
) {
    let m = Arc::clone(metrics);
    router.route(method, &format!("/v1{pattern}"), move |req, params| {
        let trace = m.tracer().start();
        let trace_id = trace.id();
        let outcome = {
            let _guard = loki_obs::trace::set_current(trace.ctx());
            handler(req, params)
        };
        let mut resp = outcome.unwrap_or_else(|err| err.into_response_traced(trace_id));
        resp.headers.insert(TRACE_ID_HEADER, format!("{trace_id:016x}"));
        m.tracer().finish(trace);
        resp
    });
}

/// XOR key folded into pagination cursors so they read as opaque tokens
/// rather than raw survey ids — clients must echo `next` verbatim, and
/// the key lets us change the encoding later without anyone noticing.
const CURSOR_XOR: u64 = 0x9bd1_c4e2_3a75_086f;

/// Encodes a survey id as an opaque 16-hex-digit pagination cursor.
fn encode_cursor(id: u64) -> String {
    format!("{:016x}", id ^ CURSOR_XOR)
}

/// Decodes a cursor minted by [`encode_cursor`]. Anything that is not
/// exactly 16 hex digits is rejected as `bad_cursor`.
fn decode_cursor(raw: &str) -> Result<u64, ApiError> {
    let parsed = (raw.len() == 16)
        .then(|| u64::from_str_radix(raw, 16).ok())
        .flatten();
    match parsed {
        Some(v) => Ok(v ^ CURSOR_XOR),
        None => Err(ApiError::new(
            StatusCode::BAD_REQUEST,
            "bad_cursor",
            "query parameter `after` is not a valid cursor",
        )),
    }
}

/// The 404 for a per-survey read that found nothing; `no_responses`
/// is the message when the survey exists.
fn read_miss(miss: ReadMiss, no_responses: &'static str) -> ApiError {
    match miss {
        ReadMiss::UnknownSurvey => {
            ApiError::new(StatusCode::NOT_FOUND, "unknown_survey", "unknown survey")
        }
        ReadMiss::NoResponses => ApiError::new(StatusCode::NOT_FOUND, "no_responses", no_responses),
    }
}

/// The one handler body behind `/results/:question` and
/// `/estimate/:question`: answered from the survey's streamed sufficient
/// statistics, never from its stored submissions, so both routes return
/// the same bytes in the default mode. Only `/estimate/` honours `?mode=`
/// (`pooled` or `ldp-truth`).
fn question_results_handler(
    state: &Arc<AppState>,
    with_mode: bool,
) -> impl Fn(&Request, &Params) -> Result<Response, ApiError> + Send + Sync + 'static {
    let s = Arc::clone(state);
    move |req, params| {
        const NO_RESPONSES: &str = "no responses for question";
        let id: u64 = path_param(params, "id")?;
        let q: u32 = path_param(params, "question")?;
        // An unknown survey answers 404 before a bad `mode` answers 400.
        let bins = match s.streaming_bins(SurveyId(id), QuestionId(q)) {
            Err(ReadMiss::UnknownSurvey) => {
                return Err(read_miss(ReadMiss::UnknownSurvey, NO_RESPONSES))
            }
            bins => bins.ok(),
        };
        let estimator = Estimator::default();
        let pooled = match req.query_param("mode").filter(|_| with_mode) {
            None | Some("pooled") => bins.and_then(|b| estimator.pooled(&b)),
            Some("ldp-truth") => bins.and_then(|b| estimator.ldp_truth(&b)),
            Some(_) => {
                return Err(ApiError::new(
                    StatusCode::BAD_REQUEST,
                    "bad_param",
                    "query parameter `mode` must be `pooled` or `ldp-truth`",
                ))
            }
        };
        let pooled = pooled.ok_or_else(|| read_miss(ReadMiss::NoResponses, NO_RESPONSES))?;
        let reply = QuestionResults {
            survey: id,
            question: q,
            bins: pooled
                .bins
                .iter()
                .map(|b| BinResult {
                    level: b.level,
                    n: b.n,
                    mean: b.mean,
                    standard_error: b.standard_error,
                })
                .collect(),
            pooled_mean: pooled.mean,
            pooled_standard_error: pooled.standard_error,
            n_total: pooled.n_total,
        };
        Ok(json_response(StatusCode::OK, &reply))
    }
}

/// JSON shape of one retained trace: the implicit root span is
/// synthesized (id 1, the full request duration) so the tree the client
/// sees is complete.
fn trace_json(t: &StoredTrace) -> serde_json::Value {
    let mut spans = vec![serde_json::json!({
        "id": loki_obs::trace::ROOT_SPAN,
        "name": "request",
        "parent": null,
        "start_ns": 0,
        "end_ns": t.duration_ns,
        "attrs": {},
    })];
    spans.extend(t.spans.iter().map(|s| {
        let attrs: serde_json::Map<String, serde_json::Value> = s
            .attrs
            .iter()
            .map(|(k, v)| ((*k).to_string(), serde_json::json!(v)))
            .collect();
        serde_json::json!({
            "id": s.id,
            "name": s.name,
            "parent": s.parent,
            "start_ns": s.start_ns,
            "end_ns": s.end_ns,
            "attrs": attrs,
        })
    }));
    serde_json::json!({
        "id": format!("{:016x}", t.id),
        "sampled": t.sampled,
        "duration_ns": t.duration_ns,
        "spans": spans,
    })
}

/// `None` for non-finite values, so JSON renders them as `null` rather
/// than failing to serialize.
fn finite(v: f64) -> Option<f64> {
    v.is_finite().then_some(v)
}

/// Builds the full API router over shared state. Enables metrics on the
/// state (idempotent) so handler-level instruments always have a target.
pub fn build_router(state: Arc<AppState>) -> Router {
    let metrics = state.enable_metrics();
    let mut router = Router::new();
    // Router-level errors (404/405, parser rejections) never reach a
    // handler, so they draw a bare id from the same stream: every
    // response carries a trace id, even ones no handler ever saw.
    let m = Arc::clone(&metrics);
    router.set_error_renderer(move |status, code, message| {
        error_envelope_traced(status, code, message, m.tracer().next_id())
    });

    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/health",
        |_, _| Ok(Response::text(StatusCode::OK, "ok")),
    );

    let s = Arc::clone(&state);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/surveys",
        move |req, _| {
            let summarize = |sv: &Arc<Survey>| SurveySummary {
                id: sv.id.0,
                title: sv.title.clone(),
                questions: sv.len(),
                reward_cents: sv.reward_cents,
            };
            // Unpaginated calls keep the original bare-array shape for
            // compatibility; `?limit=`/`?after=` opt into the cursor
            // envelope, which stays O(page) under the sharded store.
            if req.query_param("limit").is_none() && req.query_param("after").is_none() {
                let list: Vec<SurveySummary> = s.surveys().iter().map(summarize).collect();
                return Ok(json_response(StatusCode::OK, &list));
            }
            let limit = query_u64(req, "limit", 50)?;
            if limit == 0 || limit > 1000 {
                return Err(ApiError::new(
                    StatusCode::BAD_REQUEST,
                    "bad_param",
                    "query parameter `limit` must be between 1 and 1000",
                ));
            }
            let after = match req.query_param("after") {
                None => None,
                Some(raw) => Some(SurveyId(decode_cursor(raw)?)),
            };
            let (page, has_more) = s.surveys_page(after, limit as usize);
            let next = has_more
                .then(|| page.last().map(|sv| encode_cursor(sv.id.0)))
                .flatten();
            let items: Vec<SurveySummary> = page.iter().map(summarize).collect();
            Ok(json_response(
                StatusCode::OK,
                &serde_json::json!({"surveys": items, "next": next}),
            ))
        },
    );

    let s = Arc::clone(&state);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/surveys/:id",
        move |_, params| {
            let id: u64 = path_param(params, "id")?;
            match s.survey(SurveyId(id)) {
                Some(survey) => Ok(json_response(StatusCode::OK, &*survey)),
                None => Err(ApiError::new(
                    StatusCode::NOT_FOUND,
                    "unknown_survey",
                    "unknown survey",
                )),
            }
        },
    );

    let s = Arc::clone(&state);
    mount(
        &mut router,
        &metrics,
        Method::Post,
        "/surveys",
        move |req, _| {
            let token = req
                .headers
                .get("authorization")
                .and_then(|v| v.strip_prefix("Bearer "));
            if !s.may_publish(token) {
                return Err(ApiError::new(
                    StatusCode::UNAUTHORIZED,
                    "unauthorized",
                    "requester token required",
                ));
            }
            let survey: Survey = parse_body(req)?;
            if survey.is_empty() {
                return Err(ApiError::new(
                    StatusCode::UNPROCESSABLE,
                    "empty_survey",
                    "survey has no questions",
                ));
            }
            match s.add_survey(survey) {
                Ok(true) => Ok(json_response(
                    StatusCode::CREATED,
                    &serde_json::json!({"created": true}),
                )),
                Ok(false) => Err(ApiError::new(
                    StatusCode::CONFLICT,
                    "duplicate_survey",
                    "survey id already exists",
                )),
                // Durability failure: the survey is neither on disk nor
                // in memory — tell the requester instead of lying.
                Err(e) => Err(ApiError::from(e)),
            }
        },
    );

    let s = Arc::clone(&state);
    mount(
        &mut router,
        &metrics,
        Method::Post,
        "/surveys/:id/responses",
        move |req, params| {
            let started = Instant::now();
            let id: u64 = path_param(params, "id")?;
            let body: SubmitRequest = parse_body(req)?;
            if body.response.survey != SurveyId(id) {
                return Err(ApiError::new(
                    StatusCode::UNPROCESSABLE,
                    "survey_mismatch",
                    "response targets a different survey",
                ));
            }
            let outcome = s.submit(&body.user, body.privacy_level, body.response, &body.releases);
            if let Some(m) = s.metrics() {
                let trace_id = loki_obs::trace::current().map(|c| c.trace_id()).unwrap_or(0);
                m.observe_submit(started.elapsed(), trace_id);
            }
            let stored = outcome.map_err(ApiError::from)?;
            let loss = s.user_loss(&body.user);
            let reply = SubmitReply {
                stored,
                cumulative_epsilon: loss.is_finite().then(|| loss.epsilon.value()),
            };
            Ok(json_response(StatusCode::CREATED, &reply))
        },
    );

    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/surveys/:id/results/:question",
        question_results_handler(&state, false),
    );
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/surveys/:id/estimate/:question",
        question_results_handler(&state, true),
    );

    let s = Arc::clone(&state);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/surveys/:id/choices/:question",
        move |_, params| {
            let id: u64 = path_param(params, "id")?;
            let q: u32 = path_param(params, "question")?;
            let counts = s.choice_counts(SurveyId(id), QuestionId(q));
            match counts.and_then(|c| c.estimate().ok_or(ReadMiss::NoResponses)) {
                Ok(estimate) => Ok(json_response(StatusCode::OK, &estimate)),
                Err(miss) => Err(read_miss(
                    miss,
                    "no choice responses for question (or not a multiple-choice question)",
                )),
            }
        },
    );

    let s = Arc::clone(&state);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/stats",
        move |_, _| {
            // The counts are O(shards): survey map lengths and per-shard
            // apply counters, with no walk of the survey or submission
            // maps. The ε figures are O(users): `epsilon_summary` walks
            // every ledger and reads the loss it stored when it last
            // recorded a release, converting nothing.
            let surveys = s.survey_count();
            let submissions = s.submission_total();
            let summary = s.accountant.epsilon_summary(f64::INFINITY);
            Ok(json_response(
                StatusCode::OK,
                &serde_json::json!({
                    "surveys": surveys,
                    "submissions": submissions,
                    "users": summary.users,
                    "unbounded_users": summary.unbounded,
                    "epsilon": {
                        "p50": finite(summary.p50),
                        "p90": finite(summary.p90),
                        "p99": finite(summary.p99),
                        "mean": finite(summary.mean),
                        "max": finite(summary.max),
                    },
                }),
            ))
        },
    );

    let s = Arc::clone(&state);
    let privacy_metrics = Arc::clone(&metrics);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/privacy",
        move |_, _| {
            // The merge is O(sketch shards + cohorts) regardless of how
            // many submissions produced the sketches; its latency feeds
            // `loki_agg_merge_seconds` so the flat-cost claim is watchable.
            let started = Instant::now();
            let summary = s.privacy_summary();
            privacy_metrics.observe_agg_merge(started.elapsed());
            let surveys: Vec<serde_json::Value> = s
                .survey_agg_rollups()
                .iter()
                .map(|(id, submissions, qi_questions, qi_fragments)| {
                    serde_json::json!({
                        "survey": id.0,
                        "submissions": submissions,
                        "qi_questions": qi_questions,
                        "qi_fragments": qi_fragments,
                    })
                })
                .collect();
            // Bucket counts only: no subject ids, no quasi-identifier
            // values ever cross this serializer (loki-lint raw-identity
            // scope covers this module).
            let histogram: Vec<serde_json::Value> = summary
                .k
                .histogram
                .iter()
                .map(|(k, members)| serde_json::json!({"k": k, "subjects": members}))
                .collect();
            Ok(json_response(
                StatusCode::OK,
                &serde_json::json!({
                    "subjects": summary.subjects,
                    "k_anonymity": {
                        "complete": summary.k.complete,
                        "cohorts": summary.k.cohorts,
                        "histogram": histogram,
                        "at_risk": summary.k.at_risk,
                    },
                    "at_risk_ratio": finite(summary.k.at_risk_ratio()),
                    "linkage_entropy_bits": finite(summary.k.entropy_bits),
                    "surveys": surveys,
                }),
            ))
        },
    );

    let s = Arc::clone(&state);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/ledger/:user",
        move |_, params| {
            let user: String = path_param(params, "user")?;
            let loss = s.user_loss(&user);
            let info = LedgerInfo {
                user: user.clone(),
                releases: s.accountant.releases_of(&user),
                epsilon: loss.is_finite().then(|| loss.epsilon.value()),
                delta: loki_dp::DEFAULT_DELTA,
            };
            Ok(json_response(StatusCode::OK, &info))
        },
    );

    let s = Arc::clone(&state);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/admin/shards",
        move |req, _| {
            // Optional routing preview: which shard would this survey id
            // land on? Answered from the hash alone, so it works for ids
            // that do not exist yet.
            let routing = match req.query_param("survey_id") {
                None => None,
                Some(raw) => {
                    let id: u64 = raw.parse().map_err(|_| {
                        ApiError::new(
                            StatusCode::BAD_REQUEST,
                            "bad_param",
                            "query parameter `survey_id` must be a non-negative integer",
                        )
                    })?;
                    Some(serde_json::json!({
                        "survey_id": id,
                        "shard": s.shard_of_survey(SurveyId(id)),
                    }))
                }
            };
            let shards: Vec<serde_json::Value> = s
                .shard_stats()
                .iter()
                .map(|st| {
                    serde_json::json!({
                        "shard": st.shard,
                        "surveys": st.surveys,
                        "submissions": st.submissions,
                        "ledger_users": st.ledger_users,
                        "user_locks_len": st.user_locks_len,
                        "wal": {
                            "attached": st.wal_attached,
                            "depth": st.wal_depth,
                            "poisoned": st.wal_poisoned,
                        },
                    })
                })
                .collect();
            Ok(json_response(
                StatusCode::OK,
                &serde_json::json!({
                    "num_shards": s.num_shards(),
                    "shards": shards,
                    "routing": routing,
                }),
            ))
        },
    );

    let s = Arc::clone(&state);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/metrics",
        move |_, _| {
            let metrics = s.enable_metrics();
            // The ε gauges walk every ledger, so they refresh on scrape
            // rather than on every submission; the reactor gauges read
            // the live shard counters the same way.
            metrics.refresh_ledger_gauges(&s.accountant, s.epsilon_budget());
            metrics.refresh_net_gauges();
            metrics.refresh_resource_gauges();
            let mut resp = Response::status(StatusCode::OK);
            resp.headers
                .insert("Content-Type", "text/plain; version=0.0.4; charset=utf-8");
            resp.body = metrics.render_exposition().into();
            Ok(resp)
        },
    );

    let s = Arc::clone(&state);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/accesslog",
        move |_, _| {
            Ok(Response::text(
                StatusCode::OK,
                s.enable_metrics().access_log().render_tail(100),
            ))
        },
    );

    let s = Arc::clone(&state);
    let m = Arc::clone(&metrics);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/healthz",
        move |_, _| {
            let (attached, poisoned) = s.journal_health();
            let proc = loki_obs::ProcStats::read();
            let firing: Vec<String> = m
                .slo()
                .statuses()
                .into_iter()
                .filter(|st| st.state == loki_obs::AlertState::Firing)
                .map(|st| st.name)
                .collect();
            // Degraded on either axis: the journal can no longer make
            // writes durable, or an SLO's error budget is burning fast
            // enough that a paging rule fired.
            let degraded = poisoned.is_some() || !firing.is_empty();
            let status = if degraded {
                StatusCode::SERVICE_UNAVAILABLE
            } else {
                StatusCode::OK
            };
            Ok(json_response(
                status,
                &serde_json::json!({
                    "status": if degraded { "degraded" } else { "ok" },
                    "version": env!("CARGO_PKG_VERSION"),
                    "uptime_seconds": s.uptime_seconds(),
                    "journal": {
                        "attached": attached,
                        "poisoned": poisoned.is_some(),
                        "error": poisoned,
                    },
                    "slo": {
                        "scrapes": m.scrapes(),
                        "firing": firing,
                    },
                    // Process footprint (fields null off-Linux): the
                    // same procfs reading the scrape ticks feed into
                    // loki_proc_* — surfaced here so a health probe can
                    // watch for resource runaway without a tsdb query.
                    "resources": {
                        "available": loki_obs::ProcStats::available(),
                        "rss_bytes": proc.rss_bytes,
                        "open_fds": proc.open_fds,
                        "threads": proc.threads,
                    },
                }),
            ))
        },
    );

    let m = Arc::clone(&metrics);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/traces",
        move |_, _| {
            // Most recent first; summaries only — the id resolves to the
            // full tree at `/traces/{id}`.
            let list: Vec<serde_json::Value> = m
                .tracer()
                .list()
                .iter()
                .rev()
                .map(|t| {
                    serde_json::json!({
                        "id": format!("{:016x}", t.id),
                        "sampled": t.sampled,
                        "duration_ns": t.duration_ns,
                        "spans": t.spans.len(),
                    })
                })
                .collect();
            Ok(json_response(StatusCode::OK, &list))
        },
    );

    let m = Arc::clone(&metrics);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/traces/:id",
        move |_, params| {
            let raw: String = path_param(params, "id")?;
            let id = u64::from_str_radix(&raw, 16).map_err(|_| {
                ApiError::new(
                    StatusCode::BAD_REQUEST,
                    "bad_param",
                    "trace id must be hexadecimal",
                )
            })?;
            match m.tracer().get(id) {
                Some(t) => Ok(json_response(StatusCode::OK, &trace_json(&t))),
                None => Err(ApiError::new(
                    StatusCode::NOT_FOUND,
                    "unknown_trace",
                    "trace not retained (not sampled, not slow, or evicted)",
                )),
            }
        },
    );

    let m = Arc::clone(&metrics);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/audit",
        move |_, _| {
            let log = m.audit_log();
            let events: Vec<serde_json::Value> = log
                .tail(100)
                .iter()
                .map(|e| {
                    serde_json::json!({
                        "seq": e.seq,
                        "timestamp_ms": e.timestamp_ms,
                        "subject_index": e.subject_index,
                        "outcome": e.outcome.as_str(),
                        "level": e.level,
                        "epsilon": e.epsilon,
                        "running_epsilon": e.running_epsilon,
                        "trace_id": e.trace_id.map(|id| format!("{id:016x}")),
                    })
                })
                .collect();
            Ok(json_response(
                StatusCode::OK,
                &serde_json::json!({"total": log.total(), "events": events}),
            ))
        },
    );

    let m = Arc::clone(&metrics);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/timeseries",
        move |req, _| {
            let name = req.query_param("name").ok_or_else(|| {
                ApiError::new(
                    StatusCode::BAD_REQUEST,
                    "bad_param",
                    "query parameter `name` is required (a metric family, e.g. loki_submit_seconds_count)",
                )
            })?;
            let label = req.query_param("label").unwrap_or("");
            let since = query_u64(req, "since", 0)?;
            let step = query_u64(req, "step", 1)?;
            let series: Vec<serde_json::Value> = m
                .tsdb()
                .query(name, label, since, step)
                .iter()
                .map(|sd| {
                    let points: Vec<serde_json::Value> = sd
                        .points
                        .iter()
                        .map(|p| {
                            serde_json::json!({
                                "tick": p.tick,
                                "min": finite(p.min),
                                "max": finite(p.max),
                                "avg": finite(p.avg),
                                "last": finite(p.last),
                                "count": p.count,
                            })
                        })
                        .collect();
                    serde_json::json!({"key": sd.key, "points": points})
                })
                .collect();
            Ok(json_response(
                StatusCode::OK,
                &serde_json::json!({"tick": m.scrapes(), "series": series}),
            ))
        },
    );

    let m = Arc::clone(&metrics);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/slo",
        move |_, _| {
            let slos: Vec<serde_json::Value> =
                m.slo().statuses().iter().map(slo_status_json).collect();
            Ok(json_response(
                StatusCode::OK,
                &serde_json::json!({"tick": m.scrapes(), "slos": slos}),
            ))
        },
    );

    let m = Arc::clone(&metrics);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/alerts",
        move |_, _| {
            let statuses = m.slo().statuses();
            let alerts: Vec<serde_json::Value> = statuses.iter().map(slo_status_json).collect();
            let firing = statuses
                .iter()
                .any(|st| st.state == loki_obs::AlertState::Firing);
            Ok(json_response(
                StatusCode::OK,
                &serde_json::json!({"firing": firing, "alerts": alerts}),
            ))
        },
    );

    let m = Arc::clone(&metrics);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/alerts/history",
        move |_, _| {
            let engine = m.slo();
            let events: Vec<serde_json::Value> = engine
                .history_tail(100)
                .iter()
                .map(|e| {
                    serde_json::json!({
                        "seq": e.seq,
                        "timestamp_ms": e.timestamp_ms,
                        "tick": e.tick,
                        "slo": e.slo,
                        "from": e.from.as_str(),
                        "to": e.to.as_str(),
                        "burn_short": finite(e.burn_short),
                        "burn_long": finite(e.burn_long),
                        "trace_id": e.trace_id.map(|id| format!("{id:016x}")),
                    })
                })
                .collect();
            Ok(json_response(
                StatusCode::OK,
                &serde_json::json!({"total": engine.history_total(), "events": events}),
            ))
        },
    );

    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/profile",
        move |req, _| {
            let snap = loki_obs::prof::snapshot();
            if req.query_param("format") == Some("collapsed") {
                // The collapsed-stack text format flamegraph tooling
                // consumes directly (`flamegraph.pl`, inferno, speedscope).
                return Ok(Response::text(StatusCode::OK, snap.collapsed()));
            }
            let threads: Vec<serde_json::Value> = snap
                .threads
                .iter()
                .map(|t| {
                    let phases: Vec<serde_json::Value> = t
                        .phases
                        .iter()
                        .map(|p| serde_json::json!({"phase": p.phase, "samples": p.samples}))
                        .collect();
                    serde_json::json!({
                        "thread": t.name,
                        "ordinal": t.ordinal,
                        "total_samples": t.total,
                        "phases": phases,
                    })
                })
                .collect();
            Ok(json_response(
                StatusCode::OK,
                &serde_json::json!({
                    "hz": snap.hz,
                    "ticks": snap.ticks,
                    "sampler_running": loki_obs::prof::sampler_enabled(),
                    "dropped_phases": snap.dropped_phases,
                    "total_samples": snap.total_samples(),
                    "attributed_samples": snap.attributed_samples(),
                    "threads": threads,
                }),
            ))
        },
    );

    let m = Arc::clone(&metrics);
    mount(
        &mut router,
        &metrics,
        Method::Get,
        "/procstats",
        move |_, _| {
            // Refresh on read so the loki_proc_*/loki_alloc_* families
            // are current even between scrape ticks.
            m.refresh_resource_gauges();
            let proc = loki_obs::ProcStats::read();
            Ok(json_response(
                StatusCode::OK,
                &serde_json::json!({
                    "available": loki_obs::ProcStats::available(),
                    "rss_bytes": proc.rss_bytes,
                    "open_fds": proc.open_fds,
                    "threads": proc.threads,
                    "utime_ticks": proc.utime_ticks,
                    "stime_ticks": proc.stime_ticks,
                    "alloc": {
                        "counting": loki_obs::CountingAlloc::enabled(),
                        "allocs_total": loki_obs::CountingAlloc::allocs(),
                        "frees_total": loki_obs::CountingAlloc::frees(),
                        "bytes_total": loki_obs::CountingAlloc::bytes(),
                    },
                }),
            ))
        },
    );

    router
}

/// Parses an optional non-negative integer query parameter.
fn query_u64(req: &Request, key: &str, default: u64) -> Result<u64, ApiError> {
    match req.query_param(key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            ApiError::new(
                StatusCode::BAD_REQUEST,
                "bad_param",
                format!("query parameter `{key}` must be a non-negative integer"),
            )
        }),
    }
}

/// JSON shape of one SLO status, shared by `/v1/slo` and `/v1/alerts`.
fn slo_status_json(st: &loki_obs::SloStatus) -> serde_json::Value {
    serde_json::json!({
        "slo": st.name,
        "objective": st.objective,
        "state": st.state.as_str(),
        "since_tick": st.since_tick,
        "bad_ratio": finite(st.bad_ratio),
        "burn_short": finite(st.burn_short),
        "burn_long": finite(st.burn_long),
        "budget_remaining": finite(st.budget_remaining),
    })
}

/// Binds the API server on `addr` over fresh or shared state, with the
/// request observer and the reactor's live counters (sheds included)
/// feeding the state's metrics.
///
/// Also starts the history layer's self-scraper at a 1 s interval unless
/// one is already running — a test (or embedder) that wants a faster
/// cadence starts its own via [`AppState::start_self_scraper`] *before*
/// calling this, and the default here backs off (the start is
/// idempotent).
pub fn serve(addr: &str, state: Arc<AppState>) -> std::io::Result<ServerHandle> {
    let metrics = state.enable_metrics();
    state.start_self_scraper(std::time::Duration::from_secs(1));
    // Start the wall-clock phase sampler (process-wide, idempotent): the
    // reactor shards and committer threads about to spawn register with
    // the profiler and /v1/profile reads what this thread accumulates.
    loki_obs::prof::start_sampler();
    let config = ServerConfig {
        observer: Some(metrics.observer()),
        ..ServerConfig::default()
    };
    let handle = Server::spawn(addr, build_router(state), config)?;
    // Feed the reactor's live counters into the loki_net_* families so
    // open-connection and wakeup telemetry rides the normal scrape path.
    metrics.attach_net_stats(handle.stats());
    Ok(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_core::privacy_level::PrivacyLevel;
    use loki_net::client::HttpClient;
    use loki_survey::question::{Answer, QuestionKind};
    use loki_survey::response::Response;
    use loki_survey::survey::SurveyBuilder;

    fn lecturer_survey() -> Survey {
        let mut b = SurveyBuilder::new(SurveyId(1), "lecturers");
        b.question("rate L1", QuestionKind::likert5(), false);
        b.build().unwrap()
    }

    fn start() -> (ServerHandle, HttpClient, Arc<AppState>) {
        let state = Arc::new(AppState::new());
        state.add_survey(lecturer_survey()).unwrap();
        let h = serve("127.0.0.1:0", Arc::clone(&state)).unwrap();
        let c = HttpClient::new(&h.base_url()).unwrap();
        (h, c, state)
    }

    fn submit_body(user: &str, value: f64) -> String {
        let mut response = Response::new(user, SurveyId(1));
        response.answer(QuestionId(0), Answer::Obfuscated(value));
        serde_json::to_string(&SubmitRequest {
            user: user.into(),
            privacy_level: PrivacyLevel::Medium,
            response,
            releases: vec![(
                "survey-1/q0".into(),
                loki_dp::accountant::ReleaseKind::Gaussian {
                    sigma: 1.0,
                    sensitivity: 4.0,
                },
            )],
        })
        .unwrap()
    }

    #[test]
    fn health_and_survey_list() {
        let (h, c, _) = start();
        assert_eq!(&c.get("/v1/health").unwrap().body[..], b"ok");
        let resp = c.get("/v1/surveys").unwrap();
        let list: Vec<SurveySummary> = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].title, "lecturers");
        h.shutdown();
    }

    #[test]
    fn fetch_survey_and_404() {
        let (h, c, _) = start();
        let resp = c.get("/v1/surveys/1").unwrap();
        let survey: Survey = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(survey.id, SurveyId(1));
        assert_eq!(c.get("/v1/surveys/99").unwrap().status, StatusCode::NOT_FOUND);
        assert_eq!(c.get("/v1/surveys/abc").unwrap().status, StatusCode::BAD_REQUEST);
        h.shutdown();
    }

    #[test]
    fn publish_survey_over_http() {
        let (h, c, _) = start();
        let mut b = SurveyBuilder::new(SurveyId(2), "new");
        b.question("q", QuestionKind::likert5(), false);
        let body = serde_json::to_string(&b.build().unwrap()).unwrap();
        let resp = c.post("/v1/surveys", "application/json", body.clone()).unwrap();
        assert_eq!(resp.status, StatusCode::CREATED);
        // Duplicate id conflicts.
        let resp = c.post("/v1/surveys", "application/json", body).unwrap();
        assert_eq!(resp.status, StatusCode::CONFLICT);
        h.shutdown();
    }

    #[test]
    fn submit_results_and_ledger_flow() {
        let (h, c, _) = start();
        for (i, v) in [4.2, 3.9, 4.4].iter().enumerate() {
            let resp = c
                .post(
                    "/v1/surveys/1/responses",
                    "application/json",
                    submit_body(&format!("u{i}"), *v),
                )
                .unwrap();
            assert_eq!(resp.status, StatusCode::CREATED, "{:?}", resp.body);
            let reply: SubmitReply = serde_json::from_slice(&resp.body).unwrap();
            assert_eq!(reply.stored, i + 1);
            assert!(reply.cumulative_epsilon.unwrap() > 0.0);
        }
        let resp = c.get("/v1/surveys/1/results/0").unwrap();
        let results: QuestionResults = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(results.n_total, 3);
        assert!((results.pooled_mean - 4.1666).abs() < 1e-3);

        let resp = c.get("/v1/ledger/u0").unwrap();
        let ledger: LedgerInfo = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(ledger.releases, 1);
        assert!(ledger.epsilon.unwrap() > 0.0);
        h.shutdown();
    }

    #[test]
    fn raw_answer_rejected_over_http() {
        let (h, c, state) = start();
        let mut response = Response::new("u1", SurveyId(1));
        response.answer(QuestionId(0), Answer::Rating(4.0)); // raw
        let body = serde_json::to_string(&SubmitRequest {
            user: "u1".into(),
            privacy_level: PrivacyLevel::None,
            response,
            releases: vec![],
        })
        .unwrap();
        let resp = c.post("/v1/surveys/1/responses", "application/json", body).unwrap();
        assert_eq!(resp.status, StatusCode::UNPROCESSABLE);
        assert_eq!(state.submission_count(SurveyId(1)), 0);
        h.shutdown();
    }

    #[test]
    fn duplicate_submission_conflicts() {
        let (h, c, _) = start();
        let resp = c
            .post("/v1/surveys/1/responses", "application/json", submit_body("u1", 4.0))
            .unwrap();
        assert_eq!(resp.status, StatusCode::CREATED);
        let resp = c
            .post("/v1/surveys/1/responses", "application/json", submit_body("u1", 4.0))
            .unwrap();
        assert_eq!(resp.status, StatusCode::CONFLICT);
        h.shutdown();
    }

    #[test]
    fn mismatched_survey_id_rejected() {
        let (h, c, _) = start();
        // Body targets survey 1 but URL says survey 99.
        let resp = c
            .post("/v1/surveys/99/responses", "application/json", submit_body("u1", 4.0))
            .unwrap();
        assert_eq!(resp.status, StatusCode::UNPROCESSABLE);
        h.shutdown();
    }

    #[test]
    fn results_404_without_responses() {
        let (h, c, _) = start();
        assert_eq!(
            c.get("/v1/surveys/1/results/0").unwrap().status,
            StatusCode::NOT_FOUND
        );
        h.shutdown();
    }

    #[test]
    fn empty_ledger_reports_zero() {
        let (h, c, _) = start();
        let resp = c.get("/v1/ledger/nobody").unwrap();
        let info: LedgerInfo = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(info.releases, 0);
        assert_eq!(info.epsilon, Some(0.0));
        h.shutdown();
    }

    #[test]
    fn publish_requires_token_once_configured() {
        let (h, c, state) = start();
        state.add_requester_token("secret-token");
        let mut b = SurveyBuilder::new(SurveyId(5), "gated");
        b.question("q", QuestionKind::likert5(), false);
        let body = serde_json::to_string(&b.build().unwrap()).unwrap();

        // No token: 401.
        let resp = c.post("/v1/surveys", "application/json", body.clone()).unwrap();
        assert_eq!(resp.status, StatusCode::UNAUTHORIZED);

        // Wrong token: 401.
        let mut req = loki_net::http::Request::new(loki_net::http::Method::Post, "/v1/surveys")
            .with_body(body.clone());
        req.headers.insert("Authorization", "Bearer wrong");
        assert_eq!(c.send(req).unwrap().status, StatusCode::UNAUTHORIZED);

        // Right token: 201.
        let mut req = loki_net::http::Request::new(loki_net::http::Method::Post, "/v1/surveys")
            .with_body(body);
        req.headers.insert("Authorization", "Bearer secret-token");
        assert_eq!(c.send(req).unwrap().status, StatusCode::CREATED);
        h.shutdown();
    }

    #[test]
    fn choice_results_invert_randomized_response() {
        let state = Arc::new(AppState::new());
        let mut b = SurveyBuilder::new(SurveyId(1), "mc");
        b.question(
            "pick",
            QuestionKind::MultipleChoice {
                options: vec!["a".into(), "b".into(), "c".into()],
            },
            false,
        );
        state.add_survey(b.build().unwrap()).unwrap();
        let h = serve("127.0.0.1:0", Arc::clone(&state)).unwrap();
        let c = HttpClient::new(&h.base_url()).unwrap();

        // 300 users all truly answer "b", uploading through RR at Medium.
        use loki_core::obfuscate::Obfuscator;
        let mut rng = loki_rng::ChaCha20Rng::seed_from_u64(5);
        let survey = state.survey(SurveyId(1)).unwrap();
        let obf = Obfuscator::new(PrivacyLevel::Medium);
        for i in 0..300 {
            let mut raw = Response::new(format!("u{i}"), SurveyId(1));
            raw.answer(QuestionId(0), Answer::Choice(1));
            let (upload, releases) = obf.obfuscate_response(&mut rng, &survey, &raw).unwrap();
            state
                .submit(&format!("u{i}"), PrivacyLevel::Medium, upload, &releases)
                .unwrap();
        }

        let resp = c.get("/v1/surveys/1/choices/0").unwrap();
        assert!(resp.status.is_success());
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        let freq_b = v["frequencies"][1].as_f64().unwrap();
        assert!(
            freq_b > 0.85,
            "RR inversion should recover ~1.0 for option b, got {freq_b}"
        );
        assert_eq!(v["n_total"].as_u64().unwrap(), 300);
        h.shutdown();
    }

    #[test]
    fn choices_on_rating_question_is_404() {
        let (h, c, _) = start();
        assert_eq!(
            c.get("/v1/surveys/1/choices/0").unwrap().status,
            StatusCode::NOT_FOUND
        );
        h.shutdown();
    }

    #[test]
    fn stats_endpoint_counts() {
        let (h, c, _) = start();
        c.post("/v1/surveys/1/responses", "application/json", submit_body("u1", 4.0))
            .unwrap();
        let resp = c.get("/v1/stats").unwrap();
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["surveys"], 1);
        assert_eq!(v["submissions"], 1);
        assert_eq!(v["users"], 1);
        assert_eq!(v["unbounded_users"], 0);
        assert!(v["epsilon"]["max"].as_f64().unwrap() > 0.0);
        assert_eq!(v["epsilon"]["p50"], v["epsilon"]["max"]);
        h.shutdown();
    }

    #[test]
    fn estimate_endpoint_matches_results_byte_for_byte() {
        let (h, c, _) = start();
        for (i, v) in [4.2, 3.9, 4.4].iter().enumerate() {
            c.post(
                "/v1/surveys/1/responses",
                "application/json",
                submit_body(&format!("u{i}"), *v),
            )
            .unwrap();
        }
        // Both routes share one handler body: without `?mode=` they
        // return the same bytes.
        let scan = c.get("/v1/surveys/1/results/0").unwrap();
        let streaming = c.get("/v1/surveys/1/estimate/0").unwrap();
        assert_eq!(streaming.status, StatusCode::OK, "{:?}", streaming.body);
        assert_eq!(scan.body, streaming.body);
        let explicit = c.get("/v1/surveys/1/estimate/0?mode=pooled").unwrap();
        assert_eq!(scan.body, explicit.body);

        // Truth inference is a different pooling rule: same counts,
        // generally different mean.
        let resp = c.get("/v1/surveys/1/estimate/0?mode=ldp-truth").unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{:?}", resp.body);
        let truth: QuestionResults = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(truth.n_total, 3);
        assert!(truth.pooled_mean.is_finite());

        let resp = c.get("/v1/surveys/1/estimate/0?mode=bogus").unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        assert_eq!(c.get("/v1/surveys/99/estimate/0").unwrap().status, StatusCode::NOT_FOUND);
        assert_eq!(c.get("/v1/surveys/1/estimate/7").unwrap().status, StatusCode::NOT_FOUND);
        h.shutdown();
    }

    fn demographics_survey() -> Survey {
        let mut b = SurveyBuilder::new(SurveyId(2), "about you");
        b.question(
            "Day of the month you were born",
            QuestionKind::Numeric { min: 1, max: 31 },
            true,
        );
        b.question("Month you were born", QuestionKind::Numeric { min: 1, max: 12 }, true);
        b.question("Year you were born", QuestionKind::Numeric { min: 1900, max: 2020 }, true);
        b.question(
            "What is your gender?",
            QuestionKind::MultipleChoice {
                options: vec!["Female".into(), "Male".into()],
            },
            true,
        );
        b.question("What is your zip code?", QuestionKind::Numeric { min: 0, max: 99999 }, true);
        b.build().unwrap()
    }

    fn submit_demographics(c: &HttpClient, user: &str, dmy: (f64, f64, f64), gender: usize, zip: f64) {
        let mut response = Response::new(user, SurveyId(2));
        response.answer(QuestionId(0), Answer::Obfuscated(dmy.0));
        response.answer(QuestionId(1), Answer::Obfuscated(dmy.1));
        response.answer(QuestionId(2), Answer::Obfuscated(dmy.2));
        response.answer(QuestionId(3), Answer::Choice(gender));
        response.answer(QuestionId(4), Answer::Obfuscated(zip));
        let body = serde_json::to_string(&SubmitRequest {
            user: user.into(),
            privacy_level: PrivacyLevel::None,
            response,
            releases: vec![],
        })
        .unwrap();
        let resp = c.post("/v1/surveys/2/responses", "application/json", body).unwrap();
        assert_eq!(resp.status, StatusCode::CREATED, "{:?}", resp.body);
    }

    #[test]
    fn privacy_endpoint_reports_k_anonymity() {
        let (h, c, state) = start();
        // At rest: nothing linkable, nothing at risk.
        let resp = c.get("/v1/privacy").unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{:?}", resp.body);
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["subjects"], 0);
        assert_eq!(v["k_anonymity"]["complete"], 0);
        assert_eq!(v["at_risk_ratio"], 0.0);

        state.add_survey(demographics_survey()).unwrap();
        // Two subjects share a quasi-identifier (cohort of 2); one is
        // unique — the paper's re-identifiable case.
        submit_demographics(&c, "alice", (14.0, 3.0, 1988.0), 0, 11111.0);
        submit_demographics(&c, "briar", (14.0, 3.0, 1988.0), 0, 11111.0);
        submit_demographics(&c, "chen", (7.0, 9.0, 1975.0), 1, 42424.0);

        let resp = c.get("/v1/privacy").unwrap();
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["subjects"], 3, "{v}");
        assert_eq!(v["k_anonymity"]["complete"], 3);
        assert_eq!(v["k_anonymity"]["cohorts"], 2);
        assert_eq!(v["k_anonymity"]["at_risk"], 1);
        let histogram = v["k_anonymity"]["histogram"].as_array().unwrap();
        assert_eq!(histogram.len(), 2, "{v}");
        assert_eq!(histogram[0], serde_json::json!({"k": 1, "subjects": 1}));
        assert_eq!(histogram[1], serde_json::json!({"k": 2, "subjects": 2}));
        assert!((v["at_risk_ratio"].as_f64().unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert!(v["linkage_entropy_bits"].as_f64().unwrap() > 0.0);

        let surveys = v["surveys"].as_array().unwrap();
        let demo = surveys
            .iter()
            .find(|sv| sv["survey"] == 2)
            .expect("demographic survey rollup");
        assert_eq!(demo["submissions"], 3);
        assert_eq!(demo["qi_questions"], 5);
        assert_eq!(demo["qi_fragments"], 15, "5 QI answers per submission");
        let lecturers = surveys.iter().find(|sv| sv["survey"] == 1).unwrap();
        assert_eq!(lecturers["qi_questions"], 0);

        // The handler timed the merge into the new histogram family.
        let text = String::from_utf8(c.get("/v1/metrics").unwrap().body).unwrap();
        assert!(text.contains("loki_agg_merge_seconds_count"), "{text}");
        h.shutdown();
    }

    #[test]
    fn malformed_json_body_is_422() {
        let (h, c, _) = start();
        let resp = c
            .post("/v1/surveys/1/responses", "application/json", "{broken")
            .unwrap();
        assert_eq!(resp.status, StatusCode::UNPROCESSABLE);
        h.shutdown();
    }

    #[test]
    fn each_route_is_registered_once_under_v1() {
        let router = build_router(Arc::new(AppState::new()));
        assert_eq!(format!("{router:?}"), "Router(24 routes)");
    }

    #[test]
    fn error_envelope_on_framework_errors() {
        let (h, c, _) = start();
        // 404 (unknown route) and 405 (wrong method) both envelope.
        let resp = c.get("/v1/nope").unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["error"]["code"], "not_found");

        let req = loki_net::http::Request::new(loki_net::http::Method::Put, "/v1/surveys");
        let resp = c.send(req).unwrap();
        assert_eq!(resp.status, StatusCode::METHOD_NOT_ALLOWED);
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["error"]["code"], "method_not_allowed");
        h.shutdown();
    }

    #[test]
    fn every_response_carries_a_trace_id_header() {
        let (h, c, _) = start();
        // Handler-served success.
        let resp = c.get("/v1/health").unwrap();
        let id = resp.headers.get(TRACE_ID_HEADER).expect("header on success");
        assert_eq!(id.len(), 16, "{id}");
        assert!(id.chars().all(|ch| ch.is_ascii_hexdigit()), "{id}");

        // Router-level 404: no handler ran, the id comes from the error
        // renderer, and the envelope embeds the same id.
        let resp = c.get("/v1/nope").unwrap();
        let id = resp.headers.get(TRACE_ID_HEADER).expect("header on 404").to_string();
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["error"]["trace_id"], id.as_str());
        h.shutdown();
    }

    #[test]
    fn healthz_reports_build_info_and_journal() {
        let (h, c, _) = start();
        let resp = c.get("/v1/healthz").unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["status"], "ok");
        assert_eq!(v["version"], env!("CARGO_PKG_VERSION"));
        assert!(v["uptime_seconds"].is_u64());
        assert_eq!(v["journal"]["attached"], false, "no journal in this fixture");
        assert_eq!(v["journal"]["poisoned"], false);
        assert_eq!(v["slo"]["firing"].as_array().unwrap().len(), 0, "{v}");
        assert!(v["slo"]["scrapes"].is_u64());
        h.shutdown();
    }

    #[test]
    fn slo_and_alert_endpoints_report_default_specs_at_rest() {
        let (h, c, _) = start();
        let resp = c.get("/v1/slo").unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        let slos = v["slos"].as_array().unwrap();
        let names: Vec<&str> = slos.iter().map(|s| s["slo"].as_str().unwrap()).collect();
        assert_eq!(
            names,
            ["availability", "submit-latency", "privacy-headroom", "privacy-at-risk"]
        );
        for slo in slos {
            assert_eq!(slo["state"], "ok", "{slo}");
            assert_eq!(slo["budget_remaining"], 1.0, "{slo}");
        }

        let resp = c.get("/v1/alerts").unwrap();
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["firing"], false);
        assert_eq!(v["alerts"].as_array().unwrap().len(), 4);

        let resp = c.get("/v1/alerts/history").unwrap();
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["total"], 0, "no transitions at rest");
        assert_eq!(v["events"].as_array().unwrap().len(), 0);
        h.shutdown();
    }

    #[test]
    fn timeseries_endpoint_serves_scraped_history() {
        let (h, c, state) = start();
        c.post("/v1/surveys/1/responses", "application/json", submit_body("u1", 4.0))
            .unwrap();
        // Deterministic history: two explicit ticks instead of waiting on
        // the 1 s background scraper.
        state.scrape_once();
        state.scrape_once();

        let resp = c
            .get("/v1/timeseries?name=loki_submit_seconds_count&since=0&step=1")
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{:?}", resp.body);
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert!(v["tick"].as_u64().unwrap() >= 2);
        let series = v["series"].as_array().unwrap();
        assert_eq!(series.len(), 1, "{v}");
        assert_eq!(series[0]["key"], "loki_submit_seconds_count");
        let points = series[0]["points"].as_array().unwrap();
        assert!(!points.is_empty(), "{v}");
        // Counters land as deltas: exactly one submission across history.
        let total: f64 = points.iter().map(|p| p["last"].as_f64().unwrap()).sum();
        assert_eq!(total, 1.0, "{v}");

        // Label filter (plain substring, no percent-decoding) narrows a
        // labelled family to the matching series.
        let resp = c
            .get("/v1/timeseries?name=loki_http_requests_total&label=2xx")
            .unwrap();
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        let series = v["series"].as_array().unwrap();
        assert!(!series.is_empty(), "{v}");
        for s in series {
            assert!(s["key"].as_str().unwrap().contains("2xx"), "{v}");
        }
        h.shutdown();
    }

    #[test]
    fn timeseries_endpoint_validates_parameters() {
        let (h, c, _) = start();
        let resp = c.get("/v1/timeseries").unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["error"]["code"], "bad_param");

        let resp = c.get("/v1/timeseries?name=x&since=yesterday").unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        let resp = c.get("/v1/timeseries?name=x&step=-1").unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        // Unknown family is an empty result, not an error.
        let resp = c.get("/v1/timeseries?name=no_such_metric").unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["series"].as_array().unwrap().len(), 0);
        h.shutdown();
    }

    #[test]
    fn sampled_submit_resolves_through_the_trace_endpoints() {
        let (h, c, _) = start();
        // The first request draws sequence 0, which the default config
        // (sample every 16th) always samples.
        let resp = c
            .post("/v1/surveys/1/responses", "application/json", submit_body("u1", 4.0))
            .unwrap();
        assert_eq!(resp.status, StatusCode::CREATED);
        let id = resp.headers.get(TRACE_ID_HEADER).expect("traced submit").to_string();

        let resp = c.get(&format!("/v1/traces/{id}")).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{:?}", resp.body);
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["id"], id.as_str());
        let names: Vec<&str> = v["spans"]
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s["name"].as_str().unwrap())
            .collect();
        // No journal attached here, so no WAL spans — but the in-process
        // tree (root + apply + ack) must be complete.
        assert!(names.contains(&"request"), "{names:?}");
        assert!(names.contains(&"apply"), "{names:?}");
        assert!(names.contains(&"ack"), "{names:?}");

        // The summary list carries the same id.
        let resp = c.get("/v1/traces").unwrap();
        let list: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert!(
            list.as_array().unwrap().iter().any(|t| t["id"] == id.as_str()),
            "{list}"
        );

        // Unknown and malformed ids produce enveloped errors.
        let resp = c.get("/v1/traces/ffffffffffffffff").unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
        let resp = c.get("/v1/traces/not-hex").unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        h.shutdown();
    }

    #[test]
    fn budget_rejection_emits_a_matching_audit_event() {
        let (h, c, state) = start();
        // One medium-level release costs far more than ε = 1, so the
        // first submission charges and the next one hits the cap.
        state.set_epsilon_budget(Some(1.0)).unwrap();
        let resp = c
            .post("/v1/surveys/1/responses", "application/json", submit_body("u1", 4.0))
            .unwrap();
        assert_eq!(resp.status, StatusCode::CREATED, "{:?}", resp.body);

        let mut b = SurveyBuilder::new(SurveyId(2), "extra");
        b.question("q", QuestionKind::likert5(), false);
        state.add_survey(b.build().unwrap()).unwrap();
        let mut response = Response::new("u1", SurveyId(2));
        response.answer(QuestionId(0), Answer::Obfuscated(4.0));
        let body = serde_json::to_string(&SubmitRequest {
            user: "u1".into(),
            privacy_level: PrivacyLevel::Medium,
            response,
            releases: vec![(
                "survey-2/q0".into(),
                loki_dp::accountant::ReleaseKind::Gaussian {
                    sigma: 1.0,
                    sensitivity: 4.0,
                },
            )],
        })
        .unwrap();
        let resp = c.post("/v1/surveys/2/responses", "application/json", body).unwrap();
        assert_eq!(resp.status, StatusCode::FORBIDDEN, "{:?}", resp.body);
        let trace_id = resp.headers.get(TRACE_ID_HEADER).expect("traced rejection").to_string();

        let resp = c.get("/v1/audit").unwrap();
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        let events = v["events"].as_array().unwrap();
        assert_eq!(events.len(), 4, "{v}");
        assert_eq!(events[0]["outcome"], "attempted");
        assert_eq!(events[1]["outcome"], "charged");
        assert_eq!(events[2]["outcome"], "attempted");
        assert_eq!(events[3]["outcome"], "rejected-at-cap");
        assert_eq!(events[3]["level"], "medium");
        assert_eq!(events[3]["subject_index"], 0);
        assert_eq!(events[3]["trace_id"], trace_id.as_str());
        // The running total the rejection reports is the already-charged
        // loss that tripped the cap.
        assert!(events[3]["running_epsilon"].as_f64().unwrap() >= 1.0, "{v}");
        // The stream is keyed by opaque index only — the raw user id
        // must not appear anywhere in the rendering.
        assert!(!String::from_utf8_lossy(&resp.body).contains("u1"), "{v}");
        h.shutdown();
    }

    #[test]
    fn charged_submission_lands_in_the_audit_stream() {
        let (h, c, _) = start();
        let resp = c
            .post("/v1/surveys/1/responses", "application/json", submit_body("u1", 4.0))
            .unwrap();
        assert_eq!(resp.status, StatusCode::CREATED);
        let resp = c.get("/v1/audit").unwrap();
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        let events = v["events"].as_array().unwrap();
        assert_eq!(events.len(), 2, "{v}");
        assert_eq!(events[0]["outcome"], "attempted");
        assert_eq!(events[1]["outcome"], "charged");
        let charged = &events[1];
        assert!(charged["epsilon"].as_f64().unwrap() > 0.0);
        assert_eq!(charged["epsilon"], charged["running_epsilon"], "first charge");
        h.shutdown();
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let (h, c, _) = start();
        c.post("/v1/surveys/1/responses", "application/json", submit_body("u1", 4.0))
            .unwrap();
        let resp = c.get("/v1/metrics").unwrap();
        assert!(resp.status.is_success());
        assert_eq!(
            resp.headers.get("content-type"),
            Some("text/plain; version=0.0.4; charset=utf-8")
        );
        let text = String::from_utf8_lossy(&resp.body);
        assert!(text.contains("# TYPE loki_submit_seconds histogram"), "{text}");
        assert!(text.contains("loki_submit_seconds_count 1"), "{text}");
        assert!(text.contains("loki_ledger_users 1"), "{text}");
        h.shutdown();
    }
}
