//! Server metric families over the [`loki_obs`] substrate.
//!
//! One [`ServerMetrics`] instance owns every instrument the backend
//! records into, plus the bounded access log. Handles are `Arc`s resolved
//! once at construction; the hot path (request observer, submit path)
//! never touches the registry.
//!
//! **Privacy rule for labels:** label values are route shapes, methods,
//! status classes and privacy levels only — never user identifiers. The
//! access log likewise stores sanitized route shapes ([`route_shape`]):
//! `GET /v1/ledger/u123` is logged as `/v1/ledger/:p`, so a scrape of the
//! observability endpoints cannot become a side channel linking users to
//! submission times (the linkage attacks of §2 need exactly such joins).

use loki_core::privacy_level::PrivacyLevel;
use loki_dp::accountant::Accountant;
use loki_net::http::Method;
use loki_net::server::{NetStats, RequestObserver, RequestTiming};
use loki_obs::{
    AccessLog, AuditLog, BurnRule, Counter, Gauge, Histogram, Registry, SloEngine, SloKind,
    SloSpec, TraceConfig, Tracer, Tsdb, TsdbConfig, LATENCY_BUCKETS,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Buckets for the group-commit batch-size histogram (records per
/// fsync), powers of two up to the default `max_batch`.
const BATCH_SIZE_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Cumulative anonymity-cohort-size bucket labels for
/// `loki_privacy_k_anon_bucket{k=…}`: `k="1"` is the re-identifiable
/// count, `k="+Inf"` every linkable subject (Prometheus `le` idiom).
const K_ANON_BUCKETS: [&str; 7] = ["1", "2", "4", "8", "16", "32", "+Inf"];

const METHODS: [Method; 6] = [
    Method::Get,
    Method::Post,
    Method::Put,
    Method::Delete,
    Method::Head,
    Method::Options,
];
const CLASSES: [&str; 4] = ["2xx", "3xx", "4xx", "5xx"];
const EPSILON_STATS: [&str; 5] = ["p50", "p90", "p99", "mean", "max"];

/// Path segments that are route literals and may appear verbatim in the
/// access log; every other segment is a parameter and is masked.
const ROUTE_LITERALS: [&str; 23] = [
    "v1",
    "health",
    "healthz",
    "surveys",
    "responses",
    "results",
    "estimate",
    "choices",
    "stats",
    "ledger",
    "metrics",
    "accesslog",
    "traces",
    "audit",
    "timeseries",
    "slo",
    "alerts",
    "history",
    "admin",
    "shards",
    "profile",
    "procstats",
    "privacy",
];

/// Static label values for the per-shard instrument children. Stores
/// with more shards than this fold the overflow into the last label —
/// the aggregate (unlabeled) families stay exact either way.
const SHARD_LABELS: [&str; 8] = ["0", "1", "2", "3", "4", "5", "6", "7"];

/// Label values for the CPU-time counter children (`/proc/self/stat`
/// utime/stime, in clock ticks).
const CPU_MODES: [&str; 2] = ["user", "system"];

/// A counter fed from a running total it does not own (a reactor stats
/// block, the counting allocator's statics, the profiler's sample count,
/// `/proc/self` CPU ticks). Each [`DeltaCounter::advance`] adds the
/// source's growth since the previous one, so a scrape is idempotent
/// with respect to the source, and a source that outlives this
/// `ServerMetrics` is not counted twice.
#[derive(Debug)]
struct DeltaCounter {
    counter: Arc<Counter>,
    /// The source reading folded in last.
    seen: AtomicU64,
}

impl DeltaCounter {
    fn new(counter: Arc<Counter>) -> DeltaCounter {
        DeltaCounter { counter, seen: AtomicU64::new(0) }
    }

    /// Adds `current - seen` (0 if the source went backwards) to the
    /// counter, then remembers `current`.
    fn advance(&self, current: u64) {
        let seen = self.seen.swap(current, Ordering::Relaxed);
        self.counter.add(current.saturating_sub(seen));
    }

    /// Forgets the watermark, for a new source that counts from zero.
    fn reset(&self) {
        self.seen.store(0, Ordering::Relaxed);
    }
}

/// Reduces a concrete request path to its route shape, masking every
/// non-literal segment as `:p` (`/v1/ledger/alice` → `/v1/ledger/:p`).
pub fn route_shape(path: &str) -> String {
    let mut shape = String::with_capacity(path.len());
    for segment in path.split('/').filter(|s| !s.is_empty()) {
        shape.push('/');
        if ROUTE_LITERALS.contains(&segment) {
            shape.push_str(segment);
        } else {
            shape.push_str(":p");
        }
    }
    if shape.is_empty() {
        shape.push('/');
    }
    shape
}

/// History-layer knobs: tsdb shape, SLO catalogue, alert-ring size.
#[derive(Debug, Clone)]
pub struct HistoryConfig {
    /// Ring shape of the in-process time-series store.
    pub tsdb: TsdbConfig,
    /// The SLOs evaluated each scrape tick.
    pub slo_specs: Vec<SloSpec>,
    /// Alert-transition history ring capacity.
    pub alert_history: usize,
}

impl Default for HistoryConfig {
    /// Production posture at one scrape per second: multi-window
    /// burn-rate pairs à la SRE (fast 5m/1h catches a total outage in
    /// minutes, slow 30m/6h catches a slow leak), one minute of
    /// pending-state hysteresis.
    fn default() -> HistoryConfig {
        let paging_rules = vec![
            BurnRule { long_ticks: 3600, short_ticks: 300, factor: 14.4 },
            BurnRule { long_ticks: 21_600, short_ticks: 1800, factor: 6.0 },
        ];
        HistoryConfig {
            tsdb: TsdbConfig::default(),
            slo_specs: vec![
                SloSpec {
                    name: "availability".to_string(),
                    objective: 0.999,
                    kind: SloKind::ErrorRatio {
                        bad_name: "loki_http_requests_total".to_string(),
                        bad_filter: "class=\"5xx\"".to_string(),
                        total_name: "loki_http_requests_total".to_string(),
                        total_filter: String::new(),
                    },
                    rules: paging_rules.clone(),
                    pending_ticks: 60,
                    exemplar_family: Some("loki_submit_seconds".to_string()),
                },
                SloSpec {
                    name: "submit-latency".to_string(),
                    objective: 0.99,
                    kind: SloKind::LatencyThreshold {
                        family: "loki_submit_seconds".to_string(),
                        le: "0.25".to_string(),
                    },
                    rules: paging_rules,
                    pending_ticks: 60,
                    exemplar_family: Some("loki_submit_seconds".to_string()),
                },
                // The paper's §3.1 invariant as a pageable objective: at
                // most 5% of ledgered subjects may sit above 80% of the
                // ε cap (or be unbounded). A gauge level, not a rate, so
                // one rule with factor 1.0 suffices.
                SloSpec {
                    name: "privacy-headroom".to_string(),
                    objective: 0.95,
                    kind: SloKind::GaugeLevel {
                        name: "loki_ledger_near_cap_ratio".to_string(),
                        filter: String::new(),
                    },
                    rules: vec![BurnRule { long_ticks: 3600, short_ticks: 300, factor: 1.0 }],
                    pending_ticks: 60,
                    exemplar_family: None,
                },
                // The observatory's re-identification objective: at most
                // 5% of linkable subjects may be unique in their
                // quasi-identifier cohort (k = 1). Fed from the streaming
                // sketch on every scrape; firing degrades `/v1/healthz`.
                SloSpec {
                    name: "privacy-at-risk".to_string(),
                    objective: 0.95,
                    kind: SloKind::GaugeLevel {
                        name: "loki_privacy_at_risk_ratio".to_string(),
                        filter: String::new(),
                    },
                    rules: vec![BurnRule { long_ticks: 3600, short_ticks: 300, factor: 1.0 }],
                    pending_ticks: 60,
                    exemplar_family: None,
                },
            ],
            alert_history: 256,
        }
    }
}

/// Every instrument the backend records into.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Registry,
    /// `METHODS × CLASSES` request counters, row-major by method.
    requests: Vec<Arc<Counter>>,
    keepalive_reuses: Arc<Counter>,
    parse_seconds: Arc<Histogram>,
    dispatch_seconds: Arc<Histogram>,
    submit_seconds: Arc<Histogram>,
    wal_write_seconds: Arc<Histogram>,
    wal_fsync_seconds: Arc<Histogram>,
    wal_batch_size: Arc<Histogram>,
    wal_group_commit_seconds: Arc<Histogram>,
    wal_errors: Arc<Counter>,
    conns_shed: DeltaCounter,
    store_lock_seconds: Arc<Histogram>,
    /// Per-shard children of the lock family, in [`SHARD_LABELS`] order
    /// (shard indices past the pool clamp to the last child).
    shard_lock_seconds: Vec<Arc<Histogram>>,
    /// Per-shard (per WAL lane) children of the group-commit family.
    shard_commit_seconds: Vec<Arc<Histogram>>,
    /// Requests whose path is outside `/v1`: the retired unversioned
    /// surface, which answers 404.
    unversioned_requests: Arc<Counter>,
    budget_rejections: Arc<Counter>,
    /// Accepted-submission counters in [`PrivacyLevel::ALL`] order.
    submissions_by_level: Vec<Arc<Counter>>,
    /// Ledger ε gauges in [`EPSILON_STATS`] order.
    epsilon_gauges: Vec<Arc<Gauge>>,
    ledger_users: Arc<Gauge>,
    ledger_unbounded: Arc<Gauge>,
    /// Fraction of ledgered subjects at ≥ 80% of the ε cap (or
    /// unbounded); 0 when no cap is configured. The privacy SLO's input.
    ledger_near_cap: Arc<Gauge>,
    /// Cumulative k-anonymity distribution gauges in [`K_ANON_BUCKETS`]
    /// order: subjects sitting in a cohort of size ≤ k.
    privacy_k_anon: Vec<Arc<Gauge>>,
    /// Fraction of linkable subjects unique in their cohort — the
    /// re-identification-risk ratio and the privacy-at-risk SLO's input.
    privacy_at_risk: Arc<Gauge>,
    /// Shannon entropy (bits) of the cohort-size distribution.
    privacy_entropy: Arc<Gauge>,
    /// Subjects with at least one disclosed demographic fragment.
    privacy_subjects: Arc<Gauge>,
    /// Time merging the observatory's shard sketches into one cohort
    /// view (the O(shards) read the scan paths were replaced with).
    agg_merge_seconds: Arc<Histogram>,
    /// Open reactor connections, refreshed on scrape from the attached
    /// [`NetStats`] (aggregate plus [`SHARD_LABELS`] children).
    net_open_conns: Arc<Gauge>,
    shard_net_open: Vec<Arc<Gauge>>,
    /// Reactor event-loop wakeups, advanced by delta against the
    /// attached [`NetStats`] on each refresh.
    net_wakeups: DeltaCounter,
    shard_net_wakeups: Vec<DeltaCounter>,
    /// Connections accepted / shed by the reactor accept loops, advanced
    /// by delta on refresh. The [`SHARD_LABELS`] children make accept
    /// imbalance across reactor shards directly visible.
    net_accepted: DeltaCounter,
    shard_net_accepted: Vec<DeltaCounter>,
    net_shed: DeltaCounter,
    shard_net_shed: Vec<DeltaCounter>,
    /// The live stats block of the currently-served listener. Held
    /// across a refresh, so refreshes and re-attaches are serialized.
    net: Mutex<Option<Arc<NetStats>>>,
    /// Process-wide allocator counters, advanced by delta against the
    /// [`loki_obs::CountingAlloc`] statics on each scrape (zero and flat
    /// unless the bin installs the counting allocator).
    alloc_allocs: DeltaCounter,
    alloc_frees: DeltaCounter,
    alloc_bytes: DeltaCounter,
    /// Wall-clock profiler samples accumulated so far, by delta.
    prof_samples: DeltaCounter,
    /// `/proc/self` resource gauges (flat 0 off-Linux).
    proc_rss_bytes: Arc<Gauge>,
    proc_open_fds: Arc<Gauge>,
    proc_threads: Arc<Gauge>,
    /// CPU ticks by mode in [`CPU_MODES`] order, advanced by delta.
    proc_cpu_ticks: Vec<DeltaCounter>,
    /// Held across a resource refresh, so the process-global sources
    /// above are read and folded in order.
    resource_refresh: Mutex<()>,
    access_log: AccessLog,
    tracer: Tracer,
    audit_log: AuditLog,
    /// The history layer: scrape counter, ring-buffer store, SLO engine.
    scrape_tick: AtomicU64,
    tsdb: Tsdb,
    slo: SloEngine,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// Registers every family under the `loki_` prefix, with the default
    /// tracing policy (sampled + slow-threshold retention).
    pub fn new() -> ServerMetrics {
        ServerMetrics::with_trace_config(TraceConfig::default())
    }

    /// Same instruments, explicit tracing policy (pass
    /// [`TraceConfig::disabled`] to compile tracing in but record
    /// nothing — the OBS-2 overhead configuration).
    pub fn with_trace_config(trace_config: TraceConfig) -> ServerMetrics {
        ServerMetrics::with_configs(trace_config, HistoryConfig::default())
    }

    /// Fully explicit construction: tracing policy plus history-layer
    /// shape (tests shrink the burn windows to scale hours into
    /// milliseconds of scaled test time).
    pub fn with_configs(trace_config: TraceConfig, history: HistoryConfig) -> ServerMetrics {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x6c6f_6b69);
        let registry = Registry::new("loki");
        let mut requests = Vec::with_capacity(METHODS.len() * CLASSES.len());
        for method in METHODS {
            for class in CLASSES {
                requests.push(registry.counter(
                    "http_requests_total",
                    "Requests served, by method and status class",
                    &[("method", method.as_str()), ("class", class)],
                ));
            }
        }
        let submissions_by_level = PrivacyLevel::ALL
            .iter()
            .map(|level| {
                registry.counter(
                    "submissions_total",
                    "Accepted submissions, by chosen privacy level",
                    &[("level", &level.to_string())],
                )
            })
            .collect();
        let epsilon_gauges = EPSILON_STATS
            .iter()
            .map(|stat| {
                registry.gauge(
                    "ledger_epsilon",
                    "Distribution of cumulative privacy loss (tight ε at the default δ) \
                     across users with a ledger; refreshed on scrape",
                    &[("stat", stat)],
                )
            })
            .collect();
        ServerMetrics {
            requests,
            keepalive_reuses: registry.counter(
                "http_keepalive_reuses_total",
                "Requests served on an already-used keep-alive connection",
                &[],
            ),
            parse_seconds: registry.histogram(
                "http_parse_seconds",
                "Time parsing a request off the socket",
                LATENCY_BUCKETS,
                &[],
            ),
            dispatch_seconds: registry.histogram(
                "http_dispatch_seconds",
                "Time in routing + handler",
                LATENCY_BUCKETS,
                &[],
            ),
            submit_seconds: registry.histogram(
                "submit_seconds",
                "Submission round-trip inside the handler (validation through commit)",
                LATENCY_BUCKETS,
                &[],
            ),
            wal_write_seconds: registry.histogram(
                "wal_write_seconds",
                "Time serializing + writing one journal record",
                LATENCY_BUCKETS,
                &[],
            ),
            wal_fsync_seconds: registry.histogram(
                "wal_fsync_seconds",
                "Time in sync_data for one journal record",
                LATENCY_BUCKETS,
                &[],
            ),
            wal_batch_size: registry.histogram(
                "wal_batch_size",
                "Records made durable per group-commit fsync",
                BATCH_SIZE_BUCKETS,
                &[],
            ),
            wal_group_commit_seconds: registry.histogram(
                "wal_group_commit_seconds",
                "Full group-commit latency of one batch (write + fsync)",
                LATENCY_BUCKETS,
                &[],
            ),
            wal_errors: registry.counter(
                "wal_errors_total",
                "Writes refused because the journal could not make them durable",
                &[],
            ),
            conns_shed: DeltaCounter::new(registry.counter(
                "http_conns_shed_total",
                "Connections shed with a 503 by a reactor shard at its open-connection cap (the same count as loki_net_conns_shed_total)",
                &[],
            )),
            store_lock_seconds: registry.histogram(
                "store_lock_seconds",
                "Submission-store write-lock hold time",
                LATENCY_BUCKETS,
                &[],
            ),
            shard_lock_seconds: SHARD_LABELS
                .iter()
                .map(|shard| {
                    registry.histogram(
                        "store_lock_seconds",
                        "Submission-store write-lock hold time",
                        LATENCY_BUCKETS,
                        &[("shard", shard)],
                    )
                })
                .collect(),
            shard_commit_seconds: SHARD_LABELS
                .iter()
                .map(|shard| {
                    registry.histogram(
                        "wal_group_commit_seconds",
                        "Full group-commit latency of one batch (write + fsync)",
                        LATENCY_BUCKETS,
                        &[("shard", shard)],
                    )
                })
                .collect(),
            unversioned_requests: registry.counter(
                "http_legacy_requests_total",
                "Requests to a path outside /v1 (the retired unversioned surface answers 404)",
                &[],
            ),
            budget_rejections: registry.counter(
                "budget_rejections_total",
                "Submissions refused because the user's cumulative ε is at or over the cap",
                &[],
            ),
            submissions_by_level,
            epsilon_gauges,
            ledger_users: registry.gauge("ledger_users", "Users with a privacy ledger", &[]),
            ledger_unbounded: registry.gauge(
                "ledger_unbounded_users",
                "Users whose cumulative loss is unbounded (a raw release on record)",
                &[],
            ),
            ledger_near_cap: registry.gauge(
                "ledger_near_cap_ratio",
                "Fraction of ledgered users whose cumulative ε is at or above 80% of \
                 the configured cap (unbounded users count); 0 without a cap",
                &[],
            ),
            privacy_k_anon: K_ANON_BUCKETS
                .iter()
                .map(|k| {
                    registry.gauge(
                        "privacy_k_anon_bucket",
                        "Linkable subjects in a quasi-identifier cohort of size <= k \
                         (cumulative, Prometheus le idiom); refreshed on scrape",
                        &[("k", k)],
                    )
                })
                .collect(),
            privacy_at_risk: registry.gauge(
                "privacy_at_risk_ratio",
                "Fraction of linkable subjects unique in their quasi-identifier \
                 cohort (k = 1); the privacy-at-risk SLO input",
                &[],
            ),
            privacy_entropy: registry.gauge(
                "privacy_linkage_entropy_bits",
                "Shannon entropy of the anonymity-cohort-size distribution; \
                 higher means harder linkage",
                &[],
            ),
            privacy_subjects: registry.gauge(
                "privacy_subjects",
                "Subjects that have disclosed at least one demographic fragment",
                &[],
            ),
            agg_merge_seconds: registry.histogram(
                "agg_merge_seconds",
                "Time merging per-shard streaming state for an O(shards) read \
                 (estimates, /v1/privacy, /v1/stats)",
                LATENCY_BUCKETS,
                &[],
            ),
            net_open_conns: registry.gauge(
                "net_open_conns",
                "Open connections across the reactor shards; refreshed on scrape",
                &[],
            ),
            shard_net_open: SHARD_LABELS
                .iter()
                .map(|shard| {
                    registry.gauge(
                        "net_open_conns",
                        "Open connections across the reactor shards; refreshed on scrape",
                        &[("shard", shard)],
                    )
                })
                .collect(),
            net_wakeups: DeltaCounter::new(registry.counter(
                "net_reactor_wakeups_total",
                "Reactor event-loop wakeups (poll returns), across all shards",
                &[],
            )),
            shard_net_wakeups: SHARD_LABELS
                .iter()
                .map(|shard| {
                    DeltaCounter::new(registry.counter(
                        "net_reactor_wakeups_total",
                        "Reactor event-loop wakeups (poll returns), across all shards",
                        &[("shard", shard)],
                    ))
                })
                .collect(),
            net_accepted: DeltaCounter::new(registry.counter(
                "net_accepted_total",
                "Connections accepted by the reactor accept loops, across all shards",
                &[],
            )),
            shard_net_accepted: SHARD_LABELS
                .iter()
                .map(|shard| {
                    DeltaCounter::new(registry.counter(
                        "net_accepted_total",
                        "Connections accepted by the reactor accept loops, across all shards",
                        &[("shard", shard)],
                    ))
                })
                .collect(),
            net_shed: DeltaCounter::new(registry.counter(
                "net_conns_shed_total",
                "Connections shed by the reactor accept loops (per-shard conn cap hit)",
                &[],
            )),
            shard_net_shed: SHARD_LABELS
                .iter()
                .map(|shard| {
                    DeltaCounter::new(registry.counter(
                        "net_conns_shed_total",
                        "Connections shed by the reactor accept loops (per-shard conn cap hit)",
                        &[("shard", shard)],
                    ))
                })
                .collect(),
            net: Mutex::new(None),
            alloc_allocs: DeltaCounter::new(registry.counter(
                "alloc_allocs_total",
                "Heap allocations counted by the installed counting allocator",
                &[],
            )),
            alloc_frees: DeltaCounter::new(registry.counter(
                "alloc_frees_total",
                "Heap frees counted by the installed counting allocator",
                &[],
            )),
            alloc_bytes: DeltaCounter::new(registry.counter(
                "alloc_bytes_total",
                "Heap bytes requested across counted allocations",
                &[],
            )),
            prof_samples: DeltaCounter::new(registry.counter(
                "prof_samples_total",
                "Wall-clock profiler samples accumulated across registered threads",
                &[],
            )),
            proc_rss_bytes: registry.gauge(
                "proc_rss_bytes",
                "Resident set size from /proc/self/status (0 off-Linux)",
                &[],
            ),
            proc_open_fds: registry.gauge(
                "proc_open_fds",
                "Open file descriptors from /proc/self/fd (0 off-Linux)",
                &[],
            ),
            proc_threads: registry.gauge(
                "proc_threads",
                "OS threads from /proc/self/stat (0 off-Linux)",
                &[],
            ),
            proc_cpu_ticks: CPU_MODES
                .iter()
                .map(|mode| {
                    DeltaCounter::new(registry.counter(
                        "proc_cpu_ticks_total",
                        "CPU time from /proc/self/stat in clock ticks, by mode",
                        &[("mode", mode)],
                    ))
                })
                .collect(),
            resource_refresh: Mutex::new(()),
            access_log: AccessLog::with_capacity(1024),
            tracer: Tracer::new(seed, trace_config),
            audit_log: AuditLog::with_capacity(4096),
            scrape_tick: AtomicU64::new(0),
            tsdb: Tsdb::new(history.tsdb),
            slo: SloEngine::new(history.slo_specs, history.alert_history),
            registry,
        }
    }

    /// The request tracer (span trees + bounded trace store).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The append-only ε-audit event stream.
    pub fn audit_log(&self) -> &AuditLog {
        &self.audit_log
    }

    /// A [`RequestObserver`] recording into this instance; install it via
    /// [`loki_net::server::ServerConfig::observer`].
    pub fn observer(self: &Arc<Self>) -> RequestObserver {
        let metrics = Arc::clone(self);
        Arc::new(move |req, resp, timing| {
            metrics.on_request(req.method, &req.path, resp.status.0, timing);
        })
    }

    /// Records one served request (counter + timing histograms + access
    /// log), and counts it in `loki_http_legacy_requests_total` when its
    /// path is outside `/v1`. The path is reduced to its route shape
    /// before logging.
    pub fn on_request(&self, method: Method, path: &str, status: u16, timing: &RequestTiming) {
        let midx = METHODS.iter().position(|m| *m == method).unwrap_or(0);
        let cidx = match status / 100 {
            2 => 0,
            3 => 1,
            4 => 2,
            _ => 3,
        };
        if let Some(counter) = self.requests.get(midx * CLASSES.len() + cidx) {
            counter.inc();
        }
        self.parse_seconds.observe_duration(timing.parse);
        self.dispatch_seconds.observe_duration(timing.dispatch);
        if timing.reused {
            self.keepalive_reuses.inc();
        }
        if path != "/v1" && !path.starts_with("/v1/") {
            self.unversioned_requests.inc();
        }
        self.access_log.record(
            method.as_str(),
            &route_shape(path),
            status,
            timing.parse.as_micros() as u64,
            timing.dispatch.as_micros() as u64,
            timing.reused,
        );
    }

    /// Counts one budget-cap rejection.
    pub fn on_budget_rejection(&self) {
        self.budget_rejections.inc();
    }

    /// Counts one accepted submission at `level`.
    pub fn on_submission_stored(&self, level: PrivacyLevel) {
        let idx = PrivacyLevel::ALL.iter().position(|l| *l == level).unwrap_or(0);
        if let Some(counter) = self.submissions_by_level.get(idx) {
            counter.inc();
        }
    }

    /// Records a submission-store write-lock hold time against both the
    /// aggregate family and the `shard` child (clamped into the label
    /// pool), so the exact-total assertions and the per-shard view stay
    /// consistent.
    pub fn observe_store_lock_sharded(&self, held: Duration, shard: usize) {
        self.store_lock_seconds.observe_duration(held);
        if let Some(h) = self.shard_lock_seconds.get(shard.min(SHARD_LABELS.len() - 1)) {
            h.observe_duration(held);
        }
    }

    /// Records one group-commit batch outcome on WAL lane `lane`: a
    /// committed batch feeds the batch-size, latency and write/fsync
    /// phase histograms, and the lane's `wal_group_commit_seconds{shard=…}`
    /// child (clamped into the label pool); a failed batch counts every
    /// refused write in `loki_wal_errors_total`.
    pub fn on_wal_batch(&self, event: &crate::wal::BatchEvent, lane: usize) {
        match event {
            crate::wal::BatchEvent::Committed(t) => {
                let commit = t.write + t.fsync;
                self.wal_batch_size.observe(t.records as f64);
                self.wal_group_commit_seconds
                    .observe_with_exemplar(commit.as_secs_f64(), t.exemplar_trace.unwrap_or(0));
                self.wal_write_seconds.observe_duration(t.write);
                self.wal_fsync_seconds.observe_duration(t.fsync);
                if let Some(h) = self.shard_commit_seconds.get(lane.min(SHARD_LABELS.len() - 1)) {
                    h.observe_duration(commit);
                }
            }
            crate::wal::BatchEvent::Failed { records } => {
                self.wal_errors.add(*records as u64);
            }
        }
    }

    /// Records a full submission round-trip, exemplar-tagged with the
    /// request's trace id when the request was traced (`0` = untraced).
    pub fn observe_submit(&self, elapsed: Duration, trace_id: u64) {
        self.submit_seconds
            .observe_with_exemplar(elapsed.as_secs_f64(), trace_id);
    }

    /// Refreshes the ledger ε gauges from the accountant (called on
    /// scrape, not on every submission). One summary walk over every
    /// ledger's stored loss feeds them all, the near-cap headroom ratio
    /// included: the users at or above 80% of `cap`, the server's
    /// cumulative-ε budget, over all ledgered users. Without a cap, or
    /// with no ledgers, the ratio is 0.
    pub fn refresh_ledger_gauges(&self, accountant: &Accountant, cap: Option<f64>) {
        let cap = cap.filter(|c| *c > 0.0);
        let threshold = cap.map_or(f64::INFINITY, |c| 0.8 * c);
        let summary = accountant.epsilon_summary(threshold);
        let values = [summary.p50, summary.p90, summary.p99, summary.mean, summary.max];
        for (gauge, value) in self.epsilon_gauges.iter().zip(values) {
            gauge.set(value);
        }
        self.ledger_users.set(summary.users as f64);
        self.ledger_unbounded.set(summary.unbounded as f64);
        let near_cap = if cap.is_some() && summary.users > 0 {
            summary.at_or_above as f64 / summary.users as f64
        } else {
            0.0
        };
        self.ledger_near_cap.set(near_cap);
    }

    /// Refreshes the privacy-observatory gauges from an identity-free
    /// summary (bucket counts only — the summary type cannot carry a
    /// subject id or quasi-identifier value by construction).
    pub fn refresh_privacy_gauges(&self, privacy: &crate::agg::PrivacySummary) {
        for (gauge, label) in self.privacy_k_anon.iter().zip(K_ANON_BUCKETS) {
            let le = match label {
                "+Inf" => u64::MAX,
                k => k.parse().unwrap_or(u64::MAX),
            };
            let cumulative: u64 = privacy
                .k
                .histogram
                .iter()
                .filter(|(size, _)| **size <= le)
                .map(|(_, members)| *members)
                .sum();
            gauge.set(cumulative as f64);
        }
        self.privacy_at_risk.set(privacy.k.at_risk_ratio());
        self.privacy_entropy.set(privacy.k.entropy_bits);
        self.privacy_subjects.set(privacy.subjects as f64);
    }

    /// Records one observatory merge (the O(shards) read path).
    pub fn observe_agg_merge(&self, elapsed: Duration) {
        self.agg_merge_seconds.observe_duration(elapsed);
    }

    /// Points the `loki_net_*` families at a live reactor stats block
    /// (normally the serving listener's, via `ServerHandle::stats()`).
    /// Re-attaching — e.g. when a test embeds several servers in turn —
    /// resets every net watermark so the counters only ever advance.
    pub fn attach_net_stats(&self, stats: Arc<NetStats>) {
        {
            let mut net = self.net.lock().unwrap_or_else(PoisonError::into_inner);
            *net = Some(stats);
            let totals = [
                &self.net_wakeups,
                &self.net_accepted,
                &self.net_shed,
                &self.conns_shed,
            ];
            let children =
                [&self.shard_net_wakeups, &self.shard_net_accepted, &self.shard_net_shed];
            for counter in totals.into_iter().chain(children.into_iter().flatten()) {
                counter.reset();
            }
        }
        self.refresh_net_gauges();
    }

    /// Refreshes the `loki_net_*` families from the attached stats
    /// block: gauges are overwritten, counters advance by delta. A no-op
    /// until [`ServerMetrics::attach_net_stats`] is called.
    pub fn refresh_net_gauges(&self) {
        let net = self.net.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(stats) = net.as_deref() else {
            return;
        };
        type PerShard = fn(&NetStats, usize) -> u64;
        // Shards past the label pool fold into the last label.
        let per_label = |read: PerShard| {
            let mut sums = [0u64; SHARD_LABELS.len()];
            for shard in 0..stats.shards() {
                if let Some(sum) = sums.get_mut(shard.min(SHARD_LABELS.len() - 1)) {
                    *sum += read(stats, shard);
                }
            }
            sums
        };
        self.net_open_conns.set(stats.open_conns() as f64);
        for (gauge, count) in self.shard_net_open.iter().zip(per_label(NetStats::open_conns_for)) {
            gauge.set(count as f64);
        }
        // Each total is its children's sum, so both come from one read.
        let advance = |total: &DeltaCounter, children: &[DeltaCounter], read: PerShard| {
            let per_shard = per_label(read);
            let sum = per_shard.iter().sum();
            total.advance(sum);
            for (child, current) in children.iter().zip(per_shard) {
                child.advance(current);
            }
            sum
        };
        advance(&self.net_wakeups, &self.shard_net_wakeups, NetStats::wakeups_for);
        advance(&self.net_accepted, &self.shard_net_accepted, NetStats::accepted_for);
        // `http_conns_shed_total` counts the same sheds from the same read.
        let shed = advance(&self.net_shed, &self.shard_net_shed, NetStats::shed_for);
        self.conns_shed.advance(shed);
    }

    /// Refreshes the process-resource families: `/proc/self` gauges are
    /// overwritten, allocator / profiler / CPU-tick counters advance by
    /// delta against their process-global sources. Safe to call with no
    /// counting allocator installed (the statics read 0).
    pub fn refresh_resource_gauges(&self) {
        let _serial = self.resource_refresh.lock().unwrap_or_else(PoisonError::into_inner);
        let stats = loki_obs::ProcStats::read();
        self.proc_rss_bytes.set(stats.rss_bytes.unwrap_or(0) as f64);
        self.proc_open_fds.set(stats.open_fds.unwrap_or(0) as f64);
        self.proc_threads.set(stats.threads.unwrap_or(0) as f64);
        self.alloc_allocs.advance(loki_obs::CountingAlloc::allocs());
        self.alloc_frees.advance(loki_obs::CountingAlloc::frees());
        self.alloc_bytes.advance(loki_obs::CountingAlloc::bytes());
        self.prof_samples.advance(loki_obs::prof::snapshot().total_samples());
        let ticks = [stats.utime_ticks, stats.stime_ticks];
        for (counter, ticks) in self.proc_cpu_ticks.iter().zip(ticks) {
            counter.advance(ticks.unwrap_or(0));
        }
    }

    /// One self-scrape: refresh the derived gauges, snapshot every
    /// registered family straight from the atomic cells into the tsdb,
    /// and run the SLO state machines. Returns the tick it drew. A
    /// racing scrape that drew a later tick and reached the tsdb first
    /// makes this one a no-op there and in the SLO engine, which both
    /// refuse a tick at or below the newest they have taken.
    pub fn scrape(
        &self,
        accountant: &Accountant,
        cap: Option<f64>,
        privacy: &crate::agg::PrivacySummary,
    ) -> u64 {
        self.refresh_ledger_gauges(accountant, cap);
        self.refresh_privacy_gauges(privacy);
        self.refresh_net_gauges();
        self.refresh_resource_gauges();
        let tick = self.scrape_tick.fetch_add(1, Ordering::Relaxed);
        self.tsdb.ingest(tick, &self.registry.snapshot());
        self.slo.evaluate(tick, &self.tsdb);
        tick
    }

    /// The in-process time-series store.
    pub fn tsdb(&self) -> &Tsdb {
        &self.tsdb
    }

    /// The SLO engine (statuses, alert states, transition history).
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// Number of self-scrapes recorded so far.
    pub fn scrapes(&self) -> u64 {
        self.scrape_tick.load(Ordering::Relaxed)
    }

    /// The Prometheus text exposition of every family.
    pub fn render_exposition(&self) -> String {
        self.registry.render()
    }

    /// The bounded access log.
    pub fn access_log(&self) -> &AccessLog {
        &self.access_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_dp::accountant::ReleaseKind;

    #[test]
    fn route_shape_masks_parameters() {
        assert_eq!(route_shape("/v1/surveys/17/results/0"), "/v1/surveys/:p/results/:p");
        assert_eq!(route_shape("/ledger/alice"), "/ledger/:p");
        assert_eq!(route_shape("/v1/metrics"), "/v1/metrics");
        assert_eq!(route_shape("/v1/traces/00ab12"), "/v1/traces/:p");
        assert_eq!(route_shape("/v1/healthz"), "/v1/healthz");
        assert_eq!(route_shape("/"), "/");
        assert_eq!(route_shape(""), "/");
    }

    #[test]
    fn request_observation_renders_expected_families() {
        let m = ServerMetrics::new();
        let timing = RequestTiming {
            parse: Duration::from_micros(30),
            dispatch: Duration::from_micros(200),
            reused: true,
        };
        m.on_request(Method::Get, "/v1/ledger/u7", 200, &timing);
        m.on_request(Method::Post, "/v1/surveys/1/responses", 403, &timing);
        let text = m.render_exposition();
        assert!(
            text.contains("loki_http_requests_total{method=\"GET\",class=\"2xx\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("loki_http_requests_total{method=\"POST\",class=\"4xx\"} 1"),
            "{text}"
        );
        assert!(text.contains("loki_http_keepalive_reuses_total 2"), "{text}");
        assert!(text.contains("loki_http_parse_seconds_bucket"), "{text}");
        assert!(text.contains("loki_http_dispatch_seconds_count 2"), "{text}");
        // The access log never retains the raw user-bearing path.
        let tail = m.access_log().render_tail(10);
        assert!(tail.contains("path=/v1/ledger/:p"), "{tail}");
        assert!(!tail.contains("u7"), "{tail}");
    }

    #[test]
    fn submit_path_instruments() {
        let m = ServerMetrics::new();
        m.on_budget_rejection();
        m.on_submission_stored(PrivacyLevel::Medium);
        m.observe_submit(Duration::from_micros(500), 0xab);
        m.observe_store_lock_sharded(Duration::from_micros(5), 0);
        let text = m.render_exposition();
        assert!(text.contains("loki_budget_rejections_total 1"), "{text}");
        assert!(
            text.contains("loki_submissions_total{level=\"medium\"} 1"),
            "{text}"
        );
        assert!(text.contains("loki_submit_seconds_count 1"), "{text}");
        assert!(
            text.contains("# EXEMPLAR loki_submit_seconds trace_id=00000000000000ab"),
            "{text}"
        );
        assert!(text.contains("loki_store_lock_seconds_count 1"), "{text}");
    }

    #[test]
    fn wal_batch_events_feed_group_commit_families() {
        let m = ServerMetrics::new();
        m.on_wal_batch(
            &crate::wal::BatchEvent::Committed(crate::wal::BatchTiming {
                write: Duration::from_micros(80),
                fsync: Duration::from_millis(3),
                records: 7,
                exemplar_trace: Some(0xbeef),
            }),
            1,
        );
        m.on_wal_batch(&crate::wal::BatchEvent::Failed { records: 4 }, 1);
        let text = m.render_exposition();
        assert!(text.contains("loki_wal_batch_size_count 1"), "{text}");
        assert!(text.contains("loki_wal_batch_size_sum 7"), "{text}");
        assert!(text.contains("loki_wal_group_commit_seconds_count 1"), "{text}");
        assert!(
            text.contains("# EXEMPLAR loki_wal_group_commit_seconds trace_id=000000000000beef"),
            "{text}"
        );
        // A committed batch is one shared append for the phase families.
        assert!(text.contains("loki_wal_write_seconds_count 1"), "{text}");
        assert!(text.contains("loki_wal_fsync_seconds_count 1"), "{text}");
        assert!(text.contains("loki_wal_errors_total 4"), "{text}");
        // The lane's child got only the committed batch.
        assert!(
            text.contains("loki_wal_group_commit_seconds_count{shard=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("loki_wal_group_commit_seconds_count{shard=\"0\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn sharded_lock_observation_feeds_aggregate_and_child() {
        let m = ServerMetrics::new();
        m.observe_store_lock_sharded(Duration::from_micros(5), 2);
        // Out-of-pool shard indices clamp to the last label.
        m.observe_store_lock_sharded(Duration::from_micros(5), 99);
        let text = m.render_exposition();
        assert!(text.contains("loki_store_lock_seconds_count 2"), "{text}");
        assert!(
            text.contains("loki_store_lock_seconds_count{shard=\"2\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("loki_store_lock_seconds_count{shard=\"7\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("loki_store_lock_seconds_count{shard=\"0\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn legacy_requests_counted_separately() {
        let m = ServerMetrics::new();
        let timing = RequestTiming {
            parse: Duration::from_micros(30),
            dispatch: Duration::from_micros(200),
            reused: false,
        };
        m.on_request(Method::Get, "/surveys", 404, &timing);
        m.on_request(Method::Get, "/v1/surveys", 200, &timing);
        let text = m.render_exposition();
        assert!(text.contains("loki_http_legacy_requests_total 1"), "{text}");
    }

    #[test]
    fn admin_route_segments_are_literals() {
        assert_eq!(route_shape("/v1/admin/shards"), "/v1/admin/shards");
        assert_eq!(route_shape("/admin/shards"), "/admin/shards");
    }

    /// A `backlog: 1` shard with its one slot held sheds every further
    /// arrival; after a refresh both shed families read the reactor's
    /// count. Attaching a second server resets both watermarks, so its
    /// sheds add on from zero.
    #[test]
    fn both_shed_families_read_the_reactors_count() {
        use loki_net::http::{Response, StatusCode};
        use loki_net::router::Router;
        use loki_net::server::{Server, ServerConfig, ServerHandle};
        use std::io::{Read, Write};
        use std::time::Instant;

        fn wait_for(what: &str, done: impl Fn() -> bool) {
            let started = Instant::now();
            while !done() {
                assert!(started.elapsed() < Duration::from_secs(5), "{what}");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        /// Spawns a one-slot shard, holds its slot and makes `sheds`
        /// arrivals over the cap; returns the server and the held slot.
        fn shedding_server(sheds: u64) -> (ServerHandle, std::net::TcpStream) {
            let mut r = Router::new();
            r.get("/ping", |_, _| Response::text(StatusCode::OK, "pong"));
            let cfg = ServerConfig {
                workers: 1,
                backlog: 1,
                read_timeout: Duration::from_secs(5),
                ..ServerConfig::default()
            };
            let h = Server::spawn("127.0.0.1:0", r, cfg).unwrap();
            let mut stall = std::net::TcpStream::connect(h.addr()).unwrap();
            stall.write_all(b"GET /ping HTTP/1.1\r\n").unwrap();
            wait_for("the slot never opened", || h.stats().open_conns() == 1);
            for _ in 0..sheds {
                let mut s = std::net::TcpStream::connect(h.addr()).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                // The 503 envelope, then close.
                let _ = s.read_to_end(&mut Vec::new());
            }
            wait_for("the sheds were not counted", || {
                h.stats().shed_total() == sheds
            });
            (h, stall)
        }
        let rendered = |m: &ServerMetrics, family: &str| -> u64 {
            let prefix = format!("{family} ");
            m.render_exposition()
                .lines()
                .find_map(|l| l.strip_prefix(prefix.as_str()))
                .and_then(|v| v.parse().ok())
                .unwrap()
        };

        let m = ServerMetrics::new();
        let (h, stall) = shedding_server(3);
        m.attach_net_stats(h.stats());
        m.refresh_net_gauges();
        assert_eq!(rendered(&m, "loki_net_conns_shed_total"), 3);
        assert_eq!(rendered(&m, "loki_http_conns_shed_total"), 3);
        drop(stall);
        h.shutdown();

        let (h, stall) = shedding_server(1);
        m.attach_net_stats(h.stats());
        m.refresh_net_gauges();
        assert_eq!(rendered(&m, "loki_net_conns_shed_total"), 4);
        assert_eq!(rendered(&m, "loki_http_conns_shed_total"), 4);
        drop(stall);
        h.shutdown();
    }

    #[test]
    fn ledger_gauges_refresh_from_accountant() {
        let m = ServerMetrics::new();
        let acc = Accountant::new();
        acc.record(
            "a",
            ReleaseKind::Gaussian {
                sigma: 2.0,
                sensitivity: 4.0,
            },
        );
        acc.record("b", ReleaseKind::Raw);
        m.refresh_ledger_gauges(&acc, None);
        let text = m.render_exposition();
        assert!(text.contains("loki_ledger_users 2"), "{text}");
        assert!(text.contains("loki_ledger_unbounded_users 1"), "{text}");
        assert!(
            text.contains("loki_ledger_epsilon{stat=\"max\"} +Inf"),
            "{text}"
        );
        assert!(text.contains("loki_ledger_epsilon{stat=\"p50\"}"), "{text}");
        // No cap configured → the near-cap ratio reads 0.
        assert!(text.contains("loki_ledger_near_cap_ratio 0"), "{text}");
    }

    #[test]
    fn near_cap_ratio_counts_tight_and_unbounded_users() {
        let m = ServerMetrics::new();
        let acc = Accountant::new();
        // One user far below the cap, one unbounded (counts as near).
        acc.record(
            "a",
            ReleaseKind::Gaussian {
                sigma: 100.0,
                sensitivity: 1.0,
            },
        );
        acc.record("b", ReleaseKind::Raw);
        m.refresh_ledger_gauges(&acc, Some(50.0));
        let text = m.render_exposition();
        assert!(text.contains("loki_ledger_near_cap_ratio 0.5"), "{text}");
    }

    #[test]
    fn near_cap_ratio_follows_a_cap_change_between_refreshes() {
        let m = ServerMetrics::new();
        let acc = Accountant::new();
        let users = ["a", "b", "c", "d"];
        for (user, epsilon) in users.iter().zip([0.1, 1.0, 2.0]) {
            acc.record(user, ReleaseKind::Pure { epsilon });
        }
        acc.record("d", ReleaseKind::Raw);
        // The brute-force ratio: each user's own loss against 80% of the
        // cap. At 0.125 the threshold is exactly user a's ε of 0.1.
        let brute_force = |cap: f64| {
            let near = users
                .iter()
                .filter(|u| acc.loss_of(u).epsilon.value() >= 0.8 * cap)
                .count();
            near as f64 / users.len() as f64
        };
        for (cap, ratio) in [(10.0, 0.25), (2.0, 0.5), (0.125, 1.0), (10.0, 0.25)] {
            m.refresh_ledger_gauges(&acc, Some(cap));
            let gauge = m.ledger_near_cap.get();
            assert_eq!(gauge.to_bits(), brute_force(cap).to_bits(), "cap {cap}");
            assert_eq!(gauge.to_bits(), f64::to_bits(ratio), "cap {cap}");
        }
        // A cap of +∞ leaves the unbounded user alone at the threshold:
        // submit refuses them at that cap, so the gauge counts them.
        m.refresh_ledger_gauges(&acc, Some(f64::INFINITY));
        assert_eq!(m.ledger_near_cap.get().to_bits(), 0.25f64.to_bits());
        m.refresh_ledger_gauges(&acc, None);
        assert_eq!(m.ledger_near_cap.get().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn net_families_refresh_from_a_live_reactor() {
        use loki_net::http::{Response, StatusCode};
        use loki_net::router::Router;
        use loki_net::server::{Server, ServerConfig};
        use std::io::{Read, Write};

        let m = ServerMetrics::new();
        let mut r = Router::new();
        r.get("/ping", |_, _| Response::text(StatusCode::OK, "pong"));
        let h = Server::spawn("127.0.0.1:0", r, ServerConfig::default()).unwrap();
        // One keep-alive connection held open so the gauge has something
        // to count.
        let mut s = std::net::TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"GET /ping HTTP/1.1\r\n\r\n").unwrap();
        let mut byte = [0u8; 1];
        s.read_exact(&mut byte).unwrap();

        m.attach_net_stats(h.stats());
        let text = m.render_exposition();
        assert!(text.contains("loki_net_open_conns 1"), "{text}");
        assert!(text.contains("loki_net_open_conns{shard="), "{text}");
        assert!(!text.contains("loki_net_reactor_wakeups_total 0\n"), "{text}");

        // Refreshing twice must not double-count wakeups: the counter
        // advances by delta against the monotone source.
        m.refresh_net_gauges();
        let text = m.render_exposition();
        let rendered: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("loki_net_reactor_wakeups_total "))
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(
            rendered <= h.stats().wakeups(),
            "counter {rendered} ran ahead of source {}",
            h.stats().wakeups()
        );
        drop(s);
        h.shutdown();
    }

    #[test]
    fn net_families_are_inert_until_attached() {
        let m = ServerMetrics::new();
        m.refresh_net_gauges();
        let text = m.render_exposition();
        assert!(text.contains("loki_net_open_conns 0"), "{text}");
        assert!(text.contains("loki_net_reactor_wakeups_total 0"), "{text}");
        assert!(text.contains("loki_net_accepted_total 0"), "{text}");
        assert!(text.contains("loki_net_conns_shed_total 0"), "{text}");
    }

    /// Exposition-shape regression for the per-shard accept/shed
    /// children (PR 9 satellite): the families must render one child per
    /// label in [`SHARD_LABELS`] alongside the exact aggregate, and the
    /// accepted deltas must land on the shard that did the accepting.
    #[test]
    fn accept_and_shed_families_render_per_shard_children() {
        use loki_net::http::{Response, StatusCode};
        use loki_net::router::Router;
        use loki_net::server::{Server, ServerConfig};
        use std::io::{Read, Write};

        let m = ServerMetrics::new();
        let mut r = Router::new();
        r.get("/ping", |_, _| Response::text(StatusCode::OK, "pong"));
        // One shard → the child that must carry the count.
        let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
        let h = Server::spawn("127.0.0.1:0", r, cfg).unwrap();
        let mut s = std::net::TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"GET /ping HTTP/1.1\r\n\r\n").unwrap();
        let mut byte = [0u8; 1];
        s.read_exact(&mut byte).unwrap();

        m.attach_net_stats(h.stats());
        let text = m.render_exposition();
        // Shape: every shard label present for both families.
        for shard in SHARD_LABELS {
            assert!(
                text.contains(&format!("loki_net_accepted_total{{shard=\"{shard}\"}}")),
                "missing accepted child {shard}: {text}"
            );
            assert!(
                text.contains(&format!("loki_net_conns_shed_total{{shard=\"{shard}\"}}")),
                "missing shed child {shard}: {text}"
            );
        }
        // Values: the single accept landed on shard 0 and the aggregate.
        assert!(text.contains("loki_net_accepted_total 1"), "{text}");
        assert!(text.contains("loki_net_accepted_total{shard=\"0\"} 1"), "{text}");
        assert!(text.contains("loki_net_conns_shed_total 0"), "{text}");

        // Refreshing again must not double-count (watermark deltas).
        m.refresh_net_gauges();
        let text = m.render_exposition();
        assert!(text.contains("loki_net_accepted_total 1"), "{text}");
        drop(s);
        h.shutdown();
    }

    #[test]
    fn resource_families_refresh_by_watermark_delta() {
        let m = ServerMetrics::new();
        m.refresh_resource_gauges();
        let text = m.render_exposition();
        // The allocator counters exist even when the counting allocator
        // is not installed as #[global_allocator] in the test bin; the
        // counting statics may still be zero, so assert shape only.
        assert!(text.contains("loki_alloc_allocs_total"), "{text}");
        assert!(text.contains("loki_alloc_frees_total"), "{text}");
        assert!(text.contains("loki_alloc_bytes_total"), "{text}");
        assert!(text.contains("loki_prof_samples_total"), "{text}");
        assert!(text.contains("loki_proc_cpu_ticks_total{mode=\"user\"}"), "{text}");
        assert!(text.contains("loki_proc_cpu_ticks_total{mode=\"system\"}"), "{text}");
        if loki_obs::ProcStats::available() {
            let rss: f64 = text
                .lines()
                .find_map(|l| l.strip_prefix("loki_proc_rss_bytes "))
                .and_then(|v| v.parse().ok())
                .unwrap();
            assert!(rss > 0.0, "{text}");
            let threads: f64 = text
                .lines()
                .find_map(|l| l.strip_prefix("loki_proc_threads "))
                .and_then(|v| v.parse().ok())
                .unwrap();
            assert!(threads >= 1.0, "{text}");
        }
        // Idempotence: a second refresh must not inflate the counters
        // faster than the process-global sources themselves grow.
        let parse = |text: &str, prefix: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(prefix))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        let before = parse(&text, "loki_alloc_allocs_total ");
        m.refresh_resource_gauges();
        let after = parse(&m.render_exposition(), "loki_alloc_allocs_total ");
        assert!(
            after <= loki_obs::CountingAlloc::allocs(),
            "counter {after} ran ahead of source"
        );
        assert!(after >= before, "counter went backwards: {before} -> {after}");
    }

    #[test]
    fn scrape_feeds_tsdb_and_slo_engine() {
        let m = ServerMetrics::new();
        let acc = Accountant::new();
        let timing = RequestTiming {
            parse: Duration::from_micros(30),
            dispatch: Duration::from_micros(200),
            reused: false,
        };
        let privacy = crate::agg::PrivacyObservatory::new().summary();
        m.on_request(Method::Get, "/v1/stats", 200, &timing);
        assert_eq!(m.scrape(&acc, None, &privacy), 0);
        m.on_request(Method::Get, "/v1/stats", 200, &timing);
        assert_eq!(m.scrape(&acc, None, &privacy), 1);
        assert_eq!(m.scrapes(), 2);
        // The counter family landed as per-tick deltas.
        let series = m.tsdb().query("loki_http_requests_total", "class=\"2xx\"", 0, 1);
        let total: f64 = series
            .iter()
            .flat_map(|s| s.points.iter())
            .map(|p| p.last * p.count as f64)
            .sum();
        assert_eq!(total, 2.0, "{series:?}");
        // Histogram families fanned out; every configured SLO has a
        // status and nothing fires on two healthy scrapes.
        assert!(!m.tsdb().query("loki_http_dispatch_seconds_count", "", 0, 1).is_empty());
        let statuses = m.slo().statuses();
        assert_eq!(statuses.len(), 4, "{statuses:?}");
        assert!(!m.slo().any_firing());
    }

    #[test]
    fn privacy_gauges_render_cumulative_buckets() {
        let m = ServerMetrics::new();
        // Hand-built summary: 3 subjects in one cohort of 3, plus 2
        // singletons → at-risk ratio 2/5, cumulative buckets 2 at k≤1
        // and k≤2, 5 from k≤4 up.
        let k = loki_attack::stream::KAnonymity::from_cohort_sizes([3, 1, 1]);
        let privacy = crate::agg::PrivacySummary {
            k,
            subjects: 7,
        };
        m.refresh_privacy_gauges(&privacy);
        let text = m.render_exposition();
        assert!(text.contains("loki_privacy_k_anon_bucket{k=\"1\"} 2"), "{text}");
        assert!(text.contains("loki_privacy_k_anon_bucket{k=\"2\"} 2"), "{text}");
        assert!(text.contains("loki_privacy_k_anon_bucket{k=\"4\"} 5"), "{text}");
        assert!(text.contains("loki_privacy_k_anon_bucket{k=\"+Inf\"} 5"), "{text}");
        assert!(text.contains("loki_privacy_at_risk_ratio 0.4"), "{text}");
        assert!(text.contains("loki_privacy_subjects 7"), "{text}");
        assert!(text.contains("loki_privacy_linkage_entropy_bits"), "{text}");
        m.observe_agg_merge(Duration::from_micros(20));
        let text = m.render_exposition();
        assert!(text.contains("loki_agg_merge_seconds_count 1"), "{text}");
    }
}
