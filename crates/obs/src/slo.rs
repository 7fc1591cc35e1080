//! SLO evaluation: multi-window burn rates and an alert state machine.
//!
//! The alerting side of the history layer: declarative [`SloSpec`]s are
//! evaluated each scrape tick against the [`Tsdb`](crate::Tsdb), using
//! the multi-window multi-burn-rate recipe (a fast window pair catches
//! sudden total outages, a slow pair catches slow budget leaks; both
//! halves of a pair must breach, so a brief spike inside an otherwise
//! healthy long window never pages). Three SLO shapes cover the server:
//!
//! * **availability** — bad/total ratio of two counter window-sums
//!   (non-5xx request ratio);
//! * **latency** — the fraction of histogram samples above a bucket
//!   bound, from the `_bucket`/`_count` fan-out series;
//! * **privacy** — a gauge read directly as the bad ratio (the fraction
//!   of ledgered subjects above 80 % of the ε cap: the paper's §3
//!   "balanced across the base" invariant as a pageable objective).
//!
//! Each SLO runs the state machine `Ok → Pending → Firing → Resolved`:
//! a breach must persist `pending_ticks` before firing (no flapping on
//! one bad scrape), and recovery passes through `Resolved` so operators
//! see the transition in the history before the state returns to `Ok`.
//! Every transition is appended to a bounded, audit-style event ring —
//! sequence-numbered, wall-clock stamped, and carrying the trace id of
//! the violating exemplar when the underlying family recorded one — so
//! an alert joins directly to a concrete request's span tree.

use crate::access::now_ms;
use crate::tsdb::Tsdb;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// One burn-rate rule: both the long and the short window's burn rate
/// must be at or above `factor` for the rule to breach.
#[derive(Debug, Clone, Copy)]
pub struct BurnRule {
    /// Long window width in ticks (e.g. 1 h at one tick per second).
    pub long_ticks: u64,
    /// Short window width in ticks (e.g. 5 m) — the "is it still
    /// happening right now" guard.
    pub short_ticks: u64,
    /// Burn-rate threshold (1.0 = burning exactly the error budget).
    pub factor: f64,
}

/// What a spec measures.
#[derive(Debug, Clone)]
pub enum SloKind {
    /// `bad / total` over counter window sums: availability-style.
    /// An empty window (total = 0) is a bad ratio of 0 — no traffic
    /// burns no budget.
    ErrorRatio {
        /// Series name of the bad-event counter.
        bad_name: String,
        /// Label filter selecting the bad children (e.g. `class="5xx"`).
        bad_filter: String,
        /// Series name of the total counter.
        total_name: String,
        /// Label filter for the total (usually empty).
        total_filter: String,
    },
    /// Fraction of histogram samples slower than a bucket bound:
    /// bad = 1 − `{family}_bucket{le}` / `{family}_count`.
    LatencyThreshold {
        /// Histogram family name (without `_bucket`/`_count` suffix).
        family: String,
        /// The bucket bound, exactly as rendered (e.g. `0.25`).
        le: String,
    },
    /// A gauge whose value *is* the bad ratio (clamped to `0..=1`).
    GaugeLevel {
        /// Gauge series name.
        name: String,
        /// Label filter (usually empty).
        filter: String,
    },
}

/// One declarative objective.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Stable name ("availability", "submit-latency", ...).
    pub name: String,
    /// The objective as a good-ratio target in `0..1` (0.999 = three
    /// nines; error budget = 1 − objective).
    pub objective: f64,
    /// What to measure.
    pub kind: SloKind,
    /// Burn-rate rules; *any* breaching rule counts as a breach.
    pub rules: Vec<BurnRule>,
    /// Evaluations a breach must persist before `Pending` becomes
    /// `Firing`.
    pub pending_ticks: u64,
    /// Histogram family whose exemplar trace id is attached to alert
    /// transitions (the "violating exemplar").
    pub exemplar_family: Option<String>,
}

/// Alert state of one SLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Within budget.
    Ok,
    /// Breaching, not yet long enough to fire.
    Pending,
    /// Breaching past the pending window — page.
    Firing,
    /// No longer breaching; one evaluation later this becomes `Ok`.
    Resolved,
}

impl AlertState {
    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// One alert transition, appended to the bounded history ring. The same
/// audit-stream shape as [`crate::AuditEvent`]: gap-free sequence,
/// wall-clock stamp, and a trace-id join point.
#[derive(Debug, Clone)]
pub struct AlertEvent {
    /// Monotonic sequence number (gap-free within the process).
    pub seq: u64,
    /// Wall-clock milliseconds since the UNIX epoch.
    pub timestamp_ms: u64,
    /// Scrape tick at which the transition happened.
    pub tick: u64,
    /// The SLO's name.
    pub slo: String,
    /// State before.
    pub from: AlertState,
    /// State after.
    pub to: AlertState,
    /// Short-window burn rate of the first rule at transition time.
    pub burn_short: f64,
    /// Long-window burn rate of the first rule at transition time.
    pub burn_long: f64,
    /// Trace id of the violating exemplar, when the spec names an
    /// exemplar family and it has recorded one.
    pub trace_id: Option<u64>,
}

/// Point-in-time status of one SLO, as served by `/v1/slo`.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// The SLO's name.
    pub name: String,
    /// The configured good-ratio objective.
    pub objective: f64,
    /// Current alert state.
    pub state: AlertState,
    /// Tick the current state was entered.
    pub since_tick: u64,
    /// Bad ratio over the first rule's long window.
    pub bad_ratio: f64,
    /// Short-window burn rate of the first rule.
    pub burn_short: f64,
    /// Long-window burn rate of the first rule.
    pub burn_long: f64,
    /// Error budget left in the longest configured window, in `0..=1`.
    pub budget_remaining: f64,
}

/// Evaluates a set of [`SloSpec`]s against the tsdb each tick, running
/// the per-SLO alert state machine and retaining transitions in a
/// bounded ring.
#[derive(Debug)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    /// The last tick evaluated, and one evaluation per spec, in spec
    /// order, updated in place each tick.
    slos: Mutex<(Option<u64>, Vec<Slo>)>,
    history_capacity: usize,
    history_seq: AtomicU64,
    history: Mutex<VecDeque<AlertEvent>>,
}

/// Series selected by name prefix and label filter, as the tsdb reads.
#[derive(Debug)]
struct Selector {
    name: String,
    filter: String,
}

/// What a spec's bad ratio is read from, derived once from its kind.
#[derive(Debug)]
enum Source {
    /// `num / total` over each window's sums, or `1 − num / total` when
    /// `num` counts good events; an empty window is a ratio of 0.
    Ratio { num: Selector, total: Selector, num_is_good: bool },
    /// A gauge level, read as the bad ratio of every window.
    Level(Selector),
}

/// One spec's evaluation state: its status, where it reads from, and
/// the per-window buffers each tick fills in place.
#[derive(Debug)]
struct Slo {
    status: SloStatus,
    source: Source,
    /// Window widths in ticks: `[long, short]` per rule, in rule order.
    widths: Vec<u64>,
    /// Per window: the bad ratio (the numerator sum until it is divided).
    bad: Vec<f64>,
    /// Per window: the denominator sum.
    total: Vec<f64>,
}

impl Slo {
    fn new(spec: &SloSpec) -> Slo {
        let selector = |name: &str, filter: &str| Selector {
            name: name.to_string(),
            filter: filter.to_string(),
        };
        let source = match &spec.kind {
            SloKind::ErrorRatio {
                bad_name,
                bad_filter,
                total_name,
                total_filter,
            } => Source::Ratio {
                num: selector(bad_name, bad_filter),
                total: selector(total_name, total_filter),
                num_is_good: false,
            },
            SloKind::LatencyThreshold { family, le } => Source::Ratio {
                num: selector(&format!("{family}_bucket"), &format!("le=\"{le}\"")),
                total: selector(&format!("{family}_count"), ""),
                num_is_good: true,
            },
            SloKind::GaugeLevel { name, filter } => Source::Level(selector(name, filter)),
        };
        let widths: Vec<u64> = spec.rules.iter().flat_map(|r| [r.long_ticks, r.short_ticks]).collect();
        Slo {
            status: SloStatus {
                name: spec.name.clone(),
                objective: spec.objective,
                state: AlertState::Ok,
                since_tick: 0,
                bad_ratio: 0.0,
                burn_short: 0.0,
                burn_long: 0.0,
                budget_remaining: 1.0,
            },
            source,
            bad: vec![0.0; widths.len()],
            total: vec![0.0; widths.len()],
            widths,
        }
    }

    /// Fills `bad` with the bad ratio of each window `(tick − width, tick]`:
    /// one tsdb call per selector covers every window.
    fn measure(&mut self, tick: u64, tsdb: &Tsdb) {
        match &self.source {
            Source::Ratio { num, total, num_is_good } => {
                tsdb.window_sums(&total.name, &total.filter, tick, &self.widths, &mut self.total);
                tsdb.window_sums(&num.name, &num.filter, tick, &self.widths, &mut self.bad);
                for (bad, &total) in self.bad.iter_mut().zip(&self.total) {
                    *bad = if total <= 0.0 {
                        0.0
                    } else if *num_is_good {
                        (1.0 - *bad / total).clamp(0.0, 1.0)
                    } else {
                        (*bad / total).clamp(0.0, 1.0)
                    };
                }
            }
            Source::Level(gauge) => {
                let level = tsdb.latest(&gauge.name, &gauge.filter).unwrap_or(0.0);
                self.bad.fill(level.clamp(0.0, 1.0));
            }
        }
    }
}

impl SloEngine {
    /// An engine over `specs`, retaining at most `history_capacity`
    /// transitions (minimum 1).
    pub fn new(specs: Vec<SloSpec>, history_capacity: usize) -> SloEngine {
        SloEngine {
            slos: Mutex::new((None, specs.iter().map(Slo::new).collect())),
            specs,
            history_capacity: history_capacity.max(1),
            history_seq: AtomicU64::new(0),
            history: Mutex::new(VecDeque::new()),
        }
    }

    /// Evaluates every spec at `tick` and advances the state machines.
    /// Called by the self-scraper right after [`Tsdb::ingest`]; like it,
    /// refuses a `tick` at or below the last one, so states never step back.
    pub fn evaluate(&self, tick: u64, tsdb: &Tsdb) {
        let mut slos = self.slos.lock().unwrap_or_else(PoisonError::into_inner);
        let (last, slos) = &mut *slos;
        if last.is_some_and(|last| tick <= last) {
            return;
        }
        *last = Some(tick);
        for (spec, slo) in self.specs.iter().zip(slos.iter_mut()) {
            slo.measure(tick, tsdb);
            let budget = (1.0 - spec.objective).max(f64::MIN_POSITIVE);
            let mut breached = false;
            let mut first: Option<(f64, f64, f64)> = None; // (bad_long, burn_short, burn_long)
            let mut longest: (u64, f64) = (0, 0.0); // (window, bad ratio)
            for (rule, bad) in spec.rules.iter().zip(slo.bad.chunks_exact(2)) {
                let (bad_long, bad_short) = (bad[0], bad[1]);
                let burn_long = bad_long / budget;
                let burn_short = bad_short / budget;
                if burn_long >= rule.factor && burn_short >= rule.factor {
                    breached = true;
                }
                if first.is_none() {
                    first = Some((bad_long, burn_short, burn_long));
                }
                if rule.long_ticks >= longest.0 {
                    longest = (rule.long_ticks, bad_long);
                }
            }
            let status = &mut slo.status;
            (status.bad_ratio, status.burn_short, status.burn_long) =
                first.unwrap_or((0.0, 0.0, 0.0));
            status.budget_remaining = (1.0 - longest.1 / budget).clamp(0.0, 1.0);
            let next = next_state(status.state, breached, tick, status.since_tick, spec.pending_ticks);
            if next != status.state {
                let trace_id = spec
                    .exemplar_family
                    .as_deref()
                    .and_then(|family| tsdb.exemplar(family));
                self.push_event(AlertEvent {
                    seq: 0, // assigned in push_event
                    timestamp_ms: now_ms(),
                    tick,
                    slo: spec.name.clone(),
                    from: status.state,
                    to: next,
                    burn_short: status.burn_short,
                    burn_long: status.burn_long,
                    trace_id,
                });
                status.state = next;
                status.since_tick = tick;
            }
        }
    }

    fn push_event(&self, mut event: AlertEvent) {
        event.seq = self.history_seq.fetch_add(1, Ordering::Relaxed);
        let mut history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        if history.len() >= self.history_capacity {
            history.pop_front();
        }
        history.push_back(event);
    }

    /// Current status of every SLO (specs not yet evaluated report `Ok`
    /// with zeroed ratios).
    pub fn statuses(&self) -> Vec<SloStatus> {
        let slos = self.slos.lock().unwrap_or_else(PoisonError::into_inner);
        slos.1.iter().map(|slo| slo.status.clone()).collect()
    }

    /// Whether any SLO is currently `Firing` (healthz's degraded bit).
    pub fn any_firing(&self) -> bool {
        let slos = self.slos.lock().unwrap_or_else(PoisonError::into_inner);
        slos.1.iter().any(|slo| slo.status.state == AlertState::Firing)
    }

    /// Transitions appended so far (including evicted ones).
    pub fn history_total(&self) -> u64 {
        self.history_seq.load(Ordering::Relaxed)
    }

    /// The most recent `n` transitions, oldest first.
    pub fn history_tail(&self, n: usize) -> Vec<AlertEvent> {
        let history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        let skip = history.len().saturating_sub(n);
        history.iter().skip(skip).cloned().collect()
    }
}

/// The state machine. Breaches must persist `pending_ticks` evaluations
/// to fire; recovery from `Firing` passes through `Resolved`.
fn next_state(
    state: AlertState,
    breached: bool,
    tick: u64,
    since_tick: u64,
    pending_ticks: u64,
) -> AlertState {
    match (state, breached) {
        (AlertState::Ok, true) => AlertState::Pending,
        (AlertState::Ok, false) => AlertState::Ok,
        (AlertState::Pending, true) => {
            if tick.saturating_sub(since_tick) >= pending_ticks {
                AlertState::Firing
            } else {
                AlertState::Pending
            }
        }
        (AlertState::Pending, false) => AlertState::Ok,
        (AlertState::Firing, true) => AlertState::Firing,
        (AlertState::Firing, false) => AlertState::Resolved,
        (AlertState::Resolved, true) => AlertState::Pending,
        (AlertState::Resolved, false) => AlertState::Ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Sample, SampleValue};
    use crate::tsdb::tests::reference_sum;
    use crate::tsdb::TsdbConfig;

    fn availability_spec(pending: u64) -> SloSpec {
        SloSpec {
            name: "availability".to_string(),
            objective: 0.9,
            kind: SloKind::ErrorRatio {
                bad_name: "req_total".to_string(),
                bad_filter: "class=\"5xx\"".to_string(),
                total_name: "req_total".to_string(),
                total_filter: String::new(),
            },
            rules: vec![BurnRule {
                long_ticks: 8,
                short_ticks: 2,
                factor: 1.0,
            }],
            pending_ticks: pending,
            exemplar_family: Some("lat_seconds".to_string()),
        }
    }

    fn req(class: &str, v: u64) -> Sample {
        Sample {
            name: "req_total".into(),
            labels: format!("class=\"{class}\"").into(),
            value: SampleValue::Counter(v),
        }
    }

    /// Drives `tick`s of traffic: `ok`/`bad` are cumulative counters.
    fn drive(db: &Tsdb, engine: &SloEngine, tick: u64, ok: u64, bad: u64) {
        db.ingest(tick, &[req("2xx", ok), req("5xx", bad)]);
        engine.evaluate(tick, db);
    }

    #[test]
    fn availability_lifecycle_ok_pending_firing_resolved() {
        let db = Tsdb::new(TsdbConfig::default());
        let engine = SloEngine::new(vec![availability_spec(2)], 64);
        // Healthy traffic: 10 good per tick, no errors.
        let mut ok = 0;
        for t in 0..4 {
            ok += 10;
            drive(&db, &engine, t, ok, 0);
        }
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);
        assert!(!engine.any_firing());
        // Outage: everything 5xx. Budget is 0.1, so burn hits 10×.
        let mut bad = 0;
        for t in 4..6 {
            bad += 10;
            drive(&db, &engine, t, ok, bad);
        }
        assert_eq!(engine.statuses()[0].state, AlertState::Pending);
        for t in 6..8 {
            bad += 10;
            drive(&db, &engine, t, ok, bad);
        }
        assert_eq!(engine.statuses()[0].state, AlertState::Firing);
        assert!(engine.any_firing());
        let firing = engine.statuses()[0].clone();
        assert!(firing.burn_short >= 1.0, "{firing:?}");
        assert!(firing.bad_ratio > 0.3, "{firing:?}");
        assert!(firing.budget_remaining < 1.0, "{firing:?}");
        // Recovery: good traffic only. The short window clears first;
        // once both clear the state passes through Resolved to Ok.
        let mut state = AlertState::Firing;
        for t in 8..32 {
            ok += 50;
            drive(&db, &engine, t, ok, bad);
            state = engine.statuses()[0].state;
            if state != AlertState::Firing {
                break;
            }
        }
        assert_eq!(state, AlertState::Resolved);
        assert!(!engine.any_firing());
        let t_next = engine.statuses()[0].since_tick + 1;
        ok += 50;
        drive(&db, &engine, t_next, ok, bad);
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);
        // History holds the full lifecycle in order.
        let transitions: Vec<(AlertState, AlertState)> =
            engine.history_tail(10).iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(
            transitions,
            vec![
                (AlertState::Ok, AlertState::Pending),
                (AlertState::Pending, AlertState::Firing),
                (AlertState::Firing, AlertState::Resolved),
                (AlertState::Resolved, AlertState::Ok),
            ]
        );
        // Sequence numbers are gap-free.
        let seqs: Vec<u64> = engine.history_tail(10).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(engine.history_total(), 4);
    }

    #[test]
    fn short_window_guard_prevents_paging_on_stale_breaches() {
        // A burst of errors deep in the long window must not fire once
        // the short window is clean again: both halves must breach.
        let db = Tsdb::new(TsdbConfig::default());
        let engine = SloEngine::new(vec![availability_spec(0)], 16);
        drive(&db, &engine, 0, 10, 10); // 50% errors at tick 0
        // Clean traffic for the rest of the long window.
        let mut ok = 10;
        for t in 1..6 {
            ok += 30;
            drive(&db, &engine, t, ok, 10);
        }
        let status = &engine.statuses()[0];
        assert_ne!(status.state, AlertState::Firing, "{status:?}");
        assert!(status.burn_short < 1.0, "{status:?}");
    }

    #[test]
    fn latency_threshold_reads_bucket_fanout() {
        let db = Tsdb::new(TsdbConfig::default());
        let spec = SloSpec {
            name: "latency".to_string(),
            objective: 0.5, // half the requests must be ≤ le
            kind: SloKind::LatencyThreshold {
                family: "lat_seconds".to_string(),
                le: "0.25".to_string(),
            },
            rules: vec![BurnRule {
                long_ticks: 4,
                short_ticks: 1,
                factor: 1.0,
            }],
            pending_ticks: 0,
            exemplar_family: Some("lat_seconds".to_string()),
        };
        let engine = SloEngine::new(vec![spec], 16);
        let hist = |fast: u64, slow: u64| Sample {
            name: "lat_seconds".into(),
            labels: "".into(),
            value: SampleValue::Histogram {
                bounds: vec![0.25].into(),
                counts: vec![fast, slow],
                sum: 0.0,
                exemplar_trace: Some(0xfeed),
            },
        };
        // Tick 0: all fast. Tick 1: 9 of 10 new samples slow.
        db.ingest(0, &[hist(10, 0)]);
        engine.evaluate(0, &db);
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);
        db.ingest(1, &[hist(11, 9)]);
        engine.evaluate(1, &db);
        let status = engine.statuses()[0].clone();
        assert_eq!(status.state, AlertState::Pending);
        assert!((status.burn_short - 1.8).abs() < 1e-9, "{status:?}");
        engine.evaluate(2, &db);
        // The transition event carries the family's exemplar trace.
        let events = engine.history_tail(4);
        assert!(!events.is_empty());
        assert_eq!(events[0].trace_id, Some(0xfeed));
    }

    #[test]
    fn gauge_level_reads_the_latest_value() {
        let db = Tsdb::new(TsdbConfig::default());
        let spec = SloSpec {
            name: "privacy-headroom".to_string(),
            objective: 0.95, // at most 5% of subjects near the cap
            kind: SloKind::GaugeLevel {
                name: "near_cap_ratio".to_string(),
                filter: String::new(),
            },
            rules: vec![BurnRule {
                long_ticks: 4,
                short_ticks: 1,
                factor: 1.0,
            }],
            pending_ticks: 0,
            exemplar_family: None,
        };
        let engine = SloEngine::new(vec![spec], 16);
        let level = |v: f64| Sample {
            name: "near_cap_ratio".into(),
            labels: "".into(),
            value: SampleValue::Gauge(v),
        };
        db.ingest(0, &[level(0.01)]);
        engine.evaluate(0, &db);
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);
        db.ingest(1, &[level(0.2)]); // 20% near cap: 4× the budget
        engine.evaluate(1, &db);
        let status = engine.statuses()[0].clone();
        assert_eq!(status.state, AlertState::Pending);
        assert!((status.bad_ratio - 0.2).abs() < 1e-9, "{status:?}");
        assert_eq!(engine.history_tail(1)[0].trace_id, None);
    }

    #[test]
    fn burn_rate_math_is_ratio_over_budget() {
        let db = Tsdb::new(TsdbConfig::default());
        let mut spec = availability_spec(0);
        spec.objective = 0.99; // budget 0.01
        let engine = SloEngine::new(vec![spec], 16);
        drive(&db, &engine, 1, 95, 5); // 5% errors
        let status = engine.statuses()[0].clone();
        assert!((status.bad_ratio - 0.05).abs() < 1e-9, "{status:?}");
        assert!((status.burn_long - 5.0).abs() < 1e-9, "{status:?}");
    }

    #[test]
    fn history_ring_is_bounded() {
        let db = Tsdb::new(TsdbConfig::default());
        let engine = SloEngine::new(vec![availability_spec(0)], 4);
        // Flap between all-bad and all-good to generate transitions.
        let (mut ok, mut bad) = (0u64, 0u64);
        for round in 0..20u64 {
            let t = round * 20;
            if round % 2 == 0 {
                bad += 1000;
            } else {
                ok += 100_000;
            }
            drive(&db, &engine, t, ok, bad);
            drive(&db, &engine, t + 1, ok, bad);
        }
        assert!(engine.history_total() > 4);
        let tail = engine.history_tail(100);
        assert_eq!(tail.len(), 4, "ring never grows past capacity");
        // Eviction is detectable through the sequence gap.
        assert_eq!(tail[3].seq, engine.history_total() - 1);
        assert!(tail[0].seq > 0);
    }

    #[test]
    fn a_stale_tick_changes_no_status_and_records_no_transition() {
        let db = Tsdb::new(TsdbConfig::default());
        let engine = SloEngine::new(vec![availability_spec(2)], 16);
        let mut ok = 0;
        for t in 0..10 {
            ok += 10;
            drive(&db, &engine, t, ok, 0);
        }
        // An error burst at tick 10 breaches; tick 9 alone would not.
        drive(&db, &engine, 10, ok + 10, 100);
        let statuses = format!("{:?}", engine.statuses());
        assert_eq!(engine.statuses()[0].state, AlertState::Pending);
        assert_eq!(engine.history_total(), 1);
        engine.evaluate(9, &db);
        assert_eq!(format!("{:?}", engine.statuses()), statuses);
        assert_eq!(engine.history_total(), 1);
    }

    #[test]
    fn empty_windows_burn_nothing() {
        let db = Tsdb::new(TsdbConfig::default());
        let engine = SloEngine::new(vec![availability_spec(0)], 4);
        engine.evaluate(5, &db); // no data at all
        let status = engine.statuses()[0].clone();
        assert_eq!(status.state, AlertState::Ok);
        assert_eq!(status.bad_ratio, 0.0);
        assert_eq!(status.budget_remaining, 1.0);
    }

    /// A spec's `[bad_ratio, burn_short, burn_long, budget_remaining]`,
    /// computed window by window from the point-by-point reference sums.
    fn reference_status(spec: &SloSpec, db: &Tsdb, tick: u64) -> [f64; 4] {
        let bad = |window: u64| {
            let from = tick.saturating_sub(window);
            let ratio = |num: &str, num_filter: &str, total: &str, total_filter: &str| {
                let total = reference_sum(db, total, total_filter, from, tick);
                (total > 0.0).then(|| reference_sum(db, num, num_filter, from, tick) / total)
            };
            match &spec.kind {
                SloKind::ErrorRatio {
                    bad_name,
                    bad_filter,
                    total_name,
                    total_filter,
                } => ratio(bad_name, bad_filter, total_name, total_filter).map_or(0.0, |r| r.clamp(0.0, 1.0)),
                SloKind::LatencyThreshold { family, le } => ratio(
                    &format!("{family}_bucket"),
                    &format!("le=\"{le}\""),
                    &format!("{family}_count"),
                    "",
                )
                .map_or(0.0, |r| (1.0 - r).clamp(0.0, 1.0)),
                SloKind::GaugeLevel { name, filter } => db.latest(name, filter).unwrap_or(0.0).clamp(0.0, 1.0),
            }
        };
        let budget = (1.0 - spec.objective).max(f64::MIN_POSITIVE);
        let first = spec.rules[0];
        let longest = spec.rules.iter().max_by_key(|r| r.long_ticks).expect("a rule");
        [
            bad(first.long_ticks),
            bad(first.short_ticks) / budget,
            bad(first.long_ticks) / budget,
            (1.0 - bad(longest.long_ticks) / budget).clamp(0.0, 1.0),
        ]
    }

    #[test]
    fn statuses_equal_a_point_by_point_reference() {
        let db = Tsdb::new(TsdbConfig {
            samples_per_series: 16,
            max_series: 64,
        });
        // Six windows: shorter than, equal to and longer than the
        // 16-point ring.
        let rules = vec![
            BurnRule { long_ticks: 8, short_ticks: 2, factor: 1.0 },
            BurnRule { long_ticks: 40, short_ticks: 16, factor: 2.0 },
            BurnRule { long_ticks: 40, short_ticks: 1, factor: 0.5 },
        ];
        let spec = |name: &str, objective: f64, kind: SloKind| SloSpec {
            name: name.to_string(),
            objective,
            kind,
            rules: rules.clone(),
            pending_ticks: 2,
            exemplar_family: None,
        };
        let specs = vec![
            // Gauge series as ratio terms, so that their non-integer
            // values would show any change in summation order.
            spec(
                "ratio",
                0.9,
                SloKind::ErrorRatio {
                    bad_name: "err".to_string(),
                    bad_filter: "class=\"5xx\"".to_string(),
                    total_name: "err".to_string(),
                    total_filter: String::new(),
                },
            ),
            spec(
                "latency",
                0.7,
                SloKind::LatencyThreshold {
                    family: "lat_seconds".to_string(),
                    le: "0.25".to_string(),
                },
            ),
            spec(
                "level",
                0.95,
                SloKind::GaugeLevel {
                    name: "level".to_string(),
                    filter: String::new(),
                },
            ),
        ];
        let engine = SloEngine::new(specs.clone(), 16);
        let gauge = |name: &str, labels: &str, v: f64| Sample {
            name: name.into(),
            labels: labels.into(),
            value: SampleValue::Gauge(v),
        };
        let (mut fast, mut slow) = (0, 0);
        for tick in 0..48u64 {
            fast += tick % 5 + 1;
            slow += tick % 3;
            let x = tick as f64;
            db.ingest(
                tick,
                &[
                    gauge("err", "class=\"2xx\"", 10.3 + x * 0.7),
                    gauge("err", "class=\"5xx\"", (tick % 7) as f64 * 0.37),
                    Sample {
                        name: "lat_seconds".into(),
                        labels: "".into(),
                        value: SampleValue::Histogram {
                            bounds: vec![0.25].into(),
                            counts: vec![fast, slow],
                            sum: x * 0.11,
                            exemplar_trace: None,
                        },
                    },
                    gauge("level", "", (tick % 4) as f64 * 0.03),
                ],
            );
            engine.evaluate(tick, &db);
            for (spec, status) in specs.iter().zip(engine.statuses()) {
                let got = [status.bad_ratio, status.burn_short, status.burn_long, status.budget_remaining];
                let want = reference_status(spec, &db, tick);
                assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{} at {tick}: {got:?} vs {want:?}", spec.name);
            }
        }
        assert!(engine.history_total() > 0, "the run crosses a threshold");
    }

    #[test]
    fn states_have_stable_wire_names() {
        assert_eq!(AlertState::Ok.as_str(), "ok");
        assert_eq!(AlertState::Pending.as_str(), "pending");
        assert_eq!(AlertState::Firing.as_str(), "firing");
        assert_eq!(AlertState::Resolved.as_str(), "resolved");
    }
}
