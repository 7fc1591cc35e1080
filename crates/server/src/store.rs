//! In-memory application state behind `std::sync` locks, with a
//! WAL-first write pipeline. Every acquisition recovers a poisoned lock
//! with `PoisonError::into_inner`, so a panic in one request does not take
//! the shared maps offline for every other user.
//!
//! # Durability contract (journal-then-apply)
//!
//! When a journal is attached, every accepted write follows one ordering:
//!
//! 1. validate (stateless checks, no locks);
//! 2. enter the **commit critical section** (per-user for submissions,
//!    the publish lock for surveys) and run the stateful checks —
//!    duplicate index, ε-budget;
//! 3. journal the record through the group committer and **block until
//!    it is fsync-durable**; a durability failure aborts the write with
//!    [`SubmitError::Durability`] and no state change;
//! 4. apply to memory (store + accountant charge);
//! 5. ack the caller.
//!
//! A crash can therefore lose un-acked work but never an acked write:
//! everything acked is on disk, and replay re-applies it. The ε-budget
//! check and the accountant charge both happen inside the same per-user
//! critical section, so two racing submits from one user can never both
//! pass the cap (the check/charge TOCTOU this module used to have).
//!
//! # Sharding
//!
//! [`AppState`] is the store facade over `N` internal [`Shard`]s
//! (default [`DEFAULT_SHARDS`]): survey-keyed state routes by
//! `splitmix64(survey_id) % N`, user-keyed state (commit locks, audit
//! indices; ε-ledgers inside the accountant use their own router) by
//! `fnv1a64(user) % N`. Both hashes are process-independent, so routing
//! is stable across restart and replay. Each shard owns one survey map
//! (each entry: the definition, its stored submissions, duplicate-user
//! index and streaming aggregate), per-user commit locks, publish lock,
//! and WAL group-commit lane — writes to unrelated surveys never
//! contend, and fsync batches form per shard, each on its own lane file
//! ([`AppState::attach_journal_lanes`]). Everything above this
//! module (`app`, `wal`'s replay, `scrape`, the bins) talks only to the
//! facade; read APIs like [`AppState::surveys`] merge shards in id
//! order, so every merged view and replay stays deterministic for any
//! shard count.

use loki_core::estimator::BinStats;
use loki_core::privacy_level::PrivacyLevel;
use loki_dp::accountant::{Accountant, InvalidRelease, ReleaseKind};
use loki_survey::question::{Answer, QuestionKind};
use loki_survey::response::Response;
use loki_survey::survey::{Survey, SurveyId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// A stored submission: at what level, and the uploaded response. Its
/// `response.worker` is the submitting user: submit refuses any other.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSubmission {
    /// Chosen privacy level.
    pub level: PrivacyLevel,
    /// The uploaded (obfuscated) response.
    pub response: Response,
}

/// One published survey, created at publish: the definition (shared, so
/// reads and submit validation hand out the stored copy), the stored
/// submissions, the per-survey user index that makes the duplicate check
/// O(1) instead of a linear scan of the list, and the streaming
/// aggregate every per-survey read is answered from. `users` always
/// contains exactly the users of `list`, and `agg` has folded exactly
/// the submissions of `list`, in list order.
#[derive(Debug)]
struct SurveyEntry {
    survey: Arc<Survey>,
    list: Vec<StoredSubmission>,
    users: HashSet<String>,
    agg: crate::agg::SurveyAgg,
}

impl SurveyEntry {
    fn new(survey: Arc<Survey>) -> SurveyEntry {
        SurveyEntry {
            agg: crate::agg::SurveyAgg::for_survey(&survey),
            survey,
            list: Vec::new(),
            users: HashSet::new(),
        }
    }
}

/// Why a per-survey read has nothing to return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMiss {
    /// No survey with that id has been published.
    UnknownSurvey,
    /// The survey exists, but no stored answer feeds this read (or the
    /// question does not take this kind of answer).
    NoResponses,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// No such survey.
    UnknownSurvey,
    /// The response failed survey validation.
    Invalid(String),
    /// A raw (non-obfuscated) answer was found on an obfuscatable
    /// question — the at-source contract forbids the server from ever
    /// storing it.
    RawAnswer {
        /// The offending question.
        question: u32,
    },
    /// The response's worker field does not match the submitting user.
    UserMismatch,
    /// A declared release carries parameters no mechanism can have.
    InvalidRelease(InvalidRelease),
    /// This user already submitted to this survey.
    Duplicate,
    /// The user's cumulative privacy loss is at or over the server's cap.
    BudgetExhausted {
        /// Current cumulative ε (`None` = unbounded).
        current: Option<f64>,
        /// The configured cap.
        budget: f64,
    },
    /// The write could not be made durable (journal append/fsync failed);
    /// nothing was applied. Retryable once the disk recovers and the
    /// journal is re-attached.
    Durability(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownSurvey => write!(f, "unknown survey"),
            SubmitError::Invalid(e) => write!(f, "invalid response: {e}"),
            SubmitError::RawAnswer { question } => write!(
                f,
                "question q{question}: raw answer refused — obfuscate at source"
            ),
            SubmitError::UserMismatch => write!(f, "response worker does not match user"),
            SubmitError::InvalidRelease(e) => write!(f, "{e}"),
            SubmitError::Duplicate => write!(f, "user already submitted to this survey"),
            SubmitError::BudgetExhausted { current, budget } => match current {
                Some(c) => write!(f, "privacy budget exhausted: ε = {c:.3} of {budget:.3}"),
                None => write!(f, "privacy budget exhausted: unbounded loss recorded"),
            },
            SubmitError::Durability(e) => write!(f, "write not durable: {e}"),
        }
    }
}

/// Where in the commit sequence a fault-injection hook fires. Test-only
/// machinery, but always compiled: the production cost is one `Option`
/// check per write, same as the metrics hooks.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// The record is fsync-durable but not yet applied to memory.
    AfterDurableBeforeApply,
    /// Applied to memory; the caller has not yet been acked.
    AfterApplyBeforeAck,
}

/// A fault-injection hook; panicking inside it simulates a crash at that
/// point (run the write on a scratch thread and join it).
#[doc(hidden)]
pub type CrashHook = Arc<dyn Fn(CrashPoint) + Send + Sync>;

/// Wrapper so [`AppState`] can keep `derive(Debug)` despite holding a
/// closure.
#[derive(Default)]
struct CrashHooks(RwLock<Option<CrashHook>>);

impl std::fmt::Debug for CrashHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CrashHooks")
            .field(
                &self
                    .0
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_some(),
            )
            .finish()
    }
}

/// Rejected ε-cap configuration: the budget must be strictly positive
/// (a zero/negative/NaN cap would refuse every submission while looking
/// like a working configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidBudget(pub f64);

impl std::fmt::Display for InvalidBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "epsilon budget must be positive, got {}", self.0)
    }
}

impl std::error::Error for InvalidBudget {}

/// Stable lowercase name of a privacy level for audit events (audit
/// fields are `'static` so nothing request-derived can leak into them).
fn level_name(level: PrivacyLevel) -> &'static str {
    match level {
        PrivacyLevel::None => "none",
        PrivacyLevel::Low => "low",
        PrivacyLevel::Medium => "medium",
        PrivacyLevel::High => "high",
    }
}

/// Soft cap on the per-user commit-lock maps, summed across shards:
/// each shard sweeps idle entries when its own map reaches
/// `threshold / num_shards` (see [`AppState::user_commit_lock`]), so
/// the whole-store bound is unchanged by sharding.
const USER_LOCKS_GC_THRESHOLD: usize = 1024;

/// Default shard count for [`AppState::new`]. Eight matches the
/// submitter-thread count the SHARD-1 bench drives and is enough that
/// unrelated-survey contention effectively disappears; use
/// [`AppState::with_shards`] to pick another value.
pub const DEFAULT_SHARDS: usize = 8;

/// splitmix64 finalizer: full-avalanche mix of the survey id so
/// consecutive ids (1, 2, 3, …) spread across shards instead of
/// clustering. Deterministic across processes — shard routing must
/// survive restart/replay, which rules out `RandomState` hashing.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a 64 of a user id — same cross-process stability argument as
/// [`splitmix64`].
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Shard index of a survey id in an `n`-shard store.
pub(crate) fn survey_shard_of(id: SurveyId, n: usize) -> usize {
    (splitmix64(id.0) % n.max(1) as u64) as usize
}

/// Shard index of a user id in an `n`-shard store.
pub(crate) fn user_shard_of(user: &str, n: usize) -> usize {
    (fnv1a64(user) % n.max(1) as u64) as usize
}

/// One store shard: the survey map, per-user commit locks, audit
/// indices, and WAL group-commit lane for the slice of surveys (and
/// users) that route here.
///
/// Field names deliberately match the pre-shard `AppState` fields: the
/// `lock-order` lint keys its acquired-while-held graph on the field
/// ident, so the order it declares carries over as a *per-shard* order
/// without renames.
#[derive(Debug, Default)]
struct Shard {
    /// One entry per survey published here: definition, stored list,
    /// user index and streaming aggregate, all updated in one critical
    /// section.
    surveys: RwLock<BTreeMap<SurveyId, SurveyEntry>>,
    /// Serializes survey publication on this shard (commit critical
    /// section for `add_survey`): exists-check → journal → apply must
    /// be atomic against another publish of the same id — and equal ids
    /// always route to the same shard, so a shard-local lock suffices.
    publish_lock: Mutex<()>,
    /// This shard's WAL group-commit lane: its own file and committer
    /// thread ([`AppState::attach_journal_lanes`]), so fsync batches form
    /// per shard.
    journal: RwLock<Option<crate::wal::GroupCommitter>>,
    /// Per-user commit locks for users routed here (see
    /// [`AppState::user_commit_lock`]).
    user_locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    /// Opaque audit indices for users routed here; values come off the
    /// store-wide `next_subject` counter so indices stay globally
    /// unique and insertion-ordered.
    user_indices: Mutex<HashMap<String, u64>>,
    /// Submissions stored on this shard, for the O(shards) platform
    /// total (`/v1/stats` without a submission-map walk).
    stored_total: std::sync::atomic::AtomicU64,
}

/// Point-in-time occupancy of one shard, for `GET /v1/admin/shards`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Surveys stored on this shard.
    pub surveys: usize,
    /// Submissions stored on this shard (summed over its surveys).
    pub submissions: usize,
    /// ε-ledger users whose ids route to this shard.
    pub ledger_users: usize,
    /// Live per-user commit-lock entries.
    pub user_locks_len: usize,
    /// Whether a WAL lane is attached.
    pub wal_attached: bool,
    /// Writes enqueued on the lane but not yet fsync-durable.
    pub wal_depth: usize,
    /// Poison reason, if an I/O failure has killed the lane.
    pub wal_poisoned: Option<String>,
}

/// The server's whole mutable state: the store facade over the shards.
///
/// # Canonical lock order
///
/// Every path that holds more than one lock acquires them in this
/// order (earlier may be held while taking later, never the reverse).
/// The first six live **per shard** — and no path ever holds one
/// shard's lock while taking the same-ranked lock of another shard —
/// the last three are process-global (the observatory's `sketches`
/// entries are subject-routed like the per-user commit locks: one entry
/// per call, never two at once):
///
/// 1. `publish_lock` (per shard)
/// 2. `user_locks` (per shard; the map mutex)
/// 3. `user_commit_lock` (a per-user entry *from* that map)
/// 4. `surveys` (per shard; one entry per survey: definition, stored
///    list, user index and streaming aggregate with its disclosure count)
/// 5. `user_indices` (per shard)
/// 6. `journal` (per shard; the WAL lane)
/// 7. `sketches` (global; one subject-routed observatory entry)
/// 8. `epsilon_budget` (global)
/// 9. `crash_hooks` (global)
///
/// The order is machine-checked: the `lock-order` rule of `loki-lint`
/// declares the same sequence as its `ORDER` constant and rebuilds the
/// acquired-while-held graph from source on every CI run.
/// Deliberate exceptions would carry a `// lint:allow lock-order`
/// comment; there are currently none.
#[derive(Debug)]
pub struct AppState {
    /// The shards. Survey-keyed state routes by `splitmix64(id) % N`,
    /// user-keyed state by `fnv1a64(user) % N`; see the module docs.
    shards: Vec<Shard>,
    /// Requester tokens allowed to publish surveys. Empty = open server
    /// (useful for tests and local demos).
    requester_tokens: RwLock<HashSet<String>>,
    /// Optional cap on any user's cumulative ε; submissions from users at
    /// or over the cap are refused (the enforcement arm of §3.1's
    /// "tracked and balanced" loss).
    epsilon_budget: RwLock<Option<f64>>,
    /// Server-side mirror of cumulative privacy loss per user
    /// (internally sharded by its own user-id router).
    pub accountant: Accountant,
    /// The live privacy observatory: subject-routed anonymity sketches
    /// fed from the submit apply path (see [`crate::agg`]).
    observatory: crate::agg::PrivacyObservatory,
    /// Lazily enabled metrics. Until [`AppState::enable_metrics`] is
    /// called every instrumentation point is a cheap `None` check, so
    /// un-instrumented state (e.g. bench baselines) pays ~nothing.
    /// Inside an `Arc` so the journal's batch observer (which runs on
    /// the committer thread) can share it.
    metrics: Arc<std::sync::OnceLock<Arc<crate::metrics::ServerMetrics>>>,
    /// Fault-injection hook for the crash-point tests.
    crash_hooks: CrashHooks,
    /// The background self-scraper feeding the metrics history layer;
    /// dropped (signalled + joined) with the state.
    scraper: Mutex<Option<crate::scrape::SelfScraper>>,
    /// Feeds the per-shard `user_indices` maps: the opaque audit index
    /// of a new subject is drawn here so indices stay globally unique
    /// and insertion-ordered (0, 1, 2, …) across shards. The audit log
    /// (in `loki-obs`) never sees a raw user id, only this index.
    next_subject: std::sync::atomic::AtomicU64,
    /// Process start, for `/v1/healthz` uptime.
    started: std::time::Instant,
}

impl Default for AppState {
    fn default() -> AppState {
        AppState::with_shards(DEFAULT_SHARDS)
    }
}

impl AppState {
    /// Creates empty state with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> AppState {
        AppState::default()
    }

    /// Creates empty state with `n` shards (clamped to at least 1).
    /// `with_shards(1)` reproduces the pre-shard single-map store
    /// exactly — the merged-view equivalence tests rely on that.
    pub fn with_shards(n: usize) -> AppState {
        AppState {
            shards: (0..n.max(1)).map(|_| Shard::default()).collect(),
            requester_tokens: RwLock::default(),
            epsilon_budget: RwLock::default(),
            accountant: Accountant::default(),
            observatory: crate::agg::PrivacyObservatory::new(),
            metrics: Arc::default(),
            crash_hooks: CrashHooks::default(),
            scraper: Mutex::default(),
            next_subject: std::sync::atomic::AtomicU64::new(0),
            started: std::time::Instant::now(),
        }
    }

    /// Number of shards this store was built with.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index a survey id routes to (admin/test visibility).
    pub fn shard_of_survey(&self, id: SurveyId) -> usize {
        survey_shard_of(id, self.shards.len())
    }

    /// The shard index a user id routes to (admin/test visibility).
    pub fn shard_of_user(&self, user: &str) -> usize {
        user_shard_of(user, self.shards.len())
    }

    /// The one place shard indices become references. Both routing
    /// functions reduce `hash % shards.len()` and `with_shards` clamps
    /// the count to >= 1, so the index is in range by construction.
    #[allow(clippy::indexing_slicing)]
    fn shard_at(&self, idx: usize) -> &Shard {
        &self.shards[idx]
    }

    fn shard_for_survey(&self, id: SurveyId) -> &Shard {
        self.shard_at(self.shard_of_survey(id))
    }

    fn shard_for_user(&self, user: &str) -> &Shard {
        self.shard_at(self.shard_of_user(user))
    }

    /// Seconds since this state was created (server uptime for healthz).
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Journal health as `(attached, poisoned_reason)`, aggregated over
    /// the lanes: attached if any lane has a committer, poisoned with
    /// the first lane's reason if any lane has failed (every later
    /// write on that lane 503s until operator recovery).
    pub fn journal_health(&self) -> (bool, Option<String>) {
        let mut attached = false;
        let mut poisoned = None;
        for shard in &self.shards {
            let lane = shard.journal.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(committer) = lane.as_ref() {
                attached = true;
                if poisoned.is_none() {
                    poisoned = committer.poisoned();
                }
            }
        }
        (attached, poisoned)
    }

    /// The opaque audit index for `user`, assigned in insertion order on
    /// first use (globally, via `next_subject`). This is the only form
    /// in which a submission's subject ever reaches the observability
    /// layer.
    fn subject_index(&self, user: &str) -> u64 {
        let mut indices = self
            .shard_for_user(user)
            .user_indices
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(index) = indices.get(user) {
            return *index;
        }
        let next = self
            .next_subject
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        indices.insert(user.to_string(), next);
        next
    }

    /// Registers a requester token; once any token exists, publishing
    /// requires one.
    pub fn add_requester_token(&self, token: impl Into<String>) {
        self.requester_tokens
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(token.into());
    }

    /// Whether a `POST /v1/surveys` bearing `token` (possibly absent) is
    /// allowed to publish.
    pub fn may_publish(&self, token: Option<&str>) -> bool {
        let tokens = self
            .requester_tokens
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        tokens.is_empty() || token.is_some_and(|t| tokens.contains(t))
    }

    /// Attaches one WAL lane **per shard**: every *subsequently* accepted
    /// survey publication and submission is made fsync-durable on its
    /// survey's lane **before** it is applied or acked. Each shard gets
    /// its own journal file under `dir` ([`crate::wal::lane_file_name`];
    /// `dir` is created if missing) and its own group-commit thread, so
    /// fsync batches form per shard and a slow lane never stalls the
    /// others. `max_batch: 1` degenerates to per-write fsync (the GC-1
    /// bench baseline). Restore with [`crate::wal::replay_lanes`] at
    /// startup, then attach the same directory for new writes.
    ///
    /// All or nothing: every lane file is opened before any committer is
    /// installed. A failed open returns the error with no new lane
    /// attached, rather than leaving some shards journaling while the
    /// others ack writes they never made durable.
    pub fn attach_journal_lanes(
        &self,
        dir: &std::path::Path,
        config: crate::wal::GroupCommitConfig,
    ) -> Result<(), crate::wal::WalError> {
        std::fs::create_dir_all(dir)?;
        let wals = (0..self.shards.len())
            .map(|lane| crate::wal::Wal::open(&dir.join(crate::wal::lane_file_name(lane))))
            .collect::<Result<Vec<_>, _>>()?;
        // A lane's `sync_data` covers its bytes, not its directory entry:
        // sync the directory so freshly created lanes survive a crash.
        std::fs::File::open(dir)?.sync_all()?;
        for (lane, (shard, wal)) in self.shards.iter().zip(wals).enumerate() {
            let metrics = Arc::clone(&self.metrics);
            let observer: crate::wal::BatchObserver = Arc::new(move |event| {
                if let Some(m) = metrics.get() {
                    m.on_wal_batch(event, lane);
                }
            });
            let committer = crate::wal::GroupCommitter::spawn(wal, config, Some(observer));
            *shard
                .journal
                .write()
                .unwrap_or_else(PoisonError::into_inner) = Some(committer);
        }
        Ok(())
    }

    /// Detaches every journal lane, joining each committer thread so
    /// every in-flight commit resolves first.
    pub fn detach_journal(&self) {
        for shard in &self.shards {
            *shard
                .journal
                .write()
                .unwrap_or_else(PoisonError::into_inner) = None;
        }
    }

    /// Enables metrics (idempotent) and returns the shared instance. The
    /// store's instrumentation points are no-ops until this is called.
    pub fn enable_metrics(&self) -> Arc<crate::metrics::ServerMetrics> {
        Arc::clone(
            self.metrics
                .get_or_init(|| Arc::new(crate::metrics::ServerMetrics::new())),
        )
    }

    /// Enables metrics with an explicitly constructed instance (custom
    /// trace or history config). First caller wins: if metrics are
    /// already enabled the existing instance is returned unchanged, so
    /// call this *before* [`crate::app::serve`]/`build_router`.
    pub fn enable_metrics_with(
        &self,
        metrics: Arc<crate::metrics::ServerMetrics>,
    ) -> Arc<crate::metrics::ServerMetrics> {
        Arc::clone(self.metrics.get_or_init(|| metrics))
    }

    /// One history-layer scrape: ledger-gauge refresh, privacy-gauge
    /// refresh from the observatory, registry snapshot into the tsdb,
    /// SLO evaluation. No-op until metrics are enabled.
    pub fn scrape_once(&self) {
        if let Some(m) = self.metrics.get() {
            m.scrape(
                &self.accountant,
                self.epsilon_budget(),
                &self.privacy_summary(),
            );
        }
    }

    /// Starts the background self-scraper at `interval` (idempotent:
    /// a scraper that is already running is left untouched, so tests can
    /// start a fast one before [`crate::app::serve`] installs the 1 s
    /// default). The scraper holds only a weak reference; it is signalled
    /// and joined when the state drops or on [`AppState::stop_self_scraper`].
    pub fn start_self_scraper(self: &Arc<Self>, interval: std::time::Duration) {
        let mut slot = self.scraper.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(crate::scrape::SelfScraper::spawn(self, interval));
        }
    }

    /// Stops and joins the background self-scraper, if one is running.
    pub fn stop_self_scraper(&self) {
        self.scraper
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
    }

    /// The metrics instance, if enabled.
    pub fn metrics(&self) -> Option<&Arc<crate::metrics::ServerMetrics>> {
        self.metrics.get()
    }

    /// Installs (or clears) the crash-point fault-injection hook.
    #[doc(hidden)]
    pub fn set_crash_hook(&self, hook: Option<CrashHook>) {
        *self
            .crash_hooks
            .0
            .write()
            .unwrap_or_else(PoisonError::into_inner) = hook;
    }

    fn crash_point(&self, point: CrashPoint) {
        if let Some(hook) = self
            .crash_hooks
            .0
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            hook(point);
        }
    }

    /// Caps every user's cumulative ε; `None` removes the cap. A
    /// non-positive (or NaN) cap is refused with [`InvalidBudget`] and
    /// leaves the existing configuration untouched.
    pub fn set_epsilon_budget(&self, budget: Option<f64>) -> Result<(), InvalidBudget> {
        if let Some(b) = budget {
            if b.is_nan() || b <= 0.0 {
                return Err(InvalidBudget(b));
            }
        }
        *self
            .epsilon_budget
            .write()
            .unwrap_or_else(PoisonError::into_inner) = budget;
        Ok(())
    }

    /// The configured cumulative-ε cap, if any.
    pub fn epsilon_budget(&self) -> Option<f64> {
        *self
            .epsilon_budget
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// This user's commit lock, created on first use in the user's
    /// shard.
    ///
    /// The maps would otherwise grow by one entry per distinct user id
    /// forever (an unauthenticated-request memory leak): before
    /// inserting a new entry into a shard map at its share of
    /// [`USER_LOCKS_GC_THRESHOLD`] or above, idle entries — `Arc`
    /// strong count 1, i.e. the map holds the only reference, so no
    /// commit is in flight — are dropped. A dropped user simply gets a
    /// fresh lock next time; the per-user atomicity only needs the lock
    /// to be unique *while referenced*, which the strong-count test
    /// guarantees. Live size summed over shards is therefore at most
    /// `threshold + concurrent in-flight commits`.
    fn user_commit_lock(&self, user: &str) -> Arc<Mutex<()>> {
        let shard_threshold = (USER_LOCKS_GC_THRESHOLD / self.shards.len()).max(1);
        let mut locks = self
            .shard_for_user(user)
            .user_locks
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(lock) = locks.get(user) {
            return Arc::clone(lock);
        }
        if locks.len() >= shard_threshold {
            locks.retain(|_, lock| Arc::strong_count(lock) > 1);
        }
        let lock = Arc::new(Mutex::new(()));
        locks.insert(user.to_string(), Arc::clone(&lock));
        lock
    }

    /// Number of per-user commit-lock entries currently held across all
    /// shards (ops/test visibility for the boundedness contract above).
    pub fn user_locks_len(&self) -> usize {
        let mut total = 0usize;
        for shard in &self.shards {
            total = total.saturating_add(
                shard
                    .user_locks
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len(),
            );
        }
        total
    }

    /// Journals a survey publication on its shard's lane (durable
    /// before return); no-op without an attached journal.
    fn journal_survey(&self, shard: &Shard, survey: &Survey) -> Result<(), SubmitError> {
        let journal = shard.journal.read().unwrap_or_else(PoisonError::into_inner);
        let Some(committer) = journal.as_ref() else {
            return Ok(());
        };
        committer
            .commit_survey(survey)
            .map_err(|e| SubmitError::Durability(e.to_string()))
    }

    /// Journals an accepted submission on its survey's lane (durable
    /// before return); no-op without an attached journal.
    fn journal_submission(
        &self,
        shard: &Shard,
        user: &str,
        level: PrivacyLevel,
        response: &Response,
        releases: &[(String, ReleaseKind)],
    ) -> Result<(), SubmitError> {
        let journal = shard.journal.read().unwrap_or_else(PoisonError::into_inner);
        let Some(committer) = journal.as_ref() else {
            return Ok(());
        };
        committer
            .commit_submission(user, level, response, releases)
            .map_err(|e| SubmitError::Durability(e.to_string()))
    }

    /// Publishes a survey, journal-first. Returns `Ok(false)` if the id
    /// already exists, `Err(Durability)` if the journal refused the write
    /// (in which case nothing was published).
    pub fn add_survey(&self, survey: Survey) -> Result<bool, SubmitError> {
        let shard = self.shard_for_survey(survey.id);
        let _publish = shard
            .publish_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if shard
            .surveys
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(&survey.id)
        {
            return Ok(false);
        }
        self.journal_survey(shard, &survey)?;
        self.crash_point(CrashPoint::AfterDurableBeforeApply);
        shard
            .surveys
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(survey.id, SurveyEntry::new(Arc::new(survey)));
        self.crash_point(CrashPoint::AfterApplyBeforeAck);
        Ok(true)
    }

    /// A survey by id: the stored definition itself, shared.
    pub fn survey(&self, id: SurveyId) -> Option<Arc<Survey>> {
        self.shard_for_survey(id)
            .surveys
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .map(|e| Arc::clone(&e.survey))
    }

    /// Number of published surveys, summed from the shard map lengths.
    pub fn survey_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.surveys
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len()
            })
            .sum()
    }

    /// All surveys, id-ordered: shards are merged and re-sorted, so the
    /// result is identical for any shard count (merged views and the
    /// listing depend on that).
    pub fn surveys(&self) -> Vec<Arc<Survey>> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(
                shard
                    .surveys
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values()
                    .map(|e| Arc::clone(&e.survey)),
            );
        }
        all.sort_by_key(|s| s.id);
        all
    }

    /// One id-ordered page of surveys strictly after `after`, plus
    /// whether more remain. Each shard contributes at most `limit + 1`
    /// candidates from its id-ordered map, so the cost is
    /// O(shards × limit), not O(total surveys).
    pub fn surveys_page(
        &self,
        after: Option<SurveyId>,
        limit: usize,
    ) -> (Vec<Arc<Survey>>, bool) {
        use std::ops::Bound;
        let lower = match after {
            Some(id) => Bound::Excluded(id),
            None => Bound::Unbounded,
        };
        let mut merged = Vec::new();
        for shard in &self.shards {
            let guard = shard.surveys.read().unwrap_or_else(PoisonError::into_inner);
            merged.extend(
                guard
                    .range((lower, Bound::Unbounded))
                    .take(limit.saturating_add(1))
                    .map(|(_, e)| Arc::clone(&e.survey)),
            );
        }
        merged.sort_by_key(|s| s.id);
        let has_more = merged.len() > limit;
        merged.truncate(limit);
        (merged, has_more)
    }

    /// Point-in-time occupancy of every shard, for the admin surface.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let n = self.shards.len();
        let ledger_users = self.accountant.count_users_by(n, |user| user_shard_of(user, n));
        // Each lock below is taken inside its own block so no two shard
        // locks are ever held together: stats reads are point-in-time
        // per lock, never a consistent cross-lock snapshot.
        let mut out = Vec::with_capacity(n);
        for (i, shard) in self.shards.iter().enumerate() {
            let (survey_count, submission_count) = {
                let guard = shard.surveys.read().unwrap_or_else(PoisonError::into_inner);
                (guard.len(), guard.values().map(|e| e.list.len()).sum())
            };
            let user_locks_len = {
                let guard = shard
                    .user_locks
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                guard.len()
            };
            let (wal_attached, wal_depth, wal_poisoned) = {
                let guard = shard.journal.read().unwrap_or_else(PoisonError::into_inner);
                match guard.as_ref() {
                    Some(c) => (true, c.depth(), c.poisoned()),
                    None => (false, 0, None),
                }
            };
            out.push(ShardStats {
                shard: i,
                surveys: survey_count,
                submissions: submission_count,
                ledger_users: ledger_users.get(i).copied().unwrap_or(0),
                user_locks_len,
                wal_attached,
                wal_depth,
                wal_poisoned,
            });
        }
        out
    }

    /// Number of stored submissions for a survey.
    pub fn submission_count(&self, id: SurveyId) -> usize {
        self.shard_for_survey(id)
            .surveys
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .map_or(0, |s| s.list.len())
    }

    /// Calls `f` on every stored submission of a survey, in append
    /// order, under the read lock of its shard's survey map, without
    /// copying any.
    /// `f` must not call back into `AppState`: a second read of the same
    /// lock queues behind any waiting writer and deadlocks. A caller that
    /// needs owned copies clones inside `f`.
    pub fn for_each_submission(&self, id: SurveyId, mut f: impl FnMut(&StoredSubmission)) {
        let guard = self
            .shard_for_survey(id)
            .surveys
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = guard.get(&id) {
            entry.list.iter().for_each(&mut f);
        }
    }

    /// Whether `user` has already submitted to `survey` (O(1) via the
    /// per-survey user index).
    pub fn has_submitted(&self, survey: SurveyId, user: &str) -> bool {
        self.shard_for_survey(survey)
            .surveys
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&survey)
            .is_some_and(|s| s.users.contains(user))
    }

    /// Validates and stores a submission, recording the declared ledger
    /// entries. Returns the new submission count for the survey.
    ///
    /// Write ordering when a journal is attached: stateful checks →
    /// journal (blocking until fsync-durable) → apply → ack, all inside
    /// this user's commit critical section. See the module docs.
    pub fn submit(
        &self,
        user: &str,
        level: PrivacyLevel,
        response: Response,
        releases: &[(String, ReleaseKind)],
    ) -> Result<usize, SubmitError> {
        // Stateless validation first — no locks held.
        loki_obs::phase!("store.validate");
        if response.worker != user {
            return Err(SubmitError::UserMismatch);
        }
        // The ledger asserts on impossible release parameters, so they
        // are refused here, before any lock or journal write.
        for (_, kind) in releases {
            kind.check().map_err(SubmitError::InvalidRelease)?;
        }
        let survey = self
            .survey(response.survey)
            .ok_or(SubmitError::UnknownSurvey)?;
        response
            .validate(&survey)
            .map_err(|e| SubmitError::Invalid(e.to_string()))?;

        // At-source enforcement: obfuscatable questions must arrive as
        // Obfuscated (numeric kinds) or Choice (already RR-perturbed) —
        // never as raw Rating/Numeric values.
        for q in &survey.questions {
            let Some(answer) = response.get(q.id) else {
                // validate() guarantees completeness, but a panic here
                // would let one inconsistent payload kill a worker thread.
                return Err(SubmitError::Invalid(format!(
                    "missing answer for question {}",
                    q.id.0
                )));
            };
            let raw = matches!(
                (&q.kind, answer),
                (QuestionKind::Rating { .. }, Answer::Rating(_))
                    | (QuestionKind::Numeric { .. }, Answer::Numeric(_))
            );
            if raw {
                return Err(SubmitError::RawAnswer { question: q.id.0 });
            }
        }

        // Commit critical section: everything from the budget check to
        // the accountant charge holds this user's lock, so check+charge
        // is atomic per user and unrelated users proceed in parallel
        // (their concurrent journal commits form the fsync batches).
        loki_obs::phase!("store.lock");
        let user_lock = self.user_commit_lock(user);
        let _user_guard = user_lock.lock().unwrap_or_else(PoisonError::into_inner);

        if self.has_submitted(response.survey, user) {
            return Err(SubmitError::Duplicate);
        }

        // The user's stored loss is one read under the ledger's shard
        // lock. ε-audit bookkeeping (metrics enabled only) reports it as
        // the running total before the charge, with the marginal ε this
        // release set would add — probed on a copy of the ledger's totals
        // so the attempted and rejected-at-cap events can report it
        // without charging.
        let budget = self.epsilon_budget();
        let trace_ctx = loki_obs::trace::current();
        let trace_id = trace_ctx.as_ref().map(|c| c.trace_id());
        let loss = self.user_loss(user);
        let current = loss.is_finite().then(|| loss.epsilon.value());
        let audit = self.metrics.get().map(|m| {
            let after = self
                .accountant
                .loss_after(user, releases.iter().map(|(_, kind)| *kind));
            let running_before = current.unwrap_or(f64::INFINITY);
            let running_after = if after.is_finite() {
                after.epsilon.value()
            } else {
                f64::INFINITY
            };
            let charge = if running_before.is_finite() && running_after.is_finite() {
                (running_after - running_before).max(0.0)
            } else {
                f64::INFINITY
            };
            let index = self.subject_index(user);
            m.audit_log().push(
                index,
                loki_obs::AuditOutcome::Attempted,
                level_name(level),
                charge,
                running_before,
                trace_id,
            );
            (Arc::clone(m), index, charge, running_after)
        });

        if let Some(budget) = budget {
            if current.map_or(true, |eps| eps >= budget) {
                if let Some((m, index, charge, _)) = &audit {
                    m.audit_log().push(
                        *index,
                        loki_obs::AuditOutcome::RejectedAtCap,
                        level_name(level),
                        *charge,
                        current.unwrap_or(f64::INFINITY),
                        trace_id,
                    );
                }
                if let Some(m) = self.metrics.get() {
                    m.on_budget_rejection();
                }
                return Err(SubmitError::BudgetExhausted { current, budget });
            }
        }

        // Durable before applied: a failure here aborts with no state
        // change, and the client is told instead of silently dropped.
        // The trace context crosses into the committer thread via the
        // commit request, recording enqueue/batch/fsync spans there.
        // Submissions journal to their *survey's* lane, so per-lane
        // replay keeps every survey before its submissions.
        let survey_shard_index = self.shard_of_survey(response.survey);
        let survey_shard = self.shard_for_survey(response.survey);
        // The journal phase covers the whole durable wait (enqueue +
        // group-commit fsync round-trip); the committer thread refines
        // its own side under the wal.* tags.
        loki_obs::phase!("store.journal");
        self.journal_submission(survey_shard, user, level, &response, releases)?;
        self.crash_point(CrashPoint::AfterDurableBeforeApply);

        loki_obs::phase!("store.apply");
        let apply_span = trace_ctx.as_ref().map(|c| c.start_child("apply"));
        let lock_started = std::time::Instant::now();
        let survey_id = response.survey;
        let (stored, fragment) = {
            let mut surveys = survey_shard
                .surveys
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            // Surveys are never removed, so this finds the entry the
            // definition came from; the fallback keeps a durable write
            // from being dropped without a panicking path.
            let entry = surveys
                .entry(survey_id)
                .or_insert_with(|| SurveyEntry::new(Arc::clone(&survey)));
            for (_, kind) in releases {
                self.accountant.record(user, *kind);
            }
            entry.users.insert(user.to_string());
            // Fold the streaming statistics inside the same critical
            // section that appends the stored copy: identical fold order
            // is what makes streamed estimates bitwise-equal to a rescan.
            let fragment = entry.agg.apply(level, &response);
            entry.list.push(StoredSubmission { level, response });
            survey_shard
                .stored_total
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            (entry.list.len(), fragment)
        };
        // Feed the observatory outside the shard locks (sketch entries
        // are subject-routed; the user commit lock above serializes one
        // subject's updates, so cohort accounting never races itself).
        self.observatory.ingest(user, &fragment);
        if let Some(mut span) = apply_span {
            span.attr("stored", stored as u64);
            span.finish();
        }
        if let Some(m) = self.metrics.get() {
            m.observe_store_lock_sharded(lock_started.elapsed(), survey_shard_index);
            m.on_submission_stored(level);
        }
        if let Some((m, index, charge, running_after)) = audit {
            m.audit_log().push(
                index,
                loki_obs::AuditOutcome::Charged,
                level_name(level),
                charge,
                running_after,
                trace_id,
            );
        }
        loki_obs::phase!("store.ack");
        let ack_span = trace_ctx.as_ref().map(|c| c.start_child("ack"));
        self.crash_point(CrashPoint::AfterApplyBeforeAck);
        drop(ack_span);
        Ok(stored)
    }

    /// Total stored submissions across every survey, read from the
    /// per-shard counters: O(shards), no submission-map walk.
    pub fn submission_total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.stored_total.load(std::sync::atomic::Ordering::Relaxed))
            .sum()
    }

    /// Runs `read` on one survey's streaming aggregate under its shard's
    /// read lock: a single lookup of the survey's entry tells an unknown
    /// survey from one with nothing to read.
    fn read_agg<R>(
        &self,
        survey: SurveyId,
        read: impl FnOnce(&crate::agg::SurveyAgg) -> Option<R>,
    ) -> Result<R, ReadMiss> {
        let guard = self
            .shard_for_survey(survey)
            .surveys
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = guard.get(&survey).ok_or(ReadMiss::UnknownSurvey)?;
        read(&entry.agg).ok_or(ReadMiss::NoResponses)
    }

    /// Per-bin sufficient statistics of one question from the streaming
    /// state (one shard, one map lookup), as a snapshot `/results/` and
    /// `/estimate/` estimate from after the shard lock is released. An
    /// estimate from it equals one over a rescan through
    /// [`AppState::for_each_submission`] bitwise (pinned by the
    /// `agg_stream` property tests).
    pub fn streaming_bins(
        &self,
        survey: SurveyId,
        question: loki_survey::QuestionId,
    ) -> Result<BTreeMap<PrivacyLevel, BinStats>, ReadMiss> {
        self.read_agg(survey, |a| a.stats_for(question))
    }

    /// Streamed per-bin option counts of one multiple-choice question (one
    /// shard, one map lookup), as a snapshot `/choices/` estimates from
    /// after the shard lock is released
    /// ([`crate::agg::ChoiceCounts::estimate`]).
    pub fn choice_counts(
        &self,
        survey: SurveyId,
        question: loki_survey::QuestionId,
    ) -> Result<crate::agg::ChoiceCounts, ReadMiss> {
        self.read_agg(survey, |a| a.choices_for(question))
    }

    /// Per-survey streaming rollups for `/v1/privacy`, id-ordered and
    /// merged across shards: `(survey, submissions, QI questions, QI
    /// fragments disclosed)`.
    pub fn survey_agg_rollups(&self) -> Vec<(SurveyId, u64, u64, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let guard = shard.surveys.read().unwrap_or_else(PoisonError::into_inner);
            out.extend(guard.iter().map(|(id, e)| {
                let (submissions, agg) = (e.list.len() as u64, &e.agg);
                (*id, submissions, agg.qi_questions(), agg.qi_fragments())
            }));
        }
        out.sort_by_key(|(id, ..)| *id);
        out
    }

    /// Point-in-time identity-free privacy summary (for `/v1/privacy`
    /// and the metrics scrape).
    pub fn privacy_summary(&self) -> crate::agg::PrivacySummary {
        self.observatory.summary()
    }

    /// Cumulative loss of a user at the default δ, as their ledger
    /// stores it.
    pub fn user_loss(&self, user: &str) -> loki_dp::params::PrivacyLoss {
        self.accountant.loss_of(user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_core::estimator::Estimator;
    use loki_survey::question::QuestionKind;
    use loki_survey::survey::SurveyBuilder;
    use loki_survey::QuestionId;

    fn survey() -> Survey {
        let mut b = SurveyBuilder::new(SurveyId(1), "lecturers");
        b.question("rate L1", QuestionKind::likert5(), false);
        b.question("rate L2", QuestionKind::likert5(), false);
        b.build().unwrap()
    }

    fn one_question_survey(id: u64) -> Survey {
        let mut b = SurveyBuilder::new(SurveyId(id), format!("s{id}"));
        b.question("rate", QuestionKind::likert5(), false);
        b.build().unwrap()
    }

    fn obfuscated_response(user: &str, v: f64) -> Response {
        let mut r = Response::new(user, SurveyId(1));
        r.answer(QuestionId(0), Answer::Obfuscated(v));
        r.answer(QuestionId(1), Answer::Obfuscated(v - 1.0));
        r
    }

    fn gaussian_release(tag: &str) -> (String, ReleaseKind) {
        (
            tag.to_string(),
            ReleaseKind::Gaussian {
                sigma: 1.0,
                sensitivity: 4.0,
            },
        )
    }

    #[test]
    fn add_and_list_surveys() {
        let s = AppState::new();
        assert!(s.add_survey(survey()).unwrap());
        assert!(
            !s.add_survey(survey()).unwrap(),
            "duplicate id must be rejected"
        );
        assert_eq!(s.surveys().len(), 1);
        assert!(s.survey(SurveyId(1)).is_some());
        assert!(s.survey(SurveyId(9)).is_none());
    }

    #[test]
    fn submit_and_count() {
        let s = AppState::new();
        s.add_survey(survey()).unwrap();
        let n = s
            .submit(
                "u1",
                PrivacyLevel::Medium,
                obfuscated_response("u1", 4.2),
                &[gaussian_release("survey-1/q0"), gaussian_release("survey-1/q1")],
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(s.submission_count(SurveyId(1)), 1);
        assert_eq!(s.accountant.releases_of("u1"), 2);
    }

    #[test]
    fn duplicate_submission_rejected() {
        let s = AppState::new();
        s.add_survey(survey()).unwrap();
        s.submit("u1", PrivacyLevel::Low, obfuscated_response("u1", 4.0), &[])
            .unwrap();
        let err = s
            .submit("u1", PrivacyLevel::Low, obfuscated_response("u1", 4.0), &[])
            .unwrap_err();
        assert_eq!(err, SubmitError::Duplicate);
        assert!(s.has_submitted(SurveyId(1), "u1"));
        assert!(!s.has_submitted(SurveyId(1), "u2"));
    }

    #[test]
    fn user_index_stays_consistent_with_list() {
        let s = AppState::new();
        s.add_survey(survey()).unwrap();
        for i in 0..50 {
            let user = format!("u{i}");
            s.submit(
                &user,
                PrivacyLevel::Low,
                obfuscated_response(&user, 3.0),
                &[],
            )
            .unwrap();
        }
        let mut users = Vec::new();
        s.for_each_submission(SurveyId(1), |sub| users.push(sub.response.worker.clone()));
        assert_eq!(users.len(), 50);
        assert_eq!(users.iter().collect::<HashSet<_>>().len(), 50);
        for user in &users {
            assert!(s.has_submitted(SurveyId(1), user));
        }
    }

    #[test]
    fn survey_hands_out_the_one_stored_definition() {
        let s = AppState::new();
        s.add_survey(survey()).unwrap();
        let first = s.survey(SurveyId(1)).unwrap();
        let second = s.survey(SurveyId(1)).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        s.submit("u1", PrivacyLevel::Low, obfuscated_response("u1", 4.0), &[])
            .unwrap();
        let after = s.survey(SurveyId(1)).unwrap();
        assert!(Arc::ptr_eq(&first, &after), "submit replaced the definition");
        assert!(Arc::ptr_eq(&first, &s.surveys()[0]));
        assert!(Arc::ptr_eq(&first, &s.surveys_page(None, 1).0[0]));
    }

    #[test]
    fn user_locks_map_stays_bounded() {
        let s = AppState::new();
        // A clone held across sweeps (an in-flight commit) must survive.
        let pinned = s.user_commit_lock("pinned");
        for i in 0..(3 * USER_LOCKS_GC_THRESHOLD) {
            let lock = s.user_commit_lock(&format!("u{i}"));
            drop(lock); // commit finished: the map holds the only reference
        }
        assert!(
            s.user_locks_len() <= USER_LOCKS_GC_THRESHOLD,
            "user_locks grew past the GC threshold: {} entries",
            s.user_locks_len()
        );
        assert!(
            Arc::ptr_eq(&pinned, &s.user_commit_lock("pinned")),
            "an entry with a live reference must never be collected"
        );
    }

    #[test]
    fn commit_releases_user_lock_reference() {
        let s = AppState::new();
        s.add_survey(survey()).unwrap();
        s.submit("u1", PrivacyLevel::Low, obfuscated_response("u1", 4.0), &[])
            .unwrap();
        let locks = s
            .shard_for_user("u1")
            .user_locks
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = locks.get("u1").expect("entry exists after a commit");
        assert_eq!(
            Arc::strong_count(entry),
            1,
            "a finished commit must not pin its lock entry (GC relies on this)"
        );
    }

    #[test]
    fn raw_answer_refused() {
        let s = AppState::new();
        s.add_survey(survey()).unwrap();
        let mut r = Response::new("u1", SurveyId(1));
        r.answer(QuestionId(0), Answer::Rating(4.0)); // raw!
        r.answer(QuestionId(1), Answer::Obfuscated(3.0));
        let err = s.submit("u1", PrivacyLevel::None, r, &[]).unwrap_err();
        assert_eq!(err, SubmitError::RawAnswer { question: 0 });
        assert_eq!(s.submission_count(SurveyId(1)), 0);
    }

    #[test]
    fn user_mismatch_refused() {
        let s = AppState::new();
        s.add_survey(survey()).unwrap();
        let err = s
            .submit("mallory", PrivacyLevel::Low, obfuscated_response("alice", 4.0), &[])
            .unwrap_err();
        assert_eq!(err, SubmitError::UserMismatch);
    }

    #[test]
    fn unknown_survey_refused() {
        let s = AppState::new();
        let mut r = Response::new("u1", SurveyId(42));
        r.answer(QuestionId(0), Answer::Obfuscated(1.0));
        assert_eq!(
            s.submit("u1", PrivacyLevel::Low, r, &[]).unwrap_err(),
            SubmitError::UnknownSurvey
        );
    }

    #[test]
    fn results_aggregate_by_bin() {
        let s = AppState::new();
        s.add_survey(survey()).unwrap();
        for (i, level) in [
            PrivacyLevel::None,
            PrivacyLevel::Low,
            PrivacyLevel::Low,
            PrivacyLevel::High,
        ]
        .iter()
        .enumerate()
        {
            let user = format!("u{i}");
            s.submit(&user, *level, obfuscated_response(&user, 4.0 + i as f64 * 0.1), &[])
                .unwrap();
        }
        let bins = s.streaming_bins(SurveyId(1), QuestionId(0)).unwrap();
        let pooled = Estimator::default().pooled(&bins).unwrap();
        assert_eq!(pooled.n_total, 4);
        assert_eq!(pooled.bins.len(), 3); // None, Low, High non-empty
        assert_eq!(
            s.streaming_bins(SurveyId(1), QuestionId(7)),
            Err(ReadMiss::NoResponses)
        );
    }

    #[test]
    fn degenerate_reads_miss_instead_of_panicking() {
        // Edge cases on the serving read path: no survey, no responses,
        // and a bin whose accumulated sum is non-finite (two f64::MAX
        // uploads overflow to +∞). All must degrade to a miss — a panic
        // here would let one hostile payload kill a worker thread.
        let s = AppState::new();
        let est = Estimator::default();
        let bins = |s: &AppState| s.streaming_bins(SurveyId(1), QuestionId(0));
        assert_eq!(bins(&s), Err(ReadMiss::UnknownSurvey));
        assert_eq!(
            s.choice_counts(SurveyId(1), QuestionId(0)),
            Err(ReadMiss::UnknownSurvey)
        );

        s.add_survey(survey()).unwrap();
        assert_eq!(bins(&s), Err(ReadMiss::NoResponses));
        assert_eq!(s.submission_count(SurveyId(1)), 0);
        assert_eq!(s.survey_agg_rollups(), [(SurveyId(1), 0, 0, 0)]);
        // A rating question has no option counts.
        assert_eq!(
            s.choice_counts(SurveyId(1), QuestionId(0)),
            Err(ReadMiss::NoResponses)
        );

        for (i, v) in [f64::MAX, f64::MAX].iter().enumerate() {
            let user = format!("hostile{i}");
            s.submit(&user, PrivacyLevel::Medium, obfuscated_response(&user, *v), &[])
                .unwrap();
        }
        let overflowed = bins(&s).unwrap();
        assert_eq!(est.pooled(&overflowed), None, "overflowed sum");
        assert_eq!(est.ldp_truth(&overflowed), None);

        // A healthy submission on top: the finite bin pools, the poisoned
        // bin stays excluded.
        s.submit("sane", PrivacyLevel::None, obfuscated_response("sane", 4.0), &[])
            .unwrap();
        let stream = est.pooled(&bins(&s).unwrap()).unwrap();
        assert_eq!(stream.bins.len(), 1);
        assert_eq!(stream.n_total, 1);
        assert_eq!(stream.mean.to_bits(), 4.0f64.to_bits());
        assert_eq!(s.survey_agg_rollups(), [(SurveyId(1), 3, 0, 0)]);
    }

    #[test]
    fn budget_cap_blocks_exhausted_users() {
        let s = AppState::new();
        s.add_survey(survey()).unwrap();
        // One medium-privacy answer costs ε ≈ 24; cap just above one
        // release so the second is refused.
        let per_release = loki_core::privacy_level::PrivacyLevel::Medium
            .privacy_loss(4.0)
            .epsilon
            .value();
        s.set_epsilon_budget(Some(per_release * 1.5)).unwrap();

        s.submit(
            "u1",
            PrivacyLevel::Medium,
            obfuscated_response("u1", 4.0),
            &[gaussian_release("t0"), gaussian_release("t1")],
        )
        .unwrap();

        // Second survey for the same user.
        let mut b2 = SurveyBuilder::new(SurveyId(2), "second");
        b2.question("rate", QuestionKind::likert5(), false);
        s.add_survey(b2.build().unwrap()).unwrap();
        let mut r = Response::new("u1", SurveyId(2));
        r.answer(QuestionId(0), Answer::Obfuscated(3.0));
        let err = s
            .submit("u1", PrivacyLevel::Medium, r, &[gaussian_release("t2")])
            .unwrap_err();
        assert!(matches!(err, SubmitError::BudgetExhausted { .. }), "{err:?}");
        assert_eq!(s.submission_count(SurveyId(2)), 0);

        // A fresh user is unaffected.
        let mut r = Response::new("u2", SurveyId(2));
        r.answer(QuestionId(0), Answer::Obfuscated(3.0));
        s.submit("u2", PrivacyLevel::Medium, r, &[gaussian_release("t3")])
            .unwrap();
    }

    #[test]
    fn budget_cap_blocks_unbounded_users() {
        let s = AppState::new();
        s.add_survey(survey()).unwrap();
        s.set_epsilon_budget(Some(100.0)).unwrap();
        // A raw release makes the user's loss unbounded.
        s.accountant
            .record("u1", loki_dp::accountant::ReleaseKind::Raw);
        let err = s
            .submit("u1", PrivacyLevel::None, obfuscated_response("u1", 4.0), &[])
            .unwrap_err();
        assert!(matches!(
            err,
            SubmitError::BudgetExhausted { current: None, .. }
        ));
    }

    #[test]
    fn an_infinite_cap_refuses_unbounded_users_and_the_gauge_counts_them() {
        let s = AppState::new();
        s.add_survey(survey()).unwrap();
        s.set_epsilon_budget(Some(f64::INFINITY)).unwrap();
        s.accountant.record("u1", ReleaseKind::Raw);
        let err = s
            .submit("u1", PrivacyLevel::None, obfuscated_response("u1", 4.0), &[])
            .unwrap_err();
        assert!(matches!(
            err,
            SubmitError::BudgetExhausted { current: None, .. }
        ));
        let releases = [gaussian_release("t0")];
        s.submit("u2", PrivacyLevel::Medium, obfuscated_response("u2", 4.0), &releases)
            .unwrap();
        let metrics = s.enable_metrics();
        s.scrape_once();
        let text = metrics.render_exposition();
        assert!(text.contains("loki_ledger_near_cap_ratio 0.5"), "{text}");
    }

    #[test]
    fn budget_check_and_charge_are_atomic_per_user() {
        // Regression for the check/charge TOCTOU: a user sitting just
        // under the cap fires 8 concurrent submits (distinct surveys, so
        // Duplicate can't mask the race). Exactly one may pass — under
        // the old unlocked check, several could read the stale loss and
        // all slip under the cap.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s = Arc::new(AppState::new());
        let threads = 8u64;
        for id in 1..=threads {
            s.add_survey(one_question_survey(id)).unwrap();
        }
        // Probe the accountant for the composed loss after one and two
        // releases, then pin the cap strictly between them: the user sits
        // at cap − ε₁, one more release fits, two do not.
        let probe = AppState::new();
        probe.accountant.record("p", gaussian_release("a").1);
        let one = probe.user_loss("p").epsilon.value();
        probe.accountant.record("p", gaussian_release("b").1);
        let two = probe.user_loss("p").epsilon.value();
        assert!(two > one);
        s.accountant.record("u1", gaussian_release("warmup").1);
        s.set_epsilon_budget(Some((one + two) / 2.0)).unwrap();

        let ok = Arc::new(AtomicUsize::new(0));
        let rejected = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(threads as usize));
        let handles: Vec<_> = (1..=threads)
            .map(|id| {
                let s = Arc::clone(&s);
                let ok = Arc::clone(&ok);
                let rejected = Arc::clone(&rejected);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut r = Response::new("u1", SurveyId(id));
                    r.answer(QuestionId(0), Answer::Obfuscated(3.0));
                    let release = gaussian_release(&format!("survey-{id}/q0"));
                    barrier.wait();
                    match s.submit("u1", PrivacyLevel::Low, r, &[release]) {
                        Ok(_) => ok.fetch_add(1, Ordering::SeqCst),
                        Err(SubmitError::BudgetExhausted { .. }) => {
                            rejected.fetch_add(1, Ordering::SeqCst)
                        }
                        Err(e) => panic!("unexpected error: {e:?}"),
                    };
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ok.load(Ordering::SeqCst), 1, "exactly one submit under cap");
        assert_eq!(rejected.load(Ordering::SeqCst), (threads - 1) as usize);
        // The ledger holds warmup + exactly one charged release.
        assert_eq!(s.accountant.releases_of("u1"), 2);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn journal_failure_surfaces_and_applies_nothing() {
        // Every lane is a symlink to /dev/full, which fails every write
        // with ENOSPC: the submit must come back as Durability and leave
        // no trace in memory or the ledger.
        let s = AppState::new();
        s.add_survey(survey()).unwrap();
        let dir = std::env::temp_dir().join(format!("loki-store-full-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for lane in 0..s.num_shards() {
            let link = dir.join(crate::wal::lane_file_name(lane));
            std::os::unix::fs::symlink("/dev/full", link).unwrap();
        }
        s.attach_journal_lanes(&dir, crate::wal::GroupCommitConfig::default())
            .unwrap();
        let err = s
            .submit(
                "u1",
                PrivacyLevel::Medium,
                obfuscated_response("u1", 4.0),
                &[gaussian_release("t0")],
            )
            .unwrap_err();
        assert!(matches!(err, SubmitError::Durability(_)), "{err:?}");
        assert_eq!(s.submission_count(SurveyId(1)), 0);
        assert_eq!(s.accountant.releases_of("u1"), 0);
        assert!(!s.has_submitted(SurveyId(1), "u1"));
        // Publishing is refused the same way, on whichever lane it lands.
        let err = s.add_survey(one_question_survey(2)).unwrap_err();
        assert!(matches!(err, SubmitError::Durability(_)));
        assert_eq!(s.surveys().len(), 1);
        s.detach_journal();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn impossible_releases_are_refused_before_the_journal() {
        // Metrics off, so nothing probes the ledger before the journal:
        // the check in the stateless step is all that stands between a
        // hostile release and a durable record the ledger panics on.
        let s = AppState::new();
        s.add_survey(survey()).unwrap();
        let dir = std::env::temp_dir().join(format!("loki-store-badrel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.attach_journal_lanes(&dir, crate::wal::GroupCommitConfig::default())
            .unwrap();
        let bad = [
            ReleaseKind::Pure { epsilon: -1.0 },
            ReleaseKind::Gaussian {
                sigma: 1.0,
                sensitivity: 0.0,
            },
            ReleaseKind::Gaussian {
                sigma: 0.0,
                sensitivity: 4.0,
            },
            ReleaseKind::Gaussian {
                sigma: -1.0,
                sensitivity: 4.0,
            },
        ];
        for kind in bad {
            let releases = [gaussian_release("t0"), ("t1".to_string(), kind)];
            let err = s
                .submit(
                    "u1",
                    PrivacyLevel::Medium,
                    obfuscated_response("u1", 4.0),
                    &releases,
                )
                .unwrap_err();
            assert!(matches!(err, SubmitError::InvalidRelease(_)), "{err:?}");
        }
        assert_eq!(s.submission_count(SurveyId(1)), 0);
        assert_eq!(s.accountant.releases_of("u1"), 0);
        s.detach_journal();
        let journaled: usize = (0..s.num_shards())
            .map(|lane| {
                std::fs::read_to_string(dir.join(crate::wal::lane_file_name(lane)))
                    .unwrap()
                    .lines()
                    .filter(|l| l.contains("\"submit\""))
                    .count()
            })
            .sum();
        assert_eq!(journaled, 0, "a refused submit reached the journal");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_lane_open_attaches_no_lane() {
        // Lane 3 is a directory, so its open fails after lanes 0..3
        // opened fine: attaching must fail as a whole, leaving no shard
        // journaling while the rest ack writes that never reach disk.
        let s = AppState::new();
        let dir = std::env::temp_dir().join(format!("loki-store-partial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join(crate::wal::lane_file_name(3))).unwrap();
        assert!(s
            .attach_journal_lanes(&dir, crate::wal::GroupCommitConfig::default())
            .is_err());
        assert!(!s.journal_health().0);
        assert!(s.shard_stats().iter().all(|st| !st.wal_attached));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_positive_budget_rejected() {
        let s = AppState::new();
        assert_eq!(s.set_epsilon_budget(Some(0.0)), Err(InvalidBudget(0.0)));
        assert_eq!(s.set_epsilon_budget(Some(-1.0)), Err(InvalidBudget(-1.0)));
        assert!(s.epsilon_budget().is_none(), "rejected cap left no residue");
        assert!(
            InvalidBudget(0.0).to_string().contains("must be positive"),
            "error explains the constraint"
        );
        s.set_epsilon_budget(Some(1.0)).unwrap();
        s.set_epsilon_budget(None).unwrap();
    }

    #[test]
    fn shard_routing_is_deterministic_and_in_range() {
        let s = AppState::new();
        assert_eq!(s.num_shards(), DEFAULT_SHARDS);
        for id in 0..200u64 {
            let shard = s.shard_of_survey(SurveyId(id));
            assert!(shard < s.num_shards());
            assert_eq!(shard, survey_shard_of(SurveyId(id), DEFAULT_SHARDS));
        }
        for user in ["u1", "alice", "t7-u63", ""] {
            let shard = s.shard_of_user(user);
            assert!(shard < s.num_shards());
            assert_eq!(shard, user_shard_of(user, DEFAULT_SHARDS));
        }
        // A single-shard store routes everything to shard 0.
        let single = AppState::with_shards(1);
        assert_eq!(single.shard_of_survey(SurveyId(99)), 0);
        assert_eq!(single.shard_of_user("anyone"), 0);
        // Zero is clamped, not a panic.
        assert_eq!(AppState::with_shards(0).num_shards(), 1);
    }

    #[test]
    fn consecutive_survey_ids_spread_across_shards() {
        // The whole point of the splitmix64 mix: ids 1..=8 must not all
        // land on one shard (8 sequential ids hitting 1 of 8 shards by
        // chance is ~8^-7, so a collapse here means a routing bug).
        let s = AppState::new();
        let mut seen = HashSet::new();
        for id in 1..=8u64 {
            seen.insert(s.shard_of_survey(SurveyId(id)));
        }
        assert!(seen.len() > 2, "ids 1..=8 clustered on {seen:?}");
    }

    #[test]
    fn facade_reads_merge_shards_in_id_order() {
        let s = AppState::new();
        // Insert in descending id order so a "merge without sort" bug
        // can't accidentally pass.
        for id in (1..=20u64).rev() {
            s.add_survey(one_question_survey(id)).unwrap();
        }
        let listed: Vec<u64> = s.surveys().iter().map(|sv| sv.id.0).collect();
        assert_eq!(listed, (1..=20).collect::<Vec<u64>>());
    }

    #[test]
    fn surveys_page_walks_the_full_set() {
        let s = AppState::new();
        for id in 1..=13u64 {
            s.add_survey(one_question_survey(id)).unwrap();
        }
        let mut walked = Vec::new();
        let mut after = None;
        loop {
            let (page, has_more) = s.surveys_page(after, 5);
            assert!(page.len() <= 5);
            walked.extend(page.iter().map(|sv| sv.id.0));
            if !has_more {
                break;
            }
            after = page.last().map(|sv| sv.id);
        }
        assert_eq!(walked, (1..=13).collect::<Vec<u64>>());
        // Past the end: empty page, nothing more.
        assert_eq!(s.surveys_page(Some(SurveyId(13)), 5), (Vec::new(), false));
        // Zero limit is legal and reports whether anything remains.
        let (page, has_more) = s.surveys_page(None, 0);
        assert!(page.is_empty());
        assert!(has_more);
    }

    #[test]
    fn shard_stats_report_occupancy_and_lanes() {
        let s = AppState::new();
        s.add_survey(survey()).unwrap();
        s.submit("u1", PrivacyLevel::Low, obfuscated_response("u1", 4.0), &[
            gaussian_release("t0"),
        ])
        .unwrap();
        let stats = s.shard_stats();
        assert_eq!(stats.len(), DEFAULT_SHARDS);
        assert_eq!(stats.iter().map(|st| st.surveys).sum::<usize>(), 1);
        assert_eq!(stats.iter().map(|st| st.submissions).sum::<usize>(), 1);
        assert_eq!(stats.iter().map(|st| st.ledger_users).sum::<usize>(), 1);
        let survey_shard = s.shard_of_survey(SurveyId(1));
        assert_eq!(stats[survey_shard].surveys, 1);
        assert_eq!(stats[survey_shard].submissions, 1);
        assert_eq!(stats[s.shard_of_user("u1")].ledger_users, 1);
        assert!(stats.iter().all(|st| !st.wal_attached));

        // Attaching creates the missing lane directory and one lane file
        // per shard, and every shard reports its own healthy lane.
        let root = std::env::temp_dir().join(format!("loki-shard-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("lanes");
        s.attach_journal_lanes(&dir, crate::wal::GroupCommitConfig::default())
            .unwrap();
        let stats = s.shard_stats();
        assert!(stats.iter().all(|st| st.wal_attached && st.wal_depth == 0));
        assert!(stats.iter().all(|st| st.wal_poisoned.is_none()));
        for lane in 0..DEFAULT_SHARDS {
            assert!(dir.join(crate::wal::lane_file_name(lane)).is_file(), "lane {lane}");
        }
        s.detach_journal();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn single_shard_store_behaves_identically() {
        // The fuzz test in tests/sharding.rs does the deep comparison;
        // this pins the cheap invariant that a 1-shard store passes the
        // same submit flow end to end.
        let s = AppState::with_shards(1);
        s.add_survey(survey()).unwrap();
        s.submit("u1", PrivacyLevel::Medium, obfuscated_response("u1", 4.0), &[
            gaussian_release("t0"),
        ])
        .unwrap();
        assert_eq!(s.submission_count(SurveyId(1)), 1);
        assert_eq!(s.accountant.releases_of("u1"), 1);
        assert_eq!(s.user_locks_len(), 1);
        assert_eq!(s.shard_stats().len(), 1);
    }

    #[test]
    fn ledger_reflects_releases() {
        let s = AppState::new();
        s.add_survey(survey()).unwrap();
        s.submit(
            "u1",
            PrivacyLevel::Medium,
            obfuscated_response("u1", 3.0),
            &[gaussian_release("t0"), gaussian_release("t1")],
        )
        .unwrap();
        let loss = s.user_loss("u1");
        assert!(loss.is_finite());
        assert!(loss.epsilon.value() > 0.0);
        assert_eq!(s.user_loss("ghost"), loki_dp::params::PrivacyLoss::ZERO);
    }
}
