//! Write-ahead journal persistence and the group-commit protocol.
//!
//! The journal is the server's only on-disk state. It captures every
//! accepted write as one JSON line, fsync'd, with the client's declared
//! releases verbatim, so a crash loses at most the torn final line of a
//! lane and replay charges each ledger exactly as the live write did.
//! The store journals **before** it applies: a record reaches memory
//! (and its client an ack) only after the bytes are durable, so replay
//! always converges to a superset of what clients were acked
//! ([`crate::store`]'s durability contract).
//!
//! The journal is a directory of per-shard **lanes**: each store shard
//! owns one file ([`lane_file_name`]) and one [`GroupCommitter`]
//! ([`AppState::attach_journal_lanes`]). Durability is made affordable by
//! **group commit**: writers enqueue encoded records on their lane's
//! committer and block; the committer thread drains the queue, writes
//! the whole batch with one `write` and one `sync_data`, then wakes every
//! waiter. N concurrent submitters on a lane share ~1 fsync instead of
//! paying N.
//!
//! Replay ([`replay_lanes`]) rebuilds an [`AppState`] through the normal
//! ingest path, re-validating every record — a corrupted journal can
//! fail replay, but can never smuggle an invalid submission past the
//! at-source checks.

use crate::store::{AppState, SubmitError, DEFAULT_SHARDS};
use loki_core::privacy_level::PrivacyLevel;
use loki_dp::accountant::ReleaseKind;
use loki_obs::trace::{SpanContext, ROOT_SPAN};
use loki_survey::response::Response;
use loki_survey::survey::Survey;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// One journal record.
///
/// Externally tagged (`{"publish_survey": {…}}`) rather than internally
/// tagged: internal tagging buffers the payload through serde's `Content`
/// type, which cannot round-trip integer-keyed maps like a response's
/// `answers`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Record {
    /// A survey was published.
    PublishSurvey {
        /// The survey definition.
        survey: Survey,
    },
    /// A submission was accepted.
    Submit {
        /// Submitting user.
        user: String,
        /// Chosen privacy level.
        level: PrivacyLevel,
        /// The uploaded (obfuscated) response.
        response: Response,
        /// Declared ledger entries.
        releases: Vec<(String, ReleaseKind)>,
    },
}

/// Borrowed mirror of [`Record`] so the commit path can serialize
/// straight from the caller's references — no clone of the response or
/// releases just to journal them. Tagging must match `Record` exactly so
/// both encode to the same JSON lines.
#[derive(Serialize)]
#[serde(rename_all = "snake_case")]
enum RecordRef<'a> {
    PublishSurvey {
        survey: &'a Survey,
    },
    Submit {
        user: &'a str,
        level: PrivacyLevel,
        response: &'a Response,
        releases: &'a [(String, ReleaseKind)],
    },
}

/// Journal errors.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A (non-final) record failed to parse or replay.
    Corrupt(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "io: {e}"),
            WalError::Corrupt(e) => write!(f, "corrupt journal: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// A durability failure as seen by one blocked writer. Cloneable so a
/// single failed batch can answer every waiter it contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityError(String);

impl DurabilityError {
    fn new(message: impl Into<String>) -> DurabilityError {
        DurabilityError(message.into())
    }
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DurabilityError {}

/// Timing of one group-committed batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTiming {
    /// Buffered write of every line in the batch.
    pub write: std::time::Duration,
    /// The single `sync_data` covering the whole batch.
    pub fsync: std::time::Duration,
    /// Records in the batch (≥ 1).
    pub records: usize,
    /// Trace id of one traced writer in the batch (if any), so the
    /// group-commit histogram can carry an exemplar.
    pub exemplar_trace: Option<u64>,
}

/// What the committer thread reports to its observer after each batch.
#[derive(Debug, Clone, Copy)]
pub enum BatchEvent {
    /// The batch was written and fsync'd; every waiter was acked.
    Committed(BatchTiming),
    /// The batch failed (I/O error, or the journal was already poisoned
    /// by an earlier failure); `records` waiters received a
    /// [`DurabilityError`].
    Failed {
        /// Writers refused in this batch.
        records: usize,
    },
}

/// Observer invoked on the committer thread after every batch (metrics
/// hook). Keep it cheap — it runs inside the commit pipeline.
pub type BatchObserver = Arc<dyn Fn(&BatchEvent) + Send + Sync>;

/// Group-commit tuning.
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitConfig {
    /// Maximum records batched under one fsync. `1` degenerates to
    /// per-record fsync (the GC-1 bench baseline).
    pub max_batch: usize,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig { max_batch: 128 }
    }
}

/// One open, append-only lane file.
#[derive(Debug)]
pub struct Wal {
    file: File,
}

impl Wal {
    /// Opens (creating if needed) a journal for appending.
    pub fn open(path: &Path) -> Result<Wal, WalError> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Wal { file })
    }

    /// Appends `records` pre-encoded, newline-terminated lines with one
    /// buffered write and one `sync_data` — the group-commit primitive.
    pub fn append_encoded(&mut self, bytes: &[u8], records: usize) -> Result<BatchTiming, WalError> {
        loki_obs::phase!("wal.write");
        let write_started = std::time::Instant::now();
        self.file.write_all(bytes)?;
        let write = write_started.elapsed();
        loki_obs::phase!("wal.fsync");
        let fsync_started = std::time::Instant::now();
        self.file.sync_data()?;
        Ok(BatchTiming {
            write,
            fsync: fsync_started.elapsed(),
            records,
            exemplar_trace: None,
        })
    }
}

/// Serializes any record shape to one newline-terminated journal line.
fn encode_line<T: Serialize>(record: &T) -> Result<Vec<u8>, WalError> {
    let mut line = serde_json::to_vec(record).map_err(|e| WalError::Corrupt(e.to_string()))?;
    line.push(b'\n');
    Ok(line)
}

/// The trace context a writer hands across the thread boundary, plus
/// the instant it enqueued — the committer turns the gap between that
/// instant and its drain into the "enqueue" (queue-wait) span.
struct TraceHandoff {
    ctx: SpanContext,
    enqueued: Instant,
}

/// One blocked writer's entry on the commit queue.
struct CommitRequest {
    /// The encoded, newline-terminated journal line.
    line: Vec<u8>,
    /// Wakes the writer once its batch is durable (or failed).
    done: mpsc::SyncSender<Result<(), DurabilityError>>,
    /// Trace handoff when the writer's request is being traced. This is
    /// the explicit context transfer across the writer→committer
    /// boundary: the committer records complete spans against it.
    trace: Option<TraceHandoff>,
}

/// The group-commit engine: a commit queue plus a dedicated committer
/// thread that batches queued records under a single fsync.
///
/// Writers call [`GroupCommitter::commit_survey`] /
/// [`GroupCommitter::commit_submission`] and block until their record is
/// durable. After an I/O failure the journal is **poisoned**: the failed
/// batch and every later commit are refused with a [`DurabilityError`]
/// (the file may hold a torn line, so continuing to append could corrupt
/// the middle of the journal). Recovery is operator-level: restart with
/// a healthy disk, replay, re-attach.
///
/// Dropping the committer closes the queue and joins the thread, so every
/// in-flight commit resolves before shutdown completes.
pub struct GroupCommitter {
    tx: Option<mpsc::Sender<CommitRequest>>,
    thread: Option<JoinHandle<()>>,
    /// Set by the committer thread on the first I/O failure; read by
    /// `/v1/healthz` so a poisoned journal is visible before a client
    /// ever eats a 503.
    poisoned: Arc<Mutex<Option<String>>>,
    /// Commits enqueued (or mid-batch) but not yet answered — the lane
    /// depth `GET /v1/admin/shards` reports. Incremented by the writer
    /// before its send, decremented by the committer just before it
    /// wakes the writer, so a writer never sees its own commit counted.
    depth: Arc<AtomicUsize>,
}

impl std::fmt::Debug for GroupCommitter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommitter")
            .field("alive", &self.thread.is_some())
            .finish()
    }
}

impl GroupCommitter {
    /// Takes ownership of an open journal and spawns the committer
    /// thread. `observer` (if any) is called after every batch.
    pub fn spawn(
        wal: Wal,
        config: GroupCommitConfig,
        observer: Option<BatchObserver>,
    ) -> GroupCommitter {
        let (tx, rx) = mpsc::channel::<CommitRequest>();
        let max_batch = config.max_batch.max(1);
        let poisoned = Arc::new(Mutex::new(None));
        let poisoned_flag = Arc::clone(&poisoned);
        let depth = Arc::new(AtomicUsize::new(0));
        let depth_counter = Arc::clone(&depth);
        // Committers are spawned per WAL lane; a process-wide ordinal
        // keeps each visible as its own row in /v1/profile.
        static COMMITTER_ORDINAL: AtomicUsize = AtomicUsize::new(0);
        let ordinal = COMMITTER_ORDINAL.fetch_add(1, Ordering::Relaxed);
        let thread = std::thread::spawn(move || {
            let _prof = loki_obs::prof::register_thread(
                "wal.committer",
                ordinal.min(usize::from(u16::MAX)) as u16,
            );
            committer_loop(
                wal,
                &rx,
                max_batch,
                observer.as_ref(),
                &poisoned_flag,
                &depth_counter,
            );
        });
        GroupCommitter {
            tx: Some(tx),
            thread: Some(thread),
            poisoned,
            depth,
        }
    }

    /// The reason the journal was poisoned, if an I/O failure has
    /// occurred. `None` means the journal is healthy.
    pub fn poisoned(&self) -> Option<String> {
        self.poisoned
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Commits currently enqueued or mid-batch but not yet answered.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Blocks until a survey publication is fsync-durable.
    pub fn commit_survey(&self, survey: &Survey) -> Result<(), DurabilityError> {
        let line = encode_line(&RecordRef::PublishSurvey { survey })
            .map_err(|e| DurabilityError::new(e.to_string()))?;
        self.commit_line(line)
    }

    /// Blocks until an accepted submission is fsync-durable.
    pub fn commit_submission(
        &self,
        user: &str,
        level: PrivacyLevel,
        response: &Response,
        releases: &[(String, ReleaseKind)],
    ) -> Result<(), DurabilityError> {
        let line = encode_line(&RecordRef::Submit {
            user,
            level,
            response,
            releases,
        })
        .map_err(|e| DurabilityError::new(e.to_string()))?;
        self.commit_line(line)
    }

    /// Enqueues one encoded line and blocks until its batch resolves.
    ///
    /// If the calling thread carries a recording trace context, it is
    /// handed off on the commit request so the committer can record the
    /// enqueue-wait, batch and fsync spans into this request's tree.
    fn commit_line(&self, line: Vec<u8>) -> Result<(), DurabilityError> {
        let (done, done_rx) = mpsc::sync_channel(1);
        let Some(tx) = self.tx.as_ref() else {
            return Err(DurabilityError::new("journal closed"));
        };
        let trace = loki_obs::trace::current()
            .filter(SpanContext::is_recording)
            .map(|ctx| TraceHandoff {
                ctx,
                enqueued: Instant::now(),
            });
        self.depth.fetch_add(1, Ordering::Relaxed);
        if tx.send(CommitRequest { line, done, trace }).is_err() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return Err(DurabilityError::new("group committer stopped"));
        }
        done_rx
            .recv()
            .unwrap_or_else(|_| Err(DurabilityError::new("group committer dropped the batch")))
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        // Closing the queue lets the thread drain in-flight batches and
        // exit; joining guarantees every waiter has been answered.
        drop(self.tx.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The committer thread: drain → batch-write → single fsync → wake.
///
/// For every traced request in a batch it records three spans against
/// the request's own trace (offsets are computed per-trace, so one
/// batch can serve many traces): `enqueue` (send → drain), `batch`
/// (write+fsync, tagged with the batch id and size so cohorts are
/// joinable) and `fsync` (a child of `batch`).
fn committer_loop(
    mut wal: Wal,
    rx: &mpsc::Receiver<CommitRequest>,
    max_batch: usize,
    observer: Option<&BatchObserver>,
    poisoned_flag: &Mutex<Option<String>>,
    depth: &AtomicUsize,
) {
    let mut poisoned: Option<String> = None;
    let mut batch_id: u64 = 0;
    loop {
        // Idle: blocked on the commit queue. Tagged separately from the
        // batch phases so /v1/profile distinguishes a committer waiting
        // for work from one saturated by fsync.
        loki_obs::phase!("wal.recv");
        let Ok(first) = rx.recv() else {
            break;
        };
        loki_obs::phase!("wal.batch");
        let mut batch = vec![first];
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(req) => batch.push(req),
                Err(_) => break,
            }
        }
        let drained = Instant::now();
        if let Some(reason) = &poisoned {
            let err =
                DurabilityError::new(format!("journal poisoned by earlier failure: {reason}"));
            fail_batch(batch, drained, &err, depth, observer);
            continue;
        }
        let mut bytes = Vec::with_capacity(batch.iter().map(|r| r.line.len()).sum());
        for req in &batch {
            bytes.extend_from_slice(&req.line);
        }
        let batch_started = Instant::now();
        match wal.append_encoded(&bytes, batch.len()) {
            Ok(timing) => {
                // append_encoded left the tag at wal.fsync; everything
                // from here to the next recv is waking the waiters.
                loki_obs::phase!("wal.wake");
                batch_id += 1;
                let batch_ended = Instant::now();
                let fsync_started = batch_started + timing.write;
                let size = batch.len() as u64;
                let mut exemplar_trace = None;
                for req in &batch {
                    let Some(h) = &req.trace else { continue };
                    exemplar_trace.get_or_insert(h.ctx.trace_id());
                    h.ctx.add_span_at("enqueue", Some(ROOT_SPAN), h.enqueued, drained, &[]);
                    let b = h.ctx.add_span_at(
                        "batch",
                        Some(ROOT_SPAN),
                        batch_started,
                        batch_ended,
                        &[("batch_id", batch_id), ("batch_size", size)],
                    );
                    h.ctx
                        .add_span_at("fsync", Some(b), fsync_started, batch_ended, &[]);
                }
                for CommitRequest { done, trace, .. } in batch {
                    // Let go of the trace handoff before waking its
                    // writer: the writer's `Tracer::finish` then finds
                    // the buffer unshared and reuses it.
                    drop(trace);
                    depth.fetch_sub(1, Ordering::Relaxed);
                    let _ = done.send(Ok(()));
                }
                if let Some(obs) = observer {
                    obs(&BatchEvent::Committed(BatchTiming {
                        exemplar_trace,
                        ..timing
                    }));
                }
            }
            Err(e) => {
                // Publish the poison before answering the waiters, so a
                // client holding its 503 already reads it from healthz.
                let message = e.to_string();
                *poisoned_flag
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some(message.clone());
                fail_batch(batch, drained, &DurabilityError::new(&message), depth, observer);
                poisoned = Some(message);
            }
        }
    }
}

/// Fails every request of an unwritten batch with `err`: records its
/// `enqueue` span (send → `drained`), answers its waiter and reports the
/// batch as [`BatchEvent::Failed`].
fn fail_batch(
    batch: Vec<CommitRequest>,
    drained: Instant,
    err: &DurabilityError,
    depth: &AtomicUsize,
    observer: Option<&BatchObserver>,
) {
    let records = batch.len();
    for CommitRequest { done, trace, .. } in batch {
        // The handoff is dropped at the end of this block, before the
        // wake, as on the committed path.
        if let Some(h) = trace {
            h.ctx.add_span_at("enqueue", Some(ROOT_SPAN), h.enqueued, drained, &[]);
        }
        depth.fetch_sub(1, Ordering::Relaxed);
        let _ = done.send(Err(err.clone()));
    }
    if let Some(obs) = observer {
        obs(&BatchEvent::Failed { records });
    }
}

/// The journal file name of one per-shard WAL lane under a lane
/// directory (see [`AppState::attach_journal_lanes`]). Zero-padded so
/// lexicographic directory order equals lane order.
pub fn lane_file_name(lane: usize) -> String {
    format!("wal-lane-{lane:03}.jsonl")
}

/// Replays a directory of per-shard WAL lanes
/// ([`AppState::attach_journal_lanes`]) into a fresh state, visiting
/// lane files in lane order.
///
/// The state gets one shard per lane file, so every survey routes back
/// to the lane that holds it and a re-attach journals to the same
/// files; attaching always creates every lane, so the file count is the
/// shard count that wrote the directory. An empty directory restores
/// to [`DEFAULT_SHARDS`].
///
/// Per-lane replay is sound because records never cross lanes: a
/// submission journals to its *survey's* lane, so each lane contains
/// every survey before that survey's submissions. A user's ε-ledger
/// charges are folded lane by lane rather than in the order they were
/// made: the release count comes back exact, and the loss is the same
/// composition, but float sums depend on their order, so a user whose
/// releases span lanes can get back an ε a few ulps off the live one
/// (`one_user_on_several_lanes_replays_in_lane_order`). A torn *final* line in any lane (crash
/// mid-append) is tolerated and dropped; any other malformed line is
/// [`WalError::Corrupt`].
pub fn replay_lanes(dir: &Path) -> Result<AppState, WalError> {
    let mut lanes = 0;
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("wal-lane-") && name.ends_with(".jsonl") {
            lanes += 1;
        }
    }
    let state = AppState::with_shards(if lanes == 0 { DEFAULT_SHARDS } else { lanes });
    for lane in 0..lanes {
        replay_into(&state, &dir.join(lane_file_name(lane)))?;
    }
    Ok(state)
}

/// Replays one lane file into an existing state through the normal
/// write paths. Every record is re-applied through `AppState`, so all
/// invariants re-apply; a `Duplicate` outcome is treated as corruption
/// (the journal should never contain one).
fn replay_into(state: &AppState, path: &Path) -> Result<(), WalError> {
    let file = File::open(path)?;
    let reader = BufReader::new(file);
    let mut lines = reader.lines().peekable();
    let mut index = 0usize;
    while let Some(line) = lines.next() {
        let line = line?;
        index += 1;
        if line.trim().is_empty() {
            continue;
        }
        let record: Record = match serde_json::from_str(&line) {
            Ok(r) => r,
            Err(e) => {
                if lines.peek().is_none() {
                    // Torn tail from a crash mid-append: drop it.
                    break;
                }
                return Err(WalError::Corrupt(format!("line {index}: {e}")));
            }
        };
        match record {
            Record::PublishSurvey { survey } => match state.add_survey(survey) {
                Ok(true) => {}
                Ok(false) => {
                    return Err(WalError::Corrupt(format!(
                        "line {index}: duplicate survey id"
                    )));
                }
                Err(e) => {
                    return Err(WalError::Corrupt(format!("line {index}: {e}")));
                }
            },
            Record::Submit {
                user,
                level,
                response,
                releases,
            } => match state.submit(&user, level, response, &releases) {
                Ok(_) => {}
                Err(SubmitError::BudgetExhausted { .. }) => {
                    // Budgets are runtime config, not journal state; a
                    // replayed journal never carries one.
                    return Err(WalError::Corrupt(format!(
                        "line {index}: budget error during replay"
                    )));
                }
                Err(e) => {
                    return Err(WalError::Corrupt(format!("line {index}: {e}")));
                }
            },
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_survey::question::{Answer, Question, QuestionKind};
    use loki_survey::survey::{SurveyBuilder, SurveyId};
    use loki_survey::QuestionId;
    use std::path::PathBuf;

    /// A fresh, empty lane directory unique to this test.
    fn lane_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("loki-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Opens lane `lane` of `dir` for appending.
    fn open_lane(dir: &Path, lane: usize) -> Wal {
        Wal::open(&dir.join(lane_file_name(lane))).unwrap()
    }

    /// Appends `records` to lane `lane` of `dir` exactly as a committer
    /// would, one fsync'd batch per record.
    fn write_lane(dir: &Path, lane: usize, records: &[Record]) {
        let mut wal = open_lane(dir, lane);
        for record in records {
            wal.append_encoded(&encode_line(record).unwrap(), 1).unwrap();
        }
    }

    fn survey(id: u64) -> Survey {
        let mut b = SurveyBuilder::new(SurveyId(id), "wal");
        b.question("rate", QuestionKind::likert5(), false);
        b.build().unwrap()
    }

    fn publish(id: u64) -> Record {
        Record::PublishSurvey { survey: survey(id) }
    }

    fn submission(user: &str, survey: u64) -> (Response, Vec<(String, ReleaseKind)>) {
        let mut r = Response::new(user, SurveyId(survey));
        r.answer(QuestionId(0), Answer::Obfuscated(4.25));
        (
            r,
            vec![(
                format!("survey-{survey}/q0"),
                ReleaseKind::Gaussian {
                    sigma: 1.0,
                    sensitivity: 4.0,
                },
            )],
        )
    }

    fn submit(user: &str, survey: u64) -> Record {
        let (response, releases) = submission(user, survey);
        Record::Submit {
            user: user.into(),
            level: PrivacyLevel::Medium,
            response,
            releases,
        }
    }

    #[test]
    fn journal_replays_to_equivalent_state() {
        let dir = lane_dir("replay");
        write_lane(&dir, 0, &[publish(1), submit("a", 1), submit("b", 1), submit("c", 1)]);
        let state = replay_lanes(&dir).unwrap();
        assert_eq!(state.num_shards(), 1, "one lane file, one shard");
        assert_eq!(state.surveys().len(), 1);
        assert_eq!(state.submission_count(SurveyId(1)), 3);
        assert_eq!(state.accountant.releases_of("a"), 1);
        assert!(state.user_loss("b").epsilon.value() > 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped() {
        let dir = lane_dir("torn");
        write_lane(&dir, 0, &[publish(1), submit("a", 1)]);
        write_lane(&dir, 1, &[publish(2), submit("x", 2), submit("y", 2)]);
        // Simulate a crash mid-append on lane 0: half a record at the
        // end of a lane that is not the last one replayed.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(lane_file_name(0)))
                .unwrap();
            f.write_all(b"{\"submit\":{\"user\":\"b\",\"lev").unwrap();
        }
        let state = replay_lanes(&dir).unwrap();
        assert_eq!(state.submission_count(SurveyId(1)), 1, "torn record dropped");
        assert!(!state.has_submitted(SurveyId(1), "b"));
        // The torn tail ends lane 0 only: lane 1 still replays in full.
        assert_eq!(state.submission_count(SurveyId(2)), 2);
        assert_eq!(state.accountant.releases_of("y"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_the_middle_is_an_error() {
        let dir = lane_dir("midcorrupt");
        write_lane(&dir, 0, &[publish(1)]);
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(lane_file_name(0)))
                .unwrap();
            f.write_all(b"garbage line\n").unwrap();
        }
        write_lane(&dir, 0, &[submit("a", 1)]);
        assert!(matches!(replay_lanes(&dir), Err(WalError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_submission_in_journal_rejected_on_replay() {
        // Hand-craft a journal whose submission carries a raw answer: the
        // normal ingest path must refuse it at replay time too.
        let dir = lane_dir("rawreplay");
        let mut r = Response::new("evil", SurveyId(1));
        r.answer(QuestionId(0), Answer::Rating(4.0)); // raw!
        let raw = Record::Submit {
            user: "evil".into(),
            level: PrivacyLevel::None,
            response: r,
            releases: vec![],
        };
        // A trailing valid record so the bad line isn't "torn tail".
        write_lane(&dir, 0, &[publish(1), raw, submit("ok", 1)]);
        assert!(matches!(replay_lanes(&dir), Err(WalError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn impossible_release_in_journal_stops_replay_with_an_error() {
        // A journal written before submits were checked may hold a
        // release the ledger asserts on: replay must refuse it, not panic.
        let dir = lane_dir("badrelease");
        let (response, _) = submission("neg", 1);
        let bad = Record::Submit {
            user: "neg".into(),
            level: PrivacyLevel::Medium,
            response,
            releases: vec![("survey-1/q0".into(), ReleaseKind::Pure { epsilon: -1.0 })],
        };
        write_lane(&dir, 0, &[publish(1), bad]);
        match replay_lanes(&dir) {
            Err(WalError::Corrupt(msg)) => {
                assert!(msg.contains("line 2: invalid release: epsilon"), "{msg}");
            }
            other => panic!("expected a corrupt-journal error, got {:?}", other.err()),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn attached_journal_captures_live_writes() {
        let dir = lane_dir("live");
        let state = AppState::new();
        state
            .attach_journal_lanes(&dir, GroupCommitConfig::default())
            .unwrap();

        state.add_survey(survey(1)).unwrap();
        let (resp, rel) = submission("alice", 1);
        state
            .submit("alice", PrivacyLevel::Medium, resp, &rel)
            .unwrap();
        state.detach_journal();

        // Replay the lanes into a second state: identical content.
        let restored = replay_lanes(&dir).unwrap();
        assert_eq!(restored.num_shards(), state.num_shards());
        assert_eq!(restored.surveys().len(), 1);
        assert_eq!(restored.submission_count(SurveyId(1)), 1);
        assert!(
            (restored.user_loss("alice").epsilon.value()
                - state.user_loss("alice").epsilon.value())
            .abs()
                < 1e-12
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejected_submissions_never_hit_the_journal() {
        let dir = lane_dir("rejects");
        let state = AppState::new();
        state
            .attach_journal_lanes(&dir, GroupCommitConfig::default())
            .unwrap();
        state.add_survey(survey(1)).unwrap();

        // Raw answer: rejected, and must not be journaled.
        let mut raw = Response::new("evil", SurveyId(1));
        raw.answer(QuestionId(0), Answer::Rating(4.0));
        assert!(state.submit("evil", PrivacyLevel::None, raw, &[]).is_err());
        state.detach_journal();

        let restored = replay_lanes(&dir).unwrap();
        assert_eq!(restored.submission_count(SurveyId(1)), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_reports_phase_timing() {
        let dir = lane_dir("timing");
        let line = encode_line(&publish(1)).unwrap();
        let t = open_lane(&dir, 0).append_encoded(&line, 1).unwrap();
        assert!(t.write > std::time::Duration::ZERO, "{t:?}");
        assert_eq!(t.records, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replaying_a_missing_directory_is_io_error() {
        assert!(matches!(
            replay_lanes(Path::new("/nonexistent/wal")),
            Err(WalError::Io(_))
        ));
    }

    #[test]
    fn record_serde_round_trip() {
        // A survey with every question kind and a redundancy pair, and a
        // submission, pinned to the exact journal bytes of serde's JSON
        // form: externally tagged snake_case records, externally tagged
        // kinds and answers, integer map keys as strings, ids as numbers.
        let survey = Survey {
            id: SurveyId(7),
            title: "wire".into(),
            description: "every kind".into(),
            questions: vec![
                Question {
                    id: QuestionId(0),
                    text: "rate".into(),
                    kind: QuestionKind::Rating { min: 1, max: 5 },
                    sensitive: false,
                },
                Question {
                    id: QuestionId(1),
                    text: "pick".into(),
                    kind: QuestionKind::MultipleChoice {
                        options: vec!["a".into(), "b".into()],
                    },
                    sensitive: false,
                },
                Question {
                    id: QuestionId(2),
                    text: "year".into(),
                    kind: QuestionKind::Numeric {
                        min: 1900,
                        max: 2000,
                    },
                    sensitive: true,
                },
                Question {
                    id: QuestionId(3),
                    text: "why".into(),
                    kind: QuestionKind::FreeText,
                    sensitive: false,
                },
            ],
            reward_cents: 25,
            redundancy_pairs: vec![(QuestionId(0), QuestionId(2))],
        };
        let (resp, rel) = submission("x", 1);
        let cases = [
            (
                Record::PublishSurvey { survey },
                concat!(
                    r#"{"publish_survey":{"survey":{"id":7,"title":"wire","description":"every kind","#,
                    r#""questions":[{"id":0,"text":"rate","kind":{"Rating":{"min":1,"max":5}},"sensitive":false},"#,
                    r#"{"id":1,"text":"pick","kind":{"MultipleChoice":{"options":["a","b"]}},"sensitive":false},"#,
                    r#"{"id":2,"text":"year","kind":{"Numeric":{"min":1900,"max":2000}},"sensitive":true},"#,
                    r#"{"id":3,"text":"why","kind":"FreeText","sensitive":false}],"#,
                    r#""reward_cents":25,"redundancy_pairs":[[0,2]]}}}"#
                ),
            ),
            (
                Record::Submit {
                    user: "x".into(),
                    level: PrivacyLevel::High,
                    response: resp,
                    releases: rel,
                },
                concat!(
                    r#"{"submit":{"user":"x","level":"high","#,
                    r#""response":{"worker":"x","survey":1,"answers":{"0":{"Obfuscated":4.25}}},"#,
                    r#""releases":[["survey-1/q0",{"Gaussian":{"sigma":1.0,"sensitivity":4.0}}]]}}"#
                ),
            ),
        ];
        for (rec, expected) in cases {
            let json = serde_json::to_string(&rec).unwrap();
            assert_eq!(json, expected);
            let back: Record = serde_json::from_str(&json).unwrap();
            assert_eq!(rec, back);
        }
    }

    #[test]
    fn record_ref_encodes_identically_to_record() {
        let (resp, rel) = submission("x", 1);
        let owned = encode_line(&Record::Submit {
            user: "x".into(),
            level: PrivacyLevel::High,
            response: resp.clone(),
            releases: rel.clone(),
        })
        .unwrap();
        let borrowed = encode_line(&RecordRef::Submit {
            user: "x",
            level: PrivacyLevel::High,
            response: &resp,
            releases: &rel,
        })
        .unwrap();
        assert_eq!(owned, borrowed);

        let s = survey(1);
        let owned = encode_line(&Record::PublishSurvey { survey: s.clone() }).unwrap();
        let borrowed = encode_line(&RecordRef::PublishSurvey { survey: &s }).unwrap();
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn group_commit_concurrent_writers_all_durable() {
        let dir = lane_dir("group");
        let committer = Arc::new(GroupCommitter::spawn(
            open_lane(&dir, 0),
            GroupCommitConfig::default(),
            None,
        ));
        committer.commit_survey(&survey(1)).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let committer = Arc::clone(&committer);
                std::thread::spawn(move || {
                    for i in 0..10 {
                        let user = format!("t{t}-u{i}");
                        let (resp, rel) = submission(&user, 1);
                        committer
                            .commit_submission(&user, PrivacyLevel::Medium, &resp, &rel)
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        drop(Arc::try_unwrap(committer).unwrap()); // join the committer
        let state = replay_lanes(&dir).unwrap();
        assert_eq!(state.submission_count(SurveyId(1)), 80);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_under_load() {
        // With many writers racing one committer, at least one batch must
        // carry more than one record (that is the whole point).
        let dir = lane_dir("batching");
        let max_seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let observer: BatchObserver = {
            let max_seen = Arc::clone(&max_seen);
            Arc::new(move |event| {
                if let BatchEvent::Committed(t) = event {
                    max_seen.fetch_max(t.records, std::sync::atomic::Ordering::Relaxed);
                }
            })
        };
        let committer = Arc::new(GroupCommitter::spawn(
            open_lane(&dir, 0),
            GroupCommitConfig::default(),
            Some(observer),
        ));
        committer.commit_survey(&survey(1)).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let committer = Arc::clone(&committer);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        let user = format!("t{t}-u{i}");
                        let (resp, rel) = submission(&user, 1);
                        committer
                            .commit_submission(&user, PrivacyLevel::Medium, &resp, &rel)
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        drop(Arc::try_unwrap(committer).unwrap());
        assert!(
            max_seen.load(std::sync::atomic::Ordering::Relaxed) >= 2,
            "no batch ever grouped >1 record"
        );
        assert_eq!(replay_lanes(&dir).unwrap().submission_count(SurveyId(1)), 200);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn io_failure_poisons_the_journal() {
        // /dev/full accepts opens but fails every write with ENOSPC —
        // a deterministic disk-full stand-in.
        let wal = Wal::open(Path::new("/dev/full")).unwrap();
        let failures = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let observer: BatchObserver = {
            let failures = Arc::clone(&failures);
            Arc::new(move |event| {
                if let BatchEvent::Failed { records } = event {
                    failures.fetch_add(*records, std::sync::atomic::Ordering::Relaxed);
                }
            })
        };
        let committer =
            GroupCommitter::spawn(wal, GroupCommitConfig::default(), Some(observer));
        let err = committer.commit_survey(&survey(1)).unwrap_err();
        assert!(err.to_string().contains("io"), "{err}");
        // The waiter is answered after the poison is published.
        assert!(committer.poisoned().is_some(), "poison flag unset after the first 503");
        // Poisoned: later commits fail too, even without touching disk.
        let (resp, rel) = submission("a", 1);
        let err = committer
            .commit_submission("a", PrivacyLevel::Low, &resp, &rel)
            .unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        // The poison reason is observable without eating another 503.
        let reason = committer.poisoned().expect("poison flag set");
        assert!(reason.contains("io"), "{reason}");
        drop(committer);
        assert_eq!(failures.load(std::sync::atomic::Ordering::Relaxed), 2);
        // The committer thread races its waiter; repeat the first-failure
        // check so an answer sent before the flag is stored shows up.
        for round in 0..200 {
            let wal = Wal::open(Path::new("/dev/full")).unwrap();
            let committer = GroupCommitter::spawn(wal, GroupCommitConfig::default(), None);
            assert!(committer.commit_survey(&survey(1)).is_err());
            let poisoned = committer.poisoned();
            assert!(poisoned.is_some(), "round {round}: poison flag unset after the 503");
        }
    }

    #[test]
    fn healthy_committer_reports_not_poisoned() {
        let dir = lane_dir("healthy");
        let committer =
            GroupCommitter::spawn(open_lane(&dir, 0), GroupCommitConfig::default(), None);
        committer.commit_survey(&survey(1)).unwrap();
        assert_eq!(committer.poisoned(), None);
        drop(committer);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn traced_commit_records_spans_across_the_thread_boundary() {
        use loki_obs::trace::{self, TraceConfig};
        use loki_obs::Tracer;

        let dir = lane_dir("traced");
        let committer =
            GroupCommitter::spawn(open_lane(&dir, 0), GroupCommitConfig::default(), None);

        let tracer = Tracer::new(
            1,
            TraceConfig {
                capacity: 8,
                sample_every: 1,
                slow_threshold: None,
            },
        );
        let t = tracer.start();
        let id = t.id();
        {
            let _g = trace::set_current(t.ctx());
            committer.commit_survey(&survey(1)).unwrap();
        }
        tracer.finish(t);

        let stored = tracer.get(id).expect("trace retained");
        let names: Vec<&str> = stored.spans.iter().map(|s| s.name).collect();
        for expected in ["enqueue", "batch", "fsync"] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        let batch = stored.spans.iter().find(|s| s.name == "batch").unwrap();
        assert!(
            batch.attrs.iter().any(|(k, v)| *k == "batch_id" && *v >= 1),
            "batch span carries a batch id: {:?}",
            batch.attrs
        );
        let fsync = stored.spans.iter().find(|s| s.name == "fsync").unwrap();
        assert_eq!(fsync.parent, Some(batch.id), "fsync is a child of batch");
        drop(committer);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn untraced_commits_carry_no_handoff_or_exemplar() {
        let dir = lane_dir("untraced");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let observer: BatchObserver = {
            let seen = Arc::clone(&seen);
            Arc::new(move |event| {
                if let BatchEvent::Committed(t) = event {
                    seen.lock().unwrap().push(t.exemplar_trace);
                }
            })
        };
        let committer = GroupCommitter::spawn(
            open_lane(&dir, 0),
            GroupCommitConfig::default(),
            Some(observer),
        );
        committer.commit_survey(&survey(1)).unwrap();
        drop(committer);
        assert_eq!(seen.lock().unwrap().as_slice(), &[None]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committer_shutdown_resolves_inflight_commits() {
        let dir = lane_dir("shutdown");
        let committer = Arc::new(GroupCommitter::spawn(
            open_lane(&dir, 0),
            GroupCommitConfig::default(),
            None,
        ));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let committer = Arc::clone(&committer);
                std::thread::spawn(move || {
                    let user = format!("w{t}");
                    let (resp, rel) = submission(&user, 1);
                    committer.commit_submission(&user, PrivacyLevel::Low, &resp, &rel)
                })
            })
            .collect();
        for w in writers {
            // Every writer resolves (durable before the drop below).
            w.join().unwrap().unwrap();
        }
        drop(Arc::try_unwrap(committer).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn depth_counts_down_to_zero_after_commits() {
        let dir = lane_dir("depth");
        let committer =
            GroupCommitter::spawn(open_lane(&dir, 0), GroupCommitConfig::default(), None);
        assert_eq!(committer.depth(), 0);
        committer.commit_survey(&survey(1)).unwrap();
        let (resp, rel) = submission("w0", 1);
        committer
            .commit_submission("w0", PrivacyLevel::Low, &resp, &rel)
            .unwrap();
        // Every commit blocked until answered, so nothing is in flight.
        assert_eq!(committer.depth(), 0);
        drop(committer);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lane_file_names_sort_in_lane_order() {
        assert_eq!(lane_file_name(0), "wal-lane-000.jsonl");
        assert_eq!(lane_file_name(7), "wal-lane-007.jsonl");
        assert_eq!(lane_file_name(123), "wal-lane-123.jsonl");
        let mut names: Vec<String> = (0..12).rev().map(lane_file_name).collect();
        names.sort();
        assert_eq!(names.first().map(String::as_str), Some("wal-lane-000.jsonl"));
        assert_eq!(names.last().map(String::as_str), Some("wal-lane-011.jsonl"));
    }

    #[test]
    fn lanes_round_trip_through_replay_lanes() {
        let dir = lane_dir("lanes");
        let state = AppState::new();
        state
            .attach_journal_lanes(&dir, GroupCommitConfig::default())
            .unwrap();
        // Spread surveys over several lanes, with one submission each,
        // declaring a mix of releases: Gaussian, a pure-ε release on the
        // rating (an ordinal-exponential upload) and a raw one.
        let mut declared = Vec::new();
        for id in 1..=6u64 {
            state.add_survey(survey(id)).unwrap();
            let user = format!("w{id}");
            let (r, mut rel) = submission(&user, id);
            let level = match id % 3 {
                0 => PrivacyLevel::Low,
                1 => {
                    rel[0].1 = ReleaseKind::Pure { epsilon: 0.7 + id as f64 };
                    PrivacyLevel::Medium
                }
                _ => {
                    rel[0].1 = ReleaseKind::Raw;
                    PrivacyLevel::None
                }
            };
            state.submit(&user, level, r, &rel).unwrap();
            declared.push(rel[0].1);
        }
        let users: Vec<String> = (1..=6u64).map(|id| format!("w{id}")).collect();
        let ledger = |state: &AppState, user: &str| {
            (
                state.accountant.releases_of(user),
                state.user_loss(user).epsilon.value().to_bits(),
            )
        };
        let ledgers: Vec<_> = users.iter().map(|u| ledger(&state, u)).collect();
        state.detach_journal();

        // More than one lane file actually carries records.
        let populated = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.metadata().is_ok_and(|m| m.len() > 0))
            .count();
        assert!(populated > 1, "expected records on several lanes");

        let replayed = replay_lanes(&dir).unwrap();
        assert_eq!(replayed.surveys().len(), 6);
        for id in 1..=6u64 {
            assert_eq!(replayed.submission_count(SurveyId(id)), 1);
            assert!(replayed.has_submitted(SurveyId(id), &format!("w{id}")));
            assert_eq!(replayed.accountant.releases_of(&format!("w{id}")), 1);
        }
        // The ledger comes back with its release count, and ε bit for bit.
        for (i, user) in users.iter().enumerate() {
            assert_eq!(ledger(&replayed, user), ledgers[i], "ledger of {user}");
        }
        // w4 declared the pure-ε release the snapshot path rebuilt wrongly,
        // and its ledger holds that release's loss.
        assert!(matches!(declared[3], ReleaseKind::Pure { .. }));
        let mut w4 = loki_dp::UserLedger::new();
        w4.record(declared[3]);
        assert_eq!(ledgers[3].1, w4.tight_loss().epsilon.value().to_bits());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One user answers twelve surveys spread over several lanes, in an
    /// order the lanes interleave, with Gaussian (σ 0.5 and 2) and pure-ε
    /// releases. Replay folds the user's releases lane by lane, each lane
    /// in journal order, not in the order they were charged. This pins
    /// that fold: the restored release count is exact, and the restored
    /// ε is bit for bit a ledger fed the releases in lane order. Float
    /// sums depend on their order, so that can differ from the live ε in
    /// the last bits; the test bounds the drift at a few ulps.
    #[test]
    fn one_user_on_several_lanes_replays_in_lane_order() {
        let dir = lane_dir("one-user-lanes");
        let state = AppState::new();
        state
            .attach_journal_lanes(&dir, GroupCommitConfig::default())
            .unwrap();
        let user = "heavy";
        let mut charged = Vec::new();
        for id in 1..=12u64 {
            state.add_survey(survey(id)).unwrap();
            let (r, mut rel) = submission(user, id);
            let level = match id % 3 {
                0 => {
                    rel[0].1 = ReleaseKind::Gaussian {
                        sigma: 0.5,
                        sensitivity: 4.0,
                    };
                    PrivacyLevel::Low
                }
                1 => {
                    rel[0].1 = ReleaseKind::Gaussian {
                        sigma: 2.0,
                        sensitivity: 4.0,
                    };
                    PrivacyLevel::High
                }
                _ => {
                    rel[0].1 = ReleaseKind::Pure {
                        epsilon: 0.3 + id as f64 / 100.0,
                    };
                    PrivacyLevel::Medium
                }
            };
            state.submit(user, level, r, &rel).unwrap();
            charged.push((state.shard_of_survey(SurveyId(id)), rel[0].1));
        }
        let lanes: Vec<usize> = charged.iter().map(|(lane, _)| *lane).collect();
        let mut distinct = lanes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() >= 3, "releases on lanes {lanes:?}");
        assert!(
            lanes.windows(2).any(|w| w[0] > w[1]),
            "replay must fold in another order than the live one: {lanes:?}"
        );
        let fold = |kinds: &[(usize, ReleaseKind)]| {
            let mut ledger = loki_dp::UserLedger::new();
            for (_, kind) in kinds {
                ledger.record(*kind);
            }
            ledger.tight_loss().epsilon.value()
        };
        let live = state.user_loss(user).epsilon.value();
        assert_eq!(live.to_bits(), fold(&charged).to_bits(), "live ε");
        state.detach_journal();

        let replayed = replay_lanes(&dir).unwrap();
        assert_eq!(replayed.accountant.releases_of(user), 12);
        let restored = replayed.user_loss(user).epsilon.value();
        let mut lane_order = charged.clone();
        lane_order.sort_by_key(|(lane, _)| *lane);
        assert_eq!(
            restored.to_bits(),
            fold(&lane_order).to_bits(),
            "replayed ε"
        );
        assert!(
            (restored - live).abs() <= 4.0 * f64::EPSILON * live,
            "replayed ε {restored} drifted from live {live}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_lanes_surfaces_mid_lane_corruption() {
        let dir = lane_dir("lanes-bad");
        let state = AppState::new();
        state
            .attach_journal_lanes(&dir, GroupCommitConfig::default())
            .unwrap();
        state.add_survey(survey(1)).unwrap();
        state.detach_journal();
        // Corrupt the populated lane in the middle: garbage then a
        // valid-looking tail, so the torn-final-line tolerance cannot
        // apply.
        let lane = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| std::fs::metadata(p).is_ok_and(|m| m.len() > 0))
            .unwrap();
        let mut bytes = std::fs::read(&lane).unwrap();
        bytes.extend_from_slice(b"{garbage\n");
        bytes.extend_from_slice(b"{\"also\": \"broken\"\n");
        std::fs::write(&lane, bytes).unwrap();
        assert!(matches!(
            replay_lanes(&dir),
            Err(WalError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
