//! Shard-routing invariants for the sharded store.
//!
//! Two properties keep sharding invisible to everything above the
//! [`AppState`] facade:
//!
//! 1. **Routing stability** — `hash(survey_id)` is a fixed function: the
//!    same id lands on the same shard in every process, across restarts
//!    and across WAL-lane replay. (The store must never use a seeded
//!    hasher like `std::collections`' `RandomState` for routing.)
//! 2. **Merged-view equivalence** — the merged per-shard state after any
//!    operation sequence equals the pre-shard single-map state for the
//!    same sequence: a 1-shard store *is* the old global-lock store, so
//!    a fixed-seed fuzz comparing `with_shards(8)` against
//!    `with_shards(1)` pins the refactor to the old semantics.

use loki::core::privacy_level::PrivacyLevel;
use loki::dp::accountant::ReleaseKind;
use loki::server::store::StoredSubmission;
use loki::server::wal::{replay_lanes, GroupCommitConfig};
use loki::server::AppState;
use loki::survey::question::{Answer, QuestionKind};
use loki::survey::response::Response;
use loki::survey::survey::{Survey, SurveyBuilder, SurveyId};
use loki::survey::QuestionId;
use std::sync::Arc;

fn survey(id: u64) -> Survey {
    let mut b = SurveyBuilder::new(SurveyId(id), format!("survey-{id}"));
    b.question("rate", QuestionKind::likert5(), false);
    b.build().unwrap()
}

fn submit_one(state: &AppState, user: &str, id: u64, value: f64) {
    let mut r = Response::new(user, SurveyId(id));
    r.answer(QuestionId(0), Answer::Obfuscated(value));
    state
        .submit(
            user,
            PrivacyLevel::Medium,
            r,
            &[(
                format!("survey-{id}/q0"),
                ReleaseKind::Gaussian {
                    sigma: 1.0,
                    sensitivity: 4.0,
                },
            )],
        )
        .unwrap();
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "loki-sharding-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The canonical merged view of a store, independent of its shard
/// count: every survey in id order, each survey's submissions in arrival
/// order, then each submitting user's release count and stored ε bits in
/// first-seen order. Compare two views through `{:?}`, which prints every `f64` so
/// that it round-trips (and `-0.0` as itself), so equal text means
/// bit-equal state.
type MergedView = (
    Vec<Arc<Survey>>,
    Vec<Vec<StoredSubmission>>,
    Vec<(String, usize, u64)>,
);

fn merged_view(state: &AppState) -> MergedView {
    let surveys = state.surveys();
    let submissions: Vec<Vec<StoredSubmission>> = surveys
        .iter()
        .map(|s| {
            let mut subs = Vec::new();
            state.for_each_submission(s.id, |sub| subs.push(sub.clone()));
            subs
        })
        .collect();
    let mut users: Vec<String> = Vec::new();
    for sub in submissions.iter().flatten() {
        if !users.contains(&sub.response.worker) {
            users.push(sub.response.worker.clone());
        }
    }
    let ledgers = users
        .into_iter()
        .map(|user| {
            let releases = state.accountant.releases_of(&user);
            let epsilon = state.user_loss(&user).epsilon.value().to_bits();
            (user, releases, epsilon)
        })
        .collect();
    (surveys, submissions, ledgers)
}

fn view_text(state: &AppState) -> String {
    format!("{:?}", merged_view(state))
}

#[test]
fn routing_is_stable_across_separately_constructed_states() {
    // Two independent processes (modeled as two independent states) must
    // agree on every id's home shard, else a restart would strand data.
    let a = AppState::with_shards(8);
    let b = AppState::with_shards(8);
    for id in 0..512u64 {
        let shard = a.shard_of_survey(SurveyId(id));
        assert!(shard < a.num_shards());
        assert_eq!(
            shard,
            b.shard_of_survey(SurveyId(id)),
            "id {id} routed differently across restarts"
        );
    }
    for user in ["alice", "bob", "", "u-9999", "日本語"] {
        assert_eq!(
            a.shard_of_user(user),
            b.shard_of_user(user),
            "user {user:?} routed differently across restarts"
        );
    }
}

#[test]
fn routing_survives_lane_replay() {
    let dir = scratch_dir("replay");
    let state = AppState::new();
    state
        .attach_journal_lanes(&dir, GroupCommitConfig::default())
        .unwrap();

    // Enough surveys to populate several lanes, each with a submission.
    let ids: Vec<u64> = (1..=12).collect();
    for &id in &ids {
        state.add_survey(survey(id)).unwrap();
        submit_one(&state, &format!("user-{id}"), id, 3.5);
    }
    let homes: Vec<usize> = ids.iter().map(|&id| state.shard_of_survey(SurveyId(id))).collect();
    state.detach_journal();

    // Replay the per-shard lane files into a fresh store: every survey
    // and submission returns, on the same shard it lived on before.
    let replayed = replay_lanes(&dir).unwrap();
    assert_eq!(replayed.surveys().len(), ids.len());
    for (i, &id) in ids.iter().enumerate() {
        assert!(replayed.survey(SurveyId(id)).is_some(), "survey {id} lost in replay");
        assert_eq!(replayed.submission_count(SurveyId(id)), 1, "submissions for {id}");
        assert_eq!(
            replayed.shard_of_survey(SurveyId(id)),
            homes[i],
            "survey {id} changed shards across replay"
        );
    }
    // The merged views agree, ledgers included.
    assert_eq!(
        view_text(&state),
        view_text(&replayed),
        "replayed state diverged from the original"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lane_replay_restores_the_writers_shard_count() {
    // A directory written by a 3-shard store must replay into a 3-shard
    // store. With the default shard count, surveys would route away from
    // the lanes that hold them, and a re-attach would journal later
    // submissions to a different lane than their survey's publish record.
    let dir = scratch_dir("three-shards");
    let state = AppState::with_shards(3);
    state
        .attach_journal_lanes(&dir, GroupCommitConfig::default())
        .unwrap();
    let ids: Vec<u64> = (1..=9).collect();
    for &id in &ids {
        state.add_survey(survey(id)).unwrap();
        submit_one(&state, &format!("user-{id}"), id, 3.5);
    }
    state.detach_journal();

    let replayed = replay_lanes(&dir).unwrap();
    assert_eq!(replayed.num_shards(), 3);
    for &id in &ids {
        assert_eq!(
            replayed.shard_of_survey(SurveyId(id)),
            state.shard_of_survey(SurveyId(id)),
            "survey {id} changed shards across replay"
        );
        assert_eq!(replayed.submission_count(SurveyId(id)), 1, "submissions for {id}");
    }

    // Attach → submit → replay again converges: each later submission
    // journals to its survey's original lane.
    replayed
        .attach_journal_lanes(&dir, GroupCommitConfig::default())
        .unwrap();
    for &id in &ids {
        submit_one(&replayed, &format!("late-{id}"), id, 2.5);
    }
    replayed.detach_journal();
    let again = replay_lanes(&dir).unwrap();
    assert_eq!(again.num_shards(), 3);
    for &id in &ids {
        assert_eq!(again.submission_count(SurveyId(id)), 2, "submissions for {id}");
    }
    assert_eq!(
        view_text(&replayed),
        view_text(&again),
        "second replay diverged from the live state"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Tiny deterministic generator — explicit LCG, no process-seeded RNG,
/// so the fuzz sequence is identical on every run and platform.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[test]
fn fuzzed_op_sequence_matches_single_shard_snapshot() {
    let sharded = AppState::with_shards(8);
    let flat = AppState::with_shards(1);
    let states = [&sharded, &flat];

    // A fixed-seed interleaving of publishes and submissions, applied
    // identically to both stores. Users repeat across surveys (legal)
    // and within a survey (duplicate, rejected identically by both).
    let mut rng = Lcg(0x5eed_cafe);
    let mut published: Vec<u64> = Vec::new();
    let mut next_id = 1u64;
    for _op in 0..400 {
        let roll = rng.next() % 10;
        if roll < 2 || published.is_empty() {
            for state in states {
                state.add_survey(survey(next_id)).unwrap();
            }
            published.push(next_id);
            next_id += 1;
        } else {
            let id = published[(rng.next() as usize) % published.len()];
            let user = format!("w{}", rng.next() % 64);
            let value = 1.0 + (rng.next() % 5) as f64;
            let mut outcomes = Vec::new();
            for state in states {
                let mut r = Response::new(user.clone(), SurveyId(id));
                r.answer(QuestionId(0), Answer::Obfuscated(value));
                outcomes.push(
                    state
                        .submit(
                            &user,
                            PrivacyLevel::Medium,
                            r,
                            &[(
                                format!("survey-{id}/q0"),
                                ReleaseKind::Gaussian {
                                    sigma: 1.0,
                                    sensitivity: 4.0,
                                },
                            )],
                        )
                        .is_ok(),
                );
            }
            assert_eq!(
                outcomes[0], outcomes[1],
                "stores disagreed on accepting user {user} → survey {id}"
            );
        }
    }

    // Merged sharded view ≡ single-map view: listing, per-survey
    // counts, per-user ε, and the full merged view with every ledger.
    let merged: Vec<u64> = sharded.surveys().iter().map(|s| s.id.0).collect();
    let single: Vec<u64> = flat.surveys().iter().map(|s| s.id.0).collect();
    assert_eq!(merged, single);
    for &id in &published {
        assert_eq!(
            sharded.submission_count(SurveyId(id)),
            flat.submission_count(SurveyId(id)),
            "submission count diverged for survey {id}"
        );
    }
    for u in 0..64u64 {
        let user = format!("w{u}");
        let la = sharded.user_loss(&user);
        let lb = flat.user_loss(&user);
        assert_eq!(la.is_finite(), lb.is_finite(), "finiteness diverged for {user}");
        if la.is_finite() {
            let a = la.epsilon.value();
            let b = lb.epsilon.value();
            assert!((a - b).abs() < 1e-12, "ε diverged for {user}: {a} vs {b}");
        }
    }
    assert_eq!(
        view_text(&sharded),
        view_text(&flat),
        "merged per-shard view != single-map view"
    );
}

fn demographics_survey(id: u64) -> Survey {
    let mut b = SurveyBuilder::new(SurveyId(id), format!("about-you-{id}"));
    b.question("Day of the month you were born", QuestionKind::Numeric { min: 1, max: 31 }, true);
    b.question("Month you were born", QuestionKind::Numeric { min: 1, max: 12 }, true);
    b.question("Year you were born", QuestionKind::Numeric { min: 1900, max: 2020 }, true);
    b.question(
        "What is your gender?",
        QuestionKind::MultipleChoice { options: vec!["Female".into(), "Male".into()] },
        true,
    );
    b.question("What is your zip code?", QuestionKind::Numeric { min: 0, max: 99999 }, true);
    b.build().unwrap()
}

fn submit_demographics(state: &AppState, user: &str, id: u64, day: f64, zip: f64) {
    let mut r = Response::new(user, SurveyId(id));
    r.answer(QuestionId(0), Answer::Obfuscated(day));
    r.answer(QuestionId(1), Answer::Obfuscated(6.0));
    r.answer(QuestionId(2), Answer::Obfuscated(1990.0));
    r.answer(QuestionId(3), Answer::Choice(0));
    r.answer(QuestionId(4), Answer::Obfuscated(zip));
    state.submit(user, PrivacyLevel::None, r, &[]).unwrap();
}

#[test]
fn streaming_state_rebuilds_identically_across_lane_replay() {
    // The per-shard sufficient statistics and the privacy observatory
    // are derived state: a store rebuilt from WAL-lane replay must
    // re-derive both bit-for-bit, with no rescan fallback.
    let dir = scratch_dir("agg-replay");
    let state = AppState::new();
    state
        .attach_journal_lanes(&dir, GroupCommitConfig::default())
        .unwrap();

    for id in 1..=4u64 {
        state.add_survey(survey(id)).unwrap();
    }
    state.add_survey(demographics_survey(9)).unwrap();
    let mut rng = Lcg(0xa66_5eed);
    for n in 0..40 {
        let id = 1 + rng.next() % 4;
        let user = format!("w{}", rng.next() % 16);
        let value = 1.0 + (rng.next() % 500) as f64 / 100.0;
        let mut r = Response::new(user.clone(), SurveyId(id));
        r.answer(QuestionId(0), Answer::Obfuscated(value));
        // Duplicates are expected and must be ignored by both builds.
        let _ = state.submit(&user, PrivacyLevel::Medium, r, &[]);
        if n % 4 == 0 {
            // Cohort structure: users n and n+4 share a QI when day/zip
            // collide (rng-free so both builds see the same sequence).
            submit_demographics(&state, &format!("d{n}"), 9, 1.0 + (n % 8) as f64, 11111.0);
        }
    }
    state.detach_journal();

    let replayed = replay_lanes(&dir).unwrap();
    assert_eq!(replayed.submission_total(), state.submission_total());
    for id in 1..=4u64 {
        assert_eq!(
            replayed.submission_count(SurveyId(id)),
            state.submission_count(SurveyId(id)),
            "per-survey count diverged for {id}"
        );
        assert_eq!(
            replayed.streaming_bins(SurveyId(id), QuestionId(0)),
            state.streaming_bins(SurveyId(id), QuestionId(0)),
            "sufficient statistics diverged for survey {id} (bitwise)"
        );
    }
    assert!(state
        .choice_counts(SurveyId(9), QuestionId(3))
        .is_ok_and(|c| !c.bins().is_empty()));
    assert_eq!(
        replayed.choice_counts(SurveyId(9), QuestionId(3)),
        state.choice_counts(SurveyId(9), QuestionId(3)),
        "streamed option counts diverged"
    );
    assert_eq!(replayed.survey_agg_rollups(), state.survey_agg_rollups());
    assert!(
        state.survey_agg_rollups().iter().any(|(.., qi_fragments)| *qi_fragments > 0),
        "fixture must disclose quasi-identifier fragments"
    );
    let before = state.privacy_summary();
    let after = replayed.privacy_summary();
    assert_eq!(after, before, "observatory state diverged across replay");
    assert!(before.subjects > 0, "fixture must exercise the observatory");
    assert!(before.k.complete > 0, "fixture must complete quasi-identifiers");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pagination_agrees_with_the_full_listing_on_every_shard_count() {
    for shards in [1usize, 3, 8] {
        let state = AppState::with_shards(shards);
        for id in (1..=23u64).rev() {
            state.add_survey(survey(id)).unwrap();
        }
        let full: Vec<u64> = state.surveys().iter().map(|s| s.id.0).collect();
        let mut paged = Vec::new();
        let mut after = None;
        loop {
            let (page, more) = state.surveys_page(after, 7);
            paged.extend(page.iter().map(|s| s.id.0));
            if !more {
                break;
            }
            after = page.last().map(|s| s.id);
        }
        assert_eq!(paged, full, "paged walk diverged at {shards} shards");
    }
}
