//! End-to-end platform test: server + many app clients over real HTTP.
//!
//! Exercises the whole §3 pipeline: publish a survey, 40 users submit at
//! the paper's privacy-level mix through the app library (obfuscating
//! at-source), then read aggregated results and ledgers back over HTTP —
//! and verify the at-source property on the server's stored data.

use loki::client::LokiClient;
use loki::core::privacy_level::PrivacyLevel;
use loki::rng::ChaCha20Rng;
use loki::server::wal::{replay_lanes, GroupCommitConfig};
use loki::server::{serve, AppState};
use loki::survey::question::{Answer, QuestionKind};
use loki::survey::survey::{SurveyBuilder, SurveyId};
use loki::survey::QuestionId;
use std::collections::BTreeMap;
use std::sync::Arc;

fn lecturer_survey() -> loki::survey::survey::Survey {
    let mut b = SurveyBuilder::new(SurveyId(1), "Rate your lecturers");
    b.question("Rate lecturer A", QuestionKind::likert5(), false);
    b.question("Rate lecturer B", QuestionKind::likert5(), false);
    b.build().unwrap()
}

#[test]
fn full_survey_lifecycle_over_http() {
    let state = Arc::new(AppState::new());
    state.add_survey(lecturer_survey()).unwrap();
    let handle = serve("127.0.0.1:0", Arc::clone(&state)).unwrap();
    let base = handle.base_url();

    // 40 users across the four levels: 10 each, all true answer 4 for A,
    // 2 for B.
    let mut rng = ChaCha20Rng::seed_from_u64(42);
    for i in 0..40 {
        let level = PrivacyLevel::ALL[i % 4];
        let mut client = LokiClient::connect(&base, format!("user-{i:02}")).unwrap();
        let listed = client.list_surveys().unwrap();
        assert_eq!(listed.len(), 1);
        let survey = client.fetch_survey(SurveyId(listed[0].id)).unwrap();

        let mut answers = BTreeMap::new();
        answers.insert(QuestionId(0), Answer::Rating(4.0));
        answers.insert(QuestionId(1), Answer::Rating(2.0));
        let preview = client.preview(&mut rng, &survey, &answers, level).unwrap();
        let outcome = client.submit(preview).unwrap();
        assert_eq!(outcome.stored, i + 1);

        // Cumulative ε: finite for noisy levels, unbounded (None) for none.
        match level {
            PrivacyLevel::None => assert_eq!(outcome.cumulative_epsilon, None),
            _ => assert!(outcome.cumulative_epsilon.unwrap() > 0.0),
        }
    }

    // At-source property: every stored numeric answer is Obfuscated, and
    // for noisy levels differs from the raw truth.
    let mut submissions = Vec::new();
    state.for_each_submission(SurveyId(1), |sub| submissions.push(sub.clone()));
    assert_eq!(submissions.len(), 40);
    for sub in &submissions {
        for q in [QuestionId(0), QuestionId(1)] {
            let answer = sub.response.get(q).unwrap();
            assert!(
                answer.is_obfuscated(),
                "stored answer for {} is not obfuscated",
                sub.response.worker
            );
            if sub.level != PrivacyLevel::None {
                let truth = if q == QuestionId(0) { 4.0 } else { 2.0 };
                assert_ne!(
                    answer.as_f64(),
                    Some(truth),
                    "noisy answer equals raw truth for {}",
                    sub.response.worker
                );
            }
        }
    }

    // Aggregates over HTTP: pooled means near the truths.
    let http = loki::net::client::HttpClient::new(&base).unwrap();
    for (q, truth) in [(0u32, 4.0f64), (1u32, 2.0f64)] {
        let resp = http.get(&format!("/v1/surveys/1/results/{q}")).unwrap();
        assert!(resp.status.is_success());
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        let pooled = v["pooled_mean"].as_f64().unwrap();
        assert!(
            (pooled - truth).abs() < 0.6,
            "q{q}: pooled {pooled} far from {truth}"
        );
        assert_eq!(v["n_total"].as_u64().unwrap(), 40);
        assert_eq!(v["bins"].as_array().unwrap().len(), 4);
    }

    handle.shutdown();
}

#[test]
fn client_and_server_ledgers_agree() {
    let state = Arc::new(AppState::new());
    state.add_survey(lecturer_survey()).unwrap();
    let handle = serve("127.0.0.1:0", Arc::clone(&state)).unwrap();

    let mut rng = ChaCha20Rng::seed_from_u64(7);
    let mut client = LokiClient::connect(&handle.base_url(), "alice").unwrap();
    let survey = client.fetch_survey(SurveyId(1)).unwrap();
    let mut answers = BTreeMap::new();
    answers.insert(QuestionId(0), Answer::Rating(5.0));
    answers.insert(QuestionId(1), Answer::Rating(3.0));
    let preview = client
        .preview(&mut rng, &survey, &answers, PrivacyLevel::Medium)
        .unwrap();
    client.submit(preview).unwrap();

    let local = client.local_loss().epsilon.value();
    let http = loki::net::client::HttpClient::new(&handle.base_url()).unwrap();
    let resp = http.get("/v1/ledger/alice").unwrap();
    assert!(resp.status.is_success());
    let info: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
    let remote = info["epsilon"].as_f64().unwrap();
    assert!(
        (local - remote).abs() < 1e-9,
        "local ε {local} != server ε {remote}"
    );
    handle.shutdown();
}

#[test]
fn raw_submission_cannot_reach_storage() {
    // Bypass the app library and POST a raw answer directly: the server
    // must refuse it — the at-source property holds even against a
    // misbehaving client.
    let state = Arc::new(AppState::new());
    state.add_survey(lecturer_survey()).unwrap();
    let handle = serve("127.0.0.1:0", Arc::clone(&state)).unwrap();
    let http = loki::net::client::HttpClient::new(&handle.base_url()).unwrap();

    let body = serde_json::json!({
        "user": "mallory",
        "privacy_level": "none",
        "response": {
            "worker": "mallory",
            "survey": 1,
            "answers": {
                "0": {"Rating": 4.0},
                "1": {"Rating": 2.0},
            }
        },
        "releases": [],
    });
    let resp = http
        .post(
            "/v1/surveys/1/responses",
            "application/json",
            serde_json::to_vec(&body).unwrap(),
        )
        .unwrap();
    assert_eq!(resp.status.0, 422, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(state.submission_count(SurveyId(1)), 0);
    handle.shutdown();
}

#[test]
fn persistence_round_trips_through_disk() {
    let dir = std::env::temp_dir().join(format!("loki-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = Arc::new(AppState::new());
    state
        .attach_journal_lanes(&dir, GroupCommitConfig::default())
        .unwrap();
    state.add_survey(lecturer_survey()).unwrap();
    let handle = serve("127.0.0.1:0", Arc::clone(&state)).unwrap();

    let mut rng = ChaCha20Rng::seed_from_u64(9);
    let users: Vec<String> = (0..5).map(|i| format!("u{i}")).collect();
    for (i, user) in users.iter().enumerate() {
        let mut client = LokiClient::connect(&handle.base_url(), user.clone()).unwrap();
        let survey = client.fetch_survey(SurveyId(1)).unwrap();
        let mut answers = BTreeMap::new();
        answers.insert(QuestionId(0), Answer::Rating(4.0));
        answers.insert(QuestionId(1), Answer::Rating(3.0));
        let preview = client
            .preview(&mut rng, &survey, &answers, PrivacyLevel::ALL[i % 4])
            .unwrap();
        client.submit(preview).unwrap();
    }
    handle.shutdown();
    state.detach_journal();

    // The journal lanes are the only on-disk state: replaying them
    // restores every submission and every ledger as charged: the same
    // release count and the same stored ε, bit for bit.
    let restored = replay_lanes(&dir).unwrap();
    assert_eq!(
        restored.submission_count(SurveyId(1)),
        state.submission_count(SurveyId(1))
    );
    assert_eq!(restored.submission_count(SurveyId(1)), 5);
    for user in &users {
        assert_eq!(
            (
                state.accountant.releases_of(user),
                state.user_loss(user).epsilon.value().to_bits()
            ),
            (
                restored.accountant.releases_of(user),
                restored.user_loss(user).epsilon.value().to_bits()
            ),
            "ledger of {user}"
        );
    }
    assert!(restored.user_loss("u1").epsilon.value() > 0.0);
    std::fs::remove_dir_all(&dir).unwrap();
}
