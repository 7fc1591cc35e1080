//! # loki-client — the app-side library
//!
//! The Rust equivalent of the paper's iPhone/Android app (Fig. 1): it
//! lists surveys, lets the user pick a privacy level, obfuscates answers
//! **locally** and uploads only the noisy values. The noise is drawn once,
//! in [`LokiClient::preview`], and [`LokiClient::submit`] uploads exactly
//! the draw the user was shown; raw answers are never serialized — that
//! is the at-source property the whole design exists for — and the client
//! keeps its own local ledger mirror so a user can see their cumulative
//! loss without trusting the server.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use loki_core::obfuscate::{ObfuscationError, Obfuscator};
use loki_core::privacy_level::PrivacyLevel;
use loki_dp::accountant::{ReleaseKind, UserLedger};
use loki_dp::params::PrivacyLoss;
use loki_net::client::{ClientError, HttpClient};
use loki_rng::ChaCha20Rng;
use loki_survey::question::Answer;
use loki_survey::response::Response;
use loki_survey::survey::{Survey, SurveyId};
use loki_survey::QuestionId;
use serde::de::DeserializeOwned;
use serde::Deserialize;
use std::collections::BTreeMap;

/// Client-side errors.
#[derive(Debug)]
pub enum LokiError {
    /// Transport failure.
    Http(ClientError),
    /// The server answered with an unexpected status/body.
    Api(String),
    /// Local obfuscation failed.
    Obfuscation(ObfuscationError),
}

impl std::fmt::Display for LokiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LokiError::Http(e) => write!(f, "http: {e}"),
            LokiError::Api(e) => write!(f, "api: {e}"),
            LokiError::Obfuscation(e) => write!(f, "obfuscation: {e}"),
        }
    }
}

impl std::error::Error for LokiError {}

impl From<ClientError> for LokiError {
    fn from(e: ClientError) -> Self {
        LokiError::Http(e)
    }
}

impl From<ObfuscationError> for LokiError {
    fn from(e: ObfuscationError) -> Self {
        LokiError::Obfuscation(e)
    }
}

/// A survey row as shown in the app's list screen.
#[derive(Debug, Clone, Deserialize)]
pub struct SurveyListItem {
    /// Survey id.
    pub id: u64,
    /// Title.
    pub title: String,
    /// Question count.
    pub questions: usize,
    /// Reward in cents.
    pub reward_cents: u32,
}

/// What a submission returned.
#[derive(Debug, Clone, Deserialize)]
pub struct SubmitOutcome {
    /// Responses the server now holds for the survey.
    pub stored: usize,
    /// Server-tracked cumulative ε (None = unbounded).
    pub cumulative_epsilon: Option<f64>,
}

/// A preview of what would be uploaded — the Fig. 1(c) screen — holding
/// the one noise draw that [`LokiClient::submit`] sends.
#[derive(Debug, Clone, PartialEq)]
pub struct UploadPreview {
    /// (question, raw answer, obfuscated answer) triples.
    pub items: Vec<(QuestionId, Answer, Answer)>,
    level: PrivacyLevel,
    upload: Response,
    releases: Vec<(String, ReleaseKind)>,
}

/// The Loki app session for one user.
#[derive(Debug)]
pub struct LokiClient {
    http: HttpClient,
    user: String,
    local_ledger: UserLedger,
}

impl LokiClient {
    /// Connects a user session to a server base URL.
    pub fn connect(base_url: &str, user: impl Into<String>) -> Result<LokiClient, LokiError> {
        Ok(LokiClient {
            http: HttpClient::new(base_url)?,
            user: user.into(),
            local_ledger: UserLedger::new(),
        })
    }

    /// Maps a non-success response to an error. When the server stamped
    /// the response with a trace id, the error carries it so a user
    /// report can be joined to the server-side span tree.
    fn api_error(what: &str, resp: &loki_net::http::Response) -> LokiError {
        match resp.headers.get(loki_net::http::TRACE_ID_HEADER) {
            Some(trace) => LokiError::Api(format!(
                "{what} failed: {} [trace {trace}]",
                resp.status
            )),
            None => LokiError::Api(format!("{what} failed: {}", resp.status)),
        }
    }

    /// Lists available surveys (Fig. 1(a)).
    pub fn list_surveys(&self) -> Result<Vec<SurveyListItem>, LokiError> {
        let resp = self.http.get("/v1/surveys")?;
        if !resp.status.is_success() {
            return Err(Self::api_error("list", &resp));
        }
        parse_json_response(&resp)
    }

    /// Fetches a full survey definition.
    pub fn fetch_survey(&self, id: SurveyId) -> Result<Survey, LokiError> {
        let resp = self.http.get(&format!("/v1/surveys/{}", id.0))?;
        if !resp.status.is_success() {
            return Err(Self::api_error("fetch", &resp));
        }
        parse_json_response(&resp)
    }

    /// Obfuscates raw answers locally and shows what would upload —
    /// without uploading. This is the screen that made trial users "feel
    /// comfortable that their privacy was protected" (§3.2); passing the
    /// preview to [`submit`](Self::submit) uploads what it shows.
    pub fn preview(
        &self,
        rng: &mut ChaCha20Rng,
        survey: &Survey,
        raw_answers: &BTreeMap<QuestionId, Answer>,
        level: PrivacyLevel,
    ) -> Result<UploadPreview, LokiError> {
        let raw = self.assemble(survey, raw_answers);
        let (upload, releases) = Obfuscator::new(level).obfuscate_response(rng, survey, &raw)?;
        let items = survey
            .questions
            .iter()
            .map(|q| {
                (
                    q.id,
                    raw.get(q.id).expect("complete").clone(),
                    upload.get(q.id).expect("complete").clone(),
                )
            })
            .collect();
        Ok(UploadPreview {
            items,
            level,
            upload,
            releases,
        })
    }

    /// Uploads a preview's obfuscated answers and declared releases — the
    /// very draw the preview shows; its raw answers are never serialized.
    pub fn submit(&mut self, preview: UploadPreview) -> Result<SubmitOutcome, LokiError> {
        let UploadPreview {
            level,
            upload,
            releases,
            ..
        } = preview;

        // Mirror into the local ledger before upload: the user's view of
        // their loss must not depend on the server acknowledging.
        for (_, kind) in &releases {
            self.local_ledger.record(*kind);
        }

        let body = serde_json::json!({
            "user": self.user,
            "privacy_level": level,
            "response": upload,
            "releases": releases,
        });
        let resp = self.http.post(
            &format!("/v1/surveys/{}/responses", upload.survey.0),
            "application/json",
            serde_json::to_vec(&body).map_err(|e| LokiError::Api(e.to_string()))?,
        )?;
        if !resp.status.is_success() {
            let trace = resp
                .headers
                .get(loki_net::http::TRACE_ID_HEADER)
                .map(|id| format!(" [trace {id}]"))
                .unwrap_or_default();
            return Err(LokiError::Api(format!(
                "submit failed ({}): {}{trace}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            )));
        }
        parse_json_response(&resp)
    }

    /// The locally-tracked cumulative loss (no server round-trip).
    pub fn local_loss(&self) -> PrivacyLoss {
        self.local_ledger.tight_loss()
    }

    fn assemble(&self, survey: &Survey, answers: &BTreeMap<QuestionId, Answer>) -> Response {
        let mut r = Response::new(self.user.clone(), survey.id);
        for (q, a) in answers {
            r.answer(*q, a.clone());
        }
        r
    }
}

/// Deserializes a JSON response body.
fn parse_json_response<T: DeserializeOwned>(
    response: &loki_net::http::Response,
) -> Result<T, LokiError> {
    serde_json::from_slice(&response.body).map_err(|e| {
        LokiError::Api(format!("invalid JSON response ({}): {e}", response.status))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_survey::question::QuestionKind;
    use loki_survey::survey::SurveyBuilder;
    use std::sync::PoisonError;

    fn survey() -> Survey {
        let mut b = SurveyBuilder::new(SurveyId(1), "t");
        b.question("rate", QuestionKind::likert5(), false);
        b.build().unwrap()
    }

    #[test]
    fn non_json_response_is_an_api_error() {
        use loki_net::http::{Response as HttpResponse, StatusCode};
        let resp = HttpResponse::text(StatusCode::OK, "not-json");
        match parse_json_response::<SurveyListItem>(&resp) {
            Err(LokiError::Api(msg)) => assert!(msg.contains("invalid JSON response"), "{msg}"),
            other => panic!("expected an Api error, got {other:?}"),
        }
    }

    #[test]
    fn preview_pairs_raw_and_noisy() {
        let client = LokiClient::connect("http://127.0.0.1:1", "u").unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let mut answers = BTreeMap::new();
        answers.insert(QuestionId(0), Answer::Rating(4.0));
        let p = client
            .preview(&mut rng, &survey(), &answers, PrivacyLevel::High)
            .unwrap();
        assert_eq!(p.items.len(), 1);
        let (_, raw, noisy) = &p.items[0];
        assert_eq!(raw, &Answer::Rating(4.0));
        assert!(noisy.is_obfuscated());
        assert_ne!(noisy.as_f64(), raw.as_f64());
    }

    #[test]
    fn local_ledger_tracks_without_server() {
        // Nothing listens on port 1: the upload fails, but the local
        // ledger was charged before it was attempted.
        let mut client = LokiClient::connect("http://127.0.0.1:1", "u").unwrap();
        assert_eq!(client.local_loss(), PrivacyLoss::ZERO);
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let mut answers = BTreeMap::new();
        answers.insert(QuestionId(0), Answer::Rating(4.0));
        let preview = client
            .preview(&mut rng, &survey(), &answers, PrivacyLevel::Medium)
            .unwrap();
        let sent = client.submit(preview);
        assert!(matches!(sent, Err(LokiError::Http(_))));
        assert!(client.local_loss().epsilon.value() > 0.0);
    }

    #[test]
    fn bad_url_rejected() {
        assert!(LokiClient::connect("nope://x", "u").is_err());
    }

    /// A mock backend built on loki-net directly (not loki-server), which
    /// captures the submit body so tests can inspect exactly what crossed
    /// the wire.
    fn mock_server() -> (
        loki_net::server::ServerHandle,
        std::sync::Arc<std::sync::Mutex<Vec<serde_json::Value>>>,
    ) {
        use loki_net::http::{Response as HttpResponse, StatusCode};
        use loki_net::router::Router;
        use loki_net::server::{Server, ServerConfig};
        let captured = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut router = Router::new();
        router.get("/v1/surveys", |_, _| {
            HttpResponse::json_bytes(
                StatusCode::OK,
                serde_json::to_vec(&serde_json::json!([
                    {"id": 1, "title": "mock", "questions": 1, "reward_cents": 2}
                ]))
                .unwrap(),
            )
        });
        router.get("/v1/surveys/1", |_, _| {
            let mut b = SurveyBuilder::new(SurveyId(1), "mock");
            b.question("rate", QuestionKind::likert5(), false);
            HttpResponse::json_bytes(
                StatusCode::OK,
                serde_json::to_vec(&b.build().unwrap()).unwrap(),
            )
        });
        let sink = std::sync::Arc::clone(&captured);
        router.post("/v1/surveys/1/responses", move |req, _| {
            let body: serde_json::Value = serde_json::from_slice(&req.body).unwrap();
            sink.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(body);
            HttpResponse::json_bytes(
                StatusCode::CREATED,
                serde_json::to_vec(&serde_json::json!({
                    "stored": 1, "cumulative_epsilon": 24.4
                }))
                .unwrap(),
            )
        });
        let handle = Server::spawn("127.0.0.1:0", router, ServerConfig::default()).unwrap();
        (handle, captured)
    }

    #[test]
    fn list_and_fetch_parse_the_wire_format() {
        let (handle, _) = mock_server();
        let client = LokiClient::connect(&handle.base_url(), "u").unwrap();
        let list = client.list_surveys().unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].title, "mock");
        let survey = client.fetch_survey(SurveyId(1)).unwrap();
        assert_eq!(survey.len(), 1);
        handle.shutdown();
    }

    #[test]
    fn submit_sends_only_obfuscated_values_on_the_wire() {
        let (handle, captured) = mock_server();
        let mut client = LokiClient::connect(&handle.base_url(), "alice").unwrap();
        let survey = client.fetch_survey(SurveyId(1)).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let mut answers = BTreeMap::new();
        answers.insert(QuestionId(0), Answer::Rating(4.0));
        let preview = client
            .preview(&mut rng, &survey, &answers, PrivacyLevel::High)
            .unwrap();
        let shown = preview.items[0].2.as_f64().unwrap();
        let outcome = client.submit(preview).unwrap();
        assert_eq!(outcome.stored, 1);

        let bodies = captured.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(bodies.len(), 1);
        let body = &bodies[0];
        assert_eq!(body["user"], "alice");
        assert_eq!(body["privacy_level"], "high");
        // The wire carries an Obfuscated variant, never a raw Rating.
        let answer = &body["response"]["answers"]["0"];
        assert!(answer.get("Obfuscated").is_some(), "wire answer: {answer}");
        let v = answer["Obfuscated"].as_f64().unwrap();
        assert_ne!(v, 4.0, "wire value equals the raw answer");
        // The upload is the draw the preview showed, not a fresh one.
        assert_eq!(v.to_bits(), shown.to_bits(), "uploaded {v}, previewed {shown}");
        // Declared releases match the level.
        assert_eq!(body["releases"][0][1]["Gaussian"]["sigma"], 2.0);
        handle.shutdown();
    }

    #[test]
    fn server_error_bodies_surface_in_the_error() {
        use loki_net::http::{Response as HttpResponse, StatusCode};
        use loki_net::router::Router;
        use loki_net::server::{Server, ServerConfig};
        let mut router = Router::new();
        router.get("/v1/surveys", |_, _| {
            let mut resp = HttpResponse::text(StatusCode::INTERNAL_ERROR, "boom");
            resp.headers
                .insert(loki_net::http::TRACE_ID_HEADER, "00000000000000ab");
            resp
        });
        let handle = Server::spawn("127.0.0.1:0", router, ServerConfig::default()).unwrap();
        let client = LokiClient::connect(&handle.base_url(), "u").unwrap();
        match client.list_surveys() {
            Err(LokiError::Api(msg)) => {
                assert!(msg.contains("500"), "{msg}");
                // The server's trace id surfaces in the user-facing error.
                assert!(msg.contains("[trace 00000000000000ab]"), "{msg}");
            }
            other => panic!("expected Api error, got {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn submissions_are_never_retried() {
        use loki_net::http::{Response as HttpResponse, StatusCode};
        use loki_net::router::Router;
        use loki_net::server::{Server, ServerConfig};
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A backend that answers every submit with a retryable-looking
        // 503 and counts how many arrived.
        let arrived = std::sync::Arc::new(AtomicUsize::new(0));
        let counter = std::sync::Arc::clone(&arrived);
        let mut router = Router::new();
        router.post("/v1/surveys/1/responses", move |_, _| {
            counter.fetch_add(1, Ordering::SeqCst);
            HttpResponse::text(StatusCode::SERVICE_UNAVAILABLE, "busy")
        });
        let handle = Server::spawn("127.0.0.1:0", router, ServerConfig::default()).unwrap();
        let mut client = LokiClient::connect(&handle.base_url(), "u").unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(9);
        let mut answers = BTreeMap::new();
        answers.insert(QuestionId(0), Answer::Rating(4.0));
        let preview = client
            .preview(&mut rng, &survey(), &answers, PrivacyLevel::Low)
            .unwrap();
        match client.submit(preview) {
            Err(LokiError::Api(msg)) => assert!(msg.contains("503"), "{msg}"),
            other => panic!("expected the 503 to surface, got {other:?}"),
        }
        handle.shutdown();
        assert_eq!(arrived.load(Ordering::SeqCst), 1, "submit must not retry");
    }

    #[test]
    fn incomplete_answers_fail_locally() {
        // An incomplete answer set must fail in obfuscation, before
        // there is anything to submit (the URL here points nowhere).
        let client = LokiClient::connect("http://127.0.0.1:1", "u").unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let answers = BTreeMap::new();
        match client.preview(&mut rng, &survey(), &answers, PrivacyLevel::Low) {
            Err(LokiError::Obfuscation(_)) => {}
            other => panic!("expected local obfuscation failure, got {other:?}"),
        }
    }
}
