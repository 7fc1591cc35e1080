//! OBS-1 / OBS-2 — submit-path overhead of the observability layer.
//!
//! The `loki-obs` instruments (atomic counters + fixed-bucket histograms)
//! are designed to cost a handful of atomic ops per submission. This
//! microbench drives `AppState::submit` directly — no network, no WAL —
//! across four variants and reports median overheads:
//!
//! * **OBS-1**: metrics disabled vs enabled (instruments + ε-audit).
//! * **OBS-2**: instrumented vs instrumented-and-traced, in two postures.
//!   Every traced submission starts a trace, installs the thread-local
//!   context and finishes the trace — the per-request work `mount()`
//!   does. With recording off (`TraceConfig::disabled()`) no span buffer
//!   exists. With the server's own `TraceConfig::default()` every trace
//!   records its `apply` and `ack` spans into the thread's reused buffer,
//!   and the 1-in-16 sampled ones are retained.
//!
//! The acceptance bar is <5% for each step on this path.

use loki_bench::{banner, f, median, n, Table};
use loki_core::privacy_level::PrivacyLevel;
use loki_dp::accountant::ReleaseKind;
use loki_obs::{TraceConfig, Tracer};
use loki_server::store::AppState;
use loki_survey::question::{Answer, QuestionKind};
use loki_survey::response::Response;
use loki_survey::survey::{Survey, SurveyBuilder, SurveyId};
use loki_survey::QuestionId;
use std::time::{Duration, Instant};

const USERS: usize = 2_000;
const TRIALS: usize = 11;

fn survey() -> Survey {
    let mut b = SurveyBuilder::new(SurveyId(1), "bench");
    b.question("rate", QuestionKind::likert5(), false);
    b.build().expect("static survey")
}

fn releases() -> Vec<(String, ReleaseKind)> {
    vec![(
        "survey-1/q0".into(),
        ReleaseKind::Gaussian {
            sigma: 1.0,
            sensitivity: 4.0,
        },
    )]
}

/// One batch: a fresh state, `USERS` distinct submissions. With a tracer,
/// each submission pays the full per-request tracing protocol (start,
/// thread-local install, finish) exactly as the HTTP layer does.
fn run_batch(instrumented: bool, tracer: Option<&Tracer>) -> Duration {
    let state = AppState::new();
    state.add_survey(survey()).unwrap();
    if instrumented {
        state.enable_metrics();
    }
    let rel = releases();
    let start = Instant::now();
    for i in 0..USERS {
        let user = format!("u{i}");
        let mut r = Response::new(user.clone(), SurveyId(1));
        r.answer(QuestionId(0), Answer::Obfuscated(4.0));
        match tracer {
            Some(tracer) => {
                let trace = tracer.start();
                {
                    let _guard = loki_obs::trace::set_current(trace.ctx());
                    state
                        .submit(&user, PrivacyLevel::Medium, r, &rel)
                        .expect("bench submission");
                }
                tracer.finish(trace);
            }
            None => {
                state
                    .submit(&user, PrivacyLevel::Medium, r, &rel)
                    .expect("bench submission");
            }
        }
    }
    start.elapsed()
}

fn verdict(label: &str, overhead: f64) {
    println!("{label}: {overhead:+.2}% per submission");
    if overhead < 5.0 {
        println!("PASS: within the <5% budget");
    } else {
        println!("WARN: above the 5% budget on this run/host");
    }
}

fn main() {
    print!(
        "{}",
        banner(
            "OBS-1/OBS-2",
            "observability + tracing overhead on the submit path",
            "neither metrics nor compiled-in tracing may tax serving (<5% each)",
        )
    );

    let disabled = Tracer::new(0xbe6c, TraceConfig::disabled());
    let server_default = Tracer::new(0xbe6c, TraceConfig::default());

    // Warm-up interleaved so no variant benefits from cache state.
    let mut off = Vec::with_capacity(TRIALS);
    let mut on = Vec::with_capacity(TRIALS);
    let mut traced = Vec::with_capacity(TRIALS);
    let mut recorded = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        off.push(run_batch(false, None));
        on.push(run_batch(true, None));
        traced.push(run_batch(true, Some(&disabled)));
        recorded.push(run_batch(true, Some(&server_default)));
    }
    let off_med = median(&mut off);
    let on_med = median(&mut on);
    let traced_med = median(&mut traced);
    let recorded_med = median(&mut recorded);

    let per_off = off_med.as_nanos() as f64 / USERS as f64;
    let per_on = on_med.as_nanos() as f64 / USERS as f64;
    let per_traced = traced_med.as_nanos() as f64 / USERS as f64;
    let per_recorded = recorded_med.as_nanos() as f64 / USERS as f64;

    let mut t = Table::new(&["variant", "submits", "median batch ms", "ns/submit"]);
    t.row(&[
        "uninstrumented".into(),
        n(USERS),
        f(off_med.as_secs_f64() * 1e3),
        f(per_off),
    ]);
    t.row(&[
        "instrumented".into(),
        n(USERS),
        f(on_med.as_secs_f64() * 1e3),
        f(per_on),
    ]);
    t.row(&[
        "traced (recording off)".into(),
        n(USERS),
        f(traced_med.as_secs_f64() * 1e3),
        f(per_traced),
    ]);
    t.row(&[
        "traced (server default)".into(),
        n(USERS),
        f(recorded_med.as_secs_f64() * 1e3),
        f(per_recorded),
    ]);
    println!("{}", t.render());
    assert!(
        disabled.is_empty(),
        "recording-off tracer must retain nothing"
    );
    verdict("OBS-1 metrics overhead", (per_on / per_off - 1.0) * 100.0);
    verdict(
        "OBS-2 tracing overhead (sampling off, vs instrumented)",
        (per_traced / per_on - 1.0) * 100.0,
    );
    verdict(
        "OBS-2 tracing overhead (server default, vs instrumented)",
        (per_recorded / per_on - 1.0) * 100.0,
    );
}
