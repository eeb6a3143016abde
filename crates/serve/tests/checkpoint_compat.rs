//! Checkpoint version compatibility: a future (bumped) version field must
//! surface as a typed resume error — never a panic and never a silent
//! from-scratch re-run. Same-version resume is covered by the service's
//! and the soak campaign's byte-identity tests.

use ppa_graph::gen;
use ppa_serve::{
    ApspCheckpoint, JobKind, JobOutcome, JobSpec, ServeConfig, ServeError, SolveService,
};

fn apsp(resume_from: Option<ppa_obs::Json>) -> JobKind {
    JobKind::Apsp {
        resume_from,
        checkpoint_every: 1,
    }
}

#[test]
fn bumped_checkpoint_version_is_a_typed_error_not_a_rerun() {
    let w = gen::random_connected(6, 0.45, 9, 77);

    // Produce a genuine version-1 checkpoint document, then bump its
    // version field as a future writer would.
    let svc = SolveService::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let full = svc
        .submit(JobSpec::new(w.clone(), apsp(None)))
        .unwrap()
        .wait();
    let JobOutcome::Apsp(doc) = full.outcome.unwrap() else {
        panic!("expected an APSP outcome");
    };
    let mut fields: Vec<(&str, ppa_obs::Json)> = Vec::new();
    let obj = match &doc {
        ppa_obs::Json::Object(pairs) => pairs,
        other => panic!("checkpoint must serialize as an object, got {other:?}"),
    };
    for (k, v) in obj {
        if k == "version" {
            fields.push(("version", 2u64.into()));
        } else {
            fields.push((k.as_str(), v.clone()));
        }
    }
    let bumped = ppa_obs::Json::obj(fields);

    // The parser rejects it outright...
    let err = ApspCheckpoint::from_json(&bumped).unwrap_err();
    assert!(err.contains("version"), "untyped reason: {err}");

    // ...and a resume submission fails *typed*, before any solving: the
    // job must not silently restart the campaign from scratch.
    let report = svc
        .submit(JobSpec::new(w.clone(), apsp(Some(bumped))))
        .unwrap()
        .wait();
    match report.outcome.unwrap_err() {
        ServeError::InvalidResume { reason } => {
            assert!(reason.contains("version"), "{reason}");
        }
        other => panic!("expected InvalidResume, got {other}"),
    }
    assert_eq!(report.attempts, 0, "rejected before any attempt ran");
    let metrics = svc.shutdown();
    assert_eq!(
        metrics.counter("serve.resumes"),
        0,
        "a bad version must never count as a resume"
    );
    assert_eq!(metrics.counter("serve.worker_panics"), 0);
}
