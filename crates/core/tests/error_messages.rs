//! The `Display` text of every [`PlanError`] and [`LocalError`] variant,
//! pinned: scripts and logs match on these messages, so a rewording is a
//! visible change.

use grout_core::{ArrayId, LocalError, PlanError};
use kernelc::LaunchError;

#[test]
fn every_error_variant_renders_its_pinned_message() {
    let cases: Vec<(Box<dyn std::error::Error>, &str)> = vec![
        (
            Box::new(PlanError::UseAfterFree(ArrayId(5))),
            "CE references array ArrayId(5) after free()",
        ),
        (
            Box::new(PlanError::NoHealthyWorkers),
            "no healthy workers remain after quarantine",
        ),
        (
            Box::new(PlanError::InvalidConfig("zero workers")),
            "invalid runtime configuration: zero workers",
        ),
        (
            Box::new(LocalError::Launch(LaunchError::DivideByZero)),
            "kernel launch failed: integer divide by zero",
        ),
        (
            Box::new(LocalError::LaunchAt(7, LaunchError::EmptyLaunch)),
            "CE #7 failed: grid and block sizes must be non-zero",
        ),
        (
            Box::new(LocalError::Aliased(ArrayId(2))),
            "array ArrayId(2) aliased within one kernel",
        ),
        (
            Box::new(LocalError::UnknownArray(ArrayId(9))),
            "unknown array ArrayId(9)",
        ),
        (
            Box::new(LocalError::BadArgs("expected 2 arguments".into())),
            "bad kernel arguments: expected 2 arguments",
        ),
        (
            Box::new(LocalError::WorkerDied {
                worker: 1,
                at_ce: Some(3),
            }),
            "worker 1 died (in-flight CE Some(3))",
        ),
        (
            Box::new(LocalError::WorkerDied {
                worker: 0,
                at_ce: None,
            }),
            "worker 0 died (in-flight CE None)",
        ),
        (
            Box::new(LocalError::SpawnFailed {
                worker: 2,
                reason: "out of threads".into(),
            }),
            "worker 2 failed to spawn: out of threads",
        ),
        (
            Box::new(LocalError::NoHealthyWorkers),
            "no healthy workers remain",
        ),
        (
            Box::new(LocalError::Unrecoverable {
                array: ArrayId(4),
                version: 6,
            }),
            "array ArrayId(4) version 6 is unrecoverable",
        ),
        (
            Box::new(LocalError::Plan(PlanError::UseAfterFree(ArrayId(1)))),
            "planning failed: CE references array ArrayId(1) after free()",
        ),
        (
            Box::new(LocalError::Membership("join refused".into())),
            "membership change failed: join refused",
        ),
    ];
    for (err, want) in cases {
        assert_eq!(err.to_string(), want);
    }
}
