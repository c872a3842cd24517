//! `tessel-client search` flag parsing, driven through the real binary with
//! `--dry-run` (the request body is printed, no daemon is contacted).

use std::process::{Command, Output};
use tessel_service::wire::SearchRequest;

fn search(flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tessel-client"))
        .args(["search", "--shape", "v4", "--dry-run"])
        .args(flags)
        .output()
        .expect("run tessel-client")
}

#[test]
fn a_value_that_does_not_parse_is_a_usage_error_naming_its_flag() {
    for flag in [
        "--micro-batches",
        "--max-repetend",
        "--deadline-ms",
        "--priority",
    ] {
        for bad in [&[flag, "5s"][..], &[flag]] {
            let out = search(bad);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{bad:?} sent a body");
            assert!(
                stderr.contains(&format!("error: {flag} ")),
                "{bad:?}: {stderr}"
            );
        }
    }
}

#[test]
fn good_values_reach_the_printed_body() {
    let out = search(&[
        "--micro-batches",
        "6",
        "--max-repetend",
        "3",
        "--deadline-ms",
        "250",
        "--priority",
        "-2",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = String::from_utf8(out.stdout).unwrap();
    let request: SearchRequest = serde_json::from_str(body.trim()).unwrap();
    assert_eq!(request.num_micro_batches, Some(6));
    assert_eq!(request.max_repetend_micro_batches, Some(3));
    assert_eq!(request.deadline_ms, Some(250));
    assert_eq!(request.priority, Some(-2));
    assert_eq!(request.placement.num_devices(), 4);
}
