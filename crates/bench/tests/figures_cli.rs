//! The `figures` binary's argument handling: bad input is a usage error
//! (exit code 2 and a message), never a panic.

use std::process::Command;

#[test]
fn unknown_figure_is_a_usage_error_listing_the_valid_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--figure", "99"])
        .output()
        .expect("figures runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown figure 99"), "{stderr}");
    for name in ["3", "14", "space", "cold_open", "joins", "all"] {
        assert!(stderr.contains(name), "valid name {name} missing from: {stderr}");
    }
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("--no-such-flag")
        .output()
        .expect("figures runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
