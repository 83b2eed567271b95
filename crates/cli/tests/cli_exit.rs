//! The `reclaim` binary on bad local input and closed pipes: it exits
//! with a message or quietly, never with a panic.

use std::path::PathBuf;
use std::process::{Command, Stdio};

const RECLAIM: &str = env!("CARGO_BIN_EXE_reclaim");

/// Write `reclaim gen <args>` to a fresh file under the temp dir.
fn generated(name: &str, args: &[&str]) -> PathBuf {
    let out = Command::new(RECLAIM)
        .arg("gen")
        .args(args)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen {args:?} failed");
    let path = std::env::temp_dir().join(format!("reclaim-{}-{name}.inst", std::process::id()));
    std::fs::write(&path, out.stdout).unwrap();
    path
}

#[test]
fn a_closed_stdout_ends_solve_quietly() {
    // A 2,000-task chain prints a ~90 KB table, more than a pipe
    // buffer holds, so the writes reach the closed pipe even if the
    // child starts printing before the read end is dropped.
    let inst = generated("pipe", &["chain", "2000", "--procs", "1", "--seed", "1"]);
    let mut child = Command::new(RECLAIM)
        .arg("solve")
        .arg(&inst)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_ne!(out.status.code(), Some(101), "stderr: {stderr}");
    std::fs::remove_file(inst).unwrap();
}

#[test]
fn a_malformed_flag_value_is_named_with_exit_2() {
    let inst = generated("flag", &["chain", "4", "--procs", "1", "--seed", "1"]);
    for (flag, value) in [("--points", "x"), ("--lo", "low"), ("--hi", "1.5.0")] {
        let out = Command::new(RECLAIM)
            .arg("sweep")
            .arg(&inst)
            .args([flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(&format!("{value:?}")),
            "{flag} {value}: the message names the flag and the value: {stderr}"
        );
    }
    std::fs::remove_file(inst).unwrap();
}

#[test]
fn a_missing_or_malformed_gen_flag_value_is_named_with_exit_2() {
    let cases = [
        ("--procs", None),
        ("--procs", Some("x")),
        ("--seed", Some("-1")),
        ("--tightness", Some("tight")),
    ];
    for (flag, value) in cases {
        let out = Command::new(RECLAIM)
            .args(["gen", "fft", "3", flag])
            .args(value)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value:?}: {stderr}");
        let got = value.map_or("got none".to_string(), |v| format!("got {v:?}"));
        assert!(
            stderr.contains(flag) && stderr.contains(&got),
            "{flag} {value:?}: the message names the flag and the value: {stderr}"
        );
    }
}
