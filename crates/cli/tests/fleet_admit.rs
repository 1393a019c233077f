//! Conformance for `vc2m admit --hosts N`: the fleet path prints the
//! same stdout and writes the same `--report-out` decision log at one
//! and two threads, with and without an armed fleet fault plan.
//!
//! The serial arm replays the trace on one fleet; the parallel arm
//! routes it first and replays each host on a worker. Both must land
//! on the same bytes, so any drift between the two execution paths
//! shows up here at the CLI surface.

use std::path::PathBuf;
use vc2m_cli::run;

/// A per-test scratch path that is removed on drop.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!("vc2m-fleet-{}-{name}", std::process::id()));
        ScratchFile(path)
    }

    fn as_str(&self) -> &str {
        self.0.to_str().expect("utf8 temp path")
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs `vc2m admit` with `args` plus `--threads threads`, writing the
/// decision log to `report`; returns stdout and the log. Both thread
/// counts reuse one report path, so the `wrote <path>` line matches.
fn admit(args: &[&str], threads: &str, report: &ScratchFile) -> (String, String) {
    let argv: Vec<String> = [
        "admit",
        "--threads",
        threads,
        "--report-out",
        report.as_str(),
    ]
    .iter()
    .chain(args)
    .map(|s| s.to_string())
    .collect();
    let mut buf = Vec::new();
    let code = run(&argv, &mut buf);
    let stdout = String::from_utf8(buf).expect("utf8 output");
    assert_eq!(code, 0, "admit {argv:?} failed:\n{stdout}");
    let log = std::fs::read_to_string(&report.0).expect("report written");
    (stdout, log)
}

/// Asserts both thread counts print and log the same bytes, and that
/// stdout carries `marker` (so the run took the intended path).
fn assert_thread_count_invariant(name: &str, args: &[&str], marker: &str) {
    let report = ScratchFile::new(name);
    let (serial_out, serial_log) = admit(args, "1", &report);
    let (parallel_out, parallel_log) = admit(args, "2", &report);
    assert!(serial_out.contains(marker), "{serial_out}");
    assert!(serial_log.lines().count() >= 120, "{serial_log}");
    assert_eq!(
        parallel_out, serial_out,
        "stdout differs between 1 and 2 threads"
    );
    assert_eq!(
        parallel_log, serial_log,
        "decision log differs between 1 and 2 threads"
    );
}

#[test]
fn fleet_admit_is_thread_count_invariant() {
    assert_thread_count_invariant(
        "plain",
        &["--hosts", "4", "--requests", "120", "--hi-fraction", "0.3"],
        "fleet admission on 4x",
    );
}

#[test]
fn fault_armed_fleet_admit_is_thread_count_invariant() {
    assert_thread_count_invariant(
        "faulted",
        &[
            "--hosts",
            "4",
            "--requests",
            "120",
            "--hi-fraction",
            "0.3",
            "--fleet-fault-seed",
            "9",
            "--fleet-fault-count",
            "3",
        ],
        "faults: 3 injected",
    );
}
