//! Golden test for `vc2m sweep`: pins the exact stdout of a fixed
//! quick-scale sweep, and with it three stronger guarantees at once —
//! the sweep's determinism across runs, the irrelevance of the thread
//! count and of the analysis cache to the results (only wall-clock may
//! change), and the stability of the rendered table format the
//! figures' tooling parses.

use vc2m_cli::run;

const GOLDEN: &str = "    u*  baseline\n\
\x20 0.20      1.00\n\
\x20 0.40      1.00\n\
\x20 0.60      0.88\n\
\x20 0.80      0.00\n\
\x20 1.00      0.00\n\
\x20 1.20      0.00\n\
\x20 1.40      0.00\n\
\x20 1.60      0.00\n\
\x20 1.80      0.00\n\
\x20 2.00      0.00\n\
breakdown Baseline (existing CSA)                  0.40\n";

/// The same sweep for a heuristic solution: pins the §4.3
/// hypervisor-level heuristic's verdicts, which the baseline golden
/// above never runs.
const FLATTENING_GOLDEN: &str = "    u*   flatten\n\
\x20 0.20      1.00\n\
\x20 0.40      1.00\n\
\x20 0.60      1.00\n\
\x20 0.80      1.00\n\
\x20 1.00      1.00\n\
\x20 1.20      1.00\n\
\x20 1.40      0.62\n\
\x20 1.60      0.00\n\
\x20 1.80      0.00\n\
\x20 2.00      0.00\n\
breakdown Heuristic (flattening)                   1.20\n";

fn run_capture(args: &[&str]) -> (i32, String) {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    let code = run(&argv, &mut buf);
    (code, String::from_utf8(buf).expect("utf8 output"))
}

#[test]
fn sweep_output_matches_golden() {
    let (code, out) = run_capture(&[
        "sweep", "--solution", "baseline", "--seed", "42", "--threads", "2",
    ]);
    assert_eq!(code, 0);
    assert_eq!(out, GOLDEN);
}

#[test]
fn flattening_sweep_output_matches_golden() {
    let (code, out) = run_capture(&[
        "sweep", "--solution", "flattening", "--seed", "42", "--threads", "2",
    ]);
    assert_eq!(code, 0);
    assert_eq!(out, FLATTENING_GOLDEN);
}

#[test]
fn sweep_output_is_invariant_under_thread_count() {
    for threads in ["1", "8"] {
        let (code, out) = run_capture(&[
            "sweep", "--solution", "baseline", "--seed", "42", "--threads", threads,
        ]);
        assert_eq!(code, 0, "threads={threads}");
        assert_eq!(out, GOLDEN, "threads={threads}");
    }
}

#[test]
fn sweep_output_is_invariant_under_no_cache() {
    let (code, out) = run_capture(&[
        "sweep", "--solution", "baseline", "--seed", "42", "--threads", "2", "--no-cache",
    ]);
    assert_eq!(code, 0);
    assert_eq!(out, GOLDEN);
}

#[test]
fn sweep_rejects_zero_threads() {
    let (code, out) = run_capture(&[
        "sweep", "--solution", "baseline", "--seed", "42", "--threads", "0",
    ]);
    assert_eq!(code, 2);
    assert!(
        out.contains("--threads must be at least 1"),
        "unexpected error output: {out}"
    );
}
