//! The runtime's crash-check census: every read of a partition's health
//! (`SimNetwork::is_crashed`) in the runtime's non-test code is a place that
//! asks whether a partition is reachable. A crash is a term fence on the
//! partition's log — an attempt's write-set, votes and decisions are refused
//! at their append once the term moved — so no health read is needed to
//! catch a late append. What is left asks about reachability: whether to
//! start a body, send a fan-out, serve a read, fold a log or compensate a
//! survivor. Deleting one lowers the pin below; adding one raises it and has
//! to say why the fence does not cover it.

/// `is_crashed(` calls in `crates/runtime/src`, comments and everything from
/// a file's first `#[cfg(test)]` on excluded.
const CRASH_CHECKS: usize = 10;

/// What the census counts, spelled in halves so that this file does not
/// count its own mention.
const CALL: &str = concat!("is_crashed", "(");

/// Crash checks in one source file's non-test code.
fn crash_checks(source: &str) -> usize {
    let code = source.split("#[cfg(test)]").next().unwrap_or(source);
    let lines = code.lines().map(|l| l.split("//").next().unwrap_or(l));
    lines.map(|l| l.matches(CALL).count()).sum()
}

#[test]
fn the_runtimes_crash_checks_only_shrink() {
    // The scanner counts calls, not comments or tests.
    let sample = format!(
        "if net.{CALL}p) {{}}\n// net.{CALL}p)\nlet up = !net.{CALL}q); // {CALL}\n\
         #[cfg(test)]\nmod tests {{ net.{CALL}p); }}"
    );
    assert_eq!(crash_checks(&sample), 2);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/runtime/src");
    let (mut checks, mut files) = (Vec::new(), 0);
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|ext| ext != "rs") {
            continue;
        }
        files += 1;
        let source = std::fs::read_to_string(&path).expect("readable source");
        let n = crash_checks(&source);
        if n > 0 {
            let name = path.file_name().expect("a file").to_string_lossy();
            checks.push((name.into_owned(), n));
        }
    }
    assert!(
        files > 10,
        "only {files} runtime files scanned: wrong directory?"
    );
    checks.sort();
    let total: usize = checks.iter().map(|(_, n)| n).sum();
    assert_eq!(
        total, CRASH_CHECKS,
        "the runtime reads partition health {total} times, pinned at {CRASH_CHECKS}: lower \
         the pin when one goes; a new one must be a reachability question the term fence \
         does not answer: {checks:?}"
    );
}
