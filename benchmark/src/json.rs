//! The one JSON object the benchmark prints: written by hand because the
//! container has no serde, and small enough that a writer is all it needs.

/// One measured metric. Its unit is the registry's business (`main.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, value: f64) -> Self {
        Metric { name, value }
    }
}

/// The result line of the driver's contract:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
/// `metrics` are `(name, value, unit)`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            string(name),
            number(*value),
            string(unit)
        ));
    }
    out.push_str("}}");
    out
}

/// A JSON number with every digit the measurement has. JSON cannot carry NaN
/// or infinities; one reaching this point is a bug in a metric's arithmetic.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    // Rust prints f64 without an exponent and with the shortest digits that
    // round-trip, which is valid JSON as it stands.
    format!("{v}")
}

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_matches_the_contract_shape() {
        let line = result_line(
            true,
            1000,
            0,
            &[("latency_ms", 1.2034, "ms"), ("setup_s", 0.8127, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_their_digits_and_never_use_an_exponent() {
        assert_eq!(number(0.0000001234), "0.0000001234");
        assert_eq!(number(123456789012.5), "123456789012.5");
        assert_eq!(number(3.0), "3");
        // Round-trips through the standard parser.
        for v in [1.0 / 3.0, 5.8e3, 0.1 + 0.2] {
            assert_eq!(number(v).parse::<f64>().unwrap(), v);
        }
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_is_refused() {
        number(f64::NAN);
    }

    #[test]
    fn empty_metric_set_is_still_an_object() {
        assert_eq!(
            result_line(false, 1, 1, &[]),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}"
        );
    }
}
