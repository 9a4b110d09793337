//! Escaping helpers shared by the JSON and Prometheus renderers.
//!
//! The workspace vendors a no-op `serde` stub, so every serializer in the
//! repo is hand-rolled; [`json`] is the one JSON string escaper, used by
//! this crate's renderers and by the sweep lab's summary and telemetry
//! writers, and [`crate::json::parse`] reads its output back.

/// Escapes a string for embedding inside a JSON string literal.
///
/// Escapes `"` and `\`, maps the common control characters to their short
/// forms and any other control character to `\u00XX`.
pub fn json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a `# HELP` line for the Prometheus text exposition format.
///
/// The exposition format requires `\` and line feeds to be escaped in help
/// text.
pub fn prometheus_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_backslashes_and_controls() {
        assert_eq!(json("plain"), "plain");
        assert_eq!(json("a\"b"), "a\\\"b");
        assert_eq!(json("a\\b"), "a\\\\b");
        assert_eq!(json("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json("\u{1}"), "\\u0001");
    }

    #[test]
    fn prometheus_help_escapes_backslash_and_newline_only() {
        assert_eq!(prometheus_help("queue \\depth\nnext"), "queue \\\\depth\\nnext");
        assert_eq!(prometheus_help("quotes \" stay"), "quotes \" stay");
    }
}
