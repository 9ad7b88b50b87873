//! Chrome `trace_event` export: renders recorded [`Span`]s as the
//! JSON object format `chrome://tracing` and Perfetto load natively.
//!
//! Mapping:
//!
//! - each span becomes one event named after its kind, with the trace
//!   id and all numeric fields under `args`;
//! - `pid` is always 0 (one traced process), `tid` is the span's node
//!   id (so each node gets its own timeline row; node-less spans land
//!   on a synthetic "runtime" row);
//! - instant spans (`start == end`) render as phase `"i"` (thread
//!   scope), measured spans as complete events (`"X"`) with `dur`;
//! - timestamps pass through unscaled. Chrome interprets `ts` as
//!   microseconds; for virtual-clock traces that reads as "one tick =
//!   one microsecond", which keeps relative layout exact.
//!
//! The export location honours the `ACN_TRACE_DIR` environment
//! variable (falling back to `target/trace/` in the workspace).

use std::fs;
use std::io;
use std::path::PathBuf;

use crate::{Span, SYSTEM_TRACE};

/// The timeline row used for spans without a node attribution.
const RUNTIME_TID: u64 = 999_999;

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders `spans` as one Chrome `trace_event` JSON object
/// (`{"traceEvents": [...]}`), ready for `chrome://tracing` or
/// Perfetto.
#[must_use]
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_str(&mut out, span.kind);
        out.push_str(",\"cat\":\"acn\"");
        let tid = span.node.unwrap_or(RUNTIME_TID);
        if span.end > span.start {
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{tid}",
                    span.start,
                    span.end - span.start
                ),
            );
        } else {
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{tid}",
                    span.start
                ),
            );
        }
        out.push_str(",\"args\":{\"seq\":");
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", span.seq));
        if span.trace != SYSTEM_TRACE {
            let _ =
                std::fmt::Write::write_fmt(&mut out, format_args!(",\"trace\":{}", span.trace));
        }
        for (key, value) in &span.fields {
            out.push(',');
            push_json_str(&mut out, key);
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!(":{value}"));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Where trace artifacts go: `$ACN_TRACE_DIR` if set, else
/// `target/trace/` relative to the current directory.
#[must_use]
pub fn artifact_dir() -> PathBuf {
    std::env::var_os("ACN_TRACE_DIR")
        .map_or_else(|| PathBuf::from("target/trace"), PathBuf::from)
}

/// Writes `spans` as `<artifact_dir()>/<name>.trace.json` (creating
/// the directory) and returns the path.
///
/// # Errors
///
/// Any I/O error from creating the directory or writing the file.
pub fn write_artifact(name: &str, spans: &[Span]) -> io::Result<PathBuf> {
    let dir = artifact_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.trace.json"));
    fs::write(&path, to_chrome_json(spans))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_shape_is_stable() {
        let mut measured = Span::new("exec.traverse", 4).between(10, 25).node(1).with("hops", 3);
        measured.seq = 7;
        let mut instant = Span::new("token.exit", 4).at(30).node(2).with("wire", 5);
        instant.seq = 8;
        let json = to_chrome_json(&[measured, instant]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains(
            "{\"name\":\"exec.traverse\",\"cat\":\"acn\",\"ph\":\"X\",\"ts\":10,\"dur\":15,\
             \"pid\":0,\"tid\":1,\"args\":{\"seq\":7,\"trace\":4,\"hops\":3}}"
        ), "{json}");
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\",\"ts\":30"), "{json}");
    }

    #[test]
    fn system_spans_omit_the_trace_arg_and_get_the_runtime_row() {
        let json = to_chrome_json(&[Span::new("net.split", SYSTEM_TRACE).at(1)]);
        assert!(!json.contains("\"trace\":"), "{json}");
        assert!(json.contains("\"tid\":999999"), "{json}");
    }

    #[test]
    fn write_artifact_round_trips() {
        let dir = std::env::temp_dir().join(format!("acn-trace-test-{}", std::process::id()));
        // The env var is process-global; restore it to keep other
        // tests in this binary unaffected.
        let prev = std::env::var_os("ACN_TRACE_DIR");
        std::env::set_var("ACN_TRACE_DIR", &dir);
        let path = write_artifact("unit", &[Span::new("x", 1).at(0)]).expect("write");
        match prev {
            Some(v) => std::env::set_var("ACN_TRACE_DIR", v),
            None => std::env::remove_var("ACN_TRACE_DIR"),
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.contains("\"traceEvents\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
