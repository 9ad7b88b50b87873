//! Tiny hand-rolled JSON emission helpers for snapshots. Only what
//! this crate needs: string escaping and finite float rendering
//! (non-finite floats become `null`).

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub(crate) fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` to `out` as a JSON number, or `null` when non-finite.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut out = String::new();
        push_str_literal(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn floats_render_finite_or_null() {
        let mut out = String::new();
        push_f64(&mut out, 1.5);
        out.push(' ');
        push_f64(&mut out, f64::NAN);
        out.push(' ');
        push_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "1.5 null null");
    }
}
