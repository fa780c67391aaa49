//! Minimal hand-rolled JSON emission.
//!
//! The workspace builds fully offline with no serialization dependency,
//! so the trace and metrics dumps assemble their JSON by hand. Only the
//! small subset the observability layer needs is implemented: string
//! escaping and ordered objects of scalar/nested values.

use crate::event::ProtocolEvent;
use std::fmt::Write as _;

/// Escape `s` for inclusion in a JSON string literal (quotes not
/// included).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Render one event as a single JSON object (one line, no trailing
/// newline) for the JSON-lines trace format.
#[must_use]
pub fn event_to_json(ev: &ProtocolEvent) -> String {
    let mut s = format!(
        "{{\"type\":\"{}\",\"at_us\":{},\"site\":{},\"proto\":\"{}\"",
        ev.tag(),
        ev.at_us(),
        ev.site(),
        ev.proto().name()
    );
    match ev {
        ProtocolEvent::ForceWrite { record, txn, .. }
        | ProtocolEvent::NonForcedWrite { record, txn, .. } => {
            let _ = write!(s, ",\"record\":\"{}\"", escape(record));
            push_txn(&mut s, *txn);
        }
        ProtocolEvent::MsgSend { to, kind, txn, .. } => {
            let _ = write!(s, ",\"to\":{},\"kind\":\"{}\"", to, escape(kind));
            push_txn(&mut s, *txn);
        }
        ProtocolEvent::MsgRecv {
            from, kind, txn, ..
        } => {
            let _ = write!(s, ",\"from\":{},\"kind\":\"{}\"", from, escape(kind));
            push_txn(&mut s, *txn);
        }
        ProtocolEvent::VoteCast { vote, txn, .. } => {
            let _ = write!(s, ",\"vote\":\"{}\"", escape(vote));
            push_txn(&mut s, *txn);
        }
        ProtocolEvent::DecisionReached { outcome, txn, .. } => {
            let _ = write!(s, ",\"outcome\":\"{}\"", escape(outcome));
            push_txn(&mut s, *txn);
        }
        ProtocolEvent::LogGc {
            released_up_to,
            records_released,
            since_decision_us,
            ..
        } => {
            let _ = write!(
                s,
                ",\"released_up_to\":{released_up_to},\"records_released\":{records_released}"
            );
            if let Some(lat) = since_decision_us {
                let _ = write!(s, ",\"since_decision_us\":{lat}");
            }
        }
        ProtocolEvent::RetryScheduled {
            purpose,
            attempt,
            txn,
            ..
        } => {
            let _ = write!(
                s,
                ",\"purpose\":\"{}\",\"attempt\":{attempt}",
                escape(purpose)
            );
            push_txn(&mut s, *txn);
        }
        ProtocolEvent::BatchCommit { occupancy, .. } => {
            let _ = write!(s, ",\"occupancy\":{occupancy}");
        }
        ProtocolEvent::AdmissionShed {
            txn,
            inflight,
            limit,
            ..
        } => {
            push_txn(&mut s, *txn);
            let _ = write!(s, ",\"inflight\":{inflight},\"limit\":{limit}");
        }
        ProtocolEvent::CrashObserved { .. } => {}
        ProtocolEvent::RecoveryStep { detail, .. } => {
            let _ = write!(s, ",\"detail\":\"{}\"", escape(detail));
        }
    }
    s.push('}');
    s
}

fn push_txn(s: &mut String, txn: Option<u64>) {
    if let Some(t) = txn {
        let _ = write!(s, ",\"txn\":{t}");
    }
}

/// A scalar value of a flat trace-line object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonValue {
    /// An unsigned integer (the only number shape the trace format
    /// emits).
    Num(u64),
    /// A string, unescaped.
    Str(String),
}

impl JsonValue {
    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            JsonValue::Str(_) => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Num(_) => None,
            JsonValue::Str(s) => Some(s),
        }
    }
}

/// Parse one *flat* JSON object line — the exact subset
/// [`event_to_json`] emits: string keys mapped to unsigned integers or
/// strings, no nesting, no arrays, no floats. This is the trace
/// replayer's inverse of the emission above; keeping both in this
/// module keeps the dialect honest without a serialization dependency.
///
/// Returns `None` on anything outside that subset (malformed input, a
/// nested value, a negative number).
#[must_use]
pub fn parse_flat_json(line: &str) -> Option<std::collections::BTreeMap<String, JsonValue>> {
    let mut out = std::collections::BTreeMap::new();
    let mut chars = line.trim().chars().peekable();

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
        while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            chars.next();
        }
    }

    fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
        if chars.next()? != '"' {
            return None;
        }
        let mut s = String::new();
        loop {
            match chars.next()? {
                '"' => return Some(s),
                '\\' => match chars.next()? {
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    '/' => s.push('/'),
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            code = code * 16 + chars.next()?.to_digit(16)?;
                        }
                        s.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c => s.push(c),
            }
        }
    }

    skip_ws(&mut chars);
    if chars.next()? != '{' {
        return None;
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        skip_ws(&mut chars);
        return chars.next().is_none().then_some(out);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next()? != ':' {
            return None;
        }
        skip_ws(&mut chars);
        let value = match chars.peek()? {
            '"' => JsonValue::Str(parse_string(&mut chars)?),
            c if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some(d) = chars.peek().and_then(|c| c.to_digit(10)) {
                    n = n.checked_mul(10)?.checked_add(u64::from(d))?;
                    chars.next();
                }
                JsonValue::Num(n)
            }
            _ => return None, // nested / non-scalar: outside the dialect
        };
        out.insert(key, value);
        skip_ws(&mut chars);
        match chars.next()? {
            ',' => {}
            '}' => break,
            _ => return None,
        }
    }
    skip_ws(&mut chars);
    chars.next().is_none().then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProtoLabel;

    #[test]
    fn escaping() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn event_lines_are_valid_objects() {
        let e = ProtocolEvent::MsgSend {
            at_us: 1200,
            site: 0,
            proto: ProtoLabel::PrAny,
            to: 2,
            kind: "prepare",
            txn: Some(1),
        };
        assert_eq!(
            event_to_json(&e),
            "{\"type\":\"msg_send\",\"at_us\":1200,\"site\":0,\"proto\":\"PrAny\",\
             \"to\":2,\"kind\":\"prepare\",\"txn\":1}"
        );
    }

    #[test]
    fn parse_round_trips_emitted_events() {
        let e = ProtocolEvent::RecoveryStep {
            at_us: 42,
            site: 1,
            proto: ProtoLabel::PrC,
            detail: "answer inquiry t7: \"abort\"\n".to_string(),
        };
        let m = parse_flat_json(&event_to_json(&e)).expect("parse");
        assert_eq!(m["type"].as_str(), Some("recovery_step"));
        assert_eq!(m["at_us"].as_u64(), Some(42));
        assert_eq!(m["detail"].as_str(), Some("answer inquiry t7: \"abort\"\n"));
    }

    #[test]
    fn parse_rejects_out_of_dialect_input() {
        assert!(parse_flat_json("{}").is_some());
        assert!(parse_flat_json("not json").is_none());
        assert!(parse_flat_json("{\"a\":1} trailing").is_none());
        assert!(parse_flat_json("{\"a\":{\"nested\":1}}").is_none());
        assert!(parse_flat_json("{\"a\":-1}").is_none());
        assert!(parse_flat_json("{\"a\":[1]}").is_none());
        assert!(parse_flat_json("{\"a\"").is_none());
    }

    #[test]
    fn gc_event_carries_latency() {
        let e = ProtocolEvent::LogGc {
            at_us: 5000,
            site: 0,
            proto: ProtoLabel::PrN,
            released_up_to: 4,
            records_released: 3,
            since_decision_us: Some(800),
        };
        let line = event_to_json(&e);
        assert!(line.contains("\"records_released\":3"));
        assert!(line.contains("\"since_decision_us\":800"));
    }
}
