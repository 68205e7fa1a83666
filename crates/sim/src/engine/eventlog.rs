//! The JSON-lines form of telemetry events: one encoder, one strict
//! decoder, and the log writer.
//!
//! Every event line is one `ltc_telemetry` [`Event`] written by
//! [`encode`] — in an `--events` log ([`JsonLinesWriter`] on a file) and
//! on an `ltsim worker` child's stdout ([`JsonLinesWriter`] on stdout,
//! when the parent sets [`WIRE_ENV`]). Every reader decodes it with
//! [`decode`]: the subprocess backend forwarding a child's events into
//! the parent's stream, and `ltsim events summarize` folding a log into
//! an `ltc_telemetry::Aggregator`. Both directions go through the
//! `serde_json` shim, so the telemetry crate itself carries no JSON code.
//!
//! # Event schema (v1)
//!
//! One JSON object per line:
//!
//! ```json
//! {"v":1,"t":1234,"kind":"span_begin","name":"spec","span":7,"worker":2,"fields":{"label":"coverage/gcc/..."}}
//! ```
//!
//! | key      | type   | meaning                                               |
//! |----------|--------|-------------------------------------------------------|
//! | `v`      | u64    | schema version ([`EVENT_SCHEMA`])                     |
//! | `t`      | u64    | microseconds since the process telemetry epoch        |
//! | `kind`   | string | `span_begin` `span_end` `counter` `gauge` `warning` `point` |
//! | `name`   | string | event name (the aggregation key)                      |
//! | `span`   | u64?   | span id — present on `span_begin`/`span_end`          |
//! | `worker` | u64?   | worker id — present when the emitting thread has one  |
//! | `fields` | object | typed payload (strings, integers, floats, bools)      |
//!
//! A non-finite float is written as `null`, and decodes with its field
//! dropped. An event line always starts with `{"v":` and a worker's
//! `RunResult` line with `{"kind":`, which is how the parent tells the
//! two apart on a child's stdout ([`is_event_line`]).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ltc_telemetry::{Event, EventKind, FieldValue, Subscriber};
use serde::Value;

/// Schema version stamped into every event line (`"v"`).
pub const EVENT_SCHEMA: u64 = 1;

/// Environment variable a parent process sets on `ltsim worker`
/// children to request their events as event lines on stdout,
/// interleaved with (never inside) their result lines.
pub const WIRE_ENV: &str = "LTC_TELEMETRY_WIRE";

/// Serializes an event as one schema-v1 JSON line (no trailing newline).
pub fn encode(event: &Event) -> String {
    let mut line = vec![
        ("v".to_string(), Value::U64(EVENT_SCHEMA)),
        ("t".to_string(), Value::U64(event.t_micros)),
        ("kind".to_string(), Value::Str(event.kind.as_str().to_string())),
        ("name".to_string(), Value::Str(event.name.clone())),
    ];
    if let Some(span) = event.span {
        line.push(("span".to_string(), Value::U64(span)));
    }
    if let Some(worker) = event.worker {
        line.push(("worker".to_string(), Value::U64(worker)));
    }
    let fields = event.fields.iter().map(|(name, value)| {
        let value = match value {
            FieldValue::U64(v) => Value::U64(*v),
            FieldValue::I64(v) => Value::I64(*v),
            FieldValue::F64(v) => Value::F64(*v),
            FieldValue::Str(v) => Value::Str(v.clone()),
            FieldValue::Bool(v) => Value::Bool(*v),
        };
        (name.clone(), value)
    });
    line.push(("fields".to_string(), Value::Map(fields.collect())));
    serde_json::to_string(&Value::Map(line))
}

/// Parses one event line, checking what the nightly CI log validator
/// checks.
///
/// # Errors
///
/// Returns a message for malformed JSON, a schema version other than
/// [`EVENT_SCHEMA`], an unknown `kind`, a missing or empty `name`, a
/// missing `t` or `fields`, a `t`, `span` or `worker` that is not an
/// unsigned integer, and a field holding an array or an object.
pub fn decode(line: &str) -> Result<Event, String> {
    let v = serde_json::parse(line).map_err(|e| e.to_string())?;
    match v.get("v").and_then(Value::as_u64) {
        Some(EVENT_SCHEMA) => {}
        Some(other) => return Err(format!("unsupported event schema v{other}")),
        None => return Err("missing schema version field `v`".to_string()),
    }
    let text = |key: &str| {
        let text = v.get(key).and_then(Value::as_str).filter(|s| !s.is_empty());
        text.ok_or_else(|| format!("missing `{key}`"))
    };
    let integer = |key: &str| {
        let integer = v.get(key).map(Value::as_u64);
        integer.map(|n| n.ok_or_else(|| format!("`{key}` is not an unsigned integer")))
    };
    let kind = text("kind")?;
    let kind = EventKind::parse(kind).ok_or_else(|| format!("unknown event kind `{kind}`"))?;
    let name = text("name")?.to_string();
    let t_micros = integer("t").ok_or("missing `t`")??;
    let span = integer("span").transpose()?;
    let worker = integer("worker").transpose()?;
    let mut fields = Vec::new();
    for (key, value) in v.get("fields").and_then(Value::as_map).ok_or("missing `fields`")? {
        let value = match value {
            Value::U64(n) => FieldValue::U64(*n),
            Value::I64(n) => FieldValue::I64(*n),
            Value::F64(f) => FieldValue::F64(*f),
            Value::Str(s) => FieldValue::Str(s.clone()),
            Value::Bool(b) => FieldValue::Bool(*b),
            // The encoder writes a non-finite float as `null`.
            Value::Null => continue,
            Value::Seq(_) | Value::Map(_) => return Err(format!("field `{key}` is not a scalar")),
        };
        fields.push((key.clone(), value));
    }
    Ok(Event { t_micros, kind, name, span, worker, fields })
}

/// Whether a line from a worker's stdout is an event line (rather than
/// a `RunResult` line).
pub fn is_event_line(line: &str) -> bool {
    line.starts_with("{\"v\":")
}

/// Writes each event as one JSON line. Tracks events and bytes written
/// (`ltsim run --events` reports both when the run ends).
pub struct JsonLinesWriter {
    out: Mutex<Box<dyn Write + Send>>,
    events: AtomicU64,
    bytes: AtomicU64,
}

impl JsonLinesWriter {
    /// Creates (truncating) `path`, and any missing parent directories,
    /// and writes events to it, buffered.
    ///
    /// # Errors
    ///
    /// Propagates directory- and file-creation errors.
    pub fn create(path: &Path) -> io::Result<JsonLinesWriter> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = File::create(path)?;
        Ok(JsonLinesWriter::new(Box::new(BufWriter::new(file))))
    }

    /// Wraps an arbitrary writer (stdout, a Vec for tests, …).
    pub fn new(out: Box<dyn Write + Send>) -> JsonLinesWriter {
        JsonLinesWriter {
            out: Mutex::new(out),
            events: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Events written so far.
    pub fn events_written(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Bytes written so far (including newlines).
    pub fn bytes_written(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl Subscriber for JsonLinesWriter {
    fn event(&self, event: &Event) {
        let mut line = encode(event);
        line.push('\n');
        let mut out = self.out.lock().unwrap();
        if out.write_all(line.as_bytes()).is_ok() {
            self.events.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_telemetry::{counter, gauge, with_subscriber};
    use std::sync::Arc;

    #[test]
    fn json_line_matches_schema_shape() {
        let mut ev = Event {
            t_micros: 42,
            kind: EventKind::SpanBegin,
            name: "spec".to_string(),
            span: Some(7),
            worker: Some(2),
            fields: vec![("label".to_string(), FieldValue::Str("a/b".to_string()))],
        };
        assert_eq!(
            encode(&ev),
            r#"{"v":1,"t":42,"kind":"span_begin","name":"spec","span":7,"worker":2,"fields":{"label":"a/b"}}"#
        );
        ev.span = None;
        ev.worker = None;
        ev.fields = vec![
            ("u".to_string(), FieldValue::U64(1)),
            ("i".to_string(), FieldValue::I64(-2)),
            ("f".to_string(), FieldValue::F64(1.5)),
            ("b".to_string(), FieldValue::Bool(true)),
        ];
        assert_eq!(
            encode(&ev),
            r#"{"v":1,"t":42,"kind":"span_begin","name":"spec","fields":{"u":1,"i":-2,"f":1.5,"b":true}}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let ev = Event {
            t_micros: 0,
            kind: EventKind::Warning,
            name: "w".to_string(),
            span: None,
            worker: None,
            fields: vec![(
                "message".to_string(),
                FieldValue::Str("quote \" slash \\ nl \n ctl \u{1}".to_string()),
            )],
        };
        assert_eq!(
            encode(&ev),
            "{\"v\":1,\"t\":0,\"kind\":\"warning\",\"name\":\"w\",\"fields\":{\"message\":\"quote \\\" slash \\\\ nl \\n ctl \\u0001\"}}"
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let ev = Event {
            t_micros: 0,
            kind: EventKind::Point,
            name: "p".to_string(),
            span: None,
            worker: None,
            fields: vec![("x".to_string(), FieldValue::F64(f64::NAN))],
        };
        assert!(encode(&ev).contains("\"x\":null"));
    }

    /// Every kind, with and without span and worker ids, carrying every
    /// field type and strings that need escaping, decodes to the event
    /// it was encoded from.
    #[test]
    fn every_event_kind_round_trips() {
        let controls: String = (0u32..0x20).filter_map(char::from_u32).collect();
        let awkward = format!("quote \" back \\ slash / {controls} é 日本 🦀");
        let fields = vec![
            ("u".to_string(), FieldValue::U64(u64::MAX)),
            ("i".to_string(), FieldValue::I64(i64::MIN)),
            ("f".to_string(), FieldValue::F64(1.5)),
            ("whole".to_string(), FieldValue::F64(2.0)),
            ("tiny".to_string(), FieldValue::F64(-1e-300)),
            ("s".to_string(), FieldValue::Str(awkward.clone())),
            ("empty".to_string(), FieldValue::Str(String::new())),
            ("t".to_string(), FieldValue::Bool(true)),
            ("f2".to_string(), FieldValue::Bool(false)),
            (awkward.clone(), FieldValue::U64(0)),
        ];
        for kind in [
            EventKind::SpanBegin,
            EventKind::SpanEnd,
            EventKind::Counter,
            EventKind::Gauge,
            EventKind::Warning,
            EventKind::Point,
        ] {
            for (span, worker) in
                [(None, None), (Some(7), None), (None, Some(3)), (Some(0), Some(9))]
            {
                for fields in [Vec::new(), fields.clone()] {
                    let event = Event {
                        t_micros: 123_456,
                        kind,
                        name: format!("{}.{awkward}", kind.as_str()),
                        span,
                        worker,
                        fields,
                    };
                    let line = encode(&event);
                    assert!(!line.contains('\n'), "{line}");
                    assert!(is_event_line(&line), "{line}");
                    assert_eq!(decode(&line), Ok(event), "{line}");
                }
            }
        }
    }

    #[test]
    fn non_finite_floats_decode_with_their_field_dropped() {
        let mut event = Event::now(EventKind::Point, "p");
        event.fields = vec![
            ("nan".to_string(), FieldValue::F64(f64::NAN)),
            ("kept".to_string(), FieldValue::U64(1)),
            ("inf".to_string(), FieldValue::F64(f64::INFINITY)),
            ("neg".to_string(), FieldValue::F64(f64::NEG_INFINITY)),
        ];
        let decoded = decode(&encode(&event)).unwrap();
        assert_eq!(decoded.fields, [("kept".to_string(), FieldValue::U64(1))]);
    }

    /// What the nightly CI validator rejects, the decoder rejects with a
    /// message saying why.
    #[test]
    fn malformed_lines_are_rejected_with_a_message() {
        let cases = [
            ("not json", "invalid literal"),
            (
                r#"{"v":2,"t":1,"kind":"point","name":"x","fields":{}}"#,
                "unsupported event schema v2",
            ),
            (r#"{"t":1,"kind":"point","name":"x","fields":{}}"#, "missing schema version"),
            (r#"{"v":"1","t":1,"kind":"point","name":"x","fields":{}}"#, "missing schema version"),
            (
                r#"{"v":1,"t":1,"kind":"bogus","name":"x","fields":{}}"#,
                "unknown event kind `bogus`",
            ),
            (r#"{"v":1,"t":1,"name":"x","fields":{}}"#, "missing `kind`"),
            (r#"{"v":1,"t":1,"kind":"point","fields":{}}"#, "missing `name`"),
            (r#"{"v":1,"t":1,"kind":"point","name":"","fields":{}}"#, "missing `name`"),
            (r#"{"v":1,"t":1,"kind":"point","name":7,"fields":{}}"#, "missing `name`"),
            (r#"{"v":1,"kind":"point","name":"x","fields":{}}"#, "missing `t`"),
            (r#"{"v":1,"t":-1,"kind":"point","name":"x","fields":{}}"#, "`t` is not"),
            (r#"{"v":1,"t":1.5,"kind":"point","name":"x","fields":{}}"#, "`t` is not"),
            (r#"{"v":1,"t":1,"kind":"point","name":"x"}"#, "missing `fields`"),
            (r#"{"v":1,"t":1,"kind":"point","name":"x","fields":[]}"#, "missing `fields`"),
            (r#"{"v":1,"t":1,"kind":"point","name":"x","span":"7","fields":{}}"#, "`span` is not"),
            (r#"{"v":1,"t":1,"kind":"point","name":"x","span":1.5,"fields":{}}"#, "`span` is not"),
            (
                r#"{"v":1,"t":1,"kind":"point","name":"x","worker":-2,"fields":{}}"#,
                "`worker` is not",
            ),
            (
                r#"{"v":1,"t":1,"kind":"point","name":"x","worker":null,"fields":{}}"#,
                "`worker` is not",
            ),
            (r#"{"v":1,"t":1,"kind":"point","name":"x","fields":{"a":[1]}}"#, "field `a` is not"),
            (r#"{"v":1,"t":1,"kind":"point","name":"x","fields":{"a":{}}}"#, "field `a` is not"),
        ];
        for (line, message) in cases {
            let err = decode(line).expect_err(line);
            assert!(err.contains(message), "{line}: {err}");
        }
    }

    #[test]
    fn json_writer_counts_events_and_bytes() {
        let writer = Arc::new(JsonLinesWriter::new(Box::new(Vec::new())));
        with_subscriber(writer.clone(), || {
            counter("a", 1);
            gauge("b", 2, Vec::new());
        });
        assert_eq!(writer.events_written(), 2);
        assert!(writer.bytes_written() > 40);
        writer.flush();
    }

    #[test]
    fn json_writer_creates_parseable_lines_on_disk() {
        let dir = std::env::temp_dir().join(format!("ltc_eventlog_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // `create` makes the missing directories itself.
        let path = dir.join("new").join("events.jsonl");
        let writer = Arc::new(JsonLinesWriter::create(&path).unwrap());
        with_subscriber(writer.clone(), || {
            counter("hits", 3);
        });
        writer.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("{\"v\":1,"));
        let event = decode(text.trim_end()).unwrap();
        assert_eq!((event.kind, event.name.as_str()), (EventKind::Counter, "hits"));
        assert_eq!(event.field("value"), Some(&FieldValue::U64(3)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
