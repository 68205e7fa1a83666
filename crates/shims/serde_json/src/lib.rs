//! Offline functional stand-in for `serde_json`.
//!
//! Writes and parses standard JSON over the `serde` shim's [`Value`]
//! tree. Output is canonical: map entries keep insertion order, equal
//! values produce byte-identical strings, and everything fits on one
//! line (JSON-lines friendly — the experiment engine's `results/`
//! artifacts are one object per line).
//!
//! The writer and the parser run in time linear in their input: each
//! escape-free run of a string is copied in one piece. Like the real
//! crate, the parser refuses input nested deeper than 128
//! arrays/objects with an [`Error`] rather than recursing until the
//! stack overflows.
//!
//! Deviations from the real crate, all irrelevant to the workspace's
//! artifacts: no pretty printer, non-finite floats serialize as `null`
//! (real serde_json errors), and numbers only distinguish
//! unsigned/signed/float (no arbitrary precision).

use std::fmt::Write as _;

pub use serde::DeError as Error;
use serde::{Deserialize, Serialize, Value};

/// Serializes any [`Serialize`] type to its canonical [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(v: &T) -> Value {
    v.to_value()
}

/// Serializes to a compact, canonical, single-line JSON string.
pub fn to_string<T: Serialize + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &v.to_value());
    out
}

/// Parses a JSON string into any [`Deserialize`] type.
pub fn from_str<T: for<'de> Deserialize<'de>>(s: &str) -> Result<T, Error> {
    T::from_value(&parse(s)?)
}

/// Parses a JSON string into a raw [`Value`] tree.
///
/// # Errors
///
/// Returns an [`Error`] for malformed input, trailing input, or arrays
/// and objects nested more than 128 levels deep.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser { src: s, bytes: s.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

/// The deepest nesting of arrays and objects [`parse`] accepts (the real
/// crate's default recursion limit). Deeper input is an [`Error`], so a
/// hostile line cannot overflow the parser's stack.
const MAX_DEPTH: usize = 128;

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(f) => {
            if f.is_finite() {
                // `{:?}` is Rust's shortest round-trip float form and is
                // valid JSON for finite values (always digits, ., e).
                let _ = write!(out, "{f:?}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    // Copy each escape-free run in one piece; every byte that needs an
    // escape is ASCII, so each run ends on a char boundary.
    while let Some(at) = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Recursive-descent parser. `pos` only ever rests on a char boundary
/// of `src`: it advances over ASCII bytes, or past a whole escape-free
/// run that ends at an ASCII `"` or `\`.
struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!("expected `{}` at byte {}", b as char, self.pos)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::seq),
            Some(b'{') => self.nested(Self::map),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(Error(format!("unexpected input at byte {}", self.pos))),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the escape-free run up to the next `"` or `\` in one
            // piece; both are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error("unterminated string".into()))?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .src
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| Error("truncated \\u escape".into()))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| Error("invalid \\u escape".into()))?;
                    // Surrogate pairs are not produced by the writer;
                    // map lone surrogates to the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                _ => return Err(Error("invalid escape".into())),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if !float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>().map(Value::F64).map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn values_round_trip_through_text() {
        // Every control character, both escaped delimiters and `/`.
        let controls: String =
            (0u32..0x20).filter_map(char::from_u32).chain(['"', '\\', '/']).collect();
        let v = Value::Map(vec![
            ("name".into(), Value::Str("lt-cords \"A\"\n".into())),
            (controls.clone(), Value::Str(controls)),
            ("count".into(), Value::U64(18446744073709551615)),
            ("delta".into(), Value::I64(-42)),
            ("ratio".into(), Value::F64(0.6875)),
            ("flags".into(), Value::Seq(vec![Value::Bool(true), Value::Null])),
            ("empty".into(), Value::Map(vec![])),
        ]);
        let text = to_string(&v);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn output_is_single_line_and_canonical() {
        let v = Value::Map(vec![("b".into(), Value::U64(1)), ("a".into(), Value::U64(2))]);
        let text = to_string(&v);
        assert_eq!(text, "{\"b\":1,\"a\":2}");
        assert!(!text.contains('\n'));
        // Canonical: serializing twice gives identical bytes.
        assert_eq!(text, to_string(&v));
    }

    #[test]
    fn writer_escapes_exactly_what_needs_escaping() {
        let s = "run \"q\" \\ \n\r\t\u{1}\u{1f} \u{7f}\u{e9}\u{1f600} end";
        assert_eq!(
            to_string(&Value::Str(s.into())),
            "\"run \\\"q\\\" \\\\ \\n\\r\\t\\u0001\\u001f \u{7f}\u{e9}\u{1f600} end\""
        );
        let long = "AZaz09+/".repeat(50_000);
        assert_eq!(to_string(&Value::Str(long.clone())), format!("\"{long}\""));
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"k\" : [ 1 , -2 , 3.5 , \"a\\u0041\\n\\/\\b\\f\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap().as_seq().unwrap(),
            &[Value::U64(1), Value::I64(-2), Value::F64(3.5), Value::Str("aA\n/\u{8}\u{c}".into()),]
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"abc").is_err());
    }

    #[test]
    fn typed_round_trip() {
        let v: Vec<u64> = from_str(&to_string(&vec![1u64, 2, 3])).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        let f: f64 = from_str("2.5e3").unwrap();
        assert!((f - 2500.0).abs() < 1e-9);
    }

    fn nested_seqs(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_capped_at_128_levels() {
        let mut v = parse(&nested_seqs(128)).expect("128 levels parse");
        for _ in 1..128 {
            v = v.as_seq().unwrap()[0].clone();
        }
        assert_eq!(v, Value::Seq(vec![]));
        assert!(parse(&nested_seqs(129)).is_err());
        let objects = "{\"k\":".repeat(129) + "1" + &"}".repeat(129);
        assert!(parse(&objects).is_err());
        // Far past the limit: an error, not a stack overflow.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&nested_seqs(200_000)).is_err());
    }

    #[test]
    fn long_escape_free_runs_parse_whole() {
        let run = "ab\u{e9}\u{4e2d}\u{1f600}".repeat(100_000);
        let line = format!("[\"{run}\",\"{run}\\n{run}\"]");
        let v = parse(&line).unwrap();
        let items = v.as_seq().unwrap();
        assert_eq!(items[0], Value::Str(run.clone()));
        assert_eq!(items[1], Value::Str(format!("{run}\n{run}")));
        assert!(parse(&line[..line.len() - 2]).is_err(), "unterminated after a long run");
    }

    /// One char from every class the writer treats differently: control
    /// characters, the escaped delimiters, `/`, printable ASCII, and
    /// two-, three- and four-byte UTF-8.
    fn any_char() -> impl Strategy<Value = char> {
        let ch = |c: u32| char::from_u32(c).expect("a Unicode scalar value");
        prop_oneof![
            (0u32..0x20).prop_map(ch),
            prop_oneof![Just('"'), Just('\\'), Just('/')],
            (0x20u32..0x7f).prop_map(ch),
            (0x7fu32..0x800).prop_map(ch),
            (0x800u32..0xd800).prop_map(ch),
            (0xe000u32..0x1_0000).prop_map(ch),
            (0x1_0000u32..0x11_0000).prop_map(ch),
        ]
    }

    fn any_string() -> impl Strategy<Value = String> {
        prop::collection::vec(any_char(), 0..48).prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_strings_round_trip_as_keys_and_values(
            key in any_string(),
            value in any_string(),
        ) {
            let v = Value::Map(vec![
                (key.clone(), Value::Str(value.clone())),
                (value, Value::Seq(vec![Value::Str(key)])),
            ]);
            let text = to_string(&v);
            prop_assert!(!text.contains('\n'), "one line: {text:?}");
            prop_assert_eq!(parse(&text).unwrap(), v);
        }
    }
}
