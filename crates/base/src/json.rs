//! A minimal JSON value type with a deterministic writer and a strict
//! parser — the wire format of the campaign service and the JSON form
//! of every lint report.
//!
//! Hand-rolled because the output must be **byte-stable** (golden
//! diffs, kill-and-resume equality) and integers **exact** at 64 bits
//! (trial seeds use all 64 bits, which a float-only JSON layer would
//! silently round).
//!
//! Numbers are kept in three lanes: unsigned, signed and float. The
//! writer renders floats with Rust's shortest-roundtrip `Display`, so
//! `parse(render(x))` recovers exactly `x` for every finite `f64` — the
//! property the daemon relies on when a client re-folds streamed trial
//! metrics into the same report an inline campaign computes.

use std::fmt;

/// A parsed JSON value. Object keys keep insertion order (the writer is
/// deterministic; no sorting, no hashing).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer token (no `.`/exponent, fits `u64`).
    UInt(u64),
    /// Negative integer token (fits `i64`).
    Int(i64),
    /// Any other number token.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse error with a byte offset into the input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the offending character.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience string constructor.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (unsigned tokens and non-negative signed
    /// tokens only — floats are rejected so seeds never round).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (any numeric lane).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Renders the value as compact single-line JSON. Deterministic:
    /// field order is whatever the builder inserted, floats use the
    /// shortest representation that round-trips.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Renders the value over several lines, each object field and
    /// array item on its own line indented by two spaces per level, for
    /// files people read (the BENCH snapshots). Scalars render as in
    /// [`Self::render`], and so does every empty container.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_pretty_into(&self, out: &mut String, depth: usize) {
        let (open, close, len) = match self {
            Json::Arr(items) if !items.is_empty() => ('[', ']', items.len()),
            Json::Obj(fields) if !fields.is_empty() => ('{', '}', fields.len()),
            _ => return self.render_into(out),
        };
        out.push(open);
        for i in 0..len {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(depth + 1));
            let value = match self {
                Json::Arr(items) => &items[i],
                Json::Obj(fields) => {
                    escape_into(&fields[i].0, out);
                    out.push_str(": ");
                    &fields[i].1
                }
                _ => unreachable!("only containers reach here"),
            };
            value.render_pretty_into(out, depth + 1);
        }
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
        out.push(close);
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                // NaN/inf have no JSON form; the protocol never produces
                // them (availabilities and means are finite).
                debug_assert!(v.is_finite(), "non-finite float in protocol value");
                if v.is_finite() {
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value, requiring the whole input be consumed
    /// (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first
    /// offending character.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err("trailing characters after value", pos));
        }
        Ok(value)
    }
}

/// Escapes `text` as a JSON string literal, quotes included — the
/// writer's own escaper, for output laid out by hand around it.
#[must_use]
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    escape_into(text, &mut out);
    out
}

/// A JSON object with `fields` in order.
#[must_use]
pub fn json_obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// `x` rounded to `decimals` places, as a JSON number.
#[must_use]
pub fn json_rounded(x: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Float((x * scale).round() / scale)
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn err(message: &str, offset: usize) -> JsonError {
    JsonError {
        message: message.to_string(),
        offset,
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

const MAX_DEPTH: usize = 64;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(err("value nested too deeply", *pos));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err("expected ',' or ']' in array", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b'"') {
                    return Err(err("expected string key in object", *pos));
                }
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err("expected ':' after object key", *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(err("expected ',' or '}' in object", *pos)),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => Err(err("unexpected character", *pos)),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(err("invalid literal", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, pos)?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(err("unpaired surrogate escape", *pos));
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(err("invalid low surrogate", *pos));
                            }
                            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code).ok_or_else(|| err("invalid code point", *pos))?
                        } else {
                            char::from_u32(hi).ok_or_else(|| err("invalid code point", *pos))?
                        };
                        out.push(c);
                    }
                    _ => return Err(err("invalid escape", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(err("control character in string", *pos)),
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so the
                // bytes are valid UTF-8 by construction).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| {
                    err("invalid UTF-8", *pos) // unreachable from &str input
                })?;
                let c = rest.chars().next().expect("non-empty checked above");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    // `*pos` is at the 'u'; consume 4 hex digits after it, leaving
    // `*pos` at the final digit (the caller advances past it).
    let start = *pos + 1;
    let digits = bytes
        .get(start..start + 4)
        .ok_or_else(|| err("truncated \\u escape", *pos))?;
    let text = std::str::from_utf8(digits).map_err(|_| err("invalid \\u escape", *pos))?;
    let value = u32::from_str_radix(text, 16).map_err(|_| err("invalid \\u escape", *pos))?;
    *pos += 4;
    Ok(value)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number token");
    if !is_float {
        if let Some(rest) = text.strip_prefix('-') {
            if rest.parse::<u64>().is_ok() {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::Int(v));
                }
            }
        } else if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| err("invalid number", start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let value = Json::Obj(vec![
            ("op".to_string(), Json::str("submit")),
            ("seed".to_string(), Json::UInt(u64::MAX)),
            ("delta".to_string(), Json::Int(-42)),
            ("avail".to_string(), Json::Float(0.9375)),
            (
                "items".to_string(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::str("a\"b\\c\n")]),
            ),
        ]);
        let rendered = value.render();
        assert_eq!(Json::parse(&rendered), Ok(value));
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        for seed in [0, 1, u64::MAX, 0xDB5_2004, 1 << 53, (1 << 53) + 1] {
            let rendered = Json::UInt(seed).render();
            let parsed = Json::parse(&rendered).unwrap();
            assert_eq!(parsed.as_u64(), Some(seed), "{rendered}");
        }
    }

    #[test]
    fn floats_round_trip_shortest() {
        for x in [0.1, 1.0 / 3.0, 0.015_625, 1e300, -2.5e-10, 0.0] {
            let rendered = Json::Float(x).render();
            let parsed = Json::parse(&rendered).unwrap();
            assert_eq!(parsed.as_f64(), Some(x), "{rendered}");
        }
    }

    #[test]
    fn pretty_rendering_indents_and_parses_back() {
        let value = Json::Obj(vec![
            ("name".into(), Json::str("bench")),
            ("empty".into(), Json::Arr(Vec::new())),
            (
                "runs".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("threads".into(), Json::UInt(2)),
                    ("seconds".into(), Json::Float(0.25)),
                ])]),
            ),
        ]);
        let text = value.render_pretty();
        assert_eq!(
            text,
            "{\n  \"name\": \"bench\",\n  \"empty\": [],\n  \"runs\": [\n    {\n      \
             \"threads\": 2,\n      \"seconds\": 0.25\n    }\n  ]\n}\n"
        );
        assert_eq!(Json::parse(&text), Ok(value));
    }

    #[test]
    fn whole_floats_render_as_integers_but_read_back_as_f64() {
        // `1.0` renders as "1"; consumers use as_f64 which accepts the
        // integer lane, so the ambiguity is harmless.
        assert_eq!(Json::Float(1.0).render(), "1");
        assert_eq!(Json::parse("1").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "\"\\q\"", "1 2", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let parsed = Json::parse(r#""a\n\t\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(parsed.as_str(), Some("a\n\tA\u{1F600}"));
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = Json::parse(r#"{"a": 3, "b": null, "c": [1, 2], "d": -7}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(3));
        assert!(v.get("b").unwrap().is_null());
        assert_eq!(
            v.get("c").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("d").and_then(Json::as_u64), None);
        assert_eq!(v.get("d").and_then(Json::as_f64), Some(-7.0));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn json_string_escapes_quotes_and_control_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny\t\r\u{1}"), "\"x\\ny\\t\\r\\u0001\"");
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }
}
