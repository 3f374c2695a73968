//! A minimal recursive-descent JSON reader/writer shared across the
//! workspace.
//!
//! The workspace builds offline with vendored stand-in crates, so
//! there is no `serde_json`; the bench reports (written through
//! `uavnet_bench::report`, snapshots read by `obs_diff`), the
//! `uavnet-service` wire protocol and the `uavnet-obs` artifacts (event
//! log, metrics snapshot, trace-event export) all parse or emit JSON
//! with this ~150-line reader instead. It supports the full JSON
//! value grammar minus exotic escapes (`\uXXXX` outside the BMP is
//! passed through unpaired), keeps object keys in document order, and
//! stores every number as `f64` — exact for the `u64` magnitudes the
//! obs schema emits (counters stay far below 2^53).
//!
//! Round-trip stability (`parse → set → dump → parse` is the
//! identity, and `dump` output is a fixed point of `parse ∘ dump`) is
//! load-bearing for every consumer and pinned by the proptests in
//! `tests/proptest_json.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (surrounding whitespace
    /// allowed; trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object (`None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `usize`, if this is a non-negative integral
    /// number that fits — the common case for counts, ids and
    /// sequence fields in the wire and report formats.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= usize::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// Inserts or replaces a member on an object, preserving the
    /// position of an existing key.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: Json) {
        let Json::Obj(members) = self else {
            panic!("Json::set on a non-object");
        };
        match members.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => members.push((key.to_string(), value)),
        }
    }

    /// Serializes to pretty-printed JSON (2-space indent, members in
    /// stored order, trailing newline) — the inverse of
    /// [`parse`](Json::parse) for every value this reader produces, so report
    /// files survive a parse → mutate → dump round trip with minimal
    /// diffs.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes to compact single-line JSON (no whitespace, no
    /// trailing newline) — the framing format of the
    /// `uavnet-service` newline-delimited protocol, where a value
    /// must never contain a raw `\n`. Parses back to an equal value
    /// for everything this reader produces.
    pub fn dump_line(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&fmt_num(*n)),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&fmt_num(*n)),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn fmt_num(n: f64) -> String {
    if !n.is_finite() {
        // JSON has no Infinity/NaN; null is the conventional stand-in.
        return "null".to_string();
    }
    if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape sequence")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unknown escape \\{}", *other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_obs_snapshot_shape() {
        let doc = r#"{
  "schema": "uavnet-obs/2",
  "provenance": { "git_sha": "abc\n", "threads": 2, "instance_fingerprint": "0x00ff" },
  "counters": { "sweep.gain_queries": 5310, "greedy.bound_hits": 120 },
  "phases": { "greedy": { "total_ns": 12, "p50_ns": 3 } },
  "hists": {},
  "list": [1, [2.5, -3e2], "x", true, false, null]
}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("uavnet-obs/2"));
        assert_eq!(
            v.get("provenance")
                .unwrap()
                .get("git_sha")
                .unwrap()
                .as_str(),
            Some("abc\n")
        );
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("sweep.gain_queries")
                .unwrap()
                .as_f64(),
            Some(5310.0)
        );
        let list = v.get("list").unwrap().as_arr().unwrap();
        assert_eq!(list.len(), 6);
        assert_eq!(list[1].as_arr().unwrap()[1].as_f64(), Some(-300.0));
        assert_eq!(list[5], Json::Null);
        assert_eq!(v.get("hists").unwrap().as_obj(), Some(&[][..]));
    }

    #[test]
    fn dump_round_trips_and_set_preserves_order() {
        let doc = r#"{
  "schema": "uavnet-bench/1",
  "sweep": {
    "served": 120,
    "ratio": 0.875,
    "tags": ["a", "b\n"],
    "empty_obj": {},
    "empty_arr": [],
    "flag": true,
    "nothing": null
  }
}"#;
        let v = Json::parse(doc).unwrap();
        let dumped = v.dump();
        assert_eq!(Json::parse(&dumped).unwrap(), v);
        // dump(parse(dump(x))) is a fixed point (stable formatting).
        assert_eq!(Json::parse(&dumped).unwrap().dump(), dumped);

        let mut v = v;
        v.set("resolve", Json::Obj(vec![("ups".into(), Json::Num(42.0))]));
        v.set("schema", Json::Str("uavnet-bench/2".into()));
        let m = v.as_obj().unwrap();
        // Replaced key keeps its slot; new key appends.
        assert_eq!(m[0].0, "schema");
        assert_eq!(m[0].1.as_str(), Some("uavnet-bench/2"));
        assert_eq!(m[2].0, "resolve");
        assert_eq!(
            v.get("resolve").unwrap().get("ups").unwrap().as_f64(),
            Some(42.0)
        );
    }

    #[test]
    fn dump_formats_numbers_and_escapes() {
        let v = Json::Obj(vec![
            ("int".into(), Json::Num(3.0)),
            ("frac".into(), Json::Num(0.5)),
            ("neg".into(), Json::Num(-17.0)),
            ("ctl".into(), Json::Str("a\u{1}b".into())),
        ]);
        let text = v.dump();
        assert!(text.contains("\"int\": 3,"), "{text}");
        assert!(text.contains("\"frac\": 0.5,"), "{text}");
        assert!(text.contains("\"neg\": -17,"), "{text}");
        assert!(text.contains("\\u0001"), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} extra", "\"\\q\""] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn as_usize_accepts_only_non_negative_integers() {
        assert_eq!(Json::Num(0.0).as_usize(), Some(0));
        assert_eq!(Json::Num(42.0).as_usize(), Some(42));
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Num(1.5).as_usize(), None);
        assert_eq!(Json::Str("42".into()).as_usize(), None);
    }
}
