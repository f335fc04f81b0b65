//! A small JSON value type with a parser and writer.
//!
//! The serve protocol needs exactly one wire format and the workspace
//! vendors no serde, so this module hand-rolls the subset the protocol
//! uses: null, booleans, integers, strings, arrays and objects. Objects
//! preserve insertion order (a `Vec` of pairs, not a map) so responses
//! serialize deterministically. Floats are rejected on parse — nothing
//! in the protocol is fractional, and refusing them keeps round-trips
//! exact.

use std::fmt::Write as _;

/// A parsed JSON value. Numbers are integers only (`i128` covers every
/// `u64`/`i64` the pipeline produces).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer; floats are rejected at parse time.
    Int(i128),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order. Duplicate keys are kept as-is;
    /// [`Json::get`] answers with the first.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer as a `u64`, if this is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serializes to compact JSON (no whitespace), object members in
/// insertion order — so `value.to_string()` is the wire form.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// A human-readable message naming the first offence (position included
/// where it helps): unexpected characters, unterminated strings, bad
/// escapes, floats, or trailing garbage.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

/// Deepest value nesting accepted, far above what the protocol sends:
/// the parser, the writer and `Drop` recurse once per level, and a
/// connection thread has a 2 MiB stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Values open around the current byte, the one being parsed included.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nested more than {MAX_DEPTH} levels deep"));
        }
        let value = match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        };
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(format!(
                "non-integer number at byte {start} (the protocol is integer-only)"
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(format!("bad escape `\\{}`", other as char));
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte 0x{b:02x} in string"));
                }
                Some(_) => {
                    // Bulk-copy the maximal run of plain bytes. The
                    // delimiters (`"`, `\`, controls) are all ASCII and
                    // UTF-8 continuation bytes are >= 0x80, so a
                    // byte-wise scan can only stop on a character
                    // boundary and the run is valid UTF-8 as a whole
                    // (the input is a &str by construction). One
                    // validation per run, not one per character, keeps
                    // large embedded sources (SIL designs) linear.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input was a &str"),
                    );
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let first = self.hex4()?;
        // Surrogate pairs encode astral-plane characters.
        if (0xD800..0xDC00).contains(&first) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..0xE000).contains(&second) {
                    let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(code).ok_or_else(|| "bad surrogate pair".into());
                }
            }
            return Err("lone surrogate in \\u escape".into());
        }
        char::from_u32(first).ok_or_else(|| format!("bad \\u escape {first:04x}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated \\u escape")?;
        let text = std::str::from_utf8(digits).map_err(|_| "bad \\u escape")?;
        let value = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape")?;
        self.pos = end;
        Ok(value)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_subset() {
        let text = r#"{"op":"compile","id":7,"ok":true,"nested":[1,-2,null],"flag":false}"#;
        let value = parse(text).unwrap();
        assert_eq!(value.to_string(), text);
        assert_eq!(value.get("id"), Some(&Json::Int(7)));
        assert_eq!(value.get("op").and_then(Json::as_str), Some("compile"));
        assert_eq!(value.get("flag").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line1\nline2\t\"quoted\" back\\slash \u{1} ünï😀";
        let json = Json::Str(original.into()).to_string();
        assert_eq!(parse(&json).unwrap(), Json::Str(original.into()));
        // Escaped forms parse too.
        assert_eq!(
            parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap(),
            Json::Str("Aé😀".into())
        );
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(parse("1.5").unwrap_err().contains("integer-only"));
        assert!(parse("1e3").unwrap_err().contains("integer-only"));
        assert!(parse("{\"a\":1} x").unwrap_err().contains("trailing"));
        assert!(parse("{\"a\"").is_err());
        assert!(parse("\"\\q\"").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_bombs_are_errors() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let bomb = format!("{}1{}", open.repeat(200_000), close.repeat(200_000));
            assert!(parse(&bomb).unwrap_err().contains("levels deep"));
            let (open, close) = (open.repeat(MAX_DEPTH - 1), close.repeat(MAX_DEPTH - 1));
            let deepest = format!("{open}1{close}");
            assert_eq!(parse(&deepest).unwrap().to_string(), deepest);
        }
        // The bound is on depth, not size.
        assert!(parse(&format!("[{}[]]", "[[1]],".repeat(100_000))).is_ok());
    }

    #[test]
    fn first_duplicate_key_wins_on_lookup() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k"), Some(&Json::Int(1)));
    }

    #[test]
    fn big_integers_survive() {
        let max = u64::MAX as i128;
        let text = format!("[{max},-9223372036854775808]");
        let v = parse(&text).unwrap();
        assert_eq!(v.to_string(), text);
    }
}
