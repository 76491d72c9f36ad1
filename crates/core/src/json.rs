//! A minimal JSON tree, canonical serializer, and strict parser.
//!
//! The run journal ([`crate::journal`]) and the CLI's `--json` output
//! need real (de)serialization, and the workspace's `serde` dependency
//! only provides derive markers in the offline build — so this module
//! carries the whole format: a [`Json`] tree with ordered object keys,
//! a canonical compact writer (no whitespace, insertion-ordered keys,
//! minimal escapes), and a recursive-descent parser that round-trips
//! exactly what the writer emits. Canonical output is what makes the
//! journal's checksums meaningful: equal records serialize to equal
//! bytes.
//!
//! Numbers are kept in three shapes (`UInt`, `Int`, `Float`) so 64-bit
//! counters (seeds, step counts, attempt totals) never pass through an
//! `f64` and lose precision.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so serialization is
/// canonical and deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case for counters and ids).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A fractional or exponent-form number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an object from `(key, value)` pairs with owned keys —
    /// for objects keyed by runtime data (stage names, counter names).
    pub fn obj_owned(pairs: impl IntoIterator<Item = (String, Json)>) -> Json {
        Json::Obj(pairs.into_iter().collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `usize`, when it is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to the canonical compact form.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(v) => {
                // `{:?}` is Rust's shortest round-trippable repr; NaN
                // and infinities are not valid JSON, so degrade to null.
                if v.is_finite() {
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
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

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a single line of `[[[[…` could
/// overflow the stack of the thread parsing it — for `owl serve`, a
/// connection thread, whose stack overflow aborts the whole daemon.
pub const MAX_DEPTH: usize = 128;

/// What kind of input a [`JsonError`] rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Not well-formed JSON.
    Syntax,
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A parse failure with the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// What was wrong with the input.
    pub kind: JsonErrorKind,
    /// Byte offset into the input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            kind: JsonErrorKind::Syntax,
            pos: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError {
                kind: JsonErrorKind::TooDeep,
                pos: self.pos,
                message: format!("nesting deeper than {MAX_DEPTH}"),
            });
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte boundaries are valid).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        // Called with `pos` at the first hex digit (after `u`)... except
        // the escape loop advances after the match arm, so consume
        // exactly four digits starting at `pos + 0`.
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected fraction digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected exponent digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if integral {
            if negative {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Json::Int(n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn canonical_round_trip() {
        let v = Json::obj([
            ("name", Json::str("owl")),
            ("count", Json::UInt(u64::MAX)),
            ("delta", Json::Int(-42)),
            ("rate", Json::Float(0.01)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::UInt(1), Json::str("a\"b\\c\n")]),
            ),
        ]);
        let s = v.to_json_string();
        let back = parse(&s).expect("round trip parses");
        assert_eq!(back, v);
        assert_eq!(back.to_json_string(), s, "serialization is canonical");
    }

    #[test]
    fn u64_precision_is_preserved() {
        let n = u64::MAX - 3;
        let s = Json::UInt(n).to_json_string();
        assert_eq!(parse(&s).unwrap().as_u64(), Some(n));
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::str("tab\t nl\n quote\" back\\ unicode \u{1F600} ctrl\u{1}");
        let s = v.to_json_string();
        assert_eq!(parse(&s).unwrap(), v);
        // Standard escapes from other writers parse too.
        assert_eq!(parse(r#""A😀""#).unwrap(), Json::str("A\u{1F600}"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":1"#).is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("123abc").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn nesting_is_bounded_with_a_typed_error() {
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nest(MAX_DEPTH + 1)).unwrap_err().kind,
            JsonErrorKind::TooDeep
        );
        // Far past the bound, unterminated: rejected at the bound, with
        // no recursion beyond it.
        let e = parse(&"[{\"a\":".repeat(100_000)).unwrap_err();
        assert_eq!((e.kind, e.pos), (JsonErrorKind::TooDeep, 6 * MAX_DEPTH / 2));
        assert_eq!(parse("[1,]").unwrap_err().kind, JsonErrorKind::Syntax);
    }

    /// A word stream that tree shapes are read off; zeros once it runs
    /// dry.
    struct Words<'a>(std::slice::Iter<'a, u64>);

    impl Words<'_> {
        fn next(&mut self) -> u64 {
            self.0.next().copied().unwrap_or(0)
        }
    }

    /// Text mixing what the writer escapes (quotes, backslashes, control
    /// characters) with printable ASCII and arbitrary non-ASCII.
    fn text(w: &mut Words) -> String {
        (0..w.next() % 8)
            .map(|_| {
                let x = w.next();
                let pick = (x >> 2) as u32;
                match x % 4 {
                    0 => ['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '/'][pick as usize % 8],
                    1 => char::from(b' ' + (pick % 95) as u8),
                    _ => char::from_u32(pick % 0x11_0000).unwrap_or('\u{fffd}'),
                }
            })
            .collect()
    }

    /// One scalar, numbers in their canonical shape: non-negative
    /// integers are `UInt`, only negative ones `Int`, and every float is
    /// finite (the writer turns the others into `null`).
    fn leaf(w: &mut Words) -> Json {
        let x = w.next();
        match x % 6 {
            0 => Json::Null,
            1 => Json::Bool(x & 8 != 0),
            2 => Json::UInt(w.next()),
            3 => Json::Int(-1 - (w.next() >> 1) as i64),
            4 => Json::Float(
                Some(f64::from_bits(w.next()))
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.5),
            ),
            _ => Json::Str(text(w)),
        }
    }

    /// A tree nesting exactly `depth` arrays and objects along one spine,
    /// with shallow subtrees beside it.
    fn tree(w: &mut Words, depth: usize) -> Json {
        if depth == 0 {
            return leaf(w);
        }
        let width = 1 + w.next() % 3;
        let spine = w.next() % width;
        let object = w.next() & 1 == 1;
        let items: Vec<Json> = (0..width)
            .map(|i| {
                let d = if i == spine {
                    depth - 1
                } else {
                    (w.next() % 3) as usize
                };
                tree(w, d.min(depth - 1))
            })
            .collect();
        if object {
            Json::Obj(items.into_iter().map(|v| (text(w), v)).collect())
        } else {
            Json::Arr(items)
        }
    }

    /// JSON's own punctuation, so that random input gets past the first
    /// token.
    const TOKENS: &[u8] = b"{}[]\":,\\-+.0123456789eEtrufalsn u\"";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every tree the writer emits, nested up to `MAX_DEPTH`, parses
        /// back to itself.
        #[test]
        fn parse_inverts_the_writer(
            v in (0..=MAX_DEPTH, prop::collection::vec(any::<u64>(), 0..512))
                .prop_map(|(depth, words)| tree(&mut Words(words.iter()), depth)),
        ) {
            let line = v.to_json_string();
            prop_assert_eq!(parse(&line).expect("the writer's output parses"), v);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes read as lossy UTF-8 parse or are rejected;
        /// nothing panics. Bytes below 128 stand for JSON tokens.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            let bytes: Vec<u8> = bytes
                .iter()
                .map(|&b| if b < 128 { TOKENS[b as usize % TOKENS.len()] } else { b })
                .collect();
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every prefix of a valid document, read as lossy UTF-8, parses
        /// or is rejected; nothing panics, not even a cut inside a
        /// literal, an escape or a number.
        #[test]
        fn truncated_documents_never_panic(words in prop::collection::vec(any::<u64>(), 0..64)) {
            let line = tree(&mut Words(words.iter()), 4).to_json_string().into_bytes();
            for cut in 0..line.len() {
                let _ = parse(&String::from_utf8_lossy(&line[..cut]));
            }
        }
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": [1, -2, 1.5], "b": "x", "c": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
    }
}
