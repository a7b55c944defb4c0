//! The workspace's one JSON codec: [`json_escape`] for the writers, and a
//! strict reader ([`parse`], [`parse_object`], [`decode`]) with typed
//! field access ([`Object`]) for every decoder.
//!
//! Writers concatenate strings with a fixed key order and print floats in
//! Rust's shortest round-trip notation (`{:?}`), so `write → read → write`
//! is byte-identical. The reader accepts RFC 8259 JSON and nothing else —
//! no trailing data, raw control characters, lone UTF-16 surrogates or
//! repeated keys — and keeps the split the writers rely on: a number with
//! a sign, fraction or exponent is a [`Json::F64`], any other a
//! [`Json::U64`].

use std::fmt;

/// Deepest nesting [`parse`] accepts: the formats nest at most four
/// levels, and the cap keeps hostile input from overflowing the stack.
const MAX_DEPTH: usize = 64;

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number with no sign, fraction or exponent.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Object),
}

/// A parsed JSON object, fields in input order. The getters *remove* the
/// field they read, so [`Object::finish`] can name any field left over.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object(Vec<(String, Json)>);

/// Why reading JSON failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Not well-formed JSON, or a repeated key: the byte offset where
    /// reading stopped, and why.
    Syntax { offset: usize, reason: String },
    /// A required field is absent.
    Missing(String),
    /// A field holds a value of the wrong type or range: the field, and
    /// what it must be.
    Mistyped(String, &'static str),
    /// A field the decoder does not read.
    Unknown(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, reason } => write!(f, "{reason} at byte {offset}"),
            JsonError::Missing(field) => write!(f, "missing field `{field}`"),
            JsonError::Mistyped(field, expected) => write!(f, "field `{field}` must be {expected}"),
            JsonError::Unknown(field) => write!(f, "unknown field `{field}`"),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

fn syntax(offset: usize, reason: impl Into<String>) -> JsonError {
    JsonError::Syntax {
        offset,
        reason: reason.into(),
    }
}

/// A Rust type a JSON value converts into.
pub trait FromJson: Sized {
    /// What the value must be, for error messages.
    const EXPECTED: &'static str;

    /// Converts `value`, or `None` if it has the wrong type or range.
    fn from_value(value: Json) -> Option<Self>;
}

/// `FromJson` for a type that is exactly one `Json` variant.
macro_rules! from_variant {
    ($($ty:ty => $variant:ident, $expected:literal;)*) => {$(
        impl FromJson for $ty {
            const EXPECTED: &'static str = $expected;
            fn from_value(value: Json) -> Option<$ty> {
                match value {
                    Json::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    )*};
}

from_variant! {
    bool => Bool, "a boolean";
    u64 => U64, "an unsigned integer";
    String => Str, "a string";
    Object => Obj, "an object";
}

impl FromJson for u32 {
    const EXPECTED: &'static str = "an unsigned 32-bit integer";
    fn from_value(value: Json) -> Option<u32> {
        u32::try_from(u64::from_value(value)?).ok()
    }
}

impl FromJson for f64 {
    const EXPECTED: &'static str = "a number";
    fn from_value(value: Json) -> Option<f64> {
        match value {
            Json::U64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    const EXPECTED: &'static str = "an array of well-typed items";
    fn from_value(value: Json) -> Option<Vec<T>> {
        match value {
            Json::Arr(items) => items.into_iter().map(T::from_value).collect(),
            _ => None,
        }
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    const EXPECTED: &'static str = "a two-item array";
    fn from_value(value: Json) -> Option<(A, B)> {
        let Json::Arr(items) = value else { return None };
        let [a, b] = <[Json; 2]>::try_from(items).ok()?;
        Some((A::from_value(a)?, B::from_value(b)?))
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    const EXPECTED: &'static str = "a three-item array";
    fn from_value(value: Json) -> Option<(A, B, C)> {
        let Json::Arr(items) = value else { return None };
        let [a, b, c] = <[Json; 3]>::try_from(items).ok()?;
        Some((A::from_value(a)?, B::from_value(b)?, C::from_value(c)?))
    }
}

impl Object {
    /// Removes and returns the named field.
    pub fn take(&mut self, name: &str) -> Option<Json> {
        let at = self.0.iter().position(|(k, _)| k == name)?;
        Some(self.0.remove(at).1)
    }

    /// Removes and converts a required field; the error names it.
    pub fn req<T: FromJson>(&mut self, name: &str) -> Result<T, JsonError> {
        self.opt(name)?
            .ok_or_else(|| JsonError::Missing(name.to_string()))
    }

    /// Removes and converts an optional field; absent and `null` are
    /// both `None`, and a mistyped value's error names the field.
    pub fn opt<T: FromJson>(&mut self, name: &str) -> Result<Option<T>, JsonError> {
        match self.take(name) {
            None | Some(Json::Null) => Ok(None),
            Some(value) => T::from_value(value)
                .map(Some)
                .ok_or_else(|| JsonError::Mistyped(name.to_string(), T::EXPECTED)),
        }
    }

    /// Ends decoding: fails naming the first field no getter took.
    pub fn finish(self) -> Result<(), JsonError> {
        match self.0.into_iter().next() {
            Some((field, _)) => Err(JsonError::Unknown(field)),
            None => Ok(()),
        }
    }
}

/// Parses one JSON document; whitespace may surround it.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut reader = Reader { text, pos: 0 };
    let value = reader.value(0)?;
    if reader.pos < text.len() {
        return Err(syntax(reader.pos, "trailing data"));
    }
    Ok(value)
}

/// Parses one JSON document that must be an object.
pub fn parse_object(text: &str) -> Result<Object, JsonError> {
    match parse(text)? {
        Json::Obj(obj) => Ok(obj),
        _ => Err(syntax(0, "expected an object")),
    }
}

/// Parses one JSON object and hands it to `read`, which takes the fields
/// it knows; a field left over is an error.
pub fn decode<T>(
    text: &str,
    read: impl FnOnce(&mut Object) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let mut obj = parse_object(text)?;
    let value = read(&mut obj)?;
    obj.finish()?;
    Ok(value)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn error(&self, reason: &str) -> JsonError {
        syntax(self.pos, reason)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// A value with the whitespace around it.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        let value = match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => return Err(self.error("nesting too deep")),
            Some(b'{') => {
                let mut fields: Vec<(String, Json)> = Vec::new();
                self.list(b'}', |r| {
                    r.skip_ws();
                    let at = r.pos;
                    if r.peek() != Some(b'"') {
                        return Err(r.error("expected a field name"));
                    }
                    let key = r.string()?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        return Err(syntax(at, format!("duplicate field `{key}`")));
                    }
                    r.skip_ws();
                    if !r.eat(b':') {
                        return Err(r.error("expected `:`"));
                    }
                    fields.push((key, r.value(depth + 1)?));
                    Ok(())
                })?;
                Json::Obj(Object(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.list(b']', |r| r.value(depth + 1).map(|v| items.push(v)))?;
                Json::Arr(items)
            }
            Some(b'"') => Json::Str(self.string()?),
            Some(b't') => self.literal("true", Json::Bool(true))?,
            Some(b'f') => self.literal("false", Json::Bool(false))?,
            Some(b'n') => self.literal("null", Json::Null)?,
            Some(b'-' | b'0'..=b'9') => self.number()?,
            Some(_) => return Err(self.error("expected a value")),
            None => return Err(self.error("unexpected end of input")),
        };
        self.skip_ws();
        Ok(value)
    }

    /// The items of an array or object after its opening bracket, each
    /// read by `item`, up to the `close` bracket.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or a closing bracket"));
            }
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("invalid literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            // Only ASCII bytes stop the scan, so both ends are char
            // boundaries.
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.error("raw control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Decodes the escape sequence at the backslash under the cursor.
    fn escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        self.pos += 2;
        Ok(match self.text.as_bytes().get(at + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                // A high surrogate pairs with an escaped low one after it.
                if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(syntax(at, "lone UTF-16 surrogate"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                // `from_u32` rejects exactly the unpaired surrogates.
                char::from_u32(code).ok_or_else(|| syntax(at, "lone UTF-16 surrogate"))?
            }
            _ => return Err(syntax(at, "invalid escape")),
        })
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self.text.get(self.pos..self.pos + 4);
        let code = digits
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    /// A run of at least one digit.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        (self.pos > start)
            .then_some(())
            .ok_or_else(|| self.error("expected a digit"))
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let mut float = self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            float = true;
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            float = true;
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        let token = &self.text[start..self.pos];
        if float {
            return Ok(Json::F64(token.parse().expect("the grammar admits floats")));
        }
        token
            .parse()
            .map(Json::U64)
            .map_err(|_| syntax(start, "integer exceeds u64"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syntax_offset(text: &str) -> usize {
        match parse(text) {
            Err(JsonError::Syntax { offset, .. }) => offset,
            other => panic!("{text:?} must be a syntax error, got {other:?}"),
        }
    }

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("a\nb\t\u{1}"), "a\\nb\\t\\u0001");
        assert_eq!(json_escape("plain ×"), "plain ×");
    }

    #[test]
    fn parses_escapes_numbers_and_nesting() {
        let mut obj =
            parse_object(" {\"s\" : \"a\\n\\u0041\\/\", \"n\":-1.5,\"u\":7,\"e\":1e-7,\"z\":0} ")
                .expect("parses");
        assert_eq!(obj.req::<String>("s"), Ok("a\nA/".to_string()));
        assert_eq!(obj.take("n"), Some(Json::F64(-1.5)));
        assert_eq!(obj.take("u"), Some(Json::U64(7)));
        assert_eq!(obj.take("e"), Some(Json::F64(1e-7)));
        assert_eq!(obj.take("z"), Some(Json::U64(0)));
        assert_eq!(obj.finish(), Ok(()));
        assert_eq!(parse("18446744073709551615"), Ok(Json::U64(u64::MAX)));
        assert_eq!(
            parse("[[], {}, null]").map(|j| matches!(j, Json::Arr(a) if a.len() == 3)),
            Ok(true)
        );
    }

    #[test]
    fn decodes_surrogate_pairs_and_rejects_lone_ones() {
        assert_eq!(parse("\"\\ud83d\\ude00\""), Ok(Json::Str("😀".to_string())));
        assert_eq!(parse("\"\\uD834\\uDD1E\""), Ok(Json::Str("𝄞".to_string())));
        assert_eq!(syntax_offset("\"ab\\ud83d\""), 3);
        assert_eq!(syntax_offset("\"\\ude00x\""), 1);
        assert_eq!(syntax_offset("\"\\ud83d\\u0041\""), 1);
    }

    #[test]
    fn rejects_what_no_writer_emits() {
        for (text, offset) in [
            ("{\"a\":1}extra", 7),
            ("{\"a\":1,\"a\":2}", 7),
            ("{\"a\":1,}", 7),
            ("[1,]", 3),
            ("01", 1),
            ("1.", 2),
            ("-", 1),
            ("1e", 2),
            ("+1", 0),
            ("\"tab\there\"", 4),
            ("\"\\x\"", 1),
            ("\"open", 5),
            ("18446744073709551616", 0),
            ("tru", 0),
            ("", 0),
        ] {
            assert_eq!(syntax_offset(text), offset, "{text:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert_eq!(syntax_offset(&deep), MAX_DEPTH);
        assert!(parse_object("[1]").is_err());
    }

    #[test]
    fn field_getters_name_the_field() {
        let mut obj =
            parse_object("{\"n\":1.5,\"s\":\"x\",\"nul\":null,\"big\":4294967296,\"extra\":1}")
                .expect("parses");
        assert_eq!(obj.req::<f64>("n"), Ok(1.5));
        assert_eq!(
            obj.req::<u64>("s").map_err(|e| e.to_string()),
            Err("field `s` must be an unsigned integer".to_string())
        );
        assert_eq!(obj.opt::<u64>("nul"), Ok(None));
        assert_eq!(obj.opt::<u64>("absent"), Ok(None));
        assert_eq!(
            obj.req::<u64>("absent"),
            Err(JsonError::Missing("absent".into()))
        );
        assert!(obj.req::<u32>("big").is_err());
        assert_eq!(obj.finish(), Err(JsonError::Unknown("extra".into())));
        let pair = decode("{\"p\":[\"k\",2]}", |o| o.req::<(String, u64)>("p"));
        assert_eq!(pair, Ok(("k".to_string(), 2)));
        assert!(decode("{\"p\":[\"k\",2,3]}", |o| o.req::<(String, u64)>("p")).is_err());
    }
}
