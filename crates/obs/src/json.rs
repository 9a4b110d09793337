//! The workspace's one strict JSON reader (there is no `serde_json`).
//!
//! Sweep summaries, metrics snapshots, Chrome traces and telemetry lines
//! all read back through [`parse`]. It accepts exactly the
//! shapes those writers emit: objects, arrays, strings, `true`/`false`,
//! unsigned integers (exact, as `u128`) and decimals, which may be
//! negative. `null`, exponents, bad escapes, raw control characters in
//! strings and trailing data are errors. The reader is linear in its input
//! and nests at most [`MAX_DEPTH`] deep, so hostile input gets an
//! [`Error`], never a quadratic scan or a stack overflow.

use std::fmt;

/// Deepest nesting of objects and arrays [`parse`] accepts. The writers
/// nest four deep; anything past this is rejected before it can exhaust
/// the stack.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Fields in document order (duplicates are kept; lookups take the
    /// first).
    Object(Vec<(String, Value)>),
    /// Items in document order.
    Array(Vec<Value>),
    /// A string with its escapes resolved.
    Str(String),
    /// `true` or `false`.
    Bool(bool),
    /// An unsigned integer without a fraction.
    Num(u128),
    /// A number with a sign or a fraction.
    Decimal(f64),
}

/// Why a document could not be read, or a field could not be found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Lets callers that report errors as strings (the validators) use `?`.
impl From<Error> for String {
    fn from(e: Error) -> String {
        e.0
    }
}

impl Value {
    /// The first field called `name`; an error unless `self` is an object
    /// that has one.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error(format!("missing field `{name}`"))),
            _ => Err(Error(format!("expected an object while looking for `{name}`"))),
        }
    }

    /// Field `name`, which must be a string.
    pub fn str_field(&self, name: &str) -> Result<&str, Error> {
        match self.field(name)? {
            Value::Str(s) => Ok(s),
            _ => Err(Error(format!("field `{name}` is not a string"))),
        }
    }

    /// Field `name`, which must be an unsigned integer.
    pub fn u128_field(&self, name: &str) -> Result<u128, Error> {
        match self.field(name)? {
            Value::Num(n) => Ok(*n),
            _ => Err(Error(format!("field `{name}` is not an integer"))),
        }
    }

    /// Field `name`, which must be an unsigned integer that fits `u64`.
    pub fn u64_field(&self, name: &str) -> Result<u64, Error> {
        u64::try_from(self.u128_field(name)?)
            .map_err(|_| Error(format!("field `{name}` overflows u64")))
    }

    /// Field `name`, which must be an unsigned integer that fits `usize`.
    pub fn usize_field(&self, name: &str) -> Result<usize, Error> {
        usize::try_from(self.u128_field(name)?)
            .map_err(|_| Error(format!("field `{name}` overflows usize")))
    }

    /// Field `name`, which must be an array.
    pub fn array_field(&self, name: &str) -> Result<&[Value], Error> {
        match self.field(name)? {
            Value::Array(items) => Ok(items),
            _ => Err(Error(format!("field `{name}` is not an array"))),
        }
    }
}

/// Parses one JSON document; only whitespace may follow it. An [`Error`]
/// names the problem and its byte offset.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.error("trailing data after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `word` if the input continues with it.
    fn eat(&mut self, word: &str) -> bool {
        let found = self.text[self.pos..].starts_with(word);
        if found {
            self.pos += word.len();
        }
        found
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'0'..=b'9' | b'-') => self.number(),
            _ if self.eat("true") => Ok(Value::Bool(true)),
            _ if self.eat("false") => Ok(Value::Bool(false)),
            _ => Err(self.error("expected an object, array, string, boolean or number")),
        }
    }

    /// Runs `body` one nesting level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, body: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = body(self);
        self.depth -= 1;
        value
    }

    /// Consumes the peeked opening bracket, then items until `close`;
    /// `item` parses one.
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.pos += 1; // the opening bracket, already peeked
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        let mut fields = Vec::new();
        self.sequence(b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            if !p.eat(":") {
                return Err(p.error("expected `:`"));
            }
            fields.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Value::Object(fields))
    }

    fn array(&mut self) -> Result<Value, Error> {
        let mut items = Vec::new();
        self.sequence(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    fn string(&mut self) -> Result<String, Error> {
        if !self.eat("\"") {
            return Err(self.error("expected `\"`"));
        }
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // in one slice: all three are ASCII, so the run ends on a char
            // boundary.
            let start = self.pos;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'u') => {
                let c = (self.text.get(self.pos + 1..self.pos + 5))
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| char::from_u32(u32::from_str_radix(hex, 16).ok()?))
                    .ok_or_else(|| self.error("bad \\u escape"))?;
                self.pos += 4;
                c
            }
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.eat("-");
        let digits = |p: &mut Self| {
            let from = p.pos;
            while p.peek().is_some_and(|b| b.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > from
        };
        if !digits(self) {
            return Err(self.error("expected a digit"));
        }
        let fraction = self.eat(".");
        if fraction && !digits(self) {
            return Err(self.error("expected a digit after `.`"));
        }
        let literal = &self.text[start..self.pos];
        if negative || fraction {
            literal.parse().map(Value::Decimal).map_err(|_| self.error("malformed number"))
        } else {
            literal.parse().map(Value::Num).map_err(|_| self.error("integer overflows u128"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_shape_the_writers_emit() {
        let doc = parse(
            "{\"s\": \"a\\\"b\\\\c\\n\\u2192\", \"n\": 340282366920938463463374607431768211455, \
             \"d\": -1.250, \"b\": [true, false], \"o\": {}, \"e\": []}",
        )
        .expect("valid document");
        assert_eq!(doc.str_field("s").unwrap(), "a\"b\\c\n\u{2192}");
        assert_eq!(doc.u128_field("n").unwrap(), u128::MAX);
        assert_eq!(doc.field("d").unwrap(), &Value::Decimal(-1.25));
        assert_eq!(doc.array_field("b").unwrap(), &[Value::Bool(true), Value::Bool(false)]);
        assert_eq!(doc.field("o").unwrap(), &Value::Object(Vec::new()));
        assert!(doc.array_field("e").unwrap().is_empty());
        assert!(doc.u64_field("n").unwrap_err().to_string().contains("overflows u64"));
        assert!(doc.str_field("n").is_err());
        assert!(doc.field("missing").unwrap_err().to_string().contains("missing field"));
    }

    #[test]
    fn rejects_what_no_writer_emits() {
        for bad in [
            "",
            "null",
            "{\"a\": null}",
            "1e5",
            "-",
            "1.",
            ".5",
            "340282366920938463463374607431768211456",
            "\"bad \\x escape\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"raw\ncontrol\"",
            "\"unterminated",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "[1 2]",
            "{} trailing",
            "tru",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn brackets_inside_strings_do_not_nest() {
        assert!(parse("{\"a\": \"}{][\"}").is_ok());
        assert!(parse("{\"a\": \"\\\"}\"}").is_ok());
        assert!(parse("{]").is_err());
        assert!(parse("{\"a").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let past_cap = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&past_cap).unwrap_err().to_string().contains("nesting deeper"));
        // Deep enough to overflow the stack of an uncapped recursive reader.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\": ".repeat(100_000)).is_err());
    }

    #[test]
    fn megabyte_strings_parse() {
        // 6 source bytes, 5 decoded: `a`, `b`, a two-byte `é` and an
        // escaped newline.
        let body: String = "ab\u{e9}\\n".repeat(1 << 18);
        let doc = parse(&format!("{{\"matrix\": \"{body}\"}}")).expect("long string");
        assert_eq!(doc.str_field("matrix").unwrap().len(), 5 << 18);
    }
}
