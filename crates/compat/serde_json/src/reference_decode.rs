//! The tree decoder this crate had before values read themselves: a
//! recursive-descent parser that turns the whole text into a [`Value`] tree,
//! which the typed `from_value` of every type then walked. Kept, unchanged,
//! as the reference the pull decoder is compared against — by this crate's
//! unit tests and, through a `#[path]` include, by `tests/json_codec.rs` at
//! the workspace root: on any text the pull decoder must succeed exactly when
//! this one does, with the same value.
//!
//! The typed half of the old decoder read a struct field with
//! `serde::field`, which takes a key's first occurrence and never looks at
//! the rest; [`first_wins`] applies that rule to a tree, so a tree that went
//! through it means the same to every type as the text it was parsed from.

use super::Value;
use std::fmt;

const MAX_DEPTH: usize = 128;

/// What the parser reports; only whether there is one matters to the
/// comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn new(message: impl fmt::Display) -> Self {
        Error(message.to_string())
    }
}

type Result<T> = std::result::Result<T, Error>;

/// `value` with every map keeping only the first occurrence of each key, in
/// order, at every depth.
pub fn first_wins(value: &Value) -> Value {
    match value {
        Value::Seq(items) => Value::Seq(items.iter().map(first_wins).collect()),
        Value::Map(entries) => {
            let mut kept: Vec<(String, Value)> = Vec::with_capacity(entries.len());
            for (key, item) in entries {
                if !kept.iter().any(|(k, _)| k == key) {
                    kept.push((key.clone(), first_wins(item)));
                }
            }
            Value::Map(kept)
        }
        other => other.clone(),
    }
}

/// `false` when `value` holds a float its JSON text does not read back as: a
/// non-finite one (written `null`) or an integral one of 1e15 and more
/// (written without `.0`, so it reads back as an integer). A tree that does
/// not read back exactly cannot stand in for the text it was parsed from.
pub fn reads_back_exactly(value: &Value) -> bool {
    match value {
        Value::Float(f) => f.is_finite() && (f.fract() != 0.0 || f.abs() < 1e15),
        Value::Seq(items) => items.iter().all(reads_back_exactly),
        Value::Map(entries) => entries.iter().all(|(_, v)| reads_back_exactly(v)),
        _ => true,
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
    /// Members of every array / object still being parsed, innermost last.
    /// A finished container splits its members off the end into a `Vec` of
    /// exactly their number: one allocation per container, and these two
    /// stacks (which start with room for a typical request's widest level)
    /// are the only vectors that ever grow.
    items: Vec<Value>,
    entries: Vec<(String, Value)>,
}

pub fn parse(text: &str) -> Result<Value> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
        items: Vec::with_capacity(16),
        entries: Vec::with_capacity(16),
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

impl Parser<'_> {
    fn error(&self, what: impl fmt::Display) -> Error {
        Error::new(format_args!("{what} at offset {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next byte after any whitespace, not consumed.
    fn peek(&mut self) -> Result<u8> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of input"))
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek()? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(self.error(format_args!("expected a value, found `{}`", other as char))),
        }
    }

    /// Parses the array or object starting at `pos` (its opening bracket not
    /// yet consumed), refusing to go deeper than [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format_args!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        let value = container(self)?;
        self.depth -= 1;
        Ok(value)
    }

    /// After a member: consumes `,` (more follow, `Ok(false)`) or `close`
    /// (`Ok(true)`).
    fn closes(&mut self, close: u8) -> Result<bool> {
        match self.peek()? {
            b',' => {
                self.pos += 1;
                Ok(false)
            }
            b if b == close => {
                self.pos += 1;
                Ok(true)
            }
            other => Err(self.error(format_args!(
                "expected `,` or `{}`, found `{}`",
                close as char, other as char
            ))),
        }
    }

    fn object(&mut self) -> Result<Value> {
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Map(Vec::new()));
        }
        let first = self.entries.len();
        loop {
            if self.peek()? != b'"' {
                return Err(self.error("expected `\"`"));
            }
            let key = self.string()?;
            if self.peek()? != b':' {
                return Err(self.error("expected `:`"));
            }
            self.pos += 1;
            let value = self.value()?;
            self.entries.push((key, value));
            if self.closes(b'}')? {
                return Ok(Value::Map(self.entries.split_off(first)));
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Seq(Vec::new()));
        }
        let first = self.items.len();
        loop {
            let value = self.value()?;
            self.items.push(value);
            if self.closes(b']')? {
                return Ok(Value::Seq(self.items.split_off(first)));
            }
        }
    }

    /// Parses the string whose opening quote is at `pos`. Everything up to
    /// the next quote, backslash or control byte is copied in one piece; the
    /// input is a `&str`, so those pieces need no UTF-8 check of their own.
    fn string(&mut self) -> Result<String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            // Both ends sit next to ASCII bytes, hence on char boundaries.
            let piece = &self.text[run..self.pos];
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    if out.is_empty() {
                        return Ok(piece.to_owned());
                    }
                    out.push_str(piece);
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(piece);
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(Error::new("unterminated string")),
            }
        }
    }

    /// Decodes the escape whose backslash has just been consumed.
    fn escape(&mut self) -> Result<char> {
        let esc = self
            .bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'u' => {
                let code = match self.hex4()? {
                    // A high surrogate must be followed by an escaped low
                    // one; together they name one character beyond U+FFFF.
                    high @ 0xd800..=0xdbff => {
                        if !self.bytes[self.pos..].starts_with(b"\\u") {
                            return Err(self.error("lone surrogate in \\u escape"));
                        }
                        self.pos += 2;
                        match self.hex4()? {
                            low @ 0xdc00..=0xdfff => {
                                0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                            }
                            _ => return Err(self.error("lone surrogate in \\u escape")),
                        }
                    }
                    code => code,
                };
                // Only a lone low surrogate is left to fail here.
                char::from_u32(code).ok_or_else(|| self.error("lone surrogate in \\u escape"))?
            }
            other => {
                return Err(self.error(format_args!("invalid escape `\\{}`", other as char)));
            }
        })
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let mut code = 0;
        for &digit in digits {
            let nibble = (digit as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            code = code * 16 + nibble;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Consumes a run of ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// RFC 8259 `number`: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    /// Without fraction and exponent it is an integer, accumulated from its
    /// digits; one too large for 64 bits reads as a float, as does anything
    /// with a fraction or an exponent.
    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        let negative = self.bytes.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.bytes[int_start] == b'0') {
            self.pos = start;
            return Err(self.error("invalid number"));
        }
        let mut integral = true;
        if self.bytes.get(self.pos) == Some(&b'.') {
            integral = false;
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error("invalid number: no digit after `.`"));
            }
        }
        if let Some(b'e' | b'E') = self.bytes.get(self.pos) {
            integral = false;
            self.pos += 1;
            if let Some(b'+' | b'-') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("invalid number: no digit in the exponent"));
            }
        }
        if integral {
            let magnitude = self.bytes[int_start..self.pos]
                .iter()
                .try_fold(0u64, |acc, &digit| {
                    acc.checked_mul(10)?.checked_add(u64::from(digit - b'0'))
                });
            match magnitude {
                Some(m) if !negative => return Ok(Value::UInt(m)),
                Some(m) if m <= i64::MIN.unsigned_abs() => {
                    return Ok(Value::Int(0i64.wrapping_sub_unsigned(m)))
                }
                _ => {}
            }
        }
        let text = &self.text[start..self.pos];
        text.parse()
            .map(Value::Float)
            .map_err(|_| Error::new(format_args!("invalid number `{text}`")))
    }
}
