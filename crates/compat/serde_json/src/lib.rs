//! Minimal substitute for the `serde_json` crate: JSON text to and from the
//! types of the vendored `serde`.
//!
//! Supports exactly what this workspace needs — [`to_string`],
//! [`to_string_pretty`] and [`from_str`]. Writing is one call into
//! [`serde::Serialize::write_json`], which appends text straight to the
//! output (see [`serde::Writer`]); non-finite floats come out as `null`,
//! matching real `serde_json`. Reading is a single-pass recursive-descent
//! parser of RFC 8259 JSON into a [`Value`] tree, nested at most
//! [`MAX_DEPTH`] deep, from which [`serde::Deserialize::from_value`] builds
//! the typed result.

use serde::{Deserialize, Serialize, Writer};
use std::fmt;

pub use serde::Value;

/// Deepest nesting of arrays and objects [`from_str`] accepts (real
/// `serde_json`'s limit). The parser, `from_value` and the drop of the tree
/// all recurse once per level, so without a cap a few hundred kilobytes of
/// `[` overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// Error produced while parsing or converting JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn new(message: impl fmt::Display) -> Self {
        Error(message.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialises `value` as compact JSON.
///
/// # Errors
///
/// Never fails; the `Result` mirrors the real `serde_json` signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(render(value, false))
}

/// Serialises `value` as pretty-printed JSON (two-space indentation).
///
/// # Errors
///
/// See [`to_string`].
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(render(value, true))
}

fn render<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    // Room for the daemon's usual answer (a `/v1/search` response is 7-13 KB)
    // so the text is not copied from buffer to larger buffer while it grows
    // (a fifth of the encoding time when it was); what is left over is
    // handed back before the string goes to a caller who may keep it.
    let mut out = String::with_capacity(16 * 1024);
    value.write_json(&mut if pretty {
        Writer::pretty(&mut out)
    } else {
        Writer::compact(&mut out)
    });
    out.shrink_to_fit();
    out
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Returns an error if the text is not valid JSON, nests deeper than
/// [`MAX_DEPTH`], or does not match the shape `T` expects.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let value = parse_value(text)?;
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

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

fn parse_value(text: &str) -> Result<Value> {
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

#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;
