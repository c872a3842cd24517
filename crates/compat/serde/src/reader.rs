//! The JSON text reader behind [`Deserialize`](crate::Deserialize).
//!
//! A pull parser: a type's `deserialize` asks for exactly what it expects
//! next — a number, a string, the elements of a sequence, the entries of a
//! map — and the reader scans it straight out of the input. Nothing is built
//! that the caller does not keep: keys come back borrowed from the input
//! (decoded into a `String` only when they contain an escape), a value nobody
//! asked for is [`Reader::skip`]ped, and no [`Value`](crate::Value) tree
//! exists unless a caller deserializes one. A skipped value is still parsed,
//! so a document is accepted or refused whole: RFC 8259 grammar, nesting at
//! most [`MAX_DEPTH`] deep.

use crate::Error;
use std::borrow::Cow;
use std::fmt;

/// Deepest nesting of arrays and objects a [`Reader`] accepts (real
/// `serde_json`'s limit). Every reader of a nested value recurses once per
/// level, so without a cap a few hundred kilobytes of `[` overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// The powers of ten a double holds exactly: `1e0` to `1e22`.
const POWERS_OF_TEN: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// A JSON number, read the way its text is spelled: an integer without
/// fraction or exponent is `UInt` (or `Int` when negative), anything else —
/// and an integer too large for 64 bits — is `Float`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    UInt(u64),
    /// Negative integer (`-0` included).
    Int(i64),
    /// Floating point number.
    Float(f64),
}

/// Reads JSON values, one at a time, from a string.
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Succeeds when nothing but whitespace is left: the check after the
    /// last value of a document.
    ///
    /// # Errors
    ///
    /// Anything else follows.
    #[inline]
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters"))
        }
    }

    /// The first byte of the next value, not consumed: `{`, `[`, `"`, `t`,
    /// `f`, `n`, or the start of a number.
    ///
    /// # Errors
    ///
    /// The input ended.
    #[inline]
    pub fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unexpected end of input"))
    }

    /// Consumes a `null` and returns `true`, or returns `false` and consumes
    /// nothing when the next value is something else.
    ///
    /// # Errors
    ///
    /// The next value starts like `null` but is not.
    #[inline]
    pub fn null(&mut self) -> Result<bool, Error> {
        if self.peek()? != b'n' {
            return Ok(false);
        }
        self.literal("null")?;
        Ok(true)
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// The next value is not a boolean.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.peek()? {
            b't' => self.literal("true").map(|()| true),
            b'f' => self.literal("false").map(|()| false),
            _ => Err(self.unexpected("a boolean")),
        }
    }

    /// Reads a number: RFC 8259
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    ///
    /// # Errors
    ///
    /// The next value is not a number, or not a well-formed one.
    #[inline]
    pub fn number(&mut self) -> Result<Number, Error> {
        if !matches!(self.peek()?, b'-' | b'0'..=b'9') {
            return Err(self.unexpected("a number"));
        }
        let start = self.pos;
        let negative = self.bytes[self.pos] == b'-';
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        // The integer and fraction digits, accumulated as they are scanned;
        // `None` once they no longer fit in 64 bits.
        let mut digits = Some(0u64);
        let int_digits = self.digits(&mut digits);
        if int_digits == 0 || (int_digits > 1 && self.bytes[int_start] == b'0') {
            self.pos = start;
            return Err(self.error("invalid number"));
        }
        let mut fraction_digits = None;
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            match self.digits(&mut digits) {
                0 => return Err(self.error("invalid number: no digit after `.`")),
                n => fraction_digits = Some(n),
            }
        }
        if let Some(b'e' | b'E') = self.bytes.get(self.pos) {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
            if self.digits(&mut None) == 0 {
                return Err(self.error("invalid number: no digit in the exponent"));
            }
            // An exponent leaves the value to the full parse below.
            digits = None;
        }
        match (digits, fraction_digits) {
            (Some(m), None) if !negative => return Ok(Number::UInt(m)),
            (Some(m), None) if m <= i64::MIN.unsigned_abs() => {
                return Ok(Number::Int(0i64.wrapping_sub_unsigned(m)))
            }
            // Clinger's fast path: the digits and the power of ten are both
            // exact doubles, so their correctly rounded quotient is the
            // correctly rounded value — what `str::parse` returns.
            (Some(m), Some(k)) if m < 1 << 53 && k < POWERS_OF_TEN.len() => {
                let magnitude = m as f64 / POWERS_OF_TEN[k];
                return Ok(Number::Float(if negative { -magnitude } else { magnitude }));
            }
            // Past 64 bits, or an exponent.
            _ => {}
        }
        let text = &self.text[start..self.pos];
        text.parse()
            .map(Number::Float)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }

    /// Reads a string: borrowed from the input when it holds no escape,
    /// decoded into a `String` of its own otherwise.
    ///
    /// # Errors
    ///
    /// The next value is not a string, or not a well-formed one.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek()? != b'"' {
            return Err(self.unexpected("a string"));
        }
        self.pos += 1;
        let text = self.text;
        let mut decoded: Option<String> = None;
        loop {
            // Everything up to the next quote, backslash or control byte is
            // one piece; the input is a `&str`, so it needs no UTF-8 check.
            let run = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            // Both ends sit next to ASCII bytes, hence on char boundaries.
            let piece = &text[run..self.pos];
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(piece),
                        Some(mut out) => {
                            out.push_str(piece);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let unescaped = self.escape()?;
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(piece);
                    out.push(unescaped);
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(Error::custom("unterminated string")),
            }
        }
    }

    /// Opens a sequence: read each element through [`Elements::element`]
    /// until it returns `None`.
    ///
    /// # Errors
    ///
    /// The next value is not an array, or opens one level too deep.
    #[inline]
    pub fn seq(&mut self) -> Result<Elements<'_, 'a>, Error> {
        self.open(b'[', "an array")?;
        Ok(Elements {
            reader: self,
            first: true,
        })
    }

    /// Opens a map: read each key through [`Entries::key`] until it returns
    /// `None`, and the value after each key through [`Entries::value`].
    ///
    /// # Errors
    ///
    /// The next value is not an object, or opens one level too deep.
    #[inline]
    pub fn map(&mut self) -> Result<Entries<'_, 'a>, Error> {
        self.open(b'{', "an object")?;
        Ok(Entries {
            reader: self,
            first: true,
        })
    }

    /// Parses the next value without keeping it and returns its text.
    ///
    /// # Errors
    ///
    /// The value is not well-formed JSON.
    #[inline]
    pub fn skip(&mut self) -> Result<&'a str, Error> {
        let first = self.peek()?;
        let start = self.pos;
        match first {
            b'{' => {
                let mut entries = self.map()?;
                while entries.key()?.is_some() {
                    entries.value().skip()?;
                }
            }
            b'[' => {
                let mut elements = self.seq()?;
                while let Some(element) = elements.element()? {
                    element.skip()?;
                }
            }
            b'"' => {
                self.str()?;
            }
            b't' | b'f' => {
                self.bool()?;
            }
            b'n' => self.literal("null")?,
            _ => {
                self.number()?;
            }
        }
        let text = self.text;
        Ok(&text[start..self.pos])
    }

    /// An error at the current offset.
    fn error(&self, what: impl fmt::Display) -> Error {
        Error::custom(format_args!("{what} at offset {}", self.pos))
    }

    /// "expected `what`, found …" for the byte at the current offset.
    pub(crate) fn unexpected(&self, what: &str) -> Error {
        let found = self.bytes.get(self.pos).map_or('?', |&b| b as char);
        self.error(format_args!("expected {what}, found `{found}`"))
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    #[inline]
    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error("invalid literal"))
        }
    }

    /// Consumes the opening bracket of an array or object, refusing to go
    /// deeper than [`MAX_DEPTH`].
    #[inline]
    fn open(&mut self, bracket: u8, what: &str) -> Result<(), Error> {
        if self.peek()? != bracket {
            return Err(self.unexpected(what));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error(format_args!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Before a member of an open container: consumes the `,` that separates
    /// it from the previous one (`Ok(true)`: a member follows) or the
    /// container's `close` (`Ok(false)`).
    #[inline]
    fn more(&mut self, close: u8, first: &mut bool) -> Result<bool, Error> {
        let next = self.peek()?;
        // Never right after a `,`: the member read after it finds the
        // bracket where a value belongs, which refuses `[1,]` and `{"a":1,}`.
        if next == close {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        if std::mem::take(first) {
            return Ok(true);
        }
        if next == b',' {
            self.pos += 1;
            return Ok(true);
        }
        Err(self.error(format_args!(
            "expected `,` or `{}`, found `{}`",
            close as char, next as char
        )))
    }

    /// Decodes the escape whose backslash has just been consumed.
    fn escape(&mut self) -> Result<char, Error> {
        let esc = self
            .bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unterminated escape"))?;
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
    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
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

    /// Consumes a run of ASCII digits, appending them to the decimal
    /// `value` (which becomes `None` past `u64::MAX`), and returns how many
    /// there were.
    #[inline]
    fn digits(&mut self, value: &mut Option<u64>) -> usize {
        let start = self.pos;
        while let Some(&digit) = self.bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
            *value = value.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(digit - b'0')));
            self.pos += 1;
        }
        self.pos - start
    }
}

/// The elements of a sequence being read (see [`Reader::seq`]).
#[must_use = "a sequence is read to its end through `element()`"]
pub struct Elements<'r, 'a> {
    reader: &'r mut Reader<'a>,
    first: bool,
}

impl<'a> Elements<'_, 'a> {
    /// The reader, positioned at the next element — which the caller must
    /// read before asking again — or `None` once the closing `]` is
    /// consumed.
    ///
    /// # Errors
    ///
    /// Neither a `,` nor the `]` follows the previous element.
    #[inline]
    pub fn element(&mut self) -> Result<Option<&mut Reader<'a>>, Error> {
        Ok(if self.reader.more(b']', &mut self.first)? {
            Some(self.reader)
        } else {
            None
        })
    }
}

/// The entries of a map being read (see [`Reader::map`]).
#[must_use = "a map is read to its end through `key()`"]
pub struct Entries<'r, 'a> {
    reader: &'r mut Reader<'a>,
    first: bool,
}

impl<'a> Entries<'_, 'a> {
    /// The next key, its `:` consumed — read its value through
    /// [`Entries::value`] before asking again — or `None` once the closing
    /// `}` is consumed. Borrowed from the input unless it holds an escape.
    ///
    /// # Errors
    ///
    /// The entry is not a string key followed by `:`, or neither a `,` nor
    /// the `}` follows the previous entry.
    #[inline]
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        let reader = &mut *self.reader;
        if !reader.more(b'}', &mut self.first)? {
            return Ok(None);
        }
        if reader.peek()? != b'"' {
            return Err(reader.error("expected `\"`"));
        }
        let key = reader.str()?;
        if reader.peek()? != b':' {
            return Err(reader.error("expected `:`"));
        }
        reader.pos += 1;
        Ok(Some(key))
    }

    /// The reader, positioned at the value of the key just read.
    #[inline]
    pub fn value(&mut self) -> &mut Reader<'a> {
        self.reader
    }
}
