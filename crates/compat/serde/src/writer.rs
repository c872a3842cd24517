//! The JSON text writer behind [`Serialize`](crate::Serialize); its
//! counterpart on the way in is the [`Reader`](crate::Reader).
//!
//! Everything is appended to one `String`: integers are formatted into a
//! stack buffer, floats go through `write!` straight into the output, strings
//! are copied run by run between the characters that need escaping, and
//! struct keys arrive from the derive as ready-made `"name":` literals.

use std::fmt::{self, Write as _};

/// Spaces per nesting level of the pretty form.
const INDENT: usize = 2;

/// Appends JSON text to a `String`, compact or pretty-printed.
pub struct Writer<'a> {
    out: &'a mut String,
    pretty: bool,
    /// Open sequences and maps around the current position.
    level: usize,
}

impl<'a> Writer<'a> {
    /// A writer of compact JSON: no whitespace anywhere.
    pub fn compact(out: &'a mut String) -> Self {
        Writer {
            out,
            pretty: false,
            level: 0,
        }
    }

    /// A writer of pretty-printed JSON: one element or entry per line,
    /// two-space indentation, a space after every `:`.
    pub fn pretty(out: &'a mut String) -> Self {
        Writer {
            out,
            pretty: true,
            level: 0,
        }
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, value: bool) {
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, mut value: u64) {
        // u64::MAX has 20 digits.
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        self.out
            .extend(digits[at..].iter().map(|&digit| digit as char));
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, value: i64) {
        if value < 0 {
            self.out.push('-');
        }
        self.u64(value.unsigned_abs());
    }

    /// Writes a float: shortest round-trip digits, a trailing `.0` on
    /// integral values below 1e15 so they read back as floats, and `null`
    /// for NaN and the infinities (as real `serde_json` does).
    pub fn f64(&mut self, value: f64) {
        if !value.is_finite() {
            self.null();
        } else if value.fract() == 0.0 && value.abs() < 1e15 {
            let _ = write!(self.out, "{value:.1}");
        } else {
            let _ = write!(self.out, "{value}");
        }
    }

    /// Writes a string, quoted and escaped.
    pub fn str(&mut self, value: &str) {
        self.out.push('"');
        self.escaped(value);
        self.out.push('"');
    }

    /// Writes the `Display` form of `value` as a string, quoted and escaped,
    /// without building it in a `String` of its own first.
    pub fn display(&mut self, value: &impl fmt::Display) {
        self.out.push('"');
        let start = self.out.len();
        let _ = write!(self.out, "{value}");
        if self.out.as_bytes()[start..]
            .iter()
            .any(|&b| ESCAPE[b as usize] != 0)
        {
            let raw = self.out.split_off(start);
            self.escaped(&raw);
        }
        self.out.push('"');
    }

    /// Appends `json` as it is: text the caller already rendered in the
    /// writer's own form (the derive passes the quoted name of a unit enum
    /// variant; the daemon's answer writer, pieces of compact JSON).
    pub fn raw(&mut self, json: &str) {
        self.out.push_str(json);
    }

    /// Opens a sequence; write each element through
    /// [`Compound::element`], then call [`Compound::end`].
    pub fn seq(&mut self) -> Compound<'_, 'a> {
        self.open('[', ']')
    }

    /// Opens a map; write each value through one of the `key` methods of
    /// [`Compound`], then call [`Compound::end`].
    pub fn map(&mut self) -> Compound<'_, 'a> {
        self.open('{', '}')
    }

    fn open(&mut self, open: char, close: char) -> Compound<'_, 'a> {
        self.out.push(open);
        self.level += 1;
        Compound {
            writer: self,
            empty: true,
            close,
        }
    }

    /// Copies `text`, replacing `"`, `\` and control characters by their
    /// escapes; the stretches between them are copied whole.
    fn escaped(&mut self, text: &str) {
        let mut copied = 0;
        for (at, &byte) in text.as_bytes().iter().enumerate() {
            let escape = ESCAPE[byte as usize];
            if escape == 0 {
                continue;
            }
            // `at` is the index of an ASCII byte, hence a char boundary.
            self.out.push_str(&text[copied..at]);
            if escape == b'u' {
                let _ = write!(self.out, "\\u{byte:04x}");
            } else {
                self.out.push('\\');
                self.out.push(escape as char);
            }
            copied = at + 1;
        }
        self.out.push_str(&text[copied..]);
    }

    fn newline_indent(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out
                .extend(std::iter::repeat_n(' ', self.level * INDENT));
        }
    }
}

/// For each byte of a string, what follows the backslash of its escape:
/// `0` when the byte stands for itself, `u` when it needs the `\u00XX` form.
const ESCAPE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut control = 0;
    while control < 0x20 {
        table[control] = b'u';
        control += 1;
    }
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table
};

/// A sequence or map being written: places the commas (and, in the pretty
/// form, the line breaks) between its members.
#[must_use = "a sequence or map is closed by `end()`"]
pub struct Compound<'w, 'a> {
    writer: &'w mut Writer<'a>,
    empty: bool,
    close: char,
}

impl<'a> Compound<'_, 'a> {
    /// The writer for the next element of a sequence.
    pub fn element(&mut self) -> &mut Writer<'a> {
        if !self.empty {
            self.writer.out.push(',');
        }
        self.empty = false;
        self.writer.newline_indent();
        self.writer
    }

    /// The writer for the value under the next key of a map. `literal` is
    /// the key as it appears in compact JSON — quoted, escaped, colon
    /// included: `"\"period\":"`.
    pub fn key(&mut self, literal: &'static str) -> &mut Writer<'a> {
        self.element().out.push_str(literal);
        self.after_key()
    }

    /// Like [`Compound::key`], for a key only known at run time.
    pub fn key_str(&mut self, key: &str) -> &mut Writer<'a> {
        self.element().str(key);
        self.writer.out.push(':');
        self.after_key()
    }

    /// Like [`Compound::key_str`], with the key's `Display` form.
    pub fn key_display(&mut self, key: &impl fmt::Display) -> &mut Writer<'a> {
        self.element().display(key);
        self.writer.out.push(':');
        self.after_key()
    }

    fn after_key(&mut self) -> &mut Writer<'a> {
        if self.writer.pretty {
            self.writer.out.push(' ');
        }
        self.writer
    }

    /// Closes the sequence or map. An empty one is `[]` / `{}` in both
    /// forms.
    pub fn end(self) {
        self.writer.level -= 1;
        if !self.empty {
            self.writer.newline_indent();
        }
        self.writer.out.push(self.close);
    }
}
