//! Minimal substitute for the `serde_json` crate: JSON text to and from the
//! types of the vendored `serde`.
//!
//! Supports exactly what this workspace needs — [`to_string`],
//! [`to_string_pretty`] and [`from_str`]. Writing is one call into
//! [`serde::Serialize::write_json`], which appends text straight to the
//! output (see [`serde::Writer`]); non-finite floats come out as `null`,
//! matching real `serde_json`. Reading is one call into
//! [`serde::Deserialize::deserialize`], which pulls the typed value straight
//! out of the text through a [`serde::Reader`] (RFC 8259, nested at most
//! [`MAX_DEPTH`] deep). No [`Value`] tree is built on the way unless `T` is
//! `Value`: measured on a `/v1/search` request, the tree was two thirds of
//! the decode.

use serde::{Deserialize, Reader, Serialize, Writer};
use std::fmt;

pub use serde::{Value, MAX_DEPTH};

/// Error produced while reading JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

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

/// Parses JSON text into a `T`: one [`Deserialize::deserialize`] call on a
/// [`Reader`] over `text`, then the check that nothing but whitespace
/// follows.
///
/// # Errors
///
/// Returns an error if the text is not valid JSON, nests deeper than
/// [`MAX_DEPTH`], or does not match the shape `T` expects. A text that is
/// not valid JSON is reported as such (its first fault) even when `T` would
/// have refused it earlier for its shape — the error it got when the whole
/// text was parsed before any type looked at it.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut reader = Reader::new(text);
    let read = T::deserialize(&mut reader).and_then(|value| reader.end().map(|()| value));
    read.map_err(|refusal| {
        let mut whole = Reader::new(text);
        match whole.skip().and_then(|_| whole.end()) {
            Err(malformed) => malformed.into(),
            Ok(()) => refusal.into(),
        }
    })
}

#[cfg(test)]
mod mutation;
#[cfg(test)]
mod reference;
#[cfg(test)]
mod reference_decode;
#[cfg(test)]
mod tests;
