//! The HTTP/1.1 message grammar and its size limits — pure functions over
//! bytes, shared by both directions of the wire.
//!
//! This module owns one decision: *which byte sequences are a message, and
//! where it ends*. The server's incremental [`parse_request`] and the
//! client's blocking response reader drive the same three steps:
//! [`find_head_end`] (the one search for `\r\n\r\n`, and the header cap),
//! [`parse_head`] (start line, fields, `Content-Length` /
//! `Transfer-Encoding`) and [`decode_body`] (length or chunked framing).
//! Nothing here touches a socket, a clock or a metric, which is what lets
//! the mutation fuzzer in `http/fuzz.rs` hold it to "never panics, never
//! reads past the buffer, one byte at a time equals all at once".

/// Upper bound on the bytes of a message head (terminator included) and of a
/// chunked body's trailer section.
pub(crate) const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Upper bound on body bytes accepted per message.
pub(crate) const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
/// Longest inbound `X-Tessel-Trace-Id` header value considered at all; a
/// longer value is dropped before validation so a hostile peer cannot make
/// the daemon buffer or log an arbitrarily large header. (Valid trace IDs
/// are exactly 32 characters; the slack only exists to keep the cutoff far
/// from the legitimate size.)
pub(crate) const MAX_TRACE_HEADER_BYTES: usize = 128;
/// Longest chunk-size line accepted (hex size + extensions + CRLF). A size
/// line that long without a CRLF is garbage, not a slow sender.
pub(crate) const MAX_CHUNK_SIZE_LINE: usize = 128;

/// Response headers as they appeared on the wire: `(name, value)` pairs in
/// arrival order, names keeping their wire casing (look up
/// case-insensitively).
pub type ResponseHeaders = Vec<(String, String)>;

/// A parse step's outcome: `Ok(None)` means the buffer does not hold enough
/// bytes yet, `Err` that it can never become valid.
pub(crate) type Step<T> = Result<Option<T>, String>;

/// One parsed request, handed from the event loop to the worker pool. The
/// default, an empty request line, is what refused bytes are answered as.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct ParsedRequest {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) body: String,
    /// The sender asked for the connection to close after this request's
    /// response (explicit `Connection: close`, or HTTP/1.0 without
    /// `keep-alive`).
    pub(crate) close: bool,
    /// Raw `X-Tessel-Trace-Id` header value, if one arrived within the size
    /// cap. Validated by the worker (`tessel_obs::TraceId::parse`); an
    /// invalid value mints a fresh ID and is never echoed back.
    pub(crate) trace_header: Option<String>,
}

/// Incremental-parse state over the message at the front of a growing
/// buffer; reset to `default()` whenever a complete message is drained. The
/// checkpoints stay valid because the buffer is only ever appended to until
/// then.
#[derive(Debug, Default)]
pub(crate) struct ParseCursor {
    /// Buffer prefix already searched for the head terminator.
    pub(crate) scanned: usize,
    /// Buffer offset of the next chunk-size line — everything before it is
    /// already decoded into `body`. `0` until a chunked decode begins.
    chunk_pos: usize,
    /// Buffer prefix already searched for the end of the trailer section.
    trailers_scanned: usize,
    /// Chunked-body bytes decoded so far.
    pub(crate) body: Vec<u8>,
}

/// How a message's head says its body is delimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Framing {
    /// Exactly this many bytes follow the head (`0` without a
    /// `Content-Length`).
    Length(usize),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// A body that [`decode_body`] could not finish, or did.
#[derive(Debug)]
pub(crate) enum Body {
    /// At least this many more bytes must arrive before another attempt can
    /// get further (a hint for blocking readers; the event loop ignores it).
    Missing(usize),
    /// The complete body and the buffer offset one past its last byte.
    Complete(Vec<u8>, usize),
}

/// Attempts to parse one request from the front of `buf`: `Ok(Some(..))`
/// carries the request and how many buffer bytes it consumed. `cursor`
/// caches how far the head-terminator scan and any chunked-body decode have
/// progressed, so repeated calls over a growing buffer stay linear.
pub(crate) fn parse_request(buf: &[u8], cursor: &mut ParseCursor) -> Step<(ParsedRequest, usize)> {
    let Some(head_end) = find_head_end(buf, 0, &mut cursor.scanned, "headers")? else {
        return Ok(None);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut connection = String::new();
    let mut trace_header = None;
    let (request_line, framing) = parse_head(&head, |name, value| {
        if name.eq_ignore_ascii_case("connection") {
            connection = value.to_ascii_lowercase();
        } else if name.eq_ignore_ascii_case("x-tessel-trace-id")
            // Oversized values are dropped here (treated as absent, so a
            // fresh ID is minted); everything else is kept raw for the
            // worker to validate.
            && !value.is_empty()
            && value.len() <= MAX_TRACE_HEADER_BYTES
        {
            trace_header = Some(value.to_string());
        }
    })?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_uppercase();
    let path = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if method.is_empty() || !path.starts_with('/') {
        return Err(format!("malformed request line `{request_line}`"));
    }
    let close = connection.contains("close")
        || (version.eq_ignore_ascii_case("HTTP/1.0") && !connection.contains("keep-alive"));

    let (body, consumed) = match decode_body(buf, head_end + 4, framing, cursor)? {
        Body::Missing(_) => return Ok(None),
        Body::Complete(body, consumed) => (body, consumed),
    };
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let request = ParsedRequest {
        method,
        path,
        body,
        close,
        trace_header,
    };
    Ok(Some((request, consumed)))
}

/// Offset of the `\r\n\r\n` that ends the header section starting at
/// `start` (a message head, or a chunked body's trailers) — the one place a
/// section terminator is searched for and the one place
/// [`MAX_HEADER_BYTES`] is applied. The cap covers the section *including*
/// its terminator and holds whether or not the terminator has arrived: only
/// the first `MAX_HEADER_BYTES` bytes are ever searched, so an oversized
/// section is an error the moment the buffer reaches the cap, however many
/// bytes one read delivered. `scanned` resumes the search where the last
/// call stopped.
pub(crate) fn find_head_end(
    buf: &[u8],
    start: usize,
    scanned: &mut usize,
    what: &str,
) -> Step<usize> {
    let window = &buf[..buf.len().min(start + MAX_HEADER_BYTES)];
    let from = (*scanned).max(start).min(window.len());
    if let Some(found) = window[from..].windows(4).position(|w| w == b"\r\n\r\n") {
        return Ok(Some(from + found));
    }
    if window.len() == start + MAX_HEADER_BYTES {
        return Err(format!("{what} too large"));
    }
    *scanned = window.len().saturating_sub(3);
    Ok(None)
}

/// Splits a message head (everything before the terminator, lossily decoded)
/// into its start line and header fields and reads the body framing — the
/// one interpreter of `Content-Length` and `Transfer-Encoding`, for requests
/// and responses alike. Every `name: value` field (both trimmed) is also
/// passed to `field`, so each direction can pick out what else it needs
/// without a second pass.
pub(crate) fn parse_head<'a>(
    head: &'a str,
    mut field: impl FnMut(&'a str, &'a str),
) -> Result<(&'a str, Framing), String> {
    let mut lines = head.split("\r\n");
    let start_line = lines.next().unwrap_or_default();
    let mut content_length = None;
    let mut chunked = false;
    for (name, value) in lines.filter_map(|line| line.split_once(':')) {
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            let length = parse_digits(value, 10).ok_or("invalid Content-Length")?;
            // Two lengths that disagree are a framing attack (RFC 9112
            // §6.3), not a choice for the parser to make; a repeated
            // identical value is harmless.
            if content_length.is_some_and(|earlier| earlier != length) {
                return Err("conflicting Content-Length headers".into());
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // `chunked` must be the final (only, in practice) coding;
            // anything else is something this parser cannot decode.
            if !value.eq_ignore_ascii_case("chunked") {
                let value = value.to_ascii_lowercase();
                return Err(format!("unsupported Transfer-Encoding `{value}`"));
            }
            chunked = true;
        }
        field(name, value);
    }
    // Transfer-Encoding takes precedence over any Content-Length (RFC 9112
    // §6.3) — a message smuggling both is decoded as chunked.
    let framing = if chunked {
        Framing::Chunked
    } else {
        Framing::Length(content_length.unwrap_or(0))
    };
    Ok((start_line, framing))
}

/// A length as the grammar spells it: one or more digits of `radix` and
/// nothing else. (`str::parse` and `from_str_radix` also accept a leading
/// `+`, which no HTTP length may carry.) Empty and overflowing are `None` too.
fn parse_digits(text: &str, radix: u32) -> Option<usize> {
    let digits_only = text.chars().all(|c| c.is_digit(radix));
    digits_only.then(|| usize::from_str_radix(text, radix).ok())?
}

/// Extracts the body that starts at `body_start` under `framing` — the one
/// body-framing decoder behind both the server's cursor and the client's
/// blocking reader. `cursor` checkpoints the chunked coding.
pub(crate) fn decode_body(
    buf: &[u8],
    body_start: usize,
    framing: Framing,
    cursor: &mut ParseCursor,
) -> Result<Body, String> {
    match framing {
        Framing::Length(length) => {
            if length > MAX_BODY_BYTES {
                return Err("body too large".into());
            }
            let end = body_start + length;
            Ok(match buf.get(body_start..end) {
                Some(body) => Body::Complete(body.to_vec(), end),
                None => Body::Missing(end - buf.len()),
            })
        }
        Framing::Chunked => {
            if cursor.chunk_pos == 0 {
                cursor.chunk_pos = body_start;
            }
            Ok(match decode_chunked(buf, cursor)? {
                Some(consumed) => Body::Complete(std::mem::take(&mut cursor.body), consumed),
                None => Body::Missing(1),
            })
        }
    }
}

/// Decodes an HTTP/1.1 `chunked` transfer coding starting at
/// `cursor.chunk_pos`: `hex-size[;ext]\r\n data \r\n` repeated, then `0\r\n`, an
/// optional trailer section, and a final `\r\n`. Trailer fields are consumed
/// and ignored. `Ok(Some(consumed))` is the buffer offset one past the final
/// CRLF of the stream, with the decoded body in `cursor.body`.
///
/// The cursor checkpoints at every complete chunk, so a body trickling in
/// across many read events costs work linear in the bytes received, not
/// quadratic — only the final (incomplete) chunk is rescanned.
fn decode_chunked(buf: &[u8], cursor: &mut ParseCursor) -> Step<usize> {
    loop {
        let pos = cursor.chunk_pos;
        let line_window = buf.len().min(pos + MAX_CHUNK_SIZE_LINE);
        let Some(line_len) = buf
            .get(pos..line_window)
            .and_then(|line| line.windows(2).position(|w| w == b"\r\n"))
        else {
            if buf.len() > pos + MAX_CHUNK_SIZE_LINE {
                return Err("invalid chunk size line".into());
            }
            return Ok(None);
        };
        // Chunk extensions (";name=value") are legal; ignore them.
        let size_text = buf[pos..pos + line_len]
            .split(|&b| b == b';')
            .next()
            .unwrap_or_default()
            .trim_ascii();
        let size_text =
            std::str::from_utf8(size_text).map_err(|_| "invalid chunk size line".to_string())?;
        let size = parse_digits(size_text, 16)
            .ok_or_else(|| format!("invalid chunk size `{size_text}`"))?;
        let data_start = pos + line_len + 2;
        if size == 0 {
            // Last chunk: consume the trailer section. No trailers is the
            // common case (an immediate CRLF); otherwise trailer fields run
            // until an empty line, i.e. a CRLFCRLF from just before them.
            return Ok(match buf.get(data_start..data_start + 2) {
                None => None,
                Some(b"\r\n") => Some(data_start + 2),
                Some(_) => {
                    let scanned = &mut cursor.trailers_scanned;
                    find_head_end(buf, data_start, scanned, "trailers")?.map(|end| end + 4)
                }
            });
        }
        // Compared against the *remaining* budget: immune to `len + size`
        // overflow from an adversarial (e.g. 2^64-ish) chunk size.
        if size > MAX_BODY_BYTES - cursor.body.len() {
            return Err("body too large".into());
        }
        let data_end = data_start + size;
        match buf.get(data_end..data_end + 2) {
            None => return Ok(None),
            Some(b"\r\n") => {}
            Some(_) => return Err("chunk data not terminated by CRLF".into()),
        }
        cursor.body.extend_from_slice(&buf[data_start..data_end]);
        cursor.chunk_pos = data_end + 2;
    }
}

/// Extracts a top-level integer field from a JSON body without a full parse:
/// finds `"name"` followed by `:` and an optionally signed integer. Good
/// enough for admission hints (`priority`, `deadline_ms`) — the worker
/// re-parses the body properly, and a false positive from a pathological
/// nested key only perturbs queue order, never correctness — and for the
/// `unix_ms` stamp of a peer's `/healthz` body.
pub(crate) fn scan_json_integer(body: &str, name: &str) -> Option<i64> {
    let needle = format!("\"{name}\"");
    let mut from = 0;
    while let Some(found) = body[from..].find(&needle) {
        let after = from + found + needle.len();
        let rest = body[after..].trim_start();
        if let Some(rest) = rest.strip_prefix(':') {
            let rest = rest.trim_start();
            let end = rest
                .char_indices()
                .find(|&(i, c)| !(c.is_ascii_digit() || (i == 0 && c == '-')))
                .map_or(rest.len(), |(i, _)| i);
            return rest[..end].parse().ok();
        }
        from = after;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(wire: &[u8]) -> Step<(ParsedRequest, usize)> {
        parse_request(wire, &mut ParseCursor::default())
    }

    /// A request whose head (terminator included) is exactly `head_bytes`.
    fn padded_request(head_bytes: usize) -> Vec<u8> {
        let fixed = "GET /healthz HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
        let pad = "x".repeat(head_bytes - fixed);
        format!("GET /healthz HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n").into_bytes()
    }

    #[test]
    fn header_cap_holds_when_the_terminator_has_arrived() {
        // A head of exactly the cap still parses, whole or bytewise.
        let at_cap = padded_request(MAX_HEADER_BYTES);
        assert!(matches!(request(&at_cap), Ok(Some((_, consumed))) if consumed == at_cap.len()));
        // One byte more is refused even though its `\r\n\r\n` is in the
        // buffer — as is the 100 KB head one large read can deliver.
        for oversized in [MAX_HEADER_BYTES + 1, 100 * 1024] {
            assert_eq!(
                request(&padded_request(oversized)),
                Err("headers too large".into())
            );
        }
        // The same head trickling in is refused the moment the buffer
        // reaches the cap, and not a byte earlier.
        let over = padded_request(MAX_HEADER_BYTES + 1);
        let mut cursor = ParseCursor::default();
        assert_eq!(
            parse_request(&over[..MAX_HEADER_BYTES - 1], &mut cursor),
            Ok(None)
        );
        assert!(parse_request(&over[..MAX_HEADER_BYTES], &mut cursor).is_err());
    }

    #[test]
    fn oversized_trailer_sections_are_refused() {
        let chunked = "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n";
        let trailers = |bytes: usize| {
            let pad = "x".repeat(bytes - "X-T: \r\n\r\n".len());
            format!("{chunked}X-T: {pad}\r\n\r\n").into_bytes()
        };
        let at_cap = trailers(MAX_HEADER_BYTES);
        assert!(
            matches!(request(&at_cap), Ok(Some((r, consumed))) if r.body == "ok" && consumed == at_cap.len())
        );
        assert_eq!(
            request(&trailers(MAX_HEADER_BYTES + 1)),
            Err("trailers too large".into())
        );
    }

    #[test]
    fn lengths_are_digits_only() {
        // `str::parse` would take the sign; the grammar does not.
        for bad in ["+5", "-5", "5 5", "0x5", "", "99999999999999999999999"] {
            let wire = format!("POST / HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nhello");
            assert_eq!(
                request(wire.as_bytes()),
                Err("invalid Content-Length".into()),
                "{bad:?}"
            );
            let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {bad}");
            assert_eq!(
                parse_head(&head, |_, _| {}),
                Err("invalid Content-Length".into())
            );
        }
        for bad in ["+a", "-1", "0x1", "1g"] {
            let wire =
                format!("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{bad}\r\nhelloworld\r\n0\r\n\r\n");
            assert_eq!(
                request(wire.as_bytes()),
                Err(format!("invalid chunk size `{bad}`"))
            );
            let mut cursor = ParseCursor::default();
            let body = format!("{bad}\r\nhelloworld\r\n0\r\n\r\n");
            assert!(decode_body(body.as_bytes(), 0, Framing::Chunked, &mut cursor).is_err());
        }
        // Plain digits — upper- or lower-case hex for chunk sizes — pass.
        let wire =
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nA\r\nhelloworld\r\n0\r\n\r\n";
        assert!(matches!(request(wire), Ok(Some((r, _))) if r.body == "helloworld"));
    }

    #[test]
    fn duplicate_content_lengths_must_agree() {
        let with = |first: &str, second: &str| {
            format!("Content-Length: {first}\r\nHost: t\r\ncontent-length: {second}")
        };
        for (first, second, agree) in [("5", "5", true), ("5", "6", false), ("5", "05", true)] {
            let wire = format!("POST / HTTP/1.1\r\n{}\r\n\r\nhello!", with(first, second));
            let response = format!("HTTP/1.1 200 OK\r\n{}", with(first, second));
            if agree {
                assert!(matches!(request(wire.as_bytes()), Ok(Some((r, _))) if r.body == "hello"));
                let framing = parse_head(&response, |_, _| {}).map(|(_, framing)| framing);
                assert_eq!(framing, Ok(Framing::Length(5)));
            } else {
                let refusal = Err("conflicting Content-Length headers".to_string());
                assert_eq!(request(wire.as_bytes()), refusal.clone().map(|()| None));
                assert_eq!(parse_head(&response, |_, _| {}).map(|_| ()), refusal);
            }
        }
    }
}
