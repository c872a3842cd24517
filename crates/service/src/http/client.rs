//! How a caller talks to a daemon: the keep-alive [`HttpClient`] and the
//! one-shot [`http_call`] / [`http_call_streaming`] wrappers.
//!
//! This module owns one decision: *when a connection is opened, reused,
//! retried or given up on*. What a response *is* — where its head ends, how
//! its body is framed — is `parse`'s decision; the blocking reader here only
//! feeds that parser bytes until it is satisfied.
use super::parse::{
    decode_body, find_head_end, parse_head, Body, Framing, ParseCursor, ResponseHeaders,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side TCP connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Client-side socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// A keep-alive HTTP/1.1 client: one TCP connection reused across calls.
///
/// Used by `tessel-client --repeat` and the end-to-end tests. The connection
/// is established lazily on the first call and transparently re-established
/// when the server closes it (idle timeout, `Connection: close` response, or
/// daemon restart).
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    host: String,
    stream: Option<TcpStream>,
}

impl HttpClient {
    /// Creates a client for `addr` (e.g. `127.0.0.1:7700`) and opens its
    /// connection.
    ///
    /// # Errors
    ///
    /// Fails if `addr` does not resolve or the connection is refused.
    pub fn new(addr: &str) -> std::io::Result<Self> {
        let mut client = Self::unconnected(addr)?;
        client.stream = Some(client.open()?);
        Ok(client)
    }

    /// A client for `addr` whose connection opens on the first call.
    fn unconnected(addr: &str) -> std::io::Result<Self> {
        let socket_addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "unresolvable addr")
        })?;
        Ok(HttpClient {
            addr: socket_addr,
            host: addr.to_string(),
            stream: None,
        })
    }

    fn open(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// `true` while a connection from an earlier call is still held open.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Issues one request, reusing the held connection when possible, and
    /// returns `(status, body)`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses. A stale kept-alive
    /// connection (closed by the server between calls) is retried once on a
    /// fresh connection before an error is returned.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        self.call_with_headers(method, path, body, &[])
            .map(|(status, _headers, payload)| (status, payload))
    }

    /// Like [`HttpClient::call`], but sends `extra_headers` with the request
    /// (e.g. `X-Tessel-Trace-Id` to join the originating trace) and returns
    /// the response headers alongside status and body. Used by
    /// `tessel-client --timing` to read the `Server-Timing` breakdown.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses, with the same
    /// one-retry behaviour as [`HttpClient::call`].
    pub fn call_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<(u16, ResponseHeaders, String)> {
        let reused = self.stream.is_some();
        match self.call_once(method, path, body, extra_headers) {
            Ok(result) => Ok(result),
            Err(e) if reused && retriable(&e) => {
                // The server dropped the idle connection; retry fresh.
                self.stream = None;
                self.call_once(method, path, body, extra_headers)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn call_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<(u16, ResponseHeaders, String)> {
        let stream = self.send(method, path, body.unwrap_or(""), extra_headers)?;
        let (status, headers, _framing, payload) = read_response(stream, |_| {})?;
        let payload = utf8_body(payload)?;
        if last_header(&headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
            self.stream = None;
        }
        Ok((status, headers, payload))
    }

    /// Writes one request on the held connection (opening it first when
    /// there is none) and hands the stream back for the response.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            self.stream = Some(self.open()?);
        }
        let stream = self.stream.as_mut().expect("connection just opened");
        // HTTP/1.1 defaults to keep-alive: no Connection header needed.
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\nContent-Length: {length}\r\n",
            host = self.host,
            length = body.len(),
        );
        for (name, value) in extra_headers {
            request.push_str(name);
            request.push_str(": ");
            request.push_str(value);
            request.push_str("\r\n");
        }
        request.push_str("\r\n");
        request.push_str(body);
        stream.write_all(request.as_bytes())?;
        Ok(stream)
    }
}

fn retriable(error: &std::io::Error) -> bool {
    matches!(
        error.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::WriteZero
    )
}

fn invalid_data(message: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.into())
}

/// Appends one read from `stream` to `buffer`, with room for the `missing`
/// bytes the parser still needs (at least a page, at most 64 KiB at a time —
/// a peer's claim of a large body is not believed before the bytes arrive).
/// Fails with `UnexpectedEof` (and `closed_mid`) when the peer has closed
/// the connection.
fn read_more(
    stream: &mut TcpStream,
    buffer: &mut Vec<u8>,
    missing: usize,
    closed_mid: &'static str,
) -> std::io::Result<()> {
    let filled = buffer.len();
    buffer.resize(filled + missing.clamp(4096, 64 * 1024), 0);
    let read = stream.read(&mut buffer[filled..]);
    buffer.truncate(filled + *read.as_ref().unwrap_or(&0));
    if read? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            closed_mid,
        ));
    }
    Ok(())
}

/// Reads one HTTP response off `stream` by feeding `parse` reads until it
/// has a head, then until the body that head announces is complete — exactly
/// that: the connection may stay open, so reading to EOF is not an option.
/// Returns the status, the headers (names keep their wire casing, so callers
/// look them up case-insensitively), the framing and the body. `decoded`
/// watches a chunked body grow: it sees the bytes decoded so far after every
/// pass (the whole body on the last), which is how a streamed response is
/// consumed while still arriving.
fn read_response(
    stream: &mut TcpStream,
    mut decoded: impl FnMut(&[u8]),
) -> std::io::Result<(u16, ResponseHeaders, Framing, Vec<u8>)> {
    let mut buffer: Vec<u8> = Vec::with_capacity(4096);
    let mut cursor = ParseCursor::default();
    let head_end = loop {
        let found = find_head_end(&buffer, 0, &mut cursor.scanned, "response headers");
        match found.map_err(invalid_data)? {
            Some(end) => break end,
            None => read_more(stream, &mut buffer, 1, "connection closed mid-response")?,
        }
    };
    let head = String::from_utf8_lossy(&buffer[..head_end]);
    let mut headers = ResponseHeaders::new();
    let (status_line, framing) = parse_head(&head, |name, value| {
        headers.push((name.to_string(), value.to_string()));
    })
    .map_err(invalid_data)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid_data("missing status code"))?;
    loop {
        match decode_body(&buffer, head_end + 4, framing, &mut cursor).map_err(invalid_data)? {
            Body::Complete(body, _consumed) => {
                if framing == Framing::Chunked {
                    decoded(&body);
                }
                return Ok((status, headers, framing, body));
            }
            Body::Missing(missing) => {
                decoded(&cursor.body);
                read_more(stream, &mut buffer, missing, "connection closed mid-body")?;
            }
        }
    }
}

/// The value of the last `name` header (a repeated header's last value wins).
fn last_header<'a>(headers: &'a ResponseHeaders, name: &str) -> Option<&'a str> {
    let found = headers
        .iter()
        .rev()
        .find(|(key, _)| key.eq_ignore_ascii_case(name));
    found.map(|(_, value)| value.as_str())
}

fn utf8_body(body: Vec<u8>) -> std::io::Result<String> {
    String::from_utf8(body).map_err(|_| invalid_data("body is not UTF-8"))
}

/// Issues one HTTP request against `addr` on a throwaway connection and
/// returns `(status, body)`.
///
/// The one-shot counterpart of [`HttpClient`]: it sends `Connection: close`
/// so the server tears the connection down after responding. Used by the
/// subcommands of `tessel-client` that only ever make one call.
///
/// # Errors
///
/// Propagates socket errors and malformed responses.
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    HttpClient::unconnected(addr)?
        .call_with_headers(method, path, body, &[("Connection", "close")])
        .map(|(status, _headers, payload)| (status, payload))
}

/// Issues one streaming request against `addr` on a throwaway connection
/// and decodes the chunked SSE response incrementally: `on_event` is
/// invoked with each `data:` payload (JSON text) the moment its frame is
/// complete, terminal event included. Returns `(status, last_payload)` —
/// for a streamed response the last payload is the terminal `result` /
/// `error` event; a non-chunked response (transport-level errors like `429`
/// or `503`) is returned whole as the payload with no events.
///
/// Used by `tessel-client search --stream`.
///
/// # Errors
///
/// Propagates socket errors and malformed responses.
pub fn http_call_streaming(
    addr: &str,
    path: &str,
    body: &str,
    mut on_event: impl FnMut(&str),
) -> std::io::Result<(u16, String)> {
    let mut client = HttpClient::unconnected(addr)?;
    let stream = client.send("POST", path, body, &[("Connection", "close")])?;
    // Complete SSE frames (`data: ...\n\n`) are emitted as the chunked
    // decode uncovers them.
    let mut emitted = 0usize;
    let mut last_event = String::new();
    let (status, _headers, framing, body) = read_response(stream, |decoded| {
        while let Some(end) = decoded[emitted..].windows(2).position(|w| w == b"\n\n") {
            let frame = String::from_utf8_lossy(&decoded[emitted..emitted + end]);
            emitted += end + 2;
            for line in frame.lines() {
                if let Some(data) = line.strip_prefix("data: ") {
                    last_event.clear();
                    last_event.push_str(data);
                    on_event(data);
                }
            }
        }
    })?;
    // A transport-level error (shed, malformed body) is a plain
    // Content-Length response: returned whole, whatever it contains.
    match framing {
        Framing::Chunked => Ok((status, last_event)),
        Framing::Length(_) => Ok((status, utf8_body(body)?)),
    }
}
