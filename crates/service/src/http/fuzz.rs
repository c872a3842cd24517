//! Seeded mutation fuzzer for [`super::parse`], modelled on the JSON
//! parser's (`crates/compat/serde_json/src/tests.rs`).
//!
//! A corpus of valid requests and responses is mutated (byte flips,
//! truncation, splices, duplicated header lines, huge and signed numbers)
//! and every mutant is held to: the parser never panics; it never claims
//! more bytes than it was given; a decoded body never exceeds
//! `MAX_BODY_BYTES` nor — with the decoder's buffer — outgrows the input;
//! and, the differential property, feeding the bytes one at a time yields
//! exactly the outcomes one whole-buffer parse yields (which is what checks
//! the cursor's `scanned` / chunk checkpoints).
//!
//! `TESSEL_FUZZ_SEED` (decimal or 0x-hex) picks the seed; a failure prints
//! seed, case and input. Tier-1 runs a few hundred cases; CI's fuzz job runs
//! 10k with `cargo test --release -p tessel-service --lib http::fuzz -- --include-ignored`.

use super::parse::*;

pub(super) struct Rng(pub(super) u64);

impl Rng {
    pub(super) fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub(super) fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn pick<'a, T>(&mut self, choices: &'a [T]) -> &'a T {
        &choices[self.below(choices.len())]
    }
}

pub(super) fn fuzz_seed() -> u64 {
    let raw = std::env::var("TESSEL_FUZZ_SEED").ok();
    let parsed = raw
        .as_deref()
        .map(str::trim)
        .and_then(|raw| match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => raw.parse().ok(),
        });
    parsed.unwrap_or(0xf16e_4a44)
}

/// One HTTP chunk carrying `payload`, with an optional extension.
fn chunk(payload: &str, extension: &str) -> String {
    format!("{:x}{extension}\r\n{payload}\r\n", payload.len())
}

/// Valid messages of every shape the grammar has.
fn corpus() -> Vec<Vec<u8>> {
    let post = |target: &str, extra: &str, body: &str| {
        let length = body.len();
        format!("POST {target} HTTP/1.1\r\n{extra}Content-Length: {length}\r\n\r\n{body}")
    };
    let get = |extra: &str| format!("GET /healthz HTTP/1.1\r\n{extra}\r\n");
    let trace_at_cap = "f".repeat(MAX_TRACE_HEADER_BYTES);
    let trace_over_cap = "f".repeat(MAX_TRACE_HEADER_BYTES + 1);
    let near_header_cap = "x".repeat(MAX_HEADER_BYTES - 64);
    let chunked = "Transfer-Encoding: chunked\r\n\r\n";
    let texts = [
        get("Host: t\r\n"),
        post("/v1/search", "Content-Type: application/json\r\n", "{\"priority\":3,\"deadline_ms\":1}"),
        format!(
            "POST /v1/search?stream=1 HTTP/1.1\r\n{chunked}{}{}0\r\nX-Checksum: abc\r\nX-More: 1\r\n\r\n",
            chunk("hello", ";ext=1"),
            chunk(" world, and é", ""),
        ),
        format!("PUT /v1/debug/loglevel HTTP/1.1\r\n{chunked}{}0\r\n\r\n", chunk("{\"level\":\"warn\"}", "")),
        get("") + "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
        post("/a", "", "hi") + &post("/b", "Content-Length: 2\r\n", "yo"),
        "GET / HTTP/1.0\r\n\r\n".to_string(),
        "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".to_string(),
        get(&format!("X-Tessel-Trace-Id: {trace_at_cap}\r\n")),
        get(&format!("x-tessel-trace-id: {trace_over_cap}\r\n")),
        get("X-Tessel-Trace-Id: 0123456789abcdef0123456789abcdef\r\n"),
        post("/", &format!("X-Pad: {near_header_cap}\r\n"), "z"),
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 15\r\nConnection: keep-alive\r\nServer-Timing: parse;dur=0.010\r\n\r\n{\"cached\":true}".to_string(),
        "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\nConnection: close\r\nRetry-After: 1\r\n\r\n{}".to_string(),
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n{chunked}{}{}0\r\n\r\n",
            chunk("data: {\"value\":9}\n\n", ""),
            chunk("data: {\"value\":7}\n\n", ""),
        ),
    ];
    texts.into_iter().map(String::into_bytes).collect()
}

/// Bytes that steer the parser somewhere else when dropped into a message.
const DICTIONARY: [&str; 22] = [
    "\r\n",
    "\r\n\r\n",
    "\r",
    "\n",
    ":",
    ";",
    " ",
    "Content-Length: ",
    "Content-Length: 3\r\n",
    "Transfer-Encoding: chunked\r\n",
    "Transfer-Encoding: gzip\r\n",
    "Connection: close\r\n",
    "+5",
    "-1",
    "+a",
    "0",
    "0\r\n\r\n",
    "18446744073709551616",
    "ffffffffffffffff",
    "1ffffffffffffffff",
    "HTTP/1.0",
    "é",
];

fn mutate(rng: &mut Rng, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = rng.pick(corpus).clone();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(8) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            1 if at < bytes.len() => bytes[at] = rng.next() as u8,
            2 => {
                let piece = rng.pick(&DICTIONARY).as_bytes();
                bytes.splice(at..at, piece.iter().copied());
            }
            3 => {
                let end = (at + rng.below(8)).min(bytes.len());
                bytes.drain(at..end);
            }
            4 => bytes.truncate(at),
            5 => {
                let other = rng.pick(corpus);
                let from = rng.below(other.len() + 1);
                bytes.truncate(at);
                bytes.extend_from_slice(&other[from..]);
            }
            6 => {
                // Duplicate one whole line (a header, a chunk, a start line).
                let start = bytes[..at]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |p| p + 1);
                let end = bytes[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |p| at + p + 1);
                let line = bytes[start..end].to_vec();
                bytes.splice(end..end, line);
            }
            _ => {
                let end = (at + rng.below(16)).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
        }
    }
    bytes
}

/// What a connection observes when `input` reaches it `step` bytes at a
/// time: every parsed request in order, ended by the error if there is one.
fn request_outcomes(
    input: &[u8],
    step: usize,
    context: &str,
) -> Vec<Result<ParsedRequest, String>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut cursor = ParseCursor::default();
    let mut outcomes = Vec::new();
    for piece in input.chunks(step) {
        buf.extend_from_slice(piece);
        loop {
            match parse_request(&buf, &mut cursor) {
                Ok(None) => break,
                Ok(Some((request, consumed))) => {
                    assert!(
                        0 < consumed && consumed <= buf.len(),
                        "consumed {consumed} of {} — {context}",
                        buf.len()
                    );
                    assert!(
                        request.body.len() <= MAX_BODY_BYTES.min(consumed),
                        "body outgrew its message — {context}"
                    );
                    buf.drain(..consumed);
                    cursor = ParseCursor::default();
                    outcomes.push(Ok(request));
                }
                Err(message) => {
                    assert!(!message.is_empty(), "empty error — {context}");
                    outcomes.push(Err(message));
                    return outcomes;
                }
            }
        }
        // What the cursor holds for an unfinished message is bounded by what
        // arrived (`Vec` growth at most doubles).
        assert!(
            cursor.body.capacity() <= 2 * buf.len() + 64,
            "decode buffer outgrew the input — {context}"
        );
    }
    outcomes
}

/// What the response reader's three steps make of `buf` so far:
/// `(status line, headers, body, consumed)` once the response is complete.
type Response = (String, ResponseHeaders, Vec<u8>, usize);

fn parse_response(buf: &[u8], cursor: &mut ParseCursor) -> Step<Response> {
    let Some(head_end) = find_head_end(buf, 0, &mut cursor.scanned, "response headers")? else {
        return Ok(None);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut headers = ResponseHeaders::new();
    let (status_line, framing) = parse_head(&head, |name, value| {
        headers.push((name.into(), value.into()))
    })?;
    Ok(match decode_body(buf, head_end + 4, framing, cursor)? {
        Body::Missing(missing) => {
            assert!(missing > 0, "incomplete with nothing missing");
            None
        }
        Body::Complete(body, consumed) => Some((status_line.to_string(), headers, body, consumed)),
    })
}

/// The outcome of reading one response from `input` arriving `step` bytes at
/// a time; `None` while it is incomplete.
fn response_outcome(input: &[u8], step: usize, context: &str) -> Option<Result<Response, String>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut cursor = ParseCursor::default();
    for piece in input.chunks(step) {
        buf.extend_from_slice(piece);
        match parse_response(&buf, &mut cursor) {
            Ok(None) => {}
            Ok(Some(response)) => {
                let (body, consumed) = (&response.2, response.3);
                assert!(
                    consumed <= buf.len(),
                    "consumed {consumed} of {} — {context}",
                    buf.len()
                );
                assert!(
                    body.len() <= MAX_BODY_BYTES.min(consumed),
                    "body outgrew its message — {context}"
                );
                return Some(Ok(response));
            }
            Err(message) => return Some(Err(message)),
        }
    }
    None
}

fn run(cases: usize) {
    let seed = fuzz_seed();
    eprintln!("http parser fuzz seed: {seed:#x}, {cases} cases");
    let corpus = corpus();
    // The corpus itself is valid, both ways round.
    for (index, message) in corpus.iter().enumerate() {
        let context = format!("corpus entry {index}");
        if message.starts_with(b"HTTP/") {
            assert!(
                matches!(response_outcome(message, 1, &context), Some(Ok(_))),
                "{context}"
            );
        } else {
            let outcomes = request_outcomes(message, 1, &context);
            assert!(
                !outcomes.is_empty() && outcomes.iter().all(Result::is_ok),
                "{context}: {outcomes:?}"
            );
        }
    }

    let mut rng = Rng(seed | 1);
    let (mut accepted, mut refused) = (0u32, 0u32);
    for case in 0..cases {
        let input = mutate(&mut rng, &corpus);
        let shown = String::from_utf8_lossy(&input[..input.len().min(600)]).into_owned();
        let context = format!(
            "TESSEL_FUZZ_SEED={seed:#x} case {case}: {} bytes, input {shown:?}",
            input.len()
        );
        let whole = input.len().max(1);
        let checked = std::panic::catch_unwind(|| {
            let requests = request_outcomes(&input, whole, &context);
            assert_eq!(
                requests,
                request_outcomes(&input, 1, &context),
                "requests differ bytewise — {context}"
            );
            let response = response_outcome(&input, whole, &context);
            assert_eq!(
                response,
                response_outcome(&input, 1, &context),
                "response differs bytewise — {context}"
            );
            requests.last().is_some_and(Result::is_err)
        });
        match checked.unwrap_or_else(|_| panic!("parser property failed — {context}")) {
            true => refused += 1,
            false => accepted += 1,
        }
    }
    // The mutations are gentle enough that both outcomes stay exercised.
    assert!(
        accepted > cases as u32 / 20 && refused > cases as u32 / 20,
        "accepted {accepted}, refused {refused} (seed {seed:#x})"
    );
}

#[test]
fn fuzz_mutated_messages_parse_the_same_bytewise() {
    run(300);
}

#[test]
#[ignore = "10k cases: CI's fuzz job runs it with --include-ignored"]
fn fuzz_mutated_messages_parse_the_same_bytewise_10k() {
    run(10_000);
}

/// `scan_json_integer` never panics on arbitrary UTF-8 and, on flat objects,
/// reads exactly what a real JSON parse reads.
#[test]
fn fuzz_json_integer_scan_agrees_with_the_json_parser() {
    let seed = fuzz_seed();
    let mut rng = Rng(seed | 1);
    let keys = [
        "priority",
        "deadline_ms",
        "unix_ms",
        "priority_class",
        "é",
        "p",
    ];
    let spaces = ["", " ", "\n", "\t "];
    for case in 0..2_000 {
        let mut text = String::from("{");
        let mut expected: Vec<(&str, Option<i64>)> = Vec::new();
        for key in keys {
            if rng.below(2) == 0 {
                continue;
            }
            let (value, integer) = match rng.below(5) {
                0 => ("null".to_string(), None),
                1 => ("\"text é\"".to_string(), None),
                2 => ("true".to_string(), None),
                _ => {
                    let n = (rng.next() as i64) >> rng.below(64);
                    (n.to_string(), Some(n))
                }
            };
            let comma = if expected.is_empty() { "" } else { "," };
            let (a, b, c) = (rng.pick(&spaces), rng.pick(&spaces), rng.pick(&spaces));
            text.push_str(&format!("{comma}{a}\"{key}\"{b}:{c}{value}"));
            expected.push((key, integer));
        }
        text.push('}');
        let context = format!("TESSEL_FUZZ_SEED={seed:#x} case {case}: {text:?}");
        let value: serde::Value =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{e} — {context}"));
        let fields = value.as_map().expect("an object");
        for key in keys {
            let parsed = fields
                .iter()
                .find(|(name, _)| name == key)
                .and_then(|(_, v)| match v {
                    serde::Value::UInt(n) => i64::try_from(*n).ok(),
                    serde::Value::Int(n) => Some(*n),
                    _ => None,
                });
            let listed = expected
                .iter()
                .find(|(name, _)| *name == key)
                .and_then(|(_, n)| *n);
            assert_eq!(parsed, listed, "generator and parser disagree — {context}");
            assert_eq!(
                scan_json_integer(&text, key),
                parsed,
                "key {key} — {context}"
            );
        }
        // Any mutation of it is still just text to scan.
        let mut bytes = text.into_bytes();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len() + 1);
            match rng.below(3) {
                0 if at < bytes.len() => bytes[at] = rng.next() as u8,
                1 => bytes.truncate(at),
                _ => bytes
                    .splice(at..at, "\"priority\" : -é".bytes())
                    .for_each(drop),
            }
        }
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        for key in keys {
            let scanned = std::panic::catch_unwind(|| scan_json_integer(&mutated, key));
            assert!(scanned.is_ok(), "scan panicked on {mutated:?} — {context}");
        }
    }
}
