use super::mutation::{mutate, Rng};
use super::*;

/// The pull decoder's tree, the way the old parser was called.
fn parse_value(text: &str) -> Result<Value> {
    from_str(text)
}

#[test]
fn round_trips_scalars() {
    assert_eq!(to_string(&42u64).unwrap(), "42");
    assert_eq!(to_string(&-3i64).unwrap(), "-3");
    assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
    assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
    assert_eq!(to_string(&true).unwrap(), "true");
    assert_eq!(to_string(&"a\"b\n").unwrap(), "\"a\\\"b\\n\"");
    let n: u64 = from_str("42").unwrap();
    assert_eq!(n, 42);
    let f: f64 = from_str("1.5").unwrap();
    assert!((f - 1.5).abs() < 1e-12);
}

#[test]
fn round_trips_collections() {
    let v = vec![1u64, 2, 3];
    let json = to_string(&v).unwrap();
    assert_eq!(json, "[1,2,3]");
    let back: Vec<u64> = from_str(&json).unwrap();
    assert_eq!(back, v);
}

#[test]
fn pretty_printing_indents() {
    let v = vec![vec![1u64], vec![2]];
    let pretty = to_string_pretty(&v).unwrap();
    assert_eq!(pretty, "[\n  [\n    1\n  ],\n  [\n    2\n  ]\n]");
}

#[test]
fn parses_nested_objects() {
    let value = parse_value(r#"{"a": [1, -2, 3.5], "b": {"c": null}}"#).unwrap();
    let entries = value.as_map().unwrap();
    assert_eq!(entries[0].0, "a");
    assert_eq!(
        entries[0].1,
        Value::Seq(vec![Value::UInt(1), Value::Int(-2), Value::Float(3.5)])
    );
    assert_eq!(
        entries[1],
        ("b".into(), Value::Map(vec![("c".into(), Value::Null)]))
    );
}

#[test]
fn unicode_survives() {
    let s = "héllo \u{1f600}";
    let json = to_string(&s).unwrap();
    let back: String = from_str(&json).unwrap();
    assert_eq!(back, s);
}

/// What the parser takes and what it refuses, one line per case: the RFC 8259
/// number grammar, string escapes (surrogate pairs included) and the
/// structural errors.
#[test]
fn accepts_and_rejects_by_the_grammar() {
    let accepted: &[(&str, Value)] = &[
        ("0", Value::UInt(0)),
        ("-0", Value::Int(0)),
        ("10", Value::UInt(10)),
        ("-1", Value::Int(-1)),
        ("18446744073709551615", Value::UInt(u64::MAX)),
        ("-9223372036854775808", Value::Int(i64::MIN)),
        // One past either 64-bit range reads as a float.
        (
            "18446744073709551616",
            Value::Float(18_446_744_073_709_551_616.0),
        ),
        (
            "-9223372036854775809",
            Value::Float(-9_223_372_036_854_775_809.0),
        ),
        ("0.5", Value::Float(0.5)),
        ("-0.0", Value::Float(-0.0)),
        ("1e3", Value::Float(1000.0)),
        ("1E+3", Value::Float(1000.0)),
        ("1.25e-2", Value::Float(0.0125)),
        ("0e0", Value::Float(0.0)),
        (" \t\r\n1 ", Value::UInt(1)),
        ("\"\"", Value::Str(String::new())),
        (
            r#""\"\\\/\b\f\n\r\t""#,
            Value::Str("\"\\/\u{8}\u{c}\n\r\t".into()),
        ),
        (r#""\u0041\u00e9\u20ac""#, Value::Str("Aé€".into())),
        // What Python's json.dumps emits for a character beyond U+FFFF.
        (r#""\ud83d\ude00""#, Value::Str("\u{1f600}".into())),
        (r#""a\uD83D\uDE00b""#, Value::Str("a\u{1f600}b".into())),
        ("\"\u{1f600}\u{7f}\"", Value::Str("\u{1f600}\u{7f}".into())),
        ("[]", Value::Seq(vec![])),
        ("{}", Value::Map(vec![])),
        ("[ ]", Value::Seq(vec![])),
        ("{ }", Value::Map(vec![])),
        (
            "[null,true,false]",
            Value::Seq(vec![Value::Null, Value::Bool(true), Value::Bool(false)]),
        ),
        (
            r#"{"a":1,"a":2}"#,
            Value::Map(vec![
                ("a".into(), Value::UInt(1)),
                ("a".into(), Value::UInt(2)),
            ]),
        ),
    ];
    for (text, expected) in accepted {
        assert_eq!(parse_value(text).as_ref(), Ok(expected), "input {text:?}");
    }

    let rejected = [
        "",
        " ",
        "+1",
        "01",
        "-01",
        "00",
        "1.",
        ".5",
        "-.5",
        "1e",
        "1e+",
        "1.e3",
        "-",
        "--1",
        "1.5.5",
        "0x10",
        "1_000",
        "NaN",
        "Infinity",
        "-Infinity",
        "nul",
        "tru",
        "True",
        "nullx",
        "1 2",
        "{",
        "[",
        "[1,]",
        "[,1]",
        "[1 2]",
        "{\"a\"}",
        "{\"a\":}",
        "{\"a\":1,}",
        "{a:1}",
        "{1:2}",
        "{\"a\" 1}",
        "[1}",
        "{\"a\":1]",
        "]",
        "}",
        ",",
        ":",
        "\"",
        "\"abc",
        "\"\\",
        "\"\\x\"",
        "\"\\u12\"",
        "\"\\u12g4\"",
        "\"\\u+123\"",
        // Lone surrogates, either half, and a high one paired with a non-low.
        "\"\\ud83d\"",
        "\"\\ude00\"",
        "\"\\ud83dx\"",
        "\"\\ud83d\\n\"",
        "\"\\ud83d\\u0041\"",
        "\"\\ud83d\\ud83d\"",
        // Control characters must be escaped inside strings.
        "\"a\nb\"",
        "\"\t\"",
        "\"\u{0}\"",
        "\"\u{1f}\"",
    ];
    for text in rejected {
        assert!(parse_value(text).is_err(), "input {text:?} was accepted");
    }
}

/// Nesting depth of `value`: 0 for a scalar.
fn depth(value: &Value) -> usize {
    match value {
        Value::Seq(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Value::Map(entries) => 1 + entries.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

#[test]
fn nesting_is_capped() {
    let nested = |open: &str, close: &str, levels: usize| {
        format!("{}{}", open.repeat(levels), close.repeat(levels))
    };
    for (open, close) in [("[", "]"), ("{\"k\":", "}"), ("[{\"k\":", "}]")] {
        let per_repeat = open.matches(['[', '{']).count();
        let fits = nested(open, close, MAX_DEPTH / per_repeat).replace(":}", ":0}");
        assert_eq!(depth(&parse_value(&fits).unwrap()), MAX_DEPTH, "{open}");
        let over = nested(open, close, MAX_DEPTH / per_repeat + 1).replace(":}", ":0}");
        let error = parse_value(&over).unwrap_err().to_string();
        assert!(error.contains("nesting deeper than 128"), "{open}: {error}");
    }
    // The bomb: 200 KB of `[` is an ordinary error, not a stack overflow.
    assert!(parse_value(&"[".repeat(200_000)).is_err());
    assert!(parse_value(&"{\"a\":".repeat(200_000)).is_err());
    assert!(from_str::<Vec<u64>>(&"[".repeat(200_000)).is_err());
}

// ---------------------------------------------------------------------------
// Seeded random documents
// ---------------------------------------------------------------------------

/// Numbers on every boundary the writer and the parser branch on.
const EDGE_FLOATS: [f64; 22] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.1,
    1.5,
    -2.75,
    1e-7,
    123_456_789.0,
    999_999_999_999_999.0,
    1e15,
    -1e15,
    1.5e15,
    1e16,
    1.234_567_890_123_456_7e18,
    1e21,
    1e300,
    f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,
    f64::EPSILON,
    std::f64::consts::PI,
];
const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
const EDGE_UINTS: [u64; 7] = [0, 1, 9, 10, 1 << 53, i64::MAX as u64 + 1, u64::MAX];
const EDGE_INTS: [i64; 5] = [-1, -10, -(1 << 53), i64::MIN + 1, i64::MIN];
const EDGE_STRINGS: [&str; 12] = [
    "",
    "plain",
    "quote\"d",
    "back\\slash",
    "line\nfeed\rreturn\ttab",
    "\u{0}\u{1}\u{8}\u{c}\u{1f}",
    "\u{7f}del stays",
    "héllo wörld",
    "€uro ∑ 汉字",
    "\u{1f600} beyond the BMP \u{10ffff}",
    "/slash/",
    "\"\\\n",
];

fn random_string(rng: &mut Rng) -> String {
    if rng.below(3) > 0 {
        return (*rng.pick(&EDGE_STRINGS)).to_string();
    }
    let alphabet: Vec<char> = "ab \"\\\n\t\u{1}é€\u{1f600}{}[]:,".chars().collect();
    (0..rng.below(12)).map(|_| *rng.pick(&alphabet)).collect()
}

/// A random document, at most `levels` deep. Negative integers are `Int` and
/// the rest `UInt`, which is how both every typed impl writes them and the
/// parser reads them.
fn random_value(rng: &mut Rng, levels: usize) -> Value {
    match rng.below(if levels == 0 { 7 } else { 10 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::UInt(if rng.below(2) == 0 {
            *rng.pick(&EDGE_UINTS)
        } else {
            rng.next() >> rng.below(64)
        }),
        3 => Value::Int(if rng.below(2) == 0 {
            *rng.pick(&EDGE_INTS)
        } else {
            -((rng.next() >> (1 + rng.below(63))) as i64) - 1
        }),
        4 => Value::Float(match rng.below(8) {
            0 => *rng.pick(&NON_FINITE),
            1..=3 => *rng.pick(&EDGE_FLOATS),
            4 => -*rng.pick(&EDGE_FLOATS),
            5 => (rng.next() % 1_000_000) as f64 / 1000.0,
            _ => f64::from_bits(rng.next()),
        }),
        5 | 6 => Value::Str(random_string(rng)),
        7 => Value::Seq(vec![]),
        8 => Value::Seq(
            (0..rng.below(6))
                .map(|_| random_value(rng, levels - 1))
                .collect(),
        ),
        _ => Value::Map(
            (0..rng.below(6))
                .map(|_| (random_string(rng), random_value(rng, levels - 1)))
                .collect(),
        ),
    }
}

/// A fixed document carrying every edge constant, then `count` random ones.
fn documents(seed: u64, count: usize) -> Vec<Value> {
    let edges = Value::Map(vec![
        (
            "floats".into(),
            Value::Seq(
                EDGE_FLOATS
                    .iter()
                    .chain(&NON_FINITE)
                    .map(|&f| Value::Float(f))
                    .collect(),
            ),
        ),
        (
            "negated".into(),
            Value::Seq(EDGE_FLOATS.iter().map(|&f| Value::Float(-f)).collect()),
        ),
        (
            "uints".into(),
            Value::Seq(EDGE_UINTS.iter().map(|&u| Value::UInt(u)).collect()),
        ),
        (
            "ints".into(),
            Value::Seq(EDGE_INTS.iter().map(|&i| Value::Int(i)).collect()),
        ),
        (
            "strings".into(),
            Value::Map(
                EDGE_STRINGS
                    .iter()
                    .map(|&s| (s.to_string(), Value::Str(s.to_string())))
                    .collect(),
            ),
        ),
        (
            "empty".into(),
            Value::Seq(vec![Value::Seq(vec![]), Value::Map(vec![])]),
        ),
    ]);
    let mut rng = Rng(seed | 1);
    let mut all = vec![edges];
    all.extend((0..count).map(|_| random_value(&mut rng, 5)));
    all
}

/// `a` read back from its own text is `b`: the same tree, except that a
/// number may have changed variant on the way (a non-finite float is written
/// `null`; an integral float of 1e15 and more is written without `.0` and so
/// reads back as an integer) as long as it still is the same number.
fn reads_back_as(a: &Value, b: &Value) -> bool {
    let number = |v: &Value| match v {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    };
    match (a, b) {
        (Value::Float(f), Value::Null) => !f.is_finite(),
        (Value::Seq(x), Value::Seq(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| reads_back_as(x, y))
        }
        (Value::Map(x), Value::Map(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, x), (ky, y))| kx == ky && reads_back_as(x, y))
        }
        _ if std::mem::discriminant(a) == std::mem::discriminant(b) => a == b,
        _ => number(a).is_some() && number(a) == number(b),
    }
}

#[test]
fn writer_matches_the_reference_printer_byte_for_byte() {
    for (i, value) in documents(0x7e57_e1f5, 2000).iter().enumerate() {
        assert_eq!(
            to_string(value).unwrap(),
            reference::print(value, None),
            "compact, document {i}: {value:?}"
        );
        assert_eq!(
            to_string_pretty(value).unwrap(),
            reference::print(value, Some(2)),
            "pretty, document {i}: {value:?}"
        );
    }
}

#[test]
fn written_documents_read_back() {
    for (i, value) in documents(0x0dd0_ba11, 2000).iter().enumerate() {
        for text in [to_string(value).unwrap(), to_string_pretty(value).unwrap()] {
            let back = parse_value(&text).unwrap_or_else(|e| panic!("document {i}: {e}\n{text}"));
            assert!(
                reads_back_as(value, &back),
                "document {i}: {value:?} read back as {back:?}"
            );
            // And what was read is a fixed point: it writes to the same text.
            assert_eq!(
                to_string(&back).unwrap(),
                to_string(value).unwrap(),
                "document {i}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Mutation fuzzer
// ---------------------------------------------------------------------------

fn fuzz_seed() -> u64 {
    std::env::var("TESSEL_FUZZ_SEED")
        .ok()
        .and_then(|raw| {
            let raw = raw.trim();
            match raw.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => raw.parse().ok(),
            }
        })
        .unwrap_or(0xf16e_4a44)
}

/// The fuzzers' corpus: seeded random documents, compact and pretty, three
/// hand-written ones (a request, the number grammar's corners, escapes) and
/// nesting right at the cap.
fn fuzz_corpus(seed: u64) -> Vec<String> {
    let mut corpus: Vec<String> = documents(seed, 60)
        .iter()
        .flat_map(|value| [to_string(value).unwrap(), to_string_pretty(value).unwrap()])
        .collect();
    corpus.extend(
        [
            r#"{"placement":{"num_devices":4,"blocks":[{"name":"f0","devices":[0],"time":1,"memory":1,"deps":[]}]},"deadline_ms":250,"priority":-1}"#,
            r#"[0,-0,1e3,1E-3,0.5,-1.25e+2,18446744073709551615,-9223372036854775808,1e400]"#,
            r#"["\ud83d\ude00","\u0000\u001f","\"\\\/\b\f\n\r\t","é€"]"#,
        ]
        .map(String::from),
    );
    for levels in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
        corpus.push(format!("{}{}", "[".repeat(levels), "]".repeat(levels)));
        corpus.push(format!(
            "{}1{}",
            "{\"a\":".repeat(levels),
            "}".repeat(levels)
        ));
    }
    corpus
}

/// Mutated documents never panic the parser and never get past the depth
/// cap: every one is either an error or a value that writes and reads back.
/// Reproduce a failure with `TESSEL_FUZZ_SEED=<seed> cargo test -p serde_json fuzz`.
#[test]
fn fuzz_mutated_documents_parse_or_error() {
    let seed = fuzz_seed();
    eprintln!("json parser fuzz seed: {seed:#x}");
    let corpus = fuzz_corpus(seed);

    let mut rng = Rng(seed | 1);
    let (mut parsed, mut refused) = (0u32, 0u32);
    for case in 0..10_000 {
        let text = mutate(&mut rng, &corpus);
        let context = format!("TESSEL_FUZZ_SEED={seed:#x} case {case}: input {text:?}");
        let outcome = std::panic::catch_unwind(|| parse_value(&text))
            .unwrap_or_else(|_| panic!("parser panicked — {context}"));
        match outcome {
            Ok(value) => {
                parsed += 1;
                assert!(
                    depth(&value) <= MAX_DEPTH,
                    "deeper than the cap — {context}"
                );
                let written = to_string(&value).unwrap();
                let back = parse_value(&written)
                    .unwrap_or_else(|e| panic!("own output refused ({e}) — {context}"));
                assert!(
                    reads_back_as(&value, &back),
                    "{value:?} != {back:?} — {context}"
                );
            }
            Err(error) => {
                refused += 1;
                assert!(!error.to_string().is_empty(), "empty error — {context}");
            }
        }
    }
    // The mutations are gentle enough that both outcomes stay exercised.
    assert!(
        parsed > 500 && refused > 500,
        "parsed {parsed}, refused {refused} (seed {seed:#x})"
    );
}

// ---------------------------------------------------------------------------
// The pull decoder against the tree decoder it replaced
// ---------------------------------------------------------------------------

/// A derived type exercising every way a field is read: a required integer,
/// a defaulted option, a sequence, a tuple, a char, a unit enum and
/// recursion. (Enums written as one-entry objects stay out: the old decoder
/// refused a repeated tag, which `first_wins` cannot tell from a struct's
/// repeated key.)
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Probe {
    id: u64,
    #[serde(default)]
    note: Option<String>,
    tags: Vec<i32>,
    pair: (bool, f64),
    initial: char,
    kind: ProbeKind,
    #[serde(default)]
    nested: Vec<Probe>,
}

#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
enum ProbeKind {
    Plain,
    Fancy,
}

fn random_probe(rng: &mut Rng, levels: usize) -> Probe {
    Probe {
        id: *rng.pick(&EDGE_UINTS),
        note: (rng.below(2) == 0).then(|| random_string(rng)),
        tags: (0..rng.below(4))
            .map(|_| rng.next() as i32 >> rng.below(32))
            .collect(),
        pair: (rng.below(2) == 0, (rng.next() % 1_000_000) as f64 / 1000.0),
        initial: *rng.pick(&['a', '"', '\n', 'é', '\u{1f600}']),
        kind: if rng.below(2) == 0 {
            ProbeKind::Plain
        } else {
            ProbeKind::Fancy
        },
        nested: if levels == 0 {
            vec![]
        } else {
            (0..rng.below(3))
                .map(|_| random_probe(rng, levels - 1))
                .collect()
        },
    }
}

/// On mutated documents the pull decoder agrees with the tree decoder it
/// replaced: as a `Value`, the same tree or an error from both; as a typed
/// `Probe`, the value the old typed half would have built from that tree (a
/// key's first occurrence, unknown keys ignored) or an error exactly when
/// it had none to build.
fn pull_decoder_agrees_with_the_tree_decoder(cases: usize) {
    let seed = fuzz_seed();
    eprintln!("pull decoder differential seed: {seed:#x}");
    let mut rng = Rng(seed ^ 0x9011_dec0 | 1);
    let mut corpus = fuzz_corpus(seed);
    for _ in 0..60 {
        let probe = random_probe(&mut rng, 2);
        corpus.extend([
            to_string(&probe).unwrap(),
            to_string_pretty(&probe).unwrap(),
        ]);
    }
    let (mut trees, mut probes) = (0u32, 0u32);
    for case in 0..cases {
        let text = mutate(&mut rng, &corpus);
        let context = format!("TESSEL_FUZZ_SEED={seed:#x} case {case}: input {text:?}");
        let reference = reference_decode::parse(&text);
        let pulled = std::panic::catch_unwind(|| from_str::<Value>(&text))
            .unwrap_or_else(|_| panic!("pull decoder panicked — {context}"));
        match (&pulled, &reference) {
            (Ok(pulled), Ok(reference)) => assert_eq!(pulled, reference, "{context}"),
            (Err(_), Err(_)) => {}
            _ => panic!("tree decoder {reference:?}, pull decoder {pulled:?} — {context}"),
        }
        trees += u32::from(pulled.is_ok());
        let Ok(tree) = reference.as_ref().map(reference_decode::first_wins) else {
            assert!(from_str::<Probe>(&text).is_err(), "{context}");
            continue;
        };
        if !reference_decode::reads_back_exactly(&tree) {
            continue;
        }
        let expected = from_str::<Probe>(&to_string(&tree).unwrap()).ok();
        let typed = from_str::<Probe>(&text).ok();
        assert_eq!(typed, expected, "as a Probe — {context}");
        probes += u32::from(typed.is_some());
    }
    // Both outcomes stay exercised, typed ones included.
    assert!(
        trees as usize > cases / 20 && probes as usize > cases / 100,
        "{trees} trees and {probes} probes decoded of {cases} (seed {seed:#x})"
    );
}

#[test]
fn fuzz_pull_decoder_agrees_with_the_tree_decoder() {
    pull_decoder_agrees_with_the_tree_decoder(10_000);
}

/// The long run of the differential above: `TESSEL_FUZZ_SEED=<seed> cargo
/// test --release -p serde_json -- --ignored`.
#[test]
#[ignore = "200k mutated documents; run explicitly or via the fingerprint-stress CI job"]
fn fuzz_pull_decoder_agrees_with_the_tree_decoder_long() {
    pull_decoder_agrees_with_the_tree_decoder(200_000);
}
