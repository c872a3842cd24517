//! The text the vendored derive writes, and its `skip_serializing_if` field
//! attribute.

use serde::{Deserialize, Serialize, Value, Writer};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Entry {
    id: u64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    note: Option<String>,
    #[serde(skip_serializing_if = "Vec::is_empty")]
    tags: Vec<u64>,
    last: bool,
}

fn json<T: Serialize>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut Writer::compact(&mut out));
    out
}

fn map(entries: &[(&str, Value)]) -> Value {
    Value::Map(
        entries
            .iter()
            .map(|(key, value)| (key.to_string(), value.clone()))
            .collect(),
    )
}

#[test]
fn field_is_skipped_when_the_predicate_holds() {
    let bare = Entry {
        id: 1,
        note: None,
        tags: vec![],
        last: true,
    };
    assert_eq!(json(&bare), r#"{"id":1,"last":true}"#);
}

#[test]
fn field_is_emitted_in_declaration_position_otherwise() {
    let full = Entry {
        id: 1,
        note: Some("n".into()),
        tags: vec![7],
        last: false,
    };
    assert_eq!(
        json(&full),
        r#"{"id":1,"note":"n","tags":[7],"last":false}"#
    );

    let only_tags = Entry { note: None, ..full };
    assert_eq!(json(&only_tags), r#"{"id":1,"tags":[7],"last":false}"#);
}

#[test]
fn combines_with_default_on_the_same_field() {
    // `note` is both skipped on the way out and defaulted on the way in…
    let without_note = map(&[
        ("id", Value::UInt(1)),
        ("tags", Value::Seq(vec![Value::UInt(3)])),
        ("last", Value::Bool(true)),
    ]);
    let bare = Entry {
        id: 1,
        note: None,
        tags: vec![3],
        last: true,
    };
    assert_eq!(Entry::from_value(&without_note).unwrap(), bare);
    // …while `tags`, skippable but not defaulted, is still required.
    let without_tags = map(&[("id", Value::UInt(1)), ("last", Value::Bool(true))]);
    let error = Entry::from_value(&without_tags).unwrap_err();
    assert!(error.to_string().contains("missing field `tags`"));
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Tagged {
        size: u64,
        #[serde(default, skip_serializing_if = "Option::is_none")]
        label: Option<String>,
    },
    Wrapped(u64),
    Pair(u64, bool),
}

#[test]
fn struct_variants_honour_it_too() {
    let plain = Shape::Tagged {
        size: 2,
        label: None,
    };
    assert_eq!(json(&plain), r#"{"Tagged":{"size":2}}"#);
    let value = map(&[("Tagged", map(&[("size", Value::UInt(2))]))]);
    assert_eq!(Shape::from_value(&value).unwrap(), plain);
}

mod halves {
    pub fn serialize(value: &u64, writer: &mut serde::Writer<'_>) {
        writer.f64(*value as f64 / 2.0);
    }

    pub fn deserialize(value: &serde::Value) -> Result<u64, serde::Error> {
        <f64 as serde::Deserialize>::from_value(value).map(|half| (half * 2.0) as u64)
    }
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u64, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Newtype(u64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Everything {
    #[serde(with = "halves")]
    halved: u64,
    #[serde(skip)]
    scratch: u64,
    pair: Pair,
    newtype: Newtype,
    shapes: Vec<Shape>,
    nothing: Option<u64>,
}

/// Every shape the derive knows, written in declaration order: a `with`
/// module, a skipped field, tuple and newtype structs, and the four kinds of
/// enum variant.
#[test]
fn every_derived_shape_writes_the_expected_text() {
    let everything = Everything {
        halved: 3,
        scratch: 99,
        pair: Pair(1, "x".into()),
        newtype: Newtype(5),
        shapes: vec![
            Shape::Unit,
            Shape::Tagged {
                size: 1,
                label: Some("l".into()),
            },
            Shape::Wrapped(7),
            Shape::Pair(8, true),
        ],
        nothing: None,
    };
    assert_eq!(
        json(&everything),
        concat!(
            r#"{"halved":1.5,"pair":[1,"x"],"newtype":5,"shapes":["Unit","#,
            r#"{"Tagged":{"size":1,"label":"l"}},{"Wrapped":7},{"Pair":[8,true]}],"nothing":null}"#
        )
    );
    let mut pretty = String::new();
    Shape::Tagged {
        size: 1,
        label: None,
    }
    .write_json(&mut Writer::pretty(&mut pretty));
    assert_eq!(pretty, "{\n  \"Tagged\": {\n    \"size\": 1\n  }\n}");
}

/// `skip_serializing_if` without `= "path"` must stop the build and say which
/// field is wrong. A derive can only fail at compile time, so this compiles a
/// throw-away crate against this checkout and reads the compiler's stderr.
#[test]
fn malformed_attribute_is_a_compile_error_naming_the_field() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("malformed_skip_if");
    std::fs::create_dir_all(root.join("src")).unwrap();
    std::fs::write(
        root.join("Cargo.toml"),
        format!(
            "[package]\nname = \"malformed_skip_if\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
             [workspace]\n\n[dependencies]\nserde = {{ path = {:?} }}\n",
            env!("CARGO_MANIFEST_DIR")
        ),
    )
    .unwrap();
    std::fs::write(
        root.join("src/lib.rs"),
        "#[derive(serde::Serialize)]\npub struct Bad {\n    pub id: u64,\n    \
         #[serde(skip_serializing_if)]\n    pub ratio: Option<u64>,\n}\n",
    )
    .unwrap();
    let output = std::process::Command::new(env!("CARGO"))
        .args(["check", "--offline", "--quiet"])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", root.join("target"))
        .output()
        .expect("run cargo check on the fixture crate");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "the fixture compiled:\n{stderr}");
    assert!(
        stderr.contains("`skip_serializing_if` on field `ratio` needs `= \"path\"`"),
        "unexpected compiler output:\n{stderr}"
    );
}
