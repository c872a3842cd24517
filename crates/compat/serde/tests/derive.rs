//! The `skip_serializing_if` field attribute of the vendored derive.

use serde::{Deserialize, Serialize, Value};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Entry {
    id: u64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    note: Option<String>,
    #[serde(skip_serializing_if = "Vec::is_empty")]
    tags: Vec<u64>,
    last: bool,
}

fn keys(value: &Value) -> Vec<&str> {
    value
        .as_map()
        .expect("a struct serializes to a map")
        .iter()
        .map(|(key, _)| key.as_str())
        .collect()
}

#[test]
fn field_is_skipped_when_the_predicate_holds() {
    let bare = Entry {
        id: 1,
        note: None,
        tags: vec![],
        last: true,
    };
    assert_eq!(keys(&bare.to_value()), ["id", "last"]);
}

#[test]
fn field_is_emitted_in_declaration_position_otherwise() {
    let full = Entry {
        id: 1,
        note: Some("n".into()),
        tags: vec![7],
        last: false,
    };
    let value = full.to_value();
    assert_eq!(keys(&value), ["id", "note", "tags", "last"]);
    assert_eq!(Entry::from_value(&value).unwrap(), full);

    let only_tags = Entry { note: None, ..full };
    assert_eq!(keys(&only_tags.to_value()), ["id", "tags", "last"]);
}

#[test]
fn combines_with_default_on_the_same_field() {
    let bare = Entry {
        id: 1,
        note: None,
        tags: vec![3],
        last: true,
    };
    // `note` is both skipped on the way out and defaulted on the way in…
    assert_eq!(Entry::from_value(&bare.to_value()).unwrap(), bare);
    // …while `tags`, skippable but not defaulted, is still required.
    let without_tags = Entry {
        tags: vec![],
        ..bare
    };
    let error = Entry::from_value(&without_tags.to_value()).unwrap_err();
    assert!(error.to_string().contains("missing field `tags`"));
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Tagged {
        size: u64,
        #[serde(default, skip_serializing_if = "Option::is_none")]
        label: Option<String>,
    },
}

#[test]
fn struct_variants_honour_it_too() {
    let plain = Shape::Tagged {
        size: 2,
        label: None,
    };
    let value = plain.to_value();
    let (_, inner) = &value.as_map().unwrap()[0];
    assert_eq!(keys(inner), ["size"]);
    assert_eq!(Shape::from_value(&value).unwrap(), plain);
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
