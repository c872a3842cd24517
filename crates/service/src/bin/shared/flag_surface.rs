//! The flag-surface check the binaries' unit tests share: a binary's usage
//! text names exactly the flags its parser matches, so a removed flag cannot
//! linger in `--help` and a new one cannot go undocumented.

use std::collections::BTreeSet;

/// Asserts that the `"--flag"` literals of `source` (everything above its
/// first `#[cfg(test)]`) are exactly the `--flag` tokens of `usage`.
pub fn assert_usage_matches_parser(usage: &str, source: &str) {
    let (parser, _) = source
        .split_once("#[cfg(test)]")
        .expect("the binary's tests sit below its parser");
    let matched: BTreeSet<&str> = parser
        .match_indices("\"--")
        .map(|(at, _)| {
            let literal = &parser[at + 1..];
            &literal[..literal.find('"').expect("a closed string literal")]
        })
        .collect();
    let named: BTreeSet<&str> = usage
        .match_indices("--")
        .map(|(at, _)| {
            let rest = &usage[at + 2..];
            let len = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(rest.len());
            &usage[at..at + 2 + len]
        })
        .filter(|flag| flag.len() > 2)
        .collect();
    assert_eq!(matched, named, "parser flags vs usage text");
}
