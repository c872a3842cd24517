//! The JSON fuzzers' randomness and mutation operators: a seedable
//! xorshift and byte-level mutations of a corpus of documents. Used by this
//! crate's unit tests and, through a `#[path]` include, by
//! `tests/json_codec.rs` at the workspace root.

/// xorshift64*: small, seedable, good enough to shuffle test inputs.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, choices: &'a [T]) -> &'a T {
        &choices[self.below(choices.len())]
    }
}

/// Bytes that steer the parser somewhere else when dropped into a document.
const DICTIONARY: [&str; 24] = [
    "[", "]", "{", "}", "\"", "\\", ":", ",", "-", "+", ".", "e", "E", "0", "9", "\\u", "\\ud83d",
    "\\ude00", "null", "true", " ", "\n", "\u{0}", "é",
];

/// One document of `corpus` with one to four random mutations: bit flips,
/// random bytes, dictionary splices, deletions, duplications, truncation and
/// crossover with another document.
pub fn mutate(rng: &mut Rng, corpus: &[String]) -> String {
    let mut bytes = rng.pick(corpus).clone().into_bytes();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(7) {
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
            4 => {
                let end = (at + rng.below(16)).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
            5 => bytes.truncate(at),
            _ => {
                let other = rng.pick(corpus).as_bytes();
                let from = rng.below(other.len() + 1);
                bytes.truncate(at);
                bytes.extend_from_slice(&other[from..]);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}
