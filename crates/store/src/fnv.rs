//! The workspace's one content hasher: 64-bit FNV-1a.
//!
//! Every persisted key — `Flow::config_key`, the session's stage keys,
//! artifact fingerprints, ledger keys and digests — is FNV-1a over a
//! byte stream. The stream is either little-endian `u64` parts
//! ([`combine`]) or a value's `Debug` form ([`hash_debug`]), which is
//! written straight into the hasher through [`fmt::Write`] and never
//! materialized as a `String`. The bytes are exactly those
//! `format!("{value:?}")` would hold, so a streamed key equals the key
//! of the formatted text, and stores written by either stay readable.

use std::fmt::{self, Debug, Write as _};

/// A 64-bit FNV-1a hasher over bytes, little-endian `u64`s and
/// formatted text.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis (the hash of no bytes).
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
        self
    }

    /// Feeds a `u64` as its eight little-endian bytes, so a key is the
    /// same on every platform.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a of a value's `Debug` form, streamed: equal to hashing
/// `format!("{value:?}")` without building the string. The IR types
/// derive `Debug` with full field coverage, so the debug rendering is a
/// faithful (if verbose) serialization — good enough for content
/// identity, where a spurious miss only costs a rebuild.
pub fn hash_debug<T: Debug + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv1a::new();
    write!(h, "{value:?}").expect("hashing into FNV never fails");
    h.finish()
}

/// FNV-1a over an order-dependent sequence of parts — the combination
/// behind every stage, config and ledger key, so keys derived in
/// different crates and processes agree.
pub fn combine(parts: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    for &p in parts {
        h.u64(p);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook byte loop, written out once as the reference.
    fn reference(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv1a::new().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn streamed_debug_equals_formatted_debug() {
        let values: Vec<Box<dyn Debug>> = vec![
            Box::new(()),
            Box::new((1u32, "a\"b\\c", -2.5f64, f64::NAN)),
            Box::new(vec![Some('×'), None, Some('\u{1F600}')]),
            Box::new(std::collections::BTreeMap::from([(3, "x"), (1, "y")])),
            Box::new("a long string ".repeat(1000)),
        ];
        for v in &values {
            assert_eq!(
                hash_debug(v),
                reference(format!("{v:?}").as_bytes()),
                "{v:?}"
            );
        }
    }

    #[test]
    fn chunked_feeding_equals_one_pass() {
        let text = b"front-end\x00schedule\xff";
        let mut h = Fnv1a::new();
        for chunk in text.chunks(3) {
            h.bytes(chunk);
        }
        assert_eq!(h.finish(), reference(text));
        let mut parts = Fnv1a::new();
        parts.bytes(b"k").u64(7);
        let mut flat = b"k".to_vec();
        flat.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(parts.finish(), reference(&flat));
    }

    #[test]
    fn combine_is_order_dependent_and_stable() {
        assert_eq!(combine(&[1, 2]), combine(&[1, 2]));
        assert_ne!(combine(&[1, 2]), combine(&[2, 1]));
        assert_ne!(combine(&[]), combine(&[0]));
        let mut flat = Vec::new();
        for p in [1u64, 2, 3] {
            flat.extend_from_slice(&p.to_le_bytes());
        }
        assert_eq!(combine(&[1, 2, 3]), reference(&flat));
    }
}
