//! Adversarial-input generators shared by every decoder suite (pulled
//! in with `#[path]`; test-only, nothing here ships in product code).
//!
//! Three attacks — every truncation prefix, every single-bit flip,
//! seeded garbage — and [`assault`], which drives a table of decoders
//! through all three. The contract under attack is the one
//! `gcs_sim::wire` states: a decoder returns a typed error, it never
//! panics, and a checksummed format never accepts a damaged input.
#![allow(dead_code)]

use gcs_sim::rng::SimRng;

/// Every `step`-th strict prefix of `valid`, shortest (empty) first.
pub fn truncations(valid: &[u8], step: usize) -> impl Iterator<Item = &[u8]> {
    (0..valid.len()).step_by(step).map(move |cut| &valid[..cut])
}

/// `valid` with exactly one bit flipped, as `(byte, bit, damaged)`, for
/// every bit of every `step`-th byte.
pub fn bit_flips(valid: &[u8], step: usize) -> impl Iterator<Item = (usize, u8, Vec<u8>)> + '_ {
    (0..valid.len()).step_by(step).flat_map(move |byte| {
        (0..8u8).map(move |bit| {
            let mut bent = valid.to_vec();
            bent[byte] ^= 1 << bit;
            (byte, bit, bent)
        })
    })
}

/// `cases` seeded buffers of fewer than `max_len` bytes drawn from
/// `alphabet` (empty: all 256 byte values).
pub fn garbage(
    seed: u64,
    cases: usize,
    max_len: usize,
    alphabet: &[u8],
) -> impl Iterator<Item = Vec<u8>> + '_ {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..cases).map(move |_| {
        let len = rng.gen_range(max_len as u64) as usize;
        (0..len)
            .map(|_| match alphabet.len() {
                0 => rng.gen_range(256) as u8,
                n => alphabet[rng.gen_range(n as u64) as usize],
            })
            .collect()
    })
}

/// A garbage alphabet that keeps landing near JSON: structure bytes,
/// letters, digits, whitespace, a backslash and a stray DEL.
pub const JSONISH: &[u8] = b"{}[]\":,abcdefghijklmnop0123456789 \\\t\n\x7f";

/// One decoder under attack.
pub struct Target<'a> {
    /// Name for failure messages.
    pub name: &'a str,
    /// An input the decoder accepts.
    pub valid: Vec<u8>,
    /// Whether a checksum covers the whole input, so that *every* bit
    /// flip must be rejected (plain JSON can flip into other valid JSON).
    pub checksummed: bool,
    /// Runs the decoder; `true` when it accepted the input.
    pub accepts: &'a dyn Fn(&[u8]) -> bool,
}

/// Drives every target through the three attacks (`step` samples the
/// prefixes and flipped bytes of long inputs; 1 is exhaustive): the
/// valid input is accepted, no strict prefix is, no bit flip of a
/// checksummed input is, and nothing panics — garbage included.
pub fn assault(targets: &[Target<'_>], step: usize, garbage_cases: usize) {
    for t in targets {
        let name = t.name;
        assert!((t.accepts)(&t.valid), "{name}: valid input refused");
        for prefix in truncations(&t.valid, step) {
            assert!(!(t.accepts)(prefix), "{name}: {}-byte prefix accepted", prefix.len());
        }
        for (byte, bit, bent) in bit_flips(&t.valid, step) {
            let accepted = (t.accepts)(&bent);
            assert!(!(accepted && t.checksummed), "{name}: byte {byte} bit {bit} flip accepted");
        }
        for alphabet in [&[][..], JSONISH] {
            for junk in garbage(0xfee1_dead, garbage_cases, 96, alphabet) {
                let _ = (t.accepts)(&junk);
            }
        }
    }
}
