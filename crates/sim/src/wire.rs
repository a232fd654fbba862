//! The wire kernel: the four things every byte format in the workspace
//! shares, in one place.
//!
//! * [`fnv1a`] — the 64-bit hash behind memo-cache file names, `GCST`
//!   trace fingerprints and `GCSD` frame checksums;
//! * [`Scan`] — a rigid reader for the fixed JSON shapes the workspace
//!   writes (daemon messages, fleet specs, cache entries);
//! * [`push_str_escaped`] / [`push_f64`] / [`push_u64`] — the writer
//!   half, appending into a caller-owned `String` so emitters allocate
//!   once per document, not once per field;
//! * [`check_header`] / [`check_checksum`] and the one [`WireError`]
//!   they and [`Scan`] report through. `GCST` and `GCSD` keep their own
//!   byte layouts after the shared 8-byte magic + version prefix.
//!
//! Every reader here takes bytes from outside the program and **never
//! panics**: anything off-shape is a typed [`WireError`].

use std::fmt::{self, Write as _};

/// FNV-1a 64-bit over raw bytes (standard offset basis and prime).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Typed failure reading any framed container or JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The byte stream ended before the structure it promised.
    Truncated {
        /// Offset at which more bytes were needed.
        at: usize,
        /// Bytes wanted at that offset.
        want: usize,
    },
    /// The stream does not start with the expected magic.
    BadMagic([u8; 4]),
    /// The header carries a version this build cannot read.
    UnsupportedVersion(u32),
    /// A payload larger than the budget (advertised by a header, or
    /// handed to a frame encoder).
    Oversize {
        /// Payload length.
        len: usize,
        /// Budget in force.
        max: usize,
    },
    /// Structurally unreadable (checksum mismatch, unknown tags,
    /// trailing bytes, non-UTF-8 payload, off-shape JSON).
    Corrupt(String),
    /// Readable but semantically inconsistent content.
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { at, want } => {
                write!(f, "truncated: wanted {want} more byte(s) at offset {at}")
            }
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            WireError::Oversize { len, max } => {
                write!(f, "payload of {len} byte(s) exceeds the {max}-byte budget")
            }
            WireError::Corrupt(why) => write!(f, "corrupt: {why}"),
            WireError::Invalid(why) => write!(f, "invalid: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// A short stable tag per variant (used in daemon error responses
    /// and fault transcripts, where the full message would be noise):
    /// `"truncated"` / `"bad-magic"` / `"unsupported-version"` /
    /// `"oversize"` / `"corrupt"` / `"invalid"`.
    pub fn kind(&self) -> &'static str {
        match self {
            WireError::Truncated { .. } => "truncated",
            WireError::BadMagic(_) => "bad-magic",
            WireError::UnsupportedVersion(_) => "unsupported-version",
            WireError::Oversize { .. } => "oversize",
            WireError::Corrupt(_) => "corrupt",
            WireError::Invalid(_) => "invalid",
        }
    }
}

/// Checks the 8 bytes every framed container opens with: 4 magic bytes,
/// then a little-endian `u32` version.
///
/// # Errors
///
/// [`WireError::Truncated`] under 8 bytes, [`WireError::BadMagic`],
/// [`WireError::UnsupportedVersion`].
pub fn check_header(bytes: &[u8], magic: [u8; 4], version: u32) -> Result<(), WireError> {
    let Some(head) = bytes.get(..8) else {
        return Err(WireError::Truncated {
            at: bytes.len(),
            want: 8 - bytes.len(),
        });
    };
    let found = [head[0], head[1], head[2], head[3]];
    if found != magic {
        return Err(WireError::BadMagic(found));
    }
    let v = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if v != version {
        return Err(WireError::UnsupportedVersion(v));
    }
    Ok(())
}

/// Verifies a payload against the FNV-1a checksum its header stored.
///
/// # Errors
///
/// [`WireError::Corrupt`] on mismatch.
pub fn check_checksum(stored: u64, payload: &[u8]) -> Result<(), WireError> {
    let actual = fnv1a(payload);
    if actual != stored {
        return Err(WireError::Corrupt(format!(
            "payload checksum {actual:016x} does not match header {stored:016x}"
        )));
    }
    Ok(())
}

/// Appends `s` as the body of a JSON string (no surrounding quotes):
/// `"`, `\` and every control character escaped, everything else
/// verbatim. [`Scan::string`] reads it back exactly.
pub fn push_str_escaped(out: &mut String, s: &str) {
    // Every escaped byte is ASCII, so slicing between them stays on
    // char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
}

/// Appends `v` in Rust's shortest-round-trip form with a guaranteed
/// decimal point (`1.0`, not the integer-looking `1`); non-finite
/// values render as `NaN` / `inf` / `-inf`.
pub fn push_f64(out: &mut String, v: f64) {
    let start = out.len();
    let _ = write!(out, "{v}");
    if v.is_finite() && !out[start..].contains('.') {
        out.push_str(".0");
    }
}

/// `DIGIT_PAIRS[2 * n..2 * n + 2]` is `n` in two decimal digits.
const DIGIT_PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` in decimal, byte-identical to `write!(out, "{v}")` but
/// without the `fmt` machinery: the integer writer of the report rows.
/// One division per two digits, then the digits go out most
/// significant first as two-byte slices of a pair table (a leading
/// odd digit as one `char`). The crate forbids `unsafe`, so the digits
/// are not gathered into one byte buffer and written as one slice: the
/// checked `str::from_utf8` that would need costs more than the
/// per-pair slices.
pub fn push_u64(out: &mut String, mut v: u64) {
    // Base-100 digits, least significant first; u64::MAX has 10.
    let mut pairs = [0u8; 10];
    let mut n = 0;
    while v >= 100 {
        pairs[n] = (v % 100) as u8;
        v /= 100;
        n += 1;
    }
    if v >= 10 {
        let d = 2 * v as usize;
        out.push_str(&DIGIT_PAIRS[d..d + 2]);
    } else {
        out.push(char::from(b'0' + v as u8));
    }
    for &p in pairs[..n].iter().rev() {
        let d = 2 * usize::from(p);
        out.push_str(&DIGIT_PAIRS[d..d + 2]);
    }
}

/// Rigid scanner over one JSON document of a known shape. No
/// recursion, no lookahead beyond one literal — the shapes are fixed,
/// so anything surprising is [`WireError::Corrupt`] immediately.
/// Whitespace between tokens is tolerated.
#[derive(Debug)]
pub struct Scan<'a> {
    rest: &'a str,
}

impl<'a> Scan<'a> {
    /// A scanner at the start of `text`.
    pub fn new(text: &'a str) -> Scan<'a> {
        Scan { rest: text }
    }

    fn corrupt(&self, why: impl fmt::Display) -> WireError {
        let ctx: String = self.rest.chars().take(24).collect();
        WireError::Corrupt(format!("{why} at {ctx:?}"))
    }

    /// Consumes `token` exactly.
    ///
    /// # Errors
    ///
    /// [`WireError::Corrupt`] when the input continues differently.
    pub fn lit(&mut self, token: &str) -> Result<(), WireError> {
        self.rest = self.rest.trim_start();
        match self.rest.strip_prefix(token) {
            Some(tail) => {
                self.rest = tail;
                Ok(())
            }
            None => Err(self.corrupt(format_args!("expected {token:?}"))),
        }
    }

    /// Whether the input continues with `token` (consumes nothing).
    pub fn peek_lit(&self, token: &str) -> bool {
        self.rest.trim_start().starts_with(token)
    }

    /// `"name":` — one object key.
    ///
    /// # Errors
    ///
    /// [`WireError::Corrupt`] on any other key or a missing colon.
    pub fn key(&mut self, name: &str) -> Result<(), WireError> {
        self.rest = self.rest.trim_start();
        let tail = self
            .rest
            .strip_prefix('"')
            .and_then(|t| t.strip_prefix(name))
            .and_then(|t| t.strip_prefix('"'));
        match tail {
            Some(tail) => {
                self.rest = tail;
                self.lit(":")
            }
            None => Err(self.corrupt(format_args!("expected key {name:?}"))),
        }
    }

    /// Steps through a comma-separated sequence: consumes `close` and
    /// returns `false` at the end, otherwise consumes the separating
    /// comma (none before the `first` item) and returns `true`.
    ///
    /// # Errors
    ///
    /// [`WireError::Corrupt`] on a missing comma; a leading or trailing
    /// comma fails in the item reader that follows.
    pub fn item(&mut self, close: &str, first: bool) -> Result<bool, WireError> {
        if self.peek_lit(close) {
            self.lit(close)?;
            return Ok(false);
        }
        if !first {
            self.lit(",")?;
        }
        Ok(true)
    }

    /// An unsigned decimal integer.
    ///
    /// # Errors
    ///
    /// [`WireError::Corrupt`] when no digit follows or the value does
    /// not fit a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.rest = self.rest.trim_start();
        let digits = self
            .rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(self.rest.len());
        if digits == 0 {
            return Err(self.corrupt("expected integer"));
        }
        let v = self.rest[..digits]
            .parse()
            .map_err(|_| self.corrupt("integer out of range"))?;
        self.rest = &self.rest[digits..];
        Ok(v)
    }

    /// `true` or `false`.
    ///
    /// # Errors
    ///
    /// [`WireError::Corrupt`] on anything else.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        self.rest = self.rest.trim_start();
        for (token, v) in [("true", true), ("false", false)] {
            if let Some(tail) = self.rest.strip_prefix(token) {
                self.rest = tail;
                return Ok(v);
            }
        }
        Err(self.corrupt("expected boolean"))
    }

    /// A quoted string with the escapes [`push_str_escaped`] writes.
    ///
    /// # Errors
    ///
    /// [`WireError::Corrupt`] on a missing quote, an unterminated
    /// string, an unknown escape or a `\u` escape that is not a scalar
    /// value (surrogates included).
    pub fn string(&mut self) -> Result<String, WireError> {
        self.lit("\"")?;
        let mut out = String::new();
        loop {
            let Some(stop) = self.rest.find(['"', '\\']) else {
                return Err(WireError::Corrupt("unterminated string".into()));
            };
            out.push_str(&self.rest[..stop]);
            let mut chars = self.rest[stop..].chars();
            if chars.next() == Some('"') {
                self.rest = chars.as_str();
                return Ok(out);
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex = chars
                        .as_str()
                        .get(..4)
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                    let c = hex
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.corrupt("bad \\u escape"))?;
                    out.push(c);
                    chars = chars.as_str()[4..].chars();
                }
                Some(other) => {
                    return Err(WireError::Corrupt(format!("unknown escape \\{other}")))
                }
                None => return Err(WireError::Corrupt("dangling escape".into())),
            }
            self.rest = chars.as_str();
        }
    }

    /// Asserts nothing but whitespace remains.
    ///
    /// # Errors
    ///
    /// [`WireError::Corrupt`] on trailing content.
    pub fn end(&mut self) -> Result<(), WireError> {
        self.rest = self.rest.trim_start();
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(self.corrupt("trailing content"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn push_f64_always_shows_a_decimal_point() {
        let render = |v: f64| {
            let mut s = String::from("x=");
            push_f64(&mut s, v);
            s
        };
        assert_eq!(render(1.0), "x=1.0");
        assert_eq!(render(-0.0), "x=-0.0");
        assert_eq!(render(0.8), "x=0.8");
        assert_eq!(render(1e21), "x=1000000000000000000000.0");
        assert_eq!(render(f64::NAN), "x=NaN");
        assert_eq!(render(f64::INFINITY), "x=inf");
        assert_eq!(render(f64::NEG_INFINITY), "x=-inf");
    }

    #[test]
    fn push_u64_matches_display_at_every_digit_boundary() {
        let mut rng = crate::rng::SimRng::seed_from_u64(0x1D1E);
        let mut values = vec![0, u64::MAX];
        for k in 1..=19 {
            let p = 10u64.pow(k);
            values.extend([p - 1, p]);
        }
        values.extend((0..1_000).map(|i| rng.next_u64() >> (i % 64)));
        for v in values {
            let mut s = String::from("x=");
            push_u64(&mut s, v);
            assert_eq!(s, format!("x={v}"));
        }
    }

    #[test]
    fn every_escaped_code_point_round_trips() {
        let mut hostile: String = (0u8..0x20).map(char::from).collect();
        hostile.push_str("\"\\ plain \u{7f} \u{e9}\u{1f600}");
        let mut doc = String::from("\"");
        push_str_escaped(&mut doc, &hostile);
        doc.push('"');
        assert!(doc.bytes().all(|b| b >= 0x20), "raw control byte in {doc:?}");
        assert_eq!(doc.matches('"').count() - doc.matches("\\\"").count(), 2);
        let mut s = Scan::new(&doc);
        assert_eq!(s.string().unwrap(), hostile);
        s.end().unwrap();
    }

    #[test]
    fn scan_rejects_overflow_surrogates_and_bad_escapes() {
        assert_eq!(Scan::new(" 18446744073709551615").u64(), Ok(u64::MAX));
        for bad in ["18446744073709551616", "-1", "", "x"] {
            assert!(matches!(Scan::new(bad).u64(), Err(WireError::Corrupt(_))), "{bad:?}");
        }
        assert_eq!(Scan::new("\"\\u00e9\\u0041\"").string().unwrap(), "\u{e9}A");
        for bad in [
            "\"\\ud800\"",
            "\"\\udfff\"",
            "\"\\u12\"",
            "\"\\u+041\"",
            "\"\\u00\u{e9}9\"",
            "\"\\q\"",
            "\"\\",
            "\"open",
            "bare",
        ] {
            assert!(matches!(Scan::new(bad).string(), Err(WireError::Corrupt(_))), "{bad:?}");
        }
    }

    #[test]
    fn scan_walks_keys_items_and_end() {
        let mut s = Scan::new(" { \"xs\" : [ 1 , 2 ] , \"on\" : true } ");
        s.lit("{").unwrap();
        s.key("xs").unwrap();
        s.lit("[").unwrap();
        let mut xs = Vec::new();
        while s.item("]", xs.is_empty()).unwrap() {
            xs.push(s.u64().unwrap());
        }
        assert_eq!(xs, [1, 2]);
        s.lit(",").unwrap();
        assert!(s.key("off").is_err(), "wrong key");
        s.key("on").unwrap();
        assert!(s.bool().unwrap());
        assert!(s.end().is_err(), "the closing brace is still there");
        s.lit("}").unwrap();
        s.end().unwrap();

        // Missing, leading and trailing commas are all rejected.
        let list = |text: &str| -> Result<Vec<u64>, WireError> {
            let mut s = Scan::new(text);
            s.lit("[")?;
            let mut xs = Vec::new();
            while s.item("]", xs.is_empty())? {
                xs.push(s.u64()?);
            }
            s.end().map(|()| xs)
        };
        assert_eq!(list("[]"), Ok(vec![]));
        assert_eq!(list("[1,2]"), Ok(vec![1, 2]));
        for bad in ["[1 2]", "[,1]", "[1,]", "[1,2", "[1,2]]"] {
            assert!(list(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn header_checks_are_typed() {
        let mut bytes = b"GCSX".to_vec();
        bytes.extend_from_slice(&7u32.to_le_bytes());
        assert_eq!(check_header(&bytes, *b"GCSX", 7), Ok(()));
        assert_eq!(
            check_header(&bytes[..5], *b"GCSX", 7),
            Err(WireError::Truncated { at: 5, want: 3 })
        );
        assert_eq!(check_header(&bytes, *b"NOPE", 7), Err(WireError::BadMagic(*b"GCSX")));
        assert_eq!(check_header(&bytes, *b"GCSX", 8), Err(WireError::UnsupportedVersion(7)));
        assert_eq!(check_checksum(fnv1a(b"payload"), b"payload"), Ok(()));
        assert!(matches!(check_checksum(0, b"payload"), Err(WireError::Corrupt(_))));
        assert_eq!(WireError::Invalid("x".into()).kind(), "invalid");
    }
}
