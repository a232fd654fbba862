//! Adversarial property tests for the daemon frame protocol
//! (`gcs_sched::proto`): the shared attack generators of
//! `tests/common/hostile.rs` — exhaustive truncation prefixes,
//! single-bit corruption, seeded garbage — over every request/response
//! shape. The invariant under attack is simple — **the decoder returns
//! a typed [`ProtoError`], it never panics and never misinterprets a
//! damaged frame as a different valid frame without the checksum
//! catching it.**
//!
//! `--features proptest-tests` widens the fuzz sweep.

use gcs_sched::proto::{
    decode_frame, encode_frame, ProtoError, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
};
use gcs_sched::{Request, Response};
use gcs_workloads::Benchmark;

#[path = "common/hostile.rs"]
mod hostile;

const CASES: usize = if cfg!(feature = "proptest-tests") { 400 } else { 64 };

/// A zoo of representative frames: every request and response shape,
/// including escapes, extremes and an empty-ish payload.
fn sample_frames() -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for req in [
        Request::Submit {
            id: 0,
            bench: Benchmark::Gups,
            at: 0,
        },
        Request::Submit {
            id: u64::MAX,
            bench: Benchmark::Bfs2,
            at: u64::MAX,
        },
        Request::Status,
        Request::Report,
        Request::Drain,
    ] {
        frames.push(req.encode());
    }
    for resp in [
        Response::Submitted { id: 3 },
        Response::Rejected {
            id: 9,
            retry_after: 12_345,
            draining: true,
        },
        Response::Status {
            now: 1,
            pending: 2,
            running: 3,
            completed: 4,
            rejected: 5,
            failed: 6,
            degradations: 7,
            draining: false,
        },
        Response::Report {
            json: "{\n  \"jobs\": []\n}\n".into(),
        },
        Response::Drained {
            json: "nested \"quotes\" and \\ slashes \t\r\n".into(),
        },
        Response::Error {
            kind: "corrupt".into(),
            detail: "ctl \u{1} byte".into(),
            diag: Some("0/4 SMs enabled".into()),
        },
    ] {
        frames.push(resp.encode());
    }
    frames
}

/// Every sample round-trips exactly through its own decoder.
#[test]
fn all_samples_round_trip() {
    for frame in sample_frames() {
        let payload = decode_frame(&frame).expect("valid frame");
        // A valid frame is one of the two message kinds; decoding it
        // as *some* typed message must succeed.
        let req = Request::decode(&frame);
        let resp = Response::decode(&frame);
        assert!(
            req.is_ok() || resp.is_ok(),
            "undecodable valid frame: {payload:?}"
        );
    }
}

/// Every strict prefix of every sample frame decodes to `Truncated`
/// with an accurate offset — the header is length-checked before the
/// magic is even read.
#[test]
fn every_truncation_prefix_is_typed() {
    for frame in sample_frames() {
        for prefix in hostile::truncations(&frame, 1) {
            match decode_frame(prefix).expect_err("prefix must not decode") {
                ProtoError::Truncated { at, want } => {
                    assert_eq!(at, prefix.len());
                    assert!(want > 0);
                }
                other => panic!("prefix {}: unexpected {other:?}", prefix.len()),
            }
        }
    }
}

/// The full assault on all three decoders over every sample frame: no
/// strict prefix and no single-bit flip ever decodes (a flipped
/// checksum bit cannot collide with FNV-1a over an unchanged payload,
/// and a flipped payload bit moves the checksum), and garbage never
/// panics.
#[test]
fn every_single_bit_flip_is_caught_or_typed() {
    let frames = sample_frames();
    let typed = |frame: &[u8]| Request::decode(frame).is_ok() || Response::decode(frame).is_ok();
    let targets: Vec<hostile::Target<'_>> = frames
        .iter()
        .flat_map(|frame| {
            [
                hostile::Target {
                    name: "frame",
                    valid: frame.clone(),
                    checksummed: true,
                    accepts: &|b| decode_frame(b).is_ok(),
                },
                hostile::Target {
                    name: "message",
                    valid: frame.clone(),
                    checksummed: true,
                    accepts: &typed,
                },
            ]
        })
        .collect();
    hostile::assault(&targets, 1, CASES / 8);
}

/// Seeded random garbage — arbitrary lengths, arbitrary bytes — always
/// produces a typed error, whatever decoder it is fed to.
#[test]
fn random_garbage_never_panics() {
    for bytes in hostile::garbage(0xfee1_dead, CASES, 96, &[]) {
        // Astronomically unlikely, but if it frames, the budget held.
        if let Ok(payload) = decode_frame(&bytes) {
            assert!(payload.len() <= MAX_FRAME_PAYLOAD);
        }
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }
}

/// Seeded random *JSON-shaped* payloads wrapped in valid frames: the
/// framing layer passes them, the typed decoders reject them with
/// `Corrupt` — never a panic, never a bogus accept.
#[test]
fn framed_garbage_payloads_are_corrupt_not_fatal() {
    for payload in hostile::garbage(0xbad_cafe, CASES, 64, hostile::JSONISH) {
        let frame = encode_frame(&payload).expect("in budget");
        assert_eq!(decode_frame(&frame).expect("framing is sound"), &payload[..]);
        // The overwhelming majority cannot be valid messages; all must
        // fail *typed*.
        if let Err(e) = Request::decode(&frame) {
            assert!(matches!(e, ProtoError::Corrupt(_)), "unexpected {e:?}");
        }
        if let Err(e) = Response::decode(&frame) {
            assert!(matches!(e, ProtoError::Corrupt(_)), "unexpected {e:?}");
        }
    }
}

/// The budget is enforced where a frame is built, not only where it is
/// read: an over-budget payload is never framed, and an over-budget
/// response goes out as a typed error every client can decode.
#[test]
fn over_budget_report_becomes_a_decodable_error() {
    assert!(encode_frame(&vec![b'x'; MAX_FRAME_PAYLOAD]).is_ok());
    assert_eq!(
        encode_frame(&vec![b'x'; MAX_FRAME_PAYLOAD + 1]),
        Err(ProtoError::Oversize {
            len: MAX_FRAME_PAYLOAD + 1,
            max: MAX_FRAME_PAYLOAD,
        })
    );
    // Escaping inflates the payload past the budget even though the
    // report itself is under it.
    let json = "\"\n".repeat(MAX_FRAME_PAYLOAD / 2 - 8);
    for resp in [Response::Report { json: json.clone() }, Response::Drained { json }] {
        let frame = resp.encode();
        assert!(frame.len() <= FRAME_HEADER_LEN + MAX_FRAME_PAYLOAD);
        match Response::decode(&frame).expect("decodable") {
            Response::Error { kind, detail, diag: None } => {
                assert_eq!(kind, "oversize");
                assert!(detail.contains("budget"), "{detail}");
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
    }
}

/// Headers advertising hostile payload lengths are refused before any
/// allocation could happen, with the length echoed in the error.
#[test]
fn hostile_lengths_are_refused_up_front() {
    let frame = encode_frame(b"ok").expect("in budget");
    for hostile in [
        MAX_FRAME_PAYLOAD + 1,
        1 << 24,
        u32::MAX as usize & 0x7fff_ffff,
    ] {
        let mut bent = frame.clone();
        bent[8..12].copy_from_slice(&(hostile as u32).to_le_bytes());
        match gcs_sched::proto::decode_header(&bent[..FRAME_HEADER_LEN]) {
            Err(ProtoError::Oversize { len, max }) => {
                assert_eq!(len, hostile);
                assert_eq!(max, MAX_FRAME_PAYLOAD);
            }
            other => panic!("hostile len {hostile}: {other:?}"),
        }
    }
}

/// Error `kind()` strings are stable API — scripts and the CI smoke
/// match on them.
#[test]
fn error_kinds_are_stable() {
    let kinds: Vec<&str> = [
        ProtoError::Truncated { at: 0, want: 1 },
        ProtoError::BadMagic(*b"NOPE"),
        ProtoError::UnsupportedVersion(9),
        ProtoError::Oversize {
            len: 2_000_000,
            max: MAX_FRAME_PAYLOAD,
        },
        ProtoError::Corrupt("x".into()),
    ]
    .iter()
    .map(ProtoError::kind)
    .collect();
    assert_eq!(
        kinds,
        ["truncated", "bad-magic", "unsupported-version", "oversize", "corrupt"]
    );
}
