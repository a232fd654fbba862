//! The `schedd` wire protocol: versioned, length-prefixed, checksummed
//! frames carrying fixed-shape JSON messages.
//!
//! The format deliberately mirrors the kernel-trace wire format
//! (`gcs_sim::trace_fmt` v1): a fixed little-endian header — magic
//! `"GCSD"`, `version: u32`, `payload_len: u32`, `checksum: u64`
//! (FNV-1a over the payload) — followed by a UTF-8 JSON payload. Every
//! way a frame can be wrong maps to a typed [`ProtoError`]; the decoder
//! **never panics** on adversarial input (`tests/proto_properties.rs`
//! fuzzes exactly that) and never trusts the advertised length beyond
//! [`MAX_FRAME_PAYLOAD`], so a hostile peer cannot make the daemon
//! allocate unboundedly.
//!
//! The message bodies are the small fixed shapes of [`Request`] and
//! [`Response`], read with the workspace's rigid [`Scan`] — anything
//! off-shape is [`ProtoError::Corrupt`], not a panic. Hashing, string
//! escaping, the header checks and the error type all come from
//! [`gcs_sim::wire`].

use std::fmt::Write as _;

use gcs_sim::wire::{self, Scan, WireError};
use gcs_workloads::Benchmark;

/// Magic bytes opening every frame.
pub const PROTO_MAGIC: [u8; 4] = *b"GCSD";

/// Current wire-format version.
pub const PROTO_VERSION: u32 = 1;

/// Frame header length in bytes: magic + version + payload_len +
/// checksum.
pub const FRAME_HEADER_LEN: usize = 4 + 4 + 4 + 8;

/// Hard ceiling on a frame payload. Requests are tiny and responses are
/// bounded by one full `SchedReport`; anything larger is an attack or a
/// bug, and is refused *before* allocation.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// Typed failure building or decoding a frame or message — the
/// workspace's one [`WireError`] under this module's historical name,
/// `kind()` tags included.
pub type ProtoError = WireError;

// ----------------------------------------------------------------------
// Frame encode / decode
// ----------------------------------------------------------------------

/// Wraps `payload` in a v1 frame: header (magic, version, length,
/// FNV-1a checksum) + payload.
///
/// # Errors
///
/// [`ProtoError::Oversize`] for a payload over [`MAX_FRAME_PAYLOAD`]:
/// every receiver would refuse the frame, so it is never built.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, ProtoError> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(ProtoError::Oversize {
            len: payload.len(),
            max: MAX_FRAME_PAYLOAD,
        });
    }
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&PROTO_MAGIC);
    out.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    // Lossless: the budget is far below `u32::MAX`.
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&wire::fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Validates a 20-byte header and returns the advertised payload length
/// and checksum. Streaming transports call this first, then read
/// exactly that many payload bytes — so the length is vetted against
/// [`MAX_FRAME_PAYLOAD`] *before* any payload allocation.
///
/// # Errors
///
/// [`ProtoError::Truncated`] for a short header, [`ProtoError::BadMagic`],
/// [`ProtoError::UnsupportedVersion`] and [`ProtoError::Oversize`] as
/// advertised.
pub fn decode_header(header: &[u8]) -> Result<(usize, u64), ProtoError> {
    if header.len() < FRAME_HEADER_LEN {
        return Err(ProtoError::Truncated {
            at: header.len(),
            want: FRAME_HEADER_LEN - header.len(),
        });
    }
    wire::check_header(header, PROTO_MAGIC, PROTO_VERSION)?;
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(ProtoError::Oversize {
            len,
            max: MAX_FRAME_PAYLOAD,
        });
    }
    let checksum = u64::from_le_bytes([
        header[12], header[13], header[14], header[15], header[16], header[17], header[18],
        header[19],
    ]);
    Ok((len, checksum))
}

/// Decodes one complete frame from `bytes` and returns its payload.
/// The buffer must hold exactly one frame; trailing bytes are
/// [`ProtoError::Corrupt`].
///
/// # Errors
///
/// Every [`ProtoError`] variant [`decode_header`] advertises, plus
/// [`ProtoError::Corrupt`] on a checksum mismatch; never panics.
pub fn decode_frame(bytes: &[u8]) -> Result<&[u8], ProtoError> {
    let (len, checksum) = decode_header(bytes)?;
    let have = bytes.len() - FRAME_HEADER_LEN;
    if have < len {
        return Err(ProtoError::Truncated {
            at: bytes.len(),
            want: len - have,
        });
    }
    if have > len {
        return Err(ProtoError::Corrupt(format!(
            "{} trailing byte(s) after the payload",
            have - len
        )));
    }
    let payload = &bytes[FRAME_HEADER_LEN..];
    wire::check_checksum(checksum, payload)?;
    Ok(payload)
}

// ----------------------------------------------------------------------
// Messages
// ----------------------------------------------------------------------

/// A client request to the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Submit one job: client-chosen id, benchmark, logical arrival
    /// cycle (non-decreasing across a session; the daemon clamps).
    Submit {
        /// Client-chosen job id (echoed back in the response).
        id: u64,
        /// Benchmark to run.
        bench: Benchmark,
        /// Logical arrival cycle.
        at: u64,
    },
    /// Read-only snapshot of daemon state (never advances time).
    Status,
    /// The canonical `SchedReport` JSON for the work finished so far
    /// (advances time over everything already submitted).
    Report,
    /// Stop admitting, finish in-flight jobs, return the final report.
    Drain,
}

impl Request {
    /// Renders the request as its canonical single-line JSON payload.
    pub fn encode_json(&self) -> String {
        match self {
            Request::Submit { id, bench, at } => format!(
                "{{\"op\":\"submit\",\"id\":{id},\"bench\":\"{}\",\"at\":{at}}}",
                bench.name()
            ),
            Request::Status => "{\"op\":\"status\"}".to_string(),
            Request::Report => "{\"op\":\"report\"}".to_string(),
            Request::Drain => "{\"op\":\"drain\"}".to_string(),
        }
    }

    /// Wraps [`Request::encode_json`] in a frame.
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(self.encode_json().as_bytes()).expect("a request is a few dozen bytes")
    }

    /// Parses the shape [`Request::encode_json`] writes.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Corrupt`] on any structural mismatch; never
    /// panics.
    pub fn decode_json(text: &str) -> Result<Request, ProtoError> {
        let mut s = Scan::new(text);
        s.lit("{")?;
        s.key("op")?;
        let op = s.string()?;
        let req = match op.as_str() {
            "submit" => {
                s.lit(",")?;
                s.key("id")?;
                let id = s.u64()?;
                s.lit(",")?;
                s.key("bench")?;
                let name = s.string()?;
                let bench = Benchmark::from_name(&name).ok_or_else(|| {
                    ProtoError::Corrupt(format!("unknown benchmark {name:?}"))
                })?;
                s.lit(",")?;
                s.key("at")?;
                let at = s.u64()?;
                Request::Submit { id, bench, at }
            }
            "status" => Request::Status,
            "report" => Request::Report,
            "drain" => Request::Drain,
            other => return Err(ProtoError::Corrupt(format!("unknown request op {other:?}"))),
        };
        s.lit("}")?;
        s.end()?;
        Ok(req)
    }

    /// Decodes a framed request ([`decode_frame`] + [`Request::decode_json`]).
    ///
    /// # Errors
    ///
    /// Every [`ProtoError`] variant; never panics.
    pub fn decode(bytes: &[u8]) -> Result<Request, ProtoError> {
        Request::decode_json(payload_str(decode_frame(bytes)?)?)
    }
}

/// A daemon response to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The job was admitted.
    Submitted {
        /// Echo of the submitted id.
        id: u64,
    },
    /// Admission backpressure: the queue is full (or the daemon is
    /// draining); retry no earlier than `retry_after` cycles from the
    /// submission's arrival cycle.
    Rejected {
        /// Echo of the submitted id.
        id: u64,
        /// Suggested wait before resubmitting, in cycles (≥ 1).
        retry_after: u64,
        /// True when the rejection is a drain, not capacity — retrying
        /// is then pointless.
        draining: bool,
    },
    /// State snapshot.
    Status {
        /// Current logical cycle.
        now: u64,
        /// Jobs waiting in the admission queue.
        pending: usize,
        /// Devices currently running a group.
        running: usize,
        /// Jobs completed so far.
        completed: usize,
        /// Jobs rejected so far.
        rejected: usize,
        /// Jobs that died in simulation (timeout/deadlock).
        failed: usize,
        /// Degradations recorded so far.
        degradations: usize,
        /// Whether a drain is in progress / finished.
        draining: bool,
    },
    /// A canonical `SchedReport` document.
    Report {
        /// The report JSON (multi-line, exactly `SchedReport::to_json`).
        json: String,
    },
    /// Drain finished; the final report.
    Drained {
        /// The final report JSON.
        json: String,
    },
    /// Typed failure. `kind` is stable (`"proto"`, `"sim-timeout"`,
    /// `"sim-deadlock"`, `"stalled"`, `"internal"`); `diag` carries the
    /// device `DiagSnapshot` rendering when the simulator produced one.
    Error {
        /// Stable error tag.
        kind: String,
        /// Human-readable detail.
        detail: String,
        /// Device diagnostics, when available.
        diag: Option<String>,
    },
}

impl Response {
    /// Renders the response as its canonical single-line JSON payload.
    pub fn encode_json(&self) -> String {
        match self {
            Response::Submitted { id } => format!("{{\"ok\":\"submitted\",\"id\":{id}}}"),
            Response::Rejected {
                id,
                retry_after,
                draining,
            } => format!(
                "{{\"ok\":\"rejected\",\"id\":{id},\"retry_after\":{retry_after},\"draining\":{draining}}}"
            ),
            Response::Status {
                now,
                pending,
                running,
                completed,
                rejected,
                failed,
                degradations,
                draining,
            } => format!(
                "{{\"ok\":\"status\",\"now\":{now},\"pending\":{pending},\"running\":{running},\
                 \"completed\":{completed},\"rejected\":{rejected},\"failed\":{failed},\
                 \"degradations\":{degradations},\"draining\":{draining}}}"
            ),
            Response::Report { json } => tagged("report", &[("json", Some(json))]),
            Response::Drained { json } => tagged("drained", &[("json", Some(json))]),
            Response::Error { kind, detail, diag } => tagged(
                "error",
                &[("kind", Some(kind)), ("detail", Some(detail)), ("diag", diag.as_ref())],
            ),
        }
    }

    /// Wraps [`Response::encode_json`] in a frame. A response over the
    /// frame budget (a report of several thousand jobs) would be
    /// refused by every client, so a typed, in-budget
    /// `Error { kind: "oversize", .. }` is framed in its place.
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(self.encode_json().as_bytes()).unwrap_or_else(|e| {
            // Terminates: the replacement's payload is ~100 bytes.
            Response::Error {
                kind: e.kind().into(),
                detail: e.to_string(),
                diag: None,
            }
            .encode()
        })
    }

    /// Parses the shape [`Response::encode_json`] writes.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Corrupt`] on any structural mismatch; never
    /// panics.
    pub fn decode_json(text: &str) -> Result<Response, ProtoError> {
        let mut s = Scan::new(text);
        s.lit("{")?;
        s.key("ok")?;
        let ok = s.string()?;
        let resp = match ok.as_str() {
            "submitted" => {
                s.lit(",")?;
                s.key("id")?;
                Response::Submitted { id: s.u64()? }
            }
            "rejected" => {
                s.lit(",")?;
                s.key("id")?;
                let id = s.u64()?;
                s.lit(",")?;
                s.key("retry_after")?;
                let retry_after = s.u64()?;
                s.lit(",")?;
                s.key("draining")?;
                let draining = s.bool()?;
                Response::Rejected {
                    id,
                    retry_after,
                    draining,
                }
            }
            "status" => {
                let mut field = |name: &str| -> Result<u64, ProtoError> {
                    s.lit(",")?;
                    s.key(name)?;
                    s.u64()
                };
                let now = field("now")?;
                let pending = field("pending")? as usize;
                let running = field("running")? as usize;
                let completed = field("completed")? as usize;
                let rejected = field("rejected")? as usize;
                let failed = field("failed")? as usize;
                let degradations = field("degradations")? as usize;
                s.lit(",")?;
                s.key("draining")?;
                let draining = s.bool()?;
                Response::Status {
                    now,
                    pending,
                    running,
                    completed,
                    rejected,
                    failed,
                    degradations,
                    draining,
                }
            }
            "report" => {
                s.lit(",")?;
                s.key("json")?;
                Response::Report { json: s.string()? }
            }
            "drained" => {
                s.lit(",")?;
                s.key("json")?;
                Response::Drained { json: s.string()? }
            }
            "error" => {
                s.lit(",")?;
                s.key("kind")?;
                let kind = s.string()?;
                s.lit(",")?;
                s.key("detail")?;
                let detail = s.string()?;
                let diag = if s.peek_lit(",") {
                    s.lit(",")?;
                    s.key("diag")?;
                    Some(s.string()?)
                } else {
                    None
                };
                Response::Error { kind, detail, diag }
            }
            other => return Err(ProtoError::Corrupt(format!("unknown response tag {other:?}"))),
        };
        s.lit("}")?;
        s.end()?;
        Ok(resp)
    }

    /// Decodes a framed response.
    ///
    /// # Errors
    ///
    /// Every [`ProtoError`] variant; never panics.
    pub fn decode(bytes: &[u8]) -> Result<Response, ProtoError> {
        Response::decode_json(payload_str(decode_frame(bytes)?)?)
    }
}

fn payload_str(payload: &[u8]) -> Result<&str, ProtoError> {
    std::str::from_utf8(payload)
        .map_err(|_| ProtoError::Corrupt("payload is not UTF-8".into()))
}

/// `{"ok":"<tag>","<name>":"<escaped value>",...}` over the fields that
/// are present.
fn tagged(tag: &str, fields: &[(&str, Option<&String>)]) -> String {
    let len: usize = fields.iter().filter_map(|(_, v)| v.map(String::len)).sum();
    let mut s = String::with_capacity(len + len / 8 + 48);
    let _ = write!(s, "{{\"ok\":\"{tag}\"");
    for (name, value) in fields {
        if let Some(value) = value {
            let _ = write!(s, ",\"{name}\":\"");
            wire::push_str_escaped(&mut s, value);
            s.push('"');
        }
    }
    s.push('}');
    s
}

#[cfg(test)]
#[path = "../../../tests/common/hostile.rs"]
mod hostile;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Submit {
                id: 0,
                bench: Benchmark::Gups,
                at: 0,
            },
            Request::Submit {
                id: u64::MAX,
                bench: Benchmark::Bfs2,
                at: 123_456_789,
            },
            Request::Status,
            Request::Report,
            Request::Drain,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Submitted { id: 3 },
            Response::Rejected {
                id: 9,
                retry_after: 4_000,
                draining: false,
            },
            Response::Rejected {
                id: 10,
                retry_after: 1,
                draining: true,
            },
            Response::Status {
                now: 55,
                pending: 2,
                running: 1,
                completed: 7,
                rejected: 1,
                failed: 1,
                degradations: 3,
                draining: false,
            },
            Response::Report {
                json: "{\n  \"policy\": \"ilp\"\n}\n".into(),
            },
            Response::Drained {
                json: "{\n  \"x\": [1,2]\n}\n".into(),
            },
            Response::Error {
                kind: "sim-timeout".into(),
                detail: "cycle budget exhausted at cycle 99".into(),
                diag: Some("2/4 SMs enabled, 0 ready / 3 live warps".into()),
            },
            Response::Error {
                kind: "proto".into(),
                detail: "corrupt frame: \"quoted\"\tand\u{1} control".into(),
                diag: None,
            },
        ]
    }

    #[test]
    fn requests_round_trip_through_frames() {
        for req in sample_requests() {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip_through_frames() {
        for resp in sample_responses() {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn every_truncation_prefix_is_a_typed_error() {
        let bytes = Request::Submit {
            id: 7,
            bench: Benchmark::Sad,
            at: 42,
        }
        .encode();
        for prefix in hostile::truncations(&bytes, 1) {
            match Request::decode(prefix) {
                Err(ProtoError::Truncated { .. }) => {}
                other => panic!("{}-byte prefix: expected truncation, got {other:?}", prefix.len()),
            }
        }
        assert!(Request::decode(&bytes).is_ok());
    }

    #[test]
    fn bad_magic_version_and_oversize_are_typed() {
        let mut bytes = Request::Status.encode();
        bytes[0] = b'X';
        assert!(matches!(
            Request::decode(&bytes),
            Err(ProtoError::BadMagic(_))
        ));

        let mut bytes = Request::Status.encode();
        bytes[4] = 99;
        assert!(matches!(
            Request::decode(&bytes),
            Err(ProtoError::UnsupportedVersion(99))
        ));

        let mut bytes = Request::Status.encode();
        let huge = (MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes();
        bytes[8..12].copy_from_slice(&huge);
        assert!(matches!(
            Request::decode(&bytes),
            Err(ProtoError::Oversize { .. })
        ));
    }

    #[test]
    fn checksum_and_trailing_bytes_are_corrupt() {
        let mut bytes = Request::Drain.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip payload bit: checksum mismatch
        assert!(matches!(
            Request::decode(&bytes),
            Err(ProtoError::Corrupt(_))
        ));

        let mut bytes = Request::Drain.encode();
        bytes.push(0);
        assert!(matches!(
            Request::decode(&bytes),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn off_shape_json_is_corrupt_never_panic() {
        for bad in [
            "",
            "{}",
            "{\"op\":\"nope\"}",
            "{\"op\":\"submit\",\"id\":1}",
            "{\"op\":\"submit\",\"id\":1,\"bench\":\"NOPE\",\"at\":0}",
            "{\"op\":\"status\"} extra",
            "{\"op\":\"status\"",
            "{\"ok\":\"status\"}",
            "[1,2,3]",
            "{\"ok\":\"report\",\"json\":\"unterminated}",
            "{\"ok\":\"error\",\"kind\":\"k\",\"detail\":\"\\q\"}",
        ] {
            assert!(
                Request::decode_json(bad).is_err() || Response::decode_json(bad).is_err(),
                "must reject {bad:?}"
            );
        }
        assert!(matches!(
            Request::decode_json("{\"op\":\"submit\",\"id\":1,\"bench\":\"NOPE\",\"at\":0}"),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn error_kinds_are_stable() {
        assert_eq!(ProtoError::Truncated { at: 0, want: 1 }.kind(), "truncated");
        assert_eq!(ProtoError::BadMagic([0; 4]).kind(), "bad-magic");
        assert_eq!(ProtoError::UnsupportedVersion(2).kind(), "unsupported-version");
        assert_eq!(
            ProtoError::Oversize { len: 9, max: 1 }.kind(),
            "oversize"
        );
        assert_eq!(ProtoError::Corrupt("x".into()).kind(), "corrupt");
        // Display is informative.
        let e = ProtoError::Oversize {
            len: 2_000_000,
            max: MAX_FRAME_PAYLOAD,
        };
        assert!(e.to_string().contains("budget"));
    }
}
