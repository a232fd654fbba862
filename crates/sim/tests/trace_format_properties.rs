//! Property-based tests for the versioned trace wire format: every
//! recorded trace must round-trip through encode/decode bit-exactly,
//! and every malformed byte stream must be rejected with a typed
//! [`TraceFmtError`] — never a panic.
//!
//! Like `sim_properties.rs`, the harness is deterministic and
//! dependency-free: cases are drawn from [`gcs_sim::rng::SimRng`] with
//! fixed seeds, so every run (and every CI machine) exercises the
//! identical case set. Building with `--features proptest-tests`
//! widens the sweep.

use gcs_sim::config::GpuConfig;
use gcs_sim::gpu::Gpu;
use gcs_sim::kernel::{AccessPattern, KernelDesc, Op, PatternId, PatternKind};
use gcs_sim::rng::SimRng;
use gcs_sim::trace_fmt::{KernelTrace, TraceBuilder, TraceFmtError, TRACE_MAGIC, TRACE_VERSION};

#[path = "../../../tests/common/hostile.rs"]
mod hostile;

/// Cases per property (see `tests/README.md` for the rationale).
const CASES: usize = if cfg!(feature = "proptest-tests") { 96 } else { 24 };

/// Draws a small random-but-valid kernel whose recorded trace exercises
/// every op tag and pattern kind the wire format can carry.
fn random_kernel(rng: &mut SimRng) -> KernelDesc {
    let grid_blocks = 1 + rng.gen_range(7) as u32;
    let warps_per_block = 1 + rng.gen_range(3) as u32;
    let iters_per_warp = 1 + rng.gen_range(7) as u32;
    let active_lanes = 1 + rng.gen_range(32) as u8;
    let ws = (1 + rng.gen_range(63)) * 4096;
    let patterns = vec![
        match rng.gen_range(4) {
            0 => AccessPattern::streaming(ws),
            1 => AccessPattern {
                kind: PatternKind::Strided { stride: 256 },
                working_set: ws,
                transactions: 2,
            },
            2 => AccessPattern::random(ws, 1 + rng.gen_range(3) as u8),
            _ => AccessPattern::tiled(ws, 4096),
        },
        AccessPattern::streaming(ws),
    ];
    let body_len = 1 + rng.gen_range(5) as usize;
    let mut body: Vec<Op> = (0..body_len)
        .map(|_| match rng.gen_range(5) {
            0 => Op::Alu { latency: 4 },
            1 => Op::Sfu { latency: 16 },
            2 => Op::Load(PatternId(0)),
            3 => Op::Store(PatternId(1)),
            _ => Op::Barrier,
        })
        .collect();
    body.push(Op::Load(PatternId(0)));
    KernelDesc {
        name: "prop".into(),
        grid_blocks,
        warps_per_block,
        iters_per_warp,
        body,
        patterns,
        active_lanes,
    }
}

/// Runs a kernel alone with recording on and returns its trace.
fn record(kernel: KernelDesc) -> KernelTrace {
    let mut gpu = Gpu::new(GpuConfig::test_small()).expect("config");
    let app = gpu.launch(kernel).expect("launch");
    gpu.enable_trace_recording(app).expect("recording");
    gpu.partition_even();
    gpu.run(50_000_000).expect("terminates");
    gpu.take_trace(app).expect("trace")
}

/// Every recorded trace survives encode → decode bit-exactly: the
/// decoded value compares equal, carries the same fingerprint, and
/// validates.
#[test]
fn recorded_traces_round_trip() {
    let mut rng = SimRng::seed_from_u64(0x7ACE_F0F0);
    let mut ran = 0;
    while ran < CASES {
        let k = random_kernel(&mut rng);
        if k.validate().is_err() {
            continue;
        }
        ran += 1;
        let trace = record(k);
        trace.validate().expect("recorded traces validate");
        let bytes = trace.encode();
        let back = KernelTrace::decode(&bytes).expect("round trip decodes");
        assert_eq!(back, trace, "case {ran}: decode != original");
        assert_eq!(back.fingerprint(), trace.fingerprint(), "case {ran}");
        assert_eq!(back.encode(), bytes, "case {ran}: re-encode differs");
    }
}

/// The fingerprint is content-addressed: any change to the op stream or
/// the address payload moves it.
#[test]
fn fingerprint_tracks_content() {
    let mut rng = SimRng::seed_from_u64(0xF1F0);
    let k = loop {
        let k = random_kernel(&mut rng);
        if k.validate().is_ok() {
            break k;
        }
    };
    let a = record(k.clone());
    let b = record(KernelDesc {
        iters_per_warp: k.iters_per_warp + 1,
        ..k
    });
    assert_ne!(a.fingerprint(), b.fingerprint(), "content change must move the fingerprint");
}

/// Exhaustive over prefixes and flipped bytes with `proptest-tests`,
/// sampled otherwise to keep the default run quick.
const STEP: usize = if cfg!(feature = "proptest-tests") { 1 } else { 7 };

fn recorded_bytes(seed: u64) -> Vec<u8> {
    let mut rng = SimRng::seed_from_u64(seed);
    let k = loop {
        let k = random_kernel(&mut rng);
        if k.validate().is_ok() {
            break k;
        }
    };
    record(k).encode()
}

/// Every strict prefix of a valid encoding is rejected with a typed
/// error — no panics, no silently-accepted partial traces.
#[test]
fn truncated_streams_are_rejected() {
    let bytes = recorded_bytes(0x7255);
    for prefix in hostile::truncations(&bytes, STEP) {
        let err = KernelTrace::decode(prefix).expect_err("prefix must not decode");
        assert!(
            matches!(err, TraceFmtError::Truncated { .. } | TraceFmtError::Corrupt(_)),
            "prefix of {} bytes gave unexpected error: {err}",
            prefix.len()
        );
    }
}

/// The full assault: flipping any single bit of a valid encoding is
/// detected (the payload is covered by the FNV fingerprint, and the
/// header fields are checked individually), and garbage never panics.
#[test]
fn corrupted_streams_are_rejected() {
    hostile::assault(
        &[hostile::Target {
            name: "kernel-trace",
            valid: recorded_bytes(0xC0_22),
            checksummed: true,
            accepts: &|b| KernelTrace::decode(b).is_ok(),
        }],
        STEP,
        CASES * 4,
    );
}

/// Bad magic and unsupported versions are reported as such.
#[test]
fn header_errors_are_typed() {
    let trace = TraceBuilder::new("hdr", &GpuConfig::test_small())
        .geometry(1, 1, 1, 32)
        .body(vec![Op::Alu { latency: 4 }])
        .build()
        .expect("builds");
    let bytes = trace.encode();
    assert_eq!(&bytes[..4], &TRACE_MAGIC);

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    assert!(matches!(
        KernelTrace::decode(&bad_magic),
        Err(TraceFmtError::BadMagic(_))
    ));

    let mut bad_version = bytes.clone();
    bad_version[4..8].copy_from_slice(&(TRACE_VERSION + 1).to_le_bytes());
    assert!(matches!(
        KernelTrace::decode(&bad_version),
        Err(TraceFmtError::UnsupportedVersion(v)) if v == TRACE_VERSION + 1
    ));

    // A stale fingerprint over an intact payload is a corruption.
    let mut bad_fp = bytes.clone();
    bad_fp[8] ^= 0xFF;
    assert!(matches!(
        KernelTrace::decode(&bad_fp),
        Err(TraceFmtError::Corrupt(_))
    ));

    assert!(matches!(
        KernelTrace::decode(&[]),
        Err(TraceFmtError::Truncated { .. })
    ));
}

/// Builder validation catches shape mismatches: wrong group counts and
/// wrong per-attempt address counts never produce a trace.
#[test]
fn builder_rejects_malformed_shapes() {
    let cfg = GpuConfig::test_small();
    // A memory op demands one access group per warp iteration; giving
    // none must fail validation.
    let missing = TraceBuilder::new("missing", &cfg)
        .geometry(1, 1, 1, 32)
        .body(vec![Op::Load(PatternId(0))])
        .patterns(vec![AccessPattern::streaming(1 << 20)])
        .build();
    assert!(missing.is_err(), "missing access groups must be rejected");

    // An attempt whose address count disagrees with the pattern's
    // transaction count must fail too.
    let wrong_width = TraceBuilder::new("wrong", &cfg)
        .geometry(1, 1, 1, 32)
        .body(vec![Op::Load(PatternId(0))])
        .patterns(vec![AccessPattern {
            kind: PatternKind::Random,
            working_set: 1 << 20,
            transactions: 4,
        }])
        .push_access(0, vec![0, 128])
        .build();
    assert!(wrong_width.is_err(), "transaction-count mismatch must be rejected");
}
