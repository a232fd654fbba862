//! Versioned per-warp instruction + address trace format (record /
//! replay).
//!
//! A [`KernelTrace`] is the recorded ground truth of one kernel run:
//! the kernel's op body and declared access patterns, plus — per global
//! warp, in program order — every address-generation *attempt* the
//! issue path made. Traces are produced three ways:
//!
//! * **Recorded** from a live run via [`TraceRecorder`] (installed with
//!   [`Gpu::enable_trace_recording`](crate::gpu::Gpu::enable_trace_recording),
//!   harvested with [`Gpu::take_trace`](crate::gpu::Gpu::take_trace));
//! * **Decoded** from the binary wire format ([`KernelTrace::decode`]);
//! * **Hand-authored** through [`TraceBuilder`] for workloads the
//!   synthetic pattern generators cannot express.
//!
//! Replay ([`Gpu::launch_traced`](crate::gpu::Gpu::launch_traced))
//! serves addresses back from the trace instead of calling the pattern
//! generators. The contract pinned by `tests/trace_roundtrip.rs`: a
//! trace recorded in some device context replays **bit-identically**
//! (same `SimStats`, same cycle count, same SMRA actions) in that
//! context, in both step modes and at any sweep thread count.
//!
//! Two design points carry that contract:
//!
//! * **Attempts, not just accesses.** A back-pressured load retries
//!   without bumping its pattern counter, and `Random` patterns draw
//!   fresh addresses from the per-SM RNG on every retry. Each group (one
//!   successful access) therefore stores *all* of its attempts; replay
//!   walks them in order and clamps to the last one, so a replay context
//!   that retries more often than the recording still sees deterministic
//!   addresses.
//! * **Relative addresses.** Stored addresses are relative to the
//!   recording application's base, and the replayer adds its *own* base
//!   back — a trace recorded in app slot 0 replays unchanged from any
//!   slot, which is what lets traced and synthetic workloads co-run.
//!
//! ## Wire format (version 1)
//!
//! Fixed-width little-endian throughout. A 16-byte header — magic
//! `"GCST"`, `version: u32`, `fingerprint: u64` (FNV-1a over the
//! payload) — then the payload: trace metadata (kernel name, geometry
//! and the device fields the recording ran under), the op body, the
//! access patterns, and the per-warp streams
//! (`warp → group → attempt → addresses`). The fingerprint is verified
//! on decode, doubles as the content hash in sweep-engine cache keys,
//! and is printed by the `repro trace_record` / `repro trace_replay`
//! subcommands.

use std::fmt::Write as _;

use crate::config::GpuConfig;
use crate::kernel::{AccessPattern, KernelDesc, Op, PatternId, PatternKind};
use crate::wire::{self, WireError};

/// Magic bytes opening every encoded trace.
pub const TRACE_MAGIC: [u8; 4] = *b"GCST";

/// Current wire-format version.
pub const TRACE_VERSION: u32 = 1;

/// Upper bound (exclusive) on stored relative addresses: application
/// bases are spaced `1 << 44` apart (`gpu::app_base`), so any relative
/// address below this re-bases losslessly into any app slot.
const REL_ADDR_LIMIT: u64 = 1 << 44;

/// Typed failure decoding, validating or building a trace — the
/// workspace's one [`WireError`] under this module's historical name.
/// Decoding reports `Truncated` / `BadMagic` / `UnsupportedVersion` /
/// `Corrupt`; [`KernelTrace::validate`] reports `Invalid`.
pub type TraceFmtError = WireError;

/// Kernel + device metadata stamped into every trace header.
///
/// The device fields (`num_sms` …) document the configuration the
/// recording ran under. They are informational: replay on a different
/// device is legal and deterministic, it just is not expected to be
/// bit-identical to the recording run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Kernel name (also the workload name replays report).
    pub name: String,
    /// SMs of the recording device.
    pub num_sms: u32,
    /// L1 line size of the recording device in bytes.
    pub line_bytes: u32,
    /// Warp-slot capacity per SM of the recording device.
    pub max_warps_per_sm: u32,
    /// Block capacity per SM of the recording device.
    pub max_blocks_per_sm: u32,
    /// Grid size in blocks.
    pub grid_blocks: u32,
    /// Warps per block.
    pub warps_per_block: u32,
    /// Loop iterations per warp.
    pub iters_per_warp: u32,
    /// Active lanes per warp (1..=32).
    pub active_lanes: u8,
}

/// All address-generation attempts behind one successful access: the
/// rejected (back-pressured) tries first, the issued one last. Stored
/// addresses are relative to the recording app's base.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessGroup {
    /// One `Vec<u64>` of relative addresses per attempt; every attempt
    /// carries exactly the pattern's `transactions` addresses.
    pub attempts: Vec<Vec<u64>>,
}

/// The ordered access groups of one global warp.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarpStream {
    /// Groups in program order: iteration-major, then the body's memory
    /// ops in order.
    pub groups: Vec<AccessGroup>,
}

/// A complete recorded (or authored) kernel run: metadata, op body,
/// declared patterns and the per-warp address streams.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTrace {
    /// Header metadata.
    pub meta: TraceMeta,
    /// The kernel's loop body.
    pub body: Vec<Op>,
    /// Declared access patterns. During replay these supply the
    /// transaction counts (and the RNG-parity draws for `Random`); the
    /// addresses themselves come from the streams.
    pub patterns: Vec<AccessPattern>,
    /// One stream per global warp, indexed by
    /// `block * warps_per_block + warp_in_block`.
    pub warps: Vec<WarpStream>,
}

impl KernelTrace {
    /// Reconstructs the [`KernelDesc`] this trace replays as. The
    /// descriptor is what flows through launch validation, stats and
    /// classification, so traced workloads are indistinguishable from
    /// synthetic ones downstream.
    pub fn kernel_desc(&self) -> KernelDesc {
        KernelDesc {
            name: self.meta.name.clone(),
            grid_blocks: self.meta.grid_blocks,
            warps_per_block: self.meta.warps_per_block,
            iters_per_warp: self.meta.iters_per_warp,
            body: self.body.clone(),
            patterns: self.patterns.clone(),
            active_lanes: self.meta.active_lanes,
        }
    }

    /// The body's memory-op pattern ids in program order; group `g` of
    /// any warp belongs to pattern `mem_pids[g % mem_pids.len()]`.
    fn mem_pattern_ids(&self) -> Vec<PatternId> {
        self.body
            .iter()
            .filter_map(|op| match op {
                Op::Load(p) | Op::Store(p) => Some(*p),
                _ => None,
            })
            .collect()
    }

    /// FNV-1a fingerprint of the encoded payload — the trace's content
    /// hash, carried in the header and in sweep-cache keys.
    pub fn fingerprint(&self) -> u64 {
        wire::fnv1a(&self.encode_payload())
    }

    /// Checks every structural invariant replay relies on.
    ///
    /// # Errors
    ///
    /// [`TraceFmtError::Invalid`] describing the first violation: an
    /// invalid reconstructed kernel, a warp-count or group-count
    /// mismatch against the geometry, an empty group, an attempt whose
    /// address count disagrees with its pattern's `transactions`, or a
    /// relative address at or beyond `REL_ADDR_LIMIT` (2^44).
    pub fn validate(&self) -> Result<(), TraceFmtError> {
        let kernel = self.kernel_desc();
        kernel.validate().map_err(TraceFmtError::Invalid)?;
        let total_warps = kernel.total_warps();
        if self.warps.len() as u64 != total_warps {
            return Err(TraceFmtError::Invalid(format!(
                "trace {} carries {} warp streams but the geometry has {} warps",
                self.meta.name,
                self.warps.len(),
                total_warps
            )));
        }
        let mem_pids = self.mem_pattern_ids();
        let groups_per_warp = self.meta.iters_per_warp as usize * mem_pids.len();
        for (w, stream) in self.warps.iter().enumerate() {
            if stream.groups.len() != groups_per_warp {
                return Err(TraceFmtError::Invalid(format!(
                    "warp {w}: {} access groups recorded, geometry implies {groups_per_warp}",
                    stream.groups.len()
                )));
            }
            for (g, group) in stream.groups.iter().enumerate() {
                if group.attempts.is_empty() {
                    return Err(TraceFmtError::Invalid(format!(
                        "warp {w} group {g}: no attempts"
                    )));
                }
                let pid = mem_pids[g % mem_pids.len()];
                let want = usize::from(self.patterns[usize::from(pid.0)].transactions);
                for (a, attempt) in group.attempts.iter().enumerate() {
                    if attempt.len() != want {
                        return Err(TraceFmtError::Invalid(format!(
                            "warp {w} group {g} attempt {a}: {} addresses, \
                             pattern {} issues {want} transactions",
                            attempt.len(),
                            pid.0
                        )));
                    }
                    if let Some(&bad) = attempt.iter().find(|&&r| r >= REL_ADDR_LIMIT) {
                        return Err(TraceFmtError::Invalid(format!(
                            "warp {w} group {g} attempt {a}: relative address {bad:#x} \
                             exceeds the app-slot span"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Serves the addresses of one replay attempt, re-based onto
    /// `app_base`, into `out` (which is cleared first).
    ///
    /// `attempt` indexes the recorded attempts of the group and clamps
    /// to the last one: a replay context that back-pressures a warp more
    /// often than the recording did keeps re-reading the final
    /// (successful) attempt, which keeps cross-context replay
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `warp`/`group` fall outside the validated stream — the
    /// simulator's issue path cannot produce such indices for a trace
    /// that passed [`KernelTrace::validate`], so a miss is a simulator
    /// bug, not a data condition.
    pub fn fill_addrs(&self, warp: u64, group: u32, attempt: u32, app_base: u64, out: &mut Vec<u64>) {
        out.clear();
        let stream = &self.warps[warp as usize];
        let g = &stream.groups[group as usize];
        let a = (attempt as usize).min(g.attempts.len() - 1);
        out.extend(g.attempts[a].iter().map(|&rel| app_base + rel));
    }

    /// Total recorded accesses (groups) across all warps.
    pub fn total_accesses(&self) -> u64 {
        self.warps.iter().map(|w| w.groups.len() as u64).sum()
    }

    /// Total recorded attempts across all warps (≥ accesses; the excess
    /// counts back-pressure retries).
    pub fn total_attempts(&self) -> u64 {
        self.warps
            .iter()
            .flat_map(|w| w.groups.iter())
            .map(|g| g.attempts.len() as u64)
            .sum()
    }

    // ------------------------------------------------------------------
    // Binary wire format
    // ------------------------------------------------------------------

    /// Encodes the trace: 16-byte header (magic, version, payload
    /// fingerprint), then the payload.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(16 + payload.len());
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&wire::fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        // Metadata.
        let name = self.meta.name.as_bytes();
        p.extend_from_slice(&(name.len() as u16).to_le_bytes());
        p.extend_from_slice(name);
        for v in [
            self.meta.num_sms,
            self.meta.line_bytes,
            self.meta.max_warps_per_sm,
            self.meta.max_blocks_per_sm,
            self.meta.grid_blocks,
            self.meta.warps_per_block,
            self.meta.iters_per_warp,
        ] {
            p.extend_from_slice(&v.to_le_bytes());
        }
        p.push(self.meta.active_lanes);
        // Body.
        p.extend_from_slice(&(self.body.len() as u16).to_le_bytes());
        for op in &self.body {
            let (tag, operand) = match *op {
                Op::Alu { latency } => (0u8, latency),
                Op::Sfu { latency } => (1, latency),
                Op::Load(PatternId(pid)) => (2, pid),
                Op::Store(PatternId(pid)) => (3, pid),
                Op::Barrier => (4, 0),
            };
            p.push(tag);
            p.push(operand);
        }
        // Patterns.
        p.push(self.patterns.len() as u8);
        for pat in &self.patterns {
            match pat.kind {
                PatternKind::Streaming => p.push(0),
                PatternKind::Strided { stride } => {
                    p.push(1);
                    p.extend_from_slice(&stride.to_le_bytes());
                }
                PatternKind::Random => p.push(2),
                PatternKind::Tiled { tile_bytes } => {
                    p.push(3);
                    p.extend_from_slice(&tile_bytes.to_le_bytes());
                }
            }
            p.extend_from_slice(&pat.working_set.to_le_bytes());
            p.push(pat.transactions);
        }
        // Warp streams.
        p.extend_from_slice(&(self.warps.len() as u32).to_le_bytes());
        for warp in &self.warps {
            p.extend_from_slice(&(warp.groups.len() as u32).to_le_bytes());
            for group in &warp.groups {
                p.extend_from_slice(&(group.attempts.len() as u16).to_le_bytes());
                for attempt in &group.attempts {
                    p.extend_from_slice(&(attempt.len() as u16).to_le_bytes());
                    for &addr in attempt {
                        p.extend_from_slice(&addr.to_le_bytes());
                    }
                }
            }
        }
        p
    }

    /// Decodes and validates an encoded trace.
    ///
    /// Never panics on malformed input: every structural problem comes
    /// back as a typed [`TraceFmtError`].
    ///
    /// # Errors
    ///
    /// [`TraceFmtError::BadMagic`] / [`TraceFmtError::UnsupportedVersion`]
    /// for a foreign or newer header, [`TraceFmtError::Truncated`] when
    /// the stream ends early, [`TraceFmtError::Corrupt`] on fingerprint
    /// mismatch, unknown tags or trailing bytes, and
    /// [`TraceFmtError::Invalid`] when the decoded trace fails
    /// [`KernelTrace::validate`].
    pub fn decode(bytes: &[u8]) -> Result<KernelTrace, TraceFmtError> {
        wire::check_header(bytes, TRACE_MAGIC, TRACE_VERSION)?;
        let mut c = Cursor { bytes, pos: 8 };
        let fingerprint = c.u64()?;
        wire::check_checksum(fingerprint, &bytes[c.pos..])?;

        let name_len = usize::from(c.u16()?);
        let name = String::from_utf8(c.take(name_len)?.to_vec())
            .map_err(|_| TraceFmtError::Corrupt("kernel name is not UTF-8".into()))?;
        let num_sms = c.u32()?;
        let line_bytes = c.u32()?;
        let max_warps_per_sm = c.u32()?;
        let max_blocks_per_sm = c.u32()?;
        let grid_blocks = c.u32()?;
        let warps_per_block = c.u32()?;
        let iters_per_warp = c.u32()?;
        let active_lanes = c.u8()?;

        let body_len = usize::from(c.u16()?);
        let mut body = Vec::with_capacity(body_len.min(1024));
        for _ in 0..body_len {
            let tag = c.u8()?;
            let operand = c.u8()?;
            body.push(match tag {
                0 => Op::Alu { latency: operand },
                1 => Op::Sfu { latency: operand },
                2 => Op::Load(PatternId(operand)),
                3 => Op::Store(PatternId(operand)),
                4 => Op::Barrier,
                t => return Err(TraceFmtError::Corrupt(format!("unknown op tag {t}"))),
            });
        }

        let n_patterns = usize::from(c.u8()?);
        let mut patterns = Vec::with_capacity(n_patterns.min(256));
        for _ in 0..n_patterns {
            let kind = match c.u8()? {
                0 => PatternKind::Streaming,
                1 => PatternKind::Strided { stride: c.u64()? },
                2 => PatternKind::Random,
                3 => PatternKind::Tiled { tile_bytes: c.u64()? },
                t => return Err(TraceFmtError::Corrupt(format!("unknown pattern tag {t}"))),
            };
            let working_set = c.u64()?;
            let transactions = c.u8()?;
            patterns.push(AccessPattern {
                kind,
                working_set,
                transactions,
            });
        }

        let n_warps = c.u32()? as usize;
        let mut warps = Vec::new();
        for _ in 0..n_warps {
            let n_groups = c.u32()? as usize;
            let mut groups = Vec::new();
            for _ in 0..n_groups {
                let n_attempts = usize::from(c.u16()?);
                let mut attempts = Vec::new();
                for _ in 0..n_attempts {
                    let n_addrs = usize::from(c.u16()?);
                    let mut addrs = Vec::with_capacity(n_addrs);
                    for _ in 0..n_addrs {
                        addrs.push(c.u64()?);
                    }
                    attempts.push(addrs);
                }
                groups.push(AccessGroup { attempts });
            }
            warps.push(WarpStream { groups });
        }
        if c.pos != bytes.len() {
            return Err(TraceFmtError::Corrupt(format!(
                "{} trailing byte(s) after the warp streams",
                bytes.len() - c.pos
            )));
        }

        let trace = KernelTrace {
            meta: TraceMeta {
                name,
                num_sms,
                line_bytes,
                max_warps_per_sm,
                max_blocks_per_sm,
                grid_blocks,
                warps_per_block,
                iters_per_warp,
                active_lanes,
            },
            body,
            patterns,
            warps,
        };
        trace.validate()?;
        Ok(trace)
    }

    // ------------------------------------------------------------------
    // JSON debug view
    // ------------------------------------------------------------------

    /// Renders the full trace as human-readable JSON (a debug view; the
    /// binary format is the interchange format). Warp streams nest as
    /// `warps[warp][group][attempt][address]`.
    pub fn to_json(&self) -> String {
        let m = &self.meta;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"format\": \"GCST\",\n  \"version\": {TRACE_VERSION},\n  \"fingerprint\": \"{:016x}\",\n  \"meta\": {{\n    \"name\": \"",
            self.fingerprint()
        );
        wire::push_str_escaped(&mut s, &m.name);
        let _ = write!(
            s,
            "\",\n    \"num_sms\": {},\n    \"line_bytes\": {},\n    \"max_warps_per_sm\": {},\n    \"max_blocks_per_sm\": {},\n    \"grid_blocks\": {},\n    \"warps_per_block\": {},\n    \"iters_per_warp\": {},\n    \"active_lanes\": {}\n  }},\n  \"body\": [",
            m.num_sms,
            m.line_bytes,
            m.max_warps_per_sm,
            m.max_blocks_per_sm,
            m.grid_blocks,
            m.warps_per_block,
            m.iters_per_warp,
            m.active_lanes
        );
        for (i, op) in self.body.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = match *op {
                Op::Alu { latency } => write!(s, "{{\"op\":\"alu\",\"latency\":{latency}}}"),
                Op::Sfu { latency } => write!(s, "{{\"op\":\"sfu\",\"latency\":{latency}}}"),
                Op::Load(PatternId(p)) => write!(s, "{{\"op\":\"load\",\"pattern\":{p}}}"),
                Op::Store(PatternId(p)) => write!(s, "{{\"op\":\"store\",\"pattern\":{p}}}"),
                Op::Barrier => write!(s, "{{\"op\":\"barrier\"}}"),
            };
        }
        s.push_str("],\n  \"patterns\": [");
        for (i, pat) in self.patterns.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = match pat.kind {
                PatternKind::Streaming => write!(s, "{{\"kind\":\"streaming\""),
                PatternKind::Strided { stride } => {
                    write!(s, "{{\"kind\":\"strided\",\"stride\":{stride}")
                }
                PatternKind::Random => write!(s, "{{\"kind\":\"random\""),
                PatternKind::Tiled { tile_bytes } => {
                    write!(s, "{{\"kind\":\"tiled\",\"tile_bytes\":{tile_bytes}")
                }
            };
            let _ = write!(
                s,
                ",\"working_set\":{},\"transactions\":{}}}",
                pat.working_set, pat.transactions
            );
        }
        let _ = write!(
            s,
            "],\n  \"summary\": {{\"warps\": {}, \"accesses\": {}, \"attempts\": {}}},\n",
            self.warps.len(),
            self.total_accesses(),
            self.total_attempts()
        );
        s.push_str("  \"warps\": [\n");
        for (w, warp) in self.warps.iter().enumerate() {
            s.push_str("    [");
            for (g, group) in warp.groups.iter().enumerate() {
                if g > 0 {
                    s.push(',');
                }
                s.push('[');
                for (a, attempt) in group.attempts.iter().enumerate() {
                    if a > 0 {
                        s.push(',');
                    }
                    s.push('[');
                    for (i, addr) in attempt.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        let _ = write!(s, "{addr}");
                    }
                    s.push(']');
                }
                s.push(']');
            }
            s.push(']');
            if w + 1 < self.warps.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceFmtError> {
        if self.bytes.len() - self.pos < n {
            return Err(TraceFmtError::Truncated {
                at: self.pos,
                want: n - (self.bytes.len() - self.pos),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, TraceFmtError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, TraceFmtError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, TraceFmtError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, TraceFmtError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

// ----------------------------------------------------------------------
// Recorder
// ----------------------------------------------------------------------

/// Captures a kernel's issue-path address stream into a
/// [`KernelTrace`].
///
/// The SM issue path drives it with one [`TraceRecorder::record_attempt`]
/// per address-generation attempt (including attempts the memory system
/// back-pressures) and one [`TraceRecorder::commit`] when the access
/// actually issues, which closes the group.
#[derive(Debug)]
pub struct TraceRecorder {
    meta: TraceMeta,
    body: Vec<Op>,
    patterns: Vec<AccessPattern>,
    app_base: u64,
    warps: Vec<RecordedWarp>,
}

#[derive(Debug, Default)]
struct RecordedWarp {
    groups: Vec<AccessGroup>,
    open: Option<AccessGroup>,
}

impl TraceRecorder {
    /// A recorder for `kernel` running from `app_base` on a `cfg`
    /// device.
    pub fn new(kernel: &KernelDesc, cfg: &GpuConfig, app_base: u64) -> TraceRecorder {
        let total = kernel.total_warps() as usize;
        TraceRecorder {
            meta: TraceMeta {
                name: kernel.name.clone(),
                num_sms: cfg.num_sms,
                line_bytes: cfg.l1.line_bytes,
                max_warps_per_sm: cfg.max_warps_per_sm,
                max_blocks_per_sm: cfg.max_blocks_per_sm,
                grid_blocks: kernel.grid_blocks,
                warps_per_block: kernel.warps_per_block,
                iters_per_warp: kernel.iters_per_warp,
                active_lanes: kernel.active_lanes,
            },
            body: kernel.body.clone(),
            patterns: kernel.patterns.clone(),
            app_base,
            warps: (0..total).map(|_| RecordedWarp::default()).collect(),
        }
    }

    /// Records one address-generation attempt of `warp` (absolute
    /// addresses, relativized against the app base here).
    pub fn record_attempt(&mut self, warp: u64, addrs: &[u64]) {
        let w = &mut self.warps[warp as usize];
        let group = w.open.get_or_insert_with(AccessGroup::default);
        group.attempts.push(
            addrs
                .iter()
                .map(|&a| {
                    debug_assert!(
                        a >= self.app_base && a - self.app_base < REL_ADDR_LIMIT,
                        "recorded address {a:#x} outside app slot at base {:#x}",
                        self.app_base
                    );
                    a.wrapping_sub(self.app_base)
                })
                .collect(),
        );
    }

    /// Marks the open attempt group of `warp` as issued.
    pub fn commit(&mut self, warp: u64) {
        let w = &mut self.warps[warp as usize];
        debug_assert!(w.open.is_some(), "commit without a recorded attempt");
        if let Some(group) = w.open.take() {
            w.groups.push(group);
        }
    }

    /// Finalizes the recording. Attempt groups still open (a run cut
    /// short mid-access) are dropped: only a kernel run to completion
    /// yields a trace that passes [`KernelTrace::validate`].
    pub fn finish(self) -> KernelTrace {
        KernelTrace {
            meta: self.meta,
            body: self.body,
            patterns: self.patterns,
            warps: self
                .warps
                .into_iter()
                .map(|w| WarpStream { groups: w.groups })
                .collect(),
        }
    }
}

/// Per-application trace mode threaded through the SM issue path.
#[derive(Debug)]
pub enum TraceHook<'a> {
    /// Normal synthetic execution.
    None,
    /// Record every address-generation attempt.
    Record(&'a mut TraceRecorder),
    /// Serve addresses from a recorded trace instead of generating.
    Replay(&'a KernelTrace),
}

// ----------------------------------------------------------------------
// Builder (hand-authored traces)
// ----------------------------------------------------------------------

/// Builds a [`KernelTrace`] by hand — for workloads the parametric
/// pattern generators cannot express (phase changes, mixed-reuse tensor
/// pipelines). Authored groups carry a single attempt; replay's attempt
/// clamping serves it for back-pressure retries too.
///
/// ```
/// use gcs_sim::config::GpuConfig;
/// use gcs_sim::kernel::{AccessPattern, Op, PatternId};
/// use gcs_sim::trace_fmt::TraceBuilder;
///
/// let cfg = GpuConfig::test_small();
/// let mut b = TraceBuilder::new("tiny", &cfg)
///     .geometry(1, 1, 2, 32)
///     .body(vec![Op::Load(PatternId(0)), Op::Alu { latency: 4 }])
///     .patterns(vec![AccessPattern::streaming(1 << 20)]);
/// for i in 0..2u64 {
///     b = b.push_access(0, vec![i * 128]);
/// }
/// let trace = b.build().expect("valid trace");
/// assert_eq!(trace.total_accesses(), 2);
/// ```
#[derive(Debug)]
pub struct TraceBuilder {
    meta: TraceMeta,
    body: Vec<Op>,
    patterns: Vec<AccessPattern>,
    warps: Vec<WarpStream>,
}

impl TraceBuilder {
    /// A builder stamped with `cfg`'s device fields; set the geometry
    /// with [`TraceBuilder::geometry`] before pushing accesses.
    pub fn new(name: &str, cfg: &GpuConfig) -> TraceBuilder {
        TraceBuilder {
            meta: TraceMeta {
                name: name.to_string(),
                num_sms: cfg.num_sms,
                line_bytes: cfg.l1.line_bytes,
                max_warps_per_sm: cfg.max_warps_per_sm,
                max_blocks_per_sm: cfg.max_blocks_per_sm,
                grid_blocks: 0,
                warps_per_block: 0,
                iters_per_warp: 0,
                active_lanes: 32,
            },
            body: Vec::new(),
            patterns: Vec::new(),
            warps: Vec::new(),
        }
    }

    /// Sets the grid geometry and sizes the warp streams.
    pub fn geometry(
        mut self,
        grid_blocks: u32,
        warps_per_block: u32,
        iters_per_warp: u32,
        active_lanes: u8,
    ) -> TraceBuilder {
        self.meta.grid_blocks = grid_blocks;
        self.meta.warps_per_block = warps_per_block;
        self.meta.iters_per_warp = iters_per_warp;
        self.meta.active_lanes = active_lanes;
        let total = u64::from(grid_blocks) * u64::from(warps_per_block);
        self.warps = (0..total).map(|_| WarpStream::default()).collect();
        self
    }

    /// Sets the loop body.
    pub fn body(mut self, ops: Vec<Op>) -> TraceBuilder {
        self.body = ops;
        self
    }

    /// Sets the declared access patterns (transaction counts must match
    /// the pushed accesses).
    pub fn patterns(mut self, patterns: Vec<AccessPattern>) -> TraceBuilder {
        self.patterns = patterns;
        self
    }

    /// Appends one single-attempt access group to `warp`'s stream with
    /// the given *relative* addresses. Groups must be pushed in program
    /// order: iteration-major, then the body's memory ops in order.
    ///
    /// # Panics
    ///
    /// Panics if `warp` is outside the geometry set via
    /// [`TraceBuilder::geometry`].
    pub fn push_access(mut self, warp: u64, rel_addrs: Vec<u64>) -> TraceBuilder {
        self.warps[warp as usize].groups.push(AccessGroup {
            attempts: vec![rel_addrs],
        });
        self
    }

    /// Finalizes and validates the trace.
    ///
    /// # Errors
    ///
    /// Whatever [`KernelTrace::validate`] reports.
    pub fn build(self) -> Result<KernelTrace, TraceFmtError> {
        let trace = KernelTrace {
            meta: self.meta,
            body: self.body,
            patterns: self.patterns,
            warps: self.warps,
        };
        trace.validate()?;
        Ok(trace)
    }
}
