//! The report encoders against a reference renderer.
//!
//! `SchedReport::to_json` and `FleetReport::to_json` write their rows
//! through `gcs_sim::wire`'s integer and float writers. The reference
//! below renders the same documents with nothing but `write!` /
//! `format!` and a plain escaper, and every seeded random report must
//! come out byte for byte the same. The reports are built to reach every
//! branch of the writers: integers of every decimal width (0 and
//! `u64::MAX` included), integral and fractional floats, placed groups
//! with budgets next to unplaced ones without, and failure diagnostics,
//! names and degradation reasons that need escaping.

use std::fmt::Write as _;

use gcs_core::Degradation;
use gcs_fleet::{FleetDevice, FleetGroup, FleetJob, FleetReport};
use gcs_sched::{GroupDispatch, JobFailure, JobOutcome, LatencyStats, Rejection, SchedReport};
use gcs_sim::rng::SimRng;
use gcs_workloads::Benchmark;

/// Reports per encoder.
const REPORTS: u64 = 256;

/// An integer of a random decimal width from 1 to 20 digits, or one of
/// the extremes, at most `max`.
fn int(rng: &mut SimRng, max: u64) -> u64 {
    let v = match rng.gen_range(8) {
        0 => 0,
        1 => u64::MAX,
        _ => {
            let width = 1 + rng.gen_range(20) as u32;
            let low = 10u64.pow(width - 1);
            let high = 10u64.checked_pow(width).map_or(u64::MAX, |h| h - 1);
            let low = if width == 1 { 0 } else { low };
            low + rng.next_u64() % (high - low + 1).max(1)
        }
    };
    v.min(max)
}

fn int32(rng: &mut SimRng) -> u32 {
    int(rng, u64::from(u32::MAX)) as u32
}

/// A float that is integral about half the time.
fn float(rng: &mut SimRng) -> f64 {
    match rng.gen_range(6) {
        0 => 0.0,
        1 => rng.gen_range(10) as f64,
        2 => 1e21 * (1 + rng.gen_range(3)) as f64,
        _ => rng.gen_f64() * 4.0,
    }
}

/// Text with quotes, backslashes, control characters and non-ASCII.
fn text(rng: &mut SimRng) -> String {
    const PIECES: [&str; 10] = [
        "gpu", "\"", "\\", "\n", "\t", "\r", "\u{1}", "\u{1f}", "é", "/ok",
    ];
    (0..rng.gen_range(6))
        .map(|_| PIECES[rng.gen_range(PIECES.len() as u64) as usize])
        .collect()
}

fn bench(rng: &mut SimRng) -> Benchmark {
    Benchmark::ALL[rng.gen_range(Benchmark::ALL.len() as u64) as usize]
}

fn ids(rng: &mut SimRng) -> Vec<usize> {
    (0..1 + rng.gen_range(3))
        .map(|_| int(rng, u64::MAX) as usize)
        .collect()
}

fn rejections(rng: &mut SimRng) -> Vec<Rejection> {
    (0..rng.gen_range(3))
        .map(|_| Rejection {
            job: int(rng, u64::MAX) as usize,
            bench: bench(rng),
            at: int(rng, u64::MAX),
            capacity: int(rng, u64::MAX) as usize,
        })
        .collect()
}

fn degradations(rng: &mut SimRng) -> Vec<Degradation> {
    (0..rng.gen_range(4))
        .map(|_| match rng.gen_range(3) {
            0 => Degradation::IlpGreedyFallback { reason: text(rng) },
            1 => Degradation::CacheQuarantined { file: text(rng) },
            _ => Degradation::OverloadShed {
                from: "ilp",
                to: "greedy",
                pending: int(rng, u64::MAX) as usize,
            },
        })
        .collect()
}

/// Arrival, dispatch and completion in order, so every difference the
/// reports derive is non-negative; otherwise anywhere in `u64`, so the
/// latency means' sums over a report's jobs can pass `u64::MAX`.
fn times(rng: &mut SimRng) -> (u64, u64, u64) {
    let arrival = int(rng, u64::MAX);
    let dispatch = arrival + int(rng, u64::MAX - arrival);
    (arrival, dispatch, dispatch + int(rng, u64::MAX - dispatch))
}

fn sched_report(rng: &mut SimRng) -> SchedReport {
    let jobs = (0..rng.gen_range(6))
        .map(|_| {
            let (arrival, dispatch, completion) = times(rng);
            JobOutcome {
                id: int(rng, u64::MAX) as usize,
                bench: bench(rng),
                arrival,
                dispatch,
                completion,
                gpu: int32(rng),
                alone_cycles: int(rng, u64::MAX),
                corun_cycles: int(rng, u64::MAX),
            }
        })
        .collect();
    let groups = (0..rng.gen_range(4))
        .map(|_| {
            let jobs = ids(rng);
            let budgets = if rng.gen_range(2) == 0 {
                Vec::new()
            } else {
                jobs.iter().map(|_| int32(rng)).collect()
            };
            GroupDispatch {
                gpu: int32(rng),
                start: int(rng, u64::MAX),
                end: int(rng, u64::MAX),
                jobs,
                budgets,
                stp: float(rng),
            }
        })
        .collect();
    let failed = (0..rng.gen_range(3))
        .map(|_| JobFailure {
            id: int(rng, u64::MAX) as usize,
            bench: bench(rng),
            arrival: int(rng, u64::MAX),
            dispatch: int(rng, u64::MAX),
            kind: if rng.gen_range(2) == 0 { "timeout" } else { "deadlock" },
            cycle: int(rng, u64::MAX),
            diag: text(rng),
        })
        .collect();
    SchedReport {
        policy: text(rng),
        num_gpus: int32(rng),
        queue_capacity: int(rng, u64::MAX) as usize,
        jobs,
        rejections: rejections(rng),
        failed,
        groups,
        degradations: degradations(rng),
        makespan: int(rng, u64::MAX),
    }
}

fn fleet_report(rng: &mut SimRng) -> FleetReport {
    let devices = (0..rng.gen_range(4))
        .map(|_| FleetDevice {
            id: text(rng),
            num_sms: int32(rng),
            groups: int(rng, u64::MAX),
            busy_cycles: int(rng, u64::MAX),
        })
        .collect();
    let jobs = (0..rng.gen_range(6))
        .map(|_| {
            let (arrival, dispatch, completion) = times(rng);
            FleetJob {
                id: int(rng, u64::MAX) as usize,
                bench: bench(rng),
                device: int(rng, u64::MAX) as usize,
                arrival,
                dispatch,
                completion,
                budget_sms: int32(rng),
                alone_cycles: int(rng, u64::MAX),
                corun_cycles: int(rng, u64::MAX),
            }
        })
        .collect();
    let groups = (0..rng.gen_range(4))
        .map(|_| FleetGroup {
            device: int(rng, u64::MAX) as usize,
            start: int(rng, u64::MAX),
            end: int(rng, u64::MAX),
            jobs: ids(rng),
            stp: float(rng),
        })
        .collect();
    FleetReport {
        mode: text(rng),
        queue_capacity: int(rng, u64::MAX) as usize,
        devices,
        jobs,
        rejections: rejections(rng),
        groups,
        degradations: degradations(rng),
        churn: int(rng, u64::MAX),
        makespan: int(rng, u64::MAX),
    }
}

// ---- the reference renderer -------------------------------------------

fn esc(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Shortest round-trip form with a decimal point on finite values.
fn real(v: f64) -> String {
    let s = format!("{v}");
    if v.is_finite() && !s.contains('.') {
        format!("{s}.0")
    } else {
        s
    }
}

/// `"[" rows "]"` with the reports' layout: rows on their own lines, an
/// empty list on one.
fn list(rows: &[String], last: bool) -> String {
    let close = if last { "\n" } else { ",\n" };
    if rows.is_empty() {
        format!("[]{close}")
    } else {
        format!("[\n{}\n  ]{close}", rows.join(",\n"))
    }
}

fn latency(samples: &[u64]) -> String {
    let l = LatencyStats::from_samples(samples);
    format!(
        "{{\"p50\":{},\"p95\":{},\"p99\":{},\"mean\":{},\"max\":{}}}",
        l.p50,
        l.p95,
        l.p99,
        real(l.mean),
        l.max
    )
}

fn ref_rejections(rs: &[Rejection]) -> String {
    let rows: Vec<String> = rs
        .iter()
        .map(|r| {
            format!(
                "    {{\"job\":{},\"bench\":\"{}\",\"at\":{},\"capacity\":{}}}",
                r.job, r.bench, r.at, r.capacity
            )
        })
        .collect();
    format!("  \"rejections\": {}", list(&rows, false))
}

fn ref_degradations(ds: &[Degradation]) -> String {
    let rows: Vec<String> = ds
        .iter()
        .map(|d| format!("    \"{}\"", esc(&d.to_string())))
        .collect();
    format!("  \"degradations\": {}", list(&rows, true))
}

fn join(ids: &[impl std::fmt::Display]) -> String {
    ids.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",")
}

fn ref_sched(r: &SchedReport) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"policy\": \"{}\",\n  \"num_gpus\": {},\n  \"queue_capacity\": {},\n  \
         \"makespan\": {},\n  \"stp\": {},\n  \"antt\": {},\n  \"queue_delay\": {},\n  \
         \"turnaround\": {},\n",
        esc(&r.policy),
        r.num_gpus,
        r.queue_capacity,
        r.makespan,
        real(r.stp()),
        real(r.antt()),
        latency(&r.jobs.iter().map(|j| j.dispatch - j.arrival).collect::<Vec<_>>()),
        latency(&r.jobs.iter().map(|j| j.completion - j.arrival).collect::<Vec<_>>()),
    );
    let jobs: Vec<String> = r
        .jobs
        .iter()
        .map(|j| {
            format!(
                "    {{\"id\":{},\"bench\":\"{}\",\"arrival\":{},\"dispatch\":{},\"completion\":{},\
                 \"gpu\":{},\"alone_cycles\":{},\"corun_cycles\":{}}}",
                j.id, j.bench, j.arrival, j.dispatch, j.completion, j.gpu, j.alone_cycles,
                j.corun_cycles
            )
        })
        .collect();
    let _ = write!(s, "  \"jobs\": {}", list(&jobs, false));
    let groups: Vec<String> = r
        .groups
        .iter()
        .map(|g| {
            let budgets = if g.budgets.is_empty() {
                String::new()
            } else {
                format!(",\"budgets\":[{}]", join(&g.budgets))
            };
            format!(
                "    {{\"gpu\":{},\"start\":{},\"end\":{},\"jobs\":[{}]{budgets},\"stp\":{}}}",
                g.gpu,
                g.start,
                g.end,
                join(&g.jobs),
                real(g.stp)
            )
        })
        .collect();
    let _ = write!(s, "  \"groups\": {}", list(&groups, false));
    s.push_str(&ref_rejections(&r.rejections));
    let failed: Vec<String> = r
        .failed
        .iter()
        .map(|x| {
            format!(
                "    {{\"id\":{},\"bench\":\"{}\",\"arrival\":{},\"dispatch\":{},\"kind\":\"{}\",\
                 \"cycle\":{},\"diag\":\"{}\"}}",
                x.id,
                x.bench,
                x.arrival,
                x.dispatch,
                x.kind,
                x.cycle,
                esc(&x.diag)
            )
        })
        .collect();
    let _ = write!(s, "  \"failed\": {}", list(&failed, false));
    s.push_str(&ref_degradations(&r.degradations));
    s.push_str("}\n");
    s
}

fn ref_fleet(r: &FleetReport) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"mode\": \"{}\",\n  \"queue_capacity\": {},\n  \"makespan\": {},\n  \
         \"stp\": {},\n  \"antt\": {},\n  \"churn\": {},\n",
        esc(&r.mode),
        r.queue_capacity,
        r.makespan,
        real(r.stp()),
        real(r.antt()),
        r.churn,
    );
    let devices: Vec<String> = r
        .devices
        .iter()
        .enumerate()
        .map(|(i, d)| {
            format!(
                "    {{\"id\":\"{}\",\"num_sms\":{},\"groups\":{},\"busy_cycles\":{},\
                 \"utilization\":{}}}",
                esc(&d.id),
                d.num_sms,
                d.groups,
                d.busy_cycles,
                real(r.utilization(i))
            )
        })
        .collect();
    let _ = write!(s, "  \"devices\": {}", list(&devices, false));
    let jobs: Vec<String> = r
        .jobs
        .iter()
        .map(|j| {
            format!(
                "    {{\"id\":{},\"bench\":\"{}\",\"device\":{},\"arrival\":{},\"dispatch\":{},\
                 \"completion\":{},\"budget_sms\":{},\"alone_cycles\":{},\"corun_cycles\":{}}}",
                j.id,
                j.bench,
                j.device,
                j.arrival,
                j.dispatch,
                j.completion,
                j.budget_sms,
                j.alone_cycles,
                j.corun_cycles
            )
        })
        .collect();
    let _ = write!(s, "  \"jobs\": {}", list(&jobs, false));
    let groups: Vec<String> = r
        .groups
        .iter()
        .map(|g| {
            format!(
                "    {{\"device\":{},\"start\":{},\"end\":{},\"jobs\":[{}],\"stp\":{}}}",
                g.device,
                g.start,
                g.end,
                join(&g.jobs),
                real(g.stp)
            )
        })
        .collect();
    let _ = write!(s, "  \"groups\": {}", list(&groups, false));
    s.push_str(&ref_rejections(&r.rejections));
    s.push_str(&ref_degradations(&r.degradations));
    s.push_str("}\n");
    s
}

// ---- the pins -----------------------------------------------------------

#[test]
fn sched_report_json_matches_the_reference_renderer() {
    let mut rng = SimRng::seed_from_u64(0x5EED_5C4E);
    let mut budgets = [false; 2];
    for i in 0..REPORTS {
        let r = sched_report(&mut rng);
        for g in &r.groups {
            budgets[usize::from(g.budgets.is_empty())] = true;
        }
        assert_eq!(r.to_json(), ref_sched(&r), "report {i}: {r:?}");
    }
    assert_eq!(budgets, [true; 2], "groups with and without budgets");
}

#[test]
fn fleet_report_json_matches_the_reference_renderer() {
    let mut rng = SimRng::seed_from_u64(0x5EED_F1EE);
    for i in 0..REPORTS {
        let r = fleet_report(&mut rng);
        assert_eq!(r.to_json(), ref_fleet(&r), "report {i}: {r:?}");
    }
}

/// The generators reach what the pins claim to cover.
#[test]
fn generators_cover_every_digit_width_and_both_extremes() {
    let mut rng = SimRng::seed_from_u64(7);
    let mut widths = [false; 21];
    let (mut zero, mut max) = (false, false);
    for _ in 0..4_096 {
        let v = int(&mut rng, u64::MAX);
        widths[v.to_string().len()] = true;
        zero |= v == 0;
        max |= v == u64::MAX;
    }
    assert!(widths[1..].iter().all(|&w| w), "{widths:?}");
    assert!(zero && max);
    let escaped = (0..64).any(|_| {
        let t = text(&mut rng);
        t.contains('"') && t.contains('\u{1}')
    });
    assert!(escaped, "text needs escaping");
    assert!((0..64).any(|_| float(&mut rng).fract() == 0.0));
}
