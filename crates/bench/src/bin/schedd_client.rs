//! schedd_client — drives a daemon session and proves it equals batch
//! (DESIGN.md §13).
//!
//! Generates a seeded Poisson arrival trace, submits it to a scheduler
//! daemon one request at a time, drains, and writes the final
//! `SchedReport` JSON. With `--batch-out` it also runs the *batch*
//! `OnlineScheduler` over the identical trace and writes that report,
//! so the CI smoke can `cmp` the two files byte-for-byte — the daemon
//! session and the batch run are the same computation.
//!
//! ```text
//! schedd_client --virtual [options]          # in-process daemon, virtual sockets
//! schedd_client --connect ADDR [options]     # a running `schedd` over TCP
//!
//! --jobs N          arrivals in the trace (default 14)
//! --mean-gap F      mean inter-arrival gap in cycles (default 30000)
//! --seed N          trace seed (default 42)
//! --policy NAME     fcfs | greedy | ilp (default ilp)
//! --capacity N      daemon admission bound (default: jobs)
//! --out FILE        write the drained report JSON here
//! --batch-out FILE  also run the batch scheduler, write its JSON here
//! --pace RATE       pace submissions in wall time at RATE cycles/sec
//!                   (open-loop driver; logical results are unchanged)
//! --faults SEED     (virtual only) wrap the client in the seeded
//!                   fault-injection proxy: drop/truncate/flip/delay
//! --transcript FILE write the deterministic fault transcript here
//! ```
//!
//! The in-process daemon honours the same `GCS_SCHED_*` overload knobs
//! as `schedd` (`GCS_SCHED_REPLAN_SHED`, `GCS_SCHED_ILP_SHED`).

use std::time::Duration;

use gcs_bench::{build_pipeline, env_count, header};
use gcs_core::runner::AllocationPolicy;
use gcs_sched::{
    virtual_link, DaemonConfig, DaemonCore, FaultSpec, FaultyTransport, OnlineScheduler,
    OverloadPolicy, PolicyKind, Request, Response, RetryConfig, SchedClient, SchedConfig,
    TcpTransport, Transport, VirtualConnector,
};
use gcs_workloads::{ArrivalTrace, Benchmark, OpenLoopDriver};

fn overload_from_env() -> OverloadPolicy {
    OverloadPolicy {
        replan_pending_limit: env_count("GCS_SCHED_REPLAN_SHED"),
        ilp_pending_limit: env_count("GCS_SCHED_ILP_SHED"),
    }
}

/// Submits every arrival exactly once (as the batch loop does — a
/// client retry would add rejection rows batch mode doesn't have),
/// then drains and returns the final report JSON.
fn drive_session<T: Transport>(
    client: &mut SchedClient<T>,
    trace: &ArrivalTrace,
    pace: Option<f64>,
) -> String {
    let submit = |client: &mut SchedClient<T>, i: usize, bench: Benchmark, at: u64| {
        let resp = client
            .request(&Request::Submit {
                id: i as u64,
                bench,
                at,
            })
            .expect("submit");
        match resp {
            Response::Submitted { .. } | Response::Rejected { .. } => {}
            other => panic!("unexpected submit response: {other:?}"),
        }
    };
    match pace {
        Some(rate) => {
            let mut worst = Duration::ZERO;
            for (i, (a, late)) in OpenLoopDriver::new(trace, rate).enumerate() {
                worst = worst.max(late);
                submit(client, i, a.bench, a.time);
            }
            println!("[pace] open-loop at {rate} cycles/sec; worst lateness {worst:?}");
        }
        None => {
            for (i, a) in trace.arrivals().iter().enumerate() {
                submit(client, i, a.bench, a.time);
            }
        }
    }
    client.drain().expect("drain")
}

/// Receive deadline of the fault session: a guard against a hung
/// daemon, never a way to detect a dropped frame (a live daemon on a
/// busy host is merely late).
const HANG_GUARD: Duration = Duration::from_secs(60);

/// The deterministic fault scenario (same client policy the daemon
/// integration test pins): strict send/recv alternation, abandon the
/// connection after any error response or transport failure, per-
/// connection seeds, clean unfaulted drain at the end. A dropped frame
/// is recognised from the proxy's own transcript, so control flow never
/// depends on how fast a reply arrives. Returns the concatenated
/// transcript and the final report JSON.
fn fault_session(
    connector: &VirtualConnector,
    trace: &ArrivalTrace,
    fault_seed: u64,
) -> (Vec<String>, String) {
    let fresh = |conn_idx: u64| {
        let mut sock = connector.connect().expect("connect");
        sock.recv_deadline = Some(HANG_GUARD);
        FaultyTransport::new(sock, fault_seed + conn_idx, FaultSpec::SMOKE)
    };
    let collect = |t: &mut Vec<String>,
                   idx: u64,
                   f: FaultyTransport<gcs_sched::VirtualSocket>| {
        t.extend(
            f.into_transcript()
                .into_iter()
                .map(|l| format!("conn {idx}: {l}")),
        );
    };
    let mut transcript: Vec<String> = Vec::new();
    let mut conn_idx = 0u64;
    let mut faulty = fresh(conn_idx);
    let arrivals = trace.arrivals();
    let mut i = 0usize;
    while i < arrivals.len() {
        let req = Request::Submit {
            id: i as u64,
            bench: arrivals[i].bench,
            at: arrivals[i].time,
        };
        let sent = faulty.send_frame(&req.encode()).is_ok();
        let mut dead = !sent;
        let dropped = faulty
            .transcript()
            .last()
            .is_some_and(|l| l.contains(": drop "));
        if sent && dropped {
            i += 1; // the daemon never saw it and will not answer: job lost
        } else if sent {
            match faulty.recv_frame() {
                Ok(frame) => match Response::decode(&frame) {
                    Ok(Response::Error { .. }) | Err(_) => dead = true,
                    Ok(_) => i += 1,
                },
                // Nothing within the hang guard (a header-length flip
                // can leave the daemon waiting for bytes): start over
                // on a fresh connection.
                Err(_) => dead = true,
            }
        }
        if dead {
            let old = std::mem::replace(&mut faulty, fresh(conn_idx + 1));
            collect(&mut transcript, conn_idx, old);
            conn_idx += 1;
            assert!(conn_idx < 256, "reconnect storm");
        }
    }
    collect(&mut transcript, conn_idx, faulty);

    let mut clean = SchedClient::new(
        connector.connect().expect("connect"),
        RetryConfig::default(),
    );
    let json = clean.drain().expect("drain after fault storm");
    (transcript, json)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut virt = false;
    let mut connect: Option<String> = None;
    let mut jobs = 14usize;
    let mut mean_gap = 30_000.0f64;
    let mut seed = 42u64;
    let mut policy_name = "ilp".to_string();
    let mut capacity: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut batch_out: Option<String> = None;
    let mut pace: Option<f64> = None;
    let mut faults: Option<u64> = None;
    let mut transcript_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    let missing = |flag: &str| -> ! {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    };
    while let Some(a) = args.next() {
        let mut val = |flag: &str| args.next().unwrap_or_else(|| missing(flag));
        match a.as_str() {
            "--virtual" => virt = true,
            "--connect" => connect = Some(val("--connect")),
            "--jobs" => jobs = val("--jobs").parse().expect("--jobs"),
            "--mean-gap" => mean_gap = val("--mean-gap").parse().expect("--mean-gap"),
            "--seed" => seed = val("--seed").parse().expect("--seed"),
            "--policy" => policy_name = val("--policy"),
            "--capacity" => capacity = Some(val("--capacity").parse().expect("--capacity")),
            "--out" => out = Some(val("--out")),
            "--batch-out" => batch_out = Some(val("--batch-out")),
            "--pace" => pace = Some(val("--pace").parse().expect("--pace")),
            "--faults" => faults = Some(val("--faults").parse().expect("--faults")),
            "--transcript" => transcript_out = Some(val("--transcript")),
            other => {
                eprintln!("unknown argument {other:?} (see the module docs for usage)");
                std::process::exit(2);
            }
        }
    }
    if virt == connect.is_some() {
        eprintln!("exactly one of --virtual / --connect ADDR is required");
        std::process::exit(2);
    }
    if faults.is_some() && !virt {
        eprintln!("--faults requires --virtual (deterministic in-process sockets)");
        std::process::exit(2);
    }
    let Some(kind) = PolicyKind::from_name(&policy_name) else {
        eprintln!("--policy {policy_name:?} is not fcfs|greedy|ilp");
        std::process::exit(2);
    };

    let trace = ArrivalTrace::poisson(&Benchmark::ALL, jobs, mean_gap, seed);
    let cfg = SchedConfig {
        num_gpus: 1,
        queue_capacity: capacity.unwrap_or(jobs),
        alloc: AllocationPolicy::Smra,
        replan_interval: None,
    };

    header("schedd_client: daemon session");
    println!(
        "{} jobs, mean gap {mean_gap:.0} cycles, seed {seed}, policy {}, capacity {}",
        trace.len(),
        kind.name(),
        cfg.queue_capacity,
    );

    if let Some(path) = &batch_out {
        let mut pipeline = build_pipeline(2);
        let mut policy = kind.build();
        let report = OnlineScheduler::new(&mut pipeline, cfg)
            .expect("batch config")
            .run(&trace, policy.as_mut())
            .expect("batch run");
        std::fs::write(path, report.to_json()).expect("write --batch-out");
        println!("[batch] reference report written to {path}");
    }

    let json = if virt {
        let (connector, listener) = virtual_link(None);
        let daemon_cfg = DaemonConfig {
            sched: cfg,
            overload: overload_from_env(),
        };
        let daemon = std::thread::spawn(move || {
            let mut pipeline = build_pipeline(2);
            let mut d =
                DaemonCore::new(&mut pipeline, kind.build(), daemon_cfg).expect("daemon config");
            let mut listener = listener;
            d.serve(&mut listener).expect("serve");
            let stats = d.decision_stats();
            println!(
                "[daemon] drained; {} planning decisions, p50 {} ns, p99 {} ns",
                stats.count, stats.p50_ns, stats.p99_ns
            );
        });
        let json = if let Some(fault_seed) = faults {
            let (transcript, json) = fault_session(&connector, &trace, fault_seed);
            println!("[faults] {} transcript line(s)", transcript.len());
            if let Some(path) = &transcript_out {
                std::fs::write(path, transcript.join("\n") + "\n").expect("write --transcript");
                println!("[faults] transcript written to {path}");
            }
            json
        } else {
            let mut client = SchedClient::new(
                connector.connect().expect("connect"),
                RetryConfig {
                    seed,
                    ..RetryConfig::default()
                },
            );
            drive_session(&mut client, &trace, pace)
        };
        drop(connector);
        daemon.join().expect("daemon thread");
        json
    } else {
        let addr = connect.expect("checked above");
        let stream = std::net::TcpStream::connect(&addr).expect("connect");
        let conn =
            TcpTransport::new(stream, Some(Duration::from_secs(60)), None).expect("transport");
        let mut client = SchedClient::new(
            conn,
            RetryConfig {
                seed,
                ..RetryConfig::default()
            },
        );
        drive_session(&mut client, &trace, pace)
    };

    match &out {
        Some(path) => {
            std::fs::write(path, &json).expect("write --out");
            println!("report written to {path}");
        }
        None => println!("{json}"),
    }
}
