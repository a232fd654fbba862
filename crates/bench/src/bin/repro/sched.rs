//! The online scheduler (DESIGN.md §10) and its daemon (§13):
//! `schedd_sim` compares the epoch policies over seeded arrival traces,
//! `schedd` serves the frame protocol over TCP, and `schedd_client`
//! drives a daemon session and proves it equals batch.

use std::fs;
use std::time::Duration;

use gcs_core::queues::thesis_queue_14;
use gcs_core::runner::AllocationPolicy;
use gcs_fleet::{FleetMeasure, FleetPolicy, FleetSpec};
use gcs_sched::{
    virtual_link, DaemonConfig, DaemonCore, FaultSpec, FaultyTransport, LatencyStats, Measure,
    OnlineScheduler, Policy, PolicyKind, Request, Response, RetryConfig, SchedClient,
    SchedConfig, SchedReport, TcpAcceptor, TcpTransport, Transport, VirtualConnector,
};
use gcs_workloads::{ArrivalTrace, Benchmark, OpenLoopDriver};

use crate::args::Args;
use crate::env::{env_count, overload_from_env, scale_from_env, scale_tag, sched_gpus_from_env};
use crate::harness::{build_pipeline, header, report_profile};

const SEED: u64 = 42;

fn f64_json(v: f64) -> String {
    let mut s = String::new();
    gcs_sim::wire::push_f64(&mut s, v);
    s
}

fn latency_json(l: &LatencyStats) -> String {
    format!(
        "{{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"mean\": {}, \"max\": {}}}",
        l.p50,
        l.p95,
        l.p99,
        f64_json(l.mean),
        l.max
    )
}

/// Online scheduler policy comparison over seeded arrival traces.
///
/// Feeds Poisson arrivals of the thesis mix (the 14-app suite census,
/// repeated for longer queues) through the `gcs_sched` discrete-event
/// loop under all three epoch policies, on one simulated GTX 480, and
/// reports throughput (STP), fairness (ANTT) and queueing-latency
/// percentiles per policy. The offered load is set well above the
/// device's service rate so a real backlog forms — that is the regime
/// where grouping quality matters; at low load every policy degenerates
/// to "run whatever arrived".
///
/// Writes one `SchedReport` JSON per (queue length, policy) plus a
/// summary document with FCFS→ILP deltas:
///
/// ```text
/// results/sched/sched_{scale}_q{len}_{policy}.json
/// results/sched/summary_{scale}.json
/// ```
///
/// The committed results are the SMALL-scale run, while `scripts/ci.sh
/// --sched-smoke` replays a TEST-scale pass (those files are gitignored)
/// and byte-compares it with `tests/golden/sched/`.
pub fn schedd_sim(profile: bool) {
    let scale = scale_from_env();
    let scale_tag = scale_tag(scale);
    let mut pipeline = build_pipeline(2, profile);
    fs::create_dir_all("results/sched").expect("create results/sched");

    // Offered load: one job every mean_alone/4 cycles against a device
    // that serves roughly one job per 0.6 * mean_alone cycles — ~2.4x
    // oversubscribed, so the admission queue holds a meaningful census
    // at every epoch.
    let mean_alone: f64 = Benchmark::ALL
        .iter()
        .map(|&b| pipeline.profile(b).cycles as f64)
        .sum::<f64>()
        / Benchmark::ALL.len() as f64;
    let mean_gap = mean_alone / 4.0;

    header("schedd_sim: online policy comparison, thesis mix");
    println!(
        "scale {scale:?}; seed {SEED}; 1 device; SMRA allocation; mean inter-arrival {:.0} cycles",
        mean_gap
    );

    let mut summary_configs: Vec<String> = Vec::new();
    for repeats in [1usize, 2] {
        let mut queue: Vec<Benchmark> = Vec::new();
        for _ in 0..repeats {
            queue.extend(thesis_queue_14());
        }
        let len = queue.len();
        let trace = ArrivalTrace::poisson_from_queue(&queue, mean_gap, SEED);

        header(&format!("queue length {len} (thesis mix x{repeats})"));
        println!(
            "{:<8} {:>12} {:>8} {:>8} {:>12} {:>12} {:>12}",
            "policy", "makespan", "STP", "ANTT", "p50 delay", "p95 delay", "p99 delay"
        );

        let mut reports: Vec<(PolicyKind, SchedReport)> = Vec::new();
        for kind in PolicyKind::ALL {
            let cfg = SchedConfig {
                num_gpus: 1,
                queue_capacity: len,
                alloc: AllocationPolicy::Smra,
                replan_interval: None,
            };
            let mut policy = kind.build();
            let report = OnlineScheduler::new(&mut pipeline, cfg)
                .expect("config")
                .run(&trace, policy.as_mut())
                .expect("scheduler run");
            let delay = report.queue_delay_stats();
            println!(
                "{:<8} {:>12} {:>8.3} {:>8.3} {:>12} {:>12} {:>12}",
                report.policy,
                report.makespan,
                report.stp(),
                report.antt(),
                delay.p50,
                delay.p95,
                delay.p99
            );
            let path = format!("results/sched/sched_{scale_tag}_q{len}_{}.json", kind.name());
            fs::write(&path, report.to_json()).expect("write report");
            reports.push((kind, report));
        }

        let fcfs = &reports[0].1;
        let ilp = &reports[2].1;
        let (fd, id) = (fcfs.queue_delay_stats(), ilp.queue_delay_stats());
        println!(
            "ilp vs fcfs: STP {:+.3}, p50 {:+}, p95 {:+}, p99 {:+} cycles",
            ilp.stp() - fcfs.stp(),
            id.p50 as i64 - fd.p50 as i64,
            id.p95 as i64 - fd.p95 as i64,
            id.p99 as i64 - fd.p99 as i64,
        );

        let policy_entries: Vec<String> = reports
            .iter()
            .map(|(kind, r)| {
                format!(
                    "      \"{}\": {{\"stp\": {}, \"antt\": {}, \"makespan\": {}, \"queue_delay\": {}}}",
                    kind.name(),
                    f64_json(r.stp()),
                    f64_json(r.antt()),
                    r.makespan,
                    latency_json(&r.queue_delay_stats()),
                )
            })
            .collect();
        summary_configs.push(format!(
            "    {{\n      \"queue_len\": {len},\n{},\n      \"ilp_vs_fcfs\": {{\"stp_delta\": {}, \"p50_delay_delta\": {}, \"p95_delay_delta\": {}, \"p99_delay_delta\": {}}}\n    }}",
            policy_entries.join(",\n"),
            f64_json(ilp.stp() - fcfs.stp()),
            id.p50 as i64 - fd.p50 as i64,
            id.p95 as i64 - fd.p95 as i64,
            id.p99 as i64 - fd.p99 as i64,
        ));
    }

    let summary = format!(
        "{{\n  \"scale\": \"{scale_tag}\",\n  \"seed\": {SEED},\n  \"device\": \"gtx480 x1, SMRA, concurrency 2\",\n  \"configs\": [\n{}\n  ]\n}}\n",
        summary_configs.join(",\n")
    );
    let summary_path = format!("results/sched/summary_{scale_tag}.json");
    fs::write(&summary_path, summary).expect("write summary");
    println!("\nwrote results/sched/sched_{scale_tag}_q*.json and {summary_path}");

    report_profile(&pipeline.sweep_stats(), profile);
}

/// The scheduler-as-a-service daemon over TCP.
///
/// Binds a TCP listener (`--listen`, default `127.0.0.1:7077`), builds
/// the full measurement pipeline once, and serves the `gcs_sched` frame
/// protocol until a client drains the session (graceful shutdown:
/// in-flight jobs finish, the final `SchedReport` goes to the draining
/// client, then the process exits).
///
/// Environment knobs (defaults in parentheses):
///
/// * `GCS_SCHED_POLICY`    — `fcfs` | `greedy` | `ilp` (`ilp`)
/// * `GCS_SCHED_FLEET`     — path to a `FleetSpec` JSON; serves the
///   heterogeneous fleet policy instead of `GCS_SCHED_POLICY`, its
///   curves profiled for every benchmark before the daemon serves,
///   each group on its own device's config at the budgets it plans (the
///   report's policy name comes out `fleet`, or `ilp` for the
///   degenerate 1-device spec)
/// * `GCS_SCHED_GPUS`      — simulated devices (`1`); with a fleet spec,
///   the spec's device count, which a different value contradicts
///   (exit 2)
/// * `GCS_SCHED_CAPACITY`  — admission queue bound (`16`)
/// * `GCS_SCHED_READ_MS`   — per-connection read deadline in ms, `0`
///   disables (`2000`); the slow-loris defence
/// * `GCS_SCHED_REPLAN_SHED` — overload rung 1: pending count above
///   which cached plans survive admissions (off)
/// * `GCS_SCHED_ILP_SHED`  — overload rung 2: pending count above which
///   planning falls back to the greedy pairing (off)
///
/// Plus the usual pipeline knobs: `GCS_SCALE`, `GCS_THREADS`,
/// `GCS_CACHE`.
pub fn schedd(mut args: Args) {
    let listen = args.value("--listen").unwrap_or_else(|| "127.0.0.1:7077".to_string());
    args.finish();

    let policy_name = std::env::var("GCS_SCHED_POLICY").unwrap_or_else(|_| "ilp".into());
    let Some(kind) = PolicyKind::from_name(&policy_name) else {
        eprintln!("GCS_SCHED_POLICY={policy_name:?} is not fcfs|greedy|ilp");
        std::process::exit(2);
    };
    // GCS_SCHED_FLEET overrides the policy kind with the heterogeneous
    // fleet allocator loaded from a FleetSpec JSON file.
    let fleet = std::env::var("GCS_SCHED_FLEET").ok().map(|path| {
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("GCS_SCHED_FLEET={path:?}: cannot read spec: {e}");
            std::process::exit(2);
        });
        FleetSpec::from_json(&json).unwrap_or_else(|e| {
            eprintln!("GCS_SCHED_FLEET={path:?}: invalid spec: {e}");
            std::process::exit(2);
        })
    });
    let cfg = DaemonConfig {
        sched: SchedConfig {
            num_gpus: sched_gpus_from_env(fleet.as_ref().map(FleetSpec::len)) as u32,
            queue_capacity: env_count("GCS_SCHED_CAPACITY").unwrap_or(16),
            alloc: AllocationPolicy::Smra,
            replan_interval: None,
        },
        overload: overload_from_env(),
    };
    let read_ms = env_count("GCS_SCHED_READ_MS").unwrap_or(2000);
    let read_deadline = (read_ms > 0).then(|| Duration::from_millis(read_ms as u64));

    let listener = match std::net::TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    let addr = listener.local_addr().expect("local addr");

    let mut pipeline = build_pipeline(2, false);
    let mut fleet_measure;
    let (measure, policy): (&mut dyn Measure, Box<dyn Policy>) = match fleet {
        Some(spec) => {
            fleet_measure = FleetMeasure::new(&pipeline, &spec);
            let policy = FleetPolicy::warmed(&pipeline, spec).unwrap_or_else(|e| {
                eprintln!("cannot profile the fleet's curves: {e}");
                std::process::exit(1);
            });
            (&mut fleet_measure, Box::new(policy))
        }
        None => (&mut pipeline, kind.build()),
    };
    let policy_label = policy.name();
    let mut daemon = DaemonCore::new(measure, policy, cfg).expect("daemon configuration");
    let mut acceptor = TcpAcceptor::new(listener, read_deadline, Some(Duration::from_secs(10)));

    header("schedd: scheduler daemon");
    println!(
        "listening on {addr}; policy {}; {} device(s); capacity {}; read deadline {:?}",
        policy_label,
        cfg.sched.num_gpus,
        cfg.sched.queue_capacity,
        read_deadline,
    );

    if let Err(e) = daemon.serve(&mut acceptor) {
        eprintln!("serve failed: {e}");
        std::process::exit(1);
    }

    let stats = daemon.decision_stats();
    println!(
        "drained; {} planning decisions, p50 {} ns, p99 {} ns, max {} ns",
        stats.count, stats.p50_ns, stats.p99_ns, stats.max_ns
    );
}

/// What `schedd_client` takes:
///
/// ```text
/// --virtual         in-process daemon over virtual sockets, or
/// --connect ADDR    a running `schedd` over TCP (exactly one of the two)
/// --jobs N          arrivals in the trace (default 14)
/// --mean-gap F      mean inter-arrival gap in cycles (default 30000)
/// --seed N          trace seed (default 42)
/// --policy NAME     fcfs | greedy | ilp (default ilp)
/// --capacity N      daemon admission bound (default: jobs)
/// --out FILE        write the drained report JSON here
/// --batch-out FILE  also run the batch scheduler, write its JSON here
/// --pace RATE       pace submissions in wall time at RATE cycles/sec
///                   (open-loop driver; logical results are unchanged)
/// --faults SEED     (virtual only) wrap the client in the seeded
///                   fault-injection proxy: drop/truncate/flip/delay
/// --transcript FILE write the deterministic fault transcript here
/// ```
pub const CLIENT_SYNOPSIS: &str = "(--virtual | --connect ADDR) [--jobs N] [--mean-gap F] \
[--seed N] [--policy NAME] [--capacity N] [--out FILE] [--batch-out FILE] [--pace RATE] \
[--faults SEED] [--transcript FILE]";

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

/// Drives a daemon session and proves it equals batch.
///
/// Generates a seeded Poisson arrival trace, submits it to a scheduler
/// daemon one request at a time, drains, and writes the final
/// `SchedReport` JSON. With `--batch-out` it also runs the *batch*
/// `OnlineScheduler` over the identical trace and writes that report,
/// so the CI smoke can `cmp` the two files byte-for-byte — the daemon
/// session and the batch run are the same computation. The in-process
/// daemon honours the same overload knobs as `schedd`
/// (`GCS_SCHED_REPLAN_SHED`, `GCS_SCHED_ILP_SHED`). Options: see
/// [`CLIENT_SYNOPSIS`].
pub fn schedd_client(mut args: Args) {
    let virt = args.flag("--virtual");
    let connect: Option<String> = args.value("--connect");
    let jobs: usize = args.value("--jobs").unwrap_or(14);
    let mean_gap: f64 = args.value("--mean-gap").unwrap_or(30_000.0);
    let seed: u64 = args.value("--seed").unwrap_or(42);
    let policy_name: String = args.value("--policy").unwrap_or_else(|| "ilp".to_string());
    let capacity: Option<usize> = args.value("--capacity");
    let out: Option<String> = args.value("--out");
    let batch_out: Option<String> = args.value("--batch-out");
    let pace: Option<f64> = args.value("--pace");
    let faults: Option<u64> = args.value("--faults");
    let transcript_out: Option<String> = args.value("--transcript");
    args.finish();
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
        let mut pipeline = build_pipeline(2, false);
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
            let mut pipeline = build_pipeline(2, false);
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
