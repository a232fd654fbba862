//! Integration pins for the scheduler daemon (`gcs_sched::daemon`).
//!
//! The load-bearing guarantees:
//!
//! * **Session ≡ batch** — a daemon session that submits the same jobs
//!   at the same logical cycles drains to a [`SchedReport`] JSON that
//!   is *byte-identical* to the batch [`OnlineScheduler::run`] over the
//!   equivalent trace, in-process and over the wire, at 1/2/8 sweep
//!   threads. The daemon is the batch loop, incrementalised — not a
//!   second scheduler that can drift.
//! * **Hardening** — bounded admission surfaces as typed
//!   [`Response::Rejected`] backpressure; a drain is graceful and
//!   post-drain submits bounce with `draining: true`; a slow-loris TCP
//!   peer gets a typed timeout and the daemon serves the next
//!   connection; overload sheds are recorded as degradations, never
//!   silent.
//! * **Fault-injected byte-reproducibility** — a [`FaultyTransport`]
//!   session (seeded drop/truncate/flip/delay) produces the exact same
//!   fault transcript on every run, pinned against
//!   `tests/golden/daemon_fault_transcript.txt`
//!   (`GCS_UPDATE_GOLDEN=1` regenerates), and the daemon survives the
//!   whole ordeal well enough to drain a clean report afterwards.

use std::sync::Arc;
use std::time::Duration;

use gcs_core::runner::AllocationPolicy;
use gcs_core::SweepEngine;
use gcs_sched::{
    virtual_link, DaemonConfig, DaemonCore, FaultSpec, FaultyTransport, OnlineScheduler,
    OverloadPolicy, PolicyKind, Request, Response, RetryConfig, SchedClient, SchedConfig,
    TcpAcceptor, TcpTransport, Transport, TransportError, VirtualConnector, VirtualListener,
};
use gcs_workloads::{ArrivalTrace, Benchmark};

#[path = "common/fixtures.rs"]
mod fixtures;
use fixtures::pipeline_with_engine;

fn sched_cfg(queue_capacity: usize) -> SchedConfig {
    SchedConfig {
        num_gpus: 1,
        queue_capacity,
        alloc: AllocationPolicy::Smra,
        replan_interval: None,
    }
}

/// The batch reference: [`OnlineScheduler::run`] over `trace`.
fn batch_json(trace: &ArrivalTrace, cfg: SchedConfig, threads: usize) -> String {
    let mut p = pipeline_with_engine(2, Arc::new(SweepEngine::new(threads)));
    let mut policy = PolicyKind::IlpEpoch.build();
    OnlineScheduler::new(&mut p, cfg)
        .unwrap()
        .run(trace, policy.as_mut())
        .expect("batch run")
        .to_json()
}

/// Runs the daemon loop over `listener` on its own thread, with its
/// own pipeline (built inside the thread), until a drain completes or
/// the connector is dropped.
fn spawn_daemon(
    listener: VirtualListener,
    cfg: DaemonConfig,
    threads: usize,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut p = pipeline_with_engine(2, Arc::new(SweepEngine::new(threads)));
        let mut d = DaemonCore::new(&mut p, PolicyKind::IlpEpoch.build(), cfg).unwrap();
        let mut listener = listener;
        d.serve(&mut listener).expect("serve");
    })
}

/// In-process daemon session ≡ batch run, byte-for-byte, at every
/// sweep-engine thread count.
#[test]
fn daemon_session_reproduces_batch_report_byte_for_byte() {
    let trace = ArrivalTrace::poisson(&Benchmark::ALL, 10, 30_000.0, 42);
    let cfg = sched_cfg(16);
    let mut renders = Vec::new();
    for threads in [1usize, 2, 8] {
        let reference = batch_json(&trace, cfg, threads);

        let mut p = pipeline_with_engine(2, Arc::new(SweepEngine::new(threads)));
        let mut d = DaemonCore::new(
            &mut p,
            PolicyKind::IlpEpoch.build(),
            DaemonConfig {
                sched: cfg,
                overload: OverloadPolicy::default(),
            },
        )
        .unwrap();
        for (i, a) in trace.arrivals().iter().enumerate() {
            let r = d.handle(Request::Submit {
                id: i as u64,
                bench: a.bench,
                at: a.time,
            });
            assert_eq!(r, Response::Submitted { id: i as u64 }, "{threads} threads");
        }
        let json = match d.handle(Request::Drain) {
            Response::Drained { json } => json,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(json, reference, "daemon vs batch at {threads} threads");
        renders.push(json);
    }
    assert_eq!(renders[0], renders[1], "1 vs 2 threads");
    assert_eq!(renders[0], renders[2], "1 vs 8 threads");
}

/// The same equivalence holds across the wire: a [`SchedClient`]
/// session over the virtual link drains to the batch bytes.
#[test]
fn wire_session_over_virtual_link_matches_batch() {
    let trace = ArrivalTrace::poisson(&Benchmark::ALL, 8, 20_000.0, 7);
    let cfg = sched_cfg(16);
    let reference = batch_json(&trace, cfg, 2);

    let (connector, listener) = virtual_link(None);
    let daemon = spawn_daemon(
        listener,
        DaemonConfig {
            sched: cfg,
            overload: OverloadPolicy::default(),
        },
        2,
    );

    let mut client = SchedClient::new(connector.connect().unwrap(), RetryConfig::default());
    for (i, a) in trace.arrivals().iter().enumerate() {
        let r = client
            .submit_with_retry(i as u64, a.bench, a.time)
            .expect("submit");
        assert_eq!(r, Response::Submitted { id: i as u64 });
    }
    let json = client.drain().expect("drain");
    assert_eq!(json, reference, "wire session vs batch");
    drop(client);
    drop(connector);
    daemon.join().expect("daemon thread");
}

/// Bounded admission over the wire: the overflow submit bounces with a
/// typed `Rejected` and a usable retry hint; the client retry loop
/// exhausts its budget against sustained pressure; a drain is graceful
/// and post-drain submits bounce with `draining: true`.
#[test]
fn wire_backpressure_drain_and_post_drain_rejection() {
    let (connector, listener) = virtual_link(None);
    let daemon = spawn_daemon(
        listener,
        DaemonConfig {
            sched: sched_cfg(1),
            overload: OverloadPolicy::default(),
        },
        1,
    );

    let retry = RetryConfig {
        max_attempts: 3,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_millis(1),
        seed: 11,
    };
    let mut client = SchedClient::new(connector.connect().unwrap(), retry);

    // First job fills the capacity-1 queue (dispatch defers until time
    // advances, so it stays pending).
    assert_eq!(
        client.request(&Request::Submit {
            id: 0,
            bench: Benchmark::Gups,
            at: 0,
        }),
        Ok(Response::Submitted { id: 0 })
    );
    // Overflow: typed rejection with a retry hint.
    match client.request(&Request::Submit {
        id: 1,
        bench: Benchmark::Hs,
        at: 0,
    }) {
        Ok(Response::Rejected {
            id,
            retry_after,
            draining,
        }) => {
            assert_eq!(id, 1);
            assert!(retry_after >= 1);
            assert!(!draining);
        }
        other => panic!("unexpected {other:?}"),
    }
    // The retry loop keeps trying (pressure never lifts at t=0), then
    // hands back the final rejection.
    let r = client.submit_with_retry(2, Benchmark::Sad, 0).unwrap();
    assert!(matches!(r, Response::Rejected { draining: false, .. }));
    assert_eq!(client.retries, 2, "attempts - 1 backoff sleeps");

    // Graceful drain: the queued job completes and the report renders.
    let json = client.drain().expect("drain");
    assert!(json.contains("\"policy\": \"ilp\""), "{json}");
    assert!(json.contains("\"id\":0"), "queued job completed: {json}");

    // Post-drain submits bounce with the draining flag — on the same
    // connection, which the daemon kept alive.
    match client.request(&Request::Submit {
        id: 3,
        bench: Benchmark::Lud,
        at: 9_999,
    }) {
        Ok(Response::Rejected { draining: true, .. }) => {}
        other => panic!("unexpected {other:?}"),
    }
    drop(client);
    drop(connector);
    daemon.join().expect("daemon thread");
}

/// Overload ladder against the real pipeline: flooding the queue above
/// both thresholds sheds to the cached plan and then to the greedy
/// planner, every shed lands in the drained report, and every job
/// still completes.
#[test]
fn overload_ladder_records_degradations_with_real_pipeline() {
    let mut p = pipeline_with_engine(2, Arc::new(SweepEngine::sequential()));
    let mut d = DaemonCore::new(
        &mut p,
        PolicyKind::IlpEpoch.build(),
        DaemonConfig {
            sched: sched_cfg(64),
            overload: OverloadPolicy {
                replan_pending_limit: Some(1),
                ilp_pending_limit: Some(4),
            },
        },
    )
    .unwrap();

    // t=0: three jobs and a settle-forcing advance, then a flood at
    // t=1 on top of the now-cached plan.
    for i in 0..3u64 {
        d.handle(Request::Submit {
            id: i,
            bench: Benchmark::ALL[i as usize % Benchmark::ALL.len()],
            at: 0,
        });
    }
    for i in 3..12u64 {
        d.handle(Request::Submit {
            id: i,
            bench: Benchmark::ALL[i as usize % Benchmark::ALL.len()],
            at: 1,
        });
    }
    match d.handle(Request::Status) {
        Response::Status { degradations, .. } => {
            assert!(degradations > 0, "sheds recorded before drain")
        }
        other => panic!("unexpected {other:?}"),
    }
    let json = match d.handle(Request::Drain) {
        Response::Drained { json } => json,
        other => panic!("unexpected {other:?}"),
    };
    assert!(json.contains("shed to cached-plan"), "rung 1: {json}");
    assert!(json.contains("shed to greedy"), "rung 2: {json}");
    assert!(json.contains("\"id\":11"), "all 12 jobs complete: {json}");
}

/// Slow-loris over real TCP: a peer that sends four header bytes and
/// stalls gets a typed timeout error and a closed connection — and the
/// daemon cleanly serves the next client.
#[test]
fn tcp_slow_loris_gets_typed_timeout_and_daemon_survives() {
    let tcp = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = tcp.local_addr().unwrap();
    let daemon = std::thread::spawn(move || {
        let mut p = pipeline_with_engine(2, Arc::new(SweepEngine::sequential()));
        let mut d =
            DaemonCore::new(
                &mut p,
                PolicyKind::Fcfs.build(),
                DaemonConfig {
                    sched: sched_cfg(8),
                    overload: OverloadPolicy::default(),
                },
            )
            .unwrap();
        let mut acceptor = TcpAcceptor::new(
            tcp,
            Some(Duration::from_millis(60)),
            Some(Duration::from_secs(5)),
        );
        d.serve(&mut acceptor).expect("serve");
    });

    // Connection 1: the slow loris. Four bytes of header, then silence.
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut loris = TcpTransport::new(stream, Some(Duration::from_secs(5)), None).unwrap();
    loris.send_bytes(b"GCSD").unwrap();
    let resp = Response::decode(&loris.recv_frame().expect("typed reply")).unwrap();
    assert!(
        matches!(resp, Response::Error { ref kind, .. } if kind == "timeout"),
        "unexpected {resp:?}"
    );
    // The daemon hung up on us.
    assert!(matches!(
        loris.recv_frame(),
        Err(TransportError::Closed | TransportError::Proto(_))
    ));

    // Connection 2: a well-behaved client gets full service.
    let stream = std::net::TcpStream::connect(addr).expect("connect 2");
    let conn = TcpTransport::new(stream, Some(Duration::from_secs(5)), None).unwrap();
    let mut client = SchedClient::new(conn, RetryConfig::default());
    assert_eq!(
        client.request(&Request::Submit {
            id: 0,
            bench: Benchmark::Nn,
            at: 0,
        }),
        Ok(Response::Submitted { id: 0 })
    );
    let json = client.drain().expect("drain");
    assert!(json.contains("\"policy\": \"fcfs\""));
    drop(client);
    daemon.join().expect("daemon thread");
}

/// A hostile advertised length over the wire is refused with a typed
/// `oversize` error before any allocation, and the connection closes.
#[test]
fn oversize_frame_is_refused_with_typed_error() {
    let (connector, listener) = virtual_link(None);
    let daemon = spawn_daemon(
        listener,
        DaemonConfig {
            sched: sched_cfg(8),
            overload: OverloadPolicy::default(),
        },
        1,
    );
    let mut conn = connector.connect().unwrap();
    conn.recv_deadline = Some(Duration::from_secs(5));
    let mut header = Vec::new();
    header.extend_from_slice(b"GCSD");
    header.extend_from_slice(&1u32.to_le_bytes());
    header.extend_from_slice(&u32::MAX.to_le_bytes()); // 4 GiB payload
    header.extend_from_slice(&0u64.to_le_bytes());
    conn.send_bytes(&header).unwrap();
    let resp = Response::decode(&conn.recv_frame().expect("typed reply")).unwrap();
    assert!(
        matches!(resp, Response::Error { ref kind, .. } if kind == "oversize"),
        "unexpected {resp:?}"
    );

    // The daemon is still alive for the next connection.
    let mut client = SchedClient::new(connector.connect().unwrap(), RetryConfig::default());
    let json = client.drain().expect("drain");
    assert!(json.contains("\"jobs\": []"));
    drop(client);
    drop(conn);
    drop(connector);
    daemon.join().expect("daemon thread");
}

// ----------------------------------------------------------------------
// Fault injection
// ----------------------------------------------------------------------

const FAULT_BASE_SEED: u64 = 0xDA3;
const FAULT_JOBS: u64 = 16;
/// Reconnect budget: every fault class severs at most once per frame,
/// so a scripted session can never legitimately need more.
const MAX_RECONNECTS: u64 = 64;
/// Receive deadline of the fault-scenario client: long enough that no
/// live daemon misses it on a busy host, so it only ever fires on a
/// hang.
const HANG_GUARD: Duration = Duration::from_secs(60);

/// Whether the proxy dropped the frame it was last handed — read from
/// its own transcript, the one record that cannot be late.
fn last_frame_dropped<T: Transport>(faulty: &FaultyTransport<T>) -> bool {
    let last = faulty.transcript().last();
    last.is_some_and(|l| l.contains(": drop "))
}

/// Drives a fixed submit script through a [`FaultyTransport`] client,
/// reconnecting (with per-connection seeds) whenever the transport or
/// the daemon gives up on a connection, then drains over a clean
/// connection. Returns the concatenated fault transcript and the final
/// report JSON.
///
/// Determinism argument: the proxy's damage is a pure function of
/// (seed, outbound frame index, frame length), and the client's control
/// flow depends only on frame *content* — sent requests, received
/// responses — and on the proxy's own record of what it did, never on
/// wall-clock races. The client alternates send/recv strictly, abandons
/// a connection after any `Error` response (the daemon may close
/// header-desynced connections, so continuing would race its close),
/// and learns that a frame was dropped from the transcript line the
/// proxy just wrote — not from a reply failing to beat a clock, which
/// on a loaded host also happens to replies that are merely late.
/// Responses are never faulted, so every frame that was not dropped is
/// answered; the receive deadline is only a guard against a hung
/// daemon.
fn fault_scenario(connector: &VirtualConnector) -> (Vec<String>, String) {
    let fresh = |conn_idx: u64| {
        let mut sock = connector.connect().expect("connect");
        sock.recv_deadline = Some(HANG_GUARD);
        FaultyTransport::new(sock, FAULT_BASE_SEED + conn_idx, FaultSpec::SMOKE)
    };
    let mut transcript: Vec<String> = Vec::new();
    let mut conn_idx = 0u64;
    let mut faulty = fresh(conn_idx);
    let collect =
        |t: &mut Vec<String>, idx: u64, f: FaultyTransport<gcs_sched::VirtualSocket>| {
            t.extend(f.into_transcript().into_iter().map(|l| format!("conn {idx}: {l}")));
        };

    let mut i = 0u64;
    while i < FAULT_JOBS {
        let req = Request::Submit {
            id: i,
            bench: Benchmark::ALL[i as usize % Benchmark::ALL.len()],
            at: i * 500,
        };
        let sent = faulty.send_frame(&req.encode()).is_ok();
        let mut dead = !sent;
        if sent && last_frame_dropped(&faulty) {
            // A dropped frame: the daemon never saw this job, so no
            // reply is coming. Count it as lost and move on (an
            // at-least-once client would resubmit; losing it keeps the
            // script shorter).
            i += 1;
        } else if sent {
            match faulty.recv_frame() {
                Ok(frame) => {
                    match Response::decode(&frame) {
                        // An error response means the frame arrived
                        // damaged; the daemon may be about to close a
                        // desynced connection, so abandon it either way
                        // and resubmit the job on a fresh one.
                        Ok(Response::Error { .. }) | Err(_) => dead = true,
                        Ok(_) => i += 1,
                    }
                }
                Err(TransportError::TimedOut) => {
                    panic!("no reply to a delivered frame within {HANG_GUARD:?}: {transcript:?}")
                }
                Err(_) => dead = true,
            }
        }
        if dead {
            let old = std::mem::replace(&mut faulty, fresh(conn_idx + 1));
            collect(&mut transcript, conn_idx, old);
            conn_idx += 1;
            assert!(conn_idx < MAX_RECONNECTS, "reconnect storm: {transcript:?}");
            // The job that hit the fault is retried on the new
            // connection (i was not advanced).
        }
    }
    collect(&mut transcript, conn_idx, faulty);

    // Final drain over a clean, unfaulted connection: whatever the
    // proxy did, the daemon must still be able to finish its work.
    let mut clean = SchedClient::new(connector.connect().expect("connect"), RetryConfig::default());
    let json = clean.drain().expect("drain after fault storm");
    (transcript, json)
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/daemon_fault_transcript.txt")
}

/// The fault-injected session is byte-reproducible — identical
/// transcript on a second run against a fresh daemon — and pinned
/// against the committed golden transcript. The daemon survives the
/// storm: the post-storm drain yields a well-formed report whose
/// completed jobs are exactly the cleanly-delivered submits.
#[test]
fn fault_injected_session_is_deterministic_and_pinned() {
    let run = || {
        let (connector, listener) = virtual_link(None);
        let daemon = spawn_daemon(
            listener,
            DaemonConfig {
                sched: sched_cfg(FAULT_JOBS as usize),
                overload: OverloadPolicy::default(),
            },
            1,
        );
        let out = fault_scenario(&connector);
        drop(connector);
        daemon.join().expect("daemon thread");
        out
    };

    let (transcript, json) = run();
    assert!(!transcript.is_empty());
    assert!(
        transcript.iter().any(|l| !l.ends_with("deliver")),
        "the smoke spec must actually injure something: {transcript:?}"
    );
    assert!(json.contains("\"policy\": \"ilp\""), "{json}");

    // Byte-reproducible: a fresh daemon, the same script, the same
    // seeds — the same transcript and the same final report.
    let (transcript2, json2) = run();
    assert_eq!(transcript, transcript2, "fault transcript must be deterministic");
    assert_eq!(json, json2, "post-storm report must be deterministic");

    // Pin against the committed golden file.
    let path = golden_path();
    let rendered = transcript.join("\n") + "\n";
    if std::env::var_os("GCS_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden transcript {} ({e}); run with GCS_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "fault transcript drifted from the golden file (GCS_UPDATE_GOLDEN=1 regenerates)"
    );
}
