//! schedd — the scheduler-as-a-service daemon over TCP (DESIGN.md §13).
//!
//! Binds a TCP listener, builds the full measurement pipeline once, and
//! serves the `gcs_sched` frame protocol until a client drains the
//! session (graceful shutdown: in-flight jobs finish, the final
//! `SchedReport` goes to the draining client, then the process exits).
//!
//! ```text
//! schedd [--listen ADDR]        # default 127.0.0.1:7077
//! ```
//!
//! Environment knobs (defaults in parentheses):
//!
//! * `GCS_SCHED_POLICY`    — `fcfs` | `greedy` | `ilp` (`ilp`)
//! * `GCS_SCHED_FLEET`     — path to a `FleetSpec` JSON; serves the
//!   heterogeneous fleet policy instead of `GCS_SCHED_POLICY` (the
//!   report's policy name comes out `fleet`, or `ilp` for the
//!   degenerate 1-device spec)
//! * `GCS_SCHED_GPUS`      — simulated devices (`1`)
//! * `GCS_SCHED_CAPACITY`  — admission queue bound (`16`)
//! * `GCS_SCHED_READ_MS`   — per-connection read deadline in ms, `0`
//!   disables (`2000`); the slow-loris defence
//! * `GCS_SCHED_REPLAN_SHED` — overload rung 1: pending count above
//!   which cached plans survive admissions (off)
//! * `GCS_SCHED_ILP_SHED`  — overload rung 2: pending count above which
//!   planning falls back to the greedy pairing (off)
//!
//! Plus the usual pipeline knobs: `GCS_SCALE`, `GCS_THREADS`,
//! `GCS_CACHE`.

use std::time::Duration;

use gcs_bench::{build_pipeline, env_count, header};
use gcs_core::runner::AllocationPolicy;
use gcs_fleet::{FleetPolicy, FleetSpec};
use gcs_sched::{
    DaemonConfig, DaemonCore, OverloadPolicy, Policy, PolicyKind, SchedConfig, TcpAcceptor,
};

fn main() {
    let mut listen = "127.0.0.1:7077".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--listen" => listen = args.next().expect("--listen needs an address"),
            other => {
                eprintln!("unknown argument {other:?}; usage: schedd [--listen ADDR]");
                std::process::exit(2);
            }
        }
    }

    let policy_name = std::env::var("GCS_SCHED_POLICY").unwrap_or_else(|_| "ilp".into());
    let Some(kind) = PolicyKind::from_name(&policy_name) else {
        eprintln!("GCS_SCHED_POLICY={policy_name:?} is not fcfs|greedy|ilp");
        std::process::exit(2);
    };
    let cfg = DaemonConfig {
        sched: SchedConfig {
            num_gpus: env_count("GCS_SCHED_GPUS").unwrap_or(1) as u32,
            queue_capacity: env_count("GCS_SCHED_CAPACITY").unwrap_or(16),
            alloc: AllocationPolicy::Smra,
            replan_interval: None,
        },
        overload: OverloadPolicy {
            replan_pending_limit: env_count("GCS_SCHED_REPLAN_SHED"),
            ilp_pending_limit: env_count("GCS_SCHED_ILP_SHED"),
        },
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

    let mut pipeline = build_pipeline(2);
    // GCS_SCHED_FLEET overrides the policy kind with the heterogeneous
    // fleet allocator loaded from a FleetSpec JSON file.
    let policy: Box<dyn Policy> = match std::env::var("GCS_SCHED_FLEET") {
        Ok(path) => {
            let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("GCS_SCHED_FLEET={path:?}: cannot read spec: {e}");
                std::process::exit(2);
            });
            let spec = FleetSpec::from_json(&json).unwrap_or_else(|e| {
                eprintln!("GCS_SCHED_FLEET={path:?}: invalid spec: {e}");
                std::process::exit(2);
            });
            Box::new(FleetPolicy::new(spec))
        }
        Err(_) => kind.build(),
    };
    let policy_label = policy.name();
    let mut daemon = DaemonCore::new(&mut pipeline, policy, cfg).expect("daemon configuration");
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
