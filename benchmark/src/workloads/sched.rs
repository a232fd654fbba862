//! The online scheduler, in process and over a socket.
//!
//! * `sched_inproc` is the decision path alone — admission, census,
//!   ILP plan, `EventCore` bookkeeping, report encode — with no wire and
//!   no simulation (every co-run is served from the warm memo cache).
//! * `schedd_tcp` is the operator's path: the same decisions behind
//!   `DaemonCore::serve` on a loopback TCP listener, where framing, JSON
//!   and socket wake-ups dominate and the decision path is a few
//!   percent. A decision-path change must move the first and not the
//!   second; a codec or transport change the reverse.

use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use gcs_core::interference::InterferenceMatrix;
use gcs_core::queues::{census, thesis_queue_14};
use gcs_core::runner::{AllocationPolicy, Pipeline, RunConfig};
use gcs_core::sweep::SweepEngine;
use gcs_core::CoreError;
use gcs_sched::{
    DaemonConfig, DaemonCore, EventCore, Job, OnlineScheduler, OverloadPolicy, Plan, Policy,
    PolicyKind, Request, Response, RetryConfig, SchedClient, SchedConfig, TcpAcceptor,
    TcpTransport,
};
use gcs_sim::config::GpuConfig;
use gcs_workloads::{ArrivalTrace, Benchmark, Scale};

use crate::harness::{Env, Sink, Workload};
use crate::stats::{summarize, LogHistogram};
use crate::trace::Tracer;

/// The `test_small`/`Scale::TEST` pipeline with the synthetic
/// interference matrix, its memo cache in the workload's temp dir.
pub fn small_pipeline(env: &Env, tr: &mut Tracer, sink: &mut Sink) -> Pipeline {
    let cfg = RunConfig {
        gpu: GpuConfig::test_small(),
        scale: Scale::TEST,
        concurrency: 2,
    };
    let engine = Arc::new(SweepEngine::new(env.nproc).with_cache_dir(env.dir.join("cache")));
    let open = tr.begin("core.pipeline_new");
    let p =
        Pipeline::with_matrix_and_engine(cfg, InterferenceMatrix::synthetic_paper_shape(), engine);
    sink.sample("core.pipeline_new_s", tr.end(open));
    p.expect("pipeline over the synthetic matrix")
}

pub fn poisson(
    n: usize,
    mean_gap: f64,
    seed: u64,
    tr: &mut Tracer,
    sink: &mut Sink,
) -> ArrivalTrace {
    let open = tr.begin("workloads.trace_gen");
    let trace = ArrivalTrace::poisson(&Benchmark::ALL, n, mean_gap, seed);
    sink.sample("workloads.trace_gen_us", tr.end(open) * 1e6);
    trace
}

fn sched_config(queue_capacity: usize) -> SchedConfig {
    SchedConfig {
        num_gpus: 2,
        queue_capacity,
        alloc: AllocationPolicy::Even,
        replan_interval: None,
    }
}

/// The thesis' 14-application queue as pending jobs, the census the
/// plan and allocation loops are timed on.
pub fn census_14_jobs() -> Vec<Job> {
    let queue = thesis_queue_14().into_iter().enumerate();
    queue
        .map(|(id, bench)| Job {
            id,
            bench,
            arrival: id as u64,
        })
        .collect()
}

/// After set-up nothing may be simulated: the memo cache is warm.
pub fn check_nothing_simulated(pipeline: &Pipeline, baseline: u64, sink: &mut Sink) {
    let now = pipeline.sweep_stats().jobs_simulated;
    sink.exact("core.sweep.jobs_simulated", (now - baseline) as f64);
}

// ----------------------------------------------------------------------
// sched_inproc
// ----------------------------------------------------------------------

const INPROC_ARRIVALS: usize = 2_000;
/// Mean inter-arrival gap in device cycles: the two devices stay busy
/// and a backlog of a few jobs forms, so most dispatched groups are
/// pairs (`sched.pair_share` ≈ 0.6), while the queue below never
/// fills. A shorter gap makes the backlog, and with it the cost of a
/// repetition, swing from seed to seed.
const INPROC_GAP: f64 = 13000.0;
const INPROC_CAPACITY: usize = 512;
/// Repetitions per sample: one repetition is ≈ 8 ms.
const INPROC_BATCH: u64 = 10;

pub struct SchedInproc {
    pipeline: Pipeline,
    trace: ArrivalTrace,
    simulated_at_setup: u64,
}

/// Counts plan calls that reach the ILP (two or more pending jobs).
struct CountingIlp {
    inner: Box<dyn Policy>,
    solves: u64,
}

impl Policy for CountingIlp {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, pipeline: &Pipeline, pending: &[Job]) -> Result<Plan, CoreError> {
        self.solves += u64::from(pending.len() >= 2);
        self.inner.plan(pipeline, pending)
    }
}

impl Workload for SchedInproc {
    fn setup(env: &Env, tr: &mut Tracer, sink: &mut Sink) -> Self {
        let pipeline = small_pipeline(env, tr, sink);
        let trace = poisson(INPROC_ARRIVALS, INPROC_GAP, env.seed, tr, sink);
        let mut w = SchedInproc {
            pipeline,
            trace,
            simulated_at_setup: 0,
        };
        // The warm-up repetition simulates every group the trace forms.
        w.one(false, tr, &mut Sink::default());
        w.simulated_at_setup = w.pipeline.sweep_stats().jobs_simulated;
        w
    }

    fn sample(&mut self, tr: &mut Tracer, sink: &mut Sink) {
        for rep in 0..INPROC_BATCH {
            self.one(rep == 0, tr, sink);
        }
        check_nothing_simulated(&self.pipeline, self.simulated_at_setup, sink);
    }

    fn batch(&self) -> u64 {
        INPROC_BATCH
    }

    fn work(&self) -> Vec<(&'static str, f64)> {
        vec![("sched_jobs_per_s", INPROC_ARRIVALS as f64)]
    }

    fn passes(&mut self, tr: &mut Tracer, sink: &mut Sink, _deep: bool) {
        self.decision_pass(tr, sink);
        self.plan_pass(tr, sink);
        milp_pass(&self.pipeline, tr, sink);
    }
}

impl SchedInproc {
    /// One repetition. Hashing the 380 kB report costs 5 % of a
    /// repetition, so only the first repetition of a sample is digested
    /// (`digest`); the others are held to the report's exact length.
    fn one(&mut self, digest: bool, tr: &mut Tracer, sink: &mut Sink) {
        let mut policy = PolicyKind::IlpEpoch.build();
        let open = tr.begin("sched.loop");
        let report = OnlineScheduler::new(&mut self.pipeline, sched_config(INPROC_CAPACITY))
            .expect("scheduler config")
            .run(&self.trace, policy.as_mut());
        sink.add("sched.loop_s", tr.end(open));
        sink.attempted += INPROC_ARRIVALS as u64;
        let report = match report {
            Ok(r) => r,
            Err(e) => return sink.failures.push(format!("scheduler run failed: {e}")),
        };
        let open = tr.begin("sched.report_encode");
        let json = report.to_json();
        sink.add("sched.report_encode_us", tr.end(open) * 1e6);

        let pairs = report.groups.iter().filter(|g| g.jobs.len() == 2).count();
        sink.check(
            report.jobs.len() == INPROC_ARRIVALS && report.failed.is_empty(),
            || {
                format!(
                    "{} of {INPROC_ARRIVALS} arrivals completed",
                    report.jobs.len()
                )
            },
        );
        sink.check(report.rejections.is_empty(), || {
            format!("{} arrivals rejected", report.rejections.len())
        });
        sink.exact(
            "sched.pair_share",
            pairs as f64 / report.groups.len().max(1) as f64,
        );
        sink.exact("stp", report.stp());
        sink.exact("sched.report_bytes", json.len() as f64);
        sink.exact("sched.rejected", report.rejections.len() as f64);
        sink.exact("sched.degradations", report.degradations.len() as f64);
        if digest {
            sink.output(&json);
        }
    }

    /// The same trace through an `EventCore` driven by hand, which —
    /// unlike `OnlineScheduler::run` — hands back its decision timings.
    fn decision_pass(&mut self, tr: &mut Tracer, sink: &mut Sink) {
        let mut policy = CountingIlp {
            inner: PolicyKind::IlpEpoch.build(),
            solves: 0,
        };
        let mut core = EventCore::new(sched_config(INPROC_CAPACITY), OverloadPolicy::default())
            .expect("scheduler config");
        let open = tr.begin("sched.event_core");
        for (id, a) in self.trace.arrivals().iter().enumerate() {
            let job = Job {
                id,
                bench: a.bench,
                arrival: a.time,
            };
            let admitted = core.submit(&mut self.pipeline, &mut policy, job);
            sink.check(matches!(admitted, Ok(true)), || {
                format!("arrival {id}: {admitted:?}")
            });
        }
        let drained = core.drain(&mut self.pipeline, &mut policy);
        tr.end(open);
        // The hand-driven core must agree with `OnlineScheduler::run`.
        match drained {
            Ok(report) => sink.output(&report.to_json()),
            Err(e) => sink.check(false, || format!("drain failed: {e}")),
        }
        let stats = core.decision_stats();
        sink.exact("sched.decisions", stats.count as f64);
        sink.sample("sched.decision_p50_ns", stats.p50_ns as f64);
        sink.sample("sched.decision_p99_ns", stats.p99_ns as f64);
        sink.exact("milp.solves", policy.solves as f64);
    }

    /// `Policy::plan` per policy over the census-14 queue.
    fn plan_pass(&mut self, tr: &mut Tracer, sink: &mut Sink) {
        let pending = census_14_jobs();
        const LOOPS: u32 = 2_000;
        for (kind, span, metric) in [
            (PolicyKind::Fcfs, "sched.plan.fcfs", "sched.plan_us.fcfs"),
            (
                PolicyKind::GreedyClass,
                "sched.plan.greedy",
                "sched.plan_us.greedy",
            ),
            (PolicyKind::IlpEpoch, "sched.plan.ilp", "sched.plan_us.ilp"),
        ] {
            let mut policy = kind.build();
            let open = tr.begin(span);
            for _ in 0..LOOPS {
                let plan = policy.plan(&self.pipeline, black_box(&pending));
                black_box(plan.expect("plan over census-14"));
            }
            sink.sample(metric, tr.end(open) * 1e6 / f64::from(LOOPS));
        }
    }
}

/// `ilp::solve_grouping` on the census-14 class counts.
fn milp_pass(pipeline: &Pipeline, tr: &mut Tracer, sink: &mut Sink) {
    let counts = census(&thesis_queue_14());
    let patterns = gcs_core::pattern::enumerate_patterns(2);
    let e: Vec<f64> = patterns
        .iter()
        .map(|p| p.e_coefficient(pipeline.matrix()))
        .collect();
    const LOOPS: u32 = 2_000;
    let open = tr.begin("milp.solve");
    for _ in 0..LOOPS {
        let sol = gcs_core::ilp::solve_grouping(black_box(counts), 2, pipeline.matrix());
        black_box(sol.expect("census-14 is feasible"));
    }
    sink.sample("milp.solve_us", tr.end(open) * 1e6 / f64::from(LOOPS));
    let solved = gcs_core::ilp::build_problem(counts, 2, &e).solve();
    sink.check(solved.is_ok(), || {
        format!("census-14 ILP: {:?}", solved.as_ref().err())
    });
    if let Ok(sol) = solved {
        sink.exact("milp.nodes", sol.stats.nodes as f64);
    }
}

// ----------------------------------------------------------------------
// schedd_tcp
// ----------------------------------------------------------------------

const SESSION_SUBMITS: usize = 40;
const SESSION_STATUS: usize = 5;
const SESSION_REQUESTS: usize = SESSION_SUBMITS + SESSION_STATUS + 1;
const SESSION_GAP: f64 = 6_000.0;
const SESSION_CAPACITY: usize = 64;
/// Sessions per sample (≈ 75 ms on one CPU).
const TCP_BATCH: u64 = 100;

pub struct ScheddTcp {
    pipeline: Pipeline,
    trace: ArrivalTrace,
    acceptor: TcpAcceptor,
    addr: std::net::SocketAddr,
    /// The report `OnlineScheduler::run` gives for the session's trace;
    /// every drained session must return these bytes.
    batch_json: String,
    simulated_at_setup: u64,
}

const KINDS: [&str; 3] = ["submit", "status", "drain"];

fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        sched: sched_config(SESSION_CAPACITY),
        overload: OverloadPolicy::default(),
    }
}

/// The session's request sequence: a `Status` after every eighth
/// `Submit`, then the `Drain`.
fn session_requests(trace: &ArrivalTrace) -> Vec<Request> {
    let mut reqs = Vec::with_capacity(SESSION_REQUESTS);
    for (id, a) in trace.arrivals().iter().enumerate() {
        reqs.push(Request::Submit {
            id: id as u64,
            bench: a.bench,
            at: a.time,
        });
        if (id + 1) % (SESSION_SUBMITS / SESSION_STATUS) == 0 {
            reqs.push(Request::Status);
        }
    }
    reqs.push(Request::Drain);
    reqs
}

fn kind_of(req: &Request) -> usize {
    match req {
        Request::Submit { .. } => 0,
        Request::Status | Request::Report => 1,
        Request::Drain => 2,
    }
}

/// Whether `resp` is the variant `req` must be answered with.
fn answers(req: &Request, resp: &Response, batch_json: &str) -> bool {
    match (req, resp) {
        (Request::Submit { id, .. }, Response::Submitted { id: echoed }) => id == echoed,
        (Request::Status, Response::Status { .. }) => true,
        (Request::Drain, Response::Drained { json }) => json == batch_json,
        _ => false,
    }
}

impl Workload for ScheddTcp {
    fn setup(env: &Env, tr: &mut Tracer, sink: &mut Sink) -> Self {
        let mut pipeline = small_pipeline(env, tr, sink);
        let trace = poisson(SESSION_SUBMITS, SESSION_GAP, env.seed, tr, sink);
        // The batch run of the same trace warms the memo cache and is
        // the reference every session's final report is held to.
        let mut policy = PolicyKind::IlpEpoch.build();
        let batch_json = OnlineScheduler::new(&mut pipeline, daemon_config().sched)
            .expect("scheduler config")
            .run(&trace, policy.as_mut())
            .expect("batch run of the session trace")
            .to_json();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("listener address");
        let deadline = Some(Duration::from_secs(10));
        let simulated_at_setup = pipeline.sweep_stats().jobs_simulated;
        let mut w = ScheddTcp {
            pipeline,
            trace,
            acceptor: TcpAcceptor::new(listener, deadline, deadline),
            addr,
            batch_json,
            simulated_at_setup,
        };
        w.sessions(10, tr, &mut Sink::default());
        w
    }

    fn sample(&mut self, tr: &mut Tracer, sink: &mut Sink) {
        self.sessions(TCP_BATCH, tr, sink);
        check_nothing_simulated(&self.pipeline, self.simulated_at_setup, sink);
    }

    fn batch(&self) -> u64 {
        TCP_BATCH
    }

    fn work(&self) -> Vec<(&'static str, f64)> {
        vec![("req_per_s", SESSION_REQUESTS as f64)]
    }

    /// Round trips over every session the sink saw.
    fn end_samples(&self, sink: &mut Sink) {
        let mut all = LogHistogram::new();
        let mut medians = Vec::new();
        for kind in KINDS {
            if let Some(h) = sink.pooled(kind) {
                all.merge(h);
                medians.push((kind, h.percentile(50.0)));
            }
        }
        for (kind, p50) in medians {
            sink.sample(&format!("sched.rtt_us.{kind}"), p50);
        }
        sink.sample("req_p50_us", all.percentile(50.0));
        sink.sample("req_p99_us", all.percentile(99.0));
        sink.sample("sched.req_p999_us", all.percentile(99.9));
    }

    fn passes(&mut self, tr: &mut Tracer, sink: &mut Sink, _deep: bool) {
        let handle = self.handle_pass(tr, sink);
        let codec = self.codec_pass(tr, sink);
        // What is left of a submit's round trip once the daemon's own
        // work and the four codec steps are taken out: syscalls,
        // loopback, thread wake-ups.
        let rtt = sink
            .median("sched.rtt_us.submit")
            .expect("submits were sent");
        sink.sample("sched.transport_us", rtt - handle - codec);
    }
}

fn fatal(why: &str) -> ! {
    eprintln!("schedd_tcp: {why}");
    std::process::exit(1)
}

impl ScheddTcp {
    /// `n` sessions, closed loop, one connection at a time: the server
    /// thread serves each until its drain, the client sends the next
    /// request when the previous response is decoded.
    fn sessions(&mut self, n: u64, tr: &mut Tracer, sink: &mut Sink) {
        let reqs = session_requests(&self.trace);
        let (pipeline, acceptor) = (&mut self.pipeline, &mut self.acceptor);
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                for _ in 0..n {
                    let mut daemon =
                        DaemonCore::new(pipeline, PolicyKind::IlpEpoch.build(), daemon_config())
                            .expect("daemon config");
                    if let Err(e) = daemon.serve(acceptor) {
                        return Err(e.to_string());
                    }
                }
                Ok(())
            });
            for session in 0..n {
                tr.unit = session;
                let open = tr.begin("sched.connect");
                let conn = TcpStream::connect(self.addr)
                    .map_err(|e| e.to_string())
                    .and_then(|s| TcpTransport::new(s, None, None).map_err(|e| e.to_string()));
                sink.add("sched.connect_us", tr.end(open) * 1e6);
                // A dead loopback connection leaves the server thread
                // blocked in accept for good, so there is no carrying on.
                let mut client = match conn {
                    Ok(c) => SchedClient::new(c, RetryConfig::default()),
                    Err(e) => fatal(&format!("session {session}: connect failed: {e}")),
                };
                for req in &reqs {
                    let open = tr.begin("sched.request");
                    let resp = match req {
                        Request::Submit { id, bench, at } => {
                            client.submit_with_retry(*id, *bench, *at)
                        }
                        other => client.request(other),
                    };
                    sink.pool(KINDS[kind_of(req)], tr.end(open) * 1e6);
                    match resp {
                        Ok(r) => sink.check(answers(req, &r, &self.batch_json), || {
                            format!("session {session}: {req:?} answered {r:?}")
                        }),
                        Err(e) => fatal(&format!("session {session}: {req:?} failed: {e}")),
                    }
                }
                sink.exact("sched.retries", client.retries as f64);
            }
            let served = server.join().expect("server thread panicked");
            sink.check(served.is_ok(), || format!("serve: {served:?}"));
        });
        sink.output(&self.batch_json);
    }

    /// The session's own sequence through `DaemonCore::handle`, no wire.
    /// Returns the median `Submit` handling time in µs.
    fn handle_pass(&mut self, tr: &mut Tracer, sink: &mut Sink) -> f64 {
        let reqs = session_requests(&self.trace);
        const SESSIONS: usize = 200;
        let mut times: [Vec<f64>; 3] = Default::default();
        for _ in 0..SESSIONS {
            let mut daemon = DaemonCore::new(
                &mut self.pipeline,
                PolicyKind::IlpEpoch.build(),
                daemon_config(),
            )
            .expect("daemon config");
            for req in &reqs {
                let open = tr.begin("sched.handle");
                let resp = daemon.handle(*req);
                times[kind_of(req)].push(tr.end(open) * 1e6);
                sink.check(answers(req, &resp, &self.batch_json), || {
                    format!("in-process {req:?} answered {resp:?}")
                });
            }
        }
        let p50 = times.map(|t| summarize(&t).expect("every kind was handled").median);
        for (kind, p50) in KINDS.iter().zip(p50) {
            sink.sample(&format!("sched.handle_us.{kind}"), p50);
        }
        p50[0]
    }

    /// The session's own messages through both codecs, ns per message.
    /// Returns the four steps' cost for one `Submit` round trip in µs.
    fn codec_pass(&mut self, tr: &mut Tracer, sink: &mut Sink) -> f64 {
        let reqs = session_requests(&self.trace);
        let mut daemon = DaemonCore::new(
            &mut self.pipeline,
            PolicyKind::IlpEpoch.build(),
            daemon_config(),
        )
        .expect("daemon config");
        let resps: Vec<Response> = reqs.iter().map(|r| daemon.handle(*r)).collect();
        let req_frames: Vec<Vec<u8>> = reqs.iter().map(Request::encode).collect();
        let resp_frames: Vec<Vec<u8>> = resps.iter().map(Response::encode).collect();
        const LOOPS: usize = 500;
        let mut time = |span: &'static str, metric: &str, step: &dyn Fn(usize)| {
            let open = tr.begin(span);
            for _ in 0..LOOPS {
                (0..reqs.len()).for_each(step);
            }
            sink.sample(metric, tr.end(open) * 1e9 / (LOOPS * reqs.len()) as f64);
        };
        time(
            "sched.codec.req_encode",
            "sched.codec.req_encode_ns",
            &|i| {
                black_box(black_box(&reqs[i]).encode());
            },
        );
        time(
            "sched.codec.req_decode",
            "sched.codec.req_decode_ns",
            &|i| {
                black_box(Request::decode(black_box(&req_frames[i])).expect("own frame"));
            },
        );
        time(
            "sched.codec.resp_encode",
            "sched.codec.resp_encode_ns",
            &|i| {
                black_box(black_box(&resps[i]).encode());
            },
        );
        time(
            "sched.codec.resp_decode",
            "sched.codec.resp_decode_ns",
            &|i| {
                black_box(Response::decode(black_box(&resp_frames[i])).expect("own frame"));
            },
        );
        // A submit and its answer are the first message of each list.
        let open = tr.begin("sched.codec.submit");
        for _ in 0..LOOPS * reqs.len() {
            black_box(black_box(&reqs[0]).encode());
            black_box(Request::decode(black_box(&req_frames[0])).expect("own frame"));
            black_box(black_box(&resps[0]).encode());
            black_box(Response::decode(black_box(&resp_frames[0])).expect("own frame"));
        }
        tr.end(open) * 1e6 / (LOOPS * reqs.len()) as f64
    }
}
