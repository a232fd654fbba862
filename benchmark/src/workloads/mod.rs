//! The seven workloads. Each module says why its workloads were chosen
//! and which layer should dominate them; `README.md` has the table.

pub mod fleet;
pub mod sched;
pub mod sim;
pub mod sweep;

use crate::harness::{run, Options, Record};

/// In the order `BENCHMARK.json` lists them.
#[cfg(test)]
pub const NAMES: [&str; 7] = [
    "sim_mem_corun",
    "sim_lat_smra",
    "sweep_cold",
    "sweep_warm",
    "schedd_tcp",
    "sched_inproc",
    "fleet_loop",
];

/// Runs the workload `opts` names in this process; `None` for a name
/// this crate does not know.
pub fn dispatch(opts: &Options) -> Option<Record> {
    Some(match opts.workload.as_str() {
        "sim_mem_corun" => run::<sim::SimMemCorun>(opts),
        "sim_lat_smra" => run::<sim::SimLatSmra>(opts),
        "sweep_cold" => run::<sweep::SweepCold>(opts),
        "sweep_warm" => run::<sweep::SweepWarm>(opts),
        "schedd_tcp" => run::<sched::ScheddTcp>(opts),
        "sched_inproc" => run::<sched::SchedInproc>(opts),
        "fleet_loop" => run::<fleet::FleetLoop>(opts),
        _ => return None,
    })
}

/// Whether the workload is confined to one CPU.
///
/// `schedd_tcp` is a ping-pong between a client and a server thread.
/// With a CPU each, a round trip is two cross-CPU wake-ups, which on a
/// virtualised host cost 14 µs or 67 µs depending on where the guest
/// scheduler happened to put the threads — the same commit and seed
/// measured 0.8 ms and 4.3 ms per session in consecutive runs. On one
/// CPU a wake-up is a context switch and six runs agreed within 4 %.
pub fn one_cpu(workload: &str) -> bool {
    workload == "schedd_tcp"
}
