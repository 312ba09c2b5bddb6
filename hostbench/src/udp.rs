//! `udp_pair`: two `son_node::NodeRuntime` daemons on their own threads,
//! talking over `UdpTransport` on the loopback interface, with one paced
//! best-effort flow between them.

use std::net::{SocketAddr, UdpSocket};
use std::time::Instant;

use son_node::{NodeRuntime, Scenario, TopoKind, UdpTransport};
use son_obs::FootprintReport;
use son_overlay::service::LinkService;
use son_topo::NodeId;

use crate::measure::{thread_cpu_ns, thread_voluntary_switches, AllocCount};
use crate::{mix, Inject};

/// Emulated one-way link latency, ms. Near zero, so the daemons' own
/// handling and polling set the latency; it must stay above zero, because
/// the scenario accepts `hop_ms <= 0` and the runtime then panics building
/// its topology.
const HOP_MS: f64 = 0.01;
/// The runtime adds this per-hop processing delay to every emulated link
/// (`son_overlay::builder::HOP_PROCESSING`).
const HOP_PROCESSING_MS: f64 = 0.2;
const SIZE: usize = 64;
const INTERVAL_US: u64 = 1000;
/// Packets per round at the nominal 1 kpps.
pub const COUNT: u64 = 1500;
/// The flow starts this long after the shared epoch, once the daemons'
/// first hellos have been exchanged.
const START_MS: u64 = 200;
/// Round length: the flow needs 1.5 s at its nominal rate; the CBR client
/// runs late on real timers, so the round leaves room for that and a drain.
const RUN_FOR_MS: u64 = 2700;
/// Both daemons wait for a shared epoch this far in the future, so they
/// start together.
const EPOCH_LEAD_NS: u64 = 20_000_000;

/// What one round measured.
#[derive(Debug, Default)]
pub struct UdpRound {
    pub setup_s: f64,
    pub run_s: f64,
    /// CPU time of the two daemon threads.
    pub cpu_ns: u64,
    /// Voluntary context switches of the two daemon threads.
    pub switches: u64,
    pub sent: u64,
    pub delivered: u64,
    pub latencies_us: Vec<f64>,
    pub alloc: AllocCount,
    /// Delivered rate over the nominal rate, between first and last arrival.
    pub cbr_ratio: f64,
    pub reroutes: u64,
    pub frames: u64,
    pub footprint: FootprintReport,
    pub faults: Vec<String>,
}

fn scenario(seed: u64, inject: Inject, traced: bool) -> Scenario {
    // The seed picks the flow's direction and the daemons' random streams.
    let (from, to) = if mix(seed, 5).is_multiple_of(2) {
        (0, 1)
    } else {
        (1, 0)
    };
    Scenario {
        name: "udp_pair".to_owned(),
        topo: TopoKind::Chain,
        nodes: 2,
        hop_ms: HOP_MS,
        loss: 0.0,
        spec: "best_effort".to_owned(),
        deadline_ms: None,
        from,
        to,
        count: COUNT,
        size: SIZE,
        interval_us: INTERVAL_US,
        start_ms: START_MS,
        run_for_ms: RUN_FOR_MS,
        seed: mix(seed, 6),
        trace_sample: if traced { 64 } else { 0 },
        watch: inject == Inject::Watchdog,
        membership: false,
        outage: None,
    }
}

/// Two free loopback ports: bound to port 0, read back, released.
pub fn loopback_addrs() -> [SocketAddr; 2] {
    let probe = || {
        UdpSocket::bind("127.0.0.1:0")
            .and_then(|s| s.local_addr())
            .expect("loopback UDP is available")
    };
    let a = probe();
    let mut b = probe();
    while b == a {
        b = probe();
    }
    [a, b]
}

/// One round: a fresh daemon pair runs the flow to its horizon. A traced
/// round samples one packet in 64 for distributed tracing.
pub fn udp_round(seed: u64, inject: Inject, traced: bool) -> UdpRound {
    let mut round = UdpRound::default();
    let scenario = scenario(seed, inject, traced);
    let setup = Instant::now();
    let addrs = loopback_addrs();
    let epoch_ns = son_node::unix_now_ns() + EPOCH_LEAD_NS;
    let runtimes: Vec<NodeRuntime<UdpTransport>> = (0..2)
        .map(|i| {
            let peers = (0..2).map(|j| (j != i).then_some(addrs[j])).collect();
            let transport = UdpTransport::bind(addrs[i], peers).expect("bind a loopback port");
            NodeRuntime::new(scenario.clone(), NodeId(i), transport, epoch_ns)
        })
        .collect();
    round.setup_s = setup.elapsed().as_secs_f64();

    let alloc = AllocCount::now();
    let wall = Instant::now();
    let finished: Vec<(NodeRuntime<UdpTransport>, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = runtimes
            .into_iter()
            .map(|mut rt| {
                s.spawn(move || {
                    let (cpu, sw) = (thread_cpu_ns(), thread_voluntary_switches());
                    let result = rt.run();
                    let used = (thread_cpu_ns() - cpu, thread_voluntary_switches() - sw);
                    result.expect("a loopback daemon runs to its horizon");
                    (rt, used.0, used.1)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("daemon thread panicked"))
            .collect()
    });
    round.run_s = wall.elapsed().as_secs_f64();
    round.alloc = AllocCount::since(alloc);

    let floor_us = (HOP_MS + HOP_PROCESSING_MS) * 1e3;
    for (rt, cpu, switches) in &finished {
        round.cpu_ns += cpu;
        round.switches += switches;
        if rt.decode_errors > 0 || rt.unknown_pipe > 0 {
            round.faults.push(format!(
                "node {}: {} decode errors, {} frames on unknown pipes",
                rt.node().id(),
                rt.decode_errors,
                rt.unknown_pipe
            ));
        }
        round.reroutes += rt.node().metrics().counters.get("reroutes");
        let stats = rt.node().service_stats(LinkService::BestEffort);
        round.frames += stats.sent + stats.retransmitted + stats.ctl_sent;
        round.footprint.merge(&rt.node().footprint());
        for c in rt.clients() {
            round.sent += c.sent(1);
            let Some(r) = c.recv.values().next() else {
                continue;
            };
            round.delivered += r.received;
            if r.app_duplicates > 0 {
                round
                    .faults
                    .push(format!("{} duplicates", r.app_duplicates));
            }
            round
                .latencies_us
                .extend(r.latencies_ms.iter().map(|ms| ms * 1e3));
            if let (Some(first), Some(last)) = (r.arrivals.first(), r.arrivals.last()) {
                let span_us = (last.0 - first.0).as_secs_f64() * 1e6;
                if r.arrivals.len() > 1 && span_us > 0.0 {
                    round.cbr_ratio = (r.arrivals.len() - 1) as f64 * INTERVAL_US as f64 / span_us;
                }
            }
        }
    }
    if let Some(low) = round.latencies_us.iter().copied().find(|&l| l < floor_us) {
        round.faults.push(format!(
            "a packet took {low:.1} us, under the {floor_us:.1} us emulated hop"
        ));
    }
    round
}
