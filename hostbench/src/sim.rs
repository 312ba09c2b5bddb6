//! The simulated workloads: forwarding over the 12-city continental
//! overlay (`fwd_bare`, `fwd_reliable_flaps`) and the n=1024 control plane
//! (`route_scale_1024`).
//!
//! Each round builds a fresh simulation from the seed, so every round of a
//! run replays the same event sequence; the checks compare each round's
//! fingerprint with the first one's.

use std::time::Instant;

use son_netsim::process::ProcessId;
use son_netsim::scenario::{continental_us, DEFAULT_CONVERGENCE};
use son_netsim::sim::{ScenarioEvent, Simulation};
use son_netsim::time::{SimDuration, SimTime};
use son_obs::snapshot::SnapshotProducer;
use son_obs::{FootprintReport, PerfRegistry};
use son_overlay::builder::{continental_overlay, OverlayBuilder, OverlayHandle};
use son_overlay::client::{ClientConfig, ClientFlow, ClientProcess, Workload};
use son_overlay::node::OverlayNode;
use son_overlay::service::LinkService;
use son_overlay::state::connectivity::ConnectivityConfig;
use son_overlay::watch::WatchConfig;
use son_overlay::{Destination, FlowSpec, NodeConfig, OverlayAddr, Wire};
use son_topo::{EdgeId, Graph, NodeId};

use crate::measure::{thread_cpu_ns, AllocCount};
use crate::reference::RefGraph;
use crate::{mix, Inject};

const RX_PORT: u16 = 70;
const TX_PORT: u16 = 50;

/// Telemetry epoch of the deployed observability stack (matches the UDP
/// daemon's 500 ms emitter).
const TELEMETRY_EPOCH: SimDuration = SimDuration::from_millis(500);

/// What one round measured. Times cover only the measured phase: set-up
/// and the benchmark's own checks are outside it.
#[derive(Debug, Default)]
pub struct SimRound {
    pub setup_s: f64,
    pub run_s: f64,
    pub cpu_ns: u64,
    pub sent: u64,
    pub delivered: u64,
    pub events: u64,
    pub alloc: AllocCount,
    pub fingerprint: u64,
    /// Descriptions of failed correctness checks (empty when correct).
    pub faults: Vec<String>,
    pub layers: SimLayers,
}

/// Per-layer figures read from the program after a round.
#[derive(Debug, Default)]
pub struct SimLayers {
    pub tombstones_peak: u64,
    pub reroutes: u64,
    pub frames: u64,
    pub retransmits: u64,
    pub footprint: FootprintReport,
    pub nodes: usize,
    pub telemetry_bytes: u64,
    pub telemetry_epochs: u64,
    pub snapshot_produce_ns: Vec<f64>,
    /// Profiler stages, absorbed over the simulation and every daemon;
    /// present only on profiled rounds.
    pub perf: Option<PerfRegistry>,
}

/// The sim-side settings a round runs with.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Profile the measured phase with the program's `PerfRegistry`.
    pub profile: bool,
    pub inject: Inject,
}

/// Accounting for one measured phase of a round: CPU, wall,
/// allocations, events.
struct Meter {
    wall: Instant,
    cpu: u64,
    alloc: AllocCount,
    events: u64,
}

impl Meter {
    fn start(sim: &Simulation<Wire>) -> Meter {
        Meter {
            events: sim.events_processed(),
            alloc: AllocCount::now(),
            cpu: thread_cpu_ns(),
            wall: Instant::now(),
        }
    }

    fn stop(self, sim: &Simulation<Wire>, round: &mut SimRound) {
        round.run_s += self.wall.elapsed().as_secs_f64();
        round.cpu_ns += thread_cpu_ns() - self.cpu;
        let a = AllocCount::since(self.alloc);
        round.alloc.allocs += a.allocs;
        round.alloc.bytes += a.bytes;
        round.events += sim.events_processed() - self.events;
    }
}

fn enable_profiling(sim: &mut Simulation<Wire>, overlay: &OverlayHandle) {
    sim.enable_perf();
    for &d in &overlay.daemons {
        let perf = sim.proc_ref::<OverlayNode>(d).expect("daemon").obs().perf();
        perf.set_enabled(true);
        perf.set_sample_every(son_obs::PERF_SAMPLE_EVERY);
    }
}

fn harvest_layers(
    sim: &Simulation<Wire>,
    overlay: &OverlayHandle,
    service: LinkService,
    profile: bool,
    layers: &mut SimLayers,
) {
    layers.tombstones_peak = sim.queue_stats().tombstones_peak as u64;
    layers.nodes = overlay.daemons.len();
    let merged = PerfRegistry::new(false);
    for &d in &overlay.daemons {
        let node = sim.proc_ref::<OverlayNode>(d).expect("daemon");
        layers.reroutes += node.metrics().counters.get("reroutes");
        let s = node.service_stats(service);
        layers.frames += s.sent + s.retransmitted + s.ctl_sent;
        layers.retransmits += s.retransmitted;
        layers.footprint.merge(&node.footprint());
        if profile {
            merged.absorb(node.obs().perf());
        }
    }
    if profile {
        if let Some(p) = sim.perf() {
            merged.absorb(p);
        }
        layers.perf = Some(merged);
    }
}

/// One unicast flow of a workload, with its receive-side floor.
struct Flow {
    tx: ProcessId,
    rx: ProcessId,
    count: u64,
    /// Propagation floor of the flow's best path, ms, from the reference
    /// shortest paths.
    floor_ms: f64,
}

#[allow(clippy::too_many_arguments)]
fn add_flow(
    sim: &mut Simulation<Wire>,
    overlay: &OverlayHandle,
    k: usize,
    src: usize,
    dst: usize,
    spec: FlowSpec,
    workload: Workload,
    count: u64,
    floor_ms: f64,
) -> Flow {
    let port = RX_PORT + k as u16;
    let rx = sim.add_process(ClientProcess::new(ClientConfig {
        daemon: overlay.daemon(NodeId(dst)),
        port,
        joins: vec![],
        flows: vec![],
    }));
    let tx = sim.add_process(ClientProcess::new(ClientConfig {
        daemon: overlay.daemon(NodeId(src)),
        port: TX_PORT + k as u16,
        joins: vec![],
        flows: vec![ClientFlow {
            local_flow: 1,
            dst: Destination::Unicast(OverlayAddr::new(NodeId(dst), port)),
            spec,
            workload,
        }],
    }));
    Flow {
        tx,
        rx,
        count,
        floor_ms,
    }
}

/// Checks every flow's delivery: what was sent arrived exactly once, and
/// nothing arrived sooner than its propagation floor. Returns
/// `(sent, delivered)`; lost packets count as failed operations, anything
/// else wrong is a fault.
fn check_flows(sim: &Simulation<Wire>, flows: &[Flow], faults: &mut Vec<String>) -> (u64, u64) {
    let (mut sent, mut delivered) = (0, 0);
    for (k, f) in flows.iter().enumerate() {
        let tx = sim.proc_ref::<ClientProcess>(f.tx).expect("sender");
        let rx = sim.proc_ref::<ClientProcess>(f.rx).expect("receiver");
        let s = tx.sent(1);
        if s != f.count {
            faults.push(format!("flow {k}: sent {s} of {}", f.count));
        }
        sent += s;
        let Some(r) = rx.recv.values().next() else {
            continue;
        };
        delivered += r.received;
        if r.app_duplicates > 0 {
            faults.push(format!("flow {k}: {} duplicates", r.app_duplicates));
        }
        let first = r.latencies_ms.iter().copied().fold(f64::INFINITY, f64::min);
        if first < f.floor_ms - 1e-9 {
            faults.push(format!(
                "flow {k}: a packet took {first:.3} ms, under the {:.3} ms propagation floor",
                f.floor_ms
            ));
        }
    }
    (sent, delivered)
}

fn ref_graph(g: &Graph) -> RefGraph {
    RefGraph {
        nodes: g.node_count(),
        edges: g
            .edges()
            .map(|e| {
                let (a, b) = g.endpoints(e);
                (a.0, b.0, g.weight(e))
            })
            .collect(),
    }
}

/// Overlay nodes of the 12-city deployment; flow `k` runs from city `k` to
/// city `k + 6`, so every city sends and receives one flow.
const CITIES: usize = 12;
/// Packets per flow per round, one every millisecond.
const FWD_COUNT: u64 = 4000;
const FWD_INTERVAL: SimDuration = SimDuration::from_millis(1);
/// Smallest packet: per-packet costs dominate.
const FWD_SIZE: usize = 64;
/// Traffic starts once routes have converged.
const FWD_START: SimTime = SimTime::from_millis(1000);
/// After the last packet: time for retransmissions and the last flap's
/// repair to land everything in flight.
const FWD_DRAIN: SimDuration = SimDuration::from_millis(2000);
/// Flap cadence on `fwd_reliable_flaps`: one overlay link goes down for
/// `FLAP_DOWN` at the start of every `FLAP_PERIOD`.
const FLAP_PERIOD: SimDuration = SimDuration::from_secs(2);
const FLAP_DOWN: SimDuration = SimDuration::from_secs(1);

/// One round of `fwd_bare` (`reliable == false`) or `fwd_reliable_flaps`.
pub fn fwd_round(seed: u64, reliable: bool, opts: SimOptions) -> SimRound {
    let mut round = SimRound::default();
    let setup = Instant::now();
    let sc = continental_us(DEFAULT_CONVERGENCE);
    let (topo, cities) = continental_overlay(&sc);
    assert_eq!(
        topo.node_count(),
        CITIES,
        "the continental overlay has 12 cities"
    );
    let mut sim: Simulation<Wire> = Simulation::new(mix(seed, 1));
    sim.set_underlay(sc.underlay);
    let mut config = NodeConfig::default();
    if reliable {
        // The deployed observability stack: 1-in-64 trace sampling and the
        // watchdog (telemetry is produced per epoch below).
        config.trace_sample = 64;
        config.watch = Some(WatchConfig::default());
    }
    match opts.inject {
        Inject::TraceAll => config.trace_sample = 1,
        Inject::FastHello => config.connectivity.hello_interval = SimDuration::from_millis(2),
        _ => {}
    }
    let overlay = OverlayBuilder::new(topo.clone())
        .place_in_cities(cities)
        .node_config(config)
        .build(&mut sim);
    let reference = ref_graph(&topo);
    let spec = if reliable {
        FlowSpec::reliable()
    } else {
        FlowSpec::best_effort()
    };
    let flows: Vec<Flow> = (0..CITIES)
        .map(|k| {
            let (src, dst) = (k, (k + CITIES / 2) % CITIES);
            // The seed staggers each flow's phase within the send interval.
            let offset =
                SimDuration::from_nanos(mix(seed, 100 + k as u64) % FWD_INTERVAL.as_nanos());
            let workload = Workload::Cbr {
                size: FWD_SIZE,
                interval: FWD_INTERVAL,
                count: FWD_COUNT,
                start: FWD_START + offset,
            };
            let floor = reference.distances(src, |_| true)[dst];
            add_flow(
                &mut sim, &overlay, k, src, dst, spec, workload, FWD_COUNT, floor,
            )
        })
        .collect();
    let traffic_end = FWD_START + FWD_INTERVAL * FWD_COUNT + FWD_INTERVAL;
    let horizon = traffic_end + FWD_DRAIN;
    if reliable {
        // The overlay's links flap in topology order, the same for every
        // seed: which link goes down sets how much work a round does.
        let edges: Vec<EdgeId> = topo.edges().collect();
        let mut at = FWD_START + FLAP_DOWN / 2;
        for &victim in edges.iter().cycle() {
            if at + FLAP_DOWN >= traffic_end {
                break;
            }
            for &(ab, ba) in &overlay.edge_pipes[&victim] {
                for pipe in [ab, ba] {
                    sim.schedule(at, ScenarioEvent::DisablePipe(pipe));
                    sim.schedule(at + FLAP_DOWN, ScenarioEvent::EnablePipe(pipe));
                }
            }
            at += FLAP_PERIOD;
        }
    }
    // Warm-up: hellos and the first LSA flood, to converged routes.
    sim.run_until(FWD_START);
    round.setup_s = setup.elapsed().as_secs_f64();
    for &d in &overlay.daemons {
        let node = sim.proc_ref::<OverlayNode>(d).expect("daemon");
        if let Some(miss) = (0..CITIES).find(|&i| !node.reaches(NodeId(i))) {
            round.faults.push(format!(
                "{} has no route to {miss} after warm-up",
                node.id()
            ));
        }
    }
    if opts.profile {
        enable_profiling(&mut sim, &overlay);
    }

    let mut producers: Vec<SnapshotProducer> = (0..overlay.daemons.len())
        .map(|i| SnapshotProducer::new(i as u32))
        .collect();
    let layers = &mut round.layers;
    let meter = Meter::start(&sim);
    sim.run_with_cadence(horizon, TELEMETRY_EPOCH, |sim, at, _wall| {
        if !reliable {
            return;
        }
        layers.telemetry_epochs += 1;
        for (&d, producer) in overlay.daemons.iter().zip(producers.iter_mut()) {
            let node = sim.proc_ref::<OverlayNode>(d).expect("daemon");
            let t = opts.profile.then(Instant::now);
            let snap = producer.produce(
                at.as_nanos(),
                0,
                node.obs().registry(),
                &node.telemetry_health(),
            );
            if let Some(t) = t {
                layers
                    .snapshot_produce_ns
                    .push(t.elapsed().as_secs_f64() * 1e9);
            }
            let frame = snap.encode().expect("a snapshot of 12 nodes encodes");
            layers.telemetry_bytes += frame.len() as u64;
        }
    });
    meter.stop(&sim, &mut round);

    let service = if reliable {
        LinkService::Reliable
    } else {
        LinkService::BestEffort
    };
    (round.sent, round.delivered) = check_flows(&sim, &flows, &mut round.faults);
    harvest_layers(&sim, &overlay, service, opts.profile, &mut round.layers);
    round.fingerprint = sim.fingerprint();
    round
}

/// Overlay size of `route_scale_1024`.
pub const SCALE_N: usize = 1024;
/// Ring links of 2 ms keep a flood across the ring (about 256 hops) near
/// half a second, so cold start, the cut and the repair each settle within
/// a few simulated seconds, short of the 5 s periodic LSA refresh.
const SCALE_HOP_MS: f64 = 2.0;
/// The LSA rebuild hold-down the scale deployment runs with; without it
/// cold start is a rebuild storm (every daemon rebuilds once per arriving
/// LSA).
const SCALE_HOLD_DOWN: SimDuration = SimDuration::from_millis(250);
/// The hold-down the sensitivity check swaps in.
const SCALE_HOLD_DOWN_SHORT: SimDuration = SimDuration::from_millis(10);
const PROBES: usize = 4;
const PROBE_HOPS: usize = 20;
const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(5);
/// Probe packets per flow: they run from `PROBE_START` across the cut and
/// the repair.
const PROBE_COUNT: u64 = 500;
/// Timeline: cold start converges by `CUT_AT`; the cut has flooded
/// everywhere by `RESTORE_AT`; the repair by `SCALE_END`.
const PROBE_START: SimTime = SimTime::from_millis(1200);
const CUT_AT: SimTime = SimTime::from_millis(1500);
const RESTORE_AT: SimTime = SimTime::from_millis(3200);
const SCALE_END: SimTime = SimTime::from_millis(4500);

/// The ring-with-chords overlay of the scale experiments: a ring of `n`
/// nodes, plus a chord from `i` to `i + n/2` every 16 positions on the
/// first half (the repository's `scale_topology`, restated here because the
/// benchmark uses only the overlay crates).
pub fn scale_topology(n: usize, hop_ms: f64) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(NodeId(i), NodeId((i + 1) % n), hop_ms);
    }
    for i in (0..n / 2).step_by(16) {
        g.add_edge(NodeId(i), NodeId(i + n / 2), hop_ms * 1.5);
    }
    g
}

/// Checks every daemon's settled view against the truth: its usable edges
/// are exactly the live ones, and it routes to every node the reference
/// shortest paths reach over them.
fn check_views(
    sim: &Simulation<Wire>,
    overlay: &OverlayHandle,
    reference: &RefGraph,
    down: Option<EdgeId>,
    when: &str,
    faults: &mut Vec<String>,
) {
    let live = |e: usize| Some(EdgeId(e)) != down;
    let reach = reference.distances(0, live);
    let mut wrong_view = 0;
    let mut wrong_reach = 0;
    for &d in &overlay.daemons {
        let node = sim.proc_ref::<OverlayNode>(d).expect("daemon");
        let view = node.connectivity().current_graph();
        // A link advertised down is priced out of path computation.
        if view.edges().any(|e| (view.weight(e) < 1e11) != live(e.0)) {
            wrong_view += 1;
        }
        if (0..reference.nodes).any(|i| node.reaches(NodeId(i)) != reach[i].is_finite()) {
            wrong_reach += 1;
        }
    }
    if wrong_view > 0 {
        faults.push(format!(
            "{when}: {wrong_view} daemons' views differ from the true edge set"
        ));
    }
    if wrong_reach > 0 {
        faults.push(format!(
            "{when}: {wrong_reach} daemons' routes differ from the reference reachability"
        ));
    }
}

/// A built `route_scale_1024` deployment, before its first event.
struct ScaleDeployment {
    sim: Simulation<Wire>,
    overlay: OverlayHandle,
    reference: RefGraph,
    flows: Vec<Flow>,
    victim: EdgeId,
}

fn build_scale(seed: u64, inject: Inject) -> ScaleDeployment {
    let topo = scale_topology(SCALE_N, SCALE_HOP_MS);
    let reference = ref_graph(&topo);
    let mut sim: Simulation<Wire> = Simulation::new(mix(seed, 3));
    let hold_down = if inject == Inject::ShortHoldDown {
        SCALE_HOLD_DOWN_SHORT
    } else {
        SCALE_HOLD_DOWN
    };
    let config = NodeConfig {
        connectivity: ConnectivityConfig {
            rebuild_hold_down: hold_down,
            ..ConnectivityConfig::default()
        },
        ..NodeConfig::default()
    };
    let overlay = OverlayBuilder::new(topo)
        .node_config(config)
        .build(&mut sim);
    // The seed picks the ring link to cut; edge `i` of the ring joins
    // nodes `i` and `i + 1`.
    let victim = EdgeId((mix(seed, 4) % SCALE_N as u64) as usize);
    let flows: Vec<Flow> = (0..PROBES)
        .map(|k| {
            // Spread the probes around the ring, starting a quarter turn
            // away from the cut.
            let src = (victim.0 + SCALE_N / 4 + k * SCALE_N / (2 * PROBES)) % SCALE_N;
            let dst = (src + PROBE_HOPS) % SCALE_N;
            let all = reference.distances(src, |_| true)[dst];
            let without = reference.distances(src, |e| e != victim.0)[dst];
            assert_eq!(all, without, "probe {k} must not depend on the cut edge");
            let workload = Workload::Cbr {
                size: FWD_SIZE,
                interval: PROBE_INTERVAL,
                count: PROBE_COUNT,
                start: PROBE_START,
            };
            add_flow(
                &mut sim,
                &overlay,
                k,
                src,
                dst,
                FlowSpec::best_effort(),
                workload,
                PROBE_COUNT,
                all,
            )
        })
        .collect();
    for &(ab, ba) in &overlay.edge_pipes[&victim] {
        for pipe in [ab, ba] {
            sim.schedule(CUT_AT, ScenarioEvent::DisablePipe(pipe));
            sim.schedule(RESTORE_AT, ScenarioEvent::EnablePipe(pipe));
        }
    }
    ScaleDeployment {
        sim,
        overlay,
        reference,
        flows,
        victim,
    }
}

/// One round of `route_scale_1024`: cold start, then one ring link cut
/// and restored, with a few probe flows placed off the cut edge.
pub fn scale_round(seed: u64, opts: SimOptions) -> SimRound {
    let mut round = SimRound::default();
    let setup = Instant::now();
    let ScaleDeployment {
        mut sim,
        overlay,
        reference,
        flows,
        victim,
    } = build_scale(seed, opts.inject);
    round.setup_s = setup.elapsed().as_secs_f64();
    if opts.profile {
        enable_profiling(&mut sim, &overlay);
    }

    for (until, down, when) in [
        (CUT_AT, None, "cold start"),
        (RESTORE_AT, Some(victim), "link cut"),
        (SCALE_END, None, "link restored"),
    ] {
        let meter = Meter::start(&sim);
        sim.run_until(until);
        meter.stop(&sim, &mut round);
        check_views(&sim, &overlay, &reference, down, when, &mut round.faults);
    }
    (round.sent, round.delivered) = check_flows(&sim, &flows, &mut round.faults);
    harvest_layers(
        &sim,
        &overlay,
        LinkService::BestEffort,
        opts.profile,
        &mut round.layers,
    );
    round.fingerprint = sim.fingerprint();
    round
}
