//! Host-cost benchmark of the overlay: what the program's code costs the
//! machine it runs on, in wall time, CPU time, memory and allocations.
//!
//! ```text
//! hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--inject <cost>]
//! ```
//!
//! A run repeats whole rounds of its workload for `--seconds`, checks
//! every round's outputs, prints a table of every metric and, as its last
//! line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! plain and profiled rounds and reports the per-layer table. `--inject`
//! adds a known cost through the program's own configuration, for the
//! sensitivity check in README.md.

mod layers;
mod measure;
mod reference;
mod sim;
mod udp;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{median, peak_rss_mb, quantile, CountingAlloc};
use sim::{SimOptions, SimRound};
use son_overlay::FlowSpec;
use udp::UdpRound;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WORKLOADS: [&str; 4] = [
    "fwd_bare",
    "fwd_reliable_flaps",
    "route_scale_1024",
    "udp_pair",
];

/// A known cost added through the program's public configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    None,
    /// `fwd_*`: every packet carries a trace context (`trace_sample = 1`).
    TraceAll,
    /// `fwd_*`: hellos every 2 ms instead of every 100 ms.
    FastHello,
    /// `route_scale_1024`: a 10 ms LSA rebuild hold-down instead of 250 ms.
    ShortHoldDown,
    /// `udp_pair`: the anomaly watchdog on both daemons.
    Watchdog,
}

/// SplitMix64 of `seed` and a stream index: the benchmark's only source of
/// input randomness.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    inject: Inject,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject = Inject::None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--inject" => {
                inject = match value.as_str() {
                    "none" => Inject::None,
                    "trace_all" => Inject::TraceAll,
                    "fast_hello" => Inject::FastHello,
                    "short_hold_down" => Inject::ShortHoldDown,
                    "watchdog" => Inject::Watchdog,
                    _ => return Err(format!("unknown --inject {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        inject,
    })
}

/// A run's result: the operation tally and its metrics, in print order.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// The simulation fingerprint every round of the run reproduced.
    fingerprint: Option<u64>,
    faults: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.faults.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A value that is not finite is reported as 0, never as invalid
            // JSON.
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    fn print(&self, args: &Args) {
        println!(
            "hostbench {} seed {} seconds {} trace {}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        println!(
            "operations: attempted {} failed {}",
            self.attempted, self.failed
        );
        if let Some(f) = self.fingerprint {
            println!("fingerprint: {f:#018x}");
        }
        for f in &self.faults {
            println!("FAULT: {f}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<34} {value:>16.4} {unit}");
        }
        println!("{}", self.json());
    }
}

/// Runs whole rounds for `seconds`: at least one, and another only while
/// it should end within the budget at the mean pace so far, so a run never
/// overshoots by most of a round. Returns them with the process's peak
/// resident set as it stood after the first round: later rounds only reuse
/// what the first one touched, so their peak varies with the allocator's
/// fragmentation, not with the program.
fn rounds<T>(seconds: u64, mut round: impl FnMut() -> T) -> (Vec<T>, f64) {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut out = vec![round()];
    let peak = peak_rss_mb();
    while start.elapsed() + start.elapsed() / out.len() as u32 <= budget {
        out.push(round());
    }
    (out, peak)
}

/// Median over rounds of a per-round figure.
fn per_round<T>(rounds: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Collects faults and checks that every round replayed the first one.
fn sim_faults(rounds: &[SimRound], report: &mut Report) {
    for r in rounds {
        report.faults.extend(r.faults.iter().cloned());
        if (r.fingerprint, r.delivered, r.events)
            != (rounds[0].fingerprint, rounds[0].delivered, rounds[0].events)
        {
            report.faults.push(format!(
                "round diverged from the first with the same seed: fingerprint {:#x} vs {:#x}",
                r.fingerprint, rounds[0].fingerprint
            ));
        }
    }
    report.faults.dedup();
    report.fingerprint = Some(rounds[0].fingerprint);
}

fn sim_round(workload: &str, seed: u64, opts: SimOptions) -> SimRound {
    match workload {
        "fwd_bare" => sim::fwd_round(seed, false, opts),
        "fwd_reliable_flaps" => sim::fwd_round(seed, true, opts),
        _ => sim::scale_round(seed, opts),
    }
}

fn sum<T>(rounds: &[T], f: impl Fn(&T) -> f64) -> f64 {
    rounds.iter().map(f).sum()
}

fn end_to_end_sim(args: &Args) -> Report {
    let opts = SimOptions {
        profile: false,
        inject: args.inject,
    };
    let (rs, peak_rss) = rounds(args.seconds, || sim_round(&args.workload, args.seed, opts));
    let mut report = Report::default();
    sim_faults(&rs, &mut report);
    report.attempted = rs.iter().map(|r| r.sent).sum();
    report.failed = report.attempted - rs.iter().map(|r| r.delivered).sum::<u64>();
    let round_us: Vec<f64> = rs.iter().map(|r| r.run_s * 1e6).collect();
    report.metric("setup_s", per_round(&rs, |r| r.setup_s), "s");
    report.metric(
        "delivered_pkts_per_s",
        per_round(&rs, |r| r.delivered as f64 / r.run_s),
        "1/s",
    );
    report.metric("run_s", per_round(&rs, |r| r.run_s), "s");
    report.metric("peak_rss_mb", peak_rss, "MB");
    report.metric("lat_p50_us", quantile(&round_us, 0.5), "us");
    report.metric("lat_p75_us", quantile(&round_us, 0.75), "us");
    report.metric(
        "cpu_us_per_pkt",
        per_round(&rs, |r| r.cpu_ns as f64 / 1e3 / r.delivered as f64),
        "us",
    );
    report
}

/// Collects faults and the operation tally (which the last call sets).
fn udp_faults(rounds: &[UdpRound], report: &mut Report) {
    for r in rounds {
        report.faults.extend(r.faults.iter().cloned());
    }
    report.faults.dedup();
    report.attempted = rounds.iter().map(|r| r.sent).sum();
    report.failed = report.attempted - rounds.iter().map(|r| r.delivered).sum::<u64>();
}

fn end_to_end_udp(args: &Args) -> Report {
    let (rs, peak_rss) = rounds(args.seconds, || {
        udp::udp_round(args.seed, args.inject, false)
    });
    let mut report = Report::default();
    udp_faults(&rs, &mut report);
    report.metric("setup_s", per_round(&rs, |r| r.setup_s), "s");
    report.metric(
        "delivered_pkts_per_s",
        per_round(&rs, |r| r.delivered as f64 / r.run_s),
        "1/s",
    );
    report.metric("run_s", per_round(&rs, |r| r.run_s), "s");
    report.metric("peak_rss_mb", peak_rss, "MB");
    // Each round's quantile, then the median over rounds: one round that
    // met a scheduling hiccup on the host does not move the figure.
    report.metric(
        "lat_p50_us",
        per_round(&rs, |r| quantile(&r.latencies_us, 0.5)),
        "us",
    );
    report.metric(
        "lat_p75_us",
        per_round(&rs, |r| quantile(&r.latencies_us, 0.75)),
        "us",
    );
    report.metric(
        "cpu_us_per_pkt",
        per_round(&rs, |r| r.cpu_ns as f64 / 1e3 / r.delivered as f64),
        "us",
    );
    report
}

/// The per-layer figures every traced run reports: timed calls into the
/// codec, counters, topology, routing and UDP transport.
struct LayerCalls {
    counters_add_ns: f64,
    wire: layers::WireCost,
    topo: layers::TopoCost,
    lsa_ns: f64,
    udp: layers::UdpCost,
}

fn layer_calls(spec: FlowSpec) -> LayerCalls {
    let wire = layers::wire_cost(spec);
    LayerCalls {
        counters_add_ns: layers::counters_add_ns(),
        topo: layers::topo_cost(),
        lsa_ns: layers::lsa_ns(),
        // One byte of provider index precedes the codec frame on UDP.
        udp: layers::udp_cost(wire.bytes + 1),
        wire,
    }
}

/// The per-layer table. Figures a workload does not exercise read 0.
#[derive(Default)]
struct Layers {
    events_per_pkt: f64,
    ns_per_event: f64,
    tombstones_peak: f64,
    alloc_per_pkt: f64,
    alloc_bytes_per_pkt: f64,
    alloc_total_m: f64,
    reroutes: f64,
    rebuild_p50_us: f64,
    stage_ns_per_pkt: [f64; 5],
    layer_sum_share: f64,
    frames_per_pkt: f64,
    retransmits_per_pkt: f64,
    snapshot_produce_us: f64,
    telemetry_bytes_per_epoch: f64,
    trace_overhead_pct: f64,
    mem_kb_per_node: [f64; 5],
    udp_wakeups_per_pkt: f64,
    udp_lat_p99_us: f64,
    udp_cbr_send_ratio: f64,
}

const STAGES: [&str; 5] = [
    "sim.deliver",
    "node.on_message",
    "node.on_timer",
    "link.proto",
    "watch.epoch",
];
const MEM_PARTS: [&str; 4] = ["rings", "lsdb", "routing", "topo"];

fn mem_kb_per_node(footprint: &son_obs::FootprintReport, nodes: usize) -> [f64; 5] {
    let part = |label: &str| {
        footprint
            .parts()
            .iter()
            .filter(|p| p.label == label)
            .map(|p| p.bytes as f64)
            .sum::<f64>()
    };
    let per_node = |bytes: f64| bytes / 1024.0 / nodes.max(1) as f64;
    let mut out = [0.0; 5];
    for (slot, label) in out.iter_mut().zip(MEM_PARTS) {
        *slot = per_node(part(label));
    }
    out[4] = per_node(footprint.total() as f64);
    out
}

fn traced_sim(args: &Args, report: &mut Report) -> Layers {
    let plain = SimOptions {
        profile: false,
        inject: args.inject,
    };
    let profiled = SimOptions {
        profile: true,
        ..plain
    };
    // Plain and profiled rounds alternate, so load on the host weighs on
    // both alike.
    let (pairs, _) = rounds(args.seconds, || {
        (
            sim_round(&args.workload, args.seed, plain),
            sim_round(&args.workload, args.seed, profiled),
        )
    });
    let (plain, profiled): (Vec<SimRound>, Vec<SimRound>) = pairs.into_iter().unzip();
    let all: Vec<SimRound> = plain.into_iter().chain(profiled).collect();
    // The profiler must not change what the simulation does.
    sim_faults(&all, report);
    let n = all.len() / 2;
    let (plain, profiled) = all.split_at(n);
    report.attempted = plain.iter().map(|r| r.sent).sum();
    report.failed = report.attempted - plain.iter().map(|r| r.delivered).sum::<u64>();

    let r = &plain[0];
    let p = &profiled[0];
    let delivered = r.delivered.max(1) as f64;
    let run_s = per_round(plain, |r| r.run_s);
    let cpu = |rs: &[SimRound]| per_round(rs, |r| r.cpu_ns as f64);
    let mut l = Layers {
        events_per_pkt: r.events as f64 / delivered,
        ns_per_event: run_s * 1e9 / r.events.max(1) as f64,
        tombstones_peak: r.layers.tombstones_peak as f64,
        alloc_per_pkt: r.alloc.allocs as f64 / delivered,
        alloc_bytes_per_pkt: r.alloc.bytes as f64 / delivered,
        alloc_total_m: r.alloc.allocs as f64 / 1e6,
        reroutes: r.layers.reroutes as f64,
        frames_per_pkt: r.layers.frames as f64 / delivered,
        retransmits_per_pkt: r.layers.retransmits as f64 / delivered,
        snapshot_produce_us: if p.layers.snapshot_produce_ns.is_empty() {
            0.0
        } else {
            median(&p.layers.snapshot_produce_ns) / 1e3
        },
        telemetry_bytes_per_epoch: r.layers.telemetry_bytes as f64
            / r.layers.telemetry_epochs.max(1) as f64,
        trace_overhead_pct: (cpu(profiled) / cpu(plain) - 1.0) * 100.0,
        mem_kb_per_node: mem_kb_per_node(&r.layers.footprint, r.layers.nodes),
        ..Layers::default()
    };
    if let Some(perf) = &p.layers.perf {
        let stats = perf.stats();
        let stage = |label: &str| stats.iter().find(|s| s.label == label);
        for (slot, label) in l.stage_ns_per_pkt.iter_mut().zip(STAGES) {
            *slot = stage(label).map_or(0.0, |s| s.self_ns) / delivered;
        }
        l.rebuild_p50_us = stage("route.rebuild").map_or(0.0, |s| s.total_p50_ns) / 1e3;
        l.layer_sum_share = stats.iter().map(|s| s.self_ns).sum::<f64>() / (p.run_s * 1e9);
    }
    l
}

fn traced_udp(args: &Args, report: &mut Report) -> Layers {
    // The traced UDP round samples one packet in 64 for distributed
    // tracing: the daemon's profiler is not reachable through a scenario.
    let (pairs, _) = rounds(args.seconds, || {
        (
            udp::udp_round(args.seed, args.inject, false),
            udp::udp_round(args.seed, args.inject, true),
        )
    });
    let (plain, traced): (Vec<UdpRound>, Vec<UdpRound>) = pairs.into_iter().unzip();
    udp_faults(&traced, report);
    udp_faults(&plain, report);
    let delivered = sum(&plain, |r| r.delivered as f64);
    let cpu_per_pkt =
        |rs: &[UdpRound]| sum(rs, |r| r.cpu_ns as f64) / sum(rs, |r| r.delivered as f64);
    let lat: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    let r = &plain[0];
    Layers {
        alloc_per_pkt: sum(&plain, |r| r.alloc.allocs as f64) / delivered,
        alloc_bytes_per_pkt: sum(&plain, |r| r.alloc.bytes as f64) / delivered,
        alloc_total_m: r.alloc.allocs as f64 / 1e6,
        reroutes: r.reroutes as f64,
        frames_per_pkt: r.frames as f64 / r.delivered.max(1) as f64,
        trace_overhead_pct: (cpu_per_pkt(&traced) / cpu_per_pkt(&plain) - 1.0) * 100.0,
        mem_kb_per_node: mem_kb_per_node(&r.footprint, 2),
        udp_wakeups_per_pkt: sum(&plain, |r| r.switches as f64) / delivered,
        udp_lat_p99_us: quantile(&lat, 0.99),
        udp_cbr_send_ratio: per_round(&plain, |r| r.cbr_ratio),
        ..Layers::default()
    }
}

fn per_layer(args: &Args) -> Report {
    let mut report = Report::default();
    let l = if args.workload == "udp_pair" {
        traced_udp(args, &mut report)
    } else {
        traced_sim(args, &mut report)
    };
    let spec = if args.workload == "fwd_reliable_flaps" {
        FlowSpec::reliable()
    } else {
        FlowSpec::best_effort()
    };
    let c = layer_calls(spec);
    let m = &mut report;
    m.metric("netsim.events_per_pkt", l.events_per_pkt, "count");
    m.metric("netsim.ns_per_event", l.ns_per_event, "ns");
    m.metric("netsim.queue_tombstones_peak", l.tombstones_peak, "count");
    m.metric("netsim.counters_add_ns", c.counters_add_ns, "ns");
    m.metric("alloc.per_pkt", l.alloc_per_pkt, "count");
    m.metric("alloc.bytes_per_pkt", l.alloc_bytes_per_pkt, "B");
    m.metric("alloc.total_m", l.alloc_total_m, "Mcount");
    m.metric("wire.data_encode_ns", c.wire.encode_ns, "ns");
    m.metric("wire.data_decode_ns", c.wire.decode_ns, "ns");
    m.metric("wire.recode_ns", c.wire.recode_ns, "ns");
    m.metric("wire.data_bytes", c.wire.bytes as f64, "B");
    m.metric("topo.snapshot_build_us", c.topo.snapshot_build_us, "us");
    m.metric("topo.spt_us", c.topo.spt_us, "us");
    m.metric("routing.lsa_ns", c.lsa_ns, "ns");
    m.metric("routing.reroutes", l.reroutes, "count");
    m.metric("routing.rebuild_p50_us", l.rebuild_p50_us, "us");
    const STAGE_METRICS: [&str; 5] = [
        "perf.sim.deliver_ns_per_pkt",
        "perf.node.on_message_ns_per_pkt",
        "perf.node.on_timer_ns_per_pkt",
        "perf.link.proto_ns_per_pkt",
        "perf.watch.epoch_ns_per_pkt",
    ];
    for (name, v) in STAGE_METRICS.into_iter().zip(l.stage_ns_per_pkt) {
        m.metric(name, v, "ns");
    }
    m.metric("perf.layer_sum_share", l.layer_sum_share, "ratio");
    m.metric("link.frames_per_pkt", l.frames_per_pkt, "count");
    m.metric("link.retransmits_per_pkt", l.retransmits_per_pkt, "count");
    m.metric("obs.snapshot_produce_us", l.snapshot_produce_us, "us");
    m.metric(
        "obs.telemetry_bytes_per_epoch",
        l.telemetry_bytes_per_epoch,
        "B",
    );
    m.metric("trace.overhead_pct", l.trace_overhead_pct, "%");
    const MEM_METRICS: [&str; 5] = [
        "mem.rings_kb_per_node",
        "mem.lsdb_kb_per_node",
        "mem.routing_kb_per_node",
        "mem.topo_kb_per_node",
        "mem.total_kb_per_node",
    ];
    for (name, v) in MEM_METRICS.into_iter().zip(l.mem_kb_per_node) {
        m.metric(name, v, "KB");
    }
    m.metric("udp.send_ns", c.udp.send_ns, "ns");
    m.metric("udp.recv_ns", c.udp.recv_ns, "ns");
    m.metric("udp.wakeups_per_pkt", l.udp_wakeups_per_pkt, "count");
    m.metric("udp.lat_p99_us", l.udp_lat_p99_us, "us");
    m.metric("udp.cbr_send_ratio", l.udp_cbr_send_ratio, "ratio");
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match (args.trace, args.workload.as_str()) {
        (false, "udp_pair") => end_to_end_udp(&args),
        (false, _) => end_to_end_sim(&args),
        (true, _) => per_layer(&args),
    };
    report.print(&args);
    ExitCode::SUCCESS
}
