//! Timed calls into single layers through their public functions, for the
//! traced run's per-layer table. Each figure is the median over several
//! batches, in nanoseconds per call unless its name says otherwise.

use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

use bytes::Bytes;
use son_netsim::driver::Transport;
use son_netsim::stats::Counters;
use son_netsim::time::SimTime;
use son_node::UdpTransport;
use son_overlay::packet::{LinkAdvert, Lsa};
use son_overlay::routing::Forwarding;
use son_overlay::state::connectivity::{ConnAction, ConnectivityConfig, ConnectivityMonitor};
use son_overlay::{wire, DataPacket, Destination, FlowKey, FlowSpec, OverlayAddr, Wire};
use son_topo::{EdgeId, NodeId, SptScratch, TopoSnapshot};

use crate::measure::median;
use crate::sim::{scale_topology, SCALE_N};
use crate::udp::loopback_addrs;

const BATCHES: usize = 7;

/// Median over [`BATCHES`] of the time per call of `f`, called `per_batch`
/// times a batch, in ns.
fn per_call_ns(per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..per_batch {
                f(i);
            }
            t.elapsed().as_secs_f64() * 1e9 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// `Counters::add` with the keys the simulator bumps per delivered packet.
pub fn counters_add_ns() -> f64 {
    let mut c = Counters::new();
    let keys = ["pipe.delivered", "pipe.bytes", "data.pipe.delivered"];
    per_call_ns(100_000, |i| c.add(black_box(keys[i % keys.len()]), 1))
}

/// A data frame of the forwarding workloads: 64 B payload, mid-path.
fn data_frame(spec: FlowSpec) -> Wire {
    Wire::Data(DataPacket {
        flow: FlowKey::new(
            OverlayAddr::new(NodeId(0), 50),
            Destination::Unicast(OverlayAddr::new(NodeId(6), 70)),
        ),
        flow_seq: 123_456,
        origin: NodeId(0),
        spec,
        mask: None,
        resolved_dst: None,
        link_seq: 98_765,
        created_at: SimTime::from_millis(1234),
        size: 64,
        payload: Bytes::new(),
        ttl: 31,
        auth_tag: 0,
        trace: None,
    })
}

pub struct WireCost {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub recode_ns: f64,
    pub bytes: usize,
}

pub fn wire_cost(spec: FlowSpec) -> WireCost {
    let frame = data_frame(spec);
    let bytes = wire::encode(&frame).expect("a data frame encodes");
    let mut buf = Vec::with_capacity(bytes.len());
    WireCost {
        encode_ns: per_call_ns(50_000, |_| {
            buf.clear();
            wire::encode_into(black_box(&frame), &mut buf).expect("encodes");
        }),
        decode_ns: per_call_ns(50_000, |_| {
            black_box(wire::decode(black_box(&bytes)).expect("decodes"));
        }),
        recode_ns: per_call_ns(50_000, |_| {
            black_box(wire::recode(black_box(&frame)).expect("recodes"));
        }),
        bytes: bytes.len(),
    }
}

pub struct TopoCost {
    pub snapshot_build_us: f64,
    pub spt_us: f64,
}

/// Builds the n=1024 shared view and one shortest-path tree over it.
pub fn topo_cost() -> TopoCost {
    let g = scale_topology(SCALE_N, 10.0);
    let snap = TopoSnapshot::new(g.clone());
    let mut scratch = SptScratch::new();
    TopoCost {
        snapshot_build_us: per_call_ns(20, |_| {
            black_box(TopoSnapshot::new(black_box(g.clone())));
        }) / 1e3,
        spt_us: per_call_ns(50, |i| {
            black_box(snap.spt(NodeId(i % SCALE_N), &mut scratch));
        }) / 1e3,
    }
}

/// One LSA in `CHANGE_PERIOD` is a real change; the rest are periodic
/// refreshes with identical link state.
const CHANGE_PERIOD: usize = 10;

/// `ConnectivityMonitor::on_lsa` at n=1024 plus the route install a real
/// change triggers, per LSA.
pub fn lsa_ns() -> f64 {
    let g = scale_topology(SCALE_N, 10.0);
    let me = NodeId(0);
    let links: Vec<(EdgeId, usize, f64)> =
        g.neighbors(me).map(|(_, e)| (e, 1, g.weight(e))).collect();
    let mut mon = ConnectivityMonitor::new(me, g.clone(), links, ConnectivityConfig::default());
    let mut fwd = Forwarding::new(me, g.clone());
    let origin = NodeId(SCALE_N / 2 + 3);
    let incident: Vec<EdgeId> = g.neighbors(origin).map(|(_, e)| e).collect();
    let stream: Vec<Lsa> = (0..2000)
        .map(|i| Lsa {
            origin,
            seq: i as u64 + 1,
            links: incident
                .iter()
                .map(|&edge| LinkAdvert {
                    edge,
                    up: true,
                    latency_ms: if (i / CHANGE_PERIOD).is_multiple_of(2) {
                        10.0
                    } else {
                        12.0
                    },
                    loss: 0.0,
                })
                .collect(),
        })
        .collect();
    let mut out = Vec::new();
    let probe = NodeId(SCALE_N / 3);
    let t = Instant::now();
    for lsa in &stream {
        out.clear();
        mon.on_lsa(SimTime::ZERO, lsa.clone(), None, &mut out);
        if out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)) {
            fwd.install(mon.snapshot(), mon.version());
        }
        black_box(fwd.unicast_next_hop(probe));
    }
    t.elapsed().as_secs_f64() * 1e9 / stream.len() as f64
}

pub struct UdpCost {
    pub send_ns: f64,
    pub recv_ns: f64,
}

/// `UdpTransport::send_to` and `recv_from` per datagram on loopback, with
/// frames the size of the workload's data frames. Batches stay well under
/// the socket's receive buffer so nothing is dropped.
pub fn udp_cost(frame_bytes: usize) -> UdpCost {
    let [a, b] = loopback_addrs();
    let bind = |me: SocketAddr, peer: SocketAddr| {
        UdpTransport::bind(me, vec![None, Some(peer)]).expect("bind a loopback port")
    };
    let mut tx = bind(a, b);
    let mut rx = bind(b, a);
    let frame = vec![0u8; frame_bytes];
    const PER_BATCH: usize = 100;
    let (mut send, mut recv) = (Vec::new(), Vec::new());
    for _ in 0..30 {
        let t = Instant::now();
        for _ in 0..PER_BATCH {
            tx.send_to(1, &frame).expect("loopback send");
        }
        send.push(t.elapsed().as_secs_f64() * 1e9 / PER_BATCH as f64);
        // Let the kernel finish queueing before timing the reads.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t = Instant::now();
        let mut got = 0;
        // Loopback should drop nothing; the deadline only keeps a lost
        // datagram from hanging the run.
        while got < PER_BATCH && t.elapsed() < std::time::Duration::from_secs(1) {
            if rx.recv_from().expect("loopback receive").is_some() {
                got += 1;
            }
        }
        recv.push(t.elapsed().as_secs_f64() * 1e9 / got.max(1) as f64);
    }
    UdpCost {
        send_ns: median(&send),
        recv_ns: median(&recv),
    }
}
