//! Capture: write a Wireshark-readable pcap of a whole internetwork.
//!
//! Attaches a frame tap to every link, runs a mixed workload (ping, UDP
//! echo, a TCP transfer with loss), and writes `catenet.pcap` — open it
//! in Wireshark and watch the 1988 architecture on the wire: handshake,
//! fragmentation, retransmission, ICMP errors, RIP chatter.
//!
//! ```sh
//! cargo run --example capture && wireshark catenet.pcap
//! ```

use catenet::sim::pcap::{LinkType, PcapWriter};
use catenet::sim::{Duration, LinkParams};
use catenet::stack::app::{BulkSender, SinkServer, UdpEchoServer};
use catenet::stack::iface::Framing;
use catenet::stack::{Endpoint, Network, TcpConfig};
use std::fs::File;
use std::sync::{Arc, Mutex};

fn main() -> std::io::Result<()> {
    let mut net = Network::new(2024);
    let h1 = net.add_host("h1");
    let g = net.add_gateway("g");
    let h2 = net.add_host("h2");
    // Raw-IP framing everywhere so the pcap uses LINKTYPE_RAW.
    net.connect_with(
        h1,
        g,
        catenet::sim::LinkClass::T1Terrestrial.params(),
        Framing::RawIp,
    );
    net.connect_with(
        g,
        h2,
        LinkParams {
            loss: 0.03, // make the retransmissions visible
            ..catenet::sim::LinkClass::SlipLine.params()
        },
        Framing::RawIp,
    );

    let writer = Arc::new(Mutex::new(PcapWriter::new(
        File::create("catenet.pcap")?,
        LinkType::RawIp,
    )?));
    let tap_writer = Arc::clone(&writer);
    net.set_tap(Box::new(move |at, frame| {
        let _ = tap_writer.lock().unwrap().record(at, frame);
    }));

    net.converge_routing(Duration::from_secs(30));
    let dst = net.node(h2).primary_addr();

    // Ping (watch ICMP echo + fragmentation of a big probe).
    let now = net.now();
    net.node_mut(h1).send_ping(dst, 7, 1, 600, now);
    net.kick(h1);

    // UDP echo.
    net.attach_app(h2, Box::new(UdpEchoServer::new(7)));
    let sock = net.node_mut(h1).udp_bind(40_000);
    let echo = b"echo across the catenet";
    net.node_mut(h1).udp_send(sock, Endpoint::new(dst, 7), echo.len(), now, |p| {
        p.copy_from_slice(echo);
    });
    net.kick(h1);

    // A lossy TCP transfer (watch SYN, slow start, retransmits, FIN).
    net.attach_app(h2, Box::new(SinkServer::new(80, TcpConfig::default())));
    let start = net.now();
    let sender = BulkSender::new(Endpoint::new(dst, 80), 20_000, TcpConfig::default(), start);
    let result = sender.result_handle();
    net.attach_app(h1, Box::new(sender));

    net.run_for(Duration::from_secs(120));

    let packets = writer.lock().unwrap().packets();
    drop(net); // release the tap's clone of the writer
    let Ok(writer) = Arc::try_unwrap(writer) else { panic!("tap released") };
    writer.into_inner().expect("writer lock clean").finish()?;
    let result = result.lock().unwrap();
    println!(
        "wrote catenet.pcap: {packets} frames (transfer {}, {} retransmits)",
        if result.completed_at.is_some() { "completed" } else { "incomplete" },
        result.retransmits,
    );
    Ok(())
}
