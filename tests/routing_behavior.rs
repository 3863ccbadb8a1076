//! Network-level routing behavior: policy boundaries, path preference,
//! TTL exhaustion, and routing-protocol hygiene — the "distributed
//! management" goal exercised through the full stack.

use catenet::routing::{DvConfig, ExportPolicy, GuardPolicy, NeighborVerdicts, INFINITY_METRIC};
use catenet::sim::{Duration, LinkClass};
use catenet::stack::{Network, NodeId};
use catenet::telemetry::Scope;
use catenet::wire::{Icmpv4Message, Ipv4Address, TimeExceeded};

#[test]
fn export_policy_can_hide_a_region() {
    // as1(h1—g1) — g2(border) — as2(g3—h2). The border gateway g2
    // refuses to export anything toward g1: h1 can reach g2's own
    // networks but nothing beyond — policy, not topology, decides.
    let mut net = Network::new(61);
    let h1 = net.add_host("h1");
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    let g3 = net.add_gateway("g3");
    let h2 = net.add_host("h2");
    net.connect(h1, g1, LinkClass::EthernetLan);
    net.connect(g1, g2, LinkClass::T1Terrestrial); // g2's iface 0
    net.connect(g2, g3, LinkClass::T1Terrestrial);
    net.connect(g3, h2, LinkClass::EthernetLan);
    // g2 exports NOTHING toward g1.
    net.node_mut(g2).dv_policies[0] = ExportPolicy::Only(vec![]);
    net.converge_routing(Duration::from_secs(90));

    let dst = net.node(h2).primary_addr();
    let now = net.now();
    net.node_mut(h1).send_ping(dst, 1, 1, 16, now);
    net.kick(h1);
    net.run_for(Duration::from_secs(3));
    let events = net.node_mut(h1).take_icmp_events();
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.message, Icmpv4Message::EchoReply { .. })),
        "policy hid the far region: {events:?}"
    );
    // g1 knows no route, so it reports unreachable.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.message, Icmpv4Message::DstUnreachable(_))),
        "got an unreachable report: {events:?}"
    );
}

#[test]
fn shorter_path_preferred_and_used() {
    // Two paths to h2: 1 hop (g1—g3) and 2 hops (g1—g2—g3). All traffic
    // must use the short one; the long path's middle gateway forwards
    // nothing.
    let mut net = Network::new(62);
    let h1 = net.add_host("h1");
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    let g3 = net.add_gateway("g3");
    let h2 = net.add_host("h2");
    net.connect(h1, g1, LinkClass::EthernetLan);
    net.connect(g1, g2, LinkClass::T1Terrestrial);
    net.connect(g2, g3, LinkClass::T1Terrestrial);
    net.connect(g1, g3, LinkClass::T1Terrestrial); // the shortcut
    net.connect(g3, h2, LinkClass::EthernetLan);
    net.converge_routing(Duration::from_secs(90));

    let dst = net.node(h2).primary_addr();
    for seq in 0..5 {
        let now = net.now();
        net.node_mut(h1).send_ping(dst, 2, seq, 16, now);
        net.kick(h1);
        net.run_for(Duration::from_secs(1));
    }
    let replies = net
        .node_mut(h1)
        .take_icmp_events()
        .iter()
        .filter(|e| matches!(e.message, Icmpv4Message::EchoReply { .. }))
        .count();
    assert_eq!(replies, 5);
    assert_eq!(
        net.node(g2).stats.ip_forwarded,
        0,
        "the long path carried no data traffic"
    );
}

#[test]
fn ttl_exhaustion_in_a_long_chain_reports_time_exceeded() {
    let mut net = Network::new(63);
    let h1 = net.add_host("h1");
    let mut prev = net.add_gateway("g1");
    net.connect(h1, prev, LinkClass::EthernetLan);
    for i in 2..=6 {
        let g = net.add_gateway(format!("g{i}"));
        net.connect(prev, g, LinkClass::T1Terrestrial);
        prev = g;
    }
    let h2 = net.add_host("h2");
    net.connect(prev, h2, LinkClass::EthernetLan);
    net.converge_routing(Duration::from_secs(180));

    let dst = net.node(h2).primary_addr();
    // TTL 3 dies inside the chain (needs 7 hops).
    net.node_mut(h1).default_ttl = 3;
    let now = net.now();
    net.node_mut(h1).send_ping(dst, 3, 1, 16, now);
    net.kick(h1);
    net.run_for(Duration::from_secs(3));
    let events = net.node_mut(h1).take_icmp_events();
    assert!(
        events.iter().any(|e| matches!(
            e.message,
            Icmpv4Message::TimeExceeded(TimeExceeded::TtlExpired)
        )),
        "time exceeded reported: {events:?}"
    );
    // With enough TTL the same probe succeeds.
    net.node_mut(h1).default_ttl = 64;
    let now = net.now();
    net.node_mut(h1).send_ping(dst, 3, 2, 16, now);
    net.kick(h1);
    net.run_for(Duration::from_secs(3));
    assert!(net
        .node_mut(h1)
        .take_icmp_events()
        .iter()
        .any(|e| matches!(e.message, Icmpv4Message::EchoReply { .. })));
}

#[test]
fn routing_chatter_is_bounded_in_steady_state() {
    // A quiet converged network exchanges only periodic advertisements:
    // one message per interface per update interval.
    let mut net = Network::new(64);
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    let g3 = net.add_gateway("g3");
    net.connect(g1, g2, LinkClass::T1Terrestrial);
    net.connect(g2, g3, LinkClass::T1Terrestrial);
    net.converge_routing(Duration::from_secs(60));
    let before: u64 = [g1, g2, g3]
        .iter()
        .map(|&g| net.node(g).dv.as_ref().unwrap().updates_received)
        .sum();
    net.run_for(Duration::from_secs(30)); // 10 update intervals (3 s each)
    let after: u64 = [g1, g2, g3]
        .iter()
        .map(|&g| net.node(g).dv.as_ref().unwrap().updates_received)
        .sum();
    let received = after - before;
    // 4 interface-endpoints between gateways × 10 intervals = 40 expected.
    assert!(
        (30..=60).contains(&received),
        "steady-state chatter {received} messages in 30 s"
    );
}

#[test]
fn new_link_is_discovered_without_restart() {
    // Plug a new gateway into a running internetwork: its networks
    // become reachable with no operator action anywhere else.
    let mut net = Network::new(65);
    let h1 = net.add_host("h1");
    let g1 = net.add_gateway("g1");
    net.connect(h1, g1, LinkClass::EthernetLan);
    net.converge_routing(Duration::from_secs(30));

    let g_new = net.add_gateway("g-new");
    let h_new = net.add_host("h-new");
    net.connect(g1, g_new, LinkClass::T1Terrestrial);
    net.connect(g_new, h_new, LinkClass::EthernetLan);
    net.converge_routing(Duration::from_secs(60));

    let dst = net.node(h_new).primary_addr();
    let now = net.now();
    net.node_mut(h1).send_ping(dst, 9, 1, 16, now);
    net.kick(h1);
    net.run_for(Duration::from_secs(2));
    assert_eq!(
        net.node_mut(h1)
            .take_icmp_events()
            .iter()
            .filter(|e| matches!(e.message, Icmpv4Message::EchoReply { .. }))
            .count(),
        1,
        "the grown internetwork carries traffic"
    );
}

#[test]
fn a_reboot_does_not_readvertise_a_downed_interface() {
    // a — b — c on T1 links. With b—c down, b's connected /30 toward c
    // is withdrawn; neither a crash-and-restart of b nor a swap of its
    // DV engine may declare it again, or b would attract traffic for a
    // network it cannot reach.
    let build = || {
        let mut net = Network::new(66);
        let a = net.add_gateway("a");
        let b = net.add_gateway("b");
        let c = net.add_gateway("c");
        net.connect(a, b, LinkClass::T1Terrestrial);
        let bc = net.connect(b, c, LinkClass::T1Terrestrial); // b's iface 1
        net.converge_routing(Duration::from_secs(60));
        let downed = net.node(b).ifaces[1].cidr.network();
        let live_metric = move |net: &Network, node: NodeId| {
            net.node(node)
                .dv
                .as_ref()
                .unwrap()
                .routes()
                .find(|(prefix, route)| **prefix == downed && route.metric < INFINITY_METRIC)
                .map(|(_, route)| route.metric)
        };
        assert_eq!(live_metric(&net, b), Some(1));
        assert_eq!(live_metric(&net, a), Some(2));
        net.set_link_up(bc, false);
        net.run_for(Duration::from_secs(5));
        assert_eq!(live_metric(&net, b), None, "the withdrawal took");
        (net, b, live_metric)
    };

    let (mut net, b, live_metric) = build();
    net.crash_node(b);
    net.restart_node(b);
    net.run_for(Duration::from_secs(10));
    assert_eq!(
        live_metric(&net, b),
        None,
        "a reboot revived the downed /30"
    );

    let (mut net, b, live_metric) = build();
    net.node_mut(b).set_dv_config(DvConfig::default());
    net.kick(b);
    net.run_for(Duration::from_secs(10));
    assert_eq!(
        live_metric(&net, b),
        None,
        "an engine swap revived the downed /30"
    );
}

#[test]
fn a_rebooted_guarded_gateway_reports_both_lives() {
    // h — g0 in a ring g0 … g3, route guard and accounting on. h pings
    // g2 with datagrams that fragment on the way; g2 crashes at 60 s and
    // reboots at 70 s. A crash wipes the guard's verdict totals and the
    // reassembler's counters with everything else volatile, so what the
    // registry holds for g2 must be what both lives counted — not what
    // the second life counted beyond the first.
    let mut net = Network::new(67);
    let h = net.add_host("h");
    let g: Vec<NodeId> = (0..4).map(|i| net.add_gateway(format!("g{i}"))).collect();
    net.connect(h, g[0], LinkClass::EthernetLan);
    for i in 0..4 {
        net.connect(g[i], g[(i + 1) % 4], LinkClass::T1Terrestrial);
    }
    net.set_guard_policy(GuardPolicy::standard());
    net.enable_accounting(Duration::from_secs(10));
    let target = g[2];
    let dst = net.node(target).primary_addr();
    let mut seq = 0;
    let mut ping_for = |net: &mut Network, seconds: u64| {
        for _ in 0..seconds {
            let now = net.now();
            net.node_mut(h).send_ping(dst, 7, seq, 3_000, now);
            seq += 1;
            net.kick(h);
            net.run_for(Duration::from_secs(1));
        }
    };
    let verdicts = |net: &Network| -> Vec<(Ipv4Address, NeighborVerdicts)> {
        net.node(target)
            .dv
            .as_ref()
            .unwrap()
            .guard()
            .verdicts()
            .collect()
    };
    let reassembled = |net: &Network| net.node(target).reassembler().completed;

    ping_for(&mut net, 60);
    let (first, first_reassembled) = (verdicts(&net), reassembled(&net));
    net.crash_node(target);
    net.run_for(Duration::from_secs(10));
    net.restart_node(target);
    ping_for(&mut net, 20);
    // A quiet tail: the ping flows go idle and expire.
    net.run_for(Duration::from_secs(45));
    let (second, second_reassembled) = (verdicts(&net), reassembled(&net));

    let registry = &net.telemetry().registry;
    let neighbors: std::collections::BTreeSet<Ipv4Address> =
        first.iter().chain(&second).map(|(addr, _)| *addr).collect();
    assert_eq!(neighbors.len(), 2, "g2 hears g1 and g3");
    for addr in neighbors {
        let life = |lives: &[(Ipv4Address, NeighborVerdicts)]| {
            lives
                .iter()
                .find(|(a, _)| *a == addr)
                .map_or_else(Default::default, |(_, v)| *v)
        };
        let (a, b) = (life(&first), life(&second));
        assert!(
            a.accepted > 0 && b.accepted > 0,
            "{addr} was heard in both lives"
        );
        let scope = Scope::Neighbor {
            node: target,
            addr: addr.0,
        };
        assert_eq!(
            registry.get("guard_accepted", scope),
            a.accepted + b.accepted,
            "accepted verdicts from {addr}"
        );
        assert_eq!(
            registry.get("guard_sanitized", scope),
            a.sanitized + b.sanitized,
            "sanitized verdicts from {addr}"
        );
    }

    let node = Scope::Node(target);
    assert!(first_reassembled > 0 && second_reassembled > 0);
    assert_eq!(
        registry.get("reassembled_datagrams", node),
        first_reassembled + second_reassembled
    );
    // The flow table loses its flows in a crash but keeps counting.
    let flows = net.node(target).flows.as_ref().unwrap();
    assert!(flows.frag_attributed > 0 && flows.expired > 0);
    for (name, value) in [
        ("flow_evictions", flows.evicted),
        ("flow_idle_expired", flows.expired),
        ("frag_attributed", flows.frag_attributed),
        ("frag_unattributed", flows.frag_unattributed),
    ] {
        assert_eq!(registry.get(name, node), value, "{name}");
    }
}
