//! Settled means right: converged routing checked against the live
//! graph.
//!
//! [`Network::converge_routing`] and the convergence tracer both stop
//! at *stillness*; a network that settles into a stale route or a loop
//! passes them. [`Network::routing_fixed_point`] checks what stillness
//! should have reached. From the live topology alone — live nodes, up
//! links, up interfaces — it computes every prefix's hop distance by
//! breadth-first search over the gateways that speak distance vector,
//! and holds every live gateway's table to the fixed point RFC 2453 §2
//! promises, with hop counts capped at `INFINITY_METRIC`:
//!
//! - a reachable prefix has a live route whose metric is its hop
//!   distance in the engine's convention (a connected prefix is metric
//!   1, and each gateway hop adds one);
//! - that route's next hop is a neighbour one hop closer, or the
//!   connected interface itself;
//! - an unreachable prefix has no live route.
//!
//! A gateway's export policy decides which neighbours hear a prefix, so
//! the search only crosses a link in the direction the policy lets the
//! prefix travel. A compromised gateway's lies and a gateway's static
//! routes are outside the fixed point: a prefix either touches is
//! skipped, and the report says which.

use crate::network::Network;
use crate::node::Node;
use catenet_routing::{NextHop, INFINITY_METRIC};
use catenet_wire::{Ipv4Address, Ipv4Cidr};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// What [`Network::routing_fixed_point`] found.
#[derive(Debug, Clone, Default)]
pub struct FixedPoint {
    /// (gateway, prefix) pairs held to the fixed point.
    pub checked: usize,
    /// Prefixes left out because a compromise or a gateway's static
    /// route touches them.
    pub skipped: Vec<Ipv4Cidr>,
    /// Every way a table misses the fixed point, one line each.
    pub faults: Vec<String>,
}

impl FixedPoint {
    /// Whether every checked table sits at the fixed point.
    pub fn holds(&self) -> bool {
        self.faults.is_empty()
    }

    /// Panic, naming `context` and every fault, unless the fixed point
    /// holds.
    pub fn assert_holds(&self, context: &str) {
        assert!(
            self.holds(),
            "{context}: routing settled off its fixed point ({} of {} checks; skipped {:?}):\n{}",
            self.faults.len(),
            self.checked,
            self.skipped,
            self.faults.join("\n")
        );
    }
}

/// A live link between two live distance-vector gateways, seen from
/// one end.
#[derive(Clone, Copy)]
struct Edge {
    iface: usize,
    peer: usize,
    peer_addr: Ipv4Address,
}

impl Network {
    /// Check every live gateway's routing table against the fixed point
    /// of the live topology (see the module doc). Read-only: calling it
    /// changes nothing a run does.
    pub fn routing_fixed_point(&self) -> FixedPoint {
        let speaks = |id: usize| {
            let node = self.node(id);
            node.alive && node.dv.is_some()
        };
        let gateways: Vec<usize> = (0..self.node_count()).filter(|&id| speaks(id)).collect();
        // Each prefix with the gateways attached to it, and each
        // gateway's edges to the gateways it hears.
        let mut attached: BTreeMap<Ipv4Cidr, Vec<(usize, usize)>> = BTreeMap::new();
        let mut edges: BTreeMap<usize, Vec<Edge>> = BTreeMap::new();
        for (link, a, b) in self.link_ends() {
            let prefix = self.link_subnet(link).network();
            let entry = attached.entry(prefix).or_default();
            let up = |end: crate::lane::LinkEnd| {
                speaks(end.node) && self.node(end.node).ifaces[end.iface].up
            };
            for end in [a, b] {
                if up(end) {
                    entry.push((end.node, end.iface));
                }
            }
            if self.link_is_up(link) && up(a) && up(b) {
                for (from, to) in [(a, b), (b, a)] {
                    edges.entry(from.node).or_default().push(Edge {
                        iface: from.iface,
                        peer: to.node,
                        peer_addr: self.node(to.node).ifaces[to.iface].addr,
                    });
                }
            }
        }
        let tables: BTreeMap<usize, BTreeMap<Ipv4Cidr, &catenet_routing::DvRoute>> = gateways
            .iter()
            .map(|&id| {
                let dv = self.node(id).dv.as_ref().expect("a gateway");
                let live = dv
                    .routes()
                    .filter(|(_, route)| route.metric < INFINITY_METRIC);
                (id, live.map(|(prefix, route)| (*prefix, route)).collect())
            })
            .collect();
        // A prefix no link owns has no attached gateway: any live route
        // to it is a fault.
        let prefixes: BTreeSet<Ipv4Cidr> = attached
            .keys()
            .copied()
            .chain(tables.values().flat_map(|table| table.keys().copied()))
            .collect();

        let mut report = FixedPoint::default();
        for prefix in prefixes {
            if gateways.iter().any(|&id| outside(self.node(id), &prefix)) {
                report.skipped.push(prefix);
                continue;
            }
            let sources = attached.get(&prefix).map_or(&[][..], Vec::as_slice);
            let distance = hops(self, &prefix, sources, &edges);
            for &id in &gateways {
                report.checked += 1;
                let node = self.node(id);
                let route = tables[&id].get(&prefix);
                let want = distance
                    .get(&id)
                    .map(|&d| d + 1)
                    .filter(|&m| m < usize::from(INFINITY_METRIC));
                let fault = match (want, route) {
                    (None, None) => None,
                    (None, Some(route)) => Some(format!(
                        "a live route at metric {} to an unreachable prefix",
                        route.metric
                    )),
                    (Some(m), None) => Some(format!(
                        "no live route, though the prefix is reachable at metric {m}"
                    )),
                    (Some(m), Some(route)) if usize::from(route.metric) != m => Some(format!(
                        "metric {}, where the live graph gives {m}",
                        route.metric
                    )),
                    (Some(1), Some(route)) => match route.next_hop {
                        NextHop::Connected { iface }
                            if sources.contains(&(id, usize::from(iface))) =>
                        {
                            None
                        }
                        other => Some(format!("next hop {other:?}, where the prefix is attached")),
                    },
                    (Some(m), Some(route)) => {
                        let closer = edges.get(&id).into_iter().flatten().any(|edge| {
                            route.next_hop.gateway() == Some(edge.peer_addr)
                                && route.next_hop.iface() == edge.iface
                                && distance.get(&edge.peer).is_some_and(|&d| d + 2 == m)
                        });
                        (!closer).then(|| {
                            format!(
                                "next hop {:?} is no neighbour one hop closer",
                                route.next_hop
                            )
                        })
                    }
                };
                if let Some(fault) = fault {
                    report
                        .faults
                        .push(format!("{} {prefix}: {fault}", node.name));
                }
            }
        }
        report
    }
}

/// Whether `prefix` is outside the fixed point at `node`: its static
/// routes overlap it, or its compromise may lie about it.
fn outside(node: &Node, prefix: &Ipv4Cidr) -> bool {
    node.static_routes
        .iter()
        .any(|(owned, _)| owned.contains_subnet(prefix) || prefix.contains_subnet(owned))
        || node.lies_about(prefix)
}

/// Gateway hops from each gateway to the nearest one attached to
/// `prefix`, crossing a link only toward a neighbour whose export
/// policy lets the prefix through.
fn hops(
    net: &Network,
    prefix: &Ipv4Cidr,
    sources: &[(usize, usize)],
    edges: &BTreeMap<usize, Vec<Edge>>,
) -> BTreeMap<usize, usize> {
    let mut distance = BTreeMap::new();
    let mut queue = VecDeque::new();
    for &(id, _) in sources {
        if distance.insert(id, 0).is_none() {
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        let next = distance[&id] + 1;
        let policies = &net.node(id).dv_policies;
        for edge in edges.get(&id).into_iter().flatten() {
            if policies[edge.iface].permits(prefix) && !distance.contains_key(&edge.peer) {
                distance.insert(edge.peer, next);
                queue.push_back(edge.peer);
            }
        }
    }
    distance
}

#[cfg(test)]
mod tests {
    use crate::Network;
    use catenet_sim::{ByzantineAttack, Duration, FaultAction, LinkClass};

    /// h1 — g0, a ring of four gateways, g2 — h2.
    fn ring() -> (Network, Vec<usize>, Vec<usize>) {
        let mut net = Network::new(7);
        let h1 = net.add_host("h1");
        let gs: Vec<usize> = (0..4).map(|i| net.add_gateway(format!("g{i}"))).collect();
        net.connect(h1, gs[0], LinkClass::EthernetLan);
        let links = (0..4)
            .map(|i| net.connect(gs[i], gs[(i + 1) % 4], LinkClass::T1Terrestrial))
            .collect();
        let h2 = net.add_host("h2");
        net.connect(gs[2], h2, LinkClass::EthernetLan);
        net.converge_routing(Duration::from_secs(60));
        (net, gs, links)
    }

    #[test]
    fn a_converged_ring_sits_at_its_fixed_point_and_a_cut_moves_it() {
        let (mut net, _, links) = ring();
        let settled = net.routing_fixed_point();
        settled.assert_holds("cold start");
        // 4 gateways × 6 prefixes (4 trunks, 2 LANs), none skipped.
        assert_eq!((settled.checked, settled.skipped.len()), (24, 0));
        // Cut a trunk: the tables the cut invalidates miss the new
        // fixed point until routing catches up.
        net.set_link_up(links[0], false);
        let stale = net.routing_fixed_point();
        assert!(
            !stale.holds(),
            "the cut changes distances the tables still carry"
        );
        assert!(
            stale.faults.iter().any(|f| f.contains("10.128.1.0/30")),
            "{:?}",
            stale.faults
        );
        net.converge_routing(Duration::from_secs(60));
        net.routing_fixed_point().assert_holds("after the cut");
    }

    #[test]
    fn a_crashed_gateway_leaves_routes_until_they_time_out() {
        let (mut net, gs, _) = ring();
        net.crash_node(gs[1]);
        let stale = net.routing_fixed_point();
        assert!(
            stale.faults.iter().any(|f| f.starts_with("g0 ")),
            "g0 still routes through the dead gateway: {:?}",
            stale.faults
        );
        // Its neighbours forget it after the route timeout, and the
        // poison carries that to everyone else.
        net.run_for(Duration::from_secs(30));
        net.routing_fixed_point()
            .assert_holds("after the route timeout");
    }

    #[test]
    fn a_compromised_gateway_puts_its_victim_outside_the_check() {
        let (mut net, gs, _) = ring();
        let victim = net.node(gs[2]).ifaces[2].cidr.network();
        net.apply_fault(&FaultAction::Compromise {
            node: gs[0],
            attack: ByzantineAttack::BlackholeVictim {
                addr: victim.address().0,
                prefix_len: 30,
            },
        });
        net.run_for(Duration::from_secs(10));
        let report = net.routing_fixed_point();
        assert_eq!(report.skipped, [victim]);
        report.assert_holds("honest prefixes under a blackhole");
    }
}
