//! Node configuration for the real-I/O drivers.
//!
//! One process = one node; its links, addresses and static routes come
//! from a small line-oriented config file (the shape spoonmilk-style
//! `vhost`/`vrouter` drivers use). Example — the left router of a
//! two-router loopback internet, with a stub LAN behind it:
//!
//! ```text
//! # r1.cfg
//! node router r1
//! iface 0 10.1.0.1/30 peer 10.1.0.2 link 7 bind 127.0.0.1:15001 remote 127.0.0.1:15002
//! iface 1 10.9.1.1/30 local
//! ```
//!
//! - `node <host|router> <name>` — role and display name (hosts have
//!   static routes only; routers run distance-vector RIP).
//! - `iface <idx> <addr>/<prefix> peer <addr> link <id> bind <ip:port>
//!   remote <ip:port>` — a UDP-tunnel link endpoint: our address on
//!   the link, the peer's address, the agreed tunnel link id, the
//!   local UDP socket to bind and the peer's socket to send to.
//! - `iface <idx> <addr>/<prefix> local` — a stub interface: a
//!   connected prefix with no tunnel behind it. Routers advertise it
//!   into RIP, which is what makes cross-process convergence
//!   observable (the remote stub is only reachable once RIP has run).
//! - `route <cidr> via <next-hop>` — a static route (`0.0.0.0/0` for
//!   the default); the next hop must be a peer on some interface.
//!
//! Blank lines and `#` comments are ignored. Errors carry the line
//! number; a malformed config names its first offending line instead
//! of panicking — config files are operator input, not trusted input.

use catenet_core::NodeRole;
use catenet_wire::{Ipv4Address, Ipv4Cidr};

/// One interface stanza.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IfaceConfig {
    /// Our address on the link.
    pub addr: Ipv4Address,
    /// Prefix length of the link subnet.
    pub prefix_len: u8,
    /// The peer's address (tunnel ifaces only).
    pub peer: Option<Ipv4Address>,
    /// Tunnel link id both endpoints agreed on.
    pub link_id: u16,
    /// Local UDP socket to bind (`None` for stub ifaces).
    pub bind: Option<String>,
    /// Peer's UDP socket (`None` for stub ifaces).
    pub remote: Option<String>,
}

impl IfaceConfig {
    /// Whether this is a stub (no tunnel behind it).
    pub fn is_stub(&self) -> bool {
        self.bind.is_none()
    }

    /// The interface's subnet.
    pub fn cidr(&self) -> Ipv4Cidr {
        Ipv4Cidr::new(self.addr, self.prefix_len)
    }
}

/// One static route stanza.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteConfig {
    /// Destination block.
    pub prefix: Ipv4Cidr,
    /// Next hop (must be some interface's peer).
    pub via: Ipv4Address,
}

/// A parsed node configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeConfig {
    /// Display name.
    pub name: String,
    /// Host (static routes) or Gateway (RIP).
    pub role: NodeRole,
    /// Interfaces in index order.
    pub ifaces: Vec<IfaceConfig>,
    /// Static routes.
    pub routes: Vec<RouteConfig>,
}

/// A config error, pointing at its line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Parse a config file's text.
pub fn parse(text: &str) -> Result<NodeConfig, ConfigError> {
    let mut name = None;
    let mut role = None;
    let mut ifaces: Vec<IfaceConfig> = Vec::new();
    // With its line: a next hop can only be checked once every
    // interface is known.
    let mut routes: Vec<(usize, RouteConfig)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[0] {
            "node" => {
                if words.len() != 3 {
                    return Err(err(line_no, "expected: node <host|router> <name>"));
                }
                role = Some(match words[1] {
                    "host" => NodeRole::Host,
                    "router" => NodeRole::Gateway,
                    other => return Err(err(line_no, format!("unknown role {other:?}"))),
                });
                name = Some(words[2].to_string());
            }
            "iface" => {
                let iface = parse_iface(line_no, &words)?;
                let index: usize = words[1]
                    .parse()
                    .map_err(|_| err(line_no, "iface index must be a number"))?;
                if index != ifaces.len() {
                    return Err(err(
                        line_no,
                        format!("iface {index} out of order (expected {})", ifaces.len()),
                    ));
                }
                ifaces.push(iface);
            }
            "route" => {
                if words.len() != 4 || words[2] != "via" {
                    return Err(err(line_no, "expected: route <cidr> via <next-hop>"));
                }
                let prefix: Ipv4Cidr = words[1]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad cidr {:?}", words[1])))?;
                let via: Ipv4Address = words[3]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad next-hop {:?}", words[3])))?;
                routes.push((line_no, RouteConfig { prefix, via }));
            }
            other => return Err(err(line_no, format!("unknown directive {other:?}"))),
        }
    }

    let name = name.ok_or_else(|| err(text.lines().count(), "missing `node` line"))?;
    let role = role.expect("role set with name");
    if ifaces.is_empty() {
        return Err(err(text.lines().count(), "no interfaces"));
    }
    for (line_no, route) in &routes {
        if !ifaces.iter().any(|i| i.peer == Some(route.via)) {
            return Err(err(
                *line_no,
                format!("route via {} is no interface's peer", route.via),
            ));
        }
    }
    Ok(NodeConfig {
        name,
        role,
        ifaces,
        routes: routes.into_iter().map(|(_, route)| route).collect(),
    })
}

fn parse_iface(line_no: usize, words: &[&str]) -> Result<IfaceConfig, ConfigError> {
    // iface <idx> <addr>/<prefix> local
    // iface <idx> <addr>/<prefix> peer <addr> link <id> bind <ip:port> remote <ip:port>
    if words.len() < 4 {
        return Err(err(line_no, "iface line too short"));
    }
    let cidr: Ipv4Cidr = words[2]
        .parse()
        .map_err(|_| err(line_no, format!("bad address {:?}", words[2])))?;
    if words[3] == "local" {
        if words.len() != 4 {
            return Err(err(line_no, "stub iface takes no further words"));
        }
        return Ok(IfaceConfig {
            addr: cidr.address(),
            prefix_len: cidr.prefix_len(),
            peer: None,
            link_id: 0,
            bind: None,
            remote: None,
        });
    }
    if words.len() != 11
        || words[3] != "peer"
        || words[5] != "link"
        || words[7] != "bind"
        || words[9] != "remote"
    {
        return Err(err(
            line_no,
            "expected: iface <idx> <addr>/<len> peer <addr> link <id> \
             bind <ip:port> remote <ip:port> (or `local`)",
        ));
    }
    let peer: Ipv4Address = words[4]
        .parse()
        .map_err(|_| err(line_no, format!("bad peer {:?}", words[4])))?;
    let link_id: u16 = words[6]
        .parse()
        .map_err(|_| err(line_no, format!("bad link id {:?}", words[6])))?;
    Ok(IfaceConfig {
        addr: cidr.address(),
        prefix_len: cidr.prefix_len(),
        peer: Some(peer),
        link_id,
        bind: Some(words[8].to_string()),
        remote: Some(words[10].to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# the left router
node router r1
iface 0 10.1.0.1/30 peer 10.1.0.2 link 7 bind 127.0.0.1:15001 remote 127.0.0.1:15002
iface 1 10.9.1.1/30 local
";

    #[test]
    fn parses_router_with_stub() {
        let config = parse(GOOD).expect("parses");
        assert_eq!(config.name, "r1");
        assert_eq!(config.role, NodeRole::Gateway);
        assert_eq!(config.ifaces.len(), 2);
        assert_eq!(config.ifaces[0].link_id, 7);
        assert_eq!(config.ifaces[0].peer, Some("10.1.0.2".parse().unwrap()));
        assert!(config.ifaces[1].is_stub());
    }

    #[test]
    fn parses_host_with_default_route() {
        let text = "\
node host h1
iface 0 10.1.0.2/30 peer 10.1.0.1 link 3 bind 127.0.0.1:0 remote 127.0.0.1:15000
route 0.0.0.0/0 via 10.1.0.1
";
        let config = parse(text).expect("parses");
        assert_eq!(config.role, NodeRole::Host);
        assert_eq!(config.routes.len(), 1);
        assert_eq!(config.routes[0].prefix.prefix_len(), 0);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "node router r1\niface 0 10.1.0.1/30 pear 10.1.0.2\n";
        let e = parse(text).unwrap_err();
        assert_eq!(e.line, 2);
        let text = "node gateway r1\n";
        let e = parse(text).unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn out_of_order_ifaces_rejected() {
        let text = "node router r1\niface 1 10.1.0.1/30 local\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn route_via_stranger_rejected() {
        let text = "\
node host h1
iface 0 10.1.0.2/30 peer 10.1.0.1 link 0 bind 127.0.0.1:0 remote 127.0.0.1:15000
route 0.0.0.0/0 via 10.2.0.9
iface 1 10.9.1.1/30 local
";
        let e = parse(text).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
    }
}
