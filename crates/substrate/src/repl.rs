//! The operator REPL shared by `vhost` and `vrouter`.
//!
//! The REPL is the driver seat for one real-I/O node: inspect
//! interfaces, sockets and routes; raise and drop interfaces; open TCP
//! connections and move bytes — including whole files, hash-printed on
//! both ends so two operators (or the interop test) can compare
//! transfers without comparing contents. Commands:
//!
//! ```text
//! help                      this list
//! li                        list interfaces
//! ls                        list sockets
//! lr | routes               list routes (static + learned)
//! up <iface> | down <iface> raise / drop an interface
//! connect <ip> <port>       open a TCP connection; prints the socket id
//! listen <port>             passive-open a TCP socket
//! send <sock> <text…>       write text into a socket
//! recv <sock> <n>           read up to n bytes from a socket
//! sendfile <path> <ip> <port>   stream a file over a fresh connection
//! recvfile <path> <port>        accept one connection, write to file
//! stats                     tunnel ingress counters per interface
//!                           (frames, datagrams, drops), then the event
//!                           loop's own (`pump: …`)
//! quit | q                  exit
//! ```
//!
//! File transfers run as an application inside the substrate's event
//! loop (`Mover`, below); the REPL starts them and prints what they
//! report.
//!
//! Output goes to stdout one line at a time with stable prefixes
//! (`sendfile done:`, `recvfile done:`, `route …`), so the loopback
//! interop test can drive two processes through pipes and assert on
//! what the operator would see. All input is untrusted: a malformed
//! command prints an error line, never panics.

use crate::real::RealSubstrate;
use crate::Substrate;
use catenet_core::app::{shared, Application, Shared};
use catenet_core::{Node, NodeRole};
use catenet_sim::{fnv1a, Instant, FNV_OFFSET};
use catenet_tcp::{Endpoint, SocketConfig as TcpConfig, TcpError};
use catenet_wire::Ipv4Address;
use std::fs;
use std::io::Write;
use std::sync::Arc;

struct SendTransfer {
    handle: usize,
    label: String,
    data: Vec<u8>,
    written: usize,
    closed: bool,
}

struct RecvTransfer {
    handle: usize,
    path: String,
    file: fs::File,
    bytes: u64,
    hash: u64,
}

/// File transfers in flight and the lines they have to report: shared
/// by the REPL, which starts transfers and prints their lines, and the
/// [`Mover`], which moves their bytes.
#[derive(Default)]
struct Transfers {
    sends: Vec<SendTransfer>,
    recvs: Vec<RecvTransfer>,
    lines: Vec<String>,
}

/// The application behind `sendfile`/`recvfile`. It runs inside every
/// pass of the event loop, like any other application, rather than
/// from the REPL's 5 ms command poll: a receiver that reads only
/// between polls lets a whole window pile up unread, advertises a
/// closed window, and — this TCP sends no window update when a read
/// reopens it — sits out the sender's 200 ms probe timer once per
/// 64 KB.
struct Mover(Shared<Transfers>);

impl Application for Mover {
    fn poll(&mut self, node: &mut Node, _now: Instant) {
        lock(&self.0).advance(node);
    }
}

fn lock(transfers: &Shared<Transfers>) -> std::sync::MutexGuard<'_, Transfers> {
    transfers.lock().expect("a transfer panicked mid-step")
}

/// REPL state: pending file transfers riding the substrate's sockets.
pub struct Repl {
    transfers: Shared<Transfers>,
    /// Whether the substrate already runs this REPL's [`Mover`].
    moving: bool,
}

/// What one command asked of the driver loop.
pub struct ReplAction {
    /// Lines to print.
    pub output: Vec<String>,
    /// The operator asked to exit.
    pub quit: bool,
}

impl Default for Repl {
    fn default() -> Repl {
        Repl::new()
    }
}

impl Repl {
    /// A fresh REPL with no transfers in flight.
    pub fn new() -> Repl {
        Repl {
            transfers: shared(Transfers::default()),
            moving: false,
        }
    }

    /// Queue a transfer, attaching the [`Mover`] to `sub` on first use.
    fn start(&mut self, sub: &mut RealSubstrate, add: impl FnOnce(&mut Transfers)) {
        if !self.moving {
            sub.attach_app(0, Box::new(Mover(Arc::clone(&self.transfers))));
            self.moving = true;
        }
        add(&mut lock(&self.transfers));
    }

    /// Execute one command line.
    pub fn exec(&mut self, line: &str, sub: &mut RealSubstrate) -> ReplAction {
        let words: Vec<&str> = line.split_whitespace().collect();
        let mut out = Vec::new();
        let mut quit = false;
        match words.first().copied() {
            None => {}
            Some("help") => out.push(HELP.trim_end().to_string()),
            Some("quit") | Some("q") => quit = true,
            Some("li") => self.list_ifaces(sub, &mut out),
            Some("ls") => self.list_sockets(sub, &mut out),
            Some("lr") | Some("routes") => self.list_routes(sub, &mut out),
            Some("up") | Some("down") => {
                let up = words[0] == "up";
                match words.get(1).and_then(|w| w.parse::<usize>().ok()) {
                    Some(iface) if iface < sub.node().ifaces.len() => {
                        sub.set_iface_up(iface, up);
                        out.push(format!("iface {iface} {}", if up { "up" } else { "down" }));
                    }
                    _ => out.push("error: usage: up|down <iface>".into()),
                }
            }
            Some("connect") => match parse_endpoint(&words[1..]) {
                Some(remote) => {
                    let now = Substrate::now(sub);
                    match sub.node_mut().tcp_connect(remote, TcpConfig::default(), now) {
                        Ok(handle) => out.push(format!("socket {handle} connecting to {remote}")),
                        Err(e) => out.push(format!("error: connect: {e:?}")),
                    }
                }
                None => out.push("error: usage: connect <ip> <port>".into()),
            },
            Some("listen") => match words.get(1).and_then(|w| w.parse::<u16>().ok()) {
                Some(port) => {
                    let handle = sub.node_mut().tcp_listen(port, TcpConfig::default());
                    out.push(format!("socket {handle} listening on {port}"));
                }
                None => out.push("error: usage: listen <port>".into()),
            },
            Some("send") => {
                let Some(handle) = words.get(1).and_then(|w| w.parse::<usize>().ok()) else {
                    out.push("error: usage: send <sock> <text…>".into());
                    return ReplAction { output: out, quit };
                };
                let text = line
                    .splitn(3, char::is_whitespace)
                    .nth(2)
                    .unwrap_or("")
                    .as_bytes();
                match sub.node_mut().tcp_sockets.get_mut(handle) {
                    Some(socket) => match socket.send_slice(text) {
                        Ok(n) => out.push(format!("sent {n} bytes on socket {handle}")),
                        Err(e) => out.push(format!("error: send: {e:?}")),
                    },
                    None => out.push(format!("error: no socket {handle}")),
                }
            }
            Some("recv") => {
                let handle = words.get(1).and_then(|w| w.parse::<usize>().ok());
                let want = words.get(2).and_then(|w| w.parse::<usize>().ok());
                match (handle, want) {
                    (Some(handle), Some(want)) => {
                        match sub.node_mut().tcp_sockets.get_mut(handle) {
                            Some(socket) => {
                                let mut buf = vec![0u8; want.min(65_536)];
                                match socket.recv_slice(&mut buf) {
                                    Ok(n) => out.push(format!(
                                        "recv {n} bytes on socket {handle}: {}",
                                        String::from_utf8_lossy(&buf[..n])
                                    )),
                                    Err(TcpError::Finished) => {
                                        out.push(format!("socket {handle}: stream finished"))
                                    }
                                    Err(e) => out.push(format!("error: recv: {e:?}")),
                                }
                            }
                            None => out.push(format!("error: no socket {handle}")),
                        }
                    }
                    _ => out.push("error: usage: recv <sock> <n>".into()),
                }
            }
            Some("sendfile") => match (words.get(1), parse_endpoint(&words[2..])) {
                (Some(path), Some(remote)) => match fs::read(path) {
                    Ok(data) => {
                        let now = Substrate::now(sub);
                        match sub.node_mut().tcp_connect(remote, TcpConfig::default(), now) {
                            Ok(handle) => {
                                out.push(format!(
                                    "sendfile {path}: {} bytes to {remote} on socket {handle}",
                                    data.len()
                                ));
                                let label = path.to_string();
                                self.start(sub, |t| {
                                    t.sends.push(SendTransfer {
                                        handle,
                                        label,
                                        data,
                                        written: 0,
                                        closed: false,
                                    })
                                });
                            }
                            Err(e) => out.push(format!("error: sendfile connect: {e:?}")),
                        }
                    }
                    Err(e) => out.push(format!("error: sendfile read {path}: {e}")),
                },
                _ => out.push("error: usage: sendfile <path> <ip> <port>".into()),
            },
            Some("recvfile") => {
                let port = words.get(2).and_then(|w| w.parse::<u16>().ok());
                match (words.get(1), port) {
                    (Some(path), Some(port)) => match fs::File::create(path) {
                        Ok(file) => {
                            let handle = sub.node_mut().tcp_listen(port, TcpConfig::default());
                            out.push(format!(
                                "recvfile {path}: listening on {port}, socket {handle}"
                            ));
                            let path = path.to_string();
                            self.start(sub, |t| {
                                t.recvs.push(RecvTransfer {
                                    handle,
                                    path,
                                    file,
                                    bytes: 0,
                                    hash: FNV_OFFSET,
                                })
                            });
                        }
                        Err(e) => out.push(format!("error: recvfile create {path}: {e}")),
                    },
                    _ => out.push("error: usage: recvfile <path> <port>".into()),
                }
            }
            Some("stats") => {
                for iface in 0..sub.node().ifaces.len() {
                    let s = sub.link_stats(iface);
                    out.push(format!(
                        "iface {iface}: accepted {} datagrams {} dropped {} (truncated {} \
                         bad_magic {} bad_version {} length_mismatch {} oversized {} wrong_link {})",
                        s.accepted,
                        s.datagrams,
                        s.dropped(),
                        s.truncated,
                        s.bad_magic,
                        s.bad_version,
                        s.length_mismatch,
                        s.oversized,
                        s.wrong_link,
                    ));
                }
                let p = sub.pump_stats();
                out.push(format!(
                    "pump: passes {} wakes_by_frame {} wakes_by_timer {} frames {} \
                     dropped_iface_down {} ring_high_water {} datagrams_sent {}",
                    p.passes,
                    p.wakes_by_frame,
                    p.wakes_by_timer,
                    p.frames,
                    p.dropped_iface_down,
                    p.ring_high_water,
                    p.datagrams_sent,
                ));
            }
            Some(other) => out.push(format!("error: unknown command {other:?} (try help)")),
        }
        ReplAction { output: out, quit }
    }

    /// Progress lines of in-flight file transfers since the last call
    /// (`sendfile done:` / `recvfile done:` / `… error:`).
    pub fn tick(&mut self) -> Vec<String> {
        std::mem::take(&mut lock(&self.transfers).lines)
    }
}

impl Transfers {
    /// Move what each transfer's socket will take or has to give.
    fn advance(&mut self, node: &mut Node) {
        let Transfers {
            sends,
            recvs,
            lines: out,
        } = self;

        sends.retain_mut(|t| {
            let Some(socket) = node.tcp_sockets.get_mut(t.handle) else {
                out.push(format!("sendfile {} error: socket gone", t.label));
                return false;
            };
            while t.written < t.data.len() {
                let room = socket.send_room().min(8_192);
                if room == 0 {
                    break;
                }
                let end = (t.written + room).min(t.data.len());
                match socket.send_slice(&t.data[t.written..end]) {
                    Ok(0) => break,
                    Ok(n) => t.written += n,
                    Err(TcpError::InvalidState)
                        if socket.state() == catenet_tcp::State::SynSent =>
                    {
                        break;
                    }
                    Err(e) => {
                        out.push(format!("sendfile {} error: {e:?}", t.label));
                        return false;
                    }
                }
            }
            if t.written == t.data.len()
                && !t.closed
                && matches!(
                    socket.state(),
                    catenet_tcp::State::Established | catenet_tcp::State::CloseWait
                )
            {
                socket.close();
                t.closed = true;
            }
            if socket.has_timed_out() || (socket.is_closed() && !socket.all_acked()) {
                out.push(format!("sendfile {} error: connection lost", t.label));
                return false;
            }
            if t.closed
                && socket.all_acked()
                && matches!(
                    socket.state(),
                    catenet_tcp::State::FinWait2
                        | catenet_tcp::State::TimeWait
                        | catenet_tcp::State::Closed
                )
            {
                out.push(format!(
                    "sendfile done: {} bytes fnv64={:#018x}",
                    t.data.len(),
                    fnv1a(FNV_OFFSET, &t.data)
                ));
                return false;
            }
            true
        });

        recvs.retain_mut(|t| {
            let Some(socket) = node.tcp_sockets.get_mut(t.handle) else {
                out.push(format!("recvfile {} error: socket gone", t.path));
                return false;
            };
            let mut buf = [0u8; 4096];
            loop {
                match socket.recv_slice(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        t.hash = fnv1a(t.hash, &buf[..n]);
                        t.bytes += n as u64;
                        if let Err(e) = t.file.write_all(&buf[..n]) {
                            out.push(format!("recvfile {} error: {e}", t.path));
                            return false;
                        }
                    }
                    Err(TcpError::Finished) => {
                        socket.close();
                        let _ = t.file.flush();
                        out.push(format!(
                            "recvfile done: {} bytes fnv64={:#018x}",
                            t.bytes, t.hash
                        ));
                        return false;
                    }
                    Err(TcpError::InvalidState) => break, // still listening
                    Err(e) => {
                        out.push(format!("recvfile {} error: {e:?}", t.path));
                        return false;
                    }
                }
            }
            true
        });
    }
}

impl Repl {
    fn list_ifaces(&self, sub: &RealSubstrate, out: &mut Vec<String>) {
        for (index, iface) in sub.node().ifaces.iter().enumerate() {
            out.push(format!(
                "iface {index} {}/{} peer {} {}",
                iface.addr,
                iface.cidr.prefix_len(),
                iface.peer,
                if iface.up { "up" } else { "down" },
            ));
        }
    }

    fn list_sockets(&self, sub: &RealSubstrate, out: &mut Vec<String>) {
        let node = sub.node();
        for (index, socket) in node.tcp_sockets.iter().enumerate() {
            out.push(format!(
                "socket {index} tcp {:?} local {} remote {}",
                socket.state(),
                socket.local(),
                socket.remote(),
            ));
        }
        for (index, socket) in node.udp_sockets.iter().enumerate() {
            out.push(format!("socket {index} udp local port {}", socket.local_port));
        }
        if out.is_empty() {
            out.push("no sockets".into());
        }
    }

    fn list_routes(&self, sub: &RealSubstrate, out: &mut Vec<String>) {
        let node = sub.node();
        for (prefix, (iface, via)) in node.static_routes.iter() {
            match via {
                Some(via) => out.push(format!("route {prefix} via {via} iface {iface} static")),
                None => out.push(format!("route {prefix} connected iface {iface} static")),
            }
        }
        if let Some(dv) = &node.dv {
            for (prefix, route) in dv.routes() {
                match route.next_hop.gateway() {
                    Some(via) => out.push(format!(
                        "route {prefix} via {via} iface {} metric {}",
                        route.next_hop.iface(),
                        route.metric
                    )),
                    None => out.push(format!(
                        "route {prefix} connected iface {} metric {}",
                        route.next_hop.iface(),
                        route.metric
                    )),
                }
            }
        }
        if out.is_empty() {
            out.push("no routes".into());
        }
    }
}

fn parse_endpoint(words: &[&str]) -> Option<Endpoint> {
    let addr: Ipv4Address = words.first()?.parse().ok()?;
    let port: u16 = words.get(1)?.parse().ok()?;
    Some(Endpoint::new(addr, port))
}

/// `help` text.
pub const HELP: &str = "\
commands:
  li                           list interfaces
  ls                           list sockets
  lr | routes                  list routes (static + learned)
  up <iface> | down <iface>    raise / drop an interface
  connect <ip> <port>          open a TCP connection
  listen <port>                passive-open a TCP socket
  send <sock> <text…>          write text into a socket
  recv <sock> <n>              read up to n bytes from a socket
  sendfile <path> <ip> <port>  stream a file over a fresh connection
  recvfile <path> <port>       accept one connection, write to file
  stats                        tunnel ingress counters per interface + pump counters
  quit | q                     exit
";

/// Suppress dead-code warnings for role helpers used by binaries only.
pub fn role_name(role: NodeRole) -> &'static str {
    match role {
        NodeRole::Host => "host",
        NodeRole::Gateway => "router",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;
    use crate::config;
    use catenet_sim::Duration;

    /// Two routers, a tunnel between them and a stub LAN behind each,
    /// on clocks that never wait.
    fn router_pair() -> (RealSubstrate, RealSubstrate) {
        let bind = || std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
        let (a, b) = (bind(), bind());
        let port = |s: &std::net::UdpSocket| s.local_addr().expect("addr").port();
        let (pa, pb) = (port(&a), port(&b));
        drop((a, b));
        let router = |name: &str, me: u8, peer: u8, bind: u16, remote: u16| {
            let cfg = config::parse(&format!(
                "node router {name}\n\
                 iface 0 10.1.0.{me}/30 peer 10.1.0.{peer} link 7 bind 127.0.0.1:{bind} remote 127.0.0.1:{remote}\n\
                 iface 1 10.9.{me}.1/30 local\n"
            ))
            .expect("config");
            RealSubstrate::with_clock(&cfg, Box::new(TestClock::new())).expect("tunnels")
        };
        (router("r1", 1, 2, pa, pb), router("r2", 2, 1, pb, pa))
    }

    /// Advance both routers in 5 ms lockstep until `done` or `limit`.
    fn lockstep(
        r1: &mut RealSubstrate,
        r2: &mut RealSubstrate,
        limit: Duration,
        mut done: impl FnMut(&mut RealSubstrate, &mut RealSubstrate) -> bool,
    ) -> bool {
        let end = Substrate::now(r1) + limit;
        while Substrate::now(r1) < end {
            let t = Substrate::now(r1) + Duration::from_millis(5);
            r1.run_until(t);
            r2.run_until(t);
            if done(r1, r2) {
                return true;
            }
        }
        false
    }

    /// `stats` shows the operator both halves of ingress: what each
    /// tunnel accepted or dropped, and what the event loop made of it.
    #[test]
    fn stats_prints_tunnel_and_pump_counters() {
        let (mut r1, mut r2) = router_pair();
        // A few lockstep slices: each router's first RIP broadcast
        // reaches the other.
        lockstep(&mut r1, &mut r2, Duration::from_millis(20), |_, _| false);

        let out = Repl::new().exec("stats", &mut r1).output;
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out[1].starts_with("iface 1: accepted 0 datagrams 0 "));
        let (accepted, datagrams) = (r1.link_stats(0).accepted, r1.link_stats(0).datagrams);
        let pump = r1.pump_stats();
        assert!(accepted > 0, "r2's RIP never arrived");
        assert!(datagrams > 0 && datagrams <= accepted);
        assert_eq!(pump.frames, accepted);
        let tunnel = format!("iface 0: accepted {accepted} datagrams {datagrams} ");
        assert!(out[0].starts_with(&tunnel), "{out:?}");
        assert_eq!(
            out[2],
            format!(
                "pump: passes {} wakes_by_frame 0 wakes_by_timer {} frames {accepted} \
                 dropped_iface_down 0 ring_high_water 0 datagrams_sent {}",
                pump.passes, pump.wakes_by_timer, pump.datagrams_sent
            )
        );
        assert!(pump.passes >= 4 && pump.datagrams_sent > 0, "{pump:?}");
    }

    /// `sendfile`/`recvfile` move their bytes from inside the event
    /// loop: nobody calls into the REPL while the substrates run, and
    /// `tick` only collects what the transfers have to say.
    #[test]
    fn file_transfers_run_inside_the_event_loop() {
        let (mut r1, mut r2) = router_pair();
        let converged = lockstep(&mut r1, &mut r2, Duration::from_secs(30), |r1, _| {
            let stub = "10.9.2.1".parse().expect("addr");
            let dv = r1.node().dv.as_ref();
            dv.and_then(|dv| dv.lookup(stub)).is_some()
        });
        assert!(converged, "no convergence");

        let dir = std::env::temp_dir();
        let tag = std::process::id();
        let (src, dst) = (
            dir.join(format!("catenet-repl-{tag}-src.bin")),
            dir.join(format!("catenet-repl-{tag}-dst.bin")),
        );
        let payload: Vec<u8> = (0..300_000u32).map(|i| (i * 7 % 253) as u8).collect();
        fs::write(&src, &payload).expect("write source");
        let (mut repl1, mut repl2) = (Repl::new(), Repl::new());
        let recvfile = format!("recvfile {} 5555", dst.display());
        let said = repl2.exec(&recvfile, &mut r2).output;
        assert!(said[0].contains("listening on 5555"), "{said:?}");
        let sendfile = format!("sendfile {} 10.9.2.1 5555", src.display());
        let said = repl1.exec(&sendfile, &mut r1).output;
        assert!(said[0].contains("300000 bytes to"), "{said:?}");

        let (mut said1, mut said2) = (Vec::new(), Vec::new());
        let finished = lockstep(&mut r1, &mut r2, Duration::from_secs(60), |_, _| {
            said1.extend(repl1.tick());
            said2.extend(repl2.tick());
            !said1.is_empty() && !said2.is_empty()
        });
        assert!(finished, "r1 said {said1:?}, r2 said {said2:?}");
        let digest = format!("300000 bytes fnv64={:#018x}", fnv1a(FNV_OFFSET, &payload));
        assert_eq!(said1, [format!("sendfile done: {digest}")]);
        assert_eq!(said2, [format!("recvfile done: {digest}")]);
        assert_eq!(fs::read(&dst).expect("read back"), payload);
        let _ = (fs::remove_file(&src), fs::remove_file(&dst));
    }
}
