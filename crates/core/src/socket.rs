//! The UDP socket: the raw-datagram type of service.
//!
//! This is deliberately thin — a port number, a ToS marking and a
//! bounded receive queue. There is no transmit queue: a datagram leaves
//! the node at the call that sends it ([`Node::udp_send`]), built in a
//! pooled buffer like every other origination, and is read in the
//! pooled buffer it arrived in. Everything TCP manufactures (ordering,
//! reliability, flow control) is *absent on purpose*: packet voice
//! would rather lose a sample than wait for a retransmission (§4 of the
//! paper, and the whole reason the TCP/IP split happened). Experiment
//! E2 measures the latency this thinness buys.
//!
//! [`Node::udp_send`]: crate::node::Node::udp_send

use crate::pool::PacketBuf;
use catenet_sim::Instant;
use catenet_tcp::Endpoint;
use catenet_wire::Tos;
use std::collections::VecDeque;

/// Capacity of the receive queue, in datagrams.
pub const DEFAULT_RX_QUEUE: usize = 64;

/// A received datagram with its metadata.
#[derive(Debug)]
pub struct UdpDatagram {
    /// Who sent it.
    pub from: Endpoint,
    /// When it arrived at this host.
    pub at: Instant,
    /// The payload: the buffer the datagram arrived in, its live range
    /// cut to the UDP payload. Dropping it recycles the buffer.
    pub payload: PacketBuf,
}

/// A UDP socket.
#[derive(Debug)]
pub struct UdpSocket {
    /// The bound local port.
    pub local_port: u16,
    /// ToS marking applied to transmitted datagrams (the "type of
    /// service" knob the architecture exposes per-datagram).
    pub tos: Tos,
    rx: VecDeque<UdpDatagram>,
}

impl UdpSocket {
    /// Bind a socket to `local_port`.
    pub fn bind(local_port: u16) -> UdpSocket {
        UdpSocket {
            local_port,
            tos: Tos::default(),
            rx: VecDeque::new(),
        }
    }

    /// Receive the oldest queued datagram, if any.
    pub fn recv(&mut self) -> Option<UdpDatagram> {
        self.rx.pop_front()
    }

    /// Number of datagrams waiting to be received.
    pub fn rx_queue_len(&self) -> usize {
        self.rx.len()
    }

    /// (Stack side.) Deliver a received datagram; drop-tail on
    /// overflow. Returns whether it was queued: the node counts a drop.
    pub fn deliver(&mut self, from: Endpoint, at: Instant, payload: PacketBuf) -> bool {
        if self.rx.len() >= DEFAULT_RX_QUEUE {
            return false;
        }
        self.rx.push_back(UdpDatagram { from, at, payload });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catenet_wire::Ipv4Address;

    fn ep(port: u16) -> Endpoint {
        Endpoint::new(Ipv4Address::new(10, 0, 0, 1), port)
    }

    fn buf(bytes: &[u8]) -> PacketBuf {
        PacketBuf::from_vec(bytes.to_vec())
    }

    #[test]
    fn deliver_then_recv_fifo() {
        let mut sock = UdpSocket::bind(4000);
        sock.deliver(ep(1), Instant::from_millis(1), buf(b"first"));
        sock.deliver(ep(2), Instant::from_millis(2), buf(b"second"));
        assert_eq!(sock.rx_queue_len(), 2);
        let a = sock.recv().unwrap();
        assert_eq!(&a.payload[..], b"first");
        assert_eq!(a.from, ep(1));
        assert_eq!(a.at, Instant::from_millis(1));
        let b = sock.recv().unwrap();
        assert_eq!(&b.payload[..], b"second");
        assert!(sock.recv().is_none());
    }

    #[test]
    fn overflow_drops_tail() {
        let mut sock = UdpSocket::bind(4000);
        for i in 0..DEFAULT_RX_QUEUE + 2 {
            let queued = sock.deliver(ep(1), Instant::ZERO, buf(&[i as u8]));
            assert_eq!(queued, i < DEFAULT_RX_QUEUE);
        }
        assert_eq!(sock.rx_queue_len(), DEFAULT_RX_QUEUE);
        // The oldest survive (drop-tail, not drop-head).
        for i in 0..DEFAULT_RX_QUEUE {
            assert_eq!(&sock.recv().unwrap().payload[..], &[i as u8]);
        }
        assert!(sock.recv().is_none());
    }
}
