//! The UDP socket: the raw-datagram type of service.
//!
//! This is deliberately thin — a port number, a receive queue, a transmit
//! queue. Everything TCP manufactures (ordering, reliability, flow
//! control) is *absent on purpose*: packet voice would rather lose a
//! sample than wait for a retransmission (§4 of the paper, and the whole
//! reason the TCP/IP split happened). Experiment E2 measures the latency
//! this thinness buys.

use catenet_sim::Instant;
use catenet_tcp::Endpoint;
use catenet_wire::Tos;
use std::collections::VecDeque;

/// Default capacity of the receive queue, in datagrams.
pub const DEFAULT_RX_QUEUE: usize = 64;

/// A received datagram with its metadata.
#[derive(Debug, Clone)]
pub struct UdpDatagram {
    /// Who sent it.
    pub from: Endpoint,
    /// When it arrived at this host.
    pub at: Instant,
    /// The payload.
    pub payload: Vec<u8>,
}

/// A UDP socket.
#[derive(Debug)]
pub struct UdpSocket {
    /// The bound local port.
    pub local_port: u16,
    /// ToS marking applied to transmitted datagrams (the "type of
    /// service" knob the architecture exposes per-datagram).
    pub tos: Tos,
    /// TTL for transmitted datagrams.
    pub ttl: u8,
    rx: VecDeque<UdpDatagram>,
    rx_capacity: usize,
    tx: VecDeque<(Endpoint, Vec<u8>)>,
    /// Datagrams dropped because the receive queue was full.
    pub rx_dropped: u64,
    /// Datagrams enqueued for transmission.
    pub tx_count: u64,
    /// Datagrams delivered to the application.
    pub rx_count: u64,
}

impl UdpSocket {
    /// Bind a socket to `local_port`.
    pub fn bind(local_port: u16) -> UdpSocket {
        UdpSocket {
            local_port,
            tos: Tos::default(),
            ttl: 64,
            rx: VecDeque::new(),
            rx_capacity: DEFAULT_RX_QUEUE,
            tx: VecDeque::new(),
            rx_dropped: 0,
            tx_count: 0,
            rx_count: 0,
        }
    }

    /// Bind with a specific receive-queue capacity.
    pub fn bind_with_capacity(local_port: u16, rx_capacity: usize) -> UdpSocket {
        UdpSocket {
            rx_capacity,
            ..UdpSocket::bind(local_port)
        }
    }

    /// Queue a datagram for transmission to `to`.
    pub fn send_to(&mut self, to: Endpoint, payload: &[u8]) {
        self.send_vec(to, payload.to_vec());
    }

    /// [`send_to`](Self::send_to) for a payload the caller built to
    /// give away: the queue keeps the vector instead of a copy.
    pub fn send_vec(&mut self, to: Endpoint, payload: Vec<u8>) {
        self.tx.push_back((to, payload));
        self.tx_count += 1;
    }

    /// Receive the oldest queued datagram, if any.
    pub fn recv(&mut self) -> Option<UdpDatagram> {
        let dgram = self.rx.pop_front();
        if dgram.is_some() {
            self.rx_count += 1;
        }
        dgram
    }

    /// Number of datagrams waiting to be received.
    pub fn rx_queue_len(&self) -> usize {
        self.rx.len()
    }

    /// Whether any datagrams await transmission.
    pub fn has_pending_tx(&self) -> bool {
        !self.tx.is_empty()
    }

    /// (Stack side.) Take the next datagram to transmit.
    pub fn take_tx(&mut self) -> Option<(Endpoint, Vec<u8>)> {
        self.tx.pop_front()
    }

    /// (Stack side.) Deliver a received datagram; drop-tail on overflow.
    pub fn deliver(&mut self, from: Endpoint, at: Instant, payload: Vec<u8>) {
        if self.rx.len() >= self.rx_capacity {
            self.rx_dropped += 1;
            return;
        }
        self.rx.push_back(UdpDatagram { from, at, payload });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catenet_wire::Ipv4Address;

    fn ep(port: u16) -> Endpoint {
        Endpoint::new(Ipv4Address::new(10, 0, 0, 1), port)
    }

    #[test]
    fn send_queues_for_stack() {
        let mut sock = UdpSocket::bind(4000);
        sock.send_to(ep(53), b"query");
        assert!(sock.has_pending_tx());
        let (to, payload) = sock.take_tx().unwrap();
        assert_eq!(to, ep(53));
        assert_eq!(payload, b"query");
        assert!(!sock.has_pending_tx());
        assert_eq!(sock.tx_count, 1);
    }

    #[test]
    fn deliver_then_recv_fifo() {
        let mut sock = UdpSocket::bind(4000);
        sock.deliver(ep(1), Instant::from_millis(1), b"first".to_vec());
        sock.deliver(ep(2), Instant::from_millis(2), b"second".to_vec());
        assert_eq!(sock.rx_queue_len(), 2);
        let a = sock.recv().unwrap();
        assert_eq!(a.payload, b"first");
        assert_eq!(a.from, ep(1));
        assert_eq!(a.at, Instant::from_millis(1));
        let b = sock.recv().unwrap();
        assert_eq!(b.payload, b"second");
        assert!(sock.recv().is_none());
        assert_eq!(sock.rx_count, 2);
    }

    #[test]
    fn overflow_drops_tail() {
        let mut sock = UdpSocket::bind_with_capacity(4000, 2);
        for i in 0..4u8 {
            sock.deliver(ep(1), Instant::ZERO, vec![i]);
        }
        assert_eq!(sock.rx_queue_len(), 2);
        assert_eq!(sock.rx_dropped, 2);
        // The oldest survive (drop-tail, not drop-head).
        assert_eq!(sock.recv().unwrap().payload, vec![0]);
        assert_eq!(sock.recv().unwrap().payload, vec![1]);
    }
}
