//! The one application the benchmark brings itself: a TCP sink that
//! checks every delivered byte against [`catenet_core::app::BulkSender`]'s
//! position-determined pattern in constant memory.
//!
//! `StreamIntegrity` keeps a copy of everything sent, which at this
//! benchmark's transfer sizes is gigabytes; the pattern makes the copy
//! unnecessary, because byte `i` of the stream is always `i % 251`.

use catenet_core::{Application, Node, TcpConfig};
use catenet_sim::Instant;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::harness::{fnv64, FNV_OFFSET};

const PERIOD: usize = 251;
const CHUNK: usize = 4096;
/// Stream prefix covered by the FNV-64 receipt.
pub const RECEIPT_BYTES: u64 = 1 << 20;

/// Counters a [`VerifySink`] shares with the harness.
#[derive(Default)]
pub struct SinkCounters {
    /// In-order payload bytes handed to the application.
    pub received: AtomicU64,
    /// Chunks that differed from the pattern.
    pub mismatched: AtomicU64,
    /// FNV-64 of the first [`RECEIPT_BYTES`] bytes received.
    pub receipt: AtomicU64,
}

/// FNV-64 of the first `len` bytes `BulkSender` writes.
pub fn expected_receipt(len: u64) -> u64 {
    let pattern: Vec<u8> = (0..len).map(|i| (i % PERIOD as u64) as u8).collect();
    fnv64(FNV_OFFSET, &pattern)
}

pub struct VerifySink {
    port: u16,
    config: TcpConfig,
    handle: Option<usize>,
    pos: u64,
    receipt: u64,
    /// Two periods plus a chunk of the pattern, so any chunk at any
    /// phase is one contiguous slice of it.
    table: Vec<u8>,
    counters: Arc<SinkCounters>,
}

impl VerifySink {
    pub fn new(port: u16, config: TcpConfig, counters: Arc<SinkCounters>) -> VerifySink {
        counters.receipt.store(FNV_OFFSET, Ordering::Relaxed);
        VerifySink {
            port,
            config,
            handle: None,
            pos: 0,
            receipt: FNV_OFFSET,
            table: (0..PERIOD + CHUNK).map(|i| (i % PERIOD) as u8).collect(),
            counters,
        }
    }
}

impl Application for VerifySink {
    fn poll(&mut self, node: &mut Node, _now: Instant) {
        let handle = *self
            .handle
            .get_or_insert_with(|| node.tcp_listen(self.port, self.config.clone()));
        let Some(socket) = node.tcp_sockets.get_mut(handle) else {
            return;
        };
        let mut buf = [0u8; CHUNK];
        while let Ok(n) = socket.recv_slice(&mut buf) {
            if n == 0 {
                break;
            }
            let phase = (self.pos % PERIOD as u64) as usize;
            if buf[..n] != self.table[phase..phase + n] {
                self.counters.mismatched.fetch_add(1, Ordering::Relaxed);
            }
            if self.pos < RECEIPT_BYTES {
                let covered = n.min((RECEIPT_BYTES - self.pos) as usize);
                self.receipt = fnv64(self.receipt, &buf[..covered]);
                self.counters.receipt.store(self.receipt, Ordering::Relaxed);
            }
            self.pos += n as u64;
            self.counters
                .received
                .fetch_add(n as u64, Ordering::Relaxed);
        }
    }
}
