//! The worker threads of a `Parallel` network live exactly as long as
//! the network: spawned at its first threaded window, joined when it
//! drops. The process's thread count is global state, so this file
//! holds one test and nothing else runs beside it.

#![cfg(target_os = "linux")]

use catenet::sim::{Duration, Instant, LinkClass};
use catenet::stack::app::{CbrSink, CbrSource};
use catenet::stack::{Endpoint, Network, ShardKind};

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

/// A ring of four gateways with a host each, one datagram flow per
/// host, run for two virtual seconds. Returns the highest thread count
/// seen while the network was alive.
fn run_ring(seed: u64, shard: ShardKind) -> usize {
    let mut net = Network::with_shards(seed, shard);
    let gateways: Vec<_> = (0..4).map(|i| net.add_gateway(format!("g{i}"))).collect();
    let hosts: Vec<_> = (0..4).map(|i| net.add_host(format!("h{i}"))).collect();
    for i in 0..4 {
        net.connect(gateways[i], gateways[(i + 1) % 4], LinkClass::T1Terrestrial);
        net.connect(hosts[i], gateways[i], LinkClass::EthernetLan);
    }
    for i in 0..4 {
        let to = hosts[(i + 2) % 4];
        let dst = Endpoint::new(net.node(to).primary_addr(), 7000);
        net.attach_app(hosts[i], Box::new(CbrSink::new(7000)));
        let source = CbrSource::new(
            dst,
            Duration::from_millis(100),
            100,
            Instant::from_millis(500),
            Instant::from_secs(2),
        );
        net.attach_app(hosts[i], Box::new(source));
    }
    net.run_until(Instant::from_secs(1));
    let mid = process_threads();
    net.run_until(Instant::from_secs(2));
    mid.max(process_threads())
}

#[test]
fn workers_are_spawned_once_and_joined_on_drop() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let before = process_threads();
    for shard in [ShardKind::Single, ShardKind::Sharded { shards: 4 }] {
        assert_eq!(
            run_ring(1, shard),
            before,
            "{shard:?} never spawns a thread"
        );
    }
    for seed in 0..200 {
        let peak = run_ring(seed, ShardKind::Parallel { shards: 4 });
        assert!(
            peak < before + cores.min(4),
            "at most min(K, cores) - 1 workers: {peak} threads, {before} before, {cores} cores"
        );
    }
    // `join` returns a moment before the kernel drops the thread from
    // the process's count; allow that moment, not a leak.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while process_threads() != before && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(process_threads(), before, "every worker was joined");
}
