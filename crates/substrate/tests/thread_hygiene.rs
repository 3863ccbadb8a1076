//! A substrate under a waiting clock owns one reader thread per tunnel,
//! and dropping it must give every one of them back, promptly: the
//! benchmark builds and drops two substrates per set-up repetition in
//! one process, so a leaked or unjoinable reader is a hang or a slow
//! leak, not a detail.
//!
//! One test, alone in its file: it reads the process's thread count,
//! which any test running beside it would change.

use catenet_substrate::config;
use catenet_substrate::real::RealSubstrate;
use catenet_substrate::Substrate;

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .expect("a Threads: line");
    line["Threads:".len()..].trim().parse().expect("a count")
}

#[test]
fn fifty_create_drop_cycles_leak_no_thread_and_never_hang() {
    let before = process_threads();
    for cycle in 0..50 {
        let a = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
        let b = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
        let (pa, pb) = (
            a.local_addr().expect("addr").port(),
            b.local_addr().expect("addr").port(),
        );
        drop((a, b));
        // Two tunnels aimed at each other, so two readers: blocked in
        // `recv` on even cycles, woken by datagrams on odd ones.
        let cfg = config::parse(&format!(
            "node router r\n\
             iface 0 10.1.0.1/30 peer 10.1.0.2 link 7 bind 127.0.0.1:{pa} remote 127.0.0.1:{pb}\n\
             iface 1 10.2.0.1/30 peer 10.2.0.2 link 8 bind 127.0.0.1:{pb} remote 127.0.0.1:{pa}\n"
        ))
        .expect("config");
        let mut sub = RealSubstrate::from_config(&cfg).expect("tunnels");
        assert_eq!(
            process_threads(),
            before + 2,
            "cycle {cycle}: one reader per tunnel"
        );
        if cycle % 2 == 1 {
            // The router's first RIP broadcast loops from each tunnel
            // into the other (and is refused there: the link ids
            // differ), so both readers have run their loop.
            sub.run_for(catenet_sim::Duration::from_millis(2));
        }
        let dropping = std::time::Instant::now();
        drop(sub);
        let took = dropping.elapsed();
        assert!(
            took < std::time::Duration::from_millis(100),
            "cycle {cycle}: drop took {took:?}"
        );
        assert_eq!(
            process_threads(),
            before,
            "cycle {cycle}: a reader outlived its tunnel"
        );
    }
}
