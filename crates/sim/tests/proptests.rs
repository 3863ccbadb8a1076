//! Property tests for the simulator substrate: total event ordering,
//! link conservation laws, and statistics consistency. Inputs are drawn
//! from the simulator's own seeded `Rng`, so every case is reproducible
//! from its case number.

use catenet_sim::{Duration, Instant, Link, LinkOutcome, LinkParams, Rng, Scheduler, Summary};

#[test]
fn scheduler_pops_in_nondecreasing_time_order() {
    for case in 0..128 {
        let mut rng = Rng::for_case("sched_order", case);
        let count = rng.range(1, 128) as usize;
        let times: Vec<u64> = (0..count).map(|_| rng.below(1_000_000)).collect();
        let mut sched = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            sched.schedule_at(Instant::from_micros(t), i);
        }
        let mut last = Instant::ZERO;
        let mut seen = Vec::new();
        while let Some((at, id)) = sched.pop() {
            assert!(at >= last, "time went backwards");
            last = at;
            seen.push(id);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
    }
}

#[test]
fn scheduler_equal_times_preserve_insertion_order() {
    for case in 0..64 {
        let mut rng = Rng::for_case("sched_fifo", case);
        let count = rng.range(1, 64) as usize;
        let t = rng.below(1000);
        let mut sched = Scheduler::new();
        for i in 0..count {
            sched.schedule_at(Instant::from_micros(t), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| sched.pop()).map(|(_, i)| i).collect();
        assert_eq!(order, (0..count).collect::<Vec<_>>());
    }
}

#[test]
fn link_conserves_frames() {
    for case in 0..128 {
        let mut meta = Rng::for_case("link_conserve", case);
        let loss = meta.unit() * 0.5;
        let frames = meta.range(1, 200);
        let seed = u64::from(meta.next_u32()) << 32 | u64::from(meta.next_u32());
        let mut link = Link::new(LinkParams {
            name: "prop",
            bandwidth_bps: 1_000_000,
            propagation: Duration::from_millis(1),
            jitter: Duration::from_micros(100),
            loss,
            corruption: 0.0,
            mtu: 1500,
            queue_limit: 10_000,
        });
        let mut rng = Rng::from_seed(seed);
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        let mut now = Instant::ZERO;
        let mut last_arrival = Instant::ZERO;
        for _ in 0..frames {
            let mut frame = vec![0u8; 100];
            match link.transmit(now, &mut frame, &mut rng) {
                LinkOutcome::Delivered { at, .. } => {
                    delivered += 1;
                    assert!(at > now, "arrival not after send");
                    // FIFO serialization: arrivals modulo jitter are
                    // nondecreasing within jitter bounds.
                    assert!(at + Duration::from_micros(100) >= last_arrival);
                    last_arrival = at;
                }
                LinkOutcome::Dropped(_) => dropped += 1,
            }
            now += Duration::from_millis(1);
        }
        let stats = link.stats();
        assert_eq!(stats.delivered, delivered);
        assert_eq!(delivered + dropped, frames);
        // Conservation: every accepted frame is delivered or lost.
        assert_eq!(stats.tx_frames, stats.delivered + stats.lost);
    }
}

#[test]
fn summary_percentiles_are_monotone() {
    for case in 0..128 {
        let mut rng = Rng::for_case("summary_monotone", case);
        let count = rng.range(1, 200) as usize;
        let summary: Summary =
            (0..count).map(|_| Duration::from_micros(rng.below(1 << 32))).collect();
        let mut last = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = summary.percentile(q);
            assert!(v >= last, "percentile({q}) = {v} < {last}");
            last = v;
        }
        assert!(summary.min() <= summary.mean() + 1e-9);
        assert!(summary.mean() <= summary.max() + 1e-9);
        assert_eq!(summary.percentile(1.0), summary.max());
    }
}

#[test]
fn rng_chance_is_deterministic_per_seed() {
    for case in 0..64 {
        let mut meta = Rng::for_case("rng_chance_det", case);
        let seed = u64::from(meta.next_u32()) << 32 | u64::from(meta.next_u32());
        let p = meta.unit();
        let mut a = Rng::from_seed(seed);
        let mut b = Rng::from_seed(seed);
        for _ in 0..64 {
            assert_eq!(a.chance(p), b.chance(p));
        }
    }
}
