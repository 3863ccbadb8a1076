//! The convergence tracer: per-heal reconvergence measurement.
//!
//! ROADMAP's promise — "routing reconverged within N seconds of each
//! individual heal" — needs three timestamps the stack previously never
//! kept: when topology-affecting faults strike, when heals fire, and
//! when any gateway's routing table last changed. The tracer collects
//! them (fed by the network event loop) and derives, for each heal, the
//! instant the routing system went quiescent afterwards.
//!
//! A heal's *observation window* runs from the heal to the next
//! disruption (or the end of measurement). Reconvergence is the time
//! from the heal to the *last* route change inside that window — but
//! only counts as settled if a quiescence gap followed that change
//! within the window; otherwise the measurement is censored (the window
//! closed before routing provably settled) and is reported as such
//! rather than silently counted as fast.

use catenet_sim::{Duration, Instant};

/// One heal's measured reconvergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reconvergence {
    /// When the heal fired.
    pub healed_at: Instant,
    /// The last route change observed in the heal's window (equals
    /// `healed_at` if routing never changed — it was already converged).
    pub settled_at: Instant,
    /// `settled_at - healed_at`.
    pub took: Duration,
    /// Whether a full quiescence gap followed `settled_at` inside the
    /// window. `false` means the measurement is censored: the next
    /// disruption (or end of run) arrived before routing provably
    /// settled.
    pub settled: bool,
}

/// The tracer: raw timestamps in, per-heal measurements out.
#[derive(Debug, Default)]
pub struct ConvergenceTracer {
    disruptions: Vec<Instant>,
    heals: Vec<Instant>,
    route_changes: Vec<Instant>,
}

impl ConvergenceTracer {
    /// Quiescence gap: twice the fast DV update interval (3 s), so two
    /// full periodic rounds without a table change count as settled.
    pub const QUIESCENCE_GAP: Duration = Duration::from_secs(6);

    /// A tracer with nothing recorded yet.
    pub fn new() -> ConvergenceTracer {
        ConvergenceTracer::default()
    }

    /// Record a topology-affecting disruption (link down, crash,
    /// partition cut).
    pub fn disruption(&mut self, at: Instant) {
        self.disruptions.push(at);
    }

    /// Record a heal (link up, restart, partition healed).
    pub fn heal(&mut self, at: Instant) {
        self.heals.push(at);
    }

    /// Record that some gateway's routing table changed.
    pub fn route_changed(&mut self, at: Instant) {
        self.route_changes.push(at);
    }

    /// Heals recorded so far.
    pub fn heal_count(&self) -> usize {
        self.heals.len()
    }

    /// Route changes recorded so far.
    pub fn route_change_count(&self) -> usize {
        self.route_changes.len()
    }

    /// Derive one [`Reconvergence`] per recorded heal, given that
    /// observation ended at `end`. Feed timestamps in time order (the
    /// event loop does); the derivation sorts defensively anyway.
    pub fn reconvergences(&self, end: Instant) -> Vec<Reconvergence> {
        let mut disruptions = self.disruptions.clone();
        disruptions.sort_unstable();
        let mut changes = self.route_changes.clone();
        changes.sort_unstable();
        let mut heals = self.heals.clone();
        heals.sort_unstable();

        heals
            .iter()
            .map(|&healed_at| {
                // Window: (heal, next disruption strictly after it] ∩ [.., end].
                let window_end = disruptions
                    .iter()
                    .copied()
                    .find(|&d| d > healed_at)
                    .map_or(end, |d| d.min(end));
                let settled_at = changes
                    .iter()
                    .copied()
                    .rfind(|&c| c > healed_at && c <= window_end)
                    .unwrap_or(healed_at);
                let settled = window_end.duration_since(settled_at) >= Self::QUIESCENCE_GAP;
                Reconvergence {
                    healed_at,
                    settled_at,
                    took: settled_at.duration_since(healed_at),
                    settled,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u64) -> Instant {
        Instant::from_secs(n)
    }

    #[test]
    fn each_heal_pairs_with_its_own_settle_point() {
        let mut tr = ConvergenceTracer::new();
        // Disruption at 10, heal at 20; churn until 26. Second cycle:
        // disruption at 60, heal at 70, churn until 73.
        tr.disruption(s(10));
        tr.heal(s(20));
        for t in [21, 23, 26] {
            tr.route_changed(s(t));
        }
        tr.disruption(s(60));
        tr.heal(s(70));
        tr.route_changed(s(73));
        let recs = tr.reconvergences(s(120));
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].took, Duration::from_secs(6));
        assert!(recs[0].settled, "34 s quiet before the next disruption");
        assert_eq!(recs[1].took, Duration::from_secs(3));
        assert!(recs[1].settled, "quiet until end of run");
    }

    #[test]
    fn already_converged_heal_measures_zero() {
        let mut tr = ConvergenceTracer::new();
        tr.heal(s(5));
        let recs = tr.reconvergences(s(60));
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].took, Duration::ZERO);
        assert!(recs[0].settled);
    }

    #[test]
    fn next_disruption_censors_an_unsettled_measurement() {
        let mut tr = ConvergenceTracer::new();
        tr.heal(s(10));
        tr.route_changed(s(12));
        // Disruption lands 3 s after the last change: no full gap.
        tr.disruption(s(15));
        let recs = tr.reconvergences(s(100));
        assert_eq!(recs.len(), 1);
        assert!(!recs[0].settled, "window closed before quiescence");
        assert_eq!(recs[0].took, Duration::from_secs(2));
    }

    #[test]
    fn end_of_run_censors_too() {
        let mut tr = ConvergenceTracer::new();
        tr.heal(s(10));
        tr.route_changed(s(12));
        let recs = tr.reconvergences(s(14));
        assert!(!recs[0].settled, "run ended 2 s after the last change");
    }

    #[test]
    fn changes_outside_the_window_do_not_leak_in() {
        let mut tr = ConvergenceTracer::new();
        tr.disruption(s(5));
        tr.route_changed(s(6)); // pre-heal churn
        tr.heal(s(10));
        tr.disruption(s(30));
        tr.route_changed(s(31)); // next cycle's churn
        let recs = tr.reconvergences(s(60));
        assert_eq!(recs[0].took, Duration::ZERO, "no change inside (10, 30]");
        assert!(recs[0].settled);
    }
}
