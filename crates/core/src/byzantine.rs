//! A compromised gateway: both halves of a byzantine fault.
//!
//! A [`catenet_sim::FaultAction::Compromise`] hands a node a
//! [`Compromise`]. The lie is told at the routing layer's own interface:
//! `Node::service_dv` computes its advertisement honestly, pages it, and
//! passes every page through [`Compromise::lie`] before encoding it. The
//! node's table, its split-horizon policy and its timers all still tell
//! the truth internally, which is exactly what makes byzantine faults
//! nastier than crashes (the liar keeps participating). The forwarding
//! half, [`Compromise::eats`], silently drops the transit the lie
//! attracts.
//!
//! Nothing else the node sends or forwards is touched, and the page is
//! encoded and checksummed once, like any honest one, so receivers
//! cannot detect the lie by accident — detection has to come from the
//! route guard (or not at all, which is the point E14 prices).

use catenet_routing::message::MAX_ENTRIES;
use catenet_routing::{Attestation, OriginId, RipEntry, RipMessage, INFINITY_METRIC};
use catenet_sim::ByzantineAttack;
use catenet_wire::{Ipv4Address, Ipv4Cidr};
use std::collections::BTreeMap;

/// What a compromised node keeps: the lie it tells and the prefix it
/// eats. A crash does not clear it; only a rehabilitation does.
#[derive(Debug)]
pub(crate) struct Compromise {
    /// The lie this node tells.
    attack: ByzantineAttack,
    /// The victim of a traffic-attraction attack, whose transit the
    /// node eats.
    victim: Option<Ipv4Cidr>,
    /// Pages sent per interface (drives flap alternation).
    sends: BTreeMap<usize, u64>,
    /// First page sent per interface, replayed verbatim thereafter.
    snapshots: BTreeMap<usize, RipMessage>,
}

impl Compromise {
    pub(crate) fn new(attack: ByzantineAttack) -> Compromise {
        use ByzantineAttack::*;
        let victim = match attack {
            BlackholeVictim { addr, prefix_len }
            | HijackPrefix { addr, prefix_len }
            | HijackAttested { addr, prefix_len }
            | SpoofOrigin { addr, prefix_len } => {
                Some(Ipv4Cidr::new(Ipv4Address::from_bytes(&addr), prefix_len).network())
            }
            BogusOrigins { .. } | ReplayStale | FlapAdverts => None,
        };
        Compromise {
            attack,
            victim,
            sends: BTreeMap::new(),
            snapshots: BTreeMap::new(),
        }
    }

    /// Whether the node silently drops transit for `dst`: the lie needs
    /// teeth, so every traffic-attraction attack eats what it captures.
    pub(crate) fn eats(&self, dst: Ipv4Address) -> bool {
        self.victim.is_some_and(|victim| victim.contains(dst))
    }

    /// Whether the lie may be about `prefix`: a traffic-attraction
    /// attack lies about its victim alone, the others about any entry.
    pub(crate) fn touches(&self, prefix: &Ipv4Cidr) -> bool {
        self.victim
            .is_none_or(|victim| victim.contains_subnet(prefix) || prefix.contains_subnet(&victim))
    }

    /// Turn one honest advertisement page for `iface` into the lie. Some
    /// rounds stay true: flapping alternates, replay lets the first page
    /// through to snapshot it, and an attested hijack with no proof to
    /// relay has nothing to shorten.
    pub(crate) fn lie(&mut self, iface: usize, page: &mut RipMessage) {
        let sends = self.sends.entry(iface).or_insert(0);
        let send_index = *sends;
        *sends += 1;
        match (self.attack, self.victim) {
            (ByzantineAttack::BogusOrigins { count }, _) => {
                // Claim direct attachment to prefixes nobody owns
                // (198.18.0.0/15 is benchmarking space — guaranteed
                // absent from any honest table here).
                for j in 0..count {
                    push_capped(
                        &mut page.entries,
                        RipEntry::new(Ipv4Cidr::new(Ipv4Address::new(198, 18, j, 0), 24), 1),
                    );
                }
            }
            (ByzantineAttack::ReplayStale, _) => match self.snapshots.get(&iface) {
                Some(stale) => page.clone_from(stale),
                // The first page goes out truthfully and becomes the
                // stale state replayed forever after.
                None => {
                    self.snapshots.insert(iface, page.clone());
                }
            },
            (ByzantineAttack::FlapAdverts, _) => {
                // Even rounds tell the truth.
                if !send_index.is_multiple_of(2) {
                    for entry in &mut page.entries {
                        entry.metric = INFINITY_METRIC;
                    }
                }
            }
            (ByzantineAttack::BlackholeVictim { .. }, Some(victim)) => {
                // Advertise metric 0 for the victim: one better than any
                // honest connected route, so every neighbor prefers the
                // liar, whose forwarding path then eats the traffic.
                page.entries.retain(|entry| entry.prefix != victim);
                push_capped(&mut page.entries, RipEntry::new(victim, 0));
            }
            (ByzantineAttack::HijackPrefix { .. }, Some(victim)) => {
                // Claim a one-hop path to the victim but strip the
                // owner's proof — the liar cannot forge what it never
                // had. Metric 1 is wire-legal, so guards without
                // attestation believe it; attestation-armed guards see
                // a registered prefix with no proof and drop the entry.
                page.entries.retain(|entry| entry.prefix != victim);
                push_capped(&mut page.entries, RipEntry::new(victim, 1));
            }
            (ByzantineAttack::HijackAttested { .. }, Some(victim)) => {
                // The designed residual: shorten the metric while
                // relaying the genuine attestation already in hand.
                // Proof of origin is not proof of path — the MAC still
                // verifies, so even attestation-armed guards believe
                // the shortened claim.
                if let Some(entry) = page
                    .entries
                    .iter_mut()
                    .find(|entry| entry.prefix == victim && entry.attestation.is_some())
                {
                    entry.metric = 1;
                }
            }
            (ByzantineAttack::SpoofOrigin { .. }, Some(victim)) => {
                // Impersonate the owner outright: fabricate an
                // attestation under the owner's identity (and a serial
                // one ahead, to look fresh) without the owner's key.
                // The MAC cannot verify; only guards that skip
                // verification are fooled.
                let forged = match page
                    .entries
                    .iter()
                    .find_map(|entry| (entry.prefix == victim).then_some(entry.attestation))
                    .flatten()
                {
                    Some(real) => Attestation {
                        origin: real.origin,
                        seq: real.seq.wrapping_add(1),
                        tag: real.tag ^ 0xDEAD_BEEF_DEAD_BEEF,
                    },
                    None => Attestation {
                        origin: OriginId(0xFFFF),
                        seq: send_index as u32 + 1,
                        tag: 0xDEAD_BEEF_DEAD_BEEF,
                    },
                };
                page.entries.retain(|entry| entry.prefix != victim);
                push_capped(&mut page.entries, RipEntry::attested(victim, 1, forged));
            }
            (_, None) => unreachable!("every targeted attack names its victim"),
        }
    }
}

/// Append an entry, replacing the last one when the page is already full
/// (the lie must still fit the wire format's 64-entry page).
fn push_capped(entries: &mut Vec<RipEntry>, entry: RipEntry) {
    if entries.len() < MAX_ENTRIES {
        entries.push(entry);
    } else if let Some(last) = entries.last_mut() {
        *last = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn honest_entries() -> Vec<RipEntry> {
        vec![
            RipEntry::new("10.1.0.0/16".parse().unwrap(), 1),
            RipEntry::new("10.2.0.0/16".parse().unwrap(), 2),
        ]
    }

    fn page(entries: Vec<RipEntry>) -> RipMessage {
        RipMessage { entries }
    }

    /// The page `state` sends on `iface` in place of `honest`.
    fn told(state: &mut Compromise, iface: usize, honest: &RipMessage) -> RipMessage {
        let mut out = honest.clone();
        state.lie(iface, &mut out);
        out
    }

    #[test]
    fn blackhole_injects_metric_zero_and_eats_the_victim() {
        let mut state = Compromise::new(ByzantineAttack::BlackholeVictim {
            addr: [10, 9, 0, 0],
            prefix_len: 16,
        });
        let message = told(&mut state, 0, &page(honest_entries()));
        let victim: Ipv4Cidr = "10.9.0.0/16".parse().unwrap();
        let lie = message
            .entries
            .iter()
            .find(|e| e.prefix == victim)
            .expect("victim prefix advertised");
        assert_eq!(lie.metric, 0, "metric 0 beats every honest route");
        assert_eq!(message.entries.len(), 3, "honest entries still present");
        assert!(state.eats(Ipv4Address::new(10, 9, 3, 4)));
        assert!(!state.eats(Ipv4Address::new(10, 1, 3, 4)));
    }

    #[test]
    fn flapping_alternates_truth_and_infinity() {
        let mut state = Compromise::new(ByzantineAttack::FlapAdverts);
        let honest = page(honest_entries());
        assert_eq!(
            told(&mut state, 0, &honest),
            honest,
            "first send is truthful"
        );
        assert!(
            told(&mut state, 0, &honest)
                .entries
                .iter()
                .all(|e| e.metric == INFINITY_METRIC),
            "second send withdraws everything"
        );
        assert_eq!(
            told(&mut state, 0, &honest),
            honest,
            "third send is truthful again"
        );
        // A different interface flaps on its own schedule.
        assert_eq!(told(&mut state, 1, &honest), honest);
        assert!(
            !state.eats(Ipv4Address::new(10, 1, 0, 1)),
            "flapping eats nothing"
        );
    }

    #[test]
    fn replay_snapshots_the_first_page_and_repeats_it() {
        let mut state = Compromise::new(ByzantineAttack::ReplayStale);
        let first = page(honest_entries());
        assert_eq!(
            told(&mut state, 0, &first),
            first,
            "first page passes (and is snapshotted)"
        );
        // The node's table has since changed — but the liar replays t=0.
        let newer = page(vec![RipEntry::new("10.3.0.0/16".parse().unwrap(), 5)]);
        assert_eq!(
            told(&mut state, 0, &newer),
            first,
            "stale state substituted"
        );
        // Another interface snapshots its own first page.
        assert_eq!(told(&mut state, 1, &newer), newer);
    }

    #[test]
    fn bogus_origins_append_benchmark_space() {
        let mut state = Compromise::new(ByzantineAttack::BogusOrigins { count: 3 });
        let message = told(&mut state, 0, &page(honest_entries()));
        assert_eq!(message.entries.len(), 5);
        let bogus: Ipv4Cidr = "198.18.2.0/24".parse().unwrap();
        assert!(message
            .entries
            .iter()
            .any(|e| e.prefix == bogus && e.metric == 1));
        assert!(
            !state.eats(Ipv4Address::new(198, 18, 2, 1)),
            "bogus space attracts, eats nothing"
        );
    }

    #[test]
    fn a_full_page_keeps_the_lie_within_the_wire_limit() {
        let mut state = Compromise::new(ByzantineAttack::BlackholeVictim {
            addr: [10, 9, 0, 0],
            prefix_len: 16,
        });
        let full = page(
            (0..MAX_ENTRIES as u8)
                .map(|i| RipEntry::new(Ipv4Cidr::new(Ipv4Address::new(10, 100, i, 0), 24), 2))
                .collect(),
        );
        let message = told(&mut state, 0, &full);
        assert_eq!(message.entries.len(), MAX_ENTRIES);
        assert_eq!(
            message.entries.last().unwrap().metric,
            0,
            "the lie displaces the last entry"
        );
    }

    #[test]
    fn hijack_strips_the_attestation_it_cannot_forge() {
        let mut state = Compromise::new(ByzantineAttack::HijackPrefix {
            addr: [10, 2, 0, 0],
            prefix_len: 16,
        });
        let real = Attestation {
            origin: OriginId(2),
            seq: 40,
            tag: 0x1234,
        };
        let message = told(
            &mut state,
            0,
            &page(vec![
                RipEntry::new("10.1.0.0/16".parse().unwrap(), 1),
                RipEntry::attested("10.2.0.0/16".parse().unwrap(), 4, real),
            ]),
        );
        let victim: Ipv4Cidr = "10.2.0.0/16".parse().unwrap();
        let lie = message.entries.iter().find(|e| e.prefix == victim).unwrap();
        assert_eq!(lie.metric, 1, "liar claims a one-hop path");
        assert!(lie.attestation.is_none(), "the owner's proof is gone");
        // Other entries ride through untouched.
        assert!(message
            .entries
            .iter()
            .any(|e| e.prefix == "10.1.0.0/16".parse().unwrap() && e.metric == 1));
        assert!(state.eats(Ipv4Address::new(10, 2, 0, 9)));
    }

    #[test]
    fn attested_hijack_keeps_the_genuine_proof() {
        let mut state = Compromise::new(ByzantineAttack::HijackAttested {
            addr: [10, 2, 0, 0],
            prefix_len: 16,
        });
        // No attestation in hand yet: the round goes out honestly.
        let bare = page(vec![RipEntry::new("10.2.0.0/16".parse().unwrap(), 4)]);
        assert_eq!(told(&mut state, 0, &bare), bare);
        // With a relayed proof, only the metric is rewritten.
        let real = Attestation {
            origin: OriginId(2),
            seq: 40,
            tag: 0x1234,
        };
        let attested = page(vec![RipEntry::attested(
            "10.2.0.0/16".parse().unwrap(),
            4,
            real,
        )]);
        let lie = told(&mut state, 0, &attested).entries[0];
        assert_eq!(lie.metric, 1);
        assert_eq!(lie.attestation, Some(real), "proof relayed unmodified");
    }

    #[test]
    fn spoofed_origin_fabricates_a_bad_mac() {
        let mut state = Compromise::new(ByzantineAttack::SpoofOrigin {
            addr: [10, 2, 0, 0],
            prefix_len: 16,
        });
        let real = Attestation {
            origin: OriginId(2),
            seq: 40,
            tag: 0x1234,
        };
        let attested = page(vec![RipEntry::attested(
            "10.2.0.0/16".parse().unwrap(),
            4,
            real,
        )]);
        let lie = told(&mut state, 0, &attested).entries[0];
        let forged = lie.attestation.expect("a forged proof is attached");
        assert_eq!(lie.metric, 1);
        assert_eq!(forged.origin, real.origin, "owner's identity is claimed");
        assert_eq!(forged.seq, 41, "serial bumped to look fresh");
        assert_ne!(forged.tag, real.tag, "but the tag cannot be right");
        // Without a real attestation to copy, an identity is invented.
        let bare = page(vec![RipEntry::new("10.2.0.0/16".parse().unwrap(), 4)]);
        let forged = told(&mut state, 0, &bare).entries[0].attestation.unwrap();
        assert_eq!(forged.origin, OriginId(0xFFFF));
    }
}
