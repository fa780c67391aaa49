//! Engine-level Paxos Commit tests: a hand-driven message pump between
//! `PaxosNode`s, with participant traffic (votes, acks) injected
//! directly. Full-stack runs (real participants, timers, crashes) live
//! in `sim::tests` and the integration suites.

use super::*;
use acp_types::CostCounters;
use acp_wal::MemLog;
use std::collections::VecDeque;

fn t() -> TxnId {
    TxnId::new(7)
}

fn s(n: u32) -> SiteId {
    SiteId::new(n)
}

/// A zero-latency FIFO network between paxos nodes. Messages to
/// non-node sites (the participants) are captured in `to_parts`;
/// messages to dead nodes are dropped. Engine timers are captured so
/// tests can fire them by purpose.
struct Net {
    nodes: BTreeMap<SiteId, PaxosNode<MemLog>>,
    queue: VecDeque<(SiteId, SiteId, Payload)>,
    dead: BTreeSet<SiteId>,
    to_parts: Vec<(SiteId, SiteId, Payload)>,
    timers: Vec<(SiteId, u64, TimerPurpose)>,
    /// Every message a node has sent, to a node or a participant.
    sent: Vec<(SiteId, Payload)>,
}

impl Net {
    fn new(config: &PaxosConfig) -> Self {
        let nodes = config
            .acceptors
            .iter()
            .map(|&site| (site, PaxosNode::new(site, config.clone(), MemLog::new())))
            .collect();
        Net {
            nodes,
            queue: VecDeque::new(),
            dead: BTreeSet::new(),
            to_parts: Vec::new(),
            timers: Vec::new(),
            sent: Vec::new(),
        }
    }

    fn node(&self, site: SiteId) -> &PaxosNode<MemLog> {
        &self.nodes[&site]
    }

    fn dispatch(&mut self, from: SiteId, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Send { to, payload } => {
                    self.sent.push((from, payload.clone()));
                    if self.nodes.contains_key(&to) {
                        self.queue.push_back((from, to, payload));
                    } else {
                        self.to_parts.push((from, to, payload));
                    }
                }
                Action::SetTimer { token, purpose, .. } => {
                    self.timers.push((from, token, purpose));
                }
                _ => {}
            }
        }
    }

    /// Deliver everything queued (and whatever those deliveries queue).
    fn pump(&mut self) {
        while let Some((from, to, payload)) = self.queue.pop_front() {
            if self.dead.contains(&to) || self.dead.contains(&from) {
                continue;
            }
            let actions = self
                .nodes
                .get_mut(&to)
                .expect("queued to a node")
                .on_message(from, &payload);
            self.dispatch(to, actions);
        }
    }

    /// The leader (site 0) begins `txn` over `parts`; pump.
    fn begin(&mut self, txn: TxnId, parts: &[SiteId]) {
        let actions = self.nodes.get_mut(&s(0)).unwrap().begin_commit(txn, parts);
        self.dispatch(s(0), actions);
        self.pump();
    }

    /// The leader begins `txn` over sites 1 and 2, both vote Yes, and
    /// it decides commit; what it sent them is drained.
    fn commit_yes(&mut self, txn: TxnId) {
        self.begin(txn, &[s(1), s(2)]);
        for p in [s(1), s(2)] {
            self.inject(
                p,
                s(0),
                Payload::Vote {
                    txn,
                    vote: Vote::Yes,
                },
            );
        }
        assert_eq!(self.node(s(0)).decided(txn), Some(Outcome::Commit));
        self.drain_to_parts();
    }

    /// Inject a participant-side message into a node and pump.
    fn inject(&mut self, from: SiteId, to: SiteId, payload: Payload) {
        let actions = self
            .nodes
            .get_mut(&to)
            .expect("inject to a node")
            .on_message(from, &payload);
        self.dispatch(to, actions);
        self.pump();
    }

    /// Fire the most recently armed timer of `purpose` at `site`.
    fn fire(&mut self, site: SiteId, purpose: TimerPurpose) {
        let idx = self
            .timers
            .iter()
            .rposition(|&(si, _, p)| si == site && p == purpose)
            .expect("timer armed");
        let (_, token, _) = self.timers.remove(idx);
        let actions = self
            .nodes
            .get_mut(&site)
            .expect("timer at a node")
            .on_timer(token);
        self.dispatch(site, actions);
        self.pump();
    }

    fn drain_to_parts(&mut self) -> Vec<(SiteId, SiteId, Payload)> {
        std::mem::take(&mut self.to_parts)
    }

    /// The messages `site` has sent, tallied by kind.
    fn sent_by(&self, site: SiteId) -> CostCounters {
        let mut c = CostCounters::default();
        for (_, p) in self.sent.iter().filter(|(from, _)| *from == site) {
            c.count_message_kind(p.kind_name());
        }
        c
    }
}

fn count_kind(msgs: &[(SiteId, SiteId, Payload)], kind: &str) -> usize {
    msgs.iter()
        .filter(|(_, _, p)| p.kind_name() == kind)
        .count()
}

#[test]
fn config_shape() {
    let c = PaxosConfig::new(vec![s(0), s(3), s(4)]);
    assert_eq!(c.f(), 1);
    assert_eq!(c.quorum(), 2);
    assert_eq!(c.leader(), s(0));
    assert_eq!(c.rank(s(4)), Some(2));
    assert_eq!(c.rank(s(1)), None);
}

#[test]
#[should_panic(expected = "2f + 1")]
fn config_rejects_even_acceptor_counts() {
    let _ = PaxosConfig::new(vec![s(0), s(3)]);
}

#[test]
fn f0_clean_commit_matches_prn_shape() {
    let config = PaxosConfig::new(vec![s(0)]);
    let mut net = Net::new(&config);
    net.begin(t(), &[s(1), s(2)]);
    let msgs = net.drain_to_parts();
    assert_eq!(count_kind(&msgs, "prepare"), 2);

    net.inject(
        s(1),
        s(0),
        Payload::Vote {
            txn: t(),
            vote: Vote::Yes,
        },
    );
    assert_eq!(net.node(s(0)).decided(t()), None, "one vote is not enough");
    net.inject(
        s(2),
        s(0),
        Payload::Vote {
            txn: t(),
            vote: Vote::Yes,
        },
    );
    assert_eq!(net.node(s(0)).decided(t()), Some(Outcome::Commit));
    let msgs = net.drain_to_parts();
    assert_eq!(count_kind(&msgs, "decision"), 2);

    net.inject(s(1), s(0), Payload::Ack { txn: t() });
    net.inject(s(2), s(0), Payload::Ack { txn: t() });
    assert_eq!(net.node(s(0)).protocol_table_size(), 0);

    // PrN parity at the coordinator: one forced record (the bundle),
    // two records total (bundle + end), 2N messages sent from here.
    let log = net.node(s(0)).log().stats();
    assert_eq!(log.forces, 1);
    assert_eq!(log.appends, 2);
    let c = net.sent_by(s(0));
    assert_eq!(c.messages(), 4);
    assert_eq!(c.paxos, 0, "no paxos traffic at f = 0");
}

#[test]
fn f0_no_vote_aborts_and_excludes_the_no_voter() {
    let config = PaxosConfig::new(vec![s(0)]);
    let mut net = Net::new(&config);
    net.begin(t(), &[s(1), s(2)]);
    net.drain_to_parts();

    net.inject(
        s(1),
        s(0),
        Payload::Vote {
            txn: t(),
            vote: Vote::No,
        },
    );
    assert_eq!(net.node(s(0)).decided(t()), Some(Outcome::Abort));
    let msgs = net.drain_to_parts();
    let decisions: Vec<SiteId> = msgs
        .iter()
        .filter(|(_, _, p)| p.kind_name() == "decision")
        .map(|&(_, to, _)| to)
        .collect();
    assert_eq!(decisions, vec![s(2)], "the No voter already aborted");

    net.inject(s(2), s(0), Payload::Ack { txn: t() });
    assert_eq!(net.node(s(0)).protocol_table_size(), 0);
}

#[test]
fn f1_clean_commit_counts_match_the_analytic_model() {
    let config = PaxosConfig::new(vec![s(0), s(3), s(4)]);
    let mut net = Net::new(&config);
    net.commit_yes(t());
    net.inject(s(1), s(0), Payload::Ack { txn: t() });
    net.inject(s(2), s(0), Payload::Ack { txn: t() });

    for site in [s(0), s(3), s(4)] {
        assert_eq!(net.node(site).protocol_table_size(), 0, "{site}");
        // Bundle + end on every acceptor log, then fully reclaimed.
        assert_eq!(net.node(site).log().retained(), 0, "{site}");
        let log = net.node(site).log().stats();
        assert_eq!(log.forces, 1, "{site}: one bundled force");
        assert_eq!(log.appends, 2, "{site}: bundle + end");
    }

    // Paxos-vocabulary messages across the cluster: 8f = 8.
    let leader = net.sent_by(s(0));
    let acc3 = net.sent_by(s(3));
    let acc4 = net.sent_by(s(4));
    assert_eq!(leader.paxos + acc3.paxos + acc4.paxos, 8);
    // Total cluster-side messages: begin 2 + prepare 2 + phase2a 2 +
    // phase2b 2 + decision 2 + forget 2 = 12 (votes and acks are
    // counted at the participants, bringing the total to 4N + 8f).
    assert_eq!(leader.messages() + acc3.messages() + acc4.messages(), 12);
}

#[test]
fn leader_kill_after_phase2a_fails_over_to_commit() {
    // The headline schedule: under 2PC this transaction is stuck
    // in-doubt (coordinator dead after prepares, before decisions).
    // Under Paxos with 3 acceptors the accepted bundles survive on a
    // quorum and acceptor 3's watchdog re-drives the commit.
    let config = PaxosConfig::new(vec![s(0), s(3), s(4)]);
    let mut net = Net::new(&config);
    // Both votes arrive; the leader proposes and its phase 2a reaches
    // the acceptors — then the leader dies before hearing phase 2b (its
    // decisions, drained, die with it).
    net.commit_yes(t());
    net.dead.insert(s(0));

    // Acceptor 3's completion watchdog fires: phase 1 at ballot
    // 1024 + rank, quorum {3, 4}, both report the accepted Prepared
    // bundle — the candidate must re-propose it and reach Commit.
    net.fire(s(3), TimerPurpose::PaxosCompletion);
    assert_eq!(net.node(s(3)).decided(t()), Some(Outcome::Commit));
    let msgs = net.drain_to_parts();
    assert_eq!(
        count_kind(&msgs, "decision"),
        2,
        "re-driven to both participants"
    );
    assert!(msgs.iter().all(|&(from, _, _)| from == s(3)));

    // Participant acks flow to the new leader; the cluster forgets.
    net.inject(s(1), s(3), Payload::Ack { txn: t() });
    net.inject(s(2), s(3), Payload::Ack { txn: t() });
    assert_eq!(net.node(s(3)).protocol_table_size(), 0);
    assert_eq!(net.node(s(4)).protocol_table_size(), 0);
    assert_eq!(net.node(s(3)).log().retained(), 0);
    assert_eq!(net.node(s(4)).log().retained(), 0);
}

#[test]
fn leader_kill_before_phase2a_fails_over_to_abort() {
    // The leader dies after the prepares but before proposing: no
    // acceptor holds an accepted value, so the candidate's free choice
    // aborts every instance — the participants are released, not stuck.
    let config = PaxosConfig::new(vec![s(0), s(3), s(4)]);
    let mut net = Net::new(&config);
    net.begin(t(), &[s(1), s(2)]);
    net.drain_to_parts();
    net.dead.insert(s(0));

    net.fire(s(3), TimerPurpose::PaxosCompletion);
    assert_eq!(net.node(s(3)).decided(t()), Some(Outcome::Abort));
    let msgs = net.drain_to_parts();
    assert_eq!(count_kind(&msgs, "decision"), 2);

    net.inject(s(1), s(3), Payload::Ack { txn: t() });
    net.inject(s(2), s(3), Payload::Ack { txn: t() });
    assert_eq!(net.node(s(3)).protocol_table_size(), 0);
    assert_eq!(net.node(s(4)).protocol_table_size(), 0);
}

#[test]
fn stale_phase2a_is_ignored() {
    let config = PaxosConfig::new(vec![s(0), s(3), s(4)]);
    let mut net = Net::new(&config);
    // Acceptor 3 promises ballot 2049 to a candidate...
    net.inject(
        s(4),
        s(3),
        Payload::Phase1a {
            txn: t(),
            ballot: 2049,
        },
    );
    let records_after_promise = net.node(s(3)).log().retained();
    assert_eq!(records_after_promise, 1, "the promise is durable");
    // ...after which the old leader's ballot-0 bundle must be refused.
    net.inject(
        s(0),
        s(3),
        Payload::Phase2a {
            txn: t(),
            ballot: 0,
            instances: vec![(s(1), true), (s(2), true)],
        },
    );
    assert_eq!(net.node(s(3)).log().retained(), 1, "no acceptance logged");
    assert!(net.queue.is_empty());
    assert_eq!(
        count_kind(&net.to_parts, "phase2b"),
        0,
        "no phase2b for a stale ballot"
    );
}

#[test]
fn forgotten_phase1b_stands_the_candidate_down() {
    let config = PaxosConfig::new(vec![s(0), s(3), s(4)]);
    let mut net = Net::new(&config);
    // Acceptor 3 learns of the txn, then candidacy fires with nobody
    // answering (queue to 4 suppressed by marking it dead).
    net.inject(
        s(0),
        s(3),
        Payload::PaxosBegin {
            txn: t(),
            participants: vec![s(1), s(2)],
        },
    );
    net.dead.insert(s(4));
    net.dead.insert(s(0));
    net.fire(s(3), TimerPurpose::PaxosCompletion);
    assert!(net.node(s(3)).in_flight(t()));

    // A (late) forgotten reply: the transaction completed under the
    // original leader before the watchdog fired. Stand down quietly.
    net.dead.remove(&s(4));
    let ballot = 1024 + 1; // round 1, rank 1
    net.inject(
        s(4),
        s(3),
        Payload::Phase1b {
            txn: t(),
            ballot,
            forgotten: true,
            participants: vec![],
            accepted: vec![],
        },
    );
    assert!(!net.node(s(3)).in_flight(t()));
    assert_eq!(net.node(s(3)).decided(t()), None, "no decision invented");
}

#[test]
fn forgotten_acceptor_answers_phase1a_with_forgotten() {
    let config = PaxosConfig::new(vec![s(0), s(3), s(4)]);
    let mut net = Net::new(&config);
    // Complete a transaction so site 0 has forgotten it.
    net.begin(t(), &[s(1)]);
    net.inject(
        s(1),
        s(0),
        Payload::Vote {
            txn: t(),
            vote: Vote::Yes,
        },
    );
    net.inject(s(1), s(0), Payload::Ack { txn: t() });
    assert_eq!(net.node(s(0)).protocol_table_size(), 0);

    // A candidate probing the forgotten transaction is told so.
    let actions = net.nodes.get_mut(&s(0)).unwrap().on_message(
        s(3),
        &Payload::Phase1a {
            txn: t(),
            ballot: 3072,
        },
    );
    let forgotten = actions.iter().any(|a| {
        matches!(
            a,
            Action::Send {
                payload: Payload::Phase1b {
                    forgotten: true,
                    ..
                },
                ..
            }
        )
    });
    assert!(forgotten);
}

#[test]
fn crash_recovery_redrives_the_decision_from_the_bundle() {
    let config = PaxosConfig::new(vec![s(0)]);
    let mut net = Net::new(&config);
    net.commit_yes(t());

    // Crash before any ack; the forced bundle survives, volatile state
    // does not. Recovery re-arms the watchdog, which re-runs phase 1
    // (quorum of one) and must reach the *same* outcome.
    net.timers.clear();
    let node = net.nodes.get_mut(&s(0)).unwrap();
    node.crash();
    assert!(!node.in_flight(t()));
    let actions = node.recover();
    assert!(node.in_flight(t()));
    net.dispatch(s(0), actions);
    net.pump();

    net.fire(s(0), TimerPurpose::PaxosCompletion);
    assert_eq!(net.node(s(0)).decided(t()), Some(Outcome::Commit));
    let msgs = net.drain_to_parts();
    assert_eq!(count_kind(&msgs, "decision"), 2, "decision re-sent");

    net.inject(s(1), s(0), Payload::Ack { txn: t() });
    net.inject(s(2), s(0), Payload::Ack { txn: t() });
    assert_eq!(net.node(s(0)).protocol_table_size(), 0);
    assert_eq!(net.node(s(0)).log().retained(), 0, "log reclaimed");
}

/// A node reopened over the log a crash left — a fresh `PaxosNode` on
/// the surviving records, as a host restarting from an existing log
/// builds it — keeps its undone transaction's acceptance pinned: a
/// later transaction's collection must not reclaim the `paxos-accept`
/// record the acceptor voted with.
#[test]
fn a_reopened_acceptor_keeps_its_open_transactions_pinned() {
    let config = PaxosConfig::new(vec![s(0)]);
    let mut net = Net::new(&config);
    net.commit_yes(t());

    let mut survivors = net.node(s(0)).log().clone();
    survivors.lose_unflushed().unwrap();
    let mut reopened = PaxosNode::new(s(0), config.clone(), survivors);
    let actions = reopened.recover();
    assert_eq!(reopened.log_pinned(), vec![t()]);
    net.timers.clear();
    net.nodes.insert(s(0), reopened);
    net.dispatch(s(0), actions);
    net.pump();

    // A second transaction runs to its acks and is collected.
    let second = TxnId::new(8);
    net.commit_yes(second);
    for p in [s(1), s(2)] {
        net.inject(p, s(0), Payload::Ack { txn: second });
    }
    assert!(!net.node(s(0)).in_flight(second));

    let node = net.node(s(0));
    assert_eq!(
        node.log_pinned(),
        vec![t()],
        "the first transaction is open"
    );
    let accept_kept = node
        .log()
        .records()
        .unwrap()
        .iter()
        .any(|r| matches!(r.payload, LogPayload::PaxosAccept { txn, .. } if txn == t()));
    assert!(
        accept_kept,
        "the open transaction's acceptance was collected"
    );
}

#[test]
fn inquiry_answers_follow_decision_then_presumption() {
    let config = PaxosConfig::new(vec![s(0)]);
    let mut net = Net::new(&config);
    net.begin(t(), &[s(1), s(2)]);

    // Voting phase: silence (the participant retries).
    let acts = net.nodes.get_mut(&s(0)).unwrap().on_message(
        s(1),
        &Payload::Inquiry {
            txn: t(),
            protocol: acp_types::ProtocolKind::PrN,
        },
    );
    assert!(acts.iter().all(|a| !matches!(a, Action::Send { .. })));

    // After the decision: the real outcome.
    net.inject(
        s(1),
        s(0),
        Payload::Vote {
            txn: t(),
            vote: Vote::Yes,
        },
    );
    net.inject(
        s(2),
        s(0),
        Payload::Vote {
            txn: t(),
            vote: Vote::Yes,
        },
    );
    let acts = net.nodes.get_mut(&s(0)).unwrap().on_message(
        s(1),
        &Payload::Inquiry {
            txn: t(),
            protocol: acp_types::ProtocolKind::PrN,
        },
    );
    assert!(acts.iter().any(|a| matches!(
        a,
        Action::Send {
            payload: Payload::InquiryResponse {
                outcome: Outcome::Commit,
                ..
            },
            ..
        }
    )));

    // Unknown transaction: the hidden abort presumption.
    let acts = net.nodes.get_mut(&s(0)).unwrap().on_message(
        s(9),
        &Payload::Inquiry {
            txn: TxnId::new(99),
            protocol: acp_types::ProtocolKind::PrN,
        },
    );
    assert!(acts.iter().any(|a| matches!(
        a,
        Action::Send {
            payload: Payload::InquiryResponse {
                outcome: Outcome::Abort,
                ..
            },
            ..
        }
    )));
}
