//! Coordinator engine unit tests: one module per protocol variant, each
//! checking the exact schedules of the corresponding paper figure.

use super::*;
use crate::action::{acta_events, sent_payloads};
use acp_types::SelectionPolicy;
use acp_wal::MemLog;

fn coordinator(kind: CoordinatorKind, protos: &[ProtocolKind]) -> Coordinator<MemLog> {
    let mut c = Coordinator::new(SiteId::new(0), kind, MemLog::new());
    for (i, &p) in protos.iter().enumerate() {
        c.register_site(SiteId::new(i as u32 + 1), p);
    }
    c
}

fn sites(n: usize) -> Vec<SiteId> {
    (1..=n as u32).map(SiteId::new).collect()
}

fn t() -> TxnId {
    TxnId::new(1)
}

/// Deliver `v`, site `s`'s vote on `txn`.
fn vote(c: &mut Coordinator<MemLog>, txn: TxnId, s: u32, v: Vote) -> Vec<Action> {
    c.on_message(SiteId::new(s), &Payload::Vote { txn, vote: v })
}

/// Deliver a Yes vote from site `s`.
fn yes(c: &mut Coordinator<MemLog>, s: u32) -> Vec<Action> {
    vote(c, t(), s, Vote::Yes)
}

fn ack(c: &mut Coordinator<MemLog>, s: u32) -> Vec<Action> {
    c.on_message(SiteId::new(s), &Payload::Ack { txn: t() })
}

fn log_kinds(c: &Coordinator<MemLog>) -> Vec<(String, bool)> {
    c.log
        .all_records()
        .iter()
        .map(|r| (r.payload.kind_name().to_string(), r.forced))
        .collect()
}

/// The vote timeout an engine step armed.
fn vote_timer(actions: &[Action]) -> u64 {
    let armed = |a: &Action| match *a {
        Action::SetTimer {
            token,
            purpose: TimerPurpose::VoteTimeout,
            ..
        } => Some(token),
        _ => None,
    };
    actions.iter().find_map(armed).expect("a vote timeout")
}

/// The outcome an engine step decided, read off its `Decide` event.
fn decision_in(actions: &[Action]) -> Option<Outcome> {
    acta_events(actions).into_iter().find_map(|e| match e {
        ActaEvent::Decide { outcome, .. } => Some(outcome),
        _ => None,
    })
}

fn decisions_sent(actions: &[Action]) -> Vec<(SiteId, Outcome)> {
    sent_payloads(actions)
        .into_iter()
        .filter_map(|(to, p)| match p {
            Payload::Decision { outcome, .. } => Some((to, outcome)),
            _ => None,
        })
        .collect()
}

mod prn {
    use super::*;

    #[test]
    fn commit_schedule_matches_figure_2() {
        let mut c = coordinator(
            CoordinatorKind::Single(ProtocolKind::PrN),
            &[ProtocolKind::PrN; 2],
        );
        c.auto_gc = false;
        let a = c.begin_commit(t(), &sites(2));
        // No initiation record; two prepares.
        assert!(log_kinds(&c).is_empty());
        assert_eq!(sent_payloads(&a).len(), 2);

        yes(&mut c, 1);
        let a = yes(&mut c, 2);
        // Forced decision record, then decisions out.
        assert_eq!(log_kinds(&c), vec![("commit".to_string(), true)]);
        assert_eq!(decisions_sent(&a).len(), 2);
        assert_eq!(c.protocol_table_size(), 1);

        ack(&mut c, 1);
        let a = ack(&mut c, 2);
        // Non-forced end record, DeletePT.
        assert_eq!(
            log_kinds(&c),
            vec![("commit".to_string(), true), ("end".to_string(), false)]
        );
        assert!(acta_events(&a)
            .iter()
            .any(|e| matches!(e, ActaEvent::DeletePt { .. })));
        assert_eq!(c.protocol_table_size(), 0);
    }

    #[test]
    fn abort_also_forces_decision_and_awaits_all_acks() {
        let mut c = coordinator(
            CoordinatorKind::Single(ProtocolKind::PrN),
            &[ProtocolKind::PrN; 2],
        );
        c.auto_gc = false;
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        let a = vote(&mut c, t(), 2, Vote::No);
        assert_eq!(log_kinds(&c), vec![("abort".to_string(), true)]);
        // Abort goes only to the yes-voter; the No voter aborted itself.
        assert_eq!(decisions_sent(&a), vec![(SiteId::new(1), Outcome::Abort)]);
        ack(&mut c, 1);
        assert_eq!(c.protocol_table_size(), 0);
        assert_eq!(log_kinds(&c).last().unwrap().0, "end");
    }

    #[test]
    fn decision_record_carries_participants_for_recovery() {
        let mut c = coordinator(
            CoordinatorKind::Single(ProtocolKind::PrN),
            &[ProtocolKind::PrN; 2],
        );
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        yes(&mut c, 2);
        let recs = c.log.all_records();
        match &recs[0].payload {
            LogPayload::CoordDecision { participants, .. } => assert_eq!(participants.len(), 2),
            other => panic!("unexpected record {other}"),
        }
    }

    #[test]
    fn unknown_inquiry_answered_abort_by_hidden_presumption() {
        let mut c = coordinator(
            CoordinatorKind::Single(ProtocolKind::PrN),
            &[ProtocolKind::PrN],
        );
        let a = c.on_message(
            SiteId::new(1),
            &Payload::Inquiry {
                txn: TxnId::new(99),
                protocol: ProtocolKind::PrN,
            },
        );
        let sends = sent_payloads(&a);
        assert!(
            matches!(
                sends[0].1,
                Payload::InquiryResponse {
                    outcome: Outcome::Abort,
                    ..
                }
            ),
            "{sends:?}"
        );
        assert!(acta_events(&a).iter().any(|e| matches!(
            e,
            ActaEvent::Respond {
                by_presumption: true,
                ..
            }
        )));
    }

    #[test]
    fn vote_timeout_aborts() {
        let mut c = coordinator(
            CoordinatorKind::Single(ProtocolKind::PrN),
            &[ProtocolKind::PrN; 2],
        );
        let a = c.begin_commit(t(), &sites(2));
        let token = vote_timer(&a);
        yes(&mut c, 1); // one vote arrives; the other never does
        let a = c.on_timer(token);
        assert_eq!(decision_in(&a), Some(Outcome::Abort));
        // Both the yes-voter and the silent participant get the abort
        // (the silent one may be prepared with its vote lost in flight).
        assert_eq!(decisions_sent(&a).len(), 2);
    }

    #[test]
    fn crash_during_voting_leaves_no_trace_and_presumes_abort() {
        let mut c = coordinator(
            CoordinatorKind::Single(ProtocolKind::PrN),
            &[ProtocolKind::PrN; 2],
        );
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        c.crash();
        let a = c.recover();
        assert!(a.is_empty(), "no stable records → nothing to recover");
        assert_eq!(c.protocol_table_size(), 0);
        // Prepared participant inquires; hidden presumption answers abort.
        let a = c.on_message(
            SiteId::new(1),
            &Payload::Inquiry {
                txn: t(),
                protocol: ProtocolKind::PrN,
            },
        );
        assert!(matches!(
            sent_payloads(&a)[0].1,
            Payload::InquiryResponse {
                outcome: Outcome::Abort,
                ..
            }
        ));
    }

    #[test]
    fn crash_after_decision_resends_recorded_decision() {
        let mut c = coordinator(
            CoordinatorKind::Single(ProtocolKind::PrN),
            &[ProtocolKind::PrN; 2],
        );
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        yes(&mut c, 2);
        ack(&mut c, 1); // one ack in; crash before the second
        c.crash();
        let a = c.recover();
        // Decision re-sent to all recorded participants (the acked one
        // answers again per footnote 5).
        let resent = decisions_sent(&a);
        assert_eq!(resent.len(), 2);
        assert!(resent.iter().all(|(_, o)| *o == Outcome::Commit));
        assert_eq!(c.protocol_table_size(), 1);
        ack(&mut c, 1);
        ack(&mut c, 2);
        assert_eq!(c.protocol_table_size(), 0);
    }
}

mod pra {
    use super::*;

    #[test]
    fn abort_leaves_no_log_records_and_forgets_immediately() {
        let mut c = coordinator(
            CoordinatorKind::Single(ProtocolKind::PrA),
            &[ProtocolKind::PrA; 2],
        );
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        let a = vote(&mut c, t(), 2, Vote::No);
        assert!(
            log_kinds(&c).is_empty(),
            "PrA coordinators never log aborts"
        );
        assert_eq!(decisions_sent(&a), vec![(SiteId::new(1), Outcome::Abort)]);
        assert_eq!(
            c.protocol_table_size(),
            0,
            "forgotten without waiting for acks"
        );
    }

    #[test]
    fn commit_schedule_matches_figure_3_commit_side() {
        let mut c = coordinator(
            CoordinatorKind::Single(ProtocolKind::PrA),
            &[ProtocolKind::PrA; 2],
        );
        c.auto_gc = false;
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        yes(&mut c, 2);
        assert_eq!(log_kinds(&c), vec![("commit".to_string(), true)]);
        ack(&mut c, 1);
        ack(&mut c, 2);
        assert_eq!(log_kinds(&c).last().unwrap().0, "end");
        assert_eq!(c.protocol_table_size(), 0);
    }

    #[test]
    fn crash_after_abort_never_resubmits() {
        // Footnote 4: a PrA coordinator has no recollection of aborted
        // transactions after a failure.
        let mut c = coordinator(
            CoordinatorKind::Single(ProtocolKind::PrA),
            &[ProtocolKind::PrA; 2],
        );
        c.begin_commit(t(), &sites(2));
        vote(&mut c, t(), 1, Vote::No);
        c.crash();
        assert!(c.recover().is_empty());
    }

    #[test]
    fn recovered_decisions_are_always_commit() {
        let mut c = coordinator(
            CoordinatorKind::Single(ProtocolKind::PrA),
            &[ProtocolKind::PrA; 2],
        );
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        yes(&mut c, 2);
        c.crash();
        let a = c.recover();
        let resent = decisions_sent(&a);
        assert_eq!(resent.len(), 2);
        assert!(resent.iter().all(|(_, o)| *o == Outcome::Commit));
    }
}

mod prc {
    use super::*;

    fn prc() -> Coordinator<MemLog> {
        let mut c = coordinator(
            CoordinatorKind::Single(ProtocolKind::PrC),
            &[ProtocolKind::PrC; 2],
        );
        c.auto_gc = false;
        c
    }

    #[test]
    fn commit_schedule_matches_figure_4a() {
        let mut c = prc();
        c.begin_commit(t(), &sites(2));
        assert_eq!(log_kinds(&c), vec![("initiation".to_string(), true)]);
        yes(&mut c, 1);
        yes(&mut c, 2);
        // Forced commit record; no acks expected; forgotten at once. The
        // lazy end record is an implementation GC marker (documented in
        // DESIGN.md).
        assert_eq!(
            log_kinds(&c),
            vec![
                ("initiation".to_string(), true),
                ("commit".to_string(), true),
                ("end".to_string(), false),
            ]
        );
        assert_eq!(c.protocol_table_size(), 0);
    }

    #[test]
    fn abort_schedule_matches_figure_4b() {
        let mut c = prc();
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        let a = vote(&mut c, t(), 2, Vote::No);
        // No abort decision record — the initiation record carries the
        // abort across failures.
        assert_eq!(log_kinds(&c), vec![("initiation".to_string(), true)]);
        assert_eq!(decisions_sent(&a), vec![(SiteId::new(1), Outcome::Abort)]);
        assert_eq!(c.protocol_table_size(), 1, "waits for abort acks");
        ack(&mut c, 1);
        assert_eq!(c.protocol_table_size(), 0);
        assert_eq!(log_kinds(&c).last().unwrap().0, "end");
    }

    #[test]
    fn unknown_inquiry_answered_commit_by_presumption() {
        let mut c = prc();
        let a = c.on_message(
            SiteId::new(1),
            &Payload::Inquiry {
                txn: TxnId::new(42),
                protocol: ProtocolKind::PrC,
            },
        );
        assert!(matches!(
            sent_payloads(&a)[0].1,
            Payload::InquiryResponse {
                outcome: Outcome::Commit,
                ..
            }
        ));
    }

    #[test]
    fn crash_with_initiation_but_no_commit_aborts_on_recovery() {
        let mut c = prc();
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        c.crash();
        let a = c.recover();
        assert_eq!(decision_in(&a), Some(Outcome::Abort));
        let resent = decisions_sent(&a);
        assert_eq!(resent.len(), 2);
        assert!(resent.iter().all(|(_, o)| *o == Outcome::Abort));
    }

    #[test]
    fn crash_after_commit_record_does_not_resend() {
        // "A coordinator in PrC never re-submits commit decisions …"
        let mut c = prc();
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        yes(&mut c, 2);
        c.crash(); // the lazy end record is lost, initiation+commit survive
        let a = c.recover();
        assert!(decisions_sent(&a).is_empty());
        // But the end record is re-written so the log can be reclaimed.
        assert_eq!(log_kinds(&c).last().unwrap().0, "end");
        assert_eq!(c.protocol_table_size(), 0);
    }
}

mod u2pc {
    use super::*;

    /// Theorem 1, Part III: the motivating example of §2. Coordinator
    /// and one participant run PrC, the other participant runs PrA; an
    /// aborted transaction is forgotten after the PrC participant's ack,
    /// and the PrA participant's later inquiry is answered with the
    /// wrong (commit) presumption.
    #[test]
    fn part_iii_abort_forgotten_then_wrong_commit_presumption() {
        let mut c = coordinator(
            CoordinatorKind::U2pc(ProtocolKind::PrC),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        yes(&mut c, 2);
        // All voted yes but the coordinator times out? No — drive an
        // explicit abort via a No re-vote is impossible after commit.
        // Instead abort by vote timeout before the second vote:
        let mut c = coordinator(
            CoordinatorKind::U2pc(ProtocolKind::PrC),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        let a = c.begin_commit(t(), &sites(2));
        yes(&mut c, 1); // PrA participant is prepared
        let token = vote_timer(&a);
        let a = c.on_timer(token); // abort decided; decisions sent to both
        assert_eq!(decision_in(&a), Some(Outcome::Abort));
        // Only the PrC participant acks aborts; U2PC waits only for it.
        ack(&mut c, 2);
        assert_eq!(c.protocol_table_size(), 0, "forgotten after PrC ack only");

        // The PrA participant (which never received the abort) inquires…
        let a = c.on_message(
            SiteId::new(1),
            &Payload::Inquiry {
                txn: t(),
                protocol: ProtocolKind::PrA,
            },
        );
        // …and is answered with the coordinator's own PrC presumption:
        // COMMIT, violating atomicity.
        assert!(matches!(
            sent_payloads(&a)[0].1,
            Payload::InquiryResponse {
                outcome: Outcome::Commit,
                ..
            }
        ));
    }

    /// Theorem 1, Part I: PrN coordinator, committed transaction
    /// forgotten after the PrA participant's ack; the crashed PrC
    /// participant's inquiry is answered with the hidden abort
    /// presumption.
    #[test]
    fn part_i_commit_forgotten_then_wrong_abort_presumption() {
        let mut c = coordinator(
            CoordinatorKind::U2pc(ProtocolKind::PrN),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        let a = yes(&mut c, 2);
        assert_eq!(decision_in(&a), Some(Outcome::Commit));
        ack(&mut c, 1); // PrA acks; PrC never acks commits
        assert_eq!(c.protocol_table_size(), 0, "forgotten after PrA ack only");

        let a = c.on_message(
            SiteId::new(2),
            &Payload::Inquiry {
                txn: t(),
                protocol: ProtocolKind::PrC,
            },
        );
        assert!(matches!(
            sent_payloads(&a)[0].1,
            Payload::InquiryResponse {
                outcome: Outcome::Abort,
                ..
            }
        ));
    }

    /// Theorem 1, Part II: same as Part I but with a PrA coordinator —
    /// the explicit abort presumption gives the same wrong answer.
    #[test]
    fn part_ii_commit_forgotten_then_wrong_abort_presumption() {
        let mut c = coordinator(
            CoordinatorKind::U2pc(ProtocolKind::PrA),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        yes(&mut c, 2);
        ack(&mut c, 1);
        assert_eq!(c.protocol_table_size(), 0);
        let a = c.on_message(
            SiteId::new(2),
            &Payload::Inquiry {
                txn: t(),
                protocol: ProtocolKind::PrC,
            },
        );
        assert!(matches!(
            sent_payloads(&a)[0].1,
            Payload::InquiryResponse {
                outcome: Outcome::Abort,
                ..
            }
        ));
    }
}

mod c2pc {
    use super::*;

    /// Theorem 2: with a PrC participant in a committed transaction, the
    /// expected-ack set never drains, the end record is never written,
    /// and the protocol table entry lives forever.
    #[test]
    fn commit_with_prc_participant_is_remembered_forever() {
        let mut c = coordinator(
            CoordinatorKind::C2pc(ProtocolKind::PrN),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        yes(&mut c, 2);
        ack(&mut c, 1); // PrA acks; PrC never will
        assert_eq!(c.protocol_table_size(), 1, "still waiting for the PrC ack");
        assert!(c.log_pinned().contains(&t()), "no end record: log pinned");
    }

    #[test]
    fn abort_with_pra_participant_is_remembered_forever() {
        let mut c = coordinator(
            CoordinatorKind::C2pc(ProtocolKind::PrC),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        vote(&mut c, t(), 2, Vote::No);
        // C2PC force-logs the abort (it must always remember).
        assert!(log_kinds(&c).iter().any(|(k, f)| k == "abort" && *f));
        // Only the PrA yes-voter gets the decision; it never acks aborts.
        assert_eq!(c.protocol_table_size(), 1);
    }

    #[test]
    fn inquiries_answered_from_log_never_by_presumption() {
        let mut c = coordinator(
            CoordinatorKind::C2pc(ProtocolKind::PrN),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        // Keep the log: C2PC's answer-from-log depends on the decision
        // record still being present (once every ack arrived nobody is
        // left to inquire, so reclaiming would be safe — but this test
        // inquires artificially).
        c.auto_gc = false;
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        yes(&mut c, 2);
        c.crash();
        c.recover();
        // Even though the table was rebuilt, simulate a direct unknown
        // lookup: inquire about a *different* committed transaction to
        // force the log path — here just drop the table entry by acking
        // everyone.
        ack(&mut c, 1);
        ack(&mut c, 2);
        assert_eq!(c.protocol_table_size(), 0);
        let a = c.on_message(
            SiteId::new(2),
            &Payload::Inquiry {
                txn: t(),
                protocol: ProtocolKind::PrC,
            },
        );
        let events = acta_events(&a);
        match &events[0] {
            ActaEvent::Respond {
                outcome,
                by_presumption,
                ..
            } => {
                assert_eq!(*outcome, Outcome::Commit);
                assert!(!by_presumption, "answered from the log");
            }
            other => panic!("unexpected event {other}"),
        }
    }
}

mod prany {
    use super::*;

    fn prany(protos: &[ProtocolKind]) -> Coordinator<MemLog> {
        let mut c = coordinator(CoordinatorKind::PrAny(SelectionPolicy::PaperStrict), protos);
        c.auto_gc = false;
        c
    }

    /// Figure 1 (a): commit case with a PrA and a PrC participant.
    #[test]
    fn commit_schedule_matches_figure_1a() {
        let mut c = prany(&[ProtocolKind::PrA, ProtocolKind::PrC]);
        c.begin_commit(t(), &sites(2));
        // Forced initiation record including the participants' protocols.
        let recs = c.log.all_records();
        match &recs[0].payload {
            LogPayload::Initiation {
                participants, mode, ..
            } => {
                assert_eq!(*mode, acp_types::CommitMode::PrAny);
                assert_eq!(participants[0].protocol, ProtocolKind::PrA);
                assert_eq!(participants[1].protocol, ProtocolKind::PrC);
            }
            other => panic!("unexpected record {other}"),
        }
        yes(&mut c, 1);
        yes(&mut c, 2);
        assert_eq!(
            log_kinds(&c),
            vec![
                ("initiation".to_string(), true),
                ("commit".to_string(), true)
            ]
        );
        // Only the PrA participant is expected to ack the commit.
        assert_eq!(c.protocol_table_size(), 1);
        ack(&mut c, 1);
        assert_eq!(c.protocol_table_size(), 0);
        assert_eq!(log_kinds(&c).last().unwrap().0, "end");
    }

    /// Figure 1 (b): abort case — no decision record, PrC ack awaited.
    #[test]
    fn abort_schedule_matches_figure_1b() {
        let mut c = prany(&[ProtocolKind::PrA, ProtocolKind::PrC]);
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        vote(&mut c, t(), 2, Vote::No);
        // No abort decision record; the lazy end is the GC marker for
        // the initiation record.
        assert_eq!(
            log_kinds(&c),
            vec![("initiation".to_string(), true), ("end".to_string(), false)]
        );
        // The PrC participant voted No (unilateral abort) so only the
        // PrA participant got the decision — and PrA never acks aborts:
        // the coordinator can forget at once.
        assert_eq!(c.protocol_table_size(), 0);

        // Same population, abort by timeout with both prepared:
        let mut c = prany(&[ProtocolKind::PrA, ProtocolKind::PrC]);
        let a = c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        yes(&mut c, 2);
        // Rebuild: both yes ⇒ commit. Need abort with both prepared —
        // use a fresh txn where votes stall and the timer fires.
        let _ = a;
        let mut c = prany(&[ProtocolKind::PrA, ProtocolKind::PrC]);
        let a = c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        let token = vote_timer(&a);
        let a = c.on_timer(token);
        assert_eq!(decisions_sent(&a).len(), 2, "abort sent to both");
        assert_eq!(c.protocol_table_size(), 1, "awaiting the PrC ack only");
        ack(&mut c, 2);
        assert_eq!(c.protocol_table_size(), 0);
        assert_eq!(log_kinds(&c).last().unwrap().0, "end");
    }

    /// §4.2: inquiries about forgotten transactions adopt the
    /// *inquirer's* presumption.
    #[test]
    fn forgotten_commit_inquiry_by_prc_answered_commit() {
        let mut c = prany(&[ProtocolKind::PrA, ProtocolKind::PrC]);
        c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        yes(&mut c, 2);
        ack(&mut c, 1); // forgotten now
        let a = c.on_message(
            SiteId::new(2),
            &Payload::Inquiry {
                txn: t(),
                protocol: ProtocolKind::PrC,
            },
        );
        assert!(matches!(
            sent_payloads(&a)[0].1,
            Payload::InquiryResponse {
                outcome: Outcome::Commit,
                ..
            }
        ));
    }

    #[test]
    fn forgotten_abort_inquiry_by_pra_answered_abort() {
        let mut c = prany(&[ProtocolKind::PrA, ProtocolKind::PrC]);
        let a = c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        let token = vote_timer(&a);
        c.on_timer(token); // abort
        ack(&mut c, 2); // PrC acks; forgotten
        assert_eq!(c.protocol_table_size(), 0);
        let a = c.on_message(
            SiteId::new(1),
            &Payload::Inquiry {
                txn: t(),
                protocol: ProtocolKind::PrA,
            },
        );
        assert!(matches!(
            sent_payloads(&a)[0].1,
            Payload::InquiryResponse {
                outcome: Outcome::Abort,
                ..
            }
        ));
    }

    /// §4.2 recovery: initiation + commit record ⇒ commit re-sent to PrN
    /// and PrA participants but not PrC.
    #[test]
    fn recovery_resends_commit_to_prn_and_pra_only() {
        let mut c = prany(&[ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC]);
        c.begin_commit(t(), &sites(3));
        yes(&mut c, 1);
        yes(&mut c, 2);
        yes(&mut c, 3);
        c.crash();
        let a = c.recover();
        let resent = decisions_sent(&a);
        let targets: Vec<u32> = resent.iter().map(|(s, _)| s.raw()).collect();
        assert_eq!(targets, vec![1, 2], "PrC participant (site 3) excluded");
        assert!(resent.iter().all(|(_, o)| *o == Outcome::Commit));
    }

    /// §4.2 recovery: initiation only ⇒ abort re-sent to PrN and PrC
    /// participants but not PrA (footnote 4).
    #[test]
    fn recovery_resends_abort_to_prn_and_prc_only() {
        let mut c = prany(&[ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC]);
        c.begin_commit(t(), &sites(3));
        yes(&mut c, 1); // crash before all votes: no commit record
        c.crash();
        let a = c.recover();
        let resent = decisions_sent(&a);
        let targets: Vec<u32> = resent.iter().map(|(s, _)| s.raw()).collect();
        assert_eq!(targets, vec![1, 3], "PrA participant (site 2) excluded");
        assert!(resent.iter().all(|(_, o)| *o == Outcome::Abort));
        assert_eq!(decision_in(&a), Some(Outcome::Abort));
    }

    /// Homogeneous populations run the native protocol (§4.1).
    #[test]
    fn homogeneous_population_uses_native_mode() {
        let mut c = prany(&[ProtocolKind::PrA, ProtocolKind::PrA]);
        c.begin_commit(t(), &sites(2));
        assert!(log_kinds(&c).is_empty(), "PrA mode: no initiation record");
        assert_eq!(c.mode_for(&sites(2)), acp_types::CommitMode::PrA);
    }

    /// The read-only optimization: read-only voters drop out; an
    /// all-read-only transaction has no decision phase at all.
    #[test]
    fn all_read_only_transaction_skips_phase_two() {
        let mut c = prany(&[ProtocolKind::PrA, ProtocolKind::PrC]);
        c.begin_commit(t(), &sites(2));
        vote(&mut c, t(), 1, Vote::ReadOnly);
        let a = vote(&mut c, t(), 2, Vote::ReadOnly);
        assert!(decisions_sent(&a).is_empty(), "no decision messages");
        assert_eq!(decision_in(&a), Some(Outcome::Commit));
        assert_eq!(c.protocol_table_size(), 0);
        // Initiation record still needs its end marker for GC.
        assert_eq!(log_kinds(&c).last().unwrap().0, "end");
        assert!(
            !log_kinds(&c).iter().any(|(k, _)| k == "commit"),
            "no commit record"
        );
    }

    #[test]
    fn mixed_read_only_commit_notifies_update_participants_only() {
        let mut c = prany(&[ProtocolKind::PrA, ProtocolKind::PrC]);
        c.begin_commit(t(), &sites(2));
        vote(&mut c, t(), 1, Vote::ReadOnly);
        let a = yes(&mut c, 2);
        assert_eq!(decisions_sent(&a), vec![(SiteId::new(2), Outcome::Commit)]);
        // PrC participant doesn't ack commits ⇒ forgotten immediately.
        assert_eq!(c.protocol_table_size(), 0);
    }

    /// Late vote after the coordinator forgot: ignored. The prepared
    /// voter resolves through its own inquiry, which carries its
    /// protocol and is answered by the correct presumption (§4.2) —
    /// answering the *vote* by presumption would be unsafe, since a vote
    /// does not identify which presumption may still hold.
    #[test]
    fn late_yes_vote_after_forget_is_ignored() {
        let mut c = prany(&[ProtocolKind::PrA, ProtocolKind::PrC]);
        let a = c.begin_commit(t(), &sites(2));
        yes(&mut c, 1);
        let token = vote_timer(&a);
        c.on_timer(token); // abort; PrC (site 2) never voted
        ack(&mut c, 2); // site 2 acked per footnote 5 (it got the abort)
        assert_eq!(c.protocol_table_size(), 0);
        // Site 2's much-delayed Yes vote arrives after the forget.
        let a = yes(&mut c, 2);
        assert!(decisions_sent(&a).is_empty());
        // Its inquiry, however, is answered — with *its* presumption.
        let a = c.on_message(
            SiteId::new(2),
            &Payload::Inquiry {
                txn: t(),
                protocol: ProtocolKind::PrC,
            },
        );
        assert_eq!(sent_payloads(&a).len(), 1);
    }

    #[test]
    fn gc_reclaims_completed_transactions_automatically() {
        let mut c = coordinator(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        assert!(c.auto_gc);
        for i in 0..5 {
            let txn = TxnId::new(i);
            c.begin_commit(txn, &sites(2));
            vote(&mut c, txn, 1, Vote::Yes);
            vote(&mut c, txn, 2, Vote::Yes);
            c.on_message(SiteId::new(1), &Payload::Ack { txn });
        }
        assert!(c.log_pinned().is_empty());
        // Everything before the last lazy end record is reclaimable; the
        // log retains at most the unforced tail.
        assert!(
            c.log.retained() <= 1,
            "retained {} records",
            c.log.retained()
        );
    }
}

mod cost_accounting {
    use super::*;

    /// How many of the actions send a message of `kind`.
    fn sent(actions: &[Action], kind: &str) -> usize {
        sent_payloads(actions)
            .iter()
            .filter(|(_, m)| m.kind_name() == kind)
            .count()
    }

    #[test]
    fn prn_commit_costs() {
        let mut c = coordinator(
            CoordinatorKind::Single(ProtocolKind::PrN),
            &[ProtocolKind::PrN; 3],
        );
        let mut actions = c.begin_commit(t(), &sites(3));
        for s in 1..=3 {
            actions.extend(yes(&mut c, s));
        }
        for s in 1..=3 {
            actions.extend(ack(&mut c, s));
        }
        let log = c.log.stats();
        assert_eq!(log.forces, 1); // decision
        assert_eq!(log.appends, 2); // + end
        assert_eq!(sent(&actions, "prepare"), 3);
        assert_eq!(sent(&actions, "decision"), 3);
    }

    #[test]
    fn prany_commit_costs() {
        let mut c = coordinator(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        let mut actions = c.begin_commit(t(), &sites(2));
        actions.extend(yes(&mut c, 1));
        actions.extend(yes(&mut c, 2));
        actions.extend(ack(&mut c, 1));
        let log = c.log.stats();
        assert_eq!(log.forces, 2); // initiation + commit
        assert_eq!(log.appends, 3); // + end
        assert_eq!(sent_payloads(&actions).len(), 2 + 2); // prepares + decisions (votes/acks are the participants')
    }
}

mod pcp {
    use super::*;
    use acp_types::SelectionPolicy;

    #[test]
    fn join_leave_lifecycle() {
        let mut c = coordinator(CoordinatorKind::PrAny(SelectionPolicy::PaperStrict), &[]);
        c.register_site(SiteId::new(1), ProtocolKind::PrA);
        c.register_site(SiteId::new(2), ProtocolKind::PrC);
        assert_eq!(c.site_protocol(SiteId::new(1)), Some(ProtocolKind::PrA));
        c.unregister_site(SiteId::new(2)).unwrap();
        assert_eq!(c.site_protocol(SiteId::new(2)), None);
    }

    #[test]
    fn leave_refused_while_in_flight() {
        let mut c = coordinator(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        c.begin_commit(t(), &sites(2));
        let err = c.unregister_site(SiteId::new(1)).unwrap_err();
        assert!(err.to_string().contains("in-flight"));
        // After the transaction completes, leaving is fine.
        yes(&mut c, 1);
        yes(&mut c, 2);
        ack(&mut c, 1);
        c.unregister_site(SiteId::new(1)).unwrap();
    }

    #[test]
    fn protocol_upgrade_applies_to_future_transactions_only() {
        // Site 1 upgrades PrA → PrC between transactions; recovery of the
        // old transaction must honor the protocols *recorded* in the
        // initiation record, not the new PCP.
        let mut c = coordinator(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        c.begin_commit(t(), &sites(2)); // initiation records PrA for site 1
        yes(&mut c, 1);
        c.register_site(SiteId::new(1), ProtocolKind::PrC); // upgrade
        c.crash();
        let a = c.recover();
        // §4.2 abort path: re-sent only to PrN and PrC participants of
        // record — site 1 was *recorded* as PrA, so only site 2 is
        // notified, despite the PCP now calling site 1 a PrC site.
        let targets: Vec<u32> = decisions_sent(&a).iter().map(|(s, _)| s.raw()).collect();
        assert_eq!(targets, vec![2]);

        // A *new* transaction uses the upgraded protocol: homogeneous
        // PrC population now.
        assert_eq!(c.mode_for(&sites(2)), acp_types::CommitMode::PrC);
    }
}

mod gc {
    use super::*;
    use acp_wal::FaultyLog;

    /// An in-place GC whose header write never reached the medium: the
    /// crash rolls the low-water mark back over transactions that had
    /// ended. Recovery finds their end records and acts for none of
    /// them, as after a crash just before the GC.
    #[test]
    fn recovery_over_a_resurrected_gc_prefix_emits_nothing() {
        let kind = CoordinatorKind::Single(ProtocolKind::PrN);
        let mut c = Coordinator::new(SiteId::new(0), kind, FaultyLog::new());
        for s in sites(2) {
            c.register_site(s, ProtocolKind::PrN);
        }
        c.log_mut().set_durable_gc_rename(false);
        for txn in (1..=3).map(TxnId::new) {
            c.begin_commit(txn, &sites(2));
            let vote = Vote::Yes;
            for s in sites(2) {
                c.on_message(s, &Payload::Vote { txn, vote });
            }
            for s in sites(2) {
                c.on_message(s, &Payload::Ack { txn });
            }
        }
        assert_eq!(c.log().low_water_mark(), acp_wal::Lsn(6), "auto GC ran");
        assert_eq!(c.log().records().unwrap(), Vec::new());

        c.crash();
        assert_eq!(c.log().low_water_mark(), acp_wal::Lsn::ZERO);
        assert_eq!(c.log().records().unwrap().len(), 6, "the prefix is back");
        assert_eq!(c.recover(), Vec::new());
        assert_eq!(c.protocol_table_size(), 0);
    }

    /// A collection whose GC write fails is a value: the log keeps its
    /// records and mark, the tracker its view, and the next call
    /// releases the same prefix. Once on the in-place path (a header
    /// write) and once past the reclaim floor (a compaction).
    #[test]
    fn a_failed_collection_changes_nothing_and_the_next_releases_the_same_prefix() {
        let kind = CoordinatorKind::Single(ProtocolKind::PrN);
        // A transaction leaves ≥ 64 B of frames, so the second case
        // releases more than the floor.
        for (txns, compacts) in [(3, false), (acp_wal::RECLAIM_FLOOR / 64, true)] {
            let mut c = Coordinator::new(SiteId::new(0), kind, FaultyLog::new());
            c.auto_gc = false;
            for s in sites(2) {
                c.register_site(s, ProtocolKind::PrN);
            }
            for txn in (1..=txns).map(TxnId::new) {
                c.begin_commit(txn, &sites(2));
                let vote = Vote::Yes;
                for s in sites(2) {
                    c.on_message(s, &Payload::Vote { txn, vote });
                }
                for s in sites(2) {
                    c.on_message(s, &Payload::Ack { txn });
                }
            }
            c.log_mut().flush().unwrap();
            let records = c.log().records().unwrap();
            let tracker = format!("{:?}", c.gc);
            let image = c.log().image().len();

            c.log_mut().fail_next_gc_rewrite();
            assert!(c.collect_garbage().is_err(), "{txns} txns");
            assert_eq!(c.log().records().unwrap(), records);
            assert_eq!(c.log().low_water_mark(), acp_wal::Lsn::ZERO);
            assert_eq!(format!("{:?}", c.gc), tracker);

            assert_eq!(c.collect_garbage().unwrap(), records.len());
            assert_eq!(c.log().low_water_mark(), c.log().next_lsn());
            assert_eq!(c.log().image().len() < image, compacts, "{txns} txns");
        }
    }

    /// A PrAny coordinator over PrN, PrA and PrC whose log holds a
    /// transaction split by a buffered end: T1 ends and its end becomes
    /// durable with T4's initiation; T4, T5 and T6 are initiated; T4
    /// and T5 decide and end, their `end` records still buffered; T6
    /// never decides, so it pins the log between their records.
    ///
    /// `init(T1) dec(T1) end(T1) init(T4) init(T5) init(T6) dec(T4)
    /// dec(T5) | end(T4) end(T5)`, durable below LSN 8.
    fn buffered_ends_around_a_pinned_txn() -> Coordinator<MemLog> {
        let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
        let mut c = coordinator(kind, &[ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC]);
        c.auto_gc = false;
        let decide = |c: &mut Coordinator<MemLog>, txn: TxnId| {
            for s in 1..=3 {
                vote(c, txn, s, Vote::Yes);
            }
        };
        let ack_all = |c: &mut Coordinator<MemLog>, txn: TxnId| {
            for s in sites(3) {
                c.on_message(s, &Payload::Ack { txn });
            }
        };
        let txn = TxnId::new;
        c.begin_commit(txn(1), &sites(3));
        decide(&mut c, txn(1));
        ack_all(&mut c, txn(1));
        for t in [4, 5, 6] {
            c.begin_commit(txn(t), &sites(3));
        }
        for t in [4, 5] {
            decide(&mut c, txn(t));
        }
        for t in [4, 5] {
            ack_all(&mut c, txn(t));
        }
        assert_eq!(c.log().durable_end(), acp_wal::Lsn(8));
        assert_eq!(c.log().next_lsn(), acp_wal::Lsn(10));
        assert_eq!(c.log_pinned(), vec![txn(6)]);
        c
    }

    /// The collection stops below T4, whose end is buffered: it releases
    /// T1 only. The crash then loses both ends, and recovery re-drives
    /// T4 and T5 from their initiation and decision records: commit to
    /// the PrN and PrA participants, whose acks close them.
    #[test]
    fn a_collection_never_splits_a_transaction_whose_end_is_buffered() {
        let mut c = buffered_ends_around_a_pinned_txn();
        assert_eq!(c.releasable_records(), 3);
        assert_eq!(c.collect_garbage().unwrap(), 3, "T1's three records");
        assert_eq!(c.log().low_water_mark(), acp_wal::Lsn(3));
        c.crash();
        let a = c.recover();
        let mut resent: Vec<(u64, u32, bool)> = sent_payloads(&a)
            .into_iter()
            .filter_map(|(to, p)| match p {
                Payload::Decision { txn, outcome } => {
                    Some((txn.raw(), to.raw(), outcome == Outcome::Commit))
                }
                _ => None,
            })
            .collect();
        resent.sort_unstable();
        // T4 and T5 commit to PrN and PrA; T6 aborts to PrN and PrC.
        let expect = [(4, 1, true), (4, 2, true), (5, 1, true), (5, 2, true)];
        assert_eq!(resent, [&expect[..], &[(6, 1, false), (6, 3, false)]].concat());
        for t in [4, 5] {
            let txn = TxnId::new(t);
            assert!(c.in_flight(txn), "T{t} re-driven");
            for s in [1, 2] {
                c.on_message(SiteId::new(s), &Payload::Ack { txn });
            }
            assert!(!c.in_flight(txn), "T{t} closed");
        }
        // Once the next force makes the ends durable, the next
        // collection takes T4 and T5 and stops at T6.
        c.log_mut().flush().unwrap();
        c.collect_garbage().unwrap();
        assert_eq!(c.log_pinned(), vec![TxnId::new(6)]);
        let first = c.log().records().unwrap()[0].payload.txn();
        assert_eq!(first, TxnId::new(6));
    }

    /// Negative control: the participant's cut (the releasable point
    /// capped at the durable end) on the same log releases T4's and T5's
    /// initiation records, and after the crash recovery finds their
    /// decision records with no participant list and no initiation.
    #[test]
    #[should_panic(expected = "transaction with no participants")]
    fn the_participants_cut_splits_it_and_recovery_panics() {
        let mut c = buffered_ends_around_a_pinned_txn();
        let cut = c.gc.releasable().min(c.log().durable_end());
        assert_eq!(cut, acp_wal::Lsn(5), "below T6, above T4's and T5's initiations");
        c.log_mut().truncate_prefix(cut).unwrap();
        c.crash();
        let _ = c.recover();
    }
}

/// The records that borrow the participant list give it back whatever
/// the append returns: after a refused force the table entry still
/// lists every participant.
mod lending {
    use super::*;
    use acp_wal::{Fault, FaultyLog};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn refusing(kind: CoordinatorKind, protos: &[ProtocolKind]) -> Coordinator<FaultyLog> {
        let mut c = Coordinator::new(SiteId::new(0), kind, FaultyLog::new());
        for (i, &p) in protos.iter().enumerate() {
            c.register_site(SiteId::new(i as u32 + 1), p);
        }
        c.log.inject(Fault::WriteError { after_bytes: 0 });
        c
    }

    fn listed(c: &Coordinator<FaultyLog>) -> Vec<ParticipantEntry> {
        c.table[&t()].participants.clone()
    }

    #[test]
    fn a_refused_initiation_record_leaves_the_list_in_the_table() {
        let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
        let protos = [ProtocolKind::PrA, ProtocolKind::PrC];
        let mut c = refusing(kind, &protos);
        let refused = catch_unwind(AssertUnwindSafe(|| c.begin_commit(t(), &sites(2))));
        assert!(refused.is_err(), "the initiation force was refused");
        assert_eq!(c.log.faults_applied(), 1);
        assert_eq!(listed(&c), c.entries(&sites(2)));
    }

    #[test]
    fn a_refused_decision_record_leaves_the_list_in_the_table() {
        // PrN writes no initiation record, so its forced decision
        // record is the one that lists the participants.
        let kind = CoordinatorKind::Single(ProtocolKind::PrN);
        let mut c = refusing(kind, &[ProtocolKind::PrN; 2]);
        c.begin_commit(t(), &sites(2));
        let yes = Payload::Vote {
            txn: t(),
            vote: Vote::Yes,
        };
        c.on_message(SiteId::new(1), &yes);
        let refused = catch_unwind(AssertUnwindSafe(|| c.on_message(SiteId::new(2), &yes)));
        assert!(refused.is_err(), "the decision force was refused");
        assert_eq!(c.log.faults_applied(), 1);
        assert_eq!(listed(&c), c.entries(&sites(2)));
    }
}

/// Definition 1 for the engine: a coordinator that forgot a transaction
/// keeps nothing of it, not even the table entry it ran in.
mod forgetting {
    use super::*;

    /// 2 000 PrAny transactions over PrN, PrA and PrC in bursts of
    /// eight, every fifth aborted by a No vote, with a crash and a
    /// recovery between one burst's decisions and its acks. After the
    /// last ack the table is empty, the spare list holds no more entries
    /// than were open at once, and a clone of the engine carries none.
    #[test]
    fn a_forgotten_transaction_leaves_only_a_bounded_spare_entry() {
        let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
        let protos = [ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC];
        let mut c = coordinator(kind, &protos);
        let mut peak = 0;
        for burst in 0..250 {
            let txns: Vec<TxnId> = (1..=8).map(|i| TxnId::new(burst * 8 + i)).collect();
            for &txn in &txns {
                c.begin_commit(txn, &sites(3));
            }
            peak = peak.max(c.protocol_table_size());
            for &txn in &txns {
                let no = txn.raw() % 5 == 0;
                for s in 1..=3 {
                    let v = if no && s == 2 { Vote::No } else { Vote::Yes };
                    vote(&mut c, txn, s, v);
                }
            }
            if burst == 125 {
                c.crash();
                assert!(c.spare.0.is_empty(), "a crash drops the spare entries");
                c.recover();
                assert_eq!(c.protocol_table_size(), 8, "every decision was re-tabled");
            }
            for &txn in &txns {
                for s in 1..=3 {
                    c.on_message(SiteId::new(s), &Payload::Ack { txn });
                }
            }
            assert_eq!(c.protocol_table_size(), 0, "burst {burst}");
        }
        let spare = &c.spare.0;
        let n = spare.len();
        assert!((1..=peak).contains(&n), "{n} spare entries, {peak} open");
        assert!(spare
            .iter()
            .all(|st| st.participants.is_empty() && st.slots.is_empty()));
        assert!(
            c.clone().spare.0.is_empty(),
            "a clone carries no spare entry"
        );
    }
}
