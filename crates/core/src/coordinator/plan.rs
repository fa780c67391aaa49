//! Commit plans: the per-transaction policy bundle that makes one
//! coordinator engine behave as PrN, PrA, PrC, U2PC, C2PC or PrAny.
//!
//! Everything a coordinator variant *is* — what it logs, whom it waits
//! for, and how it answers inquiries about forgotten transactions — is
//! captured here as data derived from the [`CoordinatorKind`] and the
//! transaction's participant population. The engine in
//! [`crate::coordinator`] then executes any plan uniformly, which keeps
//! the Theorem 1/2/3 comparisons apples-to-apples: the *only*
//! differences between the protocols are the ones the paper describes.

use crate::coordinator::select::select_mode;
use acp_types::{CommitMode, CoordinatorKind, Outcome, ParticipantEntry, ProtocolKind};

/// Who must acknowledge a decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AckRule {
    /// Nobody: forget as soon as the decision is out.
    None,
    /// Everyone the decision is sent to (PrN semantics; also C2PC's
    /// "never forget until all acknowledge").
    AllRecipients,
    /// Exactly the recipients whose *own* protocol acknowledges this
    /// outcome (PrAny's rule; also how U2PC narrows its expectations).
    ByParticipantProtocol,
}

/// How to answer an inquiry about a transaction the coordinator has no
/// protocol-table entry for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InquiryRule {
    /// Answer with a fixed presumption (the coordinator's own protocol's
    /// presumption — PrN's hidden abort presumption included).
    FixedPresumption(Outcome),
    /// Answer with the *inquirer's* protocol's presumption (PrAny §4.2:
    /// "a PrAny coordinator dynamically adopts the presumption of an
    /// inquiring participant's protocol").
    InquirerPresumption,
    /// Consult the stable log before answering; only if the log has no
    /// decision either, fall back to the abort presumption for
    /// never-decided transactions (C2PC: "never uses its presumption
    /// after a failure" — for decided transactions the log always has
    /// the answer because C2PC force-logs every decision).
    ConsultLog,
}

/// The complete policy for committing one transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitPlan {
    /// The mode recorded in the initiation record and the protocol
    /// table.
    pub mode: CommitMode,
    /// Force-write an initiation record (listing participants and their
    /// protocols) before the voting phase?
    pub write_initiation: bool,
    /// Decision record for a commit: `Some(forced)` or `None` (never
    /// `None` in practice — every protocol forces commit records).
    pub commit_record: Option<bool>,
    /// Decision record for an abort: `Some(forced)` or `None`.
    pub abort_record: Option<bool>,
    /// Whose acknowledgments to await for a commit.
    pub commit_acks: AckRule,
    /// Whose acknowledgments to await for an abort.
    pub abort_acks: AckRule,
    /// How to answer inquiries about unknown (forgotten or never-seen)
    /// transactions.
    pub unknown_inquiry: InquiryRule,
}

impl CommitPlan {
    /// The plan a coordinator of `kind` uses for a transaction with the
    /// given participants.
    #[must_use]
    pub fn derive(kind: CoordinatorKind, participants: &[ParticipantEntry]) -> CommitPlan {
        match kind {
            CoordinatorKind::Single(p) => Self::single(p),
            CoordinatorKind::U2pc(base) => {
                let mut plan = Self::single(base);
                // §2: the coordinator knows what messages to expect from
                // each participant and ignores violations — so it waits
                // only for the acks that will actually be sent …
                if plan.commit_acks == AckRule::AllRecipients {
                    plan.commit_acks = AckRule::ByParticipantProtocol;
                }
                if plan.abort_acks == AckRule::AllRecipients {
                    plan.abort_acks = AckRule::ByParticipantProtocol;
                }
                // … but answers inquiries with its *own* presumption,
                // which is the fatal flaw (Theorem 1).
                plan
            }
            CoordinatorKind::C2pc(base) => {
                let mut plan = Self::single(base);
                // §3: never forgets until all participants acknowledge,
                // and never answers by presumption after a failure. To
                // "always remember the outcome of terminated
                // transactions" across crashes, every decision is
                // force-logged, whatever the base protocol skips.
                plan.commit_record = Some(true);
                plan.abort_record = Some(true);
                plan.commit_acks = AckRule::AllRecipients;
                plan.abort_acks = AckRule::AllRecipients;
                plan.unknown_inquiry = InquiryRule::ConsultLog;
                plan
            }
            CoordinatorKind::PrAny(policy) => {
                let mode = select_mode(policy, participants);
                match mode {
                    CommitMode::PrN | CommitMode::PrA | CommitMode::PrC => {
                        let p = mode.as_homogeneous().expect("homogeneous mode");
                        CommitPlan {
                            // §4.2: PrAny answers by the inquirer's
                            // presumption. For homogeneous populations
                            // that coincides with the mode's own
                            // presumption; for Optimized PrN+PrA mixes
                            // both constituents presume abort.
                            unknown_inquiry: InquiryRule::InquirerPresumption,
                            ..Self::single(p)
                        }
                    }
                    CommitMode::PrAny => CommitPlan {
                        mode: CommitMode::PrAny,
                        write_initiation: true,
                        commit_record: Some(true),
                        abort_record: None,
                        commit_acks: AckRule::ByParticipantProtocol,
                        abort_acks: AckRule::ByParticipantProtocol,
                        unknown_inquiry: InquiryRule::InquirerPresumption,
                    },
                }
            }
        }
    }

    /// The plan for a plain single-protocol coordinator (Figures 2–4).
    fn single(p: ProtocolKind) -> CommitPlan {
        let acks = |o: Outcome| {
            if p.coordinator_waits_for_acks(o) {
                AckRule::AllRecipients
            } else {
                AckRule::None
            }
        };
        CommitPlan {
            mode: p.into(),
            write_initiation: p.coordinator_writes_initiation(),
            commit_record: p.coordinator_decision_force(Outcome::Commit),
            abort_record: p.coordinator_decision_force(Outcome::Abort),
            commit_acks: acks(Outcome::Commit),
            abort_acks: acks(Outcome::Abort),
            unknown_inquiry: InquiryRule::FixedPresumption(p.presumption()),
        }
    }

    /// The decision-record policy for an outcome.
    #[must_use]
    pub fn decision_record(&self, outcome: Outcome) -> Option<bool> {
        match outcome {
            Outcome::Commit => self.commit_record,
            Outcome::Abort => self.abort_record,
        }
    }

    /// The ack rule for an outcome.
    #[must_use]
    pub fn ack_rule(&self, outcome: Outcome) -> AckRule {
        match outcome {
            Outcome::Commit => self.commit_acks,
            Outcome::Abort => self.abort_acks,
        }
    }

    /// Must decision recipient `p` acknowledge `outcome` before the
    /// coordinator may forget the transaction?
    #[must_use]
    pub fn awaits_ack(&self, outcome: Outcome, p: &ParticipantEntry) -> bool {
        match self.ack_rule(outcome) {
            AckRule::None => false,
            AckRule::AllRecipients => true,
            AckRule::ByParticipantProtocol => p.protocol.acks(outcome),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_types::{SelectionPolicy, SiteId};

    impl CommitPlan {
        /// Of the decision recipients, those whose acknowledgment must
        /// arrive before the coordinator may forget the transaction.
        fn expected_ackers(
            &self,
            outcome: Outcome,
            recipients: &[ParticipantEntry],
        ) -> Vec<SiteId> {
            let awaited = recipients.iter().filter(|p| self.awaits_ack(outcome, p));
            awaited.map(|p| p.site).collect()
        }
    }

    fn pop(protos: &[ProtocolKind]) -> Vec<ParticipantEntry> {
        protos
            .iter()
            .enumerate()
            .map(|(i, &p)| ParticipantEntry::new(SiteId::new(i as u32 + 1), p))
            .collect()
    }

    #[test]
    fn prn_plan_matches_figure_2() {
        let plan = CommitPlan::derive(
            CoordinatorKind::Single(ProtocolKind::PrN),
            &pop(&[ProtocolKind::PrN; 2]),
        );
        assert!(!plan.write_initiation);
        assert_eq!(plan.commit_record, Some(true));
        assert_eq!(plan.abort_record, Some(true));
        assert_eq!(plan.commit_acks, AckRule::AllRecipients);
        assert_eq!(plan.abort_acks, AckRule::AllRecipients);
        assert_eq!(
            plan.unknown_inquiry,
            InquiryRule::FixedPresumption(Outcome::Abort)
        );
    }

    #[test]
    fn pra_plan_matches_figure_3() {
        let plan = CommitPlan::derive(
            CoordinatorKind::Single(ProtocolKind::PrA),
            &pop(&[ProtocolKind::PrA; 2]),
        );
        assert!(!plan.write_initiation);
        assert_eq!(plan.commit_record, Some(true));
        assert_eq!(plan.abort_record, None, "PrA never logs aborts");
        assert_eq!(
            plan.abort_acks,
            AckRule::None,
            "PrA never awaits abort acks"
        );
        assert_eq!(
            plan.unknown_inquiry,
            InquiryRule::FixedPresumption(Outcome::Abort)
        );
    }

    #[test]
    fn prc_plan_matches_figure_4() {
        let plan = CommitPlan::derive(
            CoordinatorKind::Single(ProtocolKind::PrC),
            &pop(&[ProtocolKind::PrC; 2]),
        );
        assert!(plan.write_initiation);
        assert_eq!(plan.commit_record, Some(true));
        assert_eq!(plan.abort_record, None, "initiation record covers aborts");
        assert_eq!(plan.commit_acks, AckRule::None, "commit needs no acks");
        assert_eq!(plan.abort_acks, AckRule::AllRecipients);
        assert_eq!(
            plan.unknown_inquiry,
            InquiryRule::FixedPresumption(Outcome::Commit)
        );
    }

    #[test]
    fn u2pc_narrows_acks_but_keeps_own_presumption() {
        let mixed = pop(&[ProtocolKind::PrA, ProtocolKind::PrC]);
        let plan = CommitPlan::derive(CoordinatorKind::U2pc(ProtocolKind::PrN), &mixed);
        assert_eq!(plan.commit_acks, AckRule::ByParticipantProtocol);
        assert_eq!(plan.abort_acks, AckRule::ByParticipantProtocol);
        assert_eq!(
            plan.unknown_inquiry,
            InquiryRule::FixedPresumption(Outcome::Abort)
        );

        // Expected ackers for a commit: only the PrA participant.
        assert_eq!(
            plan.expected_ackers(Outcome::Commit, &mixed),
            vec![SiteId::new(1)]
        );
        // For an abort: only the PrC participant.
        assert_eq!(
            plan.expected_ackers(Outcome::Abort, &mixed),
            vec![SiteId::new(2)]
        );
    }

    #[test]
    fn c2pc_waits_for_everyone_and_logs_everything() {
        let mixed = pop(&[ProtocolKind::PrA, ProtocolKind::PrC]);
        let plan = CommitPlan::derive(CoordinatorKind::C2pc(ProtocolKind::PrA), &mixed);
        assert_eq!(plan.commit_record, Some(true));
        assert_eq!(plan.abort_record, Some(true), "C2PC force-logs aborts too");
        assert_eq!(plan.commit_acks, AckRule::AllRecipients);
        assert_eq!(plan.abort_acks, AckRule::AllRecipients);
        assert_eq!(plan.unknown_inquiry, InquiryRule::ConsultLog);
        // Everyone is expected — including the PrC participant that will
        // never ack a commit. That is Theorem 2.
        assert_eq!(plan.expected_ackers(Outcome::Commit, &mixed).len(), 2);
    }

    #[test]
    fn prany_mixed_plan_matches_figure_1() {
        let mixed = pop(&[ProtocolKind::PrA, ProtocolKind::PrC]);
        let plan = CommitPlan::derive(CoordinatorKind::PrAny(SelectionPolicy::PaperStrict), &mixed);
        assert_eq!(plan.mode, CommitMode::PrAny);
        assert!(plan.write_initiation);
        assert_eq!(plan.commit_record, Some(true));
        assert_eq!(plan.abort_record, None);
        assert_eq!(plan.unknown_inquiry, InquiryRule::InquirerPresumption);
        // Commit acked by the PrA participant only (Figure 1a).
        assert_eq!(
            plan.expected_ackers(Outcome::Commit, &mixed),
            vec![SiteId::new(1)]
        );
        // Abort acked by the PrC participant only (Figure 1b).
        assert_eq!(
            plan.expected_ackers(Outcome::Abort, &mixed),
            vec![SiteId::new(2)]
        );
    }

    #[test]
    fn prany_homogeneous_population_runs_native_protocol() {
        let plan = CommitPlan::derive(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &pop(&[ProtocolKind::PrC; 3]),
        );
        assert_eq!(plan.mode, CommitMode::PrC);
        assert!(plan.write_initiation);
        assert_eq!(plan.commit_acks, AckRule::None);
        // But inquiries still adopt the inquirer's presumption.
        assert_eq!(plan.unknown_inquiry, InquiryRule::InquirerPresumption);
    }

    #[test]
    fn prany_with_prn_and_prc_expects_commit_acks_from_prn() {
        // The subtle case discussed in `select`: a PrN+PrC mix must not
        // forget commits before the PrN participants ack, or a crashed
        // PrN participant would later be answered by the wrong
        // presumption.
        let mixed = pop(&[ProtocolKind::PrN, ProtocolKind::PrC]);
        let plan = CommitPlan::derive(CoordinatorKind::PrAny(SelectionPolicy::Optimized), &mixed);
        assert_eq!(plan.mode, CommitMode::PrAny);
        assert_eq!(
            plan.expected_ackers(Outcome::Commit, &mixed),
            vec![SiteId::new(1)]
        );
    }
}
