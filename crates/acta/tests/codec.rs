//! The byte-coded history is lossless, and small.
//!
//! - Any sequence of events, over every variant, with site and txn ids
//!   at 0 and at their maximum, txn ids that run backwards and log
//!   kinds outside the known table, reads back exactly as pushed, and
//!   prints exactly as a list of those events prints.
//! - The events of the benchmark's commits — PrAny over a PrN, a PrA
//!   and a PrC participant, 64 transactions in flight — cost at most 4
//!   bytes each.

use acp_acta::history::KINDS;
use acp_acta::{ActaEvent, History};
use acp_types::{Outcome, ProtocolKind, SiteId, TxnId};
use proptest::prelude::*;

/// The reference the history must print like: a struct holding its
/// events in a list, with derived `Debug`.
#[derive(Debug)]
#[allow(dead_code)] // read only through `Debug`
struct Reference {
    events: Vec<ActaEvent>,
}

/// The history's `Display` as it was defined over a list of events.
fn display(events: &[ActaEvent]) -> String {
    let lines = events.iter().enumerate();
    lines.map(|(i, e)| format!("{i:>4}: {e}\n")).collect()
}

fn arb_site() -> impl Strategy<Value = SiteId> {
    prop_oneof![Just(0), Just(u32::MAX), 0u32..8, any::<u32>()].prop_map(SiteId::new)
}

fn arb_txn() -> impl Strategy<Value = TxnId> {
    prop_oneof![Just(0), Just(u64::MAX), 0u64..64, any::<u64>()].prop_map(TxnId::new)
}

fn arb_outcome() -> impl Strategy<Value = Outcome> {
    prop_oneof![Just(Outcome::Commit), Just(Outcome::Abort)]
}

fn arb_protocol() -> impl Strategy<Value = ProtocolKind> {
    (0..ProtocolKind::ALL.len()).prop_map(|i| ProtocolKind::ALL[i])
}

/// Every known kind, and two that only a caller of its own would log.
fn arb_kind() -> impl Strategy<Value = &'static str> {
    const OTHERS: [&str; 2] = ["audit", "vendor-specific"];
    (0..KINDS.len() + OTHERS.len()).prop_map(|i| match KINDS.get(i) {
        Some(kind) => kind,
        None => OTHERS[i - KINDS.len()],
    })
}

fn arb_event() -> impl Strategy<Value = ActaEvent> {
    prop_oneof![
        (arb_site(), arb_txn(), arb_outcome()).prop_map(|(coordinator, txn, outcome)| {
            ActaEvent::Decide {
                coordinator,
                txn,
                outcome,
            }
        }),
        (arb_site(), arb_txn())
            .prop_map(|(coordinator, txn)| ActaEvent::DeletePt { coordinator, txn }),
        (
            arb_site(),
            arb_txn(),
            arb_site(),
            arb_outcome(),
            any::<bool>()
        )
            .prop_map(|(coordinator, txn, participant, outcome, by_presumption)| {
                ActaEvent::Respond {
                    coordinator,
                    txn,
                    participant,
                    outcome,
                    by_presumption,
                }
            }),
        (arb_site(), arb_txn())
            .prop_map(|(participant, txn)| ActaEvent::Prepared { participant, txn }),
        (arb_site(), arb_txn(), arb_protocol()).prop_map(|(participant, txn, protocol)| {
            ActaEvent::Inquire {
                participant,
                txn,
                protocol,
            }
        }),
        (arb_site(), arb_txn(), arb_outcome()).prop_map(|(participant, txn, outcome)| {
            ActaEvent::Enforce {
                participant,
                txn,
                outcome,
            }
        }),
        (arb_site(), arb_txn())
            .prop_map(|(participant, txn)| ActaEvent::ForgetPart { participant, txn }),
        (arb_site(), arb_txn(), arb_kind(), any::<bool>()).prop_map(|(site, txn, kind, forced)| {
            ActaEvent::LogWrite {
                site,
                txn,
                kind,
                forced,
            }
        }),
        arb_site().prop_map(|site| ActaEvent::Crash { site }),
        arb_site().prop_map(|site| ActaEvent::Recover { site }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(512))]

    #[test]
    fn a_history_reads_back_and_prints_exactly_what_was_pushed(
        events in prop::collection::vec(arb_event(), 0..64),
    ) {
        let mut history = History::new();
        for &e in &events {
            history.push(e);
        }
        prop_assert_eq!(history.len(), events.len());
        prop_assert_eq!(history.is_empty(), events.is_empty());
        prop_assert_eq!(history.events().collect::<Vec<_>>(), events.clone());
        prop_assert_eq!(history.to_string(), display(&events));
        let reference = Reference { events: events.clone() };
        let debug = format!("{reference:?}").replacen("Reference", "History", 1);
        prop_assert_eq!(format!("{history:?}"), debug);
        let pretty = format!("{reference:#?}").replacen("Reference", "History", 1);
        prop_assert_eq!(format!("{history:#?}"), pretty);

        // A clone, a collected copy and a projection read the same.
        let clone = history.clone();
        prop_assert_eq!(clone.events().collect::<Vec<_>>(), events.clone());
        let collected: History = events.iter().copied().collect();
        prop_assert_eq!(collected.to_string(), history.to_string());
        if let Some(txn) = events.iter().find_map(ActaEvent::txn) {
            let projected: Vec<ActaEvent> =
                events.iter().copied().filter(|e| e.txn() == Some(txn)).collect();
            prop_assert_eq!(history.project(txn).events().collect::<Vec<_>>(), projected);
        }
    }
}

/// One commit of the benchmark's cluster, as the history records it:
/// PrAny over a PrN (S1), a PrA (S2) and a PrC (S3) participant.
fn commit_events(txn: TxnId) -> [ActaEvent; 23] {
    let c = SiteId::new(0);
    let log = |site, kind, forced| ActaEvent::LogWrite {
        site: SiteId::new(site),
        txn,
        kind,
        forced,
    };
    let prepared = |site| ActaEvent::Prepared {
        participant: SiteId::new(site),
        txn,
    };
    let enforce = |site| ActaEvent::Enforce {
        participant: SiteId::new(site),
        txn,
        outcome: Outcome::Commit,
    };
    let forget = |site| ActaEvent::ForgetPart {
        participant: SiteId::new(site),
        txn,
    };
    [
        log(0, "initiation", true),
        log(1, "prepared", true),
        prepared(1),
        log(2, "prepared", true),
        prepared(2),
        log(3, "prepared", true),
        prepared(3),
        ActaEvent::Decide {
            coordinator: c,
            txn,
            outcome: Outcome::Commit,
        },
        log(0, "commit", true),
        log(1, "part-commit", true),
        enforce(1),
        log(1, "part-end", false),
        forget(1),
        log(2, "part-commit", true),
        enforce(2),
        log(2, "part-end", false),
        forget(2),
        log(3, "part-commit", false),
        enforce(3),
        log(3, "part-end", false),
        forget(3),
        log(0, "end", false),
        ActaEvent::DeletePt {
            coordinator: c,
            txn,
        },
    ]
}

/// 10 000 commits in bursts of 64, each step taken by the whole burst
/// before the next, as a turn of the kernel publishes them: the history
/// holds at most 4 bytes per event, and every event reads back.
#[test]
fn a_burst_commit_costs_at_most_four_bytes_an_event() {
    const TXNS: u64 = 10_000;
    const BURST: u64 = 64;
    let mut history = History::new();
    let mut pushed = Vec::new();
    for first in (1..=TXNS).step_by(BURST as usize) {
        let burst: Vec<_> = (first..(first + BURST).min(TXNS + 1))
            .map(|t| commit_events(TxnId::new(t)))
            .collect();
        for step in 0..23 {
            for commit in &burst {
                history.push(commit[step]);
                pushed.push(commit[step]);
            }
        }
    }
    assert_eq!(history.len() as u64, 23 * TXNS);
    let per_event = history.encoded_len() as f64 / history.len() as f64;
    assert!(
        per_event <= 4.0,
        "{per_event:.2} B per event (budget 4; an `ActaEvent` is {} B)",
        std::mem::size_of::<ActaEvent>()
    );
    assert!(history.events().eq(pushed));
}
