//! Schedule renderers: replay a trace into the paper's figure format.
//!
//! The paper's Figures 1–4 are *schedules*: per-site columns of forced
//! writes, message exchanges and decisions. [`render_ascii`] reproduces
//! that as a time-ordered table with a per-site log-write summary (the
//! exact sequence of `force:`/`write:` steps each figure annotates);
//! [`render_mermaid`] emits the same schedule as a Mermaid sequence
//! diagram for rendered documentation. Both are pure functions of the
//! event stream, so deterministic traces render byte-identically.

use crate::event::ProtocolEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Display name for `site`, falling back to `site N`.
fn label(labels: &BTreeMap<u32, String>, site: u32) -> String {
    labels
        .get(&site)
        .cloned()
        .unwrap_or_else(|| format!("site {site}"))
}

/// One-line human description of an event (peer sites resolved through
/// `labels`).
#[must_use]
pub fn describe(ev: &ProtocolEvent, labels: &BTreeMap<u32, String>) -> String {
    match ev {
        ProtocolEvent::ForceWrite { record, txn, .. } => {
            format!("force-write {record}{}", txn_suffix(*txn))
        }
        ProtocolEvent::NonForcedWrite { record, txn, .. } => {
            format!("write {record} (lazy){}", txn_suffix(*txn))
        }
        ProtocolEvent::MsgSend { to, kind, txn, .. } => {
            format!("send {kind} -> {}{}", label(labels, *to), txn_suffix(*txn))
        }
        ProtocolEvent::MsgRecv {
            from, kind, txn, ..
        } => {
            format!(
                "recv {kind} <- {}{}",
                label(labels, *from),
                txn_suffix(*txn)
            )
        }
        ProtocolEvent::VoteCast { vote, txn, .. } => {
            format!("cast vote {vote}{}", txn_suffix(*txn))
        }
        ProtocolEvent::DecisionReached { outcome, txn, .. } => {
            format!("DECIDE {}{}", outcome.to_uppercase(), txn_suffix(*txn))
        }
        ProtocolEvent::LogGc {
            released_up_to,
            records_released,
            since_decision_us,
            ..
        } => {
            let mut s = format!("gc: reclaim {records_released} records (lsn < {released_up_to})");
            if let Some(lat) = since_decision_us {
                let _ = write!(s, " {lat}us after decision");
            }
            s
        }
        ProtocolEvent::RetryScheduled {
            purpose,
            attempt,
            txn,
            ..
        } => format!("retry {purpose} #{attempt}{}", txn_suffix(*txn)),
        ProtocolEvent::BatchCommit { occupancy, .. } => {
            format!("group-commit force ({occupancy} records)")
        }
        ProtocolEvent::AdmissionShed {
            txn,
            inflight,
            limit,
            ..
        } => format!(
            "SHED at door ({inflight}/{limit} in flight){}",
            txn_suffix(*txn)
        ),
        ProtocolEvent::CrashObserved { .. } => "CRASH".to_string(),
        ProtocolEvent::RecoveryStep { detail, .. } => format!("recover: {detail}"),
    }
}

fn txn_suffix(txn: Option<u64>) -> String {
    txn.map(|t| format!(" [t{t}]")).unwrap_or_default()
}

/// The per-site log-write schedule: `force:<kind>` / `write:<kind>`
/// tags in order — the annotation each paper figure carries next to a
/// site's time line.
#[must_use]
pub fn log_write_schedule(events: &[ProtocolEvent], site: u32) -> Vec<String> {
    events
        .iter()
        .filter(|e| e.site() == site)
        .filter_map(|e| match e {
            ProtocolEvent::ForceWrite { record, .. } => Some(format!("force:{record}")),
            ProtocolEvent::NonForcedWrite { record, .. } => Some(format!("write:{record}")),
            _ => None,
        })
        .collect()
}

fn sites_of(events: &[ProtocolEvent], labels: &BTreeMap<u32, String>) -> Vec<u32> {
    let mut sites: Vec<u32> = labels.keys().copied().collect();
    for e in events {
        if !sites.contains(&e.site()) {
            sites.push(e.site());
        }
    }
    sites.sort_unstable();
    sites
}

/// Render the schedule as a time-ordered ASCII table with a log-write
/// summary footer — the repository's replayable form of the paper's
/// figures.
#[must_use]
pub fn render_ascii(
    title: &str,
    events: &[ProtocolEvent],
    labels: &BTreeMap<u32, String>,
) -> String {
    let sites = sites_of(events, labels);
    let site_w = sites
        .iter()
        .map(|&s| label(labels, s).len())
        .chain(std::iter::once("site".len()))
        .max()
        .unwrap_or(4);

    let mut out = String::new();
    let _ = writeln!(out, "==== {title} ====");
    out.push('\n');
    let _ = writeln!(out, "{:>9}  {:<site_w$}  event", "t(us)", "site");
    let _ = writeln!(out, "{:->9}  {:-<site_w$}  {:-<40}", "", "", "");
    for e in events {
        let _ = writeln!(
            out,
            "{:>9}  {:<site_w$}  {}",
            e.at_us(),
            label(labels, e.site()),
            describe(e, labels)
        );
    }
    out.push('\n');
    let _ = writeln!(out, "log-write schedule:");
    for &s in &sites {
        let tags = log_write_schedule(events, s);
        let _ = writeln!(
            out,
            "  {:<site_w$}  {}",
            label(labels, s),
            if tags.is_empty() {
                "(none)".to_string()
            } else {
                tags.join(" ")
            }
        );
    }
    out
}

/// Render the schedule as a Mermaid sequence diagram. Message receipts
/// are implied by the arrows, so only sends, log writes, votes,
/// decisions, GC and failures become diagram statements.
#[must_use]
pub fn render_mermaid(
    title: &str,
    events: &[ProtocolEvent],
    labels: &BTreeMap<u32, String>,
) -> String {
    let sites = sites_of(events, labels);
    let mut out = String::new();
    let _ = writeln!(out, "%% {title}");
    let _ = writeln!(out, "sequenceDiagram");
    for &s in &sites {
        let _ = writeln!(out, "    participant S{s} as {}", label(labels, s));
    }
    for e in events {
        let s = e.site();
        match e {
            ProtocolEvent::ForceWrite { record, .. } => {
                let _ = writeln!(out, "    Note over S{s}: force-write {record}");
            }
            ProtocolEvent::NonForcedWrite { record, .. } => {
                let _ = writeln!(out, "    Note over S{s}: lazy-write {record}");
            }
            ProtocolEvent::MsgSend { to, kind, .. } => {
                let _ = writeln!(out, "    S{s}->>S{to}: {kind}");
            }
            ProtocolEvent::MsgRecv { .. } => {}
            ProtocolEvent::VoteCast { vote, .. } => {
                let _ = writeln!(out, "    Note over S{s}: vote {vote}");
            }
            ProtocolEvent::DecisionReached { outcome, .. } => {
                let _ = writeln!(out, "    Note over S{s}: decide {}", outcome.to_uppercase());
            }
            ProtocolEvent::LogGc {
                records_released, ..
            } => {
                let _ = writeln!(
                    out,
                    "    Note over S{s}: gc reclaims {records_released} records"
                );
            }
            ProtocolEvent::RetryScheduled {
                purpose, attempt, ..
            } => {
                let _ = writeln!(out, "    Note over S{s}: retry {purpose} #{attempt}");
            }
            ProtocolEvent::BatchCommit { occupancy, .. } => {
                let _ = writeln!(out, "    Note over S{s}: group-commit x{occupancy}");
            }
            ProtocolEvent::AdmissionShed {
                inflight, limit, ..
            } => {
                let _ = writeln!(
                    out,
                    "    Note over S{s}: shed ({inflight}/{limit} in flight)"
                );
            }
            ProtocolEvent::CrashObserved { .. } => {
                let _ = writeln!(out, "    Note over S{s}: CRASH");
            }
            ProtocolEvent::RecoveryStep { detail, .. } => {
                let _ = writeln!(out, "    Note over S{s}: recover ({detail})");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProtoLabel;

    fn sample() -> (Vec<ProtocolEvent>, BTreeMap<u32, String>) {
        let p = ProtoLabel::PrAny;
        let events = vec![
            ProtocolEvent::ForceWrite {
                at_us: 1000,
                site: 0,
                proto: p,
                record: "initiation",
                txn: Some(1),
            },
            ProtocolEvent::MsgSend {
                at_us: 1000,
                site: 0,
                proto: p,
                to: 1,
                kind: "prepare",
                txn: Some(1),
            },
            ProtocolEvent::MsgRecv {
                at_us: 1200,
                site: 1,
                proto: ProtoLabel::PrA,
                from: 0,
                kind: "prepare",
                txn: Some(1),
            },
            ProtocolEvent::VoteCast {
                at_us: 1200,
                site: 1,
                proto: ProtoLabel::PrA,
                vote: "yes",
                txn: Some(1),
            },
            ProtocolEvent::DecisionReached {
                at_us: 1400,
                site: 0,
                proto: p,
                outcome: "commit",
                txn: Some(1),
            },
        ];
        let mut labels = BTreeMap::new();
        labels.insert(0, "coordinator (PrAny)".to_string());
        labels.insert(1, "site 1 (PrA)".to_string());
        (events, labels)
    }

    #[test]
    fn ascii_lists_every_event_and_the_schedule() {
        let (events, labels) = sample();
        let out = render_ascii("Figure test", &events, &labels);
        assert!(out.contains("==== Figure test ===="));
        assert!(out.contains("force-write initiation [t1]"));
        assert!(out.contains("send prepare -> site 1 (PrA) [t1]"));
        assert!(out.contains("DECIDE COMMIT [t1]"));
        assert!(out.contains("log-write schedule:"));
        assert!(out.contains("force:initiation"));
    }

    #[test]
    fn mermaid_has_participants_and_arrows() {
        let (events, labels) = sample();
        let out = render_mermaid("Figure test", &events, &labels);
        assert!(out.starts_with("%% Figure test\nsequenceDiagram\n"));
        assert!(out.contains("participant S0 as coordinator (PrAny)"));
        assert!(out.contains("S0->>S1: prepare"));
        assert!(out.contains("Note over S0: decide COMMIT"));
        // Receives are implied by arrows, not duplicated.
        assert!(!out.contains("recv"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let (events, labels) = sample();
        assert_eq!(
            render_ascii("t", &events, &labels),
            render_ascii("t", &events, &labels)
        );
        assert_eq!(
            render_mermaid("t", &events, &labels),
            render_mermaid("t", &events, &labels)
        );
    }

    #[test]
    fn schedule_extraction_filters_by_site() {
        let (events, _) = sample();
        assert_eq!(log_write_schedule(&events, 0), ["force:initiation"]);
        assert!(log_write_schedule(&events, 1).is_empty());
    }
}
