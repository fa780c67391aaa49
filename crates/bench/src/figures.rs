//! Self-documenting figure rendering: replay the paper's five figures
//! from live simulator runs through the `acp-obs` event stream.
//!
//! Figures 1–4 are protocol schedules (commit and abort panels); each
//! panel is one [`acp_core::harness::Scenario`] run whose typed event
//! stream is rendered to
//! the ASCII schedule format and a Mermaid sequence diagram. Figure 5 is
//! the protocol taxonomy tree, rendered by `acp-types`. The whole
//! artifact set is a pure function of the scenarios — byte-stable across
//! runs and thread counts — so the generated files are checked in and a
//! golden test plus a CI drift check keep them honest.

use crate::{one_txn_scenario, parallel_map, site_label};
use acp_core::harness::{run_scenario, Scenario};
use acp_obs::{
    event_to_json, parse_flat_json, render_ascii, render_mermaid, MetricsRegistry, ProtocolEvent,
};
use acp_sim::SimTime;
use acp_types::{CoordinatorKind, ProtocolKind, SelectionPolicy, SiteId, TxnId, Vote};
use acp_workload::RetryPolicy;
use std::collections::BTreeMap;
use std::time::Duration;

/// One panel of a paper figure: a scenario plus naming.
pub struct FigurePanel {
    /// File stem for the panel's Mermaid diagram (e.g. `fig2_prn_commit`).
    pub slug: &'static str,
    /// File stem of the ASCII file the panel belongs to (e.g. `fig2_prn`).
    pub group: &'static str,
    /// Human title, matching the paper's figure caption.
    pub title: &'static str,
    /// Coordinator variant.
    pub kind: CoordinatorKind,
    /// Participant protocols.
    pub protos: Vec<ProtocolKind>,
    /// Client-abort panel?
    pub abort: bool,
}

/// The eight schedule panels of Figures 1–4, in paper order.
#[must_use]
pub fn paper_panels() -> Vec<FigurePanel> {
    let prany = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    let mixed = vec![ProtocolKind::PrA, ProtocolKind::PrC];
    vec![
        FigurePanel {
            slug: "fig1a_prany_commit",
            group: "fig1_prany",
            title: "Figure 1a — PrAny (PrA + PrC participants), commit",
            kind: prany,
            protos: mixed.clone(),
            abort: false,
        },
        FigurePanel {
            slug: "fig1b_prany_abort",
            group: "fig1_prany",
            title: "Figure 1b — PrAny (PrA + PrC participants), abort",
            kind: prany,
            protos: mixed,
            abort: true,
        },
        FigurePanel {
            slug: "fig2_prn_commit",
            group: "fig2_prn",
            title: "Figure 2 — PrN, commit",
            kind: CoordinatorKind::Single(ProtocolKind::PrN),
            protos: vec![ProtocolKind::PrN; 2],
            abort: false,
        },
        FigurePanel {
            slug: "fig2_prn_abort",
            group: "fig2_prn",
            title: "Figure 2 — PrN, abort",
            kind: CoordinatorKind::Single(ProtocolKind::PrN),
            protos: vec![ProtocolKind::PrN; 2],
            abort: true,
        },
        FigurePanel {
            slug: "fig3_pra_commit",
            group: "fig3_pra",
            title: "Figure 3 — PrA, commit",
            kind: CoordinatorKind::Single(ProtocolKind::PrA),
            protos: vec![ProtocolKind::PrA; 2],
            abort: false,
        },
        FigurePanel {
            slug: "fig3_pra_abort",
            group: "fig3_pra",
            title: "Figure 3 — PrA, abort",
            kind: CoordinatorKind::Single(ProtocolKind::PrA),
            protos: vec![ProtocolKind::PrA; 2],
            abort: true,
        },
        FigurePanel {
            slug: "fig4a_prc_commit",
            group: "fig4_prc",
            title: "Figure 4a — PrC, commit",
            kind: CoordinatorKind::Single(ProtocolKind::PrC),
            protos: vec![ProtocolKind::PrC; 2],
            abort: false,
        },
        FigurePanel {
            slug: "fig4b_prc_abort",
            group: "fig4_prc",
            title: "Figure 4b — PrC, abort",
            kind: CoordinatorKind::Single(ProtocolKind::PrC),
            protos: vec![ProtocolKind::PrC; 2],
            abort: true,
        },
    ]
}

/// Slug of the E17 overload panel in `traces.jsonl` (the `replay`
/// binary routes it to the multi-transaction overload checker instead
/// of the single-transaction schedule predicates).
pub const OVERLOAD_SLUG: &str = "e17_overload";

/// Title of the E17 overload panel.
pub const OVERLOAD_TITLE: &str =
    "E17 — overload: admission shed + workload retries under contention";

/// Admission bound the overload panel models (chosen so one in-flight
/// transaction is enough to shed the next arrival).
const OVERLOAD_LIMIT: u64 = 1;

/// The microsecond value of a workload retry delay.
fn delay_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).expect("retry delay fits u64 microseconds")
}

/// Per-transaction lifetimes visible in an event stream: first event
/// stamp and decision stamp (coordinator `decision_reached`).
fn txn_spans(events: &[ProtocolEvent]) -> BTreeMap<u64, (u64, Option<u64>)> {
    let mut spans: BTreeMap<u64, (u64, Option<u64>)> = BTreeMap::new();
    for ev in events {
        let map = parse_flat_json(&event_to_json(ev)).expect("trace dialect");
        let Some(txn) = map.get("txn").and_then(acp_obs::JsonValue::as_u64) else {
            continue;
        };
        let span = spans.entry(txn).or_insert((ev.at_us(), None));
        span.0 = span.0.min(ev.at_us());
        if let ProtocolEvent::DecisionReached { at_us, .. } = ev {
            span.1 = Some(*at_us);
        }
    }
    spans
}

/// The E17 overload panel: one deterministic multi-transaction
/// schedule exhibiting the overload mechanics the campaign measures.
///
/// A PrAny coordinator over a PrA and a PrC participant runs four
/// client attempts:
///
/// * **T1** (arrives 1000µs) — commits cleanly.
/// * **T2** (arrives 2000µs) — the PrA participant votes **No** (the
///   panel's stand-in for a no-wait lock conflict), so T2 aborts. The
///   workload layer observes the abort and schedules a retry
///   (`retry_scheduled`, purpose `workload-retry`); the retry runs as
///   **T3** — a *new* transaction id, because an abort decision
///   released T2's locks and the protocol is finished with it.
/// * **T4** — arrives while T2 is still in flight. With the panel's
///   admission bound of one, the door (admit while in flight <
///   [`acp_net::ReactorConfig::max_inflight`]) refuses it: an
///   `admission_shed` event carries the in-flight census and the
///   bound, and the panel shows no protocol work for T4 before the
///   shed (no forces, no votes, no messages — that is the whole point
///   of shedding at the door). The workload layer retries the shed
///   attempt with the *same* id after a backoff, and the resubmitted
///   T4 commits.
///
/// The shed/retry bookkeeping events are synthesized by the same door
/// comparison and [`RetryPolicy`] arithmetic the live runtime uses,
/// against the in-flight census computed from the simulator's own
/// event stream — the panel asserts the door really would shed at that
/// instant before writing the event.
///
/// # Panics
/// If the schedule drifts from the mechanics it documents (wrong
/// outcomes, an in-flight census the door would admit): the panel is a
/// committed artifact, so drift must fail regeneration loudly rather
/// than commit a lie.
#[must_use]
pub fn overload_panel_events() -> Vec<ProtocolEvent> {
    let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    let protos = [ProtocolKind::PrA, ProtocolKind::PrC];
    let policy = RetryPolicy::CappedBackoff {
        base: Duration::from_micros(1500),
        cap: Duration::from_millis(10),
        give_up_after: 4,
    };

    // Pass 1: run T1 + T2 alone to learn when T2's abort decision
    // lands — the instant the workload layer can schedule the retry —
    // and place the shed strictly inside T2's in-flight window.
    let mut probe = Scenario::new(kind, &protos);
    probe.max_events = 10_000;
    probe.add_txn(TxnId::new(1), SimTime::from_micros(1000));
    probe
        .add_txn(TxnId::new(2), SimTime::from_micros(2000))
        .votes
        .insert(SiteId::new(1), Vote::No);
    let probe_out = run_scenario(&probe);
    let spans = txn_spans(&probe_out.events);
    let abort_at = spans[&2].1.expect("T2 decides in the probe run");
    let shed_at = (spans[&2].0 + abort_at) / 2;

    // The retried attempts: the aborted T2 comes back as a fresh T3
    // (its locks were released by the decision); the shed T4 comes
    // back as T4 itself (it never entered the protocol, so there is
    // nothing to rename).
    let abort_retry_at = abort_at + delay_us(policy.next_delay(1, 2).expect("retry 1 of T2"));
    let shed_retry_at = shed_at + delay_us(policy.next_delay(1, 4).expect("retry 1 of T4"));

    let mut s = Scenario::new(kind, &protos);
    s.max_events = 10_000;
    s.add_txn(TxnId::new(1), SimTime::from_micros(1000));
    s.add_txn(TxnId::new(2), SimTime::from_micros(2000))
        .votes
        .insert(SiteId::new(1), Vote::No);
    s.add_txn(TxnId::new(3), SimTime::from_micros(abort_retry_at));
    s.add_txn(TxnId::new(4), SimTime::from_micros(shed_retry_at));
    let out = run_scenario(&s);
    for (txn, want) in [(1u64, "commit"), (2, "abort"), (3, "commit"), (4, "commit")] {
        let got = out.decided[&TxnId::new(txn)];
        let got = if got == acp_types::Outcome::Commit {
            "commit"
        } else {
            "abort"
        };
        assert_eq!(got, want, "overload panel: T{txn} outcome drifted");
    }

    let spans = txn_spans(&out.events);
    assert_eq!(
        spans[&2].1,
        Some(abort_at),
        "later arrivals must not perturb T2's decision time"
    );

    // The in-flight census at the shed instant, from the stream itself:
    // transactions already begun but not yet decided.
    let inflight = spans
        .values()
        .filter(|(first, decided)| *first <= shed_at && decided.is_none_or(|d| d > shed_at))
        .count() as u64;
    assert!(
        inflight >= OVERLOAD_LIMIT,
        "overload panel: the door would have admitted T4 \
         (inflight {inflight} under bound {OVERLOAD_LIMIT})"
    );

    let proto = out
        .events
        .iter()
        .find_map(|e| match e {
            ProtocolEvent::DecisionReached { site: 0, proto, .. } => Some(*proto),
            _ => None,
        })
        .expect("coordinator decision event");

    let mut events = out.events;
    events.push(ProtocolEvent::AdmissionShed {
        at_us: shed_at,
        site: 0,
        proto,
        txn: Some(4),
        inflight,
        limit: OVERLOAD_LIMIT,
    });
    events.push(ProtocolEvent::RetryScheduled {
        at_us: shed_at,
        site: 0,
        proto,
        purpose: "workload-retry",
        attempt: 1,
        txn: Some(4),
    });
    events.push(ProtocolEvent::RetryScheduled {
        at_us: abort_at,
        site: 0,
        proto,
        purpose: "workload-retry",
        attempt: 1,
        txn: Some(2),
    });
    // Stable by timestamp: simulator events keep their emission order,
    // synthesized bookkeeping lands after protocol work at each stamp.
    events.sort_by_key(ProtocolEvent::at_us);
    events
}

/// Everything the figure regeneration produces, keyed by file name
/// (relative to `results/figures/`). Deterministic: same scenarios →
/// byte-identical map, at any thread count.
pub struct FigureArtifacts {
    /// File name → contents.
    pub files: BTreeMap<String, String>,
}

/// Site labels for a panel's renderings.
fn panel_labels(protos: &[ProtocolKind]) -> BTreeMap<u32, String> {
    let mut labels = BTreeMap::new();
    labels.insert(0, site_label(SiteId::new(0), protos));
    for i in 1..=protos.len() as u32 {
        labels.insert(i, site_label(SiteId::new(i), protos));
    }
    labels
}

/// Run all figure panels (fanned across `threads` workers) and render
/// the complete artifact set: per-figure ASCII schedules, per-panel
/// Mermaid diagrams, the Figure 5 taxonomy, the raw event streams as
/// JSON lines, and aggregate per-protocol cost metrics.
#[must_use]
pub fn render_paper_figures(threads: usize) -> FigureArtifacts {
    let panels = paper_panels();
    let runs: Vec<Vec<ProtocolEvent>> = parallel_map(
        panels
            .iter()
            .map(|p| {
                let mut s = one_txn_scenario(p.kind, &p.protos, p.abort);
                s.max_events = 10_000;
                s
            })
            .collect(),
        threads,
        |s| run_scenario(&s).events,
    );

    let mut files: BTreeMap<String, String> = BTreeMap::new();
    let mut traces = String::new();
    let registry = MetricsRegistry::new();

    for (panel, events) in panels.iter().zip(&runs) {
        let labels = panel_labels(&panel.protos);
        let ascii = render_ascii(panel.title, events, &labels);
        files
            .entry(format!("{}.txt", panel.group))
            .and_modify(|f| {
                f.push('\n');
                f.push_str(&ascii);
            })
            .or_insert(ascii);
        files.insert(
            format!("{}.mmd", panel.slug),
            render_mermaid(panel.title, events, &labels),
        );
        traces.push_str(&format!(
            "{{\"meta\":\"panel\",\"slug\":\"{}\",\"title\":\"{}\",\"events\":{}}}\n",
            panel.slug,
            panel.title,
            events.len()
        ));
        for ev in events {
            traces.push_str(&event_to_json(ev));
            traces.push('\n');
            registry.record(ev);
        }
    }

    // Ninth panel: the E17 overload schedule. Trace-only — its story
    // is the event bookkeeping (shed, retries), not a paper figure, so
    // it gets no ASCII/Mermaid rendering.
    let overload = overload_panel_events();
    traces.push_str(&format!(
        "{{\"meta\":\"panel\",\"slug\":\"{}\",\"title\":\"{}\",\"events\":{}}}\n",
        OVERLOAD_SLUG,
        OVERLOAD_TITLE,
        overload.len()
    ));
    for ev in &overload {
        traces.push_str(&event_to_json(ev));
        traces.push('\n');
        registry.record(ev);
    }

    files.insert(
        "fig5_taxonomy.txt".to_string(),
        acp_types::taxonomy::render_taxonomy(),
    );
    files.insert("traces.jsonl".to_string(), traces);
    files.insert(
        "metrics.json".to_string(),
        registry.to_json("figures (E1-E4 schedule panels + E17 overload)"),
    );

    FigureArtifacts { files }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_set_is_complete() {
        let arts = render_paper_figures(1);
        for name in [
            "fig1_prany.txt",
            "fig2_prn.txt",
            "fig3_pra.txt",
            "fig4_prc.txt",
            "fig5_taxonomy.txt",
            "fig1a_prany_commit.mmd",
            "fig4b_prc_abort.mmd",
            "traces.jsonl",
            "metrics.json",
        ] {
            assert!(arts.files.contains_key(name), "missing {name}");
        }
        // Each schedule file holds both its panels.
        let f2 = &arts.files["fig2_prn.txt"];
        assert!(f2.contains("PrN, commit") && f2.contains("PrN, abort"));
    }
}
