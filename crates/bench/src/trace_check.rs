//! Trace-level ACTA predicate checking over JSON-lines event dumps.
//!
//! Two corpora share this machinery:
//!
//! * the committed figure panels (`results/figures/traces.jsonl`),
//!   replayed by the `replay` binary — [`load_panels`] / [`check_panel`]
//!   plus the [`mutations`] teeth-proving controls;
//! * merged multi-process socket traces, where every OS process of an
//!   `exp_socket` run appends its own JSON-lines file and the parent
//!   stitches them into one global history — [`load_merged`] /
//!   [`check_merged`].
//!
//! The panel checks assume one well-formed single-transaction stream
//! from one simulator run. The merged checks are deliberately weaker:
//! a `kill -9` can tear the tail off any file (the trace sink is
//! buffered, not forced), a recovering coordinator may re-log a
//! decision it already reached, and wall-clocks across processes share
//! only the parent-supplied epoch. So the merged predicates are either
//! order-independent (agreement between records) or confined to a
//! single site, whose events come from one file in emission order.

use acp_obs::{parse_flat_json, JsonValue};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One flat-JSON trace event: the parsed key/value map plus accessors
/// for the fields the predicates consult. Missing keys read as the
/// empty string / `u64::MAX`, so malformed events fail checks loudly
/// rather than silently passing.
#[derive(Clone)]
pub struct Ev(pub BTreeMap<String, JsonValue>);

impl Ev {
    /// String field, or `""` when absent or non-string.
    #[must_use]
    pub fn str(&self, key: &str) -> &str {
        self.0.get(key).and_then(|v| v.as_str()).unwrap_or("")
    }
    /// Numeric field, or `u64::MAX` when absent or non-numeric.
    #[must_use]
    pub fn num(&self, key: &str) -> u64 {
        self.0.get(key).and_then(|v| v.as_u64()).unwrap_or(u64::MAX)
    }
    /// The event's `type` tag.
    #[must_use]
    pub fn ty(&self) -> &str {
        self.str("type")
    }
    /// The event's microsecond timestamp.
    #[must_use]
    pub fn at_us(&self) -> u64 {
        self.num("at_us")
    }
    /// The emitting site.
    #[must_use]
    pub fn site(&self) -> u64 {
        self.num("site")
    }
    /// The transaction the event belongs to.
    #[must_use]
    pub fn txn(&self) -> u64 {
        self.num("txn")
    }
}

/// One committed figure panel: its slug and event stream.
pub struct Panel {
    /// The panel's identifier from its `meta` line.
    pub slug: String,
    /// The panel's events, in committed order.
    pub events: Vec<Ev>,
}

/// Parse the committed figure-trace corpus: `meta: panel` lines
/// delimit panels, every other line is an event of the latest panel.
///
/// # Panics
/// On unreadable files or unparseable lines — the committed corpus is
/// never torn, so damage here is a repo problem, not a runtime one.
#[must_use]
pub fn load_panels(path: &Path) -> Vec<Panel> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut panels: Vec<Panel> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let map = parse_flat_json(line)
            .unwrap_or_else(|| panic!("{}:{}: unparseable line", path.display(), i + 1));
        if map.get("meta").and_then(|v| v.as_str()) == Some("panel") {
            let slug = map
                .get("slug")
                .and_then(|v| v.as_str())
                .expect("panel meta has slug")
                .to_string();
            panels.push(Panel {
                slug,
                events: Vec::new(),
            });
        } else {
            panels
                .last_mut()
                .expect("event line before any panel meta")
                .events
                .push(Ev(map));
        }
    }
    panels
}

/// Event-level safe-state predicates over one panel. Returns human
/// readable violation strings; empty means the panel replays clean.
///
/// The checks are trace-shaped renditions of the ACTA predicates the
/// simulator-side checkers (`acp-acta`) evaluate over histories:
/// write-ahead forcing, presumption-consistent decision logging, and
/// forget-only-after-safe garbage collection (Definition 2).
#[must_use]
pub fn check_panel(events: &[Ev]) -> Vec<String> {
    let mut v = Vec::new();

    // 1. Per-site clocks are monotone in trace order.
    let mut clocks: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        let c = clocks.entry(e.site()).or_insert(0);
        if e.at_us() < *c {
            v.push(format!(
                "site {} clock regressed: {} -> {}",
                e.site(),
                *c,
                e.at_us()
            ));
        }
        *c = (*c).max(e.at_us());
    }

    // 2. Exactly one decision per transaction, reached by the
    //    coordinator (site 0 in every committed panel).
    let mut decisions: BTreeMap<u64, (usize, String)> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.ty() == "decision_reached" {
            if let Some((_, prev)) = decisions.get(&e.txn()) {
                v.push(format!(
                    "txn {} decided twice ({} then {})",
                    e.txn(),
                    prev,
                    e.str("outcome")
                ));
            }
            decisions.insert(e.txn(), (i, e.str("outcome").to_string()));
        }
    }
    if decisions.is_empty() {
        v.push("panel has no decision_reached event".into());
    }

    // 3. Log rule: a Yes vote is externalised only after the prepared
    //    record is forced at that participant (every protocol forces
    //    the prepared record — presumptions only relax decision
    //    records).
    for (i, e) in events.iter().enumerate() {
        if e.ty() == "vote_cast" && e.str("vote") == "yes" {
            let forced = events[..i].iter().any(|p| {
                p.ty() == "force_write"
                    && p.site() == e.site()
                    && p.txn() == e.txn()
                    && p.str("record") == "prepared"
            });
            if !forced {
                v.push(format!(
                    "site {} voted yes on txn {} without a forced prepared record",
                    e.site(),
                    e.txn()
                ));
            }
        }
    }

    // 4. A commit decision requires a yes vote from every participant
    //    that was sent a prepare, cast before the decision.
    for (&txn, &(di, ref outcome)) in &decisions {
        if outcome != "commit" {
            continue;
        }
        let invited: Vec<u64> = events[..di]
            .iter()
            .filter(|p| p.ty() == "msg_send" && p.str("kind") == "prepare" && p.txn() == txn)
            .map(|p| p.num("to"))
            .collect();
        for p in invited {
            let voted = events[..di].iter().any(|e| {
                e.ty() == "vote_cast" && e.site() == p && e.txn() == txn && e.str("vote") == "yes"
            });
            if !voted {
                v.push(format!(
                    "txn {txn} committed without a yes vote from site {p}"
                ));
            }
        }
    }

    // 5. Presumption rule at the coordinator: a commit decision is
    //    always forced before the decision is externalised; an abort
    //    decision is forced only when nothing presumes it (PrN).
    for (&txn, &(di, ref outcome)) in &decisions {
        let proto = events[di].str("proto").to_string();
        let needs_force = outcome == "commit" || proto == "PrN";
        if !needs_force {
            continue;
        }
        let first_send = events[di..]
            .iter()
            .position(|e| e.ty() == "msg_send" && e.str("kind") == "decision" && e.txn() == txn)
            .map(|p| di + p)
            .unwrap_or(events.len());
        let forced = events[di..first_send].iter().any(|e| {
            e.ty() == "force_write"
                && e.site() == 0
                && e.txn() == txn
                && e.str("record") == *outcome
        });
        if !forced {
            v.push(format!(
                "txn {txn} {outcome} decision ({proto}) externalised before the decision record was forced"
            ));
        }
    }

    // 6. Acks follow forces: a participant acks the decision only
    //    after forcing its own decision record (participants whose
    //    presumption matches the outcome write it non-forced and stay
    //    silent).
    for (i, e) in events.iter().enumerate() {
        if e.ty() == "msg_send" && e.str("kind") == "ack" {
            let forced = events[..i].iter().any(|p| {
                p.ty() == "force_write"
                    && p.site() == e.site()
                    && p.txn() == e.txn()
                    && p.str("record").starts_with("part-")
            });
            if !forced {
                v.push(format!(
                    "site {} acked txn {} without forcing its decision record",
                    e.site(),
                    e.txn()
                ));
            }
        }
    }

    // 7. Safe forgetting (Definition 2, trace shape): the coordinator
    //    GCs only after the decision is reached and the end record is
    //    written, and the advertised decision age matches the clocks.
    for (i, e) in events.iter().enumerate() {
        if e.ty() != "log_gc" {
            continue;
        }
        let Some((_, &(di, _))) = decisions.iter().next() else {
            continue;
        };
        let decided_at = events[di].at_us();
        if i < di {
            v.push("coordinator GCed its protocol table before deciding".into());
        }
        let ended = events[..i]
            .iter()
            .any(|p| p.site() == 0 && p.str("record") == "end");
        if !ended {
            v.push("coordinator GCed before writing its end record".into());
        }
        let age = e.num("since_decision_us");
        if age != e.at_us().saturating_sub(decided_at) {
            v.push(format!(
                "log_gc since_decision_us={age} disagrees with clocks ({} - {decided_at})",
                e.at_us()
            ));
        }
    }

    v
}

/// Safe-state predicates for the multi-transaction E17 overload panel.
///
/// [`check_panel`] assumes one transaction per stream (its GC-age
/// predicate keys every `log_gc` off the *first* decision), so the
/// overload panel gets its own checker. The shared invariants stay:
/// monotone per-site clocks, one decision per transaction, write-ahead
/// yes votes. On top, the overload mechanics themselves become
/// predicates: the panel must exhibit real contention (both outcomes
/// present), every shed must be a genuine refusal at the door (no
/// protocol work for that transaction before the shed, and an
/// in-flight census at or over the advertised bound), and no refusal
/// or abort may vanish silently — each must be followed by a
/// `workload-retry` schedule for the same transaction.
#[must_use]
pub fn check_overload_panel(events: &[Ev]) -> Vec<String> {
    let mut v = Vec::new();

    // 1. Per-site clocks are monotone in trace order.
    let mut clocks: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        let c = clocks.entry(e.site()).or_insert(0);
        if e.at_us() < *c {
            v.push(format!(
                "site {} clock regressed: {} -> {}",
                e.site(),
                *c,
                e.at_us()
            ));
        }
        *c = (*c).max(e.at_us());
    }

    // 2. Every transaction decides exactly once, and the panel shows
    //    genuine contention: at least one abort AND at least one
    //    commit.
    let mut decisions: BTreeMap<u64, (u64, String)> = BTreeMap::new();
    for e in events {
        if e.ty() == "decision_reached" {
            if let Some((_, prev)) = decisions.get(&e.txn()) {
                v.push(format!(
                    "txn {} decided twice ({} then {})",
                    e.txn(),
                    prev,
                    e.str("outcome")
                ));
            }
            decisions.insert(e.txn(), (e.at_us(), e.str("outcome").to_string()));
        }
    }
    let commits = decisions.values().filter(|(_, o)| o == "commit").count();
    let aborts = decisions.values().filter(|(_, o)| o == "abort").count();
    if commits == 0 || aborts == 0 {
        v.push(format!(
            "overload panel must show both outcomes (commits={commits} aborts={aborts})"
        ));
    }

    // 3. Sheds are genuine refusals at the door: at least one
    //    admission_shed; each carries an in-flight census at or over
    //    its bound, and its transaction has done no protocol work
    //    before the refusal (no forces, votes, messages — shedding is
    //    free by construction).
    let sheds: Vec<(usize, u64, u64)> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.ty() == "admission_shed")
        .map(|(i, e)| (i, e.txn(), e.at_us()))
        .collect();
    if sheds.is_empty() {
        v.push("overload panel has no admission_shed event".into());
    }
    for &(i, txn, _) in &sheds {
        let e = &events[i];
        if e.num("inflight") < e.num("limit") {
            v.push(format!(
                "txn {txn} shed while under the bound (inflight {} < limit {})",
                e.num("inflight"),
                e.num("limit")
            ));
        }
        let worked = events[..i]
            .iter()
            .any(|p| p.txn() == txn && p.ty() != "admission_shed" && p.ty() != "retry_scheduled");
        if worked {
            v.push(format!(
                "txn {txn} was shed after protocol work — a shed must cost nothing"
            ));
        }
    }

    // 4. No silent losses: every abort decision and every shed is
    //    followed (at or after its stamp) by a workload-retry schedule
    //    for that transaction — the generator always learns.
    let mut losses: Vec<(u64, u64, &str)> = decisions
        .iter()
        .filter(|(_, (_, o))| o == "abort")
        .map(|(&txn, &(at, _))| (txn, at, "abort"))
        .collect();
    losses.extend(sheds.iter().map(|&(_, txn, at)| (txn, at, "shed")));
    for (txn, at, what) in losses {
        let retried = events.iter().any(|e| {
            e.ty() == "retry_scheduled"
                && e.str("purpose") == "workload-retry"
                && e.txn() == txn
                && e.at_us() >= at
        });
        if !retried {
            v.push(format!(
                "txn {txn} {what} was never fed back to the workload retry policy"
            ));
        }
    }

    // 5. Log rule, unchanged under load: a yes vote only after that
    //    site's forced prepared record.
    for (i, e) in events.iter().enumerate() {
        if e.ty() == "vote_cast" && e.str("vote") == "yes" {
            let forced = events[..i].iter().any(|p| {
                p.ty() == "force_write"
                    && p.site() == e.site()
                    && p.txn() == e.txn()
                    && p.str("record") == "prepared"
            });
            if !forced {
                v.push(format!(
                    "site {} voted yes on txn {} without a forced prepared record",
                    e.site(),
                    e.txn()
                ));
            }
        }
    }

    v
}

/// Seeded corruption for the overload panel: silently dropping the
/// shed must be caught by [`check_overload_panel`] (predicate 3 —
/// refusals are never silent), proving the overload predicates have
/// teeth too. Returns (name, mutated events) pairs.
#[must_use]
pub fn overload_mutations(clean: &[Ev]) -> Vec<(&'static str, Vec<Ev>)> {
    let mut out = Vec::new();
    let mut m = clean.to_vec();
    if let Some(i) = m.iter().position(|e| e.ty() == "admission_shed") {
        m.remove(i);
        out.push(("silently dropped shed", m));
    }
    out
}

/// Seeded corruptions: each must be caught by [`check_panel`], proving
/// the predicates can actually fail. Returns (name, mutated events).
#[must_use]
pub fn mutations(clean: &[Ev]) -> Vec<(&'static str, Vec<Ev>)> {
    let mut out = Vec::new();

    // a. Drop the forced prepared record behind the first yes vote.
    let mut m = clean.to_vec();
    if let Some(i) = m
        .iter()
        .position(|e| e.ty() == "force_write" && e.str("record") == "prepared")
    {
        m.remove(i);
        out.push(("unforced yes vote", m));
    }

    // b. Regress the last event's clock to zero.
    let mut m = clean.to_vec();
    if let Some(e) = m.last_mut() {
        e.0.insert("at_us".into(), JsonValue::Num(0));
        out.push(("clock regression", m));
    }

    // c. Duplicate the decision with the opposite outcome.
    let mut m = clean.to_vec();
    if let Some(i) = m.iter().position(|e| e.ty() == "decision_reached") {
        let mut dup = m[i].clone();
        let flipped = if dup.str("outcome") == "commit" {
            "abort"
        } else {
            "commit"
        };
        dup.0
            .insert("outcome".into(), JsonValue::Str(flipped.into()));
        m.insert(i + 1, dup);
        out.push(("contradictory second decision", m));
    }

    // d. Strip the coordinator's forced decision record (write-ahead
    //    violation for a commit decision).
    let mut m = clean.to_vec();
    if let Some(i) = m
        .iter()
        .position(|e| e.ty() == "force_write" && e.site() == 0 && e.str("record") == "commit")
    {
        m.remove(i);
        out.push(("commit externalised without force", m));
    }

    out
}

/// Load and merge the per-process trace files of a socket run into one
/// globally ordered event stream.
///
/// Every process stamps events on the shared epoch axis its parent
/// supplied, so a stable sort by `at_us` yields a consistent global
/// order while preserving each file's emission order among equal
/// stamps. Unparseable lines are *skipped*, not fatal: a `kill -9`
/// legitimately tears the buffered tail off a victim's trace file, and
/// because the sink appends in emission order a torn line can only
/// lose a suffix — every surviving line still has its causal
/// predecessors from the same process. Returns the merged events and
/// the number of lines skipped.
#[must_use]
pub fn load_merged(paths: &[PathBuf]) -> (Vec<Ev>, usize) {
    let mut events = Vec::new();
    let mut skipped = 0usize;
    for path in paths {
        let Ok(text) = std::fs::read_to_string(path) else {
            skipped += 1;
            continue;
        };
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_flat_json(line) {
                Some(map) if map.contains_key("type") => events.push(Ev(map)),
                _ => skipped += 1,
            }
        }
    }
    events.sort_by_key(Ev::at_us);
    (events, skipped)
}

/// Cross-process ACTA predicates over a merged socket-run trace.
/// Returns human-readable violation strings; empty means the merged
/// history is globally consistent.
///
/// Weaker than [`check_panel`] by design: a recovering coordinator may
/// re-reach the decision it already logged (duplicates are fine,
/// contradictions are not), torn tails can hide any suffix of one
/// process's stream, and cross-process timestamps are only as aligned
/// as the shared epoch. So every predicate here is either an
/// order-free agreement check or confined to one site's own stream.
#[must_use]
pub fn check_merged(events: &[Ev]) -> Vec<String> {
    let mut v = Vec::new();

    // 1. Decisions never contradict: every decision_reached for a txn
    //    names the same outcome, across original and recovered
    //    coordinator incarnations.
    let mut decided: BTreeMap<u64, String> = BTreeMap::new();
    for e in events {
        if e.ty() != "decision_reached" {
            continue;
        }
        let outcome = e.str("outcome").to_string();
        match decided.get(&e.txn()) {
            Some(prev) if *prev != outcome => v.push(format!(
                "txn {} decided {} and then {}",
                e.txn(),
                prev,
                outcome
            )),
            _ => {
                decided.insert(e.txn(), outcome);
            }
        }
    }

    // 2. Participant enforcement agrees with the global decision: a
    //    part-commit / part-abort record (forced or presumed
    //    non-forced) must match the coordinator's outcome for that
    //    txn, and no site may write both for one txn. This is the
    //    atomicity predicate — the footnote-5 chain fails exactly
    //    here.
    let mut enforced: BTreeMap<(u64, u64), String> = BTreeMap::new();
    for e in events {
        if e.ty() != "force_write" && e.ty() != "non_forced_write" {
            continue;
        }
        let outcome = match e.str("record") {
            "part-commit" => "commit",
            "part-abort" => "abort",
            _ => continue,
        };
        let key = (e.site(), e.txn());
        match enforced.get(&key) {
            Some(prev) if prev != outcome => v.push(format!(
                "site {} enforced both {} and {} for txn {}",
                e.site(),
                prev,
                outcome,
                e.txn()
            )),
            _ => {
                enforced.insert(key, outcome.to_string());
            }
        }
    }
    for ((site, txn), outcome) in &enforced {
        if let Some(global) = decided.get(txn) {
            if global != outcome {
                v.push(format!(
                    "site {site} enforced {outcome} for txn {txn} but the global decision is {global}"
                ));
            }
        }
    }

    // 3. Same-site write-ahead rule: a yes vote only after that site's
    //    forced prepared record for the txn. Both events come from the
    //    same process file, so their relative order is trustworthy.
    for (i, e) in events.iter().enumerate() {
        if e.ty() == "vote_cast" && e.str("vote") == "yes" {
            let forced = events[..i].iter().any(|p| {
                p.ty() == "force_write"
                    && p.site() == e.site()
                    && p.txn() == e.txn()
                    && p.str("record") == "prepared"
            });
            if !forced {
                v.push(format!(
                    "site {} voted yes on txn {} without a forced prepared record",
                    e.site(),
                    e.txn()
                ));
            }
        }
    }

    // 4. Same-site ack rule: a participant acks the decision only
    //    after forcing its own decision record. One exemption: a site
    //    that ran recovery earlier in the merged order may ack without
    //    an in-trace force. The WAL fsync and the trace write are
    //    separate syscalls on separate files, so a kill -9 can land
    //    between them — the decision record survives in the WAL while
    //    its trace line is lost — and the recovered incarnation then
    //    re-acks straight from the durable record. A recovered site can
    //    only know the decision by having read that forced record, so
    //    the ack is still write-ahead-legal; the trace just cannot
    //    prove it. Sites that never recovered get no such excuse.
    for (i, e) in events.iter().enumerate() {
        if e.ty() == "msg_send" && e.str("kind") == "ack" {
            let forced = events[..i].iter().any(|p| {
                p.ty() == "force_write"
                    && p.site() == e.site()
                    && p.txn() == e.txn()
                    && p.str("record").starts_with("part-")
            });
            let recovered = events[..i]
                .iter()
                .any(|p| p.ty() == "recovery_step" && p.site() == e.site());
            if !forced && !recovered {
                v.push(format!(
                    "site {} acked txn {} without forcing its decision record",
                    e.site(),
                    e.txn()
                ));
            }
        }
    }

    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pairs: &[(&str, JsonValue)]) -> Ev {
        Ev(pairs
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect())
    }

    fn n(x: u64) -> JsonValue {
        JsonValue::Num(x)
    }

    fn s(x: &str) -> JsonValue {
        JsonValue::Str(x.to_string())
    }

    /// A minimal clean merged history: force prepared, yes vote,
    /// decision, part force, ack.
    fn clean() -> Vec<Ev> {
        vec![
            ev(&[
                ("type", s("force_write")),
                ("at_us", n(10)),
                ("site", n(1)),
                ("txn", n(7)),
                ("record", s("prepared")),
            ]),
            ev(&[
                ("type", s("vote_cast")),
                ("at_us", n(20)),
                ("site", n(1)),
                ("txn", n(7)),
                ("vote", s("yes")),
            ]),
            ev(&[
                ("type", s("decision_reached")),
                ("at_us", n(30)),
                ("site", n(0)),
                ("txn", n(7)),
                ("outcome", s("commit")),
            ]),
            ev(&[
                ("type", s("force_write")),
                ("at_us", n(40)),
                ("site", n(1)),
                ("txn", n(7)),
                ("record", s("part-commit")),
            ]),
            ev(&[
                ("type", s("msg_send")),
                ("at_us", n(50)),
                ("site", n(1)),
                ("txn", n(7)),
                ("kind", s("ack")),
                ("to", n(0)),
            ]),
        ]
    }

    #[test]
    fn clean_merged_history_passes() {
        assert!(check_merged(&clean()).is_empty());
    }

    #[test]
    fn duplicate_agreeing_decision_is_fine_contradiction_is_not() {
        let mut h = clean();
        let mut dup = h[2].clone();
        dup.0.insert("at_us".into(), n(35));
        h.push(dup.clone());
        assert!(check_merged(&h).is_empty(), "recovery re-decision is legal");
        dup.0.insert("outcome".into(), s("abort"));
        h.push(dup);
        let v = check_merged(&h);
        assert!(
            v.iter()
                .any(|m| m.contains("decided commit and then abort")),
            "{v:?}"
        );
    }

    #[test]
    fn wrong_enforcement_is_flagged() {
        let mut h = clean();
        h[3].0.insert("record".into(), s("part-abort"));
        let v = check_merged(&h);
        assert!(
            v.iter().any(|m| m.contains("global decision is commit")),
            "{v:?}"
        );
    }

    #[test]
    fn unforced_yes_vote_is_flagged() {
        let mut h = clean();
        h.remove(0);
        assert!(check_merged(&h)
            .iter()
            .any(|m| m.contains("without a forced prepared record")));
    }

    #[test]
    fn unforced_ack_is_flagged_unless_the_site_recovered() {
        let mut h = clean();
        h.remove(3); // drop the part-commit force: the ack is now naked
        assert!(
            check_merged(&h)
                .iter()
                .any(|m| m.contains("without forcing its decision record")),
            "a never-killed site has no excuse for an unforced ack"
        );
        // But if the site ran recovery first, the force line may be a
        // kill -9 casualty (WAL fsync survived, trace write did not):
        // the recovered incarnation's re-ack is legal.
        h.insert(
            3,
            ev(&[
                ("type", s("recovery_step")),
                ("at_us", n(45)),
                ("site", n(1)),
                ("detail", s("replay part-commit t7")),
            ]),
        );
        assert!(check_merged(&h).is_empty());
    }

    #[test]
    fn load_merged_skips_torn_tail_and_sorts() {
        let dir = std::env::temp_dir().join(format!("acp-trace-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        std::fs::write(
            &a,
            "{\"type\":\"vote_cast\",\"at_us\":20,\"site\":1,\"txn\":1,\"vote\":\"yes\"}\n{\"type\":\"msg_se",
        )
        .expect("write a");
        std::fs::write(
            &b,
            "{\"type\":\"force_write\",\"at_us\":10,\"site\":1,\"txn\":1,\"record\":\"prepared\"}\n",
        )
        .expect("write b");
        let (evs, skipped) = load_merged(&[a, b]);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(skipped, 1, "torn tail line skipped");
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].ty(), "force_write", "sorted by at_us across files");
        assert!(check_merged(&evs).is_empty());
    }
}
