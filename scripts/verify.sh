#!/usr/bin/env bash
# Tier-1 verification: rustfmt-clean sources, offline release build,
# every workspace test, a warning-free clippy run, the structural
# guards (one kernel, one
# in-process host, one engine enum, one metrics path, one harness, one
# log, observed costs, one copy per write, state leaves with its
# transaction, one force per prepare, one read per restart, one decode
# per restart, one collection rule and cadence, one owner
# one table, a byte-coded history, one encoder, one instrument, one
# record per run),
# warning-free rustdoc, the benchmark's smoke suite, and a regeneration
# of every committed result with a diff against it. No step's pass/fail depends
# on a wall-clock rate; the perf figures printed are information.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test size of source trees: per file, the lines before the first
# #[cfg(test)] (the counting rule every PR's figure uses).
nontest_lines() {
  local label="$*"
  find "$@" -name '*.rs' | sort \
    | xargs awk -v label="${label// / + }" 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print label " non-test lines:", n }'
}

echo "== cargo fmt --check"
# The workspace is rustfmt-clean (benchmarks/ is its own workspace and
# is not covered); a diff here is formatting drift.
cargo fmt --check

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo test -q --offline --workspace --release"
# Every crate's suites, not only the root package's: the stepped-kernel
# regression tests (crates/net), the explorer's pinned state counts
# (crates/checker — minutes in debug, hence --release) and the byte
# contracts of the WAL and the wire.
cargo test -q --offline --workspace --release

echo "== cargo clippy --workspace --all-targets --offline (warnings denied)"
cargo clippy -q --workspace --all-targets --offline -- -D warnings

echo "== one turn discipline: the kernel's functions are defined once"
# reactor.rs and wire/node.rs used to be two copies of the site-hosting
# kernel (crates/net/src/host.rs), and the thread-per-site backend a
# third. A second definition of any of these is that fork coming back.
for f in run_site_actions flush_sends force_site_batch finish_turns crash_volatile; do
  n="$(grep -rwE "fn $f" crates/net/src --include='*.rs' | wc -l)"
  [ "$n" = 1 ] || { echo "FAIL: 'fn $f' is defined $n times under crates/net/src (want 1)"; exit 1; }
done
# The thread-per-site backend is retired (results/frozen/BENCH_runtime.json
# is the record the decision rests on): its turn loops and its handle
# stay gone.
if grep -rnE 'fn (run_coordinator|run_participant|run_gateway)\b|struct Cluster\b' crates src tests examples --include='*.rs'; then
  echo "FAIL: the threaded backend's loops or its Cluster handle reappeared"; exit 1
fi

echo "== one in-process host: ReactorCluster { reactors }, configured only by what callers set"
# multi_reactor.rs was a second public handle over the same shards, and
# the admission wrapper, the commit window, the adaptive force path and
# the tick snapshot trigger were knobs and state nothing set (PR 25).
# Any of these names is that copy or an unset knob coming back.
if grep -rnE 'struct (MultiReactorCluster|MultiReactorConfig|MultiReactorReport|AdmissionController|AdmissionConfig)\b|\b(commit_window|adaptive_window|snapshot_every_ticks|batch_opened)\b' crates src tests examples --include='*.rs'; then
  echo "FAIL: a second in-process host handle, the admission wrapper or an unset knob reappeared"; exit 1
fi

echo "== one engine enum: the kernel hosts every site as an acp_core::AnyEngine"
# The kernel used to keep its own four-arm SiteTask enum and feed! macro,
# the last engine-dispatch fork beside AnyEngine, and ran the gateway on a
# bare FileLog outside the turn's group-commit force. Any of these under
# crates/net/src is that fork coming back. Each pattern first meets a
# line it must catch (its negative control), so a guard that can no
# longer match fails here instead of passing vacuously.
fork_guards=(
  'macro_rules! feed\b'                     'macro_rules! feed {'
  'enum SiteTask\b'                         'enum SiteTask {'
  'SiteTask::(Coord|Paxos|Part|Gateway)\b'  'SiteTask::Gateway { engine } => engine.crash(),'
  'GatewayParticipant<FileLog>'             'engine: GatewayParticipant<FileLog>,'
)
for ((i = 0; i < ${#fork_guards[@]}; i += 2)); do
  pattern="${fork_guards[i]}" control="${fork_guards[i + 1]}"
  echo "$control" | grep -qE "$pattern" \
    || { echo "FAIL: the guard '$pattern' misses its control line '$control'"; exit 1; }
  if grep -rnE "$pattern" crates/net/src --include='*.rs'; then
    echo "FAIL: '$pattern' under crates/net/src: a kind dispatch beside acp_core::AnyEngine"; exit 1
  fi
done
nontest_lines crates/net/src
nontest_lines crates/core/src

echo "== one metrics path: a running cluster is counted by the caller's CountingSink"
# The reactor used to keep a second, shutdown-only copy of its protocol
# counters: spawn_observed gave each shard its own registry, a cadence
# snapshotted them into per-shard MetricsTimelines, and the report merged
# those after shutdown. The one registry behind the sink a caller hands
# spawn_with_sink is shared by every shard and readable mid-run, so any
# of these names is that copy coming back. As above, each pattern first
# meets its control line.
metrics_guards=(
  '\bspawn_observed\b'          'pub fn spawn_observed('
  '\bsnapshot_every_commits\b'  'config.snapshot_every_commits = 1;'
  '\bSnapshotCadence\b'         'cadence: SnapshotCadence,'
  '\bMetricsTimeline\b'         'pub struct MetricsTimeline {'
  'fn maybe_snapshot\b'         'fn maybe_snapshot(&mut self) {'
)
for ((i = 0; i < ${#metrics_guards[@]}; i += 2)); do
  pattern="${metrics_guards[i]}" control="${metrics_guards[i + 1]}"
  echo "$control" | grep -qE "$pattern" \
    || { echo "FAIL: the guard '$pattern' misses its control line '$control'"; exit 1; }
  if grep -rnE "$pattern" crates src tests examples --include='*.rs'; then
    echo "FAIL: '$pattern': a second metrics path beside the caller's CountingSink"; exit 1
  fi
done
nontest_lines crates/net/src
nontest_lines crates/obs/src
nontest_lines crates/core/src
nontest_lines crates/net/src crates/obs/src crates/core/src

echo "== one harness, one explorer: the Paxos forks stay folded"
# paxos/sim.rs and checker/paxos.rs used to be copies of harness.rs and
# explore.rs; both hosts are now written once against acp_core::AnyEngine.
# A definition of any of these names is that fork coming back.
if grep -rnE 'struct (PaxosProc|PaxosState|PaxosScenario|PaxosCheckConfig)\b|fn (run_paxos_scenario|check_paxos)\b' crates --include='*.rs'; then
  echo "FAIL: a Paxos-only harness or explorer reappeared under crates/"; exit 1
fi
nontest_lines crates/core/src crates/checker/src

echo "== one log: FileLog and FaultyLog are one FramedLog over two stores"
# file.rs and fault.rs used to be two copies of the log (append,
# write-out, GC staging, recovery scan), so every injected storage fault
# ran under the copy. They are now stores under crates/wal/src/framed.rs;
# a struct of either name — or of the ObservedLog wrapper nothing used —
# is that fork coming back, and so is a second recovery scan: a second
# call of a frame reader (check_frame, or decode_frame, which wraps it)
# outside encode.rs.
if grep -rnE 'struct (FileLog|FaultyLog|ObservedLog)\b' crates --include='*.rs'; then
  echo "FAIL: FileLog, FaultyLog or ObservedLog is a struct again (they are aliases of FramedLog<S>)"; exit 1
fi
scans="$(find crates/wal/src -name '*.rs' ! -name encode.rs | sort \
  | xargs awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
               !test && /(check|decode)_frame\(/ { print FILENAME ":" FNR ": " $0 }')"
[ "$(echo "$scans" | grep -c .)" = 1 ] \
  || { echo "$scans"; echo "FAIL: want exactly one check_frame( or decode_frame( call in non-test crates/wal/src outside encode.rs (FramedLog's recovery scan)"; exit 1; }
# The store is the only copy of a FramedLog's records: the log keeps its
# encode buffer, its counters and one payload length per live record. A
# LogRecord-typed field in framed.rs (the `durable: Vec<LogRecord>`
# mirror held ≈ 160 B per record for the life of a log nothing
# collects) is a decoded copy coming back. The pattern first meets its
# control line, and the fields read must include FramedLog's `lens`.
field='^ *(pub(\([a-z]+\))? )?[a-z_][a-z0-9_]*: .*\bLogRecord\b'
echo '    durable: Vec<LogRecord>,' | grep -qE "$field" \
  || { echo "FAIL: the guard '$field' misses its control line"; exit 1; }
fields="$(awk '/^#\[cfg\(test\)\]/ { exit }
    /^(pub(\([a-z]+\))? )?struct [A-Za-z]+.*\{$/ { body = 1; next }
    body && /^\}/ { body = 0 }
    body' crates/wal/src/framed.rs)"
echo "$fields" | grep -qE '^ +lens: ' \
  || { echo "FAIL: the field guard reads no 'lens' field in crates/wal/src/framed.rs's structs"; exit 1; }
if echo "$fields" | grep -E "$field"; then
  echo "FAIL: crates/wal/src/framed.rs declares a LogRecord-typed field (a decoded mirror beside the store)"; exit 1
fi
# GC moves the header's low-water mark in place or compacts the image,
# and FramedLog::truncate_prefix alone decides which: a second caller of
# either store write is a second GC path (every GC used to rewrite the
# file). As above, each pattern first meets its control line; a call's
# place is the file and the last `fn` line above it.
gc_writes=(
  '\.replace\('        'self.store.replace(&image)?;'
  '\.set_low_water\('  'self.store.set_low_water(lsn)?;'
)
for ((i = 0; i < ${#gc_writes[@]}; i += 2)); do
  pattern="${gc_writes[i]}" control="${gc_writes[i + 1]}"
  echo "$control" | grep -qE "$pattern" \
    || { echo "FAIL: the guard '$pattern' misses its control line '$control'"; exit 1; }
  calls="$(find crates/wal/src -name '*.rs' | sort \
    | PAT="$pattern" xargs awk 'FNR == 1 { test = 0; fn = "" } /^#\[cfg\(test\)\]/ { test = 1 }
        match($0, /fn [a-z_][a-z_0-9]*[(<]/) { fn = substr($0, RSTART + 3, RLENGTH - 4) }
        !test && $0 ~ ENVIRON["PAT"] { print FILENAME " " fn }')"
  [ "$calls" = "crates/wal/src/framed.rs truncate_prefix" ] \
    || { echo "$calls"; echo "FAIL: want exactly one non-test '$pattern' call in crates/wal/src, in framed.rs's truncate_prefix"; exit 1; }
done
# The reclaim floor has one home, acp_wal::RECLAIM_FLOOR: a test that
# spells its value out instead of reading the constant stops crossing
# the floor, or bounds an image by a stale one, when the floor moves.
floor='\b65_?536\b|\b64 ?\* ?1024\b'
echo 'pub const RECLAIM_FLOOR: u64 = 65_536;' | grep -qE "$floor" \
  || { echo "FAIL: the floor guard misses its control line"; exit 1; }
literals="$(grep -rnE "$floor" crates tests src examples --include='*.rs' | cut -d: -f1 | sort -u)"
[ "$literals" = "crates/wal/src/framed.rs" ] \
  || { echo "$literals"; echo "FAIL: the reclaim floor's value is spelled out outside crates/wal/src/framed.rs (read acp_wal::RECLAIM_FLOOR)"; exit 1; }
# Every site forgets, and the kernel is what collects: the coordinator's
# log, a Paxos member's and each native participant's, all in gc_turns,
# which writes the participant's store file first. A second collection
# call is a collection that can skip that write or the GC_RECORDS
# cadence.
collect='[a-z_]+\.collect_garbage\('
echo 'd.storage.checkpoint_installed().is_ok() && part.collect_garbage().is_ok();' \
  | grep -qE "$collect" || { echo "FAIL: the collection guard misses its control line"; exit 1; }
calls="$(PAT="$collect" awk '/^#\[cfg\(test\)\]/ { exit }
    match($0, /fn [a-z_][a-z_0-9]*[(<]/) { fn = substr($0, RSTART + 3, RLENGTH - 4) }
    match($0, ENVIRON["PAT"]) { print fn " " substr($0, RSTART, RLENGTH - 17) }' crates/net/src/host.rs)"
[ "$calls" = "$(printf 'gc_turns c\ngc_turns p\ngc_turns part')" ] \
  || { echo "$calls"; echo "FAIL: want crates/net/src/host.rs's non-test collections in gc_turns only: the coordinator's (c), a Paxos member's (p) and exactly one participant's (part)"; exit 1; }
# One collection rule: a collection never flushes. The engines' only
# non-test flush is coordinator/mod.rs's flush_and_collect, the
# per-transaction collection (`auto_gc`) of the coordinator and a Paxos
# member under hosts without turns (the harness, the explorer), which
# keeps results/ and the explored state spaces as they were. A flush in
# any other engine function, collect_garbage above all, is a collection
# paying a sync of its own again. As above, the pattern first meets its
# control line; a call's place is the file and the last `fn` line above
# it.
flush='\.flush\(\)'
echo '        self.log.flush()?;' | grep -qE "$flush" \
  || { echo "FAIL: the flush guard misses its control line"; exit 1; }
flushes="$(find crates/core/src -name '*.rs' ! -name tests.rs | sort \
  | PAT="$flush" xargs awk 'FNR == 1 { test = 0; fn = "" } /^#\[cfg\(test\)\]/ { test = 1 }
      match($0, /fn [a-z_][a-z_0-9]*[(<]/) { fn = substr($0, RSTART + 3, RLENGTH - 4) }
      !test && $0 ~ ENVIRON["PAT"] { print FILENAME " " fn }')"
[ "$flushes" = 'crates/core/src/coordinator/mod.rs flush_and_collect' ] \
  || { echo "$flushes"; echo "FAIL: want the engines' only non-test flush in coordinator/mod.rs's flush_and_collect (no collection flushes)"; exit 1; }
# One cadence: host.rs declares one collection-threshold constant,
# GC_RECORDS, for every protocol log it collects. A second one (the
# participant-only PART_GC_RECORDS was the first) is a log collected by
# a cadence of its own.
threshold='const [A-Z_]*GC[A-Z_]*: u64'
echo 'const PART_GC_RECORDS: u64 = 128;' | grep -qE "$threshold" \
  || { echo "FAIL: the threshold guard misses its control line"; exit 1; }
thresholds="$(awk '/^#\[cfg\(test\)\]/ { exit } { print }' crates/net/src/host.rs | grep -oE "$threshold")"
[ "$thresholds" = 'const GC_RECORDS: u64' ] \
  || { echo "$thresholds"; echo "FAIL: want exactly one collection-threshold constant in crates/net/src/host.rs, GC_RECORDS"; exit 1; }
nontest_lines crates/net/src
nontest_lines crates/core/src
nontest_lines crates/wal/src

echo "== costs are observed: the engines keep no cost map"
# Each engine used to keep a per-transaction CostCounters map, bumped in
# its own append/send helpers and read only by the harness, for ever.
# The harness now charges the trace's sends and the history's LogWrite
# events and checks them against every site's log. A CostCounters, a
# costs field or accessor, or a count_* call in an engine's non-test
# lines is the self-report coming back. As above, each pattern first
# meets its control line.
cost_src="$(awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
    !test { print FILENAME ":" FNR ": " $0 }' \
  crates/core/src/coordinator/mod.rs crates/core/src/participant.rs crates/core/src/gateway.rs \
  crates/core/src/paxos/mod.rs crates/core/src/engine.rs)"
cost_guards=(
  '\bCostCounters\b'                    'use acp_types::{CostCounters, LogPayload, Outcome};'
  '\bcosts: '                            '    pub(crate) costs: BTreeMap<TxnId, CostCounters>,'
  '(fn |\.)costs\b'                      '        each!(self, e => e.costs(txn))'
  '\.count_(log_write|message_kind)\(' '        self.costs.entry(txn).or_default().count_log_write(force);'
)
for ((i = 0; i < ${#cost_guards[@]}; i += 2)); do
  pattern="${cost_guards[i]}" control="${cost_guards[i + 1]}"
  echo "$control" | grep -qE "$pattern" \
    || { echo "FAIL: the guard '$pattern' misses its control line '$control'"; exit 1; }
  if echo "$cost_src" | grep -E "$pattern"; then
    echo "FAIL: '$pattern' in an engine: a self-reported cost beside the harness's observation"; exit 1
  fi
done
nontest_lines crates/core/src

echo "== one copy per write: writes fill reused buffers, log records borrow them"
# A write's key and value are copied into buffers the storage engine
# reuses (the transaction's context, the store's arena, the store
# file's one delta); prepare lends them to their update
# records, and the coordinator lends its participant list to the
# initiation and decision records, because a log encodes from a
# reference (StableLog::append_ref). A clone of a key, an image or a
# participant list in these files' non-test lines is the copy coming
# back (prepare used to clone all three into every update record, and
# a restart's analysis cloned every record's images and lists). A
# timer id carries its wheel slot, so the wheel keeps no per-timer
# index: a BTreeMap in timer.rs is that node per timer coming back.
# As above, each pattern first meets its control line.
copy_src="$(awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
    !test { print FILENAME ":" FNR ": " $0 }' \
  crates/engine/src/site.rs crates/engine/src/txn.rs crates/core/src/coordinator/mod.rs \
  crates/wal/src/scan.rs)"
copy_guards=(
  '\b(key|before|after)\.clone\(\)'  'let (key, before, after) = (key.clone(), w.before.clone(), w.after.clone());'
  '\bparticipants\.clone\(\)'        'participants: participants.clone(),'
)
for ((i = 0; i < ${#copy_guards[@]}; i += 2)); do
  pattern="${copy_guards[i]}" control="${copy_guards[i + 1]}"
  echo "$control" | grep -qE "$pattern" \
    || { echo "FAIL: the guard '$pattern' misses its control line '$control'"; exit 1; }
  if echo "$copy_src" | grep -E "$pattern"; then
    echo "FAIL: '$pattern': a write's bytes or a participant list copied into a log record"; exit 1
  fi
done
timer_index='\bBTreeMap\b'
echo '    index: BTreeMap<u64, usize>,' | grep -qE "$timer_index" \
  || { echo "FAIL: the guard '$timer_index' misses its control line"; exit 1; }
if grep -nE "$timer_index" crates/net/src/timer.rs; then
  echo "FAIL: crates/net/src/timer.rs holds a BTreeMap (a tree node per armed timer)"; exit 1
fi
nontest_lines crates/wal/src
nontest_lines crates/engine/src
nontest_lines crates/net/src
nontest_lines crates/core/src

echo "== state leaves with its transaction: recycled or gone, not kept"
# A steady turn allocates only for state that outlives it. The storage
# engine used to copy every locked key into a new lock-table entry and
# keep each live transaction's first log position in a map of its own;
# it now refills freed key buffers and keeps the position in the
# transaction's reused context. The kernel used to hand each vote to its
# participant through set_intent, which kept every vote for ever; it now
# passes the vote with the prepare. The GC tracker kept an `ended` map
# nobody read, and FramedLog an absolute 8-byte offset per record where
# a 4-byte length does. Each pattern below, in its file's non-test
# lines, is one of those coming back; each first meets its control line.
state_guards=(
  crates/engine/src/lock.rs  'insert\(key\.to_vec\(\)'  '            self.locks.insert(key.to_vec(), state);'
  crates/net/src             '\.set_intent\('           '                p.set_intent(*txn, vote);'
  crates/wal/src/gc.rs       '\bended: [A-Z]'           '    ended: BTreeMap<TxnId, Lsn>,'
  crates/engine/src/site.rs  '\bfirst_lsn: BTreeMap\b'  '    first_lsn: BTreeMap<TxnId, Lsn>,'
  crates/wal/src/framed.rs   '\bVecDeque<u64>'          '    offsets: VecDeque<u64>,'
)
for ((i = 0; i < ${#state_guards[@]}; i += 3)); do
  where="${state_guards[i]}" pattern="${state_guards[i + 1]}" control="${state_guards[i + 2]}"
  echo "$control" | grep -qE "$pattern" \
    || { echo "FAIL: the guard '$pattern' misses its control line '$control'"; exit 1; }
  if find "$where" -name '*.rs' | sort \
    | xargs awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { print FILENAME ":" FNR ": " $0 }' \
    | grep -E "$pattern"; then
    echo "FAIL: '$pattern' in $where: per-transaction state kept past its transaction"; exit 1
  fi
done
nontest_lines crates/engine/src
nontest_lines crates/core/src
nontest_lines crates/wal/src
nontest_lines crates/net/src

echo "== one force per prepare: a participant's redo rides its prepared record"
# A native participant's write set used to be staged lazily in a second
# file, data-<n>.wal, which the kernel flushed every turn before it
# forced the protocol batch, with decision markers of its own and a
# recovery that read outcomes across the two files. The redo is now
# staged in the participant's log ahead of its prepared record, one
# force covers both, and data-<n>.wal is a store file written only
# before a collection. Any of these names under crates/net/src is the
# second force path coming back. As above, each pattern first meets its
# control line.
force_guards=(
  '\bflush_log\b'           'd.storage.flush_log().expect("data log flush");'
  '\bprepare_lazy\b'        'storage.prepare_lazy(txn)'
  '\bprotocol_outcomes\b'   'let outcomes = protocol_outcomes(engine.log());'
  '\bPartDecision\b'        'self.log.append(LogPayload::PartDecision { txn, outcome }, false)?;'
)
for ((i = 0; i < ${#force_guards[@]}; i += 2)); do
  pattern="${force_guards[i]}" control="${force_guards[i + 1]}"
  echo "$control" | grep -qE "$pattern" \
    || { echo "FAIL: the guard '$pattern' misses its control line '$control'"; exit 1; }
  if grep -rnE "$pattern" crates/net/src --include='*.rs'; then
    echo "FAIL: '$pattern' under crates/net/src: a second force path beside the prepared record's"; exit 1
  fi
done
nontest_lines crates/net/src crates/engine/src

echo "== one read per restart: each engine analyzes its log once"
# A restart used to decode a native participant's log four times: the
# crash's tracker rebuild, recover_into's own rebuild and its analysis,
# and the storage engine's redo scan, which sorted the records again by
# its own copy of the analysis's rules. Each engine's recover_into now
# makes one scan::analyze_log call, which builds the GC tracker in the
# same pass, and the storage engine redoes from the participant's
# analysis. A StableLog parameter on the storage engine's fn recover, a
# PartDecision match in crates/engine/src or a GcTracker::from_log call
# in a recover_into under crates/core/src is a second read coming back.
# As above, each pattern first meets its control line, and the body
# extractor its control function.
engine_src="$(find crates/engine/src -name '*.rs' | sort \
  | xargs awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { print FILENAME ":" FNR ": " $0 }')"
read_guards=(
  'fn recover\b.*\bStableLog\b'  '    pub fn recover<R: StableLog + ?Sized>(&mut self, redo: &R) -> Result<(), EngineError> {'
  '\bPartDecision\b'             '                LogPayload::PartDecision { txn, outcome } => decided.push((txn, outcome)),'
)
for ((i = 0; i < ${#read_guards[@]}; i += 2)); do
  pattern="${read_guards[i]}" control="${read_guards[i + 1]}"
  echo "$control" | grep -qE "$pattern" \
    || { echo "FAIL: the guard '$pattern' misses its control line '$control'"; exit 1; }
  if echo "$engine_src" | grep -E "$pattern"; then
    echo "FAIL: '$pattern' in crates/engine/src: the storage engine reads the protocol log itself"; exit 1
  fi
done
# The non-test bodies of the `fn recover_into` methods of the files
# given (or of stdin), each up to its closing brace at method depth.
recover_bodies() {
  awk 'FNR == 1 { test = 0; body = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
       !test && /fn recover_into\(/ { body = 1 }
       body { print FILENAME ":" FNR ": " $0 }
       body && /^    }$/ { body = 0 }' "$@"
}
control_fn='    pub fn recover_into(&mut self, out: &mut Vec<Action>) {
        self.gc = GcTracker::from_log(&self.log).expect("records");
        let summaries = acp_wal::scan::analyze_log(&self.log).expect("records");
    }'
echo "$control_fn" | recover_bodies | grep -q 'GcTracker::from_log' \
  || { echo "FAIL: the recover_into body extractor misses its control function"; exit 1; }
mapfile -t core_files < <(find crates/core/src -name '*.rs' | sort)
bodies="$(recover_bodies "${core_files[@]}")"
if echo "$bodies" | grep -E 'GcTracker::from_log'; then
  echo "FAIL: a recover_into under crates/core/src rebuilds its GC tracker in a pass of its own"; exit 1
fi
reads="$(echo "$bodies" | grep -cE 'analyze_log\(' || true)"
[ "$reads" = 4 ] \
  || { echo "$bodies" | grep -E 'analyze_log\('; echo "FAIL: want one analyze_log call in each engine's recover_into (4), found $reads"; exit 1; }
nontest_lines crates/wal/src crates/core/src crates/engine/src crates/net/src

echo "== one decode per restart: a crash checks frames, only a read decodes"
# A crash or an open used to decode every frame of every log it
# re-scanned (FramedLog::load through scan and decode_frame) and keep
# only the frames' lengths; the restart's analysis then decoded them all
# again. The scan now checks frames (encode::check_frame), and
# FramedLog::read_live, behind records() and for_each_record, is the
# one place the log decodes a payload. (read_checkpoints, the store
# file's restart read, lends Checkpoint entries in place through
# encode::checkpoint_entries and decodes nothing.) A decode_frame call in the
# non-test lines of framed.rs, or a decode_payload call there outside
# read_live's body, is the crash path decoding again. As above, each
# pattern and the body filter first meet their control lines.
# The non-test lines of the files given (or of stdin) outside the body
# of `fn read_live`, which ends at its closing brace at method depth.
outside_read_live() {
  awk 'FNR == 1 { test = 0; body = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
       !test && /fn read_live\(/ { body = 1 }
       !test && !body { print FILENAME ":" FNR ": " $0 }
       body && /^    }$/ { body = 0 }' "$@"
}
frame_guard='\bdecode_frame\('
payload_guard='\bdecode_payload\('
echo '    let frame_at = |at: usize| decode_frame(&bytes[at..], base + at as u64);' \
  | grep -qE "$frame_guard" \
  || { echo "FAIL: the guard '$frame_guard' misses its control line"; exit 1; }
control_fns='    fn load(&mut self) -> Result<(u64, u64), WalError> {
        lens.push_back(payload_len(decode_payload(frame.payload)?.len()));
    }
    fn read_live(&self, visit: &mut dyn FnMut(LogRecord)) -> Result<(), WalError> {
        let payload = decode_payload(frame.payload)?;
    }'
[ "$(echo "$control_fns" | outside_read_live | grep -cE "$payload_guard")" = 1 ] \
  || { echo "FAIL: the read_live filter or '$payload_guard' misses its control functions"; exit 1; }
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/wal/src/framed.rs \
    | grep -E "$frame_guard" \
  || outside_read_live crates/wal/src/framed.rs | grep -E "$payload_guard"; then
  echo "FAIL: crates/wal/src/framed.rs decodes a payload outside read_live: a crash's scan decodes again"; exit 1
fi
nontest_lines crates/wal/src

echo "== one arena per store: a committed entry owns no buffer of its own"
# The committed store used to be a BTreeMap<Vec<u8>, Vec<u8>>: every
# commit moved a key and a value buffer into it and allocated a share of
# a tree node, and every restart decoded each store-file entry into two
# new buffers, about two allocations per entry. KvStore now keeps keys
# and values back to back in one arena under an open-addressed index,
# and a restart copies the store file's entries into it from slices.
# That map type in store.rs's non-test lines is an owned key and value
# per entry coming back. As above, the pattern first meets its control
# line.
store_guard='BTreeMap<Vec<u8>, *Vec<u8>>'
echo '    map: BTreeMap<Vec<u8>, Vec<u8>>,' | grep -qE "$store_guard" \
  || { echo "FAIL: the guard '$store_guard' misses its control line"; exit 1; }
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/engine/src/store.rs \
    | grep -E "$store_guard"; then
  echo "FAIL: crates/engine/src/store.rs keeps an owned key and value per entry"; exit 1
fi
nontest_lines crates/engine/src

echo "== a forwarded write allocates nothing: decoded into recycled buffers, copied by the engine"
# A forwarded Apply's key and value used to be decoded into new
# buffers (Reader::bytes, a to_vec) that moved into the write set, and
# a commit moved them on into an owned (key, value) pair per entry for
# the store file's next record. The socket transport now decodes them
# into buffers the kernel gives back (Transport::recycle) once the
# storage engine has copied them into its own reused buffers, and a
# commit appends each write to one reused CheckpointDelta. Either
# pattern, in its file's non-test lines, is the old layout coming back;
# each first meets its control line.
recycle_guards=(
  crates/net/src/wire/frame.rs  '\.bytes\("(key|value)"\)'               '            key: r.bytes("key")?,'
  crates/engine/src/site.rs     'installed: Vec<\(Vec<u8>, *Vec<u8>\)>'  '    installed: Vec<(Vec<u8>, Vec<u8>)>,'
)
for ((i = 0; i < ${#recycle_guards[@]}; i += 3)); do
  where="${recycle_guards[i]}" pattern="${recycle_guards[i + 1]}" control="${recycle_guards[i + 2]}"
  echo "$control" | grep -qE "$pattern" \
    || { echo "FAIL: the guard '$pattern' misses its control line '$control'"; exit 1; }
  if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$where" | grep -E "$pattern"; then
    echo "FAIL: '$pattern' in $where: a write's bytes in a buffer of their own again"; exit 1
  fi
done
nontest_lines crates/net/src crates/engine/src

echo "== one owner, one table: the coordinator's protocol table is a plain map"
# The protocol table used to be 64 Mutex-guarded shards and an atomic
# length, built for readers on other threads that no host has; every
# host owns its coordinator. Each transaction's votes and awaited acks
# were a map and a set of their own; they are slots beside its
# participant list. The coordinator also kept a memo of every decision
# it made, which the kernel answered clients from, scanning every
# outstanding reply against it each turn; the kernel now answers a
# client when it publishes the transaction's Decide event. Each pattern
# below, in the non-test lines of its files, is one of those coming
# back; each first meets its control line.
table_guards=(
  crates/core/src                   '\bMutex\b'                 '    shards: Vec<Mutex<BTreeMap<TxnId, V>>>,'
  crates/core/src                   '\bAtomic[A-Z]'             '    len: AtomicUsize,'
  crates/core/src                   '\bShardedTable\b'          '    pub(crate) table: ShardedTable<TxnState>,'
  crates/core/src/coordinator/mod.rs       'BTreeMap<SiteId, Vote>'  '        votes: BTreeMap<SiteId, Vote>,'
  crates/core/src/coordinator/mod.rs       'BTreeSet<SiteId>'        '        pending: BTreeSet<SiteId>,'
  crates/core/src/coordinator/recovery.rs  'BTreeMap<SiteId, Vote>'  '        votes: BTreeMap<SiteId, Vote>,'
  crates/core/src/coordinator/recovery.rs  'BTreeSet<SiteId>'        '        let pending: BTreeSet<SiteId> = awaited.map(|p| p.site).collect();'
  crates/core/src/coordinator       '\bdecisions:'              '    pub(crate) decisions: BTreeMap<TxnId, Outcome>,'
  crates/core/src/coordinator       '\bfn decided\b'            '    pub fn decided(&self, txn: TxnId) -> Option<Outcome> {'
  crates/net/src/host.rs            'replies\.retain\('         '        self.ctx.replies.retain(|&txn, reply| {'
)
for ((i = 0; i < ${#table_guards[@]}; i += 3)); do
  where="${table_guards[i]}" pattern="${table_guards[i + 1]}" control="${table_guards[i + 2]}"
  echo "$control" | grep -qE "$pattern" \
    || { echo "FAIL: the guard '$pattern' misses its control line '$control'"; exit 1; }
  if find "$where" -name '*.rs' | sort \
    | xargs awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { print FILENAME ":" FNR ": " $0 }' \
    | grep -E "$pattern"; then
    echo "FAIL: '$pattern' in $where: a second owner, a per-transaction collection or a decision memo beside the protocol table"; exit 1
  fi
done
nontest_lines crates/core/src

echo "== a history event is bytes: the ACTA history is byte-coded"
# Every runtime keeps its complete history for the judge. Its events
# used to be 32-byte ActaEvent values in a doubling Vec, the largest
# per-transaction holder on the heap; they are now encoded into one
# byte buffer at about 3.5 bytes each and decoded by History::events.
# A Vec<ActaEvent> field in the history's non-test lines is the old
# layout coming back; the pattern first meets its control line.
history_guard=':[[:space:]]*Vec<ActaEvent>'
echo '    events: Vec<ActaEvent>,' | grep -qE "$history_guard" \
  || { echo "FAIL: the guard '$history_guard' misses its control line"; exit 1; }
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/acta/src/history.rs \
  | grep -E "$history_guard"; then
  echo "FAIL: the history stores ActaEvent values again"; exit 1
fi
nontest_lines crates/acta/src

echo "== one encoder: the logs and the runtime encode in place"
# encode_frame/encode_payload are allocating wrappers over the _into
# forms, kept for tests, fuzzers and probes. A call from the logs or
# from the runtime is the per-record allocation creeping back onto the
# commit path (non-test lines only: up to the first #[cfg(test)]).
if find crates/wal/src/framed.rs crates/wal/src/file.rs crates/wal/src/fault.rs crates/wal/src/mem.rs crates/net/src -name '*.rs' \
  | xargs awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
               !test && /encode_(frame|payload)\(/ { print FILENAME ":" FNR ": " $0; hit = 1 }
               END { exit !hit }'; then
  echo "FAIL: an allocating encoder wrapper is called on the hot path"; exit 1
fi
# The in-place encoder's bytes are the on-disk format: the workspace
# run above checks arbitrary payloads against the wrappers and a
# scripted FileLog against a committed golden image
# (crates/wal/tests/bytes_contract.rs).
# The same rule on the wire: encode_wire_frame is the allocating wrapper
# over encode_wire_frame_into, kept for the benchmark probe and tests; a
# connection encodes into its own out-buffer.
if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
        !test && /encode_wire_frame\(/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' crates/net/src/wire/node.rs crates/net/src/wire/conn.rs; then
  echo "FAIL: the socket transport calls the allocating frame encoder"; exit 1
fi
# The in-place encoder's bytes are the wire format: the workspace run
# above checks arbitrary messages against the wrapper, golden frames
# from before the encoder moved, and the streaming decoder under every
# cut of the byte stream (crates/net/tests/wire_bytes_contract.rs).

echo "== one instrument: an experiment is deterministic or it is the repo benchmark"
# An exp_* binary has one mode: nothing under crates/, src/ or examples/
# reads the environment (PROPTEST_CASES is read by the vendored proptest
# shim and by this script), so no switch can make a run mean two things.
if grep -rnE 'env::var(_os)?\(' crates src examples --include='*.rs'; then
  echo "FAIL: a binary, library or example reads the environment"; exit 1
fi
# Machine-timed snapshots are frozen evidence under results/frozen/; a
# wall-clock number comes from `perf run` / `perf compare` only.
if ls BENCH_*.json 2>/dev/null; then
  echo "FAIL: a BENCH_*.json is back at the root (frozen snapshots live in results/frozen/)"; exit 1
fi
# The threaded fsync coalescer and the second open-loop driver's ledger
# went with the campaigns that were their only callers.
if grep -rnE 'struct (SharedGroupLog|LifecycleLedger)\b' crates --include='*.rs'; then
  echo "FAIL: SharedGroupLog or LifecycleLedger reappeared under crates/"; exit 1
fi
nontest_lines crates/bench/src

echo "== one record per run: the harness keeps the typed event stream"
# The simulator used to record every run twice: acp_sim::Trace cloned
# each message into Sent/Delivered entries and the harness formatted
# every ACTA event into Context::note strings, beside the ProtocolEvent
# stream the figures, the cost count and the tests now read. Any of
# these names is that second record coming back. As above, each
# pattern first meets its control line.
record_guards=(
  '\bTraceKind\b'                  'TraceKind::Sent(m) => write!(f, "send     {m}"),'
  'struct Trace\b'                  'pub struct Trace {'
  'fn tag_schedule\b'               'pub fn tag_schedule(&self, site: SiteId) -> Vec<String> {'
  '\b(ctx\.note|Context::note)\b'  'ctx.note(tag, detail);'
)
for ((i = 0; i < ${#record_guards[@]}; i += 2)); do
  pattern="${record_guards[i]}" control="${record_guards[i + 1]}"
  echo "$control" | grep -qE "$pattern" \
    || { echo "FAIL: the guard '$pattern' misses its control line '$control'"; exit 1; }
  if grep -rnE "$pattern" crates src tests examples --include='*.rs'; then
    echo "FAIL: '$pattern': a second record of a simulated run beside its ProtocolEvent stream"; exit 1
  fi
done
# A timed number is a perf workload or frozen evidence: the criterion
# benches and the vendored shim behind their two environment switches
# are gone, and no manifest declares a bench target or names criterion.
bench_guards=(
  '^\[\[bench\]\]'  '[[bench]]'
  '\bcriterion\b'   'criterion.workspace = true'
)
for ((i = 0; i < ${#bench_guards[@]}; i += 2)); do
  pattern="${bench_guards[i]}" control="${bench_guards[i + 1]}"
  echo "$control" | grep -qE "$pattern" \
    || { echo "FAIL: the guard '$pattern' misses its control line '$control'"; exit 1; }
  if grep -nE "$pattern" Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml benchmarks/Cargo.toml; then
    echo "FAIL: '$pattern' in a manifest: a criterion bench beside the perf workloads"; exit 1
  fi
done
if [ -e vendor/criterion ]; then
  echo "FAIL: vendor/criterion is back"; exit 1
fi
nontest_lines crates/sim/src
nontest_lines crates/sim/src crates/core/src

echo "== benchmark package: offline build + perf suite --smoke"
# benchmarks/ is its own workspace and is not edited alongside the
# crates it drives, so an API break shows up only here; the smoke suite
# also runs every workload's per-epoch correctness gate (atomicity,
# committed values present, coordinator table drained) on the reactor
# and on a pair of socket nodes.
cargo build --release --offline --manifest-path benchmarks/Cargo.toml
# Exits non-zero if any workload fails an operation or a gate. The
# allocation counts repeat to ~1 %, so a regression of the commit
# path's allocation discipline is visible here, in the tier-1 log;
# socket_burst64's CPU per commit (noisier, a seconds-long smoke) is
# printed beside them as the wire's figure.
smoke="$(./benchmarks/target/release/perf suite --smoke)"
echo "$smoke" | grep -E ' allocs_per_txn |^socket_burst64 cpu_us_per_txn '
echo "$smoke" | tail -1 | cut -c1-160

# The WAL fuzz suite honours PROPTEST_CASES (its fixed-seed default is
# 64 cases per property). Export a bigger value before calling this
# script for a longer campaign, e.g. PROPTEST_CASES=4096
# scripts/verify.sh — the slice stays fast by default.
echo "== fuzz smoke: torn-write WAL suite (PROPTEST_CASES=${PROPTEST_CASES:-64})"
PROPTEST_CASES="${PROPTEST_CASES:-64}" cargo test -q --offline --release --test fuzz_wal

echo "== cargo doc --workspace --no-deps --offline (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

echo "== figure drift: regenerate results/figures/ and diff"
cargo run --release --offline -q -p acp-bench --bin exp_figures > /dev/null
git diff --exit-code -- results/figures/ \
  || { echo "FAIL: results/figures/ drifted from the rendering code —"; \
       echo "      commit the regenerated files"; exit 1; }

echo "== fault matrix: regenerate results/exp_faults.txt and diff"
# exp_faults exits non-zero if any cell FAILs; the diff then catches
# silent drift of the committed matrix (a regression in either
# direction). Fixed seed count keeps the output deterministic.
cargo run --release --offline -q -p acp-bench --bin exp_faults > /dev/null
git diff --exit-code -- results/exp_faults.txt \
  || { echo "FAIL: results/exp_faults.txt drifted from the fault campaign —"; \
       echo "      investigate, then commit the regenerated matrix"; exit 1; }

echo "== cost table: regenerate results/exp_costs.txt and diff"
# E8. exp_costs exits non-zero if any cell's measured costs (observed
# in the trace and the history) differ from the analytic model; the
# diff catches silent drift of the committed table.
cargo run --release --offline -q -p acp-bench --bin exp_costs > results/exp_costs.txt
git diff --exit-code -- results/exp_costs.txt \
  || { echo "FAIL: results/exp_costs.txt drifted from the cost model —"; \
       echo "      investigate, then commit the regenerated table"; exit 1; }

echo "== group commit: sim accounting must match the analytic model"
# The binary exits non-zero on any model mismatch and regenerates the
# committed table; the diff catches silent drift. Trace byte-stability
# with batching enabled is pinned by tests/group_commit.rs in the suite
# above.
cargo run --release --offline -q -p acp-bench --bin exp_group_commit > /dev/null
git diff --exit-code -- results/exp_group_commit.txt \
  || { echo "FAIL: results/exp_group_commit.txt drifted from the batched cost model —"; \
       echo "      investigate, then commit the regenerated table"; exit 1; }

echo "== trace replay: ACTA predicates over the committed corpus"
# Replays results/figures/traces.jsonl against event-level safe-state
# predicates (with mutation controls proving they can fail) and
# regenerates Theorem 1 counterexample traces, which the ACTA
# atomicity + safe-state checkers must flag. Exits non-zero itself.
cargo run --release --offline -q -p acp-bench --bin replay | tail -6

echo "== socket campaign: multi-process cluster over real TCP (kill -9 + recovery)"
# Coordinator and two participant processes over loopback sockets: a
# short mixed load with a kill -9 of a participant and of the
# coordinator, both restarted from their WALs. The parent merges the
# per-process trace files and replays the cross-process ACTA
# predicates (with mutation controls); the binary exits non-zero on
# any violation or missing recovery evidence. Byte-identity of the
# socket trace against the in-process reactor is pinned by
# tests/socket_wire.rs in the suite above.
cargo run --release --offline -q -p acp-bench --bin exp_socket | tail -3

echo "== paxos campaign: replicated coordinator (cost grid + leader kill -9 matrix)"
# Part A checks the sim's measured counters against the closed-form
# Paxos Commit cost model on a 9-cell n x f grid. Part B runs the
# coordinator-kill matrix over real OS processes: with f=0 the cluster
# provably blocks in-doubt after the leader dies; with f=1 (3
# acceptors) an acceptor's watchdog completes the commit with the
# leader still dead. The binary exits non-zero on any mismatch,
# blocked/unblocked inversion, ACTA violation or missing recovery
# evidence.
cargo run --release --offline -q -p acp-bench --bin exp_paxos | tail -3

echo "== E7: regenerate results/exp_theorem3.txt and results/metrics_e7.json and diff"
# The 100-seed Theorem 3 campaigns are seeded and merged in seed order,
# so both snapshots regenerate exactly (they went stale once, unseen,
# for want of this step). The header's `(N threads)` names the host's
# parallelism and is the one difference allowed; exp_theorem3 writes
# results/metrics_e7.json itself.
out="$(cargo run --release --offline -q -p acp-bench --bin exp_theorem3 100)"
golden="$(cat results/exp_theorem3.txt)"
threads='1s/ \([0-9]+ threads\)$//'
diff <(echo "$out" | sed -E "$threads") <(echo "$golden" | sed -E "$threads") \
  || { echo "FAIL: exp_theorem3 100 drifted from results/exp_theorem3.txt"; exit 1; }
git diff --exit-code -- results/metrics_e7.json \
  || { echo "FAIL: results/metrics_e7.json drifted from the E7 campaigns —"; \
       echo "      investigate, then commit the regenerated file"; exit 1; }

echo "== golden: exp_theorem1 (U2PC must violate, PrAny must not)"
out="$(cargo run --release --offline -q -p acp-bench --bin exp_theorem1)"
echo "$out" | head -12
# Every count and the first counterexample, against the committed
# table. The `(checker threads: N; ...)` line names the host's
# parallelism and is the one line allowed to differ ($(...) trims the
# trailing blank line on both sides).
golden="$(cat results/exp_theorem1.txt)"
diff <(echo "$out" | grep -v '^(checker threads: ') \
     <(echo "$golden" | grep -v '^(checker threads: ') \
  || { echo "FAIL: exp_theorem1 drifted from results/exp_theorem1.txt"; exit 1; }

echo "== verify OK"
