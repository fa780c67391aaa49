//! A forwarded `Apply` costs the receiving socket node no allocation.
//!
//! A peer writes `Apply` frames to a node that hosts the participants.
//! The node decodes each frame's key and value into buffers its
//! transport keeps, the storage engine copies them into buffers the
//! transaction's context keeps, and the kernel gives the frame's
//! buffers back to the transport. So after warm-up a frame is decoded
//! and dispatched without an allocation on the node thread. The count
//! is taken with this binary's own allocator, over every thread but the
//! test's: the one test here is the only one in the binary, so nothing
//! else runs beside the node.

use acp_net::wire::{encode_wire_frame, WireMsg};
use acp_net::{AddressBook, ClusterConfig, NetDelays, NodeConfig, SocketNode};
use acp_types::{CoordinatorKind, ProtocolKind, SelectionPolicy, SiteId, TxnId};
use acp_wal::tempdir::TempDir;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Allocations (and reallocations) by every thread but the test's.
static NODE_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it inside
    // the allocator neither allocates nor sees a destroyed value.
    /// Is this the test's own thread?
    static TEST_THREAD: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn count() {
    if !TEST_THREAD.try_with(Cell::get).unwrap_or(false) {
        NODE_ALLOCS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards the caller's layout and pointer to
// `System` unchanged and returns its result unchanged; `count` touches
// an atomic and a destructor-less thread-local, so it neither allocates
// nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const FRAMES: u64 = 1_000;

/// Frames `from..from + FRAMES`: `Apply`s of one transaction, over the
/// three participants and eight keys, so that after the first round
/// each is a rewrite of a key the transaction holds.
fn applies(from: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    for seq in from..from + FRAMES {
        let apply = WireMsg::Apply {
            to: SiteId::new(1 + (seq % 3) as u32),
            txn: TxnId::new(1),
            key: format!("account/{:016x}", seq % 8).into_bytes(),
            value: b"balance=100".to_vec(),
        };
        bytes.extend(encode_wire_frame(seq, &apply));
    }
    bytes
}

/// Wait until the node has decoded `frames` frames, then give its loop
/// time to dispatch the last of them.
fn await_frames(node: &SocketNode, frames: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while node.wire_metrics().frames_recv < frames {
        assert!(Instant::now() < deadline, "frames never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(100));
}

#[test]
fn a_thousand_forwarded_applies_cost_the_node_thread_no_allocation() {
    TEST_THREAD.with(|d| d.set(true));
    let dir = TempDir::new("forwarded-apply").expect("tempdir");
    let protocols = [ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC];
    let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    let mut cluster = ClusterConfig::new(kind, &protocols);
    let minute = Duration::from_secs(60);
    cluster.delays = NetDelays {
        vote_timeout: minute,
        ack_resend: minute,
        inquiry_retry: minute,
        apply_retry: minute,
        paxos_completion: minute,
    };
    let parts = vec![SiteId::new(1), SiteId::new(2), SiteId::new(3)];
    let peers = AddressBook::Static(BTreeMap::new());
    let node = SocketNode::spawn(NodeConfig::new(cluster, parts, peers, dir.path())).expect("node");
    let mut peer = TcpStream::connect(node.local_addr()).expect("connect");
    // The first round's first write of each key finds no spare buffer
    // in its new transaction context, which keeps the decoded one; the
    // second refills the transport's spare list with new ones.
    let warm_up = [applies(0), applies(FRAMES)];
    let measured = applies(2 * FRAMES);

    for (round, frames) in (1..).zip(&warm_up) {
        peer.write_all(frames).expect("write");
        await_frames(&node, round * FRAMES);
    }
    let before = NODE_ALLOCS.load(Relaxed);
    peer.write_all(&measured).expect("write");
    await_frames(&node, 3 * FRAMES);
    let allocs = NODE_ALLOCS.load(Relaxed) - before;

    let report = node.shutdown();
    assert_eq!(report.wire.decode_errors, 0);
    assert_eq!(
        allocs, 0,
        "{allocs} node-thread allocations for {FRAMES} forwarded Apply frames"
    );
}
