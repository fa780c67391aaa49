//! Travel booking across autonomous reservation systems — the classic
//! electronic-commerce workload the paper's introduction motivates
//! ("advanced future database applications such as electronic commerce,
//! multi-organizational workflows and web-based transactions").
//!
//! One reactor event loop hosts the sites in real time, with
//! file-backed write-ahead logs and the storage engine holding the
//! actual reservations:
//!
//! * the airline runs **PrA** (site 1),
//! * the hotel chain is a **legacy system with no commit protocol at
//!   all** — a gateway simulates its prepared state (exclusive right
//!   reservation + redo log) and speaks **PrC** on the wire (site 2),
//! * the car-rental agency still runs plain **PrN** (site 3).
//!
//! A PrAny travel-agent coordinator books a trip atomically across all
//! three, survives the hotel's crash mid-booking, and refuses to
//! half-book a trip when the car rental declines.
//!
//! ```sh
//! cargo run --example travel_booking
//! ```

use presumed_any::prelude::*;
use std::time::Duration;

fn main() {
    let mut config = ReactorConfig::new(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &[ProtocolKind::PrA, ProtocolKind::PrC, ProtocolKind::PrN],
    );
    // The hotel (index 1) is a non-externalized legacy system behind a
    // gateway — the coordinator cannot tell the difference.
    config.cluster.gateways = vec![1];
    let mut cluster = ReactorCluster::spawn(&config);
    let sites = cluster.participants();
    let (airline, hotel, car) = (sites[0], sites[1], sites[2]);

    // ---- Trip 1: a clean booking -------------------------------------
    let trip = cluster.next_txn();
    cluster.apply(airline, trip, b"flight/AA123/seat", b"17C");
    cluster.apply(hotel, trip, b"hotel/hilton/room", b"1204");
    cluster.apply(car, trip, b"car/compact", b"reserved");
    let outcome = cluster.commit(trip, &sites).expect("decision");
    println!("trip 1 ({trip}): {outcome}");

    // ---- Trip 2: the hotel's site crashes during commit ---------------
    let trip2 = cluster.next_txn();
    cluster.apply(airline, trip2, b"flight/AA124/seat", b"2A");
    cluster.apply(hotel, trip2, b"hotel/hilton/room2", b"0807");
    cluster.apply(car, trip2, b"car/suv", b"reserved");
    let _pending = cluster.commit_async(trip2, &sites);
    cluster.crash(hotel, Duration::from_millis(250));
    println!("trip 2 ({trip2}): hotel site crashed mid-commit; waiting for recovery…");
    cluster.settle(Duration::from_millis(2_000));

    // ---- Trip 3: the car rental declines ------------------------------
    let trip3 = cluster.next_txn();
    cluster.apply(airline, trip3, b"flight/AA125/seat", b"9F");
    cluster.apply(hotel, trip3, b"hotel/marriott/room", b"3111");
    cluster.apply(car, trip3, b"car/convertible", b"reserved");
    cluster.set_intent(car, trip3, Vote::No); // no convertibles left
    let outcome3 = cluster.commit(trip3, &sites).expect("decision");
    println!("trip 3 ({trip3}): {outcome3} (car rental declined)");

    cluster.settle(Duration::from_millis(500));
    let report = cluster.shutdown().cluster;

    // What happened to trip 2? Scan the history. With the hotel down
    // through the voting phase, the coordinator's timeout aborts it —
    // atomically; had the crash landed after the votes, it commits and
    // the hotel learns the outcome by recovery inquiry. Either way, no
    // site may disagree.
    let trip2_decision = report.history.events().iter().find_map(|e| match e {
        presumed_any::prelude::ActaEvent::Decide { txn, outcome, .. } if *txn == trip2 => {
            Some(*outcome)
        }
        _ => None,
    });
    println!("trip 2 resolved as: {trip2_decision:?}");

    println!("\n--- final reservations ---");
    for s in &report.sites {
        if s.committed.is_empty() {
            continue;
        }
        println!("{}:", s.site);
        for (k, v) in &s.committed {
            println!(
                "  {} = {}",
                String::from_utf8_lossy(k),
                String::from_utf8_lossy(v)
            );
        }
    }

    let violations = check_atomicity(&report.history);
    println!("\natomicity violations: {}", violations.len());
    println!(
        "coordinator protocol table at shutdown: {} entries",
        report.coordinator_table_size
    );
    assert!(violations.is_empty(), "{violations:?}");

    // Trip 3 must have left no partial bookings anywhere.
    for s in &report.sites {
        assert!(
            !s.committed
                .keys()
                .any(|k| k.starts_with(b"car/convertible")),
            "half-booked trip at {}",
            s.site
        );
        assert!(
            !s.committed.keys().any(|k| k.starts_with(b"hotel/marriott")),
            "half-booked trip at {}",
            s.site
        );
    }
    println!("no partial bookings — atomicity held across incompatible protocols");
}
