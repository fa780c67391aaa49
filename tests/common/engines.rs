//! The engines alone, driven by hand: a PrAny coordinator at site 0 and
//! PrN, PrA and PrC participants at sites 1–3, all on `MemLog`, their
//! messages delivered in FIFO order through the `_into` entry points and
//! one reused action buffer. No timer fires.

use presumed_any::prelude::*;
use presumed_any::types::Payload;
use std::collections::VecDeque;

/// The coordinator's kind.
pub const KIND: CoordinatorKind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
/// The participants' protocols, at sites 1, 2 and 3.
pub const PROTOCOLS: [ProtocolKind; 3] = [ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC];

/// One coordinator and its participants, and the buffers that carry
/// their messages.
pub struct Engines {
    pub coordinator: Coordinator<MemLog>,
    pub participants: Vec<Participant<MemLog>>,
    sites: Vec<SiteId>,
    actions: Vec<Action>,
    queue: VecDeque<(SiteId, SiteId, Payload)>,
    /// The decision the coordinator's `Decide` event carried.
    decided: Option<Outcome>,
}

impl Engines {
    /// The engines as the kernel hosts them as far as collection goes:
    /// the coordinator does not collect on its own (`auto_gc` off).
    pub fn prany() -> Self {
        let sites: Vec<SiteId> = (1..=3).map(SiteId::new).collect();
        let mut coordinator = Coordinator::new(SiteId::new(0), KIND, MemLog::new());
        for (site, proto) in sites.iter().zip(PROTOCOLS) {
            coordinator.register_site(*site, proto);
        }
        coordinator.auto_gc = false;
        let participants = sites
            .iter()
            .zip(PROTOCOLS)
            .map(|(site, proto)| Participant::new(*site, proto, MemLog::new()))
            .collect();
        Engines {
            coordinator,
            participants,
            sites,
            actions: Vec::new(),
            queue: VecDeque::new(),
            decided: None,
        }
    }

    /// Run `txn` over all three participants until no message is left,
    /// and check that it committed.
    pub fn commit(&mut self, txn: TxnId) {
        self.coordinator
            .begin_commit_into(txn, &self.sites, &mut self.actions);
        self.absorb(SiteId::new(0));
        while let Some((from, to, payload)) = self.queue.pop_front() {
            match to.raw() {
                0 => self
                    .coordinator
                    .on_message_into(from, &payload, &mut self.actions),
                p => self.participants[p as usize - 1].on_message_into(
                    from,
                    &payload,
                    &mut self.actions,
                ),
            }
            self.absorb(to);
        }
        assert_eq!(self.decided.take(), Some(Outcome::Commit));
    }

    /// Queue the sends among `from`'s actions and note a decision; drop
    /// the rest.
    fn absorb(&mut self, from: SiteId) {
        for action in self.actions.drain(..) {
            match action {
                Action::Send { to, payload } => self.queue.push_back((from, to, payload)),
                Action::Acta(ActaEvent::Decide { outcome, .. }) => self.decided = Some(outcome),
                _ => {}
            }
        }
    }
}
