//! The process interface sites implement, and the context through which
//! they act on the world.

use crate::time::SimTime;
use acp_types::{Message, Payload, SiteId};

/// Collects the outputs of one event-handler invocation: messages to
/// send and timers to set. The world drains it after the handler
/// returns.
#[derive(Debug)]
pub struct Context {
    /// Current virtual time.
    pub now: SimTime,
    /// The site this context belongs to.
    pub self_id: SiteId,
    pub(crate) outbox: Vec<Message>,
    pub(crate) timers: Vec<(SimTime, u64)>,
}

impl Context {
    pub(crate) fn new(now: SimTime, self_id: SiteId) -> Self {
        Context {
            now,
            self_id,
            outbox: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Send a message to another site.
    pub fn send(&mut self, to: SiteId, payload: Payload) {
        self.outbox.push(Message::new(self.self_id, to, payload));
    }

    /// Set a volatile timer that fires `delay` from now with the given
    /// token — unless this site crashes first.
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.timers.push((delay, token));
    }
}

/// A fail-stop process occupying one site of the simulated world.
///
/// Handlers are invoked only while the site is up. Between a
/// [`Process::on_crash`] and the matching [`Process::on_recover`] the
/// site receives nothing; messages addressed to it are lost and its
/// timers are invalidated (they were volatile state).
pub trait Process {
    /// Called once when the world starts, to kick off initial work.
    fn on_start(&mut self, _ctx: &mut Context) {}

    /// A message arrived.
    fn on_message(&mut self, msg: &Message, ctx: &mut Context);

    /// A timer set via [`Context::set_timer`] fired.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Context) {}

    /// The site fail-stops. Implementations must discard exactly their
    /// volatile state here (protocol tables, buffered log records) and
    /// keep exactly their stable state (the forced log).
    fn on_crash(&mut self) {}

    /// The site restarts; run the recovery procedure (log analysis,
    /// re-sent decisions, inquiries).
    fn on_recover(&mut self, _ctx: &mut Context) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_types::TxnId;

    #[test]
    fn context_collects_outputs() {
        let mut ctx = Context::new(SimTime(10), SiteId::new(1));
        ctx.send(SiteId::new(2), Payload::Ack { txn: TxnId::new(1) });
        ctx.set_timer(SimTime(100), 7);
        assert_eq!(ctx.outbox.len(), 1);
        assert_eq!(ctx.outbox[0].from, SiteId::new(1));
        assert_eq!(ctx.timers, vec![(SimTime(100), 7)]);
    }
}
