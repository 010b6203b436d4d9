//! A trace sink that only counts: the traced pass installs it through
//! `Cluster::install_tracer` to get per-commit event counts for each
//! layer without buffering the event stream.

use hades::telemetry::event::{EventKind, TraceEvent};
use hades::telemetry::sink::TraceSink;

/// Whole-run event counts (warmup included), by the layer that emits them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Every event of any kind.
    pub events: u64,
    /// Transaction attempts started (first tries and retries).
    pub attempts: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Fabric verbs sent.
    pub verbs: u64,
    /// Hardware Bloom-filter membership probes.
    pub probes: u64,
    /// Accesses or lock attempts stalled on a held Locking Buffer.
    pub lock_stalls: u64,
}

impl TraceSink for Counts {
    fn record(&mut self, ev: &TraceEvent) {
        self.events += 1;
        let counter = match ev.kind {
            EventKind::TxnBegin { .. } => &mut self.attempts,
            EventKind::TxnCommit => &mut self.commits,
            EventKind::VerbSend { .. } => &mut self.verbs,
            EventKind::BloomProbe { .. } => &mut self.probes,
            EventKind::LockStall { .. } => &mut self.lock_stalls,
            _ => return,
        };
        *counter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades::sim::time::Cycles;
    use hades::telemetry::event::{Verb, NO_SLOT};
    use hades::telemetry::sink::Tracer;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn counts_by_kind_through_a_shared_tracer() {
        let sink = Rc::new(RefCell::new(Counts::default()));
        let tracer = Tracer::shared(sink.clone());
        let at = Cycles::new(1);
        tracer.emit(at, 0, 0, EventKind::TxnBegin { attempt: 1 });
        tracer.emit(at, 0, 0, EventKind::TxnBegin { attempt: 2 });
        tracer.emit(at, 0, 0, EventKind::TxnCommit);
        let send = EventKind::VerbSend {
            verb: Verb::Intend,
            dst: 1,
            bytes: 64,
        };
        tracer.emit(at, 0, NO_SLOT, send);
        tracer.emit(at, 0, NO_SLOT, EventKind::BloomFalsePositive);
        let c = *sink.borrow();
        assert_eq!((c.events, c.attempts, c.commits, c.verbs), (5, 2, 1, 1));
        assert_eq!((c.probes, c.lock_stalls), (0, 0));
    }
}
