//! JSONL (one JSON object per line) exporters.
//!
//! Two things are exported this way: raw trace streams (one event per
//! line, suitable for `grep`/`jq` pipelines and the byte-identical
//! determinism guarantee) and per-run metric records (one run per line,
//! the `BENCH_*.json`-style trajectory format).

use crate::event::{TraceEvent, NO_SLOT};
use crate::json::Json;

/// Renders one trace event as a single-line JSON object: time, node,
/// slot (omitted for node-scoped events), then the kind's
/// [description](crate::event::EventKind::describe).
pub fn event_json(ev: &TraceEvent) -> Json {
    let d = ev.kind.describe();
    let mut b = Json::obj()
        .field("cy", ev.at.get())
        .field("node", ev.node as u64);
    if ev.slot != NO_SLOT {
        b = b.field("slot", ev.slot as u64);
    }
    b = b.field("cat", d.cat).field("ev", d.name);
    for &(key, value) in d.fields() {
        b = b.field(key, value);
    }
    b.build()
}

/// Renders a whole event stream as JSONL (trailing newline included).
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_json(ev).render());
        out.push('\n');
    }
    out
}
