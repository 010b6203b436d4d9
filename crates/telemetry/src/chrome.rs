//! Chrome `trace_event` exporter (Perfetto-loadable).
//!
//! Maps the simulator's event stream onto the [Trace Event Format]:
//! nodes become processes (`pid`), execution slots become threads
//! (`tid`), lifecycle phases become duration (`B`/`E`) events, and
//! everything else becomes instant (`i`) events. Simulated [`Cycles`]
//! map to trace timestamps in microseconds (0.5 ns per cycle at the
//! modeled 2 GHz), so a whole distributed commit is visually
//! inspectable on a real time axis in `ui.perfetto.dev`.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! Categories emitted: `txn`, `phase`, `net`, `bloom`, `lock`, `fault`,
//! `recovery`, `overload`, `membership`, `migration`.
//!
//! Traces containing phase events additionally carry a synthetic
//! "cluster phases" process (pid `PHASE_PID`) with one counter track
//! per phase (`open.exec`, `open.lock`, …) plotting how many slots
//! cluster-wide have that phase open over time — the Perfetto view of
//! the phase profiler's attribution (DESIGN.md §12).

use crate::event::{EventKind, FieldValue, Phase, TraceEvent, NO_SLOT};
use crate::json::Json;
use hades_sim::time::Cycles;
use std::collections::BTreeMap;

/// Thread id used for node-scoped events (NIC / fabric / directory),
/// placed after any plausible slot id.
const NODE_TID: u64 = 999;

/// Synthetic process id for the cluster-wide phase counter tracks,
/// placed after any plausible node id.
const PHASE_PID: u64 = 1000;

fn ts(at: Cycles) -> Json {
    // Microseconds with sub-µs fraction preserved (0.5 ns resolution).
    Json::Num(at.as_micros())
}

fn base(ev: &TraceEvent, ph: &str, name: &str) -> Vec<(String, Json)> {
    let tid = if ev.slot == NO_SLOT {
        NODE_TID
    } else {
        ev.slot as u64
    };
    vec![
        ("name".into(), Json::str(name)),
        ("cat".into(), Json::str(ev.kind.category())),
        ("ph".into(), Json::str(ph)),
        ("ts".into(), ts(ev.at)),
        ("pid".into(), Json::UInt(ev.node as u64)),
        ("tid".into(), Json::UInt(tid)),
    ]
}

fn instant(ev: &TraceEvent, name: &str, args: Vec<(String, Json)>) -> Json {
    let mut m = base(ev, "i", name);
    m.push(("s".into(), Json::str("t"))); // thread-scoped instant
    if !args.is_empty() {
        m.push(("args".into(), Json::Obj(args)));
    }
    Json::Obj(m)
}

/// The instant event of a non-phase event, rendered from its
/// [description](EventKind::describe). Five kinds embed a label in the
/// instant name: the verb of a send, a receive or a fence, the fault and
/// the recovery action. All but the fence drop that label from `args`.
fn described_instant(ev: &TraceEvent) -> Json {
    let d = ev.kind.describe();
    let fields = d.fields();
    let (prefix, keep_label) = match ev.kind {
        EventKind::VerbSend { .. } => ("send", false),
        EventKind::VerbRecv { .. } => ("recv", false),
        EventKind::FaultInjected { .. } => ("fault", false),
        EventKind::Recovery { .. } => ("recovery", false),
        EventKind::VerbFenced { .. } => ("fenced", true),
        _ => return instant(ev, d.name, args(fields)),
    };
    let FieldValue::Str(label) = fields[0].1 else {
        unreachable!("a labelled kind leads with its label");
    };
    let kept = if keep_label { fields } else { &fields[1..] };
    instant(ev, &format!("{prefix}:{label}"), args(kept))
}

fn args(fields: &[(&'static str, FieldValue)]) -> Vec<(String, Json)> {
    fields.iter().map(|&(k, v)| (k.into(), v.into())).collect()
}

fn duration(ev: &TraceEvent, ph: &str, name: &str) -> Json {
    Json::Obj(base(ev, ph, name))
}

/// A `C` (counter) sample on the cluster-wide phase track.
fn phase_counter(at: Cycles, phase: Phase, open: u64) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(format!("open.{}", phase.label()))),
        ("cat".into(), Json::str("phase")),
        ("ph".into(), Json::str("C")),
        ("ts".into(), ts(at)),
        ("pid".into(), Json::UInt(PHASE_PID)),
        (
            "args".into(),
            Json::Obj(vec![("open".into(), Json::UInt(open))]),
        ),
    ])
}

/// Emits the `E` event and counter sample for one popped phase.
fn pop_phase(out: &mut Vec<Json>, ev: &TraceEvent, p: Phase, counts: &mut [u64; 4]) {
    out.push(duration(ev, "E", p.label()));
    let c = &mut counts[p as usize];
    *c = c.saturating_sub(1);
    out.push(phase_counter(ev.at, p, *c));
}

fn metadata(name: &str, pid: u64, tid: Option<u64>, value: &str) -> Json {
    let mut m = vec![
        ("name".into(), Json::str(name)),
        ("ph".into(), Json::str("M")),
        ("pid".into(), Json::UInt(pid)),
    ];
    if let Some(tid) = tid {
        m.push(("tid".into(), Json::UInt(tid)));
    }
    m.push((
        "args".into(),
        Json::Obj(vec![("name".into(), Json::str(value))]),
    ));
    Json::Obj(m)
}

/// Renders a recorded event stream as a complete Chrome trace JSON
/// document.
///
/// The exporter is defensive about phase nesting: if a transaction
/// aborts (or a new one begins) while phases are still open on its
/// slot, the open phases are closed at that point so the `B`/`E` pairs
/// always balance and Perfetto renders clean nested slices.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out: Vec<Json> = Vec::new();
    // Stack of open phases per (node, slot).
    let mut open: BTreeMap<(u16, u32), Vec<Phase>> = BTreeMap::new();
    // (pid, tid) pairs seen, for thread-name metadata.
    let mut seen: BTreeMap<(u16, u64), ()> = BTreeMap::new();
    // Cluster-wide open-phase counts feeding the counter tracks.
    let mut counts = [0u64; 4];

    for ev in events {
        let tid = if ev.slot == NO_SLOT {
            NODE_TID
        } else {
            ev.slot as u64
        };
        seen.entry((ev.node, tid)).or_insert(());
        let key = (ev.node, ev.slot);
        match ev.kind {
            EventKind::PhaseBegin(p) => {
                open.entry(key).or_default().push(p);
                out.push(duration(ev, "B", p.label()));
                counts[p as usize] += 1;
                out.push(phase_counter(ev.at, p, counts[p as usize]));
                continue;
            }
            EventKind::PhaseEnd(p) => {
                // Close up to and including the matching open phase.
                if let Some(stack) = open.get_mut(&key) {
                    if let Some(pos) = stack.iter().rposition(|&q| q == p) {
                        while stack.len() > pos {
                            let q = stack.pop().expect("non-empty stack");
                            pop_phase(&mut out, ev, q, &mut counts);
                        }
                    }
                }
                continue;
            }
            EventKind::TxnBegin { .. } | EventKind::TxnCommit | EventKind::TxnAbort { .. } => {
                // A transaction boundary closes whatever its slot left open.
                if let Some(stack) = open.get_mut(&key) {
                    while let Some(p) = stack.pop() {
                        pop_phase(&mut out, ev, p, &mut counts);
                    }
                }
            }
            _ => {}
        }
        out.push(described_instant(ev));
    }

    // Close anything still open at the final timestamp.
    if let Some(last) = events.last() {
        let keys: Vec<(u16, u32)> = open.keys().copied().collect();
        for key in keys {
            let stack = open.get_mut(&key).expect("key just listed");
            while let Some(p) = stack.pop() {
                let ev = TraceEvent {
                    at: last.at,
                    node: key.0,
                    slot: key.1,
                    kind: EventKind::PhaseEnd(p),
                };
                pop_phase(&mut out, &ev, p, &mut counts);
            }
        }
    }

    // Process/thread naming metadata so Perfetto shows meaningful labels.
    let mut meta: Vec<Json> = Vec::new();
    let mut named_pids: BTreeMap<u16, ()> = BTreeMap::new();
    for &(pid, tid) in seen.keys() {
        if named_pids.insert(pid, ()).is_none() {
            meta.push(metadata(
                "process_name",
                pid as u64,
                None,
                &format!("node{pid}"),
            ));
        }
        let tname = if tid == NODE_TID {
            "nic/directory".to_string()
        } else {
            format!("slot{tid}")
        };
        meta.push(metadata("thread_name", pid as u64, Some(tid), &tname));
    }
    if events
        .iter()
        .any(|e| matches!(e.kind, EventKind::PhaseBegin(_)))
    {
        meta.push(metadata("process_name", PHASE_PID, None, "cluster phases"));
    }
    meta.extend(out);

    Json::obj()
        .field("traceEvents", Json::Arr(meta))
        .field("displayTimeUnit", "ns")
        .build()
        .render()
}

/// Thread-id base for the per-transaction tail tracks emitted by
/// [`span_chrome_trace`]; each ranked transaction gets two tids (phase
/// slices and verb rounds), placed after every other track family.
const SPAN_TID_BASE: u64 = 3000;

/// Renders a span log's top-`k` slowest committed transactions as real
/// per-transaction Chrome tracks: one slice track of phase segments
/// (`X` complete events), one of verb rounds, abort instants, and a
/// flow arrow from each abort to the retry it caused. All tracks live
/// on a synthetic "tail txns" process so they sit next to — not inside —
/// the per-slot event tracks of [`chrome_trace`].
pub fn span_chrome_trace(log: &crate::span::SpanLog, k: usize) -> String {
    /// Synthetic process id for the tail tracks.
    const SPAN_PID: u64 = 1001;
    let x = |name: &str, cat: &str, start: Cycles, end: Cycles, tid: u64| {
        Json::Obj(vec![
            ("name".into(), Json::str(name)),
            ("cat".into(), Json::str(cat)),
            ("ph".into(), Json::str("X")),
            ("ts".into(), ts(start)),
            (
                "dur".into(),
                Json::Num(end.saturating_sub(start).as_micros()),
            ),
            ("pid".into(), Json::UInt(SPAN_PID)),
            ("tid".into(), Json::UInt(tid)),
        ])
    };
    let mut out: Vec<Json> = Vec::new();
    out.push(metadata("process_name", SPAN_PID, None, "tail txns"));
    let mut flow_id = 0u64;
    for (rank, txn) in log.top_slowest(k).iter().enumerate() {
        let seg_tid = SPAN_TID_BASE + 2 * rank as u64;
        let round_tid = seg_tid + 1;
        out.push(metadata(
            "thread_name",
            SPAN_PID,
            Some(seg_tid),
            &format!("tail#{rank} n{} s{} phases", txn.node, txn.slot),
        ));
        out.push(metadata(
            "thread_name",
            SPAN_PID,
            Some(round_tid),
            &format!("tail#{rank} n{} s{} rounds", txn.node, txn.slot),
        ));
        let mut segs: Vec<Json> = txn
            .segments
            .iter()
            .map(|s| x(s.phase.label(), "span", s.start, s.end, seg_tid))
            .collect();
        for a in &txn.aborts {
            segs.push(Json::Obj(vec![
                ("name".into(), Json::str(format!("abort:{}", a.reason))),
                ("cat".into(), Json::str("span")),
                ("ph".into(), Json::str("i")),
                ("ts".into(), ts(a.at)),
                ("pid".into(), Json::UInt(SPAN_PID)),
                ("tid".into(), Json::UInt(seg_tid)),
                ("s".into(), Json::str("t")),
            ]));
            // Flow arrow from the abort to the retry: find the first
            // non-backoff segment starting at or after the abort.
            if let Some(retry) = txn
                .segments
                .iter()
                .find(|s| s.start >= a.at && s.phase != crate::profile::ProfPhase::Backoff)
            {
                let flow = |ph: &str, at: Cycles| {
                    Json::Obj(vec![
                        ("name".into(), Json::str("retry")),
                        ("cat".into(), Json::str("span")),
                        ("ph".into(), Json::str(ph)),
                        ("id".into(), Json::UInt(flow_id)),
                        ("ts".into(), ts(at)),
                        ("pid".into(), Json::UInt(SPAN_PID)),
                        ("tid".into(), Json::UInt(seg_tid)),
                    ])
                };
                segs.push(flow("s", a.at));
                segs.push(flow("f", retry.start));
                flow_id += 1;
            }
        }
        // Keep every track's timestamps monotonic.
        segs.sort_by(|a, b| {
            let t = |j: &Json| j.get("ts").and_then(|v| v.as_f64()).unwrap_or(0.0);
            t(a).partial_cmp(&t(b)).expect("finite timestamps")
        });
        out.extend(segs);
        let mut rounds: Vec<Json> = txn
            .rounds
            .iter()
            .map(|r| {
                x(
                    &format!("{}x{}", r.verb.label(), r.peers),
                    "round",
                    r.start,
                    r.end,
                    round_tid,
                )
            })
            .collect();
        rounds.sort_by(|a, b| {
            let t = |j: &Json| j.get("ts").and_then(|v| v.as_f64()).unwrap_or(0.0);
            t(a).partial_cmp(&t(b)).expect("finite timestamps")
        });
        out.extend(rounds);
    }
    Json::obj()
        .field("traceEvents", Json::Arr(out))
        .field("displayTimeUnit", "ns")
        .build()
        .render()
}
