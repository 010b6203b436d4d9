//! The HADES SmartNIC: remote-transaction Bloom-filter banks (Module 4a of
//! Fig 5) and per-local-transaction remote-write tables (Module 4b).
//!
//! Every node's NIC holds, for each in-progress *remote* transaction that
//! has accessed data homed at this node, a pair of Bloom filters encoding
//! the local lines that transaction read and wrote. Commit-time conflict
//! checks probe these filters with exact line lists. Because the filters
//! are real bit vectors, probe hits can be false positives; the NIC also
//! keeps exact shadow sets (a simulation-only device) so the reproduction
//! can *classify* each detected conflict as real or false — the
//! Section VIII-C false-positive-conflict measurement.

use hades_bloom::{BloomFilter, LineHash};
use hades_sim::config::BloomParams;
use hades_sim::ids::{NodeId, SlotId};
use hades_sim::time::Cycles;
use hades_telemetry::event::{EventKind, FilterSite, NO_SLOT};
use hades_telemetry::sink::Tracer;
use std::collections::{HashMap, HashSet};

/// Identity of a transaction context as seen by a remote NIC: the origin
/// node and the hardware slot there. (Attempt numbers are a protocol-layer
/// concern; the NIC state is cleared on squash.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RemoteTxKey {
    /// Node the transaction runs on.
    pub origin: NodeId,
    /// Hardware slot at the origin node.
    pub slot: SlotId,
}

/// A conflict found by probing NIC filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicConflict {
    /// The remote transaction whose filter matched.
    pub with: RemoteTxKey,
    /// Whether the match was a Bloom false positive (the exact shadow sets
    /// do not actually intersect).
    pub false_positive: bool,
}

#[derive(Debug)]
struct RemoteTxFilters {
    read_bf: BloomFilter,
    write_bf: BloomFilter,
    read_exact: HashSet<u64>,
    write_exact: HashSet<u64>,
}

impl RemoteTxFilters {
    /// Empties the filters and sets, keeping their storage.
    fn clear(&mut self) {
        self.read_bf.clear();
        self.write_bf.clear();
        self.read_exact.clear();
        self.write_exact.clear();
    }
}

/// One node's SmartNIC state.
///
/// # Examples
///
/// ```
/// use hades_net::nic::{Nic, RemoteTxKey};
/// use hades_sim::{config::BloomParams, ids::{NodeId, SlotId}, time::Cycles};
///
/// let mut nic = Nic::new(&BloomParams::default());
/// let tx = RemoteTxKey { origin: NodeId(1), slot: SlotId(0) };
/// nic.record_remote_read(Cycles::ZERO, tx, &[0x40]);
/// let conflicts = nic.probe_writes_against(Cycles::ZERO, &[0x40], None);
/// assert_eq!(conflicts.len(), 1);
/// assert!(!conflicts[0].false_positive);
/// ```
#[derive(Debug)]
pub struct Nic {
    bloom: BloomParams,
    remote: HashMap<RemoteTxKey, RemoteTxFilters>,
    /// Cleared filters kept for reuse by the next remote transaction.
    spare: Vec<RemoteTxFilters>,
    /// Line hashes of the current probe, reused across probes.
    hashes: Vec<LineHash>,
    probes: u64,
    bf_hits: u64,
    false_positives: u64,
    tracer: Tracer,
    node: u16,
}

impl Nic {
    /// Creates a NIC with the given Bloom-filter geometry.
    pub fn new(bloom: &BloomParams) -> Self {
        Nic {
            bloom: *bloom,
            remote: HashMap::new(),
            spare: Vec::new(),
            hashes: Vec::new(),
            probes: 0,
            bf_hits: 0,
            false_positives: 0,
            tracer: Tracer::disabled(),
            node: 0,
        }
    }

    /// Installs a trace sink and tells the NIC which node it belongs to;
    /// subsequent filter inserts and probes emit Bloom trace events.
    pub fn set_tracer(&mut self, tracer: Tracer, node: u16) {
        self.tracer = tracer;
        self.node = node;
    }

    /// `tx`'s filters, created empty (from a recycled set when one is
    /// spare) at its first access here.
    fn filters_mut(&mut self, tx: RemoteTxKey) -> &mut RemoteTxFilters {
        let (b, spare) = (&self.bloom, &mut self.spare);
        self.remote.entry(tx).or_insert_with(|| {
            spare.pop().unwrap_or_else(|| RemoteTxFilters {
                read_bf: BloomFilter::new(b.nic_read_bits, b.hashes),
                write_bf: BloomFilter::new(b.nic_write_bits, b.hashes),
                read_exact: HashSet::new(),
                write_exact: HashSet::new(),
            })
        })
    }

    /// Clears `f` and keeps it for the next remote transaction.
    fn recycle(&mut self, mut f: RemoteTxFilters) {
        f.clear();
        self.spare.push(f);
    }

    /// Number of remote transactions with live filters at this NIC.
    pub fn active_remote_txs(&self) -> usize {
        self.remote.len()
    }

    /// Aggregate read-Bloom-filter occupancy over all live remote
    /// transactions at this NIC, as integer `(set bits, total bits)`
    /// sums. Integer addition is order-independent, so the time-series
    /// occupancy samples stay byte-deterministic even though the filter
    /// map iterates in hash order.
    pub fn read_bf_occupancy(&self) -> (u64, u64) {
        let mut ones = 0u64;
        let mut bits = 0u64;
        for f in self.remote.values() {
            ones += u64::from(f.read_bf.ones());
            bits += f.read_bf.bits() as u64;
        }
        (ones, bits)
    }

    /// Records local lines read by remote transaction `tx` (RDMA read path
    /// of Table II).
    pub fn record_remote_read(&mut self, now: Cycles, tx: RemoteTxKey, lines: &[u64]) {
        let f = self.filters_mut(tx);
        for &l in lines {
            f.read_bf.insert(l);
            f.read_exact.insert(l);
        }
        if self.tracer.is_enabled() {
            for _ in lines {
                self.tracer.emit(
                    now,
                    self.node,
                    NO_SLOT,
                    EventKind::BloomInsert {
                        site: FilterSite::NicRead,
                    },
                );
            }
        }
    }

    /// Records local lines written by remote transaction `tx`. Per Table II
    /// only the *partially written* lines need recording at access time; at
    /// Intend-to-commit the full write list arrives via
    /// [`Nic::probe_writes_against`]'s caller.
    pub fn record_remote_write(&mut self, now: Cycles, tx: RemoteTxKey, lines: &[u64]) {
        let f = self.filters_mut(tx);
        for &l in lines {
            f.write_bf.insert(l);
            f.write_exact.insert(l);
        }
        if self.tracer.is_enabled() {
            for _ in lines {
                self.tracer.emit(
                    now,
                    self.node,
                    NO_SLOT,
                    EventKind::BloomInsert {
                        site: FilterSite::NicWrite,
                    },
                );
            }
        }
    }

    /// Checks a committing transaction's written `lines` against every
    /// remote transaction's read *and* write filters (lazy L–R / R–R
    /// detection, Table II commit steps). `exclude` skips the committing
    /// transaction's own filters when it is itself remote to this node.
    /// Each line is hashed once for all the filters it is probed against.
    pub fn probe_writes_against(
        &mut self,
        now: Cycles,
        lines: &[u64],
        exclude: Option<RemoteTxKey>,
    ) -> Vec<NicConflict> {
        let mut out = Vec::new();
        let mut probed = 0u64;
        self.hash_for_probe(lines, exclude);
        for (&key, f) in &self.remote {
            if Some(key) == exclude {
                continue;
            }
            self.probes += 1;
            probed += 1;
            let bf_hit = self
                .hashes
                .iter()
                .any(|&h| f.read_bf.contains(h) || f.write_bf.contains(h));
            if bf_hit {
                self.bf_hits += 1;
                let real = lines
                    .iter()
                    .any(|&l| f.read_exact.contains(&l) || f.write_exact.contains(&l));
                if !real {
                    self.false_positives += 1;
                }
                out.push(NicConflict {
                    with: key,
                    false_positive: !real,
                });
            }
        }
        out.sort_by_key(|c| c.with);
        self.trace_probes(now, probed, &out);
        out
    }

    /// Checks a committing transaction's *read* lines against every remote
    /// transaction's write filters (a read–write conflict with a remote
    /// writer). Each line is hashed once for all the filters it is probed
    /// against.
    pub fn probe_reads_against(
        &mut self,
        now: Cycles,
        lines: &[u64],
        exclude: Option<RemoteTxKey>,
    ) -> Vec<NicConflict> {
        let mut out = Vec::new();
        let mut probed = 0u64;
        self.hash_for_probe(lines, exclude);
        for (&key, f) in &self.remote {
            if Some(key) == exclude {
                continue;
            }
            self.probes += 1;
            probed += 1;
            let bf_hit = self.hashes.iter().any(|&h| f.write_bf.contains(h));
            if bf_hit {
                self.bf_hits += 1;
                let real = lines.iter().any(|&l| f.write_exact.contains(&l));
                if !real {
                    self.false_positives += 1;
                }
                out.push(NicConflict {
                    with: key,
                    false_positive: !real,
                });
            }
        }
        out.sort_by_key(|c| c.with);
        self.trace_probes(now, probed, &out);
        out
    }

    /// Hashes `lines` once for a probe into the reused hash buffer, or
    /// empties it when no remote transaction other than `exclude` has
    /// filters to probe.
    fn hash_for_probe(&mut self, lines: &[u64], exclude: Option<RemoteTxKey>) {
        self.hashes.clear();
        if self.remote.keys().all(|&k| Some(k) == exclude) {
            return;
        }
        self.hashes.extend(lines.iter().map(|&l| LineHash::from(l)));
    }

    /// Emits one `BloomProbe` event per remote transaction probed (hits
    /// first, matching the sorted conflict list) plus a
    /// `BloomFalsePositive` for each hit the exact shadow sets refute.
    fn trace_probes(&self, now: Cycles, probed: u64, conflicts: &[NicConflict]) {
        if !self.tracer.is_enabled() {
            return;
        }
        for c in conflicts {
            self.tracer
                .emit(now, self.node, NO_SLOT, EventKind::BloomProbe { hit: true });
            if c.false_positive {
                self.tracer
                    .emit(now, self.node, NO_SLOT, EventKind::BloomFalsePositive);
            }
        }
        for _ in conflicts.len() as u64..probed {
            self.tracer.emit(
                now,
                self.node,
                NO_SLOT,
                EventKind::BloomProbe { hit: false },
            );
        }
    }

    /// The Bloom-filter pair of `tx`, cloned for loading into a directory
    /// Locking Buffer (commit step 1 at a remote node). Returns fresh empty
    /// filters if the transaction never accessed this node.
    pub fn filters_for_locking(&self, tx: RemoteTxKey) -> (BloomFilter, BloomFilter) {
        match self.remote.get(&tx) {
            Some(f) => (f.read_bf.clone(), f.write_bf.clone()),
            None => (
                BloomFilter::new(self.bloom.nic_read_bits, self.bloom.hashes),
                BloomFilter::new(self.bloom.nic_write_bits, self.bloom.hashes),
            ),
        }
    }

    /// Exact lines recorded as read by `tx` at this node.
    pub fn exact_reads(&self, tx: RemoteTxKey) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .remote
            .get(&tx)
            .map(|f| f.read_exact.iter().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Exact lines recorded as written by `tx` at this node (the NIC knows
    /// them from the RDMA writes; used to seed Intend-to-commit checks).
    pub fn exact_writes(&self, tx: RemoteTxKey) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .remote
            .get(&tx)
            .map(|f| f.write_exact.iter().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Software validation for a degraded commit (Locking Buffer bank
    /// full): checks the committing transaction's exact line lists against
    /// every other remote transaction's exact shadow sets — writes against
    /// read∪write, reads against write — with no Bloom filters involved,
    /// so the answer has no false positives. Returns `true` when the
    /// commit is conflict-free and may proceed without a buffer.
    pub fn exact_validate(
        &self,
        write_lines: &[u64],
        read_lines: &[u64],
        exclude: Option<RemoteTxKey>,
    ) -> bool {
        self.remote.iter().all(|(&key, f)| {
            Some(key) == exclude
                || (write_lines
                    .iter()
                    .all(|l| !f.read_exact.contains(l) && !f.write_exact.contains(l))
                    && read_lines.iter().all(|l| !f.write_exact.contains(l)))
        })
    }

    /// Clears `tx`'s filters (Validation received, or squash). Idempotent.
    /// The cleared filters are kept for the next remote transaction.
    pub fn clear_remote_tx(&mut self, tx: RemoteTxKey) {
        if let Some(f) = self.remote.remove(&tx) {
            self.recycle(f);
        }
    }

    /// Clears every remote-transaction filter whose origin is `origin`
    /// (failover hygiene: the origin node left the configuration and its
    /// in-flight transactions can never commit). Returns the number of
    /// transactions cleared.
    pub fn clear_remote_txs_from(&mut self, origin: NodeId) -> usize {
        let before = self.remote.len();
        self.remote.retain(|k, _| k.origin != origin);
        before - self.remote.len()
    }

    /// Clears every remote-transaction filter (the node itself left the
    /// configuration; its NIC state is gone with it). Returns the number of
    /// transactions cleared.
    pub fn clear_all_remote_txs(&mut self) -> usize {
        let n = self.remote.len();
        self.remote.clear();
        n
    }

    /// (probe operations, Bloom hits, false-positive hits) — the
    /// Section VIII-C false-positive-conflict statistic.
    pub fn probe_stats(&self) -> (u64, u64, u64) {
        (self.probes, self.bf_hits, self.false_positives)
    }

    /// Remote-transaction keys with live filters, sorted (deterministic
    /// iteration for the migration transfer).
    pub fn remote_tx_keys(&self) -> Vec<RemoteTxKey> {
        let mut v: Vec<RemoteTxKey> = self.remote.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Removes and returns every remote-transaction entry except the
    /// `exclude`d ones, as `(key, exact reads, exact writes)` sorted by
    /// key — the shard-migration cutover transfer (DESIGN.md §15). The
    /// excluded keys (in-flight commit handshakes being fenced at the
    /// source) keep their entries here so their squash Clears find them.
    pub fn take_remote_txs(
        &mut self,
        exclude: &[RemoteTxKey],
    ) -> Vec<(RemoteTxKey, Vec<u64>, Vec<u64>)> {
        let mut out = Vec::new();
        for key in self.remote_tx_keys() {
            if exclude.contains(&key) {
                continue;
            }
            let f = self.remote.remove(&key).expect("key just listed");
            let mut reads: Vec<u64> = f.read_exact.into_iter().collect();
            let mut writes: Vec<u64> = f.write_exact.into_iter().collect();
            reads.sort_unstable();
            writes.sort_unstable();
            out.push((key, reads, writes));
        }
        out
    }

    /// Installs a transferred remote-transaction entry, rebuilding the
    /// Bloom pair from the exact line sets (inserted in sorted order, so
    /// the rebuilt bit patterns are deterministic). Merges into any
    /// entry the transaction has already created here.
    pub fn import_remote_tx(&mut self, tx: RemoteTxKey, reads: &[u64], writes: &[u64]) {
        let f = self.filters_mut(tx);
        for &l in reads {
            f.read_bf.insert(l);
            f.read_exact.insert(l);
        }
        for &l in writes {
            f.write_bf.insert(l);
            f.write_exact.insert(l);
        }
    }
}

/// Module 4b: per-local-transaction record of remote writes (addresses
/// tagged by remote node, pointing at locally buffered data) and the list
/// of remote nodes involved in the transaction.
///
/// The protocol uses it at commit to know which nodes must receive
/// Intend-to-commit / Validation messages and which addresses to pass.
#[derive(Debug, Clone, Default)]
pub struct TxRemoteTable {
    /// Remote lines written, indexed by home node. A cleared table keeps
    /// these lists' storage for the next transaction.
    writes_by_node: Vec<Vec<u64>>,
    /// Remote nodes that home any data this transaction read or wrote,
    /// sorted.
    nodes_involved: Vec<NodeId>,
}

impl TxRemoteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes that the transaction read remote lines homed at `node`.
    pub fn note_read(&mut self, node: NodeId) {
        if let Err(at) = self.nodes_involved.binary_search(&node) {
            self.nodes_involved.insert(at, node);
        }
    }

    /// Notes that the transaction wrote remote `lines` homed at `node` (the
    /// data itself is buffered locally; we only track addresses).
    pub fn note_write(&mut self, node: NodeId, lines: &[u64]) {
        self.note_read(node);
        let n = node.0 as usize;
        if self.writes_by_node.len() <= n {
            self.writes_by_node.resize_with(n + 1, Vec::new);
        }
        self.writes_by_node[n].extend(lines);
    }

    /// Remote nodes involved in the transaction, sorted.
    pub fn involved(&self) -> &[NodeId] {
        &self.nodes_involved
    }

    /// Whether the transaction touched data homed at `node`.
    pub fn involves(&self, node: NodeId) -> bool {
        self.nodes_involved.binary_search(&node).is_ok()
    }

    /// Lines written at `node` as recorded: in write order, possibly
    /// repeated; empty if none.
    pub fn raw_writes_at(&self, node: NodeId) -> &[u64] {
        self.writes_by_node
            .get(node.0 as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Lines written at `node` (deduplicated, sorted); empty if none.
    pub fn writes_at(&self, node: NodeId) -> Vec<u64> {
        let mut v = self.raw_writes_at(node).to_vec();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Total distinct remote lines written across all nodes.
    pub fn total_lines_written(&self) -> usize {
        self.nodes_involved
            .iter()
            .map(|&n| self.writes_at(n).len())
            .sum()
    }

    /// Whether the transaction touched any remote node.
    pub fn is_distributed(&self) -> bool {
        !self.nodes_involved.is_empty()
    }

    /// Clears the table (commit completed or squash).
    pub fn clear(&mut self) {
        self.writes_by_node.iter_mut().for_each(Vec::clear);
        self.nodes_involved.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u16, s: u16) -> RemoteTxKey {
        RemoteTxKey {
            origin: NodeId(n),
            slot: SlotId(s),
        }
    }

    fn nic() -> Nic {
        Nic::new(&BloomParams::default())
    }

    #[test]
    fn real_conflict_detected_and_classified() {
        let mut nic = nic();
        nic.record_remote_read(Cycles::ZERO, key(1, 0), &[100, 200]);
        let c = nic.probe_writes_against(Cycles::ZERO, &[200], None);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].with, key(1, 0));
        assert!(!c[0].false_positive);
    }

    #[test]
    fn disjoint_lines_do_not_conflict() {
        let mut nic = nic();
        nic.record_remote_read(Cycles::ZERO, key(1, 0), &[100]);
        let c = nic.probe_writes_against(Cycles::ZERO, &[7_000_000], None);
        // Almost certainly empty; if a Bloom collision occurs it must be
        // classified as a false positive.
        for conflict in c {
            assert!(conflict.false_positive);
        }
    }

    #[test]
    fn exclude_skips_own_filters() {
        let mut nic = nic();
        nic.record_remote_write(Cycles::ZERO, key(2, 1), &[50]);
        assert!(nic
            .probe_writes_against(Cycles::ZERO, &[50], Some(key(2, 1)))
            .is_empty());
        assert_eq!(nic.probe_writes_against(Cycles::ZERO, &[50], None).len(), 1);
    }

    #[test]
    fn reads_only_conflict_with_writers() {
        let mut nic = nic();
        nic.record_remote_read(Cycles::ZERO, key(1, 0), &[10]);
        nic.record_remote_write(Cycles::ZERO, key(3, 2), &[10]);
        let c = nic.probe_reads_against(Cycles::ZERO, &[10], None);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].with, key(3, 2));
    }

    #[test]
    fn clear_removes_state() {
        let mut nic = nic();
        nic.record_remote_read(Cycles::ZERO, key(1, 0), &[10]);
        assert_eq!(nic.active_remote_txs(), 1);
        nic.clear_remote_tx(key(1, 0));
        assert_eq!(nic.active_remote_txs(), 0);
        assert!(nic
            .probe_writes_against(Cycles::ZERO, &[10], None)
            .is_empty());
        nic.clear_remote_tx(key(1, 0)); // idempotent
    }

    #[test]
    fn clear_by_origin_removes_only_that_nodes_txs() {
        let mut nic = nic();
        nic.record_remote_read(Cycles::ZERO, key(1, 0), &[10]);
        nic.record_remote_read(Cycles::ZERO, key(1, 3), &[20]);
        nic.record_remote_write(Cycles::ZERO, key(2, 0), &[30]);
        assert_eq!(nic.clear_remote_txs_from(NodeId(1)), 2);
        assert_eq!(nic.active_remote_txs(), 1);
        assert_eq!(nic.clear_remote_txs_from(NodeId(1)), 0, "idempotent");
        assert_eq!(nic.clear_all_remote_txs(), 1);
        assert_eq!(nic.active_remote_txs(), 0);
    }

    #[test]
    fn exact_validate_is_precise_and_skips_self() {
        let mut nic = nic();
        nic.record_remote_read(Cycles::ZERO, key(1, 0), &[100]);
        nic.record_remote_write(Cycles::ZERO, key(2, 0), &[200]);
        // Writing a line someone read, or reading a line someone wrote: fail.
        assert!(!nic.exact_validate(&[100], &[], None));
        assert!(!nic.exact_validate(&[], &[200], None));
        // Reading a line someone read: fine. Disjoint lines: fine.
        assert!(nic.exact_validate(&[], &[100], None));
        assert!(nic.exact_validate(&[300], &[301], None));
        // A transaction's own filters never block it.
        assert!(nic.exact_validate(&[100], &[], Some(key(1, 0))));
    }

    #[test]
    fn exact_writes_sorted() {
        let mut nic = nic();
        nic.record_remote_write(Cycles::ZERO, key(1, 1), &[30, 10, 20]);
        assert_eq!(nic.exact_writes(key(1, 1)), vec![10, 20, 30]);
        assert!(nic.exact_writes(key(9, 9)).is_empty());
    }

    #[test]
    fn false_positive_counter_via_forced_collision() {
        // Insert many lines to saturate the filter, then probe lines that
        // were never inserted: any hit must be counted as a false positive.
        let mut nic = nic();
        let lines: Vec<u64> = (0..200).map(|i| i * 64).collect();
        nic.record_remote_read(Cycles::ZERO, key(0, 0), &lines);
        let mut fp_seen = 0;
        for probe in (1_000_000..1_002_000u64).map(|i| i * 64 + 1) {
            for c in nic.probe_writes_against(Cycles::ZERO, &[probe], None) {
                assert!(c.false_positive);
                fp_seen += 1;
            }
        }
        let (_, hits, fps) = nic.probe_stats();
        assert_eq!(hits, fps, "all hits on non-members must be FPs");
        assert_eq!(fp_seen as u64, fps);
    }

    #[test]
    fn filters_for_locking_clone_current_state() {
        let mut nic = nic();
        nic.record_remote_read(Cycles::ZERO, key(1, 0), &[64]);
        let (rd, wr) = nic.filters_for_locking(key(1, 0));
        assert!(rd.contains(64));
        assert!(wr.is_empty());
        let (rd2, wr2) = nic.filters_for_locking(key(5, 5));
        assert!(rd2.is_empty() && wr2.is_empty());
    }

    #[test]
    fn take_and_import_round_trip_preserves_conflicts() {
        let mut src = nic();
        src.record_remote_read(Cycles::ZERO, key(1, 0), &[100, 200]);
        src.record_remote_write(Cycles::ZERO, key(2, 1), &[300]);
        src.record_remote_read(Cycles::ZERO, key(3, 0), &[400]);
        // key(3, 0) is mid-handshake: it stays behind for its Clear.
        let moved = src.take_remote_txs(&[key(3, 0)]);
        assert_eq!(moved.len(), 2);
        assert_eq!(moved[0].0, key(1, 0));
        assert_eq!(moved[0].1, vec![100, 200]);
        assert_eq!(src.active_remote_txs(), 1);
        let mut dst = nic();
        for (k, reads, writes) in &moved {
            dst.import_remote_tx(*k, reads, writes);
        }
        // The destination detects the same conflicts the source would.
        let c = dst.probe_writes_against(Cycles::ZERO, &[200], None);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].with, key(1, 0));
        assert!(!c[0].false_positive);
        let c = dst.probe_reads_against(Cycles::ZERO, &[300], None);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].with, key(2, 1));
        // And the locking filters are live for a later commit.
        let (rd, _wr) = dst.filters_for_locking(key(1, 0));
        assert!(rd.contains(100));
    }

    #[test]
    fn remote_tx_keys_sorted() {
        let mut nic = nic();
        nic.record_remote_read(Cycles::ZERO, key(2, 0), &[10]);
        nic.record_remote_read(Cycles::ZERO, key(1, 1), &[20]);
        nic.record_remote_read(Cycles::ZERO, key(1, 0), &[30]);
        assert_eq!(nic.remote_tx_keys(), vec![key(1, 0), key(1, 1), key(2, 0)]);
    }

    #[test]
    fn tx_remote_table_tracks_nodes_and_writes() {
        let mut t = TxRemoteTable::new();
        assert!(!t.is_distributed());
        t.note_read(NodeId(2));
        t.note_write(NodeId(1), &[5, 5, 3]);
        assert!(t.is_distributed());
        assert_eq!(t.involved(), [NodeId(1), NodeId(2)]);
        assert_eq!(t.writes_at(NodeId(1)), vec![3, 5]);
        assert!(t.writes_at(NodeId(2)).is_empty());
        assert_eq!(t.total_lines_written(), 2);
        t.clear();
        assert!(!t.is_distributed());
    }
}
