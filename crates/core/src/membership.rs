//! Precise membership: configuration epochs, failure detection, and
//! epoch fencing (ISSUE 5).
//!
//! A [`Membership`] instance tracks, for one cluster:
//!
//! * the **configuration epoch** — a monotone counter advanced every
//!   time a node is declared dead,
//! * per-node **liveness** (`alive`), driven off missed lease renewals,
//! * the **primary map** — which physical node currently serves each
//!   logical partition (identity until a failover promotes a backup),
//! * the **fencing rule**: a fabric verb stamped with an older epoch by
//!   a now-dead sender is dropped and counted rather than applied.
//!
//! The struct is deliberately engine-agnostic: the three protocol
//! engines consult it for routing (`primary_of`), stamp their handshake
//! verbs with `epoch()`, and ask `should_fence` on arrival. All methods
//! are cheap and deterministic; when the layer is disabled
//! (`MembershipParams::failure_detection == false`) every query
//! degenerates to the identity answer so runs are byte-identical to a
//! build without this module.

use crate::stats::{MembershipStats, NemesisStats};
use hades_sim::config::MembershipParams;
use hades_sim::ids::NodeId;
use hades_sim::time::Cycles;

/// The outcome of one quorum-mode detector scan ([`Membership::scan`]):
/// what to declare dead, what to freeze, and who rejoined.
#[derive(Debug, Clone, Default)]
pub struct ScanOutcome {
    /// Nodes to declare dead (the caller runs `reconfigure_after_death`
    /// per node, in order).
    pub deaths: Vec<NodeId>,
    /// Suspects past the death deadline whose declaration is frozen
    /// because no liveness quorum is observable (emit `QuorumLost`).
    pub quorum_losses: Vec<NodeId>,
    /// Previously-dead nodes whose renewals resumed; each already bumped
    /// the epoch (emit `EpochChange`).
    pub rejoins: Vec<NodeId>,
}

/// Cluster membership view: epoch, liveness, primary map, fence stats.
#[derive(Debug, Clone)]
pub struct Membership {
    params: MembershipParams,
    /// Current configuration epoch; starts at 0, +1 per declared death.
    epoch: u64,
    /// `alive[n]` — node `n` has not been declared dead.
    alive: Vec<bool>,
    /// `primary[p]` — physical node currently serving logical partition
    /// `p`. Initialized to the identity map.
    primary: Vec<u16>,
    /// Simulated time of the last lease renewal seen from each node.
    last_renewal: Vec<Cycles>,
    /// `suspected[n]` — node `n` crossed the suspicion deadline and has
    /// not renewed since (quorum mode only; DESIGN.md §16).
    suspected: Vec<bool>,
    /// `quorum_frozen[n]` — a death declaration for `n` is latched as
    /// frozen for lack of quorum, so `QuorumLost` fires once per episode.
    quorum_frozen: Vec<bool>,
    /// Set when a planned migration plan is installed: epoch-aware
    /// checks run even with the failure detector off (DESIGN.md §15).
    migration_active: bool,
    /// Epoch reached by the most recent declared death (0 = none yet;
    /// real deaths always land at epoch >= 1).
    last_death_epoch: u64,
    /// Counters exported into `RunStats::membership`.
    pub stats: MembershipStats,
    /// Partition-tolerance counters exported into `RunStats::nemesis`
    /// (link-window counts are merged in by the cluster).
    pub nstats: NemesisStats,
}

impl Membership {
    /// A membership view over `nodes` nodes, everything alive, identity
    /// primary map, epoch 0.
    pub fn new(params: MembershipParams, nodes: usize) -> Self {
        Membership {
            params,
            epoch: 0,
            alive: vec![true; nodes],
            primary: (0..nodes as u16).collect(),
            last_renewal: vec![Cycles::ZERO; nodes],
            suspected: vec![false; nodes],
            quorum_frozen: vec![false; nodes],
            migration_active: false,
            last_death_epoch: 0,
            stats: MembershipStats::default(),
            nstats: NemesisStats::default(),
        }
    }

    /// Whether the failure detector / failover layer is active.
    pub fn enabled(&self) -> bool {
        self.params.failure_detection
    }

    /// Marks the epoch machinery live for a planned migration: epochs
    /// can now advance (and slots must carry stamps) even when the
    /// failure detector is off.
    pub fn activate_migration(&mut self) {
        self.migration_active = true;
    }

    /// Whether epoch stamps are meaningful this run: either the failure
    /// detector or a planned migration can advance the epoch.
    pub fn epoch_aware(&self) -> bool {
        self.params.failure_detection || self.migration_active
    }

    /// Whether a node death has advanced the epoch past `since_epoch`.
    /// Distinguishes crash-driven epoch bumps (whose straddlers must
    /// abort: their footprint may reference the dead node) from planned
    /// migration bumps (whose exec-phase straddlers survive and simply
    /// re-route).
    pub fn death_since(&self, since_epoch: u64) -> bool {
        self.last_death_epoch > since_epoch
    }

    /// Advances the epoch for a planned reconfiguration step (announce
    /// or cutover) and returns the new epoch.
    pub fn begin_reconfiguration(&mut self) -> u64 {
        self.epoch += 1;
        self.stats.epoch_changes += 1;
        self.epoch
    }

    /// Current configuration epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether `node` has not been declared dead.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.0 as usize]
    }

    /// Number of nodes not declared dead.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Physical node currently serving logical partition `home`.
    ///
    /// Identity until a promotion repoints the partition.
    pub fn primary_of(&self, home: NodeId) -> NodeId {
        NodeId(self.primary[home.0 as usize])
    }

    /// Records a lease renewal from `node` at `now`.
    pub fn note_renewal(&mut self, node: NodeId, now: Cycles) {
        self.last_renewal[node.0 as usize] = now;
    }

    /// How stale a node's last renewal must be before it is suspected:
    /// `RENEW_INTERVAL * SUSPECT_AFTER`.
    pub fn suspect_deadline(&self) -> Cycles {
        MembershipParams::RENEW_INTERVAL * MembershipParams::SUSPECT_AFTER
    }

    /// Alive nodes whose last renewal is older than the suspect
    /// deadline, in node order (deterministic).
    pub fn suspects(&self, now: Cycles) -> Vec<NodeId> {
        if !self.enabled() {
            return Vec::new();
        }
        let deadline = self.suspect_deadline();
        (0..self.alive.len())
            .filter(|&n| self.alive[n] && now.saturating_sub(self.last_renewal[n]) > deadline)
            .map(|n| NodeId(n as u16))
            .collect()
    }

    /// Whether partition-safe mode is on (DESIGN.md §16): death
    /// declarations are quorum-gated and expired-lease coordinators
    /// refuse commit handshakes.
    pub fn partition_safe(&self) -> bool {
        self.enabled() && self.params.partition_safe
    }

    /// Smallest strict majority of the full cluster (dead nodes still
    /// count toward the denominator: a quorum is over configured nodes,
    /// not survivors, so cascading minorities cannot manufacture one).
    pub fn majority(&self) -> usize {
        self.alive.len() / 2 + 1
    }

    /// Nodes currently renewing on time: alive and within the suspicion
    /// deadline. The observer-side liveness evidence behind quorum
    /// checks.
    pub fn fresh_count(&self, now: Cycles) -> usize {
        let deadline = self.suspect_deadline();
        (0..self.alive.len())
            .filter(|&n| self.alive[n] && now.saturating_sub(self.last_renewal[n]) <= deadline)
            .count()
    }

    /// Whether `node`'s own lease has expired (its last renewal is older
    /// than the suspicion deadline) — the self-fencing trigger.
    pub fn lease_expired(&self, node: NodeId, now: Cycles) -> bool {
        now.saturating_sub(self.last_renewal[node.0 as usize]) > self.suspect_deadline()
    }

    /// Whether `node` is currently suspected (quorum mode only).
    pub fn is_suspected(&self, node: NodeId) -> bool {
        self.suspected[node.0 as usize]
    }

    /// Staleness a suspect must reach before a quorum-mode death is
    /// declared: `suspect_deadline * GRACE_FACTOR` in partition-safe
    /// mode. The gap between the two deadlines is where gray nodes
    /// degrade service (suspicion, self-fencing) without reconfiguring
    /// the cluster.
    pub fn death_deadline(&self) -> Cycles {
        let grace = if self.params.partition_safe {
            MembershipParams::GRACE_FACTOR
        } else {
            1
        };
        self.suspect_deadline() * grace
    }

    /// One quorum-mode detector scan at `now` (DESIGN.md §16):
    ///
    /// 1. **Rejoin** — a declared-dead node whose renewals resumed comes
    ///    back alive under a fresh epoch (a planned-style bump: live
    ///    straddlers survive, while the rejoiner's own pre-death slots
    ///    still abort via the original death's epoch stamp).
    /// 2. **Suspicion** — alive nodes past the suspicion deadline are
    ///    marked suspected; a fresh renewal clears the suspicion.
    /// 3. **Death** — suspects past the death deadline are declared dead
    ///    only while a strict majority is renewing on time; otherwise the
    ///    declaration is frozen (latched per episode) and the epoch does
    ///    not move — the minority side of a partition cannot promote.
    ///
    /// The caller (the cluster facade) emits trace events and runs the
    /// actual reconfiguration for each returned death.
    pub fn scan(&mut self, now: Cycles) -> ScanOutcome {
        let mut out = ScanOutcome::default();
        if !self.partition_safe() {
            out.deaths = self.suspects(now);
            return out;
        }
        let deadline = self.suspect_deadline();
        for n in 0..self.alive.len() {
            let stale = now.saturating_sub(self.last_renewal[n]);
            if !self.alive[n] {
                if self.last_renewal[n] > Cycles::ZERO && stale <= deadline {
                    self.alive[n] = true;
                    self.suspected[n] = false;
                    self.quorum_frozen[n] = false;
                    self.epoch += 1;
                    self.stats.epoch_changes += 1;
                    self.nstats.rejoins += 1;
                    out.rejoins.push(NodeId(n as u16));
                }
                continue;
            }
            if stale > deadline {
                if !self.suspected[n] {
                    self.suspected[n] = true;
                    self.nstats.suspicions += 1;
                }
            } else if self.suspected[n] {
                self.suspected[n] = false;
                self.quorum_frozen[n] = false;
                self.nstats.suspicions_cleared += 1;
            }
        }
        let death_deadline = self.death_deadline();
        let has_quorum = self.fresh_count(now) >= self.majority();
        for n in 0..self.alive.len() {
            if !(self.alive[n] && self.suspected[n]) {
                continue;
            }
            if now.saturating_sub(self.last_renewal[n]) <= death_deadline {
                continue;
            }
            if has_quorum {
                out.deaths.push(NodeId(n as u16));
            } else if !self.quorum_frozen[n] {
                self.quorum_frozen[n] = true;
                self.nstats.quorum_losses += 1;
                out.quorum_losses.push(NodeId(n as u16));
            }
        }
        out
    }

    /// Declares `dead` dead and advances the configuration epoch.
    ///
    /// Returns `false` (and does nothing) if the layer is disabled or
    /// the node was already dead — reconfiguration must run exactly
    /// once per death.
    pub fn mark_dead(&mut self, dead: NodeId) -> bool {
        if !self.enabled() || !self.alive[dead.0 as usize] {
            return false;
        }
        self.alive[dead.0 as usize] = false;
        self.suspected[dead.0 as usize] = false;
        self.quorum_frozen[dead.0 as usize] = false;
        self.epoch += 1;
        self.stats.epoch_changes += 1;
        self.last_death_epoch = self.epoch;
        true
    }

    /// Repoints logical partition `partition` at `new_primary`
    /// (a backup promotion).
    pub fn repoint(&mut self, partition: NodeId, new_primary: NodeId) {
        self.primary[partition.0 as usize] = new_primary.0;
        self.stats.promotions += 1;
    }

    /// The primary map's version: the number of [`repoint`](Self::repoint)
    /// calls so far, its only writer. A plan built from the routing holds
    /// while this is unchanged.
    pub fn routing_version(&self) -> u64 {
        self.stats.promotions
    }

    /// Logical partitions currently served by physical node `phys`,
    /// in partition order.
    pub fn partitions_of(&self, phys: NodeId) -> Vec<NodeId> {
        (0..self.primary.len())
            .filter(|&p| self.primary[p] == phys.0)
            .map(|p| NodeId(p as u16))
            .collect()
    }

    /// The epoch fencing rule: a verb stamped `sent_epoch` from
    /// `sender` is dropped iff the layer is enabled, the stamp is
    /// stale, and the sender has been declared dead.
    ///
    /// Verbs between healthy nodes are never fenced even across an
    /// epoch change — only the dead node's straggling traffic is.
    pub fn should_fence(&self, sent_epoch: u64, sender: NodeId) -> bool {
        self.enabled() && sent_epoch < self.epoch && !self.is_alive(sender)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params_on() -> MembershipParams {
        MembershipParams::standard()
    }

    #[test]
    fn starts_identity_epoch_zero() {
        let m = Membership::new(params_on(), 4);
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.alive_count(), 4);
        for n in 0..4u16 {
            assert_eq!(m.primary_of(NodeId(n)), NodeId(n));
            assert!(m.is_alive(NodeId(n)));
        }
    }

    #[test]
    fn mark_dead_advances_epoch_once() {
        let mut m = Membership::new(params_on(), 3);
        assert!(m.mark_dead(NodeId(1)));
        assert_eq!(m.epoch(), 1);
        assert!(!m.is_alive(NodeId(1)));
        // Second declaration is a no-op.
        assert!(!m.mark_dead(NodeId(1)));
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.stats.epoch_changes, 1);
    }

    #[test]
    fn disabled_layer_never_suspects_or_fences() {
        let mut m = Membership::new(MembershipParams::default(), 2);
        assert!(!m.enabled());
        assert!(m.suspects(Cycles::new(1 << 40)).is_empty());
        assert!(!m.mark_dead(NodeId(0)));
        assert!(!m.should_fence(0, NodeId(0)));
    }

    #[test]
    fn suspicion_needs_missed_renewals() {
        let mut m = Membership::new(params_on(), 2);
        let step = MembershipParams::RENEW_INTERVAL;
        m.note_renewal(NodeId(0), step);
        m.note_renewal(NodeId(1), step);
        // Just past one interval: nobody suspected yet.
        assert!(m.suspects(Cycles::new(step.get() * 2)).is_empty());
        // Node 1 keeps renewing, node 0 goes silent.
        let later = Cycles::new(step.get() * 10);
        m.note_renewal(NodeId(1), later);
        let s = m.suspects(Cycles::new(step.get() * 10 + 1));
        assert_eq!(s, vec![NodeId(0)]);
    }

    #[test]
    fn fences_only_stale_verbs_from_dead_senders() {
        let mut m = Membership::new(params_on(), 3);
        m.mark_dead(NodeId(2));
        // Stale verb from the dead node: fenced.
        assert!(m.should_fence(0, NodeId(2)));
        // Stale verb from a healthy node: delivered.
        assert!(!m.should_fence(0, NodeId(1)));
        // Current-epoch traffic is never fenced.
        assert!(!m.should_fence(m.epoch(), NodeId(2)));
    }

    #[test]
    fn migration_makes_epoch_aware_without_detector() {
        let mut m = Membership::new(MembershipParams::default(), 3);
        assert!(!m.epoch_aware());
        m.activate_migration();
        assert!(m.epoch_aware());
        assert!(!m.enabled(), "migration must not enable the detector");
        assert_eq!(m.begin_reconfiguration(), 1);
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.stats.epoch_changes, 1);
        // A planned bump is not a death: epoch-0 straddlers survive.
        assert!(!m.death_since(0));
    }

    #[test]
    fn death_since_tracks_only_crash_epochs() {
        let mut m = Membership::new(params_on(), 4);
        m.activate_migration();
        m.begin_reconfiguration(); // planned: epoch 1
        assert!(!m.death_since(0));
        m.mark_dead(NodeId(3)); // crash: epoch 2
        assert!(m.death_since(0));
        assert!(m.death_since(1));
        assert!(!m.death_since(2));
        m.begin_reconfiguration(); // planned again: epoch 3
        assert!(!m.death_since(2));
    }

    fn params_quorum() -> MembershipParams {
        MembershipParams::partition_safe()
    }

    /// Renew all nodes in `m` at `t`.
    fn renew_all(m: &mut Membership, nodes: u16, t: Cycles) {
        for n in 0..nodes {
            m.note_renewal(NodeId(n), t);
        }
    }

    #[test]
    fn quorum_scan_declares_death_only_with_majority() {
        let mut m = Membership::new(params_quorum(), 4);
        let sd = m.suspect_deadline();
        let dd = m.death_deadline();
        // Three of four renew; node 3 goes silent past the suspect
        // deadline but inside the grace window.
        let t = Cycles::new(sd.get() + 1);
        for n in 0..3 {
            m.note_renewal(NodeId(n), t);
        }
        let out = m.scan(t);
        assert!(out.deaths.is_empty(), "grace window: suspect, don't kill");
        assert_eq!(m.nstats.suspicions, 1);
        assert!(m.is_suspected(NodeId(3)));
        let t2 = Cycles::new(dd.get() * 2);
        for n in 0..3 {
            m.note_renewal(NodeId(n), t2);
        }
        let out = m.scan(Cycles::new(t2.get() + 1));
        assert_eq!(out.deaths, vec![NodeId(3)], "quorum observed: declare");
        assert!(out.quorum_losses.is_empty());
    }

    #[test]
    fn minority_side_freezes_instead_of_declaring() {
        let mut m = Membership::new(params_quorum(), 4);
        let dd = m.death_deadline();
        // Only node 0 renews: a 1-of-4 view has no quorum.
        let t = Cycles::new(dd.get() * 2);
        m.note_renewal(NodeId(0), t);
        let out = m.scan(Cycles::new(t.get() + 1));
        assert!(out.deaths.is_empty(), "no quorum: no death declaration");
        assert_eq!(out.quorum_losses.len(), 3, "three frozen suspects");
        assert_eq!(m.epoch(), 0, "the epoch must not move without quorum");
        assert_eq!(m.nstats.quorum_losses, 3);
        // The freeze is latched: a second scan does not re-announce.
        let out2 = m.scan(Cycles::new(t.get() + 2));
        assert!(out2.quorum_losses.is_empty());
        assert_eq!(m.nstats.quorum_losses, 3);
    }

    #[test]
    fn fresh_renewal_clears_suspicion() {
        let mut m = Membership::new(params_quorum(), 4);
        let sd = m.suspect_deadline();
        let t = Cycles::new(sd.get() + 1);
        for n in 0..3 {
            m.note_renewal(NodeId(n), t);
        }
        m.scan(t);
        assert!(m.is_suspected(NodeId(3)));
        assert_eq!(m.nstats.suspicions, 1);
        // The gray node comes back before the death deadline.
        m.note_renewal(NodeId(3), Cycles::new(t.get() + 1));
        let out = m.scan(Cycles::new(t.get() + 2));
        assert!(out.deaths.is_empty());
        assert!(!m.is_suspected(NodeId(3)));
        assert_eq!(m.nstats.suspicions_cleared, 1);
        assert_eq!(m.epoch(), 0, "a cleared suspicion never reconfigures");
    }

    #[test]
    fn dead_node_rejoins_under_a_fresh_epoch() {
        let mut m = Membership::new(params_quorum(), 4);
        m.mark_dead(NodeId(2));
        assert_eq!(m.epoch(), 1);
        let e = m.epoch();
        // Its renewals resume after the heal.
        let t = Cycles::new(m.suspect_deadline().get() * 8);
        renew_all(&mut m, 4, t);
        let out = m.scan(Cycles::new(t.get() + 1));
        assert_eq!(out.rejoins, vec![NodeId(2)]);
        assert!(m.is_alive(NodeId(2)));
        assert_eq!(m.epoch(), e + 1, "rejoin bumps the epoch");
        assert_eq!(m.nstats.rejoins, 1);
        // A rejoin is a planned-style bump, not a death.
        assert!(!m.death_since(e));
        // But slots stamped before the original death still see it.
        assert!(m.death_since(0));
    }

    #[test]
    fn lease_expiry_is_the_self_fence_trigger() {
        let mut m = Membership::new(params_quorum(), 2);
        assert!(m.partition_safe());
        let sd = m.suspect_deadline();
        m.note_renewal(NodeId(0), Cycles::new(100));
        assert!(!m.lease_expired(NodeId(0), Cycles::new(100 + sd.get())));
        assert!(m.lease_expired(NodeId(0), Cycles::new(101 + sd.get())));
        // Legacy profile: self-fencing stays off.
        let legacy = Membership::new(MembershipParams::standard(), 2);
        assert!(!legacy.partition_safe());
    }

    #[test]
    fn non_quorum_scan_matches_suspects() {
        let mut m = Membership::new(params_on(), 3);
        let t = Cycles::new(m.suspect_deadline().get() * 3);
        m.note_renewal(NodeId(0), t);
        m.note_renewal(NodeId(1), t);
        let now = Cycles::new(t.get() + 1);
        let legacy = m.suspects(now);
        let out = m.scan(now);
        assert_eq!(out.deaths, legacy, "legacy mode: scan == suspects");
        assert_eq!(out.deaths, vec![NodeId(2)]);
        assert!(out.quorum_losses.is_empty() && out.rejoins.is_empty());
        assert!(m.nstats.is_zero(), "legacy mode records no nemesis stats");
    }

    #[test]
    fn repoint_moves_partition_and_counts() {
        let mut m = Membership::new(params_on(), 4);
        assert_eq!(m.routing_version(), 0);
        m.mark_dead(NodeId(1));
        assert_eq!(m.routing_version(), 0, "a death alone moves no route");
        m.repoint(NodeId(1), NodeId(2));
        assert_eq!(m.primary_of(NodeId(1)), NodeId(2));
        assert_eq!(m.partitions_of(NodeId(2)), vec![NodeId(1), NodeId(2)]);
        assert_eq!(m.stats.promotions, 1);
        assert_eq!(m.routing_version(), 1);
        m.repoint(NodeId(1), NodeId(3));
        assert_eq!(m.routing_version(), 2, "each repoint counts");
        assert!(m.mark_dead(NodeId(3)));
        assert_eq!(m.routing_version(), 2);
    }
}
