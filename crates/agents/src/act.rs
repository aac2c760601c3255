//! Agent Capability Tables.
//!
//! "In the experimental system, each agent maintains a set of service
//! information for the other agents in the system." The ACT maps a
//! neighbour agent's [`ResourceId`] to the most recent [`ServiceInfo`]
//! received from it, with the receipt timestamp. Entries go stale between
//! advertisements — that staleness is part of the system being
//! reproduced, so the table never invents freshness.
//!
//! Keys are interned ids rather than names, and rows sit in one `Vec`
//! sorted by id: refreshing a known row is a binary search plus two
//! stores (DESIGN.md §9, "ACT rows and O(1) freetime"). Because ids are
//! assigned in lexicographic name order (see
//! `agentgrid_telemetry::NameTable`), id-ordered iteration reproduces
//! the legacy name-ordered iteration — and therefore matchmaking
//! tie-breaking — exactly.

use crate::info::ServiceInfo;
use agentgrid_sim::{SimDuration, SimTime};
use agentgrid_telemetry::ResourceId;

/// One ACT row.
#[derive(Clone, Debug, PartialEq)]
pub struct ActEntry {
    /// The advertised service information.
    pub info: ServiceInfo,
    /// When this agent received it.
    pub received_at: SimTime,
}

impl ActEntry {
    /// Take `info`'s `freetime` received at `now`. When this row already
    /// shares `info`'s static part (see
    /// [`ServiceInfo::shares_static_part`]) only the two fields that
    /// change are written; otherwise the whole document is cloned in, as
    /// a replacement would. The row ends up equal either way.
    fn refresh(&mut self, info: &ServiceInfo, freetime: SimTime, now: SimTime) {
        if !self.info.shares_static_part(info) {
            self.info = info.clone();
        }
        self.info.freetime = freetime;
        self.received_at = now;
    }
}

/// An agent's view of its neighbours' services: rows kept sorted by
/// interned agent id, so iteration order — and therefore tie-breaking
/// in matchmaking — is deterministic and equal to name order.
#[derive(Clone, Debug, Default)]
pub struct Act {
    rows: Vec<(ResourceId, ActEntry)>,
}

impl Act {
    /// An empty table.
    pub fn new() -> Act {
        Act::default()
    }

    fn position(&self, agent: ResourceId) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&agent, |(id, _)| *id)
    }

    /// Record service info received from `agent` at `now`, replacing any
    /// previous entry.
    pub fn update(&mut self, agent: ResourceId, info: ServiceInfo, now: SimTime) {
        let entry = ActEntry {
            info,
            received_at: now,
        };
        match self.position(agent) {
            Ok(i) => self.rows[i].1 = entry,
            Err(i) => self.rows.insert(i, (agent, entry)),
        }
    }

    /// Record that `agent` advertised the document `info` with `freetime`
    /// at `now` (the document's own `freetime` is ignored). Equal to
    /// [`Act::update`] with a stamped clone of `info`, but a known row
    /// that shares `info`'s static part costs two stores.
    pub(crate) fn refresh(
        &mut self,
        agent: ResourceId,
        info: &ServiceInfo,
        freetime: SimTime,
        now: SimTime,
    ) {
        match self.position(agent) {
            Ok(i) => self.rows[i].1.refresh(info, freetime, now),
            Err(i) => {
                let mut entry = ActEntry {
                    info: info.clone(),
                    received_at: now,
                };
                entry.info.freetime = freetime;
                self.rows.insert(i, (agent, entry));
            }
        }
    }

    /// The current entry for `agent`.
    pub fn get(&self, agent: ResourceId) -> Option<&ActEntry> {
        self.position(agent).ok().map(|i| &self.rows[i].1)
    }

    /// All entries in id order (== lexicographic name order).
    pub fn iter(&self) -> impl Iterator<Item = (ResourceId, &ActEntry)> {
        self.rows.iter().map(|(id, e)| (*id, e))
    }

    /// Number of known neighbours.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing has been advertised yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Age of the entry for `agent` at `now`.
    pub fn age(&self, agent: ResourceId, now: SimTime) -> Option<SimDuration> {
        self.get(agent).map(|e| now.saturating_since(e.received_at))
    }

    /// Forget everything (a crashed agent restarts with an empty table).
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Drop entries older than `max_age` (housekeeping; the experiments
    /// never expire entries, matching the paper).
    pub fn expire(&mut self, now: SimTime, max_age: SimDuration) {
        self.rows
            .retain(|(_, e)| now.saturating_since(e.received_at) <= max_age);
    }

    /// Merge another table, keeping whichever entry is fresher per agent
    /// (gossip: a pull can carry the neighbour's whole view, so service
    /// information propagates through the hierarchy — "each agent
    /// maintains a set of service information for the other agents in
    /// the system" while only ever talking to its neighbours). Entries
    /// about `skip` (the merging agent itself) are ignored.
    pub fn merge(&mut self, other: &Act, skip: ResourceId) {
        for (id, entry) in other.iter() {
            if id == skip {
                continue;
            }
            match self.position(id) {
                Ok(i) => {
                    let mine = &mut self.rows[i].1;
                    if entry.received_at > mine.received_at {
                        mine.refresh(&entry.info, entry.info.freetime, entry.received_at);
                    }
                }
                Err(i) => self.rows.insert(i, (id, entry.clone())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::Endpoint;
    use agentgrid_cluster::ExecEnv;

    // Ids in these unit tests are arbitrary dense handles; the names they
    // would intern to are irrelevant to ACT semantics.
    const ME: ResourceId = ResourceId(0);
    const S2: ResourceId = ResourceId(2);
    const S5: ResourceId = ResourceId(5);
    const S9: ResourceId = ResourceId(9);
    const S11: ResourceId = ResourceId(11);

    fn info(freetime_s: u64) -> ServiceInfo {
        ServiceInfo {
            agent: Endpoint::new("host", 1000),
            local: Endpoint::new("host", 10000),
            machine_type: "SunUltra5".into(),
            nproc: 16,
            environments: vec![ExecEnv::Test].into(),
            freetime: SimTime::from_secs(freetime_s),
        }
    }

    #[test]
    fn update_replaces_previous_entry() {
        let mut act = Act::new();
        act.update(S2, info(10), SimTime::from_secs(1));
        act.update(S2, info(50), SimTime::from_secs(11));
        assert_eq!(act.len(), 1);
        let e = act.get(S2).unwrap();
        assert_eq!(e.info.freetime, SimTime::from_secs(50));
        assert_eq!(e.received_at, SimTime::from_secs(11));
    }

    #[test]
    fn age_reflects_receipt_time() {
        let mut act = Act::new();
        act.update(S2, info(10), SimTime::from_secs(5));
        assert_eq!(
            act.age(S2, SimTime::from_secs(15)),
            Some(SimDuration::from_secs(10))
        );
        assert_eq!(act.age(S9, SimTime::from_secs(15)), None);
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut act = Act::new();
        act.update(S9, info(1), SimTime::ZERO);
        act.update(S2, info(1), SimTime::ZERO);
        act.update(S11, info(1), SimTime::ZERO);
        let ids: Vec<ResourceId> = act.iter().map(|(n, _)| n).collect();
        // Ascending id == lexicographic name order by construction of
        // the NameTable; deterministic either way.
        assert_eq!(ids, [S2, S9, S11]);
    }

    #[test]
    fn iteration_is_ascending_after_out_of_order_inserts() {
        let doc = info(0);
        let mut act = Act::new();
        let mut gossip = Act::new();
        // A stride coprime to 61 visits every id in 0..61 out of order.
        for k in 0..61u32 {
            let id = ResourceId((k * 37) % 61);
            match k % 3 {
                0 => act.update(id, info(1), SimTime::ZERO),
                1 => act.refresh(id, &doc, SimTime::from_secs(2), SimTime::ZERO),
                _ => gossip.update(id, info(3), SimTime::from_secs(1)),
            }
        }
        act.merge(&gossip, ResourceId(61));
        let ids: Vec<u32> = act.iter().map(|(n, _)| n.0).collect();
        assert_eq!(ids, (0..61).collect::<Vec<_>>());
    }

    #[test]
    fn refresh_writes_in_place_only_when_the_static_part_is_shared() {
        let template = info(0);
        let mut act = Act::new();
        act.refresh(S2, &template, SimTime::from_secs(4), SimTime::from_secs(1));
        act.refresh(S2, &template, SimTime::from_secs(7), SimTime::from_secs(2));
        let row = act.get(S2).unwrap();
        assert!(row.info.shares_static_part(&template));
        assert_eq!(row.info.freetime, SimTime::from_secs(7));
        assert_eq!(row.received_at, SimTime::from_secs(2));

        // An equal but rebuilt document replaces the row outright.
        let rebuilt = info(0);
        assert_eq!(rebuilt, template);
        assert!(!rebuilt.shares_static_part(&template));
        act.refresh(S2, &rebuilt, SimTime::from_secs(9), SimTime::from_secs(3));
        let row = act.get(S2).unwrap();
        assert!(row.info.shares_static_part(&rebuilt));

        // Either way the row equals a replacement by a stamped clone.
        let mut stamped = rebuilt.clone();
        stamped.freetime = SimTime::from_secs(9);
        let mut replaced = Act::new();
        replaced.update(S2, stamped, SimTime::from_secs(3));
        assert_eq!(act.get(S2), replaced.get(S2));
    }

    #[test]
    fn merge_keeps_the_fresher_entry() {
        let mut a = Act::new();
        let mut b = Act::new();
        a.update(S2, info(10), SimTime::from_secs(5));
        b.update(S2, info(99), SimTime::from_secs(9));
        b.update(S5, info(7), SimTime::from_secs(2));
        a.merge(&b, ME);
        assert_eq!(a.get(S2).unwrap().info.freetime, SimTime::from_secs(99));
        assert_eq!(a.get(S5).unwrap().info.freetime, SimTime::from_secs(7));
        // Merging back the other way keeps b's fresher S2.
        b.merge(&a, ME);
        assert_eq!(b.get(S2).unwrap().received_at, SimTime::from_secs(9));
    }

    #[test]
    fn merge_skips_entries_about_self() {
        let mut a = Act::new();
        let mut b = Act::new();
        b.update(ME, info(1), SimTime::from_secs(1));
        b.update(S5, info(2), SimTime::from_secs(1));
        a.merge(&b, ME);
        assert!(a.get(ME).is_none());
        assert!(a.get(S5).is_some());
    }

    #[test]
    fn merge_does_not_overwrite_fresher_local_entries() {
        let mut a = Act::new();
        let mut b = Act::new();
        a.update(S2, info(50), SimTime::from_secs(20));
        b.update(S2, info(10), SimTime::from_secs(5));
        a.merge(&b, ME);
        assert_eq!(a.get(S2).unwrap().info.freetime, SimTime::from_secs(50));
    }

    #[test]
    fn clear_forgets_everything() {
        let mut act = Act::new();
        act.update(S2, info(1), SimTime::ZERO);
        act.update(S5, info(2), SimTime::ZERO);
        act.clear();
        assert!(act.is_empty());
        assert!(act.get(S2).is_none());
    }

    #[test]
    fn expire_drops_stale_entries() {
        let mut act = Act::new();
        act.update(S2, info(1), SimTime::ZERO);
        act.update(S5, info(1), SimTime::from_secs(95));
        act.expire(SimTime::from_secs(100), SimDuration::from_secs(30));
        assert!(act.get(S2).is_none());
        assert!(act.get(S5).is_some());
        assert!(!act.is_empty());
    }
}
