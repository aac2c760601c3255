//! Property tests for the cluster substrate.

use agentgrid_cluster::{GridResource, NodeMask};
use agentgrid_pace::Platform;
use agentgrid_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_mask() -> impl Strategy<Value = NodeMask> {
    any::<u32>().prop_map(NodeMask)
}

proptest! {
    /// NodeMask set operations agree with a BTreeSet reference model.
    #[test]
    fn mask_agrees_with_reference_sets(a in arb_mask(), b in arb_mask()) {
        let set_a: BTreeSet<usize> = a.iter().collect();
        let set_b: BTreeSet<usize> = b.iter().collect();
        prop_assert_eq!(a.count(), set_a.len());
        let and: BTreeSet<usize> = a.and(b).iter().collect();
        let or: BTreeSet<usize> = a.or(b).iter().collect();
        prop_assert_eq!(and, set_a.intersection(&set_b).copied().collect::<BTreeSet<_>>());
        prop_assert_eq!(or, set_a.union(&set_b).copied().collect::<BTreeSet<_>>());
        for i in 0..32 {
            prop_assert_eq!(a.contains(i), set_a.contains(&i));
        }
    }

    /// Crossover at any point preserves each bit from one of the parents
    /// and is the identity at the extremes.
    #[test]
    fn mask_crossover_bits_come_from_parents(a in arb_mask(), b in arb_mask(), point in 0usize..=32) {
        let c = a.crossover(b, point);
        for i in 0..32 {
            let expected = if i < point { a.contains(i) } else { b.contains(i) };
            prop_assert_eq!(c.contains(i), expected, "bit {} point {}", i, point);
        }
        prop_assert_eq!(a.crossover(b, 32), a);
        prop_assert_eq!(a.crossover(b, 0), b);
    }

    /// clamp then ensure_nonempty always yields a legal allocation mask.
    #[test]
    fn clamp_and_repair_yield_legal_masks(m in arb_mask(), nproc in 1usize..=32) {
        let repaired = m.clamp_to(nproc).ensure_nonempty(0);
        prop_assert!(!repaired.is_empty());
        prop_assert!(repaired.iter().all(|i| i < nproc));
    }

    /// The free-time ledger: committing non-overlapping sequential work
    /// keeps per-node free times equal to the last committed end, and
    /// busy-seconds equals the sum of node-interval lengths.
    #[test]
    fn ledger_tracks_commits(
        jobs in proptest::collection::vec((any::<u32>(), 1u64..50), 1..30),
        nproc in 1usize..=16,
    ) {
        let mut r = GridResource::new("R", Platform::sgi_origin2000(), nproc);
        let mut expected_busy = 0.0f64;
        for (id, (mask_bits, dur)) in jobs.into_iter().enumerate() {
            let mask = NodeMask(mask_bits).clamp_to(nproc).ensure_nonempty(0);
            // Sequential: start when every node in the mask is free.
            let start = r.free_time_of(mask);
            let end = start + agentgrid_sim::SimDuration::from_secs(dur);
            r.commit(id as u64, mask, start, end);
            expected_busy += mask.count() as f64 * dur as f64;
            for i in mask.iter() {
                prop_assert_eq!(r.node_free_at(i), end);
            }
        }
        prop_assert!((r.busy_node_seconds() - expected_busy).abs() < 1e-6);
        // Makespan is the max node free time.
        let max_free = (0..nproc).map(|i| r.node_free_at(i)).max().unwrap();
        prop_assert_eq!(r.makespan(), max_free);
    }

    /// earliest_k_nodes returns exactly min(k, available) nodes and they
    /// are the ones with the smallest free times.
    #[test]
    fn earliest_k_picks_minimal_free_times(
        frees in proptest::collection::vec(0u64..100, 1..16),
        k in 1usize..16,
    ) {
        let nproc = frees.len();
        let mut r = GridResource::new("R", Platform::sgi_origin2000(), nproc);
        for (i, f) in frees.iter().enumerate() {
            if *f > 0 {
                r.commit(i as u64, NodeMask::single(i), SimTime::ZERO, SimTime::from_secs(*f));
            }
        }
        let mask = r.earliest_k_nodes(k);
        prop_assert_eq!(mask.count(), k.min(nproc));
        // No excluded node may be strictly earlier than an included one
        // (ties broken by index are fine).
        let max_included = mask.iter().map(|i| r.node_free_at(i)).max().unwrap();
        for i in 0..nproc {
            if !mask.contains(i) {
                prop_assert!(r.node_free_at(i) >= max_included
                    || mask.iter().all(|j| r.node_free_at(j) <= r.node_free_at(i)));
            }
        }
    }

    /// The cached makespan equals the fold over the node ledger after
    /// every `commit`, `abort_running` and `reset`, in any order.
    #[test]
    fn cached_makespan_equals_the_fold(
        ops in proptest::collection::vec((0u8..10, any::<u32>(), 1u64..50, 0u64..30), 1..60),
        nproc in 1usize..=16,
    ) {
        let mut r = GridResource::new("R", Platform::sgi_origin2000(), nproc);
        let mut now = SimTime::ZERO;
        // Crashes only truncate allocations that already started.
        let mut latest_start = SimTime::ZERO;
        for (id, (kind, mask_bits, dur, gap)) in ops.into_iter().enumerate() {
            now += agentgrid_sim::SimDuration::from_secs(gap);
            match kind {
                0..=5 => {
                    let mask = NodeMask(mask_bits).clamp_to(nproc).ensure_nonempty(0);
                    let start = r.free_time_of(mask).max(now);
                    let end = start + agentgrid_sim::SimDuration::from_secs(dur);
                    r.commit(id as u64, mask, start, end);
                    latest_start = latest_start.max(start);
                }
                6..=8 => {
                    now = now.max(latest_start);
                    r.abort_running(now);
                }
                _ => {
                    r.reset();
                    latest_start = SimTime::ZERO;
                }
            }
            let fold = (0..nproc).map(|i| r.node_free_at(i)).fold(SimTime::ZERO, SimTime::max);
            prop_assert_eq!(r.makespan(), fold);
        }
    }
}
