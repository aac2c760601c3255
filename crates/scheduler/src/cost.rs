//! The combined cost function and dynamic fitness scaling (eqs. 8–9).
//!
//! "A combined cost function is used which considers makespan, idle time
//! and deadline. ... Idle time at the front of the schedule is
//! particularly undesirable as this is the processing time which will be
//! wasted first ... Solutions that have large idle times are penalised by
//! weighting pockets of idle time ... which penalises early idle time more
//! than later idle time."
//!
//! The paper gives the combination (eq. 8) but not the idle-weighting
//! formula; we use a linear ramp from [`CostWeights::idle_early_weight`]
//! at the planning instant down to 1.0 at the makespan (DESIGN.md §5.1,
//! ablated in the `ga_ablation` bench).

use crate::decode::DecodedSchedule;

/// Weights of the combined cost function (the `W` terms of eq. 8) plus the
/// idle-weighting shape parameter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostWeights {
    /// Wᵐ: weight of the makespan ω.
    pub makespan: f64,
    /// Wⁱ: weight of the weighted idle time ϕ.
    pub idle: f64,
    /// Wᶜ: weight of the contract penalty θ.
    pub deadline: f64,
    /// Wᵃ: weight of the allocated node-time α. A small efficiency term
    /// beyond eq. 8: without it a mask that grabs extra nodes with zero
    /// speedup is cost-neutral (busy-but-useless nodes open no idle
    /// pockets), so the GA can commit needlessly wide allocations that
    /// starve later arrivals. 0.0 disables the term (ablation).
    pub alloc: f64,
    /// Multiplier applied to an idle pocket at the very front of the
    /// schedule; pockets at the makespan get 1.0, linear in between.
    /// 1.0 disables front-weighting (ablation).
    pub idle_early_weight: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            makespan: 1.0,
            idle: 0.5,
            deadline: 2.0,
            alloc: 0.08,
            idle_early_weight: 2.0,
        }
    }
}

/// The cost ingredients of one schedule, in (node-)seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduleCost {
    /// Makespan ω relative to the planning instant.
    pub makespan_s: f64,
    /// Front-weighted idle time ϕ.
    pub weighted_idle_s: f64,
    /// Contract penalty θ (total lateness).
    pub lateness_s: f64,
    /// Allocated node-time α.
    pub alloc_node_s: f64,
}

impl ScheduleCost {
    /// Extract the cost ingredients from a decoded schedule.
    pub fn of(schedule: &DecodedSchedule, weights: &CostWeights) -> ScheduleCost {
        ScheduleCost::of_parts(
            schedule.makespan_rel_s,
            &schedule.idle_pockets,
            schedule.lateness_s,
            schedule.alloc_node_s,
            weights,
        )
    }

    /// [`ScheduleCost::of`] over loose ingredients, for callers that keep
    /// the idle pockets in a reusable scratch buffer instead of a
    /// [`DecodedSchedule`]. `of` delegates here, so the two paths share
    /// one implementation and cannot drift apart numerically.
    pub fn of_parts(
        makespan_rel_s: f64,
        idle_pockets: &[(f64, f64)],
        lateness_s: f64,
        alloc_node_s: f64,
        weights: &CostWeights,
    ) -> ScheduleCost {
        let horizon = makespan_rel_s.max(1e-9);
        let ew = weights.idle_early_weight.max(1.0);
        let weighted_idle_s = idle_pockets
            .iter()
            .map(|(offset, len)| {
                let rel = (offset / horizon).clamp(0.0, 1.0);
                let w = ew - (ew - 1.0) * rel;
                w * len
            })
            .sum();
        ScheduleCost {
            makespan_s: makespan_rel_s,
            weighted_idle_s,
            lateness_s,
            alloc_node_s,
        }
    }

    /// [`ScheduleCost::of_parts`] over a structure-of-arrays pocket store
    /// (parallel `offsets`/`lengths` columns instead of `(f64, f64)`
    /// pairs). The delta evaluator keeps pockets in two contiguous `f64`
    /// columns so the weighting pass is a straight-line sweep the
    /// autovectoriser can chew on; the map/sum runs the exact float
    /// operations of `of_parts` in the same order, so the two layouts
    /// produce bit-identical costs.
    pub fn of_parts_soa(
        makespan_rel_s: f64,
        pocket_offsets: &[f64],
        pocket_lengths: &[f64],
        lateness_s: f64,
        alloc_node_s: f64,
        weights: &CostWeights,
    ) -> ScheduleCost {
        debug_assert_eq!(pocket_offsets.len(), pocket_lengths.len());
        let horizon = makespan_rel_s.max(1e-9);
        let ew = weights.idle_early_weight.max(1.0);
        let weighted_idle_s = pocket_offsets
            .iter()
            .zip(pocket_lengths)
            .map(|(offset, len)| {
                let rel = (offset / horizon).clamp(0.0, 1.0);
                let w = ew - (ew - 1.0) * rel;
                w * len
            })
            .sum();
        ScheduleCost {
            makespan_s: makespan_rel_s,
            weighted_idle_s,
            lateness_s,
            alloc_node_s,
        }
    }

    /// The combined cost value f꜀ of eq. 8 (plus the allocation term): the
    /// weighted mean of the ingredients. Lower is better.
    pub fn combined(&self, weights: &CostWeights) -> f64 {
        let total = weights.makespan + weights.idle + weights.deadline + weights.alloc;
        debug_assert!(total > 0.0, "cost weights must not all be zero");
        (weights.makespan * self.makespan_s
            + weights.idle * self.weighted_idle_s
            + weights.deadline * self.lateness_s
            + weights.alloc * self.alloc_node_s)
            / total
    }
}

/// Dynamic scaling (eq. 9): map raw cost values to fitness in `[0, 1]`
/// within one population, 1 for the best (minimum) cost and 0 for the
/// worst. Degenerate populations (all equal) get uniform fitness 1.
pub fn scale_fitness(costs: &[f64]) -> Vec<f64> {
    let mut fitness = Vec::with_capacity(costs.len());
    scale_fitness_into(costs, &mut fitness);
    fitness
}

/// [`scale_fitness`] into `fitness` (overwritten, its buffer reused).
pub fn scale_fitness_into(costs: &[f64], fitness: &mut Vec<f64>) {
    fitness.clear();
    if costs.is_empty() {
        return;
    }
    let max = costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
    let span = max - min;
    if span <= 0.0 || !span.is_finite() {
        fitness.resize(costs.len(), 1.0);
        return;
    }
    fitness.extend(costs.iter().map(|c| (max - c) / span));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(makespan: f64, pockets: Vec<(f64, f64)>, lateness: f64) -> DecodedSchedule {
        DecodedSchedule {
            placements: vec![],
            makespan: agentgrid_sim::SimTime::from_secs_f64(makespan),
            makespan_rel_s: makespan,
            idle_pockets: pockets,
            lateness_s: lateness,
            missed_deadlines: usize::from(lateness > 0.0),
            alloc_node_s: makespan,
        }
    }

    #[test]
    fn early_idle_costs_more_than_late_idle() {
        let w = CostWeights::default();
        let early = ScheduleCost::of(&schedule(100.0, vec![(0.0, 10.0)], 0.0), &w);
        let late = ScheduleCost::of(&schedule(100.0, vec![(90.0, 10.0)], 0.0), &w);
        assert!(early.weighted_idle_s > late.weighted_idle_s);
        // Front pocket gets the full early weight.
        assert!((early.weighted_idle_s - 20.0).abs() < 1e-9);
        // A pocket at 90% of the horizon is weighted 2 − 0.9 = 1.1.
        assert!((late.weighted_idle_s - 11.0).abs() < 1e-9);
    }

    #[test]
    fn unit_early_weight_disables_front_weighting() {
        let w = CostWeights {
            idle_early_weight: 1.0,
            ..CostWeights::default()
        };
        let c = ScheduleCost::of(&schedule(100.0, vec![(0.0, 10.0), (50.0, 5.0)], 0.0), &w);
        assert!((c.weighted_idle_s - 15.0).abs() < 1e-9);
    }

    #[test]
    fn combined_cost_is_a_weighted_mean() {
        let w = CostWeights {
            makespan: 1.0,
            idle: 1.0,
            deadline: 2.0,
            alloc: 1.0,
            idle_early_weight: 1.0,
        };
        let c = ScheduleCost {
            makespan_s: 40.0,
            weighted_idle_s: 8.0,
            lateness_s: 6.0,
            alloc_node_s: 10.0,
        };
        assert!((c.combined(&w) - (40.0 + 8.0 + 12.0 + 10.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn useless_extra_nodes_raise_the_combined_cost() {
        // Same makespan, no idle pockets, no lateness — only the node-time
        // differs, as when a flat-speedup task grabs extra nodes. The wide
        // allocation must lose so it cannot starve later arrivals.
        let w = CostWeights::default();
        let mut narrow = schedule(10.0, vec![], 0.0);
        narrow.alloc_node_s = 10.0;
        let mut wide = schedule(10.0, vec![], 0.0);
        wide.alloc_node_s = 40.0;
        let narrow = ScheduleCost::of(&narrow, &w).combined(&w);
        let wide = ScheduleCost::of(&wide, &w).combined(&w);
        assert!(
            wide > narrow,
            "wide {wide} must cost more than narrow {narrow}"
        );
    }

    #[test]
    fn lateness_dominates_when_weighted_heavily() {
        let w = CostWeights::default();
        let on_time = ScheduleCost::of(&schedule(50.0, vec![], 0.0), &w);
        let late = ScheduleCost::of(&schedule(45.0, vec![], 30.0), &w);
        assert!(late.combined(&w) > on_time.combined(&w));
    }

    #[test]
    fn scaling_maps_best_to_one_worst_to_zero() {
        let f = scale_fitness(&[30.0, 10.0, 20.0]);
        assert_eq!(f[0], 0.0);
        assert_eq!(f[1], 1.0);
        assert!((f[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scaling_degenerate_population_is_uniform() {
        assert_eq!(scale_fitness(&[5.0, 5.0, 5.0]), vec![1.0, 1.0, 1.0]);
        assert!(scale_fitness(&[]).is_empty());
        assert_eq!(scale_fitness(&[7.0]), vec![1.0]);
    }

    #[test]
    fn soa_pocket_layout_is_bit_identical_to_pairs() {
        let w = CostWeights::default();
        let pockets = [(0.0, 10.0), (37.5, 2.25), (90.0, 10.0), (99.9, 0.125)];
        let offsets: Vec<f64> = pockets.iter().map(|(o, _)| *o).collect();
        let lengths: Vec<f64> = pockets.iter().map(|(_, l)| *l).collect();
        let aos = ScheduleCost::of_parts(100.0, &pockets, 3.5, 41.0, &w);
        let soa = ScheduleCost::of_parts_soa(100.0, &offsets, &lengths, 3.5, 41.0, &w);
        assert_eq!(aos.weighted_idle_s.to_bits(), soa.weighted_idle_s.to_bits());
        assert_eq!(aos.combined(&w).to_bits(), soa.combined(&w).to_bits());
    }

    #[test]
    fn scaling_is_within_unit_interval() {
        let costs = [3.0, 9.5, 0.2, 7.7, 0.2];
        for f in scale_fitness(&costs) {
            assert!((0.0..=1.0).contains(&f));
        }
    }
}
