//! Two-part crossover and mutation (paper §2.1).
//!
//! "The crossover function first splices the two ordering strings at a
//! random location, and then reorders the pairs to produce legitimate
//! solutions. The mapping parts are crossed over by first reordering them
//! to be consistent with the new task order, and then performing a
//! single-point (binary) crossover. The reordering is necessary to
//! preserve the node mapping associated with a particular task from one
//! generation to the next. The mutation stage is also two-part, with a
//! switching operator randomly applied to the ordering parts, and a random
//! bit-flip applied to the mapping parts."

use crate::solution::Solution;
use agentgrid_cluster::{NodeMask, MAX_NODES};
use rand::Rng;

/// Order-splice crossover of the ordering parts plus single-point binary
/// crossover of the (task-consistent, reordered) mapping parts. Returns
/// two legitimate children.
pub fn crossover(
    a: &Solution,
    b: &Solution,
    nproc: usize,
    rng: &mut impl Rng,
) -> (Solution, Solution) {
    let (mut child1, mut child2) = (Solution::default(), Solution::default());
    crossover_into(a, b, nproc, rng, &mut child1, &mut child2, &mut Vec::new());
    (child1, child2)
}

/// [`crossover`] writing the children over `child1` and `child2` in
/// place, reusing their buffers and `taken` (scratch, any contents) — no
/// allocation once the buffers have grown to the task count.
pub fn crossover_into(
    a: &Solution,
    b: &Solution,
    nproc: usize,
    rng: &mut impl Rng,
    child1: &mut Solution,
    child2: &mut Solution,
    taken: &mut Vec<bool>,
) {
    let m = a.len();
    debug_assert_eq!(m, b.len(), "parents must schedule the same task set");
    if m < 2 {
        child1.clone_from(a);
        child2.clone_from(b);
        return;
    }

    let cut = rng.gen_range(1..m);
    splice_into(a, b, cut, child1, taken);
    splice_into(b, a, cut, child2, taken);

    // Single-point binary crossover over the concatenated mapping strings
    // (m × nproc bits). Positions wholly below the point keep their own
    // masks, positions above swap, the straddling position splices bits.
    let total_bits = m * nproc;
    let point = rng.gen_range(0..=total_bits);
    for p in 0..m {
        let lo = p * nproc;
        let hi = lo + nproc;
        if point <= lo {
            std::mem::swap(&mut child1.mapping[p], &mut child2.mapping[p]);
        } else if point < hi {
            let m1 = child1.mapping[p];
            let m2 = child2.mapping[p];
            child1.mapping[p] = m1.crossover(m2, point - lo);
            child2.mapping[p] = m2.crossover(m1, point - lo);
        }
        // point >= hi: both keep their own masks.
    }

    repair(child1, nproc, rng);
    repair(child2, nproc, rng);
}

/// Build one child in `out`: `first`'s ordering prefix up to `cut`, then
/// the remaining tasks in the relative order they appear in `second`;
/// each task keeps the node mapping it had in the parent that
/// contributed it.
fn splice_into(
    first: &Solution,
    second: &Solution,
    cut: usize,
    out: &mut Solution,
    taken: &mut Vec<bool>,
) {
    out.order.clear();
    out.mapping.clear();
    taken.clear();
    taken.resize(first.len(), false);
    for p in 0..cut {
        let t = first.order[p];
        taken[t] = true;
        out.order.push(t);
        out.mapping.push(first.mapping[p]);
    }
    for (p, &t) in second.order.iter().enumerate() {
        if !taken[t] {
            out.order.push(t);
            out.mapping.push(second.mapping[p]);
        }
    }
}

/// The integer form of the per-bit test `rng.gen::<f64>() < rate`.
///
/// `gen::<f64>()` is `(u >> 11) · 2⁻⁵³` for the next `u64` `u`, and both
/// the conversion of a 53-bit integer and the scaling by a power of two
/// are exact in `f64`, as is `rate · 2⁵³`. So the draw is below `rate`
/// exactly when the integer `u >> 11` is below the real `rate · 2⁵³`,
/// i.e. below its ceiling. Rates ≤ 0 (and NaN) give 0, which no draw
/// beats; rates ≥ 1 give at least 2⁵³, which every draw beats.
fn flip_threshold(rate: f64) -> u64 {
    (rate * (1u64 << 53) as f64).ceil() as u64
}

/// Two-part mutation: with probability `order_rate` switch two random
/// ordering positions; flip each mapping bit with probability `bit_rate`.
///
/// The bit flips consume one `u64` per node bit, mask by mask, exactly as
/// a `gen::<f64>() < bit_rate` test per bit would; each mask's `nproc`
/// draws arrive in one [`rand::RngCore::fill_bytes`] call and become a
/// flip mask through [`flip_threshold`].
pub fn mutate(s: &mut Solution, nproc: usize, order_rate: f64, bit_rate: f64, rng: &mut impl Rng) {
    let m = s.len();
    if m == 0 {
        return;
    }
    if m >= 2 && rng.gen::<f64>() < order_rate {
        let i = rng.gen_range(0..m);
        let j = rng.gen_range(0..m);
        s.order.swap(i, j);
    }
    if bit_rate > 0.0 {
        let threshold = flip_threshold(bit_rate);
        let mut bytes = [0u8; 8 * MAX_NODES];
        let draws = &mut bytes[..8 * nproc];
        for mask in &mut s.mapping {
            rng.fill_bytes(draws);
            let mut flips = 0u32;
            for (bit, d) in draws.chunks_exact(8).enumerate() {
                let u = u64::from_le_bytes(d.try_into().expect("8-byte draw"));
                flips |= u32::from((u >> 11) < threshold) << bit;
            }
            *mask = NodeMask(mask.0 ^ flips);
        }
    }
    repair(s, nproc, rng);
}

/// Repair masks to the legitimate domain: clamp to the resource size and
/// replace empty masks with a random single node.
fn repair(s: &mut Solution, nproc: usize, rng: &mut impl Rng) {
    for mask in &mut s.mapping {
        *mask = mask.clamp_to(nproc);
        if mask.is_empty() {
            *mask = NodeMask::single(rng.gen_range(0..nproc));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn crossover_children_are_legitimate() {
        let mut r = rng(1);
        for m in [2usize, 5, 12, 30] {
            for nproc in [1usize, 4, 16] {
                let a = Solution::random(m, nproc, &mut r);
                let b = Solution::random(m, nproc, &mut r);
                for _ in 0..20 {
                    let (c1, c2) = crossover(&a, &b, nproc, &mut r);
                    assert!(c1.is_legitimate(m, nproc), "m={m} n={nproc}");
                    assert!(c2.is_legitimate(m, nproc), "m={m} n={nproc}");
                }
            }
        }
    }

    #[test]
    fn crossover_prefix_comes_from_first_parent() {
        // With m=2 the cut is always 1: child1's first task is a's first.
        let mut r = rng(2);
        let a = Solution {
            order: vec![1, 0],
            mapping: vec![NodeMask::single(0), NodeMask::single(1)],
        };
        let b = Solution {
            order: vec![0, 1],
            mapping: vec![NodeMask::single(2), NodeMask::single(3)],
        };
        for _ in 0..10 {
            let (c1, c2) = crossover(&a, &b, 4, &mut r);
            assert_eq!(c1.order, vec![1, 0]);
            assert_eq!(c2.order, vec![0, 1]);
        }
    }

    #[test]
    fn crossover_single_task_returns_clones() {
        let mut r = rng(3);
        let a = Solution::random(1, 4, &mut r);
        let b = Solution::random(1, 4, &mut r);
        let (c1, c2) = crossover(&a, &b, 4, &mut r);
        assert_eq!(c1, a);
        assert_eq!(c2, b);
    }

    #[test]
    fn crossover_recombines_masks_between_parents() {
        // With all-different parent masks, some child mask must differ
        // from the same-position parent mask at least occasionally.
        let mut r = rng(4);
        let m = 8;
        let nproc = 8;
        let a = Solution {
            order: (0..m).collect(),
            mapping: vec![NodeMask::first_n(3); m],
        };
        let b = Solution {
            order: (0..m).collect(),
            mapping: vec![NodeMask::from_indices([5, 6, 7]); m],
        };
        let mut saw_mixture = false;
        for _ in 0..50 {
            let (c1, _) = crossover(&a, &b, nproc, &mut r);
            let from_a = c1.mapping.iter().filter(|mk| **mk == a.mapping[0]).count();
            let from_b = c1.mapping.iter().filter(|mk| **mk == b.mapping[0]).count();
            if from_a > 0 && from_b > 0 {
                saw_mixture = true;
                break;
            }
        }
        assert!(saw_mixture, "crossover never mixed parent mapping material");
    }

    #[test]
    fn mutation_preserves_legitimacy() {
        let mut r = rng(5);
        for _ in 0..100 {
            let mut s = Solution::random(10, 16, &mut r);
            mutate(&mut s, 16, 1.0, 0.2, &mut r);
            assert!(s.is_legitimate(10, 16));
        }
    }

    #[test]
    fn zero_rates_leave_solution_unchanged() {
        let mut r = rng(6);
        let s0 = Solution::random(6, 8, &mut r);
        let mut s = s0.clone();
        mutate(&mut s, 8, 0.0, 0.0, &mut r);
        assert_eq!(s, s0);
    }

    #[test]
    fn order_mutation_changes_order_eventually() {
        let mut r = rng(7);
        let s0 = Solution::random(6, 8, &mut r);
        let mut changed = false;
        for _ in 0..50 {
            let mut s = s0.clone();
            mutate(&mut s, 8, 1.0, 0.0, &mut r);
            if s.order != s0.order {
                changed = true;
                break;
            }
        }
        assert!(changed);
    }

    #[test]
    fn bit_mutation_flips_bits_eventually() {
        let mut r = rng(8);
        let s0 = Solution::random(6, 8, &mut r);
        let mut changed = false;
        for _ in 0..50 {
            let mut s = s0.clone();
            mutate(&mut s, 8, 0.0, 0.3, &mut r);
            if s.mapping != s0.mapping {
                changed = true;
                break;
            }
        }
        assert!(changed);
    }

    /// Explicit check of the two legitimacy clauses, independent of
    /// `is_legitimate`: the ordering is a permutation of `0..m` and every
    /// mapping mask is non-empty and within the resource.
    fn assert_valid(s: &Solution, m: usize, nproc: usize, ctx: &str) {
        let mut seen = vec![false; m];
        for &t in &s.order {
            assert!(t < m, "{ctx}: ordering references task {t} >= {m}");
            assert!(!seen[t], "{ctx}: task {t} appears twice in the ordering");
            seen[t] = true;
        }
        assert!(
            seen.iter().all(|&v| v),
            "{ctx}: ordering is not a permutation"
        );
        assert_eq!(s.mapping.len(), m, "{ctx}: mapping length");
        for (p, mask) in s.mapping.iter().enumerate() {
            assert!(!mask.is_empty(), "{ctx}: empty mask at position {p}");
            assert!(
                mask.iter().all(|bit| bit < nproc),
                "{ctx}: mask at position {p} references a node >= {nproc}"
            );
        }
    }

    #[test]
    fn operators_preserve_validity_across_many_seeds() {
        // A long chained stress: generations of crossover + aggressive
        // mutation, each product checked bit by bit. Covers the corner
        // sizes (m=1, nproc=1, nproc=32-clamp) the happy path misses.
        for seed in 0..60u64 {
            let mut r = rng(seed);
            let m = 1 + (seed as usize % 9);
            let nproc = 1 + (seed as usize % 5) * 7; // 1, 8, 15, 22, 29
            let mut a = Solution::random(m, nproc, &mut r);
            let mut b = Solution::random(m, nproc, &mut r);
            assert_valid(&a, m, nproc, &format!("seed {seed} parent a"));
            assert_valid(&b, m, nproc, &format!("seed {seed} parent b"));
            for gen in 0..25 {
                let (mut c1, mut c2) = crossover(&a, &b, nproc, &mut r);
                mutate(&mut c1, nproc, 0.9, 0.5, &mut r);
                mutate(&mut c2, nproc, 0.9, 0.5, &mut r);
                let ctx = format!("seed {seed} gen {gen} (m={m} nproc={nproc})");
                assert_valid(&c1, m, nproc, &ctx);
                assert_valid(&c2, m, nproc, &ctx);
                assert!(c1.is_legitimate(m, nproc), "{ctx}");
                assert!(c2.is_legitimate(m, nproc), "{ctx}");
                a = c1;
                b = c2;
            }
        }
    }

    /// A generator that hands out one fixed `u64`: `Fixed(u).gen::<f64>()`
    /// is the `f64` draw the stream would make from `u`.
    struct Fixed(u64);

    impl rand::RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn flip_threshold_decides_exactly_like_the_f64_draw() {
        use rand::RngCore;
        let mut r = rng(2003);
        let two53 = 1u64 << 53;
        for p in [2f64.powi(-53), 0.02, 0.35, 0.5, 1.0 - 2f64.powi(-53), 1.0] {
            let t = flip_threshold(p);
            // The draws either side of the threshold, with the eleven
            // discarded low bits both clear and set.
            let edges = [t.saturating_sub(1), t, t + 1]
                .into_iter()
                .map(|x| x.min(two53 - 1) << 11)
                .flat_map(|u| [u, u | 0x7ff]);
            for u in (0..1_000_000).map(|_| r.next_u64()).chain(edges) {
                assert_eq!(
                    Fixed(u).gen::<f64>() < p,
                    (u >> 11) < t,
                    "p = {p}, u = {u:#x}"
                );
            }
        }
        assert_eq!(flip_threshold(0.0), 0);
        assert_eq!(flip_threshold(-1.0), 0);
        assert_eq!(flip_threshold(f64::NAN), 0);
        assert_eq!(flip_threshold(1.0), two53);
    }

    /// The per-bit `f64` mutation the bulk kernel replaced: the
    /// reference it must replay draw for draw.
    fn mutate_per_bit(
        s: &mut Solution,
        nproc: usize,
        order_rate: f64,
        bit_rate: f64,
        rng: &mut impl Rng,
    ) {
        let m = s.len();
        if m == 0 {
            return;
        }
        if m >= 2 && rng.gen::<f64>() < order_rate {
            let i = rng.gen_range(0..m);
            let j = rng.gen_range(0..m);
            s.order.swap(i, j);
        }
        if bit_rate > 0.0 {
            for mask in &mut s.mapping {
                for bit in 0..nproc {
                    if rng.gen::<f64>() < bit_rate {
                        mask.toggle(bit);
                    }
                }
            }
        }
        repair(s, nproc, rng);
    }

    fn assert_mutation_replays_reference<R: Rng + Clone>(mut a: R, label: &str) {
        let cases = [
            (1usize, 0.5),
            (4, 0.02),
            (16, 0.02),
            (16, 0.35),
            (29, 0.5),
            (32, 1.0),
            (8, 2f64.powi(-53)),
            (8, 0.0),
        ];
        for (nproc, bit_rate) in cases {
            for m in [1usize, 2, 12] {
                let base = Solution::random(m, nproc, &mut a);
                let mut b = a.clone();
                let (mut x, mut y) = (base.clone(), base);
                mutate(&mut x, nproc, 0.35, bit_rate, &mut a);
                mutate_per_bit(&mut y, nproc, 0.35, bit_rate, &mut b);
                let ctx = format!("{label}: nproc {nproc}, rate {bit_rate}, m {m}");
                assert_eq!(x, y, "{ctx}");
                assert_eq!(a.next_u64(), b.next_u64(), "{ctx}: stream position");
            }
        }
    }

    #[test]
    fn bulk_mutation_replays_the_per_bit_reference() {
        for seed in 0..40 {
            // ChaCha8 overrides fill_bytes; SmallRng takes the default.
            let stream = agentgrid_sim::RngStream::root(seed).derive("mutate");
            assert_mutation_replays_reference(stream, "chacha8");
            assert_mutation_replays_reference(rng(seed), "small");
        }
    }

    #[test]
    fn crossover_into_reused_buffers_matches_crossover() {
        let mut r = rng(10);
        // Buffers left over from unrelated, differently sized solutions.
        let mut c1 = Solution::random(7, 3, &mut r);
        let mut c2 = Solution::random(2, 3, &mut r);
        let mut taken = vec![true; 40];
        for m in [1usize, 2, 5, 12, 30] {
            for nproc in [1usize, 4, 16] {
                let a = Solution::random(m, nproc, &mut r);
                let b = Solution::random(m, nproc, &mut r);
                let mut r2 = r.clone();
                let want = crossover(&a, &b, nproc, &mut r);
                crossover_into(&a, &b, nproc, &mut r2, &mut c1, &mut c2, &mut taken);
                assert_eq!((&c1, &c2), (&want.0, &want.1), "m {m} nproc {nproc}");
                assert_eq!(r.gen::<u64>(), r2.gen::<u64>(), "m {m} nproc {nproc}");
            }
        }
    }

    #[test]
    fn mutation_on_empty_solution_is_noop() {
        let mut r = rng(9);
        let mut s = Solution {
            order: vec![],
            mapping: vec![],
        };
        mutate(&mut s, 8, 1.0, 1.0, &mut r);
        assert!(s.is_empty());
    }
}
