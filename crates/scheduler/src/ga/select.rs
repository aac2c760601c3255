//! Stochastic remainder selection.
//!
//! Each individual's expected copy count is `eᵢ = fᵢ · target / Σf`. The
//! integer part is awarded deterministically; the remaining slots are
//! filled by Bernoulli trials on the fractional parts, scanned cyclically.
//! This keeps selection pressure low-variance (the deterministic part)
//! while still admitting weak individuals occasionally (the stochastic
//! remainder) — the classic Goldberg formulation the paper names.

use rand::Rng;

/// Select `target` parent indices from `fitness` (non-negative values,
/// higher is better). Always returns exactly `target` indices (possibly
/// with repeats). Degenerate inputs (all-zero fitness) fall back to a
/// uniform cyclic fill.
pub fn stochastic_remainder(fitness: &[f64], target: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut selected = Vec::with_capacity(target);
    stochastic_remainder_into(fitness, target, rng, &mut selected, &mut Vec::new());
    selected
}

/// [`stochastic_remainder`] into `selected` (overwritten), with
/// `remainders` as reusable scratch — no allocation once both buffers
/// have grown.
pub fn stochastic_remainder_into(
    fitness: &[f64],
    target: usize,
    rng: &mut impl Rng,
    selected: &mut Vec<usize>,
    remainders: &mut Vec<f64>,
) {
    selected.clear();
    let n = fitness.len();
    if n == 0 || target == 0 {
        return;
    }
    let sum: f64 = fitness
        .iter()
        .copied()
        .filter(|f| f.is_finite() && *f > 0.0)
        .sum();
    if sum <= 0.0 {
        selected.extend((0..target).map(|i| i % n));
        return;
    }

    remainders.clear();
    for (i, &f) in fitness.iter().enumerate() {
        let f = if f.is_finite() && f > 0.0 { f } else { 0.0 };
        let expected = f * target as f64 / sum;
        let copies = expected.floor() as usize;
        for _ in 0..copies.min(target) {
            selected.push(i);
        }
        remainders.push(expected - expected.floor());
    }
    selected.truncate(target);

    // Fill remaining slots by cyclic Bernoulli trials on the remainders.
    let mut i = 0usize;
    let mut dry_scans = 0usize;
    while selected.len() < target {
        if remainders[i] > 0.0 && rng.gen::<f64>() < remainders[i] {
            selected.push(i);
            dry_scans = 0;
        }
        i = (i + 1) % n;
        if i == 0 {
            dry_scans += 1;
            // All remainders ≈ 0 (pure integer expectations): fill
            // uniformly rather than spinning.
            if dry_scans > 4 {
                while selected.len() < target {
                    selected.push(rng.gen_range(0..n));
                }
            }
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
    fn returns_exactly_target_indices() {
        let mut r = rng(1);
        for target in [0usize, 1, 7, 40] {
            let sel = stochastic_remainder(&[0.2, 0.9, 0.5], target, &mut r);
            assert_eq!(sel.len(), target);
            assert!(sel.iter().all(|i| *i < 3));
        }
    }

    #[test]
    fn integer_expectations_are_deterministic() {
        // fitness [3, 1], target 4 → expectations [3, 1]: exactly 3 copies
        // of 0 and 1 copy of 1, no randomness involved.
        let mut r = rng(2);
        let sel = stochastic_remainder(&[3.0, 1.0], 4, &mut r);
        assert_eq!(sel.iter().filter(|i| **i == 0).count(), 3);
        assert_eq!(sel.iter().filter(|i| **i == 1).count(), 1);
    }

    #[test]
    fn fitter_individuals_are_selected_more_often() {
        let mut r = rng(3);
        let mut counts = [0usize; 3];
        for _ in 0..200 {
            for i in stochastic_remainder(&[0.1, 0.3, 0.6], 10, &mut r) {
                counts[i] += 1;
            }
        }
        assert!(counts[2] > counts[1]);
        assert!(counts[1] > counts[0]);
        // Expected proportions 1:3:6 within loose bounds.
        let total = counts.iter().sum::<usize>() as f64;
        assert!((counts[2] as f64 / total - 0.6).abs() < 0.05);
    }

    #[test]
    fn all_zero_fitness_falls_back_to_uniform() {
        let mut r = rng(4);
        let sel = stochastic_remainder(&[0.0, 0.0, 0.0], 9, &mut r);
        assert_eq!(sel.len(), 9);
        for i in 0..3 {
            assert_eq!(sel.iter().filter(|x| **x == i).count(), 3);
        }
    }

    #[test]
    fn handles_nan_and_negative_fitness() {
        let mut r = rng(5);
        let sel = stochastic_remainder(&[f64::NAN, -1.0, 2.0], 6, &mut r);
        assert_eq!(sel.len(), 6);
        // Only the valid individual can receive deterministic copies.
        assert!(sel.iter().filter(|i| **i == 2).count() >= 5);
    }

    #[test]
    fn empty_population_yields_empty_selection() {
        let mut r = rng(6);
        assert!(stochastic_remainder(&[], 5, &mut r).is_empty());
    }

    #[test]
    fn single_individual_gets_all_slots() {
        let mut r = rng(7);
        let sel = stochastic_remainder(&[0.4], 5, &mut r);
        assert_eq!(sel, vec![0; 5]);
    }
}
