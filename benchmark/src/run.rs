//! What one run of a workload produces, and the timed-rep loop.

use crate::gate::Gate;
use crate::stats::{fnv1a, median};
use std::collections::BTreeMap;
use std::time::Instant;

/// Samples per end-to-end metric: one per timed rep, or a single value
/// for a metric the run yields once.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

/// Per-layer metric values of one traced run.
pub type Layers = BTreeMap<&'static str, f64>;

/// The end-to-end (untraced) run of one workload.
pub struct EndToEndRun {
    pub samples: Samples,
    /// FNV-1a of the result JSON (the simulated statistics), which is
    /// identical across the reps of a seed.
    pub fingerprint: u64,
    /// Timed reps (the warm-up is not counted).
    pub reps: usize,
}

/// Fewest timed reps of a closed-loop run, however short `seconds` is.
pub const MIN_REPS: usize = 3;

/// Run `rep(index, timed)` once untimed (caches fill, lazy set-up
/// finishes), then timed until `seconds` have been measured and at
/// least [`MIN_REPS`] reps are in. Returns the number of timed reps.
pub fn reps_for(seconds: f64, mut rep: impl FnMut(usize, bool)) -> usize {
    rep(0, false);
    let start = Instant::now();
    let mut timed = 0;
    while timed < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        timed += 1;
        rep(timed, true);
    }
    timed
}

/// The samples of a closed-loop run; holds every rep's result JSON to
/// the first rep's, byte for byte.
#[derive(Default)]
pub struct RepLog {
    samples: Samples,
    first: Option<String>,
}

impl RepLog {
    /// Check rep `rep`'s result and, when it was timed, keep its samples.
    pub fn record(
        &mut self,
        gate: &mut Gate,
        rep: usize,
        timed: bool,
        json: String,
        values: &[(&'static str, f64)],
    ) {
        match &self.first {
            None => self.first = Some(json),
            Some(first) => gate.identical(&format!("rep {rep} vs rep 0"), first, &json),
        }
        if timed {
            for (name, value) in values {
                self.samples.entry(name).or_default().push(*value);
            }
        }
    }

    pub fn finish(self, reps: usize) -> EndToEndRun {
        let json = self.first.expect("at least one rep ran");
        EndToEndRun {
            samples: self.samples,
            fingerprint: fnv1a(json.as_bytes()),
            reps,
        }
    }
}

/// What a traced run compares itself with: three untraced reps, the
/// first a warm-up. Returns the median wall of the other two and the
/// result JSON. `rep` yields `(wall_s, result JSON)`.
pub fn untraced_base(
    mut rep: impl FnMut(usize) -> Result<(f64, String), String>,
) -> Result<(f64, String), String> {
    rep(0)?;
    let (a, _) = rep(1)?;
    let (b, json) = rep(2)?;
    Ok((median(&[a, b]), json))
}
