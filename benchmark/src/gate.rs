//! The correctness gate: counts operations attempted and failed, and
//! collects every broken equality. A run is correct only when nothing
//! failed and no note was written.

/// What one finished rep reports about its requests.
#[derive(Clone, Copy, Debug)]
pub struct Completions {
    pub requests: u64,
    pub completed: u64,
    pub rejected: u64,
    pub duplicates: u64,
}

#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Gate {
    /// Every request must complete exactly once and none be rejected.
    pub fn completions(&mut self, what: &str, c: Completions) {
        self.attempted += c.requests;
        let missing = c.requests.saturating_sub(c.completed);
        let failed = missing.max(c.rejected) + c.duplicates;
        if failed > 0 || c.completed != c.requests {
            self.failed += failed.max(1);
            self.notes.push(format!(
                "{what}: {} requests, {} completed, {} rejected, {} completed twice",
                c.requests, c.completed, c.rejected, c.duplicates
            ));
        }
    }

    /// Every answer of the server must be `202`; `None` is a connection
    /// error. `lines_per_post` lines ride on each answer.
    pub fn answers(&mut self, what: &str, codes: &[Option<u16>], lines_per_post: u64) {
        self.attempted += codes.len() as u64 * lines_per_post;
        let bad = codes.iter().filter(|c| **c != Some(202)).count() as u64;
        if bad > 0 {
            self.failed += bad * lines_per_post;
            self.notes.push(format!(
                "{what}: {bad} of {} answers were not 202",
                codes.len()
            ));
        }
    }

    /// Fail every operation of the run (a condition that invalidates
    /// all of its latencies).
    pub fn fail_all(&mut self, why: String) {
        self.failed = self.attempted.max(1);
        self.notes.push(why);
    }

    /// Two outputs that must be byte-identical.
    pub fn identical(&mut self, what: &str, a: &str, b: &str) {
        if a != b {
            self.notes.push(format!(
                "{what}: outputs differ ({} vs {} bytes)",
                a.len(),
                b.len()
            ));
        }
    }

    /// Any other condition of a correct run.
    pub fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.notes.push(why());
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.max(1)
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted() as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.notes.is_empty()
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// The process exit code the gate asks for.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_run_passes() {
        let mut g = Gate::default();
        g.completions(
            "rep 0",
            Completions {
                requests: 600,
                completed: 600,
                rejected: 0,
                duplicates: 0,
            },
        );
        g.answers("posts", &[Some(202); 4], 2);
        g.identical("reps", "{}", "{}");
        assert!(g.correct());
        assert_eq!(g.exit_code(), 0);
        assert_eq!((g.attempted(), g.failed()), (608, 0));
        assert_eq!(g.failed_share(), 0.0);
    }

    #[test]
    fn one_missing_completion_and_one_refused_post_fail_the_gate() {
        let mut g = Gate::default();
        g.completions(
            "rep 0",
            Completions {
                requests: 600,
                completed: 599,
                rejected: 0,
                duplicates: 0,
            },
        );
        g.answers("posts", &[Some(202), Some(429), Some(202)], 2);
        assert!(!g.correct());
        assert_ne!(g.exit_code(), 0);
        assert_eq!(g.failed(), 1 + 2);
        assert!(g.failed_share() > 0.0);
        assert_eq!(g.notes().len(), 2);
    }

    #[test]
    fn a_connection_error_a_duplicate_and_a_diff_each_fail_it() {
        let mut g = Gate::default();
        g.answers("posts", &[None], 2);
        assert_eq!(g.failed(), 2);

        let mut g = Gate::default();
        g.completions(
            "rep",
            Completions {
                requests: 10,
                completed: 10,
                rejected: 0,
                duplicates: 1,
            },
        );
        assert_eq!(g.failed(), 1);

        let mut g = Gate::default();
        g.identical("recovered vs live", "a", "b");
        assert!(!g.correct());
        assert_eq!(
            g.failed(),
            0,
            "a diff is a wrong output, not a failed operation"
        );

        let mut g = Gate::default();
        g.answers("posts", &[Some(202); 5], 2);
        g.fail_all("sim clock 1.4 s behind schedule".into());
        assert_eq!(g.failed_share(), 1.0);
    }
}
