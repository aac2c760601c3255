//! The two-part solution string (paper §2.1, Fig. 2).
//!
//! "The coding scheme we have developed for this problem consists of two
//! parts: an ordering part, which specifies the order in which the tasks
//! are to be executed and a mapping part, which specifies the allocation
//! of processing nodes to each task. The ordering of the task-allocation
//! sections in the mapping part of the string is commensurate with the
//! task order."
//!
//! `order[p]` is the index (into the scheduler's current task set) of the
//! task executed at position `p`; `mapping[p]` is the node set allocated
//! to *that* task. Legitimacy invariants: `order` is a permutation of
//! `0..m` and every mask is non-empty.

use agentgrid_cluster::NodeMask;
use rand::Rng;

/// One candidate schedule for the current optimisation set of tasks.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Solution {
    /// Task execution order: a permutation of `0..m` task indices.
    pub order: Vec<usize>,
    /// `mapping[p]` = node set for task `order[p]`. Always non-empty.
    pub mapping: Vec<NodeMask>,
}

impl Clone for Solution {
    fn clone(&self) -> Self {
        Solution {
            order: self.order.clone(),
            mapping: self.mapping.clone(),
        }
    }

    /// Copies into the existing buffers: the GA overwrites whole
    /// generations in place without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.order.clone_from(&source.order);
        self.mapping.clone_from(&source.mapping);
    }
}

impl Solution {
    /// Number of tasks the solution schedules.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True for the empty schedule.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The mask allocated to task index `task` (searches the ordering).
    pub fn mask_of_task(&self, task: usize) -> Option<NodeMask> {
        self.order
            .iter()
            .position(|t| *t == task)
            .map(|p| self.mapping[p])
    }

    /// Check the legitimacy invariants against task count `m` and node
    /// count `nproc`.
    pub fn is_legitimate(&self, m: usize, nproc: usize) -> bool {
        if self.order.len() != m || self.mapping.len() != m {
            return false;
        }
        let mut seen = vec![false; m];
        for &t in &self.order {
            if t >= m || seen[t] {
                return false;
            }
            seen[t] = true;
        }
        self.mapping
            .iter()
            .all(|mk| !mk.is_empty() && mk.clamp_to(nproc) == *mk)
    }

    /// A uniformly random legitimate solution over `m` tasks and `nproc`
    /// nodes: random permutation; each mask bit set with probability ½,
    /// repaired to non-empty.
    pub fn random(m: usize, nproc: usize, rng: &mut impl Rng) -> Solution {
        let mut order: Vec<usize> = (0..m).collect();
        // Fisher–Yates shuffle.
        for i in (1..m).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mapping = (0..m)
            .map(|_| {
                let bits: u32 = rng.gen();
                NodeMask(bits)
                    .clamp_to(nproc)
                    .ensure_nonempty(rng.gen_range(0..nproc))
            })
            .collect();
        Solution { order, mapping }
    }

    /// Remove the task with index `task` from the string and shift the
    /// indices of later tasks down by one (used when a task starts
    /// executing and leaves the optimisation set).
    pub fn remove_task(&mut self, task: usize) {
        if let Some(p) = self.order.iter().position(|t| *t == task) {
            self.order.remove(p);
            self.mapping.remove(p);
        }
        for t in &mut self.order {
            if *t > task {
                *t -= 1;
            }
        }
    }

    /// Append a new task (index `m`, the next fresh index) at a random
    /// position with a random non-empty mask (used when a request arrives
    /// and the population must absorb it).
    pub fn insert_task(&mut self, task: usize, nproc: usize, rng: &mut impl Rng) {
        let pos = if self.order.is_empty() {
            0
        } else {
            rng.gen_range(0..=self.order.len())
        };
        let mask = NodeMask(rng.gen::<u32>())
            .clamp_to(nproc)
            .ensure_nonempty(rng.gen_range(0..nproc));
        self.order.insert(pos, task);
        self.mapping.insert(pos, mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn random_solutions_are_legitimate() {
        let mut rng = SmallRng::seed_from_u64(1);
        for m in [0usize, 1, 2, 7, 20] {
            for nproc in [1usize, 3, 16, 32] {
                let s = Solution::random(m, nproc, &mut rng);
                assert!(s.is_legitimate(m, nproc), "m={m} nproc={nproc}");
                assert_eq!(s.len(), m);
            }
        }
    }

    #[test]
    fn legitimacy_rejects_duplicates_and_empty_masks() {
        let good = Solution {
            order: vec![1, 0],
            mapping: vec![NodeMask::single(0), NodeMask::single(1)],
        };
        assert!(good.is_legitimate(2, 2));

        let dup = Solution {
            order: vec![0, 0],
            mapping: vec![NodeMask::single(0), NodeMask::single(1)],
        };
        assert!(!dup.is_legitimate(2, 2));

        let empty_mask = Solution {
            order: vec![0, 1],
            mapping: vec![NodeMask::EMPTY, NodeMask::single(1)],
        };
        assert!(!empty_mask.is_legitimate(2, 2));

        let out_of_range = Solution {
            order: vec![0, 1],
            mapping: vec![NodeMask::single(5), NodeMask::single(1)],
        };
        assert!(!out_of_range.is_legitimate(2, 2));

        let wrong_len = Solution {
            order: vec![0],
            mapping: vec![NodeMask::single(0)],
        };
        assert!(!wrong_len.is_legitimate(2, 2));
    }

    #[test]
    fn mask_of_task_follows_the_ordering() {
        let s = Solution {
            order: vec![2, 0, 1],
            mapping: vec![
                NodeMask::single(5),
                NodeMask::single(3),
                NodeMask::single(7),
            ],
        };
        assert_eq!(s.mask_of_task(2), Some(NodeMask::single(5)));
        assert_eq!(s.mask_of_task(0), Some(NodeMask::single(3)));
        assert_eq!(s.mask_of_task(1), Some(NodeMask::single(7)));
        assert_eq!(s.mask_of_task(9), None);
    }

    #[test]
    fn remove_task_shifts_indices() {
        let mut s = Solution {
            order: vec![2, 0, 1],
            mapping: vec![
                NodeMask::single(5),
                NodeMask::single(3),
                NodeMask::single(7),
            ],
        };
        s.remove_task(1);
        // Former task 2 is now task 1.
        assert_eq!(s.order, vec![1, 0]);
        assert_eq!(s.mapping, vec![NodeMask::single(5), NodeMask::single(3)]);
        assert!(s.is_legitimate(2, 8));
    }

    #[test]
    fn insert_task_keeps_legitimacy() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut s = Solution::random(5, 8, &mut rng);
        s.insert_task(5, 8, &mut rng);
        assert!(s.is_legitimate(6, 8));
        assert!(s.order.contains(&5));
    }

    #[test]
    fn insert_into_empty_solution() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut s = Solution {
            order: vec![],
            mapping: vec![],
        };
        s.insert_task(0, 4, &mut rng);
        assert!(s.is_legitimate(1, 4));
    }

    #[test]
    fn remove_then_insert_roundtrip_length() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut s = Solution::random(10, 16, &mut rng);
        s.remove_task(3);
        assert!(s.is_legitimate(9, 16));
        s.insert_task(9, 16, &mut rng);
        assert!(s.is_legitimate(10, 16));
    }
}
