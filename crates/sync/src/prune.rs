//! Parallel-module synchronization pruning (paper §4.2, case 2).

/// One concurrently executing module as seen by the synchronizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleSync {
    /// Module name (for reports).
    pub name: String,
    /// Statically known latency in cycles, or `None` for dynamic latency.
    pub latency: Option<u64>,
}

impl ModuleSync {
    /// A module with fixed latency.
    pub fn fixed(name: impl Into<String>, latency: u64) -> Self {
        ModuleSync {
            name: name.into(),
            latency: Some(latency),
        }
    }

    /// A module with dynamic (data-dependent) latency.
    pub fn dynamic(name: impl Into<String>) -> Self {
        ModuleSync {
            name: name.into(),
            latency: None,
        }
    }
}

/// The pruned synchronization plan: which modules' `done` signals the FSM
/// still waits on, and which are provably redundant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncPlan {
    /// Indices of modules that must be waited on.
    pub wait: Vec<usize>,
    /// Indices whose `done` is pruned.
    pub pruned: Vec<usize>,
}

impl SyncPlan {
    /// Fan-in of the done-reduce tree after pruning.
    pub fn reduce_width(&self) -> usize {
        self.wait.len()
    }
}

/// Prunes the synchronization of parallel modules with static latencies:
/// "the key idea is to only wait for the part with the longest latency".
///
/// A fixed-latency module is redundant iff some waited module's latency is
/// at least as large (it is guaranteed to have finished by then). Modules
/// with dynamic latency can never be pruned — the paper leaves those to
/// future work (see [`prune_sync_bounded`] for the interval extension).
pub fn prune_sync(modules: &[ModuleSync]) -> SyncPlan {
    let max_static = modules
        .iter()
        .enumerate()
        .filter_map(|(i, m)| m.latency.map(|l| (l, i)))
        .max();
    let mut wait = Vec::new();
    let mut pruned = Vec::new();
    for (i, m) in modules.iter().enumerate() {
        match (m.latency, max_static) {
            (None, _) => wait.push(i),
            (Some(_), Some((_, rep))) if i == rep => wait.push(i),
            (Some(_), Some(_)) => pruned.push(i),
            (Some(_), None) => unreachable!("a static module implies a max"),
        }
    }
    SyncPlan { wait, pruned }
}

/// Latency interval of a module whose exact cycle count is data-dependent
/// but boundable (e.g. a loop with variable bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyRange {
    /// Guaranteed minimum latency, cycles.
    pub min: u64,
    /// Guaranteed maximum latency, cycles.
    pub max: u64,
}

/// Interval extension of [`prune_sync`] (beyond the paper, which lists
/// variable-bound loops as future work): module `i` may be pruned iff some
/// *waited* module `j` satisfies `min_j >= max_i` — then `j` finishing
/// implies `i` has finished, under every execution.
///
/// Greedy construction: modules are examined in decreasing `max`; each is
/// pruned if already covered by a waited module, otherwise waited on.
pub fn prune_sync_bounded(bounds: &[LatencyRange]) -> SyncPlan {
    let mut order: Vec<usize> = (0..bounds.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(bounds[i].max));
    let mut wait: Vec<usize> = Vec::new();
    let mut pruned: Vec<usize> = Vec::new();
    for &i in &order {
        if wait.iter().any(|&j| bounds[j].min >= bounds[i].max) {
            pruned.push(i);
        } else {
            wait.push(i);
        }
    }
    wait.sort_unstable();
    pruned.sort_unstable();
    SyncPlan { wait, pruned }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_rng::Rng;

    fn range(min: u64, max: u64) -> LatencyRange {
        LatencyRange { min, max }
    }

    #[test]
    fn waits_only_on_longest_static() {
        let plan = prune_sync(&[
            ModuleSync::fixed("a", 5),
            ModuleSync::fixed("b", 20),
            ModuleSync::fixed("c", 20),
            ModuleSync::fixed("d", 3),
        ]);
        assert_eq!(plan.wait.len(), 1);
        assert!(plan.wait[0] == 1 || plan.wait[0] == 2);
        assert_eq!(plan.reduce_width(), 1);
        assert_eq!(plan.pruned.len(), 3);
    }

    #[test]
    fn dynamic_modules_are_never_pruned() {
        let plan = prune_sync(&[
            ModuleSync::fixed("a", 100),
            ModuleSync::dynamic("b"),
            ModuleSync::fixed("c", 2),
            ModuleSync::dynamic("d"),
        ]);
        assert!(plan.wait.contains(&1));
        assert!(plan.wait.contains(&3));
        assert!(plan.wait.contains(&0)); // longest static stays
        assert_eq!(plan.pruned, vec![2]);
    }

    #[test]
    fn all_dynamic_means_no_pruning() {
        let plan = prune_sync(&[ModuleSync::dynamic("a"), ModuleSync::dynamic("b")]);
        assert_eq!(plan.wait, vec![0, 1]);
        assert!(plan.pruned.is_empty());
    }

    #[test]
    fn empty_input() {
        let plan = prune_sync(&[]);
        assert!(plan.wait.is_empty() && plan.pruned.is_empty());
    }

    #[test]
    fn bounded_pruning_respects_overlap() {
        // [10, 30] cannot cover [5, 15] (min 10 < max 15), but [20, 30]
        // covers [5, 15].
        let plan = prune_sync_bounded(&[range(10, 30), range(5, 15)]);
        assert_eq!(plan.wait, vec![0, 1], "overlapping ranges both waited");

        let plan2 = prune_sync_bounded(&[range(20, 30), range(5, 15)]);
        assert_eq!(plan2.wait, vec![0]);
        assert_eq!(plan2.pruned, vec![1]);
    }

    #[test]
    fn bounded_reduces_to_exact_case() {
        let plan = prune_sync_bounded(&[range(5, 5), range(20, 20), range(3, 3)]);
        assert_eq!(plan.wait, vec![1]);
        assert_eq!(plan.pruned, vec![0, 2]);
    }

    #[test]
    fn plan_partitions_modules() {
        let mut rng = Rng::seed_from_u64(0x5CA1_0001);
        for _ in 0..256 {
            let len = rng.gen_index(20);
            let lats: Vec<Option<u64>> = (0..len)
                .map(|_| rng.gen_bool(0.5).then(|| rng.gen_u64(0, 999)))
                .collect();
            let modules: Vec<ModuleSync> = lats
                .iter()
                .enumerate()
                .map(|(i, l)| ModuleSync {
                    name: format!("m{i}"),
                    latency: *l,
                })
                .collect();
            let plan = prune_sync(&modules);
            let mut all: Vec<usize> = plan.wait.iter().chain(&plan.pruned).copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..modules.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pruning_is_sound() {
        // Soundness: when every waited module has finished, every pruned
        // module must have finished, for any concrete latency assignment
        // (here: the exact static latencies).
        let mut rng = Rng::seed_from_u64(0x5CA1_0002);
        for _ in 0..256 {
            let len = rng.gen_index(19) + 1;
            let lats: Vec<u64> = (0..len).map(|_| rng.gen_u64(0, 999)).collect();
            let modules: Vec<ModuleSync> = lats
                .iter()
                .enumerate()
                .map(|(i, l)| ModuleSync {
                    name: format!("m{i}"),
                    latency: Some(*l),
                })
                .collect();
            let plan = prune_sync(&modules);
            let wait_done = plan.wait.iter().map(|&i| lats[i]).max().unwrap_or(0);
            for &p in &plan.pruned {
                assert!(lats[p] <= wait_done, "lats {lats:?}");
            }
        }
    }

    #[test]
    fn bounded_pruning_is_sound() {
        let mut rng = Rng::seed_from_u64(0x5CA1_0003);
        for _ in 0..256 {
            let len = rng.gen_index(15) + 1;
            let bounds: Vec<LatencyRange> = (0..len)
                .map(|_| {
                    let a = rng.gen_u64(0, 499);
                    let b = rng.gen_u64(0, 499);
                    range(a.min(b), a.max(b))
                })
                .collect();
            let plan = prune_sync_bounded(&bounds);
            // Any realizable latency assignment within bounds:
            let actual: Vec<u64> = bounds
                .iter()
                .map(|r| r.min + ((r.max - r.min) as f64 * rng.gen_f64()) as u64)
                .collect();
            let wait_done = plan.wait.iter().map(|&i| actual[i]).max().unwrap_or(0);
            for &p in &plan.pruned {
                assert!(
                    actual[p] <= wait_done,
                    "pruned module {} (lat {}) outlives waited set ({})",
                    p,
                    actual[p],
                    wait_done
                );
            }
        }
    }
}
