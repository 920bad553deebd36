//! CPU/GPU load balancing (paper §III.E).
//!
//! A sample of the collection (the paper uses ~1 MB per GB) is parsed and
//! per-trie-collection token counts are gathered. The collections holding
//! the most tokens — the Zipf head, "around one hundred" — become the
//! *popular* group and are split into N1 sets of roughly equal token counts
//! for the CPU indexers. The remaining (*unpopular*) collections go to GPU
//! g = i mod N2 by trie index, exactly the paper's example scheme. Once
//! assigned, a collection is bound to its indexer for the program lifetime.

use ii_text::ParsedBatch;
use std::collections::HashMap;

/// Where a trie collection's indexing happens.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Owner {
    /// CPU indexer thread `n` (0-based).
    Cpu(usize),
    /// GPU indexer `n` (0-based).
    Gpu(usize),
}

/// The lifetime-fixed assignment of trie collections to indexers: a
/// collection's shard never changes, whatever happens to the GPU it started
/// on.
#[derive(Clone, Debug)]
pub struct BalancePlan {
    owners: HashMap<u32, Owner>,
    /// Popular collections, most tokens first.
    pub popular: Vec<u32>,
    n_cpu: usize,
    n_gpu: usize,
    /// Sampled token load per GPU (same order as `Owner::Gpu(i)`).
    gpu_load: Vec<u64>,
}

impl BalancePlan {
    /// Number of CPU indexers planned for.
    pub fn n_cpu(&self) -> usize {
        self.n_cpu
    }

    /// Number of GPU indexers planned for.
    pub fn n_gpu(&self) -> usize {
        self.n_gpu
    }

    /// Order in which GPU shards should be parked when the memory
    /// governor sheds under sustained pressure: heaviest sampled load
    /// first (its device state holds the most pending postings, so
    /// salvaging it relieves the most memory), ties toward the lower GPU
    /// index. Only alive GPUs (per `alive`, indexed like `Owner::Gpu`)
    /// are listed. Deterministic: depends only on the plan and the
    /// liveness vector, never on timing.
    pub fn shed_order(&self, alive: &[bool]) -> Vec<usize> {
        let mut order: Vec<usize> =
            (0..self.n_gpu).filter(|&g| alive.get(g).copied().unwrap_or(false)).collect();
        order.sort_by_key(|&g| {
            (std::cmp::Reverse(self.gpu_load.get(g).copied().unwrap_or(0)), g)
        });
        order
    }

    /// Owner of a trie collection. Collections absent from the sample are
    /// unpopular by definition and follow the deterministic modulo rule, so
    /// all indexers agree without communication.
    pub fn owner(&self, trie_index: u32) -> Owner {
        if let Some(&o) = self.owners.get(&trie_index) {
            return o;
        }
        if self.n_gpu > 0 {
            Owner::Gpu(trie_index as usize % self.n_gpu)
        } else {
            Owner::Cpu(trie_index as usize % self.n_cpu)
        }
    }

    /// Collections assigned to a specific owner within a known universe
    /// (testing/report helper).
    pub fn collections_for(&self, owner: Owner, universe: &[u32]) -> Vec<u32> {
        universe.iter().copied().filter(|&ti| self.owner(ti) == owner).collect()
    }
}

/// Count tokens per trie collection in a parsed sample.
pub fn sample_counts(batches: &[ParsedBatch]) -> HashMap<u32, u64> {
    let mut counts = HashMap::new();
    for b in batches {
        for g in &b.groups {
            *counts.entry(g.trie_index).or_insert(0) += g.total_terms();
        }
    }
    counts
}

/// Build a plan from sampled token counts.
///
/// `popular_count` is the size of the popular group (the paper observes
/// ~100). With `n_gpu == 0`, *all* collections are spread over the CPU
/// indexers by balanced token counts (the CPU-only configurations of
/// Fig 10/Table IV). `n_cpu == 0` with GPUs sends everything to the GPUs.
pub fn make_plan(
    counts: &HashMap<u32, u64>,
    n_cpu: usize,
    n_gpu: usize,
    popular_count: usize,
) -> BalancePlan {
    assert!(n_cpu + n_gpu > 0, "need at least one indexer");
    let mut by_tokens: Vec<(u32, u64)> = counts.iter().map(|(&k, &v)| (k, v)).collect();
    // Most tokens first; trie index tiebreak for determinism.
    by_tokens.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut owners = HashMap::new();
    let mut popular = Vec::new();

    type CountSlice<'a> = &'a [(u32, u64)];
    let (popular_slice, rest): (CountSlice, CountSlice) = if n_cpu == 0 {
        (&[], &by_tokens[..])
    } else if n_gpu == 0 {
        (&by_tokens[..], &[])
    } else {
        let cut = popular_count.min(by_tokens.len());
        (&by_tokens[..cut], &by_tokens[cut..])
    };

    let mut cpu_load = vec![0u64; n_cpu];
    if n_cpu > 0 {
        // Greedy balanced partition into N1 sets by token count (items
        // arrive heaviest-first, go to the lightest set).
        for &(ti, tok) in popular_slice {
            let lightest =
                (0..n_cpu).min_by_key(|&s| cpu_load[s]).expect("n_cpu > 0");
            cpu_load[lightest] += tok;
            owners.insert(ti, Owner::Cpu(lightest));
            popular.push(ti);
        }
    }
    let mut gpu_load = vec![0u64; n_gpu];
    if n_gpu > 0 {
        // Paper's scheme: i-th unpopular collection (by trie index order)
        // goes to GPU index position mod N2.
        let mut unpop: Vec<u32> = rest.iter().map(|&(ti, _)| ti).collect();
        unpop.sort_unstable();
        for (i, ti) in unpop.into_iter().enumerate() {
            owners.insert(ti, Owner::Gpu(i % n_gpu));
            gpu_load[i % n_gpu] += counts.get(&ti).copied().unwrap_or(0);
        }
    } else {
        // CPU-only: the "rest" is empty by construction above.
        debug_assert!(rest.is_empty());
    }

    BalancePlan { owners, popular, n_cpu, n_gpu, gpu_load }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(u32, u64)]) -> HashMap<u32, u64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn paper_example_modulo_assignment() {
        // §III.E: unpopular indices (0, 13, 27, 175, 384, 5810, 10041,
        // 17316) over 2 GPUs -> evens of the sorted order to GPU 0.
        let idxs = [0u32, 13, 27, 175, 384, 5810, 10041, 17316];
        let c: HashMap<u32, u64> = idxs.iter().map(|&i| (i, 1)).collect();
        let plan = make_plan(&c, 0, 2, 0);
        let gpu0: Vec<u32> = idxs.iter().copied().filter(|&i| plan.owner(i) == Owner::Gpu(0)).collect();
        let gpu1: Vec<u32> = idxs.iter().copied().filter(|&i| plan.owner(i) == Owner::Gpu(1)).collect();
        assert_eq!(gpu0, vec![0, 27, 384, 10041]);
        assert_eq!(gpu1, vec![13, 175, 5810, 17316]);
    }

    #[test]
    fn popular_go_to_cpu_balanced() {
        let c = counts(&[(10, 1000), (20, 900), (30, 800), (40, 10), (50, 5)]);
        let plan = make_plan(&c, 2, 1, 3);
        assert_eq!(plan.popular.len(), 3);
        // Heaviest item alone vs next two together: greedy puts 1000 on one
        // CPU set, 900+800 on... no: heaviest-first greedy: 1000->cpu0,
        // 900->cpu1, 800->cpu1? cpu1 has 900 vs cpu0 1000 -> 800 goes to
        // cpu1 (lighter). Totals: 1000 vs 1700. Still both CPUs used.
        let cpus: std::collections::HashSet<Owner> =
            plan.popular.iter().map(|&ti| plan.owner(ti)).collect();
        assert_eq!(cpus.len(), 2);
        assert!(matches!(plan.owner(40), Owner::Gpu(0)));
        assert!(matches!(plan.owner(50), Owner::Gpu(0)));
    }

    #[test]
    fn unseen_collections_follow_modulo_rule() {
        let plan = make_plan(&counts(&[(1, 10)]), 1, 2, 1);
        assert_eq!(plan.owner(9999), Owner::Gpu(9999 % 2));
        assert_eq!(plan.owner(10000), Owner::Gpu(0));
        let cpu_only = make_plan(&counts(&[(1, 10)]), 3, 0, 1);
        assert_eq!(cpu_only.owner(9999), Owner::Cpu(9999 % 3));
    }

    #[test]
    fn cpu_only_plan_spreads_everything() {
        let c = counts(&[(1, 100), (2, 90), (3, 80), (4, 70), (5, 60), (6, 50)]);
        let plan = make_plan(&c, 3, 0, 2);
        for ti in [1u32, 2, 3, 4, 5, 6] {
            assert!(matches!(plan.owner(ti), Owner::Cpu(_)));
        }
        // Roughly balanced: no CPU set should hold more than half the load.
        let mut loads = vec![0u64; 3];
        for (&ti, &tok) in &c {
            if let Owner::Cpu(s) = plan.owner(ti) {
                loads[s] += tok;
            }
        }
        let total: u64 = loads.iter().sum();
        assert!(loads.iter().all(|&l| l <= total / 2), "{loads:?}");
    }

    #[test]
    fn gpu_only_plan() {
        let c = counts(&[(1, 100), (2, 90)]);
        let plan = make_plan(&c, 0, 2, 1);
        assert!(matches!(plan.owner(1), Owner::Gpu(_)));
        assert!(matches!(plan.owner(2), Owner::Gpu(_)));
    }

    #[test]
    #[should_panic(expected = "at least one indexer")]
    fn zero_indexers_rejected() {
        make_plan(&HashMap::new(), 0, 0, 100);
    }

    #[test]
    fn shed_order_prefers_heaviest_alive_gpu() {
        // Unpopular collections 1..6 over 2 GPUs: sorted trie order is
        // 1,2,3,4,5,6 → GPU0 gets {1,3,5} (100+80+60), GPU1 gets {2,4,6}
        // (90+70+50).
        let c = counts(&[(1, 100), (2, 90), (3, 80), (4, 70), (5, 60), (6, 50)]);
        let plan = make_plan(&c, 0, 2, 0);
        assert_eq!(plan.shed_order(&[true, true]), vec![0, 1], "heaviest first");
        assert_eq!(plan.shed_order(&[false, true]), vec![1], "dead GPUs excluded");
        assert_eq!(plan.shed_order(&[false, false]), Vec::<usize>::new());
        // Ties break toward the lower index.
        let even = make_plan(&counts(&[(1, 10), (2, 10)]), 0, 2, 0);
        assert_eq!(even.shed_order(&[true, true]), vec![0, 1]);
    }

    #[test]
    fn sample_counts_accumulate_across_batches() {
        use ii_corpus::RawDocument;
        let docs =
            vec![RawDocument { url: String::new(), body: "zebra zebra quilt".into() }];
        let b1 = ii_text::parse_documents(&docs, false, 0);
        let b2 = ii_text::parse_documents(&docs, false, 1);
        let c = sample_counts(&[b1, b2]);
        let z = ii_dict::trie_index("zebra").0;
        assert_eq!(c[&z], 4);
    }
}
