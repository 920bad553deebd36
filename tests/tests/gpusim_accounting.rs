//! The simulator's host-side accounting against frozen copies of what it
//! replaced, and one GPU batch pinned count for count.
//!
//! `BlockCtx::charge_shared` and the kernel's `dedup_park` run once per
//! warp-wide shared access; both used to build heap collections there
//! (`Vec<Vec<u32>>` per half-warp, a `HashSet` per shifted field) and now
//! work on the lanes' fixed arrays. A faster interpreter must meter the same
//! machine: the copies below are the old code, the oracles; the pinned batch
//! holds the whole kernel — scratch reuse, one `BlockCtx` per launch — to the
//! counts the commit before the change produced.

use ii_core::corpus::{CollectionGenerator, CollectionSpec};
use ii_core::gpusim::{BlockCtx, GpuConfig, Metrics, WARP};
use ii_core::indexer::gpu::dedup_park;
use ii_core::indexer::{GpuIndexer, GpuIndexerConfig};
use ii_core::text::{parse_documents, TrieGroup};
use proptest::prelude::*;
use std::collections::HashSet;

// ---------------------------------------------------------------------------
// Frozen copies.
// ---------------------------------------------------------------------------

/// What one warp-wide shared access adds to a block's counters.
#[derive(Debug, Default, PartialEq, Eq)]
struct SharedCharge {
    bank_conflict_cycles: u64,
    cycles: u64,
    shared_accesses: u64,
    instructions: u64,
}

/// `BlockCtx::charge_shared` as it was: per half-warp, one `Vec` of distinct
/// words per bank; the cost is the longest.
fn charge_shared_frozen(cfg: &GpuConfig, offsets: &[u32]) -> SharedCharge {
    let mut charge = SharedCharge {
        shared_accesses: 1,
        instructions: 1,
        cycles: cfg.cycles_per_instr,
        ..SharedCharge::default()
    };
    let banks = cfg.banks as u32;
    for half in offsets.chunks(cfg.banks) {
        let mut distinct: Vec<Vec<u32>> = vec![Vec::new(); banks as usize];
        for &off in half {
            let word = off / 4;
            let bank = (word % banks) as usize;
            if !distinct[bank].contains(&word) {
                distinct[bank].push(word);
            }
        }
        let worst = distinct.iter().map(|d| d.len()).max().unwrap_or(1).max(1);
        if worst > 1 {
            charge.bank_conflict_cycles += (worst - 1) as u64;
            charge.cycles += (worst - 1) as u64;
        }
    }
    charge
}

/// The kernel's `dedup_park` as it was (`PARK_SCRATCH` is 8192 there).
fn dedup_park_frozen(offs: &mut [u32; 32], base: usize) {
    let park_base = (base + 8192 + 4 * 64) as u32;
    let mut seen = HashSet::new();
    for (lane, o) in offs.iter_mut().enumerate() {
        if !seen.insert(*o) {
            *o = park_base + 4 * lane as u32;
        }
    }
}

// ---------------------------------------------------------------------------
// Access patterns.
// ---------------------------------------------------------------------------

/// Byte offsets of 32 lanes inside the default 16 KB of shared memory.
fn pattern_strategy() -> impl Strategy<Value = [u32; WARP]> {
    const WORDS: u32 = (16 << 10) / 4;
    let lanes = |f: Box<dyn Fn(u32) -> u32>| -> [u32; WARP] {
        std::array::from_fn(|lane| f(lane as u32) % WORDS * 4)
    };
    (0u32..6, 0..WORDS, 1u32..70, proptest::collection::vec(0..WORDS, WARP)).prop_map(
        move |(class, base, stride, random)| match class {
            // Every lane on one word: a broadcast.
            0 => lanes(Box::new(move |_| base)),
            // Strided words: stride 1 is conflict-free, 16 and 32 put a
            // half-warp (or the warp) on one bank.
            1 => lanes(Box::new(move |lane| base + lane * stride)),
            2 => lanes(Box::new(move |lane| base + lane * 16 * (stride % 3 + 1))),
            // Distinct words of one bank, in lane pairs that share a word.
            3 => lanes(Box::new(move |lane| base + lane / 2 * 32)),
            // The probe's gather: stride 1 with the last lanes clamped.
            4 => lanes(Box::new(move |lane| base + lane.min(stride % 32))),
            _ => lanes(Box::new(move |lane| random[lane as usize])),
        },
    )
}

fn charge_of(cfg: &GpuConfig, offsets: [u32; WARP], write: bool) -> SharedCharge {
    let mut ctx = BlockCtx::new(cfg);
    if write {
        ctx.shared_write_vec_u32(offsets, [7; WARP]);
    } else {
        ctx.shared_read_vec_u32(offsets);
    }
    SharedCharge {
        bank_conflict_cycles: ctx.metrics.bank_conflict_cycles,
        cycles: ctx.cycles,
        shared_accesses: ctx.metrics.shared_accesses,
        instructions: ctx.metrics.instructions,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn shared_access_is_charged_as_the_frozen_accounting_charged_it(
        offsets in pattern_strategy(),
        wide in any::<bool>(),
    ) {
        let cfg = GpuConfig { banks: if wide { 32 } else { 16 }, ..GpuConfig::default() };
        let want = charge_shared_frozen(&cfg, &offsets);
        prop_assert_eq!(charge_of(&cfg, offsets, false), want);
    }

    /// Offsets as `shift_right` builds them — a field's slots, some lanes
    /// aiming at a neighbour's — and arbitrary ones with many repeats.
    #[test]
    fn dedup_park_parks_the_lanes_the_hash_set_parked(
        picks in proptest::collection::vec(0u32..40, WARP),
        base in 0usize..2048,
        arbitrary in any::<bool>(),
    ) {
        let mut offs: [u32; WARP] = std::array::from_fn(|lane| {
            if arbitrary { picks[lane].wrapping_mul(0x9E37_79B9) >> (picks[lane] % 28) }
            else { (base as u32) + 4 * picks[lane] }
        });
        let mut want = offs;
        dedup_park_frozen(&mut want, base);
        dedup_park(&mut offs, base);
        prop_assert_eq!(offs, want);
    }
}

#[test]
fn named_patterns_cost_what_the_hardware_model_says() {
    let cfg = GpuConfig::default();
    let lanes = |f: &dyn Fn(u32) -> u32| -> [u32; WARP] { std::array::from_fn(|l| f(l as u32) * 4) };
    let conflicts = |offs| charge_of(&cfg, offs, false).bank_conflict_cycles;
    assert_eq!(conflicts(lanes(&|_| 9)), 0, "broadcast");
    assert_eq!(conflicts(lanes(&|lane| lane)), 0, "stride 1");
    assert_eq!(conflicts(lanes(&|lane| lane * 16)), 2 * 15, "one bank, 16 words per half-warp");
    assert_eq!(conflicts(lanes(&|lane| lane / 2 * 16)), 2 * 7, "... in broadcast pairs");
    assert_eq!(conflicts(lanes(&|lane| lane * 2)), 2, "stride 2: two words per bank");
    // A scatter is charged like the gather of the same offsets.
    let offs = lanes(&|lane| lane * 16);
    assert_eq!(charge_of(&cfg, offs, true), charge_of(&cfg, offs, false));
    for banks in [16, 32] {
        let cfg = GpuConfig { banks, ..cfg };
        let offs = lanes(&|lane| lane * 32);
        assert_eq!(charge_of(&cfg, offs, false), charge_shared_frozen(&cfg, &offs), "{banks} banks");
    }
}

// ---------------------------------------------------------------------------
// One batch, pinned.
// ---------------------------------------------------------------------------

/// Two files of a seeded collection through the GPU kernel, all groups on
/// the one GPU. The expected values are what commit 8401041 — `Vec<Vec<u32>>`
/// accounting, a fresh `BlockCtx` per work item, a `Vec` per term — counted
/// for the same input.
#[test]
fn a_fixed_seed_batch_costs_what_the_parent_commit_counted() {
    let spec = CollectionSpec {
        num_files: 2,
        docs_per_file: 40,
        mean_doc_tokens: 120,
        vocab_size: 4_000,
        ..CollectionSpec::tiny(20_260_928)
    };
    let gen = CollectionGenerator::new(spec.clone());
    let mut gpu = GpuIndexer::new(0, GpuIndexerConfig::small());
    let (mut total_cycles, mut device_seconds) = (0u64, 0f64);
    for f in 0..spec.num_files {
        let batch = parse_documents(&gen.generate_file(f), spec.html, f);
        let groups: Vec<&TrieGroup> = batch.groups.iter().collect();
        let report = gpu.index_batch(&groups, (f * spec.docs_per_file) as u32);
        total_cycles += report.total_cycles;
        device_seconds += report.device_seconds;
    }
    let want = Metrics {
        global_transactions: 94_250,
        global_bytes: 3_751_962,
        shared_accesses: 90_527,
        bank_conflict_cycles: 4_265,
        instructions: 129_571,
        divergent_branches: 166,
        warp_comparisons: 129_611,
        h2d_bytes: 0,
        d2h_bytes: 0,
    };
    assert_eq!(gpu.kernel_metrics, want);
    assert_eq!(total_cycles, 26_446_929, "LaunchReport::total_cycles, both launches");
    assert_eq!(device_seconds.to_bits(), 4_561_652_139_456_809_613, "{device_seconds}");
    let stats = gpu.stats;
    assert_eq!((stats.tokens, stats.terms, stats.chars), (4_181, 1_726, 10_771));
}
