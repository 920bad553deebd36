//! Grid launch with dynamic round-robin work scheduling (paper §III.D.2).
//!
//! The paper runs a fixed population of thread blocks (480 per GPU was
//! found optimal, §IV.B) that pull trie collections from a queue: "whenever
//! a thread block completes the processing of a particular trie collection,
//! it starts processing the next available trie collection."
//!
//! The simulator executes each work item's kernel once (functionally, on
//! the host) to obtain its cycle cost and effects, then reconstructs device
//! time by replaying the schedule: items are assigned in queue order to the
//! earliest-finishing block, and blocks are placed round-robin on SMs whose
//! busy time accumulates. Device seconds = max SM busy time / clock.

use crate::block::BlockCtx;
use crate::device::{DeviceMemory, GpuConfig};
use crate::metrics::Metrics;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Fixed overhead charged per work item a block picks up (queue pop,
/// kernel prologue/epilogue).
pub const ITEM_OVERHEAD_CYCLES: u64 = 2_000;

/// Outcome of a grid launch.
#[derive(Clone, Debug)]
pub struct LaunchReport {
    /// Simulated device wall time for the grid.
    pub device_seconds: f64,
    /// Sum of all blocks' cycles.
    pub total_cycles: u64,
    /// Cycle cost of each work item, in input order.
    pub per_item_cycles: Vec<u64>,
    /// Merged kernel counters.
    pub metrics: Metrics,
    /// Busy cycles of each SM after scheduling.
    pub sm_busy_cycles: Vec<u64>,
}

impl LaunchReport {
    /// Load-balance quality: mean SM busy time over max (1.0 = perfect).
    pub fn utilization(&self) -> f64 {
        let max = self.sm_busy_cycles.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean = self.sm_busy_cycles.iter().sum::<u64>() as f64
            / self.sm_busy_cycles.len() as f64;
        mean / max as f64
    }
}

/// Launch `num_blocks` persistent blocks over `items`, executing `kernel`
/// once per item. The kernel sees a fresh [`BlockCtx`] (zeroed shared
/// memory, no cycles, no counts) for every item, mirroring a block starting
/// a new collection; the launch allocates one and resets it between items.
pub fn launch_dynamic<W, F>(
    cfg: &GpuConfig,
    mem: &mut DeviceMemory,
    num_blocks: usize,
    items: &[W],
    mut kernel: F,
) -> LaunchReport
where
    F: FnMut(&mut BlockCtx, &mut DeviceMemory, &W),
{
    assert!(num_blocks >= 1, "need at least one thread block");
    let mut per_item_cycles = Vec::with_capacity(items.len());
    let mut metrics = Metrics::default();
    let mut ctx = BlockCtx::new(cfg);
    for item in items {
        ctx.reset();
        kernel(&mut ctx, mem, item);
        per_item_cycles.push(ctx.cycles + ITEM_OVERHEAD_CYCLES);
        metrics.merge(&ctx.metrics);
    }

    // Dynamic schedule: queue order, earliest-finishing block next.
    let mut block_load: Vec<u64> = vec![0; num_blocks];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..num_blocks).map(|b| Reverse((0u64, b))).collect();
    for &c in &per_item_cycles {
        let Reverse((load, b)) = heap.pop().expect("non-empty heap");
        let new_load = load + c;
        block_load[b] = new_load;
        heap.push(Reverse((new_load, b)));
    }

    // Blocks are dispatched to SMs as SMs free up (the hardware block
    // scheduler); an SM's work is the sum of its resident blocks' cycles
    // (they time-share its 8 SPs). Heaviest blocks first, as they are
    // dispatched while the grid is still full.
    let mut sm_busy_cycles = vec![0u64; cfg.num_sms];
    let mut sm_heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..cfg.num_sms).map(|s| Reverse((0u64, s))).collect();
    let mut by_weight: Vec<u64> = block_load.clone();
    by_weight.sort_unstable_by(|a, b| b.cmp(a));
    for load in by_weight {
        let Reverse((busy, s)) = sm_heap.pop().expect("non-empty heap");
        let new_busy = busy + load;
        sm_busy_cycles[s] = new_busy;
        sm_heap.push(Reverse((new_busy, s)));
    }
    let max_busy = sm_busy_cycles.iter().copied().max().unwrap_or(0);
    LaunchReport {
        device_seconds: max_busy as f64 / cfg.clock_hz,
        total_cycles: per_item_cycles.iter().sum(),
        per_item_cycles,
        metrics,
        sm_busy_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with_costs(costs: &[u64], num_blocks: usize) -> LaunchReport {
        let cfg = GpuConfig::default();
        let mut mem = DeviceMemory::new(64);
        launch_dynamic(&cfg, &mut mem, num_blocks, costs, |ctx, _mem, &c| {
            // Burn exactly c cycles of "ALU work".
            ctx.instr(c / 4);
        })
    }

    #[test]
    fn empty_grid() {
        let r = run_with_costs(&[], 480);
        assert_eq!(r.total_cycles, 0);
        assert_eq!(r.device_seconds, 0.0);
        assert_eq!(r.utilization(), 1.0);
    }

    #[test]
    fn kernel_effects_apply_to_device_memory() {
        let cfg = GpuConfig::default();
        let mut mem = DeviceMemory::new(256);
        let p = mem.alloc(4, 4);
        let r = launch_dynamic(&cfg, &mut mem, 4, &[1u32, 2, 3], |ctx, mem, &v| {
            let cur = ctx.global_read_u32(mem, p);
            ctx.global_write_u32(mem, p, cur + v);
        });
        assert_eq!(
            u32::from_le_bytes(mem.debug_read(p, 4).try_into().unwrap()),
            6,
            "all three kernel executions applied"
        );
        assert_eq!(r.per_item_cycles.len(), 3);
        assert!(r.metrics.global_transactions >= 6);
    }

    #[test]
    fn every_item_starts_from_a_fresh_block_state() {
        let cfg = GpuConfig::default();
        let mut mem = DeviceMemory::new(64);
        let r = launch_dynamic(&cfg, &mut mem, 2, &[7u8, 9, 11], |ctx, _mem, &v| {
            assert!(ctx.shared().iter().all(|&b| b == 0), "shared memory zeroed");
            assert_eq!((ctx.cycles, ctx.metrics), (0, Metrics::default()));
            ctx.shared_mut().fill(v);
            ctx.shared_write_u32(0, u32::from(v));
        });
        assert_eq!(r.per_item_cycles, vec![4 + ITEM_OVERHEAD_CYCLES; 3]);
        assert_eq!(r.metrics.shared_accesses, 3);
    }

    #[test]
    fn more_blocks_improve_balance_on_skewed_items() {
        // One huge item plus many small ones: with 1 block everything
        // serializes; with many blocks the long pole dominates but the rest
        // spreads out.
        let mut costs = vec![1_000_000u64];
        costs.extend(std::iter::repeat_n(10_000, 400));
        let t1 = run_with_costs(&costs, 1).device_seconds;
        let t30 = run_with_costs(&costs, 30).device_seconds;
        let t480 = run_with_costs(&costs, 480).device_seconds;
        assert!(t30 < t1, "30 blocks beat 1: {t30} vs {t1}");
        assert!(t480 <= t30 * 1.01, "480 blocks no worse than 30");
    }

    #[test]
    fn block_count_plateaus_beyond_item_count() {
        let costs = vec![50_000u64; 64];
        let a = run_with_costs(&costs, 480).device_seconds;
        let b = run_with_costs(&costs, 4800).device_seconds;
        assert!((a - b).abs() / a < 0.05, "beyond-saturation block counts equal");
    }

    #[test]
    fn utilization_reflects_imbalance() {
        let skewed = run_with_costs(&[10_000_000, 1_000, 1_000], 3);
        assert!(skewed.utilization() < 0.5);
        let flat = run_with_costs(&vec![100_000; 300], 30);
        assert!(flat.utilization() > 0.9);
    }

    #[test]
    fn device_seconds_scale_with_work() {
        let small = run_with_costs(&vec![10_000; 30], 30);
        let big = run_with_costs(&vec![100_000; 30], 30);
        assert!(big.device_seconds > small.device_seconds * 5.0);
    }
}
