//! Thread-block execution context: warp-wide primitives with cycle, bank
//! and coalescing accounting.
//!
//! The paper's GPU indexer assigns one warp (a 32-thread block) per trie
//! collection and structures the kernel as warp-wide steps: stage strings
//! into shared memory with coalesced loads, compare a probe term against
//! all 31 node keys in parallel, find the position with a parallel
//! reduction [11], shift slots in parallel on insert. `BlockCtx` exposes
//! exactly those composable primitives; every primitive both *computes* its
//! result (lanes execute in lockstep order) and *meters* its cost.

use crate::device::{DevPtr, DeviceMemory, GpuConfig};
use crate::metrics::Metrics;

/// Number of lanes in a warp (fixed by the architecture).
pub const WARP: usize = 32;

/// Execution context of one thread block (one warp) while it processes one
/// work item.
pub struct BlockCtx {
    cfg: GpuConfig,
    shared: Vec<u8>,
    /// Cycles consumed so far.
    pub cycles: u64,
    /// Counters for this block's execution.
    pub metrics: Metrics,
}

impl BlockCtx {
    /// Fresh context with zeroed shared memory.
    pub fn new(cfg: &GpuConfig) -> Self {
        BlockCtx {
            cfg: *cfg,
            shared: vec![0; cfg.shared_bytes],
            cycles: 0,
            metrics: Metrics::default(),
        }
    }

    /// Back to the state [`Self::new`] returns — zeroed shared memory, no
    /// cycles, no counts — keeping the allocation. A block picking up its
    /// next work item starts from here.
    pub fn reset(&mut self) {
        self.shared.fill(0);
        self.cycles = 0;
        self.metrics = Metrics::default();
    }

    /// Shared-memory size available to the block.
    pub fn shared_len(&self) -> usize {
        self.shared.len()
    }

    /// Issue `n` warp instructions (ALU work with no memory traffic).
    pub fn instr(&mut self, n: u64) {
        self.metrics.instructions += n;
        self.cycles += n * self.cfg.cycles_per_instr;
    }

    /// Record a divergent branch: both sides execute serially, so the cost
    /// is the instruction count of both paths.
    pub fn diverge(&mut self, extra_instrs: u64) {
        self.metrics.divergent_branches += 1;
        self.instr(extra_instrs);
    }

    // ---- global memory -------------------------------------------------

    /// Number of `segment_bytes` segments a `[ptr, ptr+len)` access spans.
    fn segments(&self, ptr: u32, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let seg = self.cfg.segment_bytes as u32;
        let first = ptr / seg;
        let last = (ptr + len as u32 - 1) / seg;
        (last - first + 1) as u64
    }

    fn charge_global(&mut self, ptr: u32, len: usize) {
        let segs = self.segments(ptr, len);
        self.metrics.global_transactions += segs;
        self.metrics.global_bytes += len as u64;
        // One latency exposure per request, plus issue cycles per segment;
        // each 128 B (32 lanes × 4 B) is one warp load instruction.
        self.cycles += self.cfg.mem_latency + segs * self.cfg.cycles_per_instr;
        self.metrics.instructions += len.div_ceil(WARP * 4) as u64;
    }

    /// Coalesced global→shared copy (the Fig 6 staging of 512 B string
    /// chunks, and node loads).
    pub fn gts(&mut self, mem: &DeviceMemory, src: DevPtr, shared_dst: usize, len: usize) {
        self.charge_global(src.0, len);
        self.metrics.shared_accesses += len.div_ceil(WARP * 4) as u64;
        let s = src.0 as usize;
        self.shared[shared_dst..shared_dst + len].copy_from_slice(&mem.raw()[s..s + len]);
    }

    /// Coalesced shared→global copy (node write-back).
    pub fn stg(&mut self, mem: &mut DeviceMemory, shared_src: usize, dst: DevPtr, len: usize) {
        self.charge_global(dst.0, len);
        self.metrics.shared_accesses += len.div_ceil(WARP * 4) as u64;
        let d = dst.0 as usize;
        mem.raw_mut()[d..d + len].copy_from_slice(&self.shared[shared_src..shared_src + len]);
    }

    /// Single-lane global read of a 32-bit word — an *uncoalesced*
    /// transaction (one segment for 4 bytes).
    pub fn global_read_u32(&mut self, mem: &DeviceMemory, ptr: DevPtr) -> u32 {
        self.charge_global(ptr.0, 4);
        let o = ptr.0 as usize;
        u32::from_le_bytes(mem.raw()[o..o + 4].try_into().unwrap())
    }

    /// Single-lane global write of a 32-bit word.
    pub fn global_write_u32(&mut self, mem: &mut DeviceMemory, ptr: DevPtr, v: u32) {
        self.charge_global(ptr.0, 4);
        let o = ptr.0 as usize;
        mem.raw_mut()[o..o + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Single-lane global read of a byte range (e.g. a string remainder
    /// that missed the cache) — charged as the segments it spans. The bytes
    /// are a view of device memory, not a copy.
    pub fn global_read_bytes<'m>(
        &mut self,
        mem: &'m DeviceMemory,
        ptr: DevPtr,
        len: usize,
    ) -> &'m [u8] {
        self.charge_global(ptr.0, len.max(1));
        let o = ptr.0 as usize;
        &mem.raw()[o..o + len]
    }

    /// Single-lane global write of a byte range.
    pub fn global_write_bytes(&mut self, mem: &mut DeviceMemory, ptr: DevPtr, data: &[u8]) {
        self.charge_global(ptr.0, data.len().max(1));
        let o = ptr.0 as usize;
        mem.raw_mut()[o..o + data.len()].copy_from_slice(data);
    }

    // ---- shared memory -------------------------------------------------

    /// Account a warp's shared-memory access pattern: per half-warp, the
    /// cost is the maximum number of lanes hitting the same bank (a
    /// broadcast of one identical address is free, as on real hardware).
    ///
    /// Runs once per warp-wide shared access, so it keeps to the stack: the
    /// half-warp's `(bank, word)` pairs are sorted in a fixed array, and a
    /// bank's distinct words are then one run of it.
    fn charge_shared(&mut self, offsets: &[u32; WARP]) {
        self.metrics.shared_accesses += 1;
        self.instr(1);
        let banks = self.cfg.banks as u32;
        for half in offsets.chunks(self.cfg.banks) {
            let mut keys = [0u64; WARP];
            let keys = &mut keys[..half.len()];
            for (key, &off) in keys.iter_mut().zip(half) {
                let word = off / 4;
                *key = u64::from(word % banks) << 32 | u64::from(word);
            }
            keys.sort_unstable();
            // A bank serializes one access per *distinct* word address;
            // lanes reading the same word are served by a broadcast.
            let (mut worst, mut distinct) = (1u64, 1u64);
            for pair in keys.windows(2) {
                if pair[0] >> 32 != pair[1] >> 32 {
                    distinct = 1;
                } else if pair[0] != pair[1] {
                    distinct += 1;
                    worst = worst.max(distinct);
                }
            }
            self.metrics.bank_conflict_cycles += worst - 1;
            self.cycles += worst - 1;
        }
    }

    /// Warp-wide shared gather: lane `i` reads the u32 at `offs[i]`.
    pub fn shared_read_vec_u32(&mut self, offs: [u32; WARP]) -> [u32; WARP] {
        self.charge_shared(&offs);
        let mut out = [0u32; WARP];
        for (i, &o) in offs.iter().enumerate() {
            let o = o as usize;
            out[i] = u32::from_le_bytes(self.shared[o..o + 4].try_into().unwrap());
        }
        out
    }

    /// Warp-wide shared scatter: lane `i` writes `vals[i]` to `offs[i]`.
    /// Offsets must be distinct (hardware behaviour for colliding writes is
    /// undefined; we assert instead).
    pub fn shared_write_vec_u32(&mut self, offs: [u32; WARP], vals: [u32; WARP]) {
        debug_assert!(
            {
                let mut s = offs;
                s.sort_unstable();
                s.windows(2).all(|w| w[0] != w[1])
            },
            "colliding shared writes"
        );
        self.charge_shared(&offs);
        for (i, &o) in offs.iter().enumerate() {
            let o = o as usize;
            self.shared[o..o + 4].copy_from_slice(&vals[i].to_le_bytes());
        }
    }

    /// Scalar shared read (lane 0 doing control flow).
    pub fn shared_read_u32(&mut self, off: usize) -> u32 {
        self.metrics.shared_accesses += 1;
        self.instr(1);
        u32::from_le_bytes(self.shared[off..off + 4].try_into().unwrap())
    }

    /// Scalar shared write.
    pub fn shared_write_u32(&mut self, off: usize, v: u32) {
        self.metrics.shared_accesses += 1;
        self.instr(1);
        self.shared[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Unmetered view of shared memory for pure-logic inspection (the cost
    /// of data-parallel touches must go through the vector ops).
    pub fn shared(&self) -> &[u8] {
        &self.shared
    }

    /// Unmetered mutable view (kernel-internal staging).
    pub fn shared_mut(&mut self) -> &mut [u8] {
        &mut self.shared
    }

    // ---- warp collectives ----------------------------------------------

    /// Execute one lockstep step across all lanes: `f(lane)` for lanes
    /// `0..32`. Costs one warp instruction.
    pub fn lanes<T: Copy + Default, F: FnMut(usize) -> T>(&mut self, mut f: F) -> [T; WARP] {
        self.instr(1);
        let mut out = [T::default(); WARP];
        for (lane, slot) in out.iter_mut().enumerate() {
            *slot = f(lane);
        }
        out
    }

    /// Parallel tree reduction over a warp's values (Harris [11]): log2(32)
    /// = 5 steps, each one instruction plus a shared-memory exchange.
    pub fn warp_reduce<T: Copy, F: Fn(T, T) -> T>(&mut self, vals: [T; WARP], f: F) -> T {
        let mut v = vals;
        let mut stride = WARP / 2;
        while stride > 0 {
            self.instr(1);
            self.metrics.shared_accesses += 2;
            for i in 0..stride {
                v[i] = f(v[i], v[i + stride]);
            }
            stride /= 2;
        }
        v[0]
    }

    /// Warp-wide inclusive scan (Hillis-Steele): log2(32) = 5 steps, each
    /// an instruction plus a shared-memory exchange. The workhorse of
    /// compaction and allocation kernels.
    pub fn warp_scan_inclusive<T: Copy, F: Fn(T, T) -> T>(
        &mut self,
        vals: [T; WARP],
        f: F,
    ) -> [T; WARP] {
        let mut v = vals;
        let mut stride = 1;
        while stride < WARP {
            self.instr(1);
            self.metrics.shared_accesses += 2;
            let prev = v;
            for i in stride..WARP {
                v[i] = f(prev[i - stride], prev[i]);
            }
            stride *= 2;
        }
        v
    }

    /// Warp ballot: the 32-bit mask of lanes whose predicate is true
    /// (a single instruction on real hardware).
    pub fn warp_ballot<F: Fn(usize) -> bool>(&mut self, pred: F) -> u32 {
        self.instr(1);
        let mut mask = 0u32;
        for lane in 0..WARP {
            if pred(lane) {
                mask |= 1 << lane;
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> BlockCtx {
        BlockCtx::new(&GpuConfig::default())
    }

    #[test]
    fn gts_coalesced_512b_is_8_transactions() {
        let mut mem = DeviceMemory::new(4096);
        let p = mem.alloc(512, 64);
        mem.host_write(p, &(0..=255u8).chain(0..=255).collect::<Vec<_>>());
        let mut c = ctx();
        c.gts(&mem, p, 0, 512);
        assert_eq!(c.metrics.global_transactions, 8); // 512 / 64
        assert_eq!(c.metrics.global_bytes, 512);
        assert_eq!(&c.shared()[..4], &[0, 1, 2, 3]);
    }

    #[test]
    fn misaligned_access_costs_extra_segment() {
        let mut mem = DeviceMemory::new(4096);
        let _pad = mem.alloc(4, 4);
        let p = DevPtr(4); // straddles the first 64B boundary
        let mut c = ctx();
        c.gts(&mem, p, 0, 64);
        assert_eq!(c.metrics.global_transactions, 2);
    }

    #[test]
    fn scalar_read_is_one_transaction_for_4_bytes() {
        let mut mem = DeviceMemory::new(64);
        let p = mem.alloc(4, 4);
        mem.host_write(p, &7u32.to_le_bytes());
        let mut c = ctx();
        assert_eq!(c.global_read_u32(&mem, p), 7);
        assert_eq!(c.metrics.global_transactions, 1);
        assert_eq!(c.metrics.global_bytes, 4);
        assert!(c.metrics.transactions_per_segment() > 10.0, "uncoalesced");
    }

    #[test]
    fn stg_writes_back() {
        let mut mem = DeviceMemory::new(256);
        let p = mem.alloc(8, 8);
        let mut c = ctx();
        c.shared_mut()[..8].copy_from_slice(&[9, 8, 7, 6, 5, 4, 3, 2]);
        c.stg(&mut mem, 0, p, 8);
        assert_eq!(mem.debug_read(p, 8), &[9, 8, 7, 6, 5, 4, 3, 2]);
    }

    #[test]
    fn conflict_free_stride_one_word() {
        // Lane i reads word i: banks 0..16,0..16 per half-warp — no conflict.
        let mut c = ctx();
        let offs: [u32; WARP] = std::array::from_fn(|i| (i * 4) as u32);
        c.shared_read_vec_u32(offs);
        assert_eq!(c.metrics.bank_conflict_cycles, 0);
    }

    #[test]
    fn stride_16_words_causes_conflicts() {
        // Lane i reads word 16*i: every lane in a half-warp hits bank 0.
        let mut c = ctx();
        let offs: [u32; WARP] = std::array::from_fn(|i| (i * 16 * 4) as u32);
        c.shared_read_vec_u32(offs);
        assert_eq!(c.metrics.bank_conflict_cycles, 2 * 15); // 16-way per half
    }

    #[test]
    fn broadcast_is_free() {
        let mut c = ctx();
        let offs = [0u32; WARP];
        c.shared_read_vec_u32(offs);
        assert_eq!(c.metrics.bank_conflict_cycles, 0);
    }

    #[test]
    fn warp_scan_inclusive_prefix_sums() {
        let mut c = ctx();
        let ones = [1u32; WARP];
        let before = c.metrics.instructions;
        let scanned = c.warp_scan_inclusive(ones, |a, b| a + b);
        for (i, v) in scanned.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1);
        }
        assert_eq!(c.metrics.instructions - before, 5);
    }

    #[test]
    fn warp_scan_general_op() {
        let mut c = ctx();
        let vals: [u32; WARP] = std::array::from_fn(|i| i as u32);
        let maxes = c.warp_scan_inclusive(vals, |a, b| a.max(b));
        assert_eq!(maxes, vals, "running max of 0..32 is identity");
    }

    #[test]
    fn warp_ballot_mask() {
        let mut c = ctx();
        let mask = c.warp_ballot(|lane| lane % 2 == 0);
        assert_eq!(mask, 0x5555_5555);
        assert_eq!(c.warp_ballot(|_| false), 0);
        assert_eq!(c.warp_ballot(|_| true), u32::MAX);
    }

    #[test]
    fn warp_reduce_computes_and_costs_5_steps() {
        let mut c = ctx();
        let vals: [u32; WARP] = std::array::from_fn(|i| (i as u32) ^ 13);
        let before = c.metrics.instructions;
        let m = c.warp_reduce(vals, |a, b| a.min(b));
        assert_eq!(m, vals.iter().copied().min().unwrap());
        assert_eq!(c.metrics.instructions - before, 5);
    }

    #[test]
    fn lanes_lockstep() {
        let mut c = ctx();
        let v = c.lanes(|l| l as u32 * 2);
        assert_eq!(v[0], 0);
        assert_eq!(v[31], 62);
        assert_eq!(c.metrics.instructions, 1);
    }

    #[test]
    fn cycles_accumulate() {
        let mut c = ctx();
        assert_eq!(c.cycles, 0);
        c.instr(10);
        let after_instr = c.cycles;
        assert_eq!(after_instr, 40); // 4 cycles/instr
        let mem = DeviceMemory::new(64);
        c.global_read_u32(&mem, DevPtr(0));
        assert!(c.cycles >= after_instr + 500, "latency charged");
    }
}
