//! Performance counters collected during a launch.
//!
//! A block engine counts its block into a [`LaunchStats`] on its own stack
//! and returns it; the device sums a launch's blocks into one, whose
//! totals feed the analytic timing model in [`crate::timing`].

/// Launch statistics: one block's counts as a block engine returns them,
/// or a whole launch's as [`crate::device::LaunchReport`] carries them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Warp-instructions issued (one per instruction per warp with an
    /// active lane, regardless of how many lanes were active — SIMT issues
    /// the full warp).
    pub warp_instructions: u64,
    /// Arithmetic (FLOP-class) warp issues.
    pub warp_arith: u64,
    /// Bytes read from global memory (active lanes × element size).
    pub bytes_read: u64,
    /// Bytes written to global memory.
    pub bytes_written: u64,
    /// Lane-level atomic operations.
    pub atomics: u64,
    /// Block-level barriers executed.
    pub barriers: u64,
    /// Blocks executed (set by the device from the grid).
    pub blocks: u64,
    /// Warps executed, summed over blocks (set by the device from the
    /// grid).
    pub warps: u64,
}

impl LaunchStats {
    /// Total global-memory traffic.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Merge two launches' (or blocks') statistics.
    pub fn merged(self, other: LaunchStats) -> LaunchStats {
        LaunchStats {
            warp_instructions: self.warp_instructions + other.warp_instructions,
            warp_arith: self.warp_arith + other.warp_arith,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            atomics: self.atomics + other.atomics,
            barriers: self.barriers + other.barriers,
            blocks: self.blocks + other.blocks,
            warps: self.warps + other.warps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_sums_fields() {
        let a =
            LaunchStats { warp_instructions: 1, bytes_read: 2, blocks: 1, ..Default::default() };
        let b =
            LaunchStats { warp_instructions: 3, bytes_written: 4, blocks: 2, ..Default::default() };
        let m = a.merged(b);
        assert_eq!(m.warp_instructions, 4);
        assert_eq!(m.bytes_total(), 6);
        assert_eq!(m.blocks, 3);
    }
}
