//! Block scheduling policy — how the grid's blocks are distributed over
//! the simulated compute units.
//!
//! Real GPUs dispatch blocks dynamically to whichever SM/CU has free slots;
//! static partitioning is what a naive simulator would do and suffers under
//! skewed per-block cost. Both are provided for the scheduling ablation
//! (DESIGN.md experiment A2).

/// Block scheduling policy for kernel launches: how
/// [`crate::pool::run_indexed`] hands out block indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Dynamic self-scheduling (hardware-like): each participant claims
    /// the next index from a shared atomic counter. Default.
    #[default]
    Dynamic,
    /// Static contiguous partitioning into pre-assigned ranges.
    Static,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_dynamic() {
        assert_eq!(SchedulePolicy::default(), SchedulePolicy::Dynamic);
    }
}
