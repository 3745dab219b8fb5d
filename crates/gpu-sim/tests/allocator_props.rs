//! Property tests for the device memory allocator: arbitrary alloc/free
//! sequences must never hand out overlapping blocks, never lose capacity,
//! and always coalesce back to a fully free memory.

use mcmm_gpu_sim::mem::GlobalMemory;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Alloc(u64),
    /// Free the i-th oldest live allocation (modulo live count).
    Free(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![(1u64..5000).prop_map(Op::Alloc), (0usize..16).prop_map(Op::Free)],
        1..60,
    )
}

proptest! {
    #[test]
    fn alloc_free_sequences_keep_invariants(ops in arb_ops()) {
        let capacity = 1 << 20;
        let mem = GlobalMemory::new(capacity);
        let mut live: Vec<(u64, u64)> = Vec::new(); // (start, len)

        for op in ops {
            match op {
                Op::Alloc(len) => {
                    if let Ok(ptr) = mem.alloc(len) {
                        // 256-byte alignment contract.
                        prop_assert_eq!(ptr.0 % 256, 0);
                        // In bounds.
                        prop_assert!(ptr.0 + len <= capacity);
                        // No overlap with any live allocation (lengths are
                        // rounded up to the 256-byte granule internally).
                        let granule = |l: u64| (l.max(1) + 255) & !255;
                        for &(s, l) in &live {
                            let (a0, a1) = (ptr.0, ptr.0 + granule(len));
                            let (b0, b1) = (s, s + granule(l));
                            prop_assert!(a1 <= b0 || b1 <= a0,
                                "overlap: new [{a0},{a1}) vs live [{b0},{b1})");
                        }
                        live.push((ptr.0, len));
                    }
                }
                Op::Free(i) => {
                    if !live.is_empty() {
                        let (start, len) = live.remove(i % live.len());
                        mem.free(mcmm_gpu_sim::mem::DevicePtr(start), len);
                    }
                }
            }
        }

        // Free everything; capacity must fully coalesce.
        for (start, len) in live.drain(..) {
            mem.free(mcmm_gpu_sim::mem::DevicePtr(start), len);
        }
        prop_assert_eq!(mem.free_bytes(), capacity);
        // And a full-capacity allocation succeeds again.
        prop_assert!(mem.alloc(capacity).is_ok());
    }

    #[test]
    fn free_bytes_never_exceeds_capacity(ops in arb_ops()) {
        let capacity = 1 << 18;
        let mem = GlobalMemory::new(capacity);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(len) => {
                    if let Ok(ptr) = mem.alloc(len) {
                        live.push((ptr.0, len));
                    }
                }
                Op::Free(i) => {
                    if !live.is_empty() {
                        let (s, l) = live.remove(i % live.len());
                        mem.free(mcmm_gpu_sim::mem::DevicePtr(s), l);
                    }
                }
            }
            prop_assert!(mem.free_bytes() <= capacity);
        }
    }
}

/// A size whose rounding to whole granules overflows is out of memory,
/// and reserves nothing.
#[test]
fn an_allocation_size_that_overflows_is_out_of_memory() {
    use mcmm_gpu_sim::{Device, DeviceSpec, SimError};
    let dev = Device::new(DeviceSpec::nvidia_a100());
    let capacity = dev.memory().capacity();
    for len in [u64::MAX, u64::MAX - 254] {
        assert!(
            matches!(dev.alloc(len), Err(SimError::OutOfMemory { .. })),
            "alloc({len}) must be out of memory"
        );
    }
    assert_eq!(dev.memory().free_bytes(), capacity);
}
