//! CUDA streams and events: the asynchronous slice of the runtime API
//! (description 1 — "the toolkit covers nearly all aspects of the
//! platform"), wrapping the simulator's in-order queues.

use crate::{CudaContext, CudaError, CudaKernel, CudaResult};
use mcmm_gpu_sim::device::{KernelArg, LaunchConfig};
use mcmm_gpu_sim::event::Event;
use mcmm_gpu_sim::mem::DevicePtr;
use mcmm_gpu_sim::stream::{Pending, Stream};
use std::marker::PhantomData;
use std::sync::Arc;

/// `cudaStream_t` — an in-order asynchronous queue. It borrows its
/// context, whose memory its queued copies and launches use, and drains
/// when it drops, so no queued operation can outlive that memory:
///
/// ```compile_fail,E0597
/// # use mcmm_gpu_sim::{Device, DeviceSpec};
/// # use mcmm_model_cuda::CudaContext;
/// let stream;
/// {
///     let ctx = CudaContext::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
///     stream = ctx.cuda_stream_create();
/// } // `ctx` does not live long enough: `stream` drains after it
/// ```
pub struct CudaStream<'ctx> {
    stream: Stream,
    _ctx: PhantomData<&'ctx CudaContext>,
}

/// `cudaEvent_t`.
#[derive(Clone)]
pub struct CudaEvent {
    event: Event,
}

impl CudaContext {
    /// `cudaStreamCreate`.
    pub fn cuda_stream_create(&self) -> CudaStream<'_> {
        CudaStream { stream: Stream::new(Arc::clone(self.device())), _ctx: PhantomData }
    }

    /// `cudaEventCreate`.
    pub fn cuda_event_create(&self) -> CudaEvent {
        CudaEvent { event: Event::new() }
    }
}

impl CudaStream<'_> {
    /// `cudaMemcpyAsync` host→device.
    pub fn memcpy_async_htod(&self, dst: DevicePtr, data: Vec<u8>) {
        self.stream.memcpy_h2d(dst, data);
    }

    /// `cudaMemcpyAsync` device→host; resolve the handle after a
    /// synchronise.
    pub fn memcpy_async_dtoh(&self, src: DevicePtr, len: u64) -> Pending<Vec<u8>> {
        self.stream.memcpy_d2h(src, len)
    }

    /// Asynchronous kernel launch (`kernel<<<grid, block, 0, stream>>>`).
    pub fn launch_async(
        &self,
        kernel: &CudaKernel,
        grid_dim: u32,
        block_dim: u32,
        args: Vec<KernelArg>,
    ) {
        let cfg = LaunchConfig {
            grid_dim,
            block_dim,
            policy: Default::default(),
            efficiency: kernel.efficiency(),
        };
        self.stream.launch(kernel.module().clone(), cfg, args);
    }

    /// `cudaEventRecord(event, stream)`.
    pub fn event_record(&self, event: &CudaEvent) {
        self.stream.record(&event.event);
    }

    /// `cudaStreamSynchronize`.
    pub fn synchronize(&self) -> CudaResult<()> {
        self.stream.synchronize().map_err(|e| CudaError::LaunchFailure(e.to_string()))
    }
}

impl Drop for CudaStream<'_> {
    /// Drain the queue while the context's memory is still allocated.
    fn drop(&mut self) {
        let _ = self.stream.synchronize();
    }
}

impl CudaEvent {
    /// `cudaEventQuery` — has the event completed?
    pub fn query(&self) -> bool {
        self.event.query()
    }

    /// `cudaEventSynchronize`.
    pub fn synchronize(&self) {
        let _ = self.event.wait();
    }

    /// `cudaEventElapsedTime(start, end)` in *modeled* milliseconds.
    pub fn elapsed_ms_since(&self, start: &CudaEvent) -> CudaResult<f64> {
        self.event
            .elapsed_since(&start.event)
            .map(|t| t.seconds() * 1e3)
            .ok_or_else(|| CudaError::InvalidValue("event not yet recorded".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, CmpOp, KernelBuilder, Space, Type};
    use mcmm_gpu_sim::{Device, DeviceSpec};

    fn ctx() -> CudaContext {
        CudaContext::new(Device::new(DeviceSpec::nvidia_a100())).unwrap()
    }

    fn double_kernel(ctx: &CudaContext) -> CudaKernel {
        let mut k = KernelBuilder::new("double");
        let x = k.param(Type::I64);
        let n = k.param(Type::I32);
        let i = k.global_thread_id_x();
        let ok = k.cmp(CmpOp::Lt, i, n);
        k.if_(ok, |k| {
            let v = k.ld_elem(Space::Global, Type::F32, x, i);
            let w = k.bin(BinOp::Mul, v, crate::Value::F32(2.0));
            k.st_elem(Space::Global, x, i, w);
        });
        ctx.compile(&k.finish()).unwrap()
    }

    #[test]
    fn async_pipeline_with_events() {
        let ctx = ctx();
        let stream = ctx.cuda_stream_create();
        let kernel = double_kernel(&ctx);
        let n = 1024usize;
        let ptr = ctx.cuda_malloc(n as u64 * 4).unwrap();

        let start = ctx.cuda_event_create();
        let stop = ctx.cuda_event_create();
        assert!(!start.query());

        let data: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        stream.event_record(&start);
        stream.memcpy_async_htod(ptr, data);
        stream.launch_async(
            &kernel,
            (n as u32).div_ceil(256),
            256,
            vec![KernelArg::Ptr(ptr), KernelArg::I32(n as i32)],
        );
        stream.event_record(&stop);
        let pending = stream.memcpy_async_dtoh(ptr, n as u64 * 4);
        stream.synchronize().unwrap();

        assert!(start.query() && stop.query());
        let ms = stop.elapsed_ms_since(&start).unwrap();
        assert!(ms > 0.0, "copy + kernel must advance the modeled clock");

        let bytes = pending.wait().unwrap();
        let out: Vec<f32> =
            bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32);
        }
    }

    #[test]
    fn unrecorded_event_elapsed_errors() {
        let ctx = ctx();
        let a = ctx.cuda_event_create();
        let b = ctx.cuda_event_create();
        assert!(matches!(b.elapsed_ms_since(&a), Err(CudaError::InvalidValue(_))));
    }

    #[test]
    fn two_streams_are_independent_queues() {
        let ctx = ctx();
        let s1 = ctx.cuda_stream_create();
        let s2 = ctx.cuda_stream_create();
        let p1 = ctx.cuda_malloc(64).unwrap();
        let p2 = ctx.cuda_malloc(64).unwrap();
        s1.memcpy_async_htod(p1, vec![1u8; 64]);
        s2.memcpy_async_htod(p2, vec![2u8; 64]);
        s1.synchronize().unwrap();
        s2.synchronize().unwrap();
        let a = s1.memcpy_async_dtoh(p1, 64);
        let b = s2.memcpy_async_dtoh(p2, 64);
        s1.synchronize().unwrap();
        s2.synchronize().unwrap();
        assert!(a.wait().unwrap().iter().all(|&x| x == 1));
        assert!(b.wait().unwrap().iter().all(|&x| x == 2));
    }
}
