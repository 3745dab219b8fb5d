//! CUDA Fortran (description 2): the NVHPC `nvfortran -cuda` surface.
//!
//! Two styles, as in the paper: **explicit kernels** written against
//! Fortran conventions (1-based indices, column-major array descriptors),
//! and **`cuf kernels`** — directive-marked loops the compiler parallelises
//! automatically.

use crate::{CudaContext, CudaKernel, CudaResult};
use mcmm_gpu_sim::device::KernelArg;
use mcmm_gpu_sim::ir::{BinOp, CmpOp, KernelBuilder, Operand, Reg, Space, Type, Value};
use mcmm_gpu_sim::mem::DevicePtr;

/// A Fortran array descriptor: device pointer + extents, column-major.
#[derive(Debug, Clone, Copy)]
pub struct FortranArray {
    /// Device base pointer.
    pub ptr: DevicePtr,
    /// Extents (Fortran `dimension(n, m)`).
    pub extents: [u32; 2],
    /// Element type.
    pub ty: Type,
}

impl FortranArray {
    /// A rank-1 array of `n` elements.
    pub fn vector(ptr: DevicePtr, n: u32, ty: Type) -> Self {
        Self { ptr, extents: [n, 1], ty }
    }

    /// A rank-2 array (column-major).
    pub fn matrix(ptr: DevicePtr, rows: u32, cols: u32, ty: Type) -> Self {
        Self { ptr, extents: [rows, cols], ty }
    }

    /// Total elements.
    pub fn len(&self) -> u64 {
        u64::from(self.extents[0]) * u64::from(self.extents[1])
    }

    /// Is the array empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Builder for explicit CUDA Fortran kernels: exposes **1-based** global
/// indices and column-major addressing on top of the shared IR builder.
pub struct CufBuilder {
    /// The underlying shared-IR builder (exposed for raw operations).
    pub b: KernelBuilder,
}

impl CufBuilder {
    /// Start a Fortran kernel.
    pub fn new(name: &str) -> Self {
        Self { b: KernelBuilder::new(name) }
    }

    /// Declare an array parameter; returns its base-pointer register.
    pub fn array_param(&mut self) -> Reg {
        self.b.param(Type::I64)
    }

    /// Declare a scalar parameter.
    pub fn scalar_param(&mut self, ty: Type) -> Reg {
        self.b.param(ty)
    }

    /// The Fortran global index: `(blockIdx%x-1)*blockDim%x + threadIdx%x`,
    /// i.e. **1-based**.
    pub fn global_index(&mut self) -> Reg {
        let i0 = self.b.global_thread_id_x();
        self.b.bin(BinOp::Add, i0, Value::I32(1))
    }

    /// Load `arr(i)` with a 1-based index.
    pub fn load_1based(&mut self, ty: Type, base: Reg, i: Reg) -> Reg {
        let i0 = self.b.bin(BinOp::Sub, i, Value::I32(1));
        self.b.ld_elem(Space::Global, ty, base, i0)
    }

    /// Store `arr(i) = v` with a 1-based index.
    pub fn store_1based(&mut self, base: Reg, i: Reg, v: Reg) {
        let i0 = self.b.bin(BinOp::Sub, i, Value::I32(1));
        self.b.st_elem(Space::Global, base, i0, v);
    }

    /// Column-major rank-2 element address register for `arr(i, j)`
    /// (both 1-based): offset = (i-1) + (j-1)*rows.
    pub fn load_2d(&mut self, ty: Type, base: Reg, i: Reg, j: Reg, rows: u32) -> Reg {
        let idx = self.linear_index(i, j, rows);
        self.b.ld_elem(Space::Global, ty, base, idx)
    }

    /// Store to a column-major rank-2 element (1-based indices).
    pub fn store_2d(&mut self, base: Reg, i: Reg, j: Reg, rows: u32, v: Reg) {
        let idx = self.linear_index(i, j, rows);
        self.b.st_elem(Space::Global, base, idx, v);
    }

    fn linear_index(&mut self, i: Reg, j: Reg, rows: u32) -> Reg {
        let i0 = self.b.bin(BinOp::Sub, i, Value::I32(1));
        let j0 = self.b.bin(BinOp::Sub, j, Value::I32(1));
        let joff = self.b.bin(BinOp::Mul, j0, Value::I32(rows as i32));
        self.b.bin(BinOp::Add, i0, joff)
    }

    /// Finish the kernel.
    pub fn finish(self) -> mcmm_gpu_sim::ir::KernelIr {
        self.b.finish()
    }
}

/// `cuf kernels` (auto-parallelised loop): runs `body(builder, i)` for every
/// 1-based `i in 1..=n`, compiled and launched on the context.
///
/// The closure receives the raw [`KernelBuilder`] and the 1-based loop
/// index; array parameters are passed as [`FortranArray`]s whose base
/// pointers become the first kernel parameters in order.
pub fn cuf_kernels_do(
    ctx: &CudaContext,
    n: u32,
    arrays: &[FortranArray],
    body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]),
) -> CudaResult<CudaKernel> {
    let mut b = KernelBuilder::new("cuf_kernels_do");
    let bases: Vec<Reg> = arrays.iter().map(|_| b.param(Type::I64)).collect();
    let n_param = b.param(Type::I32);
    let i0 = b.global_thread_id_x();
    let i = b.bin(BinOp::Add, i0, Value::I32(1)); // 1-based
    let in_range = b.cmp(CmpOp::Le, i, n_param);
    let mut taken_body = Some(body);
    let bases_ref = &bases;
    b.if_(in_range, |b| {
        if let Some(f) = taken_body.take() {
            f(b, i, bases_ref);
        }
    });
    let _ = n;
    ctx.compile(&b.finish())
}

/// Launch a `cuf kernels` loop over `1..=n` with 256-thread blocks.
pub fn cuf_launch(
    ctx: &CudaContext,
    kernel: &CudaKernel,
    n: u32,
    arrays: &[FortranArray],
) -> CudaResult<()> {
    let mut args: Vec<KernelArg> = arrays.iter().map(|a| KernelArg::Ptr(a.ptr)).collect();
    args.push(KernelArg::I32(n as i32));
    ctx.launch(kernel, n.div_ceil(256).max(1), 256, &args).map(|_| ())
}

/// One-based saxpy in explicit CUDA Fortran style — used by tests, the
/// translators, and BabelStream's Fortran variants.
pub fn explicit_saxpy_kernel() -> mcmm_gpu_sim::ir::KernelIr {
    let mut f = CufBuilder::new("cuf_saxpy");
    let a = f.scalar_param(Type::F32);
    let x = f.array_param();
    let y = f.array_param();
    let n = f.scalar_param(Type::I32);
    let i = f.global_index();
    let ok = f.b.cmp(CmpOp::Le, i, n);
    // Manual in-bounds body (the builder's if_ works on the inner b).
    let i_minus = f.b.bin(BinOp::Sub, i, Value::I32(1));
    f.b.if_(ok, |b| {
        let sz = Operand::Imm(Value::I64(4));
        let i64v = b.cvt(Type::I64, i_minus);
        let off = b.bin(BinOp::Mul, i64v, sz);
        let xa = b.bin(BinOp::Add, x, off);
        let ya = b.bin(BinOp::Add, y, off);
        let xv = b.ld(Space::Global, Type::F32, xa);
        let yv = b.ld(Space::Global, Type::F32, ya);
        let ax = b.bin(BinOp::Mul, a, xv);
        let s = b.bin(BinOp::Add, ax, yv);
        b.st(Space::Global, ya, s);
    });
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::{Device, DeviceSpec};

    fn ctx() -> CudaContext {
        CudaContext::new_fortran(Device::new(DeviceSpec::nvidia_a100())).unwrap()
    }

    #[test]
    fn explicit_fortran_saxpy() {
        let ctx = ctx();
        let kernel = ctx.compile(&explicit_saxpy_kernel()).unwrap();
        // nvfortran -cuda is the vendor route; nvcc-level efficiency.
        assert_eq!(kernel.toolchain, "NVIDIA HPC SDK (nvfortran -cuda)");
        let n = 1000;
        let xs: Vec<f32> = (1..=n).map(|i| i as f32).collect();
        let ys = vec![1.0f32; n];
        let dx = ctx.upload(&xs).unwrap();
        let dy = ctx.upload(&ys).unwrap();
        ctx.launch(
            &kernel,
            (n as u32).div_ceil(128),
            128,
            &[
                KernelArg::F32(0.5),
                KernelArg::Ptr(dx),
                KernelArg::Ptr(dy),
                KernelArg::I32(n as i32),
            ],
        )
        .unwrap();
        let out = ctx.download::<f32>(dy, n).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 0.5 * (i + 1) as f32 + 1.0, "element {i}");
        }
    }

    #[test]
    fn cuf_kernels_auto_loop() {
        // y(i) = 2*x(i), i = 1..n, via the auto-parallelised form.
        let ctx = ctx();
        let n = 500u32;
        let xs: Vec<f32> = (1..=n).map(|i| i as f32).collect();
        let dx = ctx.upload(&xs).unwrap();
        let dy = ctx.upload(&vec![0.0f32; n as usize]).unwrap();
        let arrays =
            [FortranArray::vector(dx, n, Type::F32), FortranArray::vector(dy, n, Type::F32)];
        let kernel = cuf_kernels_do(&ctx, n, &arrays, |b, i, bases| {
            let i0 = b.bin(BinOp::Sub, i, Value::I32(1));
            let v = b.ld_elem(Space::Global, Type::F32, bases[0], i0);
            let w = b.bin(BinOp::Mul, v, Value::F32(2.0));
            k_store(b, bases[1], i0, w);
        })
        .unwrap();
        cuf_launch(&ctx, &kernel, n, &arrays).unwrap();
        let out = ctx.download::<f32>(dy, n as usize).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2.0 * (i + 1) as f32);
        }
    }

    fn k_store(b: &mut KernelBuilder, base: Reg, i0: Reg, v: Reg) {
        b.st_elem(Space::Global, base, i0, v);
    }

    #[test]
    fn column_major_matrix_addressing() {
        // b(i,j) = a(j,i) transpose via 2-D addressing, 4×3 → 3×4.
        let ctx = ctx();
        let (rows, cols) = (4u32, 3u32);
        let a_host: Vec<f32> = (0..rows * cols).map(|k| k as f32).collect(); // column-major a(4,3)
        let da = ctx.upload(&a_host).unwrap();
        let db = ctx.upload(&vec![0.0f32; (rows * cols) as usize]).unwrap();

        let mut f = CufBuilder::new("transpose");
        let a = f.array_param();
        let b_arr = f.array_param();
        let _n = f.scalar_param(Type::I32); // total elements (launch is exact)
        let g = f.global_index(); // 1-based linear over b's elements
        let g0 = f.b.bin(BinOp::Sub, g, Value::I32(1));
        // b is (cols × rows) = 3×4: i = g0 % 3 + 1, j = g0 / 3 + 1.
        let three = f.b.imm(Value::I32(cols as i32));
        let i0 = f.b.bin(BinOp::Rem, g0, three);
        let j0 = f.b.bin(BinOp::Div, g0, three);
        let i = f.b.bin(BinOp::Add, i0, Value::I32(1));
        let j = f.b.bin(BinOp::Add, j0, Value::I32(1));
        let v = f.load_2d(Type::F32, a, j, i, rows); // a(j, i), a has 4 rows
        f.store_2d(b_arr, i, j, cols, v); // b(i, j), b has 3 rows
        let kernel = ctx.compile(&f.finish()).unwrap();
        let total = rows * cols;
        ctx.launch(
            &kernel,
            1,
            total, // exactly one thread per element: no out-of-range lanes
            &[KernelArg::Ptr(da), KernelArg::Ptr(db), KernelArg::I32(total as i32)],
        )
        .unwrap();
        let out = ctx.download::<f32>(db, total as usize).unwrap();
        // Check b(i,j) == a(j,i): b is 3×4 column-major.
        for i in 0..cols {
            for j in 0..rows {
                let b_val = out[(i + j * cols) as usize];
                let a_val = a_host[(j + i * rows) as usize];
                assert_eq!(b_val, a_val, "b({},{})", i + 1, j + 1);
            }
        }
    }

    #[test]
    fn fortran_array_descriptors() {
        let a = FortranArray::vector(DevicePtr(0), 10, Type::F64);
        assert_eq!(a.len(), 10);
        assert!(!a.is_empty());
        let m = FortranArray::matrix(DevicePtr(0), 4, 5, Type::F32);
        assert_eq!(m.len(), 20);
        let e = FortranArray::vector(DevicePtr(0), 0, Type::F32);
        assert!(e.is_empty());
    }
}
