//! # symi-tensor
//!
//! Dense `f32` linear-algebra kernels and optimizer math for the SYMI
//! Mixture-of-Experts training stack.
//!
//! This crate is the numeric substrate underneath `symi-model`: a small,
//! deterministic, CPU-only matrix library with exactly the operations a
//! GPT-style MoE transformer needs (blocked matmul in the three layouts used
//! by forward/backward passes, row softmax, LayerNorm, GELU, cross-entropy)
//! plus a from-scratch Adam optimizer that keeps fp32 *master* state separate
//! from the working weights — mirroring the mixed-precision layout whose byte
//! sizes (2 B/param weights vs 16 B/param optimizer state) drive the SYMI
//! paper's cost analysis.
//!
//! Design notes:
//! - Everything accumulates in `f32`, row-major, allocation-explicit. The hot
//!   GEMM paths are cache-blocked and register-tiled ([`kernels`]), dispatch
//!   to AVX2+FMA microkernels when the CPU has them ([`simd`]; the register
//!   tile on 512-bit registers where it also has AVX-512F, same bits; scalar
//!   fallback otherwise, `SYMI_SIMD` override) and run on a std-only fixed
//!   worker pool ([`pool`]) behind a cost-model gate; within one process a
//!   GEMM's result is bit-identical for **any** worker count (see the
//!   determinism contract in [`kernels`]), and the scalar path is
//!   additionally bit-exact vs the naive oracle. The transcendentals of the
//!   hot loops (GELU, GELU′, the softmax exponent) run on [`vmath`]: one
//!   IEEE operation sequence per function, encoded scalar and AVX2, whose
//!   results are bit-identical across both encodings and any worker count —
//!   libm is only the tests' reference. The Adam step ([`adam`]) and the
//!   binary16 codec ([`half`]) follow the same rule — scalar specification,
//!   AVX2+F16C encoding, bit-identical — and the sharded optimizer publishes
//!   its weights as binary16 bits in the pass that updates them. A
//!   [`HalfMatrix`] keeps such bits as a matrix, and `nn` / `nt` read it as
//!   their B operand where it lies ([`BOperand`]), with the bits of the f32
//!   GEMM on its decoded values. The
//!   workspace's `unsafe` is
//!   confined to this crate: the pool's scoped-dispatch lifetime erasure
//!   (documented in [`pool`]) and the feature-gated `std::arch` intrinsics
//!   in [`simd`] behind safe runtime-detected wrappers.
//! - All stochastic initialization takes a caller-provided RNG so experiments
//!   are reproducible bit-for-bit.
//! - [`gradcheck`] provides the numerical-differentiation harness used by the
//!   model crate's per-layer gradient tests.

pub mod adam;
pub mod gradcheck;
pub mod half;
pub mod init;
pub mod kernels;
pub mod matrix;
pub mod ops;
pub mod pool;
pub mod rng;
#[cfg(target_arch = "x86_64")]
pub mod simd;
pub mod vmath;

pub use adam::{AdamConfig, AdamShard, AdamState, Dest, Grad, ShardStep};
pub use half::HalfMatrix;
pub use kernels::{act_stats, kernel_stats, ActStats, BOperand, KernelStats};
pub use matrix::Matrix;
pub use pool::PoolStats;
pub use rng::{Distribution, Normal, Rng, SplitMix64, StdRng, Uniform};
