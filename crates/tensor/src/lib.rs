//! # orbit-tensor
//!
//! Dense tensor kernels for ORBIT-RS: a from-scratch, deterministic,
//! CPU-parallel tensor library with *explicit backward passes* for
//! every layer the ORBIT vision transformer needs.
//!
//! The ORBIT paper's contribution (Hybrid-STOP) operates at the level of the
//! matrix chain `y <- x A B` (paper Eqns. (1)-(3)). This crate therefore
//! exposes matrices and matrix-chain kernels directly rather than hiding them
//! behind a general autograd tape: the sharded engines in `orbit-core` re-use
//! exactly the same forward/backward functions that the single-device
//! reference model uses, which is what makes the distributed-vs-reference
//! equivalence tests meaningful.
//!
//! Modules:
//! - [`tensor`]: the row-major [`Tensor`] matrix type and element-wise ops.
//! - [`bf16`]: software bfloat16 with round-to-nearest-even, used to emulate
//!   the MI250X BF16 mixed-precision pipeline.
//! - [`matmul`]: blocked, parallel GEMM in several transpose variants
//!   and precisions.
//! - [`kernels`]: layer forward/backward pairs (linear, layernorm, GeLU,
//!   softmax, attention, patch embedding, cross-attention aggregation).
//! - [`init`]: deterministic parameter initialization from the seeded
//!   xoshiro256** [`init::Rng`].
//! - [`par`]: the process-wide pool behind every data-parallel kernel loop.
//! - [`workspace`]: a pooled scratch arena ([`Workspace`]) threaded through
//!   the hot kernels so steady-state training steps allocate nothing.
//! - [`dtensor`]: layout-aware distributed tensors — a [`dtensor::DTensor`]
//!   carries a [`dtensor::Layout`] per axis of a named [`dtensor::DeviceMesh`],
//!   and [`dtensor::DTensor::reshard`] lowers layout transitions onto the
//!   nonblocking collectives behind the [`dtensor::Collectives`] trait.

pub mod bf16;
pub mod dtensor;
pub mod init;
pub mod kernels;
pub mod matmul;
pub mod par;
pub mod tensor;
pub mod workspace;

pub use bf16::{bf16_to_f32, f32_to_bf16, round_bf16, Precision};
pub use dtensor::{
    reshard_legal, split_legal, Collectives, DTensor, DeviceMesh, Layout, LayoutError,
    ReshardError, ReshardNote,
};
pub use kernels::attention::AttnPath;
pub use matmul::{matmul, matmul_nt, matmul_p, matmul_tn, matmul_tn_acc};
pub use tensor::Tensor;
pub use workspace::Workspace;
