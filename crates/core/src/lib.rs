//! # orbit-core
//!
//! The ORBIT paper's contribution: **Hybrid Sharded Tensor-Data Orthogonal
//! Parallelism (Hybrid-STOP)** and the baseline parallelisms it is compared
//! against, implemented as executable training engines over the simulated
//! cluster in `orbit-comm`.
//!
//! The mathematical heart is paper Eqns. (1)-(3): a matrix chain
//! `y <- x A B` is exact under column-sharding `A` and row-sharding `B`:
//!
//! ```text
//! y = x A B = sum_k  (x A_{*,k}) B_{k,*}
//! dy/dx      = sum_k  B_{k,*}^T A_{*,k}^T
//! ```
//!
//! [`tp_block::TpBlock`] realizes this for the transformer block's two
//! sub-layers (attention: Wq/Wk/Wv column-sharded, Wo row-sharded; MLP: W1
//! column-sharded, W2 row-sharded), with partial activations summed by a
//! tensor-parallel all-reduce. [`engines::HybridStopEngine`] additionally
//! FSDP-shards each rank's tensor-parallel shard across nodes (gathering
//! one layer at a time — never the full model, unlike vanilla FSDP) and
//! adds an orthogonal DDP level across sub-clusters (paper Fig. 4).
//!
//! Every engine is tested for *gradient equivalence* against the
//! single-device reference model in `orbit-vit`: that is the correctness
//! claim of the paper, reproduced exactly.
//!
//! Every engine implements the object-safe [`engines::Engine`] trait and
//! delegates its shared step machinery to an [`engines::Trainer`]; generic
//! callers construct a `Box<dyn Engine>` via [`engines::build_engine`] with
//! an [`engines::EngineSpec`]. Concrete engines:
//! [`engines::DataParallelEngine`] (single-device, DDP and vanilla FSDP,
//! which differ only in parameter layout; FSDP's full-model gather is the
//! Fig. 2 peak memory pathology), [`engines::TensorParallelEngine`]
//! (Megatron-style, head-limited), [`engines::PipelineEngine`]
//! (GPipe-style), [`engines::HybridStopEngine`].

#![forbid(unsafe_code)]

pub mod dcomm;
pub mod elastic;
pub mod engines;
pub mod lint;
pub mod resilient;
pub mod scaler;
pub mod stats;
pub mod tp_block;

pub use dcomm::{comm_err, GroupComm};
pub use elastic::{ElasticReport, ElasticTrainer, LaunchRecord};
pub use engines::{
    build_engine, spec_for_plan, DataParallelEngine, Engine, EngineSpec, HybridStopEngine,
    PipelineEngine, TensorParallelEngine, Trainer,
};
pub use lint::{extract_comm_plan, lint_engine_spec, planner_static_check};
pub use resilient::{AttemptSpec, ResilientReport, ResilientTrainer};
pub use scaler::GradScaler;
pub use stats::StepStats;

// Re-export the shared strategy/layout/options vocabulary so users of the
// core crate do not need to depend on orbit-frontier directly.
pub use orbit_frontier::{ParallelLayout, Strategy, TrainOptions};
