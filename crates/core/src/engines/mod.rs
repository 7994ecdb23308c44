//! Distributed training engines.
//!
//! Every engine implements the object-safe [`Engine`] trait — one
//! [`Engine::train_step`] over the global batch — and delegates the shared
//! scaffold (batch partitioning, the microbatch forward/backward loop,
//! mixed-precision loss scaling, simulated compute charging, stats
//! assembly) to a [`Trainer`]. Each engine file keeps only its distinct
//! shard layout and collective choreography:
//!
//! | [`EngineSpec`] ([`Engine::name`]) | engine | parameters | gradients | data |
//! |---|---|---|---|---|
//! | `Single` (`single_device`) | [`DataParallelEngine`] | `Replicate` on a 1-rank mesh | local | whole batch |
//! | `Ddp` (`ddp`) | [`DataParallelEngine`] | `Replicate` | `Partial → Replicate`: **one all-reduce per step** | partitioned |
//! | `Fsdp` (`fsdp`, vanilla) | [`DataParallelEngine`] | `ShardFlat` 1/N, **full-model gather** per step | `Partial → ShardFlat`: reduce-scatter | partitioned |
//! | `TensorParallel` (`tensor_parallel`) | [`TensorParallelEngine`] | column/row shards, never gathered | local to shard | replicated |
//! | `Pipeline` (`pipeline`) | [`PipelineEngine`] | layer-partitioned stages | local to stage | whole batch, staged |
//! | `HybridStop` (`hybrid_stop`) | [`HybridStopEngine`] | TP shards, FSDP-sharded, gathered **one layer unit at a time** | reduce-scatter + DDP all-reduce | partitioned across FSDP x DDP |
//!
//! The first three are one engine: they differ only in the parameter
//! layout the spec selects, so they share every line of step, predict,
//! capture and restore code.
//!
//! Engines are constructed *inside* a cluster rank closure (see
//! [`orbit_comm::Cluster::run`]), either directly by type or generically
//! through [`EngineSpec`] / [`build_engine`], which return a
//! `Box<dyn Engine>` so tests, benches, and examples dispatch over all
//! strategies with one code path.

mod data_parallel;
mod hybrid_stop;
mod pipeline;
mod tp;
mod trainer;

pub use data_parallel::DataParallelEngine;
pub use hybrid_stop::HybridStopEngine;
pub use pipeline::PipelineEngine;
pub use tp::TensorParallelEngine;
pub use trainer::Trainer;

use crate::stats::StepStats;
use orbit_comm::{RankCtx, SimError};
use orbit_frontier::perfmodel::Calibration;
use orbit_frontier::planner::PlanCandidate;
use orbit_frontier::{FrontierMachine, ParallelLayout, Strategy, TrainOptions};
use orbit_tensor::kernels::AdamW;
use orbit_tensor::Tensor;
use orbit_vit::{Batch, Checkpoint, ShardData, VitConfig};

/// A distributed training engine: one parallelism strategy driving the
/// shared ViT math over the simulated cluster.
///
/// The trait is object-safe; generic callers hold a `Box<dyn Engine>` from
/// [`build_engine`] and stay agnostic of the strategy.
pub trait Engine {
    /// One optimizer step over the **global** batch. Every rank of the
    /// cluster must call this collectively with the same batch; the engine
    /// partitions data internally according to its data-replica layout.
    /// Returns globally-synchronized statistics. Fails with a typed
    /// [`SimError`] on simulated OOM or a communication failure (e.g. a
    /// peer died mid-collective) — never deadlocks or panics for those.
    fn train_step(&mut self, ctx: &mut RankCtx, batch: &Batch) -> Result<StepStats, SimError>;

    /// Assemble a layout-independent full-model [`Checkpoint`] (parameters
    /// plus Adam state) on every rank. Collective: all ranks must call it
    /// together. The result is identical across ranks, so any one of them
    /// can persist it, and it can be restored into *any* engine layout.
    fn capture_checkpoint(&mut self, ctx: &mut RankCtx) -> Result<Checkpoint, SimError>;

    /// Capture shard `index` of `count` of the sharded checkpoint format
    /// (`orbit_vit::sharded`): this rank's slice of the parameters and
    /// Adam moments plus the replicated scalar state. The default gathers
    /// a full [`Checkpoint`] and slices it — correct for every engine but
    /// paying the full-model gather. Engines whose persistent layout
    /// *already is* the requested slice (FSDP's `ShardFlat`) override this
    /// with a gather-free local copy. Collective in the default path: all
    /// ranks must call it together.
    fn capture_shard(
        &mut self,
        ctx: &mut RankCtx,
        index: usize,
        count: usize,
    ) -> Result<ShardData, SimError> {
        let ck = self.capture_checkpoint(ctx)?;
        Ok(ShardData::from_checkpoint(&ck, index, count))
    }

    /// Load a full-model [`Checkpoint`] into this engine's shard layout —
    /// the restart half of checkpoint/restart, including Hybrid-STOP's
    /// reshard-on-restart. Collective: all ranks must call it together.
    fn restore_checkpoint(&mut self, ctx: &mut RankCtx, ck: &Checkpoint) -> Result<(), SimError>;

    /// Inference-only forward over a batch of observations (each a vector
    /// of per-channel images), the serving path: no loss, no backward, no
    /// optimizer. Compute is charged at forward cost. Collective for
    /// sharded layouts — every rank of the engine's communicator must call
    /// it together with identical inputs, and each returns the full
    /// predictions. Engines without an inference path (pipeline,
    /// hybrid-STOP) return a typed [`SimError::State`].
    fn predict(
        &mut self,
        ctx: &mut RankCtx,
        inputs: &[Vec<Tensor>],
    ) -> Result<Vec<Vec<Tensor>>, SimError> {
        let _ = (ctx, inputs);
        Err(SimError::State(format!(
            "engine {} has no inference-only forward",
            self.name()
        )))
    }

    /// Model generation of the engine's current weights: the `adam_step`
    /// of the checkpoint they were restored from (the global step it was
    /// captured at), or 0 for freshly initialized weights. The serving layer
    /// stamps predictions with it so response caches can refuse entries
    /// computed by superseded weights.
    fn generation(&self) -> u64 {
        0
    }

    /// Stable snake_case strategy name (used in reports and traces).
    fn name(&self) -> &str;
}

/// Which engine to build — the generic-dispatch counterpart of the
/// concrete `*Engine::new` constructors. `Single`, `Ddp` and `Fsdp` all
/// build a [`DataParallelEngine`] and select its parameter layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSpec {
    Single,
    Ddp,
    Fsdp,
    TensorParallel,
    Pipeline,
    HybridStop(ParallelLayout),
}

impl EngineSpec {
    /// The [`Engine::name`] the built engine will report.
    pub fn name(&self) -> &'static str {
        match self {
            EngineSpec::Single => "single_device",
            EngineSpec::Ddp => "ddp",
            EngineSpec::Fsdp => "fsdp",
            EngineSpec::TensorParallel => "tensor_parallel",
            EngineSpec::Pipeline => "pipeline",
            EngineSpec::HybridStop(_) => "hybrid_stop",
        }
    }
}

/// Check that `spec` is constructible on a `world`-rank cluster with this
/// model *before* any engine state is built, so an impossible request
/// fails with one clear [`SimError::State`] instead of a panic (or a
/// cryptic divide error) deep inside engine construction.
fn validate_spec(spec: &EngineSpec, world: usize, cfg: &VitConfig) -> Result<(), SimError> {
    match spec {
        EngineSpec::Single | EngineSpec::Ddp | EngineSpec::Fsdp => Ok(()),
        EngineSpec::TensorParallel => {
            if !cfg.dims.heads.is_multiple_of(world) {
                return Err(SimError::State(format!(
                    "tensor_parallel needs the head count to divide over the world: \
                     {} heads cannot split across {world} ranks",
                    cfg.dims.heads
                )));
            }
            Ok(())
        }
        EngineSpec::Pipeline => {
            if world > cfg.dims.layers {
                return Err(SimError::State(format!(
                    "pipeline needs at least one transformer layer per stage: \
                     {} layers cannot spread over {world} ranks",
                    cfg.dims.layers
                )));
            }
            Ok(())
        }
        EngineSpec::HybridStop(layout) => {
            if layout.world() != world {
                return Err(SimError::State(format!(
                    "hybrid_stop layout tp={} x fsdp={} x ddp={} covers {} ranks \
                     but the cluster has {world}",
                    layout.tp,
                    layout.fsdp,
                    layout.ddp,
                    layout.world()
                )));
            }
            if !cfg.dims.heads.is_multiple_of(layout.tp) {
                return Err(SimError::State(format!(
                    "hybrid_stop tensor-parallel degree {} does not divide the \
                     {} attention heads",
                    layout.tp, cfg.dims.heads
                )));
            }
            Ok(())
        }
    }
}

/// Construct the engine `spec` describes on the calling rank. All ranks
/// must pass the same spec and seed. The spec is validated against the
/// cluster world size and model shape first, so an infeasible request
/// fails with a clear [`SimError::State`] before any memory is charged.
///
/// In debug builds this additionally pre-flights the spec through the
/// static comm-plan analyzer (`orbit_comm::lint`) once per configuration
/// per process — a statically invalid program fails construction with the
/// first lint finding instead of hanging or diverging at runtime. Set
/// `ORBIT_LINT_PREFLIGHT=0` to opt out.
pub fn build_engine(
    ctx: &RankCtx,
    spec: EngineSpec,
    cfg: VitConfig,
    opt: AdamW,
    opts: TrainOptions,
    seed: u64,
) -> Result<Box<dyn Engine>, SimError> {
    validate_spec(&spec, ctx.world, &cfg)?;
    crate::lint::debug_preflight(ctx.machine(), ctx.world, &spec, &cfg, &opts)?;
    build_engine_inner(ctx, spec, cfg, opt, opts, seed)
}

/// [`build_engine`] without the debug pre-flight: validation plus
/// construction only. The lint extraction harness itself builds engines
/// through this entry point (the pre-flight would recurse).
pub(crate) fn build_engine_inner(
    ctx: &RankCtx,
    spec: EngineSpec,
    cfg: VitConfig,
    opt: AdamW,
    opts: TrainOptions,
    seed: u64,
) -> Result<Box<dyn Engine>, SimError> {
    validate_spec(&spec, ctx.world, &cfg)?;
    Ok(match spec {
        EngineSpec::Single | EngineSpec::Ddp | EngineSpec::Fsdp => {
            Box::new(DataParallelEngine::new(ctx, spec, cfg, opt, opts, seed)?)
        }
        EngineSpec::TensorParallel => {
            Box::new(TensorParallelEngine::new(ctx, cfg, opt, opts, seed)?)
        }
        EngineSpec::Pipeline => Box::new(PipelineEngine::new(ctx, cfg, opt, opts, seed)?),
        EngineSpec::HybridStop(layout) => {
            Box::new(HybridStopEngine::new(ctx, layout, cfg, opt, opts, seed)?)
        }
    })
}

/// The [`EngineSpec`] that executes a planner candidate: the bridge from
/// the analytic search in `orbit_frontier::planner` to the simulated
/// engines. Pipeline has no [`orbit_frontier::Strategy`] counterpart (the
/// planner never proposes it), so every candidate maps onto a spec.
pub fn spec_for_plan(candidate: &PlanCandidate) -> EngineSpec {
    match candidate.strategy {
        Strategy::SingleDevice => EngineSpec::Single,
        Strategy::Ddp => EngineSpec::Ddp,
        Strategy::Fsdp => EngineSpec::Fsdp,
        Strategy::TensorParallel => EngineSpec::TensorParallel,
        Strategy::HybridStop => EngineSpec::HybridStop(candidate.layout),
    }
}

/// Sustained per-GPU throughput used for simulated compute time, under an
/// explicit calibration (so experiments can sweep calibrations without
/// recompiling). Engines reach this through [`Trainer::sustained`].
pub(crate) fn sustained_flops(machine: &FrontierMachine, calib: &Calibration, mixed: bool) -> f64 {
    if mixed {
        machine.peak_bf16 * calib.mfu_bf16
    } else {
        machine.peak_fp32 * calib.mfu_fp32
    }
}

/// Slice a global batch into the local batch for data replica
/// `replica_id` of `n_replicas`, round-robin by sample index.
///
/// When the batch divides evenly every replica sees `global.len() /
/// n_replicas` samples. When it does not, the first `global.len() %
/// n_replicas` replicas receive one extra sample; **no sample is ever
/// dropped or duplicated** across the replicas. Engines whose collectives
/// need every replica in lockstep require the even case and assert it via
/// [`Trainer::partition`].
pub fn local_batch(global: &Batch, replica_id: usize, n_replicas: usize) -> Batch {
    assert!(replica_id < n_replicas);
    let mut out = Batch::default();
    for (s, (inp, tgt)) in global.inputs.iter().zip(&global.targets).enumerate() {
        if s % n_replicas == replica_id {
            out.inputs.push(inp.clone());
            out.targets.push(tgt.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit_tensor::Tensor;

    fn batch(n: usize) -> Batch {
        Batch {
            inputs: (0..n).map(|s| vec![Tensor::full(2, 2, s as f32)]).collect(),
            targets: (0..n).map(|s| vec![Tensor::full(2, 2, s as f32)]).collect(),
        }
    }

    #[test]
    fn local_batches_partition_global() {
        let g = batch(6);
        let parts: Vec<Batch> = (0..3).map(|r| local_batch(&g, r, 3)).collect();
        assert!(parts.iter().all(|p| p.len() == 2));
        // Sample 0 goes to replica 0, sample 1 to replica 1, etc.
        assert_eq!(parts[0].inputs[0][0].get(0, 0), 0.0);
        assert_eq!(parts[1].inputs[0][0].get(0, 0), 1.0);
        assert_eq!(parts[2].inputs[1][0].get(0, 0), 5.0);
    }

    #[test]
    fn single_replica_gets_everything() {
        let g = batch(4);
        let l = local_batch(&g, 0, 1);
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn uneven_batch_splits_without_dropping_samples() {
        // 7 samples over 3 replicas: the first 7 % 3 = 1 replica gets an
        // extra sample.
        let g = batch(7);
        let parts: Vec<Batch> = (0..3).map(|r| local_batch(&g, r, 3)).collect();
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![3, 2, 2], "remainder goes to the first replicas");
        // Every sample appears exactly once across all replicas.
        let mut seen: Vec<f32> = parts
            .iter()
            .flat_map(|p| p.inputs.iter().map(|t| t[0].get(0, 0)))
            .collect();
        seen.sort_by(f32::total_cmp);
        let expected: Vec<f32> = (0..7).map(|s| s as f32).collect();
        assert_eq!(seen, expected, "no sample dropped or duplicated");
    }

    #[test]
    fn engine_spec_names_are_stable() {
        assert_eq!(EngineSpec::Ddp.name(), "ddp");
        assert_eq!(
            EngineSpec::HybridStop(ParallelLayout::new(2, 2, 1)).name(),
            "hybrid_stop"
        );
    }

    /// Run `build_engine` with `spec` on a 4-rank cluster and assert every
    /// rank fails fast with a [`SimError::State`] whose message contains
    /// `needle`.
    fn assert_rejected(spec: EngineSpec, needle: &str) {
        let outcomes = orbit_comm::Cluster::frontier().try_run(4, |ctx| {
            // test_tiny has 2 heads and 2 layers, so every spec below is
            // infeasible at world 4 and must be rejected before any engine
            // state is built.
            build_engine(
                ctx,
                spec,
                VitConfig::test_tiny(),
                AdamW::default(),
                TrainOptions::none(),
                42,
            )
            .map(|_| ())
        });
        for outcome in &outcomes {
            match outcome.sim_error() {
                Some(SimError::State(msg)) => {
                    assert!(msg.contains(needle), "unexpected message: {msg}")
                }
                other => panic!("expected a State error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_hybrid_layout_not_matching_world() {
        assert_rejected(
            EngineSpec::HybridStop(ParallelLayout::new(2, 2, 2)),
            "covers 8 ranks",
        );
    }

    #[test]
    fn rejects_tensor_parallel_exceeding_heads() {
        assert_rejected(EngineSpec::TensorParallel, "2 heads");
    }

    #[test]
    fn rejects_pipeline_with_more_stages_than_layers() {
        assert_rejected(EngineSpec::Pipeline, "2 layers");
    }

    #[test]
    fn plan_candidates_map_onto_specs() {
        use orbit_frontier::planner::Planner;
        let plan = Planner::new(FrontierMachine::default())
            .plan(&VitConfig::test_tiny().dims, 8, 8)
            .expect("a feasible plan at 8 GPUs");
        for cand in &plan.candidates {
            let spec = spec_for_plan(cand);
            if let EngineSpec::HybridStop(layout) = spec {
                assert_eq!(layout.world(), 8);
            }
        }
        assert_eq!(spec_for_plan(&plan.chosen).name(), plan.chosen_name());
    }
}
