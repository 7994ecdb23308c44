//! The bridge between [`orbit_tensor::dtensor`]'s abstract
//! [`Collectives`] trait and the simulated cluster's `ProcessGroup`:
//! a [`GroupComm`] borrows one process group plus the rank's `SimClock`
//! and lowers reshard collectives onto the real nonblocking data plane
//! (`all_gather_start` / `reduce_scatter_start` / `all_reduce_start`),
//! so every reshard records through the schedule verifier exactly like a
//! hand-issued collective. An [`AxisComm`] does the same for a mesh axis
//! that may span one rank, where there is no group to lower onto.
//!
//! (`orbit-comm` depends on `orbit-tensor`, so the trait lives tensor-side
//! and this adapter core-side — the dependency arrow cannot point the
//! other way.)

use orbit_comm::{CommError, PendingCollective, ProcessGroup, SimClock};
use orbit_tensor::dtensor::{Collectives, ReshardError, ReshardNote};

/// A [`Collectives`] implementation over one `ProcessGroup`. Borrows the
/// group and clock only for the duration of the reshard calls, so engines
/// can interleave reshards with direct collectives (e.g. the loss
/// all-reduce between a gradient reduce-scatter's start and wait).
pub struct GroupComm<'a> {
    group: &'a mut ProcessGroup,
    clock: &'a mut SimClock,
}

impl<'a> GroupComm<'a> {
    pub fn new(group: &'a mut ProcessGroup, clock: &'a mut SimClock) -> Self {
        GroupComm { group, clock }
    }
}

impl Collectives for GroupComm<'_> {
    type Error = CommError;
    type Pending = PendingCollective;

    fn size(&self) -> usize {
        self.group.size()
    }

    fn all_gather_start(
        &mut self,
        shard: &[f32],
        prefetch: bool,
    ) -> Result<PendingCollective, CommError> {
        self.group.all_gather_start(self.clock, shard, prefetch)
    }

    fn reduce_scatter_start(&mut self, full: &[f32]) -> Result<PendingCollective, CommError> {
        self.group.reduce_scatter_start(self.clock, full)
    }

    fn all_reduce_start(&mut self, buf: &[f32]) -> Result<PendingCollective, CommError> {
        self.group.all_reduce_start(self.clock, buf)
    }

    fn wait(&mut self, pending: PendingCollective) -> Result<Vec<f32>, CommError> {
        Ok(pending.wait(self.clock)?.to_vec())
    }

    fn annotate_reshard(&mut self, note: &ReshardNote) {
        // No-op on real runs; in lint-extraction mode the group tags the
        // next collective with the transition for the static layout pass.
        self.group.annotate_reshard(note.clone());
    }
}

/// The communicator of one mesh axis that may span a single rank. A
/// multi-rank axis lowers onto its process group exactly like
/// [`GroupComm`]; a one-rank axis has no group at all, so its collectives
/// are the identity and complete at issue. That matters beyond speed: a
/// size-1 `ProcessGroup` still logs every op and, on a bf16 wire, rounds
/// the payload — a one-rank engine routed through one would not train
/// like the single-device reference.
pub struct AxisComm<'a> {
    group: Option<&'a mut ProcessGroup>,
    clock: &'a mut SimClock,
}

/// An [`AxisComm`] operation in flight: a real collective, or a one-rank
/// result that was complete at issue.
pub enum AxisPending {
    Group(PendingCollective),
    Local(Vec<f32>),
}

impl<'a> AxisComm<'a> {
    pub fn new(group: Option<&'a mut ProcessGroup>, clock: &'a mut SimClock) -> Self {
        AxisComm { group, clock }
    }

    /// Sum one scalar across the axis (the loss average).
    pub fn all_reduce_scalar(&mut self, v: f32) -> Result<f32, CommError> {
        match &mut self.group {
            Some(g) => g.all_reduce_scalar(self.clock, v),
            None => Ok(v),
        }
    }

    /// Block until every rank of the axis arrives.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        match &mut self.group {
            Some(g) => g.barrier(self.clock),
            None => Ok(()),
        }
    }

    /// Issue through the group, or complete at once with `local`.
    fn issue(
        &mut self,
        local: &[f32],
        start: impl FnOnce(&mut GroupComm<'_>) -> Result<PendingCollective, CommError>,
    ) -> Result<AxisPending, CommError> {
        match &mut self.group {
            Some(g) => start(&mut GroupComm::new(g, self.clock)).map(AxisPending::Group),
            None => Ok(AxisPending::Local(local.to_vec())),
        }
    }
}

impl Collectives for AxisComm<'_> {
    type Error = CommError;
    type Pending = AxisPending;

    fn size(&self) -> usize {
        self.group.as_ref().map_or(1, |g| g.size())
    }

    fn all_gather_start(
        &mut self,
        shard: &[f32],
        prefetch: bool,
    ) -> Result<AxisPending, CommError> {
        self.issue(shard, |c| c.all_gather_start(shard, prefetch))
    }

    fn reduce_scatter_start(&mut self, full: &[f32]) -> Result<AxisPending, CommError> {
        self.issue(full, |c| c.reduce_scatter_start(full))
    }

    fn all_reduce_start(&mut self, buf: &[f32]) -> Result<AxisPending, CommError> {
        self.issue(buf, |c| c.all_reduce_start(buf))
    }

    fn wait(&mut self, pending: AxisPending) -> Result<Vec<f32>, CommError> {
        match pending {
            AxisPending::Group(p) => Ok(p.wait(self.clock)?.to_vec()),
            AxisPending::Local(v) => Ok(v),
        }
    }

    fn annotate_reshard(&mut self, note: &ReshardNote) {
        if let Some(g) = &mut self.group {
            g.annotate_reshard(note.clone());
        }
    }
}

/// Collapse a reshard error at an engine call site whose layout transition
/// is statically legal: a `Layout` arm there is a choreography bug (the
/// moral equivalent of the asserts the hand-rolled shard math used), so it
/// panics; only the communication failure propagates.
pub fn comm_err(e: ReshardError<CommError>) -> CommError {
    match e {
        ReshardError::Comm(c) => c,
        ReshardError::Layout(l) => panic!("illegal reshard in engine choreography: {l}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit_comm::Cluster;
    use orbit_tensor::dtensor::{DTensor, DeviceMesh, Layout};
    use orbit_tensor::Tensor;

    #[test]
    fn reshard_lowers_onto_real_collectives() {
        // Shard(1) -> Replicate over a real 2-rank group reassembles the
        // global tensor on both ranks, through the simulated data plane.
        let global = Tensor::from_vec(2, 4, (0..8).map(|i| i as f32).collect());
        let g2 = global.clone();
        let results = Cluster::frontier().run(2, move |ctx| {
            let mut group = ctx.world_group();
            let mut clock = std::mem::take(&mut ctx.clock);
            let mesh = DeviceMesh::one("x", ctx.world, ctx.rank);
            let sharded = DTensor::from_global(&g2, mesh, "x", Layout::Shard(1)).unwrap();
            let mut comm = GroupComm::new(&mut group, &mut clock);
            let repl = sharded.reshard("x", Layout::Replicate, &mut comm).unwrap();
            repl.into_local()
        });
        for r in &results {
            assert_eq!(r, &global);
        }
    }

    #[test]
    fn one_rank_axis_comm_is_the_identity_and_logs_nothing() {
        let mut clock = SimClock::new();
        let mesh = DeviceMesh::one("x", 1, 0);
        let addend = Tensor::from_vec(1, 5, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        for to in [Layout::Replicate, Layout::ShardFlat] {
            let p = DTensor::partial(addend.clone(), mesh.clone(), "x").unwrap();
            let mut comm = AxisComm::new(None, &mut clock);
            let out = p.reshard("x", to, &mut comm).unwrap();
            assert_eq!(out.local(), &addend, "{to:?}");
            assert_eq!(comm.all_reduce_scalar(7.5).unwrap(), 7.5);
            comm.barrier().unwrap();
        }
        assert!(clock.events().is_empty(), "no collective was recorded");
        assert_eq!(clock.now(), 0.0);
    }

    #[test]
    fn partial_to_shard_flat_is_a_padded_reduce_scatter() {
        // 5 elements over 2 ranks: padded to 6, chunks of 3; rank r holds
        // addend r+1 everywhere, so the summed shard is all 3s (padding
        // positions sum to 0).
        let results = Cluster::frontier().run(2, |ctx| {
            let mut group = ctx.world_group();
            let mut clock = std::mem::take(&mut ctx.clock);
            let mesh = DeviceMesh::one("x", ctx.world, ctx.rank);
            let addend = Tensor::full(1, 5, (ctx.rank + 1) as f32);
            let p = DTensor::partial(addend, mesh, "x").unwrap();
            let mut comm = GroupComm::new(&mut group, &mut clock);
            let shard = p.reshard("x", Layout::ShardFlat, &mut comm).unwrap();
            shard.into_local().into_vec()
        });
        assert_eq!(results[0], vec![3.0, 3.0, 3.0]);
        assert_eq!(results[1], vec![3.0, 3.0, 0.0], "tail chunk keeps padding");
    }
}
