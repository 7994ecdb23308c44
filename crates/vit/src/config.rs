//! Model configuration and presets.

use orbit_frontier::ModelDims;
use orbit_tensor::Precision;

/// Full configuration of an ORBIT ViT.
#[derive(Debug, Clone, Copy)]
pub struct VitConfig {
    /// Architectural dimensions (shared with the analytic perf model).
    pub dims: ModelDims,
    /// Apply layer normalization to attention queries and keys before the
    /// scaled dot product (the ORBIT stabilization; paper Sec. III-B).
    pub qk_norm: bool,
    /// Compute precision for matmuls.
    pub precision: Precision,
    /// Initialization scale for embeddings and projections.
    pub init_std: f32,
}

impl VitConfig {
    /// Config from dims with ORBIT defaults (QK norm on, f32 compute).
    pub fn new(dims: ModelDims) -> Self {
        VitConfig {
            dims,
            qk_norm: true,
            precision: Precision::F32,
            init_std: 0.02,
        }
    }

    /// Laptop-scale ladder mirroring the paper's 115 M / 1 B / 10 B /
    /// 113 B sizes at ~1/1000 scale: same *ratios* of embed/layers/heads,
    /// 32 x 64 images, 8 variables, patch 8 (32 tokens).
    ///
    /// `rung` 0..=3 maps to tiny/small/medium/large.
    pub fn ladder(rung: usize, channels: usize) -> Self {
        let (embed, layers, heads) = match rung {
            0 => (64, 2, 4),  // "115 M" stand-in
            1 => (128, 2, 4), // "1 B" stand-in
            2 => (192, 3, 8), // "10 B" stand-in
            3 => (256, 5, 8), // "113 B" stand-in
            _ => panic!("ladder rung must be 0..=3"),
        };
        VitConfig::new(ModelDims {
            embed,
            layers,
            heads,
            channels,
            patch: 8,
            img_h: 32,
            img_w: 64,
            out_channels: 4,
        })
    }

    /// Smallest config that still exercises every code path — for tests.
    pub fn test_tiny() -> Self {
        VitConfig::new(ModelDims {
            embed: 16,
            layers: 2,
            heads: 2,
            channels: 3,
            patch: 4,
            img_h: 8,
            img_w: 16,
            out_channels: 2,
        })
    }

    /// Parameters of the model this config builds: the closed form of
    /// [`ModelDims::param_count`], less the QK layer norms when they are
    /// off.
    pub fn param_count(&self) -> usize {
        let qk_norms = if self.qk_norm {
            0
        } else {
            self.dims.layers * 4 * (self.dims.embed / self.dims.heads)
        };
        self.dims.param_count() as usize - qk_norms
    }

    /// Number of spatial tokens.
    pub fn tokens(&self) -> usize {
        self.dims.tokens()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_sizes_increase() {
        let mut prev = 0;
        for rung in 0..4 {
            let p = VitConfig::ladder(rung, 8).dims.param_count();
            assert!(p > prev, "rung {rung}");
            prev = p;
        }
    }

    #[test]
    fn ladder_matches_paper_head_scaling() {
        assert_eq!(VitConfig::ladder(0, 8).dims.heads, 4);
        assert_eq!(VitConfig::ladder(3, 8).dims.heads, 8);
    }

    #[test]
    fn test_tiny_is_consistent() {
        let c = VitConfig::test_tiny();
        assert_eq!(c.tokens(), 2 * 4);
        assert_eq!(c.dims.head_dim(), 8);
        assert!(c.qk_norm);
    }

    #[test]
    #[should_panic(expected = "rung")]
    fn ladder_rejects_bad_rung() {
        let _ = VitConfig::ladder(4, 8);
    }
}
