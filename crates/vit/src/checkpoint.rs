//! Model/optimizer checkpointing.
//!
//! Serializes the flat parameter vector plus Adam state with a config
//! fingerprint, in a simple self-describing binary layout (little-endian
//! f32s with a JSON-free header), so checkpoints are portable across runs
//! and across parallelism layouts: a checkpoint written by a Hybrid-STOP
//! run (via `gather_full_params`) loads into a single-device model and
//! vice versa.

use crate::config::VitConfig;
use crate::model::VitModel;
use orbit_tensor::kernels::AdamState;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Current format: v2 appends optional dynamic loss-scaler state.
const MAGIC: &[u8; 8] = b"ORBITCK2";
/// v1 checkpoints (no scaler section) still load, with `scaler: None`.
const MAGIC_V1: &[u8; 8] = b"ORBITCK1";

/// Bulk-convert through a byte buffer: one `write_all` per chunk instead
/// of one 4-byte write per f32 (pathological for 100M-param models when
/// the writer is unbuffered).
const IO_CHUNK: usize = 64 * 1024;

fn write_vec(w: &mut impl Write, v: &[f32]) -> io::Result<()> {
    w.write_all(&(v.len() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(IO_CHUNK.min(v.len()) * 4);
    for chunk in v.chunks(IO_CHUNK) {
        buf.clear();
        for x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

fn read_vec(r: &mut impl Read) -> io::Result<Vec<f32>> {
    let mut len8 = [0u8; 8];
    r.read_exact(&mut len8)?;
    // The length is untrusted: reserve at most one chunk up front and let
    // the vector grow only with bytes actually read, so a corrupt length
    // ends in `UnexpectedEof` instead of a huge allocation.
    let len = usize::try_from(u64::from_le_bytes(len8))
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "vector length overflows"))?;
    let mut out = Vec::with_capacity(len.min(IO_CHUNK));
    let mut buf = vec![0u8; IO_CHUNK.min(len.max(1)) * 4];
    let mut remaining = len;
    while remaining > 0 {
        let n = IO_CHUNK.min(remaining);
        let bytes = &mut buf[..n * 4];
        r.read_exact(bytes)?;
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        remaining -= n;
    }
    Ok(out)
}

/// Dynamic loss-scaler state captured alongside the model, so a
/// mixed-precision restart resumes the exact scale schedule instead of
/// re-warming from the default scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalerState {
    pub scale: f32,
    /// Clean steps accumulated toward the next scale growth.
    pub clean_steps: u32,
    /// Total steps skipped due to non-finite gradients.
    pub skipped_steps: u64,
}

/// A model + optimizer checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Architectural fingerprint: (embed, layers, heads, channels, patch).
    pub fingerprint: [u64; 5],
    pub params: Vec<f32>,
    pub adam_m: Vec<f32>,
    pub adam_v: Vec<f32>,
    pub adam_step: u64,
    /// Dynamic loss-scaler state (`None` for runs without mixed precision
    /// and for v1 checkpoints).
    pub scaler: Option<ScalerState>,
}

impl Checkpoint {
    /// Capture the current state of a model and its optimizer.
    pub fn capture(model: &mut VitModel, state: &AdamState) -> Self {
        let cfg = model.cfg;
        Checkpoint {
            fingerprint: fingerprint(&cfg),
            params: model.flatten_params(),
            adam_m: state.m.clone(),
            adam_v: state.v.clone(),
            adam_step: state.step,
            scaler: None,
        }
    }

    /// Assemble a checkpoint from already-gathered full-model vectors (the
    /// distributed engines' capture path: parameters and Adam moments are
    /// reassembled from shards by collectives, not read off one model).
    pub fn from_parts(
        cfg: &VitConfig,
        params: Vec<f32>,
        adam_m: Vec<f32>,
        adam_v: Vec<f32>,
        adam_step: u64,
    ) -> Self {
        Checkpoint {
            fingerprint: fingerprint(cfg),
            params,
            adam_m,
            adam_v,
            adam_step,
            scaler: None,
        }
    }

    /// Attach dynamic loss-scaler state (mixed-precision runs).
    pub fn with_scaler(mut self, scaler: Option<ScalerState>) -> Self {
        self.scaler = scaler;
        self
    }

    /// Whether this checkpoint's architectural fingerprint matches `cfg`.
    pub fn matches_config(&self, cfg: &VitConfig) -> bool {
        self.fingerprint == fingerprint(cfg)
    }

    /// Check that this checkpoint fits a model built from `cfg`: the
    /// architecture fingerprint matches, and the parameters and both Adam
    /// moments each hold exactly the model's parameter count. Every
    /// restore path runs this first, so a malformed checkpoint is a typed
    /// error instead of a panic in the next optimizer step.
    pub fn validate(&self, cfg: &VitConfig) -> io::Result<()> {
        if !self.matches_config(cfg) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "checkpoint architecture fingerprint mismatch",
            ));
        }
        let want = cfg.param_count();
        for (name, len) in [
            ("params", self.params.len()),
            ("adam_m", self.adam_m.len()),
            ("adam_v", self.adam_v.len()),
        ] {
            if len != want {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "checkpoint {name} has {len} elements, the model has {want} parameters"
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Restore into a model and optimizer state. Fails, leaving both
    /// untouched, unless the checkpoint [validates](Self::validate).
    pub fn restore(&self, model: &mut VitModel, state: &mut AdamState) -> io::Result<()> {
        self.validate(&model.cfg)?;
        model.load_flat_params(&self.params);
        state.m = self.adam_m.clone();
        state.v = self.adam_v.clone();
        state.step = self.adam_step;
        Ok(())
    }

    /// Serialize to any writer.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        for f in self.fingerprint {
            w.write_all(&f.to_le_bytes())?;
        }
        w.write_all(&self.adam_step.to_le_bytes())?;
        match &self.scaler {
            Some(s) => {
                w.write_all(&[1u8])?;
                w.write_all(&s.scale.to_le_bytes())?;
                w.write_all(&s.clean_steps.to_le_bytes())?;
                w.write_all(&s.skipped_steps.to_le_bytes())?;
            }
            None => w.write_all(&[0u8])?,
        }
        write_vec(w, &self.params)?;
        write_vec(w, &self.adam_m)?;
        write_vec(w, &self.adam_v)?;
        Ok(())
    }

    /// Write to a file through a [`BufWriter`] (checkpoint vectors are
    /// chunk-buffered too, so large models stream efficiently).
    pub fn save_to_path(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        self.save(&mut w)?;
        w.flush()
    }

    /// Read from a file through a [`BufReader`].
    pub fn load_from_path(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        Checkpoint::load(&mut r)
    }

    /// Deserialize from any reader.
    pub fn load(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        let has_scaler_section = match &magic {
            m if m == MAGIC => true,
            m if m == MAGIC_V1 => false,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "bad checkpoint magic",
                ))
            }
        };
        let mut fp = [0u64; 5];
        let mut b8 = [0u8; 8];
        for f in &mut fp {
            r.read_exact(&mut b8)?;
            *f = u64::from_le_bytes(b8);
        }
        r.read_exact(&mut b8)?;
        let adam_step = u64::from_le_bytes(b8);
        let scaler = if has_scaler_section {
            let mut flag = [0u8; 1];
            r.read_exact(&mut flag)?;
            if flag[0] != 0 {
                let mut b4 = [0u8; 4];
                r.read_exact(&mut b4)?;
                let scale = f32::from_le_bytes(b4);
                r.read_exact(&mut b4)?;
                let clean_steps = u32::from_le_bytes(b4);
                r.read_exact(&mut b8)?;
                Some(ScalerState {
                    scale,
                    clean_steps,
                    skipped_steps: u64::from_le_bytes(b8),
                })
            } else {
                None
            }
        } else {
            None
        };
        Ok(Checkpoint {
            fingerprint: fp,
            params: read_vec(r)?,
            adam_m: read_vec(r)?,
            adam_v: read_vec(r)?,
            adam_step,
            scaler,
        })
    }
}

fn fingerprint(cfg: &VitConfig) -> [u64; 5] {
    config_fingerprint(cfg)
}

/// Architectural fingerprint of a config: (embed, layers, heads,
/// channels, patch). Shared by the monolithic and sharded (v3)
/// checkpoint formats so either can validate against a live config.
pub fn config_fingerprint(cfg: &VitConfig) -> [u64; 5] {
    [
        cfg.dims.embed as u64,
        cfg.dims.layers as u64,
        cfg.dims.heads as u64,
        cfg.dims.channels as u64,
        cfg.dims.patch as u64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::lat_weights;
    use crate::model::Batch;
    use orbit_tensor::init::Rng;
    use orbit_tensor::kernels::AdamW;

    fn trained_model() -> (VitModel, AdamState, Batch, Vec<f32>) {
        let cfg = VitConfig::test_tiny();
        let mut model = VitModel::init(cfg, 42);
        let mut state = model.init_adam_state();
        let mut rng = Rng::seed(1);
        let batch = Batch {
            inputs: vec![(0..cfg.dims.channels)
                .map(|_| rng.normal_tensor(cfg.dims.img_h, cfg.dims.img_w, 1.0))
                .collect()],
            targets: vec![(0..cfg.dims.out_channels)
                .map(|_| rng.normal_tensor(cfg.dims.img_h, cfg.dims.img_w, 1.0))
                .collect()],
        };
        let w = lat_weights(cfg.dims.img_h);
        let opt = AdamW::default();
        for _ in 0..3 {
            model.train_step(&batch, &w, &opt, &mut state);
        }
        (model, state, batch, w)
    }

    #[test]
    fn roundtrip_preserves_training_trajectory() {
        let (mut model, state, batch, w) = trained_model();
        let ckpt = Checkpoint::capture(&mut model, &state);
        let mut bytes = Vec::new();
        ckpt.save(&mut bytes).unwrap();
        let loaded = Checkpoint::load(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded, ckpt);

        // Restoring into a fresh model continues training identically.
        let cfg = model.cfg;
        let opt = AdamW::default();
        let mut resumed = VitModel::init(cfg, 999);
        let mut resumed_state = resumed.init_adam_state();
        loaded.restore(&mut resumed, &mut resumed_state).unwrap();
        let mut original = model;
        let mut original_state = state;
        for _ in 0..2 {
            let a = original.train_step(&batch, &w, &opt, &mut original_state);
            let b = resumed.train_step(&batch, &w, &opt, &mut resumed_state);
            assert_eq!(a, b, "resumed trajectory must match");
        }
        assert_eq!(original.flatten_params(), resumed.flatten_params());
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let (mut model, state, _, _) = trained_model();
        let ckpt = Checkpoint::capture(&mut model, &state);
        let mut other = VitModel::init(VitConfig::ladder(0, 8), 1);
        let mut other_state = other.init_adam_state();
        assert!(ckpt.restore(&mut other, &mut other_state).is_err());
    }

    #[test]
    fn file_roundtrip_via_buffered_io() {
        let (mut model, state, _, _) = trained_model();
        let ckpt = Checkpoint::capture(&mut model, &state);
        let path = std::env::temp_dir().join(format!("orbit_ckpt_test_{}.bin", std::process::id()));
        ckpt.save_to_path(&path).unwrap();
        let loaded = Checkpoint::load_from_path(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, ckpt);
    }

    #[test]
    fn bulk_io_handles_chunk_boundaries() {
        // Lengths straddling the IO chunk size round-trip exactly.
        for len in [0usize, 1, IO_CHUNK - 1, IO_CHUNK, IO_CHUNK + 3] {
            let v: Vec<f32> = (0..len).map(|i| i as f32 * 0.5 - 7.0).collect();
            let mut bytes = Vec::new();
            write_vec(&mut bytes, &v).unwrap();
            assert_eq!(bytes.len(), 8 + 4 * len);
            let back = read_vec(&mut bytes.as_slice()).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn scaler_state_roundtrips_and_v1_loads_without_it() {
        let (mut model, state, _, _) = trained_model();
        let ckpt = Checkpoint::capture(&mut model, &state).with_scaler(Some(ScalerState {
            scale: 512.0,
            clean_steps: 37,
            skipped_steps: 4,
        }));
        let mut bytes = Vec::new();
        ckpt.save(&mut bytes).unwrap();
        let loaded = Checkpoint::load(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded, ckpt);
        assert_eq!(
            loaded.scaler,
            Some(ScalerState {
                scale: 512.0,
                clean_steps: 37,
                skipped_steps: 4,
            })
        );

        // A v1 checkpoint is the same stream minus the scaler section.
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC_V1);
        v1.extend_from_slice(&bytes[8..8 + 5 * 8 + 8]); // fingerprint + adam_step
        v1.extend_from_slice(&bytes[8 + 5 * 8 + 8 + 1 + 4 + 4 + 8..]); // skip scaler
        let legacy = Checkpoint::load(&mut v1.as_slice()).unwrap();
        assert_eq!(legacy.scaler, None);
        assert_eq!(legacy.params, ckpt.params);
        assert_eq!(legacy.adam_step, ckpt.adam_step);
    }

    #[test]
    fn short_adam_moment_fails_validation_and_restore() {
        let (mut model, state, _, _) = trained_model();
        let mut ckpt = Checkpoint::capture(&mut model, &state);
        assert!(ckpt.validate(&model.cfg).is_ok());
        ckpt.adam_m.pop();
        let err = ckpt.validate(&model.cfg).unwrap_err();
        assert!(err.to_string().contains("adam_m"), "{err}");
        let mut fresh_state = model.init_adam_state();
        assert!(ckpt.restore(&mut model, &mut fresh_state).is_err());
        assert_eq!(fresh_state.m.len(), model.param_count(), "state untouched");
    }

    #[test]
    fn huge_length_field_is_an_error_not_an_allocation() {
        let (mut model, state, _, _) = trained_model();
        let mut bytes = Vec::new();
        Checkpoint::capture(&mut model, &state)
            .save(&mut bytes)
            .unwrap();
        // The params length field follows magic, fingerprint, adam_step
        // and the (empty) scaler flag.
        let at = 8 + 5 * 8 + 8 + 1;
        for len in [u64::MAX, 1 << 60, 1 << 40] {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&len.to_le_bytes());
            assert!(Checkpoint::load(&mut bad.as_slice()).is_err(), "len {len}");
        }
    }

    #[test]
    fn rejects_corrupt_magic() {
        let (mut model, state, _, _) = trained_model();
        let ckpt = Checkpoint::capture(&mut model, &state);
        let mut bytes = Vec::new();
        ckpt.save(&mut bytes).unwrap();
        bytes[0] ^= 0xFF;
        assert!(Checkpoint::load(&mut bytes.as_slice()).is_err());
    }
}
