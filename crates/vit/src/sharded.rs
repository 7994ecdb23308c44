//! Crash-consistent sharded checkpoints (format v3).
//!
//! The monolithic [`Checkpoint`] format gathers the full flat model on
//! every rank before one of them serializes everything — fine at toy
//! scale, a non-starter for a 113 B-parameter model. Format v3 splits the
//! capture across ranks: each rank persists only its `ShardFlat` slice of
//! the parameters and Adam moments as one self-describing shard file, and
//! a generation becomes visible only when an index **manifest** is written
//! *last* — so a crash at any byte boundary leaves the previous committed
//! generation intact.
//!
//! Crash consistency rests on three invariants:
//!
//! 1. **Write-to-temp + atomic rename.** Shard and manifest files are
//!    staged under a dot-prefixed temp name and renamed into place; a file
//!    that is visible under its final name has a complete header.
//! 2. **Manifest written last.** [`ShardStore::commit`] waits for every
//!    shard of the generation to be visible before the manifest appears.
//!    A reader never observes a manifest whose shards were not all
//!    renamed into place.
//! 3. **CRC-checked payloads.** Every shard header carries a CRC-32 of
//!    its payload, repeated in the manifest. A *torn* write (payload
//!    truncated after the rename — the journaled-metadata/lost-data-pages
//!    crash mode) or a silently corrupted byte fails validation on load,
//!    and [`ShardStore::load_latest`] falls back to the previous committed
//!    generation instead of resurrecting garbage.
//!
//! Shards use the same padded flat layout as the FSDP engine
//! ([`flat_shard`]), so an FSDP rank can persist its local shard with **no
//! gather at all**, and the loader reassembles a layout-independent
//! [`Checkpoint`] that restores into any engine at any world size.

use crate::checkpoint::{Checkpoint, ScalerState};
use orbit_tensor::dtensor::{flat_shard, padded_len};
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Per-shard file magic, format v3.
const SHARD_MAGIC: &[u8; 8] = b"ORBITSH3";
/// Manifest file magic, format v3.
const MANIFEST_MAGIC: &[u8; 8] = b"ORBITMF3";

/// An injected storage failure applied to one shard write — the
/// vit-level mirror of `orbit_comm::StorageFault` (this crate does not
/// depend on the cluster runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// Rename lands but the payload is truncated to half its length.
    Torn,
    /// The file is complete but one payload byte is flipped.
    Corrupt,
}

/// One rank's slice of a checkpoint: the `ShardFlat` shard of the
/// parameters and both Adam moments, plus the replicated scalar state
/// every rank agrees on (fingerprint, optimizer step, loss scaler).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardData {
    /// Which shard this is, `0..count`.
    pub index: usize,
    /// Total shards in the generation (the capture world size).
    pub count: usize,
    /// Architectural fingerprint (see [`Checkpoint::fingerprint`]).
    pub fingerprint: [u64; 5],
    pub adam_step: u64,
    pub scaler: Option<ScalerState>,
    /// Global *unpadded* parameter count; the loader trims shard padding
    /// back to this length.
    pub param_len: usize,
    /// This shard's padded slice, `padded_len(param_len, count) / count`
    /// elements each.
    pub params: Vec<f32>,
    pub adam_m: Vec<f32>,
    pub adam_v: Vec<f32>,
}

impl ShardData {
    /// Slice shard `index` of `count` out of a full checkpoint — the
    /// generic path for engines that already hold gathered state.
    pub fn from_checkpoint(ck: &Checkpoint, index: usize, count: usize) -> Self {
        assert!(index < count, "shard index out of range");
        ShardData {
            index,
            count,
            fingerprint: ck.fingerprint,
            adam_step: ck.adam_step,
            scaler: ck.scaler,
            param_len: ck.params.len(),
            params: flat_shard(&ck.params, count, index),
            adam_m: flat_shard(&ck.adam_m, count, index),
            adam_v: flat_shard(&ck.adam_v, count, index),
        }
    }

    /// Wrap shards a rank already holds locally (the FSDP no-gather
    /// path). The slices must be the `ShardFlat` padded layout
    /// [`flat_shard`] produces for `(param_len, count, index)`.
    #[allow(clippy::too_many_arguments)]
    pub fn from_local_shards(
        index: usize,
        count: usize,
        fingerprint: [u64; 5],
        adam_step: u64,
        scaler: Option<ScalerState>,
        param_len: usize,
        params: Vec<f32>,
        adam_m: Vec<f32>,
        adam_v: Vec<f32>,
    ) -> Self {
        let chunk = padded_len(param_len, count) / count;
        assert_eq!(params.len(), chunk, "parameter shard length mismatch");
        assert_eq!(adam_m.len(), chunk, "adam_m shard length mismatch");
        assert_eq!(adam_v.len(), chunk, "adam_v shard length mismatch");
        ShardData {
            index,
            count,
            fingerprint,
            adam_step,
            scaler,
            param_len,
            params,
            adam_m,
            adam_v,
        }
    }
}

/// A committed generation reassembled by [`ShardStore::load_latest`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedCheckpoint {
    pub generation: u64,
    /// Global training step the generation was captured at.
    pub step: u64,
    pub checkpoint: Checkpoint,
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, dependency-free.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 of `data` (IEEE polynomial, the zip/ethernet checksum).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Serialization helpers (little-endian, JSON-free like the v2 format).
// ---------------------------------------------------------------------------

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_scaler(buf: &mut Vec<u8>, s: &Option<ScalerState>) {
    match s {
        Some(s) => {
            buf.push(1);
            buf.extend_from_slice(&s.scale.to_le_bytes());
            buf.extend_from_slice(&s.clean_steps.to_le_bytes());
            buf.extend_from_slice(&s.skipped_steps.to_le_bytes());
        }
        None => buf.push(0),
    }
}

fn put_f32s(buf: &mut Vec<u8>, v: &[f32]) {
    buf.reserve(v.len() * 4);
    for x in v {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_scaler(r: &mut impl Read) -> io::Result<Option<ScalerState>> {
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    if flag[0] == 0 {
        return Ok(None);
    }
    let mut b4 = [0u8; 4];
    r.read_exact(&mut b4)?;
    let scale = f32::from_le_bytes(b4);
    r.read_exact(&mut b4)?;
    let clean_steps = u32::from_le_bytes(b4);
    let skipped_steps = read_u64(r)?;
    Ok(Some(ScalerState {
        scale,
        clean_steps,
        skipped_steps,
    }))
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Everything a shard file says about itself before the payload.
#[derive(Debug, Clone, PartialEq)]
struct ShardHeader {
    fingerprint: [u64; 5],
    generation: u64,
    index: u64,
    count: u64,
    adam_step: u64,
    scaler: Option<ScalerState>,
    param_len: u64,
    /// Elements per section (params / m / v) in this shard.
    shard_len: u64,
    /// CRC-32 of the payload bytes that follow the header.
    payload_crc: u32,
}

impl ShardHeader {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(SHARD_MAGIC);
        for f in self.fingerprint {
            put_u64(buf, f);
        }
        put_u64(buf, self.generation);
        put_u64(buf, self.index);
        put_u64(buf, self.count);
        put_u64(buf, self.adam_step);
        put_scaler(buf, &self.scaler);
        put_u64(buf, self.param_len);
        put_u64(buf, self.shard_len);
        put_u32(buf, self.payload_crc);
    }

    fn decode(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != SHARD_MAGIC {
            return Err(bad("bad shard magic"));
        }
        let mut fingerprint = [0u64; 5];
        for f in &mut fingerprint {
            *f = read_u64(r)?;
        }
        Ok(ShardHeader {
            fingerprint,
            generation: read_u64(r)?,
            index: read_u64(r)?,
            count: read_u64(r)?,
            adam_step: read_u64(r)?,
            scaler: read_scaler(r)?,
            param_len: read_u64(r)?,
            shard_len: read_u64(r)?,
            payload_crc: read_u32(r)?,
        })
    }
}

/// The index record committed last: names the generation's shard set and
/// repeats every payload CRC, itself integrity-checked by a trailing CRC.
#[derive(Debug, Clone, PartialEq)]
struct Manifest {
    generation: u64,
    step: u64,
    fingerprint: [u64; 5],
    adam_step: u64,
    scaler: Option<ScalerState>,
    param_len: u64,
    /// Per-shard (shard_len, payload_crc), indexed by shard.
    shards: Vec<(u64, u32)>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MANIFEST_MAGIC);
        put_u64(&mut buf, self.generation);
        put_u64(&mut buf, self.step);
        for f in self.fingerprint {
            put_u64(&mut buf, f);
        }
        put_u64(&mut buf, self.adam_step);
        put_scaler(&mut buf, &self.scaler);
        put_u64(&mut buf, self.param_len);
        put_u64(&mut buf, self.shards.len() as u64);
        for (len, crc) in &self.shards {
            put_u64(&mut buf, *len);
            put_u32(&mut buf, *crc);
        }
        let crc = crc32(&buf);
        put_u32(&mut buf, crc);
        buf
    }

    fn decode(bytes: &[u8]) -> io::Result<Self> {
        if bytes.len() < 4 {
            return Err(bad("manifest too short"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let expect = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
        if crc32(body) != expect {
            return Err(bad("manifest CRC mismatch"));
        }
        let mut r = body;
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MANIFEST_MAGIC {
            return Err(bad("bad manifest magic"));
        }
        let generation = read_u64(&mut r)?;
        let step = read_u64(&mut r)?;
        let mut fingerprint = [0u64; 5];
        for f in &mut fingerprint {
            *f = read_u64(&mut r)?;
        }
        let adam_step = read_u64(&mut r)?;
        let scaler = read_scaler(&mut r)?;
        let param_len = read_u64(&mut r)?;
        // The count is untrusted: the shard table (12 bytes an entry) must
        // be exactly the bytes left before the CRC.
        let count = read_u64(&mut r)?;
        if count.checked_mul(12) != Some(r.len() as u64) {
            return Err(bad("manifest shard table does not match its count"));
        }
        let mut shards = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let len = read_u64(&mut r)?;
            let crc = read_u32(&mut r)?;
            shards.push((len, crc));
        }
        Ok(Manifest {
            generation,
            step,
            fingerprint,
            adam_step,
            scaler,
            param_len,
            shards,
        })
    }
}

/// A directory of sharded checkpoint generations.
///
/// Writers: every rank calls [`ShardStore::write_shard`] with its slice;
/// one rank (by convention rank 0) then calls [`ShardStore::commit`],
/// which waits for the full shard set and publishes the manifest.
/// Readers call [`ShardStore::load_latest`], which walks committed
/// generations newest-first and returns the first one that validates.
#[derive(Debug, Clone)]
pub struct ShardStore {
    dir: PathBuf,
}

impl ShardStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ShardStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn shard_path(&self, generation: u64, index: usize) -> PathBuf {
        self.dir
            .join(format!("shard-g{generation:010}-r{index:05}.bin"))
    }

    fn manifest_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("manifest-g{generation:010}.bin"))
    }

    /// Stage `bytes` under a temp name and atomically rename to `final_`.
    fn publish(&self, final_: &Path, bytes: &[u8]) -> io::Result<()> {
        let name = final_
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| bad("non-utf8 store path"))?;
        let tmp = self
            .dir
            .join(format!(".tmp-{}-{}", std::process::id(), name));
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            w.write_all(bytes)?;
            w.flush()?;
        }
        fs::rename(&tmp, final_)
    }

    /// Persist one rank's shard of generation `generation`. Injecting
    /// `fault` models the two storage crash modes: `Torn` truncates the
    /// payload after the rename (header intact, data short), `Corrupt`
    /// flips one payload byte. Both must be caught by CRC/length checks
    /// on load, never surfaced as a successful restore.
    pub fn write_shard(
        &self,
        generation: u64,
        shard: &ShardData,
        fault: Option<ShardFault>,
    ) -> io::Result<()> {
        let shard_len = shard.params.len();
        assert_eq!(shard.adam_m.len(), shard_len, "moment shard length");
        assert_eq!(shard.adam_v.len(), shard_len, "moment shard length");
        let mut payload = Vec::with_capacity(shard_len * 12);
        put_f32s(&mut payload, &shard.params);
        put_f32s(&mut payload, &shard.adam_m);
        put_f32s(&mut payload, &shard.adam_v);
        let header = ShardHeader {
            fingerprint: shard.fingerprint,
            generation,
            index: shard.index as u64,
            count: shard.count as u64,
            adam_step: shard.adam_step,
            scaler: shard.scaler,
            param_len: shard.param_len as u64,
            shard_len: shard_len as u64,
            payload_crc: crc32(&payload),
        };
        let mut bytes = Vec::with_capacity(payload.len() + 128);
        header.encode(&mut bytes);
        let header_len = bytes.len();
        bytes.extend_from_slice(&payload);
        match fault {
            Some(ShardFault::Torn) => {
                bytes.truncate(header_len + payload.len() / 2);
            }
            Some(ShardFault::Corrupt) if !payload.is_empty() => {
                let at = header_len + payload.len() / 2;
                bytes[at] ^= 0xFF;
            }
            _ => {}
        }
        self.publish(&self.shard_path(generation, shard.index), &bytes)
    }

    /// Publish generation `generation` captured at training step `step`:
    /// wait (polling, wall-clock bounded) until all `count` shard files
    /// are visible, assemble the manifest from their headers, and rename
    /// it into place **last**. Returns `Ok(false)` if the shard set never
    /// completed within `timeout` — e.g. a rank died mid-capture — in
    /// which case no manifest is written and the generation is invisible
    /// to readers, exactly as crash consistency demands.
    pub fn commit(
        &self,
        generation: u64,
        step: u64,
        count: usize,
        timeout: Duration,
    ) -> io::Result<bool> {
        assert!(count > 0, "a generation needs at least one shard");
        let deadline = Instant::now() + timeout;
        let headers = loop {
            let mut headers = Vec::with_capacity(count);
            for index in 0..count {
                let path = self.shard_path(generation, index);
                match File::open(&path) {
                    Ok(f) => headers.push(ShardHeader::decode(&mut BufReader::new(f))?),
                    Err(e) if e.kind() == io::ErrorKind::NotFound => break,
                    Err(e) => return Err(e),
                }
            }
            if headers.len() == count {
                break headers;
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        for (i, h) in headers.iter().enumerate() {
            if h.generation != generation || h.index != i as u64 || h.count != count as u64 {
                return Err(bad(format!(
                    "shard {i} of generation {generation} is inconsistent"
                )));
            }
        }
        let head = &headers[0];
        let manifest = Manifest {
            generation,
            step,
            fingerprint: head.fingerprint,
            adam_step: head.adam_step,
            scaler: head.scaler,
            param_len: head.param_len,
            shards: headers
                .iter()
                .map(|h| (h.shard_len, h.payload_crc))
                .collect(),
        };
        self.publish(&self.manifest_path(generation), &manifest.encode())?;
        Ok(true)
    }

    /// Committed generations, ascending (manifests present on disk;
    /// whether they validate is [`ShardStore::load_latest`]'s business).
    pub fn generations(&self) -> io::Result<Vec<u64>> {
        let mut gens = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(g) = name
                .strip_prefix("manifest-g")
                .and_then(|s| s.strip_suffix(".bin"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                gens.push(g);
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// The lowest generation number above every number on disk — committed,
    /// torn or never committed (shard files without a manifest). Writing
    /// there cannot collide with files a failed writer left behind.
    /// 0 for an empty store.
    pub fn next_free_generation(&self) -> io::Result<u64> {
        let mut next = 0;
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let digits = name
                .strip_prefix("manifest-g")
                .or_else(|| name.strip_prefix("shard-g"))
                .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next());
            if let Some(g) = digits.and_then(|s| s.parse::<u64>().ok()) {
                next = next.max(g + 1);
            }
        }
        Ok(next)
    }

    /// Load and fully validate one committed generation by number —
    /// shard headers cross-checked against the manifest, payload CRCs
    /// verified, sections reassembled in index order and trimmed to
    /// `param_len`. Errors on any inconsistency; use
    /// [`ShardStore::load_latest`] for the falling-back resume path.
    pub fn load_generation(&self, generation: u64) -> io::Result<LoadedCheckpoint> {
        let bytes = fs::read(self.manifest_path(generation))?;
        let manifest = Manifest::decode(&bytes)?;
        if manifest.generation != generation {
            return Err(bad("manifest generation mismatch"));
        }
        let count = manifest.shards.len();
        if count == 0 {
            return Err(bad("manifest lists no shards"));
        }
        let len =
            usize::try_from(manifest.param_len).map_err(|_| bad("manifest param_len overflows"))?;
        // Every shard holds one padded `ShardFlat` chunk of `param_len`.
        let chunk = len.div_ceil(count);
        let mut params = Vec::new();
        let mut adam_m = Vec::new();
        let mut adam_v = Vec::new();
        for (index, &(shard_len, expect_crc)) in manifest.shards.iter().enumerate() {
            let file = fs::read(self.shard_path(generation, index))?;
            let mut r = file.as_slice();
            let header = ShardHeader::decode(&mut r)?;
            if header.generation != generation
                || header.index != index as u64
                || header.count != count as u64
                || header.fingerprint != manifest.fingerprint
                || header.param_len != manifest.param_len
                || header.shard_len != shard_len
                || shard_len != chunk as u64
            {
                return Err(bad(format!("shard {index} does not match manifest")));
            }
            // A torn shard is shorter than its header claims: the bytes
            // present bound the read, and the caller falls back a
            // generation.
            let payload = chunk
                .checked_mul(12)
                .and_then(|n| r.get(..n))
                .ok_or_else(|| bad(format!("shard {index} payload is truncated")))?;
            if crc32(payload) != expect_crc {
                return Err(bad(format!("shard {index} payload CRC mismatch")));
            }
            let floats: Vec<f32> = payload
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            params.extend_from_slice(&floats[..chunk]);
            adam_m.extend_from_slice(&floats[chunk..2 * chunk]);
            adam_v.extend_from_slice(&floats[2 * chunk..]);
        }
        params.truncate(len);
        adam_m.truncate(len);
        adam_v.truncate(len);
        Ok(LoadedCheckpoint {
            generation,
            step: manifest.step,
            checkpoint: Checkpoint {
                fingerprint: manifest.fingerprint,
                params,
                adam_m,
                adam_v,
                adam_step: manifest.adam_step,
                scaler: manifest.scaler,
            },
        })
    }

    /// Reassemble the newest committed generation that validates end to
    /// end, walking backwards past generations with torn, missing, or
    /// corrupt shards. `Ok(None)` means no generation is loadable (an
    /// empty or fully-corrupt store — a fresh start, not an error).
    pub fn load_latest(&self) -> io::Result<Option<LoadedCheckpoint>> {
        for generation in self.generations()?.into_iter().rev() {
            match self.load_generation(generation) {
                Ok(loaded) => return Ok(Some(loaded)),
                // Anything wrong with this generation — torn payload,
                // CRC mismatch, missing shard — disqualifies it; older
                // committed generations remain candidates.
                Err(_) => continue,
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VitConfig;
    use orbit_tensor::init::Rng;

    fn sample_checkpoint(len: usize) -> Checkpoint {
        Checkpoint {
            fingerprint: [16, 2, 2, 3, 4],
            params: (0..len).map(|i| i as f32 * 0.25 - 3.0).collect(),
            adam_m: (0..len).map(|i| (i as f32).sin()).collect(),
            adam_v: (0..len).map(|i| i as f32 * 1e-3).collect(),
            adam_step: 17,
            scaler: Some(ScalerState {
                scale: 1024.0,
                clean_steps: 9,
                skipped_steps: 2,
            }),
        }
    }

    fn temp_store(tag: &str) -> ShardStore {
        let dir = std::env::temp_dir().join(format!(
            "orbit_sharded_{tag}_{}_{}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "_")
        ));
        fs::remove_dir_all(&dir).ok();
        ShardStore::new(dir).unwrap()
    }

    fn write_generation(
        store: &ShardStore,
        ck: &Checkpoint,
        generation: u64,
        count: usize,
        fault_on: Option<(usize, ShardFault)>,
    ) {
        for index in 0..count {
            let shard = ShardData::from_checkpoint(ck, index, count);
            let fault = fault_on.and_then(|(i, f)| (i == index).then_some(f));
            store.write_shard(generation, &shard, fault).unwrap();
        }
        assert!(store
            .commit(generation, generation, count, Duration::from_secs(5))
            .unwrap());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sharded_roundtrip_reassembles_bit_exactly() {
        // 10 elements over 4 shards: padding in play (padded to 12).
        let store = temp_store("roundtrip");
        let ck = sample_checkpoint(10);
        write_generation(&store, &ck, 2, 4, None);
        let loaded = store.load_latest().unwrap().expect("committed generation");
        assert_eq!(loaded.generation, 2);
        assert_eq!(loaded.step, 2);
        assert_eq!(loaded.checkpoint, ck);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn uncommitted_generation_is_invisible() {
        let store = temp_store("uncommitted");
        let ck = sample_checkpoint(8);
        for index in 0..2 {
            let shard = ShardData::from_checkpoint(&ck, index, 2);
            store.write_shard(1, &shard, None).unwrap();
        }
        // No commit: the manifest is what makes a generation exist.
        assert_eq!(store.load_latest().unwrap(), None);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn next_free_generation_skips_committed_and_orphaned_files() {
        let store = temp_store("next_free");
        assert_eq!(store.next_free_generation().unwrap(), 0);
        let ck = sample_checkpoint(8);
        write_generation(&store, &ck, 3, 2, None);
        assert_eq!(store.next_free_generation().unwrap(), 4);
        // A shard whose generation never committed still occupies its
        // number.
        let shard = ShardData::from_checkpoint(&ck, 0, 2);
        store.write_shard(9, &shard, None).unwrap();
        assert_eq!(store.next_free_generation().unwrap(), 10);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn commit_times_out_without_a_full_shard_set() {
        let store = temp_store("timeout");
        let ck = sample_checkpoint(8);
        let shard = ShardData::from_checkpoint(&ck, 0, 2);
        store.write_shard(1, &shard, None).unwrap();
        // Shard 1 never arrives (its rank died mid-capture).
        let committed = store.commit(1, 1, 2, Duration::from_millis(20)).unwrap();
        assert!(!committed);
        assert_eq!(store.generations().unwrap(), Vec::<u64>::new());
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn torn_write_falls_back_to_previous_generation() {
        let store = temp_store("torn");
        let ck1 = sample_checkpoint(10);
        let mut ck2 = sample_checkpoint(10);
        ck2.params[0] = 99.0;
        ck2.adam_step = 18;
        write_generation(&store, &ck1, 1, 2, None);
        // Generation 2 commits, but shard 1's payload was torn mid-write.
        write_generation(&store, &ck2, 2, 2, Some((1, ShardFault::Torn)));
        assert_eq!(store.generations().unwrap(), vec![1, 2]);
        let loaded = store.load_latest().unwrap().expect("fallback generation");
        assert_eq!(loaded.generation, 1, "torn generation must be skipped");
        assert_eq!(loaded.checkpoint, ck1);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_shard_falls_back_to_previous_generation() {
        let store = temp_store("corrupt");
        let ck1 = sample_checkpoint(12);
        let mut ck2 = sample_checkpoint(12);
        ck2.params[5] = -42.0;
        write_generation(&store, &ck1, 5, 3, None);
        write_generation(&store, &ck2, 6, 3, Some((0, ShardFault::Corrupt)));
        let loaded = store.load_latest().unwrap().expect("fallback generation");
        assert_eq!(loaded.generation, 5, "corrupt generation must be skipped");
        assert_eq!(loaded.checkpoint, ck1);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn loader_reassembles_any_shard_count() {
        // The same checkpoint written at different worlds loads
        // identically: shards are layout, not content.
        let store = temp_store("anyworld");
        let ck = sample_checkpoint(11);
        write_generation(&store, &ck, 1, 1, None);
        write_generation(&store, &ck, 2, 3, None);
        write_generation(&store, &ck, 3, 8, None);
        for expect_gen in [3u64, 2, 1] {
            let loaded = store.load_latest().unwrap().unwrap();
            assert_eq!(loaded.generation, expect_gen);
            assert_eq!(loaded.checkpoint, ck);
            fs::remove_file(store.dir().join(format!("manifest-g{expect_gen:010}.bin"))).unwrap();
        }
        fs::remove_dir_all(store.dir()).ok();
    }

    /// A model small enough that truncating every committed file at
    /// every byte stays fast: 388 parameters, so three shards carry one
    /// element of padding.
    fn mutation_config() -> VitConfig {
        VitConfig::new(orbit_frontier::ModelDims {
            embed: 4,
            layers: 1,
            heads: 2,
            channels: 2,
            patch: 2,
            img_h: 2,
            img_w: 4,
            out_channels: 1,
        })
    }

    fn config_checkpoint(cfg: &VitConfig, offset: f32) -> Checkpoint {
        let n = cfg.param_count();
        Checkpoint {
            fingerprint: crate::checkpoint::config_fingerprint(cfg),
            params: (0..n).map(|i| i as f32 * 0.5 + offset).collect(),
            adam_m: (0..n).map(|i| (i as f32).cos()).collect(),
            adam_v: (0..n).map(|i| i as f32 * 1e-4).collect(),
            adam_step: 17,
            scaler: Some(ScalerState {
                scale: 1024.0,
                clean_steps: 9,
                skipped_steps: 2,
            }),
        }
    }

    /// Byte offset of the field after the scaler section, given where the
    /// section starts (1 flag byte plus 16 bytes when present).
    fn after_scaler(start: usize, bytes: &[u8]) -> usize {
        start + if bytes[start] == 0 { 1 } else { 17 }
    }

    fn put_u64_at(bytes: &mut [u8], at: usize, v: u64) {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn recompute_manifest_crc(bytes: &mut [u8]) {
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn mutated_generation_is_a_typed_error_or_a_valid_checkpoint() {
        const SHARDS: usize = 3;
        let cfg = mutation_config();
        let store = temp_store("mutation");
        let (ck1, ck2) = (config_checkpoint(&cfg, 1.0), config_checkpoint(&cfg, 2.0));
        write_generation(&store, &ck1, 1, SHARDS, None);
        write_generation(&store, &ck2, 2, SHARDS, None);
        let mut files = vec![store.manifest_path(2)];
        files.extend((0..SHARDS).map(|i| store.shard_path(2, i)));
        let originals: Vec<Vec<u8>> = files.iter().map(|f| fs::read(f).unwrap()).collect();

        // (label, file, mutated bytes)
        let mut mutations: Vec<(String, usize, Vec<u8>)> = Vec::new();
        for (f, orig) in originals.iter().enumerate() {
            for cut in 0..orig.len() {
                mutations.push((format!("truncate at {cut}"), f, orig[..cut].to_vec()));
            }
        }
        for seed in 0..2000u64 {
            let mut rng = Rng::seed(seed);
            let f = rng.index(files.len());
            let bit = rng.index(originals[f].len() * 8);
            let mut bytes = originals[f].clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            mutations.push((format!("seed {seed}: flip bit {bit}"), f, bytes));
        }
        let n = cfg.param_count() as u64;
        let values = [
            0,
            1,
            2,
            n - 1,
            n + 1,
            n * 4,
            1 << 40,
            u64::MAX / 12 + 1,
            u64::MAX,
        ];
        // Manifest: magic, generation, step, fingerprint, adam_step, then
        // the scaler section, param_len, count and the shard table.
        let m = &originals[0];
        let m_param_len = after_scaler(8 + 8 + 8 + 40 + 8, m);
        let mut m_fields = vec![("param_len", m_param_len), ("count", m_param_len + 8)];
        m_fields.extend((0..SHARDS).map(|i| ("shard_len", m_param_len + 16 + 12 * i)));
        // Shard header: magic, fingerprint, generation, index, count,
        // adam_step, then the scaler section, param_len and shard_len.
        let h_param_len = after_scaler(8 + 40 + 8 + 8 + 8 + 8, &originals[1]);
        let h_fields = [
            ("count", 8 + 40 + 16),
            ("param_len", h_param_len),
            ("shard_len", h_param_len + 8),
        ];
        for &v in &values {
            for &(name, at) in &m_fields {
                let mut bytes = m.clone();
                put_u64_at(&mut bytes, at, v);
                recompute_manifest_crc(&mut bytes);
                mutations.push((format!("manifest {name} = {v}"), 0, bytes));
            }
            for (f, original) in originals.iter().enumerate().skip(1) {
                for &(name, at) in &h_fields {
                    let mut bytes = original.clone();
                    put_u64_at(&mut bytes, at, v);
                    mutations.push((format!("header {name} = {v}"), f, bytes));
                }
            }
        }

        for (label, f, bytes) in &mutations {
            let what = format!("{label} of {}", files[*f].display());
            fs::write(&files[*f], bytes).unwrap();
            let outcome = std::panic::catch_unwind(|| {
                (store.load_generation(2), store.load_latest().unwrap())
            });
            fs::write(&files[*f], &originals[*f]).unwrap();
            let (direct, latest) = outcome.unwrap_or_else(|_| panic!("{what}: loader panicked"));
            let latest = latest.unwrap_or_else(|| panic!("{what}: nothing loadable"));
            match direct {
                Ok(loaded) => {
                    if let Err(e) = loaded.checkpoint.validate(&cfg) {
                        panic!("{what}: loaded an invalid checkpoint: {e}");
                    }
                    assert_eq!(latest.generation, 2, "{what}");
                }
                Err(_) => {
                    assert_eq!(latest.generation, 1, "{what}: no fallback");
                    assert_eq!(latest.checkpoint, ck1, "{what}");
                }
            }
        }
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn local_shard_path_matches_checkpoint_slicing() {
        let ck = sample_checkpoint(10);
        let sliced = ShardData::from_checkpoint(&ck, 1, 4);
        let local = ShardData::from_local_shards(
            1,
            4,
            ck.fingerprint,
            ck.adam_step,
            ck.scaler,
            10,
            flat_shard(&ck.params, 4, 1),
            flat_shard(&ck.adam_m, 4, 1),
            flat_shard(&ck.adam_v, 4, 1),
        );
        assert_eq!(sliced, local);
    }
}
