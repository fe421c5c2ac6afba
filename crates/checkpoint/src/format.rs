//! On-disk checkpoint format: versioned, CRC-checked, length-validated.
//!
//! Container layout (all integers little-endian):
//!
//! ```text
//! magic        8 B   "SYMICKPT"
//! version      u32   FORMAT_VERSION
//! kind         u32   1 = engine (per-rank EngineSnapshot), 2 = trainer
//! header_len   u32
//! header       header_len B
//! header_crc   u32   CRC-32 over header bytes
//! payload_len  u64
//! payload      payload_len B
//! payload_crc  u32   CRC-32 over payload bytes
//! ```
//!
//! The header carries the iteration stamp and a geometry fingerprint of the
//! system that wrote the file; the payload carries the state. Headers are
//! tiny, so `symi-ckpt inspect` and the latest-complete scan can classify a
//! file without decoding megabytes of fp32 state. Decoding validates three
//! layers in order: container framing (magic/version/CRC/lengths), header
//! fingerprint against the running system, then payload structure (every
//! length cross-checked against the header geometry). Each failure names
//! the file and the exact field.
//!
//! fp16 replica weights are deliberately *not* stored: they rematerialize
//! bit-exactly from the fp32 masters via `materialize_slots`, which is the
//! same decoupling (§3) that keeps SYMI's optimizer state stationary.

use symi::{valid_replica_counts, EngineConfig, EngineSnapshot, ShardState};
use symi_model::expert::param_count;
use symi_model::{Checkpoint, ModelConfig, TrainRecord};
use symi_tensor::{AdamConfig, AdamState, Matrix};
use symi_workload::PopularityTrace;

use crate::crc32::crc32;
use crate::error::CkptError;

pub(crate) const MAGIC: [u8; 8] = *b"SYMICKPT";
pub const FORMAT_VERSION: u32 = 1;
pub(crate) const KIND_ENGINE: u32 = 1;
pub(crate) const KIND_TRAINER: u32 = 2;

pub fn kind_name(kind: u32) -> &'static str {
    match kind {
        KIND_ENGINE => "engine",
        KIND_TRAINER => "trainer",
        _ => "unknown",
    }
}

// ---------------------------------------------------------------------------
// Byte-level writer / reader
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    fn new() -> Self {
        Self::default()
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f32_slice(&mut self, vs: &[f32]) {
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Cursor over a byte slice that names the field being read, so running off
/// the end surfaces as `Truncated { file, field }` rather than a panic.
struct Reader<'f, 'a> {
    file: &'f str,
    buf: &'a [u8],
    pos: usize,
}

impl<'f, 'a> Reader<'f, 'a> {
    fn new(file: &'f str, buf: &'a [u8]) -> Self {
        Self { file, buf, pos: 0 }
    }

    fn take(&mut self, n: usize, field: &str) -> Result<&'a [u8], CkptError> {
        if self.buf.len() - self.pos < n {
            return Err(CkptError::Truncated { file: self.file.into(), field: field.into() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, field: &str) -> Result<u8, CkptError> {
        Ok(self.take(1, field)?[0])
    }

    fn u64(&mut self, field: &str) -> Result<u64, CkptError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn f32(&mut self, field: &str) -> Result<f32, CkptError> {
        let b = self.take(4, field)?;
        Ok(f32::from_le_bytes(b.try_into().unwrap()))
    }

    fn f64(&mut self, field: &str) -> Result<f64, CkptError> {
        let b = self.take(8, field)?;
        Ok(f64::from_le_bytes(b.try_into().unwrap()))
    }

    fn usize(&mut self, field: &str) -> Result<usize, CkptError> {
        let v = self.u64(field)?;
        usize::try_from(v).map_err(|_| CkptError::FieldMismatch {
            file: self.file.into(),
            field: field.into(),
            detail: format!("{v} does not fit usize"),
        })
    }

    /// Length-prefixed count that must also fit in the remaining bytes at
    /// `elem_size` each — so a corrupt length can never drive a huge
    /// allocation before the shortfall is noticed.
    fn count(&mut self, elem_size: usize, field: &str) -> Result<usize, CkptError> {
        let n = self.usize(field)?;
        let need = n.checked_mul(elem_size).ok_or_else(|| CkptError::FieldMismatch {
            file: self.file.into(),
            field: field.into(),
            detail: format!("count {n} overflows"),
        })?;
        if self.buf.len() - self.pos < need {
            return Err(CkptError::Truncated { file: self.file.into(), field: field.into() });
        }
        Ok(n)
    }

    fn f32_vec(&mut self, n: usize, field: &str) -> Result<Vec<f32>, CkptError> {
        let raw = self.take(n * 4, field)?;
        Ok(raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
    }

    fn u64_vec(&mut self, n: usize, field: &str) -> Result<Vec<u64>, CkptError> {
        let raw = self.take(n * 8, field)?;
        Ok(raw.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect())
    }

    fn usize_vec(&mut self, n: usize, field: &str) -> Result<Vec<usize>, CkptError> {
        self.u64_vec(n, field)?
            .into_iter()
            .map(|v| {
                usize::try_from(v).map_err(|_| CkptError::FieldMismatch {
                    file: self.file.into(),
                    field: field.into(),
                    detail: format!("{v} does not fit usize"),
                })
            })
            .collect()
    }

    /// All bytes must be consumed — trailing garbage inside a CRC-valid
    /// section means a writer/reader disagreement, which must be loud.
    fn finish(&self, section: &str) -> Result<(), CkptError> {
        if self.pos != self.buf.len() {
            return Err(CkptError::FieldMismatch {
                file: self.file.into(),
                field: section.into(),
                detail: format!("{} trailing bytes after last field", self.buf.len() - self.pos),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Container framing
// ---------------------------------------------------------------------------

/// A parsed container: framing validated (magic, version, CRCs, lengths),
/// contents not yet interpreted.
pub struct RawCheckpoint<'a> {
    pub version: u32,
    pub kind: u32,
    pub header: &'a [u8],
    pub payload: &'a [u8],
}

pub(crate) fn encode_container(kind: u32, header: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 + 4 + 4 + header.len() + 4 + 8 + payload.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(header.len() as u32).to_le_bytes());
    out.extend_from_slice(header);
    out.extend_from_slice(&crc32(header).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

pub(crate) fn decode_container<'a>(
    file: &str,
    bytes: &'a [u8],
) -> Result<RawCheckpoint<'a>, CkptError> {
    let mut r = Reader::new(file, bytes);
    let magic = r.take(8, "magic").map_err(|_| CkptError::BadMagic { file: file.into() })?;
    if magic != MAGIC {
        return Err(CkptError::BadMagic { file: file.into() });
    }
    let version = u32::from_le_bytes(r.take(4, "version")?.try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(CkptError::UnsupportedVersion {
            file: file.into(),
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let kind = u32::from_le_bytes(r.take(4, "kind")?.try_into().unwrap());
    let header_len = u32::from_le_bytes(r.take(4, "header_len")?.try_into().unwrap()) as usize;
    let header = r.take(header_len, "header")?;
    let header_crc = u32::from_le_bytes(r.take(4, "header_crc")?.try_into().unwrap());
    if crc32(header) != header_crc {
        return Err(CkptError::CrcMismatch { file: file.into(), section: "header" });
    }
    let payload_len = u64::from_le_bytes(r.take(8, "payload_len")?.try_into().unwrap());
    let payload_len = usize::try_from(payload_len).map_err(|_| CkptError::FieldMismatch {
        file: file.into(),
        field: "payload_len".into(),
        detail: format!("{payload_len} does not fit usize"),
    })?;
    let payload = r.take(payload_len, "payload")?;
    let payload_crc = u32::from_le_bytes(r.take(4, "payload_crc")?.try_into().unwrap());
    if crc32(payload) != payload_crc {
        return Err(CkptError::CrcMismatch { file: file.into(), section: "payload" });
    }
    r.finish("container")?;
    Ok(RawCheckpoint { version, kind, header, payload })
}

fn expect_kind(file: &str, found: u32, expected: u32) -> Result<(), CkptError> {
    if found != expected {
        return Err(CkptError::WrongKind { file: file.into(), expected, found });
    }
    Ok(())
}

fn check_eq_u64(file: &str, field: &str, stored: u64, live: u64) -> Result<(), CkptError> {
    if stored != live {
        return Err(CkptError::FieldMismatch {
            file: file.into(),
            field: field.into(),
            detail: format!("checkpoint has {stored}, running system has {live}"),
        });
    }
    Ok(())
}

fn check_eq_f32(file: &str, field: &str, stored: f32, live: f32) -> Result<(), CkptError> {
    // Bit compare: restart must be bit-exact, so "close enough" hyperparams
    // are not the same hyperparams.
    if stored.to_bits() != live.to_bits() {
        return Err(CkptError::FieldMismatch {
            file: file.into(),
            field: field.into(),
            detail: format!("checkpoint has {stored}, running system has {live}"),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Engine checkpoint (kind 1): one file per rank per stamped iteration
// ---------------------------------------------------------------------------

/// Decoded engine checkpoint: the geometry fingerprint it was written under
/// and the per-rank snapshot.
#[derive(Debug)]
pub struct EngineFile {
    pub config: EngineConfig,
    pub snapshot: EngineSnapshot,
}

pub(crate) fn encode_engine(cfg: &EngineConfig, snap: &EngineSnapshot) -> Vec<u8> {
    let mut h = ByteWriter::new();
    h.u64(snap.iteration);
    h.u64(snap.world_size as u64);
    h.u64(snap.logical_rank as u64);
    h.u64(cfg.d_model as u64);
    h.u64(cfg.d_ff as u64);
    h.u64(cfg.expert_classes as u64);
    h.u64(cfg.slots_per_rank as u64);
    h.u64(cfg.slot_capacity as u64);
    h.u64(cfg.seed);
    h.u64(cfg.layer_id as u64);
    h.f32(cfg.adam.lr);
    h.f32(cfg.adam.beta1);
    h.f32(cfg.adam.beta2);
    h.f32(cfg.adam.eps);
    h.f32(cfg.adam.weight_decay);

    let mut p = ByteWriter::new();
    p.u64(snap.replica_counts.len() as u64);
    for &c in &snap.replica_counts {
        p.u64(c as u64);
    }
    match &snap.popularity {
        None => p.u8(0),
        Some(pop) => {
            p.u8(1);
            p.u64(pop.len() as u64);
            for &v in pop {
                p.u64(v);
            }
        }
    }
    p.u64(snap.shards.len() as u64);
    for shard in &snap.shards {
        p.u64(shard.offset as u64);
        p.u64(shard.t);
        p.u64(shard.master.len() as u64);
        p.f32_slice(&shard.master);
        p.f32_slice(&shard.m);
        p.f32_slice(&shard.v);
    }
    encode_container(KIND_ENGINE, &h.buf, &p.buf)
}

/// Decodes and fully validates an engine checkpoint. With
/// `expected = Some(cfg)`, the stored geometry fingerprint must match the
/// running engine's config field-for-field; without it (the `symi-ckpt`
/// tool), only internal consistency is enforced.
pub(crate) fn decode_engine(
    file: &str,
    bytes: &[u8],
    expected: Option<&EngineConfig>,
) -> Result<EngineFile, CkptError> {
    let raw = decode_container(file, bytes)?;
    expect_kind(file, raw.kind, KIND_ENGINE)?;

    let mut h = Reader::new(file, raw.header);
    let iteration = h.u64("header.iteration")?;
    let world_size = h.usize("header.world_size")?;
    let logical_rank = h.usize("header.logical_rank")?;
    let d_model = h.usize("header.d_model")?;
    let d_ff = h.usize("header.d_ff")?;
    let expert_classes = h.usize("header.expert_classes")?;
    let slots_per_rank = h.usize("header.slots_per_rank")?;
    let slot_capacity = h.usize("header.slot_capacity")?;
    let seed = h.u64("header.seed")?;
    let layer_id = h.usize("header.layer_id")?;
    let adam = AdamConfig {
        lr: h.f32("header.adam.lr")?,
        beta1: h.f32("header.adam.beta1")?,
        beta2: h.f32("header.adam.beta2")?,
        eps: h.f32("header.adam.eps")?,
        weight_decay: h.f32("header.adam.weight_decay")?,
    };
    h.finish("header")?;
    let config = EngineConfig {
        d_model,
        d_ff,
        expert_classes,
        slots_per_rank,
        slot_capacity,
        adam,
        seed,
        layer_id,
    };

    if world_size == 0 || logical_rank >= world_size {
        return Err(CkptError::FieldMismatch {
            file: file.into(),
            field: "header.logical_rank".into(),
            detail: format!("rank {logical_rank} outside world of {world_size}"),
        });
    }
    if let Some(live) = expected {
        check_eq_u64(file, "header.d_model", d_model as u64, live.d_model as u64)?;
        check_eq_u64(file, "header.d_ff", d_ff as u64, live.d_ff as u64)?;
        check_eq_u64(
            file,
            "header.expert_classes",
            expert_classes as u64,
            live.expert_classes as u64,
        )?;
        check_eq_u64(
            file,
            "header.slots_per_rank",
            slots_per_rank as u64,
            live.slots_per_rank as u64,
        )?;
        check_eq_u64(
            file,
            "header.slot_capacity",
            slot_capacity as u64,
            live.slot_capacity as u64,
        )?;
        check_eq_u64(file, "header.seed", seed, live.seed)?;
        check_eq_u64(file, "header.layer_id", layer_id as u64, live.layer_id as u64)?;
        check_eq_f32(file, "header.adam.lr", adam.lr, live.adam.lr)?;
        check_eq_f32(file, "header.adam.beta1", adam.beta1, live.adam.beta1)?;
        check_eq_f32(file, "header.adam.beta2", adam.beta2, live.adam.beta2)?;
        check_eq_f32(file, "header.adam.eps", adam.eps, live.adam.eps)?;
        check_eq_f32(file, "header.adam.weight_decay", adam.weight_decay, live.adam.weight_decay)?;
    }

    let mut r = Reader::new(file, raw.payload);
    let n_counts = r.count(8, "replica_counts.len")?;
    check_eq_u64(file, "replica_counts.len", n_counts as u64, expert_classes as u64)?;
    let replica_counts = r.usize_vec(n_counts, "replica_counts")?;
    let total_slots = slots_per_rank * world_size;
    if !valid_replica_counts(&replica_counts, total_slots) {
        return Err(CkptError::FieldMismatch {
            file: file.into(),
            field: "replica_counts".into(),
            detail: format!(
                "counts {replica_counts:?} do not cover {total_slots} slots with >=1 replica each"
            ),
        });
    }
    let popularity = match r.u8("popularity.flag")? {
        0 => None,
        1 => {
            let n = r.count(8, "popularity.len")?;
            check_eq_u64(file, "popularity.len", n as u64, expert_classes as u64)?;
            Some(r.u64_vec(n, "popularity")?)
        }
        other => {
            return Err(CkptError::FieldMismatch {
                file: file.into(),
                field: "popularity.flag".into(),
                detail: format!("expected 0 or 1, found {other}"),
            })
        }
    };
    let n_shards = r.count(24, "shards.len")?;
    check_eq_u64(file, "shards.len", n_shards as u64, expert_classes as u64)?;
    let params = param_count(config.d_model, config.d_ff);
    let mut shards = Vec::with_capacity(n_shards);
    for i in 0..n_shards {
        let offset = r.usize(&format!("shards[{i}].offset"))?;
        let t = r.u64(&format!("shards[{i}].t"))?;
        let len = r.count(12, &format!("shards[{i}].len"))?;
        let master = r.f32_vec(len, &format!("shards[{i}].master"))?;
        let m = r.f32_vec(len, &format!("shards[{i}].m"))?;
        let v = r.f32_vec(len, &format!("shards[{i}].v"))?;
        let shard = ShardState { offset, master, m, v, t };
        if let Err(bad) = shard.check_geometry(params, world_size, logical_rank) {
            return Err(CkptError::FieldMismatch {
                file: file.into(),
                field: format!("shards[{i}].{}", bad.trim_start_matches("shard.")),
                detail: format!(
                    "shard geometry disagrees with (params={params}, world={world_size}, rank={logical_rank})"
                ),
            });
        }
        shards.push(shard);
    }
    r.finish("payload")?;

    Ok(EngineFile {
        config,
        snapshot: EngineSnapshot {
            iteration,
            world_size,
            logical_rank,
            replica_counts,
            popularity,
            shards,
        },
    })
}

// ---------------------------------------------------------------------------
// Trainer checkpoint (kind 2): whole-model single-process training state
// ---------------------------------------------------------------------------

fn put_adam(p: &mut ByteWriter, st: &AdamState) {
    let cfg = st.config();
    p.f32(cfg.lr);
    p.f32(cfg.beta1);
    p.f32(cfg.beta2);
    p.f32(cfg.eps);
    p.f32(cfg.weight_decay);
    p.u64(st.step_count());
    p.u64(st.len() as u64);
    p.f32_slice(st.master_weights());
    let (m, v) = st.moments();
    p.f32_slice(m);
    p.f32_slice(v);
}

fn get_adam(r: &mut Reader<'_, '_>, field: &str) -> Result<AdamState, CkptError> {
    let cfg = AdamConfig {
        lr: r.f32(&format!("{field}.lr"))?,
        beta1: r.f32(&format!("{field}.beta1"))?,
        beta2: r.f32(&format!("{field}.beta2"))?,
        eps: r.f32(&format!("{field}.eps"))?,
        weight_decay: r.f32(&format!("{field}.weight_decay"))?,
    };
    let t = r.u64(&format!("{field}.t"))?;
    let len = r.count(12, &format!("{field}.len"))?;
    let master = r.f32_vec(len, &format!("{field}.master"))?;
    let m = r.f32_vec(len, &format!("{field}.m"))?;
    let v = r.f32_vec(len, &format!("{field}.v"))?;
    Ok(AdamState::from_parts(cfg, master, m, v, t))
}

pub(crate) fn encode_trainer(cfg: &ModelConfig, ckpt: &Checkpoint) -> Vec<u8> {
    let mut h = ByteWriter::new();
    h.u64(ckpt.iteration);
    h.u64(cfg.vocab_size as u64);
    h.u64(cfg.d_model as u64);
    h.u64(cfg.n_heads as u64);
    h.u64(cfg.d_ff as u64);
    h.u64(cfg.layers as u64);
    h.u64(cfg.experts as u64);
    h.u64(cfg.top_k as u64);
    h.u64(cfg.seq_len as u64);
    h.u64(cfg.batch_size as u64);
    h.u64(cfg.total_slots as u64);
    h.f32(cfg.capacity_factor);
    h.f32(cfg.aux_loss_coef);
    h.f32(cfg.lr);
    h.u64(cfg.seed);

    let mut p = ByteWriter::new();
    p.u64(ckpt.dense_params.len() as u64);
    for mat in &ckpt.dense_params {
        p.u64(mat.rows() as u64);
        p.u64(mat.cols() as u64);
        p.f32_slice(mat.as_slice());
    }
    p.u64(ckpt.dense_opt.len() as u64);
    for st in &ckpt.dense_opt {
        put_adam(&mut p, st);
    }
    p.u64(ckpt.expert_params.len() as u64);
    for layer in &ckpt.expert_params {
        p.u64(layer.len() as u64);
        for class in layer {
            p.u64(class.len() as u64);
            p.f32_slice(class);
        }
    }
    p.u64(ckpt.expert_opt.len() as u64);
    for layer in &ckpt.expert_opt {
        p.u64(layer.len() as u64);
        for st in layer {
            put_adam(&mut p, st);
        }
    }
    p.u64(ckpt.replicas.len() as u64);
    for layer in &ckpt.replicas {
        p.u64(layer.len() as u64);
        for &c in layer {
            p.u64(c as u64);
        }
    }
    // TrainRecord
    let rec = &ckpt.record;
    p.u64(rec.losses.len() as u64);
    for &l in &rec.losses {
        p.f32(l);
    }
    p.u64(rec.survival.len() as u64);
    for &s in &rec.survival {
        p.f64(s);
    }
    p.u64(rec.popularity.len() as u64);
    for trace in &rec.popularity {
        let t_len = trace.len();
        let classes = trace.expert_classes();
        p.u64(t_len as u64);
        p.u64(classes as u64);
        let series: Vec<Vec<u64>> = (0..classes).map(|e| trace.series(e)).collect();
        for t in 0..t_len {
            for col in &series {
                p.u64(col[t]);
            }
        }
    }
    p.u64(rec.replicas.len() as u64);
    for it in &rec.replicas {
        p.u64(it.len() as u64);
        for layer in it {
            p.u64(layer.len() as u64);
            for &c in layer {
                p.u64(c as u64);
            }
        }
    }
    p.u64(rec.moved_replicas.len() as u64);
    for &mv in &rec.moved_replicas {
        p.u64(mv as u64);
    }
    encode_container(KIND_TRAINER, &h.buf, &p.buf)
}

pub(crate) fn decode_trainer(
    file: &str,
    bytes: &[u8],
    expected: Option<&ModelConfig>,
) -> Result<Checkpoint, CkptError> {
    let raw = decode_container(file, bytes)?;
    expect_kind(file, raw.kind, KIND_TRAINER)?;

    let mut h = Reader::new(file, raw.header);
    let iteration = h.u64("header.iteration")?;
    let vocab_size = h.u64("header.vocab_size")?;
    let d_model = h.u64("header.d_model")?;
    let n_heads = h.u64("header.n_heads")?;
    let d_ff = h.u64("header.d_ff")?;
    let layers = h.u64("header.layers")?;
    let experts = h.u64("header.experts")?;
    let top_k = h.u64("header.top_k")?;
    let seq_len = h.u64("header.seq_len")?;
    let batch_size = h.u64("header.batch_size")?;
    let total_slots = h.u64("header.total_slots")?;
    let capacity_factor = h.f32("header.capacity_factor")?;
    let aux_loss_coef = h.f32("header.aux_loss_coef")?;
    let lr = h.f32("header.lr")?;
    let seed = h.u64("header.seed")?;
    h.finish("header")?;

    if let Some(live) = expected {
        check_eq_u64(file, "header.vocab_size", vocab_size, live.vocab_size as u64)?;
        check_eq_u64(file, "header.d_model", d_model, live.d_model as u64)?;
        check_eq_u64(file, "header.n_heads", n_heads, live.n_heads as u64)?;
        check_eq_u64(file, "header.d_ff", d_ff, live.d_ff as u64)?;
        check_eq_u64(file, "header.layers", layers, live.layers as u64)?;
        check_eq_u64(file, "header.experts", experts, live.experts as u64)?;
        check_eq_u64(file, "header.top_k", top_k, live.top_k as u64)?;
        check_eq_u64(file, "header.seq_len", seq_len, live.seq_len as u64)?;
        check_eq_u64(file, "header.batch_size", batch_size, live.batch_size as u64)?;
        check_eq_u64(file, "header.total_slots", total_slots, live.total_slots as u64)?;
        check_eq_f32(file, "header.capacity_factor", capacity_factor, live.capacity_factor)?;
        check_eq_f32(file, "header.aux_loss_coef", aux_loss_coef, live.aux_loss_coef)?;
        check_eq_f32(file, "header.lr", lr, live.lr)?;
        check_eq_u64(file, "header.seed", seed, live.seed)?;
    }

    let mut r = Reader::new(file, raw.payload);
    let n_dense = r.count(1, "dense_params.len")?;
    let mut dense_params = Vec::with_capacity(n_dense);
    for i in 0..n_dense {
        let rows = r.usize(&format!("dense_params[{i}].rows"))?;
        let cols = r.usize(&format!("dense_params[{i}].cols"))?;
        let elems = rows.checked_mul(cols).ok_or_else(|| CkptError::FieldMismatch {
            file: file.into(),
            field: format!("dense_params[{i}].rows"),
            detail: format!("{rows}x{cols} overflows"),
        })?;
        let data = r.f32_vec(elems, &format!("dense_params[{i}].data"))?;
        dense_params.push(Matrix::from_vec(rows, cols, data));
    }
    let n_dopt = r.count(1, "dense_opt.len")?;
    check_eq_u64(file, "dense_opt.len", n_dopt as u64, n_dense as u64)?;
    let mut dense_opt = Vec::with_capacity(n_dopt);
    for (i, param) in dense_params.iter().enumerate() {
        let st = get_adam(&mut r, &format!("dense_opt[{i}]"))?;
        if st.len() != param.rows() * param.cols() {
            return Err(CkptError::FieldMismatch {
                file: file.into(),
                field: format!("dense_opt[{i}].len"),
                detail: format!(
                    "optimizer covers {} params but matrix has {}",
                    st.len(),
                    param.rows() * param.cols()
                ),
            });
        }
        dense_opt.push(st);
    }
    let n_layers = r.count(1, "expert_params.len")?;
    check_eq_u64(file, "expert_params.len", n_layers as u64, layers)?;
    let mut expert_params = Vec::with_capacity(n_layers);
    for l in 0..n_layers {
        let n_classes = r.count(1, &format!("expert_params[{l}].len"))?;
        check_eq_u64(file, &format!("expert_params[{l}].len"), n_classes as u64, experts)?;
        let mut layer = Vec::with_capacity(n_classes);
        for c in 0..n_classes {
            let len = r.count(4, &format!("expert_params[{l}][{c}].len"))?;
            layer.push(r.f32_vec(len, &format!("expert_params[{l}][{c}]"))?);
        }
        expert_params.push(layer);
    }
    let n_olayers = r.count(1, "expert_opt.len")?;
    check_eq_u64(file, "expert_opt.len", n_olayers as u64, n_layers as u64)?;
    let mut expert_opt = Vec::with_capacity(n_olayers);
    for (l, param_layer) in expert_params.iter().enumerate() {
        let n_classes = r.count(1, &format!("expert_opt[{l}].len"))?;
        check_eq_u64(
            file,
            &format!("expert_opt[{l}].len"),
            n_classes as u64,
            param_layer.len() as u64,
        )?;
        let mut layer = Vec::with_capacity(n_classes);
        for (c, param) in param_layer.iter().enumerate() {
            let st = get_adam(&mut r, &format!("expert_opt[{l}][{c}]"))?;
            if st.len() != param.len() {
                return Err(CkptError::FieldMismatch {
                    file: file.into(),
                    field: format!("expert_opt[{l}][{c}].len"),
                    detail: format!(
                        "optimizer covers {} params but expert has {}",
                        st.len(),
                        param.len()
                    ),
                });
            }
            layer.push(st);
        }
        expert_opt.push(layer);
    }
    let n_rlayers = r.count(1, "replicas.len")?;
    check_eq_u64(file, "replicas.len", n_rlayers as u64, n_layers as u64)?;
    let mut replicas = Vec::with_capacity(n_rlayers);
    for l in 0..n_rlayers {
        let n = r.count(8, &format!("replicas[{l}].len"))?;
        replicas.push(r.usize_vec(n, &format!("replicas[{l}]"))?);
    }

    let n_losses = r.count(4, "record.losses.len")?;
    let losses = r.f32_vec(n_losses, "record.losses")?;
    let n_surv = r.count(8, "record.survival.len")?;
    let mut survival = Vec::with_capacity(n_surv);
    for i in 0..n_surv {
        survival.push(r.f64(&format!("record.survival[{i}]"))?);
    }
    let n_traces = r.count(16, "record.popularity.len")?;
    let mut popularity = Vec::with_capacity(n_traces);
    for tr in 0..n_traces {
        let t_len = r.usize(&format!("record.popularity[{tr}].len"))?;
        let classes = r.usize(&format!("record.popularity[{tr}].classes"))?;
        let mut trace = PopularityTrace::new();
        for t in 0..t_len {
            trace.push(r.u64_vec(classes, &format!("record.popularity[{tr}][{t}]"))?);
        }
        popularity.push(trace);
    }
    let n_rits = r.count(1, "record.replicas.len")?;
    let mut rec_replicas = Vec::with_capacity(n_rits);
    for it in 0..n_rits {
        let nl = r.count(1, &format!("record.replicas[{it}].len"))?;
        let mut per_layer = Vec::with_capacity(nl);
        for l in 0..nl {
            let n = r.count(8, &format!("record.replicas[{it}][{l}].len"))?;
            per_layer.push(r.usize_vec(n, &format!("record.replicas[{it}][{l}]"))?);
        }
        rec_replicas.push(per_layer);
    }
    let n_moved = r.count(8, "record.moved_replicas.len")?;
    let moved_replicas = r.usize_vec(n_moved, "record.moved_replicas")?;
    r.finish("payload")?;

    Ok(Checkpoint {
        iteration,
        dense_params,
        dense_opt,
        expert_params,
        expert_opt,
        replicas,
        record: TrainRecord {
            losses,
            survival,
            popularity,
            replicas: rec_replicas,
            moved_replicas,
        },
    })
}

// ---------------------------------------------------------------------------
// Inspection (symi-ckpt)
// ---------------------------------------------------------------------------

/// Header-level summary of a checkpoint file, for `symi-ckpt inspect`.
pub struct InspectInfo {
    pub kind: u32,
    pub version: u32,
    pub iteration: u64,
    pub world_size: Option<usize>,
    pub logical_rank: Option<usize>,
    pub header_bytes: usize,
    pub payload_bytes: usize,
}

/// Validates framing + full structural decode, returning a summary. This is
/// what `symi-ckpt validate` runs per file.
pub fn inspect(file: &str, bytes: &[u8]) -> Result<InspectInfo, CkptError> {
    let raw = decode_container(file, bytes)?;
    let info = match raw.kind {
        KIND_ENGINE => {
            let ef = decode_engine(file, bytes, None)?;
            InspectInfo {
                kind: raw.kind,
                version: raw.version,
                iteration: ef.snapshot.iteration,
                world_size: Some(ef.snapshot.world_size),
                logical_rank: Some(ef.snapshot.logical_rank),
                header_bytes: raw.header.len(),
                payload_bytes: raw.payload.len(),
            }
        }
        KIND_TRAINER => {
            let ckpt = decode_trainer(file, bytes, None)?;
            InspectInfo {
                kind: raw.kind,
                version: raw.version,
                iteration: ckpt.iteration,
                world_size: None,
                logical_rank: None,
                header_bytes: raw.header.len(),
                payload_bytes: raw.payload.len(),
            }
        }
        other => {
            return Err(CkptError::WrongKind {
                file: file.into(),
                expected: KIND_ENGINE,
                found: other,
            })
        }
    };
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> EngineConfig {
        EngineConfig {
            d_model: 4,
            d_ff: 8,
            expert_classes: 2,
            slots_per_rank: 2,
            slot_capacity: 64,
            adam: AdamConfig::default(),
            seed: 7,
            layer_id: 0,
        }
    }

    fn tiny_snapshot(cfg: &EngineConfig, world: usize, rank: usize) -> EngineSnapshot {
        use symi_collectives::coll::chunk_range;
        let params = param_count(cfg.d_model, cfg.d_ff);
        let (start, end) = chunk_range(params, world, rank);
        let len = end - start;
        let shard = |salt: f32| ShardState {
            offset: start,
            master: (0..len).map(|i| i as f32 * 0.5 + salt).collect(),
            m: vec![0.25 + salt; len],
            v: vec![0.125 + salt; len],
            t: 3,
        };
        EngineSnapshot {
            iteration: 42,
            world_size: world,
            logical_rank: rank,
            replica_counts: vec![3, 1],
            popularity: Some(vec![100, 20]),
            shards: vec![shard(0.0), shard(1.0)],
        }
    }

    #[test]
    fn engine_round_trip_is_field_exact() {
        let cfg = tiny_cfg();
        let snap = tiny_snapshot(&cfg, 2, 1);
        let bytes = encode_engine(&cfg, &snap);
        let back = decode_engine("t.bin", &bytes, Some(&cfg)).unwrap();
        assert_eq!(back.snapshot.iteration, snap.iteration);
        assert_eq!(back.snapshot.world_size, snap.world_size);
        assert_eq!(back.snapshot.logical_rank, snap.logical_rank);
        assert_eq!(back.snapshot.replica_counts, snap.replica_counts);
        assert_eq!(back.snapshot.popularity, snap.popularity);
        for (a, b) in back.snapshot.shards.iter().zip(&snap.shards) {
            assert_eq!(a.offset, b.offset);
            assert_eq!(a.t, b.t);
            assert_eq!(a.master, b.master);
            assert_eq!(a.m, b.m);
            assert_eq!(a.v, b.v);
        }
    }

    #[test]
    fn corrupt_payload_byte_is_a_crc_mismatch_naming_the_section() {
        let cfg = tiny_cfg();
        let bytes = encode_engine(&cfg, &tiny_snapshot(&cfg, 2, 0));
        let mut bad = bytes.clone();
        let at = bad.len() - 20; // inside payload, before its CRC
        bad[at] ^= 0x40;
        match decode_engine("corrupt.bin", &bad, Some(&cfg)) {
            Err(CkptError::CrcMismatch { file, section }) => {
                assert_eq!(file, "corrupt.bin");
                assert_eq!(section, "payload");
            }
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_file_names_the_missing_field() {
        let cfg = tiny_cfg();
        let bytes = encode_engine(&cfg, &tiny_snapshot(&cfg, 2, 0));
        let cut = &bytes[..bytes.len() / 2];
        match decode_engine("cut.bin", cut, Some(&cfg)) {
            Err(CkptError::Truncated { file, field }) => {
                assert_eq!(file, "cut.bin");
                assert_eq!(field, "payload");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let cfg = tiny_cfg();
        let bytes = encode_engine(&cfg, &tiny_snapshot(&cfg, 2, 0));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode_engine("m.bin", &bad, None), Err(CkptError::BadMagic { .. })));
        let mut vbad = bytes;
        vbad[8] = 99; // version little-endian low byte
        assert!(matches!(
            decode_engine("v.bin", &vbad, None),
            Err(CkptError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn geometry_fingerprint_mismatch_names_the_field() {
        let cfg = tiny_cfg();
        let bytes = encode_engine(&cfg, &tiny_snapshot(&cfg, 2, 0));
        let mut other = cfg;
        other.d_ff = 16;
        match decode_engine("geom.bin", &bytes, Some(&other)) {
            Err(CkptError::FieldMismatch { field, .. }) => assert_eq!(field, "header.d_ff"),
            res => panic!("expected FieldMismatch, got {:?}", res.err()),
        }
    }

    #[test]
    fn nan_and_denormal_payloads_survive_bit_exactly() {
        let cfg = tiny_cfg();
        let mut snap = tiny_snapshot(&cfg, 2, 0);
        snap.shards[0].master[0] = f32::NAN;
        snap.shards[0].m[1] = f32::from_bits(1); // smallest denormal
        snap.shards[1].v[0] = -0.0;
        let bytes = encode_engine(&cfg, &snap);
        let back = decode_engine("nan.bin", &bytes, Some(&cfg)).unwrap();
        assert_eq!(back.snapshot.shards[0].master[0].to_bits(), f32::NAN.to_bits());
        assert_eq!(back.snapshot.shards[0].m[1].to_bits(), 1);
        assert_eq!(back.snapshot.shards[1].v[0].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn engine_loader_rejects_a_trainer_file_by_kind() {
        let cfg = tiny_cfg();
        let snap = tiny_snapshot(&cfg, 2, 0);
        let mut bytes = encode_engine(&cfg, &snap);
        // Rewrite the kind field (offset 12) and fix nothing else: the kind
        // sits outside both CRCs by design, so this exercises WrongKind.
        bytes[12] = KIND_TRAINER as u8;
        assert!(matches!(
            decode_engine("k.bin", &bytes, None),
            Err(CkptError::WrongKind { expected: KIND_ENGINE, found: KIND_TRAINER, .. })
        ));
    }
}
