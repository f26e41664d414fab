//! Tile-level replay of one characterized cell through the public `hls`
//! entry points: structural encode (`EncodedPartition::encode_with`),
//! second-stage codec (`codec_for`), decompression (`decompress_with`) and
//! pricing (`backend_for(..).partition_timing`).
//!
//! Tiles are processed in batches, one phase at a time per batch, so each
//! phase is one span per batch and spans never overlap. Every batch slot
//! owns its own `EncodeScratch`, so the steady state recycles buffers the
//! way the platform's own tile loop does.

use crate::spans::Tracer;
use copernicus_hls::{
    backend_for, codec_for, decompress_with, CodecKind, CodecScratch, Decompression, EncodeScratch,
    EncodedPartition, HwConfig, PartitionTiming, RunReport,
};
use sparsemat::{AnyMatrix, FormatKind, Matrix, PartitionGrid};

/// Tiles per batch (and scratch slots).
const BATCH: usize = 32;

/// What one cell's replay computed, summed over its tiles.
#[derive(Debug, Default, Clone, Copy)]
pub struct CellTotals {
    pub tiles: u64,
    pub stream_bytes: u64,
    pub coded_bytes: u64,
    pub mem_cycles: u64,
    pub compute_cycles: u64,
    pub entropy_cycles: u64,
}

impl CellTotals {
    pub fn add(&mut self, other: &CellTotals) {
        self.tiles += other.tiles;
        self.stream_bytes += other.stream_bytes;
        self.coded_bytes += other.coded_bytes;
        self.mem_cycles += other.mem_cycles;
        self.compute_cycles += other.compute_cycles;
        self.entropy_cycles += other.entropy_cycles;
    }

    /// Checks the replay against the report the platform produced for the
    /// same cell.
    pub fn matches(&self, r: &RunReport) -> Result<(), String> {
        let pairs = [
            ("partitions", self.tiles, r.partitions as u64),
            ("bytes", self.stream_bytes, r.total_bytes),
            ("coded bytes", self.coded_bytes, r.total_coded_bytes),
            ("mem cycles", self.mem_cycles, r.total_mem_cycles),
            (
                "compute cycles",
                self.compute_cycles,
                r.total_compute_cycles,
            ),
            (
                "entropy cycles",
                self.entropy_cycles,
                r.total_entropy_cycles,
            ),
        ];
        for (what, replayed, reported) in pairs {
            if replayed != reported {
                return Err(format!("replayed {what} {replayed} != reported {reported}"));
            }
        }
        Ok(())
    }
}

#[derive(Default)]
pub struct Replayer {
    slots: Vec<EncodeScratch>,
    codec_scratch: CodecScratch,
    /// Serialized stream payloads and their coded forms, one per coded
    /// stream of the current batch.
    payloads: Vec<Vec<u8>>,
    coded: Vec<Vec<u8>>,
    decoded: Vec<u8>,
}

impl Replayer {
    pub fn new() -> Self {
        let mut r = Replayer::default();
        r.slots.resize_with(BATCH, EncodeScratch::new);
        r
    }

    /// Replays every tile of `grid` in `format` under `hw` (whose partition
    /// size must be the grid's), recording the phase spans under `cell`.
    pub fn replay_cell(
        &mut self,
        tracer: &mut Tracer,
        cell: u64,
        grid: &PartitionGrid<f32>,
        format: FormatKind,
        hw: &HwConfig,
    ) -> Result<CellTotals, String> {
        let structural = HwConfig {
            stream_codec: CodecKind::None,
            ..hw.clone()
        };
        let codec = codec_for(hw.stream_codec);
        let backend = backend_for(hw.backend);
        let mut totals = CellTotals::default();
        let mut encoded: Vec<EncodedPartition> = Vec::with_capacity(BATCH);
        let mut decomps: Vec<Decompression> = Vec::with_capacity(BATCH);
        let mut timings: Vec<PartitionTiming> = Vec::with_capacity(BATCH);
        for batch in grid.partitions().chunks(BATCH) {
            let slots = &mut self.slots;
            let enc: Result<Vec<_>, _> = tracer.time("hls.encode", cell, || {
                batch
                    .iter()
                    .zip(slots.iter_mut())
                    .map(|(part, scratch)| {
                        EncodedPartition::encode_with(&part.coo, format, &structural, scratch)
                    })
                    .collect()
            });
            encoded.extend(enc.map_err(|e| format!("encode {format}: {e}"))?);

            if let Some(codec) = codec {
                let (payloads, coded) = (&mut self.payloads, &mut self.coded);
                let mut used = 0usize;
                let enc_result: Result<(), String> = tracer.time("hls.codec_encode", cell, || {
                    for e in encoded.iter_mut() {
                        for s in 0..e.streams.len() {
                            if payloads.len() <= used {
                                payloads.push(Vec::new());
                                coded.push(Vec::new());
                            }
                            let name = e.streams[s].name;
                            stream_payload(&e.matrix, name, hw, &mut payloads[used])?;
                            if payloads[used].len() as u64 != e.streams[s].bytes {
                                return Err(format!(
                                    "{format} stream {name}: serialized {} bytes, accounted {}",
                                    payloads[used].len(),
                                    e.streams[s].bytes
                                ));
                            }
                            // Same rule as the platform: a stream ships
                            // coded only when that makes it smaller.
                            if codec
                                .encode_bytes(&payloads[used], &mut coded[used])
                                .is_ok()
                            {
                                let c = coded[used].len() as u64;
                                e.streams[s].coded_bytes = e.streams[s].bytes.min(c);
                            } else {
                                coded[used].clear();
                            }
                            used += 1;
                        }
                    }
                    Ok(())
                });
                enc_result?;
                let (payloads, coded, decoded, cs) = (
                    &self.payloads,
                    &self.coded,
                    &mut self.decoded,
                    &mut self.codec_scratch,
                );
                let dec_result: Result<(), String> = tracer.time("hls.codec_decode", cell, || {
                    for k in 0..used {
                        if coded[k].is_empty() || coded[k].len() >= payloads[k].len() {
                            continue; // shipped raw: no decode on the device
                        }
                        codec
                            .decode_bytes_with(&coded[k], decoded, cs)
                            .map_err(|e| format!("decode: {e}"))?;
                        if *decoded != payloads[k] {
                            return Err(format!("{format}: codec round trip changed a stream"));
                        }
                    }
                    Ok(())
                });
                dec_result?;
            }

            let slots = &mut self.slots;
            tracer.time("hls.decompress", cell, || {
                for (e, scratch) in encoded.iter().zip(slots.iter_mut()) {
                    decomps.push(decompress_with(e, hw, scratch));
                }
            });
            tracer.time("hls.backend", cell, || {
                for (e, d) in encoded.iter().zip(&decomps) {
                    timings.push(backend.partition_timing(e, d, hw));
                }
            });

            for t in &timings {
                totals.tiles += 1;
                totals.stream_bytes += t.bytes;
                totals.coded_bytes += t.coded_bytes;
                totals.mem_cycles += t.mem_cycles;
                totals.compute_cycles += t.compute_cycles;
                totals.entropy_cycles += t.entropy_cycles;
            }
            timings.clear();
            for ((e, d), scratch) in encoded
                .drain(..)
                .zip(decomps.drain(..))
                .zip(&mut self.slots)
            {
                scratch.recycle_decompression(d);
                scratch.recycle_encoded(e);
            }
        }
        Ok(totals)
    }
}

/// Serializes stream `name` of an encoded partition as it crosses the bus:
/// little-endian, `index_bytes`/`value_bytes` wide. Mirrors the platform's
/// layout for the formats the codec workloads use (CSR, COO, ELL); the
/// caller checks every length against the platform's byte accounting.
fn stream_payload(
    m: &AnyMatrix<f32>,
    name: &str,
    hw: &HwConfig,
    out: &mut Vec<u8>,
) -> Result<(), String> {
    let (ib, vb) = (hw.index_bytes, hw.value_bytes);
    out.clear();
    match (m, name) {
        (AnyMatrix::Csr(m), "offsets") => m.offsets().iter().for_each(|&i| index(out, i, ib)),
        (AnyMatrix::Csr(m), "colInx") => m.indices().iter().for_each(|&i| index(out, i, ib)),
        (AnyMatrix::Csr(m), "values") => m.values().iter().for_each(|&v| value(out, v, vb)),
        (AnyMatrix::Coo(m), "rowInx") => m.iter().for_each(|t| index(out, t.row, ib)),
        (AnyMatrix::Coo(m), "colInx") => m.iter().for_each(|t| index(out, t.col, ib)),
        (AnyMatrix::Coo(m), "values") => m.iter().for_each(|t| value(out, t.val, vb)),
        (AnyMatrix::Ell(m), "colInx") => m.raw_slots().0.iter().for_each(|&i| index(out, i, ib)),
        (AnyMatrix::Ell(m), "values") => m.raw_slots().1.iter().for_each(|&v| value(out, v, vb)),
        (m, name) => {
            return Err(format!(
                "no codec replay for stream {name} of a {} partition",
                m.kind()
            ))
        }
    }
    Ok(())
}

/// Appends the first `width` little-endian bytes of `le`, zero-padded.
fn truncated(out: &mut Vec<u8>, le: &[u8], width: usize) {
    let n = width.min(le.len());
    out.extend_from_slice(&le[..n]);
    out.resize(out.len() + (width - n), 0);
}

fn index(out: &mut Vec<u8>, i: usize, width: usize) {
    truncated(out, &(i as u64).to_le_bytes(), width);
}

fn value(out: &mut Vec<u8>, v: f32, width: usize) {
    truncated(out, &v.to_le_bytes(), width);
}
