//! The analytic fast path: a partition's [`TileCost`] from one pass over
//! its tile, without encoding or decompressing it.
//!
//! The §5.2 decompressor costs and the per-format stream sizes are closed
//! forms in a handful of per-tile counts — non-zeros, non-zero rows, the
//! longest row and column, occupied diagonals and blocks. [`TileScan`]
//! gathers those counts in one pass; the closed forms themselves sit next
//! to the code they mirror (`decomp::closed_form` beside each
//! decompressor walk, `encode::structural_bytes` beside the stream
//! accounting).
//!
//! The scan prices only tiles it can prove the closed forms exact for: a
//! `p×p` tile with no duplicate coordinate and no stored zero. Every
//! format merges duplicates in its own float summation order (and drops
//! sums that cancel), so such tiles go back to the functional path —
//! [`TileCost::from_tile`] answers `None` for them. Entry order does not
//! matter: nothing here assumes sorted tiles.
//!
//! None of the counts depends on the format, so a session scans each tile
//! of a grid once: [`TileMemo`] keeps the counts of the last grid priced,
//! and every later format on that grid pays only the closed forms
//! ([`TileCost::from_stats`]).

use crate::backend::TileCost;
use crate::{decomp, encode, EncodeScratch, HwConfig};
use sparsemat::{Coo, FormatKind, Matrix, PartitionGrid};

/// Per-tile counts the closed forms read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct TileStats {
    /// Stored entries (all distinct, all non-zero).
    pub nnz: u64,
    /// Rows holding at least one entry.
    pub nz_rows: u64,
    /// Entries in the longest row.
    pub max_row: u64,
    /// Entries in the longest column.
    pub max_col: u64,
    /// Occupied diagonals (`col - row` offsets).
    pub diagonals: u64,
    /// Occupied `b×b` blocks (`b` = [`HwConfig::bcsr_block`]).
    pub blocks: u64,
    /// Block-rows holding at least one block.
    pub nz_block_rows: u64,
    /// Tile rows covered by those block-rows (the last block-row is cut
    /// off at the tile edge when `b` does not divide `p`).
    pub block_row_rows: u64,
}

/// The scan's count and bitmap buffers, pooled in [`EncodeScratch`] so a
/// warm scan allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct TileScan {
    /// One bit per tile cell: set once the cell has been seen.
    cells: Vec<u64>,
    /// Entries per row.
    rows: Vec<u32>,
    /// Entries per column.
    cols: Vec<u32>,
    /// One bit per diagonal offset `col - row + p - 1`.
    diags: Vec<u64>,
    /// One bit per `b×b` block.
    blocks: Vec<u64>,
}

/// Clears `bits` and sizes it to hold `n` bits.
fn reset_bits(bits: &mut Vec<u64>, n: usize) {
    bits.clear();
    bits.resize(n.div_ceil(64), 0);
}

/// Sets bit `i`; returns whether it was already set.
fn test_and_set(bits: &mut [u64], i: usize) -> bool {
    let (word, mask) = (i / 64, 1u64 << (i % 64));
    let seen = bits[word] & mask != 0;
    bits[word] |= mask;
    seen
}

fn count_bits(bits: &[u64]) -> u64 {
    bits.iter().map(|w| u64::from(w.count_ones())).sum()
}

impl TileScan {
    /// Counts `tile` as a `p×p` partition with `b×b` blocks, or `None` when
    /// the closed forms do not apply: a shape other than `p×p` (or a zero
    /// `p`/`b`), a duplicate coordinate, or a stored zero.
    pub(crate) fn scan(&mut self, tile: &Coo<f32>, p: usize, b: usize) -> Option<TileStats> {
        if p == 0 || b == 0 || tile.nrows() != p || tile.ncols() != p {
            return None;
        }
        let nb = p.div_ceil(b);
        reset_bits(&mut self.cells, p * p);
        reset_bits(&mut self.diags, 2 * p - 1);
        reset_bits(&mut self.blocks, nb * nb);
        self.rows.clear();
        self.rows.resize(p, 0);
        self.cols.clear();
        self.cols.resize(p, 0);
        for t in tile.iter() {
            if t.val == 0.0 || test_and_set(&mut self.cells, t.row * p + t.col) {
                return None;
            }
            self.rows[t.row] += 1;
            self.cols[t.col] += 1;
            test_and_set(&mut self.diags, t.col + p - 1 - t.row);
            test_and_set(&mut self.blocks, (t.row / b) * nb + t.col / b);
        }
        let mut s = TileStats {
            nnz: tile.nnz() as u64,
            diagonals: count_bits(&self.diags),
            blocks: count_bits(&self.blocks),
            ..TileStats::default()
        };
        for &n in &self.rows {
            s.nz_rows += u64::from(n > 0);
            s.max_row = s.max_row.max(u64::from(n));
        }
        s.max_col = self.cols.iter().copied().max().map_or(0, u64::from);
        for rows in self.rows.chunks(b) {
            if rows.iter().any(|&n| n > 0) {
                s.nz_block_rows += 1;
                s.block_row_rows += rows.len() as u64;
            }
        }
        Some(s)
    }
}

/// The per-tile counts of the last grid a session priced analytically, so
/// the formats after the first one in a sweep skip the scan.
///
/// `stats` is a prefix of the grid in grid order, filled lazily as the
/// serial fast-path loop reaches each tile: a cancelled or failed run
/// leaves a valid prefix that the next run on the same key extends. A
/// refused tile is memoized as `None` and takes the functional path on
/// every format. A different key clears the memo but keeps its capacity,
/// so memory stays bounded by the largest grid seen and a warm session
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct TileMemo {
    /// The grid's [`id`](PartitionGrid::id) and the two configuration
    /// fields the scan reads, `partition_size` and `bcsr_block`.
    key: Option<(u64, usize, usize)>,
    stats: Vec<Option<TileStats>>,
}

impl TileMemo {
    /// Points the memo at `grid` scanned under `cfg`; keeps the prefix
    /// when that is what it already holds.
    pub(crate) fn begin(&mut self, grid: &PartitionGrid<f32>, cfg: &HwConfig) {
        let key = (grid.id(), cfg.partition_size, cfg.bcsr_block);
        if self.key != Some(key) {
            self.key = Some(key);
            self.stats.clear();
            self.stats.reserve(grid.partitions().len());
        }
    }

    /// The counts of tile `idx` of the current grid, scanning it with
    /// `scan` the first time it is reached.
    pub(crate) fn stats(
        &mut self,
        idx: usize,
        tile: &Coo<f32>,
        scan: &mut TileScan,
    ) -> Option<TileStats> {
        if let Some(&s) = self.stats.get(idx) {
            return s;
        }
        let (_, p, b) = self.key?;
        let s = scan.scan(tile, p, b);
        // The serial loop visits tiles in grid order, so the next unseen
        // tile is always the one at the end of the prefix.
        if idx == self.stats.len() {
            self.stats.push(s);
        }
        s
    }
}

impl TileCost {
    /// Prices `tile` in `format` from its counts alone: the analytic fast
    /// path. Equal field for field to [`TileCost::functional`] over the
    /// encoded and decompressed tile under `cfg` with no stream codec
    /// (test-enforced), so only the structural accounting is produced —
    /// `coded_bytes == bytes` and no entropy cycles.
    ///
    /// Returns `None` when the tile needs the functional path: it is not
    /// `p×p`, repeats a coordinate, or stores a zero, or `format` is not
    /// characterized (the functional path reports that error). Counting
    /// buffers come from `scratch`; a warm scan allocates nothing.
    pub fn from_tile(
        tile: &Coo<f32>,
        format: FormatKind,
        cfg: &HwConfig,
        scratch: &mut EncodeScratch,
    ) -> Option<TileCost> {
        let s = scratch
            .tile_scan()
            .scan(tile, cfg.partition_size, cfg.bcsr_block)?;
        TileCost::from_stats(&s, format, cfg)
    }

    /// Prices a tile in `format` from counts already gathered by the scan
    /// under `cfg`'s `partition_size` and `bcsr_block`; `None` when
    /// `format` is not characterized.
    pub(crate) fn from_stats(
        s: &TileStats,
        format: FormatKind,
        cfg: &HwConfig,
    ) -> Option<TileCost> {
        let bytes = encode::structural_bytes(format, s, cfg)?;
        let d = decomp::closed_form(format, s, cfg)?;
        Some(TileCost {
            bytes,
            coded_bytes: bytes,
            useful_bytes: s.nnz * cfg.value_bytes as u64,
            entropy_cycles: 0,
            decomp_cycles: d.decomp_cycles,
            dot_issues: d.dot_issues,
            engine_width: d.engine_width,
            bram_reads: d.bram_reads,
        })
    }
}
