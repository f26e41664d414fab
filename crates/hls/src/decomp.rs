//! Decompressor models — §5.2 of the paper, one model per format.
//!
//! Each function walks the *actual* encoded data structure the way the
//! paper's HLS listing does, producing (a) the dense rows the dot-product
//! engine would receive — used for functional verification, the analog of
//! C/RTL co-simulation — and (b) the cycle count of the schedule:
//!
//! * `#pragma HLS pipeline` loops retire one iteration per cycle (II = 1),
//! * `#pragma HLS unroll` + `array_partition` bodies retire in one cycle,
//! * every data-dependent read of a non-partitioned array (CSR/BCSR
//!   `offsets`, the LIL cursor row, …) pays [`HwConfig::bram_read_latency`].
//!
//! Each walk has a closed-form twin (`*_closed`, dispatched by
//! `closed_form`) that computes the same accounting from per-tile counts
//! alone — the analytic fast path. The oracle property test pins every
//! twin to its walk.

use crate::analytic::TileStats;
use crate::{EncodeScratch, EncodedPartition, HwConfig};
use sparsemat::ell::PAD;
use sparsemat::{AnyMatrix, Dense, FormatKind, Matrix};

/// The outcome of decompressing one partition: row contributions for the
/// dot-product engine plus the cycle/access accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Decompression {
    /// `(row index, dense row)` contributions in emission order. A row index
    /// may repeat (ELL multi-pass emits partial rows that accumulate).
    pub contributions: Vec<(usize, Vec<f32>)>,
    /// Cycles spent in the decompress stage (the `T_decomp` of Eq. 1).
    pub decomp_cycles: u64,
    /// Dot products issued to the engine (the `nnz_rows` factor of Eq. 1;
    /// BCSR and ELL issue more, as §5.2 explains).
    pub dot_issues: u64,
    /// Width of the engine these issues go to (partition size, except ELL's
    /// dedicated six-lane path).
    pub engine_width: usize,
    /// BRAM read transactions performed (feeds the power model).
    pub bram_reads: u64,
}

impl Decompression {
    /// Total compute-stage cycles: decompression plus the issued dot
    /// products (§4.2: "computation latency consisting of decompression,
    /// dot-product, and necessary BRAM accesses").
    pub fn compute_cycles(&self, cfg: &HwConfig) -> u64 {
        self.decomp_cycles + self.dot_issues * cfg.dot_latency(self.engine_width)
    }

    /// Reassembles the contributions into a dense `p×p` tile (accumulating
    /// repeated row indices) for functional verification.
    pub fn assemble(&self, p: usize) -> Dense<f32> {
        let mut d = Dense::zeros(p, p);
        for (r, row) in &self.contributions {
            for (dst, &v) in d.row_mut(*r).iter_mut().zip(row) {
                *dst += v;
            }
        }
        d
    }
}

/// Decompresses an encoded partition with the model matching its format.
pub fn decompress(part: &EncodedPartition, cfg: &HwConfig) -> Decompression {
    decompress_with(part, cfg, &mut EncodeScratch::default())
}

/// Like [`decompress`], but draws every row buffer and the contribution
/// list from `scratch` instead of the allocator. Returning the result
/// through [`EncodeScratch::recycle_decompression`] once its contributions
/// are consumed makes the steady-state decompress path allocation-free.
/// Cycle counts, BRAM accounting and emitted rows are bit-identical to
/// [`decompress`] (recycled buffers are re-zeroed before reuse).
pub fn decompress_with(
    part: &EncodedPartition,
    cfg: &HwConfig,
    scratch: &mut EncodeScratch,
) -> Decompression {
    match &part.matrix {
        AnyMatrix::Dense(m) => dense(m, cfg, scratch),
        AnyMatrix::Csr(m) => csr(m, cfg, scratch),
        AnyMatrix::Csc(m) => csc(m, cfg, scratch),
        AnyMatrix::Bcsr(m) => bcsr(m, cfg, scratch),
        // §5.2: "The same procedure is also applicable to DOK."
        AnyMatrix::Coo(m) => coo(m, cfg, scratch),
        AnyMatrix::Dok(m) => coo(&m.to_coo(), cfg, scratch),
        AnyMatrix::Lil(m) => lil(m, cfg, scratch),
        AnyMatrix::Ell(m) => ell(m, cfg, scratch),
        AnyMatrix::Dia(m) => dia(m, cfg, scratch),
    }
}

/// The accounting of the decompressor walk for `format` over a clean tile
/// (no duplicate coordinates, no stored zeros) with counts `s`, without
/// emitting its rows: `contributions` is empty.
pub(crate) fn closed_form(format: FormatKind, s: &TileStats, cfg: &HwConfig) -> Decompression {
    match format {
        FormatKind::Dense => dense_closed(cfg),
        FormatKind::Csr => csr_closed(s, cfg),
        FormatKind::Csc => csc_closed(s, cfg),
        FormatKind::Bcsr => bcsr_closed(s, cfg),
        FormatKind::Coo | FormatKind::Dok => coo_closed(s, cfg),
        FormatKind::Lil => lil_closed(s, cfg),
        FormatKind::Ell => ell_closed(cfg),
        FormatKind::Dia => dia_closed(s, cfg),
    }
}

/// A row-less [`Decompression`] carrying only the accounting.
fn accounting(
    decomp_cycles: u64,
    dot_issues: u64,
    engine_width: usize,
    bram_reads: u64,
) -> Decompression {
    Decompression {
        contributions: Vec::new(),
        decomp_cycles,
        dot_issues,
        engine_width,
        bram_reads,
    }
}

/// Dense baseline: rows stream straight to the engine; `T_decomp = 0` and
/// every row — zero or not — is a dot-product issue, which is what makes
/// σ ≡ 1 for the dense format.
fn dense(m: &Dense<f32>, cfg: &HwConfig, scratch: &mut EncodeScratch) -> Decompression {
    let p = cfg.partition_size;
    let mut contributions = scratch.take_contribs();
    for r in 0..p {
        contributions.push((r, scratch.row_from(m.row(r))));
    }
    Decompression {
        contributions,
        decomp_cycles: 0,
        dot_issues: p as u64,
        engine_width: p,
        bram_reads: p as u64,
    }
}

/// [`dense`] in closed form: `p` issues and reads, no decompression.
fn dense_closed(cfg: &HwConfig) -> Decompression {
    let p = cfg.partition_size;
    accounting(0, p as u64, p, p as u64)
}

/// CSR (Listing 1): one extra `offsets` BRAM access per non-zero row, then
/// a pipelined II=1 loop over that row's elements. Zero rows are skipped
/// for free because the offset reads are pipelined with row creation.
fn csr(m: &sparsemat::Csr<f32>, cfg: &HwConfig, scratch: &mut EncodeScratch) -> Decompression {
    let p = cfg.partition_size;
    let mut out = Decompression {
        contributions: scratch.take_contribs(),
        decomp_cycles: 0,
        dot_issues: 0,
        engine_width: p,
        bram_reads: 0,
    };
    for r in 0..p {
        let numval = m.row_nnz(r) as u64;
        if numval == 0 {
            continue;
        }
        // offsets[readInx] - offsets[readInx-1]
        out.bram_reads += 1;
        out.decomp_cycles += cfg.bram_read_latency;
        // for i = 0 to numVal (pipelined): drow[colInx[i]] = values[i]
        out.decomp_cycles += numval;
        out.bram_reads += numval;
        let mut row = scratch.row(p);
        for (c, v) in m.row_entries(r) {
            row[c] = v;
        }
        out.contributions.push((r, row));
        out.dot_issues += 1;
    }
    out
}

/// [`csr`] in closed form: `T = nzr·L_bram + nnz`, one issue per non-zero
/// row, one offsets read per non-zero row plus one read per element.
fn csr_closed(s: &TileStats, cfg: &HwConfig) -> Decompression {
    accounting(
        s.nz_rows * cfg.bram_read_latency + s.nnz,
        s.nz_rows,
        cfg.partition_size,
        s.nz_rows + s.nnz,
    )
}

/// CSC (Listing 3): the orientation mismatch — for *every* output row the
/// decompressor rescans all stored tuples looking for matching row indices.
/// The hardware cannot know a row is empty without scanning, so all `p`
/// rows pay the scan; only non-empty rows issue a dot product.
fn csc(m: &sparsemat::Csc<f32>, cfg: &HwConfig, scratch: &mut EncodeScratch) -> Decompression {
    let p = cfg.partition_size;
    let nnz = m.nnz() as u64;
    // One scatter pass over the stored tuples replaces the hardware's
    // per-row rescan in software: for a fixed cell the tuples arrive in
    // the same column-major storage order the rescan read them, so
    // last-write-wins produces identical rows, and a row is emitted iff it
    // owns at least one stored tuple — exactly the rescan's `any` flag.
    let mut rows = scratch.take_opt_rows(p);
    for c in 0..p {
        for (r, v) in m.col_entries(c) {
            if let Some(slot) = rows.get_mut(r) {
                slot.get_or_insert_with(|| scratch.row(p))[c] = v;
            }
        }
    }
    // The cycle model still charges the full `p` rescans of all stored
    // tuples that Listing 3's schedule pays (II=1 over every tuple, once
    // per output row).
    let mut out = Decompression {
        contributions: scratch.take_contribs(),
        decomp_cycles: p as u64 * nnz,
        dot_issues: 0,
        engine_width: p,
        bram_reads: p as u64 * nnz,
    };
    for (r, slot) in rows.iter_mut().enumerate() {
        if let Some(row) = slot.take() {
            out.contributions.push((r, row));
            out.dot_issues += 1;
        }
    }
    scratch.give_opt_rows(rows);
    out
}

/// [`csc`] in closed form: `T = p·nnz` rescan cycles and reads, one issue
/// per non-zero row.
fn csc_closed(s: &TileStats, cfg: &HwConfig) -> Decompression {
    let p = cfg.partition_size;
    accounting(p as u64 * s.nnz, s.nz_rows, p, p as u64 * s.nnz)
}

/// BCSR (Listing 2): one `offsets` access per non-empty block-row, then one
/// cycle per block (the inner copy loop is fully unrolled over partitioned
/// BRAMs). Every row of a non-zero block-row issues a dot product, zero
/// rows included — the paper's second BCSR downside.
fn bcsr(m: &sparsemat::Bcsr<f32>, cfg: &HwConfig, scratch: &mut EncodeScratch) -> Decompression {
    let p = cfg.partition_size;
    let b = m.block_size();
    let mut out = Decompression {
        contributions: scratch.take_contribs(),
        decomp_cycles: 0,
        dot_issues: 0,
        engine_width: p,
        bram_reads: 0,
    };
    let mut rows = scratch.take_row_stage();
    for br in 0..m.block_rows() {
        let nblocks = m.block_row_nnz(br) as u64;
        if nblocks == 0 {
            continue;
        }
        out.bram_reads += 1;
        out.decomp_cycles += cfg.bram_read_latency;
        out.decomp_cycles += nblocks;
        out.bram_reads += nblocks;
        // Emit all b rows of this block-row at full partition width.
        for _ in 0..b {
            rows.push(scratch.row(p));
        }
        for (first_col, vals) in m.block_row_entries(br) {
            for (lr, row) in rows.iter_mut().enumerate() {
                for lc in 0..b {
                    let c = first_col + lc;
                    if c < p {
                        row[c] = vals[lr * b + lc];
                    }
                }
            }
        }
        for (lr, row) in rows.drain(..).enumerate() {
            let gr = br * b + lr;
            if gr < p {
                out.contributions.push((gr, row));
                out.dot_issues += 1;
            } else {
                scratch.give_row(row);
            }
        }
    }
    scratch.give_row_stage(rows);
    out
}

/// [`bcsr`] in closed form: `T = nzbr·L_bram + blocks`, one issue per tile
/// row a non-empty block-row covers.
fn bcsr_closed(s: &TileStats, cfg: &HwConfig) -> Decompression {
    accounting(
        s.nz_block_rows * cfg.bram_read_latency + s.blocks,
        s.block_row_rows,
        cfg.partition_size,
        s.nz_block_rows + s.blocks,
    )
}

/// COO (Listing 6): one pipelined II=1 pass over the tuple list scattering
/// into row buffers. Row boundaries are unknown in advance, so the loop is
/// pipelined, not unrolled; each completed non-zero row issues a dot.
fn coo(m: &sparsemat::Coo<f32>, cfg: &HwConfig, scratch: &mut EncodeScratch) -> Decompression {
    let p = cfg.partition_size;
    let nnz = m.nnz() as u64;
    let mut rows = scratch.take_opt_rows(p);
    for t in m.iter() {
        let row = rows[t.row].get_or_insert_with(|| scratch.row(p));
        row[t.col] += t.val;
    }
    let mut out = Decompression {
        contributions: scratch.take_contribs(),
        decomp_cycles: cfg.bram_read_latency + nnz,
        dot_issues: 0,
        engine_width: p,
        bram_reads: nnz,
    };
    for (r, slot) in rows.iter_mut().enumerate() {
        if let Some(row) = slot.take() {
            out.contributions.push((r, row));
            out.dot_issues += 1;
        }
    }
    scratch.give_opt_rows(rows);
    out
}

/// [`coo`] in closed form: `T = L_bram + nnz`, one issue per non-zero row.
fn coo_closed(s: &TileStats, cfg: &HwConfig) -> Decompression {
    accounting(
        cfg.bram_read_latency + s.nnz,
        s.nz_rows,
        cfg.partition_size,
        s.nnz,
    )
}

/// LIL per-row emission logic on top of the BRAM read: min-compare +
/// assign.
const LIL_LOGIC_CYCLES: u64 = 2;

/// LIL (Listing 4): per emitted row, one *parallel* BRAM access across all
/// column lists (they are array-partitioned) plus the min-scan/assign
/// logic; one extra access recognizes the end of the non-zero rows. The
/// number of emissions equals the number of non-zero rows.
fn lil(m: &sparsemat::Lil<f32>, cfg: &HwConfig, scratch: &mut EncodeScratch) -> Decompression {
    let p = cfg.partition_size;
    let mut cursors = scratch.take_cursors(p);
    let mut out = Decompression {
        contributions: scratch.take_contribs(),
        decomp_cycles: 0,
        dot_issues: 0,
        engine_width: p,
        bram_reads: 0,
    };
    loop {
        // minInx over the heads of all column lists (Listing 4, lines 9-12).
        let min_row = (0..p.min(m.num_lines()))
            .filter_map(|c| m.line(c).get(cursors[c]).map(|&(r, _)| r))
            .min();
        let Some(min_row) = min_row else {
            break;
        };
        let mut row = scratch.row(p);
        for c in 0..p.min(m.num_lines()) {
            if let Some(&(r, v)) = m.line(c).get(cursors[c]) {
                if r == min_row {
                    row[c] = v;
                    cursors[c] += 1;
                }
            }
        }
        out.bram_reads += p as u64;
        out.decomp_cycles += cfg.bram_read_latency + LIL_LOGIC_CYCLES;
        out.contributions.push((min_row, row));
        out.dot_issues += 1;
    }
    // One additional access recognizes the end of the non-zero rows (§5.2).
    out.decomp_cycles += cfg.bram_read_latency;
    out.bram_reads += p as u64;
    scratch.give_cursors(cursors);
    out
}

/// [`lil`] in closed form: `T = nzr·(L_bram + 2) + L_bram`, `p` reads per
/// emission plus the end-marker access.
fn lil_closed(s: &TileStats, cfg: &HwConfig) -> Decompression {
    let p = cfg.partition_size;
    accounting(
        s.nz_rows * (cfg.bram_read_latency + LIL_LOGIC_CYCLES) + cfg.bram_read_latency,
        s.nz_rows,
        p,
        p as u64 * (s.nz_rows + 1),
    )
}

/// ELL (Listing 5): the copy loop is *fully unrolled* over the partitioned
/// slot arrays, so each row decompresses in one cycle regardless of its
/// width — §5.2: "reducing ELL_MAX_COMP_ROW_LENGTH in the ELL
/// implementation [...] only impact[s] the resource utilization of FPGA,
/// not the performance." All-zero rows cannot be skipped, and each row's
/// dot product runs on the dedicated narrow (width-6) compute path, which
/// is why ELL's compute cost is exactly `p` issues independent of the
/// sparsity pattern.
fn ell(m: &sparsemat::Ell<f32>, cfg: &HwConfig, scratch: &mut EncodeScratch) -> Decompression {
    let p = cfg.partition_size;
    let w = m.width();
    let (indices, values) = m.raw_slots();
    let mut out = Decompression {
        contributions: scratch.take_contribs(),
        decomp_cycles: 0,
        dot_issues: 0,
        engine_width: cfg.ell_hw_width,
        bram_reads: 0,
    };
    for r in 0..p {
        let mut row = scratch.row(p);
        // Slot slices of this row: one bounds check per row, not per slot.
        let base = r * w;
        for (&c, &v) in indices[base..base + w].iter().zip(&values[base..base + w]) {
            if c != PAD {
                row[c] = v;
            }
        }
        out.decomp_cycles += 1;
        out.bram_reads += 1;
        out.contributions.push((r, row));
        out.dot_issues += 1;
    }
    out
}

/// [`ell`] in closed form: one cycle, read and narrow-engine issue per row,
/// whatever the pattern.
fn ell_closed(cfg: &HwConfig) -> Decompression {
    let p = cfg.partition_size as u64;
    accounting(p, p, cfg.ell_hw_width, p)
}

/// DIA (Listing 7): for every output row, a pipelined II=1 scan over all
/// stored diagonals (`DiaInxForRow` / `IsRowOnDiagonal`); only rows that
/// receive a value issue a dot product. "Such an overhead worsens when
/// non-zero elements are scattered over multiple diagonals but do not
/// completely fill them."
fn dia(m: &sparsemat::Dia<f32>, cfg: &HwConfig, scratch: &mut EncodeScratch) -> Decompression {
    let p = cfg.partition_size;
    let ndiag = m.num_diagonals() as u64;
    // Diagonal-major scatter: each stored diagonal is one contiguous slice,
    // so one linear pass per diagonal replaces the per-(row, diagonal)
    // gather that re-derived a slot index for every pair. Every in-range
    // cell lies on exactly one stored diagonal, so writes never collide and
    // the emitted rows — including which rows carry a non-zero at all —
    // are identical to the row-major walk.
    let mut rows = scratch.take_opt_rows(p);
    for (k, &d) in m.offsets().iter().enumerate() {
        let first_row = if d < 0 { (-d) as usize } else { 0 };
        for (j, &v) in m.diagonal(k).iter().enumerate() {
            let r = first_row + j;
            let c = r as isize + d;
            if v != 0.0 && r < p && c >= 0 && c < p as isize {
                rows[r].get_or_insert_with(|| scratch.row(p))[c as usize] = v;
            }
        }
    }
    // The cycle model still charges the per-row scan over all stored
    // diagonals that Listing 7's schedule pays.
    let mut out = Decompression {
        contributions: scratch.take_contribs(),
        decomp_cycles: cfg.bram_read_latency + p as u64 * ndiag,
        dot_issues: 0,
        engine_width: p,
        bram_reads: p as u64 * ndiag,
    };
    for (r, slot) in rows.iter_mut().enumerate() {
        if let Some(row) = slot.take() {
            out.contributions.push((r, row));
            out.dot_issues += 1;
        }
    }
    scratch.give_opt_rows(rows);
    out
}

/// [`dia`] in closed form: `T = L_bram + p·ndiag`, one issue per non-zero
/// row.
fn dia_closed(s: &TileStats, cfg: &HwConfig) -> Decompression {
    let p = cfg.partition_size;
    accounting(
        cfg.bram_read_latency + p as u64 * s.diagonals,
        s.nz_rows,
        p,
        p as u64 * s.diagonals,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::{Coo, FormatKind};

    fn cfg() -> HwConfig {
        HwConfig::with_partition_size(16)
    }

    fn tile(entries: &[(usize, usize, f32)]) -> Coo<f32> {
        let mut coo = Coo::new(16, 16);
        for &(r, c, v) in entries {
            coo.push(r, c, v).unwrap();
        }
        coo
    }

    fn sample() -> Coo<f32> {
        tile(&[
            (0, 0, 1.0),
            (0, 5, 2.0),
            (3, 3, 3.0),
            (3, 4, -1.0),
            (9, 0, 4.0),
            (15, 15, 5.0),
        ])
    }

    #[test]
    fn every_format_decompresses_functionally() {
        let t = sample();
        let cfg = cfg();
        let expect = t.to_dense();
        for kind in FormatKind::CHARACTERIZED {
            let part = EncodedPartition::encode(&t, kind, &cfg).unwrap();
            let d = decompress(&part, &cfg);
            assert_eq!(d.assemble(16), expect, "{kind} corrupted the tile");
        }
    }

    #[test]
    fn dok_decompresses_like_coo() {
        let t = sample();
        let cfg = cfg();
        let c = decompress(
            &EncodedPartition::encode(&t, FormatKind::Coo, &cfg).unwrap(),
            &cfg,
        );
        let k = decompress(
            &EncodedPartition::encode(&t, FormatKind::Dok, &cfg).unwrap(),
            &cfg,
        );
        assert_eq!(c.decomp_cycles, k.decomp_cycles);
        assert_eq!(c.dot_issues, k.dot_issues);
        assert_eq!(c.assemble(16), k.assemble(16));
    }

    #[test]
    fn dense_has_sigma_one_by_construction() {
        let t = sample();
        let cfg = cfg();
        let d = decompress(
            &EncodedPartition::encode(&t, FormatKind::Dense, &cfg).unwrap(),
            &cfg,
        );
        assert_eq!(d.decomp_cycles, 0);
        assert_eq!(d.dot_issues, 16);
        assert_eq!(d.compute_cycles(&cfg), 16 * cfg.dot_latency(16));
    }

    #[test]
    fn csr_cycles_match_closed_form() {
        // T_decomp = nzr·L_bram + nnz; dots = nzr.
        let t = sample(); // nnz = 6, nzr = 4
        let cfg = cfg();
        let d = decompress(
            &EncodedPartition::encode(&t, FormatKind::Csr, &cfg).unwrap(),
            &cfg,
        );
        assert_eq!(d.decomp_cycles, 4 * cfg.bram_read_latency + 6);
        assert_eq!(d.dot_issues, 4);
    }

    #[test]
    fn csc_pays_full_rescan_per_row() {
        // T_decomp = p·nnz: the worst case the paper measures at 21–30×.
        let t = sample();
        let cfg = cfg();
        let d = decompress(
            &EncodedPartition::encode(&t, FormatKind::Csc, &cfg).unwrap(),
            &cfg,
        );
        assert_eq!(d.decomp_cycles, 16 * 6);
        assert_eq!(d.dot_issues, 4);
    }

    #[test]
    fn coo_is_one_pass_over_tuples() {
        let t = sample();
        let cfg = cfg();
        let d = decompress(
            &EncodedPartition::encode(&t, FormatKind::Coo, &cfg).unwrap(),
            &cfg,
        );
        assert_eq!(d.decomp_cycles, cfg.bram_read_latency + 6);
        assert_eq!(d.dot_issues, 4);
    }

    #[test]
    fn bcsr_issues_dots_for_whole_block_rows() {
        // Entries at rows {0,3}, {9}, {15} → block-rows 0, 2, 3 are
        // non-zero → 3 block-rows × 4 rows = 12 dot issues.
        let t = sample();
        let cfg = cfg();
        let d = decompress(
            &EncodedPartition::encode(&t, FormatKind::Bcsr, &cfg).unwrap(),
            &cfg,
        );
        assert_eq!(d.dot_issues, 12);
        // Blocks: row0 {(0,0),(0,4)} wait (0,0),(0,5),(3,3),(3,4) → block
        // cols {0, 1}; row2 {(9,0)} → 1; row3 {(15,15)} → 1. Total 4 blocks.
        assert_eq!(
            d.decomp_cycles,
            3 * cfg.bram_read_latency + 4 /* blocks */
        );
    }

    #[test]
    fn lil_cost_scales_with_nonzero_rows() {
        let t = sample(); // nzr = 4
        let cfg = cfg();
        let d = decompress(
            &EncodedPartition::encode(&t, FormatKind::Lil, &cfg).unwrap(),
            &cfg,
        );
        assert_eq!(
            d.decomp_cycles,
            4 * (cfg.bram_read_latency + 2) + cfg.bram_read_latency
        );
        assert_eq!(d.dot_issues, 4);
    }

    #[test]
    fn ell_processes_all_rows_every_pass() {
        let t = sample(); // max row nnz = 2 → width 2 → 1 pass
        let cfg = cfg();
        let d = decompress(
            &EncodedPartition::encode(&t, FormatKind::Ell, &cfg).unwrap(),
            &cfg,
        );
        assert_eq!(d.dot_issues, 16);
        assert_eq!(d.decomp_cycles, 16);
        assert_eq!(d.engine_width, cfg.ell_hw_width);
    }

    #[test]
    fn ell_compute_is_independent_of_row_width() {
        // §5.2: the unrolled copy means a 13-wide row costs the same as a
        // 2-wide one — only resources change, not performance.
        let wide: Vec<(usize, usize, f32)> = (0..13).map(|c| (2, c, 1.0)).collect();
        let t = tile(&wide);
        let cfg = cfg();
        let d = decompress(
            &EncodedPartition::encode(&t, FormatKind::Ell, &cfg).unwrap(),
            &cfg,
        );
        let narrow = decompress(
            &EncodedPartition::encode(&sample(), FormatKind::Ell, &cfg).unwrap(),
            &cfg,
        );
        assert_eq!(d.dot_issues, narrow.dot_issues);
        assert_eq!(d.decomp_cycles, narrow.decomp_cycles);
        assert_eq!(d.assemble(16), t.to_dense());
    }

    #[test]
    fn dia_scans_all_diagonals_per_row() {
        let t = sample(); // diagonals: -9, 0 (x2... offsets {0,5,0,1,-9,0}) → {-9, 0, 1, 5}
        let cfg = cfg();
        let part = EncodedPartition::encode(&t, FormatKind::Dia, &cfg).unwrap();
        let d = decompress(&part, &cfg);
        assert_eq!(d.decomp_cycles, cfg.bram_read_latency + 16 * 4);
        assert_eq!(d.dot_issues, 4);
    }

    #[test]
    fn full_tile_maximizes_csc_overhead() {
        // Fully dense 16×16 tile: CSC decompression alone costs p·p² cycles,
        // ~21× the dense baseline — the paper's headline worst case.
        let mut coo = Coo::new(16, 16);
        for r in 0..16 {
            for c in 0..16 {
                coo.push(r, c, 1.0 + (r * 16 + c) as f32).unwrap();
            }
        }
        let cfg = cfg();
        let csc = decompress(
            &EncodedPartition::encode(&coo, FormatKind::Csc, &cfg).unwrap(),
            &cfg,
        );
        let dense = decompress(
            &EncodedPartition::encode(&coo, FormatKind::Dense, &cfg).unwrap(),
            &cfg,
        );
        let ratio = csc.compute_cycles(&cfg) as f64 / dense.compute_cycles(&cfg) as f64;
        assert!(ratio > 20.0, "CSC/dense = {ratio}");
        assert_eq!(csc.assemble(16), coo.to_dense());
    }

    #[test]
    fn warm_scratch_is_bit_identical_to_fresh_allocation() {
        // Two passes so the second round runs entirely on recycled buffers.
        let t = sample();
        let cfg = cfg();
        let mut scratch = EncodeScratch::new();
        for _ in 0..2 {
            for kind in FormatKind::CHARACTERIZED {
                let part = EncodedPartition::encode_with(&t, kind, &cfg, &mut scratch).unwrap();
                let fresh = decompress(&part, &cfg);
                let pooled = decompress_with(&part, &cfg, &mut scratch);
                assert_eq!(pooled, fresh, "{kind}");
                scratch.recycle_decompression(pooled);
                scratch.recycle_encoded(part);
            }
        }
    }
}
