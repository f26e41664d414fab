//! Cost explanation: decomposes one partition's cycles into the named
//! terms of §5.2's per-format cost models, so a user can see *why* a
//! format is slow on their data ("CSC: 16 output rows × 113-tuple rescan
//! = 1808 cycles").
//!
//! Every breakdown is tested to sum exactly to the corresponding
//! [`decompress`] cycle count — the explanation can
//! never drift from the model.

use crate::{decompress, EncodedPartition, HwConfig};
use sparsemat::{AnyMatrix, Dia, Lil, Matrix};

/// One named cost term of a partition's processing.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CostTerm {
    /// Human-readable description of the term.
    pub label: String,
    /// Cycles attributed to it.
    pub cycles: u64,
}

/// A partition's full cost story: compute-side terms plus the memory
/// transfer, with the bottleneck called out.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CostBreakdown {
    /// Format the partition is encoded in.
    pub format: sparsemat::FormatKind,
    /// Decompression cost terms (sum = `T_decomp`).
    pub decomp_terms: Vec<CostTerm>,
    /// Dot-product cost term.
    pub dot_term: CostTerm,
    /// Memory transfer cost (data + metadata on the stream).
    pub memory_cycles: u64,
    /// Total compute cycles (= Σ decomp terms + dot term).
    pub compute_cycles: u64,
}

impl CostBreakdown {
    /// Which pipeline stage bounds this partition.
    pub fn bottleneck(&self) -> &'static str {
        if self.memory_cycles >= self.compute_cycles {
            "memory"
        } else {
            "compute"
        }
    }

    /// Renders the breakdown as indented text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}: compute {} cycles vs memory {} cycles -> {}-bound\n",
            self.format,
            self.compute_cycles,
            self.memory_cycles,
            self.bottleneck()
        );
        for t in &self.decomp_terms {
            out.push_str(&format!("  {:>8} cycles  {}\n", t.cycles, t.label));
        }
        out.push_str(&format!(
            "  {:>8} cycles  {}\n",
            self.dot_term.cycles, self.dot_term.label
        ));
        out
    }
}

/// Explains one encoded partition's cost in the §5.2 vocabulary.
pub fn explain(part: &EncodedPartition, cfg: &HwConfig) -> CostBreakdown {
    let d = decompress(part, cfg);
    let p = cfg.partition_size as u64;
    let l = cfg.bram_read_latency;
    let nnz = part.matrix.nnz() as u64;
    let t_dot = cfg.dot_latency(d.engine_width);

    let decomp_terms: Vec<CostTerm> = match &part.matrix {
        AnyMatrix::Dense(_) => vec![CostTerm {
            label: "rows stream straight to the engine (no decompression)".into(),
            cycles: 0,
        }],
        AnyMatrix::Csr(m) => {
            let nzr = (0..m.nrows()).filter(|&r| m.row_nnz(r) > 0).count() as u64;
            vec![
                CostTerm {
                    label: format!(
                        "{nzr} non-zero rows x {l}-cycle offsets read (Listing 1 line 7)"
                    ),
                    cycles: nzr * l,
                },
                CostTerm {
                    label: format!("{nnz} elements through the pipelined II=1 copy loop"),
                    cycles: nnz,
                },
            ]
        }
        AnyMatrix::Csc(_) => vec![CostTerm {
            label: format!(
                "{p} output rows x {nnz}-tuple rescan (orientation mismatch, Listing 3)"
            ),
            cycles: p * nnz,
        }],
        AnyMatrix::Bcsr(m) => {
            let nbr = m.nonzero_block_rows() as u64;
            let nblk = m.num_blocks() as u64;
            vec![
                CostTerm {
                    label: format!("{nbr} non-zero block-rows x {l}-cycle offsets read"),
                    cycles: nbr * l,
                },
                CostTerm {
                    label: format!("{nblk} blocks through the unrolled copy (1 cycle each)"),
                    cycles: nblk,
                },
            ]
        }
        AnyMatrix::Coo(_) | AnyMatrix::Dok(_) => vec![
            CostTerm {
                label: format!("initial tuple fetch ({l} cycles)"),
                cycles: l,
            },
            CostTerm {
                label: format!("{nnz} tuples through the pipelined II=1 scatter"),
                cycles: nnz,
            },
        ],
        AnyMatrix::Lil(m) => {
            let nzr = lil_nonzero_rows(m) as u64;
            vec![
                CostTerm {
                    label: format!(
                        "{nzr} emitted rows x (parallel column read {l} + min-scan/assign 2)"
                    ),
                    cycles: nzr * (l + 2),
                },
                CostTerm {
                    label: format!("end-of-rows marker read ({l} cycles)"),
                    cycles: l,
                },
            ]
        }
        AnyMatrix::Ell(_) => vec![CostTerm {
            label: format!("{p} rows x 1 cycle (fully unrolled, zero rows not skippable)"),
            cycles: p,
        }],
        AnyMatrix::Dia(m) => {
            let ndiag = dia_count(m) as u64;
            vec![
                CostTerm {
                    label: format!("initial diagonal fetch ({l} cycles)"),
                    cycles: l,
                },
                CostTerm {
                    label: format!("{p} rows x {ndiag}-diagonal II=1 scan (Listing 7)"),
                    cycles: p * ndiag,
                },
            ]
        }
    };
    CostBreakdown {
        format: part.kind(),
        dot_term: CostTerm {
            label: format!(
                "{} dot products x {} cycles on the width-{} engine",
                d.dot_issues, t_dot, d.engine_width
            ),
            cycles: d.dot_issues * t_dot,
        },
        memory_cycles: part.memory_cycles(cfg),
        compute_cycles: d.compute_cycles(cfg),
        decomp_terms,
    }
}

fn lil_nonzero_rows(m: &Lil<f32>) -> usize {
    m.distinct_cross_indices()
}

fn dia_count(m: &Dia<f32>) -> usize {
    m.num_diagonals()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::{Coo, FormatKind};

    fn tile() -> Coo<f32> {
        let mut coo = Coo::new(16, 16);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 5, 2.0).unwrap();
        coo.push(3, 3, 3.0).unwrap();
        coo.push(9, 1, 4.0).unwrap();
        coo.push(15, 15, 5.0).unwrap();
        coo
    }

    #[test]
    fn terms_sum_exactly_to_the_model_for_every_format() {
        let cfg = HwConfig::with_partition_size(16);
        let t = tile();
        for kind in FormatKind::CHARACTERIZED {
            let part = EncodedPartition::encode(&t, kind, &cfg).unwrap();
            let d = decompress(&part, &cfg);
            let b = explain(&part, &cfg);
            let term_sum: u64 = b.decomp_terms.iter().map(|t| t.cycles).sum();
            assert_eq!(term_sum, d.decomp_cycles, "{kind} decomp terms drifted");
            assert_eq!(
                term_sum + b.dot_term.cycles,
                b.compute_cycles,
                "{kind} total drifted"
            );
            assert_eq!(b.compute_cycles, d.compute_cycles(&cfg), "{kind}");
        }
    }

    #[test]
    fn bottleneck_matches_the_cycle_comparison() {
        let cfg = HwConfig::with_partition_size(16);
        let t = tile();
        let csc = explain(
            &EncodedPartition::encode(&t, FormatKind::Csc, &cfg).unwrap(),
            &cfg,
        );
        assert_eq!(csc.bottleneck(), "compute");
        let dense = explain(
            &EncodedPartition::encode(&t, FormatKind::Dense, &cfg).unwrap(),
            &cfg,
        );
        assert_eq!(dense.bottleneck(), "memory");
    }

    #[test]
    fn render_names_the_listing_level_terms() {
        let cfg = HwConfig::with_partition_size(16);
        let t = tile();
        let s = explain(
            &EncodedPartition::encode(&t, FormatKind::Csr, &cfg).unwrap(),
            &cfg,
        )
        .render();
        assert!(s.contains("offsets read"), "{s}");
        assert!(s.contains("dot products"), "{s}");
        assert!(s.contains("-bound"), "{s}");
    }

    #[test]
    fn dok_is_explained_like_coo() {
        let cfg = HwConfig::with_partition_size(16);
        let t = tile();
        let coo = explain(
            &EncodedPartition::encode(&t, FormatKind::Coo, &cfg).unwrap(),
            &cfg,
        );
        let dok = explain(
            &EncodedPartition::encode(&t, FormatKind::Dok, &cfg).unwrap(),
            &cfg,
        );
        assert_eq!(coo.compute_cycles, dok.compute_cycles);
        assert_eq!(coo.decomp_terms.len(), dok.decomp_terms.len());
    }
}
