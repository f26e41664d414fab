//! ELLPACK (ELL) format.

use crate::{check_spmv_operand, Coo, FormatKind, Matrix, Scalar, SparseError, Triplet};

/// Sentinel column index marking a padding slot.
pub const PAD: usize = usize::MAX;

/// ELLPACK sparse matrix: every row compressed to the same width with
/// explicit padding.
///
/// §2 of the paper: "non-zero elements are extracted similarly to those of
/// the LIL format, with their column indices and their values. However, they
/// are stored [...] with the addition of explicit zero paddings to hold the
/// data for the longest row. This format is ideal for SIMD units since the
/// widths of all values and indices are the same."
///
/// The natural (lossless) width is the longest row's population; the paper's
/// hardware fixes the decompressor's compute width at six
/// ([`Ell::PAPER_HW_WIDTH`]) and notes that capping the *format* width only
/// changes FPGA resource usage, not performance, because the copy loop is
/// fully unrolled (§5.2, Listing 5).
///
/// Padding slots carry the sentinel index [`PAD`] and a zero value; they do
/// not count toward [`Matrix::nnz`] but they *are* transferred, which is why
/// ELL's bandwidth utilization degrades on ragged matrices (§6.3).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Ell<T> {
    nrows: usize,
    ncols: usize,
    width: usize,
    /// `indices[r * width + s]`: column of slot `s` of row `r`, or [`PAD`].
    indices: Vec<usize>,
    /// `values[r * width + s]`: value of slot `s` of row `r` (zero when
    /// padded).
    values: Vec<T>,
    nnz: usize,
}

impl<T: Scalar> Ell<T> {
    /// The compute width the paper's HLS decompressor is built for ("In
    /// Copernicus, we set this width to six").
    pub const PAPER_HW_WIDTH: usize = 6;

    /// Builds an ELL matrix whose width is the longest row's population
    /// (lossless for any input).
    pub fn from_coo_natural(coo: &Coo<T>) -> Self {
        let csr = crate::Csr::from(coo);
        let width = csr.max_row_nnz();
        Self::from_csr_with_width(&csr, width).expect("natural width always fits")
    }

    /// Builds an ELL matrix with an explicit width.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if any row holds more than
    /// `width` entries — such matrices need a hybrid ELL+COO split (§2
    /// mentions ELL+COO exactly for this case).
    pub fn from_coo_with_width(coo: &Coo<T>, width: usize) -> Result<Self, SparseError> {
        Self::from_csr_with_width(&crate::Csr::from(coo), width)
    }

    fn from_csr_with_width(csr: &crate::Csr<T>, width: usize) -> Result<Self, SparseError> {
        let nrows = csr.nrows();
        let overfull = (0..nrows).find(|&r| csr.row_nnz(r) > width);
        if let Some(r) = overfull {
            return Err(SparseError::InvalidStructure(format!(
                "row {r} holds {} entries, more than the ELL width {width}",
                csr.row_nnz(r)
            )));
        }
        let mut indices = vec![PAD; nrows * width];
        let mut values = vec![T::ZERO; nrows * width];
        for r in 0..nrows {
            for (s, (c, v)) in csr.row_entries(r).enumerate() {
                indices[r * width + s] = c;
                values[r * width + s] = v;
            }
        }
        Ok(Ell {
            nrows,
            ncols: csr.ncols(),
            width,
            indices,
            values,
            nnz: csr.nnz(),
        })
    }

    /// Rebuilds this matrix in place from `coo` at the natural width,
    /// reusing the slot arrays (and the caller's triplet scratch) —
    /// exactly the matrix [`Ell::from_coo_natural`] builds.
    ///
    /// Duplicate-free, zero-free inputs rebuild without allocating once
    /// capacities are warm; anything else falls back to the allocating
    /// conversion so the CSR merge's float summation order is untouched.
    pub fn assign_from_coo_natural(&mut self, coo: &Coo<T>, tmp: &mut Vec<Triplet<T>>) {
        tmp.clear();
        tmp.extend(coo.iter().copied());
        tmp.sort_unstable_by_key(|t| (t.row, t.col));
        let clean = tmp
            .windows(2)
            .all(|w| (w[0].row, w[0].col) < (w[1].row, w[1].col))
            && tmp.iter().all(|t| !t.val.is_zero());
        if !clean {
            *self = Ell::from_coo_natural(coo);
            return;
        }
        self.nrows = coo.nrows();
        self.ncols = coo.ncols();
        self.nnz = tmp.len();
        // Natural width = the longest row's population.
        let mut width = 0usize;
        let mut run = 0usize;
        let mut last_row = usize::MAX;
        for t in tmp.iter() {
            run = if t.row == last_row { run + 1 } else { 1 };
            last_row = t.row;
            width = width.max(run);
        }
        self.width = width;
        self.indices.clear();
        self.indices.resize(self.nrows * width, PAD);
        self.values.clear();
        self.values.resize(self.nrows * width, T::ZERO);
        let mut slot = 0usize;
        last_row = usize::MAX;
        for t in tmp.iter() {
            slot = if t.row == last_row { slot + 1 } else { 0 };
            last_row = t.row;
            self.indices[t.row * width + slot] = t.col;
            self.values[t.row * width + slot] = t.val;
        }
    }

    /// The fixed row width (number of slots per row, including padding).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of padding slots across the whole matrix.
    pub fn padding(&self) -> usize {
        self.nrows * self.width - self.nnz
    }

    /// Iterates over the occupied `(col, value)` slots of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows()`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        assert!(r < self.nrows, "row {r} out of bounds");
        let range = r * self.width..(r + 1) * self.width;
        self.indices[range.clone()]
            .iter()
            .zip(&self.values[range])
            .filter(|&(&c, _)| c != PAD)
            .map(|(&c, &v)| (c, v))
    }

    /// The raw slot arrays `(indices, values)`, row-major with width
    /// [`Ell::width`] — exactly what the hardware streams.
    pub fn raw_slots(&self) -> (&[usize], &[T]) {
        (&self.indices, &self.values)
    }

    /// Total slots transferred (`nrows · width`), including padding.
    pub fn stored_slots(&self) -> usize {
        self.indices.len()
    }
}

impl<T: Scalar> Matrix<T> for Ell<T> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn get(&self, row: usize, col: usize) -> T {
        assert!(
            row < self.nrows && col < self.ncols,
            "index ({row}, {col}) out of bounds for {}x{}",
            self.nrows,
            self.ncols
        );
        self.row_entries(row)
            .find(|&(c, _)| c == col)
            .map(|(_, v)| v)
            .unwrap_or(T::ZERO)
    }

    fn triplets(&self) -> Vec<Triplet<T>> {
        let mut out = Vec::with_capacity(self.nnz);
        for r in 0..self.nrows {
            for (c, v) in self.row_entries(r) {
                out.push(Triplet::new(r, c, v));
            }
        }
        out
    }

    fn spmv(&self, x: &[T]) -> Result<Vec<T>, SparseError> {
        check_spmv_operand(self, x)?;
        let mut y = vec![T::ZERO; self.nrows];
        for (r, yr) in y.iter_mut().enumerate() {
            // The SIMD-friendly schedule: all slots of the row, padding
            // included, multiply in lockstep (padding contributes zero).
            let range = r * self.width..(r + 1) * self.width;
            *yr = self.indices[range.clone()]
                .iter()
                .zip(&self.values[range])
                .map(|(&c, &v)| if c == PAD { T::ZERO } else { v * x[c] })
                .sum();
        }
        Ok(y)
    }

    fn kind(&self) -> FormatKind {
        FormatKind::Ell
    }
}

impl<T: Scalar> From<&Coo<T>> for Ell<T> {
    /// Converts at the natural (lossless) width.
    fn from(coo: &Coo<T>) -> Self {
        Ell::from_coo_natural(coo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo<f32> {
        // 1 2 3
        // 0 0 0
        // 4 0 0
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 1, 2.0).unwrap();
        coo.push(0, 2, 3.0).unwrap();
        coo.push(2, 0, 4.0).unwrap();
        coo
    }

    #[test]
    fn natural_width_is_longest_row() {
        let m = Ell::from(&sample());
        assert_eq!(m.width(), 3);
        assert_eq!(m.stored_slots(), 9);
        assert_eq!(m.padding(), 5);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn explicit_width_validates() {
        let coo = sample();
        assert!(Ell::from_coo_with_width(&coo, 3).is_ok());
        assert!(Ell::from_coo_with_width(&coo, 6).is_ok());
        assert!(matches!(
            Ell::from_coo_with_width(&coo, 2),
            Err(SparseError::InvalidStructure(_))
        ));
    }

    #[test]
    fn padding_slots_have_sentinels() {
        let m = Ell::from(&sample());
        let (idx, vals) = m.raw_slots();
        // Row 1 is empty: all three slots padded.
        assert_eq!(&idx[3..6], &[PAD, PAD, PAD]);
        assert_eq!(&vals[3..6], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn get_and_round_trip() {
        let coo = sample();
        let m = Ell::from(&coo);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert!(coo.to_dense().structurally_eq(&m));
    }

    #[test]
    fn spmv_matches_dense() {
        let coo = sample();
        let m = Ell::from(&coo);
        let x = [1.0, 10.0, 100.0];
        assert_eq!(m.spmv(&x).unwrap(), coo.to_dense().spmv(&x).unwrap());
    }

    #[test]
    fn wider_than_needed_width_still_round_trips() {
        let coo = sample();
        let m = Ell::from_coo_with_width(&coo, 5).unwrap();
        assert_eq!(m.width(), 5);
        assert!(coo.to_dense().structurally_eq(&m));
        let x = [2.0, 3.0, 4.0];
        assert_eq!(m.spmv(&x).unwrap(), coo.to_dense().spmv(&x).unwrap());
    }

    #[test]
    fn empty_matrix_has_zero_width() {
        let coo = Coo::<f32>::new(4, 4);
        let m = Ell::from(&coo);
        assert_eq!(m.width(), 0);
        assert_eq!(m.spmv(&[0.0; 4]).unwrap(), vec![0.0; 4]);
    }
}
