//! Dense vector helpers for the iterative example applications (`dot`,
//! `axpy`, `norm2`).

use crate::Scalar;

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics when the lengths differ.
pub fn dot<T: Scalar>(a: &[T], b: &[T]) -> T {
    assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// `y ← y + k·x` (axpy).
///
/// # Panics
///
/// Panics when the lengths differ.
pub fn axpy<T: Scalar>(k: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy operands must have equal length");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += k * xi;
    }
}

/// Euclidean norm of a vector, computed in `f64`.
pub fn norm2<T: Scalar>(v: &[T]) -> f64 {
    v.iter()
        .map(|&x| x.to_f64() * x.to_f64())
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0f32, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        let mut y = vec![1.0f32, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        assert!((norm2(&[3.0f32, 4.0]) - 5.0).abs() < 1e-12);
    }
}
