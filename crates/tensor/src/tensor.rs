//! The dense, row-major `f32` matrix type and its plain (non-autodiff)
//! numerical operations.

use crate::shape::Shape;
use rand::distributions::Distribution;
use rand::Rng;
use std::fmt;

/// A dense, owned, row-major `f32` matrix.
///
/// `Tensor` is the value type of this crate. It supports plain numerical
/// operations directly; differentiable computation is recorded through
/// [`crate::Graph`], whose nodes store `Tensor` values.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self {
            shape: Shape::new(rows, cols),
            data,
        }
    }

    /// Creates a tensor from row slices. All rows must have equal length.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "cannot build a tensor from zero rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "row {i} has inconsistent length");
            data.extend_from_slice(row);
        }
        Self::from_vec(rows.len(), cols, data)
    }

    /// Creates a `1×1` scalar tensor.
    pub fn scalar(v: f32) -> Self {
        Self::from_vec(1, 1, vec![v])
    }

    /// Creates a `1×c` row vector.
    pub fn row(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates an `r×1` column vector.
    pub fn col(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Creates an all-zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_vec(rows, cols, vec![0.0; rows * cols])
    }

    /// Creates an all-one tensor.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::from_vec(rows, cols, vec![1.0; rows * cols])
    }

    /// Creates a tensor filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Self::from_vec(rows, cols, vec![v; rows * cols])
    }

    /// Creates the `n×n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Samples a tensor with entries drawn i.i.d. from `U[lo, hi)`.
    pub fn uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        lo: f32,
        hi: f32,
        rng: &mut R,
    ) -> Self {
        let dist = rand::distributions::Uniform::new(lo, hi);
        let data = (0..rows * cols).map(|_| dist.sample(rng)).collect();
        Self::from_vec(rows, cols, data)
    }

    /// Samples a tensor with entries drawn i.i.d. from `N(0, std^2)`
    /// using a Box–Muller transform (avoids a dependency on `rand_distr`).
    pub fn randn<R: Rng + ?Sized>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Self {
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Self::from_vec(rows, cols, data)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.shape.rows, self.shape.cols)
    }

    /// The [`Shape`] value.
    pub fn shape2(&self) -> Shape {
        self.shape
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.shape.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.shape.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major data buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major data buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[self.shape.index(r, c)]
    }

    /// Sets element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        let idx = self.shape.index(r, c);
        self.data[idx] = v;
    }

    /// A view of row `r`.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        let c = self.shape.cols;
        &self.data[r * c..(r + 1) * c]
    }

    /// A mutable view of row `r`.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        let c = self.shape.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// The single value of a `1×1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not scalar-shaped.
    pub fn item(&self) -> f32 {
        assert!(
            self.shape.is_scalar(),
            "item() called on non-scalar tensor {}",
            self.shape
        );
        self.data[0]
    }

    // ------------------------------------------------------------------
    // Elementwise / broadcast arithmetic (allocating)
    // ------------------------------------------------------------------

    /// Broadcasting elementwise binary operation.
    pub fn zip_broadcast(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let out_shape = self
            .shape
            .broadcast(other.shape)
            .unwrap_or_else(|| panic!("incompatible shapes {} and {}", self.shape, other.shape));
        let mut out = Tensor::zeros(out_shape.rows, out_shape.cols);
        for r in 0..out_shape.rows {
            let ra = if self.shape.rows == 1 { 0 } else { r };
            let rb = if other.shape.rows == 1 { 0 } else { r };
            for c in 0..out_shape.cols {
                let ca = if self.shape.cols == 1 { 0 } else { c };
                let cb = if other.shape.cols == 1 { 0 } else { c };
                out.data[out_shape.index(r, c)] = f(self.get(ra, ca), other.get(rb, cb));
            }
        }
        out
    }

    /// Elementwise (broadcasting) addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        if self.shape == other.shape {
            let data = self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect();
            return Tensor::from_vec(self.rows(), self.cols(), data);
        }
        self.zip_broadcast(other, |a, b| a + b)
    }

    /// Elementwise (broadcasting) subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        if self.shape == other.shape {
            let data = self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect();
            return Tensor::from_vec(self.rows(), self.cols(), data);
        }
        self.zip_broadcast(other, |a, b| a - b)
    }

    /// Elementwise (broadcasting) multiplication.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        if self.shape == other.shape {
            let data = self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect();
            return Tensor::from_vec(self.rows(), self.cols(), data);
        }
        self.zip_broadcast(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        let data = self.data.iter().map(|a| a * s).collect();
        Tensor::from_vec(self.rows(), self.cols(), data)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let data = self.data.iter().map(|a| a + s).collect();
        Tensor::from_vec(self.rows(), self.cols(), data)
    }

    /// Applies `f` elementwise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Tensor::from_vec(self.rows(), self.cols(), data)
    }

    // ------------------------------------------------------------------
    // In-place operations (used on hot paths: optimizers, mailboxes)
    // ------------------------------------------------------------------

    /// In-place `self += other` (shapes must match exactly).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (shapes must match exactly).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place `self *= s`.
    pub fn scale_assign(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `self · other`.
    ///
    /// Runs on the blocked, row-parallel kernel in [`crate::backend`];
    /// results are bit-identical for every thread count (each output
    /// element is one ascending-`k` multiply-add chain, and threads only
    /// split output rows).
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.shape();
        let (k2, n) = other.shape();
        assert_eq!(
            k, k2,
            "matmul inner dimension mismatch: {} vs {}",
            self.shape, other.shape
        );
        let mut out = Tensor::zeros(m, n);
        crate::backend::gemm(&self.data, &other.data, None, m, k, n, &mut out.data);
        out
    }

    /// Fused `self · other + bias`, with `bias` a `1×n` row broadcast
    /// over output rows. Bit-identical to `matmul` followed by a
    /// broadcast add (the bias joins each element after its full
    /// contraction), one memory pass cheaper.
    ///
    /// # Panics
    /// Panics on inner-dimension or bias-shape mismatch.
    pub fn matmul_bias(&self, other: &Tensor, bias: &Tensor) -> Tensor {
        let (m, k) = self.shape();
        let (k2, n) = other.shape();
        assert_eq!(
            k, k2,
            "matmul_bias inner dimension mismatch: {} vs {}",
            self.shape, other.shape
        );
        assert_eq!(bias.shape(), (1, n), "matmul_bias expects a 1x{n} bias");
        let mut out = Tensor::zeros(m, n);
        crate::backend::gemm(
            &self.data,
            &other.data,
            Some(&bias.data),
            m,
            k,
            n,
            &mut out.data,
        );
        out
    }

    /// `self · otherᵀ` without materialising the transpose: `other` is
    /// `[n×k]` and both operands stream row-major over `k`. Bit-identical
    /// to `self.matmul(&other.transpose())`.
    ///
    /// # Panics
    /// Panics if the contraction widths disagree.
    pub fn matmul_bt(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.shape();
        let (n, k2) = other.shape();
        assert_eq!(
            k, k2,
            "matmul_bt contraction mismatch: {} vs {}",
            self.shape, other.shape
        );
        let mut out = Tensor::zeros(m, n);
        crate::backend::gemm_bt(&self.data, &other.data, m, k, n, &mut out.data);
        out
    }

    /// `selfᵀ · other` without materialising the transpose: `self` is
    /// `[m×k]`, `other` `[m×n]`, output `[k×n]`. Bit-identical to
    /// `self.transpose().matmul(other)`.
    ///
    /// # Panics
    /// Panics if the row counts disagree.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.shape();
        let (m2, n) = other.shape();
        assert_eq!(
            m, m2,
            "matmul_tn row mismatch: {} vs {}",
            self.shape, other.shape
        );
        let mut out = Tensor::zeros(k, n);
        crate::backend::gemm_tn(&self.data, &other.data, m, k, n, &mut out.data);
        out
    }

    /// Matrix product for a **sparse** left operand: skips `self`'s exact
    /// zeros, pruning the contraction to the nonzero pattern. Values are
    /// bit-identical to [`Tensor::matmul`] for finite inputs; use this
    /// only where zeros are structural (normalised adjacency, masked
    /// attention weights) — on dense data the branch just costs.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul_masked(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.shape();
        let (k2, n) = other.shape();
        assert_eq!(
            k, k2,
            "matmul_masked inner dimension mismatch: {} vs {}",
            self.shape, other.shape
        );
        let mut out = Tensor::zeros(m, n);
        crate::backend::gemm_masked(&self.data, &other.data, m, k, n, &mut out.data);
        out
    }

    /// `selfᵀ · other` skipping `self`'s exact zeros — the backward
    /// companion of [`Tensor::matmul_masked`] (`dB = Aᵀ·G` touches only
    /// the rows of `G` selected by `A`'s nonzeros).
    ///
    /// # Panics
    /// Panics if the row counts disagree.
    pub fn matmul_tn_masked(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.shape();
        let (m2, n) = other.shape();
        assert_eq!(
            m, m2,
            "matmul_tn_masked row mismatch: {} vs {}",
            self.shape, other.shape
        );
        let mut out = Tensor::zeros(k, n);
        crate::backend::gemm_tn_masked(&self.data, &other.data, m, k, n, &mut out.data);
        out
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Tensor {
        let (r, c) = self.shape();
        let mut out = Tensor::zeros(c, r);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Frobenius (flat L2) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    // ------------------------------------------------------------------
    // Reductions / structure
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column sums as a `1×c` row vector.
    pub fn sum_rows(&self) -> Tensor {
        let (r, c) = self.shape();
        let mut out = Tensor::zeros(1, c);
        for i in 0..r {
            for j in 0..c {
                out.data[j] += self.data[i * c + j];
            }
        }
        out
    }

    /// Stacks tensors vertically (all must have equal column counts).
    pub fn vcat(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "vcat of zero tensors");
        let c = parts[0].cols();
        let rows: usize = parts.iter().map(|t| t.rows()).sum();
        let mut data = Vec::with_capacity(rows * c);
        for t in parts {
            assert_eq!(t.cols(), c, "vcat column mismatch");
            data.extend_from_slice(&t.data);
        }
        Tensor::from_vec(rows, c, data)
    }

    /// Concatenates tensors horizontally (all must have equal row counts).
    pub fn hcat(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "hcat of zero tensors");
        let r = parts[0].rows();
        let cols: usize = parts.iter().map(|t| t.cols()).sum();
        let mut out = Tensor::zeros(r, cols);
        for i in 0..r {
            let mut off = 0;
            for t in parts {
                assert_eq!(t.rows(), r, "hcat row mismatch");
                let c = t.cols();
                out.data[i * cols + off..i * cols + off + c].copy_from_slice(t.row_slice(i));
                off += c;
            }
        }
        out
    }

    /// Gathers rows by index into a new tensor: `out[i] = self[idx[i]]`.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let c = self.cols();
        let mut data = Vec::with_capacity(idx.len() * c);
        for &i in idx {
            data.extend_from_slice(self.row_slice(i));
        }
        Tensor::from_vec(idx.len(), c, data)
    }

    /// Extracts a contiguous column range `[start, start+len)`.
    pub fn slice_cols(&self, start: usize, len: usize) -> Tensor {
        let (r, c) = self.shape();
        assert!(start + len <= c, "slice_cols out of range");
        let mut data = Vec::with_capacity(r * len);
        for i in 0..r {
            data.extend_from_slice(&self.data[i * c + start..i * c + start + len]);
        }
        Tensor::from_vec(r, len, data)
    }

    /// Extracts a contiguous row range `[start, start+len)`.
    pub fn slice_rows(&self, start: usize, len: usize) -> Tensor {
        let (r, c) = self.shape();
        assert!(start + len <= r, "slice_rows out of range");
        Tensor::from_vec(len, c, self.data[start * c..(start + len) * c].to_vec())
    }

    /// Reinterprets the buffer with a new shape of identical length.
    pub fn reshape(&self, rows: usize, cols: usize) -> Tensor {
        assert_eq!(self.len(), rows * cols, "reshape length mismatch");
        Tensor::from_vec(rows, cols, self.data.clone())
    }

    /// Reduces a gradient of `from` shape down to `to` shape by summing over
    /// dimensions that were broadcast (size 1 in `to`). This is the adjoint
    /// of broadcasting.
    pub fn reduce_to_shape(&self, to: Shape) -> Tensor {
        if self.shape == to {
            return self.clone();
        }
        let mut out = Tensor::zeros(to.rows, to.cols);
        for r in 0..self.rows() {
            let tr = if to.rows == 1 { 0 } else { r };
            for c in 0..self.cols() {
                let tc = if to.cols == 1 { 0 } else { c };
                out.data[to.index(tr, tc)] += self.get(r, c);
            }
        }
        out
    }

    /// Row-wise numerically stable softmax.
    pub fn softmax_rows(&self) -> Tensor {
        let (r, c) = self.shape();
        let mut out = Tensor::zeros(r, c);
        for i in 0..r {
            crate::backend::softmax_row(self.row_slice(i), out.row_slice_mut(i));
        }
        out
    }

    /// True when every corresponding pair differs by at most `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {} [", self.shape)?;
        let max_rows = 8.min(self.rows());
        for i in 0..max_rows {
            let row = self.row_slice(i);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ell = if self.cols() > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ell)?;
        }
        if self.rows() > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_and_accessors() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.get(1, 0), 3.0);
        assert_eq!(t.row_slice(0), &[1.0, 2.0]);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
        assert_eq!(Tensor::eye(3).get(2, 2), 1.0);
        assert_eq!(Tensor::eye(3).get(0, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_checks_length() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn(4, 4, 1.0, &mut rng);
        assert!(a.matmul(&Tensor::eye(4)).allclose(&a, 1e-6));
        assert!(Tensor::eye(4).matmul(&a).allclose(&a, 1e-6));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Tensor::from_rows(&[&[1.0], &[10.0], &[100.0]]);
        assert_eq!(a.matmul(&b).item(), 201.0);
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::randn(3, 5, 1.0, &mut rng);
        assert!(a.transpose().transpose().allclose(&a, 0.0));
        assert_eq!(a.transpose().shape(), (5, 3));
        assert_eq!(a.transpose().get(4, 2), a.get(2, 4));
    }

    #[test]
    fn broadcast_add_row() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let bias = Tensor::row(&[10.0, 20.0]);
        let c = a.add(&bias);
        assert_eq!(c.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn broadcast_mul_col() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let s = Tensor::col(&[2.0, 3.0]);
        let c = a.mul(&s);
        assert_eq!(c.data(), &[2.0, 4.0, 9.0, 12.0]);
    }

    #[test]
    fn broadcast_outer() {
        let col = Tensor::col(&[1.0, 2.0]);
        let row = Tensor::row(&[3.0, 4.0, 5.0]);
        let outer = col.mul(&row);
        assert_eq!(outer.shape(), (2, 3));
        assert_eq!(outer.data(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn reduce_to_shape_sums_broadcast_dims() {
        let g = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let to_row = g.reduce_to_shape(Shape::new(1, 2));
        assert_eq!(to_row.data(), &[4.0, 6.0]);
        let to_col = g.reduce_to_shape(Shape::new(2, 1));
        assert_eq!(to_col.data(), &[3.0, 7.0]);
        let to_scalar = g.reduce_to_shape(Shape::new(1, 1));
        assert_eq!(to_scalar.item(), 10.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = t.softmax_rows();
        for i in 0..2 {
            let sum: f32 = s.row_slice(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // stable under large inputs
        assert!((s.get(1, 0) - (1.0 / 3.0)).abs() < 1e-6);
    }

    #[test]
    fn hcat_vcat() {
        let a = Tensor::from_rows(&[&[1.0], &[2.0]]);
        let b = Tensor::from_rows(&[&[3.0], &[4.0]]);
        let h = Tensor::hcat(&[&a, &b]);
        assert_eq!(h.shape(), (2, 2));
        assert_eq!(h.data(), &[1.0, 3.0, 2.0, 4.0]);
        let v = Tensor::vcat(&[&a, &b]);
        assert_eq!(v.shape(), (4, 1));
        assert_eq!(v.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn gather_and_slices() {
        let t = Tensor::from_rows(&[&[0.0, 1.0], &[2.0, 3.0], &[4.0, 5.0]]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
        assert_eq!(t.slice_cols(1, 1).data(), &[1.0, 3.0, 5.0]);
        assert_eq!(t.slice_rows(1, 2).data(), &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.sum_rows().data(), &[4.0, 6.0]);
    }

    #[test]
    fn randn_statistics() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::randn(100, 100, 2.0, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn in_place_ops() {
        let mut a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[10.0, 20.0]]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[11.0, 22.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[16.0, 32.0]);
        a.scale_assign(2.0);
        assert_eq!(a.data(), &[32.0, 64.0]);
    }
}
