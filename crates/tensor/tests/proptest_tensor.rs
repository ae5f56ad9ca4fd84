//! Property-based tests for the tensor substrate: algebraic laws,
//! broadcasting, and randomized gradient checks.

use apan_check::{check, Gen};
use apan_tensor::{grad_check::check_gradients, Shape, Tensor};

fn values(g: &mut Gen, n: usize, bound: f32) -> Vec<f32> {
    (0..n).map(|_| g.range(-bound..bound)).collect()
}

/// A `rows × c` tensor, `c` in `1..=max_cols`.
fn tensor_with_rows(g: &mut Gen, rows: usize, max_cols: usize) -> Tensor {
    let cols = g.range(1..=max_cols);
    Tensor::from_vec(rows, cols, values(g, rows * cols, 3.0))
}

fn tensor(g: &mut Gen, max_dim: usize) -> Tensor {
    let rows = g.range(1..=max_dim);
    tensor_with_rows(g, rows, max_dim)
}

/// Two tensors sharing one random shape.
fn tensor_pair(g: &mut Gen, max_dim: usize) -> (Tensor, Tensor) {
    let (r, c) = (g.range(1..=max_dim), g.range(1..=max_dim));
    (
        Tensor::from_vec(r, c, values(g, r * c, 3.0)),
        Tensor::from_vec(r, c, values(g, r * c, 3.0)),
    )
}

/// `(a, b, c)` with `a: m×k`, `b, c: k×n` so `a·(b+c)` is defined.
fn matmul_triple(g: &mut Gen) -> (Tensor, Tensor, Tensor) {
    let (m, k, n) = (
        g.range(1usize..=5),
        g.range(1usize..=5),
        g.range(1usize..=5),
    );
    (
        Tensor::from_vec(m, k, values(g, m * k, 2.0)),
        Tensor::from_vec(k, n, values(g, k * n, 2.0)),
        Tensor::from_vec(k, n, values(g, k * n, 2.0)),
    )
}

#[test]
fn add_commutes() {
    check(64, |g| {
        let (a, b) = tensor_pair(g, 6);
        assert!(a.add(&b).allclose(&b.add(&a), 1e-6));
    });
}

#[test]
fn transpose_is_involution() {
    check(64, |g| {
        let a = tensor(g, 8);
        assert!(a.transpose().transpose().allclose(&a, 0.0));
    });
}

#[test]
fn matmul_identity_is_neutral() {
    check(64, |g| {
        let a = tensor(g, 8);
        let i = Tensor::eye(a.cols());
        assert!(a.matmul(&i).allclose(&a, 1e-5));
    });
}

#[test]
fn matmul_distributes_over_add() {
    check(64, |g| {
        let (a, b, c) = matmul_triple(g);
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        assert!(left.allclose(&right, 1e-3));
    });
}

#[test]
fn softmax_rows_are_distributions() {
    check(64, |g| {
        let s = tensor(g, 8).softmax_rows();
        for i in 0..s.rows() {
            let sum: f32 = s.row_slice(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row_slice(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    });
}

#[test]
fn softmax_invariant_to_row_shift() {
    check(64, |g| {
        let shift = g.range(-5.0f32..5.0);
        let a = tensor(g, 6);
        let shifted = a.add_scalar(shift);
        assert!(a.softmax_rows().allclose(&shifted.softmax_rows(), 1e-5));
    });
}

#[test]
fn reduce_to_shape_preserves_total() {
    check(64, |g| {
        let a = tensor(g, 6);
        let reduced = a.reduce_to_shape(Shape::new(1, 1));
        assert!((reduced.item() - a.sum()).abs() < 1e-4 * (1.0 + a.sum().abs()));
    });
}

#[test]
fn broadcast_add_matches_manual() {
    check(64, |g| {
        // bias broadcast: a + row == per-row addition
        let a = tensor(g, 5);
        let bias = Tensor::row(&vec![0.5; a.cols()]);
        let out = a.add(&bias);
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert!((out.get(i, j) - (a.get(i, j) + 0.5)).abs() < 1e-6);
            }
        }
    });
}

#[test]
fn hcat_then_slice_recovers() {
    check(64, |g| {
        let a = tensor(g, 5);
        let b = tensor_with_rows(g, a.rows(), 5);
        let cat = Tensor::hcat(&[&a, &b]);
        assert!(cat.slice_cols(0, a.cols()).allclose(&a, 0.0));
        assert!(cat.slice_cols(a.cols(), b.cols()).allclose(&b, 0.0));
    });
}

#[test]
fn gather_rows_matches_index() {
    check(64, |g| {
        let seed = g.range(0usize..100);
        let a = tensor(g, 6);
        let idx: Vec<usize> = (0..3).map(|k| (seed + k) % a.rows()).collect();
        let gathered = a.gather_rows(&idx);
        for (pos, &i) in idx.iter().enumerate() {
            assert_eq!(gathered.row_slice(pos), a.row_slice(i));
        }
    });
}

#[test]
fn random_network_gradients_check() {
    check(64, |g| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(g.range(0u64..30));
        let a = Tensor::randn(2, 3, 0.5, &mut rng);
        let w = Tensor::randn(3, 2, 0.5, &mut rng);
        check_gradients(&[a, w], |g, vars| {
            let h = g.matmul(vars[0], vars[1]);
            let t = g.tanh(h);
            let s = g.softmax_rows(t);
            g.mean_all(s)
        })
        .expect("analytic gradients match finite differences");
    });
}
