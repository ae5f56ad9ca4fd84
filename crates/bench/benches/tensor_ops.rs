//! GEMM kernel guard: the backend's gain over the seed kernel and the
//! SIMD-vs-scalar ratio at the encoder's serving shapes, all in one `BENCH_tensor.json` (to `APAN_OUT`, default
//! `bench-results/`) whose row structure `scripts/bench_smoke.sh` holds
//! to the committed baseline.
//!
//! Two comparison axes:
//!
//! * **seed vs backend** — `seed_matmul` below is a frozen copy of the
//!   pre-backend naive `i-k-j` kernel (zero-skip included), so the
//!   blocked kernel's gain stays measurable forever;
//! * **serial vs parallel** — the same kernels at `APAN_THREADS = 1`
//!   versus all available cores. Results are bit-identical either way;
//!   only the wall clock moves.

use apan_bench::{json_fields, time_ns, write_json, BenchEnv, Json, ToJson};
use apan_tensor::backend::pool::set_num_threads;
use apan_tensor::backend::{self, SimdMode};
use apan_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The seed repo's matmul kernel, frozen as the comparison baseline:
/// single-threaded `i-k-j` with the per-element zero-skip branch.
fn seed_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let (_, n) = b.shape();
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        let a_row = &a.data()[i * k..(i + 1) * k];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b.data()[kk * n..(kk + 1) * n];
            for (o, &bv) in out.data_mut()[i * n..(i + 1) * n].iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    out
}

fn all_cores() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

struct KernelTiming {
    kernel: String,
    shape: String,
    threads: usize,
    ns_per_iter: f64,
    speedup_vs_seed: f64,
    /// Ratio of this shape's single-thread *scalar-mode* backend GEMM
    /// time to this row's time (1.0 for the scalar row itself).
    speedup_vs_scalar: f64,
    /// Whether this row ran the AVX2+FMA kernels.
    simd_active: bool,
}

impl ToJson for KernelTiming {
    fn to_json(&self) -> Json {
        json_fields!(self; kernel, shape, threads, ns_per_iter, speedup_vs_seed,
            speedup_vs_scalar, simd_active)
    }
}

struct TensorReport {
    bench: &'static str,
    timings: Vec<KernelTiming>,
}

impl ToJson for TensorReport {
    fn to_json(&self) -> Json {
        json_fields!(self; bench, timings)
    }
}

fn write_report() {
    let simd_on = backend::active_simd() != SimdMode::Scalar;
    // The widest vector tier this CPU supports (what serving runs).
    let vector_mode = SimdMode::Avx512.sanitize();
    let mut rng = StdRng::seed_from_u64(7);
    let mut timings = Vec::new();
    for (shape, m, k, n, iters) in [
        ("256x256x256", 256usize, 256usize, 256usize, 10usize),
        ("200x100x100", 200, 100, 100, 40),
    ] {
        let a = Tensor::randn(m, k, 1.0, &mut rng);
        let b = Tensor::randn(k, n, 1.0, &mut rng);
        let seed_ns = time_ns(iters, || {
            black_box(seed_matmul(&a, &b));
        });
        let mut out = vec![0.0f32; m * n];
        set_num_threads(1);
        let scalar_ns = time_ns(iters, || {
            backend::gemm_with(
                SimdMode::Scalar,
                a.data(),
                b.data(),
                None,
                m,
                k,
                n,
                &mut out,
            );
            black_box(&out);
        });
        timings.push(KernelTiming {
            kernel: "seed_matmul".into(),
            shape: shape.into(),
            threads: 1,
            ns_per_iter: seed_ns,
            speedup_vs_seed: 1.0,
            speedup_vs_scalar: scalar_ns / seed_ns,
            simd_active: false,
        });
        for threads in [1usize, all_cores()] {
            set_num_threads(threads);
            let ns = time_ns(iters, || {
                black_box(a.matmul(&b));
            });
            timings.push(KernelTiming {
                kernel: "backend_gemm".into(),
                shape: shape.into(),
                threads,
                ns_per_iter: ns,
                speedup_vs_seed: seed_ns / ns,
                speedup_vs_scalar: scalar_ns / ns,
                simd_active: simd_on,
            });
        }
        set_num_threads(1);
    }

    // SIMD-vs-scalar on the encoder's serving shapes, single-thread so
    // the rows isolate the kernel, not the pool.
    for (shape, m, k, n, iters) in [
        ("proj_200x100x100", 200usize, 100usize, 100usize, 40usize),
        ("mlp_200x100x200", 200, 100, 200, 20),
        ("mails_2000x100x100", 2000, 100, 100, 8),
    ] {
        let a = Tensor::randn(m, k, 1.0, &mut rng);
        let b = Tensor::randn(k, n, 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        set_num_threads(1);
        let scalar_ns = time_ns(iters, || {
            backend::gemm_with(
                SimdMode::Scalar,
                a.data(),
                b.data(),
                None,
                m,
                k,
                n,
                &mut out,
            );
            black_box(&out);
        });
        timings.push(KernelTiming {
            kernel: "gemm_scalar".into(),
            shape: shape.into(),
            threads: 1,
            ns_per_iter: scalar_ns,
            speedup_vs_seed: 0.0,
            speedup_vs_scalar: 1.0,
            simd_active: false,
        });
        if backend::simd_supported() {
            let simd_ns = time_ns(iters, || {
                backend::gemm_with(vector_mode, a.data(), b.data(), None, m, k, n, &mut out);
                black_box(&out);
            });
            timings.push(KernelTiming {
                kernel: "gemm_simd".into(),
                shape: shape.into(),
                threads: 1,
                ns_per_iter: simd_ns,
                speedup_vs_seed: 0.0,
                speedup_vs_scalar: scalar_ns / simd_ns,
                simd_active: true,
            });
        }
    }
    let report = TensorReport {
        bench: "tensor_ops",
        timings,
    };
    let path = BenchEnv::from_env().out_dir.join("BENCH_tensor.json");
    if let Err(e) = write_json(&path, &report) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

fn main() {
    write_report();
}
