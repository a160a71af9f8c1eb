//! Explicit-width compute kernels for the hot predict/train loops.
//!
//! Every kernel here is written against a **frozen arithmetic
//! specification**: the exact per-element operations and, for reductions,
//! the exact combine tree are part of the public contract, because the
//! golden-trace manifests, sweep journals, and 1-vs-8-thread proptests all
//! pin run results bit-for-bit. An implementation may restructure *memory
//! access* freely (wider loads, unrolling, preallocated outputs) but must
//! not change *float semantics*.
//!
//! [`dot`] keeps the seed kernel's four interleaved accumulators,
//! combined as `(a0+a1) + (a2+a3) + tail`, while processing [`LANES`]
//! elements per loop iteration. The reduction tree is unchanged (only the
//! memory width grew), so every golden manifest still verifies.
//! [`dot_ref`] is its readable scalar specification; the two are
//! proptested bit-for-bit on every tail length.
//!
//! A kernel stays here only while it beats its bit-identical reference at
//! the sizes its callers use; `bench_kernels` measures each one against
//! that reference.

// audit: allow-file(index-literal, reason = "fixed-width kernels index [f64; 4]/[f64; 8] accumulators and chunks_exact blocks whose lengths are compile-time constants, so literal indices 0..=7 are always in bounds")

/// The memory width of the kernels: elements processed per loop iteration
/// (8 × f64 = one 512-bit vector register).
pub const LANES: usize = 8;

/// Pipeline dot product — frozen reduction tree, [`LANES`]-wide memory
/// access.
///
/// Semantics (unchanged from the seed kernel): accumulator `j` of four
/// sums the elements with index ≡ `j` (mod 4) in ascending order; the
/// final value is `(a0 + a1) + (a2 + a3) + tail` where `tail` is the
/// sequential sum of the `len % 4` trailing products. The implementation
/// consumes two 4-element groups per iteration so the loads use full
/// vector width, but the update order of each accumulator — and therefore
/// every intermediate rounding — is identical to [`dot_ref`].
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let split8 = a.len() - a.len() % LANES;
    let (a8, a_rest) = a.split_at(split8);
    let (b8, b_rest) = b.split_at(split8);
    for (xs, ys) in a8.chunks_exact(LANES).zip(b8.chunks_exact(LANES)) {
        acc[0] += xs[0] * ys[0];
        acc[1] += xs[1] * ys[1];
        acc[2] += xs[2] * ys[2];
        acc[3] += xs[3] * ys[3];
        acc[0] += xs[4] * ys[4];
        acc[1] += xs[5] * ys[5];
        acc[2] += xs[6] * ys[6];
        acc[3] += xs[7] * ys[7];
    }
    // At most one full 4-element group can remain before the scalar tail.
    let split4 = a_rest.len() - a_rest.len() % 4;
    let (a4, a_tail) = a_rest.split_at(split4);
    let (b4, b_tail) = b_rest.split_at(split4);
    if let (Some(xs), Some(ys)) = (a4.chunks_exact(4).next(), b4.chunks_exact(4).next()) {
        acc[0] += xs[0] * ys[0];
        acc[1] += xs[1] * ys[1];
        acc[2] += xs[2] * ys[2];
        acc[3] += xs[3] * ys[3];
    }
    let mut tail = 0.0;
    for (x, y) in a_tail.iter().zip(b_tail) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Scalar specification of [`dot`]: the same four-accumulator reduction
/// tree written as the simplest possible loop. Used as the bit-for-bit
/// oracle in the kernel-equivalence proptests and as the scalar baseline
/// in `bench_kernels`.
#[must_use]
pub fn dot_ref(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let quads = a.len() - a.len() % 4;
    for i in 0..quads {
        acc[i % 4] += a[i] * b[i];
    }
    let mut tail = 0.0;
    for i in quads..a.len() {
        tail += a[i] * b[i];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Batched matrix–vector product into a caller-provided buffer:
/// `out[i] = dot(row_i, w)` over row-major `data` with `cols` columns.
///
/// Each output element is one frozen-tree [`dot`], so the result is
/// bit-identical to mapping [`dot_ref`] over the rows. A zero-column
/// matrix still writes one `0.0` per row.
pub fn matvec_into(data: &[f64], cols: usize, w: &[f64], out: &mut [f64]) {
    debug_assert_eq!(w.len(), cols);
    if cols == 0 {
        out.fill(0.0);
        return;
    }
    debug_assert_eq!(data.len(), out.len() * cols);
    for (o, row) in out.iter_mut().zip(data.chunks_exact(cols)) {
        *o = dot(row, w);
    }
}

/// 1-D gather into a caller-provided buffer: `out[k] = src[idx[k]]`.
///
/// Pure data movement (bit-exact by construction); the vector form of the
/// preallocated matrix gathers in
/// [`Matrix::gather`](crate::matrix::Matrix::gather). Used for bootstrap
/// label/weight selection in ensembles.
pub fn gather(src: &[f64], idx: &[usize], out: &mut [f64]) {
    debug_assert_eq!(idx.len(), out.len());
    for (o, &i) in out.iter_mut().zip(idx) {
        *o = src[i];
    }
}

/// Allocating convenience wrapper around [`gather`].
#[must_use]
pub fn gather_vec(src: &[f64], idx: &[usize]) -> Vec<f64> {
    // audit: allow(alloc-in-kernel, reason = "documented allocating wrapper; the hot loop is gather()")
    let mut out = vec![0.0; idx.len()];
    gather(src, idx, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vectors(n: usize) -> (Vec<f64>, Vec<f64>) {
        // Irrational-step values exercise rounding in every combine.
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.618_033_988_7).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.414_213_562_3).cos()).collect();
        (a, b)
    }

    #[test]
    fn dot_matches_ref_bitwise_on_every_tail() {
        for n in 0..=64 {
            let (a, b) = vectors(n);
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_ref(&a, &b).to_bits(),
                "dot != dot_ref at n={n}"
            );
        }
    }

    #[test]
    fn dot_preserves_the_seed_reduction_tree() {
        // The seed kernel: 4-chunk loop with interleaved accumulators.
        fn seed_dot(a: &[f64], b: &[f64]) -> f64 {
            let mut acc = [0.0f64; 4];
            let (a4, a_tail) = a.split_at(a.len() - a.len() % 4);
            let (b4, b_tail) = b.split_at(a4.len());
            for (xs, ys) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
                acc[0] += xs[0] * ys[0];
                acc[1] += xs[1] * ys[1];
                acc[2] += xs[2] * ys[2];
                acc[3] += xs[3] * ys[3];
            }
            let mut tail = 0.0;
            for (x, y) in a_tail.iter().zip(b_tail) {
                tail += x * y;
            }
            (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
        }
        for n in 0..=64 {
            let (a, b) = vectors(n);
            assert_eq!(
                dot(&a, &b).to_bits(),
                seed_dot(&a, &b).to_bits(),
                "widened kernel drifted from the seed tree at n={n}"
            );
        }
    }

    #[test]
    fn matvec_into_matches_per_row_ref() {
        let cols = 13;
        let rows = 9;
        let (data, _) = vectors(rows * cols);
        let (w, _) = vectors(cols);
        let mut out = vec![0.0; rows];
        matvec_into(&data, cols, &w, &mut out);
        for (i, o) in out.iter().enumerate() {
            let row = &data[i * cols..(i + 1) * cols];
            assert_eq!(o.to_bits(), dot_ref(row, &w).to_bits(), "row {i}");
        }
    }

    #[test]
    fn matvec_into_zero_columns() {
        let mut out = vec![9.0; 3];
        matvec_into(&[], 0, &[], &mut out);
        assert_eq!(out, vec![0.0; 3]);
    }
}
