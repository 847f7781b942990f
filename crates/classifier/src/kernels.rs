//! Chunked f32 kernels shared by every scoring path.
//!
//! The repo's signature invariant — every fast path replays the reference
//! trace bit for bit — makes "equivalent" arithmetic a trap: two dot
//! products that merely compute the same real number can differ in their
//! f32 rounding. These kernels resolve that by construction: there is
//! exactly one implementation of each inner loop, with a *fixed* lane
//! count and reduction order, and the scalar per-id paths, the blocked
//! batch paths and the training loops all call it. Batching, sharding and
//! threading then change only *which buffers* feed the kernel, never the
//! arithmetic.
//!
//! The shapes are chosen for auto-vectorization, not explicit SIMD: eight
//! independent accumulators over `chunks_exact(8)` give the optimizer a
//! branch-free, alias-free body it lowers to packed multiply-adds on any
//! target, while the fixed pairwise combine at the end keeps the result
//! deterministic across targets and optimization levels (f32 addition is
//! evaluated exactly as written; Rust never licenses reassociation).

/// Lane width of [`dot_f32`]. Part of the numeric contract: changing it
/// changes the reduction tree and therefore every score in the system.
pub const DOT_LANES: usize = 8;

/// Dot product over the common prefix of `a` and `b` (shorter slice
/// wins), with a fixed 8-lane accumulation and pairwise combine.
///
/// NaN and infinity propagate as IEEE-754 dictates; empty input gives
/// `0.0`.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f32; DOT_LANES];
    let mut ca = a.chunks_exact(DOT_LANES);
    let mut cb = b.chunks_exact(DOT_LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for lane in 0..DOT_LANES {
            acc[lane] += xa[lane] * xb[lane];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    reduce_lanes(&acc, tail)
}

/// The accumulators of [`dot_f32`] over an `n`-long dot, for callers that
/// feed them one non-zero term at a time. Position `j` adds into lane
/// `j % DOT_LANES` inside the `chunks_exact` body, or into the sequential
/// tail past it. Visiting the non-zeros in ascending `j` reproduces the
/// dense dot bit for bit: each skipped term is `w·0.0 = ±0.0` for finite
/// `w`, and adding `±0.0` never changes an accumulator, which starts at
/// `+0.0` and can only become `-0.0` by adding `-0.0` to `-0.0`.
pub(crate) struct DotLanes {
    acc: [f32; DOT_LANES],
    tail: f32,
    /// First position of the tail: `n` rounded down to whole chunks.
    body: usize,
}

impl DotLanes {
    #[inline]
    pub(crate) fn new(n: usize) -> DotLanes {
        DotLanes {
            acc: [0.0; DOT_LANES],
            tail: 0.0,
            body: n - n % DOT_LANES,
        }
    }

    /// Add the term `x` of position `j`.
    #[inline]
    pub(crate) fn add(&mut self, j: usize, x: f32) {
        if j < self.body {
            self.acc[j % DOT_LANES] += x;
        } else {
            self.tail += x;
        }
    }

    /// The dot, combined exactly as [`dot_f32`] combines it.
    #[inline]
    pub(crate) fn finish(&self) -> f32 {
        reduce_lanes(&self.acc, self.tail)
    }
}

/// The fixed final combine of [`dot_f32`]:
/// `((0+1)+(2+3)) + ((4+5)+(6+7))`, then the tail.
#[inline]
fn reduce_lanes(acc: &[f32; DOT_LANES], tail: f32) -> f32 {
    let lo = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let hi = (acc[4] + acc[5]) + (acc[6] + acc[7]);
    (lo + hi) + tail
}

/// `bias + dot_f32(w, x)` — the convolution-window / dense-layer kernel.
/// One definition so the CNN's forward pass is the same arithmetic
/// whether it runs per id, batched, or inside training.
#[inline]
pub fn affine_f32(bias: f32, w: &[f32], x: &[f32]) -> f32 {
    bias + dot_f32(w, x)
}

/// Sparse dot: `Σ w[idx[k]] * val[k]`, accumulated sequentially in `k`
/// order. The bag-of-words half of the blocked logistic-regression score;
/// `idx` entries must be in bounds of `w`.
#[inline]
pub fn sparse_dot_f32(w: &[f32], idx: &[u32], val: &[f32]) -> f32 {
    let mut z = 0.0f32;
    for (&i, &v) in idx.iter().zip(val) {
        z += w[i as usize] * v;
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_dot(a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum::<f64>()
    }

    #[test]
    fn matches_reference_within_f32_tolerance() {
        let a: Vec<f32> = (0..131)
            .map(|i| ((i * 37) % 19) as f32 * 0.25 - 2.0)
            .collect();
        let b: Vec<f32> = (0..131)
            .map(|i| ((i * 11) % 23) as f32 * 0.5 - 5.0)
            .collect();
        let got = dot_f32(&a, &b) as f64;
        let want = reference_dot(&a, &b);
        assert!(
            (got - want).abs() < 1e-3 * (1.0 + want.abs()),
            "{got} vs {want}"
        );
    }

    #[test]
    fn deterministic_across_calls_and_lengths() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 64, 100] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
            assert_eq!(dot_f32(&a, &b), dot_f32(&a, &b), "n={n}");
        }
    }

    #[test]
    fn empty_and_mismatched_lengths() {
        assert_eq!(dot_f32(&[], &[]), 0.0);
        assert_eq!(dot_f32(&[1.0, 2.0], &[]), 0.0);
        // Shorter slice wins: only the common prefix contributes.
        assert_eq!(dot_f32(&[2.0, 3.0, 100.0], &[4.0, 5.0]), 23.0);
        assert_eq!(dot_f32(&[2.0, 3.0], &[4.0, 5.0, 100.0]), 23.0);
    }

    #[test]
    fn nan_and_infinity_propagate() {
        let mut a = vec![1.0f32; 20];
        let b = vec![1.0f32; 20];
        a[13] = f32::NAN;
        assert!(dot_f32(&a, &b).is_nan());
        a[13] = f32::INFINITY;
        assert_eq!(dot_f32(&a, &b), f32::INFINITY);
    }

    #[test]
    fn affine_adds_bias() {
        assert_eq!(affine_f32(1.5, &[2.0], &[3.0]), 7.5);
        assert_eq!(affine_f32(0.25, &[], &[]), 0.25);
    }

    #[test]
    fn lane_scatter_reproduces_dot_bit_for_bit() {
        // Sparse rows (most entries exactly zero, mixed-sign weights) at
        // lengths with and without a tail.
        for n in [1usize, 7, 8, 13, 64, 4105, 4109, 4129] {
            let w: Vec<f32> = (0..n)
                .map(|i| ((i * 7919) % 201) as f32 * 0.01 - 1.0)
                .collect();
            let x: Vec<f32> = (0..n)
                .map(|i| {
                    if i % 5 == 0 || i + 1 == n {
                        (i as f32).sin()
                    } else {
                        0.0
                    }
                })
                .collect();
            let mut lanes = DotLanes::new(n);
            for j in (0..n).filter(|&j| x[j] != 0.0) {
                lanes.add(j, w[j] * x[j]);
            }
            let got = lanes.finish();
            assert_eq!(got.to_bits(), dot_f32(&w, &x).to_bits(), "n={n}");
        }
    }

    #[test]
    fn sparse_dot_accumulates_in_index_order() {
        let w = [0.0f32, 10.0, 20.0, 30.0];
        assert_eq!(sparse_dot_f32(&w, &[3, 1], &[2.0, 0.5]), 65.0);
        assert_eq!(sparse_dot_f32(&w, &[], &[]), 0.0);
    }

    #[test]
    fn sparse_dot_propagates_nan() {
        let w = [1.0f32, f32::NAN];
        assert!(sparse_dot_f32(&w, &[0, 1], &[1.0, 1.0]).is_nan());
    }
}
