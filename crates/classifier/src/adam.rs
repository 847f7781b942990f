//! Adam-optimized parameter tensors.

use rand::rngs::SmallRng;
use rand::Rng;

/// A flat parameter tensor with its gradient accumulator and Adam moments.
#[derive(Clone, Debug)]
pub struct Param {
    pub w: Vec<f32>,
    pub g: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Param {
    /// Zero-initialized parameters (biases).
    pub fn zeros(n: usize) -> Param {
        Param {
            w: vec![0.0; n],
            g: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Uniform Glorot-style initialization in `[-scale, scale]`.
    pub fn uniform(n: usize, scale: f32, rng: &mut SmallRng) -> Param {
        let w = (0..n).map(|_| rng.gen_range(-scale..scale)).collect();
        Param {
            w,
            g: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    pub fn len(&self) -> usize {
        self.w.len()
    }

    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Reset accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.g.iter_mut().for_each(|g| *g = 0.0);
    }

    /// One Adam step over the accumulated gradient; `t` is the 1-based step
    /// counter shared across all parameters of the model.
    pub fn adam_step(&mut self, lr: f32, t: u32) {
        let bc = bias_corrections(t);
        let moments = self.m.iter_mut().zip(self.v.iter_mut());
        for ((w, (m, v)), &g) in self.w.iter_mut().zip(moments).zip(&self.g) {
            adam_update(w, m, v, g, lr, bc);
        }
    }
}

const B1: f32 = 0.9;
const B2: f32 = 0.999;
const EPS: f32 = 1e-8;

/// Adam's bias corrections `(1 − β₁ᵗ, 1 − β₂ᵗ)` for the 1-based step `t`,
/// computed once per step and shared by every coordinate.
#[inline]
pub(crate) fn bias_corrections(t: u32) -> (f32, f32) {
    (1.0 - B1.powi(t as i32), 1.0 - B2.powi(t as i32))
}

/// One Adam update of a single coordinate with gradient `g`. This is the
/// only Adam arithmetic in the crate: [`Param::adam_step`] and the sparse
/// logistic-regression fit both call it, so they cannot drift apart.
///
/// A coordinate at `w = m = v = +0.0` with a zero gradient (of either
/// sign) stays at `+0.0` in all three: `0.9·(+0) + 0.1·(±0)` is `+0`,
/// `v` likewise, and `w − lr·(+0)/(+0 + ε)` is `+0` for finite `lr`.
#[inline]
pub(crate) fn adam_update(w: &mut f32, m: &mut f32, v: &mut f32, g: f32, lr: f32, bc: (f32, f32)) {
    *m = B1 * *m + (1.0 - B1) * g;
    *v = B2 * *v + (1.0 - B2) * g * g;
    let mhat = *m / bc.0;
    let vhat = *v / bc.1;
    *w -= lr * mhat / (vhat.sqrt() + EPS);
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Binary cross-entropy loss for prediction `p` and target `y ∈ {0,1}`.
#[inline]
pub fn bce(p: f32, y: f32) -> f32 {
    let p = p.clamp(1e-7, 1.0 - 1e-7);
    -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn adam_minimizes_a_quadratic() {
        // Minimize (w-3)^2; gradient 2(w-3).
        let mut p = Param::zeros(1);
        for t in 1..=500 {
            p.zero_grad();
            p.g[0] = 2.0 * (p.w[0] - 3.0);
            p.adam_step(0.05, t);
        }
        assert!((p.w[0] - 3.0).abs() < 0.05, "w = {}", p.w[0]);
    }

    #[test]
    fn uniform_init_in_range_and_seeded() {
        let mut rng = SmallRng::seed_from_u64(7);
        let p = Param::uniform(100, 0.5, &mut rng);
        assert!(p.w.iter().all(|&x| (-0.5..0.5).contains(&x)));
        let mut rng2 = SmallRng::seed_from_u64(7);
        let q = Param::uniform(100, 0.5, &mut rng2);
        assert_eq!(p.w, q.w);
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(50.0) > 0.999);
        assert!(sigmoid(-50.0) < 0.001);
        // Stability at extremes.
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn bce_is_finite_and_ordered() {
        assert!(bce(0.9, 1.0) < bce(0.1, 1.0));
        assert!(bce(0.0, 1.0).is_finite());
        assert!(bce(1.0, 0.0).is_finite());
    }
}
