//! A minimal double-precision complex number.
//!
//! The workspace deliberately avoids external numerics crates; everything the
//! FFT and the stencil engines need from complex arithmetic fits in this
//! module: ring operations, conjugation, the modulus, and the integer
//! power by square-and-multiply used for pointwise kernel powering.

use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub};

/// Complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor, mirroring `num_complex::Complex64::new`.
#[inline]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// Additive identity.
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    /// Multiplicative identity.
    pub const ONE: Complex64 = c64(1.0, 0.0);

    /// Builds the unit-modulus number `e^{iθ}`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        c64(c, s)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// Modulus `|z|`, computed without intermediate overflow.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        c64(self.re * k, self.im * k)
    }

    /// Raises `self` to a non-negative integer power by right-to-left
    /// square-and-multiply: `z, z², z⁴, …` by squaring, and the product of
    /// those that the set bits of `k` name, started from the lowest of them
    /// (`k = 0` gives `1`, `k = 1` gives `z` bit for bit, and nothing is
    /// multiplied by `1`).  At most `2·log₂k` multiplies, no transcendental.
    ///
    /// This is the paper's pointwise spectrum powering.  A response `K`
    /// evaluated with relative rounding `δ ≈ ε` has `(K·(1 + δ))^k ≈
    /// K^k·(1 + k·δ)`: that `k·δ` is in every form of the power, the polar
    /// `|z|^k·e^{i·k·arg z}` included.  Each multiply rounds by at most
    /// `√5·ε/2` in norm, and a squaring doubles the relative error of what
    /// it squares, so the chain adds at most about `(k − 1)·√5·ε/2` on top
    /// (first order) — the same order as `k·δ`, and no worse than the polar
    /// form's `k·ε·(|ln|z|| + |arg z|)`.  For `|z| ≤ 1` the powers fall
    /// toward zero and underflow to it without a NaN (no infinity is ever
    /// formed to meet a zero).
    #[inline]
    pub fn powu(self, mut k: u64) -> Self {
        if k == 0 {
            return Self::ONE;
        }
        let mut base = self;
        while k & 1 == 0 {
            base *= base;
            k >>= 1;
        }
        let mut acc = base;
        k >>= 1;
        while k != 0 {
            base *= base;
            if k & 1 == 1 {
                acc *= base;
            }
            k >>= 1;
        }
        acc
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        c64(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        c64(-self.re, -self.im)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        c64(re, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    /// The polar power `|z|^k·e^{i·k·arg z}` (`hypot`, `ln`, `exp`, `atan2`,
    /// `sin_cos`): the form [`Complex64::powu`] replaced, kept to show that
    /// square-and-multiply meets the bound it met.
    fn powu_polar(z: Complex64, k: u64) -> Complex64 {
        let k = k as f64;
        Complex64::cis(k * z.im.atan2(z.re)).scale((k * z.abs().ln()).exp())
    }

    /// A double-double `hi + lo` (about 106 bits), in which the reference
    /// power is taken: its own rounding, about `k·2⁻¹⁰⁴`, is far below the
    /// `k·ε` either `f64` form carries.
    #[derive(Clone, Copy)]
    struct Dd(f64, f64);

    impl Dd {
        fn renormalised(hi: f64, lo: f64) -> Dd {
            let sum = hi + lo;
            Dd(sum, lo - (sum - hi))
        }

        fn add(self, other: Dd) -> Dd {
            let sum = self.0 + other.0;
            let back = sum - self.0;
            let err = (self.0 - (sum - back)) + (other.0 - back);
            Dd::renormalised(sum, err + self.1 + other.1)
        }

        fn mul(self, other: Dd) -> Dd {
            let product = self.0 * other.0;
            let err = self.0.mul_add(other.0, -product);
            Dd::renormalised(product, err + (self.0 * other.1 + self.1 * other.0))
        }

        fn neg(self) -> Dd {
            Dd(-self.0, -self.1)
        }
    }

    /// `z^k` in double-double by repeated squaring.
    fn powu_dd(z: Complex64, mut k: u64) -> (Dd, Dd) {
        let mul = |(a, b): (Dd, Dd), (c, d): (Dd, Dd)| {
            (a.mul(c).add(b.mul(d).neg()), a.mul(d).add(b.mul(c)))
        };
        let (mut base, mut acc) = ((Dd(z.re, 0.0), Dd(z.im, 0.0)), (Dd(1.0, 0.0), Dd(0.0, 0.0)));
        while k > 0 {
            if k & 1 == 1 {
                acc = mul(acc, base);
            }
            base = mul(base, base);
            k >>= 1;
        }
        acc
    }

    /// `|got − z^k| / |z^k|`, against the double-double power.
    fn relative_error(got: Complex64, z: Complex64, k: u64) -> f64 {
        let (re, im) = powu_dd(z, k);
        let (d_re, d_im) = (Dd(got.re, 0.0).add(re.neg()), Dd(got.im, 0.0).add(im.neg()));
        d_re.0.hypot(d_im.0) / re.0.hypot(im.0)
    }

    #[test]
    fn ring_identities() {
        let z = c64(3.0, -4.0);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert_eq!(z - z, Complex64::ZERO);
        assert_eq!(-z, c64(-3.0, 4.0));
    }

    #[test]
    fn multiplication_matches_hand_computation() {
        // (1+2i)(3+4i) = 3+4i+6i-8 = -5+10i
        assert_eq!(c64(1.0, 2.0) * c64(3.0, 4.0), c64(-5.0, 10.0));
    }

    #[test]
    fn abs_is_the_modulus() {
        let z = c64(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn cis_is_unit_modulus() {
        for k in 0..32 {
            let theta = k as f64 * 0.41;
            assert!((Complex64::cis(theta).abs() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn powu_is_within_c_k_eps_of_a_double_double_power() {
        // Lattice-like responses: |z| ≤ 1, at arguments near 0, π/2 and π,
        // and powers the pricing's heights reach, odd and even, around
        // powers of two.  c = 2: a square-and-multiply chain rounds by at
        // most about (k − 1)·√5·ε/2 and reads at most 0.17·k·ε here; the
        // polar form reads at most 0.95·k·ε.
        const C: f64 = 2.0;
        for r in [0.999_999, 0.9999, 0.99] {
            for theta in [1e-3, 0.05, FRAC_PI_2 - 1e-3, FRAC_PI_2 + 0.03, PI - 1e-3, 0.02 - PI] {
                let z = Complex64::cis(theta).scale(r);
                for k in [2u64, 3, 63, 64, 65, 251, 4_095, 16_384, 32_767] {
                    let bound = C * k as f64 * f64::EPSILON;
                    let ctx = format!("|z| = {r}, arg {theta}, k = {k}");
                    let err = relative_error(z.powu(k), z, k);
                    assert!(err <= bound, "{ctx}: {err:e} > {bound:e}");
                    let polar = relative_error(powu_polar(z, k), z, k);
                    assert!(polar <= bound, "{ctx}, polar: {polar:e} > {bound:e}");
                }
            }
        }
    }

    #[test]
    fn powu_of_zero_and_one() {
        let z = c64(0.6, -0.35);
        assert_eq!(z.powu(0), Complex64::ONE);
        assert_eq!(
            (z.powu(1).re.to_bits(), z.powu(1).im.to_bits()),
            (z.re.to_bits(), z.im.to_bits())
        );
        assert_eq!(Complex64::ZERO.powu(0), Complex64::ONE);
        assert_eq!(Complex64::ZERO.powu(5), Complex64::ZERO);
        assert!(close(Complex64::ONE.powu(1 << 40), Complex64::ONE, 1e-12));
    }

    #[test]
    fn powu_decays_for_submodulus_inputs() {
        // |z| < 1 ⇒ huge powers underflow to 0 without NaN — the property the
        // spectrum powering of the stencil engine relies on.
        let z = c64(0.4, 0.3); // |z| = 0.5
        let p = z.powu(10_000);
        assert!(p.abs() < 1e-300 || p.abs() == 0.0);
        assert!(p.re.is_finite() && p.im.is_finite());
    }

    #[test]
    fn conj_properties() {
        let a = c64(1.0, 2.0);
        let b = c64(-2.0, 0.5);
        assert_eq!((a * b).conj(), a.conj() * b.conj());
        assert!((a * a.conj()).im.abs() < 1e-15);
    }
}
