//! A minimal double-precision complex number.
//!
//! The workspace deliberately avoids external numerics crates; everything the
//! FFT and the stencil engines need from complex arithmetic fits in this
//! module: ring operations, conjugation, polar conversion, and the stable
//! integer power used for pointwise kernel powering.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

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
    /// Imaginary unit.
    pub const I: Complex64 = c64(0.0, 1.0);

    /// Builds the unit-modulus number `e^{iθ}`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        c64(c, s)
    }

    /// Builds `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        c64(r * c, r * s)
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

    /// Argument in `(−π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        c64(self.re * k, self.im * k)
    }

    /// Multiplicative inverse. Returns NaNs for zero, like `1.0/0.0` would.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        c64(self.re / d, -self.im / d)
    }

    /// Raises `self` to a non-negative integer power through the polar form:
    /// `z^k = |z|^k · e^{i·k·arg z}`.
    ///
    /// This is the stable evaluation used for the paper's pointwise spectrum
    /// powering: the kernels of interest satisfy `|z| ≤ 1`, so `|z|^k`
    /// underflows gracefully toward zero instead of accumulating the rounding
    /// of `k` successive multiplications. `0^0` is defined as `1`.
    #[inline]
    pub fn powu(self, k: u64) -> Self {
        if k == 0 {
            return Self::ONE;
        }
        if k == 1 {
            return self;
        }
        let r = self.abs();
        // amopt-lint: allow(float-eq) -- exact zero modulus short-circuits ln(); 0.0f64 == is an identity test on a computed abs
        if r == 0.0 {
            return Self::ZERO;
        }
        let magnitude = (k as f64 * r.ln()).exp();
        Self::from_polar(magnitude, k as f64 * self.arg())
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

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
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

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division as multiply-by-reciprocal
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
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

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    /// Binary-exponentiation power: the reference [`Complex64::powu`] is
    /// cross-checked against.
    fn powu_binary(mut base: Complex64, mut k: u64) -> Complex64 {
        let mut acc = Complex64::ONE;
        while k > 0 {
            if k & 1 == 1 {
                acc *= base;
            }
            base *= base;
            k >>= 1;
        }
        acc
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
    fn division_inverts_multiplication() {
        let a = c64(1.5, -2.25);
        let b = c64(-0.5, 3.0);
        assert!(close(a * b / b, a, 1e-12));
    }

    #[test]
    fn abs_and_arg() {
        let z = c64(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < 1e-15);
        assert!((Complex64::I.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
    }

    #[test]
    fn cis_is_unit_modulus() {
        for k in 0..32 {
            let theta = k as f64 * 0.41;
            assert!((Complex64::cis(theta).abs() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn powu_agrees_with_binary_exponentiation() {
        let z = c64(0.6, -0.35);
        for k in [0u64, 1, 2, 3, 7, 16, 31, 100] {
            let a = z.powu(k);
            let b = powu_binary(z, k);
            assert!(close(a, b, 1e-10 * (1.0 + b.abs())), "k={k}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn powu_of_zero_and_one() {
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
