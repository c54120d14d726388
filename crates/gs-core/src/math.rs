//! Small fixed-size linear algebra used throughout the 3DGS pipeline.
//!
//! Everything here is `f32`, `Copy`, and allocation-free. The types are
//! intentionally minimal: only the operations the projection, rasterization
//! and optimizer code actually need are provided.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A 2-dimensional vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
}

/// A 3-dimensional vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

/// A 4-dimensional vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec4 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
    /// W component.
    pub w: f32,
}

/// A unit (or unnormalized) quaternion `w + xi + yj + zk`.
///
/// 3DGS stores raw, unnormalized quaternions as trainable parameters and
/// normalizes them on use; [`Quat::normalized`] performs that step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar (real) part.
    pub w: f32,
    /// X imaginary part.
    pub x: f32,
    /// Y imaginary part.
    pub y: f32,
    /// Z imaginary part.
    pub z: f32,
}

/// A 3x3 row-major matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Row-major entries `m[row][col]`.
    pub m: [[f32; 3]; 3],
}

/// A 2x2 symmetric matrix stored as `(xx, xy, yy)`.
///
/// This is the shape of a projected 2D covariance and its inverse (the
/// "conic" used by the rasterizer).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sym2 {
    /// The (0,0) entry.
    pub xx: f32,
    /// The (0,1) == (1,0) entry.
    pub xy: f32,
    /// The (1,1) entry.
    pub yy: f32,
}

impl Vec2 {
    /// All-zero vector.
    pub const ZERO: Self = Self { x: 0.0, y: 0.0 };

    /// Creates a new vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Self) -> f32 {
        self.x * o.x + self.y * o.y
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f32 {
        self.dot(self).sqrt()
    }
}

impl Vec3 {
    /// All-zero vector.
    pub const ZERO: Self = Self {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// All-one vector.
    pub const ONE: Self = Self {
        x: 1.0,
        y: 1.0,
        z: 1.0,
    };

    /// Creates a new vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Self { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Self { x: v, y: v, z: v }
    }

    /// Builds a vector from a `[x, y, z]` array.
    #[inline]
    pub const fn from_array(a: [f32; 3]) -> Self {
        Self {
            x: a[0],
            y: a[1],
            z: a[2],
        }
    }

    /// Returns the components as a `[x, y, z]` array.
    #[inline]
    pub const fn to_array(self) -> [f32; 3] {
        [self.x, self.y, self.z]
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Self) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, o: Self) -> Self {
        Self {
            x: self.y * o.z - self.z * o.y,
            y: self.z * o.x - self.x * o.z,
            z: self.x * o.y - self.y * o.x,
        }
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f32 {
        self.dot(self)
    }

    /// Returns a unit-length copy of the vector.
    ///
    /// Returns the zero vector unchanged if the norm is zero.
    #[inline]
    pub fn normalized(self) -> Self {
        let n = self.norm();
        if n > 0.0 {
            self / n
        } else {
            self
        }
    }

    /// Component-wise product.
    #[inline]
    pub fn mul_elem(self, o: Self) -> Self {
        Self {
            x: self.x * o.x,
            y: self.y * o.y,
            z: self.z * o.z,
        }
    }

    /// Component-wise `exp`.
    #[inline]
    pub fn exp(self) -> Self {
        Self {
            x: self.x.exp(),
            y: self.y.exp(),
            z: self.z.exp(),
        }
    }

    /// Largest component.
    #[inline]
    pub fn max_elem(self) -> f32 {
        self.x.max(self.y).max(self.z)
    }
}

impl Vec4 {
    /// Creates a new vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Self { x, y, z, w }
    }
}

impl Quat {
    /// Identity rotation.
    pub const IDENTITY: Self = Self {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a quaternion from `(w, x, y, z)` components.
    #[inline]
    pub const fn new(w: f32, x: f32, y: f32, z: f32) -> Self {
        Self { w, x, y, z }
    }

    /// Builds a quaternion from a `[w, x, y, z]` array.
    #[inline]
    pub const fn from_array(a: [f32; 4]) -> Self {
        Self {
            w: a[0],
            x: a[1],
            y: a[2],
            z: a[3],
        }
    }

    /// Returns the components as a `[w, x, y, z]` array.
    #[inline]
    pub const fn to_array(self) -> [f32; 4] {
        [self.w, self.x, self.y, self.z]
    }

    /// Quaternion norm.
    #[inline]
    pub fn norm(self) -> f32 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns a unit-length copy.
    ///
    /// The identity quaternion is returned if the norm is zero, which mirrors
    /// how degenerate trainable quaternions are handled in gsplat.
    #[inline]
    pub fn normalized(self) -> Self {
        let n = self.norm();
        if n > 0.0 {
            Self {
                w: self.w / n,
                x: self.x / n,
                y: self.y / n,
                z: self.z / n,
            }
        } else {
            Self::IDENTITY
        }
    }

    /// Builds a rotation about `axis` (assumed unit length) by `angle` radians.
    pub fn from_axis_angle(axis: Vec3, angle: f32) -> Self {
        let half = 0.5 * angle;
        let s = half.sin();
        Self {
            w: half.cos(),
            x: axis.x * s,
            y: axis.y * s,
            z: axis.z * s,
        }
    }

    /// Converts a **unit** quaternion to a rotation matrix.
    ///
    /// Callers that hold raw trainable quaternions should call
    /// [`Quat::normalized`] first (or use [`quat_to_rotmat_with_norm`], whose
    /// outputs [`quat_to_rotmat_backward`] turns into the gradient).
    pub fn to_rotmat(self) -> Mat3 {
        let Quat { w, x, y, z } = self;
        Mat3 {
            m: [
                [
                    1.0 - 2.0 * (y * y + z * z),
                    2.0 * (x * y - w * z),
                    2.0 * (x * z + w * y),
                ],
                [
                    2.0 * (x * y + w * z),
                    1.0 - 2.0 * (x * x + z * z),
                    2.0 * (y * z - w * x),
                ],
                [
                    2.0 * (x * z - w * y),
                    2.0 * (y * z + w * x),
                    1.0 - 2.0 * (x * x + y * y),
                ],
            ],
        }
    }

    /// Rotates a vector by this (unit) quaternion.
    pub fn rotate(self, v: Vec3) -> Vec3 {
        self.to_rotmat().mul_vec(v)
    }
}

impl Mat3 {
    /// Identity matrix.
    pub const IDENTITY: Self = Self {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };
    /// All-zero matrix.
    pub const ZERO: Self = Self { m: [[0.0; 3]; 3] };

    /// Builds a matrix from row-major entries.
    #[inline]
    pub const fn from_rows(m: [[f32; 3]; 3]) -> Self {
        Self { m }
    }

    /// Builds a diagonal matrix.
    #[inline]
    pub fn diag(d: Vec3) -> Self {
        Self {
            m: [[d.x, 0.0, 0.0], [0.0, d.y, 0.0], [0.0, 0.0, d.z]],
        }
    }

    /// Matrix transpose.
    #[inline]
    pub fn transpose(self) -> Self {
        let m = self.m;
        Self {
            m: [
                [m[0][0], m[1][0], m[2][0]],
                [m[0][1], m[1][1], m[2][1]],
                [m[0][2], m[1][2], m[2][2]],
            ],
        }
    }

    /// Matrix–vector product.
    #[inline]
    pub fn mul_vec(self, v: Vec3) -> Vec3 {
        Vec3 {
            x: self.m[0][0] * v.x + self.m[0][1] * v.y + self.m[0][2] * v.z,
            y: self.m[1][0] * v.x + self.m[1][1] * v.y + self.m[1][2] * v.z,
            z: self.m[2][0] * v.x + self.m[2][1] * v.y + self.m[2][2] * v.z,
        }
    }

    /// Matrix–matrix product.
    pub fn mul_mat(self, o: Self) -> Self {
        let mut r = [[0.0f32; 3]; 3];
        for (i, row) in r.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell =
                    self.m[i][0] * o.m[0][j] + self.m[i][1] * o.m[1][j] + self.m[i][2] * o.m[2][j];
            }
        }
        Self { m: r }
    }

    /// Scales every entry.
    pub fn scale(self, s: f32) -> Self {
        let mut r = self.m;
        for row in &mut r {
            for v in row {
                *v *= s;
            }
        }
        Self { m: r }
    }

    /// Matrix determinant.
    pub fn det(self) -> f32 {
        let m = self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }
}

impl Sym2 {
    /// Builds a symmetric 2x2 matrix from its three unique entries.
    #[inline]
    pub const fn new(xx: f32, xy: f32, yy: f32) -> Self {
        Self { xx, xy, yy }
    }

    /// Determinant `xx*yy - xy^2`.
    #[inline]
    pub fn det(self) -> f32 {
        self.xx * self.yy - self.xy * self.xy
    }

    /// Inverse, if the determinant is non-zero.
    #[inline]
    pub fn inverse(self) -> Option<Self> {
        let det = self.det();
        if det == 0.0 || !det.is_finite() {
            return None;
        }
        let inv = 1.0 / det;
        Some(Self {
            xx: self.yy * inv,
            xy: -self.xy * inv,
            yy: self.xx * inv,
        })
    }

    /// The two (real) eigenvalues, larger first.
    ///
    /// A symmetric 2x2 matrix always has real eigenvalues.
    #[inline]
    pub fn eigenvalues(self) -> (f32, f32) {
        let mid = 0.5 * (self.xx + self.yy);
        let disc = (mid * mid - self.det()).max(0.0).sqrt();
        (mid + disc, mid - disc)
    }
}

// --- operator impls -------------------------------------------------------

macro_rules! impl_vec_ops {
    ($t:ty, $($f:ident),+) => {
        impl Add for $t {
            type Output = Self;
            #[inline]
            fn add(self, o: Self) -> Self { Self { $($f: self.$f + o.$f),+ } }
        }
        impl Sub for $t {
            type Output = Self;
            #[inline]
            fn sub(self, o: Self) -> Self { Self { $($f: self.$f - o.$f),+ } }
        }
        impl Neg for $t {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self { Self { $($f: -self.$f),+ } }
        }
        impl Mul<f32> for $t {
            type Output = Self;
            #[inline]
            fn mul(self, s: f32) -> Self { Self { $($f: self.$f * s),+ } }
        }
        impl Div<f32> for $t {
            type Output = Self;
            #[inline]
            fn div(self, s: f32) -> Self { Self { $($f: self.$f / s),+ } }
        }
        impl AddAssign for $t {
            #[inline]
            fn add_assign(&mut self, o: Self) { $(self.$f += o.$f;)+ }
        }
        impl SubAssign for $t {
            #[inline]
            fn sub_assign(&mut self, o: Self) { $(self.$f -= o.$f;)+ }
        }
    };
}

impl_vec_ops!(Vec2, x, y);
impl_vec_ops!(Vec3, x, y, z);
impl_vec_ops!(Vec4, x, y, z, w);

impl Add for Mat3 {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        let mut r = self.m;
        for (row, o_row) in r.iter_mut().zip(&o.m) {
            for (v, o_v) in row.iter_mut().zip(o_row) {
                *v += o_v;
            }
        }
        Self { m: r }
    }
}

impl Index<(usize, usize)> for Mat3 {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.m[r][c]
    }
}

impl IndexMut<(usize, usize)> for Mat3 {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.m[r][c]
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl Default for Quat {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Default for Mat3 {
    fn default() -> Self {
        Self::IDENTITY
    }
}

/// Numerically-stable sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Inverse of [`sigmoid`]; input is clamped away from `{0, 1}`.
#[inline]
pub fn logit(p: f32) -> f32 {
    let p = p.clamp(1e-6, 1.0 - 1e-6);
    (p / (1.0 - p)).ln()
}

/// Converts a (possibly unnormalized) quaternion to a rotation matrix and
/// returns everything the backward pass needs.
///
/// Returns `(rotation, unit_quat, inv_norm)`.
pub fn quat_to_rotmat_with_norm(q: Quat) -> (Mat3, Quat, f32) {
    let n = q.norm().max(1e-12);
    let u = Quat {
        w: q.w / n,
        x: q.x / n,
        y: q.y / n,
        z: q.z / n,
    };
    (u.to_rotmat(), u, 1.0 / n)
}

/// Backpropagates a gradient w.r.t. a rotation matrix built from an
/// **unnormalized** quaternion `q` back to `q` itself.
///
/// `d_rot` is `dL/dR` where `R = rotmat(normalize(q))`.
pub fn quat_to_rotmat_backward(q: Quat, d_rot: &Mat3) -> Quat {
    let (_, u, inv_norm) = quat_to_rotmat_with_norm(q);
    let Quat { w, x, y, z } = u;
    let g = d_rot.m;

    // dR/d(unit quat) contracted with dL/dR. Derived from the standard
    // quaternion-to-rotation formula.
    let dw = 2.0 * (x * (g[2][1] - g[1][2]) + y * (g[0][2] - g[2][0]) + z * (g[1][0] - g[0][1]));
    let dx = 2.0
        * (w * (g[2][1] - g[1][2]) + y * (g[1][0] + g[0][1]) + z * (g[0][2] + g[2][0])
            - 2.0 * x * (g[1][1] + g[2][2]));
    let dy = 2.0
        * (w * (g[0][2] - g[2][0]) + x * (g[1][0] + g[0][1]) + z * (g[2][1] + g[1][2])
            - 2.0 * y * (g[0][0] + g[2][2]));
    let dz = 2.0
        * (w * (g[1][0] - g[0][1]) + x * (g[0][2] + g[2][0]) + y * (g[2][1] + g[1][2])
            - 2.0 * z * (g[0][0] + g[1][1]));

    // Backprop through the normalization: d(unit)/d(raw) = (I - u u^T) / |q|.
    let dot = dw * w + dx * x + dy * y + dz * z;
    Quat {
        w: (dw - w * dot) * inv_norm,
        x: (dx - x * dot) * inv_norm,
        y: (dy - y * dot) * inv_norm,
        z: (dz - z * dot) * inv_norm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32, tol: f32) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn vec3_basic_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Vec3::new(2.0, 1.5, 1.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert!(approx(a.dot(b), 6.0, 1e-6));
        assert_eq!(a.cross(b), Vec3::new(2.5, -5.0, 2.5));
        assert!(approx(a.norm(), 14.0f32.sqrt(), 1e-6));
    }

    #[test]
    fn vec3_normalized_zero_is_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn vec3_normalized_is_unit() {
        let v = Vec3::new(3.0, -4.0, 12.0).normalized();
        assert!(approx(v.norm(), 1.0, 1e-6));
    }

    #[test]
    fn quat_identity_rotation() {
        let r = Quat::IDENTITY.to_rotmat();
        for i in 0..3 {
            for j in 0..3 {
                assert!(approx(r.m[i][j], Mat3::IDENTITY.m[i][j], 1e-6));
            }
        }
    }

    #[test]
    fn quat_axis_angle_rotates_correctly() {
        // 90 degrees about Z maps X to Y.
        let q = Quat::from_axis_angle(Vec3::new(0.0, 0.0, 1.0), std::f32::consts::FRAC_PI_2);
        let v = q.rotate(Vec3::new(1.0, 0.0, 0.0));
        assert!(approx(v.x, 0.0, 1e-5));
        assert!(approx(v.y, 1.0, 1e-5));
        assert!(approx(v.z, 0.0, 1e-5));
    }

    #[test]
    fn rotation_matrix_is_orthonormal() {
        let q = Quat::new(0.3, -0.5, 0.7, 0.2).normalized();
        let r = q.to_rotmat();
        let rtr = r.transpose().mul_mat(r);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(approx(rtr.m[i][j], expect, 1e-5));
            }
        }
        assert!(approx(r.det(), 1.0, 1e-5));
    }

    #[test]
    fn mat3_mul_vec_matches_manual() {
        let m = Mat3::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        let v = Vec3::new(1.0, -1.0, 2.0);
        assert_eq!(m.mul_vec(v), Vec3::new(5.0, 11.0, 17.0));
    }

    #[test]
    fn mat3_det_and_diag() {
        let d = Mat3::diag(Vec3::new(2.0, 3.0, 4.0));
        assert!(approx(d.det(), 24.0, 1e-6));
    }

    #[test]
    fn sym2_inverse_roundtrip() {
        let s = Sym2::new(2.0, 0.3, 1.5);
        let inv = s.inverse().unwrap();
        // s * inv should be identity.
        let a = s.xx * inv.xx + s.xy * inv.xy;
        let b = s.xy * inv.xx + s.yy * inv.xy;
        assert!(approx(a, 1.0, 1e-5));
        assert!(approx(b, 0.0, 1e-5));
    }

    #[test]
    fn sym2_singular_has_no_inverse() {
        assert!(Sym2::new(1.0, 1.0, 1.0).inverse().is_none());
    }

    #[test]
    fn sym2_eigenvalues_of_diagonal() {
        let (l1, l2) = Sym2::new(3.0, 0.0, 1.0).eigenvalues();
        assert!(approx(l1, 3.0, 1e-6));
        assert!(approx(l2, 1.0, 1e-6));
    }

    #[test]
    fn sigmoid_logit_roundtrip() {
        for &p in &[0.01f32, 0.2, 0.5, 0.9, 0.999] {
            assert!(approx(sigmoid(logit(p)), p, 1e-4));
        }
    }

    #[test]
    fn sigmoid_extremes_are_finite() {
        assert!(sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0).is_finite());
        assert!(sigmoid(100.0).is_finite());
    }

    #[test]
    fn quat_rotmat_backward_matches_finite_difference() {
        let q = Quat::new(0.8, -0.3, 0.4, 0.1);
        // Loss = sum of R entries weighted by an arbitrary matrix.
        let w = Mat3::from_rows([[0.3, -1.2, 0.7], [0.05, 0.9, -0.4], [1.1, 0.2, -0.6]]);
        let loss = |q: Quat| -> f32 {
            let (r, _, _) = quat_to_rotmat_with_norm(q);
            // The Frobenius inner product of R and W.
            r.m.iter()
                .flatten()
                .zip(w.m.iter().flatten())
                .map(|(a, b)| a * b)
                .sum()
        };
        let grad = quat_to_rotmat_backward(q, &w);
        let eps = 1e-3;
        let g = grad.to_array();
        let mut qa = q.to_array();
        for k in 0..4 {
            let orig = qa[k];
            qa[k] = orig + eps;
            let lp = loss(Quat::from_array(qa));
            qa[k] = orig - eps;
            let lm = loss(Quat::from_array(qa));
            qa[k] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - g[k]).abs() < 1e-2 * (1.0 + fd.abs()),
                "component {k}: fd={fd} analytic={}",
                g[k]
            );
        }
    }
}
