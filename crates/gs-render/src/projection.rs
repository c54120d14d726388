//! EWA projection of 3D Gaussians to screen-space splats, with analytic
//! gradients back to every trainable parameter.
//!
//! The forward pass mirrors the reference 3DGS / gsplat implementation:
//!
//! 1. transform the mean into camera space and reject Gaussians outside the
//!    near/far planes,
//! 2. build the 3D covariance `Σ = R S Sᵀ Rᵀ` from the (normalized)
//!    quaternion and exponentiated log-scales,
//! 3. project with the local affine (Jacobian) approximation
//!    `Σ' = J W Σ Wᵀ Jᵀ`, add the `0.3` pixel low-pass term, and invert to
//!    obtain the conic,
//! 4. evaluate view-dependent color from spherical harmonics, and the
//!    opacity sigmoid,
//! 5. compute a conservative screen-space radius (3σ of the larger
//!    eigenvalue) used for tile binning and culling.
//!
//! The backward pass ([`projection_backward`]) consumes per-splat gradients
//! (w.r.t. 2D mean, conic, color, opacity) from the rasterizer and produces
//! dense gradients over the *input* parameter container. The container that
//! training passes here is already the gathered set of visible Gaussians, so
//! these gradients are exactly the sparse gradients GS-Scale transfers back
//! to host memory.

use gs_core::camera::{Camera, Viewport};
use gs_core::gaussian::{GaussianGrads, GaussianParams};
use gs_core::math::{
    quat_to_rotmat_backward, quat_to_rotmat_with_norm, sigmoid, Mat3, Sym2, Vec2, Vec3,
};
use gs_core::sh;

/// Low-pass filter added to the diagonal of the projected 2D covariance,
/// matching the reference implementation.
pub const COV2D_BLUR: f32 = 0.3;

/// Multiple of the larger 2D standard deviation used as the splat radius.
pub const RADIUS_SIGMA: f32 = 3.0;

/// Clamp factor applied to the view-space x/z and y/z ratios before building
/// the projection Jacobian (numerical guard used by 3DGS).
pub const FRUSTUM_CLAMP: f32 = 1.3;

/// A 3D Gaussian projected into screen space, ready for rasterization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Splat {
    /// Index of the source Gaussian in the parameter container passed to
    /// [`project_splats`].
    pub idx: u32,
    /// Screen-space center in pixels.
    pub mean2d: Vec2,
    /// Camera-space depth (used for ordering).
    pub depth: f32,
    /// Inverse of the 2D covariance (conic) used by the rasterizer.
    pub conic: Sym2,
    /// Conservative screen-space radius in pixels.
    pub radius: f32,
    /// View-dependent RGB color from SH evaluation.
    pub color: [f32; 3],
    /// Opacity after the sigmoid.
    pub opacity: f32,
}

/// Per-splat gradients produced by the rasterizer backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SplatGrad {
    /// Gradient w.r.t. the screen-space center.
    pub d_mean2d: Vec2,
    /// Gradient w.r.t. the conic entries.
    pub d_conic: Sym2,
    /// Gradient w.r.t. the splat color.
    pub d_color: [f32; 3],
    /// Gradient w.r.t. the post-sigmoid opacity.
    pub d_opacity: f32,
}

/// Intermediate per-Gaussian projection quantities shared by the forward and
/// backward passes.
struct ProjectionIntermediates {
    t: Vec3,
    rot: Mat3,
    scale: Vec3,
    cov3d: Mat3,
    trow0: Vec3,
    trow1: Vec3,
    cov2d: Sym2,
    clamped_x: bool,
    clamped_y: bool,
}

fn project_one(params: &GaussianParams, cam: &Camera, i: usize) -> Option<ProjectionIntermediates> {
    let t = cam.world_to_cam(params.mean(i));
    if t.z <= cam.near || t.z >= cam.far {
        return None;
    }
    let scale = params.scale(i);
    let (rot, _, _) = quat_to_rotmat_with_norm(params.quat(i));
    let m = rot.mul_mat(Mat3::diag(scale));
    let cov3d = m.mul_mat(m.transpose());

    // Clamp the view-space ratios like the reference implementation to keep
    // the Jacobian bounded near the frustum edges.
    let lim_x = FRUSTUM_CLAMP * cam.tan_fov_x();
    let lim_y = FRUSTUM_CLAMP * cam.tan_fov_y();
    let rx = t.x / t.z;
    let ry = t.y / t.z;
    let cx = rx.clamp(-lim_x, lim_x);
    let cy = ry.clamp(-lim_y, lim_y);
    let clamped_x = cx != rx;
    let clamped_y = cy != ry;
    let tx = cx * t.z;
    let ty = cy * t.z;

    // J (2x3) rows, already multiplied by W: T = J * W.
    let j00 = cam.fx / t.z;
    let j02 = -cam.fx * tx / (t.z * t.z);
    let j11 = cam.fy / t.z;
    let j12 = -cam.fy * ty / (t.z * t.z);
    let w = cam.rotation;
    let jrow0 = Vec3::new(j00, 0.0, j02);
    let jrow1 = Vec3::new(0.0, j11, j12);
    // T rows: trow_k = J_row_k * W  (1x3 * 3x3).
    let trow0 = Vec3::new(
        jrow0.x * w.m[0][0] + jrow0.y * w.m[1][0] + jrow0.z * w.m[2][0],
        jrow0.x * w.m[0][1] + jrow0.y * w.m[1][1] + jrow0.z * w.m[2][1],
        jrow0.x * w.m[0][2] + jrow0.y * w.m[1][2] + jrow0.z * w.m[2][2],
    );
    let trow1 = Vec3::new(
        jrow1.x * w.m[0][0] + jrow1.y * w.m[1][0] + jrow1.z * w.m[2][0],
        jrow1.x * w.m[0][1] + jrow1.y * w.m[1][1] + jrow1.z * w.m[2][1],
        jrow1.x * w.m[0][2] + jrow1.y * w.m[1][2] + jrow1.z * w.m[2][2],
    );

    // cov2d = T Σ Tᵀ  (2x2 symmetric) + blur.
    let sig_t0 = cov3d.mul_vec(trow0);
    let sig_t1 = cov3d.mul_vec(trow1);
    let cov2d = Sym2::new(
        trow0.dot(sig_t0) + COV2D_BLUR,
        trow0.dot(sig_t1),
        trow1.dot(sig_t1) + COV2D_BLUR,
    );

    Some(ProjectionIntermediates {
        t,
        rot,
        scale,
        cov3d,
        trow0,
        trow1,
        cov2d,
        clamped_x,
        clamped_y,
    })
}

/// Projects all Gaussians in `params` into screen-space splats for `cam`,
/// keeping only those that could contribute to `viewport`.
///
/// Gaussians are rejected when they fall outside the near/far planes, when
/// their projected covariance is degenerate, or when their conservative
/// screen-space footprint does not intersect the viewport.
///
/// `sh_degree` selects how many SH bands are used for color (0..=3).
pub fn project_splats(
    params: &GaussianParams,
    cam: &Camera,
    sh_degree: usize,
    viewport: &Viewport,
) -> Vec<Splat> {
    let mut splats = Vec::new();
    for i in 0..params.len() {
        let Some(inter) = project_one(params, cam, i) else {
            continue;
        };
        let det = inter.cov2d.det();
        if det <= 0.0 || !det.is_finite() {
            continue;
        }
        let conic = match inter.cov2d.inverse() {
            Some(c) => c,
            None => continue,
        };
        let (l1, _) = inter.cov2d.eigenvalues();
        let radius = RADIUS_SIGMA * l1.max(0.0).sqrt();
        let mean2d = cam.cam_to_pixel(inter.t);
        // Keep any splat whose bounding box could reach a tile that overlaps
        // the viewport (one extra tile of slack): this makes rendering a
        // sub-viewport bit-identical to cropping a full-image render, which
        // balance-aware image splitting relies on.
        if !viewport.contains_with_margin(mean2d.x, mean2d.y, radius + 16.0) {
            continue;
        }
        let dir = cam.view_dir(params.mean(i));
        let color = sh::eval_color(sh_degree, dir, &params.sh_triples(i, sh_degree));
        let opacity = sigmoid(params.opacity_logit(i));
        splats.push(Splat {
            idx: i as u32,
            mean2d,
            depth: inter.t.z,
            conic,
            radius,
            color,
            opacity,
        });
    }
    splats
}

/// Backpropagates per-splat gradients to the parameters of the Gaussians in
/// `params`, returning a dense gradient container aligned with `params`.
///
/// `splats` and `grads` must be parallel slices (as produced by
/// [`project_splats`] and [`crate::rasterize::rasterize_backward`]).
///
/// # Panics
///
/// Panics if `splats.len() != grads.len()`.
pub fn projection_backward(
    params: &GaussianParams,
    cam: &Camera,
    sh_degree: usize,
    splats: &[Splat],
    grads: &[SplatGrad],
) -> GaussianGrads {
    assert_eq!(splats.len(), grads.len(), "splat/grad length mismatch");
    let mut out = GaussianGrads::zeros(params.len());
    let w = cam.rotation;

    for (splat, g) in splats.iter().zip(grads) {
        let i = splat.idx as usize;
        let Some(inter) = project_one(params, cam, i) else {
            continue;
        };

        // ---- opacity ----------------------------------------------------
        let o = splat.opacity;
        out.opacities[i] += g.d_opacity * o * (1.0 - o);

        // ---- color (SH) --------------------------------------------------
        let mean = params.mean(i);
        let dir_raw = mean - cam.position;
        let dir = dir_raw.normalized();
        let back =
            sh::eval_color_backward(sh_degree, dir, &params.sh_triples(i, sh_degree), g.d_color);
        {
            let n = sh::num_coeffs(sh_degree);
            let sh_grad = &mut out.sh[48 * i..48 * (i + 1)];
            for (k, dc) in back.d_coeffs.iter().enumerate().take(n) {
                sh_grad[3 * k] += dc[0];
                sh_grad[3 * k + 1] += dc[1];
                sh_grad[3 * k + 2] += dc[2];
            }
        }
        let mut d_mean = sh::normalize_backward(dir_raw, back.d_dir);

        // ---- conic -> cov2d ----------------------------------------------
        // conic = inverse(cov2d); use the closed-form Jacobian of the 2x2
        // symmetric inverse (a = yy/det, b = -xy/det, c = xx/det).
        let conic = splat.conic;
        let (da, db, dc) = (g.d_conic.xx, g.d_conic.xy, g.d_conic.yy);
        let (a, b, c) = (conic.xx, conic.xy, conic.yy);
        // Both the conic xy and the covariance xy entries are treated as a
        // single scalar parameter each (matching how the rasterizer forms
        // sigma), so these are total derivatives.
        let d_cov = Sym2::new(
            -a * a * da - a * b * db - b * b * dc,
            -2.0 * a * b * da - (a * c + b * b) * db - 2.0 * b * c * dc,
            -b * b * da - b * c * db - c * c * dc,
        );

        // ---- cov2d -> (Σ, T rows) ----------------------------------------
        let trow0 = inter.trow0;
        let trow1 = inter.trow1;
        let sigma = inter.cov3d;
        // dL/dΣ (3x3, treating all nine entries independently).
        let mut d_sigma = Mat3::ZERO;
        for r in 0..3 {
            for cidx in 0..3 {
                let t0r = [trow0.x, trow0.y, trow0.z][r];
                let t0c = [trow0.x, trow0.y, trow0.z][cidx];
                let t1r = [trow1.x, trow1.y, trow1.z][r];
                let t1c = [trow1.x, trow1.y, trow1.z][cidx];
                d_sigma.m[r][cidx] =
                    d_cov.xx * t0r * t0c + d_cov.xy * t0r * t1c + d_cov.yy * t1r * t1c;
            }
        }
        // dL/dT rows: d_trow0 = d_cov.xx * 2 Σ t0 + d_cov.xy * Σ t1, etc.
        let sig_t0 = sigma.mul_vec(trow0);
        let sig_t1 = sigma.mul_vec(trow1);
        let d_trow0 = sig_t0 * (2.0 * d_cov.xx) + sig_t1 * d_cov.xy;
        let d_trow1 = sig_t0 * d_cov.xy + sig_t1 * (2.0 * d_cov.yy);

        // ---- Σ -> (R, scale, quat) ----------------------------------------
        // Σ = M Mᵀ with M = R S. dL/dM = (dΣ + dΣᵀ) M.
        let m_mat = inter.rot.mul_mat(Mat3::diag(inter.scale));
        let d_m = (d_sigma + d_sigma.transpose()).mul_mat(m_mat);
        // dL/dR = dL/dM Sᵀ = dL/dM S (S diagonal).
        let d_rot = d_m.mul_mat(Mat3::diag(inter.scale));
        // dL/dS (diagonal entries) = (Rᵀ dL/dM) diagonal.
        let rt_dm = inter.rot.transpose().mul_mat(d_m);
        let d_scale = Vec3::new(rt_dm.m[0][0], rt_dm.m[1][1], rt_dm.m[2][2]);
        // Chain to log-scale: s = exp(ls).
        let d_log_scale = d_scale.mul_elem(inter.scale);
        let d_quat = quat_to_rotmat_backward(params.quat(i), &d_rot);

        // ---- T rows -> J -> camera-space position -------------------------
        // T row k = J row k * W, so dL/dJ row k = dL/dT row k * Wᵀ; since
        // (v Wᵀ)_j = Σ_m v_m W_jm... careful: trow = Σ_m jrow_m * W_mj, so
        // d jrow_m = Σ_j d trow_j * W_mj.
        let d_jrow0 = Vec3::new(
            d_trow0.x * w.m[0][0] + d_trow0.y * w.m[0][1] + d_trow0.z * w.m[0][2],
            d_trow0.x * w.m[1][0] + d_trow0.y * w.m[1][1] + d_trow0.z * w.m[1][2],
            d_trow0.x * w.m[2][0] + d_trow0.y * w.m[2][1] + d_trow0.z * w.m[2][2],
        );
        let d_jrow1 = Vec3::new(
            d_trow1.x * w.m[0][0] + d_trow1.y * w.m[0][1] + d_trow1.z * w.m[0][2],
            d_trow1.x * w.m[1][0] + d_trow1.y * w.m[1][1] + d_trow1.z * w.m[1][2],
            d_trow1.x * w.m[2][0] + d_trow1.y * w.m[2][1] + d_trow1.z * w.m[2][2],
        );
        // J entries: j00 = fx/tz, j02 = -fx*txc/tz^2, j11 = fy/tz,
        // j12 = -fy*tyc/tz^2, where txc/tyc are the clamped view-space x/y.
        let t = inter.t;
        let tz2 = t.z * t.z;
        let mut d_t = Vec3::ZERO;
        // d j00 / d tz, d j11 / d tz.
        d_t.z += d_jrow0.x * (-cam.fx / tz2);
        d_t.z += d_jrow1.y * (-cam.fy / tz2);
        // txc = clamp(tx/tz)*tz. If unclamped, txc == tx: d j02/d tx = -fx/tz^2,
        // d j02/d tz = 2 fx tx / tz^3. If clamped, txc = lim*tz so
        // j02 = -fx*lim/tz: d j02/d tz = fx*lim/tz^2 = -j02/tz, no tx grad.
        let lim_x = FRUSTUM_CLAMP * cam.tan_fov_x();
        let lim_y = FRUSTUM_CLAMP * cam.tan_fov_y();
        if inter.clamped_x {
            let sign = (t.x / t.z).signum();
            let j02 = -cam.fx * sign * lim_x / t.z;
            d_t.z += d_jrow0.z * (-j02 / t.z);
        } else {
            d_t.x += d_jrow0.z * (-cam.fx / tz2);
            d_t.z += d_jrow0.z * (2.0 * cam.fx * t.x / (tz2 * t.z));
        }
        if inter.clamped_y {
            let sign = (t.y / t.z).signum();
            let j12 = -cam.fy * sign * lim_y / t.z;
            d_t.z += d_jrow1.z * (-j12 / t.z);
        } else {
            d_t.y += d_jrow1.z * (-cam.fy / tz2);
            d_t.z += d_jrow1.z * (2.0 * cam.fy * t.y / (tz2 * t.z));
        }

        // ---- 2D mean -> camera-space position ------------------------------
        // mean2d = (fx*tx/tz + cx, fy*ty/tz + cy) with the *unclamped* tx/ty.
        d_t.x += g.d_mean2d.x * cam.fx / t.z;
        d_t.y += g.d_mean2d.y * cam.fy / t.z;
        d_t.z += -g.d_mean2d.x * cam.fx * t.x / tz2 - g.d_mean2d.y * cam.fy * t.y / tz2;

        // ---- camera-space position -> world mean --------------------------
        // t = W (mean - campos), so dL/dmean = Wᵀ dL/dt.
        d_mean += w.transpose().mul_vec(d_t);

        // ---- write back -----------------------------------------------------
        out.means[3 * i] += d_mean.x;
        out.means[3 * i + 1] += d_mean.y;
        out.means[3 * i + 2] += d_mean.z;
        out.log_scales[3 * i] += d_log_scale.x;
        out.log_scales[3 * i + 1] += d_log_scale.y;
        out.log_scales[3 * i + 2] += d_log_scale.z;
        out.quats[4 * i] += d_quat.w;
        out.quats[4 * i + 1] += d_quat.x;
        out.quats[4 * i + 2] += d_quat.y;
        out.quats[4 * i + 3] += d_quat.z;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::math::Quat;

    fn test_camera() -> Camera {
        Camera::look_at(
            64,
            48,
            std::f32::consts::FRAC_PI_2,
            Vec3::new(0.0, 0.0, -4.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        )
    }

    fn sample_params() -> GaussianParams {
        let mut p = GaussianParams::new();
        p.push_isotropic(Vec3::new(0.0, 0.0, 0.0), 0.3, [0.9, 0.2, 0.1], 0.8);
        p.push_isotropic(Vec3::new(0.5, 0.3, 1.0), 0.2, [0.1, 0.8, 0.3], 0.6);
        p.push_isotropic(Vec3::new(-0.8, -0.2, 0.5), 0.25, [0.2, 0.3, 0.9], 0.7);
        // Make them anisotropic and rotated so all gradient paths are active.
        p.set_log_scale(0, Vec3::new(-1.2, -1.8, -1.5));
        p.set_quat(0, Quat::new(0.9, 0.2, -0.3, 0.1));
        p.set_log_scale(1, Vec3::new(-1.6, -1.3, -2.0));
        p.set_quat(1, Quat::new(0.7, -0.4, 0.2, 0.5));
        p
    }

    #[test]
    fn project_keeps_visible_gaussians() {
        let params = sample_params();
        let cam = test_camera();
        let vp = Viewport::full(&cam);
        let splats = project_splats(&params, &cam, 3, &vp);
        assert_eq!(splats.len(), 3);
        for s in &splats {
            assert!(s.depth > 0.0);
            assert!(s.radius > 0.0);
            assert!(s.opacity > 0.0 && s.opacity < 1.0);
        }
    }

    #[test]
    fn behind_camera_gaussian_is_culled() {
        let mut params = sample_params();
        params.set_mean(1, Vec3::new(0.0, 0.0, -20.0));
        let cam = test_camera();
        let vp = Viewport::full(&cam);
        let splats = project_splats(&params, &cam, 3, &vp);
        assert_eq!(splats.len(), 2);
        assert!(splats.iter().all(|s| s.idx != 1));
    }

    #[test]
    fn far_offscreen_gaussian_is_culled() {
        let mut params = sample_params();
        params.set_mean(2, Vec3::new(500.0, 0.0, 0.0));
        let cam = test_camera();
        let vp = Viewport::full(&cam);
        let splats = project_splats(&params, &cam, 3, &vp);
        assert!(splats.iter().all(|s| s.idx != 2));
    }

    #[test]
    fn central_gaussian_projects_near_center() {
        let params = sample_params();
        let cam = test_camera();
        let vp = Viewport::full(&cam);
        let splats = project_splats(&params, &cam, 3, &vp);
        let s0 = splats.iter().find(|s| s.idx == 0).unwrap();
        assert!((s0.mean2d.x - cam.cx).abs() < 1.0);
        assert!((s0.mean2d.y - cam.cy).abs() < 1.0);
        assert!((s0.depth - 4.0).abs() < 1e-3);
    }

    #[test]
    fn viewport_restriction_culls_splats() {
        let params = sample_params();
        let cam = test_camera();
        let full = Viewport::full(&cam);
        let left = Viewport {
            x0: 0,
            y0: 0,
            x1: 4,
            y1: cam.height,
        };
        let all = project_splats(&params, &cam, 3, &full);
        let some = project_splats(&params, &cam, 3, &left);
        assert!(some.len() <= all.len());
    }

    /// Full finite-difference check of the projection backward pass: perturb
    /// every parameter of every Gaussian and compare against the analytic
    /// gradient of a synthetic loss over splat outputs.
    #[test]
    fn projection_backward_matches_finite_difference() {
        let params = sample_params();
        let cam = test_camera();
        let vp = Viewport::full(&cam);

        // Synthetic loss: fixed linear weights over every splat output field.
        let loss = |p: &GaussianParams| -> f64 {
            let splats = project_splats(p, &cam, 3, &vp);
            let mut l = 0.0f64;
            for s in &splats {
                let k = s.idx as f64 + 1.0;
                l += k * (0.7 * s.mean2d.x as f64 + 0.3 * s.mean2d.y as f64);
                l += k
                    * (0.11 * s.conic.xx as f64 - 0.07 * s.conic.xy as f64
                        + 0.05 * s.conic.yy as f64);
                l += k
                    * (0.5 * s.color[0] as f64 - 0.2 * s.color[1] as f64 + 0.1 * s.color[2] as f64);
                l += k * 0.9 * s.opacity as f64;
            }
            l
        };

        let splats = project_splats(&params, &cam, 3, &vp);
        let grads: Vec<SplatGrad> = splats
            .iter()
            .map(|s| {
                let k = s.idx as f32 + 1.0;
                SplatGrad {
                    d_mean2d: Vec2::new(0.7 * k, 0.3 * k),
                    d_conic: Sym2::new(0.11 * k, -0.07 * k, 0.05 * k),
                    d_color: [0.5 * k, -0.2 * k, 0.1 * k],
                    d_opacity: 0.9 * k,
                }
            })
            .collect();
        let analytic = projection_backward(&params, &cam, 3, &splats, &grads);

        let eps = 2e-3;
        let check =
            |analytic_val: f32, plus: GaussianParams, minus: GaussianParams, label: &str| {
                let fd = ((loss(&plus) - loss(&minus)) / (2.0 * eps as f64)) as f32;
                let tol = 2e-2 * (1.0 + fd.abs());
                assert!(
                    (fd - analytic_val).abs() < tol,
                    "{label}: fd={fd} analytic={analytic_val}"
                );
            };

        for i in 0..params.len() {
            for axis in 0..3 {
                // Means.
                let mut plus = params.clone();
                let mut minus = params.clone();
                let mut m = plus.mean(i).to_array();
                m[axis] += eps;
                plus.set_mean(i, Vec3::from_array(m));
                m[axis] -= 2.0 * eps;
                minus.set_mean(i, Vec3::from_array(m));
                check(
                    analytic.means[3 * i + axis],
                    plus,
                    minus,
                    &format!("mean g{i} axis{axis}"),
                );

                // Log-scales.
                let mut plus = params.clone();
                let mut minus = params.clone();
                let mut s = plus.log_scale(i).to_array();
                s[axis] += eps;
                plus.set_log_scale(i, Vec3::from_array(s));
                s[axis] -= 2.0 * eps;
                minus.set_log_scale(i, Vec3::from_array(s));
                check(
                    analytic.log_scales[3 * i + axis],
                    plus,
                    minus,
                    &format!("log_scale g{i} axis{axis}"),
                );
            }
            for axis in 0..4 {
                let mut plus = params.clone();
                let mut minus = params.clone();
                let mut q = plus.quat(i).to_array();
                q[axis] += eps;
                plus.set_quat(i, Quat::from_array(q));
                q[axis] -= 2.0 * eps;
                minus.set_quat(i, Quat::from_array(q));
                check(
                    analytic.quats[4 * i + axis],
                    plus,
                    minus,
                    &format!("quat g{i} axis{axis}"),
                );
            }
            // Opacity.
            let mut plus = params.clone();
            let mut minus = params.clone();
            plus.set_opacity_logit(i, params.opacity_logit(i) + eps);
            minus.set_opacity_logit(i, params.opacity_logit(i) - eps);
            check(analytic.opacities[i], plus, minus, &format!("opacity g{i}"));
            // A few SH coefficients (DC plus two higher-order ones).
            for &coeff in &[0usize, 4, 13] {
                for ch in 0..3 {
                    let k = 3 * coeff + ch;
                    let mut plus = params.clone();
                    let mut minus = params.clone();
                    plus.sh_coeffs_mut(i)[k] += eps;
                    minus.sh_coeffs_mut(i)[k] -= eps;
                    check(
                        analytic.sh[48 * i + k],
                        plus,
                        minus,
                        &format!("sh g{i} coeff{coeff} ch{ch}"),
                    );
                }
            }
        }
    }
}
