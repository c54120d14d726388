//! Demonstrates the deferred optimizer update (Section 4.3) in isolation:
//! it follows exactly the same parameter trajectory as dense Adam while
//! touching only the Gaussians that actually received gradients.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example deferred_optimizer
//! ```
//!
//! Exits non-zero unless the flushed parameters equal dense Adam's bit for
//! bit and the deferred update moved less memory.

use gs_scale::core::gaussian::{GaussianGrads, GaussianParams, ParamGroup, SparseGrads};
use gs_scale::core::math::Vec3;
use gs_scale::optim::{AdamConfig, DeferredAdam, DenseAdam};

/// Builds a synthetic sparse-gradient schedule: each step touches a random
/// 8% slice of the Gaussians (the paper's average active ratio).
fn schedule(num_gaussians: usize, steps: usize) -> Vec<SparseGrads> {
    let active = (num_gaussians / 12).max(1);
    (0..steps)
        .map(|s| {
            let ids: Vec<u32> = (0..active)
                .map(|k| ((s * 131 + k * 97) % num_gaussians) as u32)
                .collect();
            let mut grads = GaussianGrads::zeros(ids.len());
            for k in 0..ids.len() {
                let x = (s as f32 * 0.31 + k as f32 * 0.17).sin();
                grads.means[3 * k] = x * 0.02;
                grads.opacities[k] = x * 0.05;
                grads.sh[48 * k] = x * 0.01;
            }
            SparseGrads { ids, grads }
        })
        .collect()
}

fn main() {
    let n = 50_000;
    let steps = 40;
    let mut params = GaussianParams::with_capacity(n);
    for i in 0..n {
        let f = i as f32;
        params.push_isotropic(
            Vec3::new(f.sin() * 100.0, f.cos() * 100.0, (f * 0.71).sin() * 20.0),
            0.2,
            [0.6, 0.5, 0.4],
            0.7,
        );
    }
    let sched = schedule(n, steps);
    let cfg = AdamConfig::reference();

    // Dense Adam: what PyTorch (and the offloading baseline's CPU) does.
    let mut p_dense = params.clone();
    let mut dense = DenseAdam::new(cfg, n);
    let mut dense_bytes = 0.0;
    for s in &sched {
        let stats = dense.step(&mut p_dense, &s.to_dense(n));
        dense_bytes += stats.total_bytes();
    }

    // Deferred Adam: GS-Scale's CPU optimizer.
    let mut p_deferred = params.clone();
    let mut deferred = DeferredAdam::new(cfg, n);
    let mut deferred_bytes = 0.0;
    let mut updated = 0usize;
    for s in &sched {
        let stats = deferred.step(&mut p_deferred, s);
        deferred_bytes += stats.total_bytes();
        updated += stats.updated_gaussians;
    }
    // Restore all still-deferred Gaussians before comparing.
    deferred.flush(&mut p_deferred);

    // Compare trajectories.
    let mut max_diff = 0.0f32;
    let mut differing = 0usize;
    for g in ParamGroup::ALL {
        for (a, b) in p_dense.group(g).iter().zip(p_deferred.group(g)) {
            max_diff = max_diff.max((a - b).abs());
            differing += usize::from(a.to_bits() != b.to_bits());
        }
    }

    println!("deferred optimizer update on {n} Gaussians, {steps} steps, ~8% active per step\n");
    println!(
        "dense Adam     touched {:>9} Gaussian-updates, {:>8.1} MB of memory traffic",
        n * steps,
        dense_bytes / 1e6
    );
    println!(
        "deferred Adam  touched {updated:>9} Gaussian-updates, {:>8.1} MB of memory traffic",
        deferred_bytes / 1e6
    );
    println!(
        "traffic reduction: {:.1}x   |   max parameter divergence after flush: {max_diff:.2e} \
         ({differing} values differ in bits)",
        dense_bytes / deferred_bytes
    );
    println!(
        "\nThe paper rebuilds the skipped steps from a closed form that factors ε out of them\n\
         (Equation 3) and checks the error in Table 3. This implementation replays them with\n\
         dense Adam's own element update instead, so there is no error to check: the divergence\n\
         is exactly zero."
    );
    if differing != 0 || deferred_bytes >= dense_bytes {
        eprintln!("FAILED: the deferred update must match dense Adam exactly and move less memory");
        std::process::exit(1);
    }
}
