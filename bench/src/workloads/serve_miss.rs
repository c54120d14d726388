//! `serve_miss`: an in-process `RenderServer` kept busy with eight
//! outstanding tickets, every pose unique, so the forward kernel, the queue
//! and same-scene batching do the work and the frame cache only churns.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use gs_scale::core::camera::Camera;
use gs_scale::core::gaussian::GaussianParams;
use gs_scale::core::image::Image;
use gs_scale::platform::PlatformSpec;
use gs_scale::serve::{RenderRequest, RenderServer, SceneRegistry, ServeConfig, Ticket};

use super::serve_probes::{probe_frame_cache, probe_served_frame, same_bytes};
use super::{
    altitude_for_ratio, flyover_scene, model_frame, overhead_camera, PoseLattice, EXTENT, MB,
    PROBE_BASE,
};
use crate::harness::{deadline, Layers, Model, OpSample, Tally, Workload, VERIFY_EVERY};
use crate::trace::Recorder;

const SCENES: usize = 2;
const GAUSSIANS: usize = 20_000;
const WIDTH: usize = 160;
const HEIGHT: usize = 120;
/// Tickets the generator keeps outstanding: more than the workers, so the
/// queue, the scheduler and same-scene batching are engaged.
const WINDOW: usize = 8;
/// Share of a scene inside each view's frustum.
const VIEW_RATIO: f64 = 0.25;
/// Small enough that eviction is steady from the first measured op
/// (a frame is 230 kB).
const CACHE_BYTES: u64 = 8 << 20;
const WARM_OPS: u64 = 64;
/// Leading poses of the op list the platform model is evaluated on.
const MODEL_OPS: u64 = 8;
const PROBE_OPS: u64 = 12;

pub struct ServeMiss {
    params: Vec<Arc<GaussianParams>>,
    background: [f32; 3],
    server: RenderServer,
    lattice: PoseLattice,
    altitude: f32,
    next_pose: u64,
    tally: Tally,
    hits: u64,
    kept: Vec<(u64, Arc<Image>)>,
    model: Model,
    generate_ms: f64,
    load_ms: f64,
}

fn scene_id(index: u64) -> String {
    format!("scene{}", index % SCENES as u64)
}

impl ServeMiss {
    pub fn new(seed: u64) -> Self {
        let started = Instant::now();
        let scenes: Vec<_> = (0..SCENES as u64)
            .map(|k| flyover_scene("serve_miss", GAUSSIANS, WIDTH, HEIGHT, seed.wrapping_add(k)))
            .collect();
        let generate_ms = started.elapsed().as_secs_f64() * 1e3 / SCENES as f64;
        let background = scenes[0].background;
        let altitude =
            altitude_for_ratio(&scenes[0].gt_params, WIDTH, HEIGHT, 0.0, 0.0, VIEW_RATIO);
        let params: Vec<_> = scenes.into_iter().map(|s| Arc::new(s.gt_params)).collect();

        let server = RenderServer::new(
            ServeConfig {
                workers: 2,
                cache_bytes: CACHE_BYTES,
                ..ServeConfig::default()
            },
            SceneRegistry::with_budget(1 << 30),
        );
        let started = Instant::now();
        for (k, p) in params.iter().enumerate() {
            server
                .load_scene(scene_id(k as u64), Arc::clone(p), background)
                .expect("the scene fits the registry budget");
        }
        let load_ms = started.elapsed().as_secs_f64() * 1e3 / SCENES as f64;

        let mut this = Self {
            params,
            background,
            server,
            lattice: PoseLattice::new(0.25 * EXTENT, seed),
            altitude,
            next_pose: 0,
            tally: Tally::default(),
            hits: 0,
            kept: Vec::new(),
            model: Model {
                images_per_s: 0.0,
                peak_gpu_mb: 0.0,
            },
            generate_ms,
            load_ms,
        };
        // The first op on every scene is part of set-up, and the platform
        // model is evaluated on the same leading poses.
        let platform = PlatformSpec::laptop_rtx4070m();
        let mut model_s = 0.0;
        for index in 0..MODEL_OPS {
            let cam = this.camera(index);
            let (image, seconds) = model_frame(
                &this.params[(index % SCENES as u64) as usize],
                &cam,
                background,
                &platform,
            );
            model_s += seconds;
            if index < SCENES as u64 {
                let served = this
                    .server
                    .render_blocking(RenderRequest::full(scene_id(index), cam));
                this.tally.attempted += 1;
                this.tally.failed += u64::from(!served.is_ok_and(|f| same_bytes(&f.image, &image)));
            }
        }
        this.next_pose = MODEL_OPS;
        this.model = Model {
            images_per_s: MODEL_OPS as f64 / model_s,
            peak_gpu_mb: this.server.used_bytes() as f64 / MB,
        };
        this
    }

    fn camera(&self, index: u64) -> Camera {
        let (x, y) = self.lattice.pose(index);
        overhead_camera(WIDTH, HEIGHT, x, y, self.altitude)
    }

    fn submit(&mut self) -> Option<(u64, Instant, Ticket)> {
        let index = self.next_pose;
        self.next_pose += 1;
        let request = RenderRequest::full(scene_id(index), self.camera(index));
        let submitted = Instant::now();
        self.tally.attempted += 1;
        match self.server.submit(request) {
            Ok(ticket) => Some((index, submitted, ticket)),
            Err(_) => {
                self.tally.failed += 1;
                None
            }
        }
    }

    /// Keeps [`WINDOW`] tickets outstanding until `ops` have been submitted
    /// or `deadline` passes, waiting on the oldest ticket each time.
    fn drive(
        &mut self,
        ops: u64,
        deadline: Option<Instant>,
        rec: Option<&Recorder>,
    ) -> Vec<OpSample> {
        let start = Instant::now();
        let mut window: VecDeque<(u64, Instant, Ticket)> = VecDeque::with_capacity(WINDOW);
        let mut samples = Vec::new();
        let mut submitted = 0;
        loop {
            while window.len() < WINDOW
                && submitted < ops
                && deadline.is_none_or(|d| Instant::now() < d)
            {
                submitted += 1;
                window.extend(self.submit());
            }
            let Some((index, t0, ticket)) = window.pop_front() else {
                return samples;
            };
            let reply = ticket.wait();
            let t1 = Instant::now();
            if let Some(rec) = rec {
                rec.record(("bench", "op"), 0, index as u32, t0, t1);
            }
            match reply {
                Ok(frame) => {
                    self.hits += u64::from(frame.cache_hit);
                    if index.is_multiple_of(VERIFY_EVERY) {
                        self.kept.push((index, frame.image));
                    }
                }
                Err(_) => self.tally.failed += 1,
            }
            samples.push(OpSample {
                end_s: (t1 - start).as_secs_f64(),
                lat_ms: (t1 - t0).as_secs_f64() * 1e3,
            });
        }
    }
}

impl Workload for ServeMiss {
    fn warm_up(&mut self) {
        self.drive(WARM_OPS, None, None);
    }

    fn run(&mut self, seconds: f64, rec: Option<&Recorder>) -> Vec<OpSample> {
        self.drive(u64::MAX, Some(deadline(Instant::now(), seconds)), rec)
    }

    fn verify(&mut self) -> Tally {
        for (index, served) in std::mem::take(&mut self.kept) {
            let params = &self.params[(index % SCENES as u64) as usize];
            let direct = gs_scale::render::pipeline::render_image(
                params,
                &self.camera(index),
                3,
                self.background,
            );
            self.tally.failed += u64::from(!same_bytes(&served, &direct));
        }
        self.tally
    }

    fn model(&self) -> Model {
        self.model
    }

    fn probe(&mut self, rec: &Recorder, layers: &mut Layers) {
        let pose_quant = ServeConfig::default().pose_quant;
        for index in PROBE_BASE..PROBE_BASE + PROBE_OPS {
            let cam = self.camera(index);
            let params = Arc::clone(&self.params[(index % SCENES as u64) as usize]);
            let request = RenderRequest::full(scene_id(index), cam);
            self.tally.attempted += 1;
            let ok = probe_served_frame(
                layers,
                rec,
                index as u32,
                &params,
                self.background,
                &request,
                Some("gs-serve.inproc_overhead_us"),
                || {
                    self.server
                        .render_blocking(request.clone())
                        .map(|f| f.image)
                },
            );
            self.tally.failed += u64::from(!ok);
        }
        let keys: Vec<_> = (0..256)
            .map(|i| RenderRequest::full(scene_id(i), self.camera(PROBE_BASE + PROBE_OPS + i)))
            .collect();
        probe_frame_cache(
            layers,
            CACHE_BYTES,
            pose_quant,
            &keys,
            &Arc::new(Image::zeros(WIDTH, HEIGHT)),
        );

        let stats = self.server.stats();
        layers.set("gs-serve.mean_batch", stats.mean_batch_size());
        layers.set(
            "gs-serve.cache_hit_share",
            self.hits as f64 / self.tally.attempted.max(1) as f64,
        );
        layers.set("gs-serve.scene_load_ms", self.load_ms);
        layers.set("gs-scene.generate_ms", self.generate_ms);
        let started = Instant::now();
        std::hint::black_box(self.server.metrics_text());
        layers.set(
            "gs-obs.metrics_text_us",
            started.elapsed().as_secs_f64() * 1e6,
        );
    }
}
