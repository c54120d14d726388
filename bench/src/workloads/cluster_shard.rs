//! `cluster_shard`: a `Coordinator` relaying one corridor scene through
//! three single-shard replicas, one of them behind HTTP; two client threads
//! call `Coordinator::render` with unique poses. Routing, the layer codec
//! over the HTTP hop and compositing sit on the critical path, and the
//! relay is serial, so shard times add.

use std::sync::Arc;
use std::time::Instant;

use gs_scale::cluster::{ClusterConfig, Coordinator, Replica, ReplicaTransport};
use gs_scale::core::camera::Camera;
use gs_scale::core::gaussian::GaussianParams;
use gs_scale::core::image::Image;
use gs_scale::core::math::Vec3;
use gs_scale::platform::PlatformSpec;
use gs_scale::render::pipeline::render_image;
use gs_scale::render::rasterize::FrameLayer;
use gs_scale::scene::{TourConfig, TourScene};
use gs_scale::serve::wire::{decode_layer, encode_layer};
use gs_scale::serve::{
    shard_scene, visible_shards, HttpConfig, HttpServer, RenderRequest, RenderServer,
    SceneRegistry, ServeConfig, WireRequest,
};

use super::serve_probes::same_bytes;
use super::{model_frame, wire_request, PoseLattice, FOV_X, MB, PROBE_BASE};
use crate::harness::{
    closed_loop, deadline, drive_clients, Layers, Model, OpSample, Tally, Workload, PROBE_OP,
    VERIFY_EVERY,
};
use crate::trace::Recorder;

const GAUSSIANS: usize = 12_000;
const WIDTH: usize = 128;
const HEIGHT: usize = 96;
const SHARDS: usize = 3;
const CLIENTS: u64 = 2;
const SCENE: &str = "corridor";
const WARM_OPS_PER_CLIENT: u64 = 100;
const MODEL_OPS: u64 = 8;
const PROBE_OPS: u64 = 24;

/// The seeded pose list: cameras just before the corridor's mouth looking
/// exactly down `+x`, so every shard is in view and the shards' depth
/// ranges are disjoint along every ray.
struct Poses {
    lattice: PoseLattice,
}

impl Poses {
    fn request(&self, index: u64) -> WireRequest {
        let (y, z) = self.lattice.pose(index);
        // A third coordinate keeps poses unique past the lattice's size.
        let x = -4.0 + PoseLattice::PITCH * (index / self.lattice.cells() % 32) as f32;
        let position = Vec3::new(x, y, z);
        let forward = Vec3::new(1.0, 0.0, 0.0);
        let cam = Camera::look_at(
            WIDTH,
            HEIGHT,
            FOV_X,
            position,
            position + forward,
            Vec3::new(0.0, 1.0, 0.0),
        );
        wire_request(SCENE, &cam, forward)
    }
}

/// One client thread's state.
#[derive(Default)]
struct Client {
    next: u64,
    frames: u64,
    shards: u64,
    tally: Tally,
    kept: Vec<(u64, Arc<Image>)>,
}

impl Client {
    /// One `Coordinator::render`; returns the op's id and its submit and
    /// reply instants.
    fn op(&mut self, coordinator: &Coordinator, poses: &Poses) -> (u32, Instant, Instant) {
        let index = self.next;
        self.next += CLIENTS;
        let request = poses.request(index);
        let t0 = Instant::now();
        let reply = coordinator.render(&request);
        let t1 = Instant::now();
        self.tally.attempted += 1;
        match reply {
            Ok(frame) => {
                self.frames += 1;
                self.shards += frame.shards_rendered as u64;
                if (index / CLIENTS).is_multiple_of(VERIFY_EVERY) {
                    self.kept.push((index, frame.image));
                }
            }
            Err(_) => self.tally.failed += 1,
        }
        (index as u32, t0, t1)
    }
}

pub struct ClusterShard {
    // Dropped in this order: the coordinator, the HTTP front-end of the
    // third replica, then the render servers.
    coordinator: Coordinator,
    _http: HttpServer,
    http_addr: String,
    servers: Vec<Arc<RenderServer>>,
    params: Arc<GaussianParams>,
    background: [f32; 3],
    poses: Poses,
    clients: Vec<Client>,
    model: Model,
    generate_ms: f64,
    load_ms: f64,
}

impl ClusterShard {
    pub fn new(seed: u64) -> Self {
        let config = TourConfig {
            name: SCENE.to_string(),
            num_gaussians: GAUSSIANS,
            width: WIDTH,
            height: HEIGHT,
            num_views: 0,
            seed,
            ..TourConfig::default()
        };
        let half_section = config.half_section;
        let started = Instant::now();
        let tour = TourScene::generate(config);
        let generate_ms = started.elapsed().as_secs_f64() * 1e3;
        let background = tour.background;
        let params = Arc::new(tour.gt_params);

        // Three one-worker replicas without frame caches; the third is
        // reached over loopback HTTP.
        let servers: Vec<_> = (0..SHARDS)
            .map(|_| {
                Arc::new(RenderServer::new(
                    ServeConfig {
                        workers: 1,
                        cache_bytes: 0,
                        ..ServeConfig::default()
                    },
                    SceneRegistry::with_budget(1 << 30),
                ))
            })
            .collect();
        // Scene uploads and relayed layers exceed the default body limit.
        let http_config = HttpConfig {
            max_body_bytes: 64 << 20,
            ..HttpConfig::default()
        };
        let http = HttpServer::bind(http_config, Arc::clone(&servers[SHARDS - 1]))
            .expect("bind a loopback port");
        let http_addr = http.local_addr().to_string();
        let coordinator = Coordinator::new(ClusterConfig::default());
        for (k, server) in servers.iter().enumerate() {
            let transport = if k + 1 < SHARDS {
                ReplicaTransport::InProcess(Arc::clone(server))
            } else {
                ReplicaTransport::Http(http_addr.clone())
            };
            coordinator
                .add_replica(format!("replica{k}"), transport)
                .expect("the replica answers its budget probe");
        }
        let started = Instant::now();
        coordinator
            .load_scene_sharded(SCENE, Arc::clone(&params), background, SHARDS)
            .expect("every shard fits a replica");
        let load_ms = started.elapsed().as_secs_f64() * 1e3;

        let poses = Poses {
            lattice: PoseLattice::new(0.4 * half_section, seed),
        };
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|c| Client {
                next: MODEL_OPS + c,
                ..Client::default()
            })
            .collect();
        // The first op is part of set-up; the platform model is evaluated on
        // the same leading poses.
        let platform = PlatformSpec::laptop_rtx4070m();
        let mut model_s = 0.0;
        for index in 0..MODEL_OPS {
            let request = poses.request(index);
            let (image, seconds) = model_frame(
                &params,
                &request.to_render_request().camera,
                background,
                &platform,
            );
            model_s += seconds;
            if index == 0 {
                let served = coordinator.render(&request);
                clients[0].tally.attempted += 1;
                clients[0].tally.failed +=
                    u64::from(!served.is_ok_and(|f| same_bytes(&f.image, &image)));
            }
        }
        let resident: u64 = servers.iter().map(|s| s.used_bytes()).sum();
        let model = Model {
            images_per_s: MODEL_OPS as f64 / model_s,
            peak_gpu_mb: resident as f64 / MB,
        };
        Self {
            coordinator,
            _http: http,
            http_addr,
            servers,
            params,
            background,
            poses,
            clients,
            model,
            generate_ms,
            load_ms,
        }
    }

    /// Runs every client's closed loop on a thread of its own, for `ops`
    /// operations each or until `seconds` have passed.
    fn drive(&mut self, ops: u64, seconds: Option<f64>, rec: Option<&Recorder>) -> Vec<OpSample> {
        let start = Instant::now();
        let deadline = seconds.map(|s| deadline(start, s));
        let (coordinator, poses) = (&self.coordinator, &self.poses);
        drive_clients(&mut self.clients, |c| {
            closed_loop(ops, start, deadline, rec, || c.op(coordinator, poses))
        })
    }

    fn direct(&self, request: &WireRequest) -> Image {
        render_image(
            &self.params,
            &request.to_render_request().camera,
            3,
            self.background,
        )
    }
}

impl Workload for ClusterShard {
    fn warm_up(&mut self) {
        self.drive(WARM_OPS_PER_CLIENT, None, None);
    }

    fn run(&mut self, seconds: f64, rec: Option<&Recorder>) -> Vec<OpSample> {
        self.drive(u64::MAX, Some(seconds), rec)
    }

    fn verify(&mut self) -> Tally {
        let mut total = Tally::default();
        for c in 0..self.clients.len() {
            for (index, served) in std::mem::take(&mut self.clients[c].kept) {
                let direct = self.direct(&self.poses.request(index));
                self.clients[c].tally.failed += u64::from(!same_bytes(&served, &direct));
            }
            total.attempted += self.clients[c].tally.attempted;
            total.failed += self.clients[c].tally.failed;
        }
        total
    }

    fn model(&self) -> Model {
        self.model
    }

    fn probe(&mut self, rec: &Recorder, layers: &mut Layers) {
        // The partition the coordinator made at load time, made again here:
        // its shard boxes give the relay order, as they do inside.
        let started = Instant::now();
        let sources = shard_scene(&self.params, SHARDS);
        layers.set(
            "gs-serve.shard_partition_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        let aabbs: Vec<_> = sources.iter().map(|s| s.aabb).collect();
        let max_scales: Vec<_> = sources.iter().map(|s| s.max_scale).collect();
        // Placement is most-free-first with ties to the lower id, so shard
        // `k` lives on replica `k`.
        let http_replica = Replica::new("probe", ReplicaTransport::Http(self.http_addr.clone()));
        // An unsharded copy, placed on the first in-process replica, for the
        // routing overhead.
        self.coordinator
            .load_scene("whole", Arc::clone(&self.params), self.background)
            .expect("the whole scene fits a replica");
        let whole_home = self
            .coordinator
            .scenes()
            .iter()
            .find(|s| s.id == "whole")
            .map(|s| s.replicas[0]);

        let (mut frames, mut shards, mut failed) = (0u64, 0u64, 0u64);
        for index in PROBE_BASE..PROBE_BASE + PROBE_OPS {
            let op = index as u32;
            let request = self.poses.request(index);
            let render_request = request.to_render_request();

            let t0 = Instant::now();
            let reply = self.coordinator.render(&request);
            let t1 = Instant::now();
            let parent = rec.record(("bench", PROBE_OP), 0, op, t0, t1);
            let direct = self.direct(&request);
            failed += u64::from(!reply.as_ref().is_ok_and(|f| same_bytes(&f.image, &direct)));
            frames += u64::from(reply.is_ok());
            shards += reply.map_or(0, |f| f.shards_rendered as u64);

            // The relay, replayed shard by shard directly on the replicas'
            // render servers.
            let order = visible_shards(
                &aabbs,
                &max_scales,
                &render_request.camera,
                &render_request.viewport,
            );
            let mut running: Option<FrameLayer> = None;
            let mut separate: Vec<FrameLayer> = Vec::new();
            let mut layer_us = 0.0;
            for &k in &order {
                let shard_request = RenderRequest {
                    scene: format!("{SCENE}@{k}"),
                    ..render_request.clone()
                };
                let into = running.clone();
                let t2 = Instant::now();
                let (layer, _) = layers.timed(rec, "gs-cluster.shard_layer_us", parent, op, || {
                    self.servers[k].render_layer_blocking(&shard_request, None, into)
                });
                let direct_us = t2.elapsed().as_secs_f64() * 1e6;
                layer_us += direct_us;
                if k == SHARDS - 1 {
                    // The same layer through the HTTP replica: the hop's
                    // cost, and the codec that carries the layer.
                    let wire = WireRequest {
                        scene: shard_request.scene.clone(),
                        ..request.clone()
                    };
                    let t3 = Instant::now();
                    let hopped = http_replica.render_layer(&wire, running.as_ref(), None);
                    layers.add(
                        "gs-cluster.http_hop_us",
                        t3.elapsed().as_secs_f64() * 1e6 - direct_us,
                    );
                    failed += u64::from(hopped.is_err());
                    if let Ok(layer) = &layer {
                        let (decoded, _) =
                            layers.timed(rec, "gs-serve.layer_codec_us", parent, op, || {
                                decode_layer(&encode_layer(layer))
                            });
                        failed += u64::from(decoded.is_err());
                    }
                }
                if let Ok(alone) = self.servers[k].render_layer_blocking(&shard_request, None, None)
                {
                    separate.push(alone);
                }
                running = layer.ok();
            }
            layers.add(
                "gs-cluster.relay_overhead_us",
                (t1 - t0).as_secs_f64() * 1e6 - layer_us,
            );
            // Compositing: what fan-out mode does with separately rendered
            // layers, and the background pass every mode ends with.
            let mut layers_iter = separate.into_iter();
            if let Some(mut front) = layers_iter.next() {
                layers.timed(rec, "gs-render.composite_us", parent, op, || {
                    for behind in layers_iter {
                        front.composite_onto(&behind);
                    }
                    front.finish(self.background)
                });
            }

            // Routing: the coordinator's path to an unsharded scene against
            // the replica's own blocking render.
            let whole = WireRequest {
                scene: "whole".to_string(),
                ..request.clone()
            };
            let t4 = Instant::now();
            failed += u64::from(self.coordinator.render(&whole).is_err());
            let t5 = Instant::now();
            if let Some(home) = whole_home {
                failed += u64::from(
                    self.servers[home]
                        .render_blocking(whole.to_render_request())
                        .is_err(),
                );
            }
            let routed = (t5 - t4).as_secs_f64() - t5.elapsed().as_secs_f64();
            layers.add("gs-cluster.route_overhead_us", routed * 1e6);
            layers.ops += 1;
        }
        self.clients[0].tally.attempted += PROBE_OPS;
        self.clients[0].tally.failed += failed;

        let frames = frames + self.clients.iter().map(|c| c.frames).sum::<u64>();
        let shards = shards + self.clients.iter().map(|c| c.shards).sum::<u64>();
        layers.set(
            "gs-cluster.shards_per_op",
            shards as f64 / frames.max(1) as f64,
        );
        layers.set("gs-serve.scene_load_ms", self.load_ms);
        layers.set("gs-scene.generate_ms", self.generate_ms);
        let started = Instant::now();
        std::hint::black_box(self.servers[0].metrics_text());
        layers.set(
            "gs-obs.metrics_text_us",
            started.elapsed().as_secs_f64() * 1e6,
        );
    }
}
