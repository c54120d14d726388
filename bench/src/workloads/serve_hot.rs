//! `serve_hot`: the HTTP front-end on loopback over a two-worker
//! `RenderServer`, two keep-alive connections, nine requests in ten drawn
//! Zipf(1) from 64 hot poses: the frame cache's read path, `http` and
//! `wire` do the work; p50 is a cache hit, p95 a miss.

use std::borrow::Cow;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use gs_scale::core::gaussian::GaussianParams;
use gs_scale::core::image::Image;
use gs_scale::core::math::Vec3;
use gs_scale::core::rng::{Rng64, Zipf};
use gs_scale::platform::PlatformSpec;
use gs_scale::render::pipeline::render_image;
use gs_scale::serve::http::client;
use gs_scale::serve::wire::{decode_raw_f32, encode_raw_f32};
use gs_scale::serve::{
    HttpConfig, HttpServer, RenderServer, SceneRegistry, SceneSpec, ServeConfig, WireRequest,
};

use super::serve_probes::{probe_frame_cache, probe_served_frame};
use super::{
    altitude_for_ratio, model_frame, overhead_camera, wire_request, PoseLattice, MB, PROBE_BASE,
};
use crate::harness::{
    closed_loop, deadline, drive_clients, Layers, Model, OpSample, Tally, Workload, PROBE_OP,
    VERIFY_EVERY,
};
use crate::stats::median;
use crate::trace::Recorder;

const SCENES: u64 = 4;
const GAUSSIANS: usize = 2_000;
const WIDTH: usize = 96;
const HEIGHT: usize = 72;
const CONNECTIONS: u64 = 2;
const HOT_POSES: u64 = 64;
const HOT_SHARE: f64 = 0.9;
const VIEW_RATIO: f64 = 0.5;
const WARM_OPS_PER_CONNECTION: u64 = 2_000;
const MODEL_OPS: u64 = 8;
const PROBE_OPS: u64 = 200;

/// A hot pose: its request body and the bytes a correct reply carries.
struct HotPose {
    body: String,
    frame: Vec<u8>,
}

/// What the connections share while they run.
struct Traffic {
    params: Vec<Arc<GaussianParams>>,
    background: [f32; 3],
    lattice: PoseLattice,
    altitude: f32,
    hot: Vec<HotPose>,
    zipf: Zipf,
}

impl Traffic {
    /// The request for pose `index` (hot poses are `0..HOT_POSES`).
    fn request(&self, index: u64) -> WireRequest {
        let (x, y) = self.lattice.pose(index);
        let cam = overhead_camera(WIDTH, HEIGHT, x, y, self.altitude);
        wire_request(
            &format!("scene{}", index % SCENES),
            &cam,
            Vec3::new(0.0, 0.0, 1.0),
        )
    }

    /// The bytes a correct reply to pose `index` carries: a direct render.
    fn direct_frame(&self, index: u64) -> Vec<u8> {
        let request = self.request(index);
        let params = &self.params[(index % SCENES) as usize];
        encode_raw_f32(&render_image(
            params,
            &request.to_render_request().camera,
            3,
            self.background,
        ))
    }
}

/// One keep-alive connection and its closed loop.
struct Connection {
    stream: TcpStream,
    rng: Rng64,
    /// This connection's next unique pose; connections interleave.
    next_unique: u64,
    ops: u64,
    hits: u64,
    tally: Tally,
    kept: Vec<(u64, Vec<u8>)>,
}

impl Connection {
    /// Draws the next pose of the mix: `(index, hot)`.
    fn draw(&mut self, traffic: &Traffic) -> (u64, bool) {
        if self.rng.gen_f64() < HOT_SHARE {
            (traffic.zipf.sample(&mut self.rng) as u64, true)
        } else {
            let index = self.next_unique;
            self.next_unique += CONNECTIONS;
            (index, false)
        }
    }

    /// One `POST /render`; returns the op's id and its submit and reply
    /// instants.
    fn op(&mut self, traffic: &Traffic) -> (u32, Instant, Instant) {
        let (index, hot) = self.draw(traffic);
        let body: Cow<'_, str> = if hot {
            Cow::Borrowed(&traffic.hot[index as usize].body)
        } else {
            Cow::Owned(traffic.request(index).to_body())
        };
        let t0 = Instant::now();
        let reply = client::request(&mut self.stream, "POST", "/render", body.as_bytes());
        let t1 = Instant::now();
        self.ops += 1;
        self.tally.attempted += 1;
        match reply {
            Ok(reply) if reply.status == 200 => {
                self.hits += u64::from(reply.header("x-cache-hit") == Some("1"));
                if self.ops.is_multiple_of(VERIFY_EVERY) {
                    if hot {
                        self.tally.failed +=
                            u64::from(reply.body != traffic.hot[index as usize].frame);
                    } else {
                        self.kept.push((index, reply.body));
                    }
                }
            }
            _ => self.tally.failed += 1,
        }
        (self.ops as u32, t0, t1)
    }
}

pub struct ServeHot {
    // Dropped in this order: connections close, the front-end stops, then
    // the render server it serves.
    connections: Vec<Connection>,
    _http: HttpServer,
    server: Arc<RenderServer>,
    traffic: Traffic,
    model: Model,
    load_ms: f64,
    seed: u64,
}

impl ServeHot {
    pub fn new(seed: u64) -> Self {
        // The serving tier's own scene description: a sparse scatter of
        // small Gaussians, so that a miss costs little next to the HTTP
        // round trip and the cache's read path carries the workload.
        let spec = SceneSpec::new(GAUSSIANS);
        let background = spec.background;
        let params: Vec<_> = (0..SCENES)
            .map(|k| {
                Arc::new(
                    SceneSpec {
                        seed: seed.wrapping_add(k),
                        ..spec.clone()
                    }
                    .build(),
                )
            })
            .collect();
        let altitude = altitude_for_ratio(&params[0], WIDTH, HEIGHT, 0.0, 0.0, VIEW_RATIO);

        let server = Arc::new(RenderServer::new(
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            SceneRegistry::with_budget(1 << 30),
        ));
        let started = Instant::now();
        for (k, p) in params.iter().enumerate() {
            server
                .load_scene(format!("scene{k}"), Arc::clone(p), background)
                .expect("the scene fits the registry budget");
        }
        let load_ms = started.elapsed().as_secs_f64() * 1e3 / SCENES as f64;
        let http = HttpServer::bind(HttpConfig::default(), Arc::clone(&server))
            .expect("bind a loopback port");

        let mut traffic = Traffic {
            params,
            background,
            lattice: PoseLattice::new(0.25 * spec.extent[0], seed),
            altitude,
            hot: Vec::new(),
            zipf: Zipf::new(HOT_POSES as usize, 1.0),
        };
        let platform = PlatformSpec::laptop_rtx4070m();
        let mut model_s = 0.0;
        for index in 0..HOT_POSES {
            let request = traffic.request(index);
            let frame = if index < MODEL_OPS {
                let params = &traffic.params[(index % SCENES) as usize];
                let (image, seconds) = model_frame(
                    params,
                    &request.to_render_request().camera,
                    background,
                    &platform,
                );
                model_s += seconds;
                encode_raw_f32(&image)
            } else {
                traffic.direct_frame(index)
            };
            traffic.hot.push(HotPose {
                body: request.to_body(),
                frame,
            });
        }

        let mut connections: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let stream =
                    TcpStream::connect(http.local_addr()).expect("connect to the front-end");
                stream.set_nodelay(true).expect("set TCP_NODELAY");
                Connection {
                    stream,
                    rng: Rng64::seed_from_u64(seed ^ (0x686f_7400 + c)),
                    next_unique: HOT_POSES + c,
                    ops: 0,
                    hits: 0,
                    tally: Tally::default(),
                    kept: Vec::new(),
                }
            })
            .collect();
        // The first op on every scene is part of set-up.
        for index in 0..SCENES {
            let hot = &traffic.hot[index as usize];
            let reply = client::request(
                &mut connections[0].stream,
                "POST",
                "/render",
                hot.body.as_bytes(),
            );
            connections[0].tally.attempted += 1;
            connections[0].tally.failed +=
                u64::from(!reply.is_ok_and(|r| r.status == 200 && r.body == hot.frame));
        }
        let model = Model {
            images_per_s: MODEL_OPS as f64 / model_s,
            peak_gpu_mb: server.used_bytes() as f64 / MB,
        };
        Self {
            connections,
            _http: http,
            server,
            traffic,
            model,
            load_ms,
            seed,
        }
    }

    /// Runs every connection's closed loop on a thread of its own, for `ops`
    /// operations each or until `seconds` have passed.
    fn drive(&mut self, ops: u64, seconds: Option<f64>, rec: Option<&Recorder>) -> Vec<OpSample> {
        let start = Instant::now();
        let deadline = seconds.map(|s| deadline(start, s));
        let traffic = &self.traffic;
        drive_clients(&mut self.connections, |c| {
            closed_loop(ops, start, deadline, rec, || c.op(traffic))
        })
    }
}

impl Workload for ServeHot {
    fn warm_up(&mut self) {
        self.drive(WARM_OPS_PER_CONNECTION, None, None);
    }

    fn run(&mut self, seconds: f64, rec: Option<&Recorder>) -> Vec<OpSample> {
        self.drive(u64::MAX, Some(seconds), rec)
    }

    fn verify(&mut self) -> Tally {
        let mut total = Tally::default();
        for c in &mut self.connections {
            for (index, served) in std::mem::take(&mut c.kept) {
                let direct = self.traffic.direct_frame(index);
                c.tally.failed += u64::from(served != direct);
            }
            total.attempted += c.tally.attempted;
            total.failed += c.tally.failed;
        }
        total
    }

    fn model(&self) -> Model {
        self.model
    }

    fn probe(&mut self, rec: &Recorder, layers: &mut Layers) {
        let pose_quant = ServeConfig::default().pose_quant;
        let traffic = &self.traffic;
        let connection = &mut self.connections[0];
        // A fixed point in the mix, so the probed sample is the same for a
        // seed however long the loop ran.
        connection.rng = Rng64::seed_from_u64(self.seed ^ PROBE_BASE);
        connection.next_unique = PROBE_BASE;
        // Per-hit samples in µs: HTTP hit, in-process hit, bare round trip.
        let (mut http_hit_us, mut inproc_hit_us, mut floor_us) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut mix = Vec::new();
        for n in 0..PROBE_OPS {
            let op = n as u32;
            let (index, hot) = connection.draw(traffic);
            let wire = traffic.request(index);
            let body = wire.to_body();
            let request = wire.to_render_request();
            let params = &traffic.params[(index % SCENES) as usize];
            connection.tally.attempted += 1;
            mix.push(request.clone());

            if !hot {
                // A miss: the HTTP round trip is the op; its render path is
                // replayed beneath it.
                let stream = &mut connection.stream;
                let ok = probe_served_frame(
                    layers,
                    rec,
                    op,
                    params,
                    traffic.background,
                    &request,
                    None,
                    || {
                        let reply = client::request(stream, "POST", "/render", body.as_bytes())
                            .map_err(|e| e.to_string())?;
                        decode_raw_f32(WIDTH, HEIGHT, &reply.body)
                            .map(Arc::new)
                            .map_err(|e| e.to_string())
                    },
                );
                connection.tally.failed += u64::from(!ok);
                continue;
            }

            // A hit: HTTP round trip, then its parts — the bare transport
            // (`GET /healthz`), request parsing, the in-process hit path and
            // frame encoding — as children.
            let t0 = Instant::now();
            let reply = client::request(&mut connection.stream, "POST", "/render", body.as_bytes());
            let t1 = Instant::now();
            let parent = rec.record(("bench", PROBE_OP), 0, op, t0, t1);
            let expected = &traffic.hot[index as usize].frame;
            connection.tally.failed +=
                u64::from(!reply.is_ok_and(|r| r.status == 200 && &r.body == expected));
            let (floor, _) = layers.timed(rec, "gs-serve.http_floor_us", parent, op, || {
                client::request(&mut connection.stream, "GET", "/healthz", &[])
            });
            floor_us.push(t1.elapsed().as_secs_f64() * 1e6);
            let (parsed, _) = layers.timed(rec, "gs-serve.wire_parse_us", parent, op, || {
                WireRequest::parse(&body)
            });
            connection.tally.failed += u64::from(floor.is_err() || parsed.is_err());
            let t2 = Instant::now();
            let (frame, _) = layers.timed(rec, "gs-serve.hit_path_us", parent, op, || {
                self.server.render_blocking(request.clone())
            });
            let t3 = Instant::now();
            if let Ok(frame) = frame {
                layers.timed(rec, "gs-serve.wire_encode_us", parent, op, || {
                    encode_raw_f32(&frame.image)
                });
            }
            http_hit_us.push((t1 - t0).as_secs_f64() * 1e6);
            inproc_hit_us.push((t3 - t2).as_secs_f64() * 1e6);
        }
        // Per-hit means for what only hits measure (`timed` summed them), and
        // medians for the two socket figures: a rare 40 ms delayed-ACK stall
        // would otherwise be most of a mean.
        let hits = http_hit_us.len().max(1) as f64;
        for metric in [
            "gs-serve.wire_parse_us",
            "gs-serve.hit_path_us",
            "gs-serve.wire_encode_us",
        ] {
            layers.set(metric, layers.sum(metric) / hits);
        }
        layers.set("gs-serve.http_floor_us", median(&floor_us));
        layers.set(
            "gs-serve.http_overhead_us",
            median(&http_hit_us) - median(&inproc_hit_us),
        );

        probe_frame_cache(
            layers,
            ServeConfig::default().cache_bytes,
            pose_quant,
            &mix,
            &Arc::new(Image::zeros(WIDTH, HEIGHT)),
        );
        let stats = self.server.stats();
        layers.set("gs-serve.mean_batch", stats.mean_batch_size());
        let (hits, ops) = self
            .connections
            .iter()
            .fold((0, 0), |(h, o), c| (h + c.hits, o + c.ops));
        layers.set("gs-serve.cache_hit_share", hits as f64 / ops.max(1) as f64);
        layers.set("gs-serve.scene_load_ms", self.load_ms);
        let started = Instant::now();
        std::hint::black_box(self.server.metrics_text());
        layers.set(
            "gs-obs.metrics_text_us",
            started.elapsed().as_secs_f64() * 1e6,
        );
    }
}
