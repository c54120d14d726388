//! Wire format of the HTTP front-end: the render-request body and the binary
//! frame encodings.
//!
//! A render request travels as a small text body of `key value` lines. The
//! parser is deliberately tolerant: `{`, `}`, `"`, `:` and `,` are treated as
//! whitespace, so the same fields can also be written JSON-ish:
//!
//! ```text
//! scene city
//! pos 0 0 -8
//! target 0 0 0
//! size 96 72
//! fov 1.2
//! sh 3
//! format raw
//! ```
//!
//! is equivalent to `{"scene": "city", "pos": 0 0 -8, ...}`. Required keys
//! are `scene`, `pos`, `target` and `size`; `up` (default `0 1 0`), `fov`
//! (default 1.0 rad), `viewport` (default full image), `sh` (default 3),
//! `format` (`raw` | `ppm`, default `raw`) and `client` (a session id for
//! workload capture; defaults to the `X-Client-Id` header, then the peer
//! address) are optional.
//!
//! Responses are binary frames:
//!
//! * [`WireFormat::RawF32`] — the image's row-major RGB `f32` data as
//!   little-endian bytes (12 bytes per pixel). Lossless: the bytes decode to
//!   exactly the floats the renderer produced.
//! * [`WireFormat::Ppm`] — a binary `P6` PPM with 8-bit channels (values
//!   clamped to `[0, 1]` and scaled), viewable in any image tool.
//!
//! The binary framings of the cluster tier — frame layers, layer requests
//! and scene uploads — carry their payloads as little-endian `f32`s too.
//! One private codec pair serves every framing: `put_f32s` appends a slice
//! in one sized bulk fill, and `get_f32s` decodes into a slice the caller
//! owns (a frame buffer, a layer plane, a parameter group), so no framing
//! converts one float at a time or stages a temporary `Vec`.

use std::time::{Duration, Instant};

use gs_core::camera::{Camera, Viewport};
use gs_core::gaussian::GaussianParams;
use gs_core::image::Image;
use gs_core::math::Vec3;
use gs_core::rng::Rng64;
use gs_obs::{HistogramSnapshot, HISTOGRAM_BUCKETS};
use gs_render::rasterize::FrameLayer;

use crate::request::RenderRequest;

/// Largest accepted image dimension; bounds the allocation a request can ask
/// the renderer for.
pub const MAX_WIRE_DIM: usize = 4096;

/// Largest synthetic scene a `POST /scenes/<id>` body may ask the server to
/// build (bounds both build time and the host-side shard stores). Larger
/// specs are answered with `413`.
pub const MAX_SPEC_GAUSSIANS: usize = 500_000;

/// Whether `id` survives the `to_body()`/`parse()` round trip: non-empty,
/// no whitespace and none of the JSON-ish punctuation the parser strips.
pub fn valid_scene_id(id: &str) -> bool {
    !id.is_empty()
        && !id
            .chars()
            .any(|c| c.is_whitespace() || matches!(c, '{' | '}' | '"' | ':' | ',' | '/'))
}

/// Binary encoding of a rendered frame on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Row-major RGB `f32` little-endian bytes (lossless).
    #[default]
    RawF32,
    /// Binary `P6` PPM with 8-bit channels.
    Ppm,
}

impl WireFormat {
    /// The `Content-Type` header value for this encoding.
    pub fn content_type(self) -> &'static str {
        match self {
            WireFormat::RawF32 => "application/octet-stream",
            WireFormat::Ppm => "image/x-portable-pixmap",
        }
    }

    /// Encodes a rendered frame as a response body in this encoding.
    pub fn encode(self, image: &Image) -> Vec<u8> {
        match self {
            WireFormat::RawF32 => encode_raw_f32(image),
            WireFormat::Ppm => encode_ppm(image),
        }
    }
}

/// How much a request matters under overload. The coordinator's
/// priority-aware load shedding drops [`Priority::Speculative`] work first
/// (prefetches, speculative viewpoint warming) and only degrades
/// [`Priority::Interactive`] traffic — via reduced-SH brown-out — once the
/// overload is sustained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// A user is waiting on this frame (the default).
    #[default]
    Interactive,
    /// Prefetch/warming work that can be shed without a user noticing.
    Speculative,
}

impl Priority {
    /// The wire token (and metric label) for this priority.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Speculative => "speculative",
        }
    }
}

/// A malformed or invalid wire request; the message becomes the 400 body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad request: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

/// A parsed render request as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Scene id (must not contain whitespace or `{ } " : ,`).
    pub scene: String,
    /// Camera center in world coordinates.
    pub position: [f32; 3],
    /// Point the camera looks at.
    pub target: [f32; 3],
    /// Up direction (default `[0, 1, 0]`).
    pub up: [f32; 3],
    /// Horizontal field of view in radians (default 1.0).
    pub fov_x: f32,
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Optional sub-viewport `(x0, y0, x1, y1)`; `None` renders the full
    /// image.
    pub viewport: Option<(usize, usize, usize, usize)>,
    /// SH degree used for color (0..=3, default 3).
    pub sh_degree: usize,
    /// Response encoding.
    pub format: WireFormat,
    /// Optional deadline in milliseconds from the moment the request is
    /// turned into a render request; expired queued requests are answered
    /// with `503` instead of being rendered.
    pub deadline_ms: Option<u64>,
    /// Optional shard index, used by `POST /render_layer` to render a
    /// single shard of a sharded scene as a partial-frame layer. Ignored by
    /// `POST /render`.
    pub shard: Option<usize>,
    /// Optional client/session id (same charset rules as scene ids). The
    /// HTTP front-ends fall back to the `X-Client-Id` header and then the
    /// peer address, so workload capture can always attribute sessions.
    pub client: Option<String>,
    /// How much the request matters under overload (default
    /// [`Priority::Interactive`]); speculative work is shed first.
    pub priority: Priority,
}

impl WireRequest {
    /// A full-image degree-3 request with default up/fov, raw-f32 encoded.
    pub fn new(
        scene: impl Into<String>,
        position: [f32; 3],
        target: [f32; 3],
        width: usize,
        height: usize,
    ) -> Self {
        Self {
            scene: scene.into(),
            position,
            target,
            up: [0.0, 1.0, 0.0],
            fov_x: 1.0,
            width,
            height,
            viewport: None,
            sh_degree: 3,
            format: WireFormat::default(),
            deadline_ms: None,
            shard: None,
            client: None,
            priority: Priority::default(),
        }
    }

    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// [`WireError`] naming the offending key when the body is malformed,
    /// misses a required key, or fails validation.
    pub fn parse(body: &str) -> Result<Self, WireError> {
        let normalized = normalize_body(body);
        let mut tokens = normalized.split_whitespace();

        let mut scene: Option<String> = None;
        let mut position: Option<[f32; 3]> = None;
        let mut target: Option<[f32; 3]> = None;
        let mut up = [0.0f32, 1.0, 0.0];
        let mut fov_x = 1.0f32;
        let mut size: Option<(usize, usize)> = None;
        let mut viewport: Option<(usize, usize, usize, usize)> = None;
        let mut sh_degree = 3usize;
        let mut format = WireFormat::default();
        let mut deadline_ms: Option<u64> = None;
        let mut shard: Option<usize> = None;
        let mut client: Option<String> = None;
        let mut priority = Priority::default();

        use {parse_floats as floats, parse_uints as uints};
        while let Some(key) = tokens.next() {
            match key {
                "scene" => {
                    let id = tokens
                        .next()
                        .ok_or_else(|| err("key \"scene\" is missing its id"))?;
                    scene = Some(id.to_string());
                }
                "pos" => position = Some(floats::<3>(&mut tokens, "pos")?),
                "target" => target = Some(floats::<3>(&mut tokens, "target")?),
                "up" => up = floats::<3>(&mut tokens, "up")?,
                "fov" => fov_x = floats::<1>(&mut tokens, "fov")?[0],
                "size" => {
                    let [w, h] = uints::<2>(&mut tokens, "size")?;
                    size = Some((w, h));
                }
                "viewport" => {
                    let [x0, y0, x1, y1] = uints::<4>(&mut tokens, "viewport")?;
                    viewport = Some((x0, y0, x1, y1));
                }
                "sh" => sh_degree = uints::<1>(&mut tokens, "sh")?[0],
                "deadline_ms" => {
                    deadline_ms = Some(uints::<1>(&mut tokens, "deadline_ms")?[0] as u64)
                }
                "shard" => shard = Some(uints::<1>(&mut tokens, "shard")?[0]),
                "client" => {
                    let id = tokens
                        .next()
                        .ok_or_else(|| err("key \"client\" is missing its id"))?;
                    client = Some(id.to_string());
                }
                "priority" => {
                    priority = match tokens.next() {
                        Some("interactive") => Priority::Interactive,
                        Some("speculative") => Priority::Speculative,
                        other => {
                            return Err(err(format!(
                                "key \"priority\": expected \"interactive\" or \"speculative\", got {other:?}"
                            )))
                        }
                    };
                }
                "format" => {
                    format = match tokens.next() {
                        Some("raw") => WireFormat::RawF32,
                        Some("ppm") => WireFormat::Ppm,
                        other => {
                            return Err(err(format!(
                                "key \"format\": expected \"raw\" or \"ppm\", got {other:?}"
                            )))
                        }
                    };
                }
                unknown => return Err(err(format!("unknown key {unknown:?}"))),
            }
        }

        let scene = scene.ok_or_else(|| err("missing required key \"scene\""))?;
        let position = position.ok_or_else(|| err("missing required key \"pos\""))?;
        let target = target.ok_or_else(|| err("missing required key \"target\""))?;
        let (width, height) = size.ok_or_else(|| err("missing required key \"size\""))?;

        let req = Self {
            scene,
            position,
            target,
            up,
            fov_x,
            width,
            height,
            viewport,
            sh_degree,
            format,
            deadline_ms,
            shard,
            client,
            priority,
        };
        req.validate()?;
        Ok(req)
    }

    /// Validates field ranges and camera-geometry degeneracies.
    ///
    /// # Errors
    ///
    /// [`WireError`] naming the offending field.
    pub fn validate(&self) -> Result<(), WireError> {
        // Enforce the scene-id charset so `to_body()`/`parse()` round-trips:
        // whitespace would split the id into extra tokens, the JSON-ish
        // punctuation is normalized away by the parser, and `/` would break
        // the `POST /scenes/<id>` path.
        if !valid_scene_id(&self.scene) {
            return Err(err(
                "scene id must be non-empty, without whitespace or { } \" : , /",
            ));
        }
        // Client ids share the scene-id charset (and must survive the same
        // round trip); unlike scenes they are optional.
        if self.client.as_deref().is_some_and(|c| !valid_scene_id(c)) {
            return Err(err(
                "client id must be non-empty, without whitespace or { } \" : , /",
            ));
        }
        if self.width == 0 || self.height == 0 {
            return Err(err("size must be positive"));
        }
        if self.width > MAX_WIRE_DIM || self.height > MAX_WIRE_DIM {
            return Err(err(format!("size exceeds the {MAX_WIRE_DIM} pixel limit")));
        }
        if self.sh_degree > gs_core::sh::MAX_DEGREE {
            return Err(err(format!(
                "sh degree {} exceeds the maximum {}",
                self.sh_degree,
                gs_core::sh::MAX_DEGREE
            )));
        }
        if !(self.fov_x > 0.0 && self.fov_x < std::f32::consts::PI) {
            return Err(err("fov must lie in (0, pi) radians"));
        }
        if let Some((x0, y0, x1, y1)) = self.viewport {
            if x0 >= x1 || y0 >= y1 || x1 > self.width || y1 > self.height {
                return Err(err("viewport must be a non-empty region inside the image"));
            }
        }
        let p = Vec3::new(self.position[0], self.position[1], self.position[2]);
        let t = Vec3::new(self.target[0], self.target[1], self.target[2]);
        let u = Vec3::new(self.up[0], self.up[1], self.up[2]);
        let forward = t - p;
        if forward.norm() < 1.0e-6 {
            return Err(err("pos and target must not coincide"));
        }
        if forward.normalized().cross(u).norm() < 1.0e-6 {
            return Err(err("up must not be parallel to the view direction"));
        }
        Ok(())
    }

    /// Serializes the request into the line-based body format.
    ///
    /// Float fields are printed with Rust's shortest-roundtrip formatting, so
    /// `parse(to_body())` reconstructs bit-identical camera parameters.
    pub fn to_body(&self) -> String {
        let mut body = String::new();
        let [px, py, pz] = self.position;
        let [tx, ty, tz] = self.target;
        let [ux, uy, uz] = self.up;
        body.push_str(&format!("scene {}\n", self.scene));
        body.push_str(&format!("pos {px} {py} {pz}\n"));
        body.push_str(&format!("target {tx} {ty} {tz}\n"));
        body.push_str(&format!("up {ux} {uy} {uz}\n"));
        body.push_str(&format!("fov {}\n", self.fov_x));
        body.push_str(&format!("size {} {}\n", self.width, self.height));
        if let Some((x0, y0, x1, y1)) = self.viewport {
            body.push_str(&format!("viewport {x0} {y0} {x1} {y1}\n"));
        }
        body.push_str(&format!("sh {}\n", self.sh_degree));
        if let Some(ms) = self.deadline_ms {
            body.push_str(&format!("deadline_ms {ms}\n"));
        }
        if let Some(k) = self.shard {
            body.push_str(&format!("shard {k}\n"));
        }
        // Peer-address-derived ids (they contain `:`) are local attribution
        // only — emitting them would fail the receiving side's validation.
        if let Some(c) = &self.client {
            if valid_scene_id(c) {
                body.push_str(&format!("client {c}\n"));
            }
        }
        if self.priority != Priority::default() {
            body.push_str(&format!("priority {}\n", self.priority.name()));
        }
        body.push_str(match self.format {
            WireFormat::RawF32 => "format raw\n",
            WireFormat::Ppm => "format ppm\n",
        });
        body
    }

    /// Pixel size of the frame this request produces (the viewport when
    /// set, else the full image) — the single source of truth for wire
    /// validation and cluster-side layer sizing.
    pub fn frame_size(&self) -> (usize, usize) {
        match self.viewport {
            Some((x0, y0, x1, y1)) => (x1 - x0, y1 - y0),
            None => (self.width, self.height),
        }
    }

    /// Builds the in-process [`RenderRequest`] this wire request describes.
    pub fn to_render_request(&self) -> RenderRequest {
        let camera = Camera::look_at(
            self.width,
            self.height,
            self.fov_x,
            Vec3::new(self.position[0], self.position[1], self.position[2]),
            Vec3::new(self.target[0], self.target[1], self.target[2]),
            Vec3::new(self.up[0], self.up[1], self.up[2]),
        );
        let viewport = match self.viewport {
            Some((x0, y0, x1, y1)) => Viewport { x0, y0, x1, y1 },
            None => Viewport::full(&camera),
        };
        RenderRequest {
            scene: self.scene.clone(),
            camera,
            viewport,
            sh_degree: self.sh_degree,
            deadline: self
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            cancel: None,
            client: self.client.clone(),
            trace: None,
        }
    }

    /// The [`gs_trace::TraceEvent`] this request records as: `client` is
    /// the resolved session id (body key, header or peer address),
    /// `at_us` the arrival timestamp from the recorder's clock, and
    /// `outcome`/`latency_us` how the service answered. Viewport and
    /// response format are capture-lossy by design — replay re-renders full
    /// frames.
    pub fn to_trace_event(
        &self,
        client: &str,
        at_us: u64,
        outcome: gs_trace::Outcome,
        latency_us: u64,
    ) -> gs_trace::TraceEvent {
        gs_trace::TraceEvent {
            at_us,
            scene: self.scene.clone(),
            client: client.to_string(),
            position: self.position,
            target: self.target,
            up: self.up,
            fov_x: self.fov_x,
            width: self.width as u32,
            height: self.height as u32,
            sh_degree: self.sh_degree.min(u8::MAX as usize) as u8,
            deadline_ms: self.deadline_ms.unwrap_or(0).min(u32::MAX as u64) as u32,
            outcome,
            latency_us,
        }
    }

    /// Rebuilds the wire request a [`gs_trace::TraceEvent`] describes —
    /// what a replayer submits. The event's `client` id rides along when it
    /// fits the wire charset (peer addresses contain `:`, which does not).
    pub fn from_trace_event(event: &gs_trace::TraceEvent) -> Self {
        Self {
            scene: event.scene.clone(),
            position: event.position,
            target: event.target,
            up: event.up,
            fov_x: event.fov_x,
            width: event.width as usize,
            height: event.height as usize,
            viewport: None,
            sh_degree: event.sh_degree as usize,
            format: WireFormat::RawF32,
            deadline_ms: (event.deadline_ms > 0).then_some(event.deadline_ms as u64),
            shard: None,
            client: valid_scene_id(&event.client).then(|| event.client.clone()),
            // Capture-lossy like the viewport: traces record interactive
            // traffic shapes, not shedding priorities.
            priority: Priority::default(),
        }
    }
}

/// A synthetic-scene specification as it travels in a `POST /scenes/<id>`
/// body: the same tolerant `key value` line format as render requests.
///
/// ```text
/// gaussians 20000
/// seed 7
/// extent 80 8 8
/// scale 0.1 0.4
/// opacity 0.3 0.9
/// bg 0.05 0.05 0.08
/// shards 4
/// ```
///
/// Only `gaussians` is required. `extent` is the full side length of the
/// generation box per axis (an elongated box produces the corridor scenes
/// that shard into depth-disjoint slabs), `scale` and `opacity` are
/// per-Gaussian sampling ranges, and `shards` overrides the server's
/// automatic size-threshold sharding (`0` = auto).
#[derive(Debug, Clone, PartialEq)]
pub struct SceneSpec {
    /// Number of Gaussians to generate (1..=[`MAX_SPEC_GAUSSIANS`]).
    pub gaussians: usize,
    /// Generation seed (deterministic builds).
    pub seed: u64,
    /// Full extents of the generation box, per axis.
    pub extent: [f32; 3],
    /// `[min, max]` isotropic scale range.
    pub scale: [f32; 2],
    /// `[min, max]` opacity range (inside `(0, 1)`).
    pub opacity: [f32; 2],
    /// Background color registered with the scene.
    pub background: [f32; 3],
    /// Explicit shard count; `None` lets the server decide by size.
    pub shards: Option<usize>,
}

impl SceneSpec {
    /// A spec with `gaussians` Gaussians and the documented defaults.
    pub fn new(gaussians: usize) -> Self {
        Self {
            gaussians,
            seed: 0,
            extent: [60.0, 60.0, 12.0],
            scale: [0.1, 0.4],
            opacity: [0.3, 0.9],
            background: [0.05, 0.05, 0.08],
            shards: None,
        }
    }

    /// Parses and validates a scene-spec body.
    ///
    /// # Errors
    ///
    /// [`WireError`] naming the offending key. Note the
    /// [`MAX_SPEC_GAUSSIANS`] cap is *not* enforced here — the HTTP layer
    /// distinguishes an oversized spec (`413`) from a malformed one (`400`).
    pub fn parse(body: &str) -> Result<Self, WireError> {
        let normalized = normalize_body(body);
        let mut tokens = normalized.split_whitespace();
        let mut spec = SceneSpec::new(0);
        let mut gaussians: Option<usize> = None;
        while let Some(key) = tokens.next() {
            match key {
                "gaussians" => gaussians = Some(parse_uints::<1>(&mut tokens, "gaussians")?[0]),
                "seed" => spec.seed = parse_uints::<1>(&mut tokens, "seed")?[0] as u64,
                "extent" => spec.extent = parse_floats::<3>(&mut tokens, "extent")?,
                "scale" => spec.scale = parse_floats::<2>(&mut tokens, "scale")?,
                "opacity" => spec.opacity = parse_floats::<2>(&mut tokens, "opacity")?,
                "bg" => spec.background = parse_floats::<3>(&mut tokens, "bg")?,
                "shards" => spec.shards = Some(parse_uints::<1>(&mut tokens, "shards")?[0]),
                unknown => return Err(err(format!("unknown key {unknown:?}"))),
            }
        }
        spec.gaussians = gaussians.ok_or_else(|| err("missing required key \"gaussians\""))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Validates field ranges (everything except the size cap — see
    /// [`SceneSpec::parse`]).
    ///
    /// # Errors
    ///
    /// [`WireError`] naming the offending field.
    pub fn validate(&self) -> Result<(), WireError> {
        if self.gaussians == 0 {
            return Err(err("gaussians must be positive"));
        }
        for (i, e) in self.extent.iter().enumerate() {
            if !(e.is_finite() && *e > 0.0) {
                return Err(err(format!("extent axis {i} must be positive and finite")));
            }
        }
        let [lo, hi] = self.scale;
        if !(lo.is_finite() && hi.is_finite() && 0.0 < lo && lo <= hi) {
            return Err(err("scale must be a positive [min, max] range"));
        }
        let [lo, hi] = self.opacity;
        if !(0.0 < lo && lo <= hi && hi < 1.0) {
            return Err(err("opacity must be a [min, max] range inside (0, 1)"));
        }
        if self.background.iter().any(|b| !b.is_finite()) {
            return Err(err("bg must be finite"));
        }
        if self.shards == Some(0) {
            return Err(err("shards must be positive when given"));
        }
        Ok(())
    }

    /// Serializes the spec into the line-based body format
    /// (`parse(to_body())` round-trips).
    pub fn to_body(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!("gaussians {}\n", self.gaussians));
        body.push_str(&format!("seed {}\n", self.seed));
        let [ex, ey, ez] = self.extent;
        body.push_str(&format!("extent {ex} {ey} {ez}\n"));
        body.push_str(&format!("scale {} {}\n", self.scale[0], self.scale[1]));
        body.push_str(&format!(
            "opacity {} {}\n",
            self.opacity[0], self.opacity[1]
        ));
        let [r, g, b] = self.background;
        body.push_str(&format!("bg {r} {g} {b}\n"));
        if let Some(k) = self.shards {
            body.push_str(&format!("shards {k}\n"));
        }
        body
    }

    /// Builds the scene the spec describes: Gaussians scattered uniformly
    /// in the extent box, deterministic in the seed.
    pub fn build(&self) -> GaussianParams {
        let mut rng = Rng64::seed_from_u64(self.seed);
        let mut params = GaussianParams::with_capacity(self.gaussians);
        let half = [
            self.extent[0] / 2.0,
            self.extent[1] / 2.0,
            self.extent[2] / 2.0,
        ];
        for _ in 0..self.gaussians {
            let pos = Vec3::new(
                rng.gen_range(-half[0]..half[0]),
                rng.gen_range(-half[1]..half[1]),
                rng.gen_range(-half[2]..half[2]),
            );
            let scale = rng.gen_range(self.scale[0]..self.scale[1].max(self.scale[0] + 1e-6));
            let rgb = [rng.gen_f32(), rng.gen_f32(), rng.gen_f32()];
            let opacity =
                rng.gen_range(self.opacity[0]..self.opacity[1].max(self.opacity[0] + 1e-6));
            params.push_isotropic(pos, scale, rgb, opacity);
        }
        params
    }
}

/// The shared body normalization of every wire parser: the JSON-ish
/// punctuation becomes whitespace, so line and JSON-ish bodies tokenize
/// identically for [`WireRequest::parse`] and [`SceneSpec::parse`].
fn normalize_body(body: &str) -> String {
    body.chars()
        .map(|c| {
            if matches!(c, '{' | '}' | '"' | ':' | ',') {
                ' '
            } else {
                c
            }
        })
        .collect()
}

fn parse_uints<const N: usize>(
    tokens: &mut std::str::SplitWhitespace<'_>,
    key: &str,
) -> Result<[usize; N], WireError> {
    let mut out = [0usize; N];
    for slot in &mut out {
        let tok = tokens
            .next()
            .ok_or_else(|| err(format!("key {key:?} is missing values")))?;
        *slot = tok.parse::<usize>().map_err(|_| {
            err(format!(
                "key {key:?}: {tok:?} is not a non-negative integer"
            ))
        })?;
    }
    Ok(out)
}

fn parse_floats<const N: usize>(
    tokens: &mut std::str::SplitWhitespace<'_>,
    key: &str,
) -> Result<[f32; N], WireError> {
    let mut out = [0.0f32; N];
    for slot in &mut out {
        let tok = tokens
            .next()
            .ok_or_else(|| err(format!("key {key:?} is missing values")))?;
        *slot = tok
            .parse::<f32>()
            .map_err(|_| err(format!("key {key:?}: {tok:?} is not a number")))?;
        if !slot.is_finite() {
            return Err(err(format!("key {key:?}: {tok:?} is not finite")));
        }
    }
    Ok(out)
}

/// Encodes an image as row-major RGB `f32` little-endian bytes.
pub fn encode_raw_f32(image: &Image) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 * image.data().len());
    put_f32s(&mut out, image.data());
    out
}

/// Decodes [`encode_raw_f32`] bytes back into an image.
///
/// # Errors
///
/// [`WireError`] if `bytes` is not exactly `12 * width * height` bytes.
pub fn decode_raw_f32(width: usize, height: usize, bytes: &[u8]) -> Result<Image, WireError> {
    let expected = 12 * width * height;
    if bytes.len() != expected {
        return Err(err(format!(
            "raw f32 body is {} bytes, expected {expected} for {width}x{height}",
            bytes.len()
        )));
    }
    let mut data = vec![0.0; 3 * width * height];
    get_f32s(bytes, &mut data);
    Ok(Image::from_raw(width, height, data))
}

/// Encodes an image as a binary `P6` PPM with 8-bit channels.
pub fn encode_ppm(image: &Image) -> Vec<u8> {
    let header = format!("P6\n{} {}\n255\n", image.width(), image.height());
    let mut out = Vec::with_capacity(header.len() + image.data().len());
    out.extend_from_slice(header.as_bytes());
    for v in image.data() {
        out.push((v.clamp(0.0, 1.0) * 255.0).round() as u8);
    }
    out
}

// ---- binary frame-layer encoding (cross-node sharded rendering) ----

/// Magic prefix of an encoded [`FrameLayer`].
pub const LAYER_MAGIC: &[u8; 4] = b"GSL1";
/// Magic prefix of an encoded layer *request* envelope.
pub const LAYER_REQUEST_MAGIC: &[u8; 4] = b"GSLQ";
/// Magic prefix of the optional trace block inside a layer-request
/// envelope (see [`encode_layer_request_traced`]).
pub const TRACE_BLOCK_MAGIC: &[u8; 4] = b"GSTC";
/// Magic prefix of a binary scene upload.
pub const SCENE_MAGIC: &[u8; 4] = b"GSSC";

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(bytes: &[u8], at: usize, what: &str) -> Result<u32, WireError> {
    let end = at + 4;
    if bytes.len() < end {
        return Err(err(format!("truncated before {what}")));
    }
    Ok(u32::from_le_bytes([
        bytes[at],
        bytes[at + 1],
        bytes[at + 2],
        bytes[at + 3],
    ]))
}

/// Appends `values` as little-endian bytes: the one `f32` encoder behind
/// every framing. The output is sized once and filled four bytes at a
/// time, which the compiler turns into a bulk copy.
fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    let start = out.len();
    out.resize(start + 4 * values.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Fills `dst` from the little-endian bytes [`put_f32s`] wrote: the one
/// `f32` decoder. Callers check the framing's lengths first, so `bytes`
/// holds exactly `4 * dst.len()` bytes.
fn get_f32s(bytes: &[u8], dst: &mut [f32]) {
    assert_eq!(bytes.len(), 4 * dst.len(), "f32 run length");
    for (v, src) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
        *v = f32::from_le_bytes([src[0], src[1], src[2], src[3]]);
    }
}

/// Encodes a [`FrameLayer`] losslessly: `GSL1`, `u32` width and height
/// (little-endian), then the premultiplied color (12 bytes per pixel) and
/// the per-pixel transmittance (4 bytes per pixel) as little-endian `f32`s.
/// `decode_layer(encode_layer(l))` reproduces `l` bit for bit — the
/// property that keeps cross-node shard composites exact.
pub fn encode_layer(layer: &FrameLayer) -> Vec<u8> {
    let mut out = Vec::with_capacity(layer_len(layer));
    put_layer(&mut out, layer);
    out
}

/// Encoded size of `layer` in bytes.
fn layer_len(layer: &FrameLayer) -> usize {
    12 + 16 * layer.width() * layer.height()
}

/// Appends the [`encode_layer`] bytes of `layer` to `out`.
fn put_layer(out: &mut Vec<u8>, layer: &FrameLayer) {
    out.extend_from_slice(LAYER_MAGIC);
    push_u32(out, layer.width() as u32);
    push_u32(out, layer.height() as u32);
    put_f32s(out, layer.color().data());
    put_f32s(out, layer.transmittance());
}

/// Decodes [`encode_layer`] bytes.
///
/// # Errors
///
/// [`WireError`] on a bad magic, oversized or zero dimensions, or a body
/// that is not exactly `12 + 16 * width * height` bytes.
pub fn decode_layer(bytes: &[u8]) -> Result<FrameLayer, WireError> {
    if bytes.len() < 12 || &bytes[..4] != LAYER_MAGIC {
        return Err(err("not an encoded frame layer (bad magic)"));
    }
    let w = read_u32(bytes, 4, "layer width")? as usize;
    let h = read_u32(bytes, 8, "layer height")? as usize;
    if w == 0 || h == 0 || w > MAX_WIRE_DIM || h > MAX_WIRE_DIM {
        return Err(err(format!("layer dimensions {w}x{h} out of range")));
    }
    let expected = 12 + 16 * w * h;
    if bytes.len() != expected {
        return Err(err(format!(
            "layer body is {} bytes, expected {expected} for {w}x{h}",
            bytes.len()
        )));
    }
    let (color_bytes, t_bytes) = bytes[12..].split_at(12 * w * h);
    let mut color = vec![0.0; 3 * w * h];
    get_f32s(color_bytes, &mut color);
    let mut transmittance = vec![0.0; w * h];
    get_f32s(t_bytes, &mut transmittance);
    Ok(FrameLayer::from_parts(
        Image::from_raw(w, h, color),
        transmittance,
    ))
}

/// Encodes a `POST /render_layer` body: `GSLQ`, a `u32` length-prefixed
/// [`WireRequest`] text body (whose `shard` key selects the shard), then
/// optionally an [`encode_layer`] blob carrying the incoming blend state a
/// nearer shard left off — the relayed composite of cross-node sharded
/// rendering.
pub fn encode_layer_request(request: &WireRequest, layer: Option<&FrameLayer>) -> Vec<u8> {
    encode_layer_request_traced(request, None, layer)
}

/// Like [`encode_layer_request`], with an optional `GSTC` trace block
/// between the request text and the layer: `GSTC`, a `u32` length, then
/// `<trace-id-hex>:<parent-span-id>`. A replica rendering the layer records
/// its spans into that trace (under that parent) and returns them in the
/// response's `X-Trace-Spans` header, which is what lets a coordinator
/// stitch one span tree across a cross-node sharded render. Without a trace
/// the envelope is byte-identical to [`encode_layer_request`].
pub fn encode_layer_request_traced(
    request: &WireRequest,
    trace: Option<(gs_obs::TraceId, u32)>,
    layer: Option<&FrameLayer>,
) -> Vec<u8> {
    let text = request.to_body();
    let block = trace.map(|(trace, parent)| format!("{trace}:{parent}"));
    let mut out = Vec::with_capacity(
        8 + text.len() + block.as_ref().map_or(0, |b| 8 + b.len()) + layer.map_or(0, layer_len),
    );
    out.extend_from_slice(LAYER_REQUEST_MAGIC);
    push_u32(&mut out, text.len() as u32);
    out.extend_from_slice(text.as_bytes());
    if let Some(block) = block {
        out.extend_from_slice(TRACE_BLOCK_MAGIC);
        push_u32(&mut out, block.len() as u32);
        out.extend_from_slice(block.as_bytes());
    }
    if let Some(layer) = layer {
        put_layer(&mut out, layer);
    }
    out
}

/// Decodes [`encode_layer_request_traced`] (or [`encode_layer_request`])
/// bytes: the request, the trace context from the optional `GSTC` block,
/// and the optional layer, which must match the request's viewport size.
///
/// # Errors
///
/// [`WireError`] on a bad envelope, an invalid inner request, a malformed
/// trace block, or a layer whose size does not match the request viewport.
#[allow(clippy::type_complexity)]
pub fn decode_layer_request_traced(
    bytes: &[u8],
) -> Result<
    (
        WireRequest,
        Option<(gs_obs::TraceId, u32)>,
        Option<FrameLayer>,
    ),
    WireError,
> {
    if bytes.len() < 8 || &bytes[..4] != LAYER_REQUEST_MAGIC {
        return Err(err("not a layer request (bad magic)"));
    }
    let text_len = read_u32(bytes, 4, "request text")? as usize;
    let text_end = 8usize
        .checked_add(text_len)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| err("truncated layer request text"))?;
    let text = std::str::from_utf8(&bytes[8..text_end])
        .map_err(|_| err("layer request text is not UTF-8"))?;
    let request = WireRequest::parse(text)?;
    let mut rest = &bytes[text_end..];
    let mut trace = None;
    if rest.len() >= 8 && &rest[..4] == TRACE_BLOCK_MAGIC {
        let block_len = read_u32(rest, 4, "trace block")? as usize;
        let block_end = 8usize
            .checked_add(block_len)
            .filter(|&end| end <= rest.len())
            .ok_or_else(|| err("truncated trace block"))?;
        let block = std::str::from_utf8(&rest[8..block_end])
            .map_err(|_| err("trace block is not UTF-8"))?;
        let (id, parent) = block
            .split_once(':')
            .ok_or_else(|| err("malformed trace block"))?;
        let id = gs_obs::TraceId::parse(id).ok_or_else(|| err("malformed trace id"))?;
        let parent: u32 = parent
            .parse()
            .map_err(|_| err("malformed trace parent span id"))?;
        trace = Some((id, parent));
        rest = &rest[block_end..];
    }
    let layer = if rest.is_empty() {
        None
    } else {
        let layer = decode_layer(rest)?;
        let (w, h) = request.frame_size();
        if (layer.width(), layer.height()) != (w, h) {
            return Err(err(format!(
                "attached layer is {}x{}, request viewport is {w}x{h}",
                layer.width(),
                layer.height()
            )));
        }
        Some(layer)
    };
    Ok((request, trace, layer))
}

// ---- binary scene upload (cluster scene/shard placement) ----

/// Encodes trained Gaussian parameters and a background color losslessly:
/// `GSSC`, `u32` Gaussian count, 3 background `f32`s, then the five
/// parameter groups (means, log-scales, quats, opacity logits, SH) as
/// little-endian `f32`s. The body a cluster coordinator POSTs to
/// `/scenes/<id>` to place a scene — or one shard of one — on a replica.
pub fn encode_scene(params: &GaussianParams, background: [f32; 3]) -> Vec<u8> {
    let n = params.len();
    let mut out = Vec::with_capacity(20 + 4 * n * GaussianParams::PARAMS_PER_GAUSSIAN);
    out.extend_from_slice(SCENE_MAGIC);
    push_u32(&mut out, n as u32);
    put_f32s(&mut out, &background);
    for group in gs_core::gaussian::ParamGroup::ALL {
        put_f32s(&mut out, params.group(group));
    }
    out
}

/// Whether `bytes` look like a binary scene upload (vs. a text
/// [`SceneSpec`]).
pub fn is_scene_upload(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && &bytes[..4] == SCENE_MAGIC
}

/// Decodes [`encode_scene`] bytes.
///
/// # Errors
///
/// [`WireError`] on a bad magic, a count above [`MAX_SPEC_GAUSSIANS`], or a
/// truncated/oversized body.
pub fn decode_scene(bytes: &[u8]) -> Result<(GaussianParams, [f32; 3]), WireError> {
    if !is_scene_upload(bytes) {
        return Err(err("not a binary scene upload (bad magic)"));
    }
    let n = read_u32(bytes, 4, "gaussian count")? as usize;
    if n > MAX_SPEC_GAUSSIANS {
        return Err(err(format!(
            "scene upload holds {n} gaussians, limit is {MAX_SPEC_GAUSSIANS}"
        )));
    }
    let expected = 20 + 4 * n * GaussianParams::PARAMS_PER_GAUSSIAN;
    if bytes.len() != expected {
        return Err(err(format!(
            "scene upload is {} bytes, expected {expected} for {n} gaussians",
            bytes.len()
        )));
    }
    let mut background = [0.0; 3];
    get_f32s(&bytes[8..20], &mut background);
    let mut params = GaussianParams::zeros(n);
    let mut at = 20;
    for group in gs_core::gaussian::ParamGroup::ALL {
        let dst = params.group_mut(group);
        let end = at + 4 * dst.len();
        get_f32s(&bytes[at..end], dst);
        at = end;
    }
    Ok((params, background))
}

// ---- parsable stats report (cluster stats fan-in) ----

/// A replica's statistics as they travel to a cluster coordinator: the
/// headline [`crate::stats::ServeStats`] counters, the render-path latency
/// histogram (so cluster-wide percentiles come from one exactly merged
/// record instead of averaged quantiles), and the replica's memory budget.
/// Serialized in the same `key value` line format as every other text body
/// (`GET /stats/wire`); the histogram travels as one
/// `latency <sum_ns> <max_ns> <bucket>:<count>…` line of its non-zero
/// buckets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsReport {
    /// Completed requests.
    pub completed: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Requests expired in queue.
    pub expired: u64,
    /// Requests cancelled in queue.
    pub cancelled: u64,
    /// Requests answered by the pre-enqueue cache fast path (included in
    /// `completed`; `latency` covers only the remaining
    /// `completed - fast_hits` render-path requests).
    pub fast_hits: u64,
    /// Frame-cache hits.
    pub cache_hits: u64,
    /// Frame-cache misses.
    pub cache_misses: u64,
    /// Shard layers rendered.
    pub shards_rendered: u64,
    /// Shards skipped by view-adaptive culling.
    pub shards_culled: u64,
    /// Layer renders served (cross-node shard requests).
    pub layers_served: u64,
    /// Wall-clock seconds the collector has been running.
    pub elapsed_secs: f64,
    /// Render-path request latency record.
    pub latency: HistogramSnapshot,
    /// Device admission budget in bytes.
    pub budget_bytes: u64,
    /// Bytes charged to resident scenes/shards.
    pub used_bytes: u64,
}

impl StatsReport {
    /// Assembles a report from a stats snapshot plus the registry numbers.
    pub fn new(stats: &crate::stats::ServeStats, budget_bytes: u64, used_bytes: u64) -> Self {
        Self {
            completed: stats.completed,
            errors: stats.errors,
            expired: stats.expired,
            cancelled: stats.cancelled,
            fast_hits: stats.fast_hits,
            cache_hits: stats.cache.hits,
            cache_misses: stats.cache.misses,
            shards_rendered: stats.shards_rendered,
            shards_culled: stats.shards_culled,
            layers_served: stats.layers_served,
            elapsed_secs: stats.elapsed.as_secs_f64(),
            latency: stats.latency_record.clone(),
            budget_bytes,
            used_bytes,
        }
    }

    /// Serializes the report (`parse(to_body())` round-trips the counters
    /// and the histogram exactly and `elapsed` via shortest-roundtrip
    /// formatting).
    pub fn to_body(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!(
            "completed {}\nerrors {}\nexpired {}\ncancelled {}\n",
            self.completed, self.errors, self.expired, self.cancelled
        ));
        body.push_str(&format!("fast_hits {}\n", self.fast_hits));
        body.push_str(&format!(
            "cache {} {}\nshards {} {} {}\n",
            self.cache_hits,
            self.cache_misses,
            self.shards_rendered,
            self.shards_culled,
            self.layers_served
        ));
        body.push_str(&format!("elapsed {}\n", self.elapsed_secs));
        body.push_str(&format!(
            "latency {} {}",
            self.latency.sum_ns, self.latency.max_ns
        ));
        for (i, &count) in self.latency.counts().iter().enumerate() {
            if count > 0 {
                body.push_str(&format!(" {i}:{count}"));
            }
        }
        body.push_str(&format!(
            "\nbudget {}\nused {}\n",
            self.budget_bytes, self.used_bytes
        ));
        body
    }

    /// Parses a report body.
    ///
    /// # Errors
    ///
    /// [`WireError`] naming the offending key — including a `latency` line
    /// without its sum or max, with a bucket index out of range, repeated
    /// or counted zero, with more pairs than buckets, or with counts whose
    /// total overflows `u64`.
    pub fn parse(body: &str) -> Result<Self, WireError> {
        let mut report = StatsReport::default();
        for line in body.lines() {
            let mut tokens = line.split_whitespace();
            let Some(key) = tokens.next() else {
                continue;
            };
            let mut u64s = |n: usize, key: &str| -> Result<Vec<u64>, WireError> {
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    let tok = tokens
                        .next()
                        .ok_or_else(|| err(format!("key {key:?} is missing values")))?;
                    out.push(
                        tok.parse::<u64>()
                            .map_err(|_| err(format!("key {key:?}: {tok:?} is not a count")))?,
                    );
                }
                Ok(out)
            };
            match key {
                "completed" => report.completed = u64s(1, key)?[0],
                "errors" => report.errors = u64s(1, key)?[0],
                "expired" => report.expired = u64s(1, key)?[0],
                "cancelled" => report.cancelled = u64s(1, key)?[0],
                "fast_hits" => report.fast_hits = u64s(1, key)?[0],
                "cache" => {
                    let v = u64s(2, key)?;
                    (report.cache_hits, report.cache_misses) = (v[0], v[1]);
                }
                "shards" => {
                    let v = u64s(3, key)?;
                    (
                        report.shards_rendered,
                        report.shards_culled,
                        report.layers_served,
                    ) = (v[0], v[1], v[2]);
                }
                "budget" => report.budget_bytes = u64s(1, key)?[0],
                "used" => report.used_bytes = u64s(1, key)?[0],
                "elapsed" => {
                    let tok = tokens.next().ok_or_else(|| err("elapsed missing value"))?;
                    report.elapsed_secs = tok
                        .parse::<f64>()
                        .map_err(|_| err(format!("key {key:?}: {tok:?} is not a number")))?;
                }
                "latency" => {
                    let v = u64s(2, key)?;
                    report.latency = parse_histogram(v[0], v[1], tokens)?;
                }
                unknown => return Err(err(format!("unknown stats key {unknown:?}"))),
            }
        }
        Ok(report)
    }
}

/// The `<bucket>:<count>` pairs of a report's `latency` line.
fn parse_histogram(
    sum_ns: u64,
    max_ns: u64,
    pairs: std::str::SplitWhitespace<'_>,
) -> Result<HistogramSnapshot, WireError> {
    let mut record = HistogramSnapshot::default();
    (record.sum_ns, record.max_ns) = (sum_ns, max_ns);
    let mut total = 0u64;
    for (n, pair) in pairs.enumerate() {
        if n == HISTOGRAM_BUCKETS {
            return Err(err("latency has more pairs than buckets"));
        }
        let (i, count) = pair
            .split_once(':')
            .and_then(|(i, c)| Some((i.parse::<usize>().ok()?, c.parse::<u64>().ok()?)))
            .filter(|&(i, c)| i < HISTOGRAM_BUCKETS && c > 0 && record.counts()[i] == 0)
            .ok_or_else(|| err(format!("latency: bad, empty or repeated bucket {pair:?}")))?;
        total = total
            .checked_add(count)
            .ok_or_else(|| err("latency counts overflow"))?;
        record.counts_mut()[i] = count;
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> WireRequest {
        let mut req = WireRequest::new("city", [0.5, -1.25, -8.0], [0.0, 0.0, 0.0], 96, 72);
        req.fov_x = 1.2;
        req.sh_degree = 2;
        req
    }

    #[test]
    fn body_roundtrip_is_exact() {
        let req = demo();
        let parsed = WireRequest::parse(&req.to_body()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn roundtrip_preserves_awkward_floats_exactly() {
        let mut req = demo();
        req.position = [0.1 + 0.2, f32::MIN_POSITIVE, -1.0e-7];
        req.fov_x = std::f32::consts::FRAC_PI_3;
        let parsed = WireRequest::parse(&req.to_body()).unwrap();
        assert_eq!(parsed.position, req.position, "shortest-roundtrip floats");
        assert_eq!(parsed.fov_x, req.fov_x);
    }

    #[test]
    fn json_ish_bodies_parse_like_line_bodies() {
        let body =
            r#"{"scene": "city", "pos": 1 2 -8, "target": 0 0 0, "size": 64 48, "format": "ppm"}"#;
        let req = WireRequest::parse(body).unwrap();
        assert_eq!(req.scene, "city");
        assert_eq!(req.position, [1.0, 2.0, -8.0]);
        assert_eq!((req.width, req.height), (64, 48));
        assert_eq!(req.format, WireFormat::Ppm);
    }

    #[test]
    fn parse_rejects_malformed_bodies() {
        for (body, why) in [
            ("", "empty"),
            ("pos 0 0 -8\ntarget 0 0 0\nsize 8 8\n", "missing scene"),
            ("scene s\npos 0 0 -8\ntarget 0 0 0\n", "missing size"),
            (
                "scene s\npos 0 0 nope\ntarget 0 0 0\nsize 8 8\n",
                "bad float",
            ),
            (
                "scene s\npos 0 0 -8\ntarget 0 0 0\nsize 8 8\nbogus 1\n",
                "unknown key",
            ),
            ("scene s\npos 0 0 -8\ntarget 0 0 0\nsize 0 8\n", "zero dim"),
            (
                "scene s\npos 0 0 -8\ntarget 0 0 0\nsize 8 8\nsh 9\n",
                "sh too big",
            ),
            (
                "scene s\npos 0 0 -8\ntarget 0 0 0\nsize 8 8\nviewport 4 0 2 8\n",
                "inverted viewport",
            ),
            (
                "scene s\npos 0 0 -8\ntarget 0 0 0\nsize 8 8\nviewport 0 0 9 8\n",
                "viewport outside",
            ),
            (
                "scene s\npos 0 0 0\ntarget 0 0 0\nsize 8 8\n",
                "pos == target",
            ),
            (
                "scene s\npos 0 0 -8\ntarget 0 0 0\nup 0 0 1\nsize 8 8\n",
                "up parallel to view",
            ),
            (
                "scene s\npos 0 0 -8\ntarget 0 0 0\nsize 8 8\nformat gif\n",
                "unknown format",
            ),
            (
                "scene s\npos 0 0 -8\ntarget 0 0 0\nsize 8 8\nfov 0\n",
                "degenerate fov",
            ),
            (
                "scene s\npos 0 0 -8\ntarget 0 0 0\nsize 99999 8\n",
                "oversized",
            ),
        ] {
            assert!(WireRequest::parse(body).is_err(), "{why}: {body:?}");
        }
    }

    #[test]
    fn priority_roundtrips_and_defaults_to_interactive() {
        // The default stays off the wire so old peers keep parsing bodies.
        let req = demo();
        assert!(!req.to_body().contains("priority"));
        assert_eq!(
            WireRequest::parse(&req.to_body()).unwrap().priority,
            Priority::Interactive
        );
        let mut spec = demo();
        spec.priority = Priority::Speculative;
        let parsed = WireRequest::parse(&spec.to_body()).unwrap();
        assert_eq!(parsed, spec);
        assert!(WireRequest::parse(
            "scene s\npos 0 0 -8\ntarget 0 0 0\nsize 8 8\npriority urgent\n"
        )
        .is_err());
    }

    #[test]
    fn deadline_ms_roundtrips_and_reaches_the_render_request() {
        let mut req = demo();
        req.deadline_ms = Some(250);
        let parsed = WireRequest::parse(&req.to_body()).unwrap();
        assert_eq!(parsed, req);
        let before = std::time::Instant::now();
        let render = parsed.to_render_request();
        let deadline = render.deadline.expect("deadline must be set");
        let delta = deadline - before;
        assert!(
            delta >= std::time::Duration::from_millis(250)
                && delta < std::time::Duration::from_secs(60),
            "deadline must sit ~250ms in the future, got {delta:?}"
        );
        assert!(demo().to_render_request().deadline.is_none());
    }

    #[test]
    fn scene_spec_roundtrips_and_builds_deterministically() {
        let mut spec = SceneSpec::new(200);
        spec.seed = 9;
        spec.extent = [80.0, 8.0, 8.0];
        spec.shards = Some(4);
        let parsed = SceneSpec::parse(&spec.to_body()).unwrap();
        assert_eq!(parsed, spec);
        let a = spec.build();
        let b = parsed.build();
        assert_eq!(a, b, "same spec, same scene");
        assert_eq!(a.len(), 200);
        // Positions honor the extent box.
        for i in 0..a.len() {
            let m = a.mean(i);
            assert!(m.x.abs() <= 40.0 && m.y.abs() <= 4.0 && m.z.abs() <= 4.0);
        }
        // Different seeds give different scenes.
        spec.seed = 10;
        assert_ne!(spec.build(), a);
    }

    #[test]
    fn scene_spec_rejects_malformed_bodies() {
        for (body, why) in [
            ("", "missing gaussians"),
            ("gaussians 0\n", "zero gaussians"),
            ("gaussians 10\nextent 0 5 5\n", "degenerate extent"),
            ("gaussians 10\nopacity 0.5 1.5\n", "opacity above 1"),
            ("gaussians 10\nscale -1 0.5\n", "negative scale"),
            ("gaussians 10\nshards 0\n", "zero shards"),
            ("gaussians 10\nbogus 3\n", "unknown key"),
            ("gaussians ten\n", "non-numeric"),
        ] {
            assert!(SceneSpec::parse(body).is_err(), "{why}: {body:?}");
        }
        // JSON-ish bodies parse like line bodies.
        let spec = SceneSpec::parse(r#"{"gaussians": 50, "seed": 3, "shards": 2}"#).unwrap();
        assert_eq!((spec.gaussians, spec.seed, spec.shards), (50, 3, Some(2)));
    }

    #[test]
    fn scene_ids_that_break_the_round_trip_are_rejected() {
        for id in ["", "my scene", "a,b", "a\"b", "a:b", "{x}", "a/b"] {
            let mut req = demo();
            req.scene = id.to_string();
            assert!(
                req.validate().is_err(),
                "scene id {id:?} cannot survive to_body()/parse()"
            );
        }
    }

    #[test]
    fn to_render_request_builds_the_same_camera_as_look_at() {
        let req = demo();
        let render = req.to_render_request();
        let cam = Camera::look_at(
            96,
            72,
            1.2,
            Vec3::new(0.5, -1.25, -8.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        );
        assert_eq!(render.camera.position, cam.position);
        assert_eq!(render.camera.rotation.m, cam.rotation.m);
        assert_eq!(render.camera.fx, cam.fx);
        assert_eq!(render.viewport, Viewport::full(&cam));
        assert_eq!(render.sh_degree, 2);
    }

    #[test]
    fn raw_f32_roundtrip_is_lossless() {
        let mut img = Image::zeros(3, 2);
        for (i, v) in img.data_mut().iter_mut().enumerate() {
            *v = (i as f32).sin() * 1.5 - 0.2;
        }
        let decoded = decode_raw_f32(3, 2, &encode_raw_f32(&img)).unwrap();
        assert_eq!(decoded.data(), img.data());
        assert!(decode_raw_f32(3, 2, &[0u8; 5]).is_err());
    }

    fn demo_layer(w: usize, h: usize, seed: u64) -> FrameLayer {
        let mut rng = Rng64::seed_from_u64(seed);
        let color = Image::from_raw(
            w,
            h,
            (0..3 * w * h)
                .map(|_| rng.gen_f32() * 1.5 - 0.2)
                .collect::<Vec<f32>>(),
        );
        let transmittance = (0..w * h).map(|_| rng.gen_f32()).collect();
        FrameLayer::from_parts(color, transmittance)
    }

    #[test]
    fn layer_roundtrip_is_exact_including_awkward_floats() {
        let mut layer = demo_layer(7, 5, 42);
        // Values a lossy encoding would disturb: subnormals, huge partials,
        // exact negatives from background-free premultiplied blending.
        let (mut color, mut t) = layer.clone().into_parts();
        color.data_mut()[0] = f32::MIN_POSITIVE;
        color.data_mut()[1] = 0.1 + 0.2;
        t[0] = 1.0e-7;
        layer = FrameLayer::from_parts(color, t);
        let decoded = decode_layer(&encode_layer(&layer)).unwrap();
        assert_eq!(decoded.color().data(), layer.color().data());
        assert_eq!(decoded.transmittance(), layer.transmittance());
    }

    #[test]
    fn truncated_and_corrupt_layers_are_rejected() {
        let encoded = encode_layer(&demo_layer(6, 4, 43));
        // Truncations at every structural boundary.
        for cut in [0, 3, 7, 11, encoded.len() - 1] {
            assert!(
                decode_layer(&encoded[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        // Trailing garbage.
        let mut padded = encoded.clone();
        padded.extend_from_slice(&[0u8; 4]);
        assert!(decode_layer(&padded).is_err());
        // Wrong magic.
        let mut bad = encoded.clone();
        bad[0] = b'X';
        assert!(decode_layer(&bad).is_err());
        // Corrupt dimensions: oversized and zero.
        let mut huge = encoded.clone();
        huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_layer(&huge).is_err());
        let mut zero = encoded;
        zero[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_layer(&zero).is_err());
    }

    #[test]
    fn layer_request_roundtrips_with_and_without_a_layer() {
        let mut req = demo();
        req.shard = Some(2);
        let (parsed, _, none) =
            decode_layer_request_traced(&encode_layer_request(&req, None)).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(parsed.shard, Some(2));
        assert!(none.is_none());

        let layer = demo_layer(96, 72, 44);
        let (parsed, _, relayed) =
            decode_layer_request_traced(&encode_layer_request(&req, Some(&layer))).unwrap();
        assert_eq!(parsed, req);
        let relayed = relayed.expect("layer must survive the envelope");
        assert_eq!(relayed.color().data(), layer.color().data());
        assert_eq!(relayed.transmittance(), layer.transmittance());
    }

    #[test]
    fn layer_request_trace_block_roundtrips_and_stays_compatible() {
        let mut req = demo();
        req.shard = Some(1);
        let trace = gs_obs::TraceId::parse("00000000deadbeef").unwrap();
        let layer = demo_layer(96, 72, 47);

        // Trace block + layer: everything survives.
        let encoded = encode_layer_request_traced(&req, Some((trace, 7)), Some(&layer));
        let (parsed, ctx, relayed) = decode_layer_request_traced(&encoded).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(ctx, Some((trace, 7)));
        assert_eq!(
            relayed.unwrap().color().data(),
            layer.color().data(),
            "the trace block must not disturb the layer payload"
        );
        // An untraced envelope is byte-identical to the legacy encoder and
        // decodes with no context.
        assert_eq!(
            encode_layer_request_traced(&req, None, None),
            encode_layer_request(&req, None)
        );
        let (_, ctx, _) = decode_layer_request_traced(&encode_layer_request(&req, None)).unwrap();
        assert!(ctx.is_none());

        // Corrupt blocks are rejected, not misread as layers.
        let mut truncated = encode_layer_request_traced(&req, Some((trace, 7)), None);
        truncated.truncate(truncated.len() - 1);
        assert!(decode_layer_request_traced(&truncated).is_err());
        let garbled = encode_layer_request_traced(&req, Some((trace, u32::MAX)), None);
        assert!(decode_layer_request_traced(&garbled).is_ok());
    }

    #[test]
    fn layer_request_rejects_mismatched_and_corrupt_envelopes() {
        let req = demo();
        // Layer size must match the viewport (full image here: 96x72).
        let wrong = demo_layer(8, 8, 45);
        assert!(decode_layer_request_traced(&encode_layer_request(&req, Some(&wrong))).is_err());
        // A viewport-restricted request accepts a viewport-sized layer.
        let mut vp_req = demo();
        vp_req.viewport = Some((8, 4, 40, 28));
        let vp_layer = demo_layer(32, 24, 46);
        let vp_body = encode_layer_request(&vp_req, Some(&vp_layer));
        assert!(decode_layer_request_traced(&vp_body).is_ok());
        // Bad magic / truncated text length.
        assert!(decode_layer_request_traced(b"NOPE").is_err());
        let mut encoded = encode_layer_request(&req, None);
        encoded[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_layer_request_traced(&encoded).is_err());
    }

    #[test]
    fn scene_upload_roundtrips_exactly() {
        let spec = SceneSpec::new(64);
        let params = spec.build();
        let encoded = encode_scene(&params, [0.1, 0.2, 0.3]);
        assert!(is_scene_upload(&encoded));
        let (decoded, bg) = decode_scene(&encoded).unwrap();
        assert_eq!(decoded, params, "binary scene upload must be lossless");
        assert_eq!(bg, [0.1, 0.2, 0.3]);

        // Truncation, oversized counts and text bodies are rejected.
        assert!(decode_scene(&encoded[..encoded.len() - 1]).is_err());
        let mut huge = encoded.clone();
        huge[4..8].copy_from_slice(&(MAX_SPEC_GAUSSIANS as u32 + 1).to_le_bytes());
        assert!(decode_scene(&huge).is_err());
        assert!(!is_scene_upload(b"gaussians 10\n"));
        assert!(decode_scene(b"gaussians 10\n").is_err());
    }

    #[test]
    fn stats_report_roundtrips() {
        let mut latency = HistogramSnapshot::default();
        (latency.sum_ns, latency.max_ns) = (1_234_567, 10_000_000);
        latency.counts_mut()[0] = 1;
        latency.counts_mut()[1500] = 95;
        latency.counts_mut()[HISTOGRAM_BUCKETS - 1] = 4;
        let report = StatsReport {
            completed: 120,
            errors: 3,
            expired: 2,
            cancelled: 1,
            fast_hits: 25,
            cache_hits: 40,
            cache_misses: 80,
            shards_rendered: 64,
            shards_culled: 16,
            layers_served: 8,
            elapsed_secs: 12.5,
            latency,
            budget_bytes: 1 << 30,
            used_bytes: 123456,
        };
        let parsed = StatsReport::parse(&report.to_body()).unwrap();
        assert_eq!(parsed, report);
        // Reports with an empty histogram round-trip too, and junk is
        // rejected.
        let mut bare = report.clone();
        bare.latency = HistogramSnapshot::default();
        assert!(bare.to_body().contains("latency 0 0\n"));
        assert_eq!(StatsReport::parse(&bare.to_body()).unwrap(), bare);
        assert!(StatsReport::parse("bogus 4\n").is_err());
        assert!(StatsReport::parse("latency 1\n").is_err());
    }

    #[test]
    fn stats_report_rejects_hostile_latency_lines() {
        let too_many: String = (0..=HISTOGRAM_BUCKETS)
            .map(|i| format!(" {}:1", i % HISTOGRAM_BUCKETS))
            .collect();
        let too_many = format!("latency 1 1{too_many}\n");
        for (body, why) in [
            ("latency\n", "missing sum"),
            ("latency 5\n", "missing max"),
            ("latency 5 x\n", "max not a count"),
            ("latency 5 3 3242:1\n", "index past the last bucket"),
            ("latency 5 3 18446744073709551616:1\n", "index overflows"),
            ("latency 5 3 7:1 7:2\n", "repeated index"),
            ("latency 5 3 7:0\n", "zero count"),
            ("latency 5 3 7\n", "not a pair"),
            ("latency 5 3 7:-1\n", "negative count"),
            (
                "latency 5 3 1:18446744073709551615 2:1\n",
                "counts overflow",
            ),
            (too_many.as_str(), "more pairs than buckets"),
        ] {
            assert!(StatsReport::parse(body).is_err(), "must reject: {why}");
        }
        let err = StatsReport::parse(&too_many).unwrap_err();
        assert!(err.to_string().contains("more pairs"), "{err}");
        // The largest total that fits is accepted.
        let ok = StatsReport::parse("latency 5 3 1:18446744073709551614 2:1\n").unwrap();
        assert_eq!(ok.latency.count(), u64::MAX);
    }

    fn random_count(rng: &mut Rng64) -> u64 {
        match rng.gen_range(0u32..4) {
            0 => 0,
            1 => rng.gen_range(0u64..1000),
            2 => rng.next_u64() >> 8,
            _ => u64::MAX - rng.gen_range(0u64..4),
        }
    }

    fn random_report(rng: &mut Rng64) -> StatsReport {
        let mut report = StatsReport {
            completed: random_count(rng),
            errors: random_count(rng),
            expired: random_count(rng),
            cancelled: random_count(rng),
            fast_hits: random_count(rng),
            cache_hits: random_count(rng),
            cache_misses: random_count(rng),
            shards_rendered: random_count(rng),
            shards_culled: random_count(rng),
            layers_served: random_count(rng),
            elapsed_secs: rng.gen_f64() * 1e4,
            latency: HistogramSnapshot::default(),
            budget_bytes: random_count(rng),
            used_bytes: random_count(rng),
        };
        report.latency.sum_ns = rng.next_u64();
        report.latency.max_ns = rng.next_u64();
        for _ in 0..rng.gen_range(0usize..40) {
            let i = rng.gen_range(0..HISTOGRAM_BUCKETS);
            // At most 40 buckets of < 2^56 each: the total fits in u64.
            report.latency.counts_mut()[i] = 1 + (rng.next_u64() >> (8 + rng.gen_range(0u32..56)));
        }
        report
    }

    /// One to four random byte- or token-level edits of `body`.
    fn mutate(body: &str, rng: &mut Rng64) -> String {
        const BYTES: &[u8] = b"0123456789: \n-+.xe";
        const TOKENS: &[&str] = &[
            "0",
            "1",
            "-1",
            ":",
            "1:",
            ":1",
            "0:0",
            "3241:1",
            "3242:1",
            "18446744073709551615",
            "18446744073709551616",
            "1:18446744073709551615",
            "NaN",
            "inf",
            "1e400",
            "latency",
            "elapsed",
            "cache",
        ];
        let mut bytes = body.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1u32..5) {
            let at = rng.gen_range(0..bytes.len().max(1));
            match rng.gen_range(0u32..7) {
                0 if !bytes.is_empty() => {
                    bytes[at] = BYTES[rng.gen_range(0..BYTES.len())];
                }
                1 if !bytes.is_empty() => {
                    bytes.remove(at);
                }
                2 => bytes.insert(at.min(bytes.len()), BYTES[rng.gen_range(0..BYTES.len())]),
                _ => {
                    // Token edits: replace, delete, duplicate or swap.
                    let text = String::from_utf8(bytes.clone()).unwrap();
                    let mut tokens: Vec<String> = text.split(' ').map(str::to_string).collect();
                    let i = rng.gen_range(0..tokens.len());
                    let j = rng.gen_range(0..tokens.len());
                    match rng.gen_range(0u32..4) {
                        0 => tokens[i] = TOKENS[rng.gen_range(0..TOKENS.len())].to_string(),
                        1 if tokens.len() > 1 => {
                            tokens.remove(i);
                        }
                        2 => {
                            let dup = tokens[i].clone();
                            tokens.insert(j, dup);
                        }
                        _ => tokens.swap(i, j),
                    }
                    bytes = tokens.join(" ").into_bytes();
                }
            }
        }
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn stats_report_parse_survives_mutated_bodies() {
        // Seeded mutational fuzzing: every generated report round-trips
        // exactly, and no mutation of one panics the parser.
        let mut rng = Rng64::seed_from_u64(0xf022_57a7);
        let mut inputs = 0usize;
        while inputs < 100_000 {
            let report = random_report(&mut rng);
            let body = report.to_body();
            assert_eq!(StatsReport::parse(&body).unwrap(), report, "{body}");
            inputs += 1;
            for _ in 0..49 {
                let _ = StatsReport::parse(&mutate(&body, &mut rng));
                inputs += 1;
            }
        }
    }

    #[test]
    fn client_id_roundtrips_and_is_validated() {
        let mut req = demo();
        req.client = Some("session-42".to_string());
        let parsed = WireRequest::parse(&req.to_body()).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(
            parsed.to_render_request().client.as_deref(),
            Some("session-42")
        );
        assert!(demo().to_render_request().client.is_none());
        // Ids that cannot survive the round trip are rejected.
        for id in ["", "a b", "a:b", "a/b"] {
            let mut req = demo();
            req.client = Some(id.to_string());
            assert!(req.validate().is_err(), "client id {id:?} must be rejected");
        }
    }

    #[test]
    fn trace_event_conversion_roundtrips_the_request() {
        let mut req = demo();
        req.position = [0.1 + 0.2, f32::MIN_POSITIVE, -1.0e-7];
        req.deadline_ms = Some(120);
        req.client = Some("tab-1".to_string());
        let event = req.to_trace_event("tab-1", 5_000, gs_trace::Outcome::CacheHit, 777);
        assert_eq!(event.at_us, 5_000);
        assert_eq!(event.scene, "city");
        assert_eq!(event.client, "tab-1");
        assert_eq!(event.deadline_ms, 120);
        assert_eq!(event.outcome, gs_trace::Outcome::CacheHit);
        assert_eq!(event.latency_us, 777);
        let back = WireRequest::from_trace_event(&event);
        assert_eq!(back, req, "capture→replay must rebuild the same request");
        // A peer-address client id (contains ':') is recorded but not put
        // back on the wire body.
        let event = req.to_trace_event("127.0.0.1:5000", 0, gs_trace::Outcome::Completed, 0);
        assert_eq!(event.client, "127.0.0.1:5000");
        assert_eq!(WireRequest::from_trace_event(&event).client, None);
    }

    #[test]
    fn shard_key_roundtrips_on_wire_requests() {
        let mut req = demo();
        req.shard = Some(3);
        assert_eq!(WireRequest::parse(&req.to_body()).unwrap(), req);
        assert!(req.to_body().contains("shard 3"));
        assert_eq!(demo().shard, None);
    }

    /// `n` floats cycling through the values a lossy or value-based codec
    /// would disturb (signed zeros, NaN payloads of both kinds, subnormals,
    /// infinities), interleaved with seeded random bit patterns.
    fn awkward_floats(n: usize, seed: u64) -> Vec<f32> {
        let specials = [
            -0.0,
            0.0,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc1_2345),
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0x0000_0001),
            -f32::from_bits(0x007f_ffff),
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut rng = Rng64::seed_from_u64(seed);
        (0..n)
            .map(|i| match i % 2 {
                0 => specials[(i / 2) % specials.len()],
                _ => f32::from_bits(rng.next_u64() as u32),
            })
            .collect()
    }

    /// The reference encoding: one element at a time.
    fn reference_f32s(out: &mut Vec<u8>, values: &[f32]) {
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn reference_layer(out: &mut Vec<u8>, layer: &FrameLayer) {
        out.extend_from_slice(LAYER_MAGIC);
        out.extend_from_slice(&(layer.width() as u32).to_le_bytes());
        out.extend_from_slice(&(layer.height() as u32).to_le_bytes());
        reference_f32s(out, layer.color().data());
        reference_f32s(out, layer.transmittance());
    }

    fn assert_same_layer(decoded: &FrameLayer, layer: &FrameLayer) {
        assert_eq!(bits(decoded.color().data()), bits(layer.color().data()));
        assert_eq!(bits(decoded.transmittance()), bits(layer.transmittance()));
    }

    #[test]
    fn every_framing_pins_reference_bytes_and_decodes_the_same_bits() {
        // Raw frames.
        let image = Image::from_raw(5, 3, awkward_floats(45, 1));
        let mut expected = Vec::new();
        reference_f32s(&mut expected, image.data());
        let encoded = encode_raw_f32(&image);
        assert_eq!(encoded, expected, "raw f32 bytes");
        let decoded = decode_raw_f32(5, 3, &encoded).unwrap();
        assert_eq!(bits(decoded.data()), bits(image.data()));

        // Layers.
        let layer = FrameLayer::from_parts(
            Image::from_raw(6, 4, awkward_floats(72, 2)),
            awkward_floats(24, 3),
        );
        let mut expected = Vec::new();
        reference_layer(&mut expected, &layer);
        let encoded = encode_layer(&layer);
        assert_eq!(encoded, expected, "layer bytes");
        assert_same_layer(&decode_layer(&encoded).unwrap(), &layer);

        // Layer requests: with and without a layer, with and without a
        // trace block.
        let mut req = demo();
        req.width = 6;
        req.height = 4;
        req.shard = Some(1);
        let trace = gs_obs::TraceId::parse("00000000deadbeef").unwrap();
        for traced in [None, Some((trace, 9))] {
            for attached in [None, Some(&layer)] {
                let text = req.to_body();
                let mut expected = Vec::new();
                expected.extend_from_slice(LAYER_REQUEST_MAGIC);
                expected.extend_from_slice(&(text.len() as u32).to_le_bytes());
                expected.extend_from_slice(text.as_bytes());
                if let Some((id, parent)) = traced {
                    let block = format!("{id}:{parent}");
                    expected.extend_from_slice(TRACE_BLOCK_MAGIC);
                    expected.extend_from_slice(&(block.len() as u32).to_le_bytes());
                    expected.extend_from_slice(block.as_bytes());
                }
                if let Some(l) = attached {
                    reference_layer(&mut expected, l);
                }
                let encoded = encode_layer_request_traced(&req, traced, attached);
                assert_eq!(
                    encoded,
                    expected,
                    "layer request bytes (trace {}, layer {})",
                    traced.is_some(),
                    attached.is_some()
                );
                let (parsed, ctx, relayed) = decode_layer_request_traced(&encoded).unwrap();
                assert_eq!(parsed, req);
                assert_eq!(ctx, traced);
                assert_eq!(relayed.is_some(), attached.is_some());
                if let (Some(relayed), Some(l)) = (&relayed, attached) {
                    assert_same_layer(relayed, l);
                }
            }
        }

        // Scene uploads.
        let n = 7;
        let mut params = GaussianParams::zeros(n);
        for (k, group) in gs_core::gaussian::ParamGroup::ALL.into_iter().enumerate() {
            let dst = params.group_mut(group);
            let len = dst.len();
            dst.copy_from_slice(&awkward_floats(len, 10 + k as u64));
        }
        let background = [f32::from_bits(0x7fc0_0abc), -0.0, f32::NEG_INFINITY];
        let mut expected = Vec::new();
        expected.extend_from_slice(SCENE_MAGIC);
        expected.extend_from_slice(&(n as u32).to_le_bytes());
        reference_f32s(&mut expected, &background);
        for group in gs_core::gaussian::ParamGroup::ALL {
            reference_f32s(&mut expected, params.group(group));
        }
        let encoded = encode_scene(&params, background);
        assert_eq!(encoded, expected, "scene bytes");
        let (decoded, bg) = decode_scene(&encoded).unwrap();
        assert_eq!(bits(&bg), bits(&background));
        for group in gs_core::gaussian::ParamGroup::ALL {
            assert_eq!(
                bits(decoded.group(group)),
                bits(params.group(group)),
                "{group:?}"
            );
        }
    }

    #[test]
    fn ppm_has_header_and_clamped_bytes() {
        let mut img = Image::zeros(2, 1);
        img.set_pixel(0, 0, [1.5, -0.5, 0.5]);
        img.set_pixel(1, 0, [0.0, 1.0, 0.25]);
        let ppm = encode_ppm(&img);
        assert!(ppm.starts_with(b"P6\n2 1\n255\n"));
        let px = &ppm[ppm.len() - 6..];
        assert_eq!(px, &[255, 0, 128, 0, 255, 64]);
    }
}
