//! Integration tests for the HTTP/1.1 front-end: end-to-end renders over
//! real loopback TCP, keep-alive connections, and protocol error handling,
//! all driven through the public facade.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gs_scale::scene::{SceneConfig, SceneDataset};
use gs_scale::serve::http::client;
use gs_scale::serve::{
    wire, HttpConfig, HttpServer, RenderServer, SceneRegistry, ServeConfig, WireFormat, WireRequest,
};

fn tiny_scene(seed: u64, num_gaussians: usize) -> SceneDataset {
    SceneDataset::generate(SceneConfig {
        name: format!("http-{seed}"),
        num_gaussians,
        init_points: 64,
        width: 64,
        height: 48,
        num_train_views: 4,
        num_test_views: 1,
        target_active_ratio: 0.3,
        extent: 60.0,
        far_view_fraction: 0.0,
        seed,
    })
}

/// A front-end over a fresh one-scene server (cache off so every request is
/// an actual render).
fn front_end(scene: &SceneDataset) -> (HttpServer, Arc<RenderServer>) {
    let server = Arc::new(RenderServer::new(
        ServeConfig {
            workers: 2,
            queue_depth: 16,
            max_batch: 4,
            cache_bytes: 0,
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    ));
    server
        .load_scene("city", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();
    let http = HttpServer::bind(HttpConfig::default(), Arc::clone(&server)).unwrap();
    (http, server)
}

fn demo_request(scene: &SceneDataset) -> WireRequest {
    let cam = &scene.train_cameras[0];
    let mut req = WireRequest::new(
        "city",
        [cam.position.x, cam.position.y, cam.position.z],
        [cam.position.x, cam.position.y, 0.0],
        cam.width,
        cam.height,
    );
    req.fov_x = std::f32::consts::FRAC_PI_3;
    req
}

#[test]
fn http_render_returns_bytes_identical_to_render_blocking() {
    let scene = tiny_scene(200, 600);
    let (http, server) = front_end(&scene);
    let wire_req = demo_request(&scene);

    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    let response = client::request(
        &mut stream,
        "POST",
        "/render",
        wire_req.to_body().as_bytes(),
    )
    .unwrap();
    assert_eq!(
        response.status,
        200,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    assert_eq!(response.header("x-cache-hit"), Some("0"));
    let width: usize = response.header("x-image-width").unwrap().parse().unwrap();
    let height: usize = response.header("x-image-height").unwrap().parse().unwrap();
    assert_eq!((width, height), (wire_req.width, wire_req.height));
    let over_http = wire::decode_raw_f32(width, height, &response.body).unwrap();

    // The exact same request through the in-process path must produce the
    // exact same bytes: the wire format is lossless end to end.
    let in_process = server
        .render_blocking(wire_req.to_render_request())
        .unwrap();
    assert_eq!(
        over_http.data(),
        in_process.image.data(),
        "HTTP frame must be byte-identical to render_blocking"
    );
    http.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let scene = tiny_scene(210, 500);
    let (http, _server) = front_end(&scene);
    let wire_req = demo_request(&scene);

    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    let mut first_frame: Option<Vec<u8>> = None;
    for _ in 0..3 {
        let response = client::request(
            &mut stream,
            "POST",
            "/render",
            wire_req.to_body().as_bytes(),
        )
        .unwrap();
        assert_eq!(response.status, 200);
        match &first_frame {
            Some(first) => assert_eq!(&response.body, first, "same request, same bytes"),
            None => first_frame = Some(response.body),
        }
    }
    // Mixed methods on the same connection too.
    let stats = client::request(&mut stream, "GET", "/stats", b"").unwrap();
    assert_eq!(stats.status, 200);
    let text = String::from_utf8(stats.body).unwrap();
    assert!(text.contains("completed"), "{text}");
    http.shutdown();
}

#[test]
fn malformed_requests_get_4xx_without_killing_the_listener() {
    let scene = tiny_scene(220, 400);
    let (http, _server) = front_end(&scene);
    let addr = http.local_addr();

    // Garbage request line: 400, connection closed, listener survives.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NOT-HTTP AT ALL\r\n\r\n").unwrap();
        let response = client::read_response(&mut stream).unwrap();
        assert_eq!(response.status, 400);
    }

    // Malformed render body: 400, and the same keep-alive connection then
    // serves a well-formed request.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let bad = client::request(&mut stream, "POST", "/render", b"scene city\nnope").unwrap();
        assert_eq!(bad.status, 400);
        assert!(String::from_utf8_lossy(&bad.body).contains("bad request"));
        let good = client::request(
            &mut stream,
            "POST",
            "/render",
            demo_request(&scene).to_body().as_bytes(),
        )
        .unwrap();
        assert_eq!(good.status, 200);
    }

    // An oversized body gets a readable 413 even though the server closes
    // without consuming it all (the pre-close drain prevents a TCP reset
    // from destroying the response).
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let big = vec![b'x'; 100 << 10];
        let response = client::request(&mut stream, "POST", "/render", &big).unwrap();
        assert_eq!(response.status, 413);
    }

    // Chunked transfer encoding is explicitly unsupported: one clear 501,
    // not a desynced connection parsing chunk data as the next request.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                b"POST /render HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
            )
            .unwrap();
        let response = client::read_response(&mut stream).unwrap();
        assert_eq!(response.status, 501);
    }

    // Unknown path, wrong method, unknown scene.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        assert_eq!(
            client::request(&mut stream, "GET", "/bogus", b"")
                .unwrap()
                .status,
            404
        );
        // `/dashboard` is not a route.
        assert_eq!(
            client::request(&mut stream, "GET", "/dashboard", b"")
                .unwrap()
                .status,
            404
        );
        assert_eq!(
            client::request(&mut stream, "GET", "/render", b"")
                .unwrap()
                .status,
            405
        );
        let mut unknown = demo_request(&scene);
        unknown.scene = "nowhere".to_string();
        assert_eq!(
            client::request(&mut stream, "POST", "/render", unknown.to_body().as_bytes())
                .unwrap()
                .status,
            404
        );
    }

    // After all that abuse a fresh connection still renders.
    let mut stream = TcpStream::connect(addr).unwrap();
    let response = client::request(
        &mut stream,
        "POST",
        "/render",
        demo_request(&scene).to_body().as_bytes(),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    http.shutdown();
}

#[test]
fn idle_connections_are_closed_after_the_idle_timeout() {
    use std::io::Read;
    use std::time::Duration;

    let scene = tiny_scene(260, 300);
    let server = Arc::new(RenderServer::new(
        ServeConfig {
            workers: 1,
            queue_depth: 4,
            max_batch: 1,
            cache_bytes: 0,
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    ));
    server
        .load_scene("city", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();
    let http = HttpServer::bind(
        HttpConfig {
            idle_timeout: Duration::from_millis(100),
            ..HttpConfig::default()
        },
        server,
    )
    .unwrap();

    // Connect, send nothing: the server must close the socket (EOF) instead
    // of pinning a handler thread and connection slot forever.
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut sink = [0u8; 16];
    let n = stream.read(&mut sink).expect("EOF, not a read timeout");
    assert_eq!(n, 0, "idle connection must be closed by the server");
    http.shutdown();
}

#[test]
fn scenes_endpoint_lists_layouts() {
    let scene = tiny_scene(230, 300);
    let (http, server) = front_end(&scene);
    server
        .load_scene("annex", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    let response = client::request(&mut stream, "GET", "/scenes", b"").unwrap();
    assert_eq!(response.status, 200);
    let body = String::from_utf8(response.body).unwrap();
    let listed: Vec<&str> = body.lines().collect();
    assert_eq!(listed.len(), 2);
    assert!(
        listed[0].starts_with("annex shards=1 resident=1/1 gaussians=300"),
        "{body}"
    );
    assert!(listed[1].starts_with("city shards=1"), "{body}");
    http.shutdown();
}

#[test]
fn post_scenes_builds_registers_and_serves_sharded_scenes() {
    let scene = tiny_scene(270, 300);
    let (http, server) = front_end(&scene);
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();

    // A corridor spec with an explicit shard count.
    let spec = "gaussians 600\nseed 5\nextent 60 6 6\nshards 3\n";
    let response =
        client::request(&mut stream, "POST", "/scenes/uploaded", spec.as_bytes()).unwrap();
    assert_eq!(
        response.status,
        201,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    assert!(String::from_utf8_lossy(&response.body).contains("3 shard(s)"));

    // The new scene shows up in /scenes with its shard layout...
    let scenes = client::request(&mut stream, "GET", "/scenes", b"").unwrap();
    let listing = String::from_utf8(scenes.body).unwrap();
    assert!(
        listing.contains("uploaded shards=3"),
        "layout must list the shards: {listing}"
    );

    // ...and renders over the wire through the sharded fan-out path.
    let wire_req = WireRequest::new("uploaded", [-40.0, 0.0, 0.0], [0.0, 0.0, 0.0], 64, 48);
    let response = client::request(
        &mut stream,
        "POST",
        "/render",
        wire_req.to_body().as_bytes(),
    )
    .unwrap();
    assert_eq!(
        response.status,
        200,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    assert_eq!(response.header("x-shards"), Some("3"));

    // Re-posting the same id is a conflict; the loaded scene is untouched.
    let response =
        client::request(&mut stream, "POST", "/scenes/uploaded", spec.as_bytes()).unwrap();
    assert_eq!(response.status, 409);
    assert!(server.loaded_scenes().contains(&"uploaded".to_string()));

    // Malformed specs and bad ids are 400s, oversized specs 413.
    let response =
        client::request(&mut stream, "POST", "/scenes/bad", b"gaussians nope\n").unwrap();
    assert_eq!(response.status, 400);
    let response = client::request(&mut stream, "POST", "/scenes/", spec.as_bytes()).unwrap();
    assert_eq!(response.status, 400);
    let response = client::request(
        &mut stream,
        "POST",
        "/scenes/too-big",
        b"gaussians 999999999\n",
    )
    .unwrap();
    assert_eq!(response.status, 413);

    // Wrong method on a scene path.
    let response = client::request(&mut stream, "GET", "/scenes/uploaded", b"").unwrap();
    assert_eq!(response.status, 405);
    http.shutdown();
}

#[test]
fn stats_endpoint_reports_connection_counters() {
    let scene = tiny_scene(280, 300);
    let (http, _server) = front_end(&scene);
    let addr = http.local_addr();

    // Two keep-alive requests on one connection, then a second connection:
    // accepted counts connections, not requests.
    let mut first = TcpStream::connect(addr).unwrap();
    assert_eq!(
        client::request(&mut first, "GET", "/healthz", b"")
            .unwrap()
            .status,
        200
    );
    assert_eq!(
        client::request(&mut first, "GET", "/healthz", b"")
            .unwrap()
            .status,
        200
    );
    let mut second = TcpStream::connect(addr).unwrap();
    let stats = client::request(&mut second, "GET", "/stats", b"").unwrap();
    let text = String::from_utf8(stats.body).unwrap();
    assert!(
        text.contains("connections: 2 accepted, 0 rejected, 2 active"),
        "{text}"
    );
    let snapshot = http.connection_stats();
    assert_eq!((snapshot.accepted, snapshot.rejected), (2, 0));
    assert_eq!(snapshot.active, 2);
    http.shutdown();
}

#[test]
fn connections_beyond_the_limit_count_as_rejected() {
    use std::time::Duration;

    let scene = tiny_scene(290, 300);
    let server = Arc::new(RenderServer::new(
        ServeConfig {
            workers: 1,
            queue_depth: 4,
            max_batch: 1,
            cache_bytes: 0,
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    ));
    server
        .load_scene("city", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();
    let http = HttpServer::bind(
        HttpConfig {
            max_connections: 1,
            ..HttpConfig::default()
        },
        server,
    )
    .unwrap();

    // Hold one slot with an established connection...
    let mut held = TcpStream::connect(http.local_addr()).unwrap();
    assert_eq!(
        client::request(&mut held, "GET", "/healthz", b"")
            .unwrap()
            .status,
        200
    );
    // ...so the next connection is shed with 503 and counted as rejected.
    let mut extra = TcpStream::connect(http.local_addr()).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let response = client::request(&mut extra, "GET", "/healthz", b"").unwrap();
    assert_eq!(response.status, 503);
    let stats = http.connection_stats();
    assert_eq!((stats.accepted, stats.rejected, stats.active), (1, 1, 1));
    http.shutdown();
}

#[test]
fn disconnected_clients_cancel_their_queued_renders() {
    use std::time::{Duration, Instant};

    // One worker, no batching: occupy the worker with slow in-process
    // renders so an HTTP render has to queue, then hang up the connection
    // while it waits. The handler must flag the job's cancel token, and the
    // worker must sweep it (counted as `cancelled`) instead of rendering a
    // frame for a dead socket.
    let scene = tiny_scene(300, 20_000);
    let server = Arc::new(RenderServer::new(
        ServeConfig {
            workers: 1,
            queue_depth: 128,
            max_batch: 1,
            cache_bytes: 0,
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    ));
    server
        .load_scene("city", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();
    let http = HttpServer::bind(HttpConfig::default(), Arc::clone(&server)).unwrap();

    // Occupy the single worker so the HTTP request cannot start rendering.
    // The pile must outlast the client's hangup plus the handler's next
    // disconnect poll by a wide margin even with fast kernels, so it is
    // deliberately deep rather than calibrated to one machine's render time.
    let occupiers: Vec<_> = (0..64)
        .map(|i| {
            let cam = scene.train_cameras[i % scene.train_cameras.len()].clone();
            server
                .submit(gs_scale::serve::RenderRequest::full("city", cam))
                .unwrap()
        })
        .collect();

    // POST a render, then slam the connection shut without reading the
    // response.
    {
        let mut stream = TcpStream::connect(http.local_addr()).unwrap();
        let body = demo_request(&scene).to_body();
        client::send_request(&mut stream, "POST", "/render", body.as_bytes()).unwrap();
        // Give the handler a beat to submit the job into the queue.
        std::thread::sleep(Duration::from_millis(50));
        drop(stream);
    }

    for ticket in occupiers {
        ticket.wait().unwrap();
    }
    // The worker sweeps the cancelled job when it next touches the queue;
    // poll until the counter lands.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.stats();
        if stats.cancelled >= 1 {
            assert_eq!(
                stats.completed, 64,
                "only the occupiers render; the dead client's job must not: {stats}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cancelled job was never swept: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    http.shutdown();
}

#[test]
fn ppm_responses_are_well_formed() {
    let scene = tiny_scene(240, 400);
    let (http, _server) = front_end(&scene);
    let mut wire_req = demo_request(&scene);
    wire_req.format = WireFormat::Ppm;

    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    let response = client::request(
        &mut stream,
        "POST",
        "/render",
        wire_req.to_body().as_bytes(),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("content-type"),
        Some("image/x-portable-pixmap")
    );
    let header = format!("P6\n{} {}\n255\n", wire_req.width, wire_req.height);
    assert!(response.body.starts_with(header.as_bytes()));
    assert_eq!(
        response.body.len(),
        header.len() + 3 * wire_req.width * wire_req.height
    );
    http.shutdown();
}

#[test]
fn viewport_renders_come_back_viewport_sized() {
    let scene = tiny_scene(250, 400);
    let (http, server) = front_end(&scene);
    let mut wire_req = demo_request(&scene);
    wire_req.viewport = Some((8, 4, 40, 28));

    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    let response = client::request(
        &mut stream,
        "POST",
        "/render",
        wire_req.to_body().as_bytes(),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    let over_http = wire::decode_raw_f32(32, 24, &response.body).unwrap();
    let in_process = server
        .render_blocking(wire_req.to_render_request())
        .unwrap();
    assert_eq!(over_http.data(), in_process.image.data());
    http.shutdown();
}

#[test]
fn render_requests_are_captured_with_resolved_client_ids() {
    let scene = tiny_scene(260, 400);
    let server = Arc::new(RenderServer::new(
        ServeConfig {
            workers: 2,
            queue_depth: 16,
            max_batch: 4,
            cache_bytes: 16 << 20,
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    ));
    server
        .load_scene("city", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();
    let recorder = Arc::new(gs_scale::trace::TraceRecorder::new());
    let http = HttpServer::bind_recorded(
        HttpConfig::default(),
        Arc::clone(&server),
        Arc::clone(&recorder),
    )
    .unwrap();
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();

    // Resolution order: the body's `client` key wins ...
    let mut wire_req = demo_request(&scene);
    wire_req.client = Some("session-body".to_string());
    wire_req.deadline_ms = Some(30_000);
    let response = client::request(
        &mut stream,
        "POST",
        "/render",
        wire_req.to_body().as_bytes(),
    )
    .unwrap();
    assert_eq!(response.status, 200);

    // ... then the X-Client-Id header (body has no `client` key) ...
    let body = demo_request(&scene).to_body();
    let head = format!(
        "POST /render HTTP/1.1\r\nHost: gs-serve\r\nX-Client-Id: session-header\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let response = client::read_response(&mut stream).unwrap();
    assert_eq!(response.status, 200);

    // ... then the connection's peer address.
    let response = client::request(
        &mut stream,
        "POST",
        "/render",
        demo_request(&scene).to_body().as_bytes(),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    http.shutdown();

    let trace = recorder.snapshot();
    assert_eq!(trace.len(), 3);
    let clients: Vec<&str> = trace.events.iter().map(|e| e.client.as_str()).collect();
    assert_eq!(clients[0], "session-body");
    assert_eq!(clients[1], "session-header");
    let peer = clients[2];
    assert!(
        peer.starts_with("127.0.0.1:"),
        "expected the peer address, got {peer:?}"
    );
    // The capture preserves the request parameters and outcomes: all three
    // used the same camera, so pose fields agree event to event; the first
    // request's deadline survives; the repeated pose is a cache hit by the
    // third request.
    assert_eq!(trace.events[0].deadline_ms, 30_000);
    assert_eq!(trace.events[1].deadline_ms, 0);
    for event in &trace.events {
        assert_eq!(event.scene, "city");
        assert_eq!(event.position, trace.events[0].position);
        assert!(event.outcome.is_served());
    }
    assert_eq!(trace.events[2].outcome, gs_scale::trace::Outcome::CacheHit);
    // Arrival stamps are monotone per connection and latency was measured.
    assert!(trace.events[0].at_us <= trace.events[1].at_us);
    assert!(trace.events[1].at_us <= trace.events[2].at_us);
    assert!(trace.events.iter().all(|e| e.latency_us > 0));
}

/// Reads `n` `Content-Length`-framed replies as `(status, body)`, keeping the
/// bytes that arrive past one reply for the next: pipelined replies may
/// share a read.
fn read_replies(stream: &mut TcpStream, n: usize) -> Vec<(u16, Vec<u8>)> {
    let mut bytes = Vec::new();
    let mut replies = Vec::new();
    let mut chunk = [0u8; 8192];
    while replies.len() < n {
        if let Some(head_end) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&bytes[..head_end]).unwrap();
            let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
            let len: usize = head
                .lines()
                .find_map(|line| {
                    let (name, value) = line.split_once(':')?;
                    name.eq_ignore_ascii_case("content-length")
                        .then(|| value.trim().parse().unwrap())
                })
                .expect("a Content-Length header");
            let end = head_end + 4 + len;
            if bytes.len() >= end {
                replies.push((status, bytes[head_end + 4..end].to_vec()));
                bytes.drain(..end);
                continue;
            }
        }
        let read = stream.read(&mut chunk).unwrap();
        assert!(
            read > 0,
            "connection closed after {} replies",
            replies.len()
        );
        bytes.extend_from_slice(&chunk[..read]);
    }
    replies
}

/// The bytes `render_blocking` produces for `req`, raw-f32 encoded.
fn in_process_bytes(server: &RenderServer, req: &WireRequest) -> Vec<u8> {
    let frame = server.render_blocking(req.to_render_request()).unwrap();
    wire::encode_raw_f32(&frame.image)
}

#[test]
fn pipelined_requests_come_back_in_order_and_byte_identical() {
    let scene = tiny_scene(300, 500);
    let (http, server) = front_end(&scene);
    let first = demo_request(&scene);
    let mut second = demo_request(&scene);
    second.position[0] += 3.0;
    second.target[0] += 3.0;

    // Both requests in one write: the server reads the second one's bytes
    // together with the first and must keep them past the first body.
    let mut message = Vec::new();
    for req in [&first, &second] {
        let body = req.to_body();
        message.extend_from_slice(
            format!(
                "POST /render HTTP/1.1\r\nHost: gs-serve\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        message.extend_from_slice(body.as_bytes());
    }
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&message).unwrap();
    let replies = read_replies(&mut stream, 2);

    let expected = [
        in_process_bytes(&server, &first),
        in_process_bytes(&server, &second),
    ];
    assert_ne!(expected[0], expected[1], "the two poses must differ");
    for (k, ((status, body), want)) in replies.iter().zip(&expected).enumerate() {
        assert_eq!(*status, 200, "reply {k}: {}", String::from_utf8_lossy(body));
        assert!(body == want, "reply {k} must be request {k}'s frame");
    }
    // The connection is still in step for the next request.
    let health = client::request(&mut stream, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    http.shutdown();
}

#[test]
fn a_request_dribbled_one_byte_per_write_still_parses() {
    let scene = tiny_scene(310, 400);
    let (http, server) = front_end(&scene);
    let req = demo_request(&scene);
    let body = req.to_body();
    // A padded head, so finding its end over thousands of one-byte reads
    // is part of what is exercised.
    let message = format!(
        "POST /render HTTP/1.1\r\nHost: gs-serve\r\nX-Padding: {}\r\n\
         Content-Length: {}\r\n\r\n{body}",
        "p".repeat(6_000),
        body.len()
    );
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for byte in message.as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
    }
    let response = client::read_response(&mut stream).unwrap();
    assert_eq!(
        response.status,
        200,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    assert!(response.body == in_process_bytes(&server, &req));
    http.shutdown();
}

#[test]
fn client_read_errors_promptly_on_an_unbacked_content_length() {
    // A peer that announces a terabyte body, sends 10 bytes of it and
    // closes. The reader must grow its buffer only as bytes arrive and
    // report the truncation, not try to allocate the announced length.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        socket
            .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n0123456789")
            .unwrap();
    });
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let started = Instant::now();
    let result = client::read_response(&mut stream);
    let elapsed = started.elapsed();
    peer.join().unwrap();
    let err = result.expect_err("a truncated body must be an error");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
}

/// The error surface both front-ends share, request by request: a
/// single-node `HttpServer` and a cluster coordinator's front-end answer
/// each request below with the status listed for that tier, and wherever
/// the two tiers agree on the status they also agree on the body bytes.
#[test]
fn both_tiers_answer_the_shared_error_surface_alike() {
    use gs_scale::cluster::{bind_http, ClusterConfig, Coordinator, ReplicaTransport};

    let scene = tiny_scene(290, 200);
    let (single, server) = front_end(&scene);
    let cluster = Arc::new(Coordinator::new(ClusterConfig::default()));
    cluster
        .add_replica("replica-0", ReplicaTransport::InProcess(server))
        .unwrap();
    let coordinator = bind_http(HttpConfig::default(), Arc::clone(&cluster)).unwrap();

    let mut truncated = wire::encode_scene(&scene.gt_params, scene.background);
    truncated.truncate(truncated.len() - 3);
    let unknown_trace = "/trace?id=00000000000000000000000000000001";
    let huge_spec = b"gaussians 999999999\n";
    // (method, path, body, single-node status, cluster status)
    let mut requests: Vec<(&str, &str, &[u8], u16, u16)> = vec![
        ("GET", "/bogus", b"", 404, 404),
        ("GET", "/render", b"", 405, 405),
        ("GET", unknown_trace, b"", 404, 404),
        ("POST", "/render", &[0xff, 0xfe, 0x80], 400, 400),
        ("POST", "/render", b"scene city\nnope", 400, 400),
        ("POST", "/scenes/bad,id", b"gaussians 10\n", 400, 400),
        ("POST", "/scenes/huge", huge_spec, 413, 413),
        ("POST", "/scenes/cut", &truncated, 400, 400),
        ("DELETE", "/scenes/x", b"", 404, 405),
    ];
    for path in [
        "/metrics",
        "/trace",
        "/slo",
        "/heat",
        "/events",
        "/incidents",
    ] {
        requests.push(("POST", path, b"", 405, 405));
    }

    let mut to_single = TcpStream::connect(single.local_addr()).unwrap();
    let mut to_cluster = TcpStream::connect(coordinator.local_addr()).unwrap();
    for (method, path, body, single_status, cluster_status) in &requests {
        let a = client::request(&mut to_single, method, path, body).unwrap();
        let b = client::request(&mut to_cluster, method, path, body).unwrap();
        let what = format!(
            "{method} {path}: single-node {} {:?}, cluster {} {:?}",
            a.status,
            String::from_utf8_lossy(&a.body),
            b.status,
            String::from_utf8_lossy(&b.body),
        );
        assert_eq!(a.status, *single_status, "{what}");
        assert_eq!(b.status, *cluster_status, "{what}");
        if single_status == cluster_status {
            assert_eq!(a.body, b.body, "{what}");
        }
    }
    // Nothing above placed a scene on either tier.
    assert!(cluster.scenes().is_empty());
    coordinator.shutdown();
    single.shutdown();
}
