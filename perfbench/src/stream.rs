//! `stream_durable`: the daemon as a CI job uses it. One client
//! connection to an in-process `Server` on a Unix socket, with a record
//! directory (per-session capture) and checkpoints enabled. A closed
//! loop: the client sends pre-framed records in chunks, asks for a
//! `REPORT` after each chunk and waits for it, then says `BYE`. Then one
//! kill-and-RESUME cycle: stream a prefix, drop the connection, restart
//! the `Server` on the same directory, `Client::resume`, resend the tail,
//! `BYE`.

use crate::common::{
    calibrate, paired_ratio, pipeline_rep, rounds, secs, Checks, Ctx, Metric, Outcome, Timing,
};
use crate::gen::{dict_input, DictInput, Shape};
use crate::spans::{span, Tracer};
use crace_core::TraceDetector;
use crace_daemon::{Client, Endpoint, Server, ServerConfig, WireStats};
use crace_model::Analysis;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// 8 threads and 4 dictionaries: narrow clocks and few objects keep the
/// detector a minor share, so the wire, capture and durability layers
/// dominate the per-event cost.
pub const SHAPE: Shape = Shape {
    threads: 8,
    dicts: 4,
    events: 15_000,
    keys: 256,
    lock_every: 200,
};

/// Records per chunk; the client asks for a `REPORT` after each.
pub const CHUNK: usize = 500;

/// Share of the records streamed before the connection is dropped in the
/// kill-and-RESUME cycle.
const PREFIX_EIGHTHS: usize = 7;

/// RESUMEs per kill-and-RESUME cycle (see `resume_cycle`).
const RESUMES_PER_CYCLE: usize = 4;

const SPEC: &str = "dictionary";

/// The workload's input plus what the daemon path needs precomputed.
pub struct StreamInput {
    pub dict: DictInput,
    /// The framed records, concatenated per chunk.
    pub chunks: Vec<Vec<u8>>,
    /// The serial reference report after each chunk.
    pub chunk_refs: Vec<String>,
}

/// Builds the workload's input from `seed`.
pub fn input(seed: u64) -> StreamInput {
    stream_input(dict_input(seed, &SHAPE))
}

/// Chunks `dict`'s framed records and computes the interim references.
pub fn stream_input(dict: DictInput) -> StreamInput {
    let chunks = dict
        .framed
        .chunks(CHUNK)
        .map(|c| c.concat().into_bytes())
        .collect();
    let detector = TraceDetector::new();
    for (obj, compiled) in dict.registrations() {
        detector.register(obj, compiled);
    }
    let chunk_refs = dict
        .trace
        .events()
        .chunks(CHUNK)
        .map(|c| {
            for e in c {
                detector.on_event(e);
            }
            detector.report().to_json()
        })
        .collect();
    StreamInput {
        dict,
        chunks,
        chunk_refs,
    }
}

/// A server bound to the run's socket, recording into `dir`.
fn start_server(socket: &Path, dir: &Path) -> std::io::Result<Server> {
    Server::start(
        &Endpoint::Unix(socket.to_path_buf()),
        ServerConfig {
            record_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        },
    )
}

/// Waits until `server` has `n` live connections.
fn await_connections(server: &Server, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.active_connections() != n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Stops `server` once its handlers are done.
fn stop_server(server: Server) {
    await_connections(&server, 0);
    server.shutdown();
}

fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the record directory");
    dir.to_path_buf()
}

fn check_stats(checks: &mut Checks, what: &str, stats: &WireStats, events: u64) {
    checks.check(stats.get("torn") == 0, || format!("{what}: stream tore"));
    checks.check(
        stats.get("shed_ring") + stats.get("shed_quarantine") == 0,
        || format!("{what}: daemon shed events ({stats:?})"),
    );
    checks.check(stats.get("events") == events, || {
        format!(
            "{what}: daemon ingested {} of {events} events",
            stats.get("events")
        )
    });
}

/// One full session's timings.
pub struct SessionSample {
    /// `Server::start`, connect and HELLO.
    pub setup_s: f64,
    /// HELLO reply to BYE reply.
    pub stream_s: f64,
    /// From the last record of each chunk written to its REPORT reply.
    pub report_s: Vec<f64>,
    /// The daemon's closing STATS line.
    pub stats: WireStats,
}

/// Streams every chunk through a fresh daemon with a REPORT after each,
/// then BYE. `faults` turns detection off (see `e2e`). Checks every
/// report and the STATS line unless detection is off.
pub fn session_rep(
    input: &StreamInput,
    ctx: &Ctx,
    faults: Option<&str>,
    checks: &mut Checks,
    tracer: Option<&Tracer>,
) -> SessionSample {
    let socket = ctx.dir.join("d.sock");
    let rec = fresh_dir(&ctx.dir.join("rec"));
    let checked = faults.is_none();
    let t0 = Instant::now();
    let (server, mut client) = span(tracer, "e2e.setup", || {
        let server = start_server(&socket, &rec).expect("start the daemon");
        let mut client = Client::connect(server.endpoint()).expect("connect");
        client.hello("s", SPEC, 0, faults).expect("HELLO accepted");
        (server, client)
    });
    let setup_s = secs(t0);
    let t1 = Instant::now();
    let mut report_s = Vec::with_capacity(input.chunks.len());
    for (chunk, reference) in input.chunks.iter().zip(&input.chunk_refs) {
        span(tracer, "e2e.send", || client.send_raw(chunk)).expect("send records");
        let t = Instant::now();
        let json = span(tracer, "e2e.report", || client.report()).expect("REPORT");
        report_s.push(secs(t));
        if checked {
            checks.check(json == *reference, || {
                "interim REPORT differs from the serial reference".into()
            });
        }
    }
    let (json, stats) = span(tracer, "e2e.bye", || client.bye()).expect("BYE");
    let stream_s = secs(t1);
    if checked {
        checks.check(json == input.dict.reference, || {
            "streamed report differs from the serial reference".into()
        });
        check_stats(checks, "stream", &stats, input.dict.trace.len() as u64);
    } else {
        checks.check(
            stats.get("events") == input.dict.trace.len() as u64 && stats.get("panics") == 1,
            || format!("detection-off session: unexpected STATS {stats:?}"),
        );
    }
    stop_server(server);
    SessionSample {
        setup_s,
        stream_s,
        report_s,
        stats,
    }
}

/// The kill-and-RESUME cycle. Returns the setup time of the first server
/// and the RESUME round trips on the restarted ones.
fn resume_cycle(input: &StreamInput, ctx: &Ctx, checks: &mut Checks) -> (f64, Vec<f64>) {
    let socket = ctx.dir.join("d.sock");
    let rec = fresh_dir(&ctx.dir.join("rec"));
    let prefix_chunks = input.chunks.len() * PREFIX_EIGHTHS / 8;
    let prefix_records = (prefix_chunks * CHUNK).min(input.dict.framed.len());

    let t0 = Instant::now();
    let server = start_server(&socket, &rec).expect("start the daemon");
    let mut client = Client::connect(server.endpoint()).expect("connect");
    client.hello("s", SPEC, 0, None).expect("HELLO accepted");
    let setup_s = secs(t0);
    for chunk in &input.chunks[..prefix_chunks] {
        client.send_raw(chunk).expect("send records");
    }
    drop(client);
    stop_server(server);

    // Crash again right after each RESUME but the last: every restart
    // recovers the same durable state, so each round yields several
    // RESUME samples for one streamed prefix.
    let mut resume_s = Vec::with_capacity(RESUMES_PER_CYCLE);
    for attempt in 1..=RESUMES_PER_CYCLE {
        let server = start_server(&socket, &rec).expect("restart the daemon");
        let mut client = Client::connect(server.endpoint()).expect("connect");
        await_connections(&server, 1);
        let t = Instant::now();
        let (_, recovered) = client
            .resume("s", prefix_records as u64, SPEC, 0)
            .expect("RESUME accepted");
        resume_s.push(secs(t));
        checks.check(recovered == prefix_records as u64, || {
            format!("RESUME recovered {recovered} of {prefix_records} records")
        });
        if attempt < RESUMES_PER_CYCLE {
            drop(client);
            stop_server(server);
            continue;
        }
        let tail = input.dict.framed[recovered as usize..].concat();
        client.send_raw(tail.as_bytes()).expect("resend the tail");
        let (json, stats) = client.bye().expect("BYE");
        checks.check(json == input.dict.reference, || {
            "resumed report differs from the serial reference".into()
        });
        check_stats(checks, "resume", &stats, input.dict.trace.len() as u64);
        stop_server(server);
    }
    (setup_s, resume_s)
}

/// The end-to-end run.
pub fn e2e(ctx: &Ctx) -> Outcome {
    let input = input(ctx.seed);
    let regs = input.dict.registrations();
    let n = input.dict.trace.len() as f64;
    let mut checks = Checks::default();
    let mut t: [Timing; 6] = Default::default();
    let [setup, stream, off, report, resume, pipe] = &mut t;
    rounds(ctx.seconds, 2, |_| {
        let c = calibrate();
        let s = session_rep(&input, ctx, None, &mut checks, None);
        setup.push(s.setup_s, c);
        stream.push(s.stream_s, c);
        for r in s.report_s {
            report.push(r, c);
        }
        let (setup_s, resume_s) = resume_cycle(&input, ctx, &mut checks);
        setup.push(setup_s, c);
        for r in resume_s {
            resume.push(r, c);
        }
        // The same session with detection off: the daemon's fault plan
        // panics the session's analysis at its first record, and the
        // daemon quarantines it, so every later record still crosses the
        // wire, capture, ring and dispatcher but skips detection.
        let s = session_rep(&input, ctx, Some("panic@0"), &mut checks, None);
        setup.push(s.setup_s, c);
        off.push(s.stream_s, c);
        let (t, json) = pipeline_rep(&input.dict.trace, &regs, 1, None);
        checks.check(json == input.dict.reference, || {
            "ParallelRd2 w1 report differs from the serial reference".into()
        });
        pipe.push(t, c);
    });
    let stream_s = stream.scaled();
    let metrics = vec![
        Metric::new("setup_s", setup.scaled(), "s"),
        Metric::new("events_per_s", n / stream_s, "1/s"),
        Metric::new("pipeline_events_per_s", n / pipe.scaled(), "1/s"),
        Metric::new("report_ms", report.scaled() * 1e3, "ms"),
        Metric::new("resume_ms", resume.scaled() * 1e3, "ms"),
        Metric::new("ops_per_s", input.dict.actions as f64 / stream_s, "1/s"),
        Metric::new("live_slowdown", paired_ratio(stream, off), "ratio"),
    ];
    let names = ["setup", "stream", "off", "report", "resume", "pipeline"];
    let mut notes = vec![format!(
        "stream_durable: {} events in {} chunks, {} rounds, {} REPORTs",
        input.dict.trace.len(),
        input.chunks.len(),
        stream.len(),
        report.len()
    )];
    notes.extend(t.iter().zip(names).map(|(t, name)| t.note(name)));
    Outcome {
        checks,
        metrics,
        busy_threads: 3,
        notes,
    }
}
