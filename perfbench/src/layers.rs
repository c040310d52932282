//! The traced run: per-layer numbers, timed from outside around calls
//! into each layer's public functions, on the workload's own events.
//!
//! A traced run has two phases. First it runs the workload's end-to-end
//! path alternately without and with spans, which gives the tracing
//! overhead and the end-to-end base the layer sum is compared against.
//! Then it sweeps every layer, repeatedly, until its time is up. The
//! detector layers replay the workload's own events. The text parse
//! reads the workload's own text trace (`live_circuits`, whose recording
//! mixes specs and has no text form, uses the `stream_durable` trace).
//! The wire and durability layers (framed decode, capture, session,
//! checkpoint, resume, transport) always run on the `stream_durable`
//! input of the same seed, and the live-runtime layers always run the
//! Table 2 circuit, so every layer is measured in every traced run.

use crate::common::{calibrate, pipeline_rep, rounds, secs, Checks, Ctx, Metric, Outcome};
use crate::gen::DictInput;
use crate::live::{self, check_capture, check_live, circuit_rep};
use crate::replay;
use crate::spans::{span, Agg, Tracer};
use crate::stats::{host_cpus, median, tail};
use crate::stream::{self, session_rep, StreamInput, CHUNK};
use crace_cli::{parse_framed_record, parse_framed_tolerant, parse_trace, FramedWriter};
use crace_core::{translate, CompiledSpec, TraceDetector};
use crace_daemon::{Endpoint, Server, ServerConfig, Session, SessionConfig};
use crace_fasttrack::FastTrack;
use crace_model::{Analysis, NoopAnalysis, ObjId, Trace};
use crace_workloads::circuits::CircuitConfig;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Records between durable checkpoints: the daemon's default
/// (`ServerConfig::checkpoint_every`), which the session probe mirrors.
const CHECKPOINT_EVERY: usize = 256;

/// Events the detector layers replay: the workload's own.
struct Events {
    trace: Arc<Trace>,
    regs: Vec<(ObjId, Arc<CompiledSpec>)>,
    reference: String,
}

/// What one sweep measures the layers on.
struct Inputs<'a> {
    /// The workload's events, for the detector layers.
    ev: Events,
    /// The text trace the text parse reads.
    text: &'a DictInput,
    /// The `stream_durable` input, for the wire and durability layers.
    wire: &'a StreamInput,
    /// The Table 2 circuit, for the live layers.
    circuit: CircuitConfig,
}

/// Counters gathered by the sweeps, next to the spans.
#[derive(Default)]
struct Counts {
    sweeps: u64,
    probes: u64,
    promotions: u64,
    vector_updates: u64,
    detector_events: u64,
    ckpt_bytes: u64,
    ckpt_count: u64,
    shed: u64,
    torn: u64,
    live_ops: u64,
    live_probes: u64,
    live_races: u64,
    noop_s: f64,
    rd2_s: f64,
    fasttrack_s: f64,
    preload_ms: Vec<f64>,
    report_ms: Vec<f64>,
}

/// One sweep over every layer.
fn sweep(ctx: &Ctx, t: &Tracer, inputs: &Inputs<'_>, checks: &mut Checks, c: &mut Counts) {
    let Inputs {
        ev,
        text,
        wire,
        circuit,
    } = inputs;
    let d: &DictInput = &wire.dict;
    span(Some(t), "sweep", || {
        // Translation of every spec the workload's objects use.
        let specs: BTreeMap<&str, &crace_spec::Spec> = ev
            .regs
            .iter()
            .map(|(_, c)| (c.spec().name(), c.spec()))
            .collect();
        for spec in specs.values() {
            span(Some(t), "translate.compile", || {
                translate(spec).expect("ECL")
            });
        }

        // Text parse.
        let parsed = span(Some(t), "tracefmt.parse", || {
            parse_trace(&text.text, &text.spec).expect("generated traces parse")
        });
        checks.check(parsed == *text.trace, || {
            "text trace did not round-trip".into()
        });

        // Serial detector and report rendering on the workload's events.
        let detector = TraceDetector::new();
        for (obj, compiled) in &ev.regs {
            detector.register(*obj, Arc::clone(compiled));
        }
        span(Some(t), "detector.replay", || {
            for event in ev.trace.iter() {
                detector.on_event(event);
            }
        });
        let json = span(Some(t), "report.render", || detector.report().to_json());
        checks.check(json == ev.reference, || {
            "traced serial replay differs".into()
        });
        let stats = detector.clock_stats();
        c.probes += detector.num_probes();
        c.promotions += stats.promotions;
        c.vector_updates += stats.vector_updates;
        c.detector_events += ev.trace.len() as u64;

        // The pipeline at one and two workers.
        for workers in [1, 2] {
            let (_, json) = pipeline_rep(&ev.trace, &ev.regs, workers, Some(t));
            checks.check(json == ev.reference, || {
                format!("ParallelRd2 w{workers} report differs from the serial reference")
            });
        }

        // Framed decode, record by record.
        let lines: Vec<&str> = d.framed.iter().map(|l| l.trim_end_matches('\n')).collect();
        let decoded = span(Some(t), "framed.decode", || {
            lines
                .iter()
                .enumerate()
                .filter(|(i, l)| parse_framed_record(l, &d.spec, i + 1).is_ok())
                .count()
        });
        checks.check(decoded == lines.len(), || {
            "framed records failed to decode".into()
        });

        // Capture append, as the daemon does it: one record per event
        // into a plain file.
        let capture_path = ctx.dir.join("capture.framed.trace");
        let file = std::fs::File::create(&capture_path).expect("create the capture file");
        let mut writer = FramedWriter::new(file).expect("write the capture header");
        let ok = span(Some(t), "capture.append", || {
            d.trace.iter().all(|e| writer.record(e, &d.spec).is_ok())
        });
        checks.check(ok, || "capture append failed".into());
        drop(writer);

        // The session: ingest (decode + ring push) with checkpoints and
        // an interim report per chunk, as the daemon's handler drives it.
        let session = Session::spawn(
            "probe",
            "dictionary",
            d.spec.clone(),
            Arc::clone(&d.compiled),
            SessionConfig::default(),
        )
        .expect("spawn a session");
        let mut last_blob = None;
        for (ci, chunk) in lines.chunks(CHUNK).enumerate() {
            for seg in chunk.chunks(CHECKPOINT_EVERY) {
                let ok = span(Some(t), "session.ingest", || {
                    seg.iter().all(|l| session.ingest_line(l).is_ok())
                });
                checks.check(ok, || "session rejected a record".into());
                if seg.len() == CHECKPOINT_EVERY {
                    let (blob, seq) = span(Some(t), "checkpoint.write", || {
                        let (blob, seq) = session.checkpoint_blob();
                        let tmp = ctx.dir.join("probe.ckpt.tmp");
                        std::fs::write(&tmp, &blob)
                            .and_then(|()| std::fs::rename(&tmp, ctx.dir.join("probe.ckpt")))
                            .expect("write the checkpoint");
                        (blob, seq)
                    });
                    c.ckpt_bytes += blob.len() as u64;
                    c.ckpt_count += 1;
                    last_blob = Some((blob, seq));
                }
            }
            let ts = Instant::now();
            let json = span(Some(t), "session.report", || session.report_now().to_json());
            c.report_ms.push(secs(ts) * 1e3);
            checks.check(json == wire.chunk_refs[ci], || {
                "session interim report differs from the serial reference".into()
            });
        }
        let outcome = session.finalize(true, None);
        c.shed += outcome.shed_ring + outcome.shed_quarantine;
        checks.check(outcome.report_json == d.reference, || {
            "session report differs from the serial reference".into()
        });

        // Resume: re-parse the capture, restore the last checkpoint into
        // a fresh session, replay the capture's tail past it.
        let text_capture = std::fs::read_to_string(&capture_path).expect("read the capture");
        let (recovered, torn) = span(Some(t), "resume.capture_parse", || {
            parse_framed_tolerant(&text_capture, &d.spec)
        });
        checks.check(torn.is_none() && recovered.len() == d.trace.len(), || {
            "capture did not re-parse intact".into()
        });
        if let Some((blob, _)) = &last_blob {
            let resolve = |name: &str| -> Option<Arc<CompiledSpec>> {
                (name == d.spec.name()).then(|| Arc::clone(&d.compiled))
            };
            let (fresh, restored) = span(Some(t), "resume.restore", || {
                let fresh = Session::spawn(
                    "probe",
                    "dictionary",
                    d.spec.clone(),
                    Arc::clone(&d.compiled),
                    SessionConfig::default(),
                )
                .expect("spawn a session");
                let restored = fresh.restore_blob(blob, &resolve);
                (fresh, restored)
            });
            match restored {
                Ok(seq) => {
                    let json = span(Some(t), "resume.tail_replay", || {
                        for event in &recovered.events()[seq as usize..] {
                            fresh.resume_feed(event);
                        }
                        fresh.report_now().to_json()
                    });
                    checks.check(json == d.reference, || {
                        "resumed session report differs from the serial reference".into()
                    });
                }
                Err(e) => checks.check(false, || format!("checkpoint restore failed: {e}")),
            }
            fresh.finalize(true, None);
        }

        // Server start alone.
        let rec = ctx.dir.join("rec");
        std::fs::create_dir_all(&rec).expect("create the record directory");
        let server = span(Some(t), "server.start", || {
            Server::start(
                &Endpoint::Unix(ctx.dir.join("d.sock")),
                ServerConfig {
                    record_dir: Some(rec),
                    ..ServerConfig::default()
                },
            )
            .expect("start the daemon")
        });
        server.shutdown();

        // The whole wire path, for the transport residual.
        let s = span(Some(t), "stream.session", || {
            session_rep(wire, ctx, None, checks, None)
        });
        c.shed += s.stats.get("shed_ring") + s.stats.get("shed_quarantine");
        c.torn += s.stats.get("torn");

        // The live runtime: uninstrumented, RD2, FastTrack. Their spans
        // cover the whole `run_circuit`; per-op costs use its measured
        // section.
        let noop = circuit_rep(Arc::new(NoopAnalysis::new()), circuit, "live.noop", Some(t));
        check_live(checks, "uninstrumented run", &noop, circuit, 0);
        let rd2 = Arc::new(crace_core::Rd2::new());
        let s = circuit_rep(rd2.clone(), circuit, "live.rd2", Some(t));
        check_live(checks, "Rd2 run", &s, circuit, rd2.events_shed());
        let ft = Arc::new(FastTrack::new());
        let f = circuit_rep(ft.clone(), circuit, "live.fasttrack", Some(t));
        check_live(checks, "FastTrack run", &f, circuit, ft.events_shed());
        c.live_ops += s.ops;
        c.live_probes += rd2.num_probes();
        c.live_races += rd2.report().total();
        c.noop_s += noop.elapsed_s;
        c.rd2_s += s.elapsed_s;
        c.fasttrack_s += f.elapsed_s;
        c.preload_ms.push(s.preload_s * 1e3);
        c.sweeps += 1;
    });
}

fn total_ns(aggs: &BTreeMap<&str, Agg>, name: &str) -> f64 {
    aggs.get(name).map_or(0.0, |a| a.total_ns as f64)
}

fn median_ms(aggs: &BTreeMap<&str, Agg>, name: &str) -> f64 {
    match aggs.get(name) {
        Some(a) if !a.durations_ns.is_empty() => {
            let v: Vec<f64> = a.durations_ns.iter().map(|&d| d as f64 / 1e6).collect();
            median(&v)
        }
        _ => 0.0,
    }
}

/// The traced run of `workload`.
pub fn traced(ctx: &Ctx, workload: &str) -> Outcome {
    let run_id = ctx.seed ^ (u64::from(std::process::id()) << 32);
    let tracer = Tracer::new(run_id);
    let t = &tracer;
    let mut checks = Checks::default();
    let circuit = live::config(ctx.seed);
    // Per-layer numbers are reported as measured; the host-speed kernel,
    // timed at both ends of the run, says how fast the host was.
    let mut calib = vec![calibrate()];

    // The workload's events for the detector layers; the dictionary
    // trace the text parse reads (the workload's own, where it has one);
    // the stream_durable input for the wire and durability layers.
    let wire = stream::input(ctx.seed);
    let own = (workload == "replay_offline").then(|| replay::input(ctx.seed));
    let live_input = (workload == "live_circuits").then(|| live::input(ctx.seed));
    let ev = match (&own, &live_input) {
        (Some(d), _) => Events {
            trace: Arc::clone(&d.trace),
            regs: d.registrations(),
            reference: d.reference.clone(),
        },
        (None, Some(l)) => {
            check_capture(&mut checks, l);
            Events {
                trace: Arc::clone(&l.trace),
                regs: l.regs.clone(),
                reference: l.reference.clone(),
            }
        }
        (None, None) => Events {
            trace: Arc::clone(&wire.dict.trace),
            regs: wire.dict.registrations(),
            reference: wire.dict.reference.clone(),
        },
    };
    let text = own.as_ref().unwrap_or(&wire.dict);

    // Phase 1: the end-to-end path, untraced and traced in alternation.
    // Per unit: events for replay and stream, operations for live.
    let (mut plain, mut traced_units) = (vec![], vec![]);
    rounds(ctx.seconds * 0.3, 4, |round| {
        let tr = (round % 2 == 1).then_some(t);
        let per_unit = match workload {
            "replay_offline" => {
                let s = replay::serial_rep(text, tr);
                checks.check(s.json == text.reference, || "serial replay differs".into());
                s.job_s / text.trace.len() as f64
            }
            "stream_durable" => {
                let s = session_rep(&wire, ctx, None, &mut checks, tr);
                s.stream_s / wire.dict.trace.len() as f64
            }
            _ => {
                let rd2 = Arc::new(crace_core::Rd2::new());
                let s = circuit_rep(rd2.clone(), &circuit, "e2e.rd2", tr);
                check_live(&mut checks, "Rd2 run", &s, &circuit, rd2.events_shed());
                s.elapsed_s / s.ops as f64
            }
        };
        if tr.is_some() {
            traced_units.push(per_unit * 1e9);
        } else {
            plain.push(per_unit * 1e9);
        }
    });
    let base_ns = median(&plain);
    let overhead_ns = median(&traced_units) - base_ns;

    // Phase 2: layer sweeps.
    let inputs = Inputs {
        ev,
        text,
        wire: &wire,
        circuit,
    };
    let mut c = Counts::default();
    rounds(ctx.seconds * 0.7, 1, |_| {
        sweep(ctx, t, &inputs, &mut checks, &mut c)
    });

    calib.push(calibrate());
    let a = tracer.aggregate();
    let sweeps = c.sweeps as f64;
    let d_events = wire.dict.trace.len() as f64 * sweeps;
    let text_events = text.trace.len() as f64 * sweeps;
    let e_events = c.detector_events as f64;
    let per_d = |name: &str| total_ns(&a, name) / d_events;
    let per_e = |name: &str| total_ns(&a, name) / e_events;
    let live_ops = c.live_ops as f64;
    let decode = per_d("framed.decode");
    let capture = per_d("capture.append");
    let ingest = per_d("session.ingest");
    let ckpt = per_d("checkpoint.write");
    let report = per_d("session.report");
    let stream_e2e = per_d("stream.session");
    let transport = stream_e2e - (capture + ingest + ckpt + report);
    let detector = per_e("detector.replay");
    let noop_op = c.noop_s * 1e9 / live_ops;
    let rd2_op = c.rd2_s * 1e9 / live_ops;
    let ft_op = c.fasttrack_s * 1e9 / live_ops;

    // The workload's own layer sum against its end-to-end base.
    let (layer_sum, what) = match workload {
        "replay_offline" => (
            total_ns(&a, "tracefmt.parse") / text_events + detector + per_e("report.render"),
            "parse + detector + render",
        ),
        "stream_durable" => (
            capture + ingest + ckpt + report,
            "capture + session ingest + checkpoint + report (rest: transport)",
        ),
        _ => {
            let l = live_input.as_ref().expect("live input");
            let events_per_op =
                l.trace.len() as f64 / (circuit.workers * circuit.ops_per_worker) as f64;
            (
                noop_op + detector * events_per_op,
                "uninstrumented op + offline detector per op (rest: live path)",
            )
        }
    };
    let residual = base_ns - layer_sum;
    let (tail_pct, tail_ms) = tail(&c.report_ms);
    let cpus = host_cpus();
    // The w2 pipeline probe (ingress plus two workers) and the stream
    // probe (client, connection handler, session dispatcher) each keep
    // three threads busy.
    let busy = 3;
    let mut notes = vec![
        format!(
            "tracing overhead: {:.1} ns per {} (traced {:.1} - untraced {:.1})",
            overhead_ns,
            if workload == "live_circuits" {
                "op"
            } else {
                "event"
            },
            base_ns + overhead_ns,
            base_ns
        ),
        format!(
            "residual: {residual:.1} ns of base {base_ns:.1} ns ({:.1}%), layers = {what}",
            100.0 * residual / base_ns
        ),
        format!(
            "sweeps: {}, spans: {}",
            c.sweeps,
            a.values().map(|x| x.count).sum::<u64>()
        ),
    ];
    for (name, agg) in &a {
        notes.push(format!(
            "span {name}: n={} total={:.3} ms self={:.3} ms",
            agg.count,
            agg.total_ns as f64 / 1e6,
            agg.self_ns as f64 / 1e6
        ));
    }
    let spans_path = format!("out/spans-{workload}-seed{}.json", ctx.seed);
    if std::fs::write(&spans_path, tracer.to_json()).is_ok() {
        notes.push(format!("spans written to perfbench/{spans_path}"));
    }

    let m = Metric::new;
    let metrics = vec![
        m("run.host_cpus", cpus as f64, "count"),
        m("run.busy_threads", busy as f64, "count"),
        m(
            "run.threads_over_nproc",
            f64::from(u8::from(busy > cpus)),
            "count",
        ),
        m("run.calibration_ms", median(&calib) * 1e3, "ms"),
        m("trace.overhead_ns_per_unit", overhead_ns, "ns"),
        m("residual.ns_per_unit", residual, "ns"),
        m("residual.base_ns_per_unit", base_ns, "ns"),
        m(
            "translate.compile_ms",
            median_ms(&a, "translate.compile"),
            "ms",
        ),
        m(
            "tracefmt.parse_ns_per_event",
            total_ns(&a, "tracefmt.parse") / text_events,
            "ns",
        ),
        m("detector.ns_per_event", detector, "ns"),
        m(
            "detector.probes_per_event",
            c.probes as f64 / e_events,
            "count",
        ),
        m(
            "vclock.promotions_per_event",
            c.promotions as f64 / e_events,
            "count",
        ),
        m(
            "vclock.vector_updates_per_event",
            c.vector_updates as f64 / e_events,
            "count",
        ),
        m("report.render_ms", median_ms(&a, "report.render"), "ms"),
        m("parallel.w1_ns_per_event", per_e("parallel.w1"), "ns"),
        m("parallel.w2_ns_per_event", per_e("parallel.w2"), "ns"),
        m("framed.decode_ns_per_event", decode, "ns"),
        m("capture.append_ns_per_event", capture, "ns"),
        m("session.ingest_ns_per_event", ingest, "ns"),
        m(
            "checkpoint.write_ms",
            median_ms(&a, "checkpoint.write"),
            "ms",
        ),
        m(
            "checkpoint.bytes",
            c.ckpt_bytes as f64 / c.ckpt_count.max(1) as f64,
            "B",
        ),
        m("checkpoint.count", c.ckpt_count as f64 / sweeps, "count"),
        m("session.report_ms", median(&c.report_ms), "ms"),
        m("session.report_tail_ms", tail_ms, "ms"),
        m("session.report_tail_pct", tail_pct, "%"),
        m("session.report_samples", c.report_ms.len() as f64, "count"),
        m(
            "resume.capture_parse_ms",
            median_ms(&a, "resume.capture_parse"),
            "ms",
        ),
        m("resume.restore_ms", median_ms(&a, "resume.restore"), "ms"),
        m(
            "resume.tail_replay_ms",
            median_ms(&a, "resume.tail_replay"),
            "ms",
        ),
        m("transport.residual_ns_per_event", transport, "ns"),
        m("server.start_ms", median_ms(&a, "server.start"), "ms"),
        m("daemon.shed_total", c.shed as f64, "count"),
        m("stream.torn", c.torn as f64, "count"),
        m("runtime.noop_ns_per_op", noop_op, "ns"),
        m("live.rd2_ns_per_op", rd2_op, "ns"),
        m(
            "live.probes_per_op",
            c.live_probes as f64 / live_ops,
            "count",
        ),
        m("live.preload_ms", median(&c.preload_ms), "ms"),
        m("live.fasttrack_ns_per_op", ft_op, "ns"),
        m("live.rd2_over_fasttrack", rd2_op / ft_op, "ratio"),
        m("live.races", c.live_races as f64 / sweeps, "count"),
    ];
    Outcome {
        checks,
        metrics,
        busy_threads: busy,
        notes,
    }
}
