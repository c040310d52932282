//! `replay_offline`: the `crace replay` batch job. A text trace is parsed
//! (`crace_cli::parse_trace`), replayed by a serial `TraceDetector`, and
//! rendered with `RaceReport::to_json`; the same pre-parsed trace also
//! goes through `ParallelRd2::ingest_shared` at one worker.

use crate::common::{
    calibrate, paired_ratio, pipeline_rep, resume_rep, rounds, secs, Checks, Ctx, Metric, Outcome,
    Timing,
};
use crate::gen::{dict_input, DictInput, Shape};
use crate::spans::{span, Tracer};
use crace_cli::parse_trace;
use crace_core::{translate, Checkpoint, TraceDetector};
use crace_model::{Analysis, NoopAnalysis};
use std::time::Instant;

/// 64 threads make the vector clocks wide; 16 dictionaries over one
/// bounded key space of integer and string keys keep access points
/// contended (and promoted from epochs to full vectors); a lock pair
/// about every 200 events exercises acquire/release.
pub const SHAPE: Shape = Shape {
    threads: 64,
    dicts: 16,
    events: 60_000,
    keys: 64,
    lock_every: 200,
};

/// Builds the workload's input from `seed`.
pub fn input(seed: u64) -> DictInput {
    dict_input(seed, &SHAPE)
}

/// One timed run of the batch job.
pub struct SerialSample {
    /// Translate, detector construction and registration.
    pub setup_s: f64,
    /// Text to rendered report.
    pub job_s: f64,
    /// Last event absorbed to rendered report.
    pub render_s: f64,
    /// The rendered report.
    pub json: String,
}

/// The batch job with the serial detector: set up, parse, replay, render.
pub fn serial_rep(input: &DictInput, tracer: Option<&Tracer>) -> SerialSample {
    span(tracer, "e2e.replay", || {
        let t0 = Instant::now();
        let detector = span(tracer, "e2e.setup", || {
            let compiled = std::sync::Arc::new(translate(&input.spec).expect("ECL"));
            let detector = TraceDetector::new();
            for obj in &input.objects {
                detector.register(*obj, std::sync::Arc::clone(&compiled));
            }
            detector
        });
        let setup_s = secs(t0);
        let t1 = Instant::now();
        let trace = span(tracer, "e2e.parse", || {
            parse_trace(&input.text, &input.spec).expect("generated traces parse")
        });
        span(tracer, "e2e.detect", || {
            for event in trace.iter() {
                detector.on_event(event);
            }
        });
        let t2 = Instant::now();
        let json = span(tracer, "e2e.render", || detector.report().to_json());
        SerialSample {
            setup_s,
            job_s: secs(t1),
            render_s: secs(t2),
            json,
        }
    })
}

/// The batch job with detection off: parse, replay into `NoopAnalysis`,
/// render its (empty) report.
fn noop_rep(input: &DictInput) -> f64 {
    let t0 = Instant::now();
    let noop = NoopAnalysis::new();
    let trace = parse_trace(&input.text, &input.spec).expect("generated traces parse");
    for event in trace.iter() {
        noop.on_event(event);
    }
    std::hint::black_box(noop.report().to_json());
    secs(t0)
}

/// A checkpoint of the serial detector taken after the first 7/8 of the
/// trace, and the index the tail starts at.
pub fn checkpoint_at_seven_eighths(input: &DictInput) -> (String, usize) {
    let cut = input.trace.len() * 7 / 8;
    let detector = TraceDetector::new();
    for (obj, compiled) in input.registrations() {
        detector.register(obj, compiled);
    }
    for event in &input.trace.events()[..cut] {
        detector.on_event(event);
    }
    (detector.checkpoint(), cut)
}

/// The end-to-end run.
pub fn e2e(ctx: &Ctx) -> Outcome {
    let input = input(ctx.seed);
    let regs = input.registrations();
    let (blob, cut) = checkpoint_at_seven_eighths(&input);
    let tail = &input.trace.events()[cut..];
    let n = input.trace.len() as f64;
    let mut checks = Checks::default();
    let mut t: [Timing; 6] = Default::default();
    let [setup, job, render, noop, pipe, resume] = &mut t;
    rounds(ctx.seconds, 3, |_| {
        let c = calibrate();
        let s = serial_rep(&input, None);
        checks.check(s.json == input.reference, || {
            "serial replay report differs from the reference".into()
        });
        setup.push(s.setup_s, c);
        job.push(s.job_s, c);
        render.push(s.render_s, c);
        noop.push(noop_rep(&input), c);
        let (t, json) = pipeline_rep(&input.trace, &regs, 1, None);
        checks.check(json == input.reference, || {
            "ParallelRd2 w1 report differs from the serial reference".into()
        });
        pipe.push(t, c);
        match resume_rep(TraceDetector::new(), &blob, tail, &regs) {
            Ok((t, json)) => {
                checks.check(json == input.reference, || {
                    "resumed report differs from the serial reference".into()
                });
                resume.push(t, c);
            }
            Err(e) => checks.check(false, || e),
        }
    });
    let job_s = job.scaled();
    let metrics = vec![
        Metric::new("setup_s", setup.scaled(), "s"),
        Metric::new("events_per_s", n / job_s, "1/s"),
        Metric::new("pipeline_events_per_s", n / pipe.scaled(), "1/s"),
        Metric::new("report_ms", render.scaled() * 1e3, "ms"),
        Metric::new("resume_ms", resume.scaled() * 1e3, "ms"),
        Metric::new("ops_per_s", input.actions as f64 / job_s, "1/s"),
        Metric::new("live_slowdown", paired_ratio(job, noop), "ratio"),
    ];
    let names = ["setup", "job", "render", "noop", "pipeline", "resume"];
    let mut notes = vec![format!(
        "replay_offline: {} events ({} actions), {} rounds",
        input.trace.len(),
        input.actions,
        job.len()
    )];
    notes.extend(t.iter().zip(names).map(|(t, name)| t.note(name)));
    Outcome {
        checks,
        metrics,
        busy_threads: 2,
        notes,
    }
}
