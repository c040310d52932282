//! `live_circuits`: Table 2. `run_circuit(ComplexConcurrency)` with two
//! clients, alternately under `NoopAnalysis` (uninstrumented) and under
//! the live `Rd2` detector.

use crate::common::{
    calibrate, paired_ratio, pipeline_rep, resume_rep, rounds, secs, Checks, Ctx, Metric, Outcome,
    Timing,
};
use crate::gen::reference_json;
use crate::spans::{span, Tracer};
use crace_core::{translate, Checkpoint, CompiledSpec, Rd2};
use crace_model::{
    replay, Action, Analysis, LocId, LockId, NoopAnalysis, ObjId, RaceReport, Recorder, ThreadId,
    Trace,
};
use crace_runtime::ObjectRegistry;
use crace_spec::Spec;
use crace_workloads::circuits::{run_circuit, Circuit, CircuitConfig};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Two clients (no more busy threads than the two CPUs this benchmark
/// was tuned on) of 40k operations each, with the default simulated work
/// per operation and realistic maintenance locking.
pub fn config(seed: u64) -> CircuitConfig {
    CircuitConfig {
        workers: 2,
        ops_per_worker: 40_000,
        keys_per_worker: 2_048,
        busy_units: 40,
        seed,
        locked_maintenance: true,
    }
}

/// A `Recorder` that also remembers which spec each object registered
/// with, so the capture can be replayed into offline detectors.
#[derive(Default)]
struct Capture {
    recorder: Recorder,
    objects: Mutex<Vec<(ObjId, Spec)>>,
}

impl Analysis for Capture {
    fn name(&self) -> &str {
        "capture"
    }
    fn on_fork(&self, parent: ThreadId, child: ThreadId) {
        self.recorder.on_fork(parent, child);
    }
    fn on_join(&self, parent: ThreadId, child: ThreadId) {
        self.recorder.on_join(parent, child);
    }
    fn on_acquire(&self, tid: ThreadId, lock: LockId) {
        self.recorder.on_acquire(tid, lock);
    }
    fn on_release(&self, tid: ThreadId, lock: LockId) {
        self.recorder.on_release(tid, lock);
    }
    fn on_action(&self, tid: ThreadId, action: &Action) {
        self.recorder.on_action(tid, action);
    }
    fn on_read(&self, tid: ThreadId, loc: LocId) {
        self.recorder.on_read(tid, loc);
    }
    fn on_write(&self, tid: ThreadId, loc: LocId) {
        self.recorder.on_write(tid, loc);
    }
    fn report(&self) -> RaceReport {
        RaceReport::new()
    }
}

impl ObjectRegistry for Capture {
    fn on_new_object(&self, obj: ObjId, spec: &Spec) {
        self.objects
            .lock()
            .expect("capture registry lock")
            .push((obj, spec.clone()));
    }
}

/// An untimed recording of one circuit run, ready for offline replay.
pub struct LiveInput {
    pub config: CircuitConfig,
    /// The recorded events.
    pub trace: Arc<Trace>,
    /// Every monitored object with its compiled spec.
    pub regs: Vec<(ObjId, Arc<CompiledSpec>)>,
    /// Serial `TraceDetector` replay of the recording.
    pub reference: String,
}

/// Records one circuit run and computes its serial reference.
pub fn input(seed: u64) -> LiveInput {
    let config = config(seed);
    let capture = Arc::new(Capture::default());
    run_circuit(Circuit::ComplexConcurrency, capture.clone(), &config);
    let capture = Arc::into_inner(capture).expect("the runtime released the capture");
    let mut compiled: HashMap<String, Arc<CompiledSpec>> = HashMap::new();
    let regs: Vec<(ObjId, Arc<CompiledSpec>)> = capture
        .objects
        .into_inner()
        .expect("capture registry lock")
        .into_iter()
        .map(|(obj, spec)| {
            let c = compiled
                .entry(spec.name().to_string())
                .or_insert_with(|| Arc::new(translate(&spec).expect("monitored specs are ECL")));
            (obj, Arc::clone(c))
        })
        .collect();
    let trace = capture.recorder.into_trace();
    let reference = reference_json(&trace, &regs);
    LiveInput {
        config,
        trace: Arc::new(trace),
        regs,
        reference,
    }
}

/// One circuit run under `analysis`.
pub struct CircuitSample {
    /// Wall time of `run_circuit` minus its measured section: runtime and
    /// store construction, registration, and the preload.
    pub preload_s: f64,
    /// The measured section.
    pub elapsed_s: f64,
    /// Operations the clients completed.
    pub ops: u64,
}

/// Runs the circuit under `analysis` inside a span named `name`.
pub fn circuit_rep(
    analysis: Arc<dyn ObjectRegistry>,
    config: &CircuitConfig,
    name: &'static str,
    tracer: Option<&Tracer>,
) -> CircuitSample {
    let t0 = Instant::now();
    let r = span(tracer, name, || {
        run_circuit(Circuit::ComplexConcurrency, analysis, config)
    });
    let wall = secs(t0);
    CircuitSample {
        preload_s: wall - r.elapsed.as_secs_f64(),
        elapsed_s: r.elapsed.as_secs_f64(),
        ops: r.total_ops,
    }
}

/// Checks one live run: full op count, nothing shed.
pub fn check_live(
    checks: &mut Checks,
    what: &str,
    s: &CircuitSample,
    config: &CircuitConfig,
    shed: u64,
) {
    let want = (config.workers * config.ops_per_worker) as u64;
    checks.check(s.ops == want && shed == 0, || {
        format!("{what}: {} of {want} ops, {shed} events shed", s.ops)
    });
}

/// Checks the recording itself: `Rd2` replaying it offline must report
/// exactly what the serial `TraceDetector` reports.
pub fn check_capture(checks: &mut Checks, input: &LiveInput) {
    let rd2 = Rd2::new();
    for (obj, compiled) in &input.regs {
        rd2.register(*obj, Arc::clone(compiled));
    }
    let json = replay(&input.trace, &rd2).to_json();
    checks.check(json == input.reference, || {
        "Rd2 replay of the recorded circuit differs from TraceDetector".into()
    });
}

/// The end-to-end run.
pub fn e2e(ctx: &Ctx) -> Outcome {
    let input = input(ctx.seed);
    let cfg = &input.config;
    let mut checks = Checks::default();
    check_capture(&mut checks, &input);
    let cut = input.trace.len() * 7 / 8;
    let blob = {
        let rd2 = Rd2::new();
        for (obj, compiled) in &input.regs {
            rd2.register(*obj, Arc::clone(compiled));
        }
        for event in &input.trace.events()[..cut] {
            rd2.on_event(event);
        }
        rd2.checkpoint()
    };
    let tail = &input.trace.events()[cut..];
    let mut t: [Timing; 6] = Default::default();
    let [setup, rd2_s, noop_s, report, pipe, resume] = &mut t;
    let mut ops = 0;
    rounds(ctx.seconds, 3, |round| {
        let c = calibrate();
        // Alternate which side runs first, so drift hits both equally.
        let noop_first = round % 2 == 1;
        let mut run_noop = |checks: &mut Checks| {
            let s = circuit_rep(Arc::new(NoopAnalysis::new()), cfg, "live.noop", None);
            check_live(checks, "uninstrumented run", &s, cfg, 0);
            noop_s.push(s.elapsed_s, c);
        };
        if noop_first {
            run_noop(&mut checks);
        }
        let rd2 = Arc::new(Rd2::new());
        let s = circuit_rep(rd2.clone(), cfg, "live.rd2", None);
        check_live(&mut checks, "Rd2 run", &s, cfg, rd2.events_shed());
        ops = s.ops;
        setup.push(s.preload_s, c);
        rd2_s.push(s.elapsed_s, c);
        let t0 = Instant::now();
        std::hint::black_box(rd2.report().to_json());
        report.push(secs(t0), c);
        if !noop_first {
            run_noop(&mut checks);
        }
        let (t, json) = pipeline_rep(&input.trace, &input.regs, 1, None);
        checks.check(json == input.reference, || {
            "ParallelRd2 w1 over the recording differs from TraceDetector".into()
        });
        pipe.push(t, c);
        match resume_rep(Rd2::new(), &blob, tail, &input.regs) {
            Ok((t, json)) => {
                checks.check(json == input.reference, || {
                    "resumed Rd2 report differs from TraceDetector".into()
                });
                resume.push(t, c);
            }
            Err(e) => checks.check(false, || e),
        }
    });
    let rd2_med = rd2_s.scaled();
    let events = input.trace.len() as f64;
    let metrics = vec![
        Metric::new("setup_s", setup.scaled(), "s"),
        Metric::new("events_per_s", events / rd2_med, "1/s"),
        Metric::new("pipeline_events_per_s", events / pipe.scaled(), "1/s"),
        Metric::new("report_ms", report.scaled() * 1e3, "ms"),
        Metric::new("resume_ms", resume.scaled() * 1e3, "ms"),
        Metric::new("ops_per_s", ops as f64 / rd2_med, "1/s"),
        Metric::new("live_slowdown", paired_ratio(rd2_s, noop_s), "ratio"),
    ];
    let names = ["preload", "rd2", "noop", "report", "pipeline", "resume"];
    let mut notes = vec![format!(
        "live_circuits: {} ops per run, recording of {} events, {} rounds",
        ops,
        input.trace.len(),
        rd2_s.len()
    )];
    notes.extend(t.iter().zip(names).map(|(t, name)| t.note(name)));
    Outcome {
        checks,
        metrics,
        busy_threads: cfg.workers,
        notes,
    }
}
