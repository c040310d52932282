//! What every workload shares: outcome accounting, the timed-rounds
//! loop, and the two detector paths measured on any workload's events
//! (the `ParallelRd2` pipeline and checkpoint resume).

use crate::spans::{span, Tracer};
use crate::stats::median;
use crace_core::{Checkpoint, CompiledSpec, ParallelRd2};
use crace_model::{Analysis, Event, ObjId, Trace};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Settings of one benchmark run.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Scratch directory of this run (removed at the end).
    pub dir: PathBuf,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Checked outputs: every comparison against the serial reference, every
/// stream outcome, every shed count.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Counts one checked output; records `what` when it is wrong.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Share of checked outputs that were correct.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// The first few failures, for the log.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// The result of one workload run.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Threads that generate load or do detection work concurrently.
    pub busy_threads: usize,
    /// Free-form lines for the log (standard error).
    pub notes: Vec<String>,
}

/// Calls `round` until `seconds` have passed and at least `min_rounds`
/// rounds ran.
pub fn rounds(seconds: f64, min_rounds: usize, mut round: impl FnMut(usize)) {
    let start = Instant::now();
    let mut n = 0;
    while n < min_rounds || start.elapsed().as_secs_f64() < seconds {
        round(n);
        n += 1;
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time of one [`calibrate`] call on the host this benchmark was tuned on
/// (2-vCPU KVM guest, Intel Xeon model 207), in a quiet period.
pub const CALIBRATION_REF_S: f64 = 0.018;

/// The host-speed kernel: fixed work that uses none of the program's
/// code — random access to a 512 KiB hash map of clock-like arrays with
/// max-merges, plus formatting and parsing short text lines, the two
/// kinds of work the in-memory detector paths do. Returns its seconds.
///
/// On a shared host the speed of memory-bound work drifts by a third
/// over minutes, with other tenants. Each round times this kernel once
/// and [`scaled`] expresses the round's timings at the reference speed,
/// which cancels the drift while leaving any change in the program's own
/// work in full (see `README.md`).
pub fn calibrate() -> f64 {
    use std::collections::HashMap;
    use std::fmt::Write as _;
    let t0 = Instant::now();
    let mut map: HashMap<u64, [u32; 16]> = HashMap::with_capacity(8192);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut text = String::with_capacity(64);
    let mut acc = 0u64;
    for i in 0..100_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 8192;
        let e = map.entry(k).or_insert([0; 16]);
        let j = (x >> 20) as usize % 16;
        e[j] = e[j].max(i as u32);
        text.clear();
        let _ = write!(text, "act {} o{} put({}, {})", x % 64, k, i, j);
        acc += text
            .split(' ')
            .filter_map(|w| w.parse::<u64>().ok())
            .sum::<u64>();
    }
    std::hint::black_box(acc);
    std::hint::black_box(&map);
    secs(t0)
}

/// `t` seconds measured next to a [`calibrate`] call that took
/// `calib` seconds, expressed at the reference host speed.
pub fn scaled(t: f64, calib: f64) -> f64 {
    t * CALIBRATION_REF_S / calib
}

/// Samples of one timing, each with the [`calibrate`] time measured next
/// to it.
#[derive(Default)]
pub struct Timing {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Timing {
    /// Adds a sample of `t` seconds taken next to a `calib`-second
    /// calibration.
    pub fn push(&mut self, t: f64, calib: f64) {
        self.raw.push(t);
        self.scaled.push(scaled(t, calib));
    }

    /// Median as measured.
    pub fn raw(&self) -> f64 {
        median(&self.raw)
    }

    /// Median at the reference host speed.
    pub fn scaled(&self) -> f64 {
        median(&self.scaled)
    }

    /// Samples taken.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// A log line with both medians.
    pub fn note(&self, name: &str) -> String {
        format!(
            "timing {name}: n={} raw={:.6e} scaled={:.6e}",
            self.len(),
            self.raw(),
            self.scaled()
        )
    }
}

/// Median over rounds of `num[i] / den[i]`: a same-round ratio, so that
/// host drift between rounds cancels.
pub fn paired_ratio(num: &Timing, den: &Timing) -> f64 {
    let ratios: Vec<f64> = num.raw.iter().zip(&den.raw).map(|(n, d)| n / d).collect();
    median(&ratios)
}

/// `ParallelRd2` at `workers` workers over a pre-parsed trace: build and
/// register (untimed), then `ingest_shared` plus the report barrier
/// (timed). Returns the timed seconds and the rendered report.
pub fn pipeline_rep(
    trace: &Arc<Trace>,
    regs: &[(ObjId, Arc<CompiledSpec>)],
    workers: usize,
    tracer: Option<&Tracer>,
) -> (f64, String) {
    let pipeline = ParallelRd2::new(workers);
    for (obj, compiled) in regs {
        pipeline.register(*obj, Arc::clone(compiled));
    }
    let name = if workers == 1 {
        "parallel.w1"
    } else {
        "parallel.w2"
    };
    let t0 = Instant::now();
    let report = span(tracer, name, || {
        pipeline.ingest_shared(trace);
        pipeline.report()
    });
    let elapsed = secs(t0);
    (elapsed, report.to_json())
}

/// Resume from durable detector state: a fresh detector restores
/// `blob`, then absorbs `tail` (timed). Returns the timed seconds and the
/// final rendered report (rendered untimed).
pub fn resume_rep<D: Analysis + Checkpoint>(
    fresh: D,
    blob: &str,
    tail: &[Event],
    regs: &[(ObjId, Arc<CompiledSpec>)],
) -> Result<(f64, String), String> {
    let resolve = |name: &str| -> Option<Arc<CompiledSpec>> {
        regs.iter()
            .find(|(_, c)| c.spec().name() == name)
            .map(|(_, c)| Arc::clone(c))
    };
    let t0 = Instant::now();
    fresh
        .restore(blob, &resolve)
        .map_err(|e| format!("checkpoint restore failed: {e}"))?;
    for event in tail {
        fresh.on_event(event);
    }
    let elapsed = secs(t0);
    Ok((elapsed, fresh.report().to_json()))
}
