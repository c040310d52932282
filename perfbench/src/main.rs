//! The crace benchmark: one command per workload and seed that prints
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`) as the last line of standard output, after checking
//! every output against a serial `TraceDetector` reference.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay_offline --seed 1 --seconds 30 --trace 0
//! ```
//!
//! See `README.md` next to this crate for the workloads and metrics.

mod common;
mod gen;
mod layers;
mod live;
mod replay;
mod spans;
mod stats;
mod stream;

use common::{Ctx, Metric, Outcome};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["replay_offline", "stream_durable", "live_circuits"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn result_json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.checks.failed == 0 && outcome.checks.attempted > 0,
        outcome.checks.attempted,
        outcome.checks.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Work relative to this crate, so scratch paths (and the Unix socket
    // path, which is length-limited) stay short and inside the checkout.
    if let Err(e) = std::env::set_current_dir(env!("CARGO_MANIFEST_DIR")) {
        eprintln!("perfbench: cannot enter the benchmark directory: {e}");
        return ExitCode::FAILURE;
    }
    let dir = std::path::PathBuf::from(format!("out/run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        dir: dir.clone(),
    };
    daemon_quiet_panics();
    let mut outcome = if args.trace {
        layers::traced(&ctx, &args.workload)
    } else {
        let mut o = match args.workload.as_str() {
            "replay_offline" => replay::e2e(&ctx),
            "stream_durable" => stream::e2e(&ctx),
            _ => live::e2e(&ctx),
        };
        o.metrics
            .push(Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MB"));
        o.metrics.push(Metric::new(
            "success_rate",
            o.checks.success_rate(),
            "ratio",
        ));
        o
    };
    let _ = std::fs::remove_dir_all(&dir);
    let cpus = stats::host_cpus();
    let over = outcome.busy_threads > cpus;
    for m in &mut outcome.metrics {
        if !m.value.is_finite() {
            outcome
                .checks
                .check(false, || format!("metric {} is not finite", m.name));
            m.value = 0.0;
        }
    }
    for note in &outcome.notes {
        eprintln!("perfbench: {note}");
    }
    for f in outcome.checks.failures() {
        eprintln!("perfbench: FAILED: {f}");
    }
    println!(
        "# workload={} seed={} seconds={} trace={} host_cpus={cpus} busy_threads={}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.busy_threads,
        if over { " THREADS_EXCEED_NPROC" } else { "" }
    );
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}

/// The `stream_durable` workload turns detection off in one daemon
/// session with the daemon's own fault plan (`faults=panic@0`), whose
/// injected panic is caught and quarantined by design. Keep that panic
/// out of the log; every other panic still reports.
fn daemon_quiet_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|m| m.contains("injected"));
        if !injected {
            default(info);
        }
    }));
}
