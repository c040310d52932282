//! Golden checkpoint bytes: the exact `#%crace-ckpt v1` blobs of the
//! three RD2 checkpoint kinds (`rd2-trace`, `rd2`, `rd2-parallel` at two
//! workers) after the Fig. 3 fixture, with provenance on and one thread
//! abandoned so that the `meta`, `abandoned`, object and `w*` records all
//! appear.
//!
//! Daemon `.ckpt` files written by one build must restore in the next,
//! so any change to these bytes is a format change: it needs a version
//! bump and a reader for the old version, not an edit of the expected
//! files. To regenerate them after such a deliberate change, run this
//! test with `CRACE_BLESS=1`.

use std::path::PathBuf;
use std::sync::Arc;

use crace::core::{builtin_resolver, Checkpoint, ParallelRd2, TraceDetector};
use crace::spec::builtin;
use crace::{translate, Action, Analysis, ObjId, Rd2, ThreadId, Value};

/// Provenance window of every detector under test.
const WINDOW: usize = 4;

fn data(dir: &str, name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push(dir);
    p.push(name);
    p
}

/// Drives `detector` through the Fig. 3 fixture, then abandons thread 1
/// and delivers one more action of it (shed). Object 2 is registered but
/// never acted on.
fn drive(detector: &dyn Analysis, register: &dyn Fn(ObjId)) {
    let spec = builtin::dictionary();
    let source =
        std::fs::read_to_string(data("crates/cli/tests/data", "fig3.trace")).expect("fixture");
    let trace = crace::cli::parse_trace(&source, &spec).expect("fig3 parses");
    register(ObjId(1));
    register(ObjId(2));
    for event in trace.events() {
        detector.on_event(event);
    }
    detector.abandon_thread(ThreadId(1));
    detector.on_action(
        ThreadId(1),
        &Action::new(
            ObjId(1),
            spec.method_id("put").unwrap(),
            vec![Value::str("b.com"), Value::Int(3)],
            Value::Nil,
        ),
    );
    assert_eq!(detector.report().total(), 1, "the Fig. 3 put/put race");
}

/// Compares `blob` with the committed golden file, and checks that a
/// fresh detector restored from it writes the same bytes back.
fn check(name: &str, blob: &str, fresh: &dyn Checkpoint) {
    let path = data("tests/data", name);
    if std::env::var_os("CRACE_BLESS").is_some() {
        std::fs::write(&path, blob).expect("write golden file");
    }
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert_eq!(blob, expected, "{name}: checkpoint bytes changed");
    fresh
        .restore(&expected, &builtin_resolver())
        .unwrap_or_else(|e| panic!("{name}: golden blob does not restore: {e}"));
    assert_eq!(fresh.checkpoint(), expected, "{name}: restore is not exact");
}

#[test]
fn trace_detector_checkpoint_bytes_are_pinned() {
    let compiled = Arc::new(translate(&builtin::dictionary()).unwrap());
    let detector = TraceDetector::with_provenance(WINDOW);
    drive(&detector, &|obj| {
        detector.register(obj, Arc::clone(&compiled))
    });
    assert_eq!(detector.events_shed(), 1);
    check(
        "golden-rd2-trace.ckpt",
        &detector.checkpoint(),
        &TraceDetector::with_provenance(WINDOW),
    );
}

#[test]
fn rd2_checkpoint_bytes_are_pinned() {
    let compiled = Arc::new(translate(&builtin::dictionary()).unwrap());
    let detector = Rd2::with_provenance(WINDOW);
    drive(&detector, &|obj| {
        detector.register(obj, Arc::clone(&compiled))
    });
    assert_eq!(detector.events_shed(), 1);
    check(
        "golden-rd2.ckpt",
        &detector.checkpoint(),
        &Rd2::with_provenance(WINDOW),
    );
}

#[test]
fn parallel_checkpoint_bytes_are_pinned() {
    let compiled = Arc::new(translate(&builtin::dictionary()).unwrap());
    let detector = ParallelRd2::with_provenance(2, WINDOW);
    drive(&detector, &|obj| {
        detector.register(obj, Arc::clone(&compiled))
    });
    assert_eq!(detector.events_shed(), 1);
    check(
        "golden-rd2-parallel-w2.ckpt",
        &detector.checkpoint(),
        &ParallelRd2::with_provenance(2, WINDOW),
    );
}
