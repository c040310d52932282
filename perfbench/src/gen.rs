//! Seeded input generation. The program under test sees only what these
//! functions build; the same seed always gives the same inputs.

use crace_cli::{frame_event, render_trace};
use crace_core::{translate, CompiledSpec, TraceDetector};
use crace_model::{replay, Action, Event, LockId, ObjId, ThreadId, Trace, Value};
use crace_spec::{builtin, Spec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Shape of a generated dictionary trace.
pub struct Shape {
    /// Worker threads forked by thread 0 (vector-clock width).
    pub threads: u32,
    /// Dictionaries the actions spread over.
    pub dicts: u64,
    /// Events to generate (forks and joins included).
    pub events: usize,
    /// Size of the key space shared by every thread; even keys are
    /// integers, odd keys strings.
    pub keys: u64,
    /// One critical section (`acq`, action, `rel`) per this many events,
    /// on average.
    pub lock_every: u32,
}

/// A generated dictionary workload in every form the layers consume.
pub struct DictInput {
    /// The dictionary specification every object is checked against.
    pub spec: Spec,
    /// Its access-point translation.
    pub compiled: Arc<CompiledSpec>,
    /// Objects the trace acts on.
    pub objects: Vec<ObjId>,
    /// The parsed trace.
    pub trace: Arc<Trace>,
    /// The same trace in the plain text format.
    pub text: String,
    /// One framed record per event, each with its trailing newline.
    pub framed: Vec<String>,
    /// Action events in the trace.
    pub actions: usize,
    /// The serial reference report: `TraceDetector` over `trace`.
    pub reference: String,
}

fn key(k: u64) -> Value {
    if k.is_multiple_of(2) {
        Value::Int(k as i64)
    } else {
        Value::str(format!("k{k}"))
    }
}

/// Generates a dictionary trace: forks, then actions by random threads on
/// random dictionaries over one shared key space (so access points are
/// contended), with occasional lock pairs, then joins. Return values come
/// from simulating each dictionary, so the trace is a real execution.
pub fn dict_trace(spec: &Spec, seed: u64, shape: &Shape) -> Trace {
    let put = spec.method_id("put").expect("dictionary has put");
    let get = spec.method_id("get").expect("dictionary has get");
    let size = spec.method_id("size").expect("dictionary has size");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut maps: Vec<HashMap<u64, i64>> = vec![HashMap::new(); shape.dicts as usize];
    let mut trace = Trace::new();
    for t in 1..=shape.threads {
        trace.push(Event::Fork {
            parent: ThreadId(0),
            child: ThreadId(t),
        });
    }
    let body = shape.events.saturating_sub(2 * shape.threads as usize);
    while trace.len() < body + shape.threads as usize {
        let tid = ThreadId(1 + rng.gen_range(0..shape.threads));
        let d = rng.gen_range(0..shape.dicts);
        let obj = ObjId(d + 1);
        let map = &mut maps[d as usize];
        let k = rng.gen_range(0..shape.keys);
        let action = match rng.gen_range(0..10u32) {
            0..=4 => {
                let v = rng.gen_range(0..100i64);
                let old = map.insert(k, v).map_or(Value::Nil, Value::Int);
                Action::new(obj, put, vec![key(k), Value::Int(v)], old)
            }
            5..=8 => {
                let cur = map.get(&k).copied().map_or(Value::Nil, Value::Int);
                Action::new(obj, get, vec![key(k)], cur)
            }
            _ => Action::new(obj, size, vec![], Value::Int(map.len() as i64)),
        };
        let locked = rng.gen_range(0..shape.lock_every) == 0;
        let lock = LockId(rng.gen_range(0..4u64));
        if locked {
            trace.push(Event::Acquire { tid, lock });
        }
        trace.push(Event::Action { tid, action });
        if locked {
            trace.push(Event::Release { tid, lock });
        }
    }
    for t in 1..=shape.threads {
        trace.push(Event::Join {
            parent: ThreadId(0),
            child: ThreadId(t),
        });
    }
    trace
}

/// The serial reference: a fresh `TraceDetector` with every object
/// registered, replaying `trace`, rendered as `crace replay --json` does.
pub fn reference_json(trace: &Trace, objects: &[(ObjId, Arc<CompiledSpec>)]) -> String {
    let detector = TraceDetector::new();
    for (obj, compiled) in objects {
        detector.register(*obj, Arc::clone(compiled));
    }
    replay(trace, &detector).to_json()
}

/// Builds a [`DictInput`] of the given shape from `seed`.
pub fn dict_input(seed: u64, shape: &Shape) -> DictInput {
    let spec = builtin::dictionary();
    let compiled = Arc::new(translate(&spec).expect("the dictionary spec is ECL"));
    let trace = dict_trace(&spec, seed, shape);
    let objects: Vec<ObjId> = (1..=shape.dicts).map(ObjId).collect();
    let registered: Vec<(ObjId, Arc<CompiledSpec>)> = objects
        .iter()
        .map(|o| (*o, Arc::clone(&compiled)))
        .collect();
    let reference = reference_json(&trace, &registered);
    let text = render_trace(&trace, &spec);
    let framed = trace
        .iter()
        .map(|e| {
            let mut line = frame_event(e, &spec);
            line.push('\n');
            line
        })
        .collect();
    let actions = trace.iter().filter(|e| e.action().is_some()).count();
    DictInput {
        spec,
        compiled,
        objects,
        trace: Arc::new(trace),
        text,
        framed,
        actions,
        reference,
    }
}

impl DictInput {
    /// Every object paired with the compiled spec it is checked against.
    pub fn registrations(&self) -> Vec<(ObjId, Arc<CompiledSpec>)> {
        self.objects
            .iter()
            .map(|o| (*o, Arc::clone(&self.compiled)))
            .collect()
    }
}
