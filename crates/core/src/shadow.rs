//! The detector plumbing around Algorithm 1, written once: the shadow
//! core (object registry, per-object [`ObjState`]s, clock mode and
//! provenance window), the single race-record renderer, the compiled-spec
//! cache, the abandoned-thread shed filter, and the checkpoint header.
//!
//! Three front ends drive it. [`crate::TraceDetector`] runs one
//! [`Shadow`] behind its mutex over owned [`crace_vclock::SyncClocks`];
//! each [`crate::ParallelRd2`] worker runs one over its object shard. The
//! live [`crate::Rd2`] keeps per-object locks, which real threads need,
//! but builds its states, renders its races, caches its specs, sheds and
//! writes its checkpoint header through the same pieces.

use crate::checkpoint::{self as ck, SpecResolver};
use crate::engine::{ClockMode, ObjState, RaceHit};
use crate::points::CompiledSpec;
use crace_model::{Action, ObjId, RaceKind, RaceRecord, ThreadId};
use crace_vclock::ckpt::{esc, CkptError, CkptReader, CkptRecord, CkptWriter};
use crace_vclock::{ClockStats, VectorClock};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Drops every later event that names an abandoned thread
/// ([`crace_model::Analysis::abandon_thread`]): the thread's clock has
/// been retired, so a stray event could only introduce spurious
/// happens-before edges. Counts what it drops.
///
/// While no thread has been abandoned, [`ShedFilter::sheds`] is one
/// relaxed load.
#[derive(Debug, Default)]
pub struct ShedFilter {
    abandoned: RwLock<HashSet<ThreadId>>,
    /// True iff `abandoned` is non-empty — the lock-free fast path.
    any: AtomicBool,
    shed: AtomicU64,
}

impl ShedFilter {
    /// A filter with no abandoned thread.
    pub fn new() -> ShedFilter {
        ShedFilter::default()
    }

    /// True iff an event naming any of `tids` must be shed; counts it.
    #[inline]
    pub fn sheds(&self, tids: &[ThreadId]) -> bool {
        self.any.load(Ordering::Relaxed) && self.sheds_slow(tids)
    }

    #[cold]
    fn sheds_slow(&self, tids: &[ThreadId]) -> bool {
        let hit = {
            let abandoned = self.abandoned.read();
            tids.iter().any(|t| abandoned.contains(t))
        };
        if hit {
            self.shed.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Marks `tid` abandoned: every later event naming it is shed.
    pub fn abandon(&self, tid: ThreadId) {
        self.abandoned.write().insert(tid);
        self.any.store(true, Ordering::Relaxed);
    }

    /// True iff any thread has been abandoned.
    pub fn any(&self) -> bool {
        self.any.load(Ordering::Relaxed)
    }

    /// Number of events shed so far.
    pub fn events_shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Writes the abandoned threads as one sorted checkpoint record:
    /// `abandoned <n> [tids…]`. (The shed count belongs to the caller's
    /// `meta` record.)
    pub fn ckpt_write(&self, w: &mut CkptWriter) {
        let mut tids: Vec<u32> = self.abandoned.read().iter().map(|t| t.0).collect();
        tids.sort_unstable();
        let mut words = vec!["abandoned".to_string(), tids.len().to_string()];
        words.extend(tids.iter().map(u32::to_string));
        w.rec(&words.join(" "));
    }

    /// Replaces the filter's state with the `abandoned` record the reader
    /// is positioned on and the shed count `shed` from the `meta` record.
    ///
    /// # Errors
    ///
    /// [`CkptError`] when the record is missing or malformed.
    pub fn ckpt_read(&self, r: &mut CkptReader<'_>, shed: u64) -> Result<(), CkptError> {
        let rec = r.expect("abandoned")?;
        let n: usize = rec.num(1)?;
        let mut tids = HashSet::new();
        for i in 0..n {
            tids.insert(ThreadId(rec.num(2 + i)?));
        }
        self.any.store(!tids.is_empty(), Ordering::Relaxed);
        *self.abandoned.write() = tids;
        self.shed.store(shed, Ordering::Relaxed);
        Ok(())
    }
}

/// Compiled specifications keyed by spec name, so registering the Nth
/// object of a spec does not re-run the translation.
#[derive(Default)]
pub(crate) struct SpecCache(Mutex<HashMap<String, Arc<CompiledSpec>>>);

impl SpecCache {
    /// The compiled form of `spec`, translated on first use.
    pub(crate) fn get(
        &self,
        spec: &crace_spec::Spec,
    ) -> Result<Arc<CompiledSpec>, crate::TranslateError> {
        let mut cache = self.0.lock();
        if let Some(c) = cache.get(spec.name()) {
            return Ok(Arc::clone(c));
        }
        let c = Arc::new(crate::translate(spec)?);
        cache.insert(spec.name().to_string(), Arc::clone(&c));
        Ok(c)
    }
}

/// The configuration every object state of one detector shares, and the
/// checkpoint `meta` record that pins it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ShadowCfg {
    pub(crate) mode: ClockMode,
    /// When set, objects collect race provenance with an event window of
    /// this many actions (see [`ObjState::with_provenance`]).
    pub(crate) window: Option<usize>,
}

impl ShadowCfg {
    /// A fresh, empty object state of this configuration.
    pub(crate) fn new_state(self) -> ObjState {
        match self.window {
            Some(window) => ObjState::with_provenance(self.mode, window),
            None => ObjState::with_mode(self.mode),
        }
    }

    /// Writes the checkpoint header: `meta <mode> <window|-> <extra…>`.
    pub(crate) fn meta_write(self, w: &mut CkptWriter, extra: &[u64]) {
        let mut words = vec![
            "meta".to_string(),
            ck::mode_word(self.mode).to_string(),
            self.window.map_or("-".to_string(), |p| p.to_string()),
        ];
        words.extend(extra.iter().map(u64::to_string));
        w.rec(&words.join(" "));
    }

    /// Reads the checkpoint header and fails closed unless its mode and
    /// window match this configuration. Returns the record, whose
    /// caller-specific fields start at word 3.
    pub(crate) fn meta_read<'a>(self, r: &mut CkptReader<'a>) -> Result<CkptRecord<'a>, CkptError> {
        let head = r.expect("meta")?.clone();
        let mode = ck::mode_parse(head.word(1)?, head.line)?;
        let window =
            match head.word(2)? {
                "-" => None,
                p => Some(p.parse::<usize>().map_err(|_| {
                    CkptError::at(head.line, format!("bad provenance window `{p}`"))
                })?),
            };
        if mode != self.mode {
            return Err(ck::config_mismatch(
                head.line,
                "clock mode",
                mode,
                self.mode,
            ));
        }
        if window != self.window {
            return Err(ck::config_mismatch(
                head.line,
                "provenance window",
                window,
                self.window,
            ));
        }
        Ok(head)
    }
}

/// One race found by Algorithm 1, not yet rendered: the record is built
/// only if the report keeps a sample of it.
pub(crate) struct Race<'a> {
    pub(crate) spec: &'a CompiledSpec,
    pub(crate) tid: ThreadId,
    pub(crate) action: &'a Action,
    pub(crate) hit: RaceHit,
}

impl Race<'_> {
    /// The race's report site.
    pub(crate) fn kind(&self) -> RaceKind {
        RaceKind::Commutativity {
            obj: self.action.obj(),
        }
    }

    /// The race record every front end reports.
    pub(crate) fn render(self) -> RaceRecord {
        RaceRecord {
            kind: self.kind(),
            tid: self.tid,
            action: Some(self.action.clone()),
            detail: format!(
                "{} touched {} conflicting with active {}",
                self.action,
                self.spec.label(self.hit.touched),
                self.spec.label(self.hit.conflicting)
            ),
            provenance: self.hit.provenance,
        }
    }
}

/// The shadow state of Algorithm 1 over a set of objects: which objects
/// are checked against which spec, and their access-point states.
#[derive(Clone, Default)]
pub(crate) struct Shadow {
    pub(crate) cfg: ShadowCfg,
    pub(crate) registry: HashMap<ObjId, Arc<CompiledSpec>>,
    pub(crate) objects: HashMap<ObjId, ObjState>,
}

impl Shadow {
    pub(crate) fn new(cfg: ShadowCfg) -> Shadow {
        Shadow {
            cfg,
            ..Shadow::default()
        }
    }

    /// Registers `obj` against `spec`; re-registering clears its state.
    pub(crate) fn register(&mut self, obj: ObjId, spec: Arc<CompiledSpec>) {
        self.registry.insert(obj, spec);
        self.objects.remove(&obj);
    }

    /// Drops all shadow state of `obj` (the §5.3 reclamation).
    pub(crate) fn forget(&mut self, obj: ObjId) {
        self.registry.remove(&obj);
        self.objects.remove(&obj);
    }

    /// Runs Algorithm 1 for `action` by `tid` at thread clock `clock`,
    /// passing each race to `record`. Returns false (and does nothing)
    /// when the object is not registered.
    pub(crate) fn on_action(
        &mut self,
        tid: ThreadId,
        action: &Action,
        clock: &VectorClock,
        want_detail: bool,
        mut record: impl FnMut(Race<'_>),
    ) -> bool {
        let Some(spec) = self.registry.get(&action.obj()) else {
            return false;
        };
        let cfg = self.cfg;
        let state = self
            .objects
            .entry(action.obj())
            .or_insert_with(|| cfg.new_state());
        for hit in state.on_action_detailed(spec, action, tid, clock, want_detail) {
            record(Race {
                spec,
                tid,
                action,
                hit,
            });
        }
        true
    }

    /// Total phase-1 conflict probes over all object states.
    pub(crate) fn probes(&self) -> u64 {
        self.objects.values().map(ObjState::num_probes).sum()
    }

    /// Clock-representation statistics over all object states.
    pub(crate) fn clock_stats(&self) -> ClockStats {
        let mut stats = ClockStats::default();
        for state in self.objects.values() {
            stats.merge(&state.clock_stats());
        }
        stats
    }

    /// Writes the registered objects in id order through
    /// [`object_write`]. With `unacted`, an object never acted on is
    /// written with an empty state; without, it is left out.
    pub(crate) fn objects_write(&self, w: &mut CkptWriter, unacted: bool) {
        let mut ids: Vec<ObjId> = self.registry.keys().copied().collect();
        ids.sort_unstable();
        let empty = self.cfg.new_state();
        for obj in ids {
            let state = match self.objects.get(&obj) {
                Some(state) => state,
                None if unacted => &empty,
                None => continue,
            };
            object_write(w, obj, &self.registry[&obj], state);
        }
    }
}

/// Writes one object: an `object <id> <spec-name>` record, then its state.
pub(crate) fn object_write(w: &mut CkptWriter, obj: ObjId, spec: &CompiledSpec, state: &ObjState) {
    w.rec(&format!("object {} {}", obj.0, esc(spec.spec().name())));
    state.ckpt_write(w);
}

/// Reads the [`object_write`] records at the reader's position, handing
/// each object, its resolved spec and its state to `install`; stops at
/// the first record that is not an `object`.
pub(crate) fn objects_read(
    r: &mut CkptReader<'_>,
    resolve: &SpecResolver<'_>,
    mut install: impl FnMut(ObjId, Arc<CompiledSpec>, ObjState),
) -> Result<(), CkptError> {
    while let Some(rec) = r.peek() {
        if rec.tag() != "object" {
            break;
        }
        let (obj, spec) = ck::object_parse(rec, resolve)?;
        r.next_rec();
        install(obj, spec, ObjState::ckpt_read(r)?);
    }
    Ok(())
}
