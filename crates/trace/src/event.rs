//! Allocation-trace events and per-object lifetime records.
//!
//! A [`Trace`] is what QPT-style instrumentation would produce: an ordered
//! stream of allocation and deallocation events. Virtual time is the
//! allocation clock — it advances by `size` at each [`Event::Alloc`] and
//! stands still at [`Event::Free`]. Compiling a trace
//! ([`Trace::compile`]) turns the stream into birth-ordered
//! [`ObjectLife`] records, the form the simulator's lifetime oracle
//! consumes.

use dtb_core::time::{Bytes, VirtualTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifies one heap object within a trace.
///
/// Ids are dense and unique within a trace; generators assign them in
/// allocation order, but the format does not require that.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// The mutator allocated `size` bytes as object `id`.
    Alloc {
        /// The new object's identity.
        id: ObjectId,
        /// Object size in bytes (> 0).
        size: u32,
    },
    /// The mutator dropped its last reference to `id`: from this point the
    /// object is unreachable and a collector may reclaim it.
    Free {
        /// The now-dead object's identity.
        id: ObjectId,
    },
}

/// Trace-level metadata carried alongside the event stream.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Workload name, e.g. `"GHOST(1)"`.
    pub name: String,
    /// Free-form description of the workload.
    pub description: String,
    /// Mutator execution time in seconds (Table 6), used for CPU-overhead
    /// percentages.
    pub exec_seconds: f64,
}

impl TraceMeta {
    /// Metadata with a name and defaults elsewhere.
    pub fn named(name: impl Into<String>) -> TraceMeta {
        TraceMeta {
            name: name.into(),
            description: String::new(),
            exec_seconds: 1.0,
        }
    }
}

/// An ordered allocation/deallocation event stream.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Workload metadata.
    pub meta: TraceMeta,
    /// The events, in program order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Creates an empty trace with the given metadata.
    pub fn new(meta: TraceMeta) -> Trace {
        Trace {
            meta,
            events: Vec::new(),
        }
    }

    /// Total bytes allocated over the whole trace.
    pub fn total_allocated(&self) -> Bytes {
        Bytes::new(
            self.events
                .iter()
                .map(|e| match e {
                    Event::Alloc { size, .. } => *size as u64,
                    Event::Free { .. } => 0,
                })
                .sum(),
        )
    }

    /// Number of allocation events.
    pub fn object_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Alloc { .. }))
            .count()
    }

    /// Compiles the event stream into birth-ordered per-object records.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when the stream is malformed: duplicate
    /// allocation of an id, a free of an id never allocated, a second
    /// free of an id, a zero-sized allocation, or totals that overflow
    /// the allocation clock.
    pub fn compile(&self) -> Result<CompiledTrace, TraceError> {
        let objects = self.object_count();
        let mut ids = Vec::with_capacity(objects);
        let mut births = Vec::with_capacity(objects);
        let mut sizes = Vec::with_capacity(objects);
        let (deaths, end) = resolve(self.events.iter().copied(), objects, |id, size, birth| {
            ids.push(id);
            births.push(birth);
            sizes.push(size);
        })?;
        Ok(CompiledTrace {
            meta: self.meta.clone(),
            end,
            ids,
            births,
            sizes,
            deaths,
        })
    }

    /// Checks the event stream for every malformation [`compile`] would
    /// reject, without building the compiled records.
    ///
    /// Deserializers call this so a corrupt file surfaces one precise
    /// diagnostic at load time instead of a panic (or a garbage simulation)
    /// downstream.
    ///
    /// # Errors
    ///
    /// The first [`TraceError`] in event order, if any.
    ///
    /// [`compile`]: Trace::compile
    pub fn validate(&self) -> Result<(), TraceError> {
        let events = self.events.iter().copied();
        resolve(events, self.object_count(), |_, _, _| {}).map(|_| ())
    }
}

/// The one event-stream resolver behind [`Trace::compile`],
/// [`Trace::validate`] and the `DTBCTC01` converter. It enforces every
/// rule (no zero size, clock overflow, duplicate alloc, free without
/// alloc or double free; the first violation in event order is the
/// error), calls `on_alloc(id, size, birth)` per allocation, and returns
/// each object's death clock in birth order ([`CompiledTrace::NO_DEATH`]
/// if never freed) with the end clock. `objects` is a capacity hint.
pub(crate) fn resolve(
    events: impl IntoIterator<Item = Event>,
    objects: usize,
    mut on_alloc: impl FnMut(ObjectId, u32, u64),
) -> Result<(Vec<u64>, VirtualTime), TraceError> {
    let mut clock = VirtualTime::ZERO;
    let mut deaths: Vec<u64> = Vec::with_capacity(objects);
    let mut index: HashMap<ObjectId, usize> = HashMap::with_capacity(objects);
    for (pos, event) in events.into_iter().enumerate() {
        match event {
            Event::Alloc { id, size } => {
                if size == 0 {
                    return Err(TraceError::ZeroSizedAlloc { id, pos });
                }
                // The clock must stay below the `NO_DEATH` sentinel, or a
                // free at that clock would read as "never freed".
                clock = clock
                    .checked_advance(Bytes::new(size as u64))
                    .filter(|c| c.as_u64() != CompiledTrace::NO_DEATH)
                    .ok_or(TraceError::ClockOverflow { id, pos })?;
                if index.insert(id, deaths.len()).is_some() {
                    return Err(TraceError::DuplicateAlloc { id, pos });
                }
                deaths.push(CompiledTrace::NO_DEATH);
                on_alloc(id, size, clock.as_u64());
            }
            Event::Free { id } => {
                let Some(&slot) = index.get(&id) else {
                    return Err(TraceError::FreeWithoutAlloc { id, pos });
                };
                if deaths[slot] != CompiledTrace::NO_DEATH {
                    return Err(TraceError::DoubleFree { id, pos });
                }
                deaths[slot] = clock.as_u64();
            }
        }
    }
    Ok((deaths, clock))
}

/// A malformed event stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The same id was allocated twice.
    DuplicateAlloc {
        /// Offending object.
        id: ObjectId,
        /// Event index of the second allocation.
        pos: usize,
    },
    /// An id was freed without ever being allocated.
    FreeWithoutAlloc {
        /// Offending object.
        id: ObjectId,
        /// Event index of the stray free.
        pos: usize,
    },
    /// An id was freed twice.
    DoubleFree {
        /// Offending object.
        id: ObjectId,
        /// Event index of the second free.
        pos: usize,
    },
    /// An allocation had size zero.
    ZeroSizedAlloc {
        /// Offending object.
        id: ObjectId,
        /// Event index of the allocation.
        pos: usize,
    },
    /// The allocation totals overflow the `u64` allocation clock.
    ClockOverflow {
        /// The allocation that overflowed the clock.
        id: ObjectId,
        /// Event index of the allocation.
        pos: usize,
    },
    /// Compiled records are not in strictly-increasing birth order.
    NonMonotoneBirth {
        /// The out-of-order object.
        id: ObjectId,
        /// Index of the record in the compiled lifetime list.
        pos: usize,
    },
    /// A compiled record dies before it is born.
    DeathBeforeBirth {
        /// The impossible object.
        id: ObjectId,
        /// Index of the record in the compiled lifetime list.
        pos: usize,
    },
    /// Compiled object sizes do not sum to the end-of-trace clock.
    TotalsMismatch {
        /// Sum of all object sizes.
        sum: u64,
        /// The recorded end-of-trace clock.
        end: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::DuplicateAlloc { id, pos } => {
                write!(f, "object {id} allocated twice (event {pos})")
            }
            TraceError::FreeWithoutAlloc { id, pos } => {
                write!(f, "object {id} freed but never allocated (event {pos})")
            }
            TraceError::DoubleFree { id, pos } => {
                write!(f, "object {id} freed twice (event {pos})")
            }
            TraceError::ZeroSizedAlloc { id, pos } => {
                write!(f, "object {id} has zero size (event {pos})")
            }
            TraceError::ClockOverflow { id, pos } => {
                write!(
                    f,
                    "object {id} overflows the allocation clock (event {pos})"
                )
            }
            TraceError::NonMonotoneBirth { id, pos } => {
                write!(f, "object {id} born out of order (record {pos})")
            }
            TraceError::DeathBeforeBirth { id, pos } => {
                write!(f, "object {id} dies before it is born (record {pos})")
            }
            TraceError::TotalsMismatch { sum, end } => {
                write!(
                    f,
                    "object sizes sum to {sum} but the trace ends at clock {end}"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The full lifetime of one object on the allocation clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectLife {
    /// The object's identity.
    pub id: ObjectId,
    /// Allocation-clock time of birth (clock *after* the allocation, so
    /// births are strictly positive and strictly increasing).
    pub birth: VirtualTime,
    /// Size in bytes.
    pub size: u32,
    /// Allocation-clock time at which the object became unreachable;
    /// `None` for objects still live at program end.
    pub death: Option<VirtualTime>,
}

impl ObjectLife {
    /// True when the object is still reachable at allocation time `at`.
    ///
    /// An object is live from its birth until (exclusive) its death; an
    /// object is *not yet* live before its birth.
    pub fn is_live_at(&self, at: VirtualTime) -> bool {
        self.birth <= at && self.death.is_none_or(|d| d > at)
    }

    /// True when the object is garbage (unreachable) at time `at`.
    pub fn is_dead_at(&self, at: VirtualTime) -> bool {
        self.death.is_some_and(|d| d <= at)
    }

    /// Object size as [`Bytes`].
    pub fn bytes(&self) -> Bytes {
        Bytes::new(self.size as u64)
    }
}

/// A compiled trace: birth-ordered object lifetimes plus the end-of-trace
/// clock value.
///
/// Records are stored **struct-of-arrays**: parallel `ids` / `births` /
/// `sizes` / `deaths` columns indexed by record position. The hot
/// columns hold raw clock words — births as `u64`, deaths as `u64` with
/// [`CompiledTrace::NO_DEATH`] for immortals, the same convention as the
/// on-disk `DTBCTC01` records and [`EventBlock`](crate::EventBlock) — so
/// block fills are straight `memcpy`s and the engine's replay streams
/// exactly the bytes it reads instead of dragging whole [`ObjectLife`]
/// structs (including `Option` discriminants and padding) through the
/// cache. Use the column accessors ([`births`](CompiledTrace::births), …)
/// in hot loops and [`life`](CompiledTrace::life) /
/// [`lives`](CompiledTrace::lives) where whole records are more
/// convenient.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompiledTrace {
    /// Workload metadata (copied from the source [`Trace`]).
    pub meta: TraceMeta,
    /// The allocation clock at the end of the trace (= total bytes
    /// allocated).
    pub end: VirtualTime,
    ids: Vec<ObjectId>,
    births: Vec<u64>,
    sizes: Vec<u32>,
    deaths: Vec<u64>,
}

impl CompiledTrace {
    /// Sentinel death clock for "lives to the end of the trace" in the
    /// raw `deaths` column — the `DTBCTC01` on-disk convention. No real
    /// allocation clock reaches it.
    pub const NO_DEATH: u64 = u64::MAX;

    /// Builds a compiled trace directly from per-object records.
    ///
    /// The records are taken as given — call
    /// [`validate`](CompiledTrace::validate) to check the structural
    /// invariants [`Trace::compile`] would have established.
    pub fn from_lives(
        meta: TraceMeta,
        end: VirtualTime,
        lives: impl IntoIterator<Item = ObjectLife>,
    ) -> CompiledTrace {
        let mut out = CompiledTrace {
            meta,
            end,
            ids: Vec::new(),
            births: Vec::new(),
            sizes: Vec::new(),
            deaths: Vec::new(),
        };
        for life in lives {
            out.push(life);
        }
        out
    }

    /// Appends one record, unchecked like
    /// [`from_lives`](CompiledTrace::from_lives).
    pub(crate) fn push(&mut self, life: ObjectLife) {
        self.ids.push(life.id);
        self.births.push(life.birth.as_u64());
        self.sizes.push(life.size);
        self.deaths
            .push(life.death.map_or(CompiledTrace::NO_DEATH, |d| d.as_u64()));
    }

    /// Number of object records.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the trace allocated nothing.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The record at position `i`, materialized as an [`ObjectLife`].
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn life(&self, i: usize) -> ObjectLife {
        ObjectLife {
            id: self.ids[i],
            birth: VirtualTime::from_bytes(self.births[i]),
            size: self.sizes[i],
            death: (self.deaths[i] != CompiledTrace::NO_DEATH)
                .then(|| VirtualTime::from_bytes(self.deaths[i])),
        }
    }

    /// Iterates the records in birth order, materializing each as an
    /// [`ObjectLife`].
    pub fn lives(&self) -> impl ExactSizeIterator<Item = ObjectLife> + '_ {
        (0..self.len()).map(|i| self.life(i))
    }

    /// Object ids, by record position.
    pub fn ids(&self) -> &[ObjectId] {
        &self.ids
    }

    /// Birth clocks (raw `u64` bytes), strictly increasing by record
    /// position.
    pub fn births(&self) -> &[u64] {
        &self.births
    }

    /// Object sizes in bytes, by record position.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Death clocks (raw `u64` bytes; [`CompiledTrace::NO_DEATH`] = lives
    /// to trace end), by record position.
    pub fn deaths(&self) -> &[u64] {
        &self.deaths
    }

    /// Overwrites the death time of record `i` (fault injection).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn set_death(&mut self, i: usize, death: Option<VirtualTime>) {
        self.deaths[i] = death.map_or(CompiledTrace::NO_DEATH, |d| d.as_u64());
    }

    /// Swaps records `i` and `j` wholesale (fault injection; breaks the
    /// birth-order invariant unless the records are equal).
    ///
    /// # Panics
    ///
    /// Panics when either index is out of bounds.
    pub fn swap_records(&mut self, i: usize, j: usize) {
        self.ids.swap(i, j);
        self.births.swap(i, j);
        self.sizes.swap(i, j);
        self.deaths.swap(i, j);
    }

    /// Reverses the record order (fault injection; breaks the birth-order
    /// invariant for traces with at least two records).
    pub fn reverse_records(&mut self) {
        self.ids.reverse();
        self.births.reverse();
        self.sizes.reverse();
        self.deaths.reverse();
    }

    /// Total bytes allocated.
    pub fn total_allocated(&self) -> Bytes {
        Bytes::new(self.end.as_u64())
    }

    /// Live bytes at allocation time `at` (O(n); for bulk queries use the
    /// simulator's oracle heap, which answers incrementally).
    pub fn live_bytes_at(&self, at: VirtualTime) -> Bytes {
        self.lives()
            .filter(|l| l.is_live_at(at))
            .map(|l| l.bytes())
            .sum()
    }

    /// Verifies the birth-ordering invariant; generators and deserializers
    /// call this in tests.
    pub fn births_strictly_increasing(&self) -> bool {
        self.births.windows(2).all(|w| w[0] < w[1])
    }

    /// Checks the structural invariants every [`Trace::compile`] output
    /// satisfies: births strictly increasing, no death before birth, and
    /// object sizes summing exactly to the end-of-trace clock.
    ///
    /// [`Trace::compile`] establishes these by construction; this check
    /// exists for compiled traces built or mutated by other means (hand
    /// construction, fault injection, a future direct deserializer). The
    /// simulation engine refuses traces that fail it.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a [`TraceError`].
    pub fn validate(&self) -> Result<(), TraceError> {
        let mut prev_birth: Option<VirtualTime> = None;
        let mut sum: u64 = 0;
        for (pos, life) in self.lives().enumerate() {
            if life.size == 0 {
                return Err(TraceError::ZeroSizedAlloc { id: life.id, pos });
            }
            if prev_birth.is_some_and(|p| life.birth <= p) {
                return Err(TraceError::NonMonotoneBirth { id: life.id, pos });
            }
            prev_birth = Some(life.birth);
            if life.death.is_some_and(|d| d < life.birth) {
                return Err(TraceError::DeathBeforeBirth { id: life.id, pos });
            }
            sum = sum
                .checked_add(life.size as u64)
                .ok_or(TraceError::ClockOverflow { id: life.id, pos })?;
        }
        if sum != self.end.as_u64() {
            return Err(TraceError::TotalsMismatch {
                sum,
                end: self.end.as_u64(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(id: u64, size: u32) -> Event {
        Event::Alloc {
            id: ObjectId(id),
            size,
        }
    }

    fn free(id: u64) -> Event {
        Event::Free { id: ObjectId(id) }
    }

    fn trace(events: Vec<Event>) -> Trace {
        Trace {
            meta: TraceMeta::named("test"),
            events,
        }
    }

    #[test]
    fn clock_advances_on_alloc_only() {
        let t = trace(vec![alloc(0, 10), free(0), alloc(1, 5)]);
        let c = t.compile().unwrap();
        assert_eq!(c.end, VirtualTime::from_bytes(15));
        assert_eq!(c.life(0).birth, VirtualTime::from_bytes(10));
        assert_eq!(c.life(0).death, Some(VirtualTime::from_bytes(10)));
        assert_eq!(c.life(1).birth, VirtualTime::from_bytes(15));
        assert_eq!(c.life(1).death, None);
    }

    #[test]
    fn births_are_strictly_increasing() {
        let t = trace(vec![alloc(0, 1), alloc(1, 1), alloc(2, 1)]);
        let c = t.compile().unwrap();
        assert!(c.births_strictly_increasing());
    }

    #[test]
    fn liveness_interval_is_half_open() {
        let t = trace(vec![alloc(0, 10), alloc(1, 10), free(0)]);
        let c = t.compile().unwrap();
        let obj = c.life(0);
        assert!(!obj.is_live_at(VirtualTime::from_bytes(9))); // before birth
        assert!(obj.is_live_at(VirtualTime::from_bytes(10))); // at birth
        assert!(obj.is_live_at(VirtualTime::from_bytes(19))); // before death (death=20)
        assert!(!obj.is_live_at(VirtualTime::from_bytes(20))); // at death
        assert!(obj.is_dead_at(VirtualTime::from_bytes(20)));
        assert!(!obj.is_dead_at(VirtualTime::from_bytes(19)));
    }

    #[test]
    fn live_bytes_at_counts_only_live() {
        let t = trace(vec![alloc(0, 10), alloc(1, 20), free(0), alloc(2, 5)]);
        let c = t.compile().unwrap();
        // At clock 29, only object 0 has been born (object 1 is born at 30).
        assert_eq!(c.live_bytes_at(VirtualTime::from_bytes(29)), Bytes::new(10));
        // At clock 30, object 0 is dead (death = 30) and object 1 is live.
        assert_eq!(c.live_bytes_at(VirtualTime::from_bytes(30)), Bytes::new(20));
        // After object 0's death (at clock 30) and object 2's birth (clock 35).
        assert_eq!(c.live_bytes_at(VirtualTime::from_bytes(35)), Bytes::new(25));
    }

    #[test]
    fn duplicate_alloc_rejected() {
        let t = trace(vec![alloc(0, 1), alloc(0, 1)]);
        assert_eq!(
            t.compile(),
            Err(TraceError::DuplicateAlloc {
                id: ObjectId(0),
                pos: 1
            })
        );
    }

    #[test]
    fn stray_free_rejected() {
        let t = trace(vec![free(3)]);
        assert!(matches!(
            t.compile(),
            Err(TraceError::FreeWithoutAlloc { .. })
        ));
    }

    #[test]
    fn double_free_rejected() {
        let t = trace(vec![alloc(0, 1), free(0), free(0)]);
        assert_eq!(
            t.compile(),
            Err(TraceError::DoubleFree {
                id: ObjectId(0),
                pos: 2
            })
        );
    }

    #[test]
    fn zero_sized_alloc_rejected() {
        let t = trace(vec![alloc(0, 0)]);
        assert!(matches!(
            t.compile(),
            Err(TraceError::ZeroSizedAlloc { .. })
        ));
    }

    #[test]
    fn totals_match_between_trace_and_compiled() {
        let t = trace(vec![alloc(0, 7), alloc(1, 13), free(1)]);
        assert_eq!(t.total_allocated(), Bytes::new(20));
        assert_eq!(t.object_count(), 2);
        let c = t.compile().unwrap();
        assert_eq!(c.total_allocated(), Bytes::new(20));
    }

    #[test]
    fn error_messages_are_descriptive() {
        let err = TraceError::DoubleFree {
            id: ObjectId(9),
            pos: 4,
        };
        assert_eq!(err.to_string(), "object #9 freed twice (event 4)");
    }

    #[test]
    fn validate_agrees_with_compile() {
        let cases = vec![
            trace(vec![alloc(0, 10), free(0), alloc(1, 5)]),
            trace(vec![alloc(0, 1), alloc(0, 1)]),
            trace(vec![free(3)]),
            trace(vec![alloc(0, 1), free(0), free(0)]),
            trace(vec![alloc(0, 0)]),
            trace(vec![]),
        ];
        for t in cases {
            assert_eq!(
                t.validate(),
                t.compile().map(|_| ()),
                "validate and compile disagree on {:?}",
                t.events
            );
        }
    }

    #[test]
    fn compiled_validate_accepts_compile_output() {
        let t = trace(vec![alloc(0, 10), alloc(1, 20), free(0), alloc(2, 5)]);
        assert_eq!(t.compile().unwrap().validate(), Ok(()));
    }

    #[test]
    fn compiled_validate_catches_out_of_order_births() {
        let mut c = trace(vec![alloc(0, 10), alloc(1, 20)]).compile().unwrap();
        c.swap_records(0, 1);
        assert!(matches!(
            c.validate(),
            Err(TraceError::NonMonotoneBirth { .. })
        ));
    }

    #[test]
    fn compiled_validate_catches_death_before_birth() {
        let mut c = trace(vec![alloc(0, 10), alloc(1, 20)]).compile().unwrap();
        c.set_death(1, Some(VirtualTime::from_bytes(5)));
        assert_eq!(
            c.validate(),
            Err(TraceError::DeathBeforeBirth {
                id: ObjectId(1),
                pos: 1
            })
        );
    }

    #[test]
    fn compiled_validate_catches_totals_mismatch() {
        let mut c = trace(vec![alloc(0, 10)]).compile().unwrap();
        c.end = VirtualTime::from_bytes(99);
        assert_eq!(
            c.validate(),
            Err(TraceError::TotalsMismatch { sum: 10, end: 99 })
        );
    }
}
