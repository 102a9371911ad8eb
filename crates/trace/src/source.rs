//! Streaming event sources: compiled-trace records one at a time.
//!
//! Everything upstream of the simulation engine used to be resident — a
//! whole [`CompiledTrace`] in memory, borrowed for the duration of a run.
//! [`EventSource`] breaks that coupling: it yields birth-ordered
//! [`ObjectLife`] records **one at a time**, so the engine's memory is
//! bounded by the live set plus a read chunk, not the trace length.
//!
//! Three implementations cover the pipeline:
//!
//! * [`CompiledSource`] — a cursor over an in-memory [`CompiledTrace`].
//!   Replay through it is bit-identical to the resident path; the engine's
//!   `&CompiledTrace` entry points are thin wrappers around it.
//! * [`crate::ctc::ShardReader`] — chunked replay of the on-disk
//!   `DTBCTC02` sharded compiled-trace format, for traces larger than RAM.
//! * [`SynthSource`] — unbounded on-the-fly synthetic generation from a
//!   [`WorkloadSpec`], for workloads that never exist as a file at all.
//!
//! Contract: records come in **strictly increasing birth order** (the
//! engine and the stats kernel re-check and report violations as typed
//! errors), and [`EventSource::end`] is accurate once the source is
//! exhausted.

use crate::ctc::CtcError;
use crate::event::{CompiledTrace, ObjectLife, TraceError, TraceMeta};
use crate::synth::{SpecError, WorkloadSpec};
use dtb_core::time::VirtualTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A failure while producing the next record of a streaming source.
#[derive(Clone, Debug, PartialEq)]
pub enum SourceError {
    /// The on-disk shard store failed (I/O, corruption, checksum).
    Shard(CtcError),
    /// A synthetic source failed. [`SynthSource`] never does once its
    /// spec validates; fault-injecting test sources use this variant.
    Synth(String),
    /// A record breaks the stream's order contract: its birth does not
    /// follow the previous record's
    /// ([`TraceError::NonMonotoneBirth`]), or it dies before it is born
    /// ([`TraceError::DeathBeforeBirth`]). `pos` is the record's index in
    /// the stream.
    Order(TraceError),
    /// [`EventSource::seek`] was called; no source repositions.
    SeekUnsupported {
        /// Name of the source's trace.
        source: String,
    },
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Shard(e) => write!(f, "shard store: {e}"),
            SourceError::Synth(msg) => write!(f, "synthetic source: {msg}"),
            SourceError::Order(e) => write!(f, "record out of order: {e}"),
            SourceError::SeekUnsupported { source } => {
                write!(f, "source `{source}` does not support seeking")
            }
        }
    }
}

impl std::error::Error for SourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SourceError::Shard(e) => Some(e),
            SourceError::Order(e) => Some(e),
            SourceError::Synth(_) | SourceError::SeekUnsupported { .. } => None,
        }
    }
}

impl From<CtcError> for SourceError {
    fn from(e: CtcError) -> Self {
        SourceError::Shard(e)
    }
}

/// Default number of records per [`EventBlock`] — sized so a block's
/// three columns (20 bytes of payload per record) fit comfortably in L2
/// while amortizing per-block bookkeeping over ~1k events.
pub const DEFAULT_BLOCK_EVENTS: usize = 1024;

/// A reusable struct-of-arrays batch of lifetime records.
///
/// The block drive loop asks sources for whole blocks
/// ([`EventSource::next_block`]) instead of one record at a time; the
/// three parallel columns are the same flat layout as
/// [`CompiledTrace`]'s and the on-disk `DTBCTC02` records, so bulk
/// fills are column copies and downstream consumers (validation
/// pre-scans, heap index builds) get autovectorizable slices. Death
/// times use [`EventBlock::NO_DEATH`] for immortal objects.
///
/// A mid-block source failure is *deferred*: the good prefix stays in
/// the columns and the error is stashed ([`EventBlock::set_error`])
/// for the consumer to surface after processing the prefix — exactly
/// the order the per-record path observes events and errors in.
#[derive(Debug, Default)]
pub struct EventBlock {
    births: Vec<u64>,
    sizes: Vec<u32>,
    deaths: Vec<u64>,
    capacity: usize,
    error: Option<SourceError>,
}

impl EventBlock {
    /// Sentinel death time for "lives to the end of the trace" in the
    /// `deaths` column — the `DTBCTC02` on-disk convention. No real
    /// allocation clock reaches it.
    pub const NO_DEATH: u64 = u64::MAX;

    /// An empty block that holds at most `capacity` records per fill
    /// (floored at one).
    pub fn new(capacity: usize) -> EventBlock {
        let capacity = capacity.max(1);
        EventBlock {
            births: Vec::with_capacity(capacity),
            sizes: Vec::with_capacity(capacity),
            deaths: Vec::with_capacity(capacity),
            capacity,
            error: None,
        }
    }

    /// Number of records currently in the block.
    pub fn len(&self) -> usize {
        self.births.len()
    }

    /// True when the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.births.is_empty()
    }

    /// Maximum records per fill.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Empties the block (and any stashed error) for the next fill.
    pub fn clear(&mut self) {
        self.births.clear();
        self.sizes.clear();
        self.deaths.clear();
        self.error = None;
    }

    /// Appends one record.
    pub fn push(&mut self, life: ObjectLife) {
        self.births.push(life.birth.as_u64());
        self.sizes.push(life.size);
        self.deaths
            .push(life.death.map_or(Self::NO_DEATH, |d| d.as_u64()));
    }

    /// Bulk-appends records from borrowed column slices (the
    /// [`CompiledSource`] fast path). The columns share the block's
    /// raw-word layout (`NO_DEATH` sentinel included), so each copy is a
    /// straight `memcpy`.
    pub fn push_columns(&mut self, births: &[u64], sizes: &[u32], deaths: &[u64]) {
        debug_assert!(births.len() == sizes.len() && births.len() == deaths.len());
        self.births.extend_from_slice(births);
        self.sizes.extend_from_slice(sizes);
        self.deaths.extend_from_slice(deaths);
    }

    /// Stashes a deferred source error (see the type docs).
    pub fn set_error(&mut self, error: SourceError) {
        self.error = Some(error);
    }

    /// The stashed error, if any.
    pub fn error(&self) -> Option<&SourceError> {
        self.error.as_ref()
    }

    /// Takes the stashed error, leaving the block clean.
    pub fn take_error(&mut self) -> Option<SourceError> {
        self.error.take()
    }

    /// Birth clocks, one per record (strictly increasing for a
    /// well-formed stream).
    pub fn births(&self) -> &[u64] {
        &self.births
    }

    /// Object sizes in bytes, one per record.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Death clocks, one per record ([`EventBlock::NO_DEATH`] =
    /// immortal).
    pub fn deaths(&self) -> &[u64] {
        &self.deaths
    }

    /// Reassembles record `i` (the per-event replay path).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn life(&self, i: usize) -> ObjectLife {
        ObjectLife {
            birth: VirtualTime::from_bytes(self.births[i]),
            size: self.sizes[i],
            death: (self.deaths[i] != Self::NO_DEATH)
                .then(|| VirtualTime::from_bytes(self.deaths[i])),
        }
    }
}

/// A stream of birth-ordered object-lifetime records.
///
/// Object-safe: the executor holds sources as `Box<dyn EventSource +
/// Send>`, while the engine's hot path stays generic (and monomorphized)
/// over concrete implementations.
pub trait EventSource {
    /// The trace metadata (name, description, execution seconds).
    fn meta(&self) -> &TraceMeta;

    /// Total record count when known up front (`None` for unbounded
    /// generators). Consumers may use it to size buffers but must not
    /// trust it for correctness.
    fn len_hint(&self) -> Option<usize> {
        None
    }

    /// The next record in birth order, `Ok(None)` at end of stream.
    ///
    /// # Errors
    ///
    /// Returns [`SourceError`] when the underlying store or generator
    /// fails; the stream is dead after an error.
    fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError>;

    /// Fills `block` with the next up-to-`capacity` records and returns
    /// how many landed.
    ///
    /// Semantically a loop of [`next_record`](EventSource::next_record)
    /// calls — and that is the default implementation, which
    /// [`SynthSource`] uses — but the stored sources override it with
    /// bulk column work: [`CompiledSource`] copies borrowed trace
    /// columns, and the `DTBCTC02`
    /// [`ShardReader`](crate::ctc::ShardReader) decodes whole shard
    /// chunks in one pass. A mid-block failure is stashed in the block
    /// (the good prefix is kept, per [`EventBlock`]'s deferred-error
    /// contract); `0` with no stashed error means end of stream.
    fn next_block(&mut self, block: &mut EventBlock) -> usize {
        block.clear();
        while block.len() < block.capacity() {
            match self.next_record() {
                Ok(Some(life)) => block.push(life),
                Ok(None) => break,
                Err(e) => {
                    block.set_error(e);
                    break;
                }
            }
        }
        block.len()
    }

    /// The end-of-trace allocation clock. Guaranteed accurate only after
    /// [`next_record`](EventSource::next_record) has returned `Ok(None)`;
    /// sources that know the end up front (shard stores, compiled traces)
    /// report it immediately.
    fn end(&self) -> VirtualTime;

    /// Always fails with [`SourceError::SeekUnsupported`]. Stays only
    /// because `benchmark/src/layers.rs` forwards it, until that file
    /// drops the forward.
    ///
    /// # Errors
    ///
    /// Always [`SourceError::SeekUnsupported`].
    fn seek(&mut self, clock: VirtualTime) -> Result<(), SourceError> {
        let _ = clock;
        Err(SourceError::SeekUnsupported {
            source: self.meta().name.clone(),
        })
    }
}

/// In-memory [`EventSource`]: a cursor over a borrowed [`CompiledTrace`].
pub struct CompiledSource<'a> {
    trace: &'a CompiledTrace,
    pos: usize,
}

impl<'a> CompiledSource<'a> {
    /// Starts a cursor at the first record.
    pub fn new(trace: &'a CompiledTrace) -> CompiledSource<'a> {
        CompiledSource { trace, pos: 0 }
    }

    /// The unconsumed remainder of the trace as borrowed column slices
    /// `(births, sizes, deaths)` — zero-copy views straight into the
    /// compiled trace's struct-of-arrays storage. Births and deaths are
    /// raw clock words ([`CompiledTrace::NO_DEATH`] = immortal), the same
    /// layout [`EventBlock`] exposes.
    pub fn columns(&self) -> (&'a [u64], &'a [u32], &'a [u64]) {
        (
            &self.trace.births()[self.pos..],
            &self.trace.sizes()[self.pos..],
            &self.trace.deaths()[self.pos..],
        )
    }
}

impl EventSource for CompiledSource<'_> {
    fn meta(&self) -> &TraceMeta {
        &self.trace.meta
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.trace.len())
    }

    fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
        if self.pos >= self.trace.len() {
            return Ok(None);
        }
        let life = self.trace.life(self.pos);
        self.pos += 1;
        Ok(Some(life))
    }

    fn next_block(&mut self, block: &mut EventBlock) -> usize {
        block.clear();
        let n = (self.trace.len() - self.pos).min(block.capacity());
        let (births, sizes, deaths) = self.columns();
        block.push_columns(&births[..n], &sizes[..n], &deaths[..n]);
        self.pos += n;
        n
    }

    fn end(&self) -> VirtualTime {
        self.trace.end
    }
}

/// Unbounded synthetic [`EventSource`]: generates a [`WorkloadSpec`]'s
/// object stream on the fly, in O(1) memory per record.
///
/// This is the one sampler. It emits the permanent startup ramp, then
/// the per-class mixture, each record with its **sampled** death. A
/// preset is this stream with each death snapped to the first birth at
/// or after it: [`WorkloadSpec::generate`] and [`WorkloadSpec::compile`]
/// apply that rule, so their deaths can fall later than this stream's,
/// and a death past the last birth becomes none. Births and sizes are
/// the same on every route. Use [`collect_source`] when a resident
/// copy of exactly this stream is needed (e.g. for differential
/// testing).
///
/// Deterministic: the same spec (including seed) always yields the same
/// stream.
pub struct SynthSource {
    spec: WorkloadSpec,
    meta: TraceMeta,
    rng: StdRng,
    weights: Vec<f64>,
    weight_total: f64,
    clock: u64,
    emitted: u64,
}

impl SynthSource {
    /// Validates the spec and positions the stream at its first record.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the spec fails [`WorkloadSpec::validate`].
    pub fn new(spec: WorkloadSpec) -> Result<SynthSource, SpecError> {
        spec.validate()?;
        let meta = TraceMeta {
            name: spec.name.clone(),
            description: spec.description.clone(),
            exec_seconds: spec.exec_seconds,
        };
        let rng = StdRng::seed_from_u64(spec.seed);
        let weights: Vec<f64> = spec
            .classes
            .iter()
            .map(|c| c.byte_fraction / c.size.mean().max(1.0))
            .collect();
        let weight_total = weights.iter().sum();
        Ok(SynthSource {
            spec,
            meta,
            rng,
            weights,
            weight_total,
            clock: 0,
            emitted: 0,
        })
    }

    /// Records generated so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The generator: startup ramp, then the steady-state class mixture.
    /// A validated spec keeps every draw and the clock in range, so this
    /// cannot fail; a death past the top of the clock is none.
    pub(crate) fn next_life(&mut self) -> Option<ObjectLife> {
        // Startup: the initial permanent structure (never dies).
        if self.clock < self.spec.initial_permanent {
            let size = self
                .spec
                .initial_object_size
                .min((self.spec.initial_permanent - self.clock).max(1) as u32)
                .max(1);
            self.clock += size as u64;
            self.emitted += 1;
            return Some(ObjectLife {
                birth: VirtualTime::from_bytes(self.clock),
                size,
                death: None,
            });
        }
        if self.clock >= self.spec.total_alloc {
            return None;
        }
        // Steady state: pick a class by byte-weight, sample size and
        // death on the allocation clock.
        let mut pick = self.rng.gen_range(0.0..self.weight_total);
        let mut chosen = self.spec.classes.len() - 1;
        for (i, w) in self.weights.iter().enumerate() {
            if pick < *w {
                chosen = i;
                break;
            }
            pick -= w;
        }
        let class = &self.spec.classes[chosen];
        let size = class.size.sample(&mut self.rng);
        self.clock += size as u64;
        let birth = self.clock;
        let death = if class.lifetime.is_phase_local() {
            // Dies at the end of the phase it was born in.
            let period = self.spec.phase_period.expect("validated at construction");
            (birth / period + 1).checked_mul(period)
        } else {
            class
                .lifetime
                .sample(&mut self.rng)
                .and_then(|l| birth.checked_add(l))
        };
        self.emitted += 1;
        Some(ObjectLife {
            birth: VirtualTime::from_bytes(birth),
            size,
            death: death.map(VirtualTime::from_bytes),
        })
    }
}

impl EventSource for SynthSource {
    fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
        Ok(self.next_life())
    }

    fn end(&self) -> VirtualTime {
        VirtualTime::from_bytes(self.clock)
    }
}

/// Drains a source into a resident [`CompiledTrace`].
///
/// The inverse of [`CompiledSource`]; used by differential tests to get
/// the in-memory twin of a streamed run, and by tools that want to
/// materialize a synthetic stream.
///
/// # Errors
///
/// Propagates the source's [`SourceError`].
pub fn collect_source(
    source: &mut (impl EventSource + ?Sized),
) -> Result<CompiledTrace, SourceError> {
    let mut trace = CompiledTrace::from_lives(source.meta().clone(), VirtualTime::ZERO, []);
    while let Some(life) = source.next_record()? {
        trace.push(life);
    }
    trace.end = source.end();
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::lifetime::{LifetimeDist, SizeDist};
    use crate::synth::ClassSpec;

    fn compiled() -> CompiledTrace {
        let mut b = TraceBuilder::new("src-test");
        let a = b.alloc(10);
        b.alloc(20);
        b.free(a);
        b.alloc(5);
        b.finish().compile().unwrap()
    }

    #[test]
    fn compiled_source_replays_every_record_in_order() {
        let c = compiled();
        let mut src = CompiledSource::new(&c);
        assert_eq!(src.len_hint(), Some(3));
        assert_eq!(src.meta(), &c.meta);
        assert_eq!(src.end(), c.end);
        let mut seen = Vec::new();
        while let Some(l) = src.next_record().unwrap() {
            seen.push(l);
        }
        assert_eq!(seen, c.lives().collect::<Vec<_>>());
        // Exhausted source stays exhausted.
        assert_eq!(src.next_record().unwrap(), None);
    }

    #[test]
    fn collect_source_round_trips_a_compiled_trace() {
        let c = compiled();
        let back = collect_source(&mut CompiledSource::new(&c)).unwrap();
        assert_eq!(back, c);
    }

    fn synth_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "synth-src".into(),
            description: "streaming generator".into(),
            exec_seconds: 1.0,
            total_alloc: 300_000,
            initial_permanent: 20_000,
            initial_object_size: 512,
            classes: vec![
                ClassSpec::new(
                    "short",
                    0.8,
                    SizeDist::Uniform { min: 16, max: 128 },
                    LifetimeDist::Exponential { mean: 4_000.0 },
                ),
                ClassSpec::new(
                    "immortal",
                    0.2,
                    SizeDist::Fixed(256),
                    LifetimeDist::Immortal,
                ),
            ],
            phase_period: None,
            seed: 11,
        }
    }

    #[test]
    fn synth_source_is_deterministic_and_well_formed() {
        let a = collect_source(&mut SynthSource::new(synth_spec()).unwrap()).unwrap();
        let b = collect_source(&mut SynthSource::new(synth_spec()).unwrap()).unwrap();
        assert_eq!(a, b);
        assert!(a.len() > 1_000);
        a.validate().expect("stream satisfies compiled invariants");
        assert!(a.births_strictly_increasing());
    }

    #[test]
    fn synth_source_end_matches_total_allocation() {
        let mut src = SynthSource::new(synth_spec()).unwrap();
        let c = collect_source(&mut src).unwrap();
        // End clock = total bytes allocated, within one object of target.
        assert_eq!(c.end, src.end());
        let end = c.end.as_u64();
        assert!((300_000..300_000 + 4_096).contains(&end), "end {end}");
    }

    #[test]
    fn synth_source_startup_objects_are_permanent() {
        let c = collect_source(&mut SynthSource::new(synth_spec()).unwrap()).unwrap();
        for l in c.lives().take_while(|l| l.birth.as_u64() <= 20_000) {
            assert_eq!(l.death, None, "startup object {l:?} died");
        }
    }

    #[test]
    fn synth_source_phase_local_deaths_land_on_phase_boundaries() {
        let spec = WorkloadSpec {
            name: "phases".into(),
            description: String::new(),
            exec_seconds: 1.0,
            total_alloc: 100_000,
            initial_permanent: 0,
            initial_object_size: 1,
            classes: vec![ClassSpec::new(
                "pass",
                1.0,
                SizeDist::Fixed(100),
                LifetimeDist::PhaseLocal,
            )],
            phase_period: Some(10_000),
            seed: 3,
        };
        let c = collect_source(&mut SynthSource::new(spec).unwrap()).unwrap();
        for l in c.lives() {
            let d = l.death.expect("phase-local objects always die").as_u64();
            assert_eq!(d % 10_000, 0, "death {d} not on a phase boundary");
            assert!(d > l.birth.as_u64());
        }
    }

    #[test]
    fn synth_source_rejects_invalid_specs() {
        let mut spec = synth_spec();
        spec.total_alloc = 0;
        assert!(SynthSource::new(spec).is_err());
    }

    /// Hides an [`EventSource`]'s `next_block` override so the trait's
    /// per-record default is what gets tested.
    struct DefaultBlocking<S>(S);

    impl<S: EventSource> EventSource for DefaultBlocking<S> {
        fn meta(&self) -> &TraceMeta {
            self.0.meta()
        }
        fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
            self.0.next_record()
        }
        fn end(&self) -> VirtualTime {
            self.0.end()
        }
    }

    /// Drains `blocked` via `next_block` at the given capacity and checks
    /// the record stream equals draining `recorded` one record at a time.
    fn assert_blocks_match_records(
        mut blocked: impl EventSource,
        mut recorded: impl EventSource,
        capacity: usize,
    ) {
        let mut block = EventBlock::new(capacity);
        let mut via_blocks = Vec::new();
        loop {
            let n = blocked.next_block(&mut block);
            assert!(block.take_error().is_none());
            if n == 0 {
                break;
            }
            assert!(n <= block.capacity());
            for i in 0..n {
                via_blocks.push(block.life(i));
            }
        }
        let mut via_records = Vec::new();
        while let Some(l) = recorded.next_record().unwrap() {
            via_records.push(l);
        }
        assert_eq!(via_blocks, via_records, "capacity {capacity}");
    }

    #[test]
    fn next_block_matches_next_record_for_every_source() {
        let c = compiled();
        for cap in [1usize, 3, 7, 1024] {
            assert_blocks_match_records(CompiledSource::new(&c), CompiledSource::new(&c), cap);
            assert_blocks_match_records(
                DefaultBlocking(CompiledSource::new(&c)),
                CompiledSource::new(&c),
                cap,
            );
            assert_blocks_match_records(
                SynthSource::new(synth_spec()).unwrap(),
                SynthSource::new(synth_spec()).unwrap(),
                cap,
            );
        }
    }

    #[test]
    fn event_block_clamps_capacity_and_resets_cleanly() {
        let mut b = EventBlock::new(0);
        assert_eq!(b.capacity(), 1);
        assert!(b.is_empty());
        b.push(ObjectLife {
            birth: VirtualTime::from_bytes(10),
            size: 4,
            death: None,
        });
        b.set_error(SourceError::Synth("boom".into()));
        assert_eq!(b.len(), 1);
        assert_eq!(b.deaths()[0], EventBlock::NO_DEATH);
        assert_eq!(b.life(0).death, None);
        b.clear();
        assert!(b.is_empty());
        assert!(b.error().is_none());
    }
}
