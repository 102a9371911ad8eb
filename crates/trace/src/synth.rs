//! Synthetic workload generation.
//!
//! A [`WorkloadSpec`] describes a program's allocation behaviour as a
//! mixture of object **classes**, each with a byte-weight, a size
//! distribution, and a lifetime distribution, plus an initial permanent
//! data structure and an optional phase period for pass-structured
//! programs.
//!
//! [`SynthSource`] is the one sampler: it draws each object's class, size
//! and death on the allocation clock, deterministically from the spec's
//! seed. A preset is that record stream with each death snapped to the
//! first birth at or after it; [`WorkloadSpec::generate`] writes the
//! snapped stream as an event [`Trace`], and [`WorkloadSpec::compile`]
//! writes it straight into a [`CompiledTrace`]'s columns.
//!
//! The decomposition mirrors how the paper's programs use memory:
//!
//! * *initial permanent* — data structures built during startup that live
//!   to program end (SIS's circuit netlist, GhostScript's interpreter
//!   state);
//! * an *immortal ramp* — a class with [`LifetimeDist::Immortal`] whose
//!   allocations accumulate for the whole run (growing caches, results);
//! * *short-lived churn* — the "most objects die young" bulk;
//! * *medium-lived* objects that survive one or more scavenges and then
//!   die — the population that becomes tenured garbage under eager
//!   promotion (`FIXED1`) and that the DTB collectors untenure;
//! * *phase-local* objects dying in bulk at phase boundaries (Espresso's
//!   per-pass structures).

use crate::event::{CompiledTrace, Event, ObjectId, ObjectLife, Trace};
use crate::lifetime::{LifetimeDist, SizeDist};
use crate::source::{
    collect_source, CompiledSource, EventBlock, EventSource, SynthSource, DEFAULT_BLOCK_EVENTS,
};
use crate::stats::{DeathQueue, DueList};
use dtb_core::time::VirtualTime;
use serde::{Deserialize, Serialize};

/// One object class in a workload mixture.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClassSpec {
    /// Class name, for reports (`"short"`, `"medium"`, `"immortal-ramp"`…).
    pub name: String,
    /// Fraction of the workload's allocated **bytes** drawn from this
    /// class. Fractions across classes must sum to ~1.
    pub byte_fraction: f64,
    /// Object size distribution.
    pub size: SizeDist,
    /// Object lifetime distribution.
    pub lifetime: LifetimeDist,
}

impl ClassSpec {
    /// Creates a class.
    pub fn new(
        name: impl Into<String>,
        byte_fraction: f64,
        size: SizeDist,
        lifetime: LifetimeDist,
    ) -> ClassSpec {
        ClassSpec {
            name: name.into(),
            byte_fraction,
            size,
            lifetime,
        }
    }
}

/// A complete synthetic-workload description.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name, e.g. `"GHOST(1)"`.
    pub name: String,
    /// Human description (Table 5 analogue).
    pub description: String,
    /// Mutator execution time in seconds (Table 6), carried into the trace
    /// metadata for CPU-overhead computation.
    pub exec_seconds: f64,
    /// Total bytes to allocate, including the initial permanent data.
    pub total_alloc: u64,
    /// Bytes of immortal data allocated during startup, before the class
    /// mixture begins.
    pub initial_permanent: u64,
    /// Size of each initial-permanent object.
    pub initial_object_size: u32,
    /// The class mixture for steady-state allocation.
    pub classes: Vec<ClassSpec>,
    /// Phase period in allocation bytes, for [`LifetimeDist::PhaseLocal`]
    /// classes. Required when any class is phase-local.
    pub phase_period: Option<u64>,
    /// RNG seed: generation is fully deterministic given the spec.
    pub seed: u64,
}

/// A malformed workload description.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// Class byte-fractions do not sum to ~1.
    BadFractions(f64),
    /// A class has a negative byte-fraction.
    NegativeFraction(String),
    /// A phase-local class exists but no phase period is set.
    MissingPhasePeriod,
    /// A phase-local class exists and the phase period is zero.
    ZeroPhasePeriod(String),
    /// A class's size distribution has a zero size or `min > max`.
    BadSize(String),
    /// A class's lifetime distribution has a non-positive or non-finite
    /// exponential mean, or uniform bounds with `min > max`.
    BadLifetime(String),
    /// No classes and no initial permanent data: nothing to generate.
    Empty,
    /// `initial_permanent` exceeds `total_alloc`.
    PermanentExceedsTotal,
    /// `total_alloc` leaves no room for one more object below the top of
    /// the `u64` allocation clock.
    TotalTooLarge(u64),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::BadFractions(s) => {
                write!(f, "class byte fractions sum to {s}, expected 1.0")
            }
            SpecError::NegativeFraction(name) => {
                write!(f, "class {name} has a negative byte fraction")
            }
            SpecError::MissingPhasePeriod => {
                write!(f, "phase-local class present but phase_period unset")
            }
            SpecError::ZeroPhasePeriod(name) => {
                write!(f, "phase-local class {name} has a zero phase_period")
            }
            SpecError::BadSize(name) => {
                write!(f, "class {name} has a zero size or min > max")
            }
            SpecError::BadLifetime(name) => write!(
                f,
                "class {name} has a non-positive or non-finite mean lifetime, or min > max"
            ),
            SpecError::Empty => write!(f, "workload allocates nothing"),
            SpecError::PermanentExceedsTotal => {
                write!(f, "initial permanent data exceeds total allocation")
            }
            SpecError::TotalTooLarge(total) => {
                write!(f, "total allocation {total} overflows the allocation clock")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// One step of the snapped stream, as [`snap_deaths`] hands it to a
/// sink. An id is the record's position in the stream: `generate`
/// writes it into its events, and `compile` indexes its columns by it.
enum Step {
    /// Record `id`, with no death yet.
    Born(ObjectId, ObjectLife),
    /// Record `id` dies at clock `at`.
    Died(ObjectId, VirtualTime),
}

impl WorkloadSpec {
    /// Checks internal consistency. A spec that passes generates on
    /// every route ([`generate`](Self::generate), [`compile`](Self::compile),
    /// [`SynthSource`]) without a panic.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] found.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.total_alloc == 0 {
            return Err(SpecError::Empty);
        }
        if self.initial_permanent > self.total_alloc {
            return Err(SpecError::PermanentExceedsTotal);
        }
        if self.classes.is_empty() && self.initial_permanent < self.total_alloc {
            return Err(SpecError::Empty);
        }
        // The last object starts below `total_alloc` and may be
        // `u32::MAX` bytes; the clock must end below `u64::MAX`, which
        // compiled traces reserve for "never dies".
        if self.total_alloc > u64::MAX - u64::from(u32::MAX) {
            return Err(SpecError::TotalTooLarge(self.total_alloc));
        }
        let mut sum = 0.0;
        for c in &self.classes {
            if c.byte_fraction < 0.0 {
                return Err(SpecError::NegativeFraction(c.name.clone()));
            }
            if !c.size.is_valid() {
                return Err(SpecError::BadSize(c.name.clone()));
            }
            if !c.lifetime.is_valid() {
                return Err(SpecError::BadLifetime(c.name.clone()));
            }
            if c.lifetime.is_phase_local() {
                match self.phase_period {
                    None => return Err(SpecError::MissingPhasePeriod),
                    Some(0) => return Err(SpecError::ZeroPhasePeriod(c.name.clone())),
                    Some(_) => {}
                }
            }
            sum += c.byte_fraction;
        }
        if !self.classes.is_empty() && ((sum - 1.0).abs() > 1e-6 || sum.is_nan()) {
            return Err(SpecError::BadFractions(sum));
        }
        Ok(())
    }

    /// Expands the spec into a concrete event trace: [`SynthSource`]'s
    /// records as `Alloc` events. Each object's `Free` follows the first
    /// allocation at or after its sampled death, and frees at one place
    /// come in (sampled death, id) order. An object whose sampled death
    /// is past the last allocation is never freed, like a real trace cut
    /// at program exit.
    ///
    /// Deterministic: the same spec (including seed) always yields the
    /// same trace. Use [`compile`](Self::compile) when only the compiled
    /// trace is wanted.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the spec fails [`WorkloadSpec::validate`].
    pub fn generate(&self) -> Result<Trace, SpecError> {
        let mut source = SynthSource::new(self.clone())?;
        // The sampled stream first: its records and its deaths that fall
        // by its last birth are exactly the `Alloc` and `Free` events the
        // snap yields, so the event list is sized once.
        let stream = collect_source(&mut source).expect("synthetic sources never fail");
        let end = stream.end.as_u64();
        let frees = stream.deaths().iter().filter(|&&d| d <= end).count();
        let mut events: Vec<Event> = Vec::with_capacity(stream.len() + frees);
        snap_deaths(&mut CompiledSource::new(&stream), |step| {
            events.push(match step {
                Step::Born(id, life) => Event::Alloc {
                    id,
                    size: life.size,
                },
                Step::Died(id, _) => Event::Free { id },
            })
        });
        Ok(Trace {
            meta: stream.meta,
            events,
        })
    }

    /// Generates the spec straight into a [`CompiledTrace`]: equal to
    /// `self.generate()?.compile()`, without the event list or the id
    /// map.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the spec fails [`WorkloadSpec::validate`].
    pub fn compile(&self) -> Result<CompiledTrace, SpecError> {
        let mut source = SynthSource::new(self.clone())?;
        let mut trace = CompiledTrace::from_lives(source.meta().clone(), VirtualTime::ZERO, []);
        snap_deaths(&mut source, |step| match step {
            Step::Born(_, life) => trace.push(life),
            Step::Died(id, at) => trace.set_death(id.0 as usize, Some(at)),
        });
        trace.end = source.end();
        Ok(trace)
    }

    /// Analytic prediction of the steady-state live storage contributed by
    /// churn classes (Little's law on the allocation clock:
    /// `live ≈ Σ byte_fraction · mean_lifetime`), used for calibration.
    pub fn predicted_churn_live(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| {
                let mean_life = if c.lifetime.is_phase_local() {
                    self.phase_period.unwrap_or(0) as f64 / 2.0
                } else {
                    c.lifetime.mean().unwrap_or(0.0)
                };
                c.byte_fraction * mean_life
            })
            .sum()
    }

    /// Analytic prediction of immortal bytes at end of run: the initial
    /// permanent data plus the immortal ramp.
    pub fn predicted_immortal_end(&self) -> f64 {
        let ramp_fraction: f64 = self
            .classes
            .iter()
            .filter(|c| matches!(c.lifetime, LifetimeDist::Immortal))
            .map(|c| c.byte_fraction)
            .sum();
        self.initial_permanent as f64
            + ramp_fraction * (self.total_alloc - self.initial_permanent) as f64
    }
}

/// The one snapping rule behind [`WorkloadSpec::generate`] and
/// [`WorkloadSpec::compile`]: each record's sampled death lands on the
/// first birth at or after it, and a death that no birth reaches never
/// happens, so the object lives to the end.
///
/// Records are numbered from 0 in stream order. Between a birth and the
/// next, and once after the last, every pending death at or before that
/// birth dies there, in (sampled death, id) order: the order of
/// `generate`'s `Free` events. The snap works a block at a time, as the
/// `TraceStats` kernel does: a block's deaths due by its last birth go
/// straight to the due list, later ones wait in the radix
/// [`DeathQueue`] until a block's last birth reaches them, and the due
/// list, sorted on (sampled death, id), merges with the block's births.
/// Deaths still queued after the last block fall past the last birth.
///
/// `source` must not fail and must keep the stream's order (births
/// strictly increasing, no death before its birth): `SynthSource` and a
/// [`CompiledSource`] over its collected stream do.
fn snap_deaths(source: &mut impl EventSource, mut sink: impl FnMut(Step)) {
    let mut block = EventBlock::new(DEFAULT_BLOCK_EVENTS);
    let mut pending = DeathQueue::default();
    let mut due = DueList::with_capacity(DEFAULT_BLOCK_EVENTS);
    let mut first = 0;
    while source.next_block(&mut block) > 0 {
        debug_assert!(block.error().is_none(), "the snap's sources never fail");
        let (births, sizes, deaths) = (block.births(), block.sizes(), block.deaths());
        // The previous block's last birth: every due death lies after it.
        let mut clock = pending.last;
        let last = births[births.len() - 1];
        due.route(deaths, first.., last, &mut pending);
        pending.drain_through(last, &mut due.list);
        due.sort(clock);
        for tie in due.list.chunk_by_mut(|a, b| a.0 == b.0) {
            tie.sort_unstable_by_key(|&(_, id)| id);
        }
        let mut dying = due.list.iter().peekable();
        for (id, (&birth, &size)) in (first..).zip(births.iter().zip(sizes)) {
            while let Some(&(_, dead)) = dying.next_if(|&&(death, _)| death <= clock) {
                sink(Step::Died(ObjectId(dead), VirtualTime::from_bytes(clock)));
            }
            sink(Step::Born(
                ObjectId(id),
                ObjectLife {
                    birth: VirtualTime::from_bytes(birth),
                    size,
                    death: None,
                },
            ));
            clock = birth;
        }
        for &(_, dead) in dying {
            sink(Step::Died(ObjectId(dead), VirtualTime::from_bytes(last)));
        }
        due.list.clear();
        first += births.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtb_core::time::VirtualTime;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "unit".into(),
            description: "test workload".into(),
            exec_seconds: 1.0,
            total_alloc: 1_000_000,
            initial_permanent: 50_000,
            initial_object_size: 1000,
            classes: vec![
                ClassSpec::new(
                    "short",
                    0.9,
                    SizeDist::Uniform { min: 16, max: 128 },
                    LifetimeDist::Exponential { mean: 4_000.0 },
                ),
                ClassSpec::new(
                    "immortal",
                    0.1,
                    SizeDist::Fixed(256),
                    LifetimeDist::Immortal,
                ),
            ],
            phase_period: None,
            seed: 7,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = spec().generate().unwrap();
        let b = spec().generate().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = spec().generate().unwrap();
        let mut s = spec();
        s.seed = 8;
        let b = s.generate().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn total_allocation_hits_target_within_one_object() {
        let t = spec().generate().unwrap();
        let total = t.total_allocated().as_u64();
        assert!(total >= 1_000_000);
        assert!(total < 1_000_000 + 4096, "overshoot: {total}");
    }

    #[test]
    fn trace_compiles_cleanly() {
        let t = spec().generate().unwrap();
        let c = t.compile().expect("well-formed");
        assert!(c.births_strictly_increasing());
    }

    #[test]
    fn initial_permanent_objects_never_die() {
        let t = spec().generate().unwrap();
        let c = t.compile().unwrap();
        for life in c.lives().take_while(|l| l.birth.as_u64() <= 50_000) {
            assert_eq!(life.death, None, "initial object {life:?} died");
        }
    }

    #[test]
    fn byte_fractions_approximately_respected() {
        let t = spec().generate().unwrap();
        let c = t.compile().unwrap();
        let immortal_after_startup: u64 = c
            .lives()
            .filter(|l| l.birth.as_u64() > 50_000 && l.death.is_none())
            .map(|l| l.size as u64)
            .sum();
        let steady = 1_000_000 - 50_000;
        let frac = immortal_after_startup as f64 / steady as f64;
        // Immortal class is 10% of bytes; exponential stragglers still
        // alive at the end inflate it slightly.
        assert!((0.08..0.14).contains(&frac), "immortal fraction {frac:.3}");
    }

    #[test]
    fn phase_local_objects_die_at_phase_ends() {
        let s = WorkloadSpec {
            name: "phases".into(),
            description: String::new(),
            exec_seconds: 1.0,
            total_alloc: 500_000,
            initial_permanent: 0,
            initial_object_size: 1,
            classes: vec![ClassSpec::new(
                "pass",
                1.0,
                SizeDist::Fixed(100),
                LifetimeDist::PhaseLocal,
            )],
            phase_period: Some(100_000),
            seed: 1,
        };
        let c = s.generate().unwrap().compile().unwrap();
        for l in c.lives() {
            if let Some(d) = l.death {
                let death_phase_end = (l.birth.as_u64() / 100_000 + 1) * 100_000;
                // Free events are emitted at the first allocation at or
                // after the due time, so observed death ≥ scheduled death,
                // within one object size.
                assert!(
                    d.as_u64() >= death_phase_end && d.as_u64() < death_phase_end + 200,
                    "object born {:?} died {:?}",
                    l.birth,
                    d
                );
            }
        }
    }

    #[test]
    fn live_at_end_matches_immortal_prediction_roughly() {
        let s = spec();
        let c = s.generate().unwrap().compile().unwrap();
        let live_end = c.live_bytes_at(c.end).as_u64() as f64;
        let predicted = s.predicted_immortal_end() + s.predicted_churn_live();
        let err = (live_end - predicted).abs() / predicted;
        assert!(err < 0.2, "live_end {live_end} vs predicted {predicted}");
    }

    #[test]
    fn validation_rejects_bad_fractions() {
        let mut s = spec();
        s.classes[0].byte_fraction = 0.5; // sums to 0.6
        assert!(matches!(s.validate(), Err(SpecError::BadFractions(_))));
    }

    #[test]
    fn validation_rejects_missing_phase_period() {
        let mut s = spec();
        s.classes[0].lifetime = LifetimeDist::PhaseLocal;
        s.phase_period = None;
        assert_eq!(s.validate(), Err(SpecError::MissingPhasePeriod));
    }

    #[test]
    fn validation_rejects_empty_workload() {
        let s = WorkloadSpec {
            name: "empty".into(),
            description: String::new(),
            exec_seconds: 1.0,
            total_alloc: 0,
            initial_permanent: 0,
            initial_object_size: 1,
            classes: vec![],
            phase_period: None,
            seed: 0,
        };
        assert_eq!(s.validate(), Err(SpecError::Empty));
    }

    #[test]
    fn validation_rejects_permanent_exceeding_total() {
        let mut s = spec();
        s.initial_permanent = s.total_alloc + 1;
        assert_eq!(s.validate(), Err(SpecError::PermanentExceedsTotal));
    }

    #[test]
    fn malformed_specs_are_errors_on_every_route() {
        let one_class = |size, lifetime, phase_period| WorkloadSpec {
            classes: vec![ClassSpec::new("bad", 1.0, size, lifetime)],
            phase_period,
            ..spec()
        };
        let (size, life) = (SizeDist::Fixed(64), LifetimeDist::Immortal);
        let bad_size = SpecError::BadSize("bad".into());
        let bad_life = SpecError::BadLifetime("bad".into());
        let cases = [
            (one_class(SizeDist::Fixed(0), life, None), bad_size.clone()),
            (
                one_class(SizeDist::Uniform { min: 10, max: 5 }, life, None),
                bad_size.clone(),
            ),
            (
                one_class(SizeDist::PowerOfTwo { min: 0, max: 8 }, life, None),
                bad_size,
            ),
            (
                one_class(size, LifetimeDist::Exponential { mean: 0.0 }, None),
                bad_life.clone(),
            ),
            (
                one_class(size, LifetimeDist::Exponential { mean: f64::NAN }, None),
                bad_life.clone(),
            ),
            (
                one_class(size, LifetimeDist::Uniform { min: 9, max: 1 }, None),
                bad_life,
            ),
            (
                one_class(size, LifetimeDist::PhaseLocal, Some(0)),
                SpecError::ZeroPhasePeriod("bad".into()),
            ),
            (
                WorkloadSpec {
                    total_alloc: u64::MAX,
                    ..spec()
                },
                SpecError::TotalTooLarge(u64::MAX),
            ),
        ];
        for (s, want) in cases {
            assert_eq!(s.validate(), Err(want.clone()));
            assert_eq!(s.generate().err(), Some(want.clone()));
            assert_eq!(s.compile().err(), Some(want.clone()));
            assert_eq!(SynthSource::new(s).err(), Some(want));
        }
    }

    #[test]
    fn a_death_past_the_clock_is_immortal_on_every_route() {
        let s = WorkloadSpec {
            total_alloc: 10_000,
            initial_permanent: 0,
            classes: vec![ClassSpec::new(
                "forever",
                1.0,
                SizeDist::Fixed(100),
                LifetimeDist::Fixed(u64::MAX),
            )],
            ..spec()
        };
        let stream = crate::collect_source(&mut SynthSource::new(s.clone()).unwrap()).unwrap();
        stream.validate().expect("no death before its birth");
        for c in [
            s.compile().unwrap(),
            s.generate().unwrap().compile().unwrap(),
            stream,
        ] {
            assert_eq!(c.len(), 100);
            assert!(c.lives().all(|l| l.death.is_none()));
        }
    }

    #[test]
    fn all_permanent_workload_generates() {
        let s = WorkloadSpec {
            name: "perm".into(),
            description: String::new(),
            exec_seconds: 1.0,
            total_alloc: 10_000,
            initial_permanent: 10_000,
            initial_object_size: 100,
            classes: vec![],
            phase_period: None,
            seed: 0,
        };
        let c = s.generate().unwrap().compile().unwrap();
        assert_eq!(c.total_allocated().as_u64(), 10_000);
        assert_eq!(
            c.live_bytes_at(VirtualTime::from_bytes(10_000)).as_u64(),
            10_000
        );
    }
}
