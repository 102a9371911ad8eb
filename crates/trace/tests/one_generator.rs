//! One generator: `WorkloadSpec::generate` and `WorkloadSpec::compile`
//! are `SynthSource`'s record stream with each death snapped to the first
//! birth at or after it.
//!
//! The specification is the original event loop, kept here verbatim: it
//! sampled the class mixture, sizes and lifetimes itself and flushed
//! every death due by the previous birth before each allocation. Both
//! routes must reproduce it event for event and column for column on
//! random valid specs that cover every size and lifetime distribution,
//! phase-local classes, zero lifetimes, and specs with and without
//! initial permanent data.

use dtb_trace::lifetime::{LifetimeDist, SizeDist};
use dtb_trace::programs::Program;
use dtb_trace::synth::{ClassSpec, WorkloadSpec};
use dtb_trace::{collect_source, Event, ObjectId, SynthSource, Trace, TraceMeta};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The specification: the event loop `generate` ran before it read
/// `SynthSource`'s records.
fn reference(spec: &WorkloadSpec) -> Trace {
    spec.validate().expect("valid spec");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut events: Vec<Event> = Vec::new();
    let mut next_id: u64 = 0;
    let mut clock: u64 = 0;
    // Pending deaths: min-heap of (death clock, id).
    let mut deaths: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();

    // Startup: the initial permanent structure.
    while clock < spec.initial_permanent {
        let size = spec
            .initial_object_size
            .min((spec.initial_permanent - clock).max(1) as u32)
            .max(1);
        events.push(Event::Alloc {
            id: ObjectId(next_id),
            size,
        });
        next_id += 1;
        clock += size as u64;
    }

    // Steady state: classes chosen per object with probability
    // proportional to byte_fraction / mean_size.
    let weights: Vec<f64> = spec
        .classes
        .iter()
        .map(|c| c.byte_fraction / c.size.mean().max(1.0))
        .collect();
    let weight_total: f64 = weights.iter().sum();

    while clock < spec.total_alloc {
        // Flush deaths that have come due.
        while let Some(&Reverse((death, id))) = deaths.peek() {
            if death > clock {
                break;
            }
            deaths.pop();
            events.push(Event::Free { id: ObjectId(id) });
        }

        let class = if weight_total > 0.0 {
            let mut pick = rng.gen_range(0.0..weight_total);
            let mut chosen = spec.classes.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    chosen = i;
                    break;
                }
                pick -= w;
            }
            &spec.classes[chosen]
        } else {
            break; // all-permanent workload already emitted above
        };

        let size = class.size.sample(&mut rng);
        events.push(Event::Alloc {
            id: ObjectId(next_id),
            size,
        });
        clock += size as u64;
        let birth = clock;

        let death = if class.lifetime.is_phase_local() {
            let period = spec.phase_period.expect("validated above");
            // Dies at the end of the phase it was born in.
            Some((birth / period + 1) * period)
        } else {
            class.lifetime.sample(&mut rng).map(|l| birth + l)
        };
        if let Some(d) = death {
            deaths.push(Reverse((d, next_id)));
        }
        next_id += 1;
    }
    // Objects whose deaths fall beyond the end of the trace stay live.
    while let Some(&Reverse((death, id))) = deaths.peek() {
        if death > clock {
            break;
        }
        deaths.pop();
        events.push(Event::Free { id: ObjectId(id) });
    }

    Trace {
        meta: TraceMeta {
            name: spec.name.clone(),
            description: spec.description.clone(),
            exec_seconds: spec.exec_seconds,
        },
        events,
    }
}

/// One class of every size and lifetime kind, weighted by `weight`
/// (normalized by [`arb_spec`]).
fn arb_class() -> impl Strategy<Value = ClassSpec> {
    (
        (0u8..3, 1u32..300, 0u32..600),
        (0u8..6, 0u64..60_000, 0u64..60_000),
        0.01f64..1.0,
    )
        .prop_map(|((size_kind, a, b), (life_kind, x, y), weight)| {
            let size = match size_kind {
                0 => SizeDist::Fixed(a),
                1 => SizeDist::Uniform { min: a, max: a + b },
                _ => SizeDist::PowerOfTwo { min: a, max: a + b },
            };
            let lifetime = match life_kind {
                0 => LifetimeDist::Immortal,
                1 => LifetimeDist::Exponential {
                    mean: x as f64 + 0.5,
                },
                2 => LifetimeDist::Uniform {
                    min: x.min(y),
                    max: x.max(y),
                },
                3 => LifetimeDist::Fixed(0),
                4 => LifetimeDist::Fixed(x),
                _ => LifetimeDist::PhaseLocal,
            };
            ClassSpec::new(format!("c{size_kind}{life_kind}"), weight, size, lifetime)
        })
}

/// Valid specs up to a few hundred KB: one to four classes, with no,
/// some, or only initial permanent data.
fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        prop::collection::vec(arb_class(), 1..5),
        (1_000u64..300_000, 0u8..4, 1u32..3_000),
        1u64..100_000,
        any::<u64>(),
    )
        .prop_map(
            |(mut classes, (total_alloc, permanent, initial_object_size), period, seed)| {
                let initial_permanent = match permanent {
                    0 => 0,
                    1 => total_alloc / 10,
                    2 => total_alloc / 3,
                    _ => {
                        classes.clear();
                        total_alloc
                    }
                };
                let sum: f64 = classes.iter().map(|c| c.byte_fraction).sum();
                for c in &mut classes {
                    c.byte_fraction /= sum;
                }
                WorkloadSpec {
                    name: "arb".into(),
                    description: "random valid spec".into(),
                    exec_seconds: 1.5,
                    total_alloc,
                    initial_permanent,
                    initial_object_size,
                    classes,
                    phase_period: Some(period),
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generate_equals_the_reference_loop_event_for_event(spec in arb_spec()) {
        prop_assert_eq!(spec.generate().expect("valid spec"), reference(&spec));
    }

    #[test]
    fn compile_equals_generate_then_compile(spec in arb_spec()) {
        let via_events = spec
            .generate()
            .expect("valid spec")
            .compile()
            .expect("generated traces compile");
        prop_assert_eq!(spec.compile().expect("valid spec"), via_events);
    }

    #[test]
    fn compile_snaps_each_stream_death_to_the_next_birth(spec in arb_spec()) {
        let compiled = spec.compile().expect("valid spec");
        let stream = collect_source(&mut SynthSource::new(spec).expect("valid spec"))
            .expect("synthetic sources never fail");
        stream.validate().expect("the stream is a well-formed trace");
        prop_assert_eq!(&compiled.meta, &stream.meta);
        prop_assert_eq!(compiled.end, stream.end);
        prop_assert_eq!(compiled.ids(), stream.ids());
        prop_assert_eq!(compiled.births(), stream.births());
        prop_assert_eq!(compiled.sizes(), stream.sizes());
        let births = stream.births();
        for (i, life) in stream.lives().enumerate() {
            let snapped = life.death.and_then(|d| {
                let first = births.partition_point(|&b| b < d.as_u64());
                births.get(first).copied()
            });
            prop_assert_eq!(compiled.life(i).death.map(|d| d.as_u64()), snapped);
        }
    }
}

#[test]
fn cfrac_is_the_reference_loop_on_both_routes() {
    let spec = Program::Cfrac.spec();
    let reference = reference(&spec);
    assert_eq!(Program::Cfrac.generate(), reference);
    assert_eq!(*Program::Cfrac.compiled(), reference.compile().unwrap());
}
