//! Cross-crate property tests: trace generation, serialization, and
//! simulation compose without losing information.

use dtb::core::policy::{PolicyConfig, PolicyKind};
use dtb::sim::engine::{simulate, SimConfig};
use dtb::sim::SimRun;
use dtb::trace::event::CompiledTrace;
use dtb::trace::format;
use dtb::trace::lifetime::{LifetimeDist, SizeDist};
use dtb::trace::synth::{ClassSpec, WorkloadSpec};
use proptest::prelude::*;

fn run_kind(
    trace: &CompiledTrace,
    kind: PolicyKind,
    cfg: &PolicyConfig,
    sim: &SimConfig,
) -> SimRun {
    let mut policy = kind.build(cfg);
    simulate(trace, &mut policy, sim).expect("well-formed trace simulates")
}

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        1u64..=8,            // total alloc (x 100 KB)
        0u64..=50_000,       // initial permanent
        0.0f64..=0.3,        // immortal fraction
        0.0f64..=0.05,       // medium fraction
        500.0f64..=20_000.0, // short mean lifetime
        any::<u64>(),        // seed
    )
        .prop_map(|(mb, perm, imm, med, short_mean, seed)| {
            let short = 1.0 - imm - med;
            WorkloadSpec {
                name: "prop".into(),
                description: String::new(),
                exec_seconds: 1.0,
                total_alloc: mb * 100_000 + perm,
                initial_permanent: perm,
                initial_object_size: 512,
                classes: vec![
                    ClassSpec::new(
                        "imm",
                        imm,
                        SizeDist::PowerOfTwo { min: 32, max: 512 },
                        LifetimeDist::Immortal,
                    ),
                    ClassSpec::new(
                        "med",
                        med,
                        SizeDist::Uniform { min: 64, max: 256 },
                        LifetimeDist::Uniform {
                            min: 100_000,
                            max: 300_000,
                        },
                    ),
                    ClassSpec::new(
                        "short",
                        short,
                        SizeDist::PowerOfTwo { min: 16, max: 128 },
                        LifetimeDist::Exponential { mean: short_mean },
                    ),
                ],
                phase_period: None,
                seed,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generated_traces_compile_and_round_trip(spec in arb_spec()) {
        let trace = spec.generate().expect("valid spec");
        let compiled = trace.compile().expect("well-formed");
        prop_assert!(compiled.births_strictly_increasing());
        let decoded = format::decode(&format::encode(&trace)).expect("decodes");
        prop_assert_eq!(decoded, trace);
    }

    #[test]
    fn simulation_conserves_memory_under_every_policy(spec in arb_spec()) {
        let trace = spec.compile().expect("valid spec");
        let sim = SimConfig {
            trigger: dtb::sim::trigger::Trigger::Allocation(
                dtb::core::time::Bytes::new(100_000),
            ),
            ..SimConfig::paper()
        };
        for kind in PolicyKind::ALL {
            let run = run_kind(&trace, kind, &PolicyConfig::paper(), &sim);
            let mut reclaimed = 0u64;
            for rec in run.report.history.iter() {
                prop_assert!(rec.is_consistent());
                reclaimed += rec.reclaimed.as_u64();
            }
            // Conservation: allocated = reclaimed + in-use at the end.
            if let Some(last) = run.report.history.last() {
                let allocated_at_last = last.at.as_u64();
                prop_assert_eq!(
                    allocated_at_last,
                    reclaimed + last.surviving.as_u64(),
                    "{} leaks accounting", kind
                );
            }
        }
    }

    #[test]
    fn full_is_memory_optimal_among_collectors(spec in arb_spec()) {
        let trace = spec.compile().expect("valid spec");
        let sim = SimConfig {
            trigger: dtb::sim::trigger::Trigger::Allocation(
                dtb::core::time::Bytes::new(100_000),
            ),
            ..SimConfig::paper()
        };
        let full = run_kind(&trace, PolicyKind::Full, &PolicyConfig::paper(), &sim)
            .report
            .mem_max;
        for kind in PolicyKind::ALL {
            let r = run_kind(&trace, kind, &PolicyConfig::paper(), &sim).report;
            prop_assert!(
                r.mem_max >= full,
                "{} used less memory than FULL ({:?} < {:?})",
                kind, r.mem_max, full
            );
        }
    }
}
