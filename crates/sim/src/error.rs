//! Typed simulation failures.
//!
//! Everything that can go wrong inside [`simulate`](crate::engine::simulate)
//! surfaces here as data rather than as a panic: a policy refusing to pick
//! a boundary ([`SimError::Policy`]), a runaway cell tripping its watchdog
//! ([`SimError::BudgetExceeded`]), or the engine catching itself violating
//! one of the paper's accounting identities ([`SimError::Invariant`]).
//! The executor wraps these per cell, so one poisoned (program × policy)
//! pair reports a typed failure while the rest of the matrix completes.

use dtb_core::error::PolicyError;
use dtb_core::time::{Bytes, VirtualTime};
use std::fmt;

/// Which watchdog limit a simulation ran into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// The cap on processed allocation events.
    Events,
    /// The cap on scavenges performed.
    Scavenges,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetKind::Events => "events",
            BudgetKind::Scavenges => "scavenges",
        })
    }
}

/// An engine self-check that failed.
///
/// These are the identities the simulator is supposed to preserve by
/// construction; a violation means the input trace or a component of the
/// engine is broken, and the containing run cannot be trusted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InvariantViolation {
    /// Storage conservation broke: bytes in use plus bytes reclaimed so
    /// far must equal bytes allocated so far (live + tenured garbage +
    /// reclaimed = allocated).
    ConservationBroken {
        /// Bytes currently in the heap (live + tenured garbage).
        in_use: Bytes,
        /// Total bytes reclaimed by all scavenges so far.
        reclaimed: Bytes,
        /// Total bytes allocated so far.
        allocated: Bytes,
    },
    /// One scavenge's books don't balance: surviving + reclaimed must
    /// equal the memory in use when it started.
    ScavengeAccounting {
        /// Bytes surviving the scavenge.
        surviving: Bytes,
        /// Bytes the scavenge reclaimed.
        reclaimed: Bytes,
        /// Bytes in use when the scavenge started.
        mem_before: Bytes,
    },
    /// A policy returned a boundary in the future: TB must lie in
    /// `[0, t_{n-1}]`, never past the current allocation clock.
    BoundaryBeyondNow {
        /// The offending boundary.
        boundary: VirtualTime,
        /// The allocation clock at the scavenge.
        now: VirtualTime,
    },
    /// The trace's births stopped increasing: virtual time must be
    /// strictly monotone along the allocation clock.
    NonMonotoneTime {
        /// The previous object's birth.
        prev: VirtualTime,
        /// The offending (not later) birth.
        next: VirtualTime,
    },
    /// An object's recorded death precedes its birth.
    DeathBeforeBirth {
        /// The object's birth time.
        birth: VirtualTime,
        /// The impossible death time.
        death: VirtualTime,
    },
    /// The configured when-to-collect trigger is malformed: a
    /// memory-growth factor must be finite and greater than 1.0, or the
    /// trigger would fire on every allocation (or never).
    InvalidTrigger {
        /// The rejected growth factor.
        factor: f64,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::ConservationBroken {
                in_use,
                reclaimed,
                allocated,
            } => write!(
                f,
                "conservation broken: in-use {} + reclaimed {} != allocated {}",
                in_use.as_u64(),
                reclaimed.as_u64(),
                allocated.as_u64()
            ),
            InvariantViolation::ScavengeAccounting {
                surviving,
                reclaimed,
                mem_before,
            } => write!(
                f,
                "scavenge accounting broken: surviving {} + reclaimed {} != before {}",
                surviving.as_u64(),
                reclaimed.as_u64(),
                mem_before.as_u64()
            ),
            InvariantViolation::BoundaryBeyondNow { boundary, now } => write!(
                f,
                "boundary {} is beyond the allocation clock {}",
                boundary.as_u64(),
                now.as_u64()
            ),
            InvariantViolation::NonMonotoneTime { prev, next } => write!(
                f,
                "birth {} does not advance past previous birth {}",
                next.as_u64(),
                prev.as_u64()
            ),
            InvariantViolation::DeathBeforeBirth { birth, death } => write!(
                f,
                "object dies at {} before its birth at {}",
                death.as_u64(),
                birth.as_u64()
            ),
            InvariantViolation::InvalidTrigger { factor } => write!(
                f,
                "memory-growth trigger factor {factor} is not finite and > 1.0"
            ),
        }
    }
}

/// A simulation that could not complete.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The boundary policy failed at a scavenge decision.
    Policy {
        /// Allocation clock when the policy was consulted.
        at: VirtualTime,
        /// Zero-based index of the scavenge being attempted.
        collection: usize,
        /// The policy's own account of the failure.
        source: PolicyError,
    },
    /// The per-cell watchdog budget was exhausted.
    BudgetExceeded {
        /// Which limit was hit.
        kind: BudgetKind,
        /// The configured limit.
        limit: u64,
        /// Allocation clock when the limit was exceeded.
        at: VirtualTime,
    },
    /// An engine self-check failed (see [`InvariantViolation`]).
    Invariant {
        /// Allocation clock at the violation.
        at: VirtualTime,
        /// What exactly broke.
        violation: InvariantViolation,
    },
    /// The streaming event source failed mid-run (I/O, corruption, or a
    /// generator fault). In-memory sources never raise this.
    Source {
        /// Allocation clock when the source failed.
        at: VirtualTime,
        /// The source's own account of the failure.
        source: dtb_trace::SourceError,
    },
    /// The run was cancelled from outside through
    /// [`Sim::cancel`](crate::engine::Sim::cancel) — typically the
    /// executor's deadline watchdog. The simulation state is simply
    /// abandoned; a retry reruns the cell from its start.
    Cancelled {
        /// Allocation clock when the cancellation was observed.
        at: VirtualTime,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Policy {
                at,
                collection,
                source,
            } => write!(
                f,
                "policy failed at scavenge #{collection} (clock {}): {source}",
                at.as_u64()
            ),
            SimError::BudgetExceeded { kind, limit, at } => write!(
                f,
                "budget exceeded: more than {limit} {kind} by clock {}",
                at.as_u64()
            ),
            SimError::Invariant { at, violation } => {
                write!(
                    f,
                    "invariant violated at clock {}: {violation}",
                    at.as_u64()
                )
            }
            SimError::Source { at, source } => {
                write!(f, "event source failed at clock {}: {source}", at.as_u64())
            }
            SimError::Cancelled { at } => {
                write!(f, "run cancelled at clock {}", at.as_u64())
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Policy { source, .. } => Some(source),
            SimError::Source { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = SimError::Policy {
            at: VirtualTime::from_bytes(100),
            collection: 3,
            source: PolicyError::NonFiniteBoundary {
                policy: "EVIL".into(),
                value: f64::NAN,
            },
        };
        let s = e.to_string();
        assert!(s.contains("scavenge #3"), "{s}");
        assert!(s.contains("EVIL"), "{s}");

        let b = SimError::BudgetExceeded {
            kind: BudgetKind::Scavenges,
            limit: 8,
            at: VirtualTime::from_bytes(42),
        };
        assert!(b.to_string().contains("more than 8 scavenges"));

        let i = SimError::Invariant {
            at: VirtualTime::from_bytes(7),
            violation: InvariantViolation::NonMonotoneTime {
                prev: VirtualTime::from_bytes(7),
                next: VirtualTime::from_bytes(7),
            },
        };
        assert!(i.to_string().contains("invariant violated"));
    }

    #[test]
    fn policy_source_is_chained() {
        use std::error::Error;
        let e = SimError::Policy {
            at: VirtualTime::ZERO,
            collection: 0,
            source: PolicyError::NegativeBoundary {
                policy: "X".into(),
                value: -1.0,
            },
        };
        assert!(e.source().is_some());
        assert!(SimError::BudgetExceeded {
            kind: BudgetKind::Events,
            limit: 1,
            at: VirtualTime::ZERO,
        }
        .source()
        .is_none());
    }
}
