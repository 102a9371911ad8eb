//! User-facing resource constraints.
//!
//! The paper's thesis is that a collector should be tuned with **two
//! easily-understood parameters**: a maximum memory budget or a pause-time
//! budget. [`Constraint`] is that user-facing value; policies convert a
//! pause budget into a `Trace_max` byte budget through the
//! [`CostModel`].

use crate::cost::CostModel;
use crate::time::Bytes;
use serde::{Deserialize, Serialize};

/// The resource constraint a collector is asked to honour.
///
/// # Example
///
/// ```
/// use dtb_core::constraint::Constraint;
/// use dtb_core::cost::CostModel;
/// use dtb_core::time::Bytes;
///
/// let pause = Constraint::pause_ms(100.0, &CostModel::paper());
/// assert_eq!(pause, Constraint::Trace(Bytes::new(50_000)));
///
/// let mem = Constraint::memory(Bytes::from_kb(3000));
/// assert!(mem.is_memory());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Constraint {
    /// Limit bytes traced per scavenge (equivalently, pause time).
    Trace(Bytes),
    /// Limit total memory in use (`Mem_max`).
    Memory(Bytes),
}

impl Constraint {
    /// A trace-budget constraint, in bytes per scavenge.
    pub fn trace(trace_max: Bytes) -> Constraint {
        Constraint::Trace(trace_max)
    }

    /// A memory constraint, in total bytes.
    pub fn memory(mem_max: Bytes) -> Constraint {
        Constraint::Memory(mem_max)
    }

    /// A pause-time constraint in milliseconds, converted to a trace budget
    /// under `model`.
    pub fn pause_ms(pause_ms: f64, model: &CostModel) -> Constraint {
        Constraint::Trace(model.trace_budget_for_pause_ms(pause_ms))
    }

    /// True for trace/pause constraints.
    pub fn is_trace(&self) -> bool {
        matches!(self, Constraint::Trace(_))
    }

    /// True for memory constraints.
    pub fn is_memory(&self) -> bool {
        matches!(self, Constraint::Memory(_))
    }

    /// The underlying byte budget, whichever kind it is.
    pub fn budget(&self) -> Bytes {
        match self {
            Constraint::Trace(b) | Constraint::Memory(b) => *b,
        }
    }

    /// Whether an observation satisfies this constraint: a per-scavenge
    /// traced amount for [`Constraint::Trace`], a memory-in-use sample for
    /// [`Constraint::Memory`].
    pub fn is_met_by(&self, observed: Bytes) -> bool {
        observed <= self.budget()
    }
}

impl core::fmt::Display for Constraint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Constraint::Trace(b) => write!(f, "Trace_max = {} bytes", b.as_u64()),
            Constraint::Memory(b) => write!(f, "Mem_max = {} bytes", b.as_u64()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pause_converts_through_cost_model() {
        let c = Constraint::pause_ms(100.0, &CostModel::paper());
        assert_eq!(c.budget(), Bytes::new(50_000));
        assert!(c.is_trace());
        assert!(!c.is_memory());
    }

    #[test]
    fn met_by_uses_inclusive_comparison() {
        let c = Constraint::memory(Bytes::new(100));
        assert!(c.is_met_by(Bytes::new(100)));
        assert!(c.is_met_by(Bytes::new(99)));
        assert!(!c.is_met_by(Bytes::new(101)));
    }

    #[test]
    fn display_names_the_budget() {
        assert_eq!(
            Constraint::trace(Bytes::new(50_000)).to_string(),
            "Trace_max = 50000 bytes"
        );
        assert_eq!(
            Constraint::memory(Bytes::new(7)).to_string(),
            "Mem_max = 7 bytes"
        );
    }
}
