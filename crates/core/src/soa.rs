//! Straight-line reductions over struct-of-arrays lifetime columns.
//!
//! The simulator's heaps and trace sources keep object lifetimes as flat
//! parallel columns (`births`/`sizes`/`deaths`) rather than arrays of
//! structs, so the hot walks are slice reductions the compiler can
//! autovectorize: no early exits, no data-dependent control flow, just a
//! masked accumulate per entry.
//!
//! The kernels are `#[inline]` so they fuse into their (release-built)
//! callers; the `microbench` crate measures them in isolation and the
//! tests here pin their semantics against scalar references.

/// Sum of `sizes[i]` over the entries with `births[i] > tb`, plus the
/// count of such entries.
///
/// This is a lane scavenge's walk over dead objects (the heap's death
/// log segment and the lane's tenured garbage): given the boundary `tb`,
/// it answers "how many of these dead bytes (and objects) are threatened,
/// and so reclaimed" in one branch-free sweep, letting the caller skip
/// the per-entry tenuring pass when every entry is threatened.
///
/// # Panics
///
/// Panics (in debug builds) if the column lengths differ.
#[inline]
pub fn born_after_stats(births: &[u64], sizes: &[u32], tb: u64) -> (u64, usize) {
    debug_assert_eq!(births.len(), sizes.len());
    let mut bytes = 0u64;
    let mut count = 0usize;
    for (&birth, &size) in births.iter().zip(sizes) {
        let threatened = (birth > tb) as u64;
        bytes += threatened * size as u64;
        count += threatened as usize;
    }
    (bytes, count)
}

/// Sum of a `u32` size column widened to `u64`.
///
/// The block drive loop charges a whole event block against triggers,
/// budgets, and curve sampling using its total byte volume; this is that
/// total as a single autovectorizable reduction.
#[inline]
pub fn sum_sizes(sizes: &[u32]) -> u64 {
    let mut sum = 0u64;
    for &size in sizes {
        sum += size as u64;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn born_after_stats_matches_scalar_reference() {
        let births: Vec<u64> = (0..257u64).map(|i| i * 13 % 400).collect();
        let sizes: Vec<u32> = (0..257u32).map(|i| i % 91 + 1).collect();
        for tb in [0u64, 1, 57, 200, 399, 400, u64::MAX] {
            let mut bytes = 0u64;
            let mut count = 0usize;
            for (&b, &s) in births.iter().zip(&sizes) {
                if b > tb {
                    bytes += s as u64;
                    count += 1;
                }
            }
            assert_eq!(born_after_stats(&births, &sizes, tb), (bytes, count));
        }
    }

    #[test]
    fn empty_columns_sum_to_zero() {
        assert_eq!(born_after_stats(&[], &[], 42), (0, 0));
        assert_eq!(sum_sizes(&[]), 0);
    }

    #[test]
    fn sum_sizes_widens() {
        let sizes = vec![u32::MAX; 3];
        assert_eq!(sum_sizes(&sizes), 3 * (u32::MAX as u64));
    }
}
