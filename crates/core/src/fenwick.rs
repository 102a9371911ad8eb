//! A branchless Fenwick (binary-indexed) tree over byte totals.
//!
//! The simulator keys its live index by **global slot** — the position of
//! an object in birth order over the whole run, assigned at insertion and
//! never reused. Slots are append-only, so alongside the classic
//! point-update / prefix-sum pair the tree supports [`Fenwick::push`]
//! (extend by one slot in O(log n)) and [`Fenwick::extend`] (append a
//! whole block in O(k + log² n)), which is what the block-structured
//! drive loop feeds.
//!
//! The inner loops are written to compile to straight-line, predictable
//! code: the update and prefix walks are short counted loops over a flat
//! 1-based array with no data-dependent branches, and the
//! [`Fenwick::lower_bound`] descent keeps only the (perfectly
//! predictable) range guard as a branch — the data-dependent comparison
//! lowers to conditional moves. The batched update ([`Fenwick::sub_many`])
//! amortizes the `total` maintenance and keeps the tree walks hot in
//! cache when the heap applies a batch of deaths.
//!
//! All values are byte counts; a point update only ever removes what was
//! previously added at that slot, so node partial sums never underflow.

/// A Fenwick tree of byte counts over an append-only slot space.
///
/// The oracle heap keeps one: live bytes by birth slot. A death is one
/// O(log n) [`Fenwick::sub_many`] walk; a scavenge's traced bytes and
/// every survival query are one [`Fenwick::prefix`] walk or one
/// [`Fenwick::lower_bound`] descent plus the O(1) total.
#[derive(Clone, Debug, Default)]
pub struct Fenwick {
    /// 1-based tree; `tree[i-1]` covers the slot range `(i - lowbit(i), i]`.
    tree: Vec<u64>,
    /// Grand total, maintained eagerly.
    total: u64,
}

impl Fenwick {
    /// An empty tree with room for `n` slots.
    pub fn with_capacity(n: usize) -> Fenwick {
        Fenwick {
            tree: Vec::with_capacity(n),
            total: 0,
        }
    }

    /// Number of slots in the tree.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the tree holds no slots.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Appends a new slot holding `value` bytes, in one O(log n) walk: the
    /// new node at 1-based index `i` covers `(i - lowbit(i), i]`, and since
    /// the slot is the last one, the old slots in that range sum to the
    /// running total minus `prefix(i - lowbit(i))`.
    pub fn push(&mut self, value: u64) {
        let i = self.tree.len() + 1;
        let lowbit = i & i.wrapping_neg();
        let mut node = value;
        if lowbit > 1 {
            node += self.total - self.prefix(i - lowbit);
        }
        self.tree.push(node);
        self.total += value;
    }

    /// Appends a whole block of slots, in O(k + log² n) for `k` new slots.
    /// The tree equals pushing them one by one, but is built in three flat
    /// passes: raw placement, the classic O(k) bottom-up propagation
    /// inside the block, and a fix-up of the ≤ log n appended nodes whose
    /// range reaches back into the old slots.
    pub fn extend<I>(&mut self, values: I)
    where
        I: IntoIterator<Item = u64>,
    {
        let old = self.tree.len();
        let old_total = self.total;
        let mut added = 0u64;
        for v in values {
            added += v;
            self.tree.push(v);
        }
        let n = self.tree.len();
        for i in old + 1..=n {
            let j = i + (i & i.wrapping_neg());
            if j <= n {
                let src = self.tree[i - 1];
                self.tree[j - 1] = self.tree[j - 1].wrapping_add(src);
            }
        }
        for i in old + 1..=n {
            let start = i - (i & i.wrapping_neg());
            if start < old {
                let p = self.prefix(start);
                self.tree[i - 1] += old_total - p;
            }
        }
        self.total += added;
    }

    /// Replaces the whole tree with one built from `values`, as a bulk
    /// O(n) bottom-up construction: place every value as a leaf, then fold
    /// each node into its parent in one ascending pass. Node values are
    /// bit-identical to pushing the values one at a time (the same integer
    /// sums, merely reassociated) — the heap's dead-slot compaction
    /// rebuilds its index this way. Keeps the allocated capacity
    /// (allocation-free when the new size fits).
    pub fn rebuild<I>(&mut self, values: I)
    where
        I: IntoIterator<Item = u64>,
    {
        self.tree.clear();
        self.tree.extend(values);
        let n = self.tree.len();
        self.total = self.tree.iter().sum();
        for i in 1..=n {
            let j = i + (i & i.wrapping_neg());
            if j <= n {
                let src = self.tree[i - 1];
                self.tree[j - 1] += src;
            }
        }
    }

    /// Removes `delta` bytes at `slot`, in one O(log n) walk.
    ///
    /// # Panics
    ///
    /// Underflows (and panics in debug builds) if `delta` exceeds the
    /// bytes recorded at this slot.
    pub fn sub(&mut self, slot: usize, delta: u64) {
        let n = self.tree.len();
        let mut i = slot + 1;
        while i <= n {
            self.tree[i - 1] -= delta;
            i += i & i.wrapping_neg();
        }
        self.total -= delta;
    }

    /// Applies a batch of removals: `slots[k]` loses `deltas[k]` bytes.
    /// Slots may repeat; one tight walk per pair, one total adjustment at
    /// the end — the form the heap's death drain feeds.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the batch lengths differ or a slot
    /// loses more bytes than it holds.
    pub fn sub_many(&mut self, slots: &[u32], deltas: &[u64]) {
        debug_assert_eq!(slots.len(), deltas.len());
        let n = self.tree.len();
        let mut sum = 0u64;
        for (&slot, &delta) in slots.iter().zip(deltas) {
            sum += delta;
            let mut i = slot as usize + 1;
            while i <= n {
                self.tree[i - 1] -= delta;
                i += i & i.wrapping_neg();
            }
        }
        self.total -= sum;
    }

    /// Sum of the first `count` slots, in one O(log n) walk.
    pub fn prefix(&self, count: usize) -> u64 {
        let mut i = count.min(self.tree.len());
        let mut sum = 0u64;
        while i > 0 {
            sum += self.tree[i - 1];
            i &= i - 1;
        }
        sum
    }

    /// Sum of the slots from `count` onward.
    pub fn suffix(&self, count: usize) -> u64 {
        self.total - self.prefix(count)
    }

    /// Total bytes, in O(1).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The largest count `c` with `prefix(c) <= target`, in O(log n): one
    /// root-to-leaf descent (binary lifting), not a binary search over
    /// prefix sums. The range guard `next <= n` is its only branch; a
    /// sentinel in its place would be wrong, since `target` may be
    /// `u64::MAX`.
    ///
    /// Values are non-negative, so the counts that fit form a prefix of
    /// `0..=len`. The smallest `c` with `prefix(c) >= k` (for `k >= 1`) is
    /// `lower_bound(k - 1) + 1`.
    pub fn lower_bound(&self, target: u64) -> usize {
        let n = self.tree.len();
        let mut pos = 0usize;
        let mut rem = target;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            // `pos` is a sum of strictly larger powers of two, so
            // `lowbit(next) == step` and `tree[next - 1]` covers exactly
            // `(pos, next]`.
            if next <= n {
                let node = self.tree[next - 1];
                let take = node <= rem;
                rem = if take { rem - node } else { rem };
                pos = if take { next } else { pos };
            }
            step >>= 1;
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: a plain vector of slot values.
    fn model_prefix(vals: &[u64], count: usize) -> u64 {
        vals[..count.min(vals.len())].iter().sum()
    }

    /// Reference model for the descent: linear scan for the largest count
    /// with prefix ≤ target.
    fn model_lower_bound(vals: &[u64], target: u64) -> usize {
        (0..=vals.len())
            .rev()
            .find(|&c| model_prefix(vals, c) <= target)
            .unwrap()
    }

    /// Checks every query of `f` against a per-slot model.
    fn check(f: &Fenwick, model: &[u64]) {
        let total: u64 = model.iter().sum();
        assert_eq!(f.total(), total);
        assert_eq!(f.len(), model.len());
        for count in 0..=f.len() + 1 {
            let prefix = model_prefix(model, count);
            assert_eq!(f.prefix(count), prefix, "prefix({count})");
            assert_eq!(f.suffix(count), total - prefix, "suffix({count})");
        }
        for target in 0..=total + 2 {
            let expected = model_lower_bound(model, target);
            assert_eq!(f.lower_bound(target), expected, "lower_bound({target})");
        }
    }

    #[test]
    fn tree_matches_per_slot_model() {
        // Zero runs and duplicates exercise the descent's tie-breaking
        // (largest count wins ⇒ trailing zeros are included).
        let mut vals = vec![5u64, 0, 3, 12, 0, 9, 0, 7, 0, 4, 100, 0];
        let mut f = Fenwick::default();
        check(&f, &[]);
        for n in 0..vals.len() {
            f.push(vals[n]);
            check(&f, &vals[..=n]);
        }
        // Removals, single and batched with repeats.
        f.sub(0, 5);
        f.sub_many(&[2, 3, 3, 10], &[3, 6, 6, 60]);
        for (s, d) in [(0, 5), (2, 3), (3, 6), (3, 6), (10, 60)] {
            vals[s] -= d;
        }
        check(&f, &vals);
        // A block appended after slots that were emptied.
        f.extend([8, 0, 0, 13, 1]);
        vals.extend([8, 0, 0, 13, 1]);
        check(&f, &vals);
    }

    #[test]
    fn lower_bound_saturated_target_takes_every_slot() {
        // `u64::MAX` as a target must still mean "largest count whose
        // prefix fits" — a sentinel-based descent would mishandle this.
        let mut f = Fenwick::default();
        for v in [3u64, 0, 9, 1] {
            f.push(v);
        }
        assert_eq!(f.lower_bound(u64::MAX), 4);
    }

    #[test]
    fn empty_tree_sums_and_descends_to_zero() {
        let f = Fenwick::default();
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert_eq!(f.prefix(0), 0);
        assert_eq!(f.prefix(10), 0);
        assert_eq!(f.suffix(0), 0);
        assert_eq!(f.total(), 0);
        for target in [0, u64::MAX] {
            assert_eq!(f.lower_bound(target), 0);
        }
    }

    #[test]
    fn extend_matches_push_at_every_boundary() {
        // Including boundaries where pre-existing slots were emptied — the
        // appended nodes' fix-up must read the current prefix sums.
        let vals: Vec<u64> = (1..40u64).map(|i| (i * 37) % 101 + 1).collect();
        for old in 0..vals.len() {
            for k in 0..=(vals.len() - old).min(17) {
                let mut pushed = Fenwick::default();
                let mut extended = Fenwick::default();
                for (i, &v) in vals[..old].iter().enumerate() {
                    pushed.push(v);
                    extended.push(v);
                    if i % 3 == 0 {
                        pushed.sub(i, v);
                        extended.sub(i, v);
                    }
                }
                for &v in &vals[old..old + k] {
                    pushed.push(v);
                }
                extended.extend(vals[old..old + k].iter().copied());
                assert_eq!(extended.tree, pushed.tree, "old={old} k={k}");
                assert_eq!(extended.total, pushed.total, "old={old} k={k}");
            }
        }
    }

    #[test]
    fn rebuild_matches_push_at_every_length() {
        // The O(n) bottom-up build must produce node-for-node the same
        // tree as pushing one value at a time — including lengths that
        // are exact powers of two and one past them, where the last
        // node's range is largest.
        let vals: Vec<u64> = (0..70u64).map(|i| (i * 37) % 101).collect();
        for n in 0..vals.len() {
            let mut pushed = Fenwick::default();
            for &v in &vals[..n] {
                pushed.push(v);
            }
            let mut rebuilt = Fenwick::default();
            rebuilt.push(999); // stale state must be discarded
            rebuilt.rebuild(vals[..n].iter().copied());
            assert_eq!(rebuilt.tree, pushed.tree, "n={n}");
            assert_eq!(rebuilt.total, pushed.total, "n={n}");
        }
    }
}
