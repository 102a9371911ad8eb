//! Branchless Fenwick (binary-indexed) tree kernels over byte totals.
//!
//! The simulator keys its indices by **global slot** — the position of an
//! object in birth order over the whole run, assigned at insertion and
//! never reused. Slots are append-only, so alongside the classic
//! point-update / prefix-sum pair the tree supports
//! [`PairedFenwick::push`] (extend by one slot in O(log n)) and
//! [`PairedFenwick::extend_live`] (append a whole block in
//! O(k + log² n)), which is what the block-structured drive loop feeds.
//!
//! The inner loops are written to compile to straight-line, predictable
//! code: the update and prefix walks are short counted loops over a flat
//! 1-based array with no data-dependent branches, and the
//! [`PairedFenwick::lower_bound_live`] descent keeps only the (perfectly
//! predictable) range guard as a branch — the data-dependent comparison
//! lowers to conditional moves. Batched updates
//! ([`PairedFenwick::move_to_dead_many`] /
//! [`PairedFenwick::sub_dead_many`]) amortize the `total` maintenance and
//! keep the tree walks hot in cache when the heap applies a death queue
//! or reclaims a scavenge's garbage.
//!
//! All values are byte counts; a point update only ever removes what was
//! previously added at that slot, so node partial sums never underflow.

/// Two Fenwick trees over the same slot space — live bytes and
/// dead-but-unreclaimed bytes — fused into one node array of
/// `[live, dead]` pairs.
///
/// The oracle heap's dominant index traffic is the *death move*: when an
/// object's death clock passes, its bytes leave the live tree and enter
/// the dead tree at the same slot. With separate trees that is two
/// O(log n) walks over two disjoint node arrays (two cache lines per
/// level); with paired nodes it is **one walk touching one 16-byte pair
/// per level** — the indices are computed once and both components update
/// in place. Appends build both components in a single pass, and a
/// scavenge's entire byte accounting (traced, reclaimed, tenured
/// garbage) falls out of one [`PairedFenwick::prefix_pair`] descent plus
/// the O(1) totals.
///
/// Every node value is exactly what a separate tree per component would
/// hold, so the integer accounting is bit-identical to two plain trees;
/// the tests check every query against per-slot models.
#[derive(Clone, Debug, Default)]
pub struct PairedFenwick {
    /// 1-based tree of `[live, dead]` byte pairs; `tree[i-1]` covers the
    /// slot range `(i - lowbit(i), i]` in both components.
    tree: Vec<[u64; 2]>,
    /// `[live, dead]` grand totals, maintained eagerly.
    total: [u64; 2],
}

impl PairedFenwick {
    /// An empty paired tree with room for `n` slots.
    pub fn with_capacity(n: usize) -> PairedFenwick {
        PairedFenwick {
            tree: Vec::with_capacity(n),
            total: [0, 0],
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

    /// Removes every slot, keeping the allocated capacity (the heap's
    /// dead-prefix compaction rebuilds in place, allocation-free).
    pub fn clear(&mut self) {
        self.tree.clear();
        self.total = [0, 0];
    }

    /// Appends a new slot holding `live` / `dead` bytes, in one O(log n)
    /// walk: the new node at 1-based index `i` covers `(i - lowbit(i), i]`,
    /// and since the slot is the last one, the old slots in that range sum
    /// to the running totals minus `prefix_pair(i - lowbit(i))`.
    pub fn push(&mut self, live: u64, dead: u64) {
        let i = self.tree.len() + 1;
        let lowbit = i & i.wrapping_neg();
        let mut node = [live, dead];
        if lowbit > 1 {
            let p = self.prefix_pair(i - lowbit);
            node[0] += self.total[0] - p[0];
            node[1] += self.total[1] - p[1];
        }
        self.tree.push(node);
        self.total[0] += live;
        self.total[1] += dead;
    }

    /// Appends a whole block of all-live slots (`dead = 0`, the shape
    /// every allocation has), in O(k + log² n) for `k` new slots. The tree
    /// equals pushing them one by one, but is built in three flat passes:
    /// raw placement, the classic O(k) bottom-up propagation inside the
    /// block, and a fix-up of the ≤ log n appended nodes whose range
    /// reaches back into the old slots (and so covers their dead bytes
    /// too).
    pub fn extend_live<I>(&mut self, values: I)
    where
        I: IntoIterator<Item = u64>,
    {
        let old = self.tree.len();
        let old_total = self.total;
        let mut added = 0u64;
        for v in values {
            added += v;
            self.tree.push([v, 0]);
        }
        let n = self.tree.len();
        for i in old + 1..=n {
            let j = i + (i & i.wrapping_neg());
            if j <= n {
                let src = self.tree[i - 1];
                let dst = &mut self.tree[j - 1];
                dst[0] = dst[0].wrapping_add(src[0]);
                dst[1] = dst[1].wrapping_add(src[1]);
            }
        }
        for i in old + 1..=n {
            let start = i - (i & i.wrapping_neg());
            if start < old {
                let p = self.prefix_pair(start);
                self.tree[i - 1][0] += old_total[0] - p[0];
                self.tree[i - 1][1] += old_total[1] - p[1];
            }
        }
        self.total[0] += added;
    }

    /// Replaces the whole tree with one built from `[live, dead]` pairs,
    /// as a bulk O(n) bottom-up construction: place every pair as a leaf,
    /// then fold each node into its parent in one ascending pass. Node
    /// values are bit-identical to pushing the pairs one at a time (the
    /// same integer sums, merely reassociated), at a fraction of the cost
    /// — the heap's dead-prefix compaction rebuilds its index this way
    /// instead of paying a prefix descent per resident. Keeps the
    /// allocated capacity (allocation-free when the new size fits).
    pub fn rebuild_pairs<I>(&mut self, pairs: I)
    where
        I: IntoIterator<Item = [u64; 2]>,
    {
        self.tree.clear();
        self.tree.extend(pairs);
        let n = self.tree.len();
        let mut total = [0u64, 0];
        for p in &self.tree {
            total[0] += p[0];
            total[1] += p[1];
        }
        self.total = total;
        for i in 1..=n {
            let j = i + (i & i.wrapping_neg());
            if j <= n {
                let src = self.tree[i - 1];
                let dst = &mut self.tree[j - 1];
                dst[0] += src[0];
                dst[1] += src[1];
            }
        }
    }

    /// Moves `delta` bytes from live to dead at `slot`, in **one**
    /// O(log n) walk — the fused form of `live.sub` + `dead.add`. The
    /// pair sum of every touched node is unchanged.
    ///
    /// # Panics
    ///
    /// Underflows (and panics in debug builds) if `delta` exceeds the
    /// live bytes recorded at this slot.
    pub fn move_to_dead(&mut self, slot: usize, delta: u64) {
        let n = self.tree.len();
        let mut i = slot + 1;
        while i <= n {
            let node = &mut self.tree[i - 1];
            node[0] -= delta;
            node[1] += delta;
            i += i & i.wrapping_neg();
        }
        self.total[0] -= delta;
        self.total[1] += delta;
    }

    /// Applies a batch of live→dead moves: `slots[k]` moves `deltas[k]`
    /// bytes. Slots may repeat; one tight walk per pair, one total
    /// adjustment at the end — the form the heap's death-queue drain
    /// feeds.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the batch lengths differ.
    pub fn move_to_dead_many(&mut self, slots: &[u32], deltas: &[u64]) {
        debug_assert_eq!(slots.len(), deltas.len());
        let n = self.tree.len();
        let mut sum = 0u64;
        for (&slot, &delta) in slots.iter().zip(deltas) {
            sum += delta;
            let mut i = slot as usize + 1;
            while i <= n {
                let node = &mut self.tree[i - 1];
                node[0] -= delta;
                node[1] += delta;
                i += i & i.wrapping_neg();
            }
        }
        self.total[0] -= sum;
        self.total[1] += sum;
    }

    /// Applies a batch of dead-byte removals (scavenge reclamation):
    /// `slots[k]` loses `deltas[k]` dead bytes.
    ///
    /// # Panics
    ///
    /// Underflow panics (debug builds) if a slot loses more dead bytes
    /// than it holds; lengths must match.
    pub fn sub_dead_many(&mut self, slots: &[u32], deltas: &[u64]) {
        debug_assert_eq!(slots.len(), deltas.len());
        let n = self.tree.len();
        let mut sum = 0u64;
        for (&slot, &delta) in slots.iter().zip(deltas) {
            sum += delta;
            let mut i = slot as usize + 1;
            while i <= n {
                self.tree[i - 1][1] -= delta;
                i += i & i.wrapping_neg();
            }
        }
        self.total[1] -= sum;
    }

    /// `[live, dead]` sums of the first `count` slots, in one O(log n)
    /// walk.
    pub fn prefix_pair(&self, count: usize) -> [u64; 2] {
        let mut i = count.min(self.tree.len());
        let mut sum = [0u64; 2];
        while i > 0 {
            let node = self.tree[i - 1];
            sum[0] += node[0];
            sum[1] += node[1];
            i &= i - 1;
        }
        sum
    }

    /// `[live, dead]` sums of the slots from `count` onward.
    pub fn suffix_pair(&self, count: usize) -> [u64; 2] {
        let p = self.prefix_pair(count);
        [self.total[0] - p[0], self.total[1] - p[1]]
    }

    /// Total live bytes, in O(1).
    pub fn live_total(&self) -> u64 {
        self.total[0]
    }

    /// Total dead bytes, in O(1).
    pub fn dead_total(&self) -> u64 {
        self.total[1]
    }

    /// The largest count `c` with live-`prefix(c) <= target`, in
    /// O(log n): one root-to-leaf descent (binary lifting), not a binary
    /// search over prefix sums. The range guard `next <= n` is its only
    /// branch; a sentinel in its place would be wrong, since `target` may
    /// be `u64::MAX`.
    ///
    /// Values are non-negative, so the counts that fit form a prefix of
    /// `0..=len`. The heap derives two queries from it, on either
    /// component: the smallest `c` with `prefix(c) >= k` (for `k >= 1`) is
    /// `lower_bound(k - 1) + 1`, and the first nonzero slot at or after a
    /// split with `prefix(split) == p` is `lower_bound(p)`.
    pub fn lower_bound_live(&self, target: u64) -> usize {
        self.lower_bound_component(0, target)
    }

    /// The largest count `c` with dead-`prefix(c) <= target`: the
    /// [`lower_bound_live`](PairedFenwick::lower_bound_live) descent on the
    /// dead component.
    pub fn lower_bound_dead(&self, target: u64) -> usize {
        self.lower_bound_component(1, target)
    }

    fn lower_bound_component(&self, comp: usize, target: u64) -> usize {
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
                let node = self.tree[next - 1][comp];
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

    /// Checks every query of `p` against per-slot `[live, dead]` models.
    fn check(p: &PairedFenwick, model: [&[u64]; 2]) {
        let totals = model.map(|vals| vals.iter().sum::<u64>());
        assert_eq!([p.live_total(), p.dead_total()], totals);
        assert_eq!(p.len(), model[0].len());
        for count in 0..=p.len() + 1 {
            let prefix = model.map(|vals| model_prefix(vals, count));
            assert_eq!(p.prefix_pair(count), prefix, "prefix_pair({count})");
            let suffix = [totals[0] - prefix[0], totals[1] - prefix[1]];
            assert_eq!(p.suffix_pair(count), suffix, "suffix_pair({count})");
        }
        for target in 0..=totals[0] + 2 {
            let expected = model_lower_bound(model[0], target);
            assert_eq!(p.lower_bound_live(target), expected, "live({target})");
        }
        for target in 0..=totals[1] + 2 {
            let expected = model_lower_bound(model[1], target);
            assert_eq!(p.lower_bound_dead(target), expected, "dead({target})");
        }
    }

    #[test]
    fn paired_tree_matches_per_slot_models() {
        // Mixed pushes (the compaction rebuild shape). Zero runs and
        // duplicates exercise the descents' tie-breaking (largest count
        // wins ⇒ trailing zeros are included).
        let mut live = vec![5u64, 0, 3, 12, 0, 9, 0, 7, 0, 4, 100, 0];
        let mut dead = vec![0u64, 7, 0, 2, 0, 1, 0, 0, 0, 4, 0, 0];
        let mut p = PairedFenwick::default();
        check(&p, [&[], &[]]);
        for n in 0..live.len() {
            p.push(live[n], dead[n]);
            check(&p, [&live[..=n], &dead[..=n]]);
        }
        // Death moves, single and batched with repeats.
        p.move_to_dead(0, 5);
        p.move_to_dead_many(&[2, 3, 3, 10], &[3, 6, 6, 60]);
        for (s, d) in [(0, 5), (2, 3), (3, 6), (3, 6), (10, 60)] {
            live[s] -= d;
            dead[s] += d;
        }
        check(&p, [&live, &dead]);
        // Reclamation removes dead bytes only.
        p.sub_dead_many(&[0, 3, 3], &[5, 12, 2]);
        dead[0] -= 5;
        dead[3] -= 14;
        check(&p, [&live, &dead]);
        // A block appended after slots that hold dead bytes.
        p.extend_live([8, 0, 0, 13, 1]);
        live.extend([8, 0, 0, 13, 1]);
        dead.extend([0; 5]);
        check(&p, [&live, &dead]);
    }

    #[test]
    fn lower_bound_saturated_target_takes_every_slot() {
        // `u64::MAX` as a target must still mean "largest count whose
        // prefix fits" — a sentinel-based descent would mishandle this.
        let mut p = PairedFenwick::default();
        for v in [3u64, 0, 9, 1] {
            p.push(v, v + 1);
        }
        assert_eq!(p.lower_bound_live(u64::MAX), 4);
        assert_eq!(p.lower_bound_dead(u64::MAX), 4);
    }

    #[test]
    fn empty_tree_sums_and_descends_to_zero() {
        let p = PairedFenwick::default();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.prefix_pair(0), [0, 0]);
        assert_eq!(p.prefix_pair(10), [0, 0]);
        assert_eq!(p.suffix_pair(0), [0, 0]);
        assert_eq!([p.live_total(), p.dead_total()], [0, 0]);
        for target in [0, u64::MAX] {
            assert_eq!(p.lower_bound_live(target), 0);
            assert_eq!(p.lower_bound_dead(target), 0);
        }
    }

    #[test]
    fn paired_extend_live_matches_push_at_every_boundary() {
        // Including boundaries where pre-existing slots hold dead bytes —
        // the appended nodes' fix-up must cover both components.
        let vals: Vec<u64> = (1..40u64).map(|i| (i * 37) % 101 + 1).collect();
        for old in 0..vals.len() {
            for k in 0..=(vals.len() - old).min(17) {
                let mut pushed = PairedFenwick::default();
                let mut extended = PairedFenwick::default();
                for (i, &v) in vals[..old].iter().enumerate() {
                    pushed.push(v, 0);
                    extended.push(v, 0);
                    if i % 3 == 0 {
                        pushed.move_to_dead(i, v);
                        extended.move_to_dead(i, v);
                    }
                }
                for &v in &vals[old..old + k] {
                    pushed.push(v, 0);
                }
                extended.extend_live(vals[old..old + k].iter().copied());
                assert_eq!(extended.tree, pushed.tree, "old={old} k={k}");
                assert_eq!(extended.total, pushed.total, "old={old} k={k}");
            }
        }
    }

    #[test]
    fn paired_rebuild_matches_push_at_every_length() {
        // The O(n) bottom-up build must produce node-for-node the same
        // tree as pushing one pair at a time — including lengths that
        // are exact powers of two and one past them, where the last
        // node's range is largest.
        let pairs: Vec<[u64; 2]> = (0..70u64)
            .map(|i| [(i * 37) % 101, (i * 53) % 89])
            .collect();
        for n in 0..pairs.len() {
            let mut pushed = PairedFenwick::default();
            for &[live, dead] in &pairs[..n] {
                pushed.push(live, dead);
            }
            let mut rebuilt = PairedFenwick::default();
            rebuilt.push(999, 999); // stale state must be discarded
            rebuilt.rebuild_pairs(pairs[..n].iter().copied());
            assert_eq!(rebuilt.tree, pushed.tree, "n={n}");
            assert_eq!(rebuilt.total, pushed.total, "n={n}");
        }
    }

    #[test]
    fn paired_clear_keeps_capacity_and_zeroes_totals() {
        let mut p = PairedFenwick::with_capacity(8);
        p.push(10, 0);
        p.move_to_dead(0, 4);
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.live_total(), 0);
        assert_eq!(p.dead_total(), 0);
        assert_eq!(p.prefix_pair(5), [0, 0]);
        assert_eq!(p.lower_bound_live(u64::MAX), 0);
    }
}
