//! The sorted candidate pool every beam loop routes with (DESIGN.md §9.5).
//!
//! Paper Alg. 2 keeps the routing state as one sorted candidate set `b`
//! (`sort` + `resize(h)`); DiskANN's `L`-sized search list and NSG's
//! `InsertIntoPool` are the same structure. [`CandidatePool`] is that
//! structure with the one extra rule that makes it *equal* — not merely
//! equivalent in recall — to a frontier min-heap plus a bounded max-heap:
//! the tie tail (see [`CandidatePool::offer`]).

/// A bounded array of `(dist, id)` candidates kept ascending by
/// `(dist.total_cmp, id)`, each with an *expanded* flag that takes no part
/// in the ordering, and a cursor over the not-yet-expanded entries.
///
/// The first `ef` entries are the best-`ef` set (what a bounded max-heap
/// would hold); entries past position `ef` are the tie tail. The pool owns
/// its buffers across [`CandidatePool::reset`] calls, so a warmed pool never
/// allocates.
pub struct CandidatePool {
    entries: Vec<(f32, u32)>,
    /// Parallel to `entries`.
    expanded: Vec<bool>,
    ef: usize,
    /// Every entry before `cursor` is expanded.
    cursor: usize,
}

impl Default for CandidatePool {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            expanded: Vec::new(),
            ef: 1,
            cursor: 0,
        }
    }
}

impl CandidatePool {
    /// Empties the pool and sets its capacity to `ef` (clamped up to 1).
    pub fn reset(&mut self, ef: usize) {
        self.entries.clear();
        self.expanded.clear();
        self.ef = ef.max(1);
        self.cursor = 0;
    }

    /// The `ef`-th smallest distance — the admission bound — or `+inf`
    /// while fewer than `ef` candidates are held.
    #[inline]
    pub fn bound(&self) -> f32 {
        self.entries.get(self.ef - 1).map_or(f32::INFINITY, |e| e.0)
    }

    /// Offers a scored vertex; `true` when it was admitted (`len < ef` or
    /// `dist < bound()`, strictly). Each vertex may be offered once.
    ///
    /// An admission that pushes an entry out of the best-`ef` set keeps it
    /// as a *tail* past position `ef` for as long as its distance equals
    /// the bound. A search that stops at the first candidate **strictly**
    /// farther than the bound still expands such an entry, and it can be
    /// the only route to a closer vertex, so dropping it would change
    /// answers whenever distances tie — and ADC distances do (two vectors
    /// with one code). The tail takes part in the cursor scan only, never
    /// in [`CandidatePool::bound`] or [`CandidatePool::best`].
    #[inline]
    pub fn offer(&mut self, dist: f32, id: u32) -> bool {
        let ef = self.ef;
        if !(self.entries.len() < ef || dist < self.entries[ef - 1].0) {
            return false;
        }
        let pos = self
            .entries
            .partition_point(|&(d, v)| d.total_cmp(&dist).then(v.cmp(&id)).is_lt());
        self.entries.insert(pos, (dist, id));
        self.expanded.insert(pos, false);
        while self.entries.len() > ef
            && self.entries[self.entries.len() - 1].0 > self.entries[ef - 1].0
        {
            self.entries.pop();
            self.expanded.pop();
        }
        // `pos < ef <= len`, so the cursor stays in range after the trim.
        self.cursor = self.cursor.min(pos);
        true
    }

    /// Marks the closest not-yet-expanded candidate expanded and returns
    /// it; `None` ends the search. Every held entry is within the bound
    /// (farther ones are trimmed as the bound tightens), so no distance
    /// test is needed here.
    #[inline]
    pub fn pop_closest(&mut self) -> Option<(f32, u32)> {
        while self.cursor < self.entries.len() {
            let i = self.cursor;
            self.cursor += 1;
            if !self.expanded[i] {
                self.expanded[i] = true;
                return Some(self.entries[i]);
            }
        }
        None
    }

    /// Replaces `out` with up to `width` (at least one) closest unexpanded
    /// candidates, closest first — one pipeline stage of the disk engine
    /// (DiskANN's beam width `W`). An empty `out` ends the search.
    pub fn pop_batch(&mut self, width: usize, out: &mut Vec<(f32, u32)>) {
        out.clear();
        out.extend(std::iter::from_fn(|| self.pop_closest()).take(width.max(1)));
    }

    /// The best `ef` candidates seen, ascending by `(dist, id)`.
    #[inline]
    pub fn best(&self) -> &[(f32, u32)] {
        &self.entries[..self.entries.len().min(self.ef)]
    }

    /// Heap bytes held.
    pub fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(f32, u32)>()
            + self.expanded.capacity() * std::mem::size_of::<bool>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_of(ef: usize, items: &[(f32, u32)]) -> CandidatePool {
        let mut p = CandidatePool::default();
        p.reset(ef);
        for &(d, v) in items {
            p.offer(d, v);
        }
        p
    }

    #[test]
    fn pops_in_distance_then_id_order() {
        let mut p = pool_of(8, &[(2.0, 7), (1.0, 9), (1.0, 3), (0.5, 1)]);
        assert_eq!(p.best(), &[(0.5, 1), (1.0, 3), (1.0, 9), (2.0, 7)]);
        assert_eq!(p.bound(), f32::INFINITY, "not full yet");
        assert_eq!(p.pop_closest(), Some((0.5, 1)));
        // Ties break ascending by id.
        assert_eq!(p.pop_closest(), Some((1.0, 3)));
        assert_eq!(p.pop_closest(), Some((1.0, 9)));
        assert_eq!(p.pop_closest(), Some((2.0, 7)));
        assert_eq!(p.pop_closest(), None);
        // Popping expands, it does not remove.
        assert_eq!(p.best().len(), 4);
    }

    #[test]
    fn pop_batch_respects_width_and_bound() {
        let mut p = pool_of(4, &[(0.1, 1), (0.2, 2), (0.3, 3), (5.0, 4)]);
        let mut stage = Vec::new();
        // Width caps the batch.
        p.pop_batch(2, &mut stage);
        assert_eq!(stage, vec![(0.1, 1), (0.2, 2)]);
        // An insert before the cursor moves it back; the tightened bound
        // (0.3) drops the 5.0 candidate, so the batch stops short of width.
        assert!(p.offer(0.25, 5));
        assert_eq!(p.bound(), 0.3);
        p.pop_batch(8, &mut stage);
        assert_eq!(stage, vec![(0.25, 5), (0.3, 3)]);
        // An empty stage is the terminate signal.
        p.pop_batch(8, &mut stage);
        assert!(stage.is_empty());
        // Width 0 is width 1.
        assert!(p.offer(0.05, 6));
        p.pop_batch(0, &mut stage);
        assert_eq!(stage, vec![(0.05, 6)]);
    }

    #[test]
    fn admission_is_strict_against_the_bound() {
        let mut p = pool_of(2, &[(1.0, 1), (2.0, 2)]);
        assert_eq!(p.bound(), 2.0);
        assert!(!p.offer(2.0, 0), "a tie with the bound is not admitted");
        assert!(!p.offer(3.0, 3));
        assert!(p.offer(1.5, 4));
        assert_eq!(p.best(), &[(1.0, 1), (1.5, 4)]);
    }

    #[test]
    fn evicted_ties_stay_poppable_until_the_bound_tightens() {
        // ef = 2, three candidates at distance 1.0 after the third offer:
        // (1.0, 9) leaves the best set but ties the bound.
        let mut p = pool_of(2, &[(1.0, 5), (1.0, 9)]);
        assert!(p.offer(0.5, 1));
        assert_eq!(p.best(), &[(0.5, 1), (1.0, 5)]);
        assert_eq!(p.bound(), 1.0);
        assert_eq!(p.pop_closest(), Some((0.5, 1)));
        assert_eq!(p.pop_closest(), Some((1.0, 5)));
        assert_eq!(p.pop_closest(), Some((1.0, 9)), "the tie tail is scanned");
        // A strictly tighter bound drops the whole tail.
        let mut p = pool_of(2, &[(1.0, 5), (1.0, 9)]);
        p.offer(0.5, 1);
        p.offer(0.7, 2);
        assert_eq!(p.bound(), 0.7);
        assert_eq!(p.pop_closest(), Some((0.5, 1)));
        assert_eq!(p.pop_closest(), Some((0.7, 2)));
        assert_eq!(p.pop_closest(), None);
    }

    #[test]
    fn reset_forgets_entries_and_keeps_buffers() {
        let mut p = pool_of(16, &[(3.0, 3), (1.0, 1), (2.0, 2)]);
        p.pop_closest();
        let bytes = p.memory_bytes();
        assert!(bytes >= 3 * 9);
        p.reset(2);
        assert!(p.best().is_empty());
        assert_eq!(p.pop_closest(), None);
        assert_eq!(p.memory_bytes(), bytes);
        p.offer(4.0, 4);
        assert_eq!(
            p.pop_closest(),
            Some((4.0, 4)),
            "flags do not survive a reset"
        );
    }
}
