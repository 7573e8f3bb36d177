//! The sorted candidate pool every beam loop routes with (DESIGN.md §9.5).
//!
//! Paper Alg. 2 keeps the routing state as one sorted candidate set `b`
//! (`sort` + `resize(h)`); DiskANN's `L`-sized search list and NSG's
//! `InsertIntoPool` are the same structure. [`CandidatePool`] is that
//! structure with the one extra rule that makes it *equal* — not merely
//! equivalent in recall — to a frontier min-heap plus a bounded max-heap:
//! the tie tail (see [`CandidatePool::offer`]).

/// Packs `(dist, id)` into one `u64` whose integer order is
/// `(dist.total_cmp, id)` order: the order-preserving image of `dist`'s bits
/// in the high half (a negative value has every bit flipped, a positive one
/// its sign bit set), `id` in the low half. [`unpack`] inverts it bit for
/// bit, NaN payloads included.
#[inline]
fn pack(dist: f32, id: u32) -> u64 {
    let bits = dist.to_bits();
    let ordered = bits ^ ((((bits as i32) >> 31) as u32) | 0x8000_0000);
    (u64::from(ordered) << 32) | u64::from(id)
}

/// The `(dist, id)` a [`pack`]ed key was made from.
#[inline]
fn unpack(key: u64) -> (f32, u32) {
    let ordered = (key >> 32) as u32;
    let bits = ordered ^ ((((!ordered as i32) >> 31) as u32) | 0x8000_0000);
    (f32::from_bits(bits), key as u32)
}

/// A bounded array of `(dist, id)` candidates kept ascending by
/// `(dist.total_cmp, id)`, each with an *expanded* flag that takes no part
/// in the ordering, and a cursor over the not-yet-expanded entries.
///
/// Each entry is stored as one packed `u64` key whose integer order is the
/// `(dist.total_cmp, id)` order, so the slot search and the insertion shift
/// run over plain integers; admission and the tie-tail trim still compare
/// the decoded `f32`s, exactly as the heaps did.
///
/// The first `ef` entries are the best-`ef` set (what a bounded max-heap
/// would hold); entries past position `ef` are the tie tail. The pool owns
/// its buffers across [`CandidatePool::reset`] calls, so a warmed pool never
/// allocates.
pub struct CandidatePool {
    keys: Vec<u64>,
    /// Parallel to `keys`.
    expanded: Vec<bool>,
    ef: usize,
    /// Every entry before `cursor` is expanded.
    cursor: usize,
}

impl Default for CandidatePool {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            expanded: Vec::new(),
            ef: 1,
            cursor: 0,
        }
    }
}

impl CandidatePool {
    /// Empties the pool and sets its capacity to `ef` (clamped up to 1).
    pub fn reset(&mut self, ef: usize) {
        self.keys.clear();
        self.expanded.clear();
        self.ef = ef.max(1);
        self.cursor = 0;
    }

    /// The `ef`-th smallest distance — the admission bound — or `+inf`
    /// while fewer than `ef` candidates are held.
    #[inline]
    pub fn bound(&self) -> f32 {
        self.keys
            .get(self.ef - 1)
            .map_or(f32::INFINITY, |&k| unpack(k).0)
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
        if !(self.keys.len() < ef || dist < self.bound()) {
            return false;
        }
        let key = pack(dist, id);
        let pos = self.keys.partition_point(|&k| k < key);
        self.keys.insert(pos, key);
        self.expanded.insert(pos, false);
        while self.keys.len() > ef && unpack(self.keys[self.keys.len() - 1]).0 > self.bound() {
            self.keys.pop();
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
        while self.cursor < self.keys.len() {
            let i = self.cursor;
            self.cursor += 1;
            if !self.expanded[i] {
                self.expanded[i] = true;
                return Some(unpack(self.keys[i]));
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
    pub fn best(&self) -> impl ExactSizeIterator<Item = (f32, u32)> + '_ {
        self.keys[..self.keys.len().min(self.ef)]
            .iter()
            .map(|&k| unpack(k))
    }

    /// Heap bytes held.
    pub fn memory_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
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

    fn best(p: &CandidatePool) -> Vec<(f32, u32)> {
        p.best().collect()
    }

    #[test]
    fn pops_in_distance_then_id_order() {
        let mut p = pool_of(8, &[(2.0, 7), (1.0, 9), (1.0, 3), (0.5, 1)]);
        assert_eq!(best(&p), [(0.5, 1), (1.0, 3), (1.0, 9), (2.0, 7)]);
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
        assert_eq!(best(&p), [(1.0, 1), (1.5, 4)]);
    }

    #[test]
    fn evicted_ties_stay_poppable_until_the_bound_tightens() {
        // ef = 2, three candidates at distance 1.0 after the third offer:
        // (1.0, 9) leaves the best set but ties the bound.
        let mut p = pool_of(2, &[(1.0, 5), (1.0, 9)]);
        assert!(p.offer(0.5, 1));
        assert_eq!(best(&p), [(0.5, 1), (1.0, 5)]);
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
        assert_eq!(p.best().len(), 0);
        assert_eq!(p.pop_closest(), None);
        assert_eq!(p.memory_bytes(), bytes);
        p.offer(4.0, 4);
        assert_eq!(
            p.pop_closest(),
            Some((4.0, 4)),
            "flags do not survive a reset"
        );
    }

    #[test]
    fn packed_key_round_trips_and_orders_like_total_cmp_then_id() {
        let nan_payload = f32::from_bits(0x7fc0_1234);
        let specials = [
            -1.0f32,
            -0.0,
            0.0,
            1.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1),            // smallest positive subnormal
            -f32::from_bits(0x0040_0000), // a negative subnormal
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::NAN,
            -f32::NAN,
            nan_payload,
            -nan_payload,
        ];
        let ids = [0u32, 1, 7, u32::MAX];
        let items: Vec<(f32, u32)> = specials
            .iter()
            .flat_map(|&d| ids.iter().map(move |&v| (d, v)))
            .collect();
        for &(d, v) in &items {
            let (back, id) = unpack(pack(d, v));
            assert_eq!((back.to_bits(), id), (d.to_bits(), v), "{d:?}");
        }
        for &(da, va) in &items {
            for &(db, vb) in &items {
                assert_eq!(
                    pack(da, va).cmp(&pack(db, vb)),
                    da.total_cmp(&db).then(va.cmp(&vb)),
                    "({da:?}, {va}) vs ({db:?}, {vb})"
                );
            }
        }
        // Bit patterns across the whole range round-trip: the stride
        // visits every exponent, both signs and the NaN range.
        for bits in (0..=u32::MAX).step_by(65_521) {
            let d = f32::from_bits(bits);
            assert_eq!(unpack(pack(d, 3)).0.to_bits(), bits);
        }
    }
}
