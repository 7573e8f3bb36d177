//! Per-vector label metadata for filtered search (DESIGN.md §12).
//!
//! Production vector queries carry metadata predicates ("only documents in
//! my tenant", "only products in stock"). The reproduction models the
//! common case — a **small fixed vocabulary** of at most 32 labels — so a
//! vector's label set is one `u32` bitmask and a predicate is a mask
//! intersection: cheap enough to evaluate per visited vertex inside the
//! beam-search inner loop.
//!
//! [`Labels`] is the per-vector store; it lives next to a dataset (or an
//! index's code store) and follows the same positional-id discipline, with
//! [`Labels::subset`] for shard partitioning and [`Labels::compact`] for
//! the streaming index's consolidation remap. [`LabelPredicate`] is the
//! `Copy` query-side half that travels through serving requests.

/// The largest label vocabulary a `u32` mask can hold.
pub const MAX_VOCAB: usize = 32;

/// A query-side predicate over label masks: a vector matches when its
/// label set intersects the predicate's. `Copy` and 8 bytes, so scheduled
/// requests can carry one by value through every serving layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LabelPredicate {
    mask: u32,
}

impl LabelPredicate {
    /// Matches vectors carrying `label`.
    pub fn single(label: usize) -> Self {
        assert!(label < MAX_VOCAB, "label {label} out of vocabulary range");
        Self { mask: 1 << label }
    }

    /// Matches vectors carrying any of `labels`.
    pub fn any_of(labels: &[usize]) -> Self {
        let mut mask = 0u32;
        for &l in labels {
            assert!(l < MAX_VOCAB, "label {l} out of vocabulary range");
            mask |= 1 << l;
        }
        assert!(mask != 0, "a predicate needs at least one label");
        Self { mask }
    }

    /// Matches every labelled vector (all 32 possible labels).
    pub fn all() -> Self {
        Self { mask: u32::MAX }
    }

    /// The raw label bitmask.
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Whether a vector with label set `mask` satisfies this predicate.
    #[inline]
    pub fn matches(&self, mask: u32) -> bool {
        self.mask & mask != 0
    }
}

/// Per-vector label sets over a vocabulary of at most [`MAX_VOCAB`]
/// labels: `masks[i]` is vector `i`'s label bitmask.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Labels {
    masks: Vec<u32>,
    vocab: usize,
}

impl Labels {
    /// An empty store over a `vocab`-label vocabulary.
    pub fn new(vocab: usize) -> Self {
        assert!(
            (1..=MAX_VOCAB).contains(&vocab),
            "vocabulary must be 1..={MAX_VOCAB}, got {vocab}"
        );
        Self {
            masks: Vec::new(),
            vocab,
        }
    }

    /// Wraps existing masks; every mask must fit the vocabulary.
    pub fn from_masks(vocab: usize, masks: Vec<u32>) -> Self {
        let mut l = Self::new(vocab);
        for &m in &masks {
            l.check_mask(m);
        }
        l.masks = masks;
        l
    }

    fn check_mask(&self, mask: u32) {
        if self.vocab < MAX_VOCAB {
            assert!(
                mask < (1u32 << self.vocab),
                "mask {mask:#x} exceeds the {}-label vocabulary",
                self.vocab
            );
        }
    }

    /// Appends one vector's label set (positional id = push order, the
    /// same discipline as the code stores).
    pub fn push(&mut self, mask: u32) {
        self.check_mask(mask);
        self.masks.push(mask);
    }

    /// Appends a single-label vector.
    pub fn push_label(&mut self, label: usize) {
        assert!(label < self.vocab, "label {label} out of vocabulary");
        self.masks.push(1 << label);
    }

    /// Vector `i`'s label bitmask.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.masks[i]
    }

    /// Labelled vector count.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Whether vector `i` satisfies `pred`.
    #[inline]
    pub fn matches(&self, i: usize, pred: LabelPredicate) -> bool {
        pred.matches(self.masks[i])
    }

    /// How many vectors satisfy `pred`.
    pub fn count_matching(&self, pred: LabelPredicate) -> usize {
        self.masks.iter().filter(|&&m| pred.matches(m)).count()
    }

    /// The fraction of vectors satisfying `pred` — the predicate's
    /// measured selectivity on this corpus (1.0 on an empty store).
    pub fn selectivity(&self, pred: LabelPredicate) -> f32 {
        if self.masks.is_empty() {
            return 1.0;
        }
        self.count_matching(pred) as f32 / self.masks.len() as f32
    }

    /// The label sets of `indices`, in order — the labels-side mirror of
    /// `Dataset::subset` for shard partitioning.
    pub fn subset(&self, indices: &[usize]) -> Labels {
        Labels {
            masks: indices.iter().map(|&i| self.masks[i]).collect(),
            vocab: self.vocab,
        }
    }

    /// The label sets of `survivors` (old positional ids), in order — the
    /// labels-side mirror of the code stores' consolidation compaction.
    pub fn compact(&self, survivors: &[u32]) -> Labels {
        Labels {
            masks: survivors.iter().map(|&i| self.masks[i as usize]).collect(),
            vocab: self.vocab,
        }
    }

    /// A vertex-accept closure over positional ids, for composing into a
    /// `VertexFilter`.
    pub fn accept_fn(&self, pred: LabelPredicate) -> impl Fn(u32) -> bool + '_ {
        move |v: u32| pred.matches(self.masks[v as usize])
    }

    /// Heap bytes held.
    pub fn memory_bytes(&self) -> usize {
        self.masks.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_match_by_intersection() {
        let mut labels = Labels::new(4);
        labels.push_label(0);
        labels.push(0b1010);
        labels.push_label(3);
        let p0 = LabelPredicate::single(0);
        let p13 = LabelPredicate::any_of(&[1, 3]);
        assert!(labels.matches(0, p0));
        assert!(!labels.matches(1, p0));
        assert!(labels.matches(1, p13));
        assert!(labels.matches(2, p13));
        assert_eq!(labels.count_matching(p13), 2);
        assert!((labels.selectivity(p0) - 1.0 / 3.0).abs() < 1e-6);
        let all = LabelPredicate::all();
        assert!((0..labels.len()).all(|i| labels.matches(i, all)));
    }

    #[test]
    fn subset_and_compact_preserve_order() {
        let labels = Labels::from_masks(8, vec![1, 2, 4, 8, 16]);
        let sub = labels.subset(&[4, 0, 2]);
        assert_eq!(sub.get(0), 16);
        assert_eq!(sub.get(1), 1);
        assert_eq!(sub.get(2), 4);
        let compacted = labels.compact(&[1, 3]);
        assert_eq!(compacted.len(), 2);
        assert_eq!(compacted.get(0), 2);
        assert_eq!(compacted.get(1), 8);
        assert_eq!(compacted.vocab(), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_mask_rejected() {
        let mut labels = Labels::new(2);
        labels.push(0b100);
    }

    #[test]
    fn accept_fn_tracks_masks() {
        let labels = Labels::from_masks(3, vec![1, 2, 4]);
        let accept = labels.accept_fn(LabelPredicate::single(1));
        assert!(!accept(0));
        assert!(accept(1));
        assert!(!accept(2));
    }
}
