//! The [`VectorCompressor`] abstraction the ANNS engines consume.
//!
//! Every quantizer in the evaluation — PQ, OPQ, Catalyst, L&C, and RPQ (in
//! `rpq-core`) — compresses a dataset to [`CompactCodes`] and can answer
//! per-query distance estimates through a [`DistanceEstimator`]. The
//! estimator is constructed once per query (that is where the ADC lookup
//! table gets built) and then called once per visited vertex during beam
//! search.

use rpq_data::Dataset;
use rpq_graph::DistanceEstimator;

use crate::codebook::{CompactCodes, LookupTable};
use crate::soa::SoaCodes;

/// A trained vector compressor: dataset → compact codes + per-query
/// estimated distances.
pub trait VectorCompressor: Send + Sync {
    /// Display name used in experiment tables ("PQ", "OPQ", "Catalyst", …).
    fn name(&self) -> String;

    /// Input vector dimensionality.
    fn dim(&self) -> usize;

    /// Dimensionality of the reconstruction space (differs from `dim` for
    /// projection-based methods such as Catalyst).
    fn code_dim(&self) -> usize;

    /// Size of the model in bytes: codebooks plus any rotation/projection
    /// parameters (paper Table 5).
    fn model_bytes(&self) -> usize;

    /// Wall-clock seconds spent training this compressor (paper Table 4).
    fn train_seconds(&self) -> f32;

    /// Compresses a dataset (applying any internal rotation/projection).
    fn encode_dataset(&self, data: &Dataset) -> CompactCodes;

    /// Encodes a single vector — the streaming insert path (DESIGN.md §8.1)
    /// appends one code at a time as points arrive. Must agree bit-for-bit
    /// with [`VectorCompressor::encode_dataset`] on the same vector; the
    /// default guarantees that by routing through a one-vector dataset.
    fn encode_one(&self, v: &[f32], out: &mut [u8]) {
        let mut one = Dataset::new(self.dim());
        one.push(v);
        let codes = self.encode_dataset(&one);
        out.copy_from_slice(codes.code(0));
    }

    /// Reconstructs the quantized vector for one code, in the code space.
    fn decode_into(&self, code: &[u8], out: &mut [f32]);

    /// Builds the per-query distance estimator over a code set.
    fn estimator<'a>(
        &'a self,
        codes: &'a CompactCodes,
        query: &'a [f32],
    ) -> Box<dyn DistanceEstimator + 'a>;

    /// Builds the batched per-query estimator over chunk-major (SoA) codes
    /// — a scan kernel behind [`DistanceEstimator::distance_batch`]
    /// (DESIGN.md §9). No index routes through it: they hold one AoS code
    /// store and call [`VectorCompressor::estimator`]; `rpq-perf` calls
    /// this to report the scan and gather rates beside the scalar one.
    /// `None` (the default) means this compressor has no table-driven
    /// batched kernel.
    ///
    /// Contract: when `Some`, every distance must be **bit-identical** to
    /// the scalar estimator's over the equivalent AoS codes.
    fn batch_estimator<'a>(
        &'a self,
        _codes: &'a SoaCodes,
        _query: &'a [f32],
    ) -> Option<Box<dyn DistanceEstimator + 'a>> {
        None
    }
}

impl<T: VectorCompressor + ?Sized> VectorCompressor for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn code_dim(&self) -> usize {
        (**self).code_dim()
    }
    fn model_bytes(&self) -> usize {
        (**self).model_bytes()
    }
    fn train_seconds(&self) -> f32 {
        (**self).train_seconds()
    }
    fn encode_dataset(&self, data: &Dataset) -> CompactCodes {
        (**self).encode_dataset(data)
    }
    fn encode_one(&self, v: &[f32], out: &mut [u8]) {
        (**self).encode_one(v, out)
    }
    fn decode_into(&self, code: &[u8], out: &mut [f32]) {
        (**self).decode_into(code, out)
    }
    fn estimator<'a>(
        &'a self,
        codes: &'a CompactCodes,
        query: &'a [f32],
    ) -> Box<dyn DistanceEstimator + 'a> {
        (**self).estimator(codes, query)
    }
    fn batch_estimator<'a>(
        &'a self,
        codes: &'a SoaCodes,
        query: &'a [f32],
    ) -> Option<Box<dyn DistanceEstimator + 'a>> {
        (**self).batch_estimator(codes, query)
    }
}

/// The standard ADC estimator: one lookup-table build per query, then
/// `M` table reads per distance (paper §3.1; ADC is adopted throughout).
pub struct AdcEstimator<'a> {
    lut: LookupTable,
    codes: &'a CompactCodes,
}

impl<'a> AdcEstimator<'a> {
    pub fn new(lut: LookupTable, codes: &'a CompactCodes) -> Self {
        assert_eq!(lut.m(), codes.m(), "lookup table / codes chunk mismatch");
        Self { lut, codes }
    }
}

impl DistanceEstimator for AdcEstimator<'_> {
    #[inline]
    fn distance(&self, node: u32) -> f32 {
        debug_assert!(
            (node as usize) < self.codes.len(),
            "ADC estimator queried for node {node} but the code store holds {} codes",
            self.codes.len()
        );
        self.lut.distance(self.codes.code(node as usize))
    }
}

/// SDC (symmetric) estimator: the query itself is quantized and distances
/// come from the code-to-code table. Coarser than ADC (paper §3.1) — used
/// by the Table 2 reproduction as the "first two terms only" ranking.
pub struct SdcEstimator<'a> {
    table: crate::codebook::SdcTable,
    codes: &'a CompactCodes,
    query_code: Vec<u8>,
}

impl<'a> SdcEstimator<'a> {
    /// Quantizes `query` with `codebook` and prepares the symmetric table.
    pub fn new(
        codebook: &crate::codebook::Codebook,
        codes: &'a CompactCodes,
        query: &[f32],
    ) -> Self {
        let mut query_code = vec![0u8; codebook.m()];
        codebook.encode_one(query, &mut query_code);
        Self {
            table: codebook.sdc_table(),
            codes,
            query_code,
        }
    }
}

impl DistanceEstimator for SdcEstimator<'_> {
    #[inline]
    fn distance(&self, node: u32) -> f32 {
        self.table
            .distance(&self.query_code, self.codes.code(node as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook::Codebook;

    fn tiny() -> (Codebook, CompactCodes) {
        let cb = Codebook::new(2, 2, 1, vec![0.0, 10.0, 0.0, 100.0]);
        let codes = CompactCodes::new(3, 2, vec![0, 1, 1, 0, 1, 1]);
        (cb, codes)
    }

    /// A node id past the end of the code store must fail loudly — with the
    /// offending id and the store's length — instead of an opaque slice
    /// panic deep inside `CompactCodes::code`.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "but the code store holds 3 codes")]
    fn out_of_range_node_id_names_id_and_len() {
        let (cb, codes) = tiny();
        let est = AdcEstimator::new(cb.lookup_table(&[1.0, 2.0]), &codes);
        let _ = est.distance(3);
    }

    #[test]
    fn in_range_node_ids_score() {
        let (cb, codes) = tiny();
        let est = AdcEstimator::new(cb.lookup_table(&[1.0, 2.0]), &codes);
        for node in 0..3u32 {
            assert!(est.distance(node).is_finite());
        }
    }
}
