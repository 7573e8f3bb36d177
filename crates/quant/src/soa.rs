//! SoA (chunk-major) code layout and the batched ADC scan kernel
//! (DESIGN.md §9).
//!
//! [`crate::codebook::CompactCodes`] stores codes AoS — one `M`-byte row per
//! vector — and that is the layout every index holds and searches: a beam
//! hop gathers at most one graph degree of random ids, and a row-major code
//! costs one cache line per candidate where a chunk-major one costs `M`.
//! The types here are the kernel for the *other* access pattern, a
//! contiguous scan, the way FAISS's `IndexPQFastScan` and ScaNN's
//! register-blocked kernels do it:
//!
//! * [`SoaCodes`] — chunk-major code storage (`chunks[j][i]` = chunk `j` of
//!   vector `i`), losslessly convertible to/from [`CompactCodes`];
//! * [`BatchAdcEstimator`] — scores candidate blocks of up to
//!   [`ADC_BLOCK`] codes per lookup-table row pass, keeping each `k`-entry
//!   LUT row hot while it serves the whole block; the accumulation order is
//!   pinned to [`LookupTable::distance`]'s so batched f32 distances are
//!   **bit-identical** to the scalar path.
//!
//! No index routes through this module; `rpq-perf` (`benchmark/`) builds
//! its own [`SoaCodes`] to report the scan and gather rates next to the
//! scalar one (`quant.adc_{scan,gather,scalar}_mcps`).
//!
//! The kernel is written as plain indexed loops over contiguous rows so
//! the autovectorizer can chew on it; the table gathers themselves are the
//! scalar residue that real `vpshufb`/`vgatherdps` kernels would lift.

use rpq_graph::DistanceEstimator;

use crate::codebook::{CompactCodes, LookupTable};

/// Codes scored per kernel block: 32 accumulators fit comfortably in two
/// AVX2 (or four NEON) register files while the active LUT row stays in L1.
pub const ADC_BLOCK: usize = 32;

/// Chunk-major (SoA) compact codes: row `j` holds chunk `j` of every vector.
#[derive(Clone, Debug, PartialEq)]
pub struct SoaCodes {
    n: usize,
    chunks: Vec<Vec<u8>>,
}

impl SoaCodes {
    /// Transposes an AoS code store into chunk-major rows. Lossless:
    /// [`SoaCodes::to_compact`] returns an equal [`CompactCodes`].
    pub fn from_compact(codes: &CompactCodes) -> Self {
        let (n, m) = (codes.len(), codes.m());
        let mut chunks = vec![vec![0u8; n]; m];
        for i in 0..n {
            let code = codes.code(i);
            for (row, &c) in chunks.iter_mut().zip(code) {
                row[i] = c;
            }
        }
        Self { n, chunks }
    }

    /// Transposes back to the AoS layout.
    pub fn to_compact(&self) -> CompactCodes {
        let m = self.m();
        let mut codes = vec![0u8; self.n * m];
        for (j, row) in self.chunks.iter().enumerate() {
            for (i, &c) in row.iter().enumerate() {
                codes[i * m + j] = c;
            }
        }
        CompactCodes::new(self.n, m, codes)
    }

    /// Number of stored codes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when nothing is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of chunks M.
    #[inline]
    pub fn m(&self) -> usize {
        self.chunks.len()
    }

    /// Row `j`: chunk `j`'s byte for every vector, contiguous.
    #[inline]
    pub fn chunk(&self, j: usize) -> &[u8] {
        &self.chunks[j]
    }

    /// In-memory footprint in bytes (same as the AoS store it transposes,
    /// modulo per-row allocation slack).
    pub fn memory_bytes(&self) -> usize {
        self.chunks.iter().map(|r| r.capacity()).sum()
    }
}

/// Batched ADC estimator over chunk-major codes.
///
/// Scalar [`DistanceEstimator::distance`] and the block kernel behind
/// [`DistanceEstimator::distance_batch`] both replicate
/// [`LookupTable::distance`]'s accumulation order exactly (groups of four
/// chunks, then a per-chunk tail), so every distance this estimator returns
/// is bit-identical to [`crate::AdcEstimator`] over the equivalent AoS
/// codes — the invariant `tests/hotpath.rs` pins.
pub struct BatchAdcEstimator<'a> {
    lut: LookupTable,
    codes: &'a SoaCodes,
}

impl<'a> BatchAdcEstimator<'a> {
    pub fn new(lut: LookupTable, codes: &'a SoaCodes) -> Self {
        assert_eq!(lut.m(), codes.m(), "lookup table / codes chunk mismatch");
        Self { lut, codes }
    }

    /// Scores one block of at most [`ADC_BLOCK`] nodes, chunk-major: each
    /// LUT row is walked once while it serves every code in the block.
    fn score_block(&self, nodes: &[u32], out: &mut [f32]) {
        debug_assert!(nodes.len() <= ADC_BLOCK);
        debug_assert_eq!(nodes.len(), out.len());
        let m = self.codes.m();
        let k = self.lut.k();
        let table = self.lut.values();
        let mut acc = [0.0f32; ADC_BLOCK];
        let mut j = 0;
        // Four LUT rows per pass, mirroring the scalar path's 4-wide unroll:
        // per node the partial sum is ((t0+t1)+t2)+t3, added to the running
        // accumulator — the exact f32 operation sequence of
        // `LookupTable::distance`.
        while j + 4 <= m {
            let r0 = self.codes.chunk(j);
            let r1 = self.codes.chunk(j + 1);
            let r2 = self.codes.chunk(j + 2);
            let r3 = self.codes.chunk(j + 3);
            let t0 = &table[j * k..(j + 1) * k];
            let t1 = &table[(j + 1) * k..(j + 2) * k];
            let t2 = &table[(j + 2) * k..(j + 3) * k];
            let t3 = &table[(j + 3) * k..(j + 4) * k];
            for (slot, &node) in acc.iter_mut().zip(nodes) {
                let i = node as usize;
                *slot += t0[r0[i] as usize]
                    + t1[r1[i] as usize]
                    + t2[r2[i] as usize]
                    + t3[r3[i] as usize];
            }
            j += 4;
        }
        while j < m {
            let row = self.codes.chunk(j);
            let t = &table[j * k..(j + 1) * k];
            for (slot, &node) in acc.iter_mut().zip(nodes) {
                *slot += t[row[node as usize] as usize];
            }
            j += 1;
        }
        out.copy_from_slice(&acc[..nodes.len()]);
    }
}

impl DistanceEstimator for BatchAdcEstimator<'_> {
    #[inline]
    fn distance(&self, node: u32) -> f32 {
        debug_assert!(
            (node as usize) < self.codes.len(),
            "ADC estimator queried for node {node} but the code store holds {} codes",
            self.codes.len()
        );
        let i = node as usize;
        let m = self.codes.m();
        let k = self.lut.k();
        let table = self.lut.values();
        let mut acc = 0.0f32;
        let mut j = 0;
        while j + 4 <= m {
            acc += table[j * k + self.codes.chunk(j)[i] as usize]
                + table[(j + 1) * k + self.codes.chunk(j + 1)[i] as usize]
                + table[(j + 2) * k + self.codes.chunk(j + 2)[i] as usize]
                + table[(j + 3) * k + self.codes.chunk(j + 3)[i] as usize];
            j += 4;
        }
        while j < m {
            acc += table[j * k + self.codes.chunk(j)[i] as usize];
            j += 1;
        }
        acc
    }

    fn distance_batch(&self, nodes: &[u32], out: &mut [f32]) {
        assert_eq!(nodes.len(), out.len(), "nodes/out length mismatch");
        for (nb, ob) in nodes.chunks(ADC_BLOCK).zip(out.chunks_mut(ADC_BLOCK)) {
            self.score_block(nb, ob);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook::Codebook;

    /// Deterministic pseudo-random bytes/floats without a dependency.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn f32(&mut self) -> f32 {
            (self.next() % 10_000) as f32 / 1000.0 - 5.0
        }
        fn byte(&mut self, k: usize) -> u8 {
            (self.next() % k as u64) as u8
        }
    }

    fn random_world(m: usize, k: usize, n: usize, seed: u64) -> (Codebook, CompactCodes, Vec<f32>) {
        let dsub = 2;
        let mut rng = XorShift(seed | 1);
        let codewords = (0..m * k * dsub).map(|_| rng.f32()).collect();
        let cb = Codebook::new(m, k, dsub, codewords);
        let codes: Vec<u8> = (0..n * m).map(|_| rng.byte(k)).collect();
        let query: Vec<f32> = (0..m * dsub).map(|_| rng.f32()).collect();
        (cb, CompactCodes::new(n, m, codes), query)
    }

    #[test]
    fn soa_roundtrip_is_lossless() {
        for (m, k, n) in [(1, 16, 7), (4, 16, 37), (8, 256, 65), (16, 256, 64)] {
            let (_, codes, _) = random_world(m, k, n, 99);
            let soa = SoaCodes::from_compact(&codes);
            assert_eq!(soa.len(), n);
            assert_eq!(soa.m(), m);
            assert_eq!(soa.to_compact(), codes, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn batched_distances_bit_equal_scalar() {
        // Odd n exercises the block remainder; m covers tail-only (1),
        // exact groups (4, 8, 16), and group+tail (6).
        for (m, k) in [(1, 16), (4, 16), (6, 32), (8, 256), (16, 256)] {
            let n = 37;
            let (cb, codes, query) = random_world(m, k, n, 7 * m as u64 + k as u64);
            let lut = cb.lookup_table(&query);
            let soa = SoaCodes::from_compact(&codes);
            let est = BatchAdcEstimator::new(cb.lookup_table(&query), &soa);
            let ids: Vec<u32> = (0..n as u32).collect();
            let mut batched = vec![0.0f32; n];
            est.distance_batch(&ids, &mut batched);
            for (i, got) in batched.iter().enumerate() {
                let scalar = lut.distance(codes.code(i));
                assert_eq!(
                    scalar.to_bits(),
                    got.to_bits(),
                    "m={m} k={k} i={i}: {scalar} vs {got}"
                );
                assert_eq!(scalar.to_bits(), est.distance(i as u32).to_bits());
            }
        }
    }
}
