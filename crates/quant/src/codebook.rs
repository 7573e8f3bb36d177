//! Codebooks, compact codes and distance lookup tables (paper §2.1).
//!
//! A codebook holds `M` sub-codebooks of `K` codewords each; a vector is
//! encoded as `M` codeword ids (one byte per id for K ≤ 256, the paper's
//! setting). At query time, a per-query **ADC lookup table** caches
//! `δ(q_j, c_jk)` for every sub-codeword, making each estimated distance a
//! sum of `M` table reads — the hot loop of PQ-integrated search.

use rpq_data::Dataset;
use rpq_linalg::distance::{nearest_column, sq_l2_columns, to_columns};

/// Product codebook: `m` sub-codebooks × `k` codewords × `dsub` dims.
#[derive(Clone, Debug, PartialEq)]
pub struct Codebook {
    m: usize,
    k: usize,
    dsub: usize,
    /// Flat dimension-major layout `[m][dsub][k]`: coordinate `d` of
    /// codeword `ki` in chunk `j` is at `(j * dsub + d) * k + ki`, so the
    /// column kernels' inner loop runs over `k`.
    codewords: Vec<f32>,
}

impl Codebook {
    /// Assembles a codebook from a flat **row-major** buffer `[m][k][dsub]`
    /// (length must be `m*k*dsub`), transposed once into the
    /// dimension-major storage.
    pub fn new(m: usize, k: usize, dsub: usize, rows: Vec<f32>) -> Self {
        assert!(m > 0 && k > 0 && dsub > 0, "codebook dims must be positive");
        assert!(
            k <= 256,
            "compact codes are one byte: K must be <= 256, got {k}"
        );
        assert_eq!(rows.len(), m * k * dsub, "codeword buffer size mismatch");
        let mut codewords = vec![0.0f32; rows.len()];
        for (sub, cols) in rows
            .chunks_exact(k * dsub)
            .zip(codewords.chunks_exact_mut(k * dsub))
        {
            to_columns(sub, dsub, cols);
        }
        Self {
            m,
            k,
            dsub,
            codewords,
        }
    }

    /// Number of chunks M.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Codewords per sub-codebook K.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Sub-vector dimensionality D/M.
    #[inline]
    pub fn dsub(&self) -> usize {
        self.dsub
    }

    /// Full vector dimensionality D.
    #[inline]
    pub fn dim(&self) -> usize {
        self.m * self.dsub
    }

    /// Gathers the `ki`-th codeword of sub-codebook `j` into `out`
    /// (`dsub` floats).
    #[inline]
    pub fn codeword(&self, j: usize, ki: usize, out: &mut [f32]) {
        debug_assert!(j < self.m && ki < self.k);
        debug_assert_eq!(out.len(), self.dsub);
        for (o, &v) in out
            .iter_mut()
            .zip(self.sub_codebook(j)[ki..].iter().step_by(self.k))
        {
            *o = v;
        }
    }

    /// Sub-codebook `j` in its dimension-major storage: a flat `dsub × k`
    /// slice whose element `d * k + ki` is coordinate `d` of codeword `ki`.
    fn sub_codebook(&self, j: usize) -> &[f32] {
        let len = self.k * self.dsub;
        &self.codewords[j * len..(j + 1) * len]
    }

    /// Sub-codebook `j` as row-major `k × dsub` rows (one codeword per
    /// row) — the layout of [`Codebook::new`]'s input and of the `RPQC`
    /// file.
    pub fn sub_codebook_rows(&self, j: usize) -> Vec<f32> {
        let mut rows = vec![0.0f32; self.k * self.dsub];
        for (ki, row) in rows.chunks_exact_mut(self.dsub).enumerate() {
            self.codeword(j, ki, row);
        }
        rows
    }

    /// Encodes one (already decomposed/rotated) vector: nearest codeword id
    /// per chunk (the Lloyd quantizer's argmin).
    pub fn encode_one(&self, v: &[f32], out: &mut [u8]) {
        assert_eq!(v.len(), self.dim(), "vector dim mismatch");
        assert_eq!(out.len(), self.m, "code buffer size mismatch");
        for (j, (code, sub)) in out.iter_mut().zip(v.chunks_exact(self.dsub)).enumerate() {
            *code = nearest_column(sub, self.sub_codebook(j), self.k).0 as u8;
        }
    }

    /// Reconstructs the quantized vector `x' = C(Q(x))` for a code.
    pub fn decode(&self, code: &[u8], out: &mut [f32]) {
        assert_eq!(code.len(), self.m, "code length mismatch");
        assert_eq!(out.len(), self.dim(), "output buffer size mismatch");
        for (j, (&c, sub)) in code.iter().zip(out.chunks_exact_mut(self.dsub)).enumerate() {
            self.codeword(j, c as usize, sub);
        }
    }

    /// Builds the per-query ADC lookup table: `table[j][ki] = δ(q_j, c_jk)`.
    pub fn lookup_table(&self, query: &[f32]) -> LookupTable {
        assert_eq!(query.len(), self.dim(), "query dim mismatch");
        let mut table = vec![0.0f32; self.m * self.k];
        for (j, (row, sub)) in table
            .chunks_exact_mut(self.k)
            .zip(query.chunks_exact(self.dsub))
            .enumerate()
        {
            sq_l2_columns(sub, self.sub_codebook(j), row);
        }
        LookupTable {
            m: self.m,
            k: self.k,
            table,
        }
    }

    /// Builds the SDC (symmetric) table: `table[j][a][b] = δ(c_ja, c_jb)`.
    pub fn sdc_table(&self) -> SdcTable {
        let mut table = vec![0.0f32; self.m * self.k * self.k];
        let mut word = vec![0.0f32; self.dsub];
        for (j, block) in table.chunks_exact_mut(self.k * self.k).enumerate() {
            for (a, row) in block.chunks_exact_mut(self.k).enumerate() {
                self.codeword(j, a, &mut word);
                sq_l2_columns(&word, self.sub_codebook(j), row);
            }
        }
        SdcTable {
            m: self.m,
            k: self.k,
            table,
        }
    }

    /// Bytes used by the codeword storage (the in-memory model budget the
    /// paper's Table 5 accounts).
    pub fn memory_bytes(&self) -> usize {
        self.codewords.len() * std::mem::size_of::<f32>()
    }
}

/// Compact codes for a dataset: `n` codes of `m` bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct CompactCodes {
    n: usize,
    m: usize,
    codes: Vec<u8>,
}

impl CompactCodes {
    pub fn new(n: usize, m: usize, codes: Vec<u8>) -> Self {
        assert_eq!(codes.len(), n * m, "code buffer size mismatch");
        Self { n, m, codes }
    }

    /// A code store with no vectors yet — the starting state of a streaming
    /// index (DESIGN.md §8), grown by [`CompactCodes::push`].
    pub fn empty(m: usize) -> Self {
        assert!(m > 0, "chunk count must be positive");
        Self {
            n: 0,
            m,
            codes: Vec::new(),
        }
    }

    /// Appends one code; its id is the previous [`CompactCodes::len`].
    pub fn push(&mut self, code: &[u8]) {
        assert_eq!(code.len(), self.m, "code length mismatch");
        self.codes.extend_from_slice(code);
        self.n += 1;
    }

    /// Gathers the codes of `survivors` (in the given order) into a fresh
    /// store — the code-side half of a consolidation pass, mirroring the
    /// graph's id compaction.
    pub fn compact(&self, survivors: &[u32]) -> CompactCodes {
        let mut codes = Vec::with_capacity(survivors.len() * self.m);
        for &i in survivors {
            codes.extend_from_slice(self.code(i as usize));
        }
        CompactCodes::new(survivors.len(), self.m, codes)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The code of vector `i`.
    #[inline]
    pub fn code(&self, i: usize) -> &[u8] {
        debug_assert!(
            i < self.n,
            "code id {i} out of range: the store holds {} codes",
            self.n
        );
        &self.codes[i * self.m..(i + 1) * self.m]
    }

    /// In-memory footprint in bytes — what replaces the full vectors in the
    /// paper's memory accounting.
    pub fn memory_bytes(&self) -> usize {
        self.codes.len()
    }
}

/// Per-query ADC lookup table (`m × k` distances).
#[derive(Clone, Debug)]
pub struct LookupTable {
    m: usize,
    k: usize,
    table: Vec<f32>,
}

impl LookupTable {
    /// Estimated distance `δ(x', q) = Σ_j table[j][code[j]]` — the ADC inner
    /// loop, unrolled four-wide.
    #[inline]
    pub fn distance(&self, code: &[u8]) -> f32 {
        debug_assert_eq!(code.len(), self.m);
        let k = self.k;
        let mut acc = 0.0f32;
        let mut j = 0;
        let chunks = self.m / 4;
        for c4 in code.chunks_exact(4).take(chunks) {
            acc += self.table[j * k + c4[0] as usize]
                + self.table[(j + 1) * k + c4[1] as usize]
                + self.table[(j + 2) * k + c4[2] as usize]
                + self.table[(j + 3) * k + c4[3] as usize];
            j += 4;
        }
        for &c in &code[j..] {
            acc += self.table[j * k + c as usize];
            j += 1;
        }
        acc
    }

    pub fn m(&self) -> usize {
        self.m
    }

    /// Codewords per sub-codebook (the table's row width).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The flat `m × k` table, row-major by chunk — what the batched SoA
    /// kernel ([`crate::soa`]) reads.
    pub fn values(&self) -> &[f32] {
        &self.table
    }

    pub fn memory_bytes(&self) -> usize {
        self.table.len() * 4
    }
}

/// Symmetric (code-to-code) distance table.
#[derive(Clone, Debug)]
pub struct SdcTable {
    m: usize,
    k: usize,
    table: Vec<f32>,
}

impl SdcTable {
    /// Estimated distance between two codes.
    pub fn distance(&self, a: &[u8], b: &[u8]) -> f32 {
        debug_assert_eq!(a.len(), self.m);
        debug_assert_eq!(b.len(), self.m);
        let mut acc = 0.0;
        for j in 0..self.m {
            acc += self.table[(j * self.k + a[j] as usize) * self.k + b[j] as usize];
        }
        acc
    }
}

/// Encodes a whole (already rotated/projected) dataset with a codebook.
pub fn encode_dataset_with(codebook: &Codebook, data: &Dataset) -> CompactCodes {
    use rayon::prelude::*;
    assert_eq!(data.dim(), codebook.dim(), "dataset dim mismatch");
    let n = data.len();
    let m = codebook.m();
    let mut codes = vec![0u8; n * m];
    codes.par_chunks_mut(m).enumerate().for_each(|(i, chunk)| {
        codebook.encode_one(data.get(i), chunk);
    });
    CompactCodes::new(n, m, codes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_linalg::distance::sq_l2;

    /// 1-D sub-spaces, 2 chunks, 2 codewords each: codewords at {0,10} and
    /// {0,100}.
    fn tiny_codebook() -> Codebook {
        Codebook::new(2, 2, 1, vec![0.0, 10.0, 0.0, 100.0])
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cb = tiny_codebook();
        let v = [9.0f32, 2.0];
        let mut code = [0u8; 2];
        cb.encode_one(&v, &mut code);
        assert_eq!(code, [1, 0]);
        let mut out = [0.0f32; 2];
        cb.decode(&code, &mut out);
        assert_eq!(out, [10.0, 0.0]);
    }

    #[test]
    fn adc_matches_decoded_distance() {
        let cb = tiny_codebook();
        let q = [3.0f32, 40.0];
        let lut = cb.lookup_table(&q);
        for code in [[0u8, 0], [0, 1], [1, 0], [1, 1]] {
            let mut rec = [0.0f32; 2];
            cb.decode(&code, &mut rec);
            let expect = sq_l2(&q, &rec);
            let got = lut.distance(&code);
            assert!((got - expect).abs() < 1e-5, "{got} vs {expect}");
        }
    }

    #[test]
    fn sdc_matches_decoded_distance() {
        let cb = tiny_codebook();
        let sdc = cb.sdc_table();
        let (a, b) = ([1u8, 0], [0u8, 1]);
        let mut ra = [0.0f32; 2];
        let mut rb = [0.0f32; 2];
        cb.decode(&a, &mut ra);
        cb.decode(&b, &mut rb);
        assert!((sdc.distance(&a, &b) - sq_l2(&ra, &rb)).abs() < 1e-5);
    }

    #[test]
    fn lookup_distance_handles_odd_m() {
        // m = 5 exercises the unroll tail.
        let cb = Codebook::new(
            5,
            2,
            1,
            vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
        );
        let q = [0.5f32; 5];
        let lut = cb.lookup_table(&q);
        let code = [1u8, 0, 1, 0, 1];
        assert!((lut.distance(&code) - 5.0 * 0.25).abs() < 1e-6);
    }

    #[test]
    fn encode_dataset_parallel_matches_serial() {
        let cb = tiny_codebook();
        let mut ds = Dataset::new(2);
        for i in 0..10 {
            ds.push(&[i as f32, (i * 20) as f32]);
        }
        let codes = encode_dataset_with(&cb, &ds);
        for i in 0..10 {
            let mut expect = [0u8; 2];
            cb.encode_one(ds.get(i), &mut expect);
            assert_eq!(codes.code(i), &expect);
        }
    }

    #[test]
    #[should_panic(expected = "K must be <= 256")]
    fn oversized_k_rejected() {
        let _ = Codebook::new(1, 300, 1, vec![0.0; 300]);
    }

    #[test]
    fn push_and_compact() {
        let mut codes = CompactCodes::empty(2);
        assert!(codes.is_empty());
        for i in 0..5u8 {
            codes.push(&[i, i + 1]);
        }
        assert_eq!(codes.len(), 5);
        assert_eq!(codes.code(3), &[3, 4]);
        let kept = codes.compact(&[0, 2, 4]);
        assert_eq!(kept.len(), 3);
        assert_eq!(kept.code(0), &[0, 1]);
        assert_eq!(kept.code(1), &[2, 3]);
        assert_eq!(kept.code(2), &[4, 5]);
    }

    #[test]
    fn memory_accounting() {
        let cb = tiny_codebook();
        assert_eq!(cb.memory_bytes(), 4 * 4);
        let codes = CompactCodes::new(3, 2, vec![0; 6]);
        assert_eq!(codes.memory_bytes(), 6);
    }
}
