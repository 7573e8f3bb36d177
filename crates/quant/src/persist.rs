//! Binary persistence for trained quantizers.
//!
//! A trained compressor is a rotation (optional) plus a codebook; both
//! serialise to a compact little-endian format so an index can be trained
//! once and shipped. The format is self-describing enough to reject
//! truncated or foreign files.

use std::io::{self, Read, Write};

use rpq_linalg::Matrix;

use crate::codebook::Codebook;
use crate::opq::OptimizedProductQuantizer;
use crate::pq::ProductQuantizer;

const CODEBOOK_MAGIC: &[u8; 4] = b"RPQC";
const ROTATED_MAGIC: &[u8; 4] = b"RPQR";

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn write_f32s(w: &mut impl Write, data: &[f32]) -> io::Result<()> {
    for &v in data {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_f32s(r: &mut impl Read, n: usize) -> io::Result<Vec<f32>> {
    let mut out = Vec::with_capacity(n);
    let mut b = [0u8; 4];
    for _ in 0..n {
        r.read_exact(&mut b)?;
        out.push(f32::from_le_bytes(b));
    }
    Ok(out)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Writes a codebook: magic, m, k, dsub, codewords — row-major
/// `[m][k][dsub]` on disk, whatever the in-memory layout.
pub fn write_codebook(w: &mut impl Write, cb: &Codebook) -> io::Result<()> {
    w.write_all(CODEBOOK_MAGIC)?;
    write_u32(w, cb.m() as u32)?;
    write_u32(w, cb.k() as u32)?;
    write_u32(w, cb.dsub() as u32)?;
    for j in 0..cb.m() {
        write_f32s(w, &cb.sub_codebook_rows(j))?;
    }
    Ok(())
}

/// Reads a codebook written by [`write_codebook`].
pub fn read_codebook(r: &mut impl Read) -> io::Result<Codebook> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != CODEBOOK_MAGIC {
        return Err(bad("not a codebook file"));
    }
    let m = read_u32(r)? as usize;
    let k = read_u32(r)? as usize;
    let dsub = read_u32(r)? as usize;
    if m == 0 || k == 0 || k > 256 || dsub == 0 || m * k * dsub > (1 << 30) {
        return Err(bad("implausible codebook header"));
    }
    let codewords = read_f32s(r, m * k * dsub)?;
    if codewords.iter().any(|v| !v.is_finite()) {
        return Err(bad("non-finite codeword"));
    }
    Ok(Codebook::new(m, k, dsub, codewords))
}

/// Writes a rotated PQ (OPQ or an exported RPQ): magic, dim, rotation,
/// codebook.
pub fn write_rotated_pq(w: &mut impl Write, q: &OptimizedProductQuantizer) -> io::Result<()> {
    w.write_all(ROTATED_MAGIC)?;
    let rot = q.rotation();
    write_u32(w, rot.rows as u32)?;
    write_f32s(w, &rot.data)?;
    write_codebook(w, q.pq().codebook())
}

/// Reads a rotated PQ written by [`write_rotated_pq`]. `train_seconds`
/// metadata is not persisted (reports come from training runs, not loads).
pub fn read_rotated_pq(r: &mut impl Read) -> io::Result<OptimizedProductQuantizer> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != ROTATED_MAGIC {
        return Err(bad("not a rotated-pq file"));
    }
    let d = read_u32(r)? as usize;
    if d == 0 || d > (1 << 16) {
        return Err(bad("implausible dimension"));
    }
    let rot = Matrix::from_vec(d, d, read_f32s(r, d * d)?);
    let cb = read_codebook(r)?;
    if cb.dim() != d {
        return Err(bad("rotation/codebook dimension mismatch"));
    }
    Ok(OptimizedProductQuantizer::from_parts(
        rot,
        ProductQuantizer::from_codebook(cb, 0.0),
        0.0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::VectorCompressor;
    use crate::pq::PqConfig;
    use rpq_data::synth::{SynthConfig, ValueTransform};
    use rpq_data::Dataset;

    fn toy(n: usize, seed: u64) -> Dataset {
        SynthConfig {
            dim: 16,
            intrinsic_dim: 6,
            clusters: 6,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(n, seed)
    }

    #[test]
    fn codebook_roundtrip() {
        let data = toy(300, 1);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &data,
        );
        let mut buf = Vec::new();
        write_codebook(&mut buf, pq.codebook()).unwrap();
        let back = read_codebook(&mut buf.as_slice()).unwrap();
        assert_eq!(&back, pq.codebook());
    }

    #[test]
    fn codebook_file_is_row_major() {
        // K = 5 leaves a column the four-wide kernels do not cover.
        let (m, k, dsub) = (2usize, 5usize, 3usize);
        let rows: Vec<f32> = (0..m * k * dsub).map(|i| i as f32 * 0.5 - 3.0).collect();
        let cb = Codebook::new(m, k, dsub, rows.clone());
        let mut buf = Vec::new();
        write_codebook(&mut buf, &cb).unwrap();
        let mut want = b"RPQC".to_vec();
        for v in [m, k, dsub] {
            want.extend_from_slice(&(v as u32).to_le_bytes());
        }
        for v in &rows {
            want.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(buf, want, "codewords are written [m][k][dsub]");
        assert_eq!(read_codebook(&mut buf.as_slice()).unwrap(), cb);
    }

    #[test]
    fn rotated_pq_roundtrip_preserves_behaviour() {
        let data = toy(300, 2);
        let opq = OptimizedProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &data,
        );
        let mut buf = Vec::new();
        write_rotated_pq(&mut buf, &opq).unwrap();
        let back = read_rotated_pq(&mut buf.as_slice()).unwrap();
        // Identical codes and identical ADC distances.
        let codes_a = opq.encode_dataset(&data);
        let codes_b = back.encode_dataset(&data);
        assert_eq!(codes_a, codes_b);
        let q = data.get(0);
        let lut_a = opq.lookup_table(q);
        let lut_b = back.lookup_table(q);
        for i in (0..300).step_by(31) {
            assert_eq!(
                lut_a.distance(codes_a.code(i)),
                lut_b.distance(codes_b.code(i))
            );
        }
    }

    #[test]
    fn truncated_files_rejected() {
        let data = toy(100, 3);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 2,
                k: 8,
                ..Default::default()
            },
            &data,
        );
        let mut buf = Vec::new();
        write_codebook(&mut buf, pq.codebook()).unwrap();
        for cut in [1usize, 5, buf.len() / 2] {
            let mut short = buf.clone();
            short.truncate(buf.len() - cut);
            assert!(read_codebook(&mut short.as_slice()).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(read_codebook(&mut &b"NOPE0000"[..]).is_err());
        assert!(read_rotated_pq(&mut &b"RPQC"[..]).is_err());
    }
}
