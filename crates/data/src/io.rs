//! Reader and writer for the TEXMEX `fvecs` vector format used by SIFT1M,
//! GIST1M and Deep.
//!
//! Format: each vector is `[d: i32 little-endian][d f32 little-endian]`. The
//! reader validates the header against the file length and returns a
//! descriptive error instead of panicking — the paper's datasets are
//! multi-GB downloads and truncation is a real failure mode.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::dataset::Dataset;

/// Errors from vector-file parsing.
#[derive(Debug)]
pub enum VecsError {
    Io(io::Error),
    /// The file ended in the middle of a vector record.
    Truncated {
        offset: usize,
    },
    /// A vector header declared an implausible dimension.
    BadDimension {
        dim: i32,
        offset: usize,
    },
    /// Vectors in one file must share a dimension.
    MixedDimensions {
        first: usize,
        got: usize,
        offset: usize,
    },
}

impl std::fmt::Display for VecsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VecsError::Io(e) => write!(f, "i/o error: {e}"),
            VecsError::Truncated { offset } => write!(f, "truncated record at byte {offset}"),
            VecsError::BadDimension { dim, offset } => {
                write!(f, "implausible dimension {dim} at byte {offset}")
            }
            VecsError::MixedDimensions { first, got, offset } => {
                write!(
                    f,
                    "mixed dimensions: first {first}, then {got} at byte {offset}"
                )
            }
        }
    }
}

impl std::error::Error for VecsError {}

impl From<io::Error> for VecsError {
    fn from(e: io::Error) -> Self {
        VecsError::Io(e)
    }
}

const MAX_DIM: i32 = 1 << 20;

/// Reads an `fvecs` file (optionally only the first `limit` vectors).
pub fn read_fvecs(path: impl AsRef<Path>, limit: Option<usize>) -> Result<Dataset, VecsError> {
    let mut bytes = Vec::new();
    BufReader::new(File::open(path)?).read_to_end(&mut bytes)?;
    parse_fvecs_bytes(&bytes, limit)
}

/// Parses `fvecs` from an in-memory buffer.
pub fn parse_fvecs_bytes(bytes: &[u8], limit: Option<usize>) -> Result<Dataset, VecsError> {
    let mut offset = 0usize;
    let mut dim: Option<usize> = None;
    let mut data: Vec<f32> = Vec::new();
    let mut count = 0usize;
    while offset < bytes.len() {
        if let Some(l) = limit {
            if count >= l {
                break;
            }
        }
        if offset + 4 > bytes.len() {
            return Err(VecsError::Truncated { offset });
        }
        let d = i32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        if d <= 0 || d > MAX_DIM {
            return Err(VecsError::BadDimension { dim: d, offset });
        }
        let d = d as usize;
        match dim {
            None => dim = Some(d),
            Some(first) if first != d => {
                return Err(VecsError::MixedDimensions {
                    first,
                    got: d,
                    offset,
                })
            }
            _ => {}
        }
        offset += 4;
        let payload = d * 4;
        if offset + payload > bytes.len() {
            return Err(VecsError::Truncated { offset });
        }
        for chunk in bytes[offset..offset + payload].chunks_exact(4) {
            data.push(f32::from_le_bytes(chunk.try_into().unwrap()));
        }
        offset += payload;
        count += 1;
    }
    let dim = dim.unwrap_or(1);
    Ok(Dataset::from_flat(dim.max(1), data))
}

/// Writes a dataset as `fvecs`.
pub fn write_fvecs(path: impl AsRef<Path>, ds: &Dataset) -> Result<(), VecsError> {
    let mut w = BufWriter::new(File::create(path)?);
    let dim = ds.dim() as i32;
    for v in ds.iter() {
        w.write_all(&dim.to_le_bytes())?;
        for &x in v {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        let mut d = Dataset::new(3);
        d.push(&[1.0, -2.5, 3.25]);
        d.push(&[0.0, 7.0, -1.0]);
        d
    }

    /// Writes the sample to a file of this process's own, reads it back
    /// with `limit` and removes the file before the caller asserts.
    fn roundtrip(tag: &str, limit: Option<usize>) -> Dataset {
        let name = format!("rpq-io-test-{}-{tag}.fvecs", std::process::id());
        let path = std::env::temp_dir().join(name);
        write_fvecs(&path, &sample_dataset()).unwrap();
        let back = read_fvecs(&path, limit);
        std::fs::remove_file(&path).unwrap();
        back.unwrap()
    }

    #[test]
    fn fvecs_roundtrip() {
        assert_eq!(roundtrip("sample", None), sample_dataset());
    }

    #[test]
    fn fvecs_limit() {
        assert_eq!(roundtrip("limit", Some(1)).len(), 1);
    }

    #[test]
    fn truncated_file_is_an_error() {
        let ds = sample_dataset();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(3i32).to_le_bytes());
        for &x in ds.get(0) {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        bytes.truncate(bytes.len() - 2); // chop mid-float
        match parse_fvecs_bytes(&bytes, None) {
            Err(VecsError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn negative_dimension_is_an_error() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(-5i32).to_le_bytes());
        match parse_fvecs_bytes(&bytes, None) {
            Err(VecsError::BadDimension { dim: -5, .. }) => {}
            other => panic!("expected BadDimension, got {other:?}"),
        }
    }

    #[test]
    fn mixed_dimensions_is_an_error() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(1i32).to_le_bytes());
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        bytes.extend_from_slice(&(2i32).to_le_bytes());
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        bytes.extend_from_slice(&2.0f32.to_le_bytes());
        match parse_fvecs_bytes(&bytes, None) {
            Err(VecsError::MixedDimensions {
                first: 1, got: 2, ..
            }) => {}
            other => panic!("expected MixedDimensions, got {other:?}"),
        }
    }

    #[test]
    fn empty_buffer_gives_empty_dataset() {
        let ds = parse_fvecs_bytes(&[], None).unwrap();
        assert!(ds.is_empty());
    }

    #[test]
    fn missing_file_is_io_error() {
        match read_fvecs("/nonexistent/definitely/not/here.fvecs", None) {
            Err(VecsError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
