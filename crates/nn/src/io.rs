//! Compact binary serialization for trained models.
//!
//! Training in this workspace is fast, but production use should not
//! retrain per process: [`BytesSerialize`] round-trips every trained
//! component (matrices, layers, MLPs, embedding tables — and, in dependent
//! crates, the encoders, segmentation model, and reranker) through a
//! little-endian length-prefixed format.
//!
//! Reading goes through [`Reader`], a cursor over a borrowed slice whose
//! every method returns `Option`: a read past the end is `None`, so a
//! decoder is a chain of `?` with no bounds check of its own to forget.
//! Writing appends to a plain `Vec<u8>` (`put_*`).
//!
//! Optimizer state and forward caches are deliberately *not* persisted —
//! a loaded model is an inference artifact; resuming training restarts
//! Adam's moments from zero (standard practice for small models).

use crate::layer::{Activation, Linear};
use crate::matrix::Matrix;
use crate::mlp::Mlp;
use crate::EmbeddingTable;

/// Checked little-endian cursor over a blob.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Cursor at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n)?;
        self.rest = rest;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk::<N>()?;
        self.rest = rest;
        Some(*head)
    }

    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(|[b]| b)
    }

    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    pub fn f32(&mut self) -> Option<f32> {
        self.array().map(f32::from_le_bytes)
    }

    /// Consume an 8-byte format tag; `None` unless it is `magic`.
    pub fn magic(&mut self, magic: &[u8; 8]) -> Option<()> {
        (self.array::<8>()? == *magic).then_some(())
    }

    /// A `u32` item count from an untrusted blob, accepted only when that
    /// many items of at least `min_item_bytes` each still fit in what is
    /// left — so a flipped count is rejected before it sizes an allocation.
    pub fn count(&mut self, min_item_bytes: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (n.checked_mul(min_item_bytes)? <= self.rest.len()).then_some(n)
    }

    /// `n` consecutive `f32`s.
    pub fn f32s(&mut self, n: usize) -> Option<Vec<f32>> {
        let raw = self.take(n.checked_mul(4)?)?;
        Some(raw.as_chunks::<4>().0.iter().map(|b| f32::from_le_bytes(*b)).collect())
    }

    /// A length-prefixed `f32` vector ([`put_f32_slice`]).
    pub fn f32_vec(&mut self) -> Option<Vec<f32>> {
        let n = self.count(4)?;
        self.f32s(n)
    }

    /// A length-prefixed run of bytes: a nested blob, or a string's.
    pub fn blob(&mut self) -> Option<&'a [u8]> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string ([`put_string`]).
    pub fn string(&mut self) -> Option<String> {
        String::from_utf8(self.blob()?.to_vec()).ok()
    }

    /// `Some` only when the blob has been consumed to its last byte.
    pub fn finish(self) -> Option<()> {
        self.rest.is_empty().then_some(())
    }
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Write a length-prefixed `f32` slice.
pub fn put_f32_slice(buf: &mut Vec<u8>, data: &[f32]) {
    put_u32(buf, data.len() as u32);
    for &v in data {
        put_f32(buf, v);
    }
}

/// Write a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Round-trip binary serialization.
pub trait BytesSerialize: Sized {
    /// Append this value to `buf`.
    fn write(&self, buf: &mut Vec<u8>);

    /// Read a value from the front of `r`; `None` on malformed input.
    fn read(r: &mut Reader<'_>) -> Option<Self>;

    /// Serialize to a standalone blob.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write(&mut buf);
        buf
    }

    /// Deserialize a standalone blob (must be fully consumed).
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let v = Self::read(&mut r)?;
        r.finish()?;
        Some(v)
    }
}

impl BytesSerialize for Matrix {
    fn write(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.rows() as u32);
        put_u32(buf, self.cols() as u32);
        put_f32_slice(buf, self.data());
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        let data = r.f32_vec()?;
        if data.len() != rows.checked_mul(cols)? {
            return None;
        }
        Some(Matrix::from_vec(rows, cols, data))
    }
}

impl BytesSerialize for Activation {
    fn write(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            Activation::Identity => 0,
            Activation::Relu => 1,
            Activation::Tanh => 2,
            Activation::Sigmoid => 3,
        });
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(Activation::Identity),
            1 => Some(Activation::Relu),
            2 => Some(Activation::Tanh),
            3 => Some(Activation::Sigmoid),
            _ => None,
        }
    }
}

impl BytesSerialize for Linear {
    fn write(&self, buf: &mut Vec<u8>) {
        self.activation().write(buf);
        self.weights().write(buf);
        put_f32_slice(buf, self.bias());
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let act = Activation::read(r)?;
        let w = Matrix::read(r)?;
        let b = r.f32_vec()?;
        Linear::from_parts(w, b, act)
    }
}

impl BytesSerialize for Mlp {
    fn write(&self, buf: &mut Vec<u8>) {
        let layers = self.layers();
        buf.push(layers.len() as u8);
        for layer in layers {
            layer.write(buf);
        }
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.u8()? as usize;
        if n == 0 {
            return None;
        }
        let mut layers = Vec::with_capacity(n);
        for _ in 0..n {
            layers.push(Linear::read(r)?);
        }
        Mlp::from_layers(layers)
    }
}

impl BytesSerialize for EmbeddingTable {
    fn write(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.buckets() as u32);
        put_u32(buf, self.dim() as u32);
        put_f32_slice(buf, self.rows_flat());
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let buckets = r.u32()? as usize;
        let dim = r.u32()? as usize;
        let rows = r.f32_vec()?;
        EmbeddingTable::from_parts(buckets, dim, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_roundtrip() {
        let m = Matrix::xavier(4, 3, 7);
        let back = Matrix::from_bytes(&m.to_bytes()).expect("roundtrip");
        assert_eq!(m, back);
    }

    #[test]
    fn mlp_roundtrip_preserves_inference() {
        let mlp = Mlp::new(&[6, 5, 2], Activation::Tanh, Activation::Sigmoid, 3);
        let back = Mlp::from_bytes(&mlp.to_bytes()).expect("roundtrip");
        let x = Matrix::xavier(2, 6, 9);
        assert_eq!(mlp.infer(&x), back.infer(&x));
    }

    #[test]
    fn embedding_table_roundtrip() {
        let t = EmbeddingTable::new(16, 4, 5);
        let back = EmbeddingTable::from_bytes(&t.to_bytes()).expect("roundtrip");
        assert_eq!(t.row(7), back.row(7));
        assert_eq!(t.buckets(), back.buckets());
    }

    #[test]
    fn loaded_model_is_trainable() {
        // Optimizer state is reset, but training must still work.
        let mlp = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Sigmoid, 1);
        let mut back = Mlp::from_bytes(&mlp.to_bytes()).unwrap();
        let x = Matrix::from_vec(1, 2, vec![0.3, -0.2]);
        let y = Matrix::from_vec(1, 1, vec![1.0]);
        let (first, _) = back.train_batch_mse(&x, &y, 0.05);
        let mut last = first;
        for _ in 0..50 {
            (last, _) = back.train_batch_mse(&x, &y, 0.05);
        }
        assert!(last < first);
    }

    #[test]
    fn malformed_input_rejected() {
        assert!(Matrix::from_bytes(b"garbage").is_none());
        assert!(Mlp::from_bytes(b"").is_none());
        // Trailing bytes are an error.
        let mut buf = Matrix::xavier(2, 2, 0).to_bytes();
        buf.push(0xFF);
        assert!(Matrix::from_bytes(&buf).is_none());
    }

    #[test]
    fn string_helpers_roundtrip() {
        let mut buf = Vec::new();
        put_string(&mut buf, "héllo wörld");
        put_string(&mut buf, "");
        let mut r = Reader::new(&buf);
        assert_eq!(r.string().as_deref(), Some("héllo wörld"));
        assert_eq!(r.string().as_deref(), Some(""));
        assert!(r.string().is_none());
    }

    #[test]
    fn a_failed_read_consumes_nothing_and_counts_are_bounded_by_what_is_left() {
        let mut r = Reader::new(&[7, 0, 0]);
        assert_eq!(r.u32(), None);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.take(3), None);
        assert_eq!(r.take(2), Some(&[0u8, 0][..]));
        assert_eq!(r.finish(), Some(()));
        // count = 2 with 8 bytes behind it: two 4-byte items fit, two
        // 5-byte items do not; u32::MAX items of any size never do.
        let blob = [2, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2];
        assert_eq!(Reader::new(&blob).count(4), Some(2));
        assert_eq!(Reader::new(&blob).count(5), None);
        assert_eq!(Reader::new(&[0xFF; 12]).count(1), None);
        assert_eq!(Reader::new(&[0xFF; 12]).f32_vec(), None);
        assert_eq!(Reader::new(&[0xFF; 12]).f32s(usize::MAX), None);
        assert_eq!(Reader::new(b"SAGEMDL1x").magic(b"SAGEMDL1"), Some(()));
        assert_eq!(Reader::new(b"SAGEMDL").magic(b"SAGEMDL1"), None);
        assert_eq!(Reader::new(b"SAGESYS1").magic(b"SAGEMDL1"), None);
    }
}
