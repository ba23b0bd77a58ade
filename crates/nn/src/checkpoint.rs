//! Binary checkpointing for [`ParamStore`].
//!
//! No serde *format* crate is in the approved dependency set, so model
//! weights are stored in a small self-describing little-endian binary
//! layout: magic, version, optimizer step, then per parameter its shape
//! and three tensors (value, Adam m, Adam v).
//!
//! A store that is only ever read through `forward` (a frozen target
//! network) has no live optimizer state; [`ParamStore::values_to_bytes`]
//! stores just its shapes and values under a distinct magic.
//!
//! Both decoders are total: every length is checked against the bytes
//! that remain *before* anything is allocated, so corrupt input returns
//! an error and never panics or attempts a huge allocation.

use crate::param::ParamStore;
use crate::tensor::Tensor;
use std::error::Error;
use std::fmt;

const MAGIC: &[u8; 8] = b"CVNNCKP1";
const VALUES_MAGIC: &[u8; 8] = b"CVNNVAL1";

/// Errors from checkpoint decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream does not start with the expected magic/version.
    BadMagic,
    /// The byte stream ended prematurely or has inconsistent lengths.
    Truncated,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a cv-nn checkpoint (bad magic)"),
            CheckpointError::Truncated => write!(f, "checkpoint data truncated or inconsistent"),
        }
    }
}

impl Error for CheckpointError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if n > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// A count of items that each occupy at least `min_item_bytes` of
    /// what remains — so a forged count can never size an allocation
    /// beyond the input.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, CheckpointError> {
        let n = usize::try_from(self.u64()?).map_err(|_| CheckpointError::Truncated)?;
        match n.checked_mul(min_item_bytes) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(CheckpointError::Truncated),
        }
    }

    /// A rank-prefixed shape, whose `tensors` tensors of f32s must fit
    /// in the bytes that remain after it.
    fn shape(&mut self, tensors: usize) -> Result<Vec<usize>, CheckpointError> {
        let rank = self.count(8)?;
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(usize::try_from(self.u64()?).map_err(|_| CheckpointError::Truncated)?);
        }
        let bytes = shape
            .iter()
            .try_fold(4 * tensors, |acc, &d| acc.checked_mul(d))
            .ok_or(CheckpointError::Truncated)?;
        if bytes > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        Ok(shape)
    }

    fn tensor(&mut self, shape: &[usize]) -> Result<Tensor, CheckpointError> {
        let numel: usize = shape.iter().product();
        let b = self.take(numel * 4)?;
        let data = b
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        Ok(Tensor::new(shape.to_vec(), data))
    }

    fn magic(&mut self, magic: &[u8; 8]) -> Result<(), CheckpointError> {
        if self.take(8)? == magic {
            Ok(())
        } else {
            Err(CheckpointError::BadMagic)
        }
    }

    fn finish(&self) -> Result<(), CheckpointError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CheckpointError::Truncated)
        }
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    for &x in t.data() {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_shape(out: &mut Vec<u8>, t: &Tensor) {
    put_u64(out, t.shape().len() as u64);
    for &d in t.shape() {
        put_u64(out, d as u64);
    }
}

impl ParamStore {
    /// Serializes the store (values and Adam state) to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, self.steps());
        put_u64(&mut out, self.len() as u64);
        for i in 0..self.len() {
            let (value, m, v) = self.raw_parts(i);
            put_shape(&mut out, value);
            put_tensor(&mut out, value);
            put_tensor(&mut out, m);
            put_tensor(&mut out, v);
        }
        out
    }

    /// Restores a store from bytes produced by [`ParamStore::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] for wrong magic or truncated or
    /// inconsistent data.
    pub fn from_bytes(bytes: &[u8]) -> Result<ParamStore, CheckpointError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        r.magic(MAGIC)?;
        let steps = r.u64()?;
        // Every parameter carries at least its 8-byte rank.
        let count = r.count(8)?;
        let mut restored = Vec::with_capacity(count);
        for _ in 0..count {
            let shape = r.shape(3)?;
            let value = r.tensor(&shape)?;
            let m = r.tensor(&shape)?;
            let v = r.tensor(&shape)?;
            restored.push((value, m, v));
        }
        r.finish()?;
        let mut store = ParamStore::new();
        store.restore(steps, restored);
        Ok(store)
    }

    /// Serializes only the parameter values — for a store whose Adam
    /// moments and step count are never read, such as a target network
    /// that is only run forward and replaced wholesale at each sync.
    pub fn values_to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(VALUES_MAGIC);
        put_u64(&mut out, self.len() as u64);
        for i in 0..self.len() {
            let (value, _, _) = self.raw_parts(i);
            put_shape(&mut out, value);
            put_tensor(&mut out, value);
        }
        out
    }

    /// Restores a store from [`ParamStore::values_to_bytes`] output,
    /// with zero Adam moments and a zero step count — exactly the state
    /// [`ParamStore::add`] registers a fresh parameter with.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] for wrong magic or truncated or
    /// inconsistent data.
    pub fn from_values_bytes(bytes: &[u8]) -> Result<ParamStore, CheckpointError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        r.magic(VALUES_MAGIC)?;
        let count = r.count(8)?;
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            let shape = r.shape(1)?;
            values.push(r.tensor(&shape)?);
        }
        r.finish()?;
        let mut store = ParamStore::new();
        for value in values {
            store.add(value);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::param::AdamConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained_store() -> ParamStore {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut store, 4, 3, &mut rng);
        // Take a few optimizer steps so Adam state is non-trivial.
        let cfg = AdamConfig::default();
        for _ in 0..5 {
            let mut g = crate::Graph::new();
            let x = g.input(Tensor::full([2, 4], 0.5));
            let y = lin.forward(&mut g, &store, x);
            let loss = g.sum(y);
            let grads = g.backward(loss);
            let mut buf = store.zero_grads();
            g.accumulate_param_grads(&grads, &mut buf);
            store.adam_step(&buf, &cfg);
        }
        store
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let store = trained_store();
        let bytes = store.to_bytes();
        let back = ParamStore::from_bytes(&bytes).unwrap();
        assert_eq!(back.steps(), store.steps());
        assert_eq!(back.len(), store.len());
        for i in 0..store.len() {
            let (v1, m1, s1) = store.raw_parts(i);
            let (v2, m2, s2) = back.raw_parts(i);
            assert_eq!(v1, v2);
            assert_eq!(m1, m2);
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn resumed_training_matches_uninterrupted() {
        // Training 5 steps, checkpointing, then 5 more must equal 10
        // straight steps (bitwise, since everything is deterministic).
        let mut rng = StdRng::seed_from_u64(1);
        let mut store_a = ParamStore::new();
        let lin_a = Linear::new(&mut store_a, 3, 1, &mut rng);
        let cfg = AdamConfig::default();
        let step = |store: &mut ParamStore, lin: &Linear| {
            let mut g = crate::Graph::new();
            let x = g.input(Tensor::full([1, 3], 1.0));
            let y = lin.forward(&mut g, store, x);
            let sq = g.mul(y, y);
            let loss = g.sum(sq);
            let grads = g.backward(loss);
            let mut buf = store.zero_grads();
            g.accumulate_param_grads(&grads, &mut buf);
            store.adam_step(&buf, &cfg);
        };
        for _ in 0..5 {
            step(&mut store_a, &lin_a);
        }
        let mut resumed = ParamStore::from_bytes(&store_a.to_bytes()).unwrap();
        for _ in 0..5 {
            step(&mut store_a, &lin_a);
            step(&mut resumed, &lin_a);
        }
        for i in 0..store_a.len() {
            assert_eq!(store_a.raw_parts(i).0, resumed.raw_parts(i).0, "param {i}");
        }
    }

    #[test]
    fn values_roundtrip_restores_zero_moments() {
        let store = trained_store();
        let back = ParamStore::from_values_bytes(&store.values_to_bytes()).unwrap();
        assert_eq!(back.steps(), 0);
        assert_eq!(back.len(), store.len());
        for i in 0..store.len() {
            let (v1, _, _) = store.raw_parts(i);
            let (v2, m2, s2) = back.raw_parts(i);
            assert_eq!(v1, v2);
            assert!(m2.data().iter().chain(s2.data()).all(|&x| x == 0.0));
            assert_eq!(m2.shape(), v1.shape());
            assert_eq!(s2.shape(), v1.shape());
        }
        assert_eq!(back.values_to_bytes(), store.values_to_bytes());
        // The two layouts never decode as each other.
        assert!(ParamStore::from_values_bytes(&store.to_bytes()).is_err());
        assert!(ParamStore::from_bytes(&store.values_to_bytes()).is_err());
    }

    /// Little-endian u64 fields appended after `magic`.
    fn forged(magic: &[u8; 8], fields: &[u64]) -> Vec<u8> {
        let mut out = magic.to_vec();
        for &f in fields {
            put_u64(&mut out, f);
        }
        out.extend_from_slice(&[0u8; 64]);
        out
    }

    #[test]
    fn forged_lengths_are_errors_not_aborts() {
        const HUGE: u64 = 1 << 41;
        let full = [
            // count
            vec![0, HUGE],
            // rank
            vec![0, 1, HUGE],
            // one dim
            vec![0, 1, 1, HUGE],
            // a shape whose element count overflows usize
            vec![0, 1, 2, u64::MAX / 2, 3],
            vec![0, 1, 1, u64::MAX],
        ];
        for fields in &full {
            assert_eq!(
                ParamStore::from_bytes(&forged(MAGIC, fields)).unwrap_err(),
                CheckpointError::Truncated,
                "{fields:?}"
            );
            // The values layout has no step field.
            assert_eq!(
                ParamStore::from_values_bytes(&forged(VALUES_MAGIC, &fields[1..])).unwrap_err(),
                CheckpointError::Truncated,
                "{fields:?}"
            );
        }
    }

    /// The store a width-8 DQN agent trains: an MLP from the 64-cell
    /// grid through two hidden layers to the 21 free-cell actions.
    fn rl_store() -> ParamStore {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = crate::layers::Mlp::new(&mut store, &[64, 16, 16, 21], &mut rng);
        let cfg = AdamConfig::default();
        for _ in 0..2 {
            let mut g = crate::Graph::new();
            let x = g.input(Tensor::full([4, 64], 0.25));
            let y = mlp.forward(&mut g, &store, x);
            let loss = g.sum(y);
            let grads = g.backward(loss);
            let mut buf = store.zero_grads();
            g.accumulate_param_grads(&grads, &mut buf);
            store.adam_step(&buf, &cfg);
        }
        store
    }

    type Decoder = fn(&[u8]) -> Result<ParamStore, CheckpointError>;
    type Encoder = fn(&ParamStore) -> Vec<u8>;

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Truncations and bit flips of a real store's bytes (both
        /// layouts) decode to an error or to a store that re-encodes to
        /// exactly the damaged input — never a panic or an abort.
        #[test]
        fn damaged_stores_decode_totally(
            cut in 0.0f64..1.0,
            flips in proptest::collection::vec((0.0f64..1.0, 0u8..8), 0..4),
            truncate in proptest::prelude::any::<bool>(),
        ) {
            let store = rl_store();
            let encodings: [(Vec<u8>, Decoder, Encoder); 2] = [
                (store.to_bytes(), ParamStore::from_bytes, ParamStore::to_bytes),
                (store.values_to_bytes(), ParamStore::from_values_bytes, ParamStore::values_to_bytes),
            ];
            for (mut bytes, decode, encode) in encodings {
                for &(at, bit) in &flips {
                    let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
                    bytes[i] ^= 1 << bit;
                }
                if truncate {
                    bytes.truncate((cut * bytes.len() as f64) as usize);
                }
                if let Ok(back) = decode(&bytes) {
                    proptest::prop_assert_eq!(encode(&back), bytes);
                }
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            ParamStore::from_bytes(b"nonsense").unwrap_err(),
            CheckpointError::BadMagic
        );
        let store = trained_store();
        let mut bytes = store.to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert_eq!(
            ParamStore::from_bytes(&bytes).unwrap_err(),
            CheckpointError::Truncated
        );
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(ParamStore::from_bytes(&bytes).is_err());
    }
}
