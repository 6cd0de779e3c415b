//! A minimal dense tensor for the reproducibility engine.
//!
//! Deliberately simple: contiguous `f32` storage, row-major, shape checked at the
//! operation level. No SIMD, no blocking — bit-exact, portable arithmetic is the
//! point here, not speed.
//!
//! The first dimension is the batch, and a sample's elements are contiguous:
//! a `[b, c, h, w]` conv activation is `b` rows of `c·h·w`, the same bytes as
//! its flattened `[b, c·h·w]` view. So a block of samples is a plain
//! sub-slice, and the layer kernels (`layers.rs`) run over such row slices:
//! the token executor hands them sub-slices of its full-batch buffers, the
//! [`crate::EngineLayer`] `forward`/`backward` methods whole tensors.

/// A dense row-major `f32` tensor.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor from raw data.
    ///
    /// # Panics
    /// Panics if the data length does not match the shape.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape/data mismatch"
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Deterministically pseudo-random tensor in `[-scale, scale]` from a seed
    /// (SplitMix64 → uniform float; platform-independent).
    pub fn seeded(shape: &[usize], seed: u64, scale: f32) -> Self {
        let len: usize = shape.iter().product();
        let mut state = seed;
        let data = (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let unit = (z >> 11) as f32 / (1u64 << 53) as f32; // [0,1)
                (unit * 2.0 - 1.0) * scale
            })
            .collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable element access.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable element access.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Adds `other` element-wise into `self`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self -= lr * other` (the SGD update).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn saxpy_neg(&mut self, lr: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "saxpy shape mismatch");
        for (a, g) in self.data.iter_mut().zip(&other.data) {
            *a -= lr * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_from_vec() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.shape(), &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_checks_length() {
        Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn seeded_is_deterministic_and_bounded() {
        let a = Tensor::seeded(&[4, 4], 42, 0.5);
        let b = Tensor::seeded(&[4, 4], 42, 0.5);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|&x| (-0.5..=0.5).contains(&x)));
        let c = Tensor::seeded(&[4, 4], 43, 0.5);
        assert_ne!(a, c);
    }

    #[test]
    fn add_and_saxpy() {
        let mut a = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(&[2], vec![10.0, 20.0]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[11.0, 22.0]);
        a.saxpy_neg(0.1, &b);
        assert_eq!(a.data(), &[10.0, 20.0]);
    }
}
