//! 2-D convolution layer (im2col-lowered).

use std::sync::Mutex;

use memaging_par::{par_chunks_mut, parallelism_for};
use memaging_tensor::conv::{col2im, im2col_slice, ConvGeometry};
use memaging_tensor::{init, ops, Tensor};
use rand::Rng;

use crate::error::NnError;
use crate::layer::{Layer, LayerKind, Mode, ParamKind};

/// A 2-D convolution layer operating on flattened `[batch, C·H·W]` rows.
///
/// The kernels are stored as a single `[out_channels, in_channels·kh·kw]`
/// matrix — exactly the matrix a memristor crossbar holds when accelerating
/// the convolution, and the matrix exposed through
/// [`Layer::weight_matrix`].
///
/// # Examples
///
/// ```
/// use memaging_nn::{Conv2d, Layer, Mode};
/// use memaging_tensor::Tensor;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), memaging_nn::NnError> {
/// // 1 input channel, 4 output channels, 3x3 kernel on 8x8 images.
/// let mut conv = Conv2d::new(1, 4, (8, 8), 3, 1, 1, &mut StdRng::seed_from_u64(0));
/// let x = Tensor::ones([2, 64]);
/// let y = conv.forward(&x, Mode::Eval)?;
/// assert_eq!(y.dims(), &[2, 4 * 8 * 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    kernels: Tensor,
    bias: Tensor,
    grad_kernels: Tensor,
    grad_bias: Tensor,
    geometry: ConvGeometry,
    out_channels: usize,
    cached_cols: Option<Vec<Tensor>>,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal kernels and zero bias.
    ///
    /// `input_hw` is the `(height, width)` of the incoming feature map.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the kernel exceeds the padded
    /// input (these are programming errors in an architecture description).
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        input_hw: (usize, usize),
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        let geometry = ConvGeometry {
            in_channels,
            in_h: input_hw.0,
            in_w: input_hw.1,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        };
        geometry.validate().expect("invalid convolution geometry");
        assert!(out_channels > 0, "out_channels must be nonzero");
        let patch = geometry.patch_len();
        Conv2d {
            kernels: init::he_normal([out_channels, patch], patch, rng),
            bias: Tensor::zeros([out_channels]),
            grad_kernels: Tensor::zeros([out_channels, patch]),
            grad_bias: Tensor::zeros([out_channels]),
            geometry,
            out_channels,
            cached_cols: None,
        }
    }

    /// The window-sweep geometry.
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geometry
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Output feature-map `(height, width)`.
    pub fn output_hw(&self) -> (usize, usize) {
        (self.geometry.out_h(), self.geometry.out_w())
    }

    /// Accumulates dK and db sample by sample; with `input_grad` also
    /// returns the row-major `[batch, in_features]` input gradient (an
    /// empty vector otherwise).
    fn backward_samples(
        &mut self,
        grad_out: &Tensor,
        input_grad: bool,
    ) -> Result<Vec<f32>, NnError> {
        let cols_cache =
            self.cached_cols.as_ref().ok_or(NnError::BackwardBeforeForward { layer: "conv2d" })?;
        let g = self.geometry;
        let npatch = g.num_patches();
        let out_feat = self.out_channels * npatch;
        let in_feat = g.in_channels * g.in_h * g.in_w;
        let batch = grad_out.dims()[0];
        if grad_out.rank() != 2 || grad_out.dims()[1] != out_feat || batch != cols_cache.len() {
            return Err(NnError::BadInput {
                layer: "conv2d",
                expected: out_feat,
                actual: if grad_out.rank() == 2 { grad_out.dims()[1] } else { grad_out.len() },
            });
        }
        let mut grad_in = if input_grad { vec![0.0f32; batch * in_feat] } else { Vec::new() };
        for s in 0..batch {
            let gslice = &grad_out.as_slice()[s * out_feat..(s + 1) * out_feat];
            let gmat = Tensor::from_vec(gslice.to_vec(), [self.out_channels, npatch])?;
            // dK += dY · colsᵀ
            let dk = ops::matmul_transpose_b(&gmat, &cols_cache[s])?;
            self.grad_kernels.axpy(1.0, &dk)?;
            // db += row sums of dY
            for oc in 0..self.out_channels {
                let sum: f32 = gslice[oc * npatch..(oc + 1) * npatch].iter().sum();
                self.grad_bias.as_mut_slice()[oc] += sum;
            }
            if input_grad {
                // dcols = Kᵀ · dY, then scatter back to image space.
                let dcols = ops::matmul_transpose_a(&self.kernels, &gmat)?;
                let dimage = col2im(&dcols, &g)?;
                grad_in[s * in_feat..(s + 1) * in_feat].copy_from_slice(dimage.as_slice());
            }
        }
        Ok(grad_in)
    }
}

impl Layer for Conv2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Convolution
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        let in_feat = self.in_features();
        if input.rank() != 2 || input.dims()[1] != in_feat {
            return Err(NnError::BadInput {
                layer: "conv2d",
                expected: in_feat,
                actual: if input.rank() == 2 { input.dims()[1] } else { input.len() },
            });
        }
        let batch = input.dims()[0];
        let g = self.geometry;
        let npatch = g.num_patches();
        let out_feat = self.out_channels * npatch;
        let mut out = vec![0.0f32; batch * out_feat];
        let iv = input.as_slice();
        let kernels = &self.kernels;
        let bias = self.bias.as_slice();
        let out_channels = self.out_channels;
        // One sample = one im2col + one kernel matmul; samples are
        // independent, so the batch parallelizes over disjoint output rows
        // (each sample's arithmetic is untouched — results stay
        // bit-identical at any thread count).
        let sample_ops = 2 * out_channels * g.patch_len() * npatch;
        // Lowers and convolves sample `s` straight from the batch buffer
        // (no per-sample image copy), returning its column matrix.
        let forward_sample = |s: usize, dst: &mut [f32]| -> Result<Tensor, NnError> {
            let row = &iv[s * in_feat..(s + 1) * in_feat];
            let cols = im2col_slice(row, &g)?;
            // [out_c, patch] x [patch, npatch] = [out_c, npatch]
            let conv = ops::matmul(kernels, &cols)?;
            for oc in 0..out_channels {
                let b = bias[oc];
                for p in 0..npatch {
                    dst[oc * npatch + p] = conv.as_slice()[oc * npatch + p] + b;
                }
            }
            Ok(cols)
        };
        let threads = parallelism_for(batch * sample_ops);
        // Any per-sample error (structurally impossible once the width
        // check above passed, but surfaced faithfully) — first in batch
        // order wins.
        let first_err: Mutex<Option<(usize, NnError)>> = Mutex::new(None);
        let record_err = |s: usize, e: NnError| {
            if let Ok(mut slot) = first_err.lock() {
                if slot.as_ref().is_none_or(|(prev, _)| s < *prev) {
                    *slot = Some((s, e));
                }
            }
        };
        if mode == Mode::Train {
            // Keep every sample's columns for backward, collected in batch
            // order; each worker owns one slot and one output row, both
            // disjoint.
            let mut slots: Vec<(Option<Tensor>, Vec<f32>)> =
                std::iter::repeat_with(|| (None, vec![0.0f32; out_feat])).take(batch).collect();
            par_chunks_mut(&mut slots, 1, threads, |s, slot| {
                let (cols_slot, dst) = &mut slot[0];
                match forward_sample(s, dst) {
                    Ok(cols) => *cols_slot = Some(cols),
                    Err(e) => record_err(s, e),
                }
            });
            if let Some((_, e)) = first_err.lock().map(|mut g| g.take()).unwrap_or(None) {
                return Err(e);
            }
            let mut cols_cache = Vec::with_capacity(batch);
            for (s, (cols, row)) in slots.into_iter().enumerate() {
                out[s * out_feat..(s + 1) * out_feat].copy_from_slice(&row);
                cols_cache.push(cols.expect("sample columns computed"));
            }
            self.cached_cols = Some(cols_cache);
        } else {
            // Inference writes each sample's row straight into the batch
            // output buffer; the columns are dropped.
            par_chunks_mut(&mut out, out_feat, threads, |s, dst| {
                if let Err(e) = forward_sample(s, dst) {
                    record_err(s, e);
                }
            });
            if let Some((_, e)) = first_err.lock().map(|mut g| g.take()).unwrap_or(None) {
                return Err(e);
            }
        }
        Tensor::from_vec(out, [batch, out_feat]).map_err(NnError::from)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let grad_in = self.backward_samples(grad_out, true)?;
        Tensor::from_vec(grad_in, [grad_out.dims()[0], self.in_features()]).map_err(NnError::from)
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<(), NnError> {
        self.backward_samples(grad_out, false).map(drop)
    }

    fn in_features(&self) -> usize {
        self.geometry.in_channels * self.geometry.in_h * self.geometry.in_w
    }

    fn out_features(&self) -> usize {
        self.out_channels * self.geometry.num_patches()
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamKind, &mut Tensor, &Tensor)) {
        visitor(ParamKind::Weight, &mut self.kernels, &self.grad_kernels);
        visitor(ParamKind::Bias, &mut self.bias, &self.grad_bias);
    }

    fn zero_grads(&mut self) {
        self.grad_kernels.fill_zero();
        self.grad_bias.fill_zero();
    }

    fn weight_matrix(&self) -> Option<&Tensor> {
        Some(&self.kernels)
    }

    fn weight_matrix_mut(&mut self) -> Option<&mut Tensor> {
        Some(&mut self.kernels)
    }

    fn bias_vector(&self) -> Option<&Tensor> {
        Some(&self.bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn forward_shape() {
        let mut conv = Conv2d::new(2, 3, (6, 6), 3, 1, 1, &mut rng());
        let x = Tensor::ones([4, 2 * 6 * 6]);
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[4, 3 * 6 * 6]);
    }

    #[test]
    fn stride_downsamples() {
        let conv = Conv2d::new(1, 1, (8, 8), 2, 2, 0, &mut rng());
        assert_eq!(conv.output_hw(), (4, 4));
        assert_eq!(conv.out_features(), 16);
    }

    #[test]
    fn identity_kernel_passes_through() {
        // A single 1x1 kernel with weight 1 and zero bias is identity.
        let mut conv = Conv2d::new(1, 1, (3, 3), 1, 1, 0, &mut rng());
        conv.kernels = Tensor::ones([1, 1]);
        let x = Tensor::from_fn([1, 9], |i| i as f32);
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_3x3_convolution() {
        // Sum kernel over a 3x3 input with no padding: output = sum of all 9.
        let mut conv = Conv2d::new(1, 1, (3, 3), 3, 1, 0, &mut rng());
        conv.kernels = Tensor::ones([1, 9]);
        conv.bias = Tensor::from_vec(vec![0.5], [1]).unwrap();
        let x = Tensor::from_fn([1, 9], |i| (i + 1) as f32);
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[45.5]);
    }

    #[test]
    fn numeric_gradient_check_kernels_and_input() {
        let mut conv = Conv2d::new(1, 2, (4, 4), 3, 1, 1, &mut rng());
        let x = Tensor::from_fn([2, 16], |i| (i as f32 * 0.31).sin());
        conv.forward(&x, Mode::Train).unwrap();
        let gy = Tensor::ones([2, 2 * 16]);
        let dx = conv.backward(&gy).unwrap();
        let eps = 1e-2f32;
        // Kernel gradient.
        for idx in [0usize, 5, 11, 17] {
            let mut p = conv.clone();
            p.kernels.as_mut_slice()[idx] += eps;
            let yp = p.forward(&x, Mode::Eval).unwrap().sum();
            let mut m = conv.clone();
            m.kernels.as_mut_slice()[idx] -= eps;
            let ym = m.forward(&x, Mode::Eval).unwrap().sum();
            let numeric = (yp - ym) / (2.0 * eps);
            let analytic = conv.grad_kernels.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 0.05 * (1.0 + analytic.abs()),
                "kernel grad mismatch at {idx}: {numeric} vs {analytic}"
            );
        }
        // Input gradient.
        for idx in [0usize, 7, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let yp = conv.forward(&xp, Mode::Eval).unwrap().sum();
            let ym = conv.forward(&xm, Mode::Eval).unwrap().sum();
            let numeric = (yp - ym) / (2.0 * eps);
            let analytic = dx.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 0.05 * (1.0 + analytic.abs()),
                "input grad mismatch at {idx}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn bias_gradient_counts_positions() {
        let mut conv = Conv2d::new(1, 1, (3, 3), 3, 1, 1, &mut rng());
        let x = Tensor::ones([1, 9]);
        conv.forward(&x, Mode::Train).unwrap();
        conv.backward(&Tensor::ones([1, 9])).unwrap();
        // db = number of output positions = 9.
        assert_eq!(conv.grad_bias.as_slice(), &[9.0]);
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut conv = Conv2d::new(1, 1, (4, 4), 3, 1, 1, &mut rng());
        assert!(conv.forward(&Tensor::ones([1, 15]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_requires_forward() {
        let mut conv = Conv2d::new(1, 1, (4, 4), 3, 1, 1, &mut rng());
        assert!(conv.backward(&Tensor::ones([1, 16])).is_err());
    }

    #[test]
    fn weight_matrix_is_kernel_matrix() {
        let conv = Conv2d::new(2, 5, (4, 4), 3, 1, 1, &mut rng());
        assert_eq!(conv.weight_matrix().unwrap().dims(), &[5, 18]);
    }
}
