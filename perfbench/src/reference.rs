//! Reference forward pass: direct loops over the conv, ReLU, flatten and
//! dense weights, read through the public `Network`/`Layer` accessors. It
//! shares no code with `dcn_tensor`'s im2col or GEMM, so the label and
//! accuracy checks do not trust the kernels they time.

use dcn_nn::{Layer, Network};

use crate::BenchError;

/// Logits of one example (`x` laid out as the network's input shape).
///
/// Supports the layer kinds of the workspace's CNNs: `Conv2d`, `Relu`,
/// `Flatten` and `Dense`.
pub fn logits(net: &Network, x: &[f32]) -> Result<Vec<f32>, BenchError> {
    let mut cur = x.to_vec();
    for layer in net.layers() {
        cur = match layer {
            Layer::Conv2d(conv) => {
                let g = conv.geometry();
                let (w, b) = params(layer)?;
                let (c, h, wd) = (g.in_channels(), g.in_h(), g.in_w());
                let (k, s, p) = (g.kernel(), g.stride(), g.padding());
                let (oh, ow, oc) = (g.out_h(), g.out_w(), conv.out_channels());
                if cur.len() != c * h * wd || w.len() != c * k * k * oc {
                    return Err(BenchError::msg("conv input does not match its geometry"));
                }
                // Weights are [C·K·K, OutC], patch index = (ch·K + ky)·K + kx.
                let mut out = vec![0.0f32; oc * oh * ow];
                for o in 0..oc {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = f64::from(b[o]);
                            for ch in 0..c {
                                for ky in 0..k {
                                    let y = (oy * s + ky) as isize - p as isize;
                                    if y < 0 || y as usize >= h {
                                        continue;
                                    }
                                    for kx in 0..k {
                                        let xx = (ox * s + kx) as isize - p as isize;
                                        if xx < 0 || xx as usize >= wd {
                                            continue;
                                        }
                                        let v = cur[(ch * h + y as usize) * wd + xx as usize];
                                        let wi = ((ch * k + ky) * k + kx) * oc + o;
                                        acc += f64::from(v) * f64::from(w[wi]);
                                    }
                                }
                            }
                            out[(o * oh + oy) * ow + ox] = acc as f32;
                        }
                    }
                }
                out
            }
            Layer::Dense(dense) => {
                let (w, b) = params(layer)?;
                let (n_in, n_out) = (dense.in_dim(), dense.out_dim());
                if cur.len() != n_in {
                    return Err(BenchError::msg("dense input does not match its width"));
                }
                // Weights are [in, out]: y_j = b_j + Σ_i x_i · w[i, j].
                (0..n_out)
                    .map(|j| {
                        let acc = (0..n_in).fold(f64::from(b[j]), |acc, i| {
                            acc + f64::from(cur[i]) * f64::from(w[i * n_out + j])
                        });
                        acc as f32
                    })
                    .collect()
            }
            Layer::Relu(_) => cur.iter().map(|&v| v.max(0.0)).collect(),
            Layer::Flatten(_) => cur,
            other => {
                return Err(BenchError::msg(format!(
                    "reference forward has no loop for {other:?}"
                )))
            }
        };
    }
    Ok(cur)
}

fn params(layer: &Layer) -> Result<(&[f32], &[f32]), BenchError> {
    match layer.params().as_slice() {
        [w, b] => Ok((w.data(), b.data())),
        _ => Err(BenchError::msg("layer without weight and bias")),
    }
}

/// Index of the largest logit (the first on exact ties).
pub fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

/// Whether `label` is the reference answer for logits `v`: the argmax, or
/// any class within `tie` of the top logit (a near-tie the production
/// kernels may legitimately break the other way).
pub fn label_agrees(v: &[f32], label: usize, tie: f32) -> bool {
    let top = v[argmax(v)];
    v.get(label).is_some_and(|&l| l >= top - tie)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_nn::{Conv2d, Dense, Flatten, Relu};
    use dcn_tensor::{Conv2dGeometry, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn set_params(layer: &mut Layer, w: Vec<f32>, b: Vec<f32>) {
        let mut ps = layer.params_mut();
        ps[0].data_mut().copy_from_slice(&w);
        ps[1].data_mut().copy_from_slice(&b);
    }

    /// A 1×3×3 image, one 2×2 all-ones kernel (stride 1, no padding) with
    /// bias −10, ReLU, flatten, and a dense layer picking sums — logits
    /// worked out by hand.
    #[test]
    fn hand_built_network_gives_closed_form_logits() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0).unwrap();
        let mut net = Network::new(vec![1, 3, 3]);
        net.push(Layer::Conv2d(Conv2d::new(g, 1, &mut rng).unwrap()));
        net.push(Layer::Relu(Relu::new()));
        net.push(Layer::Flatten(Flatten::new()));
        net.push(Layer::Dense(Dense::new(4, 2, &mut rng).unwrap()));
        let mut layers: Vec<Layer> = net.layers().to_vec();
        set_params(&mut layers[0], vec![1.0; 4], vec![-10.0]);
        // Logit 0 = sum of the four windows, logit 1 = window 3 − window 0.
        set_params(
            &mut layers[3],
            vec![1.0, -1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0],
            vec![0.5, 0.0],
        );
        let mut hand = Network::new(vec![1, 3, 3]);
        for l in layers {
            hand.push(l);
        }
        // x = 1..9 row-major: window sums 12, 16, 24, 28 → minus 10 →
        // 2, 6, 14, 18 (all positive, ReLU keeps them).
        let x: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let out = logits(&hand, &x).unwrap();
        assert_eq!(out, vec![2.0 + 6.0 + 14.0 + 18.0 + 0.5, 18.0 - 2.0]);
        // With bias −20 the first window is clipped by the ReLU.
        let mut layers = hand.layers().to_vec();
        set_params(&mut layers[0], vec![1.0; 4], vec![-20.0]);
        let mut clipped = Network::new(vec![1, 3, 3]);
        for l in layers {
            clipped.push(l);
        }
        assert_eq!(logits(&clipped, &x).unwrap(), vec![4.0 + 8.0 + 0.5, 8.0]);
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert!(label_agrees(&[1.0, 3.0, 2.9999], 2, 1e-3));
        assert!(!label_agrees(&[1.0, 3.0, 2.0], 2, 1e-3));
    }

    /// Padding and stride: a 1×2×2 image, 3×3 kernel, padding 1, stride 2.
    #[test]
    fn padded_strided_conv_matches_hand_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = Conv2dGeometry::new(1, 2, 2, 3, 2, 1).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (1, 1));
        let mut net = Network::new(vec![1, 2, 2]);
        net.push(Layer::Conv2d(Conv2d::new(g, 2, &mut rng).unwrap()));
        let mut layers = net.layers().to_vec();
        // Channel 0 weights the centre tap (ky=kx=1) by 1; channel 1 the
        // bottom-right tap (ky=kx=2) by 2. The window is anchored at (-1,-1).
        let mut w = vec![0.0; 18];
        w[(3 + 1) * 2] = 1.0;
        w[8 * 2 + 1] = 2.0;
        set_params(&mut layers[0], w, vec![0.0, 1.0]);
        let mut hand = Network::new(vec![1, 2, 2]);
        hand.push(layers.remove(0));
        let out = logits(&hand, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(out, vec![1.0, 2.0 * 4.0 + 1.0]);
    }

    /// The reference agrees with the production forward on the workspace's
    /// MNIST CNN at random weights.
    #[test]
    fn agrees_with_production_forward_on_the_mnist_cnn() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = dcn_core::models::mnist_cnn(&mut rng).unwrap();
        let x = Tensor::rand_uniform(&[1, 1, 28, 28], -0.5, 0.5, &mut rng);
        let fast = net.forward(&x).unwrap();
        let slow = logits(&net, x.data()).unwrap();
        for (a, b) in fast.data().iter().zip(&slow) {
            assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }
}
