//! Upload accounting: the byte count of one upload in the wire layout below.
//!
//! The simulator keeps everything in-process and encodes nothing, but the
//! reported per-round upload volume (cost analysis, Fig. 6b, `paper scale`'s
//! "upload bytes", checkpoints' `total_upload_bytes`) is what a real
//! deployment would ship in this compact layout (little-endian):
//!
//! ```text
//! u32 item_count
//!   repeated: u32 item_id, u32 dim, dim × f32
//! u8  has_mlp
//!   if 1: u32 layer_count
//!     repeated: u32 rows, u32 cols, rows·cols × f32   (weights)
//!     repeated: u32 len, len × f32                    (biases)
//!   u32 len, len × f32                                (projection)
//! ```

use frs_model::GlobalGradients;

/// Exact size of `grads` in the layout above.
pub fn encoded_size(grads: &GlobalGradients) -> usize {
    let mut size = 4 + grads.n_items() * (4 + 4 + 4 * grads.dim());
    size += 1; // mlp flag
    if let Some(mlp) = &grads.mlp {
        size += 4;
        for w in &mlp.weights {
            size += 8 + 4 * w.rows() * w.cols();
        }
        for b in &mlp.biases {
            size += 4 + 4 * b.len();
        }
        size += 4 + 4 * mlp.projection.len();
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_model::MlpGradients;

    #[test]
    fn encoded_size_is_exact() {
        let mut g = GlobalGradients::new();
        assert_eq!(encoded_size(&g), 4 + 1);
        g.add_item_grad(17, &[0.0, 4.0, -1.0]);
        g.add_item_grad(3, &[1.0, -2.5, 0.125]);
        g.add_item_grad(3, &[1.0, 1.0, 1.0]);
        // Two items of 3 floats: count, then (id, dim, 3 × f32) each, then
        // the MLP flag.
        assert_eq!(encoded_size(&g), 4 + 2 * (4 + 4 + 12) + 1);
        // Layers (6 → 3) and (3 → 2): the layer count, then per layer its
        // shape and weights, per layer its bias length and biases, then the
        // projection's length and floats.
        g.mlp = Some(MlpGradients::zeros(&[(6, 3), (3, 2)], 2));
        let mlp = 4 + (8 + 4 * 18) + (8 + 4 * 6) + (4 + 4 * 3) + (4 + 4 * 2) + (4 + 4 * 2);
        assert_eq!(encoded_size(&g), 4 + 2 * (4 + 4 + 12) + 1 + mlp);
    }
}
