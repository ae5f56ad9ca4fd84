//! Mail generation (φ) and reduction (ρ) — Eq. 6 of the paper.

use crate::config::{MailContent, MailReduce};
use apan_tensor::Tensor;

/// φ: builds one mail per interaction. With [`MailContent::Sum`] (the
/// paper's choice, §3.5 "Mail Generation") this is the element-wise sum
/// `mail = z_i(t) + e_ij(t) + z_j(t)`; summation over concatenation keeps
/// the mailbox footprint at `d` per slot, at the cost of pinning the node
/// embedding dimension to the edge feature dimension and letting noisy
/// early-training embeddings mask the features — [`MailContent::FeatureOnly`]
/// exists to quantify exactly that trade-off.
///
/// # Panics
/// Panics if the three matrices disagree in shape.
pub fn make_mails_with(
    z_src: &Tensor,
    z_dst: &Tensor,
    edge_feats: &Tensor,
    content: MailContent,
) -> Tensor {
    assert_eq!(z_src.shape(), z_dst.shape(), "endpoint shape mismatch");
    assert_eq!(z_src.shape(), edge_feats.shape(), "feature shape mismatch");
    match content {
        MailContent::Sum => {
            let mut out = z_src.clone();
            out.add_assign(z_dst);
            out.add_assign(edge_feats);
            out
        }
        MailContent::FeatureOnly => edge_feats.clone(),
    }
}

/// φ with the paper's default content (`z_i + e_ij + z_j`).
pub fn make_mails(z_src: &Tensor, z_dst: &Tensor, edge_feats: &Tensor) -> Tensor {
    make_mails_with(z_src, z_dst, edge_feats, MailContent::Sum)
}

/// ρ: reduces the mail rows (indices into `mails`) destined for one node
/// into a single mail vector. `rows` must be ordered oldest→newest (batch
/// order), which [`MailReduce::Last`] relies on.
///
/// # Panics
/// Panics if `rows` is empty.
pub fn reduce_mails(mails: &Tensor, rows: &[usize], mode: MailReduce) -> Vec<f32> {
    let mut out = Vec::new();
    reduce_mails_into(mails, rows, mode, &mut out);
    out
}

/// ρ into a caller-owned buffer: clears `out` and writes the reduced
/// mail, so hot loops reuse one allocation across destination nodes.
/// Same contract as [`reduce_mails`].
///
/// # Panics
/// Panics if `rows` is empty.
pub fn reduce_mails_into(mails: &Tensor, rows: &[usize], mode: MailReduce, out: &mut Vec<f32>) {
    out.clear();
    out.resize(mails.cols(), 0.0);
    reduce_mails_slice(mails, rows, mode, out);
}

/// ρ into a zeroed `dim`-wide slice — the innermost reduction shared by
/// the Vec paths above and the propagator's flat delivery-plan payload.
pub(crate) fn reduce_mails_slice(
    mails: &Tensor,
    rows: &[usize],
    mode: MailReduce,
    out: &mut [f32],
) {
    assert!(!rows.is_empty(), "cannot reduce zero mails");
    debug_assert_eq!(out.len(), mails.cols());
    match mode {
        MailReduce::Last => out.copy_from_slice(mails.row_slice(rows[rows.len() - 1])),
        MailReduce::Sum | MailReduce::Mean => {
            for &r in rows {
                for (a, &v) in out.iter_mut().zip(mails.row_slice(r)) {
                    *a += v;
                }
            }
            if mode == MailReduce::Mean {
                let inv = 1.0 / rows.len() as f32;
                for a in out.iter_mut() {
                    *a *= inv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_mails_is_elementwise_sum() {
        let zi = Tensor::from_rows(&[&[1.0, 2.0]]);
        let zj = Tensor::from_rows(&[&[10.0, 20.0]]);
        let e = Tensor::from_rows(&[&[100.0, 200.0]]);
        let m = make_mails(&zi, &zj, &e);
        assert_eq!(m.data(), &[111.0, 222.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn make_mails_checks_shapes() {
        let a = Tensor::zeros(1, 2);
        let b = Tensor::zeros(2, 2);
        let _ = make_mails(&a, &b, &a);
    }

    #[test]
    fn reduce_modes() {
        let mails = Tensor::from_rows(&[&[1.0, 1.0], &[3.0, 5.0], &[5.0, 0.0]]);
        let rows = vec![0, 1, 2];
        assert_eq!(
            reduce_mails(&mails, &rows, MailReduce::Mean),
            vec![3.0, 2.0]
        );
        assert_eq!(reduce_mails(&mails, &rows, MailReduce::Sum), vec![9.0, 6.0]);
        assert_eq!(
            reduce_mails(&mails, &rows, MailReduce::Last),
            vec![5.0, 0.0]
        );
    }

    #[test]
    fn reduce_single_mail_is_identity_for_all_modes() {
        let mails = Tensor::from_rows(&[&[7.0, -2.0]]);
        for mode in [MailReduce::Mean, MailReduce::Sum, MailReduce::Last] {
            assert_eq!(reduce_mails(&mails, &[0], mode), vec![7.0, -2.0]);
        }
    }

    #[test]
    fn reduce_into_reuses_buffer_and_matches() {
        let mails = Tensor::from_rows(&[&[1.0, 1.0], &[3.0, 5.0], &[5.0, 0.0]]);
        let mut buf = vec![99.0; 7]; // stale, wrong-sized contents
        for mode in [MailReduce::Mean, MailReduce::Sum, MailReduce::Last] {
            reduce_mails_into(&mails, &[0, 2], mode, &mut buf);
            assert_eq!(buf, reduce_mails(&mails, &[0, 2], mode));
        }
    }

    #[test]
    #[should_panic(expected = "zero mails")]
    fn reduce_rejects_empty() {
        let mails = Tensor::zeros(1, 2);
        let _ = reduce_mails(&mails, &[], MailReduce::Mean);
    }
}
