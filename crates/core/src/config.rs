//! APAN hyper-parameters.

use apan_data::TemporalDataset;

/// How multiple mails arriving at one node within a batch are reduced to a
/// single mail (ρ in Eq. 6). The paper uses `Mean`; the others exist for
/// the ablation benches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MailReduce {
    /// Element-wise mean — the paper's choice (avoids high-degree bias).
    Mean,
    /// Element-wise sum.
    Sum,
    /// Keep only the newest mail.
    Last,
}

/// What a mail contains (φ in Eq. 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MailContent {
    /// `z_i + e_ij + z_j` — the paper's choice (memory-compact, but the
    /// embeddings can mask the edge features early in training).
    Sum,
    /// The raw edge feature only (ablation: how much do the embedded
    /// endpoints actually contribute?).
    FeatureOnly,
}

/// How a node's mailbox absorbs a reduced mail (ψ in Eq. 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MailboxUpdate {
    /// First-in-first-out queue of `m` slots — the paper's choice.
    Fifo,
    /// Single-slot overwrite (degenerates the mailbox to a TGN-ish memory
    /// message); ablation only.
    Overwrite,
    /// Key-value-memory style writing (the §3.6 "future work" direction):
    /// while slots remain, append; once full, the incoming mail overwrites
    /// the stored mail it is most *similar* to (cosine), so the mailbox
    /// retains a maximally diverse summary of the neighbourhood history
    /// instead of merely the most recent one.
    ContentAddressed,
}

/// How mailbox slots are tagged with order information before attention.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotEncoding {
    /// Learned positional embedding per slot index — the paper's choice
    /// (§3.3, "Positional Encoding").
    Positional,
    /// Functional time encoding of each mail's age (the §3.6 alternative).
    Temporal,
    /// No order information; ablation only.
    None,
}

/// Full APAN configuration. Defaults follow §4.4 of the paper.
#[derive(Clone, Debug)]
pub struct ApanConfig {
    /// Node-embedding / mail dimension. The paper fixes it to the edge
    /// feature dimension so `mail = z_i + e_ij + z_j` is well-typed.
    pub dim: usize,
    /// Mailbox slots per node (`m`), default 10.
    pub mailbox_slots: usize,
    /// Temporal neighbours sampled per hop during propagation, default 10.
    pub sampled_neighbors: usize,
    /// Propagation depth `k` in hops, default 2 ("message passing layer is
    /// 2").
    pub hops: usize,
    /// Attention heads, default 2.
    pub heads: usize,
    /// Hidden width of the encoder/decoder MLPs, default 80.
    pub mlp_hidden: usize,
    /// Dropout rate, default 0.1.
    pub dropout: f32,
    /// Whether the interacting nodes also receive their own mail (hop 0);
    /// the reference implementation does this.
    pub deliver_to_self: bool,
    /// Mail content function (φ).
    pub mail_content: MailContent,
    /// Mail reduction operator (ρ).
    pub mail_reduce: MailReduce,
    /// Mailbox update rule (ψ).
    pub mailbox_update: MailboxUpdate,
    /// Slot-order encoding fed to the attention encoder.
    pub slot_encoding: SlotEncoding,
    /// Resident-memory budget for serving mailbox state, in bytes.
    /// `None` (the default) keeps every mailbox in RAM; `Some(bytes)`
    /// bounds the hot pools to roughly that much mailbox state (at
    /// least one mailbox per shard) and spills the least-recently
    /// touched mailboxes to an on-disk cold tier, so the graph can
    /// exceed RAM. Tiering never changes served bits — only
    /// where mailbox bytes live.
    pub mailbox_budget: Option<u64>,
    /// Directory for the cold tier's one scratch file when a budget is
    /// set. The file is removed on clean shutdown and truncated on the
    /// next boot after a crash — it is never read across runs; the
    /// snapshot is the durable state. `None` auto-creates a per-process
    /// directory in the system temp dir, removed on clean shutdown too;
    /// an explicit directory is left in place (empty). One store per
    /// directory.
    pub mailbox_spill: Option<std::path::PathBuf>,
}

impl ApanConfig {
    /// Paper defaults for a given embedding dimension.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            mailbox_slots: 10,
            sampled_neighbors: 10,
            hops: 2,
            heads: 2,
            mlp_hidden: 80,
            dropout: 0.1,
            deliver_to_self: true,
            mail_content: MailContent::Sum,
            mail_reduce: MailReduce::Mean,
            mailbox_update: MailboxUpdate::Fifo,
            slot_encoding: SlotEncoding::Positional,
            mailbox_budget: None,
            mailbox_spill: None,
        }
    }

    /// Paper defaults with the dimension taken from a dataset's edge
    /// features (the paper's rule: embedding dim == edge feature dim).
    pub fn for_dataset(ds: &TemporalDataset) -> Self {
        Self::new(ds.feature_dim())
    }

    /// Validates invariants (dim divisible by heads, nonzero sizes).
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dim must be positive".into());
        }
        if !self.dim.is_multiple_of(self.heads) {
            return Err(format!(
                "dim {} not divisible by heads {}",
                self.dim, self.heads
            ));
        }
        if self.mailbox_slots == 0 {
            return Err("mailbox needs at least one slot".into());
        }
        if self.hops == 0 {
            return Err("propagation needs at least one hop".into());
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err("dropout must be in [0, 1)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ApanConfig::new(172);
        assert_eq!(c.mailbox_slots, 10);
        assert_eq!(c.sampled_neighbors, 10);
        assert_eq!(c.hops, 2);
        assert_eq!(c.heads, 2);
        assert_eq!(c.mlp_hidden, 80);
        assert!((c.dropout - 0.1).abs() < 1e-6);
        assert_eq!(c.mail_reduce, MailReduce::Mean);
        assert_eq!(c.mailbox_update, MailboxUpdate::Fifo);
        assert_eq!(c.slot_encoding, SlotEncoding::Positional);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = ApanConfig::new(7); // not divisible by 2 heads
        assert!(c.validate().is_err());
        c = ApanConfig::new(8);
        c.mailbox_slots = 0;
        assert!(c.validate().is_err());
        c = ApanConfig::new(8);
        c.dropout = 1.0;
        assert!(c.validate().is_err());
        c = ApanConfig::new(8);
        c.hops = 0;
        assert!(c.validate().is_err());
    }
}
