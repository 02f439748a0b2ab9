//! Training-checkpoint codec on top of the artifact format.
//!
//! Carries everything `dl-distributed` needs to resume elastic Local
//! SGD: the completed step count, the flat synchronized parameters, the
//! optimizer's hyper-parameters and per-worker data-shard cursors. The
//! optimizer's moment buffers (momentum velocity, Adam m/v) are training
//! scratch and are not persisted: hyper-parameters and the Adam timestep
//! round-trip, accumulators are rebuilt lazily on the first post-restore
//! step.
//!
//! Scalar f32 hyper-parameters are stored as bit patterns, params as one
//! f32 tensor, cursors as little-endian u64 bytes — so a re-saved
//! checkpoint is byte-identical to the original artifact.

use crate::format::{Artifact, ArtifactBuilder, HParam};
use crate::StoreError;
use dl_nn::Optimizer;

/// Value of the `artifact.kind` hparam written by [`save_checkpoint`].
pub const CHECKPOINT_KIND: &str = "checkpoint";

/// The format-level view of a training checkpoint.
///
/// `dl-distributed`'s `Checkpoint` converts to and from this struct; the
/// codec itself stays free of any dependency on the training stack.
#[derive(Debug, Clone)]
pub struct CheckpointData {
    /// Completed steps at capture time.
    pub step: u64,
    /// Flattened model parameters.
    pub params: Vec<f32>,
    /// Optimizer at capture time (moment buffers empty).
    pub optimizer: Optimizer,
    /// Per-worker data-shard cursors.
    pub cursors: Vec<u64>,
}

fn bits(v: f32) -> HParam {
    HParam::U64(u64::from(v.to_bits()))
}

/// Serializes a checkpoint as a standalone artifact.
#[must_use]
pub fn save_checkpoint(data: &CheckpointData) -> Vec<u8> {
    let mut b = ArtifactBuilder::new();
    b.hparam("artifact.kind", HParam::Str(CHECKPOINT_KIND.to_string()));
    b.hparam("ckpt.step", HParam::U64(data.step));
    match &data.optimizer {
        Optimizer::Sgd { lr } => {
            b.hparam("ckpt.opt.kind", HParam::Str("sgd".to_string()));
            b.hparam("ckpt.opt.lr_bits", bits(*lr));
        }
        Optimizer::Momentum { lr, beta, .. } => {
            b.hparam("ckpt.opt.kind", HParam::Str("momentum".to_string()));
            b.hparam("ckpt.opt.lr_bits", bits(*lr));
            b.hparam("ckpt.opt.beta_bits", bits(*beta));
        }
        Optimizer::Adam {
            lr,
            beta1,
            beta2,
            eps,
            t,
            ..
        } => {
            b.hparam("ckpt.opt.kind", HParam::Str("adam".to_string()));
            b.hparam("ckpt.opt.lr_bits", bits(*lr));
            b.hparam("ckpt.opt.beta1_bits", bits(*beta1));
            b.hparam("ckpt.opt.beta2_bits", bits(*beta2));
            b.hparam("ckpt.opt.eps_bits", bits(*eps));
            b.hparam("ckpt.opt.t", HParam::U64(*t));
        }
    }
    let mut cursor_bytes = Vec::with_capacity(data.cursors.len() * 8);
    for c in &data.cursors {
        cursor_bytes.extend_from_slice(&c.to_le_bytes());
    }
    b.hparam("ckpt.cursors", HParam::Bytes(cursor_bytes));
    b.tensor_f32("ckpt.params", &[data.params.len()], &data.params);
    b.finish()
}

/// Loads a checkpoint saved by [`save_checkpoint`].
///
/// # Errors
/// Format errors from [`Artifact::parse`]; [`StoreError::Corrupt`] when
/// the artifact is not a checkpoint or names an unknown optimizer.
pub fn load_checkpoint(bytes: &[u8]) -> Result<CheckpointData, StoreError> {
    let a = Artifact::parse(bytes)?;
    let kind = a.hparam_str("artifact.kind")?;
    if kind != CHECKPOINT_KIND {
        return Err(StoreError::Corrupt(format!(
            "artifact kind {kind:?} is not a checkpoint"
        )));
    }
    let step = a.hparam_u64("ckpt.step")?;
    let optimizer = match a.hparam_str("ckpt.opt.kind")? {
        "sgd" => Optimizer::Sgd {
            lr: a.hparam_f32_bits("ckpt.opt.lr_bits")?,
        },
        "momentum" => Optimizer::Momentum {
            lr: a.hparam_f32_bits("ckpt.opt.lr_bits")?,
            beta: a.hparam_f32_bits("ckpt.opt.beta_bits")?,
            velocity: Vec::new(),
        },
        "adam" => Optimizer::Adam {
            lr: a.hparam_f32_bits("ckpt.opt.lr_bits")?,
            beta1: a.hparam_f32_bits("ckpt.opt.beta1_bits")?,
            beta2: a.hparam_f32_bits("ckpt.opt.beta2_bits")?,
            eps: a.hparam_f32_bits("ckpt.opt.eps_bits")?,
            t: a.hparam_u64("ckpt.opt.t")?,
            m: Vec::new(),
            v: Vec::new(),
        },
        other => {
            return Err(StoreError::Corrupt(format!(
                "unknown optimizer kind {other:?}"
            )))
        }
    };
    let cursor_bytes = match a.hparam("ckpt.cursors") {
        Some(HParam::Bytes(raw)) => raw,
        _ => {
            return Err(StoreError::Corrupt(
                "missing or mistyped ckpt.cursors".to_string(),
            ))
        }
    };
    if cursor_bytes.len() % 8 != 0 {
        return Err(StoreError::Corrupt(format!(
            "cursor bytes not a multiple of 8: {}",
            cursor_bytes.len()
        )));
    }
    let cursors = cursor_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect();
    let params = a.tensor_f32("ckpt.params")?.data().to_vec();
    Ok(CheckpointData {
        step,
        params,
        optimizer,
        cursors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(optimizer: Optimizer) -> CheckpointData {
        CheckpointData {
            step: 4217,
            params: (0..257).map(|i| (i as f32 * 0.37 - 11.0).sin()).collect(),
            optimizer,
            cursors: vec![272, 272, 256, 0, u64::MAX],
        }
    }

    #[test]
    fn every_optimizer_roundtrips_exactly() {
        let mut adam = Optimizer::adam(1e-3);
        if let Optimizer::Adam { t, .. } = &mut adam {
            *t = 999;
        }
        for opt in [Optimizer::sgd(0.05), Optimizer::momentum(0.01), adam] {
            let data = sample(opt);
            let bytes = save_checkpoint(&data);
            let back = load_checkpoint(&bytes).expect("valid artifact");
            assert_eq!(back.step, data.step);
            assert_eq!(back.cursors, data.cursors);
            assert_eq!(back.params.len(), data.params.len());
            for (x, y) in data.params.iter().zip(&back.params) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            // Re-save is byte-identical.
            assert_eq!(save_checkpoint(&back), bytes);
        }
    }

    #[test]
    fn network_artifacts_are_not_checkpoints() {
        let net = dl_nn::Network::mlp(&[3, 4, 2], &mut dl_tensor::init::rng(1));
        let bytes = crate::network::save_network(&net);
        assert!(matches!(
            load_checkpoint(&bytes),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupted_checkpoint_is_detected() {
        let data = sample(Optimizer::sgd(0.1));
        let mut bytes = save_checkpoint(&data);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(load_checkpoint(&bytes).is_err());
    }
}
