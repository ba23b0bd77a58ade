//! Hyperparameters for CircuitVAE (paper defaults where stated).

use serde::{Deserialize, Serialize};

/// Encoder/decoder architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelArch {
    /// CNN encoder (two stride-2 convs) + deconv-style decoder
    /// (linear → upsample → conv ×2) — the paper's architecture (§5.1),
    /// scaled down.
    Cnn {
        /// Base channel count (second conv uses 2×).
        channels: usize,
        /// Hidden width of the dense stages.
        hidden: usize,
    },
    /// MLP encoder/decoder over the flattened grid — faster, used for
    /// small widths and smoke tests.
    Mlp {
        /// Hidden width.
        hidden: usize,
    },
}

/// Initialization strategy for latent search trajectories (§4.2 and the
/// Fig. 4 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InitStrategy {
    /// Cost-weighted sampling from the dataset (the paper's method).
    CostWeighted,
    /// Sample latents from the prior N(0, I).
    Prior,
    /// Encode the Sklansky adder every time.
    Sklansky,
}

/// Regularization used during latent gradient descent (§4.2 and Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SearchRegularizer {
    /// Prior regularization `g(z) = f(z) + γ·½‖z‖²` with γ drawn
    /// log-uniformly from the given range per trajectory (paper default
    /// range: 0.01..0.1).
    PriorLogUniform {
        /// Lower γ bound.
        lo: f64,
        /// Upper γ bound.
        hi: f64,
    },
    /// Fixed γ (used by the Fig. 5 sweep).
    PriorFixed {
        /// The γ value.
        gamma: f64,
    },
    /// Tripp et al.'s box constraint: clip each latent coordinate to
    /// `[-r, r]` after every step, no prior term (ablation).
    Box {
        /// Box half-width.
        radius: f64,
    },
    /// No regularization at all (ablation; expected to over-optimize the
    /// cost predictor).
    None,
}

/// Full CircuitVAE configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitVaeConfig {
    /// Latent dimensionality.
    pub latent_dim: usize,
    /// Encoder/decoder architecture.
    pub arch: ModelArch,
    /// β on the KL term (paper: 0.01).
    pub beta: f64,
    /// λ on the cost-prediction loss (paper: 10.0).
    pub lambda: f64,
    /// Rank-weighting k (paper: 1e-3). Smaller = greedier.
    pub rank_k: f64,
    /// Whether to apply rank-based data reweighting (Fig. 4 ablation).
    pub reweight_data: bool,
    /// Minibatch size.
    pub batch_size: usize,
    /// Gradient steps per data-acquisition round.
    pub train_steps_per_round: usize,
    /// Extra gradient steps for the first round (cold start).
    pub warmup_steps: usize,
    /// Adam learning rate for model training.
    pub lr: f32,
    /// Worker threads (gradient-accumulation chunks) for data-parallel
    /// training.
    pub threads: usize,
    /// Number of parallel latent-search trajectories (m in Alg. 1).
    pub trajectories: usize,
    /// Gradient-descent steps per trajectory (T in Alg. 1).
    pub search_steps: usize,
    /// Capture interval along each trajectory (t in Alg. 1).
    pub capture_every: usize,
    /// Learning rate for latent gradient descent.
    pub search_lr: f64,
    /// Trajectory initialization strategy.
    pub init: InitStrategy,
    /// Latent-descent regularization.
    pub regularizer: SearchRegularizer,
    /// Cost-predictor hidden width (2-layer MLP head, §5.1).
    pub cost_head_hidden: usize,
}

impl CircuitVaeConfig {
    /// Paper-faithful defaults scaled to CPU budgets, for `width`-bit
    /// circuits.
    pub fn for_width(width: usize) -> Self {
        let arch = if width >= 24 {
            ModelArch::Cnn {
                channels: 6,
                hidden: 128,
            }
        } else {
            ModelArch::Mlp { hidden: 128 }
        };
        CircuitVaeConfig {
            latent_dim: 24,
            arch,
            beta: 0.01,
            lambda: 10.0,
            rank_k: 1e-3,
            reweight_data: true,
            batch_size: 64,
            train_steps_per_round: 60,
            warmup_steps: 200,
            lr: 1e-3,
            threads: 8,
            trajectories: 16,
            search_steps: 50,
            capture_every: 10,
            search_lr: 0.1,
            init: InitStrategy::CostWeighted,
            regularizer: SearchRegularizer::PriorLogUniform { lo: 0.01, hi: 0.1 },
            cost_head_hidden: 64,
        }
    }

    /// A small, fast configuration for tests and criterion smoke benches.
    pub fn smoke(width: usize) -> Self {
        CircuitVaeConfig {
            latent_dim: 8,
            arch: ModelArch::Mlp { hidden: 48 },
            batch_size: 16,
            train_steps_per_round: 15,
            warmup_steps: 40,
            threads: 4,
            trajectories: 8,
            search_steps: 20,
            capture_every: 5,
            ..Self::for_width(width)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = CircuitVaeConfig::for_width(32);
        assert_eq!(c.beta, 0.01);
        assert_eq!(c.lambda, 10.0);
        assert_eq!(c.rank_k, 1e-3);
        assert!(matches!(
            c.regularizer,
            SearchRegularizer::PriorLogUniform { lo, hi } if lo == 0.01 && hi == 0.1
        ));
        assert!(matches!(c.arch, ModelArch::Cnn { .. }));
    }

    #[test]
    fn small_widths_use_mlp() {
        assert!(matches!(
            CircuitVaeConfig::for_width(12).arch,
            ModelArch::Mlp { .. }
        ));
    }
}
