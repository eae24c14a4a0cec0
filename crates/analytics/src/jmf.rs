//! Joint Matrix Factorization (JMF) for drug repositioning.
//!
//! Implements the unified framework of the paper's Fig. 9 (Zhang, Wang &
//! Hu, AMIA 2014): drugs and diseases get shared latent factors `U`, `V`
//! that must simultaneously explain
//!
//! 1. the known drug–disease association matrix `R ≈ U Vᵀ`,
//! 2. every drug-similarity source `S_i ≈ U Uᵀ` (chemical structure,
//!    target proteins, side effects), and
//! 3. every disease-similarity source `T_j ≈ V Vᵀ` (phenotype, ontology,
//!    disease genes),
//!
//! with *learned, interpretable source weights* `w_i`, `z_j` on the
//! simplex — the paper's novel aspect (2) — and drug/disease *group
//! discovery* as a by-product of clustering the factors — novel aspect
//! (3). The objective is minimized by full-batch gradient descent with
//! periodic multiplicative weight updates.

use crate::kmeans;
use crate::matrix::Mat;
use crate::mf::weighted_residual;

/// JMF hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct JmfConfig {
    /// Latent dimensionality.
    pub k: usize,
    /// Gradient step size.
    pub lr: f64,
    /// L2 regularization.
    pub reg: f64,
    /// Iterations.
    pub iters: usize,
    /// Weight of implicit-negative association entries.
    pub negative_weight: f64,
    /// Strength of the drug-similarity terms (α).
    pub alpha: f64,
    /// Strength of the disease-similarity terms (β).
    pub beta: f64,
    /// Temperature of the multiplicative source-weight update; lower =
    /// sharper weight concentration on the best-fitting source.
    pub weight_temperature: f64,
    /// Learn source weights (false = fixed uniform, the ablation of E8).
    pub learn_weights: bool,
}

impl Default for JmfConfig {
    fn default() -> Self {
        JmfConfig {
            k: 10,
            lr: 0.004,
            reg: 0.05,
            iters: 200,
            negative_weight: 0.1,
            alpha: 0.15,
            beta: 0.15,
            weight_temperature: 1.0,
            learn_weights: true,
        }
    }
}

/// A trained JMF model.
#[derive(Clone, Debug)]
pub struct JmfModel {
    /// Drug factors, `n × k`.
    pub u: Mat,
    /// Disease factors, `m × k`.
    pub v: Mat,
    /// Learned drug-source weights (sum to 1).
    pub drug_weights: Vec<f64>,
    /// Learned disease-source weights (sum to 1).
    pub disease_weights: Vec<f64>,
    /// Final association-reconstruction loss.
    pub final_loss: f64,
}

impl JmfModel {
    /// Predicted association score.
    pub fn score(&self, drug: usize, disease: usize) -> f64 {
        self.u
            .row(drug)
            .iter()
            .zip(self.v.row(disease))
            .map(|(a, b)| a * b)
            .sum()
    }

    /// The full predicted score matrix.
    pub fn score_matrix(&self) -> Mat {
        self.u.matmul(&self.v.transpose())
    }

    /// Discovers `n_groups` drug groups by clustering rows of `U`.
    pub fn drug_groups(&self, n_groups: usize, seed: u64) -> Vec<usize> {
        let points: Vec<Vec<f64>> = (0..self.u.rows()).map(|i| self.u.row(i).to_vec()).collect();
        kmeans::kmeans(&points, n_groups, 50, seed).assignments
    }
}

fn sim_to_mat(sim: &[Vec<f64>]) -> Mat {
    Mat::from_rows(sim)
}

/// `‖S − F Fᵀ‖²` and its gradient contribution `−4 (S − F Fᵀ) F`.
fn sim_loss_and_grad(s: &Mat, f: &Mat) -> (f64, Mat) {
    let approx = f.matmul(&f.transpose());
    let mut diff = s.clone();
    diff.sub_scaled(&approx, 1.0);
    let loss = diff.frobenius().powi(2);
    let mut grad = diff.matmul(f);
    grad.scale(-4.0);
    (loss, grad)
}

/// Fits JMF.
///
/// # Panics
///
/// Panics on shape mismatches between `r` and the similarity sources.
pub fn fit(
    r: &[Vec<bool>],
    drug_sims: &[Vec<Vec<f64>>],
    disease_sims: &[Vec<Vec<f64>>],
    config: &JmfConfig,
    seed: u64,
) -> JmfModel {
    assert!(!r.is_empty() && !r[0].is_empty(), "matrix must be nonempty");
    let n = r.len();
    let m = r[0].len();
    for s in drug_sims {
        assert_eq!(s.len(), n, "drug similarity must be n × n");
    }
    for t in disease_sims {
        assert_eq!(t.len(), m, "disease similarity must be m × m");
    }

    let drug_sim_mats: Vec<Mat> = drug_sims.iter().map(|s| sim_to_mat(s)).collect();
    let disease_sim_mats: Vec<Mat> = disease_sims.iter().map(|s| sim_to_mat(s)).collect();

    let mut rng = hc_common::rng::seeded_stream(seed, 606);
    let mut u = Mat::zeros(n, config.k);
    let mut v = Mat::zeros(m, config.k);
    u.randomize(&mut rng, 0.1);
    v.randomize(&mut rng, 0.1);

    let uniform_d = if drug_sim_mats.is_empty() {
        Vec::new()
    } else {
        vec![1.0 / drug_sim_mats.len() as f64; drug_sim_mats.len()]
    };
    let uniform_s = if disease_sim_mats.is_empty() {
        Vec::new()
    } else {
        vec![1.0 / disease_sim_mats.len() as f64; disease_sim_mats.len()]
    };
    let mut drug_weights = uniform_d.clone();
    let mut disease_weights = uniform_s.clone();

    let iter_hist = crate::telemetry::histogram("analytics.jmf.iter_wall_ns");
    if let Some(fits) = crate::telemetry::counter("analytics.jmf.fits") {
        fits.inc();
    }
    let mut final_loss = f64::INFINITY;
    for iter in 0..config.iters {
        // Feeds `analytics.jmf.iter_wall_ns`: wall time per iteration
        // for solver profiling; no simulated-latency result depends on
        // it. hc-lint: allow(det-wallclock)
        let iter_start = std::time::Instant::now();
        let (res, assoc_loss) = weighted_residual(r, &u, &v, config.negative_weight);
        final_loss = assoc_loss;

        let mut grad_u = res.matmul(&v);
        grad_u.scale(-2.0);
        let mut grad_v = res.transpose().matmul(&u);
        grad_v.scale(-2.0);

        let mut drug_losses = vec![0.0; drug_sim_mats.len()];
        for (idx, s) in drug_sim_mats.iter().enumerate() {
            let (loss, mut grad) = sim_loss_and_grad(s, &u);
            drug_losses[idx] = loss;
            grad.scale(config.alpha * drug_weights[idx]);
            grad_u.add_assign(&grad);
        }
        let mut disease_losses = vec![0.0; disease_sim_mats.len()];
        for (idx, t) in disease_sim_mats.iter().enumerate() {
            let (loss, mut grad) = sim_loss_and_grad(t, &v);
            disease_losses[idx] = loss;
            grad.scale(config.beta * disease_weights[idx]);
            grad_v.add_assign(&grad);
        }

        let mut reg_u = u.clone();
        reg_u.scale(2.0 * config.reg);
        grad_u.add_assign(&reg_u);
        let mut reg_v = v.clone();
        reg_v.scale(2.0 * config.reg);
        grad_v.add_assign(&reg_v);

        u.sub_scaled(&grad_u, config.lr);
        v.sub_scaled(&grad_v, config.lr);

        // Multiplicative source-weight update every 10 iterations: a
        // source that fits the factors better earns more weight.
        if config.learn_weights && iter % 10 == 9 {
            update_weights(&mut drug_weights, &drug_losses, config.weight_temperature, n);
            update_weights(
                &mut disease_weights,
                &disease_losses,
                config.weight_temperature,
                m,
            );
        }
        if let Some(h) = &iter_hist {
            h.record(iter_start.elapsed().as_nanos() as u64);
        }
    }

    JmfModel {
        u,
        v,
        drug_weights,
        disease_weights,
        final_loss,
    }
}

fn update_weights(weights: &mut [f64], losses: &[f64], temperature: f64, dim: usize) {
    if weights.is_empty() {
        return;
    }
    let scale = (dim * dim) as f64; // normalize losses by matrix size
    let mut new: Vec<f64> = weights
        .iter()
        .zip(losses)
        .map(|(w, l)| w * (-l / (scale * temperature.max(1e-9))).exp())
        .collect();
    let sum: f64 = new.iter().sum();
    if sum > 1e-12 {
        for w in &mut new {
            *w /= sum;
        }
        weights.copy_from_slice(&new);
    }
}

/// Scores every non-training pair for hold-out evaluation: returns
/// `(score, is_held_out_positive)` pairs suitable for AUC/AUPR.
pub fn holdout_scores(
    score_matrix: &Mat,
    train: &[Vec<bool>],
    held_out: &[(usize, usize)],
) -> Vec<(f64, bool)> {
    let held: std::collections::HashSet<(usize, usize)> = held_out.iter().copied().collect();
    let mut scored = Vec::new();
    for (i, row) in train.iter().enumerate() {
        for (j, &is_train_pos) in row.iter().enumerate() {
            if is_train_pos {
                continue; // training positives are excluded from eval
            }
            scored.push((score_matrix.get(i, j), held.contains(&(i, j))));
        }
    }
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::auc_roc;
    use hc_kb::biobank::{
        disease_similarity_sources, drug_similarity_sources, Biobank, BiobankConfig,
    };

    fn small_bank() -> Biobank {
        Biobank::generate(
            &BiobankConfig {
                n_drugs: 40,
                n_diseases: 30,
                n_clusters: 4,
                association_rate: 0.08,
                ..BiobankConfig::default()
            },
            21,
        )
    }

    fn fast_config() -> JmfConfig {
        JmfConfig {
            iters: 120,
            k: 8,
            ..JmfConfig::default()
        }
    }

    #[test]
    fn jmf_beats_random_on_holdout() {
        let bank = small_bank();
        let (train, held) = bank.split_associations(0.25, 3);
        let model = fit(
            &train,
            &drug_similarity_sources(&bank),
            &disease_similarity_sources(&bank),
            &fast_config(),
            4,
        );
        let scored = holdout_scores(&model.score_matrix(), &train, &held);
        let auc = auc_roc(&scored);
        assert!(auc > 0.7, "auc={auc}");
    }

    #[test]
    fn jmf_beats_plain_mf_on_holdout() {
        let bank = small_bank();
        let (train, held) = bank.split_associations(0.25, 3);
        let jmf_model = fit(
            &train,
            &drug_similarity_sources(&bank),
            &disease_similarity_sources(&bank),
            &fast_config(),
            4,
        );
        let mf_model = crate::mf::factorize(
            &train,
            &crate::mf::MfConfig {
                k: 8,
                iters: 120,
                ..crate::mf::MfConfig::default()
            },
            4,
        );
        let jmf_auc = auc_roc(&holdout_scores(&jmf_model.score_matrix(), &train, &held));
        let mf_auc = auc_roc(&holdout_scores(&mf_model.score_matrix(), &train, &held));
        assert!(
            jmf_auc > mf_auc - 0.02,
            "jmf={jmf_auc} should not trail mf={mf_auc}"
        );
    }

    #[test]
    fn source_weights_stay_on_simplex() {
        let bank = small_bank();
        let (train, _) = bank.split_associations(0.25, 3);
        let model = fit(
            &train,
            &drug_similarity_sources(&bank),
            &disease_similarity_sources(&bank),
            &fast_config(),
            4,
        );
        let dw: f64 = model.drug_weights.iter().sum();
        let sw: f64 = model.disease_weights.iter().sum();
        assert!((dw - 1.0).abs() < 1e-9, "drug weights sum {dw}");
        assert!((sw - 1.0).abs() < 1e-9);
        assert!(model.drug_weights.iter().all(|&w| w >= 0.0));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn noisy_source_loses_weight() {
        let bank = small_bank();
        let (train, _) = bank.split_associations(0.25, 3);
        let mut sims = drug_similarity_sources(&bank);
        // Replace the side-effect source with pure noise.
        let mut rng = hc_common::rng::seeded(77);
        use rand::Rng;
        let n = bank.drugs.len();
        for i in 0..n {
            for j in 0..n {
                sims[2][i][j] = if i == j { 1.0 } else { rng.gen_range(0.0..1.0) };
            }
        }
        let model = fit(
            &train,
            &sims,
            &disease_similarity_sources(&bank),
            &JmfConfig {
                weight_temperature: 0.1,
                ..fast_config()
            },
            4,
        );
        let noisy = model.drug_weights[2];
        let informative = model.drug_weights[0].max(model.drug_weights[1]);
        assert!(
            noisy < informative,
            "noisy source weight {noisy} vs informative {informative}"
        );
    }

    #[test]
    fn ablation_disables_weight_learning() {
        let bank = small_bank();
        let (train, _) = bank.split_associations(0.25, 3);
        let model = fit(
            &train,
            &drug_similarity_sources(&bank),
            &disease_similarity_sources(&bank),
            &JmfConfig {
                learn_weights: false,
                ..fast_config()
            },
            4,
        );
        for &w in &model.drug_weights {
            assert!((w - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn group_discovery_aligns_with_classes() {
        let bank = small_bank();
        let (train, _) = bank.split_associations(0.1, 3);
        let model = fit(
            &train,
            &drug_similarity_sources(&bank),
            &disease_similarity_sources(&bank),
            &fast_config(),
            4,
        );
        let groups = model.drug_groups(4, 9);
        let truth: Vec<usize> = bank.drugs.iter().map(|d| d.class).collect();
        let purity = crate::kmeans::purity(&groups, &truth);
        assert!(purity > 0.4, "purity={purity} vs random ~0.25");
    }

    #[test]
    fn works_without_similarity_sources() {
        let bank = small_bank();
        let (train, _) = bank.split_associations(0.2, 3);
        let model = fit(&train, &[], &[], &fast_config(), 4);
        assert!(model.drug_weights.is_empty());
        assert!(model.final_loss.is_finite());
    }
}
