//! Experiment scale presets.
//!
//! The paper evaluates at 1M–1B vectors on a 2×Xeon server; the reproduction
//! runs the same pipelines at a proportional laptop scale (DESIGN.md §4).
//! `RPQ_SCALE=ci|small|full` selects a preset; `small` is the default.

/// Sizing knobs shared by all experiments.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Base vectors per dataset.
    pub n_base: usize,
    /// Held-out queries.
    pub n_query: usize,
    /// recall@k cut-off (the paper reports recall@10).
    pub k: usize,
    /// Beam widths swept for QPS-vs-recall curves.
    pub efs: Vec<usize>,
    /// Codewords per sub-codebook (paper: 256).
    pub kk: usize,
    /// PQ chunks M.
    pub m: usize,
    /// Dataset sizes for the scalability experiments (stand-in for the
    /// paper's 1M→1B axis).
    pub scalability_sizes: Vec<usize>,
    /// RPQ training epochs / steps per epoch for experiment runs.
    pub rpq_epochs: usize,
    pub rpq_steps: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// Tiny preset for CI and integration tests (~seconds).
    pub fn ci() -> Self {
        Self {
            n_base: 1200,
            n_query: 30,
            k: 10,
            efs: vec![10, 30, 90],
            kk: 32,
            m: 8,
            scalability_sizes: vec![400, 800, 1600],
            rpq_epochs: 2,
            rpq_steps: 8,
            seed: 42,
        }
    }

    /// Default preset (~minutes for the full suite).
    pub fn small() -> Self {
        Self {
            n_base: 6000,
            n_query: 100,
            k: 10,
            efs: vec![10, 20, 40, 80, 160, 320],
            // At reproduction scale (6k points) K=256 over-provisions the
            // quantizer and saturates every method at the same ADC ceiling;
            // K=64 reproduces the paper's operating regime, where code
            // capacity is small relative to dataset complexity (8-byte
            // codes vs 1M-1B vectors). The K=256 points appear in the K/M
            // sensitivity grid (fig9/fig10).
            kk: 64,
            m: 8,
            scalability_sizes: vec![1000, 4000, 12000, 30000],
            rpq_epochs: 3,
            rpq_steps: 15,
            seed: 42,
        }
    }

    /// Larger preset for overnight runs.
    pub fn full() -> Self {
        Self {
            n_base: 50_000,
            n_query: 500,
            k: 10,
            efs: vec![10, 20, 40, 80, 160, 320, 640],
            kk: 256,
            m: 8,
            scalability_sizes: vec![5000, 20_000, 80_000, 200_000],
            rpq_epochs: 4,
            rpq_steps: 25,
            seed: 42,
        }
    }

    /// Reads `RPQ_SCALE`: unset is `small`; a set value must name a preset,
    /// otherwise the error lists the accepted values (a typo must not run
    /// the minutes-long default silently).
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("RPQ_SCALE") {
            Ok(name) => Self::from_name(&name),
            Err(std::env::VarError::NotPresent) => Ok(Self::small()),
            Err(e) => Err(format!("RPQ_SCALE: {e}")),
        }
    }

    fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "ci" => Ok(Self::ci()),
            "small" => Ok(Self::small()),
            "full" => Ok(Self::full()),
            _ => Err(format!(
                "unknown RPQ_SCALE value: {name:?} (accepted: ci, small, full)"
            )),
        }
    }

    /// Name for report headers.
    pub fn label(&self) -> String {
        format!(
            "n={}, q={}, K={}, M={}",
            self.n_base, self.n_query, self.kk, self.m
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered() {
        assert!(Scale::ci().n_base < Scale::small().n_base);
        assert!(Scale::small().n_base < Scale::full().n_base);
    }

    #[test]
    fn env_fallback_is_small() {
        std::env::remove_var("RPQ_SCALE");
        assert_eq!(Scale::from_env().unwrap().n_base, Scale::small().n_base);
    }

    #[test]
    fn unknown_scale_names_are_rejected_not_defaulted() {
        assert_eq!(Scale::from_name("ci").unwrap().n_base, Scale::ci().n_base);
        for typo in ["CI", "smal", ""] {
            let err = Scale::from_name(typo).unwrap_err();
            assert!(err.contains("ci, small, full"), "{err}");
        }
    }
}
