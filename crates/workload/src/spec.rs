//! The Table 3 experiment parameters.

/// The query-graph composition mix of Table 3: how many direct queries of
/// each operator combination the workload contains
/// (`Single FB : Single MB : Single AB : FB+MB : FB+AB : MB+AB : FB+MB+AB`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompositionMix {
    /// Queries with a single filter box.
    pub fb: usize,
    /// Queries with a single map box.
    pub mb: usize,
    /// Queries with a single aggregation box.
    pub ab: usize,
    /// Filter + map.
    pub fb_mb: usize,
    /// Filter + aggregation.
    pub fb_ab: usize,
    /// Map + aggregation.
    pub mb_ab: usize,
    /// Filter + map + aggregation.
    pub fb_mb_ab: usize,
}

impl CompositionMix {
    /// The exact Table 3 mix: `160:170:130:124:254:290:372`.
    #[must_use]
    pub fn table3() -> Self {
        CompositionMix {
            fb: 160,
            mb: 170,
            ab: 130,
            fb_mb: 124,
            fb_ab: 254,
            mb_ab: 290,
            fb_mb_ab: 372,
        }
    }

    /// A small mix with the same proportions, for quick tests.
    #[must_use]
    pub fn small() -> Self {
        CompositionMix { fb: 16, mb: 17, ab: 13, fb_mb: 12, fb_ab: 25, mb_ab: 29, fb_mb_ab: 37 }
    }

    /// Total number of queries described by the mix.
    #[must_use]
    pub fn total(&self) -> usize {
        self.fb + self.mb + self.ab + self.fb_mb + self.fb_ab + self.mb_ab + self.fb_mb_ab
    }

    /// The mix as `(label, count)` pairs in Table 3 order.
    #[must_use]
    pub fn as_pairs(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("FB", self.fb),
            ("MB", self.mb),
            ("AB", self.ab),
            ("FB+MB", self.fb_mb),
            ("FB+AB", self.fb_ab),
            ("MB+AB", self.mb_ab),
            ("FB+MB+AB", self.fb_mb_ab),
        ]
    }
}

/// All parameters of the Section 4.2 experiments (Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of direct queries (`nDirectQueries` = 1500).
    pub n_direct_queries: usize,
    /// Composition of the generated query graphs (`directQueryDist`).
    pub composition: CompositionMix,
    /// Number of unique policies (`nPolicies` = 1000).
    pub n_policies: usize,
    /// Number of matching requests (`nRequests` = 1500).
    pub n_requests: usize,
    /// Zipf skew parameter (α = 0.223).
    pub zipf_alpha: f64,
    /// Maximum rank of unique requests the Zipf distribution draws from
    /// (`maxRank` = 300).
    pub max_rank: usize,
    /// RNG seed (not in the paper; added for reproducibility).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec::table3()
    }
}

impl WorkloadSpec {
    /// The exact Table 3 parameters.
    #[must_use]
    pub fn table3() -> Self {
        WorkloadSpec {
            n_direct_queries: 1500,
            composition: CompositionMix::table3(),
            n_policies: 1000,
            n_requests: 1500,
            zipf_alpha: 0.223,
            max_rank: 300,
            seed: 2012,
        }
    }

    /// A scaled-down spec with the same structure, for fast tests and smoke
    /// runs (~10% of the full size).
    #[must_use]
    pub fn small() -> Self {
        WorkloadSpec {
            n_direct_queries: 150,
            composition: CompositionMix::small(),
            n_policies: 100,
            n_requests: 150,
            zipf_alpha: 0.223,
            max_rank: 30,
            seed: 2012,
        }
    }

    /// Render the spec as the rows of Table 3 (name, value, description).
    #[must_use]
    pub fn table_rows(&self) -> Vec<(String, String, String)> {
        let mix = self
            .composition
            .as_pairs()
            .iter()
            .map(|(_, n)| n.to_string())
            .collect::<Vec<_>>()
            .join(":");
        vec![
            (
                "nDirectQueries".into(),
                self.n_direct_queries.to_string(),
                "number of direct queries".into(),
            ),
            (
                "directQueryDist".into(),
                mix,
                "query graph composition (Single FB : Single MB : Single AB : FB+MB : FB+AB : MB+AB : FB+MB+AB)".into(),
            ),
            ("nPolicies".into(), self.n_policies.to_string(), "number of unique policies".into()),
            ("nRequests".into(), self.n_requests.to_string(), "number of matching requests".into()),
            ("alpha".into(), self.zipf_alpha.to_string(), "skew parameter for Zipf distribution".into()),
            (
                "maxRank".into(),
                self.max_rank.to_string(),
                "maximum rank of unique requests from which Zipf distribution is generated".into(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_mix_sums_to_1500() {
        let mix = CompositionMix::table3();
        assert_eq!(mix.total(), 1500);
        assert_eq!(mix.as_pairs().len(), 7);
        assert_eq!(mix.as_pairs()[6], ("FB+MB+AB", 372));
    }

    #[test]
    fn table3_spec_matches_paper() {
        let spec = WorkloadSpec::table3();
        assert_eq!(spec.n_direct_queries, 1500);
        assert_eq!(spec.n_policies, 1000);
        assert_eq!(spec.n_requests, 1500);
        assert!((spec.zipf_alpha - 0.223).abs() < 1e-12);
        assert_eq!(spec.max_rank, 300);
        assert_eq!(spec, WorkloadSpec::default());
    }

    #[test]
    fn table_rows_render_the_mix() {
        let rows = WorkloadSpec::table3().table_rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[1].1, "160:170:130:124:254:290:372");
    }

    #[test]
    fn small_spec_keeps_structure() {
        let spec = WorkloadSpec::small();
        assert!(spec.composition.total() >= 100);
        assert!(spec.n_policies < WorkloadSpec::table3().n_policies);
    }
}
