//! Synthetic province population generator.
//!
//! Companies are organized into disjoint *conglomerate clusters*: each
//! cluster has a root company and an investment DAG (a random recursive
//! tree plus a few extra arcs) reaching every member, so any two companies
//! of one cluster share an ancestor — exactly the condition that makes a
//! trading arc between them suspicious.  Clusters are antecedent-disjoint
//! (no shared persons or investments), so the expected suspicious fraction
//! of a uniform random trading network is
//!
//! ```text
//!   sum_i s_i (s_i - 1)  /  n (n - 1)
//! ```
//!
//! over cluster sizes `s_i`.  The default [`ProvinceConfig`] matches the
//! paper's node counts (776 directors, 1350 legal persons, 2452
//! companies) and calibrates the cluster-size spectrum to ≈5.2 %,
//! inside Table 1's observed 4.92–5.35 % band.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tpiin_model::{
    CompanyId, InfluenceKind, InfluenceRecord, InterdependenceKind, InvestmentRecord, PersonId,
    Role, RoleSet, SourceRegistry,
};

/// Parameters of the synthetic province.
#[derive(Clone, Debug)]
pub struct ProvinceConfig {
    /// Number of director persons (paper: 776).
    pub directors: usize,
    /// Number of legal-person persons (paper: 1350).
    pub legal_persons: usize,
    /// Number of companies (paper: 2452).
    pub companies: usize,
    /// Conglomerate size spectrum as `(count, size)` pairs; companies not
    /// covered become singleton clusters.
    pub cluster_spec: Vec<(usize, usize)>,
    /// Probability that a non-root cluster company receives a second
    /// investment arc (extra DAG paths -> more groups per arc).
    pub extra_investment_prob: f64,
    /// Kinship edges to draw between persons of the same cluster.
    pub kinship_edges: usize,
    /// Interlocking edges to draw between directors of the same cluster.
    pub interlocking_edges: usize,
    /// Mutual-investment pairs (two-company SCCs) to plant, exercising the
    /// SCC-contraction path; the paper's province had none.
    pub investment_cycles: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ProvinceConfig {
    fn default() -> Self {
        ProvinceConfig {
            directors: 776,
            legal_persons: 1350,
            companies: 2452,
            // sum s(s-1) = 311_060 over 2452 companies => 5.17 % of the
            // 2452*2451 ordered pairs are co-influenced.
            cluster_spec: vec![(2, 300), (3, 160), (5, 80), (10, 40), (20, 20), (30, 5)],
            extra_investment_prob: 0.21,
            kinship_edges: 150,
            interlocking_edges: 120,
            investment_cycles: 0,
            seed: 20170417,
        }
    }
}

impl ProvinceConfig {
    /// A proportionally scaled-down province (for fast tests/benches):
    /// all entity counts and cluster counts multiplied by `factor`.
    pub fn scaled(factor: f64) -> Self {
        let d = ProvinceConfig::default();
        let s = |x: usize| ((x as f64 * factor).round() as usize).max(1);
        let companies = s(d.companies);
        ProvinceConfig {
            directors: s(d.directors),
            legal_persons: s(d.legal_persons),
            companies,
            // Keep the size *spectrum* but cap cluster sizes so one
            // conglomerate cannot swallow the scaled-down province.
            cluster_spec: d
                .cluster_spec
                .iter()
                .map(|&(count, size)| (s(count), size.min((companies / 4).max(2))))
                .collect(),
            kinship_edges: s(d.kinship_edges),
            interlocking_edges: s(d.interlocking_edges),
            ..d
        }
    }

    /// Expected fraction (0–1) of ordered company pairs that are
    /// co-influenced, i.e. the expected suspicious trading percentage.
    pub fn expected_suspicious_fraction(&self) -> f64 {
        let n = self.companies as f64;
        let mut covered = 0usize;
        let mut pairs = 0f64;
        for &(count, size) in &self.cluster_spec {
            for _ in 0..count {
                if covered + size > self.companies {
                    break;
                }
                covered += size;
                pairs += (size * (size - 1)) as f64;
            }
        }
        pairs / (n * (n - 1.0))
    }
}

/// Generates the synthetic province registry (no trading records; add a
/// trading network with [`crate::add_random_trading`]).
pub fn generate_province(config: &ProvinceConfig) -> SourceRegistry {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut registry = SourceRegistry::new();

    // --- Persons: legal persons first, then directors. ---
    let lp_roles = [
        RoleSet::of(&[Role::Ceo]),
        RoleSet::of(&[Role::Ceo, Role::Director]),
        RoleSet::of(&[Role::Chairman]),
        RoleSet::of(&[Role::Ceo, Role::Chairman]),
    ];
    let lps: Vec<PersonId> = (0..config.legal_persons)
        .map(|i| registry.add_person(format!("L{i}"), lp_roles[rng.gen_range(0..lp_roles.len())]))
        .collect();
    let director_roles = [
        RoleSet::of(&[Role::Director]),
        RoleSet::of(&[Role::Director, Role::Shareholder]),
        RoleSet::of(&[Role::Shareholder]),
    ];
    let directors: Vec<PersonId> = (0..config.directors)
        .map(|i| {
            registry.add_person(
                format!("D{i}"),
                director_roles[rng.gen_range(0..director_roles.len())],
            )
        })
        .collect();

    // --- Companies and clusters. ---
    let companies: Vec<CompanyId> = (0..config.companies)
        .map(|i| registry.add_company(format!("C{i}")))
        .collect();
    let mut clusters: Vec<Vec<CompanyId>> = Vec::new();
    let mut next = 0usize;
    for &(count, size) in &config.cluster_spec {
        for _ in 0..count {
            if next + size > config.companies {
                break;
            }
            clusters.push(companies[next..next + size].to_vec());
            next += size;
        }
    }
    while next < config.companies {
        clusters.push(vec![companies[next]]);
        next += 1;
    }

    // --- Investment DAG per cluster: random recursive tree + extras. ---
    for cluster in &clusters {
        for k in 1..cluster.len() {
            let parent = cluster[rng.gen_range(0..k.min(25))];
            registry.add_investment(InvestmentRecord {
                investor: parent,
                investee: cluster[k],
                share: rng.gen_range(0.3..=1.0),
            });
            if k >= 2 && rng.gen_bool(config.extra_investment_prob) {
                let second = cluster[rng.gen_range(0..k)];
                if second != parent {
                    registry.add_investment(InvestmentRecord {
                        investor: second,
                        investee: cluster[k],
                        share: rng.gen_range(0.05..0.3),
                    });
                }
            }
        }
    }

    // --- Legal persons: each serves 1..=3 companies of a single cluster.
    // Clusters are walked in order; LPs are consumed round-robin so all
    // 1350 appear.  If LPs run short the pool wraps around.
    let mut lp_cursor = 0usize;
    let mut lp_cluster: Vec<Option<usize>> = vec![None; lps.len()];
    let mut person_cluster: std::collections::HashMap<PersonId, usize> =
        std::collections::HashMap::new();
    // Budget so the LP pool stretches over all companies: average
    // companies-per-LP, randomized 1..=3.
    for (ci, cluster) in clusters.iter().enumerate() {
        let mut pending = cluster.as_slice();
        while !pending.is_empty() {
            let lp = lps[lp_cursor % lps.len()];
            lp_cluster[lp_cursor % lps.len()] = Some(ci);
            lp_cursor += 1;
            let remaining_companies = (config.companies
                - (companies.len() - remaining_after(&clusters, ci, pending)))
            .max(1);
            let remaining_lps = lps.len().saturating_sub(lp_cursor) + 1;
            let avg = (remaining_companies as f64 / remaining_lps as f64).ceil() as usize;
            let take = rng.gen_range(1..=avg.clamp(1, 3)).min(pending.len());
            // Pick the influence subclass consistent with the LP's roles
            // (strict validation checks this).
            let lp_kind = if registry.person(lp).roles.contains(Role::Ceo) {
                InfluenceKind::CeoOf
            } else {
                InfluenceKind::ChairmanOf
            };
            for &c in &pending[..take] {
                registry.add_influence(InfluenceRecord {
                    person: lp,
                    company: c,
                    kind: lp_kind,
                    is_legal_person: true,
                });
            }
            person_cluster.insert(lp, ci);
            pending = &pending[take..];
        }
    }

    // --- Directors: 1..=3 directorships inside one random cluster. ---
    // Weight cluster choice by size so big conglomerates get real boards.
    let cluster_weights: Vec<usize> = clusters.iter().map(|c| c.len()).collect();
    let total_weight: usize = cluster_weights.iter().sum();
    for &d in &directors {
        let mut pick = rng.gen_range(0..total_weight);
        let mut ci = 0;
        for (i, &w) in cluster_weights.iter().enumerate() {
            if pick < w {
                ci = i;
                break;
            }
            pick -= w;
        }
        let cluster = &clusters[ci];
        let seats = rng.gen_range(1..=2usize).min(cluster.len());
        let mut targets = cluster.clone();
        targets.shuffle(&mut rng);
        for &c in &targets[..seats] {
            registry.add_influence(InfluenceRecord {
                person: d,
                company: c,
                kind: InfluenceKind::DirectorOf,
                is_legal_person: false,
            });
        }
        person_cluster.insert(d, ci);
    }

    // --- Interdependence edges, kept inside clusters. ---
    let mut by_cluster: Vec<Vec<PersonId>> = vec![Vec::new(); clusters.len()];
    for (&p, &ci) in &person_cluster {
        by_cluster[ci].push(p);
    }
    for members in &mut by_cluster {
        members.sort_unstable(); // HashMap order is nondeterministic
    }
    let eligible: Vec<usize> = (0..clusters.len())
        .filter(|&ci| by_cluster[ci].len() >= 2)
        .collect();
    let draw_edges = |rng: &mut StdRng,
                      registry: &mut SourceRegistry,
                      count: usize,
                      kind: InterdependenceKind| {
        let mut placed = 0;
        let mut attempts = 0;
        while placed < count && attempts < count * 20 {
            attempts += 1;
            let ci = eligible[rng.gen_range(0..eligible.len())];
            let members = &by_cluster[ci];
            let a = members[rng.gen_range(0..members.len())];
            let b = members[rng.gen_range(0..members.len())];
            if a != b && registry.add_interdependence(a, b, kind) {
                placed += 1;
            }
        }
    };
    draw_edges(
        &mut rng,
        &mut registry,
        config.kinship_edges,
        InterdependenceKind::Kinship,
    );
    draw_edges(
        &mut rng,
        &mut registry,
        config.interlocking_edges,
        InterdependenceKind::Interlocking,
    );

    // --- Optional mutual-investment cycles (SCC exercise). ---
    for cluster in clusters
        .iter()
        .filter(|c| c.len() >= 3)
        .take(config.investment_cycles)
    {
        // Close a cycle: the last company invests back into the root.
        registry.add_investment(InvestmentRecord {
            investor: *cluster.last().expect("cluster non-empty"),
            investee: cluster[0],
            share: 0.2,
        });
    }

    debug_assert!(registry.validate().is_ok());
    registry
}

/// Companies still pending across clusters `ci..` given `pending` left in
/// cluster `ci` — used to stretch the LP pool across the whole province.
fn remaining_after(clusters: &[Vec<CompanyId>], ci: usize, pending: &[CompanyId]) -> usize {
    pending.len() + clusters[ci + 1..].iter().map(Vec::len).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_counts() {
        let c = ProvinceConfig::default();
        assert_eq!(c.directors, 776);
        assert_eq!(c.legal_persons, 1350);
        assert_eq!(c.companies, 2452);
        assert_eq!(c.directors + c.legal_persons + c.companies, 4578);
        let f = c.expected_suspicious_fraction();
        assert!((0.045..0.057).contains(&f), "calibrated fraction {f}");
    }

    #[test]
    fn generated_registry_validates_and_has_exact_counts() {
        let config = ProvinceConfig::scaled(0.1);
        let r = generate_province(&config);
        assert!(r.validate().is_ok());
        assert_eq!(r.person_count(), config.directors + config.legal_persons);
        assert_eq!(r.company_count(), config.companies);
        assert!(r.investments().len() >= config.companies - 200);
        assert!(!r.interdependencies().is_empty());
    }

    #[test]
    fn generated_registry_passes_strict_validation() {
        let r = generate_province(&ProvinceConfig::scaled(0.1));
        assert!(r.validate_strict().is_ok());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = ProvinceConfig {
            seed: 7,
            ..ProvinceConfig::scaled(0.05)
        };
        let a = generate_province(&config);
        let b = generate_province(&config);
        assert_eq!(a.investments().len(), b.investments().len());
        assert_eq!(a.influences(), b.influences());
        assert_eq!(a.interdependencies(), b.interdependencies());
        let c = generate_province(&ProvinceConfig { seed: 8, ..config });
        assert!(
            a.influences() != c.influences(),
            "different seed, different data"
        );
    }

    #[test]
    fn every_company_has_exactly_one_legal_person() {
        let r = generate_province(&ProvinceConfig::scaled(0.08));
        let lps = r.legal_persons();
        assert!(lps.iter().all(Option::is_some));
    }

    #[test]
    fn investment_cycles_knob_plants_sccs() {
        let config = ProvinceConfig {
            investment_cycles: 2,
            ..ProvinceConfig::scaled(0.1)
        };
        let r = generate_province(&config);
        let mut members = vec![0usize; r.company_count()];
        for rep in tpiin_fusion::company_scc_reps(&r) {
            members[rep as usize] += 1;
        }
        let nontrivial = members.iter().filter(|&&m| m >= 2).count();
        assert_eq!(nontrivial, 2);
    }

    #[test]
    fn scaled_config_shrinks_proportionally() {
        let c = ProvinceConfig::scaled(0.5);
        assert_eq!(c.directors, 388);
        assert_eq!(c.legal_persons, 675);
        assert_eq!(c.companies, 1226);
    }
}
