//! Typed registry mutations: the delta vocabulary of the streaming
//! ingest path.
//!
//! The paper's deployment story assumes a live CTAIS feed: new
//! companies register, directors change, shareholding structures move,
//! and trading relationships appear daily.  A [`Mutation`] names one
//! such change against a [`SourceRegistry`]; a [`MutationBatch`] groups
//! the mutations that arrive together (one extract drop, one ingest
//! request) and applies them atomically in order.
//!
//! Mutations are *replayable*: applying the same batch sequence to equal
//! registries yields equal registries, which is what lets the delta
//! engine's differential tests compare an incrementally maintained
//! TPIIN against a from-scratch fuse of the mutated registry.

use crate::error::ModelError;
use crate::ids::{CompanyId, PersonId};
use crate::registry::SourceRegistry;
use crate::relationship::{
    InfluenceKind, InfluenceRecord, InterdependenceKind, InvestmentRecord, TradingRecord,
};
use crate::roles::RoleSet;
use serde::{Deserialize, Serialize};

/// One registry change.  Entity ids follow the registry's sequential
/// allocation: `AddPerson`/`AddCompany` assign the next free id, so a
/// batch may reference entities it creates earlier in the same batch.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Mutation {
    /// Register a new person (takes the next [`PersonId`]).
    AddPerson {
        /// Display name.
        name: String,
        /// Position bitset.
        roles: RoleSet,
    },
    /// Register a new company (takes the next [`CompanyId`]) together
    /// with its mandatory legal-person influence arc, so a single-entry
    /// batch already satisfies the exactly-one-LP constraint.
    AddCompany {
        /// Display name.
        name: String,
        /// The registered legal person (must admit the position).
        legal_person: PersonId,
        /// Positional subclass of the legal-person arc.
        kind: InfluenceKind,
    },
    /// Add a person–person interdependence edge (kinship/interlocking).
    /// Duplicate unordered pairs are dropped, as the registry does.
    AddInterdependence {
        /// One endpoint.
        a: PersonId,
        /// The other endpoint.
        b: PersonId,
        /// Which covert relationship backs the edge.
        kind: InterdependenceKind,
    },
    /// Add a Person→Company influence arc (a directorship appointment).
    AddInfluence(InfluenceRecord),
    /// Remove the first influence arc `person → company` (a resignation).
    RemoveInfluence {
        /// The influencing person.
        person: PersonId,
        /// The influenced company.
        company: CompanyId,
    },
    /// Add a Company→Company investment arc.
    AddInvestment(InvestmentRecord),
    /// Remove the first investment arc `investor → investee` (a
    /// divestment).
    RemoveInvestment {
        /// The investing company.
        investor: CompanyId,
        /// The owned company.
        investee: CompanyId,
    },
    /// Add a Company→Company trading arc.
    AddTrading(TradingRecord),
    /// Remove the first trading arc `seller → buyer`.
    RemoveTrading {
        /// The selling company.
        seller: CompanyId,
        /// The buying company.
        buyer: CompanyId,
    },
    /// Record a company's statutory tax rate.
    SetTaxRate {
        /// The company.
        company: CompanyId,
        /// The statutory rate.
        rate: f64,
    },
    /// Deregister a company: every record referencing it is dropped and
    /// later company ids shift down by one.
    RemoveCompany {
        /// The company to deregister.
        company: CompanyId,
    },
    /// Deregister a person: every record referencing them is dropped and
    /// later person ids shift down by one.
    RemovePerson {
        /// The person to deregister.
        person: PersonId,
    },
}

impl Mutation {
    /// Whether this mutation only *appends trading arcs* — the cheap,
    /// antecedent-preserving class the delta engine patches without any
    /// re-contraction.
    pub fn is_trading_append(&self) -> bool {
        matches!(self, Mutation::AddTrading(_))
    }

    /// Whether this mutation registers a company or appends a trading
    /// arc — the two additive shapes that leave every *existing* entity
    /// id (and thus every existing TPIIN node id) untouched.  New
    /// persons don't qualify: the fused network numbers all
    /// person-syndicate nodes before company nodes, so adding a person
    /// renumbers every company node.
    pub fn is_company_append(&self) -> bool {
        matches!(self, Mutation::AddCompany { .. } | Mutation::AddTrading(_))
    }

    /// Applies the mutation to `registry`.  Additions with out-of-range
    /// endpoint ids fail without touching the registry; removals that
    /// match no record are no-ops reported as `Ok(false)`.  `Ok(true)`
    /// means the registry changed.
    pub fn apply(&self, registry: &mut SourceRegistry) -> Result<bool, ModelError> {
        let np = registry.person_count() as u32;
        let nc = registry.company_count() as u32;
        let person_ok = |p: PersonId| {
            if p.0 < np {
                Ok(())
            } else {
                Err(ModelError::UnknownPerson(p))
            }
        };
        let company_ok = |c: CompanyId| {
            if c.0 < nc {
                Ok(())
            } else {
                Err(ModelError::UnknownCompany(c))
            }
        };
        match self {
            Mutation::AddPerson { name, roles } => {
                registry.add_person(name.clone(), *roles);
                Ok(true)
            }
            Mutation::AddCompany {
                name,
                legal_person,
                kind,
            } => {
                person_ok(*legal_person)?;
                let company = registry.add_company(name.clone());
                registry.add_influence(InfluenceRecord {
                    person: *legal_person,
                    company,
                    kind: *kind,
                    is_legal_person: true,
                });
                Ok(true)
            }
            Mutation::AddInterdependence { a, b, kind } => {
                person_ok(*a)?;
                person_ok(*b)?;
                if a == b {
                    return Err(ModelError::SelfInterdependence(*a));
                }
                Ok(registry.add_interdependence(*a, *b, *kind))
            }
            Mutation::AddInfluence(record) => {
                person_ok(record.person)?;
                company_ok(record.company)?;
                registry.add_influence(*record);
                Ok(true)
            }
            Mutation::RemoveInfluence { person, company } => {
                Ok(registry.remove_influence(*person, *company))
            }
            Mutation::AddInvestment(record) => {
                company_ok(record.investor)?;
                company_ok(record.investee)?;
                if record.investor == record.investee {
                    return Err(ModelError::SelfCompanyArc(record.investor));
                }
                registry.add_investment(*record);
                Ok(true)
            }
            Mutation::RemoveInvestment { investor, investee } => {
                Ok(registry.remove_investment(*investor, *investee))
            }
            Mutation::AddTrading(record) => {
                company_ok(record.seller)?;
                company_ok(record.buyer)?;
                if record.seller == record.buyer {
                    return Err(ModelError::SelfCompanyArc(record.seller));
                }
                registry.add_trading(*record);
                Ok(true)
            }
            Mutation::RemoveTrading { seller, buyer } => {
                Ok(registry.remove_trading(*seller, *buyer))
            }
            Mutation::SetTaxRate { company, rate } => {
                company_ok(*company)?;
                registry.set_company_tax_rate(*company, *rate);
                Ok(true)
            }
            Mutation::RemoveCompany { company } => Ok(registry.remove_company(*company)),
            Mutation::RemovePerson { person } => Ok(registry.remove_person(*person)),
        }
    }
}

/// The mutations that arrive together: one ingest request, one extract
/// drop.  Applied in order; the batch is the unit of atomicity and of
/// epoch advancement in the serving layer.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MutationBatch {
    /// The mutations, in arrival order.
    pub mutations: Vec<Mutation>,
}

impl MutationBatch {
    /// A batch over the given mutations.
    pub fn new(mutations: Vec<Mutation>) -> MutationBatch {
        MutationBatch { mutations }
    }

    /// A batch that appends the given trading records — the shape the
    /// legacy `POST /ingest` records body maps onto.
    pub fn trading(records: impl IntoIterator<Item = TradingRecord>) -> MutationBatch {
        MutationBatch {
            mutations: records.into_iter().map(Mutation::AddTrading).collect(),
        }
    }

    /// Whether every mutation is a trading-arc append (the
    /// antecedent-preserving fast path).
    pub fn is_trading_only(&self) -> bool {
        self.mutations.iter().all(Mutation::is_trading_append)
    }

    /// Whether the batch registers companies (and optionally trades)
    /// without adding persons or removing anything: every mutation is
    /// [`Mutation::AddCompany`] or [`Mutation::AddTrading`], with at
    /// least one registration (pure trading batches have their own,
    /// cheaper classification).  This is the "new shells under a known
    /// controller" ingest shape, and the strongest structural guarantee
    /// a registry batch can offer: existing node ids survive verbatim.
    pub fn is_company_append(&self) -> bool {
        self.mutations.iter().all(Mutation::is_company_append)
            && self
                .mutations
                .iter()
                .any(|m| matches!(m, Mutation::AddCompany { .. }))
    }

    /// Applies every mutation in order to `registry`; stops at the first
    /// failure.  Returns how many mutations *changed* the registry
    /// (no-op removals don't count).
    ///
    /// On `Err` the registry may hold a prefix of the batch — callers
    /// wanting atomicity apply to a clone and swap on success, which is
    /// exactly what the delta engine does.
    pub fn apply_to_registry(&self, registry: &mut SourceRegistry) -> Result<usize, ModelError> {
        let mut changed = 0;
        for mutation in &self.mutations {
            if mutation.apply(registry)? {
                changed += 1;
            }
        }
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::Role;

    fn seeded() -> SourceRegistry {
        let mut r = SourceRegistry::new();
        let l1 = r.add_person("L1", RoleSet::of(&[Role::Ceo]));
        let l2 = r.add_person("L2", RoleSet::of(&[Role::Ceo]));
        for (p, c) in [(l1, "C1"), (l2, "C2")] {
            let company = r.add_company(c);
            r.add_influence(InfluenceRecord {
                person: p,
                company,
                kind: InfluenceKind::CeoOf,
                is_legal_person: true,
            });
        }
        r.add_trading(TradingRecord {
            seller: CompanyId(0),
            buyer: CompanyId(1),
            volume: 10.0,
        });
        r
    }

    #[test]
    fn batch_grows_a_company_and_its_arcs() {
        let mut r = seeded();
        let batch = MutationBatch::new(vec![
            Mutation::AddPerson {
                name: "L3".into(),
                roles: RoleSet::of(&[Role::Ceo]),
            },
            Mutation::AddCompany {
                name: "C3".into(),
                legal_person: PersonId(2),
                kind: InfluenceKind::CeoOf,
            },
            Mutation::AddInterdependence {
                a: PersonId(0),
                b: PersonId(2),
                kind: InterdependenceKind::Kinship,
            },
            Mutation::AddInvestment(InvestmentRecord {
                investor: CompanyId(2),
                investee: CompanyId(0),
                share: 0.7,
            }),
            Mutation::AddTrading(TradingRecord {
                seller: CompanyId(2),
                buyer: CompanyId(1),
                volume: 5.0,
            }),
        ]);
        assert!(!batch.is_trading_only());
        assert_eq!(batch.apply_to_registry(&mut r).unwrap(), 5);
        assert_eq!(r.person_count(), 3);
        assert_eq!(r.company_count(), 3);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn trading_batch_is_the_fast_class() {
        let batch = MutationBatch::trading([TradingRecord {
            seller: CompanyId(1),
            buyer: CompanyId(0),
            volume: 2.0,
        }]);
        assert!(batch.is_trading_only());
        let mut r = seeded();
        assert_eq!(batch.apply_to_registry(&mut r).unwrap(), 1);
        assert_eq!(r.tradings().len(), 2);
    }

    #[test]
    fn company_append_batch_is_the_id_stable_class() {
        let registration = Mutation::AddCompany {
            name: "C3".into(),
            legal_person: PersonId(0),
            kind: InfluenceKind::CeoOf,
        };
        let trade = Mutation::AddTrading(TradingRecord {
            seller: CompanyId(0),
            buyer: CompanyId(1),
            volume: 2.0,
        });
        let batch = MutationBatch::new(vec![registration.clone(), trade.clone()]);
        assert!(batch.is_company_append());
        assert!(!batch.is_trading_only());
        // Pure trading is its own class, not a degenerate company append.
        assert!(!MutationBatch::new(vec![trade]).is_company_append());
        // A new person renumbers company nodes: excluded.
        let with_person = MutationBatch::new(vec![
            Mutation::AddPerson {
                name: "P".into(),
                roles: RoleSet::of(&[Role::Ceo]),
            },
            registration,
        ]);
        assert!(!with_person.is_company_append());
    }

    #[test]
    fn out_of_range_additions_fail_cleanly() {
        let mut r = seeded();
        let bad = Mutation::AddTrading(TradingRecord {
            seller: CompanyId(9),
            buyer: CompanyId(0),
            volume: 1.0,
        });
        assert_eq!(
            bad.apply(&mut r),
            Err(ModelError::UnknownCompany(CompanyId(9)))
        );
        let self_arc = Mutation::AddInvestment(InvestmentRecord {
            investor: CompanyId(0),
            investee: CompanyId(0),
            share: 0.5,
        });
        assert_eq!(
            self_arc.apply(&mut r),
            Err(ModelError::SelfCompanyArc(CompanyId(0)))
        );
        assert_eq!(r.tradings().len(), 1, "failed mutations change nothing");
    }

    #[test]
    fn removals_are_noops_when_nothing_matches() {
        let mut r = seeded();
        assert!(!Mutation::RemoveTrading {
            seller: CompanyId(1),
            buyer: CompanyId(0),
        }
        .apply(&mut r)
        .unwrap());
        assert!(Mutation::RemoveTrading {
            seller: CompanyId(0),
            buyer: CompanyId(1),
        }
        .apply(&mut r)
        .unwrap());
        assert!(r.tradings().is_empty());
    }

    #[test]
    fn replay_is_deterministic() {
        let batch = MutationBatch::new(vec![
            Mutation::AddTrading(TradingRecord {
                seller: CompanyId(1),
                buyer: CompanyId(0),
                volume: 2.0,
            }),
            Mutation::SetTaxRate {
                company: CompanyId(0),
                rate: 0.17,
            },
        ]);
        let (mut a, mut b) = (seeded(), seeded());
        batch.apply_to_registry(&mut a).unwrap();
        batch.apply_to_registry(&mut b).unwrap();
        assert_eq!(a.tradings(), b.tradings());
        assert_eq!(a.company_tax_rate(CompanyId(0)), 0.17);
    }
}
