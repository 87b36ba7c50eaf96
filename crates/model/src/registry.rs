//! A validated container for one province's source records.

use crate::company::Company;
use crate::error::ModelError;
use crate::ids::{CompanyId, PersonId};
use crate::person::Person;
use crate::relationship::{
    InfluenceRecord, Interdependence, InterdependenceKind, InvestmentRecord, TradingRecord,
};
use crate::roles::RoleSet;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// All source records for one fusion run: the input of the multi-network
/// fusion pipeline (`tpiin-fusion`).
///
/// The registry is append-only.  [`SourceRegistry::validate`] checks the
/// structural constraints the paper assumes — most importantly that every
/// company links to exactly one admissible legal person ("all *Company*
/// nodes must at least link with one *LP* node", Section 4.1).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SourceRegistry {
    persons: Vec<Person>,
    companies: Vec<Company>,
    interdependencies: Vec<Interdependence>,
    influences: Vec<InfluenceRecord>,
    investments: Vec<InvestmentRecord>,
    tradings: Vec<TradingRecord>,
    /// Statutory tax rate per company, parallel to `companies`.  Grown
    /// lazily: entries past the end mean [`crate::DEFAULT_TAX_RATE`].
    /// Absent from older serialized registries, hence the default.
    #[serde(default)]
    tax_rates: Vec<f64>,
    /// The unordered `(min, max)` person pair of every interdependence
    /// edge, so [`SourceRegistry::add_interdependence`] finds a duplicate
    /// in O(1).  Derived from `interdependencies`, hence not serialized.
    #[serde(skip)]
    interdependent_pairs: HashSet<(PersonId, PersonId)>,
}

/// The key of the unordered pair `{a, b}`.
fn pair(a: PersonId, b: PersonId) -> (PersonId, PersonId) {
    (a.min(b), a.max(b))
}

impl SourceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry with entity storage pre-reserved.
    /// Nation-scale generators know their totals up front; reserving
    /// avoids the doubling reallocations that would otherwise briefly
    /// hold two copies of multi-million-entry tables.
    pub fn with_capacity(persons: usize, companies: usize) -> Self {
        SourceRegistry {
            persons: Vec::with_capacity(persons),
            companies: Vec::with_capacity(companies),
            ..Self::default()
        }
    }

    /// Pre-reserves space for `additional` records of each relationship
    /// type (influences, investments, tradings).
    pub fn reserve_records(&mut self, influences: usize, investments: usize, tradings: usize) {
        self.influences.reserve(influences);
        self.investments.reserve(investments);
        self.tradings.reserve(tradings);
    }

    /// Registers a person; returns its id.
    pub fn add_person(&mut self, name: impl Into<String>, roles: RoleSet) -> PersonId {
        let id = PersonId(self.persons.len() as u32);
        self.persons.push(Person::new(name, roles));
        id
    }

    /// Registers a company; returns its id.
    pub fn add_company(&mut self, name: impl Into<String>) -> CompanyId {
        let id = CompanyId(self.companies.len() as u32);
        self.companies.push(Company::new(name));
        id
    }

    /// Records a company's statutory tax rate (used by the
    /// circular-trading miner's rate-differential scoring).  Companies
    /// without a recorded rate default to [`crate::DEFAULT_TAX_RATE`].
    pub fn set_company_tax_rate(&mut self, id: CompanyId, rate: f64) {
        if self.tax_rates.len() <= id.index() {
            self.tax_rates
                .resize(id.index() + 1, crate::DEFAULT_TAX_RATE);
        }
        self.tax_rates[id.index()] = rate;
    }

    /// A company's statutory tax rate ([`crate::DEFAULT_TAX_RATE`] when
    /// never set).
    pub fn company_tax_rate(&self, id: CompanyId) -> f64 {
        self.tax_rates
            .get(id.index())
            .copied()
            .unwrap_or(crate::DEFAULT_TAX_RATE)
    }

    /// The tax rate of every company, indexed by `CompanyId` — the side
    /// table the mining context carries.  `None` when no rate was ever
    /// recorded (every differential would be zero anyway).
    pub fn company_tax_rates(&self) -> Option<Vec<f64>> {
        if self.tax_rates.is_empty() {
            return None;
        }
        Some(
            (0..self.companies.len())
                .map(|i| self.company_tax_rate(CompanyId(i as u32)))
                .collect(),
        )
    }

    /// Records an interdependence edge between two persons.
    ///
    /// Following the paper ("if there exist both a kinship and an
    /// interlocking relationship between a pair of persons, we only keep
    /// one"), a duplicate edge over the same unordered pair is ignored and
    /// `false` is returned.
    pub fn add_interdependence(
        &mut self,
        a: PersonId,
        b: PersonId,
        kind: InterdependenceKind,
    ) -> bool {
        if !self.interdependent_pairs.insert(pair(a, b)) {
            return false;
        }
        self.interdependencies.push(Interdependence { a, b, kind });
        true
    }

    /// Records a Person→Company influence arc.
    pub fn add_influence(&mut self, record: InfluenceRecord) {
        self.influences.push(record);
    }

    /// Records a Company→Company investment arc.
    pub fn add_investment(&mut self, record: InvestmentRecord) {
        self.investments.push(record);
    }

    /// Records a Company→Company trading arc.
    pub fn add_trading(&mut self, record: TradingRecord) {
        self.tradings.push(record);
    }

    /// Absorbs all records of `other` into `self`, remapping ids past the
    /// existing entities and prefixing names with `prefix` (e.g. `"P3:"`).
    /// Used to assemble national-scale registries out of per-province
    /// extracts; the absorbed records stay disjoint from the existing
    /// ones, so validity is preserved.
    pub fn absorb(&mut self, other: &SourceRegistry, prefix: &str) {
        let person_offset = self.persons.len() as u32;
        let company_offset = self.companies.len() as u32;
        // Reserve every table up front: absorbing k provinces one after
        // another must not re-double megavector allocations mid-copy.
        self.persons.reserve(other.persons.len());
        self.companies.reserve(other.companies.len());
        self.interdependencies
            .reserve(other.interdependencies.len());
        self.influences.reserve(other.influences.len());
        self.investments.reserve(other.investments.len());
        self.tradings.reserve(other.tradings.len());
        // Exact-capacity name building: `format!` may over-allocate, and
        // at nation scale the slack would be held for the process
        // lifetime.
        let prefixed = |name: &str| {
            let mut s = String::with_capacity(prefix.len() + name.len());
            s.push_str(prefix);
            s.push_str(name);
            s
        };
        for p in &other.persons {
            self.persons.push(Person::new(prefixed(&p.name), p.roles));
        }
        for c in &other.companies {
            self.companies.push(Company::new(prefixed(&c.name)));
        }
        if !self.tax_rates.is_empty() || !other.tax_rates.is_empty() {
            self.tax_rates
                .resize(company_offset as usize, crate::DEFAULT_TAX_RATE);
            for i in 0..other.companies.len() {
                self.tax_rates
                    .push(other.company_tax_rate(CompanyId(i as u32)));
            }
        }
        let rp = |p: PersonId| PersonId(p.0 + person_offset);
        let rc = |c: CompanyId| CompanyId(c.0 + company_offset);
        self.interdependent_pairs
            .reserve(other.interdependencies.len());
        for i in &other.interdependencies {
            let (a, b) = (rp(i.a), rp(i.b));
            self.interdependent_pairs.insert(pair(a, b));
            self.interdependencies
                .push(Interdependence { a, b, kind: i.kind });
        }
        for r in &other.influences {
            self.influences.push(InfluenceRecord {
                person: rp(r.person),
                company: rc(r.company),
                kind: r.kind,
                is_legal_person: r.is_legal_person,
            });
        }
        for r in &other.investments {
            self.investments.push(InvestmentRecord {
                investor: rc(r.investor),
                investee: rc(r.investee),
                share: r.share,
            });
        }
        for r in &other.tradings {
            self.tradings.push(TradingRecord {
                seller: rc(r.seller),
                buyer: rc(r.buyer),
                volume: r.volume,
            });
        }
    }

    /// Removes every trading record.  The evaluation sweep fuses one
    /// antecedent network with twenty different random trading networks;
    /// clearing trading records lets a registry be reused across settings.
    pub fn clear_trading(&mut self) {
        self.tradings.clear();
    }

    /// Removes the *first* influence arc `person → company`, preserving
    /// the order of the remaining records.  First-match semantics keep
    /// replay deterministic when duplicate arcs exist: fusion's
    /// first-wins dedup means the surviving record after removal is the
    /// same one a from-scratch build over the mutated registry would
    /// pick.  Returns whether a record was removed.
    pub fn remove_influence(&mut self, person: PersonId, company: CompanyId) -> bool {
        match self
            .influences
            .iter()
            .position(|r| r.person == person && r.company == company)
        {
            Some(i) => {
                self.influences.remove(i);
                true
            }
            None => false,
        }
    }

    /// Removes the *first* investment arc `investor → investee`,
    /// preserving record order (see [`SourceRegistry::remove_influence`]
    /// for why first-match).  Returns whether a record was removed.
    pub fn remove_investment(&mut self, investor: CompanyId, investee: CompanyId) -> bool {
        match self
            .investments
            .iter()
            .position(|r| r.investor == investor && r.investee == investee)
        {
            Some(i) => {
                self.investments.remove(i);
                true
            }
            None => false,
        }
    }

    /// Removes the *first* trading arc `seller → buyer`, preserving
    /// record order.  Returns whether a record was removed.
    pub fn remove_trading(&mut self, seller: CompanyId, buyer: CompanyId) -> bool {
        match self
            .tradings
            .iter()
            .position(|r| r.seller == seller && r.buyer == buyer)
        {
            Some(i) => {
                self.tradings.remove(i);
                true
            }
            None => false,
        }
    }

    /// Deregisters a company: drops every influence, investment, and
    /// trading record referencing it and shifts later company ids down by
    /// one, as if the company had never been registered.  Returns `false`
    /// (and changes nothing) when the id is out of range.
    pub fn remove_company(&mut self, id: CompanyId) -> bool {
        if id.index() >= self.companies.len() {
            return false;
        }
        self.companies.remove(id.index());
        if id.index() < self.tax_rates.len() {
            self.tax_rates.remove(id.index());
        }
        let shift = |c: CompanyId| if c > id { CompanyId(c.0 - 1) } else { c };
        self.influences.retain_mut(|r| {
            if r.company == id {
                return false;
            }
            r.company = shift(r.company);
            true
        });
        self.investments.retain_mut(|r| {
            if r.investor == id || r.investee == id {
                return false;
            }
            r.investor = shift(r.investor);
            r.investee = shift(r.investee);
            true
        });
        self.tradings.retain_mut(|r| {
            if r.seller == id || r.buyer == id {
                return false;
            }
            r.seller = shift(r.seller);
            r.buyer = shift(r.buyer);
            true
        });
        true
    }

    /// Deregisters a person: drops every interdependence edge and
    /// influence record referencing them and shifts later person ids down
    /// by one.  Removing a company's legal person leaves that company
    /// without an LP record — [`SourceRegistry::validate`] will flag it,
    /// so a removal batch must also deregister or re-staff the affected
    /// companies.  Returns `false` when the id is out of range.
    pub fn remove_person(&mut self, id: PersonId) -> bool {
        if id.index() >= self.persons.len() {
            return false;
        }
        self.persons.remove(id.index());
        let shift = |p: PersonId| if p > id { PersonId(p.0 - 1) } else { p };
        self.interdependencies.retain_mut(|e| {
            if e.a == id || e.b == id {
                return false;
            }
            e.a = shift(e.a);
            e.b = shift(e.b);
            true
        });
        self.interdependent_pairs = self
            .interdependencies
            .iter()
            .map(|e| pair(e.a, e.b))
            .collect();
        self.influences.retain_mut(|r| {
            if r.person == id {
                return false;
            }
            r.person = shift(r.person);
            true
        });
        true
    }

    /// Number of registered persons.
    pub fn person_count(&self) -> usize {
        self.persons.len()
    }

    /// Number of registered companies.
    pub fn company_count(&self) -> usize {
        self.companies.len()
    }

    /// Borrow a person record.
    pub fn person(&self, id: PersonId) -> &Person {
        &self.persons[id.index()]
    }

    /// Borrow a company record.
    pub fn company(&self, id: CompanyId) -> &Company {
        &self.companies[id.index()]
    }

    /// Iterator over `(id, person)`.
    pub fn persons(&self) -> impl ExactSizeIterator<Item = (PersonId, &Person)> {
        self.persons
            .iter()
            .enumerate()
            .map(|(i, p)| (PersonId(i as u32), p))
    }

    /// Iterator over `(id, company)`.
    pub fn companies(&self) -> impl ExactSizeIterator<Item = (CompanyId, &Company)> {
        self.companies
            .iter()
            .enumerate()
            .map(|(i, c)| (CompanyId(i as u32), c))
    }

    /// All interdependence edges.
    pub fn interdependencies(&self) -> &[Interdependence] {
        &self.interdependencies
    }

    /// All influence arcs.
    pub fn influences(&self) -> &[InfluenceRecord] {
        &self.influences
    }

    /// All investment arcs.
    pub fn investments(&self) -> &[InvestmentRecord] {
        &self.investments
    }

    /// All trading arcs.
    pub fn tradings(&self) -> &[TradingRecord] {
        &self.tradings
    }

    /// Checks every structural constraint; returns all violations found
    /// (empty `Ok` on success):
    ///
    /// * record endpoints must reference registered persons/companies;
    /// * interdependence edges must join two distinct persons;
    /// * investment/trading arcs must join two distinct companies;
    /// * every company has exactly one legal-person influence arc, and the
    ///   designated person's role set admits the position;
    /// * investment shares lie in `(0, 1]`.
    ///
    /// Errors come grouped by record type in a fixed order —
    /// interdependences, influences (legal-person gaps last), investments,
    /// tradings — each group in record order.
    pub fn validate(&self) -> Result<(), Vec<ModelError>> {
        let mut errors = self.validate_interdependencies();
        errors.extend(self.validate_influences());
        errors.extend(self.validate_investments());
        errors.extend(self.validate_tradings());
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Violations among person–person interdependence edges only.
    fn validate_interdependencies(&self) -> Vec<ModelError> {
        let mut errors = Vec::new();
        let np = self.persons.len() as u32;
        for i in &self.interdependencies {
            for p in [i.a, i.b] {
                if p.0 >= np {
                    errors.push(ModelError::UnknownPerson(p));
                }
            }
            if i.a == i.b {
                errors.push(ModelError::SelfInterdependence(i.a));
            }
        }
        errors
    }

    /// Violations among influence arcs, including the legal-person
    /// constraints (exactly one admissible LP per company).
    fn validate_influences(&self) -> Vec<ModelError> {
        let mut errors = Vec::new();
        let np = self.persons.len() as u32;
        let nc = self.companies.len() as u32;
        let mut lp_of: Vec<Option<PersonId>> = vec![None; self.companies.len()];
        let mut multiple_reported: HashSet<CompanyId> = HashSet::new();
        for inf in &self.influences {
            if inf.person.0 >= np {
                errors.push(ModelError::UnknownPerson(inf.person));
                continue;
            }
            if inf.company.0 >= nc {
                errors.push(ModelError::UnknownCompany(inf.company));
                continue;
            }
            if inf.is_legal_person {
                let slot = &mut lp_of[inf.company.index()];
                if slot.is_some() {
                    if multiple_reported.insert(inf.company) {
                        errors.push(ModelError::MultipleLegalPersons(inf.company));
                    }
                } else {
                    *slot = Some(inf.person);
                    if !self.persons[inf.person.index()]
                        .roles
                        .admissible_as_legal_person()
                    {
                        errors.push(ModelError::InadmissibleLegalPerson {
                            company: inf.company,
                            person: inf.person,
                        });
                    }
                }
            }
        }
        for (i, slot) in lp_of.iter().enumerate() {
            if slot.is_none() {
                errors.push(ModelError::MissingLegalPerson(CompanyId(i as u32)));
            }
        }
        errors
    }

    /// Violations among company–company investment arcs only.
    fn validate_investments(&self) -> Vec<ModelError> {
        let mut errors = Vec::new();
        let nc = self.companies.len() as u32;
        for inv in &self.investments {
            for c in [inv.investor, inv.investee] {
                if c.0 >= nc {
                    errors.push(ModelError::UnknownCompany(c));
                }
            }
            if inv.investor == inv.investee {
                errors.push(ModelError::SelfCompanyArc(inv.investor));
            }
            if !(inv.share > 0.0 && inv.share <= 1.0) {
                errors.push(ModelError::InvalidShare {
                    investor: inv.investor,
                    investee: inv.investee,
                    share: inv.share,
                });
            }
        }
        errors
    }

    /// Violations among company–company trading arcs only.
    fn validate_tradings(&self) -> Vec<ModelError> {
        let mut errors = Vec::new();
        let nc = self.companies.len() as u32;
        for tr in &self.tradings {
            for c in [tr.seller, tr.buyer] {
                if c.0 >= nc {
                    errors.push(ModelError::UnknownCompany(c));
                }
            }
            if tr.seller == tr.buyer {
                errors.push(ModelError::SelfCompanyArc(tr.seller));
            }
        }
        errors
    }

    /// Replaces a person's role set.  Source adapters accumulate roles as
    /// board-roster rows arrive (one person can hold positions in many
    /// companies).
    pub fn set_person_roles(&mut self, person: PersonId, roles: crate::roles::RoleSet) {
        self.persons[person.index()].roles = roles;
    }

    /// Finds a company by exact name (linear scan; registries are
    /// append-only so callers needing many lookups should build their own
    /// index).
    pub fn company_by_name(&self, name: &str) -> Option<CompanyId> {
        self.companies
            .iter()
            .position(|c| c.name == name)
            .map(|i| CompanyId(i as u32))
    }

    /// Finds a person by exact name.
    pub fn person_by_name(&self, name: &str) -> Option<PersonId> {
        self.persons
            .iter()
            .position(|p| p.name == name)
            .map(|i| PersonId(i as u32))
    }

    /// Everything [`SourceRegistry::validate`] checks, plus role
    /// consistency: an influence record's positional subclass must be
    /// backed by the person's declared roles (a `is-CEO-of` arc from
    /// someone who holds no CEO position is a data-quality defect in the
    /// source extracts).  Shareholders may hold director seats (the
    /// paper's S -> D reduction).
    pub fn validate_strict(&self) -> Result<(), Vec<ModelError>> {
        let mut errors = match self.validate() {
            Ok(()) => Vec::new(),
            Err(e) => e,
        };
        for inf in &self.influences {
            let Some(person) = self.persons.get(inf.person.index()) else {
                continue; // already reported by validate()
            };
            if self.companies.get(inf.company.index()).is_none() {
                continue;
            }
            use crate::relationship::InfluenceKind::*;
            use crate::roles::Role;
            let roles = person.roles;
            let director_ok = roles.contains(Role::Director) || roles.contains(Role::Shareholder);
            let consistent = match inf.kind {
                CeoOf => roles.contains(Role::Ceo),
                ChairmanOf => roles.contains(Role::Chairman),
                DirectorOf => director_ok,
                CeoAndDirectorOf => roles.contains(Role::Ceo) && director_ok,
            };
            if !consistent {
                errors.push(ModelError::RoleMismatch {
                    person: inf.person,
                    company: inf.company,
                });
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// The legal person of each company, if validation would assign one.
    /// Companies with zero or multiple legal-person records yield `None`.
    pub fn legal_persons(&self) -> Vec<Option<PersonId>> {
        let mut lp_of: Vec<Option<PersonId>> = vec![None; self.companies.len()];
        let mut ambiguous = vec![false; self.companies.len()];
        for inf in &self.influences {
            if inf.is_legal_person && inf.company.index() < lp_of.len() {
                let slot = &mut lp_of[inf.company.index()];
                if slot.is_some() {
                    ambiguous[inf.company.index()] = true;
                } else {
                    *slot = Some(inf.person);
                }
            }
        }
        for (slot, amb) in lp_of.iter_mut().zip(ambiguous) {
            if amb {
                *slot = None;
            }
        }
        lp_of
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relationship::InfluenceKind;
    use crate::roles::Role;

    fn valid_registry() -> SourceRegistry {
        let mut r = SourceRegistry::new();
        let l1 = r.add_person("L1", RoleSet::of(&[Role::Ceo]));
        let d1 = r.add_person("D1", RoleSet::of(&[Role::Director]));
        let c1 = r.add_company("C1");
        let c2 = r.add_company("C2");
        r.add_influence(InfluenceRecord {
            person: l1,
            company: c1,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
        r.add_influence(InfluenceRecord {
            person: l1,
            company: c2,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
        r.add_influence(InfluenceRecord {
            person: d1,
            company: c2,
            kind: InfluenceKind::DirectorOf,
            is_legal_person: false,
        });
        r.add_investment(InvestmentRecord {
            investor: c1,
            investee: c2,
            share: 0.6,
        });
        r.add_trading(TradingRecord {
            seller: c2,
            buyer: c1,
            volume: 100.0,
        });
        r
    }

    #[test]
    fn valid_registry_passes() {
        assert!(valid_registry().validate().is_ok());
    }

    #[test]
    fn duplicate_interdependence_pair_is_dropped() {
        let mut r = SourceRegistry::new();
        let a = r.add_person("a", RoleSet::of(&[Role::Director]));
        let b = r.add_person("b", RoleSet::of(&[Role::Director]));
        assert!(r.add_interdependence(a, b, InterdependenceKind::Kinship));
        // Same unordered pair, different kind: the paper keeps one edge.
        assert!(!r.add_interdependence(b, a, InterdependenceKind::Interlocking));
        assert_eq!(r.interdependencies().len(), 1);
        assert_eq!(r.interdependencies()[0].kind, InterdependenceKind::Kinship);
    }

    #[test]
    fn duplicate_check_follows_removals_and_renumbering() {
        let mut r = SourceRegistry::new();
        let [a, b, c] = ["a", "b", "c"].map(|n| r.add_person(n, RoleSet::of(&[Role::Director])));
        assert!(r.add_interdependence(b, c, InterdependenceKind::Kinship));
        assert!(!r.add_interdependence(c, b, InterdependenceKind::Interlocking));
        // Removing `a` renumbers b, c to 0, 1: the stored edge is {0, 1}.
        assert!(r.remove_person(a));
        let (b, c) = (PersonId(0), PersonId(1));
        assert!(!r.add_interdependence(b, c, InterdependenceKind::Interlocking));
        // Removing `c` drops the edge, so the pair is free again.
        assert!(r.remove_person(c));
        let c = r.add_person("c", RoleSet::of(&[Role::Director]));
        assert!(r.add_interdependence(c, b, InterdependenceKind::Interlocking));
        assert_eq!(r.interdependencies().len(), 1);
        assert_eq!(
            r.interdependencies()[0].kind,
            InterdependenceKind::Interlocking
        );
        // Absorbed edges count as stored ones.
        let other = r.clone();
        r.absorb(&other, "X:");
        assert!(!r.add_interdependence(PersonId(3), PersonId(2), InterdependenceKind::Kinship));
        assert!(r.add_interdependence(PersonId(0), PersonId(2), InterdependenceKind::Kinship));
    }

    #[test]
    fn missing_legal_person_is_reported() {
        let mut r = SourceRegistry::new();
        r.add_company("C1");
        let errs = r.validate().unwrap_err();
        assert!(errs.contains(&ModelError::MissingLegalPerson(CompanyId(0))));
    }

    #[test]
    fn multiple_legal_persons_reported_once() {
        let mut r = valid_registry();
        let extra = r.add_person("L2", RoleSet::of(&[Role::Chairman]));
        r.add_influence(InfluenceRecord {
            person: extra,
            company: CompanyId(0),
            kind: InfluenceKind::ChairmanOf,
            is_legal_person: true,
        });
        r.add_influence(InfluenceRecord {
            person: extra,
            company: CompanyId(0),
            kind: InfluenceKind::ChairmanOf,
            is_legal_person: true,
        });
        let errs = r.validate().unwrap_err();
        let count = errs
            .iter()
            .filter(|e| matches!(e, ModelError::MultipleLegalPersons(c) if *c == CompanyId(0)))
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn inadmissible_legal_person_rejected() {
        let mut r = SourceRegistry::new();
        let d = r.add_person("D", RoleSet::of(&[Role::Director]));
        let c = r.add_company("C");
        r.add_influence(InfluenceRecord {
            person: d,
            company: c,
            kind: InfluenceKind::DirectorOf,
            is_legal_person: true,
        });
        let errs = r.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ModelError::InadmissibleLegalPerson { .. })));
    }

    #[test]
    fn dangling_ids_and_self_arcs_reported() {
        let mut r = valid_registry();
        r.add_investment(InvestmentRecord {
            investor: CompanyId(9),
            investee: CompanyId(0),
            share: 0.5,
        });
        r.add_trading(TradingRecord {
            seller: CompanyId(0),
            buyer: CompanyId(0),
            volume: 1.0,
        });
        r.add_interdependence(PersonId(0), PersonId(0), InterdependenceKind::Kinship);
        let errs = r.validate().unwrap_err();
        assert!(errs.contains(&ModelError::UnknownCompany(CompanyId(9))));
        assert!(errs.contains(&ModelError::SelfCompanyArc(CompanyId(0))));
        assert!(errs.contains(&ModelError::SelfInterdependence(PersonId(0))));
    }

    #[test]
    fn validate_reports_errors_in_record_type_order() {
        let mut r = valid_registry();
        r.add_trading(TradingRecord {
            seller: CompanyId(1),
            buyer: CompanyId(1),
            volume: 1.0,
        });
        r.add_investment(InvestmentRecord {
            investor: CompanyId(9),
            investee: CompanyId(0),
            share: 2.0,
        });
        let lp_less = r.add_company("no LP");
        r.add_interdependence(PersonId(0), PersonId(0), InterdependenceKind::Kinship);
        assert_eq!(
            r.validate().unwrap_err(),
            vec![
                ModelError::SelfInterdependence(PersonId(0)),
                ModelError::MissingLegalPerson(lp_less),
                ModelError::UnknownCompany(CompanyId(9)),
                ModelError::InvalidShare {
                    investor: CompanyId(9),
                    investee: CompanyId(0),
                    share: 2.0,
                },
                ModelError::SelfCompanyArc(CompanyId(1)),
            ]
        );
    }

    #[test]
    fn invalid_share_reported() {
        let mut r = valid_registry();
        r.add_investment(InvestmentRecord {
            investor: CompanyId(0),
            investee: CompanyId(1),
            share: 0.0,
        });
        let errs = r.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ModelError::InvalidShare { .. })));
    }

    #[test]
    fn strict_validation_checks_role_consistency() {
        let mut r = valid_registry();
        assert!(
            r.validate_strict().is_ok(),
            "valid registry passes strict checks"
        );
        // A pure-CEO person recorded as chairman: strict failure, plain
        // validation still passes.
        r.add_influence(InfluenceRecord {
            person: PersonId(0), // roles: {CEO}
            company: CompanyId(1),
            kind: InfluenceKind::ChairmanOf,
            is_legal_person: false,
        });
        assert!(r.validate().is_ok());
        let errs = r.validate_strict().unwrap_err();
        assert!(errs.iter().any(
            |e| matches!(e, ModelError::RoleMismatch { person, .. } if *person == PersonId(0))
        ));
    }

    #[test]
    fn strict_validation_accepts_shareholder_directors() {
        let mut r = SourceRegistry::new();
        let s = r.add_person("S", RoleSet::of(&[Role::Shareholder, Role::Ceo]));
        let c = r.add_company("C");
        r.add_influence(InfluenceRecord {
            person: s,
            company: c,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
        // Shareholder acting as a director (the S -> D reduction).
        r.add_influence(InfluenceRecord {
            person: s,
            company: c,
            kind: InfluenceKind::DirectorOf,
            is_legal_person: false,
        });
        assert!(r.validate_strict().is_ok());
    }

    #[test]
    fn legal_persons_lookup() {
        let r = valid_registry();
        let lps = r.legal_persons();
        assert_eq!(lps, vec![Some(PersonId(0)), Some(PersonId(0))]);
    }

    #[test]
    fn set_person_roles_replaces() {
        let mut r = valid_registry();
        r.set_person_roles(PersonId(1), RoleSet::of(&[Role::Chairman]));
        assert!(r.person(PersonId(1)).roles.contains(Role::Chairman));
        assert!(!r.person(PersonId(1)).roles.contains(Role::Director));
    }

    #[test]
    fn lookup_by_name() {
        let r = valid_registry();
        assert_eq!(r.company_by_name("C2"), Some(CompanyId(1)));
        assert_eq!(r.person_by_name("L1"), Some(PersonId(0)));
        assert_eq!(r.company_by_name("nope"), None);
        assert_eq!(r.person_by_name(""), None);
    }

    #[test]
    fn absorb_remaps_and_prefixes() {
        let mut a = valid_registry();
        let b = valid_registry();
        let (p0, c0) = (a.person_count(), a.company_count());
        a.absorb(&b, "X:");
        assert_eq!(a.person_count(), 2 * p0);
        assert_eq!(a.company_count(), 2 * c0);
        assert!(a.validate().is_ok(), "absorbed registry stays valid");
        assert_eq!(a.person(PersonId(p0 as u32)).name, "X:L1");
        assert_eq!(a.company(CompanyId(c0 as u32)).name, "X:C1");
        // The absorbed investment references the remapped companies.
        let inv = a.investments().last().unwrap();
        assert_eq!(inv.investor, CompanyId(c0 as u32));
        assert_eq!(inv.investee, CompanyId(c0 as u32 + 1));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut r = SourceRegistry::with_capacity(10, 10);
        r.reserve_records(5, 5, 5);
        let p = r.add_person("P", RoleSet::of(&[Role::Ceo]));
        let c = r.add_company("C");
        r.add_influence(InfluenceRecord {
            person: p,
            company: c,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
        assert!(r.validate().is_ok());
        assert_eq!(r.person_count(), 1);
        assert_eq!(r.company_count(), 1);
    }

    #[test]
    fn clear_trading_resets_only_trading() {
        let mut r = valid_registry();
        assert_eq!(r.tradings().len(), 1);
        r.clear_trading();
        assert!(r.tradings().is_empty());
        assert_eq!(r.investments().len(), 1);
    }

    #[test]
    fn record_removal_is_first_match_and_order_preserving() {
        let mut r = valid_registry();
        // Duplicate the investment arc with a different share; removal
        // must take the first and keep the second.
        r.add_investment(InvestmentRecord {
            investor: CompanyId(0),
            investee: CompanyId(1),
            share: 0.3,
        });
        assert!(r.remove_investment(CompanyId(0), CompanyId(1)));
        assert_eq!(r.investments().len(), 1);
        assert_eq!(r.investments()[0].share, 0.3);
        assert!(!r.remove_investment(CompanyId(1), CompanyId(0)));
        assert!(r.remove_trading(CompanyId(1), CompanyId(0)));
        assert!(r.tradings().is_empty());
        // Removing D1's (non-LP) directorship keeps the registry valid.
        assert!(r.remove_influence(PersonId(1), CompanyId(1)));
        assert!(r.validate().is_ok());
    }

    #[test]
    fn remove_company_cascades_and_renumbers() {
        let mut r = valid_registry();
        assert!(!r.remove_company(CompanyId(9)));
        assert!(r.remove_company(CompanyId(0)));
        assert_eq!(r.company_count(), 1);
        // C2 became C0; its records were remapped, C1's were dropped.
        assert_eq!(r.investments().len(), 0);
        assert_eq!(r.tradings().len(), 0);
        assert_eq!(r.influences().len(), 2);
        assert!(r.influences().iter().all(|i| i.company == CompanyId(0)));
        assert!(r.validate().is_ok());
    }

    #[test]
    fn remove_person_cascades_and_renumbers() {
        let mut r = valid_registry();
        r.add_interdependence(PersonId(0), PersonId(1), InterdependenceKind::Kinship);
        assert!(r.remove_person(PersonId(1)));
        assert_eq!(r.person_count(), 1);
        assert!(r.interdependencies().is_empty());
        assert_eq!(r.influences().len(), 2, "only D1's directorship dropped");
        assert!(r.validate().is_ok());
        // Removing the legal person leaves both companies LP-less.
        assert!(r.remove_person(PersonId(0)));
        let errs = r.validate().unwrap_err();
        assert_eq!(
            errs.iter()
                .filter(|e| matches!(e, ModelError::MissingLegalPerson(_)))
                .count(),
            2
        );
    }
}
