//! Source adapters: from raw disclosure formats to registry records.
//!
//! Fig. 4's information sources arrive in their own shapes: CSRC
//! shareholding disclosures list percentages as strings, board rosters
//! mix names and position titles, and the household registry links people
//! by name.  These adapters normalize the three raw formats into a
//! [`SourceRegistry`], resolving entities by name and creating them on
//! first sight:
//!
//! * **board roster** (`name,company,position,legal_person`) — positions
//!   are natural-language-ish titles (`"CEO"`, `"chairman"`,
//!   `"director"`, `"executive director"`, `"shareholder"`);
//! * **shareholding table** (`investor,investee,share`) — shares accept
//!   `"45%"`, `"0.45"` or `"45.0 %"`;
//! * **household/agreement registry** (`a,b,relation`) — relations map
//!   onto kinship (`"sibling"`, `"parent"`, `"spouse"`, `"kin"`) or
//!   interlocking (`"acting-in-concert"`, `"interlocking"`).
//!
//! The adapter is forgiving about case and whitespace but strict about
//! unknown vocabulary: a typo'd position or relation is an error with the
//! file and line, not a silently dropped record.

use crate::csv;
use crate::error::IoError;
use std::borrow::Cow;
use tpiin_model::{
    InfluenceKind, InfluenceRecord, InterdependenceKind, Interner, InvestmentRecord, Role, RoleSet,
    SourceRegistry, TradingRecord,
};

/// Incremental registry builder with name resolution.
///
/// Names are resolved through two arena-backed [`Interner`]s (one per
/// entity kind); symbols are dense in first-sight order, so
/// `Symbol::index` *is* the entity id — each freshly interned name
/// immediately registers the matching registry entity.
#[derive(Default)]
pub struct RegistryBuilder {
    registry: SourceRegistry,
    persons: Interner,
    companies: Interner,
}

impl RegistryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn person(&mut self, name: &str) -> tpiin_model::PersonId {
        let known = self.persons.len();
        let symbol = self.persons.intern(name);
        if symbol.index() == known {
            let id = self.registry.add_person(name, RoleSet::EMPTY);
            debug_assert_eq!(id.index(), symbol.index());
        }
        tpiin_model::PersonId(symbol.0)
    }

    fn company(&mut self, name: &str) -> tpiin_model::CompanyId {
        let known = self.companies.len();
        let symbol = self.companies.intern(name);
        if symbol.index() == known {
            let id = self.registry.add_company(name);
            debug_assert_eq!(id.index(), symbol.index());
        }
        tpiin_model::CompanyId(symbol.0)
    }

    /// Ingests a board roster CSV (`name,company,position,legal_person`,
    /// header row required).
    pub fn load_board_roster(&mut self, text: &str, context: &str) -> Result<usize, IoError> {
        for_each_row(text, context, 4, |record, line| {
            let person = self.person(record[0].trim());
            let company = self.company(record[1].trim());
            let (kind, roles) = parse_position(record[2].trim(), context, line)?;
            let is_legal_person = match record[3].trim() {
                "1" | "yes" | "true" => true,
                "0" | "no" | "false" | "" => false,
                other => {
                    return Err(IoError::parse(
                        context,
                        line,
                        format!("legal_person must be yes/no, found `{other}`"),
                    ))
                }
            };
            // Accumulate roles: one person can hold positions in many
            // companies across roster rows.
            let merged = roles
                .iter()
                .fold(self.registry.person(person).roles, |acc, &r| acc.with(r));
            self.registry.set_person_roles(person, merged);
            self.registry.add_influence(InfluenceRecord {
                person,
                company,
                kind,
                is_legal_person,
            });
            Ok(())
        })
    }

    /// Ingests a shareholding table CSV (`investor,investee,share`).
    pub fn load_shareholdings(&mut self, text: &str, context: &str) -> Result<usize, IoError> {
        for_each_row(text, context, 3, |record, line| {
            let investor = self.company(record[0].trim());
            let investee = self.company(record[1].trim());
            let share = parse_share(record[2].trim(), context, line)?;
            self.registry.add_investment(InvestmentRecord {
                investor,
                investee,
                share,
            });
            Ok(())
        })
    }

    /// Ingests a household/agreement registry CSV (`a,b,relation`).
    pub fn load_relationships(&mut self, text: &str, context: &str) -> Result<usize, IoError> {
        for_each_row(text, context, 3, |record, line| {
            let a = self.person(record[0].trim());
            let b = self.person(record[1].trim());
            let relation = record[2].trim();
            let Some(kind) = lookup(RELATIONS, relation) else {
                return Err(IoError::parse(
                    context,
                    line,
                    format!("unknown relation `{}`", relation.to_ascii_lowercase()),
                ));
            };
            self.registry.add_interdependence(a, b, kind);
            Ok(())
        })
    }

    /// Ingests trading relationships (`seller,buyer,volume`).
    pub fn load_trades(&mut self, text: &str, context: &str) -> Result<usize, IoError> {
        for_each_row(text, context, 3, |record, line| {
            let seller = self.company(record[0].trim());
            let buyer = self.company(record[1].trim());
            let volume: f64 = record[2]
                .trim()
                .parse()
                .map_err(|e| IoError::parse(context, line, format!("bad volume: {e}")))?;
            self.registry.add_trading(TradingRecord {
                seller,
                buyer,
                volume,
            });
            Ok(())
        })
    }

    /// Finishes, validating the assembled registry.
    pub fn finish(self) -> Result<SourceRegistry, IoError> {
        self.registry.validate().map_err(IoError::Invalid)?;
        Ok(self.registry)
    }
}

/// Streams the data records of `text` (the header, record 1, is skipped)
/// into `each` with their 1-based record number, once each is known to
/// have `columns` fields.  Returns how many records `each` accepted.
fn for_each_row(
    text: &str,
    context: &str,
    columns: usize,
    mut each: impl FnMut(&[Cow<str>], usize) -> Result<(), IoError>,
) -> Result<usize, IoError> {
    let mut loaded = 0;
    csv::for_each_record(text, context, |index, record| {
        if index == 0 {
            return Ok(());
        }
        if record.len() != columns {
            return Err(IoError::parse(
                context,
                index + 1,
                format!("expected {columns} columns"),
            ));
        }
        each(record, index + 1)?;
        loaded += 1;
        Ok(())
    })?;
    Ok(loaded)
}

/// The value `raw` names in `table`, ignoring ASCII case.
fn lookup<T: Copy>(table: &[(&str, T)], raw: &str) -> Option<T> {
    table
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(raw))
        .map(|&(_, value)| value)
}

/// Household and agreement relations.
const RELATIONS: &[(&str, InterdependenceKind)] = &[
    ("sibling", InterdependenceKind::Kinship),
    ("parent", InterdependenceKind::Kinship),
    ("child", InterdependenceKind::Kinship),
    ("spouse", InterdependenceKind::Kinship),
    ("kin", InterdependenceKind::Kinship),
    ("kinship", InterdependenceKind::Kinship),
    ("acting-in-concert", InterdependenceKind::Interlocking),
    ("interlocking", InterdependenceKind::Interlocking),
    ("agreement", InterdependenceKind::Interlocking),
];

const CEO: &[Role] = &[Role::Ceo];
const CB: &[Role] = &[Role::Chairman];
const D: &[Role] = &[Role::Director];
const CEO_D: &[Role] = &[Role::Ceo, Role::Director];

/// Board position titles: the influence each implies and the roles it
/// adds to its holder.
const POSITIONS: &[(&str, (InfluenceKind, &[Role]))] = &[
    ("ceo", (InfluenceKind::CeoOf, CEO)),
    ("general manager", (InfluenceKind::CeoOf, CEO)),
    ("chairman", (InfluenceKind::ChairmanOf, CB)),
    ("cb", (InfluenceKind::ChairmanOf, CB)),
    ("chairman of the board", (InfluenceKind::ChairmanOf, CB)),
    ("director", (InfluenceKind::DirectorOf, D)),
    ("board member", (InfluenceKind::DirectorOf, D)),
    (
        "executive director",
        (InfluenceKind::CeoAndDirectorOf, CEO_D),
    ),
    (
        "managing director",
        (InfluenceKind::CeoAndDirectorOf, CEO_D),
    ),
    ("ceo and director", (InfluenceKind::CeoAndDirectorOf, CEO_D)),
    (
        "shareholder",
        (InfluenceKind::DirectorOf, &[Role::Shareholder]),
    ),
];

fn parse_position(
    raw: &str,
    context: &str,
    line: usize,
) -> Result<(InfluenceKind, &'static [Role]), IoError> {
    lookup(POSITIONS, raw).ok_or_else(|| {
        IoError::parse(
            context,
            line,
            format!("unknown position `{}`", raw.to_ascii_lowercase()),
        )
    })
}

fn parse_share(raw: &str, context: &str, line: usize) -> Result<f64, IoError> {
    let cleaned = raw.trim_end_matches('%').trim();
    let value: f64 = cleaned
        .parse()
        .map_err(|e| IoError::parse(context, line, format!("bad share `{raw}`: {e}")))?;
    let share = if raw.contains('%') || value > 1.0 {
        value / 100.0
    } else {
        value
    };
    if share > 0.0 && share <= 1.0 {
        Ok(share)
    } else {
        Err(IoError::parse(
            context,
            line,
            format!("share `{raw}` outside (0, 100%]"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOARD: &str = "\
name,company,position,legal_person
Li Wei,Acme,CEO,yes
Li Wei,Beta,director,no
Zhang San,Beta,Chairman,yes
Wang Wu,Gamma,executive director,yes
";
    const SHARES: &str = "\
investor,investee,share
Acme,Beta,45%
Beta,Gamma,0.30
";
    const RELATIONS: &str = "\
a,b,relation
Li Wei,Zhang San,sibling
Zhang San,Wang Wu,acting-in-concert
";
    const TRADES: &str = "\
seller,buyer,volume
Beta,Gamma,100000
";

    fn build_all() -> SourceRegistry {
        let mut b = RegistryBuilder::new();
        assert_eq!(b.load_board_roster(BOARD, "board.csv").unwrap(), 4);
        assert_eq!(b.load_shareholdings(SHARES, "shares.csv").unwrap(), 2);
        assert_eq!(b.load_relationships(RELATIONS, "rel.csv").unwrap(), 2);
        assert_eq!(b.load_trades(TRADES, "trades.csv").unwrap(), 1);
        b.finish().unwrap()
    }

    #[test]
    fn assembles_a_valid_registry_with_name_resolution() {
        let r = build_all();
        assert_eq!(r.person_count(), 3, "Li Wei deduplicated across rows");
        assert_eq!(r.company_count(), 3);
        assert_eq!(r.influences().len(), 4);
        assert_eq!(r.investments().len(), 2);
        assert!(
            (r.investments()[0].share - 0.45).abs() < 1e-12,
            "percent parsed"
        );
        assert!(
            (r.investments()[1].share - 0.30).abs() < 1e-12,
            "fraction parsed"
        );
        assert_eq!(r.interdependencies().len(), 2);
        assert!(
            r.validate_strict().is_ok(),
            "adapter assigns consistent roles"
        );
    }

    #[test]
    fn roles_accumulate_across_rows() {
        let r = build_all();
        let li = r.person_by_name("Li Wei").unwrap();
        let roles = r.person(li).roles;
        assert!(roles.contains(Role::Ceo));
        assert!(roles.contains(Role::Director));
    }

    #[test]
    fn detection_runs_on_adapted_data() {
        // Li Wei (CEO of Acme, director of Beta) + sibling Zhang San
        // (chairman of Beta); Acme holds Beta which trades with Gamma,
        // Beta holds Gamma: the IAT Beta -> Gamma is suspicious.
        let r = build_all();
        let (tpiin, _) = tpiin_fusion::fuse(&r).unwrap();
        let result = tpiin_core::detect(&tpiin);
        assert!(result.group_count() >= 1);
        assert!(result
            .suspicious_trading_arcs
            .iter()
            .any(|&(s, t)| tpiin.label(s) == "Beta" && tpiin.label(t) == "Gamma"));
    }

    #[test]
    fn vocabulary_errors_carry_location() {
        let mut b = RegistryBuilder::new();
        let err = b
            .load_board_roster(
                "name,company,position,legal_person\nA,B,emperor,yes\n",
                "b.csv",
            )
            .unwrap_err();
        assert!(err.to_string().contains("b.csv:2"), "{err}");
        let err = b
            .load_relationships("a,b,relation\nA,B,frenemy\n", "r.csv")
            .unwrap_err();
        assert!(err.to_string().contains("frenemy"), "{err}");
        let err = b
            .load_shareholdings("investor,investee,share\nA,B,150%\n", "s.csv")
            .unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
    }

    #[test]
    fn quoted_names_resolve_and_later_records_keep_their_numbers() {
        let mut b = RegistryBuilder::new();
        let roster = "name,company,position,legal_person\n\
                      \"Li\nWei\",\"Acme, Inc.\",CEO,yes\n\
                      Zhang San,Beta,emperor,yes\n";
        let err = b.load_board_roster(roster, "b.csv").unwrap_err();
        assert_eq!(err.to_string(), "b.csv:3: unknown position `emperor`");
        let mut b = RegistryBuilder::new();
        b.load_board_roster(&roster.replace("emperor", "Chairman"), "b.csv")
            .unwrap();
        let r = b.finish().unwrap();
        assert!(r.person_by_name("Li\nWei").is_some());
        assert!(r.company_by_name("Acme, Inc.").is_some());
    }

    #[test]
    fn share_parsing_variants() {
        assert!((parse_share("45%", "t", 1).unwrap() - 0.45).abs() < 1e-12);
        assert!((parse_share("45.5 %", "t", 1).unwrap() - 0.455).abs() < 1e-12);
        assert!((parse_share("0.5", "t", 1).unwrap() - 0.5).abs() < 1e-12);
        assert!(
            (parse_share("55", "t", 1).unwrap() - 0.55).abs() < 1e-12,
            "bare >1 treated as percent"
        );
        assert!(parse_share("0", "t", 1).is_err());
        assert!(parse_share("abc", "t", 1).is_err());
    }

    #[test]
    fn finish_rejects_companies_without_legal_person() {
        let mut b = RegistryBuilder::new();
        b.load_shareholdings("investor,investee,share\nA,B,10%\n", "s.csv")
            .unwrap();
        match b.finish() {
            Err(IoError::Invalid(errs)) => assert!(!errs.is_empty()),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }
}
