//! Load/save a [`SourceRegistry`] as a directory of six CSV files — the
//! shape the CSRC/HRDPSC/PTAOS extracts arrive in:
//!
//! | file | columns |
//! |---|---|
//! | `persons.csv` | `name,roles` (roles `+`-joined from CB/CEO/D/S) |
//! | `companies.csv` | `name` |
//! | `interdependence.csv` | `a,b,kind` (person indices; `kinship`/`interlocking`) |
//! | `influence.csv` | `person,company,kind,legal_person` (`ceo_and_d`/`ceo`/`cb`/`d`; `1`/`0`) |
//! | `investment.csv` | `investor,investee,share` |
//! | `trading.csv` | `seller,buyer,volume` |
//!
//! Entity references are dense row indices (0-based, matching id order),
//! so a saved registry round-trips exactly.

use crate::csv;
use crate::error::IoError;
use std::borrow::Cow;
use std::fmt::Write;
use std::path::Path;
use tpiin_model::{
    CompanyId, InfluenceKind, InfluenceRecord, InterdependenceKind, InvestmentRecord, PersonId,
    Role, RoleSet, SourceRegistry, TradingRecord,
};

pub(crate) fn roles_to_string(roles: RoleSet) -> String {
    let mut text = String::new();
    push_roles(&mut text, roles);
    text
}

/// Appends `roles` `+`-joined (`CB+D`); the tokens never need quoting.
fn push_roles(out: &mut String, roles: RoleSet) {
    for (i, role) in roles.iter().enumerate() {
        if i > 0 {
            out.push('+');
        }
        let _ = write!(out, "{role}");
    }
}

pub(crate) fn roles_from_string(
    text: &str,
    context: &str,
    line: usize,
) -> Result<RoleSet, IoError> {
    let mut set = RoleSet::EMPTY;
    if text.is_empty() {
        return Ok(set);
    }
    for token in text.split('+') {
        let role = match token {
            "CB" => Role::Chairman,
            "CEO" => Role::Ceo,
            "D" => Role::Director,
            "S" => Role::Shareholder,
            other => {
                return Err(IoError::parse(
                    context,
                    line,
                    format!("unknown role `{other}`"),
                ))
            }
        };
        set = set.with(role);
    }
    Ok(set)
}

pub(crate) fn influence_kind_to_string(kind: InfluenceKind) -> &'static str {
    match kind {
        InfluenceKind::CeoAndDirectorOf => "ceo_and_d",
        InfluenceKind::CeoOf => "ceo",
        InfluenceKind::ChairmanOf => "cb",
        InfluenceKind::DirectorOf => "d",
    }
}

pub(crate) fn influence_kind_from_string(
    s: &str,
    context: &str,
    line: usize,
) -> Result<InfluenceKind, IoError> {
    Ok(match s {
        "ceo_and_d" => InfluenceKind::CeoAndDirectorOf,
        "ceo" => InfluenceKind::CeoOf,
        "cb" => InfluenceKind::ChairmanOf,
        "d" => InfluenceKind::DirectorOf,
        other => {
            return Err(IoError::parse(
                context,
                line,
                format!("unknown influence kind `{other}`"),
            ))
        }
    })
}

fn read(path: &Path) -> Result<String, IoError> {
    std::fs::read_to_string(path).map_err(|e| IoError::fs(path, e))
}

/// Writes `out` to `dir/file` and empties it for the next file.
fn flush(dir: &Path, file: &str, out: &mut String) -> Result<(), IoError> {
    let path = dir.join(file);
    std::fs::write(&path, out.as_bytes()).map_err(|e| IoError::fs(&path, e))?;
    out.clear();
    Ok(())
}

/// Saves `registry` into `dir` (created if missing), one CSV per record
/// type, each with a header row.
///
/// Every file is written into one reused buffer: ids and numbers are
/// formatted straight into it, and only a name that needs quotes is
/// escaped through a copy.
pub fn save_registry(registry: &SourceRegistry, dir: &Path) -> Result<(), IoError> {
    std::fs::create_dir_all(dir).map_err(|e| IoError::fs(dir, e))?;
    let mut out = String::new();

    out.push_str("name,roles\n");
    for (_, p) in registry.persons() {
        csv::push_field(&mut out, &p.name);
        out.push(',');
        push_roles(&mut out, p.roles);
        out.push('\n');
    }
    flush(dir, "persons.csv", &mut out)?;

    out.push_str("name\n");
    for (_, c) in registry.companies() {
        csv::push_field(&mut out, &c.name);
        out.push('\n');
    }
    flush(dir, "companies.csv", &mut out)?;

    out.push_str("a,b,kind\n");
    for i in registry.interdependencies() {
        let kind = match i.kind {
            InterdependenceKind::Kinship => "kinship",
            InterdependenceKind::Interlocking => "interlocking",
        };
        let _ = writeln!(out, "{},{},{kind}", i.a.index(), i.b.index());
    }
    flush(dir, "interdependence.csv", &mut out)?;

    out.push_str("person,company,kind,legal_person\n");
    for r in registry.influences() {
        let _ = writeln!(
            out,
            "{},{},{},{}",
            r.person.index(),
            r.company.index(),
            influence_kind_to_string(r.kind),
            u8::from(r.is_legal_person)
        );
    }
    flush(dir, "influence.csv", &mut out)?;

    out.push_str("investor,investee,share\n");
    for r in registry.investments() {
        let _ = writeln!(
            out,
            "{},{},{}",
            r.investor.index(),
            r.investee.index(),
            r.share
        );
    }
    flush(dir, "investment.csv", &mut out)?;

    out.push_str("seller,buyer,volume\n");
    for r in registry.tradings() {
        let _ = writeln!(out, "{},{},{}", r.seller.index(), r.buyer.index(), r.volume);
    }
    flush(dir, "trading.csv", &mut out)
}

fn parse_u32(field: &str, context: &str, line: usize) -> Result<u32, IoError> {
    field
        .parse()
        .map_err(|e| IoError::parse(context, line, format!("bad integer `{field}`: {e}")))
}

fn parse_f64(field: &str, context: &str, line: usize) -> Result<f64, IoError> {
    field
        .parse()
        .map_err(|e| IoError::parse(context, line, format!("bad number `{field}`: {e}")))
}

/// Streams the data records of `dir/context` into `each`, with the
/// record's 1-based number (the header, record 1, is skipped) once it is
/// known to have `columns` fields.
fn for_each_row(
    dir: &Path,
    context: &str,
    columns: usize,
    mut each: impl FnMut(&[Cow<str>], usize) -> Result<(), IoError>,
) -> Result<(), IoError> {
    let text = read(&dir.join(context))?;
    csv::for_each_record(&text, context, |index, record| {
        if index == 0 {
            return Ok(());
        }
        if record.len() != columns {
            return Err(IoError::parse(
                context,
                index + 1,
                format!("expected {columns} columns, found {}", record.len()),
            ));
        }
        each(record, index + 1)
    })
}

/// Loads a registry saved by [`save_registry`] and validates it.
///
/// Each file is parsed as it streams, straight into the registry: an
/// unquoted field is read in place, and a name is copied once, into the
/// registry.  Files load in the order of the module table, and within a
/// file the **first defect in file order** is reported, whether a CSV
/// syntax error (cited by physical line) or a bad value (cited by record
/// number, the header being record 1): a bad value in record 2 is the
/// error even when a later record is malformed CSV.  Validation runs
/// last, over the whole registry.
pub fn load_registry(dir: &Path) -> Result<SourceRegistry, IoError> {
    let mut registry = SourceRegistry::new();

    let context = "persons.csv";
    for_each_row(dir, context, 2, |record, line| {
        let roles = roles_from_string(&record[1], context, line)?;
        registry.add_person(&*record[0], roles);
        Ok(())
    })?;

    for_each_row(dir, "companies.csv", 1, |record, _| {
        registry.add_company(&*record[0]);
        Ok(())
    })?;

    let context = "interdependence.csv";
    for_each_row(dir, context, 3, |record, line| {
        let kind = match &*record[2] {
            "kinship" => InterdependenceKind::Kinship,
            "interlocking" => InterdependenceKind::Interlocking,
            other => {
                return Err(IoError::parse(
                    context,
                    line,
                    format!("unknown interdependence kind `{other}`"),
                ))
            }
        };
        registry.add_interdependence(
            PersonId(parse_u32(&record[0], context, line)?),
            PersonId(parse_u32(&record[1], context, line)?),
            kind,
        );
        Ok(())
    })?;

    let context = "influence.csv";
    for_each_row(dir, context, 4, |record, line| {
        registry.add_influence(InfluenceRecord {
            person: PersonId(parse_u32(&record[0], context, line)?),
            company: CompanyId(parse_u32(&record[1], context, line)?),
            kind: influence_kind_from_string(&record[2], context, line)?,
            is_legal_person: match &*record[3] {
                "1" => true,
                "0" => false,
                other => {
                    return Err(IoError::parse(
                        context,
                        line,
                        format!("legal_person must be 0 or 1, found `{other}`"),
                    ))
                }
            },
        });
        Ok(())
    })?;

    let context = "investment.csv";
    for_each_row(dir, context, 3, |record, line| {
        registry.add_investment(InvestmentRecord {
            investor: CompanyId(parse_u32(&record[0], context, line)?),
            investee: CompanyId(parse_u32(&record[1], context, line)?),
            share: parse_f64(&record[2], context, line)?,
        });
        Ok(())
    })?;

    let context = "trading.csv";
    for_each_row(dir, context, 3, |record, line| {
        registry.add_trading(TradingRecord {
            seller: CompanyId(parse_u32(&record[0], context, line)?),
            buyer: CompanyId(parse_u32(&record[1], context, line)?),
            volume: parse_f64(&record[2], context, line)?,
        });
        Ok(())
    })?;

    registry.validate().map_err(IoError::Invalid)?;
    Ok(registry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tpiin-io-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_preserves_every_record() {
        let registry = tpiin_datagen::fig7_registry();
        let dir = tmpdir("roundtrip");
        save_registry(&registry, &dir).unwrap();
        let loaded = load_registry(&dir).unwrap();
        assert_eq!(loaded.person_count(), registry.person_count());
        assert_eq!(loaded.company_count(), registry.company_count());
        assert_eq!(loaded.interdependencies(), registry.interdependencies());
        assert_eq!(loaded.influences(), registry.influences());
        assert_eq!(loaded.investments(), registry.investments());
        assert_eq!(loaded.tradings(), registry.tradings());
        for (id, p) in registry.persons() {
            assert_eq!(loaded.person(id), p);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn roles_roundtrip_including_multi_role_sets() {
        for roles in [
            RoleSet::of(&[Role::Ceo]),
            RoleSet::of(&[Role::Chairman, Role::Director, Role::Shareholder]),
            RoleSet::EMPTY,
        ] {
            let text = roles_to_string(roles);
            assert_eq!(roles_from_string(&text, "t", 1).unwrap(), roles);
        }
    }

    #[test]
    fn invalid_loaded_registry_is_rejected() {
        let mut registry = SourceRegistry::new();
        registry.add_company("orphan"); // no legal person
        let dir = tmpdir("invalid");
        save_registry(&registry, &dir).unwrap();
        match load_registry(&dir) {
            Err(IoError::Invalid(errs)) => assert!(!errs.is_empty()),
            other => panic!("expected Invalid, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_kind_reports_file_and_line() {
        let dir = tmpdir("badkind");
        let registry = tpiin_datagen::fig7_registry();
        save_registry(&registry, &dir).unwrap();
        std::fs::write(
            dir.join("influence.csv"),
            "person,company,kind,legal_person\n0,0,emperor,1\n",
        )
        .unwrap();
        let err = load_registry(&dir).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("influence.csv:2"), "{text}");
        assert!(text.contains("emperor"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_reports_path() {
        let dir = tmpdir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        let err = load_registry(&dir).unwrap_err();
        assert!(err.to_string().contains("persons.csv"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Saves fig7, replaces `file` with `content`, and returns the error.
    fn load_error_with(name: &str, file: &str, content: &str) -> String {
        let dir = tmpdir(name);
        save_registry(&tpiin_datagen::fig7_registry(), &dir).unwrap();
        std::fs::write(dir.join(file), content).unwrap();
        let err = load_registry(&dir).unwrap_err().to_string();
        std::fs::remove_dir_all(&dir).unwrap();
        err
    }

    #[test]
    fn errors_cite_records_not_lines_after_a_multi_line_name() {
        // The name spans lines 2-3; the bad role is on line 4 but is
        // record 3.
        let err = load_error_with(
            "multiline",
            "persons.csv",
            "name,roles\n\"two\nlines\",CEO\nBob,XX\n",
        );
        assert_eq!(err, "persons.csv:3: unknown role `XX`");
    }

    #[test]
    fn the_first_defect_in_file_order_is_reported() {
        // A bad value in record 2 wins over the unterminated quote after
        // it: the file is read as a stream.
        let err = load_error_with(
            "first-defect",
            "trading.csv",
            "seller,buyer,volume\n0,1,abc\n0,1,\"open\n",
        );
        assert!(err.starts_with("trading.csv:2: bad number `abc`"), "{err}");
        // A syntax error before any bad value still cites its line.
        let err = load_error_with(
            "syntax-first",
            "trading.csv",
            "seller,buyer,volume\n0,1,\"2\"x\"\n0,1,abc\n",
        );
        assert_eq!(err, "trading.csv:2: unexpected quote inside field");
    }
}
