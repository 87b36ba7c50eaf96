//! The character-at-a-time CSV parser is the oracle.
//!
//! [`reference_parse`] is `tpiin_io::csv::parse` as it stood before the
//! reader became a borrowing byte-level stream: it walks `text.chars()`,
//! pushes every character into a fresh `String`, and materialises the
//! whole file.  The production reader must give **the same records, or
//! the same error** — same context, same line, same message — on every
//! string of up to five characters over the dialect's alphabet (`a`, `é`,
//! `,`, `"`, CR, LF), and on random strings of up to fourteen.
//!
//! `CSV_DIFF_CASES` sets the number of random strings (default 20 000).
//!
//! The registry writer and loader are pinned too: an order-sensitive
//! FNV-1a over the six files `save_registry` writes, for the fixtures of
//! `province_scale::fixture_counts_are_pinned` and for a registry whose
//! names need quoting, and `load_registry` must return every record.

use rand::prelude::*;
use std::path::{Path, PathBuf};
use tpiin::datagen::{
    add_random_trading, generate_nation_with, generate_province, NationConfig, ProvinceConfig,
};
use tpiin::io::registry_csv::{load_registry, save_registry};
use tpiin::io::{csv, IoError};
use tpiin::model::{
    CompanyId, InfluenceKind, InfluenceRecord, InterdependenceKind, InvestmentRecord, PersonId,
    Role, RoleSet, SourceRegistry, TradingRecord,
};

// ---------------------------------------------------------------------
// The oracle: the char-level parser, kept verbatim.
// ---------------------------------------------------------------------

fn parse_error(context: &str, line: usize, message: &str) -> IoError {
    IoError::Parse {
        context: context.to_string(),
        line,
        message: message.to_string(),
    }
}

fn reference_parse(text: &str, context: &str) -> Result<Vec<Vec<String>>, IoError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut after_quoted = false; // just closed a quoted section
    let mut line = 1usize;
    let mut started = false; // current record has content
    let mut chars = text.chars().peekable();

    while let Some(ch) = chars.next() {
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                        after_quoted = true;
                    }
                }
                '\n' => {
                    field.push(ch);
                    line += 1;
                }
                _ => field.push(ch),
            }
            continue;
        }
        match ch {
            '"' => {
                if after_quoted || !field.is_empty() {
                    return Err(parse_error(context, line, "unexpected quote inside field"));
                }
                in_quotes = true;
                started = true;
            }
            ',' => {
                record.push(std::mem::take(&mut field));
                after_quoted = false;
                started = true;
            }
            '\r' => {
                // Consumed as part of CRLF; a bare CR is an error.
                if chars.peek() != Some(&'\n') {
                    return Err(parse_error(context, line, "bare carriage return"));
                }
            }
            '\n' => {
                if started || !field.is_empty() {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                started = false;
                after_quoted = false;
                line += 1;
            }
            _ => {
                field.push(ch);
                started = true;
            }
        }
    }
    if in_quotes {
        return Err(parse_error(context, line, "unterminated quoted field"));
    }
    if started || !field.is_empty() {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

// ---------------------------------------------------------------------
// Reader vs oracle.
// ---------------------------------------------------------------------

/// Records, or the error's `(context, line, message)`.
type Outcome = Result<Vec<Vec<String>>, (String, usize, String)>;

fn outcome(result: Result<Vec<Vec<String>>, IoError>) -> Outcome {
    result.map_err(|e| match e {
        IoError::Parse {
            context,
            line,
            message,
        } => (context, line, message),
        other => panic!("CSV parsing raised a non-parse error: {other}"),
    })
}

fn check(text: &str) {
    assert_eq!(
        outcome(csv::parse(text, "oracle.csv")),
        outcome(reference_parse(text, "oracle.csv")),
        "input {text:?}"
    );
}

const ALPHABET: [char; 6] = ['a', 'é', ',', '"', '\r', '\n'];

#[test]
fn dialect_corners_match_the_oracle() {
    for text in [
        "",
        "\n\n",
        "a,b\r\nc,d\r\n",
        "a\rb",
        "\"ab\"cd,e\n",
        "\"ab\"c\"d\n",
        "ab\"c\n",
        "\"a\"\"b\",\"\"\n",
        "\"multi\nline\",x\ny,z",
        "\"cr\r\nkept\"\n",
        "\"open\n\nnever closed",
        "h\n\n\"\"\n,\n",
        "é,\"é\"é\r\n",
    ] {
        check(text);
    }
}

#[test]
fn every_short_string_matches_the_oracle() {
    let mut texts = vec![String::new()];
    for _ in 0..5 {
        texts = texts
            .iter()
            .flat_map(|t| {
                ALPHABET.iter().map(move |&c| {
                    let mut next = t.clone();
                    next.push(c);
                    next
                })
            })
            .collect();
        for text in &texts {
            check(text);
        }
    }
}

/// Number of random strings: 20 000 unless `CSV_DIFF_CASES` says
/// otherwise.
fn case_count() -> u64 {
    std::env::var("CSV_DIFF_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000)
}

#[test]
fn random_strings_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0xc5f);
    for _ in 0..case_count() {
        let len = rng.gen_range(0..15);
        let text: String = (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect();
        check(&text);
    }
}

// ---------------------------------------------------------------------
// Registry files: bytes pinned, records returned.
// ---------------------------------------------------------------------

const FILES: [&str; 6] = [
    "persons.csv",
    "companies.csv",
    "interdependence.csv",
    "influence.csv",
    "investment.csv",
    "trading.csv",
];

/// FNV-1a over each file's name and bytes, in [`FILES`] order.
fn files_hash(dir: &Path) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in FILES {
        let bytes = std::fs::read(dir.join(file)).unwrap();
        for &b in file.as_bytes().iter().chain([0].iter()).chain(&bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn assert_same_records(what: &str, got: &SourceRegistry, want: &SourceRegistry) {
    assert_eq!(got.person_count(), want.person_count(), "{what}: persons");
    for ((id, g), (_, w)) in got.persons().zip(want.persons()) {
        assert_eq!(g, w, "{what}: person {id:?}");
    }
    assert_eq!(
        got.company_count(),
        want.company_count(),
        "{what}: companies"
    );
    for ((id, g), (_, w)) in got.companies().zip(want.companies()) {
        assert_eq!(g, w, "{what}: company {id:?}");
    }
    assert_eq!(
        got.interdependencies(),
        want.interdependencies(),
        "{what}: interdependencies"
    );
    assert_eq!(got.influences(), want.influences(), "{what}: influences");
    assert_eq!(got.investments(), want.investments(), "{what}: investments");
    assert_eq!(got.tradings(), want.tradings(), "{what}: tradings");
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpiin-csv-oracle-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Names with every character the writer must quote, plus a non-ASCII
/// one, on persons and companies alike.
fn awkward_names_registry() -> SourceRegistry {
    const NAMES: [&str; 5] = [
        "Li, Wei",
        "\"Boss\" Zhang",
        "two\nlines",
        "crlf\r\ninside",
        "Zoë, \"é\"\n",
    ];
    let mut r = SourceRegistry::new();
    let mut companies = Vec::new();
    for (i, name) in NAMES.iter().enumerate() {
        let person = r.add_person(*name, RoleSet::of(&[Role::Ceo, Role::Director]));
        let company = r.add_company(format!("{name} Ltd. {i}"));
        r.add_influence(InfluenceRecord {
            person,
            company,
            kind: InfluenceKind::CeoAndDirectorOf,
            is_legal_person: true,
        });
        companies.push(company);
    }
    r.add_interdependence(PersonId(0), PersonId(2), InterdependenceKind::Kinship);
    r.add_interdependence(PersonId(3), PersonId(1), InterdependenceKind::Interlocking);
    r.add_investment(InvestmentRecord {
        investor: companies[0],
        investee: companies[1],
        share: 0.125,
    });
    for (k, pair) in companies.windows(2).enumerate() {
        r.add_trading(TradingRecord {
            seller: pair[1],
            buyer: pair[0],
            volume: 1e6 / (k + 3) as f64,
        });
    }
    r.add_trading(TradingRecord {
        seller: CompanyId(0),
        buyer: CompanyId(4),
        volume: 0.1,
    });
    r
}

#[test]
fn saved_files_are_pinned_and_load_back_record_for_record() {
    // The fixtures of `province_scale::fixture_counts_are_pinned`.
    const SEED: u64 = 20170417;
    let base = ProvinceConfig {
        seed: SEED,
        ..ProvinceConfig::scaled(0.1)
    };
    let mut province = generate_province(&base);
    add_random_trading(&mut province, 0.004, SEED ^ 0x7ead);
    let nation_scaled = NationConfig::scaled(0.1);
    let nation = generate_nation_with(&NationConfig {
        planted_rings: nation_scaled.planted_rings.min(base.companies / 2),
        control_chains: nation_scaled.control_chains.min(base.companies / 2),
        base,
        seed: SEED,
        ..nation_scaled
    });

    for (name, registry, pinned) in [
        ("province-0.1", province, 0xdc63_1d49_a1b5_92c0_u64),
        ("nation-0.1", nation, 0xe3bd_4036_e4b2_f135),
        (
            "awkward-names",
            awkward_names_registry(),
            0x9285_4871_d802_cf31,
        ),
    ] {
        let dir = scratch_dir(name);
        save_registry(&registry, &dir).unwrap();
        assert_eq!(files_hash(&dir), pinned, "{name}: saved bytes");
        let loaded = load_registry(&dir).unwrap();
        assert_same_records(name, &loaded, &registry);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
