//! Property-based round-trip tests for the CSV layer and the registry
//! serialization.

use proptest::prelude::*;
use tpiin_io::csv;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any table of arbitrary unicode strings survives render -> parse.
    #[test]
    fn csv_roundtrip(records in proptest::collection::vec(
        proptest::collection::vec(".*", 1..5), 0..8)) {
        let text = csv::render(&records);
        let parsed = csv::parse(&text, "prop").unwrap();
        // Rows that are entirely empty single fields serialize to blank
        // lines, which parse skips; normalize both sides.
        let normalize = |rows: &[Vec<String>]| -> Vec<Vec<String>> {
            rows.iter()
                .filter(|r| !(r.len() == 1 && r[0].is_empty()))
                .cloned()
                .collect()
        };
        prop_assert_eq!(normalize(&parsed), normalize(&records));
    }

    /// Escaping never changes the parsed value of a single field.
    #[test]
    fn field_escape_roundtrip(field in ".*") {
        let text = format!("{},x\n", csv::escape_field(&field));
        let parsed = csv::parse(&text, "prop").unwrap();
        prop_assert_eq!(&parsed[0][0], &field);
    }
}

/// Registry CSV round-trip on randomized provinces (seeded, three sizes).
#[test]
fn registry_roundtrip_random_provinces() {
    for (seed, scale) in [(1u64, 0.05), (2, 0.1), (3, 0.15)] {
        let config = tpiin_datagen::ProvinceConfig {
            seed,
            investment_cycles: 1,
            ..tpiin_datagen::ProvinceConfig::scaled(scale)
        };
        let mut registry = tpiin_datagen::generate_province(&config);
        tpiin_datagen::add_random_trading(&mut registry, 0.01, seed);
        let dir = std::env::temp_dir().join(format!("tpiin-io-prop-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        tpiin_io::registry_csv::save_registry(&registry, &dir).unwrap();
        let loaded = tpiin_io::registry_csv::load_registry(&dir).unwrap();
        assert_eq!(loaded.influences(), registry.influences());
        assert_eq!(loaded.investments(), registry.investments());
        assert_eq!(loaded.tradings(), registry.tradings());
        assert_eq!(loaded.interdependencies(), registry.interdependencies());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

mod json_roundtrip {
    use proptest::prelude::*;
    use tpiin_io::json::Json;

    fn arb_json() -> impl Strategy<Value = Json> {
        let leaf = prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            // Finite numbers only; NaN/inf serialize to null by design.
            (-1e12f64..1e12).prop_map(Json::Number),
            ".*".prop_map(Json::String),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Array),
                proptest::collection::vec((".*", inner), 0..4).prop_map(|entries| Json::Object(
                    entries
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect()
                )),
            ]
        })
    }

    fn approx_eq(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Number(x), Json::Number(y)) => {
                (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
            }
            (Json::Array(xs), Json::Array(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| approx_eq(x, y))
            }
            (Json::Object(xs), Json::Object(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((ka, x), (kb, y))| ka == kb && approx_eq(x, y))
            }
            _ => a == b,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn compact_and_pretty_roundtrip(value in arb_json()) {
            let compact = Json::parse(&value.to_string()).unwrap();
            prop_assert!(approx_eq(&compact, &value), "{compact:?} != {value:?}");
            let pretty = Json::parse(&value.to_pretty()).unwrap();
            prop_assert!(approx_eq(&pretty, &value));
        }
    }
}

/// The summary.json written by the reports module parses back and its
/// counters agree with the detection result.
#[test]
fn summary_json_roundtrip() {
    use tpiin_io::json::Json;
    let (tpiin, _) = tpiin_fusion::fuse(&tpiin_datagen::fig7_registry()).unwrap();
    let result = tpiin_core::detect(&tpiin);
    let text = tpiin_io::reports::summary_json(&result).to_pretty();
    let parsed = Json::parse(&text).unwrap();
    assert_eq!(
        parsed.get("simple_groups").and_then(Json::as_f64),
        Some(result.simple_group_count as f64)
    );
    assert_eq!(
        parsed.get("total_trading_arcs").and_then(Json::as_f64),
        Some(result.total_trading_arcs as f64)
    );
    assert_eq!(parsed.get("overflowed"), Some(&Json::Bool(false)));
}

mod edgelist_fuzz {
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The edge-list parser never panics on arbitrary input.
        #[test]
        fn parser_never_panics(text in ".*") {
            let _ = tpiin_io::edgelist::parse_rows(&text, "fuzz");
            let _ = tpiin_io::edgelist::parse_edge_list(&text, "fuzz");
        }

        /// The JSON parser never panics on arbitrary input.
        #[test]
        fn json_parser_never_panics(text in ".*") {
            let _ = tpiin_io::json::Json::parse(&text);
        }

        /// Structured edge lists round-trip through render + parse.
        #[test]
        fn valid_edge_lists_roundtrip(
            rows in proptest::collection::vec((0u32..50, 0u32..50, proptest::bool::ANY), 0..40)
        ) {
            let text: String = rows
                .iter()
                .map(|&(s, t, inf)| format!("{s}\t{t}\t{}\n", u8::from(inf)))
                .collect();
            let parsed = tpiin_io::edgelist::parse_rows(&text, "prop").unwrap();
            prop_assert_eq!(parsed.len(), rows.len());
            for (row, &(s, t, inf)) in parsed.iter().zip(&rows) {
                prop_assert_eq!(row.source, s);
                prop_assert_eq!(row.target, t);
                prop_assert_eq!(row.influence, inf);
            }
        }
    }
}
