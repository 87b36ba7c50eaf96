//! Property-based round-trip tests for the snapshot label escaping:
//! arbitrary Unicode labels — salted with the escape metacharacters
//! (`%`, space, tab, CR, LF) — must survive `write_snapshot` →
//! `read_snapshot` byte-for-byte.  Decoding `%XX` per *character*
//! instead of per *byte* corrupted every multi-byte UTF-8 label; this
//! test pins the byte-level contract.

use proptest::prelude::*;
use tpiin_io::snapshot::{read_snapshot, write_snapshot};
use tpiin_model::{InfluenceKind, InfluenceRecord, Role, RoleSet, SourceRegistry};

/// Characters the escaper must handle explicitly, plus multi-byte
/// UTF-8 neighbours that a Latin-1 decode would corrupt.
const SPECIALS: &[char] = &['%', ' ', '\t', '\r', '\n', 'é', '中', '🦀', '%'];

/// An arbitrary Unicode string with escape metacharacters woven in.
fn arb_label() -> impl Strategy<Value = String> {
    (
        ".*",
        proptest::collection::vec(0usize..SPECIALS.len(), 0..8),
    )
        .prop_map(|(base, specials)| {
            let mut label = String::from("x"); // labels stay non-empty
            let mut specials = specials.into_iter();
            for ch in base.chars() {
                label.push(ch);
                if let Some(i) = specials.next() {
                    label.push(SPECIALS[i]);
                }
            }
            for i in specials {
                label.push(SPECIALS[i]);
            }
            label
        })
}

/// Every group's evidence chain, assembled on demand, is the same over
/// both networks and audits clean against each.
fn assert_same_chains(
    a: &tpiin_fusion::Tpiin,
    b: &tpiin_fusion::Tpiin,
    groups: &tpiin_core::GroupTable,
) -> Result<(), TestCaseError> {
    for g in groups {
        let chain = tpiin_core::Provenance::assemble(a, g);
        prop_assert_eq!(&chain, &tpiin_core::Provenance::assemble(b, g));
        prop_assert!(chain.audit(a).is_ok() && chain.audit(b).is_ok());
    }
    Ok(())
}

proptest! {
    #[test]
    fn unicode_labels_roundtrip(person_label in arb_label(), company_label in arb_label()) {
        let mut registry = SourceRegistry::new();
        let p = registry.add_person(&person_label, RoleSet::of(&[Role::Ceo]));
        let c = registry.add_company(&company_label);
        registry.add_influence(InfluenceRecord {
            person: p,
            company: c,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
        let (tpiin, _) = tpiin_fusion::fuse(&registry).expect("two-node registry fuses");
        let restored = read_snapshot(&write_snapshot(&tpiin)).expect("snapshot parses");
        prop_assert_eq!(restored.label(tpiin.person_node[0]), person_label.as_str());
        prop_assert_eq!(restored.label(tpiin.company_node[0]), company_label.as_str());
    }

    /// Group provenance must survive the v2 snapshot round-trip: same
    /// records, and every referenced arc still resolves in the restored
    /// network.
    #[test]
    fn provenance_survives_snapshot_roundtrip(seed in 0u64..32) {
        let config = tpiin_datagen::ProvinceConfig {
            seed,
            ..tpiin_datagen::ProvinceConfig::scaled(0.05)
        };
        let mut registry = tpiin_datagen::generate_province(&config);
        tpiin_datagen::add_random_trading(&mut registry, 0.02, seed.wrapping_add(7));
        let (tpiin, _) = tpiin_fusion::fuse(&registry).expect("generated registry fuses");
        let restored = read_snapshot(&write_snapshot(&tpiin)).expect("snapshot parses");
        let a = tpiin_core::detect(&tpiin);
        let b = tpiin_core::detect(&restored);
        prop_assert_eq!(&a.groups, &b.groups);
        assert_same_chains(&tpiin, &restored, &a.groups)?;
    }

    /// The binary zero-copy decode must be bit-identical to the text
    /// decode of the same network: same snapshot rendering, same
    /// provenance feed, same frozen CSR lanes, same detection output.
    #[test]
    fn binary_and_text_decodes_are_bit_identical(seed in 0u64..32) {
        let config = tpiin_datagen::ProvinceConfig {
            seed,
            ..tpiin_datagen::ProvinceConfig::scaled(0.05)
        };
        let mut registry = tpiin_datagen::generate_province(&config);
        tpiin_datagen::add_random_trading(&mut registry, 0.02, seed.wrapping_add(7));
        let (tpiin, _) = tpiin_fusion::fuse(&registry).expect("generated registry fuses");

        let text = write_snapshot(&tpiin);
        let bin = tpiin_io::snapshot_bin::write_snapshot_bin(&tpiin);
        let from_text =
            tpiin_io::snapshot::read_snapshot_bytes(text.as_bytes()).expect("text decodes");
        let from_bin = tpiin_io::snapshot::read_snapshot_bytes(&bin).expect("binary decodes");

        // Full-state equality via the canonical text rendering, plus
        // the fields the rendering cannot see: provenance feed order
        // and the frozen CSR arrays of every colour lane.
        prop_assert_eq!(write_snapshot(&from_text), write_snapshot(&from_bin));
        prop_assert_eq!(&from_text.arc_sources, &from_bin.arc_sources);
        let (a, b) = (from_text.csr(), from_bin.csr());
        for lane in 0..2 {
            prop_assert_eq!(a.lane_out_offsets(lane), b.lane_out_offsets(lane));
            prop_assert_eq!(a.lane_out_targets(lane), b.lane_out_targets(lane));
            prop_assert_eq!(a.lane_out_edge_ids(lane), b.lane_out_edge_ids(lane));
            prop_assert_eq!(a.lane_in_offsets(lane), b.lane_in_offsets(lane));
            prop_assert_eq!(a.lane_in_sources(lane), b.lane_in_sources(lane));
        }
        let (da, db) = (tpiin_core::detect(&from_text), tpiin_core::detect(&from_bin));
        prop_assert_eq!(&da.groups, &db.groups);
        prop_assert_eq!(&da.suspicious_trading_arcs, &db.suspicious_trading_arcs);
        assert_same_chains(&from_text, &from_bin, &da.groups)?;
    }
}
