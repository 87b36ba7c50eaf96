//! Property tests for the TPIINBIN snapshot file.
//!
//! * Round trips: arbitrary Unicode labels survive byte for byte, group
//!   provenance survives, and the decoded network equals the source
//!   network field by field and re-encodes to the same bytes.
//! * Damage: truncations, byte flips (header and section table
//!   included) and arbitrary bytes after a valid preamble make the
//!   reader return `Ok` or `Err`, never panic, and never a torn network:
//!   whatever loads has the CSR lanes of its own arcs and an acyclic
//!   antecedent network.

use proptest::prelude::*;
use std::sync::OnceLock;
use tpiin_fusion::{Tpiin, INFLUENCE_LANE};
use tpiin_graph::CsrGraph;
use tpiin_io::snapshot_bin::{read_snapshot_bin, write_snapshot_bin};
use tpiin_model::{
    InfluenceKind, InfluenceRecord, InvestmentRecord, Role, RoleSet, SourceRegistry, TradingRecord,
};

/// Characters a line- or whitespace-oriented encoding would have to
/// escape, plus multi-byte UTF-8 neighbours that a Latin-1 decode would
/// corrupt.
const SPECIALS: &[char] = &['%', ' ', '\t', '\r', '\n', 'é', '中', '🦀', '%'];

/// An arbitrary Unicode string with the special characters woven in.
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

/// A fused scaled province with random trading on top.
fn province(seed: u64) -> Tpiin {
    let config = tpiin_datagen::ProvinceConfig {
        seed,
        ..tpiin_datagen::ProvinceConfig::scaled(0.05)
    };
    let mut registry = tpiin_datagen::generate_province(&config);
    tpiin_datagen::add_random_trading(&mut registry, 0.02, seed.wrapping_add(7));
    tpiin_fusion::fuse(&registry)
        .expect("generated registry fuses")
        .0
}

/// Every group's evidence chain, assembled on demand, is the same over
/// both networks and audits clean against each.
fn assert_same_chains(
    a: &Tpiin,
    b: &Tpiin,
    groups: &tpiin_core::GroupTable,
) -> Result<(), TestCaseError> {
    for g in groups {
        let chain = tpiin_core::Provenance::assemble(a, g);
        prop_assert_eq!(&chain, &tpiin_core::Provenance::assemble(b, g));
        prop_assert!(chain.audit(a).is_ok() && chain.audit(b).is_ok());
    }
    Ok(())
}

/// `restored` equals `source` field by field: node payloads, arcs in id
/// order (weights bit for bit), arc counts, per-arc source records,
/// intra-syndicate trades, the person and company tables, and every
/// frozen CSR lane.
fn assert_same_network(source: &Tpiin, restored: &Tpiin) -> Result<(), TestCaseError> {
    let nodes = |t: &Tpiin| t.graph.nodes().map(|(_, n)| n.clone()).collect::<Vec<_>>();
    prop_assert_eq!(nodes(restored), nodes(source));
    let arcs = |t: &Tpiin| {
        let arc = |e: tpiin_graph::EdgeRef<'_, tpiin_fusion::TpiinArc>| {
            (
                e.source,
                e.target,
                e.weight.color,
                e.weight.weight.to_bits(),
            )
        };
        t.graph.edges().map(arc).collect::<Vec<_>>()
    };
    prop_assert_eq!(arcs(restored), arcs(source));
    prop_assert_eq!(restored.influence_arc_count, source.influence_arc_count);
    prop_assert_eq!(restored.trading_arc_count, source.trading_arc_count);
    prop_assert_eq!(&restored.arc_sources, &source.arc_sources);
    prop_assert_eq!(
        &restored.intra_syndicate_trades,
        &source.intra_syndicate_trades
    );
    prop_assert_eq!(&restored.person_node, &source.person_node);
    prop_assert_eq!(&restored.company_node, &source.company_node);
    assert_same_lanes(source.csr(), restored.csr())
}

/// Two frozen CSRs hold the same lanes, array by array.
fn assert_same_lanes(a: &CsrGraph, b: &CsrGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.node_count(), b.node_count());
    prop_assert_eq!(a.lane_count(), b.lane_count());
    for lane in 0..a.lane_count() {
        prop_assert_eq!(a.lane_out_offsets(lane), b.lane_out_offsets(lane));
        prop_assert_eq!(a.lane_out_targets(lane), b.lane_out_targets(lane));
        prop_assert_eq!(a.lane_out_edge_ids(lane), b.lane_out_edge_ids(lane));
        prop_assert_eq!(a.lane_in_offsets(lane), b.lane_in_offsets(lane));
        prop_assert_eq!(a.lane_in_sources(lane), b.lane_in_sources(lane));
    }
    Ok(())
}

/// Decoding `tpiin`'s image yields `tpiin` field by field, and encoding
/// the result again yields the same bytes.
fn assert_roundtrip(tpiin: &Tpiin) -> Result<(), TestCaseError> {
    let bytes = write_snapshot_bin(tpiin);
    let restored = read_snapshot_bin(&bytes).expect("snapshot parses");
    assert_same_network(tpiin, &restored)?;
    prop_assert!(
        write_snapshot_bin(&restored) == bytes,
        "re-encode changed the bytes"
    );
    Ok(())
}

/// The same round trip over fixed networks: the fig7 worked example and
/// a two-company investment syndicate whose one trade stays internal.
#[test]
fn fixed_networks_roundtrip_field_by_field() {
    let (fig7, _) = tpiin_fusion::fuse(&tpiin_datagen::fig7_registry()).unwrap();
    assert_roundtrip(&fig7).unwrap();

    let mut registry = SourceRegistry::new();
    let l = registry.add_person("L", RoleSet::of(&[Role::Ceo]));
    let [c1, c2] = ["C1", "C2"].map(|name| registry.add_company(name));
    for company in [c1, c2] {
        registry.add_influence(InfluenceRecord {
            person: l,
            company,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
    }
    for (investor, investee) in [(c1, c2), (c2, c1)] {
        registry.add_investment(InvestmentRecord {
            investor,
            investee,
            share: 0.5,
        });
    }
    registry.add_trading(TradingRecord {
        seller: c1,
        buyer: c2,
        volume: 7.0,
    });
    let (syndicate, _) = tpiin_fusion::fuse(&registry).unwrap();
    assert_eq!(syndicate.intra_syndicate_trades.len(), 1);
    assert_roundtrip(&syndicate).unwrap();
}

/// Valid images to damage: the fig7 worked example and a small province.
fn images() -> &'static [Vec<u8>; 2] {
    static IMAGES: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let (fig7, _) = tpiin_fusion::fuse(&tpiin_datagen::fig7_registry()).unwrap();
        [write_snapshot_bin(&fig7), write_snapshot_bin(&province(3))]
    })
}

/// Preamble (magic, version, section count) plus the section table a
/// valid `image` declares: the bytes every later check trusts.
fn head_bytes(image: &[u8]) -> usize {
    16 + 16 * u32::from_le_bytes(image[12..16].try_into().unwrap()) as usize
}

/// A damaged image the reader accepted is still a network fusion could
/// have built: its CSR is the freeze of its own arcs, lane by lane, and
/// its influence arcs are acyclic.
fn assert_not_torn(read: Result<Tpiin, tpiin_io::IoError>) -> Result<(), TestCaseError> {
    if let Ok(tpiin) = read {
        let frozen = tpiin
            .graph
            .freeze_lanes(2, |_, arc| arc.color.code() as usize);
        assert_same_lanes(&frozen, tpiin.csr())?;
        prop_assert!(
            tpiin.csr().is_acyclic(INFLUENCE_LANE),
            "cyclic antecedent network loaded"
        );
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
        let restored = read_snapshot_bin(&write_snapshot_bin(&tpiin)).expect("snapshot parses");
        prop_assert_eq!(restored.label(tpiin.person_node[0]), person_label.as_str());
        prop_assert_eq!(restored.label(tpiin.company_node[0]), company_label.as_str());
    }

    /// Group provenance survives the snapshot round trip: same groups,
    /// same chains, and every referenced arc still resolves in the
    /// restored network.
    #[test]
    fn provenance_survives_snapshot_roundtrip(seed in 0u64..32) {
        let tpiin = province(seed);
        let restored = read_snapshot_bin(&write_snapshot_bin(&tpiin)).expect("snapshot parses");
        let a = tpiin_core::detect(&tpiin);
        let b = tpiin_core::detect(&restored);
        prop_assert_eq!(&a.groups, &b.groups);
        prop_assert_eq!(&a.suspicious_trading_arcs, &b.suspicious_trading_arcs);
        assert_same_chains(&tpiin, &restored, &a.groups)?;
    }

    /// The decoded network is the source network, field by field, and
    /// encoding it again yields the same bytes.
    #[test]
    fn binary_roundtrip_equals_the_source_network(seed in 0u64..32) {
        assert_roundtrip(&province(seed))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Damaged images make the reader return `Ok` or `Err`, never panic
    /// and never a torn network: a truncation at a random length, a
    /// handful of byte flips (half of them aimed at the preamble and
    /// section table), and arbitrary bytes after a valid magic and
    /// version (and, in half the cases, the valid section count too).
    #[test]
    fn reader_never_panics_on_damaged_images(
        image in 0usize..2,
        cut in 0usize..1 << 20,
        flips in proptest::collection::vec((0usize..1 << 20, proptest::bool::ANY, 1u8..=255), 1..8),
        keep_count in proptest::bool::ANY,
        tail in proptest::collection::vec(0u8..=255, 0..600),
    ) {
        let good = &images()[image];

        assert_not_torn(read_snapshot_bin(&good[..cut % (good.len() + 1)]))?;

        let mut flipped = good.clone();
        for &(at, in_head, mask) in &flips {
            let span = if in_head { head_bytes(good) } else { flipped.len() };
            flipped[at % span] ^= mask;
        }
        assert_not_torn(read_snapshot_bin(&flipped))?;

        let mut appended = good[..if keep_count { 16 } else { 12 }].to_vec();
        appended.extend_from_slice(&tail);
        assert_not_torn(read_snapshot_bin(&appended))?;
    }
}
