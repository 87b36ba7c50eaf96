//! End-to-end reproduction of the three Section 3.1 case studies: each
//! must yield exactly the suspicious group the paper's tax administration
//! office identified.

use tpiin::datagen::{case1_registry, case2_registry, case3_registry};
use tpiin::detect::{detect, score_group, GroupKind};
use tpiin::fusion::fuse;

#[test]
fn case1_kinship_behind_transfer_pricing() {
    // Fig. 1: two trails (L' -> C1 -> C3) and (L' -> C2) behind the IAT
    // C3 -> C2, after merging the brothers L1/L2.
    let (tpiin, _) = fuse(&case1_registry()).unwrap();
    let result = detect(&tpiin);
    assert_eq!(result.group_count(), 1);
    let g = result.groups.row(0);
    assert_eq!(g.kind, GroupKind::Matched);
    assert_eq!(tpiin.label(g.antecedent), "L1+L2");
    let trade: Vec<&str> = g.trail_with_trade.iter().map(|&n| tpiin.label(n)).collect();
    assert_eq!(trade, vec!["L1+L2", "C1", "C3"]);
    let plain: Vec<&str> = g.trail_plain.iter().map(|&n| tpiin.label(n)).collect();
    assert_eq!(plain, vec!["L1+L2", "C2"]);
    assert_eq!(
        (tpiin.label(g.trading_arc.0), tpiin.label(g.trading_arc.1)),
        ("C3", "C2")
    );
    assert!(g.simple, "Fig. 1(c) trails share only L' — a simple group");
}

#[test]
fn case2_common_investor_triangle() {
    // Fig. 3(a): (C4 -> C5) + (C4 -> C6) behind the IAT C5 -> C6.  With
    // root anchoring the trails extend to C4's legal person, sharing C4 —
    // the group is complex but contains exactly the paper's triangle.
    let (tpiin, _) = fuse(&case2_registry()).unwrap();
    let result = detect(&tpiin);
    assert_eq!(result.group_count(), 1);
    let g = result.groups.row(0);
    let mut members: Vec<&str> = g.members().into_iter().map(|n| tpiin.label(n)).collect();
    members.sort_unstable();
    assert_eq!(members, vec!["C4", "C5", "C6", "L4"]);
    assert!(!g.simple, "trails share the common investor C4");
    assert_eq!(
        (tpiin.label(g.trading_arc.0), tpiin.label(g.trading_arc.1)),
        ("C5", "C6")
    );
}

#[test]
fn case3_interlocked_directors() {
    // Fig. 3(b): the acting-together agreement merges B3/B4/B5 into B;
    // (B -> C7) + (B -> C8) behind the IAT C7 -> C8.
    let (tpiin, _) = fuse(&case3_registry()).unwrap();
    let result = detect(&tpiin);
    assert_eq!(result.group_count(), 1);
    let g = result.groups.row(0);
    assert_eq!(tpiin.label(g.antecedent), "B3+B4+B5");
    let mut members: Vec<&str> = g.members().into_iter().map(|n| tpiin.label(n)).collect();
    members.sort_unstable();
    assert_eq!(members, vec!["B3+B4+B5", "C7", "C8"]);
    assert!(g.simple);
}

#[test]
fn case_scores_rank_by_volume_at_stake() {
    // Case 3 moves 90M RMB, Case 1 25.52M: the weighted extension must
    // rank Case 3's group above Case 1's.
    let (t1, _) = fuse(&case1_registry()).unwrap();
    let (t3, _) = fuse(&case3_registry()).unwrap();
    let (r1, r3) = (detect(&t1), detect(&t3));
    let s1 = score_group(&t1, r1.groups.row(0));
    let s3 = score_group(&t3, r3.groups.row(0));
    assert!(s3.score > s1.score);
    assert_eq!(s3.trade_volume, 90_000_000.0);
}

#[test]
fn explanations_read_as_proof_chains() {
    for registry in [case1_registry(), case2_registry(), case3_registry()] {
        let (tpiin, _) = fuse(&registry).unwrap();
        let result = detect(&tpiin);
        for g in &result.groups {
            let text = g.explain(&tpiin);
            assert!(text.contains("IAT"), "{text}");
            assert!(text.contains("->TR"), "{text}");
            assert!(text.contains("trail"), "{text}");
        }
    }
}
