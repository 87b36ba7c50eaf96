//! The group table against the owned group list (`Vec<SuspiciousGroup>`):
//! round trips, keys and key order, row-range splices, clones and
//! row-wise equality on random groups (both kinds, trails of 1–20
//! nodes) — plus the three ways `bench/e2e` reads a detection's
//! groups, spelled out as it spells them, so a change to that API
//! surface breaks this suite and not only the benchmark build.

use rand::prelude::*;
use std::collections::BTreeSet;
use tpiin::datagen::fig7_registry;
use tpiin::detect::{
    detect, groups_behind_arc, DetectionResult, GroupKind, GroupRef, GroupTable, SuspiciousGroup,
};
use tpiin::fusion::fuse;
use tpiin::graph::NodeId;
use tpiin::serve::responses;

/// Node ids are drawn from a small range so trails and keys collide
/// often enough to exercise every tie-break of the key order.
fn node(rng: &mut StdRng) -> NodeId {
    NodeId::from_index(rng.gen_range(0..12usize))
}

fn random_group(rng: &mut StdRng) -> SuspiciousGroup {
    let trail = |rng: &mut StdRng| -> Vec<NodeId> {
        (0..rng.gen_range(1..=20usize)).map(|_| node(rng)).collect()
    };
    SuspiciousGroup {
        subtpiin: rng.gen_range(0..400usize),
        kind: if rng.gen_bool(0.5) {
            GroupKind::Matched
        } else {
            GroupKind::Circle
        },
        antecedent: node(rng),
        end: node(rng),
        trading_arc: (node(rng), node(rng)),
        trail_with_trade: trail(rng),
        trail_plain: trail(rng),
        simple: rng.gen_bool(0.5),
    }
}

fn random_groups(rng: &mut StdRng, max: usize) -> Vec<SuspiciousGroup> {
    (0..rng.gen_range(0..=max))
        .map(|_| random_group(rng))
        .collect()
}

fn cases() -> impl Iterator<Item = StdRng> {
    (0..256u64).map(StdRng::seed_from_u64)
}

#[test]
fn owned_groups_round_trip_through_the_table() {
    for mut rng in cases() {
        let groups = random_groups(&mut rng, 40);
        let table = GroupTable::from(&groups[..]);
        assert_eq!(table.len(), groups.len());
        assert_eq!(table.is_empty(), groups.is_empty());
        assert_eq!(
            table.node_count(),
            groups
                .iter()
                .map(|g| g.trail_with_trade.len() + g.trail_plain.len())
                .sum::<usize>()
        );
        assert_eq!(table.to_vec(), groups);
        for (i, g) in groups.iter().enumerate() {
            assert_eq!(table.row(i).to_owned(), *g);
            assert_eq!(table.get(i), Some(g.view()));
        }
        assert_eq!(table.get(groups.len()), None);
        let back: Vec<SuspiciousGroup> = (&table).into_iter().map(GroupRef::to_owned).collect();
        assert_eq!(back, groups);
        let reversed: Vec<SuspiciousGroup> = table.iter().rev().map(GroupRef::to_owned).collect();
        assert!(reversed.iter().eq(groups.iter().rev()));
        // Built row by row it is the same.
        let pushed: GroupTable = groups.iter().map(SuspiciousGroup::view).collect();
        assert_eq!(pushed, table);
        assert_eq!(table.iter().collect::<GroupTable>(), table);
    }
}

#[test]
fn keys_and_key_order_agree_with_the_owned_groups() {
    for mut rng in cases() {
        let groups = random_groups(&mut rng, 16);
        let table = GroupTable::from(&groups[..]);
        for (i, a) in groups.iter().enumerate() {
            let row = table.row(i);
            assert_eq!(row.key(), a.key());
            assert_eq!(row.members(), a.members());
            for (j, b) in groups.iter().enumerate() {
                let want = a.key().cmp(&b.key());
                assert_eq!(row.cmp_key(&table.row(j)), want, "rows {i}, {j}");
                assert_eq!(a.cmp_key(b), want, "owned {i}, {j}");
            }
            for v in 0..12 {
                let v = NodeId::from_index(v);
                let involved = a.antecedent == v
                    || a.end == v
                    || a.trading_arc.0 == v
                    || a.trail_with_trade.contains(&v)
                    || a.trail_plain.contains(&v);
                assert_eq!(row.involves(v), involved);
            }
        }
    }
}

#[test]
fn splicing_a_row_range_equals_vec_splice() {
    for mut rng in cases() {
        let mut owned = random_groups(&mut rng, 30);
        let mut table = GroupTable::from(&owned[..]);
        for _ in 0..8 {
            let first = rng.gen_range(0..=owned.len());
            let last = rng.gen_range(first..=owned.len());
            let replacement = random_groups(&mut rng, 6);
            owned.splice(first..last, replacement.iter().cloned());
            table.splice(first..last, &GroupTable::from(&replacement[..]));
            assert_eq!(table.to_vec(), owned);
            assert_eq!(table, GroupTable::from(&owned[..]));
        }
    }
}

#[test]
fn clones_equal_their_original_and_equality_is_row_wise() {
    for mut rng in cases() {
        let groups = random_groups(&mut rng, 24);
        let fresh = GroupTable::from(&groups[..]);
        assert_eq!(fresh.clone(), fresh);

        // The same rows reached through appends and splices: another
        // capacity and history, one table.
        let mut spliced = GroupTable::with_capacity(1, 1);
        let cut = rng.gen_range(0..=groups.len());
        spliced.append(&GroupTable::from(&groups[cut..]));
        spliced.splice(0..0, &GroupTable::from(&groups[..cut]));
        let noise = random_groups(&mut rng, 5);
        let at = rng.gen_range(0..=groups.len());
        spliced.splice(at..at, &GroupTable::from(&noise[..]));
        spliced.splice(at..at + noise.len(), &GroupTable::new());
        assert_eq!(spliced, fresh);
        assert_eq!(spliced.clone(), fresh);

        // Any one field of any one row tells two tables apart.
        if let Some(i) = (!groups.is_empty()).then(|| rng.gen_range(0..groups.len())) {
            let mut edited = groups.clone();
            match rng.gen_range(0..4u32) {
                0 => edited[i].simple = !edited[i].simple,
                1 => edited[i].subtpiin += 1,
                2 => edited[i].trail_plain.push(NodeId::from_index(99)),
                _ => {
                    let moved = edited[i].trail_plain.remove(0);
                    edited[i].trail_with_trade.push(moved);
                }
            }
            assert_ne!(GroupTable::from(&edited[..]), fresh);
        }
    }
}

/// The three ways `bench/e2e` reads groups, verbatim in
/// shape, over a real detection: a type or signature change here is a
/// change the benchmark cannot build against.
#[test]
fn the_benchmark_idioms_read_the_table() {
    let (tpiin, _) = fuse(&fig7_registry()).unwrap();
    let detection: DetectionResult = detect(&tpiin);
    let result = &detection;

    // 1. Groups per node, walking both trails by reference.
    let mut involved = vec![0usize; tpiin.node_count()];
    for group in &detection.groups {
        let mut nodes: Vec<NodeId> = group
            .trail_with_trade
            .iter()
            .chain(&group.trail_plain)
            .copied()
            .chain([group.antecedent, group.end, group.trading_arc.0])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.iter().for_each(|n| involved[n.index()] += 1);
    }

    // 2. Owned keys, hashed and sorted.
    let hashed: u64 = result
        .groups
        .iter()
        .map(|g| {
            let (arc, with_trade, plain) = g.key();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut eat = |x: usize| {
                for b in (x as u64).to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            eat(arc.0.index());
            eat(arc.1.index());
            eat(usize::MAX);
            with_trade.iter().for_each(|n| eat(n.index()));
            eat(usize::MAX);
            plain.iter().for_each(|n| eat(n.index()));
            h
        })
        .fold(0u64, u64::wrapping_add);
    assert_ne!(hashed, 0);
    let mut keys: Vec<_> = result.groups.iter().map(|g| g.key()).collect();
    keys.sort();
    let owned: BTreeSet<_> = result.groups.to_vec().iter().map(|g| g.key()).collect();
    assert_eq!(keys, owned.into_iter().collect::<Vec<_>>());

    // 3. Counts, and the involvement scan agreeing with idiom 1.
    assert_eq!(detection.groups.len(), detection.group_count());
    for n in 0..tpiin.node_count() {
        let n = NodeId::from_index(n);
        assert_eq!(detection.groups_involving(n).count(), involved[n.index()]);
    }

    // The arc query stays owned: `Vec<SuspiciousGroup>` into
    // `arc_query_json(.., &[SuspiciousGroup])`.
    for &(src, dst) in &detection.suspicious_trading_arcs {
        let groups: Vec<SuspiciousGroup> = groups_behind_arc(&tpiin, src, dst);
        let json = responses::arc_query_json(&tpiin, 1, src, dst, &groups);
        assert!(json.to_string().contains("\"group_count\""));
    }
}
