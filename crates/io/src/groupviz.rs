//! Visualization of a single suspicious group — the drill-down view the
//! Servyou monitoring system shows an investigator (Figs. 17–19): the
//! group's members, the two relationship trails, and the
//! interest-affiliated transaction highlighted.

use std::fmt::Write as _;
use tpiin_core::GroupRef;
use tpiin_fusion::{NodeColor, Tpiin};
use tpiin_graph::NodeId;

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders one group as a Graphviz DOT document: members only, influence
/// arcs of the two trails in blue, the IAT in bold red, the antecedent
/// double-circled.
pub fn group_dot(tpiin: &Tpiin, group: GroupRef<'_>) -> String {
    let mut out = String::new();
    out.push_str("digraph suspicious_group {\n  rankdir=LR;\n");
    for node in group.members() {
        let shape = if node == group.antecedent {
            "doublecircle"
        } else {
            match tpiin.color(node) {
                NodeColor::Person => "ellipse",
                NodeColor::Company => "box",
            }
        };
        let color = match tpiin.color(node) {
            NodeColor::Person => "black",
            NodeColor::Company => "red",
        };
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\", shape={}, color={}];",
            node,
            escape(tpiin.label(node)),
            shape,
            color
        );
    }
    let mut emit_trail = |trail: &[NodeId]| {
        for pair in trail.windows(2) {
            let _ = writeln!(out, "  n{} -> n{} [color=blue];", pair[0], pair[1]);
        }
    };
    emit_trail(&group.trail_with_trade);
    emit_trail(&group.trail_plain);
    let _ = writeln!(
        out,
        "  n{} -> n{} [color=red, penwidth=2.0, label=\"IAT\"];",
        group.trading_arc.0, group.trading_arc.1
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpiin_core::detect;

    #[test]
    fn renders_the_case1_group() {
        let (tpiin, _) = tpiin_fusion::fuse(&tpiin_datagen::case1_registry()).unwrap();
        let result = detect(&tpiin);
        let dot = group_dot(&tpiin, result.groups.row(0));
        assert!(dot.starts_with("digraph suspicious_group {"));
        assert!(dot.contains("L1+L2"), "{dot}");
        assert!(
            dot.contains("doublecircle"),
            "antecedent highlighted: {dot}"
        );
        assert!(dot.contains("label=\"IAT\""), "{dot}");
        // Four members -> four node lines.
        assert_eq!(dot.matches("shape=").count(), 4);
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn circle_groups_render_without_duplicate_arcs() {
        use tpiin_model::*;
        let mut r = SourceRegistry::new();
        let l = r.add_person("L", RoleSet::of(&[Role::Ceo]));
        let c1 = r.add_company("C1");
        let c2 = r.add_company("C2");
        for c in [c1, c2] {
            r.add_influence(InfluenceRecord {
                person: l,
                company: c,
                kind: InfluenceKind::CeoOf,
                is_legal_person: true,
            });
        }
        r.add_investment(InvestmentRecord {
            investor: c1,
            investee: c2,
            share: 0.9,
        });
        r.add_trading(TradingRecord {
            seller: c2,
            buyer: c1,
            volume: 1.0,
        });
        let (tpiin, _) = tpiin_fusion::fuse(&r).unwrap();
        let result = detect(&tpiin);
        let circle = result
            .groups
            .iter()
            .find(|g| g.kind == tpiin_core::GroupKind::Circle)
            .expect("circle exists");
        let dot = group_dot(&tpiin, circle);
        assert!(dot.contains("IAT"));
        assert!(dot.contains("C1") && dot.contains("C2"));
    }
}
