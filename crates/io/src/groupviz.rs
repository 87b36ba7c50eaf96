//! Graphviz DOT views of a TPIIN: the whole network coloured like the
//! paper's figures (Figs. 11–16), and a single suspicious group — the
//! drill-down view the Servyou monitoring system shows an investigator
//! (Figs. 17–19): the group's members, the two relationship trails, and
//! the interest-affiliated transaction highlighted.

use std::fmt::Write as _;
use tpiin_core::GroupRef;
use tpiin_fusion::{ArcColor, NodeColor, Tpiin};
use tpiin_graph::NodeId;

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the whole network as a Graphviz DOT document coloured like
/// the paper's figures: red companies, black persons, blue influence
/// arcs, black trading arcs.
pub fn tpiin_dot(tpiin: &Tpiin) -> String {
    let mut out =
        String::with_capacity(64 + tpiin.node_count() * 24 + tpiin.graph.edge_count() * 16);
    out.push_str("digraph tpiin {\n");
    for (id, node) in tpiin.graph.nodes() {
        let color = match node.color() {
            NodeColor::Company => "red",
            NodeColor::Person => "black",
        };
        let label = escape(node.label());
        let _ = writeln!(out, "  n{id} [label=\"{label}\", color={color}];");
    }
    for e in tpiin.graph.edges() {
        let color = match e.weight.color {
            ArcColor::Influence => "blue",
            ArcColor::Trading => "black",
        };
        let _ = writeln!(out, "  n{} -> n{} [color={color}];", e.source, e.target);
    }
    out.push_str("}\n");
    out
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
    fn fig7_network_dot_is_pinned() {
        let (tpiin, _) = tpiin_fusion::fuse(&tpiin_datagen::fig7_registry()).unwrap();
        let expected = "digraph tpiin {
  n0 [label=\"L6+LB\", color=black];
  n1 [label=\"L2\", color=black];
  n2 [label=\"L3\", color=black];
  n3 [label=\"L4\", color=black];
  n4 [label=\"L5\", color=black];
  n5 [label=\"B1\", color=black];
  n6 [label=\"B5+B6\", color=black];
  n7 [label=\"C1\", color=red];
  n8 [label=\"C2\", color=red];
  n9 [label=\"C3\", color=red];
  n10 [label=\"C4\", color=red];
  n11 [label=\"C5\", color=red];
  n12 [label=\"C6\", color=red];
  n13 [label=\"C7\", color=red];
  n14 [label=\"C8\", color=red];
  n0 -> n7 [color=blue];
  n0 -> n8 [color=blue];
  n1 -> n9 [color=blue];
  n0 -> n10 [color=blue];
  n2 -> n11 [color=blue];
  n3 -> n12 [color=blue];
  n3 -> n13 [color=blue];
  n4 -> n14 [color=blue];
  n5 -> n11 [color=blue];
  n5 -> n12 [color=blue];
  n6 -> n13 [color=blue];
  n6 -> n14 [color=blue];
  n7 -> n9 [color=blue];
  n8 -> n11 [color=blue];
  n9 -> n11 [color=black];
  n11 -> n12 [color=black];
  n11 -> n13 [color=black];
  n13 -> n14 [color=black];
  n14 -> n10 [color=black];
}
";
        assert_eq!(tpiin_dot(&tpiin), expected);
    }

    #[test]
    fn network_dot_escapes_quotes_and_backslashes() {
        use tpiin_model::{InfluenceKind, InfluenceRecord, Role, RoleSet};
        let mut r = tpiin_model::SourceRegistry::new();
        let p = r.add_person("L1", RoleSet::of(&[Role::Ceo]));
        let c = r.add_company(r#"Acme "Q" \ Co"#);
        r.add_influence(InfluenceRecord {
            person: p,
            company: c,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
        let (tpiin, _) = tpiin_fusion::fuse(&r).unwrap();
        let dot = tpiin_dot(&tpiin);
        assert!(
            dot.contains(r#"n1 [label="Acme \"Q\" \\ Co", color=red];"#),
            "{dot}"
        );
    }

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
