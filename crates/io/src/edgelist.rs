//! The paper's `r x 3` edge-list format.
//!
//! Algorithm 1's input is "Array *tpiin* (in the form of edge list:
//! `r x 3` …).  The top `(m-1)` rows of a *tpiin* store all arcs in an
//! antecedent network while other rows … belong to a trading network";
//! the color column uses `1` for influence (blue) and `0` for trading
//! (black).  [`parse_edge_list`] reads that format into a
//! [`tpiin_core::SubTpiin`] so the detector can run directly on a file;
//! [`Tpiin::edge_list`](tpiin_fusion::Tpiin::edge_list) writes a TPIIN
//! back out.

use crate::error::IoError;
use tpiin_core::SubTpiin;

/// One arc of a parsed edge list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeRow {
    /// Source node index.
    pub source: u32,
    /// Target node index.
    pub target: u32,
    /// `true` for influence (color code 1), `false` for trading (0).
    pub influence: bool,
}

/// Parses the whitespace-separated `source target color` rows.
///
/// Lines may be blank or start with `#` (comments).  Node indices are
/// dense after parsing: the node count is `max(index) + 1`.
pub fn parse_rows(text: &str, context: &str) -> Result<Vec<EdgeRow>, IoError> {
    let mut rows = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let mut next = |name: &str| {
            parts
                .next()
                .ok_or_else(|| IoError::parse(context, i + 1, format!("missing {name} column")))
        };
        let source: u32 = next("source")?
            .parse()
            .map_err(|e| IoError::parse(context, i + 1, format!("bad source: {e}")))?;
        let target: u32 = next("target")?
            .parse()
            .map_err(|e| IoError::parse(context, i + 1, format!("bad target: {e}")))?;
        let color = next("color")?;
        let influence = match color {
            "1" => true,
            "0" => false,
            other => {
                return Err(IoError::parse(
                    context,
                    i + 1,
                    format!("color must be 0 (trading) or 1 (influence), found `{other}`"),
                ))
            }
        };
        if parts.next().is_some() {
            return Err(IoError::parse(context, i + 1, "more than 3 columns"));
        }
        rows.push(EdgeRow {
            source,
            target,
            influence,
        });
    }
    Ok(rows)
}

/// Parses an edge list into a single [`SubTpiin`] over nodes
/// `0..=max_index`, ready for [`tpiin_core::PatternsTree`] /
/// [`tpiin_core::match_root`] or `Detector::detect_segmented`.
///
/// Node colors are inferred the only way the format allows: a node with
/// zero influence in-degree is treated as a Person (pattern-tree root),
/// everything else as a Company.  This matches fused TPIINs, where every
/// company carries a legal-person arc.
pub fn parse_edge_list(text: &str, context: &str) -> Result<SubTpiin, IoError> {
    let rows = parse_rows(text, context)?;
    let n = rows
        .iter()
        .map(|r| r.source.max(r.target) as usize + 1)
        .max()
        .unwrap_or(0);
    let influence: Vec<(u32, u32)> = rows
        .iter()
        .filter(|r| r.influence)
        .map(|r| (r.source, r.target))
        .collect();
    let trading: Vec<(u32, u32)> = rows
        .iter()
        .filter(|r| !r.influence)
        .map(|r| (r.source, r.target))
        .collect();
    let mut influence_in = vec![false; n];
    for &(_, t) in &influence {
        influence_in[t as usize] = true;
    }
    let is_person: Vec<bool> = influence_in.iter().map(|&has_in| !has_in).collect();
    Ok(tpiin_core::subtpiin_from_arcs(
        n, &influence, &trading, is_person,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpiin_core::{detect, Detector};

    #[test]
    fn parse_simple_rows() {
        let rows = parse_rows("0 1 1\n1 2 0\n", "t").unwrap();
        assert_eq!(
            rows,
            vec![
                EdgeRow {
                    source: 0,
                    target: 1,
                    influence: true
                },
                EdgeRow {
                    source: 1,
                    target: 2,
                    influence: false
                },
            ]
        );
    }

    #[test]
    fn comments_blank_lines_and_tabs_accepted() {
        let rows = parse_rows("# header\n\n0\t1\t1\n", "t").unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_rows("0 1 1\n0 2\n", "graph.txt").unwrap_err();
        assert!(err.to_string().contains("graph.txt:2"));
        let err = parse_rows("0 1 2\n", "graph.txt").unwrap_err();
        assert!(err.to_string().contains("color"));
        let err = parse_rows("0 1 1 9\n", "graph.txt").unwrap_err();
        assert!(err.to_string().contains("3 columns"));
    }

    #[test]
    fn fused_tpiin_roundtrips_through_the_format() {
        // Fig. 7 -> TPIIN -> edge list -> SubTpiin: detection must find
        // the same number of groups and arcs.
        let (tpiin, _) = tpiin_fusion::fuse(&tpiin_datagen::fig7_registry()).unwrap();
        let direct = detect(&tpiin);

        let text = tpiin.edge_list();
        let sub = parse_edge_list(&text, "fig8").unwrap();
        assert_eq!(sub.node_count(), tpiin.node_count());
        assert_eq!(sub.influence_arc_count(), tpiin.influence_arc_count);
        assert_eq!(sub.trading_arc_count, tpiin.trading_arc_count);
        let from_file = Detector::default().detect_segmented(&tpiin, &[sub]);
        assert_eq!(from_file.group_count(), direct.group_count());
        assert_eq!(
            from_file.suspicious_trading_arcs,
            direct.suspicious_trading_arcs
        );
    }

    #[test]
    fn empty_input_gives_empty_subtpiin() {
        let sub = parse_edge_list("", "t").unwrap();
        assert_eq!(sub.node_count(), 0);
    }
}
