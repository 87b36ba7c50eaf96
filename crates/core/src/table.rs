//! The one group layout: [`GroupTable`], read through borrowed
//! [`GroupRef`]s whose trails are [`Trail`]s.

use crate::result::{GroupKind, SuspiciousGroup};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::{Deref, Range};
use tpiin_fusion::Tpiin;
use tpiin_graph::NodeId;

/// One trail of a [`GroupRef`]: a borrowed run of the table's node
/// arena.  It derefs to `[NodeId]`, and both `Trail` and `&Trail`
/// iterate its nodes, so `a.iter().chain(&b)` reads as it did over the
/// owned `Vec<NodeId>` trails of [`SuspiciousGroup`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Trail<'a>(&'a [NodeId]);

impl<'a> Trail<'a> {
    /// Wraps a node slice.
    pub fn new(nodes: &'a [NodeId]) -> Trail<'a> {
        Trail(nodes)
    }
}

impl Deref for Trail<'_> {
    type Target = [NodeId];

    #[inline]
    fn deref(&self) -> &[NodeId] {
        self.0
    }
}

impl<'a> IntoIterator for Trail<'a> {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<'a> IntoIterator for &Trail<'a> {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl std::fmt::Debug for Trail<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// One suspicious group read out of a [`GroupTable`] (or borrowed from a
/// [`SuspiciousGroup`] by [`SuspiciousGroup::view`]): the same public
/// fields as the owned group, with the two trails borrowed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupRef<'a> {
    /// Which subTPIIN the group was mined from.
    pub subtpiin: usize,
    /// Formation kind.
    pub kind: GroupKind,
    /// The common antecedent node `A1` (for circles: the node the trading
    /// arc re-enters).
    pub antecedent: NodeId,
    /// The end node `Cj` — the target of the interest-affiliated
    /// transaction.
    pub end: NodeId,
    /// The suspicious trading arc `(Am, Cj)`.
    pub trading_arc: (NodeId, NodeId),
    /// Influence prefix `A1 … Am` of the trail that carries the trading
    /// arc (`Cj` excluded).
    pub trail_with_trade: Trail<'a>,
    /// The pure influence trail `A1 … Cj` (inclusive); `[A1]` for
    /// circles.
    pub trail_plain: Trail<'a>,
    /// Whether the group is *simple* (Definition 3).
    pub simple: bool,
}

impl<'a> GroupRef<'a> {
    /// The owned copy of this group.
    pub fn to_owned(self) -> SuspiciousGroup {
        SuspiciousGroup {
            subtpiin: self.subtpiin,
            kind: self.kind,
            antecedent: self.antecedent,
            end: self.end,
            trading_arc: self.trading_arc,
            trail_with_trade: self.trail_with_trade.to_vec(),
            trail_plain: self.trail_plain.to_vec(),
            simple: self.simple,
        }
    }

    /// All member nodes of the group, deduplicated and ordered.
    pub fn members(&self) -> BTreeSet<NodeId> {
        let mut m: BTreeSet<NodeId> = self.trail_with_trade.iter().copied().collect();
        m.extend(self.trail_plain.iter().copied());
        m.insert(self.end);
        m
    }

    /// Whether `node` is the antecedent, the end, the trading arc's
    /// source or on either trail — what "the group involves `node`"
    /// means to [`crate::DetectionResult::groups_involving`].
    #[inline]
    pub fn involves(&self, node: NodeId) -> bool {
        self.antecedent == node
            || self.end == node
            || self.trading_arc.0 == node
            || self.trail_with_trade.contains(&node)
            || self.trail_plain.contains(&node)
    }

    /// The canonical identity of [`SuspiciousGroup::key`], owned.
    pub fn key(&self) -> ((NodeId, NodeId), Vec<NodeId>, Vec<NodeId>) {
        (
            self.trading_arc,
            self.trail_with_trade.to_vec(),
            self.trail_plain.to_vec(),
        )
    }

    /// Orders two groups exactly as their [`GroupRef::key`]s compare,
    /// without building either key.
    pub fn cmp_key(&self, other: &Self) -> Ordering {
        self.trading_arc
            .cmp(&other.trading_arc)
            .then_with(|| self.trail_with_trade.cmp(&other.trail_with_trade))
            .then_with(|| self.trail_plain.cmp(&other.trail_plain))
    }

    /// Human-readable proof chain, labelled via `tpiin` — the explanation
    /// the paper highlights as an advantage over black-box methods.
    pub fn explain(&self, tpiin: &Tpiin) -> String {
        let label = |n: NodeId| tpiin.label(n).to_string();
        let members: Vec<String> = self.members().into_iter().map(label).collect();
        let t1: Vec<String> = self.trail_with_trade.iter().copied().map(label).collect();
        let t2: Vec<String> = self.trail_plain.iter().copied().map(label).collect();
        format!(
            "{} group ({}) behind IAT {} -> {}: trail [{} ->TR {}] with trail [{}]",
            match self.kind {
                GroupKind::Matched =>
                    if self.simple {
                        "simple"
                    } else {
                        "complex"
                    },
                GroupKind::Circle => "circle",
            },
            members.join(", "),
            label(self.trading_arc.0),
            label(self.trading_arc.1),
            t1.join(" -> "),
            label(self.end),
            t2.join(" -> "),
        )
    }
}

/// The fixed-width fields of one group, as [`GroupTable::push_with`]
/// takes them; the trails go to the arena.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GroupHead {
    pub(crate) subtpiin: usize,
    pub(crate) kind: GroupKind,
    pub(crate) antecedent: NodeId,
    pub(crate) end: NodeId,
    pub(crate) trading_arc: (NodeId, NodeId),
    pub(crate) simple: bool,
}

/// One row: the group's fixed fields plus its trails' arena range,
/// `trail_with_trade` at `start..split`, `trail_plain` at `split..stop`.
#[derive(Clone, Copy, Debug)]
struct Row {
    subtpiin: u32,
    antecedent: NodeId,
    end: NodeId,
    trading_arc: (NodeId, NodeId),
    start: u32,
    split: u32,
    stop: u32,
    kind: GroupKind,
    simple: bool,
}

/// Arena offsets are `u32`: a table of 4·10⁹ trail nodes is far past
/// anything one process mines.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("group table arena exceeds u32 offsets")
}

/// A detection's groups, in result order: one fixed-width row per group
/// and one arena holding every trail node.
///
/// A detection holds 10⁵ groups of about a dozen trail nodes each.  As
/// owned [`SuspiciousGroup`]s that is two heap vectors per group, built
/// by the miner and copied again by every consumer that keeps the list.
/// The table stores each group as one row — kind, simple flag,
/// subTPIIN, antecedent, end, trading arc and the arena offsets of its
/// two trails — and every trail node in one shared `NodeId` vector, the
/// CSR idiom of `tpiin-graph`.  Mining appends rows and nodes, assembly
/// remaps a shard's table into the result's in one pass,
/// and cloning the whole table is two `memcpy`s.  Readers get
/// [`GroupRef`]s: [`GroupTable::iter`], `&table` in a `for` loop,
/// [`GroupTable::row`] and [`GroupTable::get`].
///
/// Rows lie in the arena in row order, back to back, so a row range is
/// one arena range and [`GroupTable::splice`] replaces both with one
/// `Vec::splice` each.  Equality is row-wise all the same: two tables
/// are equal when they yield the same groups, whatever their capacity
/// or history.
#[derive(Clone, Debug, Default)]
pub struct GroupTable {
    rows: Vec<Row>,
    nodes: Vec<NodeId>,
}

impl GroupTable {
    /// An empty table.
    pub fn new() -> GroupTable {
        GroupTable::default()
    }

    /// An empty table with room for `rows` groups of `nodes` trail nodes
    /// in total.
    pub fn with_capacity(rows: usize, nodes: usize) -> GroupTable {
        GroupTable {
            rows: Vec::with_capacity(rows),
            nodes: Vec::with_capacity(nodes),
        }
    }

    /// Number of groups.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no group.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Trail nodes stored, both trails of every group.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Unused capacity of the row vector and of the arena.
    #[cfg(test)]
    pub(crate) fn spare_capacity(&self) -> (usize, usize) {
        (
            self.rows.capacity() - self.rows.len(),
            self.nodes.capacity() - self.nodes.len(),
        )
    }

    #[inline]
    fn view(&self, row: &Row) -> GroupRef<'_> {
        let (start, split, stop) = (row.start as usize, row.split as usize, row.stop as usize);
        GroupRef {
            subtpiin: row.subtpiin as usize,
            kind: row.kind,
            antecedent: row.antecedent,
            end: row.end,
            trading_arc: row.trading_arc,
            trail_with_trade: Trail(&self.nodes[start..split]),
            trail_plain: Trail(&self.nodes[split..stop]),
            simple: row.simple,
        }
    }

    /// Group `index`.
    ///
    /// # Panics
    /// Panics past the last row, like indexing a slice.
    #[inline]
    pub fn row(&self, index: usize) -> GroupRef<'_> {
        self.view(&self.rows[index])
    }

    /// Group `index`, or `None` past the end.
    #[inline]
    pub fn get(&self, index: usize) -> Option<GroupRef<'_>> {
        self.rows.get(index).map(|row| self.view(row))
    }

    /// The groups in row order.
    #[inline]
    pub fn iter(&self) -> Groups<'_> {
        Groups {
            table: self,
            rows: self.rows.iter(),
        }
    }

    /// The groups of rows `range`, in row order.
    ///
    /// # Panics
    /// Panics when `range` reaches past the last row.
    #[inline]
    pub fn slice(&self, range: Range<usize>) -> Groups<'_> {
        Groups {
            table: self,
            rows: self.rows[range].iter(),
        }
    }

    /// Appends one group whose trails are given as node iterators — the
    /// miners write shard-local `u32`s through this without building a
    /// slice first.
    pub(crate) fn push_with(
        &mut self,
        head: GroupHead,
        trail_with_trade: impl IntoIterator<Item = NodeId>,
        trail_plain: impl IntoIterator<Item = NodeId>,
    ) {
        let start = offset(self.nodes.len());
        self.nodes.extend(trail_with_trade);
        let split = offset(self.nodes.len());
        self.nodes.extend(trail_plain);
        self.rows.push(Row {
            subtpiin: u32::try_from(head.subtpiin).expect("subTPIIN index fits u32"),
            antecedent: head.antecedent,
            end: head.end,
            trading_arc: head.trading_arc,
            start,
            split,
            stop: offset(self.nodes.len()),
            kind: head.kind,
            simple: head.simple,
        });
    }

    /// Appends one group.
    pub fn push(&mut self, group: GroupRef<'_>) {
        self.push_with(
            GroupHead {
                subtpiin: group.subtpiin,
                kind: group.kind,
                antecedent: group.antecedent,
                end: group.end,
                trading_arc: group.trading_arc,
                simple: group.simple,
            },
            group.trail_with_trade.iter().copied(),
            group.trail_plain.iter().copied(),
        );
    }

    /// Appends every row of `other` with each node id passed through
    /// `map` and the subTPIIN set to `subtpiin` (`None` keeps each row's
    /// own): one pass over `other`'s rows and arena.  Assembly remaps a
    /// shard's local table into the global one with this.
    pub(crate) fn extend_mapped(
        &mut self,
        other: &GroupTable,
        subtpiin: Option<usize>,
        map: impl Fn(NodeId) -> NodeId,
    ) {
        // Checked once up front: every shifted offset is below the sum.
        offset(self.nodes.len() + other.nodes.len());
        let base = self.nodes.len() as u32;
        self.nodes.extend(other.nodes.iter().map(|&v| map(v)));
        let subtpiin = subtpiin.map(|s| u32::try_from(s).expect("subTPIIN index fits u32"));
        self.rows.extend(other.rows.iter().map(|row| Row {
            subtpiin: subtpiin.unwrap_or(row.subtpiin),
            antecedent: map(row.antecedent),
            end: map(row.end),
            trading_arc: (map(row.trading_arc.0), map(row.trading_arc.1)),
            start: base + row.start,
            split: base + row.split,
            stop: base + row.stop,
            ..*row
        }));
    }

    /// Appends every row of `other` unchanged.
    pub fn append(&mut self, other: &GroupTable) {
        self.extend_mapped(other, None, |v| v);
    }

    /// Replaces rows `range` with the rows of `replacement`, in place —
    /// `Vec::splice` on an owned group list, as one splice of the row
    /// vector and one of the arena.  Rows after the range keep their
    /// order; their arena offsets shift by the change in trail nodes.
    ///
    /// # Panics
    /// Panics when `range` reaches past the last row.
    pub fn splice(&mut self, range: Range<usize>, replacement: &GroupTable) {
        let (first, last) = (range.start, range.end);
        assert!(
            first <= last && last <= self.rows.len(),
            "row range out of bounds"
        );
        // The range's arena run: rows are laid out back to back.
        let run_start = self
            .rows
            .get(first)
            .map_or(self.nodes.len(), |r| r.start as usize);
        let run_stop = if last > first {
            self.rows[last - 1].stop as usize
        } else {
            run_start
        };
        self.nodes
            .splice(run_start..run_stop, replacement.nodes.iter().copied());
        // Checked once: every offset below is at most the arena length.
        offset(self.nodes.len());
        let base = run_start as u32;
        let (old_stop, new_stop) = (run_stop as u32, base + replacement.nodes.len() as u32);
        // Later rows start at or after the run's old end.
        let shift = |at: u32| at - old_stop + new_stop;
        for row in &mut self.rows[last..] {
            row.start = shift(row.start);
            row.split = shift(row.split);
            row.stop = shift(row.stop);
        }
        self.rows.splice(
            range,
            replacement.rows.iter().map(|row| Row {
                start: base + row.start,
                split: base + row.split,
                stop: base + row.stop,
                ..*row
            }),
        );
    }

    /// Removes every group, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.nodes.clear();
    }

    /// The owned copies of every group, in row order.
    pub fn to_vec(&self) -> Vec<SuspiciousGroup> {
        self.iter().map(GroupRef::to_owned).collect()
    }
}

impl PartialEq for GroupTable {
    fn eq(&self, other: &GroupTable) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for GroupTable {}

impl<'a> FromIterator<GroupRef<'a>> for GroupTable {
    fn from_iter<I: IntoIterator<Item = GroupRef<'a>>>(groups: I) -> GroupTable {
        let mut table = GroupTable::new();
        groups.into_iter().for_each(|g| table.push(g));
        table
    }
}

impl From<&[SuspiciousGroup]> for GroupTable {
    fn from(groups: &[SuspiciousGroup]) -> GroupTable {
        let mut table = GroupTable::with_capacity(
            groups.len(),
            groups
                .iter()
                .map(|g| g.trail_with_trade.len() + g.trail_plain.len())
                .sum(),
        );
        groups.iter().for_each(|g| table.push(g.view()));
        table
    }
}

impl<'a> IntoIterator for &'a GroupTable {
    type Item = GroupRef<'a>;
    type IntoIter = Groups<'a>;

    #[inline]
    fn into_iter(self) -> Groups<'a> {
        self.iter()
    }
}

/// Iterator over a [`GroupTable`]'s groups, in row order.
#[derive(Clone, Debug)]
pub struct Groups<'a> {
    table: &'a GroupTable,
    rows: std::slice::Iter<'a, Row>,
}

impl<'a> Iterator for Groups<'a> {
    type Item = GroupRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<GroupRef<'a>> {
        let table = self.table;
        self.rows.next().map(|row| table.view(row))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl DoubleEndedIterator for Groups<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        let table = self.table;
        self.rows.next_back().map(|row| table.view(row))
    }
}

impl ExactSizeIterator for Groups<'_> {}
