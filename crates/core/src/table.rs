//! The one group layout: [`GroupTable`], read through borrowed
//! [`GroupRef`]s whose trails are [`Trail`]s.

use crate::result::{GroupKind, SuspiciousGroup};
use std::cmp::Ordering;
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

    /// The owned copy of this group with every node id passed through
    /// `map` and its subTPIIN set to `subtpiin`: a group mined in one
    /// id space (a shard's, a restricted network's), read in another.
    pub fn to_owned_mapped(
        self,
        subtpiin: usize,
        map: impl Fn(NodeId) -> NodeId,
    ) -> SuspiciousGroup {
        SuspiciousGroup {
            subtpiin,
            kind: self.kind,
            antecedent: map(self.antecedent),
            end: map(self.end),
            trading_arc: (map(self.trading_arc.0), map(self.trading_arc.1)),
            trail_with_trade: self.trail_with_trade.iter().map(|&v| map(v)).collect(),
            trail_plain: self.trail_plain.iter().map(|&v| map(v)).collect(),
            simple: self.simple,
        }
    }

    /// All member nodes of the group, deduplicated and ordered.
    pub fn members(&self) -> Vec<NodeId> {
        let mut m: Vec<NodeId> = self
            .trail_with_trade
            .iter()
            .chain(&self.trail_plain)
            .copied()
            .collect();
        m.push(self.end);
        m.sort_unstable();
        m.dedup();
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

    /// The formation name of the group: `circle`, `simple` or `complex`.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            GroupKind::Circle => "circle",
            GroupKind::Matched if self.simple => "simple",
            GroupKind::Matched => "complex",
        }
    }

    /// Human-readable proof chain, labelled via `tpiin` — the explanation
    /// the paper highlights as an advantage over black-box methods.
    pub fn explain(&self, tpiin: &Tpiin) -> String {
        let mut out = String::new();
        self.write_explanation(tpiin, &self.members(), &mut out);
        out
    }

    /// Appends [`GroupRef::explain`]'s text to `out`, given the group's
    /// [`GroupRef::members`].
    pub fn write_explanation(&self, tpiin: &Tpiin, members: &[NodeId], out: &mut String) {
        let join = |out: &mut String, nodes: &[NodeId], sep: &str| {
            for (i, &node) in nodes.iter().enumerate() {
                if i > 0 {
                    out.push_str(sep);
                }
                out.push_str(tpiin.label(node));
            }
        };
        out.push_str(self.kind_name());
        out.push_str(" group (");
        join(out, members, ", ");
        out.push_str(") behind IAT ");
        join(out, &[self.trading_arc.0, self.trading_arc.1], " -> ");
        out.push_str(": trail [");
        join(out, &self.trail_with_trade, " -> ");
        out.push_str(" ->TR ");
        out.push_str(tpiin.label(self.end));
        out.push_str("] with trail [");
        join(out, &self.trail_plain, " -> ");
        out.push(']');
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

    /// A copy with room for `rows` more groups of `nodes` more trail
    /// nodes.
    pub(crate) fn clone_with_room(&self, rows: usize, nodes: usize) -> GroupTable {
        let mut copy = GroupTable::with_capacity(self.len() + rows, self.node_count() + nodes);
        copy.rows.extend_from_slice(&self.rows);
        copy.nodes.extend_from_slice(&self.nodes);
        copy
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

    /// A copy of the table at its exact size with the rows stably sorted
    /// by `keys` (one per row, each below `key_count`).  A counting sort
    /// scatters the rows, then one pass gathers their trails in the new
    /// order; `slots` is the sort's scratch (`key_count + 1` counters),
    /// kept by the caller so one allocation serves every call.
    pub(crate) fn sorted_by_key(
        &self,
        keys: &[u32],
        key_count: usize,
        slots: &mut Vec<u32>,
    ) -> GroupTable {
        assert_eq!(keys.len(), self.rows.len(), "one key per row");
        let Some(&filler) = self.rows.first() else {
            return GroupTable::default();
        };
        // After the prefix sum, `slots[k]` is where the next row of key
        // `k` goes.
        slots.clear();
        slots.resize(key_count + 1, 0);
        for &k in keys {
            slots[k as usize + 1] += 1;
        }
        for k in 1..slots.len() {
            slots[k] += slots[k - 1];
        }
        let mut rows = vec![filler; self.rows.len()];
        for (row, &k) in self.rows.iter().zip(keys) {
            let slot = &mut slots[k as usize];
            rows[*slot as usize] = *row;
            *slot += 1;
        }
        // Rows that follow each other in both orders copy their trails
        // as one slice: `run` is the source stretch not copied yet.
        let mut nodes = Vec::with_capacity(self.nodes.len());
        let mut run = 0..0;
        for row in &mut rows {
            if row.start as usize != run.end {
                nodes.extend_from_slice(&self.nodes[run]);
                run = row.start as usize..row.start as usize;
            }
            let base = offset(nodes.len() + run.len());
            run.end = row.stop as usize;
            (row.start, row.split, row.stop) = (
                base,
                row.split - row.start + base,
                row.stop - row.start + base,
            );
        }
        nodes.extend_from_slice(&self.nodes[run]);
        GroupTable { rows, nodes }
    }

    /// Merges the rows of `new` into rows `range` of this table, both
    /// ordered by trading-arc seller, through
    /// [`GroupTable::seller_positions`] and
    /// [`GroupTable::insert_rows`].  `map` takes `new`'s node ids to
    /// this table's and must keep seller order; `subtpiin` overrides the
    /// new rows' subTPIIN (`None` keeps each row's own).
    pub(crate) fn merge_by_seller(
        &mut self,
        range: Range<usize>,
        new: &GroupTable,
        subtpiin: Option<usize>,
        map: impl Fn(NodeId) -> NodeId,
    ) {
        let mut at = Vec::with_capacity(new.len());
        self.seller_positions(range, new, &map, &mut at);
        self.insert_rows(&at, new, subtpiin, map);
    }

    /// Appends to `at`, for each row of `new` (ordered by trading-arc
    /// seller, ids taken to this table's by `map`), where it goes among
    /// rows `range` (ordered the same way): after every row whose seller
    /// is at most its own, so among equal sellers the old rows come
    /// first and the new ones keep their order.
    pub(crate) fn seller_positions(
        &self,
        range: Range<usize>,
        new: &GroupTable,
        map: impl Fn(NodeId) -> NodeId,
        at: &mut Vec<usize>,
    ) {
        let old = &self.rows[range.clone()];
        at.extend(new.rows.iter().map(|row| {
            let seller = map(row.trading_arc.0);
            range.start + old.partition_point(|r| r.trading_arc.0 <= seller)
        }));
    }

    /// Inserts row `i` of `new` before the row now at `at[i]` (`at`
    /// ascending; rows bound for one position keep `new`'s order), with
    /// each node id passed through `map` and the subTPIIN set to
    /// `subtpiin` (`None` keeps each row's own).  In place: both vectors
    /// grow once, then a pass from the back moves every old row after
    /// `at[0]` once, each stretch between two insertion points with one
    /// `copy_within` of its rows and one of its arena run.
    ///
    /// # Panics
    /// Panics unless `at` holds one ascending position per row of `new`,
    /// none past the last row.
    pub(crate) fn insert_rows(
        &mut self,
        at: &[usize],
        new: &GroupTable,
        subtpiin: Option<usize>,
        map: impl Fn(NodeId) -> NodeId,
    ) {
        assert_eq!(at.len(), new.rows.len(), "one position per new row");
        assert!(
            at.windows(2).all(|w| w[0] <= w[1]) && at.last().is_none_or(|&p| p <= self.rows.len()),
            "positions ascend within the table"
        );
        let Some(&filler) = new.rows.first() else {
            return;
        };
        let (old_rows, old_nodes) = (self.rows.len(), self.nodes.len());
        self.rows.resize(old_rows + new.rows.len(), filler);
        self.nodes
            .resize(old_nodes + new.nodes.len(), NodeId::from_index(0));
        // Checked once: every offset below is at most the arena length.
        offset(self.nodes.len());
        let subtpiin = subtpiin.map(|s| u32::try_from(s).expect("subTPIIN index fits u32"));
        // Old rows `at[i]..end` have not moved yet.
        let mut end = old_rows;
        for (i, (&pos, row)) in at.iter().zip(&new.rows).enumerate().rev() {
            // Where old row `pos` starts in the arena, before any move.
            let base = match pos {
                0 => 0,
                _ => self.rows[pos - 1].stop,
            };
            // New rows `0..=i` land before old row `pos`: it and the rest
            // of its stretch shift by that many rows and trail nodes
            // (rows lie back to back, so `row.stop` counts the nodes).
            if pos < end {
                let shift = row.stop;
                let run = self.rows[pos].start as usize..self.rows[end - 1].stop as usize;
                self.nodes
                    .copy_within(run.clone(), run.start + shift as usize);
                self.rows.copy_within(pos..end, pos + i + 1);
                for moved in &mut self.rows[pos + i + 1..end + i + 1] {
                    moved.start += shift;
                    moved.split += shift;
                    moved.stop += shift;
                }
            }
            let at_node = (base + row.start) as usize;
            for (slot, &v) in self.nodes[at_node..]
                .iter_mut()
                .zip(&new.nodes[row.start as usize..row.stop as usize])
            {
                *slot = map(v);
            }
            self.rows[pos + i] = Row {
                subtpiin: subtpiin.unwrap_or(row.subtpiin),
                antecedent: map(row.antecedent),
                end: map(row.end),
                trading_arc: (map(row.trading_arc.0), map(row.trading_arc.1)),
                start: base + row.start,
                split: base + row.split,
                stop: base + row.stop,
                ..*row
            };
            end = pos;
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn group(seller: usize, len: usize) -> SuspiciousGroup {
        let n = NodeId::from_index;
        SuspiciousGroup {
            subtpiin: seller % 3,
            kind: GroupKind::Matched,
            antecedent: n(0),
            end: n(100 + seller),
            trading_arc: (n(seller), n(100 + seller)),
            trail_with_trade: (0..len).map(|i| n(10 * seller + i)).collect(),
            trail_plain: vec![n(0), n(100 + seller)],
            simple: len.is_multiple_of(2),
        }
    }

    #[test]
    fn merging_by_seller_equals_a_stable_sort_of_both_lists() {
        let old: Vec<SuspiciousGroup> = [1, 1, 3, 4, 4, 4, 7, 9]
            .iter()
            .enumerate()
            .map(|(i, &s)| group(s, 1 + i % 4))
            .collect();
        let new_sellers: &[&[usize]] = &[&[0], &[1, 1, 2], &[4, 8, 9, 9], &[0, 5, 10], &[]];
        for sellers in new_sellers {
            let new: Vec<SuspiciousGroup> = sellers
                .iter()
                .enumerate()
                .map(|(i, &s)| group(s, 2 + i))
                .collect();
            // The whole table, and a range of it with rows on either side.
            for (lo, hi) in [(0, old.len()), (2, 6)] {
                let mut want: Vec<SuspiciousGroup> = old[lo..hi].to_vec();
                want.extend(new.iter().map(|g| SuspiciousGroup {
                    subtpiin: 7,
                    ..g.clone()
                }));
                want.sort_by_key(|g| g.trading_arc.0);
                let mut all = old[..lo].to_vec();
                all.extend(want);
                all.extend_from_slice(&old[hi..]);
                let mut table = GroupTable::from(old.as_slice());
                table.merge_by_seller(lo..hi, &GroupTable::from(new.as_slice()), Some(7), |v| v);
                assert_eq!(
                    table,
                    GroupTable::from(all.as_slice()),
                    "{sellers:?} into {lo}..{hi}"
                );
                let packed = table.rows.windows(2).all(|w| w[0].stop == w[1].start);
                let last = table.rows.last().map_or(0, |r| r.stop as usize);
                assert!(packed && last == table.nodes.len(), "rows back to back");
            }
        }
    }
}
