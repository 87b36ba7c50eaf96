//! The fused-TPIIN snapshot file.
//!
//! Fusion runs nightly against the master data; detection, queries and
//! streaming ingestion happen all day.  A snapshot lets those processes
//! share the fused network without re-running fusion.  Loading one is a
//! bulk read into an 8-byte-aligned buffer plus cheap section-slice views
//! — no per-record parsing — and the frozen CSR lanes travel inside the
//! file so materialization skips the freeze counting sort too.  The file
//! is derived data: `tpiin save-snapshot` rebuilds it from the registry,
//! and the edge list, GraphML, DOT and registry CSV are the
//! human-readable views of the same network.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! magic     8 bytes   "TPIINBIN"
//! version   u32       1
//! sections  u32       section count: 17 + 5 per CSR lane, 2 lanes = 27
//! table     sections × (offset u64, len u64)   byte ranges, 8-aligned
//! payload   the sections, each padded to an 8-byte boundary
//! ```
//!
//! Fixed section indices (element types in brackets):
//!
//! | # | section | contents |
//! |---|---------|----------|
//! | 0 | header  | `[u64; 8]`: nodes, influence arcs, trading arcs, edges, intra trades, person-table len, company-table len, lane count (2) |
//! | 1 | label arena | concatenated UTF-8 label bytes (validated once) |
//! | 2 | label offsets | `u32[n+1]` byte offsets into the arena |
//! | 3 | node tags | `u8[n]`, `0` person / `1` company |
//! | 4 | member offsets | `u32[n+1]` into the flat member array |
//! | 5 | members | `u32[]` source person/company ids, grouped by node |
//! | 6–10 | arcs, columnar | `u32[] src`, `u32[] dst`, `u8[] color`, `f64[] weight`, `u32[] source-seq` |
//! | 11–14 | intra trades, columnar | `u32[] seller`, `u32[] buyer`, `u32[] syndicate`, `f64[] volume` |
//! | 15 | person table | `u32[]` TPIIN node per source person |
//! | 16 | company table | `u32[]` TPIIN node per source company |
//! | 17–26 | CSR lanes | trading lane, then influence lane; per lane: `u32[n+1] out_offsets`, `u32[] out_targets`, `u32[] out_edge_ids`, `u32[n+1] in_offsets`, `u32[] in_sources` |
//!
//! ## Versioning policy
//!
//! The magic never changes; `version` bumps on any layout change and the
//! reader rejects versions it does not know (no silent reinterpretation).
//! A new section is a layout change too: it appends to the table (never
//! reorders it) and bumps the version, because the reader checks the
//! exact section count.
//!
//! Every section view is bounds- and alignment-checked before use;
//! malformed input yields a typed [`IoError`], never a panic.

use crate::error::IoError;
use std::ops::Range;
use tpiin_fusion::compact::Label;
use tpiin_fusion::{ArcColor, IntraSyndicateTrade, Tpiin, TpiinArc, TpiinNode};
use tpiin_graph::{CsrGraph, CsrLaneParts, DiGraph, NodeId};
use tpiin_model::{CompanyId, PersonId};

// The on-disk layout is little-endian and the reader reinterprets the
// buffer in place; a big-endian port would need explicit byte swaps.
#[cfg(target_endian = "big")]
compile_error!("the binary snapshot reader assumes a little-endian host");

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"TPIINBIN";
/// Current format version.
pub const VERSION: u32 = 1;

/// CSR lanes of a TPIIN: trading and influence.
const LANES: usize = 2;
/// Sections before the per-lane CSR arrays.
const FIXED_SECTIONS: usize = 17;
/// Sections per CSR lane.
const LANE_SECTIONS: usize = 5;
/// Sections of a TPIIN image.
const SECTIONS: usize = FIXED_SECTIONS + LANE_SECTIONS * LANES;
/// End of the preamble (magic, version, section count) and the section
/// table.
const TABLE_END: usize = 16 + SECTIONS * 16;
/// `u64` fields in the header section.
const HEADER_FIELDS: usize = 8;

fn bin_err(message: impl Into<String>) -> IoError {
    IoError::parse("snapshot-bin", 0, message)
}

/// An 8-byte-aligned owned byte buffer.  `Vec<u8>` makes no alignment
/// promise, so the bulk file read is copied once into `u64` storage;
/// every `u32`/`f64` section view is then a plain in-place slice cast.
struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    fn from_bytes(bytes: &[u8]) -> AlignedBuf {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: u64 -> u8 reinterpretation is always aligned and any
        // byte pattern is a valid u8; the slice covers exactly the
        // allocation the words own.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), bytes.len()) };
        dst.copy_from_slice(bytes);
        AlignedBuf {
            words,
            len: bytes.len(),
        }
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: as above — alignment 8 ≥ 1 and len ≤ words.len() * 8.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

/// Reinterprets a byte slice as `u32`s; `None` if misaligned or ragged.
fn view_u32(bytes: &[u8]) -> Option<&[u32]> {
    // SAFETY: align_to only returns elements in `mid` when they are
    // correctly aligned, and every bit pattern is a valid u32.
    let (prefix, mid, suffix) = unsafe { bytes.align_to::<u32>() };
    (prefix.is_empty() && suffix.is_empty()).then_some(mid)
}

/// Reinterprets a byte slice as `u64`s; `None` if misaligned or ragged.
fn view_u64(bytes: &[u8]) -> Option<&[u64]> {
    // SAFETY: as `view_u32`.
    let (prefix, mid, suffix) = unsafe { bytes.align_to::<u64>() };
    (prefix.is_empty() && suffix.is_empty()).then_some(mid)
}

/// Reinterprets a byte slice as `f64`s; `None` if misaligned or ragged.
/// Every bit pattern (including NaNs) is a valid `f64`.
fn view_f64(bytes: &[u8]) -> Option<&[f64]> {
    // SAFETY: as `view_u32`.
    let (prefix, mid, suffix) = unsafe { bytes.align_to::<f64>() };
    (prefix.is_empty() && suffix.is_empty()).then_some(mid)
}

/// Incremental writer: appends sections 8-byte-padded and records the
/// `(offset, len)` table to be patched into the preamble at the end.
struct SectionWriter {
    buf: Vec<u8>,
    table: Vec<(u64, u64)>,
}

impl SectionWriter {
    fn new(section_count: usize) -> SectionWriter {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(section_count as u32).to_le_bytes());
        // Reserve the table; patched in `finish`.
        buf.resize(buf.len() + section_count * 16, 0);
        while buf.len() % 8 != 0 {
            buf.push(0);
        }
        SectionWriter {
            buf,
            table: Vec::with_capacity(section_count),
        }
    }

    /// Appends one section: the concatenated `chunks` (raw bytes, or
    /// the little-endian encodings of its elements), then padding.
    fn section<B: AsRef<[u8]>>(&mut self, chunks: impl IntoIterator<Item = B>) {
        let start = self.buf.len();
        for chunk in chunks {
            self.buf.extend_from_slice(chunk.as_ref());
        }
        self.table
            .push((start as u64, (self.buf.len() - start) as u64));
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        let mut cursor = MAGIC.len() + 8;
        for &(offset, len) in &self.table {
            self.buf[cursor..cursor + 8].copy_from_slice(&offset.to_le_bytes());
            self.buf[cursor + 8..cursor + 16].copy_from_slice(&len.to_le_bytes());
            cursor += 16;
        }
        self.buf
    }
}

/// Serializes a fused TPIIN into the binary layout.
pub fn write_snapshot_bin(tpiin: &Tpiin) -> Vec<u8> {
    let n = tpiin.graph.node_count();
    let edges = tpiin.graph.edge_count();
    let csr = tpiin.csr();
    let lanes = csr.lane_count();
    let mut w = SectionWriter::new(FIXED_SECTIONS + LANE_SECTIONS * lanes);

    // 0: header.
    w.section(
        [
            n,
            tpiin.influence_arc_count,
            tpiin.trading_arc_count,
            edges,
            tpiin.intra_syndicate_trades.len(),
            tpiin.person_node.len(),
            tpiin.company_node.len(),
            lanes,
        ]
        .map(|v| (v as u64).to_le_bytes()),
    );

    // 1–2: label arena + offsets.
    let mut arena = String::new();
    let mut label_offsets = Vec::with_capacity(n + 1);
    label_offsets.push(0u32);
    for (_, node) in tpiin.graph.nodes() {
        arena.push_str(node.label());
        assert!(
            arena.len() <= u32::MAX as usize,
            "label arena exceeds 4 GiB"
        );
        label_offsets.push(arena.len() as u32);
    }
    let le = u32::to_le_bytes;
    w.section([arena]);
    w.section(label_offsets.into_iter().map(le));

    // 3–5: node tags, member offsets, flat members.
    let mut tags = Vec::with_capacity(n);
    let mut member_offsets = Vec::with_capacity(n + 1);
    let mut members: Vec<u32> = Vec::new();
    member_offsets.push(0u32);
    for (_, node) in tpiin.graph.nodes() {
        match node {
            TpiinNode::Person { members: m, .. } => {
                tags.push(0u8);
                members.extend(m.iter().map(|p| p.0));
            }
            TpiinNode::Company { members: m, .. } => {
                tags.push(1u8);
                members.extend(m.iter().map(|c| c.0));
            }
        }
        member_offsets.push(members.len() as u32);
    }
    w.section([tags]);
    w.section(member_offsets.into_iter().map(le));
    w.section(members.into_iter().map(le));

    // 6–10: columnar arcs, insertion (edge-id) order.
    let arcs = || tpiin.graph.edges();
    w.section(arcs().map(|e| le(e.source.index() as u32)));
    w.section(arcs().map(|e| le(e.target.index() as u32)));
    w.section(arcs().map(|e| [e.weight.color.code() as u8]));
    w.section(arcs().map(|e| e.weight.weight.to_le_bytes()));
    w.section((0..edges).map(|i| le(tpiin.arc_sources.get(i).copied().unwrap_or(u32::MAX))));

    // 11–14: columnar intra-syndicate trades.
    let intra = &tpiin.intra_syndicate_trades;
    w.section(intra.iter().map(|t| le(t.seller.0)));
    w.section(intra.iter().map(|t| le(t.buyer.0)));
    w.section(intra.iter().map(|t| le(t.syndicate.index() as u32)));
    w.section(intra.iter().map(|t| t.volume.to_le_bytes()));

    // 15–16: dense member -> node lookup tables.
    w.section(tpiin.person_node.iter().map(|v| le(v.index() as u32)));
    w.section(tpiin.company_node.iter().map(|v| le(v.index() as u32)));

    // 17+: the frozen CSR lanes, verbatim.
    for lane in 0..lanes {
        w.section(csr.lane_out_offsets(lane).iter().map(|&v| le(v)));
        w.section(csr.lane_out_targets(lane).iter().map(|&v| le(v)));
        w.section(
            csr.lane_out_edge_ids(lane)
                .iter()
                .map(|e| le(e.index() as u32)),
        );
        w.section(csr.lane_in_offsets(lane).iter().map(|&v| le(v)));
        w.section(csr.lane_in_sources(lane).iter().map(|&v| le(v)));
    }
    w.finish()
}

/// Scalar counts from the header section.
#[derive(Clone, Copy, Debug)]
struct Header {
    nodes: usize,
    influence_arcs: usize,
    trading_arcs: usize,
    edges: usize,
    intra: usize,
    persons: usize,
    companies: usize,
}

/// A validated view over an in-memory binary snapshot.
///
/// Construction ([`SnapshotView::parse`]) checks the magic, version and
/// the whole section table (bounds, 8-byte alignment, expected count)
/// plus every per-section shape invariant outside the CSR lanes, whose
/// own invariants [`CsrGraph::from_raw_lanes`] checks as it adopts them,
/// so the section accessors and [`SnapshotView::materialize`] cannot
/// read out of bounds or panic on malformed input.  The buffer is copied once into aligned storage at
/// parse time; all section views borrow it in place.
struct SnapshotView {
    buf: AlignedBuf,
    sections: Vec<Range<usize>>,
    header: Header,
}

impl SnapshotView {
    /// Parses and validates a binary snapshot image.
    fn parse(bytes: &[u8]) -> Result<SnapshotView, IoError> {
        if !bytes.starts_with(&MAGIC) {
            return Err(bin_err(
                "bad magic bytes: not a TPIINBIN snapshot; re-run `tpiin save-snapshot`",
            ));
        }
        if bytes.len() < TABLE_END {
            return Err(bin_err("file shorter than its preamble and section table"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(bin_err(format!(
                "unsupported version {version} (reader knows {VERSION})"
            )));
        }
        let section_count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        if section_count != SECTIONS {
            return Err(bin_err(format!(
                "{section_count} sections, expected {SECTIONS} ({FIXED_SECTIONS} + \
                 {LANE_SECTIONS} per CSR lane)"
            )));
        }

        let buf = AlignedBuf::from_bytes(bytes);
        let data = buf.bytes();
        let mut sections = Vec::with_capacity(SECTIONS);
        for i in 0..SECTIONS {
            let at = 16 + i * 16;
            let offset = u64::from_le_bytes(data[at..at + 8].try_into().unwrap());
            let len = u64::from_le_bytes(data[at + 8..at + 16].try_into().unwrap());
            let (offset, len) = (
                usize::try_from(offset)
                    .map_err(|_| bin_err(format!("section {i} offset overflows")))?,
                usize::try_from(len)
                    .map_err(|_| bin_err(format!("section {i} length overflows")))?,
            );
            let end = offset
                .checked_add(len)
                .ok_or_else(|| bin_err(format!("section {i} range overflows")))?;
            if end > data.len() {
                return Err(bin_err(format!(
                    "section {i} [{offset}, {end}) exceeds file size {}",
                    data.len()
                )));
            }
            if offset % 8 != 0 {
                return Err(bin_err(format!(
                    "section {i} offset {offset} is misaligned"
                )));
            }
            sections.push(offset..end);
        }

        let header = read_header(&buf.bytes()[sections[0].clone()])?;
        let view = SnapshotView {
            buf,
            sections,
            header,
        };
        view.validate_shapes()?;
        Ok(view)
    }

    fn section_bytes(&self, i: usize) -> &[u8] {
        &self.buf.bytes()[self.sections[i].clone()]
    }

    fn section_u32s(&self, i: usize, what: &str) -> Result<&[u32], IoError> {
        view_u32(self.section_bytes(i))
            .ok_or_else(|| bin_err(format!("{what} (section {i}) is not a u32 array")))
    }

    fn section_f64s(&self, i: usize, what: &str) -> Result<&[f64], IoError> {
        view_f64(self.section_bytes(i))
            .ok_or_else(|| bin_err(format!("{what} (section {i}) is not an f64 array")))
    }

    /// Cross-checks every non-lane section's length against the header
    /// counts and the offset arrays' CSR-style invariants, plus the lane
    /// edge ids' range, so `materialize` can trust the shapes.
    fn validate_shapes(&self) -> Result<(), IoError> {
        let h = &self.header;
        let arena_len = self.section_bytes(1).len();
        check_offset_array(
            self.section_u32s(2, "label offsets")?,
            h.nodes,
            arena_len,
            "label offsets",
        )?;
        if self.section_bytes(3).len() != h.nodes {
            return Err(bin_err(format!(
                "node tags hold {} entries for {} nodes",
                self.section_bytes(3).len(),
                h.nodes
            )));
        }
        let members_len = self.section_u32s(5, "members")?.len();
        check_offset_array(
            self.section_u32s(4, "member offsets")?,
            h.nodes,
            members_len,
            "member offsets",
        )?;
        for (i, what, want) in [
            (6usize, "arc sources(src)", h.edges),
            (7, "arc targets", h.edges),
            (10, "arc source-seqs", h.edges),
            (11, "intra sellers", h.intra),
            (12, "intra buyers", h.intra),
            (13, "intra syndicates", h.intra),
            (15, "person table", h.persons),
            (16, "company table", h.companies),
        ] {
            let got = self.section_u32s(i, what)?.len();
            if got != want {
                return Err(bin_err(format!(
                    "{what} holds {got} entries, expected {want}"
                )));
            }
        }
        if self.section_bytes(8).len() != h.edges {
            return Err(bin_err("arc colors length mismatch"));
        }
        for (i, what, want) in [
            (9usize, "arc weights", h.edges),
            (14, "intra volumes", h.intra),
        ] {
            let got = self.section_f64s(i, what)?.len();
            if got != want {
                return Err(bin_err(format!(
                    "{what} holds {got} entries, expected {want}"
                )));
            }
        }
        // The lanes' CSR invariants are checked by `from_raw_lanes`; the
        // edge ids it cannot see are checked here.
        for lane in 0..LANES {
            let ids =
                self.section_u32s(FIXED_SECTIONS + lane * LANE_SECTIONS + 2, "lane edge ids")?;
            if ids.iter().any(|&id| id as usize >= h.edges) {
                return Err(bin_err("lane edge id out of range"));
            }
        }
        Ok(())
    }

    /// Materializes the [`Tpiin`] the detector and serve paths consume.
    ///
    /// Labels are sliced out of the one-time-validated arena (no
    /// unescaping), arcs come straight from the columnar arrays (no
    /// number parsing) and the CSR is adopted from the stored lanes (no
    /// freeze counting sort).
    fn materialize(&self) -> Result<Tpiin, IoError> {
        let h = &self.header;
        let arena = std::str::from_utf8(self.section_bytes(1))
            .map_err(|_| bin_err("label arena is not valid UTF-8"))?;
        let label_offsets = self.section_u32s(2, "label offsets")?;
        let tags = self.section_bytes(3);
        let member_offsets = self.section_u32s(4, "member offsets")?;
        let members = self.section_u32s(5, "members")?;

        // Node payloads use the small-buffer `Label` / `Members` types:
        // short labels and ≤2-entry member lists land inline in the node
        // slot, so this loop performs no per-node heap allocation for
        // ordinary (non-syndicate) nodes.
        let mut nodes: Vec<TpiinNode> = Vec::with_capacity(h.nodes);
        for v in 0..h.nodes {
            let label = arena
                .get(label_offsets[v] as usize..label_offsets[v + 1] as usize)
                .ok_or_else(|| bin_err(format!("label {v} splits a UTF-8 sequence")))?;
            let ms = &members[member_offsets[v] as usize..member_offsets[v + 1] as usize];
            nodes.push(match tags[v] {
                0 => TpiinNode::Person {
                    label: Label::new(label),
                    members: ms.iter().map(|&m| PersonId(m)).collect(),
                },
                1 => TpiinNode::Company {
                    label: Label::new(label),
                    members: ms.iter().map(|&m| CompanyId(m)).collect(),
                },
                other => return Err(bin_err(format!("bad node tag {other} at node {v}"))),
            });
        }

        let srcs = self.section_u32s(6, "arc sources(src)")?;
        let dsts = self.section_u32s(7, "arc targets")?;
        let colors = self.section_bytes(8);
        let weights = self.section_f64s(9, "arc weights")?;
        let mut edge_list: Vec<(NodeId, NodeId, TpiinArc)> = Vec::with_capacity(h.edges);
        for i in 0..h.edges {
            if srcs[i] as usize >= h.nodes || dsts[i] as usize >= h.nodes {
                return Err(bin_err(format!("arc {i} endpoint out of range")));
            }
            let color = match colors[i] {
                0 => ArcColor::Trading,
                1 => ArcColor::Influence,
                other => return Err(bin_err(format!("bad arc color {other} at arc {i}"))),
            };
            edge_list.push((
                NodeId::from_index(srcs[i] as usize),
                NodeId::from_index(dsts[i] as usize),
                TpiinArc {
                    color,
                    weight: weights[i],
                },
            ));
        }
        // Bulk construction: the edge column is built at its exact final
        // size instead of growing push by push.  The graph keeps no
        // adjacency; the frozen lanes below are read straight from the file.
        let graph = DiGraph::from_edge_list(nodes, edge_list);

        let sellers = self.section_u32s(11, "intra sellers")?;
        let buyers = self.section_u32s(12, "intra buyers")?;
        let syndicates = self.section_u32s(13, "intra syndicates")?;
        let volumes = self.section_f64s(14, "intra volumes")?;
        let mut intra = Vec::with_capacity(h.intra);
        for i in 0..h.intra {
            if syndicates[i] as usize >= h.nodes {
                return Err(bin_err(format!("intra trade {i} syndicate out of range")));
            }
            intra.push(IntraSyndicateTrade {
                seller: CompanyId(sellers[i]),
                buyer: CompanyId(buyers[i]),
                syndicate: NodeId::from_index(syndicates[i] as usize),
                volume: volumes[i],
            });
        }

        let node_table = |i: usize, what: &str| -> Result<Vec<NodeId>, IoError> {
            let raw = self.section_u32s(i, what)?;
            if raw.iter().any(|&v| v as usize >= h.nodes) {
                return Err(bin_err(format!("{what} entry out of range")));
            }
            Ok(raw
                .iter()
                .map(|&v| NodeId::from_index(v as usize))
                .collect())
        };
        let person_node = node_table(15, "person table")?;
        let company_node = node_table(16, "company table")?;

        let mut lanes = Vec::with_capacity(LANES);
        for lane in 0..LANES {
            let base = FIXED_SECTIONS + lane * LANE_SECTIONS;
            lanes.push(CsrLaneParts {
                out_offsets: self.section_u32s(base, "lane out offsets")?.to_vec(),
                out_targets: self.section_u32s(base + 1, "lane out targets")?.to_vec(),
                out_edge_ids: self.section_u32s(base + 2, "lane edge ids")?.to_vec(),
                in_offsets: self.section_u32s(base + 3, "lane in offsets")?.to_vec(),
                in_sources: self.section_u32s(base + 4, "lane in sources")?.to_vec(),
            });
        }
        let csr = CsrGraph::from_raw_lanes(h.nodes, lanes).map_err(bin_err)?;
        if csr.total_edge_count() != h.edges {
            return Err(bin_err(format!(
                "CSR lanes hold {} edges, header says {}",
                csr.total_edge_count(),
                h.edges
            )));
        }

        Ok(Tpiin::assemble_frozen(
            graph,
            person_node,
            company_node,
            h.influence_arcs,
            h.trading_arcs,
            intra,
            self.section_u32s(10, "arc source-seqs")?.to_vec(),
            csr,
        ))
    }
}

/// Reads and checks the header section's scalar counts.
fn read_header(section: &[u8]) -> Result<Header, IoError> {
    let words = view_u64(section).ok_or_else(|| bin_err("header is not a u64 array"))?;
    if words.len() != HEADER_FIELDS {
        return Err(bin_err(format!(
            "header holds {} fields, expected {HEADER_FIELDS}",
            words.len()
        )));
    }
    let field = |i: usize, what: &str| -> Result<usize, IoError> {
        usize::try_from(words[i]).map_err(|_| bin_err(format!("{what} count overflows")))
    };
    let h = Header {
        nodes: field(0, "node")?,
        influence_arcs: field(1, "influence-arc")?,
        trading_arcs: field(2, "trading-arc")?,
        edges: field(3, "edge")?,
        intra: field(4, "intra-trade")?,
        persons: field(5, "person")?,
        companies: field(6, "company")?,
    };
    if h.influence_arcs.checked_add(h.trading_arcs) != Some(h.edges) {
        return Err(bin_err(format!(
            "arc counts {} + {} do not sum to edge count {}",
            h.influence_arcs, h.trading_arcs, h.edges
        )));
    }
    if h.nodes > u32::MAX as usize || h.edges > u32::MAX as usize {
        return Err(bin_err("node or edge count exceeds u32 index space"));
    }
    // A `Tpiin` reads exactly its trading and influence lanes.
    if words[7] != LANES as u64 {
        return Err(bin_err(format!(
            "lane count {} (a TPIIN has {LANES})",
            words[7]
        )));
    }
    Ok(h)
}

/// Checks the CSR-style shape of an offset array: `n + 1` entries,
/// starts at zero, monotone, final entry equal to the element count of
/// the array it indexes.
fn check_offset_array(
    offsets: &[u32],
    n: usize,
    entries: usize,
    what: &str,
) -> Result<(), IoError> {
    if offsets.len() != n + 1 {
        return Err(bin_err(format!(
            "{what}: {} entries for {n} nodes",
            offsets.len()
        )));
    }
    if offsets[0] != 0 {
        return Err(bin_err(format!(
            "{what}: first offset {} is not 0",
            offsets[0]
        )));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(bin_err(format!("{what}: offsets are not monotone")));
    }
    if offsets[n] as usize != entries {
        return Err(bin_err(format!(
            "{what}: final offset {} does not match {entries} entries",
            offsets[n]
        )));
    }
    Ok(())
}

/// Deserializes a binary snapshot produced by [`write_snapshot_bin`].
pub fn read_snapshot_bin(bytes: &[u8]) -> Result<Tpiin, IoError> {
    SnapshotView::parse(bytes)?.materialize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig7() -> Tpiin {
        tpiin_fusion::fuse(&tpiin_datagen::fig7_registry())
            .unwrap()
            .0
    }

    /// A network whose CSR carries only its trading lane encodes, but a
    /// `Tpiin` reads two lanes, so the reader refuses the file instead of
    /// handing the detector a network it would index out of bounds.
    #[test]
    fn one_lane_file_is_rejected() {
        let tpiin = fig7();
        let csr = tpiin.csr();
        let lane = tpiin_fusion::TRADING_LANE;
        let parts = CsrLaneParts {
            out_offsets: csr.lane_out_offsets(lane).to_vec(),
            out_targets: csr.lane_out_targets(lane).to_vec(),
            out_edge_ids: csr
                .lane_out_edge_ids(lane)
                .iter()
                .map(|e| e.index() as u32)
                .collect(),
            in_offsets: csr.lane_in_offsets(lane).to_vec(),
            in_sources: csr.lane_in_sources(lane).to_vec(),
        };
        let one_lane = CsrGraph::from_raw_lanes(tpiin.node_count(), vec![parts]).unwrap();
        let broken = Tpiin::assemble_frozen(
            tpiin.graph.clone(),
            tpiin.person_node.clone(),
            tpiin.company_node.clone(),
            tpiin.influence_arc_count,
            tpiin.trading_arc_count,
            tpiin.intra_syndicate_trades.clone(),
            tpiin.arc_sources.clone(),
            one_lane,
        );
        let err = read_snapshot_bin(&write_snapshot_bin(&broken)).unwrap_err();
        assert!(
            err.to_string().contains("22 sections, expected 27"),
            "{err}"
        );

        // A full-size image whose header claims one lane is refused too.
        let mut bytes = write_snapshot_bin(&tpiin);
        let header = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        bytes[header + 56..header + 64].copy_from_slice(&1u64.to_le_bytes());
        let err = read_snapshot_bin(&bytes).unwrap_err();
        assert!(err.to_string().contains("lane count 1"), "{err}");
    }

    #[test]
    fn truncation_is_rejected_everywhere() {
        let bytes = write_snapshot_bin(&fig7());
        for len in [0, 4, 15, 16, 40, bytes.len() / 2, bytes.len() - 1] {
            let err = read_snapshot_bin(&bytes[..len]);
            assert!(err.is_err(), "length {len} should be rejected");
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = write_snapshot_bin(&fig7());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        let err = read_snapshot_bin(&wrong_magic).unwrap_err().to_string();
        assert!(err.contains("re-run `tpiin save-snapshot`"), "{err}");
        // A line-oriented text file from an older build gets the same
        // typed error.
        let err = read_snapshot_bin(b"nodes 1\nP L1 0\narcs 0 0\nintra 0\n").unwrap_err();
        assert!(err.to_string().contains("not a TPIINBIN snapshot"), "{err}");
        bytes[8] = 0xFF; // version LSB
        let err = read_snapshot_bin(&bytes).unwrap_err().to_string();
        assert!(err.contains("unsupported version"), "{err}");
    }

    #[test]
    fn oversized_and_misaligned_section_offsets_are_rejected() {
        let good = write_snapshot_bin(&fig7());
        // Section 1 (label arena) table entry sits at byte 16 + 16.
        let entry = 32;
        let mut oversized = good.clone();
        oversized[entry..entry + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let err = read_snapshot_bin(&oversized).unwrap_err().to_string();
        assert!(err.contains("exceeds file size"), "{err}");
        let mut misaligned = good.clone();
        let offset = u64::from_le_bytes(good[entry..entry + 8].try_into().unwrap());
        misaligned[entry..entry + 8].copy_from_slice(&(offset + 1).to_le_bytes());
        let err = read_snapshot_bin(&misaligned).unwrap_err().to_string();
        assert!(err.contains("misaligned"), "{err}");
    }

    #[test]
    fn corrupt_counts_are_rejected_not_panicking() {
        let good = write_snapshot_bin(&fig7());
        // Header section: first table entry points at it; flip each
        // header field to a huge value and expect a typed error.
        let header_off = u64::from_le_bytes(good[16..24].try_into().unwrap()) as usize;
        for field in 0..HEADER_FIELDS {
            let mut bad = good.clone();
            let at = header_off + field * 8;
            bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(
                read_snapshot_bin(&bad).is_err(),
                "header field {field} = MAX should be rejected"
            );
        }
    }
}
