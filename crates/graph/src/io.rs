//! Graph, delta and partition I/O: METIS-compatible text plus compact
//! binary codecs for the durability layer.
//!
//! The METIS `.graph` format is the de-facto interchange format for
//! partitioning research (Chaco/METIS/ParMETIS/Zoltan all read it):
//!
//! ```text
//! % comment lines start with '%'
//! <num_vertices> <num_edges> [fmt [ncon]]
//! <neighbors of vertex 1, 1-based> ...
//! ...
//! ```
//!
//! `fmt` is a 3-digit flag string: `1xx` vertex sizes (unsupported), `x1x`
//! vertex weights, `xx1` edge weights. Partition files are one 0-based
//! partition id per line (the `.part.P` convention).
//!
//! The binary codecs ([`write_graph_bin`], [`write_delta_bin`],
//! [`write_partition_bin`] and their readers) are little-endian,
//! magic-tagged and versioned; `igp-store` frames them into its WAL and
//! snapshot files (DESIGN.md §9). [`write_delta_fields`] /
//! [`read_delta_fields`] are the one text grammar for deltas
//! (`av=… rv=… ae=… re=…`), shared by the service wire protocol and
//! `igp-cli`.

use crate::csr::{CsrBuilder, CsrGraph};
use crate::delta::GraphDelta;
use crate::partition::Partitioning;
use crate::{NodeId, PartId, Weight, MAX_WEIGHT};
use std::fmt::Write as _;

/// Errors from the text and binary parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Header missing or malformed.
    BadHeader(String),
    /// A vertex line failed to parse.
    BadLine { line: usize, reason: String },
    /// Edge counts or symmetry did not match the header.
    Inconsistent(String),
    /// A `key=value` field failed to parse (delta text grammar).
    BadField(String),
    /// A binary payload is truncated, mistagged or self-inconsistent.
    Corrupt(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader(s) => write!(f, "bad header: {s}"),
            ParseError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
            ParseError::Inconsistent(s) => write!(f, "inconsistent graph: {s}"),
            ParseError::BadField(s) => write!(f, "{s}"),
            ParseError::Corrupt(s) => write!(f, "corrupt binary payload: {s}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialize a graph in METIS format. Writes edge weights iff any edge
/// weight differs from 1; vertex weights iff any differs from 1.
pub fn write_metis(g: &CsrGraph) -> String {
    let has_ew = g
        .vertices()
        .any(|v| g.edge_weights(v).iter().any(|&w| w != 1));
    let has_vw = g.vertex_weights().iter().any(|&w| w != 1);
    let fmt = match (has_vw, has_ew) {
        (false, false) => "",
        (false, true) => " 001",
        (true, false) => " 010",
        (true, true) => " 011",
    };
    let mut out = String::new();
    let _ = writeln!(out, "{} {}{}", g.num_vertices(), g.num_edges(), fmt);
    for v in g.vertices() {
        let mut first = true;
        if has_vw {
            let _ = write!(out, "{}", g.vertex_weight(v));
            first = false;
        }
        for (u, w) in g.edges_of(v) {
            if !first {
                out.push(' ');
            }
            let _ = write!(out, "{}", u + 1);
            if has_ew {
                let _ = write!(out, " {w}");
            }
            first = false;
        }
        out.push('\n');
    }
    out
}

/// Parse a METIS-format graph.
pub fn read_metis(text: &str) -> Result<CsrGraph, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim_start().starts_with('%'))
        .map(|(i, l)| (i + 1, l.trim()));
    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseError::BadHeader("empty input".into()))?;
    let head: Vec<&str> = header.split_whitespace().collect();
    if head.len() < 2 {
        return Err(ParseError::BadHeader(header.into()));
    }
    let n: usize = head[0]
        .parse()
        .map_err(|_| ParseError::BadHeader(format!("bad vertex count {}", head[0])))?;
    let m: usize = head[1]
        .parse()
        .map_err(|_| ParseError::BadHeader(format!("bad edge count {}", head[1])))?;
    let fmt = head.get(2).copied().unwrap_or("000");
    let fmt_padded = format!("{fmt:0>3}");
    let has_vs = fmt_padded.as_bytes()[0] == b'1';
    let has_vw = fmt_padded.as_bytes()[1] == b'1';
    let has_ew = fmt_padded.as_bytes()[2] == b'1';
    if has_vs {
        return Err(ParseError::BadHeader(
            "vertex sizes (fmt 1xx) unsupported".into(),
        ));
    }
    let ncon: usize = head
        .get(3)
        .map(|s| s.parse().unwrap_or(1))
        .unwrap_or(if has_vw { 1 } else { 0 });
    if ncon > 1 {
        return Err(ParseError::BadHeader(
            "multiple vertex constraints unsupported".into(),
        ));
    }

    // Size nothing from the header alone: it may claim more than the
    // text holds. Every vertex takes at least one byte (its line), and
    // every edge at least four (a token and a separator on each of its
    // two endpoint lines).
    if n > NodeId::MAX as usize {
        return Err(ParseError::BadHeader(format!(
            "vertex count {n} exceeds the {} supported",
            NodeId::MAX
        )));
    }
    if n > text.len() {
        return Err(ParseError::BadHeader(format!(
            "vertex count {n} exceeds the {} bytes of input",
            text.len()
        )));
    }
    let mut b = CsrBuilder::with_edge_capacity(n, m.min(text.len() / 4));
    let mut seen_edges = 0usize;
    let mut v: NodeId = 0;
    for (lineno, line) in lines {
        if v as usize >= n {
            if line.is_empty() {
                continue;
            }
            return Err(ParseError::Inconsistent(format!(
                "extra vertex line {lineno} beyond {n} vertices"
            )));
        }
        let mut toks = line.split_whitespace().map(|t| {
            t.parse::<u64>().map_err(|_| ParseError::BadLine {
                line: lineno,
                reason: format!("bad token {t:?}"),
            })
        });
        let weight = |w: u64, what: &str| {
            if w > MAX_WEIGHT {
                return Err(ParseError::BadLine {
                    line: lineno,
                    reason: format!("{what} weight {w} exceeds {MAX_WEIGHT}"),
                });
            }
            Ok(w as Weight)
        };
        if has_vw {
            let w = toks.next().transpose()?.ok_or(ParseError::BadLine {
                line: lineno,
                reason: "missing vertex weight".into(),
            })?;
            b.set_vertex_weight(v, weight(w, "vertex")?);
        }
        while let Some(u) = toks.next().transpose()? {
            if u == 0 || u as usize > n {
                return Err(ParseError::BadLine {
                    line: lineno,
                    reason: format!("neighbor {u} out of range"),
                });
            }
            let u = (u - 1) as NodeId;
            let w = if has_ew {
                let w = toks.next().transpose()?.ok_or(ParseError::BadLine {
                    line: lineno,
                    reason: "missing edge weight".into(),
                })?;
                weight(w, "edge")?
            } else {
                1
            };
            // Each undirected edge appears on both endpoint lines; add once.
            if v < u {
                b.add_edge(v, u, w);
                seen_edges += 1;
            }
        }
        v += 1;
    }
    if (v as usize) != n {
        return Err(ParseError::Inconsistent(format!(
            "{v} vertex lines, header says {n}"
        )));
    }
    if seen_edges != m {
        return Err(ParseError::Inconsistent(format!(
            "{seen_edges} edges parsed, header says {m}"
        )));
    }
    let g = b.build();
    g.validate().map_err(ParseError::Inconsistent)?;
    Ok(g)
}

/// Serialize a partition vector, one id per line (`.part` convention).
pub fn write_partition(p: &Partitioning) -> String {
    let mut out = String::with_capacity(p.num_vertices() * 3);
    for v in 0..p.num_vertices() {
        let _ = writeln!(out, "{}", p.part_of(v as NodeId));
    }
    out
}

/// Parse a partition file for `graph` with `num_parts` partitions.
pub fn read_partition(
    text: &str,
    graph: &CsrGraph,
    num_parts: usize,
) -> Result<Partitioning, ParseError> {
    let mut assign: Vec<PartId> = Vec::with_capacity(graph.num_vertices());
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let p: PartId = t.parse().map_err(|_| ParseError::BadLine {
            line: i + 1,
            reason: format!("bad partition id {t:?}"),
        })?;
        if p as usize >= num_parts {
            return Err(ParseError::BadLine {
                line: i + 1,
                reason: format!("partition {p} out of range 0..{num_parts}"),
            });
        }
        assign.push(p);
    }
    if assign.len() != graph.num_vertices() {
        return Err(ParseError::Inconsistent(format!(
            "{} partition entries for {} vertices",
            assign.len(),
            graph.num_vertices()
        )));
    }
    Ok(Partitioning::from_assignment(graph, num_parts, assign))
}

// ---------------------------------------------------------------------
// Binary codecs (magic-tagged, versioned, little-endian).
// ---------------------------------------------------------------------

const GRAPH_MAGIC: [u8; 4] = *b"IGPG";
const DELTA_MAGIC: [u8; 4] = *b"IGPD";
const PART_MAGIC: [u8; 4] = *b"IGPP";
const BIN_VERSION: u32 = 1;

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Bounds-checked little-endian reader over a byte slice.
struct BinReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BinReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ParseError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                ParseError::Corrupt(format!(
                    "truncated: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.bytes.len() - self.pos
                ))
            })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, ParseError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ParseError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32` length prefix, sanity-bounded so a corrupt length cannot
    /// trigger a huge allocation before the actual reads fail.
    fn len(&mut self, what: &str) -> Result<usize, ParseError> {
        let n = self.u32()? as usize;
        let cap = self.bytes.len().saturating_sub(self.pos);
        // Every encoded element is ≥ 1 byte, so a valid count never
        // exceeds the remaining payload size.
        if n > cap {
            return Err(ParseError::Corrupt(format!(
                "{what} count {n} exceeds remaining {cap} bytes"
            )));
        }
        Ok(n)
    }

    fn header(&mut self, magic: [u8; 4], what: &str) -> Result<(), ParseError> {
        if self.take(4)? != magic {
            return Err(ParseError::Corrupt(format!("not a {what} payload")));
        }
        let ver = self.u32()?;
        if ver != BIN_VERSION {
            return Err(ParseError::Corrupt(format!(
                "unsupported {what} version {ver}"
            )));
        }
        Ok(())
    }

    fn finish(&self, what: &str) -> Result<(), ParseError> {
        if self.pos != self.bytes.len() {
            return Err(ParseError::Corrupt(format!(
                "{} trailing bytes after {what}",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Serialize a graph to the compact binary snapshot format.
pub fn write_graph_bin(g: &CsrGraph) -> Vec<u8> {
    let mut out = Vec::new();
    write_graph_bin_into(&mut out, g);
    out
}

/// [`write_graph_bin`], appended to `out` (a snapshot is one buffer).
pub fn write_graph_bin_into(out: &mut Vec<u8>, g: &CsrGraph) {
    out.reserve(16 + g.num_vertices() * 8 + g.num_edges() * 16);
    out.extend_from_slice(&GRAPH_MAGIC);
    put_u32(out, BIN_VERSION);
    put_u32(out, g.num_vertices() as u32);
    put_u64(out, g.num_edges() as u64);
    for &w in g.vertex_weights() {
        put_u64(out, w);
    }
    for (u, v, w) in g.undirected_edges() {
        put_u32(out, u);
        put_u32(out, v);
        put_u64(out, w);
    }
}

/// Parse a [`write_graph_bin`] payload.
pub fn read_graph_bin(bytes: &[u8]) -> Result<CsrGraph, ParseError> {
    let mut r = BinReader::new(bytes);
    r.header(GRAPH_MAGIC, "graph")?;
    let n = r.u32()? as usize;
    let m = r.u64()? as usize;
    if n.saturating_mul(8) > bytes.len() || m.saturating_mul(16) > bytes.len() {
        return Err(ParseError::Corrupt(format!(
            "graph header n={n} m={m} larger than payload"
        )));
    }
    // The weight bound `read_metis` and `GraphDelta::validate` enforce:
    // heavier weights overflow a step's sums.
    let weight = |r: &mut BinReader, what: &str| {
        let w = r.u64()?;
        if w > MAX_WEIGHT {
            return Err(ParseError::Corrupt(format!(
                "{what} weight {w} exceeds {MAX_WEIGHT}"
            )));
        }
        Ok(w)
    };
    let mut b = CsrBuilder::with_edge_capacity(n, m);
    for v in 0..n {
        b.set_vertex_weight(v as NodeId, weight(&mut r, "vertex")?);
    }
    for _ in 0..m {
        let (u, v) = (r.u32()?, r.u32()?);
        let w = weight(&mut r, "edge")?;
        if (u as usize) >= n || (v as usize) >= n || u == v {
            return Err(ParseError::Corrupt(format!("bad edge {{{u},{v}}} (n={n})")));
        }
        b.add_edge(u, v, w);
    }
    r.finish("graph")?;
    let g = b.build();
    g.validate().map_err(ParseError::Inconsistent)?;
    Ok(g)
}

/// Serialize a delta to the compact binary WAL format.
pub fn write_delta_bin(d: &GraphDelta) -> Vec<u8> {
    let mut out = Vec::new();
    write_delta_bin_into(&mut out, d);
    out
}

/// [`write_delta_bin`], appended to `out`.
pub fn write_delta_bin_into(out: &mut Vec<u8>, d: &GraphDelta) {
    out.reserve(
        24 + d.add_vertices.len() * 8
            + d.remove_vertices.len() * 4
            + d.add_edges.len() * 16
            + d.remove_edges.len() * 8,
    );
    out.extend_from_slice(&DELTA_MAGIC);
    put_u32(out, BIN_VERSION);
    put_u32(out, d.add_vertices.len() as u32);
    for &w in &d.add_vertices {
        put_u64(out, w);
    }
    put_u32(out, d.remove_vertices.len() as u32);
    for &v in &d.remove_vertices {
        put_u32(out, v);
    }
    put_u32(out, d.add_edges.len() as u32);
    for &(u, v, w) in &d.add_edges {
        put_u32(out, u);
        put_u32(out, v);
        put_u64(out, w);
    }
    put_u32(out, d.remove_edges.len() as u32);
    for &(u, v) in &d.remove_edges {
        put_u32(out, u);
        put_u32(out, v);
    }
}

/// Parse a [`write_delta_bin`] payload. Structural validity against a
/// concrete graph is *not* checked here — callers revalidate with
/// [`GraphDelta::validate`] / the coalescer exactly as they do for
/// wire-received deltas.
pub fn read_delta_bin(bytes: &[u8]) -> Result<GraphDelta, ParseError> {
    let mut r = BinReader::new(bytes);
    r.header(DELTA_MAGIC, "delta")?;
    let mut d = GraphDelta::default();
    let nav = r.len("add_vertices")?;
    for _ in 0..nav {
        d.add_vertices.push(r.u64()?);
    }
    let nrv = r.len("remove_vertices")?;
    for _ in 0..nrv {
        d.remove_vertices.push(r.u32()?);
    }
    let nae = r.len("add_edges")?;
    for _ in 0..nae {
        let (u, v) = (r.u32()?, r.u32()?);
        d.add_edges.push((u, v, r.u64()?));
    }
    let nre = r.len("remove_edges")?;
    for _ in 0..nre {
        let u = r.u32()?;
        d.remove_edges.push((u, r.u32()?));
    }
    r.finish("delta")?;
    Ok(d)
}

/// Serialize a partitioning to the compact binary snapshot format.
pub fn write_partition_bin(p: &Partitioning) -> Vec<u8> {
    let mut out = Vec::new();
    write_partition_bin_into(&mut out, p);
    out
}

/// [`write_partition_bin`], appended to `out`.
pub fn write_partition_bin_into(out: &mut Vec<u8>, p: &Partitioning) {
    out.reserve(16 + p.num_vertices() * 4);
    out.extend_from_slice(&PART_MAGIC);
    put_u32(out, BIN_VERSION);
    put_u32(out, p.num_parts() as u32);
    put_u32(out, p.num_vertices() as u32);
    for &q in p.assignment() {
        put_u32(out, q);
    }
}

/// Parse a [`write_partition_bin`] payload for `graph`, checking the
/// same consistency conditions as [`read_partition`].
pub fn read_partition_bin(bytes: &[u8], graph: &CsrGraph) -> Result<Partitioning, ParseError> {
    let mut r = BinReader::new(bytes);
    r.header(PART_MAGIC, "partition")?;
    let parts = r.u32()? as usize;
    let n = r.u32()? as usize;
    if n != graph.num_vertices() {
        return Err(ParseError::Inconsistent(format!(
            "{n} partition entries for {} vertices",
            graph.num_vertices()
        )));
    }
    let mut assign: Vec<PartId> = Vec::with_capacity(n);
    for _ in 0..n {
        let p = r.u32()?;
        if (p as usize) >= parts {
            return Err(ParseError::Corrupt(format!(
                "partition {p} out of range 0..{parts}"
            )));
        }
        assign.push(p);
    }
    r.finish("partition")?;
    Ok(Partitioning::from_assignment(graph, parts, assign))
}

// ---------------------------------------------------------------------
// Delta text grammar (`av=… rv=… ae=… re=…`), shared with the wire.
// ---------------------------------------------------------------------

/// Encode a delta as whitespace-separated `key=value` fields. Empty
/// lists are omitted; an empty delta encodes to an empty string.
pub fn write_delta_fields(d: &GraphDelta) -> String {
    fn join<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
        items.iter().map(f).collect::<Vec<_>>().join(",")
    }
    let mut fields = Vec::new();
    if !d.add_vertices.is_empty() {
        fields.push(format!("av={}", join(&d.add_vertices, |w| w.to_string())));
    }
    if !d.remove_vertices.is_empty() {
        fields.push(format!(
            "rv={}",
            join(&d.remove_vertices, |v| v.to_string())
        ));
    }
    if !d.add_edges.is_empty() {
        fields.push(format!(
            "ae={}",
            join(&d.add_edges, |&(u, v, w)| format!("{u}:{v}:{w}"))
        ));
    }
    if !d.remove_edges.is_empty() {
        fields.push(format!(
            "re={}",
            join(&d.remove_edges, |&(u, v)| format!("{u}:{v}"))
        ));
    }
    fields.join(" ")
}

/// Parse [`write_delta_fields`] output (inverse).
pub fn read_delta_fields(fields: &[&str]) -> Result<GraphDelta, ParseError> {
    let bad = |msg: String| ParseError::BadField(msg);
    let mut d = GraphDelta::default();
    for field in fields {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| bad(format!("expected key=value, got `{field}`")))?;
        match key {
            "av" => {
                for w in value.split(',') {
                    d.add_vertices.push(
                        w.parse::<Weight>()
                            .map_err(|e| bad(format!("bad av: {e}")))?,
                    );
                }
            }
            "rv" => {
                for v in value.split(',') {
                    d.remove_vertices.push(
                        v.parse::<NodeId>()
                            .map_err(|e| bad(format!("bad rv: {e}")))?,
                    );
                }
            }
            "ae" => {
                for e in value.split(',') {
                    let mut it = e.split(':');
                    let (u, v, w) = (it.next(), it.next(), it.next());
                    if it.next().is_some() {
                        return Err(bad(format!("bad ae entry `{e}`")));
                    }
                    match (u, v, w) {
                        (Some(u), Some(v), Some(w)) => d.add_edges.push((
                            u.parse().map_err(|e| bad(format!("bad ae: {e}")))?,
                            v.parse().map_err(|e| bad(format!("bad ae: {e}")))?,
                            w.parse().map_err(|e| bad(format!("bad ae: {e}")))?,
                        )),
                        _ => return Err(bad(format!("bad ae entry `{e}` (want u:v:w)"))),
                    }
                }
            }
            "re" => {
                for e in value.split(',') {
                    match e.split_once(':') {
                        Some((u, v)) if !v.contains(':') => d.remove_edges.push((
                            u.parse().map_err(|e| bad(format!("bad re: {e}")))?,
                            v.parse().map_err(|e| bad(format!("bad re: {e}")))?,
                        )),
                        _ => return Err(bad(format!("bad re entry `{e}` (want u:v)"))),
                    }
                }
            }
            other => return Err(bad(format!("unknown DELTA field `{other}`"))),
        }
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn metis_refuses_weights_above_max() {
        let ring = |vw: Weight, ew: Weight| {
            let mut text = String::from("3 3 011\n");
            for v in 0..3 {
                let (a, b) = ((v + 1) % 3 + 1, (v + 2) % 3 + 1);
                text.push_str(&format!("{vw} {a} {ew} {b} {ew}\n"));
            }
            text
        };
        let g = read_metis(&ring(MAX_WEIGHT, MAX_WEIGHT)).unwrap();
        assert_eq!(g.total_vertex_weight(), 3 * MAX_WEIGHT);
        for (vw, ew) in [(MAX_WEIGHT + 1, 1), (1, MAX_WEIGHT + 1), (u64::MAX / 4, 1)] {
            match read_metis(&ring(vw, ew)) {
                Err(ParseError::BadLine { line: 2, reason }) => {
                    assert!(reason.contains("exceeds"), "{reason}")
                }
                other => panic!("weights ({vw}, {ew}): {other:?}"),
            }
        }
    }

    #[test]
    fn graph_bin_refuses_weights_above_max() {
        let heavy = |vw: Weight, ew: Weight| {
            let mut g = CsrGraph::from_weighted_edges(3, &[(0, 1, 1), (1, 2, ew)]);
            g.set_vertex_weights(vec![1, 1, vw]);
            write_graph_bin(&g)
        };
        let g = read_graph_bin(&heavy(MAX_WEIGHT, MAX_WEIGHT)).unwrap();
        assert_eq!(g.total_vertex_weight(), 2 + MAX_WEIGHT);
        for (vw, ew) in [(MAX_WEIGHT + 1, 1), (1, MAX_WEIGHT + 1), (1, u64::MAX)] {
            match read_graph_bin(&heavy(vw, ew)) {
                Err(ParseError::Corrupt(reason)) => assert!(reason.contains("exceeds"), "{reason}"),
                other => panic!("weights ({vw}, {ew}): {other:?}"),
            }
        }
    }

    #[test]
    fn roundtrip_unweighted() {
        let g = generators::grid(4, 5);
        let text = write_metis(&g);
        let back = read_metis(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn roundtrip_weighted() {
        let mut g = CsrGraph::from_weighted_edges(4, &[(0, 1, 3), (1, 2, 1), (2, 3, 9)]);
        g.set_vertex_weights(vec![2, 1, 1, 5]);
        let text = write_metis(&g);
        assert!(text.starts_with("4 3 011"));
        let back = read_metis(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "% a comment\n3 2\n2\n1 3\n2\n";
        let g = read_metis(text).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn header_edge_count_mismatch_rejected() {
        let text = "3 5\n2\n1 3\n2\n";
        assert!(matches!(read_metis(text), Err(ParseError::Inconsistent(_))));
    }

    #[test]
    fn oversized_headers_are_typed_errors_not_aborts() {
        // Each header once sized an allocation before a line was read:
        // 10¹¹ vertex weights, a `usize::MAX`-length vector…
        for text in ["100000000000 0\n", "18446744073709551615 0\n"] {
            assert!(
                matches!(read_metis(text), Err(ParseError::BadHeader(_))),
                "{text:?}"
            );
        }
        // …and 1.6 PB of edges: the reservation is bounded by the
        // text, so the lines parse and the count check refuses.
        assert!(matches!(
            read_metis("2 100000000000000\n2\n1\n"),
            Err(ParseError::Inconsistent(_))
        ));
    }

    #[test]
    fn neighbor_out_of_range_rejected() {
        let text = "2 1\n2\n7\n";
        assert!(matches!(read_metis(text), Err(ParseError::BadLine { .. })));
    }

    #[test]
    fn partition_roundtrip() {
        let g = generators::cycle(6);
        let p = Partitioning::from_assignment(&g, 3, vec![0, 0, 1, 1, 2, 2]);
        let text = write_partition(&p);
        let back = read_partition(&text, &g, 3).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn partition_out_of_range_rejected() {
        let g = generators::cycle(3);
        assert!(read_partition("0\n1\n5\n", &g, 2).is_err());
    }

    #[test]
    fn graph_bin_roundtrip() {
        let mut g = CsrGraph::from_weighted_edges(5, &[(0, 1, 3), (1, 2, 1), (2, 4, 9), (3, 4, 2)]);
        g.set_vertex_weights(vec![2, 1, 1, 5, 7]);
        let bytes = write_graph_bin(&g);
        assert_eq!(read_graph_bin(&bytes).unwrap(), g);
        // Empty graph survives too.
        let empty = CsrGraph::from_edges(1, &[]);
        assert_eq!(read_graph_bin(&write_graph_bin(&empty)).unwrap(), empty);
    }

    #[test]
    fn delta_bin_roundtrip() {
        let d = GraphDelta {
            add_vertices: vec![1, 7],
            remove_vertices: vec![3, 9],
            add_edges: vec![(0, 20, 2), (20, 21, 1)],
            remove_edges: vec![(4, 5)],
        };
        assert_eq!(read_delta_bin(&write_delta_bin(&d)).unwrap(), d);
        let empty = GraphDelta::default();
        assert_eq!(read_delta_bin(&write_delta_bin(&empty)).unwrap(), empty);
    }

    #[test]
    fn partition_bin_roundtrip() {
        let g = generators::cycle(6);
        let p = Partitioning::from_assignment(&g, 3, vec![0, 0, 1, 1, 2, 2]);
        let bytes = write_partition_bin(&p);
        assert_eq!(read_partition_bin(&bytes, &g).unwrap(), p);
    }

    #[test]
    fn bin_corruptions_are_typed_errors_not_panics() {
        let g = generators::grid(3, 3);
        let graph_bytes = write_graph_bin(&g);
        let delta_bytes = write_delta_bin(&GraphDelta {
            add_vertices: vec![1],
            add_edges: vec![(0, 9, 1)],
            ..Default::default()
        });
        let part_bytes = write_partition_bin(&Partitioning::round_robin(&g, 2));
        for bytes in [&graph_bytes, &delta_bytes, &part_bytes] {
            // Wrong magic.
            let mut bad = (*bytes).clone();
            bad[0] ^= 0xff;
            // Truncations at every prefix length.
            for cut in 0..bytes.len() {
                let r1 = read_graph_bin(&bytes[..cut]);
                let r2 = read_delta_bin(&bytes[..cut]);
                let r3 = read_partition_bin(&bytes[..cut], &g);
                // At most one of the three readers may accept a prefix
                // (its own full payload); truncation must error.
                if cut < bytes.len() {
                    assert!(r1.is_err() && r2.is_err() && r3.is_err(), "cut={cut}");
                }
            }
            assert!(read_graph_bin(&bad).is_err());
            assert!(read_delta_bin(&bad).is_err());
            assert!(read_partition_bin(&bad, &g).is_err());
            // Trailing garbage.
            let mut long = (*bytes).clone();
            long.push(0);
            assert!(read_graph_bin(&long).is_err());
            assert!(read_delta_bin(&long).is_err());
            assert!(read_partition_bin(&long, &g).is_err());
        }
        // A length field pointing past the payload is caught before any
        // allocation blow-up.
        let mut huge = write_delta_bin(&GraphDelta::default());
        huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_delta_bin(&huge), Err(ParseError::Corrupt(_))));
    }

    #[test]
    fn delta_fields_text_roundtrip() {
        let d = GraphDelta {
            add_vertices: vec![1, 7],
            remove_vertices: vec![3, 9],
            add_edges: vec![(0, 20, 2), (20, 21, 1)],
            remove_edges: vec![(4, 5)],
        };
        let enc = write_delta_fields(&d);
        let tokens: Vec<&str> = enc.split_ascii_whitespace().collect();
        assert_eq!(read_delta_fields(&tokens).unwrap(), d);
        assert_eq!(write_delta_fields(&GraphDelta::default()), "");
        assert_eq!(read_delta_fields(&[]).unwrap(), GraphDelta::default());
        for bad in ["av=x", "ae=1:2", "ae=1:2:3:4", "re=1", "zz=1", "noeq"] {
            assert!(read_delta_fields(&[bad]).is_err(), "{bad}");
        }
    }
}
