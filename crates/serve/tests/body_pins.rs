//! Byte pins on every served body that carries groups: `/groups`,
//! `/company/{label}`, `/groups_behind_arc`, `/groups/{id}/provenance`
//! and the `POST /ingest` ack over a replayed mutation feed.  Each body
//! is fetched from a live daemon and hashed (FNV-1a, 64 bit); the pinned
//! hashes fix key order, number formatting, label escaping, member order
//! and the explanation text, so any change to how groups are written
//! shows up here even when every count still matches.
//!
//! A second test serves labels that need escaping (quotes, backslashes,
//! control characters, non-ASCII) and checks each served group field by
//! field against the offline [`tpiin_core::GroupRef`].

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use tpiin_datagen::{
    add_random_trading, fig7_registry, generate_mutation_stream, generate_province,
    MutationStreamConfig, ProvinceConfig,
};
use tpiin_fusion::{fuse, Tpiin};
use tpiin_io::json::Json;
use tpiin_serve::{ServeConfig, ServeSnapshot, ServerHandle};

fn request(addr: SocketAddr, raw: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or_default().to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The body of a `GET` that must answer 200.
fn get(addr: SocketAddr, path: &str) -> String {
    let (status, body) = request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"));
    assert_eq!(status, "HTTP/1.1 200 OK", "{path}: {body}");
    body
}

/// The body of a `POST` that must answer 200.
fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, body) = request(addr, &raw);
    assert_eq!(status, "HTTP/1.1 200 OK", "{path}: {body}");
    body
}

/// Percent-encodes a label for a path or query (`+` joins syndicate
/// labels and would decode as a space).
fn encode(label: &str) -> String {
    label
        .bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' => (b as char).to_string(),
            _ => format!("%{b:02X}"),
        })
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Hashes the bodies of `paths` on a daemon bound to `tpiin`.
fn pin_reads(name: &str, tpiin: &Tpiin, paths: &[String]) -> Vec<(String, u64)> {
    let handle = ServerHandle::bind(tpiin.clone(), ServeConfig::default()).expect("bind");
    let pins = paths
        .iter()
        .map(|path| {
            (
                format!("{name} {path}"),
                fnv1a(get(handle.addr(), path).as_bytes()),
            )
        })
        .collect();
    handle.shutdown();
    pins
}

/// The read paths pinned on one network: the full `/groups` body, two
/// pages, the circular listing, three companies, three arcs (the last
/// absent) and two provenance chains.
fn read_paths(tpiin: &Tpiin) -> Vec<String> {
    let snap = ServeSnapshot::build(1, tpiin.clone());
    let groups = &snap.detection().groups;
    let n = groups.len();
    assert!(n >= 3, "the pinned network mines at least three groups");
    let label = |node| encode(tpiin.label(node));
    let (first, middle, last) = (groups.row(0), groups.row(n / 2), groups.row(n - 1));
    let arcs: Vec<_> = snap.detection().suspicious_trading_arcs.iter().collect();
    let (a, b) = (arcs[0], arcs[arcs.len() - 1]);
    vec![
        "/groups".to_string(),
        "/groups?limit=2&offset=1".to_string(),
        format!("/groups?limit=3&offset={}", n / 2),
        "/groups?miner=circular".to_string(),
        format!("/company/{}", label(first.antecedent)),
        format!("/company/{}", label(middle.end)),
        format!("/company/{}", label(last.trading_arc.0)),
        format!("/groups_behind_arc?src={}&dst={}", label(a.0), label(a.1)),
        format!("/groups_behind_arc?src={}&dst={}", label(b.0), label(b.1)),
        // The reversed arc: both ends exist, the trading arc does not.
        format!("/groups_behind_arc?src={}&dst={}", label(a.1), label(a.0)),
        "/groups/0/provenance".to_string(),
        format!("/groups/{}/provenance", n - 1),
    ]
}

#[test]
fn served_group_bodies_match_their_pinned_bytes() {
    let (fig7, _) = fuse(&fig7_registry()).expect("fig7 fuses");
    let mut registry = generate_province(&ProvinceConfig::scaled(0.05));
    add_random_trading(&mut registry, 0.02, 7);
    let (province, _) = fuse(&registry).expect("province fuses");
    let mut pins = pin_reads("fig7", &fig7, &read_paths(&fig7));
    pins.extend(pin_reads("province", &province, &read_paths(&province)));

    // Every ack of a replayed feed that takes all three delta paths,
    // concatenated one per line, then the drained daemon's `/groups`.
    let stream = generate_mutation_stream(&MutationStreamConfig {
        scale: 0.05,
        batches: 8,
        records_per_batch: 16,
        planted_groups: 2,
        ..MutationStreamConfig::default()
    });
    let handle = ServerHandle::bind_with_registry(stream.base.clone(), ServeConfig::default())
        .expect("bind");
    let mut acks = String::new();
    for batch in &stream.batches {
        let body = tpiin_io::mutation_feed::batch_to_json(batch).to_string();
        acks.push_str(&post(handle.addr(), "/ingest", &body));
        acks.push('\n');
    }
    for path in ["trading_append", "company_append", "full_rebuild"] {
        let tag = format!("\"path\":\"{path}\"");
        assert!(acks.contains(&tag), "the feed never takes {path}");
    }
    pins.push(("feed acks".to_string(), fnv1a(acks.as_bytes())));
    let drained = get(handle.addr(), "/groups");
    pins.push(("feed /groups".to_string(), fnv1a(drained.as_bytes())));
    handle.shutdown();

    let rendered: Vec<String> = pins
        .iter()
        .map(|(name, hash)| format!("{name} {hash:016x}"))
        .collect();
    assert_eq!(rendered, PINNED, "served bytes moved; now:\n{rendered:#?}");
}

/// FNV-1a of each body as the `Json`-tree renderer wrote it.
const PINNED: &[&str] = &[
    "fig7 /groups 33e6c5bb3ea616b8",
    "fig7 /groups?limit=2&offset=1 623daf1e8b0ff55e",
    "fig7 /groups?limit=3&offset=1 623daf1e8b0ff55e",
    "fig7 /groups?miner=circular 58d20d609d015c81",
    "fig7 /company/L6%2BLB 4f2fea41a8e862e6",
    "fig7 /company/C6 835feef618cddbb9",
    "fig7 /company/C7 78e674a6dfd4f2b7",
    "fig7 /groups_behind_arc?src=C3&dst=C5 042c19efa02eb231",
    "fig7 /groups_behind_arc?src=C7&dst=C8 61392b8237326839",
    "fig7 /groups_behind_arc?src=C5&dst=C3 8c6f9c5c481e1e11",
    "fig7 /groups/0/provenance b5e2addcf4291da5",
    "fig7 /groups/2/provenance 5f85aebd3b2f038b",
    "province /groups 7c9f9382e51c8f54",
    "province /groups?limit=2&offset=1 f827f16cd8c68937",
    "province /groups?limit=3&offset=169 746f89aaffb5f925",
    "province /groups?miner=circular 781ac7c2ab2ff9f7",
    "province /company/L0 7ef56afd4c7a1496",
    "province /company/C56 2541a936fc8fcb76",
    "province /company/C119 b76ce1c73ad22c9b",
    "province /groups_behind_arc?src=C1&dst=C9 68d3f8bf49b84950",
    "province /groups_behind_arc?src=C119&dst=C105 a4bbc70e9eeceda2",
    "province /groups_behind_arc?src=C9&dst=C1 684f2b4dfb45e6db",
    "province /groups/0/provenance 67d9f0a4bb460728",
    "province /groups/338/provenance 83249728bb8ceb9e",
    "feed acks 2bc72c6a40f9edf5",
    "feed /groups db696ce013e04a40",
];

/// Every group in `body` (a `/groups` listing) agrees field by field with
/// the offline group it stands for.
fn assert_groups_match(body: &str, tpiin: &Tpiin, miner: &str, snap: &ServeSnapshot) {
    let json = Json::parse(body).unwrap_or_else(|err| panic!("{err}: {body}"));
    let Some(Json::Array(served)) = json.get("groups") else {
        panic!("no groups array: {body}");
    };
    let detection = snap.detection_for(miner).expect("miner is served");
    assert_eq!(served.len(), detection.groups.len());
    let labels = |nodes: &mut dyn Iterator<Item = tpiin_graph::NodeId>| {
        Json::Array(nodes.map(|n| Json::string(tpiin.label(n))).collect())
    };
    for (served, group) in served.iter().zip(&detection.groups) {
        let field = |key: &str| served.get(key).unwrap_or_else(|| panic!("no {key}"));
        assert_eq!(field("miner").as_str(), Some(miner));
        assert_eq!(
            field("antecedent").as_str(),
            Some(tpiin.label(group.antecedent))
        );
        assert_eq!(field("end").as_str(), Some(tpiin.label(group.end)));
        let arc = [group.trading_arc.0, group.trading_arc.1];
        assert_eq!(field("trading_arc"), &labels(&mut arc.into_iter()));
        let with_trade = &mut group.trail_with_trade.iter().copied();
        assert_eq!(field("trail_with_trade"), &labels(with_trade));
        assert_eq!(
            field("trail_plain"),
            &labels(&mut group.trail_plain.iter().copied())
        );
        assert_eq!(field("members"), &labels(&mut group.members().into_iter()));
        let explanation = group.explain(tpiin);
        assert_eq!(field("explanation").as_str(), Some(explanation.as_str()));
    }
}

#[test]
fn labels_that_need_escaping_round_trip_through_served_groups() {
    let mut registry = tpiin_model::SourceRegistry::new();
    registry.absorb(&fig7_registry(), "q\"b\\s\nn\tt\u{1}é中-");
    let (tpiin, _) = fuse(&registry).expect("renamed fig7 fuses");
    assert!(tpiin
        .label(tpiin_graph::NodeId::from_index(0))
        .contains('\u{1}'));
    let snap = ServeSnapshot::build(1, tpiin.clone());
    assert!(snap.detection().group_count() > 0);

    let handle = ServerHandle::bind_with_registry(registry, ServeConfig::default()).expect("bind");
    for miner in ["rules", "circular"] {
        let body = get(handle.addr(), &format!("/groups?miner={miner}"));
        assert_groups_match(&body, &tpiin, miner, &snap);
    }
    // The provenance body embeds the same group.
    let body = get(handle.addr(), "/groups/0/provenance");
    let json = Json::parse(&body).unwrap_or_else(|err| panic!("{err}: {body}"));
    let group = snap.detection().groups.row(0);
    let explanation = json.get("group").and_then(|g| g.get("explanation"));
    assert_eq!(
        explanation.and_then(Json::as_str),
        Some(group.explain(&tpiin).as_str())
    );
    handle.shutdown();
}
