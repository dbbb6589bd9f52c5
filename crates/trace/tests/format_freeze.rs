//! Golden-fixture format freeze for the `.qtr` schema.
//!
//! A tiny corpus trace is committed under `tests/fixtures/`; these tests pin
//! its byte length, header fields and per-block CRCs against the layout
//! documented in `docs/TRACE_FORMAT.md`. Any change to the wire format — an
//! added field, a reordered encode, a different bit-packing — fails here
//! loudly, which is the reminder that `TRACE_SCHEMA_VERSION` must be bumped
//! and the docs updated (there is no in-place format evolution; see the
//! versioning rules in the docs). Regenerate the fixture deliberately with:
//!
//! ```text
//! QTR_REGENERATE_FIXTURE=1 cargo test -p qec-trace --test format_freeze
//! ```
//!
//! and update the pinned constants below from the test failure output.

use std::path::PathBuf;

use leaky_sim::{policy::NeverLrc, NoiseParams, Simulator};
use qec_codes::Code;
use qec_trace::wire::{crc32, read_block, MAX_BLOCK_LEN};
use qec_trace::{
    code_fingerprint, ShotTrace, TraceHeader, TraceReader, TraceWriter, TRACE_MAGIC,
    TRACE_SCHEMA_VERSION,
};

/// Committed fixture path, relative to the crate root.
const FIXTURE: &str = "tests/fixtures/golden_surface_d3.qtr";

/// Pinned total byte length of the fixture.
const GOLDEN_LEN: usize = 254;
/// Pinned structural fingerprint of the d=3 rotated surface code.
const GOLDEN_FINGERPRINT: u64 = 0x3F32_FD54_31CA_9582;
/// Pinned CRC-32 of the header block payload.
const GOLDEN_HEADER_CRC: u32 = 0x6A85_A562;
/// Pinned CRC-32s of the two shot block payloads, in shot order.
const GOLDEN_SHOT_CRCS: [u32; 2] = [0x115D_F157, 0x0CDF_8C31];
/// Pinned CRC-32 of the end block payload (varint shot count 2).
const GOLDEN_END_CRC: u32 = 0x3C0C_8EA1;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

/// The fixture's header: every environment-dependent field is pinned to a
/// fixed string so the bytes are reproducible on any machine.
fn golden_header() -> TraceHeader {
    let code = Code::rotated_surface(3);
    TraceHeader {
        schema_version: TRACE_SCHEMA_VERSION,
        generator: "qec-trace format-freeze fixture".to_string(),
        git_describe: "fixture".to_string(),
        code_name: code.name().to_string(),
        code_fingerprint: code_fingerprint(&code),
        num_data: code.num_data(),
        num_checks: code.num_checks(),
        cnot_layers: 4,
        rounds: 4,
        shots: 2,
        seed: 7,
        policy: "no-lrc".to_string(),
        leakage_sampling: true,
        noise: NoiseParams::default(),
    }
}

/// Re-records the fixture deterministically: the `seed + shot` contract with
/// leakage sampling, driven by the stateless no-lrc policy.
fn golden_bytes() -> Vec<u8> {
    let code = Code::rotated_surface(3);
    let header = golden_header();
    let mut sim = Simulator::new(&code, header.noise, 0);
    let mut writer = TraceWriter::new(Vec::new(), &header).expect("in-memory write");
    for shot in 0..header.shots as u64 {
        sim.reseed_for_shot(header.seed, shot, header.leakage_sampling);
        let trace = ShotTrace::record(shot, &mut sim, &mut NeverLrc, header.rounds);
        writer.write_shot(&trace).expect("in-memory write");
    }
    writer.finish().expect("in-memory write")
}

/// The committed fixture must be byte-identical to a fresh recording: this
/// freezes the wire format *and* the simulator/seeding behavior the corpus
/// contract depends on. If this fails after an intentional change, bump
/// `TRACE_SCHEMA_VERSION`, update `docs/TRACE_FORMAT.md`, and regenerate.
#[test]
fn fixture_is_byte_identical_to_a_fresh_recording() {
    let bytes = golden_bytes();
    if std::env::var("QTR_REGENERATE_FIXTURE").is_ok() {
        std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
        std::fs::write(fixture_path(), &bytes).unwrap();
        let mut offset = TRACE_MAGIC.len();
        let mut crcs = Vec::new();
        while offset < bytes.len() {
            let (tag, payload) = read_block(&mut &bytes[offset..], MAX_BLOCK_LEN).unwrap();
            // tag + varint length (< 128 for our payloads ⇒ len < 2^14) + payload + crc
            let len_bytes = if payload.len() < 128 { 1 } else { 2 };
            offset += 1 + len_bytes + payload.len() + 4;
            crcs.push((tag, crc32(&payload)));
        }
        panic!(
            "fixture regenerated ({} bytes); update the pinned constants: len={}, \
             fingerprint={:#018x}, block CRCs {:?}",
            bytes.len(),
            bytes.len(),
            golden_header().code_fingerprint,
            crcs.iter().map(|&(tag, crc)| format!("{tag:#04x}:{crc:#010x}")).collect::<Vec<_>>()
        );
    }
    let committed = std::fs::read(fixture_path())
        .expect("committed golden fixture (regenerate with QTR_REGENERATE_FIXTURE=1)");
    assert_eq!(
        committed, bytes,
        "the committed .qtr fixture no longer matches a fresh recording — either the wire \
         format or the simulator/seeding behavior changed. If intentional: bump \
         TRACE_SCHEMA_VERSION, update docs/TRACE_FORMAT.md, re-record corpora, and \
         regenerate this fixture with QTR_REGENERATE_FIXTURE=1."
    );
}

/// Walks the fixture block-by-block and pins the documented layout: magic,
/// block order (header, shots in order, end), per-block CRCs, header fields
/// and the total byte length.
#[test]
fn fixture_layout_matches_the_documented_format() {
    let bytes = std::fs::read(fixture_path()).expect("committed golden fixture");
    assert_eq!(bytes.len(), GOLDEN_LEN, "total fixture length is pinned");
    assert_eq!(&bytes[..4], &TRACE_MAGIC, "leading magic is QTRC");

    let mut cursor = &bytes[4..];
    // Header block (0x01): CRC and every field pinned.
    let (tag, payload) = read_block(&mut cursor, MAX_BLOCK_LEN).unwrap();
    assert_eq!(tag, 0x01, "first block is the header");
    assert_eq!(crc32(&payload), GOLDEN_HEADER_CRC, "header block CRC is pinned");
    let header = TraceHeader::decode(&payload).unwrap();
    assert_eq!(header.schema_version, 2, "docs promise schema version 2");
    assert_eq!(header.generator, "qec-trace format-freeze fixture");
    assert_eq!(header.git_describe, "fixture");
    assert_eq!(header.code_name, "surface-d3");
    assert_eq!(header.code_fingerprint, GOLDEN_FINGERPRINT, "code fingerprint is pinned");
    assert_eq!(header.num_data, 9);
    assert_eq!(header.num_checks, 8);
    assert_eq!(header.cnot_layers, 4);
    assert_eq!(header.rounds, 4);
    assert_eq!(header.shots, 2);
    assert_eq!(header.seed, 7);
    assert_eq!(header.policy, "no-lrc");
    assert!(header.leakage_sampling);
    assert_eq!(header.noise, NoiseParams::default(), "noise model round-trips bit-exactly");

    // Shot blocks (0x02), in shot order, CRCs pinned.
    for (shot, &golden_crc) in GOLDEN_SHOT_CRCS.iter().enumerate() {
        let (tag, payload) = read_block(&mut cursor, MAX_BLOCK_LEN).unwrap();
        assert_eq!(tag, 0x02, "shot {shot} block tag");
        assert_eq!(crc32(&payload), golden_crc, "shot {shot} block CRC is pinned");
        let decoded = qec_trace::ShotTrace::decode(&payload, &header).unwrap();
        assert_eq!(decoded.shot, shot as u64, "shots are strictly in order");
        assert_eq!(decoded.run.num_rounds(), header.rounds);
        // Leakage sampling seeds exactly one leaked data qubit per shot.
        assert_eq!(decoded.initial_data_leak.count_ones(), 1);
    }

    // End block (0x03): varint shot count 2.
    let (tag, payload) = read_block(&mut cursor, MAX_BLOCK_LEN).unwrap();
    assert_eq!(tag, 0x03, "last block is the end block");
    assert_eq!(payload, vec![2u8], "end payload is the varint shot count");
    assert_eq!(crc32(&payload), GOLDEN_END_CRC, "end block CRC is pinned");
    assert!(cursor.is_empty(), "nothing may follow the end block");
}

/// The fixture decodes through the streaming reader and re-encodes to the
/// identical bytes: decode ∘ encode is the identity on the frozen format.
#[test]
fn fixture_reencodes_byte_identically() {
    let bytes = std::fs::read(fixture_path()).expect("committed golden fixture");
    let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
    let header = reader.header().clone();
    let shots = reader.read_all().unwrap();
    assert_eq!(shots.len(), 2);
    let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
    for shot in &shots {
        writer.write_shot(shot).unwrap();
    }
    assert_eq!(writer.finish().unwrap(), bytes);
}
