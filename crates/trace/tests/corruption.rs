//! Corruption and edge-case behavior of the `.qtr` wire format: every damaged
//! input must surface as a loud, typed [`TraceError`] — never a panic, never a
//! silent skip or a silently short read.

use leaky_sim::{policy::NeverLrc, NoiseParams, Simulator};
use qec_codes::Code;
use qec_trace::{
    code_fingerprint, Corpus, ShotTrace, TraceError, TraceHeader, TraceReader, TraceWriter,
    TRACE_SCHEMA_VERSION,
};

fn sample_header(code: &Code, shots: usize, rounds: usize) -> TraceHeader {
    TraceHeader {
        schema_version: TRACE_SCHEMA_VERSION,
        generator: "corruption test".to_string(),
        git_describe: "unknown".to_string(),
        code_name: code.name().to_string(),
        code_fingerprint: code_fingerprint(code),
        num_data: code.num_data(),
        num_checks: code.num_checks(),
        cnot_layers: 4,
        rounds,
        shots,
        seed: 3,
        policy: "no-lrc".to_string(),
        leakage_sampling: false,
        noise: NoiseParams::default(),
    }
}

fn sample_trace_bytes(shots: usize, rounds: usize) -> Vec<u8> {
    let code = Code::rotated_surface(3);
    let header = sample_header(&code, shots, rounds);
    let mut sim = Simulator::new(&code, header.noise, 0);
    let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
    for shot in 0..shots as u64 {
        sim.reseed_for_shot(header.seed, shot, header.leakage_sampling);
        writer.write_shot(&ShotTrace::record(shot, &mut sim, &mut NeverLrc, rounds)).unwrap();
    }
    writer.finish().unwrap()
}

fn read_all(bytes: &[u8]) -> Result<usize, TraceError> {
    let mut reader = TraceReader::new(bytes)?;
    Ok(reader.read_all()?.len())
}

#[test]
fn intact_bytes_read_back_every_shot() {
    let bytes = sample_trace_bytes(3, 4);
    assert_eq!(read_all(&bytes).unwrap(), 3);
}

/// Truncation anywhere in the stream — mid-header, mid-shot, mid-CRC, or just
/// before the end block — errors instead of panicking or ending silently.
#[test]
fn truncation_at_every_prefix_length_is_a_loud_error() {
    let bytes = sample_trace_bytes(2, 3);
    for len in 0..bytes.len() {
        let err = match TraceReader::new(&bytes[..len]) {
            Err(e) => e,
            Ok(mut reader) => {
                match (|| -> Result<(), TraceError> {
                    while reader.next_shot()?.is_some() {}
                    Ok(())
                })() {
                    Err(e) => e,
                    Ok(()) => panic!("prefix of {len} bytes must not parse as a complete trace"),
                }
            }
        };
        // Typed error, never a panic; truncations surface as I/O or Corrupt.
        assert!(
            matches!(err, TraceError::Io(_) | TraceError::Corrupt(_)),
            "unexpected error at prefix {len}: {err}"
        );
    }
}

/// Flipping any single byte of the stream is detected: the per-block CRC (or a
/// structural check on the way to it) refuses the damaged block.
#[test]
fn a_flipped_byte_in_any_block_is_detected() {
    let bytes = sample_trace_bytes(2, 3);
    // Exhaustively flip one bit in every byte: magic, header, shots, CRCs and
    // the end block are all covered.
    let mut undetected = Vec::new();
    for position in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[position] ^= 0x01;
        if read_all(&damaged).is_ok() {
            undetected.push(position);
        }
    }
    assert!(
        undetected.is_empty(),
        "byte flips at {undetected:?} were not detected by magic/CRC/structural checks"
    );
}

/// Flipping a byte of a stored CRC trailer itself is a CRC mismatch.
#[test]
fn a_flipped_crc_trailer_byte_reports_a_crc_mismatch() {
    let bytes = sample_trace_bytes(1, 3);
    // The trace ends with the end block: ... payload | CRC (last 4 bytes).
    let mut damaged = bytes.clone();
    let last = damaged.len() - 1;
    damaged[last] ^= 0x01;
    let mut reader = TraceReader::new(damaged.as_slice()).unwrap();
    let err = loop {
        match reader.next_shot() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("damaged CRC trailer must not verify"),
            Err(e) => break e,
        }
    };
    assert!(err.to_string().contains("CRC mismatch"), "{err}");
}

/// The error of opening a trace whose header carries `noise` under valid CRCs.
fn header_noise_error(noise: NoiseParams) -> TraceError {
    let code = Code::rotated_surface(3);
    let header = TraceHeader { noise, ..sample_header(&code, 0, 3) };
    let bytes = TraceWriter::new(Vec::new(), &header).unwrap().finish().unwrap();
    match TraceReader::new(bytes.as_slice()) {
        Err(e) => e,
        Ok(_) => panic!("a header with {noise:?} must not decode"),
    }
}

/// The header's noise model calibrates every policy replayed or served from the
/// shard, so a model `NoiseParams::validate` rejects is corrupt, CRCs or not.
#[test]
fn a_header_noise_probability_above_one_is_corrupt() {
    let err = header_noise_error(NoiseParams { p: 2.0, ..NoiseParams::default() });
    assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
    assert_eq!(err.to_string(), "corrupt trace: noise model: p = 2 is not a probability");
}

#[test]
fn a_nan_header_noise_probability_is_corrupt() {
    let err = header_noise_error(NoiseParams { p: f64::NAN, ..NoiseParams::default() });
    assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
    assert_eq!(err.to_string(), "corrupt trace: noise model: p = NaN is not a probability");
}

#[test]
fn a_negative_header_lrc_time_is_corrupt() {
    let err = header_noise_error(NoiseParams { lrc_time_ns: -1.0, ..NoiseParams::default() });
    assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
    assert_eq!(
        err.to_string(),
        "corrupt trace: noise model: lrc_time_ns = -1 must be non-negative"
    );
}

/// A directory without a manifest is not a corpus: read-only consumers fail
/// loudly instead of verifying emptiness vacuously.
#[test]
fn opening_a_missing_corpus_is_an_error() {
    let dir = std::env::temp_dir().join(format!("qtr-no-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let err = Corpus::open_existing(&dir).unwrap_err();
    assert!(err.to_string().contains("not a corpus"), "{err}");
}
