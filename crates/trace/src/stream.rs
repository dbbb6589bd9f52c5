//! Streaming `.qtr` writer and reader over `std::io::{Write, Read}`.
//!
//! Both sides work block-at-a-time: the writer buffers at most one encoded
//! shot, the reader decodes one shot per call, so corpus recording and replay
//! run in flat memory regardless of shot count.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::format::{ShotTrace, TraceHeader, BLOCK_END, BLOCK_HEADER, BLOCK_SHOT, TRACE_MAGIC};
use crate::wire::{read_block, write_block, Decoder, Encoder, TraceError, MAX_BLOCK_LEN};

/// Streaming `.qtr` writer: magic + header up front, one block per shot, end
/// block on [`TraceWriter::finish`].
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    inner: W,
    shots_written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the magic and header block and returns the writer.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn new(mut inner: W, header: &TraceHeader) -> Result<Self, TraceError> {
        inner.write_all(&TRACE_MAGIC)?;
        write_block(&mut inner, BLOCK_HEADER, &header.encode())?;
        Ok(TraceWriter { inner, shots_written: 0 })
    }

    /// Appends one shot block. Shots must arrive in shot order — the writer
    /// enforces that `shot.shot` equals the number of shots already written,
    /// which is what makes trace bytes independent of recording thread count.
    ///
    /// # Errors
    /// Fails on out-of-order shots or I/O failures.
    pub fn write_shot(&mut self, shot: &ShotTrace) -> Result<(), TraceError> {
        if shot.shot != self.shots_written {
            return Err(TraceError::corrupt(format!(
                "shot {} written out of order (expected {})",
                shot.shot, self.shots_written
            )));
        }
        write_block(&mut self.inner, BLOCK_SHOT, &shot.encode())?;
        self.shots_written += 1;
        Ok(())
    }

    /// Writes the end block (shot count) and returns the underlying writer.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn finish(mut self) -> Result<W, TraceError> {
        let mut payload = Encoder::new();
        payload.put_varint(self.shots_written);
        write_block(&mut self.inner, BLOCK_END, &payload.into_bytes())?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streaming `.qtr` reader: validates the magic and header eagerly, then hands
/// out one [`ShotTrace`] per [`TraceReader::next_shot`] call.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    inner: R,
    header: TraceHeader,
    shots_read: u64,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the magic and header block.
    ///
    /// # Errors
    /// Fails on a bad magic, a corrupt header block, or I/O failures.
    pub fn new(mut inner: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 4];
        inner.read_exact(&mut magic)?;
        if magic != TRACE_MAGIC {
            return Err(TraceError::corrupt(format!("bad magic {magic:02x?}")));
        }
        let (tag, payload) = read_block(&mut inner, MAX_BLOCK_LEN)?;
        if tag != BLOCK_HEADER {
            return Err(TraceError::corrupt(format!("expected header block, got tag {tag:#04x}")));
        }
        let header = TraceHeader::decode(&payload)?;
        Ok(TraceReader { inner, header, shots_read: 0, done: false })
    }

    /// The trace header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Reads the next shot, or `None` after the end block. The end block's
    /// count is cross-checked against the shots actually read, and shots must
    /// appear in order. A block longer than any shot the header's sizes can
    /// encode ([`TraceHeader::max_shot_block_len`]) is refused before its
    /// payload is read.
    ///
    /// # Errors
    /// Fails on an oversized block, CRC mismatches, unknown tags, out-of-order
    /// shots, a wrong end count, or I/O failures.
    pub fn next_shot(&mut self) -> Result<Option<ShotTrace>, TraceError> {
        if self.done {
            return Ok(None);
        }
        let (tag, payload) = read_block(&mut self.inner, self.header.max_shot_block_len())?;
        match tag {
            BLOCK_SHOT => {
                let shot = ShotTrace::decode(&payload, &self.header)?;
                if shot.shot != self.shots_read {
                    return Err(TraceError::corrupt(format!(
                        "shot {} out of order (expected {})",
                        shot.shot, self.shots_read
                    )));
                }
                self.shots_read += 1;
                Ok(Some(shot))
            }
            BLOCK_END => {
                let mut dec = Decoder::new(&payload);
                let count = dec.take_varint()?;
                dec.expect_finished()?;
                if count != self.shots_read {
                    return Err(TraceError::corrupt(format!(
                        "end block says {count} shots, read {}",
                        self.shots_read
                    )));
                }
                self.done = true;
                Ok(None)
            }
            other => Err(TraceError::corrupt(format!("unknown block tag {other:#04x}"))),
        }
    }

    /// Reads every remaining shot into memory.
    ///
    /// # Errors
    /// Propagates the first [`TraceReader::next_shot`] failure.
    pub fn read_all(&mut self) -> Result<Vec<ShotTrace>, TraceError> {
        let mut shots = Vec::new();
        while let Some(shot) = self.next_shot()? {
            shots.push(shot);
        }
        Ok(shots)
    }
}

/// Writes a complete trace file (header + all shots + end block) to `path`.
///
/// # Errors
/// Propagates encoding and I/O failures; on failure a partial file may remain.
pub fn write_trace_file(
    path: &Path,
    header: &TraceHeader,
    shots: &[ShotTrace],
) -> Result<(), TraceError> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let file = File::create(path)?;
    let mut writer = TraceWriter::new(BufWriter::new(file), header)?;
    for shot in shots {
        writer.write_shot(shot)?;
    }
    writer.finish()?;
    Ok(())
}

/// Checks that `new` describes the same recorded cell as `old` with more (or
/// equal) shots: every identity field — code, noise model, rounds, seed,
/// policy, schema — must match bit-for-bit; only `shots` (which must grow),
/// `generator` and `git_describe` (re-stamped by the extending tool) may
/// differ. This is the gate that makes append-to-cell safe: under the
/// `seed + shot` contract, shots `old.shots..new.shots` of the extended cell
/// are exactly the shots a from-scratch `new.shots`-shot recording would have
/// produced, so extension cannot change a byte of any replay.
///
/// # Errors
/// Returns [`TraceError::Corrupt`] naming the first mismatched field.
pub fn check_extends(old: &TraceHeader, new: &TraceHeader) -> Result<(), TraceError> {
    let mismatch = |field: &str, old: &dyn std::fmt::Debug, new: &dyn std::fmt::Debug| {
        Err(TraceError::corrupt(format!(
            "cannot extend trace: {field} changed ({old:?} -> {new:?})"
        )))
    };
    if old.schema_version != new.schema_version {
        return mismatch("schema_version", &old.schema_version, &new.schema_version);
    }
    if old.code_name != new.code_name {
        return mismatch("code_name", &old.code_name, &new.code_name);
    }
    if old.code_fingerprint != new.code_fingerprint {
        return mismatch("code_fingerprint", &old.code_fingerprint, &new.code_fingerprint);
    }
    if old.num_data != new.num_data {
        return mismatch("num_data", &old.num_data, &new.num_data);
    }
    if old.num_checks != new.num_checks {
        return mismatch("num_checks", &old.num_checks, &new.num_checks);
    }
    if old.cnot_layers != new.cnot_layers {
        return mismatch("cnot_layers", &old.cnot_layers, &new.cnot_layers);
    }
    if old.rounds != new.rounds {
        return mismatch("rounds", &old.rounds, &new.rounds);
    }
    if old.seed != new.seed {
        return mismatch("seed", &old.seed, &new.seed);
    }
    if old.policy != new.policy {
        return mismatch("policy", &old.policy, &new.policy);
    }
    if old.leakage_sampling != new.leakage_sampling {
        return mismatch("leakage_sampling", &old.leakage_sampling, &new.leakage_sampling);
    }
    if old.noise != new.noise {
        return mismatch("noise", &old.noise, &new.noise);
    }
    if new.shots < old.shots {
        return Err(TraceError::corrupt(format!(
            "cannot extend trace: shots shrank ({} -> {})",
            old.shots, new.shots
        )));
    }
    Ok(())
}

/// Reads a complete trace file into memory.
///
/// # Errors
/// Fails on any structural violation (see [`TraceReader`]) or I/O failure.
pub fn read_trace_file(path: &Path) -> Result<(TraceHeader, Vec<ShotTrace>), TraceError> {
    let mut reader = open_trace_file(path)?;
    let shots = reader.read_all()?;
    Ok((reader.header().clone(), shots))
}

/// Opens a trace file for **lazy**, shot-at-a-time reading: the magic and
/// header are validated eagerly, shot blocks are decoded only as
/// [`TraceReader::next_shot`] is called. This is what lets consumers that hold
/// many shards (the `qec-serve` daemon, corpus tooling) decide per shard
/// whether to pay for the shot payload at all.
///
/// # Errors
/// Fails on a bad magic, a corrupt header block, or I/O failure.
pub fn open_trace_file(path: &Path) -> Result<TraceReader<BufReader<File>>, TraceError> {
    let file = File::open(path)?;
    TraceReader::new(BufReader::new(file))
}

/// Reads **only the header** of a trace file — provenance, noise model and
/// shot/round counts without touching a single shot block. Corpus `stat`-style
/// queries use this to cross-check a manifest entry against its shard at
/// `O(header)` cost instead of `O(shots)`.
///
/// # Errors
/// Fails on a bad magic, a corrupt header block, or I/O failure.
pub fn read_trace_header(path: &Path) -> Result<TraceHeader, TraceError> {
    Ok(open_trace_file(path)?.header().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{code_fingerprint, TRACE_SCHEMA_VERSION};
    use leaky_sim::{policy::NeverLrc, NoiseParams, Simulator};
    use qec_codes::Code;

    fn sample(shots: usize, rounds: usize) -> (TraceHeader, Vec<ShotTrace>) {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::default();
        let header = TraceHeader {
            schema_version: TRACE_SCHEMA_VERSION,
            generator: "stream test".to_string(),
            git_describe: "unknown".to_string(),
            code_name: code.name().to_string(),
            code_fingerprint: code_fingerprint(&code),
            num_data: code.num_data(),
            num_checks: code.num_checks(),
            cnot_layers: 4,
            rounds,
            shots,
            seed: 5,
            policy: "no-lrc".to_string(),
            leakage_sampling: false,
            noise,
        };
        let mut sim = Simulator::new(&code, noise, 5);
        let traces = (0..shots as u64)
            .map(|shot| {
                sim.reseed(5 + shot);
                ShotTrace::record(shot, &mut sim, &mut NeverLrc, rounds)
            })
            .collect();
        (header, traces)
    }

    #[test]
    fn stream_round_trips_through_a_byte_buffer() {
        let (header, shots) = sample(3, 5);
        let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
        for shot in &shots {
            writer.write_shot(shot).unwrap();
        }
        let bytes = writer.finish().unwrap();
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.header(), &header);
        assert_eq!(reader.read_all().unwrap(), shots);
        // After the end block the reader stays exhausted.
        assert!(reader.next_shot().unwrap().is_none());
    }

    #[test]
    fn out_of_order_shots_are_rejected_on_write() {
        let (header, shots) = sample(2, 3);
        let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
        let err = writer.write_shot(&shots[1]).unwrap_err();
        assert!(err.to_string().contains("out of order"), "{err}");
    }

    #[test]
    fn file_round_trip_and_corruption_detection() {
        let (header, shots) = sample(2, 4);
        let dir = std::env::temp_dir().join(format!("qtr-stream-{}", std::process::id()));
        let path = dir.join("sample.qtr");
        write_trace_file(&path, &header, &shots).unwrap();
        let (read_header, read_shots) = read_trace_file(&path).unwrap();
        assert_eq!(read_header, header);
        assert_eq!(read_shots, shots);
        // Flip one byte in the middle of the file: reading must fail loudly.
        let mut bytes = std::fs::read(&path).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_trace_file(&path).is_err(), "corrupted file must not parse");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_only_read_never_touches_shot_blocks() {
        let (header, shots) = sample(2, 4);
        let dir = std::env::temp_dir().join(format!("qtr-lazy-{}", std::process::id()));
        let path = dir.join("lazy.qtr");
        write_trace_file(&path, &header, &shots).unwrap();
        // Corrupt the *last* byte (inside the end block): a header-only read
        // must still succeed because it never reads past the header block.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_trace_header(&path).unwrap(), header);
        assert!(read_trace_file(&path).is_err(), "full read must still detect the corruption");
        // Lazy shot-at-a-time reading decodes the intact shots fine.
        let mut reader = open_trace_file(&path).unwrap();
        assert_eq!(reader.next_shot().unwrap().unwrap(), shots[0]);
        assert_eq!(reader.next_shot().unwrap().unwrap(), shots[1]);
        assert!(reader.next_shot().is_err(), "the corrupt end block must error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_extends_rejects_identity_changes_and_shrinking() {
        let (header, _) = sample(2, 4);
        // Identity field changed: refused.
        let wrong_seed = TraceHeader { seed: header.seed + 1, shots: 3, ..header.clone() };
        let err = check_extends(&header, &wrong_seed).unwrap_err();
        assert!(err.to_string().contains("seed changed"), "{err}");
        // Shrinking the cell is refused.
        let shrunk = TraceHeader { shots: 1, ..header.clone() };
        let err = check_extends(&header, &shrunk).unwrap_err();
        assert!(err.to_string().contains("shots shrank"), "{err}");
        // Generator and git may be re-stamped freely, and the cell may grow.
        let restamped = TraceHeader {
            generator: "extend test".to_string(),
            git_describe: "v9-dirty".to_string(),
            shots: 5,
            ..header.clone()
        };
        check_extends(&header, &restamped).unwrap();
        check_extends(&header, &header).unwrap();
    }

    #[test]
    fn missing_end_block_is_detected() {
        let (header, shots) = sample(1, 3);
        let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
        writer.write_shot(&shots[0]).unwrap();
        // Drop the writer without finish(): the byte stream ends after the shot.
        let bytes = writer.inner;
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        assert!(reader.next_shot().unwrap().is_some());
        assert!(reader.next_shot().is_err(), "truncated stream must error, not silently end");
    }
}
