//! Columnar replay-log storage — the v4 container's event representation.
//!
//! Container v3 stores each [`ReplayEvent`] as a `binser` record tree.
//! v4 instead stores the log as parallel columns — one array per field —
//! which encode smaller and decode with a handful of bulk varint scans;
//! [`EventColumns::to_events`] then builds the owned events the replayer,
//! the slicer and the relogger read.
//!
//! Column layout, per event `i`:
//!
//! | column      | type  | meaning                                          |
//! |-------------|-------|--------------------------------------------------|
//! | `kinds[i]`  | `u8`  | 0 = `Run`, 1 = `Skip`, 2 = `Inject`              |
//! | `tids[i]`   | `u32` | scheduled thread (`0` for `Inject`)              |
//! | `args[i]`   | `u64` | `Run`: steps · `Skip`: `to_pc` · `Inject`: 0     |
//! | `pair_ends[i]` | `u32` | end offset of this event's pairs             |
//!
//! and two shared pair columns indexed by `pair_ends[i-1]..pair_ends[i]`:
//! `pair_keys` (`Skip`: register number, `Inject`: address) and `pair_vals`
//! (the injected value). The wire encoding is varint-packed (kinds raw,
//! ends delta-coded, values zigzagged), so an events frame is both smaller
//! than the v3 record stream *and* cheaper to decode.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use pinzip::varint;
use serde::{Deserialize, Serialize};

use minivm::{Pc, Reg, Tid};

use crate::pinball::ReplayEvent;

/// Column code for [`ReplayEvent::Run`].
pub const KIND_RUN: u8 = 0;
/// Column code for [`ReplayEvent::Skip`].
pub const KIND_SKIP: u8 = 1;
/// Column code for [`ReplayEvent::Inject`].
pub const KIND_INJECT: u8 = 2;

/// A replay log stored as parallel columns (see module docs for layout).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventColumns {
    /// Event kind codes ([`KIND_RUN`] / [`KIND_SKIP`] / [`KIND_INJECT`]).
    pub kinds: Vec<u8>,
    /// Scheduled thread per event (0 for `Inject`).
    pub tids: Vec<Tid>,
    /// `Run` steps or `Skip` target pc, per event.
    pub args: Vec<u64>,
    /// Exclusive end offset of each event's pair range.
    pub pair_ends: Vec<u32>,
    /// Pair keys: register number (`Skip`) or address (`Inject`).
    pub pair_keys: Vec<u64>,
    /// Pair values.
    pub pair_vals: Vec<i64>,
}

impl EventColumns {
    /// Creates an empty column set.
    pub fn new() -> EventColumns {
        EventColumns::default()
    }

    /// Number of events held.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Builds columns from an owned event slice.
    pub fn from_events(events: &[ReplayEvent]) -> EventColumns {
        let mut c = EventColumns::new();
        c.kinds.reserve(events.len());
        c.tids.reserve(events.len());
        c.args.reserve(events.len());
        c.pair_ends.reserve(events.len());
        for e in events {
            match e {
                ReplayEvent::Run { tid, steps } => {
                    c.kinds.push(KIND_RUN);
                    c.tids.push(*tid);
                    c.args.push(*steps);
                }
                ReplayEvent::Skip { tid, to_pc, regs } => {
                    c.kinds.push(KIND_SKIP);
                    c.tids.push(*tid);
                    c.args.push(u64::from(*to_pc));
                    for (r, v) in regs {
                        c.pair_keys.push(u64::from(r.0));
                        c.pair_vals.push(*v);
                    }
                }
                ReplayEvent::Inject { mems } => {
                    c.kinds.push(KIND_INJECT);
                    c.tids.push(0);
                    c.args.push(0);
                    for (a, v) in mems {
                        c.pair_keys.push(*a);
                        c.pair_vals.push(*v);
                    }
                }
            }
            c.pair_ends.push(c.pair_keys.len() as u32);
        }
        c
    }

    /// Materializes the owned event vector, straight from the columns.
    pub fn to_events(&self) -> Vec<ReplayEvent> {
        let mut start = 0usize;
        (0..self.len())
            .map(|i| {
                let end = self.pair_ends[i] as usize;
                let pairs = self.pair_keys[start..end]
                    .iter()
                    .zip(&self.pair_vals[start..end]);
                start = end;
                match self.kinds[i] {
                    KIND_RUN => ReplayEvent::Run {
                        tid: self.tids[i],
                        steps: self.args[i],
                    },
                    KIND_SKIP => ReplayEvent::Skip {
                        tid: self.tids[i],
                        to_pc: self.args[i] as Pc,
                        regs: pairs.map(|(&r, &v)| (Reg(r as u8), v)).collect(),
                    },
                    _ => ReplayEvent::Inject {
                        mems: pairs.map(|(&a, &v)| (a, v)).collect(),
                    },
                }
            })
            .collect()
    }

    /// Varint-packs the columns into `out` (the v4 `Columnar` frame payload).
    pub fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.len() as u64);
        varint::write_u64(out, self.pair_keys.len() as u64);
        out.extend_from_slice(&self.kinds);
        for t in &self.tids {
            varint::write_u64(out, u64::from(*t));
        }
        for a in &self.args {
            varint::write_u64(out, *a);
        }
        let mut prev = 0u32;
        for e in &self.pair_ends {
            varint::write_u64(out, u64::from(e - prev));
            prev = *e;
        }
        for k in &self.pair_keys {
            varint::write_u64(out, *k);
        }
        for v in &self.pair_vals {
            varint::write_i64(out, *v);
        }
    }

    /// Encodes into a fresh buffer.
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len() * 3 + self.pair_keys.len() * 6 + 10);
        self.encode(&mut out);
        out
    }

    /// Decodes a varint-packed column payload, validating every field:
    /// unknown kind codes, non-monotonic or overflowing offsets, truncated
    /// varints, and trailing garbage all return `Err` — never panic.
    pub fn decode(buf: &[u8]) -> Result<EventColumns, String> {
        use pinzip::column::{
            read_byte_column, read_i64_column, read_prefix_sum_column, read_u32_column,
            read_u64_column, ColumnError,
        };

        let mut pos = 0usize;
        let n = varint::read_u64(buf, &mut pos).ok_or("truncated event count")? as usize;
        let npairs = varint::read_u64(buf, &mut pos).ok_or("truncated pair count")? as usize;
        // Each event costs at least 1 kind byte; each pair at least 2 varint
        // bytes. Reject counts the buffer cannot possibly hold before
        // allocating.
        if n > buf.len().saturating_sub(pos) {
            return Err(format!("event count {n} exceeds payload size"));
        }
        if npairs > buf.len() {
            return Err(format!("pair count {npairs} exceeds payload size"));
        }
        // Bulk column decodes — one pinzip call per column keeps the hot
        // varint loops inside the codec crate.
        let kinds = read_byte_column(buf, &mut pos, n, KIND_INJECT).map_err(|e| match e {
            ColumnError::Truncated { .. } => "truncated kind column".to_string(),
            ColumnError::Range { index, value } => {
                format!("event {index}: unknown kind code {value}")
            }
        })?;
        let tids = read_u32_column(buf, &mut pos, n).map_err(|e| match e {
            ColumnError::Truncated { index } => format!("event {index}: truncated tid column"),
            ColumnError::Range { index, value } => {
                format!("event {index}: tid {value} overflows u32")
            }
        })?;
        let args = read_u64_column(buf, &mut pos, n)
            .map_err(|e| format!("event {}: truncated arg column", truncated_index(e)))?;
        let pair_ends =
            read_prefix_sum_column(buf, &mut pos, n, npairs as u64).map_err(|e| match e {
                ColumnError::Truncated { index } => {
                    format!("event {index}: truncated pair-end column")
                }
                ColumnError::Range { index, .. } => {
                    format!("event {index}: pair offset exceeds pair count {npairs}")
                }
            })?;
        let end = pair_ends.last().copied().unwrap_or(0);
        if u64::from(end) != npairs as u64 {
            return Err(format!(
                "pair columns hold {npairs} entries but events claim {end}"
            ));
        }
        let pair_keys = read_u64_column(buf, &mut pos, npairs)
            .map_err(|e| format!("pair {}: truncated key column", truncated_index(e)))?;
        let pair_vals = read_i64_column(buf, &mut pos, npairs)
            .map_err(|e| format!("pair {}: truncated value column", truncated_index(e)))?;
        if pos != buf.len() {
            return Err(format!("{} trailing bytes after columns", buf.len() - pos));
        }

        // Cross-column semantic checks, one pass: runs carry no pairs,
        // skip targets are pcs, skip pair keys are register numbers.
        let mut prev = 0u32;
        for i in 0..n {
            match kinds[i] {
                KIND_RUN if pair_ends[i] != prev => {
                    let d = pair_ends[i] - prev;
                    return Err(format!("event {i}: run event carries {d} pairs"));
                }
                KIND_SKIP => {
                    if u32::try_from(args[i]).is_err() {
                        return Err(format!(
                            "event {i}: skip target pc {} overflows u32",
                            args[i]
                        ));
                    }
                    for (j, k) in pair_keys[prev as usize..pair_ends[i] as usize]
                        .iter()
                        .enumerate()
                    {
                        if u8::try_from(*k).is_err() {
                            return Err(format!("event {i} pair {j}: register {k} overflows u8"));
                        }
                    }
                }
                _ => {}
            }
            prev = pair_ends[i];
        }

        Ok(EventColumns {
            kinds,
            tids,
            args,
            pair_ends,
            pair_keys,
            pair_vals,
        })
    }
}

/// The element index out of a [`pinzip::ColumnError`] whose only
/// possible variant here is `Truncated`.
fn truncated_index(e: pinzip::ColumnError) -> usize {
    match e {
        pinzip::ColumnError::Truncated { index } | pinzip::ColumnError::Range { index, .. } => {
            index
        }
    }
}

/// Encoded byte size of each column of a columnar events payload — the
/// per-column rows of the CLI's `info container` report for v4 files.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnSizes {
    /// Kind column (1 raw byte per event).
    pub kinds: usize,
    /// Thread-id column (varint).
    pub tids: usize,
    /// Steps / target-pc column (varint).
    pub args: usize,
    /// Pair-end offset column (delta varint).
    pub pair_ends: usize,
    /// Pair key column (varint).
    pub pair_keys: usize,
    /// Pair value column (zigzag varint).
    pub pair_vals: usize,
}

impl ColumnSizes {
    /// Sum over all columns (excludes the two leading count varints).
    pub fn total(&self) -> usize {
        self.kinds + self.tids + self.args + self.pair_ends + self.pair_keys + self.pair_vals
    }

    /// Accumulates another frame's column sizes into this one.
    pub fn add(&mut self, other: &ColumnSizes) {
        self.kinds += other.kinds;
        self.tids += other.tids;
        self.args += other.args;
        self.pair_ends += other.pair_ends;
        self.pair_keys += other.pair_keys;
        self.pair_vals += other.pair_vals;
    }
}

/// Encoded length of `v` as a varint.
fn varint_len(v: u64) -> usize {
    let bits = 64 - v.leading_zeros().min(63) as usize;
    bits.max(1).div_ceil(7)
}

impl EventColumns {
    /// Computes the encoded byte size of each column, as
    /// [`EventColumns::encode`] would write them.
    pub fn column_sizes(&self) -> ColumnSizes {
        let mut prev = 0u32;
        let mut pair_ends = 0usize;
        for e in &self.pair_ends {
            pair_ends += varint_len(u64::from(e - prev));
            prev = *e;
        }
        ColumnSizes {
            kinds: self.kinds.len(),
            tids: self.tids.iter().map(|t| varint_len(u64::from(*t))).sum(),
            args: self.args.iter().map(|a| varint_len(*a)).sum(),
            pair_ends,
            pair_keys: self.pair_keys.iter().map(|k| varint_len(*k)).sum(),
            pair_vals: self
                .pair_vals
                .iter()
                .map(|v| varint_len(pinzip::varint::zigzag(*v)))
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<ReplayEvent> {
        vec![
            ReplayEvent::Run { tid: 0, steps: 10 },
            ReplayEvent::Skip {
                tid: 1,
                to_pc: 99,
                regs: vec![(Reg(2), -5), (Reg(7), 1 << 40)],
            },
            ReplayEvent::Inject {
                mems: vec![(0x1000, 42), (0xffff_ffff_0000, -1)],
            },
            ReplayEvent::Run { tid: 3, steps: 1 },
            ReplayEvent::Skip {
                tid: 0,
                to_pc: 0,
                regs: vec![],
            },
        ]
    }

    #[test]
    fn columns_roundtrip_events() {
        let events = sample_events();
        let c = EventColumns::from_events(&events);
        assert_eq!(c.len(), events.len());
        assert_eq!(c.to_events(), events);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = EventColumns::from_events(&sample_events());
        let bytes = c.encode_to_vec();
        let d = EventColumns::decode(&bytes).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn empty_roundtrip() {
        let c = EventColumns::new();
        let d = EventColumns::decode(&c.encode_to_vec()).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.to_events(), Vec::<ReplayEvent>::new());
    }

    #[test]
    fn decode_rejects_every_truncation() {
        let bytes = EventColumns::from_events(&sample_events()).encode_to_vec();
        for cut in 0..bytes.len() {
            assert!(
                EventColumns::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn decode_never_panics_on_bit_flips() {
        let bytes = EventColumns::from_events(&sample_events()).encode_to_vec();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[i] ^= 1 << bit;
                // Either a typed error or a successful decode of different
                // (but structurally valid) columns — never a panic.
                let _ = EventColumns::decode(&m);
            }
        }
    }

    #[test]
    fn decode_rejects_oversized_counts() {
        let mut bytes = Vec::new();
        pinzip::varint::write_u64(&mut bytes, u64::MAX);
        assert!(EventColumns::decode(&bytes).is_err());
        let mut bytes = Vec::new();
        pinzip::varint::write_u64(&mut bytes, 0);
        pinzip::varint::write_u64(&mut bytes, u64::MAX);
        assert!(EventColumns::decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_run_with_pairs() {
        // n=1, npairs=1, kind=Run, tid=0, arg=0, delta=1, key=0, val=0.
        let mut bytes = Vec::new();
        for v in [1u64, 1, 0] {
            pinzip::varint::write_u64(&mut bytes, v);
        }
        bytes.insert(2, KIND_RUN); // kinds column sits after the two counts
        pinzip::varint::write_u64(&mut bytes, 0); // arg
        pinzip::varint::write_u64(&mut bytes, 1); // pair delta
        pinzip::varint::write_u64(&mut bytes, 0); // key
        pinzip::varint::write_i64(&mut bytes, 0); // val
        let err = EventColumns::decode(&bytes).unwrap_err();
        assert!(err.contains("run event carries"), "{err}");
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = EventColumns::from_events(&sample_events()).encode_to_vec();
        bytes.push(0);
        let err = EventColumns::decode(&bytes).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn column_sizes_account_for_every_encoded_byte() {
        let c = EventColumns::from_events(&sample_events());
        let encoded = c.encode_to_vec();
        let counts = varint_len(c.len() as u64) + varint_len(c.pair_keys.len() as u64);
        assert_eq!(c.column_sizes().total() + counts, encoded.len());
    }
}
