//! The arrival trace: every transfer request of a run, in release order.
//!
//! Postcard's controller is online (Sec. III): each slot it schedules
//! exactly the files released in that slot. A [`Trace`] holds those files
//! for a whole run, sorted by `(release_slot, id)`, so a slot's batch is
//! one equal-range lookup. The simulator replays it against every approach
//! and the service runtime serves it (and checkpoints it); both read and
//! write the one CSV format `id,src,dst,size_gb,deadline_slots,release_slot`.

use crate::file::{FileId, TransferRequest};
use crate::topology::{split_csv_fields, DcId};
use serde::{Deserialize, Serialize};

/// A per-slot batch generator.
pub trait Workload {
    /// The batch of files released at `slot`.
    fn batch(&mut self, slot: u64) -> Vec<TransferRequest>;
}

/// Every request of a run, sorted by `(release_slot, id)`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    requests: Vec<TransferRequest>,
}

impl Trace {
    /// Builds a trace from explicit requests in any order.
    pub fn from_requests(mut requests: Vec<TransferRequest>) -> Self {
        requests.sort_by_key(|r| (r.release_slot, r.id));
        Self { requests }
    }

    /// Materializes `num_slots` batches from a generator, sorted like
    /// [`Trace::from_requests`].
    pub fn generate(workload: &mut dyn Workload, num_slots: u64) -> Self {
        Self::from_requests((0..num_slots).flat_map(|slot| workload.batch(slot)).collect())
    }

    /// All requests, sorted by `(release_slot, id)`.
    pub fn requests(&self) -> &[TransferRequest] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// One slot past the last release slot.
    pub fn num_slots(&self) -> u64 {
        self.requests.last().map_or(0, |r| r.release_slot + 1)
    }

    /// One slot past the last *deadline* — the horizon a run must cover so
    /// every request gets its full deadline window. A request released near
    /// the end with a multi-slot window pushes this past
    /// [`Trace::num_slots`], which only counts releases.
    pub fn horizon_slots(&self) -> u64 {
        self.requests.iter().map(|r| r.last_slot() + 1).max().unwrap_or(0)
    }

    /// The requests released at `slot`, in id order; empty past the last
    /// release (a run's requeued backlog can outlast its trace).
    pub fn batch(&self, slot: u64) -> &[TransferRequest] {
        let start = self.requests.partition_point(|r| r.release_slot < slot);
        let len = self.requests[start..].partition_point(|r| r.release_slot == slot);
        &self.requests[start..start + len]
    }

    /// Total volume of all requests (GB).
    pub fn total_volume(&self) -> f64 {
        self.requests.iter().map(|r| r.size_gb).sum()
    }

    /// Serializes to CSV: `id,src,dst,size_gb,deadline_slots,release_slot`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,src,dst,size_gb,deadline_slots,release_slot\n");
        for r in &self.requests {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                r.id.0, r.src.0, r.dst.0, r.size_gb, r.deadline_slots, r.release_slot
            ));
        }
        out
    }

    /// Parses the CSV produced by [`Trace::to_csv`] (header optional, blank
    /// lines ignored, rows in any order).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line (1-based),
    /// including a size that is not a positive finite number.
    pub fn from_csv(text: &str) -> Result<Self, String> {
        let mut requests = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if (i == 0 && line.starts_with("id,")) || line.trim().is_empty() {
                continue;
            }
            let err = |message: &str| format!("trace line {}: {message}", i + 1);
            let Some(parts) = split_csv_fields::<6>(line) else {
                return Err(err("expected 6 comma-separated fields"));
            };
            let id: u64 = parts[0].trim().parse().map_err(|_| err("bad id"))?;
            let src: usize = parts[1].trim().parse().map_err(|_| err("bad src"))?;
            let dst: usize = parts[2].trim().parse().map_err(|_| err("bad dst"))?;
            let size: f64 = parts[3].trim().parse().map_err(|_| err("bad size"))?;
            let deadline: usize = parts[4].trim().parse().map_err(|_| err("bad deadline"))?;
            let release: u64 = parts[5].trim().parse().map_err(|_| err("bad release slot"))?;
            if !size.is_finite() {
                // `size <= 0.0` is false for NaN, so non-finite sizes need
                // their own check or they reach `TransferRequest::new`.
                return Err(err("size must be finite"));
            }
            if src == dst || size <= 0.0 || deadline == 0 {
                return Err(err("inconsistent request fields"));
            }
            requests.push(TransferRequest::new(
                FileId(id),
                DcId(src),
                DcId(dst),
                size,
                deadline,
                release,
            ));
        }
        Ok(Self::from_requests(requests))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        Trace::from_requests(vec![
            TransferRequest::new(FileId(2), DcId(0), DcId(1), 12.5, 2, 1),
            TransferRequest::new(FileId(1), DcId(1), DcId(2), 6.0, 3, 0),
        ])
    }

    #[test]
    fn batches_partition_by_release_slot() {
        let t = trace();
        assert_eq!(t.num_slots(), 2);
        // file 1: release 0, deadline 3 → last slot 2; file 2: release 1,
        // deadline 2 → last slot 2. Horizon covers the full windows.
        assert_eq!(t.horizon_slots(), 3);
        assert_eq!(t.batch(0).len(), 1);
        assert_eq!(t.batch(0)[0].id, FileId(1));
        assert_eq!(t.batch(1).len(), 1);
        assert!(t.batch(2).is_empty());
        assert_eq!(t.total_volume(), 18.5);
    }

    #[test]
    fn csv_round_trips() {
        let t = trace();
        assert_eq!(Trace::from_csv(&t.to_csv()).unwrap(), t);
    }

    #[test]
    fn csv_malformed_lines_keep_their_line_and_message() {
        let text = "id,src,dst,size_gb,deadline_slots,release_slot\n1,0,1,5.0,2,0\n\n";
        for (bad, expected) in [
            ("2,0,1,5.0,2", "trace line 4: expected 6 comma-separated fields"),
            ("2,0,1,5.0,2,0,9", "trace line 4: expected 6 comma-separated fields"),
            (",", "trace line 4: expected 6 comma-separated fields"),
            ("x,0,1,5.0,2,0", "trace line 4: bad id"),
            ("2,0,1,5.0,2,", "trace line 4: bad release slot"),
            ("2,0,1,0.0,2,0", "trace line 4: inconsistent request fields"),
            ("2,1,1,5.0,2,0", "trace line 4: inconsistent request fields"),
        ] {
            let e = Trace::from_csv(&format!("{text}{bad}\n")).unwrap_err();
            assert_eq!(e, expected, "{bad}");
        }
        let e = Trace::from_csv("id,src,dst,size_gb,deadline_slots,release_slot\n1,2\n");
        assert_eq!(e.unwrap_err(), "trace line 2: expected 6 comma-separated fields");
    }

    #[test]
    fn csv_rejects_non_finite_sizes() {
        // Regression: `size <= 0.0` is false for NaN, so a NaN size used to
        // pass validation and panic deep inside request construction.
        for bad in ["NaN", "inf", "-inf"] {
            let e = Trace::from_csv(&format!("1,0,1,{bad},2,0\n")).unwrap_err();
            assert_eq!(e, "trace line 1: size must be finite", "{bad}");
        }
    }

    #[test]
    fn serde_round_trips() {
        let t = trace();
        let back: Trace = serde::json::from_str(&serde::json::to_string(&t)).unwrap();
        assert_eq!(back, t);
    }
}
