//! The runtime's arrival schedule: which requests arrive at which slot.
//!
//! Shares the simulator's trace CSV format
//! (`id,src,dst,size_gb,deadline_slots,release_slot`) so traces exported by
//! `postcard trace` / the sim crate feed the service runtime directly — but
//! is implemented here because the dependency points the other way (sim
//! builds on the runtime, not vice versa).

use postcard_net::{split_csv_fields, DcId, FileId, TransferRequest};
use serde::{Deserialize, Serialize};

/// All arrivals of a run, ordered by release slot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ArrivalSchedule {
    requests: Vec<TransferRequest>,
}

impl ArrivalSchedule {
    /// Builds a schedule from explicit requests (sorted by release slot).
    pub fn from_requests(mut requests: Vec<TransferRequest>) -> Self {
        requests.sort_by_key(|r| (r.release_slot, r.id));
        Self { requests }
    }

    /// All requests, ordered by release slot.
    pub fn requests(&self) -> &[TransferRequest] {
        &self.requests
    }

    /// One slot past the last release slot.
    pub fn num_slots(&self) -> u64 {
        self.requests.iter().map(|r| r.release_slot + 1).max().unwrap_or(0)
    }

    /// One slot past the last *deadline* over all arrivals — the horizon a
    /// run must cover so every request gets its full deadline window. A
    /// request released near the end with a multi-slot window pushes this
    /// past [`ArrivalSchedule::num_slots`], which only counts releases.
    pub fn horizon_slots(&self) -> u64 {
        self.requests.iter().map(|r| r.last_slot() + 1).max().unwrap_or(0)
    }

    /// The arrivals released at `slot`, in id order. Slots past the last
    /// release return an empty batch — requeued backlog can extend the run
    /// horizon beyond [`ArrivalSchedule::num_slots`], and those extension
    /// slots simply see no new arrivals.
    pub fn batch(&self, slot: u64) -> Vec<TransferRequest> {
        self.requests.iter().filter(|r| r.release_slot == slot).copied().collect()
    }

    /// Serializes to the trace CSV format.
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

    /// Parses the trace CSV format (header optional, blank lines ignored).
    ///
    /// # Errors
    ///
    /// Names the first malformed line (1-based).
    pub fn from_csv(text: &str) -> Result<Self, String> {
        let mut requests = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if i == 0 && line.starts_with("id,") {
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let err = |message: &str| format!("arrivals line {}: {message}", i + 1);
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
                // their own check or they flow straight into the solver.
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

    fn sched() -> ArrivalSchedule {
        ArrivalSchedule::from_requests(vec![
            TransferRequest::new(FileId(2), DcId(0), DcId(1), 12.5, 2, 1),
            TransferRequest::new(FileId(1), DcId(1), DcId(2), 6.0, 3, 0),
        ])
    }

    #[test]
    fn batches_partition_by_release_slot() {
        let s = sched();
        assert_eq!(s.num_slots(), 2);
        // file 1: release 0, deadline 3 → last slot 2; file 2: release 1,
        // deadline 2 → last slot 2. Horizon covers the full windows.
        assert_eq!(s.horizon_slots(), 3);
        assert_eq!(s.batch(0).len(), 1);
        assert_eq!(s.batch(0)[0].id, FileId(1));
        assert_eq!(s.batch(1).len(), 1);
        assert!(s.batch(2).is_empty());
    }

    #[test]
    fn csv_round_trips() {
        let s = sched();
        let back = ArrivalSchedule::from_csv(&s.to_csv()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn csv_errors_name_the_line() {
        let e = ArrivalSchedule::from_csv("id,src,dst,size_gb,deadline_slots,release_slot\n1,2\n")
            .unwrap_err();
        assert!(e.contains("line 2"), "{e}");
        let e = ArrivalSchedule::from_csv("0,1,1,5.0,2,0\n").unwrap_err();
        assert!(e.contains("inconsistent"), "{e}");
    }

    #[test]
    fn csv_malformed_lines_keep_their_line_and_message() {
        let text = "id,src,dst,size_gb,deadline_slots,release_slot\n1,0,1,5.0,2,0\n\n";
        for (bad, expected) in [
            ("2,0,1,5.0,2", "arrivals line 4: expected 6 comma-separated fields"),
            ("2,0,1,5.0,2,0,9", "arrivals line 4: expected 6 comma-separated fields"),
            (",", "arrivals line 4: expected 6 comma-separated fields"),
            ("x,0,1,5.0,2,0", "arrivals line 4: bad id"),
            ("2,0,1,5.0,2,", "arrivals line 4: bad release slot"),
            ("2,0,1,0.0,2,0", "arrivals line 4: inconsistent request fields"),
        ] {
            let e = ArrivalSchedule::from_csv(&format!("{text}{bad}\n")).unwrap_err();
            assert_eq!(e, expected, "{bad}");
        }
    }

    #[test]
    fn csv_rejects_non_finite_sizes() {
        // Regression: `size <= 0.0` is false for NaN, so a NaN size used to
        // pass validation and panic deep inside request construction.
        for bad in ["NaN", "inf", "-inf"] {
            let e = ArrivalSchedule::from_csv(&format!("1,0,1,{bad},2,0\n")).unwrap_err();
            assert!(e.contains("line 1") && e.contains("finite"), "{bad}: {e}");
        }
    }

    #[test]
    fn serde_round_trips() {
        let s = sched();
        let back: ArrivalSchedule = serde::json::from_str(&serde::json::to_string(&s)).unwrap();
        assert_eq!(back, s);
    }
}
