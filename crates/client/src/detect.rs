//! The Table 2 change-point detection tracker for dBitFlipPM.
//!
//! dBitFlipPM memoizes one randomized vector per input class and has no
//! second sanitization round, so its reports are a *deterministic* function
//! of the current bucket: a changed report proves the bucket changed. The
//! attacker therefore flags round `t` whenever `report_t ≠ report_{t−1}`.
//! The converse does not hold — two buckets may share a memoized vector —
//! which is why `d = 1` (two classes, often colliding) protects users and
//! `d = b` (distinct one-hot patterns) exposes nearly all of them.
//!
//! The tracker is *client-side state*: it rides along with the dBitFlipPM
//! memo inside the [`ClientPool`](crate::ClientPool) (and is checkpointed
//! with it, so a resumed collection reproduces the same detection metrics).
//! The population-level summary lives in the simulator.

use ldp_primitives::BitVec;

/// Per-user tracking state for the detection attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionTrack {
    prev_bucket: Option<u32>,
    prev_bits: Option<BitVec>,
    any_change: bool,
    missed: bool,
}

impl DetectionTrack {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self {
            prev_bucket: None,
            prev_bits: None,
            any_change: false,
            missed: false,
        }
    }

    /// Records one round: the user's true bucket and the report sent.
    pub fn observe(&mut self, bucket: u32, bits: &BitVec) {
        if let (Some(pb), Some(pbits)) = (self.prev_bucket, &self.prev_bits) {
            let bucket_changed = pb != bucket;
            let report_changed = pbits != bits;
            // Memoized reports are deterministic per bucket: a report change
            // without a bucket change would be a protocol bug.
            debug_assert!(!report_changed || bucket_changed);
            if bucket_changed {
                self.any_change = true;
                if !report_changed {
                    self.missed = true;
                }
            }
        }
        self.prev_bucket = Some(bucket);
        // Overwrite in place: after the first report this allocates nothing.
        match &mut self.prev_bits {
            Some(prev) if prev.len() == bits.len() => prev.copy_from(bits),
            prev => *prev = Some(bits.clone()),
        }
    }

    /// Whether the user changed bucket at least once.
    pub fn had_changes(&self) -> bool {
        self.any_change
    }

    /// Whether *all* of the user's bucket changes were flagged.
    pub fn fully_detected(&self) -> bool {
        self.any_change && !self.missed
    }

    /// The last observed `(bucket, report bits)`, if any round has been
    /// observed (read by the checkpoint layer).
    pub fn prev(&self) -> Option<(u32, &BitVec)> {
        match (self.prev_bucket, &self.prev_bits) {
            (Some(b), Some(bits)) => Some((b, bits)),
            _ => None,
        }
    }

    /// The `(any_change, missed)` flags (read by the checkpoint layer).
    pub fn flags(&self) -> (bool, bool) {
        (self.any_change, self.missed)
    }

    /// Rebuilds a tracker from checkpointed parts.
    pub fn from_parts(prev: Option<(u32, BitVec)>, any_change: bool, missed: bool) -> Self {
        let (prev_bucket, prev_bits) = match prev {
            Some((b, bits)) => (Some(b), Some(bits)),
            None => (None, None),
        };
        Self {
            prev_bucket,
            prev_bits,
            any_change,
            missed,
        }
    }
}

impl Default for DetectionTrack {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(pattern: &[bool]) -> BitVec {
        let mut b = BitVec::zeros(pattern.len());
        for (i, &p) in pattern.iter().enumerate() {
            b.set(i, p);
        }
        b
    }

    #[test]
    fn no_changes_means_not_counted() {
        let mut t = DetectionTrack::new();
        let b = bits(&[true, false]);
        for _ in 0..5 {
            t.observe(3, &b);
        }
        assert!(!t.had_changes());
        assert!(!t.fully_detected());
    }

    #[test]
    fn detected_change() {
        let mut t = DetectionTrack::new();
        t.observe(0, &bits(&[true, false]));
        t.observe(1, &bits(&[false, true])); // bucket and report changed
        assert!(t.had_changes());
        assert!(t.fully_detected());
    }

    #[test]
    fn missed_change_is_never_fully_detected() {
        let mut t = DetectionTrack::new();
        let same = bits(&[true, true]);
        t.observe(0, &same);
        t.observe(1, &same); // bucket changed, report identical → missed
        t.observe(2, &bits(&[false, false])); // later detected change
        assert!(t.had_changes());
        assert!(!t.fully_detected());
    }

    #[test]
    fn parts_roundtrip_preserves_the_tracker() {
        let mut t = DetectionTrack::new();
        t.observe(0, &bits(&[true, true]));
        t.observe(1, &bits(&[true, true])); // missed change
        let prev = t.prev().map(|(b, v)| (b, v.clone()));
        let (any, missed) = t.flags();
        let rebuilt = DetectionTrack::from_parts(prev, any, missed);
        assert_eq!(rebuilt, t);
        // The rebuilt tracker continues exactly where the original stopped.
        let mut a = t.clone();
        let mut b = rebuilt;
        a.observe(2, &bits(&[false, true]));
        b.observe(2, &bits(&[false, true]));
        assert_eq!(a, b);
    }
}
