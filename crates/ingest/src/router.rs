//! Deterministic report → worker routing.
//!
//! The pipeline's determinism contract does **not** depend on which worker
//! a report lands on — merged results are an order-independent sum — but
//! checkpoints capture *per-shard* state, so replaying the same submission
//! sequence must fill the same shards. Routing is a stable hash: a report
//! carrying a routing key (user id, report index, stream offset) always
//! maps to `mix(key) % workers`, independent of submission timing or the
//! submitting thread.

use ldp_rand::mix;

/// Deterministic router over a fixed worker count.
#[derive(Debug, Clone)]
pub struct Router {
    workers: usize,
}

impl Router {
    /// Creates a router over `workers` workers (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// The worker count routes are drawn from.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Routes a keyed report: a stable hash of `key`, independent of
    /// submission order and thread.
    #[inline]
    pub fn route_key(&self, key: u64) -> usize {
        (mix(key) % self.workers as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_routing_is_stable_and_in_range() {
        let r = Router::new(4);
        for key in 0..1000u64 {
            let w = r.route_key(key);
            assert!(w < 4);
            assert_eq!(w, r.route_key(key), "same key, same worker");
        }
    }

    #[test]
    fn key_routing_spreads_over_all_workers() {
        let r = Router::new(8);
        let mut hit = [false; 8];
        for key in 0..256u64 {
            hit[r.route_key(key)] = true;
        }
        assert!(hit.iter().all(|&h| h), "256 keys must touch all 8 workers");
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let r = Router::new(0);
        assert_eq!(r.workers(), 1);
        assert_eq!(r.route_key(99), 0);
    }
}
