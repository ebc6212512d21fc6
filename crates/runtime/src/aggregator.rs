//! The sharded streaming aggregator — the workspace's single server-side
//! aggregation path.
//!
//! Reports (or pre-aggregated batches of reports) are pushed into *shards*:
//! independent partial support-count histograms that can be filled from
//! disjoint worker threads, network partitions, or arriving stream batches.
//! Because merging is an index-wise sum of `u64` counters, the merged
//! histogram — and therefore every downstream estimate — is bit-identical
//! regardless of how many shards the same reports were spread over.
//!
//! Two usage styles share one engine:
//!
//! * **One-shot / per-round** (the simulator, the CLI): fill the shards for
//!   a collection round, then [`ShardedAggregator::finish_round`] merges,
//!   estimates, and resets for the next round.
//! * **Incremental streaming** (dashboards): keep pushing with
//!   [`ShardedAggregator::push_report`] / [`ShardedAggregator::push_batch`]
//!   and take non-destructive [`ShardedAggregator::snapshot`]s at any point
//!   mid-round.

use crate::method::{dbit_buckets, Method};
use ldp_hash::BucketMapper;
use ldp_longitudinal::chain::ue_chain_params;
use ldp_longitudinal::{DBitFlipServer, LgrrServer, LueServer};
use ldp_obs::{Counter, Gauge, Histogram, MetricsRegistry, Span};
use ldp_primitives::error::ParamError;
use ldp_primitives::for_each_set_bit;
use loloha::{LolohaParams, LolohaServer};

/// Most carry-save bit planes [`Shard::add_rows`] keeps per word: the
/// planes count up to `2^MAX_PLANES − 1` rows between spills, which is
/// also the most one byte lane of a spill holds.
const MAX_PLANES: u32 = 8;

/// Aggregator-side telemetry handles (`ldp.runtime.aggregator.*`). Only
/// operational quantities flow through these: stage durations, the merged
/// support-count *total*, and round counts — never per-index counts or
/// estimates.
#[derive(Debug, Clone)]
struct AggObs {
    merge_ns: Histogram,
    estimate_ns: Histogram,
    support_total: Gauge,
    rounds: Counter,
}

impl AggObs {
    fn new(obs: &MetricsRegistry) -> Self {
        Self {
            merge_ns: obs.histogram("ldp.runtime.aggregator.merge_ns"),
            estimate_ns: obs.histogram("ldp.runtime.aggregator.estimate_ns"),
            support_total: obs.gauge("ldp.runtime.aggregator.support_total"),
            rounds: obs.counter("ldp.runtime.aggregator.rounds"),
        }
    }
}

/// The per-method estimation backend behind a [`ShardedAggregator`].
#[derive(Debug, Clone)]
enum Estimator {
    Lue(LueServer),
    Lgrr(LgrrServer),
    Loloha(LolohaServer),
    DBit(DBitFlipServer),
}

impl Estimator {
    fn ingest_counts(&mut self, counts: &[u64], n: u64) {
        match self {
            Estimator::Lue(s) => s.ingest_counts(counts, n),
            Estimator::Lgrr(s) => s.ingest_counts(counts, n),
            Estimator::Loloha(s) => s.ingest_counts(counts, n),
            Estimator::DBit(s) => s.ingest_counts(counts, n),
        }
    }

    fn estimate_and_reset(&mut self) -> Vec<f64> {
        match self {
            Estimator::Lue(s) => s.estimate_and_reset(),
            Estimator::Lgrr(s) => s.estimate_and_reset(),
            Estimator::Loloha(s) => s.estimate_and_reset(),
            Estimator::DBit(s) => s.estimate_and_reset(),
        }
    }
}

/// Adds `carry` into the bit-plane counter `planes` (plane `p` holds bit
/// `p` of 64 lanes), stopping once no lane carries.
#[inline]
fn ripple(planes: &mut [u64], mut carry: u64) {
    for plane in planes {
        if carry == 0 {
            break;
        }
        let next = *plane & carry;
        *plane ^= carry;
        carry = next;
    }
}

/// A carry-save adder over 64 one-bit lanes: the sum bits and the carry
/// bits of `a + b + c`, lane by lane.
#[inline]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let half = a ^ b;
    (half ^ c, (a & b) | (half & c))
}

/// `SPREAD[b]` holds bit `i` of `b` in byte `i`: one byte of a bit
/// plane spread over eight byte-lane counters.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            table[b] |= ((b as u64 >> i) & 1) << (8 * i);
            i += 1;
        }
        b += 1;
    }
    table
};

/// One shard's accumulation state: a partial support-count histogram plus
/// the number of reports folded into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    counts: Vec<u64>,
    reports: u64,
}

impl Shard {
    /// Creates an empty shard of aggregation dimension `dim`. Callers
    /// outside a [`ShardedAggregator`] (such as `ldp_ingest` workers)
    /// accumulate into their own and merge it back in via
    /// [`ShardedAggregator::push_batch`].
    pub fn with_dim(dim: usize) -> Self {
        Self {
            counts: vec![0; dim],
            reports: 0,
        }
    }

    /// Folds one report's support set in: every listed index gains a count.
    ///
    /// # Panics
    /// Panics if an index is outside the aggregation dimension.
    pub fn add_report<I>(&mut self, support: I)
    where
        I: IntoIterator<Item = usize>,
    {
        for i in support {
            self.counts[i] += 1;
        }
        self.reports += 1;
    }

    /// Folds a transport batch of whole reports in: `indices` is the
    /// concatenation of `reports` reports' support sets in the ingest
    /// transport width (`u32`), every index already validated against the
    /// aggregation dimension by the submitting side. One flat slice walk —
    /// no per-report envelope or iterator state — which is what lets the
    /// batched ingest path drain a channel message in a single pass.
    ///
    /// # Panics
    /// Panics if an index is outside the aggregation dimension.
    pub fn add_report_batch(&mut self, indices: &[u32], reports: u64) {
        for &i in indices {
            self.counts[i as usize] += 1;
        }
        self.reports += reports;
    }

    /// Folds one report given as a bit row: bit `i % 64` of `row[i / 64]`
    /// set means index `i` is in the support. One set-bit walk.
    ///
    /// # Panics
    /// Panics if a set bit is outside the aggregation dimension.
    pub fn add_row(&mut self, row: &[u64]) {
        let counts = &mut self.counts;
        for_each_set_bit(row, |i| counts[i] += 1);
        self.reports += 1;
    }

    /// Folds a batch of bit rows in: `rows` is the concatenation of
    /// `rows.len() / words` reports, each `words` words wide, every set
    /// bit already validated against the aggregation dimension.
    ///
    /// Rows are added into carry-save bit planes: plane `p` holds bit
    /// `p` of 64 per-index counters per word, so a row costs a few
    /// `and`/`xor` per word instead of one increment per set bit. Rows
    /// go in eight at a time through a carry-save adder tree into planes
    /// 0–2 (ones, twos, fours), and only the tree's weight-8 carry
    /// ripples up from plane 3; the last `< 8` rows go in two at a time
    /// through a full adder. `P` planes count up to `2^P − 1` rows; `P`
    /// is the bit length of the batch's row count, capped at 8, so
    /// longer batches spill every 255 rows. A spill adds the planes into
    /// the `u64` counts one byte lane at a time: a 256-entry table
    /// spreads a plane byte over eight byte-sized counters, which at
    /// most 255 rows cannot overflow. A single row takes the set-bit
    /// walk of [`Self::add_row`]. The counts are the same sums either
    /// way.
    ///
    /// # Panics
    /// Panics if `words` is 0 or does not divide `rows.len()`, or if a
    /// set bit is outside the aggregation dimension.
    pub fn add_rows(&mut self, rows: &[u64], words: usize) {
        assert!(
            words > 0 && rows.len().is_multiple_of(words),
            "rows must be whole {words}-word rows"
        );
        let n = rows.len() / words;
        if n == 1 {
            self.add_row(rows);
            return;
        }
        let chunk = (1usize << MAX_PLANES) - 1;
        let planes = (usize::BITS - n.min(chunk).leading_zeros()) as usize;
        // Word-major: the planes of word `w` are `acc[w * planes ..][..planes]`.
        let mut acc = vec![0u64; words * planes];
        for rows in rows.chunks(chunk * words) {
            let mut octets = rows.chunks_exact(8 * words);
            for octet in &mut octets {
                let r: [&[u64]; 8] = std::array::from_fn(|i| &octet[i * words..][..words]);
                for w in 0..words {
                    // Planes exist up to weight 8 here: eight rows need
                    // at least four of them.
                    let (low, high) = acc[w * planes..][..planes].split_at_mut(3);
                    let (ones, twos_a) = csa(low[0], r[0][w], r[1][w]);
                    let (ones, twos_b) = csa(ones, r[2][w], r[3][w]);
                    let (twos, fours_a) = csa(low[1], twos_a, twos_b);
                    let (ones, twos_a) = csa(ones, r[4][w], r[5][w]);
                    let (ones, twos_b) = csa(ones, r[6][w], r[7][w]);
                    let (twos, fours_b) = csa(twos, twos_a, twos_b);
                    let (fours, eights) = csa(low[2], fours_a, fours_b);
                    low.copy_from_slice(&[ones, twos, fours]);
                    ripple(high, eights);
                }
            }
            let mut pairs = octets.remainder().chunks_exact(2 * words);
            for pair in &mut pairs {
                let (a, b) = pair.split_at(words);
                for ((stack, &a), &b) in acc.chunks_exact_mut(planes).zip(a).zip(b) {
                    // A full adder takes both rows into plane 0; its
                    // carry has weight 2 and ripples up from plane 1.
                    let (low, high) = stack.split_at_mut(1);
                    let (sum, carry) = csa(low[0], a, b);
                    low[0] = sum;
                    ripple(high, carry);
                }
            }
            for row in pairs.remainder().chunks_exact(words) {
                for (stack, &bits) in acc.chunks_exact_mut(planes).zip(row) {
                    ripple(stack, bits);
                }
            }
            self.spill(&mut acc, planes);
        }
        self.reports += n as u64;
    }

    /// Adds the bit-plane counters in `acc` (word-major, `planes` ≤ 8
    /// per word) into the counts and zeroes them. Each byte of a word's
    /// planes spreads through [`SPREAD`] into eight byte lanes of one
    /// `u64`, plane `p` shifted to weight `2^p`; a lane holds at most
    /// 255, so no lane carries into the next.
    ///
    /// # Panics
    /// Panics if a counter past the aggregation dimension is non-zero.
    fn spill(&mut self, acc: &mut [u64], planes: usize) {
        let dim = self.counts.len();
        for (w, stack) in acc.chunks_exact_mut(planes).enumerate() {
            let occupied = stack.iter().fold(0, |all, &plane| all | plane);
            if occupied == 0 {
                continue;
            }
            let base = w * 64;
            let live = dim.saturating_sub(base).min(64);
            assert!(
                live == 64 || occupied < 1 << live,
                "a set bit is outside the aggregation dimension {dim}"
            );
            let mut lanes = [0u64; 8];
            for (p, plane) in stack.iter_mut().enumerate() {
                for (lane, byte) in lanes.iter_mut().zip(plane.to_le_bytes()) {
                    *lane |= SPREAD[usize::from(byte)] << p;
                }
                *plane = 0;
            }
            for (counts, lane) in self.counts[base..base + live].chunks_mut(8).zip(lanes) {
                for (count, n) in counts.iter_mut().zip(lane.to_le_bytes()) {
                    *count += u64::from(n);
                }
            }
        }
    }

    /// Folds a pre-aggregated batch of `reports` reports into this shard.
    ///
    /// # Panics
    /// Panics if `counts` length differs from the aggregation dimension.
    pub fn add_batch(&mut self, counts: &[u64], reports: u64) {
        assert_eq!(counts.len(), self.counts.len(), "batch length mismatch");
        for (acc, &c) in self.counts.iter_mut().zip(counts) {
            *acc += c;
        }
        self.reports += reports;
    }

    /// The shard-local partial support counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Reports folded into this shard since the round began.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Clears the shard back to the empty state (all-zero counts, zero
    /// reports), retaining its dimension.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.reports = 0;
    }
}

/// A merged view of everything pushed during the current round.
#[derive(Debug, Clone)]
pub struct AggregateSnapshot {
    /// The merged support counts (index-wise sum over the shards).
    pub counts: Vec<u64>,
    /// Total number of reports across all shards.
    pub reports: u64,
    /// The protocol estimator applied to the merged counts. All-zero when
    /// no report has been pushed (there is nothing to normalize by).
    pub estimate: Vec<f64>,
}

/// Sharded streaming aggregation for one longitudinal protocol.
///
/// See the [module docs](self) for the ingestion model. Constructed either
/// from a [`Method`] (resolving the same protocol parameterization the
/// simulator uses) or directly from [`LolohaParams`] for bespoke LOLOHA
/// deployments.
#[derive(Debug, Clone)]
pub struct ShardedAggregator {
    estimator: Estimator,
    shards: Vec<Shard>,
    dim: usize,
    k: u64,
    reduced_domain: Option<u32>,
    k_binned: bool,
    loloha_params: Option<LolohaParams>,
    dbit: Option<(u32, u32)>,
    obs: AggObs,
}

impl ShardedAggregator {
    /// Creates an aggregator for `method` over the domain `[0, k)` at
    /// longitudinal budget `eps_inf` with first-report budget `eps_first`,
    /// spreading ingestion over `shards` shards (clamped to ≥ 1).
    /// Telemetry records into `obs` (pass [`MetricsRegistry::disabled`]
    /// when no snapshot is ever read).
    pub fn for_method_obs(
        method: Method,
        k: u64,
        eps_inf: f64,
        eps_first: f64,
        shards: usize,
        obs: &MetricsRegistry,
    ) -> Result<Self, ParamError> {
        let dim = method.dim(k);
        let (estimator, reduced_domain, k_binned, loloha_params, dbit) = match method {
            Method::Rappor | Method::LOsue | Method::LOue | Method::LSoue => {
                let chain = method.ue_chain().expect("UE-chained method");
                let chain = ue_chain_params(chain, eps_inf, eps_first)?;
                let est = Estimator::Lue(LueServer::new(k, chain)?);
                (est, None, true, None, None)
            }
            Method::LGrr => {
                let est = Estimator::Lgrr(LgrrServer::new(k, eps_inf, eps_first)?);
                (est, None, true, None, None)
            }
            Method::BiLoloha | Method::OLoloha => {
                let params = if method == Method::BiLoloha {
                    LolohaParams::bi(eps_inf, eps_first)?
                } else {
                    LolohaParams::optimal(eps_inf, eps_first)?
                };
                let est = Estimator::Loloha(LolohaServer::new(k, params)?);
                (est, Some(params.g()), true, Some(params), None)
            }
            Method::OneBitFlip | Method::BBitFlip => {
                let b = dbit_buckets(k);
                let d = if method == Method::OneBitFlip { 1 } else { b };
                BucketMapper::new(k, b).ok_or(ParamError::InvalidBuckets { b, d, k })?;
                let est = Estimator::DBit(DBitFlipServer::new(b, d, eps_inf)?);
                (est, Some(b), b as u64 == k, None, Some((b, d)))
            }
        };
        Ok(Self {
            estimator,
            shards: vec![Shard::with_dim(dim); shards.max(1)],
            dim,
            k,
            reduced_domain,
            k_binned,
            loloha_params,
            dbit,
            obs: AggObs::new(obs),
        })
    }

    /// Creates a LOLOHA aggregator from explicit parameters (the CLI's and
    /// examples' path, where `g` was chosen outside the [`Method`] enum),
    /// recording telemetry into `obs`.
    pub fn for_loloha_obs(
        k: u64,
        params: LolohaParams,
        shards: usize,
        obs: &MetricsRegistry,
    ) -> Result<Self, ParamError> {
        Ok(Self {
            estimator: Estimator::Loloha(LolohaServer::new(k, params)?),
            shards: vec![Shard::with_dim(k as usize); shards.max(1)],
            dim: k as usize,
            k,
            reduced_domain: Some(params.g()),
            k_binned: true,
            loloha_params: Some(params),
            dbit: None,
            obs: AggObs::new(obs),
        })
    }

    /// The aggregation dimension: `k` for k-binned protocols, `b` for
    /// bucketized dBitFlipPM.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The input domain size the aggregator was built for.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Number of shards ingestion is spread over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The resolved reduced domain: `g` for LOLOHA, `b` for dBitFlipPM.
    pub fn reduced_domain(&self) -> Option<u32> {
        self.reduced_domain
    }

    /// Whether estimates are k-binned (comparable to a k-bin ground truth).
    /// False only for dBitFlipPM with `b < k`.
    pub fn k_binned(&self) -> bool {
        self.k_binned
    }

    /// The LOLOHA parameterization, when the method is LOLOHA-backed.
    pub fn loloha_params(&self) -> Option<LolohaParams> {
        self.loloha_params
    }

    /// The `(b, d)` bucket configuration, when the method is dBitFlipPM.
    pub fn dbit_config(&self) -> Option<(u32, u32)> {
        self.dbit
    }

    /// Clears every shard, starting a fresh collection round.
    pub fn begin_round(&mut self) {
        for s in &mut self.shards {
            s.reset();
        }
    }

    /// Mutable access to the shards, for worker threads that each own one
    /// (`std::thread::scope` can split this slice into disjoint borrows).
    pub fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// Pushes a single report's support set into shard `shard`.
    ///
    /// # Panics
    /// Panics if `shard` is out of range or an index exceeds [`Self::dim`].
    pub fn push_report<I>(&mut self, shard: usize, support: I)
    where
        I: IntoIterator<Item = usize>,
    {
        self.shards[shard].add_report(support);
    }

    /// Pushes a pre-aggregated batch of `reports` reports into shard
    /// `shard`.
    ///
    /// # Panics
    /// Panics if `shard` is out of range or the batch length differs from
    /// [`Self::dim`].
    pub fn push_batch(&mut self, shard: usize, counts: &[u64], reports: u64) {
        self.shards[shard].add_batch(counts, reports);
    }

    /// Total reports pushed this round, across all shards.
    pub fn round_reports(&self) -> u64 {
        self.shards.iter().map(Shard::reports).sum()
    }

    /// Merges the shard partials into one histogram. An index-wise sum, so
    /// the result is independent of the shard count and push order.
    pub fn merged_counts(&self) -> Vec<u64> {
        let _timed = Span::enter(&self.obs.merge_ns);
        let mut merged = vec![0u64; self.dim];
        for shard in &self.shards {
            for (m, &c) in merged.iter_mut().zip(&shard.counts) {
                *m += c;
            }
        }
        merged
    }

    fn merge_and_estimate(&mut self) -> AggregateSnapshot {
        let counts = self.merged_counts();
        let reports = self.round_reports();
        self.obs.support_total.set(counts.iter().sum());
        let estimate = if reports == 0 {
            vec![0.0; self.dim]
        } else {
            let _timed = Span::enter(&self.obs.estimate_ns);
            self.estimator.ingest_counts(&counts, reports);
            self.estimator.estimate_and_reset()
        };
        AggregateSnapshot {
            counts,
            reports,
            estimate,
        }
    }

    /// Non-destructive streaming view: merges and estimates everything
    /// pushed so far this round, leaving the shards untouched so ingestion
    /// can continue. (The backing estimator is stateless between rounds —
    /// it resets after every estimate — so a clone serves the snapshot.)
    pub fn snapshot(&self) -> AggregateSnapshot {
        let counts = self.merged_counts();
        let reports = self.round_reports();
        self.obs.support_total.set(counts.iter().sum());
        let estimate = if reports == 0 {
            vec![0.0; self.dim]
        } else {
            let _timed = Span::enter(&self.obs.estimate_ns);
            let mut estimator = self.estimator.clone();
            estimator.ingest_counts(&counts, reports);
            estimator.estimate_and_reset()
        };
        AggregateSnapshot {
            counts,
            reports,
            estimate,
        }
    }

    /// Closes the round: merges, estimates, and resets every shard for the
    /// next round.
    pub fn finish_round(&mut self) -> AggregateSnapshot {
        let out = self.merge_and_estimate();
        self.obs.rounds.inc();
        self.begin_round();
        out
    }

    /// One-shot convenience: starts a fresh round, spreads `batches` over
    /// the shards round-robin, and closes the round in a single call.
    pub fn one_shot(&mut self, batches: &[(&[u64], u64)]) -> AggregateSnapshot {
        self.begin_round();
        let shards = self.shards.len();
        for (i, &(counts, reports)) in batches.iter().enumerate() {
            self.push_batch(i % shards, counts, reports);
        }
        self.finish_round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A telemetry registry that records nothing.
    fn off() -> MetricsRegistry {
        MetricsRegistry::disabled()
    }

    fn batches(dim: usize, n: usize, seed: u64) -> Vec<(Vec<u64>, u64)> {
        // Deterministic small pseudo-random batches without an RNG dep.
        let mut out = Vec::new();
        let mut state = seed;
        for b in 0..n {
            let mut counts = vec![0u64; dim];
            for (i, c) in counts.iter_mut().enumerate() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *c = (state >> 33) % (7 + (b + i) as u64 % 5);
            }
            out.push((counts, 10 + b as u64));
        }
        out
    }

    #[test]
    fn add_report_batch_matches_per_report_folds() {
        let reports: Vec<Vec<usize>> = vec![vec![0, 3, 5], vec![1], vec![], vec![5, 5, 2]];
        let mut per_report = Shard::with_dim(6);
        for r in &reports {
            per_report.add_report(r.iter().copied());
        }
        let mut batched = Shard::with_dim(6);
        let flat: Vec<u32> = reports
            .iter()
            .flatten()
            .map(|&i| u32::try_from(i).unwrap())
            .collect();
        batched.add_report_batch(&flat, reports.len() as u64);
        assert_eq!(per_report, batched);
    }

    #[test]
    fn a_full_spill_of_all_ones_rows_leaves_every_counter_at_255() {
        // 255 rows fill all eight planes of every lane: each byte lane
        // of the spill holds 255, the most it can, and must not carry.
        let (dim, rows) = (1412usize, 255usize);
        let words = dim.div_ceil(64);
        let mut cells = vec![u64::MAX; rows * words];
        for row in cells.chunks_exact_mut(words) {
            row[words - 1] = (1 << (dim % 64)) - 1;
        }
        let mut shard = Shard::with_dim(dim);
        shard.add_rows(&cells, words);
        assert!(shard.counts().iter().all(|&c| c == 255));
        assert_eq!(shard.reports(), 255);
    }

    #[test]
    #[should_panic(expected = "outside the aggregation dimension")]
    fn a_row_bit_past_the_dimension_panics() {
        let mut shard = Shard::with_dim(70);
        shard.add_rows(&[0, 1 << 6, 0, 1 << 5], 2);
    }

    #[test]
    fn merged_counts_are_shard_count_invariant() {
        let data = batches(12, 9, 42);
        let refs: Vec<(&[u64], u64)> = data.iter().map(|(c, r)| (c.as_slice(), *r)).collect();
        let mut base = None;
        for shards in [1usize, 3, 8] {
            let mut agg =
                ShardedAggregator::for_method_obs(Method::Rappor, 12, 1.0, 0.5, shards, &off())
                    .unwrap();
            let snap = agg.one_shot(&refs);
            match &base {
                None => base = Some(snap),
                Some(b) => {
                    assert_eq!(b.counts, snap.counts, "{shards} shards");
                    assert_eq!(b.reports, snap.reports);
                    let same = b
                        .estimate
                        .iter()
                        .zip(&snap.estimate)
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same, "estimate differs at {shards} shards");
                }
            }
        }
    }

    #[test]
    fn snapshot_does_not_disturb_the_round() {
        let mut agg =
            ShardedAggregator::for_method_obs(Method::LGrr, 8, 2.0, 1.0, 2, &off()).unwrap();
        agg.push_report(0, [3usize]);
        agg.push_report(1, [5usize]);
        let snap = agg.snapshot();
        assert_eq!(snap.reports, 2);
        assert_eq!(snap.counts[3], 1);
        // Ingestion continues; finish sees the full round.
        agg.push_report(0, [3usize]);
        let fin = agg.finish_round();
        assert_eq!(fin.reports, 3);
        assert_eq!(fin.counts[3], 2);
        // The round is reset afterwards.
        assert_eq!(agg.round_reports(), 0);
        assert!(agg.merged_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn snapshot_matches_finish_round_estimate() {
        let mut agg =
            ShardedAggregator::for_method_obs(Method::LOsue, 10, 1.5, 0.6, 3, &off()).unwrap();
        for i in 0..50usize {
            agg.push_report(i % 3, [i % 10, (i * 3) % 10]);
        }
        let snap = agg.snapshot();
        let fin = agg.finish_round();
        assert_eq!(snap.counts, fin.counts);
        assert_eq!(snap.reports, fin.reports);
        for (a, b) in snap.estimate.iter().zip(&fin.estimate) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_round_estimates_zero() {
        let mut agg =
            ShardedAggregator::for_method_obs(Method::BiLoloha, 6, 1.0, 0.5, 2, &off()).unwrap();
        let out = agg.finish_round();
        assert_eq!(out.reports, 0);
        assert!(out.estimate.iter().all(|&e| e == 0.0));
        assert_eq!(out.estimate.len(), 6);
    }

    #[test]
    fn dbit_dimension_is_bucket_count() {
        // k = 1412 (DB_MT): b = 353 buckets, not k-binned.
        let agg =
            ShardedAggregator::for_method_obs(Method::BBitFlip, 1412, 1.0, 0.5, 1, &off()).unwrap();
        assert_eq!(agg.dim(), 353);
        assert_eq!(agg.reduced_domain(), Some(353));
        assert!(!agg.k_binned());
        assert_eq!(agg.dbit_config(), Some((353, 353)));
        // Small domain: b = k, comparable.
        let agg =
            ShardedAggregator::for_method_obs(Method::OneBitFlip, 24, 1.0, 0.5, 1, &off()).unwrap();
        assert_eq!(agg.dim(), 24);
        assert!(agg.k_binned());
        assert_eq!(agg.dbit_config(), Some((24, 1)));
    }

    #[test]
    fn loloha_methods_expose_params() {
        let agg =
            ShardedAggregator::for_method_obs(Method::OLoloha, 100, 4.0, 2.0, 1, &off()).unwrap();
        let params = agg.loloha_params().expect("LOLOHA-backed");
        assert_eq!(agg.reduced_domain(), Some(params.g()));
        assert!(agg.k_binned());
        // Direct parameterization agrees with the Method-resolved one.
        let direct = ShardedAggregator::for_loloha_obs(100, params, 4, &off()).unwrap();
        assert_eq!(direct.dim(), 100);
        assert_eq!(direct.shard_count(), 4);
        assert_eq!(direct.reduced_domain(), Some(params.g()));
    }

    #[test]
    fn shard_count_clamps_to_one() {
        let agg =
            ShardedAggregator::for_method_obs(Method::Rappor, 8, 1.0, 0.5, 0, &off()).unwrap();
        assert_eq!(agg.shard_count(), 1);
    }

    #[test]
    fn push_batch_and_push_report_agree() {
        let mut by_report =
            ShardedAggregator::for_method_obs(Method::LGrr, 5, 1.0, 0.4, 2, &off()).unwrap();
        by_report.push_report(0, [1usize]);
        by_report.push_report(1, [1usize]);
        by_report.push_report(1, [4usize]);
        let mut by_batch =
            ShardedAggregator::for_method_obs(Method::LGrr, 5, 1.0, 0.4, 2, &off()).unwrap();
        by_batch.push_batch(0, &[0, 2, 0, 0, 1], 3);
        let a = by_report.finish_round();
        let b = by_batch.finish_round();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.reports, b.reports);
        for (x, y) in a.estimate.iter().zip(&b.estimate) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
