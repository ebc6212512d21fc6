//! `loloha-cli collect` — sanitize and aggregate user-provided
//! longitudinal data.
//!
//! Input: CSV lines `round,user,value` on stdin (header optional; blank
//! lines and `#` comments ignored). Rounds must be contiguous from 0 (or
//! 1); users are arbitrary non-negative integers; values must lie in
//! `[0, k)`. Each (round, user) pair may appear at most once; users absent
//! from a round simply skip it (their memoized state persists, exactly as
//! a real deployment's offline users do).
//!
//! The tool plays *both* sides — every distinct user gets a LOLOHA client
//! in an `ldp_client::ClientPool` (one `(seed, user)`-derived RNG stream
//! each), and the server aggregates the sanitized reports — so its output
//! demonstrates what the server would learn, never the raw histogram.
//!
//! Every round is one sanitize pass of the pool over that round's
//! `(user, value)` assignments (two when a checkpoint drill splits it
//! at its midpoint), collected through the concurrent `ldp_ingest`
//! worker pipeline. Scaling and durability flags: `--workers N`
//! (default one) runs N pipeline workers *and* sanitizes with N client
//! threads; `--checkpoint PATH` persists the shard state mid-round
//! and resumes from the file; `--client-checkpoint PATH` does the same
//! for the client pool (memo tables + RNG stream positions), so the pair
//! simulates a full-collector restart. `--client-checkpoint-chunk N`
//! switches the client store to its incremental (segmented) mode: PATH
//! becomes a directory, the pool is split into N-user segments, and every
//! finished round persists only the segments whose users reported —
//! O(changed users) per round instead of a full rewrite. All of them
//! leave the output byte-identical — per-user RNG streams are independent
//! and the aggregation merge is order-independent — which the unit tests
//! pin.
//!
//! `--metrics PATH` turns on the `ldp_obs` telemetry layer for the run: a
//! fresh (run-local) registry is threaded through the client pool, the
//! collector, and both checkpoint stores (without the flag they all get
//! a disabled one), and after every finished round
//! the cumulative snapshot is atomically rewritten at PATH in the
//! [OBS_FORMAT.md](../../../docs/OBS_FORMAT.md) JSON schema. The snapshot
//! carries only operational aggregates (counts, byte totals, duration
//! histograms) — never report contents — and the flag does not change a
//! single byte of the estimate output, only appends a trailing notice.

use crate::args::Flags;
use crate::CliError;
use ldp_client::{ClientConfig, ClientPool, ClientStore};
use ldp_ingest::{IngestPipeline, ShardStore};
use ldp_obs::MetricsRegistry;
use ldp_primitives::codec;
use loloha::LolohaParams;
use std::collections::{BTreeMap, BTreeSet};
use std::io::BufRead;
use std::path::Path;

/// One parsed input record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Collection round.
    pub round: u64,
    /// User identifier.
    pub user: u64,
    /// The user's private value this round.
    pub value: u64,
}

/// Parses the CSV stream (see module docs for the accepted format).
pub fn parse_records<R: BufRead>(reader: &mut R) -> Result<Vec<Record>, CliError> {
    let mut records = Vec::new();
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(CliError::new)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if lineno == 1 && trimmed.to_ascii_lowercase().starts_with("round") {
            continue; // header
        }
        let mut parts = trimmed.split(',');
        let mut next = |what: &str| -> Result<u64, CliError> {
            parts
                .next()
                .ok_or_else(|| CliError::new(format!("line {lineno}: missing {what}")))?
                .trim()
                .parse::<u64>()
                .map_err(|_| CliError::new(format!("line {lineno}: {what} is not an integer")))
        };
        let record = Record {
            round: next("round")?,
            user: next("user")?,
            value: next("value")?,
        };
        if parts.next().is_some() {
            return Err(CliError::new(format!("line {lineno}: expected 3 fields")));
        }
        records.push(record);
    }
    Ok(records)
}

/// Runs the subcommand over `input`; returns the per-round estimates.
pub fn run<R: BufRead>(argv: &[String], input: &mut R) -> Result<String, CliError> {
    let flags = Flags::parse(argv, &["optimal"])?;
    flags.ensure_known(&[
        "k",
        "eps-inf",
        "alpha",
        "seed",
        "top",
        "workers",
        "checkpoint",
        "client-checkpoint",
        "client-checkpoint-chunk",
        "metrics",
        "optimal",
    ])?;
    let k = flags.required_u64("k")?;
    let eps_inf = flags.required_f64("eps-inf")?;
    let alpha = flags.f64_or("alpha", 0.5)?;
    let seed = flags.u64_or("seed", 7)?;
    let top = flags.u64_or("top", 5)? as usize;
    let workers = flags.u64_or("workers", 1)? as usize;
    if workers == 0 {
        return Err(CliError::new(
            "--workers must be at least 1 (0 workers cannot drain any report)",
        ));
    }
    let metrics_path = flags.optional("metrics").map(std::path::PathBuf::from);
    // Run-local registry: fresh when snapshots were requested (so two
    // runs in one process never share counters), a no-op otherwise.
    let reg = match &metrics_path {
        Some(_) => MetricsRegistry::new(),
        None => MetricsRegistry::disabled(),
    };
    let store = flags
        .optional("checkpoint")
        .map(|p| ShardStore::with_obs(p, &reg));
    let client_chunk = flags.optional_u64("client-checkpoint-chunk")?;
    if client_chunk == Some(0) {
        return Err(CliError::new(
            "--client-checkpoint-chunk must be at least 1 (a segment holds at least one user)",
        ));
    }
    let client_store = flags
        .optional("client-checkpoint")
        .map(|p| match client_chunk {
            Some(c) => ClientStore::chunked(p, c as usize, &reg),
            None => ClientStore::new(p, &reg),
        });
    if client_chunk.is_some() && client_store.is_none() {
        return Err(CliError::new(
            "--client-checkpoint-chunk requires --client-checkpoint PATH",
        ));
    }
    let params = if flags.switch("optimal") {
        LolohaParams::optimal(eps_inf, alpha * eps_inf)
    } else {
        LolohaParams::bi(eps_inf, alpha * eps_inf)
    }
    .map_err(CliError::new)?;

    let records = parse_records(input)?;
    if records.is_empty() {
        return Err(CliError::new(
            "no input records (expected `round,user,value` lines)",
        ));
    }
    for r in &records {
        if r.value >= k {
            return Err(CliError::new(format!(
                "user {} round {}: value {} outside domain [0, {k})",
                r.user, r.round, r.value
            )));
        }
    }

    // Group by round, preserving round order; `seen` holds every
    // (round, user) pair so far, so duplicates cost O(log n) each.
    let mut rounds: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut seen: BTreeSet<(u64, u64)> = BTreeSet::new();
    for r in &records {
        if !seen.insert((r.round, r.user)) {
            return Err(CliError::new(format!(
                "user {} reported twice in round {}",
                r.user, r.round
            )));
        }
        rounds.entry(r.round).or_default().push((r.user, r.value));
    }

    // Dense user index: every distinct user id, in ascending order, gets a
    // pool slot with its own (seed, index)-derived RNG stream.
    let index: BTreeMap<u64, usize> = {
        let mut ids: Vec<u64> = records.iter().map(|r| r.user).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().enumerate().map(|(i, u)| (u, i)).collect()
    };
    let mut pool =
        ClientPool::with_obs(ClientConfig::for_loloha(k, params), seed, index.len(), &reg)
            .map_err(CliError::new)?;

    // The server side: the concurrent ingest pipeline, routing by a
    // stable hash of the user's dense pool index (the routing key for a
    // given user therefore depends on which other users appear in the
    // input, not just their id). The merge is an order-independent sum,
    // so the estimates are deterministic and independent of the worker
    // count.
    let mut pipe =
        IngestPipeline::for_loloha_obs(k, params, workers, &reg).map_err(CliError::new)?;

    let mut out = format!(
        "LOLOHA collect: k = {k}, g = {}, eps_inf = {eps_inf}, eps_1 = {:.3}, cap = {:.1}\n",
        params.g(),
        alpha * eps_inf,
        params.budget_cap()
    );
    let mut drilled = false;
    // Chunked-mode accounting: how many segment files the per-round
    // incremental saves rewrote, against the rewrites a full-save-per-
    // round policy would have cost.
    let mut seg_written = 0usize;
    let mut seg_possible = 0usize;
    for (round, entries) in &rounds {
        // Entries mapped to dense pool indices, the ingest routing key.
        let assignments: Vec<(usize, u64)> = entries.iter().map(|&(u, v)| (index[&u], v)).collect();
        // With a durability drill pending, split the round at its
        // midpoint: sanitize the first half, persist + restore (a
        // simulated full-collector restart), then finish the round. The
        // output must be byte-identical to an uninterrupted run.
        let do_drill = !drilled && (store.is_some() || client_store.is_some());
        let mid = if do_drill {
            assignments.len().div_ceil(2)
        } else {
            assignments.len()
        };
        for (part_i, range) in [0..mid, mid..assignments.len()].into_iter().enumerate() {
            if range.is_empty() && part_i == 1 {
                continue;
            }
            pool.sanitize_assignments(&assignments[range], workers, &pipe.handle())
                .map_err(CliError::new)?;
            if do_drill && part_i == 0 {
                // Server half: persist the shard state, tear the pipeline
                // down, resume mid-fill from the file.
                if let Some(store) = &store {
                    store
                        .save(&pipe.checkpoint().map_err(CliError::new)?)
                        .map_err(CliError::new)?;
                    let mut fresh = IngestPipeline::for_loloha_obs(k, params, workers, &reg)
                        .map_err(CliError::new)?;
                    fresh
                        .restore(&store.load().map_err(CliError::new)?)
                        .map_err(CliError::new)?;
                    pipe = fresh;
                }
                // Client half: persist every user's memo + RNG position
                // and fold it back into a rebuilt pool. The pool state
                // now matches this very store, so it is marked clean and
                // later incremental saves rewrite only what reports next.
                if let Some(cs) = &client_store {
                    cs.save_pool(&mut pool).map_err(CliError::new)?;
                    pool.restore(&cs.load().map_err(CliError::new)?)
                        .map_err(CliError::new)?;
                    pool.mark_clean();
                }
                drilled = true;
            }
        }
        // Incremental per-round persistence: with a chunked client store
        // every finished round checkpoints the users that reported — and
        // only those — so a crash between rounds resumes from the last
        // completed round at O(changed users) write cost.
        if let Some(cs) = &client_store {
            if cs.chunk().is_some() {
                let stats = cs.save_pool(&mut pool).map_err(CliError::new)?;
                seg_written += stats.written;
                seg_possible += stats.total;
            }
        }
        let estimate = pipe.finish_round().map_err(CliError::new)?.estimate;
        let mut ranked: Vec<(usize, f64)> = estimate.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let shown: Vec<String> = ranked
            .iter()
            .take(top)
            .map(|(v, f)| format!("{v}:{f:.3}"))
            .collect();
        out.push_str(&format!(
            "round {round}: n = {}, top-{top} = [{}]\n",
            entries.len(),
            shown.join(", ")
        ));
        // Durable telemetry: every finished round atomically replaces the
        // snapshot file, so a crash leaves the last complete round's
        // cumulative metrics on disk, never a torn write.
        if let Some(mp) = &metrics_path {
            write_metrics(&reg, mp, *round)?;
        }
    }
    let worst = pool
        .states()
        .map(|s| s.privacy_spent())
        .fold(0.0f64, f64::max);
    out.push_str(&format!(
        "privacy: worst user spent {:.3} of the {:.1} cap across {} user(s)\n",
        worst,
        params.budget_cap(),
        pool.len()
    ));
    if let Some(store) = &store {
        out.push_str(&format!(
            "checkpoint: shard state saved and restored mid-round at {}\n",
            store.path().display()
        ));
    }
    if let Some(cs) = &client_store {
        match cs.chunk() {
            None => out.push_str(&format!(
                "client-checkpoint: client state saved and restored mid-round at {}\n",
                cs.path().display()
            )),
            Some(chunk) => out.push_str(&format!(
                "client-checkpoint: client state saved and restored mid-round at {} \
                 (chunk {chunk}: incremental saves rewrote {seg_written} of {seg_possible} segment files)\n",
                cs.path().display()
            )),
        }
    }
    if let Some(mp) = &metrics_path {
        out.push_str(&format!(
            "metrics: telemetry snapshot written to {} ({} round(s))\n",
            mp.display(),
            rounds.len()
        ));
    }
    Ok(out)
}

/// Atomically rewrites the cumulative telemetry snapshot at `path`. The
/// snapshot body is deterministic; the meta block names the producing
/// subcommand and the round just finished.
fn write_metrics(reg: &MetricsRegistry, path: &Path, round: u64) -> Result<(), CliError> {
    let round = round.to_string();
    let json = reg
        .snapshot()
        .to_json_string(&[("source", "collect"), ("round", &round)]);
    codec::write_atomic(path, json.as_bytes()).map_err(CliError::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::argv;
    use std::io::Cursor;

    fn input(s: &str) -> Cursor<Vec<u8>> {
        Cursor::new(s.as_bytes().to_vec())
    }

    #[test]
    fn parses_csv_with_header_comments_and_blanks() {
        let mut src = input("round,user,value\n# comment\n\n0,1,5\n0,2,6\n1,1,5\n");
        let records = parse_records(&mut src).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records[0],
            Record {
                round: 0,
                user: 1,
                value: 5
            }
        );
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        let err = parse_records(&mut input("0,1\n")).unwrap_err();
        assert!(err.message.contains("line 1"), "{err}");
        let err = parse_records(&mut input("0,1,2,3\n")).unwrap_err();
        assert!(err.message.contains("3 fields"), "{err}");
        let err = parse_records(&mut input("a,1,2\n")).unwrap_err();
        assert!(err.message.contains("not an integer"), "{err}");
    }

    #[test]
    fn end_to_end_collect_finds_the_heavy_value() {
        // 400 users, value 3 dominant, two rounds.
        let mut csv = String::from("round,user,value\n");
        for u in 0..400u64 {
            let v = if u % 4 == 0 { 7 } else { 3 };
            csv.push_str(&format!("0,{u},{v}\n1,{u},{v}\n"));
        }
        let out = run(
            &argv("--k 10 --eps-inf 5.0 --alpha 0.5 --top 2"),
            &mut input(&csv),
        )
        .unwrap();
        // Value 3 (75% of users) must lead both rounds' top lists.
        for line in out.lines().filter(|l| l.starts_with("round")) {
            assert!(line.contains("top-2 = [3:"), "{line}");
        }
        assert!(out.contains("worst user spent"), "{out}");
    }

    #[test]
    fn collect_output_is_shard_count_invariant() {
        // Each pipeline worker owns one shard, so `--workers N` spreads
        // users over N shards (and N sanitize threads); the merge is an
        // order-independent sum, so no output byte may change.
        let mut csv = String::from("round,user,value\n");
        for u in 0..120u64 {
            csv.push_str(&format!("0,{u},{}\n1,{u},{}\n", u % 6, (u + 1) % 6));
        }
        let args = "--k 6 --eps-inf 4.0 --alpha 0.5 --top 3";
        let reference = run(&argv(args), &mut input(&csv)).unwrap();
        for workers in [1u64, 2, 3, 4, 8] {
            let got = run(
                &argv(&format!("{args} --workers {workers}")),
                &mut input(&csv),
            )
            .unwrap();
            assert_eq!(reference, got, "{workers} workers");
        }
    }

    #[test]
    fn pipeline_output_matches_direct_aggregation() {
        // Reference without the pipeline: the same pool (same seed, one
        // dense slot per user) sanitizes each round straight into a
        // one-shard in-process aggregator. Every round line `collect`
        // prints through the pipeline must match it at any worker count.
        let (n, k) = (90u64, 5u64);
        let mut csv = String::from("round,user,value\n");
        for u in 0..n {
            csv.push_str(&format!("0,{u},{}\n1,{u},{}\n", u % k, (u + 2) % k));
        }
        let params = LolohaParams::bi(3.0, 1.5).unwrap();
        let reg = MetricsRegistry::disabled();
        let mut pool =
            ClientPool::with_obs(ClientConfig::for_loloha(k, params), 7, n as usize, &reg).unwrap();
        let mut agg = ldp_runtime::ShardedAggregator::for_loloha_obs(k, params, 1, &reg).unwrap();
        let mut expected = Vec::new();
        for (round, shift) in [(0u64, 0u64), (1, 2)] {
            let values: Vec<u64> = (0..n).map(|u| (u + shift) % k).collect();
            pool.sanitize_round_into_shards(&values, agg.shards_mut());
            let estimate = agg.finish_round().estimate;
            let mut ranked: Vec<(usize, f64)> = estimate.iter().copied().enumerate().collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let shown: Vec<String> = ranked
                .iter()
                .take(3)
                .map(|(v, f)| format!("{v}:{f:.3}"))
                .collect();
            expected.push(format!(
                "round {round}: n = {n}, top-3 = [{}]",
                shown.join(", ")
            ));
        }
        let args = "--k 5 --eps-inf 3.0 --alpha 0.5 --top 3";
        for workers in [1u64, 2, 4] {
            let got = run(
                &argv(&format!("{args} --workers {workers}")),
                &mut input(&csv),
            )
            .unwrap();
            let rounds: Vec<&str> = got.lines().filter(|l| l.starts_with("round ")).collect();
            assert_eq!(rounds, expected, "{workers} workers");
        }
    }

    #[test]
    fn zero_workers_and_the_shards_flag_are_rejected() {
        let err = run(
            &argv("--k 4 --eps-inf 1.0 --workers 0"),
            &mut input("0,1,2\n"),
        )
        .unwrap_err();
        assert!(
            err.message.contains("--workers must be at least 1"),
            "{err}"
        );
        let err = run(
            &argv("--k 4 --eps-inf 1.0 --shards 2"),
            &mut input("0,1,2\n"),
        )
        .unwrap_err();
        assert!(err.message.contains("unknown flag"), "{err}");
    }

    #[test]
    fn checkpoint_restart_does_not_change_output() {
        let path = std::env::temp_dir().join(format!(
            "loloha_cli_collect_ckpt_{}.bin",
            std::process::id()
        ));
        let mut csv = String::from("round,user,value\n");
        for u in 0..60u64 {
            csv.push_str(&format!("0,{u},{}\n1,{u},{}\n", u % 4, (u + 1) % 4));
        }
        let args = "--k 4 --eps-inf 2.0 --alpha 0.5 --top 2";
        let reference = run(&argv(args), &mut input(&csv)).unwrap();
        let got = run(
            &argv(&format!(
                "{args} --workers 3 --checkpoint {}",
                path.display()
            )),
            &mut input(&csv),
        )
        .unwrap();
        // Identical except for the trailing checkpoint notice.
        let (body, notice) = got.rsplit_once("checkpoint: ").expect("notice line");
        assert_eq!(reference, body, "checkpointed run must match");
        assert!(notice.contains("saved and restored mid-round"), "{notice}");
        assert!(path.exists(), "checkpoint file must be written");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dual_checkpoint_restart_is_byte_identical() {
        // The full-collector restart drill: shard state *and* client state
        // persist mid-round, both halves resume from their files, and the
        // output matches an uninterrupted run byte for byte — across
        // worker counts.
        let base =
            std::env::temp_dir().join(format!("loloha_cli_collect_dual_{}", std::process::id()));
        let shard_path = base.with_extension("shards.ckpt");
        let client_path = base.with_extension("clients.ckpt");
        let mut csv = String::from("round,user,value\n");
        for u in 0..50u64 {
            csv.push_str(&format!(
                "0,{u},{}\n1,{u},{}\n2,{u},{}\n",
                u % 4,
                (u + 1) % 4,
                u % 2
            ));
        }
        let args = "--k 4 --eps-inf 2.0 --alpha 0.5 --top 2";
        let reference = run(&argv(args), &mut input(&csv)).unwrap();
        for workers in [1u64, 4] {
            let got = run(
                &argv(&format!(
                    "{args} --workers {workers} --checkpoint {} --client-checkpoint {}",
                    shard_path.display(),
                    client_path.display()
                )),
                &mut input(&csv),
            )
            .unwrap();
            let (body, _) = got.split_once("checkpoint: ").expect("notice lines");
            assert_eq!(reference, body, "dual-checkpoint run at {workers} workers");
            assert!(
                got.contains("client-checkpoint: client state saved"),
                "{got}"
            );
        }
        assert!(shard_path.exists() && client_path.exists());
        std::fs::remove_file(&shard_path).ok();
        std::fs::remove_file(&client_path).ok();
    }

    #[test]
    fn client_checkpoint_alone_works_at_every_worker_count() {
        let path = std::env::temp_dir().join(format!(
            "loloha_cli_collect_client_only_{}.ckpt",
            std::process::id()
        ));
        let mut csv = String::from("round,user,value\n");
        for u in 0..40u64 {
            csv.push_str(&format!("0,{u},{}\n1,{u},{}\n", u % 4, (u + 3) % 4));
        }
        let args = "--k 4 --eps-inf 2.0 --alpha 0.5 --top 2";
        let reference = run(&argv(args), &mut input(&csv)).unwrap();
        for workers in [1u64, 3] {
            let got = run(
                &argv(&format!(
                    "{args} --workers {workers} --client-checkpoint {}",
                    path.display()
                )),
                &mut input(&csv),
            )
            .unwrap();
            let (body, notice) = got.rsplit_once("client-checkpoint: ").expect("notice line");
            assert_eq!(
                reference, body,
                "client-checkpointed run at {workers} workers"
            );
            assert!(notice.contains("saved and restored mid-round"), "{notice}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_client_checkpoint_is_byte_identical_and_incremental() {
        // The chunked store must not change a single output byte relative
        // to an uninterrupted run, and rounds that touch only a few users
        // must rewrite only their segments.
        let dir =
            std::env::temp_dir().join(format!("loloha_cli_collect_chunked_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut csv = String::from("round,user,value\n");
        for u in 0..40u64 {
            csv.push_str(&format!("0,{u},{}\n", u % 4));
        }
        // Round 1 touches only users 0..4 — one segment at chunk 8.
        for u in 0..4u64 {
            csv.push_str(&format!("1,{u},{}\n", (u + 1) % 4));
        }
        let args = "--k 4 --eps-inf 2.0 --alpha 0.5 --top 2";
        let reference = run(&argv(args), &mut input(&csv)).unwrap();
        let got = run(
            &argv(&format!(
                "{args} --client-checkpoint {} --client-checkpoint-chunk 8",
                dir.display()
            )),
            &mut input(&csv),
        )
        .unwrap();
        let (body, notice) = got.rsplit_once("client-checkpoint: ").expect("notice line");
        assert_eq!(reference, body, "chunked run must match");
        // Round 0: drill saves (all 5 segments dirty), then the post-drill
        // incremental save rewrites only the second half of the mid-round
        // split; round 1: exactly one segment (users 0..4) is dirty.
        assert!(notice.contains("chunk 8"), "{notice}");
        assert!(dir.join("manifest.ckpt").exists());
        let segs: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("seg-"))
            .collect();
        assert_eq!(segs.len(), 5, "40 users at chunk 8: {segs:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunk_flag_without_client_checkpoint_is_an_error() {
        let err = run(
            &argv("--k 4 --eps-inf 1.0 --client-checkpoint-chunk 8"),
            &mut input("0,1,2\n"),
        )
        .unwrap_err();
        assert!(
            err.message.contains("requires --client-checkpoint"),
            "{err}"
        );
        let err = run(
            &argv("--k 4 --eps-inf 1.0 --client-checkpoint /tmp/x --client-checkpoint-chunk 0"),
            &mut input("0,1,2\n"),
        )
        .unwrap_err();
        assert!(err.message.contains("at least 1"), "{err}");
    }

    #[test]
    fn metrics_snapshot_validates_and_accounts_every_report() {
        let path = std::env::temp_dir().join(format!(
            "loloha_cli_collect_metrics_{}.json",
            std::process::id()
        ));
        let mut csv = String::from("round,user,value\n");
        for u in 0..80u64 {
            csv.push_str(&format!("0,{u},{}\n1,{u},{}\n", u % 5, (u + 2) % 5));
        }
        let args = "--k 5 --eps-inf 3.0 --alpha 0.5 --top 3";
        let reference = run(&argv(args), &mut input(&csv)).unwrap();
        let got = run(
            &argv(&format!("{args} --workers 3 --metrics {}", path.display())),
            &mut input(&csv),
        )
        .unwrap();
        // Telemetry must not perturb the estimates: output identical to
        // the uninstrumented one-worker run up to the trailing notice.
        let (body, notice) = got.rsplit_once("metrics: ").expect("notice line");
        assert_eq!(reference, body, "metrics run must match");
        assert!(notice.contains("2 round(s)"), "{notice}");
        let text = std::fs::read_to_string(&path).unwrap();
        ldp_obs::validate_snapshot_str(&text).expect("snapshot validates");
        let (meta, snap) = ldp_obs::ObsSnapshot::parse_json_str(&text).unwrap();
        assert!(meta.contains(&("source".to_string(), "collect".to_string())));
        assert!(meta.contains(&("round".to_string(), "1".to_string())));
        // Every submitted record — 80 users × 2 rounds — is visible in
        // the per-shard routed counters and the pool's report counter.
        assert_eq!(
            snap.counter_total("ldp.ingest.pipeline.reports_routed"),
            160
        );
        assert_eq!(snap.counter_total("ldp.client.pool.reports"), 160);
        assert_eq!(snap.counter_total("ldp.runtime.aggregator.rounds"), 2);
        assert!(snap.hist_count("ldp.client.pool.sanitize_ns") > 0);
        // The rounds ride the batched transport: batch envelopes
        // were flushed and their fill histogram accounts every report.
        assert!(snap.counter_total("ldp.ingest.pipeline.batches_flushed") > 0);
        assert_eq!(snap.hist_sum("ldp.ingest.pipeline.batch_fill"), 160);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sanitize_ns_holds_one_sample_per_pass_at_every_worker_count() {
        // 80 users × 2 rounds: every round is one sanitize pass, whatever
        // the worker count, so each run records exactly 2 samples.
        let mut csv = String::from("round,user,value\n");
        for u in 0..80u64 {
            csv.push_str(&format!("0,{u},{}\n1,{u},{}\n", u % 5, (u + 2) % 5));
        }
        let args = "--k 5 --eps-inf 3.0 --alpha 0.5 --top 3";
        for workers in [1u64, 3] {
            let path = std::env::temp_dir().join(format!(
                "loloha_cli_collect_passes_{workers}_{}.json",
                std::process::id()
            ));
            run(
                &argv(&format!(
                    "{args} --workers {workers} --metrics {}",
                    path.display()
                )),
                &mut input(&csv),
            )
            .unwrap();
            let (_, snap) =
                ldp_obs::ObsSnapshot::parse_json_str(&std::fs::read_to_string(&path).unwrap())
                    .unwrap();
            assert_eq!(
                snap.hist_count("ldp.client.pool.sanitize_ns"),
                2,
                "{workers} workers"
            );
            assert_eq!(
                snap.counter_total("ldp.client.pool.reports"),
                160,
                "{workers} workers"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn metrics_checkpoint_counters_agree_with_save_stats() {
        let base = std::env::temp_dir().join(format!(
            "loloha_cli_collect_metrics_ckpt_{}",
            std::process::id()
        ));
        let shard_path = base.with_extension("shards.ckpt");
        let dir = base.with_extension("clients.d");
        let snap_path = base.with_extension("metrics.json");
        std::fs::remove_dir_all(&dir).ok();
        let mut csv = String::from("round,user,value\n");
        for u in 0..40u64 {
            csv.push_str(&format!("0,{u},{}\n", u % 4));
        }
        for u in 0..4u64 {
            csv.push_str(&format!("1,{u},{}\n", (u + 1) % 4));
        }
        let got = run(
            &argv(&format!(
                "--k 4 --eps-inf 2.0 --alpha 0.5 --top 2 --workers 2 \
                 --checkpoint {} --client-checkpoint {} \
                 --client-checkpoint-chunk 8 --metrics {}",
                shard_path.display(),
                dir.display(),
                snap_path.display()
            )),
            &mut input(&csv),
        )
        .unwrap();
        // The notice line reports the incremental SaveStats roll-up; the
        // mid-round drill itself full-saves all 5 segments (40 users at
        // chunk 8) before any incremental save runs.
        let notice = got
            .lines()
            .find(|l| l.starts_with("client-checkpoint:"))
            .expect("client notice");
        let rest = notice.split("rewrote ").nth(1).expect("notice stats");
        let mut nums = rest
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse::<u64>().unwrap());
        let (written, possible) = (nums.next().unwrap(), nums.next().unwrap());
        let (_, snap) =
            ldp_obs::ObsSnapshot::parse_json_str(&std::fs::read_to_string(&snap_path).unwrap())
                .unwrap();
        assert_eq!(
            snap.counter_total("ldp.client.store.segments_written"),
            written + 5,
            "store counters must equal the SaveStats total plus the drill"
        );
        assert_eq!(
            snap.counter_total("ldp.client.store.segments_total"),
            possible + 5
        );
        // Drill save + two per-round incremental saves; one restore load.
        assert_eq!(snap.hist_count("ldp.client.store.save_ns"), 3);
        assert_eq!(snap.hist_count("ldp.client.store.load_ns"), 1);
        // Shard store: one mid-round save, one restore, real bytes.
        assert_eq!(snap.hist_count("ldp.ingest.store.save_ns"), 1);
        assert_eq!(snap.hist_count("ldp.ingest.store.load_ns"), 1);
        assert!(snap.counter_total("ldp.ingest.store.bytes_written") > 0);
        std::fs::remove_file(&shard_path).ok();
        std::fs::remove_file(&snap_path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_domain_value_is_an_error() {
        let err = run(&argv("--k 4 --eps-inf 1.0"), &mut input("0,1,9\n")).unwrap_err();
        assert!(err.message.contains("outside domain"), "{err}");
    }

    #[test]
    fn duplicate_user_round_is_an_error() {
        let err = run(&argv("--k 4 --eps-inf 1.0"), &mut input("0,1,2\n0,1,3\n")).unwrap_err();
        assert!(err.message.contains("twice"), "{err}");
    }

    #[test]
    fn empty_input_is_an_error() {
        let err = run(&argv("--k 4 --eps-inf 1.0"), &mut input("")).unwrap_err();
        assert!(err.message.contains("no input records"), "{err}");
    }
}
