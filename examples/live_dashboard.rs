//! A live monitoring dashboard built on the high-level `FrequencyMonitor`
//! API: heavy hitters, Prop. 3.6 confidence radii, drift alarms, and — as a
//! final section — the shuffle-model pipeline where the server estimates
//! from an *anonymized multiset* of reports flowing through the sharded
//! streaming aggregator, with a mid-stream snapshot taken before the last
//! batch arrives. The pipeline records into an `ldp_obs` registry; the
//! demo asserts the telemetry stays consistent across a checkpoint/restart
//! drill and renders the final registry snapshot as an operator dashboard.
//!
//! ```sh
//! cargo run --release --example live_dashboard
//! ```

use loloha_suite::prelude::*;
use loloha_suite::shuffle::{amplified_epsilon, AnonymousReport, Shuffler};

fn main() {
    let k = 64u64; // e.g. 64 app screens being monitored
    let n = 15_000usize;
    let params = LolohaParams::optimal(3.0, 1.2).expect("valid budgets");
    println!(
        "OLOLOHA monitor: g = {}, per-report {} bits, budget cap {:.1}\n",
        params.g(),
        params.comm_bits(),
        params.budget_cap()
    );

    let family = CarterWegman::new(params.g()).expect("valid g");
    let mut monitor = FrequencyMonitor::new(k, params).expect("valid");
    let mut rng = derive_rng(77, 0);
    let mut clients: Vec<_> = (0..n)
        .map(|_| LolohaClient::new(&family, k, params, &mut rng).expect("client"))
        .collect();
    let ids: Vec<_> = clients
        .iter()
        .map(|c| monitor.register(c.hash_fn()))
        .collect();

    // Usage starts concentrated on screens 0-7; screen 42 goes viral at
    // round 5. The drift signal should spike there.
    let mut values: Vec<u64> = (0..n).map(|_| uniform_u64(&mut rng, 8)).collect();
    for round in 0..10usize {
        if round == 5 {
            for v in values.iter_mut() {
                if uniform_f64(&mut rng) < 0.4 {
                    *v = 42;
                }
            }
            println!("-- screen 42 goes viral --");
        }
        for ((client, &id), &v) in clients.iter_mut().zip(&ids).zip(&values) {
            monitor.submit(id, client.report(v, &mut rng));
        }
        let est = monitor.close_round();
        let top = est.top_k(3);
        let radius = est.confidence_radius(0.05);
        let drift = est
            .drift
            .map(|d| format!("{d:.3}"))
            .unwrap_or_else(|| "-".into());
        println!(
            "round {round:2}: top3 = {:?} (+/-{radius:.3} w.p. 95%), drift = {drift}",
            top.iter()
                .map(|(v, f)| (*v, (f * 1000.0).round() / 1000.0))
                .collect::<Vec<_>>(),
        );
    }

    // --- Shuffle-model round through the concurrent ingest pipeline -----
    // Reports travel as (hash, cell) pairs with no user identifier; the
    // shuffler permutes them, and each report's support (the preimages
    // of its cell under its hash) is batched by a `BatchSubmitter` into
    // one of four shard workers. Halfway through the stream the demo
    // flushes the submitter, takes a non-destructive snapshot,
    // persists a shard-state checkpoint, tears the whole pipeline down (a
    // simulated collector restart) and resumes mid-fill from the encoded
    // bytes — the final estimate is unaffected, because the restore is an
    // order-independent re-merge of the saved partials.
    println!("\nshuffle-model round (anonymized multiset, 4-worker ingest pipeline):");
    let mut anon: Vec<AnonymousReport<_>> = clients
        .iter_mut()
        .zip(&values)
        .map(|(c, &v)| AnonymousReport {
            hash: *c.hash_fn(),
            cell: c.report(v, &mut rng),
        })
        .collect();
    Shuffler::shuffle(&mut anon, &mut rng);

    let workers = 4usize;
    // The run's telemetry registry: the pipeline (and, across the restart
    // drill, its replacement) records into it; the registry outlives any
    // one pipeline instance, so counters survive the "crash".
    let reg = MetricsRegistry::new();
    let routed = || {
        reg.snapshot()
            .counter_total("ldp.ingest.pipeline.reports_routed")
    };
    let mut pipe = IngestPipeline::for_loloha_obs(k, params, workers, &reg).expect("valid params");
    let mut sub = pipe.handle().batching(DEFAULT_BATCH_REPORTS);
    let midpoint = anon.len() / 2;
    for (i, r) in anon.iter().enumerate() {
        if i == midpoint {
            // Halfway through the stream: hand the buffered reports to
            // the workers, then peek without closing the round.
            sub.flush().expect("workers alive");
            let snap = pipe.snapshot().expect("workers alive");
            let (screen, freq) = top_screen(&snap.estimate);
            println!(
                "  after {} of {} reports: provisional top screen {screen} ({freq:.3})",
                snap.reports,
                anon.len()
            );
            // Durability drill: checkpoint, "crash", restore, continue.
            let before = routed();
            assert_eq!(
                before, midpoint as u64,
                "telemetry saw every pre-crash submission"
            );
            let bytes = encode_checkpoint(&pipe.checkpoint().expect("workers alive"));
            drop(pipe);
            pipe = IngestPipeline::for_loloha_obs(k, params, workers, &reg).expect("valid params");
            pipe.restore(&decode_checkpoint(&bytes).expect("own checkpoint decodes"))
                .expect("dimensions match");
            // Restoring replays saved *state*, never telemetry: the
            // counter neither resets nor double-counts.
            assert_eq!(
                routed(),
                before,
                "restart drill must not disturb the counters"
            );
            sub = pipe.handle().batching(DEFAULT_BATCH_REPORTS);
            println!(
                "  checkpointed {} bytes, restarted the pipeline, resumed mid-round",
                bytes.len()
            );
        }
        let pre = Preimages::build(&r.hash, k);
        sub.submit(i as u64, pre.cell(r.cell).iter().map(|&v| v as usize))
            .expect("preimages lie in the domain");
    }
    sub.finish().expect("workers alive");
    let final_round = pipe.finish_round().expect("workers alive");
    let (screen, freq) = top_screen(&final_round.estimate);
    println!(
        "  final ({} reports): top screen {screen} ({freq:.3})",
        final_round.reports
    );
    let central = amplified_epsilon(params.eps_first(), n as u64, 1e-6).expect("amplifiable");
    println!(
        "  each eps_1 = {:.2} report is ({:.4}, 1e-6)-central-DP after shuffling",
        params.eps_first(),
        central
    );

    // --- Operator telemetry panel --------------------------------------
    // Every report the round submitted is accounted for, across the
    // restart; the rendered snapshot is the registry's full contents
    // (operational aggregates only — no report ever reaches a metric).
    assert_eq!(
        routed(),
        anon.len() as u64,
        "telemetry accounts every submission end to end"
    );
    println!("\ntelemetry ({} metrics registered):", reg.len());
    for line in reg.snapshot().render_text().lines() {
        println!("  {line}");
    }
}

fn top_screen(estimate: &[f64]) -> (usize, f64) {
    estimate
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty")
}
