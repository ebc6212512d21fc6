//! Kill-and-resume drills for the resumable sweep (ISSUE acceptance:
//! a killed run resumes at the next incomplete cell and ends
//! byte-identical to an uninterrupted run; a finished run re-invoked is
//! a no-op; a checkpoint from a different config is a typed mismatch).

use ldp_harness::{ExperimentRunner, HarnessError, RunnerConfig};
use ldp_primitives::codec::CodecError;
use std::path::PathBuf;

/// Tiny but non-trivial sweep: 1 dataset × 2 methods × 2 ε × 1 α = 4
/// cells, 1 run each, at smoke scale.
fn smoke_config(out_dir: PathBuf) -> RunnerConfig {
    let mut cfg = RunnerConfig::default();
    for (key, value) in [
        ("name", "resume-drill"),
        ("dataset", "syn"),
        ("methods", "biloloha,rappor"),
        ("eps", "0.5,1.0"),
        ("alphas", "0.5"),
        ("runs", "1"),
        ("n_frac", "0.02"),
        ("tau_frac", "0.05"),
        ("threads", "1"),
    ] {
        cfg.apply(key, value).unwrap();
    }
    cfg.out_dir = out_dir;
    cfg
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldp_harness_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn killed_run_resumes_byte_identical_to_uninterrupted() {
    let dir_a = temp_dir("uninterrupted");
    let dir_b = temp_dir("interrupted");

    // Reference: one uninterrupted sweep.
    let runner_a = ExperimentRunner::new(smoke_config(dir_a.clone())).unwrap();
    let sweep_a = runner_a.run_sweep().unwrap();
    assert_eq!(sweep_a.executed, 4);
    assert_eq!(sweep_a.restored, 0);

    // "Killed" run: one cell per invocation, fresh runner each time (a
    // real kill loses all in-memory state; only the checkpoint survives).
    let mut invocations = 0;
    loop {
        let runner_b = ExperimentRunner::new(smoke_config(dir_b.clone())).unwrap();
        let step = runner_b.sweep_up_to(1).unwrap();
        invocations += 1;
        assert!(step.executed <= 1);
        if step.executed == 0 {
            assert_eq!(step.restored, 4, "final invocation restores every cell");
            break;
        }
        assert!(
            invocations <= 5,
            "sweep must converge in grid-size + 1 steps"
        );
    }
    assert_eq!(invocations, 5, "4 computing invocations + 1 no-op");

    // Same cells, bit for bit…
    let runner_b = ExperimentRunner::new(smoke_config(dir_b.clone())).unwrap();
    let sweep_b = runner_b.run_sweep().unwrap();
    assert_eq!(sweep_b.cells.len(), sweep_a.cells.len());
    for (a, b) in sweep_a.cells.iter().zip(&sweep_b.cells) {
        assert!(
            a.bits_eq(b),
            "{}/{:?} diverged across the kill",
            a.dataset,
            a.method
        );
    }
    // …and the same checkpoint bytes on disk.
    let ckpt_a = std::fs::read(runner_a.config().checkpoint_path()).unwrap();
    let ckpt_b = std::fs::read(runner_b.config().checkpoint_path()).unwrap();
    assert_eq!(
        ckpt_a, ckpt_b,
        "interruption pattern must not leak into the checkpoint"
    );

    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn finished_run_reinvoked_is_a_noop() {
    let dir = temp_dir("noop");
    let runner = ExperimentRunner::new(smoke_config(dir.clone())).unwrap();

    let first = runner.run().unwrap();
    assert_eq!(first.sweep.executed, 4);
    assert!(first.wrote_doc);
    let doc_bytes = std::fs::read(&first.doc_path).unwrap();

    let second = runner.run().unwrap();
    assert_eq!(second.sweep.executed, 0, "no cell recomputed");
    assert_eq!(second.sweep.restored, 4);
    assert!(!second.wrote_doc, "valid results document left untouched");
    assert_eq!(
        std::fs::read(&second.doc_path).unwrap(),
        doc_bytes,
        "results document bytes unchanged by the rerun"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_from_a_different_config_is_a_typed_mismatch() {
    let dir = temp_dir("foreign");
    let runner = ExperimentRunner::new(smoke_config(dir.clone())).unwrap();
    runner.sweep_up_to(1).unwrap();

    // Same name/out_dir (same checkpoint file), different master seed —
    // a different sweep. Must refuse, not resume.
    let mut foreign = smoke_config(dir.clone());
    foreign.apply("seed", "999").unwrap();
    let err = ExperimentRunner::new(foreign)
        .unwrap()
        .run_sweep()
        .unwrap_err();
    assert!(
        matches!(err, HarnessError::Codec(CodecError::Mismatch(_))),
        "expected a fingerprint mismatch, got {err:?}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
