//! Runs every figure/table reproduction in sequence with shared flags.
//!
//! `cargo run --release -p ldp-bench --bin run_all -- [flags]`
//!
//! Equivalent to invoking, in order: fig1_optimal_g, fig2_variance,
//! table1_comparison, fig3_mse, fig4_privacy_loss, table2_detection,
//! and the ablations — as separate processes so each binary stays
//! independently runnable.

use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bins = [
        "fig1_optimal_g",
        "fig2_variance",
        "table1_comparison",
        "fig3_mse",
        "fig4_privacy_loss",
        "table2_detection",
        "ablation_g_sweep",
        "ablation_averaging_attack",
        "ablation_thresh",
        "ablation_postprocess",
        "ablation_multidim",
        "ablation_ddrm",
        "attack_asr",
        "ablation_prr_only",
        "ablation_heavyhitters",
    ];
    let exe = std::env::current_exe().expect("current exe path");
    let dir = exe.parent().expect("exe directory");
    let mut failures = Vec::new();
    for bin in bins {
        println!("\n================ {bin} ================\n");
        let path = dir.join(bin);
        let status = Command::new(&path)
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", path.display()));
        if !status.success() {
            failures.push(bin);
        }
    }
    if !failures.is_empty() {
        eprintln!("failed: {failures:?}");
        std::process::exit(1);
    }
    println!("\nall experiments completed");
}
