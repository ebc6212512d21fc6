//! SIGTERM drains an idle daemon.
//!
//! The accept loop blocks in `accept`, so a daemon with no client only
//! notices the signal latch through its latch watcher's wake
//! connection. The latch is process-global, which is why this test has
//! a binary of its own: raised in a shared binary, it would drain every
//! other test's daemon too.

use ldp_netd::{request_term, reset_term, Collectd, DaemonConfig};
use ldp_obs::MetricsRegistry;
use ldp_runtime::Method;
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn term_latch_drains_an_idle_daemon_and_takes_a_final_checkpoint() {
    let dir = std::env::temp_dir().join(format!("ldp_netd_term_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = DaemonConfig::new(Method::BiLoloha, 16, 2.0, 1.0);
    cfg.dir = Some(dir.clone());
    let daemon = Collectd::start(cfg, &MetricsRegistry::new()).unwrap();

    request_term();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(daemon.join());
    });
    let joined = rx.recv_timeout(Duration::from_secs(5));
    reset_term();
    let report = joined
        .expect("the daemon did not drain within 5 s of the latch")
        .unwrap();

    assert!(!report.hard_killed);
    assert_eq!(report.connections_served, 0, "the wake is never served");
    assert!(dir.join("collectd.ckpt").exists(), "no final checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}
