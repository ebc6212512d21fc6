//! Minimal SIGTERM latch for the `collectd` binary path.
//!
//! The daemon drains gracefully on SIGTERM. The runtime has no safe
//! std-only signal API, so this module carries the workspace's one
//! unsafe block: registering a handler that does nothing but store into
//! a static `AtomicBool` (the only async-signal-safe action a handler
//! may take). The daemon's latch watcher polls it every tick and wakes
//! the blocking accept loop with a connection to the daemon's own
//! address.
//!
//! On non-Unix targets the latch exists but never fires; the in-band
//! `Shutdown` frame remains the portable drain trigger.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler when SIGTERM (or SIGINT) is delivered.
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has been delivered since
/// [`install_term_handler`] ran.
pub fn term_requested() -> bool {
    TERM_REQUESTED.load(Ordering::SeqCst)
}

/// Test/driver hook: raise the latch programmatically (what the signal
/// handler itself does), so drain-on-signal paths are testable without
/// delivering a real signal.
pub fn request_term() {
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

/// Clears the latch (between daemon runs in one process).
pub fn reset_term() {
    TERM_REQUESTED.store(false, Ordering::SeqCst);
}

#[cfg(unix)]
mod imp {
    use super::TERM_REQUESTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_term(_signum: i32) {
        // Storing into an atomic is async-signal-safe; nothing else is
        // allowed here.
        TERM_REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Registers the latch for SIGTERM and SIGINT.
    pub fn install_term_handler() {
        // SAFETY: `signal(2)` with a handler that only stores to a
        // static atomic; both arguments are valid for the platform ABI
        // and the handler performs only async-signal-safe work.
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
            signal(SIGINT, on_term as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signal delivery on this target; the latch only moves through
    /// [`super::request_term`].
    pub fn install_term_handler() {}
}

pub use imp::install_term_handler;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_moves_through_the_programmatic_hook() {
        reset_term();
        assert!(!term_requested());
        request_term();
        assert!(term_requested());
        reset_term();
        assert!(!term_requested());
    }
}
