//! Cooperative SIGINT/SIGTERM shutdown for checkpointed runs.
//!
//! A checkpointed `paper` invocation (`--checkpoint-every`, `paper serve`)
//! installs handlers that only set a process-wide flag; the round loop
//! ([`crate::scenario`]) polls it at round boundaries, writes a final
//! checkpoint, and unwinds normally — so a Ctrl-C'd run exits 130 with its
//! state on disk instead of dying mid-write. Plain runs never install the
//! handlers and keep the default kill-me-now semantics.
//!
//! The flag is a plain [`AtomicBool`]: everything here is async-signal-safe
//! (the handler performs a single relaxed-ordering-free store).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

static REQUESTED: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown (SIGINT/SIGTERM, or a test's [`trigger`]) was
/// requested. Checkpointed round loops poll this at round boundaries.
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}

/// Requests a shutdown programmatically — what the signal handler does, and
/// what tests use to exercise the interrupt path deterministically.
pub fn trigger() {
    REQUESTED.store(true, Ordering::SeqCst);
}

/// Clears a previous request. Tests share one process; production code has
/// no reason to un-request a shutdown.
pub fn reset() {
    REQUESTED.store(false, Ordering::SeqCst);
}

/// The conventional exit code for a SIGINT-terminated process (128 + 2).
pub const EXIT_INTERRUPTED: i32 = 130;

/// Serializes tests that manipulate the process-wide flag — [`trigger`]
/// would otherwise interrupt an unrelated checkpointed test mid-run.
#[doc(hidden)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

extern "C" fn on_signal(_signum: i32) {
    trigger();
}

/// Installs the SIGINT/SIGTERM handlers (idempotent). Unix only; elsewhere
/// this is a no-op and runs keep default signal semantics.
pub fn install_handlers() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        // SAFETY: SIGINT and SIGTERM are valid signal numbers, and
        // `on_signal` is an `extern "C"` fn that only stores to an atomic,
        // which is async-signal-safe.
        #[cfg(unix)]
        #[allow(
            unsafe_code,
            reason = "there is no libc crate to wrap signal(2); see the workspace manifest"
        )]
        unsafe {
            // Raw `signal(2)` instead of a libc crate: the sanctioned
            // dependency set has none, and a flag-setting handler needs no
            // sigaction niceties. The return value (previous handler or
            // SIG_ERR) is deliberately ignored — failure to install leaves
            // default semantics, which is the pre-feature behaviour.
            extern "C" {
                fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
            }
            const SIGINT: i32 = 2;
            const SIGTERM: i32 = 15;
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_and_reset_flip_the_flag() {
        let _guard = test_lock();
        reset();
        assert!(!requested());
        trigger();
        assert!(requested());
        reset();
        assert!(!requested());
    }

    #[test]
    fn install_is_idempotent() {
        install_handlers();
        install_handlers();
    }
}
