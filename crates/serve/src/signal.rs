//! Graceful-shutdown signals without a libc crate.
//!
//! The workspace carries no external dependencies, so SIGINT/SIGTERM
//! handling goes through a raw `extern "C"` declaration of `signal(2)`.
//! The handler does the only thing that is async-signal-safe in Rust:
//! store a flag into a static atomic. The accept loop checks that flag
//! each time its `poll(2)` wait for a connection ends: at once when the
//! signal interrupts the wait on the accept thread (the kernel never
//! restarts `poll`), otherwise within [`crate::SHUTDOWN_CHECK`]. Then it
//! drains.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; read by the accept loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Installs SIGINT (ctrl-c) and SIGTERM handlers that request a graceful
/// drain, and returns the flag they set. On non-Unix targets no handler
/// is installed and the flag only trips via [`request_shutdown`].
pub fn install() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_signal(_signum: i32) {
            SHUTDOWN.store(true, Ordering::Release);
        }
        let handler = on_signal as *const () as usize;
        // SAFETY: `signal` is the POSIX libc function the process is
        // already linked against; the handler only touches an atomic.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
    &SHUTDOWN
}

/// Trips the shutdown flag from ordinary code (tests, non-Unix targets).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::Release);
}

/// Whether a shutdown has been requested.
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::Acquire)
}
