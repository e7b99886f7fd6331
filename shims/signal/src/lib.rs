//! A deliberately tiny SIGINT latch.
//!
//! The workspace forbids `unsafe` everywhere except this one shim, whose whole
//! job is the two lines that *must* be unsafe: declaring the libc `signal(2)`
//! entry point and installing a handler through it. Everything observable from
//! the outside is safe: [`install`] registers the handler once, the handler
//! sets a process-wide [`AtomicBool`], and [`take`]/[`pending`] read it.
//!
//! Design constraints, in order:
//!
//! * **No dependency.** The build environment has no crates.io access, so the
//!   usual `signal-hook`/`ctrlc` crates are out; this shim stands in for them
//!   the way `shims/rand` stands in for `rand` (see `shims/README.md`).
//! * **Async-signal-safety.** The handler body is a single
//!   [`AtomicBool::store`] with relaxed ordering — no allocation, no locking,
//!   no formatting. Consumers poll the flag from ordinary threads.
//! * **BSD semantics.** glibc's `signal(2)` installs the handler with
//!   `SA_RESTART`, so a process blocked in `read(2)` (the REPL waiting at its
//!   prompt) or `accept(2)` is *not* interrupted — the call restarts and the
//!   flag is only noticed at the next poll. Callers that need prompt delivery
//!   run a small watcher thread; a caller blocked in a call that may never
//!   return has its watcher wake it (`itq serve`'s watcher connects to the
//!   server's own port, so its blocking `accept(2)` returns).
//!
//! On non-unix targets every function is a safe no-op returning `false`, so
//! the surface crate builds unchanged; Ctrl-C then simply terminates the
//! process, which is the pre-shim behaviour everywhere.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler, consumed by [`take`]. Process-wide on purpose: SIGINT
/// is a process-wide event, and a second latch could only ever race the first.
static SIGINT_PENDING: AtomicBool = AtomicBool::new(false);

/// Guards against installing the handler twice; `signal(2)` itself is
/// idempotent here, but re-installation from multiple threads is pointless
/// churn and this keeps [`install`]'s return value meaningful.
static INSTALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::{Ordering, INSTALLED, SIGINT_PENDING};

    /// `SIGINT` is 2 on every unix the workspace targets (POSIX fixes it).
    const SIGINT: i32 = 2;
    /// `signal(2)`'s `SIG_ERR` return value.
    const SIG_ERR: isize = -1;

    extern "C" {
        /// The one FFI declaration in the workspace. glibc's `signal` has BSD
        /// semantics (handler stays installed, syscalls restart); both are
        /// exactly what the latch wants.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
        /// Used only by this shim's unit tests to deliver a synthetic SIGINT
        /// to the current process.
        #[cfg(test)]
        fn raise(signum: i32) -> i32;
    }

    /// The handler proper: async-signal-safe by construction — one relaxed
    /// atomic store, nothing else.
    extern "C" fn on_sigint(_signum: i32) {
        SIGINT_PENDING.store(true, Ordering::Relaxed);
    }

    pub(super) fn install() -> bool {
        if INSTALLED.swap(true, Ordering::SeqCst) {
            return true;
        }
        // SAFETY: `signal` is the documented libc entry point; `on_sigint` is
        // a valid `extern "C" fn(i32)` for the whole program lifetime (it is a
        // plain fn item, not a closure), and its body is async-signal-safe.
        let previous = unsafe { signal(SIGINT, on_sigint) };
        if previous == SIG_ERR {
            INSTALLED.store(false, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Test-only: deliver SIGINT to ourselves synchronously. `raise` returns
    /// after the handler has run on this thread, so the flag is observable
    /// immediately — no sleep/retry loop needed in tests.
    #[cfg(test)]
    pub(super) fn raise_sigint() {
        // SAFETY: `raise` is the documented libc entry point and SIGINT has a
        // handler installed by the calling test; delivering a signal to our
        // own process is well-defined.
        let rc = unsafe { raise(SIGINT) };
        assert_eq!(rc, 0, "raise(SIGINT) failed");
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn install() -> bool {
        false
    }
}

/// Install the process-wide SIGINT handler. Idempotent: the first call does
/// the `signal(2)` registration, later calls are no-ops that return `true`.
/// Returns `false` when no handler could be installed (non-unix targets, or
/// `signal(2)` reported `SIG_ERR`) — callers should then leave the default
/// terminate-on-Ctrl-C behaviour documented as-is.
pub fn install() -> bool {
    imp::install()
}

/// Consume a pending SIGINT: returns `true` exactly once per delivered
/// signal burst (the flag is swapped to `false`). Multiple SIGINTs between
/// two `take` calls coalesce into one `true`, which is the right semantics
/// for "cancel the current statement".
pub fn take() -> bool {
    SIGINT_PENDING.swap(false, Ordering::Relaxed)
}

/// Peek at the flag without consuming it. Watcher threads use this to decide
/// whether to fan the signal out before a later `take` clears it.
pub fn pending() -> bool {
    SIGINT_PENDING.load(Ordering::Relaxed)
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    // The three tests share one process-wide flag and handler, so they run as
    // a single #[test] to keep their ordering deterministic under the
    // parallel test harness.
    #[test]
    fn install_latch_and_take_roundtrip() {
        assert!(install(), "signal(2) registration failed");
        assert!(install(), "second install must be an idempotent success");

        // Quiescent state: nothing pending, take is false.
        assert!(!pending());
        assert!(!take());

        // A delivered SIGINT latches; pending() peeks without consuming.
        imp::raise_sigint();
        assert!(pending());
        assert!(pending(), "peek must not consume");
        assert!(take(), "first take consumes the latch");
        assert!(!take(), "second take sees the cleared flag");
        assert!(!pending());

        // Two signals before a take coalesce into a single cancellation.
        imp::raise_sigint();
        imp::raise_sigint();
        assert!(take());
        assert!(!take());
    }
}
