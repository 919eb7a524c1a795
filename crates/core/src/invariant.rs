//! The audited panic chokepoint for library code.
//!
//! Lint rule **L4** (clippy's `unwrap_used`/`expect_used`/`panic`/
//! `unreachable`, denied at every library crate root) forbids those in the
//! library crates: a violated internal invariant should fail through one
//! place, with a message that says *which invariant* broke, and
//! `#[track_caller]` so the report points at the call site rather than this
//! module. [`invariant_violated`] is the one audited exception to L4.
//!
//! These helpers are for conditions the code itself guarantees (a child
//! pointer an internal node must have, a heap that cannot be empty). They
//! are not error handling — fallible conditions should return `Option` /
//! `Result` to the caller.

/// Unwraps an `Option` the surrounding code guarantees is `Some`.
#[track_caller]
pub fn expect_some<T>(value: Option<T>, what: &str) -> T {
    match value {
        Some(v) => v,
        None => invariant_violated(what),
    }
}

/// Unwraps a `Result` the surrounding code guarantees is `Ok`.
#[track_caller]
pub fn expect_ok<T, E: std::fmt::Debug>(value: Result<T, E>, what: &str) -> T {
    match value {
        Ok(v) => v,
        Err(e) => invariant_violated(&format!("{what}: {e:?}")),
    }
}

/// Reports a violated invariant and aborts the computation.
#[track_caller]
#[expect(clippy::panic, reason = "the audited panic choke point")]
pub fn invariant_violated(what: &str) -> ! {
    panic!("internal invariant violated: {what}")
}

/// Chain-friendly form of [`expect_some`] / [`expect_ok`], for the end of
/// iterator and accessor chains.
pub trait InvariantExt<T> {
    /// Unwraps a value the surrounding code guarantees is present.
    fn expect_invariant(self, what: &str) -> T;
}

impl<T> InvariantExt<T> for Option<T> {
    #[track_caller]
    fn expect_invariant(self, what: &str) -> T {
        expect_some(self, what)
    }
}

impl<T, E: std::fmt::Debug> InvariantExt<T> for Result<T, E> {
    #[track_caller]
    fn expect_invariant(self, what: &str) -> T {
        expect_ok(self, what)
    }
}

/// `assert!` for internal invariants: routes through
/// [`invariant_violated`] so the failure message is uniform and the
/// location is the caller's.
#[macro_export]
macro_rules! invariant {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            $crate::invariant::invariant_violated(&format!($($arg)+));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expect_some_passes_values_through() {
        assert_eq!(expect_some(Some(7), "present"), 7);
    }

    #[test]
    #[should_panic(expected = "internal invariant violated: missing child")]
    fn expect_some_reports_the_invariant() {
        expect_some::<u32>(None, "missing child");
    }

    #[test]
    fn expect_ok_passes_values_through() {
        let r: Result<u32, String> = Ok(3);
        assert_eq!(expect_ok(r, "fine"), 3);
    }

    #[test]
    #[should_panic(expected = "internal invariant violated: parse: \"bad\"")]
    fn expect_ok_includes_the_error() {
        let r: Result<u32, String> = Err("bad".into());
        expect_ok(r, "parse");
    }

    #[test]
    #[should_panic(expected = "internal invariant violated: empty chain")]
    fn expect_invariant_works_on_chains() {
        let v: Vec<u32> = vec![];
        v.iter().max().expect_invariant("empty chain");
    }

    #[test]
    fn invariant_macro_is_silent_when_upheld() {
        crate::invariant!(1 + 1 == 2, "arithmetic broke");
    }

    #[test]
    #[should_panic(expected = "internal invariant violated: count was 3")]
    fn invariant_macro_formats_its_message() {
        let count = 3;
        crate::invariant!(count == 0, "count was {count}");
    }
}
