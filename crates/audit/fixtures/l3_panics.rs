//! Known-bad L3 fixtures: panic paths in library code.
//!
//! `unwrap`, `expect` and `panic!` are caught by clippy's `unwrap_used`,
//! `expect_used` and `panic` instead.

fn first(xs: &[f64]) -> f64 {
    // BAD: literal index panics on empty input.
    xs[0]
}

#[cfg(test)]
mod tests {
    // OK: test code may panic freely.
    #[test]
    fn t() {
        let xs = [1.0];
        assert_eq!(xs[0], super::first(&xs));
    }
}
