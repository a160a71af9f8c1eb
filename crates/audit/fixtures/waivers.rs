//! Waiver fixtures: one malformed waiver (must be flagged) and one
//! well-formed waiver (must suppress its lint).

fn reasonless(xs: &[f64]) -> f64 {
    // BAD: waiver without a reason is fatal and suppresses nothing.
    // audit: allow(index-literal)
    xs[0]
}

fn justified(xs: &[f64]) -> f64 {
    // audit: allow(index-literal, reason = "caller guarantees a non-empty slice in this fixture")
    xs[0]
}
