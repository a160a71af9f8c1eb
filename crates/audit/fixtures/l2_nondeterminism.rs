//! Known-bad L2 fixtures: exact float comparisons in seeded code.
//!
//! Hash collections, ad-hoc threads and clock reads are banned by clippy's
//! `disallowed_types` and `disallowed_methods` instead (see clippy.toml).

fn converged(loss: f64) -> bool {
    // BAD: exact float comparison.
    loss == 0.0
}

fn changed(delta: f64) -> bool {
    // BAD: exact float inequality.
    delta != 0.0
}
