//! Fixture for `stale-waiver`: a waiver that still suppresses a finding
//! is honoured silently; one whose lint no longer fires is itself
//! reported, so the suppression ledger cannot rot.

fn used_waiver(xs: &[u8]) -> u8 {
    // audit: allow(index-literal, reason = "fixture: demonstrates a waiver doing real work")
    xs[0]
}

// audit: allow(float-eq, reason = "fixture: the comparison this covered was deleted")
fn stale_waiver_site(a: u8) -> u8 {
    a.wrapping_add(1)
}
