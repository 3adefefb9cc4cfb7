// Fixture: lock-order violations in a simulator crate (`interconnect`).
// Expected findings:
//   lock_order x2 (the direct alpha->beta nesting in `forward` and the
//   interprocedural alpha->beta edge in `forward_via_helper`; the ssd
//   fixture's `backward` supplies the beta->alpha edge that closes the
//   cycle)
// This file is never compiled; simlint reads it as text via `--root`.
use std::sync::Mutex;

pub fn forward(alpha: &Mutex<u32>, beta: &Mutex<u32>) {
    let ga = alpha.lock();
    let gb = beta.lock();
    drop(gb);
    drop(ga);
}

fn grab_beta(beta: &Mutex<u32>) {
    let gb = beta.lock();
    drop(gb);
}

pub fn forward_via_helper(alpha: &Mutex<u32>, beta: &Mutex<u32>) {
    let ga = alpha.lock();
    grab_beta(beta);
    drop(ga);
}
