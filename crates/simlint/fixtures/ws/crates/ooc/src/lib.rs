// Fixture: the out-of-core crate (`ooc`) is in the taint scope.
// Expected findings:
//   nondet_taint x1 (Instant::now returned from `pub fn unscoped_clock`)
// This file is never compiled; simlint reads it as text via `--root`.
use std::time::Instant;

pub fn unscoped_clock() -> Instant {
    Instant::now()
}
