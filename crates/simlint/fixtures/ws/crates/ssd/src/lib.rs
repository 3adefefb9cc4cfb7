// Fixture: determinism + unit-safety violations in a simulator-state
// crate (`ssd`). Expected findings:
//   nondeterministic_collection x2 (HashMap, HashSet — one mention each)
//   bare_cast x2 (`as u64`, `as f64`)
//   lock_order x1 (`backward` closes the alpha/beta cycle opened in the
//   interconnect fixture — the graph is workspace-wide)
// `LinkedHashMap` must NOT fire (left word boundary), and the casts in
// the comment / string literal below must NOT fire (cleaned text).
// `admit` adds no findings of its own: it is the cross-crate callee the
// core fixture passes a bytes value to, proving the unit pass checks
// call arguments through the workspace symbol index. `respects_drop`
// and `safe_nest` must NOT fire: an explicit `drop` releases the guard
// before the second acquisition, and a consistently-ordered pair is
// acyclic.
pub type Map = std::collections::HashMap<u64, u64>;
pub type Set = std::collections::HashSet<u64>;

pub struct LinkedHashMapLike;

pub fn widen(x: u32) -> u64 {
    x as u64
}

pub fn ratio(x: u32) -> f64 {
    x as f64
}

pub fn innocuous() -> &'static str {
    // not a cast: 1 as u64 inside a comment
    "also not a cast: 2 as u64"
}

pub fn admit(deadline_ns: u64) -> u64 {
    deadline_ns
}

use std::sync::Mutex;

pub fn backward(alpha: &Mutex<u32>, beta: &Mutex<u32>) {
    let gb = beta.lock();
    let ga = alpha.lock();
    drop(ga);
    drop(gb);
}

pub fn respects_drop(alpha: &Mutex<u32>, beta: &Mutex<u32>) {
    let gb = beta.lock();
    drop(gb);
    let ga = alpha.lock();
    drop(ga);
}

pub fn safe_nest(gamma: &Mutex<u32>, delta: &Mutex<u32>) {
    let gg = gamma.lock();
    let gd = delta.lock();
    drop(gd);
    drop(gg);
}

// Hot-path fixture: `SsdDevice::serve` (the request loop) is a declared
// hot root, so the `vec![]` inside its loop is a per-event
// `hotpath_alloc` finding (exactly one). The hoisted `scratch` reuse via
// `clear`/`push` must NOT fire — amortized growth of a pre-existing
// buffer is the clean idiom.
pub mod qos {
    pub struct SsdDevice {
        pub scratch: Vec<u8>,
    }

    impl SsdDevice {
        pub fn serve(&mut self) -> usize {
            let mut total = 0;
            for i in 0..4usize {
                let frame = vec![0u8; 16];
                self.scratch.clear();
                self.scratch.push(0u8);
                total += frame.len() + self.scratch.len() + i;
            }
            total
        }
    }
}
