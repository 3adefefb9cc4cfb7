// Fixture: no findings of its own. `admit` is the cross-crate callee
// the core fixture passes a bytes value to, proving the unit pass
// checks call arguments through the workspace symbol index.
pub fn admit(deadline_ns: u64) -> u64 {
    deadline_ns
}
