// Fixture: violations only the semantic passes can see: each needs
// dataflow across statements, functions or crates. The selftest pins
// each finding. Expected findings:
//   unit_mismatch x4  (ns + bytes addition; a `_ns` local initialised
//                      with a bytes value; a bytes value passed for the
//                      `deadline_ns` parameter of `admit` in the ssd
//                      fixture — cross-crate via the symbol index; a
//                      `_ns` struct field initialised in bytes)
// Negative the pass must NOT flag: `len_bytes * 8 / t_ns` changes
// dimension.
pub fn budget_left(t_ns: u64, len_bytes: u64) -> u64 {
    t_ns + len_bytes
}

pub fn deadline(len_bytes: u64) -> u64 {
    let deadline_ns = len_bytes;
    deadline_ns
}

pub fn submit(len_bytes: u64) -> u64 {
    ssd::admit(len_bytes)
}

pub struct Window {
    pub start_ns: u64,
}

pub fn window(len_bytes: u64) -> Window {
    Window {
        start_ns: len_bytes,
    }
}

pub fn bandwidth(len_bytes: u64, t_ns: u64) -> u64 {
    len_bytes * 8 / t_ns
}
