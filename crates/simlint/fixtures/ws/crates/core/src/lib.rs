// Fixture: violations only the AST engine and the semantic passes can
// see. No single line carries a whole violating token sequence, so a
// substring scan of each line would find NOTHING here; the selftest
// pins each finding's line. Expected findings:
//   no_panic x1       (an `.unwrap()` split across lines: no single
//                      line carries the `.unwrap()` token)
//   thread_spawn x1   (`spawn` called through a `use`-alias: the
//                      `thread::spawn(` token never appears)
//   nondet_taint x3   (SystemTime through a local into a pub return;
//                      an env::var read crossing a private fn into a
//                      pub return; a tainted value into `Tracer::count`)
//   unit_mismatch x4  (ns + bytes addition; a `_ns` local initialised
//                      with a bytes value; a bytes value passed for the
//                      `deadline_ns` parameter of `admit` in the ssd
//                      fixture — cross-crate via the symbol index; a
//                      `_ns` struct field initialised in bytes)
// Negatives the passes must NOT flag: `EventKind::Instant` is an enum
// tag, not a clock source; `len_bytes * 8 / t_ns` changes dimension.
use std::thread::spawn as pool_escape;

pub fn hidden_unwrap(v: Option<u32>) -> u32 {
    v.unwrap
        ()
}

pub fn sneaky_worker() {
    let h = pool_escape(|| ());
    drop(h);
}

pub fn stamp_seed(epoch_ns: u64) -> u64 {
    let t = std::time::SystemTime::now();
    let skew = u64::from(t.elapsed().is_err());
    epoch_ns + skew
}

fn knob() -> usize {
    let raw = std::env::var("OOC_THREADS");
    raw.map(|v| v.len()).unwrap_or(1)
}

pub fn worker_count() -> usize {
    knob()
}

pub struct Tracer;

impl Tracer {
    pub fn count(&mut self, value: u64) {
        let _sunk = value;
    }
}

pub fn log_latency(obs: &mut Tracer) {
    let t = std::time::SystemTime::now();
    obs.count(t);
}

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

pub enum EventKind {
    Instant,
    Span,
}

pub fn classify() -> EventKind {
    EventKind::Instant
}

pub fn bandwidth(len_bytes: u64, t_ns: u64) -> u64 {
    len_bytes * 8 / t_ns
}
