// Fixture: violations only the semantic passes can see: each needs
// dataflow across statements, functions or crates. The selftest pins
// each finding. Expected findings:
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
