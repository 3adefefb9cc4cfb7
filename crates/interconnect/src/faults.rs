//! Link-level fault injection: CRC errors, bounded-backoff replay and
//! link retrains on the host interconnect.
//!
//! PCIe and SATA both guarantee delivery at the link layer: a transfer
//! hit by a CRC error is *replayed*, not lost, so faults show up as
//! added latency, never as data loss. This module models that — each
//! host-link transfer may be struck by a CRC error (Bernoulli, from the
//! plan's dedicated `STREAM_LINK` stream), forcing a re-transfer plus a
//! bounded exponential backoff; every `retrain_every`-th error forces a
//! full link retrain (speed renegotiation), which stalls the lane for
//! much longer.
//!
//! Determinism: draws happen in transfer order from a split stream, and
//! a zero-rate profile never advances the stream (see
//! [`nvmtypes::fault::FaultRng::gen_bool`]), keeping
//! [`LinkFaultProfile::none`] runs byte-identical to pre-fault builds.

use nvmtypes::fault::{FaultRng, LinkFaultProfile};
use nvmtypes::Nanos;
use simobs::Metric;

/// Cap on the exponential-backoff shift so pathological `max_replays`
/// configs cannot overflow the shift.
const MAX_BACKOFF_SHIFT: u32 = 16;

/// Accumulated link-fault accounting for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaultStats {
    /// CRC errors detected (each forces one replay).
    pub crc_errors: u64,
    /// Transfer replays performed.
    pub replays: u64,
    /// Time lost to re-transfers and backoff, ns.
    pub replay_ns: Nanos,
    /// Link retrains performed.
    pub retrains: u64,
    /// Time lost to retrains, ns.
    pub retrain_ns: Nanos,
}

impl LinkFaultStats {
    /// Total time the link faults cost, ns.
    pub fn total_ns(&self) -> Nanos {
        self.replay_ns + self.retrain_ns
    }
}

/// Per-run link fault process over one host link (or chain).
#[derive(Debug, Clone)]
pub struct LinkFaultSim {
    profile: LinkFaultProfile,
    rng: FaultRng,
    stats: LinkFaultStats,
}

impl LinkFaultSim {
    /// Builds the process; `rng` should be the `STREAM_LINK` split of
    /// the plan's root generator.
    pub fn new(profile: LinkFaultProfile, rng: FaultRng) -> LinkFaultSim {
        LinkFaultSim {
            profile,
            rng,
            stats: LinkFaultStats::default(),
        }
    }

    /// Samples the fault process for one transfer whose clean duration
    /// is `base_ns`; returns the *extra* nanoseconds the transfer costs
    /// (0 when the transfer goes through first try).
    ///
    /// Each replay re-arms the error process, but the ladder is bounded
    /// by `max_replays`: after that many replays the link layer is
    /// assumed to have pushed the transfer through (delivery is
    /// guaranteed; only latency is at stake).
    pub fn transfer_penalty(&mut self, base_ns: Nanos) -> Nanos {
        if self.profile.is_none() {
            return 0;
        }
        let mut extra: Nanos = 0;
        let mut attempt: u32 = 0;
        while attempt < self.profile.max_replays && self.rng.gen_bool(self.profile.crc_error_prob) {
            self.stats.crc_errors += 1;
            self.stats.replays += 1;
            let backoff = self.profile.replay_backoff_ns << attempt.min(MAX_BACKOFF_SHIFT);
            let replay_cost = base_ns + backoff;
            extra += replay_cost;
            self.stats.replay_ns += replay_cost;
            if self.profile.retrain_every > 0
                && self
                    .stats
                    .crc_errors
                    .is_multiple_of(self.profile.retrain_every)
            {
                self.stats.retrains += 1;
                extra += self.profile.retrain_ns;
                self.stats.retrain_ns += self.profile.retrain_ns;
            }
            attempt += 1;
        }
        extra
    }

    /// [`LinkFaultSim::transfer_penalty`] plus a [`simobs::Layer::Link`]
    /// span over the replay window when tracing is enabled. `start` is
    /// when the clean transfer would have completed: the penalty
    /// nanoseconds are appended there. The tracer observes the sampled
    /// penalty and feeds nothing back, so enabling it cannot perturb the
    /// fault stream.
    pub fn transfer_penalty_traced(
        &mut self,
        base_ns: Nanos,
        start: Nanos,
        obs: &mut simobs::Tracer,
    ) -> Nanos {
        let before = self.stats;
        let extra = self.transfer_penalty(base_ns);
        if extra > 0 && obs.enabled() {
            obs.span(
                simobs::Layer::Link,
                "link_replay",
                start,
                start + extra,
                [
                    ("replays", self.stats.replays - before.replays),
                    ("retrains", self.stats.retrains - before.retrains),
                ],
            );
            obs.count(Metric::LinkReplays, self.stats.replays - before.replays);
            obs.count(Metric::LinkRetrains, self.stats.retrains - before.retrains);
            obs.count(Metric::LinkPenaltyNs, extra);
        }
        extra
    }

    /// The accounting so far.
    pub fn stats(&self) -> LinkFaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmtypes::fault::{FaultPlan, STREAM_LINK};

    fn rng() -> FaultRng {
        FaultPlan {
            seed: 17,
            ..FaultPlan::none()
        }
        .rng()
        .split(STREAM_LINK)
    }

    #[test]
    fn zero_profile_costs_nothing_and_consumes_nothing() {
        let mut sim = LinkFaultSim::new(LinkFaultProfile::none(), rng());
        for _ in 0..100 {
            assert_eq!(sim.transfer_penalty(10_000), 0);
        }
        assert_eq!(sim.stats(), LinkFaultStats::default());
        let fresh = LinkFaultSim::new(LinkFaultProfile::none(), rng());
        assert_eq!(sim.rng, fresh.rng, "stream advanced on zero rate");
    }

    #[test]
    fn penalties_are_deterministic() {
        let profile = LinkFaultProfile {
            crc_error_prob: 0.2,
            retrain_every: 4,
            ..LinkFaultProfile::none()
        };
        let mut a = LinkFaultSim::new(profile, rng());
        let mut b = LinkFaultSim::new(profile, rng());
        for i in 0..500u64 {
            assert_eq!(a.transfer_penalty(1_000 + i), b.transfer_penalty(1_000 + i));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(
            a.stats().crc_errors > 0,
            "rate 0.2 should fire in 500 tries"
        );
    }

    #[test]
    fn replays_are_bounded_even_at_certain_error() {
        let profile = LinkFaultProfile {
            crc_error_prob: 1.0,
            max_replays: 3,
            replay_backoff_ns: 100,
            retrain_every: 0,
            retrain_ns: 0,
        };
        let mut sim = LinkFaultSim::new(profile, rng());
        let extra = sim.transfer_penalty(1_000);
        // 3 replays: re-transfer each, backoff 100, 200, 400.
        assert_eq!(extra, 3 * 1_000 + 100 + 200 + 400);
        assert_eq!(sim.stats().replays, 3);
    }

    #[test]
    fn retrain_fires_every_nth_error() {
        let profile = LinkFaultProfile {
            crc_error_prob: 1.0,
            max_replays: 1,
            replay_backoff_ns: 0,
            retrain_every: 2,
            retrain_ns: 1_000_000,
        };
        let mut sim = LinkFaultSim::new(profile, rng());
        let mut total = 0;
        for _ in 0..6 {
            total += sim.transfer_penalty(500);
        }
        assert_eq!(sim.stats().crc_errors, 6);
        assert_eq!(sim.stats().retrains, 3);
        assert_eq!(total, 6 * 500 + 3 * 1_000_000);
        assert_eq!(sim.stats().total_ns(), total);
    }
}
