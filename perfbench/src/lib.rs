//! Campaign benchmark of record for the TurboFuzz reproduction.
//!
//! Drives the benchmark's workloads through the public
//! [`tf_fuzz::CampaignDriver`] API and measures them from outside the
//! program: end-to-end figures from untraced runs ([`e2e`]), per-layer
//! figures from a separate traced run ([`layers`]) whose spans come from
//! a forwarding device wrapper ([`trace::TimedDut`]), a timestamping
//! event sink and a span-wrapped replica of the jobs-1 worker loop
//! ([`replica`]).

pub mod e2e;
pub mod layers;
pub mod output;
pub mod replica;
pub mod trace;
pub mod workload;
