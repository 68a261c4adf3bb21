#![warn(missing_docs)]

//! Logic simulation for gate-level sequential netlists.
//!
//! Three simulation flavours, each matched to a consumer in the workspace:
//!
//! * **Scalar two-valued** ([`comb::eval_scalar`], [`seq::SeqSim`]) — one
//!   pattern at a time, used by the sequential trajectory simulation that
//!   drives built-in test generation (Chapter 4 of the paper), by the
//!   per-cycle activity profiles of [`activity`], and as the oracle of the
//!   multi-lane simulator.
//! * **Bit-parallel two-valued** ([`comb::eval_packed`]) — 64 patterns per
//!   machine word, the throughput kernel behind broadside fault simulation;
//!   [`lanes::LaneSeqSim`] lifts it to sequential trajectories, evaluating
//!   up to 64 speculative candidates — or 64 functional sequences of the
//!   `SWAfunc` estimate ([`activity::peak_activity`]) — per levelized pass.
//! * **Scalar three-valued** ([`tv`]) — 0/1/X simulation used for primary
//!   input cube computation, necessary assignments and case analysis.
//!
//! The hot paths of all three flavours are served by [`kernel`]: a cached,
//! per-circuit compiled bytecode program (gate kind and inversions as
//! branch-free masks, a level schedule, fault-site patch slots, dual-rail
//! three-valued evaluation) that is pinned bit-identical to the
//! interpreters above by differential suites. The interpreters remain
//! the oracles.
//!
//! [`Bits`] is the packed bitvector used for states, input vectors and
//! responses throughout the workspace.

pub mod activity;
mod bits;
pub mod comb;
pub mod kernel;
pub mod lanes;
pub mod reset;
pub mod seq;
pub mod tv;

pub use bits::Bits;
pub use tv::Trit;
