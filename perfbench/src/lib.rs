//! End-to-end benchmark of the solve daemon, with a per-layer ledger.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <serve-hot|serve-mixed|paper-cg> --seed <n> --seconds <s> --trace <0|1>`
//! starts an in-process `mffv_serve` daemon with its default configuration,
//! drives it over loopback with a seeded job stream, checks every result,
//! and prints its metrics; the last line of standard output is one JSON
//! object.  See `README.md` in this directory.

// Timing is this crate's purpose: the workspace's wall-clock lint, which
// keeps clock reads out of the solver's deterministic paths, does not apply.
#![allow(clippy::disallowed_methods)]

pub mod alloc;
pub mod bench;
pub mod drive;
pub mod gen;
pub mod header;
pub mod layers;
pub mod ledger;
pub mod stats;
pub mod verify;
