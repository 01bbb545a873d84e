//! Stable content fingerprints.
//!
//! The hasher itself ([`Fingerprinter`]) lives in
//! [`muppet_logic::fingerprint`] so the solver's incremental engine can
//! key its group index on the same digests (DESIGN.md §13). This
//! module re-exports it for the session layer and the daemon's cache
//! keys.

pub use muppet_logic::fingerprint::{hex, parse_hex, Fingerprinter};
