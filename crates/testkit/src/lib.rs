//! `multipath-testkit` — zero-dependency test support for the workspace.
//!
//! The simulator's experiments must be reproducible bit-for-bit on any
//! machine with nothing but a Rust toolchain, so the workspace carries no
//! external crates at all. This crate supplies what the test suite used
//! to pull from crates.io:
//!
//! - [`TestRng`]: a deterministic xoshiro256**/SplitMix64 generator
//!   (replacing `rand`),
//! - [`prop_test!`]: a property-test macro running N random cases with
//!   shrink-by-halving on failure (replacing `proptest`),
//! - [`Json`]: a minimal JSON parser for round-tripping the workspace's
//!   hand-rendered reports and traces (replacing `serde_json`),
//! - [`http`]: a minimal blocking HTTP/1.1 client for loopback tests of
//!   `multipath serve` (replacing `reqwest`/`ureq`).
//!
//! # Examples
//!
//! ```
//! use multipath_testkit::TestRng;
//!
//! let mut a = TestRng::new(42);
//! let mut b = TestRng::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

#![deny(missing_docs)]

pub mod http;
pub mod json;
pub mod prop;
pub mod rng;
pub mod shrink;

pub use http::HttpResponse;
pub use json::Json;
pub use rng::{mix64, SplitMix64, TestRng};
pub use shrink::Shrink;
