//! **dbgw-workload** — deterministic dataset and workload generators for the
//! benchmark harness.
//!
//! Two application domains from the paper drive every experiment:
//!
//! * [`urldb`] — the URL directory of the running example (Figures 2/3/7/8
//!   and Appendix A): a table `urldb(url, title, description)` plus search
//!   strings with a controlled hit fraction.
//! * [`shop`] — the customer/product order-entry domain of §3.1.3
//!   (`custid`, `product_name LIKE 'bikes%'`).
//!
//! All generation is seeded ([`seed`]): the same parameters always produce
//! the same data, so benchmark runs are comparable.

#![warn(missing_docs)]

pub mod seed;
pub mod shop;
pub mod text;
pub mod urldb;
pub mod zipf;

pub use seed::rng;
pub use urldb::{ScanFixture, UrlDirectory};
pub use zipf::Zipf;
