//! The trusted back-end storage system ("Data Lake") of the platform.
//!
//! §II-B: "After successful validation, the data is de-identified and
//! stored in the backend storage system (Data Lake) with a reference-id,
//! and the reference-id to identity the mapping is stored in the
//! metadata." §IV-B1: "Both the original and anonymized versions of data
//! objects are encrypted and stored."
//!
//! * [`wal`] — a write-ahead log of CRC-protected, length-prefixed
//!   records, one shared frame each, with corruption-detecting replay;
//!   the durability substrate, and the only owner of stored bytes.
//! * [`datalake`] — the versioned object store: reference-id addressing,
//!   the confidential reference-id → patient identity mapping, a tag
//!   metadata index, hot/cold tiering with simulated access latency, and
//!   tombstone + purge secure deletion (pairing with KMS crypto-shredding).
//!
//! # Examples
//!
//! ```
//! use hc_storage::datalake::{DataLake, Tier};
//! use hc_common::clock::SimClock;
//!
//! let mut lake = DataLake::new(SimClock::new());
//! let mut rng = hc_common::rng::seeded(1);
//! let rid = lake.put(&mut rng, b"sealed bytes".to_vec(), &[("kind", "observation")]);
//! assert_eq!(lake.get_latest(rid).unwrap().data, b"sealed bytes");
//! assert_eq!(lake.find_by_tag("kind", "observation"), vec![rid]);
//! ```

#![forbid(unsafe_code)]

pub mod datalake;
pub mod wal;
