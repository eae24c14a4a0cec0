//! From-scratch cryptographic substrate for the trusted healthcare cloud.
//!
//! The paper (§IV-B) builds its secure data management on: shared-key
//! encryption over secure channels ("public key encryption is too expensive
//! to maintain the scalability of the system"), HMACs for integrity,
//! Merkle-based and *leakage-free redactable* signatures for sharing parts
//! of HCLS records, digitally signed VM/container images, and a
//! single-tenant key management system with crypto-shredding-style secure
//! deletion. This crate implements each of those building blocks from
//! scratch so the platform has no external, untrusted crypto dependency —
//! mirroring the paper's "container authored in a trusted environment with
//! trusted libraries" argument:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (validated against NIST vectors).
//! * [`hmac`] — RFC 2104 HMAC-SHA-256 (validated against RFC 4231 vectors)
//!   for login tokens, credentials and key derivation.
//! * [`chacha20`] — RFC 8439 ChaCha20 stream cipher (validated against the
//!   RFC test vector).
//! * [`aead`] — RFC 8439 ChaCha20-Poly1305 authenticated encryption with
//!   a synthetic nonce, the paper's recommended shared-key + MAC design
//!   (validated against the RFC vectors and a second implementation).
//! * [`merkle`] — Merkle hash trees with inclusion proofs.
//! * [`ots`] — Lamport one-time signatures and a Merkle many-time signer,
//!   used for image signing and TPM quotes (hash-based, so the whole
//!   platform rests on one primitive).
//! * [`redactable`] — leakage-free redactable signatures in the style of
//!   Kundu et al.: share a subset of a signed record without revealing, or
//!   breaking verification of, the redacted parts.
//! * [`kms`] — single-tenant key management with envelope encryption, key
//!   rotation and crypto-shredding (encryption-based record deletion for
//!   GDPR right-to-forget).
//!
//! # Examples
//!
//! ```
//! use hc_crypto::aead::{SecretKey, seal, open};
//!
//! let key = SecretKey::from_bytes([7u8; 32]);
//! let sealed = seal(&key, b"phi record", b"context");
//! let plain = open(&key, &sealed, b"context").unwrap();
//! assert_eq!(plain, b"phi record");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
mod base64;
pub mod chacha20;
pub mod hmac;
pub mod kms;
pub mod merkle;
pub mod ots;
mod poly1305;
pub mod redactable;
pub mod sha256;

pub use sha256::Digest;
