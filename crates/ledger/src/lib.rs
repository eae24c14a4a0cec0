//! A permissioned blockchain for HCLS data provenance.
//!
//! The paper (§IV, Fig. 6): "Blockchain enables data provenance and
//! ensures data access and consent provenance as required by GDPR and
//! HIPAA. Moreover blockchain supports audit capabilities … The blockchain
//! network we are talking of is a permissioned blockchain system such as
//! Hyperledger." PHI itself is *never* stored on-chain: "it is essential
//! not to store the PHI data on the fully replicated de-centralized
//! ledger" — the chain holds handles, hashes and event metadata.
//!
//! * [`block`] — transactions and hash-chained, Merkle-rooted blocks,
//!   plus the prunable [`block::BlockHeader`] form.
//! * [`consensus`] — a PBFT-style three-phase consensus simulation over a
//!   fixed peer set with crash-fault injection and view changes; it
//!   accounts messages and simulated latency for E4. One engine,
//!   [`consensus::PipelinedCluster`], commits every ledger: `window = 1`
//!   is the sequential protocol (each block commits inside its own
//!   proposal), wider windows overlap consecutive instances, and
//!   in-order commitment runs through the model-checked
//!   [`consensus::SlotWindow`].
//! * [`chain`] — the ledger: policy-validated append, full-chain
//!   verification, channel-scoped reads, parallel block validation
//!   ([`chain::Ledger::submit_stream`]), and Merkle checkpointing with
//!   body pruning and compact audit proofs ([`chain::EventProof`],
//!   [`chain::BlockProof`], [`chain::PrefixProof`]).
//! * [`policy`] — "smart contract" validation hooks per channel (the
//!   paper's malware / privacy / provenance networks).
//! * [`provenance`] — the HCLS event vocabulary (ingested, accessed,
//!   anonymized, exported, deleted, consent granted/revoked, malware
//!   detected, privacy scored) and the high-level [`provenance::ProvenanceNetwork`].
//! * [`identity`] — blockchain-based self-sovereign identity with
//!   identity-mixer-style unlinkable per-context pseudonyms (§IV-B1).
//! * [`audit`] — the Hyperledger-style auditor view, plus the
//!   centralized-database baseline the paper contrasts against.

#![forbid(unsafe_code)]

pub mod audit;
pub mod block;
pub mod chain;
pub mod consensus;
pub mod identity;
pub mod policy;
pub mod provenance;
