//! The ledger: policy-validated append, full-chain verification,
//! pipelined/parallel block commitment, and Merkle checkpointing.
//!
//! One [`PipelinedCluster`] commits the chain; its window sets how many
//! consensus instances overlap, with `window = 1` the sequential
//! protocol. Block contents are window-independent — blocks are stamped
//! from transaction content, so every window produces a byte-identical
//! chain for the same batch schedule (the differential property
//! `tests/ledger_pipeline.rs` locks down).
//!
//! Checkpoints anchor the chain for audit at scale: every `interval`
//! blocks the ledger seals a Merkle *interval root* over that interval's
//! block hashes and folds it into a rolling `state_root`. Bodies behind
//! the last checkpoint (minus a retained tail) can then be pruned while
//! headers and interval trees keep serving compact inclusion proofs
//! ([`EventProof`], [`BlockProof`]) and checkpoint-prefix proofs
//! ([`PrefixProof`]) — no chain replay needed.

use hc_common::clock::SimInstant;
use hc_crypto::merkle::{self, IndexedProof, MerkleTree};
use hc_crypto::sha256::Digest;
use hc_telemetry::{Counter, Gauge, Registry};

use crate::block::{Block, BlockHeader, Transaction};
use crate::consensus::{ConsensusError, ConsensusOutcome, PipelinedCluster};
use crate::policy::ChainPolicy;

/// Errors from ledger operations.
#[derive(Debug)]
pub enum LedgerError {
    /// A transaction violated a channel policy.
    PolicyViolation {
        /// The policy that fired.
        policy: String,
        /// Its reason.
        reason: String,
    },
    /// Consensus could not commit the block.
    Consensus(ConsensusError),
    /// An empty batch was submitted.
    EmptyBatch,
    /// A transaction payload could not be serialised.
    Encoding(String),
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::PolicyViolation { policy, reason } => {
                write!(f, "policy `{policy}` rejected transaction: {reason}")
            }
            LedgerError::Consensus(e) => write!(f, "consensus error: {e}"),
            LedgerError::EmptyBatch => f.write_str("empty transaction batch"),
            LedgerError::Encoding(e) => write!(f, "transaction payload encoding failed: {e}"),
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<ConsensusError> for LedgerError {
    fn from(e: ConsensusError) -> Self {
        LedgerError::Consensus(e)
    }
}

/// Result of a chain verification pass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChainStatus {
    /// Every link and every block checks out.
    Valid,
    /// Corruption found at the given height.
    CorruptAt {
        /// First bad block height.
        height: u64,
        /// What was wrong.
        reason: String,
    },
}

/// Checkpointing policy: how often to seal, how much body to retain.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointConfig {
    /// Seal a checkpoint every `interval` blocks (≥ 1).
    pub interval: u64,
    /// Keep at least this many recent block bodies un-pruned behind the
    /// newest checkpoint. Defaults to `interval`, so the retained window
    /// is always covered by the latest `state_root`.
    pub retain: u64,
}

impl CheckpointConfig {
    /// A config sealing every `interval` blocks and retaining one
    /// interval of bodies.
    pub fn every(interval: u64) -> Self {
        assert!(interval > 0, "checkpoint interval must be positive");
        CheckpointConfig {
            interval,
            retain: interval,
        }
    }

    /// Overrides the retained-body tail.
    pub fn retaining(mut self, retain: u64) -> Self {
        self.retain = retain;
        self
    }
}

/// A sealed checkpoint: a Merkle anchor over a prefix of the chain.
///
/// `interval_root` is the Merkle root over this interval's block hashes;
/// `state_root` folds it onto the previous checkpoint's `state_root`
/// (`node_hash(prev_state, interval_root)`, with [`Digest::ZERO`] before
/// the first). Audit proofs fold the same chain, so any prefix of
/// checkpoints is verifiable from roots alone.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// Zero-based checkpoint index (= interval index).
    pub index: u64,
    /// First height past the covered prefix (`(index + 1) × interval`).
    pub end_height: u64,
    /// Merkle root over block hashes in `[end_height - interval, end_height)`.
    pub interval_root: Digest,
    /// Rolling anchor over all intervals up to and including this one.
    pub state_root: Digest,
    /// Simulated time at sealing.
    pub sealed_at: SimInstant,
}

/// Errors from proof generation against the checkpointed chain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProofError {
    /// No checkpoint has been sealed yet.
    NoCheckpoint,
    /// The height exists but is past the newest checkpoint's prefix.
    NotCovered {
        /// The uncovered height.
        height: u64,
    },
    /// The block's transaction body was pruned; only header-level
    /// ([`BlockProof`]) claims remain provable.
    BodyPruned {
        /// The pruned height.
        height: u64,
    },
    /// No such block height.
    UnknownBlock {
        /// The requested height.
        height: u64,
    },
    /// The transaction is not in the block at the given height.
    UnknownTransaction,
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::NoCheckpoint => f.write_str("no checkpoint sealed yet"),
            ProofError::NotCovered { height } => {
                write!(f, "height {height} is past the newest checkpoint")
            }
            ProofError::BodyPruned { height } => {
                write!(f, "body at height {height} was pruned")
            }
            ProofError::UnknownBlock { height } => write!(f, "no block at height {height}"),
            ProofError::UnknownTransaction => f.write_str("transaction not found in block"),
        }
    }
}

impl std::error::Error for ProofError {}

/// A compact proof that a block header belongs to a checkpointed prefix.
///
/// Verification needs no chain state: the header recomputes its own
/// hash, `intra` places that hash in the interval tree, and the
/// `prev_state`/`fold` digests rebuild the rolling anchor up to the
/// target checkpoint's `state_root`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockProof {
    /// The claimed header.
    pub header: BlockHeader,
    /// Inclusion of `leaf_hash(header.hash)` in its interval tree.
    pub intra: IndexedProof,
    /// The interval tree's root.
    pub interval_root: Digest,
    /// The interval index the block falls in.
    pub interval_index: u64,
    /// The rolling state before this interval.
    pub prev_state: Digest,
    /// Interval roots folded after this one, up to the target checkpoint.
    pub fold: Vec<Digest>,
}

impl BlockProof {
    /// Verifies this proof against a checkpoint's `state_root`.
    pub fn verify(&self, checkpoint: &Checkpoint) -> bool {
        if !self.header.is_consistent() {
            return false;
        }
        // Position binding: the claimed height must sit exactly where
        // the interval proof says it does.
        let interval = self.intra.leaf_count;
        if interval == 0
            || self.header.height != self.interval_index * interval + self.intra.index
            || self.interval_index > checkpoint.index
            || self.fold.len() as u64 != checkpoint.index - self.interval_index
        {
            return false;
        }
        let leaf = merkle::leaf_hash(self.header.hash.as_bytes());
        if !merkle::verify_indexed(leaf, &self.intra, &self.interval_root) {
            return false;
        }
        let mut state = merkle::node_hash(&self.prev_state, &self.interval_root);
        for root in &self.fold {
            state = merkle::node_hash(&state, root);
        }
        state == checkpoint.state_root
    }
}

/// A compact proof that one provenance event (transaction) is committed
/// under a checkpoint: transaction → block Merkle root → block hash →
/// interval root → rolling state root.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EventProof {
    /// The claimed transaction.
    pub transaction: Transaction,
    /// Inclusion of the transaction in the block's Merkle tree.
    pub tx_proof: IndexedProof,
    /// The block-level half of the proof.
    pub block: BlockProof,
}

impl EventProof {
    /// Verifies this proof against a checkpoint — no ledger access, no
    /// chain replay.
    pub fn verify(&self, checkpoint: &Checkpoint) -> bool {
        let leaf = merkle::leaf_hash(self.transaction.hash().as_bytes());
        merkle::verify_indexed(leaf, &self.tx_proof, &self.block.header.merkle_root)
            && self.tx_proof.leaf_count == self.block.header.tx_count
            && self.block.verify(checkpoint)
    }
}

/// A compact proof that an older checkpoint is a prefix of a newer one:
/// the interval roots sealed between them, foldable from the old
/// `state_root` to the new one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PrefixProof {
    /// The older checkpoint's index.
    pub from_index: u64,
    /// Interval roots for indices `from_index + 1 ..= to_index`.
    pub fold: Vec<Digest>,
}

impl PrefixProof {
    /// Verifies that `older` is a prefix of `newer` under this proof.
    pub fn verify(&self, older: &Checkpoint, newer: &Checkpoint) -> bool {
        if self.from_index != older.index
            || newer.index < older.index
            || self.fold.len() as u64 != newer.index - older.index
        {
            return false;
        }
        let mut state = older.state_root;
        for root in &self.fold {
            state = merkle::node_hash(&state, root);
        }
        state == newer.state_root
    }
}

/// Registry handles for checkpoint metrics (`ledger.ckpt.*`).
#[derive(Clone, Debug)]
struct CheckpointInstruments {
    sealed: Counter,
    pruned_blocks: Counter,
    pruned_bytes: Counter,
    proofs_served: Counter,
    retained_bytes: Gauge,
    pruned_below: Gauge,
}

/// Result of one [`Ledger::submit_stream`] run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StreamOutcome {
    /// Blocks committed before completion (or the first failure).
    pub blocks: u64,
    /// Transactions committed.
    pub transactions: u64,
}

/// A consensus-committed, policy-guarded hash chain.
pub struct Ledger {
    /// Retained (un-pruned) blocks; `blocks[0].height == pruned_below`.
    blocks: Vec<Block>,
    /// Headers of pruned blocks, by height `0..pruned_below`.
    pruned_headers: Vec<BlockHeader>,
    /// Block hashes for every height ever committed (32 B each) — the
    /// leaves checkpoint interval trees are built from.
    block_hashes: Vec<Digest>,
    policies: Vec<Box<dyn ChainPolicy>>,
    cluster: PipelinedCluster,
    ckpt_config: Option<CheckpointConfig>,
    checkpoints: Vec<Checkpoint>,
    interval_roots: Vec<Digest>,
    pruned_body_bytes: u64,
    /// Body bytes of the retained blocks as committed, kept up to date
    /// on append and prune so the gauge costs O(1) per block.
    retained_bytes: u64,
    instruments: Option<CheckpointInstruments>,
}

impl std::fmt::Debug for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ledger")
            .field("height", &self.height())
            .field("pruned_below", &self.pruned_below())
            .field("checkpoints", &self.checkpoints.len())
            .field("peers", &self.cluster.peer_count())
            .finish()
    }
}

impl Ledger {
    /// Creates a ledger committed by `cluster`, on the cluster's clock.
    /// Proposals overlap up to the cluster's window; `window = 1`
    /// commits each block before [`Ledger::submit`] returns.
    pub fn new(cluster: PipelinedCluster) -> Self {
        Ledger {
            blocks: Vec::new(),
            pruned_headers: Vec::new(),
            block_hashes: Vec::new(),
            policies: Vec::new(),
            cluster,
            ckpt_config: None,
            checkpoints: Vec::new(),
            interval_roots: Vec::new(),
            pruned_body_bytes: 0,
            retained_bytes: 0,
            instruments: None,
        }
    }

    /// Mirrors checkpoint metrics into `registry` under `ledger.ckpt.*`.
    pub fn instrument(&mut self, registry: &Registry) {
        self.instruments = Some(CheckpointInstruments {
            sealed: registry.counter("ledger.ckpt.sealed"),
            pruned_blocks: registry.counter("ledger.ckpt.pruned_blocks"),
            pruned_bytes: registry.counter("ledger.ckpt.pruned_bytes"),
            proofs_served: registry.counter("ledger.ckpt.proofs_served"),
            retained_bytes: registry.gauge("ledger.ckpt.retained_bytes"),
            pruned_below: registry.gauge("ledger.ckpt.pruned_below"),
        });
    }

    /// Installs a channel policy.
    pub fn install_policy(&mut self, policy: Box<dyn ChainPolicy>) {
        self.policies.push(policy);
    }

    /// Enables checkpoint sealing (idempotent; applies to future blocks).
    pub fn enable_checkpoints(&mut self, config: CheckpointConfig) {
        assert!(config.interval > 0, "checkpoint interval must be positive");
        self.ckpt_config = Some(config);
    }

    /// Current chain height (number of blocks, pruned included).
    pub fn height(&self) -> u64 {
        self.pruned_below() + self.blocks.len() as u64
    }

    /// Heights below this have had their bodies pruned.
    pub fn pruned_below(&self) -> u64 {
        self.pruned_headers.len() as u64
    }

    /// The retained (un-pruned) blocks, oldest first.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Headers of pruned blocks, by height.
    pub fn pruned_headers(&self) -> &[BlockHeader] {
        &self.pruned_headers
    }

    /// Every sealed checkpoint, oldest first.
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoints
    }

    /// The newest checkpoint, if any.
    pub fn latest_checkpoint(&self) -> Option<&Checkpoint> {
        self.checkpoints.last()
    }

    /// Bytes of transaction body currently retained, summed over the
    /// retained blocks.
    pub fn retained_body_bytes(&self) -> u64 {
        self.blocks.iter().map(Block::body_bytes).sum()
    }

    /// Bytes of transaction body reclaimed by pruning so far.
    pub fn pruned_body_bytes(&self) -> u64 {
        self.pruned_body_bytes
    }

    /// Mutable block access — exists solely for tamper-injection tests.
    #[doc(hidden)]
    pub fn blocks_mut(&mut self) -> &mut Vec<Block> {
        &mut self.blocks
    }

    /// The consensus cluster committing this chain.
    pub fn cluster(&self) -> &PipelinedCluster {
        &self.cluster
    }

    /// The consensus cluster, to inject faults, attach telemetry, or
    /// drain in-flight instances.
    pub fn cluster_mut(&mut self) -> &mut PipelinedCluster {
        &mut self.cluster
    }

    fn validate_batch(
        policies: &[Box<dyn ChainPolicy>],
        transactions: &[Transaction],
    ) -> Result<(), LedgerError> {
        if transactions.is_empty() {
            return Err(LedgerError::EmptyBatch);
        }
        for tx in transactions {
            for policy in policies {
                if policy.channel() == tx.channel {
                    policy
                        .validate(tx)
                        .map_err(|reason| LedgerError::PolicyViolation {
                            policy: policy.name().to_owned(),
                            reason,
                        })?;
                }
            }
        }
        Ok(())
    }

    /// Appends a block whose root was already computed, then seals any
    /// due checkpoint.
    fn append_block(&mut self, merkle_root: Digest, transactions: Vec<Transaction>) {
        let prev_hash = self
            .block_hashes
            .last()
            .copied()
            .unwrap_or(Digest::ZERO);
        let stamp = Block::stamp(&transactions);
        let block = Block::from_parts(self.height(), prev_hash, merkle_root, stamp, transactions);
        self.block_hashes.push(block.hash);
        self.retained_bytes += block.body_bytes();
        self.blocks.push(block);
        self.maybe_seal_checkpoint();
        if let Some(inst) = &self.instruments {
            inst.retained_bytes.set(self.retained_bytes as i64);
        }
    }

    /// Seals a checkpoint when the height crosses an interval boundary.
    fn maybe_seal_checkpoint(&mut self) {
        let Some(config) = self.ckpt_config else { return };
        while (self.checkpoints.len() as u64 + 1) * config.interval <= self.height() {
            let index = self.checkpoints.len() as u64;
            let start = (index * config.interval) as usize;
            let end = start + config.interval as usize;
            let leaves: Vec<Digest> = self.block_hashes[start..end] // hc-lint: allow(panic-index)
                .iter()
                .map(|h| merkle::leaf_hash(h.as_bytes()))
                .collect();
            let interval_root = MerkleTree::from_leaf_hashes(leaves).root();
            let prev_state = self
                .checkpoints
                .last()
                .map(|c| c.state_root)
                .unwrap_or(Digest::ZERO);
            self.interval_roots.push(interval_root);
            self.checkpoints.push(Checkpoint {
                index,
                end_height: end as u64,
                interval_root,
                state_root: merkle::node_hash(&prev_state, &interval_root),
                sealed_at: self.cluster.clock().now(),
            });
            if let Some(inst) = &self.instruments {
                inst.sealed.inc();
            }
        }
    }

    /// Prunes transaction bodies behind the newest checkpoint, keeping
    /// the configured retained tail. Headers, block hashes, and interval
    /// trees survive, so audit proofs for pruned heights keep working.
    /// Returns the number of blocks pruned.
    pub fn prune(&mut self) -> u64 {
        let Some(config) = self.ckpt_config else { return 0 };
        let Some(latest) = self.checkpoints.last() else { return 0 };
        let cutoff = latest.end_height.saturating_sub(config.retain);
        let count = cutoff.saturating_sub(self.pruned_below());
        if count == 0 {
            return 0;
        }
        let mut bytes = 0u64;
        for block in self.blocks.drain(..count as usize) {
            bytes += block.body_bytes();
            self.pruned_headers.push(block.header());
        }
        self.pruned_body_bytes += bytes;
        self.retained_bytes -= bytes;
        if let Some(inst) = &self.instruments {
            inst.pruned_blocks.add(count);
            inst.pruned_bytes.add(bytes);
            inst.retained_bytes.set(self.retained_bytes as i64);
            inst.pruned_below.set(self.pruned_below() as i64);
        }
        count
    }

    fn header_at(&self, height: u64) -> Result<BlockHeader, ProofError> {
        if height >= self.height() {
            return Err(ProofError::UnknownBlock { height });
        }
        if height < self.pruned_below() {
            Ok(self.pruned_headers[height as usize]) // hc-lint: allow(panic-index)
        } else {
            Ok(self.blocks[(height - self.pruned_below()) as usize].header()) // hc-lint: allow(panic-index)
        }
    }

    /// Builds a compact proof that the block at `height` is committed
    /// under the newest checkpoint. Works for pruned heights — only the
    /// header and the interval tree are needed.
    ///
    /// # Errors
    ///
    /// [`ProofError::NoCheckpoint`] before the first seal;
    /// [`ProofError::NotCovered`] for heights past the newest
    /// checkpoint; [`ProofError::UnknownBlock`] beyond the chain tip.
    pub fn prove_block(&self, height: u64) -> Result<BlockProof, ProofError> {
        let config = self.ckpt_config.ok_or(ProofError::NoCheckpoint)?;
        let target = self.checkpoints.last().ok_or(ProofError::NoCheckpoint)?;
        let header = self.header_at(height)?;
        if height >= target.end_height {
            return Err(ProofError::NotCovered { height });
        }
        let interval_index = height / config.interval;
        let start = (interval_index * config.interval) as usize;
        let end = start + config.interval as usize;
        let leaves: Vec<Digest> = self.block_hashes[start..end] // hc-lint: allow(panic-index)
            .iter()
            .map(|h| merkle::leaf_hash(h.as_bytes()))
            .collect();
        let tree = MerkleTree::from_leaf_hashes(leaves);
        let intra = tree.prove_indexed((height as usize) - start);
        let prev_state = if interval_index == 0 {
            Digest::ZERO
        } else {
            self.checkpoints[(interval_index - 1) as usize].state_root // hc-lint: allow(panic-index)
        };
        let fold = self.interval_roots[(interval_index + 1) as usize..=target.index as usize] // hc-lint: allow(panic-index)
            .to_vec();
        if let Some(inst) = &self.instruments {
            inst.proofs_served.inc();
        }
        Ok(BlockProof {
            header,
            intra,
            interval_root: self.interval_roots[interval_index as usize], // hc-lint: allow(panic-index)
            interval_index,
            prev_state,
            fold,
        })
    }

    /// Builds a compact proof that the transaction with `tx_id` at
    /// `height` is committed under the newest checkpoint.
    ///
    /// # Errors
    ///
    /// All [`ProofError`] cases: in particular
    /// [`ProofError::BodyPruned`] when the body is gone (the block-level
    /// proof is still available via [`Ledger::prove_block`]).
    pub fn prove_event(
        &self,
        height: u64,
        tx_id: hc_common::id::TxId,
    ) -> Result<EventProof, ProofError> {
        if height >= self.height() {
            return Err(ProofError::UnknownBlock { height });
        }
        if height < self.pruned_below() {
            return Err(ProofError::BodyPruned { height });
        }
        let block = &self.blocks[(height - self.pruned_below()) as usize]; // hc-lint: allow(panic-index)
        let pos = block
            .transactions
            .iter()
            .position(|t| t.id == tx_id)
            .ok_or(ProofError::UnknownTransaction)?;
        let leaves: Vec<Digest> = block
            .transactions
            .iter()
            .map(|t| merkle::leaf_hash(t.hash().as_bytes()))
            .collect();
        let tree = MerkleTree::from_leaf_hashes(leaves);
        Ok(EventProof {
            transaction: block.transactions[pos].clone(), // hc-lint: allow(panic-index)
            tx_proof: tree.prove_indexed(pos),
            block: self.prove_block(height)?,
        })
    }

    /// Builds a prefix proof between two sealed checkpoints.
    ///
    /// # Errors
    ///
    /// [`ProofError::NoCheckpoint`] if either index is unsealed.
    pub fn prove_prefix(&self, from_index: u64, to_index: u64) -> Result<PrefixProof, ProofError> {
        if from_index > to_index || to_index >= self.checkpoints.len() as u64 {
            return Err(ProofError::NoCheckpoint);
        }
        Ok(PrefixProof {
            from_index,
            fold: self.interval_roots[(from_index + 1) as usize..=to_index as usize].to_vec(), // hc-lint: allow(panic-index)
        })
    }

    /// Validates a batch against channel policies, runs consensus, and
    /// appends the committed block.
    ///
    /// # Errors
    ///
    /// Fails on policy violations or when too many peers are unreachable
    /// for a quorum; nothing is appended in those cases.
    pub fn submit(&mut self, transactions: Vec<Transaction>) -> Result<ConsensusOutcome, LedgerError> {
        let outcome = self.propose(&transactions)?;
        self.append(transactions);
        Ok(outcome)
    }

    /// Checks a batch against the channel policies without proposing it.
    pub(crate) fn validate(&self, transactions: &[Transaction]) -> Result<(), LedgerError> {
        Self::validate_batch(&self.policies, transactions)
    }

    /// The first half of [`Ledger::submit`]: validates a batch against
    /// channel policies and runs consensus on it. Appends nothing; on
    /// success the caller hands the same batch to [`Ledger::append`].
    pub(crate) fn propose(
        &mut self,
        transactions: &[Transaction],
    ) -> Result<ConsensusOutcome, LedgerError> {
        Self::validate_batch(&self.policies, transactions)?;
        Ok(self.cluster.propose()?)
    }

    /// The second half of [`Ledger::submit`]: appends a batch that
    /// [`Ledger::propose`] has just committed.
    pub(crate) fn append(&mut self, transactions: Vec<Transaction>) {
        let merkle_root = Block::transactions_root(&transactions);
        self.append_block(merkle_root, transactions);
    }

    /// Commits a stream of batches with block *validation* (policy
    /// checks, transaction hashing, Merkle-root construction) fanned out
    /// across `workers` threads, while consensus proposals and chain
    /// appends stay strictly in submission order — the committed chain
    /// is byte-identical to a serial [`Ledger::submit`] loop for any
    /// worker count.
    ///
    /// Batches already validated when a later batch fails are committed;
    /// the error reports the first failure and the outcome of everything
    /// before it is preserved on-chain. The consensus pipeline is drained
    /// before returning.
    ///
    /// # Errors
    ///
    /// The first [`LedgerError`] hit, after committing all prior batches.
    pub fn submit_stream(
        &mut self,
        batches: Vec<Vec<Transaction>>,
        workers: usize,
    ) -> Result<StreamOutcome, LedgerError> {
        let mut queue = batches.into_iter();
        let mut committed = StreamOutcome {
            blocks: 0,
            transactions: 0,
        };
        // Split borrows: workers read `policies` (taken out of self so
        // `prepare` can be shared), the commit closure mutates chain +
        // cluster state, and the pull/commit closures coordinate the
        // first-failure stop through single-thread cells (both run on
        // the coordinator thread; only `prepare` runs on workers).
        let policies = std::mem::take(&mut self.policies);
        let stop = std::cell::Cell::new(false);
        let first_error: std::cell::RefCell<Option<LedgerError>> = std::cell::RefCell::new(None);
        {
            let this = &mut *self;
            let committed = &mut committed;
            hc_common::conc::pool::ordered_pipeline(
                workers,
                &mut || {
                    if stop.get() {
                        return None;
                    }
                    queue.next()
                },
                &|batch: &Vec<Transaction>| {
                    Self::validate_batch(&policies, batch)
                        .map(|()| Block::transactions_root(batch))
                },
                &mut |batch, prepared| {
                    if stop.get() {
                        return;
                    }
                    let result = prepared.and_then(|root| {
                        this.cluster.propose()?;
                        committed.transactions += batch.len() as u64;
                        committed.blocks += 1;
                        this.append_block(root, batch);
                        Ok(())
                    });
                    if let Err(e) = result {
                        stop.set(true);
                        *first_error.borrow_mut() = Some(e);
                    }
                },
                &mut |_| {},
            );
        }
        self.policies = policies;
        self.cluster.drain();
        match first_error.into_inner() {
            Some(e) => Err(e),
            None => Ok(committed),
        }
    }

    /// Verifies the whole chain: header-hash linkage and height
    /// continuity across the pruned prefix, plus full internal
    /// consistency for every retained block.
    pub fn verify_chain(&self) -> ChainStatus {
        let mut prev_hash = Digest::ZERO;
        for (i, header) in self.pruned_headers.iter().enumerate() {
            if header.height != i as u64 {
                return ChainStatus::CorruptAt {
                    height: i as u64,
                    reason: "height discontinuity in pruned prefix".to_owned(),
                };
            }
            if header.prev_hash != prev_hash {
                return ChainStatus::CorruptAt {
                    height: i as u64,
                    reason: "broken previous-hash link in pruned prefix".to_owned(),
                };
            }
            if !header.is_consistent() {
                return ChainStatus::CorruptAt {
                    height: i as u64,
                    reason: "pruned header does not match its hash".to_owned(),
                };
            }
            prev_hash = header.hash;
        }
        let base = self.pruned_below();
        for (i, block) in self.blocks.iter().enumerate() {
            let height = base + i as u64;
            if block.height != height {
                return ChainStatus::CorruptAt {
                    height,
                    reason: "height discontinuity".to_owned(),
                };
            }
            if block.prev_hash != prev_hash {
                return ChainStatus::CorruptAt {
                    height,
                    reason: "broken previous-hash link".to_owned(),
                };
            }
            if !block.is_internally_consistent() {
                return ChainStatus::CorruptAt {
                    height,
                    reason: "block contents do not match header".to_owned(),
                };
            }
            prev_hash = block.hash;
        }
        ChainStatus::Valid
    }

    /// All transactions on `channel`, oldest first.
    pub fn channel_transactions(&self, channel: &str) -> Vec<&Transaction> {
        self.blocks
            .iter()
            .flat_map(|b| b.transactions.iter())
            .filter(|t| t.channel == channel)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ProvenancePolicy;
    use hc_common::clock::SimClock;
    use hc_common::id::TxId;

    fn pipelined_ledger(window: usize) -> Ledger {
        let cluster = PipelinedCluster::new(4, window, SimClock::new()).unwrap();
        let mut ledger = Ledger::new(cluster);
        ledger.install_policy(Box::new(ProvenancePolicy));
        ledger
    }

    /// A ledger committed by the sequential protocol (`window = 1`).
    fn ledger() -> Ledger {
        pipelined_ledger(1)
    }

    fn tx(raw: u128, kind: &str, payload: &str) -> Transaction {
        Transaction {
            id: TxId::from_raw(raw),
            channel: "provenance".into(),
            kind: kind.into(),
            payload: payload.as_bytes().to_vec(),
            submitter: "ingest".into(),
            timestamp: SimInstant::ZERO,
        }
    }

    #[test]
    fn submit_appends_blocks() {
        let mut l = ledger();
        l.submit(vec![tx(1, "ingested", "record=1")]).unwrap();
        l.submit(vec![tx(2, "accessed", "record=1"), tx(3, "exported", "record=1")])
            .unwrap();
        assert_eq!(l.height(), 2);
        assert_eq!(l.verify_chain(), ChainStatus::Valid);
        assert_eq!(l.channel_transactions("provenance").len(), 3);
    }

    #[test]
    fn policy_violation_blocks_whole_batch() {
        let mut l = ledger();
        let err = l
            .submit(vec![tx(1, "ingested", "ok"), tx(2, "bogus-kind", "x")])
            .unwrap_err();
        assert!(matches!(err, LedgerError::PolicyViolation { .. }));
        assert_eq!(l.height(), 0);
    }

    #[test]
    fn empty_batch_rejected() {
        let mut l = ledger();
        assert!(matches!(l.submit(vec![]), Err(LedgerError::EmptyBatch)));
    }

    #[test]
    fn tampering_detected_by_verify() {
        let mut l = ledger();
        for i in 0..5 {
            l.submit(vec![tx(i, "ingested", "record=1")]).unwrap();
        }
        l.blocks_mut()[2].transactions[0].payload = b"record=999".to_vec();
        match l.verify_chain() {
            ChainStatus::CorruptAt { height, .. } => assert_eq!(height, 2),
            ChainStatus::Valid => panic!("tampering must be detected"),
        }
    }

    #[test]
    fn relinking_attack_detected() {
        let mut l = ledger();
        for i in 0..3 {
            l.submit(vec![tx(i, "ingested", "record=1")]).unwrap();
        }
        // Rebuild block 1 entirely (valid in isolation) — link to 2 breaks.
        let forged = Block::build(
            1,
            l.blocks()[0].hash,
            SimInstant::from_nanos(1),
            vec![tx(99, "deleted", "record=1")],
        );
        l.blocks_mut()[1] = forged;
        assert!(matches!(l.verify_chain(), ChainStatus::CorruptAt { height: 2, .. }));
    }

    #[test]
    fn consensus_failure_prevents_append() {
        let mut l = ledger();
        l.cluster_mut().set_faulty(1, true);
        l.cluster_mut().set_faulty(2, true); // > f for n=4
        assert!(matches!(
            l.submit(vec![tx(1, "ingested", "x")]),
            Err(LedgerError::Consensus(_))
        ));
        assert_eq!(l.height(), 0);
    }

    use hc_common::id::TxId as RawTxId;

    fn batches(n: u128) -> Vec<Vec<Transaction>> {
        (0..n).map(|i| vec![tx(i + 1, "ingested", "record=1")]).collect()
    }

    #[test]
    fn stream_matches_serial_submit_chain() {
        let mut serial = ledger();
        for batch in batches(20) {
            serial.submit(batch).unwrap();
        }
        for workers in [1usize, 4] {
            let mut streamed = pipelined_ledger(8);
            let out = streamed.submit_stream(batches(20), workers).unwrap();
            assert_eq!(out.blocks, 20);
            assert_eq!(out.transactions, 20);
            assert_eq!(
                streamed.blocks(),
                serial.blocks(),
                "workers={workers}: chains diverged"
            );
        }
    }

    #[test]
    fn stream_stops_at_first_policy_violation() {
        let mut l = pipelined_ledger(4);
        let mut all = batches(6);
        all[3] = vec![tx(99, "bogus-kind", "x")];
        let err = l.submit_stream(all, 4).unwrap_err();
        assert!(matches!(err, LedgerError::PolicyViolation { .. }));
        // The three batches before the violation committed, in order.
        assert_eq!(l.height(), 3);
        assert_eq!(l.verify_chain(), ChainStatus::Valid);
    }

    #[test]
    fn checkpoints_seal_on_interval_and_prune_bounds_bodies() {
        let mut l = ledger();
        l.enable_checkpoints(CheckpointConfig::every(4));
        for batch in batches(11) {
            l.submit(batch).unwrap();
        }
        assert_eq!(l.checkpoints().len(), 2); // heights 4 and 8
        assert_eq!(l.latest_checkpoint().unwrap().end_height, 8);
        let pruned = l.prune();
        // cutoff = 8 - retain(4) = 4: bodies 0..4 pruned.
        assert_eq!(pruned, 4);
        assert_eq!(l.pruned_below(), 4);
        assert_eq!(l.blocks().len(), 7);
        assert_eq!(l.height(), 11);
        assert!(l.pruned_body_bytes() > 0);
        assert_eq!(l.verify_chain(), ChainStatus::Valid);
        // Pruning is idempotent until the next seal.
        assert_eq!(l.prune(), 0);
    }

    #[test]
    fn retained_bytes_gauge_tracks_appends_and_prunes() {
        let registry = Registry::new();
        let mut l = ledger();
        l.instrument(&registry);
        l.enable_checkpoints(CheckpointConfig::every(3).retaining(2));
        let gauge = registry.gauge("ledger.ckpt.retained_bytes");
        for (i, batch) in batches(14).into_iter().enumerate() {
            l.submit(batch).unwrap();
            assert_eq!(gauge.get(), l.retained_body_bytes() as i64, "after append {i}");
            if i % 4 == 3 {
                assert!(l.prune() > 0);
                assert_eq!(gauge.get(), l.retained_body_bytes() as i64, "after prune {i}");
            }
        }
        assert!(l.pruned_body_bytes() > 0);
        assert!(l.retained_body_bytes() > 0);
    }

    #[test]
    fn block_proofs_verify_for_pruned_and_retained_heights() {
        let mut l = ledger();
        l.enable_checkpoints(CheckpointConfig::every(3));
        for batch in batches(9) {
            l.submit(batch).unwrap();
        }
        l.prune();
        let target = *l.latest_checkpoint().unwrap();
        for height in 0..target.end_height {
            let proof = l.prove_block(height).unwrap();
            assert!(proof.verify(&target), "height {height}");
        }
        // A tampered header fails.
        let mut bad = l.prove_block(1).unwrap();
        bad.header.merkle_root = Digest::ZERO;
        assert!(!bad.verify(&target));
        // A proof replayed at the wrong height fails.
        let mut moved = l.prove_block(1).unwrap();
        moved.header.height = 2;
        assert!(!moved.verify(&target));
    }

    #[test]
    fn event_proofs_verify_and_reject_pruned_bodies() {
        let mut l = ledger();
        l.enable_checkpoints(CheckpointConfig::every(3));
        for batch in batches(9) {
            l.submit(batch).unwrap();
        }
        l.prune(); // bodies below 6 - 3 = 3 pruned... cutoff = 9-3 = 6
        let target = *l.latest_checkpoint().unwrap();
        // Retained + covered height: full event proof.
        let proof = l.prove_event(7, RawTxId::from_raw(8)).unwrap();
        assert!(proof.verify(&target));
        // Tampered payload fails.
        let mut bad = proof.clone();
        bad.transaction.payload = b"record=666".to_vec();
        assert!(!bad.verify(&target));
        // Pruned body: event proof refused, block proof still served.
        assert!(matches!(
            l.prove_event(1, RawTxId::from_raw(2)),
            Err(ProofError::BodyPruned { height: 1 })
        ));
        assert!(l.prove_block(1).unwrap().verify(&target));
        // Unknown transaction id in a retained block.
        assert!(matches!(
            l.prove_event(7, RawTxId::from_raw(999)),
            Err(ProofError::UnknownTransaction)
        ));
    }

    #[test]
    fn prefix_proofs_chain_checkpoints() {
        let mut l = ledger();
        l.enable_checkpoints(CheckpointConfig::every(2));
        for batch in batches(8) {
            l.submit(batch).unwrap();
        }
        let ckpts = l.checkpoints().to_vec();
        assert_eq!(ckpts.len(), 4);
        for from in 0..ckpts.len() {
            for to in from..ckpts.len() {
                let proof = l.prove_prefix(from as u64, to as u64).unwrap();
                assert!(
                    proof.verify(&ckpts[from], &ckpts[to]),
                    "prefix {from}->{to}"
                );
            }
        }
        // Swapped endpoints and tampered folds fail.
        let proof = l.prove_prefix(0, 3).unwrap();
        assert!(!proof.verify(&ckpts[3], &ckpts[0]));
        let mut bad = proof.clone();
        bad.fold[1] = Digest::ZERO;
        assert!(!bad.verify(&ckpts[0], &ckpts[3]));
    }

    #[test]
    fn uncovered_and_unknown_heights_refused() {
        let mut l = ledger();
        l.enable_checkpoints(CheckpointConfig::every(4));
        for batch in batches(6) {
            l.submit(batch).unwrap();
        }
        // Heights 4..6 are past the only checkpoint (end 4).
        assert!(matches!(
            l.prove_block(5),
            Err(ProofError::NotCovered { height: 5 })
        ));
        assert!(matches!(
            l.prove_block(42),
            Err(ProofError::UnknownBlock { height: 42 })
        ));
        let bare = ledger();
        assert!(matches!(bare.prove_block(0), Err(ProofError::NoCheckpoint)));
    }

    #[test]
    fn tampered_pruned_header_detected_by_verify() {
        let mut l = ledger();
        l.enable_checkpoints(CheckpointConfig::every(2).retaining(0));
        for batch in batches(4) {
            l.submit(batch).unwrap();
        }
        assert_eq!(l.prune(), 4);
        assert_eq!(l.blocks().len(), 0);
        assert_eq!(l.verify_chain(), ChainStatus::Valid);
    }
}
