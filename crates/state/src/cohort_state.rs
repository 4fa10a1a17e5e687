//! The cohort-compressed state backend, on a persistent copy-on-write
//! representation.
//!
//! Within a branch, every validator of a behaviour class receives the
//! same participation flags each epoch, and the spec's epoch processing
//! is a per-validator function of `(own state, global aggregates)` — so
//! all members of a class follow **bit-identical integer trajectories**.
//! [`CohortState`] exploits this: instead of one record per validator it
//! stores, per class, a sorted run-length-encoded chunk of
//! `(per-validator state, count)` cohorts and processes an epoch in
//! O(#cohorts) with the *same* integer arithmetic as
//! [`BeaconState`](crate::BeaconState). The compression is exact, not an
//! approximation: driven through the same schedule, the two backends
//! produce equal [`StateSnapshot`]s after every epoch (property-tested in
//! `tests/backend_equivalence.rs`, including against the retained
//! clone-based [`ReferenceCohortState`](crate::ReferenceCohortState)).
//!
//! Cohorts **split** when a subgroup diverges — the only divergence
//! source is participation sampling ([`StateBackend::mark_class_sampled`]
//! marks part of a cohort, leaving the rest untouched) — and **merge**
//! automatically whenever two groups arrive at the same state, because
//! each chunk is kept sorted and run-length-merged. Deterministic
//! schedules (the paper's §5.1/§5.2 scenarios, Fig. 2 cohorts) therefore
//! keep `#cohorts == #classes` forever, making million-validator ×
//! 5000-epoch runs interactive.
//!
//! # Copy-on-write forking
//!
//! Every bulky component sits behind shared storage, so `clone()` — the
//! operation behind a partition `Split` and behind the search driver's
//! epoch checkpoints — is O(#classes + #epochs/1024), not O(state):
//!
//! * each class chunk is an `Arc<Vec<(MemberState, u64)>>`; a mutation
//!   replaces only the touched class's `Arc`, and an epoch step that
//!   leaves a chunk bit-identical (e.g. a fully-exited class) keeps the
//!   old allocation, so sibling branches go on sharing it;
//! * the per-epoch checkpoint roots live in a [`PrefixVec`], which
//!   freezes every full 1024-entry prefix block behind an `Arc`;
//! * the slashings ring buffer is an `Arc<Vec<Gwei>>` mutated through
//!   `Arc::make_mut` only when a value actually changes (the all-zero
//!   ring that every run in this repo carries is never copied).
//!
//! [`CohortState::shared_chunks`] makes the sharing observable, and the
//! aliasing unit tests below pin that post-fork mutations never leak into
//! a sibling.
//!
//! # In-place rebuilds
//!
//! A chunk that no other state shares (`Arc::get_mut` succeeds — every
//! chunk of a branch that has mutated since its fork) is rebuilt in its
//! own allocation: the epoch's member updates map the runs in place, and
//! sampled or counted marking splits them in place (the runs move to the
//! back half of the buffer and the parts are written from the front, in
//! the same order the draws are taken). Shared chunks take the copy path
//! above. Marking writes each cohort's unmarked part before its marked
//! part, so a class whose `current_flags` are uniform stays sorted and
//! re-canonicalizing only merges equal neighbours; the sort runs only
//! for input that is out of order. The epoch transition reads all of its
//! cohort-wide sums (total active balance, both target balances, the
//! participating increments) from one pass over the runs.

use std::sync::Arc;

use ethpos_crypto::hash_u64;
use ethpos_types::{ChainConfig, Checkpoint, Epoch, Gwei, Root, Slot};

use crate::backend::{
    ClassSpec, ClassStats, Fragmentation, MemberState, StateBackend, StateSnapshot,
};
use crate::epoch_metrics::stage_timer;
use crate::participation::{
    ParticipationFlags, TIMELY_HEAD_FLAG_INDEX, TIMELY_SOURCE_FLAG_INDEX, TIMELY_TARGET_FLAG_INDEX,
};
use crate::prefix_vec::PrefixVec;
use crate::rewards::integer_sqrt;
use crate::validator::FAR_FUTURE_EPOCH;

/// One class's cohorts: sorted, run-length-merged `(state, count)` runs
/// behind shared storage.
type Chunk = Arc<Vec<(MemberState, u64)>>;

/// Restores a chunk's canonical form: sorted by the [`MemberState`]
/// ordering with equal adjacent states merged (summing counts) — the
/// same normal form a `BTreeMap<(class, state), count>` would produce.
///
/// Input that is already in order skips the sort: marking a class
/// whose `current_flags` are uniform (every churn epoch) and mapping
/// runs through an order-preserving update both produce it. Any other
/// input takes the sort, so the result is exact either way.
fn canonicalize(runs: &mut Vec<(MemberState, u64)>) {
    if !runs.is_sorted_by_key(|run| run.0) {
        runs.sort_unstable_by_key(|run| run.0);
    }
    let mut write = 0;
    for read in 0..runs.len() {
        if write > 0 && runs[write - 1].0 == runs[read].0 {
            runs[write - 1].1 += runs[read].1;
        } else {
            runs[write] = runs[read];
            write += 1;
        }
    }
    runs.truncate(write);
}

/// Maps every run of `chunk` through `f` and re-canonicalizes. A chunk
/// this state owns alone is rebuilt in place; a shared one gets a fresh
/// allocation — unless `f` fixes every state, in which case the
/// existing `Arc` (and the sharing with sibling branches) is kept.
fn transform_chunk(chunk: &mut Chunk, mut f: impl FnMut(&MemberState) -> MemberState) {
    if let Some(runs) = Arc::get_mut(chunk) {
        let mut changed = false;
        for run in runs.iter_mut() {
            let mapped = f(&run.0);
            changed |= mapped != run.0;
            run.0 = mapped;
        }
        if changed {
            canonicalize(runs);
        }
        return;
    }
    let mut changed = false;
    let mut next: Vec<(MemberState, u64)> = Vec::with_capacity(chunk.len());
    for &(m, count) in chunk.iter() {
        let mapped = f(&m);
        changed |= mapped != m;
        next.push((mapped, count));
    }
    if !changed {
        return;
    }
    canonicalize(&mut next);
    *chunk = Arc::new(next);
}

/// Splits every run of `chunk` into the members that keep their state
/// and `marked(active, count)` members (clamped to `count`, and zero for
/// exited runs) that get `flags` merged into their current-epoch
/// participation — the shared body of the sampled and counted marking
/// paths. `marked` is called once per run, in canonical order, so the
/// caller's draw stream does not depend on which path runs.
///
/// The unmarked part is written first: it has the smaller
/// `current_flags`, so a class whose `current_flags` are uniform comes
/// out already sorted and [`canonicalize`] only merges. A chunk owned
/// alone is split in place; a shared one is copied, and kept when
/// nothing changed.
fn mark_split(
    chunk: &mut Chunk,
    epoch: Epoch,
    flags: ParticipationFlags,
    mut marked: impl FnMut(bool, u64) -> u64,
) {
    let mut split = |m: MemberState, count: u64| {
        let active = m.is_active_at(epoch);
        let drawn = marked(active, count);
        let drawn = if active { drawn.min(count) } else { 0 };
        let flagged = MemberState {
            current_flags: m.current_flags.union(flags),
            ..m
        };
        [(m, count - drawn), (flagged, drawn)]
    };
    if let Some(runs) = Arc::get_mut(chunk) {
        // Copy the runs to the back half, then write the parts from the
        // front: after `i` runs at most `2i` parts are written, so the
        // write cursor never overtakes the run being read at `n + i`.
        let n = runs.len();
        runs.extend_from_within(..);
        let mut write = 0;
        for read in n..2 * n {
            let (m, count) = runs[read];
            for part in split(m, count) {
                if part.1 > 0 {
                    runs[write] = part;
                    write += 1;
                }
            }
        }
        runs.truncate(write);
        canonicalize(runs);
        return;
    }
    let mut next: Vec<(MemberState, u64)> = Vec::with_capacity(chunk.len() + 1);
    for &(m, count) in chunk.iter() {
        next.extend(split(m, count).into_iter().filter(|part| part.1 > 0));
    }
    canonicalize(&mut next);
    if next != **chunk {
        *chunk = Arc::new(next);
    }
}

/// The cohort-wide sums one epoch transition reads, gathered in a
/// single pass over every run (see [`CohortState::epoch_aggregates`]).
struct EpochAggregates {
    /// Spec `get_total_active_balance` (increment-floored).
    total_active: Gwei,
    /// Unslashed timely-target balance of the previous epoch.
    previous_target: Gwei,
    /// Unslashed timely-target balance of the current epoch.
    current_target: Gwei,
    /// Unslashed participating increments of the previous epoch, per
    /// flag in [`FLAG_INDICES`] order.
    participating_increments: [u64; 3],
}

/// The flags that earn attestation rewards, in the order of the
/// reward weights.
const FLAG_INDICES: [u8; 3] = [
    TIMELY_SOURCE_FLAG_INDEX,
    TIMELY_TARGET_FLAG_INDEX,
    TIMELY_HEAD_FLAG_INDEX,
];

/// Cohort-compressed beacon state: per-class `(state, count)` chunks plus
/// the global finality bookkeeping, processed with exact spec integer
/// arithmetic. Cloning is copy-on-write (see the module docs), so forking
/// a partition branch or checkpointing a run is cheap.
///
/// # Example
///
/// A million validators cost the same as ten when they share behaviour:
///
/// ```
/// use ethpos_state::backend::{ClassSpec, StateBackend};
/// use ethpos_state::{CohortState, ParticipationFlags};
/// use ethpos_types::ChainConfig;
///
/// let config = ChainConfig::paper();
/// let classes = [
///     ClassSpec::full_stake(600_000, &config),
///     ClassSpec::full_stake(400_000, &config),
/// ];
/// let mut state = CohortState::from_classes(config, &classes);
/// for _ in 0..100 {
///     state.mark_class(0, ParticipationFlags::all());
///     state.advance_epoch(None);
/// }
/// assert_eq!(state.num_cohorts(), 2); // deterministic schedule: no splits
/// assert!(state.is_in_inactivity_leak()); // 60% < 2/3 never justifies
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CohortState {
    config: ChainConfig,
    slot: Slot,
    num_classes: usize,
    /// One chunk per class (index = class), each sorted and run-length
    /// merged under the canonical [`MemberState`] ordering.
    chunks: Vec<Chunk>,
    justification_bits: [bool; 4],
    previous_justified: Checkpoint,
    current_justified: Checkpoint,
    finalized: Checkpoint,
    /// Ring buffer of slashed effective balance per epoch (shared until
    /// a nonzero write forces a copy).
    slashings: Arc<Vec<Gwei>>,
    /// Cached sum of the `slashings` ring, maintained at every ring
    /// write — the slashings pass needs the sum each epoch, and scanning
    /// the 8192-entry ring dominated the epoch cost for small cohort
    /// counts.
    slashings_sum: Gwei,
    /// Checkpoint root at the start of each epoch (index = epoch).
    epoch_roots: PrefixVec<Root>,
    genesis_root: Root,
}

impl CohortState {
    /// Number of distinct cohorts currently tracked.
    pub fn num_cohorts(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// Current slot (always an epoch start).
    pub fn slot(&self) -> Slot {
        self.slot
    }

    /// Previous epoch (genesis-floored).
    pub fn previous_epoch(&self) -> Epoch {
        self.current_epoch().prev()
    }

    /// Epochs since finalization, measured at the previous epoch (spec
    /// `get_finality_delay`).
    pub fn finality_delay(&self) -> u64 {
        self.previous_epoch() - self.finalized.epoch
    }

    /// True if the chain is in an inactivity leak.
    pub fn is_in_inactivity_leak(&self) -> bool {
        self.finality_delay() > self.config.min_epochs_to_inactivity_penalty
    }

    /// Genesis block root.
    pub fn genesis_root(&self) -> Root {
        self.genesis_root
    }

    /// Number of class chunks physically shared (same allocation) with
    /// `other` — nonzero exactly when copy-on-write sharing is engaged
    /// between two forks of the same state.
    pub fn shared_chunks(&self, other: &CohortState) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Number of frozen epoch-root blocks shared with `other` (see
    /// [`PrefixVec::shared_blocks_with`]).
    pub fn shared_epoch_root_blocks(&self, other: &CohortState) -> usize {
        self.epoch_roots.shared_blocks_with(&other.epoch_roots)
    }

    /// Rebuilds every class chunk by transforming each cohort's member
    /// state, merging cohorts that land on the same state. Chunks that
    /// `f` leaves untouched keep their shared allocation.
    fn transform(&mut self, mut f: impl FnMut(u32, &MemberState) -> MemberState) {
        for (class, chunk) in self.chunks.iter_mut().enumerate() {
            transform_chunk(chunk, |m| f(class as u32, m));
        }
    }

    /// Sum of `count × f(member)` over all cohorts (u64, spec-width).
    fn sum_over(&self, mut f: impl FnMut(&MemberState) -> u64) -> u64 {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .map(|(m, count)| count * f(m))
            .sum()
    }

    /// Every aggregate of the epoch transition in one pass over the
    /// cohorts. Justification writes only checkpoints, so the sums it
    /// reads are also the ones the member updates read.
    fn epoch_aggregates(&self) -> EpochAggregates {
        let current_epoch = self.current_epoch();
        let previous_epoch = self.previous_epoch();
        let increment = self.config.effective_balance_increment.as_u64();
        let mut total_active = 0u64;
        let mut previous_target = 0u64;
        let mut current_target = 0u64;
        let mut participating_increments = [0u64; 3];
        for (m, count) in self.chunks.iter().flat_map(|chunk| chunk.iter()) {
            let stake = count * m.effective_balance.as_u64();
            if m.is_active_at(current_epoch) {
                total_active += stake;
                if !m.slashed && m.current_flags.has_timely_target() {
                    current_target += stake;
                }
            }
            if m.slashed || !m.is_active_at(previous_epoch) {
                continue;
            }
            if m.previous_flags.has_timely_target() {
                previous_target += stake;
            }
            for (k, &flag) in FLAG_INDICES.iter().enumerate() {
                if m.previous_flags.has(flag) {
                    participating_increments[k] +=
                        count * (m.effective_balance.as_u64() / increment);
                }
            }
        }
        EpochAggregates {
            total_active: Gwei::new(total_active).max(self.config.effective_balance_increment),
            previous_target: Gwei::new(previous_target),
            current_target: Gwei::new(current_target),
            participating_increments,
        }
    }

    // ── epoch processing ────────────────────────────────────────────────
    //
    // The spec's epoch steps run in order: justification & finalization,
    // inactivity updates, rewards & penalties, registry updates,
    // slashings, effective-balance updates, slashings reset,
    // participation-flag rotation. Here the six member-local steps are
    // fused into a single chunk rebuild: every global aggregate a later
    // step reads is invariant under the earlier steps' member writes
    // (inactivity touches only scores, rewards only balances, registry
    // sets `exit_epoch` to `current + 1` which keeps the member active
    // *at* `current`), so all aggregates can be computed up front and
    // the per-member updates composed in spec order.

    fn process_epoch(&mut self) {
        // Per-stage wall-clock timing, **sampled every 64th epoch**:
        // this is the workspace's hottest loop (~0.5 µs per epoch on
        // compressed states, so one timed epoch costs nearly as much as
        // an untimed one); the 1-in-64 sample keeps the `obs_overhead`
        // gate comfortably under 3% while the stage histograms stay
        // representative (epoch 0 is always in the sample). Timing is
        // observation-only — the transition itself is identical on both
        // paths. The `justification` stage includes the aggregate pass.
        let timer = stage_timer("cohort", self.current_epoch().as_u64() & 63 == 0);
        let aggregates = self.epoch_aggregates();
        match timer {
            Some(mut t) => {
                self.process_justification_and_finalization(&aggregates);
                t.stage("justification");
                self.process_member_updates(&aggregates);
                t.stage("member_updates");
                self.process_slashings_reset();
                t.stage("slashings_reset");
            }
            None => {
                self.process_justification_and_finalization(&aggregates);
                self.process_member_updates(&aggregates);
                self.process_slashings_reset();
            }
        }
    }

    fn process_justification_and_finalization(&mut self, aggregates: &EpochAggregates) {
        let current_epoch = self.current_epoch();
        // Spec: skip the first two epochs.
        if current_epoch.as_u64() <= 1 {
            return;
        }
        let previous_epoch = self.previous_epoch();
        let total = aggregates.total_active;
        let previous_target = aggregates.previous_target;
        let current_target = aggregates.current_target;
        let prev_root = self.epoch_roots[previous_epoch.as_u64() as usize];
        let curr_root = self.epoch_roots[current_epoch.as_u64() as usize];

        let old_previous_justified = self.previous_justified;
        let old_current_justified = self.current_justified;

        // Rotate: previous ← current; shift bits.
        self.previous_justified = self.current_justified;
        self.justification_bits.copy_within(0..3, 1);
        self.justification_bits[0] = false;

        if previous_target.as_u64() * 3 >= total.as_u64() * 2 {
            self.current_justified = Checkpoint::new(previous_epoch, prev_root);
            self.justification_bits[1] = true;
        }
        if current_target.as_u64() * 3 >= total.as_u64() * 2 {
            self.current_justified = Checkpoint::new(current_epoch, curr_root);
            self.justification_bits[0] = true;
        }

        // The four finalization rules.
        let bits = self.justification_bits;
        if bits[1] && bits[2] && bits[3] && old_previous_justified.epoch + 3 == current_epoch {
            self.finalized = old_previous_justified;
        }
        if bits[1] && bits[2] && old_previous_justified.epoch + 2 == current_epoch {
            self.finalized = old_previous_justified;
        }
        if bits[0] && bits[1] && bits[2] && old_current_justified.epoch + 2 == current_epoch {
            self.finalized = old_current_justified;
        }
        if bits[0] && bits[1] && old_current_justified.epoch + 1 == current_epoch {
            self.finalized = old_current_justified;
        }
    }

    /// The six member-local epoch steps (inactivity, rewards & penalties,
    /// registry, slashings, effective balance, flag rotation), fused into
    /// one chunk rebuild per class.
    fn process_member_updates(&mut self, aggregates: &EpochAggregates) {
        let current_epoch = self.current_epoch();
        let previous_epoch = self.previous_epoch();

        // Genesis gating, per the spec: no inactivity or reward settling
        // for the epoch before genesis.
        let settle_previous = current_epoch != Epoch::GENESIS;

        // ── inactivity aggregates ──
        let bias = self.config.inactivity_score_bias;
        let recovery = self.config.inactivity_score_recovery_rate;
        let in_leak = self.is_in_inactivity_leak();

        // ── reward & penalty aggregates (all invariant under the
        //    score-only inactivity writes) ──
        let total_active = aggregates.total_active.as_u64();
        let increment = self.config.effective_balance_increment.as_u64();
        let total_increments = (total_active / increment).max(1);
        let base_per_increment = {
            let factor = self.config.base_reward_factor;
            increment * factor / integer_sqrt(total_active).max(1)
        };
        let denominator = self.config.weight_denominator;
        let leak_denominator =
            self.config.inactivity_score_bias * self.config.inactivity_penalty_quotient;
        let paper_semantics = self.config.paper_inactivity_penalties;
        let weights = [
            self.config.timely_source_weight,
            self.config.timely_target_weight,
            self.config.timely_head_weight,
        ];
        let participating_increments = aggregates.participating_increments;

        // ── registry aggregates ──
        let ejection_balance = self.config.ejection_balance;
        let exit_epoch = current_epoch + 1;

        // ── slashing aggregates (the ring is untouched by member steps,
        //    and the total active balance is invariant as argued above) ──
        let vector = self.config.epochs_per_slashings_vector;
        let slashings_sum: u64 = self.slashings_sum.as_u64();
        let adjusted = slashings_sum
            .saturating_mul(self.config.proportional_slashing_multiplier)
            .min(total_active);

        // ── effective-balance hysteresis aggregates ──
        let hysteresis_increment = self
            .config
            .effective_balance_increment
            .integer_div(self.config.hysteresis_quotient);
        let downward =
            Gwei::new(hysteresis_increment.as_u64() * self.config.hysteresis_downward_multiplier);
        let upward =
            Gwei::new(hysteresis_increment.as_u64() * self.config.hysteresis_upward_multiplier);
        let max_effective = self.config.max_effective_balance;

        self.transform(|_, m| {
            let mut m = *m;
            if settle_previous {
                let eligible = m.is_active_at(previous_epoch)
                    || (m.slashed && previous_epoch + 1 < m.withdrawable_epoch);
                if eligible {
                    // Inactivity-score update (paper Eq. 1).
                    let timely = !m.slashed && m.previous_flags.has_timely_target();
                    let mut score = m.inactivity_score;
                    if timely {
                        score -= score.min(1);
                    } else {
                        score += bias;
                    }
                    if !in_leak {
                        score -= score.min(recovery);
                    }
                    m.inactivity_score = score;

                    // Rewards & penalties, reading the just-updated score.
                    let increments_i = m.effective_balance.as_u64() / increment;
                    let base_reward = increments_i * base_per_increment;
                    let mut reward = 0u64;
                    let mut penalty = 0u64;
                    for (k, &flag) in FLAG_INDICES.iter().enumerate() {
                        let participated = !m.slashed && m.previous_flags.has(flag);
                        if participated {
                            if !in_leak {
                                let numerator =
                                    base_reward * weights[k] * participating_increments[k];
                                reward += numerator / (total_increments * denominator);
                            }
                            // In a leak: no reward (paper §4).
                        } else if flag != TIMELY_HEAD_FLAG_INDEX {
                            penalty += base_reward * weights[k] / denominator;
                        }
                    }
                    let pays_inactivity = if paper_semantics {
                        m.slashed || m.inactivity_score > 0
                    } else {
                        m.slashed || !m.previous_flags.has(TIMELY_TARGET_FLAG_INDEX)
                    };
                    if pays_inactivity {
                        let penalty_numerator =
                            m.effective_balance.as_u64() as u128 * m.inactivity_score as u128;
                        penalty += (penalty_numerator / leak_denominator as u128) as u64;
                    }
                    // Mirror dense order: increase_balance then saturating
                    // decrease_balance.
                    m.balance = (m.balance + Gwei::new(reward)).saturating_sub(Gwei::new(penalty));
                }
            }

            // Registry: ejection at the 16-ETH effective-balance floor.
            if m.is_active_at(current_epoch)
                && m.effective_balance <= ejection_balance
                && m.exit_epoch == FAR_FUTURE_EPOCH
            {
                m.exit_epoch = exit_epoch;
                if m.withdrawable_epoch == FAR_FUTURE_EPOCH {
                    m.withdrawable_epoch = exit_epoch + 256;
                }
            }

            // Correlation slashing penalty (spec `process_slashings`),
            // reading the post-registry withdrawable epoch.
            if adjusted != 0 && m.slashed && current_epoch + vector / 2 == m.withdrawable_epoch {
                let penalty_numerator =
                    (m.effective_balance.as_u64() / increment) as u128 * adjusted as u128;
                let penalty = (penalty_numerator / total_active as u128) as u64 * increment;
                m.balance = m.balance.saturating_sub(Gwei::new(penalty));
            }

            // Effective-balance hysteresis, reading the settled balance.
            if m.balance + downward < m.effective_balance
                || m.effective_balance + upward < m.balance
            {
                // `ChainConfig::snapped_effective_balance`, inlined on the
                // captured constants.
                let bal = m.balance.as_u64();
                m.effective_balance = Gwei::new(bal - bal % increment).min(max_effective);
            }

            // Participation-flag rotation.
            m.previous_flags = m.current_flags;
            m.current_flags = ParticipationFlags::EMPTY;
            m
        });
    }

    fn process_slashings_reset(&mut self) {
        let next = self.current_epoch() + 1;
        let len = self.config.epochs_per_slashings_vector;
        let idx = (next.as_u64() % len) as usize;
        // Writing a zero over a zero is the common case (nothing in the
        // paper's scenarios slashes); skip it to keep the ring shared
        // between forks instead of forcing a copy-on-write clone.
        if self.slashings[idx] != Gwei::ZERO {
            self.slashings_sum -= self.slashings[idx];
            Arc::make_mut(&mut self.slashings)[idx] = Gwei::ZERO;
        }
    }
}

impl StateBackend for CohortState {
    fn from_classes(config: ChainConfig, classes: &[ClassSpec]) -> Self {
        let total: u64 = classes.iter().map(|c| c.count).sum();
        let genesis_root = hash_u64(&[0x67_656e_6573_6973, total]); // "genesis"
        let chunks = classes
            .iter()
            .map(|spec| {
                if spec.count == 0 {
                    return Arc::new(Vec::new());
                }
                let member = MemberState {
                    balance: spec.balance,
                    effective_balance: config.snapped_effective_balance(spec.balance),
                    inactivity_score: 0,
                    slashed: false,
                    activation_epoch: Epoch::GENESIS,
                    exit_epoch: FAR_FUTURE_EPOCH,
                    withdrawable_epoch: FAR_FUTURE_EPOCH,
                    previous_flags: ParticipationFlags::EMPTY,
                    current_flags: ParticipationFlags::EMPTY,
                };
                Arc::new(vec![(member, spec.count)])
            })
            .collect();
        let genesis_checkpoint = Checkpoint::genesis(genesis_root);
        CohortState {
            slashings: Arc::new(vec![
                Gwei::ZERO;
                config.epochs_per_slashings_vector as usize
            ]),
            slashings_sum: Gwei::ZERO,
            config,
            slot: Slot::GENESIS,
            num_classes: classes.len(),
            chunks,
            justification_bits: [false; 4],
            previous_justified: genesis_checkpoint,
            current_justified: genesis_checkpoint,
            finalized: genesis_checkpoint,
            epoch_roots: std::iter::once(genesis_root).collect(),
            genesis_root,
        }
    }

    fn config(&self) -> &ChainConfig {
        &self.config
    }

    fn current_epoch(&self) -> Epoch {
        self.slot.epoch(self.config.slots_per_epoch)
    }

    fn current_justified_checkpoint(&self) -> Checkpoint {
        self.current_justified
    }

    fn finalized_checkpoint(&self) -> Checkpoint {
        self.finalized
    }

    fn total_active_balance(&self) -> Gwei {
        let epoch = self.current_epoch();
        let total = self.sum_over(|m| {
            if m.is_active_at(epoch) {
                m.effective_balance.as_u64()
            } else {
                0
            }
        });
        Gwei::new(total).max(self.config.effective_balance_increment)
    }

    fn current_target_balance(&self) -> Gwei {
        let epoch = self.current_epoch();
        Gwei::new(self.sum_over(|m| {
            if !m.slashed && m.is_active_at(epoch) && m.current_flags.has_timely_target() {
                m.effective_balance.as_u64()
            } else {
                0
            }
        }))
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn class_stats(&self, class: usize) -> ClassStats {
        let epoch = self.current_epoch();
        let mut stats = ClassStats::default();
        for (m, count) in self.chunks[class].iter() {
            stats.total += count;
            if m.is_active_at(epoch) {
                stats.active += count;
                stats.active_stake += Gwei::new(count * m.effective_balance.as_u64());
            } else {
                stats.exited += count;
            }
        }
        stats
    }

    fn class_floor(&self, class: usize) -> Option<MemberState> {
        // Chunks are sorted: the first run is the floor.
        self.chunks
            .get(class)
            .and_then(|chunk| chunk.first())
            .map(|&(m, _)| m)
    }

    fn mark_class(&mut self, class: usize, flags: ParticipationFlags) {
        let epoch = self.current_epoch();
        transform_chunk(&mut self.chunks[class], |m| {
            if m.is_active_at(epoch) {
                MemberState {
                    current_flags: m.current_flags.union(flags),
                    ..*m
                }
            } else {
                *m
            }
        });
    }

    fn mark_class_sampled(
        &mut self,
        class: usize,
        flags: ParticipationFlags,
        draw: &mut dyn FnMut() -> bool,
    ) {
        let epoch = self.current_epoch();
        // Consume one draw per member — exited members included, so a
        // caller feeding both partition branches from one shared
        // membership buffer stays index-aligned (see the trait doc).
        mark_split(&mut self.chunks[class], epoch, flags, |_, count| {
            (0..count).filter(|_| draw()).count() as u64
        });
    }

    fn mark_class_counted(
        &mut self,
        class: usize,
        flags: ParticipationFlags,
        sample: &mut dyn FnMut(u64) -> u64,
    ) {
        let epoch = self.current_epoch();
        // Exited cohorts consume no draw (trait contract): the stream is
        // one count draw per *active* cohort.
        mark_split(&mut self.chunks[class], epoch, flags, |active, count| {
            if active {
                sample(count)
            } else {
                0
            }
        });
    }

    fn advance_epoch(&mut self, next_checkpoint_root: Option<Root>) {
        self.process_epoch();
        let spe = self.config.slots_per_epoch;
        self.slot = (self.current_epoch() + 1).start_slot(spe);
        let carried = *self.epoch_roots.last().expect("never empty");
        self.epoch_roots
            .push(next_checkpoint_root.unwrap_or(carried));
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot {
            slot: self.slot,
            justification_bits: self.justification_bits,
            previous_justified: self.previous_justified,
            current_justified: self.current_justified,
            finalized: self.finalized,
            slashings: (*self.slashings).clone(),
            classes: self.chunks.iter().map(|c| (**c).clone()).collect(),
        }
    }

    fn class_balance(&self, class: usize) -> Gwei {
        Gwei::new(
            self.chunks[class]
                .iter()
                .map(|(m, count)| m.balance.as_u64() * count)
                .sum(),
        )
    }

    fn shared_chunks_with(&self, other: &Self) -> usize {
        self.shared_chunks(other)
    }

    fn fragmentation(&self) -> Option<Fragmentation> {
        Some(Fragmentation {
            cohorts: self.num_cohorts() as u64,
            classes: self.num_classes as u64,
            max_cohorts_per_class: self.chunks.iter().map(|c| c.len()).max().unwrap_or(0) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DenseState;

    fn full(count: u64) -> ClassSpec {
        ClassSpec::full_stake(count, &ChainConfig::minimal())
    }

    /// Drives a dense and a cohort backend through the same schedule and
    /// asserts equal snapshots after every epoch.
    fn assert_equivalent(
        config: ChainConfig,
        classes: &[ClassSpec],
        epochs: u64,
        schedule: impl Fn(u64, usize) -> bool,
    ) {
        let mut dense = DenseState::from_classes(config.clone(), classes);
        let mut cohort = CohortState::from_classes(config, classes);
        assert_eq!(dense.snapshot(), cohort.snapshot(), "genesis");
        for epoch in 0..epochs {
            for class in 0..classes.len() {
                if schedule(epoch, class) {
                    dense.mark_class(class, ParticipationFlags::all());
                    cohort.mark_class(class, ParticipationFlags::all());
                }
            }
            dense.advance_epoch(None);
            cohort.advance_epoch(None);
            assert_eq!(dense.snapshot(), cohort.snapshot(), "epoch {epoch}");
        }
    }

    #[test]
    fn healthy_chain_matches_dense_and_finalizes() {
        let classes = [full(16)];
        let mut cohort = CohortState::from_classes(ChainConfig::minimal(), &classes);
        for _ in 0..6 {
            cohort.mark_class(0, ParticipationFlags::all());
            cohort.advance_epoch(None);
        }
        assert_eq!(cohort.finalized_checkpoint().epoch, Epoch::new(4));
        assert!(!cohort.is_in_inactivity_leak());
        assert_equivalent(ChainConfig::minimal(), &classes, 8, |_, _| true);
    }

    #[test]
    fn idle_chain_leaks_identically() {
        assert_equivalent(ChainConfig::minimal(), &[full(8), full(8)], 12, |_, _| {
            false
        });
    }

    #[test]
    fn mixed_schedule_matches_dense() {
        // Class 0 always attests, class 1 every other epoch, class 2 never
        // — the Fig. 2 cohort mix, under both penalty semantics.
        for config in [ChainConfig::minimal(), ChainConfig::paper()] {
            assert_equivalent(
                config,
                &[full(1), full(1), full(8)],
                24,
                |epoch, class| match class {
                    0 => true,
                    1 => epoch % 2 == 0,
                    _ => false,
                },
            );
        }
    }

    #[test]
    fn genesis_ejection_boundary_matches_dense() {
        // 16.5 ETH snaps to a 16-ETH effective balance at genesis, which
        // is at the ejection threshold: the class exits at epoch 1.
        let low = ClassSpec {
            count: 4,
            balance: Gwei::from_eth_f64(16.5),
        };
        assert_equivalent(ChainConfig::minimal(), &[full(8), low], 6, |_, c| c == 0);
        let mut cohort = CohortState::from_classes(ChainConfig::minimal(), &[full(8), low]);
        for _ in 0..3 {
            cohort.mark_class(0, ParticipationFlags::all());
            cohort.advance_epoch(None);
        }
        let stats = cohort.class_stats(1);
        assert_eq!(stats.exited, 4);
        assert_eq!(cohort.class_stats(0).exited, 0);
    }

    #[test]
    fn sampled_marking_splits_and_merges_cohorts() {
        let mut cohort = CohortState::from_classes(ChainConfig::minimal(), &[full(10)]);
        let mut i = 0;
        cohort.mark_class_sampled(0, ParticipationFlags::all(), &mut || {
            i += 1;
            i % 2 == 0
        });
        assert_eq!(cohort.num_cohorts(), 2); // split: 5 marked, 5 not
        let marked_stake = cohort.current_target_balance();
        assert_eq!(marked_stake, Gwei::from_eth_u64(5 * 32));
        // One epoch later the flags rotate; scores of the two halves
        // diverge, so the split persists…
        cohort.advance_epoch(None);
        assert_eq!(cohort.num_cohorts(), 2);
        // …until their states coincide again (everyone idle long enough
        // outside a leak recovers to score 0 — here both halves are again
        // distinct only through scores, so marking everyone keeps 2).
        let snap = cohort.snapshot();
        let total: u64 = snap.classes[0].iter().map(|(_, c)| c).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn counted_marking_splits_by_count_and_skips_exited_cohorts() {
        let mut cohort = CohortState::from_classes(ChainConfig::minimal(), &[full(10)]);
        let mut calls = Vec::new();
        cohort.mark_class_counted(0, ParticipationFlags::all(), &mut |count| {
            calls.push(count);
            3
        });
        // One count draw for the single genesis cohort, split 3 / 7.
        assert_eq!(calls, vec![10]);
        assert_eq!(cohort.num_cohorts(), 2);
        assert_eq!(cohort.current_target_balance(), Gwei::from_eth_u64(3 * 32));

        // An exited cohort consumes no draw: eject a sub-16-ETH class
        // and verify only the live cohorts are offered.
        let low = ClassSpec {
            count: 4,
            balance: Gwei::from_eth_f64(16.5),
        };
        let mut cohort = CohortState::from_classes(ChainConfig::minimal(), &[full(8), low]);
        for _ in 0..3 {
            cohort.mark_class(0, ParticipationFlags::all());
            cohort.advance_epoch(None);
        }
        assert_eq!(cohort.class_stats(1).exited, 4);
        let mut calls = 0u64;
        cohort.mark_class_counted(1, ParticipationFlags::all(), &mut |_| {
            calls += 1;
            0
        });
        assert_eq!(calls, 0, "exited cohorts must not consume count draws");
    }

    #[test]
    fn counted_marking_overdraw_is_clamped_to_cohort_size() {
        let mut cohort = CohortState::from_classes(ChainConfig::minimal(), &[full(5)]);
        cohort.mark_class_counted(0, ParticipationFlags::all(), &mut |_| u64::MAX);
        assert_eq!(cohort.num_cohorts(), 1);
        assert_eq!(cohort.current_target_balance(), Gwei::from_eth_u64(5 * 32));
    }

    #[test]
    fn class_floor_reads_smallest_member() {
        let classes = [full(4), full(2)];
        let mut cohort = CohortState::from_classes(ChainConfig::minimal(), &classes);
        cohort.mark_class(0, ParticipationFlags::all());
        for _ in 0..6 {
            cohort.advance_epoch(None);
            cohort.mark_class(0, ParticipationFlags::all());
        }
        let active = cohort.class_floor(0).unwrap();
        let idle = cohort.class_floor(1).unwrap();
        assert!(active.balance >= idle.balance);
        assert_eq!(cohort.class_floor(2), None);
    }

    // ── copy-on-write aliasing ──────────────────────────────────────────

    #[test]
    fn fork_shares_every_chunk_until_a_mutation() {
        let classes = [full(330_000), full(335_000), full(335_000)];
        let parent = CohortState::from_classes(ChainConfig::paper(), &classes);
        let fork = parent.clone();
        // A forked million-validator state shares all of its storage.
        assert_eq!(parent.shared_chunks(&fork), 3);
        // Mutating one class in the fork unshares exactly that chunk.
        let mut fork = fork;
        fork.mark_class(1, ParticipationFlags::all());
        assert_eq!(parent.shared_chunks(&fork), 2);
    }

    #[test]
    fn mutation_after_fork_never_leaks_into_the_sibling() {
        let classes = [full(4), full(4)];
        let mut parent = CohortState::from_classes(ChainConfig::minimal(), &classes);
        for _ in 0..3 {
            parent.mark_class(0, ParticipationFlags::all());
            parent.mark_class(1, ParticipationFlags::all());
            parent.advance_epoch(None);
        }
        let before = parent.snapshot();
        let mut sibling = parent.clone();
        // Diverge the sibling hard: different marking, several epochs.
        for _ in 0..5 {
            sibling.mark_class(0, ParticipationFlags::all());
            sibling.advance_epoch(None);
        }
        assert_eq!(parent.snapshot(), before, "sibling mutations leaked");
        assert_ne!(sibling.snapshot(), before);
        // And the parent advancing afterwards does not disturb the sibling.
        let sibling_snap = sibling.snapshot();
        parent.mark_class(1, ParticipationFlags::all());
        parent.advance_epoch(None);
        assert_eq!(sibling.snapshot(), sibling_snap);
    }

    #[test]
    fn stable_chunks_stay_shared_across_epochs() {
        // Class 1 is ejected early (16-ETH effective balance at genesis);
        // once exited and idle its chunk is a fixed point of epoch
        // processing, so two forks keep sharing it while their active
        // classes diverge.
        let low = ClassSpec {
            count: 4,
            balance: Gwei::from_eth_f64(16.5),
        };
        let mut parent = CohortState::from_classes(ChainConfig::minimal(), &[full(8), low]);
        for _ in 0..4 {
            parent.mark_class(0, ParticipationFlags::all());
            parent.advance_epoch(None);
        }
        assert_eq!(parent.class_stats(1).exited, 4);
        let mut fork = parent.clone();
        for _ in 0..3 {
            fork.mark_class(0, ParticipationFlags::all());
            fork.advance_epoch(None);
        }
        // The exited class's chunk is still the parent's allocation.
        assert!(parent.shared_chunks(&fork) >= 1);
        assert_eq!(parent.snapshot().classes[1], fork.snapshot().classes[1]);
    }

    #[test]
    fn cow_state_equals_its_fork_logically() {
        let mut a = CohortState::from_classes(ChainConfig::minimal(), &[full(6)]);
        a.mark_class(0, ParticipationFlags::all());
        a.advance_epoch(None);
        let b = a.clone();
        assert_eq!(a, b);
        let mut c = b.clone();
        c.advance_epoch(None);
        assert_ne!(a, c);
    }
}
