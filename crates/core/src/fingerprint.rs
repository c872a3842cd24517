//! Canonical placement fingerprinting — exact individualisation-refinement.
//!
//! Two placements that differ only in how devices are numbered or in the
//! order their blocks were added describe the *same* scheduling problem: the
//! optimal repetend period, bubble rate and (up to relabeling) the schedule
//! itself are identical. A result cache keyed by the raw [`PlacementSpec`]
//! would miss those equivalences, so this module computes a **canonical
//! form** — a deterministic relabeling of devices and reordering of blocks
//! that is invariant under both symmetries — plus a stable 64-bit
//! [`Fingerprint`] of that form.
//!
//! Unlike the first-generation implementation (colour refinement with greedy
//! tie-breaking — Weisfeiler–Leman strength, retained as
//! [`PlacementSpec::wl_fingerprint`]), canonicalization is now an **exact**
//! nauty-style search:
//!
//! 1. **Refine** the block/device colouring to a stable partition (hash-based
//!    1-WL over the dependency DAG and the block↔device incidence relation).
//! 2. If the partition is not discrete, pick a **target cell** invariantly
//!    (smallest ambiguous colour class) and branch: **individualise** each
//!    member in turn and recurse.
//! 3. Every discrete leaf yields a candidate labeling; its serialized
//!    **leaf form** is compared and the lexicographic minimum (of the
//!    node-invariant trace, then the form) wins.
//! 4. Two leaves with equal forms differ by an **automorphism** of the
//!    placement; verified generators prune sibling branches (orbit pruning),
//!    and a best-leaf trace comparison prunes subtrees that can no longer
//!    produce the minimum.
//!
//! The minimum is taken over a set of labelings that is itself invariant
//! under relabeling, so the canonical form — and hence the fingerprint — is
//! identical for any two isomorphic placements and different for any two
//! non-isomorphic ones (the search is exact, not refinement-bounded). Block
//! names and the placement name are deliberately excluded: they are
//! arbitrary labels with no scheduling meaning. Costs (time, memory, FLOPs,
//! output bytes), block kinds, dependencies, device sets and the memory
//! capacity are all part of the fingerprint.
//!
//! Because the labeling is exact, fingerprint equality is trusted across the
//! cache tiers: equal fingerprints imply equal canonical forms up to 64-bit
//! hash collision of two *non-isomorphic* forms (probability ~2⁻⁶⁴ per pair,
//! and a collision degrades to a wrong cache hit that schedule validation
//! rejects). The service keeps a `--paranoid-fingerprints` escape hatch that
//! re-checks full canonical-form equality and counts any mismatch.
//!
//! The search carries a **node budget** ([`DEFAULT_NODE_BUDGET`] unless the
//! caller picks one): individualisation-refinement is exponential in the
//! worst case (CFI-style gadgets), and the canonicalization runs on every
//! service request, so an adversarial placement must not buy unbounded CPU.
//! Past the budget the search stops branching and descends **greedily** (one
//! child per node) to a single leaf, setting [`CanonStats::budget_exhausted`].
//! Greedy completion keeps the hard guarantees asymmetric in the safe
//! direction: the emitted leaf form is still a faithful serialization of
//! *this* placement's structure, so two non-isomorphic placements can never
//! be merged by exhaustion — but two isomorphic ones may **split** into
//! different fingerprints (the greedy tie-break is no longer
//! relabeling-invariant), which degrades to a cache miss, never a wrong hit.
//! The result stays deterministic for byte-identical inputs.

use crate::error::CoreError;
use crate::ir::{BlockKind, BlockSpec, PlacementSpec};
use serde::{Deserialize, Error as SerdeError, Serialize, Value, Writer};
use std::fmt;

/// A stable 64-bit hash of a placement's canonical form.
///
/// Invariant under device relabeling and block reordering; rendered and
/// serialized as a 16-digit lowercase hex string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Fingerprint {
    /// Parses the hex form produced by [`fmt::Display`].
    #[must_use]
    pub fn parse(text: &str) -> Option<Fingerprint> {
        if text.len() != 16 {
            return None;
        }
        u64::from_str_radix(text, 16).ok().map(Fingerprint)
    }
}

impl Serialize for Fingerprint {
    fn write_json(&self, writer: &mut Writer<'_>) {
        writer.display(self);
    }
}

impl Deserialize for Fingerprint {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        match value {
            Value::Str(s) => Fingerprint::parse(s)
                .ok_or_else(|| SerdeError::custom(format!("invalid fingerprint `{s}`"))),
            other => Err(SerdeError::custom(format!(
                "expected fingerprint string, found {other:?}"
            ))),
        }
    }
}

/// A placement brought into canonical form, with the permutations needed to
/// translate results back to the original labeling.
#[derive(Debug, Clone)]
pub struct CanonicalPlacement {
    /// The canonical placement: blocks in canonical (topological) order,
    /// devices relabeled, names normalised.
    pub placement: PlacementSpec,
    /// The fingerprint of the canonical form.
    pub fingerprint: Fingerprint,
    /// `block_perm[original_stage] = canonical_stage`.
    pub block_perm: Vec<usize>,
    /// `device_perm[original_device] = canonical_device`.
    pub device_perm: Vec<usize>,
}

impl CanonicalPlacement {
    /// The original stage index of canonical stage `canonical`.
    #[must_use]
    pub fn original_block(&self, canonical: usize) -> usize {
        self.block_perm
            .iter()
            .position(|&c| c == canonical)
            .expect("canonical index in range")
    }

    /// Inverse of [`CanonicalPlacement::block_perm`]:
    /// `result[canonical_stage] = original_stage`.
    #[must_use]
    pub fn inverse_block_perm(&self) -> Vec<usize> {
        let mut inv = vec![0usize; self.block_perm.len()];
        for (orig, &canon) in self.block_perm.iter().enumerate() {
            inv[canon] = orig;
        }
        inv
    }

    /// Inverse of [`CanonicalPlacement::device_perm`]:
    /// `result[canonical_device] = original_device`.
    #[must_use]
    pub fn inverse_device_perm(&self) -> Vec<usize> {
        let mut inv = vec![0usize; self.device_perm.len()];
        for (orig, &canon) in self.device_perm.iter().enumerate() {
            inv[canon] = orig;
        }
        inv
    }
}

/// Statistics from one canonical-labeling search. Exposed so tests (and
/// diagnostics) can pin the effect of automorphism pruning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CanonStats {
    /// Search-tree nodes visited (root included).
    pub nodes: u64,
    /// Discrete leaves whose candidate labeling was evaluated.
    pub leaves: u64,
    /// Verified non-identity automorphism generators discovered.
    pub automorphisms: u64,
    /// `true` when the search hit its node budget and completed greedily.
    /// The fingerprint is still sound (non-isomorphic placements never
    /// merge) but isomorphic relabelings of this placement may no longer
    /// map to the same fingerprint.
    pub budget_exhausted: bool,
}

// ---------------------------------------------------------------------------
// Hash primitives
// ---------------------------------------------------------------------------

/// One mixing step (xorshift-multiply, splitmix-style): order-sensitive.
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 32;
    x = x.wrapping_mul(0xd6e8_feb8_6659_fd93);
    x ^= x >> 32;
    x = x.wrapping_mul(0xd6e8_feb8_6659_fd93);
    x ^ (x >> 32)
}

/// Order-free combination: sorts the values first, so the result only depends
/// on the multiset.
fn mix_multiset(seed: u64, values: &mut Vec<u64>) -> u64 {
    values.sort_unstable();
    let mut h = mix(seed, values.len() as u64);
    for &v in values.iter() {
        h = mix(h, v);
    }
    values.clear();
    h
}

/// FNV-1a over the 8 little-endian bytes of `v`.
fn fnv_word(mut h: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn i64_word(v: i64) -> u64 {
    u64::from_ne_bytes(v.to_ne_bytes())
}

fn kind_word(kind: BlockKind) -> u64 {
    match kind {
        BlockKind::Forward => 0x66,
        BlockKind::Backward => 0x62,
    }
}

/// Colour mixed into a vertex when the search individualises it.
const INDIVIDUALISE: u64 = 0x1e5e_11ed;
/// Generator cap: enough to collapse every symmetric cell seen in practice,
/// small enough that orbit computation stays trivial.
const MAX_GENERATORS: usize = 64;
/// Default node budget of the canonical-labeling search. Real placements
/// discretize within a handful of nodes (a pipeline chain takes exactly
/// one); the budget only exists so a WL-hard adversarial input degrades to a
/// bounded greedy completion instead of exponential backtracking.
pub const DEFAULT_NODE_BUDGET: u64 = 50_000;

// ---------------------------------------------------------------------------
// Colour refinement
// ---------------------------------------------------------------------------

/// The joint block/device colouring the search refines and individualises.
#[derive(Clone)]
struct Colouring {
    blocks: Vec<u64>,
    devices: Vec<u64>,
}

/// Longest-path depth of every block (0 for blocks without dependencies).
/// Invariant under both symmetries and compatible with topological order:
/// every dependency edge goes from a strictly smaller depth to a larger one.
fn block_depths(placement: &PlacementSpec) -> Vec<usize> {
    let mut depth = vec![0usize; placement.num_blocks()];
    for &stage in &placement.topological_stages() {
        let d = placement
            .block(stage)
            .deps
            .iter()
            .map(|&p| depth[p] + 1)
            .max()
            .unwrap_or(0);
        depth[stage] = d;
    }
    depth
}

/// One pass of colour refinement over the block/device incidence structure.
fn refine_round(
    placement: &PlacementSpec,
    dependents: &[Vec<usize>],
    block_colors: &mut [u64],
    device_colors: &mut [u64],
    scratch: &mut Vec<u64>,
) {
    let new_blocks: Vec<u64> = (0..placement.num_blocks())
        .map(|i| {
            let block = placement.block(i);
            let mut h = mix(block_colors[i], 0x426c);
            scratch.extend(block.deps.iter().map(|&p| block_colors[p]));
            h = mix_multiset(h, scratch);
            scratch.extend(dependents[i].iter().map(|&s| block_colors[s]));
            h = mix_multiset(h, scratch);
            scratch.extend(block.devices.iter().map(|&d| device_colors[d]));
            mix_multiset(h, scratch)
        })
        .collect();
    let new_devices: Vec<u64> = (0..placement.num_devices())
        .map(|d| {
            let h = mix(device_colors[d], 0x4465);
            scratch.extend(
                placement
                    .blocks()
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.uses_device(d))
                    .map(|(i, _)| new_blocks[i]),
            );
            mix_multiset(h, scratch)
        })
        .collect();
    block_colors.copy_from_slice(&new_blocks);
    device_colors.copy_from_slice(&new_devices);
}

/// Distinct colour counts (blocks, devices) — the partition-size pair that
/// decides when refinement has stabilised.
fn class_counts(col: &Colouring, scratch: &mut Vec<u64>) -> (usize, usize) {
    scratch.extend_from_slice(&col.blocks);
    scratch.sort_unstable();
    scratch.dedup();
    let blocks = scratch.len();
    scratch.clear();
    scratch.extend_from_slice(&col.devices);
    scratch.sort_unstable();
    scratch.dedup();
    let devices = scratch.len();
    scratch.clear();
    (blocks, devices)
}

/// Refines until the induced partition stops splitting (plus one confirming
/// round), with a hard round cap. The round count depends only on the
/// partition evolution — an isomorphism invariant — so the final colour
/// values are relabeling-invariant.
fn refine_stable(
    placement: &PlacementSpec,
    dependents: &[Vec<usize>],
    col: &mut Colouring,
    scratch: &mut Vec<u64>,
) {
    let cap = (placement.num_blocks() + placement.num_devices() + 2).min(64);
    let mut classes = class_counts(col, scratch);
    for _ in 0..cap {
        refine_round(
            placement,
            dependents,
            &mut col.blocks,
            &mut col.devices,
            scratch,
        );
        let now = class_counts(col, scratch);
        if now == classes {
            break;
        }
        classes = now;
    }
}

/// Initial colours from relabeling-invariant attributes only: block costs,
/// kind, depth and device-set size; devices start uniform.
fn initial_colouring(placement: &PlacementSpec, depths: &[usize]) -> Colouring {
    let blocks: Vec<u64> = placement
        .blocks()
        .iter()
        .zip(depths)
        .map(|(b, &depth)| {
            let mut h = mix(kind_word(b.kind), b.time);
            h = mix(h, i64_word(b.memory));
            h = mix(h, b.output_bytes);
            h = mix(h, b.flops.to_bits());
            h = mix(h, depth as u64);
            mix(h, b.devices.len() as u64)
        })
        .collect();
    Colouring {
        blocks,
        devices: vec![0x6465_7631; placement.num_devices()],
    }
}

// ---------------------------------------------------------------------------
// Individualisation-refinement search
// ---------------------------------------------------------------------------

/// A fully evaluated discrete leaf of the search tree.
#[derive(Clone)]
struct Leaf {
    /// Node-invariant hashes along the root-to-leaf path (root included).
    trace: Vec<u64>,
    /// Serialized canonical candidate (see [`Searcher::leaf_form`]).
    form: Vec<u64>,
    /// `block_perm[original] = candidate position`.
    block_perm: Vec<usize>,
    /// `device_perm[original] = candidate label`.
    device_perm: Vec<usize>,
}

/// A verified automorphism of the placement, as original→original maps.
struct Automorphism {
    blocks: Vec<usize>,
    devices: Vec<usize>,
}

/// `true` when every leaf whose trace extends `prefix` is strictly greater
/// than `best` — i.e. the subtree below `prefix` cannot contain the minimum
/// and may be pruned. Equal-so-far prefixes of equal length are *not* pruned:
/// the child may itself be a leaf tying on trace and winning on form.
fn prefix_beats(prefix: &[u64], best: &[u64]) -> bool {
    for (a, b) in prefix.iter().zip(best) {
        if a < b {
            return false;
        }
        if a > b {
            return true;
        }
    }
    prefix.len() > best.len()
}

struct Searcher<'a> {
    placement: &'a PlacementSpec,
    depths: Vec<usize>,
    dependents: Vec<Vec<usize>>,
    /// Enables automorphism (orbit) pruning and best-leaf trace pruning.
    /// Both searches optimise the same objective, so disabling pruning
    /// changes only the explored-leaf count, never the canonical form.
    prune: bool,
    /// Node cap: past it the search stops branching and descends greedily
    /// (see the module docs on budget exhaustion).
    node_budget: u64,
    best: Option<Leaf>,
    /// First leaf reached — the reference labeling automorphisms are
    /// discovered against.
    reference: Option<Leaf>,
    generators: Vec<Automorphism>,
    stats: CanonStats,
    scratch: Vec<u64>,
}

impl<'a> Searcher<'a> {
    fn new(placement: &'a PlacementSpec, prune: bool, node_budget: u64) -> Self {
        let k = placement.num_blocks();
        Searcher {
            placement,
            depths: block_depths(placement),
            dependents: (0..k).map(|i| placement.dependents(i)).collect(),
            prune,
            node_budget,
            best: None,
            reference: None,
            generators: Vec::new(),
            stats: CanonStats::default(),
            scratch: Vec::new(),
        }
    }

    fn refine(&mut self, col: &mut Colouring) {
        refine_stable(self.placement, &self.dependents, col, &mut self.scratch);
    }

    /// Isomorphism-invariant hash of a node's colouring: the multiset of
    /// `(depth, colour)` block pairs followed by the device-colour multiset.
    fn node_invariant(&mut self, col: &Colouring) -> u64 {
        self.scratch.extend(
            col.blocks
                .iter()
                .zip(&self.depths)
                .map(|(&c, &d)| mix(d as u64, c)),
        );
        let h = mix_multiset(0x7261_6365, &mut self.scratch);
        self.scratch.extend_from_slice(&col.devices);
        mix_multiset(h, &mut self.scratch)
    }

    /// The cell the search branches on: the smallest ambiguous colour class
    /// (ties: blocks before devices, then smallest colour value). Every
    /// component of the choice is relabeling-invariant. `None` means the
    /// colouring is discrete — a leaf.
    fn target_cell(&mut self, col: &Colouring) -> Option<(bool, Vec<usize>)> {
        let mut best: Option<(usize, u64, u64, Vec<usize>)> = None;
        for (is_block, colors) in [(true, &col.blocks), (false, &col.devices)] {
            let mut keyed: Vec<(u64, usize)> =
                colors.iter().enumerate().map(|(i, &c)| (c, i)).collect();
            keyed.sort_unstable();
            let mut start = 0;
            while start < keyed.len() {
                let mut end = start + 1;
                while end < keyed.len() && keyed[end].0 == keyed[start].0 {
                    end += 1;
                }
                if end - start >= 2 {
                    let members: Vec<usize> = keyed[start..end].iter().map(|&(_, i)| i).collect();
                    let key = (end - start, u64::from(!is_block), keyed[start].0);
                    if best.as_ref().is_none_or(|(l, t, c, _)| key < (*l, *t, *c)) {
                        best = Some((key.0, key.1, key.2, members));
                    }
                }
                start = end;
            }
        }
        best.map(|(_, type_rank, _, members)| (type_rank == 0, members))
    }

    /// Serializes the candidate labeling of a discrete leaf. Two leaves have
    /// equal forms iff their canonical `PlacementSpec`s are equal; the
    /// fingerprint is an FNV-1a hash of exactly these words.
    fn leaf_form(&self, order: &[usize], block_perm: &[usize], device_perm: &[usize]) -> Vec<u64> {
        let p = self.placement;
        let mut form = Vec::with_capacity(4 + p.num_blocks() * 10);
        form.push(p.num_devices() as u64);
        match p.memory_capacity() {
            Some(cap) => {
                form.push(1);
                form.push(i64_word(cap));
            }
            None => form.push(0),
        }
        form.push(p.num_blocks() as u64);
        for &orig in order {
            let b = p.block(orig);
            form.push(kind_word(b.kind));
            form.push(b.time);
            form.push(i64_word(b.memory));
            form.push(b.output_bytes);
            form.push(b.flops.to_bits());
            let mut devices: Vec<u64> = b.devices.iter().map(|&d| device_perm[d] as u64).collect();
            devices.sort_unstable();
            form.push(devices.len() as u64);
            form.extend(devices);
            let mut deps: Vec<u64> = b.deps.iter().map(|&q| block_perm[q] as u64).collect();
            deps.sort_unstable();
            form.push(deps.len() as u64);
            form.extend(deps);
        }
        form
    }

    /// Checks that `(blocks, devices)` really is an automorphism: every block
    /// maps to a block with identical attributes whose device set and
    /// dependency set are the images of its own.
    fn verify_automorphism(&self, blocks: &[usize], devices: &[usize]) -> bool {
        let p = self.placement;
        for i in 0..p.num_blocks() {
            let a = p.block(i);
            let b = p.block(blocks[i]);
            if a.kind != b.kind
                || a.time != b.time
                || a.memory != b.memory
                || a.output_bytes != b.output_bytes
                || a.flops.to_bits() != b.flops.to_bits()
            {
                return false;
            }
            let mut da: Vec<usize> = a.devices.iter().map(|&d| devices[d]).collect();
            da.sort_unstable();
            let mut db = b.devices.clone();
            db.sort_unstable();
            if da != db {
                return false;
            }
            let mut pa: Vec<usize> = a.deps.iter().map(|&q| blocks[q]).collect();
            pa.sort_unstable();
            let mut pb = b.deps.clone();
            pb.sort_unstable();
            if pa != pb {
                return false;
            }
        }
        true
    }

    /// Composes two equal-form leaves into the automorphism relating them:
    /// vertex `v` of the new leaf maps to the vertex the reference leaf put
    /// at the same canonical position.
    fn compose(reference: &Leaf, new: &Leaf) -> (Vec<usize>, Vec<usize>) {
        let mut inv_blocks = vec![0usize; reference.block_perm.len()];
        for (orig, &canon) in reference.block_perm.iter().enumerate() {
            inv_blocks[canon] = orig;
        }
        let mut inv_devices = vec![0usize; reference.device_perm.len()];
        for (orig, &canon) in reference.device_perm.iter().enumerate() {
            inv_devices[canon] = orig;
        }
        let blocks: Vec<usize> = new.block_perm.iter().map(|&c| inv_blocks[c]).collect();
        let devices: Vec<usize> = new.device_perm.iter().map(|&c| inv_devices[c]).collect();
        (blocks, devices)
    }

    fn record_automorphism(&mut self, blocks: Vec<usize>, devices: Vec<usize>) {
        if self.generators.len() >= MAX_GENERATORS {
            return;
        }
        let identity = blocks.iter().enumerate().all(|(i, &m)| i == m)
            && devices.iter().enumerate().all(|(i, &m)| i == m);
        if identity {
            return;
        }
        if self
            .generators
            .iter()
            .any(|g| g.blocks == blocks && g.devices == devices)
        {
            return;
        }
        if !self.verify_automorphism(&blocks, &devices) {
            return;
        }
        self.generators.push(Automorphism { blocks, devices });
        self.stats.automorphisms += 1;
    }

    /// `true` when `member` is in the same orbit as an already-explored
    /// sibling under the subgroup of discovered automorphisms that pointwise
    /// fix the individualised path prefix — its subtree is the image of an
    /// explored one and contains exactly the same leaf keys.
    fn in_explored_orbit(
        &self,
        is_block: bool,
        member: usize,
        explored: &[usize],
        path: &[(bool, usize)],
    ) -> bool {
        if explored.is_empty() || self.generators.is_empty() {
            return false;
        }
        let applicable: Vec<&Automorphism> = self
            .generators
            .iter()
            .filter(|g| {
                path.iter().all(|&(pb, v)| {
                    if pb {
                        g.blocks[v] == v
                    } else {
                        g.devices[v] == v
                    }
                })
            })
            .collect();
        if applicable.is_empty() {
            return false;
        }
        let n = if is_block {
            self.placement.num_blocks()
        } else {
            self.placement.num_devices()
        };
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut v: usize) -> usize {
            while parent[v] != v {
                parent[v] = parent[parent[v]];
                v = parent[v];
            }
            v
        }
        // Close the union-find under the generators: each generator is a
        // permutation, so unioning every vertex with its image partitions the
        // range into orbits of the generated subgroup.
        for g in &applicable {
            let map = if is_block { &g.blocks } else { &g.devices };
            for (v, &image) in map.iter().enumerate() {
                let a = find(&mut parent, v);
                let b = find(&mut parent, image);
                if a != b {
                    parent[a] = b;
                }
            }
        }
        let root = find(&mut parent, member);
        explored.iter().any(|&e| find(&mut parent, e) == root)
    }

    /// Evaluates a discrete colouring: derives the candidate permutations,
    /// serializes the form, harvests automorphisms against earlier leaves and
    /// keeps the `(trace, form)` minimum.
    fn evaluate_leaf(&mut self, col: &Colouring, trace: &[u64]) {
        self.stats.leaves += 1;
        let k = self.placement.num_blocks();
        let d = self.placement.num_devices();
        // Depth-major order is topological (dependencies strictly increase
        // depth); colours are pairwise distinct here, so the order is total
        // and the index tie-break never decides.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_unstable_by_key(|&i| (self.depths[i], col.blocks[i], i));
        let mut block_perm = vec![0usize; k];
        for (canon, &orig) in order.iter().enumerate() {
            block_perm[orig] = canon;
        }
        let mut device_order: Vec<usize> = (0..d).collect();
        device_order.sort_unstable_by_key(|&dev| (col.devices[dev], dev));
        let mut device_perm = vec![0usize; d];
        for (canon, &orig) in device_order.iter().enumerate() {
            device_perm[orig] = canon;
        }
        let form = self.leaf_form(&order, &block_perm, &device_perm);
        let leaf = Leaf {
            trace: trace.to_vec(),
            form,
            block_perm,
            device_perm,
        };

        if self.prune {
            let mut candidates: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
            if let Some(r) = &self.reference {
                if r.form == leaf.form {
                    candidates.push(Self::compose(r, &leaf));
                }
            }
            if let Some(b) = &self.best {
                if b.form == leaf.form {
                    candidates.push(Self::compose(b, &leaf));
                }
            }
            for (blocks, devices) in candidates {
                self.record_automorphism(blocks, devices);
            }
        }

        let better = match &self.best {
            None => true,
            Some(b) => (leaf.trace.as_slice(), leaf.form.as_slice()) < (&b.trace[..], &b.form[..]),
        };
        if self.reference.is_none() {
            self.reference = Some(leaf.clone());
        }
        if better {
            self.best = Some(leaf);
        }
    }

    fn search(&mut self, col: Colouring, path: &mut Vec<(bool, usize)>, trace: &mut Vec<u64>) {
        self.stats.nodes += 1;
        let Some((is_block, members)) = self.target_cell(&col) else {
            self.evaluate_leaf(&col, trace);
            return;
        };
        // Budget exhaustion: take the first branch only, so the remaining
        // descent is a straight line to one leaf (depth is bounded by the
        // vertex count). The first descent is never best-leaf-pruned —
        // `best` is still empty — so the search always produces a leaf.
        let exhausted = self.stats.nodes > self.node_budget;
        if exhausted {
            self.stats.budget_exhausted = true;
        }
        let mut explored: Vec<usize> = Vec::new();
        for &m in &members {
            if self.prune && self.in_explored_orbit(is_block, m, &explored, path) {
                continue;
            }
            let mut child = col.clone();
            if is_block {
                child.blocks[m] = mix(child.blocks[m], INDIVIDUALISE);
            } else {
                child.devices[m] = mix(child.devices[m], INDIVIDUALISE);
            }
            self.refine(&mut child);
            trace.push(self.node_invariant(&child));
            let pruned = self.prune
                && self
                    .best
                    .as_ref()
                    .is_some_and(|b| prefix_beats(trace, &b.trace));
            if !pruned {
                path.push((is_block, m));
                self.search(child, path, trace);
                path.pop();
            }
            trace.pop();
            explored.push(m);
            if exhausted {
                break;
            }
        }
    }

    fn run(mut self) -> (Leaf, CanonStats) {
        let mut col = initial_colouring(self.placement, &self.depths);
        self.refine(&mut col);
        let mut trace = vec![self.node_invariant(&col)];
        let mut path = Vec::new();
        self.search(col, &mut path, &mut trace);
        let best = self.best.take().expect("search reaches at least one leaf");
        (best, self.stats)
    }
}

impl PlacementSpec {
    fn canonical_search(&self, prune: bool, node_budget: u64) -> (CanonicalPlacement, CanonStats) {
        let (best, stats) = Searcher::new(self, prune, node_budget).run();

        // The fingerprint hashes exactly the winning leaf form, so equal
        // canonical forms always produce equal fingerprints.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &word in &best.form {
            h = fnv_word(h, word);
        }
        let fingerprint = Fingerprint(h);

        let mut order = vec![0usize; self.num_blocks()];
        for (orig, &canon) in best.block_perm.iter().enumerate() {
            order[canon] = orig;
        }
        let mut builder =
            PlacementSpec::builder(format!("canonical-{fingerprint}"), self.num_devices());
        builder.set_memory_capacity(self.memory_capacity());
        for (canonical, &orig) in order.iter().enumerate() {
            let b = self.block(orig);
            let mut devices: Vec<usize> = b.devices.iter().map(|&d| best.device_perm[d]).collect();
            devices.sort_unstable();
            let mut deps: Vec<usize> = b.deps.iter().map(|&p| best.block_perm[p]).collect();
            deps.sort_unstable();
            let prefix = if b.kind.is_forward() { 'f' } else { 'b' };
            builder
                .push_block(
                    BlockSpec::new(
                        format!("{prefix}{canonical}"),
                        b.kind,
                        devices,
                        b.time,
                        b.memory,
                    )
                    .with_deps(deps)
                    .with_flops(b.flops)
                    .with_output_bytes(b.output_bytes),
                )
                .expect("canonical blocks are valid by construction");
        }
        let placement = builder
            .build()
            .expect("canonical order is topological by construction");

        (
            CanonicalPlacement {
                placement,
                fingerprint,
                block_perm: best.block_perm,
                device_perm: best.device_perm,
            },
            stats,
        )
    }

    /// Computes the canonical form of this placement via the exact
    /// individualisation-refinement search: blocks reordered into a canonical
    /// topological order, devices relabeled canonically, and the stable
    /// [`Fingerprint`] of the result. Invariant under device relabeling and
    /// block reordering; distinct for non-isomorphic placements. Runs under
    /// [`DEFAULT_NODE_BUDGET`]; see [`PlacementSpec::canonicalize_budgeted`]
    /// for the exhaustion semantics.
    #[must_use]
    pub fn canonicalize(&self) -> CanonicalPlacement {
        self.canonical_search(true, DEFAULT_NODE_BUDGET).0
    }

    /// [`PlacementSpec::canonicalize`] plus the search statistics.
    #[must_use]
    pub fn canonicalize_with_stats(&self) -> (CanonicalPlacement, CanonStats) {
        self.canonical_search(true, DEFAULT_NODE_BUDGET)
    }

    /// The canonical search under an explicit node budget. Past the budget
    /// the search completes greedily and sets
    /// [`CanonStats::budget_exhausted`]: the fingerprint stays deterministic
    /// and never merges non-isomorphic placements, but relabeled variants of
    /// the same placement may stop mapping to the same fingerprint (a cache
    /// split, not a correctness failure). Callers that *require* the
    /// isomorphism-invariance guarantee must check the flag.
    #[must_use]
    pub fn canonicalize_budgeted(&self, node_budget: u64) -> (CanonicalPlacement, CanonStats) {
        self.canonical_search(true, node_budget)
    }

    /// The canonical search with automorphism and best-leaf pruning disabled:
    /// every leaf of the individualisation-refinement tree is evaluated
    /// (no node budget — this is the brute-force reference, only sensible on
    /// small instances). Produces the identical canonical form (both
    /// searches minimise the same objective over the same tree) — exposed so
    /// the pruning-soundness tests can compare against it.
    #[must_use]
    pub fn canonicalize_unpruned(&self) -> (CanonicalPlacement, CanonStats) {
        self.canonical_search(false, u64::MAX)
    }

    /// The stable 64-bit fingerprint of this placement's canonical form.
    ///
    /// Equal for any two placements related by device relabeling and/or block
    /// reordering (names are ignored); distinct with overwhelming probability
    /// otherwise.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        self.canonicalize().fingerprint
    }

    /// The colour-refinement-strength (1-WL) fingerprint: a hash of the
    /// stable refined colouring's multiset plus the global attributes, with
    /// no individualisation search. This is the identity strength of the
    /// first-generation fingerprint — placements that WL cannot distinguish
    /// (e.g. CFI-style gadget pairs) collide here while
    /// [`PlacementSpec::fingerprint`] separates them. Retained as the
    /// baseline for the differential test battery and as a cheap
    /// pre-filter.
    #[must_use]
    pub fn wl_fingerprint(&self) -> Fingerprint {
        let depths = block_depths(self);
        let dependents: Vec<Vec<usize>> =
            (0..self.num_blocks()).map(|i| self.dependents(i)).collect();
        let mut col = initial_colouring(self, &depths);
        let mut scratch = Vec::new();
        refine_stable(self, &dependents, &mut col, &mut scratch);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        h = fnv_word(h, self.num_devices() as u64);
        match self.memory_capacity() {
            Some(cap) => {
                h = fnv_word(h, 1);
                h = fnv_word(h, i64_word(cap));
            }
            None => h = fnv_word(h, 0),
        }
        h = fnv_word(h, self.num_blocks() as u64);
        let mut blocks: Vec<u64> = col
            .blocks
            .iter()
            .zip(&depths)
            .map(|(&c, &d)| mix(d as u64, c))
            .collect();
        blocks.sort_unstable();
        for w in blocks {
            h = fnv_word(h, w);
        }
        let mut devices = col.devices;
        devices.sort_unstable();
        for w in devices {
            h = fnv_word(h, w);
        }
        Fingerprint(h)
    }

    /// Returns a structurally identical copy with devices relabeled through
    /// `device_perm` (`new_device = device_perm[old_device]`) and blocks
    /// re-added in `block_order` (which must be a topological order of the
    /// dependency DAG). Used by tests and benchmarks to exercise the
    /// fingerprint invariances.
    ///
    /// # Errors
    ///
    /// Returns an error if `device_perm` is not a permutation of the device
    /// range, or if `block_order` is not a valid topological permutation of
    /// the block indices.
    pub fn permuted(
        &self,
        device_perm: &[usize],
        block_order: &[usize],
    ) -> Result<PlacementSpec, CoreError> {
        let d = self.num_devices();
        let mut seen = vec![false; d];
        if device_perm.len() != d {
            return Err(CoreError::InvalidSchedule(format!(
                "device permutation has {} entries for {} devices",
                device_perm.len(),
                d
            )));
        }
        for &p in device_perm {
            if p >= d || seen[p] {
                return Err(CoreError::InvalidSchedule(
                    "device permutation is not a bijection".into(),
                ));
            }
            seen[p] = true;
        }
        let k = self.num_blocks();
        if block_order.len() != k {
            return Err(CoreError::InvalidSchedule(format!(
                "block order has {} entries for {} blocks",
                block_order.len(),
                k
            )));
        }
        let mut new_index = vec![usize::MAX; k];
        for (pos, &orig) in block_order.iter().enumerate() {
            if orig >= k || new_index[orig] != usize::MAX {
                return Err(CoreError::InvalidSchedule(
                    "block order is not a permutation".into(),
                ));
            }
            new_index[orig] = pos;
        }
        let mut builder = PlacementSpec::builder(self.name(), d);
        builder.set_memory_capacity(self.memory_capacity());
        for &orig in block_order {
            let b = self.block(orig);
            let devices: Vec<usize> = b.devices.iter().map(|&dev| device_perm[dev]).collect();
            let deps: Vec<usize> = b.deps.iter().map(|&p| new_index[p]).collect();
            builder.push_block(
                BlockSpec::new(b.name.clone(), b.kind, devices, b.time, b.memory)
                    .with_deps(deps)
                    .with_flops(b.flops)
                    .with_output_bytes(b.output_bytes),
            )?;
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BlockKind, PlacementSpec};

    fn v_shape(d: usize) -> PlacementSpec {
        let mut b = PlacementSpec::builder(format!("v{d}"), d);
        b.set_memory_capacity(Some(d as i64 + 1));
        let mut prev: Option<usize> = None;
        for dev in 0..d {
            let deps: Vec<usize> = prev.into_iter().collect();
            prev = Some(
                b.add_block(format!("f{dev}"), BlockKind::Forward, [dev], 1, 1, deps)
                    .unwrap(),
            );
        }
        for dev in (0..d).rev() {
            let deps: Vec<usize> = prev.into_iter().collect();
            prev = Some(
                b.add_block(format!("b{dev}"), BlockKind::Backward, [dev], 2, -1, deps)
                    .unwrap(),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn fingerprint_survives_device_relabeling() {
        let p = v_shape(4);
        let permuted = p.permuted(&[2, 0, 3, 1], &(0..p.num_blocks()).collect::<Vec<_>>());
        let permuted = permuted.unwrap();
        assert_eq!(p.fingerprint(), permuted.fingerprint());
        assert_eq!(
            p.canonicalize().placement,
            permuted.canonicalize().placement
        );
    }

    #[test]
    fn fingerprint_survives_block_reordering() {
        // The two independent chains of an X-shape can be interleaved in any
        // topological order.
        let mut b = PlacementSpec::builder("x2", 2);
        let f0 = b
            .add_block("d-f0", BlockKind::Forward, [0], 1, 1, [])
            .unwrap();
        let f1 = b
            .add_block("d-f1", BlockKind::Forward, [1], 1, 1, [f0])
            .unwrap();
        let g0 = b
            .add_block("u-f0", BlockKind::Forward, [1], 1, 1, [])
            .unwrap();
        let g1 = b
            .add_block("u-f1", BlockKind::Forward, [0], 1, 1, [g0])
            .unwrap();
        let _ = (f1, g1);
        let p = b.build().unwrap();
        let reordered = p.permuted(&[0, 1], &[2, 0, 3, 1]).unwrap();
        assert_eq!(p.fingerprint(), reordered.fingerprint());
        assert_eq!(
            p.canonicalize().placement,
            reordered.canonicalize().placement
        );
    }

    #[test]
    fn fingerprint_ignores_names_but_not_costs() {
        let p = v_shape(2);
        let mut renamed = PlacementSpec::builder("other-name", 2);
        renamed.set_memory_capacity(p.memory_capacity());
        for block in p.blocks() {
            renamed
                .push_block(
                    BlockSpec::new(
                        format!("renamed-{}", block.name),
                        block.kind,
                        block.devices.iter().copied(),
                        block.time,
                        block.memory,
                    )
                    .with_deps(block.deps.iter().copied()),
                )
                .unwrap();
        }
        assert_eq!(p.fingerprint(), renamed.build().unwrap().fingerprint());

        // Changing a cost changes the fingerprint.
        let slower = {
            let mut b = PlacementSpec::builder("v2", 2);
            b.set_memory_capacity(p.memory_capacity());
            let f0 = b
                .add_block("f0", BlockKind::Forward, [0], 1, 1, [])
                .unwrap();
            let f1 = b
                .add_block("f1", BlockKind::Forward, [1], 1, 1, [f0])
                .unwrap();
            let b1 = b
                .add_block("b1", BlockKind::Backward, [1], 3, -1, [f1])
                .unwrap();
            b.add_block("b0", BlockKind::Backward, [0], 3, -1, [b1])
                .unwrap();
            b.build().unwrap()
        };
        assert_ne!(p.fingerprint(), slower.fingerprint());
    }

    #[test]
    fn different_device_counts_differ() {
        assert_ne!(v_shape(2).fingerprint(), v_shape(3).fingerprint());
        assert_ne!(v_shape(3).fingerprint(), v_shape(4).fingerprint());
    }

    #[test]
    fn memory_capacity_is_part_of_the_fingerprint() {
        let p = v_shape(2);
        assert_ne!(p.fingerprint(), p.with_memory_capacity(None).fingerprint());
        assert_ne!(
            p.fingerprint(),
            p.with_memory_capacity(Some(7)).fingerprint()
        );
    }

    #[test]
    fn canonical_form_round_trips_permutations() {
        let p = v_shape(3);
        let canon = p.canonicalize();
        assert_eq!(canon.placement.num_blocks(), p.num_blocks());
        assert_eq!(canon.placement.num_devices(), p.num_devices());
        // The permutations are bijections and invert correctly.
        let inv_b = canon.inverse_block_perm();
        for orig in 0..p.num_blocks() {
            assert_eq!(inv_b[canon.block_perm[orig]], orig);
            assert_eq!(canon.original_block(canon.block_perm[orig]), orig);
        }
        let inv_d = canon.inverse_device_perm();
        for orig in 0..p.num_devices() {
            assert_eq!(inv_d[canon.device_perm[orig]], orig);
        }
        // Costs are preserved through the permutation.
        for orig in 0..p.num_blocks() {
            let c = canon.placement.block(canon.block_perm[orig]);
            let b = p.block(orig);
            assert_eq!(c.time, b.time);
            assert_eq!(c.memory, b.memory);
            assert_eq!(c.kind, b.kind);
        }
        // Canonicalizing the canonical form is a fixed point.
        let again = canon.placement.canonicalize();
        assert_eq!(again.fingerprint, canon.fingerprint);
        assert_eq!(again.placement, canon.placement);
    }

    #[test]
    fn fingerprint_serde_round_trips() {
        let fp = v_shape(2).fingerprint();
        let json = serde_json::to_string(&fp).unwrap();
        let back: Fingerprint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fp);
        assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
        assert_eq!(Fingerprint::parse("xyz"), None);
    }

    #[test]
    fn permuted_rejects_bad_inputs() {
        let p = v_shape(2);
        let ident: Vec<usize> = (0..p.num_blocks()).collect();
        assert!(p.permuted(&[0], &ident).is_err());
        assert!(p.permuted(&[1, 1], &ident).is_err());
        assert!(p.permuted(&[0, 1], &[0, 0, 1, 2]).is_err());
        // Non-topological order: b0 before its dependency b1.
        assert!(p.permuted(&[0, 1], &[3, 2, 1, 0]).is_err());
    }

    #[test]
    fn attribute_rich_placements_discretize_at_the_root() {
        // A pipeline chain has no symmetry: refinement alone separates every
        // vertex and the search evaluates exactly one leaf.
        let (_, stats) = v_shape(4).canonicalize_with_stats();
        assert_eq!(stats.leaves, 1, "chain should refine to a single leaf");
        assert_eq!(stats.nodes, 1);
    }

    #[test]
    fn wl_fingerprint_is_relabeling_invariant() {
        let p = v_shape(4);
        let permuted = p
            .permuted(&[3, 1, 0, 2], &(0..p.num_blocks()).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(p.wl_fingerprint(), permuted.wl_fingerprint());
        // WL separates the shapes WL can see apart.
        assert_ne!(v_shape(3).wl_fingerprint(), v_shape(4).wl_fingerprint());
    }

    /// Three cost-identical independent chains (symmetric: branching needed).
    fn triplet_chains() -> PlacementSpec {
        let mut b = PlacementSpec::builder("triplet-chains", 6);
        for chain in 0..3usize {
            let mut prev: Option<usize> = None;
            for step in 0..2usize {
                let deps: Vec<usize> = prev.into_iter().collect();
                prev = Some(
                    b.add_block(
                        format!("c{chain}s{step}"),
                        BlockKind::Forward,
                        [chain * 2 + step],
                        5,
                        1,
                        deps,
                    )
                    .unwrap(),
                );
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn node_budget_degrades_to_greedy_completion() {
        let p = triplet_chains();
        // The symmetric instance needs more than one node; a budget of 1
        // forces greedy completion.
        let (canon_a, stats_a) = p.canonicalize_budgeted(1);
        assert!(stats_a.budget_exhausted, "{stats_a:?}");
        assert!(stats_a.leaves >= 1, "exhaustion must still reach a leaf");
        // Deterministic: the same input exhausts to the same fingerprint.
        let (canon_b, stats_b) = p.canonicalize_budgeted(1);
        assert_eq!(stats_a, stats_b);
        assert_eq!(canon_a.fingerprint, canon_b.fingerprint);
        assert_eq!(canon_a.placement, canon_b.placement);
        // The greedy form is still a faithful serialization: a placement
        // with different costs cannot collide even under exhaustion.
        let mut other = PlacementSpec::builder("triplet-slow", 6);
        for chain in 0..3usize {
            let mut prev: Option<usize> = None;
            for step in 0..2usize {
                let deps: Vec<usize> = prev.into_iter().collect();
                prev = Some(
                    other
                        .add_block(
                            format!("c{chain}s{step}"),
                            BlockKind::Forward,
                            [chain * 2 + step],
                            9,
                            1,
                            deps,
                        )
                        .unwrap(),
                );
            }
        }
        let other = other.build().unwrap();
        assert_ne!(
            canon_a.fingerprint,
            other.canonicalize_budgeted(1).0.fingerprint
        );
        // The default budget is generous enough that the same instance
        // completes exactly, matching the brute-force reference.
        let (exact, exact_stats) = p.canonicalize_with_stats();
        assert!(!exact_stats.budget_exhausted, "{exact_stats:?}");
        assert_eq!(exact.fingerprint, p.canonicalize_unpruned().0.fingerprint);
    }

    #[test]
    fn symmetric_placements_prune_with_automorphisms() {
        // Three cost-identical independent chains: any chain permutation is
        // an automorphism, so the pruned search must explore fewer leaves
        // than the unpruned one (which walks all 3! chain orderings) and
        // still find the same form.
        let p = triplet_chains();
        let (pruned, pruned_stats) = p.canonicalize_with_stats();
        let (unpruned, unpruned_stats) = p.canonicalize_unpruned();
        assert_eq!(pruned.fingerprint, unpruned.fingerprint);
        assert_eq!(pruned.placement, unpruned.placement);
        assert!(pruned_stats.automorphisms > 0, "{pruned_stats:?}");
        assert!(
            pruned_stats.leaves < unpruned_stats.leaves,
            "pruned {pruned_stats:?} vs unpruned {unpruned_stats:?}"
        );
    }
}
