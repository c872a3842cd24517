//! A cached search answered in the requester's labeling.
//!
//! A cache entry holds its schedule in canonical labeling; every request
//! numbers its devices and blocks its own way. [`Answer`] is the one
//! translation between the two, built once per answered request (the
//! `translate` stage): the order in which the entry's blocks appear under the
//! request's stage numbering — `Schedule::new`'s `(start, stage,
//! micro_batch)` — and, for each of the request's stages, the JSON of the
//! block fields that depend on the stage alone (`duration`, `devices`,
//! `kind`, `memory`), rendered once. The answer then either writes itself
//! straight into an HTTP body ([`Answer::write_json`], the `serialize`
//! stage) — the entry's blocks copied by reference, each one a few integers
//! plus its stage's ready-made tail — or becomes an owned [`SearchResponse`]
//! for in-process and streaming callers ([`Answer::to_response`]).
//! Both print the same bytes: `tests/json_codec.rs` holds the body to
//! `serde_json::to_string` of the owned response, and both to the
//! translation this module replaced.

use crate::cache::CachedSearch;
use crate::wire::SearchResponse;
use serde::{Serialize, Writer};
use std::sync::Arc;
use tessel_core::fingerprint::CanonicalLabeling;
use tessel_core::ir::PlacementSpec;
use tessel_core::schedule::{scheduled_block, Schedule};
use tessel_runtime::metrics::{DeviceUtilization, UtilizationSummary};

/// A cache entry seen through one request's labeling.
#[derive(Debug)]
pub struct Answer<'r> {
    entry: Arc<CachedSearch>,
    /// The request's placement: its blocks' durations, devices, kinds and
    /// memory are what the answer reports.
    placement: &'r PlacementSpec,
    /// `device_perm[request_device] = canonical_device`.
    device_perm: Vec<usize>,
    cached: bool,
    coalesced: bool,
    /// `stage_of[canonical_stage] = request_stage`.
    stage_of: Vec<usize>,
    /// Indices into the entry's blocks, in the order the answer lists them.
    order: Vec<u32>,
    /// Per request stage `s`, `tails[tail_ends[s - 1]..tail_ends[s]]`: the
    /// end of every block of that stage,
    /// `,"duration":…,"devices":[…],"kind":…,"memory":…}`.
    tails: String,
    tail_ends: Vec<usize>,
}

impl<'r> Answer<'r> {
    /// Translates `entry` — found for a request whose placement is
    /// `placement` and whose canonical labeling is `labeling` — into that
    /// request's labeling. `cached` and `coalesced` are the answer's
    /// bookkeeping flags.
    #[must_use]
    pub fn new(
        entry: Arc<CachedSearch>,
        labeling: CanonicalLabeling,
        placement: &'r PlacementSpec,
        cached: bool,
        coalesced: bool,
    ) -> Self {
        let stage_of = labeling.inverse_block_perm();
        let blocks = entry.schedule.blocks();
        let mut order: Vec<u32> = (0..blocks.len() as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let b = &blocks[i as usize];
            (b.start, stage_of[b.stage], b.micro_batch)
        });

        // The fields `ScheduledBlock` writes after `start`, in its field
        // order, as its derive writes them.
        let mut tails = String::with_capacity(64 * placement.num_blocks());
        let mut tail_ends = Vec::with_capacity(placement.num_blocks());
        for block in placement.blocks() {
            let mut w = Writer::compact(&mut tails);
            w.raw(",\"duration\":");
            w.u64(block.time);
            w.raw(",\"devices\":");
            block.devices.write_json(&mut w);
            w.raw(",\"kind\":");
            block.kind.write_json(&mut w);
            w.raw(",\"memory\":");
            w.i64(block.memory);
            w.raw("}");
            tail_ends.push(tails.len());
        }

        Answer {
            entry,
            placement,
            device_perm: labeling.device_perm,
            cached,
            coalesced,
            stage_of,
            order,
            tails,
            tail_ends,
        }
    }

    /// Appends the answer's compact JSON to `out`: the same bytes as
    /// `serde_json::to_string(&self.to_response())`, written from the entry
    /// without building the response.
    pub fn write_json(&self, out: &mut String) {
        let entry = &*self.entry;
        let mut w = Writer::compact(out);
        let mut response = w.map();
        entry
            .fingerprint
            .write_json(response.key("\"fingerprint\":"));
        response.key("\"cached\":").bool(self.cached);
        response.key("\"coalesced\":").bool(self.coalesced);
        let micro_batches = entry.schedule.num_micro_batches() as u64;
        response.key("\"num_micro_batches\":").u64(micro_batches);
        response.key("\"period\":").u64(entry.period);
        response
            .key("\"repetend_micro_batches\":")
            .u64(entry.repetend_micro_batches as u64);
        response.key("\"bubble_rate\":").f64(entry.bubble_rate);

        let mut schedule = response.key("\"schedule\":").map();
        schedule
            .key("\"num_devices\":")
            .u64(self.placement.num_devices() as u64);
        schedule.key("\"num_micro_batches\":").u64(micro_batches);
        let mut blocks = schedule.key("\"blocks\":").seq();
        let entry_blocks = entry.schedule.blocks();
        for &i in &self.order {
            let b = &entry_blocks[i as usize];
            let stage = self.stage_of[b.stage];
            let w = blocks.element();
            w.raw("{\"stage\":");
            w.u64(stage as u64);
            w.raw(",\"micro_batch\":");
            w.u64(b.micro_batch as u64);
            w.raw(",\"start\":");
            w.u64(b.start);
            let from = if stage == 0 {
                0
            } else {
                self.tail_ends[stage - 1]
            };
            w.raw(&self.tails[from..self.tail_ends[stage]]);
        }
        blocks.end();
        entry
            .schedule
            .repetend()
            .write_json(schedule.key("\"repetend\":"));
        schedule.end();

        let summary = &entry.utilization;
        let mut utilization = response.key("\"utilization\":").map();
        utilization.key("\"makespan\":").u64(summary.makespan);
        utilization
            .key("\"num_micro_batches\":")
            .u64(summary.num_micro_batches as u64);
        utilization
            .key("\"mean_busy_fraction\":")
            .f64(summary.mean_busy_fraction);
        utilization
            .key("\"max_wait_fraction\":")
            .f64(summary.max_wait_fraction);
        let mut devices = utilization.key("\"devices\":").seq();
        for row in self.device_rows() {
            row.write_json(devices.element());
        }
        devices.end();
        utilization.end();

        response.key("\"search_millis\":").u64(self.search_millis());
        response.end();
    }

    /// The answer as an owned [`SearchResponse`].
    #[must_use]
    pub fn to_response(&self) -> SearchResponse {
        let entry = &*self.entry;
        let entry_blocks = entry.schedule.blocks();
        let blocks = self
            .order
            .iter()
            .map(|&i| {
                let b = &entry_blocks[i as usize];
                scheduled_block(
                    self.placement,
                    self.stage_of[b.stage],
                    b.micro_batch,
                    b.start,
                )
            })
            .collect();
        let mut schedule = Schedule::new(
            self.placement.num_devices(),
            entry.schedule.num_micro_batches(),
            blocks,
        );
        if let Some(span) = entry.schedule.repetend() {
            schedule = schedule.with_repetend(span);
        }
        let summary = &entry.utilization;
        SearchResponse {
            fingerprint: entry.fingerprint,
            cached: self.cached,
            coalesced: self.coalesced,
            num_micro_batches: entry.schedule.num_micro_batches(),
            period: entry.period,
            repetend_micro_batches: entry.repetend_micro_batches,
            bubble_rate: entry.bubble_rate,
            schedule,
            utilization: UtilizationSummary {
                makespan: summary.makespan,
                num_micro_batches: summary.num_micro_batches,
                mean_busy_fraction: summary.mean_busy_fraction,
                max_wait_fraction: summary.max_wait_fraction,
                devices: self.device_rows().collect(),
            },
            search_millis: self.search_millis(),
        }
    }

    /// The entry's per-device utilization rows, re-indexed to the request's
    /// device labels and listed in their order.
    fn device_rows(&self) -> impl Iterator<Item = DeviceUtilization> + '_ {
        let rows = &self.entry.utilization.devices;
        self.device_perm
            .iter()
            .enumerate()
            .filter_map(|(device, &canonical)| {
                rows.get(canonical).map(|row| DeviceUtilization {
                    device,
                    ..row.clone()
                })
            })
    }

    /// What the search cost this request: nothing for a cache hit.
    fn search_millis(&self) -> u64 {
        if self.cached {
            0
        } else {
            self.entry.search_millis
        }
    }
}
