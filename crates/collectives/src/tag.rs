//! Structured wire tags: the non-overlapping bit-field encoding that
//! replaces the ad-hoc XOR tag mixes of the first-generation engine.
//!
//! The old scheme (`tag(phase) = layer<<56 ^ iter<<32 ^ phase<<28`, then
//! `^ class<<20` or `^ slot<<24 ^ src<<8` per message) had silently
//! overlapping fields: `tag(8) ^ tag(9) == 1 << 28`, so the gradient of
//! (class 0, phase 8) aliased the weight shard of (slot 16, src 0,
//! phase 9) exactly — identical-length payloads swapped with no error at
//! any config with ≥ 16 slots. Classes ≥ 256, slots ≥ 16 and iterations
//! ≥ 2²⁴ likewise bled into neighboring fields.
//!
//! Here every component owns exclusive bits of the 64-bit tag:
//!
//! | bits   | width | field     | meaning                                   |
//! |--------|-------|-----------|-------------------------------------------|
//! | 63     | 1     | marker    | 1 = structured; raw legacy tags keep it 0 |
//! | 62..57 | 6     | layer     | transformer layer id                      |
//! | 56..39 | 18    | iteration | training iteration (wraps at 2¹⁸)         |
//! | 38..34 | 5     | phase     | [`WirePhase`] discriminant                |
//! | 33..20 | 14    | entity    | class / slot / token-group id             |
//! | 19..12 | 8     | src       | sending rank (0 when unused)              |
//! | 11..10 | 2     | subop     | sub-collective within one phase           |
//! | 9..0   | 10    | step      | ring step + 1 (0 = no step)               |
//!
//! Field widths are debug-asserted at encode time, so an overflowing
//! class/slot/rank panics in tests instead of corrupting a neighbor field.
//! Iteration wraps modulo 2¹⁸ by design: the popularity all-reduce bounds
//! inter-rank skew to a single iteration, so a 2¹⁸-iteration ambiguity
//! window can never be confused in flight.
//!
//! Raw tags (bit 63 clear) remain first-class citizens — hand-written
//! tests and the legacy regression fixtures use them — but they opt out of
//! structured decoding and rely on the mailbox's rank-local epoch for
//! fencing (see `RankCtx::begin_epoch`).

use std::fmt;

/// Marker bit distinguishing structured tags from raw legacy tags.
pub(crate) const STRUCTURED: u64 = 1 << 63;

const LAYER_BITS: u32 = 6;
const ITER_BITS: u32 = 18;
const PHASE_BITS: u32 = 5;
const ENTITY_BITS: u32 = 14;
const SRC_BITS: u32 = 8;
const SUBOP_BITS: u32 = 2;
const STEP_BITS: u32 = 10;

const STEP_SHIFT: u32 = 0;
const SUBOP_SHIFT: u32 = STEP_SHIFT + STEP_BITS;
const SRC_SHIFT: u32 = SUBOP_SHIFT + SUBOP_BITS;
const ENTITY_SHIFT: u32 = SRC_SHIFT + SRC_BITS;
const PHASE_SHIFT: u32 = ENTITY_SHIFT + ENTITY_BITS;
const ITER_SHIFT: u32 = PHASE_SHIFT + PHASE_BITS;
const LAYER_SHIFT: u32 = ITER_SHIFT + ITER_BITS;

const fn mask(bits: u32) -> u64 {
    (1 << bits) - 1
}

/// Communication phases of one engine iteration, in wire order. The
/// discriminant is both the tag's phase field and the phase component of
/// the fencing epoch, so later phases compare greater within an iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum WirePhase {
    /// Out-of-band control traffic (checkpoints, probes).
    Control = 0,
    /// Per-class popularity all-reduce (§3.4).
    PopularitySync = 1,
    /// Token rows dispatched to expert slots (all-to-all).
    DispatchRows = 2,
    /// Slot-id metadata accompanying the dispatch.
    DispatchMeta = 3,
    /// Expert outputs returned to token owners.
    CombineReturn = 4,
    /// The deferred advisory exchange: the global loss and the iteration's
    /// token statistics, in one all-reduce.
    LossSync = 5,
    /// Upstream gradients returned to expert slots.
    GradReturn = 6,
    /// §4.1's replica gradient sum, reduced onto Algorithm 2's sources:
    /// each host of a class sends every other host its partial of the
    /// chunks that host serves (`SymiOptimizer::reduce_grads_to_sources`).
    GradSync = 7,
    /// Gradient shards → static optimizer shards (Algorithm 2).
    GradCollect = 8,
    /// Updated fp16 weight shards → slots of the new placement (§3.3-II).
    WeightDistribute = 9,
}

impl WirePhase {
    /// All phases, in wire order.
    pub const ALL: [WirePhase; 10] = [
        WirePhase::Control,
        WirePhase::PopularitySync,
        WirePhase::DispatchRows,
        WirePhase::DispatchMeta,
        WirePhase::CombineReturn,
        WirePhase::LossSync,
        WirePhase::GradReturn,
        WirePhase::GradSync,
        WirePhase::GradCollect,
        WirePhase::WeightDistribute,
    ];

    /// Decodes a phase-field value.
    pub fn from_bits(bits: u8) -> Option<WirePhase> {
        WirePhase::ALL.get(bits as usize).copied()
    }
}

impl fmt::Display for WirePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Per-(layer, iteration) tag factory. Construct one at the top of an
/// engine iteration and derive every phase's tags from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagSpace {
    layer: u64,
    iteration: u64,
}

impl TagSpace {
    /// `layer` must fit the 6-bit layer field; `iteration` wraps at 2¹⁸.
    pub fn new(layer: usize, iteration: u64) -> Self {
        debug_assert!(
            (layer as u64) <= mask(LAYER_BITS),
            "layer {layer} overflows the {LAYER_BITS}-bit layer field"
        );
        Self { layer: layer as u64 & mask(LAYER_BITS), iteration: iteration & mask(ITER_BITS) }
    }

    pub fn layer(&self) -> usize {
        self.layer as usize
    }

    /// The (wrapped) iteration this tag space encodes.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Full structured tag for `(phase, entity, src)`. `entity` is the
    /// phase's natural addressing unit (expert class, global slot, …);
    /// `src` the sending rank when receivers must distinguish senders.
    pub fn tag(&self, phase: WirePhase, entity: usize, src: usize) -> u64 {
        debug_assert!(
            (entity as u64) <= mask(ENTITY_BITS),
            "entity {entity} overflows the {ENTITY_BITS}-bit entity field"
        );
        debug_assert!(
            (src as u64) <= mask(SRC_BITS),
            "src rank {src} overflows the {SRC_BITS}-bit src field"
        );
        STRUCTURED
            | (self.layer << LAYER_SHIFT)
            | (self.iteration << ITER_SHIFT)
            | ((phase as u64) << PHASE_SHIFT)
            | (((entity as u64) & mask(ENTITY_BITS)) << ENTITY_SHIFT)
            | (((src as u64) & mask(SRC_BITS)) << SRC_SHIFT)
    }

    /// Tag for a phase-wide collective (no entity/src distinction).
    pub fn phase_tag(&self, phase: WirePhase) -> u64 {
        self.tag(phase, 0, 0)
    }

    /// The fencing epoch of `phase` in this tag space — monotone across
    /// (iteration, phase) in wire order.
    pub fn epoch(&self, phase: WirePhase) -> u64 {
        (self.iteration << PHASE_BITS) | phase as u64
    }
}

/// The decoded fields of a structured tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagFields {
    pub layer: u64,
    pub iteration: u64,
    /// Raw phase-field bits; [`TagFields::phase`] maps to [`WirePhase`].
    pub phase_bits: u8,
    pub entity: u64,
    pub src: u64,
    pub subop: u8,
    /// Ring step, when the tag addresses one hop of a collective.
    pub step: Option<u64>,
}

impl TagFields {
    pub fn phase(&self) -> Option<WirePhase> {
        WirePhase::from_bits(self.phase_bits)
    }

    /// The fencing epoch this tag belongs to: `(iteration, phase)` packed
    /// so that wire order is numeric order.
    pub(crate) fn epoch_key(&self) -> u64 {
        (self.iteration << PHASE_BITS) | self.phase_bits as u64
    }
}

impl fmt::Display for TagFields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.phase() {
            Some(p) => write!(f, "L{}/it{}/{p}", self.layer, self.iteration)?,
            None => write!(f, "L{}/it{}/phase#{}", self.layer, self.iteration, self.phase_bits)?,
        }
        write!(f, "/e{}/src{}", self.entity, self.src)?;
        if self.subop != 0 {
            write!(f, "/sub{}", self.subop)?;
        }
        if let Some(s) = self.step {
            write!(f, "/step{s}")?;
        }
        Ok(())
    }
}

/// Returns true when `tag` carries the structured marker bit.
pub(crate) fn is_structured(tag: u64) -> bool {
    tag & STRUCTURED != 0
}

/// Decodes a structured tag into its fields; `None` for raw tags.
pub fn decode(tag: u64) -> Option<TagFields> {
    if !is_structured(tag) {
        return None;
    }
    let step_raw = (tag >> STEP_SHIFT) & mask(STEP_BITS);
    Some(TagFields {
        layer: (tag >> LAYER_SHIFT) & mask(LAYER_BITS),
        iteration: (tag >> ITER_SHIFT) & mask(ITER_BITS),
        phase_bits: ((tag >> PHASE_SHIFT) & mask(PHASE_BITS)) as u8,
        entity: (tag >> ENTITY_SHIFT) & mask(ENTITY_BITS),
        src: (tag >> SRC_SHIFT) & mask(SRC_BITS),
        subop: ((tag >> SUBOP_SHIFT) & mask(SUBOP_BITS)) as u8,
        step: step_raw.checked_sub(1),
    })
}

/// The fencing epoch a structured tag belongs to; `None` for raw tags.
pub(crate) fn epoch_of(tag: u64) -> Option<u64> {
    decode(tag).map(|f| f.epoch_key())
}

/// Rewrites the step field of a structured tag (stores `step + 1`;
/// `step` must fit the 10-bit field less the reserved zero).
pub fn with_step(tag: u64, step: u64) -> u64 {
    debug_assert!(is_structured(tag), "with_step is only defined on structured tags");
    debug_assert!(step < mask(STEP_BITS), "ring step {step} overflows the step field");
    (tag & !(mask(STEP_BITS) << STEP_SHIFT)) | (((step + 1) & mask(STEP_BITS)) << STEP_SHIFT)
}

/// Rewrites the subop field of a structured tag — distinguishes nested
/// sub-collectives (e.g. the all-gather half of an all-reduce, or the
/// ownership-rotate hop of a reduce-scatter) sharing one base tag.
pub fn with_subop(tag: u64, subop: u8) -> u64 {
    debug_assert!(is_structured(tag), "with_subop is only defined on structured tags");
    debug_assert!((subop as u64) <= mask(SUBOP_BITS), "subop {subop} overflows the subop field");
    (tag & !(mask(SUBOP_BITS) << SUBOP_SHIFT))
        | (((subop as u64) & mask(SUBOP_BITS)) << SUBOP_SHIFT)
}

/// Human-readable tag description for diagnostics (timeout stash dumps).
pub fn describe(tag: u64) -> String {
    match decode(tag) {
        Some(fields) => format!("[{fields}]"),
        None => format!("[raw:{tag:#x}]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field() {
        let ts = TagSpace::new(5, 1234);
        let t = with_step(with_subop(ts.tag(WirePhase::GradCollect, 301, 17), 2), 9);
        let f = decode(t).expect("structured");
        assert_eq!(f.layer, 5);
        assert_eq!(f.iteration, 1234);
        assert_eq!(f.phase(), Some(WirePhase::GradCollect));
        assert_eq!(f.entity, 301);
        assert_eq!(f.src, 17);
        assert_eq!(f.subop, 2);
        assert_eq!(f.step, Some(9));
    }

    #[test]
    fn raw_tags_do_not_decode() {
        assert_eq!(decode(0x3000), None);
        assert_eq!(decode((1 << 56) ^ (8 << 28)), None, "legacy engine tags stay raw");
        assert!(decode(STRUCTURED).is_some());
    }

    #[test]
    fn the_legacy_grad_weight_alias_is_gone() {
        // Old scheme: tag(8) ^ (0 << 20) == tag(9) ^ (16 << 24) ^ (0 << 8).
        let ts = TagSpace::new(0, 0);
        let grad = ts.tag(WirePhase::GradCollect, 0, 0);
        let weight = ts.tag(WirePhase::WeightDistribute, 16, 0);
        assert_ne!(grad, weight);
        // And no (entity, src) pair of one phase can reach the other phase:
        // the phase field has exclusive bits above both.
        assert_ne!(grad & !mask(PHASE_SHIFT), 0);
        assert_eq!((grad ^ weight) >> PHASE_SHIFT & mask(PHASE_BITS), 8 ^ 9);
    }

    #[test]
    fn epoch_orders_phases_within_and_across_iterations() {
        let it0 = TagSpace::new(0, 7);
        let it1 = TagSpace::new(0, 8);
        assert!(it0.epoch(WirePhase::GradCollect) < it0.epoch(WirePhase::WeightDistribute));
        assert!(it0.epoch(WirePhase::WeightDistribute) < it1.epoch(WirePhase::Control));
    }

    #[test]
    fn step_zero_is_distinct_from_no_step() {
        let ts = TagSpace::new(0, 0);
        let base = ts.phase_tag(WirePhase::LossSync);
        assert_ne!(with_step(base, 0), base);
        assert_eq!(decode(base).unwrap().step, None);
        assert_eq!(decode(with_step(base, 0)).unwrap().step, Some(0));
    }

    // The field-width checks are `debug_assert!`s: with debug assertions off
    // (`cargo test --release`) there is no panic to expect.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "overflows")]
    fn entity_overflow_panics_in_debug() {
        let ts = TagSpace::new(0, 0);
        let _ = ts.tag(WirePhase::DispatchRows, 1 << 14, 0);
    }

    #[test]
    fn describe_is_loggable() {
        let ts = TagSpace::new(2, 3);
        let s = describe(ts.tag(WirePhase::WeightDistribute, 16, 1));
        assert!(s.contains("WeightDistribute") && s.contains("e16"), "{s}");
        assert!(describe(0xbeef).contains("raw"), "raw tags print their hex value");
    }
}
