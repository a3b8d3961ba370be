//! Cache keys of the incremental evaluation engine.
//!
//! Evaluation results are memoized at three granularities:
//!
//! * whole design points, keyed by [`PointKey`] (workload, design fingerprint
//!   and the exact supply-voltage bits) — deliberately *independent* of the
//!   laxity constraint, so sweep sessions share points across `enc_limit`
//!   values and apply the ENC budget at read time,
//! * per-design contexts (base delays plus power profile), keyed by
//!   [`ContextKey`] (workload and fingerprint), and the outcome of the full
//!   supply search, keyed by [`ScaledKey`] (which *does* carry the ENC budget
//!   — the selected supply depends on it),
//! * raw trace statistics, keyed by the *content* of the resource they
//!   describe ([`FuStatsKey`], [`RegStatsKey`], [`MuxStatsKey`]) rather than
//!   by resource ids — candidate designs in one ranking stage differ from the
//!   working design by a single move, so almost every unit, register and mux
//!   site of a candidate hits statistics already computed for its siblings.
//!
//! Every key embeds the [`WorkloadId`] of the `(CDFG, trace, technology)`
//! combination it was computed under, so one shared
//! [`SweepSession`](crate::SweepSession) can serve jobs over *different*
//! benchmarks without id collisions, and independently populated caches
//! (snapshot loads, `merge_from`) merge without ambiguity.

use impact_cdfg::VarId;
use impact_rtl::{DesignFingerprint, FingerprintHasher, FuId, MuxSite, RtlDesign, SignalKey};

/// Content digest of one evaluation workload: the CDFG, the execution trace
/// and the technology parameters (clock period, power configuration) shared
/// by every design evaluated under it. Scopes all cache keys of a session.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct WorkloadId(pub(crate) u128);

impl WorkloadId {
    /// Raw digest value.
    pub fn as_u128(self) -> u128 {
        self.0
    }
}

/// Key of one fully evaluated design point (laxity-independent).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PointKey {
    /// Workload the point was evaluated under.
    pub(crate) workload: WorkloadId,
    /// Structural fingerprint of the design.
    pub(crate) design: DesignFingerprint,
    /// Bit pattern of the supply voltage the point was evaluated at.
    pub(crate) vdd_bits: u64,
}

impl PointKey {
    pub(crate) fn new(workload: WorkloadId, design: DesignFingerprint, vdd: f64) -> Self {
        Self {
            workload,
            design,
            vdd_bits: vdd.to_bits(),
        }
    }
}

/// Key of the outcome of one full supply search. Unlike [`PointKey`] it
/// carries the ENC budget: the *search result* (which supply wins, or
/// infeasibility) depends on it, even though the per-level points it probes
/// do not.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ScaledKey {
    /// Workload the search ran under.
    pub(crate) workload: WorkloadId,
    /// Structural fingerprint of the design.
    pub(crate) design: DesignFingerprint,
    /// Bit pattern of the ENC budget the search was constrained to.
    pub(crate) enc_limit_bits: u64,
}

impl ScaledKey {
    pub(crate) fn new(workload: WorkloadId, design: DesignFingerprint, enc_limit: f64) -> Self {
        Self {
            workload,
            design,
            enc_limit_bits: enc_limit.to_bits(),
        }
    }
}

/// Key of one memoized hierarchical schedule: the workload (which pins the
/// CDFG and control profile) plus the scheduling-problem digest over the
/// exact per-node delay bits, the functional-unit binding and the scheduler
/// configuration (clock period included). Deliberately *not* keyed by design
/// fingerprint: designs that differ only in power-relevant ways (module
/// capacitance, register grouping, mux probability ordering with unchanged
/// depths) produce the same digest and share one schedule.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ScheduleKey {
    /// Workload the schedule was computed under.
    pub(crate) workload: WorkloadId,
    /// [`SchedulingProblem::digest`](impact_sched::SchedulingProblem::digest)
    /// of the problem.
    pub(crate) problem: u128,
}

impl ScheduleKey {
    pub(crate) fn new(workload: WorkloadId, problem: u128) -> Self {
        Self { workload, problem }
    }
}

/// Key of one memoized basic-block schedule: the workload (which pins the
/// CDFG behind the node ids) plus the
/// [`block_digest`](impact_sched::block_digest) over the block's node list,
/// the exact per-node delay bits and binding, and the configuration fields
/// the block scheduler reads. Finer-grained than [`ScheduleKey`]: a problem
/// whose whole-schedule digest misses still shares every block a change did
/// not touch, across designs, supply levels and sweep runs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockKey {
    /// Workload the block schedule was computed under.
    pub(crate) workload: WorkloadId,
    /// [`block_digest`](impact_sched::block_digest) of the block.
    pub(crate) digest: u128,
}

impl BlockKey {
    pub(crate) fn new(workload: WorkloadId, digest: u128) -> Self {
        Self { workload, digest }
    }
}

/// Key of one per-design evaluation context (laxity-independent).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ContextKey {
    /// Workload the context was built under.
    pub(crate) workload: WorkloadId,
    /// Structural fingerprint of the design.
    pub(crate) design: DesignFingerprint,
}

impl ContextKey {
    pub(crate) fn new(workload: WorkloadId, design: DesignFingerprint) -> Self {
        Self { workload, design }
    }
}

/// Key of per-unit trace statistics: a 128-bit content digest over the
/// merged operations plus the width the activity is normalized to. Stats
/// keys used to store (and deep-hash) the content vectors themselves; the
/// engine performs thousands of stats lookups per run, so the keys are
/// digested once at construction — the same collision-resistance assumption
/// every other digest-keyed layer already makes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FuStatsKey {
    pub(crate) workload: WorkloadId,
    pub(crate) digest: u128,
}

/// Key of per-register trace statistics: a content digest over the stored
/// variables (in storage order, which determines write interleaving) and the
/// register width.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegStatsKey {
    pub(crate) workload: WorkloadId,
    pub(crate) digest: u128,
}

/// Key of per-mux-site statistics: a content digest over the site's sources
/// by content identity (in site order, which fixes the tree shape) plus the
/// tree construction used. Content identity — not raw [`SignalKey`]s, which
/// carry allocation indices that shift as moves add and remove resources.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MuxStatsKey {
    pub(crate) workload: WorkloadId,
    pub(crate) digest: u128,
}

/// Writes the content identity of a physical signal: registers by stored
/// variables and width, unit outputs by bound operations and width,
/// constants by value.
fn write_signal_content(hasher: &mut FingerprintHasher, design: &RtlDesign, key: SignalKey) {
    match key {
        SignalKey::Register(reg) => {
            hasher.write_u64(1);
            match design.register(reg) {
                Ok(r) => {
                    hasher.write_u64(u64::from(r.width));
                    hasher.write_u64(r.variables.len() as u64);
                    for &var in r.variables.iter() {
                        hasher.write_u64(var.index() as u64);
                    }
                }
                Err(_) => {
                    hasher.write_u64(0);
                    hasher.write_u64(0);
                }
            }
        }
        SignalKey::FuOutput(fu) => {
            hasher.write_u64(2);
            let width = design.functional_unit(fu).map(|f| f.width).unwrap_or(8);
            hasher.write_u64(u64::from(width));
            let mut count = 0u64;
            for op in design.ops_on_iter(fu) {
                hasher.write_u64(op.index() as u64);
                count += 1;
            }
            hasher.write_u64(count);
        }
        SignalKey::Constant(c) => {
            hasher.write_u64(3);
            hasher.write_i64(c);
        }
    }
}

impl FuStatsKey {
    pub(crate) fn of(workload: WorkloadId, design: &RtlDesign, fu: FuId, width: u8) -> Self {
        let mut hasher = FingerprintHasher::new();
        hasher.write_tag(0xA1);
        let mut count = 0u64;
        for op in design.ops_on_iter(fu) {
            hasher.write_u64(op.index() as u64);
            count += 1;
        }
        hasher.write_u64(count);
        hasher.write_u64(u64::from(width));
        Self {
            workload,
            digest: hasher.finish().as_u128(),
        }
    }
}

impl RegStatsKey {
    pub(crate) fn of(workload: WorkloadId, variables: &[VarId], width: u8) -> Self {
        let mut hasher = FingerprintHasher::new();
        hasher.write_tag(0xA2);
        hasher.write_u64(variables.len() as u64);
        for &var in variables {
            hasher.write_u64(var.index() as u64);
        }
        hasher.write_u64(u64::from(width));
        Self {
            workload,
            digest: hasher.finish().as_u128(),
        }
    }
}

impl MuxStatsKey {
    pub(crate) fn of(
        workload: WorkloadId,
        design: &RtlDesign,
        site: &MuxSite,
        restructured: bool,
    ) -> Self {
        let mut hasher = FingerprintHasher::new();
        hasher.write_tag(0xA3);
        hasher.write_u64(site.sources.len() as u64);
        for src in &site.sources {
            write_signal_content(&mut hasher, design, src.key);
            hasher.write_u64(src.ops.len() as u64);
            for &op in &src.ops {
                hasher.write_u64(op.index() as u64);
            }
        }
        hasher.write_u64(u64::from(restructured));
        Self {
            workload,
            digest: hasher.finish().as_u128(),
        }
    }
}

// ---------------------------------------------------------------- snapshot codec
//
// Cache keys are fixed-width field bundles. Like the other identifier types
// they encode bare (no per-key version tag) — the snapshot section that
// embeds them is versioned as a whole.

use impact_codec::{Decode, DecodeError, Decoder, Encode, Encoder};

impl Encode for WorkloadId {
    fn encode(&self, w: &mut Encoder) {
        w.put_u128(self.0);
    }
}

impl Decode for WorkloadId {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self(r.take_u128()?))
    }
}

impl Encode for PointKey {
    fn encode(&self, w: &mut Encoder) {
        self.workload.encode(w);
        self.design.encode(w);
        w.put_u64(self.vdd_bits);
    }
}

impl Decode for PointKey {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            workload: Decode::decode(r)?,
            design: Decode::decode(r)?,
            vdd_bits: r.take_u64()?,
        })
    }
}

impl Encode for ScaledKey {
    fn encode(&self, w: &mut Encoder) {
        self.workload.encode(w);
        self.design.encode(w);
        w.put_u64(self.enc_limit_bits);
    }
}

impl Decode for ScaledKey {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            workload: Decode::decode(r)?,
            design: Decode::decode(r)?,
            enc_limit_bits: r.take_u64()?,
        })
    }
}

impl Encode for ScheduleKey {
    fn encode(&self, w: &mut Encoder) {
        self.workload.encode(w);
        w.put_u128(self.problem);
    }
}

impl Decode for ScheduleKey {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            workload: Decode::decode(r)?,
            problem: r.take_u128()?,
        })
    }
}

macro_rules! impl_digest_key_codec {
    ($ty:ident) => {
        impl Encode for $ty {
            fn encode(&self, w: &mut Encoder) {
                self.workload.encode(w);
                w.put_u128(self.digest);
            }
        }

        impl Decode for $ty {
            fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                Ok(Self {
                    workload: Decode::decode(r)?,
                    digest: r.take_u128()?,
                })
            }
        }
    };
}

impl_digest_key_codec!(BlockKey);
impl_digest_key_codec!(FuStatsKey);
impl_digest_key_codec!(RegStatsKey);
impl_digest_key_codec!(MuxStatsKey);
