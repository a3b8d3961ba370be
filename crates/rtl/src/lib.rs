//! RT-level architecture model: allocation, binding, multiplexer trees and
//! the datapath area model.
//!
//! An RT-level design in IMPACT consists of
//!
//! * **functional units** (instances of module-library variants) executing the
//!   CDFG operations bound to them,
//! * **registers** holding the design's variables (several variables may share
//!   one register),
//! * **multiplexer trees** in front of every functional-unit input port and
//!   every register that more than one distinct source reaches — the
//!   interconnect whose power the paper's mux-restructuring move attacks,
//! * a **controller** derived from the STG (modelled in `impact-power`).
//!
//! The [`RtlDesign`] type stores allocation, binding and module selection and
//! offers the mutations used by the IMPACT moves (sharing/splitting of units
//! and registers, module substitution, mux restructuring). [`MuxTree`]
//! implements the switching-activity equations (1)–(7) of the paper together
//! with the balanced and Huffman (activity-probability ordered) constructions.
//!
//! # Example: the paper's mux example (Section 3.2.1)
//!
//! ```
//! use impact_rtl::{MuxSource, MuxTree};
//!
//! let sources = vec![
//!     MuxSource::new("e1", 0.6, 0.7),
//!     MuxSource::new("e2", 0.1, 0.2),
//!     MuxSource::new("e3", 0.2, 0.05),
//!     MuxSource::new("e4", 0.1, 0.05),
//! ];
//! let balanced = MuxTree::balanced(sources.clone());
//! let restructured = MuxTree::huffman(sources);
//! assert!((balanced.switching_activity() - 1.09).abs() < 0.01);
//! assert!((restructured.switching_activity() - 0.72).abs() < 0.01);
//! ```

mod delta;
mod design;
mod mux;

pub use delta::DesignDelta;
pub use design::{
    DerivedSite, FuId, FunctionalUnit, MuxSink, MuxSite, RegId, Register, RtlDesign, RtlError,
    SignalKey, SignalSource,
};
/// A design's structural digest is the shared 128-bit content digest of
/// [`impact_cdfg::fingerprint`]; the hasher is re-exported alongside it so
/// downstream crates need only one import path.
pub use impact_cdfg::fingerprint::{Digest128 as DesignFingerprint, FingerprintHasher};
pub use mux::{MuxSource, MuxTree};
