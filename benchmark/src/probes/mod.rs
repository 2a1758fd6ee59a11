//! One module per layer (crate) of the program.  Each probe is a thin
//! wrapper around the layer's public functions — the narrow API surface the
//! ledger depends on — so a later change to one layer's API repairs one
//! file here.  Probes do not time themselves; the traced run wraps the
//! calls in spans.

pub mod autotune;
pub mod core;
pub mod model;
pub mod passes;
pub mod sim;
pub mod tir;
pub mod wire;
