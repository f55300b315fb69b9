//! Workload generators for the three applications the paper evaluates
//! (§V), plus the synthetic array of §IV-E.
//!
//! The original datasets are not redistributable (Kaggle LGG MRI, LANL
//! nuclear-DFT densities) or need a Julia runtime (ShallowWaters.jl), so
//! each generator synthesizes data with the *properties the experiments
//! exercise*:
//!
//! * [`shallow_water`] — a 2-D shallow-water solver, generic over the
//!   arithmetic precision, for the Fig. 4 FP16-vs-FP32 experiment.
//! * [`fission`] — a plutonium-fission-like 3-D density time series with a
//!   scission event between steps 690 and 692 and misleading noise events,
//!   for the Fig. 6 L2/Wasserstein experiment.
//! * [`mri`] — FLAIR-like 3-D volumes with asymmetric dimension sizes for
//!   the Fig. 5 error-vs-settings sweep.
//! * [`gradient`] — the constant-gradient array of §IV-E used by the
//!   ZFP timing comparison (Fig. 3).
//!
//! Every generator is deterministic given its seed.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fission;
pub mod gradient;
pub mod mri;
pub mod shallow_water;
