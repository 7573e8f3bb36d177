//! # rpq-data
//!
//! Dataset substrate for the RPQ reproduction:
//!
//! * [`Dataset`] — a flat, cache-friendly store of `n` vectors of dimension
//!   `d` (the representation every other crate consumes),
//! * [`io`] — reader/writer for the standard `fvecs` format, so real
//!   SIFT/GIST/Deep files can be dropped in,
//! * [`synth`] — four synthetic generators standing in for the paper's five
//!   datasets (Table 3; BigANN, the billion-scale SIFT, shares the Sift
//!   stand-in), matched in dimensionality and cluster structure; these
//!   substitute for the multi-hundred-GB originals (see DESIGN.md §4),
//! * [`lid`] — the MLE local-intrinsic-dimensionality estimator; its tests
//!   pin that the generators reproduce Table 3's LID *ordering* at the
//!   paper's proportions (the MLE reading rises with n, so at laptop scale
//!   it sits below the full-scale targets; DESIGN.md §4.1),
//! * [`ground_truth`] — parallel brute-force exact k-NN and recall@k
//!   (paper Eq. 1), filtered and unfiltered,
//! * [`labels`] — per-vector label metadata over a small fixed vocabulary,
//!   the data-side half of filtered search (DESIGN.md §12).

pub mod dataset;
pub mod ground_truth;
pub mod io;
pub mod labels;
pub mod lid;
pub mod synth;

pub use dataset::Dataset;
pub use ground_truth::{brute_force_knn, brute_force_knn_filtered, recall_at_k, GroundTruth};
pub use labels::{LabelPredicate, Labels};
pub use lid::estimate_lid;
pub use synth::{DatasetKind, SynthConfig};
