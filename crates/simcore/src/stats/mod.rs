//! Statistics accumulators used by the measurement layer.

pub mod histogram;
pub mod series;
pub mod timeweighted;

pub use histogram::WeightedHistogram;
pub use series::TimeSeries;
pub use timeweighted::TimeWeightedMean;
