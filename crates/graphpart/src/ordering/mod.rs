//! Fill-reducing orderings used before subdomain factorisation, plus
//! the recursive-graph-bisection sequence layout used for RHS ordering.

pub mod mindeg;
pub mod rgb;
