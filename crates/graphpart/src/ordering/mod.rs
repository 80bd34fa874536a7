//! Fill-reducing orderings used before subdomain factorisation.

pub mod mindeg;
