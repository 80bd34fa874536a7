//! Instruction-set tiers for the workspace's register-width kernels.
//!
//! The workspace builds for the baseline of its target (SSE2 on
//! x86-64), so a loop over `[f64; LANES]` tiles compiles to 128-bit
//! operations there. The loop nests where the dense time goes — the
//! compact `T̃ = W̃G̃` product ([`crate::spgemm`]), and in `slu` the dense
//! LU of `LU(S̃)` and the blocked interface solves — are each written
//! once as an `#[inline(always)]` body and instantiated a second time
//! inside a `#[target_feature]` wrapper; [`Isa::host`] picks the widest
//! tier the CPU has, once per process, and every other architecture
//! runs the baseline. Stable Rust never contracts `a - b * c` into an
//! FMA, so each tier performs the same individually rounded operations
//! in the same order and the results are bit-identical (docs/kernels.md,
//! "The bit-identity contract").

use std::sync::OnceLock;

/// The code tiers of the register-width kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The target's baseline (SSE2 on x86-64).
    Baseline,
    /// 512-bit AVX-512F vectors.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// A tier this CPU is known to run. The field is private, so the only
/// way to hold an `Isa` naming a wide tier is through [`Isa::host`] or
/// [`Isa::supported`], each of which detects the feature first: that is
/// what makes calling the tier's `#[target_feature]` code sound, in this
/// crate and in every crate that dispatches on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Isa(Tier);

impl Isa {
    /// The widest tier this CPU runs, detected on first use.
    pub fn host() -> Isa {
        static HOST: OnceLock<Isa> = OnceLock::new();
        *HOST.get_or_init(|| {
            *Isa::supported()
                .last()
                .expect("the baseline is always supported")
        })
    }

    /// Every tier this CPU runs, baseline first.
    pub fn supported() -> Vec<Isa> {
        let mut tiers = vec![Isa(Tier::Baseline)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            tiers.push(Isa(Tier::Avx512));
        }
        tiers
    }

    /// The tier, for dispatch.
    pub fn tier(self) -> Tier {
        self.0
    }

    /// The tier's name, as the kernel bench reports it.
    pub fn name(self) -> &'static str {
        match self.0 {
            Tier::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => "avx512f",
        }
    }
}
