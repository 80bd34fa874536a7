//! Binary serialization of setup state.
//!
//! Two consumers need pipeline state to cross a process boundary
//! bit-exactly: the shard substrate (`crates/shard`) ships subdomain
//! blocks to worker processes and factors back, and checkpoint/restart
//! persists a [`crate::checkpoint::SetupCheckpoint`] as opaque bytes.
//! Both use the same little-endian format written here: a 4-byte magic,
//! a format version, the payload, and a trailing FNV-1a checksum over
//! everything before it.
//!
//! Floating-point values are encoded as raw IEEE-754 bit patterns
//! (`f64::to_bits`), so a decode reproduces the exact values — the
//! bit-identical-result guarantees of the shard tests depend on this.
//!
//! Decoding never panics on hostile bytes: truncation, a bad magic or
//! version, an invalid enum tag, or a checksum mismatch all surface as
//! the typed input error [`PdslinError::CheckpointCorrupt`]. Structural
//! invariants of the decoded matrices (handled by the panicking
//! `from_parts` constructors) are protected by the checksum, which any
//! byte-level corruption fails first.

use crate::error::PdslinError;
use crate::extract::{DbbdSystem, LocalDomain};
use crate::fault::FaultPlan;
use crate::partition::PartitionerKind;
use crate::rhs_order::RhsOrdering;
use crate::stats::{DomainCosts, InterfaceStats, PhaseTimes, SetupStats};
use crate::subdomain::FactoredDomain;
use crate::{KrylovKind, PdslinConfig};
use graphpart::{DbbdPartition, WeightScheme};
use hypergraph::rhb::StructuralFactor;
use hypergraph::{ConstraintMode, CutMetric, RhbConfig};
use krylov::GmresConfig;
use slu::LuFactors;
use sparsekit::{Csc, Csr, Fnv64, Perm};

/// Magic prefix of every serialized blob produced by this module.
pub const MAGIC: [u8; 4] = *b"PDLK";
/// Format version; bumped on any layout change.
///
/// v3 appended the refactorization counters to the stats record; v4
/// added `InterfaceStats::symbolic_seconds`; v5 dropped the config's
/// trisolve-schedule tag and the RGB ordering's three tuning fields
/// (the ordering runs with fixed constants). A blob of any other
/// version is rejected by [`open_envelope`] as
/// `PdslinError::CheckpointCorrupt`, never reinterpreted. The
/// per-factor symbolic replay record (`slu`'s private elimination
/// trace) is deliberately *not* serialized: decoded factors solve
/// bit-identically but cannot be numerically refactorized in place, so
/// `Pdslin::update_values` on a resumed solver rebuilds those factors
/// from scratch and logs a typed recovery event.
pub const VERSION: u32 = 5;

fn corrupt(detail: impl Into<String>) -> PdslinError {
    PdslinError::CheckpointCorrupt {
        detail: detail.into(),
    }
}

/// Little-endian byte-stream writer used by all encoders in this module.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends a `u32` (little-endian).
    pub fn put_u32(&mut self, w: u32) {
        self.buf.extend_from_slice(&w.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, w: u64) {
        self.buf.extend_from_slice(&w.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its raw IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends an `Option<usize>` as a tag byte plus the value.
    pub fn put_opt_usize(&mut self, v: Option<usize>) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                self.put_usize(x);
            }
        }
    }

    /// Appends a length-prefixed `usize` slice.
    pub fn put_usize_slice(&mut self, xs: &[usize]) {
        self.put_usize(xs.len());
        for &x in xs {
            self.put_usize(x);
        }
    }

    /// Appends a length-prefixed `f64` slice (bit patterns).
    pub fn put_f64_slice(&mut self, xs: &[f64]) {
        self.put_usize(xs.len());
        for &x in xs {
            self.put_f64(x);
        }
    }

    /// Consumes the writer and returns the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Checked little-endian reader over a byte slice; every accessor
/// returns [`PdslinError::CheckpointCorrupt`] instead of panicking when
/// the slice runs out.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PdslinError> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, PdslinError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PdslinError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PdslinError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` (stored as `u64`; rejects values above
    /// `usize::MAX` on narrower targets).
    pub fn get_usize(&mut self) -> Result<usize, PdslinError> {
        let w = self.get_u64()?;
        usize::try_from(w).map_err(|_| corrupt(format!("length {w} exceeds usize")))
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, PdslinError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `bool`; any byte other than 0/1 is rejected.
    pub fn get_bool(&mut self) -> Result<bool, PdslinError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads an `Option<usize>` written by
    /// [`ByteWriter::put_opt_usize`].
    pub fn get_opt_usize(&mut self) -> Result<Option<usize>, PdslinError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_usize()?)),
            b => Err(corrupt(format!("invalid option tag {b}"))),
        }
    }

    fn checked_len(&mut self, elem_bytes: usize, what: &str) -> Result<usize, PdslinError> {
        let n = self.get_usize()?;
        // Reject lengths the remaining buffer cannot possibly hold, so a
        // corrupted length never drives a huge allocation.
        if n.checked_mul(elem_bytes)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(corrupt(format!(
                "{what} length {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed `usize` slice.
    pub fn get_usize_slice(&mut self) -> Result<Vec<usize>, PdslinError> {
        let n = self.checked_len(8, "usize slice")?;
        (0..n).map(|_| self.get_usize()).collect()
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn get_f64_slice(&mut self) -> Result<Vec<f64>, PdslinError> {
        let n = self.checked_len(8, "f64 slice")?;
        (0..n).map(|_| self.get_f64()).collect()
    }
}

/// Wraps an encoded payload with the magic, version, and trailing
/// checksum; the result is what [`open_envelope`] accepts.
pub fn seal_envelope(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(payload);
    let mut h = Fnv64::new();
    for &b in &out {
        h.write_u8(b);
    }
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

/// Validates magic, version, and checksum, returning the payload slice.
pub fn open_envelope(bytes: &[u8]) -> Result<&[u8], PdslinError> {
    if bytes.len() < 16 {
        return Err(corrupt(format!("{} bytes is too short", bytes.len())));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    if body[..4] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(body[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(corrupt(format!("unsupported version {version}")));
    }
    let mut h = Fnv64::new();
    for &b in body {
        h.write_u8(b);
    }
    let want = u64::from_le_bytes(tail.try_into().unwrap());
    if h.finish() != want {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(&body[8..])
}

/// Encodes a CSR matrix.
pub fn encode_csr(w: &mut ByteWriter, a: &Csr) {
    w.put_usize(a.nrows());
    w.put_usize(a.ncols());
    w.put_usize_slice(a.indptr());
    w.put_usize_slice(a.indices());
    w.put_f64_slice(a.values());
}

/// Decodes a CSR matrix written by [`encode_csr`].
pub fn decode_csr(r: &mut ByteReader<'_>) -> Result<Csr, PdslinError> {
    let nrows = r.get_usize()?;
    let ncols = r.get_usize()?;
    let indptr = r.get_usize_slice()?;
    let indices = r.get_usize_slice()?;
    let values = r.get_f64_slice()?;
    Ok(Csr::from_parts(nrows, ncols, indptr, indices, values))
}

/// Encodes a CSC matrix.
pub fn encode_csc(w: &mut ByteWriter, a: &Csc) {
    w.put_usize(a.nrows());
    w.put_usize(a.ncols());
    w.put_usize_slice(a.colptr());
    w.put_usize_slice(a.rowind());
    w.put_f64_slice(a.values());
}

/// Decodes a CSC matrix written by [`encode_csc`].
pub fn decode_csc(r: &mut ByteReader<'_>) -> Result<Csc, PdslinError> {
    let nrows = r.get_usize()?;
    let ncols = r.get_usize()?;
    let colptr = r.get_usize_slice()?;
    let rowind = r.get_usize_slice()?;
    let values = r.get_f64_slice()?;
    Ok(Csc::from_parts(nrows, ncols, colptr, rowind, values))
}

fn encode_perm(w: &mut ByteWriter, p: &Perm) {
    w.put_usize_slice(p.as_to_old());
}

fn decode_perm(r: &mut ByteReader<'_>) -> Result<Perm, PdslinError> {
    Ok(Perm::from_to_old(r.get_usize_slice()?))
}

fn encode_lu(w: &mut ByteWriter, f: &LuFactors) {
    encode_csc(w, &f.l);
    encode_csc(w, &f.u);
    encode_perm(w, &f.row_perm);
    encode_perm(w, &f.col_perm);
    w.put_usize_slice(&f.perturbed);
}

fn decode_lu(r: &mut ByteReader<'_>) -> Result<LuFactors, PdslinError> {
    let l = decode_csc(r)?;
    let u = decode_csc(r)?;
    let row_perm = decode_perm(r)?;
    let col_perm = decode_perm(r)?;
    let perturbed = r.get_usize_slice()?;
    Ok(LuFactors::from_parts(l, u, row_perm, col_perm, perturbed))
}

/// Encodes a factored subdomain (LU factors + elimination tree).
pub fn encode_factored_domain(w: &mut ByteWriter, f: &FactoredDomain) {
    encode_lu(w, &f.lu);
    w.put_usize_slice(&f.etree_parent);
}

/// Decodes a factored subdomain written by [`encode_factored_domain`].
pub fn decode_factored_domain(r: &mut ByteReader<'_>) -> Result<FactoredDomain, PdslinError> {
    let lu = decode_lu(r)?;
    let etree_parent = r.get_usize_slice()?;
    Ok(FactoredDomain { lu, etree_parent })
}

fn encode_local_domain(w: &mut ByteWriter, d: &LocalDomain) {
    w.put_usize_slice(&d.rows);
    encode_csr(w, &d.d);
    w.put_usize_slice(&d.e_cols);
    encode_csr(w, &d.e_hat);
    w.put_usize_slice(&d.f_rows);
    encode_csr(w, &d.f_hat);
}

fn decode_local_domain(r: &mut ByteReader<'_>) -> Result<LocalDomain, PdslinError> {
    Ok(LocalDomain {
        rows: r.get_usize_slice()?,
        d: decode_csr(r)?,
        e_cols: r.get_usize_slice()?,
        e_hat: decode_csr(r)?,
        f_rows: r.get_usize_slice()?,
        f_hat: decode_csr(r)?,
    })
}

fn encode_system(w: &mut ByteWriter, sys: &DbbdSystem) {
    w.put_usize(sys.part.k);
    w.put_usize_slice(&sys.part.part_of);
    w.put_usize(sys.domains.len());
    for d in &sys.domains {
        encode_local_domain(w, d);
    }
    w.put_usize_slice(&sys.sep_rows);
    encode_csr(w, &sys.c);
}

fn decode_system(r: &mut ByteReader<'_>) -> Result<DbbdSystem, PdslinError> {
    let k = r.get_usize()?;
    let part_of = r.get_usize_slice()?;
    let ndom = r.checked_len(1, "domains")?;
    let mut domains = Vec::with_capacity(ndom);
    for _ in 0..ndom {
        domains.push(decode_local_domain(r)?);
    }
    Ok(DbbdSystem {
        part: DbbdPartition { k, part_of },
        domains,
        sep_rows: r.get_usize_slice()?,
        c: decode_csr(r)?,
    })
}

fn encode_fault(w: &mut ByteWriter, f: &FaultPlan) {
    w.put_opt_usize(f.singular_domain);
    w.put_opt_usize(f.poison_interface);
    w.put_bool(f.fail_partitioner);
    w.put_bool(f.krylov_stall);
    w.put_opt_usize(f.worker_panic);
    w.put_bool(f.worker_panic_persistent);
    match f.stall_schur_ms {
        None => w.put_u8(0),
        Some(ms) => {
            w.put_u8(1);
            w.put_u64(ms);
        }
    }
    w.put_bool(f.memory_blowup);
    w.put_opt_usize(f.worker_kill);
    w.put_opt_usize(f.torn_frame);
    w.put_opt_usize(f.heartbeat_stall);
    w.put_bool(f.corrupt_checkpoint);
}

fn decode_fault(r: &mut ByteReader<'_>) -> Result<FaultPlan, PdslinError> {
    Ok(FaultPlan {
        singular_domain: r.get_opt_usize()?,
        poison_interface: r.get_opt_usize()?,
        fail_partitioner: r.get_bool()?,
        krylov_stall: r.get_bool()?,
        worker_panic: r.get_opt_usize()?,
        worker_panic_persistent: r.get_bool()?,
        stall_schur_ms: match r.get_u8()? {
            0 => None,
            1 => Some(r.get_u64()?),
            b => return Err(corrupt(format!("invalid option tag {b}"))),
        },
        memory_blowup: r.get_bool()?,
        worker_kill: r.get_opt_usize()?,
        torn_frame: r.get_opt_usize()?,
        heartbeat_stall: r.get_opt_usize()?,
        corrupt_checkpoint: r.get_bool()?,
    })
}

/// Encodes a full [`PdslinConfig`] (every field, fault plan included).
pub fn encode_config(w: &mut ByteWriter, cfg: &PdslinConfig) {
    w.put_usize(cfg.k);
    match &cfg.partitioner {
        PartitionerKind::Ngd => w.put_u8(0),
        PartitionerKind::Rhb(c) => {
            w.put_u8(1);
            w.put_u8(match c.metric {
                CutMetric::Con1 => 0,
                CutMetric::Cnet => 1,
                CutMetric::Soed => 2,
            });
            w.put_u8(match c.constraint {
                ConstraintMode::Unit => 0,
                ConstraintMode::Single => 1,
                ConstraintMode::Multi => 2,
            });
            w.put_f64(c.eps);
            w.put_usize(c.coarse_target);
            w.put_u8(match c.factor {
                StructuralFactor::Identity => 0,
                StructuralFactor::LowerTriangular => 1,
                StructuralFactor::EdgeCover => 2,
            });
            w.put_bool(c.unit_first_level);
            w.put_u8(match c.weights {
                WeightScheme::Unit => 0,
                WeightScheme::ValueScaled => 1,
            });
        }
    }
    w.put_u8(match cfg.weights {
        WeightScheme::Unit => 0,
        WeightScheme::ValueScaled => 1,
    });
    match &cfg.rhs_ordering {
        RhsOrdering::Natural => w.put_u8(0),
        RhsOrdering::Postorder => w.put_u8(1),
        RhsOrdering::Hypergraph { tau } => {
            w.put_u8(2);
            match tau {
                None => w.put_u8(0),
                Some(t) => {
                    w.put_u8(1);
                    w.put_f64(*t);
                }
            }
        }
        RhsOrdering::Rgb => w.put_u8(3),
    }
    w.put_usize(cfg.block_size);
    w.put_f64(cfg.interface_drop_tol);
    w.put_f64(cfg.schur_drop_tol);
    w.put_f64(cfg.pivot_threshold);
    w.put_u8(match cfg.krylov {
        KrylovKind::Gmres => 0,
        KrylovKind::Bicgstab => 1,
    });
    w.put_usize(cfg.gmres.restart);
    w.put_usize(cfg.gmres.max_iters);
    w.put_f64(cfg.gmres.tol);
    w.put_bool(cfg.parallel);
    encode_fault(w, &cfg.fault);
}

/// Decodes a [`PdslinConfig`] written by [`encode_config`].
pub fn decode_config(r: &mut ByteReader<'_>) -> Result<PdslinConfig, PdslinError> {
    let k = r.get_usize()?;
    let partitioner = match r.get_u8()? {
        0 => PartitionerKind::Ngd,
        1 => {
            let metric = match r.get_u8()? {
                0 => CutMetric::Con1,
                1 => CutMetric::Cnet,
                2 => CutMetric::Soed,
                b => return Err(corrupt(format!("invalid cut metric tag {b}"))),
            };
            let constraint = match r.get_u8()? {
                0 => ConstraintMode::Unit,
                1 => ConstraintMode::Single,
                2 => ConstraintMode::Multi,
                b => return Err(corrupt(format!("invalid constraint tag {b}"))),
            };
            let eps = r.get_f64()?;
            let coarse_target = r.get_usize()?;
            let factor = match r.get_u8()? {
                0 => StructuralFactor::Identity,
                1 => StructuralFactor::LowerTriangular,
                2 => StructuralFactor::EdgeCover,
                b => return Err(corrupt(format!("invalid factor tag {b}"))),
            };
            let unit_first_level = r.get_bool()?;
            let weights = match r.get_u8()? {
                0 => WeightScheme::Unit,
                1 => WeightScheme::ValueScaled,
                b => return Err(corrupt(format!("invalid weight tag {b}"))),
            };
            PartitionerKind::Rhb(RhbConfig {
                metric,
                constraint,
                eps,
                coarse_target,
                factor,
                unit_first_level,
                weights,
            })
        }
        b => return Err(corrupt(format!("invalid partitioner tag {b}"))),
    };
    let weights = match r.get_u8()? {
        0 => WeightScheme::Unit,
        1 => WeightScheme::ValueScaled,
        b => return Err(corrupt(format!("invalid weight tag {b}"))),
    };
    let rhs_ordering = match r.get_u8()? {
        0 => RhsOrdering::Natural,
        1 => RhsOrdering::Postorder,
        2 => RhsOrdering::Hypergraph {
            tau: match r.get_u8()? {
                0 => None,
                1 => Some(r.get_f64()?),
                b => return Err(corrupt(format!("invalid option tag {b}"))),
            },
        },
        3 => RhsOrdering::Rgb,
        b => return Err(corrupt(format!("invalid rhs ordering tag {b}"))),
    };
    let block_size = r.get_usize()?;
    let interface_drop_tol = r.get_f64()?;
    let schur_drop_tol = r.get_f64()?;
    let pivot_threshold = r.get_f64()?;
    let krylov = match r.get_u8()? {
        0 => KrylovKind::Gmres,
        1 => KrylovKind::Bicgstab,
        b => return Err(corrupt(format!("invalid krylov tag {b}"))),
    };
    let gmres = GmresConfig {
        restart: r.get_usize()?,
        max_iters: r.get_usize()?,
        tol: r.get_f64()?,
    };
    let parallel = r.get_bool()?;
    let fault = decode_fault(r)?;
    Ok(PdslinConfig {
        k,
        partitioner,
        weights,
        rhs_ordering,
        block_size,
        interface_drop_tol,
        schur_drop_tol,
        pivot_threshold,
        krylov,
        gmres,
        parallel,
        fault,
    })
}

/// Encodes the state-heavy half of a checkpoint: the extracted DBBD
/// system and the per-subdomain factors.
pub fn encode_checkpoint_body(w: &mut ByteWriter, sys: &DbbdSystem, factors: &[FactoredDomain]) {
    encode_system(w, sys);
    w.put_usize(factors.len());
    for f in factors {
        encode_factored_domain(w, f);
    }
}

/// Decodes the pair written by [`encode_checkpoint_body`].
#[allow(clippy::type_complexity)]
pub fn decode_checkpoint_body(
    r: &mut ByteReader<'_>,
) -> Result<(DbbdSystem, Vec<FactoredDomain>), PdslinError> {
    let sys = decode_system(r)?;
    let nf = r.checked_len(1, "factors")?;
    let mut factors = Vec::with_capacity(nf);
    for _ in 0..nf {
        factors.push(decode_factored_domain(r)?);
    }
    Ok((sys, factors))
}

fn encode_interface(w: &mut ByteWriter, s: &InterfaceStats) {
    w.put_u64(s.nnz_g);
    w.put_usize(s.nnzcol_g);
    w.put_usize(s.nnzrow_g);
    w.put_u64(s.nnz_e);
    w.put_u64(s.padded_zeros);
    w.put_f64(s.padding_fraction);
    w.put_f64(s.solve_seconds);
    w.put_f64(s.symbolic_seconds);
}

fn decode_interface(r: &mut ByteReader<'_>) -> Result<InterfaceStats, PdslinError> {
    Ok(InterfaceStats {
        nnz_g: r.get_u64()?,
        nnzcol_g: r.get_usize()?,
        nnzrow_g: r.get_usize()?,
        nnz_e: r.get_u64()?,
        padded_zeros: r.get_u64()?,
        padding_fraction: r.get_f64()?,
        solve_seconds: r.get_f64()?,
        symbolic_seconds: r.get_f64()?,
    })
}

/// Encodes setup statistics. The recovery log is *not* serialized — it
/// is a diagnostic trail of the producing process, and `Pdslin::resume`
/// clears it anyway; decode returns an empty log.
pub fn encode_stats(w: &mut ByteWriter, s: &SetupStats) {
    w.put_f64(s.times.partition);
    w.put_f64(s.times.extract);
    w.put_f64(s.times.lu_d);
    w.put_f64(s.times.comp_s);
    w.put_f64(s.times.lu_s);
    w.put_f64(s.times.solve);
    w.put_f64_slice(&s.domain_costs.lu_d);
    w.put_f64_slice(&s.domain_costs.comp_s);
    w.put_usize(s.separator_size);
    w.put_usize_slice(&s.dims);
    w.put_usize_slice(&s.nnz_d);
    w.put_usize_slice(&s.nnzcol_e);
    w.put_usize_slice(&s.nnz_e);
    w.put_usize(s.interface.len());
    for i in &s.interface {
        encode_interface(w, i);
    }
    w.put_usize(s.nnz_schur);
    w.put_usize_slice(&s.nnz_t);
    w.put_usize(s.factorizations);
    w.put_usize(s.factorizations_reused);
    w.put_usize(s.refactorizations);
    w.put_usize(s.refactorization_fallbacks);
}

/// Decodes setup statistics written by [`encode_stats`].
pub fn decode_stats(r: &mut ByteReader<'_>) -> Result<SetupStats, PdslinError> {
    let times = PhaseTimes {
        partition: r.get_f64()?,
        extract: r.get_f64()?,
        lu_d: r.get_f64()?,
        comp_s: r.get_f64()?,
        lu_s: r.get_f64()?,
        solve: r.get_f64()?,
    };
    let domain_costs = DomainCosts {
        lu_d: r.get_f64_slice()?,
        comp_s: r.get_f64_slice()?,
    };
    let separator_size = r.get_usize()?;
    let dims = r.get_usize_slice()?;
    let nnz_d = r.get_usize_slice()?;
    let nnzcol_e = r.get_usize_slice()?;
    let nnz_e = r.get_usize_slice()?;
    let ni = r.checked_len(1, "interface stats")?;
    let mut interface = Vec::with_capacity(ni);
    for _ in 0..ni {
        interface.push(decode_interface(r)?);
    }
    Ok(SetupStats {
        times,
        domain_costs,
        separator_size,
        dims,
        nnz_d,
        nnzcol_e,
        nnz_e,
        interface,
        nnz_schur: r.get_usize()?,
        nnz_t: r.get_usize_slice()?,
        factorizations: r.get_usize()?,
        factorizations_reused: r.get_usize()?,
        refactorizations: r.get_usize()?,
        refactorization_fallbacks: r.get_usize()?,
        recovery: Default::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplace2d(nx: usize) -> Csr {
        matgen::stencil::laplace2d(nx, nx)
    }

    fn round_trip_csr(a: &Csr) -> Csr {
        let mut w = ByteWriter::new();
        encode_csr(&mut w, a);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let b = decode_csr(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        b
    }

    #[test]
    fn csr_round_trip_is_bit_exact() {
        let a = laplace2d(7);
        let b = round_trip_csr(&a);
        assert_eq!(a.indptr(), b.indptr());
        assert_eq!(a.indices(), b.indices());
        assert!(a
            .values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn envelope_round_trip_and_rejections() {
        let sealed = seal_envelope(&[1, 2, 3, 4, 5]);
        assert_eq!(open_envelope(&sealed).unwrap(), &[1, 2, 3, 4, 5]);

        // Truncation at every prefix is rejected, never a panic.
        for cut in 0..sealed.len() {
            assert!(
                open_envelope(&sealed[..cut]).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
        // Any single flipped byte fails the checksum (or magic/version).
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x40;
            let e = open_envelope(&bad).unwrap_err();
            assert_eq!(
                e.category(),
                crate::error::ErrorCategory::Input,
                "flip at {i}: {e}"
            );
        }
        // A well-formed blob of the previous layout version (checksum
        // valid) is rejected by version, with the typed error.
        let mut old = sealed[..sealed.len() - 8].to_vec();
        old[4..8].copy_from_slice(&(VERSION - 1).to_le_bytes());
        let mut h = Fnv64::new();
        for &b in &old {
            h.write_u8(b);
        }
        old.extend_from_slice(&h.finish().to_le_bytes());
        match open_envelope(&old).unwrap_err() {
            PdslinError::CheckpointCorrupt { detail } => {
                assert!(detail.contains("unsupported version"), "{detail}")
            }
            e => panic!("expected CheckpointCorrupt, got {e}"),
        }
    }

    #[test]
    fn config_round_trip_all_variants() {
        let mut cfg = PdslinConfig {
            partitioner: PartitionerKind::Rhb(RhbConfig::default()),
            rhs_ordering: RhsOrdering::Hypergraph { tau: Some(0.25) },
            weights: WeightScheme::ValueScaled,
            krylov: KrylovKind::Bicgstab,
            ..Default::default()
        };
        cfg.fault.worker_kill = Some(3);
        cfg.fault.stall_schur_ms = Some(17);
        cfg.fault.corrupt_checkpoint = true;
        let mut w = ByteWriter::new();
        encode_config(&mut w, &cfg);
        let bytes = w.into_bytes();
        let got = decode_config(&mut ByteReader::new(&bytes)).unwrap();
        let mut w2 = ByteWriter::new();
        encode_config(&mut w2, &got);
        assert_eq!(bytes, w2.into_bytes(), "re-encode must be identical");
        assert_eq!(got.fault.worker_kill, Some(3));
        assert_eq!(got.k, cfg.k);
    }

    #[test]
    fn truncated_reader_is_typed_not_panicking() {
        let mut w = ByteWriter::new();
        w.put_usize_slice(&[1, 2, 3]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(r.get_usize_slice().is_err(), "cut at {cut}");
        }
        // A corrupted huge length is rejected before allocating.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_f64_slice().is_err());
    }
}
