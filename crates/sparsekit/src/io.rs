//! Matrix Market (`.mtx`) reading and writing.
//!
//! Supports `matrix coordinate real/integer/pattern general/symmetric/
//! skew-symmetric` headers — enough to load the University of Florida
//! collection matrices used in the paper when they are available on disk.
//!
//! The reader takes the whole file in one read and walks its bytes with a
//! cursor: lines are found by their `\n`, tokens split where
//! `str::split_whitespace` would split, indices are parsed by hand with
//! overflow checks and each value goes through `f64::from_str`, which
//! rounds exactly. Entries that arrive row-sorted and unique (as
//! [`write_matrix_market`] writes them) already form the CSR arrays;
//! anything else goes through [`Coo::to_csr`], which sorts each row and
//! sums duplicates. Every malformed input is a typed [`MmError`], and the
//! size line is treated as input: reservations are bounded by the file's
//! length, never by the entry count it declares.

use std::fs::File;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

use crate::{Coo, Csr};

/// Errors from Matrix Market parsing.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural or syntactic problem in the file, with a message.
    Parse(String),
    /// An entry's value is NaN or ±∞ (1-based coordinates as written).
    NonFinite {
        /// 1-based row index of the offending entry.
        row: usize,
        /// 1-based column index of the offending entry.
        col: usize,
    },
    /// The file ended before the declared number of entries was read.
    Truncated {
        /// Entries declared on the size line.
        declared: usize,
        /// Entries actually present.
        found: usize,
    },
    /// More entries were present than the size line declared.
    TooManyEntries {
        /// Entries declared on the size line.
        declared: usize,
    },
    /// The size line declares a matrix with no rows or no columns.
    ZeroDimension {
        /// Declared row count.
        nrows: usize,
        /// Declared column count.
        ncols: usize,
    },
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(m) => write!(f, "Matrix Market parse error: {m}"),
            MmError::NonFinite { row, col } => {
                write!(f, "non-finite value at entry ({row},{col})")
            }
            MmError::Truncated { declared, found } => write!(
                f,
                "truncated file: size line declared {declared} entries but only {found} were present"
            ),
            MmError::TooManyEntries { declared } => write!(
                f,
                "trailing data: more entries than the {declared} the size line declared"
            ),
            MmError::ZeroDimension { nrows, ncols } => {
                write!(f, "degenerate size line: {nrows} x {ncols} matrix")
            }
        }
    }
}

impl std::error::Error for MmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MmError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for MmError {
    fn from(e: io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

/// Reads a Matrix Market coordinate file into CSR.
pub fn read_matrix_market(path: impl AsRef<Path>) -> Result<Csr, MmError> {
    parse(&std::fs::read(path)?)
}

/// Reads Matrix Market data from any buffered reader (to its end).
pub fn read_matrix_market_from<R: BufRead>(mut r: R) -> Result<Csr, MmError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    parse(&bytes)
}

/// Parses a whole Matrix Market file held in memory.
fn parse(bytes: &[u8]) -> Result<Csr, MmError> {
    let mut cur = Cursor::new(bytes);
    cur.at_end()?;
    let h: Vec<String> = std::iter::from_fn(|| cur.token())
        .take(5)
        .map(str::to_ascii_lowercase)
        .collect();
    if h.len() < 5 || h[0] != "%%matrixmarket" || h[1] != "matrix" {
        return Err(parse_err("missing %%MatrixMarket matrix header"));
    }
    if h[2] != "coordinate" {
        return Err(parse_err(format!(
            "unsupported format '{}' (only coordinate)",
            h[2]
        )));
    }
    let field = h[3].as_str();
    if !matches!(field, "real" | "integer" | "pattern") {
        return Err(parse_err(format!("unsupported field '{field}'")));
    }
    let sym = h[4].as_str();
    if !matches!(sym, "general" | "symmetric" | "skew-symmetric") {
        return Err(parse_err(format!("unsupported symmetry '{sym}'")));
    }
    let (pattern, mirrored, skew) = (
        field == "pattern",
        sym != "general",
        sym == "skew-symmetric",
    );

    if !cur.next_data_line()? {
        return Err(parse_err("unexpected EOF before size line"));
    }
    let mut size_field = |what: &str| {
        let t = cur.token().ok_or_else(|| parse_err("bad size line"))?;
        parse_index(t).ok_or_else(|| parse_err(format!("bad {what}")))
    };
    let nrows = size_field("nrows")?;
    let ncols = size_field("ncols")?;
    let nnz = size_field("nnz")?;
    if nrows == 0 || ncols == 0 {
        return Err(MmError::ZeroDimension { nrows, ncols });
    }

    // The size line is input like any other: reserve for no more entries
    // than the remaining bytes can hold (an entry line takes at least four).
    let cap = nnz.min(cur.remaining() / 4) * if mirrored { 2 } else { 1 };
    let mut t = Triplets {
        rows: Vec::with_capacity(cap),
        cols: Vec::with_capacity(cap),
        vals: Vec::with_capacity(cap),
        sorted: true,
    };
    for seen in 0..nnz {
        if !cur.next_data_line()? {
            return Err(MmError::Truncated {
                declared: nnz,
                found: seen,
            });
        }
        let i = cur.index().ok_or_else(|| parse_err("bad row index"))?;
        let j = cur.index().ok_or_else(|| parse_err("bad col index"))?;
        if i == 0 || j == 0 || i > nrows || j > ncols {
            return Err(parse_err(format!(
                "entry ({i},{j}) out of bounds (1-based)"
            )));
        }
        if mirrored && (j > nrows || i > ncols) {
            return Err(parse_err(format!(
                "entry ({i},{j}) of a {sym} matrix mirrors outside {nrows} x {ncols}"
            )));
        }
        let v = if pattern {
            1.0
        } else {
            let tok = cur.token().ok_or_else(|| parse_err("missing value"))?;
            tok.parse::<f64>().map_err(|_| parse_err("bad value"))?
        };
        if !v.is_finite() {
            return Err(MmError::NonFinite { row: i, col: j });
        }
        let (i0, j0) = (i - 1, j - 1);
        t.push(i0, j0, v);
        if mirrored && i0 != j0 {
            t.push(j0, i0, if skew { -v } else { v });
        }
    }
    // Anything left beyond the declared entry count (other than comments
    // or blank lines) means the size line lied.
    if cur.next_data_line()? {
        return Err(MmError::TooManyEntries { declared: nnz });
    }
    Ok(t.into_csr(nrows, ncols))
}

/// Entries in file order, with whether they arrived row-sorted and
/// unique (strictly increasing `(row, col)`).
struct Triplets {
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    sorted: bool,
}

impl Triplets {
    #[inline(always)]
    fn push(&mut self, i: usize, j: usize, v: f64) {
        if let (Some(&pi), Some(&pj)) = (self.rows.last(), self.cols.last()) {
            self.sorted &= (pi, pj) < (i, j);
        }
        self.rows.push(i);
        self.cols.push(j);
        self.vals.push(v);
    }

    /// Sorted, unique entries already are CSR once the row pointers are
    /// counted; anything else goes through [`Coo::to_csr`], which sorts
    /// each row and sums duplicates.
    fn into_csr(self, nrows: usize, ncols: usize) -> Csr {
        if !self.sorted {
            return Coo::from_triplets(nrows, ncols, self.rows, self.cols, self.vals).to_csr();
        }
        let mut indptr = vec![0usize; nrows + 1];
        for &r in &self.rows {
            indptr[r + 1] += 1;
        }
        for r in 0..nrows {
            indptr[r + 1] += indptr[r];
        }
        Csr::from_parts(nrows, ncols, indptr, self.cols, self.vals)
    }
}

/// A 1-based index or count: optional `+`, then decimal digits, checked
/// for overflow — what `usize::from_str` accepts, without its generic
/// radix machinery.
#[inline]
fn parse_index(t: &str) -> Option<usize> {
    let digits = t.strip_prefix('+').unwrap_or(t).as_bytes();
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0usize, |n, &b| {
        let d = b.wrapping_sub(b'0');
        (d < 10).then_some(())?;
        n.checked_mul(10)?.checked_add(d as usize)
    })
}

/// How the cursor sees a byte: part of a token, a space, the end of a
/// line, or the lead byte of a non-ASCII character (whose whitespace-ness
/// `char::is_whitespace` decides).
#[derive(Clone, Copy, PartialEq)]
enum Class {
    Token,
    Space,
    Newline,
    Wide,
}

static CLASS: [Class; 256] = {
    let mut t = [Class::Token; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = match b as u8 {
            b'\n' => Class::Newline,
            // `str::split_whitespace`'s ASCII whitespace: \t, \v, \f, \r, ' '.
            b'\t'..=b'\r' | b' ' => Class::Space,
            0x80.. => Class::Wide,
            _ => Class::Token,
        };
        b += 1;
    }
    t
};

/// A cursor over the file's text that reads it the way the line reader
/// it replaced did: lines end at `\n`, tokens split where
/// `str::split_whitespace` splits, and a line whose first token starts
/// with `%` is a comment. The file is checked as UTF-8 once; a line
/// holding invalid UTF-8 is an I/O error (`InvalidData`) when the parser
/// reaches it, as `BufRead::read_line` reports it, and the lines before
/// it parse normally.
struct Cursor<'a> {
    /// The file up to the end of its last line of valid UTF-8.
    text: &'a str,
    pos: usize,
    /// Whether an invalid line follows `text`.
    poisoned: bool,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        let (text, poisoned) = match std::str::from_utf8(bytes) {
            Ok(text) => (text, false),
            Err(e) => {
                let valid = &bytes[..e.valid_up_to()];
                let end = valid.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
                let text = std::str::from_utf8(&valid[..end]).expect("a prefix of valid UTF-8");
                (text, true)
            }
        };
        Cursor {
            text,
            pos: 0,
            poisoned,
        }
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.text.len() - self.pos
    }

    /// Whether the input is used up; reading on past an invalid line is
    /// the I/O error.
    fn at_end(&self) -> Result<bool, MmError> {
        match (self.pos == self.text.len(), self.poisoned) {
            (true, true) => Err(MmError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            ))),
            (at_end, _) => Ok(at_end),
        }
    }

    /// Advances over the run of `class` characters (`Space` or `Token`)
    /// at the cursor: ASCII bytes by the table, anything else by
    /// `char::is_whitespace`.
    #[inline(always)]
    fn skip(&mut self, class: Class) {
        let bytes = self.text.as_bytes();
        loop {
            let rest = &bytes[self.pos..];
            self.pos += rest
                .iter()
                .position(|&b| CLASS[b as usize] != class)
                .unwrap_or(rest.len());
            if self.pos == bytes.len() || CLASS[bytes[self.pos] as usize] != Class::Wide {
                return;
            }
            let c = self.text[self.pos..]
                .chars()
                .next()
                .expect("pos is a char boundary");
            if c.is_whitespace() != (class == Class::Space) {
                return;
            }
            self.pos += c.len_utf8();
        }
    }

    /// The next token of the current line, `None` at its end.
    #[inline(always)]
    fn token(&mut self) -> Option<&'a str> {
        self.skip(Class::Space);
        let start = self.pos;
        self.skip(Class::Token);
        (start < self.pos).then(|| &self.text[start..self.pos])
    }

    /// The next token as an index or count ([`parse_index`]); `None` if
    /// the line has no further token or the token is not one. Plain
    /// digits followed by ASCII whitespace, the common case, are read in
    /// place.
    #[inline(always)]
    fn index(&mut self) -> Option<usize> {
        self.skip(Class::Space);
        let rest = &self.text.as_bytes()[self.pos..];
        // Nineteen digits cannot overflow a u64.
        let (mut n, mut digits) = (0u64, 0);
        for &b in rest.iter().take(19) {
            let d = b.wrapping_sub(b'0');
            if d >= 10 {
                break;
            }
            n = n * 10 + u64::from(d);
            digits += 1;
        }
        let ends = rest.get(digits).map(|&b| CLASS[b as usize]);
        if digits > 0 && matches!(ends, None | Some(Class::Space | Class::Newline)) {
            self.pos += digits;
            return usize::try_from(n).ok();
        }
        self.token().and_then(parse_index)
    }

    /// Skips the rest of the current line, then blank and `%` comment
    /// lines; `false` at the end of the input. The cursor is left on the
    /// first token of a data line.
    fn next_data_line(&mut self) -> Result<bool, MmError> {
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            // A data line's tokens usually end right at its `\n`.
            self.pos += match rest.first() {
                Some(b'\n') => 1,
                _ => rest
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(rest.len(), |p| p + 1),
            };
            if self.at_end()? {
                return Ok(false);
            }
            self.skip(Class::Space);
            match self.text.as_bytes().get(self.pos) {
                None | Some(b'\n' | b'%') => {}
                Some(_) => return Ok(true),
            }
        }
    }
}

/// Writes a CSR matrix as `matrix coordinate real general`.
pub fn write_matrix_market(path: impl AsRef<Path>, a: &Csr) -> Result<(), MmError> {
    let f = File::create(path)?;
    let mut w = BufWriter::new(f);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for r in 0..a.nrows() {
        for (c, v) in a.row_iter(r) {
            writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_general_real() {
        let data = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    2 3 3\n\
                    1 1 1.5\n\
                    2 3 -2.0\n\
                    1 2 4.0\n";
        let m = read_matrix_market_from(Cursor::new(data)).unwrap();
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.get(0, 0), 1.5);
        assert_eq!(m.get(0, 1), 4.0);
        assert_eq!(m.get(1, 2), -2.0);
    }

    #[test]
    fn parse_symmetric_expands() {
        let data = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 3\n\
                    1 1 1.0\n\
                    2 1 2.0\n\
                    3 3 3.0\n";
        let m = read_matrix_market_from(Cursor::new(data)).unwrap();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.nnz(), 4);
        assert!(m.pattern_symmetric());
    }

    #[test]
    fn parse_pattern_field() {
        let data = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 2\n\
                    1 2\n\
                    2 1\n";
        let m = read_matrix_market_from(Cursor::new(data)).unwrap();
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
    }

    #[test]
    fn parse_skew_symmetric_negates_mirror() {
        let data = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    3 3 2\n\
                    2 1 5.0\n\
                    3 2 -1.5\n";
        let m = read_matrix_market_from(Cursor::new(data)).unwrap();
        assert_eq!(m.get(1, 0), 5.0);
        assert_eq!(m.get(0, 1), -5.0);
        assert_eq!(m.get(2, 1), -1.5);
        assert_eq!(m.get(1, 2), 1.5);
    }

    #[test]
    fn rejects_array_format() {
        let data = "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n4.0\n";
        assert!(read_matrix_market_from(Cursor::new(data)).is_err());
    }

    #[test]
    fn rejects_bad_header() {
        let data = "%%NotMM\n1 1 0\n";
        assert!(read_matrix_market_from(Cursor::new(data)).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_entry() {
        let data = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market_from(Cursor::new(data)).is_err());
    }

    #[test]
    fn rejects_nan_and_inf_values() {
        for bad in ["nan", "NaN", "inf", "-inf", "Infinity"] {
            let data = format!(
                "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 {bad}\n"
            );
            match read_matrix_market_from(Cursor::new(data)) {
                Err(MmError::NonFinite { row: 2, col: 2 }) => {}
                other => panic!("value '{bad}' should be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn reports_truncated_file() {
        let data = "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n2 2 2.0\n";
        match read_matrix_market_from(Cursor::new(data)) {
            Err(MmError::Truncated {
                declared: 5,
                found: 2,
            }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn reports_surplus_entries() {
        let data = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 1\n1 1 1.0\n2 2 2.0\n";
        match read_matrix_market_from(Cursor::new(data)) {
            Err(MmError::TooManyEntries { declared: 1 }) => {}
            other => panic!("expected TooManyEntries, got {other:?}"),
        }
    }

    #[test]
    fn trailing_comments_and_blanks_are_fine() {
        let data = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 1\n1 1 1.0\n\n% trailing comment\n";
        assert!(read_matrix_market_from(Cursor::new(data)).is_ok());
    }

    #[test]
    fn rejects_zero_dimension_header() {
        for size in ["0 3 0", "3 0 0", "0 0 0"] {
            let data = format!("%%MatrixMarket matrix coordinate real general\n{size}\n");
            match read_matrix_market_from(Cursor::new(data)) {
                Err(MmError::ZeroDimension { .. }) => {}
                other => panic!("size '{size}' should be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.25);
        coo.push(1, 2, -3.5);
        coo.push(2, 1, 0.5);
        let a = coo.to_csr();
        let dir = std::env::temp_dir().join("sparsekit_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("roundtrip.mtx");
        write_matrix_market(&p, &a).unwrap();
        let b = read_matrix_market(&p).unwrap();
        assert_eq!(a, b);
    }
}
