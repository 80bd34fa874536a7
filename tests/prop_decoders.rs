//! Seed-loop fuzzing of the two input decoders the daemon runs on
//! untrusted bytes: the Matrix Market reader and the jsonl request
//! parser. Every input must come back `Ok` or as a typed error, never
//! as a panic or an abort.
//!
//! The Matrix Market reader is checked differentially against the
//! line-by-line `String` reader it replaced, kept here as the oracle:
//! the two must agree bit for bit on every `Ok` and on the `MmError`
//! variant of every `Err`.

use std::io::{BufRead, Cursor};

use pdslin_service::json::{Json, MAX_DEPTH};
use pdslin_service::parse_request;
use sparsekit::io::{read_matrix_market_from, MmError};
use sparsekit::{Coo, Csr, Rng64};

/// The previous line reader, verbatim but for its entry reservation,
/// which trusted the size line (`Coo::with_capacity(.., nnz)` is the
/// `capacity overflow` panic this suite pins as fixed).
fn oracle_read<R: BufRead>(mut r: R) -> Result<Csr, MmError> {
    let parse_err = |m: &str| MmError::Parse(m.to_string());
    let mut header = String::new();
    r.read_line(&mut header)?;
    let h: Vec<String> = header
        .split_whitespace()
        .map(|s| s.to_ascii_lowercase())
        .collect();
    if h.len() < 5 || h[0] != "%%matrixmarket" || h[1] != "matrix" {
        return Err(parse_err("missing %%MatrixMarket matrix header"));
    }
    if h[2] != "coordinate" {
        return Err(parse_err("unsupported format"));
    }
    let field = h[3].as_str();
    if !matches!(field, "real" | "integer" | "pattern") {
        return Err(parse_err("unsupported field"));
    }
    let sym = h[4].as_str();
    if !matches!(sym, "general" | "symmetric" | "skew-symmetric") {
        return Err(parse_err("unsupported symmetry"));
    }
    let mut line = String::new();
    let (nrows, ncols, nnz) = loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(parse_err("unexpected EOF before size line"));
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let mut next = || -> Result<usize, MmError> {
            it.next()
                .ok_or_else(|| parse_err("bad size line"))?
                .parse()
                .map_err(|_| parse_err("bad size"))
        };
        break (next()?, next()?, next()?);
    };
    if nrows == 0 || ncols == 0 {
        return Err(MmError::ZeroDimension { nrows, ncols });
    }
    let mut coo = Coo::new(nrows, ncols);
    let mut seen = 0usize;
    while seen < nnz {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(MmError::Truncated {
                declared: nnz,
                found: seen,
            });
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let mut index = || -> Result<usize, MmError> {
            it.next()
                .ok_or_else(|| parse_err("bad entry line"))?
                .parse()
                .map_err(|_| parse_err("bad index"))
        };
        let i = index()?;
        let j = index()?;
        if i == 0 || j == 0 || i > nrows || j > ncols {
            return Err(parse_err("entry out of bounds"));
        }
        let v: f64 = match field {
            "pattern" => 1.0,
            _ => it
                .next()
                .ok_or_else(|| parse_err("missing value"))?
                .parse()
                .map_err(|_| parse_err("bad value"))?,
        };
        if !v.is_finite() {
            return Err(MmError::NonFinite { row: i, col: j });
        }
        let (i0, j0) = (i - 1, j - 1);
        coo.push(i0, j0, v);
        if i0 != j0 {
            match sym {
                "symmetric" => coo.push(j0, i0, v),
                "skew-symmetric" => coo.push(j0, i0, -v),
                _ => {}
            }
        }
        seen += 1;
    }
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        let t = line.trim();
        if !t.is_empty() && !t.starts_with('%') {
            return Err(MmError::TooManyEntries { declared: nnz });
        }
    }
    Ok(coo.to_csr())
}

/// Bit-for-bit CSR equality (`-0.0` and `+0.0` differ).
fn same_bits(a: &Csr, b: &Csr) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.indptr() == b.indptr()
        && a.indices() == b.indices()
        && a.values().len() == b.values().len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Reads `bytes` with both readers and requires them to agree. Where
/// the oracle panics (an off-diagonal entry of a non-square symmetric
/// matrix mirrors out of bounds, a `Coo::push` assert), the new reader
/// must return a parse error instead.
fn check_mm(bytes: &[u8]) -> Result<Csr, MmError> {
    let new = read_matrix_market_from(Cursor::new(bytes));
    let shown = || String::from_utf8_lossy(bytes).into_owned();
    let Ok(old) = std::panic::catch_unwind(|| oracle_read(Cursor::new(bytes))) else {
        assert!(
            matches!(new, Err(MmError::Parse(_))),
            "{:?}: {new:?}",
            shown()
        );
        return new;
    };
    match (&new, &old) {
        (Ok(a), Ok(b)) => assert!(same_bits(a, b), "CSR differs on {:?}", shown()),
        (Err(a), Err(b)) => assert_eq!(
            std::mem::discriminant(a),
            std::mem::discriminant(b),
            "error variant differs on {:?}: {a:?} vs {b:?}",
            shown()
        ),
        _ => panic!("readers disagree on {:?}: {new:?} vs {old:?}", shown()),
    }
    new
}

const FIELDS: [&str; 4] = ["real", "integer", "pattern", "Real"];
const SYMMETRIES: [&str; 4] = ["general", "symmetric", "skew-symmetric", "GENERAL"];
const SPACES: [&str; 6] = [" ", "  ", "\t", " \u{b}", "\u{a0}", "\u{2003}"];

fn pick<'a>(rng: &mut Rng64, xs: &[&'a str]) -> &'a str {
    xs[rng.below(xs.len())]
}

fn value_token(rng: &mut Rng64, integer: bool) -> String {
    if integer {
        return format!("{}", rng.range(0, 20) as i64 - 10);
    }
    match rng.below(12) {
        0 => "-0.0".into(),
        1 => "1e308".into(),
        2 => "nan".into(),
        3 => "+2.5E-3".into(),
        4 => "4.9e-324".into(),
        _ => format!("{:.17e}", rng.f64_range(-10.0, 10.0)),
    }
}

/// A small, well-formed-or-nearly Matrix Market file: random header
/// variant, comments, blank lines, duplicated and unsorted entries.
fn random_mm(rng: &mut Rng64) -> Vec<u8> {
    let field = pick(rng, &FIELDS);
    let sym = pick(rng, &SYMMETRIES);
    let (nrows, ncols) = if sym == "general" {
        (rng.range(1, 6), rng.range(1, 6))
    } else {
        let n = rng.range(1, 6);
        (n, n)
    };
    let mut entries: Vec<(usize, usize)> = Vec::new();
    for i in 1..=nrows {
        for j in 1..=ncols {
            let stored_triangle = sym == "general" || j <= i;
            let strict = !sym.starts_with("skew") || j < i;
            if stored_triangle && strict && rng.below(3) == 0 {
                entries.push((i, j));
            }
        }
    }
    if !entries.is_empty() && rng.below(4) == 0 {
        let dup = entries[rng.below(entries.len())];
        entries.push(dup);
    }
    if rng.below(3) == 0 {
        rng.shuffle(&mut entries);
    }
    let eol = if rng.below(4) == 0 { "\r\n" } else { "\n" };
    let sp = pick(rng, &SPACES);
    let mut out = format!("%%MatrixMarket matrix coordinate {field} {sym}{eol}");
    if rng.below(2) == 0 {
        out += &format!("% a comment{eol}{eol}");
    }
    out += &format!("{nrows}{sp}{ncols}{sp}{}{eol}", entries.len());
    for (i, j) in entries {
        if rng.below(8) == 0 {
            out += &format!("  % between entries{eol}");
        }
        out += &format!("{i}{sp}{j}");
        if field != "pattern" {
            out += &format!("{sp}{}", value_token(rng, field == "integer"));
        }
        out += eol;
    }
    if rng.below(4) == 0 {
        out += &format!("% trailer{eol}");
    }
    out.into_bytes()
}

/// Bytes a flip may write: structure, digits, and UTF-8 fragments.
const FLIP: &[u8] = b"0123456789 \t\n\r%+-.eE\x0b\x00\xff\xc2\xa0";

fn mutate(rng: &mut Rng64, mut bytes: Vec<u8>) -> Vec<u8> {
    let lines = |b: &[u8]| -> Vec<Vec<u8>> {
        b.split_inclusive(|&c| c == b'\n')
            .map(<[u8]>::to_vec)
            .collect()
    };
    match rng.below(6) {
        0 if !bytes.is_empty() => {
            for _ in 0..rng.range(1, 4) {
                let at = rng.below(bytes.len());
                bytes[at] = FLIP[rng.below(FLIP.len())];
            }
            bytes
        }
        1 => {
            bytes.truncate(rng.below(bytes.len() + 1));
            bytes
        }
        2 => {
            let mut ls = lines(&bytes);
            if ls.len() > 1 {
                let at = rng.range(1, ls.len());
                let copy = ls[at].clone();
                ls.insert(at, copy);
            }
            ls.concat()
        }
        3 => {
            let mut ls = lines(&bytes);
            if ls.len() > 3 {
                let tail = &mut ls[2..];
                rng.shuffle(tail);
            }
            ls.concat()
        }
        4 => {
            // A size line that lies about the entry count.
            let text = String::from_utf8_lossy(&bytes).into_owned();
            let mut ls: Vec<String> = text.split_inclusive('\n').map(String::from).collect();
            if let Some(size) = ls
                .iter_mut()
                .skip(1)
                .find(|l| !l.trim().starts_with('%') && !l.trim().is_empty())
            {
                let mut f: Vec<String> = size.split_whitespace().map(String::from).collect();
                if f.len() == 3 {
                    let lie = [
                        "0",
                        "1",
                        "4000000000000000000",
                        "400000000",
                        "18446744073709551616",
                    ];
                    f[2] = lie[rng.below(lie.len())].to_string();
                    *size = f.join(" ") + "\n";
                }
            }
            ls.concat().into_bytes()
        }
        _ => bytes,
    }
}

#[test]
fn matrix_market_reader_agrees_with_the_line_reader_under_fuzzing() {
    let mut rng = Rng64::new(0x4d4d_5f66_757a_7a21);
    let (mut ok, mut err) = (0, 0);
    for _ in 0..6000 {
        let base = random_mm(&mut rng);
        let input = if rng.below(5) == 0 {
            base
        } else {
            mutate(&mut rng, base)
        };
        match check_mm(&input) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    // Both outcomes are exercised, so agreement means something.
    assert!(ok > 1000 && err > 1000, "ok {ok}, err {err}");
}

#[test]
fn matrix_market_size_lines_that_lie_are_typed_errors() {
    for sym in ["general", "symmetric"] {
        for nnz in ["4000000000000000000", "400000000"] {
            let text = format!("%%MatrixMarket matrix coordinate real {sym}\n2 2 {nnz}\n1 1 1.0\n");
            match check_mm(text.as_bytes()) {
                Err(MmError::Truncated { declared, found: 1 }) => {
                    assert_eq!(declared.to_string(), nnz)
                }
                other => panic!("{sym} {nnz}: expected Truncated, got {other:?}"),
            }
        }
    }
    let overflow = "%%MatrixMarket matrix coordinate real general\n2 2 18446744073709551616\n";
    assert!(matches!(
        check_mm(overflow.as_bytes()),
        Err(MmError::Parse(_))
    ));
}

#[test]
fn matrix_market_invalid_utf8_is_an_io_error_where_it_is_read() {
    let head = "%%MatrixMarket matrix coordinate real general\n2 2 1\n";
    let bad_entry = [head.as_bytes(), b"1 1 1.\xff\n"].concat();
    assert!(matches!(check_mm(&bad_entry), Err(MmError::Io(_))));
    let bad_trailer = [head.as_bytes(), b"1 1 1.0\n% \xc3\n"].concat();
    assert!(matches!(check_mm(&bad_trailer), Err(MmError::Io(_))));
    // An error earlier in the file wins: the bad line is never read.
    let after_error = [head.as_bytes(), b"3 3 1.0\n\xff\n"].concat();
    assert!(matches!(check_mm(&after_error), Err(MmError::Parse(_))));
}

/// Serializes a JSON value the way a client would.
fn render(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(x) => format!("{x:?}"),
        Json::Str(s) => pdslin_service::json::escape(s),
        Json::Arr(xs) => format!("[{}]", xs.iter().map(render).collect::<Vec<_>>().join(",")),
        Json::Obj(m) => format!(
            "{{{}}}",
            m.iter()
                .map(|(k, v)| format!("{}:{}", pdslin_service::json::escape(k), render(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

fn random_json(rng: &mut Rng64, depth: usize) -> Json {
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Num(match rng.below(3) {
            0 => rng.below(1 << 20) as f64,
            1 => -rng.f64() * 1e-300,
            _ => rng.f64_range(-1e6, 1e6),
        }),
        3 => Json::Str(["", "solve", "a\"b\\c\n", "ф\u{1}"][rng.below(4)].to_string()),
        4 => Json::Arr(
            (0..rng.below(5))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|i| (format!("k{i}"), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn json_values_round_trip_and_mutations_never_panic() {
    let mut rng = Rng64::new(0x6a73_6f6e_2d66_757a);
    for _ in 0..4000 {
        let v = random_json(&mut rng, 4);
        let text = render(&v);
        assert_eq!(Json::parse(&text).as_ref(), Ok(&v), "{text}");
        let mut bytes = text.into_bytes();
        match rng.below(3) {
            0 => bytes.truncate(rng.below(bytes.len() + 1)),
            _ if !bytes.is_empty() => {
                let at = rng.below(bytes.len());
                bytes[at] = b"[]{}\",:0-.e9 tnx\\"[rng.below(17)];
            }
            _ => {}
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
        let _ = parse_request(&text);
    }
}

#[test]
fn json_numbers_are_what_f64_from_str_makes_of_the_token() {
    let mut rng = Rng64::new(7);
    let alphabet = b"0123456789.eE+-";
    for _ in 0..20_000 {
        let len = rng.range(1, 12);
        let mut tok: String = (0..len)
            .map(|_| alphabet[rng.below(alphabet.len())] as char)
            .collect();
        if !tok.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
            tok.insert(0, '1');
        }
        let expected = tok.parse::<f64>().ok().map(f64::to_bits);
        let got = match Json::parse(&tok) {
            Ok(Json::Num(x)) => Some(x.to_bits()),
            Ok(other) => panic!("{tok:?} parsed as {other:?}"),
            Err(_) => None,
        };
        assert_eq!(got, expected, "{tok:?}");
    }
}

#[test]
fn json_nesting_is_bounded_and_huge_arrays_parse() {
    let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
    assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
    let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
    assert!(err.contains("nesting"), "{err}");
    let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
    assert!(Json::parse(&objects).is_err());
    // The crash input: a megabyte line of `[` used to overflow the stack.
    let flood = "[".repeat(1 << 20);
    assert!(Json::parse(&flood).unwrap_err().contains("nesting"));
    assert!(parse_request(&flood).is_err());

    let huge = format!("[{}]", vec!["-1.25e-3"; 200_000].join(","));
    let parsed = Json::parse(&huge).expect("huge array");
    assert_eq!(parsed.as_array().map(<[Json]>::len), Some(200_000));
    let rhs = format!(
        "{{\"op\":\"solve\",\"generate\":\"g3_circuit\",\"rhs\":[{}]}}",
        vec!["0.5"; 100_000].join(",")
    );
    assert!(parse_request(&rhs).is_ok());
}
