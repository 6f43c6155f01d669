//! Order statistics and the JSON writer.

use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of the `k` largest values of an ascending slice: the stall a
/// user sees when `k` background pauses landed on `k` operations, which
/// no percentile of the whole distribution shows. `None` when `k` is 0 or
/// there are fewer than `k` values.
pub fn top_k_median(sorted: &[u32], k: usize) -> Option<u32> {
    if k == 0 {
        return None;
    }
    percentile(sorted.get(sorted.len().checked_sub(k)?..)?, 50.0)
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of unsorted values (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so a
/// spread computed here is the spread the acceptance driver computes.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    assert!(ld >= 2, "quartiles need two values");
    let cut = |i: i64| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = i * (ld + 1) - j * 4;
        (v[j as usize - 1] * (4 - delta) as f64 + v[j as usize] * delta as f64) / 4.0
    };
    (cut(1), cut(3))
}

/// How far apart repeated measurements lie, as a share of their median:
/// the distance between the quartiles, or — with fewer than four values,
/// where quartiles are extrapolated — between the extremes.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (low, high) = if values.len() >= 4 {
        quartiles(values)
    } else {
        values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(*v), hi.max(*v))
            })
    };
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (high - low) / m.abs()
    }
}

/// A JSON value; objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact, single-line encoding.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write!(out, "{n}").expect("write to String"),
            // JSON has no NaN or infinity.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => write!(out, "{x}").expect("write to String"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7u32], 99.9), Some(7));
        assert_eq!(percentile::<u32>(&[], 50.0), None);
    }

    #[test]
    fn top_k_median_picks_the_stalls() {
        // 1000 fast commits and five pauses: the median and p99 see none
        // of them, the top-5 median sees the middle one.
        let mut v: Vec<u32> = vec![4; 1000];
        v.extend([50_000, 69_000, 70_000, 71_000, 90_000]);
        assert_eq!(percentile(&v, 99.0), Some(4));
        assert_eq!(top_k_median(&v, 5), Some(70_000));
        assert_eq!(top_k_median(&v, 0), None);
        assert_eq!(top_k_median(&[1, 2], 3), None);
        assert_eq!(top_k_median(&[1, 2, 3], 3), Some(2));
        assert_eq!(top_k_median(&[1, 2, 3], 1), Some(3));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([10.0, 12.0], n=4) == [9.5, 11.0, 12.5]
        assert_eq!(quartiles(&[12.0, 10.0]), (9.5, 12.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
        assert!((relative_spread(&[16.0, 1.0, 4.0, 2.0, 8.0]) - 10.5 / 4.0).abs() < 1e-12);
        // Two sets: how far apart they are, not an extrapolated quartile.
        assert!((relative_spread(&[90.0, 110.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn json_writer_escapes_and_orders() {
        let j = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(12)),
            ("note", Json::str("a \"quoted\"\\ line\n\u{1}")),
            ("xs", Json::Arr(vec![Json::Num(1.5), Json::Num(f64::NAN)])),
            ("empty", Json::Obj(vec![])),
        ]);
        assert_eq!(
            j.encode(),
            r#"{"correct": true, "attempted": 12, "note": "a \"quoted\"\\ line\n\u0001", "xs": [1.5, null], "empty": {}}"#
        );
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(Json::Num(1.2034).encode(), "1.2034");
        assert_eq!(Json::Num(0.000_123_456_789).encode(), "0.000123456789");
        assert_eq!(Json::Num(154_321.987_654_321).encode(), "154321.987654321");
    }
}
