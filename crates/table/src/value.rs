//! Cell values.
//!
//! Data-lake tables mix integers, floats, booleans and strings, and are full
//! of missing values. Gen-T additionally needs *labeled nulls*: the
//! `LabelSourceNulls` preprocessing step of the integration algorithm
//! (Algorithm 2, line 5 of the paper) replaces nulls that are shared with the
//! Source Table by unique non-null labels so that subsumption and
//! complementation cannot "over-combine" them away, and full disjunction uses
//! the same device. A labeled null is equal only to itself and counts as
//! non-null for every operator; `RemoveLabeledNulls` turns it back into a
//! plain null at the end.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single cell value in a table.
#[derive(Debug, Clone)]
pub enum Value {
    /// Missing value (`⊥` in the paper).
    Null,
    /// A labeled null: non-null for operator purposes, equal only to a
    /// labeled null with the same id. Produced by `LabelSourceNulls` and by
    /// full disjunction; removed by `RemoveLabeledNulls`.
    LabeledNull(u64),
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float, compared by total order over its bits (NaN == NaN) so
    /// that values can live in hash maps.
    Float(f64),
    /// Interned string; `Arc<str>` keeps clones cheap across the many copies
    /// integration operators make.
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True for plain nulls only. Labeled nulls are *not* null: they must
    /// survive subsumption/complementation as if they were ordinary values.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True for plain or labeled nulls. Used when reverting labels and when
    /// deciding whether a reclaimed cell counts as "reclaimed".
    pub fn is_null_like(&self) -> bool {
        matches!(self, Value::Null | Value::LabeledNull(_))
    }

    /// The canonical bit pattern used for float hashing/equality: a total
    /// order over f64 where `-0.0 == 0.0` and all NaNs collapse together.
    fn float_bits(f: f64) -> u64 {
        if f.is_nan() {
            f64::NAN.to_bits()
        } else if f == 0.0 {
            0.0f64.to_bits()
        } else {
            f.to_bits()
        }
    }

    /// The integer a float equals exactly, if any: integral and inside
    /// `[-2^63, 2^63)`, where the cast neither rounds nor saturates. The one
    /// definition behind `Int`/`Float` equality, float hashing and the
    /// canonical byte encoding, so the three cannot disagree.
    pub(crate) fn float_as_int(f: f64) -> Option<i64> {
        const TWO_63: f64 = 9_223_372_036_854_775_808.0;
        (f.fract() == 0.0 && (-TWO_63..TWO_63).contains(&f)).then_some(f as i64)
    }

    /// A small discriminant used for cross-type ordering.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::LabeledNull(_) => 1,
            Value::Bool(_) => 2,
            Value::Int(_) => 3,
            Value::Float(_) => 4,
            Value::Str(_) => 5,
        }
    }

    /// Parse a textual cell: empty (or `\N`) → null, then bool, int, float,
    /// falling back to string. This mirrors how the Python reference loads
    /// CSVs with pandas type inference.
    pub fn parse(text: &str) -> Value {
        let t = text.trim();
        if t.is_empty() || t == "\\N" || t.eq_ignore_ascii_case("null") || t == "—" {
            return Value::Null;
        }
        if t.eq_ignore_ascii_case("true") {
            return Value::Bool(true);
        }
        if t.eq_ignore_ascii_case("false") {
            return Value::Bool(false);
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            return Value::Float(f);
        }
        Value::str(t)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::LabeledNull(a), Value::LabeledNull(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => Value::float_bits(*a) == Value::float_bits(*b),
            // Ints and floats representing the same number compare equal so
            // that CSV round-trips (e.g. "3" vs "3.0") do not break value
            // overlap; data lakes are that messy. The float must convert to
            // the int *exactly*: comparing through `a as f64` rounds past
            // 2^53 and would equate values that `Hash` tells apart.
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                Value::float_as_int(*b) == Some(*a)
            }
            // Clones made by the integration operators share the original
            // `Arc`, so most equal strings are pointer-equal — check that
            // before falling back to a content compare.
            (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::LabeledNull(id) => {
                1u8.hash(state);
                id.hash(state);
            }
            Value::Bool(b) => {
                2u8.hash(state);
                b.hash(state);
            }
            // Ints and integral floats must hash identically because they
            // compare equal (see PartialEq).
            Value::Int(i) => {
                3u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => match Value::float_as_int(*f) {
                Some(i) => {
                    3u8.hash(state);
                    i.hash(state);
                }
                None => {
                    4u8.hash(state);
                    Value::float_bits(*f).hash(state);
                }
            },
            Value::Str(s) => {
                5u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::LabeledNull(a), Value::LabeledNull(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::LabeledNull(id) => write!(f, "⊥{id}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_is_null_like() {
        assert!(Value::Null.is_null());
        assert!(Value::Null.is_null_like());
        assert!(!Value::LabeledNull(3).is_null());
        assert!(Value::LabeledNull(3).is_null_like());
        assert!(!Value::Int(0).is_null_like());
    }

    #[test]
    fn labeled_nulls_equal_only_same_id() {
        assert_eq!(Value::LabeledNull(1), Value::LabeledNull(1));
        assert_ne!(Value::LabeledNull(1), Value::LabeledNull(2));
        assert_ne!(Value::LabeledNull(1), Value::Null);
    }

    #[test]
    fn int_float_cross_equality_and_hash() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    /// Past 2^53 an `i64 as f64` cast rounds: equality must not go through
    /// it, or `==` says yes where `Hash` (and so every `FxHashSet<Value>`)
    /// says no.
    #[test]
    fn int_float_equality_is_exact_past_2_pow_53() {
        let int = Value::Int(9_007_199_254_740_993); // 2^53 + 1, not a float
        let float = Value::Float(9_007_199_254_740_992.0); // 2^53
        assert_ne!(int, float);
        assert_ne!(float, int);
        assert_eq!(Value::Int(9_007_199_254_740_992), float);
        assert_eq!(float, Value::Int(9_007_199_254_740_992));
        assert_eq!(hash_of(&Value::Int(9_007_199_254_740_992)), hash_of(&float));

        let set: std::collections::HashSet<Value> = [float.clone()].into_iter().collect();
        assert!(!set.contains(&int), "lookup must agree with ==");
        assert!(set.contains(&Value::Int(9_007_199_254_740_992)));

        // 2^63 is integral but no i64: the saturating cast must not make it
        // equal to i64::MAX.
        let two_63 = Value::Float(9_223_372_036_854_775_808.0);
        assert_ne!(Value::Int(i64::MAX), two_63);
        assert_ne!(two_63, Value::Int(i64::MAX));
        assert_eq!(Value::Int(i64::MIN), Value::Float(-9_223_372_036_854_775_808.0));
        assert_eq!(
            hash_of(&Value::Int(i64::MIN)),
            hash_of(&Value::Float(-9_223_372_036_854_775_808.0))
        );
    }

    #[test]
    fn nan_and_zero_normalisation() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(-f64::NAN));
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
    }

    #[test]
    fn parse_inference() {
        assert_eq!(Value::parse(""), Value::Null);
        assert_eq!(Value::parse("—"), Value::Null);
        assert_eq!(Value::parse("NULL"), Value::Null);
        assert_eq!(Value::parse("42"), Value::Int(42));
        assert_eq!(Value::parse("-17"), Value::Int(-17));
        assert_eq!(Value::parse("3.25"), Value::Float(3.25));
        assert_eq!(Value::parse("true"), Value::Bool(true));
        assert_eq!(Value::parse("hello world"), Value::str("hello world"));
    }

    #[test]
    fn ordering_is_total_and_type_ranked() {
        let mut vals = [
            Value::str("b"),
            Value::Int(2),
            Value::Null,
            Value::Float(1.5),
            Value::Bool(true),
            Value::LabeledNull(7),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::LabeledNull(7));
        assert_eq!(vals[2], Value::Bool(true));
        // numeric values interleave by magnitude
        assert_eq!(vals[3], Value::Float(1.5));
        assert_eq!(vals[4], Value::Int(2));
        assert_eq!(vals[5], Value::str("b"));
    }

    #[test]
    fn display_roundtrip_for_simple_values() {
        for v in [Value::Int(12), Value::Float(2.5), Value::str("abc")] {
            assert_eq!(Value::parse(&v.to_string()), v);
        }
        assert_eq!(Value::parse(&Value::Null.to_string()), Value::Null);
    }
}
