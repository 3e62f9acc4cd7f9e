//! A tiny row codec: rows are fixed sequences of `u64` fields plus optional
//! filler bytes. Enough structure for TPC-C's numeric columns while keeping
//! the storage engine completely schema-agnostic.

use primo_common::Value;

/// Encode a row of `u64` fields, padding with `filler` extra bytes.
pub fn encode_fields(fields: &[u64], filler: usize) -> Value {
    Value::build(fields.len() * 8 + filler, |bytes| {
        let (head, tail) = bytes.split_at_mut(fields.len() * 8);
        for (chunk, f) in head.chunks_exact_mut(8).zip(fields) {
            chunk.copy_from_slice(&f.to_le_bytes());
        }
        tail.fill(0xAB);
    })
}

/// Decode the `u64` fields of a row encoded with [`encode_fields`].
pub fn decode_fields(value: &Value, n: usize) -> Vec<u64> {
    (0..n).map(|i| field(value, i)).collect()
}

/// Read one field in place (0 when the row is too short to hold it).
#[inline]
pub fn field(value: &Value, idx: usize) -> u64 {
    let start = idx * 8;
    value.as_bytes().get(start..start + 8).map_or(0, |b| {
        u64::from_le_bytes(b.try_into().expect("8-byte slice"))
    })
}

/// Return a copy of the row with one field replaced.
pub fn with_field(value: &Value, idx: usize, new: u64) -> Value {
    with_fields(value, &[(idx, new)])
}

/// Return a copy of the row with every `(idx, new)` field replaced — one
/// copy however many fields change (a row too short for a field is
/// extended with zeroes).
pub fn with_fields(value: &Value, updates: &[(usize, u64)]) -> Value {
    let old = value.as_bytes();
    let fields_end = updates.iter().map(|&(idx, _)| idx * 8 + 8).max();
    Value::build(old.len().max(fields_end.unwrap_or(0)), |bytes| {
        bytes[..old.len()].copy_from_slice(old);
        for &(idx, new) in updates {
            bytes[idx * 8..idx * 8 + 8].copy_from_slice(&new.to_le_bytes());
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_fields() {
        let v = encode_fields(&[1, 2, 3, u64::MAX], 20);
        assert_eq!(decode_fields(&v, 4), vec![1, 2, 3, u64::MAX]);
        assert_eq!(v.len(), 4 * 8 + 20);
    }

    #[test]
    fn field_access_and_update() {
        let v = encode_fields(&[10, 20, 30], 0);
        assert_eq!(field(&v, 1), 20);
        let v2 = with_field(&v, 1, 99);
        assert_eq!(field(&v2, 1), 99);
        assert_eq!(field(&v2, 0), 10);
        assert_eq!(field(&v2, 2), 30);
    }

    #[test]
    fn with_fields_equals_chained_with_field() {
        let v = encode_fields(&[10, 20, 30, 40], 5);
        let chained = with_field(&with_field(&with_field(&v, 0, 1), 2, 3), 3, 4);
        assert_eq!(with_fields(&v, &[(0, 1), (2, 3), (3, 4)]), chained);
        assert_eq!(with_fields(&v, &[]), v);
        // Extends a short row like `with_field` does.
        let short = with_fields(&Value::new(vec![]), &[(2, 5), (0, 1)]);
        assert_eq!(decode_fields(&short, 3), vec![1, 0, 5]);
    }

    #[test]
    fn decode_short_row_yields_zeroes() {
        let v = encode_fields(&[7], 0);
        assert_eq!(decode_fields(&v, 3), vec![7, 0, 0]);
    }

    #[test]
    fn with_field_extends_short_rows() {
        let v = Value::new(vec![]);
        let v2 = with_field(&v, 2, 5);
        assert_eq!(field(&v2, 2), 5);
    }
}
