//! Property-based round-trip coverage of the frame serializer: random
//! matrices and parameter sets must survive save→load bit-exactly, and
//! corrupted or truncated bytes must yield typed errors — never panics.
#![allow(clippy::expect_used)]

use dssddi_tensor::serde::{crc32, open_frame, seal_frame, ByteReader, ByteWriter, SerdeError};
use dssddi_tensor::{Matrix, ParamSet};
use proptest::prelude::*;

/// Magic bytes of the frames these tests seal.
const TEST_MAGIC: [u8; 4] = *b"TEST";

fn arb_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..8).prop_flat_map(|rows| {
        (1usize..8).prop_flat_map(move |cols| {
            proptest::collection::vec(-1e6f32..1e6, rows * cols)
                .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("sized to shape"))
        })
    })
}

fn arb_param_set() -> impl Strategy<Value = ParamSet> {
    proptest::collection::vec(arb_matrix(), 1..5).prop_map(|matrices| {
        let mut params = ParamSet::new();
        for (i, m) in matrices.into_iter().enumerate() {
            params.add(format!("p{i}"), m);
        }
        params
    })
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Matrices survive the writer→container→reader pipeline bit-exactly.
    #[test]
    fn matrix_round_trips_bit_exactly(m in arb_matrix()) {
        let mut w = ByteWriter::new();
        w.put_matrix(&m);
        let sealed = seal_frame(TEST_MAGIC, 1, w.as_bytes());
        let (_, payload) = open_frame(TEST_MAGIC, &[1], &sealed).expect("fresh container is valid");
        let mut r = ByteReader::new(payload);
        let back = r.take_matrix("matrix").expect("fresh payload decodes");
        prop_assert!(r.is_exhausted());
        prop_assert_eq!(back.shape(), m.shape());
        prop_assert_eq!(bits(&back), bits(&m));
    }

    /// Parameter sets keep names, order and exact values.
    #[test]
    fn param_set_round_trips(params in arb_param_set()) {
        let mut w = ByteWriter::new();
        w.put_param_set(&params);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = r.take_param_set("params").expect("decodes");
        prop_assert_eq!(back.len(), params.len());
        for (id, original) in params.iter() {
            prop_assert_eq!(back.name(id), params.name(id));
            prop_assert_eq!(bits(back.get(id)), bits(original));
        }
    }

    /// Truncating a sealed container anywhere errors and never panics.
    #[test]
    fn truncation_yields_errors_not_panics(m in arb_matrix(), frac in 0.0f64..1.0) {
        let mut w = ByteWriter::new();
        w.put_matrix(&m);
        let sealed = seal_frame(TEST_MAGIC, 1, w.as_bytes());
        let cut = ((sealed.len() - 1) as f64 * frac) as usize;
        prop_assert!(open_frame(TEST_MAGIC, &[1], &sealed[..cut]).is_err());
    }

    /// Flipping any single payload byte is caught (header bytes produce
    /// magic/version/length errors, payload bytes checksum errors).
    #[test]
    fn corruption_is_detected(m in arb_matrix(), pos in any::<prop::sample::Index>(), bit in 0u32..8) {
        let mut w = ByteWriter::new();
        w.put_matrix(&m);
        let mut sealed = seal_frame(TEST_MAGIC, 1, w.as_bytes());
        let pos = pos.index(sealed.len());
        sealed[pos] ^= 1 << bit;
        let outcome = open_frame(TEST_MAGIC, &[1], &sealed);
        match outcome {
            Err(_) => {}
            // A flip inside the 8-byte length field can produce a *larger*
            // declared length, which reads as truncation — still an error.
            Ok(_) => prop_assert!(false, "corruption at byte {pos} went undetected"),
        }
    }

    /// The checksum itself is deterministic and sensitive to input changes,
    /// whether the changed byte lands in a whole 16-byte block or the tail.
    #[test]
    fn crc32_detects_single_byte_changes(data in proptest::collection::vec(0u8..=255, 1..2048),
                                         pos in any::<prop::sample::Index>()) {
        let original = crc32(&data);
        prop_assert_eq!(original, crc32(&data));
        let mut changed = data.clone();
        let pos = pos.index(changed.len());
        changed[pos] = changed[pos].wrapping_add(1);
        prop_assert!(crc32(&changed) != original);
    }
}

#[test]
fn non_finite_values_round_trip_bit_exactly() {
    let m = Matrix::from_vec(
        2,
        3,
        vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::EPSILON,
            1e-45,
        ],
    )
    .expect("shape matches");
    let mut w = ByteWriter::new();
    w.put_matrix(&m);
    let bytes = w.into_bytes();
    let mut r = ByteReader::new(&bytes);
    let back = r.take_matrix("specials").expect("decodes");
    assert_eq!(bits(&back), bits(&m));
}

#[test]
fn version_and_magic_mismatches_are_typed() {
    let sealed = seal_frame(TEST_MAGIC, 1, b"payload");
    let mut wrong_version = sealed.clone();
    wrong_version[4] = 42;
    assert!(matches!(
        open_frame(TEST_MAGIC, &[1], &wrong_version),
        Err(SerdeError::UnsupportedVersion { found: 42, .. })
    ));
    let mut wrong_magic = sealed;
    wrong_magic[0] = b'X';
    assert!(matches!(
        open_frame(TEST_MAGIC, &[1], &wrong_magic),
        Err(SerdeError::BadMagic {
            expected: TEST_MAGIC,
            found: [b'X', b'E', b'S', b'T'],
        })
    ));
}
