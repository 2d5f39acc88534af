//! `fsx::crc32` (slicing-by-8) against the bytewise CRC-32 it replaced:
//! that body is kept below verbatim, and both must agree at every length
//! from 0 to 1024 bytes, at every start offset 0..8 (so every alignment of
//! the eight-byte words and every remainder length), and over one 1 MB
//! buffer. The framed CRC a live segment's manifest entry records,
//! derived by continuing the payload's CRC over the trailer, must equal a
//! second pass over the framed bytes — the constant `0xAC5DB09B` for every
//! well-formed frame.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage_core::fsx::{crc32, crc32_update, frame, seal, unframe};

/// `fsx::crc32` before slicing-by-8: body unchanged.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = TABLE[((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The CRC-32 of any well-formed frame (payload ‖ CRC-LE ‖ `SAGECRC1`).
const FRAMED_RESIDUE: u32 = 0xAC5D_B09B;

fn bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn slicing_by_8_equals_the_bytewise_crc_at_every_length_and_offset() {
    let mut rng = StdRng::seed_from_u64(0xC2C3);
    let buf = bytes(&mut rng, 1024 + 8);
    for start in 0..8 {
        for len in 0..=1024 {
            let data = &buf[start..start + len];
            assert_eq!(crc32(data), crc32_bytewise(data), "start {start}, len {len}");
        }
    }
    let big = bytes(&mut rng, 1 << 20);
    assert_eq!(crc32(&big), crc32_bytewise(&big), "1 MB");
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn a_crc_continues_over_any_split() {
    let mut rng = StdRng::seed_from_u64(0xC047);
    let buf = bytes(&mut rng, 300);
    for cut in 0..=buf.len() {
        let (a, b) = buf.split_at(cut);
        assert_eq!(crc32_update(crc32(a), b), crc32_bytewise(&buf), "cut at {cut}");
    }
    assert_eq!(crc32_update(0, &buf), crc32(&buf));
}

#[test]
fn the_derived_entry_crc_is_a_second_pass_over_the_frame() {
    let mut rng = StdRng::seed_from_u64(0x5EA1);
    let mut lens: Vec<usize> = (0..64).collect();
    lens.extend((0..40).map(|_| rng.random_range(64..300_000)));
    for len in lens {
        let payload = bytes(&mut rng, len);
        let mut framed = payload.clone();
        let entry = seal(&mut framed);
        assert_eq!(framed, frame(&payload), "len {len}");
        assert_eq!(entry, crc32_bytewise(&framed), "len {len}");
        assert_eq!(entry, FRAMED_RESIDUE, "len {len}");
        assert_eq!(unframe(framed, "test frame").expect("a well-formed frame"), payload);
    }
}
