//! The fixed-size on-disk page: the unit of persistent column storage.
//!
//! dbTouch's catalog was memory-only; the persistent backend stores column
//! data in fixed-size pages so that faulting a touched region reads a bounded,
//! checksummed unit and the tuple-to-byte mapping stays pure arithmetic, just
//! like the in-memory dense arrays (Section 2.6). Every page starts with a
//! [`PageHeader`]:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "DBTP"
//!      4     8  page id (little endian) — the page's index in the page file
//!     12     4  payload length in bytes (little endian)
//!     16     8  XXH64 checksum of the payload (little endian)
//! ```
//!
//! The payload is raw fixed-width row data: rows of one column stored
//! back-to-back in the column's [`DataType`] encoding (the same little-endian
//! encoding `Value::encode` uses for row-major matrixes). Whole rows never
//! straddle pages — a page holds `floor(payload_capacity / width)` rows — so
//! a row read touches exactly one page.
//!
//! Checksums are verified when a page faults into the buffer pool, turning
//! torn writes and bit rot into recoverable [`DbTouchError::Corrupt`] errors
//! instead of silent wrong answers.

use dbtouch_types::{DbTouchError, Result};

/// `"DBTP"`: dbTouch page.
pub const PAGE_MAGIC: [u8; 4] = *b"DBTP";

/// Size of the encoded [`PageHeader`] in bytes.
pub const PAGE_HEADER_BYTES: usize = 24;

/// Default page size in bytes. 8 KiB balances fault granularity against
/// per-page header overhead; the page size is a property of the store and is
/// recorded in its manifest, so stores written with other sizes open fine.
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// Smallest page size the store accepts: the header plus one widest row
/// (8-byte numerics; wider fixed strings need proportionally larger pages).
pub const MIN_PAGE_SIZE: usize = PAGE_HEADER_BYTES + 8;

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("slice of 8 bytes"))
}

fn xxh64_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

fn xxh64_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh64_round(0, lane))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

/// XXH64 with seed 0: dependency-free, and plenty for torn-write detection
/// (this is an integrity check against accidents, not an authenticity check
/// against adversaries). Every fault pays this on its whole page, so the
/// four independent lanes over 32-byte stripes matter: they keep the
/// multiplier busy instead of waiting on one dependent multiply per byte.
pub fn checksum(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let mut tail = stripes.remainder();
    let mut hash = if bytes.len() >= 32 {
        let mut lanes = [
            PRIME64_1.wrapping_add(PRIME64_2),
            PRIME64_2,
            0,
            PRIME64_1.wrapping_neg(),
        ];
        for stripe in stripes {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = xxh64_round(*lane, read_u64(&stripe[i * 8..]));
            }
        }
        let [v1, v2, v3, v4] = lanes;
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        for lane in lanes {
            h = xxh64_merge(h, lane);
        }
        h
    } else {
        PRIME64_5
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    while tail.len() >= 8 {
        hash ^= xxh64_round(0, read_u64(tail));
        hash = hash
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().expect("slice of 4 bytes")) as u64;
        hash ^= word.wrapping_mul(PRIME64_1);
        hash = hash
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        tail = &tail[4..];
    }
    for &byte in tail {
        hash ^= (byte as u64).wrapping_mul(PRIME64_5);
        hash = hash.rotate_left(11).wrapping_mul(PRIME64_1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME64_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME64_3);
    hash ^ (hash >> 32)
}

/// The header at the start of every on-disk page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageHeader {
    /// The page's index within the page file (offset = id * page size).
    pub page_id: u64,
    /// Number of payload bytes actually used in this page.
    pub payload_len: u32,
    /// XXH64 checksum of the used payload bytes.
    pub checksum: u64,
}

impl PageHeader {
    /// Encode into the fixed `PAGE_HEADER_BYTES` prefix layout.
    pub fn encode(&self) -> [u8; PAGE_HEADER_BYTES] {
        let mut out = [0u8; PAGE_HEADER_BYTES];
        out[0..4].copy_from_slice(&PAGE_MAGIC);
        out[4..12].copy_from_slice(&self.page_id.to_le_bytes());
        out[12..16].copy_from_slice(&self.payload_len.to_le_bytes());
        out[16..24].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Decode and validate a header prefix (magic and length sanity only; the
    /// payload checksum is verified by [`verify_page`]).
    pub fn decode(bytes: &[u8], page_size: usize) -> Result<PageHeader> {
        if bytes.len() < PAGE_HEADER_BYTES {
            return Err(DbTouchError::Corrupt(format!(
                "page header truncated: {} bytes",
                bytes.len()
            )));
        }
        if bytes[0..4] != PAGE_MAGIC {
            return Err(DbTouchError::Corrupt("bad page magic".into()));
        }
        let page_id = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
        let payload_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        if payload_len as usize > page_size - PAGE_HEADER_BYTES {
            return Err(DbTouchError::Corrupt(format!(
                "page {page_id} claims {payload_len} payload bytes in a {page_size}-byte page"
            )));
        }
        let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        Ok(PageHeader {
            page_id,
            payload_len,
            checksum,
        })
    }
}

/// Payload bytes available in a page of `page_size` bytes.
pub fn payload_capacity(page_size: usize) -> usize {
    page_size.saturating_sub(PAGE_HEADER_BYTES)
}

/// Rows of `width`-byte values that fit in one page (at least 1 is required;
/// a width larger than the payload capacity is a configuration error caught
/// when the column is appended).
pub fn rows_per_page(page_size: usize, width: usize) -> u64 {
    if width == 0 {
        return 0;
    }
    (payload_capacity(page_size) / width) as u64
}

/// Build the full on-disk image of one page: header + payload, zero-padded to
/// `page_size`.
pub fn encode_page(page_id: u64, payload: &[u8], page_size: usize) -> Result<Vec<u8>> {
    if payload.len() > payload_capacity(page_size) {
        return Err(DbTouchError::Internal(format!(
            "page payload of {} bytes exceeds capacity {}",
            payload.len(),
            payload_capacity(page_size)
        )));
    }
    let header = PageHeader {
        page_id,
        payload_len: payload.len() as u32,
        checksum: checksum(payload),
    };
    let mut image = vec![0u8; page_size];
    image[..PAGE_HEADER_BYTES].copy_from_slice(&header.encode());
    image[PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + payload.len()].copy_from_slice(payload);
    Ok(image)
}

/// Verify a full page image read from disk: magic, expected id, and payload
/// checksum. Returns the payload slice on success.
pub fn verify_page(image: &[u8], expected_id: u64, page_size: usize) -> Result<&[u8]> {
    if image.len() != page_size {
        return Err(DbTouchError::Corrupt(format!(
            "page {expected_id} truncated: {} of {page_size} bytes",
            image.len()
        )));
    }
    let header = PageHeader::decode(image, page_size)?;
    if header.page_id != expected_id {
        return Err(DbTouchError::Corrupt(format!(
            "page id mismatch: expected {expected_id}, found {}",
            header.page_id
        )));
    }
    let payload = &image[PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + header.payload_len as usize];
    if checksum(payload) != header.checksum {
        return Err(DbTouchError::Corrupt(format!(
            "page {expected_id} payload checksum mismatch"
        )));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let h = PageHeader {
            page_id: 42,
            payload_len: 100,
            checksum: 0xdead_beef,
        };
        let enc = h.encode();
        assert_eq!(PageHeader::decode(&enc, DEFAULT_PAGE_SIZE).unwrap(), h);
    }

    #[test]
    fn decode_rejects_bad_magic_and_lengths() {
        let mut enc = PageHeader {
            page_id: 1,
            payload_len: 8,
            checksum: 0,
        }
        .encode();
        enc[0] = b'X';
        assert!(matches!(
            PageHeader::decode(&enc, DEFAULT_PAGE_SIZE),
            Err(DbTouchError::Corrupt(_))
        ));
        assert!(PageHeader::decode(&enc[..10], DEFAULT_PAGE_SIZE).is_err());
        let oversized = PageHeader {
            page_id: 1,
            payload_len: DEFAULT_PAGE_SIZE as u32,
            checksum: 0,
        }
        .encode();
        assert!(PageHeader::decode(&oversized, DEFAULT_PAGE_SIZE).is_err());
    }

    #[test]
    fn page_round_trip_and_corruption_detected() {
        let payload: Vec<u8> = (0..200u8).collect();
        let image = encode_page(7, &payload, 512).unwrap();
        assert_eq!(image.len(), 512);
        assert_eq!(verify_page(&image, 7, 512).unwrap(), &payload[..]);
        // Wrong id.
        assert!(verify_page(&image, 8, 512).is_err());
        // Flipped payload byte.
        let mut bad = image.clone();
        bad[PAGE_HEADER_BYTES + 10] ^= 0xff;
        assert!(matches!(
            verify_page(&bad, 7, 512),
            Err(DbTouchError::Corrupt(_))
        ));
        // Truncated image.
        assert!(verify_page(&image[..511], 7, 512).is_err());
    }

    #[test]
    fn geometry_helpers() {
        assert_eq!(payload_capacity(8192), 8192 - PAGE_HEADER_BYTES);
        assert_eq!(
            rows_per_page(8192, 8),
            (8192 - PAGE_HEADER_BYTES) as u64 / 8
        );
        assert_eq!(rows_per_page(8192, 0), 0);
        assert!(encode_page(0, &vec![0u8; 600], 512).is_err());
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }

    #[test]
    fn checksum_matches_xxh64_reference_vectors() {
        assert_eq!(checksum(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    /// XXH64 of the 65 little-endian prefix hashes below, from an
    /// independent implementation of the XXH64 specification that also
    /// reproduces both reference vectors.
    const FOLDED_PREFIX_HASHES: u64 = 0x8610_9A2F_9C04_4052;

    #[test]
    fn every_stripe_and_tail_length_hashes_distinctly_and_stably() {
        // Lengths 0..=64 cover the short path, one and two full stripes, and
        // every combination of the 8-, 4- and 1-byte tail steps.
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let hashes: Vec<u64> = (0..=data.len()).map(|n| checksum(&data[..n])).collect();
        let distinct: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len());
        let folded: Vec<u8> = hashes.iter().flat_map(|h| h.to_le_bytes()).collect();
        assert_eq!(checksum(&folded), FOLDED_PREFIX_HASHES);
    }

    #[test]
    fn every_single_bit_flip_in_a_full_payload_is_corrupt() {
        let size = DEFAULT_PAGE_SIZE;
        let payload: Vec<u8> = (0..payload_capacity(size))
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes()[7])
            .collect();
        assert_eq!(payload.len(), 8168);
        let image = encode_page(3, &payload, size).unwrap();
        assert!(verify_page(&image, 3, size).is_ok());
        // Every bit in release builds; every 7th (coprime to 8, so every bit
        // position within a byte is still hit) in slower debug builds.
        let step = if cfg!(debug_assertions) { 7 } else { 1 };
        let mut flipped = image.clone();
        for bit in (0..payload.len() * 8).step_by(step) {
            let at = PAGE_HEADER_BYTES + bit / 8;
            flipped[at] ^= 1 << (bit % 8);
            assert!(
                matches!(
                    verify_page(&flipped, 3, size),
                    Err(DbTouchError::Corrupt(_))
                ),
                "flip of payload bit {bit} went undetected"
            );
            flipped[at] ^= 1 << (bit % 8);
        }
    }
}
