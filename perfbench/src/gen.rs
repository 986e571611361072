//! Seeded inputs: every payload byte and every due time is a pure function
//! of (seed, phase, iteration), so a check can regenerate what should have
//! arrived without trusting anything the program produced.

/// splitmix64 finalizer: a bijective 64-bit mix.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stream key of (seed, phase, iteration).
#[inline]
pub fn key(seed: u64, phase: u64, iter: u64) -> u64 {
    mix(mix(seed ^ (phase << 56)) ^ iter)
}

/// Word `i` of the payload keyed `k`. The low half of word 0 carries
/// `seq`, the message's position in send order, so a receiver can check
/// MPI's non-overtaking rule; its high half still comes from the key, so
/// an 8-byte payload depends on the seed too.
#[inline]
fn word(k: u64, i: usize, seq: u32) -> u64 {
    let w = mix(k ^ i as u64);
    if i == 0 {
        (w & !0xFFFF_FFFF) | seq as u64
    } else {
        w
    }
}

/// Fill `buf` with the payload of (seed, phase, iteration).
pub fn fill(buf: &mut [u8], seed: u64, phase: u64, iter: u64, seq: u32) {
    let k = key(seed, phase, iter);
    for (i, chunk) in buf.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&word(k, i, seq).to_le_bytes()[..chunk.len()]);
    }
}

/// The payload of (seed, phase, iteration) as a fresh buffer.
pub fn payload(len: usize, seed: u64, phase: u64, iter: u64, seq: u32) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    fill(&mut buf, seed, phase, iter, seq);
    buf
}

/// True when `got` is exactly the payload of (seed, phase, iteration).
pub fn check(got: &[u8], len: usize, seed: u64, phase: u64, iter: u64, seq: u32) -> bool {
    if got.len() != len {
        return false;
    }
    let k = key(seed, phase, iter);
    got.chunks(8)
        .enumerate()
        .all(|(i, chunk)| chunk == &word(k, i, seq).to_le_bytes()[..chunk.len()])
}

/// The sequence number a payload of at least four bytes carries.
pub fn seq_of(got: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(got.get(..4)?.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrips_and_depends_on_every_input() {
        let p = payload(100, 7, 1, 3, 42);
        assert!(check(&p, 100, 7, 1, 3, 42));
        assert_eq!(seq_of(&p), Some(42));
        assert!(!check(&p, 100, 8, 1, 3, 42));
        assert!(!check(&p, 100, 7, 2, 3, 42));
        assert!(!check(&p, 100, 7, 1, 4, 42));
        assert!(!check(&p, 99, 7, 1, 3, 42));
    }
}
