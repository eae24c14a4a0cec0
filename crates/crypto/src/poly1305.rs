//! Poly1305 (RFC 8439 §2.5), the one-time authenticator of the
//! [`aead`](crate::aead) envelope.
//!
//! The accumulator and `r` are held in three limbs of 44, 44 and 42
//! bits, so a block costs nine 64×64-bit products summed in `u128`s and
//! one carry chain. Reduction uses 2^130 ≡ 5 (mod p): a product that
//! reaches 2^132 folds back multiplied by 20. The final reduction
//! selects between h and h − p with masks, not a branch, so the time a
//! tag takes does not depend on the key or the message.

/// The low 44 bits.
const MASK44: u64 = (1 << 44) - 1;
/// The low 42 bits.
const MASK42: u64 = (1 << 42) - 1;
/// The bit a full 16-byte block appends above its 128 message bits
/// (2^128), as it lands in the top limb.
const FULL_BLOCK: u64 = 1 << 40;
/// RFC 8439's clamp of `r`: the top four bits of its bytes 3, 7, 11 and
/// 15 and the bottom two bits of bytes 4, 8 and 12 are cleared.
const CLAMP: u128 = 0x0fff_fffc_0fff_fffc_0fff_fffc_0fff_ffff;

/// A Poly1305 computation under one one-time key.
pub(crate) struct Poly1305 {
    /// The clamped `r`, in limbs.
    r: [u64; 3],
    /// The accumulator, in limbs, partly reduced between blocks.
    h: [u64; 3],
    /// `s`, added at the end.
    s: u128,
}

/// Splits a value below 2^130 into 44-, 44- and 42-bit limbs.
fn limbs(value: u128) -> [u64; 3] {
    [
        value as u64 & MASK44,
        (value >> 44) as u64 & MASK44,
        (value >> 88) as u64 & MASK42,
    ]
}

fn mul(a: u64, b: u64) -> u128 {
    u128::from(a) * u128::from(b)
}

impl Poly1305 {
    /// Starts a tag under the 32-byte one-time key `r ‖ s`.
    pub(crate) fn new(key: &[u8; 32]) -> Self {
        let mut halves = [0u128; 2];
        for (half, bytes) in halves.iter_mut().zip(key.as_chunks::<16>().0) {
            *half = u128::from_le_bytes(*bytes);
        }
        let [r, s] = halves;
        Poly1305 {
            r: limbs(r & CLAMP),
            h: [0; 3],
            s,
        }
    }

    /// Absorbs `data` followed by zeros up to a multiple of 16 bytes
    /// (RFC 8439 §2.8's `pad16`): every block it absorbs is a full one.
    pub(crate) fn update_padded(&mut self, data: &[u8]) {
        let (blocks, rest) = data.as_chunks::<16>();
        self.blocks(blocks, FULL_BLOCK);
        if !rest.is_empty() {
            let mut last = [0u8; 16];
            for (byte, &from) in last.iter_mut().zip(rest) {
                *byte = from;
            }
            self.blocks(&[last], FULL_BLOCK);
        }
    }

    /// h = (h + block + `high` · 2^88) · r mod p, partly reduced, for
    /// each block in turn. `high` is [`FULL_BLOCK`] for a full block and
    /// 0 for a final partial one, which carries its own 0x01 byte.
    fn blocks(&mut self, blocks: &[[u8; 16]], high: u64) {
        let [r0, r1, r2] = self.r;
        // The clamp keeps r1 and r2 below 2^44, so these fit 49 bits.
        let (s1, s2) = (r1 * 20, r2 * 20);
        let [mut h0, mut h1, mut h2] = self.h;
        for block in blocks {
            let [m0, m1, m2] = limbs(u128::from_le_bytes(*block));
            h0 += m0;
            h1 += m1;
            h2 += m2 | high;

            let d0 = mul(h0, r0) + mul(h1, s2) + mul(h2, s1);
            let mut d1 = mul(h0, r1) + mul(h1, r0) + mul(h2, s2);
            let mut d2 = mul(h0, r2) + mul(h1, r1) + mul(h2, r0);

            h0 = d0 as u64 & MASK44;
            d1 += d0 >> 44;
            h1 = d1 as u64 & MASK44;
            d2 += d1 >> 44;
            h2 = d2 as u64 & MASK42;
            // What passed 2^130 comes back times 5.
            h0 += (d2 >> 42) as u64 * 5;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }
        self.h = [h0, h1, h2];
    }

    /// The 16-byte tag: h fully reduced mod p, plus `s`, mod 2^128.
    pub(crate) fn finalize(self) -> [u8; 16] {
        let [mut h0, mut h1, mut h2] = self.h;
        // Two carry passes bring every limb under its width and h under
        // 2^130 + a little.
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= MASK44;
            h0 += (h2 >> 42) * 5;
            h2 &= MASK42;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }
        // g = h + 5 − 2^130 is h − p; it is negative, its top bit set,
        // exactly when h < p.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let keep_h = (g2 >> 63).wrapping_neg();
        let h0 = (h0 & keep_h) | (g0 & MASK44 & !keep_h);
        let h1 = (h1 & keep_h) | (g1 & MASK44 & !keep_h);
        let h2 = (h2 & keep_h) | (g2 & MASK42 & !keep_h);
        // Added, not ORed: a carry can leave h1 at exactly 2^44. Bits
        // past 2^128 drop out, which is the final mod 2^128.
        u128::from(h0)
            .wrapping_add(u128::from(h1) << 44)
            .wrapping_add(u128::from(h2) << 88)
            .wrapping_add(self.s)
            .to_le_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Poly1305 of any `message`: whole blocks, then a last partial one
    /// with its 0x01 byte after the message.
    fn mac(key: &[u8; 32], message: &[u8]) -> [u8; 16] {
        let mut poly = Poly1305::new(key);
        let (blocks, rest) = message.as_chunks::<16>();
        poly.blocks(blocks, FULL_BLOCK);
        if !rest.is_empty() {
            let mut last = [0u8; 16];
            last[..rest.len()].copy_from_slice(rest);
            last[rest.len()] = 1;
            poly.blocks(&[last], 0);
        }
        poly.finalize()
    }

    /// The textbook computation in 26-bit limbs (five of them, products
    /// in `u64`), kept as the reference the 44-bit kernel must match.
    fn mac_reference(key: &[u8; 32], message: &[u8]) -> [u8; 16] {
        let word = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().unwrap());
        let r = [
            word(&key[0..4]) & 0x03ff_ffff,
            (word(&key[3..7]) >> 2) & 0x03ff_ff03,
            (word(&key[6..10]) >> 4) & 0x03ff_c0ff,
            (word(&key[9..13]) >> 6) & 0x03f0_3fff,
            (word(&key[12..16]) >> 8) & 0x000f_ffff,
        ];
        let r = r.map(u64::from);
        let s: Vec<u64> = r.iter().map(|&limb| limb * 5).collect();
        let mut h = [0u64; 5];
        for chunk in message.chunks(16) {
            let mut block = [0u8; 17];
            block[..chunk.len()].copy_from_slice(chunk);
            block[chunk.len()] = 1;
            h[0] += u64::from(word(&block[0..4]) & 0x03ff_ffff);
            h[1] += u64::from((word(&block[3..7]) >> 2) & 0x03ff_ffff);
            h[2] += u64::from((word(&block[6..10]) >> 4) & 0x03ff_ffff);
            h[3] += u64::from((word(&block[9..13]) >> 6) & 0x03ff_ffff);
            h[4] += u64::from(word(&block[12..16]) >> 8) | u64::from(block[16]) << 24;
            let mut d = [0u64; 5];
            for (i, d) in d.iter_mut().enumerate() {
                for j in 0..5 {
                    // Limb j of h times the limb of r that lands at i;
                    // a wrap past limb 4 folds back times 5.
                    *d += if j <= i {
                        h[j] * r[i - j]
                    } else {
                        h[j] * s[5 + i - j]
                    };
                }
            }
            let mut carry = 0;
            for (h, d) in h.iter_mut().zip(d) {
                let d = d + carry;
                *h = d & 0x03ff_ffff;
                carry = d >> 26;
            }
            h[0] += carry * 5;
            h[1] += h[0] >> 26;
            h[0] &= 0x03ff_ffff;
        }
        // Carry fully, then subtract p when h + 5 reaches 2^130.
        let carry = |h: &mut [u64; 5]| {
            for i in 0..4 {
                h[i + 1] += h[i] >> 26;
                h[i] &= 0x03ff_ffff;
            }
        };
        carry(&mut h);
        h[0] += (h[4] >> 26) * 5;
        h[4] &= 0x03ff_ffff;
        carry(&mut h);
        let mut g = h;
        g[0] += 5;
        carry(&mut g);
        if g[4] >> 26 != 0 {
            g[4] &= 0x03ff_ffff;
            h = g;
        }
        // Bits past 2^128 do not survive the final mod 2^128.
        let value = h.iter().rev().fold(0u128, |value, &limb| {
            (value << 26).wrapping_add(u128::from(limb))
        });
        let s = u128::from_le_bytes(key[16..].try_into().unwrap());
        value.wrapping_add(s).to_le_bytes()
    }

    // RFC 8439 §2.5.2.
    #[test]
    fn rfc8439_tag_vector() {
        let key: [u8; 32] = hc_common::hex::decode(
            "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b",
        )
        .unwrap()
        .try_into()
        .unwrap();
        let message = b"Cryptographic Forum Research Group";
        assert_eq!(
            hc_common::hex::encode(&mac(&key, message)),
            "a8061dc1305136c6c22b8baf0c0127a9"
        );
        assert_eq!(mac_reference(&key, message), mac(&key, message));
    }

    // RFC 8439 Appendix A.3, vectors #5 to #11: the accumulator ends at
    // or past p, lands exactly on p or p − 1, `s` overflows 2^128, and
    // the reduction carries out of the top limb. Python `cryptography`'s
    // Poly1305 gives the same tags.
    #[test]
    fn rfc8439_reduction_edge_vectors() {
        let hex = |text: &str| hc_common::hex::decode(text).unwrap();
        let r1 = "01000000000000000000000000000000";
        let r2 = "02000000000000000000000000000000";
        let r_high = "01000000000000000400000000000000";
        let zero = "00000000000000000000000000000000";
        let ones = "ffffffffffffffffffffffffffffffff";
        let twice_131 = "e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000\
                         00000000000000000000000000000000";
        let cases = [
            (
                r2,
                zero,
                ones.to_owned(),
                "03000000000000000000000000000000",
            ),
            (r2, ones, r2.to_owned(), "03000000000000000000000000000000"),
            (
                r1,
                zero,
                format!("{ones}f0ffffffffffffffffffffffffffffff11000000000000000000000000000000"),
                "05000000000000000000000000000000",
            ),
            (
                r1,
                zero,
                format!("{ones}fbfefefefefefefefefefefefefefefe01010101010101010101010101010101"),
                "00000000000000000000000000000000",
            ),
            (
                r2,
                zero,
                "fdffffffffffffffffffffffffffffff".to_owned(),
                "faffffffffffffffffffffffffffffff",
            ),
            (
                r_high,
                zero,
                format!("{twice_131}01000000000000000000000000000000"),
                "14000000000000005500000000000000",
            ),
            (
                r_high,
                zero,
                twice_131.to_owned(),
                "13000000000000000000000000000000",
            ),
        ];
        for (r, s, message, tag) in cases {
            let key: [u8; 32] = hex(&format!("{r}{s}")).try_into().unwrap();
            let message = hex(&message);
            assert_eq!(
                hc_common::hex::encode(&mac(&key, &message)),
                tag,
                "{message:x?}"
            );
            assert_eq!(mac_reference(&key, &message), mac(&key, &message));
        }
    }

    #[test]
    fn padded_update_is_the_mac_of_the_zero_padded_message() {
        let key = [0x5au8; 32];
        let message: Vec<u8> = (0..37u8).collect();
        let mut padded = message.clone();
        padded.resize(48, 0);
        let mut poly = Poly1305::new(&key);
        poly.update_padded(&message);
        assert_eq!(poly.finalize(), mac(&key, &padded));
    }

    /// A key whose `r` has every bit the clamp allows set.
    fn all_r_bits(s: [u8; 16]) -> [u8; 32] {
        let mut key = [0u8; 32];
        key[..16].copy_from_slice(&CLAMP.to_le_bytes());
        key[16..].copy_from_slice(&s);
        key
    }

    #[test]
    fn all_ones_messages_carry_past_the_modulus() {
        // With r at its largest and every message byte 0xff, every
        // product and carry of the partial reduction runs at its widest
        // and h passes 2^130 − 5 between blocks. (An h that ends at or
        // past p, for the final reduction, takes the RFC's edge vectors.)
        for len in [16usize, 32, 64, 100, 256, 1024] {
            for s in [[0u8; 16], [0xff; 16]] {
                let key = all_r_bits(s);
                let message = vec![0xffu8; len];
                assert_eq!(mac(&key, &message), mac_reference(&key, &message), "{len}");
            }
        }
    }

    proptest! {
        #[test]
        fn matches_the_26_bit_reference(
            key in proptest::array::uniform32(any::<u8>()),
            message in proptest::collection::vec(any::<u8>(), 0..301),
        ) {
            prop_assert_eq!(mac(&key, &message), mac_reference(&key, &message));
        }

        #[test]
        fn matches_the_reference_at_the_largest_r(
            s in proptest::array::uniform32(any::<u8>()),
            message in proptest::collection::vec(any::<u8>(), 0..301),
            all_ones in any::<bool>(),
        ) {
            let key = all_r_bits(s[..16].try_into().unwrap());
            let message = if all_ones { vec![0xff; message.len()] } else { message };
            prop_assert_eq!(mac(&key, &message), mac_reference(&key, &message));
        }
    }
}
