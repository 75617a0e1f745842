//! A small LZ77 + fixed-Huffman DEFLATE encoder and a PNG writer on top.
//!
//! The program's own PNG encoder writes stored (uncompressed) blocks only,
//! so no generated corpus PNG would reach the Huffman-decoding path of
//! `percival_imgcodec::inflate`. The benchmark re-encodes its PNG inputs
//! with this encoder so decode costs look like compressed web images.

use percival_imgcodec::inflate::zlib_wrap;
use percival_imgcodec::png::{crc32, SIGNATURE};
use percival_imgcodec::Bitmap;

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 32;
const NONE: u32 = u32::MAX;

const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// LSB-first bit packer (DEFLATE bit order).
struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    bits: u32,
}

impl BitWriter {
    fn put(&mut self, value: u32, len: u32) {
        self.acc |= u64::from(value) << self.bits;
        self.bits += len;
        while self.bits >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.bits -= 8;
        }
    }

    /// Huffman codes are defined MSB-first, so they go out bit-reversed.
    fn put_code(&mut self, (code, len): (u32, u32)) {
        self.put(code.reverse_bits() >> (32 - len), len);
    }

    fn finish(mut self) -> Vec<u8> {
        if self.bits > 0 {
            self.out.push(self.acc as u8);
        }
        self.out
    }
}

/// The fixed literal/length code of RFC 1951 §3.2.6.
fn lit_code(sym: u32) -> (u32, u32) {
    match sym {
        0..=143 => (0x30 + sym, 8),
        144..=255 => (0x190 + sym - 144, 9),
        256..=279 => (sym - 256, 7),
        _ => (0xC0 + sym - 280, 8),
    }
}

/// Index of the largest table base not above `v`.
fn bucket(bases: &[u16], v: usize) -> usize {
    bases.partition_point(|&b| usize::from(b) <= v) - 1
}

fn put_match(w: &mut BitWriter, len: usize, dist: usize) {
    let li = bucket(&LEN_BASE, len);
    w.put_code(lit_code(257 + li as u32));
    w.put(
        (len - usize::from(LEN_BASE[li])) as u32,
        u32::from(LEN_EXTRA[li]),
    );
    let di = bucket(&DIST_BASE, dist);
    w.put_code((di as u32, 5));
    w.put(
        (dist - usize::from(DIST_BASE[di])) as u32,
        u32::from(DIST_EXTRA[di]),
    );
}

fn hash3(data: &[u8], i: usize) -> usize {
    let v = u32::from(data[i]) << 16 | u32::from(data[i + 1]) << 8 | u32::from(data[i + 2]);
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// Compresses `data` as one final fixed-Huffman DEFLATE block, with greedy
/// LZ77 matching over hash chains (32 KiB window, bounded chain walk).
pub fn deflate_fixed(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter {
        out: Vec::with_capacity(data.len() / 4 + 16),
        acc: 0,
        bits: 0,
    };
    w.put(1, 1); // BFINAL
    w.put(1, 2); // BTYPE = 01, fixed Huffman codes
    let mut head = vec![NONE; 1 << HASH_BITS];
    let mut prev = vec![NONE; WINDOW];
    let insert = |head: &mut [u32], prev: &mut [u32], p: usize| {
        if p + MIN_MATCH <= data.len() {
            let h = hash3(data, p);
            prev[p % WINDOW] = head[h];
            head[h] = p as u32;
        }
    };
    let mut i = 0;
    while i < data.len() {
        let (mut best_len, mut best_dist) = (0, 0);
        if i + MIN_MATCH <= data.len() {
            let limit = MAX_MATCH.min(data.len() - i);
            let mut cand = head[hash3(data, i)];
            for _ in 0..MAX_CHAIN {
                if cand == NONE {
                    break;
                }
                let c = cand as usize;
                // Entries at or beyond one window back may have been
                // overwritten in the ring, so the walk stops there.
                if c >= i || i - c >= WINDOW {
                    break;
                }
                let len = data[c..c + limit]
                    .iter()
                    .zip(&data[i..i + limit])
                    .take_while(|(a, b)| a == b)
                    .count();
                if len > best_len {
                    (best_len, best_dist) = (len, i - c);
                    if len == limit {
                        break;
                    }
                }
                let next = prev[c % WINDOW];
                if next != NONE && next as usize >= c {
                    break;
                }
                cand = next;
            }
        }
        if best_len >= MIN_MATCH {
            put_match(&mut w, best_len, best_dist);
            for p in i..i + best_len {
                insert(&mut head, &mut prev, p);
            }
            i += best_len;
        } else {
            w.put_code(lit_code(u32::from(data[i])));
            insert(&mut head, &mut prev, i);
            i += 1;
        }
    }
    w.put_code(lit_code(256)); // end of block
    w.finish()
}

fn push_chunk(out: &mut Vec<u8>, kind: &[u8; 4], data: &[u8]) {
    out.extend_from_slice(&(data.len() as u32).to_be_bytes());
    let crc_start = out.len();
    out.extend_from_slice(kind);
    out.extend_from_slice(data);
    let crc = crc32(&out[crc_start..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// Encodes a bitmap as an RGBA8 PNG (filter 0 on every row, like the
/// program's encoder) whose IDAT stream is compressed by [`deflate_fixed`].
pub fn encode_png_compressed(bmp: &Bitmap) -> Vec<u8> {
    let (w, h) = (bmp.width(), bmp.height());
    let mut raw = Vec::with_capacity(h * (1 + w * 4));
    for y in 0..h {
        raw.push(0);
        raw.extend_from_slice(bmp.row(y));
    }
    let idat = zlib_wrap(&deflate_fixed(&raw), &raw);

    let mut out = Vec::with_capacity(idat.len() + 64);
    out.extend_from_slice(&SIGNATURE);
    let mut ihdr = Vec::with_capacity(13);
    ihdr.extend_from_slice(&(w as u32).to_be_bytes());
    ihdr.extend_from_slice(&(h as u32).to_be_bytes());
    ihdr.extend_from_slice(&[8, 6, 0, 0, 0]); // depth 8, RGBA, deflate, adaptive, no interlace
    push_chunk(&mut out, b"IHDR", &ihdr);
    push_chunk(&mut out, b"IDAT", &idat);
    push_chunk(&mut out, b"IEND", &[]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use percival_imgcodec::inflate::inflate;
    use percival_imgcodec::png::encode_png;
    use percival_imgcodec::{decode_auto, sniff_format, ImageFormat};
    use percival_util::Pcg32;
    use percival_webgen::{generate_ad, generate_nonad, AdStyle, NonAdStyle, Script};

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let packed = deflate_fixed(data);
        let out = inflate(&packed).expect("own stream inflates");
        assert_eq!(out, data);
        packed
    }

    #[test]
    fn deflate_round_trips_edge_cases() {
        roundtrip(&[]);
        roundtrip(&[7]);
        roundtrip(b"ab");
        roundtrip(b"abcabcabcabcabcabcabcabc");
        // Runs longer than one maximal match use overlapping copies.
        let zeros = vec![0u8; 100_000];
        assert!(roundtrip(&zeros).len() < 1_000);
        let mut rng = Pcg32::seed_from_u64(3);
        let noise: Vec<u8> = (0..70_000).map(|_| rng.next_u32() as u8).collect();
        roundtrip(&noise);
        // Repeats just inside the 32 KiB window exercise the far distance
        // codes; every literal value and length bucket appears.
        let mut far = noise[..WINDOW - 10].to_vec();
        far.extend_from_slice(&noise[..5_000]);
        roundtrip(&far);
        let mut lens = Vec::new();
        for len in 3..=300 {
            lens.extend((0..len).map(|i| (i % 7) as u8));
            lens.push(len as u8);
        }
        roundtrip(&lens);
        let all: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        roundtrip(&all);
    }

    #[test]
    fn compressed_png_decodes_to_its_source_bitmap() {
        let mut rng = Pcg32::seed_from_u64(11);
        let mut bitmaps = vec![
            Bitmap::new(1, 1, [0, 0, 0, 0]),
            Bitmap::new(970, 250, [12, 34, 56, 255]),
        ];
        for (i, (w, h)) in [(300usize, 250usize), (728, 90), (160, 600)]
            .iter()
            .enumerate()
        {
            let style = AdStyle::ALL[i % AdStyle::ALL.len()];
            bitmaps.push(generate_ad(
                &mut rng,
                *w,
                *h,
                Script::Latin,
                style,
                Default::default(),
            ));
            let style = NonAdStyle::ALL[i % NonAdStyle::ALL.len()];
            bitmaps.push(generate_nonad(&mut rng, *w, *h, Script::Latin, style));
        }
        let mut noise = Bitmap::new(37, 23, [0, 0, 0, 255]);
        for b in noise.data_mut() {
            *b = rng.next_u32() as u8;
        }
        bitmaps.push(noise);
        for bmp in &bitmaps {
            let png = encode_png_compressed(bmp);
            assert_eq!(sniff_format(&png), Some(ImageFormat::Png));
            let back = decode_auto(&png).expect("compressed PNG decodes");
            assert_eq!(&back, bmp);
        }
        // Creatives actually compress.
        let ad = &bitmaps[2];
        assert!(encode_png_compressed(ad).len() * 4 < encode_png(ad).len());
    }
}
