//! Seeded input generation. The program only ever sees what these
//! functions produce; the same seed always produces the same inputs.

use crate::deflate::encode_png_compressed;
use percival_imgcodec::{decode_auto, sniff_format, Bitmap, ImageFormat};
use percival_renderer::InMemoryStore;
use percival_util::Pcg32;
use percival_webgen::images::AdCues;
use percival_webgen::sites::{generate_corpus, CorpusConfig};
use percival_webgen::{generate_ad, generate_nonad, AdStyle, NonAdStyle, Script};
use std::time::Duration;

/// The IAB ad-unit geometries the creative stream draws from.
pub const STREAM_GEOMETRIES: [(usize, usize); 6] = [
    (300, 250),
    (728, 90),
    (160, 600),
    (970, 250),
    (320, 50),
    (300, 600),
];

/// SplitMix64 finalizer: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One generated slice of a web corpus, ready to render.
pub struct PageChunk {
    /// Documents and encoded images.
    pub store: InMemoryStore,
    /// Top-level page URLs, in generation order.
    pub pages: Vec<String>,
    /// PNG images re-encoded with compressed IDAT streams.
    pub pngs: usize,
}

/// Generates chunk `chunk` of the corpus for `seed`: `sites` sites of
/// `pages_per_site` pages each, with every PNG re-encoded by the
/// benchmark's compressing encoder. Fails if any re-encoded PNG does not
/// decode back to its source bitmap.
pub fn page_chunk(
    seed: u64,
    chunk: u64,
    sites: usize,
    pages_per_site: usize,
) -> Result<PageChunk, String> {
    let mut corpus = generate_corpus(CorpusConfig {
        n_sites: sites,
        pages_per_site,
        seed: mix(seed, 0x5A6E_0000 + chunk),
        ..Default::default()
    });
    let mut pngs = 0;
    for (url, bytes) in corpus.images.iter_mut() {
        if sniff_format(bytes) != Some(ImageFormat::Png) {
            continue;
        }
        pngs += 1;
        let source = decode_auto(bytes).map_err(|e| format!("{url}: {e}"))?;
        let png = encode_png_compressed(&source);
        let back = decode_auto(&png).map_err(|e| format!("{url} re-encoded: {e}"))?;
        if back != source {
            return Err(format!("{url}: compressed PNG decodes to other pixels"));
        }
        *bytes = png;
    }
    Ok(PageChunk {
        store: InMemoryStore::new(corpus.documents, corpus.images),
        pages: corpus.pages,
        pngs,
    })
}

/// Poisson arrival offsets at `rate` per second, covering `[0, seconds)`.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Duration> {
    let mut rng = Pcg32::seed_from_u64(mix(seed, 0xA441_7A15));
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        // Inverse-CDF exponential gap; 1 - u lies in (0, 1].
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// `n` creatives at IAB geometries, half ads and half content, each
/// stamped with its index (see [`stamp`]) so no two share content.
pub fn stream_pool(seed: u64, n: usize) -> Vec<Bitmap> {
    let mut rng = Pcg32::seed_from_u64(mix(seed, 0xC4EA_7135));
    let mut is_ad: Vec<bool> = (0..n).map(|i| i < n / 2).collect();
    rng.shuffle(&mut is_ad);
    is_ad
        .into_iter()
        .enumerate()
        .map(|(i, ad)| {
            let (w, h) = *rng.choose(&STREAM_GEOMETRIES);
            let mut bmp = if ad {
                let style = *rng.choose(&AdStyle::ALL);
                generate_ad(&mut rng, w, h, Script::Latin, style, AdCues::default())
            } else {
                let style = *rng.choose(&NonAdStyle::ALL);
                generate_nonad(&mut rng, w, h, Script::Latin, style)
            };
            stamp(&mut bmp, i);
            bmp
        })
        .collect()
}

/// Writes request index `i` into the first pixel. Stream request `i`
/// sends pool creative `i % pool.len()` stamped with `i`, so every
/// request carries distinct content (no memo hit or coalescing is
/// possible) while only the pool is held in memory.
pub fn stamp(bmp: &mut Bitmap, i: usize) {
    bmp.set(0, 0, [i as u8, (i >> 8) as u8, (i >> 16) as u8, 255]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use percival_renderer::ResourceStore;

    #[test]
    fn schedule_is_seeded() {
        let a = poisson_schedule(1, 30.0, 5.0);
        assert_eq!(a, poisson_schedule(1, 30.0, 5.0));
        assert_ne!(a, poisson_schedule(2, 30.0, 5.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap().as_secs_f64() < 5.0);
        // 150 expected arrivals; a Poisson count stays well inside ±40%.
        assert!((90..210).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn creative_pool_is_seeded() {
        let a = stream_pool(1, 12);
        assert_eq!(a, stream_pool(1, 12));
        assert_ne!(a, stream_pool(2, 12));
        assert!(a
            .iter()
            .all(|b| STREAM_GEOMETRIES.contains(&(b.width(), b.height()))));
    }

    #[test]
    fn stamped_requests_never_share_content() {
        let mut pool = stream_pool(3, 4);
        let mut keys: Vec<u64> = (0..40)
            .map(|i| {
                let bmp = &mut pool[i % 4];
                stamp(bmp, i);
                bmp.content_hash()
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 40, "every request must carry distinct content");
    }

    #[test]
    fn page_chunks_are_seeded_and_carry_compressed_pngs() {
        let a = page_chunk(5, 0, 2, 2).unwrap();
        let b = page_chunk(5, 0, 2, 2).unwrap();
        let c = page_chunk(6, 0, 2, 2).unwrap();
        assert_eq!(a.pages, b.pages);
        assert!(
            a.pngs > 0,
            "the chunk must exercise the compressed PNG path"
        );
        let doc = |chunk: &PageChunk| chunk.store.get_document(&chunk.pages[0]);
        assert_eq!(doc(&a), doc(&b));
        assert_ne!(doc(&a), doc(&c));
        assert_ne!(doc(&a), doc(&page_chunk(5, 1, 2, 2).unwrap()));
    }
}
