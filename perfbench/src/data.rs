//! Inputs made from the seed, and the brute-force reference the answers
//! are checked against.

use std::collections::{HashMap, HashSet};

use ir2_datagen::{DatasetSpec, WordModel};
use ir2tree::geo::{Point, Rect};
use ir2tree::irtree::GeneralQuery;
use ir2tree::model::{DistanceFirstQuery, SpatialObject};
use ir2tree::text::tokenize;

/// SplitMix64: a small, fully specified generator, so the same seed gives
/// the same inputs on every build.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next() >> 11) as u128 * n as u128) >> 53) as usize
    }
}

/// Keywords are drawn from this band of word frequency ranks: common
/// enough that most conjunctions have answers, rare enough that
/// signatures prune.
pub const KEYWORD_BAND: std::ops::Range<usize> = 8..64;
pub const K: usize = 10;
/// Half the side of a keyword-window query's square, in degrees.
pub const WINDOW_HALF: f64 = 2.0;

/// A workload's dataset: `spec` with `objects` objects, drawn with the
/// generator's own seed for the preset. Every run seed measures the same
/// database; the run seed draws the queries and the inserted objects.
pub fn dataset(mut spec: DatasetSpec, objects: usize) -> (DatasetSpec, Vec<SpatialObject<2>>) {
    spec.num_objects = objects.max(16);
    let objs = spec.generate().collect();
    (spec, objs)
}

/// `n` objects not in the base dataset (fresh ids from `first_id`), for
/// inserts.
pub fn fresh_objects(
    spec: &DatasetSpec,
    n: usize,
    seed: u64,
    first_id: u64,
) -> Vec<SpatialObject<2>> {
    let mut extra = spec.clone();
    extra.num_objects = n;
    extra.seed = Rng::new(seed, 2).next();
    extra
        .generate()
        .map(|mut o| {
            o.id += first_id;
            o
        })
        .collect()
}

/// The words of [`KEYWORD_BAND`], most frequent first.
fn band(spec: &DatasetSpec) -> Vec<String> {
    let words = WordModel::new(spec.vocab_size, spec.zipf_s);
    KEYWORD_BAND.map(|rank| words.word(rank)).collect()
}

/// A query's anchor point and keywords. Query `i` has `1 + i % max`
/// keywords, so every pool holds the same share of each keyword count.
fn anchors(
    spec: &DatasetSpec,
    objs: &[SpatialObject<2>],
    n: usize,
    max: usize,
    rng: &mut Rng,
) -> Vec<(Point<2>, Vec<String>)> {
    let band = band(spec);
    (0..n)
        .map(|i| {
            let at = objs[rng.below(objs.len())].point;
            (
                at,
                (0..1 + i % max)
                    .map(|_| band[rng.below(band.len())].clone())
                    .collect(),
            )
        })
        .collect()
}

/// Distance-first top-k queries: a data point and 1–3 keywords.
pub fn topk_pool(
    spec: &DatasetSpec,
    objs: &[SpatialObject<2>],
    n: usize,
    seed: u64,
) -> Vec<DistanceFirstQuery<2>> {
    let mut rng = Rng::new(seed, 3);
    anchors(spec, objs, n, 3, &mut rng)
        .into_iter()
        .map(|(at, kws)| DistanceFirstQuery::new(at, &kws, K))
        .collect()
}

/// Ranked (general) top-k queries: a data point and 1–3 keywords.
pub fn ranked_pool(
    spec: &DatasetSpec,
    objs: &[SpatialObject<2>],
    n: usize,
    seed: u64,
) -> Vec<GeneralQuery<2>> {
    let mut rng = Rng::new(seed, 4);
    anchors(spec, objs, n, 3, &mut rng)
        .into_iter()
        .map(|(at, kws)| GeneralQuery::new(at, &kws, K))
        .collect()
}

/// Keyword-window queries: a square around a data point and one keyword.
pub fn window_pool(
    spec: &DatasetSpec,
    objs: &[SpatialObject<2>],
    n: usize,
    seed: u64,
) -> Vec<(Rect<2>, Vec<String>)> {
    let mut rng = Rng::new(seed, 5);
    anchors(spec, objs, n, 1, &mut rng)
        .into_iter()
        .map(|(at, kws)| {
            let [x, y] = *at.coords();
            let rect = Rect::new(
                Point::from([x - WINDOW_HALF, y - WINDOW_HALF]),
                Point::from([x + WINDOW_HALF, y + WINDOW_HALF]),
            );
            (rect, kws)
        })
        .collect()
}

/// Brute-force answers over the live object set, with the `ir2-oracle`
/// semantics: conjunctive keywords matched against the tokenized text,
/// answers in canonical `(distance, id)` order. Postings only narrow the
/// linear scan; `agrees_with_oracle` pins the two together.
#[derive(Default)]
pub struct Reference {
    objects: HashMap<u64, SpatialObject<2>>,
    postings: HashMap<String, HashSet<u64>>,
}

impl Reference {
    pub fn new(objs: &[SpatialObject<2>]) -> Self {
        let mut r = Self::default();
        for o in objs {
            r.insert(o.clone());
        }
        r
    }

    pub fn insert(&mut self, o: SpatialObject<2>) {
        for t in tokenize(&o.text) {
            self.postings.entry(t).or_default().insert(o.id);
        }
        self.objects.insert(o.id, o);
    }

    pub fn live(&self) -> impl Iterator<Item = &SpatialObject<2>> {
        self.objects.values()
    }

    fn matching(&self, keywords: &[String]) -> Vec<&SpatialObject<2>> {
        let Some((first, rest)) = keywords.split_first() else {
            return self.objects.values().collect();
        };
        let Some(p) = self.postings.get(first) else {
            return Vec::new();
        };
        p.iter()
            .filter(|id| {
                rest.iter()
                    .all(|w| self.postings.get(w).is_some_and(|q| q.contains(id)))
            })
            .map(|id| &self.objects[id])
            .collect()
    }

    pub fn topk(&self, q: &DistanceFirstQuery<2>) -> Vec<(u64, f64)> {
        let mut hits: Vec<(u64, f64)> = self
            .matching(&q.keywords)
            .into_iter()
            .map(|o| (o.id, o.point.distance(&q.point)))
            .collect();
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits.truncate(q.k);
        hits
    }

    /// Ids of the objects inside `rect` holding every keyword, sorted.
    pub fn window(&self, rect: &Rect<2>, keywords: &[String]) -> Vec<u64> {
        let kws: Vec<String> = keywords.iter().flat_map(|w| tokenize(w)).collect();
        let mut ids: Vec<u64> = self
            .matching(&kws)
            .into_iter()
            .filter(|o| rect.contains_point(&o.point))
            .map(|o| o.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Whether this reference and `ir2_oracle::reference::reference_topk` give the
    /// same answer to `q`.
    pub fn agrees_with_oracle(&self, q: &DistanceFirstQuery<2>) -> bool {
        let live: Vec<SpatialObject<2>> = self.objects.values().cloned().collect();
        ir2_oracle::reference::reference_topk(&live, q) == self.topk(q)
    }
}

/// Bytes of live object data: the encoded records' payloads.
pub fn live_bytes<'a>(objs: impl Iterator<Item = &'a SpatialObject<2>>) -> u64 {
    objs.map(|o| o.encode().len() as u64).sum()
}
