//! Seeded workload inputs. The world, the curated KB and the warm
//! documents of the fixed graph are the `Preset::Large` ones; every fresh
//! document and the query sequence are drawn from the workload seed, so a
//! seed names the exact inputs and the program under test receives
//! nothing else.

use nous_corpus::{Article, ArticleStream, CuratedKb, Preset, StreamConfig, World, ONTOLOGY};

/// The four query groups of the mix, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// ABOUT, TIMELINE and MATCH.
    Lookup,
    Why,
    Paths,
    Trending,
}

pub const GROUPS: [Group; 4] = [Group::Lookup, Group::Why, Group::Paths, Group::Trending];

impl Group {
    pub fn name(self) -> &'static str {
        match self {
            Group::Lookup => "lookup",
            Group::Why => "why",
            Group::Paths => "paths",
            Group::Trending => "trending",
        }
    }
}

/// The fixed world every workload runs over.
pub struct World0 {
    pub world: World,
    pub kb: CuratedKb,
}

impl World0 {
    pub fn large() -> Self {
        let world = World::generate(&Preset::Large.world_config());
        let kb = CuratedKb::generate(&world, 7);
        Self { world, kb }
    }

    /// One seeded article stream of `n` documents over the Large world,
    /// in arrival (day) order with ids `0..n`. No document is sent twice
    /// into one session.
    pub fn stream(&self, seed: u64, n: usize) -> Vec<Article> {
        let cfg = StreamConfig {
            seed,
            articles: n,
            ..Preset::Large.stream_config()
        };
        ArticleStream::generate(&self.world, &self.kb, &cfg)
    }

    /// The warm documents of the fixed graph `query_mix` reads: the Large
    /// preset's own stream, the same for every workload seed, so the graph
    /// the queries run on does not change with the seed (the seed still
    /// draws the queries and every fresh document).
    pub fn warm(&self, n: usize) -> Vec<Article> {
        self.stream(Preset::Large.stream_config().seed, n)
    }

    /// `per_group` queries of each group, interleaved in a seeded order.
    /// WHY and PATHS use seeded company pairs; lookups use seeded
    /// companies and people and seeded ontology predicates.
    pub fn queries(&self, seed: u64, per_group: usize) -> Vec<(Group, String)> {
        let mut rng = SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15);
        let w = &self.world;
        let name = |i: usize| w.entities[i].name.as_str();
        let company = |rng: &mut SplitMix| name(w.companies[rng.below(w.companies.len())]);
        let pair = |rng: &mut SplitMix| loop {
            let (a, b) = (company(rng), company(rng));
            if a != b {
                return (a, b);
            }
        };
        let mut out = Vec::with_capacity(4 * per_group);
        for _ in 0..per_group {
            let subject = if rng.below(3) == 0 {
                name(w.people[rng.below(w.people.len())])
            } else {
                company(&mut rng)
            };
            let lookup = match rng.below(3) {
                0 => format!("ABOUT {subject}"),
                1 => format!("TIMELINE {subject} LIMIT 10"),
                _ => format!(
                    "MATCH (Company)-[{}]->(*) LIMIT 10",
                    ONTOLOGY[rng.below(ONTOLOGY.len())].name()
                ),
            };
            let (a, b) = pair(&mut rng);
            let why = format!("WHY {a} -> {b} LIMIT 3");
            let (c, d) = pair(&mut rng);
            let paths = format!("PATHS {c} TO {d} MAX 3 LIMIT 5");
            out.push((Group::Lookup, lookup));
            out.push((Group::Why, why));
            out.push((Group::Paths, paths));
            out.push((Group::Trending, "TRENDING LIMIT 5".to_owned()));
        }
        // Seeded Fisher-Yates: groups stay equal in count but arrive mixed.
        for i in (1..out.len()).rev() {
            out.swap(i, rng.below(i + 1));
        }
        out
    }
}

/// SplitMix64: a tiny, fully specified generator, so the query sequence
/// depends on nothing but the seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_byte_identical_for_a_seed() {
        let w = World0::large();
        let a = serde_json::to_string(&w.stream(7, 300)).expect("serialize stream");
        let b = serde_json::to_string(&World0::large().stream(7, 300)).expect("serialize stream");
        assert_eq!(a, b);
        let c = serde_json::to_string(&w.stream(8, 300)).expect("serialize stream");
        assert_ne!(a, c, "a different seed must give a different stream");
    }

    #[test]
    fn stream_ids_are_distinct() {
        let s = World0::large().stream(3, 500);
        let mut ids: Vec<u64> = s.iter().map(|a| a.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 500);
    }

    #[test]
    fn query_sequence_is_seeded_and_balanced() {
        let w = World0::large();
        let q = w.queries(5, 50);
        assert_eq!(q, w.queries(5, 50));
        assert_ne!(q, w.queries(6, 50));
        for g in GROUPS {
            assert_eq!(q.iter().filter(|(h, _)| *h == g).count(), 50);
        }
        for (_, text) in &q {
            nous_query::parse(text).expect("every generated query parses");
        }
    }
}
