//! Strings under Levenshtein distance — a genuinely expensive oracle.
//!
//! The paper motivates the framework with applications where one distance
//! call is itself a heavy computation (DNA sequence comparison, protein
//! search). Edit distance over long strings is the classic example: each
//! oracle call is an `O(len²)` dynamic program, so this dataset is the one
//! where the "expensive oracle" is real rather than virtual.

use prox_core::invariant::InvariantExt;
use prox_core::{Metric, ObjectId, TinyRng};

use crate::Dataset;

/// Random strings generated as mutated copies of a few seed sequences
/// (mimicking gene families), measured with Levenshtein distance divided by
/// a fixed cap so values are in `[0, 1]`. Scaling by a global constant
/// preserves the metric axioms; edit distance itself is a metric.
#[derive(Clone, Debug)]
pub struct StringSet {
    /// Base length of each string.
    pub length: usize,
    /// Number of seed "families".
    pub families: usize,
    /// Per-character mutation probability applied to each copy.
    pub mutation_rate: f64,
}

impl Default for StringSet {
    fn default() -> Self {
        StringSet {
            length: 64,
            families: 6,
            mutation_rate: 0.15,
        }
    }
}

/// The materialized metric: owned strings, edit distance on demand.
#[derive(Clone, Debug)]
pub struct StringMetric {
    strings: Vec<Vec<u8>>,
    /// `1 / cap` where `cap` bounds any achievable edit distance.
    inv_cap: f64,
}

impl StringMetric {
    /// The generated strings.
    pub fn strings(&self) -> impl Iterator<Item = &str> {
        self.strings
            .iter()
            .map(|s| std::str::from_utf8(s).expect_invariant("ASCII by construction"))
    }
}

/// Classic two-row Levenshtein DP.
pub fn levenshtein(a: &[u8], b: &[u8]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

impl Metric for StringMetric {
    fn len(&self) -> usize {
        self.strings.len()
    }
    fn distance(&self, a: ObjectId, b: ObjectId) -> f64 {
        if a == b {
            return 0.0;
        }
        levenshtein(&self.strings[a as usize], &self.strings[b as usize]) as f64 * self.inv_cap
    }
}

const ALPHABET: &[u8] = b"ACGT";

impl StringSet {
    /// Generates `n` strings.
    pub fn generate(&self, n: usize, seed: u64) -> StringMetric {
        let mut rng = TinyRng::new(seed ^ 0x57F1_26D5);
        let len = self.length.max(4);
        let families: Vec<Vec<u8>> = (0..self.families.max(1))
            .map(|_| {
                (0..len)
                    .map(|_| ALPHABET[rng.below(ALPHABET.len())])
                    .collect()
            })
            .collect();
        let strings = (0..n)
            .map(|_| {
                let base = &families[rng.below(families.len())];
                base.iter()
                    .map(|&c| {
                        if rng.unit_f64() < self.mutation_rate {
                            ALPHABET[rng.below(ALPHABET.len())]
                        } else {
                            c
                        }
                    })
                    .collect()
            })
            .collect();
        StringMetric {
            strings,
            // All strings share the same length, so edit distance <= len.
            inv_cap: 1.0 / len as f64,
        }
    }
}

impl Dataset for StringSet {
    fn name(&self) -> &'static str {
        "strings"
    }
    fn metric(&self, n: usize, seed: u64) -> Box<dyn Metric + Send + Sync> {
        Box::new(self.generate(n, seed))
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
mod tests {
    use super::*;
    use prox_core::metric::MetricCheck;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein(b"", b""), 0);
        assert_eq!(levenshtein(b"abc", b""), 3);
        assert_eq!(levenshtein(b"", b"xy"), 2);
        assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
        assert_eq!(levenshtein(b"ACGT", b"ACGT"), 0);
        assert_eq!(levenshtein(b"ACGT", b"AGGT"), 1);
        assert_eq!(levenshtein(b"AAAA", b"TTTT"), 4);
    }

    #[test]
    fn levenshtein_symmetry() {
        let cases: [(&[u8], &[u8]); 3] = [
            (b"GATTACA", b"CATGACA"),
            (b"A", b"ACGTACGT"),
            (b"CG", b"GC"),
        ];
        for (a, b) in cases {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
        }
    }

    #[test]
    fn edit_distance_is_a_metric() {
        let m = StringSet {
            length: 12,
            families: 3,
            mutation_rate: 0.3,
        }
        .generate(14, 8);
        assert!(MetricCheck::default().check(&m).is_clean());
    }

    #[test]
    fn family_structure_shows() {
        // Strings from the same family should typically be closer than the
        // theoretical max.
        let m = StringSet::default().generate(40, 2);
        let mut small = 0;
        for p in prox_core::Pair::all(40) {
            if m.distance(p.lo(), p.hi()) < 0.4 {
                small += 1;
            }
        }
        assert!(small > 0, "some within-family pairs must be close");
    }
}
