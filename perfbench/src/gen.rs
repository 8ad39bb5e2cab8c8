//! Seeded input generation. Every input the benchmark hands the program
//! (request grids, fresh cells, samples) comes from here, derived from the
//! workload seed alone.

use sms_sim::scene::SceneId;
use std::sync::atomic::{AtomicUsize, Ordering};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, with `stream` selecting an independent
    /// sequence (so adding a draw in one place never shifts another).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Stream ids, one per kind of draw.
pub const STREAM_REQUESTS: u64 = 2;
pub const STREAM_FRESH: u64 = 3;
pub const STREAM_SAMPLE: u64 = 4;

/// The scenes every served request names. Fixed rather than drawn, so
/// runs with different seeds do the same amount of simulation work.
pub const SERVED_SCENES: [SceneId; 2] = [SceneId::Wknd, SceneId::Bunny];

/// The two warm configurations: the 8-entry RB baseline and the paper's
/// full SMS design.
pub const WARM_CONFIGS: [&str; 2] = ["RB_8", "RB_8+SH_8+SK+RA"];

/// Every fresh configuration label: `RB_<a>+SH_<b>[+SK][+RA]` with
/// `a` in 1..=16 and `b` in 1..=48 (SH stacks take at most three quarters
/// of the unified L1/shared array), minus the warm SMS label: 3071 cells
/// per scene.
fn fresh_space() -> Vec<String> {
    let mut out = Vec::new();
    for a in 1..=16 {
        for b in 1..=48 {
            for suffix in ["", "+SK", "+RA", "+SK+RA"] {
                let label = format!("RB_{a}+SH_{b}{suffix}");
                if !WARM_CONFIGS.contains(&label.as_str()) {
                    out.push(label);
                }
            }
        }
    }
    out
}

/// One served request: a scene list and a config list (the server sweeps
/// their cross product).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepGrid {
    pub scenes: Vec<&'static str>,
    pub configs: Vec<String>,
    /// The fresh configuration this request adds, if any.
    pub fresh: Option<String>,
}

/// The request sequence of a serving workload. Request `i` is a pure
/// function of `(seed, i)`; indices are handed out through an atomic
/// counter, so the set of requests a run sends is always a prefix of the
/// sequence, whichever client thread sends each one.
pub struct Requests {
    seed: u64,
    fresh: Option<Vec<String>>,
    next: AtomicUsize,
}

impl Requests {
    /// `with_fresh`: each request adds one fresh configuration column, a
    /// configuration that no earlier request of the run named.
    pub fn new(seed: u64, with_fresh: bool) -> Self {
        let fresh = with_fresh.then(|| {
            let mut space = fresh_space();
            Rng::new(seed, STREAM_FRESH).shuffle(&mut space);
            space
        });
        Requests { seed, fresh, next: AtomicUsize::new(0) }
    }

    /// How many requests the sequence holds (`None`: unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.fresh.as_ref().map(Vec::len)
    }

    /// Request `i` of the sequence, or `None` past its end.
    pub fn get(&self, i: usize) -> Option<SweepGrid> {
        let fresh = match &self.fresh {
            Some(space) => Some(space.get(i)?.clone()),
            None => None,
        };
        let mut rng = Rng::new(self.seed, STREAM_REQUESTS ^ ((i as u64) << 8));
        let mut scenes: Vec<&'static str> = SERVED_SCENES.iter().map(|s| s.name()).collect();
        rng.shuffle(&mut scenes);
        let mut configs: Vec<String> = WARM_CONFIGS.iter().map(|s| (*s).to_owned()).collect();
        rng.shuffle(&mut configs);
        if let Some(f) = &fresh {
            configs.insert(rng.below(configs.len() + 1), f.clone());
        }
        Some(SweepGrid { scenes, configs, fresh })
    }

    /// Claims the next request of the sequence.
    pub fn claim(&self) -> Option<(usize, SweepGrid)> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.get(i).map(|g| (i, g))
    }

    /// Requests claimed so far (including a final claim past the end).
    pub fn claimed(&self) -> usize {
        self.next.load(Ordering::Relaxed).min(self.capacity().unwrap_or(usize::MAX))
    }
}

/// A seeded sample of `k` distinct indices from `0..n`, sorted.
pub fn sample(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    Rng::new(seed, STREAM_SAMPLE).shuffle(&mut all);
    all.truncate(k);
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_sequence() {
        let (a, b) = (Requests::new(42, true), Requests::new(42, true));
        for i in 0..200 {
            assert_eq!(a.get(i), b.get(i));
        }
        assert_eq!(sample(42, 100, 10), sample(42, 100, 10));
    }

    #[test]
    fn different_seeds_differ() {
        let (a, b) = (Requests::new(1, true), Requests::new(2, true));
        assert!((0..20).any(|i| a.get(i) != b.get(i)));
        assert_ne!(sample(1, 100, 10), sample(2, 100, 10));
    }

    #[test]
    fn fresh_cells_never_repeat_and_never_warm() {
        for seed in [0, 1, 7, 12345] {
            let reqs = Requests::new(seed, true);
            let cap = reqs.capacity().unwrap();
            assert_eq!(cap, 3071, "room for a long run");
            let mut seen = HashSet::new();
            while let Some((_, grid)) = reqs.claim() {
                let fresh = grid.fresh.clone().unwrap();
                assert!(!WARM_CONFIGS.contains(&fresh.as_str()));
                assert!(seen.insert(fresh.clone()), "fresh config {fresh} repeated");
                assert_eq!(grid.configs.len(), 3);
                assert!(grid.configs.contains(&fresh));
                for w in WARM_CONFIGS {
                    assert!(grid.configs.iter().any(|c| c == w));
                }
                for c in &grid.configs {
                    sms_serve::protocol::parse_stack_config(c).unwrap();
                }
            }
            assert_eq!(seen.len(), cap);
            assert_eq!(reqs.claimed(), cap);
        }
    }

    #[test]
    fn warm_requests_hold_only_warm_cells() {
        let reqs = Requests::new(9, false);
        assert_eq!(reqs.capacity(), None);
        for i in 0..50 {
            let g = reqs.get(i).unwrap();
            assert_eq!(g.fresh, None);
            assert_eq!(g.scenes.len(), 2);
            assert_eq!(g.configs.len(), 2);
        }
    }

    #[test]
    fn sample_is_distinct_and_in_range() {
        let s = sample(5, 40, 12);
        assert_eq!(s.len(), 12);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&i| i < 40));
        assert_eq!(sample(5, 3, 12).len(), 3);
    }
}
