//! Deterministic, named random-number streams.
//!
//! Every stochastic component of the simulator (channel shadowing, fast
//! fading, mobility jitter, MAC backoff, traffic generation, …) draws from its
//! own named stream. Streams are derived from a single master seed with a
//! SplitMix64 mixer, so:
//!
//! * two runs with the same master seed produce identical results;
//! * adding draws to one component does not perturb any other component
//!   (streams are independent);
//! * experiment "rounds" can derive per-round sub-seeds without correlation.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// SplitMix64 step — used to derive stream seeds from a master seed and a
/// stream label hash. This is the standard seeding mixer recommended for
/// xoshiro-family generators.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over raw bytes — the workspace's one *specified* hash.
///
/// Unlike `std`'s hashers, whose algorithm may change between releases,
/// FNV-1a's output is pinned forever, which everything durable keys on:
/// RNG stream labels here, schema fingerprints in `vanet-scenarios`, and
/// journal checksums in `vanet-cache`. One shared implementation keeps
/// those from drifting apart: [`fnv1a64_chain`] folds one buffer into a
/// state, and [`fnv1a64_chain4`] is the same hash over four buffers at
/// once, for callers that check many records.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_chain(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folds more bytes into an FNV-1a state — lets one hash span several
/// buffers without concatenating them.
pub fn fnv1a64_chain(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// One FNV-1a step of a lane: xor in a byte, multiply by the prime.
#[inline(always)]
fn fnv1a64_step(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// Folds four buffers into four FNV-1a states, faster than one at a time:
/// lane `i` returns exactly `fnv1a64_chain(states[i], inputs[i])`.
///
/// Each FNV-1a step depends on the one before, so one chain runs at the
/// multiplier's latency, one byte per multiply. Four independent chains
/// advanced in lockstep keep four multiplies in flight: about four times
/// the serial rate, where eight lanes measured no faster than four. The
/// lanes share the loop over their common length; the longer lanes then
/// finish two at a time, the longest two together, and the last bytes of
/// each serially.
pub fn fnv1a64_chain4(states: [u64; 4], inputs: [&[u8]; 4]) -> [u64; 4] {
    let common = inputs.iter().map(|bytes| bytes.len()).min().unwrap_or(0);
    let [a, b, c, d] = inputs.map(|bytes| &bytes[..common]);
    let [mut h0, mut h1, mut h2, mut h3] = states;
    for (((&x0, &x1), &x2), &x3) in a.iter().zip(b).zip(c).zip(d) {
        h0 = fnv1a64_step(h0, x0);
        h1 = fnv1a64_step(h1, x1);
        h2 = fnv1a64_step(h2, x2);
        h3 = fnv1a64_step(h3, x3);
    }
    let mut hashes = [h0, h1, h2, h3];
    let tails = inputs.map(|bytes| &bytes[common..]);
    let mut order = [0, 1, 2, 3];
    order.sort_unstable_by_key(|&lane| std::cmp::Reverse(tails[lane].len()));
    for pair in order.chunks_exact(2) {
        let (i, j) = (pair[0], pair[1]);
        [hashes[i], hashes[j]] = fnv1a64_chain2([hashes[i], hashes[j]], [tails[i], tails[j]]);
    }
    hashes
}

/// [`fnv1a64_chain4`]'s two-lane finish: lockstep over the common length,
/// then each tail serially.
fn fnv1a64_chain2(states: [u64; 2], inputs: [&[u8]; 2]) -> [u64; 2] {
    let common = inputs[0].len().min(inputs[1].len());
    let [mut h0, mut h1] = states;
    for (&x0, &x1) in inputs[0][..common].iter().zip(&inputs[1][..common]) {
        h0 = fnv1a64_step(h0, x0);
        h1 = fnv1a64_step(h1, x1);
    }
    [fnv1a64_chain(h0, &inputs[0][common..]), fnv1a64_chain(h1, &inputs[1][common..])]
}

/// FNV-1a hash of a label, used to turn stream names into seed material.
fn fnv1a(label: &str) -> u64 {
    fnv1a64(label.as_bytes())
}

/// The uniform in `[0, 1)` a 64-bit word gives: its top 53 bits times
/// 2⁻⁵³, exactly as `gen::<f64>()` converts the word it draws. Every
/// uniform a [`StreamRng`] transform consumes is one such word.
#[inline]
pub fn unit_of(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The Box–Muller standard normal of two words, the expression
/// [`StreamRng::standard_normal`] evaluates on the two it draws:
/// `√(−2 ln u₁) · cos(2π u₂)` with `u₁ = 1 − U₁ ∈ [2⁻⁵³, 1]`, which keeps
/// the logarithm finite, and `u₂ = U₂`.
#[inline]
pub fn standard_normal_of(first: u64, second: u64) -> f64 {
    let u1 = 1.0 - unit_of(first);
    let u2 = unit_of(second);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The exponential variate of rate `lambda` one word gives, the expression
/// [`StreamRng::exponential`] evaluates: `−ln(1 − U) / lambda`.
#[inline]
pub fn exponential_of(word: u64, lambda: f64) -> f64 {
    let u = 1.0 - unit_of(word);
    -u.ln() / lambda
}

/// The Bernoulli outcome one word gives at success probability `p`
/// (clamped to `[0, 1]`), the comparison [`StreamRng::chance`] makes:
/// `U < p`.
#[inline]
pub fn chance_of(word: u64, p: f64) -> bool {
    unit_of(word) < p.clamp(0.0, 1.0)
}

/// A deterministic random stream identified by a master seed and a label.
///
/// `StreamRng` is a thin wrapper over [`SmallRng`] that remembers how it was
/// derived, which helps debugging ("which stream produced this draw?").
///
/// # Examples
///
/// ```
/// use sim_core::StreamRng;
/// use rand::Rng;
///
/// let mut a = StreamRng::derive(42, "channel.shadowing");
/// let mut b = StreamRng::derive(42, "channel.shadowing");
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());   // same seed + label => same stream
///
/// let mut c = StreamRng::derive(42, "mac.backoff");
/// assert_ne!(a.gen::<u64>(), c.gen::<u64>());   // different label => independent stream
/// ```
#[derive(Debug, Clone)]
pub struct StreamRng {
    label: String,
    master_seed: u64,
    rng: SmallRng,
}

impl StreamRng {
    /// Derives a stream from `master_seed` and a textual `label`.
    pub fn derive(master_seed: u64, label: impl Into<String>) -> Self {
        let label = label.into();
        let mut state = master_seed ^ fnv1a(&label);
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
        }
        StreamRng { label, master_seed, rng: SmallRng::from_seed(seed) }
    }

    /// Derives a sub-stream, e.g. one per experiment round or per node.
    ///
    /// ```
    /// use sim_core::StreamRng;
    /// use rand::Rng;
    /// let mut round0 = StreamRng::derive(7, "urban").substream(0);
    /// let mut round1 = StreamRng::derive(7, "urban").substream(1);
    /// assert_ne!(round0.gen::<u64>(), round1.gen::<u64>());
    /// ```
    pub fn substream(&self, index: u64) -> StreamRng {
        StreamRng::derive(
            self.master_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            format!("{}#{}", self.label, index),
        )
    }

    /// The label this stream was derived with.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The master seed this stream was derived from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Draws a standard normal (mean 0, variance 1) variate using the
    /// Box–Muller transform. Avoids a dependency on `rand_distr`.
    ///
    /// Consumes exactly two uniforms (one 64-bit word each), so
    /// [`StreamRng::skip`]`(2)` leaves the stream where this call does.
    pub fn standard_normal(&mut self) -> f64 {
        let first = self.rng.next_u64();
        standard_normal_of(first, self.rng.next_u64())
    }

    /// Draws a normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Draws an exponential variate with the given rate parameter `lambda`.
    /// Consumes exactly one uniform.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "lambda must be positive");
        exponential_of(self.rng.next_u64(), lambda)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    /// Consumes exactly one uniform, whatever `p` is.
    pub fn chance(&mut self, p: f64) -> bool {
        chance_of(self.rng.next_u64(), p)
    }

    /// Draws one raw 64-bit word: what each uniform inside
    /// [`StreamRng::standard_normal`], [`StreamRng::exponential`] and
    /// [`StreamRng::chance`] consumes before [`unit_of`] converts it. A
    /// caller that draws the words itself and applies the `*_of` transforms
    /// leaves the stream, and every value, where the draws would.
    #[inline]
    pub fn word(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Advances the stream past `uniforms` uniform draws without using
    /// them: one 64-bit word each, as [`StreamRng::chance`] and the
    /// uniforms inside [`StreamRng::standard_normal`] and
    /// [`StreamRng::exponential`] consume. A caller that knows a draw's
    /// result cannot matter skips it instead of transforming it, and every
    /// later draw stays where it was.
    #[inline]
    pub fn skip(&mut self, uniforms: usize) {
        for _ in 0..uniforms {
            self.rng.next_u64();
        }
    }

    /// Uniform draw in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        assert!(low < high, "uniform range must be non-empty");
        self.rng.gen_range(low..high)
    }
}

impl RngCore for StreamRng {
    fn next_u32(&mut self) -> u32 {
        self.rng.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.rng.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.rng.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, proptest};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StreamRng::derive(99, "x");
        let mut b = StreamRng::derive(99, "x");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = StreamRng::derive(99, "x");
        let mut b = StreamRng::derive(99, "y");
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams with different labels should be independent");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = StreamRng::derive(7, "normal");
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut rng = StreamRng::derive(8, "exp");
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = StreamRng::derive(9, "chance");
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-5.0));
        assert!(rng.chance(7.0));
    }

    #[test]
    fn draws_consume_the_documented_number_of_uniforms() {
        // (draw, uniforms it consumes): the counts `skip` callers rely on.
        type Draw = fn(&mut StreamRng);
        let draws: [(Draw, usize); 5] = [
            (|rng| _ = rng.standard_normal(), 2),
            (|rng| _ = rng.exponential(1.0), 1),
            (|rng| _ = rng.chance(0.0), 1),
            (|rng| _ = rng.chance(0.5), 1),
            (|rng| _ = rng.chance(1.0), 1),
        ];
        for (i, (draw, uniforms)) in draws.into_iter().enumerate() {
            for seed in 0..64 {
                let mut drawn = StreamRng::derive(seed, "draw-counts");
                let mut skipped = drawn.clone();
                draw(&mut drawn);
                skipped.skip(uniforms);
                assert_eq!(drawn.next_u64(), skipped.next_u64(), "draw {i}, seed {seed}");
            }
        }
        let mut none = StreamRng::derive(1, "draw-counts");
        let mut untouched = none.clone();
        none.skip(0);
        assert_eq!(none.next_u64(), untouched.next_u64());
    }

    #[test]
    fn draws_are_their_word_transforms() {
        // A word converts as `gen::<f64>()` converts it, and each draw is
        // its `*_of` transform of the words it consumes.
        for seed in 0..256 {
            let mut drawn = StreamRng::derive(seed, "word-transforms");
            let mut words = drawn.clone();
            assert_eq!(drawn.gen::<f64>().to_bits(), unit_of(words.word()).to_bits());
            let (first, second) = (words.word(), words.next_u64());
            assert_eq!(
                drawn.standard_normal().to_bits(),
                standard_normal_of(first, second).to_bits()
            );
            let exponential = exponential_of(words.next_u64(), 2.5);
            assert_eq!(drawn.exponential(2.5).to_bits(), exponential.to_bits());
            let word = words.next_u64();
            assert_eq!(drawn.chance(0.3), chance_of(word, 0.3));
            assert!(!chance_of(word, unit_of(word)), "U < U is false");
        }
        // The extreme words: U = 0 gives u₁ = 1 and a zero logarithm; the
        // largest U gives u₁ = 2⁻⁵³.
        assert_eq!(standard_normal_of(0, 0), 0.0);
        assert_eq!(exponential_of(0, 1.0), 0.0);
        let largest = (-2.0 * (1.0f64 / (1u64 << 53) as f64).ln()).sqrt();
        assert_eq!(standard_normal_of(u64::MAX, 0).to_bits(), largest.to_bits());
        assert!(chance_of(u64::MAX, 1.0) && !chance_of(0, 0.0) && chance_of(0, 1e-300));
    }

    #[test]
    fn substreams_are_reproducible_and_distinct() {
        let base = StreamRng::derive(11, "rounds");
        let mut r0a = base.substream(0);
        let mut r0b = base.substream(0);
        let mut r1 = base.substream(1);
        assert_eq!(r0a.next_u64(), r0b.next_u64());
        assert_ne!(r0a.next_u64(), r1.next_u64());
        assert_eq!(r0a.label(), "rounds#0");
    }

    /// The reference [`fnv1a64_chain4`] must equal: four serial chains.
    fn serial_lanes(states: [u64; 4], inputs: [&[u8]; 4]) -> [u64; 4] {
        std::array::from_fn(|lane| fnv1a64_chain(states[lane], inputs[lane]))
    }

    /// `len` bytes and a start state drawn from `seed`.
    fn lane(seed: u64, len: usize) -> (u64, Vec<u8>) {
        let mut state = seed;
        let start = splitmix64(&mut state);
        (start, (0..len).map(|_| splitmix64(&mut state) as u8).collect())
    }

    #[test]
    fn lanes_reproduce_the_pinned_journal_vectors() {
        // The values `vanet-cache` pins because journals on disk hold them.
        let basis = 0xcbf2_9ce4_8422_2325;
        let (empty, a) = (0xcbf2_9ce4_8422_2325, 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64_chain4([basis; 4], [b"", b"a", b"", b"a"]), [empty, a, empty, a]);
        assert_eq!(fnv1a64_chain4([basis; 4], [b"a"; 4]), [a; 4]);
        assert_eq!(fnv1a64_chain4([basis; 4], [b""; 4]), [empty; 4]);
    }

    #[test]
    fn lanes_equal_the_chain_for_empty_long_and_equal_lanes() {
        let lanes: Vec<(u64, Vec<u8>)> = [0, 600, 1, 599, 300, 300, 300, 300]
            .iter()
            .enumerate()
            .map(|(i, &len)| lane(i as u64, len))
            .collect();
        let check = |picks: [usize; 4]| {
            let states = picks.map(|i| lanes[i].0);
            let inputs = picks.map(|i| &lanes[i].1[..]);
            assert_eq!(fnv1a64_chain4(states, inputs), serial_lanes(states, inputs), "{picks:?}");
        };
        check([0, 0, 0, 0]); // all empty
        check([4, 5, 6, 7]); // equal lengths
        for long in 0..4 {
            // One long lane among empty ones, then among short ones.
            let mut picks = [0; 4];
            picks[long] = 1;
            check(picks);
            picks = [2; 4];
            picks[long] = 1;
            check(picks);
        }
        check([1, 3, 0, 2]); // two long lanes, one short, one empty
    }

    proptest! {
        #[test]
        fn prop_lanes_equal_the_chain(
            lens in (0usize..601, 0usize..601, 0usize..601, 0usize..601),
            shape in 0u8..4,
            seed in 0u64..u64::MAX,
        ) {
            let (l0, l1, l2, l3) = lens;
            let lens = match shape {
                0 => [l0, l1, l2, l3],          // independent lengths
                1 => [0; 4],                    // all empty
                2 => {
                    // one long lane, the others short
                    let mut lens = [l1 % 8, l2 % 8, l3 % 8, l0 % 8];
                    lens[l0 % 4] = 600;
                    lens
                }
                _ => [l0; 4],                   // equal lengths
            };
            let lanes: [(u64, Vec<u8>); 4] = std::array::from_fn(|i| lane(seed ^ i as u64, lens[i]));
            let states = lanes.each_ref().map(|(state, _)| *state);
            let inputs = lanes.each_ref().map(|(_, bytes)| &bytes[..]);
            prop_assert!(fnv1a64_chain4(states, inputs) == serial_lanes(states, inputs), "lens {lens:?}");
        }

        #[test]
        fn prop_uniform_within_bounds(low in -1e6f64..1e6, width in 1e-3f64..1e6, seed in 0u64..1000) {
            let mut rng = StreamRng::derive(seed, "uniform");
            let high = low + width;
            for _ in 0..50 {
                let x = rng.uniform(low, high);
                prop_assert!(x >= low && x < high);
            }
        }

        #[test]
        fn prop_chance_frequency_tracks_p(p in 0.0f64..1.0, seed in 0u64..500) {
            let mut rng = StreamRng::derive(seed, "freq");
            let n = 4_000;
            let hits = (0..n).filter(|_| rng.chance(p)).count() as f64 / n as f64;
            prop_assert!((hits - p).abs() < 0.06);
        }
    }
}
