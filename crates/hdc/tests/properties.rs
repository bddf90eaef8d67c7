//! Property-based tests for the HDC substrate: algebraic laws of binding,
//! bundling and permutation, and consistency between the bipolar form and
//! the engine's packed 1-bit rows (`BipolarHypervector::to_packed`).

use hdc::{bundler::bundle_bipolar, BipolarHypervector, Bundler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inverse of `to_packed`: bit `i` set ↔ sign `i` is `-1`.
fn unpack(words: &[u64], dim: usize) -> BipolarHypervector {
    let signs: Vec<i8> = (0..dim)
        .map(|i| {
            if (words[i / 64] >> (i % 64)) & 1 == 1 {
                -1
            } else {
                1
            }
        })
        .collect();
    BipolarHypervector::from_signs(&signs)
}

/// A random packed row of `dim` bits with the tail bits clear.
fn random_packed(dim: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut words: Vec<u64> = (0..dim.div_ceil(64)).map(|_| rng.gen::<u64>()).collect();
    engine::mask_tail_word(dim, &mut words);
    words
}

fn xor(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().zip(b).map(|(x, y)| x ^ y).collect()
}

fn hamming(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x ^ y).count_ones()))
        .sum()
}

/// The similarity the engine serves for two packed rows.
fn packed_similarity(a: &[u64], b: &[u64], dim: usize) -> f32 {
    engine::similarity_from_hamming(dim, hamming(a, b))
}

/// Strategy producing a pair of independent random bipolar hypervectors of a
/// shared (moderate) dimensionality plus the RNG seed used to build them.
fn hv_pair() -> impl Strategy<Value = (BipolarHypervector, BipolarHypervector)> {
    (64usize..1024, any::<u64>()).prop_map(|(dim, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            BipolarHypervector::random(dim, &mut rng),
            BipolarHypervector::random(dim, &mut rng),
        )
    })
}

fn hv_triple() -> impl Strategy<Value = (BipolarHypervector, BipolarHypervector, BipolarHypervector)>
{
    (64usize..512, any::<u64>()).prop_map(|(dim, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            BipolarHypervector::random(dim, &mut rng),
            BipolarHypervector::random(dim, &mut rng),
            BipolarHypervector::random(dim, &mut rng),
        )
    })
}

proptest! {
    #[test]
    fn binding_is_commutative((a, b) in hv_pair()) {
        prop_assert_eq!(a.bind(&b), b.bind(&a));
    }

    #[test]
    fn binding_is_self_inverse((a, b) in hv_pair()) {
        prop_assert_eq!(a.bind(&b).bind(&b), a);
    }

    #[test]
    fn binding_is_associative((a, b, c) in hv_triple()) {
        prop_assert_eq!(a.bind(&b).bind(&c), a.bind(&b.bind(&c)));
    }

    #[test]
    fn binding_preserves_similarity((a, b, c) in hv_triple()) {
        let before = a.cosine(&b);
        let after = a.bind(&c).cosine(&b.bind(&c));
        prop_assert!((before - after).abs() < 1e-6);
    }

    #[test]
    fn cosine_is_symmetric_and_bounded((a, b) in hv_pair()) {
        let ab = a.cosine(&b);
        let ba = b.cosine(&a);
        prop_assert!((ab - ba).abs() < 1e-6);
        prop_assert!((-1.0..=1.0).contains(&ab));
        prop_assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn binary_bipolar_roundtrip((a, _b) in hv_pair()) {
        prop_assert_eq!(unpack(&a.to_packed(), a.dim()), a);
    }

    #[test]
    fn binary_similarity_equals_bipolar_cosine((a, b) in hv_pair()) {
        let packed_sim = packed_similarity(&a.to_packed(), &b.to_packed(), a.dim());
        prop_assert_eq!(packed_sim.to_bits(), a.cosine(&b).to_bits());
    }

    #[test]
    fn xor_binding_commutes_with_conversion((a, b) in hv_pair()) {
        let via_packed = unpack(&xor(&a.to_packed(), &b.to_packed()), a.dim());
        prop_assert_eq!(via_packed, a.bind(&b));
    }

    #[test]
    fn permutation_is_invertible((a, _b) in hv_pair(), shift in 0usize..2048) {
        let d = a.dim();
        let permuted = a.permute(shift);
        let back = permuted.permute(d - (shift % d));
        prop_assert_eq!(back, a);
    }

    #[test]
    fn permutation_preserves_pairwise_similarity((a, b) in hv_pair(), shift in 0usize..2048) {
        let before = a.cosine(&b);
        let after = a.permute(shift).cosine(&b.permute(shift));
        prop_assert!((before - after).abs() < 1e-6);
    }

    #[test]
    fn bundle_contains_every_item(seed in any::<u64>(), n in 1usize..9) {
        let dim = 2048;
        let mut rng = StdRng::seed_from_u64(seed);
        let items: Vec<_> = (0..n).map(|_| BipolarHypervector::random(dim, &mut rng)).collect();
        let bundle = bundle_bipolar(&items).expect("non-empty");
        // Each constituent must be markedly more similar to the bundle than
        // an unrelated random hypervector would be (|cos| ≈ 0.02 at d=2048).
        for item in &items {
            prop_assert!(bundle.cosine(item) > 0.15, "cos = {}", bundle.cosine(item));
        }
    }

    #[test]
    fn binary_hamming_triangle_inequality(seed in any::<u64>(), dim in 64usize..512) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_packed(dim, &mut rng);
        let b = random_packed(dim, &mut rng);
        let c = random_packed(dim, &mut rng);
        prop_assert!(hamming(&a, &c) <= hamming(&a, &b) + hamming(&b, &c));
    }

    #[test]
    fn binary_popcount_bounds(seed in any::<u64>(), dim in 1usize..512) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = BipolarHypervector::random(dim, &mut rng);
        let ones: u32 = a.to_packed().iter().map(|w| w.count_ones()).sum();
        let negatives = a.as_slice().iter().filter(|&&s| s == -1).count();
        prop_assert_eq!(ones as usize, negatives);
        prop_assert!(ones as usize <= dim);
    }
}

// Exactness laws of the i32-counter bundler that streaming continual
// learning builds on: addition order never matters, any partition of a
// stream across bundlers merges back to the sequential result, and the
// counters stay exact at counts far past what a vote-margin could track.
proptest! {
    #[test]
    fn bundling_is_order_independent(seed in any::<u64>(), n in 2usize..10) {
        let dim = 256;
        let mut rng = StdRng::seed_from_u64(seed);
        let items: Vec<_> =
            (0..n).map(|_| BipolarHypervector::random(dim, &mut rng)).collect();
        // A seed-derived rotation gives a nontrivial permutation of the
        // addition order without needing a permutation strategy.
        let shift = (seed % n as u64) as usize;
        let mut forward = Bundler::new(dim);
        let mut rotated = Bundler::new(dim);
        for hv in &items {
            forward.add(hv);
        }
        for i in 0..n {
            rotated.add(&items[(i + shift) % n]);
        }
        prop_assert_eq!(forward.counts(), rotated.counts());
        prop_assert_eq!(forward.finish(), rotated.finish());
    }

    #[test]
    fn merge_equals_sequential_addition(seed in any::<u64>(), n in 1usize..12, split in 0usize..12) {
        let dim = 192;
        let split = split % (n + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let items: Vec<_> =
            (0..n).map(|_| BipolarHypervector::random(dim, &mut rng)).collect();
        let mut sequential = Bundler::new(dim);
        for hv in &items {
            sequential.add(hv);
        }
        let mut left = Bundler::new(dim);
        let mut right = Bundler::new(dim);
        for hv in &items[..split] {
            left.add(hv);
        }
        for hv in &items[split..] {
            right.add(hv);
        }
        left.merge(&right);
        prop_assert_eq!(left.counts(), sequential.counts());
        prop_assert_eq!(left.len(), sequential.len());
        if !left.is_empty() {
            prop_assert_eq!(left.finish(), sequential.finish());
        }
    }

    #[test]
    fn counters_stay_exact_at_large_counts(seed in any::<u64>(), weight in 1i32..1_000_000) {
        // Weighted adds reach counter magnitudes a float (or saturating
        // vote) accumulator would corrupt; the i32 counters must hold the
        // exact algebraic sum.
        let dim = 64;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = BipolarHypervector::random(dim, &mut rng);
        let b = BipolarHypervector::random(dim, &mut rng);
        let mut bundler = Bundler::new(dim);
        bundler.try_add_weighted(&a, weight).expect("same dim");
        bundler.try_add_weighted(&b, weight - 1).expect("same dim");
        bundler.try_add_weighted(&a, -weight).expect("same dim");
        // The ±weight contributions of `a` cancel exactly, leaving only
        // (weight - 1) · b — no drift, no rounding, at any magnitude.
        let expected: Vec<i32> =
            b.as_slice().iter().map(|&s| (weight - 1) * s as i32).collect();
        prop_assert_eq!(bundler.counts(), expected.as_slice());
        if weight > 1 {
            prop_assert_eq!(bundler.finish(), b);
        }
    }
}

// Round-trip properties of the bipolar ↔ packed isomorphism (`+1 ↔ 0`,
// `-1 ↔ 1`): the algebra (bind, bundle, similarity) must commute with the
// conversion in both directions, so serving the 1-bit rows is exact.
proptest! {
    #[test]
    fn binary_roundtrip_from_binary_side(seed in any::<u64>(), dim in 1usize..1024) {
        let mut rng = StdRng::seed_from_u64(seed);
        let words = random_packed(dim, &mut rng);
        prop_assert_eq!(unpack(&words, dim).to_packed(), words);
    }

    /// XOR of the packed words is the packed Hadamard bind: binding needs no
    /// unpacking on a 1-bit device.
    #[test]
    fn bind_commutes_with_conversion_bipolar_to_binary((a, b) in hv_pair()) {
        prop_assert_eq!(a.bind(&b).to_packed(), xor(&a.to_packed(), &b.to_packed()));
    }

    #[test]
    fn similarity_commutes_with_conversion_binary_to_bipolar(
        seed in any::<u64>(),
        dim in 64usize..1024,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_packed(dim, &mut rng);
        let b = random_packed(dim, &mut rng);
        let packed_sim = packed_similarity(&a, &b, dim);
        let bipolar_sim = unpack(&a, dim).cosine(&unpack(&b, dim));
        prop_assert_eq!(packed_sim.to_bits(), bipolar_sim.to_bits());
    }

    #[test]
    fn bundle_commutes_with_conversion(seed in any::<u64>(), k in 0usize..4) {
        // Odd operand counts so the majority vote is tie-free and the
        // property is intrinsic to the algebra, not to tie-break policy.
        let n = 2 * k + 1;
        let dim = 1024;
        let mut rng = StdRng::seed_from_u64(seed);
        let items: Vec<BipolarHypervector> =
            (0..n).map(|_| BipolarHypervector::random(dim, &mut rng)).collect();
        let packed: Vec<Vec<u64>> = items.iter().map(BipolarHypervector::to_packed).collect();
        // Bitwise majority over the packed rows.
        let mut majority = vec![0u64; dim.div_ceil(64)];
        for bit in 0..dim {
            let set = packed
                .iter()
                .filter(|words| (words[bit / 64] >> (bit % 64)) & 1 == 1)
                .count();
            if 2 * set > n {
                majority[bit / 64] |= 1 << (bit % 64);
            }
        }
        prop_assert_eq!(bundle_bipolar(&items).expect("non-empty").to_packed(), majority);
    }

    #[test]
    fn bundle_similarity_commutes_with_conversion(seed in any::<u64>(), k in 1usize..4) {
        let n = 2 * k + 1;
        let dim = 2048;
        let mut rng = StdRng::seed_from_u64(seed);
        let items: Vec<BipolarHypervector> =
            (0..n).map(|_| BipolarHypervector::random(dim, &mut rng)).collect();
        let bundle = bundle_bipolar(&items).expect("non-empty");
        for item in &items {
            let bipolar_sim = bundle.cosine(item);
            let packed_sim = packed_similarity(&bundle.to_packed(), &item.to_packed(), dim);
            prop_assert_eq!(
                bipolar_sim.to_bits(),
                packed_sim.to_bits(),
                "cosine {} vs hamming-derived {}",
                bipolar_sim,
                packed_sim
            );
        }
    }
}
