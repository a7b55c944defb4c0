//! Min-area multi-level skid buffer placement (paper §4.3, Fig. 12).
//!
//! Instead of one `(N+1)`-deep buffer of the output width at the end of the
//! pipeline, buffers can be placed at intermediate stages: a buffer after
//! stage `M` must hold the data of all stages up to `M` (depth `M - prev`
//! +1) at the width passing through stage `M`. Splitting at narrow "waist"
//! stages (e.g. the scalar between a reduction tree and a vector broadcast,
//! Fig. 17) shrinks total bits dramatically. The optimal cut set is found
//! by dynamic programming over prefixes.

/// An optimal buffer placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitPlan {
    /// Stages (1-based) after which a buffer is placed. Always ends with
    /// the final stage.
    pub cuts: Vec<usize>,
    /// Total buffer bits of this plan.
    pub total_bits: u64,
    /// Bits of the naive single end buffer, for comparison.
    pub naive_bits: u64,
}

impl SplitPlan {
    /// Area saving versus the naive plan, as a fraction in `[0, 1]`.
    pub fn saving(&self) -> f64 {
        if self.naive_bits == 0 {
            0.0
        } else {
            1.0 - self.total_bits as f64 / self.naive_bits as f64
        }
    }
}

/// Computes the min-area buffer split for a pipeline whose stage `i`
/// (1-based) passes `widths[i-1]` bits to stage `i+1` (the last entry is
/// the pipeline output width).
///
/// Cost model (from the paper): a segment of stages `j+1 ..= i` buffered
/// after stage `i` costs `(i - j + 1) * widths[i-1]` bits. DP over `i` with
/// `best[i] = min over j < i of best[j] + (i - j + 1) * w[i]`.
///
/// Returns the empty plan for an empty pipeline.
pub fn min_area_split(widths: &[u64]) -> SplitPlan {
    let n = widths.len();
    if n == 0 {
        return SplitPlan {
            cuts: vec![],
            total_bits: 0,
            naive_bits: 0,
        };
    }
    // best[i] = min bits to buffer stages 1..=i with a cut at stage i.
    let mut best = vec![u64::MAX; n + 1];
    let mut prev = vec![0usize; n + 1];
    best[0] = 0;
    for i in 1..=n {
        let w = widths[i - 1];
        for j in 0..i {
            let cost = best[j].saturating_add((i - j + 1) as u64 * w);
            if cost < best[i] {
                best[i] = cost;
                prev[i] = j;
            }
        }
    }
    let mut cuts = Vec::new();
    let mut cur = n;
    while cur > 0 {
        cuts.push(cur);
        cur = prev[cur];
    }
    cuts.reverse();
    SplitPlan {
        cuts,
        total_bits: best[n],
        naive_bits: (n as u64 + 1) * widths[n - 1],
    }
}

/// Exhaustive reference implementation for small `n` (testing only).
pub fn brute_force_split(widths: &[u64]) -> u64 {
    let n = widths.len();
    if n == 0 {
        return 0;
    }
    // Enumerate all subsets of interior cut positions {1..n-1}; the final
    // stage is always a cut.
    let mut best = u64::MAX;
    let interior = n - 1;
    for mask in 0u32..(1 << interior) {
        let mut cuts: Vec<usize> = (1..n).filter(|&i| mask & (1 << (i - 1)) != 0).collect();
        cuts.push(n);
        let mut total = 0u64;
        let mut start = 0usize;
        for &c in &cuts {
            total += (c - start + 1) as u64 * widths[c - 1];
            start = c;
        }
        best = best.min(total);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_rng::Rng;

    #[test]
    fn paper_fig17_example() {
        // 56 stages of 32-bit scalar chain, then 5 stages of 1024-bit
        // vector: optimal = (56+1)*32 + (5+1)*1024 = 7968 bits.
        let mut widths = vec![32u64; 56];
        widths.extend([1024u64; 5]);
        let plan = min_area_split(&widths);
        assert_eq!(plan.total_bits, 7_968);
        assert_eq!(plan.cuts, vec![56, 61]);
        assert_eq!(plan.naive_bits, 63_488);
        assert!(plan.saving() > 0.87);
    }

    #[test]
    fn uniform_width_prefers_single_buffer() {
        // With constant width, any extra cut adds a +1 depth overhead.
        let widths = vec![64u64; 10];
        let plan = min_area_split(&widths);
        assert_eq!(plan.cuts, vec![10]);
        assert_eq!(plan.total_bits, plan.naive_bits);
    }

    #[test]
    fn spindle_shape_keeps_end_buffer() {
        // Narrow -> wide ("spindle", like the paper's 8-iteration Jacobi):
        // best strategy is the whole buffer at the end only if no interior
        // waist is narrower than the output.
        let widths = vec![512u64, 512, 512, 512];
        let plan = min_area_split(&widths);
        assert_eq!(plan.cuts, vec![4]);
    }

    #[test]
    fn empty_pipeline() {
        let plan = min_area_split(&[]);
        assert_eq!(plan.total_bits, 0);
        assert!(plan.cuts.is_empty());
    }

    #[test]
    fn single_stage() {
        let plan = min_area_split(&[128]);
        assert_eq!(plan.cuts, vec![1]);
        assert_eq!(plan.total_bits, 2 * 128);
    }

    #[test]
    fn matches_brute_force_on_fixed_cases() {
        for widths in [
            vec![8u64, 8, 1, 64, 64],
            vec![100, 1, 100, 1, 100],
            vec![3, 9, 27, 81],
            vec![32; 7],
        ] {
            assert_eq!(
                min_area_split(&widths).total_bits,
                brute_force_split(&widths),
                "widths {widths:?}"
            );
        }
    }

    fn random_widths(rng: &mut Rng, max_w: u64, max_len: usize) -> Vec<u64> {
        let len = rng.gen_index(max_len) + 1;
        (0..len).map(|_| rng.gen_u64(1, max_w)).collect()
    }

    #[test]
    fn dp_is_optimal() {
        let mut rng = Rng::seed_from_u64(0xD15_7001);
        for _ in 0..256 {
            let widths = random_widths(&mut rng, 1999, 9);
            let dp = min_area_split(&widths);
            let bf = brute_force_split(&widths);
            assert_eq!(dp.total_bits, bf, "widths {widths:?}");
        }
    }

    #[test]
    fn dp_never_worse_than_naive() {
        let mut rng = Rng::seed_from_u64(0xD15_7002);
        for _ in 0..256 {
            let widths = random_widths(&mut rng, 4999, 39);
            let dp = min_area_split(&widths);
            assert!(dp.total_bits <= dp.naive_bits, "widths {widths:?}");
            // Cuts are strictly increasing and end at n.
            assert_eq!(*dp.cuts.last().unwrap(), widths.len());
            for w in dp.cuts.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }
}
