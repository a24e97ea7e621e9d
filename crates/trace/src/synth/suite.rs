//! The 40-trace evaluation suite, mirroring the CBP-4 benchmark set used
//! by the paper: 20 long `SPEC` traces and 5 short traces in each of the
//! `FP`, `INT`, `MM` and `SERV` categories.
//!
//! The real CBP-4 traces are proprietary; each [`TraceSpec`] here is a
//! synthetic stand-in whose *statistical character* matches what the paper
//! reports for that trace (biased-branch fraction, presence and depth of
//! long-distance correlations, loop structure, local-history branches,
//! phase behaviour). See `DESIGN.md` §1 for the substitution argument and
//! §5 for the knob-to-mechanism mapping. Notable per-trace choices:
//!
//! * `SPEC02/06/09` — large biased fractions (Figure 2) and deep
//!   correlations behind distinct-biased filler: the §III-A filter's
//!   best case.
//! * `SPEC03/14/18` — few biased branches, deep correlations behind loop
//!   filler: the recency stack's best case (Figure 9 discussion).
//! * `SPEC07`, `FP2` — local-pattern loops where recency-stack filtering
//!   *loses* useful context (§VI-D).
//! * `SERV1..5` — huge static footprints and phase flips that stress
//!   dynamic bias detection; `SERV3` the hardest (§VI-D).
//! * `MM1..5` — constant-trip loop kernels (loop-predictor territory),
//!   `MM5` with BF-hostile local patterns.

use crate::format::Fnv;
use crate::record::Trace;
use crate::rng::SplitMix64;
use crate::synth::builder::{Filler, ProgramBuilder};
use crate::synth::program::Program;

/// Version of the synthetic trace generator. Any change to record
/// emission — behaviour evaluation, scene selection, seeding,
/// instruction gaps — must bump this, because it is folded into
/// [`TraceSpec::fingerprint`] and therefore invalidates every on-disk
/// trace-cache entry.
pub const GENERATOR_VERSION: u32 = 1;

/// Workload category, mirroring CBP-4's grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Long SPEC2006-derived traces.
    Spec,
    /// Floating-point workloads.
    Fp,
    /// Integer workloads.
    Int,
    /// Multi-media workloads.
    Mm,
    /// Server workloads.
    Serv,
}

impl Category {
    /// All categories in suite order.
    pub const ALL: [Category; 5] = [
        Category::Spec,
        Category::Fp,
        Category::Int,
        Category::Mm,
        Category::Serv,
    ];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Category::Spec => "SPEC",
            Category::Fp => "FP",
            Category::Int => "INT",
            Category::Mm => "MM",
            Category::Serv => "SERV",
        }
    }
}

/// A deep-correlation knob: one `add_deep_block` invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeepKnob {
    /// Dynamic distance between source and first consumer.
    pub distance: usize,
    /// Filler class between source and consumers.
    pub filler: Filler,
    /// Number of consumer branches.
    pub consumers: usize,
    /// Consumer noise (flip probability).
    pub noise: f64,
    /// Deterministic warm-up branches preceding the source.
    pub warmup: usize,
    /// Filler branches separating consecutive consumers.
    pub gap: usize,
    /// Scene selection weight.
    pub weight: u32,
}

/// The complete knob set describing one synthetic trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Knobs {
    /// Straight-line biased runs: `(run_length, weight)` per scene.
    pub bias_runs: Vec<(usize, u32)>,
    /// Near pairwise correlations: `(pairs, noise, weight)` per scene.
    pub near: Vec<(usize, f64, u32)>,
    /// XOR correlations (TAGE-favouring): `(noise, weight)` per scene.
    pub xor: Vec<(f64, u32)>,
    /// Noisy weakly-biased runs: `(run_length, p_lo, p_hi, weight)`.
    pub noise: Vec<(usize, f64, f64, u32)>,
    /// Deep correlation blocks.
    pub deep: Vec<DeepKnob>,
    /// Constant-trip loop kernels: `(trip, body_branches, weight)`.
    pub loops: Vec<(u32, usize, u32)>,
    /// Local-pattern loops: `(period, branches, sweeps, weight)`.
    pub local_loops: Vec<(usize, usize, u32, u32)>,
    /// Phase-flip pools: `(branches, period, weight)`.
    pub phase: Vec<(usize, u64, u32)>,
    /// Figure 4 positional loops: `(modulus, weight)`.
    pub positional: Vec<(u32, u32)>,
}

/// Default number of branch records in a generated long trace.
pub const LONG_TRACE_LEN: usize = 300_000;
/// Default number of branch records in a generated short trace.
pub const SHORT_TRACE_LEN: usize = 100_000;

/// Specification of one suite trace: name, category, and workload knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    name: String,
    category: Category,
    long: bool,
    seed: u64,
    knobs: Knobs,
}

impl TraceSpec {
    /// Creates a spec. The seed is derived from the name so that every
    /// trace is stable independent of suite ordering.
    pub fn new(name: impl Into<String>, category: Category, long: bool, knobs: Knobs) -> Self {
        let name = name.into();
        let mut seed = 0xC0FF_EE00u64;
        for b in name.bytes() {
            seed = SplitMix64::new(seed ^ u64::from(b)).next_u64();
        }
        Self {
            name,
            category,
            long,
            seed,
            knobs,
        }
    }

    /// The trace's name, e.g. `"SPEC03"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The trace's category.
    pub fn category(&self) -> Category {
        self.category
    }

    /// Whether this is one of the 20 long traces.
    pub fn is_long(&self) -> bool {
        self.long
    }

    /// The workload knobs.
    pub fn knobs(&self) -> &Knobs {
        &self.knobs
    }

    /// Default generated length in branch records.
    pub fn default_len(&self) -> usize {
        if self.long {
            LONG_TRACE_LEN
        } else {
            SHORT_TRACE_LEN
        }
    }

    /// Builds the synthetic program for this spec.
    pub fn build_program(&self) -> Program {
        let mut b = ProgramBuilder::new(self.seed);
        for &(len, w) in &self.knobs.bias_runs {
            b.add_bias_run(len, w);
        }
        for &(pairs, noise, w) in &self.knobs.near {
            b.add_near_correlation(pairs, noise, w);
        }
        for &(noise, w) in &self.knobs.xor {
            b.add_xor_correlation(noise, w);
        }
        for &(len, lo, hi, w) in &self.knobs.noise {
            b.add_noise_run(len, (lo, hi), w);
        }
        for d in &self.knobs.deep {
            b.add_deep_block(
                d.distance,
                d.filler,
                d.consumers,
                d.noise,
                d.warmup,
                d.gap,
                d.weight,
            );
        }
        for &(trip, body, w) in &self.knobs.loops {
            b.add_loop_kernel(trip, body, w);
        }
        for &(period, n, sweeps, w) in &self.knobs.local_loops {
            b.add_local_pattern_loop(period, n, sweeps, w);
        }
        for &(n, period, w) in &self.knobs.phase {
            b.add_phase_pool(n, period, w);
        }
        for &(modulus, w) in &self.knobs.positional {
            b.add_positional_loop(modulus, w);
        }
        b.build()
    }

    /// Generates the trace at its default length.
    pub fn generate(&self) -> Trace {
        self.generate_len(self.default_len())
    }

    /// Generates the trace with an explicit record count. Long/short
    /// proportions can be preserved by scaling with [`TraceSpec::is_long`].
    pub fn generate_len(&self, n_records: usize) -> Trace {
        self.build_program()
            .emit(self.name.clone(), n_records, self.seed ^ 0x5EED)
    }

    /// Content fingerprint of the generated trace: an FNV-1a hash over
    /// every input that determines the record sequence — generator
    /// version, name, length class, seed, the full knob set, and the
    /// requested record count. Two specs share a fingerprint iff they
    /// generate byte-identical traces, which makes the fingerprint a
    /// sound content address for the on-disk trace cache
    /// ([`crate::cache::TraceCache`]).
    pub fn fingerprint(&self, n_records: usize) -> u64 {
        // Length-prefixed fields, the framing of the sweep journal's
        // matrix id.
        let mut hash = Fnv::new();
        hash.field(&GENERATOR_VERSION.to_le_bytes());
        hash.field(self.name.as_bytes());
        hash.field(&[u8::from(self.long)]);
        hash.field(&self.seed.to_le_bytes());
        // Knobs carry f64 fields; Debug formatting renders them
        // round-trip exactly, so distinct knob sets cannot collide
        // through lossy formatting.
        hash.field(format!("{:?}", self.knobs).as_bytes());
        hash.field(&(n_records as u64).to_le_bytes());
        hash.finish()
    }
}

/// Warm-up sized so that at least one conventional-TAGE 15-table history
/// length strictly exceeds `distance` while its window still lands inside
/// the scene's deterministic prefix.
fn warmup_for(distance: usize) -> usize {
    // Conventional 15-table history lengths (see `bfbp-tage`): the next
    // length after `distance` defines how much deterministic context the
    // window swallows beyond the source.
    const LENGTHS: [usize; 15] = [
        3, 8, 12, 17, 33, 35, 67, 97, 138, 195, 330, 517, 1193, 1741, 1930,
    ];
    let next = LENGTHS
        .iter()
        .copied()
        .find(|&l| l > distance)
        .unwrap_or(1930);
    (next - distance.min(next)) + 64
}

/// A mid-range correlation: one consumer at `distance` behind biased
/// filler, no gap. These populate the 20..195-branch band that gives
/// conventional TAGE its characteristic accuracy-vs-table-count slope
/// (Figure 10) — real programs have correlations at every distance, not
/// only at the extremes.
fn mid(distance: usize, weight: u32) -> DeepKnob {
    DeepKnob {
        distance,
        filler: Filler::DistinctBiased,
        consumers: 1,
        noise: 0.01,
        warmup: warmup_for(distance),
        gap: 0,
        weight,
    }
}

/// Baseline knobs shared by every trace: near correlations keep all
/// predictors fed, XOR gives the TAGE family its small generic edge, noise
/// sets the irreducible MPKI floor, and a couple of plain loops exercise
/// loop prediction.
fn base_knobs(noise_len: usize, noise_lo: f64, noise_hi: f64) -> Knobs {
    Knobs {
        near: vec![(4, 0.01, 24), (6, 0.01, 16)],
        xor: vec![(0.02, 10), (0.03, 8)],
        noise: vec![(noise_len, noise_lo, noise_hi, 6)],
        deep: vec![mid(25, 12), mid(60, 10), mid(120, 9), mid(180, 8)],
        loops: vec![(12, 2, 8), (25, 3, 6)],
        ..Knobs::default()
    }
}

/// A consumer chain: `consumers` branches all correlated with one
/// source at `distance`, separated by `gap` filler branches. The gap
/// sets which predictors can follow the chain: a predictor needs either
/// an unfiltered history longer than the gap or the ability to filter
/// the gap away. Gaps of 60/90/130 are unlocked by successively longer
/// conventional-TAGE tables (L = 67/97/138); a 210 gap exceeds the
/// 10-table reach (195) and requires 11+ tables or bias-free filtering.
fn chain(distance: usize, filler: Filler, consumers: usize, gap: usize, weight: u32) -> DeepKnob {
    DeepKnob {
        distance,
        filler,
        consumers,
        noise: 0.01,
        warmup: warmup_for(distance),
        gap,
        weight,
    }
}

fn spec_trace(idx: usize) -> TraceSpec {
    let name = format!("SPEC{idx:02}");
    let mut k = base_knobs(12, 0.88, 0.96);
    k.bias_runs = vec![(40, 10), (25, 8)];
    k.positional = vec![(10, 4)];
    // Mid/long correlation chains present in every long trace: gaps of
    // 60/90/130 grade the conventional table-count curve (Figure 10);
    // the 210 gap and the deep sources are the 10-vs-15-table and
    // bias-free content.
    k.deep.extend(vec![
        chain(290, Filler::DistinctBiased, 10, 60, 5),
        chain(480, Filler::DistinctBiased, 10, 90, 4),
        chain(480, Filler::DistinctBiased, 8, 130, 4),
        chain(480, Filler::DistinctBiased, 8, 210, 4),
    ]);
    match idx {
        // Bias-heavy traces (Figure 2) with extra deep reach behind
        // distinct-biased filler: bias filtering's best case.
        2 | 6 | 9 => {
            k.bias_runs = vec![(120, 16), (90, 12), (60, 8)];
            k.deep.push(chain(700, Filler::DistinctBiased, 8, 210, 4));
        }
        // Few biased branches; deterministic-loop filler and gaps that
        // only the recency stack collapses (Figure 9's RS story). All
        // filler is loop-based so the static footprint stays mostly
        // non-biased (Figure 2's low end).
        3 | 14 | 18 => {
            k.bias_runs = vec![(8, 4)];
            k.noise.push((40, 0.55, 0.80, 2));
            k.deep = vec![
                chain(60, Filler::DeterministicLoop, 1, 0, 10),
                chain(140, Filler::DeterministicLoop, 1, 0, 9),
                chain(290, Filler::DeterministicLoop, 10, 60, 5),
                chain(480, Filler::DeterministicLoop, 10, 90, 4),
                chain(480, Filler::DeterministicLoop, 8, 210, 7),
                chain(1150, Filler::DeterministicLoop, 6, 210, 5),
            ];
        }
        // Long-history-sensitive traces: gradual 10-to-15-table gains.
        0 | 10 | 15 | 17 => {
            k.deep.push(chain(1150, Filler::DistinctBiased, 6, 210, 4));
            k.deep
                .push(chain(1650, Filler::DeterministicLoop, 6, 210, 3));
        }
        // Local-history trace: unfiltered history wins (par. VI-D).
        7 => {
            k.local_loops = vec![(24, 2, 4, 4), (90, 1, 3, 3)];
        }
        // Marginal 15-table gains: drop the 210-gap chain so everything
        // sits within 10-table reach.
        5 | 8 | 11 | 19 => {
            k.deep.pop();
            k.deep.push(chain(120, Filler::DistinctBiased, 8, 90, 4));
        }
        // Noisy-loop filler: perceptron-style summation handles the body
        // noise best.
        4 | 12 => {
            k.deep.push(chain(350, Filler::LoopedNonBiased, 8, 90, 3));
        }
        _ => {
            k.deep
                .push(chain(480, Filler::DeterministicLoop, 6, 210, 4));
        }
    }
    TraceSpec::new(name, Category::Spec, true, k)
}

fn fp_trace(idx: usize) -> TraceSpec {
    let name = format!("FP{idx}");
    // Floating-point: very predictable, heavy loops, low noise floor.
    let mut k = base_knobs(8, 0.93, 0.98);
    k.bias_runs = vec![(70, 14), (40, 10)];
    k.loops = vec![(40, 3, 10), (64, 2, 8), (16, 2, 6)];
    k.deep.push(chain(290, Filler::DistinctBiased, 8, 90, 4));
    match idx {
        1 => {
            // FP1: biased-heavy but dynamic detection suffers (par. VI-D):
            // phase flips churn the BST.
            k.phase = vec![(24, 6_000, 10)];
            k.deep.push(chain(480, Filler::DistinctBiased, 6, 210, 4));
        }
        2 => {
            // FP2: local-history branches; recency-stack filtering loses.
            k.local_loops = vec![(20, 2, 4, 3), (110, 1, 3, 2)];
        }
        _ => {
            k.deep.push(chain(480, Filler::DistinctBiased, 6, 210, 3));
        }
    }
    TraceSpec::new(name, Category::Fp, false, k)
}

fn int_trace(idx: usize) -> TraceSpec {
    let name = format!("INT{idx}");
    let mut k = base_knobs(10, 0.88, 0.95);
    k.bias_runs = vec![(45, 10), (25, 6)];
    k.positional = vec![(12, 5)];
    k.deep.extend(vec![
        chain(290, Filler::DistinctBiased, 8, 60, 4),
        chain(480, Filler::DistinctBiased, 8, 130, 4),
    ]);
    match idx {
        // INT1/INT4: benefit from bias-free history (Figure 9 text);
        1 | 4 => {
            k.bias_runs = vec![(70, 14), (45, 10)];
            k.deep.push(chain(480, Filler::DistinctBiased, 8, 210, 4));
        }
        // INT5: long-history sensitive (par. VI-D list).
        5 => {
            k.deep
                .push(chain(1150, Filler::DeterministicLoop, 6, 210, 4));
        }
        _ => {
            k.deep
                .push(chain(480, Filler::DeterministicLoop, 6, 210, 3));
        }
    }
    TraceSpec::new(name, Category::Int, false, k)
}

fn mm_trace(idx: usize) -> TraceSpec {
    let name = format!("MM{idx}");
    // Multi-media: kernel loops with constant trip counts.
    let mut k = base_knobs(9, 0.90, 0.96);
    k.bias_runs = vec![(35, 8)];
    k.loops = vec![(32, 4, 12), (80, 2, 8), (8, 3, 8)];
    k.deep.push(chain(290, Filler::DistinctBiased, 6, 90, 3));
    match idx {
        3 => {
            // MM3 benefits from bias-free history (Figure 9 text).
            k.bias_runs = vec![(80, 14), (50, 10)];
            k.deep.push(chain(400, Filler::DistinctBiased, 6, 210, 3));
        }
        5 => {
            // MM5: BF-hostile -- local patterns plus detection churn.
            k.local_loops = vec![(22, 2, 4, 4)];
            k.phase = vec![(20, 5_000, 8)];
        }
        _ => {
            k.deep.push(chain(180, Filler::DeterministicLoop, 4, 90, 3));
        }
    }
    TraceSpec::new(name, Category::Mm, false, k)
}

fn serv_trace(idx: usize) -> TraceSpec {
    let name = format!("SERV{idx}");
    // Server: huge static footprint, high biased fraction, phase flips
    // that stress dynamic bias detection (par. VI-D).
    let mut k = base_knobs(12, 0.87, 0.95);
    k.bias_runs = vec![(120, 14), (90, 12), (70, 10), (50, 8)];
    k.near = vec![(4, 0.01, 20), (8, 0.01, 14), (6, 0.01, 10)];
    k.phase = vec![(30, 8_000, 8)];
    k.deep.push(chain(250, Filler::DistinctBiased, 6, 60, 3));
    if idx == 3 {
        // SERV3 suffers most from dynamic detection: denser flips.
        k.phase = vec![(40, 3_500, 14), (24, 9_000, 8)];
    }
    TraceSpec::new(name, Category::Serv, false, k)
}

/// Returns the full 40-trace suite in the paper's presentation order:
/// `SPEC00..SPEC19`, `FP1..FP5`, `INT1..INT5`, `MM1..MM5`,
/// `SERV1..SERV5`.
pub fn suite() -> Vec<TraceSpec> {
    let mut specs = Vec::with_capacity(40);
    specs.extend((0..20).map(spec_trace));
    specs.extend((1..=5).map(fp_trace));
    specs.extend((1..=5).map(int_trace));
    specs.extend((1..=5).map(mm_trace));
    specs.extend((1..=5).map(serv_trace));
    specs
}

/// Looks up a suite trace by name (case-sensitive).
pub fn find(name: &str) -> Option<TraceSpec> {
    suite().into_iter().find(|s| s.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::BiasProfile;

    #[test]
    fn suite_has_forty_named_traces() {
        let specs = suite();
        assert_eq!(specs.len(), 40);
        let names: Vec<&str> = specs.iter().map(|s| s.name()).collect();
        assert_eq!(names[0], "SPEC00");
        assert_eq!(names[19], "SPEC19");
        assert_eq!(names[20], "FP1");
        assert_eq!(names[25], "INT1");
        assert_eq!(names[30], "MM1");
        assert_eq!(names[35], "SERV1");
        assert_eq!(names[39], "SERV5");
        // All distinct.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40);
    }

    #[test]
    fn long_short_split_matches_cbp() {
        let specs = suite();
        assert_eq!(specs.iter().filter(|s| s.is_long()).count(), 20);
        assert!(specs.iter().take(20).all(|s| s.is_long()));
        assert!(specs.iter().skip(20).all(|s| !s.is_long()));
    }

    #[test]
    fn categories_are_grouped() {
        let specs = suite();
        assert!(specs[..20].iter().all(|s| s.category() == Category::Spec));
        assert!(specs[20..25].iter().all(|s| s.category() == Category::Fp));
        assert!(specs[25..30].iter().all(|s| s.category() == Category::Int));
        assert!(specs[30..35].iter().all(|s| s.category() == Category::Mm));
        assert!(specs[35..40].iter().all(|s| s.category() == Category::Serv));
    }

    #[test]
    fn find_locates_traces() {
        assert!(find("SPEC03").is_some());
        assert!(find("SERV3").is_some());
        assert!(find("NOPE").is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = find("SPEC00").unwrap();
        let a = spec.generate_len(5_000);
        let b = spec.generate_len(5_000);
        assert_eq!(a, b);
    }

    #[test]
    fn traces_differ_across_names() {
        let a = find("SPEC00").unwrap().generate_len(5_000);
        let b = find("SPEC01").unwrap().generate_len(5_000);
        assert_ne!(a, b);
    }

    #[test]
    fn generated_length_matches_request() {
        let spec = find("FP1").unwrap();
        assert_eq!(spec.generate_len(1234).len(), 1234);
        assert_eq!(spec.default_len(), SHORT_TRACE_LEN);
        assert_eq!(find("SPEC00").unwrap().default_len(), LONG_TRACE_LEN);
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a = find("SPEC00").unwrap();
        let b = find("SPEC01").unwrap();
        assert_eq!(a.fingerprint(1000), a.fingerprint(1000));
        assert_ne!(a.fingerprint(1000), b.fingerprint(1000));
        assert_ne!(a.fingerprint(1000), a.fingerprint(2000));
        // The whole suite at one length: 40 distinct fingerprints.
        let mut prints: Vec<u64> = suite().iter().map(|s| s.fingerprint(5000)).collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), 40);
    }

    /// The fingerprint names every trace-cache entry on disk; a change
    /// to its hashing orphans every existing entry, so one value is
    /// pinned.
    #[test]
    fn fingerprint_is_pinned() {
        let spec = find("SPEC03").unwrap();
        assert_eq!(spec.fingerprint(5000), 0x3c31_c118_0f35_6fff);
    }

    #[test]
    fn bias_ordering_matches_figure_2_story() {
        // SPEC02 (bias-heavy) must have a much higher static biased
        // fraction than SPEC03 (bias-light).
        let heavy = BiasProfile::measure(&find("SPEC02").unwrap().generate_len(60_000));
        let light = BiasProfile::measure(&find("SPEC03").unwrap().generate_len(60_000));
        assert!(
            heavy.static_biased_percent() > light.static_biased_percent() + 20.0,
            "heavy {:.1}% vs light {:.1}%",
            heavy.static_biased_percent(),
            light.static_biased_percent()
        );
    }

    #[test]
    fn serv_traces_have_large_footprint() {
        let serv = BiasProfile::measure(&find("SERV1").unwrap().generate_len(60_000));
        let fp = BiasProfile::measure(&find("FP3").unwrap().generate_len(60_000));
        assert!(serv.static_conditionals() > fp.static_conditionals());
    }

    #[test]
    fn warmup_covers_next_history_length() {
        // distance 600 → next conventional length is 1193; warm-up must
        // bridge the gap.
        assert!(warmup_for(600) >= 1193 - 600);
        assert!(warmup_for(100) >= 38);
        // Beyond the longest table, only slack remains.
        assert_eq!(warmup_for(2500), 64);
    }
}
