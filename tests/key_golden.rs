//! Golden content keys: every key a persistent store or ledger holds on
//! disk, pinned to the values the formatting hasher produced.
//!
//! * `Flow::config_key` for the nine paper benchmarks × {none, all} at
//!   their paper settings, five fuzzed designs and one flow with forced
//!   register injection — the result-store and explore-log key;
//! * the front-end and schedule stage keys and artifact fingerprints a
//!   cold probe publishes, read back as `StageRecord`s from a disk store;
//! * `hlsb_store::combine` and one ledger `RunRecord` digest.
//!
//! A warm `--store`, `--ledger` or explore log written by an earlier
//! build hits only if these values never move; any change to how a key
//! is hashed must keep every entry here bit-identical.

use std::path::PathBuf;
use std::sync::Arc;

use hlsb::{Flow, FlowSession, OptimizationOptions, RegisterInjection};
use hlsb_benchmarks::all_benchmarks;
use hlsb_store::{ArtifactStore, JsonlRecord, JsonlTable, StageRecord, SHARD_COUNT};
use hlsb_telemetry::RunRecord;

/// `(design, options, config_key)` at each benchmark's paper device and
/// clock.
const BENCH_KEYS: &[(&str, &str, u64)] = &[
    ("genome_chaining", "none", 0xac5d765bd456a6ee),
    ("genome_chaining", "all", 0x93acaef65518ad58),
    ("lstm_gate", "none", 0x06a07ae742018c41),
    ("lstm_gate", "all", 0x203ff6c42334c16b),
    ("face_detect", "none", 0x028b3dbb89983425),
    ("face_detect", "all", 0xf8b6f243618b1b7f),
    ("matmul", "none", 0xf6360c0499e6e4b9),
    ("matmul", "all", 0xe855a5969e728563),
    ("stream_buffer", "none", 0x3cd988c057b74b2a),
    ("stream_buffer", "all", 0x36e1cb8749ffe624),
    ("jacobi_pipeline", "none", 0x94934e36cc4d0049),
    ("jacobi_pipeline", "all", 0x2a7be7608931f893),
    ("vector_product", "none", 0x91478ddac6bd442a),
    ("vector_product", "all", 0x8b4fd0a1b905df24),
    ("hbm_stencil_scatter", "none", 0x1aa39bd531ea6fba),
    ("hbm_stencil_scatter", "all", 0xa19428331507c894),
    ("pattern_match", "none", 0x7b1d61d557eda920),
    ("pattern_match", "all", 0x45cc4f6b0b98fef2),
];

/// `config_key` of `fuzz:<seed>` for seeds 0..5 (default flow, all
/// optimizations, as `hlsb-serve` resolves it).
const FUZZ_KEYS: &[u64] = &[
    0x42df19e4a5d65a95,
    0x02cf0b03a611c7d8,
    0x92da4f5420cea087,
    0xb0cc581150b88407,
    0x1940d4960c78d330,
];

/// `config_key` of stream_buffer (all optimizations) with registers
/// forced at boundaries 1 and 2.
const INJECT_KEY: u64 = 0x3f7318338bb400a9;

/// `(stage, key, fingerprint)` of every stage record a cold probe of
/// [`probe_flows`] publishes, sorted.
const STAGE_RECORDS: &[(&str, u64, u64)] = &[
    ("front_end", 0x1585b1e7912f6a97, 0xade2c188894feedd),
    ("front_end", 0x8fac06b1ca5a0776, 0x769fb1ac55fd7cca),
    ("front_end", 0x9728b4522c750f3c, 0xa3b7fbf87e3764ca),
    ("front_end", 0xaea6cdbad5495197, 0x769fb1ac55fd7cca),
    ("schedule", 0x30f0560064884347, 0x62a8da98671da807),
    ("schedule", 0x3219be5566885b84, 0xde0d7428183e6e0d),
    ("schedule", 0x774d1dbb11482791, 0x914e66bbbba3265f),
    ("schedule", 0xb18a2315b03d3171, 0x5a68b725a27ccff0),
    ("schedule", 0xc5cc1ff6652bcd79, 0xc18dd14520ed4a39),
    ("schedule", 0xe0a75c08c956f5c6, 0xe2b919eee15f12ac),
];

/// `hlsb_store::combine(&[1, 2, 3])`.
const COMBINE: u64 = 0xda2bfb225e0d1f05;

/// Digest of [`ledger_record`].
const LEDGER_DIGEST: u64 = 0xcfd7001d596ea3e6;

fn options(name: &str) -> OptimizationOptions {
    match name {
        "none" => OptimizationOptions::none(),
        "all" => OptimizationOptions::all(),
        _ => unreachable!("{name}"),
    }
}

fn bench_flow(name: &str, opts: &str) -> Flow {
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.design.name == name)
        .unwrap_or_else(|| panic!("no benchmark {name}"));
    Flow::new(b.design)
        .device(b.device)
        .clock_mhz(b.clock_mhz)
        .options(options(opts))
}

fn fuzz_flow(seed: u64) -> Flow {
    Flow::new(hlsb_sim::fuzz::random_design(seed))
        .clock_mhz(300.0)
        .options(OptimizationOptions::all())
}

fn inject_flow() -> Flow {
    bench_flow("stream_buffer", "all").inject(RegisterInjection::at(vec![1, 2]))
}

/// The flows whose cold probe publishes [`STAGE_RECORDS`]: baseline and
/// broadcast-aware schedules, a split and an unsplit front end, and an
/// injected schedule.
fn probe_flows() -> Vec<Flow> {
    vec![
        bench_flow("stream_buffer", "none"),
        bench_flow("stream_buffer", "all"),
        bench_flow("vector_product", "all"),
        fuzz_flow(0),
        fuzz_flow(0).options(OptimizationOptions::none()),
        inject_flow(),
    ]
}

fn ledger_record() -> RunRecord {
    let mut rec = RunRecord::new("flow", "stream_buffer", 0x0123_4567_89ab_cdef, "ok", 12.5);
    rec.add_stage("front-end", 1.25);
    rec.add_count("front-end.executions", 1);
    rec.add_count("schedule.cache-hits", 2);
    rec.add_count("implement.moves", 123_456);
    rec
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hlsb-key-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Prints a table of actual values in this file's source form, so a
/// mismatch shows exactly what moved.
fn render<T: std::fmt::Debug>(rows: &[T]) -> String {
    rows.iter().map(|r| format!("    {r:x?},\n")).collect()
}

#[test]
fn config_keys_are_golden() {
    let mut bench = Vec::new();
    for b in all_benchmarks() {
        for opts in ["none", "all"] {
            let key = bench_flow(&b.design.name, opts).config_key();
            bench.push((b.design.name.clone(), opts, key));
        }
    }
    let expected: Vec<(String, &str, u64)> = BENCH_KEYS
        .iter()
        .map(|&(d, o, k)| (d.to_string(), o, k))
        .collect();
    assert_eq!(
        bench,
        expected,
        "benchmark config keys moved:\n{}",
        render(&bench)
    );

    let fuzz: Vec<u64> = (0..5).map(|s| fuzz_flow(s).config_key()).collect();
    assert_eq!(
        fuzz,
        FUZZ_KEYS,
        "fuzz config keys moved:\n{}",
        render(&fuzz)
    );

    let inject = inject_flow().config_key();
    assert_eq!(
        inject, INJECT_KEY,
        "injection config key moved: {inject:#x}"
    );
    assert_ne!(inject, bench_flow("stream_buffer", "all").config_key());
}

#[test]
fn clones_and_rebuilt_flows_share_config_keys() {
    // A key never depends on how a flow was obtained: a clone, a clone
    // with an unrelated flag flipped, and a flow rebuilt from scratch
    // all key alike, and a changed clock keys apart.
    let flow = fuzz_flow(3);
    let key = flow.config_key();
    assert_eq!(flow.clone().config_key(), key);
    assert_eq!(flow.clone().verify(true).trace(true).config_key(), key);
    assert_eq!(fuzz_flow(3).config_key(), key);
    assert_ne!(flow.clone().clock_mhz(301.0).config_key(), key);
    assert_eq!(
        flow.clone().clock_mhz(301.0).clock_mhz(300.0).config_key(),
        key
    );
}

#[test]
fn stage_keys_and_fingerprints_are_golden() {
    let dir = scratch_dir("stages");
    let store = Arc::new(ArtifactStore::open(&dir).expect("open the scratch store"));
    let session =
        FlowSession::with_threads(1).with_backend(store as Arc<dyn hlsb_store::ArtifactBackend>);
    for flow in probe_flows() {
        session.probe(&flow).expect("probe succeeds");
    }
    let mut records: Vec<(&str, u64, u64)> = Vec::new();
    for shard in 0..SHARD_COUNT {
        let table: JsonlTable<StageRecord> =
            JsonlTable::open(dir.join(format!("stages-{shard}.jsonl"))).expect("read a segment");
        for rec in table.records() {
            records.push((rec.stage.name(), rec.key, rec.fingerprint));
            assert_eq!(rec.key(), hlsb_store::stage_table_key(rec.stage, rec.key));
        }
    }
    records.sort();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        records,
        STAGE_RECORDS,
        "stage records moved:\n{}",
        render(&records)
    );
}

#[test]
fn combine_and_ledger_digest_are_golden() {
    let combined = hlsb_store::combine(&[1, 2, 3]);
    assert_eq!(combined, COMBINE, "combine moved: {combined:#x}");
    let digest = ledger_record().compute_digest();
    assert_eq!(digest, LEDGER_DIGEST, "ledger digest moved: {digest:#x}");
}
