//! Every persisted format through the workspace's one JSON codec
//! (`hlsb_findings::json`):
//!
//! * **fixtures** — one line per record kind exactly as the writers emit
//!   it (floats in `{:?}` exponent form, `u64` keys above 2^53): each
//!   decodes to the expected struct and re-renders byte for byte, so
//!   existing `--store`, `--ledger`, explore-log, baseline and trace
//!   files stay readable;
//! * **hostile strings** — seeded random strings of quotes, commas,
//!   backslashes, every control character, `×`, astral-plane characters
//!   and embedded `"key":` text round-trip through every record kind,
//!   and re-rendering the decoded value is byte-identical.

use std::fmt::Debug;

use hlsb::{Partitioning, PlaceEffort, RegisterInjection};
use hlsb_explore::{TrialKind, TrialRecord};
use hlsb_rng::Rng;
use hlsb_serve::{parse_options, JobSpec};
use hlsb_store::{JsonlRecord, ResultRecord, StageKind, StageRecord};
use hlsb_telemetry::{Baseline, RateRule, RunRecord, StageRule};
use hlsb_trace::{Attr, DecisionEvent, Histogram, MetricsRegistry, SpanNode, TraceTree, Value};

/// One record kind's writer and reader.
trait Codec: Sized + PartialEq + Debug {
    fn write(&self) -> String;
    fn read(text: &str) -> Option<Self>;
}

impl Codec for ResultRecord {
    fn write(&self) -> String {
        JsonlRecord::to_json(self)
    }
    fn read(text: &str) -> Option<Self> {
        <Self as JsonlRecord>::from_json(text)
    }
}

impl Codec for StageRecord {
    fn write(&self) -> String {
        JsonlRecord::to_json(self)
    }
    fn read(text: &str) -> Option<Self> {
        <Self as JsonlRecord>::from_json(text)
    }
}

impl Codec for RunRecord {
    fn write(&self) -> String {
        JsonlRecord::to_json(self)
    }
    fn read(text: &str) -> Option<Self> {
        <Self as JsonlRecord>::from_json(text)
    }
}

impl Codec for TrialRecord {
    fn write(&self) -> String {
        self.to_json()
    }
    fn read(text: &str) -> Option<Self> {
        TrialRecord::from_json(text)
    }
}

impl Codec for JobSpec {
    fn write(&self) -> String {
        self.to_json()
    }
    fn read(text: &str) -> Option<Self> {
        JobSpec::from_json(text).ok()
    }
}

impl Codec for Baseline {
    fn write(&self) -> String {
        self.render()
    }
    fn read(text: &str) -> Option<Self> {
        Baseline::parse(text).ok()
    }
}

impl Codec for TraceTree {
    fn write(&self) -> String {
        self.to_jsonl()
    }
    fn read(text: &str) -> Option<Self> {
        TraceTree::from_jsonl(text).ok()
    }
}

/// `read(write(value)) == value`, and writing the decoded value again
/// reproduces the text byte for byte.
fn assert_round_trip<T: Codec>(value: &T) {
    let text = value.write();
    let back = T::read(&text).unwrap_or_else(|| panic!("does not decode:\n{text}"));
    assert_eq!(&back, value, "decoded value differs:\n{text}");
    assert_eq!(back.write(), text, "re-rendering differs");
}

/// `text` decodes to `value`, and `value` renders back to `text`.
fn assert_fixture<T: Codec>(value: T, text: &str) {
    assert_eq!(
        T::read(text).as_ref(),
        Some(&value),
        "fixture decodes:\n{text}"
    );
    assert_eq!(value.write(), text, "writer output moved");
}

// ---------------------------------------------------------------------------
// Samples: one value per record kind
// ---------------------------------------------------------------------------

fn result_sample(design: &str, label: &str, key: u64, fmax: f64, wall_ms: f64) -> ResultRecord {
    ResultRecord {
        key,
        design: design.to_string(),
        label: label.to_string(),
        fmax_mhz: fmax,
        period_ns: 1000.0 / fmax,
        latency_cycles: 1047,
        luts: 2310,
        ffs: 4120,
        brams: 12,
        dsps: 3,
        inserted_regs: 17,
        duplicated_regs: 4,
        retime_moves: 2,
        wall_ms,
    }
}

#[allow(clippy::too_many_arguments)]
fn trial_sample(
    design: &str,
    label: &str,
    key: u64,
    clock_mhz: f64,
    kind: TrialKind,
    met: bool,
    fmax: f64,
    wall_ms: f64,
) -> TrialRecord {
    TrialRecord {
        key,
        design: design.to_string(),
        label: label.to_string(),
        clock_mhz,
        kind,
        met,
        fmax_mhz: fmax,
        latency_cycles: 77,
        wall_ms,
    }
}

fn run_sample(strings: [&str; 3], stages: &[(&str, f64)], counters: &[(&str, u64)]) -> RunRecord {
    let [tool, design, status] = strings;
    let mut rec = RunRecord::new(tool, design, 12_345_678_901_234_567_890, status, 8.25e-7);
    for &(name, ms) in stages {
        rec.add_stage(name, ms);
    }
    for &(name, n) in counters {
        rec.add_count(name, n);
    }
    rec.key = (1 << 60) + 7;
    rec.digest = rec.compute_digest();
    rec
}

fn job_sample(id: &str, design: &str, clock_mhz: Option<f64>, seed: u64) -> JobSpec {
    JobSpec {
        id: id.to_string(),
        design: design.to_string(),
        clock_mhz,
        options: parse_options("bk").expect("valid mask"),
        seed,
        place_seeds: 2,
        effort: PlaceEffort::Normal,
        partitions: Partitioning::Fixed(3),
        inject: RegisterInjection::at(vec![1, 3]),
    }
}

fn baseline_sample(s: [&str; 5], median_ms: f64, min_rate: f64) -> Baseline {
    Baseline {
        stages: vec![StageRule {
            tool: s[0].to_string(),
            design: s[1].to_string(),
            stage: s[2].to_string(),
            median_ms,
            max_ratio: 50.0,
        }],
        rates: vec![RateRule {
            tool: s[0].to_string(),
            design: "*".to_string(),
            hits: s[3].to_string(),
            total: s[4].to_string(),
            min_rate,
        }],
    }
}

fn trace_sample(s: [&str; 6], big: u64, x: f64) -> TraceTree {
    let mut metrics = MetricsRegistry::default();
    metrics.counters.insert(s[4].to_string(), big);
    metrics.histograms.insert(
        s[5].to_string(),
        Histogram {
            bounds: vec![0.0, 0.5],
            counts: vec![1, 0, 2],
            total: 3,
            sum: x,
            min: 0.0,
            max: 1.0,
        },
    );
    metrics.histograms.insert(
        "empty".to_string(),
        Histogram {
            bounds: vec![1.0],
            counts: vec![0, 0],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        },
    );
    TraceTree {
        spans: vec![
            SpanNode {
                id: 0,
                parent: None,
                name: s[0].to_string(),
                track: 0,
                start_us: 0.0,
                dur_us: x,
                attrs: vec![
                    Attr {
                        key: s[1].to_string(),
                        value: Value::Str(s[2].to_string()),
                        volatile: false,
                    },
                    Attr {
                        key: "hits".to_string(),
                        value: Value::U64(big),
                        volatile: true,
                    },
                    Attr {
                        key: "slack-ns".to_string(),
                        value: Value::F64(-x),
                        volatile: false,
                    },
                ],
                events: vec![DecisionEvent {
                    name: s[3].to_string(),
                    ts_us: 12.5,
                    attrs: vec![
                        (s[1].to_string(), Value::Str(s[2].to_string())),
                        ("ok".to_string(), Value::Bool(true)),
                    ],
                }],
            },
            SpanNode {
                id: 1,
                parent: Some(0),
                name: "trial-0".to_string(),
                track: 1,
                start_us: 100.5,
                dur_us: 42.25,
                attrs: Vec::new(),
                events: Vec::new(),
            },
        ],
        metrics,
    }
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

#[test]
fn fixtures_written_by_the_writers_decode_and_re_render_byte_for_byte() {
    assert_fixture(
        result_sample(
            "genome_chaining",
            "genome_chaining @333.0MHz bskm s1 x1 fast poff off",
            0xFEDC_BA98_7654_3210,
            341.229_999_999_7,
            1e-7,
        ),
        "{\"key\":18364758544493064720,\"design\":\"genome_chaining\",\
         \"label\":\"genome_chaining @333.0MHz bskm s1 x1 fast poff off\",\
         \"fmax_mhz\":341.2299999997,\"period_ns\":2.9305746856984416,\
         \"latency_cycles\":1047,\"luts\":2310,\"ffs\":4120,\"brams\":12,\"dsps\":3,\
         \"inserted_regs\":17,\"duplicated_regs\":4,\"retime_moves\":2,\"wall_ms\":1e-7}",
    );
    assert_fixture(
        StageRecord {
            stage: StageKind::Schedule,
            key: 9_007_199_254_740_993,
            fingerprint: u64::MAX,
            wall_ms: 2.5e-5,
        },
        "{\"stage\":\"schedule\",\"key\":9007199254740993,\
         \"fingerprint\":18446744073709551615,\"wall_ms\":2.5e-5}",
    );
    assert_fixture(
        StageRecord {
            stage: StageKind::FrontEnd,
            key: 1,
            fingerprint: 2,
            wall_ms: 1e16,
        },
        "{\"stage\":\"front_end\",\"key\":1,\"fingerprint\":2,\"wall_ms\":1e16}",
    );
    assert_fixture(
        trial_sample(
            "lstm_gate",
            "BSK- ×1 fast",
            18_000_000_000_000_000_123,
            312.5,
            TrialKind::Probe,
            false,
            0.0,
            1.5e-7,
        ),
        "{\"key\":18000000000000000123,\"design\":\"lstm_gate\",\"label\":\"BSK- ×1 fast\",\
         \"clock_mhz\":312.5,\"kind\":\"probe\",\"met\":false,\"fmax_mhz\":0.0,\
         \"latency_cycles\":77,\"wall_ms\":1.5e-7}",
    );
    assert_fixture(
        trial_sample(
            "lstm_gate",
            "BSK- ×1 fast",
            9_007_199_254_740_995,
            300.0,
            TrialKind::Full,
            true,
            341.5,
            1433.7,
        ),
        "{\"key\":9007199254740995,\"design\":\"lstm_gate\",\"label\":\"BSK- ×1 fast\",\
         \"clock_mhz\":300.0,\"kind\":\"full\",\"met\":true,\"fmax_mhz\":341.5,\
         \"latency_cycles\":77,\"wall_ms\":1433.7}",
    );
    assert_fixture(
        run_sample(
            ["serve-wave", "wave-3", "ok"],
            &[("front-end", 1e-7), ("schedule", 10.186973)],
            &[("jobs", 9), ("store-hits", 3)],
        ),
        "{\"key\":1152921504606846983,\"tool\":\"serve-wave\",\"design\":\"wave-3\",\
         \"config_key\":12345678901234567890,\"status\":\"ok\",\"wall_ms\":8.25e-7,\
         \"stages\":\"front-end=1e-7;schedule=10.186973\",\
         \"counters\":\"jobs=9;store-hits=3\",\"digest\":15721383895024883433}",
    );
    assert_fixture(
        job_sample("j-1", "fuzz:42", Some(312.75), (1 << 53) + 3),
        "{\"id\":\"j-1\",\"design\":\"fuzz:42\",\"clock_mhz\":312.75,\"options\":\"bk\",\
         \"seed\":9007199254740995,\"place_seeds\":2,\"effort\":\"normal\",\
         \"partitions\":\"3\",\"inject\":\"r1.3\"}",
    );
    assert_fixture(
        job_sample("job-2", "genome", None, 1),
        "{\"id\":\"job-2\",\"design\":\"genome\",\"clock_mhz\":null,\"options\":\"bk\",\
         \"seed\":1,\"place_seeds\":2,\"effort\":\"normal\",\"partitions\":\"3\",\
         \"inject\":\"r1.3\"}",
    );
    assert_fixture(
        baseline_sample(
            [
                "flow",
                "genome_chaining",
                "front-end",
                "store-hits+dedup-hits",
                "jobs",
            ],
            1.6450799999999999,
            1e-7,
        ),
        "{\"kind\":\"stage\",\"tool\":\"flow\",\"design\":\"genome_chaining\",\
         \"stage\":\"front-end\",\"median_ms\":1.6450799999999999,\"max_ratio\":50.0}\n\
         {\"kind\":\"rate\",\"tool\":\"flow\",\"design\":\"*\",\
         \"hits\":\"store-hits+dedup-hits\",\"total\":\"jobs\",\"min_rate\":1e-7}\n",
    );
    assert_fixture(
        trace_sample(
            [
                "flow",
                "design",
                "genome \"g\"",
                "schedule.split",
                "decisions.schedule.split",
                "slack-ns",
            ],
            (1 << 53) + 1,
            1.25e-7,
        ),
        "{\"type\":\"span\",\"id\":0,\"parent\":null,\"name\":\"flow\",\"track\":0,\
         \"start_us\":0.0,\"dur_us\":1.25e-7,\"attrs\":[[\"design\",\"genome \\\"g\\\"\",false],\
         [\"hits\",9007199254740993,true],[\"slack-ns\",-1.25e-7,false]],\
         \"events\":[{\"name\":\"schedule.split\",\"ts_us\":12.5,\
         \"attrs\":[[\"design\",\"genome \\\"g\\\"\"],[\"ok\",true]]}]}\n\
         {\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"trial-0\",\"track\":1,\
         \"start_us\":100.5,\"dur_us\":42.25,\"attrs\":[],\"events\":[]}\n\
         {\"type\":\"counter\",\"name\":\"decisions.schedule.split\",\"value\":9007199254740993}\n\
         {\"type\":\"histogram\",\"name\":\"empty\",\"bounds\":[1.0],\"counts\":[0,0],\
         \"total\":0,\"sum\":0.0}\n\
         {\"type\":\"histogram\",\"name\":\"slack-ns\",\"bounds\":[0.0,0.5],\"counts\":[1,0,2],\
         \"total\":3,\"sum\":1.25e-7,\"min\":0.0,\"max\":1.0}\n",
    );
}

// ---------------------------------------------------------------------------
// Hostile strings
// ---------------------------------------------------------------------------

/// Building blocks of hostile strings: JSON syntax, escapes written out
/// literally, multi-byte and astral characters, and text that looks like
/// another field. Every control character U+0000–U+001F is added too.
const PIECES: &[&str] = &[
    "\"",
    ",",
    "\\",
    "\\\"",
    "\\n",
    "\\u0041",
    "/",
    ":",
    "{",
    "}",
    "[",
    "]",
    "×",
    "😀",
    "𝄞",
    "\"key\":",
    "\"label\":\"x\",",
    "\"id\":1}",
    "=",
    " ",
    "a",
    "Z",
    "0",
];

fn hostile(rng: &mut Rng) -> String {
    let mut s = String::new();
    for _ in 0..rng.gen_index(10) {
        let pick = rng.gen_index(PIECES.len() + 0x20);
        match PIECES.get(pick) {
            Some(piece) => s.push_str(piece),
            None => s.push(char::from((pick - PIECES.len()) as u8)),
        }
    }
    s
}

/// A finite float with arbitrary bits: subnormals, exponent forms,
/// negative zero.
fn any_f64(rng: &mut Rng) -> f64 {
    loop {
        let x = f64::from_bits(rng.next_u64());
        if x.is_finite() {
            return x;
        }
    }
}

#[test]
fn hostile_strings_round_trip_through_every_record_kind() {
    let mut rng = Rng::seed_from_u64(0x4a53_4f4e);
    for _ in 0..200 {
        let mut h = || hostile(&mut rng);
        let s: [String; 6] = [h(), h(), h(), h(), h(), h()];
        let s = s.each_ref().map(String::as_str);
        let (key, big) = (rng.next_u64(), rng.next_u64());
        let (x, y) = (any_f64(&mut rng), any_f64(&mut rng));
        let positive = x.abs().max(f64::MIN_POSITIVE);

        assert_round_trip(&result_sample(s[0], s[1], key, x, y));
        for stage in [StageKind::FrontEnd, StageKind::Schedule] {
            assert_round_trip(&StageRecord {
                stage,
                key,
                fingerprint: big,
                wall_ms: x,
            });
        }
        assert_round_trip(&trial_sample(
            s[0],
            s[1],
            key,
            x,
            TrialKind::Full,
            true,
            y,
            x,
        ));
        assert_round_trip(&trial_sample(
            s[0],
            s[1],
            key,
            x,
            TrialKind::Probe,
            false,
            0.0,
            y,
        ));
        // `;` separates the stage and counter maps; no piece contains it.
        // The prefixes keep names distinct, so no two values are summed.
        let (a, b) = (format!("a{}", s[3]), format!("b{}", s[4]));
        assert_round_trip(&run_sample(
            [s[0], s[1], s[2]],
            &[(&a, x), (&b, y)],
            &[(&a, big), (&b, key)],
        ));
        let design = format!("d{}", s[1]);
        assert_round_trip(&job_sample(s[0], &design, Some(positive), key));
        assert_round_trip(&job_sample(s[0], &design, None, big));
        assert_round_trip(&baseline_sample([s[0], s[1], s[2], s[3], s[4]], x, y));
        assert_round_trip(&trace_sample(s, big, x));
    }
}
