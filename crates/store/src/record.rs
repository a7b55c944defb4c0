//! The compile-farm record types: persisted flow results and stage
//! fingerprints.
//!
//! What the store persists (and what it deliberately does not):
//!
//! * [`ResultRecord`] — the scalar digest of one full-flow evaluation,
//!   keyed by [`Flow::config_key`](../hlsb/struct.Flow.html#method.config_key).
//!   This is the record that lets a warm store answer a repeated job with
//!   **zero** place-and-route work.
//! * [`StageRecord`] — the content fingerprint of one cached stage
//!   artifact (front-end or schedule), keyed by the session cache's stage
//!   key. Artifact *bodies* are full IR (unrolled loops, schedules) and
//!   are rebuilt on demand — stage work is milliseconds against the
//!   implement stage's seconds, so persisting the fingerprint buys
//!   cross-process hit accounting and a determinism audit (a fingerprint
//!   mismatch means two processes disagreed on a supposedly pure build)
//!   at none of the serialization cost.

use hlsb_findings::json::{self, JsonError};
use hlsb_findings::json_escape;

use crate::table::JsonlRecord;

/// The pipeline stage a [`StageRecord`] fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Verify/split/unroll/DCE — keyed by `(design, split?)`.
    FrontEnd,
    /// Loop scheduling — keyed by the front-end key plus clock/options.
    Schedule,
}

impl StageKind {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::FrontEnd => "front_end",
            StageKind::Schedule => "schedule",
        }
    }

    fn from_name(name: &str) -> Option<StageKind> {
        match name {
            "front_end" => Some(StageKind::FrontEnd),
            "schedule" => Some(StageKind::Schedule),
            _ => None,
        }
    }

    fn discriminant(self) -> u64 {
        match self {
            StageKind::FrontEnd => 1,
            StageKind::Schedule => 2,
        }
    }
}

/// Table key of a stage fingerprint: the stage's own key salted with the
/// stage kind, so a front-end key and a schedule key that happen to share
/// a `u64` value never collide in one table.
pub fn stage_table_key(stage: StageKind, key: u64) -> u64 {
    crate::combine(&[stage.discriminant(), key])
}

/// One persisted full-flow evaluation: everything a warm serve needs to
/// answer the job without touching the pipeline. The line carries only
/// scalars; strings may hold any character.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRecord {
    /// `Flow::config_key` of the evaluated flow (covers design, device
    /// and every knob).
    pub key: u64,
    /// Design name (informational; the key is authoritative).
    pub design: String,
    /// Human-readable configuration label.
    pub label: String,
    /// Achieved maximum frequency, MHz.
    pub fmax_mhz: f64,
    /// Achieved minimum clock period, ns.
    pub period_ns: f64,
    /// Static latency, cycles.
    pub latency_cycles: u64,
    /// Absolute LUT count.
    pub luts: u64,
    /// Absolute flip-flop count.
    pub ffs: u64,
    /// Absolute BRAM count.
    pub brams: u64,
    /// Absolute DSP count.
    pub dsps: u64,
    /// Registers inserted by broadcast-aware scheduling.
    pub inserted_regs: u64,
    /// Registers duplicated by physical fanout optimization.
    pub duplicated_regs: u64,
    /// Backward retiming moves applied.
    pub retime_moves: u64,
    /// Wall-clock cost of the original evaluation, milliseconds. Varies
    /// run to run; everything else round-trips bit-exactly.
    pub wall_ms: f64,
}

impl JsonlRecord for ResultRecord {
    fn key(&self) -> u64 {
        self.key
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"key\":{},\"design\":\"{}\",\"label\":\"{}\",\
             \"fmax_mhz\":{:?},\"period_ns\":{:?},\"latency_cycles\":{},\
             \"luts\":{},\"ffs\":{},\"brams\":{},\"dsps\":{},\
             \"inserted_regs\":{},\"duplicated_regs\":{},\"retime_moves\":{},\
             \"wall_ms\":{:?}}}",
            self.key,
            json_escape(&self.design),
            json_escape(&self.label),
            self.fmax_mhz,
            self.period_ns,
            self.latency_cycles,
            self.luts,
            self.ffs,
            self.brams,
            self.dsps,
            self.inserted_regs,
            self.duplicated_regs,
            self.retime_moves,
            self.wall_ms,
        )
    }

    fn from_json(line: &str) -> Option<ResultRecord> {
        json::decode(line, |o| {
            Ok(ResultRecord {
                key: o.req("key")?,
                design: o.req("design")?,
                label: o.req("label")?,
                fmax_mhz: o.req("fmax_mhz")?,
                period_ns: o.req("period_ns")?,
                latency_cycles: o.req("latency_cycles")?,
                luts: o.req("luts")?,
                ffs: o.req("ffs")?,
                brams: o.req("brams")?,
                dsps: o.req("dsps")?,
                inserted_regs: o.req("inserted_regs")?,
                duplicated_regs: o.req("duplicated_regs")?,
                retime_moves: o.req("retime_moves")?,
                wall_ms: o.req("wall_ms")?,
            })
        })
        .ok()
    }
}

/// One persisted stage-artifact fingerprint (see the module docs for why
/// bodies are not persisted).
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Which stage built the artifact.
    pub stage: StageKind,
    /// The session cache's stage key (content hash of the stage inputs).
    pub key: u64,
    /// Content hash of the built artifact.
    pub fingerprint: u64,
    /// Wall-clock cost of the original build, milliseconds.
    pub wall_ms: f64,
}

impl JsonlRecord for StageRecord {
    fn key(&self) -> u64 {
        stage_table_key(self.stage, self.key)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"stage\":\"{}\",\"key\":{},\"fingerprint\":{},\"wall_ms\":{:?}}}",
            self.stage.name(),
            self.key,
            self.fingerprint,
            self.wall_ms,
        )
    }

    fn from_json(line: &str) -> Option<StageRecord> {
        json::decode(line, |o| {
            let stage = StageKind::from_name(&o.req::<String>("stage")?);
            Ok(StageRecord {
                stage: stage.ok_or(JsonError::Mistyped(
                    "stage".to_string(),
                    "`front_end` or `schedule`",
                ))?,
                key: o.req("key")?,
                fingerprint: o.req("fingerprint")?,
                wall_ms: o.req("wall_ms")?,
            })
        })
        .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn result_record(key: u64, fmax: f64) -> ResultRecord {
        ResultRecord {
            key,
            design: "bench \"x\"".into(),
            label: "BSKM ×2 fast".into(),
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
            wall_ms: 1433.7,
        }
    }

    #[test]
    fn result_round_trip_is_exact() {
        let rec = result_record(0xDEAD_BEEF_0BAD_F00D, 341.229_999_999_7);
        let line = rec.to_json();
        let back = ResultRecord::from_json(&line).expect("parses");
        assert_eq!(back, rec, "round trip must be bit-exact:\n{line}");
        assert!(ResultRecord::from_json("{\"key\":1").is_none());
        assert!(ResultRecord::from_json("").is_none());
    }

    #[test]
    fn labels_with_commas_and_newlines_reload_unchanged() {
        for label in ["BSKM, fast", "line\nbreak", "tab\t\"q\" \\ ,\"key\":1"] {
            let rec = ResultRecord {
                label: label.to_string(),
                ..result_record(7, 300.0)
            };
            let line = rec.to_json();
            assert_eq!(ResultRecord::from_json(&line), Some(rec), "{line}");
        }
    }

    #[test]
    fn result_truncation_never_panics_and_never_half_parses() {
        let line = result_record(42, 300.5).to_json();
        for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
            assert!(
                ResultRecord::from_json(&line[..cut]).is_none(),
                "truncated at {cut} must not parse"
            );
        }
        assert!(ResultRecord::from_json(&line).is_some());
    }

    #[test]
    fn stage_round_trip_and_table_key_salting() {
        for stage in [StageKind::FrontEnd, StageKind::Schedule] {
            let rec = StageRecord {
                stage,
                key: 0x1234_5678_9ABC_DEF0,
                fingerprint: 0x0FED_CBA9_8765_4321,
                wall_ms: 3.25,
            };
            let back = StageRecord::from_json(&rec.to_json()).expect("parses");
            assert_eq!(back, rec);
        }
        assert_ne!(
            stage_table_key(StageKind::FrontEnd, 7),
            stage_table_key(StageKind::Schedule, 7),
            "stage kinds must never collide in one table"
        );
        assert!(StageRecord::from_json(
            "{\"stage\":\"lower\",\"key\":1,\"fingerprint\":2,\"wall_ms\":0.1}"
        )
        .is_none());
    }
}
