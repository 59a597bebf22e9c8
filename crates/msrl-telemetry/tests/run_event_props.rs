//! Property test for the metrics stream's one serialise/parse pair:
//! `RunEvent::parse(&ev.to_json_line()) == ev` for arbitrary finite
//! events, with every combination of the optional `attr`, `actsrv` and
//! `health` blocks present and absent.

use msrl_telemetry::{
    attribute, ActsrvStats, HealthFinding, HealthStatus, RunEvent, Severity, StepClass, StepStamp,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// A finite number of one of the shapes the stream carries: fractional,
/// integral (which the renderer writes with a `.0`), tiny, huge, signed.
fn number(rng: &mut TestRng) -> f64 {
    let u = rng.unit_f64();
    match rng.below(5) {
        0 => u * 1e3,
        1 => rng.below(1 << 40) as f64,
        2 => u * 1e-12,
        3 => u * 1e20,
        _ => -u,
    }
}

fn maybe(rng: &mut TestRng) -> Option<f64> {
    (rng.below(3) > 0).then(|| number(rng))
}

const SEVERITIES: [Severity; 3] = [Severity::Ok, Severity::Warn, Severity::Critical];
const DETECTORS: [&str; 2] = ["nonfinite", "grad_explosion"];

fn health(rng: &mut TestRng) -> HealthStatus {
    HealthStatus {
        status: SEVERITIES[rng.below(3) as usize],
        nonfinite: rng.below(2) == 1,
        grad_norm: maybe(rng),
        weight_norm: maybe(rng),
        update_ratio: maybe(rng),
        nonfinite_params: (rng.below(2) == 1).then(|| rng.next_u64()),
        findings: (0..rng.below(3))
            .map(|i| HealthFinding {
                detector: DETECTORS[rng.below(2) as usize],
                severity: SEVERITIES[rng.below(3) as usize],
                iteration: rng.below(1000),
                detail: format!("finding {i}: \"quoted\"\n\\ and ünïcode"),
            })
            .collect(),
    }
}

/// An event and all eight block combinations of it.
struct EventStrategy;

impl proptest::strategy::Strategy for EventStrategy {
    type Value = Vec<RunEvent>;
    fn new_value(&self, rng: &mut TestRng) -> Vec<RunEvent> {
        let stamps: Vec<StepStamp> = (0..rng.below(8))
            .map(|i| {
                let start = rng.below(1 << 30);
                StepStamp {
                    role: ["actor", "learner"][i as usize % 2],
                    fragment: i / 2,
                    class: [StepClass::Rollout, StepClass::Learn, StepClass::Comm]
                        [rng.below(3) as usize],
                    start_ns: start,
                    end_ns: start + 1 + rng.below(1 << 30),
                }
            })
            .collect();
        let attr = attribute(&stamps, 0, 1 + rng.below(1 << 31), 2.0);
        let batches = rng.below(64);
        let actsrv = ActsrvStats { batches, rows: batches + rng.below(512) };
        let health = health(rng);
        let base = RunEvent {
            policy: ["dp_a", "dp_c", "a3c"][rng.below(3) as usize].to_string(),
            iteration: rng.next_u64(),
            reward: number(rng),
            loss: maybe(rng),
            entropy: maybe(rng),
            iters_per_sec: number(rng),
            comm_bytes: rng.next_u64(),
            staleness: rng.below(4),
            attr: None,
            actsrv: None,
            health: None,
        };
        (0..8)
            .map(|mask| RunEvent {
                attr: (mask & 1 != 0).then(|| attr.clone()),
                actsrv: (mask & 2 != 0).then_some(actsrv),
                health: (mask & 4 != 0).then(|| health.clone()),
                ..base.clone()
            })
            .collect()
    }
}

/// Lines from outside the program: characters drawn mostly from JSON's
/// own punctuation, literals and digits (so parses get deep before they
/// fail), some from anywhere in Unicode; now and then a run of one
/// opening bracket thousands deep.
struct Garbage;

impl proptest::strategy::Strategy for Garbage {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        const JSON: &[u8] = b"{}[]\":,.-+eE0123456789 \\/ntrufalsbu\"";
        if rng.below(8) == 0 {
            let open = ["[", "{\"a\":", "{\"attr\":["][rng.below(3) as usize];
            return open.repeat(1 + rng.below(100_000) as usize);
        }
        (0..rng.below(160))
            .map(|_| match rng.below(10) {
                0 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
                _ => char::from(JSON[rng.below(JSON.len() as u64) as usize]),
            })
            .collect()
    }
}

/// `line` cut at a random character boundary short of its end, or with
/// one random character replaced.
fn damage(line: &str, rng: &mut TestRng) -> (String, bool) {
    let bounds: Vec<usize> = line.char_indices().map(|(i, _)| i).collect();
    let at = bounds[rng.below(bounds.len() as u64) as usize];
    if rng.below(2) == 0 {
        return (line[..at].to_string(), true);
    }
    let c = char::from(b"{}[]\":,0a-"[rng.below(10) as usize]);
    let rest = &line[at..];
    let next = rest.chars().next().map_or(0, char::len_utf8);
    (format!("{}{c}{}", &line[..at], &rest[next..]), false)
}

/// Valid lines, each cut short or with one character replaced.
struct Damaged;

impl proptest::strategy::Strategy for Damaged {
    type Value = Vec<(String, bool)>;
    fn new_value(&self, rng: &mut TestRng) -> Vec<(String, bool)> {
        let events = EventStrategy.new_value(rng);
        events.iter().map(|ev| damage(&ev.to_json_line(), rng)).collect()
    }
}

proptest! {
    /// Garbage is an `Err`, never a panic (nor a stack overflow).
    #[test]
    fn run_event_parse_rejects_garbage(line in Garbage) {
        prop_assert!(RunEvent::parse(&line).is_err(), "{line:.200}");
    }

    /// A real line cut short is an `Err`; one with a character replaced
    /// parses or not, without a panic.
    #[test]
    fn run_event_parse_survives_truncated_and_damaged_lines(lines in Damaged) {
        for (line, truncated) in lines {
            let parsed = RunEvent::parse(&line);
            prop_assert!(!truncated || parsed.is_err(), "a strict prefix parsed: {line}");
        }
    }
}

/// Inputs the fuzzing above found crashing the parser: nesting deep
/// enough to overflow the stack of a recursive descent.
#[test]
fn deep_nesting_is_an_error() {
    for open in ["[", "{\"a\":"] {
        let line = open.repeat(200_000);
        assert!(RunEvent::parse(&line).is_err());
    }
}

proptest! {
    #[test]
    fn run_event_roundtrips_through_its_json_line(events in EventStrategy) {
        for ev in events {
            let line = ev.to_json_line();
            let back = RunEvent::parse(&line).map_err(|e| TestCaseError::fail(format!("{e}: {line}")))?;
            prop_assert_eq!(back, ev, "{line}");
            prop_assert_eq!(msrl_telemetry::validate_metrics(&line), Ok(1), "{line}");
        }
    }
}
