//! Property test: `JobSpec` → YAML → `JobSpec` round-trips losslessly for
//! arbitrary specs — thread counts, every `ParamValue` shape, and
//! requirements at their boundaries included.
//!
//! The QASM payload intentionally does *not* travel in the YAML document (it
//! ships in the container image), so the expected parse result is the
//! original spec with an empty `qasm`.

use proptest::prelude::*;

use qrio_cluster::yaml::{from_yaml, to_yaml};
use qrio_cluster::{
    BackoffPolicy, DeviceRequirements, JobSpec, ParamValue, Resources, RetryOn, RetryPolicy,
    StrategySpec,
};

/// A retry policy (or none) from sampled raw integers, cycling backoff shapes
/// and retry-class sets.
fn retry_from(selector: u64, attempts: u32, delay: u64) -> Option<RetryPolicy> {
    let backoff = match selector % 3 {
        0 => BackoffPolicy::Fixed { delay },
        _ => BackoffPolicy::Exponential {
            base: delay,
            max: delay.saturating_mul(1 + selector % 16),
            jitter: selector % 2 == 0,
        },
    };
    let retry_on = match selector % 4 {
        0 => RetryOn::all(),
        1 => RetryOn::faults_only(),
        2 => RetryOn {
            transient: true,
            calibration: false,
            slow: selector % 8 < 4,
            flap: false,
            execution: true,
        },
        _ => return None,
    };
    Some(RetryPolicy {
        max_attempts: attempts,
        backoff,
        retry_on,
    })
}

/// Deterministic "interesting" text for a text param: quotes, backslashes,
/// newlines, carriage returns and plain words, selected by index.
fn tricky_text(selector: u64) -> String {
    const PIECES: &[&str] = &[
        "plain",
        "with space",
        "quo\"te",
        "back\\slash",
        "line\none",
        "cr\rreturn",
        "both\\\"mixed\"\\",
        "",
        "trailing ",
        "0.5",
        "17",
        "- [0, 1]",
        "a # b",
        "#lead",
    ];
    let mut text = String::new();
    let mut s = selector;
    for _ in 0..1 + (selector % 3) {
        text.push_str(PIECES[(s % PIECES.len() as u64) as usize]);
        s = s.wrapping_mul(0x9E37_79B9).wrapping_add(1);
    }
    text
}

/// Build a strategy from the sampled raw integers, cycling through the four
/// built-in shapes plus a custom strategy exercising every param type.
fn strategy_from(selector: u64, float_milli: u64, int_param: u64, edge_bits: u64) -> StrategySpec {
    let float_param = float_milli as f64 / 1000.0;
    match selector % 5 {
        0 => StrategySpec::fidelity(float_param.min(1.0)),
        1 => {
            let mut edges = Vec::new();
            for bit in 0..6u64 {
                if (edge_bits >> bit) & 1 == 1 {
                    edges.push((bit as usize, (bit + 1 + (int_param % 3)) as usize));
                }
            }
            if edges.is_empty() {
                edges.push((0, 1));
            }
            StrategySpec::topology(&edges, 9 + (int_param % 4) as usize)
        }
        2 => StrategySpec::weighted(
            float_param.min(1.0),
            1.0 + float_param,
            float_milli as f64,
            0.5,
        ),
        3 => StrategySpec::min_queue(),
        _ => StrategySpec::new(format!("custom-{}", selector % 97))
            .with_float("alpha", float_param)
            .with_float("whole", (int_param % 100) as f64) // integral float: tests the `.0` rendering
            .with_param("rounds", ParamValue::Int(int_param))
            .with_param("mode", ParamValue::Text(tricky_text(selector)))
            .with_param(
                "pairs",
                ParamValue::Edges(vec![
                    ((edge_bits % 7) as usize, (edge_bits % 11) as usize + 1),
                    (0, (int_param % 5) as usize + 1),
                ]),
            ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Serialize → parse preserves every field of the spec (QASM excepted by
    /// design).
    #[test]
    fn jobspec_yaml_roundtrip_is_lossless(
        qubits in 1usize..64,
        shots in 1u64..1_000_000,
        threads in 0usize..256,
        priority in 0u8..=255,
        cpu in 0u64..100_000,
        mem in 0u64..1_000_000,
        req_mask in 0u32..32,
        req_milli in 0u64..1_000_000,
        strategy_selector in 0u64..10_000,
        float_milli in 0u64..10_000,
        int_param in 0u64..1_000_000,
        edge_bits in 0u64..64,
        retry_selector in 0u64..10_000,
        retry_attempts in 0u32..10,
        retry_delay in 0u64..1_000,
        deadline_sel in 0u64..5_000,
    ) {
        let bound = req_milli as f64 / 1000.0;
        let spec = JobSpec {
            // ` #` in a name is text, not a comment: job YAML has no inline
            // comments.
            name: format!("job #{strategy_selector}-{int_param}"),
            image: format!("qrio/image-{qubits}:v{shots}"),
            qasm: "OPENQASM 2.0; // does not travel in the YAML".into(),
            num_qubits: qubits,
            resources: Resources::new(cpu, mem),
            requirements: DeviceRequirements {
                min_qubits: (req_mask & 1 != 0).then_some(qubits),
                max_two_qubit_error: (req_mask & 2 != 0).then_some(bound.min(1.0)),
                max_readout_error: (req_mask & 4 != 0).then_some(bound.min(1.0) / 2.0),
                min_t1_us: (req_mask & 8 != 0).then_some(bound * 100.0),
                min_t2_us: (req_mask & 16 != 0).then_some(bound * 50.0),
            },
            strategy: strategy_from(strategy_selector, float_milli, int_param, edge_bits),
            priority,
            shots,
            threads,
            retry: retry_from(retry_selector, retry_attempts, retry_delay),
            deadline: (deadline_sel % 2 == 0).then_some(deadline_sel),
        };

        let yaml = to_yaml(&spec);
        let parsed = from_yaml(&yaml).unwrap_or_else(|e| {
            panic!("round-trip parse failed: {e}\n--- document ---\n{yaml}")
        });

        let mut expected = spec.clone();
        expected.qasm = String::new();
        prop_assert_eq!(&parsed, &expected);

        // A second trip is a fixed point: render(parse(render(s))) ==
        // render(s).
        prop_assert_eq!(to_yaml(&parsed), yaml);
    }

    /// `StrategySpec`s with empty parameter bags render without a
    /// `strategyParams` section and still round-trip.
    #[test]
    fn parameterless_strategies_roundtrip(selector in 0u64..1_000) {
        let spec = JobSpec {
            name: "bare".into(),
            image: "qrio/bare:1".into(),
            qasm: String::new(),
            num_qubits: 3,
            resources: Resources::new(1, 1),
            requirements: DeviceRequirements::none(),
            strategy: StrategySpec::new(format!("strategy-{selector}")),
            priority: 0,
            shots: 1,
            threads: 0,
            retry: None,
            deadline: None,
        };
        let yaml = to_yaml(&spec);
        prop_assert!(!yaml.contains("strategyParams"));
        prop_assert_eq!(from_yaml(&yaml).unwrap(), spec);
    }
}

/// Non-property companion: the exact requirement boundary values used by the
/// filtering semantics round-trip bit-exactly (floats rendered via `{}`
/// preserve the shortest representation).
#[test]
fn boundary_requirements_roundtrip_bit_exact() {
    for bound in [0.0, 1.0, 0.25, 1e-9, 0.1 + 0.2, f64::MIN_POSITIVE] {
        let spec = JobSpec {
            name: "edge".into(),
            image: "qrio/edge:1".into(),
            qasm: String::new(),
            num_qubits: 2,
            resources: Resources::new(0, 0),
            requirements: DeviceRequirements {
                min_qubits: Some(0),
                max_two_qubit_error: Some(bound),
                max_readout_error: Some(bound),
                min_t1_us: Some(bound),
                min_t2_us: Some(bound),
            },
            strategy: StrategySpec::min_queue(),
            priority: 0,
            shots: 1,
            threads: 0,
            retry: None,
            deadline: None,
        };
        let parsed = from_yaml(&to_yaml(&spec)).unwrap();
        assert_eq!(parsed.requirements.max_two_qubit_error, Some(bound));
        assert_eq!(parsed.requirements.min_t1_us, Some(bound));
    }
}
