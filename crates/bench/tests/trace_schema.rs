//! Schema pin for the canonical observability artifact: the 11-kernel MP3
//! batch, traced, must export chrome://tracing trace-event JSON that parses,
//! balances, and carries the shapes Perfetto relies on — plus a parseable
//! metrics JSON snapshot. This is the test the `trace_export` binary (whose
//! output CI uploads) leans on: the binary validates with the same function
//! this test pins.

use std::sync::Arc;

use symmap_bench::mp3_kernel_jobs;
use symmap_engine::{EngineConfig, MapperConfig, MappingEngine};
use symmap_libchar::catalog;
use symmap_platform::machine::Badge4;
use symmap_trace::{parse_json, to_chrome_json, validate_chrome_trace, JsonValue};

#[test]
fn mp3_batch_chrome_trace_is_schema_valid() {
    let badge = Badge4::new();
    let library = Arc::new(catalog::full_catalog(&badge));
    let jobs = mp3_kernel_jobs(&library, &MapperConfig::default());
    let engine = MappingEngine::new(EngineConfig {
        trace: true,
        ..EngineConfig::default()
    });
    let result = engine.run(&jobs);
    let trace = result.trace.expect("tracing was enabled");
    assert_eq!(trace.jobs.len(), 11);

    let chrome = to_chrome_json(&trace);
    let events = validate_chrome_trace(&chrome)
        .unwrap_or_else(|e| panic!("MP3 batch chrome trace failed validation: {e}"));
    assert!(events > 0);

    // Pin the trace-event shapes downstream viewers depend on: the document
    // is an object with a traceEvents array whose entries carry name/ph/pid/
    // tid/ts, process-name metadata rows exist for all three tracks, and
    // every job of the batch contributes a complete span pair.
    let doc = parse_json(&chrome).expect("chrome trace parses");
    let rows = doc["traceEvents"].as_array().expect("traceEvents array");
    for row in rows {
        // Metadata rows (`ph: "M"`) name their track and carry no timestamp;
        // every real event row must have one.
        let fields: &[&str] = if row["ph"].as_str() == Some("M") {
            &["name", "ph", "pid", "tid"]
        } else {
            &["name", "ph", "pid", "tid", "ts"]
        };
        for field in fields {
            assert!(
                !matches!(row[*field], JsonValue::Null),
                "trace event missing {field}: {row:?}"
            );
        }
    }
    let process_names: Vec<&str> = rows
        .iter()
        .filter(|r| r["name"].as_str() == Some("process_name"))
        .filter_map(|r| r["args"]["name"].as_str())
        .collect();
    for track in ["jobs", "computes", "sched"] {
        assert!(
            process_names.contains(&track),
            "missing process_name metadata for the {track} track"
        );
    }
    let job_begins = rows
        .iter()
        .filter(|r| r["name"].as_str() == Some("job") && r["ph"].as_str() == Some("B"))
        .count();
    assert_eq!(job_begins, 11, "one job span per MP3 kernel");

    // The metrics snapshot is valid JSON with the three metric families.
    let metrics = result.stats.metrics.to_json();
    let doc = parse_json(&metrics)
        .unwrap_or_else(|e| panic!("metrics snapshot is not valid JSON: {e}\n{metrics}"));
    for family in ["counters", "gauges", "histograms"] {
        assert!(
            doc[family].as_object().is_some(),
            "metrics snapshot missing the {family} object"
        );
    }
    // The cache reports per layer under these exact names, and a cold
    // batch both misses and runs the verified lift.
    let counters = doc["counters"].as_object().expect("counters object");
    for name in [
        "cache.hits",
        "cache.misses",
        "alpha.hits",
        "alpha.misses",
        "lift.success",
    ] {
        assert!(
            counters.contains_key(name),
            "metrics snapshot missing the {name} counter"
        );
    }
    assert!(result.stats.cache_misses() > 0, "a cold batch must miss");
    assert!(result.stats.lift_success() > 0, "the lift must engage");
}
