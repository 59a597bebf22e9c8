//! Integration test for the flight recorder's post-mortem path: a
//! panicking worker thread must leave a structurally valid dump on
//! disk, written by the panic hook before the unwind propagates.

use msrl_telemetry as telemetry;
use serde::Value;

#[test]
fn worker_panic_writes_valid_dump() {
    let dir = std::env::temp_dir().join(format!("msrl-flightrec-test-{}", std::process::id()));
    let dir_s = dir.to_str().expect("utf-8 temp dir").to_string();
    let _ = std::fs::remove_dir_all(&dir);
    telemetry::flightrec::set_dump_dir(&dir_s);
    telemetry::install_panic_hook();

    // A worker doing instrumented work before dying mid-iteration.
    let worker = std::thread::spawn(|| {
        for i in 0..10 {
            let _s = telemetry::span!("fragment.test_worker", 1);
            telemetry::counter("test.worker.iters", 1);
            if i == 7 {
                panic!("injected worker failure at iteration {i}");
            }
        }
    });
    assert!(worker.join().is_err(), "worker must have panicked");

    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("dump dir exists")
        .filter_map(Result::ok)
        .filter(|e| {
            e.file_name().to_string_lossy().starts_with("flightrec-")
                && e.file_name().to_string_lossy().ends_with(".json")
        })
        .collect();
    assert!(!dumps.is_empty(), "panic hook wrote a dump");

    let content = std::fs::read_to_string(dumps[0].path()).expect("dump readable");
    let n = telemetry::validate_flightrec(&content).expect("dump is structurally valid");
    assert!(n >= 8, "the lane kept the worker's recent spans and its open one");
    assert!(content.contains("injected worker failure"), "panic reason recorded");
    let dump = serde_json::value_from_str(&content).expect("dump parses");
    assert_eq!(dump.field("trigger"), Ok(&Value::Str("panic".into())));

    // The worker's lane: seven iterations closed, and the eighth still
    // open at the panic, listed with no end.
    let Ok(Value::Seq(lanes)) = dump.field("lanes") else { panic!("dump lists lanes") };
    let named = |spans: &Value| match spans {
        Value::Seq(spans) => spans
            .iter()
            .filter(|s| s.field("name") == Ok(&Value::Str("fragment.test_worker".into())))
            .cloned()
            .collect::<Vec<_>>(),
        _ => panic!("records are an array"),
    };
    let worker = lanes
        .iter()
        .find(|l| l.field("open").is_ok_and(|open| !named(open).is_empty()))
        .expect("the span open at the panic is listed as open");
    let open = named(worker.field("open").expect("open records"));
    assert_eq!(open.len(), 1);
    assert_eq!(open[0].field("end_ns"), Ok(&Value::Null));
    assert_eq!(open[0].field("id"), Ok(&Value::I64(1)));
    assert_eq!(named(worker.field("closed").expect("closed records")).len(), 7);

    let _ = std::fs::remove_dir_all(&dir);
}
