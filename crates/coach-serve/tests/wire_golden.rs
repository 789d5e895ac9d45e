//! Golden pin for the snapshot frame format.
//!
//! A committed snapshot of a deterministic mid-stream controller must keep
//! encoding to the identical bytes — and restoring from the committed
//! bytes must keep producing the identical controller. If either drifts,
//! the snapshot wire format changed and [`coach_wire::VERSION`] needs a
//! bump, not a silent re-interpretation of deployed checkpoints.
//! Regenerate deliberately with
//! `COACH_WIRE_BLESS=1 cargo test -p coach-serve --test wire_golden`.

use coach_serve::{Controller, Request, RequestSource, ServeConfig, Snapshot};
use coach_sim::{Oracle, PolicyConfig};
use coach_trace::{generate, TraceConfig};
use coach_types::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn load_or_bless(name: &str, expected: &[u8]) -> Vec<u8> {
    let path = fixture_path(name);
    if std::env::var_os("COACH_WIRE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, expected).unwrap();
    }
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden fixture {name}: {e}"))
}

/// The reference controller: a fixed trace, halted halfway through its
/// stream, with latency sampling off (`latency_stride: 0`) — wall-clock
/// reads are the only nondeterminism in a snapshot, so disabling them
/// makes the frame a pure function of the trace.
fn golden_snapshot() -> (coach_trace::Trace, Snapshot) {
    let trace = generate(&TraceConfig::small(23));
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let config = ServeConfig {
        latency_stride: 0,
        ..ServeConfig::replaying(coach, 0.6, trace.horizon)
    };
    let mut controller = Controller::new(&trace.clusters, &oracle, config);
    let requests: Vec<Request> = RequestSource::replaying(&trace).collect();
    for request in &requests[..requests.len() / 2] {
        controller.handle(*request);
    }
    let snapshot = controller.snapshot();
    (trace, snapshot)
}

#[test]
fn golden_snapshot_bytes_are_pinned() {
    let (_trace, snapshot) = golden_snapshot();
    let fixture = load_or_bless("snapshot_v2.bin", snapshot.bytes());
    assert_eq!(
        snapshot.bytes(),
        &fixture[..],
        "snapshot encoding drifted from the committed v2 fixture — \
         this is a wire format change and needs a VERSION bump"
    );
}

#[test]
fn golden_snapshot_restores_and_resumes() {
    let (trace, live) = golden_snapshot();
    let fixture = load_or_bless("snapshot_v2.bin", live.bytes());
    let committed = Snapshot::from_bytes(fixture);

    // The committed bytes restore, re-snapshot to themselves, and finish
    // the stream to the same result as the freshly taken snapshot.
    let oracle = Oracle::new(TimeWindows::paper_default());
    let table: HashMap<VmId, &coach_trace::VmRecord> =
        trace.vms.iter().map(|rec| (rec.id, rec)).collect();
    let mut from_fixture = Controller::restore(&oracle, &committed, |vm| table.get(&vm).copied())
        .expect("committed snapshot restores");
    assert_eq!(from_fixture.snapshot(), committed);

    let mut from_live = Controller::restore(&oracle, &live, |vm| table.get(&vm).copied())
        .expect("fresh snapshot restores");
    let requests: Vec<Request> = RequestSource::replaying(&trace).collect();
    for request in &requests[requests.len() / 2..] {
        from_fixture.handle(*request);
        from_live.handle(*request);
    }
    assert_eq!(from_fixture.finalize(), from_live.finalize());
}
