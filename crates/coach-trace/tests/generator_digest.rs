//! Pins the generator's output bit for bit.
//!
//! Each digest is FNV-1a over the `coach_wire` encoding of a generated
//! trace: every cluster (id, hardware, server list), every VM record with
//! its `f64` fields as raw bits, and the horizon. Any change to placement,
//! server growth order, id assignment or behaviour sampling changes the
//! digest, so a refactor of the generator must leave these constants alone.

use coach_trace::{generate, TraceConfig};
use coach_wire::{Encode, Encoder};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn digest(config: &TraceConfig) -> u64 {
    let trace = generate(config);
    let mut e = Encoder::new();
    trace.clusters.encode(&mut e);
    trace.vms.encode(&mut e);
    trace.horizon.encode(&mut e);
    e.into_bytes().iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// One cluster, 3000 VMs: many near-full servers, so first-fit scans deep.
fn dense_single_cluster() -> TraceConfig {
    TraceConfig {
        vm_count: 3000,
        cluster_count: 1,
        subscription_count: 40,
        ..TraceConfig::small(8)
    }
}

#[test]
fn generated_traces_match_pinned_digests() {
    let cases = [
        ("small(3)", TraceConfig::small(3), 0x4b1b_c405_dcb2_772b),
        ("small(77)", TraceConfig::small(77), 0x70e6_7f6c_3592_0d9d),
        (
            "dense single cluster",
            dense_single_cluster(),
            0xc931_d353_175e_c48b,
        ),
        ("medium(1)", TraceConfig::medium(1), 0xd9f7_f9ee_a24b_9ef2),
    ];
    for (name, config, want) in cases {
        assert_eq!(digest(&config), want, "{name}: generator output changed");
    }
}
