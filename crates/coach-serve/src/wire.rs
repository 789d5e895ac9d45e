//! The serving subsystem's wire vocabulary: [`Snapshot`] frames for live
//! snapshot/restore, and the command/reply protocol process-backed shard
//! workers speak over their pipes.
//!
//! Everything here rides the dependency-free [`coach_wire`] codec: frames
//! are magic- and version-pinned, accumulated `f64`s travel as raw
//! IEEE-754 bits, and decode never panics on malformed bytes (structural
//! problems are [`WireError`]s; only *semantically* inconsistent dumps —
//! which no honest snapshot produces — panic at restore time).

use crate::account::{AccountantDump, ServerAccountDump, VmEntryDump};
use crate::controller::{ControllerDump, ServeConfig};
use crate::request::{LatencyHistogram, Response, StatsReport};
use crate::shard::ShardSnapshot;
use crate::store::StoreDump;
use coach_sim::PackingResult;
use coach_telemetry::{MetricEntry, MetricValue, RegistrySnapshot, TelemetryConfig};
use coach_trace::VmRecord;
use coach_types::prelude::*;
use coach_wire::{open_frame, seal_frame, Decode, Decoder, Encode, Encoder, WireError};

/// A sealed, self-contained image of one [`Controller`](crate::Controller)
/// — the unit of live servicing. Produced by
/// [`Controller::snapshot`](crate::Controller::snapshot) /
/// [`ShardedController::drain_shard`](crate::ShardedController::drain_shard),
/// consumed by [`Controller::restore`](crate::Controller::restore) /
/// [`ShardedController::resume_shard`](crate::ShardedController::resume_shard),
/// and shipped verbatim as the process backend's checkpoint payload.
///
/// The bytes embed every [`VmRecord`] the accounting state still
/// references ([`Snapshot::records`]), so a snapshot restores in a process
/// that has never seen the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Seal a controller dump into a versioned frame.
    pub(crate) fn seal(dump: &ControllerDump) -> Snapshot {
        Snapshot {
            bytes: seal_frame(dump),
        }
    }

    /// Wrap frame bytes received out-of-band (a file, a socket, a
    /// checkpoint store). Validation happens at restore time.
    pub fn from_bytes(bytes: Vec<u8>) -> Snapshot {
        Snapshot { bytes }
    }

    /// The sealed frame, ready for [`coach_wire::write_frame`] or disk.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume into the sealed frame bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Serialized size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the frame is empty (never true for a sealed snapshot).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The embedded record table: every VM record the snapshotted
    /// accounting state references, deduplicated. A restoring process can
    /// leak these and resolve against them — no trace required.
    pub fn records(&self) -> Result<Vec<VmRecord>, WireError> {
        let dump: ControllerDump = open_frame(&self.bytes)?;
        Ok(dump.records)
    }
}

impl Encode for ServeConfig {
    fn encode(&self, e: &mut Encoder) {
        self.policy.encode(e);
        e.f64(self.server_fraction);
        self.heuristic.encode(e);
        self.scan.encode(e);
        self.horizon.encode(e);
        self.sample_every.encode(e);
        e.usize(self.latency_stride);
        e.bool(self.occupancy_timeline);
        self.probe_mode.encode(e);
        self.lanes.encode(e);
        self.backend.encode(e);
        // `telemetry` is deliberately NOT encoded: it is a pure-observability
        // runtime knob (decisions are bit-identical across modes), and
        // snapshot fixtures pin `ControllerDump` bytes, which embed this
        // config. A restored controller comes up with telemetry Off and is
        // re-armed by its deployment (the process backend re-arms children
        // at every session start).
    }
}

impl Decode for ServeConfig {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ServeConfig {
            policy: Decode::decode(d)?,
            server_fraction: d.f64("ServeConfig server_fraction")?,
            heuristic: Decode::decode(d)?,
            scan: Decode::decode(d)?,
            horizon: Decode::decode(d)?,
            sample_every: Decode::decode(d)?,
            latency_stride: d.usize("ServeConfig latency_stride")?,
            occupancy_timeline: d.bool("ServeConfig occupancy_timeline")?,
            probe_mode: Decode::decode(d)?,
            lanes: Decode::decode(d)?,
            backend: Decode::decode(d)?,
            telemetry: TelemetryConfig::default(),
        })
    }
}

impl Encode for StatsReport {
    fn encode(&self, e: &mut Encoder) {
        self.now.encode(e);
        e.u64(self.accepted);
        e.u64(self.rejected);
        e.u64(self.departed);
        e.usize(self.resident_vms);
        e.usize(self.servers_in_use);
        e.usize(self.peak_servers_in_use);
        e.f64(self.accepted_core_hours);
        e.f64(self.accepted_gb_hours);
        e.u64(self.probe_measurements);
        e.u64(self.probe_capacity_total);
        e.u64(self.violation_samples);
        e.u64(self.cpu_violations);
        e.u64(self.mem_violations);
        e.u64(self.ticks);
        e.f64(self.admission_p50_us);
        e.f64(self.admission_p99_us);
        e.u64(self.lane_sends);
        e.u64(self.lane_batched_sends);
        e.u64(self.lane_wakeups);
        e.u64(self.lane_full_stalls);
        e.u64(self.worker_restarts);
    }
}

impl Decode for StatsReport {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(StatsReport {
            now: Decode::decode(d)?,
            accepted: d.u64("StatsReport accepted")?,
            rejected: d.u64("StatsReport rejected")?,
            departed: d.u64("StatsReport departed")?,
            resident_vms: d.usize("StatsReport resident_vms")?,
            servers_in_use: d.usize("StatsReport servers_in_use")?,
            peak_servers_in_use: d.usize("StatsReport peak_servers_in_use")?,
            accepted_core_hours: d.f64("StatsReport accepted_core_hours")?,
            accepted_gb_hours: d.f64("StatsReport accepted_gb_hours")?,
            probe_measurements: d.u64("StatsReport probe_measurements")?,
            probe_capacity_total: d.u64("StatsReport probe_capacity_total")?,
            violation_samples: d.u64("StatsReport violation_samples")?,
            cpu_violations: d.u64("StatsReport cpu_violations")?,
            mem_violations: d.u64("StatsReport mem_violations")?,
            ticks: d.u64("StatsReport ticks")?,
            admission_p50_us: d.f64("StatsReport admission_p50_us")?,
            admission_p99_us: d.f64("StatsReport admission_p99_us")?,
            lane_sends: d.u64("StatsReport lane_sends")?,
            lane_batched_sends: d.u64("StatsReport lane_batched_sends")?,
            lane_wakeups: d.u64("StatsReport lane_wakeups")?,
            lane_full_stalls: d.u64("StatsReport lane_full_stalls")?,
            worker_restarts: d.u64("StatsReport worker_restarts")?,
        })
    }
}

/// Histogram codec as free functions: [`LatencyHistogram`] is the shared
/// [`coach_telemetry::Histogram`] since PR 9, and the orphan rule forbids
/// implementing the (equally foreign) [`Encode`] trait for it here. The
/// byte layout is unchanged from the PR 8 trait impl.
fn encode_histogram(h: &LatencyHistogram, e: &mut Encoder) {
    let (buckets, count, sum_ns) = h.parts();
    buckets.encode(e);
    e.u64(count);
    e.u64(sum_ns);
}

fn decode_histogram(d: &mut Decoder<'_>) -> Result<LatencyHistogram, WireError> {
    let buckets: [u64; 64] = Decode::decode(d)?;
    let count = d.u64("LatencyHistogram count")?;
    let sum_ns = d.u64("LatencyHistogram sum_ns")?;
    Ok(LatencyHistogram::from_parts(buckets, count, sum_ns))
}

/// Codec for the registry deltas child shard workers ship at barriers
/// ([`WireReply::Telemetry`]). Same free-function shape as the histogram
/// codec, for the same orphan-rule reason.
fn encode_registry_snapshot(snapshot: &RegistrySnapshot, e: &mut Encoder) {
    e.usize(snapshot.entries.len());
    for entry in &snapshot.entries {
        e.str(&entry.name);
        entry.labels.encode(e);
        e.str(&entry.help);
        match &entry.value {
            MetricValue::Counter(v) => {
                e.u8(0);
                e.u64(*v);
            }
            MetricValue::Gauge(v) => {
                e.u8(1);
                e.f64(*v);
            }
            MetricValue::Histogram(h) => {
                e.u8(2);
                encode_histogram(h, e);
            }
        }
    }
}

fn decode_registry_snapshot(d: &mut Decoder<'_>) -> Result<RegistrySnapshot, WireError> {
    let len = d.usize("RegistrySnapshot entries")?;
    let mut entries = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        let name = d.str("MetricEntry name")?.to_string();
        let labels: Vec<(String, String)> = Decode::decode(d)?;
        let help = d.str("MetricEntry help")?.to_string();
        let value = match d.u8("MetricValue")? {
            0 => MetricValue::Counter(d.u64("MetricValue counter")?),
            1 => MetricValue::Gauge(d.f64("MetricValue gauge")?),
            2 => MetricValue::Histogram(decode_histogram(d)?),
            tag => {
                return Err(WireError::UnknownTag {
                    context: "MetricValue",
                    tag: tag as u64,
                })
            }
        };
        entries.push(MetricEntry {
            name,
            labels,
            help,
            value,
        });
    }
    Ok(RegistrySnapshot { entries })
}

impl Encode for StoreDump {
    fn encode(&self, e: &mut Encoder) {
        self.vm.encode(e);
        self.cluster.encode(e);
        self.server.encode(e);
        self.guaranteed.encode(e);
        self.window_peak.encode(e);
        self.generation.encode(e);
        self.free.encode(e);
    }
}

impl Decode for StoreDump {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(StoreDump {
            vm: Decode::decode(d)?,
            cluster: Decode::decode(d)?,
            server: Decode::decode(d)?,
            guaranteed: Decode::decode(d)?,
            window_peak: Decode::decode(d)?,
            generation: Decode::decode(d)?,
            free: Decode::decode(d)?,
        })
    }
}

impl Encode for VmEntryDump {
    fn encode(&self, e: &mut Encoder) {
        self.vm.encode(e);
        e.f64(self.guar_mem);
        self.windows.encode(e);
        self.depart.encode(e);
    }
}

impl Decode for VmEntryDump {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(VmEntryDump {
            vm: Decode::decode(d)?,
            guar_mem: d.f64("VmEntryDump guar_mem")?,
            windows: Decode::decode(d)?,
            depart: Decode::decode(d)?,
        })
    }
}

impl Encode for ServerAccountDump {
    fn encode(&self, e: &mut Encoder) {
        self.server.encode(e);
        self.capacity.encode(e);
        self.next_sample.encode(e);
        self.pending.encode(e);
        self.resident.encode(e);
        e.f64(self.pa_sum);
        self.va_sums.encode(e);
        e.u64(self.samples);
        e.u64(self.cpu_violations);
        e.u64(self.mem_violations);
    }
}

impl Decode for ServerAccountDump {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ServerAccountDump {
            server: Decode::decode(d)?,
            capacity: Decode::decode(d)?,
            next_sample: Decode::decode(d)?,
            pending: Decode::decode(d)?,
            resident: Decode::decode(d)?,
            pa_sum: d.f64("ServerAccountDump pa_sum")?,
            va_sums: Decode::decode(d)?,
            samples: d.u64("ServerAccountDump samples")?,
            cpu_violations: d.u64("ServerAccountDump cpu_violations")?,
            mem_violations: d.u64("ServerAccountDump mem_violations")?,
        })
    }
}

impl Encode for AccountantDump {
    fn encode(&self, e: &mut Encoder) {
        self.servers.encode(e);
    }
}

impl Decode for AccountantDump {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(AccountantDump {
            servers: Decode::decode(d)?,
        })
    }
}

impl Encode for ControllerDump {
    fn encode(&self, e: &mut Encoder) {
        self.config.encode(e);
        e.u32(self.windows_per_day);
        self.clusters.encode(e);
        self.store.encode(e);
        self.departures.encode(e);
        e.u64(self.seq);
        self.probe_counts.encode(e);
        self.accountant.encode(e);
        self.latency_buckets.encode(e);
        e.u64(self.latency_count);
        e.u64(self.latency_sum_ns);
        e.u64(self.accepted);
        e.u64(self.rejected);
        e.u64(self.departed);
        e.u64(self.ticks);
        e.f64(self.accepted_core_hours);
        e.f64(self.accepted_gb_hours);
        e.usize(self.in_use);
        e.usize(self.peak_in_use);
        self.timeline.encode(e);
        self.records.encode(e);
    }
}

impl Decode for ControllerDump {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ControllerDump {
            config: Decode::decode(d)?,
            windows_per_day: d.u32("ControllerDump windows_per_day")?,
            clusters: Decode::decode(d)?,
            store: Decode::decode(d)?,
            departures: Decode::decode(d)?,
            seq: d.u64("ControllerDump seq")?,
            probe_counts: Decode::decode(d)?,
            accountant: Decode::decode(d)?,
            latency_buckets: Decode::decode(d)?,
            latency_count: d.u64("ControllerDump latency_count")?,
            latency_sum_ns: d.u64("ControllerDump latency_sum_ns")?,
            accepted: d.u64("ControllerDump accepted")?,
            rejected: d.u64("ControllerDump rejected")?,
            departed: d.u64("ControllerDump departed")?,
            ticks: d.u64("ControllerDump ticks")?,
            accepted_core_hours: d.f64("ControllerDump accepted_core_hours")?,
            accepted_gb_hours: d.f64("ControllerDump accepted_gb_hours")?,
            in_use: d.usize("ControllerDump in_use")?,
            peak_in_use: d.usize("ControllerDump peak_in_use")?,
            timeline: Decode::decode(d)?,
            records: Decode::decode(d)?,
        })
    }
}

impl Encode for Response {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Response::Admission { vm, outcome } => {
                e.u8(0);
                vm.encode(e);
                outcome.encode(e);
            }
            Response::Departed { vm, found } => {
                e.u8(1);
                vm.encode(e);
                e.bool(*found);
            }
            Response::Ticked => e.u8(2),
            Response::ProbeCapacity(n) => {
                e.u8(3);
                e.u64(*n);
            }
            Response::Stats(stats) => {
                e.u8(4);
                stats.encode(e);
            }
        }
    }
}

impl Decode for Response {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("Response")? {
            0 => Ok(Response::Admission {
                vm: Decode::decode(d)?,
                outcome: Decode::decode(d)?,
            }),
            1 => Ok(Response::Departed {
                vm: Decode::decode(d)?,
                found: d.bool("Response found")?,
            }),
            2 => Ok(Response::Ticked),
            3 => Ok(Response::ProbeCapacity(d.u64("Response probe capacity")?)),
            4 => Ok(Response::Stats(Decode::decode(d)?)),
            tag => Err(WireError::UnknownTag {
                context: "Response",
                tag: tag as u64,
            }),
        }
    }
}

impl Encode for ShardSnapshot {
    fn encode(&self, e: &mut Encoder) {
        self.stats.encode(e);
        encode_histogram(&self.latency, e);
        self.probe_counts.encode(e);
        self.timeline_delta.encode(e);
    }
}

impl Decode for ShardSnapshot {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ShardSnapshot {
            stats: Decode::decode(d)?,
            latency: decode_histogram(d)?,
            probe_counts: Decode::decode(d)?,
            timeline_delta: Decode::decode(d)?,
        })
    }
}

/// How a process worker builds its prediction source: the parent cannot
/// ship a live `&dyn Predictor` across an exec boundary, so it ships a
/// recipe. The process backend assumes an Oracle-equivalent predictor —
/// the prederived cache is bit-identical to [`coach_sim::Oracle`] by
/// construction, so only the window partition needs to travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorSpec {
    /// A lazy [`coach_sim::Oracle`] over this many windows per day.
    Oracle {
        /// Windows per day of the partition (see
        /// [`coach_types::TimeWindows::new`]).
        windows_per_day: u32,
    },
}

impl Encode for PredictorSpec {
    fn encode(&self, e: &mut Encoder) {
        match self {
            PredictorSpec::Oracle { windows_per_day } => {
                e.u8(0);
                e.u32(*windows_per_day);
            }
        }
    }
}

impl Decode for PredictorSpec {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("PredictorSpec")? {
            0 => Ok(PredictorSpec::Oracle {
                windows_per_day: d.u32("PredictorSpec windows_per_day")?,
            }),
            tag => Err(WireError::UnknownTag {
                context: "PredictorSpec",
                tag: tag as u64,
            }),
        }
    }
}

/// A broadcast/barrier request as it crosses the pipe — every [`Request`]
/// kind except arrivals, which travel in routed segments with their
/// records inline.
///
/// [`Request`]: crate::Request
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenCmd {
    Depart { vm: VmId, now: Timestamp },
    Tick { now: Timestamp },
    Probe { now: Timestamp },
    Stats { now: Timestamp },
}

impl Encode for TokenCmd {
    fn encode(&self, e: &mut Encoder) {
        match self {
            TokenCmd::Depart { vm, now } => {
                e.u8(0);
                vm.encode(e);
                now.encode(e);
            }
            TokenCmd::Tick { now } => {
                e.u8(1);
                now.encode(e);
            }
            TokenCmd::Probe { now } => {
                e.u8(2);
                now.encode(e);
            }
            TokenCmd::Stats { now } => {
                e.u8(3);
                now.encode(e);
            }
        }
    }
}

impl Decode for TokenCmd {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("TokenCmd")? {
            0 => Ok(TokenCmd::Depart {
                vm: Decode::decode(d)?,
                now: Decode::decode(d)?,
            }),
            1 => Ok(TokenCmd::Tick {
                now: Decode::decode(d)?,
            }),
            2 => Ok(TokenCmd::Probe {
                now: Decode::decode(d)?,
            }),
            3 => Ok(TokenCmd::Stats {
                now: Decode::decode(d)?,
            }),
            tag => Err(WireError::UnknownTag {
                context: "TokenCmd",
                tag: tag as u64,
            }),
        }
    }
}

/// One command frame on a process worker's stdin. Mirrors the thread
/// backend's `ShardCmd` plus the supervision verbs (`Init`, `Export`);
/// every command produces exactly one [`WireReply`] frame — the 1:1
/// contract [`coach_types::runtime::ProcessPool`] recovery counts on.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WireCmd {
    /// Build the worker's controller: a predictor recipe plus a sealed
    /// [`Snapshot`] frame to restore from. Doubles as the checkpoint
    /// payload a recovery replays.
    Init {
        spec: PredictorSpec,
        snapshot: Vec<u8>,
    },
    /// A routed arrival segment whose per-request responses come back
    /// (`(stream index, record)` pairs).
    Batch(Vec<(u64, VmRecord)>),
    /// A routed arrival segment acknowledged without responses.
    Run(Vec<VmRecord>),
    /// A broadcast/barrier token.
    Token(TokenCmd),
    /// Retire remaining departures, flush accounting, report the final
    /// result and snapshot.
    Finalize,
    /// Serialize the controller's current state into a [`Snapshot`] frame
    /// (drain / checkpoint-refresh; the controller keeps serving).
    Export,
    /// Arm (or re-arm) the worker's telemetry at `mode` and ship back the
    /// registry delta accumulated since the last `Telemetry` command.
    /// Appended in PR 9 as tag 6 — existing frames are untouched, so the
    /// committed protocol fixture stays valid without a `VERSION` bump.
    Telemetry { mode: TelemetryConfig },
}

impl Encode for WireCmd {
    fn encode(&self, e: &mut Encoder) {
        match self {
            WireCmd::Init { spec, snapshot } => {
                e.u8(0);
                spec.encode(e);
                e.bytes(snapshot);
            }
            WireCmd::Batch(batch) => {
                e.u8(1);
                batch.encode(e);
            }
            WireCmd::Run(recs) => {
                e.u8(2);
                recs.encode(e);
            }
            WireCmd::Token(token) => {
                e.u8(3);
                token.encode(e);
            }
            WireCmd::Finalize => e.u8(4),
            WireCmd::Export => e.u8(5),
            WireCmd::Telemetry { mode } => {
                e.u8(6);
                e.u8(match mode {
                    TelemetryConfig::Off => 0,
                    TelemetryConfig::CountersOnly => 1,
                    TelemetryConfig::Full => 2,
                });
            }
        }
    }
}

impl Decode for WireCmd {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("WireCmd")? {
            0 => Ok(WireCmd::Init {
                spec: Decode::decode(d)?,
                snapshot: d.bytes("WireCmd snapshot")?.to_vec(),
            }),
            1 => Ok(WireCmd::Batch(Decode::decode(d)?)),
            2 => Ok(WireCmd::Run(Decode::decode(d)?)),
            3 => Ok(WireCmd::Token(Decode::decode(d)?)),
            4 => Ok(WireCmd::Finalize),
            5 => Ok(WireCmd::Export),
            6 => Ok(WireCmd::Telemetry {
                mode: match d.u8("WireCmd telemetry mode")? {
                    0 => TelemetryConfig::Off,
                    1 => TelemetryConfig::CountersOnly,
                    2 => TelemetryConfig::Full,
                    tag => {
                        return Err(WireError::UnknownTag {
                            context: "TelemetryConfig",
                            tag: tag as u64,
                        })
                    }
                },
            }),
            tag => Err(WireError::UnknownTag {
                context: "WireCmd",
                tag: tag as u64,
            }),
        }
    }
}

/// One reply frame on a process worker's stdout, in command order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WireReply {
    /// [`WireCmd::Init`] applied; the controller is live.
    InitOk,
    /// Per-request responses for a [`WireCmd::Batch`] segment.
    Answers(Vec<(u64, Response)>),
    /// A [`WireCmd::Run`] segment was processed.
    Ran,
    /// A non-stats token's merged-side input.
    Token(Response),
    /// A stats token's shard contribution.
    Stats(ShardSnapshot),
    /// The shard's final result and closing stats contribution.
    Finalized(PackingResult, ShardSnapshot),
    /// A sealed [`Snapshot`] frame for [`WireCmd::Export`].
    Exported(Vec<u8>),
    /// The registry delta for a [`WireCmd::Telemetry`] barrier collection
    /// (tag 7, appended in PR 9).
    Telemetry(RegistrySnapshot),
}

impl Encode for WireReply {
    fn encode(&self, e: &mut Encoder) {
        match self {
            WireReply::InitOk => e.u8(0),
            WireReply::Answers(answers) => {
                e.u8(1);
                answers.encode(e);
            }
            WireReply::Ran => e.u8(2),
            WireReply::Token(response) => {
                e.u8(3);
                response.encode(e);
            }
            WireReply::Stats(snapshot) => {
                e.u8(4);
                snapshot.encode(e);
            }
            WireReply::Finalized(result, snapshot) => {
                e.u8(5);
                result.encode(e);
                snapshot.encode(e);
            }
            WireReply::Exported(bytes) => {
                e.u8(6);
                e.bytes(bytes);
            }
            WireReply::Telemetry(snapshot) => {
                e.u8(7);
                encode_registry_snapshot(snapshot, e);
            }
        }
    }
}

impl Decode for WireReply {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("WireReply")? {
            0 => Ok(WireReply::InitOk),
            1 => Ok(WireReply::Answers(Decode::decode(d)?)),
            2 => Ok(WireReply::Ran),
            3 => Ok(WireReply::Token(Decode::decode(d)?)),
            4 => Ok(WireReply::Stats(Decode::decode(d)?)),
            5 => Ok(WireReply::Finalized(Decode::decode(d)?, Decode::decode(d)?)),
            6 => Ok(WireReply::Exported(d.bytes("WireReply snapshot")?.to_vec())),
            7 => Ok(WireReply::Telemetry(decode_registry_snapshot(d)?)),
            tag => Err(WireError::UnknownTag {
                context: "WireReply",
                tag: tag as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_sim::{PackingResult, PolicyConfig};
    use coach_trace::{generate, TraceConfig};

    #[test]
    fn serve_config_roundtrips() {
        let mut config = ServeConfig::replaying(
            PolicyConfig::paper_set().remove(2),
            0.75,
            Timestamp::from_ticks(1_000_000),
        );
        config.backend = WorkerBackend::Process;
        config.occupancy_timeline = true;
        let frame = seal_frame(&config);
        let back: ServeConfig = open_frame(&frame).expect("decode ServeConfig");
        assert_eq!(format!("{back:?}"), format!("{config:?}"));

        // Telemetry is a runtime knob, not state: it never crosses the
        // wire, so a Full config decodes back to the Off default (and the
        // committed snapshot fixture is unaffected by the new field).
        config.telemetry = TelemetryConfig::Full;
        let frame_full = seal_frame(&config);
        assert_eq!(frame_full, frame);
        let back: ServeConfig = open_frame(&frame_full).expect("decode ServeConfig");
        assert_eq!(back.telemetry, TelemetryConfig::Off);
    }

    /// A structurally valid frame whose config carries a zero
    /// violation-sampling cadence is corrupt: restore must return a typed
    /// error instead of tripping the accountant's cadence assertion.
    #[test]
    fn restore_rejects_zero_sample_cadence() {
        use crate::{Controller, RequestSource};
        use std::collections::HashMap;

        let trace = generate(&TraceConfig::small(37));
        let oracle = coach_sim::Oracle::new(TimeWindows::paper_default());
        let coach = PolicyConfig::paper_set().remove(2);
        let mut controller = Controller::replaying(&trace, &oracle, coach, 0.6);
        let requests: Vec<_> = RequestSource::replaying(&trace).collect();
        for request in &requests[..requests.len() / 2] {
            controller.handle(*request);
        }
        let mut dump: ControllerDump =
            open_frame(controller.snapshot().bytes()).expect("decode ControllerDump");
        dump.config.sample_every = SimDuration::ZERO;
        let corrupt = Snapshot::from_bytes(seal_frame(&dump));
        let table: HashMap<VmId, &VmRecord> = trace.vms.iter().map(|r| (r.id, r)).collect();
        let restored = Controller::restore(&oracle, &corrupt, |vm| table.get(&vm).copied());
        assert!(matches!(
            restored.err(),
            Some(WireError::Invalid {
                context: "snapshot sample cadence"
            })
        ));
    }

    /// A snapshot whose scheduler hosts one VM on two servers is corrupt:
    /// restore must return a typed error instead of panicking.
    #[test]
    fn restore_rejects_vm_hosted_on_two_servers() {
        use crate::{Controller, RequestSource};
        use std::collections::HashMap;

        let trace = generate(&TraceConfig::small(37));
        let oracle = coach_sim::Oracle::new(TimeWindows::paper_default());
        let coach = PolicyConfig::paper_set().remove(2);
        let mut controller = Controller::replaying(&trace, &oracle, coach, 0.6);
        let requests: Vec<_> = RequestSource::replaying(&trace).collect();
        for request in &requests[..requests.len() / 2] {
            controller.handle(*request);
        }
        let mut dump: ControllerDump =
            open_frame(controller.snapshot().bytes()).expect("decode ControllerDump");
        let servers = dump
            .clusters
            .iter_mut()
            .map(|(_, _, sched)| &mut sched.servers)
            .find(|servers| servers.len() > 1 && !servers[0].vms.is_empty())
            .expect("a cluster with a hosting first server");
        let hosted = servers[0].vms[0].clone();
        servers[1].vms.push(hosted);
        let corrupt = Snapshot::from_bytes(seal_frame(&dump));
        let table: HashMap<VmId, &VmRecord> = trace.vms.iter().map(|r| (r.id, r)).collect();
        let restored = Controller::restore(&oracle, &corrupt, |vm| table.get(&vm).copied());
        assert!(matches!(
            restored.err(),
            Some(WireError::Invalid {
                context: "snapshot scheduler"
            })
        ));
    }

    #[test]
    fn telemetry_frames_roundtrip() {
        for mode in [
            TelemetryConfig::Off,
            TelemetryConfig::CountersOnly,
            TelemetryConfig::Full,
        ] {
            let cmd = WireCmd::Telemetry { mode };
            let frame = seal_frame(&cmd);
            let back: WireCmd = open_frame(&frame).expect("decode WireCmd");
            assert_eq!(back, cmd);
        }

        let registry = coach_telemetry::Registry::new();
        registry
            .counter(
                coach_telemetry::MetricId::new("coach_serve_accepted_total", "Accepted."),
                &[
                    ("policy", coach_telemetry::LabelValue::Str("Coach")),
                    ("shard", coach_telemetry::LabelValue::U64(3)),
                ],
            )
            .add(41);
        registry
            .gauge(
                coach_telemetry::MetricId::new("coach_serve_snapshot_encode_bytes_per_s", "Enc."),
                &[],
            )
            .set(1.5e9);
        registry
            .histogram(
                coach_telemetry::MetricId::new("coach_serve_admission_latency_ns", "Admit."),
                &[],
            )
            .record_ns(12_345);
        let reply = WireReply::Telemetry(registry.drain_delta());
        let frame = seal_frame(&reply);
        let back: WireReply = open_frame(&frame).expect("decode WireReply");
        assert_eq!(back, reply);

        // Malformed telemetry mode fails softly.
        let mut e = Encoder::new();
        e.u8(6);
        e.u8(99);
        let mut frame = Vec::from(coach_wire::MAGIC);
        frame.extend_from_slice(&coach_wire::VERSION.to_le_bytes());
        frame.extend_from_slice(&e.into_bytes());
        assert!(matches!(
            open_frame::<WireCmd>(&frame),
            Err(WireError::UnknownTag {
                context: "TelemetryConfig",
                ..
            })
        ));
    }

    #[test]
    fn protocol_frames_roundtrip() {
        let trace = generate(&TraceConfig::small(19));
        let recs: Vec<VmRecord> = trace.vms.iter().take(3).cloned().collect();
        let cmds = vec![
            WireCmd::Init {
                spec: PredictorSpec::Oracle { windows_per_day: 6 },
                snapshot: vec![1, 2, 3],
            },
            WireCmd::Batch(recs.iter().map(|r| (7u64, r.clone())).collect()),
            WireCmd::Run(recs.clone()),
            WireCmd::Token(TokenCmd::Stats {
                now: Timestamp::from_ticks(42),
            }),
            WireCmd::Finalize,
            WireCmd::Export,
        ];
        for cmd in &cmds {
            let frame = seal_frame(cmd);
            let back: WireCmd = open_frame(&frame).expect("decode WireCmd");
            assert_eq!(back, *cmd);
        }

        let snapshot = ShardSnapshot {
            stats: StatsReport {
                accepted: 5,
                worker_restarts: 2,
                ..StatsReport::default()
            },
            latency: LatencyHistogram::new(),
            probe_counts: vec![3, 1, 4],
            timeline_delta: vec![(10, 1, 0, 1), (11, 0, 3, -1)],
        };
        let replies = vec![
            WireReply::InitOk,
            WireReply::Answers(vec![(
                0,
                Response::Admission {
                    vm: recs[0].id,
                    outcome: coach_sched::PlacementOutcome::Rejected,
                },
            )]),
            WireReply::Ran,
            WireReply::Token(Response::Ticked),
            WireReply::Stats(snapshot.clone()),
            WireReply::Finalized(
                PackingResult {
                    label: "Coach",
                    accepted: 1,
                    rejected: 2,
                    accepted_core_hours: 3.5,
                    accepted_gb_hours: 4.5,
                    probe_capacity: 5.5,
                    peak_servers_in_use: 6,
                    cpu_violation_rate: 0.25,
                    mem_violation_rate: 0.125,
                },
                snapshot,
            ),
            WireReply::Exported(vec![9, 9, 9]),
        ];
        for reply in &replies {
            let frame = seal_frame(reply);
            let back: WireReply = open_frame(&frame).expect("decode WireReply");
            assert_eq!(back, *reply);
        }
    }

    /// Deterministic protocol frames (supervision verbs, tokens, bare
    /// replies), length-prefix concatenated exactly as they cross the
    /// pipe, pinned against committed bytes. Drift means the protocol
    /// format changed and [`coach_wire::VERSION`] needs a bump. Regenerate
    /// with `COACH_WIRE_BLESS=1 cargo test -p coach-serve wire`.
    #[test]
    fn golden_protocol_frames_are_pinned() {
        let now = Timestamp::from_ticks(424_242);
        let frames: Vec<Vec<u8>> = vec![
            seal_frame(&WireCmd::Init {
                spec: PredictorSpec::Oracle { windows_per_day: 6 },
                snapshot: vec![0xAA, 0xBB, 0xCC],
            }),
            seal_frame(&WireCmd::Token(TokenCmd::Depart {
                vm: VmId::new(99),
                now,
            })),
            seal_frame(&WireCmd::Token(TokenCmd::Tick { now })),
            seal_frame(&WireCmd::Token(TokenCmd::Probe { now })),
            seal_frame(&WireCmd::Token(TokenCmd::Stats { now })),
            seal_frame(&WireCmd::Finalize),
            seal_frame(&WireCmd::Export),
            seal_frame(&WireReply::InitOk),
            seal_frame(&WireReply::Ran),
            seal_frame(&WireReply::Token(Response::Ticked)),
            seal_frame(&WireReply::Token(Response::ProbeCapacity(17))),
            seal_frame(&WireReply::Exported(vec![0xDE, 0xAD])),
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            coach_wire::write_frame(&mut stream, frame).expect("write to vec");
        }

        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/protocol_v2.bin");
        if std::env::var_os("COACH_WIRE_BLESS").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &stream).unwrap();
        }
        let fixture =
            std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden fixture: {e}"));
        assert_eq!(
            stream, fixture,
            "protocol frame encoding drifted from the committed v2 fixture — \
             this is a wire format change and needs a VERSION bump"
        );

        // The committed stream reads back frame-for-frame.
        let mut reader = &fixture[..];
        for expected in &frames {
            let frame = coach_wire::read_frame(&mut reader)
                .expect("read committed frame")
                .expect("stream not exhausted");
            assert_eq!(&frame, expected);
        }
        assert_eq!(coach_wire::read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn malformed_protocol_frames_fail_softly() {
        let mut e = Encoder::new();
        e.u8(250); // unknown WireCmd tag
        let mut frame = Vec::from(coach_wire::MAGIC);
        frame.extend_from_slice(&coach_wire::VERSION.to_le_bytes());
        frame.extend_from_slice(&e.into_bytes());
        assert!(matches!(
            open_frame::<WireCmd>(&frame),
            Err(WireError::UnknownTag { .. })
        ));

        // A truncated snapshot frame decodes to an error, not a panic.
        let snap = Snapshot::from_bytes(vec![0x43, 0x57]);
        assert!(snap.records().is_err());
    }
}
