//! [`coach_wire`] codecs for scheduler state.
//!
//! These impls carry the scheduler half of a `coach-serve` snapshot across
//! the wire: per-server packing state ([`ServerStateDump`]) and whole
//! schedulers ([`ClusterSchedulerDump`]), plus the policy/heuristic enums a
//! serving config names. Dumps hold raw accumulated `f64` sums, and the
//! codecs ship them verbatim (IEEE-754 bits), so a restored scheduler is
//! `assert_eq!`-identical to the one that was snapshotted — including every
//! future placement decision it will make.

use coach_wire::{Decode, Decoder, Encode, Encoder, WireError};

use crate::demand::{Policy, VmDemand};
use crate::scheduler::{ClusterSchedulerDump, PlacementHeuristic, PlacementOutcome, ScanStrategy};
use crate::server::ServerStateDump;

impl Encode for PlacementOutcome {
    fn encode(&self, e: &mut Encoder) {
        match self {
            PlacementOutcome::Placed(server) => {
                e.u8(0);
                server.encode(e);
            }
            PlacementOutcome::Rejected => e.u8(1),
        }
    }
}

impl Decode for PlacementOutcome {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("PlacementOutcome")? {
            0 => Ok(PlacementOutcome::Placed(Decode::decode(d)?)),
            1 => Ok(PlacementOutcome::Rejected),
            tag => Err(WireError::UnknownTag {
                context: "PlacementOutcome",
                tag: tag as u64,
            }),
        }
    }
}

impl Encode for Policy {
    fn encode(&self, e: &mut Encoder) {
        e.u8(match self {
            Policy::None => 0,
            Policy::Single => 1,
            Policy::Coach => 2,
        });
    }
}

impl Decode for Policy {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("Policy")? {
            0 => Ok(Policy::None),
            1 => Ok(Policy::Single),
            2 => Ok(Policy::Coach),
            tag => Err(WireError::UnknownTag {
                context: "Policy",
                tag: tag as u64,
            }),
        }
    }
}

impl Encode for PlacementHeuristic {
    fn encode(&self, e: &mut Encoder) {
        e.u8(match self {
            PlacementHeuristic::BestFit => 0,
            PlacementHeuristic::FirstFit => 1,
            PlacementHeuristic::WorstFit => 2,
        });
    }
}

impl Decode for PlacementHeuristic {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("PlacementHeuristic")? {
            0 => Ok(PlacementHeuristic::BestFit),
            1 => Ok(PlacementHeuristic::FirstFit),
            2 => Ok(PlacementHeuristic::WorstFit),
            tag => Err(WireError::UnknownTag {
                context: "PlacementHeuristic",
                tag: tag as u64,
            }),
        }
    }
}

impl Encode for ScanStrategy {
    fn encode(&self, e: &mut Encoder) {
        e.u8(match self {
            ScanStrategy::Indexed => 0,
            ScanStrategy::NaiveReference => 1,
        });
    }
}

impl Decode for ScanStrategy {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("ScanStrategy")? {
            0 => Ok(ScanStrategy::Indexed),
            1 => Ok(ScanStrategy::NaiveReference),
            tag => Err(WireError::UnknownTag {
                context: "ScanStrategy",
                tag: tag as u64,
            }),
        }
    }
}

impl Encode for VmDemand {
    fn encode(&self, e: &mut Encoder) {
        self.vm.encode(e);
        self.requested.encode(e);
        self.guaranteed.encode(e);
        self.window_max.encode(e);
    }
}

impl Decode for VmDemand {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(VmDemand {
            vm: Decode::decode(d)?,
            requested: Decode::decode(d)?,
            guaranteed: Decode::decode(d)?,
            window_max: Decode::decode(d)?,
        })
    }
}

impl Encode for ServerStateDump {
    fn encode(&self, e: &mut Encoder) {
        self.id.encode(e);
        self.capacity.encode(e);
        e.usize(self.windows);
        self.guaranteed_sum.encode(e);
        self.window_sum.encode(e);
        self.va_mem_sum.encode(e);
        e.f64(self.va_peak_mem_sum);
        self.vms.encode(e);
    }
}

impl Decode for ServerStateDump {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ServerStateDump {
            id: Decode::decode(d)?,
            capacity: Decode::decode(d)?,
            windows: d.usize("ServerStateDump windows")?,
            guaranteed_sum: Decode::decode(d)?,
            window_sum: Decode::decode(d)?,
            va_mem_sum: Decode::decode(d)?,
            va_peak_mem_sum: d.f64("ServerStateDump va_peak_mem_sum")?,
            vms: Decode::decode(d)?,
        })
    }
}

impl Encode for ClusterSchedulerDump {
    fn encode(&self, e: &mut Encoder) {
        self.servers.encode(e);
        self.heuristic.encode(e);
        self.scan.encode(e);
        e.u64(self.placed);
        e.u64(self.rejected);
    }
}

impl Decode for ClusterSchedulerDump {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ClusterSchedulerDump {
            servers: Decode::decode(d)?,
            heuristic: Decode::decode(d)?,
            scan: Decode::decode(d)?,
            placed: d.u64("ClusterSchedulerDump placed")?,
            rejected: d.u64("ClusterSchedulerDump rejected")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterScheduler, PlacementHeuristic, PlacementOutcome};
    use coach_types::{ResourceVec, ServerId, VmId, WindowVec};
    use coach_wire::{open_frame, seal_frame};

    #[test]
    fn scheduler_dump_roundtrips_and_restores_identically() {
        let ids: Vec<ServerId> = (0..4).map(ServerId::new).collect();
        let capacity = ResourceVec::new(16.0, 64.0, 10.0, 1024.0);
        let mut sched = ClusterScheduler::new(&ids, capacity, 3, PlacementHeuristic::BestFit);
        for i in 0..9 {
            let demand = VmDemand {
                vm: VmId::new(i),
                requested: ResourceVec::new(3.0, 11.0, 1.0, 64.0),
                guaranteed: ResourceVec::new(1.5, 5.5, 0.5, 32.0),
                window_max: WindowVec::from_elem(ResourceVec::new(2.0, 8.0, 0.7, 48.0), 3),
            };
            assert!(matches!(sched.place(demand), PlacementOutcome::Placed(_)));
        }

        let frame = seal_frame(&sched.dump());
        let dump: ClusterSchedulerDump = open_frame(&frame).expect("decode scheduler dump");
        let restored = ClusterScheduler::from_dump(dump).expect("consistent dump");
        assert_eq!(restored, sched);
    }
}
