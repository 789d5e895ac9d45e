//! The arena-backed resident store: struct-of-arrays state for every VM a
//! controller currently hosts, addressed by generational [`Handle`]s.
//!
//! The PR 4/5 controller kept residency in a `HashMap<VmId, u32>` and let
//! the departure heap carry raw VM ids, so every scheduled departure paid a
//! hash probe just to learn whether its entry was stale. Here residency is
//! an arena: each placed VM occupies one slot across parallel columns (id,
//! cluster, server, and the demand summary fields), slots are recycled
//! through a free list, and a slot's generation bumps on every removal.
//! A [`Handle`] — slot index + the generation it was issued under — then
//! makes staleness a single integer comparison: the heap stores handles,
//! and a lazily-cancelled departure fails generation validation instead of
//! consulting a map. Only the explicit early-departure path (keyed by
//! [`VmId`] on the wire) still goes through a hash lookup.
//!
//! The columns are struct-of-arrays on purpose: aggregate gauges (e.g.
//! [`ResidentStore::guaranteed_total`]) fold one contiguous `ResourceVec`
//! column without touching ids, servers, or the scheduler.

use coach_sched::VmDemand;
use coach_types::prelude::*;
use coach_wire::WireError;
use std::collections::HashMap;

/// A generational reference to a slot in a [`ResidentStore`].
///
/// Valid until the resident it was issued for is removed; after that,
/// lookups with the stale handle return `None` (the slot may host a
/// different VM under a newer generation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle {
    index: u32,
    generation: u32,
}

impl Handle {
    /// Pack into one `u64` (slot in the high half) so heap entries stay
    /// plain integers.
    pub fn to_raw(self) -> u64 {
        (u64::from(self.index) << 32) | u64::from(self.generation)
    }

    /// Inverse of [`Handle::to_raw`].
    pub fn from_raw(raw: u64) -> Handle {
        Handle {
            index: (raw >> 32) as u32,
            generation: raw as u32,
        }
    }
}

/// One resident VM's row, copied out of the columns on access or removal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resident {
    /// The VM.
    pub vm: VmId,
    /// Index of the cluster it was placed in (the controller's dense
    /// cluster ordering, not the [`ClusterId`]).
    pub cluster: u32,
    /// The server hosting it.
    pub server: ServerId,
    /// The guaranteed portion of its admitted demand.
    pub guaranteed: ResourceVec,
    /// The elementwise peak over its per-window maxima.
    pub window_peak: ResourceVec,
}

/// The resident-VM arena. See the [module docs](self) for the layout.
#[derive(Debug, Default)]
pub struct ResidentStore {
    vm: Vec<VmId>,
    cluster: Vec<u32>,
    server: Vec<ServerId>,
    guaranteed: Vec<ResourceVec>,
    window_peak: Vec<ResourceVec>,
    /// Current generation per slot; odd while occupied, even while free
    /// (bumped on both insert and remove), so liveness needs no separate
    /// bitmap.
    generation: Vec<u32>,
    free: Vec<u32>,
    /// The explicit-departure index: the wire addresses VMs by id.
    by_id: HashMap<VmId, Handle>,
}

impl ResidentStore {
    /// An empty store.
    pub fn new() -> Self {
        ResidentStore::default()
    }

    /// Number of resident VMs.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether no VM is resident.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Admit a placed VM, returning the handle its departure will use.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is already resident (the controller never places a
    /// VM twice).
    pub fn insert(
        &mut self,
        vm: VmId,
        cluster: u32,
        server: ServerId,
        demand: &VmDemand,
    ) -> Handle {
        let index = match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                self.vm[i] = vm;
                self.cluster[i] = cluster;
                self.server[i] = server;
                self.guaranteed[i] = demand.guaranteed;
                self.window_peak[i] = demand.window_peak();
                self.generation[i] = self.generation[i].wrapping_add(1);
                slot
            }
            None => {
                let slot = u32::try_from(self.vm.len()).expect("fewer than 2^32 residents");
                self.vm.push(vm);
                self.cluster.push(cluster);
                self.server.push(server);
                self.guaranteed.push(demand.guaranteed);
                self.window_peak.push(demand.window_peak());
                self.generation.push(1);
                slot
            }
        };
        let handle = Handle {
            index,
            generation: self.generation[index as usize],
        };
        let previous = self.by_id.insert(vm, handle);
        assert!(previous.is_none(), "VM {vm:?} already resident");
        handle
    }

    /// The row behind a handle, or `None` if it has gone stale.
    pub fn get(&self, handle: Handle) -> Option<Resident> {
        let i = handle.index as usize;
        (self.generation.get(i) == Some(&handle.generation)).then(|| self.row(i))
    }

    /// The live handle for a VM, if resident.
    pub fn handle_of(&self, vm: VmId) -> Option<Handle> {
        self.by_id.get(&vm).copied()
    }

    /// Remove by handle — the scheduled-departure path. Returns `None`
    /// without touching anything if the handle is stale (the VM already
    /// departed explicitly), which is the lazy cancellation the departure
    /// heap relies on.
    pub fn remove(&mut self, handle: Handle) -> Option<Resident> {
        let row = self.get(handle)?;
        self.evict(handle.index, row.vm);
        Some(row)
    }

    /// Remove by VM id — the explicit early-departure path.
    pub fn remove_by_id(&mut self, vm: VmId) -> Option<Resident> {
        let handle = self.by_id.get(&vm).copied()?;
        let row = self.row(handle.index as usize);
        self.evict(handle.index, vm);
        Some(row)
    }

    /// Every resident row, in slot order.
    pub(crate) fn residents(&self) -> impl Iterator<Item = Resident> + '_ {
        (0..self.vm.len())
            .filter(|&i| self.generation[i] % 2 == 1)
            .map(|i| self.row(i))
    }

    /// Elementwise sum of the guaranteed portions of every resident demand
    /// — one contiguous column fold, no per-VM chasing.
    pub fn guaranteed_total(&self) -> ResourceVec {
        self.guaranteed
            .iter()
            .zip(&self.generation)
            .filter(|(_, g)| *g % 2 == 1)
            .fold(ResourceVec::ZERO, |acc, (g, _)| acc + *g)
    }

    /// Copy out the full column state for the snapshot codec.
    ///
    /// Free slots' columns are carried verbatim (their stale values are
    /// deterministic leftovers of a deterministic run), so a restored
    /// store re-snapshots to identical bytes — the property the
    /// `snapshot_roundtrip_identical` bench flag pins.
    pub(crate) fn dump(&self) -> StoreDump {
        StoreDump {
            vm: self.vm.clone(),
            cluster: self.cluster.clone(),
            server: self.server.clone(),
            guaranteed: self.guaranteed.clone(),
            window_peak: self.window_peak.clone(),
            generation: self.generation.clone(),
            free: self.free.clone(),
        }
    }

    /// Rebuild a store from dumped columns. The id index is derived, not
    /// dumped: a slot is occupied exactly while its generation is odd.
    ///
    /// A corrupt or hand-forged dump is a [`WireError::Invalid`]: columns
    /// that disagree on length, a VM id in two occupied slots, a resident
    /// whose cluster index is not below `cluster_count` (its departure
    /// would index past the controller's clusters), or a free list naming
    /// a slot that is out of range, occupied, or already listed (the next
    /// arrival would panic or overwrite a resident).
    pub(crate) fn from_dump(
        dump: StoreDump,
        cluster_count: usize,
    ) -> Result<ResidentStore, WireError> {
        let slots = dump.vm.len();
        if [
            dump.cluster.len(),
            dump.server.len(),
            dump.guaranteed.len(),
            dump.window_peak.len(),
            dump.generation.len(),
        ]
        .iter()
        .any(|&len| len != slots)
        {
            return Err(WireError::Invalid {
                context: "snapshot resident store columns",
            });
        }
        let mut by_id = HashMap::new();
        for (i, &generation) in dump.generation.iter().enumerate() {
            if generation % 2 == 1 {
                if dump.cluster[i] as usize >= cluster_count {
                    return Err(WireError::Invalid {
                        context: "snapshot resident cluster",
                    });
                }
                let handle = Handle {
                    index: i as u32,
                    generation,
                };
                if by_id.insert(dump.vm[i], handle).is_some() {
                    return Err(WireError::Invalid {
                        context: "snapshot resident store slots",
                    });
                }
            }
        }
        let mut listed = vec![false; slots];
        for &slot in &dump.free {
            let i = slot as usize;
            if i >= slots || dump.generation[i] % 2 == 1 || std::mem::replace(&mut listed[i], true)
            {
                return Err(WireError::Invalid {
                    context: "snapshot resident store free list",
                });
            }
        }
        Ok(ResidentStore {
            vm: dump.vm,
            cluster: dump.cluster,
            server: dump.server,
            guaranteed: dump.guaranteed,
            window_peak: dump.window_peak,
            generation: dump.generation,
            free: dump.free,
            by_id,
        })
    }

    fn row(&self, i: usize) -> Resident {
        Resident {
            vm: self.vm[i],
            cluster: self.cluster[i],
            server: self.server[i],
            guaranteed: self.guaranteed[i],
            window_peak: self.window_peak[i],
        }
    }

    fn evict(&mut self, index: u32, vm: VmId) {
        let i = index as usize;
        self.generation[i] = self.generation[i].wrapping_add(1);
        self.free.push(index);
        self.by_id.remove(&vm);
    }
}

/// The wire-facing image of a [`ResidentStore`]: parallel columns plus the
/// free list, with the `by_id` index left to be derived on restore.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoreDump {
    pub vm: Vec<VmId>,
    pub cluster: Vec<u32>,
    pub server: Vec<ServerId>,
    pub guaranteed: Vec<ResourceVec>,
    pub window_peak: Vec<ResourceVec>,
    pub generation: Vec<u32>,
    pub free: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(vm: u64, guar: f64) -> VmDemand {
        VmDemand::unpredicted(VmId::new(vm), ResourceVec::new(guar, 2.0 * guar, 0.5, 16.0))
    }

    #[test]
    fn handles_round_trip_and_go_stale() {
        let mut store = ResidentStore::new();
        let d = demand(7, 4.0);
        let h = store.insert(VmId::new(7), 3, ServerId::new(40), &d);
        assert_eq!(Handle::from_raw(h.to_raw()), h);
        let row = store.get(h).expect("live handle resolves");
        assert_eq!(row.vm, VmId::new(7));
        assert_eq!(row.cluster, 3);
        assert_eq!(row.server, ServerId::new(40));
        assert_eq!(row.guaranteed, d.guaranteed);
        assert_eq!(row.window_peak, d.window_peak());

        assert_eq!(store.remove(h), Some(row));
        assert_eq!(store.get(h), None, "removed handle is stale");
        assert_eq!(store.remove(h), None, "double removal is a no-op");
        assert!(store.is_empty());

        // The recycled slot's new tenant does not resurrect the old handle.
        let h2 = store.insert(VmId::new(8), 0, ServerId::new(41), &demand(8, 1.0));
        assert_eq!(store.get(h), None);
        assert_eq!(store.get(h2).unwrap().vm, VmId::new(8));
    }

    #[test]
    fn explicit_departure_cancels_scheduled_handle() {
        let mut store = ResidentStore::new();
        let h = store.insert(VmId::new(1), 0, ServerId::new(9), &demand(1, 2.0));
        assert_eq!(store.handle_of(VmId::new(1)), Some(h));
        // The wire departs the VM by id first...
        assert!(store.remove_by_id(VmId::new(1)).is_some());
        assert_eq!(store.handle_of(VmId::new(1)), None);
        // ...so the heap's later pop lazily cancels.
        assert_eq!(store.remove(h), None);
        assert_eq!(store.remove_by_id(VmId::new(1)), None);
    }

    #[test]
    fn guaranteed_total_tracks_the_live_column() {
        let mut store = ResidentStore::new();
        let a = store.insert(VmId::new(1), 0, ServerId::new(1), &demand(1, 2.0));
        store.insert(VmId::new(2), 0, ServerId::new(2), &demand(2, 3.0));
        assert_eq!(store.guaranteed_total().cpu(), 5.0);
        store.remove(a);
        assert_eq!(store.guaranteed_total().cpu(), 3.0);
        store.insert(VmId::new(3), 0, ServerId::new(3), &demand(3, 7.0));
        assert_eq!(store.len(), 2);
        assert_eq!(store.guaranteed_total().cpu(), 10.0);
    }

    #[test]
    fn dump_restore_preserves_handles_and_free_list() {
        let mut store = ResidentStore::new();
        let a = store.insert(VmId::new(1), 0, ServerId::new(1), &demand(1, 2.0));
        let b = store.insert(VmId::new(2), 1, ServerId::new(2), &demand(2, 3.0));
        store.remove(a); // slot 0 freed; its columns keep stale values

        let restored = ResidentStore::from_dump(store.dump(), 2).expect("consistent dump");
        assert_eq!(restored.len(), 1);
        assert_eq!(restored.get(b), store.get(b));
        assert_eq!(restored.get(a), None, "stale handle stays stale");
        assert_eq!(restored.handle_of(VmId::new(2)), Some(b));
        // The freed slot is recycled in the same order as the original.
        let mut original = store;
        let c1 = original.insert(VmId::new(3), 0, ServerId::new(3), &demand(3, 1.0));
        let mut restored = restored;
        let c2 = restored.insert(VmId::new(3), 0, ServerId::new(3), &demand(3, 1.0));
        assert_eq!(c1, c2);
        assert_eq!(original.dump(), restored.dump());
    }

    #[test]
    fn conflicting_dump_rejected() {
        let mut store = ResidentStore::new();
        store.insert(VmId::new(1), 0, ServerId::new(1), &demand(1, 2.0));
        store.insert(VmId::new(2), 0, ServerId::new(2), &demand(2, 3.0));
        let mut dump = store.dump();
        dump.vm[1] = VmId::new(1); // forge a duplicate occupancy
        assert!(matches!(
            ResidentStore::from_dump(dump, 1),
            Err(WireError::Invalid {
                context: "snapshot resident store slots"
            })
        ));
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut store = ResidentStore::new();
        store.insert(VmId::new(1), 0, ServerId::new(1), &demand(1, 1.0));
        store.insert(VmId::new(1), 0, ServerId::new(2), &demand(1, 1.0));
    }
}
