//! The owner-level consistent-hash ring.
//!
//! Each owner process contributes [`VNODES_PER_OWNER`] virtual points,
//! a tenant key maps to the first point at or after it (wrapping), and
//! adding or removing an owner therefore moves only the tenants whose
//! arc changed hands — the property the live-handoff machinery depends
//! on to keep membership changes cheap. (Inside one owner the shard
//! set never changes, so `hds-serve` places tenants by plain
//! `mix(key) % shards` instead.) Both the points and the looked-up keys
//! go through the [`mix`] finalizer, so short structured names spread
//! evenly.

use hds_trace::hash::{fnv1a64, mix};

/// Virtual points each owner contributes to the ring.
pub const VNODES_PER_OWNER: u32 = 64;

/// A consistent-hash ring over owner process ids.
#[derive(Clone, Debug, Default)]
pub struct OwnerRing {
    /// Sorted `(point, owner)` pairs.
    points: Vec<(u64, u32)>,
    owners: Vec<u32>,
}

impl OwnerRing {
    /// An empty ring.
    #[must_use]
    pub fn new() -> Self {
        OwnerRing::default()
    }

    /// Adds an owner's virtual points. Idempotent.
    pub fn add(&mut self, owner: u32) {
        if self.owners.contains(&owner) {
            return;
        }
        self.owners.push(owner);
        self.owners.sort_unstable();
        for v in 0..VNODES_PER_OWNER {
            let point = mix(fnv1a64(format!("owner-{owner}-vnode-{v}").as_bytes()));
            self.points.push((point, owner));
        }
        self.points.sort_unstable();
    }

    /// Removes an owner's virtual points. Idempotent.
    pub fn remove(&mut self, owner: u32) {
        self.owners.retain(|&o| o != owner);
        self.points.retain(|&(_, o)| o != owner);
    }

    /// Whether the owner is a member.
    #[must_use]
    pub fn contains(&self, owner: u32) -> bool {
        self.owners.contains(&owner)
    }

    /// Current members, ascending.
    #[must_use]
    pub fn owners(&self) -> &[u32] {
        &self.owners
    }

    /// The owner responsible for a tenant key, or `None` on an empty
    /// ring.
    #[must_use]
    pub fn owner_for(&self, key: u64) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let key = mix(key);
        let idx = self.points.partition_point(|&(p, _)| p < key);
        let (_, owner) = self.points[idx % self.points.len()];
        Some(owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hds_serve::tenant_key;

    fn keys(n: u64) -> Vec<u64> {
        (0..n)
            .map(|i| tenant_key(&format!("tenant-{i:03}")))
            .collect()
    }

    #[test]
    fn assignment_is_deterministic_and_total() {
        let mut a = OwnerRing::new();
        let mut b = OwnerRing::new();
        for id in [3, 1, 2] {
            a.add(id);
        }
        for id in [1, 2, 3] {
            b.add(id);
        }
        for key in keys(200) {
            assert_eq!(a.owner_for(key), b.owner_for(key));
            assert!(a.owner_for(key).is_some());
        }
        assert_eq!(a.owners(), &[1, 2, 3]);
    }

    /// Owner placement is part of the cluster's observable behaviour
    /// (which owner a kill hits, what a join migrates): pinned so a
    /// change to the shared hash or finalizer cannot move it silently.
    #[test]
    fn placement_is_pinned() {
        let mut ring = OwnerRing::new();
        for id in 0..4 {
            ring.add(id);
        }
        let placed: Vec<u32> = keys(16)
            .into_iter()
            .map(|k| ring.owner_for(k).unwrap())
            .collect();
        assert_eq!(placed, [1, 2, 3, 3, 1, 0, 1, 1, 0, 0, 3, 3, 1, 1, 3, 0]);
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = OwnerRing::new();
        assert_eq!(ring.owner_for(42), None);
        assert!(!ring.contains(0));
    }

    #[test]
    fn removing_an_owner_moves_only_its_tenants() {
        let mut ring = OwnerRing::new();
        for id in 0..4 {
            ring.add(id);
        }
        let before: Vec<(u64, u32)> = keys(500)
            .into_iter()
            .map(|k| (k, ring.owner_for(k).unwrap()))
            .collect();
        ring.remove(2);
        for (key, owner) in before {
            let now = ring.owner_for(key).unwrap();
            if owner != 2 {
                assert_eq!(now, owner, "key {key:#x} moved though its owner survived");
            } else {
                assert_ne!(now, 2);
            }
        }
    }

    #[test]
    fn add_and_remove_are_idempotent() {
        let mut ring = OwnerRing::new();
        ring.add(7);
        ring.add(7);
        assert_eq!(ring.owners(), &[7]);
        ring.remove(7);
        ring.remove(7);
        assert_eq!(ring.owner_for(1), None);
    }

    #[test]
    fn load_spreads_across_owners() {
        let mut ring = OwnerRing::new();
        for id in 0..8 {
            ring.add(id);
        }
        let mut counts = [0u32; 8];
        for key in keys(800) {
            counts[ring.owner_for(key).unwrap() as usize] += 1;
        }
        for (id, &c) in counts.iter().enumerate() {
            assert!(c > 0, "owner {id} got no tenants out of 800");
        }
    }
}
