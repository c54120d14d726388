//! Scene and shard placement against per-replica memory budgets.
//!
//! The coordinator owns placement: every placement **site** — a whole
//! scene, or one shard of a sharded scene — is assigned to a **replica
//! set**: one primary copy, plus extra read copies the
//! [`crate::replication`] layer adds while the scene is hot. The placement
//! chooser is most-free-budget-first, which balances bytes across the
//! fleet and naturally spills the shards of one large scene over several
//! replicas — the layout cross-node sharded rendering serves from. Reads
//! over a multi-copy set are load-balanced with power-of-two-choices over
//! per-replica in-flight counts ([`pick_read_copy`]).
//!
//! The coordinator also keeps each scene's parameters host-side (the
//! serving analogue of GS-Scale's host-offloaded training state): when a
//! replica dies, its placements are re-loaded onto survivors from this
//! hold, which is what makes failover lossless — and what makes hot-scene
//! replication cheap, since a new copy is loaded from the hold rather than
//! fetched from a peer.

use std::sync::Arc;

use gs_core::gaussian::GaussianParams;
use gs_serve::{Aabb, SceneId};

use crate::replica::{Health, ReplicaId};

/// A replica's capacity as the placement chooser sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementCandidate {
    /// Which replica.
    pub id: ReplicaId,
    /// Routing state; only [`Health::Up`] replicas receive placements.
    pub health: Health,
    /// Reported device budget in bytes.
    pub budget: u64,
    /// Bytes the coordinator has already placed on the replica.
    pub placed: u64,
}

impl PlacementCandidate {
    /// Bytes still unplaced on this replica.
    pub fn free(&self) -> u64 {
        self.budget.saturating_sub(self.placed)
    }
}

/// Chooses the replica for a `bytes`-sized placement: the [`Health::Up`]
/// candidate with the most free budget that can still hold it, excluding
/// `exclude` (the replicas a failover is moving away from, or the copies a
/// replication already occupies). Returns `None` when nothing fits.
pub fn pick_replica(
    candidates: &[PlacementCandidate],
    bytes: u64,
    exclude: &[ReplicaId],
) -> Option<ReplicaId> {
    candidates
        .iter()
        .filter(|c| c.health == Health::Up && !exclude.contains(&c.id) && c.free() >= bytes)
        .max_by_key(|c| (c.free(), std::cmp::Reverse(c.id)))
        .map(|c| c.id)
}

/// One serving copy as the read load-balancer sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadCandidate {
    /// Which replica holds the copy.
    pub id: ReplicaId,
    /// Renders currently in flight on the replica.
    pub inflight: u64,
    /// Bytes the coordinator has placed on the replica.
    pub placed: u64,
}

/// Picks the copy a read should hit: power-of-two-choices over per-replica
/// in-flight counts, falling back to least-placed-bytes (then lower id)
/// when the probed pair ties. `salt` supplies the two probe indices — the
/// caller advances a cheap counter per routed request so probes rotate
/// deterministically. Returns `None` on an empty candidate list.
pub fn pick_read_copy(copies: &[ReadCandidate], salt: u64) -> Option<ReplicaId> {
    match copies {
        [] => None,
        [only] => Some(only.id),
        _ => {
            // SplitMix-style scramble so consecutive salts probe different
            // pairs; no RNG state, fully deterministic.
            let mut z = salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let i = (z as usize) % copies.len();
            let mut j = ((z >> 32) as usize) % copies.len();
            if i == j {
                j = (j + 1) % copies.len();
            }
            let (a, b) = (&copies[i], &copies[j]);
            let key = |c: &ReadCandidate| (c.inflight, c.placed, c.id);
            Some(if key(a) <= key(b) { a.id } else { b.id })
        }
    }
}

/// A placement site: one unit of data the coordinator places — a whole
/// scene, or one shard of a sharded scene — plus the replica set serving
/// it. Routing, failover, repair, moves and replication all work on sites.
#[derive(Debug, Clone)]
pub(crate) struct Site {
    /// The replicas currently serving the site; the first entry is the
    /// primary, the rest are replication copies.
    pub replicas: Vec<ReplicaId>,
    /// Host-side parameter hold the site is (re-)placed from.
    pub params: Arc<GaussianParams>,
    /// Bytes the site occupies on **each** replica that holds a copy.
    pub bytes: u64,
}

impl Site {
    /// A site not yet placed on any replica.
    pub fn unplaced(params: Arc<GaussianParams>, bytes: u64) -> Self {
        Self {
            replicas: Vec::new(),
            params,
            bytes,
        }
    }
}

/// One shard of a sharded scene: its site plus the bounds the coordinator
/// culls and depth-orders it by.
#[derive(Debug, Clone)]
pub(crate) struct ShardHold {
    /// Where the shard lives.
    pub site: Site,
    /// Center bounding box (depth ordering + view culling).
    pub aabb: Aabb,
    /// Largest per-Gaussian scale (view-culling inflation radius).
    pub max_scale: f32,
}

/// How a scene is split into sites.
#[derive(Debug, Clone)]
pub(crate) enum Hold {
    /// The whole scene is one site.
    Single(Site),
    /// One site per shard, in partition order.
    Sharded(Vec<ShardHold>),
}

/// A placed scene: background plus its sites. A site is addressed by
/// `shard`: `None` for a whole scene, `Some(k)` for shard `k`; addressing
/// a site the scene does not have (wrong shape, or a shard index past a
/// concurrent re-shard) finds nothing.
#[derive(Debug, Clone)]
pub(crate) struct SceneHold {
    /// Background color composited behind the splats.
    pub background: [f32; 3],
    /// The scene's sites.
    pub hold: Hold,
}

impl SceneHold {
    /// The site `shard` addresses.
    pub fn site(&self, shard: Option<usize>) -> Option<&Site> {
        match (&self.hold, shard) {
            (Hold::Single(site), None) => Some(site),
            (Hold::Sharded(shards), Some(k)) => shards.get(k).map(|s| &s.site),
            _ => None,
        }
    }

    /// The site `shard` addresses, mutably.
    pub fn site_mut(&mut self, shard: Option<usize>) -> Option<&mut Site> {
        match (&mut self.hold, shard) {
            (Hold::Single(site), None) => Some(site),
            (Hold::Sharded(shards), Some(k)) => shards.get_mut(k).map(|s| &mut s.site),
            _ => None,
        }
    }

    /// Every site with its address, in partition order.
    pub fn sites(&self) -> Vec<(Option<usize>, &Site)> {
        match &self.hold {
            Hold::Single(site) => vec![(None, site)],
            Hold::Sharded(shards) => shards
                .iter()
                .enumerate()
                .map(|(k, s)| (Some(k), &s.site))
                .collect(),
        }
    }

    /// Every site with its address, mutably.
    pub fn sites_mut(&mut self) -> Vec<(Option<usize>, &mut Site)> {
        match &mut self.hold {
            Hold::Single(site) => vec![(None, site)],
            Hold::Sharded(shards) => shards
                .iter_mut()
                .enumerate()
                .map(|(k, s)| (Some(k), &mut s.site))
                .collect(),
        }
    }
}

/// The id a site is loaded under on its replicas: the scene id for a whole
/// scene, `"<id>@<k>"` for shard `k`.
pub(crate) fn site_id(id: &SceneId, shard: Option<usize>) -> SceneId {
    match shard {
        None => id.clone(),
        Some(k) => format!("{id}@{k}"),
    }
}

/// One row of the cluster's scene listing: how a scene is spread across
/// replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenePlacement {
    /// Scene id.
    pub id: SceneId,
    /// How many shards the scene is split into (`1` for a single scene).
    pub shards: usize,
    /// Every replica holding a copy, shard by shard (one entry per copy;
    /// an unreplicated scene lists exactly `shards` entries).
    pub replicas: Vec<ReplicaId>,
    /// Total Gaussians.
    pub gaussians: usize,
    /// Bytes of one copy of the scene.
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(id: ReplicaId, health: Health, budget: u64, placed: u64) -> PlacementCandidate {
        PlacementCandidate {
            id,
            health,
            budget,
            placed,
        }
    }

    #[test]
    fn picks_the_most_free_up_replica() {
        let candidates = [
            candidate(0, Health::Up, 100, 80),
            candidate(1, Health::Up, 100, 20),
            candidate(2, Health::Up, 50, 0),
        ];
        assert_eq!(pick_replica(&candidates, 10, &[]), Some(1));
        // Excluding the winner falls back to the next-freest.
        assert_eq!(pick_replica(&candidates, 10, &[1]), Some(2));
        // Excluding every candidate leaves nothing.
        assert_eq!(pick_replica(&candidates, 10, &[0, 1, 2]), None);
        // Ties break toward the lower id (deterministic placement).
        let tied = [
            candidate(0, Health::Up, 100, 50),
            candidate(1, Health::Up, 100, 50),
        ];
        assert_eq!(pick_replica(&tied, 10, &[]), Some(0));
    }

    #[test]
    fn skips_unhealthy_and_full_replicas() {
        let candidates = [
            candidate(0, Health::Down, 1000, 0),
            candidate(1, Health::Draining, 1000, 0),
            candidate(2, Health::Up, 100, 95),
        ];
        assert_eq!(pick_replica(&candidates, 10, &[]), None);
        assert_eq!(pick_replica(&candidates, 5, &[]), Some(2));
        assert_eq!(pick_replica(&[], 1, &[]), None);
    }

    fn copy(id: ReplicaId, inflight: u64, placed: u64) -> ReadCandidate {
        ReadCandidate {
            id,
            inflight,
            placed,
        }
    }

    #[test]
    fn read_picks_follow_inflight_then_placed_bytes() {
        assert_eq!(pick_read_copy(&[], 0), None);
        assert_eq!(pick_read_copy(&[copy(3, 9, 9)], 0), Some(3));
        // Two copies: every salt probes both, so the lower in-flight count
        // always wins regardless of salt.
        let copies = [copy(0, 5, 0), copy(1, 1, 1 << 30)];
        for salt in 0..32 {
            assert_eq!(pick_read_copy(&copies, salt), Some(1));
        }
        // In-flight tie falls back to least placed bytes, then lower id.
        let tied = [copy(0, 2, 500), copy(1, 2, 100)];
        for salt in 0..32 {
            assert_eq!(pick_read_copy(&tied, salt), Some(1));
        }
        let fully_tied = [copy(0, 2, 100), copy(1, 2, 100)];
        for salt in 0..32 {
            assert_eq!(pick_read_copy(&fully_tied, salt), Some(0));
        }
    }

    #[test]
    fn read_probes_rotate_across_a_larger_set() {
        // With >2 idle copies the probed pair depends on the salt, so over
        // many salts more than one replica must be picked.
        let copies = [copy(0, 0, 0), copy(1, 0, 0), copy(2, 0, 0), copy(3, 0, 0)];
        let picked: std::collections::BTreeSet<_> =
            (0..64).filter_map(|s| pick_read_copy(&copies, s)).collect();
        assert!(picked.len() > 1, "probes never rotated: {picked:?}");
    }
}
