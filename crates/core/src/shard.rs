//! Sharded, tile-parallel variant of the Algorithm 2 subset sweep.
//!
//! The monolithic sweep hands every worker first-member blocks in rank
//! order, so each worker's matching buffers are sized to the whole
//! instance — at a million users that is the working set. The sharded
//! sweep instead decomposes the hovering grid into square spatial
//! tiles (reusing the grid geometry behind
//! [`TilePartition`](uavnet_geom::TilePartition)), assigns every seed
//! subset to the tile holding its lexicographically first pool member,
//! and solves whole tiles in parallel against *tile views*: the
//! locations reachable from the tile's pool members within a hop
//! bound, plus a dense remap of just the users those locations can
//! cover. Matching then runs over `O(tile users)` ids instead of
//! `O(instance users)`.
//!
//! Stitching stays globally exact because nothing global is
//! approximated:
//!
//! * the [`ConnectivitySubstrate`] is built once over the full
//!   location graph, and every per-tile matroid, MST connection and
//!   gateway extension reads it with **global** location ids — tile
//!   boundaries never truncate relay routing;
//! * the local user remap is a bijection on the users a view can
//!   reach, and a maximum matching's value is invariant under
//!   relabeling, so served counts (and the lazy greedy's pick
//!   sequence, which only compares gains) are bit-identical to the
//!   monolithic sweep's;
//! * any subset whose ground set or relay paths still leave its view
//!   (possible via gateway extension, or with chain pruning off)
//!   reports [`SubsetOutcome::EscapedView`] *before* its first gain
//!   query against the truncated view and is re-solved against a
//!   lazily created global workspace.
//!
//! The tiles are only a different way of handing out the work: a tile
//! holds the first-member blocks of its members, the same work items
//! the monolithic sweep claims one by one, and every block runs through
//! the same `approx::sweep` set-up, watermark, per-rank worker body and
//! per-block gain memo (`crate::strategy`). A subset that escapes its view takes back
//! the memo entries it added along with its counters, and the reduce
//! uses the same (served desc, enumeration rank asc) order, so
//! [`approx_alg_sharded`] returns the same solution and the same
//! deterministic statistics as [`approx_alg_with_stats`] for any tile
//! size and thread count — `crate::verify::check_sharded_sweep` pins
//! exactly that.
//!
//! [`approx_alg_with_stats`]: crate::approx_alg_with_stats
//! [`SubsetOutcome::EscapedView`]: crate::approx::SubsetOutcome::EscapedView

use crate::approx::{sweep, ApproxConfig, ApproxStats};
use crate::solution::Solution;
use crate::strategy::{first_member_block, search, SearchContext, Tile, WorkItems};
use crate::{CoreError, Instance};
use uavnet_geom::{CellIndex, TilePartition};
use uavnet_graph::{ConnectivitySubstrate, UNREACHABLE_HOPS};

/// Configuration of [`approx_alg_sharded`].
///
/// # Examples
///
/// ```
/// use uavnet_core::ShardConfig;
/// let shard = ShardConfig::new().tile_cells(4);
/// assert_eq!(shard.tile_cells_per_side(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ShardConfig {
    tile_cells: usize,
}

impl ShardConfig {
    /// The default sharding: 8×8-cell tiles.
    pub fn new() -> Self {
        ShardConfig { tile_cells: 8 }
    }

    /// Sets the tile side in grid cells; `0` collapses to a single
    /// tile covering the whole grid.
    pub fn tile_cells(mut self, cells: usize) -> Self {
        self.tile_cells = cells;
        self
    }

    /// The configured tile side in grid cells.
    pub fn tile_cells_per_side(&self) -> usize {
        self.tile_cells
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig::new()
    }
}

/// A tile's restricted solving context: the locations reachable from
/// the tile's pool members within the sweep's hop bound, and a dense
/// remap of the users those locations can cover. Location ids stay
/// global everywhere; only the *user* axis is remapped, so the
/// matching kernel works on arrays sized to the tile.
#[derive(Debug)]
pub(crate) struct TileView {
    /// Global location ids in the view, ascending.
    locs: Vec<CellIndex>,
    /// Global location → dense slot in `locs`; `u32::MAX` marks a
    /// location outside the view.
    loc_slot: Vec<u32>,
    /// Users appearing in any of the view's coverage lists.
    num_local_users: usize,
    /// CSR offsets over `(class, loc slot)` entries, class-major.
    start: Vec<usize>,
    /// Local user ids of every list, ascending within each list (the
    /// global → local remap is monotone).
    lists: Vec<u32>,
}

impl TileView {
    /// Whether the global location `loc` is inside the view.
    pub(crate) fn contains_loc(&self, loc: CellIndex) -> bool {
        self.loc_slot[loc] != u32::MAX
    }

    /// The local-id coverable list for (`class`, global `loc`).
    ///
    /// # Panics
    ///
    /// Panics (in debug) if `loc` is outside the view — callers must
    /// check [`contains_loc`](Self::contains_loc) via the escape
    /// protocol first.
    pub(crate) fn list(&self, class: usize, loc: CellIndex) -> &[u32] {
        let slot = self.loc_slot[loc];
        debug_assert_ne!(slot, u32::MAX, "location {loc} outside the tile view");
        let idx = class * self.locs.len() + slot as usize;
        &self.lists[self.start[idx]..self.start[idx + 1]]
    }

    /// Number of distinct users the view's lists mention — the size of
    /// the local matching.
    pub(crate) fn num_local_users(&self) -> usize {
        self.num_local_users
    }
}

/// Per-worker reusable buffers for view construction; the epoch stamp
/// makes "have I seen this user in this tile?" an O(1) check without
/// clearing a million-entry array between tiles.
pub(crate) struct ViewScratch {
    stamp: Vec<u32>,
    slot: Vec<u32>,
    epoch: u32,
    users: Vec<u32>,
}

impl ViewScratch {
    pub(crate) fn new(num_users: usize) -> Self {
        ViewScratch {
            stamp: vec![0; num_users],
            slot: vec![0; num_users],
            epoch: 0,
            users: Vec::new(),
        }
    }
}

/// Builds the view for one tile: the reach set is every location
/// within `reach` hops of any of the tile's pool member locations
/// (per the shared substrate), and the user remap densely renumbers —
/// in ascending global order, so remapped lists stay sorted — the
/// users coverable from those locations.
pub(crate) fn build_view(
    instance: &Instance,
    sub: &ConnectivitySubstrate,
    members: &[CellIndex],
    reach: usize,
    scratch: &mut ViewScratch,
) -> TileView {
    let m = instance.num_locations();
    let classes = instance.num_radio_classes();
    let mut loc_slot = vec![u32::MAX; m];
    for &member in members {
        for (v, &d) in sub.hop_row(member).iter().enumerate() {
            if d != UNREACHABLE_HOPS && d as usize <= reach {
                loc_slot[v] = 0;
            }
        }
    }
    let locs: Vec<CellIndex> = (0..m).filter(|&v| loc_slot[v] == 0).collect();
    for (slot, &v) in locs.iter().enumerate() {
        loc_slot[v] = slot as u32;
    }

    scratch.epoch = scratch.epoch.checked_add(1).unwrap_or_else(|| {
        scratch.stamp.fill(0);
        1
    });
    let epoch = scratch.epoch;
    scratch.users.clear();
    let mut total_len = 0usize;
    for class in 0..classes {
        for &v in &locs {
            let list = instance.coverable_class(class, v);
            total_len += list.count();
            list.for_each_while(|u| {
                if scratch.stamp[u as usize] != epoch {
                    scratch.stamp[u as usize] = epoch;
                    scratch.users.push(u);
                }
                true
            });
        }
    }
    scratch.users.sort_unstable();
    for (i, &u) in scratch.users.iter().enumerate() {
        scratch.slot[u as usize] = i as u32;
    }

    let mut start = Vec::with_capacity(classes * locs.len() + 1);
    let mut lists = Vec::with_capacity(total_len);
    for class in 0..classes {
        for &v in &locs {
            start.push(lists.len());
            instance.coverable_class(class, v).for_each_while(|u| {
                lists.push(scratch.slot[u as usize]);
                true
            });
        }
    }
    start.push(lists.len());

    TileView {
        locs,
        loc_slot,
        num_local_users: scratch.users.len(),
        start,
        lists,
    }
}

/// [`approx_alg_with_stats`](crate::approx_alg_with_stats) over
/// spatial tiles: bit-identical solution and deterministic statistics,
/// with per-tile matchings sized to the tile's users instead of the
/// whole instance. The beam strategy has no ranks to shard, so it runs
/// exactly as in the monolithic sweep.
///
/// # Errors
///
/// Same contract as [`approx_alg_with_stats`](crate::approx_alg_with_stats):
/// [`CoreError::InvalidParameters`] on a bad `s`, [`CoreError::Substrate`]
/// when the location graph exceeds the hop matrix's node limit,
/// [`CoreError::Sweep`] when a worker panics.
///
/// # Examples
///
/// ```
/// # use uavnet_core::{approx_alg_sharded, approx_alg_with_stats, ApproxConfig, Instance, ShardConfig};
/// # use uavnet_channel::UavRadio;
/// # use uavnet_geom::{AreaSpec, GridSpec, Point2};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let grid = GridSpec::new(AreaSpec::new(900.0, 900.0, 500.0)?, 300.0, 300.0)?.build();
/// # let mut b = Instance::builder(grid, 600.0);
/// # b.add_user(Point2::new(150.0, 150.0), 2_000.0);
/// # b.add_user(Point2::new(750.0, 750.0), 2_000.0);
/// # b.add_uav(5, UavRadio::new(30.0, 5.0, 400.0));
/// # b.add_uav(5, UavRadio::new(30.0, 5.0, 400.0));
/// # let instance = b.build()?;
/// let config = ApproxConfig::with_s(1).threads(2);
/// let (sharded, _) = approx_alg_sharded(&instance, &config, &ShardConfig::new().tile_cells(1))?;
/// let (monolithic, _) = approx_alg_with_stats(&instance, &config)?;
/// assert_eq!(sharded.served_users(), monolithic.served_users());
/// # Ok(())
/// # }
/// ```
pub fn approx_alg_sharded(
    instance: &Instance,
    config: &ApproxConfig,
    shard: &ShardConfig,
) -> Result<(Solution, ApproxStats), CoreError> {
    let (solution, stats) = sweep(instance, config, |ctx| search(ctx, Some(shard)))?;
    crate::obs::record_sweep(config, &stats, &solution);
    Ok((solution, stats))
}

/// The sharded sweep's work items, in grid order. Every pool position
/// goes to the tile holding its cell, with its first-member block — so
/// walking the tiles' blocks visits exactly the monolithic ranks. Tiles
/// owning no rank are dropped before any view is built.
pub(crate) fn tiles(ctx: &SearchContext<'_>, shard: &ShardConfig) -> WorkItems {
    let (n, s) = (ctx.pool.len(), ctx.config.s());
    let grid = ctx.instance.grid();
    let partition = TilePartition::build(grid.cols(), grid.rows(), shard.tile_cells);
    let mut tiles = vec![Tile::default(); partition.num_tiles()];
    for (i0, &v) in ctx.pool.iter().enumerate() {
        let tile = &mut tiles[partition.tile_of(v)];
        tile.members.push(i0);
        let block = first_member_block(i0, n, s);
        if !block.is_empty() {
            tile.blocks.push(block);
        }
    }
    tiles.retain(|t| !t.blocks.is_empty());

    // Everything a subset can touch sits within `chain_span + h_max`
    // hops of its first seed (consecutive seeds within their chain
    // budgets, ground cells within h_max of a seed), and a shortest
    // relay path between two such cells strays at most one more
    // diameter out — 3× covers it. Without chain pruning, later seeds
    // roam freely, so the view degenerates to the whole grid (the
    // escape protocol would catch violations anyway; this just avoids
    // guaranteed escapes).
    let chain_span: usize = ctx.chain_budgets.iter().sum();
    let reach = if s >= 2 && !ctx.config.is_chain_pruning() {
        usize::MAX
    } else {
        3 * (chain_span + ctx.plan.h_max())
    };
    WorkItems::Tiles { tiles, reach }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_alg_with_stats;
    use uavnet_channel::UavRadio;
    use uavnet_geom::{AreaSpec, GridSpec, Point2};

    fn clustered_instance() -> Instance {
        let grid = GridSpec::new(
            AreaSpec::new(2_400.0, 2_400.0, 500.0).unwrap(),
            300.0,
            300.0,
        )
        .unwrap()
        .build();
        let mut b = Instance::builder(grid, 450.0);
        for i in 0..8 {
            b.add_user(Point2::new(150.0 + 20.0 * i as f64, 180.0), 2_000.0);
        }
        for i in 0..7 {
            b.add_user(Point2::new(2_150.0 + 10.0 * i as f64, 2_250.0), 2_000.0);
        }
        for i in 0..5 {
            b.add_user(Point2::new(1_250.0, 400.0 + 30.0 * i as f64), 2_000.0);
        }
        for cap in [5u32, 4, 3, 3, 2, 2] {
            b.add_uav(cap, UavRadio::new(30.0, 5.0, 400.0));
        }
        b.build().unwrap()
    }

    #[test]
    fn sharded_matches_monolithic_across_tile_sizes() {
        let inst = clustered_instance();
        for s in [1usize, 2] {
            let config = ApproxConfig::with_s(s).threads(3);
            let (mono, mono_stats) = approx_alg_with_stats(&inst, &config).unwrap();
            for tile_cells in [1usize, 2, 3, 8, 0] {
                let shard = ShardConfig::new().tile_cells(tile_cells);
                let (sol, stats) = approx_alg_sharded(&inst, &config, &shard).unwrap();
                assert_eq!(sol.served_users(), mono.served_users(), "tile {tile_cells}");
                assert_eq!(sol.deployment(), mono.deployment(), "tile {tile_cells}");
                assert_eq!(stats.best_seeds, mono_stats.best_seeds);
                assert_eq!(stats.gain_queries, mono_stats.gain_queries);
                assert_eq!(stats.kernel, mono_stats.kernel);
                assert_eq!(stats.subsets_enumerated, mono_stats.subsets_enumerated);
                assert_eq!(stats.subsets_chain_pruned, mono_stats.subsets_chain_pruned);
                assert_eq!(stats.subsets_evaluated, mono_stats.subsets_evaluated);
                assert_eq!(
                    stats.subsets_unconnectable,
                    mono_stats.subsets_unconnectable
                );
                assert!(stats.tiles_solved >= 1);
            }
        }
    }

    #[test]
    fn sharded_matches_monolithic_without_chain_pruning() {
        let inst = clustered_instance();
        let config = ApproxConfig::with_s(2).threads(2).prune_chain(false);
        let (mono, mono_stats) = approx_alg_with_stats(&inst, &config).unwrap();
        let (sol, stats) =
            approx_alg_sharded(&inst, &config, &ShardConfig::new().tile_cells(2)).unwrap();
        assert_eq!(sol.served_users(), mono.served_users());
        assert_eq!(sol.deployment(), mono.deployment());
        assert_eq!(stats.gain_queries, mono_stats.gain_queries);
        assert_eq!(stats.kernel, mono_stats.kernel);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let inst = clustered_instance();
        let shard = ShardConfig::new().tile_cells(2);
        let base = approx_alg_sharded(&inst, &ApproxConfig::with_s(1).threads(1), &shard).unwrap();
        for threads in [2usize, 5] {
            let other =
                approx_alg_sharded(&inst, &ApproxConfig::with_s(1).threads(threads), &shard)
                    .unwrap();
            assert_eq!(other.0.deployment(), base.0.deployment());
            assert_eq!(other.1.gain_queries, base.1.gain_queries);
            assert_eq!(other.1.kernel, base.1.kernel);
        }
    }
}
