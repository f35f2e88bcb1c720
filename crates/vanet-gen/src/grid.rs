//! Grid expansion: one generator, a few value axes, thousands of scenarios.
//!
//! A [`GenGrid`] is the campaign front-end: it names a generator, gives
//! some of its parameters *lists* of values (every unlisted parameter keeps
//! its default), and optionally asks for seed replicas. Expansion takes the
//! cartesian product (the sweep's own [`grid_points`]), derives each
//! scenario's gen seed *from the campaign master seed and the scenario's
//! own canonical parameters* (see [`scenario_seed`]), and instantiates the
//! lot. Two consequences worth spelling out:
//!
//! * the expansion order is deterministic (axis declaration order ×
//!   declaration order of values × replica index), so shard plans built
//!   over the expansion are stable;
//! * a scenario's identity does not depend on its position in the grid —
//!   growing the grid later, or re-expanding a subset, regenerates the
//!   exact same scenarios and therefore hits the exact same cache entries.

use sim_core::StreamRng;
use vanet_scenarios::{grid_points, Axis, Param, ParamValue};

use rand::RngCore as _;

use crate::generators::{lookup, GenError, Generator};
use crate::scenario::GenIdentity;

/// Derives the gen seed of one grid cell from the campaign master seed, the
/// cell's canonical parameter rendering and the replica index.
///
/// Seeding off the canonical parameters (not the grid position) is what
/// keeps identities stable under grid growth: adding an axis value later
/// changes other cells' positions but not their parameters, so their seeds
/// — and hence their identities and cache keys — stay put.
pub fn scenario_seed(master_seed: u64, canonical_params: &str, replica: u32) -> u64 {
    StreamRng::derive(master_seed, format!("gen.scenario/{canonical_params}#r{replica}")).next_u64()
}

/// A generator plus value axes: the declarative form of a campaign's
/// scenario population.
#[derive(Debug, Clone)]
pub struct GenGrid {
    generator: Generator,
    axes: Vec<Axis>,
    replicas: u32,
}

impl GenGrid {
    /// Starts a grid over the named generator.
    ///
    /// # Errors
    ///
    /// [`GenError::UnknownGenerator`] if the name is not in the catalogue.
    pub fn new(generator: &str) -> Result<Self, GenError> {
        Ok(GenGrid { generator: lookup(generator)?, axes: Vec::new(), replicas: 1 })
    }

    /// The generator this grid expands.
    pub fn generator(&self) -> &Generator {
        &self.generator
    }

    /// Adds a value axis for `param`, each value checked against the world
    /// schema (integers widen into float parameters). Repeated values are
    /// collapsed — every expanded scenario is distinct by construction.
    ///
    /// # Errors
    ///
    /// A parameter the generator does not declare or that already has an
    /// axis, and values its schema rejects.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty, as [`Axis`] expansion needs a value.
    pub fn axis(mut self, param: Param, values: Vec<ParamValue>) -> Result<Self, GenError> {
        assert!(!values.is_empty(), "axis {param} needs at least one value");
        let generator = self.generator.name;
        let spec = self.generator.spec(param.key())?;
        if self.axes.iter().any(|axis| axis.param == param) {
            return Err(GenError::Duplicate { generator, key: param.key() });
        }
        let mut checked: Vec<ParamValue> = Vec::with_capacity(values.len());
        for value in values {
            let value = spec.check(generator, value)?;
            if !checked.contains(&value) {
                checked.push(value);
            }
        }
        self.axes.push(Axis { param, values: checked });
        Ok(self)
    }

    /// Expands every grid cell `n` times with independent gen seeds —
    /// the cheap way to populate a large campaign from a small grid.
    pub fn with_replicas(mut self, n: u32) -> Self {
        self.replicas = n.max(1);
        self
    }

    /// The number of scenarios this grid expands to.
    pub fn len(&self) -> usize {
        self.axes.iter().map(|axis| axis.values.len()).product::<usize>() * self.replicas as usize
    }

    /// Whether the grid expands to nothing (never: an axis-less grid is the
    /// single all-defaults cell).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into identities, in deterministic order (cartesian
    /// product in axis declaration order, replicas innermost).
    pub fn identities(&self, master_seed: u64) -> Vec<GenIdentity> {
        let mut out = Vec::with_capacity(self.len());
        for cell in grid_points(&self.axes) {
            let params =
                self.generator.schema().resolve(&cell).expect("GenGrid::axis checks every value");
            let canon = params.canonical();
            for replica in 0..self.replicas {
                out.push(GenIdentity {
                    generator: self.generator.name,
                    params: params.clone(),
                    seed: scenario_seed(master_seed, &canon, replica),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vanet_scenarios::ParamError;

    fn ints(xs: &[u64]) -> Vec<ParamValue> {
        xs.iter().map(|x| ParamValue::Int(*x)).collect()
    }

    fn floats(xs: &[f64]) -> Vec<ParamValue> {
        xs.iter().map(|x| ParamValue::Float(*x)).collect()
    }

    fn grid() -> GenGrid {
        GenGrid::new("highway-flow")
            .unwrap()
            .axis(Param::NCars, ints(&[1, 2]))
            .unwrap()
            .axis(Param::SpeedKmh, floats(&[40.0, 80.0, 120.0]))
            .unwrap()
    }

    #[test]
    fn expansion_is_a_deterministic_cartesian_product() {
        let g = grid();
        assert_eq!(g.len(), 6);
        let a = g.identities(9);
        let b = g.identities(9);
        assert_eq!(a, b, "expansion must be deterministic");
        assert_eq!(a.len(), 6);
        let distinct: BTreeSet<String> = a.iter().map(GenIdentity::canonical).collect();
        assert_eq!(distinct.len(), 6, "every cell is a distinct identity");
        // Last axis fastest: the first two cells differ in speed, not cars.
        assert_eq!(a[0].params.get(Param::NCars), a[1].params.get(Param::NCars));
        assert_ne!(a[0].params.get(Param::SpeedKmh), a[1].params.get(Param::SpeedKmh));
    }

    #[test]
    fn replicas_multiply_cells_with_independent_seeds() {
        let g = grid().with_replicas(3);
        assert_eq!(g.len(), 18);
        let ids = g.identities(9);
        let seeds: BTreeSet<u64> = ids.iter().map(|id| id.seed).collect();
        assert_eq!(seeds.len(), 18, "replica seeds must not collide");
        // Replicas of one cell share parameters.
        assert_eq!(ids[0].params, ids[1].params);
        assert_ne!(ids[0].seed, ids[1].seed);
    }

    #[test]
    fn identities_survive_grid_growth() {
        let small = grid().identities(9);
        let small_names: BTreeSet<String> = small.iter().map(GenIdentity::scenario_name).collect();
        // Growing an axis keeps every existing cell's identity (and hence
        // its cache entries) intact — seeds hang off the canonical params,
        // not the grid position.
        let grown = GenGrid::new("highway-flow")
            .unwrap()
            .axis(Param::NCars, ints(&[1, 2, 4]))
            .unwrap()
            .axis(Param::SpeedKmh, floats(&[40.0, 80.0, 120.0]))
            .unwrap()
            .identities(9);
        let grown_names: BTreeSet<String> = grown.iter().map(GenIdentity::scenario_name).collect();
        assert_eq!(grown_names.len(), 9);
        assert!(small_names.is_subset(&grown_names), "growth must not move existing cells");
        // A different master seed moves every cell...
        let moved = grid().identities(10);
        let moved_names: BTreeSet<String> = moved.iter().map(GenIdentity::scenario_name).collect();
        assert!(small_names.is_disjoint(&moved_names), "master seed is part of every identity");
        // ...while the same master seed reproduces them exactly.
        let again: BTreeSet<String> =
            grid().identities(9).iter().map(GenIdentity::scenario_name).collect();
        assert_eq!(small_names, again);
    }

    #[test]
    fn identities_instantiate_matching_scenarios() {
        use vanet_scenarios::Scenario as _;
        let g = GenGrid::new("platoon-merge").unwrap().axis(Param::NRamp, ints(&[1, 2])).unwrap();
        for id in g.identities(4) {
            let scenario = id.instantiate().unwrap();
            assert_eq!(scenario.name(), id.scenario_name());
            assert_eq!(scenario.identity(), &id);
        }
    }

    #[test]
    fn axis_validation_rejects_bad_specs() {
        let base = || GenGrid::new("highway-flow").unwrap();
        assert!(matches!(GenGrid::new("mars"), Err(GenError::UnknownGenerator(_))));
        assert!(matches!(base().axis(Param::BlocksX, ints(&[1])), Err(GenError::Unknown { .. })));
        let kind = base().axis(Param::NCars, vec![ParamValue::Choice("banana")]);
        assert!(matches!(kind, Err(GenError::Param(ParamError::Type { .. }))));
        let range = base().axis(Param::NCars, ints(&[999]));
        assert!(matches!(range, Err(GenError::Param(ParamError::Range { .. }))));
        let dup = base().axis(Param::NCars, ints(&[1])).unwrap().axis(Param::NCars, ints(&[2]));
        assert!(matches!(dup, Err(GenError::Duplicate { .. })));
        // Repeated values collapse instead of duplicating identities, after
        // integers widen into a float parameter.
        let g = base().axis(Param::NCars, ints(&[2, 2, 2])).unwrap();
        assert_eq!(g.len(), 1);
        let g = base()
            .axis(Param::SpeedKmh, vec![ParamValue::Int(80), ParamValue::Float(80.0)])
            .unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn axisless_grid_is_the_single_default_cell() {
        let g = GenGrid::new("grid-city").unwrap();
        assert_eq!(g.len(), 1);
        assert!(!g.is_empty());
        let ids = g.identities(1);
        assert_eq!(ids.len(), 1);
        assert_eq!(ids[0].params, g.generator().resolve(&[]).unwrap());
    }
}
