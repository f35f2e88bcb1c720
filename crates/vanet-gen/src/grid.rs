//! Grid expansion: one generator, a few value axes, thousands of scenarios.
//!
//! A [`GenGrid`] is the campaign front-end: it names a generator, gives
//! some of its parameters *lists* of values (every unlisted parameter keeps
//! its default), and optionally asks for seed replicas. Expansion takes the
//! cartesian product, derives each scenario's gen seed *from the campaign
//! master seed and the scenario's own canonical parameters* (see
//! [`scenario_seed`]), and instantiates the lot. Two consequences worth
//! spelling out:
//!
//! * the expansion order is deterministic (axis declaration order ×
//!   declaration order of values × replica index), so shard plans built
//!   over the expansion are stable;
//! * a scenario's identity does not depend on its position in the grid —
//!   growing the grid later, or re-expanding a subset, regenerates the
//!   exact same scenarios and therefore hits the exact same cache entries.

use sim_core::StreamRng;

use rand::RngCore as _;

use crate::generators::{self, Generator};
use crate::params::{GenError, GenValue};
use crate::scenario::{GenIdentity, GeneratedScenario};

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
    axes: Vec<(&'static str, Vec<GenValue>)>,
    replicas: u32,
}

impl GenGrid {
    /// Starts a grid over the named generator.
    ///
    /// # Errors
    ///
    /// [`GenError::UnknownGenerator`] if the name is not in the catalogue.
    pub fn new(generator: &str) -> Result<Self, GenError> {
        let generator = generators::find(generator)
            .ok_or_else(|| GenError::UnknownGenerator(generator.to_string()))?;
        Ok(GenGrid { generator, axes: Vec::new(), replicas: 1 })
    }

    /// The generator this grid expands.
    pub fn generator(&self) -> &Generator {
        &self.generator
    }

    /// Adds a value axis for `key`, parsing each comma-separated element in
    /// human form (`n_cars=1,2,4`). Repeated values are collapsed — every
    /// expanded scenario is distinct by construction.
    ///
    /// # Errors
    ///
    /// Unknown keys, unparsable or out-of-range elements, an empty list, or
    /// a key that already has an axis.
    pub fn axis(mut self, key: &str, csv: &str) -> Result<Self, GenError> {
        let spec_key = self
            .generator
            .schema()
            .params()
            .iter()
            .find(|s| s.key() == key)
            .map(|s| s.key())
            .ok_or_else(|| GenError::Unknown {
                generator: self.generator.name,
                key: key.to_string(),
            })?;
        let mut values = Vec::new();
        for element in csv.split(',') {
            let element = element.trim();
            if element.is_empty() {
                continue;
            }
            let value = self.generator.schema().parse_value(key, element)?;
            if !values.contains(&value) {
                values.push(value);
            }
        }
        if values.is_empty() {
            return Err(GenError::BadValue {
                generator: self.generator.name,
                key: key.to_string(),
                text: csv.to_string(),
            });
        }
        if self.axes.iter().any(|(k, _)| *k == spec_key) {
            return Err(GenError::Duplicate { generator: self.generator.name, key: spec_key });
        }
        self.axes.push((spec_key, values));
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
        self.axes.iter().map(|(_, v)| v.len()).product::<usize>() * self.replicas as usize
    }

    /// Whether the grid expands to nothing (never: an axis-less grid is the
    /// single all-defaults cell).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into identities, in deterministic order (cartesian
    /// product in axis declaration order, replicas innermost).
    ///
    /// # Errors
    ///
    /// Propagates schema resolution errors (unreachable for axes built
    /// through [`GenGrid::axis`], which validates eagerly).
    pub fn identities(&self, master_seed: u64) -> Result<Vec<GenIdentity>, GenError> {
        let mut out = Vec::with_capacity(self.len());
        let mut indices = vec![0usize; self.axes.len()];
        loop {
            let assignments: Vec<(String, GenValue)> = self
                .axes
                .iter()
                .zip(&indices)
                .map(|((key, values), i)| ((*key).to_string(), values[*i]))
                .collect();
            let params = self.generator.schema().resolve(&assignments)?;
            let canon = params.canonical();
            for replica in 0..self.replicas {
                out.push(GenIdentity {
                    generator: self.generator.name,
                    params: params.clone(),
                    seed: scenario_seed(master_seed, &canon, replica),
                });
            }
            // Odometer increment over the axes, last axis fastest.
            let mut axis = self.axes.len();
            loop {
                if axis == 0 {
                    return Ok(out);
                }
                axis -= 1;
                indices[axis] += 1;
                if indices[axis] < self.axes[axis].1.len() {
                    break;
                }
                indices[axis] = 0;
            }
        }
    }

    /// Expands the grid into instantiated scenarios (see
    /// [`GenGrid::identities`] for the ordering contract).
    ///
    /// # Errors
    ///
    /// As [`GenGrid::identities`].
    pub fn expand(&self, master_seed: u64) -> Result<Vec<GeneratedScenario>, GenError> {
        self.identities(master_seed)?.iter().map(GenIdentity::instantiate).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn grid() -> GenGrid {
        GenGrid::new("highway-flow")
            .unwrap()
            .axis("n_cars", "1,2")
            .unwrap()
            .axis("speed_kmh", "40, 80, 120")
            .unwrap()
    }

    #[test]
    fn expansion_is_a_deterministic_cartesian_product() {
        let g = grid();
        assert_eq!(g.len(), 6);
        let a = g.identities(9).unwrap();
        let b = g.identities(9).unwrap();
        assert_eq!(a, b, "expansion must be deterministic");
        assert_eq!(a.len(), 6);
        let distinct: BTreeSet<String> = a.iter().map(GenIdentity::canonical).collect();
        assert_eq!(distinct.len(), 6, "every cell is a distinct identity");
        // Last axis fastest: the first two cells differ in speed, not cars.
        assert_eq!(a[0].params.u64("n_cars"), a[1].params.u64("n_cars"));
        assert_ne!(a[0].params.f64("speed_kmh"), a[1].params.f64("speed_kmh"));
    }

    #[test]
    fn replicas_multiply_cells_with_independent_seeds() {
        let g = grid().with_replicas(3);
        assert_eq!(g.len(), 18);
        let ids = g.identities(9).unwrap();
        let seeds: BTreeSet<u64> = ids.iter().map(|id| id.seed).collect();
        assert_eq!(seeds.len(), 18, "replica seeds must not collide");
        // Replicas of one cell share parameters.
        assert_eq!(ids[0].params, ids[1].params);
        assert_ne!(ids[0].seed, ids[1].seed);
    }

    #[test]
    fn identities_survive_grid_growth() {
        let small = grid().identities(9).unwrap();
        let small_names: BTreeSet<String> = small.iter().map(GenIdentity::scenario_name).collect();
        // Growing an axis keeps every existing cell's identity (and hence
        // its cache entries) intact — seeds hang off the canonical params,
        // not the grid position.
        let grown = GenGrid::new("highway-flow")
            .unwrap()
            .axis("n_cars", "1,2,4")
            .unwrap()
            .axis("speed_kmh", "40, 80, 120")
            .unwrap()
            .identities(9)
            .unwrap();
        let grown_names: BTreeSet<String> = grown.iter().map(GenIdentity::scenario_name).collect();
        assert_eq!(grown_names.len(), 9);
        assert!(small_names.is_subset(&grown_names), "growth must not move existing cells");
        // A different master seed moves every cell...
        let moved = grid().identities(10).unwrap();
        let moved_names: BTreeSet<String> = moved.iter().map(GenIdentity::scenario_name).collect();
        assert!(small_names.is_disjoint(&moved_names), "master seed is part of every identity");
        // ...while the same master seed reproduces them exactly.
        let again: BTreeSet<String> =
            grid().identities(9).unwrap().iter().map(GenIdentity::scenario_name).collect();
        assert_eq!(small_names, again);
    }

    #[test]
    fn expand_instantiates_matching_scenarios() {
        use vanet_scenarios::Scenario as _;
        let g = GenGrid::new("platoon-merge").unwrap().axis("n_ramp", "1,2").unwrap();
        let ids = g.identities(4).unwrap();
        let scenarios = g.expand(4).unwrap();
        assert_eq!(ids.len(), scenarios.len());
        for (id, scenario) in ids.iter().zip(&scenarios) {
            assert_eq!(scenario.name(), id.scenario_name());
            assert_eq!(scenario.identity(), id);
        }
    }

    #[test]
    fn axis_validation_rejects_bad_specs() {
        let base = || GenGrid::new("highway-flow").unwrap();
        assert!(matches!(GenGrid::new("mars"), Err(GenError::UnknownGenerator(_))));
        assert!(matches!(base().axis("warp", "1"), Err(GenError::Unknown { .. })));
        assert!(matches!(base().axis("n_cars", "banana"), Err(GenError::BadValue { .. })));
        assert!(matches!(base().axis("n_cars", "999"), Err(GenError::Range { .. })));
        assert!(matches!(base().axis("n_cars", ""), Err(GenError::BadValue { .. })));
        let dup = base().axis("n_cars", "1").unwrap().axis("n_cars", "2");
        assert!(matches!(dup, Err(GenError::Duplicate { .. })));
        // Repeated values collapse instead of duplicating identities.
        let g = base().axis("n_cars", "2,2,2").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn axisless_grid_is_the_single_default_cell() {
        let g = GenGrid::new("grid-city").unwrap();
        assert_eq!(g.len(), 1);
        assert!(!g.is_empty());
        let ids = g.identities(1).unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(ids[0].params, g.generator().schema().resolve(&[]).unwrap());
    }
}
