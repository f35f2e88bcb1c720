//! Declarative sweep specifications: axes and grid expansion.
//!
//! The parameter vocabulary itself — [`Param`], [`ParamValue`],
//! [`SweepPoint`], [`Axis`] and the grid expansion — lives in
//! `vanet-scenarios` (next to the schemas that validate it) and is
//! re-exported here for convenience.

use vanet_scenarios::grid_points;
pub use vanet_scenarios::{Axis, Param, ParamValue, SweepPoint};

/// A declarative sweep: a master seed, a cartesian grid of axes, and an
/// optional list of explicit extra points appended after the grid.
///
/// Expansion order is deterministic and independent of how the sweep is
/// later executed: the grid is row-major with the **first** axis varying
/// slowest, followed by the explicit points in declaration order. The order
/// decides only how results are *presented* (export rows) — each point's
/// seed derives from its canonical configuration, not its position (see
/// [`crate::engine::point_seed`]), so editing the grid never changes the
/// results of the points that survive the edit.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Master seed; every point derives its own seed from it.
    pub master_seed: u64,
    /// Grid axes, outermost first.
    pub axes: Vec<Axis>,
    /// Explicit points appended after the grid.
    pub extra_points: Vec<SweepPoint>,
}

impl SweepSpec {
    /// Creates an empty spec with the given master seed.
    pub fn new(master_seed: u64) -> Self {
        SweepSpec { master_seed, axes: Vec::new(), extra_points: Vec::new() }
    }

    /// Adds a grid axis. Axes expand in the order they are added, the first
    /// varying slowest.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or the parameter already has an axis.
    #[must_use]
    pub fn axis(mut self, param: Param, values: Vec<ParamValue>) -> Self {
        assert!(!values.is_empty(), "axis {param} needs at least one value");
        assert!(
            !self.axes.iter().any(|a| a.param == param),
            "parameter {param} already has an axis"
        );
        self.axes.push(Axis { param, values });
        self
    }

    /// Appends an explicit point after the grid.
    #[must_use]
    pub fn point(mut self, point: SweepPoint) -> Self {
        self.extra_points.push(point);
        self
    }

    /// Number of points the expansion will produce.
    pub fn len(&self) -> usize {
        let grid: usize = if self.axes.is_empty() {
            0
        } else {
            self.axes.iter().map(|a| a.values.len()).product()
        };
        grid + self.extra_points.len()
    }

    /// Whether the expansion is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into its points: the cartesian product of the axes
    /// (row-major, first axis slowest; see [`grid_points`]) followed by the
    /// explicit points.
    pub fn expand(&self) -> Vec<SweepPoint> {
        let mut points = if self.axes.is_empty() { Vec::new() } else { grid_points(&self.axes) };
        points.extend(self.extra_points.iter().cloned());
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn floats(xs: &[f64]) -> Vec<ParamValue> {
        xs.iter().map(|x| ParamValue::Float(*x)).collect()
    }

    fn ints(xs: &[u64]) -> Vec<ParamValue> {
        xs.iter().map(|x| ParamValue::Int(*x)).collect()
    }

    #[test]
    fn expansion_is_row_major_with_first_axis_slowest() {
        let spec = SweepSpec::new(1)
            .axis(Param::SpeedKmh, floats(&[10.0, 20.0]))
            .axis(Param::NCars, ints(&[2, 3, 4]));
        let points = spec.expand();
        assert_eq!(points.len(), 6);
        assert_eq!(spec.len(), 6);
        let as_pairs: Vec<(f64, u64)> = points
            .iter()
            .map(|p| {
                (
                    p.get(Param::SpeedKmh).unwrap().as_f64().unwrap(),
                    p.get(Param::NCars).unwrap().as_u64().unwrap(),
                )
            })
            .collect();
        assert_eq!(
            as_pairs,
            vec![(10.0, 2), (10.0, 3), (10.0, 4), (20.0, 2), (20.0, 3), (20.0, 4)]
        );
    }

    #[test]
    fn expansion_ordering_is_stable_across_calls() {
        let spec = SweepSpec::new(7)
            .axis(Param::ApRatePps, floats(&[1.0, 5.0, 10.0]))
            .axis(Param::PayloadBytes, ints(&[500, 1000]))
            .axis(Param::NCars, ints(&[2, 3]));
        let a = spec.expand();
        let b = spec.expand();
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        // Labels are unique: no two grid points collide.
        let labels: std::collections::BTreeSet<String> = a.iter().map(SweepPoint::label).collect();
        assert_eq!(labels.len(), 12);
    }

    #[test]
    fn explicit_points_follow_the_grid_in_order() {
        let extra_a = SweepPoint::new(vec![(Param::SpeedKmh, ParamValue::Float(99.0))]);
        let extra_b = SweepPoint::new(vec![(Param::SpeedKmh, ParamValue::Float(5.0))]);
        let spec = SweepSpec::new(1)
            .axis(Param::SpeedKmh, floats(&[10.0]))
            .point(extra_a.clone())
            .point(extra_b.clone());
        let points = spec.expand();
        assert_eq!(points.len(), 3);
        assert_eq!(points[1], extra_a);
        assert_eq!(points[2], extra_b);
    }

    #[test]
    fn spec_with_only_explicit_points_expands_to_them() {
        let point = SweepPoint::new(vec![(Param::NCars, ParamValue::Int(4))]);
        let spec = SweepSpec::new(3).point(point.clone());
        assert_eq!(spec.expand(), vec![point]);
        assert!(!spec.is_empty());
        assert!(SweepSpec::new(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "already has an axis")]
    fn duplicate_axis_rejected() {
        let _ = SweepSpec::new(1).axis(Param::NCars, ints(&[1])).axis(Param::NCars, ints(&[2]));
    }
}
