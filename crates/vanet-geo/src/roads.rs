//! Road layouts used by the experiments.
//!
//! The paper's testbed (its Figure 2) is a closed loop of city streets with
//! the AP antenna placed on a first-floor office window facing one of the
//! streets, and a corner "C" where the least experienced driver braked hard.
//! The exact GPS geometry is not published, so [`urban_testbed_loop`]
//! reconstructs a loop with the same qualitative properties:
//!
//! * total lap time of roughly 3–4 minutes at ~20 km/h (the paper reports
//!   30 rounds and coverage windows of 120–140 packets at 5 pkt/s ≈ 25–30 s
//!   of useful coverage per lap);
//! * the AP is adjacent to one street so that cars experience a gradual
//!   entry, a high-quality middle region and a gradual exit — the three
//!   regions of Figures 3–5;
//! * the rest of the loop is out of coverage ("dark area") where the
//!   Cooperative-ARQ phase runs.

use serde::{Deserialize, Serialize};

use crate::point::Point;
use crate::polyline::Polyline;

/// A road layout: the driving path plus the positions of road-side units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoadLayout {
    /// The path vehicles follow.
    pub path: Polyline,
    /// Positions of the access points deployed along the road.
    pub access_points: Vec<Point>,
    /// Human-readable name of the layout.
    pub name: String,
}

impl RoadLayout {
    /// Creates a layout from its parts.
    pub fn new(name: impl Into<String>, path: Polyline, access_points: Vec<Point>) -> Self {
        RoadLayout { path, access_points, name: name.into() }
    }

    /// The length of one lap (or of the whole segment for open roads).
    pub fn lap_length(&self) -> f64 {
        self.path.length()
    }
}

/// An axis-aligned rectangular loop with the given width and height, starting
/// at the origin and running counter-clockwise. Useful as a generic urban
/// block.
///
/// # Panics
///
/// Panics if either dimension is not strictly positive.
pub fn rectangular_loop(width_m: f64, height_m: f64) -> Polyline {
    assert!(width_m > 0.0 && height_m > 0.0, "loop dimensions must be positive");
    Polyline::closed(vec![
        Point::new(0.0, 0.0),
        Point::new(width_m, 0.0),
        Point::new(width_m, height_m),
        Point::new(0.0, height_m),
    ])
}

/// Reconstruction of the paper's urban testbed (Figure 2).
///
/// The loop is a 380 m × 180 m city block (lap ≈ 1.12 km — about 3.4 minutes
/// at 20 km/h). Cars start at the south-west corner heading east; the AP sits
/// 18 m north of the southern street, 140 m from the western corner,
/// mimicking the office-window antenna. Corner "C" (where the platoon
/// bunches up) is the north-east corner, reached well after coverage is lost.
pub fn urban_testbed_loop() -> RoadLayout {
    let width = 380.0;
    let height = 180.0;
    let path = rectangular_loop(width, height);
    // AP just off the southern street (y = 0), slightly set back from the kerb
    // as the antenna was on a first-floor window behind the facade.
    let ap = Point::new(140.0, 18.0);
    RoadLayout::new("urban-testbed", path, vec![ap])
}

/// The footprint of the city block enclosed by the testbed loop, as the two
/// opposite corners of an axis-aligned rectangle. The AP's building is the
/// southern face of this block; its antenna (18 m north of the southern
/// street centreline) sits just outside the footprint, on the window facing
/// the street. Links from the AP to the other three streets of the loop have
/// to cross the block and are heavily attenuated — which is what confines
/// coverage to the southern street in the paper's testbed.
pub fn urban_testbed_block() -> (Point, Point) {
    (Point::new(15.0, 22.0), Point::new(365.0, 158.0))
}

/// A straight highway segment of the given length with APs placed every
/// `ap_spacing_m` metres, 10 m off the carriageway — the drive-thru-Internet
/// scenario of reference \[1\] of the paper and of our multi-AP download
/// extension experiment.
///
/// # Panics
///
/// Panics if `length_m` or `ap_spacing_m` is not strictly positive.
pub fn highway_segment(length_m: f64, ap_spacing_m: f64) -> RoadLayout {
    assert!(length_m > 0.0, "highway length must be positive");
    assert!(ap_spacing_m > 0.0, "AP spacing must be positive");
    let path = Polyline::open(vec![Point::new(0.0, 0.0), Point::new(length_m, 0.0)]);
    let mut access_points = Vec::new();
    // First AP half a spacing in, so a full deployment has evenly spaced cells.
    let mut x = ap_spacing_m / 2.0;
    while x < length_m {
        access_points.push(Point::new(x, 10.0));
        x += ap_spacing_m;
    }
    RoadLayout::new("highway", path, access_points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_loop_has_expected_length() {
        let p = rectangular_loop(300.0, 100.0);
        assert_eq!(p.length(), 800.0);
        assert!(p.is_closed());
    }

    #[test]
    fn urban_testbed_matches_paper_scale() {
        let layout = urban_testbed_loop();
        // One lap at 20 km/h (5.56 m/s) should take 2–5 minutes.
        let lap_seconds = layout.lap_length() / (20.0 / 3.6);
        assert!(
            (120.0..=320.0).contains(&lap_seconds),
            "lap takes {lap_seconds:.0} s, outside the plausible range"
        );
        assert_eq!(layout.access_points.len(), 1);
        // The AP must be close to (but not on) the road.
        let offset = layout.path.distance_from(layout.access_points[0]);
        assert!(offset > 5.0 && offset < 40.0, "AP offset {offset} m");
        assert_eq!(layout.name, "urban-testbed");
    }

    #[test]
    fn highway_places_aps_at_requested_spacing() {
        let layout = highway_segment(10_000.0, 2_000.0);
        assert_eq!(layout.access_points.len(), 5);
        assert_eq!(layout.access_points[0], Point::new(1_000.0, 10.0));
        assert_eq!(layout.access_points[4], Point::new(9_000.0, 10.0));
        assert!(!layout.path.is_closed());
        assert_eq!(layout.lap_length(), 10_000.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = rectangular_loop(0.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_spacing_rejected() {
        let _ = highway_segment(100.0, 0.0);
    }
}
