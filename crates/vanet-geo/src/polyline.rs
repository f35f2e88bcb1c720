//! Polyline paths with arc-length parametrisation.
//!
//! Roads are modelled as polylines (sequences of waypoints). A vehicle's
//! position is obtained by asking for the point at a given travelled
//! distance; closed polylines (loops) wrap that distance modulo the loop
//! length, which is exactly how the paper's cars repeat their 30 rounds.

use serde::{Deserialize, Serialize};

use crate::point::Point;

/// A polyline path, optionally closed into a loop.
///
/// # Examples
///
/// ```
/// use vanet_geo::{Point, Polyline};
///
/// let square = Polyline::closed(vec![
///     Point::new(0.0, 0.0),
///     Point::new(100.0, 0.0),
///     Point::new(100.0, 100.0),
///     Point::new(0.0, 100.0),
/// ]);
/// assert_eq!(square.length(), 400.0);
/// // 450 m around a 400 m loop is 50 m into the second lap.
/// let p = square.point_at(450.0);
/// assert!((p.x - 50.0).abs() < 1e-9 && p.y.abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polyline {
    vertices: Vec<Point>,
    closed: bool,
    /// Cumulative arc length at the start of each segment. The last entry is
    /// the total length.
    cumulative: Vec<f64>,
}

impl Polyline {
    /// Creates an open polyline from at least two vertices.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two vertices are given.
    pub fn open(vertices: Vec<Point>) -> Self {
        Self::build(vertices, false)
    }

    /// Creates a closed polyline (loop) from at least three vertices. The
    /// closing segment from the last vertex back to the first is implicit.
    ///
    /// # Panics
    ///
    /// Panics if fewer than three vertices are given.
    pub fn closed(vertices: Vec<Point>) -> Self {
        assert!(vertices.len() >= 3, "a closed polyline needs at least three vertices");
        Self::build(vertices, true)
    }

    fn build(vertices: Vec<Point>, closed: bool) -> Self {
        assert!(vertices.len() >= 2, "a polyline needs at least two vertices");
        let mut cumulative = Vec::with_capacity(vertices.len() + 1);
        cumulative.push(0.0);
        let mut total = 0.0;
        for w in vertices.windows(2) {
            total += w[0].distance_to(w[1]);
            cumulative.push(total);
        }
        if closed {
            total += vertices.last().expect("non-empty").distance_to(vertices[0]);
            cumulative.push(total);
        }
        Polyline { vertices, closed, cumulative }
    }

    /// Total length of the path in metres (including the closing segment for
    /// loops).
    pub fn length(&self) -> f64 {
        *self.cumulative.last().expect("cumulative never empty")
    }

    /// Whether the path is a closed loop.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// The way-points this path was built from.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        if self.closed {
            self.vertices.len()
        } else {
            self.vertices.len() - 1
        }
    }

    /// End point of segment `i` (wrapping to the first vertex for the closing
    /// segment of a loop).
    fn segment_end(&self, i: usize) -> Point {
        if i + 1 < self.vertices.len() {
            self.vertices[i + 1]
        } else {
            self.vertices[0]
        }
    }

    /// Point at a travelled arc length `distance` (in metres) from the start.
    ///
    /// For closed paths the distance wraps modulo the loop length. For open
    /// paths it is clamped to the end points.
    pub fn point_at(&self, distance: f64) -> Point {
        let total = self.length();
        if total <= 0.0 {
            return self.vertices[0];
        }
        let d = if self.closed { distance.rem_euclid(total) } else { distance.clamp(0.0, total) };
        // Find the segment containing arc length `d`.
        let seg = match self
            .cumulative
            .binary_search_by(|probe| probe.partial_cmp(&d).expect("finite lengths"))
        {
            Ok(idx) => idx.min(self.segment_count().saturating_sub(1)),
            Err(idx) => idx - 1,
        };
        let seg = seg.min(self.segment_count() - 1);
        let seg_start = self.cumulative[seg];
        let seg_len = self.cumulative[seg + 1] - seg_start;
        let a = self.vertices[seg];
        let b = self.segment_end(seg);
        if seg_len <= 1e-12 {
            a
        } else {
            a.lerp(b, (d - seg_start) / seg_len)
        }
    }

    /// Arc-length positions of the interior corners (vertices where the path
    /// changes direction), useful for corner slow-down models. For closed
    /// paths every vertex is a corner; for open paths the first and last
    /// vertices are excluded.
    pub fn corner_distances(&self) -> Vec<f64> {
        let n = self.vertices.len();
        let range = if self.closed { 0..n } else { 1..n - 1 };
        range.map(|i| self.cumulative[i]).collect()
    }

    /// The minimum distance from `p` to any point of the polyline.
    pub fn distance_from(&self, p: Point) -> f64 {
        let mut best = f64::INFINITY;
        for seg in 0..self.segment_count() {
            let a = self.vertices[seg];
            let b = self.segment_end(seg);
            best = best.min(point_segment_distance(p, a, b));
        }
        best
    }
}

/// Distance from point `p` to the segment `[a, b]`.
fn point_segment_distance(p: Point, a: Point, b: Point) -> f64 {
    let ab = b - a;
    let len_sq = ab.dot(ab);
    if len_sq <= 1e-18 {
        return p.distance_to(a);
    }
    let t = ((p - a).dot(ab) / len_sq).clamp(0.0, 1.0);
    p.distance_to(a + ab * t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, proptest};

    fn square() -> Polyline {
        Polyline::closed(vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 100.0),
            Point::new(0.0, 100.0),
        ])
    }

    #[test]
    fn open_path_length_and_points() {
        let p = Polyline::open(vec![
            Point::new(0.0, 0.0),
            Point::new(30.0, 0.0),
            Point::new(30.0, 40.0),
        ]);
        assert_eq!(p.length(), 70.0);
        assert!(!p.is_closed());
        assert_eq!(p.segment_count(), 2);
        assert_eq!(p.point_at(0.0), Point::new(0.0, 0.0));
        assert_eq!(p.point_at(30.0), Point::new(30.0, 0.0));
        assert_eq!(p.point_at(50.0), Point::new(30.0, 20.0));
        // Clamped beyond the ends.
        assert_eq!(p.point_at(1000.0), Point::new(30.0, 40.0));
        assert_eq!(p.point_at(-5.0), Point::new(0.0, 0.0));
    }

    #[test]
    fn closed_path_wraps() {
        let sq = square();
        assert_eq!(sq.length(), 400.0);
        assert!(sq.is_closed());
        assert_eq!(sq.segment_count(), 4);
        assert_eq!(sq.point_at(400.0), Point::new(0.0, 0.0));
        assert_eq!(sq.point_at(450.0), Point::new(50.0, 0.0));
        assert_eq!(sq.point_at(-50.0), Point::new(0.0, 50.0));
    }

    #[test]
    fn corners_of_closed_and_open_paths() {
        let sq = square();
        assert_eq!(sq.corner_distances(), vec![0.0, 100.0, 200.0, 300.0]);
        let open = Polyline::open(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ]);
        assert_eq!(open.corner_distances(), vec![10.0]);
    }

    #[test]
    fn distance_from_point_to_path() {
        let sq = square();
        assert!((sq.distance_from(Point::new(50.0, -10.0)) - 10.0).abs() < 1e-12);
        assert!((sq.distance_from(Point::new(50.0, 50.0)) - 50.0).abs() < 1e-12);
        assert_eq!(sq.distance_from(Point::new(0.0, 0.0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn closed_needs_three_vertices() {
        let _ = Polyline::closed(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn open_needs_two_vertices() {
        let _ = Polyline::open(vec![Point::new(0.0, 0.0)]);
    }

    proptest! {
        /// Any point returned by `point_at` lies (numerically) on the path.
        #[test]
        fn prop_points_lie_on_path(d in -1000.0f64..1000.0) {
            let sq = square();
            let p = sq.point_at(d);
            prop_assert!(sq.distance_from(p) < 1e-9);
        }

        /// Moving a small distance along the path moves the point by at most
        /// that distance (arc length upper-bounds chord length).
        #[test]
        fn prop_lipschitz(d in 0.0f64..400.0, step in 0.0f64..50.0) {
            let sq = square();
            let a = sq.point_at(d);
            let b = sq.point_at(d + step);
            prop_assert!(a.distance_to(b) <= step + 1e-9);
        }
    }
}
