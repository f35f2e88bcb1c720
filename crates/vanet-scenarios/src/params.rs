//! The parameter vocabulary scenarios and generated worlds share: [`Param`],
//! [`ParamValue`], the [`SweepPoint`] assignment a scenario is configured
//! from (and a generated world is resolved to), and the [`Axis`] grids that
//! expand into points.
//!
//! A scenario's runtime schema and a generator's world schema declare
//! different parameters from this one vocabulary, with one value type, one
//! canonical codec and one grid expansion. A scenario is configured from a
//! `SweepPoint`, whoever produced it (the sweep engine, the CLI, or a
//! hand-written test).

use std::fmt;

use carq::{RecoveryStrategyKind, RequestStrategy, SelectionStrategy};
use vanet_stats::CellValue;

/// A parameter a scenario or a world generator can consume. Which
/// parameters a schema actually understands — with documentation, defaults
/// and ranges — is declared by its [`ParamSchema`](crate::ParamSchema);
/// assigning a parameter outside the schema is an error (see
/// [`ParamError`](crate::ParamError)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Param {
    /// Platoon cruise speed in km/h.
    SpeedKmh,
    /// Number of cars in the platoon.
    NCars,
    /// AP sending rate per car, packets per second.
    ApRatePps,
    /// Payload per data packet in bytes.
    PayloadBytes,
    /// Cooperator-selection strategy of the C-ARQ protocol.
    Selection,
    /// REQUEST strategy of the C-ARQ protocol (per-packet vs batched).
    Request,
    /// Whether cooperation is enabled at all.
    Cooperation,
    /// Rounds per point: urban laps, highway passes, or the AP-visit budget
    /// of a multi-AP download.
    Rounds,
    /// File size in blocks (multi-AP download only).
    FileBlocks,
    /// The recovery strategy cars run after leaving coverage (which ARQ
    /// scheme answers "I missed packets — now what?").
    Strategy,
    /// City blocks along x (grid-city world).
    BlocksX,
    /// City blocks along y (grid-city world).
    BlocksY,
    /// Block edge length in metres (grid-city world).
    BlockM,
    /// Random-waypoint walk length per car (grid-city world).
    WalkM,
    /// Where the APs stand on the street grid (grid-city world).
    ApPlacement,
    /// Number of access points (grid-city world).
    NAps,
    /// Highway segment length (highway-flow world).
    RoadLengthM,
    /// Whether an opposing flow runs on the second lane (highway-flow world).
    Bidirectional,
    /// Per-car speed jitter as a fraction of nominal (highway-flow world).
    SpeedJitter,
    /// Gap between successive cars (highway-flow and platoon-merge worlds).
    HeadwayM,
    /// Distance between roadside APs (highway-flow world).
    ApSpacingM,
    /// Feeder road length before the merge (platoon-merge world).
    FeederM,
    /// Shared road length after the merge (platoon-merge world).
    TailM,
    /// Cars on the main feeder (platoon-merge world).
    NMain,
    /// Cars on the merging ramp (platoon-merge world).
    NRamp,
    /// How long after the main platoon the ramp flow starts (platoon-merge
    /// world).
    MergeGapS,
}

impl Param {
    /// Every parameter: the runtime knobs, then the world parameters.
    pub const ALL: [Param; 26] = [
        Param::SpeedKmh,
        Param::NCars,
        Param::ApRatePps,
        Param::PayloadBytes,
        Param::Selection,
        Param::Request,
        Param::Cooperation,
        Param::Rounds,
        Param::FileBlocks,
        Param::Strategy,
        Param::BlocksX,
        Param::BlocksY,
        Param::BlockM,
        Param::WalkM,
        Param::ApPlacement,
        Param::NAps,
        Param::RoadLengthM,
        Param::Bidirectional,
        Param::SpeedJitter,
        Param::HeadwayM,
        Param::ApSpacingM,
        Param::FeederM,
        Param::TailM,
        Param::NMain,
        Param::NRamp,
        Param::MergeGapS,
    ];

    /// The parameter whose [`key`](Param::key) is `key` — the inverse used
    /// when parsing shard files, scenario files and other serialized points.
    pub fn from_key(key: &str) -> Option<Param> {
        Param::ALL.into_iter().find(|p| p.key() == key)
    }

    /// The column name used in exports, identities and the CLI.
    pub fn key(&self) -> &'static str {
        match self {
            Param::SpeedKmh => "speed_kmh",
            Param::NCars => "n_cars",
            Param::ApRatePps => "ap_rate_pps",
            Param::PayloadBytes => "payload_bytes",
            Param::Selection => "selection",
            Param::Request => "request",
            Param::Cooperation => "cooperation",
            Param::Rounds => "rounds",
            Param::FileBlocks => "file_blocks",
            Param::Strategy => "strategy",
            Param::BlocksX => "blocks_x",
            Param::BlocksY => "blocks_y",
            Param::BlockM => "block_m",
            Param::WalkM => "walk_m",
            Param::ApPlacement => "ap_placement",
            Param::NAps => "n_aps",
            Param::RoadLengthM => "road_length_m",
            Param::Bidirectional => "bidirectional",
            Param::SpeedJitter => "speed_jitter",
            Param::HeadwayM => "headway_m",
            Param::ApSpacingM => "ap_spacing_m",
            Param::FeederM => "feeder_m",
            Param::TailM => "tail_m",
            Param::NMain => "n_main",
            Param::NRamp => "n_ramp",
            Param::MergeGapS => "merge_gap_s",
        }
    }
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One value of a parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// A real-valued parameter (speed, rate, length).
    Float(f64),
    /// An integral parameter (cars, payload, rounds, blocks).
    Int(u64),
    /// An on/off parameter (cooperation, a bidirectional highway).
    Bool(bool),
    /// A cooperator-selection strategy.
    Selection(SelectionStrategy),
    /// A REQUEST strategy.
    Request(RequestStrategy),
    /// A recovery strategy (which ARQ scheme runs after coverage ends).
    Strategy(RecoveryStrategyKind),
    /// A word from a parameter's closed vocabulary (an AP placement); it is
    /// one of the owning spec's [`ParamKind::choices`](crate::ParamKind::choices).
    Choice(&'static str),
}

impl ParamValue {
    /// The float behind this value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Float(x) => Some(*x),
            ParamValue::Int(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// The integer behind this value, if integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            ParamValue::Int(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean behind this value, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ParamValue::Bool(x) => Some(*x),
            _ => None,
        }
    }

    /// The recovery strategy behind this value, if it is one.
    pub fn as_strategy(&self) -> Option<RecoveryStrategyKind> {
        match self {
            ParamValue::Strategy(x) => Some(*x),
            _ => None,
        }
    }

    /// The choice word behind this value, if it is one.
    pub fn as_choice(&self) -> Option<&'static str> {
        match self {
            ParamValue::Choice(word) => Some(word),
            _ => None,
        }
    }

    /// A **lossless** rendering used in cache keys, seed derivation, world
    /// identities, `VANETGEN1` files and shard files.
    ///
    /// Unlike [`fmt::Display`], which rounds floats to three decimals for
    /// human-readable labels, this encoding round-trips every value exactly:
    /// floats render as their IEEE-754 bit pattern, so `20.0` and
    /// `20.0000001` never collapse onto one cache entry, seed or world.
    pub fn canonical(&self) -> String {
        match self {
            ParamValue::Float(x) => format!("f{:016x}", x.to_bits()),
            ParamValue::Int(x) => format!("i{x}"),
            ParamValue::Bool(x) => format!("b{}", u8::from(*x)),
            // Strategy and choice renderings are already lossless (`all`,
            // `first2`, `coop-arq`, `corner`, …).
            ParamValue::Selection(_)
            | ParamValue::Request(_)
            | ParamValue::Strategy(_)
            | ParamValue::Choice(_) => self.to_string(),
        }
    }

    /// Parses a [`canonical`](ParamValue::canonical) rendering back into a
    /// value — the exact inverse, so serialized points and world identities
    /// round-trip bit-for-bit, floats included. `choices` is the vocabulary
    /// of the choice parameter being decoded
    /// ([`ParamKind::choices`](crate::ParamKind::choices) of its spec); it is
    /// empty for every other parameter, and a bare word is then a strategy
    /// name or nothing.
    pub fn parse_canonical(text: &str, choices: &[&'static str]) -> Option<ParamValue> {
        if let Some(word) = choices.iter().find(|word| **word == text) {
            return Some(ParamValue::Choice(word));
        }
        match text {
            "b0" => return Some(ParamValue::Bool(false)),
            "b1" => return Some(ParamValue::Bool(true)),
            "all" => return Some(ParamValue::Selection(SelectionStrategy::AllNeighbours)),
            "per-packet" => return Some(ParamValue::Request(RequestStrategy::PerPacket)),
            "batched" => return Some(ParamValue::Request(RequestStrategy::Batched)),
            _ => {}
        }
        // Recovery-strategy names (`coop-arq`, `no-coop`, …) share no prefix
        // with the typed encodings below, so an exact-name lookup is safe.
        if let Some(kind) = RecoveryStrategyKind::from_name(text) {
            return Some(ParamValue::Strategy(kind));
        }
        // The strategy spellings start with letters the typed prefixes also
        // use (`first…` vs `f…` floats), so they must be tried first.
        if let Some(k) = text.strip_prefix("first") {
            let k: usize = k.parse().ok().filter(|k| *k > 0)?;
            return Some(ParamValue::Selection(SelectionStrategy::FirstHeard { k }));
        }
        if let Some(k) = text.strip_prefix("strong") {
            let k: usize = k.parse().ok().filter(|k| *k > 0)?;
            return Some(ParamValue::Selection(SelectionStrategy::StrongestSignal { k }));
        }
        if let Some(hex) = text.strip_prefix('f') {
            if hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                let bits = u64::from_str_radix(hex, 16).ok()?;
                return Some(ParamValue::Float(f64::from_bits(bits)));
            }
            return None;
        }
        let digits = text.strip_prefix('i')?;
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok().map(ParamValue::Int)
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Fixed decimals keep exports byte-stable; see vanet-stats.
            ParamValue::Float(x) => write!(f, "{x:.3}"),
            ParamValue::Int(x) => write!(f, "{x}"),
            ParamValue::Bool(x) => write!(f, "{x}"),
            ParamValue::Selection(SelectionStrategy::AllNeighbours) => f.write_str("all"),
            ParamValue::Selection(SelectionStrategy::FirstHeard { k }) => write!(f, "first{k}"),
            ParamValue::Selection(SelectionStrategy::StrongestSignal { k }) => {
                write!(f, "strong{k}")
            }
            ParamValue::Request(RequestStrategy::PerPacket) => f.write_str("per-packet"),
            ParamValue::Request(RequestStrategy::Batched) => f.write_str("batched"),
            ParamValue::Strategy(kind) => f.write_str(kind.name()),
            ParamValue::Choice(word) => f.write_str(word),
        }
    }
}

/// A parameter column's cell in an exported table: numbers stay numbers,
/// every other kind is its rendering.
impl From<ParamValue> for CellValue {
    fn from(value: ParamValue) -> Self {
        match value {
            ParamValue::Float(x) => CellValue::from(x),
            ParamValue::Int(x) => CellValue::from(x),
            other => CellValue::from(other.to_string()),
        }
    }
}

/// One point of a sweep (or a one-off run), or a resolved world: parameter
/// assignments in a stable order. Parameters a scenario's schema declares
/// but the point does not assign keep their schema defaults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepPoint {
    assignments: Vec<(Param, ParamValue)>,
}

impl SweepPoint {
    /// Creates a point from explicit assignments.
    ///
    /// # Panics
    ///
    /// Panics if a parameter appears twice.
    pub fn new(assignments: Vec<(Param, ParamValue)>) -> Self {
        for (i, (param, _)) in assignments.iter().enumerate() {
            assert!(
                !assignments[..i].iter().any(|(p, _)| p == param),
                "parameter {param} assigned twice in one point"
            );
        }
        SweepPoint { assignments }
    }

    /// The empty point: every parameter keeps its schema default.
    pub fn empty() -> Self {
        SweepPoint::default()
    }

    /// The assignments, in declaration order.
    pub fn assignments(&self) -> &[(Param, ParamValue)] {
        &self.assignments
    }

    /// The value assigned to `param`, if any.
    pub fn get(&self, param: Param) -> Option<ParamValue> {
        self.assignments.iter().find(|(p, _)| *p == param).map(|(_, v)| *v)
    }

    /// A copy of this point without the assignments for `params`.
    #[must_use]
    pub fn without(&self, params: &[Param]) -> SweepPoint {
        SweepPoint {
            assignments: self
                .assignments
                .iter()
                .filter(|(p, _)| !params.contains(p))
                .copied()
                .collect(),
        }
    }

    /// A compact `key=value,key=value` label for logs and progress output.
    pub fn label(&self) -> String {
        self.assignments.iter().map(|(p, v)| format!("{p}={v}")).collect::<Vec<_>>().join(",")
    }

    /// The lossless `key=canonical;key=canonical` rendering, in assignment
    /// order: a shard file's `point=` body, and a resolved world's segment of
    /// its identity.
    pub fn canonical(&self) -> String {
        self.assignments
            .iter()
            .map(|(p, v)| format!("{}={}", p.key(), v.canonical()))
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// One axis of a parameter grid: a parameter and the values it takes, in
/// the order they were declared (the expansion preserves this order).
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// The varied parameter.
    pub param: Param,
    /// The values, in declaration order.
    pub values: Vec<ParamValue>,
}

/// The cartesian product of `axes`: one point per combination, row-major
/// with the **first** axis varying slowest and the last fastest. No axes
/// expand to the single empty point. Sweep specs and campaign grids both
/// expand through this one function.
pub fn grid_points(axes: &[Axis]) -> Vec<SweepPoint> {
    let mut points = Vec::with_capacity(axes.iter().map(|a| a.values.len()).product());
    let mut indices = vec![0usize; axes.len()];
    loop {
        points.push(SweepPoint::new(
            axes.iter().zip(&indices).map(|(axis, i)| (axis.param, axis.values[*i])).collect(),
        ));
        // Odometer increment, last axis fastest.
        let mut dim = axes.len();
        loop {
            if dim == 0 {
                return points;
            }
            dim -= 1;
            indices[dim] += 1;
            if indices[dim] < axes[dim].values.len() {
                break;
            }
            indices[dim] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_values_render_compactly() {
        assert_eq!(ParamValue::Float(20.0).to_string(), "20.000");
        assert_eq!(ParamValue::Int(3).to_string(), "3");
        assert_eq!(ParamValue::Bool(true).to_string(), "true");
        assert_eq!(ParamValue::Selection(SelectionStrategy::AllNeighbours).to_string(), "all");
        assert_eq!(
            ParamValue::Selection(SelectionStrategy::FirstHeard { k: 2 }).to_string(),
            "first2"
        );
        assert_eq!(
            ParamValue::Selection(SelectionStrategy::StrongestSignal { k: 1 }).to_string(),
            "strong1"
        );
        assert_eq!(ParamValue::Request(RequestStrategy::PerPacket).to_string(), "per-packet");
        assert_eq!(ParamValue::Request(RequestStrategy::Batched).to_string(), "batched");
        assert_eq!(ParamValue::Strategy(RecoveryStrategyKind::CoopArq).to_string(), "coop-arq");
        assert_eq!(ParamValue::Strategy(RecoveryStrategyKind::NoCoop).to_string(), "no-coop");
        let point = SweepPoint::new(vec![
            (Param::SpeedKmh, ParamValue::Float(20.0)),
            (Param::NCars, ParamValue::Int(3)),
        ]);
        assert_eq!(point.label(), "speed_kmh=20.000,n_cars=3");
    }

    #[test]
    fn canonical_rendering_is_lossless() {
        // Display collapses nearby floats; canonical must not.
        let a = ParamValue::Float(20.0);
        let b = ParamValue::Float(20.000_000_1);
        assert_eq!(a.to_string(), b.to_string(), "Display rounds to 3 decimals");
        assert_ne!(a.canonical(), b.canonical(), "canonical must distinguish them");
        assert_eq!(a.canonical(), format!("f{:016x}", 20.0f64.to_bits()));
        assert_eq!(ParamValue::Int(7).canonical(), "i7");
        assert_eq!(ParamValue::Bool(true).canonical(), "b1");
        assert_eq!(ParamValue::Bool(false).canonical(), "b0");
        assert_eq!(
            ParamValue::Selection(SelectionStrategy::FirstHeard { k: 2 }).canonical(),
            "first2"
        );
        assert_eq!(ParamValue::Request(RequestStrategy::Batched).canonical(), "batched");
        assert_eq!(ParamValue::Strategy(RecoveryStrategyKind::NetCoded).canonical(), "net-coded");
    }

    #[test]
    fn every_param_key_round_trips() {
        for param in Param::ALL {
            assert_eq!(Param::from_key(param.key()), Some(param), "{param}");
        }
        assert_eq!(Param::from_key("warp_factor"), None);
        assert_eq!(Param::from_key(""), None);
    }

    #[test]
    fn canonical_renderings_parse_back_bit_for_bit() {
        let values = [
            ParamValue::Float(20.0),
            ParamValue::Float(20.000_000_1),
            ParamValue::Float(-0.0),
            ParamValue::Float(f64::MIN_POSITIVE),
            ParamValue::Int(0),
            ParamValue::Int(u64::MAX),
            ParamValue::Bool(true),
            ParamValue::Bool(false),
            ParamValue::Selection(SelectionStrategy::AllNeighbours),
            ParamValue::Selection(SelectionStrategy::FirstHeard { k: 2 }),
            ParamValue::Selection(SelectionStrategy::StrongestSignal { k: 7 }),
            ParamValue::Request(RequestStrategy::PerPacket),
            ParamValue::Request(RequestStrategy::Batched),
            ParamValue::Strategy(RecoveryStrategyKind::CoopArq),
            ParamValue::Strategy(RecoveryStrategyKind::NetCoded),
            ParamValue::Strategy(RecoveryStrategyKind::OneHopListen),
            ParamValue::Strategy(RecoveryStrategyKind::NoCoop),
        ];
        for value in values {
            let canonical = value.canonical();
            assert_eq!(
                ParamValue::parse_canonical(&canonical, &[]),
                Some(value),
                "round-trip of `{canonical}`"
            );
        }
        for junk in
            ["", "x1", "f12", "fzzzzzzzzzzzzzzzz", "i", "i1.5", "i+5", "first0", "strongk", "b2"]
        {
            assert_eq!(ParamValue::parse_canonical(junk, &[]), None, "`{junk}` must not parse");
        }
        // Choice words decode only against their parameter's vocabulary.
        const PLACEMENTS: &[&str] = &["center", "corner"];
        let corner = ParamValue::Choice("corner");
        assert_eq!(corner.canonical(), "corner");
        assert_eq!(corner.to_string(), "corner");
        assert_eq!(ParamValue::parse_canonical("corner", PLACEMENTS), Some(corner));
        assert_eq!(ParamValue::parse_canonical("corner", &[]), None);
        assert_eq!(ParamValue::parse_canonical("ring", PLACEMENTS), None);
        assert_eq!(ParamValue::parse_canonical("i3", PLACEMENTS), Some(ParamValue::Int(3)));
    }

    #[test]
    fn points_render_canonically_and_cells_keep_numbers() {
        let point = SweepPoint::new(vec![
            (Param::BlockM, ParamValue::Float(95.5)),
            (Param::NAps, ParamValue::Int(2)),
            (Param::Bidirectional, ParamValue::Bool(false)),
            (Param::ApPlacement, ParamValue::Choice("corner")),
        ]);
        assert_eq!(
            point.canonical(),
            format!(
                "block_m=f{:016x};n_aps=i2;bidirectional=b0;ap_placement=corner",
                95.5f64.to_bits()
            )
        );
        assert_eq!(SweepPoint::empty().canonical(), "");
        let cells: Vec<CellValue> = point.assignments().iter().map(|(_, v)| (*v).into()).collect();
        assert_eq!(
            cells,
            vec![
                CellValue::Float(95.5),
                CellValue::Int(2),
                CellValue::from("false"),
                CellValue::from("corner"),
            ]
        );
    }

    #[test]
    fn grids_expand_row_major_with_the_last_axis_fastest() {
        let axes = [
            Axis {
                param: Param::SpeedKmh,
                values: vec![ParamValue::Float(10.0), ParamValue::Float(20.0)],
            },
            Axis {
                param: Param::NCars,
                values: vec![ParamValue::Int(2), ParamValue::Int(3), ParamValue::Int(4)],
            },
        ];
        let labels: Vec<String> = grid_points(&axes).iter().map(SweepPoint::label).collect();
        assert_eq!(
            labels,
            [
                "speed_kmh=10.000,n_cars=2",
                "speed_kmh=10.000,n_cars=3",
                "speed_kmh=10.000,n_cars=4",
                "speed_kmh=20.000,n_cars=2",
                "speed_kmh=20.000,n_cars=3",
                "speed_kmh=20.000,n_cars=4",
            ]
        );
        assert_eq!(grid_points(&[]), vec![SweepPoint::empty()], "no axes: one empty point");
    }

    #[test]
    fn value_accessors_narrow_by_kind() {
        assert_eq!(ParamValue::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(ParamValue::Int(4).as_f64(), Some(4.0));
        assert_eq!(ParamValue::Int(4).as_u64(), Some(4));
        assert_eq!(ParamValue::Float(2.5).as_u64(), None);
        assert_eq!(ParamValue::Bool(true).as_bool(), Some(true));
        assert_eq!(ParamValue::Int(1).as_bool(), None);
    }

    #[test]
    fn without_strips_assignments() {
        let point = SweepPoint::new(vec![
            (Param::SpeedKmh, ParamValue::Float(20.0)),
            (Param::FileBlocks, ParamValue::Int(100)),
        ]);
        let stripped = point.without(&[Param::FileBlocks]);
        assert_eq!(stripped.get(Param::SpeedKmh), Some(ParamValue::Float(20.0)));
        assert_eq!(stripped.get(Param::FileBlocks), None);
        assert!(SweepPoint::empty().assignments().is_empty());
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn duplicate_assignment_rejected() {
        let _ = SweepPoint::new(vec![
            (Param::NCars, ParamValue::Int(1)),
            (Param::NCars, ParamValue::Int(2)),
        ]);
    }
}
