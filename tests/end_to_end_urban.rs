//! End-to-end integration tests of the paper's urban testbed reproduction:
//! the full stack (engine → mobility → channel → MAC → AP → C-ARQ → stats)
//! must reproduce the qualitative results of the paper's evaluation, driven
//! through the unified `Scenario` API.

use carq_repro::mac::NodeId;
use carq_repro::scenarios::{run_rounds, Param, ParamValue, Scenario, SweepPoint, UrbanScenario};
use carq_repro::stats::{
    counter_total, into_round_results, joint_series, reception_series, recovery_series, table1,
    RoundReport, RoundResult, SeriesPoint,
};

fn mean_probability(series: &[SeriesPoint]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    series.iter().map(|p| p.probability).sum::<f64>() / series.len() as f64
}

fn reports_for(rounds: u64, seed: u64, extra: Vec<(Param, ParamValue)>) -> Vec<RoundReport> {
    let mut assignments = vec![(Param::Rounds, ParamValue::Int(rounds))];
    assignments.extend(extra);
    let run = UrbanScenario::paper_testbed()
        .configure(&SweepPoint::new(assignments))
        .expect("schema-valid point");
    run_rounds(run.as_ref(), seed, 2)
}

/// A small but representative experiment (6 rounds instead of 30) used by
/// most assertions below.
fn small_experiment() -> Vec<RoundResult> {
    into_round_results(reports_for(6, 2024, vec![]))
}

#[test]
fn cooperation_reduces_losses_for_every_car() {
    let result = small_experiment();
    let rows = table1(&result);
    assert_eq!(rows.len(), 3);
    for row in &rows {
        assert!(
            row.loss_pct_after < row.loss_pct_before,
            "{}: {:.1}% !< {:.1}%",
            row.car,
            row.loss_pct_after,
            row.loss_pct_before
        );
        assert!(row.loss_reduction() > 0.25, "{}: reduction {:.2}", row.car, row.loss_reduction());
        // The reception window must be in the ballpark of the paper's
        // 121-143 packets (the simulated streets are a reconstruction, so a
        // generous band is used).
        assert!(
            (80.0..=260.0).contains(&row.tx_by_ap.mean),
            "{}: window of {:.1} packets is implausible",
            row.car,
            row.tx_by_ap.mean
        );
        // Loss levels must be in the harsh-but-usable band the paper reports.
        assert!(
            (10.0..=55.0).contains(&row.loss_pct_before),
            "{}: before-coop loss {:.1}%",
            row.car,
            row.loss_pct_before
        );
    }
}

#[test]
fn recovery_is_close_to_the_joint_reception_oracle() {
    let result = small_experiment();
    for car in [NodeId::new(1), NodeId::new(2), NodeId::new(3)] {
        let after = mean_probability(&recovery_series(&result, car));
        let joint = mean_probability(&joint_series(&result, car));
        assert!(joint >= after - 1e-9, "joint reception bounds the protocol");
        assert!(
            joint - after < 0.08,
            "car {car}: optimality gap {:.3} is too large (after={after:.3}, joint={joint:.3})",
            joint - after
        );
    }
}

#[test]
fn region_structure_matches_figure_3() {
    // Figure 3 of the paper: for packets addressed to car 1, car 1 has the
    // best reception while entering coverage (Region I) and the *other* cars
    // have better reception while car 1 leaves coverage (Region III).
    let result = small_experiment();
    let car1 = NodeId::new(1);
    let own = reception_series(&result, car1, car1);
    let by_car2 = reception_series(&result, car1, NodeId::new(2));
    let by_car3 = reception_series(&result, car1, NodeId::new(3));
    assert!(own.len() > 30, "window has {} points", own.len());
    let third = own.len() / 3;
    let region = |s: &[SeriesPoint], lo: usize, hi: usize| {
        let hi = hi.min(s.len());
        if lo >= hi {
            return 0.0;
        }
        s[lo..hi].iter().map(|p| p.probability).sum::<f64>() / (hi - lo) as f64
    };
    // Region I: car 1 receives better than the trailing cars.
    let own_i = region(&own, 0, third);
    let car3_i = region(&by_car3, 0, third);
    assert!(own_i > car3_i, "Region I: expected car 1 ({own_i:.2}) to beat car 3 ({car3_i:.2})");
    // Region III: the trailing cars receive better than car 1.
    let own_iii = region(&own, 2 * third, own.len());
    let car2_iii = region(&by_car2, 2 * third, by_car2.len());
    let car3_iii = region(&by_car3, 2 * third, by_car3.len());
    assert!(
        car2_iii.max(car3_iii) > own_iii,
        "Region III: expected a trailing car ({:.2}) to beat car 1 ({own_iii:.2})",
        car2_iii.max(car3_iii)
    );
}

#[test]
fn experiments_are_reproducible_for_a_fixed_seed() {
    let a = reports_for(2, 7, vec![]);
    let b = reports_for(2, 7, vec![]);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_give_different_realisations() {
    let a = reports_for(1, 1, vec![]);
    let b = reports_for(1, 2, vec![]);
    assert_ne!(a[0].result, b[0].result);
}

#[test]
fn no_cooperation_baseline_matches_direct_reception() {
    let reports = reports_for(2, 11, vec![(Param::Cooperation, ParamValue::Bool(false))]);
    assert_eq!(counter_total(&reports, "requests_sent"), 0.0);
    assert_eq!(counter_total(&reports, "coop_data_sent"), 0.0);
    for report in &reports {
        for car in report.result.cars() {
            let counts = report.result.flow_for(car).unwrap().counts();
            assert_eq!(counts.lost_before_coop, counts.lost_after_coop);
        }
    }
}

#[test]
fn larger_platoons_recover_at_least_as_well() {
    let three = into_round_results(reports_for(3, 5, vec![]));
    let five = into_round_results(reports_for(3, 5, vec![(Param::NCars, ParamValue::Int(5))]));
    let mean_after = |result: &[RoundResult]| {
        let rows = table1(result);
        rows.iter().map(|r| r.loss_pct_after).sum::<f64>() / rows.len() as f64
    };
    // More cooperators means more diversity; allow a small tolerance because
    // the extra cars also add contention.
    assert!(mean_after(&five) <= mean_after(&three) + 5.0);
}
