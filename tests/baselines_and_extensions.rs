//! Integration tests of the baselines and extension experiments: the AP-side
//! retransmission ARQ, the epidemic anti-entropy overhead comparison, the
//! highway drive-thru context and the multi-AP download extension — all
//! driven through the unified `Scenario` API.

use carq_repro::dtn::{AntiEntropySession, SummaryVector};
use carq_repro::dtn::{ApSchedulingPolicy, SeqNo};
use carq_repro::mac::NodeId;
use carq_repro::protocol::RequestMessage;
use carq_repro::scenarios::highway::HighwayScenario;
use carq_repro::scenarios::multi_ap::{MultiApConfig, MultiApScenario};
use carq_repro::scenarios::urban::{UrbanConfig, UrbanRun};
use carq_repro::scenarios::{run_point, run_rounds, Param, ParamValue, SweepPoint};
use carq_repro::stats::{into_round_results, render_table1, table1, PointSummary};

/// The AP-side retransmission baseline trades fresh-data goodput for loss
/// reduction: it must lose less than the no-retransmission baseline but send
/// fewer distinct packets per pass.
///
/// The AP policy is a base-configuration knob (not a schema parameter), so
/// this test builds `UrbanRun`s directly from configs.
#[test]
fn ap_retransmissions_trade_goodput_for_reliability() {
    let rounds = 3;
    let seed = 31;
    let base = UrbanConfig::paper_testbed().with_rounds(rounds).without_cooperation();
    let summary = |config: UrbanConfig| {
        let run = UrbanRun::new(config);
        let rows = table1(&into_round_results(run_rounds(&run, seed, 2)));
        let tx = rows.iter().map(|r| r.tx_by_ap.mean).sum::<f64>() / rows.len() as f64;
        let loss = rows.iter().map(|r| r.loss_pct_before).sum::<f64>() / rows.len() as f64;
        (tx, loss)
    };
    let (fresh_tx, fresh_loss) = summary(base.clone());
    let mut retransmit_cfg = base;
    retransmit_cfg.ap_policy = ApSchedulingPolicy::RetransmitUnacked { retransmit_ratio: 0.5 };
    let (re_tx, re_loss) = summary(retransmit_cfg);
    assert!(
        re_loss < fresh_loss,
        "retransmissions should reduce losses ({re_loss:.1}% !< {fresh_loss:.1}%)"
    );
    assert!(
        re_tx < fresh_tx,
        "retransmissions consume slots that fresh data would have used ({re_tx:.1} !< {fresh_tx:.1})"
    );
}

/// Table 1 of the AP-side retransmission baseline: the paper testbed
/// without cooperation, half of the AP's slots spent on retransmissions,
/// 3 rounds at seed 31 (the configuration of the test above).
fn ap_retransmit_table1() -> String {
    let mut config = UrbanConfig::paper_testbed().with_rounds(3).without_cooperation();
    config.ap_policy = ApSchedulingPolicy::RetransmitUnacked { retransmit_ratio: 0.5 };
    let reports = run_rounds(&UrbanRun::new(config), 31, 2);
    render_table1(&table1(&into_round_results(reports)))
}

const AP_RETRANSMIT_GOLDEN: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ap_retransmit_r3.txt");

/// The AP's idealised loss feedback (`!received && snr_db > -5.0`) is the
/// only reader of a lost delivery's SNR, so the baseline's rendered Table 1
/// is pinned byte for byte.
#[test]
fn ap_retransmit_table1_matches_its_golden() {
    let golden = std::fs::read_to_string(AP_RETRANSMIT_GOLDEN).expect("golden is readable");
    let rendered = ap_retransmit_table1();
    assert!(
        rendered == golden,
        "diverged from the golden:\n--- golden\n{golden}--- got\n{rendered}"
    );
}

/// Re-records the golden above; see `tests/golden/README.md`.
#[test]
#[ignore = "writes tests/golden/ap_retransmit_r3.txt"]
fn record_ap_retransmit_golden() {
    std::fs::write(AP_RETRANSMIT_GOLDEN, ap_retransmit_table1()).expect("golden is writable");
}

/// Epidemic anti-entropy pushes every packet the peer is missing, whoever it
/// is addressed to; C-ARQ only asks for the destination's own missing
/// packets. For the same reception state the epidemic exchange therefore
/// never moves fewer data frames than the C-ARQ recovery needs.
#[test]
fn epidemic_exchange_is_never_cheaper_than_carq_recovery() {
    // Car 1 received {0,1,2,6}, car 2 received {2..=6}: car 1 is missing
    // 3,4,5 (all held by car 2); car 2 is missing nothing it needs, but the
    // epidemic exchange also ships car-2-addressed packets to car 1.
    let car1 = NodeId::new(1);
    let car2 = NodeId::new(2);
    let mut a = SummaryVector::new();
    for s in [0u32, 1, 2, 6] {
        a.insert(car1, SeqNo::new(s));
    }
    let mut b = SummaryVector::new();
    for s in 2u32..=6 {
        b.insert(car1, SeqNo::new(s)); // overheard copies of car 1's flow
        b.insert(car2, SeqNo::new(s)); // its own flow
    }
    let plan = AntiEntropySession::paper_default().plan(&a, &b);

    // C-ARQ would move exactly the three missing packets of car 1 plus one
    // REQUEST frame.
    let carq_data_frames = 3;
    let carq_control_bytes = RequestMessage::new(car1, vec![SeqNo::new(3)], 1).encoded_bytes() * 3;
    assert!(plan.data_frames() >= carq_data_frames);
    assert!(plan.total_bytes() > u64::from(carq_control_bytes) + 3 * 1_000);
    // The difference is exactly the foreign-flow packets epidemic replication
    // carries and C-ARQ deliberately does not.
    assert_eq!(plan.b_to_a.iter().filter(|(flow, _)| *flow == car2).count(), 5);
}

fn highway_summary(extra: Vec<(Param, ParamValue)>) -> PointSummary {
    let mut assignments = vec![(Param::Rounds, ParamValue::Int(3))];
    assignments.extend(extra);
    let scenario = HighwayScenario::drive_thru();
    let (_, summary) =
        run_point(&scenario, &SweepPoint::new(assignments), 0xd21e, 2).expect("schema-valid point");
    summary
}

/// Highway context: losses grow with speed (smaller windows, same loss
/// probability per position) and the drive-thru loss level is in the tens of
/// percent, as the measurements cited by the paper report.
#[test]
fn highway_losses_match_the_drive_thru_picture() {
    let slow = highway_summary(vec![(Param::SpeedKmh, ParamValue::Float(60.0))]);
    let fast = highway_summary(vec![(Param::SpeedKmh, ParamValue::Float(120.0))]);
    assert!(fast.get("tx_window_mean").unwrap() < slow.get("tx_window_mean").unwrap());
    for obs in [&slow, &fast] {
        let loss = obs.get("loss_before_pct_mean").unwrap();
        assert!(
            (15.0..=75.0).contains(&loss),
            "loss {loss:.1}% outside the plausible drive-thru band"
        );
    }
}

/// Multi-AP download: with cooperation the platoon needs no more AP visits
/// than without it, and each visit delivers more blocks.
#[test]
fn cooperative_download_needs_no_more_ap_visits() {
    let run = |cooperative: bool| {
        let mut config = MultiApConfig::default_download().with_file_blocks(300);
        config.max_passes = 10;
        if !cooperative {
            config = config.without_cooperation();
        }
        let scenario = MultiApScenario::new(config);
        let (_, summary) =
            run_point(&scenario, &SweepPoint::empty(), 0x2008, 2).expect("schema-valid point");
        summary
    };
    let with_coop = run(true);
    let without = run(false);
    // `passes_needed_mean` already counts unfinished cars pessimistically.
    assert!(
        with_coop.get("passes_needed_mean").unwrap() <= without.get("passes_needed_mean").unwrap()
    );
    assert!(
        with_coop.get("blocks_per_pass_mean").unwrap()
            >= without.get("blocks_per_pass_mean").unwrap()
    );
}
