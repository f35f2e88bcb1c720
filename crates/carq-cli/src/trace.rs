//! `carq-cli trace` — run traced rounds and export the record stream.
//!
//! `--rounds A..B` (end-exclusive; `--rounds N` means `0..N`, and the
//! default is round 0 alone) exports a `CARQTRM1` trace file, one
//! `(round, seed)`-stamped frame per round, which `carq-cli analyze`
//! consumes directly. It becomes JSONL for external tooling when `--out`
//! ends in `.jsonl`. The scenario reference accepts a registered name or a
//! `VANETGEN1` scenario file, like `verify` and `scenario describe`.

use std::ops::Range;

use crate::cli::{Options, DEFAULT_SEED};
use crate::gen_cmd::{scenario_flag, ConfiguredScenario};

/// Parses `--rounds` as `A..B` (end-exclusive) or `N` (meaning `0..N`).
fn parse_round_range(raw: &str) -> Result<Range<u32>, String> {
    let parse = |s: &str| s.parse::<u32>().map_err(|_| format!("--rounds: cannot parse `{raw}`"));
    let range = match raw.split_once("..") {
        Some((a, b)) => parse(a)?..parse(b)?,
        None => 0..parse(raw)?,
    };
    if range.is_empty() {
        return Err(format!("--rounds {raw} selects no rounds"));
    }
    Ok(range)
}

/// `carq-cli trace --scenario NAME|FILE [--rounds A..B] [--seed S] --out
/// FILE`.
pub fn trace_cmd(opts: &Options) -> Result<String, String> {
    opts.refuse_unknown(&["scenario", "rounds", "seed", "out"], None)?;
    let reference = scenario_flag(opts, "trace")?;
    let Some(out) = opts.get("out") else {
        return Err(
            "trace needs --out FILE (binary CARQTRM1; a .jsonl extension writes JSONL)".into()
        );
    };
    let scenario = ConfiguredScenario::new(opts, reference, None)?;
    let range = parse_round_range(opts.get("rounds").unwrap_or("1"))?;
    let seed = opts.seed("seed", DEFAULT_SEED)?;
    // Each frame carries its own round number and round seed, so a replayed
    // analysis needs nothing else.
    let given = format!("--rounds {}..{}", range.start, range.end);
    let frames = scenario.frames(range.clone(), &given, seed)?;
    let total: usize = frames.iter().map(|f| f.records.len()).sum();
    if out.ends_with(".jsonl") {
        let mut text = String::new();
        for frame in &frames {
            text.push_str(&format!(
                "{{\"frame\":{{\"round\":{},\"seed\":\"{:#018x}\",\"records\":{}}}}}\n",
                frame.round,
                frame.seed,
                frame.records.len()
            ));
            text.push_str(&vanet_trace::to_jsonl(&frame.records));
        }
        std::fs::write(out, text)
    } else {
        std::fs::write(out, vanet_trace::encode_frames(&frames))
    }
    .map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "{out}: {total} trace record(s) of `{}` rounds {}..{} in {} frame(s), master seed \
         {seed:#x}\n",
        scenario.name,
        range.start,
        range.end,
        frames.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_file(tag: &str, ext: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "carq-cli-trace-test-{tag}-{}-{}.{ext}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn opts(items: &[&str]) -> Options {
        let strings: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        Options::parse(&strings).unwrap()
    }

    #[test]
    fn trace_validates_its_flags() {
        let err = trace_cmd(&opts(&[])).unwrap_err();
        assert!(err.contains("--scenario"), "{err}");
        let err = trace_cmd(&opts(&["--scenario", "urban"])).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        assert!(trace_cmd(&opts(&["--scenario", "mars", "--out", "/tmp/x.trc"])).is_err());
        assert!(trace_cmd(&opts(&["--bogus", "1"])).is_err());
        // One round is the range `--rounds R..R+1`; there is no `--round`.
        let err = trace_cmd(&opts(&["--scenario", "urban", "--round", "0", "--out", "/tmp/x.trc"]))
            .unwrap_err();
        assert!(err.contains("unknown flags: --round"), "{err}");
        let base = ["--scenario", "urban", "--out", "/tmp/x.trc"];
        for bad in ["0..0", "2..1", "nope", "0..9999"] {
            let err = trace_cmd(&opts(&[&base[..], &["--rounds", bad]].concat())).unwrap_err();
            assert!(err.contains("--rounds"), "{bad}: {err}");
        }
        let err = trace_cmd(&opts(&[&base[..], &["--rounds", "9999"]].concat())).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn round_ranges_export_frames() {
        // `--rounds 2` ≡ `--rounds 0..2`: two CARQTRM1 frames, each exactly
        // the one-frame export of its own round.
        let framed = temp_file("framed", "trc");
        let framed_str = framed.display().to_string();
        trace_cmd(&opts(&["--scenario", "urban", "--rounds", "2", "--out", &framed_str])).unwrap();
        let frames = vanet_trace::decode_frames(&std::fs::read(&framed).unwrap()).unwrap();
        assert_eq!(frames.iter().map(|f| f.round).collect::<Vec<_>>(), [0, 1]);
        assert!(frames.iter().all(|f| !f.records.is_empty()));

        let single = temp_file("single", "trc");
        let single_str = single.display().to_string();
        for frame in &frames {
            let range = format!("{}..{}", frame.round, frame.round + 1);
            trace_cmd(&opts(&["--scenario", "urban", "--rounds", &range, "--out", &single_str]))
                .unwrap();
            let one = vanet_trace::decode_frames(&std::fs::read(&single).unwrap()).unwrap();
            assert_eq!(one, std::slice::from_ref(frame), "round {}", frame.round);
        }
        // Without `--rounds`, the export is round 0 alone.
        trace_cmd(&opts(&["--scenario", "urban", "--out", &single_str])).unwrap();
        let one = vanet_trace::decode_frames(&std::fs::read(&single).unwrap()).unwrap();
        assert_eq!(one, frames[..1]);

        // The JSONL form interleaves one frame-header line per round.
        let jsonl = temp_file("frames", "jsonl");
        let jsonl_str = jsonl.display().to_string();
        trace_cmd(&opts(&["--scenario", "urban", "--rounds", "1..3", "--out", &jsonl_str]))
            .unwrap();
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert_eq!(text.lines().filter(|l| l.starts_with("{\"frame\":")).count(), 2);

        for path in [framed, single, jsonl] {
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn traces_round_trip_through_both_codecs() {
        // A generated scenario file doubles as the resolver check: trace a
        // round of a small emitted world into both export formats.
        let scenario_file = temp_file("scenario", "gen");
        let scenario_str = scenario_file.display().to_string();
        crate::gen_cmd::gen_emit(
            "platoon-merge",
            &opts(&["--feeder_m", "100", "--tail_m", "100", "--out", &scenario_str]),
        )
        .unwrap();

        let binary = temp_file("binary", "trc");
        let binary_str = binary.display().to_string();
        trace_cmd(&opts(&["--scenario", &scenario_str, "--out", &binary_str])).unwrap();
        let frames = vanet_trace::decode_frames(&std::fs::read(&binary).unwrap()).unwrap();
        let [frame] = &frames[..] else { panic!("{} frame(s), not round 0 alone", frames.len()) };
        assert_eq!(frame.round, 0);
        let decoded = &frame.records;
        assert!(!decoded.is_empty(), "a traced round emits records");
        assert!(vanet_trace::verify(decoded).violations.is_empty());

        let jsonl = temp_file("jsonl", "jsonl");
        let jsonl_str = jsonl.display().to_string();
        trace_cmd(&opts(&["--scenario", &scenario_str, "--out", &jsonl_str])).unwrap();
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let (headers, lines): (Vec<&str>, Vec<&str>) =
            text.lines().partition(|l| l.starts_with("{\"frame\":"));
        assert_eq!(headers.len(), 1, "one frame header");
        assert_eq!(lines.len(), decoded.len(), "one JSON object per record");
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')), "JSONL lines");

        for path in [scenario_file, binary, jsonl] {
            std::fs::remove_file(&path).ok();
        }
    }
}
