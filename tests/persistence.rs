//! The record family against the bytes older binaries wrote.
//!
//! Every line below was captured from the encoder of the commit before
//! the record family existed (hand-paired `*_body` / `decode_*`
//! functions, PR 21), except `epoch` and `replan_meta`, re-recorded when
//! early stopping and ancestor resume went; their older forms are held
//! too, and chains written in them still resume. Each line is held both
//! ways: the typed record encodes to exactly that line, and that line
//! decodes to exactly that record — so a chain or journal written by any
//! earlier binary still resumes.
//! The second half damages such files one bit at a time. The journal's
//! younger lines — the `head` of a compacted journal, without and with
//! its count of dropped requests answered at admission, and the `done`
//! of a request answered at admission — are held the same way, as first
//! written.

use neuroplan::checkpoint::{
    replan_stream_tag, EpochRecord, MasterRecord, Meta, ReplanEventRecord, ReplanMeta,
};
use neuroplan::master::MasterOutcome;
use neuroplan::pipeline::FirstStage;
use neuroplan::{EventReport, NeuroPlan, NeuroPlanConfig, ReplanConfig};
use np_chaos::checkpoint::{f64_to_hex, Chain, Record, Typed};
use np_chaos::Chaos;
use np_flow::MetricCut;
use np_lp::MipStatus;
use np_rl::{EpochStats, TrainReport};
use np_serve::journal::{self, Head, Journal, Kept, Replay, Totals, K_CANCELLED, K_DONE, K_FAILED};
use np_supervisor::PlanQuality;
use np_telemetry::Telemetry;
use np_topology::generator::GeneratorConfig;
use np_topology::LinkId;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};

const META: &str = r#"{"sum":"ba7780528f58e952","rec":{"v":1,"kind":"meta","body":{"fp":"00112233aabbccdd","fs":"fs-ffeeddcc44556677"}}}"#;
const EPOCH: &str = r#"{"sum":"8db95b6084fb3bca","rec":{"v":1,"kind":"epoch","body":{"epoch":3,"mean_return":"000000000000c0bf","completed":7,"truncated":1,"mean_length":"0000000000404540","next_epoch":4,"recovery_nonce":1,"agent":"AGENT","env":"ENV|with|pipes \"quoted\""}}}"#;
const FIRST_STAGE_FALLBACK: &str = r#"{"sum":"68c12c7467b38953","rec":{"v":1,"kind":"first_stage","body":{"cost":"77be9f1a2fdd5e40","units":[1,0,3],"rl_cost":null,"reference_cost":"0000000000006940","certs":["0000000000002440;0,000000000000f83f;2,000000000000e0bf"]}}}"#;
const FIRST_STAGE: &str = r#"{"sum":"b6f5eb2795756947","rec":{"v":1,"kind":"first_stage","body":{"cost":"77be9f1a2fdd5e40","units":[1,0,3],"rl_cost":"0000000000c86240","reference_cost":"0000000000006940","certs":["0000000000002440;0,000000000000f83f;2,000000000000e0bf"]}}}"#;
const MASTER: &str = r#"{"sum":"6f817916cd063ab2","rec":{"v":1,"kind":"master","body":{"status":"time-limit","cost":"0000000000e05840","units":[2,2,0],"nodes":17,"cuts_added":4,"best_bound":"0000000000105440","overshoot_us":123,"quality":"incumbent","rung":1}}}"#;
const REPLAN_META: &str = r#"{"sum":"91b6ed71c74aa1c5","rec":{"v":1,"kind":"replan_meta","body":{"fp":"aaaa000000000000","stream":"f6e321ba239a4b00"}}}"#;
const REPLAN_EVENT_FLAPPED: &str = r#"{"sum":"756d346b1bfa8bcc","rec":{"v":1,"kind":"replan_event","body":{"k":4,"class":"link-remove","event":"link-remove:2","afp":"00112233aabbccdd","fp":"ffeeddcc44556677","cost":"00000000004a9340","units":[0,3,7],"eval":"1|0|2|-|deadbeef;0,3ff0000000000000","quality":"incumbent","skipped":null,"churn":9,"retained":5,"dropped":2,"flapped":1}}}"#;
const REPLAN_EVENT_SKIPPED: &str = r#"{"sum":"4f56d7bce3795edf","rec":{"v":1,"kind":"replan_event","body":{"k":5,"class":"link-remove","event":"link-remove:2","afp":"00112233aabbccdd","fp":"ffeeddcc44556677","cost":"00000000004a9340","units":[0,3,7],"eval":"1|0|2|-|deadbeef;0,3ff0000000000000","quality":"rounded","skipped":"structurally infeasible","churn":9,"retained":5,"dropped":2,"flapped":0}}}"#;
/// An `epoch` and a `replan_meta` as the commit before this encoder
/// wrote them, with members no reader takes any more: the early-stopping
/// streak (`converged_run`, `prev_return`) and the starting cost an
/// ancestor resume read (`cost0`).
const PARENT_EPOCH: &str = r#"{"sum":"cc65c675a0f9c0c9","rec":{"v":1,"kind":"epoch","body":{"epoch":3,"mean_return":"000000000000c0bf","completed":7,"truncated":1,"mean_length":"0000000000404540","next_epoch":4,"converged_run":2,"prev_return":"000000000000d0bf","recovery_nonce":1,"agent":"AGENT","env":"ENV|with|pipes \"quoted\""}}}"#;
const PARENT_REPLAN_META: &str = r#"{"sum":"1d57ec238ba58204","rec":{"v":1,"kind":"replan_meta","body":{"fp":"aaaa000000000000","stream":"f6e321ba239a4b00","cost0":"0000000000028040"}}}"#;
/// A `meta` from before the first-stage key (PR 19).
const LEGACY_META: &str =
    r#"{"sum":"2ca86851ded84d89","rec":{"v":1,"kind":"meta","body":{"fp":"00112233aabbccdd"}}}"#;
/// A `master` from before the anytime supervisor (PR 4): no `quality`,
/// `rung` or `overshoot_us`.
const LEGACY_MASTER: &str = r#"{"sum":"e1923fcd7b950b40","rec":{"v":1,"kind":"master","body":{"status":"optimal","cost":"0000000000002440","units":[1,2],"nodes":3,"cuts_added":0,"best_bound":"0000000000002440"}}}"#;
const JOURNAL: [&str; 6] = [
    r#"{"sum":"2d512dcb69940440","rec":{"v":1,"kind":"submitted","body":{"id":7,"spec":{"preset":"a","seed":3}}}}"#,
    r#"{"sum":"d420f33de745cdab","rec":{"v":1,"kind":"done","body":{"id":7,"payload":{"id":7,"units":[1,2],"cost":1.5,"cost_hex":"000000000000f83f"}}}}"#,
    r#"{"sum":"b7cd1aab41ac412e","rec":{"v":1,"kind":"submitted","body":{"id":8,"spec":{"preset":"zz"}}}}"#,
    r#"{"sum":"1dfe0e682dfb1af1","rec":{"v":1,"kind":"failed","body":{"id":8,"payload":"plan failed: unknown preset `zz`"}}}"#,
    r#"{"sum":"a186ba44b20e8df1","rec":{"v":1,"kind":"submitted","body":{"id":9,"spec":{"preset":"b"}}}}"#,
    r#"{"sum":"e66acdac02d87e36","rec":{"v":1,"kind":"cancelled","body":{"id":9,"payload":null}}}"#,
];

/// The first record of a compacted journal.
const JOURNAL_HEAD: &str = r#"{"sum":"137db3fe384eb4dc","rec":{"v":1,"kind":"head","body":{"floor":2301,"done":5,"failed":1,"cancelled":2}}}"#;
/// The `head` of a compaction that dropped requests answered at
/// admission counts them, which is how `inline_hits` survives a restart.
const JOURNAL_HEAD_ANSWERED: &str = r#"{"sum":"3e0223f8d2576323","rec":{"v":1,"kind":"head","body":{"floor":2301,"done":5,"failed":1,"cancelled":2,"answered":4}}}"#;
/// A `done` that says its request never queued.
const JOURNAL_ANSWERED: &str = r#"{"sum":"e34ea384c5f37b1f","rec":{"v":1,"kind":"done","body":{"id":10,"payload":{"id":10,"units":[1,2],"cost":1.5,"cost_hex":"000000000000f83f"},"answered":1}}}"#;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("np-persistence-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn meta() -> Meta {
    Meta {
        fp: "00112233aabbccdd".to_string(),
        fs: "fs-ffeeddcc44556677".to_string(),
    }
}

fn epoch() -> EpochRecord {
    EpochRecord {
        stats: EpochStats {
            epoch: 3,
            mean_return: -0.125,
            completed: 7,
            truncated: 1,
            mean_length: 42.5,
        },
        next_epoch: 4,
        recovery_nonce: 1,
        agent: "AGENT".to_string(),
        env: "ENV|with|pipes \"quoted\"".to_string(),
    }
}

fn first_stage(rl_cost: Option<f64>) -> FirstStage {
    FirstStage {
        units: vec![1, 0, 3],
        cost: 123.456,
        rl_cost,
        reference_cost: 200.0,
        report: TrainReport::default(),
        certificates: vec![MetricCut {
            coeff: vec![(LinkId::new(0), 1.5), (LinkId::new(2), -0.5)],
            rhs: 10.0,
        }],
        stats: np_eval::EvalStats::default(),
    }
}

fn master() -> MasterRecord {
    let outcome = MasterOutcome {
        status: MipStatus::TimeLimit,
        cost: 99.5,
        units: vec![2, 2, 0],
        nodes: 17,
        cuts_added: 4,
        best_bound: 80.25,
        deadline_overshoot_us: 123,
    };
    MasterRecord {
        outcome,
        quality: PlanQuality::Incumbent,
    }
}

fn stream() -> String {
    replan_stream_tag(
        &["demand-scale:1.1".to_string()],
        &[1, 2, 3],
        &[0, u64::MAX, 7],
    )
}

fn replan_meta() -> ReplanMeta {
    ReplanMeta {
        fp: "aaaa000000000000".to_string(),
        stream: stream(),
    }
}

fn replan_event_flapped() -> ReplanEventRecord {
    ReplanEventRecord {
        report: EventReport {
            index: 4,
            class: "link-remove".to_string(),
            event: "link-remove:2".to_string(),
            skipped: None,
            cost: 1234.5,
            quality: PlanQuality::Incumbent,
            churn: 9,
            certs_retained: 5,
            certs_dropped: 2,
            flapped: true,
            resumed: false,
            millis: 0.0,
        },
        ancestor_fp: "00112233aabbccdd".to_string(),
        fp: "ffeeddcc44556677".to_string(),
        units: vec![0, 3, 7],
        eval: "1|0|2|-|deadbeef;0,3ff0000000000000".to_string(),
    }
}

fn replan_event_skipped() -> ReplanEventRecord {
    let mut rec = replan_event_flapped();
    rec.report.index = 5;
    rec.report.quality = PlanQuality::Rounded;
    rec.report.skipped = Some("structurally infeasible".to_string());
    rec.report.flapped = false;
    rec
}

/// `rec` encodes to `line`, and `line` decodes to a record that is `rec`
/// field for field (`Debug` shows every field, `f64`s to the last digit).
fn holds<R: Typed + Clone + std::fmt::Debug>(name: &str, rec: R, line: &str) {
    let dir = tmp(name);
    let chaos = Chaos::disabled();
    let path = dir.join("chain.jsonl");
    let chain = Chain::new(&path, &chaos);
    chain.append(rec.clone()).expect("append");
    let written = std::fs::read_to_string(&path).unwrap();
    assert_eq!(written, format!("{line}\n"), "{name}: encoder");
    assert_eq!(decoded::<R>(name, line), format!("{rec:?}"), "{name}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Debug` of the `R` that the one-line chain `line` decodes to.
fn decoded<R: Typed + std::fmt::Debug>(name: &str, line: &str) -> String {
    let dir = tmp(&format!("{name}-read"));
    let path = dir.join("chain.jsonl");
    std::fs::write(&path, format!("{line}\n")).unwrap();
    let records = Chain::new(&path, &Chaos::disabled()).read();
    assert_eq!(records.len(), 1, "{name}: the line verifies");
    let rec: R = records[0].decode().expect("the line decodes");
    let _ = std::fs::remove_dir_all(&dir);
    format!("{rec:?}")
}

#[test]
fn every_record_kind_is_the_bytes_the_parent_commit_wrote() {
    holds("meta", meta(), META);
    holds("epoch", epoch(), EPOCH);
    holds("first-fallback", first_stage(None), FIRST_STAGE_FALLBACK);
    holds("first", first_stage(Some(150.25)), FIRST_STAGE);
    holds("master", master(), MASTER);
    holds("replan-meta", replan_meta(), REPLAN_META);
    holds("flapped", replan_event_flapped(), REPLAN_EVENT_FLAPPED);
    holds("skipped", replan_event_skipped(), REPLAN_EVENT_SKIPPED);
    assert_eq!(stream(), "f6e321ba239a4b00");
}

#[test]
fn legacy_forms_decode_to_what_they_always_did() {
    // No claim on any first-stage key, every claim on its fingerprint.
    let legacy = Meta {
        fs: String::new(),
        ..meta()
    };
    assert_eq!(
        decoded::<Meta>("legacy-meta", LEGACY_META),
        format!("{legacy:?}")
    );

    let optimal = MasterRecord {
        outcome: MasterOutcome {
            status: MipStatus::Optimal,
            cost: 10.0,
            units: vec![1, 2],
            nodes: 3,
            cuts_added: 0,
            best_bound: 10.0,
            deadline_overshoot_us: 0,
        },
        quality: PlanQuality::Optimal,
    };
    assert_eq!(
        decoded::<MasterRecord>("legacy-master", LEGACY_MASTER),
        format!("{optimal:?}"),
        "no overshoot, and the rung inferred from the proof"
    );
    // Anything but a proof infers the incumbent rung.
    let body = LEGACY_MASTER.split_once(r#""body":"#).unwrap().1;
    let body = body.trim_end_matches('}').replace("optimal", "feasible") + "}";
    let unproven = Record {
        kind: "master".to_string(),
        body: serde_json::from_str(&body).expect("json"),
    };
    let rec: MasterRecord = unproven.decode().expect("decodes");
    assert_eq!(rec.outcome.status, MipStatus::Feasible);
    assert_eq!(rec.quality, PlanQuality::Incumbent);
}

#[test]
fn a_record_of_another_kind_or_shape_is_no_record() {
    let body = |line: &str| -> Record {
        let dir = tmp("shape");
        let path = dir.join("chain.jsonl");
        std::fs::write(&path, format!("{line}\n")).unwrap();
        let mut records = Chain::new(&path, &Chaos::disabled()).read();
        let _ = std::fs::remove_dir_all(&dir);
        records.remove(0)
    };
    assert!(body(EPOCH).decode::<Meta>().is_none(), "kind mismatch");
    assert!(body(MASTER).decode::<EpochRecord>().is_none());
    let empty = Record {
        kind: "epoch".to_string(),
        body: Value::Null,
    };
    assert!(empty.decode::<EpochRecord>().is_none(), "shape mismatch");
    let mut torn = body(REPLAN_EVENT_FLAPPED);
    if let Value::Object(members) = &mut torn.body {
        members.retain(|(k, _)| k != "afp");
    }
    assert!(
        torn.decode::<ReplanEventRecord>().is_none(),
        "missing member"
    );
}

#[test]
fn replan_meta_classifies_exact_ancestor_and_mismatch() {
    let meta = replan_meta();
    let fps = vec![
        "1111000000000000".to_string(),
        "2222000000000000".to_string(),
    ];
    assert!(meta.matches(&stream(), "aaaa000000000000"));
    // A recorded descendant of the starting instance is not its start.
    for fp in &fps {
        assert!(!meta.matches(&stream(), fp));
    }
    assert!(!meta.matches(&stream(), "9999000000000000"));
    // A different stream never matches, even from the exact instance.
    assert!(!meta.matches("other-stream", "aaaa000000000000"));
    // The tag is sensitive to every component of the stream spec.
    let tag = |event: &str, units: &[u32]| {
        replan_stream_tag(&[event.to_string()], units, &[0, u64::MAX, 7])
    };
    assert_ne!(stream(), tag("link-add:0", &[1, 2, 3]));
    assert_ne!(stream(), tag("demand-scale:1.1", &[1, 2]));
}

fn write_journal(dir: &std::path::Path) -> Journal {
    let chaos = Chaos::disabled();
    let j = Journal::in_dir(dir).expect("journal");
    j.submitted(7, &json!({"preset": "a", "seed": 3}), &chaos)
        .unwrap();
    let done = json!({"id": 7, "units": [1, 2], "cost": 1.5, "cost_hex": "000000000000f83f"});
    j.terminal(K_DONE, 7, done, &chaos).unwrap();
    j.submitted(8, &json!({"preset": "zz"}), &chaos).unwrap();
    let failed = json!("plan failed: unknown preset `zz`");
    j.terminal(K_FAILED, 8, failed, &chaos).unwrap();
    j.submitted(9, &json!({"preset": "b"}), &chaos).unwrap();
    j.terminal(K_CANCELLED, 9, Value::Null, &chaos).unwrap();
    j
}

/// What `replay` makes of a journal, as text.
fn replayed(path: &std::path::Path) -> String {
    let (requests, next_id) = journal::replay(path);
    let rows: Vec<String> = requests
        .iter()
        .map(|r| {
            let spec = serde_json::to_string(&r.spec).unwrap();
            let terminal = r.terminal.as_ref().map(|(kind, payload)| {
                format!("{kind} {}", serde_json::to_string(payload).unwrap())
            });
            format!("{} {spec} {terminal:?}", r.id)
        })
        .collect();
    format!("{rows:#?} next {next_id}")
}

#[test]
fn the_journal_is_the_bytes_the_parent_commit_wrote() {
    let dir = tmp("journal");
    let j = write_journal(&dir);
    let written = std::fs::read_to_string(j.path()).unwrap();
    assert_eq!(written, JOURNAL.map(|l| format!("{l}\n")).concat());
    let (requests, next_id) = journal::replay(j.path());
    assert_eq!(next_id, 10);
    assert_eq!(requests.iter().map(|r| r.id).collect::<Vec<_>>(), [7, 8, 9]);
    assert_eq!(requests[0].spec, json!({"preset": "a", "seed": 3}));
    let terminals: Vec<_> = requests.iter().map(|r| r.terminal.clone()).collect();
    assert_eq!(
        terminals[0].as_ref().map(|(k, p)| (*k, &p["cost_hex"])),
        Some((K_DONE, &json!("000000000000f83f")))
    );
    assert_eq!(
        terminals[1],
        Some((K_FAILED, json!("plan failed: unknown preset `zz`")))
    );
    assert_eq!(terminals[2], Some((K_CANCELLED, Value::Null)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_compacted_journal_is_a_head_and_the_lines_the_requests_were_journaled_with() {
    let expired = Totals {
        done: 5,
        failed: 1,
        cancelled: 2,
        answered: 0,
    };
    let head = Head {
        floor: 2301,
        expired,
    };
    holds("journal-head", head, JOURNAL_HEAD);
    let answered = Totals {
        answered: 4,
        ..expired
    };
    let with_answered = Head {
        expired: answered,
        ..head
    };
    holds(
        "journal-head-answered",
        with_answered,
        JOURNAL_HEAD_ANSWERED,
    );

    // Requests 7 and 9 of the journal above and an answered 10, kept; 8
    // dropped. Every line but the head is a line an append wrote.
    let dir = tmp("compacted");
    let chaos = Chaos::disabled();
    let j = write_journal(&dir);
    let spec = json!({"preset": "a", "seed": 3});
    j.submitted(10, &spec, &chaos).unwrap();
    let done =
        |id: u64| json!({"id": id, "units": [1, 2], "cost": 1.5, "cost_hex": "000000000000f83f"});
    j.answered(10, done(10), &chaos).unwrap();
    let appended = std::fs::read_to_string(j.path()).unwrap();
    let appended: Vec<&str> = appended.lines().collect();
    assert_eq!(appended[..6], JOURNAL);
    assert_eq!(appended[7], JOURNAL_ANSWERED);
    let (done7, done10, b) = (done(7), done(10), json!({"preset": "b"}));
    let kept = |id, spec, terminal, answered| Kept {
        id,
        spec,
        terminal,
        answered,
    };
    let kept = [
        kept(7, &spec, Some((K_DONE, &done7)), false),
        kept(10, &spec, Some((K_DONE, &done10)), true),
        kept(9, &b, Some((K_CANCELLED, &Value::Null)), false),
    ];
    assert_eq!(j.compact(head, kept, &chaos).unwrap(), 7);
    let compacted = std::fs::read_to_string(j.path()).unwrap();
    let lines = [
        JOURNAL_HEAD,
        JOURNAL[0],
        JOURNAL[1],
        appended[6],
        JOURNAL_ANSWERED,
        JOURNAL[4],
        JOURNAL[5],
    ];
    assert_eq!(compacted, lines.map(|l| format!("{l}\n")).concat());

    // And back: the head's floor and counts, the flag on request 10 only.
    let replay = Replay::of(j.path());
    assert_eq!(replay.head, head);
    assert_eq!(replay.next_id(), 2301);
    assert_eq!(replay.closed, [7, 10, 9]);
    let answered: Vec<bool> = replay.requests.iter().map(|r| r.answered).collect();
    assert_eq!(answered, [false, true, false]);
    // A journal without a head has no floor but its own ids, and a
    // reader from before the head skips it as a record of no request.
    std::fs::write(j.path(), format!("{}\n", JOURNAL.join("\n"))).unwrap();
    assert_eq!(Replay::of(j.path()).head, Head::default());
    assert_eq!(Replay::of(j.path()).next_id(), 10);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every typed decoder over every record: none may panic on whatever a
/// damaged file still yields.
fn decode_all(records: &[Record]) {
    for r in records {
        let _ = r.decode::<Meta>();
        let _ = r.decode::<EpochRecord>();
        let _ = r.decode::<FirstStage>();
        let _ = r.decode::<MasterRecord>();
        let _ = r.decode::<ReplanMeta>();
        let _ = r.decode::<ReplanEventRecord>();
    }
}

/// Flip every bit of every byte of `lines` in turn. Whatever the flip
/// does — a wrong digit, a broken string, bytes that are no longer text,
/// a line split in two or two lines fused — the chain reads as exactly
/// the records before the damaged line, and `replay` as the journal of
/// exactly those lines.
fn every_bit_flip_drops_exactly_the_tail(name: &str, lines: &[&str]) {
    let dir = tmp(name);
    let chaos = Chaos::disabled();
    let path = dir.join("chain.jsonl");
    let chain = Chain::new(&path, &chaos);
    let text = lines.iter().map(|l| format!("{l}\n")).collect::<String>();
    let text = text.into_bytes();
    std::fs::write(&path, &text).unwrap();
    let show = |records: &[Record]| -> Vec<String> {
        (records.iter())
            .map(|r| format!("{} {}", r.kind, serde_json::to_string(&r.body).unwrap()))
            .collect()
    };
    let whole = show(&chain.read());
    assert_eq!(whole.len(), lines.len(), "{name}: the undamaged file");
    let prefix_replays: Vec<String> = (0..=lines.len())
        .map(|n| {
            let prefix = lines[..n]
                .iter()
                .map(|l| format!("{l}\n"))
                .collect::<String>();
            std::fs::write(&path, prefix).unwrap();
            replayed(&path)
        })
        .collect();

    let mut damaged = text.clone();
    for at in 0..text.len() {
        let line = text[..at].iter().filter(|&&b| b == b'\n').count();
        for bit in 0..8 {
            damaged[at] = text[at] ^ (1 << bit);
            std::fs::write(&path, &damaged).unwrap();
            let records = chain.read();
            assert_eq!(show(&records), whole[..line], "{name}: byte {at} bit {bit}");
            decode_all(&records);
            assert_eq!(
                replayed(&path),
                prefix_replays[line],
                "{name}: byte {at} bit {bit}"
            );
        }
        damaged[at] = text[at];
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flips_in_a_checkpoint_chain_drop_exactly_the_tail() {
    let chain = [META, EPOCH, EPOCH, FIRST_STAGE, MASTER];
    every_bit_flip_drops_exactly_the_tail("flip-checkpoint", &chain);
}

#[test]
fn bit_flips_in_a_replan_chain_drop_exactly_the_tail() {
    let chain = [REPLAN_META, REPLAN_EVENT_FLAPPED, REPLAN_EVENT_SKIPPED];
    every_bit_flip_drops_exactly_the_tail("flip-replan", &chain);
}

#[test]
fn bit_flips_in_a_journal_drop_exactly_the_tail() {
    every_bit_flip_drops_exactly_the_tail("flip-journal", &JOURNAL);
    let compacted = [JOURNAL_HEAD, JOURNAL[0], JOURNAL_ANSWERED, JOURNAL[2]];
    every_bit_flip_drops_exactly_the_tail("flip-compacted", &compacted);
}

/// What a death part-way through its third append leaves of the chain
/// `whole`: two records, then the first half of the third.
fn torn_copy(whole: &Path, to: &Path) {
    let text = std::fs::read_to_string(whole).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let half = &lines[2][..lines[2].len() / 2];
    std::fs::write(to, format!("{}\n{}\n{half}", lines[0], lines[1])).unwrap();
}

/// A run killed mid-append and resumed writes its records where the next
/// read finds them: `plan` / `replan --resume` cut the torn half-record
/// off first, so both chains end as the uninterrupted run's do, its
/// `first_stage`, `master` and event records included.
#[test]
fn a_resume_over_a_torn_tail_leaves_the_chains_of_an_uninterrupted_run() {
    let dir = tmp("torn-resume");
    let net = GeneratorConfig::a_variant(0.5).generate();
    let planner = |ckpt: &Path| {
        NeuroPlan::new(NeuroPlanConfig::quick().with_seed(5)).with_checkpoint(ckpt, true)
    };
    let events = np_churn::generate_stream(&net, 5, 3);
    let rcfg = ReplanConfig::default();
    let clean_dir = dir.join("clean");
    let clean = planner(&clean_dir)
        .replan(&net, &events, &rcfg)
        .expect("uninterrupted");
    let kinds = |file: &Path| -> Vec<String> {
        let records = Chain::new(file, &Chaos::disabled()).read();
        records.into_iter().map(|r| r.kind).collect()
    };
    let chains = ["checkpoint.jsonl", "replan.jsonl"];
    let clean_kinds = chains.map(|name| kinds(&clean_dir.join(name)));
    assert!(clean_kinds[0].ends_with(&["first_stage".into(), "master".into()]));
    assert_eq!(clean_kinds[1].len(), 1 + events.len());

    // Killed while training (no stream yet), and while re-planning.
    for torn in chains {
        let ckpt = dir.join(torn);
        std::fs::create_dir_all(&ckpt).unwrap();
        std::fs::copy(clean_dir.join(chains[0]), ckpt.join(chains[0])).unwrap();
        torn_copy(&clean_dir.join(torn), &ckpt.join(torn));
        let got = planner(&ckpt)
            .replan(&net, &events, &rcfg)
            .expect("resumed");
        assert_eq!(got.final_units, clean.final_units, "{torn}");
        assert_eq!(got.final_cost.to_bits(), clean.final_cost.to_bits());
        for (name, want) in chains.iter().zip(&clean_kinds) {
            assert_eq!(&kinds(&ckpt.join(name)), want, "{torn} torn: {name}");
            assert_eq!(
                std::fs::read(ckpt.join(name)).unwrap(),
                std::fs::read(clean_dir.join(name)).unwrap(),
                "{torn} torn: {name} is the uninterrupted chain byte for byte"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `rec` as the commit before this encoder wrote it: an `epoch` with the
/// streak of a trainer that never stopped early (0, previous return NaN),
/// a `replan_meta` with the starting plan's cost `cost0`.
fn in_parent_format(mut rec: Record, cost0: f64) -> Record {
    let Value::Object(members) = &mut rec.body else {
        panic!("a record body is an object");
    };
    match rec.kind.as_str() {
        "epoch" => {
            let at = 1 + members.iter().position(|(k, _)| k == "next_epoch").unwrap();
            let nan = Value::Str(f64_to_hex(f64::NAN));
            members.insert(at, ("converged_run".to_string(), Value::Num(0.0)));
            members.insert(at + 1, ("prev_return".to_string(), nan));
        }
        "replan_meta" => members.push(("cost0".to_string(), Value::Str(f64_to_hex(cost0)))),
        _ => {}
    }
    rec
}

/// Chains the parent wrote, cut where a kill would cut them, resume to
/// the uninterrupted run's plan: a plan chain after two epochs, and a
/// replan chain after its first event.
#[test]
fn chains_in_the_parent_format_still_resume() {
    assert_eq!(
        decoded::<EpochRecord>("parent-epoch", PARENT_EPOCH),
        format!("{:?}", epoch())
    );
    assert_eq!(
        decoded::<ReplanMeta>("parent-replan-meta", PARENT_REPLAN_META),
        format!("{:?}", replan_meta())
    );

    let dir = tmp("parent-format");
    let net = GeneratorConfig::a_variant(0.5).generate();
    let tel = Telemetry::memory();
    // Small budgets, field by field: at 128-step epochs the losing policy
    // trains 3 epochs before the greedy stop, so a chain cut after epoch
    // 1 leaves two to resume.
    let mut cfg = NeuroPlanConfig::quick().with_seed(5);
    cfg.train.epochs = 5;
    cfg.train.steps_per_epoch = 128;
    cfg.train.max_traj_len = 96;
    cfg.mip_node_limit = 250;
    cfg.mip_time_limit_secs = 10.0;
    cfg.final_rollouts = 2;
    let planner = |ckpt: &Path| {
        NeuroPlan::with_telemetry(cfg.clone(), tel.clone()).with_checkpoint(ckpt, true)
    };
    let events = np_churn::generate_stream(&net, 5, 3);
    let rcfg = ReplanConfig::default();
    let clean_dir = dir.join("clean");
    let clean = planner(&clean_dir)
        .replan(&net, &events, &rcfg)
        .expect("uninterrupted");
    let epochs = tel.counter("rl", "epochs");
    assert!(epochs > 2, "{epochs} epochs leave nothing to resume");
    // The chains as the parent wrote them.
    let parent = |name: &str, keep: usize| -> Vec<Record> {
        let records = Chain::new(&clean_dir.join(name), &Chaos::disabled()).read();
        let parent = records
            .into_iter()
            .map(|r| in_parent_format(r, clean.initial_cost));
        parent.take(keep).collect()
    };
    let write = |dir: &Path, name: &str, records: Vec<Record>| {
        std::fs::create_dir_all(dir).unwrap();
        Chain::new(&dir.join(name), &Chaos::disabled())
            .restart(records)
            .unwrap();
    };

    // Killed after epoch 1: the resume trains the remaining epochs only.
    let plan_dir = dir.join("plan");
    write(&plan_dir, "checkpoint.jsonl", parent("checkpoint.jsonl", 3));
    let before = tel.counter("rl", "epochs");
    let resumed = planner(&plan_dir).try_plan(&net).expect("resumed plan");
    assert_eq!(tel.counter("rl", "epochs") - before, epochs - 2);
    let first = planner(&clean_dir).try_plan(&net).expect("finished chain");
    assert_eq!(resumed.final_units, first.final_units);
    assert_eq!(resumed.final_cost.to_bits(), first.final_cost.to_bits());

    // Killed after event 0: the resume restores it and solves the rest.
    let replan_dir = dir.join("replan");
    write(
        &replan_dir,
        "checkpoint.jsonl",
        parent("checkpoint.jsonl", usize::MAX),
    );
    write(&replan_dir, "replan.jsonl", parent("replan.jsonl", 2));
    let got = planner(&replan_dir)
        .replan(&net, &events, &rcfg)
        .expect("resumed stream");
    assert_eq!(got.resumed, 1, "the parent's event record was continued");
    assert_eq!(got.initial_cost.to_bits(), clean.initial_cost.to_bits());
    assert_eq!(got.final_units, clean.final_units);
    assert_eq!(got.final_cost.to_bits(), clean.final_cost.to_bits());
    let _ = std::fs::remove_dir_all(&dir);
}
