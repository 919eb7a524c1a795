//! Chaos: kill + corrupt + resume. A run is killed at a *virtual-time*
//! deadline (deterministic — backoff is virtual, no wall clock), its
//! checkpoint has a bit flipped in the tail, and the lenient loader's
//! salvaged prefix must still satisfy invariant I7: the resumed run
//! converges to the clean output and never re-pays a salvaged pair.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::time::Duration;

use prox_algos::{prim_mst, try_prim_mst};
use prox_bounds::{BoundResolver, DistanceResolver, TriScheme};
use prox_core::{
    read_checkpoint_file, read_checkpoint_file_lenient, write_checkpoint_file, CallBudget,
    FaultInjector, FnMetric, Metric, ObjectId, Oracle, OracleError, Pair, RetryPolicy, TinyRng,
};
use prox_datasets::testgen::random_points;
use prox_datasets::EuclideanPoints;

/// A metric that records every pair it is asked about, for proving which
/// pairs a run actually paid for.
fn recording_metric(
    pts: Vec<(f64, f64)>,
    log: &RefCell<Vec<Pair>>,
) -> FnMetric<impl Fn(ObjectId, ObjectId) -> f64 + '_> {
    let inner = EuclideanPoints::new(pts);
    let n = inner.len();
    let max = inner.max_distance();
    FnMetric::new(n, max, move |a, b| {
        log.borrow_mut().push(Pair::new(a, b));
        #[expect(clippy::disallowed_methods, reason = "this is the metric")]
        inner.distance(a, b)
    })
}

#[test]
fn killed_run_with_bit_flipped_checkpoint_still_resumes_exactly() {
    let pts = random_points(&mut TinyRng::new(0xC4405), 40);
    let n = pts.len();

    // Ground truth: the clean, unlimited run, with its unique-pair set.
    let clean_log = RefCell::new(Vec::new());
    let clean_oracle = Oracle::new(recording_metric(pts.clone(), &clean_log));
    let mut clean_r = BoundResolver::new(&clean_oracle, TriScheme::new(n, 1.0));
    let clean_mst = prim_mst(&mut clean_r);
    let clean_pairs: BTreeSet<Pair> = clean_log.borrow().iter().copied().collect();

    // Phase 1: the same problem under transient faults dies at a virtual
    // deadline. Backoff is the only virtual-time source, so the kill
    // point — and therefore the checkpoint contents — is deterministic.
    let metric = EuclideanPoints::new(pts.clone());
    let oracle = Oracle::new(&metric)
        .with_faults(FaultInjector::new(0.15, 0xFA21))
        .with_retry(RetryPolicy::standard(8))
        .with_budget(CallBudget::unlimited().with_deadline(Duration::from_secs(12)));
    let mut killed_r = BoundResolver::new(&oracle, TriScheme::new(n, 1.0));
    match try_prim_mst(&mut killed_r) {
        Err(OracleError::BudgetExhausted { .. }) => {}
        other => panic!("the virtual deadline must kill this run, got {other:?}"),
    }
    let mut known = Vec::new();
    killed_r.export_known(&mut known);
    assert!(
        known.len() > 64,
        "kill point must leave at least one full CRC block ({} lines)",
        known.len()
    );

    // Durable checkpoint, then chaos: flip one bit in the file's tail.
    let dir = std::env::temp_dir().join(format!("prox-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("run.ckpt");
    let manifest = vec![("algo".to_string(), "prim".to_string())];
    write_checkpoint_file(&path, &manifest, known.iter().copied()).expect("write checkpoint");
    let mut bytes = std::fs::read(&path).expect("read back");
    let hit = bytes.len() - 9;
    bytes[hit] ^= 0x10; // keeps the byte ASCII; the CRC catches it regardless
    std::fs::write(&path, &bytes).expect("rewrite damaged");

    // Strict read refuses the damaged file; lenient recovery salvages
    // every CRC-verified block before the flipped tail.
    read_checkpoint_file(&path).expect_err("strict read must refuse a flipped bit");
    let rec = read_checkpoint_file_lenient(&path).expect("lenient recovery");
    assert!(rec.recovered, "damage must be reported, not hidden");
    assert!(rec.dropped_lines > 0, "the flipped tail must be dropped");
    assert_eq!(rec.checkpoint.manifest_value("algo"), Some("prim"));
    let salvaged = rec.checkpoint.known;
    assert!(!salvaged.is_empty(), "verified prefix must survive");
    for &(p, d) in &salvaged {
        assert!(
            known
                .iter()
                .any(|&(q, e)| q == p && e.to_bits() == d.to_bits()),
            "salvage invented knowledge for {p:?}"
        );
    }

    // Phase 2: resume from the salvaged prefix. I7 under damage:
    // identical output, zero salvaged pairs re-paid, and the re-run pays
    // exactly the clean set minus the salvage (dropped lines re-paid).
    let resume_log = RefCell::new(Vec::new());
    let resume_oracle = Oracle::new(recording_metric(pts, &resume_log));
    let mut resume_r = BoundResolver::new(&resume_oracle, TriScheme::new(n, 1.0));
    for &(p, d) in &salvaged {
        resume_r.preload(p, d);
    }
    let resumed_mst = try_prim_mst(&mut resume_r).expect("clean resume cannot fault");
    assert_eq!(resumed_mst.edge_keys(), clean_mst.edge_keys());
    assert_eq!(
        resumed_mst.total_weight.to_bits(),
        clean_mst.total_weight.to_bits()
    );

    let salvaged_pairs: BTreeSet<Pair> = salvaged.iter().map(|&(p, _)| p).collect();
    let resumed_pairs: BTreeSet<Pair> = resume_log.borrow().iter().copied().collect();
    assert!(
        resumed_pairs.is_disjoint(&salvaged_pairs),
        "resume re-paid salvaged pairs: {:?}",
        resumed_pairs
            .intersection(&salvaged_pairs)
            .collect::<Vec<_>>()
    );
    let union: BTreeSet<Pair> = resumed_pairs.union(&salvaged_pairs).copied().collect();
    assert_eq!(union, clean_pairs, "salvaged + resumed = clean, exactly");
    assert_eq!(
        resume_oracle.calls() as usize,
        clean_pairs.len() - salvaged_pairs.len(),
        "resume pays only what the flip destroyed plus what was never resolved"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damage_in_the_first_crc_block_salvages_nothing_and_cold_resume_stays_exact() {
    use prox_core::checkpoint::CRC_BLOCK_LINES;

    let pts = random_points(&mut TinyRng::new(0xC4406), 40);
    let n = pts.len();

    // Clean ground truth, its unique-pair bill, and a full checkpoint
    // spanning several CRC blocks (so a *later*-block flip would have
    // salvaged plenty — the point here is that a first-block flip must
    // not salvage anything at all).
    let clean_log = RefCell::new(Vec::new());
    let clean_oracle = Oracle::new(recording_metric(pts.clone(), &clean_log));
    let mut clean_r = BoundResolver::new(&clean_oracle, TriScheme::new(n, 1.0));
    let clean_mst = prim_mst(&mut clean_r);
    let clean_pairs: BTreeSet<Pair> = clean_log.borrow().iter().copied().collect();
    let mut known = Vec::new();
    clean_r.export_known(&mut known);
    assert!(
        known.len() > 2 * CRC_BLOCK_LINES,
        "need multiple CRC blocks, got {} lines",
        known.len()
    );

    let dir = std::env::temp_dir().join(format!("prox-chaos-first-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("run.ckpt");
    let manifest = vec![("algo".to_string(), "prim".to_string())];
    write_checkpoint_file(&path, &manifest, known.iter().copied()).expect("write checkpoint");

    // Chaos: flip one bit in the *first data line* — inside the first CRC
    // block, before any rolling marker has committed a trusted prefix.
    let text = std::fs::read_to_string(&path).expect("read back");
    let first_data = text
        .split_inclusive('\n')
        .scan(0usize, |off, line| {
            let at = *off;
            *off += line.len();
            Some((at, line))
        })
        .find(|(_, line)| !line.trim_start().starts_with('#') && !line.trim().is_empty())
        .map(|(at, _)| at)
        .expect("checkpoint has data lines");
    let mut bytes = text.into_bytes();
    bytes[first_data] ^= 0x01; // digit stays a digit; the CRC still catches it
    std::fs::write(&path, &bytes).expect("rewrite damaged");

    // Strict load refuses, and lenient salvage yields the empty prefix:
    // with no verified rolling marker there is nothing it may trust, so
    // it refuses rather than inventing knowledge.
    read_checkpoint_file(&path).expect_err("strict read must refuse the flip");
    let err = read_checkpoint_file_lenient(&path).expect_err("nothing is salvageable");
    assert!(
        err.to_string().contains("no CRC-verifiable prefix"),
        "got {err}"
    );

    // Resume is therefore cold — and I7 still holds trivially: the rerun
    // produces the clean output and re-pays exactly the clean bill.
    let resume_log = RefCell::new(Vec::new());
    let resume_oracle = Oracle::new(recording_metric(pts, &resume_log));
    let mut resume_r = BoundResolver::new(&resume_oracle, TriScheme::new(n, 1.0));
    let resumed_mst = try_prim_mst(&mut resume_r).expect("cold resume cannot fault");
    assert_eq!(resumed_mst.edge_keys(), clean_mst.edge_keys());
    assert_eq!(
        resumed_mst.total_weight.to_bits(),
        clean_mst.total_weight.to_bits()
    );
    let resumed_pairs: BTreeSet<Pair> = resume_log.borrow().iter().copied().collect();
    assert_eq!(
        resumed_pairs, clean_pairs,
        "cold rerun = clean run, exactly"
    );
    assert_eq!(resume_oracle.calls() as usize, clean_pairs.len());

    std::fs::remove_dir_all(&dir).ok();
}
