//! The functional pipeline is the oracle of the analytic fast path.
//!
//! Tile level: for every characterized format, backend and partition size,
//! the [`TileCost`] the tile scan computes from counts alone must equal the
//! one read off a real encode → decompress pass, field by field, and so
//! must the [`PartitionTiming`] every backend derives from it. The random
//! tiles arrive unsorted and include edge tiles (entries confined to a
//! corner), empty rows and columns, full tiles, and partition sizes that
//! `bcsr_block` does not divide. Tiles with duplicate coordinates or
//! stored zeros must be refused by the scan, so the pipeline prices them
//! functionally.
//!
//! Run level: over the same grid, a session with functional verification
//! on (always the functional path) must report exactly what a session with
//! it off (the fast path) reports — plain, traced, and with lanes.
//!
//! Memo level: a session scans each tile of a grid once and reuses the
//! counts for every later format on that grid. A warm session must report
//! exactly what a fresh one does — across grid switches, re-tiled matrix
//! inputs, backend overrides, lanes runs, and after a cancelled or failed
//! run — and tiles the scan refuses must reach the encoder on every format.

use copernicus_hls::{
    backend_for, decompress_with, BackendKind, EncodeScratch, EncodedPartition, HwConfig,
    PartitionTiming, PlatformError, RunOutcome, RunRequest, Session, TileCost,
};
use copernicus_telemetry::{
    CancelToken, Phase, PhaseProfiler, PipelineEvent, RecordingSink, TraceSink,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sparsemat::{Coo, FormatKind, PartitionGrid, Triplet};
use std::collections::HashSet;
use std::sync::Arc;

const SIZES: [usize; 6] = [1, 6, 8, 16, 17, 32];

fn config(p: usize, block: usize, verify: bool) -> HwConfig {
    HwConfig {
        partition_size: p,
        bcsr_block: block.min(p),
        verify_functional: verify,
        ..HwConfig::default()
    }
}

/// A non-zero value; integral so duplicate sums are exact.
fn value(rng: &mut SmallRng) -> f32 {
    let v = rng.gen_range(1..=9) as f32;
    if rng.gen_bool(0.5) {
        -v
    } else {
        v
    }
}

/// Fisher–Yates, so tiles never arrive in row-major order by accident.
fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// A clean random `p×p` tile: distinct coordinates, non-zero values,
/// shuffled. The shape of the occupied region varies per call.
fn clean_tile(p: usize, rng: &mut SmallRng) -> Coo<f32> {
    // Occupied region: the whole tile, a corner (an edge tile of a matrix
    // whose size p does not divide), one row, or one column.
    let (rows, cols) = match rng.gen_range(0..4) {
        0 => (p, p),
        1 => (rng.gen_range(1..=p), rng.gen_range(1..=p)),
        2 => (1, p),
        _ => (p, 1),
    };
    let density = [0.05, 0.2, 0.6, 1.0][rng.gen_range(0..4usize)];
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if rng.gen_bool(density) {
                cells.push((r, c));
            }
        }
    }
    if cells.is_empty() {
        cells.push((rng.gen_range(0..rows), rng.gen_range(0..cols)));
    }
    // Flip the region to the other corner half the time.
    if rng.gen_bool(0.5) {
        for cell in &mut cells {
            *cell = (p - 1 - cell.0, p - 1 - cell.1);
        }
    }
    shuffle(&mut cells, rng);
    let triplets = cells
        .into_iter()
        .map(|(r, c)| Triplet::new(r, c, value(rng)))
        .collect();
    Coo::from_triplets(p, p, triplets).expect("in range")
}

/// The functional pass over one tile: its cost and every backend's timing.
fn functional(
    tile: &Coo<f32>,
    kind: FormatKind,
    cfg: &HwConfig,
    scratch: &mut EncodeScratch,
) -> (TileCost, Vec<PartitionTiming>) {
    let e = EncodedPartition::encode_with(tile, kind, cfg, scratch).expect("encode");
    let d = decompress_with(&e, cfg, scratch);
    let cost = TileCost::functional(&e, &d, cfg);
    let timings = BackendKind::ALL
        .iter()
        .map(|&b| backend_for(b).partition_timing(&e, &d, cfg))
        .collect();
    scratch.recycle_decompression(d);
    scratch.recycle_encoded(e);
    (cost, timings)
}

#[test]
fn tile_scan_matches_the_functional_pass_field_by_field() {
    let mut rng = SmallRng::seed_from_u64(0x0a11_71c5);
    let (mut fast, mut slow) = (EncodeScratch::new(), EncodeScratch::new());
    for p in SIZES {
        for block in [4, 3] {
            let cfg = config(p, block, false);
            for _ in 0..24 {
                let tile = clean_tile(p, &mut rng);
                for kind in FormatKind::CHARACTERIZED {
                    let cost = TileCost::from_tile(&tile, kind, &cfg, &mut fast)
                        .unwrap_or_else(|| panic!("{kind} p={p}: clean tile refused"));
                    let (oracle, timings) = functional(&tile, kind, &cfg, &mut slow);
                    assert_eq!(cost, oracle, "{kind} p={p} b={}", cfg.bcsr_block);
                    for (b, timing) in BackendKind::ALL.iter().zip(&timings) {
                        assert_eq!(
                            &backend_for(*b).tile_timing(&cost, &cfg),
                            timing,
                            "{kind}/{b} p={p} b={}",
                            cfg.bcsr_block
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn empty_tiles_match_too() {
    // Grids never hold empty tiles, but the closed forms cover them.
    let mut scratch = EncodeScratch::new();
    for p in SIZES {
        let cfg = config(p, 4, false);
        let tile = Coo::new(p, p);
        for kind in FormatKind::CHARACTERIZED {
            let cost = TileCost::from_tile(&tile, kind, &cfg, &mut scratch).expect("empty tile");
            assert_eq!(
                cost,
                functional(&tile, kind, &cfg, &mut scratch).0,
                "{kind} p={p}"
            );
        }
    }
}

#[test]
fn tiles_needing_a_merge_are_refused() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut scratch = EncodeScratch::new();
    let cfg = config(16, 4, false);
    for case in 0..32 {
        let tile = clean_tile(16, &mut rng);
        let mut triplets: Vec<Triplet<f32>> = tile.iter().copied().collect();
        let t = triplets[rng.gen_range(0..triplets.len())];
        match case % 3 {
            // A repeated coordinate whose values add up.
            0 => triplets.push(Triplet::new(t.row, t.col, value(&mut rng))),
            // A pair that cancels to zero, dropping the entry on merge.
            1 => triplets.push(Triplet::new(t.row, t.col, -t.val)),
            // A stored zero (only `from_triplets` admits one).
            _ => triplets.push(Triplet::new(t.row, t.col, 0.0)),
        }
        shuffle(&mut triplets, &mut rng);
        let dup = Coo::from_triplets(16, 16, triplets).expect("in range");
        for kind in FormatKind::CHARACTERIZED {
            assert_eq!(
                TileCost::from_tile(&dup, kind, &cfg, &mut scratch),
                None,
                "{kind}: case {case} must take the functional path"
            );
        }
    }
    // A tile of another shape than the configured partition, and formats
    // the platform does not characterize, are refused as well.
    let tile = clean_tile(8, &mut rng);
    assert_eq!(
        TileCost::from_tile(&tile, FormatKind::Csr, &cfg, &mut scratch),
        None
    );
    let tile = clean_tile(16, &mut rng);
    for kind in [FormatKind::Sell, FormatKind::Jds, FormatKind::Bcsc] {
        assert_eq!(TileCost::from_tile(&tile, kind, &cfg, &mut scratch), None);
    }
}

/// A random `n×n` matrix (edge tiles when `p` does not divide `n`); with
/// `dups`, some coordinates repeat, a few of them cancelling to zero.
fn matrix(n: usize, dups: bool, rng: &mut SmallRng) -> Vec<Triplet<f32>> {
    let mut triplets = Vec::new();
    for r in 0..n {
        for c in 0..n {
            if r == c || rng.gen_bool(0.15) {
                triplets.push(Triplet::new(r, c, value(rng)));
            }
        }
    }
    if dups {
        for i in 0..=triplets.len() / 10 {
            let t = triplets[rng.gen_range(0..triplets.len())];
            let v = if i % 2 == 0 { -t.val } else { value(rng) };
            triplets.push(Triplet::new(t.row, t.col, v));
        }
    }
    shuffle(&mut triplets, rng);
    triplets
}

#[test]
fn whole_runs_agree_with_verification_on_and_off() {
    let mut rng = SmallRng::seed_from_u64(0x05e5_510f);
    for p in SIZES {
        for dups in [false, true] {
            let n = 3 * p + p / 2 + 1;
            let grid =
                PartitionGrid::from_triplets(n, n, matrix(n, dups, &mut rng), p).expect("tiling");
            for backend in BackendKind::ALL {
                let oracle_cfg = HwConfig {
                    backend,
                    ..config(p, 4, true)
                };
                let fast_cfg = HwConfig {
                    verify_functional: false,
                    ..oracle_cfg.clone()
                };
                let mut oracle = Session::new(oracle_cfg).expect("config");
                // Tile workers are ignored by the fast path; the outputs
                // must not notice.
                let profiler = Arc::new(PhaseProfiler::new());
                let mut fast = Session::new(fast_cfg)
                    .expect("config")
                    .with_tile_jobs(3)
                    .with_profiler(Arc::clone(&profiler));
                for kind in FormatKind::CHARACTERIZED {
                    let what = format!("{kind}/{backend} p={p} dups={dups}");
                    let (mut a, mut b) = (RecordingSink::new(), RecordingSink::new());
                    let want = oracle
                        .run(RunRequest::grid(&grid, kind).with_sink(&mut a))
                        .expect("oracle run");
                    let got = fast
                        .run(RunRequest::grid(&grid, kind).with_sink(&mut b))
                        .expect("fast run");
                    assert_eq!(got, want, "{what}");
                    assert_eq!(b.events, a.events, "{what}: trace");
                    let lanes = |s: &mut Session| {
                        s.run(RunRequest::grid(&grid, kind).with_lanes(3))
                            .expect("lanes run")
                            .parallel
                    };
                    assert_eq!(lanes(&mut fast), lanes(&mut oracle), "{what}: lanes");
                }
                // Only tiles the scan refuses are encoded: a clean grid
                // never reaches the encoder, a grid with duplicates does.
                assert_eq!(
                    profiler.histogram(Phase::Encode).is_some(),
                    dups,
                    "p={p} backend={backend}: fallback routing"
                );
            }
        }
    }
}

/// What a fresh session on `cfg`, costed on `backend`, reports for
/// `request`.
fn fresh(cfg: &HwConfig, backend: BackendKind, request: RunRequest<'_>) -> RunOutcome {
    let cfg = HwConfig {
        backend,
        ..cfg.clone()
    };
    Session::new(cfg)
        .expect("config")
        .run(request)
        .expect("fresh run")
}

fn grid(n: usize, p: usize, dups: bool, rng: &mut SmallRng) -> PartitionGrid<f32> {
    PartitionGrid::from_triplets(n, n, matrix(n, dups, rng), p).expect("tiling")
}

#[test]
fn memoized_sweeps_match_fresh_sessions_across_grids() {
    let mut rng = SmallRng::seed_from_u64(0x3e30_0001);
    let (p, n) = (16, 3 * 16 + 5);
    let cfg = config(p, 4, false);
    // Grid A mixes refused (duplicate) tiles with clean ones; B has as
    // many tiles but other counts; the matrix input is re-tiled into a
    // new grid on every run.
    let a = grid(n, p, true, &mut rng);
    let b = grid(n, p, false, &mut rng);
    let m = Coo::from_triplets(n, n, matrix(n, true, &mut rng)).expect("in range");
    let mut warm = Session::new(cfg.clone()).expect("config");
    for (name, g) in [
        ("A", Some(&a)),
        ("matrix", None),
        ("B", Some(&b)),
        ("A again", Some(&a)),
    ] {
        for backend in BackendKind::ALL {
            for kind in FormatKind::CHARACTERIZED {
                let request = || match g {
                    Some(g) => RunRequest::grid(g, kind),
                    None => RunRequest::matrix(&m, kind),
                };
                let got = warm.run(request().backend(backend)).expect("warm run");
                assert_eq!(
                    got,
                    fresh(&cfg, backend, request()),
                    "{name}: {kind}/{backend}"
                );
            }
        }
    }
}

#[test]
fn lanes_runs_on_a_memoized_grid_match_a_fresh_session() {
    let mut rng = SmallRng::seed_from_u64(0x3e30_0002);
    let cfg = config(8, 3, false);
    let g = grid(45, 8, true, &mut rng);
    let mut warm = Session::new(cfg.clone()).expect("config");
    for kind in FormatKind::CHARACTERIZED {
        warm.run(RunRequest::grid(&g, kind)).expect("warm run");
    }
    for kind in FormatKind::CHARACTERIZED {
        let got = warm
            .run(RunRequest::grid(&g, kind).with_lanes(4))
            .expect("lanes run");
        let want = fresh(&cfg, cfg.backend, RunRequest::grid(&g, kind).with_lanes(4));
        assert_eq!(got, want, "{kind}: lanes");
    }
}

/// Cancels `token` once `tiles` partitions have been traced, so the run
/// stops at the next per-partition poll.
struct CancelAfter {
    token: CancelToken,
    tiles: usize,
}

impl TraceSink for CancelAfter {
    fn record(&mut self, event: &PipelineEvent) {
        if let PipelineEvent::PartitionStart { .. } = event {
            self.tiles = self.tiles.saturating_sub(1);
            if self.tiles == 0 {
                self.token.cancel();
            }
        }
    }
}

#[test]
fn cancelled_and_failed_runs_leave_a_memo_the_next_run_extends() {
    let mut rng = SmallRng::seed_from_u64(0x3e30_0003);
    let cfg = config(16, 4, false);
    let g = grid(3 * 16 + 5, 16, true, &mut rng);
    assert!(g.nonzero_tiles() > 3);
    let token = CancelToken::new();
    let mut warm = Session::new(cfg.clone())
        .expect("config")
        .with_cancel(token.clone());
    let mut sink = CancelAfter { token, tiles: 3 };
    let cancelled = warm.run(RunRequest::grid(&g, FormatKind::Csr).with_sink(&mut sink));
    assert!(
        matches!(cancelled, Err(PlatformError::Cancelled)),
        "{cancelled:?}"
    );
    warm.set_cancel(None);
    // A format the platform does not characterize fails the run.
    assert!(warm.run(RunRequest::grid(&g, FormatKind::Sell)).is_err());
    for kind in FormatKind::CHARACTERIZED {
        let got = warm.run(RunRequest::grid(&g, kind)).expect("rerun");
        assert_eq!(
            got,
            fresh(&cfg, cfg.backend, RunRequest::grid(&g, kind)),
            "{kind}"
        );
    }
}

#[test]
fn refused_tiles_reach_the_encoder_on_every_format() {
    let mut rng = SmallRng::seed_from_u64(0x3e30_0004);
    let (p, n) = (8, 40);
    // A clean matrix with a few repeated coordinates: most tiles are
    // clean, the ones holding a repeat are refused by the scan.
    let mut triplets = matrix(n, false, &mut rng);
    for _ in 0..4 {
        let t = triplets[rng.gen_range(0..triplets.len())];
        triplets.push(Triplet::new(t.row, t.col, value(&mut rng)));
    }
    let g = PartitionGrid::from_triplets(n, n, triplets, p).expect("tiling");
    let refused = g
        .partitions()
        .iter()
        .filter(|part| {
            let mut seen = HashSet::new();
            part.coo.iter().any(|t| !seen.insert((t.row, t.col)))
        })
        .count() as u64;
    assert!(refused > 0 && (refused as usize) < g.nonzero_tiles());
    let profiler = Arc::new(PhaseProfiler::new());
    let mut warm = Session::new(config(p, 4, false))
        .expect("config")
        .with_profiler(Arc::clone(&profiler));
    let formats = FormatKind::CHARACTERIZED.len() as u64;
    for kind in FormatKind::CHARACTERIZED {
        warm.run(RunRequest::grid(&g, kind)).expect("run");
    }
    assert_eq!(profiler.laps(Phase::Encode), refused * formats);
}
