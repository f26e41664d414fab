//! The traced decomposition shared by every workload: warm-up, cache,
//! campaign, per-cell session and tile replay, aggregation and the
//! observability-overhead comparisons, each timed around the public call
//! that enters its layer.
//!
//! The traced campaigns run on one-worker runners, so the per-cell spans
//! add up to the campaign span and `campaign.overhead_s` is a plain
//! difference.

use crate::replay::{CellTotals, Replayer};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::Metrics;
use copernicus::experiments::{fig07, fig08, fig09, fig12};
use copernicus::{
    insights, normalized_summary, CachedGrid, CampaignRunner, ExperimentConfig, Instruments,
    Measurement,
};
use copernicus_hls::{HwConfig, RunRequest, Session};
use copernicus_telemetry::{ChromeTraceWriter, MetricsRegistry, Phase, PhaseProfiler};
use copernicus_workloads::Workload;
use sparsemat::{FormatKind, Matrix};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One `workloads × partition sizes × formats` campaign under one config.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub workloads: Vec<Workload>,
    pub formats: Vec<FormatKind>,
    pub partition_sizes: Vec<usize>,
    pub cfg: ExperimentConfig,
}

impl Campaign {
    pub fn cells(&self) -> usize {
        self.workloads.len() * self.partition_sizes.len() * self.formats.len()
    }

    /// The `(workload, p)` units in the runner's grid order.
    pub fn units(&self) -> impl Iterator<Item = (&Workload, usize)> + '_ {
        self.workloads
            .iter()
            .flat_map(|w| self.partition_sizes.iter().map(move |&p| (w, p)))
    }

    /// Runs the campaign on `runner` and returns its outcome.
    pub fn run(
        &self,
        runner: &CampaignRunner,
        instruments: &mut Instruments<'_>,
    ) -> Result<copernicus::CampaignOutcome, String> {
        runner
            .run_campaign(
                &self.workloads,
                &self.formats,
                &self.partition_sizes,
                &self.cfg,
                instruments,
            )
            .map_err(|e| format!("campaign failed: {e}"))
    }
}

/// Generates and tiles every unit of `campaigns` into `runner`'s workload
/// cache, keyed exactly as the runner looks them up (`cfg.suite_max_dim`).
pub fn warm(runner: &CampaignRunner, campaigns: &[Campaign]) -> Result<(), String> {
    for c in campaigns {
        for (w, p) in c.units() {
            runner
                .workloads()
                .grid(w, p, c.cfg.suite_max_dim, c.cfg.seed)
                .map_err(|e| format!("tiling {} at p={p}: {e}", w.label()))?;
        }
    }
    Ok(())
}

/// Tiles the campaigns stream through the platform (tiles × formats), from
/// `runner`'s warm cache.
pub fn tile_runs(runner: &CampaignRunner, campaigns: &[Campaign]) -> Result<u64, String> {
    let mut runs = 0u64;
    for c in campaigns {
        for (w, p) in c.units() {
            let g = runner
                .workloads()
                .grid(w, p, c.cfg.suite_max_dim, c.cfg.seed)
                .map_err(|e| format!("tiling {} at p={p}: {e}", w.label()))?;
            runs += (g.grid.partitions().len() * c.formats.len()) as u64;
        }
    }
    Ok(runs)
}

/// The experiments-layer aggregators of the paper's figures.
pub fn aggregate(ms: &[Measurement]) -> usize {
    let rows = fig07::aggregate(ms).len()
        + fig08::rows_from(ms).len()
        + fig09::from_measurements(ms).len()
        + fig12::aggregate(ms).len()
        + normalized_summary(ms).len()
        + insights::verify(ms).len();
    std::hint::black_box(rows)
}

/// What the traced decomposition produced besides its metrics.
pub struct Traced {
    pub measurements: Vec<Measurement>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Runs the traced decomposition over `groups`: each group of campaigns
/// shares one fresh one-worker runner (a grid workload is one group; a
/// served request is a group of its own, like the daemon's per-request
/// runner). Adds every layer metric except the `serve.*` ones to `out`.
pub fn decompose(
    tracer: &mut Tracer,
    groups: &[Vec<Campaign>],
    run_dir: &Path,
    out: &mut Metrics,
) -> Result<Traced, String> {
    let registry = MetricsRegistry::new();
    let profiler = Arc::new(PhaseProfiler::new());
    let mut traced = Traced {
        measurements: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let (mut nnz, mut tiles_built) = (0u64, 0u64);
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut resident_bytes = 0u64;
    let mut replayer = Replayer::new();
    let mut replayed = CellTotals::default();
    let mut cell_session = Vec::new();
    let mut cell_self = Vec::new();
    let mut cell_id = 0u64;
    let mut trace_budget = TRACE_TILE_BUDGET;
    let mut bounded: Vec<Vec<Campaign>> = Vec::new();

    for (gi, group) in groups.iter().enumerate() {
        let gid = gi as u64;
        let runner = CampaignRunner::sequential();
        let cache = runner.workloads();
        // Set-up: generation and tiling, each timed on its own.
        let mut grids: BTreeMap<String, Arc<CachedGrid>> = BTreeMap::new();
        let mut generated = BTreeSet::new();
        for c in group {
            let (cap, seed) = (c.cfg.suite_max_dim, c.cfg.seed);
            for (w, p) in c.units() {
                let key = format!("{}|p={p}", w.cache_key(cap, seed));
                if grids.contains_key(&key) {
                    continue;
                }
                if generated.insert(w.cache_key(cap, seed)) {
                    let m = tracer.time("workloads.generate", gid, || cache.matrix(w, cap, seed));
                    nnz += m.nnz() as u64;
                }
                let g = tracer
                    .time("sparsemat.partition", gid, || cache.grid(w, p, cap, seed))
                    .map_err(|e| format!("tiling {} at p={p}: {e}", w.label()))?;
                tiles_built += g.grid.partitions().len() as u64;
                grids.insert(key, g);
            }
        }
        // The memory-bounded share of this group for the Chrome-trace
        // comparison: whole workloads, in order, while they fit the budget.
        let mut kept = Vec::new();
        for c in group {
            let runs = |w: &Workload| -> u64 {
                let tiles: usize = c
                    .partition_sizes
                    .iter()
                    .map(|p| {
                        let key = format!("{}|p={p}", w.cache_key(c.cfg.suite_max_dim, c.cfg.seed));
                        grids[&key].grid.partitions().len()
                    })
                    .sum();
                (tiles * c.formats.len()) as u64
            };
            let workloads: Vec<Workload> = c
                .workloads
                .iter()
                .filter(|w| {
                    let r = runs(w);
                    let fits = r <= trace_budget;
                    if fits {
                        trace_budget -= r;
                    }
                    fits
                })
                .copied()
                .collect();
            if !workloads.is_empty() {
                kept.push(Campaign {
                    workloads,
                    ..c.clone()
                });
            }
        }
        if !kept.is_empty() {
            bounded.push(kept);
        }
        // One warm lookup per unit, as the runner makes inside a campaign.
        for c in group {
            for (w, p) in c.units() {
                tracer
                    .time("cache.lookup", gid, || {
                        cache.grid(w, p, c.cfg.suite_max_dim, c.cfg.seed)
                    })
                    .map_err(|e| format!("lookup: {e}"))?;
            }
        }
        // The campaign itself, with the in-program metrics and profiler.
        let first = traced.measurements.len();
        for c in group {
            let before = cache.stats();
            let span = tracer.begin("campaign.run", gid);
            let outcome = c.run(
                &runner,
                &mut Instruments::none()
                    .with_metrics(&registry)
                    .with_profiler(Arc::clone(&profiler)),
            );
            tracer.end(span);
            let after = cache.stats();
            hits += after.grid_hits - before.grid_hits;
            misses += after.grid_misses - before.grid_misses;
            let outcome = outcome?;
            traced.attempted += c.cells() as u64;
            traced.failed += outcome.failures.len() as u64;
            traced.measurements.extend(outcome.measurements);
        }
        resident_bytes = resident_bytes.max(cache.stats().resident_bytes);
        // Per cell: the real session run, then the tile-level replay.
        let mut k = first;
        for c in group {
            for (w, p) in c.units() {
                let hw = HwConfig {
                    partition_size: p,
                    ..c.cfg.hw.clone()
                };
                let mut session = Session::new(hw.clone()).map_err(|e| e.to_string())?;
                let key = format!("{}|p={p}", w.cache_key(c.cfg.suite_max_dim, c.cfg.seed));
                let g = &grids[&key];
                for &format in &c.formats {
                    let cell = tracer.begin("cell", cell_id);
                    let run = tracer.begin("hls.session_run", cell_id);
                    let report = session.run(RunRequest::grid(&g.grid, format));
                    let session_s = tracer.end(run);
                    let report = report.map_err(|e| format!("session run: {e}"))?.report;
                    let tile = tracer.begin("hls.tile_replay", cell_id);
                    let before = tracer.spans().len();
                    let totals = replayer.replay_cell(tracer, cell_id, &g.grid, format, &hw)?;
                    let phases: f64 = tracer.spans()[before..].iter().map(|s| s.secs()).sum();
                    tracer.end(tile);
                    tracer.end(cell);
                    let Some(m) = traced.measurements.get(k) else {
                        return Err("campaign returned fewer cells than its grid".into());
                    };
                    if m.report != report || m.format != format || m.partition_size != p {
                        traced.problems.push(format!(
                            "cell {} {format} p={p}: session report differs from the campaign's",
                            w.label()
                        ));
                    }
                    if let Err(e) = totals.matches(&report) {
                        traced
                            .problems
                            .push(format!("cell {} {format} p={p}: {e}", w.label()));
                    }
                    replayed.add(&totals);
                    cell_session.push(session_s);
                    cell_self.push(session_s - phases);
                    cell_id += 1;
                    k += 1;
                }
            }
        }
    }

    let aggregate_span = tracer.begin("experiments.aggregate", 0);
    aggregate(&traced.measurements);
    tracer.end(aggregate_span);

    // The replay must have done the campaign's work: same tiles, same bytes.
    let (partitions, bytes) = (registry.counter("partitions"), registry.counter("bytes"));
    if replayed.tiles != partitions || replayed.stream_bytes != bytes {
        traced.problems.push(format!(
            "replay covered {} tiles / {} bytes, the metrics registry counted {partitions} / {bytes}",
            replayed.tiles, replayed.stream_bytes
        ));
    }
    if misses != 0 {
        traced
            .problems
            .push(format!("{misses} grid misses inside the timed campaign"));
    }

    let session_sum: f64 = cell_session.iter().sum();
    let lookup_s = tracer.sum("cache.lookup");
    let run_s = tracer.sum("campaign.run");
    let replay_structural: f64 = ["hls.encode", "hls.codec_encode"]
        .iter()
        .map(|n| tracer.sum(n))
        .sum();
    out.push(
        "workloads.generate_s",
        tracer.sum("workloads.generate"),
        "s",
    );
    out.push("workloads.nnz", nnz as f64, "count");
    out.push(
        "sparsemat.partition_s",
        tracer.sum("sparsemat.partition"),
        "s",
    );
    out.push("sparsemat.nonzero_tiles", tiles_built as f64, "count");
    out.push("cache.lookup_s", lookup_s, "s");
    out.push(
        "cache.grid_hit_ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        "ratio",
    );
    out.push(
        "cache.resident_mb",
        resident_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    out.push("hls.encode_s", tracer.sum("hls.encode"), "s");
    out.push("hls.encode_calls", replayed.tiles as f64, "count");
    out.push("hls.stream_bytes", replayed.stream_bytes as f64, "bytes");
    out.push("hls.codec_encode_s", tracer.sum("hls.codec_encode"), "s");
    out.push("hls.codec_decode_s", tracer.sum("hls.codec_decode"), "s");
    out.push(
        "hls.coded_bytes_ratio",
        replayed.coded_bytes as f64 / replayed.stream_bytes.max(1) as f64,
        "ratio",
    );
    out.push("hls.decompress_s", tracer.sum("hls.decompress"), "s");
    out.push("hls.backend_s", tracer.sum("hls.backend"), "s");
    out.push("hls.session_run_s", session_sum, "s");
    out.push(
        "hls.cell_p50_ms",
        percentile(&cell_session, 0.50).0 * 1e3,
        "ms",
    );
    out.push(
        "hls.cell_p95_ms",
        percentile(&cell_session, 0.95).0 * 1e3,
        "ms",
    );
    out.push(
        "hls.ns_per_tile",
        session_sum * 1e9 / replayed.tiles.max(1) as f64,
        "ns",
    );
    out.push("hls.session_self_s", cell_self.iter().sum(), "s");
    out.push("campaign.run_s", run_s, "s");
    out.push("campaign.overhead_s", run_s - session_sum - lookup_s, "s");
    out.push(
        "experiments.aggregate_s",
        tracer.sum("experiments.aggregate"),
        "s",
    );

    // The in-program profiler's phase sums beside the outside-timed ones
    // (sums only: its percentiles are not trustworthy).
    let phase_sum = |p: Phase| profiler.histogram(p).map_or(0.0, |h| h.sum());
    out.push("telemetry.profiler_encode_s", phase_sum(Phase::Encode), "s");
    out.push("telemetry.replay_encode_s", replay_structural, "s");
    out.push(
        "telemetry.profiler_decompress_s",
        phase_sum(Phase::Decompress),
        "s",
    );
    out.push("telemetry.profiler_verify_s", phase_sum(Phase::Verify), "s");
    out.push(
        "telemetry.profiler_cache_lookup_s",
        phase_sum(Phase::CacheLookup),
        "s",
    );

    // Observability overhead and the untraced twin of campaign.run_s.
    let [plain, checkpoint] =
        campaign_secs(groups, [Variant::Plain, Variant::Checkpoint], run_dir)?;
    let [bare, telemetry] = campaign_secs(&bounded, [Variant::Plain, Variant::Telemetry], run_dir)?;
    out.push("campaign.untraced_run_s", plain, "s");
    out.push("campaign.trace_gap_s", run_s - plain, "s");
    out.push("telemetry.trace_overhead_ratio", telemetry / bare, "ratio");
    out.push(
        "telemetry.checkpoint_overhead_ratio",
        checkpoint / plain,
        "ratio",
    );
    Ok(traced)
}

/// Tile runs (tiles × formats) the Chrome-trace comparison may cover: the
/// Chrome writer keeps every pipeline event in memory (about 1.5 KB each,
/// several per tile), so the full paper grid would need gigabytes.
const TRACE_TILE_BUDGET: u64 = 40_000;
/// Repetitions of each overhead variant (the median is reported).
const REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Variant {
    /// Nothing attached.
    Plain,
    /// A Chrome trace sink, a metrics registry and a phase profiler.
    Telemetry,
    /// A campaign checkpoint file.
    Checkpoint,
}

/// Median campaign seconds of `groups` under each variant: every group on
/// a fresh warmed one-worker runner, only the campaign calls timed. The
/// variants are interleaved so host drift hits them alike.
fn campaign_secs<const N: usize>(
    groups: &[Vec<Campaign>],
    variants: [Variant; N],
    run_dir: &Path,
) -> Result<[f64; N], String> {
    let mut times = [(); N].map(|_| Vec::new());
    let checkpoint = run_dir.join(format!("checkpoint-{}.jsonl", std::process::id()));
    for _ in 0..REPS {
        for (variant, samples) in variants.iter().zip(times.iter_mut()) {
            let mut total = 0.0;
            for group in groups {
                let mut runner = CampaignRunner::sequential();
                warm(&runner, group)?;
                if *variant == Variant::Checkpoint {
                    let _ = std::fs::remove_file(&checkpoint);
                    runner
                        .attach_checkpoint(&checkpoint)
                        .map_err(|e| format!("checkpoint: {e}"))?;
                }
                let mut chrome = ChromeTraceWriter::new();
                let registry = MetricsRegistry::new();
                let profiler = Arc::new(PhaseProfiler::new());
                for c in group {
                    let mut instruments = Instruments::none();
                    if *variant == Variant::Telemetry {
                        instruments = instruments
                            .with_sink(&mut chrome)
                            .with_metrics(&registry)
                            .with_profiler(Arc::clone(&profiler));
                    }
                    let t = Instant::now();
                    c.run(&runner, &mut instruments)?;
                    total += t.elapsed().as_secs_f64();
                }
            }
            samples.push(total);
        }
    }
    let _ = std::fs::remove_file(&checkpoint);
    Ok(times.map(|t| median(&t)))
}
