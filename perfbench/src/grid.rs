//! The two grid workloads, run in-process through `CampaignRunner`.
//!
//! * `paper_grid` — the shared Fig. 7 campaign (all class workloads ×
//!   `FIGURE_FORMATS` × p ∈ {8, 16, 32}, 816 cells) at paper settings
//!   (verify off, codec none, backend hls) with reduced dimensions; the
//!   timed call is `run_campaign` plus the Fig. 7/8/9/12/14 and insight
//!   aggregations.
//! * `codec_sweep` — `ext_compound_scheme::run_on` (band w=8 and random
//!   d=0.02 × {CSR, ELL, COO} × 4 codecs at p=16) at quick settings
//!   (verify on).
//!
//! Each timed iteration gets a fresh two-worker runner whose workload cache
//! is warmed first (that is `setup_s`); the timed region must then see no
//! grid miss.

use crate::layers::{self, Campaign};
use crate::spans::Tracer;
use crate::stats::{fnv64, median, peak_rss_mb};
use crate::{check_digest, host, serve, Args, Metrics, Outcome};
use copernicus::experiments::{ext_compound_scheme, fig07, FIGURE_FORMATS, FIGURE_PARTITION_SIZES};
use copernicus::{CampaignRunner, ExperimentConfig, Instruments, Measurement};
use serde::{Serialize, Value};
use std::time::Instant;

/// Worker threads of the timed runner (the host has two cores).
const JOBS: usize = 2;
/// `paper_grid` sweep and suite dimensions.
const PAPER_SWEEP_DIM: usize = 512;
const PAPER_SUITE_DIM: usize = 1024;
/// `codec_sweep` matrix dimension.
const CODEC_DIM: usize = 2048;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    PaperGrid,
    CodecSweep,
}

impl Kind {
    fn config(self, seed: u64) -> ExperimentConfig {
        match self {
            Kind::PaperGrid => ExperimentConfig {
                suite_max_dim: PAPER_SUITE_DIM,
                sweep_dim: PAPER_SWEEP_DIM,
                seed,
                ..ExperimentConfig::paper()
            },
            Kind::CodecSweep => ExperimentConfig {
                sweep_dim: CODEC_DIM,
                seed,
                ..ExperimentConfig::quick()
            },
        }
    }

    /// The campaigns the timed call runs, in its order.
    fn campaigns(self, cfg: &ExperimentConfig) -> Vec<Campaign> {
        match self {
            Kind::PaperGrid => vec![Campaign {
                workloads: fig07::all_class_workloads(cfg),
                formats: FIGURE_FORMATS.to_vec(),
                partition_sizes: FIGURE_PARTITION_SIZES.to_vec(),
                cfg: cfg.clone(),
            }],
            Kind::CodecSweep => ext_compound_scheme::SCHEME_CODECS
                .iter()
                .map(|&codec| {
                    let mut cfg = cfg.clone();
                    cfg.hw.stream_codec = codec;
                    Campaign {
                        workloads: ext_compound_scheme::scheme_workloads(&cfg).to_vec(),
                        formats: ext_compound_scheme::SCHEME_FORMATS.to_vec(),
                        partition_sizes: vec![ext_compound_scheme::SCHEME_PARTITION],
                        cfg,
                    }
                })
                .collect(),
        }
    }

    /// The timed call. Returns the cells produced and the serialized
    /// output the digest covers.
    fn timed(self, runner: &CampaignRunner, cfg: &ExperimentConfig) -> Result<Timed, String> {
        match self {
            Kind::PaperGrid => {
                let c = &self.campaigns(cfg)[0];
                let start = Instant::now();
                let outcome = c.run(runner, &mut Instruments::none())?;
                layers::aggregate(&outcome.measurements);
                let secs = start.elapsed().as_secs_f64();
                Ok(Timed {
                    secs,
                    cells: outcome.measurements.len() as u64,
                    failed: outcome.failures.len() as u64,
                    output: serde::json::to_string(&outcome.measurements.serialize()),
                })
            }
            Kind::CodecSweep => {
                let start = Instant::now();
                let rows = ext_compound_scheme::run_on(runner, cfg, &mut Instruments::none())
                    .map_err(|e| format!("compound scheme failed: {e}"))?;
                let secs = start.elapsed().as_secs_f64();
                Ok(Timed {
                    secs,
                    cells: rows.len() as u64,
                    failed: 0,
                    output: serde::json::to_string(&rows.serialize()),
                })
            }
        }
    }

    /// The digested output rebuilt from the campaigns' measurements (what
    /// the traced run computes), to tie the traced cells to the timed call.
    fn output_from(self, campaigns: &[Campaign], ms: &[Measurement]) -> String {
        match self {
            Kind::PaperGrid => serde::json::to_string(&ms.serialize()),
            Kind::CodecSweep => {
                let mut rows = Vec::new();
                let mut rest = ms;
                for c in campaigns {
                    let (cells, tail) = rest.split_at(c.cells().min(rest.len()));
                    rest = tail;
                    rows.extend(
                        cells
                            .iter()
                            .map(|m| ext_compound_scheme::CompoundSchemeRow {
                                workload: m.workload.clone(),
                                codec: c.cfg.hw.stream_codec,
                                format: m.format,
                                sigma: m.sigma(),
                                total_bytes: m.report.total_bytes,
                                coded_bytes: m.report.total_coded_bytes,
                                entropy_cycles: m.report.total_entropy_cycles,
                                total_seconds: m.total_seconds(),
                            }),
                    );
                }
                serde::json::to_string(&rows.serialize())
            }
        }
    }
}

struct Timed {
    secs: f64,
    cells: u64,
    failed: u64,
    output: String,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let kind = match args.workload.as_str() {
        "paper_grid" => Kind::PaperGrid,
        _ => Kind::CodecSweep,
    };
    let cfg = kind.config(args.seed);
    if args.trace {
        traced(kind, &cfg, args)
    } else {
        timed(kind, &cfg, args)
    }
}

/// The end-to-end run: fresh warmed runners, timed calls until the run's
/// seconds are spent, then the output checks.
fn timed(kind: Kind, cfg: &ExperimentConfig, args: &Args) -> Result<Outcome, String> {
    let campaigns = kind.campaigns(cfg);
    let mut outcome = Outcome::default();
    let (mut setups, mut rates, mut calls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_rates, mut factors) = (Vec::new(), Vec::new());
    let mut tile_runs = 0u64;
    let mut digests = Vec::new();
    let start = Instant::now();
    while rates.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let runner = CampaignRunner::new(JOBS);
        let t = Instant::now();
        layers::warm(&runner, &campaigns)?;
        let setup = t.elapsed().as_secs_f64();
        if tile_runs == 0 {
            tile_runs = layers::tile_runs(&runner, &campaigns)?;
        }
        let calib_before = host::calibrate(JOBS);
        let before = runner.workloads().stats();
        let run = kind.timed(&runner, cfg)?;
        let after = runner.workloads().stats();
        let calib_after = host::calibrate(JOBS);
        let factor = (calib_before + calib_after) / (2.0 * host::REFERENCE_SECS);
        factors.push(factor);
        raw_rates.push(run.cells as f64 / run.secs);
        setups.push(setup / factor);
        let misses = after.grid_misses - before.grid_misses;
        outcome.check(misses == 0, || {
            format!("{misses} grid misses inside the timed region")
        });
        outcome.attempted += campaigns.iter().map(Campaign::cells).sum::<usize>() as u64;
        outcome.failed += run.failed;
        rates.push(run.cells as f64 * factor / run.secs);
        calls.push(run.secs / factor);
        digests.push(fnv64(run.output.as_bytes()));
    }
    outcome.check(digests.iter().all(|&d| d == digests[0]), || {
        "timed iterations produced different outputs".into()
    });
    // The one-worker reference path must produce the same bytes.
    let reference = kind.timed(&CampaignRunner::sequential(), cfg)?;
    outcome.check(fnv64(reference.output.as_bytes()) == digests[0], || {
        "two-worker output differs from the sequential reference".into()
    });
    check_digest(&mut outcome, args, digests[0]);
    outcome.detail("iterations", Value::UInt(rates.len() as u64));
    outcome.detail("tile_runs_per_call", Value::UInt(tile_runs));
    let floats = |v: &[f64]| Value::Seq(v.iter().map(|&x| Value::Float(x)).collect());
    outcome.detail("cells_per_s_samples", floats(&rates));
    outcome.detail("raw_cells_per_s_samples", floats(&raw_rates));
    outcome.detail("host_slowdown_samples", floats(&factors));
    outcome.detail("setup_s_samples", floats(&setups));
    // A grid workload's request is one timed call: one campaign over a
    // warmed runner plus its aggregation.
    let m = &mut outcome.metrics;
    m.push("setup_s", median(&setups), "s");
    m.push("cells_per_s", median(&rates), "1/s");
    m.push(
        "req_per_s",
        calls.len() as f64 / calls.iter().sum::<f64>(),
        "1/s",
    );
    m.push("req_p50_ms", median(&calls) * 1e3, "ms");
    m.push("peak_rss_mb", peak_rss_mb(None).unwrap_or(f64::NAN), "MiB");
    Ok(outcome)
}

/// The traced run: the layer decomposition, then a short pass of this
/// workload's servable units through the daemon for the `serve.*` layer.
fn traced(kind: Kind, cfg: &ExperimentConfig, args: &Args) -> Result<Outcome, String> {
    let campaigns = kind.campaigns(cfg);
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut metrics = Metrics::default();
    let traced = layers::decompose(
        &mut tracer,
        std::slice::from_ref(&campaigns),
        &args.run_dir,
        &mut metrics,
    )?;
    outcome.attempted = traced.attempted;
    outcome.failed = traced.failed;
    outcome.problems.extend(traced.problems);
    let digest = fnv64(
        kind.output_from(&campaigns, &traced.measurements)
            .as_bytes(),
    );
    check_digest(&mut outcome, args, digest);
    serve::probe(
        &campaigns,
        &traced.measurements,
        args,
        &mut tracer,
        &mut metrics,
        &mut outcome,
    )?;
    outcome.metrics = metrics;
    serve::write_trace(args, &tracer, &outcome)?;
    Ok(outcome)
}
