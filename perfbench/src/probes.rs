//! Direct-call throughput probes: each times one layer's public function
//! on the workload's own inputs, outside the timed solver runs.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use async_core::AsyncBcast;
use async_linalg::compress::{quantize_i8, select_top_k};
use async_linalg::Matrix;
use async_optim::{Checkpoint, CheckpointStore, PublishedModel, ServeFeed, SolverHistory};
use async_serve::{ServeCfg, Server};
use sparklet::frame::{read_frame, write_frame, Msg};

use crate::record::Metric;
use crate::workloads::{Kind, MAX_VERSION_LAG, QUERY_ROWS};

/// A workload's inputs: its data and the model a run trained on it.
pub struct Inputs {
    pub data: async_data::Dataset,
    pub final_w: Vec<f64>,
}

/// How long each probe measures.
const PROBE_TIME: Duration = Duration::from_millis(250);
/// Rows per kernel batch.
const BATCH_ROWS: usize = 256;
/// Top-k kept per compressed gradient.
const TOP_K: usize = 64;

/// Calls `step` (which returns the work it did) until `PROBE_TIME` has
/// passed, at least three times; returns work per second.
fn throughput(mut step: impl FnMut(usize) -> f64) -> f64 {
    let t0 = Instant::now();
    let (mut work, mut i) = (0.0, 0);
    while i < 3 || t0.elapsed() < PROBE_TIME {
        work += step(i);
        i += 1;
    }
    work / t0.elapsed().as_secs_f64()
}

fn batch(i: usize, n: usize) -> Vec<u32> {
    (0..BATCH_ROWS)
        .map(|j| ((i * BATCH_ROWS + j) % n) as u32)
        .collect()
}

/// A mini-batch gradient direction over the first rows as `(idx, val)`:
/// sparse over CSR storage, dense otherwise.
fn gradient(m: &Matrix, dim: usize) -> (Vec<u32>, Vec<f64>) {
    let rows = batch(0, m.nrows());
    let coefs: Vec<f64> = (0..rows.len()).map(|j| 1.0 / (1.0 + j as f64)).collect();
    match m {
        Matrix::Sparse(c) => {
            let (mut pairs, mut idx, mut val) = (Vec::new(), Vec::new(), Vec::new());
            c.gather_axpy_into(&rows, &coefs, &mut pairs, &mut idx, &mut val);
            (idx, val)
        }
        Matrix::Dense(_) => {
            let mut g = vec![0.0; dim];
            for (&r, &a) in rows.iter().zip(&coefs) {
                m.row_axpy(r as usize, a, &mut g);
            }
            ((0..dim as u32).collect(), g)
        }
    }
}

/// Runs the six probes; returns `(name, value, unit)` triples.
pub fn run(kind: Kind, inputs: &Inputs, scratch: &Path) -> Result<Vec<Metric>, String> {
    let m = inputs.data.features();
    let w = &inputs.final_w;
    let n = m.nrows();
    let dim = m.ncols();
    let mut out = Vec::new();

    let mut margins = Vec::with_capacity(BATCH_ROWS);
    let rows_dot = throughput(|i| {
        let rows = batch(i, n);
        m.rows_dot_into(&rows, black_box(w), &mut margins);
        black_box(&margins);
        m.rows_nnz(&rows) as f64
    });
    out.push(("linalg.rows_dot.entries_per_s", rows_dot, "entries/s"));

    let coefs: Vec<f64> = (0..BATCH_ROWS).map(|j| 1.0 / (1.0 + j as f64)).collect();
    let (mut pairs, mut gi, mut gv) = (Vec::new(), Vec::new(), Vec::new());
    let mut dense = vec![0.0; dim];
    let gather = throughput(|i| {
        let rows = batch(i, n);
        match m {
            Matrix::Sparse(c) => c.gather_axpy_into(&rows, &coefs, &mut pairs, &mut gi, &mut gv),
            Matrix::Dense(_) => {
                for (&r, &a) in rows.iter().zip(&coefs) {
                    m.row_axpy(r as usize, a, &mut dense);
                }
            }
        }
        black_box((&gv, &dense));
        m.rows_nnz(&rows) as f64
    });
    out.push(("linalg.gather_axpy.entries_per_s", gather, "entries/s"));

    let (idx, val) = gradient(m, dim);
    let (mut order, mut ki, mut kv) = (Vec::new(), Vec::new(), Vec::new());
    let mut codes: Vec<i8> = Vec::with_capacity(TOP_K);
    let topk = throughput(|_| {
        ki.clear();
        kv.clear();
        codes.clear();
        select_top_k(black_box(&idx), &val, TOP_K, &mut order, &mut ki, &mut kv);
        let scale = kv.iter().fold(0.0f64, |s, v| s.max(v.abs()));
        codes.extend(kv.iter().map(|&v| quantize_i8(v, scale)));
        black_box(&codes);
        idx.len() as f64
    });
    out.push(("linalg.topk_i8.values_per_s", topk, "values/s"));

    // A submission carrying a full model snapshot, the request a dense
    // model ships on every task.
    let request: Vec<u8> = w.iter().flat_map(|v| v.to_le_bytes()).collect();
    let msg = Msg::Submit {
        tag: 1,
        epoch: 0,
        routine: 1,
        sleep_us: 0,
        slow_factor: 0.0,
        request,
    };
    let mut buf = Vec::new();
    let mut frame_err = None;
    let frame = throughput(|_| {
        buf.clear();
        if let Err(e) = write_frame(&mut buf, &msg) {
            frame_err = Some(e.to_string());
        }
        match read_frame(&mut buf.as_slice()) {
            Ok(back) if back == msg => {}
            Ok(_) => frame_err = Some("frame did not round-trip".into()),
            Err(e) => frame_err = Some(e.to_string()),
        }
        buf.len() as f64
    });
    if let Some(e) = frame_err {
        return Err(format!("frame probe: {e}"));
    }
    out.push(("sparklet.frame.bytes_per_s", frame, "B/s"));

    let ckpt = Checkpoint {
        solver: "probe".into(),
        updates: kind.budget(),
        version: kind.budget(),
        w: w.clone(),
        history: SolverHistory::None,
        residuals: Some(Vec::new()),
    }
    .to_bytes();
    let mut store = CheckpointStore::open(scratch.join("probe-store"))
        .map_err(|e| format!("probe store: {e}"))?;
    let mut save_err = None;
    let save = throughput(|i| {
        if let Err(e) = store.save(i as u64 + 1, &ckpt) {
            save_err = Some(e.to_string());
        }
        ckpt.len() as f64 / 1e6
    });
    if let Some(e) = save_err {
        return Err(format!("checkpoint save probe: {e}"));
    }
    out.push(("optim.durable.save_mb_per_s", save, "MB/s"));

    let feed = ServeFeed::new();
    feed.publish(PublishedModel {
        bcast: AsyncBcast::new(0, w.clone(), n as u64),
        objective: kind.objective(),
        dim,
    });
    let server = Server::connect(
        &feed,
        ServeCfg {
            max_version_lag: MAX_VERSION_LAG,
            log_queries: false,
        },
    )
    .ok_or("serve probe: feed has no model")?;
    let mut p = server.predictor();
    let mut scores = Vec::with_capacity(QUERY_ROWS);
    let predict = throughput(|i| {
        let rows: Vec<u32> = (0..QUERY_ROWS)
            .map(|j| ((i * QUERY_ROWS + j) % n) as u32)
            .collect();
        p.predict_rows_into(m, &rows, &mut scores);
        black_box(&scores);
        QUERY_ROWS as f64
    });
    out.push(("serve.predict.rows_per_s", predict, "rows/s"));
    Ok(out
        .into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
        .collect())
}
