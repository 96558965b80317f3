//! What one repetition reports to the coordinating process.
//!
//! Every repetition runs in a fresh child process, so that its set-up,
//! heap and peak memory are its own. The child prints its record as plain
//! lines on stdout — `key value...`, one fact per line — and the parent
//! parses them back.

use std::fmt::Write as _;

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, String);

#[derive(Debug, Default, Clone)]
pub struct Record {
    pub traced: bool,
    pub setup_s: f64,
    pub run_s: f64,
    pub updates: u64,
    pub final_objective: f64,
    /// The objective at the zero model, the run's starting point.
    pub f0: f64,
    pub peak_rss_mb: f64,
    pub submitted: u64,
    pub lost_tasks: u64,
    pub reads: u64,
    pub failed_reads: u64,
    pub saves_ok: u64,
    pub saves_failed: u64,
    /// Latency of every read, µs.
    pub read_us: Vec<f64>,
    /// Submit-to-task-body delays of a traced run, µs.
    pub dispatch_us: Vec<f64>,
    /// Per-layer figures of a traced run.
    pub layers: Vec<Metric>,
    /// Layer probe results.
    pub probes: Vec<Metric>,
    /// Correctness failures, empty when every check passed.
    pub failures: Vec<String>,
}

impl Record {
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "traced {}", self.traced as u8);
        for (k, v) in [
            ("setup_s", self.setup_s),
            ("run_s", self.run_s),
            ("final_objective", self.final_objective),
            ("f0", self.f0),
            ("peak_rss_mb", self.peak_rss_mb),
        ] {
            let _ = writeln!(s, "{k} {v}");
        }
        for (k, v) in [
            ("updates", self.updates),
            ("submitted", self.submitted),
            ("lost_tasks", self.lost_tasks),
            ("reads", self.reads),
            ("failed_reads", self.failed_reads),
            ("saves_ok", self.saves_ok),
            ("saves_failed", self.saves_failed),
        ] {
            let _ = writeln!(s, "{k} {v}");
        }
        for (k, vs) in [
            ("read_us", &self.read_us),
            ("dispatch_us", &self.dispatch_us),
        ] {
            let _ = write!(s, "{k}");
            for v in vs {
                let _ = write!(s, " {v}");
            }
            s.push('\n');
        }
        for (k, ms) in [("layer", &self.layers), ("probe", &self.probes)] {
            for (name, v, unit) in ms {
                let _ = writeln!(s, "{k} {name} {v} {unit}");
            }
        }
        for f in &self.failures {
            let _ = writeln!(s, "failure {}", f.replace('\n', " "));
        }
        s
    }

    pub fn parse(text: &str) -> Result<Record, String> {
        let mut r = Record::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{key} {v}: {e}"));
            let int = |v: &str| v.parse::<u64>().map_err(|e| format!("{key} {v}: {e}"));
            let metric = |rest: &str| -> Result<Metric, String> {
                let mut it = rest.split(' ');
                match (it.next(), it.next(), it.next()) {
                    (Some(n), Some(v), Some(u)) => Ok((n.to_string(), num(v)?, u.to_string())),
                    _ => Err(format!("malformed {key} line: {rest}")),
                }
            };
            match key {
                "traced" => r.traced = rest == "1",
                "setup_s" => r.setup_s = num(rest)?,
                "run_s" => r.run_s = num(rest)?,
                "final_objective" => r.final_objective = num(rest)?,
                "f0" => r.f0 = num(rest)?,
                "peak_rss_mb" => r.peak_rss_mb = num(rest)?,
                "updates" => r.updates = int(rest)?,
                "submitted" => r.submitted = int(rest)?,
                "lost_tasks" => r.lost_tasks = int(rest)?,
                "reads" => r.reads = int(rest)?,
                "failed_reads" => r.failed_reads = int(rest)?,
                "saves_ok" => r.saves_ok = int(rest)?,
                "saves_failed" => r.saves_failed = int(rest)?,
                "read_us" | "dispatch_us" => {
                    let vs = rest
                        .split_whitespace()
                        .map(num)
                        .collect::<Result<Vec<f64>, _>>()?;
                    if key == "read_us" {
                        r.read_us = vs;
                    } else {
                        r.dispatch_us = vs;
                    }
                }
                "layer" => r.layers.push(metric(rest)?),
                "probe" => r.probes.push(metric(rest)?),
                "failure" => r.failures.push(rest.to_string()),
                "" => {}
                _ => return Err(format!("unknown record line: {line}")),
            }
        }
        if r.updates == 0 {
            return Err("record has no updates line".into());
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips() {
        let r = Record {
            traced: true,
            setup_s: 0.125,
            run_s: 1.5,
            updates: 4000,
            final_objective: 0.3205,
            f0: std::f64::consts::LN_2,
            peak_rss_mb: 25.75,
            submitted: 4002,
            reads: 3,
            read_us: vec![40.5, 41.0, 90.25],
            dispatch_us: vec![0.5],
            layers: vec![("sparklet.submit_s".into(), 0.03, "s".into())],
            probes: vec![("serve.predict.rows_per_s".into(), 1.5e6, "rows/s".into())],
            failures: vec!["applied 1 updates, budget 2".into()],
            ..Record::default()
        };
        let back = Record::parse(&r.to_text()).expect("parses");
        assert_eq!(back.to_text(), r.to_text());
    }
}
