//! The harness the report binaries (`sweep_report`, `resolve_report`,
//! `service_report`) are thin clients of. A run goes:
//! [`Harness::options`] parses the flags, [`Harness::start`] refuses
//! obs flags on a build without the instrumentation and opens the
//! `--out` document before anything is measured,
//! [`Run::begin_recording`]/[`Run::end_recording`] wrap the measured
//! window in an obs session and write its artifacts, and
//! [`Run::finish`] writes the binary's own top-level members and turns
//! its checks into the exit code.
//!
//! Exit codes, the same for every report binary: 0 when every check
//! passed; 1 when a check failed, after the report was written; 2 for
//! a bad flag, an `--out` file that exists but does not parse, an
//! unwritable report or obs artifact, or obs flags on a build without
//! `--features obs`.

use std::process::ExitCode;

use uavnet_core::Instance;
use uavnet_json::Json;
use uavnet_obs::MetricsSnapshot;

use crate::Scale;

/// A report binary: the name every stderr line starts with, and the
/// usage line printed with a flag error.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// Binary name.
    pub name: &'static str,
    /// One-line usage summary.
    pub usage: &'static str,
}

impl Harness {
    /// Parses the process arguments with `parse`. An error prints the
    /// message and the usage line and exits 2.
    pub fn options<T>(&self, parse: impl FnOnce(&mut Args) -> Result<T, String>) -> T {
        parse(&mut Args::new(std::env::args().skip(1))).unwrap_or_else(|msg| {
            eprintln!("{}: {msg}", self.name);
            eprintln!("{}", self.usage);
            std::process::exit(2)
        })
    }

    /// Prints `msg` and exits 2: an operator error found after parsing.
    pub fn refuse(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.name);
        std::process::exit(2)
    }

    /// Starts a run before anything is measured: refuses obs flags on
    /// a build without the instrumentation and opens the `--out`
    /// document (see [`OutDoc::open`]); either refusal exits 2.
    pub fn start(&self, common: &Common) -> Run {
        if common.obs.any() && !uavnet_obs::is_enabled() {
            self.refuse(
                "obs artifact flags need the instrumentation compiled in; \
                 rebuild with `--features obs`",
            );
        }
        let out = OutDoc::open(&common.out).unwrap_or_else(|e| self.refuse(&e));
        Run {
            harness: *self,
            out,
            obs: common.obs.clone(),
        }
    }
}

/// The command-line arguments of a report binary, consumed flag by
/// flag.
#[derive(Debug)]
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// Wraps an argument list (without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Args {
        Args(args.into_iter().collect::<Vec<_>>().into_iter())
    }

    /// The next flag, or `None` at the end of the list.
    pub fn next_flag(&mut self) -> Option<String> {
        self.0.next()
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag`, parsed as a number.
    pub fn number<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| format!("{flag} expects a number, got {raw:?}"))
    }

    /// The value following `flag`, parsed as a number that must not be
    /// zero.
    pub fn positive<T: std::str::FromStr + Default + PartialEq>(
        &mut self,
        flag: &str,
    ) -> Result<T, String> {
        let n: T = self.number(flag)?;
        if n == T::default() {
            return Err(format!("{flag} must be positive"));
        }
        Ok(n)
    }

    /// The value of `--scale`, one of `names`; an `"all"` among
    /// `names` selects every other name, in order.
    pub fn scales(&mut self, names: &[&str]) -> Result<Vec<Scale>, String> {
        let raw = self.value("--scale")?;
        if !names.contains(&raw.as_str()) {
            return Err(format!(
                "unknown --scale {raw:?} (expected {})",
                names.join("|")
            ));
        }
        Ok(names
            .iter()
            .filter(|&&name| name != "all" && (raw == "all" || name == raw))
            .filter_map(|&name| Scale::named(name))
            .collect())
    }
}

/// The flags every report binary shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Common {
    /// `--threads N` (default 2): worker threads of every solve.
    pub threads: usize,
    /// `--out PATH` (default `BENCH_sweep.json`): the report document.
    pub out: String,
    /// Where the obs artifacts go.
    pub obs: ObsPaths,
}

impl Default for Common {
    fn default() -> Self {
        Common {
            threads: 2,
            out: String::from("BENCH_sweep.json"),
            obs: ObsPaths::default(),
        }
    }
}

impl Common {
    /// Parses one shared flag (`--threads`, `--out`, `--obs-log`,
    /// `--obs-metrics`, `--obs-prom`); any other flag is an unknown
    /// argument.
    pub fn parse_flag(&mut self, flag: &str, args: &mut Args) -> Result<(), String> {
        match flag {
            "--threads" => self.threads = args.positive(flag)?,
            "--out" => self.out = args.value(flag)?,
            "--obs-log" => self.obs.log = Some(args.value(flag)?),
            "--obs-metrics" => self.obs.metrics = Some(args.value(flag)?),
            "--obs-prom" => self.obs.prom = Some(args.value(flag)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
        Ok(())
    }
}

/// Where a run writes its obs artifacts; each is optional.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsPaths {
    /// `--obs-log`: the JSON-lines event log.
    pub log: Option<String>,
    /// `--obs-metrics`: the end-of-run metrics snapshot.
    pub metrics: Option<String>,
    /// `--obs-prom`: the snapshot in Prometheus text format.
    pub prom: Option<String>,
    /// `--trace-out` (`service_report` only): a Chrome trace-event file
    /// of the span tree, loadable in Perfetto (`ui.perfetto.dev`).
    pub trace: Option<String>,
}

impl ObsPaths {
    /// Whether any artifact was requested.
    pub fn any(&self) -> bool {
        self.log.is_some() || self.metrics.is_some() || self.prom.is_some() || self.trace.is_some()
    }
}

/// A started report run; see the [module docs](self).
#[derive(Debug)]
pub struct Run {
    harness: Harness,
    out: OutDoc,
    obs: ObsPaths,
}

impl Run {
    /// Begins the obs recording session, stamping `threads` and
    /// `instance_fingerprint` (see [`fingerprint`]) on its provenance.
    ///
    /// # Panics
    ///
    /// Panics if the instrumentation is compiled out or a session is
    /// already recording.
    pub fn begin_recording(&self, threads: usize, instance_fingerprint: u64) {
        let mut provenance = uavnet_obs::Provenance::detect();
        provenance.features = "obs,enabled".to_string();
        provenance.threads = threads as u64;
        provenance.instance_fingerprint = instance_fingerprint;
        uavnet_obs::try_session_begin_with(provenance).expect("begin the report's obs session");
    }

    /// Ends the recording session, if one is active, and writes every
    /// requested artifact; an unwritable artifact exits 2. Returns the
    /// session's final snapshot.
    pub fn end_recording(&self) -> Option<MetricsSnapshot> {
        let snapshot = uavnet_obs::session_end()?;
        let events = uavnet_obs::drain_events();
        if let Some(path) = &self.obs.log {
            let lines: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
            self.write_artifact(path, &lines);
        }
        if let Some(path) = &self.obs.metrics {
            self.write_artifact(path, &snapshot.to_json());
        }
        if let Some(path) = &self.obs.prom {
            self.write_artifact(path, &snapshot.to_prometheus());
        }
        if let Some(path) = &self.obs.trace {
            self.write_artifact(path, &uavnet_obs::dump_trace_event(&events));
        }
        Some(snapshot)
    }

    /// Writes `members` into the `--out` document, replacing only
    /// those top-level members, then reports `checks`: each failed
    /// check prints one line, and the exit code is 1 if any failed,
    /// 0 otherwise. An unwritable report exits 2.
    pub fn finish(self, members: Vec<(&str, Json)>, checks: Vec<Result<(), String>>) -> ExitCode {
        let Run { harness, out, .. } = self;
        let path = out.path.clone();
        out.write(members).unwrap_or_else(|e| harness.refuse(&e));
        eprintln!("{}: wrote {path}", harness.name);
        let failed: Vec<String> = checks.into_iter().filter_map(Result::err).collect();
        for msg in &failed {
            eprintln!("{}: check failed: {msg}", harness.name);
        }
        if failed.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }

    fn write_artifact(&self, path: &str, body: &str) {
        std::fs::write(path, body)
            .unwrap_or_else(|e| self.harness.refuse(&format!("cannot write {path}: {e}")));
        eprintln!("{}: wrote {path}", self.harness.name);
    }
}

/// The `--out` report document, read once before any measurement and
/// written once at the end. Several binaries share one file (each
/// owns some top-level members), so a run replaces only its own
/// members and keeps every other one.
#[derive(Debug)]
pub struct OutDoc {
    path: String,
    doc: Json,
}

impl OutDoc {
    /// Reads the document at `path`. A missing file starts a new
    /// document; a file that does not parse as a JSON object is
    /// refused and left untouched.
    pub fn open(path: &str) -> Result<OutDoc, String> {
        let doc = match std::fs::read_to_string(path) {
            Ok(text) => match Json::parse(&text) {
                Ok(doc @ Json::Obj(_)) => doc,
                parsed => {
                    let why = parsed.err().unwrap_or_else(|| "not an object".into());
                    return Err(format!(
                        "{path} does not parse as a JSON object ({why}); refusing to clobber it"
                    ));
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                obj(vec![("benchmark", Json::Str("sweep_hotpath".into()))])
            }
            Err(e) => return Err(format!("cannot read {path}: {e}")),
        };
        let path = path.to_string();
        Ok(OutDoc { path, doc })
    }

    /// Replaces the top-level `members` (an existing member keeps its
    /// position) and writes the document back.
    pub fn write(mut self, members: Vec<(&str, Json)>) -> Result<(), String> {
        for (key, value) in members {
            self.doc.set(key, value);
        }
        std::fs::write(&self.path, self.doc.dump())
            .map_err(|e| format!("cannot write {}: {e}", self.path))
    }
}

/// A JSON object from `(key, value)` members, in order.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `x` rounded to `decimals` decimal places, exactly as `{x:.decimals$}`
/// prints it.
pub fn round_to(x: f64, decimals: usize) -> f64 {
    format!("{x:.decimals$}").parse().unwrap_or(x)
}

/// The median of `samples` (the upper one for an even count).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &mut [u64]) -> u64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// FNV-1a fold of the instances' fingerprints: the provenance stamp of
/// a run that measured them.
pub fn fingerprint<'a>(instances: impl IntoIterator<Item = &'a Instance>) -> u64 {
    instances
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, instance| {
            (h ^ instance.fingerprint()).wrapping_mul(0x0100_0000_01b3)
        })
}

/// A check that `value` reached `floor`; the error names both.
pub fn at_least(label: &str, value: f64, floor: f64) -> Result<(), String> {
    if value >= floor {
        Ok(())
    } else {
        Err(format!("{label} = {value} is below the floor {floor}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uavnet-report-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Opens `path` as the `--out` document, writes a `resolve` member
    /// and returns the top-level keys of the file written.
    fn write_resolve(path: &Path) -> Result<Vec<String>, String> {
        OutDoc::open(path.to_str().unwrap())?.write(vec![("resolve", Json::Num(5.0))])?;
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        Ok(doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect())
    }

    #[test]
    fn a_missing_out_file_is_created() {
        let dir = scratch("missing");
        assert_eq!(
            write_resolve(&dir.join("r.json")).unwrap(),
            ["benchmark", "resolve"]
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_valid_out_file_keeps_its_other_members() {
        let dir = scratch("valid");
        let path = dir.join("r.json");
        std::fs::write(
            &path,
            r#"{"scales": [1], "resolve": {"old": 1}, "service": 2}"#,
        )
        .unwrap();
        assert_eq!(
            write_resolve(&path).unwrap(),
            ["scales", "resolve", "service"]
        );
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("resolve"), Some(&Json::Num(5.0)));
        assert_eq!(doc.get("service"), Some(&Json::Num(2.0)));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn an_unparsable_out_file_is_refused_and_untouched() {
        let dir = scratch("unparsable");
        for text in ["{\"scales\": [1, 2", "[1, 2]"] {
            let path = dir.join("r.json");
            std::fs::write(&path, text).unwrap();
            let err = write_resolve(&path).unwrap_err();
            assert!(err.contains("refusing to clobber"), "{err}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn an_unwritable_out_path_is_an_error() {
        let dir = scratch("unwritable");
        let err = write_resolve(&dir.join("no-such-dir").join("r.json")).unwrap_err();
        assert!(
            err.starts_with("cannot write") && err.contains("no-such-dir"),
            "{err}"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn median_rounding_and_floors() {
        assert_eq!(median(&mut [5, 1, 3]), 3);
        assert_eq!(median(&mut [4, 1, 3, 2]), 3);
        assert_eq!(round_to(2.345_67, 2), 2.35);
        assert_eq!(round_to(1.0 / 3.0, 4), 0.3333);
        assert!(at_least("x", 10.0, 10.0).is_ok());
        assert_eq!(
            at_least("x", 9.9, 10.0).unwrap_err(),
            "x = 9.9 is below the floor 10"
        );
    }
}
