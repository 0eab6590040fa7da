//! Argument parsing (hand-rolled; the workspace avoids heavyweight CLI
//! dependencies).

use std::path::PathBuf;

/// Top-level usage text.
pub const USAGE: &str = "\
fixy — Learned Observation Assertions (SIGMOD 2022 reproduction)

USAGE:
    fixy generate --profile <lyft|internal> --scenes <N> [--seed <S>] --out <DIR> [--duration <SECS>]
    fixy learn    --data <DIR> [--app <APP>] --out <FILE> [--out-format <json|flcb>]
    fixy rank     --scene <FILE|DIR> --library <FILE> [--app <APP>] [--top <K>] [--grade]
    fixy convert  --data <DIR> --out <DIR>
    fixy convert  --library <FILE> [--out <FILE>]
    fixy stream   --scene <FILE> --library <FILE> [--app <APP>] [--top <K>] [--compare-full] [--trace]
    fixy serve    --listen <ADDR> --library <FILE> [--app <APP>] [--window <N>] [--max-frames <N>] [--max-sessions <N>] [--port-file <FILE>] [--metrics-addr <ADDR>] [--metrics-port-file <FILE>]
    fixy feed     --addr <ADDR> --data <DIR> [--late <N>] [--seed <S>] [--dup-every <K>] [--top <K>] [--out-dir <DIR>] [--shutdown]
    fixy fuzz     [--seed <S>] [--scenes <N>] [--top-k <K>] [--train <N>] [--corpus-dir <DIR>] [--json]
    fixy render   --scene <FILE> [--frame <N>] [--svg <FILE>]
    fixy bench-record --json <FILE> [--out <FILE>] [--note <TEXT>]
    fixy help

APPS: missing-tracks (default), missing-obs, model-errors

Library files come in two wire formats, auto-detected on load (by
extension, then by magic bytes): v1 JSON (human-readable, the default)
and .flcb — the zero-copy binary format that stores the prepared
probability grids verbatim, so opening a library is a bounds-checked
bulk copy instead of a refit. Both score bit-identically.

rank over a directory streams scenes (.json or .fscb) through the
bounded scene pipeline, holding at most O(workers) scenes in memory.

convert --data rewrites every scene JSON in a directory as .fscb — the
frame-streamed compact binary scene format — and reports the size
ratio. convert --library migrates one library file to the other format
(JSON -> .flcb or .flcb -> JSON; --out defaults to the input path with
the extension swapped).

stream replays one scene frame-by-frame through the StreamingAssembler,
re-ranking the partial scene after every frame and printing per-frame
latency: the live-deployment path, where errors surface before the
scene has even finished recording. Re-ranking is incremental (per-track
log-probability stores, re-folded only for the tracks a frame changed);
--compare-full additionally scores the whole snapshot every frame,
prints delta-vs-full latency, and exits non-zero if the worklists ever
diverge. --trace enables loa_obs span tracing and prints a per-frame
stage-timing table: self microseconds per stage (push/snapshot/rescore/
score/rank, nested spans not counted twice), the rest of the frame
(other), and the frame's measured time (wall).

serve starts the resident multi-session audit server: each connection
multiplexes any number of sessions, every session runs the incremental
trio behind a bounded reorder buffer (late/duplicate frames within
--window are absorbed; beyond-window frames are rejected recoverably),
and engines are pooled across session churn. With --listen ending in :0
the OS picks a port; --port-file writes the bound address for scripts.
The server runs until a client sends shutdown. --metrics-addr
additionally serves the live loa_obs registry (frames, latency
histograms, session/engine-pool/reorder counters) as a Prometheus text
endpoint scrapeable with curl; --metrics-port-file writes its bound
address. Clients can also request per-session stats mid-stream over the
wire protocol (STATS).

feed replays every scene in a directory against a running server, one
session per scene, frames interleaved round-robin across sessions.
--late N delivers each session's frames through a bounded shuffle (max
displacement N — keep N < the server's window); --dup-every K re-sends
every Kth frame to exercise duplicate dropping. Prints each session's
delivery stats and final worklist (identical to fixy stream's on the
same scene); --out-dir writes each worklist block to
<DIR>/<scene-id>.worklist; --shutdown stops the server afterwards.

fuzz runs the injection-recall conformance harness: a seeded procedural
corpus with known injected errors is ranked through the scene pipeline,
and every injected error must appear in the top-K of its scene's
worklist. Exits non-zero (printing the failing seed) otherwise. Every
fitted library is round-tripped through the .flcb codec before scoring,
so the gate also locks binary-format fidelity. --corpus-dir materializes
the generated scenes as .fscb files (--json writes scene JSON instead).

bench-record merges a CRITERION_JSON lines file (written by
`CRITERION_JSON=<FILE> cargo bench -p loa_bench`) into the repo's bench
snapshot file (default BENCH_pipeline.json) as a new dated snapshot with
toolchain and host metadata — see scripts/bench_record.sh.
";

/// Which application pipeline to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum App {
    #[default]
    MissingTracks,
    MissingObs,
    ModelErrors,
}

impl App {
    pub fn parse(s: &str) -> Result<App, ParseError> {
        match s {
            "missing-tracks" => Ok(App::MissingTracks),
            "missing-obs" => Ok(App::MissingObs),
            "model-errors" => Ok(App::ModelErrors),
            other => Err(ParseError(format!("unknown app '{other}'"))),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            App::MissingTracks => "missing-tracks",
            App::MissingObs => "missing-obs",
            App::ModelErrors => "model-errors",
        }
    }
}

/// `fixy generate`.
#[derive(Debug, Clone)]
pub struct GenerateArgs {
    pub profile: loa_data::DatasetProfile,
    pub scenes: usize,
    pub seed: u64,
    pub out: PathBuf,
    /// Override scene duration (seconds) for smaller datasets.
    pub duration: Option<f64>,
}

/// Library wire format selector for `fixy learn --out-format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LibFormat {
    /// v1 human-readable JSON (the default).
    #[default]
    Json,
    /// `.flcb` — the zero-copy binary format with on-disk prepared grids.
    Flcb,
}

impl LibFormat {
    pub fn parse(s: &str) -> Result<LibFormat, ParseError> {
        match s {
            "json" => Ok(LibFormat::Json),
            "flcb" => Ok(LibFormat::Flcb),
            other => Err(ParseError(format!("unknown library format '{other}'"))),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            LibFormat::Json => "json",
            LibFormat::Flcb => "flcb",
        }
    }
}

/// `fixy learn`.
#[derive(Debug, Clone)]
pub struct LearnArgs {
    pub data: PathBuf,
    pub app: App,
    pub out: PathBuf,
    /// Wire format for the written library file.
    pub out_format: LibFormat,
}

/// `fixy rank`.
#[derive(Debug, Clone)]
pub struct RankArgs {
    /// One scene file, or a directory of scenes (batch mode: every
    /// `.json` scene is ranked in parallel through the scene pipeline).
    pub scene: PathBuf,
    pub library: PathBuf,
    pub app: App,
    pub top: usize,
    /// Grade candidates against the scene's injected-error record.
    pub grade: bool,
}

/// `fixy convert`: either a scene-corpus conversion (`--data`) or a
/// single library-file migration (`--library`) — exactly one of the two.
#[derive(Debug, Clone)]
pub struct ConvertArgs {
    /// Directory of `.json` scenes to convert to `.fscb`.
    pub data: Option<PathBuf>,
    /// One library file to migrate to the opposite wire format
    /// (JSON -> `.flcb`, `.flcb` -> JSON).
    pub library: Option<PathBuf>,
    /// Output directory (`--data` mode, required) or output file
    /// (`--library` mode, defaults to the input with the extension
    /// swapped).
    pub out: Option<PathBuf>,
}

/// `fixy stream`.
#[derive(Debug, Clone)]
pub struct StreamArgs {
    /// One scene file (`.json` or `.fscb`) to replay frame-by-frame.
    pub scene: PathBuf,
    pub library: PathBuf,
    pub app: App,
    pub top: usize,
    /// Also score the whole snapshot from scratch every frame,
    /// report delta-vs-full latency, and fail on any divergence.
    pub compare_full: bool,
    /// Enable span tracing and print a per-frame stage-timing table.
    pub trace: bool,
}

/// `fixy serve`.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Bind address, e.g. `127.0.0.1:7400` (`:0` lets the OS pick).
    pub listen: String,
    pub library: PathBuf,
    pub app: App,
    /// Reorder-buffer window per session.
    pub window: u32,
    /// Per-session frame budget.
    pub max_frames: usize,
    /// Concurrent-session cap per connection.
    pub max_sessions: usize,
    /// Write the bound address here once listening (for scripts using
    /// an OS-picked port).
    pub port_file: Option<PathBuf>,
    /// Also serve the loa_obs registry as a Prometheus text endpoint on
    /// this address (e.g. `127.0.0.1:9100`; `:0` lets the OS pick).
    pub metrics_addr: Option<String>,
    /// Write the metrics endpoint's bound address here once listening.
    pub metrics_port_file: Option<PathBuf>,
}

/// `fixy feed`.
#[derive(Debug, Clone)]
pub struct FeedArgs {
    /// Server address, e.g. `127.0.0.1:7400`.
    pub addr: String,
    /// Directory of scenes (`.json` or `.fscb`) to replay.
    pub data: PathBuf,
    /// Bounded-shuffle depth: frames may arrive up to this many
    /// positions out of order (0 = in order).
    pub late: u32,
    /// Shuffle seed.
    pub seed: u64,
    /// Re-send every Kth frame (0 = no duplicates).
    pub dup_every: usize,
    /// Worklist entries to print per session.
    pub top: usize,
    /// Write each session's final-worklist block to
    /// `<DIR>/<scene-id>.worklist`.
    pub out_dir: Option<PathBuf>,
    /// Send shutdown after the last session closes.
    pub shutdown: bool,
}

/// `fixy fuzz`.
#[derive(Debug, Clone)]
pub struct FuzzArgs {
    pub seed: u64,
    pub scenes: usize,
    pub top_k: usize,
    pub train: usize,
    /// Materialize the generated corpus into this directory.
    pub corpus_dir: Option<PathBuf>,
    /// Write the materialized corpus as scene JSON instead of `.fscb`.
    pub json: bool,
}

/// `fixy render`.
#[derive(Debug, Clone)]
pub struct RenderArgs {
    pub scene: PathBuf,
    pub frame: usize,
    pub svg: Option<PathBuf>,
}

/// `fixy bench-record`.
#[derive(Debug, Clone)]
pub struct BenchRecordArgs {
    /// The CRITERION_JSON lines file produced by the bench harness.
    pub json: PathBuf,
    /// The snapshot file to merge into.
    pub out: PathBuf,
    /// Free-form host note recorded with the snapshot.
    pub note: Option<String>,
}

/// A parsed command.
#[derive(Debug, Clone)]
pub enum Command {
    Generate(GenerateArgs),
    Learn(LearnArgs),
    Rank(RankArgs),
    Convert(ConvertArgs),
    Stream(StreamArgs),
    Serve(ServeArgs),
    Feed(FeedArgs),
    Fuzz(FuzzArgs),
    Render(RenderArgs),
    BenchRecord(BenchRecordArgs),
    Help,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\n\n{USAGE}", self.0)
    }
}

impl std::error::Error for ParseError {}

struct Flags {
    pairs: std::collections::BTreeMap<String, String>,
    switches: std::collections::BTreeSet<String>,
}

fn collect_flags(args: &[String], switch_names: &[&str]) -> Result<Flags, ParseError> {
    let mut pairs = std::collections::BTreeMap::new();
    let mut switches = std::collections::BTreeSet::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(name) = arg.strip_prefix("--") else {
            return Err(ParseError(format!("unexpected argument '{arg}'")));
        };
        if switch_names.contains(&name) {
            switches.insert(name.to_string());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| ParseError(format!("--{name} requires a value")))?;
            pairs.insert(name.to_string(), value.clone());
            i += 2;
        }
    }
    Ok(Flags { pairs, switches })
}

impl Flags {
    fn required(&self, name: &str) -> Result<&str, ParseError> {
        self.pairs
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| ParseError(format!("missing required --{name}")))
    }

    fn optional(&self, name: &str) -> Option<&str> {
        self.pairs.get(name).map(String::as_str)
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ParseError> {
        match self.optional(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("--{name}: cannot parse '{v}'"))),
        }
    }
}

/// Parse a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            let flags = collect_flags(rest, &[])?;
            let profile = match flags.required("profile")? {
                "lyft" => loa_data::DatasetProfile::LyftLike,
                "internal" => loa_data::DatasetProfile::InternalLike,
                other => return Err(ParseError(format!("unknown profile '{other}'"))),
            };
            Ok(Command::Generate(GenerateArgs {
                profile,
                scenes: flags.parse_num("scenes", 1usize)?,
                seed: flags.parse_num("seed", 0u64)?,
                out: PathBuf::from(flags.required("out")?),
                duration: flags
                    .optional("duration")
                    .map(|v| {
                        v.parse()
                            .map_err(|_| ParseError(format!("--duration: cannot parse '{v}'")))
                    })
                    .transpose()?,
            }))
        }
        "learn" => {
            let flags = collect_flags(rest, &[])?;
            Ok(Command::Learn(LearnArgs {
                data: PathBuf::from(flags.required("data")?),
                app: flags.optional("app").map(App::parse).transpose()?.unwrap_or_default(),
                out: PathBuf::from(flags.required("out")?),
                out_format: flags
                    .optional("out-format")
                    .map(LibFormat::parse)
                    .transpose()?
                    .unwrap_or_default(),
            }))
        }
        "rank" => {
            let flags = collect_flags(rest, &["grade"])?;
            Ok(Command::Rank(RankArgs {
                scene: PathBuf::from(flags.required("scene")?),
                library: PathBuf::from(flags.required("library")?),
                app: flags.optional("app").map(App::parse).transpose()?.unwrap_or_default(),
                top: flags.parse_num("top", 10usize)?,
                grade: flags.switches.contains("grade"),
            }))
        }
        "convert" => {
            let flags = collect_flags(rest, &[])?;
            let data = flags.optional("data").map(PathBuf::from);
            let library = flags.optional("library").map(PathBuf::from);
            let out = flags.optional("out").map(PathBuf::from);
            match (&data, &library) {
                (Some(_), Some(_)) => {
                    return Err(ParseError(
                        "convert takes --data or --library, not both".to_string(),
                    ))
                }
                (None, None) => {
                    return Err(ParseError(
                        "convert requires --data <DIR> or --library <FILE>".to_string(),
                    ))
                }
                (Some(_), None) if out.is_none() => {
                    return Err(ParseError("convert --data requires --out <DIR>".to_string()))
                }
                _ => {}
            }
            Ok(Command::Convert(ConvertArgs { data, library, out }))
        }
        "stream" => {
            let flags = collect_flags(rest, &["compare-full", "trace"])?;
            Ok(Command::Stream(StreamArgs {
                scene: PathBuf::from(flags.required("scene")?),
                library: PathBuf::from(flags.required("library")?),
                app: flags.optional("app").map(App::parse).transpose()?.unwrap_or_default(),
                top: flags.parse_num("top", 5usize)?,
                compare_full: flags.switches.contains("compare-full"),
                trace: flags.switches.contains("trace"),
            }))
        }
        "serve" => {
            let flags = collect_flags(rest, &[])?;
            Ok(Command::Serve(ServeArgs {
                listen: flags.required("listen")?.to_string(),
                library: PathBuf::from(flags.required("library")?),
                app: flags.optional("app").map(App::parse).transpose()?.unwrap_or_default(),
                window: flags.parse_num("window", 8u32)?,
                max_frames: flags.parse_num("max-frames", 100_000usize)?,
                max_sessions: flags.parse_num("max-sessions", 4096usize)?,
                port_file: flags.optional("port-file").map(PathBuf::from),
                metrics_addr: flags.optional("metrics-addr").map(str::to_string),
                metrics_port_file: flags.optional("metrics-port-file").map(PathBuf::from),
            }))
        }
        "feed" => {
            let flags = collect_flags(rest, &["shutdown"])?;
            Ok(Command::Feed(FeedArgs {
                addr: flags.required("addr")?.to_string(),
                data: PathBuf::from(flags.required("data")?),
                late: flags.parse_num("late", 0u32)?,
                seed: flags.parse_num("seed", 0u64)?,
                dup_every: flags.parse_num("dup-every", 0usize)?,
                top: flags.parse_num("top", 5usize)?,
                out_dir: flags.optional("out-dir").map(PathBuf::from),
                shutdown: flags.switches.contains("shutdown"),
            }))
        }
        "fuzz" => {
            let flags = collect_flags(rest, &["json"])?;
            let corpus_dir = flags.optional("corpus-dir").map(PathBuf::from);
            if corpus_dir.is_none() && flags.switches.contains("json") {
                return Err(ParseError(
                    "fuzz --json only applies with --corpus-dir <DIR>".to_string(),
                ));
            }
            Ok(Command::Fuzz(FuzzArgs {
                seed: flags.parse_num("seed", 7u64)?,
                scenes: flags.parse_num("scenes", 200usize)?,
                top_k: flags.parse_num("top-k", 10usize)?,
                train: flags.parse_num("train", 6usize)?,
                corpus_dir,
                json: flags.switches.contains("json"),
            }))
        }
        "render" => {
            let flags = collect_flags(rest, &[])?;
            Ok(Command::Render(RenderArgs {
                scene: PathBuf::from(flags.required("scene")?),
                frame: flags.parse_num("frame", 0usize)?,
                svg: flags.optional("svg").map(PathBuf::from),
            }))
        }
        "bench-record" => {
            let flags = collect_flags(rest, &[])?;
            Ok(Command::BenchRecord(BenchRecordArgs {
                json: PathBuf::from(flags.required("json")?),
                out: PathBuf::from(flags.optional("out").unwrap_or("BENCH_pipeline.json")),
                note: flags.optional("note").map(String::from),
            }))
        }
        other => Err(ParseError(format!("unknown command '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_is_help() {
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
        assert!(matches!(parse(&argv("help")).unwrap(), Command::Help));
        assert!(matches!(parse(&argv("--help")).unwrap(), Command::Help));
    }

    #[test]
    fn generate_parses() {
        let cmd = parse(&argv("generate --profile lyft --scenes 3 --seed 9 --out /tmp/x")).unwrap();
        match cmd {
            Command::Generate(g) => {
                assert_eq!(g.profile, loa_data::DatasetProfile::LyftLike);
                assert_eq!(g.scenes, 3);
                assert_eq!(g.seed, 9);
                assert_eq!(g.out, PathBuf::from("/tmp/x"));
                assert!(g.duration.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn generate_duration_override() {
        let cmd = parse(&argv(
            "generate --profile internal --scenes 1 --out /tmp/x --duration 5",
        ))
        .unwrap();
        match cmd {
            Command::Generate(g) => assert_eq!(g.duration, Some(5.0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn generate_requires_profile_and_out() {
        assert!(parse(&argv("generate --scenes 3 --out /tmp/x")).is_err());
        assert!(parse(&argv("generate --profile lyft")).is_err());
        assert!(parse(&argv("generate --profile mars --out /tmp/x")).is_err());
    }

    #[test]
    fn learn_defaults_app() {
        let cmd = parse(&argv("learn --data d --out l.json")).unwrap();
        match cmd {
            Command::Learn(l) => assert_eq!(l.app, App::MissingTracks),
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv("learn --data d --app model-errors --out l.json")).unwrap();
        match cmd {
            Command::Learn(l) => assert_eq!(l.app, App::ModelErrors),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rank_parses_grade_switch() {
        let cmd = parse(&argv("rank --scene s.json --library l.json --grade --top 5")).unwrap();
        match cmd {
            Command::Rank(r) => {
                assert!(r.grade);
                assert_eq!(r.top, 5);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv("rank --scene s.json --library l.json")).unwrap();
        match cmd {
            Command::Rank(r) => {
                assert!(!r.grade);
                assert_eq!(r.top, 10);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_numbers_rejected() {
        assert!(parse(&argv("generate --profile lyft --scenes many --out x")).is_err());
        assert!(parse(&argv("rank --scene s --library l --top ten")).is_err());
        assert!(parse(&argv("fuzz --seed banana")).is_err());
    }

    #[test]
    fn fuzz_defaults_and_overrides() {
        match parse(&argv("fuzz")).unwrap() {
            Command::Fuzz(f) => {
                assert_eq!(f.seed, 7);
                assert_eq!(f.scenes, 200);
                assert_eq!(f.top_k, 10);
                assert_eq!(f.train, 6);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("fuzz --seed 3 --scenes 12 --top-k 5 --train 2")).unwrap() {
            Command::Fuzz(f) => {
                assert_eq!(f.seed, 3);
                assert_eq!(f.scenes, 12);
                assert_eq!(f.top_k, 5);
                assert_eq!(f.train, 2);
                assert!(f.corpus_dir.is_none());
                assert!(!f.json);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("fuzz --corpus-dir c --json")).unwrap() {
            Command::Fuzz(f) => {
                assert_eq!(f.corpus_dir, Some(PathBuf::from("c")));
                assert!(f.json);
            }
            other => panic!("{other:?}"),
        }
        // --json is a corpus-materialization format switch, not standalone.
        assert!(parse(&argv("fuzz --json")).is_err());
    }

    #[test]
    fn learn_out_format() {
        match parse(&argv("learn --data d --out l.flcb --out-format flcb")).unwrap() {
            Command::Learn(l) => assert_eq!(l.out_format, LibFormat::Flcb),
            other => panic!("{other:?}"),
        }
        match parse(&argv("learn --data d --out l.json")).unwrap() {
            Command::Learn(l) => assert_eq!(l.out_format, LibFormat::Json),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("learn --data d --out l --out-format msgpack")).is_err());
        for fmt in [LibFormat::Json, LibFormat::Flcb] {
            assert_eq!(LibFormat::parse(fmt.name()).unwrap(), fmt);
        }
    }

    #[test]
    fn convert_and_stream_parse() {
        match parse(&argv("convert --data d --out o")).unwrap() {
            Command::Convert(c) => {
                assert_eq!(c.data, Some(PathBuf::from("d")));
                assert!(c.library.is_none());
                assert_eq!(c.out, Some(PathBuf::from("o")));
            }
            other => panic!("{other:?}"),
        }
        // --data mode requires --out; --library mode defaults it.
        assert!(parse(&argv("convert --data d")).is_err());
        assert!(parse(&argv("convert")).is_err());
        assert!(parse(&argv("convert --data d --library l.json --out o")).is_err());
        match parse(&argv("convert --library l.json")).unwrap() {
            Command::Convert(c) => {
                assert!(c.data.is_none());
                assert_eq!(c.library, Some(PathBuf::from("l.json")));
                assert!(c.out.is_none());
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("stream --scene s.fscb --library l.json --top 3")).unwrap() {
            Command::Stream(s) => {
                assert_eq!(s.scene, PathBuf::from("s.fscb"));
                assert_eq!(s.app, App::MissingTracks);
                assert_eq!(s.top, 3);
                assert!(!s.compare_full);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv(
            "stream --scene s.json --library l.json --app model-errors --compare-full",
        ))
        .unwrap()
        {
            Command::Stream(s) => {
                assert_eq!(s.app, App::ModelErrors);
                assert_eq!(s.top, 5);
                assert!(s.compare_full);
                assert!(!s.trace);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("stream --scene s.fscb --library l.json --trace")).unwrap() {
            Command::Stream(s) => assert!(s.trace && !s.compare_full),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("stream --scene s.json")).is_err());
    }

    #[test]
    fn serve_and_feed_parse() {
        match parse(&argv("serve --listen 127.0.0.1:0 --library l.json --port-file p.txt")).unwrap()
        {
            Command::Serve(s) => {
                assert_eq!(s.listen, "127.0.0.1:0");
                assert_eq!(s.app, App::MissingTracks);
                assert_eq!(s.window, 8);
                assert_eq!(s.max_frames, 100_000);
                assert_eq!(s.max_sessions, 4096);
                assert_eq!(s.port_file, Some(PathBuf::from("p.txt")));
                assert!(s.metrics_addr.is_none() && s.metrics_port_file.is_none());
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv(
            "serve --listen 0.0.0.0:7400 --library l.json --app model-errors --window 16 \
             --max-frames 500 --max-sessions 2 --metrics-addr 127.0.0.1:0 \
             --metrics-port-file m.txt",
        ))
        .unwrap()
        {
            Command::Serve(s) => {
                assert_eq!(s.app, App::ModelErrors);
                assert_eq!(s.window, 16);
                assert_eq!(s.max_frames, 500);
                assert_eq!(s.max_sessions, 2);
                assert!(s.port_file.is_none());
                assert_eq!(s.metrics_addr.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(s.metrics_port_file, Some(PathBuf::from("m.txt")));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve --library l.json")).is_err());

        match parse(&argv(
            "feed --addr 127.0.0.1:7400 --data d --late 3 --seed 5 --dup-every 4 --top 3 \
             --out-dir o --shutdown",
        ))
        .unwrap()
        {
            Command::Feed(f) => {
                assert_eq!(f.addr, "127.0.0.1:7400");
                assert_eq!(f.data, PathBuf::from("d"));
                assert_eq!(f.late, 3);
                assert_eq!(f.seed, 5);
                assert_eq!(f.dup_every, 4);
                assert_eq!(f.top, 3);
                assert_eq!(f.out_dir, Some(PathBuf::from("o")));
                assert!(f.shutdown);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("feed --addr a:1 --data d")).unwrap() {
            Command::Feed(f) => {
                assert_eq!(f.late, 0);
                assert_eq!(f.dup_every, 0);
                assert_eq!(f.top, 5);
                assert!(!f.shutdown);
                assert!(f.out_dir.is_none());
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("feed --data d")).is_err());
    }

    #[test]
    fn unknown_command_and_flags() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("rank positional")).is_err());
        assert!(parse(&argv("learn --data")).is_err());
    }

    #[test]
    fn app_roundtrip() {
        for app in [App::MissingTracks, App::MissingObs, App::ModelErrors] {
            assert_eq!(App::parse(app.name()).unwrap(), app);
        }
        assert!(App::parse("nope").is_err());
    }
}
