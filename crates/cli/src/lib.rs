//! The `fixy` command-line interface.
//!
//! The deployment-shaped surface of the reproduction: generate datasets,
//! learn feature libraries offline, rank errors online, render frames —
//! all over JSON files, so each stage can run on a different machine (the
//! paper's offline/online split).
//!
//! ```text
//! fixy generate --profile lyft --scenes 8 --seed 7 --out data/
//! fixy learn    --data data/ --app missing-tracks --out library.json
//! fixy rank     --scene data/lyft-like-000-s7.json --library library.json --top 10
//! fixy render   --scene data/lyft-like-000-s7.json --frame 12
//! ```
//!
//! The library is a thin argument-parsing and orchestration layer; all
//! logic lives in the workspace crates. Commands return their stdout as a
//! string so tests can drive them directly.

pub mod args;
pub mod commands;

pub use args::{parse, Command, ParseError};

/// Run a parsed command, returning its stdout payload.
pub fn run(command: Command) -> Result<String, CliError> {
    match command {
        Command::Generate(g) => commands::generate(g),
        Command::Learn(l) => commands::learn(l),
        Command::Rank(r) => commands::rank(r),
        Command::Convert(c) => commands::convert(c),
        Command::Stream(s) => commands::stream(s),
        Command::Serve(s) => commands::serve(s),
        Command::Feed(f) => commands::feed(f),
        Command::Fuzz(f) => commands::fuzz(f),
        Command::Render(r) => commands::render(r),
        Command::BenchRecord(b) => commands::bench_record(b),
        Command::Help => Ok(args::usage()),
    }
}

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    Io(std::io::Error),
    Json(serde_json::Error),
    Data(loa_data::io::IoError),
    Ingest(loa_ingest::IngestError),
    Codec(fixy_core::CodecError),
    Fixy(fixy_core::FixyError),
    Serve(loa_serve::ServeError),
    Invalid(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Io(e) => write!(f, "io: {e}"),
            CliError::Json(e) => write!(f, "json: {e}"),
            CliError::Data(e) => write!(f, "data: {e}"),
            CliError::Ingest(e) => write!(f, "ingest: {e}"),
            CliError::Codec(e) => write!(f, "library: {e}"),
            CliError::Fixy(e) => write!(f, "fixy: {e}"),
            CliError::Serve(e) => write!(f, "serve: {e}"),
            CliError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}

impl From<loa_data::io::IoError> for CliError {
    fn from(e: loa_data::io::IoError) -> Self {
        CliError::Data(e)
    }
}

impl From<fixy_core::FixyError> for CliError {
    fn from(e: fixy_core::FixyError) -> Self {
        CliError::Fixy(e)
    }
}

impl From<loa_ingest::IngestError> for CliError {
    fn from(e: loa_ingest::IngestError) -> Self {
        CliError::Ingest(e)
    }
}

impl From<fixy_core::CodecError> for CliError {
    fn from(e: fixy_core::CodecError) -> Self {
        CliError::Codec(e)
    }
}

impl From<loa_serve::ServeError> for CliError {
    fn from(e: loa_serve::ServeError) -> Self {
        CliError::Serve(e)
    }
}
