//! # DeepMC — detecting deep memory persistency bugs in NVM programs
//!
//! This crate is the toolkit of the paper (PPoPP'22): given an NVM program
//! (as PIR modules) and the persistency model its developers intend to
//! implement (a single `-strict`/`-epoch`/`-strand` flag), DeepMC reports
//! *persistency model violations* (crash-consistency risks) and
//! *performance bugs* (unnecessary persistent operations).
//!
//! ## Pipeline (paper Fig. 8)
//!
//! 1. Offline: build CFGs and the call graph (step ①), collect bounded
//!    program-order traces (step ②), run Data Structure Analysis for
//!    field-sensitive memory disambiguation (step ③), and apply the
//!    checking rules of Tables 4 and 5 to every trace (step ④) — see
//!    [`static_checker`].
//! 2. Online: instrument persistent operations inside annotated regions
//!    (step ⑤) and check strand dependences with happens-before race
//!    detection over shadow memory at runtime (step ⑥) — see [`dynamic`].
//!
//! ## Quick start
//!
//! ```
//! use deepmc::{check_source, DeepMcConfig};
//! use deepmc_models::PersistencyModel;
//!
//! let src = r#"
//! module demo
//! file "demo.c"
//! struct rec { a: i64, b: i64 }
//! fn main() {
//! entry:
//!   %r = palloc rec
//!   store %r.a, 1
//!   // BUG: %r.a is never flushed
//!   ret
//! }
//! "#;
//! let report = check_source(src, &DeepMcConfig::new(PersistencyModel::Strict)).unwrap();
//! assert_eq!(report.warnings.len(), 1);
//! assert_eq!(report.warnings[0].class, deepmc_models::BugClass::UnflushedWrite);
//! ```

pub mod cache;
pub mod config;
pub mod dynamic;
pub mod fixer;
pub mod instrument;
pub mod report;
pub mod static_checker;
pub mod stats;
pub mod suppress;

pub use cache::{AnalysisCache, CacheRunStats};
pub use config::DeepMcConfig;
pub use report::{FixHint, Report, RootFailure, Warning};
pub use static_checker::StaticChecker;

use deepmc_analysis::{pool, Program};
use deepmc_pir::{parse, Module, ParseError};

/// Errors from the front end and the one-call driver APIs.
#[derive(Debug)]
pub enum CheckError {
    /// An input file could not be read.
    Read(std::io::Error),
    Parse(ParseError),
    Verify(deepmc_pir::verify::VerifyError),
    Link(deepmc_analysis::program::DuplicateFunction),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Read(e) => write!(f, "{e}"),
            CheckError::Parse(e) => write!(f, "{e}"),
            CheckError::Verify(e) => write!(f, "{e}"),
            CheckError::Link(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// The front end: read, parse and verify each input as one job of the
/// worker pool at `jobs` (`0` means `DEEPMC_JOBS`, then all cores), and
/// return the modules in input order, ready to link. `text` reads one
/// input. On failure the error is that of the first failing input in input
/// order, with its index, at any worker count.
pub fn parse_and_verify<T: Sync, S: AsRef<str>>(
    inputs: &[T],
    jobs: usize,
    text: impl Fn(&T) -> Result<S, CheckError> + Sync,
) -> Result<Vec<Module>, (usize, CheckError)> {
    let loaded =
        pool::run_indexed(pool::resolve_jobs(jobs), inputs.iter().collect(), |_, input| {
            let module = parse(text(input)?.as_ref()).map_err(CheckError::Parse)?;
            deepmc_pir::verify::verify_module(&module).map_err(CheckError::Verify)?;
            Ok(module)
        });
    loaded.into_iter().enumerate().map(|(i, m)| m.map_err(|e| (i, e))).collect()
}

/// Parse, verify, link, and statically check one PIR source text.
pub fn check_source(src: &str, config: &DeepMcConfig) -> Result<Report, CheckError> {
    let module = parse(src).map_err(CheckError::Parse)?;
    deepmc_pir::verify::verify_module(&module).map_err(CheckError::Verify)?;
    Ok(StaticChecker::new(config.clone()).check_program(&Program::single(module)))
}

/// Parse, verify, link, and statically check several PIR sources as one
/// program. The sources are parsed and verified in the worker pool
/// ([`parse_and_verify`]) and linked in order.
pub fn check_sources(srcs: &[&str], config: &DeepMcConfig) -> Result<Report, CheckError> {
    let modules = parse_and_verify(srcs, 0, |s| Ok(*s)).map_err(|(_, e)| e)?;
    let program = Program::new(modules).map_err(CheckError::Link)?;
    Ok(StaticChecker::new(config.clone()).check_program(&program))
}
