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

use deepmc_analysis::Program;
use deepmc_pir::{parse, ParseError};

/// Errors from the one-call driver APIs.
#[derive(Debug)]
pub enum CheckError {
    Parse(ParseError),
    Verify(deepmc_pir::verify::VerifyError),
    Link(deepmc_analysis::program::DuplicateFunction),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Parse(e) => write!(f, "{e}"),
            CheckError::Verify(e) => write!(f, "{e}"),
            CheckError::Link(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Parse, verify, link, and statically check one PIR source text.
pub fn check_source(src: &str, config: &DeepMcConfig) -> Result<Report, CheckError> {
    let module = parse(src).map_err(CheckError::Parse)?;
    deepmc_pir::verify::verify_module(&module).map_err(CheckError::Verify)?;
    Ok(StaticChecker::new(config.clone()).check_program(&Program::single(module)))
}

/// Parse, verify, link, and statically check several PIR sources as one
/// program.
pub fn check_sources(srcs: &[&str], config: &DeepMcConfig) -> Result<Report, CheckError> {
    let mut modules = Vec::with_capacity(srcs.len());
    for s in srcs {
        let m = parse(s).map_err(CheckError::Parse)?;
        deepmc_pir::verify::verify_module(&m).map_err(CheckError::Verify)?;
        modules.push(m);
    }
    let program = Program::new(modules).map_err(CheckError::Link)?;
    Ok(StaticChecker::new(config.clone()).check_program(&program))
}
