//! # deepmc-corpus — the evaluation corpus
//!
//! PIR re-implementations of the NVM frameworks and example programs the
//! paper studies — PMDK, PMFS, NVM-Direct (strict persistency) and
//! Mnemosyne (epoch persistency) — each seeded with the deep persistency
//! bugs of Tables 3 (studied) and 8 (new), at the paper's file:line
//! coordinates, plus the aliasing / correlated-branch / zero-iteration
//! patterns that make DeepMC's conservative analysis over-report
//! (7 of 50 warnings are false positives, §5.4).
//!
//! [`ground_truth`] is the corpus specification: one entry per expected
//! warning, labeled with its bug class, study/new origin, library/example
//! location, and validity. The Table-1/2/3/8 reproduction harness runs
//! DeepMC over [`Framework::ALL`] and scores the report against this
//! table.

pub mod ground_truth;
pub mod mnemosyne;
pub mod nvm_direct;
pub mod pmdk;
pub mod pmfs;

pub use ground_truth::{
    ds_labels_for, BugOrigin, BugSite, CodeLocation, DsLabel, Validity, DS_GROUND_TRUTH,
    GROUND_TRUTH,
};

use deepmc_analysis::Program;
use deepmc_models::PersistencyModel;
use deepmc_pir::Module;

/// One framework under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Framework {
    Pmdk,
    NvmDirect,
    Pmfs,
    Mnemosyne,
}

impl Framework {
    /// Table-1 column order.
    pub const ALL: [Framework; 4] =
        [Framework::Pmdk, Framework::NvmDirect, Framework::Pmfs, Framework::Mnemosyne];

    pub fn name(self) -> &'static str {
        match self {
            Framework::Pmdk => "PMDK",
            Framework::NvmDirect => "NVM-Direct",
            Framework::Pmfs => "PMFS",
            Framework::Mnemosyne => "Mnemosyne",
        }
    }

    /// The persistency model the framework declares (paper Table 1
    /// caption: PMDK and NVM-Direct use strict, PMFS and Mnemosyne epoch).
    pub fn model(self) -> PersistencyModel {
        match self {
            Framework::Pmdk | Framework::NvmDirect => PersistencyModel::Strict,
            Framework::Pmfs | Framework::Mnemosyne => PersistencyModel::Epoch,
        }
    }

    /// The framework's PIR source texts (one per module), e.g. for
    /// writing to disk and feeding the `deepmc` CLI.
    pub fn sources(self) -> &'static [&'static str] {
        match self {
            Framework::Pmdk => pmdk::SOURCES,
            Framework::NvmDirect => nvm_direct::SOURCES,
            Framework::Pmfs => pmfs::SOURCES,
            Framework::Mnemosyne => mnemosyne::SOURCES,
        }
    }

    /// Parse the framework's modules.
    pub fn modules(self) -> Vec<Module> {
        self.sources()
            .iter()
            .map(|src| {
                let m = deepmc_pir::parse(src).unwrap_or_else(|e| {
                    panic!("corpus module for {} failed to parse: {e}", self.name())
                });
                deepmc_pir::verify::verify_module(&m).unwrap_or_else(|e| {
                    panic!("corpus module for {} failed to verify: {e}", self.name())
                });
                m
            })
            .collect()
    }

    /// The framework as one analyzable program.
    pub fn program(self) -> Program {
        Program::new(self.modules()).expect("corpus modules must link")
    }

    /// Run DeepMC's static checker over the framework with its declared
    /// model.
    pub fn check(self) -> deepmc::Report {
        let config = deepmc::DeepMcConfig::new(self.model());
        deepmc::StaticChecker::new(config).check_program(&self.program())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_frameworks_parse_and_verify() {
        for fw in Framework::ALL {
            let program = fw.program();
            assert!(program.inst_count() > 0, "{} is empty", fw.name());
        }
    }

    #[test]
    fn models_match_table1_caption() {
        assert_eq!(Framework::Pmdk.model(), PersistencyModel::Strict);
        assert_eq!(Framework::NvmDirect.model(), PersistencyModel::Strict);
        assert_eq!(Framework::Pmfs.model(), PersistencyModel::Epoch);
        assert_eq!(Framework::Mnemosyne.model(), PersistencyModel::Epoch);
    }
}
